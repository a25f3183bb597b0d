//! Self-healing drivers: the §5/§8 algorithms with **no fault oracle**.
//!
//! No processor is told which faults fire: protocols are restructured so
//! faults are *detected from the wire* and survived by reconfiguration,
//! including processor crashes — a survivor adopts the crashed
//! processor's role, so the output has no `None` holes.
//!
//! # The all-read discipline
//!
//! A [`HealProgram`] expresses an algorithm as phases of **serialized
//! broadcast rounds**: per round exactly one virtual role writes one framed
//! word and *every live processor reads that round's channel*. That costs
//! channel parallelism (one message per cycle), but buys three properties
//! the detection story needs:
//!
//! 1. **Instant common knowledge.** Every fault manifestation — dead
//!    channel, dead/crashed writer, dropped frame ([silence]), corrupted
//!    frame ([noise]) — is observed by all live processors in the same
//!    cycle, so they react in lock-step with no agreement sub-protocol.
//! 2. **Full-state mirroring.** Since everyone hears every word, every
//!    processor maintains an identical replica of the global state
//!    (classic state-machine replication). Any survivor can therefore
//!    adopt any dead processor's role — crash takeover with *full output*,
//!    up to `p − 1` crashes.
//! 3. **One-phase rollback.** The replica is committed only at phase
//!    boundaries; on a detected fault the phase replays from the last
//!    committed state, so a fault costs at most one phase of rework.
//!
//! Dummies are broadcast explicitly (as [`DUMMY`] control words) rather
//! than elided: under the all-read discipline *silence must mean fault*,
//! so even "nothing to say" is said out loud.
//!
//! On suspicion every processor enters the epoch census
//! ([`EpochCtx::reconfigure`]), agrees on the live channel/processor sets,
//! bumps the epoch, and replays the interrupted phase with roles re-dealt
//! over the survivors ([`EpochCtx::host`]) and rounds re-rotated over the
//! live channels ([`EpochCtx::phys_channel`] — the §2 lemma remap with
//! idle sub-cycles elided, since a one-writer round never needs the full
//! `⌈k/k′⌉` dilation at run time; the static proof in
//! [`heal_schedule`]/`mcb-check` verifies the fully-dilated remap).
//!
//! # Execution
//!
//! The heal loop ([`run_program_in`]) and the census
//! ([`EpochCtx::reconfigure`]) are `async fn`s over a
//! [`StepCtx`]: every `ctx.cycle(..).await` is one network cycle.
//! [`SelfHealing`] wraps the loop in an [`AsyncStep`] and runs it with
//! [`Network::run_steps`], so under [`Backend::Vector`] every processor of
//! a healed run is advanced by the single-threaded vector driver — no OS
//! thread or fiber per processor — and [`Backend::Threaded`] runs the same
//! machines one OS thread each, as the reference.
//!
//! # Cost contract
//!
//! With `L` fault-free cycles, `R` committed reconfigurations, `W` the
//! longest phase in rounds, and `C` the census worst case
//! ([`EpochCtx::census_cost`]), a healed run finishes within
//! `L + R × (W + C)` cycles ([`HealedSort::cycle_bound`]) — each
//! reconfiguration costs one census plus at most one phase replay. The
//! chaos suite asserts this bound; the detection machinery itself adds
//! **zero** cycles to fault-free runs (framing costs bits, not cycles —
//! the `tab_detection_overhead` bench pins this).
//!
//! The healed run counts `L` itself, as the sum of its committed phases'
//! round counts, and reports the first survivor's count: a phase commits
//! only after every round read a clean frame, which carries the word that
//! was sent, so the committed replica takes exactly the perfect-wire path
//! of [`run_program_offline`] and the counts agree. Because the bound is
//! built from the run's own count, a heal bug that commits extra or
//! different rounds would raise both; the checks therefore hold the count
//! to an independent `L`: `mcb-sim`'s sweeps, explorer and replays to the
//! target's offline run, computed once per target, and the chaos and
//! self-heal suites to [`run_program_offline`] next to every bound.
//!
//! [silence]: mcb_net::FrameRead::Silence
//! [noise]: mcb_net::FrameRead::Noise

use crate::columnsort::{check_shape, Phase, PHASES};
use crate::local::sort_desc;
use crate::msg::{Key, Word};
use mcb_net::{
    escalate_diverged, AsyncStep, Backend, ControlCodec, EpochCause, EpochCtx, EpochOpts,
    EpochRecord, FaultPlan, FaultSummary, FrameRead, Metrics, NetError, Network, RunMonitor,
    StepCtx, Trace,
};

// ---------------------------------------------------------------------------
// Control-word codec
// ---------------------------------------------------------------------------

/// Tag bit marking a [`Word::Ctl`] as an epoch-census ping
/// (`PING_TAG | epoch << 20 | proc`).
pub const PING_TAG: u64 = 1 << 62;
/// A broadcast placeholder for a padding dummy ("nothing to say", said out
/// loud — see the [module docs](self)).
pub const DUMMY: u64 = 1 << 61;
/// Tag bit for a candidate count (`COUNT_TAG | count`).
pub const COUNT_TAG: u64 = 1 << 60;
/// Tag bit for a comparison tally (`CMP_TAG | gt << 20 | eq`).
pub const CMP_TAG: u64 = 1 << 59;

const LOW20: u64 = (1 << 20) - 1;

/// The epoch census speaks the algorithms' own wire type.
impl<K> ControlCodec for Word<K> {
    fn ping(proc: usize, epoch: u64) -> Self {
        debug_assert!((proc as u64) <= LOW20, "ping proc field overflow");
        debug_assert!(epoch < (1 << 39), "ping epoch field overflow");
        Word::Ctl(PING_TAG | epoch << 20 | proc as u64)
    }

    fn decode_ping(&self) -> Option<(usize, u64)> {
        match self {
            Word::Ctl(v) if v & PING_TAG != 0 => {
                Some(((v & LOW20) as usize, v >> 20 & ((1 << 42) - 1)))
            }
            _ => None,
        }
    }
}

/// Encode an optional key for a data round (`None` → [`DUMMY`]).
fn enc_opt<K>(k: Option<K>) -> Word<K> {
    k.map_or(Word::Ctl(DUMMY), Word::Key)
}

/// Decode a data-round word back to an optional key; panics on unexpected
/// control traffic (a protocol bug — pings are screened out earlier by
/// [`run_program_in`]).
fn dec_opt<K>(w: Word<K>) -> Option<K> {
    match w {
        Word::Key(k) => Some(k),
        Word::Ctl(v) if v & DUMMY != 0 => None,
        Word::Ctl(v) => panic!("protocol error: unexpected control word {v:#x} in data round"),
    }
}

// ---------------------------------------------------------------------------
// The program abstraction
// ---------------------------------------------------------------------------

/// An algorithm in all-read serialized-broadcast form (see the
/// [module docs](self)).
///
/// The contract that makes healing work:
///
/// * every processor calls every method with identical arguments and gets
///   identical results (the state is a mirrored replica, the methods pure);
/// * [`rounds`](HealProgram::rounds) schedules one `(role, word)` broadcast
///   per round — *which* processor hosts a role is the epoch layer's
///   business, not the program's;
/// * [`apply`](HealProgram::apply) folds the phase's **received** wire
///   words (not the locally computed ones) into the state, so the replica
///   tracks what was actually broadcast — wire-honesty;
/// * a phase with no rounds is local computation.
pub trait HealProgram<K: Key>: Send + Sync {
    /// The mirrored global state. Cloned at phase boundaries (checkpoint).
    type State: Clone;
    /// What the program computes.
    type Output;

    /// Number of virtual roles (the epoch layer deals them over live
    /// processors round-robin).
    fn roles(&self) -> usize;

    /// The state before any phase has run.
    fn initial(&self) -> Self::State;

    /// The next phase to run from `state`, or `None` when finished. The
    /// label is owned so composed programs (e.g.
    /// [`BatchProgram`](crate::batch::BatchProgram)) can attribute phases
    /// per tenant — `"job3:sel:counts"` — without leaking statics.
    fn next_phase(&self, state: &Self::State) -> Option<String>;

    /// The phase's broadcast schedule: round `t` has role `rounds[t].0`
    /// broadcasting word `rounds[t].1`. Empty for local phases.
    fn rounds(&self, state: &Self::State, phase: &str) -> Vec<(usize, Word<K>)>;

    /// Fold a cleanly completed phase into the state; `received[t]` is the
    /// word actually read in round `t`.
    fn apply(&self, state: &Self::State, phase: &str, received: &[Word<K>]) -> Self::State;

    /// Upper bound on any phase's round count (for the cycle bound).
    fn max_phase_rounds(&self) -> u64;

    /// Extract the result from a finished state.
    fn output(&self, state: &Self::State) -> Self::Output;
}

/// Mutation self-test hooks for the fault-space explorer.
///
/// Like `mcb_check::mutate`, the explorer is only trustworthy if it
/// demonstrably *finds* planted bugs. This module hosts runtime-switchable
/// mutations of the healing engine, **all off by default**; `mcb-sim`'s
/// planted-bug test enables one, proves the explorer finds and shrinks it,
/// and disables it again. A runtime flag (not a cargo feature) keeps
/// `cargo test --workspace` building every crate identically.
///
/// The flags are process-global, so a test that enables one must own the
/// whole test binary (see `crates/mcb-sim/tests/planted_bug.rs`).
pub mod mutation {
    use std::sync::atomic::{AtomicBool, Ordering};

    static ROLLBACK_OFF_BY_ONE: AtomicBool = AtomicBool::new(false);

    /// Enable/disable the planted rollback off-by-one: a replayed phase
    /// loses its first data word (committed as [`DUMMY`](super::DUMMY), as
    /// if the checkpoint resume started one round late). Returns the
    /// previous value so tests can restore it.
    pub fn set_rollback_off_by_one(on: bool) -> bool {
        ROLLBACK_OFF_BY_ONE.swap(on, Ordering::SeqCst)
    }

    /// Current state of the rollback off-by-one mutation.
    pub fn rollback_off_by_one() -> bool {
        ROLLBACK_OFF_BY_ONE.load(Ordering::SeqCst)
    }
}

/// Execute `prog` inside a live network protocol under `ectx`, healing
/// around detected faults. Resolves to `None` when this processor was
/// excluded by a census (the survivors carry its roles and its output).
///
/// Every live processor must start this in the same cycle with identical
/// `prog` and a fresh identical `ectx`, inside an
/// [`AsyncStep`] body; after it resolves, `ectx.records()` holds the
/// committed reconfiguration log (identical on every survivor).
pub async fn run_program_in<K: Key, P: HealProgram<K>>(
    ctx: &mut StepCtx<Word<K>>,
    ectx: &mut EpochCtx,
    prog: &P,
) -> Option<P::Output> {
    heal_loop(ctx, ectx, prog).await.map(|(out, _)| out)
}

/// The heal loop behind [`run_program_in`], also resolving to the
/// committed phases' round count: the program's fault-free cycles `L`
/// (see the [module docs](self) on the cost contract).
async fn heal_loop<K: Key, P: HealProgram<K>>(
    ctx: &mut StepCtx<Word<K>>,
    ectx: &mut EpochCtx,
    prog: &P,
) -> Option<(P::Output, u64)> {
    let me = ctx.id().index();
    let mut committed = prog.initial();
    let mut fault_free_cycles = 0u64;
    while let Some(phase) = prog.next_phase(&committed) {
        ctx.phase(&phase);
        let mut replayed = false;
        'replay: loop {
            let rounds = prog.rounds(&committed, &phase);
            let mut received: Vec<Word<K>> = Vec::with_capacity(rounds.len());
            for (t, (role, word)) in rounds.iter().enumerate() {
                let chan = ectx.phys_channel(t);
                let write = (ectx.host(*role) == me).then(|| (chan, word.clone()));
                match ctx.cycle(write, Some(chan)).await {
                    FrameRead::Clean(w) => {
                        if let Some((_, foreign)) = w.decode_ping() {
                            // A census ping where the schedule expects
                            // data: someone is reconfiguring and we are
                            // not — common knowledge has split.
                            escalate_diverged(ctx, ectx.epoch(), foreign);
                        }
                        received.push(w);
                    }
                    suspect => {
                        let cause = if matches!(suspect, FrameRead::Noise) {
                            EpochCause::Noise
                        } else {
                            EpochCause::Silence
                        };
                        ectx.reconfigure(ctx, cause).await;
                        if ectx.is_excluded() {
                            return None;
                        }
                        // Roll back to the last phase boundary: replay this
                        // phase from the committed replica under the new
                        // configuration.
                        replayed = true;
                        continue 'replay;
                    }
                }
            }
            if replayed && mutation::rollback_off_by_one() {
                // Planted bug (see [`mutation`]): a replayed phase commits
                // as if the rollback resumed one round late — the first
                // data word of the replay is read from the stale
                // checkpoint slot, i.e. lost. Every live processor
                // evaluates the hook identically, so the corruption is
                // lock-step (silent wrong output, not divergence).
                if let Some(w @ Word::Key(_)) = received.first_mut() {
                    *w = Word::Ctl(DUMMY);
                }
            }
            committed = prog.apply(&committed, &phase, &received);
            fault_free_cycles += rounds.len() as u64;
            break 'replay;
        }
    }
    Some((prog.output(&committed), fault_free_cycles))
}

/// Run `prog` with a perfect wire (every round's word is received as
/// sent): the fault-free reference answer and cycle count `L` (one cycle
/// per round — local phases are free, like all local work in the model).
pub fn run_program_offline<K: Key, P: HealProgram<K>>(prog: &P) -> (P::Output, u64) {
    let mut state = prog.initial();
    let mut cycles = 0u64;
    while let Some(phase) = prog.next_phase(&state) {
        let rounds = prog.rounds(&state, &phase);
        cycles += rounds.len() as u64;
        let received: Vec<Word<K>> = rounds.into_iter().map(|(_, w)| w).collect();
        state = prog.apply(&state, &phase, &received);
    }
    (prog.output(&state), cycles)
}

// ---------------------------------------------------------------------------
// Columnsort as a heal program
// ---------------------------------------------------------------------------

/// Phase labels, paper Figure 1 numbering (matching `sort::columns`).
const CS_PHASES: [&str; 8] = [
    "cs1:sort",
    "cs2:transpose",
    "cs3:sort",
    "cs4:undiagonalize",
    "cs5:sort",
    "cs6:upshift",
    "cs7:sort-rest",
    "cs8:downshift",
];

/// §5 Columnsort in all-read form: the full `m × k₀` matrix is mirrored on
/// every processor; transformation phases broadcast all `m·k₀` positions
/// (dummies included) column by column, role `c` hosting column `c`'s
/// rounds.
pub struct ColumnsortProgram<K> {
    m: usize,
    k0: usize,
    input: Vec<Option<K>>,
}

/// Mirrored state of a [`ColumnsortProgram`]: the column-major grid plus
/// the phase cursor.
#[derive(Clone)]
pub struct CsState<K> {
    grid: Vec<Option<K>>,
    phase_idx: usize,
}

impl<K: Key> ColumnsortProgram<K> {
    /// A program sorting `cols` (each of padded length `m`, `None` =
    /// dummy). Shape rules are §5.1's: `m ≥ k₀(k₀ − 1)`, `k₀ | m`.
    pub fn new(m: usize, cols: &[Vec<Option<K>>]) -> Result<Self, NetError> {
        let k0 = cols.len();
        check_shape(m, k0).map_err(|e| NetError::BadConfig(e.to_string()))?;
        if let Some(bad) = cols.iter().find(|c| c.len() != m) {
            return Err(NetError::BadConfig(format!(
                "column has {} entries, want padded length m = {m}",
                bad.len()
            )));
        }
        Ok(ColumnsortProgram {
            m,
            k0,
            input: cols.iter().flatten().cloned().collect(),
        })
    }
}

impl<K: Key> HealProgram<K> for ColumnsortProgram<K> {
    type State = CsState<K>;
    type Output = Vec<Vec<Option<K>>>;

    fn roles(&self) -> usize {
        self.k0
    }

    fn initial(&self) -> CsState<K> {
        CsState {
            grid: self.input.clone(),
            phase_idx: 0,
        }
    }

    fn next_phase(&self, state: &CsState<K>) -> Option<String> {
        CS_PHASES.get(state.phase_idx).map(|&s| s.to_owned())
    }

    fn rounds(&self, state: &CsState<K>, _phase: &str) -> Vec<(usize, Word<K>)> {
        match PHASES[state.phase_idx] {
            Phase::SortColumns | Phase::SortColumnsExceptFirst => Vec::new(),
            Phase::Apply(_) => (0..self.m * self.k0)
                .map(|q| (q / self.m, enc_opt(state.grid[q].clone())))
                .collect(),
        }
    }

    fn apply(&self, state: &CsState<K>, _phase: &str, received: &[Word<K>]) -> CsState<K> {
        let mut next = state.clone();
        match PHASES[state.phase_idx] {
            Phase::SortColumns => {
                for c in 0..self.k0 {
                    // Descending with None < Some(_): dummies sink to the
                    // column tail.
                    sort_desc(&mut next.grid[c * self.m..(c + 1) * self.m]);
                }
            }
            Phase::SortColumnsExceptFirst => {
                for c in 1..self.k0 {
                    sort_desc(&mut next.grid[c * self.m..(c + 1) * self.m]);
                }
            }
            Phase::Apply(tf) => {
                let perm = tf.permutation(self.m, self.k0);
                for (q, w) in received.iter().enumerate() {
                    next.grid[perm[q]] = dec_opt(w.clone());
                }
            }
        }
        next.phase_idx += 1;
        next
    }

    fn max_phase_rounds(&self) -> u64 {
        (self.m * self.k0) as u64
    }

    fn output(&self, state: &CsState<K>) -> Vec<Vec<Option<K>>> {
        state.grid.chunks(self.m).map(<[_]>::to_vec).collect()
    }
}

// ---------------------------------------------------------------------------
// Selection as a heal program
// ---------------------------------------------------------------------------

/// §8 filtering selection in all-read form: every processor mirrors all
/// candidate lists; each filtering iteration broadcasts per-role medians
/// and counts, picks the weighted median-of-medians as pivot, broadcasts
/// comparison tallies, and prunes — finishing with a gather of the few
/// survivors.
pub struct SelectProgram<K> {
    input: Vec<Vec<K>>,
    d: u64,
}

/// Mirrored state of a [`SelectProgram`].
#[derive(Clone)]
pub struct SelState<K> {
    lists: Vec<Vec<K>>,
    d: u64,
    stage: SelStage<K>,
}

#[derive(Clone)]
enum SelStage<K> {
    Medians,
    Counts { pivot: K },
    Gather,
    Done { answer: K },
}

impl<K: Key> SelectProgram<K> {
    /// Select the `d`'th largest (1-based) of the multiset union of
    /// `lists`; each list must be non-empty (the paper's `n_i > 0`).
    pub fn new(lists: Vec<Vec<K>>, d: usize) -> Result<Self, NetError> {
        let n: usize = lists.iter().map(Vec::len).sum();
        if d < 1 || d > n {
            return Err(NetError::BadConfig(format!("rank {d} out of 1..={n}")));
        }
        if lists.iter().any(Vec::is_empty) {
            return Err(NetError::BadConfig("paper model assumes n_i > 0".into()));
        }
        Ok(SelectProgram {
            input: lists,
            d: d as u64,
        })
    }

    /// Gather threshold: once this few candidates remain, ship them all.
    fn gather_at(&self) -> usize {
        self.input.len().max(2)
    }

    fn stage_after_prune(&self, lists: &[Vec<K>]) -> SelStage<K> {
        let total: usize = lists.iter().map(Vec::len).sum();
        if total <= self.gather_at() {
            SelStage::Gather
        } else {
            SelStage::Medians
        }
    }
}

/// The `d`'th largest element of a small descending-sorted pool.
fn rank_desc<K: Ord + Clone>(pool: &mut [K], d: u64) -> K {
    sort_desc(pool);
    pool[(d - 1) as usize].clone()
}

impl<K: Key> HealProgram<K> for SelectProgram<K> {
    type State = SelState<K>;
    type Output = K;

    fn roles(&self) -> usize {
        self.input.len()
    }

    fn initial(&self) -> SelState<K> {
        let lists = self.input.clone();
        let stage = self.stage_after_prune(&lists);
        SelState {
            lists,
            d: self.d,
            stage,
        }
    }

    fn next_phase(&self, state: &SelState<K>) -> Option<String> {
        match state.stage {
            SelStage::Medians => Some("sel:medians".to_owned()),
            SelStage::Counts { .. } => Some("sel:counts".to_owned()),
            SelStage::Gather => Some("sel:gather".to_owned()),
            SelStage::Done { .. } => None,
        }
    }

    fn rounds(&self, state: &SelState<K>, _phase: &str) -> Vec<(usize, Word<K>)> {
        match &state.stage {
            SelStage::Medians => (0..state.lists.len())
                .flat_map(|r| {
                    let list = &state.lists[r];
                    let median = (!list.is_empty()).then(|| {
                        let mut pool = list.clone();
                        pool.sort_unstable();
                        pool[pool.len() / 2].clone()
                    });
                    [
                        (r, enc_opt(median)),
                        (r, Word::Ctl(COUNT_TAG | list.len() as u64)),
                    ]
                })
                .collect(),
            SelStage::Counts { pivot } => (0..state.lists.len())
                .map(|r| {
                    let gt = state.lists[r].iter().filter(|x| *x > pivot).count() as u64;
                    let eq = state.lists[r].iter().filter(|x| *x == pivot).count() as u64;
                    debug_assert!(gt <= LOW20 && eq <= LOW20, "tally field overflow");
                    (r, Word::Ctl(CMP_TAG | gt << 20 | eq))
                })
                .collect(),
            SelStage::Gather => (0..state.lists.len())
                .flat_map(|r| {
                    state.lists[r]
                        .iter()
                        .map(move |x| (r, Word::Key(x.clone())))
                })
                .collect(),
            SelStage::Done { .. } => Vec::new(),
        }
    }

    fn apply(&self, state: &SelState<K>, phase: &str, received: &[Word<K>]) -> SelState<K> {
        let mut next = state.clone();
        match phase {
            "sel:medians" => {
                // (median, weight) pairs off the wire; weighted median of
                // medians (descending) is the pivot.
                let mut entries: Vec<(K, u64)> = Vec::new();
                let mut total = 0u64;
                for pair in received.chunks(2) {
                    let median = dec_opt(pair[0].clone());
                    let count = match &pair[1] {
                        Word::Ctl(v) if v & COUNT_TAG != 0 => v & !COUNT_TAG,
                        other => panic!("protocol error: expected count, got {other:?}"),
                    };
                    total += count;
                    if let Some(m) = median {
                        entries.push((m, count));
                    }
                }
                entries.sort_by(|a, b| b.0.cmp(&a.0));
                let half = total.div_ceil(2);
                let mut cum = 0u64;
                let pivot = entries
                    .iter()
                    .find(|(_, w)| {
                        cum += w;
                        cum >= half
                    })
                    .map(|(m, _)| m.clone())
                    .expect("non-empty candidate set always has a median");
                next.stage = SelStage::Counts { pivot };
            }
            "sel:counts" => {
                let SelStage::Counts { pivot } = &state.stage else {
                    panic!("protocol error: counts phase without a pivot")
                };
                let (mut gt, mut eq) = (0u64, 0u64);
                for w in received {
                    match w {
                        Word::Ctl(v) if v & CMP_TAG != 0 => {
                            gt += v >> 20 & LOW20;
                            eq += v & LOW20;
                        }
                        other => panic!("protocol error: expected tally, got {other:?}"),
                    }
                }
                if next.d <= gt {
                    for list in &mut next.lists {
                        list.retain(|x| x > pivot);
                    }
                    next.stage = self.stage_after_prune(&next.lists);
                } else if next.d <= gt + eq {
                    next.stage = SelStage::Done {
                        answer: pivot.clone(),
                    };
                } else {
                    for list in &mut next.lists {
                        list.retain(|x| x < pivot);
                    }
                    next.d -= gt + eq;
                    next.stage = self.stage_after_prune(&next.lists);
                }
            }
            "sel:gather" => {
                let mut pool: Vec<K> = received
                    .iter()
                    .map(|w| match w {
                        Word::Key(k) => k.clone(),
                        other => panic!("protocol error: expected key, got {other:?}"),
                    })
                    .collect();
                let answer = rank_desc(&mut pool, next.d);
                next.stage = SelStage::Done { answer };
            }
            other => panic!("protocol error: unknown phase {other}"),
        }
        next
    }

    fn max_phase_rounds(&self) -> u64 {
        // Medians: 2 rounds per role; counts: 1; gather: ≤ gather_at ≤ 2p.
        2 * self.input.len() as u64
    }

    fn output(&self, state: &SelState<K>) -> K {
        match &state.stage {
            SelStage::Done { answer } => answer.clone(),
            _ => panic!("protocol error: output taken before Done"),
        }
    }
}

// ---------------------------------------------------------------------------
// Static schedule emission (per-epoch verification feeds mcb-check)
// ---------------------------------------------------------------------------

/// Emit the **logical** all-read schedule of `prog` on `MCB(p, k)` with
/// roles dealt over `live_procs`: per round one write on channel
/// `t mod k` and a read by every live processor. Feeding this to
/// `mcb_check::verify_degraded` with the epoch's dead channels proves the
/// epoch's §2 remap collision-free and within the lemma's dilation bound
/// (`verify_epochs` batches that across all epochs of a run).
///
/// The state evolution uses the perfect-wire replay, so the emitted
/// schedule is exactly the fault-free round structure.
pub fn heal_schedule<K: Key, P: HealProgram<K>>(
    prog: &P,
    p: usize,
    k: usize,
    live_procs: &[usize],
) -> mcb_check::CheckedSchedule {
    assert!(!live_procs.is_empty(), "need at least one live processor");
    let mut b = mcb_check::ScheduleBuilder::new("self-heal", p, k);
    let mut state = prog.initial();
    while let Some(phase) = prog.next_phase(&state) {
        let rounds = prog.rounds(&state, &phase);
        for (t, (role, _)) in rounds.iter().enumerate() {
            let chan = t % k;
            b.begin_cycle();
            b.write(live_procs[role % live_procs.len()], chan);
            for &pr in live_procs {
                b.read(pr, chan);
            }
        }
        let received: Vec<Word<K>> = rounds.into_iter().map(|(_, w)| w).collect();
        state = prog.apply(&state, &phase, &received);
    }
    b.finish()
}

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

/// Builder for self-healing (no-oracle) runs of the paper's algorithms.
///
/// The attached [`FaultPlan`] is **never consulted by the protocol** — it
/// only drives the injection side. Detection is purely wire-level, which is why plans
/// should avoid stalls (see
/// [`ChaosOpts::unplanned`](mcb_net::ChaosOpts::unplanned)): a stalled
/// processor misses a round everyone else observes and desynchronizes the
/// common knowledge (surfacing as
/// [`EpochDiverged`](NetError::EpochDiverged)).
///
/// ```
/// use mcb_algos::heal::SelfHealing;
/// use mcb_net::{ChanId, FaultPlan, ProcId};
///
/// // Channel 1 dies unannounced; processor 2 crashes. The sort still
/// // returns the full output — survivors adopt the crashed column.
/// let (m, k) = (6, 3);
/// let cols: Vec<Vec<Option<u64>>> = (0..k)
///     .map(|c| (0..m).map(|r| Some(((c * m + r) as u64 * 37) % 97)).collect())
///     .collect();
/// let plan = FaultPlan::new(k, k)
///     .kill_channel(ChanId(1), 7)
///     .crash_proc(ProcId(2), 11);
/// let out = SelfHealing::new(plan).sort_columns(m, cols).unwrap();
/// let lin: Vec<u64> = out.columns.iter().flatten().map(|x| x.unwrap()).collect();
/// assert!(lin.windows(2).all(|w| w[0] >= w[1]), "descending, no holes");
/// assert!(!out.epochs.is_empty(), "faults forced reconfigurations");
/// assert!(out.metrics.cycles <= out.cycle_bound);
/// ```
#[derive(Debug, Clone)]
pub struct SelfHealing {
    plan: FaultPlan,
    backend: Backend,
    opts: EpochOpts,
    record_trace: bool,
    monitor: Option<RunMonitor>,
    stall_window: Option<u64>,
    cycle_budget: Option<u64>,
}

/// Outcome of [`SelfHealing::sort_columns`].
#[derive(Debug, Clone)]
pub struct HealedSort<K> {
    /// The sorted columns (descending in column-major order, dummies at
    /// the tail) — **complete**, even when processors crashed.
    pub columns: Vec<Vec<Option<K>>>,
    /// Network costs; `metrics.cycles` includes detection, censuses, and
    /// replays.
    pub metrics: Metrics,
    /// The plan's summary (seed and planned-fault counts).
    pub fault_summary: Option<FaultSummary>,
    /// The committed reconfigurations, oldest first (identical on every
    /// survivor).
    pub epochs: Vec<EpochRecord>,
    /// Wire trace, when [`SelfHealing::record_trace`] was enabled.
    pub trace: Option<Trace<Word<K>>>,
    /// Cycles the same program takes fault-free (`L`), counted by the
    /// healed run (see the [module docs](self)).
    pub fault_free_cycles: u64,
    /// The healing cost contract `L + R × (W + C)` — see the
    /// [module docs](self); `metrics.cycles` never exceeds it.
    pub cycle_bound: u64,
}

/// Outcome of [`SelfHealing::select_rank`].
#[derive(Debug, Clone)]
pub struct HealedSelect<K> {
    /// The selected element `N[d]`.
    pub value: K,
    /// Network costs of the healed run.
    pub metrics: Metrics,
    /// The plan's summary.
    pub fault_summary: Option<FaultSummary>,
    /// The committed reconfigurations, oldest first.
    pub epochs: Vec<EpochRecord>,
    /// Wire trace, when [`SelfHealing::record_trace`] was enabled.
    pub trace: Option<Trace<Word<K>>>,
    /// Cycles the same program takes fault-free (`L`), counted by the
    /// healed run (see the [module docs](self)).
    pub fault_free_cycles: u64,
    /// The healing cost contract `L + R × (W + C)`.
    pub cycle_bound: u64,
}

impl SelfHealing {
    /// Self-healing runs under `plan`, default census/epoch budgets,
    /// automatic backend selection.
    pub fn new(plan: FaultPlan) -> Self {
        SelfHealing {
            plan,
            backend: Backend::Auto,
            opts: EpochOpts::default(),
            record_trace: false,
            monitor: None,
            stall_window: None,
            cycle_budget: None,
        }
    }

    /// Select the execution backend (healed runs are backend-identical
    /// like everything else, reconfiguration log included).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Extra census sweeps per reconfiguration (see
    /// [`EpochOpts::census_retries`]).
    pub fn census_retries(mut self, retries: u32) -> Self {
        self.opts.census_retries = retries;
        self
    }

    /// Cap on reconfigurations per run (see [`EpochOpts::max_epochs`]).
    pub fn max_epochs(mut self, max: u32) -> Self {
        self.opts.max_epochs = max;
        self
    }

    /// Record a wire trace (for timelines; off by default).
    pub fn record_trace(mut self, yes: bool) -> Self {
        self.record_trace = yes;
        self
    }

    /// Attach a live [`RunMonitor`]: the handle can be snapshotted from
    /// another thread while the healed run is in flight (see
    /// [`mcb_net::monitor`]).
    pub fn monitor(mut self, mon: &RunMonitor) -> Self {
        self.monitor = Some(mon.clone());
        self
    }

    /// Surface the engine's livelock watchdog
    /// ([`Network::stall_window`](mcb_net::Network::stall_window)) on the
    /// builder: a healed run in which `window` consecutive cycles deliver
    /// no message and finish no processor fails with
    /// [`NetError::Stalled`] instead of spinning. Long-running callers
    /// (the `mcb-serve` batcher) set this so a pathological plan turns
    /// into a typed error, never a hang.
    pub fn stall_window(mut self, window: u64) -> Self {
        self.stall_window = Some(window);
        self
    }

    /// Surface the engine's runaway-protection cycle budget
    /// ([`Network::cycle_budget`](mcb_net::Network::cycle_budget)) on the
    /// builder: exceeding it fails with
    /// [`mcb_net::NetError::CycleBudgetExhausted`].
    pub fn cycle_budget(mut self, budget: u64) -> Self {
        self.cycle_budget = Some(budget);
        self
    }

    /// Run an arbitrary [`HealProgram`] on `MCB(p, k)` under the plan —
    /// the generic engine behind [`sort_columns`](Self::sort_columns) and
    /// [`select_rank`](Self::select_rank), public so external callers
    /// (the `mcb-serve` batcher) can drive their own programs through
    /// the same self-heal stack.
    pub fn run_program<K: Key, P: HealProgram<K>>(
        &self,
        p: usize,
        k: usize,
        prog: P,
    ) -> Result<HealedRun<K, P::Output>, NetError>
    where
        P::Output: Clone + Send + 'static,
    {
        self.run_healed(p, k, prog)
    }

    /// Run a [`HealProgram`] on `MCB(p, k)` under the plan, returning the
    /// first survivor's output and reconfiguration log plus the run
    /// report's pieces. The generic engine behind both drivers.
    fn run_healed<K: Key, P: HealProgram<K>>(
        &self,
        p: usize,
        k: usize,
        prog: P,
    ) -> Result<HealedRun<K, P::Output>, NetError>
    where
        P::Output: Clone + Send + 'static,
    {
        let opts = self.opts;
        let mut net = Network::new(p, k)
            .backend(self.backend)
            .framing(true)
            .record_trace(self.record_trace)
            .fault_plan(self.plan.clone());
        if let Some(window) = self.stall_window {
            net = net.stall_window(window);
        }
        if let Some(budget) = self.cycle_budget {
            net = net.cycle_budget(budget);
        }
        if let Some(mon) = &self.monitor {
            net = net.monitor(mon);
        }
        let prog = &prog;
        let report = net.run_steps(|_| {
            AsyncStep::new(move |mut ctx| async move {
                let mut ectx = EpochCtx::new(p, k, opts);
                let out = heal_loop(&mut ctx, &mut ectx, prog).await;
                out.map(|(out, l)| (out, l, ectx.into_records()))
            })
        })?;
        let (output, fault_free_cycles, epochs) = report
            .results
            .iter()
            .flatten()
            .flatten()
            .next()
            .cloned()
            .ok_or_else(|| {
                NetError::BadConfig("no processor survived to carry the output".into())
            })?;
        Ok(HealedRun {
            output,
            epochs,
            metrics: report.metrics,
            fault_summary: report.fault_summary,
            trace: report.trace,
            fault_free_cycles,
        })
    }

    /// The cost contract `L + R × (W + C)` for a finished run on
    /// `MCB(p, k)`: `l` fault-free cycles plus, per committed
    /// reconfiguration, at most one replayed phase window of `max_rounds`
    /// rounds and one census sweep (see the [module docs](self)).
    pub fn bound(&self, p: usize, k: usize, l: u64, max_rounds: u64, reconfigs: u64) -> u64 {
        l + reconfigs * (max_rounds + EpochCtx::census_cost(p, k, &self.opts))
    }

    /// Sort `cols.len()` columns of padded length `m` (one per processor,
    /// `p = k = cols.len()`, the §5.2 base case) with no fault oracle.
    /// The plan must be shaped for `MCB(cols.len(), cols.len())`.
    pub fn sort_columns<K: Key>(
        &self,
        m: usize,
        cols: Vec<Vec<Option<K>>>,
    ) -> Result<HealedSort<K>, NetError> {
        let k0 = cols.len();
        let prog = ColumnsortProgram::new(m, &cols)?;
        let max_rounds = HealProgram::<K>::max_phase_rounds(&prog);
        let run = self.run_healed(k0, k0, prog)?;
        let cycle_bound = self.bound(
            k0,
            k0,
            run.fault_free_cycles,
            max_rounds,
            run.epochs.len() as u64,
        );
        Ok(HealedSort {
            columns: run.output,
            metrics: run.metrics,
            fault_summary: run.fault_summary,
            epochs: run.epochs,
            trace: run.trace,
            fault_free_cycles: run.fault_free_cycles,
            cycle_bound,
        })
    }

    /// Select the `d`'th largest element (1-based) of `lists` on
    /// `MCB(lists.len(), k)` with no fault oracle — same contract as
    /// [`select_rank`](crate::select::select_rank), but crash-surviving.
    /// The plan must be shaped for `MCB(lists.len(), k)`.
    pub fn select_rank<K: Key>(
        &self,
        k: usize,
        lists: Vec<Vec<K>>,
        d: usize,
    ) -> Result<HealedSelect<K>, NetError> {
        let p = lists.len();
        let prog = SelectProgram::new(lists, d)?;
        let max_rounds = HealProgram::<K>::max_phase_rounds(&prog);
        let run = self.run_healed(p, k, prog)?;
        let cycle_bound = self.bound(
            p,
            k,
            run.fault_free_cycles,
            max_rounds,
            run.epochs.len() as u64,
        );
        Ok(HealedSelect {
            value: run.output,
            metrics: run.metrics,
            fault_summary: run.fault_summary,
            epochs: run.epochs,
            trace: run.trace,
            fault_free_cycles: run.fault_free_cycles,
            cycle_bound,
        })
    }
}

/// Outcome of [`SelfHealing::run_program`]: the generic carrier behind
/// [`HealedSort`] and [`HealedSelect`].
#[derive(Debug, Clone)]
pub struct HealedRun<K, O> {
    /// The program's [`output`](HealProgram::output), taken from the
    /// first survivor (identical on all of them).
    pub output: O,
    /// The committed reconfigurations, oldest first.
    pub epochs: Vec<EpochRecord>,
    /// Network costs; `metrics.cycles` includes detection, censuses, and
    /// replays.
    pub metrics: Metrics,
    /// The plan's summary (seed and planned-fault counts).
    pub fault_summary: Option<FaultSummary>,
    /// Wire trace, when [`SelfHealing::record_trace`] was enabled.
    pub trace: Option<Trace<Word<K>>>,
    /// Cycles the same program takes fault-free (`L`), counted by the
    /// healed run (see the [module docs](self)).
    pub fault_free_cycles: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cols(m: usize, k: usize, salt: u64) -> Vec<Vec<Option<u64>>> {
        (0..k)
            .map(|c| {
                (0..m)
                    .map(|r| {
                        Some(((c * m + r) as u64 + salt).wrapping_mul(0x9e37_79b9_7f4a_7c15) % 2003)
                    })
                    .collect()
            })
            .collect()
    }

    fn flat_sorted_desc(cols: &[Vec<Option<u64>>]) -> Vec<u64> {
        let mut v: Vec<u64> = cols.iter().flatten().filter_map(|x| *x).collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v
    }

    #[test]
    fn word_ping_round_trips_and_rejects_data() {
        let w = <Word<u64> as ControlCodec>::ping(7, 3);
        assert_eq!(w.decode_ping(), Some((7, 3)));
        assert_eq!(Word::<u64>::Key(7).decode_ping(), None);
        assert_eq!(Word::<u64>::Ctl(DUMMY).decode_ping(), None);
        assert_eq!(Word::<u64>::Ctl(COUNT_TAG | 5).decode_ping(), None);
        assert_eq!(Word::<u64>::Ctl(CMP_TAG | 9 << 20 | 2).decode_ping(), None);
    }

    #[test]
    fn offline_columnsort_matches_reference() {
        let (m, k) = (12, 4);
        let input = cols(m, k, 1);
        let prog = ColumnsortProgram::new(m, &input).unwrap();
        let (sorted, l) = run_program_offline(&prog);
        let lin: Vec<u64> = sorted.iter().flatten().map(|x| x.unwrap()).collect();
        assert_eq!(lin, flat_sorted_desc(&input));
        // Four transformation phases, m·k rounds each.
        assert_eq!(l, 4 * (m * k) as u64);
    }

    #[test]
    fn offline_columnsort_keeps_dummies_at_tail() {
        let (m, k) = (6, 2);
        let mut input = cols(m, k, 2);
        input[0][3] = None;
        input[1][5] = None;
        let prog = ColumnsortProgram::new(m, &input).unwrap();
        let (sorted, _) = run_program_offline(&prog);
        let lin: Vec<Option<u64>> = sorted.into_iter().flatten().collect();
        let reals = lin.iter().filter(|x| x.is_some()).count();
        assert!(lin[..reals].iter().all(Option::is_some));
        assert!(lin[reals..].iter().all(Option::is_none));
        let vals: Vec<u64> = lin[..reals].iter().map(|x| x.unwrap()).collect();
        assert_eq!(vals, flat_sorted_desc(&input));
    }

    #[test]
    fn offline_selection_matches_sort() {
        let lists: Vec<Vec<u64>> = vec![vec![5, 1, 9], vec![3, 7], vec![2, 8, 6, 4]];
        let mut all: Vec<u64> = lists.iter().flatten().copied().collect();
        all.sort_unstable_by(|a, b| b.cmp(a));
        for d in 1..=all.len() {
            let prog = SelectProgram::new(lists.clone(), d).unwrap();
            let (got, _) = run_program_offline(&prog);
            assert_eq!(got, all[d - 1], "rank {d}");
        }
    }

    #[test]
    fn healed_run_without_faults_matches_offline_cost() {
        let (m, k) = (6, 2);
        let input = cols(m, k, 3);
        let out = SelfHealing::new(FaultPlan::new(k, k))
            .sort_columns(m, input.clone())
            .unwrap();
        assert!(out.epochs.is_empty());
        assert_eq!(out.metrics.cycles, out.fault_free_cycles);
        let lin: Vec<u64> = out.columns.iter().flatten().map(|x| x.unwrap()).collect();
        assert_eq!(lin, flat_sorted_desc(&input));
    }

    #[test]
    fn bad_shapes_surface_as_bad_config() {
        let err = SelfHealing::new(FaultPlan::new(4, 4))
            .sort_columns(8, cols(8, 4, 0)) // m = 8 < k(k-1) = 12
            .unwrap_err();
        assert!(matches!(err, NetError::BadConfig(_)));
        let err = SelfHealing::new(FaultPlan::new(2, 2))
            .select_rank(2, vec![vec![1u64], vec![]], 1)
            .unwrap_err();
        assert!(matches!(err, NetError::BadConfig(_)));
    }

    #[test]
    fn stalled_healed_run_surfaces_stalled_not_livelock() {
        use mcb_net::ChanId;
        let (m, k) = (6, 2);
        // Drop every channel's slot for longer than any census could
        // need, and make the census budget enormous: without a watchdog
        // the epoch machinery sweeps silence until `census_retries` runs
        // out. The builder's `stall_window` turns that grind into a
        // typed [`NetError::Stalled`] within a handful of cycles.
        let mut plan = FaultPlan::new(k, k);
        for cycle in 0..4096 {
            for chan in 0..k as u32 {
                plan = plan.drop_message(cycle, ChanId(chan));
            }
        }
        let err = SelfHealing::new(plan)
            .census_retries(100_000)
            .stall_window(8)
            .sort_columns(m, cols(m, k, 5))
            .unwrap_err();
        assert!(matches!(err, NetError::Stalled { .. }), "got {err:?}");
    }

    #[test]
    fn heal_schedule_is_collision_free_and_verifies() {
        let (m, k) = (6, 2);
        let prog = ColumnsortProgram::new(m, &cols(m, k, 4)).unwrap();
        let sched = heal_schedule(&prog, k, k, &[0, 1]);
        let report = mcb_check::verify(&sched, &mcb_check::Bounds::none());
        assert!(report.is_ok(), "{report}");
        assert_eq!(sched.cycle_count(), 4 * (m * k) as u64);
    }
}
