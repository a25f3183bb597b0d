//! Deterministic fault injection.
//!
//! The engine is normally fail-fast: collisions, panics, and bad channels
//! abort the run. This module adds the opposite capability — *keep going on
//! degraded hardware* — in a way that stays bit-deterministic and identical
//! across the execution backends.
//!
//! # Fault taxonomy
//!
//! A [`FaultPlan`] is a **static, seeded schedule of faults**, fixed before
//! the run starts. Five kinds exist ([`FaultKind`]):
//!
//! | kind           | scope                | semantics                                        |
//! |----------------|----------------------|--------------------------------------------------|
//! | `ChannelDeath` | channel, permanent   | writes to the channel are lost from the death cycle on |
//! | `Drop`         | (cycle, channel)     | the message transmitted that slot vanishes       |
//! | `Corrupt`      | (cycle, channel)     | detected-and-discarded (CRC model): same loss as a drop, distinct record |
//! | `Crash`        | processor, permanent | the processor stops mid-protocol; its result slot stays `None` |
//! | `Stall`        | (cycle, processor)   | the processor's I/O is suppressed that cycle (writes lost, reads empty); its program still advances |
//!
//! Faulted transmissions never reach the channel slot, so they do not
//! participate in collision detection ("jammed at the transmitter") and are
//! **not** counted as messages; every *fired* fault is recorded as a
//! [`FaultRecord`] in [`Metrics::faults`](crate::Metrics::faults), the
//! [`Trace`](crate::Trace), and the JSONL export.
//!
//! # Representation
//!
//! A plan is its seed, its `(p, k)` shape and its canonical event list
//! ([`FaultPlan::events`]): deaths by channel, crashes by processor,
//! drops and corruptions by (cycle, channel), then stalls by (cycle,
//! processor). Each channel dies at most once and each processor crashes
//! at most once; transients are a set. The plan answers the static
//! questions itself by scanning that short list ([`FaultPlan::is_dead`],
//! [`FaultPlan::live_at`], [`FaultPlan::min_live`],
//! [`FaultPlan::summary`]). The per-cycle ones — does this processor
//! crash, is it stalled, what suppresses this write — are asked only by
//! the drivers, and only of a crate-private `FaultIndex` that the engine
//! compiles from the list once per run (death and crash cycles per party,
//! transients keyed by (cycle, party), the summary); it answers each in
//! O(1).
//!
//! # Recovery
//!
//! Protocols are never told which faults fire: the plan drives only the
//! injection side. Recovery is the self-healing stack's job — the frame
//! layer ([`crate::frame`]) makes every fault visible on the wire, the
//! epoch census ([`crate::epoch`]) agrees on the surviving channels and
//! processors, and `mcb_algos::heal` replays the interrupted phase on
//! them. The paper's §2 simulation lemma, which says how an `MCB(p, k)`
//! schedule runs on `k' < k` survivors at `⌈k/k'⌉` dilation, lives in
//! `mcb_check::degrade` as a schedule transformation the verifier proves.

use crate::ids::{ChanId, ProcId};
use mcb_json::Json;
use mcb_rng::Rng64;
use std::collections::{BTreeSet, HashSet};

/// The kind of an injected fault. See the [module docs](self) for the
/// semantics table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// Permanent channel death: writes are lost from the death cycle on.
    ChannelDeath,
    /// Transient loss of one (cycle, channel) transmission.
    Drop,
    /// Transmission corrupted in flight; detected and discarded.
    Corrupt,
    /// Permanent processor crash.
    Crash,
    /// One-cycle processor I/O blackout.
    Stall,
}

impl FaultKind {
    /// Stable machine-readable tag, used by the JSONL export.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::ChannelDeath => "channel_death",
            FaultKind::Drop => "drop",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Crash => "crash",
            FaultKind::Stall => "stall",
        }
    }
}

/// One *planned* fault atom, the unit the fault-space explorer enumerates,
/// removes, and bisects.
///
/// A [`FaultPlan`] decomposes losslessly into a canonical event list
/// ([`FaultPlan::events`]) and rebuilds from one
/// ([`FaultPlan::from_events`]); multi-cycle stalls decompose into one
/// `Stall` event per blacked-out cycle, so shrinking a stall window is just
/// removing events. The JSONL form ([`FaultPlan::to_jsonl`]) serializes
/// this list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultEvent {
    /// Channel `chan` dies permanently at cycle `at`.
    Death {
        /// Index of the dying channel.
        chan: usize,
        /// Death cycle (writes are lost from here on).
        at: u64,
    },
    /// Processor `proc` crashes at the first cycle it executes ≥ `at`.
    Crash {
        /// Index of the crashing processor.
        proc: usize,
        /// Earliest crash cycle.
        at: u64,
    },
    /// The transmission on `chan` at cycle `at` is dropped.
    Drop {
        /// Cycle of the lost transmission.
        at: u64,
        /// Channel carrying the lost transmission.
        chan: usize,
    },
    /// The transmission on `chan` at cycle `at` is corrupted (detected and
    /// discarded by the receiver's CRC).
    Corrupt {
        /// Cycle of the corrupted transmission.
        at: u64,
        /// Channel carrying the corrupted transmission.
        chan: usize,
    },
    /// Processor `proc`'s I/O is blacked out for the single cycle `at`.
    Stall {
        /// Index of the stalled processor.
        proc: usize,
        /// The blacked-out cycle.
        at: u64,
    },
}

impl FaultEvent {
    /// The event's fault kind.
    pub fn kind(self) -> FaultKind {
        match self {
            FaultEvent::Death { .. } => FaultKind::ChannelDeath,
            FaultEvent::Crash { .. } => FaultKind::Crash,
            FaultEvent::Drop { .. } => FaultKind::Drop,
            FaultEvent::Corrupt { .. } => FaultKind::Corrupt,
            FaultEvent::Stall { .. } => FaultKind::Stall,
        }
    }

    /// The cycle the event is anchored at.
    pub fn at(self) -> u64 {
        match self {
            FaultEvent::Death { at, .. }
            | FaultEvent::Crash { at, .. }
            | FaultEvent::Drop { at, .. }
            | FaultEvent::Corrupt { at, .. }
            | FaultEvent::Stall { at, .. } => at,
        }
    }

    /// The same event re-anchored at cycle `at` (the shrinker's cycle
    /// bisection primitive).
    pub fn with_at(self, at: u64) -> Self {
        match self {
            FaultEvent::Death { chan, .. } => FaultEvent::Death { chan, at },
            FaultEvent::Crash { proc, .. } => FaultEvent::Crash { proc, at },
            FaultEvent::Drop { chan, .. } => FaultEvent::Drop { at, chan },
            FaultEvent::Corrupt { chan, .. } => FaultEvent::Corrupt { at, chan },
            FaultEvent::Stall { proc, .. } => FaultEvent::Stall { proc, at },
        }
    }

    fn to_json(self) -> Json {
        let (kind, party, at) = match self {
            FaultEvent::Death { chan, at } => ("chan", chan, at),
            FaultEvent::Crash { proc, at } => ("proc", proc, at),
            FaultEvent::Drop { chan, at } => ("chan", chan, at),
            FaultEvent::Corrupt { chan, at } => ("chan", chan, at),
            FaultEvent::Stall { proc, at } => ("proc", proc, at),
        };
        Json::obj()
            .field("kind", Json::Str(self.kind().as_str().to_string()))
            .field(kind, Json::U64(party as u64))
            .field("at", Json::U64(at))
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("event missing \"kind\"")?;
        let at = v
            .get("at")
            .and_then(Json::as_u64)
            .ok_or("event missing \"at\"")?;
        let party = |name: &str| -> Result<usize, String> {
            let n = v
                .get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{kind} event missing \"{name}\""))?;
            usize::try_from(n).map_err(|_| format!("\"{name}\" out of range"))
        };
        match kind {
            "channel_death" => Ok(FaultEvent::Death {
                chan: party("chan")?,
                at,
            }),
            "crash" => Ok(FaultEvent::Crash {
                proc: party("proc")?,
                at,
            }),
            "drop" => Ok(FaultEvent::Drop {
                at,
                chan: party("chan")?,
            }),
            "corrupt" => Ok(FaultEvent::Corrupt {
                at,
                chan: party("chan")?,
            }),
            "stall" => Ok(FaultEvent::Stall {
                proc: party("proc")?,
                at,
            }),
            other => Err(format!("unknown fault kind {other:?}")),
        }
    }
}

/// One fault that actually *fired* during a run (affected an operation).
///
/// Planned faults that never coincide with any I/O leave no record; the
/// plan itself is summarized separately (see [`FaultSummary`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// Global cycle (engine round) at which the fault fired.
    pub cycle: u64,
    /// What kind of fault fired.
    pub kind: FaultKind,
    /// The affected processor (`None` for channel-scoped faults where the
    /// writer is the recorded party — always `Some` in practice for
    /// `Crash`/`Stall`, and the suppressed writer for the others).
    pub proc: Option<ProcId>,
    /// The affected channel (`None` for processor-scoped faults).
    pub chan: Option<ChanId>,
}

impl FaultRecord {
    fn sort_key(&self) -> (u64, FaultKind, Option<u32>, Option<u32>) {
        (
            self.cycle,
            self.kind,
            self.proc.map(|p| p.0),
            self.chan.map(|c| c.0),
        )
    }
}

/// Sort fired-fault records into the canonical (cycle, kind, proc, chan)
/// order and drop exact duplicates (a stalled processor that both wrote and
/// read in the same cycle fires the same record twice).
pub(crate) fn canonicalize(records: &mut Vec<FaultRecord>) {
    records.sort_by_key(FaultRecord::sort_key);
    records.dedup();
}

/// Counts of *planned* faults, stamped into the JSONL export so a run can
/// be replayed bit-identically from `seed` alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultSummary {
    /// The seed the plan was built from (0 for hand-built plans).
    pub seed: u64,
    /// Number of channels scheduled to die.
    pub deaths: u64,
    /// Number of planned (cycle, channel) drops.
    pub drops: u64,
    /// Number of planned (cycle, channel) corruptions.
    pub corrupts: u64,
    /// Number of processors scheduled to crash.
    pub crashes: u64,
    /// Number of planned (cycle, processor) stall cycles.
    pub stalls: u64,
}

/// Knobs for [`FaultPlan::random`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosOpts {
    /// Cycle range `[0, horizon)` in which random faults may land.
    pub horizon: u64,
    /// Channels to kill (capped at `k - 1`: at least one channel survives).
    pub deaths: usize,
    /// Transient message drops to plan.
    pub drops: usize,
    /// Transient corruptions to plan.
    pub corrupts: usize,
    /// Stall events to plan.
    pub stalls: usize,
    /// Maximum length (cycles) of each stall event.
    pub max_stall: u64,
    /// Processors to crash (capped at `p - 1`: at least one processor
    /// survives). The self-healing runtime adopts a crashed processor's
    /// role, so its output survives up to `p - 1` crashes; drivers that
    /// hand each processor private data (closure protocols without a
    /// takeover) lose it.
    pub crashes: usize,
    /// Correlated-burst storms: each burst picks a seeded start cycle in
    /// `[0, horizon)` and plants one transient per cycle for
    /// [`burst_len`](ChaosOpts::burst_len) consecutive cycles (seeded
    /// channel, seeded drop-or-corrupt coin). Bursts model weather — a
    /// noisy window that clobbers *many adjacent* cycles — rather than the
    /// uniform sprinkle of [`drops`](ChaosOpts::drops) /
    /// [`corrupts`](ChaosOpts::corrupts). 0 disables.
    pub bursts: usize,
    /// Length in cycles of each burst window (values below 1 are treated
    /// as 1 when [`bursts`](ChaosOpts::bursts) `> 0`).
    pub burst_len: u64,
}

impl Default for ChaosOpts {
    fn default() -> Self {
        ChaosOpts {
            horizon: 256,
            deaths: 1,
            drops: 2,
            corrupts: 1,
            stalls: 1,
            max_stall: 2,
            crashes: 0,
            bursts: 0,
            burst_len: 0,
        }
    }
}

impl ChaosOpts {
    /// Preset for **no-oracle** (unplanned) fault detection: channel deaths
    /// landing mid-phase plus transient drops and corruptions, but **no
    /// stalls** — a stalled processor misses a round that everyone else
    /// observes, which desynchronizes the common-knowledge detection the
    /// self-healing protocols rely on (see
    /// [`NetError::EpochDiverged`](crate::NetError::EpochDiverged)).
    pub fn unplanned(horizon: u64) -> Self {
        ChaosOpts {
            horizon,
            deaths: 1,
            drops: 2,
            corrupts: 1,
            stalls: 0,
            max_stall: 0,
            crashes: 0,
            bursts: 0,
            burst_len: 0,
        }
    }

    /// Preset combining a processor crash with a channel death (plus
    /// transients), the hardest no-oracle shape: survivors must both remap
    /// channels *and* adopt the dead processor's roles. Stalls stay
    /// disabled for the same reason as [`ChaosOpts::unplanned`].
    pub fn crash_and_death(horizon: u64) -> Self {
        ChaosOpts {
            crashes: 1,
            ..ChaosOpts::unplanned(horizon)
        }
    }

    /// Preset for **correlated-burst** weather: no uniform transients at
    /// all — every drop/corruption arrives inside one of two seeded storm
    /// windows — plus one channel death. Stalls stay disabled for the same
    /// reason as [`ChaosOpts::unplanned`].
    pub fn bursty(horizon: u64) -> Self {
        ChaosOpts {
            drops: 0,
            corrupts: 0,
            bursts: 2,
            burst_len: 6,
            ..ChaosOpts::unplanned(horizon)
        }
    }
}

/// A static, seeded schedule of faults for one run.
///
/// Attach to a network with
/// [`Network::fault_plan`](crate::Network::fault_plan); the plan's `(p, k)`
/// shape must match the network's. All queries are pure functions of the
/// plan and a cycle index, which is what makes degraded runs deterministic
/// and backend-identical.
///
/// A plan *is* its canonical event list ([`FaultPlan::events`]) plus the
/// seed and shape; the queries below scan that short list. The drivers'
/// per-cycle crash, stall and write-fault checks go to a lookup index the
/// engine compiles from the list once per run (see the
/// [module docs](self)).
///
/// ```
/// use mcb_net::{ChanId, FaultPlan, Network, ProcId};
///
/// // Channel 1 dies at cycle 0: the write is lost, the read sees empty.
/// let plan = FaultPlan::new(2, 2).kill_channel(ChanId(1), 0);
/// let report = Network::new(2, 2)
///     .fault_plan(plan)
///     .run(|ctx| {
///         if ctx.id().index() == 0 {
///             ctx.write(ChanId(1), 7u64);
///             None
///         } else {
///             ctx.read(ChanId(1))
///         }
///     })
///     .unwrap();
/// assert_eq!(report.results[1], Some(None)); // message lost
/// assert_eq!(report.metrics.messages, 0); // lost writes are not messages
/// assert_eq!(report.metrics.faults.len(), 1); // ...but they are recorded
/// assert_eq!(report.metrics.faults[0].proc, Some(ProcId(0)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    p: usize,
    k: usize,
    /// The canonical event list, ordered by [`slot_key`]: at most one
    /// death per channel, one crash per processor, and no repeated
    /// transient.
    events: Vec<FaultEvent>,
}

/// An event's slot in the canonical list: deaths by channel, crashes by
/// processor, drops and corruptions by (cycle, channel), stalls by
/// (cycle, processor). Two events with one key share one slot — a
/// channel dies once, a processor crashes once, a transient is a set
/// member. Stalls sort by cycle first, as they are emitted, and not by
/// the derived `Ord`, which puts the processor first.
fn slot_key(e: &FaultEvent) -> (u8, u64, u64) {
    match *e {
        FaultEvent::Death { chan, .. } => (0, chan as u64, 0),
        FaultEvent::Crash { proc, .. } => (1, proc as u64, 0),
        FaultEvent::Drop { at, chan } => (2, at, chan as u64),
        FaultEvent::Corrupt { at, chan } => (3, at, chan as u64),
        FaultEvent::Stall { proc, at } => (4, at, proc as u64),
    }
}

/// Why `e` does not fit an `MCB(p, k)` shape, if it does not.
fn out_of_shape(e: FaultEvent, p: usize, k: usize) -> Option<String> {
    let (party, bound, what) = match e {
        FaultEvent::Death { chan, .. }
        | FaultEvent::Drop { chan, .. }
        | FaultEvent::Corrupt { chan, .. } => (chan, k, "channel"),
        FaultEvent::Crash { proc, .. } | FaultEvent::Stall { proc, .. } => (proc, p, "processor"),
    };
    (party >= bound).then(|| format!("{what} {party} out of range for (p={p}, k={k})"))
}

/// A random plan while [`FaultPlan::random`] draws and thins it: the
/// per-party arrays and ordered sets the draws have always filled, so
/// every seed keeps its recorded plan.
struct Draft {
    p: usize,
    k: usize,
    deaths: Vec<Option<u64>>,
    crashes: Vec<Option<u64>>,
    drops: BTreeSet<(u64, usize)>,
    corrupts: BTreeSet<(u64, usize)>,
    stalls: BTreeSet<(u64, usize)>,
}

impl Draft {
    fn is_dead(&self, chan: usize, cycle: u64) -> bool {
        self.deaths[chan].is_some_and(|d| cycle >= d)
    }

    /// Cap fix: uniformly-placed transients can pile up so that, in some
    /// cycle, every still-live channel is dropped/corrupted or every
    /// processor is stalled — zero usable write slots, which no retry or
    /// remap can route around. Deterministically thin the plan until every
    /// cycle keeps at least one fault-free live channel and at least one
    /// unstalled processor (deaths already guarantee one eventually-live
    /// channel). Removal order is fixed — drops before corruptions, highest
    /// channel/processor first — so the thinned plan is still a pure
    /// function of `(seed, p, k, opts)`.
    fn ensure_usable_slots(&mut self) {
        let cycles: BTreeSet<u64> = self
            .drops
            .iter()
            .chain(self.corrupts.iter())
            .map(|&(t, _)| t)
            .collect();
        for t in cycles {
            loop {
                let live: Vec<usize> = (0..self.k).filter(|&c| !self.is_dead(c, t)).collect();
                let usable = live
                    .iter()
                    .any(|&c| !self.drops.contains(&(t, c)) && !self.corrupts.contains(&(t, c)));
                if usable || live.is_empty() {
                    break;
                }
                let victim = self
                    .drops
                    .range((t, 0)..=(t, usize::MAX))
                    .next_back()
                    .copied();
                match victim {
                    Some(v) => self.drops.remove(&v),
                    None => {
                        let v = self
                            .corrupts
                            .range((t, 0)..=(t, usize::MAX))
                            .next_back()
                            .copied()
                            .expect("no usable slot implies a transient this cycle");
                        self.corrupts.remove(&v)
                    }
                };
            }
        }
        let stall_cycles: BTreeSet<u64> = self.stalls.iter().map(|&(t, _)| t).collect();
        for t in stall_cycles {
            while self.stalls.range((t, 0)..=(t, usize::MAX)).count() >= self.p {
                let v = self
                    .stalls
                    .range((t, 0)..=(t, usize::MAX))
                    .next_back()
                    .copied()
                    .expect("count >= p >= 1 implies an entry");
                self.stalls.remove(&v);
            }
        }
    }

    /// The drawn faults as a plan: their canonical event list.
    fn into_plan(self, seed: u64) -> FaultPlan {
        let deaths = self.deaths.iter().enumerate();
        let crashes = self.crashes.iter().enumerate();
        let events = deaths
            .filter_map(|(chan, d)| d.map(|at| FaultEvent::Death { chan, at }))
            .chain(crashes.filter_map(|(proc, c)| c.map(|at| FaultEvent::Crash { proc, at })))
            .chain(
                self.drops
                    .iter()
                    .map(|&(at, chan)| FaultEvent::Drop { at, chan }),
            )
            .chain(
                self.corrupts
                    .iter()
                    .map(|&(at, chan)| FaultEvent::Corrupt { at, chan }),
            )
            .chain(
                self.stalls
                    .iter()
                    .map(|&(at, proc)| FaultEvent::Stall { proc, at }),
            )
            .collect();
        FaultPlan {
            seed,
            p: self.p,
            k: self.k,
            events,
        }
    }
}

impl FaultPlan {
    /// An empty plan for an `MCB(p, k)` network (injects nothing).
    pub fn new(p: usize, k: usize) -> Self {
        FaultPlan {
            seed: 0,
            p,
            k,
            events: Vec::new(),
        }
    }

    /// A seeded random plan: `deaths` channels die (never all `k`), plus
    /// transient drops/corruptions/stalls and optional crashes (never all
    /// `p` processors), all placed uniformly in `[0, horizon)` by a
    /// [`Rng64`] stream. The same `(seed, p, k, opts)` always builds the
    /// same plan.
    pub fn random(seed: u64, p: usize, k: usize, opts: &ChaosOpts) -> Self {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut plan = Draft {
            p,
            k,
            deaths: vec![None; k],
            crashes: vec![None; p],
            drops: BTreeSet::new(),
            corrupts: BTreeSet::new(),
            stalls: BTreeSet::new(),
        };
        let horizon = opts.horizon.max(1);

        let mut chans: Vec<usize> = (0..k).collect();
        rng.shuffle(&mut chans);
        for &c in chans.iter().take(opts.deaths.min(k.saturating_sub(1))) {
            plan.deaths[c] = Some(rng.random_range(0..horizon));
        }
        for _ in 0..opts.drops {
            plan.drops
                .insert((rng.random_range(0..horizon), rng.random_range(0..k)));
        }
        for _ in 0..opts.corrupts {
            plan.corrupts
                .insert((rng.random_range(0..horizon), rng.random_range(0..k)));
        }
        // Correlated bursts: one transient per cycle of each storm window,
        // on a seeded channel, drop or corrupt by a seeded coin. Windows
        // may overhang the horizon (a storm does not care when the run's
        // nominal fault window ends); `ensure_usable_slots` below thins
        // them like any other transient, so every cycle keeps a usable
        // write slot.
        for _ in 0..opts.bursts {
            let start = rng.random_range(0..horizon);
            for t in start..start + opts.burst_len.max(1) {
                let chan = rng.random_range(0..k);
                if rng.random_range(0..2u64) == 0 {
                    plan.drops.insert((t, chan));
                } else {
                    plan.corrupts.insert((t, chan));
                }
            }
        }
        for _ in 0..opts.stalls {
            let at = rng.random_range(0..horizon);
            let len = 1 + rng.random_range(0..opts.max_stall.max(1));
            let proc = rng.random_range(0..p);
            for t in at..at + len {
                plan.stalls.insert((t, proc));
            }
        }
        let mut procs: Vec<usize> = (0..p).collect();
        rng.shuffle(&mut procs);
        // The crash draws are the stream's last use, so capping them leaves
        // every plan with `p > crashes` bit-identical.
        for &i in procs.iter().take(opts.crashes.min(p.saturating_sub(1))) {
            plan.crashes[i] = Some(rng.random_range(0..horizon));
        }
        plan.ensure_usable_slots();
        plan.into_plan(seed)
    }

    /// Put `e` in its canonical slot, replacing the event already there:
    /// the last death of a channel or crash of a processor wins, and a
    /// repeated transient changes nothing.
    ///
    /// # Panics
    /// If `e` names a party outside the plan's shape.
    fn place(mut self, e: FaultEvent) -> Self {
        if let Some(why) = out_of_shape(e, self.p, self.k) {
            panic!("{why}");
        }
        let key = slot_key(&e);
        let i = self.events.partition_point(|x| slot_key(x) < key);
        match self.events.get_mut(i) {
            Some(x) if slot_key(x) == key => *x = e,
            _ => self.events.insert(i, e),
        }
        self
    }

    /// Kill `chan` permanently from cycle `at` on.
    pub fn kill_channel(self, chan: ChanId, at: u64) -> Self {
        self.place(FaultEvent::Death {
            chan: chan.index(),
            at,
        })
    }

    /// Drop the transmission (if any) on `chan` at cycle `at`.
    pub fn drop_message(self, at: u64, chan: ChanId) -> Self {
        self.place(FaultEvent::Drop {
            at,
            chan: chan.index(),
        })
    }

    /// Corrupt the transmission (if any) on `chan` at cycle `at`; the
    /// receiver's CRC detects and discards it.
    pub fn corrupt_message(self, at: u64, chan: ChanId) -> Self {
        self.place(FaultEvent::Corrupt {
            at,
            chan: chan.index(),
        })
    }

    /// Crash `proc` at the first cycle it executes at or after `at`.
    pub fn crash_proc(self, proc: ProcId, at: u64) -> Self {
        self.place(FaultEvent::Crash {
            proc: proc.index(),
            at,
        })
    }

    /// Suppress `proc`'s I/O for `len` cycles starting at cycle `from`.
    pub fn stall_proc(mut self, proc: ProcId, from: u64, len: u64) -> Self {
        for at in from..from + len {
            self = self.place(FaultEvent::Stall {
                proc: proc.index(),
                at,
            });
        }
        self
    }

    /// The plan's processor count.
    pub fn p(&self) -> usize {
        self.p
    }

    /// The plan's channel count.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The seed the plan was generated from (0 for hand-built plans).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The planned deaths as `(channel, cycle)`: the list's leading run.
    fn deaths(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.events.iter().map_while(|e| match *e {
            FaultEvent::Death { chan, at } => Some((chan, at)),
            _ => None,
        })
    }

    /// True when channel `chan` is dead at `cycle`.
    pub fn is_dead(&self, chan: usize, cycle: u64) -> bool {
        self.deaths().any(|(c, d)| c == chan && cycle >= d)
    }

    /// Indices of the channels still alive at `cycle`, ascending.
    pub fn live_at(&self, cycle: u64) -> Vec<usize> {
        (0..self.k).filter(|&c| !self.is_dead(c, cycle)).collect()
    }

    /// The eventual number of surviving channels (every planned death has
    /// fired). Lower-bounds `live_at(t).len()` for every `t`, so
    /// `⌈k / min_live⌉` is the lemma's worst-case dilation factor.
    pub fn min_live(&self) -> usize {
        self.k - self.deaths().count()
    }

    /// Counts of planned faults plus the seed, for the JSONL export.
    pub fn summary(&self) -> FaultSummary {
        let mut s = FaultSummary {
            seed: self.seed,
            ..FaultSummary::default()
        };
        for e in &self.events {
            *match e.kind() {
                FaultKind::ChannelDeath => &mut s.deaths,
                FaultKind::Drop => &mut s.drops,
                FaultKind::Corrupt => &mut s.corrupts,
                FaultKind::Crash => &mut s.crashes,
                FaultKind::Stall => &mut s.stalls,
            } += 1;
        }
        s
    }

    /// Tag the plan with a seed (kept through [`FaultPlan::to_jsonl`] so a
    /// shrunk reproducer still names the random plan it came from).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The plan's canonical event list: deaths by channel, then crashes by
    /// processor, then drops, corruptions, and per-cycle stalls in
    /// `(cycle, index)` order.
    /// `FaultPlan::from_events(p, k, &plan.events())` rebuilds the plan
    /// exactly (up to the seed tag).
    pub fn events(&self) -> Vec<FaultEvent> {
        self.events.clone()
    }

    /// Build a plan for an `MCB(p, k)` network from an explicit event list.
    ///
    /// Unlike [`FaultPlan::random`] this applies **no survivability
    /// thinning** — the explorer and shrinker need exact control over what
    /// is injected. Events may arrive in any order; duplicate transients
    /// collapse (sets), and for duplicate `Death`/`Crash` events on the
    /// same party the **last** one wins.
    ///
    /// # Panics
    /// If an event names a channel `>= k` or a processor `>= p`.
    pub fn from_events(p: usize, k: usize, events: &[FaultEvent]) -> Self {
        if let Some(why) = events.iter().find_map(|&e| out_of_shape(e, p, k)) {
            panic!("{why}");
        }
        let mut events = events.to_vec();
        // Stable, so the events of one slot keep their input order and
        // the dedup below keeps the last of them.
        events.sort_by_key(slot_key);
        events.dedup_by(|later, kept| {
            let same = slot_key(later) == slot_key(kept);
            if same {
                *kept = *later;
            }
            same
        });
        FaultPlan {
            seed: 0,
            p,
            k,
            events,
        }
    }

    /// The plan as a [`Json`] object: shape, seed, and the canonical event
    /// list of [`FaultPlan::events`].
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("record", Json::Str("fault_plan".to_string()))
            .field("p", Json::U64(self.p as u64))
            .field("k", Json::U64(self.k as u64))
            .field("seed", Json::U64(self.seed))
            .field(
                "events",
                Json::Arr(
                    self.events
                        .iter()
                        .copied()
                        .map(FaultEvent::to_json)
                        .collect(),
                ),
            )
    }

    /// Rebuild a plan from [`FaultPlan::to_json`] output.
    ///
    /// # Errors
    /// On a missing/ill-typed field, an unknown event kind, or an event
    /// naming a party outside the `(p, k)` shape.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        if let Some(rec) = v.get("record").and_then(Json::as_str) {
            if rec != "fault_plan" {
                return Err(format!("not a fault_plan record: {rec:?}"));
            }
        }
        let dim = |name: &str| -> Result<usize, String> {
            let n = v
                .get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("fault_plan missing \"{name}\""))?;
            usize::try_from(n).map_err(|_| format!("\"{name}\" out of range"))
        };
        let (p, k) = (dim("p")?, dim("k")?);
        let seed = v.get("seed").and_then(Json::as_u64).unwrap_or(0);
        let raw = v
            .get("events")
            .and_then(Json::as_arr)
            .ok_or("fault_plan missing \"events\"")?;
        let mut events = Vec::with_capacity(raw.len());
        for e in raw {
            let e = FaultEvent::from_json(e)?;
            if let Some(why) = out_of_shape(e, p, k) {
                return Err(why);
            }
            events.push(e);
        }
        Ok(FaultPlan::from_events(p, k, &events).with_seed(seed))
    }

    /// The plan as one JSONL line (no trailing newline) — the repro
    /// artifact format consumed by `mcb-sim --replay` and printed by chaos
    /// test failures.
    pub fn to_jsonl(&self) -> String {
        self.to_json().render()
    }

    /// Parse a plan from one JSONL line.
    ///
    /// # Errors
    /// On malformed JSON or any [`FaultPlan::from_json`] error.
    pub fn from_jsonl(line: &str) -> Result<Self, String> {
        FaultPlan::from_json(&Json::parse(line.trim())?)
    }
}

/// The lookup index the engine compiles from a [`FaultPlan`] once per
/// run: death and crash cycles per party, transients by (cycle, party),
/// and the plan's [`FaultSummary`]. It answers the per-cycle crash, stall
/// and write-fault checks of every driver in O(1).
#[derive(Debug)]
pub(crate) struct FaultIndex {
    /// Death cycle of each channel.
    death: Vec<Option<u64>>,
    /// Crash cycle of each processor.
    crash: Vec<Option<u64>>,
    /// Planned drops by (cycle, channel).
    drops: HashSet<(u64, usize)>,
    /// Planned corruptions by (cycle, channel).
    corrupts: HashSet<(u64, usize)>,
    /// Planned stalls by (cycle, processor).
    stalls: HashSet<(u64, usize)>,
    summary: FaultSummary,
}

impl FaultIndex {
    /// Compile `plan`'s event list.
    pub(crate) fn new(plan: &FaultPlan) -> Self {
        let mut ix = FaultIndex {
            death: vec![None; plan.k],
            crash: vec![None; plan.p],
            drops: HashSet::new(),
            corrupts: HashSet::new(),
            stalls: HashSet::new(),
            summary: plan.summary(),
        };
        for &e in &plan.events {
            match e {
                FaultEvent::Death { chan, at } => ix.death[chan] = Some(at),
                FaultEvent::Crash { proc, at } => ix.crash[proc] = Some(at),
                FaultEvent::Drop { at, chan } => {
                    ix.drops.insert((at, chan));
                }
                FaultEvent::Corrupt { at, chan } => {
                    ix.corrupts.insert((at, chan));
                }
                FaultEvent::Stall { proc, at } => {
                    ix.stalls.insert((at, proc));
                }
            }
        }
        ix
    }

    /// The cycle at (or after) which `proc` crashes, if planned.
    pub(crate) fn crash_cycle(&self, proc: usize) -> Option<u64> {
        self.crash.get(proc).copied().flatten()
    }

    /// True when `proc`'s I/O is blacked out at `cycle`.
    pub(crate) fn is_stalled(&self, proc: usize, cycle: u64) -> bool {
        self.stalls.contains(&(cycle, proc))
    }

    /// The fault (if any) that suppresses a write by `proc` on `chan` at
    /// `cycle`. Checked transmitter-first: a stalled processor never
    /// transmits, a dead channel carries nothing, and only then can the
    /// transmission itself be dropped or corrupted.
    pub(crate) fn write_fault(&self, proc: usize, chan: usize, cycle: u64) -> Option<FaultKind> {
        if self.is_stalled(proc, cycle) {
            Some(FaultKind::Stall)
        } else if self
            .death
            .get(chan)
            .copied()
            .flatten()
            .is_some_and(|d| cycle >= d)
        {
            Some(FaultKind::ChannelDeath)
        } else if self.drops.contains(&(cycle, chan)) {
            Some(FaultKind::Drop)
        } else if self.corrupts.contains(&(cycle, chan)) {
            Some(FaultKind::Corrupt)
        } else {
            None
        }
    }

    /// [`FaultPlan::summary`], computed once.
    pub(crate) fn summary(&self) -> FaultSummary {
        self.summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_queries() {
        let plan = FaultPlan::new(4, 3)
            .kill_channel(ChanId(2), 5)
            .drop_message(3, ChanId(0))
            .corrupt_message(4, ChanId(1))
            .stall_proc(ProcId(1), 2, 2)
            .crash_proc(ProcId(3), 9);
        assert!(!plan.is_dead(2, 4));
        assert!(plan.is_dead(2, 5));
        assert_eq!(plan.live_at(4), vec![0, 1, 2]);
        assert_eq!(plan.live_at(5), vec![0, 1]);
        assert_eq!(plan.min_live(), 2);
        let ix = FaultIndex::new(&plan);
        assert_eq!(ix.write_fault(0, 0, 3), Some(FaultKind::Drop));
        assert_eq!(ix.write_fault(0, 1, 4), Some(FaultKind::Corrupt));
        assert_eq!(ix.write_fault(1, 0, 2), Some(FaultKind::Stall));
        assert_eq!(ix.write_fault(0, 2, 7), Some(FaultKind::ChannelDeath));
        assert_eq!(ix.write_fault(0, 0, 0), None);
        assert!(ix.is_stalled(1, 3));
        assert!(!ix.is_stalled(1, 4));
        assert_eq!(ix.crash_cycle(3), Some(9));
        let s = plan.summary();
        assert_eq!(
            (s.deaths, s.drops, s.corrupts, s.crashes, s.stalls),
            (1, 1, 1, 1, 2)
        );
    }

    #[test]
    fn random_is_deterministic_and_leaves_a_survivor() {
        let opts = ChaosOpts {
            deaths: 10, // far more than k - 1; must be capped
            ..ChaosOpts::default()
        };
        let a = FaultPlan::random(42, 6, 3, &opts);
        let b = FaultPlan::random(42, 6, 3, &opts);
        assert_eq!(a, b);
        assert!(a.min_live() >= 1);
        assert!(a.summary().deaths <= 2);
        let c = FaultPlan::random(43, 6, 3, &opts);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn random_crashes_leave_a_survivor() {
        let opts = ChaosOpts {
            crashes: 2,
            ..ChaosOpts::unplanned(64)
        };
        for seed in 0..32 {
            let plan = FaultPlan::random(seed, 2, 2, &opts);
            assert_eq!(plan.summary().crashes, 1, "seed {seed}");
        }
        assert_eq!(FaultPlan::random(7, 1, 1, &opts).summary().crashes, 0);
        assert_eq!(FaultPlan::random(7, 3, 2, &opts).summary().crashes, 2);
    }

    #[test]
    fn random_plans_with_more_processors_than_crashes_are_unchanged() {
        // The storm's chaos mix at a full batch (p = 37): recorded before
        // the crash cap, which only bites when p <= crashes.
        let opts = ChaosOpts {
            horizon: 250,
            deaths: 2,
            drops: 2,
            corrupts: 1,
            stalls: 0,
            max_stall: 0,
            crashes: 2,
            bursts: 1,
            burst_len: 4,
        };
        let want = concat!(
            r#"{"record":"fault_plan","p":37,"k":3,"seed":1592590373,"events":["#,
            r#"{"kind":"channel_death","chan":0,"at":26},"#,
            r#"{"kind":"channel_death","chan":1,"at":240},"#,
            r#"{"kind":"crash","proc":1,"at":94},{"kind":"crash","proc":15,"at":155},"#,
            r#"{"kind":"drop","chan":2,"at":1},{"kind":"drop","chan":1,"at":82},"#,
            r#"{"kind":"drop","chan":2,"at":90},{"kind":"corrupt","chan":2,"at":89},"#,
            r#"{"kind":"corrupt","chan":1,"at":91},{"kind":"corrupt","chan":0,"at":92},"#,
            r#"{"kind":"corrupt","chan":2,"at":209}]}"#,
        );
        assert_eq!(
            FaultPlan::random(0x5eed_0025, 37, 3, &opts).to_jsonl(),
            want
        );
    }

    #[test]
    fn unplanned_presets_disable_stalls() {
        let u = ChaosOpts::unplanned(100);
        assert_eq!((u.stalls, u.crashes, u.horizon), (0, 0, 100));
        assert!(u.deaths >= 1 && u.drops + u.corrupts >= 1);
        let c = ChaosOpts::crash_and_death(50);
        assert_eq!((c.stalls, c.crashes), (0, 1));
    }

    #[test]
    fn transient_pileup_always_leaves_a_usable_channel() {
        // Dense transients on a tiny network: without the cap fix, some
        // cycle would have every live channel dropped or corrupted.
        let opts = ChaosOpts {
            horizon: 8,
            deaths: 1,
            drops: 40,
            corrupts: 40,
            stalls: 0,
            max_stall: 0,
            crashes: 0,
            bursts: 0,
            burst_len: 0,
        };
        for seed in 0..20 {
            let plan = FaultPlan::random(seed, 4, 2, &opts);
            let ix = FaultIndex::new(&plan);
            for t in 0..opts.horizon {
                let live = plan.live_at(t);
                assert!(
                    live.iter().any(|&c| ix.write_fault(0, c, t).is_none()),
                    "seed {seed} cycle {t}: no usable write slot"
                );
            }
        }
    }

    #[test]
    fn single_channel_network_sheds_all_transients() {
        let opts = ChaosOpts {
            horizon: 4,
            deaths: 0,
            drops: 50,
            corrupts: 50,
            stalls: 0,
            max_stall: 0,
            crashes: 0,
            bursts: 0,
            burst_len: 0,
        };
        let plan = FaultPlan::random(7, 3, 1, &opts);
        let s = plan.summary();
        assert_eq!((s.drops, s.corrupts), (0, 0), "k = 1 leaves no room");
    }

    #[test]
    fn stall_pileup_never_stalls_everyone() {
        let opts = ChaosOpts {
            horizon: 6,
            deaths: 0,
            drops: 0,
            corrupts: 0,
            stalls: 30,
            max_stall: 3,
            crashes: 0,
            bursts: 0,
            burst_len: 0,
        };
        for seed in 0..20 {
            let plan = FaultPlan::random(seed, 2, 2, &opts);
            let ix = FaultIndex::new(&plan);
            for t in 0..opts.horizon + 3 {
                assert!(
                    (0..2).any(|i| !ix.is_stalled(i, t)),
                    "seed {seed} cycle {t}: every processor stalled"
                );
            }
        }
        // Degenerate p = 1: any stall would stall everyone, so none survive.
        let plan = FaultPlan::random(3, 1, 2, &opts);
        assert_eq!(plan.summary().stalls, 0);
    }

    #[test]
    fn random_thinning_is_deterministic() {
        let opts = ChaosOpts {
            horizon: 8,
            drops: 40,
            corrupts: 40,
            stalls: 20,
            ..ChaosOpts::default()
        };
        assert_eq!(
            FaultPlan::random(9, 3, 2, &opts),
            FaultPlan::random(9, 3, 2, &opts)
        );
    }

    #[test]
    fn bursty_preset_concentrates_transients_in_windows() {
        let opts = ChaosOpts::bursty(128);
        assert_eq!((opts.drops, opts.corrupts), (0, 0), "no uniform sprinkle");
        assert!(opts.bursts >= 1 && opts.burst_len >= 2);
        for seed in 0..10u64 {
            let plan = FaultPlan::random(seed, 4, 3, &opts);
            let s = plan.summary();
            let transients = s.drops + s.corrupts;
            assert!(transients > 0, "seed {seed}: storms planted nothing");
            // Every transient cycle must sit inside one of `bursts`
            // windows of length `burst_len`: the distinct cycles cluster
            // into at most `bursts` runs no longer than the window.
            let mut cycles: Vec<u64> = plan
                .events()
                .iter()
                .filter(|e| matches!(e.kind(), FaultKind::Drop | FaultKind::Corrupt))
                .map(|e| e.at())
                .collect();
            cycles.sort_unstable();
            cycles.dedup();
            let mut runs = 1u64;
            for w in cycles.windows(2) {
                if w[1] - w[0] >= opts.burst_len {
                    runs += 1;
                }
            }
            assert!(
                runs <= opts.bursts as u64,
                "seed {seed}: {runs} separated clusters exceed {} storms",
                opts.bursts
            );
        }
    }

    #[test]
    fn bursts_are_deterministic_and_keep_usable_slots() {
        let opts = ChaosOpts {
            bursts: 3,
            burst_len: 8,
            ..ChaosOpts::bursty(16)
        };
        for seed in 0..20u64 {
            let plan = FaultPlan::random(seed, 3, 2, &opts);
            assert_eq!(plan, FaultPlan::random(seed, 3, 2, &opts));
            // Dense storms on k = 2 with one death: thinning must still
            // leave a fault-free live channel every cycle.
            let ix = FaultIndex::new(&plan);
            for t in 0..opts.horizon + opts.burst_len {
                let live = plan.live_at(t);
                assert!(
                    live.iter().any(|&c| ix.write_fault(0, c, t).is_none()),
                    "seed {seed} cycle {t}: storm left no usable write slot"
                );
            }
        }
    }

    #[test]
    fn events_round_trip_hand_built() {
        let plan = FaultPlan::new(4, 3)
            .kill_channel(ChanId(2), 5)
            .drop_message(3, ChanId(0))
            .corrupt_message(4, ChanId(1))
            .stall_proc(ProcId(1), 2, 2)
            .crash_proc(ProcId(3), 9);
        let ev = plan.events();
        assert_eq!(ev.len(), 6, "stall of len 2 is two events");
        assert_eq!(FaultPlan::from_events(4, 3, &ev), plan);
        // from_events never thins: a hand-built total blackout survives.
        let blackout: Vec<FaultEvent> = (0..3)
            .map(|c| FaultEvent::Drop { at: 7, chan: c })
            .collect();
        let dense = FaultPlan::from_events(2, 3, &blackout);
        assert_eq!(dense.summary().drops, 3);
    }

    #[test]
    fn jsonl_round_trip_random_plans() {
        let opts = ChaosOpts {
            crashes: 1,
            stalls: 2,
            ..ChaosOpts::default()
        };
        for seed in 0..25u64 {
            let plan = FaultPlan::random(seed, 5, 3, &opts);
            let line = plan.to_jsonl();
            assert!(!line.contains('\n'), "JSONL must be one line");
            let back = FaultPlan::from_jsonl(&line).expect("round trip");
            assert_eq!(back, plan, "seed {seed}");
            assert_eq!(back.seed(), seed);
        }
    }

    #[test]
    fn jsonl_rejects_malformed() {
        assert!(FaultPlan::from_jsonl("not json").is_err());
        assert!(FaultPlan::from_jsonl("{\"record\":\"other\"}").is_err());
        // Channel index outside the declared shape.
        let bad = FaultPlan::new(2, 4).drop_message(1, ChanId(3)).to_jsonl();
        let narrowed = bad.replace("\"k\":4", "\"k\":2");
        assert!(FaultPlan::from_jsonl(&narrowed).is_err());
        // Unknown event kind.
        let odd = bad.replace("\"drop\"", "\"melt\"");
        assert!(FaultPlan::from_jsonl(&odd).is_err());
    }

    /// The per-cycle answers, read straight off a plan's event list.
    struct Naive(Vec<FaultEvent>);

    impl Naive {
        fn crash_cycle(&self, i: usize) -> Option<u64> {
            self.0.iter().find_map(|e| match *e {
                FaultEvent::Crash { proc, at } if proc == i => Some(at),
                _ => None,
            })
        }

        fn is_stalled(&self, i: usize, t: u64) -> bool {
            self.0.contains(&FaultEvent::Stall { proc: i, at: t })
        }

        /// Transmitter first: a stall, then a dead channel, then the
        /// transmission's own fault.
        fn write_fault(&self, i: usize, c: usize, t: u64) -> Option<FaultKind> {
            let dead = self
                .0
                .iter()
                .any(|e| matches!(*e, FaultEvent::Death { chan, at } if chan == c && t >= at));
            if self.is_stalled(i, t) {
                Some(FaultKind::Stall)
            } else if dead {
                Some(FaultKind::ChannelDeath)
            } else if self.0.contains(&FaultEvent::Drop { at: t, chan: c }) {
                Some(FaultKind::Drop)
            } else if self.0.contains(&FaultEvent::Corrupt { at: t, chan: c }) {
                Some(FaultKind::Corrupt)
            } else {
                None
            }
        }
    }

    /// Hold `plan`'s index to the naive scan at every cycle below
    /// `horizon`.
    fn assert_index_scans_alike(plan: &FaultPlan, horizon: u64) {
        let naive = Naive(plan.events());
        let ix = FaultIndex::new(plan);
        let repro = || plan.to_jsonl();
        assert_eq!(ix.summary(), plan.summary(), "{}", repro());
        for i in 0..plan.p() {
            let want = naive.crash_cycle(i);
            assert_eq!(ix.crash_cycle(i), want, "crash_cycle({i}): {}", repro());
        }
        for t in 0..horizon {
            for i in 0..plan.p() {
                let want = naive.is_stalled(i, t);
                assert_eq!(
                    ix.is_stalled(i, t),
                    want,
                    "is_stalled({i}, {t}): {}",
                    repro()
                );
                for c in 0..plan.k() {
                    let want = naive.write_fault(i, c, t);
                    let got = ix.write_fault(i, c, t);
                    assert_eq!(got, want, "write_fault({i}, {c}, {t}): {}", repro());
                }
            }
        }
    }

    #[test]
    fn the_index_answers_like_a_scan_of_the_event_list() {
        // Every one- and two-event plan of MCB(4, 2) over eight cycles,
        // including a party's second death or crash (the last one wins).
        let (p, k, h) = (4, 2, 8u64);
        let mut atoms = Vec::new();
        for at in 0..h {
            for chan in 0..k {
                atoms.push(FaultEvent::Death { chan, at });
                atoms.push(FaultEvent::Drop { at, chan });
                atoms.push(FaultEvent::Corrupt { at, chan });
            }
            for proc in 0..p {
                atoms.push(FaultEvent::Crash { proc, at });
                atoms.push(FaultEvent::Stall { proc, at });
            }
        }
        for (i, &a) in atoms.iter().enumerate() {
            assert_index_scans_alike(&FaultPlan::from_events(p, k, &[a]), h + 2);
            for &b in &atoms[i + 1..] {
                assert_index_scans_alike(&FaultPlan::from_events(p, k, &[a, b]), h + 2);
            }
        }
        // Seeded plans of every preset: the service storm's mix,
        // multi-cycle stalls, and a dense mix the thinning cuts down.
        let presets = [
            ChaosOpts {
                horizon: 250,
                deaths: 2,
                drops: 2,
                corrupts: 1,
                stalls: 0,
                max_stall: 0,
                crashes: 2,
                bursts: 1,
                burst_len: 4,
            },
            ChaosOpts::default(),
            ChaosOpts {
                stalls: 3,
                max_stall: 4,
                ..ChaosOpts::default()
            },
            ChaosOpts::unplanned(64),
            ChaosOpts::crash_and_death(64),
            ChaosOpts::bursty(128),
            ChaosOpts {
                horizon: 8,
                deaths: 1,
                drops: 24,
                corrupts: 24,
                stalls: 12,
                max_stall: 3,
                crashes: 1,
                bursts: 2,
                burst_len: 5,
            },
        ];
        for opts in &presets {
            for (p, k) in [(2, 1), (4, 2), (8, 3), (37, 3)] {
                for seed in 0..6 {
                    let plan = FaultPlan::random(seed, p, k, opts);
                    let last = plan.events().iter().map(|e| e.at()).max();
                    assert_index_scans_alike(&plan, last.unwrap_or(0) + 2);
                }
            }
        }
    }

    #[test]
    fn a_plan_is_its_event_list() {
        // Seed, shape and one `Vec`: the explorer keeps pools of
        // 100,000 plans.
        assert!(std::mem::size_of::<FaultPlan>() <= 64);
    }

    #[test]
    fn event_helpers() {
        let e = FaultEvent::Stall { proc: 2, at: 9 };
        assert_eq!(e.kind(), FaultKind::Stall);
        assert_eq!(e.at(), 9);
        assert_eq!(e.with_at(4), FaultEvent::Stall { proc: 2, at: 4 });
        let d = FaultEvent::Death { chan: 1, at: 3 }.with_at(0);
        assert_eq!((d.kind(), d.at()), (FaultKind::ChannelDeath, 0));
    }

    #[test]
    fn canonical_order_dedups() {
        let r = |cycle, kind, proc: Option<u32>, chan: Option<u32>| FaultRecord {
            cycle,
            kind,
            proc: proc.map(ProcId),
            chan: chan.map(ChanId),
        };
        let mut recs = vec![
            r(3, FaultKind::Stall, Some(1), None),
            r(1, FaultKind::Drop, Some(0), Some(2)),
            r(3, FaultKind::Stall, Some(1), None),
        ];
        canonicalize(&mut recs);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].cycle, 1);
    }
}
