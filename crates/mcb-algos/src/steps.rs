//! The paper's sorts as [`StepProtocol`] state machines.
//!
//! The closure drivers in [`sort`](crate::sort) block inside
//! [`ProcCtx::cycle`](mcb_net::ProcCtx::cycle), which ties every logical
//! processor to a suspended call stack. This module turns the two
//! workhorse protocols inside-out as resumable [`StepProtocol`]s so they
//! run on **any** backend — including the struct-of-arrays
//! [`Backend::Vector`] driver, where `p` in the hundreds of thousands is
//! practical:
//!
//! * [`RankSortStep`] — §6.1's single-channel Rank-Sort (census, rank,
//!   deliver), cycle-for-cycle identical to
//!   [`rank_sort_in`](crate::sort::ranksort::rank_sort_in);
//! * [`ColumnsortStep`] — §5.2's networked Columnsort, cycle-for-cycle
//!   identical to [`columnsort_net_in`](crate::sort::columnsort_net_in).
//!   Non-owners return [`Step::idle_for`] for whole transformation phases,
//!   so the vector backend drops them from its active set and the run
//!   costs time proportional to the `k_cols` *owners'* work — the
//!   "`k` owners work, `p − k` processors idle" shape that makes
//!   `p = 10^5` feasible.
//!
//! Both machines produce byte-identical [`Metrics`](mcb_net::Metrics)
//! (cycles, messages, bits, phase tables) to their closure counterparts;
//! the tests below pin that identity on both backends.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::Arc;

use crate::columnsort::{check_shape, Phase, PHASES};
use crate::local::sort_desc;
use crate::msg::{Key, Word};
use crate::schedule::TransformSchedule;
use crate::sort::grouped::SortReport;
use mcb_net::{
    Backend, ChanId, FrameRead, MsgWidth, NetError, Network, ProcId, RunReport, Step, StepEnv,
    StepProtocol,
};

// ---------------------------------------------------------------------------
// Rank-Sort
// ---------------------------------------------------------------------------

/// Where the Rank-Sort machine is in its three-round schedule. Each variant
/// stores the cycle whose read result the *next* [`step`] call consumes.
///
/// [`step`]: StepProtocol::step
#[derive(Debug)]
enum RsState {
    /// Before the first cycle.
    Start,
    /// Census round: cycle `turn` (of `p`) is in flight.
    Census { turn: usize },
    /// Ranking round: cycle `t` (of `n`) is in flight.
    Rank { t: u64 },
    /// Delivery round: cycle `t` (of `n`) is in flight.
    Deliver { t: u64 },
}

/// §6.1's Rank-Sort as a state machine on one shared channel.
///
/// Drives the same three rounds as
/// [`rank_sort_in`](crate::sort::ranksort::rank_sort_in) — one census cycle
/// per processor, then `n` ranking broadcasts, then `n` rank-ordered
/// deliveries — with identical cycle positions, message contents, and phase
/// labels (`rs:census`, `rs:rank`, `rs:deliver`). Requires distinct keys,
/// like the closure form.
pub struct RankSortStep<K> {
    chan: ChanId,
    mine: Vec<K>,
    state: RsState,
    /// Census results: every processor's cardinality.
    counts: Vec<u64>,
    /// Global index of this processor's first element / first target slot.
    my_start: u64,
    /// One-past-the-end of this processor's target segment.
    target_hi: u64,
    /// Total element count, known after the census.
    n: u64,
    /// Number of strictly larger keys seen, per own element.
    rank_above: Vec<u64>,
    /// `(rank, local index)` send queue, ascending by rank.
    by_rank: VecDeque<(u64, usize)>,
    out: Vec<K>,
}

impl<K: Key> RankSortStep<K> {
    /// Machine for a processor holding `mine`, broadcasting on `chan`.
    pub fn new(chan: ChanId, mine: Vec<K>) -> Self {
        let held = mine.len();
        RankSortStep {
            chan,
            mine,
            state: RsState::Start,
            counts: Vec::new(),
            my_start: 0,
            target_hi: 0,
            n: 0,
            rank_above: vec![0; held],
            by_rank: VecDeque::new(),
            out: Vec::new(),
        }
    }

    fn census_cycle(&self, env: &StepEnv, turn: usize) -> Step<Word<K>, Vec<K>> {
        let write =
            (turn == env.id.index()).then(|| (self.chan, Word::Ctl(self.mine.len() as u64)));
        Step::Yield {
            write,
            read: Some(self.chan),
        }
    }

    fn rank_cycle(&self, t: u64) -> Step<Word<K>, Vec<K>> {
        let idx = t.wrapping_sub(self.my_start) as usize;
        let write = (t >= self.my_start && idx < self.mine.len())
            .then(|| (self.chan, Word::Key(self.mine[idx].clone())));
        Step::Yield {
            write,
            read: Some(self.chan),
        }
    }

    fn deliver_cycle(&mut self, t: u64) -> Step<Word<K>, Vec<K>> {
        let write = match self.by_rank.front() {
            Some(&(r, j)) if r == t => {
                self.by_rank.pop_front();
                Some((self.chan, Word::Key(self.mine[j].clone())))
            }
            _ => None,
        };
        let want = t >= self.my_start && t < self.target_hi;
        Step::Yield {
            write,
            read: want.then_some(self.chan),
        }
    }
}

impl<K: Key> StepProtocol<Word<K>> for RankSortStep<K> {
    type Output = Vec<K>;

    fn step(&mut self, env: &StepEnv, input: FrameRead<Word<K>>) -> Step<Word<K>, Vec<K>> {
        let input = input.clean();
        match self.state {
            RsState::Start => {
                env.phase("rs:census");
                self.counts = vec![0; env.p];
                self.state = RsState::Census { turn: 0 };
                self.census_cycle(env, 0)
            }
            RsState::Census { turn } => {
                self.counts[turn] = input
                    .expect("every processor reports its count")
                    .expect_ctl();
                if turn + 1 < env.p {
                    self.state = RsState::Census { turn: turn + 1 };
                    return self.census_cycle(env, turn + 1);
                }
                let i = env.id.index();
                let mut acc = 0u64;
                for (j, &c) in self.counts.iter().enumerate() {
                    if j == i {
                        self.my_start = acc;
                    }
                    acc += c;
                    if j == i {
                        self.target_hi = acc;
                    }
                }
                self.n = acc;
                env.phase("rs:rank");
                self.state = RsState::Rank { t: 0 };
                self.rank_cycle(0)
            }
            RsState::Rank { t } => {
                let heard = input.expect("every slot carries an element").expect_key();
                for (j, x) in self.mine.iter().enumerate() {
                    if heard > *x {
                        self.rank_above[j] += 1;
                    }
                }
                if t + 1 < self.n {
                    self.state = RsState::Rank { t: t + 1 };
                    return self.rank_cycle(t + 1);
                }
                let mut by_rank: Vec<(u64, usize)> = self
                    .rank_above
                    .iter()
                    .enumerate()
                    .map(|(j, &r)| (r, j))
                    .collect();
                by_rank.sort_unstable();
                self.by_rank = by_rank.into();
                self.out = Vec::with_capacity((self.target_hi - self.my_start) as usize);
                env.phase("rs:deliver");
                self.state = RsState::Deliver { t: 0 };
                self.deliver_cycle(0)
            }
            RsState::Deliver { t } => {
                if t >= self.my_start && t < self.target_hi {
                    self.out.push(
                        input
                            .expect("distinct keys give a collision-free rank schedule")
                            .expect_key(),
                    );
                }
                if t + 1 < self.n {
                    self.state = RsState::Deliver { t: t + 1 };
                    return self.deliver_cycle(t + 1);
                }
                Step::Done(std::mem::take(&mut self.out))
            }
        }
    }
}

/// Sort `lists` (arbitrary distribution, distinct keys) on an `MCB(p, 1)`
/// using [`RankSortStep`] on the chosen `backend`.
///
/// The step-machine twin of
/// [`rank_sort_single_channel`](crate::sort::rank_sort_single_channel):
/// identical results and [`Metrics`](mcb_net::Metrics) on every backend.
pub fn rank_sort_steps<K: Key>(
    lists: Vec<Vec<K>>,
    backend: Backend,
) -> Result<SortReport<K>, NetError> {
    let p = lists.len();
    if p == 0 || lists.iter().any(Vec::is_empty) {
        return Err(NetError::BadConfig(
            "need p >= 1 nonempty lists (paper model assumes n_i > 0)".into(),
        ));
    }
    let report = Network::new(p, 1)
        .backend(backend)
        .run_steps(|id: ProcId| RankSortStep::new(ChanId(0), lists[id.index()].clone()))?;
    let metrics = report.metrics.clone();
    Ok(SortReport {
        lists: report.into_results(),
        metrics,
    })
}

// ---------------------------------------------------------------------------
// Columnsort
// ---------------------------------------------------------------------------

/// Phase labels, shared verbatim with the closure driver (Figure 1).
const PHASE_NAMES: [&str; 8] = [
    "cs1:sort",
    "cs2:transpose",
    "cs3:sort",
    "cs4:undiagonalize",
    "cs5:sort",
    "cs6:upshift",
    "cs7:sort-rest",
    "cs8:downshift",
];

/// Precompute the four transformation schedules of an `m × k_cols`
/// Columnsort, in [`PHASES`] order, for sharing across all `p` machines.
///
/// A [`TransformSchedule`] is a pure function of `(transform, m, k_cols)`
/// but not a cheap one (it edge-colors an `m·k_cols`-edge bipartite
/// multigraph), so at `p = 10^5` every processor computing its own copy
/// would dwarf the simulation itself. [`columnsort_steps`] builds this
/// once and hands every machine an [`Arc`].
pub fn columnsort_schedules(m: usize, k_cols: usize) -> Arc<Vec<TransformSchedule>> {
    Arc::new(
        PHASES
            .iter()
            .filter_map(|ph| match ph {
                Phase::Apply(tf) => Some(TransformSchedule::new(*tf, m, k_cols)),
                _ => None,
            })
            .collect(),
    )
}

/// An owner's in-flight transformation phase.
struct ApplyState<K> {
    /// Index into the shared schedule list (apply phases in order).
    sched: usize,
    /// Destination column being assembled (local moves pre-applied).
    out: Vec<Option<K>>,
    /// Cycle currently in flight (its read result arrives next step).
    t: usize,
}

/// §5.2's networked Columnsort as a state machine.
///
/// The step-machine twin of
/// [`columnsort_net_in`](crate::sort::columnsort_net_in): owners follow the
/// same [`TransformSchedule`] cycle-for-cycle (column `c` broadcasts on
/// channel `c`; dummies are never broadcast — an empty channel read
/// reconstructs the dummy), local sorting phases are free, and phase labels
/// match. The difference is what *non-owners* do: instead of spinning one
/// idle cycle at a time they return a single [`Step::idle_for`] per
/// transformation phase, which the vector backend turns into O(1) work.
///
/// Output is the owner's sorted padded column, or `None` for non-owners —
/// exactly the closure driver's return value.
pub struct ColumnsortStep<K, M, E, D> {
    m: usize,
    enc: E,
    dec: D,
    /// Shared transformation schedules (see [`columnsort_schedules`]).
    scheds: Arc<Vec<TransformSchedule>>,
    /// `(column index, padded contents)` for owners; `None` for idlers.
    data: Option<(usize, Vec<Option<K>>)>,
    /// Next entry of [`PHASES`] to process.
    next_phase: usize,
    /// Ordinal of the next `Phase::Apply` (index into `scheds`).
    next_apply: usize,
    apply: Option<ApplyState<K>>,
    _msg: PhantomData<fn() -> M>,
}

impl<K, M, E, D> ColumnsortStep<K, M, E, D>
where
    K: Key,
    M: Clone + Send + Sync + MsgWidth,
    E: Fn(K) -> M,
    D: Fn(M) -> K,
{
    /// Machine for one processor of an `m × k_cols` Columnsort.
    ///
    /// Owners pass `Some((col, data))` with `data.len() == m` (entries of
    /// `None` are padding dummies); every other processor passes `None`.
    /// `scheds` is the shared schedule list from [`columnsort_schedules`]
    /// for the same `(m, k_cols)`. The shape must satisfy §5.1
    /// (`m >= k_cols(k_cols − 1)`, `k_cols | m`) — validated by the
    /// [`columnsort_steps`] driver.
    pub fn new(
        m: usize,
        k_cols: usize,
        scheds: Arc<Vec<TransformSchedule>>,
        data: Option<(usize, Vec<Option<K>>)>,
        enc: E,
        dec: D,
    ) -> Self {
        if let Some((c, col)) = &data {
            assert!(*c < k_cols, "column index out of range");
            assert_eq!(col.len(), m, "column must have padded length m");
        }
        ColumnsortStep {
            m,
            enc,
            dec,
            scheds,
            data,
            next_phase: 0,
            next_apply: 0,
            apply: None,
            _msg: PhantomData,
        }
    }

    /// The yield for the in-flight transformation's cycle `t`.
    fn apply_cycle(&self) -> Step<M, Option<Vec<Option<K>>>> {
        let ap = self.apply.as_ref().expect("apply in flight");
        let sched = &self.scheds[ap.sched];
        let (c, col) = self.data.as_ref().expect("only owners stream cycles");
        let write = sched.send_task(ap.t, *c).and_then(|s| {
            col[s.src_row]
                .clone()
                .map(|key| (ChanId::from_index(*c), (self.enc)(key)))
        });
        let read = sched
            .recv_task(ap.t, *c)
            .map(|r| ChanId::from_index(r.from_col));
        Step::Yield { write, read }
    }
}

impl<K, M, E, D> StepProtocol<M> for ColumnsortStep<K, M, E, D>
where
    K: Key,
    M: Clone + Send + Sync + MsgWidth,
    E: Fn(K) -> M,
    D: Fn(M) -> K,
{
    type Output = Option<Vec<Option<K>>>;

    fn step(&mut self, env: &StepEnv, input: FrameRead<M>) -> Step<M, Self::Output> {
        let input = input.clean();
        // Land the cycle in flight, if any (owners only).
        if let Some(ap) = &mut self.apply {
            let sched = &self.scheds[ap.sched];
            let (c, _) = self.data.as_ref().expect("only owners stream cycles");
            if let Some(r) = sched.recv_task(ap.t, *c) {
                // Empty channel = the scheduled sender held a dummy.
                ap.out[r.dst_row] = input.map(&self.dec);
            }
            ap.t += 1;
            if ap.t < sched.cycles() {
                return self.apply_cycle();
            }
            let done = self.apply.take().expect("apply in flight");
            let (_, col) = self.data.as_mut().expect("only owners stream cycles");
            *col = done.out;
            self.next_phase += 1;
        }

        // Advance through phases; local sorts are free (no cycle), so keep
        // going until a cycle, a bulk idle, or the end.
        while self.next_phase < PHASES.len() {
            let pi = self.next_phase;
            env.phase(PHASE_NAMES[pi]);
            match PHASES[pi] {
                Phase::SortColumns => {
                    if let Some((_, col)) = &mut self.data {
                        sort_desc(col);
                    }
                    self.next_phase += 1;
                }
                Phase::SortColumnsExceptFirst => {
                    if let Some((c, col)) = &mut self.data {
                        if *c != 0 {
                            sort_desc(col);
                        }
                    }
                    self.next_phase += 1;
                }
                Phase::Apply(_) => {
                    let si = self.next_apply;
                    self.next_apply += 1;
                    let sched = &self.scheds[si];
                    match &mut self.data {
                        Some((c, col)) => {
                            let mut out: Vec<Option<K>> = vec![None; self.m];
                            for &(sr, dr) in sched.local_moves(*c) {
                                out[dr] = col[sr].clone();
                            }
                            if sched.cycles() == 0 {
                                *col = out;
                                self.next_phase += 1;
                                continue;
                            }
                            self.apply = Some(ApplyState {
                                sched: si,
                                out,
                                t: 0,
                            });
                            return self.apply_cycle();
                        }
                        None => {
                            let cycles = sched.cycles() as u64;
                            self.next_phase += 1;
                            if cycles > 0 {
                                // One bulk idle for the whole phase — the
                                // closure form spins `cycles` empty cycles.
                                return Step::idle_for(cycles);
                            }
                        }
                    }
                }
            }
        }
        Step::Done(self.data.take().map(|(_, col)| col))
    }
}

/// What [`columnsort_steps`] returns: a full [`RunReport`] whose
/// per-processor result is the owned, sorted column (`None` for the
/// idle processors `k_cols..p`), keyed words on the wire.
pub type ColumnsortStepsReport<K> = RunReport<Option<Vec<Option<K>>>, Word<K>>;

/// Run an `m × k_cols` Columnsort on `p >= k_cols` processors and `k_cols`
/// channels using [`ColumnsortStep`] on the chosen `backend`.
///
/// Processor `c < k_cols` owns `cols[c]` (padded length `m`, `None` =
/// dummy); processors `k_cols..p` idle in lock-step. Returns the full
/// [`RunReport`] so callers can compare results *and* metrics against the
/// closure driver. On [`Backend::Vector`], the idlers cost O(1) per
/// transformation phase instead of O(cycles), which is what makes
/// `p = 10^5` practical.
pub fn columnsort_steps<K: Key>(
    p: usize,
    m: usize,
    k_cols: usize,
    cols: Vec<Vec<Option<K>>>,
    backend: Backend,
) -> Result<ColumnsortStepsReport<K>, NetError> {
    check_shape(m, k_cols).map_err(|e| NetError::BadConfig(e.to_string()))?;
    if p < k_cols {
        return Err(NetError::BadConfig(format!(
            "p = {p} < k_cols = {k_cols}: every column needs an owner"
        )));
    }
    if cols.len() != k_cols {
        return Err(NetError::BadConfig(format!(
            "got {} columns, expected k_cols = {k_cols}",
            cols.len()
        )));
    }
    // Schedules are pure functions of (transform, m, k_cols): build the
    // four of them once and share, instead of p × 4 edge colorings.
    let scheds = columnsort_schedules(m, k_cols);
    Network::new(p, k_cols)
        .backend(backend)
        .run_steps(|id: ProcId| {
            let i = id.index();
            let role = (i < k_cols).then(|| (i, cols[i].clone()));
            ColumnsortStep::new(m, k_cols, scheds.clone(), role, Word::Key, Word::expect_key)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::verify::verify_sorted;
    use crate::sort::{columnsort_net_in, rank_sort_single_channel, ColumnRole};
    use mcb_workloads::{distributions, rng};

    const BACKENDS: [Backend; 2] = [Backend::Threaded, Backend::Vector];

    #[test]
    fn rank_sort_steps_match_closure_on_all_backends() {
        let lists = distributions::random_uneven(5, 43, &mut rng(22));
        let closure = rank_sort_single_channel(lists.lists().to_vec()).unwrap();
        for b in BACKENDS {
            let steps = rank_sort_steps(lists.lists().to_vec(), b).unwrap();
            verify_sorted(lists.lists(), &steps.lists).unwrap();
            assert_eq!(steps.lists, closure.lists, "{b:?}");
            assert_eq!(steps.metrics, closure.metrics, "{b:?}");
        }
    }

    #[test]
    fn rank_sort_steps_reject_empty_lists() {
        assert!(rank_sort_steps(vec![vec![1u64], vec![]], Backend::Vector).is_err());
        assert!(rank_sort_steps::<u64>(vec![], Backend::Vector).is_err());
    }

    /// The closure driver run under the same shape, for metric identity.
    fn closure_columnsort(
        p: usize,
        m: usize,
        k_cols: usize,
        cols: &[Vec<Option<u64>>],
    ) -> RunReport<Option<Vec<Option<u64>>>, Word<u64>> {
        let cols = cols.to_vec();
        Network::new(p, k_cols)
            .run(move |ctx| {
                let i = ctx.id().index();
                let role = (i < k_cols).then(|| ColumnRole {
                    col: i,
                    data: cols[i].clone(),
                });
                columnsort_net_in(ctx, role, m, k_cols, &Word::Key, &Word::expect_key).unwrap()
            })
            .unwrap()
    }

    fn padded_cols(m: usize, k_cols: usize) -> Vec<Vec<Option<u64>>> {
        // Distinct keys with a sprinkling of dummies.
        let mut cols = vec![vec![None; m]; k_cols];
        for (c, col) in cols.iter_mut().enumerate() {
            for (r, slot) in col.iter_mut().enumerate() {
                if (c + r) % 5 != 0 {
                    *slot = Some(((c * m + r) as u64).wrapping_mul(2654435761) % 100_000);
                }
            }
        }
        cols
    }

    #[test]
    fn columnsort_steps_match_closure_with_idlers() {
        // p > k_cols: idlers take the IdleFor path on every backend.
        let (p, m, k_cols) = (7, 12, 3);
        let cols = padded_cols(m, k_cols);
        let want = closure_columnsort(p, m, k_cols, &cols);
        for b in BACKENDS {
            let got = columnsort_steps(p, m, k_cols, cols.clone(), b).unwrap();
            assert_eq!(got.results, want.results, "{b:?}");
            assert_eq!(got.metrics, want.metrics, "{b:?}");
        }
    }

    #[test]
    fn columnsort_steps_sort_descending() {
        let (p, m, k_cols) = (4, 12, 4);
        let cols = padded_cols(m, k_cols);
        let report = columnsort_steps(p, m, k_cols, cols.clone(), Backend::Vector).unwrap();
        let lin: Vec<Option<u64>> = report
            .into_results()
            .into_iter()
            .flatten()
            .flatten()
            .collect();
        let n_real: usize = cols.iter().flatten().filter(|s| s.is_some()).count();
        assert!(lin[..n_real].iter().all(Option::is_some), "reals first");
        assert!(lin[n_real..].iter().all(Option::is_none), "dummies last");
        assert!(lin[..n_real].windows(2).all(|w| w[0] >= w[1]), "descending");
    }

    #[test]
    fn columnsort_steps_single_column_costs_nothing() {
        // k_cols = 1: every transformation is local, zero cycles — the
        // machine must finish without ever yielding (IdleFor(0) is illegal).
        let cols = vec![vec![Some(3u64), Some(9), Some(1), Some(7), Some(5)]];
        for b in BACKENDS {
            let report = columnsort_steps(3, 5, 1, cols.clone(), b).unwrap();
            assert_eq!(report.metrics.messages, 0);
            assert_eq!(report.metrics.cycles, 0);
            let results = report.into_results();
            assert_eq!(
                results[0],
                Some(vec![Some(9), Some(7), Some(5), Some(3), Some(1)])
            );
        }
    }

    #[test]
    fn columnsort_steps_validate_inputs() {
        assert!(columnsort_steps::<u64>(4, 8, 4, vec![vec![None; 8]; 4], Backend::Vector).is_err());
        assert!(
            columnsort_steps::<u64>(2, 12, 3, vec![vec![None; 12]; 3], Backend::Vector).is_err()
        );
        assert!(
            columnsort_steps::<u64>(4, 12, 3, vec![vec![None; 12]; 2], Backend::Vector).is_err()
        );
    }
}
