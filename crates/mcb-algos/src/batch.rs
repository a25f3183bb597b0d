//! Batched multi-tenant programs: many small jobs on one shared machine.
//!
//! The ROADMAP's service regime (`mcb-serve`) packs many independent
//! sort/select jobs into a single MCB instance instead of spinning up one
//! network per request. [`BatchProgram`] is the composition layer that
//! makes this work under the self-heal stack: it wraps a list of
//! [`ColumnsortProgram`]/[`SelectProgram`] parts into one
//! [`HealProgram`], with
//!
//! * **disjoint role ranges** — part `i`'s roles live at a fixed offset,
//!   so each tenant job maps to its own processor group (the epoch layer
//!   deals roles over live processors; sizing `p` to
//!   [`roles`](HealProgram::roles) gives every job its own processors
//!   until crashes force doubling-up);
//! * **round-robin phase interleaving** — one phase of part `i`, then one
//!   of part `i+1`, …, so a long sort cannot starve the selections
//!   batched alongside it (coarse-grained fair scheduling in the
//!   Saukas–Song sense);
//! * **per-tenant phase attribution** — every phase label is prefixed
//!   `"job{i}:"`, so [`RunMonitor`](mcb_net::monitor::RunMonitor)
//!   snapshots and JSONL phase records split costs by tenant for free.
//!
//! Because the composition is itself a [`HealProgram`], a batch run
//! inherits the whole PR 5 robustness story unchanged: wire-level fault
//! detection, census reconfiguration, crash takeover, and the
//! `L + R × (W + C)` cycle bound — now amortized over every job in the
//! batch.
//!
//! [`multi_select`] covers the multiple-selection special case (many
//! ranks against one shared dataset — Nowicki's regular-sampling regime):
//! one [`SelectProgram`] part per rank, each pruning its own mirrored
//! candidate set.

use crate::heal::{ColumnsortProgram, CsState, HealProgram, SelState, SelectProgram};
use crate::msg::{Key, Word};
use mcb_net::NetError;

/// One tenant job inside a [`BatchProgram`].
pub enum BatchPart<K> {
    /// A §5 Columnsort job ([`ColumnsortProgram`]).
    Sort(ColumnsortProgram<K>),
    /// A §8 filtering-selection job ([`SelectProgram`]).
    Select(SelectProgram<K>),
}

/// A finished part's result, in the order the parts were pushed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOutput<K> {
    /// Sorted columns (same contract as
    /// [`HealedSort::columns`](crate::heal::HealedSort::columns)).
    Sorted(Vec<Vec<Option<K>>>),
    /// The selected rank element.
    Selected(K),
}

/// Mirrored per-part state inside a [`BatchState`].
#[derive(Clone)]
pub enum PartState<K> {
    /// State of a [`BatchPart::Sort`].
    Sort(CsState<K>),
    /// State of a [`BatchPart::Select`].
    Select(SelState<K>),
}

/// Mirrored state of a [`BatchProgram`]: every part's replica plus the
/// round-robin cursor.
#[derive(Clone)]
pub struct BatchState<K> {
    parts: Vec<PartState<K>>,
    /// Scan origin for the next phase (round-robin fairness): the part
    /// after the one that last ran.
    cur: usize,
}

/// Many independent jobs composed into one [`HealProgram`] — see the
/// [module docs](self).
pub struct BatchProgram<K> {
    parts: Vec<BatchPart<K>>,
    /// `offsets[i]` is the first global role of part `i`.
    offsets: Vec<usize>,
    total_roles: usize,
}

impl<K: Key> BatchPart<K> {
    fn roles(&self) -> usize {
        match self {
            BatchPart::Sort(p) => HealProgram::<K>::roles(p),
            BatchPart::Select(p) => HealProgram::<K>::roles(p),
        }
    }

    fn initial(&self) -> PartState<K> {
        match self {
            BatchPart::Sort(p) => PartState::Sort(p.initial()),
            BatchPart::Select(p) => PartState::Select(p.initial()),
        }
    }

    fn next_phase(&self, state: &PartState<K>) -> Option<String> {
        match (self, state) {
            (BatchPart::Sort(p), PartState::Sort(s)) => p.next_phase(s),
            (BatchPart::Select(p), PartState::Select(s)) => p.next_phase(s),
            _ => panic!("protocol error: batch part/state kind mismatch"),
        }
    }

    fn rounds(&self, state: &PartState<K>, phase: &str) -> Vec<(usize, Word<K>)> {
        match (self, state) {
            (BatchPart::Sort(p), PartState::Sort(s)) => p.rounds(s, phase),
            (BatchPart::Select(p), PartState::Select(s)) => p.rounds(s, phase),
            _ => panic!("protocol error: batch part/state kind mismatch"),
        }
    }

    fn apply(&self, state: &PartState<K>, phase: &str, received: &[Word<K>]) -> PartState<K> {
        match (self, state) {
            (BatchPart::Sort(p), PartState::Sort(s)) => {
                PartState::Sort(p.apply(s, phase, received))
            }
            (BatchPart::Select(p), PartState::Select(s)) => {
                PartState::Select(p.apply(s, phase, received))
            }
            _ => panic!("protocol error: batch part/state kind mismatch"),
        }
    }

    fn max_phase_rounds(&self) -> u64 {
        match self {
            BatchPart::Sort(p) => HealProgram::<K>::max_phase_rounds(p),
            BatchPart::Select(p) => HealProgram::<K>::max_phase_rounds(p),
        }
    }

    fn output(&self, state: &PartState<K>) -> BatchOutput<K> {
        match (self, state) {
            (BatchPart::Sort(p), PartState::Sort(s)) => BatchOutput::Sorted(p.output(s)),
            (BatchPart::Select(p), PartState::Select(s)) => BatchOutput::Selected(p.output(s)),
            _ => panic!("protocol error: batch part/state kind mismatch"),
        }
    }
}

impl<K: Key> BatchProgram<K> {
    /// Compose `parts` (at least one) into a single program. Part `i`
    /// keeps its result slot `i` in the output and its phases the
    /// `"job{i}:"` prefix regardless of completion order.
    pub fn new(parts: Vec<BatchPart<K>>) -> Result<Self, NetError> {
        if parts.is_empty() {
            return Err(NetError::BadConfig("batch needs at least one job".into()));
        }
        let mut offsets = Vec::with_capacity(parts.len());
        let mut total_roles = 0usize;
        for part in &parts {
            offsets.push(total_roles);
            total_roles += part.roles();
        }
        Ok(BatchProgram {
            parts,
            offsets,
            total_roles,
        })
    }

    /// Number of jobs in the batch.
    pub fn part_count(&self) -> usize {
        self.parts.len()
    }

    /// The first global role of part `i` (its processor-group origin when
    /// `p` is sized to [`roles`](HealProgram::roles)).
    pub fn role_offset(&self, i: usize) -> usize {
        self.offsets[i]
    }

    /// The next unfinished part scanning round-robin from `state.cur`,
    /// with its inner phase label. Pure in `state`, so every processor
    /// computes the same schedule.
    fn current(&self, state: &BatchState<K>) -> Option<(usize, String)> {
        (0..self.parts.len()).find_map(|step| {
            let i = (state.cur + step) % self.parts.len();
            self.parts[i]
                .next_phase(&state.parts[i])
                .map(|phase| (i, phase))
        })
    }
}

impl<K: Key> HealProgram<K> for BatchProgram<K> {
    type State = BatchState<K>;
    type Output = Vec<BatchOutput<K>>;

    fn roles(&self) -> usize {
        self.total_roles
    }

    fn initial(&self) -> BatchState<K> {
        BatchState {
            parts: self.parts.iter().map(BatchPart::initial).collect(),
            cur: 0,
        }
    }

    fn next_phase(&self, state: &BatchState<K>) -> Option<String> {
        self.current(state)
            .map(|(i, phase)| format!("job{i}:{phase}"))
    }

    fn rounds(&self, state: &BatchState<K>, _phase: &str) -> Vec<(usize, Word<K>)> {
        let (i, phase) = self
            .current(state)
            .expect("protocol error: rounds past the last phase");
        let off = self.offsets[i];
        self.parts[i]
            .rounds(&state.parts[i], &phase)
            .into_iter()
            .map(|(role, w)| (off + role, w))
            .collect()
    }

    fn apply(&self, state: &BatchState<K>, _phase: &str, received: &[Word<K>]) -> BatchState<K> {
        let (i, phase) = self
            .current(state)
            .expect("protocol error: apply past the last phase");
        let mut next = state.clone();
        next.parts[i] = self.parts[i].apply(&state.parts[i], &phase, received);
        next.cur = (i + 1) % self.parts.len();
        next
    }

    fn max_phase_rounds(&self) -> u64 {
        self.parts
            .iter()
            .map(BatchPart::max_phase_rounds)
            .max()
            .unwrap_or(0)
    }

    fn output(&self, state: &BatchState<K>) -> Vec<BatchOutput<K>> {
        self.parts
            .iter()
            .zip(&state.parts)
            .map(|(p, s)| p.output(s))
            .collect()
    }
}

/// Multiple selection (Nowicki's regular-sampling regime): answer every
/// rank in `ranks` against the one shared dataset `lists`, batched into a
/// single program — one [`SelectProgram`] part per rank, each pruning its
/// own mirrored candidate set. The output is `ranks.len()` values of
/// [`BatchOutput::Selected`], in rank-argument order.
pub fn multi_select<K: Key>(
    lists: Vec<Vec<K>>,
    ranks: &[usize],
) -> Result<BatchProgram<K>, NetError> {
    let parts = ranks
        .iter()
        .map(|&d| Ok(BatchPart::Select(SelectProgram::new(lists.clone(), d)?)))
        .collect::<Result<Vec<_>, NetError>>()?;
    BatchProgram::new(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heal::{run_program_offline, SelfHealing};
    use mcb_net::{Backend, ChanId, FaultPlan, ProcId};

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

    fn sorted_desc(cols: &[Vec<Option<u64>>]) -> Vec<u64> {
        let mut v: Vec<u64> = cols.iter().flatten().filter_map(|x| *x).collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v
    }

    fn mixed_batch(salt: u64) -> (BatchProgram<u64>, Vec<BatchOutput<u64>>) {
        let (m, k0) = (6usize, 2usize);
        let sort_in = cols(m, k0, salt);
        let lists: Vec<Vec<u64>> = vec![vec![5, 1, 9], vec![3 + salt % 7, 7], vec![2, 8, 6, 4]];
        let mut all: Vec<u64> = lists.iter().flatten().copied().collect();
        all.sort_unstable_by(|a, b| b.cmp(a));
        let want = vec![
            BatchOutput::Selected(all[0]),
            BatchOutput::Sorted({
                let mut grid = sorted_desc(&sort_in)
                    .into_iter()
                    .map(Some)
                    .collect::<Vec<_>>();
                grid.resize(m * k0, None);
                grid.chunks(m).map(<[_]>::to_vec).collect()
            }),
            BatchOutput::Selected(all[all.len() / 2]),
        ];
        let prog = BatchProgram::new(vec![
            BatchPart::Select(SelectProgram::new(lists.clone(), 1).unwrap()),
            BatchPart::Sort(ColumnsortProgram::new(m, &sort_in).unwrap()),
            BatchPart::Select(SelectProgram::new(lists, all.len() / 2 + 1).unwrap()),
        ])
        .unwrap();
        (prog, want)
    }

    #[test]
    fn offline_batch_matches_per_job_reference() {
        let (prog, want) = mixed_batch(3);
        let (got, cycles) = run_program_offline(&prog);
        assert_eq!(got, want);
        assert!(cycles > 0);
        // Role ranges are disjoint and ordered: 3 + 2 + 3 roles.
        assert_eq!(HealProgram::<u64>::roles(&prog), 8);
        assert_eq!(prog.role_offset(0), 0);
        assert_eq!(prog.role_offset(1), 3);
        assert_eq!(prog.role_offset(2), 5);
    }

    #[test]
    fn phases_interleave_round_robin_with_job_prefixes() {
        let (prog, _) = mixed_batch(4);
        let mut state = prog.initial();
        let mut labels = Vec::new();
        while let Some(phase) = prog.next_phase(&state) {
            labels.push(phase.clone());
            let rounds = prog.rounds(&state, &phase);
            let received: Vec<Word<u64>> = rounds.into_iter().map(|(_, w)| w).collect();
            state = prog.apply(&state, &phase, &received);
        }
        // The first sweep visits each job once, in order.
        assert!(labels[0].starts_with("job0:sel:"), "{labels:?}");
        assert!(labels[1].starts_with("job1:cs1:"), "{labels:?}");
        assert!(labels[2].starts_with("job2:sel:"), "{labels:?}");
        // Every label is attributed, and every job contributes phases.
        for i in 0..3 {
            let pre = format!("job{i}:");
            assert!(labels.iter().any(|l| l.starts_with(&pre)), "{labels:?}");
        }
    }

    #[test]
    fn healed_batch_survives_channel_death_and_crash() {
        let k = 3usize;
        let (prog, want) = mixed_batch(5);
        let p = HealProgram::<u64>::roles(&prog);
        drop(prog);
        for backend in [Backend::Threaded, Backend::Vector] {
            let plan = FaultPlan::new(p, k)
                .kill_channel(ChanId(1), 4)
                .crash_proc(ProcId(2), 9);
            let (prog, _) = mixed_batch(5);
            let run = SelfHealing::new(plan)
                .backend(backend)
                .run_program(p, k, prog)
                .unwrap();
            assert_eq!(run.output, want, "{backend:?}");
            assert!(!run.epochs.is_empty(), "{backend:?}: faults must heal");
        }
    }

    /// A seeded random batch of 1–6 sort and select jobs.
    fn random_batch(rng: &mut mcb_rng::Rng64) -> BatchProgram<u64> {
        let jobs = 1 + rng.random_range(0..6usize);
        let parts = (0..jobs)
            .map(|_| {
                if rng.random_range(0..3u64) == 0 {
                    let (m, k0) = [(2, 2), (6, 2), (6, 3)][rng.random_range(0..3usize)];
                    BatchPart::Sort(
                        ColumnsortProgram::new(m, &cols(m, k0, rng.next_u64())).unwrap(),
                    )
                } else {
                    let lists: Vec<Vec<u64>> = (0..2 + rng.random_range(0..3usize))
                        .map(|_| {
                            (0..1 + rng.random_range(0..4usize))
                                .map(|_| rng.random_range(0..50u64))
                                .collect()
                        })
                        .collect();
                    let n: usize = lists.iter().map(Vec::len).sum();
                    let d = 1 + rng.random_range(0..n);
                    BatchPart::Select(SelectProgram::new(lists, d).unwrap())
                }
            })
            .collect();
        BatchProgram::new(parts).unwrap()
    }

    #[test]
    fn healed_runs_count_the_offline_fault_free_cycles_under_storm_chaos() {
        // The service storm's chaos mix (`k − 1` deaths capped by the
        // plan, two crashes, two drops, a corrupt, a burst of four).
        let chaos = mcb_net::ChaosOpts {
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
        let mut healed = 0;
        for seed in 0..48u64 {
            let build = || random_batch(&mut mcb_rng::Rng64::seed_from_u64(seed));
            let (want, l) = run_program_offline(&build());
            let p = HealProgram::<u64>::roles(&build());
            let k = p.min(3);
            let plan = FaultPlan::random(seed ^ 0xC4A0_5EED, p, k, &chaos);
            let Ok(run) =
                SelfHealing::new(plan)
                    .backend(Backend::Vector)
                    .run_program(p, k, build())
            else {
                continue;
            };
            assert_eq!(run.output, want, "seed {seed}");
            assert_eq!(run.fault_free_cycles, l, "seed {seed}");
            healed += 1;
        }
        assert!(healed >= 40, "only {healed} of 48 batches healed");
    }

    #[test]
    fn multi_select_answers_every_rank() {
        let lists: Vec<Vec<u64>> = vec![vec![41, 3, 27], vec![88, 14], vec![5, 61, 19, 33]];
        let mut all: Vec<u64> = lists.iter().flatten().copied().collect();
        all.sort_unstable_by(|a, b| b.cmp(a));
        let ranks: Vec<usize> = vec![1, 3, 5, all.len()];
        let prog = multi_select(lists, &ranks).unwrap();
        let (got, _) = run_program_offline(&prog);
        let want: Vec<BatchOutput<u64>> = ranks
            .iter()
            .map(|&d| BatchOutput::Selected(all[d - 1]))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_batch_is_bad_config() {
        let Err(err) = BatchProgram::<u64>::new(Vec::new()) else {
            panic!("empty batch must be rejected");
        };
        assert!(matches!(err, mcb_net::NetError::BadConfig(_)));
    }
}
