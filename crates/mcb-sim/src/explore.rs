//! Coverage-guided random exploration for shapes beyond the exhaustive
//! envelope.
//!
//! Enumerating every 2-fault plan at `p = 64` is hopeless; sampling
//! uniformly wastes most runs on plans that exercise the same healing
//! path. This explorer sits in between: it tracks **coverage cells** —
//! (phase, fault kind, cycle-offset-from-epoch-boundary bucket) triples
//! observed in finished runs — and, at each step, draws a small batch of
//! candidate seeds, *statically* predicts which cells each seeded plan
//! could touch (a pure function of the plan), and runs the candidate
//! promising the most unexplored ones. The paper's phases react
//! differently to a fault landing just after a census than to one mid-
//! phase, so offset-from-epoch-boundary is the axis uniform sampling
//! under-visits.

use crate::target::{PassInfo, SimTarget, Verdict};
use mcb_json::Json;
use mcb_net::{ChaosOpts, FaultKind, FaultPlan};
use mcb_rng::Rng64;
use std::collections::BTreeSet;
use std::time::Instant;

/// Bucket a cycle distance: 0, 1, 2, 3–4, 5–8, 9–16, … (log₂ above 2).
fn offset_bucket(d: u64) -> u32 {
    match d {
        0..=2 => d as u32,
        _ => 2 + d.ilog2(),
    }
}

/// A coverage cell: (phase name, fault kind, offset bucket from the
/// nearest epoch boundary — run start counts as a boundary).
pub type Cell = (String, FaultKind, u32);

/// The set of coverage cells observed so far.
#[derive(Debug, Default)]
pub struct Coverage {
    cells: BTreeSet<Cell>,
}

impl Coverage {
    /// Fresh empty coverage.
    pub fn new() -> Coverage {
        Coverage::default()
    }

    /// Fold a passing run's evidence in; returns how many cells were new.
    pub fn observe(&mut self, info: &PassInfo) -> usize {
        let mut fresh = 0;
        for rec in &info.fired {
            let phase = info
                .phases
                .iter()
                .find(|(_, first, last)| *first <= rec.cycle && rec.cycle <= *last)
                .map_or("<between-phases>", |(name, _, _)| name.as_str())
                .to_string();
            // Distance to the nearest committed epoch boundary at or
            // before the fault (run start = boundary 0).
            let boundary = info
                .epoch_cycles
                .iter()
                .copied()
                .filter(|&c| c <= rec.cycle)
                .max()
                .unwrap_or(0);
            let cell = (phase, rec.kind, offset_bucket(rec.cycle - boundary));
            if self.cells.insert(cell) {
                fresh += 1;
            }
        }
        fresh
    }

    /// Number of distinct cells observed.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The cells as a JSON array (for the nightly coverage artifact).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.cells
                .iter()
                .map(|(phase, kind, bucket)| {
                    Json::obj()
                        .field("phase", Json::Str(phase.clone()))
                        .field("kind", Json::Str(kind.as_str().to_string()))
                        .field("offset_bucket", Json::U64(u64::from(*bucket)))
                })
                .collect(),
        )
    }
}

/// Static prediction key for a planned event: (kind, cycle bucket). The
/// phase/epoch axes need a run; this is the bias signal available from
/// the plan alone.
fn static_key(kind: FaultKind, at: u64) -> (FaultKind, u32) {
    (kind, offset_bucket(at))
}

/// Budgets and chaos shape for [`explore`].
#[derive(Debug, Clone)]
pub struct ExploreOpts {
    /// Total plans to run.
    pub plans: usize,
    /// Candidate seeds weighed per step (1 = unbiased random).
    pub candidates: usize,
    /// Shape of each candidate plan.
    pub chaos: ChaosOpts,
    /// Master seed: the whole exploration is a pure function of
    /// `(target, opts)`.
    pub seed: u64,
    /// Wall-clock budget in milliseconds (0 = unlimited). Checked
    /// between runs; the run in flight finishes.
    pub max_millis: u64,
}

impl Default for ExploreOpts {
    fn default() -> Self {
        ExploreOpts {
            plans: 64,
            candidates: 8,
            chaos: ChaosOpts::unplanned(64),
            seed: 0x0005_eed5,
            max_millis: 0,
        }
    }
}

/// What an exploration session found.
#[derive(Debug, Default)]
pub struct ExploreOutcome {
    /// Plans actually run (≤ the budget when wall-clock bound).
    pub runs: usize,
    /// Coverage accumulated across all passing runs.
    pub coverage: Coverage,
    /// Seeds of plans that ended in a typed engine error.
    pub typed_errors: Vec<(FaultPlan, String)>,
    /// Plans with correct output that blew the cycle bound — hand these
    /// to [`shrink`](crate::shrink::shrink) with a
    /// [`Verdict::is_violation`] predicate.
    pub overruns: Vec<(FaultPlan, String)>,
    /// Plans that silently corrupted output — hand these to
    /// [`shrink`](crate::shrink::shrink).
    pub wrong: Vec<(FaultPlan, String)>,
}

/// Run a coverage-guided exploration of `target`'s fault space. Every
/// verdict is held to the target's reference `L` ([`Verdict::held_to`]).
pub fn explore(target: &SimTarget, opts: &ExploreOpts) -> ExploreOutcome {
    let started = Instant::now();
    let l = target.fault_free_cycles();
    let mut rng = Rng64::seed_from_u64(opts.seed);
    let mut out = ExploreOutcome::default();
    let mut predicted: BTreeSet<(FaultKind, u32)> = BTreeSet::new();
    let (p, k) = (target.p(), target.k());
    for _ in 0..opts.plans {
        if opts.max_millis > 0 && started.elapsed().as_millis() as u64 >= opts.max_millis {
            break;
        }
        // Draw candidates, score by unexplored static keys, run the best.
        let mut best: Option<(usize, FaultPlan)> = None;
        for _ in 0..opts.candidates.max(1) {
            let plan = FaultPlan::random(rng.next_u64(), p, k, &opts.chaos);
            let score = plan
                .events()
                .iter()
                .map(|e| static_key(e.kind(), e.at()))
                .collect::<BTreeSet<_>>()
                .difference(&predicted)
                .count();
            if best.as_ref().is_none_or(|(s, _)| score > *s) {
                best = Some((score, plan));
            }
        }
        let (_, plan) = best.expect("candidates >= 1");
        predicted.extend(plan.events().iter().map(|e| static_key(e.kind(), e.at())));
        out.runs += 1;
        match target.run(&plan).held_to(l) {
            Verdict::Pass(info) => {
                out.coverage.observe(&info);
            }
            Verdict::TypedError(e) => out.typed_errors.push((plan, e)),
            Verdict::Overrun(e) => out.overruns.push((plan, e)),
            Verdict::Wrong(e) => out.wrong.push((plan, e)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offset_buckets_are_monotone_and_coarse() {
        let buckets: Vec<u32> = [0u64, 1, 2, 3, 4, 7, 8, 15, 64, 1000]
            .iter()
            .map(|&d| offset_bucket(d))
            .collect();
        for w in buckets.windows(2) {
            assert!(w[0] <= w[1], "buckets must be monotone: {buckets:?}");
        }
        assert!(buckets.last().unwrap() < &16, "coarse at the tail");
    }

    #[test]
    fn exploration_is_deterministic_and_accumulates_coverage() {
        let target = SimTarget::Select {
            p: 4,
            k: 2,
            n_per: 3,
            d: 6,
        };
        let opts = ExploreOpts {
            plans: 6,
            candidates: 4,
            chaos: ChaosOpts::unplanned(32),
            seed: 11,
            max_millis: 0,
        };
        let a = explore(&target, &opts);
        let b = explore(&target, &opts);
        assert_eq!(a.runs, 6);
        assert_eq!(a.coverage.len(), b.coverage.len(), "deterministic");
        assert!(a.wrong.is_empty(), "covered chaos must heal: {:?}", a.wrong);
        assert!(
            a.overruns.is_empty(),
            "covered chaos in bound: {:?}",
            a.overruns
        );
        assert!(!a.coverage.is_empty(), "faults fired and were observed");
        assert!(!a.coverage.to_json().render().is_empty());
    }

    #[test]
    fn wall_clock_budget_stops_early() {
        let target = SimTarget::Select {
            p: 4,
            k: 2,
            n_per: 3,
            d: 6,
        };
        let opts = ExploreOpts {
            plans: 100_000,
            max_millis: 50,
            ..ExploreOpts::default()
        };
        let out = explore(&target, &opts);
        assert!(out.runs < 100_000, "budget must cut the session short");
    }
}
