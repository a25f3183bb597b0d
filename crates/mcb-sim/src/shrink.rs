//! Automatic counterexample shrinking (delta debugging).
//!
//! A failing plan from the explorer often carries events that have
//! nothing to do with the failure — a 6-event random storm where one
//! drop at one cycle is the trigger. The shrinker reduces any failing
//! plan to a **minimal reproducer** with the classic ddmin moves, each
//! validated by re-running the target:
//!
//! 1. **Drop events** greedily to a fixpoint (stall windows, being one
//!    event per blacked-out cycle, shrink to their essential cycles for
//!    free).
//! 2. **Bisect cycles** toward 0: each surviving event is re-anchored
//!    as early as the failure allows, halving first, then stepping.
//!
//! Every accepted move preserves "the plan still fails" (by the caller's
//! predicate, default [`Verdict::is_wrong`]), so the result is a
//! failing plan no single move can make smaller. Runs are capped; the
//! shrink of a typical 2–6 event plan takes tens of runs.

use crate::target::{SimTarget, Verdict};
use mcb_net::{FaultEvent, FaultPlan};

/// Hard cap on target runs per shrink session (a run is the expensive
/// unit; the cap turns a pathological plan into a partial shrink, never
/// a hang).
const MAX_RUNS: usize = 2_000;

/// A shrunk counterexample and how much work it took.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The minimal failing plan.
    pub plan: FaultPlan,
    /// Events in the minimal plan.
    pub events: usize,
    /// Events in the original plan.
    pub original_events: usize,
    /// Target runs spent shrinking.
    pub runs: usize,
}

/// Shrink `plan` (which must fail `target` under `fails`) to a minimal
/// reproducer. `fails` judges a verdict as "still the failure" — use
/// [`Verdict::is_wrong`] for contract violations, or match a specific
/// typed error to shrink an expected-fail witness.
///
/// # Panics
/// If `plan` does not fail in the first place (a shrinker fed a passing
/// plan is a harness bug worth failing loudly on).
pub fn shrink(
    target: &SimTarget,
    plan: &FaultPlan,
    fails: impl Fn(&Verdict) -> bool,
) -> ShrinkOutcome {
    let mut runs = 0usize;
    let mut check = |events: &[FaultEvent]| -> bool {
        if runs >= MAX_RUNS {
            return false;
        }
        runs += 1;
        let candidate = FaultPlan::from_events(plan.p(), plan.k(), events).with_seed(plan.seed());
        fails(&target.run(&candidate))
    };

    let mut events = plan.events();
    let original_events = events.len();
    assert!(
        check(&events),
        "shrink() called with a plan that does not fail the target"
    );

    // Phase 1: greedy event removal to a fixpoint.
    loop {
        let mut removed = false;
        let mut i = 0;
        while i < events.len() {
            if events.len() == 1 {
                break; // an empty plan cannot fail; keep the last event
            }
            let mut candidate = events.clone();
            candidate.remove(i);
            if check(&candidate) {
                events = candidate;
                removed = true;
            } else {
                i += 1;
            }
        }
        if !removed {
            break;
        }
    }

    // Phase 2: bisect each surviving event's cycle toward 0. A move can
    // land a transient on another's (cycle, party) slot, where the plan
    // merges the two; the working list is re-canonicalized after every
    // accepted move, and each event is followed by value, so later moves
    // never bisect an event the plan no longer has.
    let canonical = |events: &[FaultEvent]| FaultPlan::from_events(plan.p(), plan.k(), events);
    for mut e in events.clone() {
        loop {
            let at = e.at();
            if at == 0 {
                break;
            }
            let i = events
                .iter()
                .position(|&x| x == e)
                .expect("the followed event is in the list");
            // Try the big jump first (halving), then the small step.
            let mut moved = false;
            for cand_at in [at / 2, at - 1] {
                if cand_at == at {
                    continue;
                }
                let mut candidate = events.clone();
                candidate[i] = e.with_at(cand_at);
                let candidate = canonical(&candidate).events();
                if check(&candidate) {
                    events = candidate;
                    e = e.with_at(cand_at);
                    moved = true;
                    break;
                }
            }
            if !moved {
                break;
            }
        }
    }

    let shrunk = canonical(&events).with_seed(plan.seed());
    ShrinkOutcome {
        events: shrunk.events().len(),
        original_events,
        plan: shrunk,
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcb_net::ChanId;

    #[test]
    fn a_move_onto_another_transient_merges_the_two() {
        let target = SimTarget::Select {
            p: 4,
            k: 2,
            n_per: 3,
            d: 6,
        };
        // Two drops on channel 1. The predicate needs both of them at
        // their recorded cycles (two faults fire), or one fault firing
        // before cycle 2: so phase 1 keeps both, and phase 2 bisects the
        // later drop onto the earlier one's slot, where the plan merges
        // them into one event.
        let plan = FaultPlan::new(4, 2)
            .drop_message(3, ChanId(1))
            .drop_message(8, ChanId(1));
        let fails = |v: &Verdict| match v {
            Verdict::Pass(info) => info.fired.len() >= 2 || info.fired.iter().any(|f| f.cycle < 2),
            _ => false,
        };
        let out = shrink(&target, &plan, fails);
        assert_eq!(out.original_events, 2);
        assert_eq!(
            out.plan.events(),
            vec![FaultEvent::Drop { at: 1, chan: 1 }],
            "{}",
            out.plan.to_jsonl()
        );
        assert_eq!(out.events, 1, "the count must be the plan's");
        assert!(fails(&target.run(&out.plan)));
    }
}
