//! The exhaustive envelope: every covered 1-fault plan at the CI shape
//! `(p = 4, k = 2)` must heal, and a truncated-window 2-fault sweep must
//! heal too. These are the PR-time smoke sweeps named in `ci.yml`.

use mcb_sim::{single_fault_plans, sweep, two_fault_plans, EnumOpts, SimTarget};

fn repro_list(wrong: &[(mcb_net::FaultPlan, String)]) -> String {
    wrong
        .iter()
        .map(|(plan, why)| format!("  {why}: {}\n", plan.to_jsonl()))
        .collect()
}

#[test]
fn every_single_fault_plan_heals_at_p4_k2() {
    let target = SimTarget::Select {
        p: 4,
        k: 2,
        n_per: 3,
        d: 6,
    };
    let l = target.fault_free_cycles();
    let opts = EnumOpts::covered(l, l);
    let plans = single_fault_plans(4, 2, &opts);
    assert!(plans.len() >= 200, "sweep must cover the full grid");
    let outcome = sweep(&target, plans);
    assert!(
        outcome.typed_errors.is_empty(),
        "covered single faults must not error:\n{}",
        repro_list(&outcome.typed_errors)
    );
    assert!(
        outcome.overruns.is_empty(),
        "covered single faults must stay inside the cycle bound:\n{}",
        repro_list(&outcome.overruns)
    );
    assert!(
        outcome.all_passed(),
        "covered single faults must heal:\n{}",
        repro_list(&outcome.wrong)
    );
}

#[test]
fn two_fault_plans_heal_in_the_early_window() {
    let target = SimTarget::Select {
        p: 3,
        k: 2,
        n_per: 3,
        d: 5,
    };
    let l = target.fault_free_cycles();
    // Truncate the window so the pair sweep stays test-sized; CI's
    // `sim` job sweeps the full (4, 2) grid with the release binary.
    let horizon = l.min(6);
    let opts = EnumOpts {
        horizon,
        pair_horizon: 2 * horizon,
        ..EnumOpts::covered(l, l)
    };
    let plans = two_fault_plans(3, 2, &opts);
    assert!(
        plans.len() >= 500,
        "pair grid unexpectedly small: {}",
        plans.len()
    );
    let outcome = sweep(&target, plans);
    assert!(
        outcome.wrong.is_empty(),
        "2-fault plans must never corrupt output:\n{}",
        repro_list(&outcome.wrong)
    );
    assert!(
        outcome.overruns.is_empty(),
        "covered 2-fault plans must stay inside the cycle bound:\n{}",
        repro_list(&outcome.overruns)
    );
    assert!(
        outcome.typed_errors.is_empty(),
        "covered 2-fault plans must heal, not error:\n{}",
        repro_list(&outcome.typed_errors)
    );
}
