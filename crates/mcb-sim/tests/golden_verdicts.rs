//! Golden verdicts: a fixed sample of the covered fault grids must heal
//! with exactly the cycles, epoch commit cycles and fired-fault counts
//! recorded in `fixtures/golden_verdicts.txt`, and every healed run must
//! count the target's fault-free cycles `L` for itself.
//!
//! The sample is every single-fault plan of `select(p=4, k=2)`, every
//! 100th plan of its pair grid, and every single-fault plan of
//! `select(p=8, k=4)` — the shapes the `sim_sweep` benchmark runs. The
//! fixture was recorded from the closure-driven heal loop before it was
//! replaced by the step-machine one; the replay below pins the new loop
//! to the old loop's observable cost, plan for plan.

use mcb_sim::{single_fault_plans, two_fault_plans, EnumOpts, SimTarget, Verdict};

/// Every `PAIR_STRIDE`'th pair plan of the small grid is sampled.
const PAIR_STRIDE: usize = 100;

fn small() -> SimTarget {
    SimTarget::Select {
        p: 4,
        k: 2,
        n_per: 3,
        d: 6,
    }
}

fn wide() -> SimTarget {
    SimTarget::Select {
        p: 8,
        k: 4,
        n_per: 3,
        d: 12,
    }
}

/// One fixture line: `class index verdict cycles epoch-cycles fired`.
/// A pass must have counted the target's reference `l`.
fn line(class: &str, index: usize, l: u64, verdict: &Verdict) -> String {
    match verdict {
        Verdict::Pass(info) => {
            assert_eq!(info.fault_free_cycles, l, "{class} {index}: counted L");
            let epochs: Vec<String> = info.epoch_cycles.iter().map(u64::to_string).collect();
            let epochs = if epochs.is_empty() {
                "-".to_string()
            } else {
                epochs.join(",")
            };
            format!(
                "{class} {index} pass {} {epochs} {}",
                info.cycles,
                info.fired.len()
            )
        }
        Verdict::TypedError(_) => format!("{class} {index} typed - - -"),
        Verdict::Overrun(_) => format!("{class} {index} overrun - - -"),
        Verdict::Wrong(_) => format!("{class} {index} wrong - - -"),
    }
}

/// The sampled plans' lines, in fixture order.
fn golden_lines() -> Vec<String> {
    let mut out = Vec::new();
    let s = small();
    let ls = s.fault_free_cycles();
    let os = EnumOpts::covered(ls, ls);
    for (i, plan) in single_fault_plans(4, 2, &os).iter().enumerate() {
        out.push(line("s1", i, ls, &s.run(plan)));
    }
    for (i, plan) in two_fault_plans(4, 2, &os).iter().enumerate() {
        if i % PAIR_STRIDE == 0 {
            out.push(line("s2", i, ls, &s.run(plan)));
        }
    }
    let w = wide();
    let lw = w.fault_free_cycles();
    let ow = EnumOpts::covered(lw, lw);
    for (i, plan) in single_fault_plans(8, 4, &ow).iter().enumerate() {
        out.push(line("w1", i, lw, &w.run(plan)));
    }
    out
}

#[test]
fn sampled_plans_heal_with_the_recorded_costs() {
    let want: Vec<&str> = include_str!("fixtures/golden_verdicts.txt")
        .lines()
        .collect();
    let got = golden_lines();
    assert_eq!(got.len(), want.len(), "sample size changed");
    let diffs: Vec<String> = got
        .iter()
        .zip(&want)
        .filter(|(g, w)| g.as_str() != **w)
        .map(|(g, w)| format!("  want {w}\n  got  {g}"))
        .collect();
    assert!(
        diffs.is_empty(),
        "{} of {} sampled plans differ from the fixture:\n{}",
        diffs.len(),
        want.len(),
        diffs[..diffs.len().min(20)].join("\n")
    );
}
