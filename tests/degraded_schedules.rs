//! Static verification of degraded schedules: the §2 simulation lemma's
//! channel remap is applied to emitted schedules (`mcb_check::degrade`),
//! proved collision-free, and checked against the lemma's per-cycle
//! dilation formula and its `⌈k/k'⌉` bound.

use mcb_algos::static_schedule::{ColumnsortNetSpec, PartialSumsSpec, StaticSchedule};
use mcb_check::{verify_degraded, Bounds, Outages};

/// The dilation the remap must produce: each logical cycle `t` costs
/// `⌈k / live(t)⌉` physical cycles.
fn expected_dilation(outages: &Outages, k: usize, cycles: u64) -> u64 {
    (0..cycles)
        .map(|t| k.div_ceil(outages.live_at(t).len()) as u64)
        .sum()
}

#[test]
fn emitted_columnsort_schedules_degrade_verifiably() {
    for (m, k) in [(6usize, 3usize), (12, 4), (20, 5)] {
        let spec = ColumnsortNetSpec {
            m,
            k_cols: k,
            dummies: true,
        };
        let schedule = spec.emit();
        // Kill one channel a third of the way in, a second two thirds in
        // (when k allows keeping a survivor).
        let l = schedule.cycle_count();
        let mut outages = Outages::new(k).kill(1, l / 3);
        if k > 2 {
            outages = outages.kill(k - 1, 2 * l / 3);
        }
        let r = verify_degraded(&schedule, &outages, &Bounds::none()).unwrap();
        assert!(r.report.is_ok(), "m={m} k={k}:\n{}", r.report);
        assert_eq!(
            r.dilation,
            expected_dilation(&outages, k, l),
            "m={m} k={k}: dilation off the per-cycle formula"
        );
        assert!(r.dilation <= r.lemma_bound, "m={m} k={k}");
    }
}

#[test]
fn emitted_partial_sums_schedules_degrade_verifiably() {
    for (p, k) in [(4usize, 2usize), (7, 3), (13, 4), (16, 4)] {
        let spec = PartialSumsSpec { p, k };
        let schedule = spec.emit();
        let outages = Outages::new(k).kill(0, 1);
        let r = verify_degraded(&schedule, &outages, &Bounds::none()).unwrap();
        assert!(r.report.is_ok(), "p={p} k={k}:\n{}", r.report);
        assert_eq!(
            r.dilation,
            expected_dilation(&outages, k, schedule.cycle_count()),
            "p={p} k={k}"
        );
    }
}

#[test]
fn degrading_to_one_survivor_hits_the_lemma_bound_exactly() {
    let spec = ColumnsortNetSpec {
        m: 12,
        k_cols: 4,
        dummies: true,
    };
    let schedule = spec.emit();
    let outages = Outages::new(4).kill(0, 0).kill(1, 0).kill(3, 0);
    let r = verify_degraded(&schedule, &outages, &Bounds::none()).unwrap();
    assert!(r.report.is_ok(), "{}", r.report);
    // k' = 1 from cycle 0: the degrade is the fully serialized schedule,
    // exactly k × the original cycle count — the lemma bound is tight.
    assert_eq!(r.dilation, 4 * schedule.cycle_count());
    assert_eq!(r.dilation, r.lemma_bound);
}
