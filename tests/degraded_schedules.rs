//! Static verification of degraded schedules: the §2 simulation lemma's
//! channel remap is applied to emitted schedules (`mcb_check::degrade`),
//! proved collision-free, and checked against the lemma's per-cycle
//! dilation formula and its `⌈k/k'⌉` bound. The lemma's processor fold is
//! proved the same way, with exact cycle and message counts, and shown to
//! reject what it cannot express.

use mcb_algos::columnsort::Transform;
use mcb_algos::static_schedule::{
    ColumnsortNetSpec, PartialSumsSpec, StaticSchedule, TransformSpec,
};
use mcb_check::{
    fold_schedule, verify_degraded, verify_folded, Bounds, CheckedSchedule, DegradeError, Outages,
    ScheduleBuilder, Violation,
};
use mcb_rng::Rng64;

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
        assert!(r.is_ok(), "m={m} k={k}:\n{}\n{}", r.input, r.report);
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
        assert!(r.is_ok(), "p={p} k={k}:\n{}\n{}", r.input, r.report);
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
    assert!(r.is_ok(), "{}\n{}", r.input, r.report);
    // k' = 1 from cycle 0: the degrade is the fully serialized schedule,
    // exactly k × the original cycle count — the lemma bound is tight.
    assert_eq!(r.dilation, 4 * schedule.cycle_count());
    assert_eq!(r.dilation, r.lemma_bound);
}

/// Seeded single-writer traffic on an `MCB(p, k)`: each cycle a random
/// subset of channels gets distinct random writers, and every processor
/// reads a random channel, expecting a value exactly where one is written.
fn random_traffic(p: usize, k: usize, cycles: usize, rng: &mut Rng64) -> CheckedSchedule {
    let mut b = ScheduleBuilder::new(&format!("random traffic p={p} k={k}"), p, k);
    let mut procs: Vec<usize> = (0..p).collect();
    for _ in 0..cycles {
        b.begin_cycle();
        rng.shuffle(&mut procs);
        let mut written = vec![false; k];
        for (chan, &proc) in procs.iter().take(k).enumerate() {
            if rng.random_bool(0.75) {
                b.write(proc, chan);
                written[chan] = true;
            }
        }
        for proc in 0..p {
            let chan = rng.random_range(0..k);
            if written[chan] {
                b.read(proc, chan);
            } else {
                b.read_maybe_empty(proc, chan);
            }
        }
    }
    b.finish()
}

#[test]
fn folds_verify_with_exact_bounds_on_random_traffic() {
    let mut rng = Rng64::seed_from_u64(0xF01D);
    for (vp, vk, p, k) in [
        (4usize, 2usize, 2usize, 1usize),
        (6, 3, 3, 3),
        (8, 4, 4, 2),
        (12, 6, 4, 2),
        (8, 2, 2, 2),
    ] {
        let schedule = random_traffic(vp, vk, 4, &mut rng);
        let r = verify_folded(&schedule, p, k).unwrap();
        assert!(
            r.is_ok(),
            "({vp},{vk}) on ({p},{k}):\n{}\n{}",
            r.input,
            r.report
        );
        let (g, h) = ((vp / p) as u64, (vk / k) as u64);
        assert_eq!(
            r.schedule.cycle_count(),
            g * g * h * 4,
            "({vp},{vk}) on ({p},{k})"
        );
        let (_, messages) = schedule.message_bounds();
        assert_eq!(r.schedule.message_bounds(), (g * messages, g * messages));
    }
}

#[test]
fn folding_cannot_mask_a_virtual_collision() {
    // Virtual processors 0 and 1 share host 0 with local indices 0 and 1,
    // and both write virtual channel 1: on a real MCB(4, 4) that fails.
    let mut b = ScheduleBuilder::new("masked collision", 4, 4);
    b.begin_cycle();
    b.write(0, 1);
    b.write(1, 1);
    for reader in 2..4 {
        b.read(reader, 1);
    }
    let schedule = b.finish();
    let r = verify_folded(&schedule, 2, 2).unwrap();
    // The two writes land in different slots, so the folded schedule alone
    // verifies clean: only the input's verdict sees the collision.
    assert!(r.report.is_ok(), "{}", r.report);
    assert!(!r.is_ok());
    assert_eq!(
        r.input.violations,
        vec![Violation::WriteCollision {
            cycle: 0,
            chan: 1,
            writers: vec![0, 1],
        }]
    );
}

#[test]
fn degrading_cannot_mask_an_out_of_range_wire_route() {
    // MCB(2, 2): P0 broadcasts to P1 on channel 1 in cycle 0, but the
    // wire move names cycle 1, past the one-cycle schedule's end.
    let mut b = ScheduleBuilder::new("stray route", 2, 2);
    b.begin_cycle();
    b.write(0, 1);
    b.read(1, 1);
    b.declare_slots(1);
    b.wire_move(1, 0, 1, 1, 0, 0);
    let schedule = b.finish();
    // With channel 0 dead from cycle 0 the broadcast moves to physical
    // cycle 1, where the verbatim route now finds it: the degraded
    // schedule alone verifies clean, and only the input's verdict fails.
    let outages = Outages::new(2).kill(0, 0);
    let r = verify_degraded(&schedule, &outages, &Bounds::none()).unwrap();
    assert!(r.report.is_ok(), "{}", r.report);
    assert!(!r.is_ok());
    let kinds: Vec<&str> = r.input.violations.iter().map(Violation::kind).collect();
    assert_eq!(kinds, ["wire_move_mismatch"]);
}

#[test]
fn emitted_transpose_folds_with_its_data_flow() {
    let schedule = TransformSpec {
        transform: Transform::Transpose,
        m: 12,
        k: 4,
    }
    .emit();
    let r = verify_folded(&schedule, 2, 2).unwrap();
    assert!(r.is_ok(), "{}\n{}", r.input, r.report);
    assert!(r.schedule.data.is_some());
    assert_eq!(r.schedule.cycle_count(), 72);
    assert_eq!(r.schedule.message_bounds(), (72, 72));
}

#[test]
fn folds_with_bad_ratios_are_rejected() {
    for (vp, vk, p, k) in [(6usize, 4usize, 4usize, 2usize), (8, 6, 4, 4), (8, 0, 4, 1)] {
        // Built by hand: the builder refuses k' = 0.
        let schedule = CheckedSchedule {
            name: "empty".into(),
            p: vp,
            k: vk,
            cycles: Vec::new(),
            data: None,
        };
        assert_eq!(
            fold_schedule(&schedule, p, k),
            Err(DegradeError::FoldRatio {
                virt_p: vp,
                virt_k: vk,
                p,
                k,
            }),
            "({vp},{vk}) on ({p},{k})"
        );
    }
}
