//! The verifier's own acceptance test: seed faults into *real* schedules
//! emitted by every algorithm, and into a §2-folded one, and require 100%
//! detection.
//!
//! [`seed_fault`] only commits mutations whose preconditions guarantee an
//! invariant violation (a mutation that yields another valid schedule is
//! invisible to any static checker), so every successful seeding must make
//! `verify` report at least one violation — on bound-free verification, no
//! leaning on cycle/message counts.

use mcb_algos::columnsort::Transform;
use mcb_algos::networks::{NetworkKind, NetworkSpec};
use mcb_algos::static_schedule::{
    ColumnsortNetSpec, DirectSortSpec, ExtremaSpec, GroupedSortSpec, NaiveSelectSpec,
    PartialSumsSpec, RankSortSpec, SelectSpec, StaticSchedule, TotalSpec, TransformSpec,
};
use mcb_check::{
    fold_schedule, seed_fault, seed_net_fault, verify, verify_network, Bounds, CheckedSchedule,
    Fault, NetFault,
};
use mcb_rng::Rng64;

fn battery() -> Vec<(&'static str, CheckedSchedule)> {
    let specs: Vec<(&'static str, Box<dyn StaticSchedule>)> = vec![
        ("partial_sums", Box::new(PartialSumsSpec { p: 13, k: 4 })),
        ("total", Box::new(TotalSpec { p: 7, k: 3 })),
        ("extrema", Box::new(ExtremaSpec { p: 8, k: 2 })),
        (
            "transpose",
            Box::new(TransformSpec {
                transform: Transform::Transpose,
                m: 12,
                k: 4,
            }),
        ),
        (
            "columnsort",
            Box::new(ColumnsortNetSpec {
                m: 12,
                k_cols: 3,
                dummies: false,
            }),
        ),
        ("direct_sort", Box::new(DirectSortSpec { p: 4, m: 13 })),
        (
            "grouped_sort",
            Box::new(GroupedSortSpec {
                k: 3,
                n_i: vec![1, 40, 3, 17, 9, 20],
            }),
        ),
        (
            "rank_sort",
            Box::new(RankSortSpec {
                lists: vec![vec![5u64, 1], vec![9, 3, 7], vec![2, 8]],
            }),
        ),
        (
            "select",
            Box::new(SelectSpec {
                k: 2,
                lists: (0..4)
                    .map(|i| (0..6).map(|j| (i * 6 + j) as u64 * 7919 % 10007).collect())
                    .collect(),
                d: 12,
            }),
        ),
        (
            "naive_select",
            Box::new(NaiveSelectSpec {
                k: 2,
                n_i: vec![4, 9, 2, 5],
                d: 10,
            }),
        ),
    ];
    let mut battery: Vec<_> = specs.into_iter().map(|(n, s)| (n, s.emit())).collect();
    // A §2 fold: the Transpose above, folded onto MCB(2, 2).
    let transpose = TransformSpec {
        transform: Transform::Transpose,
        m: 12,
        k: 4,
    }
    .emit();
    let folded = fold_schedule(&transpose, 2, 2).expect("2 | 4 on both axes");
    battery.push(("folded_transpose", folded));
    battery
}

#[test]
fn every_seeded_fault_is_detected_on_every_algorithm() {
    let mut rng = Rng64::seed_from_u64(0x5EED);
    let mut per_fault = [0u64; Fault::ALL.len()];
    let mut on_fold = [0u64; Fault::ALL.len()];
    for (name, pristine) in battery() {
        assert!(
            verify(&pristine, &Bounds::none()).is_ok(),
            "{name}: battery schedule must start valid"
        );
        for (fi, fault) in Fault::ALL.into_iter().enumerate() {
            for _ in 0..8 {
                let mut mutated = pristine.clone();
                // Some (schedule, fault) pairs offer no seeding site — a
                // transform where every processor writes every cycle has
                // no idle writer to add — so None is acceptable per spec…
                let Some(desc) = seed_fault(&mut mutated, fault, &mut rng) else {
                    continue;
                };
                per_fault[fi] += 1;
                if name == "folded_transpose" {
                    on_fold[fi] += 1;
                }
                let report = verify(&mutated, &Bounds::none());
                assert!(
                    !report.is_ok(),
                    "{name}: {fault:?} ({desc}) escaped the verifier:\n{report}"
                );
            }
        }
    }
    // …but across the whole battery every fault class must exercise.
    for (fi, fault) in Fault::ALL.into_iter().enumerate() {
        assert!(
            per_fault[fi] > 0,
            "{fault:?} never seeded across the battery"
        );
    }
    // The fold must leave every fault class a site to seed.
    assert!(
        on_fold.iter().all(|&n| n > 0),
        "fault classes seeded on the fold: {on_fold:?}"
    );
    let seeded_total: u64 = per_fault.iter().sum();
    assert!(
        seeded_total > 200,
        "battery too small: {seeded_total} seedings"
    );
}

/// Comparator-network mutation classes go through the *symbolic* pass:
/// swapped ends and dropped comparators keep the schedule structurally
/// valid (the ordinary verifier cannot see them) and are caught by the
/// 0-1 sortedness prover; mis-colored layers collide or leave the channel
/// range and are caught structurally. 100% detection, same as the
/// schedule-level classes.
#[test]
fn every_seeded_network_fault_is_detected() {
    let mut rng = Rng64::seed_from_u64(0x0E7);
    let battery = [
        NetworkSpec {
            kind: NetworkKind::Batcher,
            p: 8,
            k: 4,
        },
        NetworkSpec {
            kind: NetworkKind::Batcher,
            p: 11,
            k: 1,
        },
        NetworkSpec {
            kind: NetworkKind::BoseNelson,
            p: 10,
            k: 2,
        },
        NetworkSpec {
            kind: NetworkKind::Multiway { group: 3 },
            p: 9,
            k: 6,
        },
    ];
    let mut per_fault = [0u64; NetFault::ALL.len()];
    for spec in battery {
        let pristine = spec.compile();
        assert!(
            verify_network(&pristine, &spec.bounds()).is_ok(),
            "{spec:?}: battery network must start valid"
        );
        for (fi, fault) in NetFault::ALL.into_iter().enumerate() {
            for _ in 0..8 {
                let mut mutated = pristine.clone();
                let Some(desc) = seed_net_fault(&mut mutated, fault, &mut rng) else {
                    continue;
                };
                per_fault[fi] += 1;
                let report = verify_network(&mutated, &Bounds::none());
                assert!(
                    !report.is_ok(),
                    "{spec:?}: {fault:?} ({desc}) escaped the symbolic pass:\n{report}"
                );
            }
        }
    }
    for (fi, fault) in NetFault::ALL.into_iter().enumerate() {
        assert!(
            per_fault[fi] > 0,
            "{fault:?} never seeded across the network battery"
        );
    }
    let seeded_total: u64 = per_fault.iter().sum();
    assert!(
        seeded_total >= 90,
        "network battery too small: {seeded_total} seedings"
    );
}

#[test]
fn detection_holds_under_many_seeds() {
    // A wider randomized pass over one data-carrying and one control-heavy
    // schedule: no seed value may produce an undetected mutation.
    let specs: Vec<Box<dyn StaticSchedule>> = vec![
        Box::new(TransformSpec {
            transform: Transform::UnDiagonalize,
            m: 6,
            k: 3,
        }),
        Box::new(GroupedSortSpec {
            k: 2,
            n_i: vec![7, 2, 11, 4],
        }),
    ];
    for spec in &specs {
        let pristine = spec.emit();
        for seed in 0..64u64 {
            let mut rng = Rng64::seed_from_u64(seed);
            for fault in Fault::ALL {
                let mut mutated = pristine.clone();
                if seed_fault(&mut mutated, fault, &mut rng).is_some() {
                    assert!(
                        !verify(&mutated, &Bounds::none()).is_ok(),
                        "seed {seed}, {fault:?} escaped on {}",
                        pristine.name
                    );
                }
            }
        }
    }
}
