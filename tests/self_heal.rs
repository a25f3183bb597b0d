//! Self-healing chaos tests: the no-oracle drivers must survive random
//! unplanned fault plans — channel deaths, dropped and corrupted frames,
//! and processor crashes that nobody is told about — on both
//! backends, with the *complete* fault-free output (crashed processors'
//! results included, via takeover), physical cycles inside the healing
//! cost contract, and the whole epoch history statically verified by
//! `mcb-check`. Denser and bursty transient mixes on wider shapes run in
//! `tests/chaos.rs`.
//!
//! Stalls are excluded from the plans ([`ChaosOpts::unplanned`] pins
//! `stalls = 0`): a stalled processor misses a round every other live
//! processor observes, which splits the common knowledge the all-read
//! discipline relies on — the model surfaces that as
//! [`EpochDiverged`](mcb::net::NetError::EpochDiverged), and the last
//! test in this file proves that escalation is reachable.

use mcb::algos::heal::{
    heal_schedule, run_program_in, run_program_offline, ColumnsortProgram, SelectProgram,
    SelfHealing,
};
use mcb::algos::Word;
use mcb::check::{verify_epochs, Bounds, EpochSegment};
use mcb::net::{
    AsyncStep, Backend, ChanId, ChaosOpts, ControlCodec, EpochCtx, EpochOpts, FaultPlan, NetError,
    Network, ProcId,
};
use mcb_rng::Rng64;

const BACKENDS: [Backend; 2] = [Backend::Threaded, Backend::Vector];

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

fn flat_sorted_desc(cols: &[Vec<Option<u64>>]) -> Vec<u64> {
    let mut all: Vec<u64> = cols.iter().flatten().filter_map(|x| *x).collect();
    all.sort_unstable_by(|a, b| b.cmp(a));
    all
}

/// The fault-free cycles `L` of sorting `input`, from the offline
/// reference run (a healed run counts its own).
fn offline_sort_cycles(m: usize, input: &[Vec<Option<u64>>]) -> u64 {
    run_program_offline::<u64, _>(&ColumnsortProgram::new(m, input).unwrap()).1
}

/// Assert the healed sort is complete and correct: every slot filled in
/// order, no `None` holes where a crashed processor's column used to be,
/// within the healing bound built from the offline `l`.
fn assert_complete_sorted(
    out: &mcb::algos::heal::HealedSort<u64>,
    want: &[u64],
    l: u64,
    tag: &str,
) {
    let lin: Vec<Option<u64>> = out.columns.iter().flatten().copied().collect();
    let reals = want.len();
    assert!(
        lin[..reals].iter().all(Option::is_some),
        "{tag}: holes in the output — takeover failed"
    );
    let got: Vec<u64> = lin[..reals].iter().map(|x| x.unwrap()).collect();
    assert_eq!(got, want, "{tag}: wrong output");
    assert!(
        out.metrics.cycles <= out.cycle_bound,
        "{tag}: {} cycles exceed the healing bound {}",
        out.metrics.cycles,
        out.cycle_bound
    );
    assert_eq!(
        out.fault_free_cycles, l,
        "{tag}: the bound's L is not the offline run's"
    );
}

#[test]
fn columnsort_heals_under_random_unplanned_faults() {
    let shapes = [(6usize, 2usize), (6, 3), (12, 4)];
    let mut rng = Rng64::seed_from_u64(0x5e1f_4ea1);
    for (m, k) in shapes {
        let horizon = (4 * m * k) as u64;
        let opts = ChaosOpts::unplanned(horizon);
        for _ in 0..3 {
            let seed = rng.next_u64();
            let plan = FaultPlan::random(seed, k, k, &opts);
            let input = cols(m, k, seed);
            let want = flat_sorted_desc(&input);
            let l = offline_sort_cycles(m, &input);

            let mut per_backend = Vec::new();
            for backend in BACKENDS {
                let tag = format!(
                    "seed {seed:#x} m={m} k={k} {backend:?} repro plan: {}",
                    plan.to_jsonl()
                );
                let out = SelfHealing::new(plan.clone())
                    .backend(backend)
                    .sort_columns(m, input.clone())
                    .unwrap_or_else(|e| panic!("{tag}: {e}"));
                assert_complete_sorted(&out, &want, l, &tag);
                per_backend.push(out);
            }
            let a = &per_backend[0];
            for b in &per_backend[1..] {
                let tag = format!("seed {seed:#x} repro plan: {}", plan.to_jsonl());
                assert_eq!(a.columns, b.columns, "{tag}: outputs differ");
                assert_eq!(a.metrics, b.metrics, "{tag}: metrics differ");
                assert_eq!(a.epochs, b.epochs, "{tag}: epoch logs differ");
                assert_eq!(a.fault_summary, b.fault_summary, "{tag}: summaries differ");
            }
        }
    }
}

#[test]
fn columnsort_survives_unannounced_crashes() {
    let shapes = [(6usize, 2usize), (12, 4)];
    let mut rng = Rng64::seed_from_u64(0xdead_0c05);
    for (m, k) in shapes {
        let horizon = (4 * m * k) as u64;
        let opts = ChaosOpts::crash_and_death(horizon);
        for _ in 0..3 {
            let seed = rng.next_u64();
            let plan = FaultPlan::random(seed, k, k, &opts);
            let input = cols(m, k, seed);
            let want = flat_sorted_desc(&input);
            let l = offline_sort_cycles(m, &input);
            for backend in BACKENDS {
                let tag = format!(
                    "seed {seed:#x} m={m} k={k} {backend:?} repro plan: {}",
                    plan.to_jsonl()
                );
                let out = SelfHealing::new(plan.clone())
                    .backend(backend)
                    .sort_columns(m, input.clone())
                    .unwrap_or_else(|e| panic!("{tag}: {e}"));
                assert_complete_sorted(&out, &want, l, &tag);
            }
        }
    }
}

#[test]
fn crash_in_the_very_first_cycle_is_taken_over() {
    // The round-0 writer dies before it ever speaks: everyone sees
    // silence in cycle 0, reconfigures, and a survivor adopts its column.
    let (m, k) = (6usize, 3usize);
    let input = cols(m, k, 7);
    let want = flat_sorted_desc(&input);
    let l = offline_sort_cycles(m, &input);
    let plan = FaultPlan::new(k, k).crash_proc(ProcId(0), 0);
    for backend in BACKENDS {
        let out = SelfHealing::new(plan.clone())
            .backend(backend)
            .sort_columns(m, input.clone())
            .unwrap_or_else(|e| panic!("{backend:?}: {e}"));
        assert_complete_sorted(&out, &want, l, &format!("{backend:?}"));
        assert!(!out.epochs.is_empty(), "{backend:?}: crash went undetected");
        assert!(
            !out.epochs[0].live_procs.contains(&0),
            "{backend:?}: the crashed processor survived the census"
        );
    }
}

#[test]
fn crashing_every_processor_is_a_typed_bad_config() {
    // Healing covers up to p - 1 crashes. When the plan kills every
    // processor, no survivor carries the output, and the run must end in
    // a typed error rather than a hang or an empty answer.
    let (m, k) = (6usize, 2usize);
    let input = cols(m, k, 11);
    let plan = FaultPlan::new(k, k)
        .crash_proc(ProcId(0), 5)
        .crash_proc(ProcId(1), 9);
    for backend in BACKENDS {
        let err = SelfHealing::new(plan.clone())
            .backend(backend)
            .sort_columns(m, input.clone())
            .unwrap_err();
        assert_eq!(
            err,
            NetError::BadConfig("no processor survived to carry the output".into()),
            "{backend:?}"
        );
    }
}

#[test]
fn selection_heals_under_random_unplanned_faults() {
    let shapes = [(4usize, 2usize), (6, 3)];
    let mut rng = Rng64::seed_from_u64(0x5e1e_c7ed);
    for (p, k) in shapes {
        let opts = ChaosOpts::unplanned(64);
        for _ in 0..3 {
            let seed = rng.next_u64();
            let plan = FaultPlan::random(seed, p, k, &opts);
            let lists: Vec<Vec<u64>> = (0..p)
                .map(|i| {
                    (0..4 + i)
                        .map(|j| ((i * 31 + j) as u64 + seed % 97).wrapping_mul(2654435761) % 509)
                        .collect()
                })
                .collect();
            let mut all: Vec<u64> = lists.iter().flatten().copied().collect();
            all.sort_unstable_by(|a, b| b.cmp(a));
            let d = 1 + (seed as usize) % all.len();
            let want = all[d - 1];
            let l = run_program_offline::<u64, _>(&SelectProgram::new(lists.clone(), d).unwrap()).1;

            let mut per_backend = Vec::new();
            for backend in BACKENDS {
                let tag = format!(
                    "seed {seed:#x} p={p} k={k} {backend:?} repro plan: {}",
                    plan.to_jsonl()
                );
                let out = SelfHealing::new(plan.clone())
                    .backend(backend)
                    .select_rank(k, lists.clone(), d)
                    .unwrap_or_else(|e| panic!("{tag}: {e}"));
                assert_eq!(out.value, want, "{tag}: wrong rank-{d} element");
                assert!(
                    out.metrics.cycles <= out.cycle_bound,
                    "{tag}: {} cycles exceed the healing bound {}",
                    out.metrics.cycles,
                    out.cycle_bound
                );
                assert_eq!(
                    out.fault_free_cycles, l,
                    "{tag}: the bound's L is not the offline run's"
                );
                per_backend.push((out.value, out.metrics, out.epochs));
            }
            for other in &per_backend[1..] {
                assert_eq!(
                    &per_backend[0],
                    other,
                    "seed {seed:#x}: backends diverge: {}",
                    plan.to_jsonl()
                );
            }
        }
    }
}

#[test]
fn selection_survives_a_crashed_list_holder() {
    // The crashed processor's list is still part of the answer: every
    // processor mirrors all lists, so selection completes over the full
    // multiset.
    let lists: Vec<Vec<u64>> = vec![vec![50, 10, 90], vec![30, 70], vec![20, 80, 60, 40]];
    let mut all: Vec<u64> = lists.iter().flatten().copied().collect();
    all.sort_unstable_by(|a, b| b.cmp(a));
    let plan = FaultPlan::new(3, 2).crash_proc(ProcId(1), 2);
    for d in [1, 5, 9] {
        for backend in BACKENDS {
            let out = SelfHealing::new(plan.clone())
                .backend(backend)
                .select_rank(2, lists.clone(), d)
                .unwrap_or_else(|e| panic!("{backend:?} d={d}: {e}"));
            assert_eq!(out.value, all[d - 1], "{backend:?} d={d}");
        }
    }
}

#[test]
fn every_epoch_of_a_healed_run_verifies_statically() {
    // Run a sort through a channel death plus a crash, then prove each
    // committed configuration's schedule collision-free and within the
    // lemma bound, and the composed multi-epoch bound above the measured
    // cycles.
    let (m, k) = (6usize, 3usize);
    let input = cols(m, k, 42);
    let plan = FaultPlan::new(k, k)
        .kill_channel(ChanId(1), 5)
        .crash_proc(ProcId(2), 30);
    let out = SelfHealing::new(plan)
        .sort_columns(m, input.clone())
        .unwrap();
    assert!(
        out.epochs.len() >= 2,
        "plan should force at least two reconfigurations"
    );

    let prog = ColumnsortProgram::new(m, &input).unwrap();
    let all: Vec<usize> = (0..k).collect();
    // Epoch 0 is the healthy configuration; each committed record then
    // describes the next one.
    let mut segments = vec![EpochSegment::healthy(heal_schedule(&prog, k, k, &all))];
    for rec in &out.epochs {
        let dead: Vec<usize> = (0..k).filter(|c| !rec.live_chans.contains(c)).collect();
        segments.push(EpochSegment::degraded(
            heal_schedule(&prog, k, k, &rec.live_procs),
            dead,
        ));
    }
    let overhead = EpochCtx::census_cost(k, k, &EpochOpts::default()) + (m * k) as u64;
    let report = verify_epochs(&segments, overhead, &Bounds::none()).unwrap();
    assert!(
        report.is_ok(),
        "epochs {:?} failed static verification",
        report.failed_epochs()
    );
    assert!(
        out.metrics.cycles <= report.total_bound,
        "{} measured cycles exceed the composed static bound {}",
        out.metrics.cycles,
        report.total_bound
    );
}

#[test]
fn epoch_divergence_is_detected_and_fatal() {
    // Processor 0 believes it is reconfiguring (it broadcasts an epoch-5
    // census ping); processor 1 is mid-protocol and expects data. The
    // ping in a data round proves their configuration knowledge split,
    // which must surface as EpochDiverged — not as silent corruption.
    for backend in BACKENDS {
        let lists = vec![vec![1u64, 2, 3], vec![4, 5, 6]];
        let err = Network::new(2, 1)
            .backend(backend)
            .framing(true)
            .run_steps(|_| {
                let lists = lists.clone();
                AsyncStep::new(move |mut ctx| async move {
                    if ctx.id().index() == 0 {
                        let ping = <Word<u64> as ControlCodec>::ping(0, 5);
                        ctx.cycle(Some((ChanId(0), ping)), Some(ChanId(0))).await;
                        None
                    } else {
                        let prog = SelectProgram::new(lists, 2).unwrap();
                        let mut ectx = EpochCtx::new(2, 1, EpochOpts::default());
                        run_program_in(&mut ctx, &mut ectx, &prog).await
                    }
                })
            })
            .unwrap_err();
        match err {
            NetError::EpochDiverged {
                expected, observed, ..
            } => {
                assert_eq!(expected, 0, "{backend:?}");
                assert_eq!(observed, 5, "{backend:?}");
            }
            other => panic!("{backend:?}: expected EpochDiverged, got {other}"),
        }
    }
}

#[test]
fn fault_free_healed_runs_cost_exactly_the_offline_cycles() {
    // Detection is free when nothing fails: framing spends bits, never
    // cycles, and no census ever runs.
    let (m, k) = (12usize, 4usize);
    let input = cols(m, k, 3);
    let prog = ColumnsortProgram::new(m, &input).unwrap();
    let (_, l) = run_program_offline(&prog);
    for backend in BACKENDS {
        let out = SelfHealing::new(FaultPlan::new(k, k))
            .backend(backend)
            .sort_columns(m, input.clone())
            .unwrap();
        assert!(out.epochs.is_empty(), "{backend:?}");
        assert_eq!(out.metrics.cycles, l, "{backend:?}");
        assert_eq!(out.cycle_bound, l, "{backend:?}");
    }
}
