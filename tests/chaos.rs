//! Chaos property tests: the paper's algorithms must survive *any* seeded
//! random fault plan that leaves at least one channel alive (the §2
//! simulation lemma's precondition), on both backends, with the
//! output equal to the fault-free answer, the physical cycle count inside
//! the healing cost contract, and the runs backend-identical down to the
//! epoch log.
//!
//! The plans are detected from the wire: the self-healing drivers are
//! never told where a fault lands. Stalls are therefore removed from
//! every plan (`stalls = 0`): a stalled processor misses a round every
//! other live processor observes, which the no-oracle runtime surfaces as
//! [`EpochDiverged`](mcb::net::NetError::EpochDiverged) rather than
//! healing (see `tests/self_heal.rs`). Crashes are left out too
//! ([`ChaosOpts`] default `crashes = 0`); crash takeover has its own
//! tests in `tests/self_heal.rs`.

use mcb::algos::heal::{
    run_program_offline, ColumnsortProgram, HealedSort, SelectProgram, SelfHealing,
};
use mcb::net::{Backend, ChaosOpts, FaultPlan};
use mcb_rng::Rng64;

const BACKENDS: [Backend; 2] = [Backend::Threaded, Backend::Vector];

/// The default fault mix with stalls removed.
fn no_stalls() -> ChaosOpts {
    ChaosOpts {
        stalls: 0,
        max_stall: 0,
        ..ChaosOpts::default()
    }
}

/// Deterministic pseudo-random column fill (not already sorted, repeats
/// possible — duplicates must not confuse the healing).
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

/// One-command repro context: the seed plus the plan as a JSONL line
/// (`mcb-sim replay` format for the plan payload) — paste into a repro
/// file or rebuild with `FaultPlan::from_jsonl`.
fn repro(seed: u64, plan: &FaultPlan) -> String {
    format!("seed {seed:#x} repro plan: {}", plan.to_jsonl())
}

fn flat_sorted_desc(cols: &[Vec<Option<u64>>]) -> Vec<u64> {
    let mut all: Vec<u64> = cols.iter().flatten().filter_map(|x| *x).collect();
    all.sort_unstable_by(|a, b| b.cmp(a));
    all
}

/// Sort `input` under `plan` on every backend; assert each output equals
/// the fault-free answer within the healing bound, built from the
/// offline run's fault-free cycles, and that the backends agree on
/// outputs, metrics, epoch logs and fault summaries.
fn sort_on_all_backends(plan: &FaultPlan, m: usize, input: &[Vec<Option<u64>>], ctx: &str) {
    let want = flat_sorted_desc(input);
    let l = run_program_offline::<u64, _>(&ColumnsortProgram::new(m, input).unwrap()).1;
    let mut per_backend: Vec<HealedSort<u64>> = Vec::new();
    for backend in BACKENDS {
        let out = SelfHealing::new(plan.clone())
            .backend(backend)
            .sort_columns(m, input.to_vec())
            .unwrap_or_else(|e| panic!("{ctx} {backend:?}: {e}"));
        let got: Vec<u64> = out.columns.iter().flatten().filter_map(|x| *x).collect();
        assert_eq!(
            got, want,
            "{ctx} {backend:?}: wrong output (multiset or order)"
        );
        assert!(
            out.metrics.cycles <= out.cycle_bound,
            "{ctx} {backend:?}: {} physical cycles exceed the healing bound {}",
            out.metrics.cycles,
            out.cycle_bound
        );
        assert_eq!(
            out.fault_free_cycles, l,
            "{ctx} {backend:?}: the bound's L is not the offline run's"
        );
        per_backend.push(out);
    }
    let a = &per_backend[0];
    for b in &per_backend[1..] {
        assert_eq!(a.columns, b.columns, "{ctx}: outputs differ");
        assert_eq!(a.metrics, b.metrics, "{ctx}: metrics differ");
        assert_eq!(a.epochs, b.epochs, "{ctx}: epoch logs differ");
        assert_eq!(a.fault_summary, b.fault_summary, "{ctx}: summaries differ");
    }
}

#[test]
fn columnsort_is_correct_under_random_fault_plans() {
    // (m, k) must satisfy the §5 shape: m >= k(k-1), k | m.
    let shapes = [(6usize, 2usize), (6, 3), (12, 4), (20, 5)];
    let opts = no_stalls();
    let mut rng = Rng64::seed_from_u64(0xc4a05);
    for (m, k) in shapes {
        for _ in 0..3 {
            let seed = rng.next_u64();
            let plan = FaultPlan::random(seed, k, k, &opts);
            assert!(plan.min_live() >= 1, "random plans must leave a survivor");
            let ctx = format!("{} m={m} k={k}", repro(seed, &plan));
            sort_on_all_backends(&plan, m, &cols(m, k, seed), &ctx);
        }
    }
}

#[test]
fn selection_is_correct_under_random_fault_plans() {
    let shapes = [(4usize, 2usize), (6, 3)];
    let opts = no_stalls();
    let mut rng = Rng64::seed_from_u64(0x5e1ec7);
    for (p, k) in shapes {
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
            let ctx = repro(seed, &plan);
            let l = run_program_offline::<u64, _>(&SelectProgram::new(lists.clone(), d).unwrap()).1;

            let mut values = Vec::new();
            for backend in BACKENDS {
                let out = SelfHealing::new(plan.clone())
                    .backend(backend)
                    .select_rank(k, lists.clone(), d)
                    .unwrap_or_else(|e| panic!("{ctx} p={p} k={k} {backend:?}: {e}"));
                assert_eq!(
                    out.value, want,
                    "{ctx} p={p} k={k} {backend:?}: wrong rank-{d} element"
                );
                assert!(
                    out.metrics.cycles <= out.cycle_bound,
                    "{ctx} p={p} k={k} {backend:?}: {} cycles exceed the healing bound {}",
                    out.metrics.cycles,
                    out.cycle_bound
                );
                assert_eq!(
                    out.fault_free_cycles, l,
                    "{ctx} p={p} k={k} {backend:?}: the bound's L is not the offline run's"
                );
                values.push((out.metrics, out.epochs, out.fault_summary));
            }
            for v in &values[1..] {
                assert_eq!(&values[0], v, "{ctx}: backends diverge");
            }
        }
    }
}

#[test]
fn correlated_bursts_are_survived_on_all_backends() {
    // The bursty preset concentrates every transient into seeded storm
    // windows: whole runs of adjacent cycles are spoiled at once, the
    // hardest transient shape short of losing the channel. The output
    // must still match the fault-free answer, within the healing bound,
    // on both backends.
    let (m, k) = (12usize, 4usize);
    let opts = ChaosOpts::bursty(64);
    let mut rng = Rng64::seed_from_u64(0xb5257);
    for _ in 0..4 {
        let seed = rng.next_u64();
        let plan = FaultPlan::random(seed, k, k, &opts);
        let s = plan.summary();
        let ctx = repro(seed, &plan);
        assert!(s.drops + s.corrupts > 0, "{ctx}: storms planted nothing");
        sort_on_all_backends(&plan, m, &cols(m, k, seed), &ctx);
    }
}

#[test]
fn heavier_chaos_still_converges() {
    // Crank transient-fault density well past the defaults on a mid-size
    // sort; the census budget and the healing bound must still hold.
    let opts = ChaosOpts {
        drops: 6,
        corrupts: 4,
        ..no_stalls()
    };
    let (m, k) = (12, 4);
    for seed in [1u64, 2, 3] {
        let plan = FaultPlan::random(seed, k, k, &opts);
        let ctx = repro(seed, &plan);
        sort_on_all_backends(&plan, m, &cols(m, k, seed), &ctx);
    }
}
