//! `sim_sweep`: a seeded sample of the covered 1- and 2-fault grids,
//! run plan by plan through [`SimTarget::run`].
//!
//! Two shapes: `select(p=4, k=2)`, whose whole 1- and 2-fault grid is
//! enumerated with the library's own enumerators (so enumeration cost is
//! part of set-up), and `select(p=8, k=4)`, whose single-fault grid is
//! enumerated and whose far larger pair grid is sampled atom pair by atom
//! pair under the same pruning rules. One op is one fault plan; every run
//! is faulted at tiny `p`, so census and per-run set-up dominate.

use crate::stats::{self, mean, median, Metrics};
use crate::trace::Tracer;
use crate::{Leg, Params};
use mcb_net::{FaultEvent, FaultPlan};
use mcb_rng::Rng64;
use mcb_sim::enumerate::atoms_for;
use mcb_sim::{single_fault_plans, two_fault_plans, EnumOpts, SimTarget, Verdict};
use std::time::Instant;

/// Sampled `select(p=8, k=4)` pair plans.
const WIDE_PAIRS: usize = 4096;
/// Plans run twice by the exact-count leg of a traced run.
const EXACT_PLANS: usize = 96;
/// The op mix, one class index per op, repeated: small singles, small
/// pairs, wide singles, wide pairs. Fixed proportions keep the median
/// inside one class whatever the seed.
const MIX: [usize; 8] = [1, 1, 1, 0, 1, 1, 3, 2];

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

/// May `a` and `b` share a plan the healing contract covers? The pruning
/// of [`two_fault_plans`]: earlier atom first, distinct surviving channels
/// and processors, no duplicate transients.
fn pair_ok(a: FaultEvent, b: FaultEvent, p: usize, k: usize) -> bool {
    if b.at() < a.at() || (b.at() == a.at() && b <= a) {
        return false;
    }
    match (a, b) {
        (FaultEvent::Death { chan: c1, .. }, FaultEvent::Death { chan: c2, .. }) => {
            c1 != c2 && k >= 3
        }
        (FaultEvent::Crash { proc: p1, .. }, FaultEvent::Crash { proc: p2, .. }) => {
            p1 != p2 && p >= 3
        }
        _ => a != b,
    }
}

fn sample_pairs(rng: &mut Rng64, target: &SimTarget, opts: &EnumOpts, n: usize) -> Vec<FaultPlan> {
    let (p, k) = (target.p(), target.k());
    let atoms = |horizon| -> Vec<FaultEvent> {
        opts.kinds
            .iter()
            .flat_map(|&kind| atoms_for(kind, p, k, horizon))
            .collect()
    };
    let (early, late) = (atoms(opts.horizon), atoms(opts.pair_horizon));
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let a = early[rng.random_range(0..early.len())];
        let b = late[rng.random_range(0..late.len())];
        if pair_ok(a, b, p, k) {
            out.push(FaultPlan::from_events(p, k, &[a, b]));
        }
    }
    out
}

/// The op stream's classes: (target, fault-free cycles `L`, plans).
struct Classes {
    targets: [SimTarget; 4],
    fault_free: [u64; 4],
    plans: [Vec<FaultPlan>; 4],
}

impl Classes {
    fn op(&self, i: usize) -> (usize, &FaultPlan) {
        let class = MIX[i % MIX.len()];
        let turn = i / MIX.len() * MIX.iter().filter(|&&c| c == class).count()
            + MIX[..i % MIX.len()].iter().filter(|&&c| c == class).count();
        let plans = &self.plans[class];
        (class, &plans[turn % plans.len()])
    }
}

/// Enumerate, sample and shuffle the plans (timed as `sim.plan_gen` /
/// `sim.fault_free` spans when tracing).
fn gen_classes(seed: u64, tracer: &mut Tracer) -> Classes {
    let mut rng = Rng64::seed_from_u64(seed);
    let (s, w) = (small(), wide());
    let ls = tracer.time("sim.fault_free", None, 0, || s.fault_free_cycles());
    let lw = tracer.time("sim.fault_free", None, 0, || w.fault_free_cycles());
    tracer.time("sim.plan_gen", None, 0, || {
        let (os, ow) = (EnumOpts::covered(ls, ls), EnumOpts::covered(lw, lw));
        let mut plans = [
            single_fault_plans(4, 2, &os),
            two_fault_plans(4, 2, &os),
            single_fault_plans(8, 4, &ow),
            sample_pairs(&mut rng, &w, &ow, WIDE_PAIRS),
        ];
        for class in &mut plans {
            rng.shuffle(class);
        }
        Classes {
            targets: [s, s, w, w],
            fault_free: [ls, ls, lw, lw],
            plans,
        }
    })
}

/// What one plan did, reduced to what must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Pass { cycles: u64, epochs: u64 },
    Typed,
    Overrun,
    Wrong,
}

fn classify(v: &Verdict) -> Kind {
    match v {
        Verdict::Pass(info) => Kind::Pass {
            cycles: info.cycles,
            epochs: info.epoch_cycles.len() as u64,
        },
        Verdict::TypedError(_) => Kind::Typed,
        Verdict::Overrun(_) => Kind::Overrun,
        Verdict::Wrong(_) => Kind::Wrong,
    }
}

/// The oracle: covered faults must never yield a wrong answer or a blown
/// cost contract.
fn check(v: &Verdict, plan: &FaultPlan, target: &SimTarget) -> Result<(), String> {
    match v {
        Verdict::Wrong(e) | Verdict::Overrun(e) => Err(format!(
            "{target}: covered plan violated the contract: {e}: {}",
            plan.to_jsonl()
        )),
        _ => Ok(()),
    }
}

pub fn run(p: &Params) -> Result<Leg, String> {
    let mut tracer = Tracer::new(p.traced, p.epoch);
    let mut setup = Vec::new();
    let mut classes = None;
    for _ in 0..p.setup_reps {
        let t0 = Instant::now();
        let c = gen_classes(p.seed, &mut tracer);
        // Warm-up: one plan of each class.
        for class in 0..4 {
            let plan = &c.plans[class][0];
            check(&c.targets[class].run(plan), plan, &c.targets[class])?;
        }
        setup.push(t0.elapsed());
        classes = Some(c);
    }
    let c = classes.ok_or("no set-up repetitions")?;

    let mut latencies_ms = Vec::new();
    let (mut epochs, mut extra) = (Vec::new(), Vec::new());
    let (mut done, mut typed) = (0u64, 0u64);
    let start = Instant::now();
    let mut i = 0usize;
    while i == 0 || start.elapsed().as_secs_f64() < p.seconds {
        let (class, plan) = c.op(i);
        let target = &c.targets[class];
        let t0 = Instant::now();
        let mut verdict = target.run(plan);
        let elapsed = t0.elapsed();
        tracer.record("sim.run", t0, t0 + elapsed, None, i as u64);
        if p.corrupt && i == 0 {
            verdict = Verdict::Wrong("deliberately corrupted verdict".into());
        }
        check(&verdict, plan, target)?;
        match classify(&verdict) {
            Kind::Pass { cycles, epochs: e } => {
                done += 1;
                latencies_ms.push(stats::ms(elapsed));
                epochs.push(e as f64);
                let l = c.fault_free[class];
                extra.push(cycles.saturating_sub(l) as f64 / l.max(1) as f64);
            }
            _ => typed += 1,
        }
        i += 1;
    }
    let wall = start.elapsed();

    let mut layers = Metrics::default();
    if p.traced {
        // Exact-count leg: the first plans of the stream, run twice, must
        // give identical verdicts, cycles and epochs.
        let pass = || -> Vec<Kind> {
            (0..EXACT_PLANS)
                .map(|i| {
                    let (class, plan) = c.op(i);
                    classify(&c.targets[class].run(plan))
                })
                .collect()
        };
        let first = pass();
        if pass() != first {
            return Err("exact-count leg: verdicts differ between passes".into());
        }
        let count = |f: fn(&Kind) -> bool| first.iter().filter(|k| f(k)).count() as f64;
        let median_of = |name, unit: fn(std::time::Duration) -> f64| -> f64 {
            median(
                &tracer
                    .durations(name)
                    .into_iter()
                    .map(unit)
                    .collect::<Vec<_>>(),
            )
        };
        layers.set(
            "sim.plan_gen_ms",
            "ms",
            median_of("sim.plan_gen", stats::ms),
        );
        layers.set(
            "sim.fault_free_us",
            "us",
            median_of("sim.fault_free", stats::us),
        );
        layers.set("sim.run_us", "us", median_of("sim.run", stats::us));
        layers.set("sim.epochs_per_plan", "count", mean(&epochs));
        layers.set("sim.extra_cycle_share", "ratio", mean(&extra));
        layers.set(
            "sim.verdict.pass",
            "count",
            count(|k| matches!(k, Kind::Pass { .. })),
        );
        layers.set("sim.verdict.typed", "count", count(|k| *k == Kind::Typed));
        layers.set(
            "sim.verdict.overrun",
            "count",
            count(|k| *k == Kind::Overrun),
        );
        layers.set("sim.verdict.wrong", "count", count(|k| *k == Kind::Wrong));
    }
    let sizes: Vec<usize> = c.plans.iter().map(Vec::len).collect();
    Ok(Leg {
        attempted: i as u64,
        done,
        failed: typed,
        setup,
        latencies_ms,
        wall,
        layers,
        tracer,
        note: format!(
            "plan pools (small singles, small pairs, wide singles, wide pairs) = {sizes:?}"
        ),
    })
}
