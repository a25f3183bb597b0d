//! `sort_bulk`: repeated networked Columnsort on the vector backend.
//!
//! E17's shape — `p = 10^5` processors, a `1024 × 32` padded matrix on
//! 32 channels — through [`columnsort_steps`] on [`Backend::Vector`]. It
//! bypasses `mcb-serve`, `heal` and the closure (fiber) executor
//! entirely, so changes there should leave it unchanged; vector-engine
//! changes show only here. One op is one full sort.

use crate::stats::{self, median, Metrics};
use crate::trace::Tracer;
use crate::{Leg, Params};
use mcb_algos::{columnsort_schedules, columnsort_steps};
use mcb_net::Backend;
use mcb_rng::Rng64;
use std::time::Instant;

const P: usize = 100_000;
const M: usize = 1024;
const K_COLS: usize = 32;
/// Distinct seeded inputs; ops cycle through them.
const INPUTS: usize = 3;
/// One slot in this many is a dummy (`None`).
const DUMMY_ONE_IN: u64 = 17;

/// A seeded padded matrix plus the oracle's view of it: its real keys,
/// descending.
struct Input {
    cols: Vec<Vec<Option<u64>>>,
    want: Vec<u64>,
}

fn gen_input(rng: &mut Rng64) -> Input {
    let cols: Vec<Vec<Option<u64>>> = (0..K_COLS)
        .map(|_| {
            (0..M)
                .map(|_| {
                    let key = rng.next_u64();
                    (rng.random_range(0..DUMMY_ONE_IN) != 0).then_some(key)
                })
                .collect()
        })
        .collect();
    let mut want: Vec<u64> = cols.iter().flatten().filter_map(|x| *x).collect();
    want.sort_unstable_by(|a, b| b.cmp(a));
    Input { cols, want }
}

/// What one sort produced: its real keys in output order, and the model
/// counts (rounds, messages).
struct Sorted {
    keys: Vec<u64>,
    counts: (u64, u64),
}

fn sort_once(input: &Input) -> Result<Sorted, String> {
    let report = columnsort_steps(P, M, K_COLS, input.cols.clone(), Backend::Vector)
        .map_err(|e| format!("columnsort_steps failed: {e}"))?;
    let counts = (report.metrics.cycles, report.metrics.messages);
    let keys = report
        .into_results()
        .into_iter()
        .flatten()
        .flatten()
        .flatten()
        .collect();
    Ok(Sorted { keys, counts })
}

/// The oracle: descending, and a permutation of the input's real keys
/// (equal to the input sorted descending, which implies both).
fn check(sorted: &Sorted, input: &Input) -> Result<(), String> {
    if let Some(w) = sorted.keys.windows(2).position(|w| w[0] < w[1]) {
        return Err(format!("sort output ascends at position {w}"));
    }
    if sorted.keys != input.want {
        return Err(format!(
            "sort output is not a permutation of its input: {} keys out, {} in",
            sorted.keys.len(),
            input.want.len()
        ));
    }
    Ok(())
}

pub fn run(p: &Params) -> Result<Leg, String> {
    let mut setup = Vec::new();
    let mut inputs = Vec::new();
    for _ in 0..p.setup_reps {
        let t0 = Instant::now();
        let mut rng = Rng64::seed_from_u64(p.seed);
        inputs = (0..INPUTS).map(|_| gen_input(&mut rng)).collect();
        // Warm-up: one full sort, checked, so lazy set-up is paid here.
        check(&sort_once(&inputs[0])?, &inputs[0])?;
        setup.push(t0.elapsed());
    }

    let mut tracer = Tracer::new(p.traced, p.epoch);
    let mut latencies_ms = Vec::new();
    let (mut schedule_ms, mut run_ms, mut ns_per_round) = (Vec::new(), Vec::new(), Vec::new());
    let mut counts: Vec<Option<(u64, u64)>> = vec![None; INPUTS];
    let mut done = 0u64;
    let start = Instant::now();
    while done == 0 || start.elapsed().as_secs_f64() < p.seconds {
        let which = done as usize % INPUTS;
        let input = &inputs[which];
        if p.traced {
            let t0 = Instant::now();
            std::hint::black_box(columnsort_schedules(M, K_COLS));
            let t1 = Instant::now();
            tracer.record("columnsort.schedules", t0, t1, None, done);
            schedule_ms.push(stats::ms(t1 - t0));
        }
        let t0 = Instant::now();
        let mut sorted = sort_once(input)?;
        let t1 = Instant::now();
        if p.corrupt && done == 0 {
            sorted.keys.swap(0, 1);
        }
        let checked = check(&sorted, input);
        let t2 = Instant::now();
        let root = tracer.record("sort.op", t0, t2, None, done);
        tracer.record("vector.run", t0, t1, root, done);
        tracer.record("sort.check", t1, t2, root, done);
        checked?;
        let elapsed = t1 - t0;
        if p.traced {
            run_ms.push(stats::ms(elapsed));
            ns_per_round.push(elapsed.as_nanos() as f64 / sorted.counts.0.max(1) as f64);
            // Exact-count leg: every sort of the same input must repeat
            // its rounds and messages exactly.
            match counts[which] {
                Some(c) if c != sorted.counts => {
                    return Err(format!(
                        "exact-count leg: input {which} gave {:?}, earlier {c:?}",
                        sorted.counts
                    ))
                }
                _ => counts[which] = Some(sorted.counts),
            }
        }
        latencies_ms.push(stats::ms(elapsed));
        done += 1;
    }
    let wall = start.elapsed();

    let mut layers = Metrics::default();
    if p.traced {
        // Make sure the exact-count leg compared at least one repeat.
        let again = sort_once(&inputs[0])?;
        if counts[0].is_some_and(|c| c != again.counts) {
            return Err(format!(
                "exact-count leg: input 0 gave {:?}, earlier {:?}",
                again.counts, counts[0]
            ));
        }
        let (rounds, messages) = again.counts;
        layers.set("columnsort.schedule_ms", "ms", median(&schedule_ms));
        layers.set("vector.run_ms", "ms", median(&run_ms));
        layers.set("vector.ns_per_round", "ns", median(&ns_per_round));
        layers.set("vector.rounds", "count", rounds as f64);
        layers.set("vector.messages", "count", messages as f64);
    }
    Ok(Leg {
        attempted: done,
        done,
        failed: 0,
        setup,
        latencies_ms,
        wall,
        layers,
        tracer,
        note: format!("p={P} m={M} k_cols={K_COLS}, {INPUTS} seeded inputs"),
    })
}
