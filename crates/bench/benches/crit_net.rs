//! E12c — threaded vs vector backend wall-clock comparison.
//!
//! Runs the same single-channel rank sort (paper §5 flavor: broadcast every
//! key, count smaller keys, then emit in rank order — `2p` cycles, `2p`
//! messages, one channel) on both execution backends, in two legs:
//!
//! * **Step leg** — the sort as a [`StepProtocol`], timed as `p` grows.
//!   The threaded backend pays for `p` OS threads crossing three barriers
//!   per cycle; the vector backend sweeps struct-of-arrays state from one
//!   thread, the regime E17 (`crit_vector`, `BENCH_vector.json`) explores
//!   up to `p = 2^20`. The threaded row stops at `p = 512` (every run
//!   starts `p` OS threads); the vector row goes on to `p = 2048`. The
//!   acceptance gate: vector at least 5x faster than threaded at
//!   `p = 512`.
//! * **Closure leg** — the sort as a [`ProcCtx`] closure at the shapes the
//!   closure workloads run (`p` = 4 and 8 as in fault sweeps, 16, 37 as in
//!   a full service batch, and 64): one OS thread per processor against
//!   the vector backend's fiber driver. Wall-clock only, no gate; it
//!   locates the crossover between the two closure executors.
//!
//! Emits `target/experiments/crit_net.csv` (both legs) and refreshes the
//! checked-in `BENCH_backend.json` at the repository root (the acceptance
//! artifact). Set `MCB_BENCH_QUICK=1` for a shorter step leg
//! (`p = 64, 256`) that leaves the JSON alone.

use std::time::Duration;

use mcb_bench::timing::{fmt_duration, measure, Stats};
use mcb_bench::Table;
use mcb_net::{
    Backend, ChanId, FrameRead, Network, ProcCtx, ProcId, RunReport, Step, StepEnv, StepProtocol,
};

/// Largest `p` the threaded step leg runs at.
const THREADED_MAX_P: usize = 512;

/// Processor `id`'s key. Odd-multiplier hash: bijective on u64, so keys
/// are distinct and the rank order is a nontrivial permutation of the id
/// order.
fn key_of(id: ProcId) -> u64 {
    (id.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Single-channel rank sort over one key per processor, as a state machine.
///
/// Phase 1 (cycles `0..p`): processor `t` broadcasts its key in cycle `t`;
/// everyone counts how many keys beat theirs. Phase 2 (cycles `p..2p`): the
/// processor whose key has rank `t - p` broadcasts in cycle `t`; processor
/// `i` keeps the key announced in cycle `p + i`, so the results vector is
/// the sorted sequence.
struct RankSort {
    key: u64,
    /// Next cycle index this machine will request (0..2p).
    turn: usize,
    /// Number of keys strictly smaller than ours seen so far.
    rank: usize,
    /// The sorted key this processor ends up holding.
    out: u64,
}

impl RankSort {
    fn new(id: ProcId) -> Self {
        RankSort {
            key: key_of(id),
            turn: 0,
            rank: 0,
            out: 0,
        }
    }
}

impl StepProtocol<u64> for RankSort {
    type Output = u64;

    fn step(&mut self, env: &StepEnv, input: FrameRead<u64>) -> Step<u64, u64> {
        let input = input.clean();
        let p = env.p;
        if let Some(seen) = input {
            let prev = self.turn - 1;
            if prev < p {
                if seen < self.key {
                    self.rank += 1;
                }
            } else if prev - p == env.id.index() {
                self.out = seen;
            }
        }
        if self.turn == 2 * p {
            return Step::Done(self.out);
        }
        let t = self.turn;
        self.turn += 1;
        let my_slot = if t < p { env.id.index() } else { p + self.rank };
        let write = (t == my_slot).then_some((ChanId(0), self.key));
        Step::Yield {
            write,
            read: Some(ChanId(0)),
        }
    }
}

/// The same rank sort as a closure: same cycles, same messages.
fn rank_sort_closure(ctx: &mut ProcCtx<'_, u64>) -> u64 {
    let (p, me) = (ctx.p(), ctx.id().index());
    let key = key_of(ctx.id());
    let mut rank = 0;
    for t in 0..p {
        let write = (t == me).then_some((ChanId(0), key));
        if ctx
            .cycle(write, Some(ChanId(0)))
            .is_some_and(|seen| seen < key)
        {
            rank += 1;
        }
    }
    let mut out = 0;
    for t in 0..p {
        let write = (t == rank).then_some((ChanId(0), key));
        let seen = ctx.cycle(write, Some(ChanId(0)));
        if t == me {
            out = seen.expect("the rank-t holder broadcasts in cycle p + t");
        }
    }
    out
}

/// Check one run's costs and output, and hand back the sorted keys.
fn sorted_keys(p: usize, report: RunReport<u64, u64>) -> Vec<u64> {
    assert_eq!(report.metrics.cycles, 2 * p as u64);
    assert_eq!(report.metrics.messages, 2 * p as u64);
    let keys = report.into_results();
    assert!(keys.windows(2).all(|w| w[0] <= w[1]), "output not sorted");
    keys
}

fn steps_once(p: usize, backend: Backend) -> Vec<u64> {
    let report = Network::new(p, 1)
        .backend(backend)
        .run_steps(RankSort::new)
        .unwrap();
    sorted_keys(p, report)
}

fn closures_once(p: usize, backend: Backend) -> Vec<u64> {
    let report = Network::new(p, 1)
        .backend(backend)
        .run(rank_sort_closure)
        .unwrap();
    sorted_keys(p, report)
}

/// One `p` of either leg: threaded (when run) and vector timings.
struct Measurement {
    p: usize,
    threaded: Option<Stats>,
    vector: Stats,
}

impl Measurement {
    fn speedup(&self) -> Option<f64> {
        self.threaded.as_ref().map(|t| self.vector.speedup_over(t))
    }
}

fn main() {
    let quick = std::env::var_os("MCB_BENCH_QUICK").is_some();
    let step_ps: &[usize] = if quick { &[64, 256] } else { &[64, 512, 2048] };
    let closure_ps: &[usize] = &[4, 8, 16, 37, 64];

    // Correctness gate before timing anything: both forms on both backends
    // produce the same sorted sequence.
    let want = steps_once(64, Backend::Threaded);
    for backend in [Backend::Threaded, Backend::Vector] {
        assert_eq!(steps_once(64, backend), want, "{backend:?} steps");
        assert_eq!(closures_once(64, backend), want, "{backend:?} closures");
    }

    let mut steps = Vec::new();
    for &p in step_ps {
        let threaded =
            (p <= THREADED_MAX_P).then(|| measure(3, || steps_once(p, Backend::Threaded)));
        let vector = measure(5, || steps_once(p, Backend::Vector));
        steps.push(Measurement {
            p,
            threaded,
            vector,
        });
    }
    let mut closures = Vec::new();
    for &p in closure_ps {
        let threaded = measure(5, || closures_once(p, Backend::Threaded));
        let vector = measure(5, || closures_once(p, Backend::Vector));
        closures.push(Measurement {
            p,
            threaded: Some(threaded),
            vector,
        });
    }

    let mut table = Table::new(
        "crit_net",
        "E12c: threaded vs vector backend, single-channel rank sort (2p cycles)",
        &["form", "p", "backend", "median", "mean", "speedup"],
    );
    for (form, rows) in [("step", &steps), ("closure", &closures)] {
        for m in rows {
            if let Some(t) = &m.threaded {
                table.row(vec![
                    form.into(),
                    m.p.to_string(),
                    "threaded".into(),
                    fmt_duration(t.median),
                    fmt_duration(t.mean),
                    "1.00".into(),
                ]);
            }
            table.row(vec![
                form.into(),
                m.p.to_string(),
                "vector".into(),
                fmt_duration(m.vector.median),
                fmt_duration(m.vector.mean),
                m.speedup().map_or("-".into(), |s| format!("{s:.2}")),
            ]);
        }
    }
    table.emit();

    if !quick {
        write_bench_json(&steps, &closures);
    }
}

/// Refresh the checked-in `BENCH_backend.json` acceptance artifact.
fn write_bench_json(steps: &[Measurement], closures: &[Measurement]) {
    let secs = |d: Duration| format!("{:.6}", d.as_secs_f64());
    let epoch = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let rows = |ms: &[Measurement]| {
        ms.iter()
            .map(|m| {
                let (t_s, t_n) = m
                    .threaded
                    .as_ref()
                    .map_or(("null".into(), 0), |t| (secs(t.median), t.samples));
                format!(
                    concat!(
                        "    {{\"p\": {}, \"cycles\": {}, ",
                        "\"threaded_median_s\": {}, \"threaded_samples\": {}, ",
                        "\"vector_median_s\": {}, \"vector_samples\": {}, ",
                        "\"vector_speedup\": {}}}"
                    ),
                    m.p,
                    2 * m.p,
                    t_s,
                    t_n,
                    secs(m.vector.median),
                    m.vector.samples,
                    m.speedup().map_or("null".into(), |s| format!("{s:.2}")),
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let gate = steps
        .iter()
        .find(|m| m.p == THREADED_MAX_P)
        .and_then(Measurement::speedup)
        .unwrap_or(0.0);
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"crit_net (E12c)\",\n",
            "  \"command\": \"cargo bench -p mcb-bench --bench crit_net\",\n",
            "  \"protocol\": \"single-channel rank sort, 2p cycles, 2p messages, as a StepProtocol (steps) and as a ProcCtx closure (closures)\",\n",
            "  \"unix_time\": {epoch},\n",
            "  \"host_cores\": {cores},\n",
            "  \"steps\": [\n{steps}\n  ],\n",
            "  \"closures\": [\n{closures}\n  ],\n",
            "  \"acceptance\": {{\n",
            "    \"criterion\": \"vector >= 5x faster than threaded at p = {cap} (steps)\",\n",
            "    \"measured_speedup\": {gate:.2},\n",
            "    \"pass\": {pass}\n",
            "  }}\n",
            "}}\n"
        ),
        epoch = epoch,
        cores = cores,
        steps = rows(steps),
        closures = rows(closures),
        cap = THREADED_MAX_P,
        gate = gate,
        pass = gate >= 5.0,
    );
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("BENCH_backend.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("[json written to {}]", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
