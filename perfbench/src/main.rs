//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_trickle|serve_storm|sort_bulk|sim_sweep> \
//!     --seed <n> --seconds <s> --trace <0|1> [--smoke] [--corrupt]
//! ```
//!
//! With `--trace 0` it runs one workload for `--seconds`, checks every
//! output against a local oracle and prints the end-to-end metrics as the
//! last line of standard output. With `--trace 1` it times the calls into
//! each layer from this package's own files (see [`trace`]) and prints
//! the per-layer metrics instead: the named workload gets most of the
//! time, split into an untraced and a traced half (their difference is
//! the tracing overhead), and short traced legs of the other workloads
//! measure the layers the named one does not reach. Any wrong output
//! exits non-zero without printing a result. `--smoke` shrinks set-up
//! for the package's own tests; `--corrupt` tampers with one result
//! before the oracle sees it, which must make the run fail.

mod bulk;
mod serve;
mod sim;
mod stats;
mod trace;

use stats::{median, quantile, Metrics};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Set-up repetitions of a timed run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Share of a traced run's time spent on the named workload (half of it
/// untraced, half traced); the rest is split among the other workloads.
const TRACE_PRIMARY_SHARE: f64 = 0.6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeTrickle,
    ServeStorm,
    SortBulk,
    SimSweep,
}

const WORKLOADS: [Workload; 4] = [
    Workload::ServeTrickle,
    Workload::ServeStorm,
    Workload::SortBulk,
    Workload::SimSweep,
];

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::ServeTrickle => "serve_trickle",
            Workload::ServeStorm => "serve_storm",
            Workload::SortBulk => "sort_bulk",
            Workload::SimSweep => "sim_sweep",
        }
    }

    fn run(self, p: &Params) -> Result<Leg, String> {
        match self {
            Workload::ServeTrickle => serve::run(serve::Mode::Trickle, p),
            Workload::ServeStorm => serve::run(serve::Mode::Storm, p),
            Workload::SortBulk => bulk::run(p),
            Workload::SimSweep => sim::run(p),
        }
    }
}

/// Settings shared by every leg of one run.
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub setup_reps: usize,
    pub corrupt: bool,
    /// Journals and span files go here (inside the benchmark's directory).
    pub out_dir: PathBuf,
    /// Time zero of every span.
    pub epoch: Instant,
}

/// What one workload leg measured.
pub struct Leg {
    pub attempted: u64,
    pub done: u64,
    /// Failed plus shed ops (a wrong output is an error, not a failure).
    pub failed: u64,
    /// Duration of each set-up repetition.
    pub setup: Vec<Duration>,
    /// Latency of every completed op.
    pub latencies_ms: Vec<f64>,
    /// Measured wall time.
    pub wall: Duration,
    /// Per-layer metrics (traced legs only).
    pub layers: Metrics,
    pub tracer: Tracer,
    /// One human-readable line about the leg.
    pub note: String,
}

impl Leg {
    fn p50_ms(&self) -> f64 {
        median(&self.latencies_ms)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    corrupt: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut smoke, mut corrupt) = (false, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or(format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                });
            }
            "--smoke" => smoke = true,
            "--corrupt" => corrupt = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        smoke,
        corrupt,
    })
}

/// One untraced timed run: the end-to-end metrics.
fn timed(args: &Args, p: &Params) -> Result<(Metrics, u64, u64), String> {
    let leg = args.workload.run(p)?;
    let setup_s: Vec<f64> = leg.setup.iter().map(Duration::as_secs_f64).collect();
    let lat = &leg.latencies_ms;
    let mut m = Metrics::default();
    m.set("setup_s", "s", median(&setup_s));
    m.set("ops_per_s", "1/s", leg.done as f64 / leg.wall.as_secs_f64());
    m.set("op_p50_ms", "ms", median(lat));
    m.set("op_p90_ms", "ms", quantile(lat, 0.9));
    m.set(
        "ok_ratio",
        "ratio",
        leg.done as f64 / leg.attempted.max(1) as f64,
    );
    m.set("peak_rss_mb", "MiB", stats::peak_rss_mb());
    println!(
        "# {}: {} ops ({} done, {} failed or shed) in {:.3} s; fail_ratio {:.6}; \
         op_p99_ms {:.4} ms over {} samples; set-ups {:.4?} s; {}",
        args.workload.name(),
        leg.attempted,
        leg.done,
        leg.failed,
        leg.wall.as_secs_f64(),
        leg.failed as f64 / leg.attempted.max(1) as f64,
        quantile(lat, 0.99),
        lat.len(),
        setup_s,
        leg.note
    );
    Ok((m, leg.attempted, leg.failed))
}

/// The traced run: every per-layer metric, the named workload's tracing
/// overhead, and the spans written to `out/`.
fn traced(args: &Args, base: &Params) -> Result<(Metrics, u64, u64), String> {
    let primary = base.seconds * TRACE_PRIMARY_SHARE / 2.0;
    let other = base.seconds * (1.0 - TRACE_PRIMARY_SHARE) / (WORKLOADS.len() - 1) as f64;
    let leg_params = |traced: bool, seconds: f64| Params {
        seconds,
        traced,
        out_dir: base.out_dir.clone(),
        ..*base
    };
    let untraced = args.workload.run(&leg_params(false, primary))?;
    let mut layers = Metrics::default();
    let mut spans = Tracer::new(true, base.epoch);
    let (mut attempted, mut failed) = (untraced.attempted, untraced.failed);
    let mut overhead = 0.0;
    for w in WORKLOADS {
        let seconds = if w == args.workload { primary } else { other };
        let leg = w.run(&leg_params(true, seconds))?;
        if w == args.workload {
            overhead = 100.0 * (leg.p50_ms() - untraced.p50_ms()) / untraced.p50_ms();
        }
        println!("# traced {}: {} ops; {}", w.name(), leg.attempted, leg.note);
        attempted += leg.attempted;
        failed += leg.failed;
        for m in leg.layers.iter() {
            layers.set(m.name, m.unit, m.value);
        }
        spans.absorb(leg.tracer);
    }
    layers.set("trace.overhead_pct", "%", overhead);
    let path = base.out_dir.join(format!(
        "spans-{}-{}.jsonl",
        args.workload.name(),
        base.seed
    ));
    spans
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("# spans written to {}", path.display());
    Ok((layers, attempted, failed))
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let p = Params {
        seed: args.seed,
        seconds: args.seconds,
        traced: false,
        setup_reps: if args.smoke || args.trace {
            1
        } else {
            SETUP_REPS
        },
        corrupt: args.corrupt,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        epoch,
    };
    let result = if args.trace {
        traced(&args, &p)
    } else {
        timed(&args, &p)
    };
    match result {
        Ok((metrics, attempted, failed)) => {
            println!("{}", metrics.result_line(attempted, failed));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
