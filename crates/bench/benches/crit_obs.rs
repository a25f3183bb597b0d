//! E18 — observability overhead: phase labels and the live run monitor.
//!
//! Runs the same single-channel rank sort (2p cycles, 2p messages, as a
//! [`StepProtocol`]) on the vector backend at `p = 512` under four
//! instrumentation configurations:
//!
//! | config      | phase labels | monitor attached | monitor polled |
//! |-------------|--------------|------------------|----------------|
//! | `baseline`  | no           | no               | —              |
//! | `phased`    | yes          | no               | —              |
//! | `monitored` | yes          | yes              | no             |
//! | `polled`    | yes          | yes              | 1 kHz thread   |
//!
//! Three acceptance gates, recorded in `BENCH_obs.json` —
//! each one a ratio of two configs that differ in exactly *one*
//! dimension, so no gate is polluted by a neighbouring cost. The two
//! configs of a gate are sampled alternately in one loop (the order
//! flipped every pair), and the gate reads the median of the per-pair
//! ratios: a run of ~10 ms drifts by more than 5% over the seconds a
//! config-by-config sweep takes, and pairing cancels that drift instead
//! of measuring it:
//!
//! - **phase labels** — `phased` within **1.25×** of `baseline` (the
//!   pre-monitor criterion, kept: per-cycle phase attribution is the
//!   dominating observability cost on the vector backend).
//! - **monitor-off** — `monitored` within **1.05×** of `phased`, its
//!   exact no-monitor twin: an attached monitor that nobody polls is a
//!   handful of relaxed atomic adds per message and one publish per
//!   round, and must be close to free.
//! - **monitor-on** — `polled` within **1.25×** of `phased`: the full
//!   live-dashboard configuration, snapshots taken from another thread
//!   at 1 kHz for the whole run.
//!
//! Emits `target/experiments/crit_obs.csv` and refreshes the checked-in
//! `BENCH_obs.json` at the repository root (integer-only JSON — ratios
//! are in milli-units — so `bench_gate` can re-parse it with `mcb-json`).
//! Set `MCB_BENCH_QUICK=1` for a fast development run at `p = 128` (no
//! JSON refresh).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use mcb_bench::timing::{fmt_duration, time_once, Stats};
use mcb_bench::Table;
use mcb_json::Json;
use mcb_net::{
    Backend, ChanId, FrameRead, Network, ProcId, RunMonitor, Step, StepEnv, StepProtocol,
};

/// Single-channel rank sort (see `crit_net` for the protocol), optionally
/// labelling its two stages as phases.
struct RankSort {
    key: u64,
    turn: usize,
    rank: usize,
    out: u64,
    label_phases: bool,
}

impl RankSort {
    fn new(id: ProcId, label_phases: bool) -> Self {
        let key = (id.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        RankSort {
            key,
            turn: 0,
            rank: 0,
            out: 0,
            label_phases,
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
        if self.label_phases && (self.turn == 0 || self.turn == p) {
            env.phase(if self.turn == 0 {
                "rs:census"
            } else {
                "rs:deliver"
            });
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

#[derive(Clone, Copy, PartialEq, Eq)]
enum Monitoring {
    Off,
    Attached,
    Polled,
}

#[derive(Clone, Copy)]
struct Config {
    name: &'static str,
    phases: bool,
    monitor: Monitoring,
}

const CONFIGS: [Config; 4] = [
    Config {
        name: "baseline",
        phases: false,
        monitor: Monitoring::Off,
    },
    Config {
        name: "phased",
        phases: true,
        monitor: Monitoring::Off,
    },
    Config {
        name: "monitored",
        phases: true,
        monitor: Monitoring::Attached,
    },
    Config {
        name: "polled",
        phases: true,
        monitor: Monitoring::Polled,
    },
];

/// The backend measured, and its name in the gates and the JSON rows.
const BACKEND: (Backend, &str) = (Backend::Vector, "vector");

/// Gates, in milli-units (mirrored by `bench_gate`): phase labels within
/// 1.25× of baseline; monitor-off (attached, unpolled) within 1.05× and
/// monitor-on (polled at 1 kHz) within 1.25× of `phased`, the config that
/// differs from each only by the monitor.
const GATE_PHASE_MILLI: u64 = 1250;
const GATE_OFF_MILLI: u64 = 1050;
const GATE_ON_MILLI: u64 = 1250;

fn run_once(p: usize, backend: Backend, cfg: Config, monitor: Option<&RunMonitor>) -> u64 {
    let mut net = Network::new(p, 1).backend(backend);
    if let Some(mon) = monitor {
        net = net.monitor(mon);
    }
    let report = net.run_steps(|id| RankSort::new(id, cfg.phases)).unwrap();
    assert_eq!(report.metrics.messages, 2 * p as u64);
    if cfg.phases {
        assert_eq!(
            report.metrics.phases.len(),
            2,
            "expected rs:census+rs:deliver"
        );
    }
    report.metrics.cycles
}

struct Row {
    config: Config,
    stats: Stats,
    /// `median / backend baseline median`, in milli-units.
    vs_baseline_milli: u64,
}

fn milli_ratio(s: &Stats, base: &Stats) -> u64 {
    let b = base.median.as_nanos().max(1);
    (s.median.as_nanos() * 1000 / b) as u64
}

/// One config's runs: the monitor it attaches, and a 1 kHz dashboard
/// thread that snapshots the monitor only while this config's sample is
/// being timed (it sleeps through its twin's samples).
struct Runner {
    cfg: Config,
    monitor: Option<RunMonitor>,
    polling: Arc<AtomicBool>,
}

impl Runner {
    fn new(cfg: Config) -> Self {
        Runner {
            cfg,
            monitor: (cfg.monitor != Monitoring::Off).then(RunMonitor::new),
            polling: Arc::new(AtomicBool::new(false)),
        }
    }

    fn time(&self, p: usize) -> Duration {
        let polled = self.cfg.monitor == Monitoring::Polled;
        self.polling.store(polled, Ordering::Release);
        let t = time_once(|| run_once(p, BACKEND.0, self.cfg, self.monitor.as_ref()));
        self.polling.store(false, Ordering::Release);
        t
    }
}

/// Sample `a` and `b` alternately, `pairs` times each, flipping which goes
/// first every pair. Returns both configs' stats and the median of the
/// per-pair `a / b` ratios, in milli-units.
fn measure_pair(p: usize, pairs: usize, a: &Runner, b: &Runner) -> (Stats, Stats, u64) {
    a.time(p);
    b.time(p);
    let (mut ta, mut tb, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..pairs {
        let (x, y) = if i % 2 == 0 {
            let x = a.time(p);
            (x, b.time(p))
        } else {
            let y = b.time(p);
            (a.time(p), y)
        };
        ratios.push((x.as_nanos() * 1000 / y.as_nanos().max(1)) as u64);
        ta.push(x);
        tb.push(y);
    }
    ratios.sort_unstable();
    let ratio = ratios[(ratios.len() - 1) / 2];
    (Stats::from_samples(ta), Stats::from_samples(tb), ratio)
}

fn main() {
    let quick = std::env::var_os("MCB_BENCH_QUICK").is_some();
    let p = if quick { 128 } else { 512 };
    let pairs = if quick { 3 } else { 17 };

    let mut table = Table::new(
        "crit_obs",
        format!("E18: observability overhead, rank sort p={p} (2p cycles), monitor on/off"),
        &["backend", "config", "median", "mean", "vs baseline"],
    );
    let (_, bname) = BACKEND;
    let [baseline, phased, monitored, polled] = CONFIGS.map(Runner::new);
    // A dashboard on another thread, snapshotting at 1 kHz while a polled
    // sample runs.
    let stop = Arc::new(AtomicBool::new(false));
    let poller = {
        let (mon, polling, stop) = (
            polled.monitor.clone().expect("polled config has a monitor"),
            polled.polling.clone(),
            stop.clone(),
        );
        thread::spawn(move || {
            let mut polls = 0u64;
            while !stop.load(Ordering::Acquire) {
                if polling.load(Ordering::Acquire) {
                    std::hint::black_box(mon.snapshot());
                    polls += 1;
                }
                thread::sleep(Duration::from_millis(1));
            }
            polls
        })
    };
    // Each gate's twins, sampled pairwise.
    let (s_phased, s_baseline, labels) = measure_pair(p, pairs, &phased, &baseline);
    let (s_monitored, _, off) = measure_pair(p, pairs, &monitored, &phased);
    let (s_polled, _, on) = measure_pair(p, pairs, &polled, &phased);
    stop.store(true, Ordering::Release);
    let polls = poller.join().expect("poller thread");
    assert!(polls > 0, "the dashboard never got a snapshot in");

    let rows: Vec<Row> = [
        (baseline.cfg, s_baseline),
        (phased.cfg, s_phased),
        (monitored.cfg, s_monitored),
        (polled.cfg, s_polled),
    ]
    .into_iter()
    .map(|(config, stats)| Row {
        config,
        stats,
        vs_baseline_milli: milli_ratio(&stats, &s_baseline),
    })
    .collect();

    for r in &rows {
        table.row(vec![
            bname.into(),
            r.config.name.into(),
            fmt_duration(r.stats.median),
            fmt_duration(r.stats.mean),
            format!(
                "{}.{:03}x",
                r.vs_baseline_milli / 1000,
                r.vs_baseline_milli % 1000
            ),
        ]);
    }
    table.emit();

    let gates = eval_gates(labels, off, on);
    for g in &gates {
        println!(
            "[gate] {}: {}.{:03}x vs gate {}.{:03}x -> {}",
            g.name,
            g.ratio_milli / 1000,
            g.ratio_milli % 1000,
            g.gate_milli / 1000,
            g.gate_milli % 1000,
            if g.pass { "pass" } else { "FAIL" }
        );
    }

    if !quick {
        write_bench_json(p, &rows, &gates);
    }
}

struct Gate {
    name: String,
    ratio_milli: u64,
    gate_milli: u64,
    pass: bool,
}

/// The three gates from their per-pair median ratios (milli-units). Each
/// compares two configs differing in exactly one dimension: labels vs
/// none, then monitor vs the labelled twin.
fn eval_gates(labels: u64, off: u64, on: u64) -> Vec<Gate> {
    let (_, bname) = BACKEND;
    [
        ("phase labels", labels, GATE_PHASE_MILLI),
        ("monitor-off", off, GATE_OFF_MILLI),
        ("monitor-on", on, GATE_ON_MILLI),
    ]
    .into_iter()
    .map(|(what, ratio_milli, gate_milli)| Gate {
        name: format!("{bname} {what}"),
        ratio_milli,
        gate_milli,
        pass: ratio_milli <= gate_milli,
    })
    .collect()
}

/// Refresh the checked-in `BENCH_obs.json` acceptance artifact.
///
/// Integer-only (durations in µs, ratios in milli-units) and rendered by
/// `mcb-json`, so `bench_gate` — and anything else in the workspace — can
/// parse it back without a float parser.
fn write_bench_json(p: usize, rows: &[Row], gates: &[Gate]) {
    let epoch = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let results: Vec<Json> = rows
        .iter()
        .map(|r| {
            Json::obj()
                .field("backend", BACKEND.1)
                .field("config", r.config.name)
                .field("phases", r.config.phases)
                .field("monitor", r.config.monitor != Monitoring::Off)
                .field("polled", r.config.monitor == Monitoring::Polled)
                .field("median_us", r.stats.median.as_micros() as u64)
                .field("mean_us", r.stats.mean.as_micros() as u64)
                .field("samples", r.stats.samples as u64)
                .field("vs_baseline_milli", r.vs_baseline_milli)
        })
        .collect();
    let acceptance: Vec<Json> = gates
        .iter()
        .map(|g| {
            Json::obj()
                .field("gate", g.name.as_str())
                .field("ratio_milli", g.ratio_milli)
                .field("gate_milli", g.gate_milli)
                .field("pass", g.pass)
        })
        .collect();
    let json = Json::obj()
        .field("bench", "crit_obs (E18)")
        .field("command", "cargo bench -p mcb-bench --bench crit_obs")
        .field(
            "protocol",
            format!("single-channel rank sort as StepProtocol, p={p}"),
        )
        .field("unix_time", epoch)
        .field("host_cores", cores as u64)
        .field("results", Json::Arr(results))
        .field("acceptance", Json::Arr(acceptance))
        .field("pass", gates.iter().all(|g| g.pass))
        .render();

    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("BENCH_obs.json");
    match std::fs::write(&path, json + "\n") {
        Ok(()) => println!("[json written to {}]", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
