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
//! dimension, so no gate is polluted by a neighbouring cost:
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

use mcb_bench::timing::{fmt_duration, measure, Stats};
use mcb_bench::Table;
use mcb_json::Json;
use mcb_net::{Backend, ChanId, Network, ProcId, RunMonitor, Step, StepEnv, StepProtocol};

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

    fn step(&mut self, env: &StepEnv, input: Option<u64>) -> Step<u64, u64> {
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

fn main() {
    let quick = std::env::var_os("MCB_BENCH_QUICK").is_some();
    let p = if quick { 128 } else { 512 };
    let samples = if quick { 3 } else { 17 };

    let mut table = Table::new(
        "crit_obs",
        format!("E18: observability overhead, rank sort p={p} (2p cycles), monitor on/off"),
        &["backend", "config", "median", "mean", "vs baseline"],
    );
    let (backend, bname) = BACKEND;
    let mut rows: Vec<Row> = Vec::new();
    let mut base: Option<Stats> = None;
    for cfg in CONFIGS {
        let stats = match cfg.monitor {
            Monitoring::Off => measure(samples, || run_once(p, backend, cfg, None)),
            Monitoring::Attached => {
                let mon = RunMonitor::new();
                measure(samples, || run_once(p, backend, cfg, Some(&mon)))
            }
            Monitoring::Polled => {
                // A dashboard on another thread, snapshotting at 1 kHz
                // for the whole measurement window.
                let mon = RunMonitor::new();
                let stop = Arc::new(AtomicBool::new(false));
                let poller = {
                    let (mon, stop) = (mon.clone(), stop.clone());
                    thread::spawn(move || {
                        let mut polls = 0u64;
                        while !stop.load(Ordering::Acquire) {
                            std::hint::black_box(mon.snapshot());
                            polls += 1;
                            thread::sleep(Duration::from_millis(1));
                        }
                        polls
                    })
                };
                let stats = measure(samples, || run_once(p, backend, cfg, Some(&mon)));
                stop.store(true, Ordering::Release);
                let polls = poller.join().expect("poller thread");
                assert!(polls > 0, "the dashboard never got a snapshot in");
                stats
            }
        };
        let baseline = *base.get_or_insert(stats);
        rows.push(Row {
            config: cfg,
            stats,
            vs_baseline_milli: milli_ratio(&stats, &baseline),
        });
    }

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

    let gates = eval_gates(&rows);
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

fn eval_gates(rows: &[Row]) -> Vec<Gate> {
    let (_, bname) = BACKEND;
    let stats = |config: &str| {
        rows.iter()
            .find(|r| r.config.name == config)
            .map(|r| r.stats)
            .expect("every config is measured")
    };
    let baseline = stats("baseline");
    let phased = stats("phased");
    // Each gate compares two configs differing in exactly one dimension:
    // labels vs none, then monitor vs the labelled twin.
    let labels = milli_ratio(&phased, &baseline);
    let off = milli_ratio(&stats("monitored"), &phased);
    let on = milli_ratio(&stats("polled"), &phased);
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
