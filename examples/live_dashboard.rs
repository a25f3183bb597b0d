//! Live run monitor, in two acts.
//!
//! **Act 1 — the dashboard:** a large self-healing Columnsort with a
//! mid-run channel death and a processor crash, watched *from outside*:
//! the run executes on its own thread while this one polls the attached
//! [`RunMonitor`] and redraws an ASCII dashboard — progress counters,
//! per-phase breakdown, a channel-utilization sparkline, and the
//! fault/epoch event ticker — every frame a coherent snapshot of a run
//! still in flight.
//!
//! **Act 2 — the flight recorder:** a smaller healed run with the wire
//! trace on, exported as a Chrome `trace_event` JSON. Load the file in
//! [ui.perfetto.dev](https://ui.perfetto.dev): phases are spans on the
//! `phases` track, faults and epoch commits are instants on the `events`
//! track, and every delivered message is a slice on its channel's track.
//! The export is re-parsed and cross-checked against the run report
//! before the example exits.
//!
//! The backend follows `MCB_BACKEND=threaded|vector` (default `vector` —
//! the monitor's home turf is big single-threaded runs); any other value
//! exits non-zero, as the engine's `Backend::Auto` would reject it.
//! `--ci` shrinks the shapes, skips the interactive redraw, and exits
//! non-zero unless the exported trace parses and accounts for every
//! phase span, fault instant, and epoch instant in the report.
//!
//! ```text
//! cargo run --release --example live_dashboard [-- --ci]
//! ```

use std::fmt::Write as _;
use std::io::IsTerminal;
use std::thread;
use std::time::Duration;

use mcb::algos::heal::{run_program_in, ColumnsortProgram, SelfHealing};
use mcb::net::{
    validate_chrome_trace, AsyncStep, Backend, ChanId, EpochCtx, EpochOpts, FaultPlan,
    MonitorSnapshot, MonitorState, Network, ProcId, RunMonitor,
};
use mcb::workloads::{distinct_keys, rng};

const SPARK: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// The CI matrix steers the example through the same env var the engine's
/// `Backend::Auto` consults, parsed by the same function; unset means the
/// vector backend.
fn backend_leg() -> (Backend, &'static str) {
    let backend = match std::env::var_os("MCB_BACKEND") {
        None => Backend::Vector,
        Some(v) => Backend::from_env_value(&v.to_string_lossy()).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        }),
    };
    match backend {
        Backend::Threaded => (backend, "threaded"),
        _ => (backend, "vector"),
    }
}

/// One dashboard frame, as plain text (the caller handles redraw).
fn render(snap: &MonitorSnapshot, p: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "state {:<8} cycle {:<8} messages {:<9} bits {:<10} finished {}/{p}",
        snap.state.as_str(),
        snap.cycle,
        snap.messages,
        snap.total_bits,
        snap.finished,
    );
    let _ = writeln!(
        out,
        "  {:<20} {:>9} {:>11}   cycles",
        "phase", "messages", "bits"
    );
    for ph in &snap.phases {
        let _ = writeln!(
            out,
            "  {:<20} {:>9} {:>11}   {}..{}",
            ph.name, ph.messages, ph.total_bits, ph.first_cycle, ph.last_cycle
        );
    }
    // Channel utilization: most recent window samples, scaled to the
    // busiest visible window.
    let tail: &[u64] = &snap.util[snap.util.len().saturating_sub(64)..];
    let peak = tail.iter().copied().max().unwrap_or(0).max(1);
    let spark: String = tail
        .iter()
        .map(|&v| SPARK[(v as usize * (SPARK.len() - 1)).div_ceil(peak as usize)])
        .collect();
    let _ = writeln!(
        out,
        "  util [{spark}] peak {peak} msgs / {} cycles",
        snap.window
    );
    for ev in snap.events.iter().rev().take(4).rev() {
        let _ = writeln!(out, "  ! cycle {:<8} {}", ev.cycle, ev.label);
    }
    out
}

fn main() {
    let ci = std::env::args().any(|a| a == "--ci");
    let (backend, leg) = backend_leg();
    let interactive = !ci && std::io::stdout().is_terminal();

    // -- Act 1: dashboard over a healing chaos run -------------------------
    // The shape satisfies §5.1 (m >= k(k-1), k | m); the channel dies
    // early and the processor crashes mid-run, so the dashboard catches
    // both reconfigurations live.
    let (m, k) = if ci {
        (60usize, 6usize)
    } else {
        (504usize, 8usize)
    };
    let l_est = mcb::algos::sort::columnsort_net_cycles(m, k);
    let plan = FaultPlan::new(k, k)
        .kill_channel(ChanId::from_index(k - 2), l_est / 4)
        .crash_proc(ProcId::from_index(k - 1), l_est / 2);
    let vals = distinct_keys(m * k, &mut rng(1985));
    let cols: Vec<Vec<Option<u64>>> = (0..k)
        .map(|c| vals[c * m..(c + 1) * m].iter().map(|&v| Some(v)).collect())
        .collect();

    println!("== act 1: dashboard — self-healing Columnsort on MCB({k}, {k}), {leg} backend ==");
    println!(
        "plan: channel {} dies at cycle {}, processor {} crashes at cycle {}",
        k - 2,
        l_est / 4,
        k - 1,
        l_est / 2
    );
    println!();

    let monitor = RunMonitor::new();
    let runner = {
        let (monitor, plan, cols) = (monitor.clone(), plan, cols.clone());
        thread::spawn(move || {
            SelfHealing::new(plan)
                .backend(backend)
                .monitor(&monitor)
                .sort_columns(m, cols)
        })
    };

    let mut prev_lines = 0usize;
    let mut frames = 0usize;
    loop {
        let snap = monitor.snapshot();
        let done = matches!(snap.state, MonitorState::Done | MonitorState::Failed);
        let frame = render(&snap, k);
        if interactive {
            // Redraw in place: back up over the previous frame, clear, reprint.
            if prev_lines > 0 {
                print!("\x1b[{prev_lines}F\x1b[J");
            }
            print!("{frame}");
            prev_lines = frame.lines().count();
        } else if done || frames.is_multiple_of(10) {
            println!("{frame}");
        }
        frames += 1;
        if done {
            break;
        }
        thread::sleep(Duration::from_millis(if interactive { 50 } else { 20 }));
    }

    let healed = match runner.join().expect("run thread") {
        Ok(h) => h,
        Err(e) => {
            eprintln!("FAIL: healed run errored: {e}");
            std::process::exit(1);
        }
    };
    let got: Vec<Option<u64>> = healed.columns.iter().flatten().copied().collect();
    let mut want = vals.clone();
    want.sort_unstable_by(|a, b| b.cmp(a));
    if got.iter().any(Option::is_none) || got.into_iter().flatten().ne(want) {
        eprintln!("FAIL: healed output incomplete or unsorted");
        std::process::exit(1);
    }
    let snap = monitor.snapshot();
    if snap.state != MonitorState::Done || snap.cycle != healed.metrics.rounds {
        eprintln!("FAIL: final snapshot disagrees with the sealed metrics");
        std::process::exit(1);
    }
    println!(
        "OK: sorted through {} fault(s) and {} reconfiguration(s) in {} cycles \
         ({} dashboard frames)",
        healed.metrics.faults.len(),
        healed.epochs.len(),
        healed.metrics.cycles,
        frames
    );

    // -- Act 2: Perfetto flight recorder -----------------------------------
    // Raw engine run (so the RunReport exporter is exercised) with the
    // wire trace on: a healed sort through a death and a crash, exported
    // as Chrome trace_event JSON and re-parsed before we trust it.
    let (tm, tk) = (12usize, 4usize);
    let tvals = distinct_keys(tm * tk, &mut rng(5891));
    let tcols: Vec<Vec<Option<u64>>> = (0..tk)
        .map(|c| {
            tvals[c * tm..(c + 1) * tm]
                .iter()
                .map(|&v| Some(v))
                .collect()
        })
        .collect();
    let tmon = RunMonitor::new();
    let mut report = Network::new(tk, tk)
        .backend(backend)
        .framing(true)
        .record_trace(true)
        .monitor(&tmon)
        .fault_plan(
            FaultPlan::new(tk, tk)
                .kill_channel(ChanId(2), 25)
                .crash_proc(ProcId(1), 60),
        )
        .run_steps(|_| {
            let tcols = &tcols;
            AsyncStep::new(move |mut ctx| async move {
                let prog = ColumnsortProgram::new(tm, tcols).expect("shape is valid");
                let mut ectx = EpochCtx::new(tk, tk, EpochOpts::default());
                let out = run_program_in(&mut ctx, &mut ectx, &prog).await;
                out.map(|_| ectx.into_records())
            })
        })
        .unwrap_or_else(|e| {
            eprintln!("FAIL: flight-recorder run errored: {e}");
            std::process::exit(1);
        });
    report.epochs = report
        .results
        .iter()
        .flatten()
        .flatten()
        .next()
        .cloned()
        .expect("a survivor carries the epoch log");

    let trace_json = report.to_chrome_trace();
    let dir = std::path::Path::new("target/experiments");
    let path = dir.join(format!("live_trace_{leg}.json"));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &trace_json)) {
        eprintln!("FAIL: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }

    // The export must parse, and must not drop events: every phase span,
    // fault instant, epoch instant, and traced message accounted for.
    let stats = match validate_chrome_trace(&trace_json) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("FAIL: exported trace does not validate: {e}");
            std::process::exit(1);
        }
    };
    let want = [
        (
            "phase spans",
            stats.phase_spans,
            report.metrics.phases.len(),
        ),
        (
            "fault instants",
            stats.fault_instants,
            report.metrics.faults.len(),
        ),
        ("epoch instants", stats.epoch_instants, report.epochs.len()),
        (
            "message spans",
            stats.message_spans,
            report.trace.as_ref().unwrap().events().len(),
        ),
    ];
    let mut failed = false;
    for (what, got, expect) in want {
        if got != expect {
            eprintln!("FAIL: trace dropped {what}: {got} exported, {expect} in the report");
            failed = true;
        }
    }
    if report.epochs.is_empty() || report.metrics.faults.is_empty() {
        eprintln!("FAIL: the flight-recorder plan never fired");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!();
    println!("== act 2: flight recorder ==");
    println!(
        "wrote {} ({} bytes): {} phase spans, {} fault + {} epoch instants, \
         {} message slices — load it in ui.perfetto.dev",
        path.display(),
        trace_json.len(),
        stats.phase_spans,
        stats.fault_instants,
        stats.epoch_instants,
        stats.message_spans
    );
}
