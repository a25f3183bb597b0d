//! Schema-v5 JSONL round-trip: every record a faulted, self-healing run
//! exports — and every record the service journal writes — must parse
//! back (via `mcb-json`'s reader) field-for-field equal to the in-memory
//! structs it came from, re-render byte-identical, and be byte-identical
//! across backends — the export is an archival format, so "what was
//! written is what was meant" is load-bearing.

use mcb::algos::heal::{run_program_in, ColumnsortProgram};
use mcb::algos::Word;
use mcb::net::{
    AsyncStep, Backend, ChanId, EpochCtx, EpochOpts, EpochRecord, FaultPlan, Network, ProcId,
    RunMonitor, RunReport, JSONL_SCHEMA_VERSION,
};
use mcb_json::Json;
use mcb_serve::records::{
    batch_record, header_record, job_record, parse_batch_record, parse_job_record,
    parse_shed_record, shed_record, BatchJobLine,
};
use mcb_serve::JobSpec;

const BACKENDS: [Backend; 2] = [Backend::Threaded, Backend::Vector];

fn cols(m: usize, k: usize) -> Vec<Vec<Option<u64>>> {
    (0..k)
        .map(|c| {
            (0..m)
                .map(|r| Some(((c * m + r) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) % 2003))
                .collect()
        })
        .collect()
}

/// A healed columnsort run through a channel death and a crash, epochs
/// filled into the report the way the drivers do it. With `monitored` a
/// live [`RunMonitor`] is attached, so the export carries the
/// deterministic `monitor`/`monitor_phase` records.
fn healed_report(
    backend: Backend,
    monitored: bool,
) -> RunReport<Option<Vec<EpochRecord>>, Word<u64>> {
    let (m, k) = (6usize, 3usize);
    let input = cols(m, k);
    let plan = FaultPlan::new(k, k)
        .kill_channel(ChanId(1), 5)
        .crash_proc(ProcId(2), 30);
    let mut net = Network::new(k, k)
        .backend(backend)
        .framing(true)
        .fault_plan(plan);
    let monitor = RunMonitor::new();
    if monitored {
        net = net.monitor(&monitor);
    }
    let mut report = net
        .run_steps(|_| {
            let input = &input;
            AsyncStep::new(move |mut ctx| async move {
                let prog = ColumnsortProgram::new(m, input).unwrap();
                let mut ectx = EpochCtx::new(k, k, EpochOpts::default());
                let out = run_program_in(&mut ctx, &mut ectx, &prog).await;
                out.map(|_| ectx.into_records())
            })
        })
        .unwrap();
    report.epochs = report
        .results
        .iter()
        .flatten()
        .flatten()
        .next()
        .cloned()
        .expect("a survivor carries the epoch log");
    report
}

fn get_u64(rec: &Json, key: &str) -> u64 {
    rec.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing/non-integer field {key}"))
}

fn get_u64s(rec: &Json, key: &str) -> Vec<u64> {
    rec.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("missing/non-array field {key}"))
        .iter()
        .map(|v| v.as_u64().expect("non-integer array element"))
        .collect()
}

fn opt_u64(rec: &Json, key: &str) -> Option<u64> {
    rec.get(key).and_then(Json::as_u64)
}

/// Parse every line, asserting each re-renders byte-identically.
fn parse_lines(jsonl: &str) -> Vec<Json> {
    jsonl
        .lines()
        .map(|line| {
            let v = Json::parse(line).unwrap_or_else(|e| panic!("unparseable line {line}: {e}"));
            assert_eq!(v.render(), line, "re-render must be byte-identical");
            v
        })
        .collect()
}

fn by_kind<'a>(parsed: &'a [Json], kind: &str) -> Vec<&'a Json> {
    parsed
        .iter()
        .filter(|v| v.get("record").and_then(Json::as_str) == Some(kind))
        .collect()
}

#[test]
fn v5_export_round_trips_field_for_field() {
    let report = healed_report(Backend::Threaded, false);
    assert!(!report.epochs.is_empty(), "plan must force reconfiguration");
    assert!(!report.metrics.faults.is_empty(), "plan must log faults");

    let jsonl = report.to_jsonl();
    let parsed = parse_lines(&jsonl);

    // Header carries the schema version this test is pinned to.
    assert_eq!(parsed[0].get("record").and_then(Json::as_str), Some("run"));
    assert_eq!(get_u64(&parsed[0], "schema"), JSONL_SCHEMA_VERSION);
    assert_eq!(JSONL_SCHEMA_VERSION, 5);

    // fault_plan: one record, mirroring the summary.
    let s = report.fault_summary.as_ref().unwrap();
    let plans = by_kind(&parsed, "fault_plan");
    assert_eq!(plans.len(), 1);
    assert_eq!(get_u64(plans[0], "seed"), s.seed);
    assert_eq!(get_u64(plans[0], "deaths"), s.deaths);
    assert_eq!(get_u64(plans[0], "drops"), s.drops);
    assert_eq!(get_u64(plans[0], "corrupts"), s.corrupts);
    assert_eq!(get_u64(plans[0], "crashes"), s.crashes);
    assert_eq!(get_u64(plans[0], "stalls"), s.stalls);

    // fault: one record per injected fault, in order, optional fields
    // surviving the null round trip.
    let faults = by_kind(&parsed, "fault");
    assert_eq!(faults.len(), report.metrics.faults.len());
    for (rec, f) in faults.iter().zip(&report.metrics.faults) {
        assert_eq!(get_u64(rec, "cycle"), f.cycle);
        assert_eq!(
            rec.get("kind").and_then(Json::as_str),
            Some(f.kind.as_str())
        );
        assert_eq!(opt_u64(rec, "proc"), f.proc.map(|p| p.index() as u64));
        assert_eq!(opt_u64(rec, "chan"), f.chan.map(|c| c.index() as u64));
    }

    // epoch: the reconfiguration log, field for field.
    let epochs = by_kind(&parsed, "epoch");
    assert_eq!(epochs.len(), report.epochs.len());
    for (rec, e) in epochs.iter().zip(&report.epochs) {
        assert_eq!(get_u64(rec, "epoch"), e.epoch);
        assert_eq!(get_u64(rec, "cycle"), e.cycle);
        assert_eq!(
            rec.get("cause").and_then(Json::as_str),
            Some(e.cause.as_str())
        );
        let chans: Vec<u64> = e.live_chans.iter().map(|&c| c as u64).collect();
        let procs: Vec<u64> = e.live_procs.iter().map(|&p| p as u64).collect();
        assert_eq!(get_u64s(rec, "live_chans"), chans);
        assert_eq!(get_u64s(rec, "live_procs"), procs);
    }

    // metrics: the cycle count a reader would chart.
    let metrics = by_kind(&parsed, "metrics");
    assert_eq!(metrics.len(), 1);
    assert_eq!(get_u64(metrics[0], "cycles"), report.metrics.cycles);
    assert_eq!(get_u64(metrics[0], "messages"), report.metrics.messages);

    // Monitor/profile records only appear when their producers were on.
    assert!(by_kind(&parsed, "monitor").is_empty());
    assert!(by_kind(&parsed, "profile").is_empty());
    assert!(by_kind(&parsed, "hist").is_empty());
}

#[test]
fn v5_monitor_records_round_trip_field_for_field() {
    let report = healed_report(Backend::Threaded, true);
    let snap = report.monitor.as_ref().expect("monitor was attached");
    let parsed = parse_lines(&report.to_jsonl());

    // monitor: the final snapshot's scalar totals and utilization ring.
    let monitors = by_kind(&parsed, "monitor");
    assert_eq!(monitors.len(), 1);
    let rec = monitors[0];
    assert_eq!(rec.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(get_u64(rec, "cycle"), snap.cycle);
    assert_eq!(get_u64(rec, "cycle"), report.metrics.rounds);
    assert_eq!(get_u64(rec, "messages"), report.metrics.messages);
    assert_eq!(get_u64(rec, "total_bits"), report.metrics.total_bits);
    assert_eq!(get_u64(rec, "finished") as usize, snap.finished);
    assert_eq!(get_u64(rec, "window"), snap.window);
    assert_eq!(get_u64(rec, "windows"), snap.windows);
    assert_eq!(get_u64s(rec, "util"), snap.util);
    // The ring's visible samples account for every delivered message here
    // (the run is far shorter than window × ring).
    assert_eq!(snap.util.iter().sum::<u64>(), report.metrics.messages);

    // monitor_phase: one row per live phase, in (first activity, name)
    // order, field for field.
    let rows = by_kind(&parsed, "monitor_phase");
    assert_eq!(rows.len(), snap.phases.len());
    assert!(!rows.is_empty(), "columnsort labels phases");
    for (i, (rec, ph)) in rows.iter().zip(&snap.phases).enumerate() {
        assert_eq!(get_u64(rec, "index") as usize, i);
        assert_eq!(
            rec.get("name").and_then(Json::as_str),
            Some(ph.name.as_str())
        );
        assert_eq!(get_u64(rec, "messages"), ph.messages);
        assert_eq!(get_u64(rec, "total_bits"), ph.total_bits);
        assert_eq!(get_u64(rec, "first_cycle"), ph.first_cycle);
        assert_eq!(get_u64(rec, "last_cycle"), ph.last_cycle);
    }
    // Live rows are bounded by the run totals.
    let live_msgs: u64 = snap.phases.iter().map(|p| p.messages).sum();
    assert!(live_msgs <= report.metrics.messages);
}

#[test]
fn v5_profile_and_hist_records_round_trip() {
    // Profiling is wall-clock (nondeterministic), so this is a
    // single-backend shape check, not a byte diff.
    let report = Network::new(4, 2)
        .backend(Backend::Vector)
        .profile(true)
        .run(|ctx| {
            ctx.phase("chat");
            for round in 0..8u64 {
                let me = ctx.id().index();
                if me == round as usize % 4 {
                    ctx.write(ChanId(0), round);
                } else {
                    ctx.read(ChanId(0));
                }
            }
        })
        .unwrap();
    let prof = report.profile.as_ref().expect("profiling was on");
    let parsed = parse_lines(&report.to_jsonl());

    let profs = by_kind(&parsed, "profile");
    assert_eq!(profs.len(), 1);
    assert_eq!(
        profs[0].get("backend").and_then(Json::as_str),
        Some("vector")
    );
    assert_eq!(get_u64(profs[0], "workers") as usize, prof.workers);
    assert_eq!(get_u64(profs[0], "wall_ns"), prof.wall_ns);
    assert_eq!(get_u64(profs[0], "barrier_wait_ns"), prof.barrier_wait_ns);
    assert_eq!(get_u64(profs[0], "stall_ns"), prof.stall_ns);

    let hists = by_kind(&parsed, "hist");
    let names: Vec<&str> = hists
        .iter()
        .map(|h| h.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(
        names,
        ["cycle_latency", "barrier_wait", "stall", "dispatch"]
    );
    for (rec, h) in hists.iter().zip([
        &prof.cycle_latency,
        &prof.barrier_wait,
        &prof.stall,
        &prof.dispatch,
    ]) {
        assert_eq!(get_u64(rec, "count"), h.count());
        assert_eq!(get_u64(rec, "sum_ns"), h.sum());
        assert_eq!(get_u64(rec, "max_ns"), h.max());
        assert_eq!(get_u64(rec, "p50_ns"), h.p50());
        assert_eq!(get_u64(rec, "p95_ns"), h.p95());
        assert_eq!(get_u64(rec, "p99_ns"), h.p99());
    }
    // A closure run under Vector goes through the fiber driver, which
    // times cycles, barriers, and stalls; dispatch is the columnar step
    // driver's histogram and must be empty here.
    assert!(get_u64(hists[0], "count") > 0, "cycle latency sampled");
    assert!(get_u64(hists[1], "count") > 0, "barrier waits sampled");
    assert_eq!(get_u64(hists[3], "count"), 0, "no vector dispatch");
}

#[test]
fn v5_export_is_byte_identical_across_backends() {
    let a = healed_report(BACKENDS[0], true).to_jsonl();
    let b = healed_report(BACKENDS[1], true).to_jsonl();
    assert_eq!(
        a, b,
        "faulted healed monitored runs must export identically"
    );
}

#[test]
fn v5_monitored_export_matches_the_recorded_fixture() {
    // Recorded from the closure-driven heal loop (one OS thread or fiber
    // per processor) before healing moved onto the step drivers: the
    // async port must export the same bytes on every backend.
    let want = include_str!("fixtures/healed_monitored.jsonl");
    for backend in BACKENDS {
        assert_eq!(
            healed_report(backend, true).to_jsonl(),
            want,
            "{backend:?}: monitored healed export drifted from the fixture"
        );
    }
}

#[test]
fn v5_serve_journal_records_round_trip_field_for_field() {
    // The service journal's three record kinds (new in schema v5):
    // parse-back must be field-for-field, re-render byte-identical —
    // the recovery scanner replays these after a kill.
    let header = header_record();
    let raw = header.render();
    let back = Json::parse(&raw).unwrap();
    assert_eq!(back.render(), raw);
    assert_eq!(
        back.get("record").and_then(Json::as_str),
        Some("serve_journal")
    );
    assert_eq!(get_u64(&back, "schema"), JSONL_SCHEMA_VERSION);

    // job: both ops, with the null-rank round trip for sorts.
    let specs = [
        JobSpec::Sort {
            keys: vec![9, 2, 1985, 0, 7],
        },
        JobSpec::Select {
            keys: vec![12, 4, 6, 8],
            rank: 3,
        },
    ];
    for (i, spec) in specs.iter().enumerate() {
        let rec = job_record(100 + i as u64, spec, 2_500);
        let raw = rec.render();
        let back = Json::parse(&raw).unwrap();
        assert_eq!(back.render(), raw, "job record re-render");
        let (id, got, deadline_ms) = parse_job_record(&back).unwrap();
        assert_eq!(id, 100 + i as u64);
        assert_eq!(&got, spec);
        assert_eq!(deadline_ms, 2_500);
        match spec {
            JobSpec::Sort { .. } => assert!(back.get("rank").and_then(Json::as_u64).is_none()),
            JobSpec::Select { rank, .. } => {
                assert_eq!(opt_u64(&back, "rank"), Some(*rank as u64));
            }
        }
    }

    // batch: all three statuses and both error arms.
    let lines = vec![
        BatchJobLine {
            id: 100,
            status: "done".into(),
            attempts: 1,
            cycles: 210,
            checksum: 0xfeed,
        },
        BatchJobLine {
            id: 101,
            status: "retry".into(),
            attempts: 2,
            cycles: 0,
            checksum: 0,
        },
        BatchJobLine {
            id: 102,
            status: "failed".into(),
            attempts: 3,
            cycles: 0,
            checksum: 0,
        },
    ];
    for error in [None, Some("unrecoverable after 3 reconfigurations")] {
        let rec = batch_record(7, 8, 3, 693, 2, error, &lines);
        let raw = rec.render();
        let back = Json::parse(&raw).unwrap();
        assert_eq!(back.render(), raw, "batch record re-render");
        assert_eq!(get_u64(&back, "batch"), 7);
        assert_eq!(get_u64(&back, "p"), 8);
        assert_eq!(get_u64(&back, "k"), 3);
        assert_eq!(get_u64(&back, "cycles"), 693);
        assert_eq!(get_u64(&back, "epochs"), 2);
        assert_eq!(back.get("error").and_then(Json::as_str), error);
        assert_eq!(parse_batch_record(&back).unwrap(), lines);
    }

    // shed: admission-side (no id) and recovery-side (with id).
    for id in [None, Some(102)] {
        let rec = shed_record(id, "queue-full", 256);
        let raw = rec.render();
        let back = Json::parse(&raw).unwrap();
        assert_eq!(back.render(), raw, "shed record re-render");
        assert_eq!(
            parse_shed_record(&back).unwrap(),
            (id, "queue-full".to_owned(), 256)
        );
    }
}

#[test]
fn v5_live_journal_parses_line_for_line() {
    // End-to-end: run real jobs through a journaled service, then parse
    // the journal file it wrote with the plain JSONL reader — header
    // first, every line byte-stable, every admitted job reaching a
    // terminal batch line.
    let dir = std::env::temp_dir().join(format!("mcb-jsonl-v5-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.jsonl");
    let _ = std::fs::remove_file(&path);

    let service = mcb_serve::Service::start(mcb_serve::ServeConfig::default(), Some(&path))
        .expect("service starts");
    let mut ids = Vec::new();
    let mut receivers = Vec::new();
    for i in 0..4u64 {
        let spec = JobSpec::Sort {
            keys: (0..6).map(|j| (i * 17 + j * 5) % 101).collect(),
        };
        match service.submit(spec, 0) {
            mcb_serve::Submit::Admitted { id, rx } => {
                ids.push(id);
                receivers.push(rx);
            }
            mcb_serve::Submit::Shed { reason } => panic!("unexpected shed: {reason}"),
        }
    }
    for rx in receivers {
        let (_, outcome) = rx.recv().unwrap();
        assert!(matches!(outcome, mcb_serve::Outcome::Done(_)));
    }
    service.shutdown();

    let text = std::fs::read_to_string(&path).unwrap();
    let parsed = parse_lines(text.trim_end());
    assert_eq!(
        parsed[0].get("record").and_then(Json::as_str),
        Some("serve_journal")
    );
    assert_eq!(get_u64(&parsed[0], "schema"), JSONL_SCHEMA_VERSION);
    let jobs = by_kind(&parsed, "job");
    assert_eq!(jobs.len(), ids.len());
    let mut terminal: Vec<u64> = Vec::new();
    for batch in by_kind(&parsed, "batch") {
        for line in parse_batch_record(batch).unwrap() {
            assert_eq!(line.status, "done");
            terminal.push(line.id);
        }
    }
    terminal.sort_unstable();
    assert_eq!(terminal, ids, "every admitted job is terminal as done");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}

#[test]
fn record_order_is_stable() {
    // Archival consumers stream-parse: the section order (run, metrics,
    // fault_plan, faults, epochs, phases, monitor, monitor_phase) is part
    // of the schema.
    let report = healed_report(Backend::Threaded, true);
    let kinds: Vec<String> = report
        .to_jsonl()
        .lines()
        .map(|l| {
            Json::parse(l)
                .unwrap()
                .get("record")
                .and_then(Json::as_str)
                .unwrap()
                .to_owned()
        })
        .collect();
    let first = |k: &str| kinds.iter().position(|x| x == k).unwrap();
    let last = |k: &str| kinds.iter().rposition(|x| x == k).unwrap();
    assert_eq!(first("run"), 0);
    assert_eq!(first("metrics"), 1);
    assert!(last("fault_plan") < first("fault"));
    assert!(last("fault") < first("epoch"));
    assert!(last("epoch") < first("phase"));
    assert!(last("phase") < first("monitor"));
    assert!(last("monitor") < first("monitor_phase"));
}
