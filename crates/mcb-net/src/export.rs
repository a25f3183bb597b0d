//! Deterministic JSONL export of a [`RunReport`].
//!
//! One JSON object per line, built with [`mcb_json`] (insertion-ordered
//! keys, integers only — no floats), so the export of a collision-free run
//! is **byte-identical** across execution backends and across repeated
//! runs. That property is what makes the export useful as a golden
//! artifact: the `backend_equivalence` tests and the `trace_timeline`
//! example both diff exports byte-for-byte.
//!
//! # Record stream
//!
//! | `record`        | when                        | contents                      |
//! |-----------------|-----------------------------|-------------------------------|
//! | `run`           | always, first line          | `schema`, `p`, `k`            |
//! | `metrics`       | always, second line         | every integer [`Metrics`] field |
//! | `fault_plan`    | when a plan was attached    | the seed and planned-fault counts ([`FaultSummary`]) |
//! | `fault`         | one per fired fault         | cycle/kind/proc/chan ([`FaultRecord`]) |
//! | `epoch`         | one per reconfiguration     | epoch/cycle/cause/live sets ([`EpochRecord`]) |
//! | `phase`         | one per labelled phase      | the [`PhaseMetrics`] fields   |
//! | `monitor`       | when a [`RunMonitor`](crate::RunMonitor) was attached | final totals + utilization ring ([`crate::MonitorSnapshot`]) |
//! | `monitor_phase` | one per live phase row      | name/messages/bits/first/last |
//! | `profile`       | when profiling was on       | backend/workers/wall + compat sums ([`crate::EngineProfile`]) |
//! | `hist`          | four per `profile` record   | count/sum/max/p50/p95/p99 of one [`crate::LogHistogram`] |
//! | `event`         | one per traced message      | cycle/writer/channel/phase/msg |
//!
//! Monitor *events* (fault/epoch labels) are excluded — they arrive in
//! scheduling order; the deterministic `fault` and `epoch` records carry
//! the same information canonically. `profile`/`hist` records are
//! wall-clock and therefore nondeterministic; they appear **only** when
//! [`Network::profile`](crate::Network::profile) was on, so exports used
//! for cross-backend byte diffs (profiling off) stay deterministic.
//! Derived ratios (`channel_utilization` etc.) are excluded because they
//! are floats and recomputable.
//!
//! # Chrome trace / Perfetto export
//!
//! [`RunReport::to_chrome_trace`] renders the same report as Chrome
//! `trace_event` JSON — phase spans, fault/epoch instants, and (when a
//! trace was recorded) per-message slices on a per-channel track — which
//! loads directly in `ui.perfetto.dev` or `chrome://tracing`. Timestamps
//! are **cycles**, not wall-clock, displayed as microseconds (the model's
//! clock is the cycle counter; wall time is backend-dependent noise). The
//! export is integer-only and round-trips through
//! [`validate_chrome_trace`], which CI runs on every backend.
//!
//! ```
//! use mcb_net::{ChanId, Network};
//!
//! let report = Network::new(2, 1)
//!     .record_trace(true)
//!     .run(|ctx| {
//!         ctx.phase("exchange");
//!         if ctx.id().index() == 0 {
//!             ctx.write(ChanId(0), 7u64);
//!         } else {
//!             ctx.read(ChanId(0));
//!         }
//!     })
//!     .unwrap();
//! let jsonl = report.to_jsonl();
//! let lines: Vec<&str> = jsonl.lines().collect();
//! assert!(lines[0].starts_with("{\"record\":\"run\",\"schema\":"));
//! assert!(lines.iter().any(|l| l.contains("\"record\":\"phase\"")));
//! assert!(lines.iter().any(|l| l.contains("\"record\":\"event\"")));
//! ```

use crate::engine::{Backend, RunReport};
use crate::epoch::EpochRecord;
use crate::fault::{FaultRecord, FaultSummary};
use crate::metrics::{EngineProfile, LogHistogram, Metrics, PhaseMetrics};
use crate::monitor::MonitorSnapshot;
use crate::trace::Event;
use mcb_json::Json;
use std::fmt::Debug;

/// Version stamped into every export's `run` header line. Bump when a
/// record gains, loses, or renames a field.
///
/// History: v1 = run/metrics/phase/event; v2 adds `fault_plan` and `fault`
/// records (fault-injection subsystem); v3 adds `epoch` records
/// (self-healing reconfiguration log); v4 adds `monitor`/`monitor_phase`
/// records (live-monitor final snapshot) and the profiling-gated
/// `profile`/`hist` records (latency histograms); v5 adds the service
/// journal's `serve_journal`/`job`/`batch`/`shed` records (mcb-serve
/// admission/outcome log).
pub const JSONL_SCHEMA_VERSION: u64 = 5;

fn metrics_record(m: &Metrics) -> Json {
    Json::obj()
        .field("record", "metrics")
        .field("cycles", m.cycles)
        .field("rounds", m.rounds)
        .field("messages", m.messages)
        .field("total_bits", m.total_bits)
        .field("max_msg_bits", m.max_msg_bits)
        .field(
            "per_proc_messages",
            Json::from_u64s(m.per_proc_messages.iter().copied()),
        )
        .field(
            "per_proc_cycles",
            Json::from_u64s(m.per_proc_cycles.iter().copied()),
        )
        .field(
            "per_channel_messages",
            Json::from_u64s(m.per_channel_messages.iter().copied()),
        )
}

fn fault_plan_record(s: &FaultSummary) -> Json {
    Json::obj()
        .field("record", "fault_plan")
        .field("seed", s.seed)
        .field("deaths", s.deaths)
        .field("drops", s.drops)
        .field("corrupts", s.corrupts)
        .field("crashes", s.crashes)
        .field("stalls", s.stalls)
}

fn fault_record(f: &FaultRecord) -> Json {
    Json::obj()
        .field("record", "fault")
        .field("cycle", f.cycle)
        .field("kind", f.kind.as_str())
        .field("proc", f.proc.map(|p| p.index()))
        .field("chan", f.chan.map(|c| c.index()))
}

fn epoch_record(e: &EpochRecord) -> Json {
    Json::obj()
        .field("record", "epoch")
        .field("epoch", e.epoch)
        .field("cycle", e.cycle)
        .field("cause", e.cause.as_str())
        .field(
            "live_chans",
            Json::from_u64s(e.live_chans.iter().map(|&c| c as u64)),
        )
        .field(
            "live_procs",
            Json::from_u64s(e.live_procs.iter().map(|&p| p as u64)),
        )
}

fn phase_record(index: usize, ph: &PhaseMetrics) -> Json {
    Json::obj()
        .field("record", "phase")
        .field("index", index)
        .field("name", ph.name.as_str())
        .field("first_cycle", ph.first_cycle)
        .field("last_cycle", ph.last_cycle)
        .field("cycles", ph.cycles)
        .field("messages", ph.messages)
        .field("total_bits", ph.total_bits)
        .field(
            "per_channel_messages",
            Json::from_u64s(ph.per_channel_messages.iter().copied()),
        )
}

fn monitor_record(s: &MonitorSnapshot) -> Json {
    Json::obj()
        .field("record", "monitor")
        .field("state", s.state.as_str())
        .field("cycle", s.cycle)
        .field("messages", s.messages)
        .field("total_bits", s.total_bits)
        .field("finished", s.finished)
        .field("window", s.window)
        .field("windows", s.windows)
        .field("util", Json::from_u64s(s.util.iter().copied()))
}

fn monitor_phase_record(index: usize, ph: &crate::monitor::MonitorPhase) -> Json {
    Json::obj()
        .field("record", "monitor_phase")
        .field("index", index)
        .field("name", ph.name.as_str())
        .field("messages", ph.messages)
        .field("total_bits", ph.total_bits)
        .field("first_cycle", ph.first_cycle)
        .field("last_cycle", ph.last_cycle)
}

fn backend_str(b: Backend) -> &'static str {
    match b {
        Backend::Auto => "auto",
        Backend::Threaded => "threaded",
        Backend::Vector => "vector",
    }
}

fn profile_record(p: &EngineProfile) -> Json {
    Json::obj()
        .field("record", "profile")
        .field("backend", backend_str(p.backend))
        .field("workers", p.workers)
        .field("wall_ns", p.wall_ns)
        .field("barrier_wait_ns", p.barrier_wait_ns)
        .field("stall_ns", p.stall_ns)
}

fn hist_record(name: &str, h: &LogHistogram) -> Json {
    Json::obj()
        .field("record", "hist")
        .field("name", name)
        .field("count", h.count())
        .field("sum_ns", h.sum())
        .field("max_ns", h.max())
        .field("p50_ns", h.p50())
        .field("p95_ns", h.p95())
        .field("p99_ns", h.p99())
}

fn event_record<M: Debug>(e: &Event<M>, phases: &[PhaseMetrics]) -> Json {
    let phase = e
        .phase
        .and_then(|i| phases.get(i as usize))
        .map(|ph| ph.name.clone());
    Json::obj()
        .field("record", "event")
        .field("cycle", e.cycle)
        .field("writer", e.writer.index())
        .field("channel", e.channel.index())
        .field("phase", phase)
        .field("msg", format!("{:?}", e.msg))
}

impl<R, M: Debug> RunReport<R, M> {
    /// Serialize this report as deterministic JSONL (see the [module
    /// docs](self) for the record stream). Identical byte-for-byte across
    /// backends for collision-free protocols; event lines appear only when
    /// the run recorded a trace. Message payloads are rendered via their
    /// `Debug` form.
    pub fn to_jsonl(&self) -> String {
        let m = &self.metrics;
        let mut out = String::new();
        let header = Json::obj()
            .field("record", "run")
            .field("schema", JSONL_SCHEMA_VERSION)
            .field("p", m.per_proc_cycles.len())
            .field("k", m.per_channel_messages.len());
        out.push_str(&header.render());
        out.push('\n');
        out.push_str(&metrics_record(m).render());
        out.push('\n');
        if let Some(summary) = &self.fault_summary {
            out.push_str(&fault_plan_record(summary).render());
            out.push('\n');
            for f in &m.faults {
                out.push_str(&fault_record(f).render());
                out.push('\n');
            }
        }
        for e in &self.epochs {
            out.push_str(&epoch_record(e).render());
            out.push('\n');
        }
        for (i, ph) in m.phases.iter().enumerate() {
            out.push_str(&phase_record(i, ph).render());
            out.push('\n');
        }
        if let Some(snap) = &self.monitor {
            out.push_str(&monitor_record(snap).render());
            out.push('\n');
            for (i, ph) in snap.phases.iter().enumerate() {
                out.push_str(&monitor_phase_record(i, ph).render());
                out.push('\n');
            }
        }
        if let Some(prof) = &self.profile {
            out.push_str(&profile_record(prof).render());
            out.push('\n');
            for (name, h) in [
                ("cycle_latency", &prof.cycle_latency),
                ("barrier_wait", &prof.barrier_wait),
                ("stall", &prof.stall),
                ("dispatch", &prof.dispatch),
            ] {
                out.push_str(&hist_record(name, h).render());
                out.push('\n');
            }
        }
        if let Some(trace) = &self.trace {
            for e in trace.events() {
                out.push_str(&event_record(e, &m.phases).render());
                out.push('\n');
            }
        }
        out
    }

    /// Render this report as Chrome `trace_event` JSON, loadable in
    /// `ui.perfetto.dev` or `chrome://tracing` (see the [module
    /// docs](self)). Timestamps are **cycles** (displayed as µs): each
    /// labelled phase becomes a complete (`ph:"X"`) span on the "phases"
    /// track, each fired fault and committed epoch a global instant
    /// (`ph:"i"`) on the "events" track, and — when the run recorded a
    /// [`Trace`](crate::Trace) — each delivered message a one-cycle slice
    /// on its channel's track. Integer-only by construction, so the output
    /// round-trips through [`validate_chrome_trace`].
    pub fn to_chrome_trace(&self) -> String {
        let m = &self.metrics;
        let meta = |name: &str, tid: u64, label: &str| {
            Json::obj()
                .field("name", name)
                .field("ph", "M")
                .field("pid", 0u64)
                .field("tid", tid)
                .field("args", Json::obj().field("name", label))
        };
        let mut evs: Vec<Json> = vec![
            meta("process_name", 0, "mcb run"),
            meta("thread_name", 0, "phases"),
            meta("thread_name", 1, "events"),
        ];
        if self.trace.is_some() {
            for c in 0..m.per_channel_messages.len() {
                evs.push(meta(
                    "thread_name",
                    CHANNEL_TID_BASE + c as u64,
                    &format!("channel {c}"),
                ));
            }
        }
        for ph in &m.phases {
            evs.push(
                Json::obj()
                    .field("name", ph.name.as_str())
                    .field("cat", "phase")
                    .field("ph", "X")
                    .field("pid", 0u64)
                    .field("tid", 0u64)
                    .field("ts", ph.first_cycle)
                    .field("dur", ph.last_cycle - ph.first_cycle + 1)
                    .field(
                        "args",
                        Json::obj()
                            .field("cycles", ph.cycles)
                            .field("messages", ph.messages)
                            .field("total_bits", ph.total_bits),
                    ),
            );
        }
        let instant = |name: String, cat: &str, cycle: u64, args: Json| {
            Json::obj()
                .field("name", name)
                .field("cat", cat)
                .field("ph", "i")
                .field("s", "g")
                .field("pid", 0u64)
                .field("tid", 1u64)
                .field("ts", cycle)
                .field("args", args)
        };
        for f in &m.faults {
            evs.push(instant(
                format!("fault:{}", f.kind.as_str()),
                "fault",
                f.cycle,
                Json::obj()
                    .field("proc", f.proc.map(|p| p.index()))
                    .field("chan", f.chan.map(|c| c.index())),
            ));
        }
        for e in &self.epochs {
            evs.push(instant(
                format!("epoch:{}", e.epoch),
                "epoch",
                e.cycle,
                Json::obj()
                    .field("cause", e.cause.as_str())
                    .field("live_chans", e.live_chans.len())
                    .field("live_procs", e.live_procs.len()),
            ));
        }
        if let Some(trace) = &self.trace {
            for e in trace.events() {
                let phase = e
                    .phase
                    .and_then(|i| m.phases.get(i as usize))
                    .map(|ph| ph.name.clone());
                evs.push(
                    Json::obj()
                        .field("name", format!("p{}", e.writer.index()))
                        .field("cat", "msg")
                        .field("ph", "X")
                        .field("pid", 0u64)
                        .field("tid", CHANNEL_TID_BASE + e.channel.index() as u64)
                        .field("ts", e.cycle)
                        .field("dur", 1u64)
                        .field(
                            "args",
                            Json::obj()
                                .field("msg", format!("{:?}", e.msg))
                                .field("phase", phase),
                        ),
                );
            }
        }
        Json::obj()
            .field("displayTimeUnit", "ms")
            .field("traceEvents", Json::Arr(evs))
            .render()
    }
}

/// Channel-track tids in the Chrome trace start here (tids 0 and 1 are the
/// phase and event tracks).
const CHANNEL_TID_BASE: u64 = 10;

/// What [`validate_chrome_trace`] counted in a parsed Chrome trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChromeTraceStats {
    /// `ph:"X"` complete spans with category `phase`.
    pub phase_spans: usize,
    /// `ph:"i"` instants with category `fault`.
    pub fault_instants: usize,
    /// `ph:"i"` instants with category `epoch`.
    pub epoch_instants: usize,
    /// `ph:"X"` per-message slices with category `msg`.
    pub message_spans: usize,
    /// `ph:"M"` metadata records (process/thread names).
    pub metadata: usize,
}

/// Parse a [`RunReport::to_chrome_trace`] export back and count its
/// events, verifying the structural invariants every consumer relies on:
/// top-level `traceEvents` array, every event carrying `name`/`ph`/`pid`,
/// every non-metadata event carrying an integer `ts`, and every instant
/// carrying scope `s:"g"`. Returns the per-category counts so callers
/// (tests, the `live_dashboard --ci` smoke, the CI trace check) can assert
/// nothing was dropped.
pub fn validate_chrome_trace(raw: &str) -> Result<ChromeTraceStats, String> {
    let root = Json::parse(raw).map_err(|e| format!("trace does not parse: {e}"))?;
    let events = root
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut stats = ChromeTraceStats::default();
    for (i, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i} ({name}): missing ph"))?;
        if ev.get("pid").and_then(Json::as_u64).is_none() {
            return Err(format!("event {i} ({name}): missing pid"));
        }
        if ph != "M" && ev.get("ts").and_then(Json::as_u64).is_none() {
            return Err(format!("event {i} ({name}): missing integer ts"));
        }
        let cat = ev.get("cat").and_then(Json::as_str);
        match (ph, cat) {
            ("M", _) => stats.metadata += 1,
            ("X", Some("phase")) => {
                if ev.get("dur").and_then(Json::as_u64).is_none() {
                    return Err(format!("event {i} ({name}): span missing dur"));
                }
                stats.phase_spans += 1;
            }
            ("X", Some("msg")) => stats.message_spans += 1,
            ("i", Some("fault")) | ("i", Some("epoch")) => {
                if ev.get("s").and_then(Json::as_str) != Some("g") {
                    return Err(format!("event {i} ({name}): instant missing scope s:\"g\""));
                }
                if cat == Some("fault") {
                    stats.fault_instants += 1;
                } else {
                    stats.epoch_instants += 1;
                }
            }
            _ => {
                return Err(format!(
                    "event {i} ({name}): unexpected ph/cat {ph}/{cat:?}"
                ))
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Network;
    use crate::ids::ChanId;

    fn sample_report() -> RunReport<(), u64> {
        Network::new(3, 2)
            .record_trace(true)
            .run(|ctx| {
                ctx.phase("spread");
                let me = ctx.id().index();
                if me < 2 {
                    ctx.write(ChanId(me as u32), me as u64 + 10);
                } else {
                    ctx.read(ChanId(0));
                }
                ctx.phase("");
                ctx.idle();
            })
            .unwrap()
    }

    #[test]
    fn export_shape_and_order() {
        let jsonl = sample_report().to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        // run, metrics, 1 phase, 2 events.
        assert_eq!(lines.len(), 5, "{jsonl}");
        assert_eq!(
            lines[0],
            format!("{{\"record\":\"run\",\"schema\":{JSONL_SCHEMA_VERSION},\"p\":3,\"k\":2}}")
        );
        assert!(lines[1].starts_with("{\"record\":\"metrics\",\"cycles\":2,"));
        assert!(lines[2].contains("\"record\":\"phase\",\"index\":0,\"name\":\"spread\""));
        assert!(lines[3].contains("\"phase\":\"spread\""));
        assert!(lines[3].contains("\"msg\":\"10\""));
    }

    #[test]
    fn export_is_deterministic() {
        let a = sample_report().to_jsonl();
        let b = sample_report().to_jsonl();
        assert_eq!(a, b);
    }

    #[test]
    fn no_trace_means_no_event_lines() {
        let report = Network::new(2, 1)
            .run(|ctx| {
                if ctx.id().index() == 0 {
                    ctx.write(ChanId(0), 1u64);
                } else {
                    ctx.idle();
                }
            })
            .unwrap();
        let jsonl = report.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(!jsonl.contains("\"record\":\"event\""));
    }

    #[test]
    fn fault_plan_and_fault_records_exported() {
        let plan = crate::FaultPlan::new(2, 2).kill_channel(ChanId(1), 0);
        let report = Network::new(2, 2)
            .fault_plan(plan)
            .run(|ctx| {
                if ctx.id().index() == 0 {
                    ctx.write(ChanId(1), 7u64);
                } else {
                    ctx.idle();
                }
            })
            .unwrap();
        let jsonl = report.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(
            lines[2],
            "{\"record\":\"fault_plan\",\"seed\":0,\"deaths\":1,\"drops\":0,\
             \"corrupts\":0,\"crashes\":0,\"stalls\":0}"
        );
        assert_eq!(
            lines[3],
            "{\"record\":\"fault\",\"cycle\":0,\"kind\":\"channel_death\",\
             \"proc\":0,\"chan\":1}"
        );
    }

    #[test]
    fn epoch_records_exported_between_faults_and_phases() {
        use crate::epoch::{EpochCause, EpochRecord};
        let mut report = sample_report();
        report.epochs.push(EpochRecord {
            epoch: 1,
            cycle: 57,
            cause: EpochCause::Silence,
            live_chans: vec![0, 2],
            live_procs: vec![0, 1, 3],
        });
        let jsonl = report.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(
            lines[2],
            "{\"record\":\"epoch\",\"epoch\":1,\"cycle\":57,\"cause\":\"silence\",\
             \"live_chans\":[0,2],\"live_procs\":[0,1,3]}"
        );
        assert!(lines[3].contains("\"record\":\"phase\""), "{jsonl}");
    }

    #[test]
    fn no_fault_plan_means_no_fault_lines() {
        let jsonl = sample_report().to_jsonl();
        assert!(!jsonl.contains("\"record\":\"fault_plan\""));
        assert!(!jsonl.contains("\"record\":\"fault\""));
    }

    #[test]
    fn unlabelled_event_phase_is_null() {
        let report = Network::new(2, 1)
            .record_trace(true)
            .run(|ctx| {
                if ctx.id().index() == 0 {
                    ctx.write(ChanId(0), 1u64);
                } else {
                    ctx.idle();
                }
            })
            .unwrap();
        let jsonl = report.to_jsonl();
        assert!(jsonl.contains("\"phase\":null"), "{jsonl}");
    }
}
