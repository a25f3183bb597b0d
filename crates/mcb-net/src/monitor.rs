//! Live run monitoring: streaming metrics you can read *while* a run is in
//! flight.
//!
//! Everything else in the observability stack ([`Metrics`], phase tables,
//! traces, JSONL) materializes only after `run()` returns. A [`RunMonitor`]
//! is the streaming counterpart: attach one to a [`Network`](crate::Network)
//! via [`Network::monitor`](crate::Network::monitor) and every executor —
//! threaded, vector steps, vector closures on fibers — publishes into it
//! at cycle, phase, fault, and epoch boundaries. Any thread can call [`RunMonitor::snapshot`] at any
//! time and get a coherent [`MonitorSnapshot`] of the run so far:
//!
//! * the current **cycle**, total **messages**/**bits**, and the count of
//!   **finished** processors (published by the per-round sweep, which every
//!   backend funnels through the engine's shared `tick`);
//! * live **per-phase** message/bit counters with first/last activity
//!   cycles (bumped lock-free on every delivered message);
//! * a **channel-utilization time series**: a fixed-width ring of
//!   per-window message counts, one sample every
//!   [`MonitorOpts::window`] cycles;
//! * **fault and epoch events** as they fire.
//!
//! # Coherence, not atomicity
//!
//! The publish path is wait-free (atomic stores with relaxed ordering; the
//! only locks guard the cold paths — phase-name registration and the
//! bounded event log). A snapshot is therefore *coherent* rather than a
//! point-in-time cut: counters may include activity from the cycle
//! currently executing. The guarantees that hold for any snapshot are the
//! useful ones — the cycle counter is monotone across snapshots, and every
//! live counter is bounded by its final [`Metrics`] total. The **final**
//! snapshot (taken after the run completes, surfaced as
//! [`RunReport::monitor`](crate::RunReport::monitor)) contains only model
//! quantities and is deterministic and backend-identical, which is why it
//! can ride in the byte-diffed JSONL export.
//!
//! ```
//! use mcb_net::{ChanId, Network, RunMonitor};
//!
//! let monitor = RunMonitor::new();
//! let report = Network::new(4, 2)
//!     .monitor(&monitor)
//!     .run(|ctx| {
//!         ctx.phase("spread");
//!         if ctx.id().index() == 0 {
//!             ctx.write(ChanId(0), 7u64);
//!         } else {
//!             ctx.read(ChanId(0));
//!         }
//!     })
//!     .unwrap();
//! let snap = monitor.snapshot();
//! assert_eq!(snap.state, mcb_net::MonitorState::Done);
//! assert_eq!(snap.messages, report.metrics.messages);
//! assert_eq!(snap.phases[0].name, "spread");
//! ```
//!
//! [`Metrics`]: crate::Metrics

use crate::fault::FaultRecord;
use crate::metrics::Metrics;
use crate::sync::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// Phase rows tracked live. Interner ids at or above this cap still count
/// toward run totals but get no per-phase live row (no protocol in the
/// repo comes near it; the post-hoc phase table is unaffected).
const PHASE_SLOTS: usize = 256;

/// Sentinel for "phase has seen no activity yet".
const UNSET: u64 = u64::MAX;

/// Configuration for a [`RunMonitor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorOpts {
    /// Cycles per utilization sample: every `window` completed rounds, the
    /// number of messages delivered in that window is pushed into the
    /// time-series ring. Must be ≥ 1.
    pub window: u64,
    /// Ring capacity: how many of the most recent window samples a
    /// snapshot can see.
    pub ring: usize,
    /// Bounded capacity of the fault/epoch event log (oldest dropped).
    pub events: usize,
}

impl Default for MonitorOpts {
    fn default() -> Self {
        MonitorOpts {
            window: 64,
            ring: 64,
            events: 64,
        }
    }
}

/// Where the monitored run currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MonitorState {
    /// No run has started publishing yet.
    #[default]
    Idle,
    /// A run is in flight.
    Running,
    /// The run completed and the final totals are published.
    Done,
    /// The run failed (collision, panic, budget, …); counters hold the
    /// values reached before the failure.
    Failed,
}

impl MonitorState {
    /// Lowercase label, for display and export.
    pub fn as_str(self) -> &'static str {
        match self {
            MonitorState::Idle => "idle",
            MonitorState::Running => "running",
            MonitorState::Done => "done",
            MonitorState::Failed => "failed",
        }
    }
}

/// One live per-phase row of a [`MonitorSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorPhase {
    /// The phase label.
    pub name: String,
    /// Messages delivered while this phase was the sender's active label.
    pub messages: u64,
    /// Sum of bit widths over those messages.
    pub total_bits: u64,
    /// Cycle of the phase's first delivered message.
    pub first_cycle: u64,
    /// Cycle of the phase's most recent delivered message.
    pub last_cycle: u64,
}

/// One fault or epoch event observed by the monitor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorEvent {
    /// Cycle at which the event fired.
    pub cycle: u64,
    /// `"fault:<kind>"` (e.g. `"fault:channel_death"`) or `"epoch:<n>"`.
    pub label: String,
}

/// A coherent view of a monitored run, returned by
/// [`RunMonitor::snapshot`]. See the [module docs](self) for the coherence
/// contract.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MonitorSnapshot {
    /// Run lifecycle position at snapshot time.
    pub state: MonitorState,
    /// Processors in the monitored network.
    pub p: usize,
    /// Channels in the monitored network.
    pub k: usize,
    /// Completed engine rounds (monotone across snapshots of one run).
    pub cycle: u64,
    /// Messages delivered up to the last completed round.
    pub messages: u64,
    /// Sum of bit widths over all delivered messages.
    pub total_bits: u64,
    /// Processors that have finished (returned, crashed, or panicked).
    pub finished: usize,
    /// Cycles per utilization window sample.
    pub window: u64,
    /// Total window samples recorded so far (may exceed `util.len()` once
    /// the ring wraps).
    pub windows: u64,
    /// The most recent per-window message counts, oldest first. With the
    /// final snapshot's tail flush, the last entry may cover a partial
    /// window (`cycle % window` cycles).
    pub util: Vec<u64>,
    /// Live per-phase rows, ordered by (first activity, name) — the same
    /// deterministic order as [`Metrics::phases`](crate::Metrics::phases).
    pub phases: Vec<MonitorPhase>,
    /// The most recent fault/epoch events, oldest first (bounded by
    /// [`MonitorOpts::events`]).
    pub events: Vec<MonitorEvent>,
}

impl MonitorSnapshot {
    /// Channel utilization of window sample `i` as a fraction in
    /// `[0, 1]`: messages delivered in the window over `window × k`
    /// channel-slots. Returns 0.0 out of range or before the shape is
    /// known.
    pub fn util_fraction(&self, i: usize) -> f64 {
        let slots = self.window.saturating_mul(self.k as u64);
        match self.util.get(i) {
            Some(&m) if slots > 0 => m as f64 / slots as f64,
            _ => 0.0,
        }
    }

    /// Sum of all per-phase message counters — by construction never more
    /// than the run's final total (each live bump mirrors a delivered
    /// message).
    pub fn phase_message_sum(&self) -> u64 {
        self.phases.iter().map(|ph| ph.messages).sum()
    }
}

/// The monitor's shared state. Hot-path publishes are atomic stores /
/// fetch-adds; the two mutexes guard cold paths only (phase-label
/// registration happens on label transitions, event pushes on faults and
/// epochs).
pub(crate) struct MonitorCore {
    opts: MonitorOpts,
    state: AtomicU8,
    p: AtomicU64,
    k: AtomicU64,
    cycle: AtomicU64,
    messages: AtomicU64,
    total_bits: AtomicU64,
    finished: AtomicU64,
    phase_msgs: Box<[AtomicU64]>,
    phase_bits: Box<[AtomicU64]>,
    phase_first: Box<[AtomicU64]>,
    phase_last: Box<[AtomicU64]>,
    /// Registered phase labels: `(interner id, name)`, pushed by
    /// [`register_phase`](Self::register_phase) under the run's phase lock.
    names: Mutex<Vec<(u16, String)>>,
    ring: Box<[AtomicU64]>,
    windows: AtomicU64,
    window_base: AtomicU64,
    events: Mutex<VecDeque<MonitorEvent>>,
}

impl fmt::Debug for MonitorCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MonitorCore")
            .field("cycle", &self.cycle.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

fn atomic_row(n: usize) -> Box<[AtomicU64]> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

impl MonitorCore {
    fn new(opts: MonitorOpts) -> Self {
        let opts = MonitorOpts {
            window: opts.window.max(1),
            ring: opts.ring.max(1),
            events: opts.events.max(1),
        };
        MonitorCore {
            state: AtomicU8::new(0),
            p: AtomicU64::new(0),
            k: AtomicU64::new(0),
            cycle: AtomicU64::new(0),
            messages: AtomicU64::new(0),
            total_bits: AtomicU64::new(0),
            finished: AtomicU64::new(0),
            phase_msgs: atomic_row(PHASE_SLOTS),
            phase_bits: atomic_row(PHASE_SLOTS),
            phase_first: atomic_row(PHASE_SLOTS),
            phase_last: atomic_row(PHASE_SLOTS),
            names: Mutex::new(Vec::new()),
            ring: atomic_row(opts.ring),
            windows: AtomicU64::new(0),
            window_base: AtomicU64::new(0),
            events: Mutex::new(VecDeque::new()),
            opts,
        }
    }

    /// Re-arm for a fresh run of shape `(p, k)` (called by `Shared::new`
    /// when the monitor is attached; attaching one monitor to concurrent
    /// runs is unsupported — last reset wins).
    pub(crate) fn reset(&self, p: usize, k: usize) {
        self.p.store(p as u64, Ordering::Relaxed);
        self.k.store(k as u64, Ordering::Relaxed);
        self.cycle.store(0, Ordering::Relaxed);
        self.messages.store(0, Ordering::Relaxed);
        self.total_bits.store(0, Ordering::Relaxed);
        self.finished.store(0, Ordering::Relaxed);
        for i in 0..PHASE_SLOTS {
            self.phase_msgs[i].store(0, Ordering::Relaxed);
            self.phase_bits[i].store(0, Ordering::Relaxed);
            self.phase_first[i].store(UNSET, Ordering::Relaxed);
            self.phase_last[i].store(0, Ordering::Relaxed);
        }
        self.names.lock().clear();
        for slot in &self.ring {
            slot.store(0, Ordering::Relaxed);
        }
        self.windows.store(0, Ordering::Relaxed);
        self.window_base.store(0, Ordering::Relaxed);
        self.events.lock().clear();
        self.state
            .store(MonitorState::Running as u8, Ordering::Release);
    }

    /// Per-round publish, called by the elected sweeper from
    /// `Shared::tick` — exactly one caller per round on every backend.
    pub(crate) fn on_cycle(&self, completed: u64, msg_total: u64, finished: usize) {
        self.messages.store(msg_total, Ordering::Relaxed);
        self.finished.store(finished as u64, Ordering::Relaxed);
        if completed.is_multiple_of(self.opts.window) {
            let base = self.window_base.swap(msg_total, Ordering::Relaxed);
            let w = self.windows.load(Ordering::Relaxed);
            self.ring[(w % self.ring.len() as u64) as usize]
                .store(msg_total.saturating_sub(base), Ordering::Relaxed);
            self.windows.store(w + 1, Ordering::Relaxed);
        }
        // Cycle is published last (release) so a snapshot that observes
        // round N also observes N's message total and window sample.
        self.cycle.store(completed, Ordering::Release);
    }

    /// Per-message publish from the write path (the threaded and fiber
    /// drivers' `apply_write` and the vector driver's inlined write loop).
    #[inline]
    pub(crate) fn on_message(&self, phase: u16, bits: u32, now: u64) {
        self.total_bits
            .fetch_add(u64::from(bits), Ordering::Relaxed);
        let idx = phase as usize;
        if idx == 0 || idx >= PHASE_SLOTS {
            return;
        }
        self.phase_msgs[idx].fetch_add(1, Ordering::Relaxed);
        self.phase_bits[idx].fetch_add(u64::from(bits), Ordering::Relaxed);
        self.phase_first[idx].fetch_min(now, Ordering::Relaxed);
        self.phase_last[idx].fetch_max(now, Ordering::Relaxed);
    }

    /// Associate interner id `id` with `name` (called from the run's phase
    /// interner, on label transitions only).
    pub(crate) fn register_phase(&self, id: u16, name: &str) {
        let mut names = self.names.lock();
        if !names.iter().any(|(i, _)| *i == id) {
            names.push((id, name.to_owned()));
        }
    }

    /// Append a fault event.
    pub(crate) fn on_fault(&self, rec: &FaultRecord) {
        self.push_event(rec.cycle, format!("fault:{}", rec.kind.as_str()));
    }

    /// Append an epoch-reconfiguration event.
    pub(crate) fn on_epoch(&self, epoch: u64, cycle: u64) {
        self.push_event(cycle, format!("epoch:{epoch}"));
    }

    fn push_event(&self, cycle: u64, label: String) {
        let mut events = self.events.lock();
        // A stall suppresses both the write and the read of one cycle and
        // records twice; collapse consecutive duplicates like the post-hoc
        // canonicalization does.
        if events
            .back()
            .is_some_and(|e| e.cycle == cycle && e.label == label)
        {
            return;
        }
        if events.len() == self.opts.events {
            events.pop_front();
        }
        events.push_back(MonitorEvent { cycle, label });
    }

    /// Publish the final totals (and flush the partial tail window) once
    /// the run's metrics are assembled. All values are model quantities, so
    /// the snapshot taken after this call is deterministic and
    /// backend-identical.
    pub(crate) fn finish(&self, metrics: &Metrics) {
        if !metrics.rounds.is_multiple_of(self.opts.window) {
            let base = self.window_base.swap(metrics.messages, Ordering::Relaxed);
            let w = self.windows.load(Ordering::Relaxed);
            self.ring[(w % self.ring.len() as u64) as usize]
                .store(metrics.messages.saturating_sub(base), Ordering::Relaxed);
            self.windows.store(w + 1, Ordering::Relaxed);
        }
        self.messages.store(metrics.messages, Ordering::Relaxed);
        self.total_bits.store(metrics.total_bits, Ordering::Relaxed);
        self.finished
            .store(metrics.per_proc_cycles.len() as u64, Ordering::Relaxed);
        self.cycle.store(metrics.rounds, Ordering::Relaxed);
        self.state
            .store(MonitorState::Done as u8, Ordering::Release);
    }

    /// Mark the run failed (counters keep their last published values).
    pub(crate) fn mark_failed(&self) {
        self.state
            .store(MonitorState::Failed as u8, Ordering::Release);
    }

    fn state(&self) -> MonitorState {
        match self.state.load(Ordering::Acquire) {
            1 => MonitorState::Running,
            2 => MonitorState::Done,
            3 => MonitorState::Failed,
            _ => MonitorState::Idle,
        }
    }

    pub(crate) fn snapshot(&self) -> MonitorSnapshot {
        let state = self.state();
        let cycle = self.cycle.load(Ordering::Acquire);
        let windows = self.windows.load(Ordering::Relaxed);
        let len = self.ring.len() as u64;
        let visible = windows.min(len);
        let util = (windows - visible..windows)
            .map(|w| self.ring[(w % len) as usize].load(Ordering::Relaxed))
            .collect();
        let mut phases: Vec<MonitorPhase> = self
            .names
            .lock()
            .iter()
            .filter_map(|(id, name)| {
                let idx = *id as usize;
                if idx >= PHASE_SLOTS {
                    return None;
                }
                let messages = self.phase_msgs[idx].load(Ordering::Relaxed);
                if messages == 0 {
                    return None;
                }
                Some(MonitorPhase {
                    name: name.clone(),
                    messages,
                    total_bits: self.phase_bits[idx].load(Ordering::Relaxed),
                    first_cycle: self.phase_first[idx].load(Ordering::Relaxed),
                    last_cycle: self.phase_last[idx].load(Ordering::Relaxed),
                })
            })
            .collect();
        // Interner ids are scheduling-dependent; (first activity, name) is
        // not. Same re-keying as the post-hoc phase table.
        phases.sort_by(|a, b| (a.first_cycle, &a.name).cmp(&(b.first_cycle, &b.name)));
        MonitorSnapshot {
            state,
            p: self.p.load(Ordering::Relaxed) as usize,
            k: self.k.load(Ordering::Relaxed) as usize,
            cycle,
            messages: self.messages.load(Ordering::Relaxed),
            total_bits: self.total_bits.load(Ordering::Relaxed),
            finished: self.finished.load(Ordering::Relaxed) as usize,
            window: self.opts.window,
            windows,
            util,
            phases,
            events: self.events.lock().iter().cloned().collect(),
        }
    }
}

/// A cloneable handle for observing a run live.
///
/// Attach with [`Network::monitor`](crate::Network::monitor), then call
/// [`snapshot`](Self::snapshot) from any thread — including while the run
/// executes. One monitor observes one run at a time (a new run resets it);
/// see the [module docs](self) for the coherence contract.
#[derive(Debug, Clone, Default)]
pub struct RunMonitor {
    core: Arc<MonitorCore>,
}

impl Default for MonitorCore {
    fn default() -> Self {
        MonitorCore::new(MonitorOpts::default())
    }
}

impl RunMonitor {
    /// A monitor with default [`MonitorOpts`].
    pub fn new() -> Self {
        RunMonitor::default()
    }

    /// A monitor with explicit window/ring/event-log sizing.
    pub fn with_opts(opts: MonitorOpts) -> Self {
        RunMonitor {
            core: Arc::new(MonitorCore::new(opts)),
        }
    }

    /// A coherent view of the monitored run's progress so far.
    pub fn snapshot(&self) -> MonitorSnapshot {
        self.core.snapshot()
    }

    /// The shared core, for the engine to publish into.
    pub(crate) fn core(&self) -> Arc<MonitorCore> {
        Arc::clone(&self.core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;
    use crate::ids::ProcId;

    #[test]
    fn fresh_monitor_is_idle_and_empty() {
        let snap = RunMonitor::new().snapshot();
        assert_eq!(snap.state, MonitorState::Idle);
        assert_eq!((snap.cycle, snap.messages, snap.finished), (0, 0, 0));
        assert!(snap.util.is_empty() && snap.phases.is_empty() && snap.events.is_empty());
    }

    #[test]
    fn window_ring_keeps_the_most_recent_samples() {
        let core = MonitorCore::new(MonitorOpts {
            window: 2,
            ring: 3,
            events: 4,
        });
        core.reset(4, 2);
        // 5 windows of deltas 10, 10, 10, 30, 40 over 10 rounds.
        let totals = [0, 10, 10, 20, 20, 30, 30, 60, 60, 100];
        for (round0, &total) in totals.iter().enumerate() {
            core.on_cycle(round0 as u64 + 1, total, 0);
        }
        let snap = core.snapshot();
        assert_eq!(snap.windows, 5);
        assert_eq!(snap.util, vec![10, 30, 40], "ring keeps the newest 3");
        assert_eq!(snap.cycle, 10);
        // window=2, k=2 → 4 slots per window.
        assert!((snap.util_fraction(2) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn phase_rows_sort_by_first_activity_and_name() {
        let core = MonitorCore::default();
        core.reset(2, 1);
        core.register_phase(2, "late");
        core.register_phase(1, "early");
        core.on_message(2, 8, 50);
        core.on_message(1, 4, 10);
        core.on_message(1, 4, 20);
        let snap = core.snapshot();
        let names: Vec<&str> = snap.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["early", "late"]);
        assert_eq!(snap.phases[0].messages, 2);
        assert_eq!(snap.phases[0].total_bits, 8);
        assert_eq!(
            (snap.phases[0].first_cycle, snap.phases[0].last_cycle),
            (10, 20)
        );
        assert_eq!(snap.total_bits, 16);
        assert_eq!(snap.phase_message_sum(), 3);
    }

    #[test]
    fn event_log_dedups_and_bounds() {
        let core = MonitorCore::new(MonitorOpts {
            window: 1,
            ring: 1,
            events: 2,
        });
        core.reset(2, 1);
        let rec = FaultRecord {
            cycle: 5,
            kind: FaultKind::Stall,
            proc: Some(ProcId::from_index(1)),
            chan: None,
        };
        core.on_fault(&rec);
        core.on_fault(&rec); // write+read of one stalled cycle → one event
        core.on_epoch(1, 9);
        core.on_epoch(2, 12); // capacity 2: the stall event falls off
        let snap = core.snapshot();
        let labels: Vec<&str> = snap.events.iter().map(|e| e.label.as_str()).collect();
        assert_eq!(labels, ["epoch:1", "epoch:2"]);
    }

    #[test]
    fn reset_rearms_for_a_new_run() {
        let core = MonitorCore::default();
        core.reset(4, 2);
        core.register_phase(1, "x");
        core.on_message(1, 8, 0);
        core.on_cycle(1, 1, 0);
        core.on_epoch(1, 1);
        core.reset(8, 4);
        let snap = core.snapshot();
        assert_eq!(snap.state, MonitorState::Running);
        assert_eq!((snap.p, snap.k), (8, 4));
        assert_eq!((snap.messages, snap.total_bits, snap.windows), (0, 0, 0));
        assert!(snap.phases.is_empty() && snap.events.is_empty());
    }
}
