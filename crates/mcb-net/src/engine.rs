//! The lock-step execution engine.
//!
//! [`Network::run`] executes one protocol closure per processor, each on its
//! own OS thread, in synchronous cycles. A cycle follows the paper's §2
//! definition exactly:
//!
//! 1. every processor may **write one channel**;
//! 2. every processor may **read one channel** (concurrent reads allowed,
//!    empty channels detectable);
//! 3. arbitrary **local computation** (the Rust code between two
//!    [`ProcCtx::cycle`] calls — free in the cost model).
//!
//! Threads are synchronized with a [sense-reversing
//! barrier](crate::barrier::SenseBarrier) three times per cycle: after
//! writes, after reads, and after a per-cycle sweep (slot clearing, clock,
//! termination/failure checks) performed by the barrier winner.
//!
//! Although execution is multi-threaded, every observable quantity — results,
//! cycle counts, message counts, traces — is deterministic for a
//! collision-free protocol, because the protocol's visible state only changes
//! at barrier-separated phase boundaries.
//!
//! # Failure semantics
//!
//! A write collision "fails the computation" in the model; the engine
//! records the first failure ([`NetError`]), force-unwinds every still-active
//! protocol at the next cycle boundary, and returns `Err`. Protocol panics
//! are caught per-thread and reported the same way, so a buggy protocol can
//! never deadlock or poison the harness.

use crate::barrier::{Sense, SenseBarrier};
use crate::epoch::EpochRecord;
use crate::error::NetError;
use crate::fault::{canonicalize, FaultIndex, FaultKind, FaultPlan, FaultRecord, FaultSummary};
use crate::frame::{FrameRead, FRAME_HEADER_BITS};
use crate::ids::{ChanId, ProcId};
use crate::message::MsgWidth;
use crate::metrics::{EngineProfile, LocalMetrics, LogHistogram, Metrics, PhaseMetrics};
use crate::monitor::{MonitorCore, MonitorSnapshot, RunMonitor};
use crate::phase::PhaseScope;
use crate::step::{Step, StepEnv, StepProtocol};
use crate::sync::{Mutex, RwLock};
use crate::trace::{Event, Trace};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Default bound on engine rounds; exceeding it fails the run with
/// [`NetError::CycleBudgetExhausted`] instead of hanging.
pub const DEFAULT_CYCLE_BUDGET: u64 = 10_000_000;

/// Default watchdog window: a run in which no message is delivered and no
/// processor finishes for this many consecutive rounds fails with
/// [`NetError::Stalled`] instead of idling on toward the (larger) cycle
/// budget. See [`Network::stall_window`].
pub const DEFAULT_STALL_WINDOW: u64 = 1_000_000;

/// How [`Network::run`] maps logical processors onto OS threads.
///
/// Both backends execute the same cycle semantics and produce **identical**
/// observable behavior — results, [`Metrics`], [`Trace`], and error
/// classification — for any collision-free protocol; they differ only in
/// wall-clock cost:
///
/// * [`Threaded`](Backend::Threaded) runs each logical processor on its own
///   OS thread, synchronized by a sense-reversing barrier three times per
///   cycle. Lowest latency while `p` is at most a few times the core count;
///   degrades badly when thousands of threads contend for a few cores. It
///   is the reference every cross-backend test compares against.
/// * [`Vector`](Backend::Vector) drives [`StepProtocol`] state machines
///   (see [`Network::run_steps`]) from a single thread in struct-of-arrays
///   form: per-processor write/read intents live in flat columns, each
///   cycle is tight loops over the *active* processors (no barriers, no
///   per-unit dispatch), and [`Step::IdleFor`] sleepers are parked in a
///   wake-time heap and skipped entirely. This is the backend for large
///   `p`, up to `p >= 10^5`. Closure protocols need a suspended call stack
///   per processor, which a columnar driver cannot provide, so
///   [`Network::run`] under `Vector` parks each processor on a fiber
///   thread advanced by `min(p, cores)` workers (identical observable
///   behavior, barrier width the worker count rather than `p`).
///
/// Both backends agree byte-for-byte on every observable:
///
/// ```
/// use mcb_net::{Backend, ChanId, FrameRead, Network, Step, StepEnv, StepProtocol};
///
/// /// Processor 0 broadcasts once; everyone returns what they read.
/// struct Echo;
/// impl StepProtocol<u64> for Echo {
///     type Output = Option<u64>;
///     fn step(&mut self, env: &StepEnv, input: FrameRead<u64>) -> Step<u64, Option<u64>> {
///         let input = input.clean();
///         match env.cycles_used {
///             0 => Step::Yield {
///                 write: (env.id.index() == 0).then_some((ChanId(0), 7u64)),
///                 read: Some(ChanId(0)),
///             },
///             _ => Step::Done(input),
///         }
///     }
/// }
///
/// let run = |backend: Backend| {
///     Network::new(64, 8).backend(backend).run_steps(|_| Echo).unwrap()
/// };
/// let threaded = run(Backend::Threaded);
/// let vector = run(Backend::Vector);
/// assert_eq!(threaded.results, vector.results);
/// assert_eq!(threaded.metrics, vector.metrics);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Pick automatically from `p`: [`Vector`](Backend::Vector) when `p`
    /// far exceeds the core count (`p > max(32, 2 * cores)`), otherwise
    /// [`Threaded`](Backend::Threaded). The `MCB_BACKEND` environment
    /// variable (`"threaded"` / `"vector"`, any case) overrides the
    /// heuristic; any other value fails the run with
    /// [`NetError::BadConfig`] (see [`Backend::from_env_value`]).
    #[default]
    Auto,
    /// One OS thread per logical processor.
    Threaded,
    /// Single-threaded struct-of-arrays driver for [`StepProtocol`]s;
    /// closure protocols run on fibers advanced by `min(p, cores)` workers.
    Vector,
}

impl Backend {
    /// Parse an `MCB_BACKEND` value: `threaded` or `vector`, in any case.
    /// Anything else is a [`NetError::BadConfig`] naming the accepted
    /// values, so a stale or misspelt override fails loudly instead of
    /// quietly running the heuristic.
    pub fn from_env_value(value: &str) -> Result<Backend, NetError> {
        match value.to_ascii_lowercase().as_str() {
            "threaded" => Ok(Backend::Threaded),
            "vector" => Ok(Backend::Vector),
            _ => Err(NetError::BadConfig(format!(
                "MCB_BACKEND={value:?} is not a backend (expected threaded|vector)"
            ))),
        }
    }

    /// Resolve `Auto` to a concrete backend for a `p`-processor run. Fails
    /// only when `MCB_BACKEND` is set to a value
    /// [`from_env_value`](Self::from_env_value) rejects.
    pub fn resolve(self, p: usize) -> Result<Backend, NetError> {
        match self {
            Backend::Auto => match std::env::var_os("MCB_BACKEND") {
                Some(var) => Backend::from_env_value(&var.to_string_lossy()),
                None => {
                    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
                    Ok(if p > (2 * cores).max(32) {
                        Backend::Vector
                    } else {
                        Backend::Threaded
                    })
                }
            },
            concrete => Ok(concrete),
        }
    }
}

/// An `MCB(p, k)` network ready to execute protocols.
///
/// ```
/// use mcb_net::{Network, ChanId};
///
/// // Two processors, one channel: P1 sends its value to P2.
/// let report = Network::new(2, 1)
///     .run(|ctx| {
///         if ctx.id().index() == 0 {
///             ctx.write(ChanId(0), 42u64);
///             None
///         } else {
///             ctx.read(ChanId(0))
///         }
///     })
///     .unwrap();
/// assert_eq!(report.results[1], Some(Some(42)));
/// assert_eq!(report.metrics.messages, 1);
/// assert_eq!(report.metrics.cycles, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    procs: usize,
    channels: usize,
    record_trace: bool,
    profile: bool,
    cycle_budget: u64,
    stall_window: u64,
    fault_plan: Option<Arc<FaultPlan>>,
    backend: Backend,
    framing: bool,
    monitor: Option<Arc<MonitorCore>>,
}

impl Network {
    /// An `MCB(p, k)` network. The model requires `1 <= k <= p`; violations
    /// surface as [`NetError::BadConfig`] when [`run`](Self::run) is called.
    pub fn new(p: usize, k: usize) -> Self {
        Network {
            procs: p,
            channels: k,
            record_trace: false,
            profile: false,
            cycle_budget: DEFAULT_CYCLE_BUDGET,
            stall_window: DEFAULT_STALL_WINDOW,
            fault_plan: None,
            backend: Backend::Auto,
            framing: false,
            monitor: None,
        }
    }

    /// Number of processors `p`.
    pub fn p(&self) -> usize {
        self.procs
    }

    /// Number of channels `k`.
    pub fn k(&self) -> usize {
        self.channels
    }

    /// Record a full message [`Trace`] (off by default). Recording is
    /// lock-free: each executor appends to a private buffer, merged into
    /// the canonical (cycle, channel, writer) order at run end.
    pub fn record_trace(mut self, yes: bool) -> Self {
        self.record_trace = yes;
        self
    }

    /// Record wall-clock engine profiling counters (off by default),
    /// surfaced as [`RunReport::profile`]. Adds two clock reads around
    /// every barrier wait, so leave it off for cost-model measurements.
    pub fn profile(mut self, yes: bool) -> Self {
        self.profile = yes;
        self
    }

    /// Replace the default runaway-protection cycle budget.
    pub fn cycle_budget(mut self, budget: u64) -> Self {
        self.cycle_budget = budget;
        self
    }

    /// Replace the default livelock watchdog window
    /// ([`DEFAULT_STALL_WINDOW`]). A run in which `window` consecutive
    /// rounds deliver no message and finish no processor fails with
    /// [`NetError::Stalled`]; `u64::MAX` disables the watchdog. Unlike the
    /// cycle budget — which bounds *total* rounds — the watchdog catches
    /// quiet livelocks (every processor spinning on a read that can never
    /// arrive) long before a generous budget would.
    pub fn stall_window(mut self, window: u64) -> Self {
        self.stall_window = window;
        self
    }

    /// Inject faults from `plan` during the run (see [`FaultPlan`]). The
    /// plan's `(p, k)` shape must match this network's; violations surface
    /// as [`NetError::BadConfig`] when the run starts.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(Arc::new(plan));
        self
    }

    /// Select the execution [`Backend`] (default: [`Backend::Auto`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Enable self-checking broadcast frames (off by default; see
    /// [`crate::frame`]). With framing on:
    ///
    /// * every delivered message is charged [`FRAME_HEADER_BITS`] extra
    ///   bits (cycle and message counts are unchanged);
    /// * `Corrupt` faults *jam* the channel slot instead of silently
    ///   emptying it, so framed readers (every [`StepProtocol`] input, and
    ///   [`StepCtx::cycle`](crate::StepCtx::cycle)) observe
    ///   [`FrameRead::Noise`] where [`ProcCtx::cycle`] sees an empty
    ///   channel.
    ///
    /// Framing is the detection substrate for the no-oracle self-healing
    /// drivers; protocols that fold every read with [`FrameRead::clean`]
    /// behave identically apart from the bit accounting.
    pub fn framing(mut self, yes: bool) -> Self {
        self.framing = yes;
        self
    }

    /// Attach a live [`RunMonitor`]: every backend publishes progress into
    /// it at cycle/phase/fault/epoch boundaries, and
    /// [`RunMonitor::snapshot`] stays readable from any thread while the
    /// run executes. The final snapshot also lands in
    /// [`RunReport::monitor`]. Publishing is a handful of relaxed atomic
    /// stores per cycle plus two fetch-adds per message — cheap enough to
    /// leave on outside cost-model measurements (see `crit_obs`).
    pub fn monitor(mut self, mon: &RunMonitor) -> Self {
        self.monitor = Some(mon.core());
        self
    }

    fn validate(&self) -> Result<(), NetError> {
        if self.procs == 0 {
            return Err(NetError::BadConfig("p must be >= 1".into()));
        }
        if self.channels == 0 {
            return Err(NetError::BadConfig("k must be >= 1".into()));
        }
        if self.channels > self.procs {
            return Err(NetError::BadConfig(format!(
                "model requires k <= p (got k = {}, p = {})",
                self.channels, self.procs
            )));
        }
        if let Some(plan) = &self.fault_plan {
            if plan.p() != self.procs || plan.k() != self.channels {
                return Err(NetError::BadConfig(format!(
                    "fault plan shaped for MCB({}, {}) attached to MCB({}, {})",
                    plan.p(),
                    plan.k(),
                    self.procs,
                    self.channels
                )));
            }
        }
        Ok(())
    }

    /// Execute `protocol` on every processor and collect results and costs.
    ///
    /// The closure is invoked once per processor with that processor's
    /// [`ProcCtx`]; `ctx.id()` distinguishes the replicas. Processors that
    /// return early idle (invisibly to the cost model) until all are done.
    ///
    /// Runs on the configured [`Backend`] (default [`Backend::Auto`]); the
    /// backend never changes observable behavior, only wall-clock cost.
    ///
    /// ```
    /// use mcb_net::{ChanId, Network};
    ///
    /// // Two processors, one channel: P1 sends its value to P2.
    /// let report = Network::new(2, 1)
    ///     .run(|ctx| {
    ///         if ctx.id().index() == 0 {
    ///             ctx.write(ChanId(0), 42u64);
    ///             None
    ///         } else {
    ///             ctx.read(ChanId(0))
    ///         }
    ///     })
    ///     .unwrap();
    /// assert_eq!(report.results[1], Some(Some(42)));
    /// assert_eq!(report.metrics.messages, 1);
    /// assert_eq!(report.metrics.cycles, 1);
    /// ```
    pub fn run<M, R, F>(&self, protocol: F) -> Result<RunReport<R, M>, NetError>
    where
        M: Clone + Send + Sync + MsgWidth,
        R: Send,
        F: Fn(&mut ProcCtx<'_, M>) -> R + Sync,
    {
        self.validate()?;
        match self.backend.resolve(self.procs)? {
            // A closure protocol blocks inside `cycle`, which needs a
            // suspended call stack per processor; the columnar driver has
            // none to offer, so `Vector` runs closures on the fiber driver
            // (identical observable behavior — only `run_steps` takes the
            // columnar path).
            Backend::Vector => crate::fiber::run_closures(self, &protocol),
            _ => self.run_threaded(&protocol),
        }
    }

    /// Execute a [`StepProtocol`] state machine on every processor.
    ///
    /// `factory` builds processor `id`'s machine; the engine then advances
    /// all `p` machines in lock-step (see [`StepProtocol`] for the driving
    /// contract). Equivalent to [`run`](Self::run) with a closure that loops
    /// over [`StepProtocol::step`] — and exactly that is how it executes on
    /// the [`Threaded`](Backend::Threaded) backend — but on the
    /// [`Vector`](Backend::Vector) backend state machines are advanced in
    /// flat columns by one thread with **no** per-processor threads, which
    /// is the cheapest way to simulate very large `p`.
    pub fn run_steps<M, S, F>(&self, factory: F) -> Result<RunReport<S::Output, M>, NetError>
    where
        M: Clone + Send + Sync + MsgWidth,
        S: StepProtocol<M>,
        S::Output: Send,
        F: Fn(ProcId) -> S + Sync,
    {
        self.validate()?;
        match self.backend.resolve(self.procs)? {
            Backend::Vector => crate::vector::run_steps(self, &factory),
            _ => self.run_threaded(&|ctx: &mut ProcCtx<'_, M>| {
                let mut machine = factory(ctx.id());
                let mut input = FrameRead::Silence;
                loop {
                    let env = ctx.step_env();
                    let step = machine.step(&env, input);
                    // A phase requested during `step` labels the yielded
                    // cycle (same ordering as the vector driver).
                    if let Some(name) = env.take_phase() {
                        ctx.phase(&name);
                    }
                    input = match step {
                        Step::Yield { write, read } => ctx.framed_cycle(write, read),
                        Step::IdleFor(n) => {
                            ctx.idle_for(n.max(1));
                            FrameRead::Silence
                        }
                        Step::Done(r) => break r,
                    };
                }
            }),
        }
    }

    /// The one-OS-thread-per-processor execution path.
    fn run_threaded<M, R, F>(&self, protocol: &F) -> Result<RunReport<R, M>, NetError>
    where
        M: Clone + Send + Sync + MsgWidth,
        R: Send,
        F: Fn(&mut ProcCtx<'_, M>) -> R + Sync,
    {
        let p = self.procs;
        let shared = Shared::new(self, p);
        let started = Instant::now();

        let results: Mutex<Vec<Option<R>>> = Mutex::new((0..p).map(|_| None).collect());
        let locals: Mutex<Vec<LocalMetrics>> = Mutex::new(vec![LocalMetrics::default(); p]);
        // Per-thread trace buffers are merged here once per thread at run
        // end; the write path itself never takes a lock.
        let all_events: Mutex<Vec<Event<M>>> = Mutex::new(Vec::new());

        std::thread::scope(|scope| {
            for i in 0..p {
                let shared = &shared;
                let results = &results;
                let locals = &locals;
                let all_events = &all_events;
                scope.spawn(move || {
                    let mut ctx = ProcCtx {
                        id: ProcId::from_index(i),
                        local: LocalMetrics::default(),
                        phase_name: String::new(),
                        events: Vec::new(),
                        prof_barrier: LogHistogram::new(),
                        inner: CtxInner::Lockstep {
                            shared,
                            sense: Sense::new(),
                        },
                    };
                    let outcome = catch_unwind(AssertUnwindSafe(|| protocol(&mut ctx)));
                    match outcome {
                        Ok(r) => {
                            results.lock()[i] = Some(r);
                        }
                        Err(payload) => {
                            if let Some(esc) = payload.downcast_ref::<Escalated>() {
                                // The epoch layer gave up: the carried
                                // error fails the run.
                                shared.fail(esc.0.clone());
                            } else if payload.downcast_ref::<Aborted>().is_none()
                                && payload.downcast_ref::<Crashed>().is_none()
                            {
                                // Genuine protocol panic (not our forced
                                // shutdown, not a planned crash): report it
                                // as the run's failure.
                                shared.fail(NetError::ProcPanicked {
                                    proc: ProcId::from_index(i),
                                    message: panic_message(payload.as_ref()),
                                });
                            }
                        }
                    }
                    shared.finished.fetch_add(1, Ordering::AcqRel);
                    // Keep participating in barrier rounds until everyone is
                    // done, so stragglers can continue their protocol. If the
                    // run is already over (this thread was force-unwound when
                    // `done` was raised), every other thread is exiting at
                    // this same round boundary, so joining another round
                    // would desynchronize the barrier.
                    if !shared.done.load(Ordering::Acquire) {
                        loop {
                            if ctx.drain_round() {
                                break;
                            }
                        }
                    }
                    if shared.profile {
                        shared.prof.lock().barrier.merge(&ctx.prof_barrier);
                    }
                    if !ctx.events.is_empty() {
                        all_events.lock().append(&mut ctx.events);
                    }
                    locals.lock()[i] = ctx.local;
                });
            }
        });

        let profile = self.profile.then(|| {
            let agg = shared.prof.lock().clone();
            agg.into_profile(Backend::Threaded, p, started.elapsed().as_nanos() as u64)
        });
        assemble_report(
            shared,
            locals.into_inner(),
            results.into_inner(),
            all_events.into_inner(),
            profile,
        )
    }
}

/// Turn a finished run's shared state into the caller-facing report (or the
/// recorded failure). Both backends go through here, so the report shape
/// cannot drift between them.
///
/// `events` is the concatenation of every executor's private trace buffer
/// (empty unless tracing was on); [`Trace::new`] re-sorts it into the
/// canonical (cycle, channel, writer) order, which is a *total* order for a
/// collision-free run — at most one writer per (cycle, channel) — so the
/// merged trace is identical no matter how the buffers were split across
/// executors.
pub(crate) fn assemble_report<R, M: Clone>(
    shared: Shared<M>,
    locals: Vec<LocalMetrics>,
    results: Vec<Option<R>>,
    mut events: Vec<Event<M>>,
    profile: Option<EngineProfile>,
) -> Result<RunReport<R, M>, NetError> {
    if let Some(err) = shared.failure.lock().take() {
        if let Some(mon) = &shared.monitor {
            mon.mark_failed();
        }
        return Err(err);
    }
    let k = shared.k;
    let fault_summary = shared.plan.as_ref().map(FaultIndex::summary);
    let mut faults = shared.faults.into_inner();
    // Executors append fault records in scheduling order; canonicalize so
    // the log is deterministic and backend-identical.
    canonicalize(&mut faults);
    let names = shared.phases.into_inner();

    // Aggregate the per-processor phase tallies by interner id: cycles by
    // max (same convention as whole-run `Metrics::cycles`), everything else
    // by sum.
    let mut agg: Vec<PhaseMetrics> = names
        .iter()
        .map(|n| PhaseMetrics {
            name: n.clone(),
            first_cycle: u64::MAX,
            ..PhaseMetrics::default()
        })
        .collect();
    for l in &locals {
        for (id, row) in l.phases.iter().enumerate() {
            if row.cycles == 0 && row.messages == 0 {
                continue;
            }
            let pm = &mut agg[id];
            pm.cycles = pm.cycles.max(row.cycles);
            pm.messages += row.messages;
            pm.total_bits += row.total_bits;
            pm.first_cycle = pm.first_cycle.min(row.first_round);
            pm.last_cycle = pm.last_cycle.max(row.last_round);
            if pm.per_channel_messages.len() < row.per_channel.len() {
                pm.per_channel_messages.resize(row.per_channel.len(), 0);
            }
            for (c, n) in row.per_channel.iter().enumerate() {
                pm.per_channel_messages[c] += n;
            }
        }
    }

    // Interner ids depend on which executor interned a label first, which
    // is scheduling-dependent; re-key the table by (first activity, name) —
    // both deterministic — and drop labels that never saw a cycle or a
    // message, so the exported table is identical across backends.
    let mut used: Vec<(u16, PhaseMetrics)> = agg
        .into_iter()
        .enumerate()
        .skip(1) // id 0 is the unlabelled sentinel
        .filter(|(_, pm)| pm.cycles > 0 || pm.messages > 0)
        .map(|(id, mut pm)| {
            pm.per_channel_messages.resize(k, 0);
            (id as u16, pm)
        })
        .collect();
    used.sort_by(|a, b| (a.1.first_cycle, &a.1.name).cmp(&(b.1.first_cycle, &b.1.name)));
    let mut remap: Vec<Option<u16>> = vec![None; names.len()];
    for (new, (old, _)) in used.iter().enumerate() {
        remap[*old as usize] = Some(new as u16);
    }
    let phases: Vec<PhaseMetrics> = used.into_iter().map(|(_, pm)| pm).collect();

    let metrics = Metrics {
        cycles: locals.iter().map(|l| l.cycles).max().unwrap_or(0),
        rounds: shared.round.load(Ordering::Relaxed),
        messages: locals.iter().map(|l| l.messages).sum(),
        total_bits: locals.iter().map(|l| l.total_bits).sum(),
        max_msg_bits: locals.iter().map(|l| l.max_msg_bits).max().unwrap_or(0),
        per_proc_messages: locals.iter().map(|l| l.messages).collect(),
        per_proc_cycles: locals.iter().map(|l| l.cycles).collect(),
        per_channel_messages: shared
            .chan_msgs
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect(),
        phases,
        faults: faults.clone(),
    };
    // Publish the final (deterministic, backend-identical) totals into the
    // monitor, then take its snapshot for the report.
    let monitor = shared.monitor.as_ref().map(|mon| {
        mon.finish(&metrics);
        mon.snapshot()
    });
    let trace = shared.record_trace.then(|| {
        // Events carry interner ids at recording time; translate them to
        // canonical table indices.
        for e in &mut events {
            e.phase = e.phase.and_then(|old| remap[old as usize]);
        }
        let mut t = Trace::new(events);
        t.set_faults(faults);
        t
    });
    Ok(RunReport {
        results,
        metrics,
        trace,
        profile,
        fault_summary,
        epochs: Vec::new(),
        monitor,
    })
}

/// Everything a completed run produced.
#[derive(Debug)]
pub struct RunReport<R, M> {
    /// Per-processor protocol return values, indexed by processor.
    ///
    /// Entries are `Some` for every processor on a successful run, with two
    /// exceptions: partial results are collected even when a run fails
    /// mid-way (in which case `run` returns `Err` instead), and a processor
    /// crashed by the attached [`FaultPlan`] finishes with `None` — its
    /// result died with it, but the run itself still completes.
    pub results: Vec<Option<R>>,
    /// Cycle/message accounting.
    pub metrics: Metrics,
    /// Message trace, when [`Network::record_trace`] was enabled.
    pub trace: Option<Trace<M>>,
    /// Wall-clock engine counters, when [`Network::profile`] was enabled.
    /// Unlike everything else in the report these are *not* deterministic
    /// and are excluded from the JSONL export.
    pub profile: Option<EngineProfile>,
    /// Summary of the attached [`FaultPlan`], when one was attached (the
    /// per-fault log lives in [`Metrics::faults`]).
    pub fault_summary: Option<FaultSummary>,
    /// Reconfigurations committed by the epoch protocol
    /// ([`EpochCtx`](crate::EpochCtx)). The engine itself never
    /// reconfigures, so this starts empty; self-healing drivers fill it in
    /// from the survivors' (identical) reconfiguration logs so the JSONL
    /// export can carry the epoch history.
    pub epochs: Vec<EpochRecord>,
    /// The final [`RunMonitor`] snapshot, when one was attached via
    /// [`Network::monitor`]. Unlike mid-run snapshots this one is taken
    /// after the run's metrics are assembled, so it holds exact final
    /// totals and is deterministic and backend-identical (events excepted —
    /// they arrive in scheduling order and are excluded from the JSONL
    /// export).
    pub monitor: Option<MonitorSnapshot>,
}

impl<R, M> RunReport<R, M> {
    /// Unwrap all per-processor results (panics if any is missing, which
    /// cannot happen on an `Ok` report).
    pub fn into_results(self) -> Vec<R> {
        self.results
            .into_iter()
            .map(|r| r.expect("successful run has a result per processor"))
            .collect()
    }
}

/// Forced-shutdown unwind token; never observed by user code.
pub(crate) struct Aborted;

/// Unwind token for a planned processor crash: the processor stops, the run
/// continues, its result slot stays `None`. Never observed by user code.
pub(crate) struct Crashed;

/// Unwind token carrying a [`NetError`] the processor wants to fail the
/// whole run with (the epoch census gave up or saw the configuration
/// split). Never observed by user code.
pub(crate) struct Escalated(pub(crate) NetError);

/// Best-effort text of a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic>".into())
}

/// Run state shared by all executors of one run: the channel slots, the
/// clock, and the termination/failure machinery. The *semantics* of a cycle
/// live in the methods here ([`apply_write`](Shared::apply_write),
/// [`apply_read`](Shared::apply_read), [`sweep`](Shared::sweep)); backends
/// only differ in who calls them and how the calls are synchronized
/// (`barrier` spans all `p` processor threads on the threaded backend, but
/// only the fiber driver's workers under `Vector`; the columnar step driver
/// never waits on it).
/// One channel's per-cycle state: the deposited message (if any) plus a
/// *jam* flag set when a framed `Corrupt` fault garbled the slot's
/// transmission. Unframed reads ignore the flag entirely, so non-framed
/// behavior is bit-identical to a plain `Option` slot.
#[derive(Debug)]
pub(crate) struct ChanSlot<M> {
    msg: Option<(ProcId, M)>,
    jammed: bool,
}

impl<M> Default for ChanSlot<M> {
    fn default() -> Self {
        ChanSlot {
            msg: None,
            jammed: false,
        }
    }
}

pub(crate) struct Shared<M> {
    pub(crate) k: usize,
    slots: Vec<RwLock<ChanSlot<M>>>,
    pub(crate) barrier: SenseBarrier,
    pub(crate) done: AtomicBool,
    failed: AtomicBool,
    pub(crate) finished: AtomicUsize,
    pub(crate) round: AtomicU64,
    failure: Mutex<Option<NetError>>,
    chan_msgs: Vec<AtomicU64>,
    /// Whether executors should record trace events (into their own
    /// buffers; this struct holds no event storage).
    pub(crate) record_trace: bool,
    /// Whether executors should time their barrier waits / stalls.
    pub(crate) profile: bool,
    /// Wall-clock counters, contributed once per executor at run end.
    pub(crate) prof: Mutex<ProfAgg>,
    /// Phase-label interner: id -> name, id 0 reserved for "unlabelled".
    /// Locked only on label *transitions*, never per cycle or message.
    phases: Mutex<Vec<String>>,
    cycle_budget: u64,
    /// Watchdog window: consecutive no-activity rounds tolerated before the
    /// run fails with [`NetError::Stalled`].
    stall_window: u64,
    /// Watchdog state, touched only by the elected sweeper (atomics used as
    /// plain cells across sweep invocations).
    last_activity_round: AtomicU64,
    last_msg_total: AtomicU64,
    last_finished: AtomicUsize,
    /// Whether self-checking frames are enabled (see [`Network::framing`]).
    pub(crate) framing: bool,
    /// The static fault schedule, if any, compiled into its lookup index
    /// once for this run.
    pub(crate) plan: Option<FaultIndex>,
    /// Faults that fired, appended by any executor; canonicalized (sorted,
    /// deduplicated) by `assemble_report`.
    faults: Mutex<Vec<FaultRecord>>,
    pub(crate) total_procs: usize,
    /// Live-monitor core, when a [`RunMonitor`] is attached. Publishes from
    /// the hot path are relaxed atomics; `None` costs one branch.
    pub(crate) monitor: Option<Arc<MonitorCore>>,
    /// Run start time, the zero point for the cycle-latency histogram.
    started: Instant,
    /// Wall-clock of the previous `tick`, touched only by the elected
    /// sweeper (profiling on).
    last_tick_ns: AtomicU64,
}

/// Wall-clock engine histograms, contributed by executors at run end and
/// by the sweeper per tick (see [`EngineProfile`]).
#[derive(Debug, Default, Clone)]
pub(crate) struct ProfAgg {
    /// Wall-clock per completed engine round (recorded by the sweeper).
    pub(crate) cycle: LogHistogram,
    /// One sample per barrier wait, across all executors.
    pub(crate) barrier: LogHistogram,
    /// One sample per fiber-driver bring-up/resume/collect block.
    pub(crate) stall: LogHistogram,
    /// One sample per vector-driver collect sweep.
    pub(crate) dispatch: LogHistogram,
}

impl ProfAgg {
    /// Package the aggregated histograms as the caller-facing
    /// [`EngineProfile`], deriving the compatibility sums.
    pub(crate) fn into_profile(
        self,
        backend: Backend,
        workers: usize,
        wall_ns: u64,
    ) -> EngineProfile {
        EngineProfile {
            backend,
            workers,
            wall_ns,
            barrier_wait_ns: self.barrier.sum(),
            stall_ns: self.stall.sum().saturating_add(self.dispatch.sum()),
            cycle_latency: self.cycle,
            barrier_wait: self.barrier,
            stall: self.stall,
            dispatch: self.dispatch,
        }
    }
}

impl<M: Clone + Send + Sync> Shared<M> {
    /// Shared state for one run; `participants` is the barrier width (`p`
    /// for the threaded backend, the worker count for the fiber driver).
    pub(crate) fn new(net: &Network, participants: usize) -> Self {
        Shared {
            k: net.channels,
            slots: (0..net.channels)
                .map(|_| RwLock::new(ChanSlot::default()))
                .collect(),
            barrier: SenseBarrier::new(participants),
            done: AtomicBool::new(false),
            failed: AtomicBool::new(false),
            finished: AtomicUsize::new(0),
            round: AtomicU64::new(0),
            failure: Mutex::new(None),
            chan_msgs: (0..net.channels).map(|_| AtomicU64::new(0)).collect(),
            record_trace: net.record_trace,
            profile: net.profile,
            prof: Mutex::new(ProfAgg::default()),
            phases: Mutex::new(vec![String::new()]),
            cycle_budget: net.cycle_budget,
            stall_window: net.stall_window,
            last_activity_round: AtomicU64::new(0),
            last_msg_total: AtomicU64::new(0),
            last_finished: AtomicUsize::new(0),
            framing: net.framing,
            plan: net.fault_plan.as_deref().map(FaultIndex::new),
            faults: Mutex::new(Vec::new()),
            total_procs: net.procs,
            monitor: {
                let monitor = net.monitor.clone();
                if let Some(mon) = &monitor {
                    mon.reset(net.procs, net.channels);
                }
                monitor
            },
            started: Instant::now(),
            last_tick_ns: AtomicU64::new(0),
        }
    }

    /// Record the run's first failure; later failures are dropped.
    pub(crate) fn fail(&self, err: NetError) {
        let mut slot = self.failure.lock();
        if slot.is_none() {
            *slot = Some(err);
        }
        self.failed.store(true, Ordering::Release);
    }

    /// Append one fired fault to the run's fault log.
    pub(crate) fn record_fault(&self, rec: FaultRecord) {
        if let Some(mon) = &self.monitor {
            mon.on_fault(&rec);
        }
        self.faults.lock().push(rec);
    }

    /// Intern a phase label, returning its run-wide id (0 for `""`). Called
    /// only on label transitions; a label seen before is a linear scan of
    /// the (short) table, a new one is a push.
    pub(crate) fn phase_id(&self, name: &str) -> u16 {
        if name.is_empty() {
            return 0;
        }
        let mut table = self.phases.lock();
        if let Some(i) = table.iter().position(|n| n == name) {
            return i as u16;
        }
        assert!(
            table.len() <= u16::MAX as usize,
            "too many distinct phase labels (max 65535)"
        );
        table.push(name.to_owned());
        let id = (table.len() - 1) as u16;
        if let Some(mon) = &self.monitor {
            mon.register_phase(id, name);
        }
        id
    }

    /// Barrier wait, sampled into `acc` when profiling is on.
    #[inline]
    pub(crate) fn barrier_wait(&self, sense: &mut Sense, acc: &mut LogHistogram) -> bool {
        if self.profile {
            let t = Instant::now();
            let winner = self.barrier.wait(sense);
            acc.record(t.elapsed().as_nanos() as u64);
            winner
        } else {
            self.barrier.wait(sense)
        }
    }
}

impl<M: Clone + Send + Sync + MsgWidth> Shared<M> {
    /// Write phase for one processor: validate the channel, detect
    /// collisions, record trace/metrics, deposit the message.
    ///
    /// `events` is the calling executor's *private* trace buffer (`None`
    /// when tracing is off): appending is lock-free, and the buffers are
    /// merged into canonical order by `assemble_report`.
    pub(crate) fn apply_write(
        &self,
        id: ProcId,
        c: ChanId,
        m: M,
        local: &mut LocalMetrics,
        events: Option<&mut Vec<Event<M>>>,
    ) {
        let now = self.round.load(Ordering::Relaxed);
        if c.index() >= self.k {
            self.fail(NetError::BadChannel {
                cycle: now,
                proc: id,
                channel: c,
                k: self.k,
            });
            return;
        }
        if let Some(plan) = &self.plan {
            // Faulted transmissions never reach the channel slot: they do
            // not collide, are not counted as messages, and leave a fault
            // record instead. A stall is processor-scoped (chan = None) so
            // the suppressed write and read of one cycle dedup to one
            // record. With framing on, a corrupted transmission *jams* the
            // slot — carrier energy without a verifiable frame — so framed
            // readers can tell corruption from silence.
            if let Some(kind) = plan.write_fault(id.index(), c.index(), now) {
                self.record_fault(FaultRecord {
                    cycle: now,
                    kind,
                    proc: Some(id),
                    chan: (kind != FaultKind::Stall).then_some(c),
                });
                if self.framing && kind == FaultKind::Corrupt {
                    self.slots[c.index()].write().jammed = true;
                }
                return;
            }
        }
        let bits = m.bits() + if self.framing { FRAME_HEADER_BITS } else { 0 };
        let mut slot = self.slots[c.index()].write();
        match &slot.msg {
            Some((first, _)) => {
                let first = *first;
                drop(slot);
                self.fail(NetError::Collision {
                    cycle: now,
                    channel: c,
                    first,
                    second: id,
                });
            }
            None => {
                if let Some(buf) = events {
                    buf.push(Event {
                        cycle: now,
                        writer: id,
                        channel: c,
                        // Interner id for now; remapped to the canonical
                        // table index by `assemble_report`.
                        phase: (local.cur_phase != 0).then_some(local.cur_phase),
                        msg: m.clone(),
                    });
                }
                slot.msg = Some((id, m));
                drop(slot);
                local.record_message(bits, c.index(), now);
                self.chan_msgs[c.index()].fetch_add(1, Ordering::Relaxed);
                if let Some(mon) = &self.monitor {
                    mon.on_message(local.cur_phase, bits, now);
                }
            }
        }
    }

    /// Read phase for one processor: validate the channel and classify it
    /// into the three-way [`FrameRead`] outcome. A jammed slot (corrupted
    /// transmission under framing) reads as [`FrameRead::Noise`]; a
    /// stalled reader is blacked out and observes [`FrameRead::Silence`]
    /// regardless of traffic. Without framing no slot is ever jammed, so
    /// the outcome is the model's empty-or-message observation.
    pub(crate) fn apply_read(&self, id: ProcId, c: ChanId) -> FrameRead<M> {
        if c.index() >= self.k {
            self.fail(NetError::BadChannel {
                cycle: self.round.load(Ordering::Relaxed),
                proc: id,
                channel: c,
                k: self.k,
            });
            return FrameRead::Silence;
        }
        if let Some(plan) = &self.plan {
            let now = self.round.load(Ordering::Relaxed);
            if plan.is_stalled(id.index(), now) {
                self.record_fault(FaultRecord {
                    cycle: now,
                    kind: FaultKind::Stall,
                    proc: Some(id),
                    chan: None,
                });
                return FrameRead::Silence;
            }
        }
        let slot = self.slots[c.index()].read();
        if slot.jammed {
            return FrameRead::Noise;
        }
        match &slot.msg {
            Some((_, m)) => FrameRead::Clean(m.clone()),
            None => FrameRead::Silence,
        }
    }

    /// Per-cycle sweep, run by exactly one executor after all reads: clear
    /// slots, advance the clock, check the budget, decide termination. Sets
    /// `done` when the run is over.
    pub(crate) fn sweep(&self) {
        for slot in &self.slots {
            let mut s = slot.write();
            if s.msg.is_some() {
                s.msg = None;
            }
            if s.jammed {
                s.jammed = false;
            }
        }
        self.tick();
    }

    /// The slot-independent tail of [`sweep`](Self::sweep): advance the
    /// clock, check the budget and the livelock watchdog, decide
    /// termination. Split out so the vector backend —
    /// which keeps the channel slots in its own columnar buffers and
    /// clears only the dirty ones — shares every decision that must not
    /// drift between backends.
    pub(crate) fn tick(&self) {
        let completed = self.round.fetch_add(1, Ordering::Relaxed) + 1;
        if completed >= self.cycle_budget {
            self.fail(NetError::CycleBudgetExhausted {
                budget: self.cycle_budget,
            });
        }
        // Livelock watchdog: "activity" is a delivered message or a newly
        // finished processor. Only the elected sweeper runs this, so the
        // atomics are plain cells carried across sweep invocations.
        let msg_total: u64 = self
            .chan_msgs
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum();
        let fin = self.finished.load(Ordering::Acquire);
        if msg_total != self.last_msg_total.load(Ordering::Relaxed)
            || fin != self.last_finished.load(Ordering::Relaxed)
        {
            self.last_msg_total.store(msg_total, Ordering::Relaxed);
            self.last_finished.store(fin, Ordering::Relaxed);
            self.last_activity_round.store(completed, Ordering::Relaxed);
        } else if completed - self.last_activity_round.load(Ordering::Relaxed) >= self.stall_window
        {
            self.fail(NetError::Stalled { cycle: completed });
        }
        // Per-round observability taps, piggy-backing on the sums the
        // watchdog just computed. Exactly one sweeper runs per round, so
        // both are uncontended.
        if self.profile {
            let now_ns = self.started.elapsed().as_nanos() as u64;
            let last = self.last_tick_ns.swap(now_ns, Ordering::Relaxed);
            self.prof.lock().cycle.record(now_ns.saturating_sub(last));
        }
        if let Some(mon) = &self.monitor {
            mon.on_cycle(completed, msg_total, fin);
        }
        let all_finished = self.finished.load(Ordering::Acquire) == self.total_procs;
        if all_finished || self.failed.load(Ordering::Acquire) {
            self.done.store(true, Ordering::Release);
        }
    }

    /// Count one delivered message on channel `chan` — the vector driver's
    /// hook into the per-channel tallies that `apply_write` maintains for
    /// the other backends.
    #[inline]
    pub(crate) fn count_channel_message(&self, chan: usize) {
        self.chan_msgs[chan].fetch_add(1, Ordering::Relaxed);
    }
}

/// A processor's handle to the network, passed to the protocol closure.
///
/// All communication goes through [`cycle`](Self::cycle) (or the
/// [`write`](Self::write) / [`read`](Self::read) / [`idle`](Self::idle)
/// shorthands); each call advances the global clock by exactly one cycle
/// across the entire network.
pub struct ProcCtx<'a, M> {
    id: ProcId,
    local: LocalMetrics,
    /// Current phase label as text (`""` = unlabelled); kept here so the
    /// [`PhaseScope`] guard can restore it in both execution modes.
    phase_name: String,
    /// This processor's private trace buffer (threaded backend only; the
    /// fiber driver buffers per worker slot instead).
    events: Vec<Event<M>>,
    /// Per-wait barrier samples (threaded backend, profiling on), merged
    /// into the run's aggregate at thread end.
    prof_barrier: LogHistogram,
    inner: CtxInner<'a, M>,
}

/// How a `ProcCtx` reaches the network.
enum CtxInner<'a, M> {
    /// Threaded backend: this context owns an OS thread that participates
    /// directly in the run's barrier and applies its own writes/reads.
    Lockstep { shared: &'a Shared<M>, sense: Sense },
    /// Fiber driver (closures under `Vector`): this context lives on a
    /// parked helper thread; each `cycle` is a rendezvous with a driver
    /// worker, which applies the write/read on the context's behalf and
    /// sends back the read result plus refreshed clocks.
    Fiber {
        p: usize,
        k: usize,
        now: u64,
        /// Phase-label change not yet shipped to the worker; travels with
        /// the next rendezvous so the worker stamps it before applying the
        /// cycle.
        pending_phase: Option<String>,
        port: crate::fiber::FiberPort<M>,
    },
}

impl<'a, M: Clone + Send + Sync + MsgWidth> ProcCtx<'a, M> {
    /// A fiber-mode context for the fiber driver (see [`CtxInner::Fiber`]).
    pub(crate) fn fiber(id: ProcId, p: usize, k: usize, port: crate::fiber::FiberPort<M>) -> Self {
        ProcCtx {
            id,
            local: LocalMetrics::default(),
            phase_name: String::new(),
            events: Vec::new(),
            prof_barrier: LogHistogram::new(),
            inner: CtxInner::Fiber {
                p,
                k,
                now: 0,
                pending_phase: None,
                port,
            },
        }
    }

    /// This processor's identity.
    #[inline]
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// `p`: total processors in the network.
    #[inline]
    pub fn p(&self) -> usize {
        match &self.inner {
            CtxInner::Lockstep { shared, .. } => shared.total_procs,
            CtxInner::Fiber { p, .. } => *p,
        }
    }

    /// `k`: total channels in the network.
    #[inline]
    pub fn k(&self) -> usize {
        match &self.inner {
            CtxInner::Lockstep { shared, .. } => shared.k,
            CtxInner::Fiber { k, .. } => *k,
        }
    }

    /// Global cycle index: number of completed cycles so far. Only
    /// meaningful between [`cycle`](Self::cycle) calls.
    #[inline]
    pub fn now(&self) -> u64 {
        match &self.inner {
            CtxInner::Lockstep { shared, .. } => shared.round.load(Ordering::Relaxed),
            CtxInner::Fiber { now, .. } => *now,
        }
    }

    /// Cycles this processor's protocol has executed.
    #[inline]
    pub fn cycles_used(&self) -> u64 {
        self.local.cycles
    }

    /// Messages this processor has sent.
    #[inline]
    pub fn messages_sent(&self) -> u64 {
        self.local.messages
    }

    /// Execute one synchronous cycle: optionally write one channel,
    /// optionally read one channel. Returns the message read, or `None`
    /// when no read was requested *or* the read channel was empty (the
    /// model's detectable-empty-channel semantics).
    ///
    /// The read is the engine's framed classification ([`FrameRead`])
    /// folded back to the model's two-way observation: a jammed slot reads
    /// as empty. Without [`Network::framing`] no slot is ever jammed.
    pub fn cycle(&mut self, write: Option<(ChanId, M)>, read: Option<ChanId>) -> Option<M> {
        self.framed_cycle(write, read).clean()
    }

    /// One cycle with a *framed* read (see [`crate::frame`]): instead of
    /// the model's two-way empty-or-message observation, the read
    /// classifies the channel into [`FrameRead::Silence`] /
    /// [`FrameRead::Clean`] / [`FrameRead::Noise`], which is what lets a
    /// reader distinguish a lost transmission from a corrupted one without
    /// oracle access.
    ///
    /// Requires [`Network::framing`] for `Noise` to ever be observable
    /// (without it, corrupt faults empty the slot and read as silence).
    /// With no `read` requested the result is [`FrameRead::Silence`].
    /// Step machines receive this read as their input.
    pub(crate) fn framed_cycle(
        &mut self,
        write: Option<(ChanId, M)>,
        read: Option<ChanId>,
    ) -> FrameRead<M> {
        match &mut self.inner {
            CtxInner::Lockstep { shared, sense } => {
                // ---- planned crash ---------------------------------------
                // Checked at the top of the cycle, before any barrier: the
                // crashing thread leaves the protocol having participated in
                // zero barriers this round, and its drain rounds use the
                // same three-barrier shape as a full cycle, so the rest of
                // the network stays synchronized.
                if let Some(plan) = &shared.plan {
                    let now = shared.round.load(Ordering::Relaxed);
                    if plan
                        .crash_cycle(self.id.index())
                        .is_some_and(|cc| now >= cc)
                    {
                        shared.record_fault(FaultRecord {
                            cycle: now,
                            kind: FaultKind::Crash,
                            proc: Some(self.id),
                            chan: None,
                        });
                        std::panic::resume_unwind(Box::new(Crashed));
                    }
                }
                // ---- write phase -----------------------------------------
                if let Some((c, m)) = write {
                    let events = shared.record_trace.then_some(&mut self.events);
                    shared.apply_write(self.id, c, m, &mut self.local, events);
                }
                shared.barrier_wait(sense, &mut self.prof_barrier); // writes visible

                // ---- read phase ------------------------------------------
                let got = read.map_or(FrameRead::Silence, |c| shared.apply_read(self.id, c));
                self.local
                    .record_cycle(shared.round.load(Ordering::Relaxed));

                if self.finish_round() {
                    // The run was aborted (failure elsewhere, or cycle
                    // budget): unwind out of the protocol without invoking
                    // the panic hook.
                    std::panic::resume_unwind(Box::new(Aborted));
                }
                got
            }
            CtxInner::Fiber {
                now,
                port,
                pending_phase,
                ..
            } => match port.rendezvous(pending_phase.take(), write, read) {
                Some(resume) => {
                    // The worker applied our write/read under the driver's
                    // round structure; adopt its authoritative clocks (the
                    // full per-phase tallies stay on the worker's side —
                    // only the scalars matter to the protocol).
                    self.local.cycles = resume.cycles;
                    self.local.messages = resume.messages;
                    *now = resume.now;
                    resume.read
                }
                // The run is over (failure elsewhere, or cycle budget).
                None => std::panic::resume_unwind(Box::new(Aborted)),
            },
        }
    }

    /// Label all subsequent cycles and messages of this processor with
    /// `name`, until the label changes ( `""` returns to unlabelled).
    ///
    /// Labels feed the per-phase breakdown in
    /// [`Metrics::phases`](crate::Metrics::phases) and stamp trace events;
    /// setting one is free in the cost model (no cycle, no message). See
    /// [`crate::phase`] for the aggregation and nesting conventions.
    pub fn phase(&mut self, name: &str) {
        self.phase_name.clear();
        self.phase_name.push_str(name);
        match &mut self.inner {
            CtxInner::Lockstep { shared, .. } => {
                self.local.cur_phase = shared.phase_id(name);
            }
            CtxInner::Fiber { pending_phase, .. } => {
                *pending_phase = Some(name.to_owned());
            }
        }
    }

    /// The currently active phase label (`""` when unlabelled). Subroutines
    /// use this to only label phases when their caller has not (see
    /// [`crate::phase`]).
    pub fn phase_label(&self) -> &str {
        &self.phase_name
    }

    /// Set phase `name` for a scope: the returned guard derefs to this
    /// context and restores the previous label when dropped.
    pub fn phase_scope<'s>(&'s mut self, name: &str) -> PhaseScope<'s, 'a, M> {
        PhaseScope::enter(self, name)
    }

    /// Snapshot of the identity/clock accessors, for [`StepProtocol`]s.
    pub(crate) fn step_env(&self) -> StepEnv<'a> {
        let monitor = match &self.inner {
            CtxInner::Lockstep { shared, .. } => shared.monitor.as_ref(),
            CtxInner::Fiber { .. } => None,
        };
        StepEnv::new(
            self.id,
            self.p(),
            self.k(),
            self.now(),
            self.local.cycles,
            self.local.messages,
            monitor,
        )
    }

    /// Write-only cycle.
    pub fn write(&mut self, chan: ChanId, msg: M) {
        self.cycle(Some((chan, msg)), None);
    }

    /// Read-only cycle.
    pub fn read(&mut self, chan: ChanId) -> Option<M> {
        self.cycle(None, Some(chan))
    }

    /// Do-nothing cycle (keeps this processor in lock-step).
    pub fn idle(&mut self) {
        self.cycle(None, None);
    }

    /// Idle for `n` cycles.
    pub fn idle_for(&mut self, n: u64) {
        for _ in 0..n {
            self.idle();
        }
    }

    /// Shared tail of every lockstep round: sweep barrier + cleanup + final
    /// barrier. Returns true when the run is over (normally or by abort).
    fn finish_round(&mut self) -> bool {
        let CtxInner::Lockstep { shared, sense } = &mut self.inner else {
            unreachable!("finish_round is a lockstep-only path");
        };
        let winner = shared.barrier_wait(sense, &mut self.prof_barrier); // reads done
        if winner {
            // Elected sweeper for this cycle: clear slots, advance the
            // clock, decide termination.
            shared.sweep();
        }
        shared.barrier_wait(sense, &mut self.prof_barrier); // sweep visible
        shared.done.load(Ordering::Acquire)
    }

    /// One no-op round for a finished processor; returns true when the run
    /// is over. Drain rounds are excluded from the processor's cycle count.
    fn drain_round(&mut self) -> bool {
        let CtxInner::Lockstep { shared, sense } = &mut self.inner else {
            unreachable!("drain_round is a lockstep-only path");
        };
        shared.barrier_wait(sense, &mut self.prof_barrier); // write phase (no-op)
        self.finish_round()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every processor broadcasts once on its own channel; everyone reads a
    /// ring neighbour. Exercises p = k full-parallel traffic.
    #[test]
    fn ring_exchange_p_equals_k() {
        let p = 8;
        let report = Network::new(p, p)
            .run(|ctx| {
                let me = ctx.id().index();
                let from = ChanId::from_index((me + 1) % ctx.p());
                ctx.cycle(Some((ChanId::from_index(me), me as u64 * 10)), Some(from))
            })
            .unwrap();
        for (i, r) in report.results.iter().enumerate() {
            let expect = ((i + 1) % p) as u64 * 10;
            assert_eq!(r.unwrap(), Some(expect), "processor {i}");
        }
        assert_eq!(report.metrics.messages, p as u64);
        assert_eq!(report.metrics.cycles, 1);
        assert_eq!(report.metrics.per_channel_messages, vec![1; p]);
    }

    #[test]
    fn empty_channel_is_detectable() {
        let report = Network::new(2, 2)
            .run(|ctx| {
                if ctx.id().index() == 0 {
                    ctx.write(ChanId(0), 5u64);
                    None
                } else {
                    // Reads the *other* channel, which nobody wrote.
                    ctx.read(ChanId(1))
                }
            })
            .unwrap();
        assert_eq!(report.results[1], Some(None));
    }

    #[test]
    fn collision_fails_the_run() {
        let err = Network::new(4, 2)
            .run(|ctx| {
                // P1 and P2 both write channel 0 in cycle 0.
                if ctx.id().index() < 2 {
                    ctx.write(ChanId(0), 1u64);
                } else {
                    ctx.idle();
                }
            })
            .unwrap_err();
        match err {
            NetError::Collision { channel, cycle, .. } => {
                assert_eq!(channel, ChanId(0));
                assert_eq!(cycle, 0);
            }
            other => panic!("expected collision, got {other}"),
        }
    }

    #[test]
    fn concurrent_reads_are_fine() {
        let p = 16;
        let report = Network::new(p, 4)
            .run(|ctx| {
                if ctx.id().index() == 0 {
                    ctx.cycle(Some((ChanId(2), 99u64)), Some(ChanId(2)))
                } else {
                    ctx.read(ChanId(2))
                }
            })
            .unwrap();
        for r in report.into_results() {
            assert_eq!(r, Some(99));
        }
    }

    #[test]
    fn early_finishers_idle_while_stragglers_run() {
        let p = 4;
        let report = Network::new(p, p)
            .run(|ctx| {
                let me = ctx.id().index();
                // Processor i runs i+1 cycles, each broadcasting once.
                for c in 0..=me {
                    ctx.write(ChanId::from_index(me), c as u64);
                }
                ctx.cycles_used()
            })
            .unwrap();
        assert_eq!(report.metrics.cycles, p as u64);
        assert_eq!(report.metrics.messages, (1 + 2 + 3 + 4) as u64);
        assert_eq!(report.metrics.per_proc_cycles, vec![1, 2, 3, 4]);
        assert!(report.metrics.rounds >= report.metrics.cycles);
    }

    #[test]
    fn protocol_panic_is_reported_not_hung() {
        let err = Network::new(3, 3)
            .run(|ctx: &mut ProcCtx<'_, u64>| {
                if ctx.id().index() == 1 {
                    panic!("injected bug");
                }
                // Others would wait forever for a message that never comes;
                // the abort machinery must still terminate them.
                loop {
                    if ctx.read(ChanId(0)).is_some() {
                        break;
                    }
                }
            })
            .unwrap_err();
        match err {
            NetError::ProcPanicked { proc, message } => {
                assert_eq!(proc, ProcId(1));
                assert!(message.contains("injected bug"));
            }
            other => panic!("expected panic report, got {other}"),
        }
    }

    #[test]
    fn cycle_budget_stops_livelock() {
        let err = Network::new(2, 2)
            .cycle_budget(100)
            .run(|ctx: &mut ProcCtx<'_, u64>| loop {
                ctx.idle();
            })
            .unwrap_err();
        assert_eq!(err, NetError::CycleBudgetExhausted { budget: 100 });
    }

    #[test]
    fn bad_channel_index_is_reported() {
        let err = Network::new(2, 2)
            .run(|ctx| {
                ctx.write(ChanId(7), 1u64);
            })
            .unwrap_err();
        match err {
            NetError::BadChannel { channel, k, .. } => {
                assert_eq!(channel, ChanId(7));
                assert_eq!(k, 2);
            }
            other => panic!("expected bad channel, got {other}"),
        }
    }

    #[test]
    fn k_greater_than_p_rejected() {
        let err = Network::new(2, 3)
            .run(|ctx: &mut ProcCtx<'_, u64>| ctx.idle())
            .unwrap_err();
        assert!(matches!(err, NetError::BadConfig(_)));
    }

    #[test]
    fn zero_sizes_rejected() {
        assert!(matches!(
            Network::new(0, 1)
                .run(|ctx: &mut ProcCtx<'_, u64>| ctx.idle())
                .unwrap_err(),
            NetError::BadConfig(_)
        ));
        assert!(matches!(
            Network::new(1, 0)
                .run(|ctx: &mut ProcCtx<'_, u64>| ctx.idle())
                .unwrap_err(),
            NetError::BadConfig(_)
        ));
    }

    #[test]
    fn trace_records_all_messages_in_order() {
        let report = Network::new(3, 3)
            .record_trace(true)
            .run(|ctx| {
                let me = ctx.id().index();
                ctx.write(ChanId::from_index(me), me as u64);
                ctx.idle();
                ctx.write(ChanId::from_index(me), 10 + me as u64);
            })
            .unwrap();
        let trace = report.trace.unwrap();
        assert_eq!(trace.len(), 6);
        let cycles: Vec<u64> = trace.events().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![0, 0, 0, 2, 2, 2]);
        assert_eq!(trace.cycle_events(0).count(), 3);
        assert_eq!(trace.cycle_events(1).count(), 0);
    }

    #[test]
    fn bit_accounting_tracks_payload_widths() {
        let report = Network::new(2, 2)
            .run(|ctx| {
                if ctx.id().index() == 0 {
                    ctx.write(ChanId(0), 255u64); // 8 bits
                    ctx.write(ChanId(0), 65536u64); // 17 bits
                } else {
                    ctx.idle_for(2);
                }
            })
            .unwrap();
        assert_eq!(report.metrics.messages, 2);
        assert_eq!(report.metrics.total_bits, 25);
        assert_eq!(report.metrics.max_msg_bits, 17);
    }

    #[test]
    fn determinism_across_repeated_runs() {
        let run = || {
            Network::new(6, 3)
                .run(|ctx| {
                    let me = ctx.id().index();
                    let mut acc = 0u64;
                    for round in 0..10u64 {
                        let writer = (round as usize) % ctx.p();
                        let chan = ChanId::from_index(writer % ctx.k());
                        let msg = if me == writer {
                            Some((chan, round * 7 + me as u64))
                        } else {
                            None
                        };
                        if let Some(v) = ctx.cycle(msg, Some(chan)) {
                            acc = acc.wrapping_mul(31).wrapping_add(v);
                        }
                    }
                    acc
                })
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.into_results(), b.into_results());
    }

    #[test]
    fn mcb_backend_values_parse_or_fail_loudly() {
        // Tested on the pure parser: setting the variable here would race
        // every other test in the binary.
        for (value, want) in [
            ("threaded", Backend::Threaded),
            ("Threaded", Backend::Threaded),
            ("vector", Backend::Vector),
            ("VECTOR", Backend::Vector),
        ] {
            assert_eq!(Backend::from_env_value(value), Ok(want), "{value}");
        }
        for value in ["pooled", "auto", "", " vector", "thread"] {
            match Backend::from_env_value(value) {
                Err(NetError::BadConfig(msg)) => {
                    assert!(msg.contains("threaded|vector"), "{value}: {msg}");
                    assert!(msg.contains(&format!("{value:?}")), "{value}: {msg}");
                }
                other => panic!("{value:?} must be rejected, got {other:?}"),
            }
        }
    }
}
