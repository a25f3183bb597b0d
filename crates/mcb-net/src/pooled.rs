//! The pooled (coarse-grained) execution backend.
//!
//! The threaded backend gives every logical processor an OS thread and
//! synchronizes all `p` of them with a barrier three times per cycle —
//! faithful, but catastrophically slow once `p` is far beyond the core
//! count, because every barrier episode makes the OS schedule `p` mostly
//! idle threads. This backend inverts the arrangement: a handful of
//! **workers** (`min(p, cores)`, one contiguous chunk of logical processors
//! each) drive all `p` processors through the same round structure, so the
//! per-cycle barrier spans only the workers.
//!
//! A round here mirrors [`ProcCtx::cycle`](crate::ProcCtx::cycle) on the
//! threaded backend phase for phase, calling the *same*
//! [`Shared`] methods:
//!
//! 1. **write phase** — each worker applies its units' pending writes
//!    ([`Shared::apply_write`]); worker barrier;
//! 2. **read phase** — each worker applies its units' reads
//!    ([`Shared::apply_read`]); worker barrier;
//! 3. **sweep** — the barrier winner runs [`Shared::sweep`] (slot clearing,
//!    clock advance, budget and termination checks);
//!    worker barrier;
//! 4. **resume** — each worker hands every unit its read result and
//!    collects the unit's next request (or its completion).
//!
//! Because the semantics live in `Shared` and are shared by construction,
//! the two backends produce identical results, metrics, traces, and error
//! classification; the equivalence is additionally pinned by the
//! `backend_equivalence` integration tests.
//!
//! Two kinds of **unit** plug into the round loop:
//!
//! * [`StepUnit`] — a [`StepProtocol`] state machine, advanced in place on
//!   the worker. No per-processor thread exists at all.
//! * [`FiberUnit`] — a closure protocol suspended on a parked helper
//!   thread ("fiber"). Each cycle is one rendezvous: the worker sends the
//!   read result over a channel, the fiber computes until its next
//!   [`cycle`](crate::ProcCtx::cycle) call, and sends back its next
//!   write/read request. The fiber's thread is parked except during its
//!   own compute slice, so there is no barrier-wide contention — this is
//!   what lets arbitrary closure protocols run unchanged on this backend.

use crate::barrier::Sense;
use crate::engine::{
    assemble_report, panic_message, Aborted, Backend, Escalated, Network, ProcCtx, RunReport,
    Shared,
};
use crate::error::NetError;
use crate::fault::{FaultKind, FaultRecord};
use crate::frame::FrameRead;
use crate::ids::{ChanId, ProcId};
use crate::message::MsgWidth;
use crate::metrics::{LocalMetrics, LogHistogram};
use crate::step::{Step, StepEnv, StepProtocol};
use crate::sync::Mutex;
use crate::trace::Event;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Instant;

/// One cycle's worth of intent from a suspended unit.
pub(crate) struct Request<M> {
    /// Phase-label change to apply before this cycle executes, if any.
    phase: Option<String>,
    write: Option<(ChanId, M)>,
    read: Option<ChanId>,
}

/// Worker → unit resumption payload: the read result plus the unit's
/// refreshed clocks (the worker's copies are authoritative; the fiber only
/// needs the scalars, so the per-phase tallies stay worker-side and are
/// never cloned per cycle).
pub(crate) struct Resume<M> {
    pub(crate) read: FrameRead<M>,
    pub(crate) cycles: u64,
    pub(crate) messages: u64,
    pub(crate) now: u64,
}

/// The fiber-side half of the rendezvous, owned by a fiber-mode
/// [`ProcCtx`].
pub(crate) struct FiberPort<M> {
    requests: Sender<FiberEvent<M>>,
    resume: Receiver<Option<Resume<M>>>,
}

impl<M> FiberPort<M> {
    /// Send this cycle's intent and block until the worker has executed it.
    /// `None` means the run is over and the caller must unwind.
    pub(crate) fn rendezvous(
        &self,
        phase: Option<String>,
        write: Option<(ChanId, M)>,
        read: Option<ChanId>,
    ) -> Option<Resume<M>> {
        let req = Request { phase, write, read };
        if self.requests.send(FiberEvent::Yielded(req)).is_err() {
            return None;
        }
        self.resume.recv().ok().flatten()
    }
}

/// Unit → worker events.
enum FiberEvent<M> {
    /// The protocol reached its next `cycle` call.
    Yielded(Request<M>),
    /// The protocol returned; its result is already in the results table.
    Finished,
    /// The protocol panicked with this message.
    Panicked(String),
    /// The protocol wants to fail the run with this error (the epoch
    /// census gave up or saw the configuration split).
    Escalated(NetError),
}

/// A unit's answer to "what do you do next?".
enum UnitStatus<M> {
    Yielded(Request<M>),
    Finished,
    Panicked(String),
    Escalated(NetError),
}

/// A logical processor the pooled driver can advance cycle-by-cycle.
trait Unit<M>: Send {
    /// Hand the unit its read result; must not block.
    fn resume(&mut self, resume: Resume<M>);
    /// Advance the unit to its next `cycle` call (may block on a fiber's
    /// compute slice) and return its next request or completion.
    fn collect(&mut self, now: u64) -> UnitStatus<M>;
    /// The run is over; release the unit (unblocks a fiber's thread).
    fn abort(&mut self);
}

/// A closure protocol suspended on a parked helper thread.
struct FiberUnit<M> {
    to_fiber: Sender<Option<Resume<M>>>,
    from_fiber: Receiver<FiberEvent<M>>,
}

impl<M: Send> Unit<M> for FiberUnit<M> {
    fn resume(&mut self, resume: Resume<M>) {
        // A send can only fail if the fiber already exited, which it never
        // does while it owes us a request.
        let _ = self.to_fiber.send(Some(resume));
    }

    fn collect(&mut self, _now: u64) -> UnitStatus<M> {
        match self.from_fiber.recv() {
            Ok(FiberEvent::Yielded(req)) => UnitStatus::Yielded(req),
            Ok(FiberEvent::Finished) => UnitStatus::Finished,
            Ok(FiberEvent::Panicked(msg)) => UnitStatus::Panicked(msg),
            Ok(FiberEvent::Escalated(err)) => UnitStatus::Escalated(err),
            // Disconnected without a final event: treat as a panic so the
            // run fails loudly instead of hanging.
            Err(_) => UnitStatus::Panicked("fiber exited without reporting".into()),
        }
    }

    fn abort(&mut self) {
        let _ = self.to_fiber.send(None);
    }
}

/// A [`StepProtocol`] state machine advanced in place on the worker.
struct StepUnit<'e, M, S: StepProtocol<M>> {
    machine: S,
    id: ProcId,
    p: usize,
    k: usize,
    input: Option<M>,
    cycles_used: u64,
    messages_sent: u64,
    /// Remaining cycles of a [`Step::IdleFor`] span: while nonzero,
    /// `collect` yields empty requests without calling `step` at all.
    idle_left: u64,
    results: &'e Mutex<Vec<Option<S::Output>>>,
}

impl<M, S> Unit<M> for StepUnit<'_, M, S>
where
    M: Send,
    S: StepProtocol<M> + Send,
    S::Output: Send,
{
    fn resume(&mut self, resume: Resume<M>) {
        self.input = resume.read.clean();
        self.cycles_used = resume.cycles;
        self.messages_sent = resume.messages;
    }

    fn collect(&mut self, now: u64) -> UnitStatus<M> {
        if self.idle_left > 0 {
            // Mid-`IdleFor` span: one more empty cycle, no `step` call.
            self.idle_left -= 1;
            return UnitStatus::Yielded(Request {
                phase: None,
                write: None,
                read: None,
            });
        }
        let env = StepEnv::new(
            self.id,
            self.p,
            self.k,
            now,
            self.cycles_used,
            self.messages_sent,
        );
        let input = self.input.take();
        match catch_unwind(AssertUnwindSafe(|| self.machine.step(&env, input))) {
            Ok(Step::Yield { write, read }) => UnitStatus::Yielded(Request {
                // A phase requested during `step` labels the yielded cycle
                // (same ordering as the threaded driver).
                phase: env.take_phase(),
                write,
                read,
            }),
            Ok(Step::IdleFor(n)) => {
                // First idle cycle of the span carries the phase change (if
                // any); the remaining n-1 are produced by the countdown.
                self.idle_left = n.max(1) - 1;
                UnitStatus::Yielded(Request {
                    phase: env.take_phase(),
                    write: None,
                    read: None,
                })
            }
            Ok(Step::Done(r)) => {
                self.results.lock()[self.id.index()] = Some(r);
                UnitStatus::Finished
            }
            Err(payload) => {
                if let Some(esc) = payload.downcast_ref::<Escalated>() {
                    UnitStatus::Escalated(esc.0.clone())
                } else {
                    UnitStatus::Panicked(panic_message(payload.as_ref()))
                }
            }
        }
    }

    fn abort(&mut self) {}
}

/// Driver-side bookkeeping for one logical processor.
struct UnitSlot<M, U> {
    id: ProcId,
    local: LocalMetrics,
    /// This slot's private trace buffer (lock-free; merged at run end).
    events: Vec<Event<M>>,
    pending: Option<Request<M>>,
    read_val: FrameRead<M>,
    awaiting: bool,
    unit: U,
}

impl<M, U> UnitSlot<M, U> {
    fn new(id: ProcId, unit: U) -> Self {
        UnitSlot {
            id,
            local: LocalMetrics::default(),
            events: Vec::new(),
            pending: None,
            read_val: FrameRead::Silence,
            awaiting: false,
            unit,
        }
    }
}

/// Worker count and chunking for `p` logical processors.
fn chunking(p: usize) -> (usize, usize) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = p.div_ceil(p.min(cores));
    (chunk, p.div_ceil(chunk))
}

/// Absorb one unit's status into the slot and the shared run state.
fn absorb<M, U>(slot: &mut UnitSlot<M, U>, status: UnitStatus<M>, shared: &Shared<M>)
where
    M: Clone + Send + Sync + MsgWidth,
{
    match status {
        UnitStatus::Yielded(req) => slot.pending = Some(req),
        UnitStatus::Finished => {
            shared.finished.fetch_add(1, Ordering::AcqRel);
        }
        UnitStatus::Panicked(message) => {
            shared.fail(NetError::ProcPanicked {
                proc: slot.id,
                message,
            });
            shared.finished.fetch_add(1, Ordering::AcqRel);
        }
        UnitStatus::Escalated(err) => {
            shared.fail(err);
            shared.finished.fetch_add(1, Ordering::AcqRel);
        }
    }
}

/// Advance one worker's chunk of units until the run is over. Mirrors the
/// threaded backend's `cycle`/`finish_round` phase structure exactly.
fn drive<M, U>(shared: &Shared<M>, chunk: &mut [UnitSlot<M, U>])
where
    M: Clone + Send + Sync + MsgWidth,
    U: Unit<M>,
{
    let mut sense = Sense::new();
    // Wall-clock profiling histograms (contributed to the run once, at the
    // end): one sample per barrier wait, and one per block spent waiting
    // for the units' protocol compute (fiber rendezvous / state-machine
    // steps).
    let mut barrier = LogHistogram::new();
    let mut stall = LogHistogram::new();
    // Bring every unit to its first `cycle` call (or completion).
    let t0 = shared.profile.then(Instant::now);
    for slot in chunk.iter_mut() {
        let status = slot.unit.collect(0);
        absorb(slot, status, shared);
    }
    if let Some(t) = t0 {
        stall.record(t.elapsed().as_nanos() as u64);
    }
    loop {
        // ---- write phase -------------------------------------------------
        let now = shared.round.load(Ordering::Relaxed);
        for slot in chunk.iter_mut() {
            // Planned crash: checked at the top of the round, mirroring the
            // threaded backend's check at the top of `cycle`. The crashed
            // unit's pending request is discarded (its write never happens)
            // and its result slot stays `None`.
            if slot.pending.is_some() {
                if let Some(plan) = &shared.plan {
                    if plan
                        .crash_cycle(slot.id.index())
                        .is_some_and(|cc| now >= cc)
                    {
                        shared.record_fault(FaultRecord {
                            cycle: now,
                            kind: FaultKind::Crash,
                            proc: Some(slot.id),
                            chan: None,
                        });
                        slot.pending = None;
                        slot.unit.abort();
                        shared.finished.fetch_add(1, Ordering::AcqRel);
                        continue;
                    }
                }
            }
            if let Some(req) = &mut slot.pending {
                if let Some(name) = req.phase.take() {
                    slot.local.cur_phase = shared.phase_id(&name);
                }
                if let Some((c, m)) = req.write.take() {
                    let events = shared.record_trace.then_some(&mut slot.events);
                    shared.apply_write(slot.id, c, m, &mut slot.local, events);
                }
            }
        }
        shared.barrier_wait(&mut sense, &mut barrier); // writes visible

        // ---- read phase --------------------------------------------------
        let now = shared.round.load(Ordering::Relaxed);
        for slot in chunk.iter_mut() {
            if let Some(req) = &slot.pending {
                slot.read_val = req
                    .read
                    .map_or(FrameRead::Silence, |c| shared.apply_read(slot.id, c));
                slot.local.record_cycle(now);
            }
        }
        let winner = shared.barrier_wait(&mut sense, &mut barrier); // reads done
        if winner {
            shared.sweep();
        }
        shared.barrier_wait(&mut sense, &mut barrier); // sweep visible

        if shared.done.load(Ordering::Acquire) {
            for slot in chunk.iter_mut() {
                if slot.pending.is_some() {
                    slot.unit.abort();
                }
            }
            if shared.profile {
                let mut prof = shared.prof.lock();
                prof.barrier.merge(&barrier);
                prof.stall.merge(&stall);
            }
            return;
        }

        // ---- resume + collect (the units' compute phase) -----------------
        let now = shared.round.load(Ordering::Relaxed);
        let t0 = shared.profile.then(Instant::now);
        for slot in chunk.iter_mut() {
            if slot.pending.take().is_some() {
                slot.awaiting = true;
                slot.unit.resume(Resume {
                    read: std::mem::replace(&mut slot.read_val, FrameRead::Silence),
                    cycles: slot.local.cycles,
                    messages: slot.local.messages,
                    now,
                });
            }
        }
        for slot in chunk.iter_mut() {
            if std::mem::take(&mut slot.awaiting) {
                let status = slot.unit.collect(now);
                absorb(slot, status, shared);
            }
        }
        if let Some(t) = t0 {
            stall.record(t.elapsed().as_nanos() as u64);
        }
    }
}

/// Pooled execution of a closure protocol: every logical processor gets a
/// parked fiber thread, advanced by the worker pool.
pub(crate) fn run_closures<M, R, F>(
    net: &Network,
    protocol: &F,
) -> Result<RunReport<R, M>, NetError>
where
    M: Clone + Send + Sync + MsgWidth,
    R: Send,
    F: Fn(&mut ProcCtx<'_, M>) -> R + Sync,
{
    let p = net.p();
    let k = net.k();
    let (chunk_size, workers) = chunking(p);
    let shared = Shared::new(net, workers);
    let started = Instant::now();
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..p).map(|_| None).collect());

    let mut slots = Vec::with_capacity(p);
    let mut ports = Vec::with_capacity(p);
    for i in 0..p {
        let (req_tx, req_rx) = channel();
        let (res_tx, res_rx) = channel();
        slots.push(UnitSlot::new(
            ProcId::from_index(i),
            FiberUnit {
                to_fiber: res_tx,
                from_fiber: req_rx,
            },
        ));
        ports.push((
            FiberPort {
                requests: req_tx.clone(),
                resume: res_rx,
            },
            req_tx,
        ));
    }

    let monitor = net.monitor_core();
    std::thread::scope(|scope| {
        for (i, (port, events)) in ports.into_iter().enumerate() {
            let results = &results;
            let monitor = monitor.clone();
            scope.spawn(move || {
                let mut ctx = ProcCtx::fiber(ProcId::from_index(i), p, k, monitor, port);
                match catch_unwind(AssertUnwindSafe(|| protocol(&mut ctx))) {
                    Ok(r) => {
                        results.lock()[i] = Some(r);
                        let _ = events.send(FiberEvent::Finished);
                    }
                    Err(payload) => {
                        if let Some(esc) = payload.downcast_ref::<Escalated>() {
                            // The epoch layer gave up: ship the carried
                            // error to the driver.
                            let _ = events.send(FiberEvent::Escalated(esc.0.clone()));
                        } else if payload.downcast_ref::<Aborted>().is_none() {
                            let _ =
                                events.send(FiberEvent::Panicked(panic_message(payload.as_ref())));
                        }
                    }
                }
            });
        }
        let shared = &shared;
        for chunk in slots.chunks_mut(chunk_size) {
            scope.spawn(move || drive(shared, chunk));
        }
    });

    let locals = slots.iter().map(|s| s.local.clone()).collect();
    let events: Vec<Event<M>> = slots.iter_mut().flat_map(|s| s.events.drain(..)).collect();
    let profile = shared.profile.then(|| {
        let agg = shared.prof.lock().clone();
        agg.into_profile(
            Backend::Pooled,
            workers,
            started.elapsed().as_nanos() as u64,
        )
    });
    assemble_report(shared, locals, results.into_inner(), events, profile)
}

/// Pooled execution of [`StepProtocol`] state machines: no per-processor
/// threads at all.
pub(crate) fn run_steps<M, S, F>(
    net: &Network,
    factory: &F,
) -> Result<RunReport<S::Output, M>, NetError>
where
    M: Clone + Send + Sync + MsgWidth,
    S: StepProtocol<M> + Send,
    S::Output: Send,
    F: Fn(ProcId) -> S + Sync,
{
    let p = net.p();
    let k = net.k();
    let (chunk_size, workers) = chunking(p);
    let shared = Shared::new(net, workers);
    let started = Instant::now();
    let results: Mutex<Vec<Option<S::Output>>> = Mutex::new((0..p).map(|_| None).collect());

    let mut slots = Vec::with_capacity(p);
    for i in 0..p {
        let id = ProcId::from_index(i);
        slots.push(UnitSlot::new(
            id,
            StepUnit {
                machine: factory(id),
                id,
                p,
                k,
                input: None,
                cycles_used: 0,
                messages_sent: 0,
                idle_left: 0,
                results: &results,
            },
        ));
    }

    std::thread::scope(|scope| {
        let shared = &shared;
        for chunk in slots.chunks_mut(chunk_size) {
            scope.spawn(move || drive(shared, chunk));
        }
    });

    let locals = slots.iter().map(|s| s.local.clone()).collect();
    let events: Vec<Event<M>> = slots.iter_mut().flat_map(|s| s.events.drain(..)).collect();
    drop(slots); // release the units' borrow of `results`
    let profile = shared.profile.then(|| {
        let agg = shared.prof.lock().clone();
        agg.into_profile(
            Backend::Pooled,
            workers,
            started.elapsed().as_nanos() as u64,
        )
    });
    assemble_report(shared, locals, results.into_inner(), events, profile)
}
