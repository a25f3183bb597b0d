//! The fiber driver: how [`Backend::Vector`] runs closure protocols.
//!
//! A closure protocol blocks inside [`ProcCtx::cycle`](crate::ProcCtx::cycle),
//! so it needs a suspended call stack per processor, which the columnar
//! step driver (`vector.rs`) cannot provide. This driver gives each logical
//! processor a parked helper thread (a "fiber") and advances all of them
//! from a handful of **workers** (`min(p, cores)`, one contiguous chunk of
//! processors each), so the per-cycle barrier spans only the workers, not
//! `p` threads.
//!
//! A round here mirrors [`ProcCtx::cycle`](crate::ProcCtx::cycle) on the
//! threaded backend phase for phase, calling the *same* [`Shared`]
//! methods:
//!
//! 1. **write phase** — each worker applies its fibers' pending writes
//!    ([`Shared::apply_write`]); worker barrier;
//! 2. **read phase** — each worker applies its fibers' reads
//!    ([`Shared::apply_read`]); worker barrier;
//! 3. **sweep** — the barrier winner runs [`Shared::sweep`] (slot clearing,
//!    clock advance, budget and termination checks);
//!    worker barrier;
//! 4. **resume** — each worker hands every fiber its read result and
//!    collects the fiber's next request (or its completion).
//!
//! Each cycle is one rendezvous per fiber: the worker sends the read result
//! over a channel, the fiber computes until its next `cycle` call, and sends
//! back its next write/read request. The fiber's thread is parked except
//! during its own compute slice, so there is no barrier-wide contention.
//!
//! Because the semantics live in `Shared` and are shared by construction,
//! this driver and the threaded backend produce identical results, metrics,
//! traces, and error classification; the equivalence is additionally
//! pinned by the `backend_equivalence` integration tests.

use crate::barrier::Sense;
use crate::engine::{
    assemble_report, panic_message, Aborted, Backend, Network, ProcCtx, RunReport, Shared,
};
use crate::error::NetError;
use crate::fault::{FaultKind, FaultRecord};
use crate::frame::FrameRead;
use crate::ids::{ChanId, ProcId};
use crate::message::MsgWidth;
use crate::metrics::{LocalMetrics, LogHistogram};
use crate::sync::Mutex;
use crate::trace::Event;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Instant;

/// One cycle's worth of intent from a suspended fiber.
pub(crate) struct Request<M> {
    /// Phase-label change to apply before this cycle executes, if any.
    phase: Option<String>,
    write: Option<(ChanId, M)>,
    read: Option<ChanId>,
}

/// Worker → fiber resumption payload: the read result plus the fiber's
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

/// Fiber → worker events.
enum FiberEvent<M> {
    /// The protocol reached its next `cycle` call.
    Yielded(Request<M>),
    /// The protocol returned; its result is already in the results table.
    Finished,
    /// The protocol panicked with this message.
    Panicked(String),
}

/// The worker-side half of the rendezvous: a closure protocol suspended on
/// a parked helper thread.
struct FiberUnit<M> {
    to_fiber: Sender<Option<Resume<M>>>,
    from_fiber: Receiver<FiberEvent<M>>,
}

impl<M> FiberUnit<M> {
    /// Hand the fiber its read result; never blocks.
    fn resume(&mut self, resume: Resume<M>) {
        // A send can only fail if the fiber already exited, which it never
        // does while it owes us a request.
        let _ = self.to_fiber.send(Some(resume));
    }

    /// Block until the fiber reaches its next `cycle` call (or ends).
    fn collect(&mut self) -> FiberEvent<M> {
        // Disconnected without a final event: treat as a panic so the run
        // fails loudly instead of hanging.
        self.from_fiber
            .recv()
            .unwrap_or_else(|_| FiberEvent::Panicked("fiber exited without reporting".into()))
    }

    /// The run is over; unblock the fiber's thread so it unwinds.
    fn abort(&mut self) {
        let _ = self.to_fiber.send(None);
    }
}

/// Driver-side bookkeeping for one logical processor.
struct UnitSlot<M> {
    id: ProcId,
    local: LocalMetrics,
    /// This slot's private trace buffer (lock-free; merged at run end).
    events: Vec<Event<M>>,
    pending: Option<Request<M>>,
    read_val: FrameRead<M>,
    awaiting: bool,
    unit: FiberUnit<M>,
}

impl<M> UnitSlot<M> {
    fn new(id: ProcId, unit: FiberUnit<M>) -> Self {
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

/// Absorb one fiber's event into the slot and the shared run state.
fn absorb<M>(slot: &mut UnitSlot<M>, event: FiberEvent<M>, shared: &Shared<M>)
where
    M: Clone + Send + Sync + MsgWidth,
{
    match event {
        FiberEvent::Yielded(req) => slot.pending = Some(req),
        FiberEvent::Finished => {
            shared.finished.fetch_add(1, Ordering::AcqRel);
        }
        FiberEvent::Panicked(message) => {
            shared.fail(NetError::ProcPanicked {
                proc: slot.id,
                message,
            });
            shared.finished.fetch_add(1, Ordering::AcqRel);
        }
    }
}

/// Advance one worker's chunk of fibers until the run is over. Mirrors the
/// threaded backend's `cycle`/`finish_round` phase structure exactly.
fn drive<M>(shared: &Shared<M>, chunk: &mut [UnitSlot<M>])
where
    M: Clone + Send + Sync + MsgWidth,
{
    let mut sense = Sense::new();
    // Wall-clock profiling histograms (contributed to the run once, at the
    // end): one sample per barrier wait, and one per block spent waiting
    // for the fibers' protocol compute.
    let mut barrier = LogHistogram::new();
    let mut stall = LogHistogram::new();
    // Bring every fiber to its first `cycle` call (or completion).
    let t0 = shared.profile.then(Instant::now);
    for slot in chunk.iter_mut() {
        let event = slot.unit.collect();
        absorb(slot, event, shared);
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
            // fiber's pending request is discarded (its write never happens)
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

        // ---- resume + collect (the fibers' compute phase) ----------------
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
                let event = slot.unit.collect();
                absorb(slot, event, shared);
            }
        }
        if let Some(t) = t0 {
            stall.record(t.elapsed().as_nanos() as u64);
        }
    }
}

/// Run a closure protocol with every logical processor on a parked fiber
/// thread, advanced by `min(p, cores)` workers.
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

    std::thread::scope(|scope| {
        for (i, (port, events)) in ports.into_iter().enumerate() {
            let results = &results;
            scope.spawn(move || {
                let mut ctx = ProcCtx::fiber(ProcId::from_index(i), p, k, port);
                match catch_unwind(AssertUnwindSafe(|| protocol(&mut ctx))) {
                    Ok(r) => {
                        results.lock()[i] = Some(r);
                        let _ = events.send(FiberEvent::Finished);
                    }
                    Err(payload) => {
                        if payload.downcast_ref::<Aborted>().is_none() {
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
            Backend::Vector,
            workers,
            started.elapsed().as_nanos() as u64,
        )
    });
    assemble_report(shared, locals, results.into_inner(), events, profile)
}
