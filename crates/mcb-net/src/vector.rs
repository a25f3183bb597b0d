//! The vector (struct-of-arrays) execution backend for step machines.
//!
//! The threaded backend pays an OS thread and three barrier crossings per
//! processor per cycle. This driver pays neither, and no per-unit dispatch
//! either: it runs on **one** thread, keeps all per-processor state in
//! flat columns (machine, write intent, read intent, read result, metrics,
//! status), and executes each cycle as tight loops over the *active*
//! processors only:
//!
//! 1. **write phase** — for each active processor: planned-crash check,
//!    then deposit its write intent into the channel columns (same
//!    validation, fault, framing, trace, and accounting rules as
//!    [`Shared::apply_write`], inlined over the columns);
//! 2. **read phase** — for each active processor: resolve its read intent
//!    against the channel columns ([`Shared::apply_read`] semantics) and
//!    account the cycle;
//! 3. **sweep** — clear only the *dirty* channel columns, then run the
//!    shared [`Shared::tick`] (clock, budget, watchdog, termination) so
//!    every run-level decision is taken by the exact same code as the
//!    other backends;
//! 4. **collect** — wake sleepers that are due, then advance each active
//!    machine by one [`step`](StepProtocol::step) call.
//!
//! The active-set discipline is what unlocks `p >= 10^5`: a machine that
//! yields [`Step::IdleFor`]`(n)` is parked in a wake-time min-heap and its
//! `n` idle cycles are bulk-accounted up front, so a protocol in which `k`
//! owners work while `p - k` processors idle (networked Columnsort, say)
//! costs `O(active + dirty)` per cycle instead of `O(p)`.
//!
//! Only [`StepProtocol`] machines can be vectorized — a closure protocol
//! blocks inside [`ProcCtx::cycle`](crate::ProcCtx::cycle) and needs a
//! suspended call stack per processor, which a columnar driver cannot
//! provide — so [`Network::run`] under [`Backend::Vector`] goes to the
//! fiber driver (`fiber.rs`) and only [`Network::run_steps`] lands here.
//!
//! Equivalence with the threaded backend is structural: the round loop
//! mirrors its write/read/sweep phase order exactly, the write/read loops
//! inline `apply_write`/`apply_read` over the columns rule for rule, and
//! everything downstream (fault canonicalization, phase re-keying, trace
//! ordering, the JSONL export) goes through the same
//! [`assemble_report`] — pinned end-to-end by the `backend_equivalence`
//! integration suite.

use crate::engine::{
    assemble_report, panic_message, Backend, Escalated, Network, RunReport, Shared,
};
use crate::error::NetError;
use crate::fault::{FaultKind, FaultRecord};
use crate::frame::{FrameRead, FRAME_HEADER_BITS};
use crate::ids::{ChanId, ProcId};
use crate::message::MsgWidth;
use crate::metrics::{LocalMetrics, LogHistogram};
use crate::step::{Step, StepEnv, StepProtocol};
use crate::trace::Event;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Where a logical processor currently lives in the driver.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Status {
    /// In the active list: participates in every phase of every cycle.
    Active,
    /// Parked in the sleeper heap (mid-[`Step::IdleFor`] span) or doomed in
    /// the crash heap; skipped by every per-cycle loop.
    Asleep,
    /// Finished, crashed, or panicked; its column entries are inert.
    Done,
}

/// The per-processor state columns. One entry per logical processor in
/// every column; the per-cycle loops touch only the rows named by the
/// active list.
struct Cols<M, S: StepProtocol<M>> {
    /// The state machines (`None` once retired).
    machines: Vec<Option<S>>,
    /// Per-processor cycle/message/phase accounting.
    locals: Vec<LocalMetrics>,
    status: Vec<Status>,
    /// Pending write intent for the current cycle.
    w: Vec<Option<(ChanId, M)>>,
    /// Pending read intent for the current cycle.
    r: Vec<Option<ChanId>>,
    /// Framed read result to feed the next `step` call.
    inputs: Vec<FrameRead<M>>,
    results: Vec<Option<S::Output>>,
    /// `(wake_round, proc)` min-heap of sleeping processors.
    sleepers: BinaryHeap<Reverse<(u64, usize)>>,
    /// `(crash_round, proc)` min-heap of sleepers whose planned crash
    /// falls inside their idle span: they die at that round instead of
    /// waking.
    crashes: BinaryHeap<Reverse<(u64, usize)>>,
    p: usize,
    k: usize,
}

impl<M, S> Cols<M, S>
where
    M: Clone + Send + Sync + MsgWidth,
    S: StepProtocol<M>,
{
    /// Retire processor `i`: out of every future loop, machine dropped,
    /// run-level finished count bumped (the same bump the other backends
    /// make for a finished, crashed, or panicked processor).
    fn retire(&mut self, shared: &Shared<M>, i: usize) {
        self.status[i] = Status::Done;
        self.machines[i] = None;
        shared.finished.fetch_add(1, Ordering::AcqRel);
    }

    /// Advance machine `i` by one `step` call at round `now` and absorb
    /// what it wants next into the columns. Mirrors the threaded
    /// `run_steps` loop's handling of each [`Step`], plus the
    /// [`Step::IdleFor`] parking that only this backend implements natively.
    fn collect_one(&mut self, shared: &Shared<M>, i: usize, now: u64) {
        let id = ProcId::from_index(i);
        let env = StepEnv::new(
            id,
            self.p,
            self.k,
            now,
            self.locals[i].cycles,
            self.locals[i].messages,
            shared.monitor.as_ref(),
        );
        let input = std::mem::replace(&mut self.inputs[i], FrameRead::Silence);
        let machine = self.machines[i]
            .as_mut()
            .expect("active processor has a machine");
        match catch_unwind(AssertUnwindSafe(|| machine.step(&env, input))) {
            Ok(Step::Yield { write, read }) => {
                // A phase requested during `step` labels the yielded cycle
                // (same ordering as the other drivers).
                if let Some(name) = env.take_phase() {
                    self.locals[i].cur_phase = shared.phase_id(&name);
                }
                self.w[i] = write;
                self.r[i] = read;
            }
            Ok(Step::IdleFor(n)) => {
                if let Some(name) = env.take_phase() {
                    self.locals[i].cur_phase = shared.phase_id(&name);
                }
                let n = n.max(1);
                // A planned crash inside the idle span cuts it short: the
                // processor idles up to the crash round and dies there,
                // exactly as if it had yielded the idle cycles one by one
                // and been caught by the per-round crash check.
                match shared.plan.as_ref().and_then(|pl| pl.crash_cycle(i)) {
                    Some(cc) if cc < now + n => {
                        let fire = cc.max(now);
                        self.locals[i].record_idle_span(now, fire - now);
                        self.status[i] = Status::Asleep;
                        self.crashes.push(Reverse((fire, i)));
                    }
                    _ => {
                        self.locals[i].record_idle_span(now, n);
                        self.status[i] = Status::Asleep;
                        self.sleepers.push(Reverse((now + n, i)));
                    }
                }
            }
            Ok(Step::Done(res)) => {
                self.results[i] = Some(res);
                self.retire(shared, i);
            }
            Err(payload) => {
                if let Some(esc) = payload.downcast_ref::<Escalated>() {
                    shared.fail(esc.0.clone());
                } else {
                    shared.fail(NetError::ProcPanicked {
                        proc: id,
                        message: panic_message(payload.as_ref()),
                    });
                }
                self.retire(shared, i);
            }
        }
    }
}

/// Vector execution of [`StepProtocol`] state machines: one thread, flat
/// columns, active-set cycle loops.
pub(crate) fn run_steps<M, S, F>(
    net: &Network,
    factory: &F,
) -> Result<RunReport<S::Output, M>, NetError>
where
    M: Clone + Send + Sync + MsgWidth,
    S: StepProtocol<M>,
    S::Output: Send,
    F: Fn(ProcId) -> S + Sync,
{
    let p = net.p();
    let k = net.k();
    // Barrier width 1: this driver never waits on it.
    let shared: Shared<M> = Shared::new(net, 1);
    let started = Instant::now();

    let mut cols: Cols<M, S> = Cols {
        machines: (0..p)
            .map(|i| Some(factory(ProcId::from_index(i))))
            .collect(),
        locals: vec![LocalMetrics::default(); p],
        status: vec![Status::Active; p],
        w: (0..p).map(|_| None).collect(),
        r: vec![None; p],
        inputs: (0..p).map(|_| FrameRead::Silence).collect(),
        results: (0..p).map(|_| None).collect(),
        sleepers: BinaryHeap::new(),
        crashes: BinaryHeap::new(),
        p,
        k,
    };
    // Channel columns: the slot/jam state `apply_write`/`apply_read` keep
    // behind per-channel locks, flattened. `dirty` lists the channels
    // touched this cycle so the sweep clears O(dirty), not O(k).
    let mut slot_msg: Vec<Option<(ProcId, M)>> = (0..k).map(|_| None).collect();
    let mut slot_jam = vec![false; k];
    let mut dirty: Vec<usize> = Vec::new();
    let mut events: Vec<Event<M>> = Vec::new();
    // Wall-clock histogram for protocol compute (one sample per collect
    // sweep) — the single-threaded analogue of the fiber driver's `stall`,
    // surfaced as [`EngineProfile::dispatch`](crate::EngineProfile).
    let mut dispatch = LogHistogram::new();

    // Bring every machine to its first request (or completion) at round 0,
    // before any write: the threaded loop's first `step` call.
    let t0 = shared.profile.then(Instant::now);
    for i in 0..p {
        cols.collect_one(&shared, i, 0);
    }
    if let Some(t) = t0 {
        dispatch.record(t.elapsed().as_nanos() as u64);
    }
    let mut active: Vec<usize> = (0..p)
        .filter(|&i| cols.status[i] == Status::Active)
        .collect();

    loop {
        let now = shared.round.load(Ordering::Relaxed);

        // ---- write phase -------------------------------------------------
        // Sleepers whose planned crash round has arrived die first: the
        // crash fires at the top of the round, mirroring the per-round
        // crash check the other backends run before any write.
        while let Some(&Reverse((fire, ci))) = cols.crashes.peek() {
            if fire > now {
                break;
            }
            cols.crashes.pop();
            shared.record_fault(FaultRecord {
                cycle: now,
                kind: FaultKind::Crash,
                proc: Some(ProcId::from_index(ci)),
                chan: None,
            });
            cols.retire(&shared, ci);
        }
        for &i in &active {
            if let Some(plan) = &shared.plan {
                // Planned crash of an active processor: its pending
                // write/read are discarded and its result stays `None`.
                if plan.crash_cycle(i).is_some_and(|cc| now >= cc) {
                    shared.record_fault(FaultRecord {
                        cycle: now,
                        kind: FaultKind::Crash,
                        proc: Some(ProcId::from_index(i)),
                        chan: None,
                    });
                    cols.w[i] = None;
                    cols.r[i] = None;
                    cols.retire(&shared, i);
                    continue;
                }
            }
            let Some((c, m)) = cols.w[i].take() else {
                continue;
            };
            // Inlined `Shared::apply_write` over the columns, rule for
            // rule: validation, fault suppression, framing jam, collision,
            // trace, accounting.
            let id = ProcId::from_index(i);
            if c.index() >= k {
                shared.fail(NetError::BadChannel {
                    cycle: now,
                    proc: id,
                    channel: c,
                    k,
                });
                continue;
            }
            if let Some(kind) = shared
                .plan
                .as_ref()
                .and_then(|pl| pl.write_fault(i, c.index(), now))
            {
                shared.record_fault(FaultRecord {
                    cycle: now,
                    kind,
                    proc: Some(id),
                    chan: (kind != FaultKind::Stall).then_some(c),
                });
                if shared.framing && kind == FaultKind::Corrupt {
                    slot_jam[c.index()] = true;
                    dirty.push(c.index());
                }
                continue;
            }
            let bits = m.bits() + if shared.framing { FRAME_HEADER_BITS } else { 0 };
            match &slot_msg[c.index()] {
                Some((first, _)) => {
                    shared.fail(NetError::Collision {
                        cycle: now,
                        channel: c,
                        first: *first,
                        second: id,
                    });
                }
                None => {
                    if shared.record_trace {
                        events.push(Event {
                            cycle: now,
                            writer: id,
                            channel: c,
                            phase: (cols.locals[i].cur_phase != 0)
                                .then_some(cols.locals[i].cur_phase),
                            msg: m.clone(),
                        });
                    }
                    slot_msg[c.index()] = Some((id, m));
                    dirty.push(c.index());
                    cols.locals[i].record_message(bits, c.index(), now);
                    shared.count_channel_message(c.index());
                    if let Some(mon) = &shared.monitor {
                        mon.on_message(cols.locals[i].cur_phase, bits, now);
                    }
                }
            }
        }

        // ---- read phase --------------------------------------------------
        for &i in &active {
            if cols.status[i] != Status::Active {
                // Crashed in this round's write phase.
                continue;
            }
            // Inlined `Shared::apply_read` over the columns.
            let got = match cols.r[i].take() {
                Some(c) if c.index() >= k => {
                    shared.fail(NetError::BadChannel {
                        cycle: now,
                        proc: ProcId::from_index(i),
                        channel: c,
                        k,
                    });
                    FrameRead::Silence
                }
                Some(c) => {
                    if shared.plan.as_ref().is_some_and(|pl| pl.is_stalled(i, now)) {
                        // Blacked-out receiver: silence regardless of
                        // traffic.
                        shared.record_fault(FaultRecord {
                            cycle: now,
                            kind: FaultKind::Stall,
                            proc: Some(ProcId::from_index(i)),
                            chan: None,
                        });
                        FrameRead::Silence
                    } else if slot_jam[c.index()] {
                        FrameRead::Noise
                    } else {
                        slot_msg[c.index()]
                            .as_ref()
                            .map_or(FrameRead::Silence, |(_, m)| FrameRead::Clean(m.clone()))
                    }
                }
                None => FrameRead::Silence,
            };
            cols.inputs[i] = got;
            cols.locals[i].record_cycle(now);
        }

        // ---- sweep -------------------------------------------------------
        for c in dirty.drain(..) {
            slot_msg[c] = None;
            slot_jam[c] = false;
        }
        shared.tick();
        if shared.done.load(Ordering::Acquire) {
            break;
        }

        // ---- collect (the machines' compute phase) -----------------------
        let now = shared.round.load(Ordering::Relaxed);
        let t0 = shared.profile.then(Instant::now);
        let mut woke = false;
        while let Some(&Reverse((wake, si))) = cols.sleepers.peek() {
            if wake > now {
                break;
            }
            cols.sleepers.pop();
            cols.status[si] = Status::Active;
            active.push(si);
            woke = true;
        }
        if woke {
            // Keep the active list in processor order so the write loop's
            // channel deposits stay deterministic run to run.
            active.sort_unstable();
        }
        for &i in &active {
            if cols.status[i] == Status::Active {
                cols.collect_one(&shared, i, now);
            }
        }
        active.retain(|&i| cols.status[i] == Status::Active);
        if let Some(t) = t0 {
            dispatch.record(t.elapsed().as_nanos() as u64);
        }
    }

    let profile = shared.profile.then(|| {
        let mut agg = shared.prof.lock().clone();
        agg.dispatch.merge(&dispatch);
        agg.into_profile(Backend::Vector, 1, started.elapsed().as_nanos() as u64)
    });
    assemble_report(shared, cols.locals, cols.results, events, profile)
}
