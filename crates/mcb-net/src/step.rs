//! Resumable per-processor protocols as explicit state machines.
//!
//! [`Network::run`](crate::Network::run) expresses a protocol as a closure
//! that *blocks* inside [`ProcCtx::cycle`](crate::ProcCtx::cycle) — natural
//! to write, but a blocked closure needs a call stack, which ties every
//! logical processor to an OS thread. A [`StepProtocol`] turns the same
//! protocol inside-out: the engine calls [`step`](StepProtocol::step) with
//! the previous cycle's framed read ([`FrameRead`]), and the protocol
//! returns what it wants to do in the next cycle (a [`Step`]). All
//! suspended state lives in the implementing struct, so hundreds of
//! thousands of logical processors can be advanced by one thread sweeping
//! flat columns — this is what makes the vector backend (see
//! [`Backend`](crate::Backend)) cheap at large `p`.
//!
//! A state machine need not be written by hand: [`AsyncStep`] wraps an
//! `async` body whose every `ctx.cycle(..).await` ([`StepCtx::cycle`]) is
//! one yielded [`Step`], so the compiler writes the state struct. The
//! self-healing runtime (`mcb_algos::heal`, with the epoch census of
//! [`EpochCtx::reconfigure`](crate::EpochCtx::reconfigure)) is written this
//! way.
//!
//! The two forms are interchangeable: [`Network::run_steps`] executes a
//! `StepProtocol` on **either** backend with identical observable behavior
//! (results, [`Metrics`](crate::Metrics), [`Trace`](crate::Trace), errors).
//!
//! ```
//! use mcb_net::{ChanId, FrameRead, Network, Step, StepEnv, StepProtocol};
//!
//! /// Processor `turn` broadcasts in cycle `turn`; everyone tracks the max.
//! struct MaxOfAll {
//!     mine: u64,
//!     best: u64,
//!     turn: usize,
//! }
//!
//! impl StepProtocol<u64> for MaxOfAll {
//!     type Output = u64;
//!
//!     fn step(&mut self, env: &StepEnv, input: FrameRead<u64>) -> Step<u64, u64> {
//!         if let Some(seen) = input.clean() {
//!             self.best = self.best.max(seen);
//!         }
//!         if self.turn == env.p {
//!             return Step::Done(self.best);
//!         }
//!         let write = (self.turn == env.id.index()).then(|| (ChanId(0), self.mine));
//!         self.turn += 1;
//!         Step::Yield {
//!             write,
//!             read: Some(ChanId(0)),
//!         }
//!     }
//! }
//!
//! let values = [3u64, 1, 4, 1, 5];
//! let report = Network::new(5, 1)
//!     .run_steps(|id| MaxOfAll {
//!         mine: values[id.index()],
//!         best: values[id.index()],
//!         turn: 0,
//!     })
//!     .unwrap();
//! assert!(report.into_results().into_iter().all(|b| b == 5));
//! ```
//!
//! [`Network::run_steps`]: crate::Network::run_steps

use crate::frame::FrameRead;
use crate::ids::{ChanId, ProcId};
use crate::monitor::MonitorCore;
use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

/// What a [`StepProtocol`] wants to do next: execute one more network cycle,
/// or finish with an output value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step<M, R> {
    /// Execute one synchronous cycle: optionally write one channel,
    /// optionally read one channel. The read's framed result
    /// ([`FrameRead::Silence`] for an empty channel or no read) is the
    /// `input` of the next [`step`](StepProtocol::step) call.
    Yield {
        /// At most one `(channel, message)` broadcast this cycle.
        write: Option<(ChanId, M)>,
        /// At most one channel to read this cycle.
        read: Option<ChanId>,
    },
    /// Idle for this many consecutive cycles (minimum 1; a count of 0 is
    /// treated as 1) before `step` is called again, with no write and no
    /// read in any of them; that next call's input is
    /// [`FrameRead::Silence`].
    ///
    /// Observably identical to yielding that many empty
    /// [`Yield`](Step::Yield)s, but backends are free to batch the
    /// bookkeeping: the vector backend removes the processor from its
    /// active set entirely and bulk-accounts the idle span, which is what
    /// makes "`k` owners work, `p - k` processors idle" protocols (e.g.
    /// networked Columnsort at `p = 10^5`) run in time proportional to the
    /// *owners'* work instead of `p × cycles`.
    IdleFor(u64),
    /// The protocol is finished; `R` becomes this processor's entry in
    /// [`RunReport::results`](crate::RunReport::results).
    Done(R),
}

impl<M, R> Step<M, R> {
    /// A do-nothing cycle (keeps this processor in lock-step).
    pub fn idle() -> Self {
        Step::Yield {
            write: None,
            read: None,
        }
    }

    /// Idle for `cycles` consecutive cycles in a single yield (see
    /// [`Step::IdleFor`]); a count of 0 is treated as 1 so the protocol
    /// always advances.
    pub fn idle_for(cycles: u64) -> Self {
        Step::IdleFor(cycles.max(1))
    }

    /// A write-only cycle.
    pub fn write(chan: ChanId, msg: M) -> Self {
        Step::Yield {
            write: Some((chan, msg)),
            read: None,
        }
    }

    /// A read-only cycle.
    pub fn read(chan: ChanId) -> Self {
        Step::Yield {
            write: None,
            read: Some(chan),
        }
    }
}

/// Read-only view of a processor's identity and clocks, passed to every
/// [`StepProtocol::step`] call. Mirrors the accessor methods of
/// [`ProcCtx`](crate::ProcCtx).
pub struct StepEnv<'a> {
    /// This processor's identity.
    pub id: ProcId,
    /// `p`: total processors in the network.
    pub p: usize,
    /// `k`: total channels in the network.
    pub k: usize,
    /// Global cycle index: number of completed cycles so far.
    pub now: u64,
    /// Cycles this processor's protocol has executed.
    pub cycles_used: u64,
    /// Messages this processor has sent.
    pub messages_sent: u64,
    /// Requested phase-label change, applied by the engine after this
    /// `step` call returns and before the yielded cycle executes.
    phase: Cell<Option<String>>,
    /// The run's live-monitor core, when one is attached: the epoch
    /// census posts its reconfiguration events here.
    monitor: Option<&'a Arc<MonitorCore>>,
}

impl<'a> StepEnv<'a> {
    pub(crate) fn new(
        id: ProcId,
        p: usize,
        k: usize,
        now: u64,
        cycles_used: u64,
        messages_sent: u64,
        monitor: Option<&'a Arc<MonitorCore>>,
    ) -> Self {
        StepEnv {
            id,
            p,
            k,
            now,
            cycles_used,
            messages_sent,
            phase: Cell::new(None),
            monitor,
        }
    }

    /// Label all cycles/messages from the next yielded cycle on with
    /// `name` (`""` returns to unlabelled) — the [`StepProtocol`]
    /// counterpart of [`ProcCtx::phase`](crate::ProcCtx::phase).
    ///
    /// The request takes effect when this `step` call returns; calling it
    /// repeatedly within one step keeps only the last label.
    pub fn phase(&self, name: &str) {
        self.phase.set(Some(name.to_owned()));
    }

    /// Engine side: collect the pending label change, if any.
    pub(crate) fn take_phase(&self) -> Option<String> {
        self.phase.take()
    }
}

impl std::fmt::Debug for StepEnv<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StepEnv")
            .field("id", &self.id)
            .field("p", &self.p)
            .field("k", &self.k)
            .field("now", &self.now)
            .field("cycles_used", &self.cycles_used)
            .field("messages_sent", &self.messages_sent)
            .finish()
    }
}

/// A protocol written as a resumable state machine.
///
/// The engine drives it as: `step(env, FrameRead::Silence)` first, then
/// for every [`Step::Yield`] it executes the requested cycle and calls
/// `step` again with the framed read result, until the protocol returns
/// [`Step::Done`].
///
/// Implementations may panic; a panic is caught and reported as
/// [`NetError::ProcPanicked`](crate::NetError::ProcPanicked) exactly like a
/// panic inside a closure protocol.
pub trait StepProtocol<M> {
    /// The per-processor result type.
    type Output;

    /// Advance the state machine by one cycle.
    ///
    /// `input` is the framed read of the cycle requested by the previous
    /// `step` call: [`FrameRead::Clean`] with the message read,
    /// [`FrameRead::Noise`] when the slot was jammed by a corrupted
    /// transmission (only under [`Network::framing`](crate::Network::framing)),
    /// and [`FrameRead::Silence`] before the first cycle, after a
    /// [`Step::IdleFor`], when no read was requested, or when the read
    /// channel was empty. Protocols that want the model's two-way
    /// observation call [`FrameRead::clean`].
    fn step(&mut self, env: &StepEnv, input: FrameRead<M>) -> Step<M, Self::Output>;
}

/// What an [`AsyncStep`] body and its driver share: the clock the driver
/// refreshes before every poll, and the request/result of the one cycle
/// the body is suspended on.
struct Port<M> {
    id: ProcId,
    monitor: Option<Arc<MonitorCore>>,
    now: Cell<u64>,
    phase: Cell<Option<String>>,
    request: Cell<Option<Request<M>>>,
    input: Cell<Option<FrameRead<M>>>,
}

/// One cycle's write and read intent.
type Request<M> = (Option<(ChanId, M)>, Option<ChanId>);

/// An `async` protocol body's handle to the network: the
/// [`ProcCtx`](crate::ProcCtx) of an [`AsyncStep`]. Each
/// [`cycle`](StepCtx::cycle) suspends the body for exactly one network
/// cycle.
pub struct StepCtx<M> {
    port: Rc<Port<M>>,
}

impl<M> StepCtx<M> {
    /// This processor's identity.
    pub fn id(&self) -> ProcId {
        self.port.id
    }

    /// Global cycle index: number of completed cycles so far.
    pub fn now(&self) -> u64 {
        self.port.now.get()
    }

    /// Label all cycles and messages from the next cycle on with `name`
    /// (`""` returns to unlabelled) — [`ProcCtx::phase`](crate::ProcCtx::phase)
    /// for async bodies. Of several calls between two cycles, the last
    /// one wins.
    pub fn phase(&self, name: &str) {
        self.port.phase.set(Some(name.to_owned()));
    }

    /// Execute one synchronous cycle: optionally write one channel,
    /// optionally read one channel, and resolve to the read's framed
    /// classification ([`FrameRead`]; [`FrameRead::Silence`] when no read
    /// was requested). [`FrameRead::clean`] folds it to the
    /// model's two-way observation, as [`ProcCtx::cycle`](crate::ProcCtx::cycle) does.
    pub async fn cycle(
        &mut self,
        write: Option<(ChanId, M)>,
        read: Option<ChanId>,
    ) -> FrameRead<M> {
        self.port.request.set(Some((write, read)));
        Suspend(false).await;
        self.port
            .input
            .take()
            .expect("an AsyncStep resumes its body with the cycle's read")
    }

    /// The run's live-monitor core, if one is attached.
    pub(crate) fn monitor(&self) -> Option<&Arc<MonitorCore>> {
        self.port.monitor.as_ref()
    }
}

/// Pending exactly once: the suspension point of [`StepCtx::cycle`].
struct Suspend(bool);

impl Future for Suspend {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
        if self.0 {
            Poll::Ready(())
        } else {
            self.0 = true;
            Poll::Pending
        }
    }
}

/// A [`StepProtocol`] written as an `async` body.
///
/// `body` receives the processor's [`StepCtx`] and returns the future that
/// runs the protocol; it is called on the first [`step`](StepProtocol::step).
/// Every `step` call polls the future once with a no-op waker: it runs the
/// body's local work up to its next `ctx.cycle(..).await`, whose write and
/// read become the yielded [`Step::Yield`], or to its end, whose value
/// becomes [`Step::Done`]. The body may await only its own context's
/// cycles. A panic inside the body is a panic inside `step`, reported like
/// any other.
///
/// ```
/// use mcb_net::{AsyncStep, ChanId, Network};
///
/// // Processor 0 broadcasts; everyone returns what it read.
/// let report = Network::new(4, 2)
///     .run_steps(|_| {
///         AsyncStep::new(|mut ctx| async move {
///             let write = (ctx.id().index() == 0).then_some((ChanId(1), 7u64));
///             ctx.cycle(write, Some(ChanId(1))).await.clean()
///         })
///     })
///     .unwrap();
/// assert!(report.into_results().iter().all(|r| *r == Some(7)));
/// ```
pub struct AsyncStep<M, B, F> {
    state: AsyncState<M, B, F>,
}

enum AsyncState<M, B, F> {
    /// Not yet stepped: the body has not been called.
    Start(Option<B>),
    /// The body's future, suspended on one of its cycles.
    Running {
        port: Rc<Port<M>>,
        body: Pin<Box<F>>,
    },
}

impl<M, B, F> AsyncStep<M, B, F>
where
    B: FnOnce(StepCtx<M>) -> F,
    F: Future,
{
    /// Wrap `body` (see the [type docs](AsyncStep)).
    pub fn new(body: B) -> Self {
        AsyncStep {
            state: AsyncState::Start(Some(body)),
        }
    }
}

impl<M, B, F> StepProtocol<M> for AsyncStep<M, B, F>
where
    B: FnOnce(StepCtx<M>) -> F,
    F: Future,
{
    type Output = F::Output;

    fn step(&mut self, env: &StepEnv, input: FrameRead<M>) -> Step<M, F::Output> {
        if let AsyncState::Start(body) = &mut self.state {
            let body = body.take().expect("AsyncStep body is called once");
            let port = Rc::new(Port {
                id: env.id,
                monitor: env.monitor.cloned(),
                now: Cell::new(0),
                phase: Cell::new(None),
                request: Cell::new(None),
                input: Cell::new(None),
            });
            let fut = Box::pin(body(StepCtx { port: port.clone() }));
            self.state = AsyncState::Running { port, body: fut };
        }
        let AsyncState::Running { port, body } = &mut self.state else {
            unreachable!("started above");
        };
        port.now.set(env.now);
        port.input.set(Some(input));
        let polled = body.as_mut().poll(&mut Context::from_waker(Waker::noop()));
        if let Some(name) = port.phase.take() {
            env.phase(&name);
        }
        match polled {
            Poll::Ready(out) => Step::Done(out),
            Poll::Pending => {
                let (write, read) = port
                    .request
                    .take()
                    .expect("an AsyncStep body may await only its StepCtx's cycles");
                Step::Yield { write, read }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_shorthands() {
        assert_eq!(
            Step::<u64, ()>::idle(),
            Step::Yield {
                write: None,
                read: None
            }
        );
        assert_eq!(
            Step::<u64, ()>::write(ChanId(1), 7),
            Step::Yield {
                write: Some((ChanId(1), 7)),
                read: None
            }
        );
        assert_eq!(
            Step::<u64, ()>::read(ChanId(2)),
            Step::Yield {
                write: None,
                read: Some(ChanId(2))
            }
        );
    }
}
