//! Resumable per-processor protocols as explicit state machines.
//!
//! [`Network::run`](crate::Network::run) expresses a protocol as a closure
//! that *blocks* inside [`ProcCtx::cycle`](crate::ProcCtx::cycle) — natural
//! to write, but a blocked closure needs a call stack, which ties every
//! logical processor to an OS thread. A [`StepProtocol`] turns the same
//! protocol inside-out: the engine calls [`step`](StepProtocol::step) with
//! the previous cycle's read result, and the protocol returns what it wants
//! to do in the next cycle (a [`Step`]). All suspended state lives in the
//! implementing struct, so hundreds of thousands of logical processors can
//! be advanced by one thread sweeping flat columns — this is what makes the
//! vector backend (see [`Backend`](crate::Backend)) cheap at large `p`.
//!
//! The two forms are interchangeable: [`Network::run_steps`] executes a
//! `StepProtocol` on **either** backend with identical observable behavior
//! (results, [`Metrics`](crate::Metrics), [`Trace`](crate::Trace), errors).
//!
//! ```
//! use mcb_net::{ChanId, Network, Step, StepEnv, StepProtocol};
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
//!     fn step(&mut self, env: &StepEnv, input: Option<u64>) -> Step<u64, u64> {
//!         if let Some(seen) = input {
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

use crate::ids::{ChanId, ProcId};

/// What a [`StepProtocol`] wants to do next: execute one more network cycle,
/// or finish with an output value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step<M, R> {
    /// Execute one synchronous cycle: optionally write one channel,
    /// optionally read one channel. The read's result (or `None` for an
    /// empty channel / no read) is the `input` of the next
    /// [`step`](StepProtocol::step) call.
    Yield {
        /// At most one `(channel, message)` broadcast this cycle.
        write: Option<(ChanId, M)>,
        /// At most one channel to read this cycle.
        read: Option<ChanId>,
    },
    /// Idle for this many consecutive cycles (minimum 1; a count of 0 is
    /// treated as 1) before `step` is called again, with no write and no
    /// read in any of them.
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
pub struct StepEnv {
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
    phase: std::cell::Cell<Option<String>>,
}

impl StepEnv {
    pub(crate) fn new(
        id: ProcId,
        p: usize,
        k: usize,
        now: u64,
        cycles_used: u64,
        messages_sent: u64,
    ) -> Self {
        StepEnv {
            id,
            p,
            k,
            now,
            cycles_used,
            messages_sent,
            phase: std::cell::Cell::new(None),
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

impl std::fmt::Debug for StepEnv {
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
/// The engine drives it as: `step(env, None)` first, then for every
/// [`Step::Yield`] it executes the requested cycle and calls `step` again
/// with the read result, until the protocol returns [`Step::Done`].
///
/// Implementations may panic; a panic is caught and reported as
/// [`NetError::ProcPanicked`](crate::NetError::ProcPanicked) exactly like a
/// panic inside a closure protocol.
pub trait StepProtocol<M> {
    /// The per-processor result type.
    type Output;

    /// Advance the state machine by one cycle.
    ///
    /// `input` is the message read in the cycle requested by the previous
    /// `step` call (`None` before the first cycle, when no read was
    /// requested, or when the read channel was empty).
    fn step(&mut self, env: &StepEnv, input: Option<M>) -> Step<M, Self::Output>;
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
