//! Phase-scoped attribution of cycles and messages.
//!
//! The paper states every cost bound *per phase* — Columnsort's eight
//! transform phases (§5), selection's filtering rounds (§8), Partial-Sums'
//! tree sweeps (§7.1) — so the engine lets protocols label the cycles they
//! execute. A label set with [`ProcCtx::phase`] (or
//! [`StepEnv::phase`](crate::StepEnv::phase)) applies to
//! every subsequent cycle and message of that processor until the label
//! changes; the engine aggregates the per-processor tallies into the
//! [`Metrics::phases`](crate::Metrics::phases) table and stamps trace
//! events with the phase they were sent in.
//!
//! # The lock-step invariant
//!
//! Per-phase `cycles` is the **maximum** over processors of the cycles each
//! spent in that phase (the same convention as whole-run
//! [`Metrics::cycles`](crate::Metrics::cycles)). The repo's algorithm
//! subroutines are *lock-step*: every processor enters and leaves each
//! labelled phase at the same cycle (non-participants idle inside the same
//! subroutine), so each processor spends the identical cycle count in each
//! phase and the per-phase cycle counts sum exactly to the whole-run total.
//! Protocols that label phases at different times on different processors
//! still get correct per-phase message counts, but the per-phase cycle
//! *maxima* may then overlap and sum to more than the whole-run maximum.
//!
//! # Nesting convention
//!
//! Subroutines meant to be callable both standalone and from a larger
//! labelled algorithm only set their own labels when the caller has not set
//! one (checked via [`ProcCtx::phase_label`]); that way
//! selection's `filter:N` rounds subsume the sorts and partial-sums sweeps
//! they contain, while a standalone partial-sums run still reports its
//! sweeps.

use crate::engine::ProcCtx;
use crate::message::MsgWidth;
use std::ops::{Deref, DerefMut};

/// RAII guard that restores the previous phase label on drop.
///
/// Created by [`ProcCtx::phase_scope`]; derefs to the underlying context so
/// the guarded region can keep issuing cycles. The label is plain data:
/// setting it never costs a cycle or a message.
///
/// ```
/// use mcb_net::{ChanId, Network};
///
/// let report = Network::new(2, 1)
///     .run(|ctx| {
///         {
///             let mut ctx = ctx.phase_scope("exchange");
///             if ctx.id().index() == 0 {
///                 ctx.write(ChanId(0), 1u64);
///             } else {
///                 ctx.read(ChanId(0));
///             }
///         } // label restored here
///         ctx.idle();
///     })
///     .unwrap();
/// let table = &report.metrics.phases;
/// assert_eq!(table.len(), 1);
/// assert_eq!(table[0].name, "exchange");
/// assert_eq!((table[0].cycles, table[0].messages), (1, 1));
/// ```
pub struct PhaseScope<'s, 'a, M: Clone + Send + Sync + MsgWidth> {
    ctx: &'s mut ProcCtx<'a, M>,
    prev: String,
}

impl<'s, 'a, M: Clone + Send + Sync + MsgWidth> PhaseScope<'s, 'a, M> {
    pub(crate) fn enter(ctx: &'s mut ProcCtx<'a, M>, name: &str) -> Self {
        let prev = ctx.phase_label().to_owned();
        ctx.phase(name);
        PhaseScope { ctx, prev }
    }
}

impl<'a, M: Clone + Send + Sync + MsgWidth> Deref for PhaseScope<'_, 'a, M> {
    type Target = ProcCtx<'a, M>;
    fn deref(&self) -> &ProcCtx<'a, M> {
        self.ctx
    }
}

impl<M: Clone + Send + Sync + MsgWidth> DerefMut for PhaseScope<'_, '_, M> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        self.ctx
    }
}

impl<M: Clone + Send + Sync + MsgWidth> Drop for PhaseScope<'_, '_, M> {
    fn drop(&mut self) {
        let prev = std::mem::take(&mut self.prev);
        self.ctx.phase(&prev);
    }
}
