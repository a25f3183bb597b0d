//! # mcb-net — the Multi-Channel Broadcast network model
//!
//! A cycle-accurate simulator for the **MCB(p, k)** distributed computation
//! model of Marberg & Gafni, *Sorting and Selection in Multi-Channel
//! Broadcast Networks* (UCLA CSD-850002, 1985):
//!
//! * `p` independent processors, `k <= p` shared broadcast channels;
//! * computation proceeds in globally synchronized cycles;
//! * per cycle, each processor may **write one channel** and **read one
//!   channel**, then compute locally (local work is free in the cost model);
//! * protocols must be **collision-free**: two writers on one channel in one
//!   cycle fail the computation (detected and reported by the engine);
//! * channels are memoryless: a message exists only in the cycle it is
//!   written, and reading an empty channel is detectable;
//! * complexity is the total number of **cycles** and **messages**, with
//!   messages limited to O(log β) bits (audited via [`MsgWidth`]).
//!
//! Two interchangeable execution backends implement the model (selected
//! via [`Backend`]): the **threaded** engine runs each processor's protocol
//! as a real OS thread in lock-step behind a sense-reversing barrier — the
//! reference, and the fastest while `p` is near the core count; the
//! **vector** engine drives [`StepProtocol`] state machines from a single
//! thread in struct-of-arrays form, skipping idle processors entirely —
//! the choice for `p` from the thousands to the hundreds of thousands —
//! and runs closure protocols on fibers advanced by `min(p, cores)`
//! workers. Whichever runs, all observable quantities are deterministic
//! for collision-free protocols and identical across backends.
//!
//! ## Quick example
//!
//! Find the maximum of `p` values in `p - 1` cycles on one channel (each
//! processor in turn broadcasts only if it beats the running maximum —
//! not optimal, just illustrative):
//!
//! ```
//! use mcb_net::{ChanId, Network};
//!
//! let values = [3u64, 1, 4, 1, 5];
//! let report = Network::new(5, 1)
//!     .run(|ctx| {
//!         let mut best = values[ctx.id().index()];
//!         for turn in 0..ctx.p() {
//!             let mine = turn == ctx.id().index();
//!             let write = (mine && best == values[ctx.id().index()])
//!                 .then(|| (ChanId(0), best));
//!             if let Some(seen) = ctx.cycle(write, Some(ChanId(0))) {
//!                 best = best.max(seen);
//!             }
//!         }
//!         best
//!     })
//!     .unwrap();
//! assert!(report.into_results().into_iter().all(|b| b == 5));
//! ```
//!
//! ## Modules
//!
//! * [`engine`] — the executor ([`Network`], [`ProcCtx`], [`Backend`]).
//! * [`step`] — protocols as resumable state machines ([`StepProtocol`],
//!   run thread-free at scale by the vector backend), hand-written or as
//!   `async` bodies ([`AsyncStep`], [`StepCtx`]).
//! * [`fault`] — deterministic fault injection ([`FaultPlan`]): channel
//!   deaths, transient losses, crashes and stalls, byte-identical across
//!   backends.
//! * [`frame`] — self-checking broadcast frames: the three-way
//!   silence/clean/noise read classification ([`FrameRead`]) that lets
//!   protocols detect faults from the wire with no oracle.
//! * [`epoch`] — the reconfiguration census ([`EpochCtx`]): agree on live
//!   channel/processor sets after a detected fault and bump the epoch.
//! * [`metrics`] — cycle/message/per-phase accounting ([`Metrics`],
//!   [`PhaseMetrics`], [`EngineProfile`], [`LogHistogram`]).
//! * [`monitor`] — live run monitoring: a [`RunMonitor`] snapshotable from
//!   another thread while the run is in flight.
//! * [`phase`] — labelled phase scopes attributing costs to algorithm
//!   stages ([`PhaseScope`]).
//! * [`trace`] — optional wire traces feeding the lower-bound adversary.
//! * [`export`] — deterministic JSONL serialization of a [`RunReport`] and
//!   the Chrome-trace/Perfetto exporter.
//! * [`timeline`] — ASCII cycle × channel timeline rendering of a trace.
//! * [`message`] — O(log β) message-width accounting ([`MsgWidth`]).
//! * [`barrier`] — the sense-reversing barrier underneath it all.

#![warn(missing_docs)]

pub mod barrier;
pub mod engine;
pub mod epoch;
pub mod error;
pub mod export;
pub mod fault;
mod fiber;
pub mod frame;
pub mod ids;
pub mod message;
pub mod metrics;
pub mod monitor;
pub mod phase;
pub mod step;
mod sync;
pub mod timeline;
pub mod trace;
mod vector;

pub use engine::{
    Backend, Network, ProcCtx, RunReport, DEFAULT_CYCLE_BUDGET, DEFAULT_STALL_WINDOW,
};
pub use epoch::{escalate_diverged, ControlCodec, EpochCause, EpochCtx, EpochOpts, EpochRecord};
pub use error::NetError;
pub use export::{validate_chrome_trace, ChromeTraceStats, JSONL_SCHEMA_VERSION};
pub use fault::{ChaosOpts, FaultEvent, FaultKind, FaultPlan, FaultRecord, FaultSummary};
pub use frame::{frame_crc, FrameHeader, FrameRead, FRAME_HEADER_BITS};
pub use ids::{ChanId, ProcId};
pub use message::{bits_for_i64, bits_for_u64, MsgWidth};
pub use metrics::{EngineProfile, LogHistogram, Metrics, PhaseMetrics};
pub use monitor::{
    MonitorEvent, MonitorOpts, MonitorPhase, MonitorSnapshot, MonitorState, RunMonitor,
};
pub use phase::PhaseScope;
pub use step::{AsyncStep, Step, StepCtx, StepEnv, StepProtocol};
pub use timeline::{render_timeline, render_timeline_with_epochs};
pub use trace::{Event, Trace};
