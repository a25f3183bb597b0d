//! # mcb-check — static verification of MCB broadcast schedules
//!
//! The paper's cost model rests on protocols being **collision-free**
//! (§2: "if two processors write on the same channel in the same cycle,
//! the computation fails"). The engine in `mcb-net` discovers violations
//! *dynamically* — when a run happens to exercise the bad cycle. But every
//! algorithm in `mcb-algos` is driven by closed-form, locally computed
//! schedules, so collision-freedom is a *statically checkable fact*. This
//! crate checks it, plus the rest of the model's obligations, without
//! executing anything:
//!
//! * **IR** ([`ir::CheckedSchedule`]): per-cycle write/read intents for
//!   every processor, plus an optional data-movement layer
//!   ([`ir::DataFlow`]) recording where each element travels (locally or
//!   over a scheduled wire).
//! * **Verifier** ([`verify::verify`]): proves at most one writer per
//!   (cycle, channel); every `Expect::Value` read targets a channel with a
//!   guaranteed writer that cycle; data moves form a permutation (no
//!   element lost or duplicated) whose wire legs match scheduled
//!   broadcasts; and cycle/message counts match the paper's closed forms
//!   (exact or upper-bound, [`verify::Bounds`]). Violations come back as a
//!   machine-readable [`report::Report`] (JSON via `mcb-json`) with a
//!   human-readable diff via `Display`.
//! * **Degraded schedules** ([`degrade`]): the paper's §2 simulation
//!   lemma as a schedule transformation — remap a schedule onto the
//!   channels surviving an outage plan (`⌈k/k'⌉` sub-cycles per logical
//!   cycle) and re-prove collision-freedom plus the lemma's dilation bound
//!   on the result; or fold an `MCB(p', k')` schedule onto an `MCB(p, k)`
//!   host (`(p'/p)²(k'/k)` cycles per virtual cycle, each message
//!   repeated `p'/p` times) and prove the fold with exact bounds. This is
//!   the repo's one implementation of the lemma.
//! * **Multi-epoch runs** ([`epochs`]): the same proof extended to
//!   self-healing runs that reconfigure mid-flight — each epoch's
//!   schedule is degraded and verified in its own configuration, and the
//!   per-epoch lemma bounds compose into a whole-run cycle bound.
//! * **Symbolic network verification** ([`symbolic`]): for *oblivious*
//!   schedules — comparator networks, whose wire behaviour is a pure
//!   function of `(p, k)` — an abstract-interpretation pass proves the
//!   schedule implements a declared comparator sequence for **every**
//!   input, and a 0-1-principle prover (bit-parallel replay of all `2^p`
//!   binary inputs, or a recursive block/merger certificate above
//!   `p = 20`) proves the network sorts. No concrete-key round-simulation
//!   anywhere.
//! * **Mutation self-test** ([`mutate`]): seeds off-by-one faults into a
//!   valid schedule and asserts the verifier flags every one — the checker
//!   is itself checked. Comparator-network mutation classes
//!   ([`symbolic::NetFault`]) do the same for the symbolic pass.
//! * **Conformance bridge** ([`wire`]): replays an engine trace (what was
//!   *actually* broadcast) against the static schedule, tying the static
//!   and dynamic worlds together.
//!
//! The emitters live with the algorithms (`mcb_algos::static_schedule`);
//! this crate is deliberately foundational — it depends only on the
//! in-repo `mcb-json` (reports) and `mcb-rng` (fault seeding).
//!
//! ```
//! use mcb_check::{Bounds, ScheduleBuilder};
//!
//! // Two processors ping-pong over one channel: statically fine.
//! let mut b = ScheduleBuilder::new("ping-pong", 2, 1);
//! b.begin_cycle();
//! b.write(0, 0);
//! b.read(1, 0);
//! b.begin_cycle();
//! b.write(1, 0);
//! b.read(0, 0);
//! let report = mcb_check::verify(&b.finish(), &Bounds::none());
//! assert!(report.is_ok(), "{report}");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod degrade;
pub mod epochs;
pub mod ir;
pub mod mutate;
pub mod report;
pub mod symbolic;
pub mod verify;
pub mod wire;

pub use degrade::{
    fold_schedule, remap_schedule, verify_degraded, verify_folded, DegradeError, DegradedReport,
    FoldedReport, Outages,
};
pub use epochs::{verify_epochs, EpochSegment, EpochsReport};
pub use ir::{
    CheckedSchedule, CycleIntents, DataFlow, DataMove, Expect, Intent, ReadIntent, Route,
    ScheduleBuilder, WriteIntent,
};
pub use mutate::{seed_fault, Fault};
pub use report::{Report, Stats};
pub use symbolic::{
    seed_net_fault, verify_network, Comparator, Exchange, NetFault, NetViolation, ObliviousNetwork,
    SortCert, SorterCert, SymbolicReport,
};
pub use verify::{verify, Bounds, Lint, Violation};
pub use wire::{check_conformance, Conformance, ConformanceError, WireEvent, WireLog};
