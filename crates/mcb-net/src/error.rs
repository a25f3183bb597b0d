//! Error types for MCB network runs.

use crate::ids::{ChanId, ProcId};
use std::fmt;

/// A fatal condition detected while executing a protocol on the network.
///
/// The MCB model requires protocols to be *collision-free* (paper §2): "if
/// more than one processor attempts to write on the same channel in the same
/// cycle, the computation fails". The engine detects this at run time and
/// fails the whole run, rather than silently picking a winner.
///
/// Every variant's documentation states the **recovery action** — what a
/// caller should change so the next run succeeds. None of the variants wrap
/// another error, so [`std::error::Error::source`] is always `None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Two processors wrote the same channel in the same cycle.
    ///
    /// **Recovery:** fix the protocol's schedule — the model has no
    /// arbitration, so the writers must be serialized (or moved to
    /// different channels). `mcb-check` can prove a static schedule
    /// collision-free before it ever runs.
    Collision {
        /// Global cycle index at which the collision occurred.
        cycle: u64,
        /// The contested channel.
        channel: ChanId,
        /// The processor whose write landed first (engine order, arbitrary).
        first: ProcId,
        /// The processor whose write collided.
        second: ProcId,
    },
    /// A processor addressed a channel outside `0..k`.
    ///
    /// **Recovery:** clamp the protocol's channel arithmetic to the
    /// network's `k` (usually an off-by-one in a remap or a plan/network
    /// shape mismatch).
    BadChannel {
        /// Global cycle index.
        cycle: u64,
        /// The offending processor.
        proc: ProcId,
        /// The out-of-range channel index.
        channel: ChanId,
        /// Number of channels in the network.
        k: usize,
    },
    /// A processor's protocol closure panicked.
    ///
    /// **Recovery:** debug the protocol; the payload text and processor id
    /// locate the bug. The engine has already force-unwound the other
    /// processors, so no harness state needs cleaning up.
    ProcPanicked {
        /// The processor whose closure panicked.
        proc: ProcId,
        /// Panic payload rendered to a string when possible.
        message: String,
    },
    /// The run exceeded the configured cycle budget (likely livelock).
    ///
    /// **Recovery:** raise [`Network::cycle_budget`](crate::Network::cycle_budget)
    /// if the protocol legitimately needs more cycles; otherwise find the
    /// loop that never terminates.
    CycleBudgetExhausted {
        /// The configured budget.
        budget: u64,
    },
    /// The watchdog saw no network activity — no message delivered, no
    /// processor finishing — for a whole stall window (see
    /// [`Network::stall_window`](crate::Network::stall_window)): the
    /// protocol is livelocked (e.g. every processor waiting on a read that
    /// can never arrive).
    ///
    /// **Recovery:** make the protocol's progress unconditional (every
    /// waiting loop needs a bounded fallback), or widen the stall window if
    /// long silent stretches are expected.
    Stalled {
        /// Global cycle at which the watchdog gave up.
        cycle: u64,
    },
    /// A self-healing processor ran out of reconfiguration budget: every
    /// census sweep proved no live channel or processor, or the run
    /// already committed [`EpochOpts::max_epochs`](crate::EpochOpts)
    /// reconfigurations (see [`EpochCtx::reconfigure`](crate::EpochCtx::reconfigure)).
    ///
    /// **Recovery:** raise the budget
    /// ([`EpochOpts::census_retries`](crate::EpochOpts) /
    /// [`EpochOpts::max_epochs`](crate::EpochOpts)) past the plan's fault
    /// count — or accept that the plan violates the §2 lemma's
    /// precondition (at least one live channel) and cannot be survived.
    Unrecoverable {
        /// Global cycle at which the processor gave up.
        cycle: u64,
        /// The processor that escalated.
        proc: ProcId,
        /// The budget that was exhausted: census sweeps run, or the epoch
        /// cap.
        attempts: u32,
    },
    /// A self-healing processor observed traffic stamped with a different
    /// epoch than its own: the network's common knowledge of the live
    /// configuration has split (e.g. a stalled processor missed a
    /// reconfiguration and kept transmitting under the old epoch).
    ///
    /// **Recovery:** keep desynchronizing faults (stalls) out of
    /// self-healing plans — detection relies on every live processor
    /// observing every round; see
    /// [`ChaosOpts::unplanned`](crate::ChaosOpts::unplanned) for a
    /// compatible fault mix. The run cannot proceed: a split epoch means
    /// the configuration sets have diverged irreparably.
    EpochDiverged {
        /// Global cycle at which the divergence was observed.
        cycle: u64,
        /// The processor that observed it.
        proc: ProcId,
        /// The observer's own epoch.
        expected: u64,
        /// The epoch stamped on the observed traffic (`u64::MAX` when the
        /// traffic was not decodable as epoch-stamped at all).
        observed: u64,
    },
    /// The network was configured with invalid parameters.
    ///
    /// **Recovery:** the message names the violated constraint (`k <= p`,
    /// plan shape, column shape, …); fix the configuration, not the
    /// protocol.
    BadConfig(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Collision {
                cycle,
                channel,
                first,
                second,
            } => write!(
                f,
                "write collision on {channel} at cycle {cycle}: {first} and {second}"
            ),
            NetError::BadChannel {
                cycle,
                proc,
                channel,
                k,
            } => write!(
                f,
                "{proc} addressed out-of-range channel index {} (k = {k}) at cycle {cycle}",
                channel.0
            ),
            NetError::ProcPanicked { proc, message } => {
                write!(f, "protocol on {proc} panicked: {message}")
            }
            NetError::CycleBudgetExhausted { budget } => {
                write!(f, "run exceeded cycle budget of {budget} cycles")
            }
            NetError::Stalled { cycle } => {
                write!(f, "no network activity for a whole stall window; livelock detected at cycle {cycle}")
            }
            NetError::Unrecoverable {
                cycle,
                proc,
                attempts,
            } => write!(
                f,
                "{proc} exhausted a reconfiguration budget of {attempts} at cycle {cycle}; degraded run unrecoverable"
            ),
            NetError::EpochDiverged {
                cycle,
                proc,
                expected,
                observed,
            } => {
                write!(
                    f,
                    "{proc} at epoch {expected} observed epoch-{} traffic at cycle {cycle}; configuration knowledge has split",
                    if *observed == u64::MAX {
                        "unknown".to_string()
                    } else {
                        observed.to_string()
                    }
                )
            }
            NetError::BadConfig(msg) => write!(f, "bad network configuration: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    /// One representative value per variant, in declaration order.
    fn all_variants() -> Vec<NetError> {
        vec![
            NetError::Collision {
                cycle: 7,
                channel: ChanId(2),
                first: ProcId(0),
                second: ProcId(3),
            },
            NetError::BadChannel {
                cycle: 1,
                proc: ProcId(2),
                channel: ChanId(9),
                k: 4,
            },
            NetError::ProcPanicked {
                proc: ProcId(5),
                message: "index out of bounds".into(),
            },
            NetError::CycleBudgetExhausted { budget: 1000 },
            NetError::Stalled { cycle: 512 },
            NetError::Unrecoverable {
                cycle: 40,
                proc: ProcId(1),
                attempts: 32,
            },
            NetError::EpochDiverged {
                cycle: 99,
                proc: ProcId(4),
                expected: 2,
                observed: 1,
            },
            NetError::BadConfig("k > p".into()),
        ]
    }

    #[test]
    fn display_mentions_key_facts_for_every_variant() {
        let expect_fragments: Vec<Vec<&str>> = vec![
            vec!["collision", "C3", "cycle 7", "P1", "P4"],
            vec!["P3", "9", "k = 4", "cycle 1"],
            vec!["P6", "panicked", "index out of bounds"],
            vec!["budget", "1000"],
            vec!["livelock", "cycle 512"],
            vec!["P2", "32", "cycle 40", "unrecoverable"],
            vec!["P5", "epoch 2", "epoch-1", "cycle 99", "split"],
            vec!["bad network configuration", "k > p"],
        ];
        for (e, frags) in all_variants().iter().zip(expect_fragments) {
            let s = e.to_string();
            for frag in frags {
                assert!(s.contains(frag), "{e:?} display {s:?} missing {frag:?}");
            }
        }
    }

    #[test]
    fn no_variant_wraps_a_source() {
        for e in all_variants() {
            assert!(e.source().is_none(), "{e:?} should have no source");
        }
    }

    #[test]
    fn epoch_diverged_renders_unknown_epoch() {
        let e = NetError::EpochDiverged {
            cycle: 5,
            proc: ProcId(0),
            expected: 3,
            observed: u64::MAX,
        };
        assert!(e.to_string().contains("epoch-unknown"), "{e}");
    }

    #[test]
    fn error_trait_object_works() {
        let e: Box<dyn std::error::Error> = Box::new(NetError::BadConfig("k > p".into()));
        assert!(e.to_string().contains("k > p"));
    }
}
