//! Multi-epoch degraded verification: prove a *self-healing* run's whole
//! epoch history sound, one configuration at a time.
//!
//! A self-healing run (the `heal` module of `mcb-algos`) passes through a
//! sequence of **epochs**: epoch 0 is the fault-free configuration; each
//! detected fault triggers a census that commits a new epoch with smaller
//! live channel/processor sets. Within one epoch the protocol is an
//! ordinary static schedule on the surviving hardware, so the §2 lemma
//! machinery of [`degrade`](crate::degrade) applies epoch by epoch:
//!
//! * the caller supplies, per epoch, the **logical** schedule the protocol
//!   follows in that configuration (roles already re-dealt over the
//!   surviving processors) and the channels dead in that epoch;
//! * [`verify_epochs`] remaps each onto the epoch's survivors via
//!   [`remap_schedule`](crate::degrade::remap_schedule) and re-proves
//!   collision-freedom, read-validity, and the lemma's `⌈k/k'⌉` dilation
//!   bound with the full verifier;
//! * the per-epoch lemma bounds then compose into a whole-run bound:
//!   `Σᵢ lemma_boundᵢ + (E − 1) × reconfig_overhead`, charging one
//!   reconfiguration (census + bounded rollback) per epoch transition.
//!
//! The composition is sound because epochs are serial and disjoint: a run
//! is inside exactly one configuration at a time, transitions cost at most
//! `reconfig_overhead` cycles by construction of the census, and deaths
//! are permanent so later epochs never resurrect hardware an earlier proof
//! assumed dead.

use crate::degrade::{verify_degraded, DegradeError, DegradedReport, Outages};
use crate::ir::CheckedSchedule;
use crate::verify::Bounds;

/// One epoch of a self-healing run, as seen by the static layer.
#[derive(Debug, Clone)]
pub struct EpochSegment {
    /// The logical schedule the protocol follows in this configuration
    /// (full channel range `0..k`; the remap squeezes it onto survivors).
    pub schedule: CheckedSchedule,
    /// Channels dead throughout this epoch (dead from its first cycle —
    /// a mid-epoch death is what *ends* an epoch, so it belongs to the
    /// next segment).
    pub dead_chans: Vec<usize>,
}

impl EpochSegment {
    /// A segment with no dead channels (epoch 0 of a run that was born
    /// healthy).
    pub fn healthy(schedule: CheckedSchedule) -> EpochSegment {
        EpochSegment {
            schedule,
            dead_chans: Vec::new(),
        }
    }

    /// A segment with the given channels dead from its first cycle.
    pub fn degraded(schedule: CheckedSchedule, dead_chans: Vec<usize>) -> EpochSegment {
        EpochSegment {
            schedule,
            dead_chans,
        }
    }

    fn outages(&self) -> Outages {
        self.dead_chans
            .iter()
            .fold(Outages::new(self.schedule.k), |o, &c| o.kill(c, 0))
    }
}

/// The outcome of [`verify_epochs`]: one full degraded proof per epoch
/// plus the composed whole-run cycle bound.
#[derive(Debug, Clone)]
pub struct EpochsReport {
    /// Per-epoch verdicts, in epoch order (same length as the input).
    pub reports: Vec<DegradedReport>,
    /// The composed bound: `Σ lemma_bound + (epochs − 1) × reconfig_overhead`.
    pub total_bound: u64,
}

impl EpochsReport {
    /// Did every epoch's degraded schedule verify clean?
    pub fn is_ok(&self) -> bool {
        self.reports.iter().all(DegradedReport::is_ok)
    }

    /// Indices of epochs whose verification failed.
    pub fn failed_epochs(&self) -> Vec<usize> {
        self.reports
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.is_ok())
            .map(|(i, _)| i)
            .collect()
    }
}

/// Verify every epoch of a self-healing run and compose the cycle bound
/// (see the [module docs](self)). `reconfig_overhead` is the worst-case
/// cost of one epoch transition — for the census protocol this is
/// `EpochCtx::census_cost` plus one phase of rollback. Caller `bounds`
/// apply per epoch, on top of each epoch's lemma bound.
///
/// Errors propagate from the first epoch that cannot even be remapped
/// (shape mismatch, no surviving channel). An empty segment list is a
/// caller bug and panics — a run always has epoch 0.
pub fn verify_epochs(
    segments: &[EpochSegment],
    reconfig_overhead: u64,
    bounds: &Bounds,
) -> Result<EpochsReport, DegradeError> {
    assert!(!segments.is_empty(), "a run always has epoch 0");
    let mut reports = Vec::with_capacity(segments.len());
    for seg in segments {
        reports.push(verify_degraded(&seg.schedule, &seg.outages(), bounds)?);
    }
    let total_bound = reports.iter().map(|r| r.lemma_bound).sum::<u64>()
        + (segments.len() as u64 - 1) * reconfig_overhead;
    Ok(EpochsReport {
        reports,
        total_bound,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ScheduleBuilder;

    /// One writer per cycle, everyone reads — the all-read round shape the
    /// self-healing layer emits.
    fn all_read(p: usize, k: usize, rounds: usize) -> CheckedSchedule {
        let mut b = ScheduleBuilder::new("all-read", p, k);
        for t in 0..rounds {
            b.begin_cycle();
            let chan = t % k;
            b.write(t % p, chan);
            for proc in 0..p {
                b.read(proc, chan);
            }
        }
        b.finish()
    }

    #[test]
    fn healthy_single_epoch_has_no_reconfig_charge() {
        let segs = [EpochSegment::healthy(all_read(3, 2, 6))];
        let r = verify_epochs(&segs, 1000, &Bounds::none()).unwrap();
        assert!(r.is_ok());
        assert_eq!(r.reports.len(), 1);
        assert_eq!(r.total_bound, 6); // lemma factor 1, zero transitions
        assert!(r.failed_epochs().is_empty());
    }

    #[test]
    fn epoch_bounds_compose_with_reconfig_overhead() {
        // Epoch 0 healthy (6 rounds), epoch 1 with channel 0 dead (4
        // rounds, k' = 1 so the lemma doubles them).
        let segs = [
            EpochSegment::healthy(all_read(3, 2, 6)),
            EpochSegment::degraded(all_read(3, 2, 4), vec![0]),
        ];
        let r = verify_epochs(&segs, 10, &Bounds::none()).unwrap();
        assert!(r.is_ok(), "{:?}", r.failed_epochs());
        assert_eq!(r.reports[0].lemma_bound, 6);
        assert_eq!(r.reports[1].lemma_bound, 8);
        assert_eq!(r.total_bound, 6 + 8 + 10);
        // The degraded epoch really moved off the dead channel.
        for cyc in &r.reports[1].schedule.cycles {
            for i in &cyc.intents {
                assert!(i.write.is_none_or(|w| w.chan == 1));
                assert!(i.read.is_none_or(|rd| rd.chan == 1));
            }
        }
    }

    #[test]
    fn a_colliding_epoch_fails_and_is_named() {
        let mut b = ScheduleBuilder::new("bad", 2, 2);
        b.begin_cycle();
        b.write(0, 0);
        b.write(1, 0);
        let segs = [
            EpochSegment::healthy(all_read(2, 2, 2)),
            EpochSegment::healthy(b.finish()),
        ];
        let r = verify_epochs(&segs, 5, &Bounds::none()).unwrap();
        assert!(!r.is_ok());
        assert_eq!(r.failed_epochs(), vec![1]);
    }

    #[test]
    fn an_epoch_whose_input_fails_is_named() {
        // A wire route naming a cycle past the schedule's end: the remap
        // keeps it verbatim and the degraded schedule gives it a match, so
        // only the epoch's input verdict catches it.
        let mut b = ScheduleBuilder::new("stray route", 2, 2);
        b.begin_cycle();
        b.write(0, 1);
        b.read(1, 1);
        b.declare_slots(1);
        b.wire_move(1, 0, 1, 1, 0, 0);
        let segs = [
            EpochSegment::healthy(all_read(2, 2, 2)),
            EpochSegment::degraded(b.finish(), vec![0]),
        ];
        let r = verify_epochs(&segs, 5, &Bounds::none()).unwrap();
        assert!(r.reports[1].report.is_ok());
        assert!(!r.is_ok());
        assert_eq!(r.failed_epochs(), vec![1]);
    }

    #[test]
    fn all_channels_dead_is_a_degrade_error() {
        let segs = [EpochSegment::degraded(all_read(2, 2, 2), vec![0, 1])];
        let err = verify_epochs(&segs, 0, &Bounds::none()).unwrap_err();
        assert_eq!(err, DegradeError::AllChannelsDead { cycle: 0 });
    }
}
