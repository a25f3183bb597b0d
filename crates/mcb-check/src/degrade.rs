//! Static verification of *degraded* schedules: the §2 simulation lemma
//! as a schedule transformation.
//!
//! The paper's simulation lemma says any `MCB(p, k)` protocol runs on an
//! `MCB(p, k')` with `k' < k` channels at a `⌈k/k'⌉` cycle dilation: each
//! logical cycle is multiplexed onto the surviving channels over `⌈k/k'⌉`
//! sub-cycles. This module applies that formula to a
//! [`CheckedSchedule`], so the degraded schedule can be *proved*
//! collision-free and within the lemma's cycle bound without executing
//! anything:
//!
//! * logical channel `c` runs in sub-cycle `j = c / k'`,
//! * on physical channel `live[c % k']` (the surviving channels in
//!   ascending index order),
//! * and every logical cycle occupies exactly `⌈k/k'⌉` physical cycles
//!   (idle sub-cycles included, which is what keeps lock-step processors
//!   agreed on the clock).
//!
//! Why the mapping preserves the invariants: within one sub-cycle `j` the
//! remapped channels `{live[c % k'] : c / k' == j}` come from distinct
//! residues `c % k'`, so the map is injective per sub-cycle — two logical
//! writers that did not collide cannot be made to collide. A writer and
//! reader of the same logical channel share both `j` and the physical
//! channel, so every delivery (and every [`Expect::Value`](crate::ir::Expect::Value) guarantee)
//! survives. [`verify_degraded`] re-proves this with the real verifier
//! rather than trusting the argument.
//!
//! Deaths here are pinned to **logical** cycles of the input schedule
//! (channel `c` is gone from logical cycle `t` onward). Before the first
//! death the two clocks coincide, so a death at logical cycle `t` is also
//! one at physical cycle `t`. E15 (`tab_fault_dilation`) reads its
//! dilation table off this module, and the `degraded_schedules`
//! integration test pins the per-cycle formula.

use crate::ir::{CheckedSchedule, CycleIntents, DataFlow, DataMove, Intent, Route};
use crate::report::Report;
use crate::verify::{verify, Bounds};

/// The channel-outage plan for a static degrade: which channels die, and
/// from which **logical** cycle of the original schedule onward.
///
/// Deaths are permanent (a dead channel never recovers) and at least one
/// channel must survive every cycle — [`remap_schedule`] reports
/// [`DegradeError::AllChannelsDead`] otherwise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outages {
    k: usize,
    deaths: Vec<Option<u64>>,
}

impl Outages {
    /// No outages on `k` channels.
    ///
    /// # Panics
    /// If `k == 0`.
    pub fn new(k: usize) -> Outages {
        assert!(k >= 1, "need k >= 1");
        Outages {
            k,
            deaths: vec![None; k],
        }
    }

    /// Kill channel `chan` from logical cycle `at_cycle` onward (builder
    /// style). A second kill of the same channel keeps the earlier death.
    ///
    /// # Panics
    /// If `chan >= k` — out-of-range kills are caller bugs, like the
    /// [`ScheduleBuilder`](crate::ir::ScheduleBuilder) misuse panics.
    pub fn kill(mut self, chan: usize, at_cycle: u64) -> Outages {
        assert!(chan < self.k, "channel {chan} out of range 0..{}", self.k);
        let d = &mut self.deaths[chan];
        *d = Some(d.map_or(at_cycle, |prev| prev.min(at_cycle)));
        self
    }

    /// The channel count the plan is shaped for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Surviving channel indices at logical cycle `cycle`, ascending.
    pub fn live_at(&self, cycle: u64) -> Vec<usize> {
        (0..self.k)
            .filter(|&c| self.deaths[c].is_none_or(|d| cycle < d))
            .collect()
    }

    /// The smallest survivor count over logical cycles `0..cycles` (deaths
    /// are permanent, so this is the count in the last cycle); `k` when the
    /// schedule is empty.
    pub fn min_live(&self, cycles: u64) -> usize {
        match cycles.checked_sub(1) {
            Some(last) => self.live_at(last).len(),
            None => self.k,
        }
    }
}

/// Why a schedule cannot be degraded under an outage plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegradeError {
    /// The outage plan is shaped for a different channel count than the
    /// schedule.
    KMismatch {
        /// The schedule's `k`.
        schedule_k: usize,
        /// The plan's `k`.
        outages_k: usize,
    },
    /// Every channel is dead in some cycle the schedule still occupies —
    /// the lemma needs `k' >= 1`.
    AllChannelsDead {
        /// The first logical cycle with no survivors.
        cycle: usize,
    },
    /// An intent names a channel `>= k`; the sub-cycle formula is only
    /// defined for in-range channels (the plain verifier flags this as
    /// `BadWriteChannel`/`BadReadChannel` on the original schedule).
    BadChannel {
        /// Logical cycle of the offending intent.
        cycle: usize,
        /// The processor holding it.
        proc: usize,
        /// The out-of-range channel.
        chan: usize,
    },
}

impl std::fmt::Display for DegradeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradeError::KMismatch {
                schedule_k,
                outages_k,
            } => write!(
                f,
                "outage plan is shaped for k = {outages_k}, schedule has k = {schedule_k}"
            ),
            DegradeError::AllChannelsDead { cycle } => {
                write!(f, "no channel survives logical cycle {cycle}; the lemma needs k' >= 1")
            }
            DegradeError::BadChannel { cycle, proc, chan } => write!(
                f,
                "logical cycle {cycle}: P{proc} uses out-of-range channel {chan}; degrade the verified schedule, not a broken one"
            ),
        }
    }
}

impl std::error::Error for DegradeError {}

/// Remap `schedule` onto the channels surviving `outages`, using the §2
/// simulation lemma's multiplexing (see the [module docs](self)): logical
/// cycle `t` with `k'` survivors becomes `⌈k/k'⌉` physical sub-cycles, and
/// logical channel `c` runs in sub-cycle `c / k'` on physical channel
/// `live[c % k']`.
///
/// The result is a complete [`CheckedSchedule`] over the *same* `k`
/// (dead channels simply go unused — the verifier's `IdleChannel` lint
/// will name them) with any [`DataFlow`] layer's wire routes retargeted to
/// the carrying sub-cycle broadcasts, so the full verifier — collisions,
/// read-validity, permutation data flow — applies to the degraded schedule
/// unchanged.
pub fn remap_schedule(
    schedule: &CheckedSchedule,
    outages: &Outages,
) -> Result<CheckedSchedule, DegradeError> {
    if outages.k != schedule.k {
        return Err(DegradeError::KMismatch {
            schedule_k: schedule.k,
            outages_k: outages.k,
        });
    }
    let k = schedule.k;

    // Pass 1: the cycle layer. Record, per logical cycle, its physical
    // offset and survivor list so pass 2 can retarget wire routes.
    let mut cycles: Vec<CycleIntents> = Vec::new();
    let mut offsets: Vec<usize> = Vec::with_capacity(schedule.cycles.len());
    let mut lives: Vec<Vec<usize>> = Vec::with_capacity(schedule.cycles.len());
    for (t, cyc) in schedule.cycles.iter().enumerate() {
        let live = outages.live_at(t as u64);
        let kp = live.len();
        if kp == 0 {
            return Err(DegradeError::AllChannelsDead { cycle: t });
        }
        let h = k.div_ceil(kp);
        offsets.push(cycles.len());
        // Malformed (wrong-width) cycles stay malformed: the verifier owns
        // that diagnosis.
        let width = cyc.intents.len();
        let mut subs = vec![
            CycleIntents {
                intents: vec![Intent::default(); width],
            };
            h
        ];
        for (proc, intent) in cyc.intents.iter().enumerate() {
            if let Some(mut w) = intent.write {
                if w.chan >= k {
                    return Err(DegradeError::BadChannel {
                        cycle: t,
                        proc,
                        chan: w.chan,
                    });
                }
                let j = w.chan / kp;
                w.chan = live[w.chan % kp];
                subs[j].intents[proc].write = Some(w);
            }
            if let Some(mut r) = intent.read {
                if r.chan >= k {
                    return Err(DegradeError::BadChannel {
                        cycle: t,
                        proc,
                        chan: r.chan,
                    });
                }
                let j = r.chan / kp;
                r.chan = live[r.chan % kp];
                subs[j].intents[proc].read = Some(r);
            }
        }
        cycles.extend(subs);
        lives.push(live);
    }

    // Pass 2: retarget the data layer's wire legs onto the carrying
    // sub-cycle broadcasts. Routes naming out-of-range cycles/channels are
    // kept verbatim — the verifier reports them against the degraded
    // schedule just as it would against the original.
    let data = schedule.data.as_ref().map(|d| DataFlow {
        slots: d.slots,
        moves: d
            .moves
            .iter()
            .map(|mv| {
                let route = match mv.route {
                    Route::Wire {
                        cycle,
                        writer,
                        chan,
                        reader,
                    } if cycle < offsets.len() && chan < k => {
                        let kp = lives[cycle].len();
                        Route::Wire {
                            cycle: offsets[cycle] + chan / kp,
                            writer,
                            chan: lives[cycle][chan % kp],
                            reader,
                        }
                    }
                    other => other,
                };
                DataMove { route, ..*mv }
            })
            .collect(),
    });

    Ok(CheckedSchedule {
        name: format!(
            "{} (degraded: min k' = {})",
            schedule.name,
            outages.min_live(schedule.cycle_count())
        ),
        p: schedule.p,
        k,
        cycles,
        data,
    })
}

/// The outcome of [`verify_degraded`]: the remapped schedule, the
/// verifier's verdict on it, and the dilation accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedReport {
    /// The remapped schedule (inspectable, re-verifiable, exportable).
    pub schedule: CheckedSchedule,
    /// The full verifier run on the degraded schedule, with
    /// `cycles_max = lemma_bound` asserted on top of any caller bounds.
    pub report: Report,
    /// Physical cycles the degraded schedule occupies.
    pub dilation: u64,
    /// The lemma's bound: `⌈k / min k'⌉ ×` the original cycle count.
    pub lemma_bound: u64,
}

/// Degrade `schedule` under `outages` and prove the result: remap via
/// [`remap_schedule`], then run the full verifier with the lemma's cycle
/// bound (`⌈k / min k'⌉ ×` original cycles) asserted via
/// [`Bounds::cycles_max`] on top of the caller's `bounds`. Collision
/// freedom, read-validity, and the data-flow permutation are all re-proved
/// on the remapped schedule; [`DegradedReport::report`]`.is_ok()` is the
/// verdict.
///
/// Caller `bounds` apply to the *degraded* schedule; a caller
/// `cycles_max` tighter than the lemma bound wins.
pub fn verify_degraded(
    schedule: &CheckedSchedule,
    outages: &Outages,
    bounds: &Bounds,
) -> Result<DegradedReport, DegradeError> {
    let degraded = remap_schedule(schedule, outages)?;
    let min_live = outages.min_live(schedule.cycle_count());
    let lemma_bound = (schedule.k.div_ceil(min_live) as u64) * schedule.cycle_count();
    let mut bounds = *bounds;
    bounds.cycles_max = Some(
        bounds
            .cycles_max
            .map_or(lemma_bound, |b| b.min(lemma_bound)),
    );
    let report = verify(&degraded, &bounds);
    Ok(DegradedReport {
        dilation: degraded.cycle_count(),
        schedule: degraded,
        report,
        lemma_bound,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ScheduleBuilder;

    /// p = k processors; cycle t has everyone reading proc t%p's broadcast
    /// spread over all k channels — a dense, all-channel schedule.
    fn dense(p: usize, cycles: usize) -> CheckedSchedule {
        let mut b = ScheduleBuilder::new("dense", p, p);
        for t in 0..cycles {
            b.begin_cycle();
            for proc in 0..p {
                b.write(proc, (proc + t) % p);
                b.read(proc, (proc + t + 1) % p);
            }
        }
        b.finish()
    }

    #[test]
    fn no_outages_is_identity_on_cycles() {
        let s = dense(4, 6);
        let d = remap_schedule(&s, &Outages::new(4)).unwrap();
        assert_eq!(d.cycles, s.cycles);
        assert_eq!(d.p, s.p);
        assert_eq!(d.k, s.k);
        let r = verify_degraded(&s, &Outages::new(4), &Bounds::none()).unwrap();
        assert!(r.report.is_ok(), "{}", r.report);
        assert_eq!(r.dilation, 6);
        assert_eq!(r.lemma_bound, 6);
    }

    #[test]
    fn death_dilates_by_lemma_factor_and_stays_collision_free() {
        let s = dense(4, 6);
        // Channel 1 dies at logical cycle 2: cycles 0..2 run at k' = 4
        // (1 sub-cycle), cycles 2..6 at k' = 3 (ceil(4/3) = 2 sub-cycles).
        let outages = Outages::new(4).kill(1, 2);
        let r = verify_degraded(&s, &outages, &Bounds::none()).unwrap();
        assert!(r.report.is_ok(), "{}", r.report);
        assert_eq!(r.dilation, 2 + 4 * 2);
        assert_eq!(r.lemma_bound, 2 * 6);
        assert!(r.dilation <= r.lemma_bound);
        // The dead channel is untouched after its death cycle and the
        // verifier's idle-channel lint stays quiet only for used channels.
        for cyc in &r.schedule.cycles[2..] {
            for i in &cyc.intents {
                assert!(i.write.is_none_or(|w| w.chan != 1), "dead channel written");
                assert!(i.read.is_none_or(|rd| rd.chan != 1), "dead channel read");
            }
        }
    }

    #[test]
    fn single_survivor_serializes_fully() {
        let s = dense(3, 2);
        let outages = Outages::new(3).kill(0, 0).kill(2, 0);
        let r = verify_degraded(&s, &outages, &Bounds::none()).unwrap();
        assert!(r.report.is_ok(), "{}", r.report);
        // k' = 1 from the start: every logical cycle becomes 3 sub-cycles,
        // all traffic on channel 1.
        assert_eq!(r.dilation, 6);
        for cyc in &r.schedule.cycles {
            for i in &cyc.intents {
                assert!(i.write.is_none_or(|w| w.chan == 1));
                assert!(i.read.is_none_or(|rd| rd.chan == 1));
            }
        }
    }

    #[test]
    fn wire_routes_follow_their_broadcasts() {
        // One broadcast carrying one element, then channel 0 dies... before
        // a second carried broadcast on logical cycle 1.
        let mut b = ScheduleBuilder::new("flow", 2, 2);
        b.begin_cycle();
        b.write(0, 0);
        b.read(1, 0);
        b.begin_cycle();
        b.write(1, 0);
        b.read(0, 0);
        b.declare_slots(2);
        b.wire_move(0, 0, 0, 1, 0, 0);
        b.wire_move(1, 1, 0, 0, 1, 1);
        let s = b.finish();
        let outages = Outages::new(2).kill(0, 1);
        let r = verify_degraded(&s, &outages, &Bounds::none()).unwrap();
        // The cycle-1 broadcast moved to channel 1 (the survivor); its wire
        // route must have moved with it or the verifier would flag a
        // WireMoveMismatch.
        assert!(r.report.is_ok(), "{}", r.report);
    }

    #[test]
    fn all_dead_and_shape_mismatch_error() {
        let s = dense(2, 2);
        let err = remap_schedule(&s, &Outages::new(2).kill(0, 1).kill(1, 1)).unwrap_err();
        assert_eq!(err, DegradeError::AllChannelsDead { cycle: 1 });
        let err = remap_schedule(&s, &Outages::new(3)).unwrap_err();
        assert_eq!(
            err,
            DegradeError::KMismatch {
                schedule_k: 2,
                outages_k: 3
            }
        );
    }

    #[test]
    fn collisions_in_the_original_survive_into_the_degraded() {
        // Two writers on one channel: degrading must not mask the bug.
        let mut b = ScheduleBuilder::new("bad", 2, 2);
        b.begin_cycle();
        b.write(0, 1);
        b.write(1, 1);
        let s = b.finish();
        let r = verify_degraded(&s, &Outages::new(2).kill(0, 0), &Bounds::none()).unwrap();
        assert!(!r.report.is_ok());
    }

    #[test]
    fn caller_bounds_compose_with_the_lemma_bound() {
        let s = dense(2, 4);
        let outages = Outages::new(2).kill(1, 0);
        // Lemma bound = 2 * 4 = 8 and the degrade hits it exactly; a caller
        // bound of 7 must fail.
        let tight = Bounds {
            cycles_max: Some(7),
            ..Bounds::none()
        };
        let r = verify_degraded(&s, &outages, &tight).unwrap();
        assert!(!r.report.is_ok());
        let r = verify_degraded(&s, &outages, &Bounds::none()).unwrap();
        assert!(r.report.is_ok(), "{}", r.report);
        assert_eq!(r.dilation, 8);
    }
}
