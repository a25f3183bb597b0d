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
//! channel, so every delivery (and every [`Expect::Value`] guarantee)
//! survives. [`verify_degraded`] re-proves this with the real verifier
//! rather than trusting the argument.
//!
//! Deaths here are pinned to **logical** cycles of the input schedule
//! (channel `c` is gone from logical cycle `t` onward). Before the first
//! death the two clocks coincide, so a death at logical cycle `t` is also
//! one at physical cycle `t`. E15 (`tab_fault_dilation`) reads its
//! dilation table off this module, and the `degraded_schedules`
//! integration test pins the per-cycle formula.
//!
//! # Processor folding
//!
//! The lemma's other half runs an `MCB(p', k')` schedule on an `MCB(p, k)`
//! with `g = p'/p` virtual processors per host, each message repeated `g`
//! times. [`fold_schedule`] reduces the channels with [`remap_schedule`]
//! (channels `k..k'` dead from cycle 0: class `c / k` on physical channel
//! `c % k`) and then spreads every remapped cycle over `g × g` slots, so
//! one virtual cycle costs exactly `g²·h` physical cycles with `h = k'/k`.
//! [`verify_folded`] proves the input and the fold. E10
//! (`tab_virtualization`) reads its overhead table off it.

use crate::ir::{
    CheckedSchedule, CycleIntents, DataFlow, DataMove, Expect, Intent, ReadIntent, Route,
};
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
    /// A fold needs every dimension `>= 1`, `p | p'` and `k | k'`.
    FoldRatio {
        /// The schedule's (virtual) `p'`.
        virt_p: usize,
        /// The schedule's (virtual) `k'`.
        virt_k: usize,
        /// The host's `p`.
        p: usize,
        /// The host's `k`.
        k: usize,
    },
    /// A fold side has more channels than processors; the model needs
    /// `k <= p` on the virtual and on the physical network.
    KAboveP {
        /// Processors of the offending side.
        p: usize,
        /// Channels of the offending side.
        k: usize,
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
            DegradeError::FoldRatio {
                virt_p,
                virt_k,
                p,
                k,
            } => write!(
                f,
                "cannot fold MCB({virt_p}, {virt_k}) onto MCB({p}, {k}): need p | p' and k | k', every dimension >= 1"
            ),
            DegradeError::KAboveP { p, k } => {
                write!(f, "MCB({p}, {k}) has more channels than processors; the model needs k <= p")
            }
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
    // kept verbatim. The longer degraded schedule may give such a route a
    // broadcast to match, so `verify_degraded` also proves the input.
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
/// verdicts on both sides of the remap, and the dilation accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedReport {
    /// The remapped schedule (inspectable, re-verifiable, exportable).
    pub schedule: CheckedSchedule,
    /// The verifier on the input schedule, which alone sees a wire route
    /// naming a cycle past the input's end: the remap keeps such a route
    /// verbatim, and it may match a real broadcast in the longer degraded
    /// schedule.
    pub input: Report,
    /// The full verifier run on the degraded schedule, with
    /// `cycles_max = lemma_bound` asserted on top of any caller bounds.
    pub report: Report,
    /// Physical cycles the degraded schedule occupies.
    pub dilation: u64,
    /// The lemma's bound: `⌈k / min k'⌉ ×` the original cycle count.
    pub lemma_bound: u64,
}

impl DegradedReport {
    /// True when both the input and the degraded schedule verify clean.
    pub fn is_ok(&self) -> bool {
        self.input.is_ok() && self.report.is_ok()
    }
}

/// Degrade `schedule` under `outages` and prove the result: remap via
/// [`remap_schedule`], then run the full verifier with the lemma's cycle
/// bound (`⌈k / min k'⌉ ×` original cycles) asserted via
/// [`Bounds::cycles_max`] on top of the caller's `bounds`. Collision
/// freedom, read-validity, and the data-flow permutation are all re-proved
/// on the remapped schedule, and the input is proved with the plain
/// verifier; [`DegradedReport::is_ok`] is the verdict.
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
        input: verify(schedule, &Bounds::none()),
        report,
        lemma_bound,
    })
}

/// Fold `schedule`, written for a virtual `MCB(p', k')`, onto a host
/// `MCB(p, k)` (see the [module docs](self)), with `g = p'/p`.
///
/// Channels are reduced by [`remap_schedule`] with channels `k..k'` dead
/// from cycle 0. Host `u` carries the virtual processors `v` with
/// `v / g == u`, at local index `v mod g`, and every remapped cycle becomes
/// `g × g` slots `(a_w, a_r)`. In slot `(a_w, a_r)` a host performs the
/// write of its local `a_w` and the read of its local `a_r`:
///
/// * each virtual write goes out `g` times, once per `a_r`;
/// * a virtual read keeps its [`Expect`] in the slot of its writer's local
///   index and reads [`Expect::MaybeEmpty`] in the other `g − 1`;
/// * idle slots stay, so every virtual cycle costs exactly `g²·h` cycles.
///
/// A [`DataFlow`] layer follows: a wire leg moves to its carrying slot and
/// to the writer's and reader's hosts, a local move to its host.
///
/// A host's one-write/one-read port budget holds by construction: the IR
/// keeps one intent per processor per cycle, so an over-subscribed port
/// cannot be expressed. Only a lost delivery can, and [`verify`] reports
/// it. What the fold cannot show is a collision between virtual writers
/// with different local indices, which land in different slots; that is
/// why [`verify_folded`] proves the input too. Virtual processors missing
/// from a malformed (short) cycle fold to idle; the input's verdict names
/// the malformed cycle.
pub fn fold_schedule(
    schedule: &CheckedSchedule,
    p: usize,
    k: usize,
) -> Result<CheckedSchedule, DegradeError> {
    let (virt_p, virt_k) = (schedule.p, schedule.k);
    if [p, k, virt_p, virt_k].contains(&0) || virt_p % p != 0 || virt_k % k != 0 {
        return Err(DegradeError::FoldRatio {
            virt_p,
            virt_k,
            p,
            k,
        });
    }
    for (p, k) in [(virt_p, virt_k), (p, k)] {
        if k > p {
            return Err(DegradeError::KAboveP { p, k });
        }
    }
    let g = virt_p / p;
    let remapped = remap_schedule(
        schedule,
        &(k..virt_k).fold(Outages::new(virt_k), |o, c| o.kill(c, 0)),
    )?;

    let mut cycles = Vec::with_capacity(remapped.cycles.len() * g * g);
    // Per channel, the local index of its (first) writer: the slot where
    // its readers keep their Expect. An unwritten channel keeps it in
    // slot 0, so a broken `Expect::Value` read stays broken.
    let mut writer_slot: Vec<Option<usize>> = vec![None; k];
    for cyc in &remapped.cycles {
        let virt = |v: usize| cyc.intents.get(v).copied().unwrap_or_default();
        writer_slot.fill(None);
        for (v, intent) in cyc.intents.iter().enumerate() {
            if let Some(w) = intent.write {
                writer_slot[w.chan].get_or_insert(v % g);
            }
        }
        for a_w in 0..g {
            for a_r in 0..g {
                let intents = (0..p)
                    .map(|u| Intent {
                        write: virt(u * g + a_w).write,
                        read: virt(u * g + a_r).read.map(|r| ReadIntent {
                            expect: if writer_slot[r.chan].unwrap_or(0) == a_w {
                                r.expect
                            } else {
                                Expect::MaybeEmpty
                            },
                            ..r
                        }),
                    })
                    .collect();
                cycles.push(CycleIntents { intents });
            }
        }
    }

    let data = remapped.data.map(|d| DataFlow {
        slots: d.slots,
        moves: d
            .moves
            .into_iter()
            .map(|mv| {
                let route = match mv.route {
                    Route::Local { proc } => Route::Local { proc: proc / g },
                    Route::Wire {
                        cycle,
                        writer,
                        chan,
                        reader,
                    } => Route::Wire {
                        cycle: cycle
                            .saturating_mul(g * g)
                            .saturating_add(writer % g * g + reader % g),
                        writer: writer / g,
                        chan,
                        reader: reader / g,
                    },
                };
                DataMove { route, ..mv }
            })
            .collect(),
    });

    Ok(CheckedSchedule {
        name: format!("{} (folded onto MCB({p}, {k}))", schedule.name),
        p,
        k,
        cycles,
        data,
    })
}

/// The outcome of [`verify_folded`]: the folded schedule and the verdicts
/// on both sides of the fold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldedReport {
    /// The folded schedule on the host `MCB(p, k)`.
    pub schedule: CheckedSchedule,
    /// The verifier on the input schedule, which alone sees collisions
    /// between virtual writers the fold puts in different slots.
    pub input: Report,
    /// The verifier on the folded schedule, with its exact cycle count
    /// (`g²·h ×` the input's) and message count (`g ×` the input's)
    /// asserted.
    pub report: Report,
}

impl FoldedReport {
    /// True when both the input and the folded schedule verify clean.
    pub fn is_ok(&self) -> bool {
        self.input.is_ok() && self.report.is_ok()
    }
}

/// Fold `schedule` onto `MCB(p, k)` via [`fold_schedule`] and prove both
/// sides: the input with the plain verifier, the fold with the exact
/// bounds `cycles = g²·h·L` and `messages = g ×` the input's count (as an
/// upper bound only when suppressible writes make the count a range).
pub fn verify_folded(
    schedule: &CheckedSchedule,
    p: usize,
    k: usize,
) -> Result<FoldedReport, DegradeError> {
    let folded = fold_schedule(schedule, p, k)?;
    let g = (schedule.p / p) as u64;
    let h = (schedule.k / k) as u64;
    let (min, max) = schedule.message_bounds();
    let bounds = Bounds {
        cycles_exact: Some(g * g * h * schedule.cycle_count()),
        messages_exact: (min == max).then_some(g * max),
        messages_max: Some(g * max),
        ..Bounds::none()
    };
    Ok(FoldedReport {
        input: verify(schedule, &Bounds::none()),
        report: verify(&folded, &bounds),
        schedule: folded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{ScheduleBuilder, WriteIntent};

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
        assert!(r.is_ok(), "{}\n{}", r.input, r.report);
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
        assert!(r.is_ok(), "{}\n{}", r.input, r.report);
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
        assert!(r.is_ok(), "{}\n{}", r.input, r.report);
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
        assert!(r.is_ok(), "{}\n{}", r.input, r.report);
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
    fn fold_lays_each_virtual_cycle_over_g_by_g_slots() {
        // MCB(4, 2) onto MCB(2, 2): g = 2, h = 1. Virtual P1 (host 0, local
        // 1) writes channel 0; virtual P2 (host 1, local 0) reads it.
        let mut b = ScheduleBuilder::new("one message", 4, 2);
        b.begin_cycle();
        b.write(1, 0);
        b.read(2, 0);
        let folded = fold_schedule(&b.finish(), 2, 2).unwrap();
        assert_eq!((folded.p, folded.k, folded.cycle_count()), (2, 2, 4));
        let read = |expect| Some(ReadIntent { chan: 0, expect });
        let write = Some(WriteIntent {
            chan: 0,
            may_suppress: false,
        });
        // Slots in (a_w, a_r) order: the write goes out in both a_w = 1
        // slots; the read keeps its Expect only in the writer's slot.
        let slots: Vec<(Option<WriteIntent>, Option<ReadIntent>)> = folded
            .cycles
            .iter()
            .map(|c| (c.intents[0].write, c.intents[1].read))
            .collect();
        assert_eq!(
            slots,
            vec![
                (None, read(Expect::MaybeEmpty)),
                (None, None),
                (write, read(Expect::Value)),
                (write, None),
            ]
        );
        assert!(verify(&folded, &Bounds::none()).is_ok());
    }

    #[test]
    fn fold_needs_k_at_most_p_on_both_sides() {
        let empty = |p, k| CheckedSchedule {
            name: "empty".into(),
            p,
            k,
            cycles: Vec::new(),
            data: None,
        };
        assert_eq!(
            fold_schedule(&empty(2, 4), 1, 1),
            Err(DegradeError::KAboveP { p: 2, k: 4 })
        );
        assert_eq!(
            fold_schedule(&empty(4, 4), 2, 4),
            Err(DegradeError::KAboveP { p: 2, k: 4 })
        );
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
        assert!(r.is_ok(), "{}\n{}", r.input, r.report);
        assert_eq!(r.dilation, 8);
    }
}
