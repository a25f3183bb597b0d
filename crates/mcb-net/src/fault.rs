//! Deterministic fault injection.
//!
//! The engine is normally fail-fast: collisions, panics, and bad channels
//! abort the run. This module adds the opposite capability — *keep going on
//! degraded hardware* — in a way that stays bit-deterministic and identical
//! across the execution backends.
//!
//! # Fault taxonomy
//!
//! A [`FaultPlan`] is a **static, seeded schedule of faults**, fixed before
//! the run starts. Five kinds exist ([`FaultKind`]):
//!
//! | kind           | scope                | semantics                                        |
//! |----------------|----------------------|--------------------------------------------------|
//! | `ChannelDeath` | channel, permanent   | writes to the channel are lost from the death cycle on |
//! | `Drop`         | (cycle, channel)     | the message transmitted that slot vanishes       |
//! | `Corrupt`      | (cycle, channel)     | detected-and-discarded (CRC model): same loss as a drop, distinct record |
//! | `Crash`        | processor, permanent | the processor stops mid-protocol; its result slot stays `None` |
//! | `Stall`        | (cycle, processor)   | the processor's I/O is suppressed that cycle (writes lost, reads empty); its program still advances |
//!
//! Faulted transmissions never reach the channel slot, so they do not
//! participate in collision detection ("jammed at the transmitter") and are
//! **not** counted as messages; every *fired* fault is recorded as a
//! [`FaultRecord`] in [`Metrics::faults`](crate::Metrics::faults), the
//! [`Trace`](crate::Trace), and the JSONL export.
//!
//! # Recovery
//!
//! Protocols are never told which faults fire: the plan drives only the
//! injection side. Recovery is the self-healing stack's job — the frame
//! layer ([`crate::frame`]) makes every fault visible on the wire, the
//! epoch census ([`crate::epoch`]) agrees on the surviving channels and
//! processors, and `mcb_algos::heal` replays the interrupted phase on
//! them. The paper's §2 simulation lemma, which says how an `MCB(p, k)`
//! schedule runs on `k' < k` survivors at `⌈k/k'⌉` dilation, lives in
//! `mcb_check::degrade` as a schedule transformation the verifier proves.

use crate::ids::{ChanId, ProcId};
use mcb_json::Json;
use mcb_rng::Rng64;
use std::collections::BTreeSet;

/// The kind of an injected fault. See the [module docs](self) for the
/// semantics table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// Permanent channel death: writes are lost from the death cycle on.
    ChannelDeath,
    /// Transient loss of one (cycle, channel) transmission.
    Drop,
    /// Transmission corrupted in flight; detected and discarded.
    Corrupt,
    /// Permanent processor crash.
    Crash,
    /// One-cycle processor I/O blackout.
    Stall,
}

impl FaultKind {
    /// Stable machine-readable tag, used by the JSONL export.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::ChannelDeath => "channel_death",
            FaultKind::Drop => "drop",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Crash => "crash",
            FaultKind::Stall => "stall",
        }
    }
}

/// One *planned* fault atom, the unit the fault-space explorer enumerates,
/// removes, and bisects.
///
/// A [`FaultPlan`] decomposes losslessly into a canonical event list
/// ([`FaultPlan::events`]) and rebuilds from one
/// ([`FaultPlan::from_events`]); multi-cycle stalls decompose into one
/// `Stall` event per blacked-out cycle, so shrinking a stall window is just
/// removing events. The JSONL form ([`FaultPlan::to_jsonl`]) serializes
/// this list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultEvent {
    /// Channel `chan` dies permanently at cycle `at`.
    Death {
        /// Index of the dying channel.
        chan: usize,
        /// Death cycle (writes are lost from here on).
        at: u64,
    },
    /// Processor `proc` crashes at the first cycle it executes ≥ `at`.
    Crash {
        /// Index of the crashing processor.
        proc: usize,
        /// Earliest crash cycle.
        at: u64,
    },
    /// The transmission on `chan` at cycle `at` is dropped.
    Drop {
        /// Cycle of the lost transmission.
        at: u64,
        /// Channel carrying the lost transmission.
        chan: usize,
    },
    /// The transmission on `chan` at cycle `at` is corrupted (detected and
    /// discarded by the receiver's CRC).
    Corrupt {
        /// Cycle of the corrupted transmission.
        at: u64,
        /// Channel carrying the corrupted transmission.
        chan: usize,
    },
    /// Processor `proc`'s I/O is blacked out for the single cycle `at`.
    Stall {
        /// Index of the stalled processor.
        proc: usize,
        /// The blacked-out cycle.
        at: u64,
    },
}

impl FaultEvent {
    /// The event's fault kind.
    pub fn kind(self) -> FaultKind {
        match self {
            FaultEvent::Death { .. } => FaultKind::ChannelDeath,
            FaultEvent::Crash { .. } => FaultKind::Crash,
            FaultEvent::Drop { .. } => FaultKind::Drop,
            FaultEvent::Corrupt { .. } => FaultKind::Corrupt,
            FaultEvent::Stall { .. } => FaultKind::Stall,
        }
    }

    /// The cycle the event is anchored at.
    pub fn at(self) -> u64 {
        match self {
            FaultEvent::Death { at, .. }
            | FaultEvent::Crash { at, .. }
            | FaultEvent::Drop { at, .. }
            | FaultEvent::Corrupt { at, .. }
            | FaultEvent::Stall { at, .. } => at,
        }
    }

    /// The same event re-anchored at cycle `at` (the shrinker's cycle
    /// bisection primitive).
    pub fn with_at(self, at: u64) -> Self {
        match self {
            FaultEvent::Death { chan, .. } => FaultEvent::Death { chan, at },
            FaultEvent::Crash { proc, .. } => FaultEvent::Crash { proc, at },
            FaultEvent::Drop { chan, .. } => FaultEvent::Drop { at, chan },
            FaultEvent::Corrupt { chan, .. } => FaultEvent::Corrupt { at, chan },
            FaultEvent::Stall { proc, .. } => FaultEvent::Stall { proc, at },
        }
    }

    fn to_json(self) -> Json {
        let (kind, party, at) = match self {
            FaultEvent::Death { chan, at } => ("chan", chan, at),
            FaultEvent::Crash { proc, at } => ("proc", proc, at),
            FaultEvent::Drop { chan, at } => ("chan", chan, at),
            FaultEvent::Corrupt { chan, at } => ("chan", chan, at),
            FaultEvent::Stall { proc, at } => ("proc", proc, at),
        };
        Json::obj()
            .field("kind", Json::Str(self.kind().as_str().to_string()))
            .field(kind, Json::U64(party as u64))
            .field("at", Json::U64(at))
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("event missing \"kind\"")?;
        let at = v
            .get("at")
            .and_then(Json::as_u64)
            .ok_or("event missing \"at\"")?;
        let party = |name: &str| -> Result<usize, String> {
            let n = v
                .get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{kind} event missing \"{name}\""))?;
            usize::try_from(n).map_err(|_| format!("\"{name}\" out of range"))
        };
        match kind {
            "channel_death" => Ok(FaultEvent::Death {
                chan: party("chan")?,
                at,
            }),
            "crash" => Ok(FaultEvent::Crash {
                proc: party("proc")?,
                at,
            }),
            "drop" => Ok(FaultEvent::Drop {
                at,
                chan: party("chan")?,
            }),
            "corrupt" => Ok(FaultEvent::Corrupt {
                at,
                chan: party("chan")?,
            }),
            "stall" => Ok(FaultEvent::Stall {
                proc: party("proc")?,
                at,
            }),
            other => Err(format!("unknown fault kind {other:?}")),
        }
    }
}

/// One fault that actually *fired* during a run (affected an operation).
///
/// Planned faults that never coincide with any I/O leave no record; the
/// plan itself is summarized separately (see [`FaultSummary`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// Global cycle (engine round) at which the fault fired.
    pub cycle: u64,
    /// What kind of fault fired.
    pub kind: FaultKind,
    /// The affected processor (`None` for channel-scoped faults where the
    /// writer is the recorded party — always `Some` in practice for
    /// `Crash`/`Stall`, and the suppressed writer for the others).
    pub proc: Option<ProcId>,
    /// The affected channel (`None` for processor-scoped faults).
    pub chan: Option<ChanId>,
}

impl FaultRecord {
    fn sort_key(&self) -> (u64, FaultKind, Option<u32>, Option<u32>) {
        (
            self.cycle,
            self.kind,
            self.proc.map(|p| p.0),
            self.chan.map(|c| c.0),
        )
    }
}

/// Sort fired-fault records into the canonical (cycle, kind, proc, chan)
/// order and drop exact duplicates (a stalled processor that both wrote and
/// read in the same cycle fires the same record twice).
pub(crate) fn canonicalize(records: &mut Vec<FaultRecord>) {
    records.sort_by_key(FaultRecord::sort_key);
    records.dedup();
}

/// Counts of *planned* faults, stamped into the JSONL export so a run can
/// be replayed bit-identically from `seed` alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultSummary {
    /// The seed the plan was built from (0 for hand-built plans).
    pub seed: u64,
    /// Number of channels scheduled to die.
    pub deaths: u64,
    /// Number of planned (cycle, channel) drops.
    pub drops: u64,
    /// Number of planned (cycle, channel) corruptions.
    pub corrupts: u64,
    /// Number of processors scheduled to crash.
    pub crashes: u64,
    /// Number of planned (cycle, processor) stall cycles.
    pub stalls: u64,
}

/// Knobs for [`FaultPlan::random`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosOpts {
    /// Cycle range `[0, horizon)` in which random faults may land.
    pub horizon: u64,
    /// Channels to kill (capped at `k - 1`: at least one channel survives).
    pub deaths: usize,
    /// Transient message drops to plan.
    pub drops: usize,
    /// Transient corruptions to plan.
    pub corrupts: usize,
    /// Stall events to plan.
    pub stalls: usize,
    /// Maximum length (cycles) of each stall event.
    pub max_stall: u64,
    /// Processors to crash (capped at `p - 1`: at least one processor
    /// survives). The self-healing runtime adopts a crashed processor's
    /// role, so its output survives up to `p - 1` crashes; drivers that
    /// hand each processor private data (closure protocols without a
    /// takeover) lose it.
    pub crashes: usize,
    /// Correlated-burst storms: each burst picks a seeded start cycle in
    /// `[0, horizon)` and plants one transient per cycle for
    /// [`burst_len`](ChaosOpts::burst_len) consecutive cycles (seeded
    /// channel, seeded drop-or-corrupt coin). Bursts model weather — a
    /// noisy window that clobbers *many adjacent* cycles — rather than the
    /// uniform sprinkle of [`drops`](ChaosOpts::drops) /
    /// [`corrupts`](ChaosOpts::corrupts). 0 disables.
    pub bursts: usize,
    /// Length in cycles of each burst window (values below 1 are treated
    /// as 1 when [`bursts`](ChaosOpts::bursts) `> 0`).
    pub burst_len: u64,
}

impl Default for ChaosOpts {
    fn default() -> Self {
        ChaosOpts {
            horizon: 256,
            deaths: 1,
            drops: 2,
            corrupts: 1,
            stalls: 1,
            max_stall: 2,
            crashes: 0,
            bursts: 0,
            burst_len: 0,
        }
    }
}

impl ChaosOpts {
    /// Preset for **no-oracle** (unplanned) fault detection: channel deaths
    /// landing mid-phase plus transient drops and corruptions, but **no
    /// stalls** — a stalled processor misses a round that everyone else
    /// observes, which desynchronizes the common-knowledge detection the
    /// self-healing protocols rely on (see
    /// [`NetError::EpochDiverged`](crate::NetError::EpochDiverged)).
    pub fn unplanned(horizon: u64) -> Self {
        ChaosOpts {
            horizon,
            deaths: 1,
            drops: 2,
            corrupts: 1,
            stalls: 0,
            max_stall: 0,
            crashes: 0,
            bursts: 0,
            burst_len: 0,
        }
    }

    /// Preset combining a processor crash with a channel death (plus
    /// transients), the hardest no-oracle shape: survivors must both remap
    /// channels *and* adopt the dead processor's roles. Stalls stay
    /// disabled for the same reason as [`ChaosOpts::unplanned`].
    pub fn crash_and_death(horizon: u64) -> Self {
        ChaosOpts {
            crashes: 1,
            ..ChaosOpts::unplanned(horizon)
        }
    }

    /// Preset for **correlated-burst** weather: no uniform transients at
    /// all — every drop/corruption arrives inside one of two seeded storm
    /// windows — plus one channel death. Stalls stay disabled for the same
    /// reason as [`ChaosOpts::unplanned`].
    pub fn bursty(horizon: u64) -> Self {
        ChaosOpts {
            drops: 0,
            corrupts: 0,
            bursts: 2,
            burst_len: 6,
            ..ChaosOpts::unplanned(horizon)
        }
    }
}

/// A static, seeded schedule of faults for one run.
///
/// Attach to a network with
/// [`Network::fault_plan`](crate::Network::fault_plan); the plan's `(p, k)`
/// shape must match the network's. All queries are pure functions of the
/// plan and a cycle index, which is what makes degraded runs deterministic
/// and backend-identical.
///
/// ```
/// use mcb_net::{ChanId, FaultPlan, Network, ProcId};
///
/// // Channel 1 dies at cycle 0: the write is lost, the read sees empty.
/// let plan = FaultPlan::new(2, 2).kill_channel(ChanId(1), 0);
/// let report = Network::new(2, 2)
///     .fault_plan(plan)
///     .run(|ctx| {
///         if ctx.id().index() == 0 {
///             ctx.write(ChanId(1), 7u64);
///             None
///         } else {
///             ctx.read(ChanId(1))
///         }
///     })
///     .unwrap();
/// assert_eq!(report.results[1], Some(None)); // message lost
/// assert_eq!(report.metrics.messages, 0); // lost writes are not messages
/// assert_eq!(report.metrics.faults.len(), 1); // ...but they are recorded
/// assert_eq!(report.metrics.faults[0].proc, Some(ProcId(0)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    p: usize,
    k: usize,
    /// `deaths[c]` is the cycle at which channel `c` dies, if ever.
    deaths: Vec<Option<u64>>,
    /// `crashes[i]` is the cycle at (or after) which processor `i` crashes.
    crashes: Vec<Option<u64>>,
    /// Planned (cycle, channel) transmission drops.
    drops: BTreeSet<(u64, usize)>,
    /// Planned (cycle, channel) transmission corruptions.
    corrupts: BTreeSet<(u64, usize)>,
    /// Planned (cycle, processor) I/O blackouts.
    stalls: BTreeSet<(u64, usize)>,
}

impl FaultPlan {
    /// An empty plan for an `MCB(p, k)` network (injects nothing).
    pub fn new(p: usize, k: usize) -> Self {
        FaultPlan {
            seed: 0,
            p,
            k,
            deaths: vec![None; k],
            crashes: vec![None; p],
            drops: BTreeSet::new(),
            corrupts: BTreeSet::new(),
            stalls: BTreeSet::new(),
        }
    }

    /// A seeded random plan: `deaths` channels die (never all `k`), plus
    /// transient drops/corruptions/stalls and optional crashes (never all
    /// `p` processors), all placed uniformly in `[0, horizon)` by a
    /// [`Rng64`] stream. The same `(seed, p, k, opts)` always builds the
    /// same plan.
    pub fn random(seed: u64, p: usize, k: usize, opts: &ChaosOpts) -> Self {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut plan = FaultPlan::new(p, k);
        plan.seed = seed;
        let horizon = opts.horizon.max(1);

        let mut chans: Vec<usize> = (0..k).collect();
        rng.shuffle(&mut chans);
        for &c in chans.iter().take(opts.deaths.min(k.saturating_sub(1))) {
            plan.deaths[c] = Some(rng.random_range(0..horizon));
        }
        for _ in 0..opts.drops {
            plan.drops
                .insert((rng.random_range(0..horizon), rng.random_range(0..k)));
        }
        for _ in 0..opts.corrupts {
            plan.corrupts
                .insert((rng.random_range(0..horizon), rng.random_range(0..k)));
        }
        // Correlated bursts: one transient per cycle of each storm window,
        // on a seeded channel, drop or corrupt by a seeded coin. Windows
        // may overhang the horizon (a storm does not care when the run's
        // nominal fault window ends); `ensure_usable_slots` below thins
        // them like any other transient, so every cycle keeps a usable
        // write slot.
        for _ in 0..opts.bursts {
            let start = rng.random_range(0..horizon);
            for t in start..start + opts.burst_len.max(1) {
                let chan = rng.random_range(0..k);
                if rng.random_range(0..2u64) == 0 {
                    plan.drops.insert((t, chan));
                } else {
                    plan.corrupts.insert((t, chan));
                }
            }
        }
        for _ in 0..opts.stalls {
            let at = rng.random_range(0..horizon);
            let len = 1 + rng.random_range(0..opts.max_stall.max(1));
            let proc = rng.random_range(0..p);
            for t in at..at + len {
                plan.stalls.insert((t, proc));
            }
        }
        let mut procs: Vec<usize> = (0..p).collect();
        rng.shuffle(&mut procs);
        // The crash draws are the stream's last use, so capping them leaves
        // every plan with `p > crashes` bit-identical.
        for &i in procs.iter().take(opts.crashes.min(p.saturating_sub(1))) {
            plan.crashes[i] = Some(rng.random_range(0..horizon));
        }
        plan.ensure_usable_slots();
        plan
    }

    /// Cap fix: uniformly-placed transients can pile up so that, in some
    /// cycle, every still-live channel is dropped/corrupted or every
    /// processor is stalled — zero usable write slots, which no retry or
    /// remap can route around. Deterministically thin the plan until every
    /// cycle keeps at least one fault-free live channel and at least one
    /// unstalled processor (deaths already guarantee one eventually-live
    /// channel). Removal order is fixed — drops before corruptions, highest
    /// channel/processor first — so the thinned plan is still a pure
    /// function of `(seed, p, k, opts)`.
    fn ensure_usable_slots(&mut self) {
        let cycles: BTreeSet<u64> = self
            .drops
            .iter()
            .chain(self.corrupts.iter())
            .map(|&(t, _)| t)
            .collect();
        for t in cycles {
            loop {
                let live = self.live_at(t);
                let usable = live
                    .iter()
                    .any(|&c| !self.drops.contains(&(t, c)) && !self.corrupts.contains(&(t, c)));
                if usable || live.is_empty() {
                    break;
                }
                let victim = self
                    .drops
                    .range((t, 0)..=(t, usize::MAX))
                    .next_back()
                    .copied();
                match victim {
                    Some(v) => self.drops.remove(&v),
                    None => {
                        let v = self
                            .corrupts
                            .range((t, 0)..=(t, usize::MAX))
                            .next_back()
                            .copied()
                            .expect("no usable slot implies a transient this cycle");
                        self.corrupts.remove(&v)
                    }
                };
            }
        }
        let stall_cycles: BTreeSet<u64> = self.stalls.iter().map(|&(t, _)| t).collect();
        for t in stall_cycles {
            while self.stalls.range((t, 0)..=(t, usize::MAX)).count() >= self.p {
                let v = self
                    .stalls
                    .range((t, 0)..=(t, usize::MAX))
                    .next_back()
                    .copied()
                    .expect("count >= p >= 1 implies an entry");
                self.stalls.remove(&v);
            }
        }
    }

    /// Kill `chan` permanently from cycle `at` on.
    pub fn kill_channel(mut self, chan: ChanId, at: u64) -> Self {
        assert!(chan.index() < self.k, "channel out of range");
        self.deaths[chan.index()] = Some(at);
        self
    }

    /// Drop the transmission (if any) on `chan` at cycle `at`.
    pub fn drop_message(mut self, at: u64, chan: ChanId) -> Self {
        assert!(chan.index() < self.k, "channel out of range");
        self.drops.insert((at, chan.index()));
        self
    }

    /// Corrupt the transmission (if any) on `chan` at cycle `at`; the
    /// receiver's CRC detects and discards it.
    pub fn corrupt_message(mut self, at: u64, chan: ChanId) -> Self {
        assert!(chan.index() < self.k, "channel out of range");
        self.corrupts.insert((at, chan.index()));
        self
    }

    /// Crash `proc` at the first cycle it executes at or after `at`.
    pub fn crash_proc(mut self, proc: ProcId, at: u64) -> Self {
        assert!(proc.index() < self.p, "processor out of range");
        self.crashes[proc.index()] = Some(at);
        self
    }

    /// Suppress `proc`'s I/O for `len` cycles starting at cycle `from`.
    pub fn stall_proc(mut self, proc: ProcId, from: u64, len: u64) -> Self {
        assert!(proc.index() < self.p, "processor out of range");
        for t in from..from + len {
            self.stalls.insert((t, proc.index()));
        }
        self
    }

    /// The plan's processor count.
    pub fn p(&self) -> usize {
        self.p
    }

    /// The plan's channel count.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The seed the plan was generated from (0 for hand-built plans).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True when channel `chan` is dead at `cycle`.
    pub fn is_dead(&self, chan: usize, cycle: u64) -> bool {
        self.deaths
            .get(chan)
            .copied()
            .flatten()
            .is_some_and(|d| cycle >= d)
    }

    /// Indices of the channels still alive at `cycle`, ascending.
    pub fn live_at(&self, cycle: u64) -> Vec<usize> {
        (0..self.k).filter(|&c| !self.is_dead(c, cycle)).collect()
    }

    /// The eventual number of surviving channels (every planned death has
    /// fired). Lower-bounds `live_at(t).len()` for every `t`, so
    /// `⌈k / min_live⌉` is the lemma's worst-case dilation factor.
    pub fn min_live(&self) -> usize {
        self.k - self.deaths.iter().filter(|d| d.is_some()).count()
    }

    /// The cycle at (or after) which `proc` crashes, if planned.
    pub fn crash_cycle(&self, proc: usize) -> Option<u64> {
        self.crashes.get(proc).copied().flatten()
    }

    /// True when `proc`'s I/O is blacked out at `cycle`.
    pub fn is_stalled(&self, proc: usize, cycle: u64) -> bool {
        self.stalls.contains(&(cycle, proc))
    }

    /// The fault (if any) that suppresses a write by `proc` on `chan` at
    /// `cycle`. Checked transmitter-first: a stalled processor never
    /// transmits, a dead channel carries nothing, and only then can the
    /// transmission itself be dropped or corrupted.
    pub fn write_fault(&self, proc: usize, chan: usize, cycle: u64) -> Option<FaultKind> {
        if self.is_stalled(proc, cycle) {
            Some(FaultKind::Stall)
        } else if self.is_dead(chan, cycle) {
            Some(FaultKind::ChannelDeath)
        } else if self.drops.contains(&(cycle, chan)) {
            Some(FaultKind::Drop)
        } else if self.corrupts.contains(&(cycle, chan)) {
            Some(FaultKind::Corrupt)
        } else {
            None
        }
    }

    /// Counts of planned faults plus the seed, for the JSONL export.
    pub fn summary(&self) -> FaultSummary {
        FaultSummary {
            seed: self.seed,
            deaths: self.deaths.iter().filter(|d| d.is_some()).count() as u64,
            drops: self.drops.len() as u64,
            corrupts: self.corrupts.len() as u64,
            crashes: self.crashes.iter().filter(|c| c.is_some()).count() as u64,
            stalls: self.stalls.len() as u64,
        }
    }

    /// Tag the plan with a seed (kept through [`FaultPlan::to_jsonl`] so a
    /// shrunk reproducer still names the random plan it came from).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The plan, decomposed into its canonical event list: deaths by
    /// channel, then crashes by processor, then drops, corruptions, and
    /// per-cycle stalls in `(cycle, index)` order.
    /// `FaultPlan::from_events(p, k, &plan.events())` rebuilds the plan
    /// exactly (up to the seed tag).
    pub fn events(&self) -> Vec<FaultEvent> {
        let mut ev = Vec::new();
        for (chan, d) in self.deaths.iter().enumerate() {
            if let Some(at) = *d {
                ev.push(FaultEvent::Death { chan, at });
            }
        }
        for (proc, c) in self.crashes.iter().enumerate() {
            if let Some(at) = *c {
                ev.push(FaultEvent::Crash { proc, at });
            }
        }
        ev.extend(
            self.drops
                .iter()
                .map(|&(at, chan)| FaultEvent::Drop { at, chan }),
        );
        ev.extend(
            self.corrupts
                .iter()
                .map(|&(at, chan)| FaultEvent::Corrupt { at, chan }),
        );
        ev.extend(
            self.stalls
                .iter()
                .map(|&(at, proc)| FaultEvent::Stall { proc, at }),
        );
        ev
    }

    /// Build a plan for an `MCB(p, k)` network from an explicit event list.
    ///
    /// Unlike [`FaultPlan::random`] this applies **no survivability
    /// thinning** — the explorer and shrinker need exact control over what
    /// is injected. Events may arrive in any order; duplicate transients
    /// collapse (sets), and for duplicate `Death`/`Crash` events on the
    /// same party the **last** one wins.
    ///
    /// # Panics
    /// If an event names a channel `>= k` or a processor `>= p`.
    pub fn from_events(p: usize, k: usize, events: &[FaultEvent]) -> Self {
        let mut plan = FaultPlan::new(p, k);
        for &e in events {
            plan = match e {
                FaultEvent::Death { chan, at } => plan.kill_channel(ChanId(chan as u32), at),
                FaultEvent::Crash { proc, at } => plan.crash_proc(ProcId(proc as u32), at),
                FaultEvent::Drop { at, chan } => plan.drop_message(at, ChanId(chan as u32)),
                FaultEvent::Corrupt { at, chan } => plan.corrupt_message(at, ChanId(chan as u32)),
                FaultEvent::Stall { proc, at } => plan.stall_proc(ProcId(proc as u32), at, 1),
            };
        }
        plan
    }

    /// The plan as a [`Json`] object: shape, seed, and the canonical event
    /// list of [`FaultPlan::events`].
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("record", Json::Str("fault_plan".to_string()))
            .field("p", Json::U64(self.p as u64))
            .field("k", Json::U64(self.k as u64))
            .field("seed", Json::U64(self.seed))
            .field(
                "events",
                Json::Arr(self.events().into_iter().map(FaultEvent::to_json).collect()),
            )
    }

    /// Rebuild a plan from [`FaultPlan::to_json`] output.
    ///
    /// # Errors
    /// On a missing/ill-typed field, an unknown event kind, or an event
    /// naming a party outside the `(p, k)` shape.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        if let Some(rec) = v.get("record").and_then(Json::as_str) {
            if rec != "fault_plan" {
                return Err(format!("not a fault_plan record: {rec:?}"));
            }
        }
        let dim = |name: &str| -> Result<usize, String> {
            let n = v
                .get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("fault_plan missing \"{name}\""))?;
            usize::try_from(n).map_err(|_| format!("\"{name}\" out of range"))
        };
        let (p, k) = (dim("p")?, dim("k")?);
        let seed = v.get("seed").and_then(Json::as_u64).unwrap_or(0);
        let raw = v
            .get("events")
            .and_then(Json::as_arr)
            .ok_or("fault_plan missing \"events\"")?;
        let mut events = Vec::with_capacity(raw.len());
        for e in raw {
            let e = FaultEvent::from_json(e)?;
            let (party, bound, what) = match e {
                FaultEvent::Death { chan, .. }
                | FaultEvent::Drop { chan, .. }
                | FaultEvent::Corrupt { chan, .. } => (chan, k, "channel"),
                FaultEvent::Crash { proc, .. } | FaultEvent::Stall { proc, .. } => {
                    (proc, p, "processor")
                }
            };
            if party >= bound {
                return Err(format!("{what} {party} out of range for (p={p}, k={k})"));
            }
            events.push(e);
        }
        Ok(FaultPlan::from_events(p, k, &events).with_seed(seed))
    }

    /// The plan as one JSONL line (no trailing newline) — the repro
    /// artifact format consumed by `mcb-sim --replay` and printed by chaos
    /// test failures.
    pub fn to_jsonl(&self) -> String {
        self.to_json().render()
    }

    /// Parse a plan from one JSONL line.
    ///
    /// # Errors
    /// On malformed JSON or any [`FaultPlan::from_json`] error.
    pub fn from_jsonl(line: &str) -> Result<Self, String> {
        FaultPlan::from_json(&Json::parse(line.trim())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_queries() {
        let plan = FaultPlan::new(4, 3)
            .kill_channel(ChanId(2), 5)
            .drop_message(3, ChanId(0))
            .corrupt_message(4, ChanId(1))
            .stall_proc(ProcId(1), 2, 2)
            .crash_proc(ProcId(3), 9);
        assert!(!plan.is_dead(2, 4));
        assert!(plan.is_dead(2, 5));
        assert_eq!(plan.live_at(4), vec![0, 1, 2]);
        assert_eq!(plan.live_at(5), vec![0, 1]);
        assert_eq!(plan.min_live(), 2);
        assert_eq!(plan.write_fault(0, 0, 3), Some(FaultKind::Drop));
        assert_eq!(plan.write_fault(0, 1, 4), Some(FaultKind::Corrupt));
        assert_eq!(plan.write_fault(1, 0, 2), Some(FaultKind::Stall));
        assert_eq!(plan.write_fault(0, 2, 7), Some(FaultKind::ChannelDeath));
        assert_eq!(plan.write_fault(0, 0, 0), None);
        assert!(plan.is_stalled(1, 3));
        assert!(!plan.is_stalled(1, 4));
        assert_eq!(plan.crash_cycle(3), Some(9));
        let s = plan.summary();
        assert_eq!(
            (s.deaths, s.drops, s.corrupts, s.crashes, s.stalls),
            (1, 1, 1, 1, 2)
        );
    }

    #[test]
    fn random_is_deterministic_and_leaves_a_survivor() {
        let opts = ChaosOpts {
            deaths: 10, // far more than k - 1; must be capped
            ..ChaosOpts::default()
        };
        let a = FaultPlan::random(42, 6, 3, &opts);
        let b = FaultPlan::random(42, 6, 3, &opts);
        assert_eq!(a, b);
        assert!(a.min_live() >= 1);
        assert!(a.summary().deaths <= 2);
        let c = FaultPlan::random(43, 6, 3, &opts);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn random_crashes_leave_a_survivor() {
        let opts = ChaosOpts {
            crashes: 2,
            ..ChaosOpts::unplanned(64)
        };
        for seed in 0..32 {
            let plan = FaultPlan::random(seed, 2, 2, &opts);
            assert_eq!(plan.summary().crashes, 1, "seed {seed}");
        }
        assert_eq!(FaultPlan::random(7, 1, 1, &opts).summary().crashes, 0);
        assert_eq!(FaultPlan::random(7, 3, 2, &opts).summary().crashes, 2);
    }

    #[test]
    fn random_plans_with_more_processors_than_crashes_are_unchanged() {
        // The storm's chaos mix at a full batch (p = 37): recorded before
        // the crash cap, which only bites when p <= crashes.
        let opts = ChaosOpts {
            horizon: 250,
            deaths: 2,
            drops: 2,
            corrupts: 1,
            stalls: 0,
            max_stall: 0,
            crashes: 2,
            bursts: 1,
            burst_len: 4,
        };
        let want = concat!(
            r#"{"record":"fault_plan","p":37,"k":3,"seed":1592590373,"events":["#,
            r#"{"kind":"channel_death","chan":0,"at":26},"#,
            r#"{"kind":"channel_death","chan":1,"at":240},"#,
            r#"{"kind":"crash","proc":1,"at":94},{"kind":"crash","proc":15,"at":155},"#,
            r#"{"kind":"drop","chan":2,"at":1},{"kind":"drop","chan":1,"at":82},"#,
            r#"{"kind":"drop","chan":2,"at":90},{"kind":"corrupt","chan":2,"at":89},"#,
            r#"{"kind":"corrupt","chan":1,"at":91},{"kind":"corrupt","chan":0,"at":92},"#,
            r#"{"kind":"corrupt","chan":2,"at":209}]}"#,
        );
        assert_eq!(
            FaultPlan::random(0x5eed_0025, 37, 3, &opts).to_jsonl(),
            want
        );
    }

    #[test]
    fn unplanned_presets_disable_stalls() {
        let u = ChaosOpts::unplanned(100);
        assert_eq!((u.stalls, u.crashes, u.horizon), (0, 0, 100));
        assert!(u.deaths >= 1 && u.drops + u.corrupts >= 1);
        let c = ChaosOpts::crash_and_death(50);
        assert_eq!((c.stalls, c.crashes), (0, 1));
    }

    #[test]
    fn transient_pileup_always_leaves_a_usable_channel() {
        // Dense transients on a tiny network: without the cap fix, some
        // cycle would have every live channel dropped or corrupted.
        let opts = ChaosOpts {
            horizon: 8,
            deaths: 1,
            drops: 40,
            corrupts: 40,
            stalls: 0,
            max_stall: 0,
            crashes: 0,
            bursts: 0,
            burst_len: 0,
        };
        for seed in 0..20 {
            let plan = FaultPlan::random(seed, 4, 2, &opts);
            for t in 0..opts.horizon {
                let live = plan.live_at(t);
                assert!(
                    live.iter().any(|&c| plan.write_fault(0, c, t).is_none()),
                    "seed {seed} cycle {t}: no usable write slot"
                );
            }
        }
    }

    #[test]
    fn single_channel_network_sheds_all_transients() {
        let opts = ChaosOpts {
            horizon: 4,
            deaths: 0,
            drops: 50,
            corrupts: 50,
            stalls: 0,
            max_stall: 0,
            crashes: 0,
            bursts: 0,
            burst_len: 0,
        };
        let plan = FaultPlan::random(7, 3, 1, &opts);
        let s = plan.summary();
        assert_eq!((s.drops, s.corrupts), (0, 0), "k = 1 leaves no room");
    }

    #[test]
    fn stall_pileup_never_stalls_everyone() {
        let opts = ChaosOpts {
            horizon: 6,
            deaths: 0,
            drops: 0,
            corrupts: 0,
            stalls: 30,
            max_stall: 3,
            crashes: 0,
            bursts: 0,
            burst_len: 0,
        };
        for seed in 0..20 {
            let plan = FaultPlan::random(seed, 2, 2, &opts);
            for t in 0..opts.horizon + 3 {
                assert!(
                    (0..2).any(|i| !plan.is_stalled(i, t)),
                    "seed {seed} cycle {t}: every processor stalled"
                );
            }
        }
        // Degenerate p = 1: any stall would stall everyone, so none survive.
        let plan = FaultPlan::random(3, 1, 2, &opts);
        assert_eq!(plan.summary().stalls, 0);
    }

    #[test]
    fn random_thinning_is_deterministic() {
        let opts = ChaosOpts {
            horizon: 8,
            drops: 40,
            corrupts: 40,
            stalls: 20,
            ..ChaosOpts::default()
        };
        assert_eq!(
            FaultPlan::random(9, 3, 2, &opts),
            FaultPlan::random(9, 3, 2, &opts)
        );
    }

    #[test]
    fn bursty_preset_concentrates_transients_in_windows() {
        let opts = ChaosOpts::bursty(128);
        assert_eq!((opts.drops, opts.corrupts), (0, 0), "no uniform sprinkle");
        assert!(opts.bursts >= 1 && opts.burst_len >= 2);
        for seed in 0..10u64 {
            let plan = FaultPlan::random(seed, 4, 3, &opts);
            let s = plan.summary();
            let transients = s.drops + s.corrupts;
            assert!(transients > 0, "seed {seed}: storms planted nothing");
            // Every transient cycle must sit inside one of `bursts`
            // windows of length `burst_len`: the distinct cycles cluster
            // into at most `bursts` runs no longer than the window.
            let mut cycles: Vec<u64> = plan
                .drops
                .iter()
                .chain(plan.corrupts.iter())
                .map(|&(t, _)| t)
                .collect();
            cycles.sort_unstable();
            cycles.dedup();
            let mut runs = 1u64;
            for w in cycles.windows(2) {
                if w[1] - w[0] >= opts.burst_len {
                    runs += 1;
                }
            }
            assert!(
                runs <= opts.bursts as u64,
                "seed {seed}: {runs} separated clusters exceed {} storms",
                opts.bursts
            );
        }
    }

    #[test]
    fn bursts_are_deterministic_and_keep_usable_slots() {
        let opts = ChaosOpts {
            bursts: 3,
            burst_len: 8,
            ..ChaosOpts::bursty(16)
        };
        for seed in 0..20u64 {
            let plan = FaultPlan::random(seed, 3, 2, &opts);
            assert_eq!(plan, FaultPlan::random(seed, 3, 2, &opts));
            // Dense storms on k = 2 with one death: thinning must still
            // leave a fault-free live channel every cycle.
            for t in 0..opts.horizon + opts.burst_len {
                let live = plan.live_at(t);
                assert!(
                    live.iter().any(|&c| plan.write_fault(0, c, t).is_none()),
                    "seed {seed} cycle {t}: storm left no usable write slot"
                );
            }
        }
    }

    #[test]
    fn events_round_trip_hand_built() {
        let plan = FaultPlan::new(4, 3)
            .kill_channel(ChanId(2), 5)
            .drop_message(3, ChanId(0))
            .corrupt_message(4, ChanId(1))
            .stall_proc(ProcId(1), 2, 2)
            .crash_proc(ProcId(3), 9);
        let ev = plan.events();
        assert_eq!(ev.len(), 6, "stall of len 2 is two events");
        assert_eq!(FaultPlan::from_events(4, 3, &ev), plan);
        // from_events never thins: a hand-built total blackout survives.
        let blackout: Vec<FaultEvent> = (0..3)
            .map(|c| FaultEvent::Drop { at: 7, chan: c })
            .collect();
        let dense = FaultPlan::from_events(2, 3, &blackout);
        assert_eq!(dense.summary().drops, 3);
    }

    #[test]
    fn jsonl_round_trip_random_plans() {
        let opts = ChaosOpts {
            crashes: 1,
            stalls: 2,
            ..ChaosOpts::default()
        };
        for seed in 0..25u64 {
            let plan = FaultPlan::random(seed, 5, 3, &opts);
            let line = plan.to_jsonl();
            assert!(!line.contains('\n'), "JSONL must be one line");
            let back = FaultPlan::from_jsonl(&line).expect("round trip");
            assert_eq!(back, plan, "seed {seed}");
            assert_eq!(back.seed(), seed);
        }
    }

    #[test]
    fn jsonl_rejects_malformed() {
        assert!(FaultPlan::from_jsonl("not json").is_err());
        assert!(FaultPlan::from_jsonl("{\"record\":\"other\"}").is_err());
        // Channel index outside the declared shape.
        let bad = FaultPlan::new(2, 4).drop_message(1, ChanId(3)).to_jsonl();
        let narrowed = bad.replace("\"k\":4", "\"k\":2");
        assert!(FaultPlan::from_jsonl(&narrowed).is_err());
        // Unknown event kind.
        let odd = bad.replace("\"drop\"", "\"melt\"");
        assert!(FaultPlan::from_jsonl(&odd).is_err());
    }

    #[test]
    fn event_helpers() {
        let e = FaultEvent::Stall { proc: 2, at: 9 };
        assert_eq!(e.kind(), FaultKind::Stall);
        assert_eq!(e.at(), 9);
        assert_eq!(e.with_at(4), FaultEvent::Stall { proc: 2, at: 4 });
        let d = FaultEvent::Death { chan: 1, at: 3 }.with_at(0);
        assert_eq!((d.kind(), d.at()), (FaultKind::ChannelDeath, 0));
    }

    #[test]
    fn canonical_order_dedups() {
        let r = |cycle, kind, proc: Option<u32>, chan: Option<u32>| FaultRecord {
            cycle,
            kind,
            proc: proc.map(ProcId),
            chan: chan.map(ChanId),
        };
        let mut recs = vec![
            r(3, FaultKind::Stall, Some(1), None),
            r(1, FaultKind::Drop, Some(0), Some(2)),
            r(3, FaultKind::Stall, Some(1), None),
        ];
        canonicalize(&mut recs);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].cycle, 1);
    }
}
