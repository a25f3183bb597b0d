//! Epoch protocol: agree on the live configuration after a detected fault.
//!
//! The frame layer ([`crate::frame`]) classifies every read of a broadcast
//! channel as clean, silent, or noisy. Self-healing protocols arrange their
//! schedules so that **every live processor reads every round's channel**
//! (all-read serialized broadcast): a round that is not
//! [`Clean`](crate::FrameRead::Clean) is therefore observed by every live
//! processor *in the same cycle*, making the fault common knowledge
//! instantly and in-band — no heartbeats, no out-of-band oracle, no extra
//! detection cycles.
//!
//! On suspicion, every live processor awaits [`EpochCtx::reconfigure`],
//! which runs a bounded **census**: one framed cycle per (live channel,
//! live processor) pair in which exactly that processor pings exactly that
//! channel and everyone reads it. The census is an `async fn` over a
//! [`StepCtx`], so it runs inside an [`AsyncStep`](crate::AsyncStep)
//! machine on either backend's step driver — the vector driver advances
//! every participant from one thread, with no per-processor OS thread. The census has a one-writer-per-cycle
//! schedule, so it is trivially collision-free, and its observations are
//! again common knowledge:
//!
//! * a clean, correctly-stamped ping proves both the channel and the
//!   processor live;
//! * noise ([`FrameRead::Noise`]) proves both live
//!   as well — only the scheduled processor could have energized that slot
//!   (*positional attribution*), even though the payload was corrupted;
//! * silence leaves both unproven for this slot (the processor gets
//!   `k′ − 1` more slots, one per remaining live channel, so a single dead
//!   channel cannot disenfranchise it);
//! * a clean ping carrying the *wrong epoch stamp* means the network's
//!   common knowledge has split — the census escalates
//!   [`NetError::EpochDiverged`] rather than commit a bad configuration.
//!
//! When at least one channel and one processor were proven live, every
//! participant commits the *same* new configuration (the proven subsets),
//! bumps the epoch counter, and appends an [`EpochRecord`]. A participant
//! absent from the new processor set marks itself
//! [`excluded`](EpochCtx::is_excluded) and withdraws. If a full sweep
//! proves nothing, the census retries up to
//! [`EpochOpts::census_retries`] more times before escalating
//! [`NetError::Unrecoverable`].
//!
//! The cost of one reconfiguration is at most
//! `(census_retries + 1) × k′ × p′` cycles; the number of reconfigurations
//! is bounded by [`EpochOpts::max_epochs`] and, in practice, by the number
//! of distinct faults in the plan (a transient fault consumed by a replay
//! does not re-fire, so every epoch bump retires at least one fault).

use crate::engine::Escalated;
use crate::error::NetError;
use crate::frame::FrameRead;
use crate::ids::ChanId;
use crate::step::StepCtx;

/// Encoding hooks for the epoch protocol's control traffic.
///
/// The census must speak the *protocol's own message type* `M` (the network
/// is monomorphic in `M`), so the message type provides a ping constructor
/// and decoder. Implementations must satisfy
/// `decode_ping(&ping(p, e)) == Some((p, e))` and should make pings
/// distinguishable from every data payload the protocol uses (a dedicated
/// tag bit is enough).
pub trait ControlCodec: Sized {
    /// A census ping from processor index `proc`, stamped with the sender's
    /// current `epoch`.
    fn ping(proc: usize, epoch: u64) -> Self;

    /// Decode a census ping back into `(proc, epoch)`; `None` when the
    /// message is not a ping.
    fn decode_ping(&self) -> Option<(usize, u64)>;
}

/// `u64` messages reserve the top bit for census pings:
/// `1 << 63 | epoch << 20 | proc`.
impl ControlCodec for u64 {
    fn ping(proc: usize, epoch: u64) -> Self {
        debug_assert!(proc < (1 << 20));
        debug_assert!(epoch < (1 << 43));
        1 << 63 | epoch << 20 | proc as u64
    }

    fn decode_ping(&self) -> Option<(usize, u64)> {
        if self >> 63 == 1 {
            Some(((self & 0xF_FFFF) as usize, self >> 20 & 0x7FF_FFFF_FFFF))
        } else {
            None
        }
    }
}

/// Tuning knobs for the epoch protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochOpts {
    /// Extra full census sweeps to run when a sweep proves no channel or no
    /// processor live (e.g. every ping of the sweep fell on a transient
    /// drop). The first sweep is always run; `census_retries` bounds the
    /// *additional* attempts.
    pub census_retries: u32,
    /// Hard cap on the number of epoch bumps in one run. Exceeding it
    /// escalates [`NetError::Unrecoverable`]; it exists to turn a
    /// fault-injection configuration that generates faults faster than
    /// reconfiguration can retire them into a clean failure instead of a
    /// livelock.
    pub max_epochs: u32,
}

impl Default for EpochOpts {
    fn default() -> Self {
        EpochOpts {
            census_retries: 3,
            max_epochs: 64,
        }
    }
}

/// What triggered a reconfiguration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochCause {
    /// A scheduled broadcast was observed as silence (dead channel, dead or
    /// crashed writer, or a dropped frame).
    Silence,
    /// A scheduled broadcast was observed as noise (corrupted in flight).
    Noise,
}

impl EpochCause {
    /// Stable lower-case name, used by the JSONL export.
    pub fn as_str(self) -> &'static str {
        match self {
            EpochCause::Silence => "silence",
            EpochCause::Noise => "noise",
        }
    }
}

/// One committed reconfiguration: the epoch that *began* when the census
/// committed, and the configuration agreed for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochRecord {
    /// The new epoch number (the first reconfiguration commits epoch 1).
    pub epoch: u64,
    /// Global cycle at which the census committed.
    pub cycle: u64,
    /// The observation that triggered the reconfiguration.
    pub cause: EpochCause,
    /// Channel indices proven live by the census, ascending.
    pub live_chans: Vec<usize>,
    /// Processor indices proven live by the census, ascending.
    pub live_procs: Vec<usize>,
}

/// Per-processor epoch state machine.
///
/// Every participant of a self-healing run owns one `EpochCtx`, and the
/// all-read discipline guarantees the replicas stay identical: they start
/// identical (`new`), and every transition ([`reconfigure`]) is driven by
/// common-knowledge observations. `EpochCtx` is *deterministic shared
/// state*, not local opinion.
///
/// [`reconfigure`]: EpochCtx::reconfigure
#[derive(Debug, Clone)]
pub struct EpochCtx {
    epoch: u64,
    live_chans: Vec<usize>,
    live_procs: Vec<usize>,
    opts: EpochOpts,
    records: Vec<EpochRecord>,
    excluded: bool,
}

impl EpochCtx {
    /// Epoch 0: all `p` processors and all `k` channels presumed live.
    pub fn new(p: usize, k: usize, opts: EpochOpts) -> Self {
        EpochCtx {
            epoch: 0,
            live_chans: (0..k).collect(),
            live_procs: (0..p).collect(),
            opts,
            records: Vec::new(),
            excluded: false,
        }
    }

    /// Resume constructor for tests and replay tooling: start at an
    /// arbitrary epoch and configuration.
    pub fn with_epoch(
        epoch: u64,
        live_chans: Vec<usize>,
        live_procs: Vec<usize>,
        opts: EpochOpts,
    ) -> Self {
        EpochCtx {
            epoch,
            live_chans,
            live_procs,
            opts,
            records: Vec::new(),
            excluded: false,
        }
    }

    /// The current epoch number (0 until the first reconfiguration).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Channel indices currently presumed live, ascending.
    pub fn live_chans(&self) -> &[usize] {
        &self.live_chans
    }

    /// Processor indices currently presumed live, ascending.
    pub fn live_procs(&self) -> &[usize] {
        &self.live_procs
    }

    /// True once a census committed a configuration that does not contain
    /// this processor: it must withdraw from the protocol (return no
    /// output) because the survivors have adopted its role.
    pub fn is_excluded(&self) -> bool {
        self.excluded
    }

    /// The committed reconfigurations so far, oldest first.
    pub fn records(&self) -> &[EpochRecord] {
        &self.records
    }

    /// Consume the state machine, yielding its reconfiguration log.
    pub fn into_records(self) -> Vec<EpochRecord> {
        self.records
    }

    /// The live processor hosting virtual `role` under the current epoch:
    /// roles are dealt round-robin over the live processor list, so
    /// survivors adopt dead processors' roles deterministically.
    pub fn host(&self, role: usize) -> usize {
        self.live_procs[role % self.live_procs.len()]
    }

    /// The physical channel carrying logical round `t` under the current
    /// epoch: rounds rotate over the live channel list (the §2 lemma remap
    /// with idle sub-cycles elided — one writer per round means the full
    /// `⌈k/k′⌉` dilation is never needed at run time, though the static
    /// verifier proves the fully-dilated schedule collision-free).
    pub fn phys_channel(&self, t: usize) -> ChanId {
        ChanId::from_index(self.live_chans[t % self.live_chans.len()])
    }

    /// Worst-case cycle cost of one call to [`reconfigure`] under the
    /// *initial* configuration (later epochs are cheaper: fewer slots).
    ///
    /// [`reconfigure`]: EpochCtx::reconfigure
    pub fn census_cost(p: usize, k: usize, opts: &EpochOpts) -> u64 {
        (u64::from(opts.census_retries) + 1) * (k as u64) * (p as u64)
    }

    /// Run the census and commit the next epoch.
    ///
    /// Must be awaited by **every** live participant in the same cycle
    /// (the all-read discipline guarantees this: the triggering
    /// observation was common knowledge). On return, either the shared
    /// state has advanced to the new epoch — check
    /// [`is_excluded`](EpochCtx::is_excluded) — or the run has escalated a
    /// fatal [`NetError`] ([`Unrecoverable`](NetError::Unrecoverable) when
    /// the retry budget is spent, [`EpochDiverged`](NetError::EpochDiverged)
    /// when foreign-epoch traffic shows the participants are no longer in
    /// agreement). `cause` is recorded in the committed [`EpochRecord`].
    pub async fn reconfigure<M: ControlCodec>(&mut self, ctx: &mut StepCtx<M>, cause: EpochCause) {
        let me = ctx.id().index();
        if self.records.len() as u32 >= self.opts.max_epochs {
            escalate(NetError::Unrecoverable {
                cycle: ctx.now(),
                proc: ctx.id(),
                attempts: self.opts.max_epochs,
            });
        }
        for _attempt in 0..=self.opts.census_retries {
            let mut chan_seen = vec![false; self.live_chans.len()];
            let mut proc_seen = vec![false; self.live_procs.len()];
            for (ci, &c) in self.live_chans.iter().enumerate() {
                for (pi, &pr) in self.live_procs.iter().enumerate() {
                    let write =
                        (pr == me).then(|| (ChanId::from_index(c), M::ping(pr, self.epoch)));
                    match ctx.cycle(write, Some(ChanId::from_index(c))).await {
                        FrameRead::Clean(m) => match m.decode_ping() {
                            Some((p_got, e_got)) if p_got == pr && e_got == self.epoch => {
                                chan_seen[ci] = true;
                                proc_seen[pi] = true;
                            }
                            Some((_, e_got)) => escalate(NetError::EpochDiverged {
                                cycle: ctx.now(),
                                proc: ctx.id(),
                                expected: self.epoch,
                                observed: e_got,
                            }),
                            None => escalate(NetError::EpochDiverged {
                                cycle: ctx.now(),
                                proc: ctx.id(),
                                expected: self.epoch,
                                observed: u64::MAX,
                            }),
                        },
                        // Only `pr` could energize this slot, so noise still
                        // proves both the channel and the processor live.
                        FrameRead::Noise => {
                            chan_seen[ci] = true;
                            proc_seen[pi] = true;
                        }
                        FrameRead::Silence => {}
                    }
                }
            }
            if chan_seen.iter().any(|&s| s) && proc_seen.iter().any(|&s| s) {
                let keep = |live: &[usize], seen: &[bool]| {
                    live.iter()
                        .zip(seen)
                        .filter_map(|(&x, &s)| s.then_some(x))
                        .collect::<Vec<_>>()
                };
                self.live_chans = keep(&self.live_chans, &chan_seen);
                self.live_procs = keep(&self.live_procs, &proc_seen);
                self.epoch += 1;
                self.excluded = !self.live_procs.contains(&me);
                self.records.push(EpochRecord {
                    epoch: self.epoch,
                    cycle: ctx.now(),
                    cause,
                    live_chans: self.live_chans.clone(),
                    live_procs: self.live_procs.clone(),
                });
                // Post the reconfiguration to the live monitor, if one is
                // attached. Every survivor commits the identical record, so
                // only the lowest live processor posts — one event per
                // epoch, not one per replica.
                if self.live_procs.first() == Some(&me) {
                    if let Some(mon) = ctx.monitor() {
                        mon.on_epoch(self.epoch, ctx.now());
                    }
                }
                return;
            }
        }
        escalate(NetError::Unrecoverable {
            cycle: ctx.now(),
            proc: ctx.id(),
            attempts: self.opts.census_retries + 1,
        });
    }
}

/// Abort the whole run with a fatal error (the engine unwraps `Escalated`
/// payloads into the run's `Err`).
fn escalate(err: NetError) -> ! {
    std::panic::resume_unwind(Box::new(Escalated(err)))
}

/// Escalate [`NetError::EpochDiverged`] from protocol code: a processor
/// observed epoch-stamped control traffic (a census ping) where its own
/// epoch's schedule expected data — the participants are no longer in
/// agreement and the run cannot proceed. `observed` is the foreign epoch
/// stamp (`u64::MAX` when the traffic was not decodable).
pub fn escalate_diverged<M>(ctx: &StepCtx<M>, expected: u64, observed: u64) -> ! {
    escalate(NetError::EpochDiverged {
        cycle: ctx.now(),
        proc: ctx.id(),
        expected,
        observed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_ping_round_trips() {
        for (p, e) in [(0usize, 0u64), (7, 3), (1023, 62)] {
            let m = u64::ping(p, e);
            assert_eq!(m.decode_ping(), Some((p, e)));
        }
        assert_eq!(42u64.decode_ping(), None, "plain data is not a ping");
    }

    #[test]
    fn fresh_ctx_is_epoch_zero_everything_live() {
        let ctx = EpochCtx::new(5, 3, EpochOpts::default());
        assert_eq!(ctx.epoch(), 0);
        assert_eq!(ctx.live_chans(), &[0, 1, 2]);
        assert_eq!(ctx.live_procs(), &[0, 1, 2, 3, 4]);
        assert!(!ctx.is_excluded());
        assert!(ctx.records().is_empty());
    }

    #[test]
    fn host_deals_roles_round_robin_over_survivors() {
        let ctx = EpochCtx::with_epoch(1, vec![0, 2], vec![0, 1, 3], EpochOpts::default());
        // Roles 0..6 over survivors [0, 1, 3]: 0,1,3,0,1,3.
        let hosts: Vec<usize> = (0..6).map(|r| ctx.host(r)).collect();
        assert_eq!(hosts, [0, 1, 3, 0, 1, 3]);
    }

    #[test]
    fn phys_channel_rotates_over_surviving_channels() {
        let ctx = EpochCtx::with_epoch(2, vec![1, 3], vec![0], EpochOpts::default());
        let chans: Vec<usize> = (0..5).map(|t| ctx.phys_channel(t).index()).collect();
        assert_eq!(chans, [1, 3, 1, 3, 1]);
    }

    #[test]
    fn census_cost_is_retries_times_slots() {
        let opts = EpochOpts {
            census_retries: 2,
            max_epochs: 8,
        };
        assert_eq!(EpochCtx::census_cost(4, 3, &opts), 3 * 3 * 4);
    }

    #[test]
    fn cause_names_are_stable() {
        assert_eq!(EpochCause::Silence.as_str(), "silence");
        assert_eq!(EpochCause::Noise.as_str(), "noise");
    }
}
