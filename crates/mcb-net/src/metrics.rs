//! Cost accounting for network runs.
//!
//! Complexity in the MCB model (paper §2) is "measured in terms of the total
//! number of cycles and the total number of broadcast messages required by
//! the computation". The engine additionally records per-processor,
//! per-channel, and per-*phase* breakdowns (useful for spotting hot channels
//! and for comparing measured constants against the paper's per-phase
//! Θ-bounds) and message bit widths (to audit the O(log β) message-size
//! discipline).

/// Aggregated costs of one network run.
///
/// Identical across execution backends (see [`Backend`](crate::Backend)) —
/// metrics count model quantities, not wall-clock. Wall-clock engine costs
/// are reported separately via [`EngineProfile`] when profiling is enabled.
///
/// ```
/// use mcb_net::{ChanId, Network};
///
/// // Two processors; P1 broadcasts one message, P2 reads it.
/// let report = Network::new(2, 1)
///     .run(|ctx| {
///         if ctx.id().index() == 0 {
///             ctx.write(ChanId(0), 5u64);
///             None
///         } else {
///             ctx.read(ChanId(0))
///         }
///     })
///     .unwrap();
/// let m = &report.metrics;
/// assert_eq!((m.cycles, m.messages), (1, 1));
/// assert_eq!(m.per_proc_messages, vec![1, 0]);
/// assert_eq!(m.per_channel_messages, vec![1]);
/// // 1 message in rounds × k = 2 × 1 channel-slots (the engine ran one
/// // trailing drain round after both protocols returned).
/// assert_eq!(m.rounds, 2);
/// assert_eq!(m.channel_utilization(), 0.5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Metrics {
    /// Algorithm cycles: the maximum number of cycles any processor's
    /// protocol executed. This is the quantity the paper's Θ-bounds refer to.
    pub cycles: u64,
    /// Engine rounds actually executed, including the trailing rounds in
    /// which already-finished processors idle while stragglers complete.
    /// Always `>= cycles`; equal when all processors finish together.
    pub rounds: u64,
    /// Total broadcast messages sent.
    pub messages: u64,
    /// Sum of bit widths over all messages.
    pub total_bits: u64,
    /// Largest single-message bit width observed.
    pub max_msg_bits: u32,
    /// Messages sent by each processor.
    pub per_proc_messages: Vec<u64>,
    /// Cycles executed by each processor's protocol.
    pub per_proc_cycles: Vec<u64>,
    /// Messages carried by each channel.
    pub per_channel_messages: Vec<u64>,
    /// Per-phase breakdown, in order of first activity (see
    /// [`PhaseMetrics`]). Empty when the protocol never labelled a phase.
    pub phases: Vec<PhaseMetrics>,
    /// Faults that fired during the run (see
    /// [`FaultRecord`](crate::FaultRecord)), in canonical
    /// (cycle, kind, proc, chan) order. Empty when no
    /// [`FaultPlan`](crate::FaultPlan) was attached or none of its faults
    /// coincided with any I/O.
    pub faults: Vec<crate::FaultRecord>,
}

impl Metrics {
    /// Mean messages per channel; 0.0 for an empty run.
    pub fn mean_channel_load(&self) -> f64 {
        if self.per_channel_messages.is_empty() {
            return 0.0;
        }
        self.messages as f64 / self.per_channel_messages.len() as f64
    }

    /// Ratio of the busiest channel's load to the mean channel load.
    ///
    /// 1.0 means perfectly balanced; large values mean one channel is a
    /// bottleneck. Returns 0.0 when no messages were sent.
    pub fn channel_imbalance(&self) -> f64 {
        let mean = self.mean_channel_load();
        if mean == 0.0 {
            return 0.0;
        }
        let max = self.per_channel_messages.iter().copied().max().unwrap_or(0);
        max as f64 / mean
    }

    /// Average bits per message; 0.0 when no messages were sent.
    pub fn mean_msg_bits(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.total_bits as f64 / self.messages as f64
        }
    }

    /// Channel-time utilization: the fraction of `rounds × k` channel-slots
    /// that carried a message. An algorithm keeping all channels busy every
    /// round scores 1.0.
    ///
    /// **Invariant**: collision-freedom means each channel carries at most
    /// one message per engine round, so `messages <= rounds * k` and the
    /// ratio never exceeds 1.0 for a successful run. The denominator is
    /// [`rounds`](Metrics::rounds) (global engine rounds), not
    /// [`cycles`](Metrics::cycles) (the per-processor maximum): channels
    /// exist — and can carry traffic — during the trailing rounds in which
    /// stragglers finish, so dividing by `cycles` could exceed 1.0.
    pub fn channel_utilization(&self) -> f64 {
        let slots = self
            .rounds
            .saturating_mul(self.per_channel_messages.len() as u64);
        if slots == 0 {
            0.0
        } else {
            self.messages as f64 / slots as f64
        }
    }
}

/// Costs attributed to one labelled phase (see [`crate::phase`]).
///
/// `cycles` is the maximum over processors of the cycles each spent in the
/// phase — the same convention as [`Metrics::cycles`]. For the lock-step
/// subroutines in `mcb-algos` (every processor enters/leaves each phase at
/// the same cycle), per-phase cycle counts sum exactly to the whole-run
/// total; `messages`, `total_bits`, and `per_channel_messages` always
/// partition their whole-run counterparts over phases plus the unlabelled
/// remainder.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PhaseMetrics {
    /// The label passed to [`ProcCtx::phase`](crate::ProcCtx::phase).
    pub name: String,
    /// Global round of the first cycle/message attributed to this phase.
    pub first_cycle: u64,
    /// Global round of the last cycle/message attributed to this phase.
    pub last_cycle: u64,
    /// Max over processors of cycles spent in this phase.
    pub cycles: u64,
    /// Messages sent while this phase was active.
    pub messages: u64,
    /// Sum of bit widths over this phase's messages.
    pub total_bits: u64,
    /// This phase's messages, broken down by channel (length `k`).
    pub per_channel_messages: Vec<u64>,
}

/// Sub-bucket resolution of [`LogHistogram`]: `2^3 = 8` sub-buckets per
/// power of two, so any recorded value lands in a bucket whose width is at
/// most 1/8 of its magnitude (≤ 12.5% relative quantile error).
const HIST_SUB_BITS: u32 = 3;
const HIST_SUB: u64 = 1 << HIST_SUB_BITS;
/// Bucket count covering the full `u64` range at [`HIST_SUB_BITS`]
/// resolution (indices `0..16` are exact; see [`hist_bucket`]).
const HIST_BUCKETS: usize = 496;

/// Bucket index for value `v`: exact for `v < 16`, log-bucketed with
/// [`HIST_SUB`] sub-buckets per octave above that (the HDR-histogram
/// scheme, sized down to a flat 496-slot array).
fn hist_bucket(v: u64) -> usize {
    if v < HIST_SUB * 2 {
        return v as usize;
    }
    let shift = 63 - u64::from(v.leading_zeros()) - u64::from(HIST_SUB_BITS);
    (shift * HIST_SUB + (v >> shift)) as usize
}

/// Largest value a bucket holds — the conservative (upper-bound) value
/// quantile queries report for it.
fn hist_bucket_top(idx: usize) -> u64 {
    if idx < (HIST_SUB * 2) as usize {
        return idx as u64;
    }
    let shift = (idx as u64 / HIST_SUB) - 1;
    let sub = idx as u64 - shift * HIST_SUB;
    ((sub + 1) << shift) - 1
}

/// A dependency-free log-bucketed (HDR-style) latency histogram.
///
/// Values are `u64` (the engine records nanoseconds); buckets are exact
/// below 16 and geometric with 8 sub-buckets per power of two above, so
/// quantiles are accurate to ≤ 12.5% over the full range while the whole
/// histogram is one flat 496-slot array. Storage is lazy: a histogram that
/// never records allocates nothing, so carrying one per executor is free
/// when profiling is off.
///
/// ```
/// use mcb_net::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for v in [10, 20, 30, 40, 1000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.max(), 1000);
/// assert!(h.p50() >= 20 && h.p50() <= 34);
/// assert!(h.p99() >= 1000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LogHistogram {
    /// Bucket counts; empty until the first [`record`](Self::record).
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl LogHistogram {
    /// An empty histogram (no allocation until the first record).
    pub fn new() -> Self {
        LogHistogram::default()
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; HIST_BUCKETS];
        }
        self.counts[hist_bucket(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Fold another histogram's samples into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; HIST_BUCKETS];
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (exact, not bucketed); 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q` in `[0, 1]`: an upper bound of the bucket
    /// containing the `⌈q·count⌉`-th smallest sample, clamped to
    /// [`max`](Self::max). Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= target {
                return hist_bucket_top(idx).min(self.max);
            }
        }
        self.max
    }

    /// Median (see [`quantile`](Self::quantile)).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile (see [`quantile`](Self::quantile)).
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile (see [`quantile`](Self::quantile)).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// Wall-clock engine costs of one run, recorded when
/// [`Network::profile`](crate::Network::profile) is enabled.
///
/// These are *engine* quantities — they depend on the backend, the host,
/// and the scheduler — and are deliberately kept out of [`Metrics`] so it
/// stays deterministic and backend-identical (the JSONL export carries them
/// only as clearly marked `profile`/`hist` records). Use them to separate
/// model cost (cycles, messages) from simulation cost.
///
/// Latency distributions are [`LogHistogram`]s; the legacy single-sum
/// fields ([`barrier_wait_ns`](Self::barrier_wait_ns),
/// [`stall_ns`](Self::stall_ns)) are kept populated from the histograms'
/// sums for compatibility.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineProfile {
    /// The resolved backend that executed the run.
    pub backend: crate::Backend,
    /// Executor parallelism: `p` on the threaded backend (one OS thread per
    /// processor, all in the barrier); on the vector backend, the fiber
    /// driver's worker count for a closure run and always `1` for a step
    /// run (a single struct-of-arrays driver thread, no barrier at all).
    pub workers: usize,
    /// Wall-clock duration of the whole run, in nanoseconds.
    pub wall_ns: u64,
    /// Total time executors spent blocked in barrier waits, summed across
    /// all of them (so it can exceed `wall_ns`), in nanoseconds. Equals
    /// [`barrier_wait`](Self::barrier_wait)`.sum()`; always 0 on the vector
    /// backend, whose single driver thread never waits on a barrier.
    pub barrier_wait_ns: u64,
    /// Time spent waiting for protocol compute, in nanoseconds: for a
    /// closure run on the vector backend the fiber driver's rendezvous
    /// waits summed across workers, for a step run the driver's per-cycle
    /// machine-dispatch (collect) time. Equals
    /// [`stall`](Self::stall)`.sum() + `[`dispatch`](Self::dispatch)`.sum()`;
    /// always 0 on the threaded backend, where protocol compute runs on
    /// the processor's own thread.
    pub stall_ns: u64,
    /// Distribution of per-cycle wall-clock latency (time between
    /// consecutive engine rounds, sampled by the sweeper), all backends.
    pub cycle_latency: LogHistogram,
    /// Distribution of individual barrier-wait times, one sample per wait
    /// per executor (threaded backend and fiber-driven closure runs; empty
    /// for vector step runs).
    pub barrier_wait: LogHistogram,
    /// Distribution of per-round protocol-compute stalls, one sample per
    /// worker per round (fiber-driven closure runs only; empty elsewhere).
    pub stall: LogHistogram,
    /// Distribution of per-cycle machine-dispatch times in the columnar
    /// collect loop (vector step runs only; empty elsewhere).
    pub dispatch: LogHistogram,
}

/// Per-processor, per-phase accumulator (see [`LocalMetrics::phases`]).
#[derive(Debug, Default, Clone)]
pub(crate) struct PhaseLocal {
    pub cycles: u64,
    pub messages: u64,
    pub total_bits: u64,
    pub first_round: u64,
    pub last_round: u64,
    pub per_channel: Vec<u64>,
}

impl PhaseLocal {
    fn is_empty(&self) -> bool {
        self.cycles == 0 && self.messages == 0
    }
}

/// Per-thread accumulator merged into [`Metrics`] when a run completes.
#[derive(Debug, Default, Clone)]
pub(crate) struct LocalMetrics {
    pub cycles: u64,
    pub messages: u64,
    pub total_bits: u64,
    pub max_msg_bits: u32,
    /// Currently active phase id (index into the run's interner; 0 = none).
    pub cur_phase: u16,
    /// Per-phase tallies, indexed by phase id; row 0 is never populated
    /// (unlabelled activity is derived by subtraction at aggregation).
    pub phases: Vec<PhaseLocal>,
}

impl LocalMetrics {
    fn phase_row(&mut self) -> &mut PhaseLocal {
        let idx = self.cur_phase as usize;
        if self.phases.len() <= idx {
            self.phases.resize_with(idx + 1, PhaseLocal::default);
        }
        &mut self.phases[idx]
    }

    /// Account one executed cycle at global round `now`.
    pub(crate) fn record_cycle(&mut self, now: u64) {
        self.cycles += 1;
        if self.cur_phase != 0 {
            let row = self.phase_row();
            if row.is_empty() {
                row.first_round = now;
            }
            row.cycles += 1;
            row.last_round = now;
        }
    }

    /// Account `n` consecutive idle cycles whose first executes at global
    /// round `now` — the bulk equivalent of `n` [`record_cycle`] calls at
    /// rounds `now .. now + n`, used by the vector backend to account a
    /// [`Step::IdleFor`](crate::Step::IdleFor) span without touching the
    /// sleeping processor each round.
    ///
    /// [`record_cycle`]: Self::record_cycle
    pub(crate) fn record_idle_span(&mut self, now: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.cycles += n;
        if self.cur_phase != 0 {
            let row = self.phase_row();
            if row.is_empty() {
                row.first_round = now;
            }
            row.cycles += n;
            row.last_round = now + n - 1;
        }
    }

    /// Account one sent message of `bits` bits on channel index `chan` at
    /// global round `now`.
    pub(crate) fn record_message(&mut self, bits: u32, chan: usize, now: u64) {
        self.messages += 1;
        self.total_bits += u64::from(bits);
        self.max_msg_bits = self.max_msg_bits.max(bits);
        if self.cur_phase != 0 {
            let row = self.phase_row();
            if row.is_empty() {
                row.first_round = now;
            }
            row.messages += 1;
            row.total_bits += u64::from(bits);
            row.last_round = row.last_round.max(now);
            if row.per_channel.len() <= chan {
                row.per_channel.resize(chan + 1, 0);
            }
            row.per_channel[chan] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Metrics {
        // Physically consistent with a collision-free run: 18 messages fit
        // in rounds * k = 12 * 2 = 24 channel-slots.
        Metrics {
            cycles: 10,
            rounds: 12,
            messages: 18,
            total_bits: 180,
            max_msg_bits: 16,
            per_proc_messages: vec![6, 6, 6],
            per_proc_cycles: vec![10, 9, 8],
            per_channel_messages: vec![12, 6],
            phases: vec![],
            faults: vec![],
        }
    }

    #[test]
    fn derived_ratios() {
        let m = sample();
        assert_eq!(m.mean_channel_load(), 9.0);
        assert!((m.channel_imbalance() - 12.0 / 9.0).abs() < 1e-12);
        assert_eq!(m.mean_msg_bits(), 10.0);
        // 18 messages over 12 rounds * 2 channels.
        assert!((m.channel_utilization() - 18.0 / 24.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_is_capped_at_one() {
        // A run that fills every channel-slot of every round scores exactly
        // 1.0; collision-freedom makes more than that impossible.
        let m = Metrics {
            cycles: 12,
            rounds: 12,
            messages: 24,
            per_proc_messages: vec![8, 8, 8],
            per_proc_cycles: vec![12, 12, 12],
            per_channel_messages: vec![12, 12],
            ..Metrics::default()
        };
        assert_eq!(m.channel_utilization(), 1.0);
        assert!(m.messages <= m.rounds * m.per_channel_messages.len() as u64);
    }

    #[test]
    fn empty_run_is_all_zeroes() {
        let m = Metrics::default();
        assert_eq!(m.mean_channel_load(), 0.0);
        assert_eq!(m.channel_imbalance(), 0.0);
        assert_eq!(m.mean_msg_bits(), 0.0);
        assert_eq!(m.channel_utilization(), 0.0);
    }

    #[test]
    fn local_metrics_accumulate() {
        let mut l = LocalMetrics::default();
        l.record_message(8, 0, 0);
        l.record_message(16, 1, 1);
        l.record_message(4, 0, 2);
        assert_eq!(l.messages, 3);
        assert_eq!(l.total_bits, 28);
        assert_eq!(l.max_msg_bits, 16);
        // No phase active: nothing attributed per-phase.
        assert!(l.phases.is_empty());
    }

    #[test]
    fn hist_buckets_cover_u64_contiguously() {
        // Exact region, boundary, and the top of the range.
        assert_eq!(hist_bucket(0), 0);
        assert_eq!(hist_bucket(15), 15);
        assert_eq!(hist_bucket(16), 16);
        assert_eq!(hist_bucket(u64::MAX), HIST_BUCKETS - 1);
        // Bucket indices are monotone in the value and tops bracket their
        // bucket: for a sample of magnitudes, v <= top(bucket(v)) and
        // top(bucket(v) - 1) < v.
        let mut prev = 0usize;
        for shift in 0..64u32 {
            let v = 1u64 << shift;
            let b = hist_bucket(v);
            assert!(b >= prev, "bucket index regressed at 2^{shift}");
            prev = b;
            assert!(hist_bucket_top(b) >= v);
            if b > 0 {
                assert!(hist_bucket_top(b - 1) < v);
            }
        }
    }

    #[test]
    fn histogram_quantiles_are_bounded_by_bucket_width() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        assert_eq!(h.max(), 1000);
        // ≤ 12.5% relative error, upper-bounded.
        assert!(h.p50() >= 500 && h.p50() <= 575, "p50 = {}", h.p50());
        assert!(h.p95() >= 950 && h.p95() <= 1000, "p95 = {}", h.p95());
        assert!(h.p99() >= 990 && h.p99() <= 1000, "p99 = {}", h.p99());
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn histogram_merge_matches_bulk_record() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut all = LogHistogram::new();
        for v in [3u64, 17, 900, 1 << 40] {
            a.record(v);
            all.record(v);
        }
        for v in [0u64, 5, 123_456] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
        // Merging an empty histogram is a no-op, including on storage.
        let before = all.clone();
        all.merge(&LogHistogram::new());
        assert_eq!(all, before);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LogHistogram::new();
        assert_eq!((h.count(), h.sum(), h.max()), (0, 0, 0));
        assert_eq!((h.p50(), h.p95(), h.p99()), (0, 0, 0));
    }

    #[test]
    fn local_metrics_attribute_phases() {
        let mut l = LocalMetrics {
            cur_phase: 2,
            ..LocalMetrics::default()
        };
        l.record_message(8, 1, 5);
        l.record_cycle(5);
        l.record_cycle(6);
        l.cur_phase = 0;
        l.record_cycle(7); // unlabelled: whole-run tally only
        assert_eq!(l.cycles, 3);
        let row = &l.phases[2];
        assert_eq!((row.cycles, row.messages, row.total_bits), (2, 1, 8));
        assert_eq!((row.first_round, row.last_round), (5, 6));
        assert_eq!(row.per_channel, vec![0, 1]);
    }
}
