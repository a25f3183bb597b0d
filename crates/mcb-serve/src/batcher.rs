//! The batcher: packs admitted jobs into shared self-healing MCB runs
//! and owns the deadline/retry state machine.
//!
//! One batch = one [`BatchProgram`] on one fresh `MCB(p, k)` instance,
//! `p` sized to the batch's total role count (one processor-group per
//! tenant job) and run under [`SelfHealing`] — the same no-oracle stack
//! as the offline drivers, so an attached chaos plan degrades throughput
//! by the §2 lemma's `⌈k/k′⌉` factor instead of losing jobs.
//!
//! Per-job guarantees (asserted by `tests/serve_soak.rs`):
//!
//! * a job that completes before its deadline gets [`Outcome::Done`];
//! * a job whose attempt misses its deadline or lands in a batch that
//!   errors ([`NetError::Unrecoverable`](mcb_net::NetError::Unrecoverable) / [`NetError::EpochDiverged`](mcb_net::NetError::EpochDiverged) /
//!   [`NetError::Stalled`](mcb_net::NetError::Stalled) / budget exhaustion) is re-queued onto a
//!   *fresh* instance after seeded jittered exponential backoff;
//! * after `max_attempts` the job terminates with a typed
//!   [`Outcome::Failed`] — never silence, never a hang.
//!
//! Outcomes are delivered to clients *before* the batch record is
//! journaled, so journal recovery is at-least-once (see
//! [`journal`](crate::journal) for why that is safe). A batch-record
//! append failure is counted and, once persistent, closes intake —
//! degrading like admission's fail-closed path instead of silently
//! accumulating unjournaled work.

use crate::job::{Job, Outcome};
use crate::journal::Journal;
use crate::records::{batch_record, BatchJobLine};
use crate::service::Counters;
use mcb_algos::batch::BatchProgram;
use mcb_algos::heal::{HealProgram, SelfHealing};
use mcb_net::{Backend, ChaosOpts, FaultPlan, RunMonitor};
use mcb_rng::Rng64;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seeded chaos injected into every batch run.
#[derive(Debug, Clone)]
pub struct ChaosPlanCfg {
    /// Base seed; each batch derives its own plan seed from this and the
    /// batch sequence number, so restarts replay the same storm sequence.
    pub seed: u64,
    /// The fault mix per batch (deaths capped at `k − 1` by
    /// [`FaultPlan::random`]'s usable-slot thinning).
    pub opts: ChaosOpts,
}

/// Service tuning knobs (see field docs; defaults suit tests and the
/// bench's small-job regime).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission bound: jobs beyond this queue depth are shed.
    pub queue_depth: usize,
    /// Most jobs packed into one batch instance.
    pub batch_max: usize,
    /// Attempts per job before a typed `Failed` (≥ 1).
    pub max_attempts: u32,
    /// Backoff base: attempt `a` waits ~`base · 2^(a−1)` ms, jittered.
    pub backoff_base_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub backoff_cap_ms: u64,
    /// Channels per batch instance.
    pub k: usize,
    /// Execution backend for batch runs ([`Backend::Vector`] by default:
    /// a healed batch is a step machine per processor, so the vector
    /// driver advances the whole batch from the batcher's own thread, with
    /// no per-processor OS thread).
    pub backend: Backend,
    /// Livelock watchdog for batch runs (cycles; see
    /// [`SelfHealing::stall_window`]).
    pub stall_window: u64,
    /// Runaway cycle budget for batch runs.
    pub cycle_budget: u64,
    /// Seed for retry jitter.
    pub seed: u64,
    /// Chaos injection, when present.
    pub chaos: Option<ChaosPlanCfg>,
    /// `sync_data` after every journal append: the durability point
    /// moves from "survives process death" to "survives power loss" at
    /// device-sync cost per admission (see the flush-vs-fsync section
    /// of [`crate::journal`]). Off by default.
    pub fsync_on_append: bool,
    /// Artificial pre-run delay per batch (test hook: makes "kill the
    /// service mid-batch" deterministic in the restart test).
    pub test_delay_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_depth: 256,
            batch_max: 16,
            max_attempts: 3,
            backoff_base_ms: 2,
            backoff_cap_ms: 250,
            k: 3,
            backend: Backend::Vector,
            stall_window: 100_000,
            cycle_budget: 50_000_000,
            seed: 0x5e17e,
            chaos: None,
            fsync_on_append: false,
            test_delay_ms: 0,
        }
    }
}

/// Consecutive batch-record append failures tolerated before the
/// batcher closes intake (shared `accepting` flag) rather than keep
/// executing work it cannot journal.
const JOURNAL_FAIL_LIMIT: u32 = 3;

/// The batcher thread's state.
pub(crate) struct Batcher {
    pub cfg: ServeConfig,
    pub rx: Receiver<Job>,
    pub depth: Arc<AtomicUsize>,
    pub journal: Option<Arc<Journal>>,
    pub counters: Arc<Counters>,
    pub monitor: RunMonitor,
    /// Shared with [`Service`](crate::service::Service): cleared here
    /// when batch-record appends fail persistently.
    pub accepting: Arc<AtomicBool>,
    pub batch_seq: u64,
    /// Jobs awaiting their backoff deadline.
    pub retries: Vec<(Instant, Job)>,
    /// Consecutive batch-record append failures (reset on success).
    pub journal_fail_streak: u32,
}

impl Batcher {
    /// Run until the intake side hangs up *and* every retry has drained.
    pub fn run(mut self) {
        loop {
            let mut ready: Vec<Job> = Vec::new();
            let now = Instant::now();
            let mut i = 0;
            while i < self.retries.len() {
                if self.retries[i].0 <= now && ready.len() < self.cfg.batch_max {
                    ready.push(self.retries.swap_remove(i).1);
                } else {
                    i += 1;
                }
            }
            let mut disconnected = false;
            if ready.is_empty() {
                // Block for fresh intake until the earliest retry is due.
                let timeout = self
                    .retries
                    .iter()
                    .map(|(due, _)| due.saturating_duration_since(now))
                    .min()
                    .unwrap_or(Duration::from_millis(50));
                match self.rx.recv_timeout(timeout.max(Duration::from_millis(1))) {
                    Ok(job) => {
                        self.depth.fetch_sub(1, Ordering::SeqCst);
                        ready.push(job);
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => {
                        disconnected = true;
                        // Intake is gone, so nothing can arrive before
                        // the earliest retry is due; sleep that window
                        // out instead of spinning on the dead channel.
                        if !self.retries.is_empty() {
                            std::thread::sleep(timeout.max(Duration::from_millis(1)));
                        }
                    }
                }
            }
            // Top the batch up without waiting.
            while ready.len() < self.cfg.batch_max {
                match self.rx.try_recv() {
                    Ok(job) => {
                        self.depth.fetch_sub(1, Ordering::SeqCst);
                        ready.push(job);
                    }
                    Err(_) => break,
                }
            }
            if !ready.is_empty() {
                self.run_batch(ready);
            } else if disconnected && self.retries.is_empty() {
                return;
            }
        }
    }

    /// Jittered exponential backoff for `job`'s next attempt: seeded by
    /// (service seed, job id, attempt), so a restarted service replays
    /// the same schedule.
    fn backoff(&self, job: &Job) -> Duration {
        let shift = (job.attempts.saturating_sub(1)).min(16);
        let raw = self
            .cfg
            .backoff_base_ms
            .saturating_mul(1 << shift)
            .min(self.cfg.backoff_cap_ms);
        let mut rng = Rng64::seed_from_u64(
            self.cfg
                .seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(job.id)
                .wrapping_add(u64::from(job.attempts) << 32),
        );
        // Jitter factor in [0.5, 1.5): ±50% decorrelates retry storms.
        let factor = 512 + rng.random_range(0..1024u64);
        Duration::from_millis(raw * factor / 1024)
    }

    /// Consume one failed attempt: re-queue with backoff, or terminate
    /// with a typed `Failed` once the budget is gone. Returns the
    /// journal line for the batch record.
    fn fail_or_retry(&mut self, mut job: Job, error: &str) -> BatchJobLine {
        job.attempts += 1;
        if job.attempts >= self.cfg.max_attempts {
            let line = BatchJobLine {
                id: job.id,
                status: "failed".into(),
                attempts: job.attempts,
                cycles: 0,
                checksum: 0,
            };
            self.counters.failed.fetch_add(1, Ordering::SeqCst);
            job.respond(Outcome::Failed {
                attempts: job.attempts,
                error: error.to_owned(),
            });
            line
        } else {
            let line = BatchJobLine {
                id: job.id,
                status: "retry".into(),
                attempts: job.attempts,
                cycles: 0,
                checksum: 0,
            };
            self.counters.retries.fetch_add(1, Ordering::SeqCst);
            let due = Instant::now() + self.backoff(&job);
            job.accepted = due; // the next attempt's deadline clock
            self.retries.push((due, job));
            line
        }
    }

    /// Execute one batch and settle every member job.
    fn run_batch(&mut self, jobs: Vec<Job>) {
        self.batch_seq += 1;
        let seq = self.batch_seq;
        let mut lines: Vec<BatchJobLine> = Vec::with_capacity(jobs.len());
        let now = Instant::now();
        let mut runnable: Vec<Job> = Vec::with_capacity(jobs.len());
        for job in jobs {
            if job.deadline_missed(now) {
                lines.push(self.fail_or_retry(job, "deadline missed while queued"));
            } else {
                runnable.push(job);
            }
        }
        if runnable.is_empty() {
            self.journal_batch(
                seq,
                0,
                0,
                0,
                0,
                Some("all deadlines expired in queue"),
                &lines,
            );
            return;
        }
        // Shape the batch. Specs were validated at admission, so a part
        // failure here is a config-level bug surfaced per job, not a
        // batch abort.
        let mut parts = Vec::with_capacity(runnable.len());
        let mut members: Vec<Job> = Vec::with_capacity(runnable.len());
        for job in runnable {
            match job.spec.to_part() {
                Ok(part) => {
                    parts.push(part);
                    members.push(job);
                }
                Err(e) => lines.push(self.fail_or_retry(job, &e.to_string())),
            }
        }
        if members.is_empty() {
            self.journal_batch(seq, 0, 0, 0, 0, Some("no shapeable jobs"), &lines);
            return;
        }
        let prog = BatchProgram::new(parts).expect("members is non-empty");
        let p = HealProgram::<u64>::roles(&prog);
        // The model requires k <= p; a small batch (few tenant roles)
        // simply uses fewer channels.
        let k = self.cfg.k.min(p).max(1);
        let plan = match &self.cfg.chaos {
            Some(chaos) => FaultPlan::random(
                chaos
                    .seed
                    .wrapping_add(seq.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                p,
                k,
                &chaos.opts,
            ),
            None => FaultPlan::new(p, k),
        };
        if self.cfg.test_delay_ms > 0 {
            std::thread::sleep(Duration::from_millis(self.cfg.test_delay_ms));
        }
        let run = SelfHealing::new(plan)
            .backend(self.cfg.backend)
            .stall_window(self.cfg.stall_window)
            .cycle_budget(self.cfg.cycle_budget)
            .monitor(&self.monitor)
            .run_program(p, k, prog);
        match run {
            Ok(run) => {
                // Per-tenant attribution: sum the run's phase metrics by
                // `job{i}:` prefix (the BatchProgram labels every phase).
                let tenant_cycles: Vec<u64> = (0..members.len())
                    .map(|i| {
                        let prefix = format!("job{i}:");
                        run.metrics
                            .phases
                            .iter()
                            .filter(|ph| ph.name.starts_with(&prefix))
                            .map(|ph| ph.cycles)
                            .sum()
                    })
                    .collect();
                let settled = Instant::now();
                for (i, job) in members.into_iter().enumerate() {
                    if job.deadline_missed(settled) {
                        lines.push(self.fail_or_retry(job, "deadline missed during run"));
                    } else {
                        let result = job.spec.decode(&run.output[i]);
                        lines.push(BatchJobLine {
                            id: job.id,
                            status: "done".into(),
                            attempts: job.attempts + 1,
                            cycles: tenant_cycles[i],
                            checksum: result.checksum(),
                        });
                        self.counters.done.fetch_add(1, Ordering::SeqCst);
                        job.respond(Outcome::Done(result));
                    }
                }
                self.counters
                    .cycles
                    .fetch_add(run.metrics.cycles, Ordering::SeqCst);
                self.counters
                    .epochs
                    .fetch_add(run.epochs.len() as u64, Ordering::SeqCst);
                self.journal_batch(
                    seq,
                    p,
                    k,
                    run.metrics.cycles,
                    run.epochs.len() as u64,
                    None,
                    &lines,
                );
            }
            Err(e) => {
                let error = e.to_string();
                for job in members {
                    lines.push(self.fail_or_retry(job, &error));
                }
                self.counters.batch_errors.fetch_add(1, Ordering::SeqCst);
                self.journal_batch(seq, p, k, 0, 0, Some(&error), &lines);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn journal_batch(
        &mut self,
        seq: u64,
        p: usize,
        k: usize,
        cycles: u64,
        epochs: u64,
        error: Option<&str>,
        lines: &[BatchJobLine],
    ) {
        self.counters.batches.fetch_add(1, Ordering::SeqCst);
        if let Some(journal) = &self.journal {
            let rec = batch_record(seq, p, k, cycles, epochs, error, lines);
            match journal.append(&rec) {
                Ok(()) => self.journal_fail_streak = 0,
                Err(e) => {
                    // The jobs in `lines` already got their outcomes;
                    // without this record they stay open in the journal
                    // and replay on restart (at-least-once, safe). What
                    // must not happen silently is *persistent* failure
                    // (disk full, dead volume): fail closed like
                    // admission does and stop taking new work.
                    self.journal_fail_streak += 1;
                    self.counters.journal_errors.fetch_add(1, Ordering::SeqCst);
                    eprintln!(
                        "mcb-serve: batch journal append failed ({} consecutive): {e}",
                        self.journal_fail_streak
                    );
                    if self.journal_fail_streak >= JOURNAL_FAIL_LIMIT
                        && self.accepting.swap(false, Ordering::SeqCst)
                    {
                        eprintln!(
                            "mcb-serve: journal failing persistently; intake closed \
                             (already-executed unjournaled jobs will replay on restart)"
                        );
                    }
                }
            }
        }
    }
}
