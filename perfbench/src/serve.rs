//! The two `mcb-serve` workloads, driven in process (no sockets).
//!
//! Every job goes the way a socket client's would, minus the socket:
//! request rendered and framed ([`proto`]), unframed and parsed,
//! [`Service::submit`]ted, and its outcome rendered, framed, unframed and
//! parsed again before the oracle checks it against a local reference.
//! Sockets are left out on purpose: the service's connection handler
//! waits for each job's outcome before reading the next frame, so a
//! connection carries one job at a time and two connections could never
//! fill a batch (see `README.md`).
//!
//! * `serve_trickle` — an open loop: jobs are due at seeded Poisson
//!   arrival times, one generator thread sends each job when due and
//!   waits on replies in between, and every job is timed from its due
//!   time, so a generator stall shows as latency and as lateness.
//! * `serve_storm` — bursts of `queue_depth` jobs under a seeded chaos
//!   plan, each burst released when the previous one has drained (one
//!   client, closed at burst level); jobs are timed from the release.

use crate::stats::{self, max, mean, median, quantile, Metrics};
use crate::trace::Tracer;
use crate::{Leg, Params};
use mcb_algos::batch::BatchProgram;
use mcb_algos::heal::{run_program_offline, HealProgram, SelfHealing};
use mcb_net::{Backend, ChaosOpts, FaultPlan, MonitorState};
use mcb_rng::Rng64;
use mcb_serve::job::Outcome;
use mcb_serve::{proto, ChaosPlanCfg, JobResult, JobSpec, ServeConfig, Service, Submit};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::time::{Duration, Instant};

/// Offered load of `serve_trickle`, jobs per second: well below what a
/// single-job batch costs, so batches stay at about one job.
pub const TRICKLE_RATE: f64 = 100.0;
/// Jobs settled before timing starts, per set-up.
const WARMUP_JOBS: usize = 32;
/// Distinct bursts generated for `serve_storm` (reused cyclically).
const STORM_POOL_BURSTS: usize = 8;
/// Service-state sampling period of traced runs (the generator wakes at
/// least this often to sample).
const SAMPLE_EVERY: Duration = Duration::from_millis(2);
/// Single-job batches replayed through `batch`/`heal` in a traced trickle run.
const TRICKLE_REPLAY_BATCHES: usize = 32;
/// Full batches replayed through `batch`/`heal` in a traced storm run.
const STORM_REPLAY_BATCHES: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Trickle,
    Storm,
}

/// One generated job: when it is due (offset from the start of the
/// measured window), what it asks, and the answer it must get.
struct Job {
    due: Duration,
    spec: JobSpec,
    want: JobResult,
}

/// The E20/soak mix: 4–12 keys, two sorts per select.
fn gen_spec(rng: &mut Rng64, i: usize) -> JobSpec {
    let n = rng.random_range(4..13usize);
    let keys: Vec<u64> = (0..n).map(|_| rng.random_range(0..10_000u64)).collect();
    if i % 3 == 2 {
        let rank = rng.random_range(1..n + 1);
        JobSpec::Select { keys, rank }
    } else {
        JobSpec::Sort { keys }
    }
}

/// The local reference answer: keys descending, or the `rank`'th largest.
pub fn reference(spec: &JobSpec) -> JobResult {
    match spec {
        JobSpec::Sort { keys } => {
            let mut want = keys.clone();
            want.sort_unstable_by(|a, b| b.cmp(a));
            JobResult::Sorted(want)
        }
        JobSpec::Select { keys, rank } => {
            let mut sorted = keys.clone();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            JobResult::Selected(sorted[rank - 1])
        }
    }
}

fn job(rng: &mut Rng64, i: usize, due: Duration) -> Job {
    let spec = gen_spec(rng, i);
    let want = reference(&spec);
    Job { due, spec, want }
}

/// Seeded Poisson arrivals: `n` exponential gaps rescaled so the `n`
/// arrivals fill the window (a Poisson process conditioned on its count),
/// which keeps the offered rate identical across seeds.
fn trickle_jobs(rng: &mut Rng64, seconds: f64) -> Vec<Job> {
    let n = ((TRICKLE_RATE * seconds).round() as usize).max(1);
    let mut at = Vec::with_capacity(n + 1);
    let mut sum = 0.0;
    for _ in 0..=n {
        let u = ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        sum += -u.ln();
        at.push(sum);
    }
    (0..n)
        .map(|i| job(rng, i, Duration::from_secs_f64(at[i] / sum * seconds)))
        .collect()
}

fn storm_jobs(rng: &mut Rng64, burst: usize) -> Vec<Job> {
    (0..burst * STORM_POOL_BURSTS)
        .map(|i| job(rng, i, Duration::ZERO))
        .collect()
}

/// E20's chaos mix: `k − 1` channel deaths, two crashes, two drops, a
/// corrupt and a burst fault, all inside the first 250 cycles of a batch.
fn chaos_opts(k: usize) -> ChaosOpts {
    ChaosOpts {
        horizon: 250,
        deaths: k - 1,
        drops: 2,
        corrupts: 1,
        stalls: 0,
        max_stall: 0,
        crashes: 2,
        bursts: 1,
        burst_len: 4,
    }
}

fn service_config(mode: Mode, seed: u64) -> ServeConfig {
    let base = ServeConfig::default();
    let chaos = (mode == Mode::Storm).then(|| ChaosPlanCfg {
        seed: seed ^ 0xC4A0_5EED,
        opts: chaos_opts(base.k),
    });
    ServeConfig {
        backend: Backend::Vector,
        fsync_on_append: false,
        seed,
        chaos,
        ..base
    }
}

/// An admitted job awaiting its outcome, with the submit-side timings of
/// a traced run.
struct Sent {
    i: usize,
    due: Instant,
    sent: Instant,
    id: u64,
    rx: Receiver<(u64, Outcome)>,
    request_bytes: usize,
    encode: Option<(Instant, Instant)>,
    decode: Option<(Instant, Instant)>,
    submit: Option<(Instant, Instant)>,
}

enum SendResult {
    Admitted(Sent),
    Shed,
}

fn clock(traced: bool) -> Option<Instant> {
    traced.then(Instant::now)
}

fn span(a: Option<Instant>, b: Option<Instant>) -> Option<(Instant, Instant)> {
    a.zip(b)
}

/// Frame, unframe, parse and submit job `i`.
fn send(
    service: &Service,
    i: usize,
    spec: &JobSpec,
    due: Instant,
    traced: bool,
) -> Result<SendResult, String> {
    let sent = Instant::now();
    let mut frame = Vec::new();
    proto::write_frame(&mut frame, &proto::render_request(spec, 0)).map_err(|e| e.to_string())?;
    let t1 = clock(traced);
    let raw = proto::read_frame(&mut frame.as_slice())
        .map_err(|e| e.to_string())?
        .ok_or("request frame vanished")?;
    let (spec, deadline_ms) = proto::parse_request(&raw)?;
    let t2 = clock(traced);
    let submitted = service.submit(spec, deadline_ms);
    let t3 = clock(traced);
    Ok(match submitted {
        Submit::Shed { .. } => SendResult::Shed,
        Submit::Admitted { id, rx } => SendResult::Admitted(Sent {
            i,
            due,
            sent,
            id,
            rx,
            request_bytes: frame.len(),
            encode: span(traced.then_some(sent), t1),
            decode: span(t1, t2),
            submit: span(t2, t3),
        }),
    })
}

/// The receiving side: settles outcomes, times and checks them.
struct Receiving<'a> {
    jobs: &'a [Job],
    traced: bool,
    corrupt: bool,
    tracer: Tracer,
    pending: VecDeque<Sent>,
    latencies_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    frame_bytes: Vec<f64>,
    submit_us: Vec<f64>,
    done: u64,
    failed: u64,
}

impl<'a> Receiving<'a> {
    fn new(jobs: &'a [Job], p: &Params) -> Self {
        Receiving {
            jobs,
            traced: p.traced,
            corrupt: p.corrupt,
            tracer: Tracer::new(p.traced, p.epoch),
            pending: VecDeque::new(),
            latencies_ms: Vec::new(),
            lateness_ms: Vec::new(),
            frame_bytes: Vec::new(),
            submit_us: Vec::new(),
            done: 0,
            failed: 0,
        }
    }

    /// Wait on the oldest job until it settles or `until` passes (at most
    /// one sampling period when tracing), then sweep the rest, settling
    /// everything that has an outcome. Batches settle in admission order,
    /// so waiting on the oldest job times nearly every reply exactly; a
    /// retried job that overtakes it is timed when the oldest settles.
    fn poll(&mut self, until: Option<Instant>) -> Result<(), String> {
        let mut wait = until.map(|t| t.saturating_duration_since(Instant::now()));
        if self.traced {
            wait = Some(wait.map_or(SAMPLE_EVERY, |w| w.min(SAMPLE_EVERY)));
        }
        let Some(front) = self.pending.front() else {
            std::thread::sleep(wait.unwrap_or_default());
            return Ok(());
        };
        let lost = || format!("job {} lost: reply channel dropped", front.id);
        let reply = match wait {
            None => Some(front.rx.recv().map_err(|_| lost())?),
            Some(wait) => match front.rx.recv_timeout(wait) {
                Ok(reply) => Some(reply),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => return Err(lost()),
            },
        };
        if let Some(reply) = reply {
            let sent = self.pending.pop_front().expect("front exists");
            self.settle(sent, reply)?;
        }
        let mut i = 0;
        while i < self.pending.len() {
            match self.pending[i].rx.try_recv() {
                Ok(reply) => {
                    let sent = self.pending.remove(i).expect("index in range");
                    self.settle(sent, reply)?;
                }
                Err(TryRecvError::Empty) => i += 1,
                Err(TryRecvError::Disconnected) => {
                    return Err(format!("job {} lost", self.pending[i].id))
                }
            }
        }
        Ok(())
    }

    /// Render, frame, unframe and parse the reply, then check it.
    fn settle(&mut self, sent: Sent, (id, outcome): (u64, Outcome)) -> Result<(), String> {
        if id != sent.id {
            return Err(format!(
                "reply for job {id} arrived on job {}'s channel",
                sent.id
            ));
        }
        let t0 = clock(self.traced);
        let mut frame = Vec::new();
        proto::write_frame(&mut frame, &proto::render_response(Some(id), &outcome))
            .map_err(|e| e.to_string())?;
        let t1 = clock(self.traced);
        let raw = proto::read_frame(&mut frame.as_slice())
            .map_err(|e| e.to_string())?
            .ok_or("response frame vanished")?;
        let (got_id, outcome) = proto::parse_response(&raw)?;
        let decoded = Instant::now();
        if got_id != Some(sent.id) {
            return Err(format!("response id {got_id:?} != job id {}", sent.id));
        }
        let job = &self.jobs[sent.i];
        match outcome {
            Outcome::Done(mut result) => {
                if self.corrupt && self.done == 0 {
                    corrupt_result(&mut result);
                }
                if result != job.want {
                    return Err(format!(
                        "job {} ({:?}) returned {result:?}, reference {:?}",
                        sent.id, job.spec, job.want
                    ));
                }
                self.done += 1;
                self.latencies_ms
                    .push(stats::ms(decoded.saturating_duration_since(sent.due)));
            }
            Outcome::Failed { .. } => self.failed += 1,
            Outcome::Shed { reason } => {
                return Err(format!("admitted job {} was shed late: {reason}", sent.id))
            }
        }
        self.lateness_ms
            .push(stats::ms(sent.sent.saturating_duration_since(sent.due)));
        self.frame_bytes
            .push((sent.request_bytes + frame.len()) as f64);
        if self.traced {
            let op = sent.i as u64;
            let root = self.tracer.record("serve.op", sent.due, decoded, None, op);
            for (name, interval) in [
                ("proto.encode", sent.encode),
                ("proto.decode", sent.decode),
                ("service.submit", sent.submit),
                ("proto.encode", span(t0, t1)),
                ("proto.decode", span(t1, Some(decoded))),
            ] {
                if let Some((a, b)) = interval {
                    self.tracer.record(name, a, b, root, op);
                }
            }
            if let Some((a, b)) = sent.submit {
                self.submit_us.push(stats::us(b - a));
            }
        }
        Ok(())
    }
}

/// Tamper with a result so the oracle must reject it.
fn corrupt_result(result: &mut JobResult) {
    match result {
        JobResult::Sorted(keys) => keys[0] = keys[0].wrapping_add(1),
        JobResult::Selected(v) => *v = v.wrapping_add(1),
    }
}

/// Service state sampled by the generator during a traced run.
#[derive(Default)]
struct Samples {
    next: Option<Instant>,
    taken: u64,
    busy: u64,
    queue_depth_max: usize,
    threads_max: u64,
}

impl Samples {
    fn maybe_sample(&mut self, service: &Service, traced: bool) {
        if !traced {
            return;
        }
        let now = Instant::now();
        if self.next.is_some_and(|next| now < next) {
            return;
        }
        self.next = Some(now + SAMPLE_EVERY);
        self.taken += 1;
        if service.monitor().snapshot().state == MonitorState::Running {
            self.busy += 1;
        }
        self.queue_depth_max = self.queue_depth_max.max(service.queue_depth());
        self.threads_max = self
            .threads_max
            .max(stats::proc_status("Threads").unwrap_or(0));
    }
}

fn journal_path(p: &Params, mode: Mode) -> PathBuf {
    p.out_dir
        .join(format!("journal-{mode:?}-{}.jsonl", std::process::id()))
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Generate the inputs, start a service on a fresh file journal and
/// settle the warm-up jobs.
fn set_up(mode: Mode, p: &Params, journal: &Path) -> Result<(Service, Vec<Job>), String> {
    let cfg = service_config(mode, p.seed);
    let mut rng = Rng64::seed_from_u64(p.seed);
    let jobs = match mode {
        Mode::Trickle => trickle_jobs(&mut rng, p.seconds),
        Mode::Storm => storm_jobs(&mut rng, cfg.queue_depth),
    };
    let _ = std::fs::remove_file(journal);
    let service = Service::start(cfg, Some(journal))?;
    let mut warm_rng = Rng64::seed_from_u64(p.seed ^ 0x3A17);
    let warm: Vec<Job> = (0..WARMUP_JOBS)
        .map(|i| job(&mut warm_rng, i, Duration::ZERO))
        .collect();
    // One burst: full batches make set-up cost engine work, not a chain
    // of thread wake-ups.
    let mut replies = Vec::with_capacity(warm.len());
    for w in &warm {
        match service.submit(w.spec.clone(), 0) {
            Submit::Admitted { rx, .. } => replies.push(rx),
            Submit::Shed { reason } => return Err(format!("warm-up job shed: {reason}")),
        }
    }
    for (w, rx) in warm.iter().zip(replies) {
        let got = rx.recv().map_err(|_| "warm-up job lost")?.1;
        if got != Outcome::Done(w.want.clone()) {
            return Err(format!("warm-up job {:?} returned {got:?}", w.spec));
        }
    }
    Ok((service, jobs))
}

pub fn run(mode: Mode, p: &Params) -> Result<Leg, String> {
    std::fs::create_dir_all(&p.out_dir).map_err(|e| e.to_string())?;
    let journal = journal_path(p, mode);
    let mut setup = Vec::new();
    let mut ready = None;
    for rep in 0..p.setup_reps {
        let t0 = Instant::now();
        let (service, jobs) = set_up(mode, p, &journal)?;
        setup.push(t0.elapsed());
        if rep + 1 < p.setup_reps {
            service.shutdown();
        } else {
            ready = Some((service, jobs));
        }
    }
    let (service, jobs) = ready.ok_or("no set-up repetitions")?;
    let before = service.stats();
    let journal_before = file_len(&journal);

    let mut recv = Receiving::new(&jobs, p);
    let mut samples = Samples::default();
    let mut attempted = 0u64;
    let mut shed = 0u64;
    let start = Instant::now();
    match mode {
        Mode::Trickle => {
            // One thread: send each job when it falls due, and between
            // sends wait on the oldest reply until the next due time.
            let mut next = 0;
            while next < jobs.len() || !recv.pending.is_empty() {
                let due = jobs.get(next).map(|j| start + j.due);
                if let Some(due) = due.filter(|&d| Instant::now() >= d) {
                    attempted += 1;
                    match send(&service, next, &jobs[next].spec, due, p.traced)? {
                        SendResult::Admitted(s) => recv.pending.push_back(s),
                        SendResult::Shed => shed += 1,
                    }
                    next += 1;
                    continue;
                }
                recv.poll(due)?;
                samples.maybe_sample(&service, p.traced);
            }
        }
        Mode::Storm => {
            let burst = service_config(mode, p.seed).queue_depth;
            let mut b = 0usize;
            while b == 0 || start.elapsed().as_secs_f64() < p.seconds {
                let release = Instant::now();
                let base = (b % STORM_POOL_BURSTS) * burst;
                for (i, job) in jobs.iter().enumerate().skip(base).take(burst) {
                    attempted += 1;
                    match send(&service, i, &job.spec, release, p.traced)? {
                        SendResult::Admitted(s) => recv.pending.push_back(s),
                        SendResult::Shed => shed += 1,
                    }
                }
                while !recv.pending.is_empty() {
                    recv.poll(None)?;
                    samples.maybe_sample(&service, p.traced);
                }
                b += 1;
            }
        }
    }
    let wall = start.elapsed();
    let after = service.stats();
    let journal_after = file_len(&journal);
    let total = service.shutdown();
    let _ = std::fs::remove_file(&journal);

    if total.done + total.failed != total.admitted {
        return Err(format!(
            "ledger does not balance: done {} + failed {} != admitted {}",
            total.done, total.failed, total.admitted
        ));
    }
    let admitted = after.admitted - before.admitted;
    if recv.done + recv.failed != admitted || attempted != admitted + shed {
        return Err(format!(
            "measured ledger does not balance: done {} failed {} shed {shed} admitted {admitted} attempted {attempted}",
            recv.done, recv.failed
        ));
    }

    let mut layers = Metrics::default();
    if p.traced {
        let t = &recv.tracer;
        let per_op_us = |names: &[&str]| -> Vec<f64> {
            t.per_op_sum(names).into_iter().map(stats::us).collect()
        };
        let encode = per_op_us(&["proto.encode"]);
        let decode = per_op_us(&["proto.decode"]);
        let lateness = &recv.lateness_ms;
        let batches = (after.batches - before.batches).max(1) as f64;
        match mode {
            Mode::Trickle => {
                layers.set("proto.encode_us", "us", median(&encode));
                layers.set("proto.decode_us", "us", median(&decode));
                layers.set("proto.frame_bytes", "bytes", mean(&recv.frame_bytes));
                layers.set("service.submit_us_p50", "us", median(&recv.submit_us));
                layers.set(
                    "service.submit_us_p99",
                    "us",
                    quantile(&recv.submit_us, 0.99),
                );
                layers.set("service.shed", "count", shed as f64);
                layers.set(
                    "journal.bytes_per_job",
                    "bytes",
                    (journal_after - journal_before) as f64 / admitted.max(1) as f64,
                );
                layers.set("gen.lateness_p99_ms", "ms", quantile(lateness, 0.99));
                layers.set("gen.lateness_max_ms", "ms", max(lateness));
            }
            Mode::Storm => {
                layers.set(
                    "batcher.jobs_per_batch",
                    "jobs",
                    (after.done - before.done) as f64 / batches,
                );
                layers.set(
                    "batcher.engine_busy_share",
                    "ratio",
                    samples.busy as f64 / samples.taken.max(1) as f64,
                );
                layers.set(
                    "batcher.queue_depth_max",
                    "jobs",
                    samples.queue_depth_max as f64,
                );
                layers.set(
                    "batcher.retries_per_job",
                    "ratio",
                    (after.retries - before.retries) as f64 / admitted.max(1) as f64,
                );
                layers.set("engine.os_threads_max", "count", samples.threads_max as f64);
            }
        }
    }
    let mut tracer = recv.tracer;
    if p.traced {
        replay(mode, &jobs, p, &mut tracer, &mut layers)?;
    }
    let lateness = &recv.lateness_ms;
    let note = format!(
        "generator lateness p99 {:.3} ms, max {:.3} ms over {} jobs",
        quantile(lateness, 0.99),
        max(lateness),
        lateness.len()
    );
    Ok(Leg {
        attempted,
        done: recv.done,
        failed: recv.failed + shed,
        setup,
        latencies_ms: recv.latencies_ms,
        wall,
        layers,
        tracer,
        note,
    })
}

/// Exact counts of one replayed batch: rounds, messages, epochs.
type Counts = (u64, u64, u64);

/// Replay the workload's batch shapes through `batch` and `heal` on their
/// own — single-job healthy batches for the trickle, full batches under
/// the storm's chaos plan — twice, timing the layer calls and demanding
/// that the model counts repeat exactly.
fn replay(
    mode: Mode,
    jobs: &[Job],
    p: &Params,
    tracer: &mut Tracer,
    layers: &mut Metrics,
) -> Result<(), String> {
    let cfg = service_config(mode, p.seed);
    let (per_batch, batches) = match mode {
        Mode::Trickle => (1, TRICKLE_REPLAY_BATCHES),
        Mode::Storm => (cfg.batch_max, STORM_REPLAY_BATCHES),
    };
    let batches = batches.min(jobs.len() / per_batch).max(1);
    let mut first: Vec<Counts> = Vec::new();
    let (mut build_us, mut offline_ms, mut run_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut ns_per_round, mut extra) = (Vec::new(), Vec::new());
    for pass in 0..2 {
        let mut counts = Vec::new();
        for b in 0..batches {
            let members = &jobs[b * per_batch..((b + 1) * per_batch).min(jobs.len())];
            let op = b as u64;
            let t0 = Instant::now();
            let parts = members
                .iter()
                .map(|j| j.spec.to_part())
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?;
            let prog = BatchProgram::new(parts).map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            let (_, l) = run_program_offline(&prog);
            let t2 = Instant::now();
            let roles = HealProgram::<u64>::roles(&prog);
            let k = cfg.k.min(roles).max(1);
            let seq = b as u64 + 1;
            let plan = match &cfg.chaos {
                Some(chaos) => FaultPlan::random(
                    chaos
                        .seed
                        .wrapping_add(seq.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                    roles,
                    k,
                    &chaos.opts,
                ),
                None => FaultPlan::new(roles, k),
            };
            let t3 = Instant::now();
            let run = SelfHealing::new(plan)
                .backend(cfg.backend)
                .stall_window(cfg.stall_window)
                .cycle_budget(cfg.cycle_budget)
                .run_program(roles, k, prog)
                .map_err(|e| format!("replayed batch {b} failed: {e}"))?;
            let t4 = Instant::now();
            for (i, j) in members.iter().enumerate() {
                if j.spec.decode(&run.output[i]) != j.want {
                    return Err(format!(
                        "replayed batch {b} job {i} returned a wrong result"
                    ));
                }
            }
            let cycles = run.metrics.cycles;
            counts.push((cycles, run.metrics.messages, run.epochs.len() as u64));
            if pass == 1 {
                let root = tracer.record("heal.batch", t0, t4, None, op);
                tracer.record("batch.build", t0, t1, root, op);
                tracer.record("heal.offline", t1, t2, root, op);
                tracer.record("heal.run", t3, t4, root, op);
                build_us.push(stats::us(t1 - t0));
                offline_ms.push(stats::ms(t2 - t1));
                run_ms.push(stats::ms(t4 - t3));
                ns_per_round.push((t4 - t3).as_nanos() as f64 / cycles.max(1) as f64);
                extra.push(cycles.saturating_sub(l) as f64 / l.max(1) as f64);
            }
        }
        if pass == 0 {
            first = counts;
        } else if counts != first {
            return Err(format!(
                "exact-count leg: replayed batch counts differ between passes: {first:?} vs {counts:?}"
            ));
        }
    }
    let col = |f: fn(&Counts) -> u64| mean(&first.iter().map(|c| f(c) as f64).collect::<Vec<_>>());
    match mode {
        Mode::Trickle => {
            layers.set("batch.build_us", "us", median(&build_us));
            layers.set("heal.offline_ms", "ms", median(&offline_ms));
            layers.set("heal.run_ms", "ms", median(&run_ms));
        }
        Mode::Storm => {
            layers.set("heal.full_offline_ms", "ms", median(&offline_ms));
            layers.set("heal.full_run_ms", "ms", median(&run_ms));
            layers.set("heal.ns_per_round", "ns", median(&ns_per_round));
            layers.set("heal.rounds_per_batch", "count", col(|c| c.0));
            layers.set("heal.messages_per_batch", "count", col(|c| c.1));
            layers.set("heal.epochs_per_batch", "count", col(|c| c.2));
            layers.set("heal.extra_cycle_share", "ratio", mean(&extra));
        }
    }
    Ok(())
}
