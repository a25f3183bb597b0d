//! Cross-backend equivalence: the threaded and vector engines
//! must be observationally identical. For collision-free protocols that
//! means byte-identical results, [`Metrics`], and [`Trace`]; for failing
//! protocols it means identical error *classification* (variant, channel,
//! cycle — the colliding-writer pair is scheduling-dependent on the
//! threaded backend, so it is deliberately excluded).
//!
//! Closure protocols on [`Backend::Vector`] run on its fiber driver, so the
//! closure tests pin that route while the [`StepProtocol`] tests exercise
//! the struct-of-arrays driver itself — including its inlined fault
//! handling and [`Step::IdleFor`] bulk idling. `BACKENDS[0]` (threaded) is
//! the reference every other backend is compared against.

use mcb::net::{
    Backend, ChanId, FrameRead, Metrics, NetError, Network, ProcId, RunReport, Step, StepEnv,
    StepProtocol, Trace,
};
use mcb_rng::Rng64;

const BACKENDS: [Backend; 2] = [Backend::Threaded, Backend::Vector];

/// A seeded, collision-free, straggler-heavy protocol schedule.
///
/// For each round and channel at most one distinct processor writes (so the
/// run never fails), every processor reads a pseudo-random channel, and
/// processor `i` idles `i % 3` extra cycles at the end so early finishers
/// exercise the drain path.
struct Schedule {
    p: usize,
    k: usize,
    rounds: usize,
    /// `writers[r][c]` = the processor writing channel `c` in round `r`.
    writers: Vec<Vec<Option<usize>>>,
    /// `reads[r][i]` = the channel processor `i` reads in round `r`.
    reads: Vec<Vec<usize>>,
}

impl Schedule {
    fn generate(seed: u64, p: usize, k: usize, rounds: usize) -> Self {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut writers = Vec::with_capacity(rounds);
        let mut reads = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            // Distinct writers per channel: shuffle processors, take one
            // per channel, then keep each with probability ~0.7.
            let mut order: Vec<usize> = (0..p).collect();
            rng.shuffle(&mut order);
            let row: Vec<Option<usize>> = (0..k)
                .map(|c| (rng.random_bool(0.7)).then(|| order[c % p]))
                .collect();
            writers.push(row);
            reads.push((0..p).map(|_| rng.random_range(0usize..k)).collect());
        }
        Schedule {
            p,
            k,
            rounds,
            writers,
            reads,
        }
    }

    fn run(&self, backend: Backend) -> RunReport<u64, u64> {
        Network::new(self.p, self.k)
            .backend(backend)
            .record_trace(true)
            .run(|ctx| {
                let me = ctx.id().index();
                let mut acc = 0u64;
                for r in 0..self.rounds {
                    // Label a new phase every 5 rounds so the equivalence
                    // check also covers per-phase attribution.
                    if r % 5 == 0 {
                        ctx.phase(&format!("seg{}", r / 5));
                    }
                    let write = (0..self.k)
                        .find(|&c| self.writers[r][c] == Some(me))
                        .map(|c| (ChanId::from_index(c), (r * 1000 + c * 10 + me) as u64));
                    let read = ChanId::from_index(self.reads[r][me]);
                    if let Some(v) = ctx.cycle(write, Some(read)) {
                        acc = acc.wrapping_mul(31).wrapping_add(v);
                    }
                }
                ctx.idle_for((me % 3) as u64);
                acc
            })
            .unwrap()
    }
}

fn assert_reports_identical(a: &RunReport<u64, u64>, b: &RunReport<u64, u64>, label: &str) {
    assert_eq!(a.results, b.results, "{label}: results differ");
    assert_eq!(a.metrics, b.metrics, "{label}: metrics differ");
    assert_eq!(
        a.metrics.phases, b.metrics.phases,
        "{label}: phase tables differ"
    );
    let (ta, tb): (&Trace<u64>, &Trace<u64>) =
        (a.trace.as_ref().unwrap(), b.trace.as_ref().unwrap());
    assert_eq!(ta.events(), tb.events(), "{label}: traces differ");
    assert_eq!(a.to_jsonl(), b.to_jsonl(), "{label}: JSONL exports differ");
}

#[test]
fn random_collision_free_protocols_agree() {
    let mut rng = Rng64::seed_from_u64(0xe901);
    for case in 0..8 {
        let p = rng.random_range(2usize..12);
        let k = rng.random_range(1usize..6).min(p);
        let rounds = rng.random_range(3usize..30);
        let sched = Schedule::generate(rng.next_u64(), p, k, rounds);
        let baseline = sched.run(Backend::Threaded);
        for &backend in &BACKENDS[1..] {
            let other = sched.run(backend);
            assert_reports_identical(
                &baseline,
                &other,
                &format!("case {case} (p={p} k={k} rounds={rounds}) vs {backend:?}"),
            );
        }
    }
}

#[test]
fn collision_classification_agrees() {
    // Processors 1 and 2 both write channel 0 in cycle 3.
    let run = |backend: Backend| {
        Network::new(4, 2)
            .backend(backend)
            .run(|ctx| {
                ctx.idle_for(3);
                if (1..=2).contains(&ctx.id().index()) {
                    ctx.write(ChanId(0), 7u64);
                } else {
                    ctx.idle();
                }
                ctx.idle();
            })
            .unwrap_err()
    };
    for backend in BACKENDS {
        match run(backend) {
            NetError::Collision {
                cycle,
                channel,
                first,
                second,
            } => {
                assert_eq!(cycle, 3, "{backend:?}");
                assert_eq!(channel, ChanId(0), "{backend:?}");
                // The loser/winner pair is scheduling-dependent on the
                // threaded backend; only its membership is guaranteed.
                let mut pair = [first.index(), second.index()];
                pair.sort_unstable();
                assert_eq!(pair, [1, 2], "{backend:?}");
            }
            other => panic!("{backend:?}: expected collision, got {other}"),
        }
    }
}

#[test]
fn error_classification_agrees_across_backends() {
    // Bad channel index. Only processor 0 performs the bad write (the
    // engine keeps the *first* failure it sees, which is scheduling-
    // dependent on the threaded backend when several processors fail in
    // the same cycle).
    for backend in BACKENDS {
        let err = Network::new(3, 2)
            .backend(backend)
            .run(|ctx| {
                ctx.idle();
                if ctx.id().index() == 0 {
                    ctx.write(ChanId(9), 1u64);
                } else {
                    ctx.idle_for(2);
                }
            })
            .unwrap_err();
        assert_eq!(
            err,
            NetError::BadChannel {
                cycle: 1,
                proc: ProcId(0),
                channel: ChanId(9),
                k: 2
            },
            "{backend:?}"
        );
    }
    // Protocol panic.
    for backend in BACKENDS {
        let err = Network::new(3, 3)
            .backend(backend)
            .run(|ctx: &mut mcb::net::ProcCtx<'_, u64>| {
                ctx.idle();
                if ctx.id().index() == 2 {
                    panic!("boom at cycle one");
                }
                loop {
                    if ctx.read(ChanId(0)).is_some() {
                        break;
                    }
                }
            })
            .unwrap_err();
        match err {
            NetError::ProcPanicked { proc, message } => {
                assert_eq!(proc, ProcId(2), "{backend:?}");
                assert!(message.contains("boom at cycle one"), "{backend:?}");
            }
            other => panic!("{backend:?}: expected panic report, got {other}"),
        }
    }
    // Cycle budget exhaustion.
    for backend in BACKENDS {
        let err = Network::new(2, 1)
            .backend(backend)
            .cycle_budget(40)
            .run(|ctx: &mut mcb::net::ProcCtx<'_, u64>| loop {
                ctx.idle();
            })
            .unwrap_err();
        assert_eq!(
            err,
            NetError::CycleBudgetExhausted { budget: 40 },
            "{backend:?}"
        );
    }
}

/// A token ring as a state machine: processor 0 injects a token, each
/// processor increments and forwards it on its own channel.
struct Ring {
    hops: u64,
}

impl StepProtocol<u64> for Ring {
    type Output = u64;

    fn step(&mut self, env: &StepEnv, input: FrameRead<u64>) -> Step<u64, u64> {
        let input = input.clean();
        let me = env.id.index();
        let turn = (env.now % env.p as u64) as usize;
        if env.now == self.hops {
            return Step::Done(env.messages_sent);
        }
        // One phase per full ring pass, to cover StepEnv phase plumbing.
        if turn == 0 {
            env.phase(&format!("pass{}", env.now / env.p as u64));
        }
        let write = if turn == me {
            let token = input.unwrap_or(0) + 1;
            Some((ChanId::from_index(me), token))
        } else {
            None
        };
        let read = ChanId::from_index(turn);
        Step::Yield {
            write,
            read: Some(read),
        }
    }
}

#[test]
fn run_steps_agrees_across_backends() {
    let run = |backend: Backend| {
        Network::new(5, 5)
            .backend(backend)
            .record_trace(true)
            .run_steps(|_| Ring { hops: 12 })
            .unwrap()
    };
    let threaded = run(Backend::Threaded);
    for &backend in &BACKENDS[1..] {
        let other = run(backend);
        assert_eq!(threaded.results, other.results, "{backend:?}");
        assert_eq!(threaded.metrics, other.metrics, "{backend:?}");
        assert_eq!(threaded.metrics.phases, other.metrics.phases, "{backend:?}");
        assert_eq!(
            threaded.trace.as_ref().unwrap().events(),
            other.trace.as_ref().unwrap().events(),
            "{backend:?}"
        );
        assert_eq!(threaded.to_jsonl(), other.to_jsonl(), "{backend:?}");
    }
    // Each processor forwarded the token once per full ring pass, and each
    // pass is its own labelled phase.
    assert_eq!(threaded.metrics.messages, 12);
    assert!(threaded.metrics.phases.len() >= 2);
}

/// A step protocol exercising the vector driver's inlined fault handling:
/// writes and reads are scheduled off the *global* clock (`env.now`), so
/// processors stay collision-free even when some start with a bulk idle,
/// get stalled, or crash mid-run.
struct FaultProbe {
    rounds: u64,
    started: bool,
    sum: u64,
}

impl StepProtocol<u64> for FaultProbe {
    type Output = u64;

    fn step(&mut self, env: &StepEnv, input: FrameRead<u64>) -> Step<u64, u64> {
        let input = input.clean();
        if let Some(v) = input {
            self.sum = self.sum.wrapping_mul(31).wrapping_add(v);
        }
        if !self.started {
            self.started = true;
            // Staggered bulk idles: the vector backend parks these
            // processors and wakes them at different cycles.
            let me = env.id.index() as u64;
            if me > 0 {
                return Step::idle_for(me);
            }
        }
        if env.now >= self.rounds {
            return Step::Done(self.sum);
        }
        let writer = (env.now % env.p as u64) as usize;
        let chan = ChanId::from_index((env.now % env.k as u64) as usize);
        let write = (writer == env.id.index()).then(|| (chan, env.now * 17 + writer as u64));
        Step::Yield {
            write,
            read: Some(chan),
        }
    }
}

#[test]
fn faulted_step_runs_agree_across_backends() {
    use mcb::net::FaultPlan;

    let (p, k) = (4, 2);
    let plan = FaultPlan::new(p, k)
        .kill_channel(ChanId(1), 9)
        .drop_message(4, ChanId(0))
        .corrupt_message(6, ChanId(0))
        .crash_proc(ProcId(2), 11)
        .stall_proc(ProcId(3), 5, 3);
    let run = |backend: Backend| {
        Network::new(p, k)
            .backend(backend)
            .record_trace(true)
            .fault_plan(plan.clone())
            .run_steps(|_| FaultProbe {
                rounds: 16,
                started: false,
                sum: 0,
            })
            .unwrap()
    };
    let threaded = run(Backend::Threaded);
    for &backend in &BACKENDS[1..] {
        let other = run(backend);
        assert_eq!(threaded.results, other.results, "{backend:?}");
        assert_eq!(threaded.metrics, other.metrics, "{backend:?}");
        assert_eq!(
            threaded.metrics.faults, other.metrics.faults,
            "{backend:?}: fault logs differ"
        );
        assert_eq!(
            threaded.trace.as_ref().unwrap().events(),
            other.trace.as_ref().unwrap().events(),
            "{backend:?}: traces differ"
        );
        assert_eq!(threaded.to_jsonl(), other.to_jsonl(), "{backend:?}");
    }
    // The crashed processor's result died with it; the plan actually fired.
    assert_eq!(threaded.results[2], None);
    assert!(threaded.results[0].is_some());
    assert!(!threaded.metrics.faults.is_empty());
}

/// Step-protocol error paths must classify identically on the vector
/// driver, which reports failures without per-processor threads.
#[test]
fn step_error_classification_agrees_across_backends() {
    // Bad channel from a state machine (only processor 0 misbehaves).
    struct BadWrite;
    impl StepProtocol<u64> for BadWrite {
        type Output = ();
        fn step(&mut self, env: &StepEnv, _input: FrameRead<u64>) -> Step<u64, ()> {
            match (env.cycles_used, env.id.index()) {
                (0, _) => Step::idle(),
                (1, 0) => Step::write(ChanId(9), 1),
                (1, _) => Step::idle_for(2),
                _ => Step::Done(()),
            }
        }
    }
    for backend in BACKENDS {
        let err = Network::new(3, 2)
            .backend(backend)
            .run_steps(|_| BadWrite)
            .unwrap_err();
        assert_eq!(
            err,
            NetError::BadChannel {
                cycle: 1,
                proc: ProcId(0),
                channel: ChanId(9),
                k: 2
            },
            "{backend:?}"
        );
    }
    // Panic inside `step`.
    struct Boom;
    impl StepProtocol<u64> for Boom {
        type Output = ();
        fn step(&mut self, env: &StepEnv, _input: FrameRead<u64>) -> Step<u64, ()> {
            if env.cycles_used == 1 && env.id.index() == 2 {
                panic!("step boom");
            }
            Step::idle()
        }
    }
    for backend in BACKENDS {
        let err = Network::new(3, 3)
            .backend(backend)
            .run_steps(|_| Boom)
            .unwrap_err();
        match err {
            NetError::ProcPanicked { proc, message } => {
                assert_eq!(proc, ProcId(2), "{backend:?}");
                assert!(message.contains("step boom"), "{backend:?}");
            }
            other => panic!("{backend:?}: expected panic report, got {other}"),
        }
    }
    // Cycle budget exhaustion with every processor parked in a bulk idle:
    // the vector driver must still notice the budget even with an empty
    // active set.
    struct Sleeper;
    impl StepProtocol<u64> for Sleeper {
        type Output = ();
        fn step(&mut self, _env: &StepEnv, _input: FrameRead<u64>) -> Step<u64, ()> {
            Step::idle_for(1_000_000)
        }
    }
    for backend in BACKENDS {
        let err = Network::new(2, 1)
            .backend(backend)
            .cycle_budget(40)
            .run_steps(|_| Sleeper)
            .unwrap_err();
        assert_eq!(
            err,
            NetError::CycleBudgetExhausted { budget: 40 },
            "{backend:?}"
        );
    }
}

#[test]
fn metrics_details_agree_for_stragglers() {
    // The early-finisher/drain bookkeeping (rounds vs cycles, per-proc
    // cycle counts) must match exactly.
    let run = |backend: Backend| {
        Network::new(6, 6)
            .backend(backend)
            .run(|ctx| {
                let me = ctx.id().index();
                for c in 0..=me {
                    ctx.write(ChanId::from_index(me), c as u64);
                }
                ctx.cycles_used()
            })
            .unwrap()
    };
    let threaded = run(Backend::Threaded);
    for &backend in &BACKENDS[1..] {
        let other = run(backend);
        assert_eq!(threaded.results, other.results, "{backend:?}");
        assert_eq!(threaded.metrics, other.metrics, "{backend:?}");
    }
    let m: &Metrics = &threaded.metrics;
    assert_eq!(m.per_proc_cycles, vec![1, 2, 3, 4, 5, 6]);
    assert_eq!(m.cycles, 6);
}

#[test]
fn faulted_runs_replay_byte_identically_across_backends() {
    // A self-healing columnsort under a plan mixing a channel death with
    // transient losses: results, metrics (including the fault log), the
    // epoch log and the plan summary must be identical across backends
    // and across repeated runs from the same plan.
    use mcb::algos::heal::SelfHealing;
    use mcb::net::FaultPlan;

    let (m, k) = (12, 4);
    let cols: Vec<Vec<Option<u64>>> = (0..k)
        .map(|c| {
            (0..m)
                .map(|r| Some(((c * m + r) as u64).wrapping_mul(2654435761) % 4093))
                .collect()
        })
        .collect();
    let plan = FaultPlan::new(k, k)
        .kill_channel(ChanId(2), 7)
        .drop_message(3, ChanId(1))
        .corrupt_message(11, ChanId(0));

    let run = |backend: Backend| {
        SelfHealing::new(plan.clone())
            .backend(backend)
            .sort_columns(m, cols.clone())
            .unwrap()
    };
    let threaded = run(Backend::Threaded);
    let vector = run(Backend::Vector);
    let replay = run(Backend::Threaded);

    for (label, other) in [("vector", &vector), ("threaded replay", &replay)] {
        assert_eq!(threaded.columns, other.columns, "{label}: outputs differ");
        assert_eq!(threaded.metrics, other.metrics, "{label}: metrics differ");
        assert_eq!(
            threaded.metrics.faults, other.metrics.faults,
            "{label}: fault logs differ"
        );
        assert_eq!(threaded.epochs, other.epochs, "{label}: epoch logs differ");
        assert_eq!(
            threaded.fault_summary, other.fault_summary,
            "{label}: fault summaries differ"
        );
    }
    // The output is actually sorted and the run honoured its bound.
    let lin: Vec<u64> = threaded
        .columns
        .iter()
        .flatten()
        .map(|x| x.unwrap())
        .collect();
    assert!(lin.windows(2).all(|w| w[0] >= w[1]));
    assert!(threaded.metrics.cycles <= threaded.cycle_bound);
    assert!(
        !threaded.metrics.faults.is_empty(),
        "plan must actually fire"
    );
    assert!(
        !threaded.epochs.is_empty(),
        "the death must force a reconfiguration"
    );
}

#[test]
fn fault_jsonl_export_is_byte_identical_across_backends() {
    // Raw faulted run through the engine API, so the full
    // RunReport::to_jsonl — fault_plan line, per-fault lines, events — is
    // diffed byte-for-byte.
    use mcb::net::FaultPlan;

    let run = |backend: Backend| {
        Network::new(3, 2)
            .backend(backend)
            .record_trace(true)
            .fault_plan(
                FaultPlan::new(3, 2)
                    .kill_channel(ChanId(1), 2)
                    .drop_message(1, ChanId(0)),
            )
            .run(|ctx| {
                let me = ctx.id().index();
                for t in 0..4u64 {
                    if me < 2 {
                        ctx.cycle(Some((ChanId::from_index(me), t)), None);
                    } else {
                        ctx.read(ChanId(0));
                    }
                }
            })
            .unwrap()
    };
    let threaded = run(Backend::Threaded);
    let ja = threaded.to_jsonl();
    for &backend in &BACKENDS[1..] {
        let jb = run(backend).to_jsonl();
        assert_eq!(ja, jb, "{backend:?}: JSONL exports differ");
    }
    assert!(ja.contains("\"record\":\"fault_plan\""), "{ja}");
    assert!(ja.contains("\"kind\":\"channel_death\""), "{ja}");
    assert!(ja.contains("\"kind\":\"drop\""), "{ja}");
}

#[test]
fn monitored_runs_agree_across_backends() {
    // The *final* monitor snapshot is part of the deterministic surface:
    // counters, phase rows, and the utilization ring must be identical on
    // both backends (and in the JSONL byte diff). Only the event log
    // is scheduling-order and excluded from the comparison.
    use mcb::net::{FaultPlan, MonitorOpts, RunMonitor};

    let run = |backend: Backend| {
        let monitor = RunMonitor::with_opts(MonitorOpts {
            window: 4,
            ring: 8,
            events: 16,
        });
        let report = Network::new(4, 2)
            .backend(backend)
            .monitor(&monitor)
            .fault_plan(
                FaultPlan::new(4, 2)
                    .kill_channel(ChanId(1), 6)
                    .drop_message(3, ChanId(0)),
            )
            .run(|ctx| {
                let me = ctx.id().index();
                ctx.phase("ping");
                for t in 0..9u64 {
                    if t == 5 {
                        ctx.phase("pong");
                    }
                    if me == (t % 4) as usize {
                        ctx.write(ChanId::from_index(me % 2), t);
                    } else {
                        ctx.read(ChanId::from_index(me % 2));
                    }
                }
            })
            .unwrap();
        (report.monitor.clone().unwrap(), report.to_jsonl())
    };

    let (mut base_snap, base_jsonl) = run(Backend::Threaded);
    assert_eq!(base_snap.state.as_str(), "done");
    assert!(
        !base_snap.events.is_empty(),
        "faults must reach the monitor"
    );
    base_snap.events.clear();
    for &backend in &BACKENDS[1..] {
        let (mut snap, jsonl) = run(backend);
        snap.events.clear();
        assert_eq!(base_snap, snap, "{backend:?}: final snapshots differ");
        assert_eq!(base_jsonl, jsonl, "{backend:?}: JSONL exports differ");
    }
    // The snapshot's totals agree with what the run actually did: two
    // labelled phases, every message attributed.
    assert_eq!(base_snap.phases.len(), 2);
    assert_eq!(base_snap.phase_message_sum(), base_snap.messages);
    assert!(base_jsonl.contains("\"record\":\"monitor\""));
    assert!(base_jsonl.contains("\"record\":\"monitor_phase\""));
}

#[test]
fn backend_resolution() {
    // Concrete choices pass through untouched.
    assert_eq!(Backend::Threaded.resolve(1 << 20), Ok(Backend::Threaded));
    assert_eq!(Backend::Vector.resolve(1), Ok(Backend::Vector));
    // Auto: threaded up to max(32, 2 * cores) processors, vector above —
    // unless MCB_BACKEND forces one (CI runs this suite forced, too).
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cut = (2 * cores).max(32);
    let forced =
        std::env::var_os("MCB_BACKEND").map(|v| Backend::from_env_value(&v.to_string_lossy()));
    for (p, heuristic) in [
        (1, Backend::Threaded),
        (cut, Backend::Threaded),
        (cut + 1, Backend::Vector),
        (1 << 20, Backend::Vector),
    ] {
        let want = forced.clone().unwrap_or(Ok(heuristic));
        assert_eq!(Backend::Auto.resolve(p), want, "p = {p}");
    }
}
