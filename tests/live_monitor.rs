//! Mid-run monitor coherence: a [`RunMonitor`] snapshot taken from
//! another thread while the run is in flight must be *coherent* — cycle
//! monotone across successive snapshots, every counter bounded by the
//! final totals — on both backends, and the post-run snapshot must
//! equal the report's. The run is gated: each processor keeps traffic
//! flowing until the polling thread has actually observed it mid-flight,
//! so the "live read" is guaranteed, not a timing accident.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use mcb::net::{
    Backend, ChanId, FrameRead, MonitorOpts, MonitorState, Network, RunMonitor, Step, StepEnv,
    StepProtocol,
};

const BACKENDS: [Backend; 2] = [Backend::Threaded, Backend::Vector];

/// Round-robin traffic in three acts: a fixed warm-up, a hold that loops
/// until the polling thread releases it (still delivering a message every
/// cycle, so the livelock watchdog sees activity), and a fixed cool-down.
struct Gated {
    release: Arc<AtomicBool>,
    cooled: u64,
}

impl StepProtocol<u64> for Gated {
    type Output = u64;

    fn step(&mut self, env: &StepEnv, _input: FrameRead<u64>) -> Step<u64, u64> {
        const WARM: u64 = 60;
        const COOL: u64 = 40;
        let held = env.now >= WARM && !self.release.load(Ordering::Acquire);
        if env.now == 0 {
            env.phase("warm");
        } else if env.now == WARM {
            env.phase("hold");
        } else if !held && env.now > WARM {
            if self.cooled == 0 {
                env.phase("cool");
            }
            self.cooled += 1;
            if self.cooled > COOL {
                return Step::Done(env.messages_sent);
            }
        }
        let writer = (env.now % env.p as u64) as usize;
        let chan = ChanId::from_index((env.now % env.k as u64) as usize);
        let write = (writer == env.id.index()).then_some((chan, env.now));
        Step::Yield {
            write,
            read: Some(chan),
        }
    }
}

#[test]
fn mid_run_snapshots_are_coherent_on_every_backend() {
    for backend in BACKENDS {
        let monitor = RunMonitor::with_opts(MonitorOpts {
            window: 8,
            ring: 1 << 16,
            events: 16,
        });
        let release = Arc::new(AtomicBool::new(false));
        let runner = {
            let (monitor, release) = (monitor.clone(), release.clone());
            thread::spawn(move || {
                Network::new(6, 3)
                    .backend(backend)
                    .cycle_budget(500_000_000)
                    .monitor(&monitor)
                    .run_steps(move |_| Gated {
                        release: release.clone(),
                        cooled: 0,
                    })
                    .unwrap()
            })
        };

        // Poll until the run is provably observed in flight, then release
        // the hold and keep polling to completion.
        let mut snaps = Vec::new();
        loop {
            let s = monitor.snapshot();
            let live = s.state == MonitorState::Running && s.cycle >= 60;
            snaps.push(s);
            if live {
                break;
            }
            thread::sleep(Duration::from_micros(200));
        }
        release.store(true, Ordering::Release);
        loop {
            let s = monitor.snapshot();
            let done = s.state == MonitorState::Done;
            snaps.push(s);
            if done {
                break;
            }
            thread::sleep(Duration::from_micros(200));
        }

        let report = runner.join().expect("run thread");
        let fin = &report.metrics;

        // Coherence: cycle monotone across snapshots, every counter
        // bounded by the final totals. (The contract is "coherent, not
        // atomic": counters published by relaxed stores are individually
        // monotone and bounded, but two counters in one snapshot may be
        // from different instants — so each is bounded against the final
        // totals, not against its snapshot siblings.)
        for pair in snaps.windows(2) {
            assert!(
                pair[0].cycle <= pair[1].cycle,
                "{backend:?}: cycle went backwards ({} -> {})",
                pair[0].cycle,
                pair[1].cycle
            );
        }
        for s in &snaps {
            assert!(s.messages <= fin.messages, "{backend:?}");
            assert!(s.total_bits <= fin.total_bits, "{backend:?}");
            assert!(s.finished <= 6, "{backend:?}");
            assert!(s.phase_message_sum() <= fin.messages, "{backend:?}");
            assert!(s.util.iter().sum::<u64>() <= fin.messages, "{backend:?}");
            for ph in &s.phases {
                assert!(ph.first_cycle <= ph.last_cycle, "{backend:?}");
                assert!(ph.last_cycle <= fin.rounds, "{backend:?}");
            }
        }
        // At least one snapshot caught the run genuinely mid-flight.
        assert!(
            snaps
                .iter()
                .any(|s| s.state == MonitorState::Running && s.cycle >= 60 && s.cycle < fin.rounds),
            "{backend:?}: never observed the run in flight"
        );

        // The final snapshot matches both the report's embedded one and
        // the metrics it was sealed from.
        let last = snaps.last().unwrap();
        assert_eq!(last.state, MonitorState::Done, "{backend:?}");
        assert_eq!(last.cycle, fin.rounds, "{backend:?}");
        assert_eq!(last.messages, fin.messages, "{backend:?}");
        assert_eq!(last.total_bits, fin.total_bits, "{backend:?}");
        assert_eq!(last.finished, 6, "{backend:?}");
        assert_eq!(last, report.monitor.as_ref().unwrap(), "{backend:?}");
        // The ring was sized to never wrap here, so the visible samples
        // account for every message.
        assert_eq!(last.util.iter().sum::<u64>(), fin.messages, "{backend:?}");
        // Phases ran in order, every message attributed to one of them.
        let names: Vec<&str> = last.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["warm", "hold", "cool"], "{backend:?}");
        assert_eq!(last.phase_message_sum(), fin.messages, "{backend:?}");
    }
}

#[test]
fn faults_and_epochs_reach_the_event_log() {
    use mcb::algos::heal::{run_program_in, ColumnsortProgram};
    use mcb::net::{AsyncStep, EpochCtx, EpochOpts, FaultPlan, ProcId};

    for backend in BACKENDS {
        let (m, k) = (6usize, 3usize);
        let input: Vec<Vec<Option<u64>>> = (0..k)
            .map(|c| {
                (0..m)
                    .map(|r| Some(((c * m + r) * 7 % 41) as u64))
                    .collect()
            })
            .collect();
        let monitor = RunMonitor::new();
        let report = Network::new(k, k)
            .backend(backend)
            .framing(true)
            .monitor(&monitor)
            .fault_plan(
                FaultPlan::new(k, k)
                    .kill_channel(ChanId(1), 5)
                    .crash_proc(ProcId(2), 30),
            )
            .run_steps(|_| {
                let input = &input;
                AsyncStep::new(move |mut ctx| async move {
                    let prog = ColumnsortProgram::new(m, input).unwrap();
                    let mut ectx = EpochCtx::new(k, k, EpochOpts::default());
                    run_program_in(&mut ctx, &mut ectx, &prog).await.map(|_| ())
                })
            })
            .unwrap();

        let snap = report.monitor.as_ref().unwrap();
        let labels: Vec<&str> = snap.events.iter().map(|e| e.label.as_str()).collect();
        assert!(
            labels.contains(&"fault:channel_death"),
            "{backend:?}: {labels:?}"
        );
        assert!(
            labels.iter().any(|l| l.starts_with("epoch:")),
            "{backend:?}: {labels:?}"
        );
        // Events arrive in cycle order (the log is append-only).
        assert!(
            snap.events.windows(2).all(|w| w[0].cycle <= w[1].cycle),
            "{backend:?}"
        );
    }
}

#[test]
fn failed_runs_are_marked_failed() {
    // Processors 1 and 2 collide on channel 0; the run errors and the
    // monitor must land in `Failed` with the counters it reached.
    for backend in BACKENDS {
        let monitor = RunMonitor::new();
        let err = Network::new(4, 2)
            .backend(backend)
            .monitor(&monitor)
            .run(|ctx| {
                ctx.idle_for(3);
                if (1..=2).contains(&ctx.id().index()) {
                    ctx.write(ChanId(0), 7u64);
                } else {
                    ctx.idle();
                }
                ctx.idle();
            })
            .unwrap_err();
        assert!(
            matches!(err, mcb::net::NetError::Collision { .. }),
            "{backend:?}"
        );
        assert_eq!(
            monitor.snapshot().state,
            MonitorState::Failed,
            "{backend:?}"
        );
    }
}
