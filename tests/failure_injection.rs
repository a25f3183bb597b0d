//! Integration: the engine's failure semantics under deliberately broken
//! protocols and injected hardware faults — collisions, panics, livelocks,
//! channel deaths, message loss, crashes. The model says "the computation
//! fails"; the harness must report, never hang or corrupt. (A host's port
//! budget under the §2 processor fold holds by construction; the fold's
//! negative tests live in `tests/degraded_schedules.rs`.)

use mcb::algos::heal::SelfHealing;
use mcb::net::{Backend, ChanId, FaultKind, FaultPlan, NetError, Network, ProcCtx, ProcId};

const BACKENDS: [Backend; 2] = [Backend::Threaded, Backend::Vector];

#[test]
fn write_collision_mid_protocol_fails_cleanly() {
    // A protocol that behaves for a while, then collides.
    let err = Network::new(4, 2)
        .run(|ctx| {
            let me = ctx.id().index();
            for t in 0..10u64 {
                let chan = ChanId::from_index(me % ctx.k());
                if t < 9 {
                    // Disjoint channels: fine.
                    if me < 2 {
                        ctx.cycle(Some((ChanId::from_index(me), t)), None);
                    } else {
                        ctx.idle();
                    }
                } else {
                    // Everyone slams channel 0.
                    ctx.cycle(Some((ChanId(0), t)), Some(chan));
                }
            }
        })
        .unwrap_err();
    match err {
        NetError::Collision { cycle, channel, .. } => {
            assert_eq!(cycle, 9);
            assert_eq!(channel, ChanId(0));
        }
        other => panic!("expected collision, got {other}"),
    }
}

#[test]
fn panicking_processor_does_not_hang_waiters() {
    let err = Network::new(4, 2)
        .run(|ctx: &mut ProcCtx<'_, u64>| {
            if ctx.id().index() == 3 {
                panic!("boom at P4");
            }
            // Everyone else waits for a message that never comes.
            loop {
                if ctx.read(ChanId(0)).is_some() {
                    return;
                }
            }
        })
        .unwrap_err();
    match err {
        NetError::ProcPanicked { proc, message } => {
            assert_eq!(proc.index(), 3);
            assert!(message.contains("boom"));
        }
        other => panic!("expected panic report, got {other}"),
    }
}

#[test]
fn livelock_is_cut_by_cycle_budget() {
    let err = Network::new(2, 1)
        .cycle_budget(500)
        .run(|ctx: &mut ProcCtx<'_, u64>| loop {
            ctx.idle();
        })
        .unwrap_err();
    assert_eq!(err, NetError::CycleBudgetExhausted { budget: 500 });
}

#[test]
fn bad_channel_index_reported_with_context() {
    let err = Network::new(2, 2)
        .run(|ctx| {
            ctx.idle();
            ctx.write(ChanId(5), 1u64);
        })
        .unwrap_err();
    match err {
        NetError::BadChannel {
            cycle, channel, k, ..
        } => {
            assert_eq!(cycle, 1);
            assert_eq!(channel, ChanId(5));
            assert_eq!(k, 2);
        }
        other => panic!("expected bad channel, got {other}"),
    }
}

#[test]
fn silent_livelock_is_cut_by_the_stall_watchdog() {
    // Nobody ever sends and nobody ever finishes: the cycle budget would
    // eventually fire, but the stall watchdog cuts the run as soon as a
    // whole window passes with no network activity.
    for backend in BACKENDS {
        let err = Network::new(2, 1)
            .backend(backend)
            .stall_window(64)
            .run(|ctx: &mut ProcCtx<'_, u64>| loop {
                if ctx.read(ChanId(0)).is_some() {
                    return;
                }
            })
            .unwrap_err();
        assert!(
            matches!(err, NetError::Stalled { cycle } if cycle >= 64),
            "{backend:?}: expected a stall at or after round 64, got {err}"
        );
    }
}

#[test]
fn slow_but_active_protocols_outlive_the_watchdog() {
    // One message every 5 rounds keeps each 8-round window active, so the
    // watchdog must stay quiet for the full 100 rounds.
    for backend in BACKENDS {
        let report = Network::new(2, 1)
            .backend(backend)
            .stall_window(8)
            .run(|ctx| {
                for t in 0..100u64 {
                    if ctx.id().index() == 0 && t % 5 == 0 {
                        ctx.cycle(Some((ChanId(0), t)), None);
                    } else {
                        ctx.idle();
                    }
                }
            })
            .unwrap();
        assert_eq!(report.metrics.messages, 20, "{backend:?}");
    }
}

#[test]
fn dead_channel_reads_empty_and_is_recorded() {
    // Channel 0 dies at cycle 2: the first two writes deliver, the rest are
    // suppressed (detectably-empty reads), and every suppression lands in
    // the fault log.
    for backend in BACKENDS {
        let report = Network::new(2, 2)
            .backend(backend)
            .fault_plan(FaultPlan::new(2, 2).kill_channel(ChanId(0), 2))
            .run(|ctx| {
                let me = ctx.id().index();
                let mut got = Vec::new();
                for t in 0..4u64 {
                    if me == 0 {
                        ctx.cycle(Some((ChanId(0), t)), None);
                    } else {
                        got.push(ctx.read(ChanId(0)));
                    }
                }
                got
            })
            .unwrap();
        assert_eq!(
            report.results[1],
            Some(vec![Some(0), Some(1), None, None]),
            "{backend:?}"
        );
        assert_eq!(report.metrics.messages, 2, "{backend:?}");
        let deaths = report
            .metrics
            .faults
            .iter()
            .filter(|f| f.kind == FaultKind::ChannelDeath)
            .count();
        assert_eq!(deaths, 2, "{backend:?}: one record per suppressed write");
        assert_eq!(
            report.fault_summary.map(|s| s.deaths),
            Some(1),
            "{backend:?}: the summary counts planned deaths, not firings"
        );
    }
}

#[test]
fn dropped_and_corrupted_messages_read_as_empty() {
    // A drop and a corrupt (detected-and-discarded) each suppress exactly
    // one delivery; both are distinguishable in the fault log.
    for backend in BACKENDS {
        let plan = FaultPlan::new(2, 1)
            .drop_message(1, ChanId(0))
            .corrupt_message(2, ChanId(0));
        let report = Network::new(2, 1)
            .backend(backend)
            .fault_plan(plan)
            .run(|ctx| {
                let me = ctx.id().index();
                let mut got = Vec::new();
                for t in 0..4u64 {
                    if me == 0 {
                        ctx.cycle(Some((ChanId(0), t)), None);
                    } else {
                        got.push(ctx.read(ChanId(0)));
                    }
                }
                got
            })
            .unwrap();
        assert_eq!(
            report.results[1],
            Some(vec![Some(0), None, None, Some(3)]),
            "{backend:?}"
        );
        let kinds: Vec<FaultKind> = report.metrics.faults.iter().map(|f| f.kind).collect();
        assert_eq!(
            kinds,
            vec![FaultKind::Drop, FaultKind::Corrupt],
            "{backend:?}"
        );
    }
}

#[test]
fn crashed_processor_finishes_with_no_result_and_no_hang() {
    // P1 crashes at cycle 1. The run still completes: P1's result slot is
    // None, the others are intact, and nobody deadlocks on the barrier.
    for backend in BACKENDS {
        let report = Network::new(3, 1)
            .backend(backend)
            .fault_plan(FaultPlan::new(3, 1).crash_proc(ProcId(1), 1))
            .run(|ctx| {
                let me = ctx.id().index();
                for t in 0..4u64 {
                    if me == 0 {
                        ctx.cycle(Some((ChanId(0), t)), None);
                    } else {
                        ctx.read(ChanId(0));
                    }
                }
                me as u64
            })
            .unwrap();
        assert_eq!(report.results, vec![Some(0), None, Some(2)], "{backend:?}");
        assert_eq!(report.metrics.messages, 4, "{backend:?}");
        let crashes: Vec<_> = report
            .metrics
            .faults
            .iter()
            .filter(|f| f.kind == FaultKind::Crash)
            .collect();
        assert_eq!(crashes.len(), 1, "{backend:?}");
        assert_eq!(crashes[0].proc, Some(ProcId(1)), "{backend:?}");
    }
}

#[test]
fn stalled_processor_misses_exactly_its_blackout() {
    // A 1-cycle stall suppresses both the victim's write and its read for
    // that cycle — an I/O blackout, not a crash.
    for backend in BACKENDS {
        let report = Network::new(2, 2)
            .backend(backend)
            .fault_plan(FaultPlan::new(2, 2).stall_proc(ProcId(1), 1, 1))
            .run(|ctx| {
                let me = ctx.id().index();
                let mut got = Vec::new();
                for t in 0..3u64 {
                    // Both write every cycle on their own channel and read
                    // the other's.
                    let chan = ChanId::from_index(me);
                    let other = ChanId::from_index(1 - me);
                    got.push(ctx.cycle(Some((chan, t)), Some(other)));
                }
                got
            })
            .unwrap();
        // P0 misses P1's cycle-1 write; P1 misses its own cycle-1 read.
        assert_eq!(
            report.results[0],
            Some(vec![Some(0), None, Some(2)]),
            "{backend:?}"
        );
        assert_eq!(
            report.results[1],
            Some(vec![Some(0), None, Some(2)]),
            "{backend:?}"
        );
        let stalls = report
            .metrics
            .faults
            .iter()
            .filter(|f| f.kind == FaultKind::Stall)
            .count();
        assert_eq!(stalls, 1, "{backend:?}: write+read suppression dedups");
    }
}

#[test]
fn census_exhaustion_escalates_to_unrecoverable() {
    // The epoch census is the layer that gives up: a sweep that proves
    // nothing live, or a reconfiguration past the epoch cap, must fail the
    // run loudly instead of looping. Which processor escalates first
    // depends on scheduling, so only the variant, cycle and budget are
    // pinned.
    let (m, k) = (6usize, 2usize);
    let cols: Vec<Vec<Option<u64>>> = (0..k)
        .map(|c| (0..m).map(|r| Some((c * m + r) as u64 * 7 % 13)).collect())
        .collect();
    let cases = [
        // Both channels dead from the start: the single census sweep of
        // k × p = 4 cycles hears nothing.
        (
            SelfHealing::new(
                FaultPlan::new(k, k)
                    .kill_channel(ChanId(0), 0)
                    .kill_channel(ChanId(1), 0),
            )
            .census_retries(0),
            5,
            1,
        ),
        // One death, detected in round 3, with no reconfiguration allowed.
        (
            SelfHealing::new(FaultPlan::new(k, k).kill_channel(ChanId(1), 3)).max_epochs(0),
            4,
            0,
        ),
    ];
    for (healer, want_cycle, want_attempts) in cases {
        for backend in BACKENDS {
            let err = healer
                .clone()
                .backend(backend)
                .sort_columns(m, cols.clone())
                .unwrap_err();
            match err {
                NetError::Unrecoverable {
                    cycle, attempts, ..
                } => assert_eq!(
                    (cycle, attempts),
                    (want_cycle, want_attempts),
                    "{backend:?}"
                ),
                other => panic!("{backend:?}: expected Unrecoverable, got {other}"),
            }
        }
    }
}

#[test]
fn partial_results_are_not_leaked_on_failure() {
    // run() returns Err, not a half-filled Ok.
    let result: Result<_, _> = Network::new(3, 3).run(|ctx| {
        if ctx.id().index() == 0 {
            ctx.write(ChanId(1), 7u64);
        } else {
            ctx.write(ChanId(1), 8u64);
        }
        42u64
    });
    assert!(result.is_err());
}
