//! Reference checks for the fault-plan representation.
//!
//! * `FaultPlan::random` must build the same plan for every
//!   `(seed, p, k, opts)` as the recorded fixture `fixtures/random_plans.jsonl`
//!   (its `to_jsonl`, byte for byte): the same draws, the same thinning,
//!   the same crash cap. The grid covers the service storm's chaos mix at
//!   every batch shape, the default preset's multi-cycle stalls, the
//!   stall-free presets and a dense mix that forces the usable-slot
//!   thinning.
//! * Every plan of the `(4, 2)` single and pair grids and every fixture
//!   plan round-trips through its event list and its JSONL, and the
//!   plan's queries agree with a naive scan of the event list at every
//!   cycle below the horizon. (The engine's per-cycle crash, stall and
//!   write-fault lookups are crate-private; `mcb-net`'s own unit tests
//!   hold them to the same naive scan.)

use mcb_net::{ChaosOpts, FaultEvent, FaultKind, FaultPlan};
use mcb_sim::{single_fault_plans, two_fault_plans, EnumOpts, SimTarget};

const FIXTURE: &str = include_str!("fixtures/random_plans.jsonl");

/// The service storm's chaos mix on a batch with `k` channels.
fn storm(k: usize) -> ChaosOpts {
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

/// Transients piled onto a short horizon, so that the usable-slot
/// thinning removes drops, corruptions and stalls.
fn dense() -> ChaosOpts {
    ChaosOpts {
        horizon: 8,
        deaths: 1,
        drops: 24,
        corrupts: 24,
        stalls: 12,
        max_stall: 3,
        crashes: 1,
        bursts: 2,
        burst_len: 5,
    }
}

/// The fixture grid, in fixture order: `(seed, p, k, opts)`.
fn grid() -> Vec<(u64, usize, usize, ChaosOpts)> {
    let mut out = Vec::new();
    let mut seq = 0u64;
    let mut seed = || {
        seq += 1;
        0xC4A0_5EEDu64.wrapping_add(seq.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    };
    for p in 2..=40 {
        for k in 1..=p.min(3) {
            out.push((seed(), p, k, storm(k)));
        }
    }
    let multi_stall = ChaosOpts {
        stalls: 3,
        max_stall: 4,
        ..ChaosOpts::default()
    };
    for p in [2, 3, 4, 5, 8, 16, 37] {
        for k in 1..=p.min(4) {
            out.push((seed(), p, k, ChaosOpts::default()));
            out.push((seed(), p, k, multi_stall));
            out.push((seed(), p, k, ChaosOpts::unplanned(64)));
        }
    }
    for p in [2, 4, 8] {
        for k in 1..=p.min(3) {
            out.push((seed(), p, k, ChaosOpts::crash_and_death(64)));
            out.push((seed(), p, k, ChaosOpts::bursty(128)));
        }
    }
    for p in 1..=4 {
        for k in 1..=p.min(3) {
            out.push((seed(), p, k, dense()));
            out.push((seed(), p, k, dense()));
        }
    }
    out
}

fn fixture_lines() -> String {
    grid()
        .iter()
        .map(|(seed, p, k, opts)| FaultPlan::random(*seed, *p, *k, opts).to_jsonl() + "\n")
        .collect()
}

#[test]
fn random_plans_match_the_recorded_fixture() {
    let got = fixture_lines();
    let diffs: Vec<String> = got
        .lines()
        .zip(FIXTURE.lines())
        .enumerate()
        .filter(|(_, (g, w))| g != w)
        .map(|(i, (g, w))| format!("  line {i}\n  want {w}\n  got  {g}"))
        .collect();
    assert!(
        diffs.is_empty(),
        "{} plans differ from the fixture:\n{}",
        diffs.len(),
        diffs[..diffs.len().min(5)].join("\n")
    );
    assert_eq!(got.lines().count(), FIXTURE.lines().count(), "grid size");
    assert_eq!(got, FIXTURE, "fixture bytes");
}

/// Where an event sits in the canonical list: deaths by channel, crashes
/// by processor, drops and corruptions by (cycle, channel), stalls by
/// (cycle, processor).
fn emission_key(e: FaultEvent) -> (u8, u64, u64) {
    match e {
        FaultEvent::Death { chan, .. } => (0, chan as u64, 0),
        FaultEvent::Crash { proc, .. } => (1, proc as u64, 0),
        FaultEvent::Drop { at, chan } => (2, at, chan as u64),
        FaultEvent::Corrupt { at, chan } => (3, at, chan as u64),
        FaultEvent::Stall { proc, at } => (4, at, proc as u64),
    }
}

/// The answers every query must give, read straight off the event list.
struct Naive<'a>(&'a [FaultEvent]);

impl Naive<'_> {
    fn is_dead(&self, c: usize, t: u64) -> bool {
        self.0
            .iter()
            .any(|e| matches!(*e, FaultEvent::Death { chan, at } if chan == c && t >= at))
    }

    fn count(&self, kind: FaultKind) -> u64 {
        self.0.iter().filter(|e| e.kind() == kind).count() as u64
    }
}

/// Round trips, canonical order, and every query of the plan against the
/// naive scan at every cycle in `0..horizon`.
fn check_plan(plan: &FaultPlan, horizon: u64) -> Result<(), String> {
    let (p, k) = (plan.p(), plan.k());
    let events = plan.events();
    let back = FaultPlan::from_events(p, k, &events).with_seed(plan.seed());
    if back != *plan {
        return Err("from_events(events()) differs".into());
    }
    if FaultPlan::from_jsonl(&plan.to_jsonl()).as_ref() != Ok(plan) {
        return Err("from_jsonl(to_jsonl()) differs".into());
    }
    if !events
        .windows(2)
        .all(|w| emission_key(w[0]) < emission_key(w[1]))
    {
        return Err(format!("events not in canonical order: {events:?}"));
    }
    let naive = Naive(&events);
    let s = plan.summary();
    let want = (
        naive.count(FaultKind::ChannelDeath),
        naive.count(FaultKind::Drop),
        naive.count(FaultKind::Corrupt),
        naive.count(FaultKind::Crash),
        naive.count(FaultKind::Stall),
    );
    if (s.deaths, s.drops, s.corrupts, s.crashes, s.stalls) != want || s.seed != plan.seed() {
        return Err(format!("summary {s:?}, want {want:?}"));
    }
    if plan.min_live() != k - want.0 as usize {
        return Err(format!("min_live {}", plan.min_live()));
    }
    for t in 0..horizon {
        let dead: Vec<bool> = (0..k).map(|c| naive.is_dead(c, t)).collect();
        let live: Vec<usize> = (0..k).filter(|&c| !dead[c]).collect();
        if plan.live_at(t) != live {
            return Err(format!("live_at({t}) {:?}, want {live:?}", plan.live_at(t)));
        }
        for (c, &want) in dead.iter().enumerate() {
            if plan.is_dead(c, t) != want {
                return Err(format!("is_dead({c}, {t}): want {want}"));
            }
        }
    }
    Ok(())
}

#[test]
fn plans_round_trip_and_answer_like_a_naive_scan() {
    let target = SimTarget::Select {
        p: 4,
        k: 2,
        n_per: 3,
        d: 6,
    };
    let l = target.fault_free_cycles();
    let opts = EnumOpts::covered(l, l);
    let grids = single_fault_plans(4, 2, &opts)
        .into_iter()
        .chain(two_fault_plans(4, 2, &opts));
    let mut checked = 0usize;
    for plan in grids {
        check_plan(&plan, opts.pair_horizon)
            .map_err(|e| format!("{e}: {}", plan.to_jsonl()))
            .unwrap();
        checked += 1;
    }
    assert!(
        checked > 90_000,
        "the (4, 2) grids shrank to {checked} plans"
    );
    for line in FIXTURE.lines() {
        let plan = FaultPlan::from_jsonl(line).expect("fixture line parses");
        // Past the last event nothing changes; two more cycles show it.
        let horizon = plan.events().iter().map(|e| e.at()).max().unwrap_or(0) + 2;
        check_plan(&plan, horizon)
            .map_err(|e| format!("{e}: {line}"))
            .unwrap();
    }
}
