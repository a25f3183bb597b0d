//! Deliberately broken protocols, caught before any engine exists — and a
//! report of *which pass* produced each verdict, because the repo now has
//! three of them:
//!
//! 1. the **structural** verifier (collision-freedom, read-validity) —
//!    walks the schedule once, no keys involved;
//! 2. the **symbolic** pass (`mcb_check::verify_network`) — proves a
//!    compiled comparator network sorts *every* input via provenance
//!    tracking and the 0-1 principle, still with zero concrete keys;
//! 3. **concrete round-simulation** — actually running the engine on one
//!    input, the weakest verdict (it only speaks for that input).
//!
//! The probe seeds two bugs. A write collision is caught structurally
//! (pass 1) and confirmed at runtime (pass 3). A flipped comparator end
//! is *invisible* to pass 1 — the schedule stays collision-free — and is
//! caught by pass 2 for all inputs at once; the engine run on the
//! symbolic counterexample merely confirms it. Exits non-zero if any
//! pass misses its bug.
//!
//! Works identically on either backend (try `MCB_BACKEND=vector`).

use mcb::algos::networks::{network_sort_in, NetworkKind, NetworkSpec};
use mcb::check::{verify, verify_network, Bounds, NetViolation, ScheduleBuilder};
use mcb::net::{Backend, ChanId, Network};
use std::sync::Arc;

fn main() {
    // ---- Bug 1: a write collision. ------------------------------------
    // The protocol below as a static schedule: cycle 0 all quiet, cycle 1
    // every processor shouts on channel 0.
    let mut b = ScheduleBuilder::new("collision_probe", 4, 2);
    b.begin_cycle();
    b.begin_cycle();
    for proc in 0..4 {
        b.write(proc, 0);
    }
    let report = verify(&b.finish(), &Bounds::none());
    print!("{report}");
    if report.is_ok() {
        eprintln!("static verifier MISSED the collision — that is the bug");
        std::process::exit(1);
    }
    assert!(report
        .violations
        .iter()
        .any(|v| v.kind() == "write_collision"));
    println!("verdict source: structural pass (schedule walk, no keys, no engine)\n");

    // Now let the engine hit the same wall at runtime.
    for backend in [Backend::Threaded, Backend::Vector] {
        let err = Network::new(4, 2)
            .backend(backend)
            .run(|ctx| {
                ctx.idle(); // cycle 0: all quiet
                ctx.write(ChanId(0), ctx.id().index() as u64); // cycle 1: everyone shouts
            })
            .unwrap_err();
        println!("{backend:?}: {err}");
    }
    println!("verdict source: concrete round-simulation (one run, one input)\n");

    // ---- Bug 2: a flipped comparator. ---------------------------------
    // Swap the ends of one comparator in a compiled Batcher network. The
    // broadcast pattern is untouched, so the structural pass sees a
    // perfectly valid schedule; only the all-inputs sortedness proof can
    // tell that min now lands on the *high* line.
    let spec = NetworkSpec {
        kind: NetworkKind::Batcher,
        p: 8,
        k: 2,
    };
    let mut net = spec.compile();
    let ex = &mut net.exchanges[5];
    std::mem::swap(&mut ex.lo, &mut ex.hi);
    std::mem::swap(&mut ex.lo_cycle, &mut ex.hi_cycle);
    std::mem::swap(&mut ex.lo_chan, &mut ex.hi_chan);

    let structural = verify(&net.schedule, &Bounds::none());
    println!(
        "{} with comparator 5 flipped: structural pass says {} — it cannot see this bug",
        structural.name,
        if structural.is_ok() { "OK" } else { "FAIL" }
    );
    assert!(structural.is_ok(), "flip must stay structurally valid");
    println!("verdict source: structural pass (collision/read checks only)\n");

    let symbolic = verify_network(&net, &Bounds::none());
    print!("{symbolic}");
    if symbolic.is_ok() {
        eprintln!("symbolic pass MISSED the flipped comparator — that is the bug");
        std::process::exit(1);
    }
    let witness = symbolic
        .net_violations
        .iter()
        .find_map(|v| match v {
            NetViolation::SortednessFailure { witness, .. } => Some(witness.clone()),
            _ => None,
        })
        .expect("flip must fail the sortedness proof");
    println!("verdict source: symbolic pass (0-1 principle, all 2^8 inputs, zero engine cycles)\n");

    // Run the engine on the symbolic counterexample: the concrete
    // round-simulation confirms what the symbolic pass already proved.
    // Witness format is "<bits> (lines a..b)", bit i = line i's input.
    let bits = witness.split_whitespace().next().unwrap();
    let input: Vec<u64> = bits.bytes().map(|b| u64::from(b == b'1')).collect();
    assert_eq!(input.len(), 8, "witness encodes one bit per line");
    let shared = Arc::new(net);
    let run_input = input.clone();
    let out = Network::new(8, 2)
        .run(move |ctx| network_sort_in(ctx, &shared, run_input[ctx.id().index()]))
        .unwrap()
        .into_results();
    if out.windows(2).all(|w| w[0] <= w[1]) {
        eprintln!("engine sorted the symbolic counterexample {bits} — that is the bug");
        std::process::exit(1);
    }
    println!("engine replay of witness {bits}: output {out:?} is unsorted, as proven");
    println!("verdict source: concrete round-simulation (this input only — the symbolic");
    println!("verdict above already covered all 255 others)");
}
