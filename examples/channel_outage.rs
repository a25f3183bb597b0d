//! Channel outage drill: a channel death *and* a processor crash that
//! nobody is told about. The self-healing driver detects both from the
//! wire, reconfigures (watch the epoch marker row in the timeline), a
//! survivor adopts the crashed column, and the output is still complete —
//! on both closure execution backends, identically.
//!
//! Exits non-zero if the drill fails, overruns its bound, or produces a
//! wrong result.
//!
//! ```text
//! cargo run --release --example channel_outage
//! ```

use mcb::algos::heal::SelfHealing;
use mcb::net::{render_timeline_with_epochs, Backend, ChanId, FaultPlan, ProcId};
use mcb::workloads::{distinct_keys, rng};

const WIDTH: usize = 72;

fn main() {
    // A small shape keeps the all-read timeline readable. Channel 2 dies
    // mid-run and processor 1 crashes later; the self-healing driver has no
    // oracle — both faults must be detected from the wire.
    let (m, k) = (12usize, 4usize);
    let vals = distinct_keys(m * k, &mut rng(5891));
    let cols: Vec<Vec<Option<u64>>> = (0..k)
        .map(|c| vals[c * m..(c + 1) * m].iter().map(|&v| Some(v)).collect())
        .collect();
    let plan = FaultPlan::new(k, k)
        .kill_channel(ChanId(2), 25)
        .crash_proc(ProcId(1), 60);

    println!("== channel outage drill: self-healing on MCB({k}, {k}) ==");
    println!("plan: channel 2 dies at cycle 25, processor 1 crashes at cycle 60 — no oracle");
    println!();

    let mut healed = Vec::new();
    for backend in [Backend::Threaded, Backend::Vector] {
        let out = SelfHealing::new(plan.clone())
            .backend(backend)
            .record_trace(true)
            .sort_columns(m, cols.clone())
            .unwrap_or_else(|e| {
                eprintln!("self-healing run failed on {backend:?}: {e}");
                std::process::exit(1);
            });
        healed.push(out);
    }
    let (threaded, vector) = (&healed[0], &healed[1]);
    if threaded.columns != vector.columns
        || threaded.metrics != vector.metrics
        || threaded.epochs != vector.epochs
    {
        eprintln!("FAIL: threaded and vector healed runs diverge");
        std::process::exit(1);
    }

    print!(
        "{}",
        render_timeline_with_epochs(
            &threaded.metrics,
            threaded.trace.as_ref().unwrap(),
            WIDTH,
            &threaded.epochs,
        )
    );
    println!();
    for e in &threaded.epochs {
        println!(
            "epoch {} committed at cycle {} ({}): {} live channels, {} live processors",
            e.epoch,
            e.cycle,
            e.cause.as_str(),
            e.live_chans.len(),
            e.live_procs.len()
        );
    }
    println!(
        "cycles: {} physical vs {} fault-free, healing bound {}",
        threaded.metrics.cycles, threaded.fault_free_cycles, threaded.cycle_bound
    );
    if threaded.metrics.cycles > threaded.cycle_bound {
        eprintln!("FAIL: healed run exceeds its cycle bound");
        std::process::exit(1);
    }

    // Complete and correct output despite the crash: the survivors took
    // over processor 1's column.
    let got: Vec<Option<u64>> = threaded.columns.iter().flatten().copied().collect();
    if got.iter().any(Option::is_none) {
        eprintln!("FAIL: holes in the healed output — takeover failed");
        std::process::exit(1);
    }
    let healed_lin: Vec<u64> = got.into_iter().flatten().collect();
    let mut want = vals;
    want.sort_unstable_by(|a, b| b.cmp(a));
    if healed_lin != want {
        eprintln!("FAIL: healed output differs from the fault-free sort");
        std::process::exit(1);
    }
    println!(
        "OK: self-healed output is complete and sorted on both backends, \
         {} reconfigurations",
        threaded.epochs.len()
    );
}
