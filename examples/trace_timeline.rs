//! Cycle-timeline inspector: run the paper's Columnsort and selection
//! algorithms with phase tracing on, render an ASCII cycle × channel
//! timeline for each (phase spans above a per-channel heat map), and prove
//! the structured export is byte-identical across execution backends by
//! diffing the JSONL of a threaded and a vector run.
//!
//! Exits non-zero if the two backends' exports ever differ.
//!
//! ```text
//! cargo run --release --example trace_timeline
//! ```

use mcb::algos::msg::Word;
use mcb::algos::select::{select_rank_in, MedEntry, PhaseStats};
use mcb::algos::sort::{columnsort_net_in, ColumnRole};
use mcb::net::{render_timeline, Backend, Network, RunReport};
use mcb::workloads::{distinct_keys, rng};

const WIDTH: usize = 72;

fn columnsort_run(backend: Backend) -> RunReport<Option<Vec<Option<u64>>>, Word<u64>> {
    // 8 column owners sort a 64 x 8 grid; 56 more processors idle along.
    let (p, k, m) = (64usize, 8usize, 64usize);
    let vals = distinct_keys(m * k, &mut rng(41));
    Network::new(p, k)
        .backend(backend)
        .record_trace(true)
        .run(move |ctx| {
            let me = ctx.id().index();
            let role = (me < k).then(|| ColumnRole {
                col: me,
                data: vals[me * m..(me + 1) * m]
                    .iter()
                    .map(|&v| Some(v))
                    .collect(),
            });
            columnsort_net_in(ctx, role, m, k, &|v| Word::Key(v), &|w: Word<u64>| {
                w.expect_key()
            })
            .unwrap()
        })
        .expect("collision-free by construction")
}

fn selection_run(backend: Backend) -> RunReport<(u64, Vec<PhaseStats>), Word<MedEntry<u64>>> {
    let (p, k, n) = (16usize, 4usize, 512usize);
    let per = n / p;
    let keys = distinct_keys(n, &mut rng(42));
    let lists: Vec<Vec<u64>> = keys.chunks(per).map(<[u64]>::to_vec).collect();
    let d = (n / 2) as u64;
    Network::new(p, k)
        .backend(backend)
        .record_trace(true)
        .run(move |ctx| {
            let mine = lists[ctx.id().index()].clone();
            select_rank_in(ctx, mine, d)
        })
        .expect("collision-free by construction")
}

/// Render one algorithm's timeline and check backend equivalence of the
/// export. Returns `false` on a mismatch.
fn show<R, M>(name: &str, threaded: &RunReport<R, M>, vector: &RunReport<R, M>) -> bool
where
    M: std::fmt::Debug,
{
    println!("== {name} ==");
    let trace = threaded.trace.as_ref().expect("trace recorded");
    print!("{}", render_timeline(&threaded.metrics, trace, WIDTH));
    println!("phases:");
    for ph in &threaded.metrics.phases {
        println!(
            "  {:<20} cycles {:>5}  messages {:>6}  [{}..{}]",
            ph.name, ph.cycles, ph.messages, ph.first_cycle, ph.last_cycle
        );
    }
    let (a, b) = (threaded.to_jsonl(), vector.to_jsonl());
    let ok = a == b;
    println!(
        "jsonl: {} lines, threaded == vector: {}\n",
        a.lines().count(),
        if ok { "yes" } else { "NO — MISMATCH" }
    );
    ok
}

fn main() {
    let mut ok = true;
    ok &= show(
        "Columnsort (p=64, k=8, 512 keys)",
        &columnsort_run(Backend::Threaded),
        &columnsort_run(Backend::Vector),
    );
    ok &= show(
        "Selection of the median (p=16, k=4, n=512)",
        &selection_run(Backend::Threaded),
        &selection_run(Backend::Vector),
    );
    if !ok {
        eprintln!("backend exports differ — determinism broken");
        std::process::exit(1);
    }
}
