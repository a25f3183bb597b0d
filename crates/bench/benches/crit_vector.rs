//! E17 — the vector (struct-of-arrays) backend at large `p`.
//!
//! Three measurements, all on the vector backend's single driver thread:
//!
//! 1. **Dispatch sweep** (`p = 2^10 .. 2^20`): a fixed-work step protocol
//!    where every processor is active every cycle (one writer, everyone
//!    reads), sized so each run advances ~2^22 unit-cycles regardless of
//!    `p`. This isolates the columnar sweep's per-unit-cycle *dispatch*
//!    cost and how it grows with `p` (cache footprint, not work).
//! 2. **Networked Columnsort at `p = 10^5`** ([`columnsort_steps`]):
//!    32 column owners sort a 1024 x 32 padded matrix while 99,968
//!    processors idle via [`Step::IdleFor`] — the workload the vector
//!    backend exists for. Feasible because idlers cost O(1) per
//!    transformation phase instead of O(cycles).
//! 3. **Rank sort** (2p cycles, all-active) at the largest `p` that
//!    finishes in seconds on this host — an honest Theta(p^2) unit-cycle
//!    row, not extrapolated.
//!
//! Cost-model context for the sweep shape: like coarse-grained multicomputer
//! analyses (cf. Saukas & Song's CGM selection, arXiv:1712.00870), the
//! interesting regime is p processors >> cores, where per-processor
//! scheduling overhead — not communication — dominates the simulation.
//!
//! Emits `target/experiments/crit_vector.csv` and refreshes the checked-in
//! `BENCH_vector.json` at the repository root.
//! Set `MCB_BENCH_QUICK=1` for a reduced sweep that skips the JSON.

use std::time::Duration;

use mcb_algos::columnsort_steps;
use mcb_bench::timing::{fmt_duration, measure, Stats};
use mcb_bench::Table;
use mcb_net::{Backend, ChanId, FrameRead, Network, ProcId, Step, StepEnv, StepProtocol};

/// Every processor active every cycle: processor `now % p` broadcasts,
/// everyone reads the channel. Fixed cycle count, so wall-clock divided by
/// `p * cycles` is the per-unit-cycle dispatch cost.
struct DispatchSweep {
    cycles: u64,
    sum: u64,
}

impl StepProtocol<u64> for DispatchSweep {
    type Output = u64;

    fn step(&mut self, env: &StepEnv, input: FrameRead<u64>) -> Step<u64, u64> {
        let input = input.clean();
        if let Some(v) = input {
            self.sum = self.sum.wrapping_add(v);
        }
        if env.now >= self.cycles {
            return Step::Done(self.sum);
        }
        let writer = (env.now % env.p as u64) as usize;
        let write = (writer == env.id.index()).then_some((ChanId(0), env.now));
        Step::Yield {
            write,
            read: Some(ChanId(0)),
        }
    }
}

/// Unit-cycles per run: every processor steps once per cycle.
fn sweep_units(p: usize, cycles: u64) -> u64 {
    p as u64 * cycles
}

fn sweep_once(p: usize, cycles: u64, backend: Backend) -> u64 {
    let report = Network::new(p, 1)
        .backend(backend)
        .cycle_budget(cycles + 8)
        .run_steps(|_: ProcId| DispatchSweep { cycles, sum: 0 })
        .unwrap();
    assert_eq!(report.metrics.cycles, cycles);
    report.metrics.messages
}

/// Rank sort from `crit_net`, reused for the honest large-`p` row.
struct RankSort {
    key: u64,
    turn: usize,
    rank: usize,
    out: u64,
}

impl StepProtocol<u64> for RankSort {
    type Output = u64;

    fn step(&mut self, env: &StepEnv, input: FrameRead<u64>) -> Step<u64, u64> {
        let input = input.clean();
        let p = env.p;
        if let Some(seen) = input {
            let prev = self.turn - 1;
            if prev < p {
                if seen < self.key {
                    self.rank += 1;
                }
            } else if prev - p == env.id.index() {
                self.out = seen;
            }
        }
        if self.turn == 2 * p {
            return Step::Done(self.out);
        }
        let t = self.turn;
        self.turn += 1;
        let my_slot = if t < p { env.id.index() } else { p + self.rank };
        let write = (t == my_slot).then_some((ChanId(0), self.key));
        Step::Yield {
            write,
            read: Some(ChanId(0)),
        }
    }
}

fn rank_sort_once(p: usize, backend: Backend) -> u64 {
    let report = Network::new(p, 1)
        .backend(backend)
        .run_steps(|id: ProcId| RankSort {
            key: (id.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            turn: 0,
            rank: 0,
            out: 0,
        })
        .unwrap();
    let sorted = report.into_results();
    assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "rank sort output not sorted"
    );
    2 * p as u64
}

/// Distinct keys with periodic dummies for the Columnsort row.
fn padded_cols(m: usize, k_cols: usize) -> Vec<Vec<Option<u64>>> {
    (0..k_cols)
        .map(|c| {
            (0..m)
                .map(|r| {
                    ((c + r) % 17 != 0)
                        .then(|| ((c * m + r) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                })
                .collect()
        })
        .collect()
}

fn columnsort_once(p: usize, m: usize, k_cols: usize, backend: Backend) -> u64 {
    let cols = padded_cols(m, k_cols);
    let report = columnsort_steps(p, m, k_cols, cols, backend).unwrap();
    let cycles = report.metrics.cycles;
    let lin: Vec<Option<u64>> = report
        .into_results()
        .into_iter()
        .flatten()
        .flatten()
        .collect();
    let reals: Vec<u64> = lin.iter().copied().flatten().collect();
    assert!(
        reals.windows(2).all(|w| w[0] >= w[1]),
        "columnsort output not descending"
    );
    cycles
}

struct SweepRow {
    p: usize,
    cycles: u64,
    vector: Stats,
}

impl SweepRow {
    /// Unit-cycles per second at the median.
    fn throughput(&self) -> f64 {
        sweep_units(self.p, self.cycles) as f64 / self.vector.median.as_secs_f64()
    }
}

fn main() {
    let quick = std::env::var_os("MCB_BENCH_QUICK").is_some();
    // p sweep 2^10 .. 2^20; per-run work held at ~2^22 unit-cycles.
    let ps: &[usize] = if quick {
        &[1 << 10, 1 << 14]
    } else {
        &[1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20]
    };
    const WORK: u64 = 1 << 22;

    let mut table = Table::new(
        "crit_vector",
        "E17: vector dispatch cost, all-active protocol (~2^22 unit-cycles/run)",
        &["p", "cycles", "median", "Munits/s"],
    );
    let mut sweep = Vec::new();
    for &p in ps {
        let cycles = (WORK / p as u64).max(8);
        let samples = if p >= 1 << 16 { 2 } else { 3 };
        let vector = measure(samples, || sweep_once(p, cycles, Backend::Vector));
        let row = SweepRow { p, cycles, vector };
        table.row(vec![
            p.to_string(),
            cycles.to_string(),
            fmt_duration(row.vector.median),
            format!("{:.1}", row.throughput() / 1e6),
        ]);
        sweep.push(row);
    }
    table.emit();

    // Headline workloads.
    let (cs_p, cs_m, cs_k) = (100_000, 1024, 32);
    let cs_cycles = columnsort_once(cs_p, cs_m, cs_k, Backend::Vector);
    let cs_vector = measure(3, || columnsort_once(cs_p, cs_m, cs_k, Backend::Vector));
    println!(
        "columnsort p={cs_p} (m={cs_m}, k_cols={cs_k}, {cs_cycles} net cycles): \
         vector median {}\n",
        fmt_duration(cs_vector.median)
    );

    let rs_p = if quick { 1 << 10 } else { 1 << 12 };
    let rs_vector = measure(3, || rank_sort_once(rs_p, Backend::Vector));
    println!(
        "rank sort p={rs_p} (2p cycles, all active): vector median {}\n",
        fmt_duration(rs_vector.median)
    );

    if !quick {
        write_bench_json(&sweep, cs_cycles, &cs_vector, rs_p, &rs_vector);
    }
}

/// Refresh the checked-in `BENCH_vector.json` artifact.
fn write_bench_json(
    sweep: &[SweepRow],
    cs_cycles: u64,
    cs_vector: &Stats,
    rs_p: usize,
    rs_vector: &Stats,
) {
    let secs = |d: Duration| format!("{:.6}", d.as_secs_f64());
    let epoch = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut rows = String::new();
    for (i, r) in sweep.iter().enumerate() {
        if i > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            concat!(
                "    {{\"p\": {}, \"cycles\": {}, \"unit_cycles\": {}, ",
                "\"vector_median_s\": {}, \"vector_units_per_s\": {:.0}}}"
            ),
            r.p,
            r.cycles,
            sweep_units(r.p, r.cycles),
            secs(r.vector.median),
            r.throughput(),
        ));
    }
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"crit_vector (E17)\",\n",
            "  \"command\": \"cargo bench -p mcb-bench --bench crit_vector\",\n",
            "  \"protocol\": \"all-active dispatch sweep (StepProtocol, ~2^22 unit-cycles/run); networked Columnsort via Step::IdleFor; single-channel rank sort\",\n",
            "  \"unix_time\": {epoch},\n",
            "  \"host_cores\": {cores},\n",
            "  \"dispatch_sweep\": [\n{rows}\n  ],\n",
            "  \"columnsort\": {{\"p\": 100000, \"m\": 1024, \"k_cols\": 32, ",
            "\"net_cycles\": {cs_cycles}, \"vector_median_s\": {cs_s}, \"samples\": {cs_n}}},\n",
            "  \"rank_sort\": {{\"p\": {rs_p}, \"cycles\": {rs_cycles}, ",
            "\"vector_median_s\": {rs_s}, \"samples\": {rs_n}}}\n",
            "}}\n"
        ),
        epoch = epoch,
        cores = cores,
        rows = rows,
        cs_cycles = cs_cycles,
        cs_s = secs(cs_vector.median),
        cs_n = cs_vector.samples,
        rs_p = rs_p,
        rs_cycles = 2 * rs_p,
        rs_s = secs(rs_vector.median),
        rs_n = rs_vector.samples,
    );
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("BENCH_vector.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("[json written to {}]", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
