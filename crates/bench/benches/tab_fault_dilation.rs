//! E15 — cycle dilation under channel outages vs the §2 lemma's ⌈k/k'⌉.
//!
//! Networked Columnsort's emitted schedule on MCB(k, k), with `d` channels
//! dead from cycle `at`, remapped onto the survivors by the §2 simulation
//! lemma (`mcb_check::degrade`) and re-proved collision-free and within
//! the lemma bound. Two regimes:
//!
//! * deaths at cycle 0 (the whole run is degraded): the degraded schedule
//!   takes `⌈k/k'⌉ × L` cycles **exactly** — the lemma's dilation is not
//!   just a bound here, it is the schedule;
//! * deaths at mid-run: the dilation interpolates between 1× and ⌈k/k'⌉×
//!   and stays within the lemma bound `⌈k/k'⌉ × L`.

use mcb_algos::sort::columnsort_net_cycles;
use mcb_algos::static_schedule::{ColumnsortNetSpec, StaticSchedule};
use mcb_bench::Table;
use mcb_check::{verify_degraded, Bounds, Outages};

fn main() {
    println!("# E15 — fault dilation (channel outages vs the simulation lemma)\n");
    let mut t = Table::new(
        "tab_fault_dilation",
        "Degraded Columnsort schedule on MCB(k, k), d channels dead from cycle `at`",
        &[
            "k",
            "m",
            "dead",
            "k'",
            "at",
            "L (fault-free)",
            "phys cycles",
            "dilation",
            "ceil(k/k')",
            "bound",
        ],
    );
    for &(m, k) in &[(20usize, 5usize), (30, 6), (56, 8)] {
        let schedule = ColumnsortNetSpec {
            m,
            k_cols: k,
            dummies: false,
        }
        .emit();
        let fault_free = schedule.cycle_count();
        assert_eq!(fault_free, columnsort_net_cycles(m, k), "m={m} k={k}");
        for d in 0..k {
            for at in [0u64, fault_free / 2] {
                if d == 0 && at > 0 {
                    continue; // identical to the d = 0, at = 0 row
                }
                let outages = (0..d).fold(Outages::new(k), |o, c| o.kill(c, at));
                let out = verify_degraded(&schedule, &outages, &Bounds::none())
                    .expect("a channel survives");
                assert!(
                    out.is_ok(),
                    "k={k} d={d} at={at}:\n{}\n{}",
                    out.input,
                    out.report
                );
                let kp = k - d;
                let h = k.div_ceil(kp) as u64;
                assert_eq!(out.lemma_bound, h * fault_free, "k={k} d={d}");
                if at == 0 {
                    // Fully degraded: the lemma's dilation is exact.
                    assert_eq!(out.dilation, h * fault_free, "k={k} d={d}");
                }
                t.row(vec![
                    k.to_string(),
                    m.to_string(),
                    d.to_string(),
                    kp.to_string(),
                    at.to_string(),
                    fault_free.to_string(),
                    out.dilation.to_string(),
                    format!("{:.2}x", out.dilation as f64 / fault_free as f64),
                    format!("{h}x"),
                    out.lemma_bound.to_string(),
                ]);
            }
        }
    }
    t.emit();
    println!(
        "deaths at cycle 0 dilate by exactly ceil(k/k') (asserted); mid-run\n\
         deaths interpolate between 1x and ceil(k/k') and never exceed the\n\
         lemma bound ceil(k/k') x L. Every degraded schedule verifies:\n\
         collision-free, reads valid, data flow a permutation."
    );
}
