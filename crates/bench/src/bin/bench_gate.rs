//! Gate check for the committed benchmark acceptance artifacts.
//!
//! Parses `BENCH_obs.json`, `BENCH_networks.json`, and `BENCH_serve.json`
//! (by default the ones at the repository root; override with positional
//! args — e.g. freshly regenerated copies) and enforces their acceptance
//! gates.
//!
//! `BENCH_obs.json` (`crit_obs`) — three wall-clock ratio gates on the
//! vector backend, each comparing two configs differing in one dimension:
//!
//! - `phase labels` within **1.25×** of the uninstrumented baseline,
//! - `monitor-off` (attached, unpolled) within **1.05×** of `phased`,
//! - `monitor-on` (polled at 1 kHz) within **1.25×** of `phased`.
//!
//! `BENCH_networks.json` (`tab_networks`, E19) — the comparator networks
//! must own the Columnsort infeasibility gap: at every swept shape below
//! the `m >= k(k-1)` floor, Columnsort is infeasible and the compiled
//! network sorts in the *exact* packed cycle count pinned here (the
//! counts are schedule-derived, so any drift is a compiler regression,
//! not noise), with the per-`k` crossover where it was recorded.
//!
//! `BENCH_serve.json` (`tab_serve`, E20) — the service's graceful
//! degradation: per batch shape, the seeded chaos/healthy cycle ratio
//! stays within `2 × ⌈k/k′⌉` (the §2 lemma dilation for `k-1` channel
//! deaths times a fixed healing allowance), and the live chaos sweep
//! completes at least 99.0% of admitted jobs. Wall-clock jobs/sec is
//! recorded but never gated.
//!
//! The gate thresholds are re-asserted here rather than trusted from the
//! files, so a regressed bench cannot loosen its own gate. Exits non-zero
//! on any parse error, missing gate, threshold mismatch, or failed ratio.
//!
//! ```text
//! cargo run -p mcb-bench --bin bench_gate [-- BENCH_obs.json [BENCH_networks.json [BENCH_serve.json]]]
//! ```

use std::process::ExitCode;

use mcb_json::Json;

/// `(gate name, expected threshold in milli-units)`; the three gates of
/// the `crit_obs` matrix.
const EXPECTED: [(&str, u64); 3] = [
    ("vector phase labels", 1250),
    ("vector monitor-off", 1050),
    ("vector monitor-on", 1250),
];

/// `(gate name, exact packed cycle count)` for every Columnsort-gap shape
/// of the E19 sweep. Deterministic: the compiler emits the same schedule
/// every run, so equality, not a tolerance.
const EXPECTED_NET: [(&str, u64); 8] = [
    ("gap n=8 k=4", 10),
    ("gap n=16 k=4", 32),
    ("gap n=32 k=4", 96),
    ("gap n=16 k=8", 18),
    ("gap n=32 k=8", 50),
    ("gap n=64 k=8", 138),
    ("gap n=128 k=8", 370),
    ("gap n=256 k=8", 962),
];

/// `(k, smallest swept n where Columnsort beats the network on cycles)`.
const EXPECTED_CROSSOVER: [(u64, u64); 3] = [(2, 4), (4, 48), (8, 448)];

/// `(gate name, ratio ceiling in milli-units)` for the service bench's
/// chaos-dilation gates: the seeded chaos/healthy cycle ratio per batch
/// shape must stay within `2 * ⌈k/k′⌉ = 6×` (the §2 lemma's dilation for
/// `k = 3` with `k-1` deaths, times the fixed healing allowance).
const EXPECTED_SERVE: [(&str, u64); 3] = [
    ("dilation batch=4", 6000),
    ("dilation batch=8", 6000),
    ("dilation batch=16", 6000),
];

/// Minimum fraction (milli) of admitted jobs that must *complete* (not
/// just terminate) in the live chaos sweep.
const EXPECTED_SERVE_COMPLETION: u64 = 990;

fn load(path: &str) -> Option<Json> {
    let raw = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench_gate: cannot read {path}: {e}");
            return None;
        }
    };
    match Json::parse(raw.trim()) {
        Ok(v) => Some(v),
        Err(e) => {
            eprintln!("bench_gate: {path} is not valid (integer-only) JSON: {e}");
            None
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let obs_path = args
        .next()
        .unwrap_or_else(|| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json").to_owned());
    let net_path = args.next().unwrap_or_else(|| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_networks.json").to_owned()
    });
    let serve_path = args.next().unwrap_or_else(|| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json").to_owned()
    });
    let obs_ok = check_obs(&obs_path);
    let net_ok = check_networks(&net_path);
    let serve_ok = check_serve(&serve_path);
    if obs_ok && net_ok && serve_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn check_obs(path: &str) -> bool {
    let Some(doc) = load(path) else {
        return false;
    };
    let Some(acceptance) = doc.get("acceptance").and_then(Json::as_arr) else {
        eprintln!("bench_gate: {path} has no acceptance array");
        return false;
    };

    let mut failed = false;
    for (name, want_gate) in EXPECTED {
        let Some(entry) = acceptance
            .iter()
            .find(|e| e.get("gate").and_then(Json::as_str) == Some(name))
        else {
            eprintln!("bench_gate: missing gate entry {name:?}");
            failed = true;
            continue;
        };
        let gate = entry.get("gate_milli").and_then(Json::as_u64);
        let ratio = entry.get("ratio_milli").and_then(Json::as_u64);
        let (Some(gate), Some(ratio)) = (gate, ratio) else {
            eprintln!("bench_gate: gate {name:?} lacks integer ratio_milli/gate_milli");
            failed = true;
            continue;
        };
        if gate != want_gate {
            eprintln!(
                "bench_gate: gate {name:?} threshold drifted: recorded {gate}, expected {want_gate}"
            );
            failed = true;
            continue;
        }
        let ok = ratio <= gate;
        println!(
            "bench_gate: {name}: {}.{:03}x vs {}.{:03}x -> {}",
            ratio / 1000,
            ratio % 1000,
            gate / 1000,
            gate % 1000,
            if ok { "pass" } else { "FAIL" }
        );
        failed |= !ok;
    }
    if doc.get("pass") != Some(&Json::Bool(true)) {
        eprintln!("bench_gate: artifact's own pass flag is not true");
        failed = true;
    }
    if !failed {
        println!("bench_gate: all observability gates hold ({path})");
    }
    !failed
}

fn check_networks(path: &str) -> bool {
    let Some(doc) = load(path) else {
        return false;
    };
    let Some(acceptance) = doc.get("acceptance").and_then(Json::as_arr) else {
        eprintln!("bench_gate: {path} has no acceptance array");
        return false;
    };

    let mut failed = false;
    for (name, want_cycles) in EXPECTED_NET {
        let Some(entry) = acceptance
            .iter()
            .find(|e| e.get("gate").and_then(Json::as_str) == Some(name))
        else {
            eprintln!("bench_gate: missing network gate entry {name:?}");
            failed = true;
            continue;
        };
        let cycles = entry.get("net_cycles").and_then(Json::as_u64);
        let ok = cycles == Some(want_cycles) && entry.get("pass") == Some(&Json::Bool(true));
        println!(
            "bench_gate: {name}: {} packed cycles (expected exactly {want_cycles}) -> {}",
            cycles.map_or("?".into(), |c| c.to_string()),
            if ok { "pass" } else { "FAIL" }
        );
        failed |= !ok;
    }
    let crossovers = doc.get("crossover").and_then(Json::as_arr);
    for (k, want_n) in EXPECTED_CROSSOVER {
        let at = crossovers.and_then(|arr| {
            arr.iter()
                .find(|e| e.get("k").and_then(Json::as_u64) == Some(k))
                .and_then(|e| e.get("columnsort_wins_from_n").and_then(Json::as_u64))
        });
        let ok = at == Some(want_n);
        println!(
            "bench_gate: crossover k={k}: columnsort wins from n={} (expected {want_n}) -> {}",
            at.map_or("?".into(), |n| n.to_string()),
            if ok { "pass" } else { "FAIL" }
        );
        failed |= !ok;
    }
    if doc.get("pass") != Some(&Json::Bool(true)) {
        eprintln!("bench_gate: networks artifact's own pass flag is not true");
        failed = true;
    }
    if !failed {
        println!("bench_gate: all network crossover gates hold ({path})");
    }
    !failed
}

fn check_serve(path: &str) -> bool {
    let Some(doc) = load(path) else {
        return false;
    };
    let Some(acceptance) = doc.get("acceptance").and_then(Json::as_arr) else {
        eprintln!("bench_gate: {path} has no acceptance array");
        return false;
    };

    let mut failed = false;
    for (name, want_gate) in EXPECTED_SERVE {
        let Some(entry) = acceptance
            .iter()
            .find(|e| e.get("gate").and_then(Json::as_str) == Some(name))
        else {
            eprintln!("bench_gate: missing serve gate entry {name:?}");
            failed = true;
            continue;
        };
        let gate = entry.get("gate_milli").and_then(Json::as_u64);
        let ratio = entry.get("ratio_milli").and_then(Json::as_u64);
        let (Some(gate), Some(ratio)) = (gate, ratio) else {
            eprintln!("bench_gate: serve gate {name:?} lacks ratio_milli/gate_milli");
            failed = true;
            continue;
        };
        if gate != want_gate {
            eprintln!(
                "bench_gate: serve gate {name:?} threshold drifted: recorded {gate}, expected {want_gate}"
            );
            failed = true;
            continue;
        }
        let ok = ratio <= gate;
        println!(
            "bench_gate: {name}: chaos/healthy {}.{:03}x vs {}.{:03}x ceiling -> {}",
            ratio / 1000,
            ratio % 1000,
            gate / 1000,
            gate % 1000,
            if ok { "pass" } else { "FAIL" }
        );
        failed |= !ok;
    }
    // Degraded-mode completion floor: chaos slows the service, it may
    // not make it drop admitted work.
    let completion = acceptance
        .iter()
        .find(|e| e.get("gate").and_then(Json::as_str) == Some("chaos completion"));
    match completion {
        Some(entry) => {
            let floor = entry.get("floor_milli").and_then(Json::as_u64);
            let got = entry.get("completion_milli").and_then(Json::as_u64);
            let (Some(floor), Some(got)) = (floor, got) else {
                eprintln!("bench_gate: chaos completion gate lacks completion_milli/floor_milli");
                return false;
            };
            if floor != EXPECTED_SERVE_COMPLETION {
                eprintln!(
                    "bench_gate: completion floor drifted: recorded {floor}, expected {EXPECTED_SERVE_COMPLETION}"
                );
                failed = true;
            }
            let ok = got >= floor;
            println!(
                "bench_gate: chaos completion: {}.{:01}% vs {}.{:01}% floor -> {}",
                got / 10,
                got % 10,
                floor / 10,
                floor % 10,
                if ok { "pass" } else { "FAIL" }
            );
            failed |= !ok;
        }
        None => {
            eprintln!("bench_gate: missing chaos completion gate");
            failed = true;
        }
    }
    if doc.get("pass") != Some(&Json::Bool(true)) {
        eprintln!("bench_gate: serve artifact's own pass flag is not true");
        failed = true;
    }
    if !failed {
        println!("bench_gate: all service chaos gates hold ({path})");
    }
    !failed
}
