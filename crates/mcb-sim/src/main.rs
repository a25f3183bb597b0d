//! `mcb-sim` — deterministic fault-space explorer CLI.
//!
//! ```text
//! mcb-sim exhaustive [--p N] [--k N] [--pairs] [--out FILE]
//! mcb-sim explore    [--p N] [--k N] [--plans N] [--millis N] [--seed N] [--out FILE]
//! mcb-sim crash-points [--seed N]
//! mcb-sim replay FILE          (also: mcb-sim --replay FILE)
//! ```
//!
//! * `exhaustive` — every 1-fault (`--pairs`: and every canonical
//!   2-fault) plan for the shape, swept through the self-healing select
//!   target. Failures print as repro JSONL; exit 1 when any plan ends
//!   `Wrong`.
//! * `explore` — coverage-guided random exploration for larger shapes;
//!   prints one coverage-stats JSON line, shrinks any contract
//!   violation, and writes repro JSONL to `--out` (default stdout).
//! * `crash-points` — run the mcb-serve scenario over simulated storage
//!   and sweep every byte prefix + append boundary (see `crashpoints`).
//! * `replay` — re-run every repro line in FILE; exit 1 if any no
//!   longer reproduces (or reproduces when marked healthy).

use mcb_net::ChaosOpts;
use mcb_sim::{
    crash_point_sweep, explore, scenario_journal, shrink, single_fault_plans, sweep,
    two_fault_plans, EnumOpts, ExploreOpts, Repro, SimTarget,
};
use std::io::Write;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: mcb-sim exhaustive [--p N] [--k N] [--pairs] [--out FILE]\n\
         \u{20}      mcb-sim explore [--p N] [--k N] [--plans N] [--millis N] [--seed N] [--out FILE]\n\
         \u{20}      mcb-sim crash-points [--seed N]\n\
         \u{20}      mcb-sim replay FILE"
    );
    ExitCode::from(2)
}

struct Args {
    p: usize,
    k: usize,
    pairs: bool,
    plans: usize,
    millis: u64,
    seed: u64,
    out: Option<String>,
    file: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            p: 4,
            k: 2,
            pairs: false,
            plans: 64,
            millis: 0,
            seed: 0x0005_eed5,
            out: None,
            file: None,
        }
    }
}

fn parse(rest: &[String]) -> Option<Args> {
    let mut args = Args::default();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut num = |target: &mut u64| -> Option<()> {
            *target = it.next()?.parse().ok()?;
            Some(())
        };
        match flag.as_str() {
            "--p" => {
                let mut v = 0;
                num(&mut v)?;
                args.p = v as usize;
            }
            "--k" => {
                let mut v = 0;
                num(&mut v)?;
                args.k = v as usize;
            }
            "--plans" => {
                let mut v = 0;
                num(&mut v)?;
                args.plans = v as usize;
            }
            "--millis" => num(&mut args.millis)?,
            "--seed" => num(&mut args.seed)?,
            "--pairs" => args.pairs = true,
            "--out" => args.out = Some(it.next()?.clone()),
            other if !other.starts_with("--") && args.file.is_none() => {
                args.file = Some(other.to_string());
            }
            _ => return None,
        }
    }
    Some(args)
}

/// The standard sweep target for a `(p, k)` shape: filtering selection
/// with a few keys per list and the median-ish rank.
fn select_target(p: usize, k: usize) -> SimTarget {
    let n_per = 3;
    SimTarget::Select {
        p,
        k,
        n_per,
        d: (p * n_per).div_ceil(2),
    }
}

fn emit_repros(out: Option<&str>, repros: &[Repro]) -> Result<(), String> {
    let lines: String = repros.iter().map(|r| r.to_jsonl() + "\n").collect();
    match out {
        Some(path) => std::fs::write(path, lines).map_err(|e| format!("{path}: {e}")),
        None => {
            print!("{lines}");
            Ok(())
        }
    }
}

fn run_exhaustive(args: &Args) -> Result<ExitCode, String> {
    let target = select_target(args.p, args.k);
    let l = target.fault_free_cycles();
    let opts = EnumOpts::covered(l, l);
    let mut plans = single_fault_plans(args.p, args.k, &opts);
    if args.pairs {
        plans.extend(two_fault_plans(args.p, args.k, &opts));
    }
    let total = plans.len();
    println!("# exhaustive: target={target} horizon={l} plans={total}");
    let outcome = sweep(&target, plans);
    println!(
        "# passed={} typed_errors={} overruns={} wrong={}",
        outcome.passed,
        outcome.typed_errors.len(),
        outcome.overruns.len(),
        outcome.wrong.len()
    );
    let repros: Vec<Repro> = outcome
        .wrong
        .iter()
        .chain(&outcome.overruns)
        .map(|(plan, reason)| Repro {
            target,
            plan: plan.clone(),
            reason: reason.clone(),
        })
        .collect();
    emit_repros(args.out.as_deref(), &repros)?;
    for (plan, e) in &outcome.typed_errors {
        eprintln!(
            "typed error (out-of-contract plan): {e}: {}",
            plan.to_jsonl()
        );
    }
    Ok(if repros.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_explore(args: &Args) -> Result<ExitCode, String> {
    let target = select_target(args.p, args.k);
    let l = target.fault_free_cycles();
    let horizon = l * 2;
    let opts = ExploreOpts {
        plans: args.plans,
        chaos: ChaosOpts::unplanned(horizon),
        seed: args.seed,
        max_millis: args.millis,
        ..ExploreOpts::default()
    };
    let outcome = explore(&target, &opts);
    println!(
        "{}",
        mcb_json::Json::obj()
            .field("record", mcb_json::Json::Str("mcb_sim_coverage".into()))
            .field("target", target.to_json())
            .field("runs", mcb_json::Json::U64(outcome.runs as u64))
            .field("cells", mcb_json::Json::U64(outcome.coverage.len() as u64))
            .field(
                "typed_errors",
                mcb_json::Json::U64(outcome.typed_errors.len() as u64)
            )
            .field(
                "overruns",
                mcb_json::Json::U64(outcome.overruns.len() as u64)
            )
            .field("wrong", mcb_json::Json::U64(outcome.wrong.len() as u64))
            .field("coverage", outcome.coverage.to_json())
            .render()
    );
    let mut repros = Vec::new();
    for (plan, reason) in outcome.wrong.iter().chain(&outcome.overruns) {
        let shrunk = shrink(&target, plan, |v| v.clone().held_to(l).is_violation());
        eprintln!(
            "# wrong plan shrunk {} -> {} events in {} runs",
            shrunk.original_events, shrunk.events, shrunk.runs
        );
        repros.push(Repro {
            target,
            plan: shrunk.plan,
            reason: reason.clone(),
        });
    }
    emit_repros(args.out.as_deref(), &repros)?;
    Ok(if repros.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_crash_points(args: &Args) -> Result<ExitCode, String> {
    let (bytes, boundaries) = scenario_journal(args.seed)?;
    println!(
        "# crash-points: journal={} bytes, {} append boundaries",
        bytes.len(),
        boundaries.len()
    );
    let report = crash_point_sweep(
        &bytes,
        &boundaries,
        &mcb_sim::crashpoints::recovery_config(),
    )?;
    println!(
        "# prefix_scans={} recoveries={} replayed_total={}",
        report.prefix_scans, report.recoveries, report.replayed_total
    );
    println!("crash-point sweep clean");
    Ok(ExitCode::SUCCESS)
}

fn run_replay(file: &str) -> Result<ExitCode, String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let mut failures = 0usize;
    let mut total = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        total += 1;
        let repro = Repro::from_jsonl(line).map_err(|e| format!("{file}:{}: {e}", i + 1))?;
        let (reproduced, verdict) = repro.replay();
        let status = if reproduced { "REPRODUCED" } else { "GONE" };
        println!(
            "{status} {} plan={} recorded=\"{}\"",
            repro.target,
            repro.plan.to_jsonl(),
            repro.reason
        );
        if !reproduced {
            eprintln!("  fresh verdict: {verdict:?}");
            failures += 1;
        }
        let _ = std::io::stdout().flush();
    }
    println!("# replayed {total} repro(s), {failures} no longer reproduce");
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        return usage();
    };
    let result = match cmd.as_str() {
        "exhaustive" | "explore" | "crash-points" => match parse(&argv[1..]) {
            Some(args) => match cmd.as_str() {
                "exhaustive" => run_exhaustive(&args),
                "explore" => run_explore(&args),
                _ => run_crash_points(&args),
            },
            None => return usage(),
        },
        "replay" | "--replay" => match argv.get(1) {
            Some(file) => run_replay(file),
            None => return usage(),
        },
        _ => return usage(),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("mcb-sim: {e}");
            ExitCode::FAILURE
        }
    }
}
