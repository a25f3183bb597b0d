//! The `mcb-serve` binary: a socket front for the batched, self-healing
//! job service (see the library docs in `lib.rs`).
//!
//! ```text
//! mcb-serve [--listen ADDR] [--journal PATH] [--k N] [--queue-depth N]
//!           [--batch-max N] [--max-attempts N] [--backend NAME]
//!           [--chaos-seed S] [--chaos-deaths N] [--chaos-crashes N]
//!           [--chaos-drops N] [--chaos-bursts N] [--test-delay-ms N]
//!           [--fsync] [--self-test] [--recover-only]
//! ```
//!
//! Prints `LISTENING <addr>` once the socket is bound (the smoke tests
//! and the restart test scrape this line). `--self-test` runs an
//! in-process smoke batch (no socket) and exits 0/1; `--recover-only`
//! replays the journal's open jobs to terminal outcomes and exits.

use mcb_net::{Backend, ChaosOpts};
use mcb_serve::job::{JobSpec, Outcome};
use mcb_serve::{serve_tcp, ChaosPlanCfg, ServeConfig, Service, Submit};
use std::io::Write;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    listen: String,
    journal: Option<PathBuf>,
    cfg: ServeConfig,
    self_test: bool,
    recover_only: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: mcb-serve [--listen ADDR] [--journal PATH] [--k N] [--queue-depth N] \
         [--batch-max N] [--max-attempts N] [--backend auto|threaded|vector] \
         [--chaos-seed S] [--chaos-horizon N] [--chaos-deaths N] [--chaos-crashes N] \
         [--chaos-drops N] [--chaos-bursts N] [--test-delay-ms N] [--fsync] [--self-test] \
         [--recover-only]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        listen: "127.0.0.1:0".into(),
        journal: None,
        cfg: ServeConfig::default(),
        self_test: false,
        recover_only: false,
    };
    let mut chaos_seed: Option<u64> = None;
    // Horizon defaults small so faults land *inside* short batch runs
    // (a death scheduled past the last cycle is a no-op).
    let mut chaos_opts = ChaosOpts {
        horizon: 200,
        deaths: 0,
        drops: 2,
        corrupts: 1,
        stalls: 0,
        max_stall: 0,
        crashes: 0,
        bursts: 0,
        burst_len: 0,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--listen" => args.listen = value(&mut i),
            "--journal" => args.journal = Some(PathBuf::from(value(&mut i))),
            "--k" => args.cfg.k = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--queue-depth" => {
                args.cfg.queue_depth = value(&mut i).parse().unwrap_or_else(|_| usage());
            }
            "--batch-max" => {
                args.cfg.batch_max = value(&mut i).parse().unwrap_or_else(|_| usage());
            }
            "--max-attempts" => {
                args.cfg.max_attempts = value(&mut i).parse().unwrap_or_else(|_| usage());
            }
            "--backend" => {
                args.cfg.backend = match value(&mut i).as_str() {
                    "threaded" => Backend::Threaded,
                    "vector" => Backend::Vector,
                    "auto" => Backend::Auto,
                    _ => usage(),
                };
            }
            "--chaos-seed" => chaos_seed = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            "--chaos-horizon" => {
                chaos_opts.horizon = value(&mut i).parse().unwrap_or_else(|_| usage());
            }
            "--chaos-deaths" => {
                chaos_opts.deaths = value(&mut i).parse().unwrap_or_else(|_| usage());
            }
            "--chaos-crashes" => {
                chaos_opts.crashes = value(&mut i).parse().unwrap_or_else(|_| usage());
            }
            "--chaos-drops" => {
                chaos_opts.drops = value(&mut i).parse().unwrap_or_else(|_| usage());
            }
            "--chaos-bursts" => {
                chaos_opts.bursts = value(&mut i).parse().unwrap_or_else(|_| usage());
                chaos_opts.burst_len = 4;
            }
            "--test-delay-ms" => {
                args.cfg.test_delay_ms = value(&mut i).parse().unwrap_or_else(|_| usage());
            }
            "--fsync" => args.cfg.fsync_on_append = true,
            "--self-test" => args.self_test = true,
            "--recover-only" => args.recover_only = true,
            _ => usage(),
        }
        i += 1;
    }
    if let Some(seed) = chaos_seed {
        args.cfg.chaos = Some(ChaosPlanCfg {
            seed,
            opts: chaos_opts,
        });
    }
    args
}

/// In-process smoke: a mixed burst of jobs must all terminate correctly.
fn self_test(cfg: ServeConfig, journal: Option<PathBuf>) -> ExitCode {
    let service = match Service::start(cfg, journal.as_deref()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("SELF-TEST start failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut receivers = Vec::new();
    for i in 0..20u64 {
        let keys: Vec<u64> = (0..8).map(|j| (i * 31 + j) * 2654435761 % 997).collect();
        let spec = if i % 2 == 0 {
            JobSpec::Sort { keys }
        } else {
            let rank = (i as usize % 8) + 1;
            JobSpec::Select { keys, rank }
        };
        match service.submit(spec.clone(), 30_000) {
            Submit::Admitted { id, rx } => receivers.push((id, spec, rx)),
            Submit::Shed { reason } => {
                eprintln!("SELF-TEST shed at submit: {reason}");
                return ExitCode::FAILURE;
            }
        }
    }
    for (id, spec, rx) in receivers {
        match rx.recv() {
            Ok((_, Outcome::Done(result))) => {
                if let (JobSpec::Sort { keys }, mcb_serve::JobResult::Sorted(got)) =
                    (&spec, &result)
                {
                    let mut want = keys.clone();
                    want.sort_unstable_by(|a, b| b.cmp(a));
                    if got != &want {
                        eprintln!("SELF-TEST job {id}: wrong sort result");
                        return ExitCode::FAILURE;
                    }
                }
            }
            other => {
                eprintln!("SELF-TEST job {id}: unexpected outcome {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    let stats = service.shutdown();
    println!(
        "SELF-TEST OK done={} failed={} shed={} batches={} cycles={}",
        stats.done, stats.failed, stats.shed, stats.batches, stats.cycles
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.self_test {
        return self_test(args.cfg, args.journal);
    }
    if args.recover_only {
        let service = match Service::start(args.cfg, args.journal.as_deref()) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("recovery failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let recovery = service.recovery;
        let stats = service.shutdown();
        println!(
            "RECOVERED replayed={} rejected={} terminal={} done={} failed={}",
            recovery.replayed,
            recovery.rejected,
            recovery.already_terminal,
            stats.done,
            stats.failed
        );
        return ExitCode::SUCCESS;
    }
    let listener = match TcpListener::bind(&args.listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("bind {}: {e}", args.listen);
            return ExitCode::FAILURE;
        }
    };
    let addr = listener.local_addr().expect("bound socket has an address");
    let service = match Service::start(args.cfg, args.journal.as_deref()) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("start failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if service.recovery.replayed + service.recovery.rejected > 0 {
        println!(
            "RECOVERY replayed={} rejected={}",
            service.recovery.replayed, service.recovery.rejected
        );
    }
    println!("LISTENING {addr}");
    let _ = std::io::stdout().flush();
    match serve_tcp(service, listener) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("accept loop failed: {e}");
            ExitCode::FAILURE
        }
    }
}
