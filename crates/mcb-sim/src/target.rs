//! Simulation targets: the self-healing programs a [`FaultPlan`] is
//! driven through, with a built-in correctness + cost-contract oracle.
//!
//! A target fixes everything except the plan — the program, its
//! deterministic input, and the reference answer — so a run's verdict is
//! a pure function of the plan. Runs use the **vector backend** (the
//! struct-of-arrays engine): one backend keeps verdicts comparable
//! across sweeps, and the engine is proven backend-identical elsewhere
//! (`tests/self_heal.rs`).

use mcb_algos::heal::{run_program_offline, ColumnsortProgram, SelectProgram, SelfHealing};
use mcb_json::Json;
use mcb_net::{Backend, FaultPlan, FaultRecord, NetError};

/// Watchdog: a pathological plan must become a typed error, never a hang.
const STALL_WINDOW: u64 = 100_000;
/// Runaway-protection budget for explorer runs.
const CYCLE_BUDGET: u64 = 10_000_000;

/// One fixed (program, input, oracle) triple the explorer runs plans
/// against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimTarget {
    /// §5.2 base-case Columnsort on `MCB(k0, k0)`: `k0` columns of
    /// padded length `m` (`k0 | m`, `m ≥ k0(k0−1)`).
    Sort {
        /// Padded column length.
        m: usize,
        /// Columns = processors = channels.
        k0: usize,
    },
    /// Filtering selection on `MCB(p, k)`: the `d`'th largest of
    /// `p` lists of `n_per` keys.
    Select {
        /// Processors (one list each).
        p: usize,
        /// Channels (`k ≤ p`).
        k: usize,
        /// Keys per list.
        n_per: usize,
        /// 1-based rank to select.
        d: usize,
    },
}

/// Evidence from a passing run, the raw material of coverage tracking.
#[derive(Debug, Clone)]
pub struct PassInfo {
    /// Cycles the healed run actually took.
    pub cycles: u64,
    /// The `L + R×(W + census)` contract the run was held to.
    pub cycle_bound: u64,
    /// The fault-free cycles `L` the healed run counted for itself (see
    /// [`Verdict::held_to`]).
    pub fault_free_cycles: u64,
    /// Commit cycle of each reconfiguration, oldest first.
    pub epoch_cycles: Vec<u64>,
    /// `(name, first_cycle, last_cycle)` span of each phase.
    pub phases: Vec<(String, u64, u64)>,
    /// The faults that actually fired.
    pub fired: Vec<FaultRecord>,
}

/// What a plan did to a target.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// Correct, complete output within the cost contract.
    Pass(PassInfo),
    /// The engine refused with a typed error instead of lying —
    /// acceptable only for fault classes documented as out of contract
    /// (stalls; see `tests/stall_gap.rs`).
    TypedError(String),
    /// Correct, complete output, but the run exceeded the
    /// `L + R×(W + census)` cycle bound — the *cost* half of the
    /// contract broke while the *answer* half held — or counted an `L`
    /// other than the target's own ([`Verdict::held_to`]), so that its
    /// bound was built from the wrong `L`. Out-of-contract
    /// faults (stalls) may legitimately land here: a stall near the
    /// finish line delays completion without triggering the
    /// reconfiguration whose `W + census` term would have paid for it.
    Overrun(String),
    /// The run "succeeded" but the output was wrong or incomplete: the
    /// silent-corruption bug class the explorer hunts.
    Wrong(String),
}

impl Verdict {
    /// True for [`Verdict::Pass`].
    pub fn is_pass(&self) -> bool {
        matches!(self, Verdict::Pass(_))
    }

    /// True for [`Verdict::Wrong`] — silently corrupted output.
    pub fn is_wrong(&self) -> bool {
        matches!(self, Verdict::Wrong(_))
    }

    /// True for any contract violation a covered fault must never cause
    /// ([`Verdict::Wrong`] or [`Verdict::Overrun`]).
    pub fn is_violation(&self) -> bool {
        matches!(self, Verdict::Wrong(_) | Verdict::Overrun(_))
    }

    /// Hold a passing run to `l`, the target's reference
    /// [`SimTarget::fault_free_cycles`]. A healed run counts its own `L`
    /// and builds its cycle bound from it, so a run that miscounts `L`
    /// moves its own bound; checked against the reference `L`, such a
    /// pass becomes an [`Verdict::Overrun`]. Every other verdict is
    /// returned as it is.
    pub fn held_to(self, l: u64) -> Verdict {
        match self {
            Verdict::Pass(info) if info.fault_free_cycles != l => Verdict::Overrun(format!(
                "cost contract unchecked: the run counted L = {} fault-free cycles, \
                 the reference run takes {l}",
                info.fault_free_cycles
            )),
            v => v,
        }
    }
}

impl SimTarget {
    /// The shape's processor count.
    pub fn p(&self) -> usize {
        match *self {
            SimTarget::Sort { k0, .. } => k0,
            SimTarget::Select { p, .. } => p,
        }
    }

    /// The shape's channel count.
    pub fn k(&self) -> usize {
        match *self {
            SimTarget::Sort { k0, .. } => k0,
            SimTarget::Select { k, .. } => k,
        }
    }

    /// The deterministic input keys, list per processor. Small pseudo-
    /// random values with duplicates (the multiset oracle must not get
    /// distinctness for free).
    fn input(&self) -> Vec<Vec<u64>> {
        let (p, n) = match *self {
            SimTarget::Sort { m, k0 } => (k0, m),
            SimTarget::Select { p, n_per, .. } => (p, n_per),
        };
        (0..p)
            .map(|c| {
                (0..n)
                    .map(|r| ((c * n + r) as u64).wrapping_mul(2_654_435_761) % 97)
                    .collect()
            })
            .collect()
    }

    /// Cycles the target's program takes fault-free (`L`): the horizon
    /// single faults must land inside to fire at all.
    pub fn fault_free_cycles(&self) -> u64 {
        let input = self.input();
        match *self {
            SimTarget::Sort { m, .. } => {
                let cols: Vec<Vec<Option<u64>>> = input
                    .into_iter()
                    .map(|col| col.into_iter().map(Some).collect())
                    .collect();
                let prog = ColumnsortProgram::new(m, &cols).expect("valid sort shape");
                run_program_offline::<u64, _>(&prog).1
            }
            SimTarget::Select { d, .. } => {
                let prog = SelectProgram::new(input, d).expect("valid select shape");
                run_program_offline::<u64, _>(&prog).1
            }
        }
    }

    /// Run `plan` through the target on the vector backend and judge the
    /// outcome. The plan's shape must match the target's.
    pub fn run(&self, plan: &FaultPlan) -> Verdict {
        assert_eq!(
            (plan.p(), plan.k()),
            (self.p(), self.k()),
            "plan shape must match target shape"
        );
        let healer = SelfHealing::new(plan.clone())
            .backend(Backend::Vector)
            .stall_window(STALL_WINDOW)
            .cycle_budget(CYCLE_BUDGET);
        let input = self.input();
        match *self {
            SimTarget::Sort { m, .. } => {
                let cols: Vec<Vec<Option<u64>>> = input
                    .iter()
                    .map(|col| col.iter().copied().map(Some).collect())
                    .collect();
                let mut want: Vec<u64> = input.into_iter().flatten().collect();
                want.sort_unstable_by(|a, b| b.cmp(a));
                match healer.sort_columns(m, cols) {
                    Ok(out) => {
                        let got: Vec<u64> =
                            out.columns.iter().flatten().filter_map(|x| *x).collect();
                        if got != want {
                            return Verdict::Wrong(format!(
                                "sort output wrong: got {} keys {:?}, want {} keys {:?}",
                                got.len(),
                                &got[..got.len().min(8)],
                                want.len(),
                                &want[..want.len().min(8)]
                            ));
                        }
                        judge_cost(
                            out.metrics.cycles,
                            out.cycle_bound,
                            PassInfo {
                                cycles: out.metrics.cycles,
                                cycle_bound: out.cycle_bound,
                                fault_free_cycles: out.fault_free_cycles,
                                epoch_cycles: out.epochs.iter().map(|e| e.cycle).collect(),
                                phases: phase_spans(&out.metrics),
                                fired: out.metrics.faults.clone(),
                            },
                        )
                    }
                    Err(e) => typed(&e),
                }
            }
            SimTarget::Select { d, .. } => {
                let mut all: Vec<u64> = input.iter().flatten().copied().collect();
                all.sort_unstable_by(|a, b| b.cmp(a));
                let want = all[d - 1];
                match healer.select_rank(self.k(), input, d) {
                    Ok(out) => {
                        if out.value != want {
                            return Verdict::Wrong(format!(
                                "select output wrong: got {}, want {}",
                                out.value, want
                            ));
                        }
                        judge_cost(
                            out.metrics.cycles,
                            out.cycle_bound,
                            PassInfo {
                                cycles: out.metrics.cycles,
                                cycle_bound: out.cycle_bound,
                                fault_free_cycles: out.fault_free_cycles,
                                epoch_cycles: out.epochs.iter().map(|e| e.cycle).collect(),
                                phases: phase_spans(&out.metrics),
                                fired: out.metrics.faults.clone(),
                            },
                        )
                    }
                    Err(e) => typed(&e),
                }
            }
        }
    }

    /// The target as a [`Json`] object (for repro records).
    pub fn to_json(&self) -> Json {
        match *self {
            SimTarget::Sort { m, k0 } => Json::obj()
                .field("target", Json::Str("sort".to_string()))
                .field("m", Json::U64(m as u64))
                .field("k0", Json::U64(k0 as u64)),
            SimTarget::Select { p, k, n_per, d } => Json::obj()
                .field("target", Json::Str("select".to_string()))
                .field("p", Json::U64(p as u64))
                .field("k", Json::U64(k as u64))
                .field("n_per", Json::U64(n_per as u64))
                .field("d", Json::U64(d as u64)),
        }
    }

    /// Rebuild a target from [`SimTarget::to_json`] output.
    ///
    /// # Errors
    /// On a missing/ill-typed field or an unknown target name.
    pub fn from_json(v: &Json) -> Result<SimTarget, String> {
        let dim = |name: &str| -> Result<usize, String> {
            let n = v
                .get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("target missing \"{name}\""))?;
            usize::try_from(n).map_err(|_| format!("\"{name}\" out of range"))
        };
        match v.get("target").and_then(Json::as_str) {
            Some("sort") => Ok(SimTarget::Sort {
                m: dim("m")?,
                k0: dim("k0")?,
            }),
            Some("select") => Ok(SimTarget::Select {
                p: dim("p")?,
                k: dim("k")?,
                n_per: dim("n_per")?,
                d: dim("d")?,
            }),
            other => Err(format!("unknown target {other:?}")),
        }
    }
}

impl std::fmt::Display for SimTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SimTarget::Sort { m, k0 } => write!(f, "sort(m={m}, k0={k0})"),
            SimTarget::Select { p, k, n_per, d } => {
                write!(f, "select(p={p}, k={k}, n_per={n_per}, d={d})")
            }
        }
    }
}

fn judge_cost(cycles: u64, bound: u64, info: PassInfo) -> Verdict {
    if cycles > bound {
        Verdict::Overrun(format!(
            "cost contract violated: {cycles} cycles > bound {bound}"
        ))
    } else {
        Verdict::Pass(info)
    }
}

fn typed(e: &NetError) -> Verdict {
    Verdict::TypedError(format!("{e:?}"))
}

fn phase_spans(metrics: &mcb_net::Metrics) -> Vec<(String, u64, u64)> {
    metrics
        .phases
        .iter()
        .map(|ph| (ph.name.clone(), ph.first_cycle, ph.last_cycle))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_runs_pass() {
        for target in [
            SimTarget::Sort { m: 2, k0: 2 },
            SimTarget::Select {
                p: 4,
                k: 2,
                n_per: 3,
                d: 6,
            },
        ] {
            let plan = FaultPlan::new(target.p(), target.k());
            let v = target.run(&plan);
            assert!(v.is_pass(), "{target}: fault-free run must pass, got {v:?}");
            assert!(target.fault_free_cycles() > 0);
        }
    }

    #[test]
    fn a_pass_with_a_miscounted_l_is_an_overrun() {
        let target = SimTarget::Sort { m: 2, k0: 2 };
        let l = target.fault_free_cycles();
        let v = target.run(&FaultPlan::new(2, 2));
        assert!(v.clone().held_to(l).is_pass());
        for wrong_l in [l - 1, l + 1] {
            let held = v.clone().held_to(wrong_l);
            assert!(
                matches!(&held, Verdict::Overrun(why) if why.contains("cost contract unchecked")),
                "L {wrong_l} against {l}: {held:?}"
            );
        }
        let wrong = Verdict::Wrong("bad output".into());
        assert!(wrong.held_to(l + 1).is_wrong());
    }

    #[test]
    fn target_json_round_trips() {
        for target in [
            SimTarget::Sort { m: 4, k0: 2 },
            SimTarget::Select {
                p: 5,
                k: 3,
                n_per: 4,
                d: 10,
            },
        ] {
            let back = SimTarget::from_json(&target.to_json()).unwrap();
            assert_eq!(back, target);
        }
        assert!(SimTarget::from_json(&Json::obj()).is_err());
    }
}
