//! JSONL repro artifacts: one line = one replayable counterexample.
//!
//! A repro names the target, the (usually shrunk) plan, and the failure
//! it witnesses. `mcb-sim replay <file>` re-runs every line and reports
//! whether each failure still reproduces — the explorer's findings stay
//! checkable long after the session that found them.

use crate::target::{SimTarget, Verdict};
use mcb_json::Json;
use mcb_net::FaultPlan;

/// One replayable counterexample.
#[derive(Debug, Clone)]
pub struct Repro {
    /// The target the plan fails.
    pub target: SimTarget,
    /// The failing plan.
    pub plan: FaultPlan,
    /// The failure observed when the repro was recorded.
    pub reason: String,
}

impl Repro {
    /// The repro as one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        Json::obj()
            .field("record", Json::Str("mcb_sim_repro".to_string()))
            .field("target", self.target.to_json())
            .field("plan", self.plan.to_json())
            .field("reason", Json::Str(self.reason.clone()))
            .render()
    }

    /// Parse a repro from one JSONL line.
    ///
    /// # Errors
    /// On malformed JSON, a wrong `record` tag, or target/plan decode
    /// failures.
    pub fn from_jsonl(line: &str) -> Result<Repro, String> {
        let v = Json::parse(line.trim())?;
        match v.get("record").and_then(Json::as_str) {
            Some("mcb_sim_repro") => {}
            other => return Err(format!("not an mcb_sim_repro record: {other:?}")),
        }
        let target = SimTarget::from_json(v.get("target").ok_or("repro missing \"target\"")?)?;
        let plan = FaultPlan::from_json(v.get("plan").ok_or("repro missing \"plan\"")?)?;
        if (plan.p(), plan.k()) != (target.p(), target.k()) {
            return Err(format!(
                "plan shape ({}, {}) does not match target {target}",
                plan.p(),
                plan.k()
            ));
        }
        let reason = v
            .get("reason")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        Ok(Repro {
            target,
            plan,
            reason,
        })
    }

    /// Re-run the plan. Returns the fresh verdict, held to the target's
    /// reference `L` ([`Verdict::held_to`]), and whether the recorded
    /// failure class reproduces (any contract violation — wrong output
    /// or a blown cycle bound).
    pub fn replay(&self) -> (bool, Verdict) {
        let l = self.target.fault_free_cycles();
        let v = self.target.run(&self.plan).held_to(l);
        (v.is_violation(), v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcb_net::ChanId;

    #[test]
    fn repro_jsonl_round_trips() {
        let repro = Repro {
            target: SimTarget::Select {
                p: 4,
                k: 2,
                n_per: 3,
                d: 6,
            },
            plan: FaultPlan::new(4, 2).drop_message(3, ChanId(1)),
            reason: "example".to_string(),
        };
        let line = repro.to_jsonl();
        assert!(!line.contains('\n'));
        let back = Repro::from_jsonl(&line).unwrap();
        assert_eq!(back.target, repro.target);
        assert_eq!(back.plan, repro.plan);
        assert_eq!(back.reason, "example");
    }

    #[test]
    fn repro_rejects_shape_mismatch() {
        let repro = Repro {
            target: SimTarget::Sort { m: 2, k0: 2 },
            plan: FaultPlan::new(3, 2),
            reason: String::new(),
        };
        assert!(Repro::from_jsonl(&repro.to_jsonl()).is_err());
    }

    #[test]
    fn healthy_plan_does_not_reproduce() {
        let repro = Repro {
            target: SimTarget::Sort { m: 2, k0: 2 },
            plan: FaultPlan::new(2, 2),
            reason: "nothing".to_string(),
        };
        let (reproduced, verdict) = repro.replay();
        assert!(!reproduced);
        assert!(verdict.is_pass());
    }
}
