//! Exhaustive 1- and 2-fault plan enumeration for small shapes.
//!
//! The atom is a [`FaultEvent`]: one (kind, party, cycle) triple. For a
//! shape inside the exhaustive envelope (`p ≤ 8`, `k ≤ 4`) the
//! enumerator emits every single-atom plan and every canonical atom
//! pair, pruned to plans the healing contract actually covers:
//!
//! * deaths stay below `k` per plan (at least one channel survives);
//! * crashes stay below `p` per plan (at least one processor survives);
//! * identical transient atoms collapse (sets), so duplicate pairs are
//!   skipped rather than silently degenerating to singles;
//! * in a pair, the earlier atom must land inside the fault-free run
//!   length `L` (`horizon`) or nothing fires; the later atom may land in
//!   the post-reconfiguration extension (`pair_horizon`).
//!
//! Stalls are deliberately *not* part of the default kind set: unplanned
//! stalls split common knowledge and are out of the self-heal contract
//! (the documented PR 5 gap). `tests/stall_gap.rs` enumerates them
//! separately and pins the expected failure mode machine-checkably.

use crate::target::{SimTarget, Verdict};
use mcb_net::{FaultEvent, FaultKind, FaultPlan};

/// Largest processor count the exhaustive envelope covers.
pub const MAX_EXHAUSTIVE_P: usize = 8;
/// Largest channel count the exhaustive envelope covers.
pub const MAX_EXHAUSTIVE_K: usize = 4;

/// Enumeration bounds and kind set.
#[derive(Debug, Clone)]
pub struct EnumOpts {
    /// Fault kinds to enumerate atoms for.
    pub kinds: Vec<FaultKind>,
    /// Single atoms (and the earlier atom of a pair) land in
    /// `[0, horizon)` — use the target's fault-free cycle count `L`:
    /// anything later cannot fire.
    pub horizon: u64,
    /// The later atom of a pair lands in `[0, pair_horizon)`; pass
    /// `L + W + census` to reach into the post-reconfiguration replay.
    pub pair_horizon: u64,
}

impl EnumOpts {
    /// The default kind set (everything the self-heal contract covers)
    /// over horizon `l`, with pairs allowed to overhang by `extension`.
    pub fn covered(l: u64, extension: u64) -> EnumOpts {
        EnumOpts {
            kinds: vec![
                FaultKind::ChannelDeath,
                FaultKind::Crash,
                FaultKind::Drop,
                FaultKind::Corrupt,
            ],
            horizon: l,
            pair_horizon: l + extension,
        }
    }
}

/// Every atom of `kind` for an `MCB(p, k)` shape with cycles in
/// `[0, horizon)`. Kinds whose single atom already violates
/// survivability on this shape (a death with `k = 1`, a crash with
/// `p = 1`, a stall with `p = 1`) yield nothing.
pub fn atoms_for(kind: FaultKind, p: usize, k: usize, horizon: u64) -> Vec<FaultEvent> {
    let mut out = Vec::new();
    match kind {
        FaultKind::ChannelDeath if k >= 2 => {
            for chan in 0..k {
                for at in 0..horizon {
                    out.push(FaultEvent::Death { chan, at });
                }
            }
        }
        FaultKind::Crash if p >= 2 => {
            for proc in 0..p {
                for at in 0..horizon {
                    out.push(FaultEvent::Crash { proc, at });
                }
            }
        }
        FaultKind::Drop => {
            for chan in 0..k {
                for at in 0..horizon {
                    out.push(FaultEvent::Drop { at, chan });
                }
            }
        }
        FaultKind::Corrupt => {
            for chan in 0..k {
                for at in 0..horizon {
                    out.push(FaultEvent::Corrupt { at, chan });
                }
            }
        }
        FaultKind::Stall if p >= 2 => {
            for proc in 0..p {
                for at in 0..horizon {
                    out.push(FaultEvent::Stall { proc, at });
                }
            }
        }
        _ => {}
    }
    out
}

fn assert_envelope(p: usize, k: usize) {
    assert!(
        p <= MAX_EXHAUSTIVE_P && k <= MAX_EXHAUSTIVE_K,
        "exhaustive enumeration is for small shapes (p ≤ {MAX_EXHAUSTIVE_P}, \
         k ≤ {MAX_EXHAUSTIVE_K}); got (p={p}, k={k}) — use the coverage-guided explorer"
    );
}

/// Every 1-fault plan for `MCB(p, k)` under `opts`.
pub fn single_fault_plans(p: usize, k: usize, opts: &EnumOpts) -> Vec<FaultPlan> {
    assert_envelope(p, k);
    opts.kinds
        .iter()
        .flat_map(|&kind| atoms_for(kind, p, k, opts.horizon))
        .map(|e| FaultPlan::from_events(p, k, &[e]))
        .collect()
}

/// Can `a` and `b` coexist in one plan the healing contract covers?
fn pair_allowed(a: FaultEvent, b: FaultEvent, p: usize, k: usize) -> bool {
    match (a, b) {
        // Two deaths must hit distinct channels and leave one alive.
        (FaultEvent::Death { chan: c1, .. }, FaultEvent::Death { chan: c2, .. }) => {
            c1 != c2 && k >= 3
        }
        // Two crashes must hit distinct processors and leave one alive.
        (FaultEvent::Crash { proc: p1, .. }, FaultEvent::Crash { proc: p2, .. }) => {
            p1 != p2 && p >= 3
        }
        // Identical transients collapse into one (set semantics): the
        // "pair" would be a single-fault plan already enumerated.
        _ => a != b,
    }
}

/// Every canonical 2-fault plan for `MCB(p, k)` under `opts`: unordered
/// atom pairs, earlier-first, with the earlier atom inside
/// [`EnumOpts::horizon`] and the later inside [`EnumOpts::pair_horizon`].
pub fn two_fault_plans(p: usize, k: usize, opts: &EnumOpts) -> Vec<FaultPlan> {
    assert_envelope(p, k);
    let early: Vec<FaultEvent> = opts
        .kinds
        .iter()
        .flat_map(|&kind| atoms_for(kind, p, k, opts.horizon))
        .collect();
    let late: Vec<FaultEvent> = opts
        .kinds
        .iter()
        .flat_map(|&kind| atoms_for(kind, p, k, opts.pair_horizon))
        .collect();
    let mut out = Vec::new();
    for &a in &early {
        for &b in &late {
            // Canonical order (unordered pairs, no double counting): the
            // later-horizon atom must not precede the earlier one, and
            // ties are broken by the derived Ord on events.
            if b.at() < a.at() || (b.at() == a.at() && b <= a) {
                continue;
            }
            if pair_allowed(a, b, p, k) {
                out.push(FaultPlan::from_events(p, k, &[a, b]));
            }
        }
    }
    out
}

/// Tally of an exhaustive sweep.
#[derive(Debug, Default)]
pub struct SweepOutcome {
    /// Plans run.
    pub total: usize,
    /// Plans that passed (correct output inside the cost contract).
    pub passed: usize,
    /// Plans that ended in a typed engine error.
    pub typed_errors: Vec<(FaultPlan, String)>,
    /// Plans with correct output that blew the cycle bound.
    pub overruns: Vec<(FaultPlan, String)>,
    /// Plans that produced a wrong/incomplete output — silent
    /// corruption, the worst class.
    pub wrong: Vec<(FaultPlan, String)>,
}

impl SweepOutcome {
    /// True when every plan passed outright.
    pub fn all_passed(&self) -> bool {
        self.passed == self.total
    }
}

/// Run every plan through `target` and tally the verdicts, each held to
/// the target's reference `L` ([`Verdict::held_to`]).
pub fn sweep(target: &SimTarget, plans: impl IntoIterator<Item = FaultPlan>) -> SweepOutcome {
    let l = target.fault_free_cycles();
    let mut out = SweepOutcome::default();
    for plan in plans {
        out.total += 1;
        match target.run(&plan).held_to(l) {
            Verdict::Pass(_) => out.passed += 1,
            Verdict::TypedError(e) => out.typed_errors.push((plan, e)),
            Verdict::Overrun(e) => out.overruns.push((plan, e)),
            Verdict::Wrong(e) => out.wrong.push((plan, e)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atom_counts_match_the_grid() {
        // p=4, k=2, horizon 10: deaths 2×10, crashes 4×10, drops 2×10,
        // corrupts 2×10.
        assert_eq!(atoms_for(FaultKind::ChannelDeath, 4, 2, 10).len(), 20);
        assert_eq!(atoms_for(FaultKind::Crash, 4, 2, 10).len(), 40);
        assert_eq!(atoms_for(FaultKind::Drop, 4, 2, 10).len(), 20);
        assert_eq!(atoms_for(FaultKind::Corrupt, 4, 2, 10).len(), 20);
        assert_eq!(atoms_for(FaultKind::Stall, 4, 2, 10).len(), 40);
        // Survivability degenerate shapes enumerate nothing.
        assert!(atoms_for(FaultKind::ChannelDeath, 4, 1, 10).is_empty());
        assert!(atoms_for(FaultKind::Crash, 1, 2, 10).is_empty());
        assert!(atoms_for(FaultKind::Stall, 1, 2, 10).is_empty());
    }

    #[test]
    fn singles_cover_every_atom_exactly_once() {
        let opts = EnumOpts::covered(5, 3);
        let plans = single_fault_plans(3, 2, &opts);
        // deaths 2×5 + crashes 3×5 + drops 2×5 + corrupts 2×5 = 45.
        assert_eq!(plans.len(), 45);
        for plan in &plans {
            assert_eq!(plan.events().len(), 1);
        }
    }

    #[test]
    fn pairs_prune_unsurvivable_and_duplicate_combos() {
        let opts = EnumOpts::covered(3, 2);
        for plan in two_fault_plans(3, 2, &opts) {
            let ev = plan.events();
            assert_eq!(ev.len(), 2, "sets must not collapse a pair: {ev:?}");
            assert!(plan.min_live() >= 1, "a channel must survive");
            let crashes = ev.iter().filter(|e| e.kind() == FaultKind::Crash).count();
            assert!(crashes < 3, "a processor must survive");
            // Earlier atom inside the single-fault horizon.
            assert!(ev.iter().map(|e| e.at()).min().unwrap() < opts.horizon);
        }
        // k=2 allows no death pairs at all.
        assert!(two_fault_plans(3, 2, &opts).iter().all(|p| p
            .events()
            .iter()
            .filter(|e| e.kind() == FaultKind::ChannelDeath)
            .count()
            < 2));
    }

    #[test]
    #[should_panic(expected = "exhaustive enumeration is for small shapes")]
    fn envelope_is_enforced() {
        let _ = single_fault_plans(9, 2, &EnumOpts::covered(4, 2));
    }
}
