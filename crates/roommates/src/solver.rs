//! The complete Irving solver: phase 1 + repeated rotation elimination.
//!
//! Two implementations live side by side:
//!
//! * The **fast path** ([`solve`], [`solve_with`]) runs the two-tier
//!   engine in [`crate::engine`] (implicit phase-1 thresholds + compact
//!   linked arena for phase 2) through a transient
//!   [`crate::workspace::RoommatesWorkspace`]. Callers doing many solves
//!   should hold a workspace and call
//!   [`RoommatesWorkspace::solve`](crate::workspace::RoommatesWorkspace::solve)
//!   directly to amortize the scratch allocations away entirely.
//! * The **reference** ([`solve_reference`], [`solve_with_reference`])
//!   keeps the original [`ActiveTable`] implementation verbatim as the
//!   differential-testing oracle: both paths must produce identical
//!   matchings, certificates, proposal counts, and rotation counts
//!   (pinned by `tests/prop_fastpath.rs`). It is also the traced path:
//!   [`solve_traced`] and [`solve_with_logged_reference`] emit the §III-B
//!   event dialogue as it runs.

use kmatch_prefs::RoommatesInstance;

use crate::active::ActiveTable;
use crate::matching::RoommatesMatching;
use crate::phase1::{phase1_logged, Phase1Result};
use crate::phase2::{eliminate_rotation, find_rotation};
use crate::policy::{RotationPolicy, SeedState};
use crate::trace::RoommatesEvent;
use crate::workspace::RoommatesWorkspace;

/// Instrumentation from a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveStats {
    /// Phase-1 proposals.
    pub proposals: u64,
    /// Rotations eliminated in phase 2.
    pub rotations: u32,
}

/// Result of running Irving's algorithm.
#[derive(Debug, Clone)]
pub enum RoommatesOutcome {
    /// A stable matching, with instrumentation.
    Stable {
        /// The stable matching found.
        matching: RoommatesMatching,
        /// Proposal/rotation counters.
        stats: SolveStats,
    },
    /// No stable matching exists; `culprit`'s reduced list emptied.
    NoStableMatching {
        /// A participant whose list emptied — the paper's certificate
        /// ("u's reduced list is empty. Therefore, there is no stable
        /// matching").
        culprit: u32,
        /// Proposal/rotation counters.
        stats: SolveStats,
    },
}

impl RoommatesOutcome {
    /// The matching, if stable.
    pub fn matching(&self) -> Option<&RoommatesMatching> {
        match self {
            RoommatesOutcome::Stable { matching, .. } => Some(matching),
            RoommatesOutcome::NoStableMatching { .. } => None,
        }
    }

    /// Instrumentation counters.
    pub fn stats(&self) -> SolveStats {
        match self {
            RoommatesOutcome::Stable { stats, .. }
            | RoommatesOutcome::NoStableMatching { stats, .. } => *stats,
        }
    }

    /// True when a stable matching was found.
    pub fn is_stable(&self) -> bool {
        matches!(self, RoommatesOutcome::Stable { .. })
    }
}

/// Solve with the default deterministic seeding
/// ([`RotationPolicy::FirstAvailable`]).
///
/// ```
/// use kmatch_roommates::solve;
/// use kmatch_prefs::gen::paper::{section3b_left, section3b_right};
///
/// // The paper's left-hand lists have the stable matching
/// // (m,u'), (m',w), (w',u); the right-hand lists have none.
/// assert!(solve(&section3b_left()).is_stable());
/// assert!(!solve(&section3b_right()).is_stable());
/// ```
pub fn solve(inst: &RoommatesInstance) -> RoommatesOutcome {
    solve_with(inst, RotationPolicy::FirstAvailable)
}

/// Solve with an explicit rotation-seeding policy (see
/// [`crate::fair_smp`] for why the seed matters).
pub fn solve_with(inst: &RoommatesInstance, policy: RotationPolicy) -> RoommatesOutcome {
    RoommatesWorkspace::new().solve_with(inst, &policy)
}

/// Solve with [`RotationPolicy::FirstAvailable`], also returning the full
/// event trace in the paper's §III-B style. Runs the reference solver, so
/// the outcome equals [`solve`]'s.
pub fn solve_traced(inst: &RoommatesInstance) -> (RoommatesOutcome, Vec<RoommatesEvent>) {
    let mut events = Vec::new();
    let out = solve_with_logged_reference(inst, RotationPolicy::FirstAvailable, &mut |e| {
        events.push(e)
    });
    (out, events)
}

/// Reference solver with the default seeding — the original
/// [`ActiveTable`] implementation, kept as the oracle for differential
/// tests and benchmarks.
pub fn solve_reference(inst: &RoommatesInstance) -> RoommatesOutcome {
    solve_with_reference(inst, RotationPolicy::FirstAvailable)
}

/// Reference solver with an explicit rotation-seeding policy.
pub fn solve_with_reference(inst: &RoommatesInstance, policy: RotationPolicy) -> RoommatesOutcome {
    solve_with_logged_reference(inst, policy, &mut |_| {})
}

/// [`solve_with_reference`] plus an event callback.
pub fn solve_with_logged_reference(
    inst: &RoommatesInstance,
    policy: RotationPolicy,
    log: &mut dyn FnMut(RoommatesEvent),
) -> RoommatesOutcome {
    let mut stats = SolveStats::default();
    let mut table = ActiveTable::new(inst);

    match phase1_logged(&mut table, &mut stats.proposals, log) {
        Phase1Result::NoStableMatching { culprit } => {
            return RoommatesOutcome::NoStableMatching { culprit, stats }
        }
        Phase1Result::Reduced { .. } => {}
    }

    let n = inst.n() as u32;
    let mut seeds = SeedState::new(policy);
    loop {
        let candidates: Vec<u32> = (0..n).filter(|&p| table.len(p) >= 2).collect();
        let Some(start) = seeds.pick(&candidates) else {
            break; // All lists are singletons.
        };
        let rotation = find_rotation(&mut table, start);
        log(RoommatesEvent::Rotation {
            xs: rotation.xs.clone(),
            ys: rotation.ys.clone(),
        });
        stats.rotations += 1;
        if let Some(culprit) = eliminate_rotation(&mut table, &rotation) {
            log(RoommatesEvent::ListEmptied { who: culprit });
            return RoommatesOutcome::NoStableMatching { culprit, stats };
        }
    }

    // Every reduced list is a singleton: read off the matching.
    let mut partner = vec![0u32; inst.n()];
    for p in 0..n {
        partner[p as usize] = table.first(p).expect("singleton lists are non-empty");
    }
    RoommatesOutcome::Stable {
        matching: RoommatesMatching::new(partner),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::is_roommates_stable;
    use kmatch_prefs::gen::paper::{no_stable_roommates_4, section3b_left, section3b_right};
    use kmatch_prefs::gen::uniform::uniform_roommates;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn paper_left_instance_solves_stably() {
        let inst = section3b_left();
        let out = solve(&inst);
        let m = out
            .matching()
            .expect("paper: left instance has a stable matching");
        assert!(is_roommates_stable(&inst, m));
    }

    #[test]
    fn paper_right_instance_has_no_stable_matching() {
        // Paper: "u's reduced list is empty. Therefore, there is no stable
        // matching."
        let out = solve(&section3b_right());
        assert!(!out.is_stable());
    }

    #[test]
    fn classic_4_instance_has_no_stable_matching() {
        let out = solve(&no_stable_roommates_4());
        assert!(!out.is_stable());
    }

    #[test]
    fn random_instances_results_verified() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let mut stable_count = 0;
        for _ in 0..50 {
            let inst = uniform_roommates(10, &mut rng);
            match solve(&inst) {
                RoommatesOutcome::Stable { matching, .. } => {
                    assert!(is_roommates_stable(&inst, &matching));
                    stable_count += 1;
                }
                RoommatesOutcome::NoStableMatching { .. } => {
                    // Cross-checked exhaustively in brute.rs tests.
                }
            }
        }
        assert!(stable_count > 20, "most random even instances are solvable");
    }

    #[test]
    fn odd_instances_never_stable() {
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        for _ in 0..10 {
            let inst = uniform_roommates(7, &mut rng);
            assert!(
                !solve(&inst).is_stable(),
                "odd n cannot have a perfect matching"
            );
        }
    }

    #[test]
    fn stats_are_populated() {
        let out = solve(&section3b_left());
        let stats = out.stats();
        assert!(stats.proposals >= 6);
    }
}
