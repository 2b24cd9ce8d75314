//! Warm-start re-solve for the Irving engine.
//!
//! Unlike deferred acceptance, Irving's algorithm has no cheap "resume
//! from a partial execution" story: phase-1 thresholds only ever
//! *tighten*, so a preference edit that would loosen one invalidates work
//! the previous run already committed to. The warm path therefore answers
//! a narrower question exactly: **can the edit change the execution at
//! all?**
//!
//! The engine probes participant `p`'s row in exactly two ways: `p`'s own
//! proposal walk, which never advances past the final `scan[p]` cursor,
//! and other participants testing `rank_p(x) ≤ thresh[p]`. Before `p`
//! holds its first proposal `thresh[p]` is unbounded, so those tests are
//! rank-independent; from the moment `p` first holds a proposal at rank
//! `first_rank[p]`, the threshold only tightens, so a test's outcome
//! depends solely on whether `x` sits at rank `≤ first_rank[p]` — and on
//! the exact rank when it does. A rewrite of `p`'s row that keeps
//! positions `0..=max(scan[p], first_rank[p])` byte-identical therefore
//! leaves **every probe of the previous run unchanged**: a cold solve of
//! the new instance replays the identical execution — proposals,
//! truncations, rotations, and all — so the previous outcome *is* the new
//! outcome, and [`RoommatesWorkspace::resolve_delta`] returns it in O(n)
//! without touching the engine. (Note that the *final* threshold is not a
//! sound bound: while being rejected, a proposer walks through and
//! reorders-sensitive territory far below it.)
//!
//! Everything past that prefix is the row's **dead zone**; edits confined
//! to it are free. Any edit that reaches the live prefix — equivalently,
//! any edit that could loosen a phase-1 threshold — falls back to a cold
//! solve, as does a workspace that does not hold a finished execution of
//! a same-sized instance.

use kmatch_obs::{Metrics, NoMetrics};
use kmatch_prefs::RoommatesInstance;
use kmatch_trace::{reason, span};

use crate::matching::RoommatesMatching;
use crate::solver::RoommatesOutcome;
use crate::workspace::{RoommatesWorkspace, NONE};

/// A recorded single-row rewrite of a [`RoommatesInstance`]: participant
/// [`participant`](RoommatesRowDelta::participant)'s preference row was
/// replaced (e.g. via [`RoommatesInstance::set_row`]), and
/// [`old_row`](RoommatesRowDelta::old_row) is the row as it read *before*
/// the rewrite. The warm path needs the old row to prove the edit stayed
/// inside the dead zone the previous execution never depended on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoommatesRowDelta {
    /// Whose row was rewritten.
    pub participant: u32,
    /// The full pre-rewrite row (same acceptable set as the new row).
    pub old_row: Vec<u32>,
}

impl RoommatesWorkspace {
    /// Warm-start re-solve after in-place preference edits.
    ///
    /// `inst` must already reflect `deltas`, and this workspace must hold
    /// the finished execution of a previous solve of the *pre-delta*
    /// version of the same instance. When every rewritten row is
    /// byte-identical to its old row across the live prefix
    /// (`0..=max(scan[p], first_rank[p])` — everything the previous
    /// execution ever probed), the previous outcome is provably the
    /// outcome of the new instance and is replayed in O(n); any other
    /// edit degrades to a cold [`RoommatesWorkspace::solve`].
    pub fn resolve_delta(
        &mut self,
        inst: &RoommatesInstance,
        deltas: &[RoommatesRowDelta],
    ) -> RoommatesOutcome {
        self.resolve_delta_metered(inst, deltas, &mut NoMetrics)
    }

    /// [`RoommatesWorkspace::resolve_delta`] reporting to the observer
    /// `metrics`: a replay records [`Metrics::warm_resolve`] and an
    /// `irving.warm.resolve` instant; a cold solve records
    /// [`Metrics::warm_fallback`] and an `irving.warm.fallback` instant
    /// carrying a [`kmatch_trace::reason`] code, followed by the cold
    /// solve's `irving.solve`/`irving.phase1`/`irving.phase2` spans.
    pub fn resolve_delta_metered<M: Metrics>(
        &mut self,
        inst: &RoommatesInstance,
        deltas: &[RoommatesRowDelta],
        metrics: &mut M,
    ) -> RoommatesOutcome {
        if let Some(why) = self.warm_miss_reason(inst, deltas) {
            metrics.warm_fallback();
            metrics.span_instant(span::IRVING_WARM_FALLBACK, why);
            return self.solve_metered(inst, metrics);
        }
        let footer = self.footer.expect("warm_miss_reason checked the footer");
        metrics.span_instant(span::IRVING_WARM_RESOLVE, 0);
        metrics.workspace(false);
        metrics.warm_resolve(0);
        metrics.solve_done(footer.stable, 0);
        if footer.stable {
            // Phase 2 left every reduced list a singleton; the arena heads
            // still spell out the matching.
            let n = inst.n();
            let mut partner = vec![0u32; n];
            for (p, slot) in partner.iter_mut().enumerate() {
                *slot = self.first(p as u32).expect("stable footer ⇒ singletons");
            }
            RoommatesOutcome::Stable {
                matching: RoommatesMatching::new(partner),
                stats: footer.stats,
            }
        } else {
            RoommatesOutcome::NoStableMatching {
                culprit: footer.culprit,
                stats: footer.stats,
            }
        }
    }

    /// Number of leading positions of `p`'s row the previous execution
    /// depended on: everything up to the proposal-walk cursor and the
    /// loosest threshold the row was ever probed against. [`NONE`] in
    /// `first_rank` (never held a proposal) pins the whole row.
    pub(crate) fn live_prefix(&self, p: usize, row_len: usize) -> usize {
        let fr = self.first_rank[p];
        if fr == NONE {
            return row_len;
        }
        (self.scan[p].max(fr) as usize + 1).min(row_len)
    }

    /// The warm criterion: a usable footer, matching size, and every
    /// delta confined to the dead zone of its row. `None` means warm;
    /// otherwise the [`kmatch_trace::reason`] code explaining the miss.
    fn warm_miss_reason(
        &self,
        inst: &RoommatesInstance,
        deltas: &[RoommatesRowDelta],
    ) -> Option<u64> {
        let Some(footer) = self.footer else {
            return Some(reason::NO_FOOTER);
        };
        if footer.n != inst.n() {
            return Some(reason::SIZE_MISMATCH);
        }
        let all_dead_zone = deltas.iter().all(|d| {
            let p = d.participant as usize;
            if p >= footer.n {
                return false;
            }
            let new_row = inst.list(d.participant);
            if new_row.len() != d.old_row.len() {
                return false;
            }
            let live = self.live_prefix(p, new_row.len());
            new_row[..live] == d.old_row[..live]
        });
        (!all_dead_zone).then_some(reason::PREFIX_MISS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::is_roommates_stable;
    use crate::solver::solve;
    use kmatch_obs::SolverMetrics;
    use kmatch_prefs::gen::paper::{section3b_left, section3b_right};
    use kmatch_prefs::gen::uniform::uniform_roommates;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn assert_same_outcome(a: &RoommatesOutcome, b: &RoommatesOutcome) {
        match (a, b) {
            (
                RoommatesOutcome::Stable { matching: x, .. },
                RoommatesOutcome::Stable { matching: y, .. },
            ) => assert_eq!(x, y),
            (
                RoommatesOutcome::NoStableMatching { culprit: x, .. },
                RoommatesOutcome::NoStableMatching { culprit: y, .. },
            ) => assert_eq!(x, y),
            _ => panic!("stability verdicts disagree"),
        }
    }

    /// Reverse the dead-zone suffix of `p`'s row; returns the delta, or
    /// `None` when the dead zone has fewer than two entries.
    fn dead_zone_delta(
        inst: &mut RoommatesInstance,
        ws: &RoommatesWorkspace,
        p: u32,
    ) -> Option<RoommatesRowDelta> {
        let old_row = inst.list(p).to_vec();
        let live = ws.live_prefix(p as usize, old_row.len());
        if old_row.len() - live < 2 {
            return None;
        }
        let mut new_row = old_row.clone();
        new_row[live..].reverse();
        inst.set_row(p, &new_row).unwrap();
        Some(RoommatesRowDelta {
            participant: p,
            old_row,
        })
    }

    #[test]
    fn dead_zone_rewrite_replays_without_solving() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let mut hits = 0;
        for _ in 0..60 {
            let mut inst = uniform_roommates(12, &mut rng);
            let mut ws = RoommatesWorkspace::new();
            ws.solve(&inst);
            let p = rng.gen_range(0..12u32);
            let Some(delta) = dead_zone_delta(&mut inst, &ws, p) else {
                continue;
            };
            let mut m = SolverMetrics::new();
            let warm = ws.resolve_delta_metered(&inst, std::slice::from_ref(&delta), &mut m);
            assert_eq!(m.warm_solves, 1, "dead-zone edit must replay");
            assert_eq!(m.warm_fallbacks, 0);
            let cold = solve(&inst);
            assert_same_outcome(&warm, &cold);
            if let Some(matching) = warm.matching() {
                assert!(is_roommates_stable(&inst, matching));
                hits += 1;
            }
        }
        assert!(hits > 5, "expected several solvable warm replays");
    }

    #[test]
    fn live_prefix_edit_falls_back_to_cold() {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let mut fallbacks = 0;
        for _ in 0..20 {
            let mut inst = uniform_roommates(10, &mut rng);
            let mut ws = RoommatesWorkspace::new();
            ws.solve(&inst);
            // Reversing the whole row crosses the live prefix whenever the
            // row's order matters at all.
            let p = rng.gen_range(0..10u32);
            let old_row = inst.list(p).to_vec();
            let mut new_row = old_row.clone();
            new_row.reverse();
            if new_row == old_row {
                continue;
            }
            inst.set_row(p, &new_row).unwrap();
            let delta = RoommatesRowDelta {
                participant: p,
                old_row,
            };
            let mut m = SolverMetrics::new();
            let warm = ws.resolve_delta_metered(&inst, std::slice::from_ref(&delta), &mut m);
            fallbacks += m.warm_fallbacks;
            assert_same_outcome(&warm, &solve(&inst));
        }
        assert!(fallbacks > 10, "whole-row reversals should mostly fall back");
    }

    #[test]
    fn empty_delta_list_replays_any_finished_outcome() {
        // Solvable: same matching and counters come back without a solve.
        let inst = section3b_left();
        let mut ws = RoommatesWorkspace::new();
        let cold = ws.solve(&inst);
        let mut m = SolverMetrics::new();
        let warm = ws.resolve_delta_metered(&inst, &[], &mut m);
        assert_eq!(m.warm_solves, 1);
        assert_eq!(warm.matching(), cold.matching());
        assert_eq!(warm.stats(), cold.stats());
        // Unsolvable (the paper's right-hand lists fail in phase 1): the
        // recorded certificate is replayed verbatim.
        let inst = section3b_right();
        let first = ws.solve(&inst);
        assert!(!first.is_stable());
        let mut m = SolverMetrics::new();
        let again = ws.resolve_delta_metered(&inst, &[], &mut m);
        assert_eq!(m.warm_solves, 1);
        assert_same_outcome(&again, &first);
    }

    #[test]
    fn fresh_workspace_always_falls_back() {
        let inst = section3b_left();
        let mut ws = RoommatesWorkspace::new();
        let mut m = SolverMetrics::new();
        let out = ws.resolve_delta_metered(&inst, &[], &mut m);
        assert_eq!(m.warm_fallbacks, 1);
        assert!(out.is_stable());
    }

    #[test]
    fn random_rewrites_always_agree_with_cold() {
        // Differential sweep across both the replay and fallback paths.
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        for _ in 0..80 {
            let n = 8;
            let mut inst = uniform_roommates(n, &mut rng);
            let mut ws = RoommatesWorkspace::new();
            ws.solve(&inst);
            let p = rng.gen_range(0..n as u32);
            let old_row = inst.list(p).to_vec();
            let mut new_row = old_row.clone();
            // Random transposition somewhere in the row.
            let i = rng.gen_range(0..new_row.len());
            let j = rng.gen_range(0..new_row.len());
            new_row.swap(i, j);
            inst.set_row(p, &new_row).unwrap();
            let delta = RoommatesRowDelta {
                participant: p,
                old_row,
            };
            let warm = ws.resolve_delta(&inst, std::slice::from_ref(&delta));
            assert_same_outcome(&warm, &solve(&inst));
        }
    }
}
