//! Escalating truncated solves: subquadratic roommates via top-K lists
//! with completeness certificates.
//!
//! A complete-list Irving solve is Θ(n²): phase 1's implicit-deletion
//! scan plus the materialized phase-2 arena both touch a constant
//! fraction of all n² pairs (at n = 10⁵ the arena alone held ~5.8×10⁷
//! survivors). But Mertens' concentration results (PAPERS.md) put
//! *relevant* partner ranks at Θ(√n), so the driver here solves the
//! mutual top-K sub-instance `I_K` ([`TruncatedRoommates`]) at
//! K ≈ 16·√n, checks a **completeness certificate**, and only escalates
//! (K ← 2K, cold re-solve through the same workspace) when the
//! certificate fails — full width as the last resort. Cost per attempt
//! is O(n·K) probes and O(n·K) arena, so the certified path is
//! O(n^1.5) in time and memory. On random instances the first attempt
//! decides — every seed of the `schedule` tally in
//! `results/BENCH_roommates.json` (200 per n ∈ {500, 1000, 2000}) and
//! every scaling row up to n = 10⁶ certifies at the starting cut — so a
//! solve is one attempt plus, when unsolvable, one partition
//! verification.
//!
//! The two certificates:
//!
//! * **Stable outcomes self-certify.** A perfect matching that is stable
//!   on `I_K` is stable on the full instance: a blocking pair would have
//!   both members preferring each other to partners they rank inside K,
//!   so the pair lies inside `I_K` and would block there. No escalation
//!   is ever needed for a solvable truncated attempt.
//! * **Unsolvable verdicts need a witness.** An emptied list in `I_K`
//!   proves nothing about the full instance (the cut may have caused
//!   it), so each attempt runs the engine core in its partition mode
//!   ([`crate::partition`]), which produces a stable-partition claim
//!   instead, and
//!   [`crate::partition::verify_partition`] re-checks it against the
//!   **full** oracle in O(n·K). A verified partition with an odd party
//!   (≥ 3) certifies that no complete stable matching exists (Tan);
//!   singleton parties mean the cut emptied a list, so the verdict is
//!   *not* trusted and the driver escalates.
//!
//! Contract (pinned by differential proptests in
//! `tests/prop_escalate.rs`): the solvable/unsolvable **verdict** always
//! equals the complete-list solve's; a certified matching is a genuine
//! stable matching of the full instance (possibly a different one than
//! the complete-list execution finds, since deletions differ); `stats`
//! and the unsolvable `culprit` are attempt-local (the culprit of a
//! partition certificate is the least member of its least-indexed odd
//! party). When the driver falls back to full width the result is
//! byte-equal to [`RoommatesWorkspace::solve`] by construction — it *is*
//! that solve.
//!
//! Every attempt runs the same core as [`RoommatesWorkspace::solve`], so
//! the observer of an escalating solve sees each attempt's proposals,
//! threshold stores, rotations and `irving.*` spans between its
//! `escalation_attempt` hooks, and [`solve_escalating_from`] alone reports
//! the one verdict (`solve_done`).

use kmatch_obs::{Metrics, NoMetrics};
use kmatch_prefs::{RoommatesOracle, TruncatedRoommates};

use crate::matching::RoommatesMatching;
use crate::partition::{partition_solve, verify_partition_on, TolerantOutcome};
use crate::solver::RoommatesOutcome;
use crate::workspace::{RoommatesWorkspace, NONE};

/// Which certificate settled the escalating solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertKind {
    /// A truncated stable outcome self-certified.
    Stable,
    /// A verified stable partition with an odd party certified the
    /// no-stable-matching verdict.
    Partition,
    /// Every truncated certificate failed; the full-width solve decided
    /// (byte-equal to the plain engine).
    FullWidth,
}

/// How an escalating solve ran: attempts, final cutoff, certificate, and
/// the cut-interaction counters of the deciding attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EscalationReport {
    /// Truncated attempts executed (0 when the initial cut already
    /// covered the widest list).
    pub attempts: u32,
    /// List cutoff of the deciding attempt (the widest row length for
    /// [`CertKind::FullWidth`]).
    pub final_cut: u32,
    /// The certificate that settled the verdict.
    pub cert: CertKind,
    /// Odd parties in the certified partition ([`CertKind::Partition`]
    /// only).
    pub odd_parties: u32,
    /// Singleton parties in the deciding partition claim (certified
    /// paths allow a handful of verified singletons; more force
    /// escalation).
    pub singletons: u32,
    /// Largest final phase-1 threshold (held-proposal rank) of the
    /// deciding attempt — how deep into the truncated lists phase 1
    /// actually reached.
    pub max_thresh: u32,
    /// Largest final phase-1 scan-cursor position of the deciding
    /// attempt.
    pub max_scan: u32,
    /// Phase-2 arena entries materialized by the deciding attempt.
    pub arena_entries: u64,
    /// Workspace buffer bytes (capacity) after the deciding attempt —
    /// the O(n·K) memory claim as a number.
    pub arena_bytes: usize,
}

/// Most singletons a partition claim may carry and still be worth
/// verifying: each singleton's T2 walk covers its whole (untruncated)
/// row, so this caps the verifier at O(n·K + 8n) probes.
const MAX_CERTIFIABLE_SINGLETONS: u32 = 8;

/// The default starting cutoff: `4 · max(32, ⌈4·√n⌉)`.
///
/// `max(32, ⌈4·√n⌉)` is where the expected mutual degree of a random
/// instance reaches ≈ 16, but phase 1 there still empties more lists
/// than the singleton budget allows, so an attempt at that cut aborts
/// in phase 1 and the schedule's ×4 step takes it to this cut anyway.
/// Starting here skips that doomed attempt; it decides on random
/// instances with partner ranks concentrated at Θ(√n) (Mertens), and
/// attempt cost stays O(n^1.5). On complete lists with n ≤ 261 the cut
/// covers every row and the driver goes straight to the full-width
/// solve.
pub fn default_initial_cut(n: usize) -> u32 {
    ((4.0 * (n as f64).sqrt()).ceil() as u32).max(32) * 4
}

/// [`solve_escalating`] with metric hooks: per-attempt
/// [`Metrics::escalation_attempt`] followed by the attempt's engine
/// counters and spans (as [`RoommatesWorkspace::solve_metered`] reports
/// them), certificate counters, and one [`Metrics::solve_done`] for the
/// final verdict.
pub fn solve_escalating_metered<I: RoommatesOracle, M: Metrics>(
    inst: &I,
    ws: &mut RoommatesWorkspace,
    metrics: &mut M,
) -> (RoommatesOutcome, EscalationReport) {
    solve_escalating_from(inst, ws, default_initial_cut(inst.n()), metrics)
}

/// Escalating truncated solve with the default schedule. See the module
/// docs for the certificate semantics and result contract.
pub fn solve_escalating<I: RoommatesOracle>(
    inst: &I,
    ws: &mut RoommatesWorkspace,
) -> (RoommatesOutcome, EscalationReport) {
    solve_escalating_metered(inst, ws, &mut NoMetrics)
}

/// Escalating solve from an explicit starting cutoff (tests force small
/// cuts to exercise the escalation path on small instances).
pub fn solve_escalating_from<I: RoommatesOracle, M: Metrics>(
    inst: &I,
    ws: &mut RoommatesWorkspace,
    initial_cut: u32,
    metrics: &mut M,
) -> (RoommatesOutcome, EscalationReport) {
    let n = inst.n();
    let full = (0..n as u32).map(|p| inst.row_len(p)).max().unwrap_or(0);
    let mut cut = initial_cut.max(1);
    let mut attempts = 0u32;
    let mut last_singletons = 0u32;

    while cut < full {
        attempts += 1;
        metrics.escalation_attempt(cut);
        let truncated = TruncatedRoommates::new(inst, cut);
        match partition_solve(&truncated, ws, MAX_CERTIFIABLE_SINGLETONS, metrics) {
            TolerantOutcome::Perfect { partner, stats } => {
                metrics.certified_stable();
                metrics.solve_done(true, stats.proposals);
                let report = report_from(ws, attempts, cut, CertKind::Stable, 0, 0);
                let outcome = RoommatesOutcome::Stable {
                    matching: RoommatesMatching::new(partner),
                    stats,
                };
                return (outcome, report);
            }
            TolerantOutcome::Partition { partition, stats } => {
                last_singletons = partition.singletons;
                // A verified singleton is a sound witness too (that agent
                // is unmatched in every stable matching), but each one
                // costs an O(row_len) verification walk — and a flood of
                // singletons means the cut emptied lists wholesale, so the
                // claim would fail anyway. Only try to certify when the
                // partition has an odd-size party and few singletons.
                if (partition.odd_parties >= 1 || partition.singletons >= 1)
                    && partition.singletons <= MAX_CERTIFIABLE_SINGLETONS
                    && {
                        metrics.phase_enter(kmatch_obs::phase::VERIFY);
                        verify_partition_on(inst, &partition.pi, ws.threads)
                    }
                {
                    metrics.certified_unsolvable();
                    metrics.solve_done(false, stats.proposals);
                    let report = report_from(
                        ws,
                        attempts,
                        cut,
                        CertKind::Partition,
                        partition.odd_parties,
                        partition.singletons,
                    );
                    let outcome = RoommatesOutcome::NoStableMatching {
                        culprit: partition.first_odd_min,
                        stats,
                    };
                    return (outcome, report);
                }
            }
            TolerantOutcome::Abort {
                over_budget_in_phase1,
                ..
            } => {
                // Blowing the singleton budget before any rotation work
                // means the cut is far below the proposal thresholds —
                // doubling would buy another doomed (and not much
                // cheaper) attempt, so take the next doubling too. Any
                // skipped cut is only a schedule choice: certification
                // soundness never depends on which cuts were tried.
                if over_budget_in_phase1 {
                    cut = cut.saturating_mul(2);
                }
            }
        }
        cut = cut.saturating_mul(2);
    }

    // Full width: run the plain engine on the unwrapped oracle, so the
    // outcome (matching, verdict, culprit, stats) is
    // the complete-list solve, byte for byte.
    metrics.escalation_fullwidth();
    metrics.phase_enter(kmatch_obs::phase::FULLWIDTH);
    let outcome = ws.solve_metered(inst, metrics);
    let report = report_from(ws, attempts, full, CertKind::FullWidth, 0, last_singletons);
    (outcome, report)
}

/// Snapshot the deciding attempt's cut-interaction counters out of the
/// workspace.
fn report_from(
    ws: &RoommatesWorkspace,
    attempts: u32,
    final_cut: u32,
    cert: CertKind,
    odd_parties: u32,
    singletons: u32,
) -> EscalationReport {
    let mut max_thresh = 0u32;
    for &t in &ws.thresh {
        if t != NONE {
            max_thresh = max_thresh.max(t);
        }
    }
    let max_scan = ws.scan.iter().copied().max().unwrap_or(0);
    EscalationReport {
        attempts,
        final_cut,
        cert,
        odd_parties,
        singletons,
        max_thresh,
        max_scan,
        arena_entries: ws.entries.len() as u64,
        arena_bytes: ws.resident_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::is_roommates_stable;
    use crate::solver::solve_reference;
    use kmatch_prefs::gen::paper::{no_stable_roommates_4, section3b_left};
    use kmatch_prefs::gen::uniform::uniform_roommates;
    use kmatch_prefs::materialize_roommates;
    use kmatch_prefs::RandomRoommatesOracle;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn small_instances_take_the_fullwidth_path_byte_equal() {
        let mut ws = RoommatesWorkspace::new();
        let mut ws_ref = RoommatesWorkspace::new();
        for inst in [section3b_left(), no_stable_roommates_4()] {
            let (out, report) = solve_escalating(&inst, &mut ws);
            let plain = ws_ref.solve(&inst);
            assert_eq!(report.cert, CertKind::FullWidth);
            assert_eq!(report.attempts, 0);
            assert_eq!(out.matching(), plain.matching());
            assert_eq!(out.stats(), plain.stats());
        }
    }

    #[test]
    fn forced_small_cuts_agree_on_verdicts() {
        let mut rng = ChaCha8Rng::seed_from_u64(43);
        let mut ws = RoommatesWorkspace::new();
        let mut m = kmatch_obs::SolverMetrics::new();
        let mut certified = 0u32;
        for _ in 0..30 {
            for n in [16usize, 24, 32, 33] {
                let inst = uniform_roommates(n, &mut rng);
                let reference = solve_reference(&inst);
                let (out, report) = solve_escalating_from(&inst, &mut ws, 4, &mut m);
                assert_eq!(
                    out.matching().is_some(),
                    reference.matching().is_some(),
                    "escalating verdict must match the complete solve (n = {n})"
                );
                match report.cert {
                    CertKind::Stable => {
                        certified += 1;
                        assert!(is_roommates_stable(&inst, out.matching().unwrap()));
                        assert!(report.final_cut < n as u32 - 1);
                    }
                    CertKind::Partition => {
                        certified += 1;
                        assert!(out.matching().is_none());
                        assert!(report.odd_parties + report.singletons >= 1);
                        assert!(report.singletons <= 8);
                    }
                    CertKind::FullWidth => {
                        assert_eq!(out.matching(), reference.matching());
                        assert_eq!(out.stats(), reference.stats());
                    }
                }
            }
        }
        assert!(certified > 0, "some truncated attempt must certify");
        assert!(m.escalation_attempts > 0);
        assert_eq!(
            m.certified_stable + m.certified_unsolvable,
            certified as u64
        );
    }

    #[test]
    fn lazy_oracle_certified_runs_match_reference_verdicts() {
        let mut ws = RoommatesWorkspace::new();
        for n in [48usize, 64, 96] {
            for seed in 0..4u64 {
                let oracle = RandomRoommatesOracle::new(n, 7_700 + seed);
                let inst = materialize_roommates(&oracle);
                let reference = solve_reference(&inst);
                let (out, report) = solve_escalating_from(&oracle, &mut ws, 8, &mut NoMetrics);
                assert_eq!(out.matching().is_some(), reference.matching().is_some());
                if let Some(m) = out.matching() {
                    assert!(is_roommates_stable(&inst, m));
                }
                assert!(report.final_cut < n as u32);
                if report.cert != CertKind::FullWidth {
                    // The deciding attempt stayed inside its cut.
                    assert!(report.max_thresh < report.final_cut);
                }
            }
        }
    }

    #[test]
    fn default_cut_grows_like_sqrt_n() {
        assert_eq!(default_initial_cut(0), 128);
        assert_eq!(default_initial_cut(100), 160);
        assert_eq!(default_initial_cut(10_000), 1_600);
        assert_eq!(default_initial_cut(1_000_000), 16_000);
    }
}
