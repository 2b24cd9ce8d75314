//! Differential property suite for the zero-allocation Irving fast path.
//!
//! The linked-list engine (fresh-workspace and reused-workspace) must be
//! *behaviorally indistinguishable* from `solve_reference` (the original
//! `ActiveTable` implementation, kept verbatim): identical stable matchings, identical no-stable-matching
//! certificates, identical proposal and rotation counts, on every
//! instance and under every rotation-seeding policy. All randomness is
//! seeded `rand_chacha` driven by the deterministic proptest case stream —
//! failures reproduce exactly.

use kmatch_gs::is_stable;
use kmatch_prefs::gen::uniform::{uniform_bipartite, uniform_roommates};
use kmatch_prefs::RoommatesInstance;
use kmatch_roommates::brute::stable_matching_exists_brute;
use kmatch_roommates::{
    fair_stable_marriage, is_roommates_stable, solve_reference, solve_with_reference,
    RoommatesOutcome, RoommatesWorkspace, RotationPolicy,
};
use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Assert the two outcomes agree on existence, matching, certificate, and
/// both instrumentation counters.
fn assert_equivalent(fast: &RoommatesOutcome, reference: &RoommatesOutcome) -> Result<(), String> {
    if fast.stats() != reference.stats() {
        return Err(format!(
            "stats diverge: fast {:?} vs reference {:?}",
            fast.stats(),
            reference.stats()
        ));
    }
    match (fast, reference) {
        (
            RoommatesOutcome::Stable { matching: a, .. },
            RoommatesOutcome::Stable { matching: b, .. },
        ) if a == b => Ok(()),
        (
            RoommatesOutcome::NoStableMatching { culprit: a, .. },
            RoommatesOutcome::NoStableMatching { culprit: b, .. },
        ) if a == b => Ok(()),
        _ => Err(format!("outcomes diverge: {fast:?} vs {reference:?}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    fn fast_path_equals_reference(n in 2usize..40, seed in 0u64..1 << 32) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let inst = uniform_roommates(n, &mut rng);
        let reference = solve_reference(&inst);
        let fast = RoommatesWorkspace::new().solve(&inst);
        prop_assert!(assert_equivalent(&fast, &reference).is_ok(),
            "{}", assert_equivalent(&fast, &reference).unwrap_err());
        if let Some(m) = fast.matching() {
            prop_assert!(is_roommates_stable(&inst, m));
        }
    }

    fn sided_policies_equal_reference(n in 2usize..16, seed in 0u64..1 << 32) {
        // Policy seeding is what fair_smp builds on — the monotone seed
        // cursors must replicate SeedState::pick choice for choice.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let smp = uniform_bipartite(n, &mut rng);
        let rm = RoommatesInstance::from_bipartite(&smp);
        let side: Vec<bool> = (0..2 * n).map(|p| p >= n).collect();
        let mut ws = RoommatesWorkspace::new();
        for policy in [
            RotationPolicy::AlternateSides { side: side.clone() },
            RotationPolicy::PreferSide { side: side.clone(), seed_from: false },
            RotationPolicy::PreferSide { side: side.clone(), seed_from: true },
        ] {
            let fast = ws.solve_with(&rm, &policy);
            let reference = solve_with_reference(&rm, policy);
            prop_assert!(assert_equivalent(&fast, &reference).is_ok(),
                "{}", assert_equivalent(&fast, &reference).unwrap_err());
        }
    }

    fn workspace_reuse_is_stateless(seed in 0u64..1 << 32) {
        // One workspace across a shrink/grow sequence of instances must
        // behave exactly like fresh solves.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut ws = RoommatesWorkspace::new();
        for _ in 0..6 {
            let n = rng.gen_range(2..32);
            let inst = uniform_roommates(n, &mut rng);
            let reference = solve_reference(&inst);
            let fast = ws.solve(&inst);
            prop_assert!(assert_equivalent(&fast, &reference).is_ok(),
                "{}", assert_equivalent(&fast, &reference).unwrap_err());
        }
    }

    fn solver_agrees_with_brute_force(n in 2usize..=10, seed in 0u64..1 << 32) {
        // Existence must match exhaustive enumeration, and any returned
        // matching must be verifiably stable.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let inst = uniform_roommates(n, &mut rng);
        let fast = RoommatesWorkspace::new().solve(&inst);
        prop_assert_eq!(fast.is_stable(), stable_matching_exists_brute(&inst));
        if let Some(m) = fast.matching() {
            prop_assert!(is_roommates_stable(&inst, m));
        }
    }

    fn fair_smp_outputs_are_stable_bipartite_matchings(n in 1usize..24, seed in 0u64..1 << 32) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let inst = uniform_bipartite(n, &mut rng);
        let out = fair_stable_marriage(&inst);
        prop_assert!(is_stable(&inst, &out.matching),
            "fair_stable_marriage produced an unstable matching at n = {}", n);
    }
}
