//! Differential property suite for the zero-allocation GS fast path.
//!
//! The workspace fast path and the CSR-arena path must
//! be *behaviorally indistinguishable* from `gale_shapley_reference` (the
//! seed implementation, kept verbatim): identical matchings, identical
//! proposal counts, identical round counts, on every instance. All
//! randomness is seeded `rand_chacha` driven by the deterministic proptest
//! case stream — failures reproduce exactly.

use kmatch_gs::{gale_shapley_reference, GsWorkspace};
use kmatch_prefs::gen::uniform::uniform_bipartite;
use kmatch_prefs::CsrPrefs;
use proptest::{prop_assert_eq, proptest, ProptestConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    fn fast_path_equals_reference(n in 1usize..48, seed in 0u64..1 << 32) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let inst = uniform_bipartite(n, &mut rng);
        let reference = gale_shapley_reference(&inst);
        let fast = GsWorkspace::new().solve(&inst);
        prop_assert_eq!(&fast.matching, &reference.matching);
        prop_assert_eq!(fast.stats, reference.stats);
    }

    fn csr_arena_equals_reference(n in 1usize..48, seed in 0u64..1 << 32) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let inst = uniform_bipartite(n, &mut rng);
        let reference = gale_shapley_reference(&inst);
        let csr = CsrPrefs::from_prefs(&inst);
        let fast = GsWorkspace::new().solve(&csr);
        prop_assert_eq!(&fast.matching, &reference.matching);
        prop_assert_eq!(fast.stats, reference.stats);
    }

    fn workspace_reuse_is_stateless(seed in 0u64..1 << 32) {
        // One workspace across a shrink/grow sequence of instances must
        // behave exactly like fresh solves.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut ws = GsWorkspace::new();
        let mut arena = CsrPrefs::new();
        for _ in 0..6 {
            let n = rng.gen_range(1..40);
            let inst = uniform_bipartite(n, &mut rng);
            let reference = gale_shapley_reference(&inst);
            let fast = ws.solve(&inst);
            prop_assert_eq!(&fast.matching, &reference.matching);
            prop_assert_eq!(fast.stats, reference.stats);
            arena.load(&inst);
            let via_arena = ws.solve(&arena);
            prop_assert_eq!(&via_arena.matching, &reference.matching);
            prop_assert_eq!(via_arena.stats, reference.stats);
        }
    }
}
