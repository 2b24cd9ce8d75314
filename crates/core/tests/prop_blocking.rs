//! Differential property suite for the blocking-family verifier.
//!
//! `find_blocking_family` must return exactly what the exhaustive naive
//! enumerator returns: the same lexicographically least blocking tuple,
//! or `None` on both. Stable matchings produced by iterative binding and
//! arbitrary matchings are both checked, and bipartite instances at
//! n = 60..70 give arbitrary matchings whose partners sit deep in the
//! lists, so the DFS enumerates long accept prefixes. All randomness is
//! seeded `rand_chacha` driven by the deterministic proptest case stream.

use kmatch_core::{bind, find_blocking_family, find_blocking_family_naive, KAryMatching};
use kmatch_graph::random_tree;
use kmatch_prefs::gen::uniform::uniform_kpartite;
use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A uniformly random k-ary matching: one random permutation per gender,
/// family `f` holding the `f`-th element of each.
fn random_matching(k: usize, n: usize, rng: &mut ChaCha8Rng) -> KAryMatching {
    let mut perms: Vec<Vec<u32>> = Vec::with_capacity(k);
    for _ in 0..k {
        let mut p: Vec<u32> = (0..n as u32).collect();
        p.shuffle(rng);
        perms.push(p);
    }
    let tuples: Vec<Vec<u32>> = (0..n)
        .map(|f| (0..k).map(|g| perms[g][f]).collect())
        .collect();
    KAryMatching::from_tuples(k, n, &tuples)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    fn dfs_matches_naive_on_bound_matchings(k in 2usize..5, n in 1usize..5, seed in 0u64..1 << 32) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let inst = uniform_kpartite(k, n, &mut rng);
        let tree = random_tree(k, &mut rng);
        let matching = bind(&inst, &tree);
        let dfs = find_blocking_family(&inst, &matching);
        prop_assert_eq!(&dfs, &find_blocking_family_naive(&inst, &matching));
        // Theorem 2: iterative binding always yields a stable matching.
        prop_assert!(dfs.is_none());
    }

    fn dfs_matches_naive_on_arbitrary_matchings(k in 2usize..5, n in 1usize..5, seed in 0u64..1 << 32) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let inst = uniform_kpartite(k, n, &mut rng);
        let matching = random_matching(k, n, &mut rng);
        prop_assert_eq!(
            find_blocking_family(&inst, &matching),
            find_blocking_family_naive(&inst, &matching)
        );
    }

    fn dfs_matches_naive_on_long_prefixes(n in 60usize..70, seed in 0u64..1 << 32) {
        // Bipartite (k = 2): the naive enumerator is still tractable at
        // n² tuples.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let inst = uniform_kpartite(2, n, &mut rng);
        let matching = random_matching(2, n, &mut rng);
        prop_assert_eq!(
            find_blocking_family(&inst, &matching),
            find_blocking_family_naive(&inst, &matching)
        );
    }
}
