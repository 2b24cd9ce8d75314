//! Integration tests for the §VII future-work extensions.

use kmatch::core::{
    is_partition_stable, is_quorum_stable, partitioned_bind, stability_threshold, GenderPartition,
};
use kmatch::prelude::*;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn quorum_chain_full_condition_endpoint() {
    // q = k coincides with §II-C stability; Algorithm 1 satisfies it.
    for seed in 0..10u64 {
        let inst = kmatch::gen::uniform_kpartite(3, 3, &mut ChaCha8Rng::seed_from_u64(seed));
        let m = bind(&inst, &BindingTree::path(3));
        assert!(is_quorum_stable(&inst, &m, 3));
        assert_eq!(is_quorum_stable(&inst, &m, 3), is_kary_stable(&inst, &m));
        let t = stability_threshold(&inst, &m).unwrap();
        assert!((1..=3).contains(&t));
    }
}

#[test]
fn partitioned_families_satisfy_counting_constraint() {
    // §VII: c·k = n·k′.
    for (k_total, k, n) in [(4usize, 2usize, 6usize), (6, 2, 5), (6, 3, 5), (8, 4, 3)] {
        let inst = kmatch::gen::uniform_kpartite(
            k_total,
            n,
            &mut ChaCha8Rng::seed_from_u64((k_total * 31 + k) as u64),
        );
        let partition = GenderPartition::contiguous(k_total, k);
        let out = partitioned_bind(&inst, &partition);
        assert_eq!(out.families.len() * k, n * k_total);
        assert!(is_partition_stable(&inst, &partition, &out));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Quorum stability is monotone in q, and q = k always holds for
    /// Algorithm 1 (Theorem 2 endpoint).
    #[test]
    fn quorum_monotonicity(seed in 0u64..1_000_000, k in 2usize..4, n in 2usize..4) {
        let inst = kmatch::gen::uniform_kpartite(k, n, &mut ChaCha8Rng::seed_from_u64(seed));
        let m = bind(&inst, &BindingTree::path(k));
        let stable: Vec<bool> = (1..=k).map(|q| is_quorum_stable(&inst, &m, q)).collect();
        for w in stable.windows(2) {
            prop_assert!(!w[0] || w[1], "monotone in q");
        }
        prop_assert!(stable[k - 1], "q = k is Theorem 2");
    }

    /// Partitioned binding always yields a member-exact partition with
    /// block-stable families.
    #[test]
    fn partitioned_always_block_stable(seed in 0u64..1_000_000, blocks in 2usize..4, k in 2usize..4, n in 1usize..5) {
        let k_total = blocks * k;
        let inst = kmatch::gen::uniform_kpartite(k_total, n, &mut ChaCha8Rng::seed_from_u64(seed));
        let partition = GenderPartition::contiguous(k_total, k);
        let out = partitioned_bind(&inst, &partition);
        prop_assert_eq!(out.families.len(), n * blocks);
        prop_assert!(is_partition_stable(&inst, &partition, &out));
        let mut seen = std::collections::HashSet::new();
        for f in &out.families {
            for &m in &f.members {
                prop_assert!(seen.insert(m));
            }
        }
        prop_assert_eq!(seen.len(), k_total * n);
    }
}
