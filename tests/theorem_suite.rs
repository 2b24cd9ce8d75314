//! Theorem-by-theorem integration suite: each of the paper's formal claims
//! exercised across crates at sizes beyond the unit tests.

use kmatch::core::theorems::theorem1_verdict;
use kmatch::parallel::{crew_cost, erew_cost, replication_rounds};
use kmatch::prelude::*;
use kmatch::roommates::kpartite::solve_global_binary;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

#[test]
fn theorem1_grid() {
    // Perfect matching exists, stable binary matching does not, for all
    // k > 2 — exhaustive where feasible, Irving beyond.
    for (k, n) in [(3usize, 2usize), (4, 2), (5, 2), (3, 10), (4, 10), (7, 4)] {
        if (k * n) % 2 != 0 {
            continue;
        }
        let v = theorem1_verdict(k, n);
        assert!(v.perfect_exists, "k={k} n={n}");
        assert!(!v.stable_exists, "k={k} n={n}");
    }
}

#[test]
fn theorem2_stability_across_trees_and_sizes() {
    let mut r = rng(71);
    for (k, n) in [(3usize, 12usize), (5, 8), (7, 5), (10, 4)] {
        let inst = kmatch::gen::uniform_kpartite(k, n, &mut r);
        for _ in 0..5 {
            let tree = random_tree(k, &mut r);
            let m = bind(&inst, &tree);
            assert!(is_kary_stable(&inst, &m), "k={k} n={n} tree={tree}");
        }
    }
}

#[test]
fn theorem3_bound_is_respected_and_approached() {
    // Uniform instances sit well under (k-1)n²; fully-aligned master
    // lists drive each binding to ~n²/2.
    let mut r = rng(72);
    let (k, n) = (6usize, 40usize);
    let bound = ((k - 1) * n * n) as u64;
    let tree = BindingTree::path(k);

    let uniform = kmatch::gen::uniform_kpartite(k, n, &mut r);
    let u = bind_with_stats(&uniform, &tree).total_proposals();
    assert!(u <= bound);

    let master = kmatch::gen::master_list_kpartite(k, n, false);
    let m = bind_with_stats(&master, &tree).total_proposals();
    assert!(m <= bound);
    assert_eq!(
        m,
        ((k - 1) * n * (n + 1) / 2) as u64,
        "identical lists force serial dictatorship per binding"
    );
    assert!(m > u, "master lists are the adversarial workload");
}

#[test]
fn theorem4_tightness_both_directions() {
    use kmatch::core::theorems::{binding_class_sizes, underbinding_unstable_instance};
    // Over-binding: the §IV-B cycle with all three edges collapses.
    let inst = kmatch::gen::paper::theorem4_cycle_tripartite();
    assert_eq!(
        binding_class_sizes(&inst, &[(0, 1), (1, 2), (0, 2)]),
        vec![6]
    );
    // Under-binding: every completion of a 1-binding tripartite partial
    // matching is blockable.
    for completion in [vec![0u32, 1], vec![1, 0], vec![1, 2, 0], vec![3, 1, 0, 2]] {
        let (inst, matching) = underbinding_unstable_instance(&completion);
        assert!(
            !is_kary_stable(&inst, &matching),
            "completion {completion:?}"
        );
    }
}

#[test]
fn theorem5_bitonic_binding_weakly_stable_at_size() {
    let mut r = rng(73);
    let pr = GenderPriorities::by_id(5);
    for _ in 0..5 {
        let inst = kmatch::gen::uniform_kpartite(5, 4, &mut r);
        let (m, _) = priority_bind(&inst, &pr, AttachChoice::Chain);
        assert!(is_weakly_stable(&inst, &m, &pr));
        let (m, _) = priority_bind(&inst, &pr, AttachChoice::HighestPriority);
        assert!(is_weakly_stable(&inst, &m, &pr));
    }
}

#[test]
fn corollary1_erew_bound() {
    let mut r = rng(74);
    let (k, n) = (9usize, 20usize);
    let inst = kmatch::gen::uniform_kpartite(k, n, &mut r);
    for tree in [
        BindingTree::path(k),
        BindingTree::star(k, 4),
        BindingTree::balanced_binary(k),
    ] {
        let out = bind_with_stats(&inst, &tree);
        let cost = erew_cost(&tree, &out.per_edge, None);
        assert_eq!(cost.depth(), tree.max_degree(), "rounds = Δ");
        assert!(
            cost.total_iterations() <= (tree.max_degree() * n * n) as u64,
            "≤ Δn²"
        );
    }
}

#[test]
fn corollary2_even_odd_two_rounds_and_identical_output() {
    let mut r = rng(75);
    for k in [3usize, 5, 12, 33] {
        let inst = kmatch::gen::uniform_kpartite(k, 6, &mut r);
        let tree = BindingTree::path(k);
        let schedule = even_odd_path_schedule(&tree).unwrap();
        assert_eq!(schedule.depth(), 2);
        let par = parallel_bind_scheduled(&inst, &tree, &schedule, 2, 0);
        assert_eq!(par.matching, bind(&inst, &tree));
    }
}

#[test]
fn crew_emulation_replication_rounds() {
    let mut r = rng(76);
    let inst = kmatch::gen::uniform_kpartite(9, 6, &mut r);
    let tree = BindingTree::star(9, 0);
    let out = bind_with_stats(&inst, &tree);
    let cost = crew_cost(&tree, &out.per_edge);
    assert_eq!(cost.depth(), 1, "CREW: one GS round");
    assert_eq!(cost.replication_rounds, replication_rounds(8));
    assert_eq!(cost.replication_rounds, 3);
}

#[test]
fn cayley_and_factorial_counts() {
    use kmatch::graph::bitonic::bitonic_tree_count;
    use kmatch::graph::{all_trees, tree_count};
    for k in 2..=6usize {
        assert_eq!(all_trees(k, 2000).len() as u128, tree_count(k).unwrap());
        let pr = GenderPriorities::by_id(k);
        assert_eq!(
            kmatch::core::all_priority_trees(&pr).len() as u128,
            bitonic_tree_count(k).unwrap()
        );
    }
}

#[test]
fn self_matching_extension_also_unstable() {
    // §III-A end: allowing self-matching within a set does not rescue
    // stability. Model U-internal pairs as acceptable in the roommates
    // encoding and check the paper's example shape: one participant
    // despised by everyone still wrecks every matching.
    // (k=3, n=2 with full cross-gender + U-internal acceptability.)
    let lists: Vec<Vec<u32>> = vec![
        // m: w w' u u'    (participants: m=0 m'=1 w=2 w'=3 u=4 u'=5)
        vec![2, 3, 4, 5],
        vec![2, 3, 4, 5],
        vec![0, 1, 4, 5],
        vec![1, 0, 4, 5],
        // u, u' may also pair with each other (self-matching in U).
        vec![0, 1, 2, 3, 5],
        vec![0, 2, 3, 1, 4],
    ];
    let inst = RoommatesInstance::from_lists(lists).unwrap();
    // Exhaustive check and Irving must agree.
    let brute = !kmatch::roommates::brute::all_stable_roommates_matchings(&inst).is_empty();
    let solved = solve_global_binary(&inst, 2).is_stable();
    assert_eq!(brute, solved);
}
