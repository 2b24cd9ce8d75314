//! Differential stress tester: hammers every solver pair that must agree,
//! on freshly-random instances, until the time budget runs out.
//!
//! ```text
//! cargo run -p kmatch-bench --bin stress --release [-- --seconds 30] [--seed 0]
//! ```
//!
//! Checks per iteration (all fatal on disagreement):
//! 1. GS == McVitie–Wilson == distributed GS (matching + proposal count);
//! 2. Algorithm 1 output stable (pruned DFS) == naive exhaustive witness,
//!    also on an arbitrary matching, and parallel/distributed executors
//!    equal sequential;
//! 3. Irving == brute force existence on small roommates instances, and
//!    the zero-alloc fast path (reused workspace) == `solve_reference`
//!    on larger ones (matching, certificate, proposal/rotation counts);
//! 4. weak-blocking DFS == naive weak enumeration;
//! 5. blossom maximum matching == greedy lower bound sanity + symmetry.

use std::time::{Duration, Instant};

use kmatch_core::theorems::acceptability_graph;
use kmatch_core::{
    bind_with_stats, find_blocking_family, find_blocking_family_naive, find_weak_blocking_family,
    find_weak_blocking_family_naive, GenderPriorities, KAryMatching,
};
use kmatch_distsim::{distributed_bind, distributed_gale_shapley};
use kmatch_graph::{maximum_matching, random_tree, tree_edge_coloring};
use kmatch_gs::{gale_shapley, mcvitie_wilson};
use kmatch_parallel::{default_threads, parallel_bind, steal_seed};
use kmatch_prefs::gen::uniform::{uniform_bipartite, uniform_kpartite, uniform_roommates};
use kmatch_roommates::brute::stable_matching_exists_brute;
use kmatch_roommates::{solve, solve_reference, RoommatesWorkspace};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seconds: u64 = args
        .iter()
        .position(|a| a == "--seconds")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);
    let seed: u64 = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);

    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut iterations = 0u64;
    let mut checks = 0u64;
    // Shared across iterations so the differential check also exercises
    // workspace reuse over mixed instance sizes.
    let mut roommates_ws = RoommatesWorkspace::new();

    while Instant::now() < deadline {
        iterations += 1;

        // 1. Engine agreement on a random SMP.
        let n = rng.gen_range(1..=40);
        let smp = uniform_bipartite(n, &mut rng);
        let a = gale_shapley(&smp);
        let b = mcvitie_wilson(&smp);
        let c = distributed_gale_shapley(&smp);
        assert_eq!(a.matching, b.matching, "GS vs McVitie (n={n})");
        assert_eq!(a.matching, c.matching, "GS vs distributed (n={n})");
        assert_eq!(a.stats.proposals, c.proposals, "proposal counts (n={n})");
        checks += 3;

        // 2. Binding executors agree; DFS verdict == naive (small sizes).
        let k = rng.gen_range(2..=5);
        let kn = rng.gen_range(1..=4);
        let inst = uniform_kpartite(k, kn, &mut rng);
        let tree = random_tree(k, &mut rng);
        let seq = bind_with_stats(&inst, &tree);
        assert_eq!(
            parallel_bind(&inst, &tree, default_threads(), steal_seed()).matching,
            seq.matching,
            "parallel bind (k={k})"
        );
        let schedule = tree_edge_coloring(&tree);
        assert_eq!(
            distributed_bind(&inst, &tree, &schedule).matching,
            seq.matching,
            "distributed bind (k={k})"
        );
        let dfs = find_blocking_family(&inst, &seq.matching);
        let naive = find_blocking_family_naive(&inst, &seq.matching);
        assert_eq!(dfs, naive, "blocking DFS vs naive (k={k}, n={kn})");
        assert!(dfs.is_none(), "Theorem 2 violated (k={k}, n={kn})");
        // A cyclic-shift matching: both searches name the same least
        // blocking tuple, or none.
        let shift = rng.gen_range(0..kn) as u32;
        let tuples: Vec<Vec<u32>> = (0..kn as u32)
            .map(|f| (0..k as u32).map(|g| (f + g * shift) % kn as u32).collect())
            .collect();
        let shifted = KAryMatching::from_tuples(k, kn, &tuples);
        assert_eq!(
            find_blocking_family(&inst, &shifted),
            find_blocking_family_naive(&inst, &shifted),
            "blocking DFS vs naive on a shifted matching (k={k}, n={kn})"
        );
        let pr = GenderPriorities::by_id(k);
        assert_eq!(
            find_weak_blocking_family(&inst, &seq.matching, &pr).is_some(),
            find_weak_blocking_family_naive(&inst, &seq.matching, &pr).is_some(),
            "weak DFS vs naive (k={k}, n={kn})"
        );
        checks += 6;

        // 3. Irving vs brute force on small roommates, and the linked-list
        //    fast path (through the reused workspace) vs the reference
        //    implementation on larger ones.
        let rn = rng.gen_range(1..=4) * 2;
        let rm = uniform_roommates(rn, &mut rng);
        assert_eq!(
            solve(&rm).is_stable(),
            stable_matching_exists_brute(&rm),
            "Irving vs brute (n={rn})"
        );
        let dn = rng.gen_range(2..=48);
        let diff = uniform_roommates(dn, &mut rng);
        let fast = roommates_ws.solve(&diff);
        let reference = solve_reference(&diff);
        assert_eq!(
            fast.matching(),
            reference.matching(),
            "Irving fast path vs reference matching (n={dn})"
        );
        assert_eq!(
            fast.stats(),
            reference.stats(),
            "Irving fast path vs reference stats (n={dn})"
        );
        checks += 3;

        // 4. Blossom sanity on the roommates acceptability graph.
        let g = acceptability_graph(&rm);
        let mate = maximum_matching(&g);
        for v in 0..rn as u32 {
            let m = mate[v as usize];
            if m != u32::MAX {
                assert_eq!(mate[m as usize], v, "blossom symmetry");
            }
        }
        checks += 1;
    }

    println!("stress: {iterations} iterations, {checks} checks, 0 disagreements");
}
