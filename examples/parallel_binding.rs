//! Parallel binding (§IV-C): binding-tree topology determines the parallel
//! round count, and the even–odd path schedule completes in two rounds
//! regardless of k (Fig. 4, Corollary 2).
//!
//! ```text
//! cargo run --example parallel_binding --release
//! ```

use kmatch::parallel::{crew_cost, default_threads, erew_cost, replication_rounds, steal_seed};
use kmatch::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let (k, n) = (12usize, 64usize);
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let inst = kmatch::gen::uniform_kpartite(k, n, &mut rng);
    println!("instance: k = {k}, n = {n}\n");

    let topologies: Vec<(&str, BindingTree)> = vec![
        ("path", BindingTree::path(k)),
        ("balanced binary", BindingTree::balanced_binary(k)),
        ("star", BindingTree::star(k, 0)),
        ("random (Prüfer)", random_tree(k, &mut rng)),
    ];

    println!(
        "{:<16} {:>3} {:>8} {:>12} {:>12} {:>9}",
        "tree", "Δ", "rounds", "seq iters", "EREW iters", "speedup"
    );
    for (name, tree) in &topologies {
        // Run the real parallel executor with the Δ-round schedule; verify
        // it matches the sequential algorithm, then model the PRAM cost.
        let schedule = tree_edge_coloring(tree);
        let par = parallel_bind_scheduled(&inst, tree, &schedule, default_threads(), steal_seed());
        let seq = bind_with_stats(&inst, tree);
        assert_eq!(
            par.matching, seq.matching,
            "executor must match Algorithm 1"
        );

        let cost = erew_cost(tree, &par.per_edge, None);
        let seq_total = seq.total_proposals();
        println!(
            "{:<16} {:>3} {:>8} {:>12} {:>12} {:>8.2}x",
            name,
            tree.max_degree(),
            cost.depth(),
            seq_total,
            cost.total_iterations(),
            seq_total as f64 / cost.total_iterations() as f64,
        );
    }

    println!("\n== Corollary 2: the even–odd path schedule ==\n");
    let path = BindingTree::path(k);
    let even_odd = even_odd_path_schedule(&path).expect("path tree");
    let par = parallel_bind_scheduled(&inst, &path, &even_odd, default_threads(), steal_seed());
    let cost = erew_cost(&path, &par.per_edge, Some(&even_odd));
    println!(
        "k = {k}: {} bindings execute in exactly {} rounds ({} processors in the wide round)",
        k - 1,
        cost.depth(),
        cost.processors
    );

    println!("\n== CREW emulation via data replication ==\n");
    let star = BindingTree::star(k, 0);
    let out = bind_with_stats(&inst, &star);
    let crew = crew_cost(&star, &out.per_edge);
    println!(
        "star (Δ = {}): EREW needs {} rounds; CREW needs 1 round after \
         ⌈log₂ Δ⌉ = {} replication rounds",
        star.max_degree(),
        star.max_degree(),
        replication_rounds(star.max_degree()),
    );
    println!(
        "modeled CREW iterations: {} (vs {} sequential)",
        crew.total_iterations(),
        out.total_proposals()
    );
}
