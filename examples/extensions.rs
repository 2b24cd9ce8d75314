//! The paper's §VII future-work directions, implemented as extensions:
//!
//! 1. **Quorum-relaxed blocking** — "explore quorum-based approaches to
//!    relax unstable conditions": a tuple blocks when ≥ q of its members
//!    are satisfied. Algorithm 1 guarantees q = k; smaller q erodes fast.
//! 2. **Partitioned k-ary matching in k′-partite graphs** — "a more
//!    general k-ary matching in k′-partite graphs, where k < k′ and
//!    ck = nk′": block-partition the genders, bind per block.
//!
//! ```text
//! cargo run -p kmatch --example extensions --release
//! ```

use kmatch::core::{
    is_partition_stable, is_quorum_stable, partitioned_bind, stability_threshold, GenderPartition,
};
use kmatch::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    println!("== 1. Quorum-relaxed blocking families ==\n");
    let (k, n) = (3usize, 4usize);
    let trials = 40u64;
    let mut stable_at = vec![0usize; k + 1];
    let mut thresholds = Vec::new();
    for seed in 0..trials {
        let inst = kmatch::gen::uniform_kpartite(k, n, &mut ChaCha8Rng::seed_from_u64(7000 + seed));
        let m = bind(&inst, &BindingTree::path(k));
        #[allow(clippy::needless_range_loop)]
        for q in 1..=k {
            if is_quorum_stable(&inst, &m, q) {
                stable_at[q] += 1;
            }
        }
        thresholds.push(stability_threshold(&inst, &m).expect("Theorem 2"));
    }
    println!("Algorithm 1 output on {trials} random k=3, n=4 instances:");
    for q in (1..=k).rev() {
        println!("  stable at quorum q = {q}: {:>2}/{trials}", stable_at[q]);
    }
    let mean_t: f64 = thresholds.iter().sum::<usize>() as f64 / trials as f64;
    println!("  mean stability threshold: {mean_t:.2} (k = {k} is the paper's condition)\n");

    println!("== 2. Partitioned k-ary matching in k'-partite graphs ==\n");
    let (k_total, k_block, n) = (6usize, 3usize, 4usize);
    let inst = kmatch::gen::uniform_kpartite(k_total, n, &mut ChaCha8Rng::seed_from_u64(42));
    let partition = GenderPartition::contiguous(k_total, k_block);
    let out = partitioned_bind(&inst, &partition);
    println!(
        "k' = {k_total} genders, blocks of k = {k_block}: c = {} families (c*k = n*k' = {})",
        out.families.len(),
        n * k_total
    );
    assert!(is_partition_stable(&inst, &partition, &out));
    println!("block-local stability verified; sample families:");
    for f in out.families.iter().take(4) {
        let members: Vec<String> = f.members.iter().map(|m| m.to_string()).collect();
        println!("  block {}: ({})", f.block, members.join(", "));
    }
}
