//! # kmatch-core — stable k-ary matching in k-partite graphs
//!
//! The primary contribution of *"Stable Matching Beyond Bipartite Graphs"*
//! (Wu, IPPS 2016): a **k-ary matching** groups the `k·n` members of a
//! balanced k-partite graph into `n` families of one member per gender, and
//! it is *stable* when no **blocking family** exists — no k-tuple whose
//! every member strictly prefers every cross-family member of the tuple to
//! the corresponding member of its current family (§II-C).
//!
//! * [`kary::KAryMatching`] — the matching representation.
//! * [`binding`] — **Algorithm 1**, the iterative binding GS algorithm:
//!   one Gale–Shapley pass per edge of a spanning *binding tree* over the
//!   genders, merged into families by the equivalence relation "in the same
//!   matching tuple". Theorem 2: always stable; Theorem 3: at most
//!   `(k−1)·n²` proposals.
//! * [`blocking`] — blocking-family search (the stability verifier), a
//!   DFS over the members' accept prefixes with exhaustive ground truth.
//! * [`weak`] — §IV-D's **weakened** blocking condition under a gender
//!   priority order (only each sub-family's *lead member* must prefer the
//!   change), its verifier, and **Algorithm 2**, the priority-based binding
//!   that defeats it via bitonic trees (Theorem 5).
//! * [`theorems`] — executable demonstrations of Theorem 1 (no stable
//!   *binary* matching for k > 2) and Theorem 4 (k − 1 bindings is tight).
//! * [`metrics`] — family-happiness metrics for the experiment harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binding;
pub mod blocking;
pub mod kary;
pub mod metrics;
pub mod optimize;
pub mod partitioned;
pub mod quorum;
pub mod theorems;
pub mod weak;

pub use binding::{bind, bind_metered, bind_with_stats, merge_edge_pairs, BindingOutcome};
pub use blocking::{
    find_blocking_family, find_blocking_family_naive, is_kary_stable, BlockingFamily,
};
pub use kary::{KAryMatching, MatchingError};
pub use metrics::{family_cost, FamilyCost};
pub use optimize::{exhaustive_best_tree, optimize_tree, TreeSearchOutcome};
pub use partitioned::{is_partition_stable, partitioned_bind, GenderPartition, PartitionedOutcome};
pub use quorum::{
    find_quorum_blocking_family, find_quorum_blocking_family_naive, is_quorum_stable,
    stability_threshold,
};
pub use theorems::{theorem1_verdict, Theorem1Verdict};
pub use weak::{
    all_priority_trees, find_weak_blocking_family, find_weak_blocking_family_naive,
    is_weakly_stable, priority_bind, priority_binding_tree, AttachChoice, GenderPriorities,
};
