//! Algorithm 1: the iterative binding GS algorithm.
//!
//! For each edge `(i, j)` of a spanning binding tree over the genders, run
//! `GS(i, j)` (gender `i` proposing); collect all resulting pairs; derive
//! the equivalence classes of "in the same matching tuple" (reflexive,
//! symmetric, transitive closure of the pair relation) — those classes are
//! the matching k-tuples.
//!
//! * Theorem 2: the result is always a perfect, stable k-ary matching.
//! * Theorem 3: at most `(k−1)·n²` proposals in total.
//! * §IV-B: different binding trees generally produce different stable
//!   matchings (there are `k^{k−2}` trees by Cayley's formula).

use kmatch_graph::{BindingTree, UnionFind};
use kmatch_gs::{gale_shapley, GsStats, GsWorkspace};
use kmatch_obs::Metrics;
use kmatch_prefs::{GenderId, KPartiteInstance, KPartitePairView, Member};
use kmatch_trace::span;

use crate::kary::KAryMatching;

/// Result of one run of Algorithm 1.
#[derive(Debug, Clone)]
pub struct BindingOutcome {
    /// The stable k-ary matching (Theorem 2).
    pub matching: KAryMatching,
    /// Per-edge GS statistics, in binding-tree edge order.
    pub per_edge: Vec<GsStats>,
}

impl BindingOutcome {
    /// Total proposals across all bindings — bounded by `(k−1)·n²`
    /// (Theorem 3).
    pub fn total_proposals(&self) -> u64 {
        self.per_edge.iter().map(|s| s.proposals).sum()
    }
}

/// Merge binding-edge pair lists — global member ids, as produced by
/// [`Member::global`] — into the k-ary matching they induce: the
/// reflexive–symmetric–transitive closure of "bound into the same tuple",
/// read off a union–find over the `k·n` members. This is the shared
/// epilogue of every binding front-end (serial, parallel, incremental).
pub fn merge_edge_pairs<I>(k: usize, n: usize, pairs: I) -> KAryMatching
where
    I: IntoIterator<Item = (u32, u32)>,
{
    let mut uf = UnionFind::new(k * n);
    for (a, b) in pairs {
        uf.union(a, b);
    }
    KAryMatching::from_classes(k, n, &uf.classes())
}

/// Run `GS(i, j)` for one binding edge and merge its pairs into the
/// union–find over global member ids.
pub(crate) fn bind_edge(
    inst: &KPartiteInstance,
    uf: &mut UnionFind,
    proposer: GenderId,
    responder: GenderId,
) -> GsStats {
    let n = inst.n() as u32;
    let view = KPartitePairView::new(inst, proposer, responder);
    let out = gale_shapley(&view);
    for (m, w) in out.matching.pairs() {
        let a = Member {
            gender: proposer,
            index: m,
        }
        .global(n);
        let b = Member {
            gender: responder,
            index: w,
        }
        .global(n);
        uf.union(a, b);
    }
    out.stats
}

/// Algorithm 1 with instrumentation: bind along `tree`, returning the
/// stable k-ary matching plus per-edge GS statistics.
///
/// # Panics
/// If the tree's gender count differs from the instance's.
pub fn bind_with_stats(inst: &KPartiteInstance, tree: &BindingTree) -> BindingOutcome {
    let (k, n) = (inst.k(), inst.n());
    assert_eq!(tree.k(), k, "binding tree must span the instance's genders");
    let mut uf = UnionFind::new(k * n);
    let per_edge: Vec<GsStats> = tree
        .edges()
        .iter()
        .map(|&(i, j)| bind_edge(inst, &mut uf, GenderId(i), GenderId(j)))
        .collect();
    let classes = uf.classes();
    let matching = KAryMatching::from_classes(k, n, &classes);
    BindingOutcome { matching, per_edge }
}

/// Algorithm 1, matching only.
///
/// ```
/// use kmatch_core::{bind, is_kary_stable};
/// use kmatch_graph::BindingTree;
/// use kmatch_prefs::gen::paper::fig3_tripartite;
///
/// let inst = fig3_tripartite();
/// // The paper's M−W, W−U binding yields (m,w,u), (m',w',u').
/// let tree = BindingTree::new(3, vec![(0, 1), (1, 2)]).unwrap();
/// let matching = bind(&inst, &tree);
/// assert_eq!(matching.to_tuples(), vec![vec![0, 0, 0], vec![1, 1, 1]]);
/// assert!(is_kary_stable(&inst, &matching)); // Theorem 2
/// ```
pub fn bind(inst: &KPartiteInstance, tree: &BindingTree) -> KAryMatching {
    bind_with_stats(inst, tree).matching
}

/// [`bind_with_stats`] reporting to the observer `metrics`: per-binding-edge
/// proposal counts feed [`Metrics::binding_edge`] (the
/// `proposals_per_edge` histogram), and the run ends with one
/// [`Metrics::theorem3_check`] of the total against the paper's
/// `(k−1)·n²` bound — so every metered k-ary run validates Theorem 3
/// empirically. The span timeline has one `bind.edge` span per binding
/// edge (arg = edge index in tree order), each enclosing the edge's
/// `gs.solve`/`gs.round` spans — the timeline form of Theorem 3's
/// per-edge decomposition. All bindings solve through one reused
/// [`GsWorkspace`], so the engine-level workspace fresh/reuse counters see
/// `k − 2` reuses per call after the first edge.
///
/// # Panics
/// If the tree's gender count differs from the instance's.
pub fn bind_metered<M: Metrics>(
    inst: &KPartiteInstance,
    tree: &BindingTree,
    metrics: &mut M,
) -> BindingOutcome {
    let (k, n) = (inst.k(), inst.n());
    assert_eq!(tree.k(), k, "binding tree must span the instance's genders");
    let mut uf = UnionFind::new(k * n);
    let mut ws = GsWorkspace::new();
    let per_edge: Vec<GsStats> = tree
        .edges()
        .iter()
        .enumerate()
        .map(|(e, &(i, j))| {
            let view = KPartitePairView::new(inst, GenderId(i), GenderId(j));
            metrics.span_begin(span::BIND_EDGE, e as u64);
            let out = ws.solve_metered(&view, metrics);
            for (m, w) in out.matching.pairs() {
                let a = Member {
                    gender: GenderId(i),
                    index: m,
                }
                .global(n as u32);
                let b = Member {
                    gender: GenderId(j),
                    index: w,
                }
                .global(n as u32);
                uf.union(a, b);
            }
            metrics.binding_edge(out.stats.proposals);
            metrics.span_end(span::BIND_EDGE);
            out.stats
        })
        .collect();
    let outcome = BindingOutcome {
        matching: KAryMatching::from_classes(k, n, &uf.classes()),
        per_edge,
    };
    let bound = ((k - 1) * n * n) as u64;
    metrics.theorem3_check(outcome.total_proposals(), bound);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::is_kary_stable;
    use kmatch_graph::prufer::{all_trees, random_tree};
    use kmatch_prefs::gen::paper::fig3_tripartite;
    use kmatch_prefs::gen::uniform::uniform_kpartite;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn fig3_mw_wu_binding_matches_paper() {
        // "Assume that the binding process is M−W and W−U. The former binds
        // m with w (and m' with w'), and the latter binds w with u (and w'
        // and u') to form ternary matchings (m,w,u) and (m',w',u')."
        let inst = fig3_tripartite();
        let tree = BindingTree::new(3, vec![(0, 1), (1, 2)]).unwrap();
        let m = bind(&inst, &tree);
        assert_eq!(m.to_tuples(), vec![vec![0, 0, 0], vec![1, 1, 1]]);
    }

    #[test]
    fn fig3_alternative_trees_match_section_4b() {
        let inst = fig3_tripartite();
        // "bindings M−U and U−W will generate a stable matching of
        // (m,w',u') and (m',w,u)"
        let tree = BindingTree::new(3, vec![(0, 2), (2, 1)]).unwrap();
        let m = bind(&inst, &tree);
        assert_eq!(m.to_tuples(), vec![vec![0, 1, 1], vec![1, 0, 0]]);
        // "while bindings M−U and M−W will generate a stable matching of
        // (m,w,u') and (m',w',u)"
        let tree = BindingTree::new(3, vec![(0, 2), (0, 1)]).unwrap();
        let m = bind(&inst, &tree);
        assert_eq!(m.to_tuples(), vec![vec![0, 0, 1], vec![1, 1, 0]]);
    }

    #[test]
    fn theorem2_stable_for_every_tree_small() {
        // Every one of the 3 binding trees on 3 genders (and all 16 on 4)
        // must give a stable matching.
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        for k in [3usize, 4] {
            let inst = uniform_kpartite(k, 3, &mut rng);
            for tree in all_trees(k, 50) {
                let m = bind(&inst, &tree);
                assert!(is_kary_stable(&inst, &m), "unstable for tree {tree}");
            }
        }
    }

    #[test]
    fn theorem3_proposal_bound() {
        let mut rng = ChaCha8Rng::seed_from_u64(24);
        for (k, n) in [(3usize, 8usize), (5, 16), (8, 10)] {
            let inst = uniform_kpartite(k, n, &mut rng);
            let tree = random_tree(k, &mut rng);
            let out = bind_with_stats(&inst, &tree);
            let bound = ((k - 1) * n * n) as u64;
            assert!(
                out.total_proposals() <= bound,
                "(k-1)n² = {bound} exceeded: {}",
                out.total_proposals()
            );
            assert!(
                out.total_proposals() >= ((k - 1) * n) as u64,
                "at least n per binding"
            );
        }
    }

    #[test]
    fn metered_binding_matches_plain_and_checks_theorem3() {
        use kmatch_obs::SolverMetrics;
        let mut rng = ChaCha8Rng::seed_from_u64(27);
        let mut m = SolverMetrics::new();
        for (k, n) in [(3usize, 8usize), (5, 12)] {
            let inst = uniform_kpartite(k, n, &mut rng);
            let tree = random_tree(k, &mut rng);
            let plain = bind_with_stats(&inst, &tree);
            let before = m.theorem3_checks;
            let metered = bind_metered(&inst, &tree, &mut m);
            assert_eq!(plain.matching.to_tuples(), metered.matching.to_tuples());
            assert_eq!(plain.per_edge, metered.per_edge);
            assert_eq!(m.theorem3_checks, before + 1);
            assert_eq!(m.theorem3_violations, 0, "Theorem 3 must hold");
        }
        // One histogram sample per binding edge: (3−1) + (5−1).
        assert_eq!(m.binding_edges, 6);
        assert_eq!(m.proposals_per_edge.count(), 6);
        assert_eq!(
            m.proposals,
            m.proposals_per_edge.sum(),
            "k-ary proposals all flow through binding edges"
        );
    }

    #[test]
    fn matching_is_perfect_partition() {
        let mut rng = ChaCha8Rng::seed_from_u64(25);
        let inst = uniform_kpartite(5, 12, &mut rng);
        let tree = BindingTree::path(5);
        let m = bind(&inst, &tree);
        // KAryMatching::from_classes already asserts the partition
        // property; double-check family count and membership here.
        assert_eq!(m.n(), 12);
        for f in m.family_ids() {
            assert_eq!(m.family(f).len(), 5);
        }
    }

    #[test]
    fn orientation_changes_outcome_not_stability() {
        // Reversing edge orientations flips proposer-optimality per edge:
        // possibly a different matching, always stable.
        let mut rng = ChaCha8Rng::seed_from_u64(26);
        let inst = uniform_kpartite(4, 6, &mut rng);
        let tree = BindingTree::path(4);
        let fwd = bind(&inst, &tree);
        let rev = bind(&inst, &tree.reversed());
        assert!(is_kary_stable(&inst, &fwd));
        assert!(is_kary_stable(&inst, &rev));
    }
}
