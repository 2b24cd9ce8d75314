//! Parallel binding executor on the stealing executor.
//!
//! Each `GS(i, j)` binding reads only the preference tables of genders `i`
//! and `j` and writes only its own pair list, so bindings with disjoint
//! gender pairs are embarrassingly parallel. The executor runs either the
//! whole edge set at once ([`parallel_bind`] — legal because binding
//! results never feed each other; only the final class merge is shared) or
//! round-by-round following a schedule ([`parallel_bind_scheduled`] —
//! the paper's PRAM discipline, where a gender's data is held exclusively
//! by one binding per round). Either way the edges are the tasks of the
//! crate's one batch runner, each worker reusing one [`WorkerScratch`].

use kmatch_core::binding::BindingOutcome;
use kmatch_core::{merge_edge_pairs, KAryMatching};
use kmatch_graph::{BindingTree, Schedule};
use kmatch_gs::GsStats;
use kmatch_obs::{Metrics, NoMetrics, StdClock};
use kmatch_prefs::{GenderId, KPartiteInstance, KPartitePairView, Member};

use crate::runner::{run_batch, Engine};
use crate::scratch::WorkerScratch;

/// Outcome of a parallel binding run.
#[derive(Debug, Clone)]
pub struct ParallelBindingOutcome {
    /// The stable k-ary matching (identical to the sequential result).
    pub matching: KAryMatching,
    /// Per-edge GS statistics in binding-tree edge order.
    pub per_edge: Vec<GsStats>,
    /// Number of barrier-separated rounds executed (1 for the unscheduled
    /// executor).
    pub rounds_executed: usize,
}

impl From<ParallelBindingOutcome> for BindingOutcome {
    fn from(p: ParallelBindingOutcome) -> Self {
        BindingOutcome {
            matching: p.matching,
            per_edge: p.per_edge,
        }
    }
}

/// One binding-tree edge `(i, j)` of an instance: the item a
/// [`WorkerScratch`] solves.
pub(crate) struct Edge<'a> {
    inst: &'a KPartiteInstance,
    idx: usize,
    genders: (u16, u16),
}

type EdgeResult = (usize, Vec<(u32, u32)>, GsStats);

impl Engine<Edge<'_>> for WorkerScratch {
    /// (edge index, global-id pairs, stats).
    type Outcome = EdgeResult;

    fn run<M: Metrics>(&mut self, edge: &Edge<'_>, obs: &mut M) -> EdgeResult {
        let (i, j) = edge.genders;
        let n = edge.inst.n() as u32;
        let view = KPartitePairView::new(edge.inst, GenderId(i), GenderId(j));
        // The CSR snapshot preserves lists and ranks exactly, so the
        // outcome (matching and stats) is identical to solving the view
        // directly.
        self.csr.load(&view);
        let out = self.ws.solve_metered(&self.csr, obs);
        let global = |gender: u16, index: u32| {
            Member {
                gender: GenderId(gender),
                index,
            }
            .global(n)
        };
        let pairs: Vec<(u32, u32)> = out
            .matching
            .pairs()
            .map(|(m, w)| (global(i, m), global(j, w)))
            .collect();
        (edge.idx, pairs, out.stats)
    }
}

/// The tree's edges as runner items, after checking that the tree spans
/// the instance's genders.
fn edges<'a>(inst: &'a KPartiteInstance, tree: &BindingTree) -> Vec<Edge<'a>> {
    assert_eq!(
        tree.k(),
        inst.k(),
        "binding tree must span the instance's genders"
    );
    tree.edges()
        .iter()
        .enumerate()
        .map(|(idx, &genders)| Edge { inst, idx, genders })
        .collect()
}

/// Bind the edges `picked` selects from `edges` as one executor batch.
fn bind_batch(
    edges: &[Edge<'_>],
    picked: impl Fn(usize) -> usize + Sync,
    len: usize,
    threads: usize,
    seed: u64,
) -> Vec<EdgeResult> {
    run_batch(
        len,
        |e| &edges[picked(e)],
        threads,
        seed,
        &StdClock::new(),
        |_| WorkerScratch::default(),
        |_| NoMetrics,
    )
    .outcomes
}

fn merge(
    inst: &KPartiteInstance,
    edge_count: usize,
    results: Vec<EdgeResult>,
    rounds_executed: usize,
) -> ParallelBindingOutcome {
    let (k, n) = (inst.k(), inst.n());
    let mut per_edge = vec![GsStats::default(); edge_count];
    let mut all_pairs = Vec::with_capacity(edge_count * n);
    for (idx, pairs, stats) in results {
        per_edge[idx] = stats;
        all_pairs.extend(pairs);
    }
    let matching = merge_edge_pairs(k, n, all_pairs);
    ParallelBindingOutcome {
        matching,
        per_edge,
        rounds_executed,
    }
}

/// Bind all tree edges concurrently with `threads` workers and steal seed
/// `seed`, then merge.
///
/// Result is identical to `kmatch_core::binding::bind_with_stats` for any
/// `threads` and `seed` — the union–find merge is order-insensitive and
/// each GS run is deterministic.
pub fn parallel_bind(
    inst: &KPartiteInstance,
    tree: &BindingTree,
    threads: usize,
    seed: u64,
) -> ParallelBindingOutcome {
    let edges = edges(inst, tree);
    let results = bind_batch(&edges, |e| e, edges.len(), threads, seed);
    merge(inst, edges.len(), results, 1)
}

/// Bind round-by-round following `schedule`: edges within a round run
/// concurrently on `threads` workers, rounds are separated by barriers —
/// the EREW PRAM discipline of Corollary 1.
pub fn parallel_bind_scheduled(
    inst: &KPartiteInstance,
    tree: &BindingTree,
    schedule: &Schedule,
    threads: usize,
    seed: u64,
) -> ParallelBindingOutcome {
    let edges = edges(inst, tree);
    let mut results: Vec<EdgeResult> = Vec::with_capacity(edges.len());
    for round in schedule.rounds() {
        results.extend(bind_batch(&edges, |r| round[r], round.len(), threads, seed));
    }
    merge(inst, edges.len(), results, schedule.depth())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmatch_core::binding::bind_with_stats;
    use kmatch_core::is_kary_stable;
    use kmatch_graph::prufer::random_tree;
    use kmatch_graph::schedule::{even_odd_path_schedule, tree_edge_coloring};
    use kmatch_prefs::gen::uniform::uniform_kpartite;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn parallel_equals_sequential() {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        for (k, n) in [(3usize, 8usize), (5, 6), (8, 4)] {
            let inst = uniform_kpartite(k, n, &mut rng);
            let tree = random_tree(k, &mut rng);
            let seq = bind_with_stats(&inst, &tree);
            let par = parallel_bind(&inst, &tree, 3, 0);
            assert_eq!(par.matching, seq.matching, "k={k}, n={n}");
            assert_eq!(par.per_edge, seq.per_edge);
        }
    }

    #[test]
    fn scheduled_equals_sequential() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        for k in [4usize, 6, 9] {
            let inst = uniform_kpartite(k, 5, &mut rng);
            let tree = random_tree(k, &mut rng);
            let schedule = tree_edge_coloring(&tree);
            let seq = bind_with_stats(&inst, &tree);
            let par = parallel_bind_scheduled(&inst, &tree, &schedule, 3, 0);
            assert_eq!(par.matching, seq.matching);
            assert_eq!(par.rounds_executed, tree.max_degree());
        }
    }

    #[test]
    fn even_odd_executes_two_rounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(43);
        let inst = uniform_kpartite(7, 6, &mut rng);
        let tree = BindingTree::path(7);
        let schedule = even_odd_path_schedule(&tree).unwrap();
        let par = parallel_bind_scheduled(&inst, &tree, &schedule, 3, 0);
        assert_eq!(par.rounds_executed, 2, "Corollary 2");
        assert_eq!(par.matching, bind_with_stats(&inst, &tree).matching);
    }

    #[test]
    fn parallel_output_is_stable() {
        let mut rng = ChaCha8Rng::seed_from_u64(44);
        let inst = uniform_kpartite(4, 5, &mut rng);
        let tree = BindingTree::star(4, 3);
        let par = parallel_bind(&inst, &tree, 3, 0);
        assert!(is_kary_stable(&inst, &par.matching));
    }

    #[test]
    fn outcome_converts_to_binding_outcome() {
        let mut rng = ChaCha8Rng::seed_from_u64(45);
        let inst = uniform_kpartite(3, 4, &mut rng);
        let tree = BindingTree::path(3);
        let par = parallel_bind(&inst, &tree, 3, 0);
        let total: u64 = par.per_edge.iter().map(|s| s.proposals).sum();
        let bo: BindingOutcome = par.into();
        assert_eq!(bo.total_proposals(), total);
    }
}
