//! Dirty-edge incremental k-ary rebinding.
//!
//! Algorithm 1 binds along a spanning tree: one `GS(i, j)` per tree edge,
//! then a union–find merge of all pair lists. Each edge's GS run reads
//! *only* the preference rows of genders `i` over `j` and `j` over `i` —
//! so when an update stream touches one gender pair, every other edge's
//! pair list is still exactly right. [`IncrementalBinder`] exploits that:
//! it fingerprints the two directed row sets behind each binding edge
//! (XOR-combined per direction, patched in O(n) per row rewrite), and a
//! [`IncrementalBinder::bind`] re-solves **only the edges whose
//! fingerprint changed**, reusing the cached pair lists everywhere else.
//! Only the (cheap, `O(k·n·α)`) union–find merge re-runs in full.
//!
//! For a single-gender-pair update on a (k−1)-edge tree this re-executes
//! ~`1/(k−1)` of the binding work; the per-edge metrics make the claim
//! checkable — clean edges record **zero proposals** via
//! [`Metrics::binding_edge`] and a `dirty = false`
//! [`Metrics::binding_edge_reuse`].

use kmatch_core::{merge_edge_pairs, BindingOutcome};
use kmatch_graph::BindingTree;
use kmatch_gs::{GsStats, GsWorkspace};
use kmatch_obs::{Metrics, NoMetrics};
use kmatch_prefs::{
    CsrPrefs, GenderId, KPartiteInstance, KPartitePairView, Member, PrefsError,
};
use kmatch_trace::span;

use crate::fingerprint::{hash_row_fp, mix, patch, Fp};

/// Cached state of one binding-tree edge: the fingerprint of the rows it
/// read when last solved, plus the pairs and stats that solve produced.
#[derive(Debug, Clone, Default)]
struct EdgeCache {
    /// Fingerprint of the edge's inputs at the last solve; `None` until
    /// the edge has been solved once.
    key: Option<Fp>,
    /// Global-id pairs of the edge's proposer-optimal matching.
    pairs: Vec<(u32, u32)>,
    /// Stats of the solve that produced `pairs`.
    stats: GsStats,
}

/// A k-partite binding session that re-solves only dirty edges.
pub struct IncrementalBinder {
    inst: KPartiteInstance,
    tree: BindingTree,
    /// Row fingerprints, indexed `(g·n + i)·k + h`: member `i` of gender
    /// `g`'s row over gender `h` (the diagonal `g == h` stays zero).
    row_fp: Vec<Fp>,
    /// Directed pair fingerprints, indexed `g·k + h`: XOR over the row
    /// fingerprints of all of gender `g`'s rows over gender `h`.
    dir_fp: Vec<Fp>,
    edges: Vec<EdgeCache>,
    ws: GsWorkspace,
    csr: CsrPrefs,
}

impl IncrementalBinder {
    /// Start a binding session for `inst` along `tree`. The first
    /// [`IncrementalBinder::bind`] solves every edge; later binds solve
    /// only what subsequent rewrites dirtied.
    ///
    /// # Panics
    /// If the tree's gender count differs from the instance's.
    pub fn new(inst: KPartiteInstance, tree: BindingTree) -> Self {
        let (k, n) = (inst.k(), inst.n());
        assert_eq!(tree.k(), k, "binding tree must span the instance's genders");
        let mut row_fp = vec![(0u64, 0u64); k * n * k];
        let mut dir_fp = vec![(0u64, 0u64); k * k];
        for g in 0..k as u16 {
            for h in 0..k as u16 {
                if g == h {
                    continue;
                }
                let d = g as usize * k + h as usize;
                for i in 0..n as u32 {
                    let m = Member {
                        gender: GenderId(g),
                        index: i,
                    };
                    let fp = hash_row_fp(Self::tag(k, g, i, h), inst.pref_list(m, GenderId(h)));
                    row_fp[(g as usize * n + i as usize) * k + h as usize] = fp;
                    dir_fp[d] = (dir_fp[d].0 ^ fp.0, dir_fp[d].1 ^ fp.1);
                }
            }
        }
        let edges = vec![EdgeCache::default(); tree.edges().len()];
        IncrementalBinder {
            inst,
            tree,
            row_fp,
            dir_fp,
            edges,
            ws: GsWorkspace::new(),
            csr: CsrPrefs::new(),
        }
    }

    fn tag(k: usize, g: u16, i: u32, h: u16) -> u64 {
        ((g as u64 * k as u64 + h as u64) << 32) | i as u64
    }

    /// The instance in its current (post-rewrite) state.
    pub fn instance(&self) -> &KPartiteInstance {
        &self.inst
    }

    /// The binding tree this session binds along.
    pub fn tree(&self) -> &BindingTree {
        &self.tree
    }

    /// Rewrite member `m`'s preference row over gender `h`, patching the
    /// affected directed-pair fingerprint in O(n). A rejected row leaves
    /// the session unchanged.
    pub fn set_pref_row(
        &mut self,
        m: Member,
        h: GenderId,
        row: &[u32],
    ) -> Result<(), PrefsError> {
        self.inst.set_pref_row(m, h, row)?;
        let (k, n) = (self.inst.k(), self.inst.n());
        let (g, i) = (m.gender.0, m.index);
        let idx = (g as usize * n + i as usize) * k + h.0 as usize;
        let new = hash_row_fp(Self::tag(k, g, i, h.0), self.inst.pref_list(m, h));
        let d = g as usize * k + h.0 as usize;
        self.dir_fp[d] = patch(self.dir_fp[d], self.row_fp[idx], new);
        self.row_fp[idx] = new;
        Ok(())
    }

    /// The current fingerprint of binding edge `(i, j)`: both directed
    /// row sets, direction-sensitively mixed (GS is proposer-asymmetric).
    fn edge_key(&self, i: u16, j: u16) -> Fp {
        let k = self.inst.k();
        let ij = self.dir_fp[i as usize * k + j as usize];
        let ji = self.dir_fp[j as usize * k + i as usize];
        (mix(mix(ij.0, ji.0), 1), mix(mix(ij.1, ji.1), 2))
    }

    /// Bind along the tree, re-solving only dirty edges.
    pub fn bind(&mut self) -> BindingOutcome {
        self.bind_metered(&mut NoMetrics)
    }

    /// [`IncrementalBinder::bind`] reporting to the observer `metrics`.
    ///
    /// Every edge records one [`Metrics::binding_edge_reuse`] (dirty or
    /// clean) and one [`Metrics::binding_edge`] proposal sample — **zero**
    /// for clean edges, which execute no GS work at all. The returned
    /// `per_edge` stats likewise report work actually executed this call,
    /// so a clean edge shows zero proposals and zero rounds. On the span
    /// timeline each edge gets a `bind.edge.dirty` or `bind.edge.clean`
    /// span (arg = edge index in tree order), and dirty edges enclose
    /// their GS re-solve's `gs.solve`/`gs.round` spans — clean spans are
    /// near-instant, making fingerprint reuse visible on the timeline.
    pub fn bind_metered<M: Metrics>(&mut self, metrics: &mut M) -> BindingOutcome {
        let n = self.inst.n() as u32;
        let (k, nn) = (self.inst.k(), self.inst.n());
        let mut per_edge = Vec::with_capacity(self.edges.len());
        let mut all_pairs: Vec<(u32, u32)> = Vec::with_capacity(self.edges.len() * nn);
        for (e, &(i, j)) in self.tree.edges().iter().enumerate() {
            let key = self.edge_key(i, j);
            let cached = &mut self.edges[e];
            let dirty = cached.key != Some(key);
            metrics.binding_edge_reuse(dirty);
            if dirty {
                metrics.span_begin(span::BIND_EDGE_DIRTY, e as u64);
                let view = KPartitePairView::new(&self.inst, GenderId(i), GenderId(j));
                self.csr.load(&view);
                let out = self.ws.solve_metered(&self.csr, metrics);
                cached.pairs.clear();
                cached.pairs.extend(out.matching.pairs().map(|(m, w)| {
                    (
                        Member {
                            gender: GenderId(i),
                            index: m,
                        }
                        .global(n),
                        Member {
                            gender: GenderId(j),
                            index: w,
                        }
                        .global(n),
                    )
                }));
                cached.stats = out.stats;
                cached.key = Some(key);
                metrics.binding_edge(out.stats.proposals);
                metrics.span_end(span::BIND_EDGE_DIRTY);
                per_edge.push(out.stats);
            } else {
                metrics.span_begin(span::BIND_EDGE_CLEAN, e as u64);
                metrics.binding_edge(0);
                metrics.span_end(span::BIND_EDGE_CLEAN);
                per_edge.push(GsStats::default());
            }
            all_pairs.extend_from_slice(&cached.pairs);
        }
        let matching = merge_edge_pairs(k, nn, all_pairs);
        BindingOutcome { matching, per_edge }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmatch_core::{bind_with_stats, is_kary_stable};
    use kmatch_graph::prufer::random_tree;
    use kmatch_obs::SolverMetrics;
    use kmatch_prefs::gen::uniform::uniform_kpartite;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn shuffled_row(n: usize, rng: &mut ChaCha8Rng) -> Vec<u32> {
        let mut row: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            row.swap(i, rng.gen_range(0..i + 1));
        }
        row
    }

    #[test]
    fn first_bind_equals_algorithm1() {
        let mut rng = ChaCha8Rng::seed_from_u64(91);
        for (k, n) in [(3usize, 8usize), (5, 6)] {
            let inst = uniform_kpartite(k, n, &mut rng);
            let tree = random_tree(k, &mut rng);
            let cold = bind_with_stats(&inst, &tree);
            let mut binder = IncrementalBinder::new(inst, tree);
            let out = binder.bind();
            assert_eq!(out.matching, cold.matching);
            assert_eq!(out.per_edge, cold.per_edge);
        }
    }

    #[test]
    fn one_pair_update_resolves_one_edge() {
        let mut rng = ChaCha8Rng::seed_from_u64(92);
        let (k, n) = (5usize, 8usize);
        let inst = uniform_kpartite(k, n, &mut rng);
        let tree = kmatch_graph::BindingTree::path(k);
        let mut binder = IncrementalBinder::new(inst, tree);
        binder.bind();
        // Rewrite one row of gender 2 over gender 3 — only path edge
        // (2, 3) reads that data.
        let row = shuffled_row(n, &mut rng);
        binder
            .set_pref_row(
                Member {
                    gender: GenderId(2),
                    index: 4,
                },
                GenderId(3),
                &row,
            )
            .unwrap();
        let mut m = SolverMetrics::new();
        let out = binder.bind_metered(&mut m);
        assert_eq!(m.edges_dirty, 1, "exactly one edge reads the dirty rows");
        assert_eq!(m.edges_clean, (k - 2) as u64);
        // Clean edges execute zero proposals — confirmed per edge.
        let dirty_edges: Vec<usize> = out
            .per_edge
            .iter()
            .enumerate()
            .filter(|(_, s)| s.proposals > 0)
            .map(|(e, _)| e)
            .collect();
        assert_eq!(dirty_edges.len(), 1);
        assert_eq!(binder.tree().edges()[dirty_edges[0]], (2, 3));
        // And the merged result is still exactly Algorithm 1's.
        let cold = bind_with_stats(binder.instance(), binder.tree());
        assert_eq!(out.matching, cold.matching);
    }

    #[test]
    fn rebind_with_no_updates_is_all_clean() {
        let mut rng = ChaCha8Rng::seed_from_u64(93);
        let inst = uniform_kpartite(4, 6, &mut rng);
        let tree = random_tree(4, &mut rng);
        let mut binder = IncrementalBinder::new(inst, tree);
        let first = binder.bind();
        let mut m = SolverMetrics::new();
        let again = binder.bind_metered(&mut m);
        assert_eq!(m.edges_dirty, 0);
        assert_eq!(m.edges_clean, 3);
        assert_eq!(m.proposals, 0, "no GS work on a fully clean rebind");
        assert_eq!(again.matching, first.matching);
    }

    #[test]
    fn random_update_stream_tracks_algorithm1() {
        let mut rng = ChaCha8Rng::seed_from_u64(94);
        let (k, n) = (4usize, 6usize);
        let inst = uniform_kpartite(k, n, &mut rng);
        let tree = random_tree(k, &mut rng);
        let mut binder = IncrementalBinder::new(inst, tree);
        for _ in 0..30 {
            let g = rng.gen_range(0..k as u16);
            let mut h = rng.gen_range(0..k as u16);
            if h == g {
                h = (h + 1) % k as u16;
            }
            let m = Member {
                gender: GenderId(g),
                index: rng.gen_range(0..n as u32),
            };
            let row = shuffled_row(n, &mut rng);
            binder.set_pref_row(m, GenderId(h), &row).unwrap();
            let out = binder.bind();
            let cold = bind_with_stats(binder.instance(), binder.tree());
            assert_eq!(out.matching, cold.matching);
            assert!(is_kary_stable(binder.instance(), &out.matching));
        }
    }

    #[test]
    fn update_off_tree_rows_leaves_all_edges_clean() {
        // A star tree centred on gender 0 never reads gender 1's rows
        // over gender 2, so rewriting them dirties nothing.
        let mut rng = ChaCha8Rng::seed_from_u64(95);
        let (k, n) = (4usize, 5usize);
        let inst = uniform_kpartite(k, n, &mut rng);
        let tree = kmatch_graph::BindingTree::star(k, 0);
        let mut binder = IncrementalBinder::new(inst, tree);
        binder.bind();
        let row = shuffled_row(n, &mut rng);
        binder
            .set_pref_row(
                Member {
                    gender: GenderId(1),
                    index: 0,
                },
                GenderId(2),
                &row,
            )
            .unwrap();
        let mut m = SolverMetrics::new();
        binder.bind_metered(&mut m);
        assert_eq!(m.edges_dirty, 0);
        assert_eq!(m.edges_clean, (k - 1) as u64);
    }
}
