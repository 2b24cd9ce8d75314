//! Content-addressed cached batch front-end.
//!
//! Batch workloads resubmit instances — parameter sweeps revisit
//! configurations, delta streams undo themselves — and GS is
//! deterministic, so an instance state solved once never needs solving
//! again. [`solve_batch_cached`] keys every instance by its 128-bit
//! content fingerprint (`kmatch_incremental::bipartite_fingerprint`) and
//! serves repeats straight from a caller-owned [`SolveCache`]; only the
//! missing instances go through the batch runner, metered and on the
//! stealing executor like [`crate::batch::solve_batch_stealing_metered`].
//! Hits, misses, and evictions land in the
//! [`BatchRegistry`]'s merged `SolverMetrics`, and the returned
//! [`CachedBatchOutcome`] carries the same counts for callers (the CLI
//! hit-rate printout) that do not drain the registry.

use kmatch_gs::{BipartiteMatching, GsOutcome, GsStats, GsWorkspace};
use kmatch_incremental::{bipartite_fingerprint, SolveCache};
use kmatch_obs::{BatchRegistry, Clock, Metrics, SolverMetrics};
use kmatch_prefs::{BipartitePrefs, ResponderListSlice};

use crate::runner::{absorb, run_batch};
use crate::steal::StealReport;

/// A cached batch solve: the outcomes plus this call's cache traffic.
#[derive(Debug)]
pub struct CachedBatchOutcome {
    /// Per-instance outcomes in input order. Cache hits report
    /// zeroed stats — no engine work was executed for them.
    pub outcomes: Vec<GsOutcome>,
    /// Instances served from the cache.
    pub hits: u64,
    /// Instances that had to be solved.
    pub misses: u64,
    /// The executor's account of solving the misses.
    pub executor: StealReport,
}

impl CachedBatchOutcome {
    /// Fraction of the batch served from the cache (0 for an empty batch).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Solve a batch through a caller-owned content-addressed cache.
///
/// Outcomes are in input order; a repeated instance (same preference
/// content, whether a literal resubmission or a delta stream that undid
/// itself) returns a clone of its cached proposer-optimal matching. The
/// cache outlives the call, so a sweep can thread one cache through many
/// batches. The misses are solved with `threads` workers and steal seed
/// `seed`; outcomes do not depend on either.
pub fn solve_batch_cached<P, C>(
    instances: &[P],
    threads: usize,
    seed: u64,
    cache: &mut SolveCache<BipartiteMatching>,
    registry: &BatchRegistry,
    clock: &C,
) -> CachedBatchOutcome
where
    P: BipartitePrefs + ResponderListSlice + Sync,
    C: Clock + Sync,
{
    let keys: Vec<(u64, u64)> = instances.iter().map(bipartite_fingerprint).collect();
    let mut shard = SolverMetrics::new();
    // First pass: split hits from misses, preserving input positions. A
    // key repeated *within* the batch is a miss only at its first
    // occurrence; later occurrences are hits served by that one solve.
    let mut outcomes: Vec<Option<GsOutcome>> = Vec::with_capacity(instances.len());
    let mut miss_idx: Vec<usize> = Vec::new();
    let mut first_seen: std::collections::HashSet<(u64, u64)> = std::collections::HashSet::new();
    let mut dup_idx: Vec<usize> = Vec::new();
    for (i, &key) in keys.iter().enumerate() {
        if let Some(matching) = cache.get(key) {
            shard.cache_lookup(true);
            outcomes.push(Some(GsOutcome {
                matching: matching.clone(),
                stats: GsStats::default(),
            }));
        } else if first_seen.insert(key) {
            shard.cache_lookup(false);
            outcomes.push(None);
            miss_idx.push(i);
        } else {
            shard.cache_lookup(true);
            outcomes.push(None);
            dup_idx.push(i);
        }
    }
    let hits = shard.cache_hits;
    let misses = shard.cache_misses;
    // Second pass: solve the misses on the executor.
    let run = run_batch(
        miss_idx.len(),
        |k| &instances[miss_idx[k]],
        threads,
        seed,
        clock,
        |_| GsWorkspace::new(),
        |_| SolverMetrics::new(),
    );
    absorb(registry, run.shards, &run.report);
    // Keep this batch's results aside for in-batch repeats — a tiny
    // cache may already have evicted an early key by the time a late
    // duplicate needs it.
    let mut solved_map: std::collections::HashMap<(u64, u64), BipartiteMatching> =
        std::collections::HashMap::with_capacity(miss_idx.len());
    for (&i, out) in miss_idx.iter().zip(run.outcomes) {
        if cache.insert(keys[i], out.matching.clone()) {
            shard.cache_eviction();
        }
        if !dup_idx.is_empty() {
            solved_map.insert(keys[i], out.matching.clone());
        }
        outcomes[i] = Some(out);
    }
    for i in dup_idx {
        let matching = solved_map
            .get(&keys[i])
            .expect("every duplicate's representative was solved")
            .clone();
        outcomes[i] = Some(GsOutcome {
            matching,
            stats: GsStats::default(),
        });
    }
    registry.absorb(shard);
    CachedBatchOutcome {
        outcomes: outcomes
            .into_iter()
            .map(|o| o.expect("every slot is a hit or a solved miss"))
            .collect(),
        hits,
        misses,
        executor: run.report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmatch_gs::gale_shapley;
    use kmatch_obs::ManualClock;
    use kmatch_prefs::gen::uniform::uniform_bipartite;
    use kmatch_prefs::BipartiteInstance;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn repeats_hit_and_agree_with_cold() {
        let mut rng = ChaCha8Rng::seed_from_u64(57);
        let distinct: Vec<BipartiteInstance> =
            (0..8).map(|_| uniform_bipartite(16, &mut rng)).collect();
        // Each instance appears three times.
        let batch: Vec<BipartiteInstance> = distinct
            .iter()
            .cycle()
            .take(24)
            .cloned()
            .collect();
        let mut cache = SolveCache::default();
        let registry = BatchRegistry::new();
        let out = solve_batch_cached(&batch, 2, 0, &mut cache, &registry, &ManualClock::new());
        assert_eq!(out.misses, 8, "first sighting of each instance solves");
        assert_eq!(out.hits, 16, "both repeats of each instance hit");
        assert!((out.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
        for (inst, o) in batch.iter().zip(&out.outcomes) {
            assert_eq!(o.matching, gale_shapley(inst).matching);
        }
        let merged = registry.take();
        assert_eq!(merged.cache_hits, 16);
        assert_eq!(merged.cache_misses, 8);
        assert_eq!(merged.solves, 8, "only misses reach the engine");
    }

    #[test]
    fn cache_persists_across_batches() {
        let mut rng = ChaCha8Rng::seed_from_u64(58);
        let batch: Vec<BipartiteInstance> =
            (0..6).map(|_| uniform_bipartite(12, &mut rng)).collect();
        let mut cache = SolveCache::default();
        let registry = BatchRegistry::new();
        let clock = ManualClock::new();
        let first = solve_batch_cached(&batch, 2, 0, &mut cache, &registry, &clock);
        assert_eq!(first.hits, 0);
        let second = solve_batch_cached(&batch, 2, 0, &mut cache, &registry, &clock);
        assert_eq!(second.hits, 6, "second batch is fully cached");
        assert_eq!(second.misses, 0);
        for (a, b) in first.outcomes.iter().zip(&second.outcomes) {
            assert_eq!(a.matching, b.matching);
        }
    }

    #[test]
    fn tiny_cache_evicts_and_stays_correct() {
        let mut rng = ChaCha8Rng::seed_from_u64(59);
        let batch: Vec<BipartiteInstance> =
            (0..10).map(|_| uniform_bipartite(10, &mut rng)).collect();
        let mut cache = SolveCache::new(3);
        let registry = BatchRegistry::new();
        let out = solve_batch_cached(&batch, 2, 0, &mut cache, &registry, &ManualClock::new());
        assert_eq!(out.misses, 10);
        assert!(cache.len() <= 3);
        let merged = registry.take();
        assert_eq!(merged.cache_evictions, 7);
        for (inst, o) in batch.iter().zip(&out.outcomes) {
            assert_eq!(o.matching, gale_shapley(inst).matching);
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let empty: Vec<BipartiteInstance> = Vec::new();
        let mut cache = SolveCache::default();
        let registry = BatchRegistry::new();
        let out = solve_batch_cached(&empty, 2, 0, &mut cache, &registry, &ManualClock::new());
        assert!(out.outcomes.is_empty());
        assert_eq!(out.hit_rate(), 0.0);
    }
}
