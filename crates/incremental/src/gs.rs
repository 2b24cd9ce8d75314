//! Incremental Gale–Shapley session.
//!
//! [`IncrementalGs`] holds a bipartite instance as one [`CsrPrefs`] arena
//! — the session's only copy of it — together with everything a re-solve
//! wants warm: the [`GsWorkspace`] holding the last deferred-acceptance
//! execution, a position-keyed content fingerprint, and a
//! content-addressed [`SolveCache`] of previously seen instance states.
//! A delta rewrites only the arena cells and fingerprint terms of its
//! changed window ([`CsrPrefs::apply_delta`],
//! [`crate::fingerprint::patch_delta`]), so an adjacent swap costs O(1)
//! however large n is.
//!
//! [`IncrementalGs::apply`] classifies each delta against the held
//! execution while the arena still holds the old row
//! ([`GsWorkspace::delta_is_dead`]): a *dead* delta leaves every probe of
//! that execution unchanged. A [`IncrementalGs::solve`] then resolves in
//! one of three tiers:
//!
//! 1. **cached** — the fingerprint has been solved before: the
//!    stored matching is cloned back, no engine work at all;
//! 2. **replay** — every delta since the engine last ran was dead: the
//!    held execution is the new instance's execution, so its matching is
//!    returned in O(n) without a proposal;
//! 3. **cold** — a live delta, or no previous execution: the strip
//!    kernel solves from scratch.
//!
//! All three produce the same proposer-optimal matching — tier 2 because
//! a cold solve of the new instance would run the identical execution,
//! tier 1 because the fingerprint is a content address of the full
//! instance.
//!
//! ## Deltas are CSR-only by design
//!
//! The delta pipeline stays pinned to materialized [`CsrPrefs`]: a
//! [`PrefDelta`] rewrites one stored row in place, which has no meaning
//! for the lazy `PrefOracle` backends of `kmatch-prefs` (their rows are
//! *computed*, so "edit row `m`" would require storing an override table —
//! exactly the O(n²) state the oracles exist to avoid). To run a lazy
//! instance through this session type, snapshot it first through the
//! explicit escape hatch — [`CsrPrefs::load_oracle`] /
//! [`kmatch_prefs::materialize_oracle`] — and edit the snapshot; the
//! `n ≤ CSR_MAX_N` guard on materialization is the knob that keeps the
//! snapshot affordable.

use kmatch_gs::{BipartiteMatching, GsOutcome, GsStats, GsWorkspace};
use kmatch_obs::{Metrics, NoMetrics};
use kmatch_prefs::{BipartiteInstance, CsrPrefs, DeltaSide, PrefDelta, PrefsError};
use kmatch_trace::span;

use crate::cache::SolveCache;
use crate::fingerprint::{bipartite_fingerprint, patch_delta, Fp};

/// A long-lived bipartite solving session accepting preference deltas.
pub struct IncrementalGs {
    /// The instance: the session's only copy of it.
    csr: CsrPrefs,
    ws: GsWorkspace,
    /// Position-keyed content fingerprint of `csr`.
    fp: Fp,
    cache: SolveCache<BipartiteMatching>,
    /// Whether a delta since the engine last ran was live for the
    /// execution `ws` holds (cache hits keep it: the workspace still
    /// holds that execution).
    live: bool,
    /// Responders whose rows dead deltas rewrote since the engine last
    /// ran; deduplicated whenever it outgrows `2n`, so a session that
    /// keeps revisiting cached states holds O(n) here.
    touched: Vec<u32>,
}

impl IncrementalGs {
    /// Start a session over `inst` with the default cache capacity.
    pub fn new(inst: BipartiteInstance) -> Self {
        Self::with_cache_capacity(inst, crate::cache::DEFAULT_CACHE_CAPACITY)
    }

    /// Start a session with an explicit solve-cache capacity. `inst` is
    /// snapshotted into the session's CSR arena and dropped.
    pub fn with_cache_capacity(inst: BipartiteInstance, capacity: usize) -> Self {
        let csr = CsrPrefs::from_prefs(&inst);
        drop(inst);
        let fp = bipartite_fingerprint(&csr);
        IncrementalGs {
            csr,
            ws: GsWorkspace::new(),
            fp,
            cache: SolveCache::new(capacity),
            live: false,
            touched: Vec::new(),
        }
    }

    /// The instance in its current (post-delta) state.
    pub fn instance(&self) -> &CsrPrefs {
        &self.csr
    }

    /// Members per side.
    pub fn n(&self) -> usize {
        self.csr.n()
    }

    /// The current 128-bit content fingerprint of the instance.
    pub fn fingerprint(&self) -> Fp {
        self.fp
    }

    /// Number of matchings currently cached.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Apply one preference delta: it is validated, classified dead or
    /// live against the held execution, and then the arena cells and the
    /// fingerprint of its changed window are rewritten — O(window) plus
    /// the O(n) a `SetRow` takes to read. A rejected delta leaves the
    /// session unchanged and returns the error
    /// [`BipartiteInstance::apply_delta`] would.
    pub fn apply(&mut self, delta: &PrefDelta) -> Result<(), PrefsError> {
        delta.validate(self.n())?;
        // The arena still holds the old row: classify and fingerprint
        // against it before patching.
        if !self.live {
            self.live = !self.ws.delta_is_dead(&self.csr, delta);
            if !self.live && delta.side() == DeltaSide::Responder {
                self.touched.push(delta.row());
                if self.touched.len() > 2 * self.n() {
                    self.touched.sort_unstable();
                    self.touched.dedup();
                }
            }
        }
        let old = match delta.side() {
            DeltaSide::Proposer => self.csr.proposer_list(delta.row()),
            DeltaSide::Responder => self.csr.responder_list(delta.row()),
        };
        self.fp = patch_delta(self.fp, old, delta);
        self.csr.apply_delta(delta)
    }

    /// Solve the current state — cached, replayed, or cold, whichever is
    /// cheapest (see the module docs).
    pub fn solve(&mut self) -> GsOutcome {
        self.solve_metered(&mut NoMetrics)
    }

    /// [`IncrementalGs::solve`] reporting to the observer `metrics`: every
    /// call records one [`Metrics::cache_lookup`] and a `cache.hit` or
    /// `cache.miss` instant; engine runs add the replay/fallback counters
    /// and spans of [`GsWorkspace::resolve`] (a `gs.warm.resolve` instant,
    /// or a `gs.warm.fallback` instant and the cold `gs.solve` span);
    /// insertions that push an older entry out record
    /// [`Metrics::cache_eviction`].
    pub fn solve_metered<M: Metrics>(&mut self, metrics: &mut M) -> GsOutcome {
        let key = self.fp;
        if let Some(matching) = self.cache.get(key) {
            metrics.cache_lookup(true);
            metrics.span_instant(span::CACHE_HIT, 0);
            return GsOutcome {
                matching: matching.clone(),
                stats: GsStats::default(),
            };
        }
        metrics.cache_lookup(false);
        metrics.span_instant(span::CACHE_MISS, 0);
        let out = self
            .ws
            .resolve(&self.csr, self.live, &self.touched, metrics);
        self.live = false;
        self.touched.clear();
        if self.cache.insert(key, out.matching.clone()) {
            metrics.cache_eviction();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmatch_gs::gale_shapley;
    use kmatch_obs::SolverMetrics;
    use kmatch_prefs::gen::uniform::uniform_bipartite;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_delta(n: usize, rng: &mut ChaCha8Rng) -> PrefDelta {
        let side = if rng.gen_bool(0.5) {
            DeltaSide::Proposer
        } else {
            DeltaSide::Responder
        };
        let row = rng.gen_range(0..n as u32);
        match rng.gen_range(0..3u32) {
            0 => {
                let mut prefs: Vec<u32> = (0..n as u32).collect();
                for i in (1..n).rev() {
                    prefs.swap(i, rng.gen_range(0..i + 1));
                }
                PrefDelta::SetRow { side, row, prefs }
            }
            1 => PrefDelta::Swap {
                side,
                row,
                a: rng.gen_range(0..n as u32),
                b: rng.gen_range(0..n as u32),
            },
            _ => PrefDelta::Splice {
                side,
                row,
                from: rng.gen_range(0..n as u32),
                to: rng.gen_range(0..n as u32),
            },
        }
    }

    #[test]
    fn session_tracks_cold_solver_across_delta_stream() {
        let mut rng = ChaCha8Rng::seed_from_u64(71);
        let inst = uniform_bipartite(24, &mut rng);
        let mut session = IncrementalGs::new(inst.clone());
        let mut shadow = inst;
        for _ in 0..40 {
            let delta = random_delta(24, &mut rng);
            session.apply(&delta).unwrap();
            shadow.apply_delta(&delta).unwrap();
            let out = session.solve();
            assert_eq!(out.matching, gale_shapley(&shadow).matching);
        }
    }

    #[test]
    fn undo_delta_hits_the_cache() {
        let mut rng = ChaCha8Rng::seed_from_u64(72);
        let inst = uniform_bipartite(16, &mut rng);
        let mut session = IncrementalGs::new(inst);
        let mut m = SolverMetrics::new();
        let first = session.solve_metered(&mut m);
        // Swap two entries and solve, then swap them back: the original
        // fingerprint recurs and the stored matching comes straight back.
        let swap = PrefDelta::Swap {
            side: DeltaSide::Proposer,
            row: 3,
            a: 0,
            b: 5,
        };
        session.apply(&swap).unwrap();
        session.solve_metered(&mut m);
        session.apply(&swap).unwrap();
        let again = session.solve_metered(&mut m);
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.cache_misses, 2);
        assert_eq!(again.matching, first.matching);
        assert_eq!(again.stats, GsStats::default(), "no engine work on a hit");
    }

    #[test]
    fn solve_after_cache_hit_still_matches_cold() {
        // A cache hit leaves the workspace one revision behind; the next
        // miss must still classify correctly across the deltas since.
        let mut rng = ChaCha8Rng::seed_from_u64(73);
        let inst = uniform_bipartite(20, &mut rng);
        let mut session = IncrementalGs::new(inst.clone());
        session.solve();
        let swap = PrefDelta::Swap {
            side: DeltaSide::Responder,
            row: 7,
            a: 1,
            b: 9,
        };
        session.apply(&swap).unwrap();
        session.solve();
        session.apply(&swap).unwrap();
        session.solve(); // cache hit — engine state is now stale
        let fresh = random_delta(20, &mut rng);
        session.apply(&fresh).unwrap();
        let mut shadow = inst;
        shadow.apply_delta(&fresh).unwrap();
        assert_eq!(session.solve().matching, gale_shapley(&shadow).matching);
    }

    #[test]
    fn session_state_stays_bounded_across_cache_hits() {
        // Alternate between two cached states through a dead responder
        // delta: every solve is a hit, so no engine run ever drains the
        // session state, which must still stay O(n).
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let n = 12usize;
        let inst = uniform_bipartite(n, &mut rng);
        let mut session = IncrementalGs::new(inst.clone());
        session.solve();
        let swap = (0..n as u32)
            .flat_map(|row| {
                (1..n as u32).map(move |b| PrefDelta::Swap {
                    side: DeltaSide::Responder,
                    row,
                    a: b - 1,
                    b,
                })
            })
            .find(|d| session.ws.delta_is_dead(&session.csr, d))
            .expect("some adjacent responder swap misses every S_w pair");
        let mut m = SolverMetrics::new();
        session.apply(&swap).unwrap();
        session.solve_metered(&mut m);
        assert_eq!(m.warm_solves, 1, "the dead swap replays");
        for _ in 0..10_000 {
            session.apply(&swap).unwrap();
            session.solve_metered(&mut m);
            assert!(!session.live);
            assert!(session.touched.len() <= 2 * n);
        }
        assert_eq!(m.cache_hits, 10_000);
        // The next miss still matches a cold solve of the current state.
        let mut shadow = inst;
        shadow.apply_delta(&swap).unwrap();
        let fresh = random_delta(n, &mut rng);
        session.apply(&fresh).unwrap();
        shadow.apply_delta(&fresh).unwrap();
        assert_eq!(session.solve().matching, gale_shapley(&shadow).matching);
        assert!(session.touched.is_empty());
    }

    #[test]
    fn eviction_fires_metric_and_bounds_cache() {
        let mut rng = ChaCha8Rng::seed_from_u64(74);
        let inst = uniform_bipartite(12, &mut rng);
        let mut session = IncrementalGs::with_cache_capacity(inst, 2);
        let mut m = SolverMetrics::new();
        for _ in 0..5 {
            let delta = random_delta(12, &mut rng);
            session.apply(&delta).unwrap();
            session.solve_metered(&mut m);
        }
        assert!(session.cache_len() <= 2);
        assert!(m.cache_evictions >= m.cache_misses.saturating_sub(2 + m.cache_hits));
    }

    #[test]
    fn incremental_fingerprint_matches_from_scratch() {
        let mut rng = ChaCha8Rng::seed_from_u64(76);
        let inst = uniform_bipartite(14, &mut rng);
        let mut session = IncrementalGs::new(inst);
        for _ in 0..20 {
            let delta = random_delta(14, &mut rng);
            session.apply(&delta).unwrap();
            assert_eq!(
                session.fingerprint(),
                crate::fingerprint::bipartite_fingerprint(session.instance()),
                "patched fingerprint must equal a full rehash"
            );
        }
    }

    #[test]
    fn rejected_delta_leaves_session_consistent() {
        let mut rng = ChaCha8Rng::seed_from_u64(75);
        let inst = uniform_bipartite(10, &mut rng);
        let mut session = IncrementalGs::new(inst.clone());
        session.solve();
        let fp = session.fingerprint();
        let arena = session.instance().clone();
        let mut bad = Vec::new();
        for side in [DeltaSide::Proposer, DeltaSide::Responder] {
            bad.extend([
                PrefDelta::Swap { side, row: 99, a: 0, b: 1 },
                PrefDelta::Swap { side, row: 2, a: 3, b: 10 },
                PrefDelta::Splice { side, row: 2, from: 11, to: 0 },
                PrefDelta::Splice { side, row: 2, from: 0, to: 10 },
                PrefDelta::SetRow { side, row: 10, prefs: (0..10).collect() },
                PrefDelta::SetRow { side, row: 4, prefs: vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 8] },
                PrefDelta::SetRow { side, row: 4, prefs: vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 10] },
                PrefDelta::SetRow { side, row: 4, prefs: (0..9).collect() },
            ]);
        }
        for delta in &bad {
            let expected = inst.clone().apply_delta(delta).unwrap_err();
            assert_eq!(session.apply(delta).unwrap_err(), expected, "{delta:?}");
            assert_eq!(session.fingerprint(), fp);
            assert!(session.instance() == &arena, "{delta:?} touched the arena");
            assert!(!session.live, "{delta:?} was classified");
        }
        let mut m = SolverMetrics::new();
        assert_eq!(session.solve_metered(&mut m).matching, gale_shapley(&inst).matching);
        assert_eq!(m.cache_hits, 1);
    }

    #[test]
    fn windowed_arena_and_fingerprint_match_a_rebuild() {
        // Every delta kind on both sides, including the no-op ones, must
        // leave the windowed arena equal to a fresh snapshot of an
        // independently edited instance (all five arena vectors) and the
        // patched fingerprint equal to a full recomputation.
        let mut rng = ChaCha8Rng::seed_from_u64(78);
        for n in [2usize, 3, 9, 16] {
            let inst = uniform_bipartite(n, &mut rng);
            let mut session = IncrementalGs::new(inst.clone());
            let mut shadow = inst;
            for step in 0..60 {
                let side = if step % 2 == 0 {
                    DeltaSide::Proposer
                } else {
                    DeltaSide::Responder
                };
                let row = rng.gen_range(0..n as u32);
                let a = rng.gen_range(0..n as u32);
                let current = match side {
                    DeltaSide::Proposer => shadow.proposer_list(row).to_vec(),
                    DeltaSide::Responder => shadow.responder_list(row).to_vec(),
                };
                let delta = match step % 6 {
                    0 => PrefDelta::SetRow { side, row, prefs: current },
                    1 => PrefDelta::Swap { side, row, a, b: a },
                    2 => PrefDelta::Splice { side, row, from: a, to: a },
                    _ => random_delta(n, &mut rng),
                };
                session.apply(&delta).unwrap();
                shadow.apply_delta(&delta).unwrap();
                assert!(
                    session.instance() == &CsrPrefs::from_prefs(&shadow),
                    "arena diverged after {delta:?}"
                );
                assert_eq!(
                    session.fingerprint(),
                    crate::fingerprint::bipartite_fingerprint(&shadow),
                    "fingerprint diverged after {delta:?}"
                );
            }
        }
    }
}
