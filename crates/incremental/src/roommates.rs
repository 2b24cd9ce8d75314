//! Incremental stable-roommates session.
//!
//! [`IncrementalRoommates`] wraps a [`RoommatesInstance`] and its
//! [`RoommatesWorkspace`], recording every row rewrite as a
//! [`RoommatesRowDelta`] so a re-solve can go through
//! [`RoommatesWorkspace::resolve_delta`]: when the rewrite stays inside
//! the dead zone the previous execution never probed, the previous
//! outcome is replayed in O(n); any edit that could loosen a phase-1
//! threshold falls back to a cold solve (see `kmatch_roommates::warm` for
//! the execution-identity argument). On top of that sits the same
//! content-addressed [`SolveCache`] as the GS session — an instance state
//! seen before returns its stored outcome without touching the engine,
//! including *unsolvable* states, whose culprit certificate is cached too.

use kmatch_obs::{Metrics, NoMetrics};
use kmatch_prefs::{PrefsError, RoommatesInstance};
use kmatch_trace::span;
use kmatch_roommates::{
    RoommatesMatching, RoommatesOutcome, RoommatesRowDelta, RoommatesWorkspace, SolveStats,
};

use crate::cache::SolveCache;
use crate::fingerprint::{hash_row_fp, patch, Fp};

/// A cached roommates result: either a stable matching's partner array or
/// the unsolvability culprit, plus the stats of the run that produced it.
#[derive(Debug, Clone)]
struct CachedRoommates {
    stable: bool,
    partner: Vec<u32>,
    culprit: u32,
    stats: SolveStats,
}

impl CachedRoommates {
    fn of(outcome: &RoommatesOutcome) -> Self {
        match outcome {
            RoommatesOutcome::Stable { matching, stats } => CachedRoommates {
                stable: true,
                partner: matching.partners().to_vec(),
                culprit: 0,
                stats: *stats,
            },
            RoommatesOutcome::NoStableMatching { culprit, stats } => CachedRoommates {
                stable: false,
                partner: Vec::new(),
                culprit: *culprit,
                stats: *stats,
            },
        }
    }

    fn replay(&self) -> RoommatesOutcome {
        if self.stable {
            RoommatesOutcome::Stable {
                matching: RoommatesMatching::new(self.partner.clone()),
                stats: self.stats,
            }
        } else {
            RoommatesOutcome::NoStableMatching {
                culprit: self.culprit,
                stats: self.stats,
            }
        }
    }
}

/// A long-lived roommates solving session accepting row rewrites.
pub struct IncrementalRoommates {
    inst: RoommatesInstance,
    ws: RoommatesWorkspace,
    rows: Vec<Fp>,
    combined: Fp,
    cache: SolveCache<CachedRoommates>,
    /// For each participant rewritten since the engine last ran, its row
    /// as that run read it (cache hits keep them): at most one entry per
    /// participant, so a session that keeps revisiting cached states
    /// holds O(n) rows here.
    pending: Vec<RoommatesRowDelta>,
}

impl IncrementalRoommates {
    /// Start a session over `inst` with the default cache capacity.
    pub fn new(inst: RoommatesInstance) -> Self {
        Self::with_cache_capacity(inst, crate::cache::DEFAULT_CACHE_CAPACITY)
    }

    /// Start a session with an explicit solve-cache capacity.
    pub fn with_cache_capacity(inst: RoommatesInstance, capacity: usize) -> Self {
        let n = inst.n();
        let mut rows = Vec::with_capacity(n);
        let mut combined = (0u64, 0u64);
        for p in 0..n as u32 {
            let h = hash_row_fp(p as u64, inst.list(p));
            combined = (combined.0 ^ h.0, combined.1 ^ h.1);
            rows.push(h);
        }
        IncrementalRoommates {
            inst,
            ws: RoommatesWorkspace::new(),
            rows,
            combined,
            cache: SolveCache::new(capacity),
            pending: Vec::new(),
        }
    }

    /// The instance in its current (post-rewrite) state.
    pub fn instance(&self) -> &RoommatesInstance {
        &self.inst
    }

    /// The current 128-bit content fingerprint of the instance.
    pub fn fingerprint(&self) -> Fp {
        self.combined
    }

    /// Rewrite participant `p`'s preference row, capturing the row the
    /// engine last read (on `p`'s first rewrite since then) so the next
    /// solve can prove (or refute) dead-zone confinement. A rejected row
    /// leaves the session unchanged.
    pub fn set_row(&mut self, p: u32, row: &[u32]) -> Result<(), PrefsError> {
        let first = !self.pending.iter().any(|d| d.participant == p);
        let old_row = first.then(|| self.inst.list(p).to_vec());
        self.inst.set_row(p, row)?;
        let new = hash_row_fp(p as u64, self.inst.list(p));
        let idx = p as usize;
        self.combined = patch(self.combined, self.rows[idx], new);
        self.rows[idx] = new;
        if let Some(old_row) = old_row {
            self.pending.push(RoommatesRowDelta {
                participant: p,
                old_row,
            });
        }
        Ok(())
    }

    /// Solve the current state: cached replay, warm dead-zone replay, or
    /// cold Irving solve — whichever the state admits.
    pub fn solve(&mut self) -> RoommatesOutcome {
        self.solve_metered(&mut NoMetrics)
    }

    /// [`IncrementalRoommates::solve`] reporting to the observer `metrics`:
    /// one [`Metrics::cache_lookup`] and a `cache.hit` or `cache.miss`
    /// instant per call, the warm/cold counters and spans of
    /// [`RoommatesWorkspace::resolve_delta_metered`] on a miss
    /// (`irving.warm.resolve` / `irving.warm.fallback` instants plus the
    /// phase spans), and [`Metrics::cache_eviction`] on overflow.
    pub fn solve_metered<M: Metrics>(&mut self, metrics: &mut M) -> RoommatesOutcome {
        let key = self.combined;
        if let Some(cached) = self.cache.get(key) {
            metrics.cache_lookup(true);
            metrics.span_instant(span::CACHE_HIT, 0);
            return cached.replay();
        }
        metrics.cache_lookup(false);
        metrics.span_instant(span::CACHE_MISS, 0);
        let out = self
            .ws
            .resolve_delta_metered(&self.inst, &self.pending, metrics);
        self.pending.clear();
        if self.cache.insert(key, CachedRoommates::of(&out)) {
            metrics.cache_eviction();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmatch_obs::SolverMetrics;
    use kmatch_prefs::gen::paper::section3b_right;
    use kmatch_prefs::gen::uniform::uniform_roommates;
    use kmatch_roommates::solve;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn assert_same_outcome(a: &RoommatesOutcome, b: &RoommatesOutcome) {
        match (a, b) {
            (
                RoommatesOutcome::Stable { matching: x, .. },
                RoommatesOutcome::Stable { matching: y, .. },
            ) => assert_eq!(x, y),
            (
                RoommatesOutcome::NoStableMatching { culprit: x, .. },
                RoommatesOutcome::NoStableMatching { culprit: y, .. },
            ) => assert_eq!(x, y),
            _ => panic!("stability verdicts disagree"),
        }
    }

    #[test]
    fn session_tracks_cold_solver_across_rewrites() {
        let mut rng = ChaCha8Rng::seed_from_u64(81);
        let n = 10usize;
        let inst = uniform_roommates(n, &mut rng);
        let mut session = IncrementalRoommates::new(inst);
        for _ in 0..40 {
            let p = rng.gen_range(0..n as u32);
            let mut row = session.instance().list(p).to_vec();
            let i = rng.gen_range(0..row.len());
            let j = rng.gen_range(0..row.len());
            row.swap(i, j);
            session.set_row(p, &row).unwrap();
            let out = session.solve();
            assert_same_outcome(&out, &solve(session.instance()));
        }
    }

    #[test]
    fn undo_rewrite_hits_the_cache_even_when_unsolvable() {
        let inst = section3b_right();
        let mut session = IncrementalRoommates::new(inst);
        let mut m = SolverMetrics::new();
        let first = session.solve_metered(&mut m);
        assert!(!first.is_stable());
        let p = 0u32;
        let old = session.instance().list(p).to_vec();
        let mut rev = old.clone();
        rev.reverse();
        session.set_row(p, &rev).unwrap();
        session.solve_metered(&mut m);
        session.set_row(p, &old).unwrap();
        let again = session.solve_metered(&mut m);
        assert_eq!(m.cache_hits, 1, "restored state must be content-addressed");
        assert_same_outcome(&again, &first);
    }

    #[test]
    fn cache_hit_then_fresh_rewrite_still_matches_cold() {
        let mut rng = ChaCha8Rng::seed_from_u64(82);
        let n = 8usize;
        let inst = uniform_roommates(n, &mut rng);
        let mut session = IncrementalRoommates::new(inst);
        session.solve();
        let old = session.instance().list(2).to_vec();
        let mut rev = old.clone();
        rev.reverse();
        session.set_row(2, &rev).unwrap();
        session.solve();
        session.set_row(2, &old).unwrap();
        session.solve(); // hit — workspace is now one revision stale
        let mut row = session.instance().list(5).to_vec();
        row.reverse();
        session.set_row(5, &row).unwrap();
        assert_same_outcome(&session.solve(), &solve(session.instance()));
    }

    #[test]
    fn session_state_stays_bounded_across_cache_hits() {
        // Alternate between two cached states: every solve is a hit, so
        // no engine run ever drains the pending rewrites, which must
        // still stay one per participant.
        let mut rng = ChaCha8Rng::seed_from_u64(83);
        let n = 10usize;
        let inst = uniform_roommates(n, &mut rng);
        let mut session = IncrementalRoommates::new(inst);
        session.solve();
        let old = session.instance().list(3).to_vec();
        let mut rev = old.clone();
        rev.reverse();
        let mut m = SolverMetrics::new();
        session.set_row(3, &rev).unwrap();
        session.solve_metered(&mut m);
        session.set_row(3, &old).unwrap();
        session.solve_metered(&mut m);
        for i in 0..10_000 {
            session.set_row(3, if i % 2 == 0 { &rev } else { &old }).unwrap();
            session.solve_metered(&mut m);
            assert!(session.pending.len() <= 1);
        }
        assert_eq!(m.cache_hits, 10_001);
        // The next miss still matches a cold solve of the current state.
        let mut row = session.instance().list(7).to_vec();
        let last = row.len() - 1;
        row.swap(0, last);
        session.set_row(7, &row).unwrap();
        assert_eq!(session.pending.len(), 2);
        assert_same_outcome(&session.solve(), &solve(session.instance()));
        assert!(session.pending.is_empty());
    }
}
