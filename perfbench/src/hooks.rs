//! Benchmark-side instrumentation built only from the library's public
//! traits: a `kmatch_obs::Metrics` implementation that turns the hooks the
//! engines already call into layer spans and counts, and counting wrappers
//! around the `PrefOracle` / `RoommatesOracle` traits.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use kmatch_obs::{phase, Metrics};
use kmatch_prefs::{PrefOracle, Rank, RoommatesOracle, PROPOSAL_STRIP};

use crate::tracer::{Layer, Tracer};

/// Span names the hooks open. The escalation driver's attempts are
/// renamed to wasted/deciding once the call returns and the deciding one
/// is known.
pub const ATTEMPT: &str = "roommates.attempt";
pub const ATTEMPT_WASTED: &str = "roommates.attempt.wasted";
pub const ATTEMPT_DECIDING: &str = "roommates.attempt.deciding";
pub const VERIFY: &str = "roommates.verify";
pub const FULLWIDTH: &str = "roommates.fullwidth";
pub const GS_RESOLVE: &str = "gs.resolve";

/// `Metrics` sink for the traced run. The boundary hooks open and close
/// child spans of the span the caller opened around the library call:
///
/// * `escalation_attempt(cut)` opens a `roommates.attempt` span,
///   `phase_enter(VERIFY)` a `roommates.verify` span and
///   `phase_enter(FULLWIDTH)` a `roommates.fullwidth` span, each closing
///   the previous one;
/// * `cache_lookup(false)` opens a `gs.resolve` span (the engine run behind
///   a cache miss);
/// * `solve_done` closes whichever is open.
///
/// Counter hooks only count.
pub struct Hooks<'t> {
    tr: &'t mut Tracer,
    base_depth: usize,
    /// Span ids of this call's escalation attempts, in order.
    attempts: Vec<usize>,
    pub cache_hits: u64,
    pub warm_resolves: u64,
    pub warm_fallbacks: u64,
}

impl<'t> Hooks<'t> {
    pub fn new(tr: &'t mut Tracer) -> Self {
        let base_depth = tr.depth();
        Hooks {
            tr,
            base_depth,
            attempts: Vec::new(),
            cache_hits: 0,
            warm_resolves: 0,
            warm_fallbacks: 0,
        }
    }

    fn close_child(&mut self) {
        if self.tr.depth() > self.base_depth {
            self.tr.end();
        }
    }

    fn open_child(&mut self, name: &'static str, layer: Layer, arg: u64) -> usize {
        self.close_child();
        self.tr.begin(name, layer, arg)
    }

    /// Close any span a hook left open (the caller's own span stays).
    pub fn finish(mut self) -> Vec<usize> {
        self.close_child();
        std::mem::take(&mut self.attempts)
    }
}

impl Metrics for Hooks<'_> {
    const ENABLED: bool = true;
    fn proposal(&mut self) {}
    fn rejection(&mut self) {}
    fn holder_swap(&mut self) {}
    fn round(&mut self) {}
    fn phase1_truncation(&mut self) {}
    fn phase2_rotation(&mut self) {}
    fn workspace(&mut self, _fresh: bool) {}
    fn solve_done(&mut self, _solvable: bool, _proposals: u64) {
        self.close_child();
    }
    fn solve_ns(&mut self, _ns: u64) {}
    fn binding_edge(&mut self, _proposals: u64) {}
    fn theorem3_check(&mut self, _total: u64, _bound: u64) {}
    fn round_bulk(&mut self, _proposals: u64, _rejections: u64, _swaps: u64) {}

    fn cache_lookup(&mut self, hit: bool) {
        if hit {
            self.cache_hits += 1;
        } else {
            self.open_child(GS_RESOLVE, Layer::Gs, 0);
        }
    }
    fn warm_resolve(&mut self, _refreed: u64) {
        self.warm_resolves += 1;
    }
    fn warm_fallback(&mut self) {
        self.warm_fallbacks += 1;
    }
    fn escalation_attempt(&mut self, cut: u32) {
        let id = self.open_child(ATTEMPT, Layer::Roommates, cut as u64);
        self.attempts.push(id);
    }
    fn phase_enter(&mut self, phase: u32) {
        match phase {
            phase::VERIFY => {
                self.open_child(VERIFY, Layer::Roommates, 0);
            }
            phase::FULLWIDTH => {
                self.open_child(FULLWIDTH, Layer::Roommates, 0);
            }
            _ => {}
        }
    }
}

/// Counts candidate and rank probes into a roommates oracle
/// (single-threaded: the escalating driver runs on the caller's thread).
pub struct CountingRoommates<'a, O> {
    inner: &'a O,
    probes: Cell<u64>,
}

impl<'a, O> CountingRoommates<'a, O> {
    pub fn new(inner: &'a O) -> Self {
        CountingRoommates {
            inner,
            probes: Cell::new(0),
        }
    }

    pub fn probes(&self) -> u64 {
        self.probes.get()
    }

    fn add(&self, k: usize) {
        self.probes.set(self.probes.get() + k as u64);
    }
}

impl<O: RoommatesOracle> RoommatesOracle for CountingRoommates<'_, O> {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn row_len(&self, p: u32) -> u32 {
        self.inner.row_len(p)
    }
    fn candidate(&self, p: u32, pos: u32) -> u32 {
        self.add(1);
        self.inner.candidate(p, pos)
    }
    fn rank_of(&self, p: u32, q: u32) -> Rank {
        self.add(1);
        self.inner.rank_of(p, q)
    }
    fn candidates_into(&self, p: u32, lo: u32, out: &mut [u32]) {
        self.add(out.len());
        self.inner.candidates_into(p, lo, out)
    }
    fn ranks_toward_into(&self, qs: &[u32], p: u32, out: &mut [u32]) {
        self.add(qs.len());
        self.inner.ranks_toward_into(qs, p, out)
    }
    fn rank_lt(&self, q: u32, p: u32, limit: u32) -> bool {
        self.add(1);
        self.inner.rank_lt(q, p, limit)
    }
    fn ranks_lt_into(&self, qs: &[u32], p: u32, limits: &[u32], out: &mut [bool]) {
        self.add(qs.len());
        self.inner.ranks_lt_into(qs, p, limits, out)
    }
}

/// Counts candidate and rank probes into a bipartite oracle. The batch
/// executor shares instances across worker threads, so the count is an
/// atomic; each instance is solved by one worker at a time, so it is
/// never contended.
pub struct CountingPrefs<P> {
    inner: P,
    probes: AtomicU64,
}

impl<P> CountingPrefs<P> {
    pub fn new(inner: P) -> Self {
        CountingPrefs {
            inner,
            probes: AtomicU64::new(0),
        }
    }

    /// Probes so far (a statistic; publishes no other data).
    pub fn probes(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    fn add(&self, k: u64) {
        self.probes.fetch_add(k, Ordering::Relaxed);
    }
}

impl<P: PrefOracle> PrefOracle for CountingPrefs<P> {
    const COMPLETE: bool = P::COMPLETE;
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn row_len(&self, m: u32) -> u32 {
        self.inner.row_len(m)
    }
    fn candidate(&self, m: u32, pos: u32) -> u32 {
        self.add(1);
        self.inner.candidate(m, pos)
    }
    fn responder_rank(&self, w: u32, m: u32) -> Rank {
        self.add(1);
        self.inner.responder_rank(w, m)
    }
    fn proposal_entry(&self, m: u32, pos: u32) -> u64 {
        self.add(2);
        self.inner.proposal_entry(m, pos)
    }
    fn responder_cutoff(&self, w: u32) -> Rank {
        self.inner.responder_cutoff(w)
    }
    fn proposal_entry_strip(
        &self,
        ms: &[u32; PROPOSAL_STRIP],
        pos: &[u32; PROPOSAL_STRIP],
        out: &mut [u64; PROPOSAL_STRIP],
    ) {
        self.add(2 * PROPOSAL_STRIP as u64);
        self.inner.proposal_entry_strip(ms, pos, out)
    }
}
