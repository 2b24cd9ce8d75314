//! The engine hook set, its two counter instantiations, and the pair.
//!
//! [`Metrics`] is the one hook trait of the engine crates: solvers take a
//! `&mut M: Metrics` and the compiler monomorphizes the hot loop once per
//! implementation. [`NoMetrics`] is the unit impl —
//! it overrides no hook, so every call is the trait's empty default and
//! inlines away: the untraced, unmetered instantiation (what
//! `GsWorkspace::solve` and `RoommatesWorkspace::solve` compile to) is
//! bit-for-bit the uninstrumented fast path. [`SolverMetrics`] is the
//! production impl: plain `u64` counters and [`Log2Histogram`]s,
//! increments only — no locks, no atomics, no allocation, measured < 5%
//! overhead on the n = 2000 batch workload.
//!
//! Counters are one kind of observer among several: span recorders
//! (`kmatch-trace`) and live progress probes (`kmatch-forensics`) implement
//! the same trait, overriding only the hooks they watch. Observers compose
//! as a pair — `(&mut a, &mut b)` is itself a [`Metrics`] that hands every
//! hook to `a` and then to `b` — so each engine has one entry point per
//! solve kind, whatever is watching it.

use crate::histogram::Log2Histogram;
use serde::Value;

/// Compile-time hook set: the one observer interface of every engine.
///
/// Engines call the counter hooks from their hot loops and the span hooks
/// at their phase boundaries; front-ends (batch drivers, the CLI, benches)
/// call the per-solve hooks — including [`Metrics::solve_ns`], which is
/// fed from a [`crate::Clock`] *outside* the engine so engines stay
/// clock-free. Every hook defaults to a no-op, so an observer overrides
/// only what it watches.
pub trait Metrics {
    /// Whether hooks observe anything (lets callers skip setup work, the
    /// way the batch runner skips reading the clock per solve).
    const ENABLED: bool;

    /// Whether this observer admits *fine-grained* spans — the per-round
    /// `gs.round` class, emitted thousands of times per large solve
    /// (~2 800 rounds at n = 2000, each a few hundred nanoseconds).
    /// Engines gate those emissions on `M::FINE_SPANS`, so an observer
    /// that opts out pays nothing for them, not even the call. Defaults to
    /// `false`; the unbounded trace recorder and the CLI's `--trace-out`
    /// recorder set it, while the always-armed flight recorder does not —
    /// timestamping a sub-microsecond round costs more than the round
    /// itself. Phase-level spans (solve, Irving phases, binding edges,
    /// batch chunks) and instants are never gated.
    const FINE_SPANS: bool = false;

    // ---- engine hot-loop hooks ----
    /// One proposal was issued (GS proposal or Irving phase-1 proposal).
    fn proposal(&mut self) {}
    /// A proposer was rejected (GS: pushed back to the free list).
    fn rejection(&mut self) {}
    /// A responder traded up, displacing its provisional holder (GS), or a
    /// participant's held proposal was displaced (Irving phase 1).
    fn holder_swap(&mut self) {}
    /// One synchronous GS proposal round completed.
    fn round(&mut self) {}
    /// An Irving phase-1 truncation tightened a rank threshold.
    fn phase1_truncation(&mut self) {}
    /// An Irving phase-2 rotation was eliminated.
    fn phase2_rotation(&mut self) {}

    // ---- per-solve hooks (front-end and engine epilogue) ----
    /// A workspace was prepared for a solve; `fresh` means its participant
    /// tables had to grow (allocate) rather than being reused.
    fn workspace(&mut self, fresh: bool) {
        let _ = fresh;
    }
    /// A solve finished: whether a matching exists and how many proposals
    /// it took. An escalating roommates solve reports once, with its
    /// deciding run's proposals; the [`Metrics::proposal`] hook has
    /// already counted every attempt's.
    fn solve_done(&mut self, solvable: bool, proposals: u64) {
        let _ = (solvable, proposals);
    }
    /// Wall time of one solve, measured by the front-end's clock.
    fn solve_ns(&mut self, ns: u64) {
        let _ = ns;
    }

    // ---- k-ary binding hooks ----
    /// One binding edge `GS(i, j)` completed with this many proposals.
    fn binding_edge(&mut self, proposals: u64) {
        let _ = proposals;
    }
    /// A full binding run finished with `total` proposals against the
    /// Theorem-3 bound `(k−1)·n²`.
    fn theorem3_check(&mut self, total: u64, bound: u64) {
        let _ = (total, bound);
    }

    // ---- incremental-solving hooks ----
    /// The solve cache was consulted; `hit` means a stored matching was
    /// returned without solving.
    fn cache_lookup(&mut self, hit: bool) {
        let _ = hit;
    }
    /// A cached matching was evicted to make room.
    fn cache_eviction(&mut self) {}
    /// An incremental rebind classified one binding edge; `dirty` means
    /// its preference rows changed and it was re-solved (clean edges reuse
    /// the previous pairs and execute zero proposals).
    fn binding_edge_reuse(&mut self, dirty: bool) {
        let _ = dirty;
    }
    /// A warm-start re-solve reused the held execution, re-running
    /// `refreed` proposers instead of all n (0 for the exact replays the
    /// GS and Irving engines make).
    fn warm_resolve(&mut self, refreed: u64) {
        let _ = refreed;
    }
    /// A warm-start request could not reuse prior state and fell back to a
    /// cold solve.
    fn warm_fallback(&mut self) {}

    // ---- escalating truncated-solve hooks ----
    /// The escalating roommates driver ran one truncated attempt at list
    /// cutoff `cut`.
    fn escalation_attempt(&mut self, cut: u32) {
        let _ = cut;
    }
    /// A truncated attempt's stable outcome self-certified as the
    /// full-instance answer.
    fn certified_stable(&mut self) {}
    /// A truncated attempt's no-stable-matching verdict was certified by a
    /// verified stable partition with an odd party.
    fn certified_unsolvable(&mut self) {}
    /// Every certificate failed and the driver fell back to the complete
    /// full-width solve.
    fn escalation_fullwidth(&mut self) {}

    /// The engine entered a named execution phase — an id from
    /// [`crate::phase`] (Irving phase 1/2, GS rounds, escalation verify,
    /// …). Default is a no-op: counters don't need it. The forensic
    /// progress observer (`kmatch-forensics`) overrides it to publish
    /// "where the solver is right now" into a lock-free probe slot, which
    /// is why it rides on `Metrics` instead of adding a new generic
    /// parameter to every engine signature.
    #[inline]
    fn phase_enter(&mut self, phase: u32) {
        let _ = phase;
    }

    /// Bulk accounting for one synchronous proposal round, used by the
    /// branchless strip kernels that count events in registers instead of
    /// calling the per-event hooks from the inner loop. Must be equivalent
    /// to `proposals` × [`Metrics::proposal`], `rejections` ×
    /// [`Metrics::rejection`], and `swaps` × [`Metrics::holder_swap`];
    /// the default implementation is exactly that, so existing sinks stay
    /// correct unmodified.
    #[inline]
    fn round_bulk(&mut self, proposals: u64, rejections: u64, swaps: u64) {
        for _ in 0..proposals {
            self.proposal();
        }
        for _ in 0..rejections {
            self.rejection();
        }
        for _ in 0..swaps {
            self.holder_swap();
        }
    }

    // ---- span hooks ----
    /// Open a span named `name` (a `kmatch_trace::span` constant) with an
    /// event-specific `arg` (round number, edge index, `n`, …).
    fn span_begin(&mut self, name: &'static str, arg: u64) {
        let _ = (name, arg);
    }
    /// Close the innermost open span; `name` repeats its `span_begin`'s.
    fn span_end(&mut self, name: &'static str) {
        let _ = name;
    }
    /// Record a point event (a cache hit, a warm-resolve fallback, …).
    fn span_instant(&mut self, name: &'static str, arg: u64) {
        let _ = (name, arg);
    }
}

/// Zero-sized metrics sink: every hook is erased at compile time. The
/// default solver entry points use this, so enabling the metrics layer
/// costs nothing unless a metered entry point is called.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoMetrics;

impl Metrics for NoMetrics {
    const ENABLED: bool = false;
}

/// Always-on production metrics: plain counters plus log₂ histograms.
///
/// A `SolverMetrics` is one shard — thread-private in the batch
/// front-ends, merged into a [`crate::BatchRegistry`] when the batch
/// completes. All fields are public so reports and tests can read them
/// directly; [`SolverMetrics::merge`] is element-wise addition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolverMetrics {
    /// Solves completed.
    pub solves: u64,
    /// Solves that produced a matching.
    pub solvable: u64,
    /// Solves with no stable matching.
    pub unsolvable: u64,
    /// Proposals issued (the paper's "iterations of the matching
    /// process"; Theorem 3 bounds these per binding run).
    pub proposals: u64,
    /// Rejections (GS proposers sent back to the free list).
    pub rejections: u64,
    /// Holder displacements (a responder trading up / a held proposal
    /// being displaced).
    pub holder_swaps: u64,
    /// Synchronous GS rounds — the PRAM cost unit of §IV-C.
    pub rounds: u64,
    /// Irving phase-1 threshold tightenings (each stands for a batch of
    /// implicit pair deletions the fast path never executes).
    pub phase1_truncations: u64,
    /// Irving phase-2 rotations eliminated.
    pub phase2_rotations: u64,
    /// Solves that reused already-grown workspace buffers.
    pub workspace_reused: u64,
    /// Solves that had to grow (allocate) workspace buffers.
    pub workspace_fresh: u64,
    /// Binding edges executed by the k-ary driver.
    pub binding_edges: u64,
    /// Theorem-3 bound checks performed (one per binding run).
    pub theorem3_checks: u64,
    /// Theorem-3 bound violations observed (must stay 0; a nonzero value
    /// falsifies the paper's bound or flags an engine bug).
    pub theorem3_violations: u64,
    /// Solve-cache lookups that returned a stored matching.
    pub cache_hits: u64,
    /// Solve-cache lookups that had to solve.
    pub cache_misses: u64,
    /// Cached matchings evicted to respect the capacity bound.
    pub cache_evictions: u64,
    /// Incremental-rebind edges whose preference rows changed (re-solved).
    pub edges_dirty: u64,
    /// Incremental-rebind edges reused verbatim (zero proposals).
    pub edges_clean: u64,
    /// Warm-start re-solves that reused prior engine state.
    pub warm_solves: u64,
    /// Warm-start requests that fell back to a cold solve.
    pub warm_fallbacks: u64,
    /// Proposers re-run by warm-start re-solves. The GS warm path is an
    /// exact replay of the held execution that re-runs none, so this stays
    /// 0; a cold fallback counts in `warm_fallbacks` instead.
    pub refreed_proposers: u64,
    /// Truncated attempts run by the escalating roommates driver.
    pub escalation_attempts: u64,
    /// Truncated stable outcomes that self-certified.
    pub certified_stable: u64,
    /// Truncated unsolvable verdicts certified by a verified partition.
    pub certified_unsolvable: u64,
    /// Escalation runs that fell back to the full-width solve.
    pub escalation_fullwidth: u64,
    /// List cutoffs of truncated attempts.
    pub escalation_cuts: Log2Histogram,
    /// Proposals per solve. An escalating roommates solve records its
    /// deciding run's proposals, while [`SolverMetrics::proposals`] sums
    /// every attempt's, so `proposals_per_solve.sum()` can be lower.
    pub proposals_per_solve: Log2Histogram,
    /// Proposals per binding edge (the per-edge `n²` component of
    /// Theorem 3).
    pub proposals_per_edge: Log2Histogram,
    /// Per-solve wall time in nanoseconds (front-end clock).
    pub solve_wall_ns: Log2Histogram,
}

impl Metrics for SolverMetrics {
    const ENABLED: bool = true;
    #[inline(always)]
    fn proposal(&mut self) {
        self.proposals += 1;
    }
    #[inline(always)]
    fn rejection(&mut self) {
        self.rejections += 1;
    }
    #[inline(always)]
    fn holder_swap(&mut self) {
        self.holder_swaps += 1;
    }
    #[inline(always)]
    fn round(&mut self) {
        self.rounds += 1;
    }
    #[inline(always)]
    fn round_bulk(&mut self, proposals: u64, rejections: u64, swaps: u64) {
        self.proposals += proposals;
        self.rejections += rejections;
        self.holder_swaps += swaps;
    }
    #[inline(always)]
    fn phase1_truncation(&mut self) {
        self.phase1_truncations += 1;
    }
    #[inline(always)]
    fn phase2_rotation(&mut self) {
        self.phase2_rotations += 1;
    }
    #[inline(always)]
    fn workspace(&mut self, fresh: bool) {
        if fresh {
            self.workspace_fresh += 1;
        } else {
            self.workspace_reused += 1;
        }
    }
    #[inline]
    fn solve_done(&mut self, solvable: bool, proposals: u64) {
        self.solves += 1;
        if solvable {
            self.solvable += 1;
        } else {
            self.unsolvable += 1;
        }
        self.proposals_per_solve.observe(proposals);
    }
    #[inline]
    fn solve_ns(&mut self, ns: u64) {
        self.solve_wall_ns.observe(ns);
    }
    #[inline]
    fn binding_edge(&mut self, proposals: u64) {
        self.binding_edges += 1;
        self.proposals_per_edge.observe(proposals);
    }
    #[inline]
    fn theorem3_check(&mut self, total: u64, bound: u64) {
        self.theorem3_checks += 1;
        if total > bound {
            self.theorem3_violations += 1;
        }
    }
    #[inline]
    fn cache_lookup(&mut self, hit: bool) {
        if hit {
            self.cache_hits += 1;
        } else {
            self.cache_misses += 1;
        }
    }
    #[inline(always)]
    fn cache_eviction(&mut self) {
        self.cache_evictions += 1;
    }
    #[inline]
    fn binding_edge_reuse(&mut self, dirty: bool) {
        if dirty {
            self.edges_dirty += 1;
        } else {
            self.edges_clean += 1;
        }
    }
    #[inline]
    fn warm_resolve(&mut self, refreed: u64) {
        self.warm_solves += 1;
        self.refreed_proposers += refreed;
    }
    #[inline(always)]
    fn warm_fallback(&mut self) {
        self.warm_fallbacks += 1;
    }
    #[inline]
    fn escalation_attempt(&mut self, cut: u32) {
        self.escalation_attempts += 1;
        self.escalation_cuts.observe(cut as u64);
    }
    #[inline(always)]
    fn certified_stable(&mut self) {
        self.certified_stable += 1;
    }
    #[inline(always)]
    fn certified_unsolvable(&mut self) {
        self.certified_unsolvable += 1;
    }
    #[inline(always)]
    fn escalation_fullwidth(&mut self) {
        self.escalation_fullwidth += 1;
    }
}

/// Two observers as one: every hook goes to `a`, then to `b`.
///
/// This is how engines serve several observers through their one
/// `&mut M` parameter — a metrics shard beside a span recorder, a shard
/// beside a live progress probe — and pairs nest, so
/// `(&mut shard, &mut (&mut recorder, &mut probe))` feeds three.
/// `ENABLED` and `FINE_SPANS` are the OR of the members', so a
/// coarse-only member paired with a fine one *will* receive the
/// per-round spans the pair admits; pair observers of equal span
/// fidelity when that matters.
impl<A: Metrics, B: Metrics> Metrics for (&mut A, &mut B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;
    const FINE_SPANS: bool = A::FINE_SPANS || B::FINE_SPANS;
    #[inline(always)]
    fn proposal(&mut self) {
        self.0.proposal();
        self.1.proposal();
    }
    #[inline(always)]
    fn rejection(&mut self) {
        self.0.rejection();
        self.1.rejection();
    }
    #[inline(always)]
    fn holder_swap(&mut self) {
        self.0.holder_swap();
        self.1.holder_swap();
    }
    #[inline(always)]
    fn round(&mut self) {
        self.0.round();
        self.1.round();
    }
    #[inline(always)]
    fn phase1_truncation(&mut self) {
        self.0.phase1_truncation();
        self.1.phase1_truncation();
    }
    #[inline(always)]
    fn phase2_rotation(&mut self) {
        self.0.phase2_rotation();
        self.1.phase2_rotation();
    }
    fn workspace(&mut self, fresh: bool) {
        self.0.workspace(fresh);
        self.1.workspace(fresh);
    }
    fn solve_done(&mut self, solvable: bool, proposals: u64) {
        self.0.solve_done(solvable, proposals);
        self.1.solve_done(solvable, proposals);
    }
    fn solve_ns(&mut self, ns: u64) {
        self.0.solve_ns(ns);
        self.1.solve_ns(ns);
    }
    fn binding_edge(&mut self, proposals: u64) {
        self.0.binding_edge(proposals);
        self.1.binding_edge(proposals);
    }
    fn theorem3_check(&mut self, total: u64, bound: u64) {
        self.0.theorem3_check(total, bound);
        self.1.theorem3_check(total, bound);
    }
    fn cache_lookup(&mut self, hit: bool) {
        self.0.cache_lookup(hit);
        self.1.cache_lookup(hit);
    }
    fn cache_eviction(&mut self) {
        self.0.cache_eviction();
        self.1.cache_eviction();
    }
    fn binding_edge_reuse(&mut self, dirty: bool) {
        self.0.binding_edge_reuse(dirty);
        self.1.binding_edge_reuse(dirty);
    }
    fn warm_resolve(&mut self, refreed: u64) {
        self.0.warm_resolve(refreed);
        self.1.warm_resolve(refreed);
    }
    fn warm_fallback(&mut self) {
        self.0.warm_fallback();
        self.1.warm_fallback();
    }
    fn escalation_attempt(&mut self, cut: u32) {
        self.0.escalation_attempt(cut);
        self.1.escalation_attempt(cut);
    }
    fn certified_stable(&mut self) {
        self.0.certified_stable();
        self.1.certified_stable();
    }
    fn certified_unsolvable(&mut self) {
        self.0.certified_unsolvable();
        self.1.certified_unsolvable();
    }
    fn escalation_fullwidth(&mut self) {
        self.0.escalation_fullwidth();
        self.1.escalation_fullwidth();
    }
    fn phase_enter(&mut self, phase: u32) {
        self.0.phase_enter(phase);
        self.1.phase_enter(phase);
    }
    #[inline(always)]
    fn round_bulk(&mut self, proposals: u64, rejections: u64, swaps: u64) {
        self.0.round_bulk(proposals, rejections, swaps);
        self.1.round_bulk(proposals, rejections, swaps);
    }
    fn span_begin(&mut self, name: &'static str, arg: u64) {
        self.0.span_begin(name, arg);
        self.1.span_begin(name, arg);
    }
    fn span_end(&mut self, name: &'static str) {
        self.0.span_end(name);
        self.1.span_end(name);
    }
    fn span_instant(&mut self, name: &'static str, arg: u64) {
        self.0.span_instant(name, arg);
        self.1.span_instant(name, arg);
    }
}

/// The scalar counters in serialization order, shared by the JSON and
/// Prometheus renderers (name, value, `# HELP` text).
fn counter_rows(m: &SolverMetrics) -> [(&'static str, u64, &'static str); 26] {
    [
        ("solves", m.solves, "Solves completed"),
        ("solvable", m.solvable, "Solves that produced a matching"),
        ("unsolvable", m.unsolvable, "Solves with no stable matching"),
        ("proposals", m.proposals, "Proposals issued"),
        (
            "rejections",
            m.rejections,
            "Proposers rejected back to the free list",
        ),
        (
            "holder_swaps",
            m.holder_swaps,
            "Provisional holders displaced",
        ),
        ("rounds", m.rounds, "Synchronous GS proposal rounds"),
        (
            "phase1_truncations",
            m.phase1_truncations,
            "Irving phase-1 threshold tightenings",
        ),
        (
            "phase2_rotations",
            m.phase2_rotations,
            "Irving phase-2 rotations eliminated",
        ),
        (
            "workspace_reused",
            m.workspace_reused,
            "Solves reusing grown workspace buffers",
        ),
        (
            "workspace_fresh",
            m.workspace_fresh,
            "Solves that grew workspace buffers",
        ),
        (
            "binding_edges",
            m.binding_edges,
            "Binding edges executed by the k-ary driver",
        ),
        (
            "theorem3_checks",
            m.theorem3_checks,
            "Theorem-3 proposal-bound checks",
        ),
        (
            "theorem3_violations",
            m.theorem3_violations,
            "Theorem-3 bound violations (must stay 0)",
        ),
        (
            "cache_hits",
            m.cache_hits,
            "Solve-cache lookups returning a stored matching",
        ),
        (
            "cache_misses",
            m.cache_misses,
            "Solve-cache lookups that had to solve",
        ),
        (
            "cache_evictions",
            m.cache_evictions,
            "Cached matchings evicted for capacity",
        ),
        (
            "edges_dirty",
            m.edges_dirty,
            "Incremental-rebind edges re-solved",
        ),
        (
            "edges_clean",
            m.edges_clean,
            "Incremental-rebind edges reused verbatim",
        ),
        (
            "warm_solves",
            m.warm_solves,
            "Warm-start re-solves reusing prior state",
        ),
        (
            "warm_fallbacks",
            m.warm_fallbacks,
            "Warm-start requests falling back to cold",
        ),
        (
            "refreed_proposers",
            m.refreed_proposers,
            "Proposers re-run by warm re-solves (0 for exact replays)",
        ),
        (
            "escalation_attempts",
            m.escalation_attempts,
            "Truncated attempts by the escalating roommates driver",
        ),
        (
            "certified_stable",
            m.certified_stable,
            "Truncated stable outcomes that self-certified",
        ),
        (
            "certified_unsolvable",
            m.certified_unsolvable,
            "Truncated unsolvable verdicts certified by a stable partition",
        ),
        (
            "escalation_fullwidth",
            m.escalation_fullwidth,
            "Escalation runs falling back to the full-width solve",
        ),
    ]
}

impl SolverMetrics {
    /// A zeroed metrics shard.
    pub fn new() -> Self {
        SolverMetrics::default()
    }

    /// Element-wise merge of `other` into `self` — the registry's
    /// shard-merge operation.
    pub fn merge(&mut self, other: &SolverMetrics) {
        self.solves += other.solves;
        self.solvable += other.solvable;
        self.unsolvable += other.unsolvable;
        self.proposals += other.proposals;
        self.rejections += other.rejections;
        self.holder_swaps += other.holder_swaps;
        self.rounds += other.rounds;
        self.phase1_truncations += other.phase1_truncations;
        self.phase2_rotations += other.phase2_rotations;
        self.workspace_reused += other.workspace_reused;
        self.workspace_fresh += other.workspace_fresh;
        self.binding_edges += other.binding_edges;
        self.theorem3_checks += other.theorem3_checks;
        self.theorem3_violations += other.theorem3_violations;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.edges_dirty += other.edges_dirty;
        self.edges_clean += other.edges_clean;
        self.warm_solves += other.warm_solves;
        self.warm_fallbacks += other.warm_fallbacks;
        self.refreed_proposers += other.refreed_proposers;
        self.escalation_attempts += other.escalation_attempts;
        self.certified_stable += other.certified_stable;
        self.certified_unsolvable += other.certified_unsolvable;
        self.escalation_fullwidth += other.escalation_fullwidth;
        self.proposals_per_solve.merge(&other.proposals_per_solve);
        self.proposals_per_edge.merge(&other.proposals_per_edge);
        self.solve_wall_ns.merge(&other.solve_wall_ns);
        self.escalation_cuts.merge(&other.escalation_cuts);
    }

    /// The metrics accumulated *since* `earlier`, where `earlier` is a
    /// previous snapshot of this same cumulative shard (e.g. two
    /// [`crate::BatchRegistry::snapshot`]s taken at different times) —
    /// the delta operation behind the rolling-window layer. Counters
    /// subtract saturating (a non-ancestor snapshot degrades to zero
    /// rather than wrapping); histograms go through
    /// [`Log2Histogram::diff_since`].
    pub fn diff_since(&self, earlier: &SolverMetrics) -> SolverMetrics {
        SolverMetrics {
            solves: self.solves.saturating_sub(earlier.solves),
            solvable: self.solvable.saturating_sub(earlier.solvable),
            unsolvable: self.unsolvable.saturating_sub(earlier.unsolvable),
            proposals: self.proposals.saturating_sub(earlier.proposals),
            rejections: self.rejections.saturating_sub(earlier.rejections),
            holder_swaps: self.holder_swaps.saturating_sub(earlier.holder_swaps),
            rounds: self.rounds.saturating_sub(earlier.rounds),
            phase1_truncations: self
                .phase1_truncations
                .saturating_sub(earlier.phase1_truncations),
            phase2_rotations: self
                .phase2_rotations
                .saturating_sub(earlier.phase2_rotations),
            workspace_reused: self
                .workspace_reused
                .saturating_sub(earlier.workspace_reused),
            workspace_fresh: self.workspace_fresh.saturating_sub(earlier.workspace_fresh),
            binding_edges: self.binding_edges.saturating_sub(earlier.binding_edges),
            theorem3_checks: self.theorem3_checks.saturating_sub(earlier.theorem3_checks),
            theorem3_violations: self
                .theorem3_violations
                .saturating_sub(earlier.theorem3_violations),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            cache_evictions: self.cache_evictions.saturating_sub(earlier.cache_evictions),
            edges_dirty: self.edges_dirty.saturating_sub(earlier.edges_dirty),
            edges_clean: self.edges_clean.saturating_sub(earlier.edges_clean),
            warm_solves: self.warm_solves.saturating_sub(earlier.warm_solves),
            warm_fallbacks: self.warm_fallbacks.saturating_sub(earlier.warm_fallbacks),
            refreed_proposers: self
                .refreed_proposers
                .saturating_sub(earlier.refreed_proposers),
            escalation_attempts: self
                .escalation_attempts
                .saturating_sub(earlier.escalation_attempts),
            certified_stable: self
                .certified_stable
                .saturating_sub(earlier.certified_stable),
            certified_unsolvable: self
                .certified_unsolvable
                .saturating_sub(earlier.certified_unsolvable),
            escalation_fullwidth: self
                .escalation_fullwidth
                .saturating_sub(earlier.escalation_fullwidth),
            proposals_per_solve: self
                .proposals_per_solve
                .diff_since(&earlier.proposals_per_solve),
            proposals_per_edge: self
                .proposals_per_edge
                .diff_since(&earlier.proposals_per_edge),
            solve_wall_ns: self.solve_wall_ns.diff_since(&earlier.solve_wall_ns),
            escalation_cuts: self.escalation_cuts.diff_since(&earlier.escalation_cuts),
        }
    }

    /// JSON form: an object with a `counters` object and a `histograms`
    /// object (see [`Log2Histogram::to_json`]).
    pub fn to_json(&self) -> Value {
        let counters = counter_rows(self)
            .iter()
            .map(|&(name, v, _help)| (name.to_string(), Value::Number(v as f64)))
            .collect();
        Value::Object(vec![
            ("counters".into(), Value::Object(counters)),
            (
                "histograms".into(),
                Value::Object(vec![
                    (
                        "proposals_per_solve".into(),
                        self.proposals_per_solve.to_json(),
                    ),
                    (
                        "proposals_per_edge".into(),
                        self.proposals_per_edge.to_json(),
                    ),
                    ("solve_wall_ns".into(), self.solve_wall_ns.to_json()),
                    ("escalation_cuts".into(), self.escalation_cuts.to_json()),
                ]),
            ),
        ])
    }

    /// Prometheus text exposition format, metric names prefixed
    /// `kmatch_…` and carrying `labels` verbatim (e.g. `kind="gs"`; pass
    /// `""` for none). Label *pairs* are passed through as given — build
    /// them from untrusted values with [`crate::prom::label_pair`], which
    /// escapes per the exposition format. Every family gets a `# HELP` /
    /// `# TYPE` header.
    pub fn to_prometheus(&self, labels: &str) -> String {
        use std::fmt::Write;
        let braces = if labels.is_empty() {
            String::new()
        } else {
            format!("{{{labels}}}")
        };
        let mut out = String::new();
        for (name, v, help) in counter_rows(self) {
            crate::prom::write_family_header(
                &mut out,
                &format!("kmatch_{name}_total"),
                "counter",
                help,
            );
            let _ = writeln!(out, "kmatch_{name}_total{braces} {v}");
        }
        self.proposals_per_solve.render_prometheus(
            "kmatch_proposals_per_solve",
            "Proposals per solve",
            labels,
            &mut out,
        );
        self.proposals_per_edge.render_prometheus(
            "kmatch_proposals_per_edge",
            "Proposals per binding edge",
            labels,
            &mut out,
        );
        self.solve_wall_ns.render_prometheus(
            "kmatch_solve_wall_ns",
            "Per-solve wall time in nanoseconds",
            labels,
            &mut out,
        );
        self.escalation_cuts.render_prometheus(
            "kmatch_escalation_cuts",
            "List cutoffs of truncated roommates attempts",
            labels,
            &mut out,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SolverMetrics {
        let mut m = SolverMetrics::new();
        m.proposal();
        m.proposal();
        m.rejection();
        m.holder_swap();
        m.round();
        m.phase1_truncation();
        m.phase2_rotation();
        m.workspace(true);
        m.workspace(false);
        m.solve_done(true, 2);
        m.solve_ns(1500);
        m.binding_edge(2);
        m.theorem3_check(2, 16);
        m.cache_lookup(true);
        m.cache_lookup(false);
        m.cache_eviction();
        m.binding_edge_reuse(true);
        m.binding_edge_reuse(false);
        m.warm_resolve(3);
        m.warm_fallback();
        m.escalation_attempt(64);
        m.certified_stable();
        m.certified_unsolvable();
        m.escalation_fullwidth();
        m
    }

    #[test]
    fn hooks_increment_counters() {
        let m = sample();
        assert_eq!(m.proposals, 2);
        assert_eq!(m.rejections, 1);
        assert_eq!(m.holder_swaps, 1);
        assert_eq!(m.rounds, 1);
        assert_eq!(m.phase1_truncations, 1);
        assert_eq!(m.phase2_rotations, 1);
        assert_eq!(m.workspace_fresh, 1);
        assert_eq!(m.workspace_reused, 1);
        assert_eq!(m.solves, 1);
        assert_eq!(m.solvable, 1);
        assert_eq!(m.unsolvable, 0);
        assert_eq!(m.binding_edges, 1);
        assert_eq!(m.theorem3_checks, 1);
        assert_eq!(m.theorem3_violations, 0);
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.cache_misses, 1);
        assert_eq!(m.cache_evictions, 1);
        assert_eq!(m.edges_dirty, 1);
        assert_eq!(m.edges_clean, 1);
        assert_eq!(m.warm_solves, 1);
        assert_eq!(m.warm_fallbacks, 1);
        assert_eq!(m.refreed_proposers, 3);
        assert_eq!(m.escalation_attempts, 1);
        assert_eq!(m.certified_stable, 1);
        assert_eq!(m.certified_unsolvable, 1);
        assert_eq!(m.escalation_fullwidth, 1);
        assert_eq!(m.escalation_cuts.count(), 1);
        assert_eq!(m.escalation_cuts.sum(), 64);
        assert_eq!(m.proposals_per_solve.count(), 1);
        assert_eq!(m.solve_wall_ns.sum(), 1500);
    }

    #[test]
    fn round_bulk_matches_per_event_hooks() {
        let mut bulk = SolverMetrics::new();
        bulk.round_bulk(5, 3, 2);
        let mut events = SolverMetrics::new();
        for _ in 0..5 {
            events.proposal();
        }
        for _ in 0..3 {
            events.rejection();
        }
        for _ in 0..2 {
            events.holder_swap();
        }
        assert_eq!(bulk, events);
    }

    #[test]
    fn theorem3_violation_is_counted() {
        let mut m = SolverMetrics::new();
        m.theorem3_check(17, 16);
        assert_eq!(m.theorem3_violations, 1);
    }

    #[test]
    fn diff_since_inverts_merge() {
        let earlier = sample();
        let mut later = earlier.clone();
        later.merge(&sample());
        let delta = later.diff_since(&earlier);
        // Every counter of the delta equals one sample's worth.
        assert_eq!(delta.proposals, earlier.proposals);
        assert_eq!(delta.solves, earlier.solves);
        assert_eq!(delta.warm_solves, earlier.warm_solves);
        assert_eq!(delta.refreed_proposers, earlier.refreed_proposers);
        assert_eq!(delta.solve_wall_ns.count(), earlier.solve_wall_ns.count());
        assert_eq!(delta.solve_wall_ns.sum(), earlier.solve_wall_ns.sum());
        // Self-diff is empty; reversed diff saturates to zero.
        assert_eq!(later.diff_since(&later).proposals, 0);
        assert_eq!(earlier.diff_since(&later).proposals, 0);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.proposals, 4);
        assert_eq!(a.solves, 2);
        assert_eq!(a.cache_hits, 2);
        assert_eq!(a.edges_clean, 2);
        assert_eq!(a.warm_solves, 2);
        assert_eq!(a.refreed_proposers, 6);
        assert_eq!(a.solve_wall_ns.count(), 2);
        assert_eq!(a.proposals_per_edge.count(), 2);
    }

    #[test]
    fn json_has_counters_and_histograms() {
        let v = sample().to_json();
        let counters = v.get("counters").expect("counters object");
        assert_eq!(counters.get("proposals"), Some(&Value::Number(2.0)));
        let hists = v.get("histograms").expect("histograms object");
        assert!(hists.get("solve_wall_ns").is_some());
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = sample().to_prometheus("kind=\"gs\"");
        assert!(text.contains("# TYPE kmatch_proposals_total counter"));
        assert!(text.contains("# HELP kmatch_proposals_total Proposals issued"));
        // Every # TYPE line is preceded by its # HELP line.
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest.split(' ').next().unwrap();
                assert!(
                    i > 0 && lines[i - 1].starts_with(&format!("# HELP {name} ")),
                    "missing HELP before {line}"
                );
            }
        }
        assert!(text.contains("kmatch_proposals_total{kind=\"gs\"} 2"));
        assert!(text.contains("kmatch_solve_wall_ns_count{kind=\"gs\"} 1"));
        // Unlabelled form omits braces entirely.
        let plain = sample().to_prometheus("");
        assert!(plain.contains("kmatch_proposals_total 2"));
    }

    /// Logs every hook call, tagged with the member it reached, into a
    /// log shared by both members of a pair.
    struct Log<'a>(char, &'a std::cell::RefCell<Vec<String>>);

    /// Implements `Metrics` for `Log`, recording each listed hook as
    /// `tag:hook(args)`.
    macro_rules! log_hooks {
        ($($hook:ident($($arg:ident: $ty:ty),*);)*) => {
            impl Metrics for Log<'_> {
                const ENABLED: bool = true;
                const FINE_SPANS: bool = true;
                $(fn $hook(&mut self, $($arg: $ty),*) {
                    let call = format!("{}:{}{:?}", self.0, stringify!($hook), ($($arg,)*));
                    self.1.borrow_mut().push(call);
                })*
            }
        };
    }

    // A hook added to `Metrics` must be listed here and driven below, so
    // the pair test sees whether the pair forwards it.
    log_hooks! {
        proposal();
        rejection();
        holder_swap();
        round();
        phase1_truncation();
        phase2_rotation();
        workspace(fresh: bool);
        solve_done(solvable: bool, proposals: u64);
        solve_ns(ns: u64);
        binding_edge(proposals: u64);
        theorem3_check(total: u64, bound: u64);
        cache_lookup(hit: bool);
        cache_eviction();
        binding_edge_reuse(dirty: bool);
        warm_resolve(refreed: u64);
        warm_fallback();
        escalation_attempt(cut: u32);
        certified_stable();
        certified_unsolvable();
        escalation_fullwidth();
        phase_enter(phase: u32);
        round_bulk(proposals: u64, rejections: u64, swaps: u64);
        span_begin(name: &'static str, arg: u64);
        span_end(name: &'static str);
        span_instant(name: &'static str, arg: u64);
    }

    #[test]
    fn pair_forwards_every_hook_to_both_members_in_order() {
        type Pair<'p, 'l> = (&'p mut Log<'l>, &'p mut Log<'l>);
        type Call = fn(&mut Pair);
        let calls: [(Call, &str); 25] = [
            (|p| p.proposal(), "proposal()"),
            (|p| p.rejection(), "rejection()"),
            (|p| p.holder_swap(), "holder_swap()"),
            (|p| p.round(), "round()"),
            (|p| p.phase1_truncation(), "phase1_truncation()"),
            (|p| p.phase2_rotation(), "phase2_rotation()"),
            (|p| p.workspace(true), "workspace(true,)"),
            (|p| p.solve_done(false, 7), "solve_done(false, 7)"),
            (|p| p.solve_ns(1500), "solve_ns(1500,)"),
            (|p| p.binding_edge(3), "binding_edge(3,)"),
            (|p| p.theorem3_check(5, 16), "theorem3_check(5, 16)"),
            (|p| p.cache_lookup(true), "cache_lookup(true,)"),
            (|p| p.cache_eviction(), "cache_eviction()"),
            (
                |p| p.binding_edge_reuse(false),
                "binding_edge_reuse(false,)",
            ),
            (|p| p.warm_resolve(2), "warm_resolve(2,)"),
            (|p| p.warm_fallback(), "warm_fallback()"),
            (|p| p.escalation_attempt(64), "escalation_attempt(64,)"),
            (|p| p.certified_stable(), "certified_stable()"),
            (|p| p.certified_unsolvable(), "certified_unsolvable()"),
            (|p| p.escalation_fullwidth(), "escalation_fullwidth()"),
            (|p| p.phase_enter(3), "phase_enter(3,)"),
            (|p| p.round_bulk(4, 2, 1), "round_bulk(4, 2, 1)"),
            (
                |p| p.span_begin("gs.solve", 8),
                "span_begin(\"gs.solve\", 8)",
            ),
            (
                |p| p.span_instant("cache.hit", 0),
                "span_instant(\"cache.hit\", 0)",
            ),
            (|p| p.span_end("gs.solve"), "span_end(\"gs.solve\",)"),
        ];
        let out = std::cell::RefCell::new(Vec::new());
        let (mut a, mut b) = (Log('a', &out), Log('b', &out));
        let mut expected = Vec::new();
        for (call, logged) in calls {
            call(&mut (&mut a, &mut b));
            expected.extend([format!("a:{logged}"), format!("b:{logged}")]);
        }
        assert_eq!(*out.borrow(), expected);
    }

    #[test]
    fn pair_flags_are_the_or_of_its_members() {
        type Counting<'a> = (&'a mut SolverMetrics, &'a mut NoMetrics);
        type Nested<'a> = (
            &'a mut NoMetrics,
            &'a mut (&'a mut NoMetrics, &'a mut Log<'a>),
        );
        const {
            assert!(!<(&mut NoMetrics, &mut NoMetrics) as Metrics>::ENABLED);
            assert!(<Counting as Metrics>::ENABLED);
            assert!(!<Counting as Metrics>::FINE_SPANS, "counters take no spans");
            assert!(<Nested as Metrics>::ENABLED);
            assert!(<Nested as Metrics>::FINE_SPANS);
        }
    }

    #[test]
    fn nometrics_is_zero_sized() {
        assert_eq!(std::mem::size_of::<NoMetrics>(), 0);
        const { assert!(!NoMetrics::ENABLED) };
        const { assert!(SolverMetrics::ENABLED) };
    }
}
