//! The Gale–Shapley deferred-acceptance engine.
//!
//! Faithful to §II-A of the paper: the algorithm proceeds in *rounds*; in
//! each round every currently-unengaged proposer proposes to the most
//! preferred responder it has not yet proposed to, then every responder
//! keeps the best suitor seen so far ("maybe") and rejects the rest.
//! Engagements are provisional — a responder trades up whenever a better
//! suitor arrives, so responders improve monotonically while proposers
//! slide down their lists.
//!
//! Complexity: every proposer advances through its list at most once, so
//! the total number of proposals is at most `n²` (and at least `n`); both
//! bounds are exercised by the structured workloads in
//! `kmatch_prefs::gen::structured`.
//!
//! ## Engine structure
//!
//! The fast engine ([`gale_shapley`], [`GsWorkspace::solve`]) has one
//! hook set, [`kmatch_obs::Metrics`]: with `NoMetrics` every hook inlines
//! away, and complete oracles run the branchless strip kernel. The §II-A
//! event dialogue ([`gale_shapley_traced`]) comes from
//! `gale_shapley_reference`, the original runtime-checked implementation,
//! run with an event log. Both engines run the identical round schedule,
//! so matchings, proposal counts, and round counts agree exactly; the
//! reference is also the fast engine's differential baseline.
//!
//! Three further fast-path properties matter at scale:
//!
//! * **Packed holder state.** Each responder's provisional engagement is
//!   one word, `rank << 32 | fiancé`, where `rank` is the fiancé's rank in
//!   the responder's list. The acceptance test is a single integer compare
//!   against the packed candidate (ranks are distinct within a list, so
//!   packed order is exactly rank order), and a free slot is the all-ones
//!   word, so any candidate wins the same compare — no vacancy branch.
//! * **Fused proposal entries.** Each proposal reads one packed word
//!   `rank << 32 | responder` via
//!   [`kmatch_prefs::BipartitePrefs::proposal_entry`]. Arena-backed
//!   preferences ([`kmatch_prefs::CsrPrefs`]) serve it with a single
//!   *sequential* load — proposers walk their entry rows left to right —
//!   so the inner loop's only random access is the `n`-word `best` array,
//!   which stays cache-resident long after the instance's `n²` tables do
//!   not. The reference engine instead performs one random list load plus
//!   up to two random rank-table loads per proposal.
//! * **Workspace reuse.** All four scratch arrays live in a
//!   [`GsWorkspace`]; [`GsWorkspace::solve`] only grows them, so a batch
//!   loop over same-sized instances performs no scratch allocation after
//!   the first solve. The only per-solve allocations are the two partner
//!   arrays owned by the returned matching.

use kmatch_obs::{Metrics, NoMetrics};
use kmatch_prefs::{BipartitePrefs, DeltaSide, PrefDelta, PrefOracle, ResponderListSlice};
use kmatch_trace::{reason, span};

use crate::incomplete::{PartialMatching, UNMATCHED};
use crate::matching::BipartiteMatching;
use crate::trace::GsEvent;

/// Instrumentation counters from one GS run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GsStats {
    /// Total proposals issued — the paper's "iterations of the matching
    /// process" (Theorem 3 bounds the sum of these over all bindings by
    /// `(k−1)·n²`).
    pub proposals: u64,
    /// Synchronous proposal rounds — the PRAM cost unit of §IV-C.
    pub rounds: u32,
}

/// Result of a GS run: the stable matching plus instrumentation.
#[derive(Debug, Clone)]
pub struct GsOutcome {
    /// The proposer-optimal stable matching.
    pub matching: BipartiteMatching,
    /// Proposal/round counters.
    pub stats: GsStats,
}

const FREE: u32 = u32::MAX;

/// Reusable scratch buffers for the Gale–Shapley engine.
///
/// A workspace grows to the largest instance it has seen and never
/// shrinks; solving through one repeatedly is allocation-free in the
/// steady state. Workspaces are cheap to create and freely reusable
/// across unrelated instances of any size.
///
/// ```
/// use kmatch_gs::{gale_shapley, GsWorkspace};
/// use kmatch_prefs::gen::paper::example1_first;
///
/// let inst = example1_first();
/// let mut ws = GsWorkspace::new();
/// let fast = ws.solve(&inst);
/// assert_eq!(fast.matching, gale_shapley(&inst).matching);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GsWorkspace {
    /// `next[m]`: position in `m`'s list of the next responder to try.
    next: Vec<u32>,
    /// `best[w]`: `rank << 32 | fiancé` for `w`'s provisional engagement
    /// (`rank` = the fiancé's rank in `w`'s list), or [`VACANT`] while
    /// free. Lower is better, and every real candidate beats [`VACANT`].
    best: Vec<u64>,
    /// Two `n`-long free-list buffers: after a reset `free` lists every
    /// proposer; the rounds then take turns, one holding the current
    /// free list while the other collects the proposers it rejects.
    free: Vec<u32>,
    next_free: Vec<u32>,
    /// Side size of the last completed solve, or 0 when `next`/`best` do
    /// not hold a finished execution (never solved, or mid-solve). The
    /// replay gate: [`GsWorkspace::resolve`] solves cold unless this
    /// matches the incoming instance.
    solved_n: usize,
}

/// Packed `best` entry of a responder with no provisional fiancé.
const VACANT: u64 = u64::MAX;

/// High-word mask: isolates the rank half of a packed entry.
const RANK_HI: u64 = 0xFFFF_FFFF_0000_0000;

impl GsWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        GsWorkspace::default()
    }

    /// A workspace pre-sized for instances of up to `n` members per side.
    pub fn with_capacity(n: usize) -> Self {
        GsWorkspace {
            next: Vec::with_capacity(n),
            best: Vec::with_capacity(n),
            free: Vec::with_capacity(n),
            next_free: Vec::with_capacity(n),
            ..GsWorkspace::default()
        }
    }

    /// Bytes of scratch this workspace currently holds across all its
    /// buffers — the deterministic *arena-bytes* figure the scaling
    /// benchmarks record next to peak RSS. O(n) after a size-n solve
    /// (20 bytes/agent), independent of the preference backend.
    pub fn resident_bytes(&self) -> usize {
        self.next.capacity() * size_of::<u32>()
            + self.best.capacity() * size_of::<u64>()
            + self.free.capacity() * size_of::<u32>()
            + self.next_free.capacity() * size_of::<u32>()
    }

    /// Prepare all buffers for an instance of size `n`. Returns whether
    /// any scratch buffer had to grow (the metrics fresh/reuse signal).
    fn reset(&mut self, n: usize) -> bool {
        let fresh = self.next.capacity() < n
            || self.best.capacity() < n
            || self.free.capacity() < n
            || self.next_free.capacity() < n;
        self.solved_n = 0;
        self.next.clear();
        self.next.resize(n, 0);
        self.best.clear();
        self.best.resize(n, VACANT);
        self.free.clear();
        self.free.extend(0..n as u32);
        self.next_free.resize(n, 0);
        fresh
    }

    /// Run proposer-proposing Gale–Shapley through this workspace's
    /// buffers (the zero-allocation fast path). Produces exactly the
    /// matching, proposal count, and round count of [`gale_shapley`].
    ///
    /// Accepts any complete [`PrefOracle`] — materialized views
    /// ([`kmatch_prefs::BipartiteInstance`], [`kmatch_prefs::CsrPrefs`])
    /// and lazy backends ([`kmatch_prefs::RandomOracle`],
    /// [`kmatch_prefs::ScoreOracle`]) alike; with a lazy backend the
    /// solve's memory is the workspace's O(n) scratch, never an O(n²)
    /// arena. Incomplete oracles (`P::COMPLETE == false`) must go through
    /// [`GsWorkspace::solve_incomplete`] instead.
    pub fn solve<P: PrefOracle>(&mut self, prefs: &P) -> GsOutcome {
        run_core(prefs, self, &mut NoMetrics)
    }

    /// Deferred acceptance over an incomplete-list oracle
    /// (`P::COMPLETE == false`, e.g. [`kmatch_prefs::Truncated`]): pairs
    /// beyond either side's cutoff are forbidden (§III-B semantics), a
    /// proposer who exhausts its truncated row stays unmatched, and a
    /// responder rejects any suitor she ranks at or beyond her cutoff.
    ///
    /// Returns the proposer-optimal *stable-marriage-with-incomplete-lists*
    /// matching (every agent matched or inevitably unmatched; see
    /// [`crate::incomplete::is_smi_stable`] against the materialized
    /// instance). Complete oracles are accepted too and run the strip
    /// kernel of [`GsWorkspace::solve`].
    pub fn solve_incomplete<P: PrefOracle>(&mut self, prefs: &P) -> (PartialMatching, GsStats) {
        let n = prefs.n();
        assert!(n > 0, "empty instance");
        self.reset(n);
        let mut stats = GsStats::default();
        run_rounds(prefs, self, &mut NoMetrics, &mut stats);
        // `solved_n` stays 0: a partial execution is not a valid replay
        // seed (`resolve` would read FREE holders).
        finish_partial(self, stats)
    }

    /// [`GsWorkspace::solve`] reporting to the observer `metrics`. The
    /// engine records proposals, rejections, holder swaps, rounds,
    /// workspace fresh/reuse, and the per-solve summary, and emits a span
    /// timeline: a `gs.solve` span enclosing one `gs.round` span per
    /// proposal round (see [`kmatch_trace::span`]). Round spans are
    /// fine-grained and emitted only when [`Metrics::FINE_SPANS`] holds —
    /// the flight recorder opts out and records the `gs.solve` phase span
    /// alone. Wall time is the front-end's job (engines stay
    /// clock-free). With [`kmatch_obs::NoMetrics`] this monomorphizes to
    /// exactly [`GsWorkspace::solve`].
    pub fn solve_metered<P: PrefOracle, M: Metrics>(
        &mut self,
        prefs: &P,
        metrics: &mut M,
    ) -> GsOutcome {
        run_core(prefs, self, metrics)
    }

    /// Whether `delta` is *dead* for the execution this workspace holds:
    /// applied to `before`, it leaves every probe of that execution
    /// unchanged, so the held execution is also the execution of the
    /// edited instance.
    ///
    /// Deferred acceptance probes proposer `m`'s row only at positions
    /// `< next[m]`, and responder `w`'s row only by comparing members of
    /// `S_w`, the proposers who proposed to her
    /// (`m ∈ S_w ⇔ proposer_rank(m, w) < next[m]`). A proposer edit is
    /// therefore dead when it keeps that prefix, and a responder edit
    /// when it keeps the relative order of `S_w`. The rows agree outside
    /// the edit's changed window ([`PrefDelta::changed_window`]), so only
    /// the window's `S_w` members are compared, stopping at the first
    /// mismatch. A workspace without a finished execution of a
    /// same-sized instance calls every delta live.
    ///
    /// `before` is the instance the held execution ran on, or that
    /// instance after further deltas this method called dead; `delta`
    /// must be valid for it ([`PrefDelta::validate`]).
    pub fn delta_is_dead<P: BipartitePrefs + ResponderListSlice>(
        &self,
        before: &P,
        delta: &PrefDelta,
    ) -> bool {
        if self.solved_n != before.n() {
            return false;
        }
        let row = delta.row();
        let old = match delta.side() {
            DeltaSide::Proposer => before.proposer_list(row),
            DeltaSide::Responder => before.responder_list_slice(row),
        };
        let Some((lo, hi)) = delta.changed_window(old) else {
            return true;
        };
        match delta.side() {
            DeltaSide::Proposer => lo >= self.next[row as usize] as usize,
            DeltaSide::Responder => {
                let proposed = |m: &u32| before.proposer_rank(*m, row) < self.next[*m as usize];
                let new = (lo..=hi).map(|i| delta.entry_after(old, i));
                let old = old[lo..=hi].iter().copied();
                old.filter(proposed).eq(new.filter(proposed))
            }
        }
    }

    /// Re-solve `prefs` after edits to the instance of the held
    /// execution: replay that execution when every edit was dead, else
    /// solve cold.
    ///
    /// `live` says whether any delta since the held execution was live
    /// for it ([`GsWorkspace::delta_is_dead`]); `touched` lists the
    /// responders whose rows the dead deltas rewrote (repeats allowed).
    /// A replay refreshes those responders' packed holder ranks from
    /// `prefs` and returns the held matching without a single proposal,
    /// recording [`Metrics::warm_resolve`]`(0)` and a `gs.warm.resolve`
    /// instant with arg 0. Otherwise it records [`Metrics::warm_fallback`]
    /// and a `gs.warm.fallback` instant carrying the [`reason`] —
    /// `COLD_START` (no held execution), `SIZE_MISMATCH` (one of another
    /// size) or `PREFIX_MISS` (a live delta) — then runs
    /// [`GsWorkspace::solve_metered`].
    pub fn resolve<P: PrefOracle, M: Metrics>(
        &mut self,
        prefs: &P,
        live: bool,
        touched: &[u32],
        metrics: &mut M,
    ) -> GsOutcome {
        let miss = if self.solved_n == 0 {
            Some(reason::COLD_START)
        } else if self.solved_n != prefs.n() {
            Some(reason::SIZE_MISMATCH)
        } else {
            live.then_some(reason::PREFIX_MISS)
        };
        if let Some(why) = miss {
            metrics.warm_fallback();
            metrics.span_instant(span::GS_WARM_FALLBACK, why);
            return self.solve_metered(prefs, metrics);
        }
        metrics.span_instant(span::GS_WARM_RESOLVE, 0);
        metrics.workspace(false);
        metrics.phase_enter(kmatch_obs::phase::GS_WARM);
        for &w in touched {
            let m = self.best[w as usize] as u32;
            self.best[w as usize] = (prefs.responder_rank(w, m) as u64) << 32 | m as u64;
        }
        metrics.warm_resolve(0);
        metrics.solve_done(true, 0);
        finish(self, GsStats::default())
    }
}

/// The engine core, monomorphized per oracle and observer.
fn run_core<P: PrefOracle, M: Metrics>(
    prefs: &P,
    ws: &mut GsWorkspace,
    metrics: &mut M,
) -> GsOutcome {
    // Compile-time constant: the branch folds away per monomorphization.
    assert!(
        P::COMPLETE,
        "incomplete-list oracles must be solved via solve_incomplete"
    );
    let n = prefs.n();
    assert!(n > 0, "empty instance");
    let fresh = ws.reset(n);
    metrics.workspace(fresh);
    let mut stats = GsStats::default();

    metrics.span_begin(span::GS_SOLVE, n as u64);
    metrics.phase_enter(kmatch_obs::phase::GS_ROUNDS);
    run_rounds(prefs, ws, metrics, &mut stats);
    metrics.span_end(span::GS_SOLVE);
    metrics.solve_done(true, stats.proposals);
    ws.solved_n = n;

    finish(ws, stats)
}

/// Shared epilogue: read the perfect matching out of `ws.best`.
fn finish(ws: &GsWorkspace, stats: GsStats) -> GsOutcome {
    let n = ws.best.len();
    let mut partner = vec![0u32; n];
    for (w, &best) in ws.best.iter().enumerate() {
        let m = best as u32;
        debug_assert_ne!(m, FREE, "GS always terminates with a perfect matching");
        partner[m as usize] = w as u32;
    }
    GsOutcome {
        matching: BipartiteMatching::from_proposer_partners(partner),
        stats,
    }
}

/// Epilogue for incomplete solves: unmatched slots stay [`UNMATCHED`].
fn finish_partial(ws: &GsWorkspace, stats: GsStats) -> (PartialMatching, GsStats) {
    let n = ws.best.len();
    let mut partner_of_proposer = vec![UNMATCHED; n];
    let mut partner_of_responder = vec![UNMATCHED; n];
    for (w, &best) in ws.best.iter().enumerate() {
        let m = best as u32;
        if m != FREE {
            partner_of_proposer[m as usize] = w as u32;
            partner_of_responder[w] = m;
        }
    }
    (
        PartialMatching {
            partner_of_proposer,
            partner_of_responder,
        },
        stats,
    )
}

/// The proposal rounds of one solve. Complete oracles run the branchless
/// strip kernel ([`run_rounds_kernel`]); incomplete ones
/// (`P::COMPLETE == false`) run the scalar loop here, which adds the
/// proposer-exhaustion and responder-cutoff branches. Both resolve
/// proposals in free-list order within each round, so on a complete oracle
/// they run the identical schedule (pinned by the strip-vs-scalar
/// differential suites). `P::COMPLETE` is a compile-time constant, so each
/// monomorphization carries one loop.
fn run_rounds<P: PrefOracle, M: Metrics>(
    prefs: &P,
    ws: &mut GsWorkspace,
    metrics: &mut M,
    stats: &mut GsStats,
) {
    if P::COMPLETE {
        run_rounds_kernel(prefs, ws, metrics, stats);
        return;
    }
    // The round state lives in locals, so the rounds never write to the
    // workspace itself (see `run_rounds_kernel`).
    let (mut free, mut next_free) = (&mut ws.free[..], &mut ws.next_free[..]);
    let (next, best) = (&mut ws.next[..], &mut ws.best[..]);
    let mut free_len = free.len();
    while free_len > 0 {
        stats.rounds += 1;
        metrics.round();
        // Round spans are fine-grained (thousands per large solve, a
        // few hundred ns each): only observers that declare `FINE_SPANS`
        // get them, so the always-armed flight recorder stays cheap.
        if M::FINE_SPANS {
            metrics.span_begin(span::GS_ROUND, stats.rounds as u64);
        }
        let mut nf_len = 0;
        let mut reject = |m: u32| {
            next_free[nf_len] = m;
            nf_len += 1;
        };
        for &m in &free[..free_len] {
            // An exhausted truncated row leaves the proposer unmatched:
            // drop it from the free list without a proposal.
            if next[m as usize] >= prefs.row_len(m) {
                continue;
            }
            // One fused load: `rank << 32 | responder` (see
            // `PrefOracle::proposal_entry`); swap the low word to get
            // the packed candidate from the responder's point of view.
            let entry = prefs.proposal_entry(m, next[m as usize]);
            let w = entry as u32;
            next[m as usize] += 1;
            stats.proposals += 1;
            metrics.proposal();
            // Forbidden-pair check (§III-B): a responder rejects any
            // suitor she ranks at or beyond her cutoff, regardless of
            // her current engagement.
            if (entry >> 32) as u32 >= prefs.responder_cutoff(w) {
                reject(m);
                metrics.rejection();
                continue;
            }
            // Packed compare: rank order decides (ranks within a list
            // are distinct), and any candidate beats VACANT.
            let cand = (entry & RANK_HI) | m as u64;
            let cur = best[w as usize];
            if cand < cur {
                best[w as usize] = cand;
                if cur as u32 != FREE {
                    reject(cur as u32);
                    metrics.holder_swap();
                    metrics.rejection();
                }
            } else {
                reject(m);
                metrics.rejection();
            }
        }
        if M::FINE_SPANS {
            metrics.span_end(span::GS_ROUND);
        }
        std::mem::swap(&mut free, &mut next_free);
        free_len = nf_len;
    }
}

/// Strip width of the branchless kernel (eight packed entries = one cache
/// line; see [`kmatch_prefs::PROPOSAL_STRIP`]).
const LANES: usize = kmatch_prefs::PROPOSAL_STRIP;

/// The branchless two-phase round kernel — the untraced hot loop.
///
/// Each round is restructured into the paper's synchronous
/// "propose, then resolve" shape, in strips of [`LANES`] proposers:
///
/// 1. **Propose (gather).** The strip's cursors are read and advanced, and
///    the fused `rank << 32 | responder` entries are loaded in one batched
///    [`PrefOracle::proposal_entry_strip`] call. The lanes are independent
///    (a proposer appears at most once per round), so arena backends
///    pipeline the loads and computed backends overlap the lane arithmetic.
/// 2. **Resolve (select).** Each lane's acceptance is a cmov-style select
///    on the packed words — no data-dependent branch anywhere:
///    `accept = cand < cur` picks both the new holder
///    (`best[w] = min(cand, cur)`) and the loser (`max(cand, cur)`), and the
///    loser's low word is appended to the next free list with a branchless
///    filtered store (`VACANT` losers — a vacancy win — advance nothing).
///
/// Resolution runs in free-list order, exactly like the scalar loop, so the
/// next round's free list is *byte-identical* to the scalar path's — not
/// merely equivalent: matchings, proposal counts, round counts, and every
/// intermediate holder table agree with [`gale_shapley_reference`].
///
/// Outcome counts (rejections, holder swaps) accumulate in registers and
/// flush once per round through [`Metrics::round_bulk`]; per-event metric
/// calls never appear in the lane bodies.
fn run_rounds_kernel<P: PrefOracle, M: Metrics>(
    prefs: &P,
    ws: &mut GsWorkspace,
    metrics: &mut M,
    stats: &mut GsStats,
) {
    // Round state — which buffer holds the free list, and its length —
    // lives in locals, and both buffers are sized once in `reset`. Most
    // of the ≈ 2000 rounds of an n = 2000 solve propose once or twice,
    // so per-round writes to the workspace (the `Vec` resize, truncate
    // and swap this replaces) were a large share of the work, and they
    // made the solve time depend on where the allocator put the
    // buffers: with them, a sweep of the arrays' relative page offsets
    // spread in-cache solves over about 2×; without, over a few percent.
    let (mut free, mut next_free) = (&mut ws.free[..], &mut ws.next_free[..]);
    let (next, best) = (&mut ws.next[..], &mut ws.best[..]);
    let mut free_len = free.len();
    while free_len > 0 {
        stats.rounds += 1;
        metrics.round();
        if M::FINE_SPANS {
            metrics.span_begin(span::GS_ROUND, stats.rounds as u64);
        }
        // The loser store is unconditional (the index advances only for
        // real losers); `next_free` is `n` long, and a round never
        // appends more losers than it has proposals.
        let (nf_len, rejections, swaps) =
            kernel_round(prefs, &free[..free_len], next, best, next_free);
        stats.proposals += free_len as u64;
        metrics.round_bulk(free_len as u64, rejections, swaps);
        if M::FINE_SPANS {
            metrics.span_end(span::GS_ROUND);
        }
        std::mem::swap(&mut free, &mut next_free);
        free_len = nf_len;
    }
}

/// One synchronous round of the strip kernel over pre-split buffers.
///
/// The scratch arrays arrive as four *separate* slice parameters rather
/// than through `&mut GsWorkspace` so the compiler gets `noalias` on each:
/// a loser store through `next_free` provably cannot clobber the free list
/// being scanned or a cursor about to be read, which keeps the gathered
/// lane state in registers across the whole strip.
///
/// Returns `(losers appended, rejections, holder swaps)`; rejections equal
/// the appended losers by construction (a vacancy win appends nothing and
/// rejects nobody).
#[inline]
fn kernel_round<P: PrefOracle>(
    prefs: &P,
    free: &[u32],
    next: &mut [u32],
    best: &mut [u64],
    next_free: &mut [u32],
) -> (usize, u64, u64) {
    let mut nf_len = 0usize;
    let mut rejections = 0u64;
    let mut swaps = 0u64;
    let mut strips = free.chunks_exact(LANES);
    for strip in strips.by_ref() {
        let mut ms = [0u32; LANES];
        let mut entries = [0u64; LANES];
        gather_strip(prefs, strip, next, &mut ms, &mut entries);
        resolve_strip(
            &ms,
            &entries,
            best,
            next_free,
            &mut nf_len,
            &mut rejections,
            &mut swaps,
        );
    }
    // Sub-strip tail: the same branchless body, one lane at a time.
    for &m in strips.remainder() {
        let entry = prefs.proposal_entry(m, next[m as usize]);
        next[m as usize] += 1;
        let w = entry as u32 as usize;
        let cand = (entry & RANK_HI) | m as u64;
        let cur = best[w];
        let accept = cand < cur;
        best[w] = if accept { cand } else { cur };
        let loser = if accept { cur } else { cand };
        next_free[nf_len] = loser as u32;
        let lost = (loser != VACANT) as usize;
        nf_len += lost;
        rejections += lost as u64;
        swaps += (accept & (cur != VACANT)) as u64;
    }
    (nf_len, rejections, swaps)
}

/// Phase 1 of the strip kernel: read and advance one strip's cursors, then
/// gather its fused entries in one batched call.
#[inline(always)]
fn gather_strip<P: PrefOracle>(
    prefs: &P,
    strip: &[u32],
    next: &mut [u32],
    ms: &mut [u32; LANES],
    entries: &mut [u64; LANES],
) {
    let mut pos = [0u32; LANES];
    for (j, &m) in strip.iter().enumerate() {
        ms[j] = m;
        pos[j] = next[m as usize];
        next[m as usize] += 1;
    }
    prefs.proposal_entry_strip(ms, &pos, entries);
}

/// Phase 2 of the strip kernel: resolve one strip's proposals, in lane
/// order (= free-list order), with the branchless holder-swap body.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn resolve_strip(
    ms: &[u32; LANES],
    entries: &[u64; LANES],
    best: &mut [u64],
    next_free: &mut [u32],
    nf_len: &mut usize,
    rejections: &mut u64,
    swaps: &mut u64,
) {
    for j in 0..LANES {
        let entry = entries[j];
        let w = entry as u32 as usize;
        let cand = (entry & RANK_HI) | ms[j] as u64;
        let cur = best[w];
        let accept = cand < cur;
        best[w] = if accept { cand } else { cur };
        let loser = if accept { cur } else { cand };
        next_free[*nf_len] = loser as u32;
        let lost = (loser != VACANT) as usize;
        *nf_len += lost;
        *rejections += lost as u64;
        *swaps += (accept & (cur != VACANT)) as u64;
    }
}

/// Run proposer-proposing Gale–Shapley; returns the proposer-optimal stable
/// matching with proposal/round counts.
///
/// Allocates a transient [`GsWorkspace`]; batch callers should hold one
/// workspace and call [`GsWorkspace::solve`] directly.
///
/// ```
/// use kmatch_gs::{gale_shapley, is_stable};
/// use kmatch_prefs::gen::paper::example1_first;
///
/// let inst = example1_first();
/// let out = gale_shapley(&inst);
/// assert!(is_stable(&inst, &out.matching));
/// assert_eq!(out.matching.partner_of_proposer(1), 0); // (m', w)
/// assert!(out.stats.proposals <= 4);                  // n² bound
/// ```
pub fn gale_shapley<P: PrefOracle>(prefs: &P) -> GsOutcome {
    GsWorkspace::new().solve(prefs)
}

/// Gale–Shapley with the full §II-A event dialogue: the reference engine
/// run with an event log, so the events come in the exact order a
/// proposal, its "maybe" and its rejections happen. Matching and counters
/// equal [`gale_shapley`]'s.
pub fn gale_shapley_traced<P: BipartitePrefs>(prefs: &P) -> (GsOutcome, Vec<GsEvent>) {
    let mut events = Vec::new();
    let out = run_reference(prefs, Some(&mut events));
    (out, events)
}

/// The original runtime-checked implementation, kept verbatim as a
/// differential baseline for the fast path (see `tests/prop_fastpath.rs`
/// and the `single` rows of `bench_gs_json`).
pub fn gale_shapley_reference<P: BipartitePrefs>(prefs: &P) -> GsOutcome {
    run_reference(prefs, None)
}

fn run_reference<P: BipartitePrefs>(
    prefs: &P,
    mut trace: Option<&mut Vec<GsEvent>>,
) -> GsOutcome {
    let n = prefs.n();
    assert!(n > 0, "empty instance");
    // next[m]: position in m's list of the next responder to propose to.
    let mut next = vec![0u32; n];
    // fiance[w]: current provisional proposer of w, or FREE.
    let mut fiance = vec![FREE; n];
    let mut stats = GsStats::default();

    let mut free: Vec<u32> = (0..n as u32).collect();
    let mut next_free: Vec<u32> = Vec::new();
    while !free.is_empty() {
        stats.rounds += 1;
        if let Some(t) = trace.as_deref_mut() {
            t.push(GsEvent::RoundStart {
                round: stats.rounds,
            });
        }
        for &m in &free {
            let list = prefs.proposer_list(m);
            let w = list[next[m as usize] as usize];
            next[m as usize] += 1;
            stats.proposals += 1;
            if let Some(t) = trace.as_deref_mut() {
                t.push(GsEvent::Propose {
                    proposer: m,
                    responder: w,
                });
            }
            let holder = fiance[w as usize];
            if holder == FREE {
                fiance[w as usize] = m;
                if let Some(t) = trace.as_deref_mut() {
                    t.push(GsEvent::Engage {
                        proposer: m,
                        responder: w,
                    });
                }
            } else if prefs.responder_prefers(w, m, holder) {
                fiance[w as usize] = m;
                next_free.push(holder);
                if let Some(t) = trace.as_deref_mut() {
                    t.push(GsEvent::Reject {
                        proposer: holder,
                        responder: w,
                    });
                    t.push(GsEvent::Engage {
                        proposer: m,
                        responder: w,
                    });
                }
            } else {
                next_free.push(m);
                if let Some(t) = trace.as_deref_mut() {
                    t.push(GsEvent::Reject {
                        proposer: m,
                        responder: w,
                    });
                }
            }
        }
        free.clear();
        std::mem::swap(&mut free, &mut next_free);
    }

    let mut partner = vec![0u32; n];
    for (w, &m) in fiance.iter().enumerate() {
        debug_assert_ne!(m, FREE, "GS always terminates with a perfect matching");
        partner[m as usize] = w as u32;
    }
    GsOutcome {
        matching: BipartiteMatching::from_proposer_partners(partner),
        stats,
    }
}

/// The **responder-optimal** stable matching: run GS with the roles
/// swapped via a zero-copy [`kmatch_prefs::ReverseView`], then swap the
/// result back into the original orientation.
pub fn responder_optimal<P>(prefs: &P) -> GsOutcome
where
    P: BipartitePrefs + kmatch_prefs::ResponderListSlice,
{
    let rev = kmatch_prefs::ReverseView::new(prefs);
    let mut out = gale_shapley(&rev);
    out.matching = out.matching.swapped();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmatch_prefs::gen::paper::{example1_first, example1_second};
    use kmatch_prefs::gen::structured::{cyclic_bipartite, identical_bipartite};
    use kmatch_prefs::gen::uniform::uniform_bipartite;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn example1_first_outcome() {
        // Paper: "m will then propose to w' to form a stable matching:
        // (m', w) and (m, w')".
        let out = gale_shapley(&example1_first());
        assert_eq!(out.matching.partner_of_proposer(1), 0); // (m', w)
        assert_eq!(out.matching.partner_of_proposer(0), 1); // (m, w')
        assert_eq!(out.stats.proposals, 3); // m→w, m'→w, then m→w'
    }

    #[test]
    fn example1_second_is_man_optimal() {
        // Paper: "The GS algorithm will generate one stable matching:
        // (m, w) and (m', w') in favor of men".
        let out = gale_shapley(&example1_second());
        assert_eq!(out.matching.partner_of_proposer(0), 0);
        assert_eq!(out.matching.partner_of_proposer(1), 1);
        assert_eq!(out.stats.proposals, 2);
        assert_eq!(out.stats.rounds, 1);
    }

    #[test]
    fn woman_optimal_via_swapped_instance() {
        // Running GS from the women's side on Example 1 (second lists)
        // yields the woman-optimal (m, w'), (m', w).
        let out = gale_shapley(&example1_second().swapped());
        // Proposers are now women; w (0) gets m' (1), w' (1) gets m (0).
        assert_eq!(out.matching.partner_of_proposer(0), 1);
        assert_eq!(out.matching.partner_of_proposer(1), 0);
    }

    #[test]
    fn identical_lists_hit_quadratic_proposals() {
        // Serial dictatorship: n(n+1)/2 proposals.
        for n in [1usize, 2, 5, 30] {
            let out = gale_shapley(&identical_bipartite(n));
            assert_eq!(out.stats.proposals, (n * (n + 1) / 2) as u64, "n = {n}");
        }
    }

    #[test]
    fn cyclic_lists_finish_in_one_round() {
        let out = gale_shapley(&cyclic_bipartite(64));
        assert_eq!(out.stats.proposals, 64);
        assert_eq!(out.stats.rounds, 1);
    }

    #[test]
    fn proposals_bounded_by_n_squared() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..20 {
            let inst = uniform_bipartite(40, &mut rng);
            let out = gale_shapley(&inst);
            assert!(out.stats.proposals <= 40 * 40);
            assert!(out.stats.proposals >= 40);
        }
    }

    #[test]
    fn output_is_stable_on_random_instances() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for _ in 0..20 {
            let inst = uniform_bipartite(25, &mut rng);
            let out = gale_shapley(&inst);
            assert!(crate::stability::is_stable(&inst, &out.matching));
        }
    }

    #[test]
    fn trace_records_paper_dialogue() {
        let (_, trace) = gale_shapley_traced(&example1_first());
        // Round 1: both m and m' propose to w; w keeps m' (prefers m').
        assert!(trace.contains(&GsEvent::Propose {
            proposer: 0,
            responder: 0
        }));
        assert!(trace.contains(&GsEvent::Propose {
            proposer: 1,
            responder: 0
        }));
        assert!(trace.contains(&GsEvent::Reject {
            proposer: 0,
            responder: 0
        }));
        // Round 2: m proposes to w' and is accepted.
        assert!(trace.contains(&GsEvent::Propose {
            proposer: 0,
            responder: 1
        }));
        assert!(trace.contains(&GsEvent::Engage {
            proposer: 0,
            responder: 1
        }));
    }

    #[test]
    fn traced_matches_untraced() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let inst = uniform_bipartite(30, &mut rng);
        let a = gale_shapley(&inst);
        let (b, _) = gale_shapley_traced(&inst);
        assert_eq!(a.matching, b.matching);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn fast_path_matches_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut ws = GsWorkspace::new();
        for n in [1usize, 2, 13, 40, 77] {
            let inst = uniform_bipartite(n, &mut rng);
            let fast = ws.solve(&inst);
            let reference = gale_shapley_reference(&inst);
            assert_eq!(fast.matching, reference.matching, "n = {n}");
            assert_eq!(fast.stats, reference.stats, "n = {n}");
        }
    }

    #[test]
    fn workspace_reuse_across_sizes() {
        // Shrinking and regrowing must not leak state between solves.
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut ws = GsWorkspace::with_capacity(64);
        let sizes = [50usize, 3, 64, 1, 17, 64];
        for n in sizes {
            let inst = uniform_bipartite(n, &mut rng);
            let fast = ws.solve(&inst);
            let reference = gale_shapley_reference(&inst);
            assert_eq!(fast.matching, reference.matching, "n = {n}");
            assert_eq!(fast.stats, reference.stats, "n = {n}");
        }
    }

    #[test]
    fn responder_optimal_matches_swapped_instance() {
        // The zero-copy ReverseView path must agree with running GS on the
        // deep-copied swapped instance.
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        for n in [2usize, 9, 33] {
            let inst = uniform_bipartite(n, &mut rng);
            let via_view = super::responder_optimal(&inst);
            let via_swap = gale_shapley(&inst.swapped()).matching.swapped();
            assert_eq!(via_view.matching, via_swap, "n = {n}");
            assert!(crate::stability::is_stable(&inst, &via_view.matching));
        }
        // On Example 1 (second lists) it is the woman-optimal matching.
        let out = super::responder_optimal(&example1_second());
        assert_eq!(out.matching.partner_of_proposer(0), 1);
        assert_eq!(out.matching.partner_of_proposer(1), 0);
    }

    #[test]
    fn metered_matches_untraced_and_counts_hold() {
        use kmatch_obs::SolverMetrics;
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut ws = GsWorkspace::new();
        let mut m = SolverMetrics::new();
        let mut expect_proposals = 0u64;
        for n in [1usize, 2, 17, 40] {
            let inst = uniform_bipartite(n, &mut rng);
            let plain = gale_shapley(&inst);
            let metered = ws.solve_metered(&inst, &mut m);
            assert_eq!(plain.matching, metered.matching, "n = {n}");
            assert_eq!(plain.stats, metered.stats, "n = {n}");
            expect_proposals += plain.stats.proposals;
        }
        assert_eq!(m.solves, 4);
        assert_eq!(m.solvable, 4);
        assert_eq!(m.proposals, expect_proposals);
        // Every proposal either ends rejected or holds the final slot:
        // rejections = proposals − n per instance, summed.
        assert_eq!(m.rejections, expect_proposals - (1 + 2 + 17 + 40));
        assert_eq!(m.workspace_fresh + m.workspace_reused, 4);
        assert!(m.workspace_fresh >= 1);
        assert_eq!(m.proposals_per_solve.count(), 4);
    }

    #[test]
    fn single_member_instance() {
        let inst = identical_bipartite(1);
        let out = gale_shapley(&inst);
        assert_eq!(out.matching.partner_of_proposer(0), 0);
        assert_eq!(out.stats.proposals, 1);
    }

    use rand::Rng;

    /// Draw one random delta against an `n × n` instance, using rows of a
    /// second random instance as `SetRow` payloads.
    fn random_delta(n: usize, donor: &kmatch_prefs::BipartiteInstance, rng: &mut impl Rng) -> PrefDelta {
        let side = if rng.gen_bool(0.5) {
            DeltaSide::Proposer
        } else {
            DeltaSide::Responder
        };
        let row = rng.gen_range(0..n) as u32;
        match rng.gen_range(0..3u32) {
            0 => PrefDelta::SetRow {
                side,
                row,
                prefs: match side {
                    DeltaSide::Proposer => donor.proposer_list(row).to_vec(),
                    DeltaSide::Responder => donor.responder_list(row).to_vec(),
                },
            },
            1 => PrefDelta::Swap {
                side,
                row,
                a: rng.gen_range(0..n) as u32,
                b: rng.gen_range(0..n) as u32,
            },
            _ => PrefDelta::Splice {
                side,
                row,
                from: rng.gen_range(0..n) as u32,
                to: rng.gen_range(0..n) as u32,
            },
        }
    }

    /// Apply `deltas` to `inst` the way `IncrementalGs` does, classifying
    /// each against the pre-delta rows, then re-solve through `ws`.
    fn apply_and_resolve<M: Metrics>(
        ws: &mut GsWorkspace,
        inst: &mut kmatch_prefs::BipartiteInstance,
        deltas: &[PrefDelta],
        metrics: &mut M,
    ) -> GsOutcome {
        let mut live = false;
        let mut touched = Vec::new();
        for delta in deltas {
            live |= !ws.delta_is_dead(inst, delta);
            if delta.side() == DeltaSide::Responder {
                touched.push(delta.row());
            }
            inst.apply_delta(delta).unwrap();
        }
        ws.resolve(inst, live, &touched, metrics)
    }

    #[test]
    fn warm_resolve_matches_cold_over_random_deltas() {
        use kmatch_obs::SolverMetrics;
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let mut ws = GsWorkspace::new();
        let mut m = SolverMetrics::new();
        for n in [1usize, 2, 8, 23, 40] {
            let mut inst = uniform_bipartite(n, &mut rng);
            let donor = uniform_bipartite(n, &mut rng);
            ws.solve(&inst);
            for step in 0..12 {
                let delta = random_delta(n, &donor, &mut rng);
                let warm =
                    apply_and_resolve(&mut ws, &mut inst, std::slice::from_ref(&delta), &mut m);
                let cold = gale_shapley(&inst);
                assert_eq!(warm.matching, cold.matching, "n = {n}, step = {step}");
                assert!(crate::stability::is_stable(&inst, &warm.matching));
            }
        }
        assert!(
            m.warm_solves > 0 && m.warm_fallbacks > 0,
            "both tiers must fire"
        );
    }

    #[test]
    fn warm_resolve_accepts_multi_row_delta_batches() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut ws = GsWorkspace::new();
        let n = 19usize;
        let mut inst = uniform_bipartite(n, &mut rng);
        let donor = uniform_bipartite(n, &mut rng);
        ws.solve(&inst);
        for _ in 0..8 {
            let deltas: Vec<PrefDelta> =
                (0..3).map(|_| random_delta(n, &donor, &mut rng)).collect();
            let warm = apply_and_resolve(&mut ws, &mut inst, &deltas, &mut NoMetrics);
            assert_eq!(warm.matching, gale_shapley(&inst).matching);
        }
    }

    #[test]
    fn warm_resolve_with_no_deltas_replays_previous_matching() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let inst = uniform_bipartite(17, &mut rng);
        let mut ws = GsWorkspace::new();
        let cold = ws.solve(&inst);
        let warm = ws.resolve(&inst, false, &[], &mut NoMetrics);
        assert_eq!(warm.matching, cold.matching);
        assert_eq!(warm.stats.proposals, 0);
        assert_eq!(warm.stats.rounds, 0);
    }

    #[test]
    fn warm_resolve_falls_back_cold_on_size_mismatch() {
        use kmatch_obs::SolverMetrics;
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let mut ws = GsWorkspace::new();
        ws.solve(&uniform_bipartite(9, &mut rng));
        let other = uniform_bipartite(14, &mut rng);
        let mut m = SolverMetrics::new();
        let out = ws.resolve(&other, false, &[], &mut m);
        assert_eq!(out.matching, gale_shapley(&other).matching);
        assert_eq!(m.warm_fallbacks, 1);
        assert_eq!(m.warm_solves, 0);
        // A fresh workspace has no previous execution at all.
        let mut cold_ws = GsWorkspace::new();
        let out2 = cold_ws.resolve(&other, false, &[], &mut m);
        assert_eq!(out2.matching, out.matching);
        assert_eq!(m.warm_fallbacks, 2);
    }

    #[test]
    fn warm_resolve_replays_a_one_row_edit_past_the_consumed_prefix() {
        use kmatch_obs::SolverMetrics;
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let n = 60usize;
        let mut inst = uniform_bipartite(n, &mut rng);
        let mut ws = GsWorkspace::new();
        ws.solve(&inst);
        let delta = PrefDelta::Swap {
            side: DeltaSide::Proposer,
            row: 7,
            a: (n - 1) as u32,
            b: (n - 2) as u32,
        };
        assert!(ws.delta_is_dead(&inst, &delta), "row 7 never got that far");
        let mut m = SolverMetrics::new();
        let warm = apply_and_resolve(&mut ws, &mut inst, std::slice::from_ref(&delta), &mut m);
        assert_eq!(warm.matching, gale_shapley(&inst).matching);
        assert_eq!(m.warm_solves, 1);
        assert_eq!(m.warm_fallbacks, 0);
        assert_eq!(
            warm.stats.proposals, 0,
            "a dead edit replays without proposing"
        );
        // The same swap at the head of the row is live: a cold solve.
        let head = PrefDelta::Swap {
            side: DeltaSide::Proposer,
            row: 7,
            a: 0,
            b: 1,
        };
        assert!(!ws.delta_is_dead(&inst, &head));
        let cold = apply_and_resolve(&mut ws, &mut inst, std::slice::from_ref(&head), &mut m);
        assert_eq!(cold.stats, gale_shapley(&inst).stats);
        assert_eq!(m.warm_fallbacks, 1);
    }

    #[test]
    fn random_oracle_solve_matches_materialized_csr() {
        // The lazy backend and its O(n²) materialization must run the
        // identical proposal schedule: same matching, same counters.
        use kmatch_prefs::{CsrPrefs, RandomOracle};
        let mut ws = GsWorkspace::new();
        let mut ws_csr = GsWorkspace::new();
        for n in [1usize, 2, 17, 64, 257] {
            let oracle = RandomOracle::new(n, 0xC0FFEE + n as u64);
            let lazy = ws.solve(&oracle);
            let csr = CsrPrefs::from_oracle(&oracle);
            let dense = ws_csr.solve(&csr);
            assert_eq!(lazy.matching, dense.matching, "n = {n}");
            assert_eq!(lazy.stats, dense.stats, "n = {n}");
            let reference = gale_shapley_reference(&csr);
            assert_eq!(lazy.matching, reference.matching, "n = {n}");
            assert_eq!(lazy.stats, reference.stats, "n = {n}");
        }
    }

    #[test]
    fn score_oracle_is_serial_dictatorship() {
        use kmatch_prefs::{CsrPrefs, PrefOracle as _, ScoreOracle};
        let n = 48usize;
        let oracle = ScoreOracle::seeded(n, 77);
        let mut ws = GsWorkspace::new();
        let lazy = ws.solve(&oracle);
        // Identical lists: n(n+1)/2 proposals, best proposer gets the
        // shared favourite.
        assert_eq!(lazy.stats.proposals, (n * (n + 1) / 2) as u64);
        let dense = ws.solve(&CsrPrefs::from_oracle(&oracle));
        assert_eq!(lazy.matching, dense.matching);
        let top_m = oracle.proposer_order()[0];
        let top_w = oracle.candidate(0, 0);
        assert_eq!(lazy.matching.partner_of_proposer(top_m), top_w);
    }

    #[test]
    fn truncated_solve_matches_smi_on_materialized_lists() {
        use crate::incomplete::{is_smi_stable, smi_gale_shapley, SmiInstance};
        use kmatch_prefs::{PrefOracle as _, RandomOracle, Truncated};
        for (n, keep) in [(12usize, 3u32), (40, 6), (40, 1), (64, 64)] {
            let inner = RandomOracle::new(n, 31 * n as u64 + keep as u64);
            let trunc = Truncated::new(inner, keep);
            let (partial, _) = GsWorkspace::new().solve_incomplete(&trunc);
            // Materialize the §III-B forbidden-pair reduction: a pair
            // survives iff both sides rank it inside the cutoff.
            let keep = keep.min(n as u32);
            let proposer_lists: Vec<Vec<u32>> = (0..n as u32)
                .map(|m| {
                    (0..keep)
                        .map(|pos| inner.candidate(m, pos))
                        .filter(|&w| inner.responder_rank(w, m) < keep)
                        .collect()
                })
                .collect();
            let responder_lists: Vec<Vec<u32>> = (0..n as u32)
                .map(|w| {
                    (0..keep)
                        .map(|pos| inner.responder_candidate(w, pos))
                        .filter(|&m| inner.proposer_rank(m, w) < keep)
                        .collect()
                })
                .collect();
            let smi = SmiInstance::from_lists(proposer_lists, responder_lists).unwrap();
            let (expect, _) = smi_gale_shapley(&smi);
            assert_eq!(
                partial.partner_of_proposer, expect.partner_of_proposer,
                "n = {n}, keep = {keep}"
            );
            assert!(is_smi_stable(&smi, &partial));
        }
    }

    #[test]
    fn solve_incomplete_on_a_complete_oracle_is_a_perfect_matching() {
        use crate::incomplete::UNMATCHED;
        use kmatch_prefs::RandomOracle;
        let oracle = RandomOracle::new(33, 5);
        let mut ws = GsWorkspace::new();
        let (partial, stats) = ws.solve_incomplete(&oracle);
        let full = ws.solve(&oracle);
        assert_eq!(stats, full.stats);
        for m in 0..33u32 {
            assert_ne!(partial.partner_of_proposer[m as usize], UNMATCHED);
            assert_eq!(
                partial.partner_of_proposer[m as usize],
                full.matching.partner_of_proposer(m)
            );
        }
    }

    #[test]
    fn warm_resolve_works_through_a_lazy_oracle() {
        // A workspace whose last solve was lazy replays its matching.
        use kmatch_prefs::RandomOracle;
        let oracle = RandomOracle::new(29, 3);
        let mut ws = GsWorkspace::new();
        let cold = ws.solve(&oracle);
        let warm = ws.resolve(&oracle, false, &[], &mut NoMetrics);
        assert_eq!(warm.matching, cold.matching);
        assert_eq!(warm.stats.proposals, 0);
    }

    #[test]
    fn warm_resolve_output_is_stable_by_exhaustive_check() {
        // Brute-force cross-check at n ≤ 8: after each delta the warm
        // result must appear in the exhaustively enumerated stable set of
        // the *mutated* instance — and be its proposer-optimal element
        // (what cold GS returns).
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        for n in [4usize, 6, 8] {
            let mut inst = uniform_bipartite(n, &mut rng);
            let donor = uniform_bipartite(n, &mut rng);
            let mut ws = GsWorkspace::new();
            ws.solve(&inst);
            for _ in 0..10 {
                let delta = random_delta(n, &donor, &mut rng);
                let warm = apply_and_resolve(
                    &mut ws,
                    &mut inst,
                    std::slice::from_ref(&delta),
                    &mut NoMetrics,
                );
                let all = crate::stability::all_stable_matchings(&inst);
                assert!(
                    all.contains(&warm.matching),
                    "warm result is not stable for the mutated instance (n = {n})"
                );
                assert_eq!(warm.matching, gale_shapley(&inst).matching);
            }
        }
    }
}
