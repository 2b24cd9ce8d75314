//! The zero-allocation Irving engine: phase 1 + phase 2 over the two-tier
//! reduced tables of [`RoommatesWorkspace`].
//!
//! Mirrors the reference solver ([`crate::solver::solve_reference`])
//! **exactly** — same proposal schedule, same rotation discovery order,
//! same elimination order — so matchings, no-stable-matching certificates,
//! proposal counts, and rotation counts are identical (pinned by the
//! differential suite in `tests/prop_fastpath.rs`). What changes is the
//! cost model:
//!
//! * Phase-1 deletions are **implicit**: a truncation is one store into a
//!   rank threshold, and the millions of pair deletions it implies on
//!   large instances are never executed (the reference pays a scattered
//!   write per deleted pair plus an O(n) rescan per truncation). Finding
//!   who to propose to is a monotone cursor walk, amortized O(1) per
//!   proposal — see the workspace docs for the liveness predicate.
//! * Phase 2 runs on a compact doubly-linked arena holding just the
//!   phase-1 survivors: `first`/`second`/`last` are pointer hops,
//!   `truncate_below` pays O(deleted), and an emptied list is signalled
//!   by the delete that empties it, erasing the reference's O(n)
//!   post-rotation scan.
//! * The per-rotation candidate rescan (`(0..n).filter(len ≥ 2)` + a
//!   fresh `Vec` every rotation) is replaced by **monotone seed cursors**:
//!   reduced lists only ever shrink, so the least-indexed participant
//!   with `len ≥ 2` — overall and per side — only ever moves right. Each
//!   cursor advances amortized O(n) over the whole solve while preserving
//!   [`RotationPolicy`] seed semantics bit-for-bit (`fair_smp` depends on
//!   them).
//! * Tracing is erased at compile time via the same `Tracer`/`NoTrace`
//!   monomorphization as `kmatch-gs`: the untraced instantiation has no
//!   event hooks, no removed-entry collection, and performs **zero**
//!   steady-state allocations when run through a reused workspace (the
//!   partner array of a returned stable matching is the only per-solve
//!   allocation).

use kmatch_obs::{Metrics, NoMetrics};
use kmatch_prefs::RoommatesOracle;
use kmatch_trace::span;

use crate::matching::RoommatesMatching;
use crate::policy::RotationPolicy;
use crate::solver::{RoommatesOutcome, SolveStats};
use crate::trace::RoommatesEvent;
use crate::workspace::{RoommatesWorkspace, NONE};

/// Compile-time trace hook set; the [`NoTrace`] instantiation erases every
/// call site and skips removed-entry collection entirely.
pub(crate) trait Tracer {
    /// Whether hooks observe events (gates removed-entry collection).
    const ENABLED: bool;
    /// `from` proposed to `to`, displacing `displaced`.
    fn proposal(&mut self, from: u32, to: u32, displaced: Option<u32>);
    /// Holding the proposal pruned `holder`'s list below `kept`.
    fn truncation(&mut self, holder: u32, kept: u32, removed: &[u32]);
    /// Phase 2 found a rotation.
    fn rotation(&mut self, xs: &[u32], ys: &[u32]);
    /// A reduced list emptied.
    fn list_emptied(&mut self, who: u32);
}

/// Zero-sized tracer for the fast path.
pub(crate) struct NoTrace;

impl Tracer for NoTrace {
    const ENABLED: bool = false;
    #[inline(always)]
    fn proposal(&mut self, _from: u32, _to: u32, _displaced: Option<u32>) {}
    #[inline(always)]
    fn truncation(&mut self, _holder: u32, _kept: u32, _removed: &[u32]) {}
    #[inline(always)]
    fn rotation(&mut self, _xs: &[u32], _ys: &[u32]) {}
    #[inline(always)]
    fn list_emptied(&mut self, _who: u32) {}
}

/// Tracer forwarding paper-style [`RoommatesEvent`]s to a callback.
pub(crate) struct LogTrace<'a> {
    /// The event sink.
    pub log: &'a mut dyn FnMut(RoommatesEvent),
}

impl Tracer for LogTrace<'_> {
    const ENABLED: bool = true;
    fn proposal(&mut self, from: u32, to: u32, displaced: Option<u32>) {
        (self.log)(RoommatesEvent::Proposal {
            from,
            to,
            displaced,
        });
    }
    fn truncation(&mut self, holder: u32, kept: u32, removed: &[u32]) {
        (self.log)(RoommatesEvent::Truncation {
            holder,
            kept,
            removed: removed.to_vec(),
        });
    }
    fn rotation(&mut self, xs: &[u32], ys: &[u32]) {
        (self.log)(RoommatesEvent::Rotation {
            xs: xs.to_vec(),
            ys: ys.to_vec(),
        });
    }
    fn list_emptied(&mut self, who: u32) {
        (self.log)(RoommatesEvent::ListEmptied { who });
    }
}

/// Monotone seed cursors — the incremental replacement for the reference
/// solver's per-rotation `(0..n).filter(len ≥ 2)` rescan.
///
/// Invariant: every participant left of a cursor permanently fails that
/// cursor's predicate (`len ≥ 2`, plus side membership for the side
/// cursors). Deletions only shrink lists and sides are static, so the
/// invariant survives every rotation elimination and each cursor advances
/// at most `n` positions over the whole solve.
struct SeedCursors {
    /// Least index with `len ≥ 2` (candidate fallback `candidates[0]`).
    all: u32,
    /// Least candidate index on side `false` / side `true`.
    by_side: [u32; 2],
    /// Parity for [`RotationPolicy::AlternateSides`].
    next_side: bool,
}

impl SeedCursors {
    fn new() -> Self {
        SeedCursors {
            all: 0,
            by_side: [0, 0],
            next_side: false,
        }
    }

    /// Least `p ≥ cursor` on `side == want` with `len(p) ≥ 2`, advancing
    /// the side cursor past permanently disqualified participants.
    fn side_min(&mut self, len: &[u32], side: &[bool], want: bool) -> Option<u32> {
        let c = &mut self.by_side[usize::from(want)];
        let n = len.len() as u32;
        while *c < n && (side[*c as usize] != want || len[*c as usize] < 2) {
            *c += 1;
        }
        (*c < n).then_some(*c)
    }

    /// Choose the next rotation seed, preserving [`crate::policy::SeedState`]
    /// semantics exactly: `None` iff no list has length ≥ 2; sided policies
    /// fall back to the overall least candidate; the alternation parity
    /// advances only on successful picks.
    fn pick(&mut self, len: &[u32], policy: &RotationPolicy) -> Option<u32> {
        let n = len.len() as u32;
        while self.all < n && len[self.all as usize] < 2 {
            self.all += 1;
        }
        if self.all == n {
            return None;
        }
        let fallback = self.all;
        match policy {
            RotationPolicy::FirstAvailable => Some(fallback),
            RotationPolicy::AlternateSides { side } => {
                let want = self.next_side;
                self.next_side = !self.next_side;
                Some(self.side_min(len, side, want).unwrap_or(fallback))
            }
            RotationPolicy::PreferSide { side, seed_from } => {
                Some(self.side_min(len, side, *seed_from).unwrap_or(fallback))
            }
        }
    }
}

/// Phase 1 over the implicit threshold tables: the exact proposal
/// schedule of [`crate::phase1::phase1_logged`] (same free-stack order,
/// same truncations). Returns the culprit whose list emptied, if any.
fn phase1<I: RoommatesOracle, T: Tracer, M: Metrics>(
    inst: &I,
    ws: &mut RoommatesWorkspace,
    proposals: &mut u64,
    tracer: &mut T,
    metrics: &mut M,
) -> Option<u32> {
    while let Some(x) = ws.free.pop() {
        // Like the reference, an emptied participant surfaces when it
        // proposes — the only moment phase 1 looks at its list.
        let Some(y) = ws.p1_first(inst, x) else {
            tracer.list_emptied(x);
            return Some(x);
        };
        *proposals += 1;
        metrics.proposal();
        // x is on y's reduced list, hence at least as good as y's current
        // holder — y trades up unconditionally.
        let z = ws.holds[y as usize];
        if z != NONE {
            debug_assert!(
                inst.prefers(y, x, z),
                "truncation keeps only better suitors"
            );
            ws.free.push(z);
            metrics.holder_swap();
            metrics.rejection();
        }
        ws.holds[y as usize] = x;
        tracer.proposal(x, y, (z != NONE).then_some(z));
        // The truncation "delete everything y ranks below x" is one
        // threshold store; its deletions stay implicit.
        let new_rank = inst.rank_of(y, x);
        debug_assert!(new_rank <= ws.thresh[y as usize], "thresholds only tighten");
        if ws.first_rank[y as usize] == NONE {
            ws.first_rank[y as usize] = new_rank;
        }
        if T::ENABLED {
            ws.removed.clear();
            ws.collect_p1_removed(inst, y, new_rank);
        }
        ws.thresh[y as usize] = new_rank;
        // Metric semantics: one "truncation" per threshold store (a
        // tightening of y's live bound), not per implied pair deletion —
        // the fast path never enumerates those.
        metrics.phase1_truncation();
        if T::ENABLED && !ws.removed.is_empty() {
            tracer.truncation(y, x, &ws.removed);
        }
    }
    debug_assert!(
        ws.holds.iter().all(|&h| h != NONE),
        "all participants hold a proposal when phase 1 succeeds"
    );
    None
}

/// Discover the rotation reachable from `start` into `ws.xs`/`ws.ys`,
/// leaving `ws.pos` fully cleared. Same walk as
/// [`crate::phase2::find_rotation`].
fn find_rotation(ws: &mut RoommatesWorkspace, start: u32) {
    debug_assert!(
        ws.len[start as usize] >= 2,
        "rotation seeds need a second preference"
    );
    ws.seq.clear();
    let mut a = start;
    let cycle_start = loop {
        let seen = ws.pos[a as usize];
        if seen != NONE {
            break seen as usize;
        }
        ws.pos[a as usize] = ws.seq.len() as u32;
        ws.seq.push(a);
        let b = ws
            .second(a)
            .expect("rotation path stays within length-2 lists");
        a = ws
            .last(b)
            .expect("b holds a proposal, so its list is non-empty");
    };
    ws.xs.clear();
    ws.xs.extend_from_slice(&ws.seq[cycle_start..]);
    ws.ys.clear();
    for i in cycle_start..ws.seq.len() {
        let x = ws.seq[i];
        ws.ys
            .push(ws.first(x).expect("rotation members hold a proposal"));
    }
    for &p in &ws.seq {
        ws.pos[p as usize] = NONE;
    }
}

/// Eliminate the rotation in `ws.xs`: gather the `(second(x_i), x_i)`
/// targets against pre-elimination state, then truncate each in cycle
/// order. Returns the first participant emptied by the eliminating
/// truncations, straight from the delete-time signal.
fn eliminate_rotation(ws: &mut RoommatesWorkspace) -> Option<u32> {
    // All second() lookups must reflect discovery-time state, before any
    // deletion of this round — hence the gather pass.
    let xs = std::mem::take(&mut ws.xs);
    ws.targets.clear();
    for &x in &xs {
        let y_next = ws.second(x).expect("rotation member still has a second");
        ws.targets.push((y_next, x));
    }
    ws.xs = xs;
    let mut culprit = NONE;
    let targets = std::mem::take(&mut ws.targets);
    for &(y, x) in &targets {
        ws.truncate_below(y, x, &mut culprit, false);
    }
    ws.targets = targets;
    (culprit != NONE).then_some(culprit)
}

/// The engine core, monomorphized per tracer and observer.
pub(crate) fn run_core<I: RoommatesOracle, T: Tracer, M: Metrics>(
    inst: &I,
    ws: &mut RoommatesWorkspace,
    policy: &RotationPolicy,
    tracer: &mut T,
    metrics: &mut M,
) -> RoommatesOutcome {
    let mut stats = SolveStats::default();
    let fresh = ws.reset(inst);
    metrics.workspace(fresh);

    metrics.span_begin(span::IRVING_SOLVE, inst.n() as u64);
    metrics.span_begin(span::IRVING_PHASE1, inst.n() as u64);
    metrics.phase_enter(kmatch_obs::phase::IRVING_PHASE1);
    let culprit = phase1(inst, ws, &mut stats.proposals, tracer, metrics);
    metrics.span_end(span::IRVING_PHASE1);
    if let Some(culprit) = culprit {
        metrics.span_end(span::IRVING_SOLVE);
        metrics.solve_done(false, stats.proposals);
        ws.footer = Some(crate::workspace::SolveFooter {
            n: inst.n(),
            stable: false,
            culprit,
            stats,
        });
        return RoommatesOutcome::NoStableMatching { culprit, stats };
    }

    // Collapse the implicit phase-1 deletions into the compact linked
    // arena phase 2 operates on.
    ws.materialize(inst);

    metrics.span_begin(span::IRVING_PHASE2, inst.n() as u64);
    metrics.phase_enter(kmatch_obs::phase::IRVING_PHASE2);
    let mut cursors = SeedCursors::new();
    while let Some(start) = cursors.pick(&ws.len, policy) {
        find_rotation(ws, start);
        tracer.rotation(&ws.xs, &ws.ys);
        stats.rotations += 1;
        metrics.phase2_rotation();
        if let Some(culprit) = eliminate_rotation(ws) {
            tracer.list_emptied(culprit);
            metrics.span_end(span::IRVING_PHASE2);
            metrics.span_end(span::IRVING_SOLVE);
            metrics.solve_done(false, stats.proposals);
            ws.footer = Some(crate::workspace::SolveFooter {
                n: inst.n(),
                stable: false,
                culprit,
                stats,
            });
            return RoommatesOutcome::NoStableMatching { culprit, stats };
        }
    }
    metrics.span_end(span::IRVING_PHASE2);
    metrics.span_end(span::IRVING_SOLVE);
    metrics.solve_done(true, stats.proposals);

    // Every reduced list is a singleton: read off the matching.
    let n = inst.n();
    let mut partner = vec![0u32; n];
    for (p, slot) in partner.iter_mut().enumerate() {
        *slot = ws.first(p as u32).expect("singleton lists are non-empty");
    }
    ws.footer = Some(crate::workspace::SolveFooter {
        n,
        stable: true,
        culprit: NONE,
        stats,
    });
    RoommatesOutcome::Stable {
        matching: RoommatesMatching::new(partner),
        stats,
    }
}

impl RoommatesWorkspace {
    /// Solve through this workspace with the default deterministic seeding
    /// ([`RotationPolicy::FirstAvailable`]) — the zero-allocation fast
    /// path. Produces exactly the outcome, certificate, and counters of
    /// [`crate::solver::solve_reference`].
    pub fn solve<I: RoommatesOracle>(&mut self, inst: &I) -> RoommatesOutcome {
        self.solve_with(inst, &RotationPolicy::FirstAvailable)
    }

    /// [`RoommatesWorkspace::solve`] with an explicit rotation-seeding
    /// policy (see [`crate::fair_smp`] for why the seed matters).
    pub fn solve_with<I: RoommatesOracle>(
        &mut self,
        inst: &I,
        policy: &RotationPolicy,
    ) -> RoommatesOutcome {
        run_core(inst, self, policy, &mut NoTrace, &mut NoMetrics)
    }

    /// [`RoommatesWorkspace::solve`] reporting to the observer `metrics`:
    /// proposals, holder swaps, phase-1 threshold tightenings, phase-2
    /// rotations, workspace fresh/reuse, the per-solve summary, and a span
    /// timeline — an `irving.solve` span enclosing `irving.phase1` and
    /// `irving.phase2` phase spans (see [`kmatch_trace::span`]). Wall time
    /// is the front-end's job (engines stay clock-free). With
    /// [`kmatch_obs::NoMetrics`] this monomorphizes to exactly
    /// [`RoommatesWorkspace::solve`].
    pub fn solve_metered<I: RoommatesOracle, M: Metrics>(
        &mut self,
        inst: &I,
        metrics: &mut M,
    ) -> RoommatesOutcome {
        self.solve_metered_with(inst, &RotationPolicy::FirstAvailable, metrics)
    }

    /// [`RoommatesWorkspace::solve_metered`] with an explicit
    /// rotation-seeding policy.
    pub fn solve_metered_with<I: RoommatesOracle, M: Metrics>(
        &mut self,
        inst: &I,
        policy: &RotationPolicy,
        metrics: &mut M,
    ) -> RoommatesOutcome {
        run_core(inst, self, policy, &mut NoTrace, metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::is_roommates_stable;
    use crate::solver::{solve_reference, solve_with_reference};
    use kmatch_prefs::gen::paper::{
        fig2_deadlock_smp, no_stable_roommates_4, section3b_left, section3b_right,
    };
    use kmatch_prefs::gen::uniform::{uniform_bipartite, uniform_roommates};
    use kmatch_prefs::RoommatesInstance;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn assert_agrees(inst: &RoommatesInstance, ws: &mut RoommatesWorkspace) {
        let fast = ws.solve(inst);
        let reference = solve_reference(inst);
        assert_eq!(fast.stats(), reference.stats());
        match (&fast, &reference) {
            (
                RoommatesOutcome::Stable { matching: a, .. },
                RoommatesOutcome::Stable { matching: b, .. },
            ) => assert_eq!(a, b),
            (
                RoommatesOutcome::NoStableMatching { culprit: a, .. },
                RoommatesOutcome::NoStableMatching { culprit: b, .. },
            ) => assert_eq!(a, b),
            _ => panic!("fast path and reference disagree on existence"),
        }
    }

    #[test]
    fn lazy_roommates_oracle_matches_its_materialization() {
        // The engine must run the identical schedule whether rows come from
        // the Feistel oracle or from the same lists materialized up front.
        use kmatch_prefs::{materialize_roommates, RandomRoommatesOracle};
        let mut ws = RoommatesWorkspace::new();
        let mut ws_dense = RoommatesWorkspace::new();
        for n in [2usize, 5, 16, 33] {
            for seed in 0..4u64 {
                let oracle = RandomRoommatesOracle::new(n, 1000 * n as u64 + seed);
                let lazy = ws.solve(&oracle);
                let inst = materialize_roommates(&oracle);
                let dense = ws_dense.solve(&inst);
                assert_eq!(lazy.stats(), dense.stats(), "n = {n}, seed = {seed}");
                match (&lazy, &dense) {
                    (
                        RoommatesOutcome::Stable { matching: a, .. },
                        RoommatesOutcome::Stable { matching: b, .. },
                    ) => {
                        assert_eq!(a, b);
                        assert!(is_roommates_stable(&inst, a));
                    }
                    (
                        RoommatesOutcome::NoStableMatching { culprit: a, .. },
                        RoommatesOutcome::NoStableMatching { culprit: b, .. },
                    ) => assert_eq!(a, b),
                    _ => panic!("lazy oracle and materialization disagree on existence"),
                }
            }
        }
    }

    #[test]
    fn paper_instances_agree_with_reference() {
        let mut ws = RoommatesWorkspace::new();
        assert_agrees(&section3b_left(), &mut ws);
        assert_agrees(&section3b_right(), &mut ws);
        assert_agrees(&no_stable_roommates_4(), &mut ws);
    }

    #[test]
    fn paper_left_instance_solves_stably() {
        let inst = section3b_left();
        let out = RoommatesWorkspace::new().solve(&inst);
        let m = out.matching().expect("left instance is solvable");
        assert!(is_roommates_stable(&inst, m));
    }

    #[test]
    fn random_instances_agree_with_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let mut ws = RoommatesWorkspace::new();
        for _ in 0..60 {
            // Even and odd sizes; odd instances are never solvable.
            for n in [7usize, 10, 16] {
                assert_agrees(&uniform_roommates(n, &mut rng), &mut ws);
            }
        }
    }

    #[test]
    fn sided_policies_agree_with_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(29);
        let mut ws = RoommatesWorkspace::new();
        for _ in 0..40 {
            let smp = uniform_bipartite(9, &mut rng);
            let rm = RoommatesInstance::from_bipartite(&smp);
            let side: Vec<bool> = (0..18).map(|p| p >= 9).collect();
            for policy in [
                RotationPolicy::AlternateSides { side: side.clone() },
                RotationPolicy::PreferSide {
                    side: side.clone(),
                    seed_from: false,
                },
                RotationPolicy::PreferSide {
                    side: side.clone(),
                    seed_from: true,
                },
            ] {
                let fast = ws.solve_with(&rm, &policy);
                let reference = solve_with_reference(&rm, policy);
                assert_eq!(
                    fast.matching(),
                    reference.matching(),
                    "policy outcomes must agree"
                );
                assert_eq!(fast.stats(), reference.stats());
            }
        }
    }

    #[test]
    fn traced_engine_matches_reference_events() {
        use crate::solver::{solve_with_logged, solve_with_logged_reference};
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        for n in [4usize, 8, 12, 13] {
            let inst = uniform_roommates(n, &mut rng);
            let mut fast_events = Vec::new();
            let mut ref_events = Vec::new();
            let fast = solve_with_logged(&inst, RotationPolicy::FirstAvailable, &mut |e| {
                fast_events.push(e)
            });
            let reference =
                solve_with_logged_reference(&inst, RotationPolicy::FirstAvailable, &mut |e| {
                    ref_events.push(e)
                });
            assert_eq!(fast.stats(), reference.stats());
            assert_eq!(fast_events, ref_events, "n = {n}");
        }
    }

    #[test]
    fn deadlock_seeding_still_orients_outcomes() {
        // The monotone cursors must preserve the paper's Fig. 2 seeding
        // behaviour end to end.
        let rm = RoommatesInstance::from_bipartite(&fig2_deadlock_smp());
        let side = vec![false, false, true, true];
        let mut ws = RoommatesWorkspace::new();
        let man_seeded = ws.solve_with(
            &rm,
            &RotationPolicy::PreferSide {
                side: side.clone(),
                seed_from: false,
            },
        );
        // Men fall to their second choices: woman-optimal (m,w'), (m',w).
        let m = man_seeded.matching().unwrap();
        assert_eq!(m.partner(0), 3);
        assert_eq!(m.partner(1), 2);
        let woman_seeded = ws.solve_with(
            &rm,
            &RotationPolicy::PreferSide {
                side,
                seed_from: true,
            },
        );
        let m = woman_seeded.matching().unwrap();
        assert_eq!(m.partner(0), 2);
        assert_eq!(m.partner(1), 3);
    }

    #[test]
    fn metered_matches_plain_and_counts_hold() {
        use kmatch_obs::SolverMetrics;
        let mut rng = ChaCha8Rng::seed_from_u64(37);
        let mut ws = RoommatesWorkspace::new();
        let mut m = SolverMetrics::new();
        let (mut solves, mut solvable) = (0u64, 0u64);
        let (mut proposals, mut rotations) = (0u64, 0u64);
        for _ in 0..20 {
            for n in [6usize, 9, 12] {
                let inst = uniform_roommates(n, &mut rng);
                let plain = ws.solve(&inst);
                let metered = ws.solve_metered(&inst, &mut m);
                assert_eq!(plain.matching(), metered.matching());
                assert_eq!(plain.stats(), metered.stats());
                solves += 1;
                solvable += u64::from(plain.matching().is_some());
                proposals += plain.stats().proposals;
                rotations += u64::from(plain.stats().rotations);
            }
        }
        assert_eq!(m.solves, solves);
        assert_eq!(m.solvable, solvable);
        assert_eq!(m.unsolvable, solves - solvable);
        assert_eq!(m.proposals, proposals);
        assert_eq!(m.phase2_rotations, rotations);
        // Every phase-1 proposal stores a threshold.
        assert_eq!(m.phase1_truncations, proposals);
        assert_eq!(m.proposals_per_solve.count(), solves);
    }

    #[test]
    fn empty_lists_detected_immediately() {
        let inst = RoommatesInstance::from_lists(vec![vec![], vec![]]).unwrap();
        let out = RoommatesWorkspace::new().solve(&inst);
        assert!(matches!(
            out,
            RoommatesOutcome::NoStableMatching { culprit: 0, .. }
        ));
    }
}
