//! The zero-allocation Irving engine: phase 1 + phase 2 over the two-tier
//! reduced tables of [`RoommatesWorkspace`].
//!
//! `run_core` is the crate's one Irving loop outside the reference
//! solver, and it runs in one of two modes. **Strict** is Irving's
//! verdict: the first emptied list stops the run and names the culprit —
//! every `solve*` entry point runs this mode. **Partition** is Tan's
//! stable-partition finder behind [`crate::partition`] and escalating
//! solves ([`crate::escalate`]): an emptied list becomes a singleton
//! counted against a budget, and an odd rotation is frozen as a party
//! instead of eliminated. Both modes walk the same proposal schedule and
//! rotation order, so on a solvable instance they are the same execution.
//!
//! The strict mode mirrors the reference solver
//! ([`crate::solver::solve_reference`]) **exactly** — same proposal
//! schedule, same rotation discovery order, same elimination order — so
//! matchings, no-stable-matching certificates, proposal counts, and
//! rotation counts are identical (pinned by the differential suite in
//! `tests/prop_fastpath.rs`). What changes is the cost model:
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
//! * The engine's one hook set is [`kmatch_obs::Metrics`]: with
//!   `NoMetrics` every hook inlines away, and a run through a reused
//!   workspace performs **zero** steady-state allocations (the partner
//!   array of a returned stable matching is the only per-solve
//!   allocation). The §III-B event dialogue
//!   ([`crate::solver::solve_traced`]) comes from the reference solver,
//!   which emits the same events in the same order.
//!
//! The core reports every per-event counter, the `workspace` hook and the
//! `irving.*` spans to its observer in both modes; the verdict hook
//! [`Metrics::solve_done`] is its callers' job, so an escalating solve that
//! runs several partition attempts still reports one verdict.

use kmatch_obs::{Metrics, NoMetrics};
use kmatch_prefs::RoommatesOracle;
use kmatch_trace::span;

use crate::matching::RoommatesMatching;
use crate::partition::{extract_party, is_party_rotation, read_partition, StablePartition};
use crate::policy::RotationPolicy;
use crate::solver::{RoommatesOutcome, SolveStats};
use crate::workspace::{RoommatesWorkspace, NONE};

/// Monotone seed cursors — the incremental replacement for the reference
/// solver's per-rotation `(0..n).filter(len ≥ 2)` rescan.
///
/// Invariant: every participant left of a cursor permanently fails that
/// cursor's predicate (`len ≥ 2` and not frozen, plus side membership for
/// the side cursors). Deletions only shrink lists, freezing a party is
/// permanent and sides are static, so the invariant survives every
/// rotation elimination or party extraction and each cursor advances at
/// most `n` positions over the whole solve.
struct SeedCursors {
    /// Least index that can seed (candidate fallback `candidates[0]`).
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

    /// Least `p ≥ cursor` on `side == want` that can seed, advancing the
    /// side cursor past permanently disqualified participants.
    fn side_min(&mut self, ws: &RoommatesWorkspace, side: &[bool], want: bool) -> Option<u32> {
        let c = &mut self.by_side[usize::from(want)];
        let n = ws.len.len() as u32;
        while *c < n && (side[*c as usize] != want || !ws.can_seed(*c)) {
            *c += 1;
        }
        (*c < n).then_some(*c)
    }

    /// Choose the next rotation seed, preserving [`crate::policy::SeedState`]
    /// semantics exactly: `None` iff no participant can seed; sided
    /// policies fall back to the overall least candidate; the alternation
    /// parity advances only on successful picks.
    fn pick(&mut self, ws: &RoommatesWorkspace, policy: &RotationPolicy) -> Option<u32> {
        let n = ws.len.len() as u32;
        while self.all < n && !ws.can_seed(self.all) {
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
                Some(self.side_min(ws, side, want).unwrap_or(fallback))
            }
            RotationPolicy::PreferSide { side, seed_from } => {
                Some(self.side_min(ws, side, *seed_from).unwrap_or(fallback))
            }
        }
    }
}

/// How [`run_core`] treats an emptied reduced list and an odd rotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Irving's verdict: the first emptied list stops the run.
    Strict,
    /// Tan's stable partition: an emptied list becomes a singleton, and
    /// the run stops once more than `singleton_budget` lists have emptied
    /// (each is a guaranteed singleton of the final partition — thresholds
    /// only tighten — so a caller that will not certify past the budget
    /// gains nothing from finishing). An odd rotation is frozen as a party
    /// instead of eliminated, and the run ends in the party census.
    Partition {
        /// Emptied lists the run tolerates before it stops.
        singleton_budget: u32,
    },
}

impl Mode {
    /// Emptied lists tolerated before the run stops.
    fn budget(self) -> u32 {
        match self {
            Mode::Strict => 0,
            Mode::Partition { singleton_budget } => singleton_budget,
        }
    }
}

/// How a [`run_core`] run ended.
#[derive(Debug)]
pub(crate) enum CoreEnd {
    /// Every reduced list is a singleton: `partner[p]` is `p`'s partner.
    Matching(Vec<u32>),
    /// More lists emptied than the mode tolerates (strict: any). `culprit`
    /// emptied first in the step that crossed the budget; `in_phase1`
    /// says whether that happened before any rotation work.
    OverBudget {
        /// The participant whose emptied list stopped the run.
        culprit: u32,
        /// The run stopped in phase 1.
        in_phase1: bool,
    },
    /// Partition mode: a rotation walk met a list without a second or
    /// last entry — a table invariant the oracle broke. No claim is made.
    Broken,
    /// Partition mode: the stable-partition claim and its census.
    Partition(StablePartition),
}

/// Phase 1 over the implicit threshold tables: the exact proposal
/// schedule of [`crate::phase1::phase1_logged`] (same free-stack order,
/// same truncations). An emptied proposer is dead in every list
/// (thresholds only tighten), so it never holds a proposal again: the run
/// counts it and goes on, until more than `budget` have emptied. Returns
/// the emptied count, or the proposer that crossed the budget.
fn phase1<I: RoommatesOracle, M: Metrics>(
    inst: &I,
    ws: &mut RoommatesWorkspace,
    budget: u32,
    stats: &mut SolveStats,
    metrics: &mut M,
) -> Result<u32, u32> {
    let mut emptied = 0u32;
    while let Some(x) = ws.free.pop() {
        // Like the reference, an emptied participant surfaces when it
        // proposes — the only moment phase 1 looks at its list.
        let Some(y) = ws.p1_first(inst, x) else {
            emptied += 1;
            if emptied > budget {
                return Err(x);
            }
            continue;
        };
        stats.proposals += 1;
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
        // The truncation "delete everything y ranks below x" is one
        // threshold store; its deletions stay implicit.
        let new_rank = inst.rank_of(y, x);
        debug_assert!(new_rank <= ws.thresh[y as usize], "thresholds only tighten");
        ws.thresh[y as usize] = new_rank;
        // Metric semantics: one "truncation" per threshold store (a
        // tightening of y's live bound), not per implied pair deletion —
        // the fast path never enumerates those.
        metrics.phase1_truncation();
    }
    debug_assert!(
        emptied > 0 || ws.holds.iter().all(|&h| h != NONE),
        "all participants hold a proposal when no list emptied"
    );
    Ok(emptied)
}

/// Discover the rotation reachable from `start` into `ws.xs`/`ws.ys`,
/// leaving `ws.pos` fully cleared. Same walk as
/// [`crate::phase2::find_rotation`], made total: returns `false` when the
/// walk meets a list without a second or last entry, which the table
/// invariants rule out unless the oracle breaks them.
fn find_rotation(ws: &mut RoommatesWorkspace, start: u32) -> bool {
    debug_assert!(
        ws.len[start as usize] >= 2,
        "rotation seeds need a second preference"
    );
    ws.seq.clear();
    let mut a = start;
    let cycle_start = loop {
        let seen = ws.pos[a as usize];
        if seen != NONE {
            break Some(seen as usize);
        }
        ws.pos[a as usize] = ws.seq.len() as u32;
        ws.seq.push(a);
        match ws.second(a).and_then(|b| ws.last(b)) {
            Some(next) => a = next,
            None => break None,
        }
    };
    if let Some(cycle_start) = cycle_start {
        ws.xs.clear();
        ws.xs.extend_from_slice(&ws.seq[cycle_start..]);
        ws.ys.clear();
        for i in cycle_start..ws.seq.len() {
            let x = ws.seq[i];
            // x had a second, so it has a first.
            ws.ys
                .push(ws.first(x).expect("rotation members hold a proposal"));
        }
    }
    for &p in &ws.seq {
        ws.pos[p as usize] = NONE;
    }
    cycle_start.is_some()
}

/// Eliminate the rotation in `ws.xs`: gather the `(second(x_i), x_i)`
/// targets against pre-elimination state, then truncate each in cycle
/// order. Returns how many truncations emptied a list, and the first
/// participant emptied (straight from the delete-time signal), or
/// [`NONE`].
fn eliminate_rotation(ws: &mut RoommatesWorkspace) -> (u32, u32) {
    // All second() lookups must reflect discovery-time state, before any
    // deletion of this round — hence the gather pass.
    let xs = std::mem::take(&mut ws.xs);
    ws.targets.clear();
    for &x in &xs {
        let y_next = ws.second(x).expect("rotation member still has a second");
        ws.targets.push((y_next, x));
    }
    ws.xs = xs;
    let (mut emptied, mut first) = (0u32, NONE);
    let targets = std::mem::take(&mut ws.targets);
    for &(y, x) in &targets {
        // The signal reports the first list each truncation empties, so
        // a truncation emptying two counts once — an undercount that only
        // delays a partition run's budget stop.
        let mut culprit = NONE;
        ws.truncate_below(y, x, &mut culprit);
        emptied += u32::from(culprit != NONE);
        if first == NONE {
            first = culprit;
        }
    }
    ws.targets = targets;
    (emptied, first)
}

/// Phase 2 from the materialized arena: find and eliminate rotations
/// until every open list is done, freezing odd rotations as parties in
/// [`Mode::Partition`].
fn phase2<M: Metrics>(
    ws: &mut RoommatesWorkspace,
    policy: &RotationPolicy,
    mode: Mode,
    mut emptied: u32,
    stats: &mut SolveStats,
    metrics: &mut M,
) -> CoreEnd {
    let partition = mode != Mode::Strict;
    let mut cursors = SeedCursors::new();
    while let Some(start) = cursors.pick(ws, policy) {
        if !find_rotation(ws, start) {
            assert!(partition, "rotation path stays within length-2 lists");
            return CoreEnd::Broken;
        }
        stats.rotations += 1;
        metrics.phase2_rotation();
        if partition && is_party_rotation(ws) {
            extract_party(ws);
            continue;
        }
        let (count, culprit) = eliminate_rotation(ws);
        if count > 0 {
            emptied += count;
            if emptied > mode.budget() {
                return CoreEnd::OverBudget {
                    culprit,
                    in_phase1: false,
                };
            }
        }
    }
    // Strict runs end with every reduced list a singleton. A partition run
    // got there only if it emptied no list (an emptied list stays empty)
    // and froze no party (a frozen member keeps its first and last).
    if partition && ws.len.iter().any(|&l| l != 1) {
        return CoreEnd::Partition(read_partition(ws));
    }
    CoreEnd::Matching(ws.partners())
}

/// The engine core, monomorphized per oracle and observer: one Irving run
/// of `inst` through `ws` in `mode`. Reports the per-event counters, the
/// `workspace` hook and an `irving.solve` span enclosing `irving.phase1`
/// and `irving.phase2` (which includes building the phase-2 arena); the
/// verdict hook is the caller's.
pub(crate) fn run_core<I: RoommatesOracle, M: Metrics>(
    inst: &I,
    ws: &mut RoommatesWorkspace,
    policy: &RotationPolicy,
    mode: Mode,
    metrics: &mut M,
) -> (CoreEnd, SolveStats) {
    let n = inst.n();
    let mut stats = SolveStats::default();
    metrics.workspace(ws.reset(inst));
    if mode != Mode::Strict {
        ws.frozen.resize(n, false);
        ws.pi.resize(n, NONE);
    }

    metrics.span_begin(span::IRVING_SOLVE, n as u64);
    metrics.span_begin(span::IRVING_PHASE1, n as u64);
    metrics.phase_enter(kmatch_obs::phase::IRVING_PHASE1);
    let phase1 = phase1(inst, ws, mode.budget(), &mut stats, metrics);
    metrics.span_end(span::IRVING_PHASE1);
    let end = match phase1 {
        Err(culprit) => CoreEnd::OverBudget {
            culprit,
            in_phase1: true,
        },
        Ok(emptied) => {
            metrics.span_begin(span::IRVING_PHASE2, n as u64);
            metrics.phase_enter(kmatch_obs::phase::IRVING_PHASE2);
            // Collapse the implicit phase-1 deletions into the compact
            // linked arena phase 2 operates on.
            ws.materialize(inst);
            let end = phase2(ws, policy, mode, emptied, &mut stats, metrics);
            metrics.span_end(span::IRVING_PHASE2);
            end
        }
    };
    metrics.span_end(span::IRVING_SOLVE);
    (end, stats)
}

/// A strict run with its verdict: reports [`Metrics::solve_done`].
fn solve_strict<I: RoommatesOracle, M: Metrics>(
    inst: &I,
    ws: &mut RoommatesWorkspace,
    policy: &RotationPolicy,
    metrics: &mut M,
) -> RoommatesOutcome {
    let (end, stats) = run_core(inst, ws, policy, Mode::Strict, metrics);
    let outcome = match end {
        CoreEnd::Matching(partner) => RoommatesOutcome::Stable {
            matching: RoommatesMatching::new(partner),
            stats,
        },
        CoreEnd::OverBudget { culprit, .. } => {
            RoommatesOutcome::NoStableMatching { culprit, stats }
        }
        CoreEnd::Broken | CoreEnd::Partition(_) => {
            unreachable!("strict runs neither break nor partition")
        }
    };
    metrics.solve_done(outcome.is_stable(), stats.proposals);
    outcome
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
        solve_strict(inst, self, policy, &mut NoMetrics)
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
        solve_strict(inst, self, &RotationPolicy::FirstAvailable, metrics)
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
