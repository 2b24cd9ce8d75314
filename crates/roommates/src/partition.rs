//! Stable partitions à la Tan: the unsolvability certificate behind the
//! escalating truncated driver ([`crate::escalate`]).
//!
//! Irving's algorithm answers "does a complete stable matching exist?",
//! but its *no* answer on a truncated sub-instance `I_K` says nothing
//! about the full instance `I` — the emptied list may have emptied only
//! because the cut removed pairs. Tan's theorem closes the gap: every
//! roommates instance has a **stable partition** — a permutation `Π`
//! where each participant (weakly) prefers its successor `Π(p)` to its
//! predecessor `Π⁻¹(p)` and no pair prefer each other to their
//! predecessors — and the instance admits a complete stable matching iff
//! the partition has no odd party (an odd-length cycle; singletons count
//! against *complete* matchings too). Crucially the certificate
//! transfers: a stable partition of `I_K` whose predecessor ranks all
//! sit strictly inside the cut is verifiable against `I` in O(n·K)
//! probes, because a blocking pair must beat both predecessors and any
//! pair beyond the cut is worse than an in-cut predecessor by
//! construction.
//!
//! The finder is the workspace engine itself, run in its partition mode
//! ([`crate::engine`]): the same phase 1 + phase 2 loop as
//! [`crate::RoommatesWorkspace::solve`], except that an emptied list
//! becomes a singleton instead of stopping the run, and a rotation whose
//! `x`-set equals its `y`-set (an **odd rotation**) is frozen as a party
//! by `extract_party` — successor = current first, predecessor =
//! current last — instead of eliminated. On solvable instances neither
//! path triggers, so the run is the plain solve's execution and returns
//! the same matching. This module holds the partition-specific steps (the
//! odd-rotation test, the extraction and the party census), the
//! [`tolerant_solve_budgeted`] entry point, and [`verify_partition`],
//! which checks any claimed partition against any oracle from scratch, so
//! a finder bug can cost an escalation but never an unsound verdict.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};

use kmatch_exec::{run_tasks, steal_seed};
use kmatch_obs::{Metrics, NoMetrics};
use kmatch_prefs::{RoommatesOracle, UNRANKED};

use crate::engine::{run_core, CoreEnd, Mode};
use crate::policy::RotationPolicy;
use crate::solver::SolveStats;
use crate::workspace::{split_rows, walk_threads, RoommatesWorkspace, NONE, WALK_TASKS};

/// A stable partition candidate produced by [`tolerant_solve_budgeted`],
/// plus the party census that escalation branches on. `pi` is only
/// a *claim* until [`verify_partition`] accepts it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StablePartition {
    /// Successor permutation: `pi[p]` is `p`'s party successor, or `p`
    /// itself for singletons.
    pub pi: Vec<u32>,
    /// Parties of size 1 (agents whose reduced list emptied).
    pub singletons: u32,
    /// Parties of odd size ≥ 3 — the unsolvability witnesses.
    pub odd_parties: u32,
    /// Least member of the least-indexed odd-size party (singletons
    /// included), or [`u32::MAX`] when every party is even. The driver
    /// reports this as the deterministic no-stable-matching culprit.
    pub first_odd_min: u32,
    /// Size of the largest party.
    pub largest_party: u32,
}

/// Outcome of a tolerant (partition-producing) solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TolerantOutcome {
    /// No tolerance path triggered: the instance is solvable and the run
    /// was bit-identical to the plain engine. `partner[p]` is `p`'s
    /// partner in the stable matching.
    Perfect {
        /// The stable matching as a partner array.
        partner: Vec<u32>,
        /// Attempt-local proposal/rotation counters.
        stats: SolveStats,
    },
    /// At least one singleton or extracted party: a stable-partition
    /// claim for the instance that was solved.
    Partition {
        /// The partition claim and census.
        partition: StablePartition,
        /// Attempt-local proposal/rotation counters (rotations counts
        /// extractions as well as eliminations).
        stats: SolveStats,
    },
    /// The run stopped early: more lists emptied than the singleton
    /// budget allows, or a phase-2 walk invariant broke (possible only if
    /// the oracle violates the table semantics). No claim is made;
    /// callers escalate.
    Abort {
        /// Counters up to the failure.
        stats: SolveStats,
        /// The singleton budget blew during phase 1 — before any rotation
        /// work. Escalation drivers read this as "the cut is far too
        /// small" and may take a larger escalation step than the phase-2
        /// (or invariant-break) aborts warrant.
        over_budget_in_phase1: bool,
    },
}

/// Is the discovered rotation an odd (singular) rotation — `{x_i} =
/// {y_i}` as sets *and* of odd length? Closed even-length rotations are
/// ordinary rotations (eliminating them is Irving's step and keeps the
/// table stable); only the odd ones are Tan's parties — extracting an
/// even closed cycle leaves antipodal members blocking each other. Uses
/// the (all-[`NONE`]) `pos` scratch for the membership marks.
pub(crate) fn is_party_rotation(ws: &mut RoommatesWorkspace) -> bool {
    for &x in &ws.xs {
        ws.pos[x as usize] = 0;
    }
    let closed = ws.ys.iter().all(|&y| ws.pos[y as usize] == 0);
    for &x in &ws.xs {
        ws.pos[x as usize] = NONE;
    }
    closed && ws.xs.len() % 2 == 1
}

/// Freeze the members of the odd rotation in `ws.xs` as a party:
/// `pi[x] = first(x)` (the cyclic successor), and delete every pair
/// `(x, q)` with `q` strictly between `x`'s first and last — the
/// non-cycle edges — from both sides.
///
/// Table invariants guarantee a member is never another row's head or
/// tail (head/tail of any row point at the holder/held bijection, which
/// for members is the party cycle itself), so the cross-deletions keep
/// `first`/`last` of every other participant intact and no list empties
/// here.
pub(crate) fn extract_party(ws: &mut RoommatesWorkspace) {
    let xs = std::mem::take(&mut ws.xs);
    for (i, &x) in xs.iter().enumerate() {
        ws.pi[x as usize] = ws.ys[i];
        ws.frozen[x as usize] = true;
    }
    for &x in &xs {
        // Unlink x's middle entries (everything except head and tail). An
        // unlinked node keeps its own `succ`, and the partner-side unlink
        // touches another row, so the walk reads on from the node it just
        // removed.
        let head = ws.head[x as usize];
        let tail = ws.tail[x as usize];
        debug_assert!(head != NONE && tail != NONE && head != tail);
        let mut e = ws.succ[head as usize];
        while e != tail {
            let q = ws.entries[e as usize];
            ws.unlink(x, e);
            let qn = ws.node_of(q, x);
            ws.unlink(q, qn);
            e = ws.succ[e as usize];
        }
    }
    ws.xs = xs;
}

/// Read the partition claim off a finished partition run: frozen members
/// keep their extraction-time successor; a length-1 list is half of a
/// mutual pair (the final table's holder bijection makes `first`
/// symmetric); an empty list is a singleton. Then take the party census
/// by cycle sweep (marks borrow the all-[`NONE`] `pos` scratch).
pub(crate) fn read_partition(ws: &mut RoommatesWorkspace) -> StablePartition {
    let n = ws.pi.len();
    for p in 0..n {
        if ws.frozen[p] {
            continue;
        }
        ws.pi[p] = ws.first(p as u32).unwrap_or(p as u32);
    }
    let pi = ws.pi.clone();

    let mut singletons = 0u32;
    let mut odd_parties = 0u32;
    let mut first_odd_min = u32::MAX;
    let mut largest_party = 0u32;
    for p in 0..n {
        if ws.pos[p] != NONE {
            continue;
        }
        let mut size = 0u32;
        let mut min = u32::MAX;
        let mut a = p as u32;
        while ws.pos[a as usize] == NONE {
            ws.pos[a as usize] = 0;
            size += 1;
            min = min.min(a);
            a = pi[a as usize];
        }
        largest_party = largest_party.max(size);
        if size % 2 == 1 {
            if size == 1 {
                singletons += 1;
            } else {
                odd_parties += 1;
            }
            if first_odd_min == u32::MAX {
                first_odd_min = min;
            }
        }
    }
    for m in ws.pos.iter_mut() {
        *m = NONE;
    }
    StablePartition {
        pi,
        singletons,
        odd_parties,
        first_odd_min,
        largest_party,
    }
}

/// Solve `inst` through `ws` with the engine's schedule, producing either
/// the stable matching (solvable instances — bit-identical to
/// [`RoommatesWorkspace::solve`]) or a stable-partition claim.
///
/// Aborts (→ escalation) as soon as more than `singleton_budget` lists
/// have emptied, since every emptied list is a guaranteed singleton of
/// the final partition and a caller that will not certify past the budget
/// gains nothing from finishing the solve; `u32::MAX` never aborts on
/// that count. Escalation passes its certifiable-singleton cap, which
/// turns doomed low-cut attempts from full solves into early exits.
///
/// The workspace is reused exactly as by the plain engine: steady-state
/// reruns through the same workspace do not allocate beyond the returned
/// `partner`/`pi` vectors.
pub fn tolerant_solve_budgeted<I: RoommatesOracle>(
    inst: &I,
    ws: &mut RoommatesWorkspace,
    singleton_budget: u32,
) -> TolerantOutcome {
    partition_solve(inst, ws, singleton_budget, &mut NoMetrics)
}

/// [`tolerant_solve_budgeted`] reporting to the observer `metrics`
/// everything the engine core reports (per-event counters, the
/// `workspace` hook, the `irving.*` spans) — but no
/// [`Metrics::solve_done`]: an attempt is not a verdict.
pub(crate) fn partition_solve<I: RoommatesOracle, M: Metrics>(
    inst: &I,
    ws: &mut RoommatesWorkspace,
    singleton_budget: u32,
    metrics: &mut M,
) -> TolerantOutcome {
    let mode = Mode::Partition { singleton_budget };
    let policy = RotationPolicy::FirstAvailable;
    let (end, stats) = run_core(inst, ws, &policy, mode, metrics);
    match end {
        CoreEnd::Matching(partner) => TolerantOutcome::Perfect { partner, stats },
        CoreEnd::Partition(partition) => TolerantOutcome::Partition { partition, stats },
        CoreEnd::OverBudget { in_phase1, .. } => TolerantOutcome::Abort {
            stats,
            over_budget_in_phase1: in_phase1,
        },
        CoreEnd::Broken => TolerantOutcome::Abort {
            stats,
            over_budget_in_phase1: false,
        },
    }
}

/// Check `pi` is a stable partition of `inst`, from scratch.
///
/// Conditions verified:
/// 1. `pi` is a permutation, and every non-trivial successor and
///    predecessor is mutually ranked.
/// 2. **T1**: each `p` with `pi[p] ∉ {p, pi⁻¹(p)}` strictly prefers its
///    successor to its predecessor.
/// 3. **T2**: no pair `(p, q)` strictly prefer each other to their
///    respective predecessors (a singleton's "predecessor" is being
///    alone, which everything on its list beats).
///
/// Cost: O(n + Σ_p rank_p(pi⁻¹(p))) oracle probes — O(n·K) when the
/// partition came from a cut-`K` sub-instance with no singletons. T2 is
/// checked by enumerating, for each `p`, exactly the candidates `p`
/// strictly prefers to its predecessor, so acceptance is sound whatever
/// produced `pi`: a buggy finder can only cause a rejection.
///
/// The T2 walk splits into ranges of agents on the host's threads when
/// it is large enough and the oracle can be shared
/// ([`RoommatesOracle::shared`]); the answer is the same either way.
pub fn verify_partition<I: RoommatesOracle>(inst: &I, pi: &[u32]) -> bool {
    verify_partition_on(inst, pi, 0)
}

/// [`verify_partition`] with the T2 walk under thread budget `threads`
/// (0 = the host's parallelism; see
/// [`RoommatesWorkspace::set_threads`]).
pub(crate) fn verify_partition_on<I: RoommatesOracle>(
    inst: &I,
    pi: &[u32],
    threads: usize,
) -> bool {
    let n = inst.n();
    if pi.len() != n {
        return false;
    }
    // Invert: pred[s] = p for pi[p] = s, each exactly once.
    let mut pred = vec![NONE; n];
    for p in 0..n as u32 {
        let s = pi[p as usize];
        if s >= n as u32 || pred[s as usize] != NONE {
            return false;
        }
        pred[s as usize] = p;
    }
    // T2 walk limits: the predecessor ranks, capped by the row. A
    // singleton's limit is its whole list (being alone is worse than any
    // acceptable partner).
    let mut limit = vec![0u32; n];
    for p in 0..n as u32 {
        let q = pred[p as usize];
        limit[p as usize] = if q == p {
            inst.row_len(p)
        } else {
            let r = inst.rank_of(p, q);
            if r == UNRANKED {
                return false;
            }
            r.min(inst.row_len(p))
        };
    }
    // T1.
    for p in 0..n as u32 {
        let s = pi[p as usize];
        if s == p {
            continue;
        }
        let rs = inst.rank_of(p, s);
        if rs == UNRANKED {
            return false;
        }
        if s != pred[p as usize] && rs >= limit[p as usize] {
            return false;
        }
    }
    // T2, in ranges of agents: a violation found in any range fails the
    // check, and a range stops early once any range has found one. The
    // flag is `Relaxed` because it publishes nothing: it only cuts work
    // short, and the verdict comes back through the joined task results.
    let work = limit.iter().map(|&l| u64::from(l)).sum();
    let threads = walk_threads(threads, work);
    let failed = AtomicBool::new(false);
    let Some(view) = (if threads > 1 { inst.shared() } else { None }) else {
        return t2_holds(inst, &limit, 0..n as u32, &failed);
    };
    let mut bounds = Vec::with_capacity(WALK_TASKS as usize + 1);
    split_rows(n, work, |p| u64::from(limit[p as usize]), &mut bounds);
    let (held, _, _) = run_tasks(
        bounds.len() - 1,
        threads,
        steal_seed(),
        |_| (),
        |_, t| t2_holds(&view, &limit, bounds[t]..bounds[t + 1], &failed),
    );
    held.iter().all(|&(_, ok)| ok)
}

/// The T2 condition of [`verify_partition`] for the agents in `agents`,
/// `limit[p]` being `p`'s capped predecessor rank. Row-batched (same
/// probes as the scalar walk, amortized and overlapped — this walk
/// dominates the certificate's O(n·K) cost). Sets `failed` on a
/// violation and gives up once it is set.
fn t2_holds<O: RoommatesOracle>(
    inst: &O,
    limit: &[u32],
    agents: Range<u32>,
    failed: &AtomicBool,
) -> bool {
    const T2_BLOCK: usize = 64;
    let mut qs = [0u32; T2_BLOCK];
    let mut probe = [0u32; T2_BLOCK];
    let mut limits = [0u32; T2_BLOCK];
    let mut blocks = [false; T2_BLOCK];
    for p in agents {
        if failed.load(Ordering::Relaxed) {
            return false;
        }
        let end = limit[p as usize];
        let mut pos = 0u32;
        while pos < end {
            let w = ((end - pos) as usize).min(T2_BLOCK);
            inst.candidates_into(p, pos, &mut qs[..w]);
            // A violating pair is enumerated from both endpoints, so it
            // suffices to probe the reverse rank from the lower id —
            // halving the rank probes of the walk.
            let mut m = 0usize;
            for &q in &qs[..w] {
                if q > p {
                    probe[m] = q;
                    limits[m] = limit[q as usize];
                    m += 1;
                }
            }
            inst.ranks_lt_into(&probe[..m], p, &limits[..m], &mut blocks[..m]);
            if blocks[..m].iter().any(|&b| b) {
                failed.store(true, Ordering::Relaxed);
                return false;
            }
            pos += w as u32;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::solve_reference;
    use crate::RoommatesOutcome;
    use kmatch_prefs::gen::paper::{no_stable_roommates_4, section3b_left};
    use kmatch_prefs::gen::uniform::uniform_roommates;
    use kmatch_prefs::RoommatesInstance;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn solvable_instances_take_the_engine_path() {
        let inst = section3b_left();
        let mut ws = RoommatesWorkspace::new();
        let out = tolerant_solve_budgeted(&inst, &mut ws, u32::MAX);
        let reference = solve_reference(&inst);
        let TolerantOutcome::Perfect { partner, stats } = out else {
            panic!("solvable instance must produce a perfect matching");
        };
        let m = reference.matching().unwrap();
        assert_eq!(
            partner,
            (0..inst.n() as u32)
                .map(|p| m.partner(p))
                .collect::<Vec<_>>()
        );
        assert_eq!(stats, reference.stats());
    }

    #[test]
    fn unsolvable_paper_instance_yields_verified_odd_party() {
        let inst = no_stable_roommates_4();
        let mut ws = RoommatesWorkspace::new();
        let TolerantOutcome::Partition { partition, .. } =
            tolerant_solve_budgeted(&inst, &mut ws, u32::MAX)
        else {
            panic!("unsolvable instance must produce a partition");
        };
        // The classic 4-agent instance partitions as a triangle party
        // plus the universally-last agent as a (legitimate) singleton.
        assert!(partition.odd_parties >= 1);
        assert!(partition.first_odd_min < 4);
        assert!(verify_partition(&inst, &partition.pi));
    }

    #[test]
    fn random_instances_match_reference_verdicts_and_verify() {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let mut ws = RoommatesWorkspace::new();
        let (mut solvable, mut unsolvable) = (0, 0);
        for _ in 0..40 {
            for n in [6usize, 8, 9, 12, 15, 16] {
                let inst = uniform_roommates(n, &mut rng);
                let reference = solve_reference(&inst);
                match tolerant_solve_budgeted(&inst, &mut ws, u32::MAX) {
                    TolerantOutcome::Perfect { partner, stats } => {
                        solvable += 1;
                        let RoommatesOutcome::Stable {
                            matching,
                            stats: rs,
                        } = &reference
                        else {
                            panic!("perfect outcome on a reference-unsolvable instance");
                        };
                        assert_eq!(&stats, rs);
                        for p in 0..n as u32 {
                            assert_eq!(partner[p as usize], matching.partner(p));
                        }
                    }
                    TolerantOutcome::Partition { partition, .. } => {
                        unsolvable += 1;
                        assert!(
                            matches!(reference, RoommatesOutcome::NoStableMatching { .. }),
                            "partition outcome on a reference-solvable instance"
                        );
                        // Tan: a correct stable partition of a complete
                        // even-n unsolvable instance has an odd party; odd
                        // n always has one by parity.
                        assert!(partition.odd_parties + partition.singletons >= 1);
                        assert!(
                            verify_partition(&inst, &partition.pi),
                            "finder produced an unverifiable partition (n = {n})"
                        );
                    }
                    TolerantOutcome::Abort { .. } => panic!("finder aborted on a table instance"),
                }
            }
        }
        assert!(solvable > 0 && unsolvable > 0, "mix of verdicts expected");
    }

    #[test]
    fn split_check_agrees_with_the_serial_one() {
        // The partition of n = 5000, seed 2 at the escalation's first cut
        // has a T2 walk large enough that budgets 2 and 7 split it.
        use kmatch_prefs::{CachedRoommatesOracle, TruncatedRoommates};
        let oracle = CachedRoommatesOracle::new(5000, 2);
        let mut ws = RoommatesWorkspace::new();
        let TolerantOutcome::Partition { partition, .. } =
            tolerant_solve_budgeted(&TruncatedRoommates::new(&oracle, 1132), &mut ws, 8)
        else {
            panic!("seed 2 has no stable matching");
        };
        let pi = partition.pi;
        let mut pred = vec![0u32; pi.len()];
        for (p, &s) in pi.iter().enumerate() {
            pred[s as usize] = p as u32;
        }
        let work: u64 = (0..pi.len() as u32)
            .map(|p| u64::from(oracle.rank_of(p, pred[p as usize])))
            .sum();
        assert_eq!(walk_threads(2, work), 2, "work {work} must split");
        assert!(walk_threads(7, work) > 2, "work {work} must split further");
        // Swapping two successors breaks the partition somewhere in the
        // middle of the walk.
        let mut doctored = pi.clone();
        doctored.swap(2400, 2600);
        for threads in [1usize, 2, 7] {
            assert!(
                verify_partition_on(&oracle, &pi, threads),
                "budget {threads}"
            );
            assert!(
                !verify_partition_on(&oracle, &doctored, threads),
                "budget {threads}"
            );
        }
    }

    #[test]
    fn verifier_rejects_doctored_partitions() {
        let inst = no_stable_roommates_4();
        let mut ws = RoommatesWorkspace::new();
        let TolerantOutcome::Partition { partition, .. } =
            tolerant_solve_budgeted(&inst, &mut ws, u32::MAX)
        else {
            panic!("unsolvable instance must produce a partition");
        };
        assert!(verify_partition(&inst, &partition.pi));
        // Not a permutation.
        let mut bad = partition.pi.clone();
        bad[0] = bad[1];
        assert!(!verify_partition(&inst, &bad));
        // Wrong length.
        assert!(!verify_partition(&inst, &partition.pi[..3]));
        // All-singleton claims are wildly blocked on complete lists.
        let lazy: Vec<u32> = (0..4).collect();
        assert!(!verify_partition(&inst, &lazy));
    }

    #[test]
    fn verifier_rejects_unstable_pairings_on_solvable_instances() {
        // A pairing that is a permutation but not stable must fail T2.
        let inst = RoommatesInstance::from_lists(vec![
            vec![1, 2, 3],
            vec![0, 2, 3],
            vec![0, 1, 3],
            vec![0, 1, 2],
        ])
        .unwrap();
        // 0-1, 2-3 is stable here (0 and 1 are each other's firsts).
        assert!(verify_partition(&inst, &[1, 0, 3, 2]));
        // 0-2, 1-3 leaves 0 and 1 blocking.
        assert!(!verify_partition(&inst, &[2, 3, 0, 1]));
    }
}
