//! Batch throughput front-end for the stable-roommates solver.
//!
//! The solvability experiments behind `roommates_solvability.csv` (and the
//! Mertens-style scaling studies the ROADMAP aims at) need thousands of
//! independent Irving solves per data point. Like [`crate::batch`] for
//! Gale–Shapley, [`solve_batch_stealing`] fans the instances across the
//! stealing executor with one reusable [`RoommatesWorkspace`] per worker
//! thread, so the steady-state cost per instance is the solve itself —
//! the only per-instance allocation is the partner array owned by each
//! stable matching (unsolvable instances allocate nothing at all). A
//! metered, traced or probed roommates batch is [`crate::solve_batch_with`]
//! over `RoommatesWorkspace` workers.
//!
//! Results are returned in input order and are identical to calling
//! [`kmatch_roommates::solve`] on each instance serially, for any thread
//! count or steal seed (Irving's algorithm with a fixed seed policy is
//! deterministic and instances share no state).

use kmatch_obs::{NoMetrics, StdClock};
use kmatch_prefs::RoommatesInstance;
use kmatch_roommates::{RoommatesOutcome, RoommatesWorkspace};

use crate::runner::run_batch;
use crate::steal::StealReport;

/// Solve a roommates batch through the deterministic work-stealing
/// executor (see [`crate::steal`]) with `threads` OS workers and the
/// given steal-schedule seed.
///
/// Outcomes are in input order and byte-identical to a serial
/// [`RoommatesWorkspace::solve`] loop for **any** `threads`/`seed`
/// combination, so only the returned [`StealReport`] reflects the actual
/// schedule. `threads <= 1` (or a trivial batch) takes the serial path
/// with no worker threads at all. Each worker's own walks stay on its
/// thread (budget 1), so a batch never runs more threads than it was
/// given.
///
/// ```
/// use kmatch_parallel::roommates::solve_batch_stealing;
/// use kmatch_prefs::gen::uniform::uniform_roommates;
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let mut rng = ChaCha8Rng::seed_from_u64(1);
/// let batch: Vec<_> = (0..32).map(|_| uniform_roommates(16, &mut rng)).collect();
/// let (outcomes, _) = solve_batch_stealing(&batch, 2, 0);
/// assert_eq!(outcomes.len(), 32);
/// ```
pub fn solve_batch_stealing(
    instances: &[RoommatesInstance],
    threads: usize,
    seed: u64,
) -> (Vec<RoommatesOutcome>, StealReport) {
    let run = run_batch(
        instances.len(),
        |i| &instances[i],
        threads,
        seed,
        &StdClock::new(),
        |_| RoommatesWorkspace::new(),
        |_| NoMetrics,
    );
    (run.outcomes, run.report)
}

/// Aggregate statistics of a solved roommates batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoommatesBatchStats {
    /// Number of instances that have a stable matching.
    pub solvable: usize,
    /// Total phase-1 proposals across the batch.
    pub proposals: u64,
    /// Total phase-2 rotations eliminated across the batch.
    pub rotations: u64,
}

/// Sum the instrumentation counters of a batch and count the solvable
/// instances (`solvable / outcomes.len()` is the solvability estimate the
/// sweeps report).
pub fn batch_stats(outcomes: &[RoommatesOutcome]) -> RoommatesBatchStats {
    let mut agg = RoommatesBatchStats::default();
    for out in outcomes {
        let stats = out.stats();
        agg.solvable += usize::from(out.is_stable());
        agg.proposals += stats.proposals;
        agg.rotations += u64::from(stats.rotations);
    }
    agg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve_batch_with;
    use kmatch_prefs::gen::uniform::uniform_roommates;
    use kmatch_roommates::solve;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn batch_equals_serial() {
        let mut rng = ChaCha8Rng::seed_from_u64(61);
        let batch: Vec<RoommatesInstance> =
            (0..200).map(|_| uniform_roommates(20, &mut rng)).collect();
        let (par, _) = solve_batch_stealing(&batch, 4, 0);
        assert_eq!(par.len(), batch.len());
        for (inst, out) in batch.iter().zip(&par) {
            let seq = solve(inst);
            assert_eq!(out.matching(), seq.matching());
            assert_eq!(out.stats(), seq.stats());
        }
    }

    #[test]
    fn mixed_sizes_do_not_leak_workspace_state() {
        let mut rng = ChaCha8Rng::seed_from_u64(62);
        let sizes = [30usize, 2, 15, 48, 3, 48, 2, 25];
        let batch: Vec<RoommatesInstance> = sizes
            .iter()
            .cycle()
            .take(64)
            .map(|&n| uniform_roommates(n, &mut rng))
            .collect();
        let (par, _) = solve_batch_stealing(&batch, 3, 7);
        for (inst, out) in batch.iter().zip(&par) {
            let seq = solve(inst);
            assert_eq!(out.matching(), seq.matching());
            assert_eq!(out.stats(), seq.stats());
        }
    }

    #[test]
    fn metered_batch_equals_plain_and_counts_solvability() {
        use kmatch_obs::{BatchRegistry, ManualClock};
        let mut rng = ChaCha8Rng::seed_from_u64(64);
        let batch: Vec<RoommatesInstance> =
            (0..100).map(|_| uniform_roommates(12, &mut rng)).collect();
        let registry = BatchRegistry::new();
        let (metered, _, _) =
            solve_batch_with(&batch, 3, 0, &registry, &ManualClock::new(), |_| {
                RoommatesWorkspace::new()
            });
        let (plain, _) = solve_batch_stealing(&batch, 1, 0);
        for (a, b) in metered.iter().zip(&plain) {
            assert_eq!(a.matching(), b.matching());
            assert_eq!(a.stats(), b.stats());
        }
        let agg = batch_stats(&plain);
        let merged = registry.take();
        assert_eq!(merged.solves, 100);
        assert_eq!(merged.solvable, agg.solvable as u64);
        assert_eq!(merged.unsolvable, 100 - agg.solvable as u64);
        assert_eq!(merged.proposals, agg.proposals);
        assert_eq!(merged.phase2_rotations, agg.rotations);
        assert_eq!(merged.solve_wall_ns.count(), 100);
    }

    #[test]
    fn stealing_batch_is_byte_identical_across_schedules() {
        // Mixed sizes so static chunking would straggle; several distinct
        // steal schedules must all reproduce the serial result exactly.
        let mut rng = ChaCha8Rng::seed_from_u64(65);
        let sizes = [30usize, 2, 15, 48, 3, 25];
        let batch: Vec<RoommatesInstance> = sizes
            .iter()
            .cycle()
            .take(72)
            .map(|&n| uniform_roommates(n, &mut rng))
            .collect();
        let mut ws = RoommatesWorkspace::new();
        let reference: Vec<RoommatesOutcome> = batch.iter().map(|i| ws.solve(i)).collect();
        for (threads, seed) in [(2usize, 0u64), (3, 7), (4, 0xDEAD_BEEF)] {
            let (outs, report) = solve_batch_stealing(&batch, threads, seed);
            assert_eq!(outs.len(), reference.len());
            for (a, b) in outs.iter().zip(&reference) {
                assert_eq!(a.matching(), b.matching(), "threads={threads} seed={seed}");
                assert_eq!(a.stats(), b.stats());
            }
            assert_eq!(report.path, "stealing");
            assert_eq!(
                report.lanes.iter().map(|l| l.tasks).sum::<u64>(),
                report.task_count as u64,
                "every task ran exactly once"
            );
        }
        // Single worker takes the serial path with no worker threads.
        let (outs, report) = solve_batch_stealing(&batch, 1, 9);
        assert_eq!(report.path, "serial");
        assert_eq!(report.steal_count, 0);
        for (a, b) in outs.iter().zip(&reference) {
            assert_eq!(a.matching(), b.matching());
        }
    }

    #[test]
    fn stats_count_solvable_and_counters() {
        let mut rng = ChaCha8Rng::seed_from_u64(63);
        let batch: Vec<RoommatesInstance> =
            (0..40).map(|_| uniform_roommates(10, &mut rng)).collect();
        let (out, _) = solve_batch_stealing(&batch, 2, 0);
        let agg = batch_stats(&out);
        assert_eq!(agg.solvable, out.iter().filter(|o| o.is_stable()).count());
        assert_eq!(
            agg.proposals,
            out.iter().map(|o| o.stats().proposals).sum::<u64>()
        );
        assert!(agg.solvable > 0, "most even instances are solvable");
        assert_eq!(batch_stats(&[]), RoommatesBatchStats::default());
    }
}
