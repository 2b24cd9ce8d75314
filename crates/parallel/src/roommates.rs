//! Batch throughput front-ends for the stable-roommates solver.
//!
//! The solvability experiments behind `roommates_solvability.csv` (and the
//! Mertens-style scaling studies the ROADMAP aims at) need thousands of
//! independent Irving solves per data point. Like [`crate::batch`] for
//! Gale–Shapley, these front-ends fan the instances across the stealing
//! executor with one reusable [`RoommatesWorkspace`] per worker thread,
//! so the steady-state cost per instance is the solve itself — the only
//! per-instance allocation is the partner array owned by each stable
//! matching (unsolvable instances allocate nothing at all).
//!
//! Results are returned in input order and are identical to calling
//! [`kmatch_roommates::solve`] on each instance serially, for any thread
//! count or steal seed (Irving's algorithm with a fixed seed policy is
//! deterministic and instances share no state).

use kmatch_obs::{BatchRegistry, Clock, NoMetrics, SolverMetrics, StdClock};
use kmatch_prefs::RoommatesInstance;
use kmatch_roommates::{RoommatesOutcome, RoommatesWorkspace};
use kmatch_trace::FlightRecorder;

use crate::batch::ChunkTrace;
use crate::runner::{absorb, run_batch};
use crate::steal::StealReport;

/// Solve a roommates batch through the deterministic work-stealing
/// executor (see [`crate::steal`]) with `threads` OS workers and the
/// given steal-schedule seed.
///
/// Outcomes are in input order and byte-identical to a serial
/// [`RoommatesWorkspace::solve`] loop for **any** `threads`/`seed`
/// combination, so only the returned [`StealReport`] reflects the actual
/// schedule. `threads <= 1` (or a trivial batch) takes the serial path
/// with no worker threads at all.
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

/// [`solve_batch_stealing`] with sharded metrics and per-solve wall
/// timing, mirroring [`crate::batch::solve_batch_stealing_metered`].
///
/// Each *task* accumulates into its own thread-private [`SolverMetrics`]
/// shard; shards are absorbed into `registry` in task-id order after the
/// join, so the merged metrics are byte-identical for any steal schedule.
pub fn solve_batch_stealing_metered<C>(
    instances: &[RoommatesInstance],
    threads: usize,
    seed: u64,
    registry: &BatchRegistry,
    clock: &C,
) -> (Vec<RoommatesOutcome>, StealReport)
where
    C: Clock + Sync,
{
    let run = run_batch(
        instances.len(),
        |i| &instances[i],
        threads,
        seed,
        clock,
        |_| RoommatesWorkspace::new(),
        |_| SolverMetrics::new(),
    );
    absorb(registry, run.shards, &run.report);
    (run.outcomes, run.report)
}

/// [`solve_batch_stealing_metered`] that additionally records a span
/// timeline per worker — the roommates mirror of
/// [`crate::batch::solve_batch_traced`]. Each worker's [`FlightRecorder`]
/// (capacity `flight_capacity`, preallocated, never allocating while
/// recording) wraps every task in a `batch.chunk` span (arg = task id)
/// around the per-solve `irving.*` spans; the returned [`ChunkTrace`]s
/// feed `kmatch_trace::TraceTrack::workers` directly.
pub fn solve_batch_traced<C: Clock + Sync>(
    instances: &[RoommatesInstance],
    threads: usize,
    seed: u64,
    registry: &BatchRegistry,
    clock: &C,
    flight_capacity: usize,
) -> (Vec<RoommatesOutcome>, Vec<ChunkTrace>, StealReport) {
    let run = run_batch(
        instances.len(),
        |i| &instances[i],
        threads,
        seed,
        clock,
        |_| {
            let recorder = FlightRecorder::new(clock, flight_capacity);
            (RoommatesWorkspace::new(), recorder)
        },
        |_| SolverMetrics::new(),
    );
    absorb(registry, run.shards, &run.report);
    (run.outcomes, ChunkTrace::collect(run.workers), run.report)
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
        let (metered, _) =
            solve_batch_stealing_metered(&batch, 3, 0, &registry, &ManualClock::new());
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
    fn metered_stealing_merges_identically_across_schedules() {
        use kmatch_obs::{BatchRegistry, ManualClock};
        let mut rng = ChaCha8Rng::seed_from_u64(66);
        let batch: Vec<RoommatesInstance> =
            (0..60).map(|_| uniform_roommates(14, &mut rng)).collect();
        let mut merged = Vec::new();
        for (threads, seed) in [(2usize, 0u64), (4, 7), (3, 0xFEED)] {
            let registry = BatchRegistry::new();
            let clock = ManualClock::new();
            let (outs, report) =
                solve_batch_stealing_metered(&batch, threads, seed, &registry, &clock);
            assert_eq!(outs.len(), batch.len());
            assert_eq!(registry.shards_absorbed(), report.task_count as u64);
            let mut metrics = registry.take();
            // Workspace fresh/reuse accounting is executor telemetry (it
            // depends on the size order each worker saw); canonicalize it
            // out of the structural compare.
            metrics.workspace_reused = 0;
            metrics.workspace_fresh = 0;
            merged.push(metrics);
        }
        assert_eq!(merged[0], merged[1]);
        assert_eq!(merged[1], merged[2]);
        assert_eq!(merged[0].solves, 60);
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
