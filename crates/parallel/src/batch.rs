//! Batch throughput front-ends: solve many independent bipartite
//! instances across the work-stealing executor.
//!
//! Throughput-oriented callers (parameter sweeps, Monte-Carlo experiments,
//! the `bench_throughput` benchmark) solve thousands of instances whose
//! only relationship is that they arrive together. Each solve is
//! independent, so the batch is embarrassingly parallel; the interesting
//! part is keeping the per-solve constant factor down. Every front-end
//! here gives each worker thread one [`GsWorkspace`], so scratch buffers
//! are allocated once per thread and reused for every instance the thread
//! processes — the per-instance allocations are exactly the two partner
//! arrays owned by each returned matching.
//!
//! [`solve_batch_stealing`] observes nothing; [`solve_batch_stealing_metered`]
//! fills a registry. Anything more — per-worker span timelines, live
//! forensics — is [`crate::solve_batch_with`] with a worker closure that
//! builds the observers, and [`ChunkTrace::from_workers`] reads the
//! timelines back. All of them run through one runner on
//! [`crate::steal`]: results come back in input order and are identical
//! to calling [`kmatch_gs::gale_shapley`] on each instance serially for
//! **any** thread count or steal schedule (GS is deterministic, instances
//! share no state, and the executor reduces in task-id order).

use kmatch_gs::{GsOutcome, GsStats, GsWorkspace};
use kmatch_obs::{BatchRegistry, Clock, NoMetrics, StdClock};
use kmatch_prefs::PrefOracle;
use kmatch_trace::{FlightRecorder, TraceEvent};

use crate::runner::{run_batch, solve_batch_with};
use crate::steal::StealReport;

/// The span timeline one batch worker recorded: a `batch.chunk` span per
/// executor task it ran (arg = task id) enclosing the per-solve engine
/// spans, captured through a fixed-capacity [`FlightRecorder`] so a huge
/// workload keeps only its most recent events.
///
/// Flight recorders are phase-level by design (`FINE_SPANS = false`):
/// the tracks carry `batch.chunk` and one `gs.solve` (or `irving.*`)
/// span per instance, never the fine-grained `gs.round` spans — that is
/// what keeps a traced batch within a few percent of the metered one
/// (the `trace_overhead` row of `results/REPORT_gs.json` pins the
/// measured figure).
#[derive(Debug, Clone)]
pub struct ChunkTrace {
    /// Worker index — the worker-track id in the exported trace.
    pub worker: usize,
    /// Events the worker's flight recorder overwrote (0 when the ring
    /// never wrapped).
    pub dropped: u64,
    /// The surviving events, oldest first.
    pub events: Vec<TraceEvent>,
}

impl ChunkTrace {
    /// One trace per worker's outermost recorder, in worker order: the
    /// workers [`crate::solve_batch_with`] returns when each carries a
    /// [`FlightRecorder`] as `(engine, recorder)`. The traces plug
    /// straight into `kmatch_trace::TraceTrack::workers` for a
    /// thread-track-per-worker Chrome trace.
    pub fn from_workers<'c, W, C: Clock + 'c>(
        workers: impl IntoIterator<Item = (W, FlightRecorder<'c, C>)>,
    ) -> Vec<ChunkTrace> {
        workers
            .into_iter()
            .enumerate()
            .map(|(worker, (_, rec))| ChunkTrace {
                worker,
                dropped: rec.dropped(),
                events: rec.events(),
            })
            .collect()
    }
}

/// Solve a batch through the work-stealing executor with `threads` OS
/// workers and the given steal-schedule seed.
///
/// Outcomes are in input order and byte-identical to a serial
/// [`GsWorkspace::solve`] loop for **any** `threads`/`seed` combination;
/// only the returned [`StealReport`] reflects the actual schedule.
/// `threads <= 1` (or a trivial batch) takes the serial path with no
/// worker threads at all, and no more workers start than there are tasks.
///
/// ```
/// use kmatch_parallel::solve_batch_stealing;
/// use kmatch_prefs::gen::uniform::uniform_bipartite;
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let mut rng = ChaCha8Rng::seed_from_u64(1);
/// let batch: Vec<_> = (0..32).map(|_| uniform_bipartite(16, &mut rng)).collect();
/// let (outcomes, report) = solve_batch_stealing(&batch, 2, 0);
/// assert_eq!(outcomes.len(), 32);
/// assert_eq!(report.path, "stealing");
/// ```
pub fn solve_batch_stealing<P>(
    instances: &[P],
    threads: usize,
    seed: u64,
) -> (Vec<GsOutcome>, StealReport)
where
    P: PrefOracle + Sync,
{
    let run = run_batch(
        instances.len(),
        |i| &instances[i],
        threads,
        seed,
        &StdClock::new(),
        |_| GsWorkspace::new(),
        |_| NoMetrics,
    );
    (run.outcomes, run.report)
}

/// [`solve_batch_stealing`] with sharded metrics and per-solve wall
/// timing: [`crate::solve_batch_with`] over bare [`GsWorkspace`]s.
pub fn solve_batch_stealing_metered<P, C>(
    instances: &[P],
    threads: usize,
    seed: u64,
    registry: &BatchRegistry,
    clock: &C,
) -> (Vec<GsOutcome>, StealReport)
where
    P: PrefOracle + Sync,
    C: Clock + Sync,
{
    let (outcomes, _, report) = solve_batch_with(instances, threads, seed, registry, clock, |_| {
        GsWorkspace::new()
    });
    (outcomes, report)
}

/// Sum the instrumentation counters of a batch: total proposals and the
/// maximum round count (the batch's PRAM-style critical path).
pub fn batch_stats(outcomes: &[GsOutcome]) -> GsStats {
    GsStats {
        proposals: outcomes.iter().map(|o| o.stats.proposals).sum(),
        rounds: outcomes.iter().map(|o| o.stats.rounds).max().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmatch_gs::gale_shapley;
    use kmatch_prefs::gen::uniform::uniform_bipartite;
    use kmatch_prefs::BipartiteInstance;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn batch_accepts_lazy_oracles() {
        // A batch of O(1)-state oracles: per-worker workspaces solve them
        // exactly as a serial loop would.
        use kmatch_prefs::RandomOracle;
        let batch: Vec<RandomOracle> =
            (0..64).map(|seed| RandomOracle::new(24, seed)).collect();
        let (outcomes, _) = solve_batch_stealing(&batch, 3, 0);
        let mut ws = GsWorkspace::new();
        for (oracle, out) in batch.iter().zip(&outcomes) {
            let serial = ws.solve(oracle);
            assert_eq!(out.matching, serial.matching);
            assert_eq!(out.stats, serial.stats);
        }
    }

    #[test]
    fn batch_equals_serial() {
        let mut rng = ChaCha8Rng::seed_from_u64(51);
        let batch: Vec<BipartiteInstance> =
            (0..200).map(|_| uniform_bipartite(30, &mut rng)).collect();
        let (par, _) = solve_batch_stealing(&batch, 4, 0);
        assert_eq!(par.len(), batch.len());
        for (inst, out) in batch.iter().zip(&par) {
            let seq = gale_shapley(inst);
            assert_eq!(out.matching, seq.matching);
            assert_eq!(out.stats, seq.stats);
        }
    }

    #[test]
    fn mixed_sizes_do_not_leak_workspace_state() {
        let mut rng = ChaCha8Rng::seed_from_u64(52);
        let sizes = [40usize, 1, 17, 64, 3, 64, 2, 33];
        let batch: Vec<BipartiteInstance> = sizes
            .iter()
            .cycle()
            .take(64)
            .map(|&n| uniform_bipartite(n, &mut rng))
            .collect();
        let (par, _) = solve_batch_stealing(&batch, 3, 7);
        for (inst, out) in batch.iter().zip(&par) {
            assert_eq!(out.matching, gale_shapley(inst).matching);
        }
    }

    #[test]
    fn empty_and_singleton_batches() {
        let empty: Vec<BipartiteInstance> = Vec::new();
        assert!(solve_batch_stealing(&empty, 4, 0).0.is_empty());

        let mut rng = ChaCha8Rng::seed_from_u64(53);
        let one = vec![uniform_bipartite(10, &mut rng)];
        let (out, report) = solve_batch_stealing(&one, 4, 0);
        assert_eq!(report.path, "serial");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].matching, gale_shapley(&one[0]).matching);
    }

    #[test]
    fn metered_batch_equals_plain_and_shards_merge() {
        use kmatch_obs::{BatchRegistry, ManualClock};
        let mut rng = ChaCha8Rng::seed_from_u64(55);
        let batch: Vec<BipartiteInstance> =
            (0..120).map(|_| uniform_bipartite(24, &mut rng)).collect();
        let registry = BatchRegistry::new();
        let clock = ManualClock::new();
        let (metered, _) = solve_batch_stealing_metered(&batch, 3, 0, &registry, &clock);
        let (plain, _) = solve_batch_stealing(&batch, 1, 0);
        assert_eq!(metered.len(), plain.len());
        for (a, b) in metered.iter().zip(&plain) {
            assert_eq!(a.matching, b.matching);
            assert_eq!(a.stats, b.stats);
        }
        // One shard per executor task, not per solve.
        let shards = registry.shards_absorbed();
        let tasks = registry.execution().expect("execution recorded").task_count;
        assert_eq!(shards, tasks);
        assert!((1..120).contains(&shards));
        let merged = registry.take();
        assert_eq!(merged.solves, 120);
        assert_eq!(
            merged.proposals,
            plain.iter().map(|o| o.stats.proposals).sum::<u64>()
        );
        assert_eq!(merged.solve_wall_ns.count(), 120);
        assert_eq!(registry.shards_absorbed(), 0, "take() resets the count");
    }

    #[test]
    fn metered_empty_batch_absorbs_nothing() {
        use kmatch_obs::{BatchRegistry, ManualClock};
        use kmatch_prefs::RoommatesInstance;
        use kmatch_roommates::RoommatesWorkspace;
        // An empty batch runs no task: no shard, no task in the execution
        // record, and one idle lane, for either engine.
        let check = |registry: &BatchRegistry, report: &StealReport| {
            let record = registry.execution().expect("execution recorded");
            assert_eq!(record.task_count, 0);
            assert_eq!(registry.shards_absorbed(), record.task_count);
            assert_eq!(report.task_count, 0);
            assert_eq!(report.lanes.len(), 1);
            assert_eq!(report.lanes[0].tasks, 0);
            assert_eq!(report.straggler_ratio(), 0.0);
        };
        let clock = ManualClock::new();
        let registry = BatchRegistry::new();
        let empty: Vec<BipartiteInstance> = Vec::new();
        let (outs, report) = solve_batch_stealing_metered(&empty, 2, 0, &registry, &clock);
        assert!(outs.is_empty());
        check(&registry, &report);
        let registry = BatchRegistry::new();
        let empty: Vec<RoommatesInstance> = Vec::new();
        let (outs, workers, report) = solve_batch_with(&empty, 2, 0, &registry, &clock, |_| {
            RoommatesWorkspace::new()
        });
        assert!(outs.is_empty() && workers.is_empty());
        check(&registry, &report);
    }

    #[test]
    fn batch_stats_aggregates() {
        let mut rng = ChaCha8Rng::seed_from_u64(54);
        let batch: Vec<BipartiteInstance> =
            (0..10).map(|_| uniform_bipartite(12, &mut rng)).collect();
        let (out, _) = solve_batch_stealing(&batch, 2, 0);
        let agg = batch_stats(&out);
        assert_eq!(
            agg.proposals,
            out.iter().map(|o| o.stats.proposals).sum::<u64>()
        );
        assert!(agg.rounds >= out[0].stats.rounds);
        assert_eq!(batch_stats(&[]).rounds, 0);
    }
}
