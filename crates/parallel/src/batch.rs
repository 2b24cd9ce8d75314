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
//! The front-ends differ only in what they observe: nothing
//! ([`solve_batch_stealing`]), sharded metrics
//! ([`solve_batch_stealing_metered`]), per-worker span timelines
//! ([`solve_batch_traced`]) or live forensics ([`solve_batch_probed`]).
//! All of them run through one runner on [`crate::steal`]: results come
//! back in input order and are identical to calling
//! [`kmatch_gs::gale_shapley`] on each instance serially for **any**
//! thread count or steal schedule (GS is deterministic, instances share
//! no state, and the executor reduces in task-id order).

use kmatch_forensics::{ProbeSet, Probed, RegisterSet};
use kmatch_gs::{GsOutcome, GsStats, GsWorkspace};
use kmatch_obs::{BatchRegistry, Clock, NoMetrics, SolverMetrics, StdClock};
use kmatch_prefs::PrefOracle;
use kmatch_trace::{FlightRecorder, NoSpans, Tee, TraceEvent};

use crate::runner::{absorb, run_batch};
use crate::steal::StealReport;

/// The span timeline one batch worker recorded: a `batch.chunk` span per
/// executor task it ran (arg = task id) enclosing the per-solve engine
/// spans, captured through a fixed-capacity [`FlightRecorder`] so a huge
/// workload keeps only its most recent events.
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
    /// One trace per worker recorder, in worker order.
    pub(crate) fn collect<'c, C: Clock + 'c>(
        recorders: impl IntoIterator<Item = FlightRecorder<'c, C>>,
    ) -> Vec<ChunkTrace> {
        recorders
            .into_iter()
            .enumerate()
            .map(|(worker, rec)| ChunkTrace {
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
        |_| (GsWorkspace::new(), NoSpans),
        |_| NoMetrics,
    );
    (run.outcomes, run.report)
}

/// [`solve_batch_stealing`] with sharded metrics and per-solve wall
/// timing.
///
/// Each *task* accumulates into its own thread-private [`SolverMetrics`]
/// shard (plain `u64` increments, no atomics or locks on the hot path);
/// shards are absorbed into `registry` in task-id order after the join,
/// so the merged metrics are byte-identical for any steal schedule, and
/// the run's execution record is stored beside them. Per-solve wall time
/// is sampled from the injected `clock` at the front-end, keeping the
/// engine clock-free.
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
    let run = run_batch(
        instances.len(),
        |i| &instances[i],
        threads,
        seed,
        clock,
        |_| (GsWorkspace::new(), NoSpans),
        |_| SolverMetrics::new(),
    );
    absorb(registry, run.shards, &run.report);
    (run.outcomes, run.report)
}

/// [`solve_batch_stealing_metered`] that additionally records a span
/// timeline per worker.
///
/// Each worker owns one [`FlightRecorder`] of `flight_capacity` events
/// (preallocated; recording never allocates) for its whole lifetime and
/// wraps every task it runs in a `batch.chunk` span (arg = task id).
/// Flight recorders are phase-level by design (`SpanSink::FINE = false`):
/// the tracks carry `batch.chunk` and one `gs.solve` span per instance,
/// never the fine-grained `gs.round` spans — that is what keeps the
/// traced batch within a few percent of the plain one (the
/// `trace_overhead` row of `results/REPORT_gs.json` pins the measured
/// figure). The returned [`ChunkTrace`]s, ordered by worker id, plug
/// straight into `kmatch_trace::TraceTrack::workers` for a
/// thread-track-per-worker Chrome trace and expose stragglers directly.
/// Outcomes and merged metrics are identical to the metered path's for
/// any steal schedule; only the timelines reflect the schedule.
pub fn solve_batch_traced<P, C>(
    instances: &[P],
    threads: usize,
    seed: u64,
    registry: &BatchRegistry,
    clock: &C,
    flight_capacity: usize,
) -> (Vec<GsOutcome>, Vec<ChunkTrace>, StealReport)
where
    P: PrefOracle + Sync,
    C: Clock + Sync,
{
    let run = run_batch(
        instances.len(),
        |i| &instances[i],
        threads,
        seed,
        clock,
        |_| {
            (
                GsWorkspace::new(),
                FlightRecorder::new(clock, flight_capacity),
            )
        },
        |_| SolverMetrics::new(),
    );
    absorb(registry, run.shards, &run.report);
    (run.outcomes, ChunkTrace::collect(run.spans), run.report)
}

/// [`solve_batch_traced`] under live forensics: every worker publishes
/// its progress into its [`ProbeSet`] lane and its current leaf span into
/// its [`RegisterSet`] lane while it solves, so `GET /progress` and the
/// sampling profiler observe the batch mid-flight — and still records the
/// per-worker flight-recorder timelines the `/trace` ring and postmortem
/// bundles drain.
///
/// Worker `w` writes probe/register lane `w % lanes` (the lane sets are
/// sized by the caller, normally to the thread count; the modulo keeps a
/// mis-sized set observable rather than a panic). Each task solves
/// through a fresh [`Probed`]`<SolverMetrics, &WorkerProbe>` shard —
/// phase/round/proposal counters reset per task, exactly the resolution
/// `GET /progress` reports — and the inner shards are absorbed into
/// `registry` in task-id order. The span stream fans out through a
/// [`Tee`] to the worker's [`FlightRecorder`] (capacity
/// `flight_capacity`) and its register lane; both are `FINE = false`, so
/// the tee'd stream stays coarse. Outcomes are byte-identical to
/// [`solve_batch_stealing`]'s for any schedule; only the live telemetry,
/// the timelines, and the workspace fresh/reuse split reflect it.
///
/// [`WorkerProbe`]: kmatch_forensics::WorkerProbe
#[allow(clippy::too_many_arguments)]
pub fn solve_batch_probed<P, C>(
    instances: &[P],
    threads: usize,
    seed: u64,
    registry: &BatchRegistry,
    clock: &C,
    probes: &ProbeSet,
    registers: &RegisterSet,
    flight_capacity: usize,
) -> (Vec<GsOutcome>, Vec<ChunkTrace>, StealReport)
where
    P: PrefOracle + Sync,
    C: Clock + Sync,
{
    let run = run_batch(
        instances.len(),
        |i| &instances[i],
        threads,
        seed,
        clock,
        |w| {
            let recorder = FlightRecorder::new(clock, flight_capacity);
            (
                GsWorkspace::new(),
                Tee::new(recorder, registers.sink(w % registers.len())),
            )
        },
        |w| Probed::new(SolverMetrics::new(), probes.probe(w % probes.len())),
    );
    absorb(
        registry,
        run.shards.into_iter().map(Probed::into_inner),
        &run.report,
    );
    let traces = ChunkTrace::collect(run.spans.into_iter().map(|tee| tee.a));
    (run.outcomes, traces, run.report)
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
        let empty: Vec<BipartiteInstance> = Vec::new();
        let registry = BatchRegistry::new();
        let (outs, _) = solve_batch_stealing_metered(&empty, 2, 0, &registry, &ManualClock::new());
        assert!(outs.is_empty());
        assert_eq!(registry.shards_absorbed(), 0);
    }

    #[test]
    fn probed_batch_equals_plain_and_publishes_live_telemetry() {
        use kmatch_forensics::{ProbeSet, RegisterSet};
        use kmatch_obs::{BatchRegistry, ManualClock};
        let mut rng = ChaCha8Rng::seed_from_u64(56);
        let batch: Vec<BipartiteInstance> =
            (0..150).map(|_| uniform_bipartite(28, &mut rng)).collect();
        let registry = BatchRegistry::new();
        let clock = ManualClock::new();
        let threads = 3;
        let probes = ProbeSet::new(threads);
        let registers = RegisterSet::new(threads);
        let (probed, traces, _) = solve_batch_probed(
            &batch, threads, 0, &registry, &clock, &probes, &registers, 4096,
        );
        let (plain, _) = solve_batch_stealing(&batch, 1, 0);
        assert_eq!(probed.len(), plain.len());
        for (a, b) in probed.iter().zip(&plain) {
            assert_eq!(a.matching, b.matching);
            assert_eq!(a.stats, b.stats);
        }
        // Merged metrics are the full batch, exactly as the metered path.
        let merged = registry.take();
        assert_eq!(merged.solves, 150);
        // Every solve publishes at least phase-enter + solve-done, so the
        // probes collectively moved; lanes end idle and consistent.
        let total_gen: u64 = probes.generations().iter().sum();
        assert!(total_gen > 0, "no probe publish happened");
        for snap in probes.snapshot() {
            assert!(snap.consistent);
            assert_eq!(snap.phase, kmatch_obs::phase::IDLE);
        }
        // The span register interned the solve span name.
        assert!(!registers.names().is_empty());
        // The tee'd flight recorders captured real timelines alongside
        // the live registers: every solve left a gs.solve span somewhere.
        let solve_spans: usize = traces
            .iter()
            .flat_map(|t| t.events.iter())
            .filter(|e| e.name == kmatch_trace::span::GS_SOLVE)
            .count();
        assert!(solve_spans > 0, "no gs.solve events in probed traces");
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
