//! Batch throughput front-end: solve many independent bipartite instances
//! across the work-stealing executor.
//!
//! Throughput-oriented callers (parameter sweeps, Monte-Carlo experiments,
//! the `bench_throughput` benchmark) solve thousands of instances whose
//! only relationship is that they arrive together. Each solve is
//! independent, so the batch is embarrassingly parallel; the interesting
//! part is keeping the per-solve constant factor down. [`solve_batch`]
//! does that by giving every worker thread one [`GsWorkspace`], so
//! scratch buffers are allocated once per thread and reused for every
//! instance the thread processes — the per-instance allocations are
//! exactly the two partner arrays owned by each returned matching.
//!
//! Fan-out goes through [`crate::steal`]: fine-grained task chunks on
//! per-worker deques with seeded victim selection, instead of the static
//! `len / threads` split this front-end originally used — an uneven batch
//! no longer stalls behind its largest contiguous chunk. Results are
//! returned in input order and are identical to calling
//! [`kmatch_gs::gale_shapley`] on each instance serially for **any**
//! thread count or steal schedule (GS is deterministic, instances share
//! no state, and the executor reduces in task-id order).

use kmatch_forensics::{ProbeSet, Probed, RegisterSet};
use kmatch_gs::{GsOutcome, GsStats, GsWorkspace};
use kmatch_obs::{BatchRegistry, Clock, Metrics, SolverMetrics};
use kmatch_prefs::PrefOracle;
use kmatch_trace::{span, FlightRecorder, SpanSink, Tee, TraceEvent};

use crate::steal::{self, solve_batch_stealing, solve_batch_stealing_metered, steal_seed};

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

/// Which execution path the batch front-ends take on the current host:
/// `"serial"` when one worker thread is available — the fan-out machinery
/// (task deques, per-worker workspaces, registry shards) would only add
/// overhead with no concurrency to buy — and `"stealing"` otherwise.
/// Benchmarks record this so throughput numbers name the path they
/// measured.
pub fn batch_path() -> &'static str {
    if rayon::current_num_threads() <= 1 {
        "serial"
    } else {
        "stealing"
    }
}

/// Solve every instance with proposer-proposing Gale–Shapley, fanning the
/// batch across the rayon pool with one reusable [`GsWorkspace`] per
/// worker thread.
///
/// Output order matches input order, and each outcome equals the one
/// `gale_shapley` would produce for that instance.
///
/// ```
/// use kmatch_parallel::solve_batch;
/// use kmatch_prefs::gen::uniform::uniform_bipartite;
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let mut rng = ChaCha8Rng::seed_from_u64(1);
/// let batch: Vec<_> = (0..32).map(|_| uniform_bipartite(16, &mut rng)).collect();
/// let outcomes = solve_batch(&batch);
/// assert_eq!(outcomes.len(), 32);
/// ```
pub fn solve_batch<P>(instances: &[P]) -> Vec<GsOutcome>
where
    P: PrefOracle + Sync,
{
    if batch_path() == "serial" {
        let mut ws = GsWorkspace::new();
        return instances.iter().map(|inst| ws.solve(inst)).collect();
    }
    solve_batch_stealing(instances, rayon::current_num_threads(), steal_seed()).0
}

/// [`solve_batch`] with sharded metrics and per-solve wall timing.
///
/// Every worker solves a contiguous chunk of the batch through its own
/// [`GsWorkspace`] **and** its own thread-private [`SolverMetrics`] shard —
/// the hot path performs plain `u64` increments, no atomics, no locks.
/// Each shard is absorbed into `registry` exactly once, when its chunk
/// completes. Per-solve wall time is sampled from the injected `clock`
/// here at the front-end, keeping the engine clock-free.
///
/// Output order matches input order and each outcome equals
/// [`solve_batch`]'s (the metered engine instantiation runs the identical
/// round schedule).
pub fn solve_batch_metered<P, C>(
    instances: &[P],
    registry: &BatchRegistry,
    clock: &C,
) -> Vec<GsOutcome>
where
    P: PrefOracle + Sync,
    C: Clock + Sync,
{
    let len = instances.len();
    if len == 0 {
        return Vec::new();
    }
    if batch_path() == "serial" {
        let mut ws = GsWorkspace::new();
        let mut shard = SolverMetrics::new();
        let outs: Vec<GsOutcome> = instances
            .iter()
            .map(|inst| {
                let t0 = clock.now_ns();
                let out = ws.solve_metered(inst, &mut shard);
                shard.solve_ns(clock.now_ns().saturating_sub(t0));
                out
            })
            .collect();
        registry.absorb(shard);
        registry.record_execution(kmatch_obs::ExecutionRecord {
            path: "serial",
            threads: 1,
            task_count: 1,
            steal_count: 0,
            straggler_ratio: 1.0,
        });
        return outs;
    }
    let threads = rayon::current_num_threads().clamp(1, len);
    let (outs, report) =
        solve_batch_stealing_metered(instances, threads, steal_seed(), registry, clock);
    registry.record_execution(report.to_execution_record());
    outs
}

/// [`solve_batch_metered`] that additionally records a span timeline per
/// worker chunk.
///
/// Each chunk solves through its own [`FlightRecorder`] of
/// `flight_capacity` events (preallocated before the chunk's first solve;
/// recording never allocates), wrapping the whole chunk in a
/// `batch.chunk` span whose arg is the chunk index. Flight recorders are
/// phase-level by design (`SpanSink::FINE = false`): the tracks carry
/// `batch.chunk` and one `gs.solve` span per instance, never the
/// fine-grained `gs.round` spans — that is what keeps the traced batch
/// within a few percent of the plain one (the `trace_overhead` row of
/// `results/REPORT_gs.json` pins the measured figure). On the stealing
/// path each **worker** owns one recorder for its whole lifetime and
/// wraps every task it runs in a `batch.chunk` span (arg = task id), so
/// the returned [`ChunkTrace`]s — ordered by worker id — are true
/// per-worker timelines: they plug straight into
/// `kmatch_trace::TraceTrack::workers` for a thread-track-per-worker
/// Chrome trace and expose stragglers directly. Outcomes and merged
/// metrics are identical to [`solve_batch`]'s for any steal schedule;
/// only the span timelines reflect the schedule.
pub fn solve_batch_traced<P, C>(
    instances: &[P],
    registry: &BatchRegistry,
    clock: &C,
    flight_capacity: usize,
) -> (Vec<GsOutcome>, Vec<ChunkTrace>)
where
    P: PrefOracle + Sync,
    C: Clock + Sync,
{
    let len = instances.len();
    if len == 0 {
        return (Vec::new(), Vec::new());
    }
    let solve_chunk = |c: usize, chunk_insts: &[P]| {
        let mut ws = GsWorkspace::new();
        let mut shard = SolverMetrics::new();
        let mut rec = FlightRecorder::new(clock, flight_capacity);
        rec.begin(span::BATCH_CHUNK, c as u64);
        let outs: Vec<GsOutcome> = chunk_insts
            .iter()
            .map(|inst| {
                let t0 = clock.now_ns();
                let out = ws.solve_spanned(inst, &mut shard, &mut rec);
                shard.solve_ns(clock.now_ns().saturating_sub(t0));
                out
            })
            .collect();
        rec.end(span::BATCH_CHUNK);
        registry.absorb(shard);
        let trace = ChunkTrace {
            worker: c,
            dropped: rec.dropped(),
            events: rec.events(),
        };
        (outs, trace)
    };
    if batch_path() == "serial" {
        let (outs, trace) = solve_chunk(0, instances);
        registry.record_execution(kmatch_obs::ExecutionRecord {
            path: "serial",
            threads: 1,
            task_count: 1,
            steal_count: 0,
            straggler_ratio: 1.0,
        });
        return (outs, vec![trace]);
    }
    let threads = rayon::current_num_threads().clamp(1, len);
    let (chunk, task_count) = steal::task_layout(len, threads);
    let (per_task, states, report) = steal::run_tasks(
        task_count,
        threads,
        steal_seed(),
        |_| (GsWorkspace::new(), FlightRecorder::new(clock, flight_capacity)),
        |state, t| {
            let (ws, rec) = state;
            let lo = t * chunk;
            let hi = ((t + 1) * chunk).min(len);
            let mut shard = SolverMetrics::new();
            rec.begin(span::BATCH_CHUNK, t as u64);
            let outs: Vec<GsOutcome> = instances[lo..hi]
                .iter()
                .map(|inst| {
                    let t0 = clock.now_ns();
                    let out = ws.solve_spanned(inst, &mut shard, rec);
                    shard.solve_ns(clock.now_ns().saturating_sub(t0));
                    out
                })
                .collect();
            rec.end(span::BATCH_CHUNK);
            (outs, shard)
        },
    );
    let mut outs = Vec::with_capacity(len);
    for (_, (task_outs, shard)) in per_task {
        outs.extend(task_outs);
        registry.absorb(shard);
    }
    registry.record_execution(report.to_execution_record());
    let traces: Vec<ChunkTrace> = states
        .into_iter()
        .enumerate()
        .map(|(w, (_, rec))| ChunkTrace {
            worker: w,
            dropped: rec.dropped(),
            events: rec.events(),
        })
        .collect();
    (outs, traces)
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
/// `GET /progress` reports — and the inner shard is absorbed into
/// `registry` when the task completes. The span stream fans out through a
/// [`Tee`] to the worker's [`FlightRecorder`] (capacity
/// `flight_capacity`) and its register lane; both are `FINE = false`, so
/// the tee'd stream stays coarse. Outcomes are byte-identical to
/// [`solve_batch`]'s for any schedule; only the live telemetry, the
/// timelines, and the workspace fresh/reuse split reflect it.
pub fn solve_batch_probed<P, C>(
    instances: &[P],
    registry: &BatchRegistry,
    clock: &C,
    probes: &ProbeSet,
    registers: &RegisterSet,
    flight_capacity: usize,
) -> (Vec<GsOutcome>, Vec<ChunkTrace>)
where
    P: PrefOracle + Sync,
    C: Clock + Sync,
{
    let len = instances.len();
    if len == 0 {
        return (Vec::new(), Vec::new());
    }
    if batch_path() == "serial" {
        let mut ws = GsWorkspace::new();
        let mut tee = Tee::new(
            FlightRecorder::new(clock, flight_capacity),
            registers.sink(0),
        );
        let mut shard = Probed::new(SolverMetrics::new(), probes.probe(0));
        tee.begin(span::BATCH_CHUNK, 0);
        let outs: Vec<GsOutcome> = instances
            .iter()
            .map(|inst| {
                let t0 = clock.now_ns();
                let out = ws.solve_spanned(inst, &mut shard, &mut tee);
                shard.inner_mut().solve_ns(clock.now_ns().saturating_sub(t0));
                out
            })
            .collect();
        tee.end(span::BATCH_CHUNK);
        registry.absorb(shard.into_inner());
        registry.record_execution(kmatch_obs::ExecutionRecord {
            path: "serial",
            threads: 1,
            task_count: 1,
            steal_count: 0,
            straggler_ratio: 1.0,
        });
        let trace = ChunkTrace {
            worker: 0,
            dropped: tee.a.dropped(),
            events: tee.a.events(),
        };
        return (outs, vec![trace]);
    }
    let threads = rayon::current_num_threads().clamp(1, len);
    let (chunk, task_count) = steal::task_layout(len, threads);
    let (per_task, states, report) = steal::run_tasks(
        task_count,
        threads,
        steal_seed(),
        |w| {
            (
                GsWorkspace::new(),
                Tee::new(
                    FlightRecorder::new(clock, flight_capacity),
                    registers.sink(w % registers.len()),
                ),
                probes.probe(w % probes.len()),
            )
        },
        |state, t| {
            let (ws, tee, probe) = state;
            let lo = t * chunk;
            let hi = ((t + 1) * chunk).min(len);
            let mut shard = Probed::new(SolverMetrics::new(), *probe);
            tee.begin(span::BATCH_CHUNK, t as u64);
            let outs: Vec<GsOutcome> = instances[lo..hi]
                .iter()
                .map(|inst| {
                    let t0 = clock.now_ns();
                    let out = ws.solve_spanned(inst, &mut shard, tee);
                    shard.inner_mut().solve_ns(clock.now_ns().saturating_sub(t0));
                    out
                })
                .collect();
            tee.end(span::BATCH_CHUNK);
            (outs, shard.into_inner())
        },
    );
    let mut outs = Vec::with_capacity(len);
    for (_, (task_outs, shard)) in per_task {
        outs.extend(task_outs);
        registry.absorb(shard);
    }
    registry.record_execution(report.to_execution_record());
    let traces: Vec<ChunkTrace> = states
        .into_iter()
        .enumerate()
        .map(|(w, (_, tee, _))| ChunkTrace {
            worker: w,
            dropped: tee.a.dropped(),
            events: tee.a.events(),
        })
        .collect();
    (outs, traces)
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
        let outcomes = solve_batch(&batch);
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
        let par = solve_batch(&batch);
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
        let par = solve_batch(&batch);
        for (inst, out) in batch.iter().zip(&par) {
            assert_eq!(out.matching, gale_shapley(inst).matching);
        }
    }

    #[test]
    fn empty_and_singleton_batches() {
        let empty: Vec<BipartiteInstance> = Vec::new();
        assert!(solve_batch(&empty).is_empty());

        let mut rng = ChaCha8Rng::seed_from_u64(53);
        let one = vec![uniform_bipartite(10, &mut rng)];
        let out = solve_batch(&one);
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
        let metered = solve_batch_metered(&batch, &registry, &clock);
        let plain = solve_batch(&batch);
        assert_eq!(metered.len(), plain.len());
        for (a, b) in metered.iter().zip(&plain) {
            assert_eq!(a.matching, b.matching);
            assert_eq!(a.stats, b.stats);
        }
        // One shard per executor task (a single one on the serial path),
        // not per solve.
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
        assert!(solve_batch_metered(&empty, &registry, &ManualClock::new()).is_empty());
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
        let threads = rayon::current_num_threads().max(1);
        let probes = ProbeSet::new(threads);
        let registers = RegisterSet::new(threads);
        let (probed, traces) =
            solve_batch_probed(&batch, &registry, &clock, &probes, &registers, 4096);
        let plain = solve_batch(&batch);
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
        let out = solve_batch(&batch);
        let agg = batch_stats(&out);
        assert_eq!(
            agg.proposals,
            out.iter().map(|o| o.stats.proposals).sum::<u64>()
        );
        assert!(agg.rounds >= out[0].stats.rounds);
        assert_eq!(batch_stats(&[]).rounds, 0);
    }
}
