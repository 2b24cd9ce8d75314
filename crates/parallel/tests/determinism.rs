//! The stealing executor's determinism contract, end to end: the one
//! metered batch front-end, run over every worker observer a caller
//! builds, both engines, threads ∈ {1, 2, 7} and steal seeds {0, 99},
//! gives the same outcomes and the same schedule-independent `RunReport`
//! fields, and records the execution it ran; so do the unobserved, cached
//! and binding front-ends.

use std::fmt::Debug;

use kmatch_forensics::ProbeSet;
use kmatch_graph::prufer::random_tree;
use kmatch_graph::schedule::tree_edge_coloring;
use kmatch_gs::{BipartiteMatching, GsOutcome, GsStats, GsWorkspace};
use kmatch_incremental::SolveCache;
use kmatch_obs::{phase, BatchRegistry, RunReport, StdClock};
use kmatch_parallel::steal::task_layout;
use kmatch_parallel::{
    parallel_bind, parallel_bind_scheduled, roommates, solve_batch_cached, solve_batch_stealing,
    solve_batch_with, ChunkTrace, Engine,
};
use kmatch_prefs::gen::uniform::{uniform_bipartite, uniform_kpartite, uniform_roommates};
use kmatch_prefs::{BipartiteInstance, RoommatesInstance};
use kmatch_roommates::{RoommatesMatching, RoommatesOutcome, RoommatesWorkspace, SolveStats};
use kmatch_trace::{span, FlightRecorder};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Serialize, Value};

const THREADS: [usize; 3] = [1, 2, 7];
const SEEDS: [u64; 2] = [0, 99];
const SIZES: [usize; 8] = [32, 3, 57, 12, 40, 1, 25, 64];

/// Uneven sizes, so that workers run out of their own tasks at
/// different times and steal.
fn gs_batch() -> Vec<BipartiteInstance> {
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    SIZES
        .iter()
        .cycle()
        .take(64)
        .map(|&n| uniform_bipartite(n, &mut rng))
        .collect()
}

fn roommates_batch() -> Vec<RoommatesInstance> {
    let mut rng = ChaCha8Rng::seed_from_u64(10);
    SIZES
        .iter()
        .cycle()
        .take(48)
        .map(|&n| uniform_roommates(n.max(2), &mut rng))
        .collect()
}

/// Named report fields, in report order.
type Fields = Vec<(String, Value)>;

/// The report fields no schedule may change: everything but the thread
/// count, wall-clock figures, the executor section and the workspace
/// fresh/reuse split (which worker grew its buffers first is schedule
/// telemetry, like the steal count).
fn schedule_independent(
    kind: &str,
    n: usize,
    instances: usize,
    registry: &BatchRegistry,
) -> Fields {
    let report = RunReport::new(kind, n, instances, 9, 1, 0, registry.take(), None);
    let v = report.to_value();
    let mut fields: Fields = ["schema", "kind", "n", "instances", "seed"]
        .iter()
        .map(|k| (k.to_string(), v.get(k).expect("report field").clone()))
        .collect();
    let metrics = v.get("metrics").expect("metrics section");
    let section = |name: &str, keep: &dyn Fn(&str) -> bool| match metrics.get(name) {
        Some(Value::Object(entries)) => entries
            .iter()
            .filter(|(k, _)| keep(k))
            .map(|(k, v)| (format!("{name}.{k}"), v.clone()))
            .collect::<Vec<_>>(),
        other => panic!("metrics.{name} is not an object: {other:?}"),
    };
    fields.extend(section("counters", &|k| {
        !matches!(k, "workspace_fresh" | "workspace_reused")
    }));
    fields.extend(section("histograms", &|k| !k.ends_with("_ns")));
    assert!(
        fields
            .iter()
            .any(|(k, v)| k == "counters.solves" && *v != Value::Number(0.0)),
        "the compared fields carry the solver's work: {fields:?}"
    );
    fields
}

fn gs(outcomes: &[GsOutcome]) -> Vec<(BipartiteMatching, GsStats)> {
    outcomes
        .iter()
        .map(|o| (o.matching.clone(), o.stats))
        .collect()
}

fn rm(outcomes: &[RoommatesOutcome]) -> Vec<(Option<RoommatesMatching>, SolveStats)> {
    outcomes
        .iter()
        .map(|o| (o.matching().cloned(), o.stats()))
        .collect()
}

/// Run one front-end at every (threads, seed) pair and check that every
/// run gives what the first gave.
fn same_everywhere<T: PartialEq + Debug>(front_end: &str, run: impl Fn(usize, u64) -> T) {
    let first = run(THREADS[0], SEEDS[0]);
    for threads in THREADS {
        for seed in SEEDS {
            assert_eq!(
                run(threads, seed),
                first,
                "{front_end}: threads {threads}, seed {seed}"
            );
        }
    }
}

/// The worker observers a caller hands [`solve_batch_with`].
#[derive(Debug, Clone, Copy)]
enum Observers {
    /// The bare engine workspace.
    Bare,
    /// A per-worker flight recorder: `(ws, recorder)`.
    Recorder,
    /// Live forensics beside the recorder, as `kmatch serve` nests them:
    /// `((ws, Probed), recorder)`.
    Probed,
}

const OBSERVERS: [Observers; 3] = [Observers::Bare, Observers::Recorder, Observers::Probed];

/// One row: solve `batch` through [`solve_batch_with`] with workers that
/// carry `observers`, check what the observers saw and the execution the
/// run recorded, and return the outcomes and the schedule-independent
/// report fields.
fn row<P, E, T>(
    kind: &str,
    batch: &[P],
    engine: fn() -> E,
    project: fn(&[E::Outcome]) -> T,
    observers: Observers,
    threads: usize,
    seed: u64,
) -> (T, Fields)
where
    P: Sync,
    E: Engine<P>,
{
    let (registry, clock) = (BatchRegistry::new(), StdClock::new());
    let probes = ProbeSet::new(threads);
    let recorder = || FlightRecorder::new(&clock, 1 << 12);
    let (outs, report, traces) = match observers {
        Observers::Bare => {
            let (outs, _, report) =
                solve_batch_with(batch, threads, seed, &registry, &clock, |_| engine());
            (outs, report, None)
        }
        Observers::Recorder => {
            let (outs, workers, report) =
                solve_batch_with(batch, threads, seed, &registry, &clock, |_| {
                    (engine(), recorder())
                });
            (outs, report, Some(ChunkTrace::from_workers(workers)))
        }
        Observers::Probed => {
            let (outs, workers, report) =
                solve_batch_with(batch, threads, seed, &registry, &clock, |w| {
                    ((engine(), probes.observer(w)), recorder())
                });
            // Every solve published progress and interned its span
            // names; the lanes end idle and consistent.
            assert!(probes.generations().iter().sum::<u64>() > 0, "{kind}");
            assert!(!probes.names().is_empty(), "{kind}");
            for snap in probes.snapshot() {
                assert!(
                    snap.consistent && snap.phase == phase::IDLE,
                    "{kind}: {snap:?}"
                );
            }
            (outs, report, Some(ChunkTrace::from_workers(workers)))
        }
    };
    if let Some(traces) = traces {
        assert_eq!(
            traces.len(),
            report.lanes.len(),
            "{kind}: a timeline per worker"
        );
        assert!(
            traces
                .iter()
                .flat_map(|t| &t.events)
                .any(|e| e.name != span::BATCH_CHUNK),
            "{kind}: no solve span"
        );
    }
    // The execution record is the report's own: the task layout the
    // thread count fixes, one absorbed shard per task, every task run
    // once, and the serial path, which never steals, for one thread.
    let record = registry.execution().expect("execution recorded");
    assert_eq!(record, report.to_execution_record());
    let tasks = match threads {
        1 => 1,
        _ => task_layout(batch.len(), threads).1 as u64,
    };
    assert_eq!(record.task_count, tasks);
    assert_eq!(registry.shards_absorbed(), tasks);
    assert_eq!(report.lanes.iter().map(|l| l.tasks).sum::<u64>(), tasks);
    let path = if threads == 1 { "serial" } else { "stealing" };
    assert_eq!(
        (report.path, report.threads, report.seed),
        (path, threads, seed)
    );
    assert!(
        threads > 1 || report.steal_count == 0,
        "{kind}: a serial run stole"
    );
    // Which worker grew its buffers first is schedule telemetry, but
    // every solve either grew its workspace or reused it.
    let metrics = registry.snapshot();
    assert_eq!(
        metrics.workspace_fresh + metrics.workspace_reused,
        metrics.solves
    );
    assert!(
        metrics.workspace_fresh >= 1,
        "{kind}: no solve grew a workspace"
    );
    let fields = schedule_independent(kind, 64, batch.len(), &registry);
    (project(&outs), fields)
}

/// Run every (observers, threads, seed) row of one engine and check that
/// each gives what the bare single-thread row gave; returns its outcomes.
fn table<P, E, T>(kind: &str, batch: &[P], engine: fn() -> E, project: fn(&[E::Outcome]) -> T) -> T
where
    P: Sync,
    E: Engine<P>,
    T: PartialEq + Debug,
{
    let first = row(kind, batch, engine, project, Observers::Bare, 1, SEEDS[0]);
    for observers in OBSERVERS {
        for threads in THREADS {
            for seed in SEEDS {
                assert_eq!(
                    row(kind, batch, engine, project, observers, threads, seed),
                    first,
                    "{kind} {observers:?}: threads {threads}, seed {seed}"
                );
            }
        }
    }
    first.0
}

#[test]
fn gs_front_ends_do_not_depend_on_threads_or_steal_seed() {
    let batch = gs_batch();
    let outs = table("gs", &batch, GsWorkspace::new, gs);
    // The unobserved instantiation solves the same.
    same_everywhere("gs stealing", |threads, seed| {
        let (plain, report) = solve_batch_stealing(&batch, threads, seed);
        assert_eq!(report.threads, threads);
        assert_eq!(gs(&plain), outs);
    });
}

#[test]
fn roommates_front_ends_do_not_depend_on_threads_or_steal_seed() {
    let batch = roommates_batch();
    let outs = table("roommates", &batch, RoommatesWorkspace::new, rm);
    same_everywhere("roommates stealing", |threads, seed| {
        assert_eq!(
            rm(&roommates::solve_batch_stealing(&batch, threads, seed).0),
            outs
        );
    });
}

#[test]
fn cached_front_end_does_not_depend_on_threads_or_steal_seed() {
    let batch = gs_batch();
    let (n, clock) = (64, StdClock::new());
    // Every instance twice: the second sighting is an in-batch hit.
    let repeated: Vec<BipartiteInstance> = batch.iter().chain(&batch).cloned().collect();
    same_everywhere("cached", |threads, seed| {
        let registry = BatchRegistry::new();
        let mut cache = SolveCache::default();
        let out = solve_batch_cached(&repeated, threads, seed, &mut cache, &registry, &clock);
        let fields = schedule_independent("gs", n, repeated.len(), &registry);
        (gs(&out.outcomes), out.hits, out.misses, fields)
    });
}

#[test]
fn binding_front_ends_do_not_depend_on_threads_or_steal_seed() {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let inst = uniform_kpartite(9, 12, &mut rng);
    let tree = random_tree(9, &mut rng);
    let schedule = tree_edge_coloring(&tree);
    same_everywhere("parallel_bind", |threads, seed| {
        let out = parallel_bind(&inst, &tree, threads, seed);
        (out.matching, out.per_edge, out.rounds_executed)
    });
    same_everywhere("parallel_bind_scheduled", |threads, seed| {
        let out = parallel_bind_scheduled(&inst, &tree, &schedule, threads, seed);
        (out.matching, out.per_edge, out.rounds_executed)
    });
}
