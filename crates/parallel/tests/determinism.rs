//! The stealing executor's determinism contract, end to end: every
//! front-end of this crate, run at threads ∈ {1, 2, 7} under steal seeds
//! {0, 99}, gives the same outcomes — and, where it fills a registry, the
//! same schedule-independent `RunReport` fields.

use std::fmt::Debug;

use kmatch_forensics::{ProbeSet, RegisterSet};
use kmatch_graph::prufer::random_tree;
use kmatch_graph::schedule::tree_edge_coloring;
use kmatch_gs::{BipartiteMatching, GsOutcome, GsStats};
use kmatch_incremental::SolveCache;
use kmatch_obs::{BatchRegistry, RunReport, StdClock};
use kmatch_parallel::{
    parallel_bind, parallel_bind_scheduled, roommates, solve_batch_cached, solve_batch_probed,
    solve_batch_stealing, solve_batch_stealing_metered, solve_batch_traced,
};
use kmatch_prefs::gen::uniform::{uniform_bipartite, uniform_kpartite, uniform_roommates};
use kmatch_prefs::{BipartiteInstance, RoommatesInstance};
use kmatch_roommates::{RoommatesMatching, RoommatesOutcome, SolveStats};
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

#[test]
fn gs_front_ends_do_not_depend_on_threads_or_steal_seed() {
    let batch = gs_batch();
    let (n, len) = (64, batch.len());
    let clock = StdClock::new();
    same_everywhere("stealing", |threads, seed| {
        let (outs, report) = solve_batch_stealing(&batch, threads, seed);
        assert_eq!(report.threads, threads);
        gs(&outs)
    });
    same_everywhere("metered", |threads, seed| {
        let registry = BatchRegistry::new();
        let (outs, _) = solve_batch_stealing_metered(&batch, threads, seed, &registry, &clock);
        (gs(&outs), schedule_independent("gs", n, len, &registry))
    });
    same_everywhere("traced", |threads, seed| {
        let registry = BatchRegistry::new();
        let (outs, traces, report) =
            solve_batch_traced(&batch, threads, seed, &registry, &clock, 1 << 12);
        assert_eq!(traces.len(), report.lanes.len());
        (gs(&outs), schedule_independent("gs", n, len, &registry))
    });
    same_everywhere("probed", |threads, seed| {
        let registry = BatchRegistry::new();
        let (probes, registers) = (ProbeSet::new(threads), RegisterSet::new(threads));
        let (outs, _, _) = solve_batch_probed(
            &batch,
            threads,
            seed,
            &registry,
            &clock,
            &probes,
            &registers,
            1 << 12,
        );
        (gs(&outs), schedule_independent("gs", n, len, &registry))
    });
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
fn roommates_front_ends_do_not_depend_on_threads_or_steal_seed() {
    let batch = roommates_batch();
    let (n, len) = (64, batch.len());
    let clock = StdClock::new();
    same_everywhere("roommates stealing", |threads, seed| {
        rm(&roommates::solve_batch_stealing(&batch, threads, seed).0)
    });
    same_everywhere("roommates metered", |threads, seed| {
        let registry = BatchRegistry::new();
        let (outs, _) =
            roommates::solve_batch_stealing_metered(&batch, threads, seed, &registry, &clock);
        (
            rm(&outs),
            schedule_independent("roommates", n, len, &registry),
        )
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
