//! The stealing executor's determinism contract, end to end: one batch
//! solved at threads ∈ {1, 2, 7} under two steal seeds gives the same
//! outcomes and the same schedule-independent `RunReport` fields.

use kmatch_gs::GsOutcome;
use kmatch_obs::{BatchRegistry, RunReport, StdClock};
use kmatch_parallel::solve_batch_stealing_metered;
use kmatch_prefs::gen::uniform::uniform_bipartite;
use kmatch_prefs::BipartiteInstance;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Serialize, Value};

/// Uneven sizes, so that workers run out of their own tasks at
/// different times and steal.
fn batch() -> Vec<BipartiteInstance> {
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    [32usize, 3, 57, 12, 40, 1, 25, 64]
        .iter()
        .cycle()
        .take(64)
        .map(|&n| uniform_bipartite(n, &mut rng))
        .collect()
}

/// Named report fields, in report order.
type Fields = Vec<(String, Value)>;

/// The report fields no schedule may change: everything but the thread
/// count, wall-clock figures, the executor section and the workspace
/// fresh/reuse split (which worker grew its buffers first is schedule
/// telemetry, like the steal count).
fn schedule_independent(report: &RunReport) -> Fields {
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
    fields
}

#[test]
fn outcomes_and_reports_do_not_depend_on_threads_or_steal_seed() {
    let batch = batch();
    let n = batch.iter().map(BipartiteInstance::n).max().unwrap_or(0);
    let mut runs: Vec<(usize, u64, Vec<GsOutcome>, Fields)> = Vec::new();
    for threads in [1usize, 2, 7] {
        for seed in [0u64, 99] {
            let registry = BatchRegistry::new();
            let clock = StdClock::new();
            let (outcomes, executor) =
                solve_batch_stealing_metered(&batch, threads, seed, &registry, &clock);
            assert_eq!(executor.threads, threads);
            let report = RunReport::new("gs", n, batch.len(), 9, threads, 0, registry.take(), None)
                .with_executor(executor.to_section());
            runs.push((threads, seed, outcomes, schedule_independent(&report)));
        }
    }
    let (_, _, outcomes, fields) = &runs[0];
    assert_eq!(outcomes.len(), batch.len());
    assert!(
        fields
            .iter()
            .any(|(k, v)| k == "counters.proposals" && *v != Value::Number(0.0)),
        "the compared fields carry the solver's work: {fields:?}"
    );
    for (threads, seed, other_outcomes, other_fields) in &runs[1..] {
        for (i, (a, b)) in outcomes.iter().zip(other_outcomes).enumerate() {
            assert_eq!(
                a.matching, b.matching,
                "instance {i}, threads {threads}, seed {seed}"
            );
            assert_eq!(
                a.stats, b.stats,
                "instance {i}, threads {threads}, seed {seed}"
            );
        }
        assert_eq!(other_outcomes.len(), outcomes.len());
        assert_eq!(other_fields, fields, "threads {threads}, seed {seed}");
    }
}
