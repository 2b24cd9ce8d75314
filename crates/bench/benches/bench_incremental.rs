//! Incremental solving: warm-start re-solve and cache-hit lookups versus
//! a cold solve after a 1-row preference delta.
//!
//! The JSON acceptance numbers live in `bench_incremental_json`
//! (`results/BENCH_incremental.json`); this criterion bench tracks the
//! same three paths for regression spotting.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kmatch_bench::rng;
use kmatch_gs::GsWorkspace;
use kmatch_incremental::IncrementalGs;
use kmatch_prefs::gen::uniform::uniform_bipartite;
use kmatch_prefs::{CsrPrefs, DeltaSide, PrefDelta};
use rand::seq::SliceRandom;
use std::time::Duration;

fn delta_stream(n: usize, count: usize, tag: u64) -> Vec<PrefDelta> {
    let mut r = rng(tag);
    (0..count)
        .map(|i| {
            let mut prefs: Vec<u32> = (0..n as u32).collect();
            prefs.shuffle(&mut r);
            PrefDelta::SetRow {
                side: DeltaSide::Proposer,
                row: (i % n) as u32,
                prefs,
            }
        })
        .collect()
}

fn bench_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    for n in [256usize, 1024] {
        let inst = uniform_bipartite(n, &mut rng(701 + n as u64));
        let id = format!("n{n}");

        // Cold: reload the arena and solve from scratch after each delta.
        let deltas = delta_stream(n, 64, 702);
        let mut shadow = inst.clone();
        let mut ws = GsWorkspace::with_capacity(n);
        let mut csr = CsrPrefs::new();
        let mut next = 0usize;
        group.bench_function(BenchmarkId::new("cold_rebuild", &id), |b| {
            b.iter(|| {
                shadow
                    .apply_delta(&deltas[next % deltas.len()])
                    .expect("valid delta");
                next += 1;
                csr.load(&shadow);
                ws.solve(&csr).stats.proposals
            })
        });

        // Warm: the incremental session patches the arena and solves (the
        // whole-row rewrites are live, so these are its cold-tier solves).
        let warm_deltas = delta_stream(n, 4096, 703);
        let mut session = IncrementalGs::new(inst.clone());
        session.solve();
        let mut next = 0usize;
        group.bench_function(BenchmarkId::new("warm_resolve", &id), |b| {
            b.iter(|| {
                session
                    .apply(&warm_deltas[next % warm_deltas.len()])
                    .expect("valid delta");
                next += 1;
                session.solve().stats.proposals
            })
        });

        // Cached: the state never changes, every solve is a cache hit.
        let mut session = IncrementalGs::new(inst);
        session.solve();
        group.bench_function(BenchmarkId::new("cache_hit", &id), |b| {
            b.iter(|| session.solve().matching)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_incremental);
criterion_main!(benches);
