//! E1b — hot-path throughput: the zero-allocation workspace fast path
//! against the reference engine, the CSR preference arena, and the
//! parallel batch front-end.
//!
//! Three comparisons, all on the same deterministic workloads:
//!
//! * `reference` vs `fastpath` — the monomorphized untraced engine with a
//!   reused [`GsWorkspace`] against the original runtime-checked loop.
//! * `fastpath_csr` — the same fast path reading a [`CsrPrefs`] snapshot,
//!   whose fused proposal-entry rows make every proposal one sequential
//!   load (the headline configuration; see `results/BENCH_gs.json`).
//! * `batch_serial` vs `solve_batch_stealing` — 1000 instances solved
//!   through one workspace serially, then fanned across the stealing
//!   executor.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use kmatch_bench::rng;
use kmatch_gs::{gale_shapley_reference, GsWorkspace};
use kmatch_parallel::{default_threads, solve_batch_stealing};
use kmatch_prefs::gen::uniform::uniform_bipartite;
use kmatch_prefs::{BipartiteInstance, CsrPrefs};
use std::time::Duration;

fn bench_fastpath(c: &mut Criterion) {
    let mut group = c.benchmark_group("gs_throughput");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    for n in [256usize, 1024, 2000] {
        let inst = uniform_bipartite(n, &mut rng(201));
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("reference", n), &inst, |b, inst| {
            b.iter(|| gale_shapley_reference(inst).stats.proposals)
        });
        group.bench_with_input(BenchmarkId::new("fastpath", n), &inst, |b, inst| {
            let mut ws = GsWorkspace::with_capacity(n);
            b.iter(|| ws.solve(inst).stats.proposals)
        });
        group.bench_with_input(BenchmarkId::new("fastpath_csr", n), &inst, |b, inst| {
            let mut ws = GsWorkspace::with_capacity(n);
            let csr = CsrPrefs::from_prefs(inst);
            b.iter(|| ws.solve(&csr).stats.proposals)
        });
    }
    group.finish();
}

fn bench_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("gs_batch");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    let mut r = rng(202);
    let batch: Vec<BipartiteInstance> = (0..1000).map(|_| uniform_bipartite(64, &mut r)).collect();
    group.throughput(Throughput::Elements(batch.len() as u64));
    group.bench_function("batch_serial_1000x64", |b| {
        let mut ws = GsWorkspace::with_capacity(64);
        b.iter(|| {
            batch
                .iter()
                .map(|inst| ws.solve(inst).stats.proposals)
                .sum::<u64>()
        })
    });
    group.bench_function("solve_batch_1000x64", |b| {
        b.iter(|| solve_batch_stealing(&batch, default_threads(), 0).0.len())
    });
    group.finish();
}

criterion_group!(benches, bench_fastpath, bench_batch);
criterion_main!(benches);
