//! E2/E3/E4 — Irving's algorithm: scaling on random instances, the
//! Theorem-1 adversarial family, and fair-SMP overhead vs plain GS.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kmatch_bench::rng;
use kmatch_gs::gale_shapley;
use kmatch_prefs::gen::adversarial::theorem1_roommates;
use kmatch_prefs::gen::uniform::{uniform_bipartite, uniform_roommates};
use kmatch_roommates::{fair_stable_marriage, solve, solve_reference, RoommatesWorkspace};
use std::time::Duration;

fn bench_roommates(c: &mut Criterion) {
    let mut group = c.benchmark_group("roommates");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    for n in [64usize, 256, 1024] {
        let inst = uniform_roommates(n, &mut rng(301));
        group.bench_with_input(BenchmarkId::new("reference", n), &inst, |b, inst| {
            b.iter(|| solve_reference(inst).is_stable())
        });
        group.bench_with_input(BenchmarkId::new("uniform", n), &inst, |b, inst| {
            b.iter(|| solve(inst).is_stable())
        });
        let mut ws = RoommatesWorkspace::new();
        group.bench_with_input(BenchmarkId::new("workspace_reuse", n), &inst, |b, inst| {
            b.iter(|| ws.solve(inst).is_stable())
        });
    }
    for (k, n) in [(3usize, 32usize), (6, 32), (3, 256)] {
        let inst = theorem1_roommates(k, n);
        group.bench_with_input(
            BenchmarkId::new("theorem1", format!("k{k}_n{n}")),
            &inst,
            |b, inst| b.iter(|| solve(inst).is_stable()),
        );
    }
    group.finish();
}

fn bench_roommates_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("roommates_batch");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    let mut r = rng(303);
    let batch: Vec<_> = (0..256).map(|_| uniform_roommates(64, &mut r)).collect();
    let mut ws = RoommatesWorkspace::new();
    let threads = kmatch_parallel::default_threads();
    group.bench_function("serial_reuse_256x64", |b| {
        b.iter(|| {
            batch
                .iter()
                .filter(|inst| ws.solve(*inst).is_stable())
                .count()
        })
    });
    group.bench_function("solve_batch_256x64", |b| {
        b.iter(|| {
            kmatch_parallel::roommates::solve_batch_stealing(&batch, threads, 0)
                .0
                .iter()
                .filter(|o| o.is_stable())
                .count()
        })
    });
    group.finish();
}

fn bench_fair_smp(c: &mut Criterion) {
    let mut group = c.benchmark_group("fair_smp");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    for n in [64usize, 256] {
        let inst = uniform_bipartite(n, &mut rng(302));
        group.bench_with_input(BenchmarkId::new("gs_baseline", n), &inst, |b, inst| {
            b.iter(|| gale_shapley(inst).stats.proposals)
        });
        group.bench_with_input(BenchmarkId::new("fair_roommates", n), &inst, |b, inst| {
            b.iter(|| fair_stable_marriage(inst).stats.proposals)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_roommates, bench_roommates_batch, bench_fair_smp);
criterion_main!(benches);
