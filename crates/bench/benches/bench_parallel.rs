//! E8/E9 — parallel binding: stealing executor vs sequential Algorithm 1,
//! and schedule shape (even-odd path vs Δ-coloring vs unscheduled).
//!
//! On a single-core host the wall-clock difference is noise; the paper's
//! round/iteration claims are covered by the PRAM model in `experiments`.
//! On multicore hardware this bench exhibits the real speedup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kmatch_bench::rng;
use kmatch_core::bind_with_stats;
use kmatch_graph::{even_odd_path_schedule, tree_edge_coloring, BindingTree};
use kmatch_parallel::{default_threads, parallel_bind, parallel_bind_scheduled};
use kmatch_prefs::gen::uniform::uniform_kpartite;
use std::time::Duration;

fn bench_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    let threads = default_threads();
    for (k, n) in [(8usize, 128usize), (16, 128)] {
        let inst = uniform_kpartite(k, n, &mut rng(401));
        let tree = BindingTree::path(k);
        let even_odd = even_odd_path_schedule(&tree).unwrap();
        let coloring = tree_edge_coloring(&tree);
        let id = format!("k{k}_n{n}");
        group.bench_with_input(BenchmarkId::new("sequential", &id), &inst, |b, inst| {
            b.iter(|| bind_with_stats(inst, &tree).total_proposals())
        });
        group.bench_with_input(BenchmarkId::new("stealing_all", &id), &inst, |b, inst| {
            b.iter(|| parallel_bind(inst, &tree, threads, 0).per_edge.len())
        });
        group.bench_with_input(
            BenchmarkId::new("stealing_even_odd", &id),
            &inst,
            |b, inst| {
                b.iter(|| {
                    parallel_bind_scheduled(inst, &tree, &even_odd, threads, 0).rounds_executed
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("stealing_coloring", &id),
            &inst,
            |b, inst| {
                b.iter(|| {
                    parallel_bind_scheduled(inst, &tree, &coloring, threads, 0).rounds_executed
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
