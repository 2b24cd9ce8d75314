//! Verifier ablation (DESIGN.md): dense rank-table lookups vs list-scan
//! preference comparisons in the blocking-pair search. The k-ary
//! blocking-family check is timed by `bench_ingest_json`'s `kary_check`
//! row, which `bench_diff` gates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kmatch_bench::rng;
use kmatch_gs::{find_blocking_pair, gale_shapley};
use kmatch_prefs::gen::uniform::uniform_bipartite;
use kmatch_prefs::{BipartitePrefs, Rank};
use std::time::Duration;

/// Scan-based adapter: proposer/responder rank by linear list scan,
/// the representation a naive implementation would use.
struct ScanPrefs<'a>(&'a kmatch_prefs::BipartiteInstance);

impl BipartitePrefs for ScanPrefs<'_> {
    fn n(&self) -> usize {
        self.0.n()
    }
    fn proposer_list(&self, m: u32) -> &[u32] {
        self.0.proposer_list(m)
    }
    fn responder_rank(&self, w: u32, m: u32) -> Rank {
        self.0
            .responder_list(w)
            .iter()
            .position(|&x| x == m)
            .unwrap() as Rank
    }
    fn proposer_rank(&self, m: u32, w: u32) -> Rank {
        self.0
            .proposer_list(m)
            .iter()
            .position(|&x| x == w)
            .unwrap() as Rank
    }
}

fn bench_bipartite_verify(c: &mut Criterion) {
    let mut group = c.benchmark_group("bipartite_verify");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    for n in [128usize, 512] {
        let inst = uniform_bipartite(n, &mut rng(601));
        let matching = gale_shapley(&inst).matching;
        group.bench_with_input(BenchmarkId::new("rank_table", n), &(), |b, _| {
            b.iter(|| find_blocking_pair(&inst, &matching).is_none())
        });
        let scan = ScanPrefs(&inst);
        group.bench_with_input(BenchmarkId::new("list_scan", n), &(), |b, _| {
            b.iter(|| find_blocking_pair(&scan, &matching).is_none())
        });
    }
    group.finish();
}

fn bench_lattice_and_blossom(c: &mut Criterion) {
    let mut group = c.benchmark_group("lattice_blossom");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    // Full stable-lattice enumeration via rotations.
    for n in [16usize, 64] {
        let inst = uniform_bipartite(n, &mut rng(603));
        group.bench_with_input(BenchmarkId::new("lattice_enumeration", n), &(), |b, _| {
            b.iter(|| {
                kmatch_gs::rotations::enumerate_stable_lattice(&inst, 1_000_000)
                    .unwrap()
                    .matchings
                    .len()
            })
        });
    }
    // Blossom perfect-matching decision on Theorem-1 acceptability graphs.
    for (k, n) in [(4usize, 16usize), (6, 32)] {
        let rm = kmatch_prefs::gen::adversarial::theorem1_roommates(k, n);
        let g = kmatch_core::theorems::acceptability_graph(&rm);
        group.bench_with_input(
            BenchmarkId::new("blossom_perfect", format!("k{k}_n{n}")),
            &(),
            |b, _| b.iter(|| kmatch_graph::matching::has_perfect_matching(&g)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_bipartite_verify, bench_lattice_and_blossom);
criterion_main!(benches);
