//! Machine-readable incremental-solving measurements →
//! `results/BENCH_incremental.json`.
//!
//! Replays a stream of 1-row preference deltas through three solvers and
//! records the mean cost per delta of each:
//!
//! - **cold** — what a non-incremental caller pays: reload the CSR arena
//!   from the mutated instance and run a full solve (`cold_rebuild_ns`),
//!   with the solve-only portion broken out (`cold_solve_ns`);
//! - **warm** — `IncrementalGs::apply` + `IncrementalGs::solve`: a
//!   replay of the held execution when the delta is dead for it, else a
//!   cold strip-kernel solve of the patched arena. Every delta here
//!   rewrites a whole proposer row, which reaches the consumed prefix, so
//!   this stream measures the cold tier (plus the O(n) arena patch that
//!   replaces the O(n²) reload);
//! - **cached** — a repeated solve of an unchanged state, served from the
//!   content-addressed cache as a clone of the stored matching.
//!
//! Acceptance (single-core host): warm ≥ 5x over the cold rebuild at
//! n = 2000, cache hits ≥ 50x over it. Run with
//! `cargo run --release --bin bench_incremental_json`.

use std::time::Instant;

use kmatch_bench::harness::write_results;
use kmatch_bench::rng;
use kmatch_gs::GsWorkspace;
use kmatch_incremental::IncrementalGs;
use kmatch_prefs::gen::uniform::uniform_bipartite;
use kmatch_prefs::{CsrPrefs, DeltaSide, PrefDelta};
use rand::seq::SliceRandom;
use serde::impl_json_struct;

/// One instance-size comparison row. All `_ns` figures are means per
/// delta (or per repeat, for `cached_ns`).
#[derive(Debug, Clone)]
struct Row {
    n: usize,
    /// 1-row `SetRow` deltas replayed.
    deltas: usize,
    /// CSR reload + full solve of the mutated instance.
    cold_rebuild_ns: f64,
    /// Full solve alone, arena already loaded.
    cold_solve_ns: f64,
    /// `IncrementalGs` delta apply + warm re-solve.
    warm_ns: f64,
    /// Cache-hit solve of an unchanged state.
    cached_ns: f64,
    /// `cold_rebuild_ns / warm_ns` — acceptance ≥ 5 at n = 2000.
    warm_speedup: f64,
    /// `cold_rebuild_ns / cached_ns` — acceptance ≥ 50 at n = 2000.
    cached_speedup: f64,
    /// Proposals the warm re-solves executed, total.
    warm_proposals: u64,
    /// Proposals the cold re-solves executed, total.
    cold_proposals: u64,
}

impl_json_struct!(Row {
    n,
    deltas,
    cold_rebuild_ns,
    cold_solve_ns,
    warm_ns,
    cached_ns,
    warm_speedup,
    cached_speedup,
    warm_proposals,
    cold_proposals
});

#[derive(Debug, Clone)]
struct Report {
    rows: Vec<Row>,
}

impl_json_struct!(Report { rows });

fn row(n: usize, deltas: usize) -> Row {
    let mut r = rng(601 + n as u64);
    let inst = uniform_bipartite(n, &mut r);

    // Distinct random row rewrites so every warm solve is a true cache
    // miss (a repeated state would be served from the cache instead).
    let stream: Vec<PrefDelta> = (0..deltas)
        .map(|i| {
            let mut prefs: Vec<u32> = (0..n as u32).collect();
            prefs.shuffle(&mut r);
            PrefDelta::SetRow {
                side: DeltaSide::Proposer,
                row: (i % n) as u32,
                prefs,
            }
        })
        .collect();

    // Prime both solvers: steady state on both sides, nothing allocates
    // inside the timed region.
    let mut shadow = inst.clone();
    let mut ws = GsWorkspace::with_capacity(n);
    let mut csr = CsrPrefs::new();
    csr.load(&shadow);
    ws.solve(&csr);
    let mut session = IncrementalGs::new(inst);
    session.solve();

    let (mut rebuild_ns, mut solve_ns, mut warm_ns) = (0u64, 0u64, 0u64);
    let (mut warm_proposals, mut cold_proposals) = (0u64, 0u64);
    for delta in &stream {
        shadow.apply_delta(delta).expect("generated delta is valid");
        let t0 = Instant::now();
        csr.load(&shadow);
        let t1 = Instant::now();
        let cold = ws.solve(&csr);
        let t2 = Instant::now();
        rebuild_ns += (t2 - t0).as_nanos() as u64;
        solve_ns += (t2 - t1).as_nanos() as u64;
        cold_proposals += cold.stats.proposals;

        session.apply(delta).expect("generated delta is valid");
        let t3 = Instant::now();
        let warm = session.solve();
        warm_ns += t3.elapsed().as_nanos() as u64;
        warm_proposals += warm.stats.proposals;
        assert_eq!(
            warm.matching, cold.matching,
            "warm re-solve diverged from cold at n = {n}"
        );
    }

    // Cache hits: the state is unchanged, so every further solve is a
    // fingerprint lookup plus a matching clone.
    let cached_reps = deltas.max(100);
    let t = Instant::now();
    for _ in 0..cached_reps {
        session.solve();
    }
    let cached_ns = t.elapsed().as_nanos() as f64 / cached_reps as f64;

    let cold_rebuild_ns = rebuild_ns as f64 / deltas as f64;
    let cold_solve_ns = solve_ns as f64 / deltas as f64;
    let warm_mean = warm_ns as f64 / deltas as f64;
    Row {
        n,
        deltas,
        cold_rebuild_ns,
        cold_solve_ns,
        warm_ns: warm_mean,
        cached_ns,
        warm_speedup: cold_rebuild_ns / warm_mean,
        cached_speedup: cold_rebuild_ns / cached_ns,
        warm_proposals,
        cold_proposals,
    }
}

fn main() {
    let rows: Vec<Row> = [(256usize, 256), (1024, 128), (2000, 64)]
        .into_iter()
        .map(|(n, deltas)| row(n, deltas))
        .collect();

    for row in &rows {
        println!(
            "n = {:>5}: cold {:>10.0} ns (solve {:>10.0} ns)  warm {:>9.0} ns ({:.1}x)  \
             cached {:>7.0} ns ({:.1}x)  proposals {} warm / {} cold",
            row.n,
            row.cold_rebuild_ns,
            row.cold_solve_ns,
            row.warm_ns,
            row.warm_speedup,
            row.cached_ns,
            row.cached_speedup,
            row.warm_proposals,
            row.cold_proposals,
        );
    }

    write_results("BENCH_incremental.json", &Report { rows });
}
