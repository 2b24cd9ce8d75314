//! Machine-readable incremental-solving measurements →
//! `results/BENCH_incremental.json`.
//!
//! Two kinds of rows.
//!
//! `rows` replays a stream of whole-row proposer `SetRow` deltas through
//! three solvers and records the mean cost per delta of each:
//!
//! - **cold** — what a non-incremental caller pays: reload the CSR arena
//!   from the mutated instance and run a full solve (`cold_rebuild_ns`),
//!   with the solve-only portion broken out (`cold_solve_ns`);
//! - **warm** — `IncrementalGs::apply` + `IncrementalGs::solve`. A
//!   random whole-row rewrite reaches the prefix the held execution
//!   consumed, so every delta of this stream is live and solves cold: it
//!   measures the cold tier plus the arena patch that replaces the O(n²)
//!   reload;
//! - **cached** — a repeated solve of an unchanged state, served from the
//!   content-addressed cache as a clone of the stored matching.
//!
//! `mixed` drives one n = 2000 session with the delta mix of the
//! `smp_updates` benchmark workload: both sides, adjacent swaps, splices
//! and `SetRow`s, with every fifth delta reverting the one before it. The
//! reverts hit the cache and many small edits are dead, so this row
//! measures all three tiers: how many solves each served, their mean
//! solve time, and the mean `IncrementalGs::apply` time per delta.
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
use kmatch_obs::SolverMetrics;
use kmatch_prefs::{BipartiteInstance, CsrPrefs, DeltaSide, PrefDelta};
use rand::seq::SliceRandom;
use rand::Rng;
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

/// The three tiers of one session under a mixed delta stream.
#[derive(Debug, Clone)]
struct MixedRow {
    n: usize,
    deltas: usize,
    /// Solves served from the cache, replayed, and solved cold.
    cached_solves: u64,
    replayed_solves: u64,
    cold_solves: u64,
    /// Mean `IncrementalGs::apply` time per delta.
    apply_ns: f64,
    /// Mean solve time per tier (0 when a tier served no solve).
    cached_solve_ns: f64,
    replay_solve_ns: f64,
    cold_solve_ns: f64,
}

impl_json_struct!(MixedRow {
    n,
    deltas,
    cached_solves,
    replayed_solves,
    cold_solves,
    apply_ns,
    cached_solve_ns,
    replay_solve_ns,
    cold_solve_ns
});

#[derive(Debug, Clone)]
struct Report {
    rows: Vec<Row>,
    mixed: Vec<MixedRow>,
}

impl_json_struct!(Report { rows, mixed });

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

/// Every `REVERT_EVERY`-th delta of the mixed stream reverts the one
/// before it.
const REVERT_EVERY: usize = 5;

fn row_of(inst: &BipartiteInstance, side: DeltaSide, row: u32) -> Vec<u32> {
    match side {
        DeltaSide::Proposer => inst.proposer_list(row).to_vec(),
        DeltaSide::Responder => inst.responder_list(row).to_vec(),
    }
}

/// One ordinary delta of the mixed stream: an adjacent swap, a splice or
/// a whole-row rewrite of a random row on a random side.
fn mixed_delta(n: usize, r: &mut impl Rng) -> PrefDelta {
    let side = if r.gen_bool(0.5) {
        DeltaSide::Proposer
    } else {
        DeltaSide::Responder
    };
    let row = r.gen_range(0..n as u32);
    match r.gen_range(0..3u32) {
        0 => {
            let a = r.gen_range(0..n as u32 - 1);
            PrefDelta::Swap {
                side,
                row,
                a,
                b: a + 1,
            }
        }
        1 => {
            let from = r.gen_range(0..n as u32);
            let to = (from + r.gen_range(1..n as u32)) % n as u32;
            PrefDelta::Splice {
                side,
                row,
                from,
                to,
            }
        }
        _ => {
            let mut prefs: Vec<u32> = (0..n as u32).collect();
            prefs.shuffle(r);
            PrefDelta::SetRow { side, row, prefs }
        }
    }
}

fn mixed_row(n: usize, deltas: usize) -> MixedRow {
    let mut r = rng(701 + n as u64);
    let mut shadow = uniform_bipartite(n, &mut r);
    let mut session = IncrementalGs::new(shadow.clone());
    let mut metrics = SolverMetrics::new();
    session.solve_metered(&mut metrics);
    let mut ws = GsWorkspace::with_capacity(n);
    let mut csr = CsrPrefs::new();

    let mut apply_ns = 0u64;
    // Per tier (cached, replayed, cold): solves and total solve time.
    let mut tiers = [(0u64, 0u64); 3];
    let mut undo = None;
    for i in 0..deltas {
        let delta = if i % REVERT_EVERY == REVERT_EVERY - 1 {
            let (side, row, prefs) = undo.take().expect("a revert follows an ordinary delta");
            PrefDelta::SetRow { side, row, prefs }
        } else {
            let d = mixed_delta(n, &mut r);
            undo = Some((d.side(), d.row(), row_of(&shadow, d.side(), d.row())));
            d
        };
        shadow.apply_delta(&delta).expect("generated delta is valid");
        let t0 = Instant::now();
        session.apply(&delta).expect("generated delta is valid");
        let t1 = Instant::now();
        let seen = (metrics.cache_hits, metrics.warm_solves);
        let warm = session.solve_metered(&mut metrics);
        let solve_ns = t1.elapsed().as_nanos() as u64;
        apply_ns += (t1 - t0).as_nanos() as u64;
        let tier = if metrics.cache_hits > seen.0 {
            0
        } else if metrics.warm_solves > seen.1 {
            1
        } else {
            2
        };
        tiers[tier].0 += 1;
        tiers[tier].1 += solve_ns;
        csr.load(&shadow);
        assert_eq!(
            warm.matching,
            ws.solve(&csr).matching,
            "session diverged from cold at delta {i}"
        );
    }
    let mean = |(count, ns): (u64, u64)| if count == 0 { 0.0 } else { ns as f64 / count as f64 };
    MixedRow {
        n,
        deltas,
        cached_solves: tiers[0].0,
        replayed_solves: tiers[1].0,
        cold_solves: tiers[2].0,
        apply_ns: apply_ns as f64 / deltas as f64,
        cached_solve_ns: mean(tiers[0]),
        replay_solve_ns: mean(tiers[1]),
        cold_solve_ns: mean(tiers[2]),
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

    let mixed = vec![mixed_row(2000, 200)];
    for row in &mixed {
        println!(
            "mixed n = {}: {} deltas, apply {:.0} ns; cached {} x {:.0} ns, \
             replayed {} x {:.0} ns, cold {} x {:.0} ns",
            row.n,
            row.deltas,
            row.apply_ns,
            row.cached_solves,
            row.cached_solve_ns,
            row.replayed_solves,
            row.replay_solve_ns,
            row.cold_solves,
            row.cold_solve_ns,
        );
    }

    write_results("BENCH_incremental.json", &Report { rows, mixed });
}
