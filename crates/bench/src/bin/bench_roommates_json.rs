//! Machine-readable Irving hot-path measurements →
//! `results/BENCH_roommates.json` plus a structured run report →
//! `results/REPORT_roommates.json`.
//!
//! Records the acceptance numbers of the zero-alloc Irving engine work —
//! fast-path speedup over `solve_reference` on random roommates instances
//! at n ∈ {256, 1024, 2000} (fresh-workspace and workspace-reuse
//! variants), `kmatch_parallel::roommates::solve_batch_stealing` throughput on
//! 1000 instances relative to a serial workspace-reuse loop, and the
//! `SolverMetrics` overhead of the metered batch path on an n = 2000
//! batch (acceptance target < 5%). The `schedule` section tallies the
//! escalation schedule itself — which attempt and cut decide — over
//! many seeds, so `bench_diff` pins it exactly. Run with
//! `cargo run --release --bin bench_roommates_json`.

use kmatch_bench::harness::{measure_blocks, roommates_batch, write_results, OverheadRow};
use kmatch_bench::rng;
use kmatch_obs::{peak_rss_bytes, BatchRegistry, RunReport, SolverMetrics, StdClock};
use kmatch_parallel::roommates::solve_batch_stealing;
use kmatch_parallel::{default_threads, solve_batch_with, steal_seed};
use kmatch_prefs::gen::uniform::uniform_roommates;
use kmatch_prefs::{CachedRoommatesOracle, RoommatesInstance};
use kmatch_roommates::solve_reference;
use kmatch_roommates::{solve_escalating, solve_escalating_metered, CertKind, RoommatesWorkspace};
use kmatch_trace::FlightRecorder;
use serde::impl_json_struct;

/// Seed shared by every n of the lazy scaling series.
const SCALING_SEED: u64 = 0x0A11_CE55;

/// One lazy-oracle n-scaling row: the escalating truncated driver over a
/// [`CachedRoommatesOracle`] — preferences computed on demand, each
/// attempt certified against the full instance, so both time and memory
/// stay O(n·K) with K the deciding cutoff (≈ c·√n on random instances).
#[derive(Debug, Clone)]
struct ScalingRow {
    n: usize,
    solvable: bool,
    proposals: u64,
    rotations: u32,
    /// Truncated attempts the driver ran before a certificate held.
    escalation_attempts: u32,
    /// List cutoff of the deciding attempt.
    final_cut: u32,
    /// Which certificate settled the verdict
    /// (`stable` / `partition` / `full_width`).
    cert: String,
    /// Odd parties in the certified partition (unsolvable rows).
    odd_parties: u32,
    /// End-to-end escalating solve, including certificate verification.
    solve_ns: f64,
    /// Workspace scratch + cached oracle state, by capacity
    /// (steady-state footprint, grows to the high-water mark and stays).
    arena_bytes: u64,
    /// Process peak RSS right after the row (monotone across the series —
    /// the series runs first and ascending so the per-row attribution is
    /// honest).
    peak_rss_bytes: u64,
}

impl_json_struct!(ScalingRow {
    n,
    solvable,
    proposals,
    rotations,
    escalation_attempts,
    final_cut,
    cert,
    odd_parties,
    solve_ns,
    arena_bytes,
    peak_rss_bytes,
});

/// Seeds per n in the `schedule` tally.
const SCHEDULE_SEEDS: u64 = 200;

/// How many of a `schedule` row's instances decided the same way.
#[derive(Debug, Clone)]
struct ScheduleCount {
    /// Truncated attempts run, the deciding one included.
    attempts: u32,
    /// List cutoff of the deciding attempt.
    final_cut: u32,
    /// The certificate that decided (as in [`ScalingRow::cert`]).
    cert: String,
    /// Instances that decided this way.
    instances: u32,
}

impl_json_struct!(ScheduleCount {
    attempts,
    final_cut,
    cert,
    instances,
});

/// The default escalation schedule over `seeds` lazy instances
/// (`CachedRoommatesOracle::new(n, seed)`, seeds `0..seeds`) at one n:
/// a tally of deciding attempt, cut and certificate, in ascending
/// `(attempts, final_cut, cert)` order. Every field is an exact counter.
#[derive(Debug, Clone)]
struct ScheduleRow {
    n: usize,
    seeds: u64,
    tally: Vec<ScheduleCount>,
}

impl_json_struct!(ScheduleRow { n, seeds, tally });

fn cert_name(cert: CertKind) -> String {
    match cert {
        CertKind::Stable => "stable".into(),
        CertKind::Partition => "partition".into(),
        CertKind::FullWidth => "full_width".into(),
    }
}

/// One single-instance comparison row.
#[derive(Debug, Clone)]
struct SingleRow {
    n: usize,
    solvable: bool,
    proposals: u64,
    rotations: u32,
    reference_ns: f64,
    /// Fast path with a fresh workspace per solve.
    fastpath_fresh_ns: f64,
    /// Fast path through one reused workspace (zero steady-state allocs).
    fastpath_reuse_ns: f64,
    /// `reference_ns / fastpath_fresh_ns`.
    speedup_fresh: f64,
    /// `reference_ns / fastpath_reuse_ns`.
    speedup_reuse: f64,
}

impl_json_struct!(SingleRow {
    n,
    solvable,
    proposals,
    rotations,
    reference_ns,
    fastpath_fresh_ns,
    fastpath_reuse_ns,
    speedup_fresh,
    speedup_reuse,
});

/// The batch-throughput comparison.
#[derive(Debug, Clone)]
struct BatchRow {
    instances: usize,
    n: usize,
    threads: usize,
    solvable: usize,
    serial_ns: f64,
    solve_batch_ns: f64,
    /// `serial_ns / solve_batch_ns` — expected ≈ `threads` for balanced
    /// batches on a multicore host, ≈ 1 on a single core.
    speedup: f64,
    /// Speedup per thread.
    efficiency: f64,
}

impl_json_struct!(BatchRow {
    instances,
    n,
    threads,
    solvable,
    serial_ns,
    solve_batch_ns,
    speedup,
    efficiency,
});

#[derive(Debug, Clone)]
struct Report {
    threads: usize,
    scaling: Vec<ScalingRow>,
    schedule: Vec<ScheduleRow>,
    single: Vec<SingleRow>,
    batch: BatchRow,
    metrics_overhead: OverheadRow,
    /// `metered_ns` here is the *traced* batch (per-chunk flight
    /// recorders armed): the cost of leaving the black box on.
    trace_overhead: OverheadRow,
}

impl_json_struct!(Report {
    threads,
    scaling,
    schedule,
    single,
    batch,
    metrics_overhead,
    trace_overhead
});

/// The lazy n-scaling series, ascending n so `peak_rss_bytes` attributes
/// to the row that grew it — and run before every other section of this
/// binary, so no materialized-instance workload inflates the watermark
/// first. Each row is the full escalating driver (attempts, certificate
/// verification and all); best-of-`reps` end-to-end timing, counters
/// from the last run (they are deterministic under the fixed seed).
fn scaling_series(registry: &BatchRegistry) -> Vec<ScalingRow> {
    [(1_000usize, 3), (10_000, 3), (100_000, 1), (1_000_000, 1)]
        .into_iter()
        .map(|(n, reps)| {
            let oracle = CachedRoommatesOracle::new(n, SCALING_SEED);
            let mut ws = RoommatesWorkspace::new();
            let mut shard = SolverMetrics::new();
            let mut solve_ns = f64::INFINITY;
            let mut last = None;
            for _ in 0..reps {
                let t0 = std::time::Instant::now();
                let solved = solve_escalating_metered(&oracle, &mut ws, &mut shard);
                solve_ns = solve_ns.min(t0.elapsed().as_nanos() as f64);
                last = Some(solved);
            }
            registry.absorb(shard);
            let (out, report) = last.expect("reps >= 1");
            let stats = out.stats();
            ScalingRow {
                n,
                solvable: out.is_stable(),
                proposals: stats.proposals,
                rotations: stats.rotations,
                escalation_attempts: report.attempts,
                final_cut: report.final_cut,
                cert: cert_name(report.cert),
                odd_parties: report.odd_parties,
                solve_ns,
                arena_bytes: (ws.resident_bytes() + oracle.resident_bytes()) as u64,
                peak_rss_bytes: peak_rss_bytes().unwrap_or(0),
            }
        })
        .collect()
}

/// Tally how the default schedule decides at each n.
fn schedule_tally() -> Vec<ScheduleRow> {
    [500usize, 1000, 2000]
        .into_iter()
        .map(|n| {
            let mut ws = RoommatesWorkspace::new();
            let mut tally = std::collections::BTreeMap::new();
            for seed in 0..SCHEDULE_SEEDS {
                let oracle = CachedRoommatesOracle::new(n, seed);
                let (_, report) = solve_escalating(&oracle, &mut ws);
                let key = (report.attempts, report.final_cut, cert_name(report.cert));
                *tally.entry(key).or_insert(0u32) += 1;
            }
            ScheduleRow {
                n,
                seeds: SCHEDULE_SEEDS,
                tally: tally
                    .into_iter()
                    .map(|((attempts, final_cut, cert), instances)| ScheduleCount {
                        attempts,
                        final_cut,
                        cert,
                        instances,
                    })
                    .collect(),
            }
        })
        .collect()
}

fn single_row(n: usize, reps: usize) -> SingleRow {
    let inst = uniform_roommates(n, &mut rng(401));
    let baseline = solve_reference(&inst);
    let stats = baseline.stats();
    let mut ws = RoommatesWorkspace::with_capacity(n, inst.total_entries());
    let [reference_ns, fastpath_fresh_ns, fastpath_reuse_ns] = measure_blocks(
        4,
        reps,
        [
            &mut || solve_reference(&inst).stats().proposals,
            &mut || RoommatesWorkspace::new().solve(&inst).stats().proposals,
            &mut || ws.solve(&inst).stats().proposals,
        ],
    );
    SingleRow {
        n,
        solvable: baseline.is_stable(),
        proposals: stats.proposals,
        rotations: stats.rotations,
        reference_ns,
        fastpath_fresh_ns,
        fastpath_reuse_ns,
        speedup_fresh: reference_ns / fastpath_fresh_ns,
        speedup_reuse: reference_ns / fastpath_reuse_ns,
    }
}

fn batch_row() -> BatchRow {
    let (instances, n, reps) = (1000usize, 64usize, 25);
    let batch = roommates_batch(instances, n, 402);
    let solvable = solve_batch_stealing(&batch, default_threads(), steal_seed())
        .0
        .iter()
        .filter(|o| o.is_stable())
        .count();
    let mut ws = RoommatesWorkspace::new();
    let [serial_ns, solve_batch_ns] = measure_blocks(
        4,
        reps,
        [
            &mut || {
                batch
                    .iter()
                    .map(|inst| ws.solve(inst).stats().proposals)
                    .sum()
            },
            &mut || plain_proposals(&batch),
        ],
    );
    let threads = default_threads();
    let speedup = serial_ns / solve_batch_ns;
    BatchRow {
        instances,
        n,
        threads,
        solvable,
        serial_ns,
        solve_batch_ns,
        speedup,
        efficiency: speedup / threads as f64,
    }
}

/// Total proposals of one unobserved batch.
fn plain_proposals(batch: &[RoommatesInstance]) -> u64 {
    let (outs, _) = solve_batch_stealing(batch, default_threads(), steal_seed());
    outs.iter().map(|o| o.stats().proposals).sum()
}

/// Total proposals of one metered batch, absorbed into `registry`.
fn metered_proposals(
    batch: &[RoommatesInstance],
    registry: &BatchRegistry,
    clock: &StdClock,
) -> u64 {
    let threads = default_threads();
    let (outs, _, _) = solve_batch_with(batch, threads, steal_seed(), registry, clock, |_| {
        RoommatesWorkspace::new()
    });
    outs.iter().map(|o| o.stats().proposals).sum()
}

/// Measure the metered batch against `solve_batch_stealing` on an n = 2000
/// batch, and emit the run's merged metrics as a RunReport. The registry
/// arrives pre-loaded with the scaling series' shards, so the report
/// carries the escalation counters (attempts, certificates, cut
/// histogram) alongside the batch meters.
fn overhead_row(registry: &BatchRegistry) -> (OverheadRow, RunReport) {
    let (instances, n, reps) = (32usize, 2000usize, 4);
    let batch = roommates_batch(instances, n, 403);
    let clock = StdClock::new();
    let [plain_ns, metered_ns] = measure_blocks(
        3,
        reps,
        [&mut || plain_proposals(&batch), &mut || {
            metered_proposals(&batch, registry, &clock)
        }],
    );
    let merged = registry.take();
    let report = RunReport::new(
        "roommates",
        n,
        instances,
        0x5EED_0000 + 403,
        default_threads(),
        metered_ns as u64,
        merged,
        None,
    );
    (OverheadRow::new(instances, n, plain_ns, metered_ns), report)
}

/// Measure the traced batch path (per-chunk flight recorders, phase-level
/// spans, `StdClock` timestamps) against the metered one on the same
/// n = 2000 batch. The traced batch is the metered path with a ring
/// carried by each worker, so this isolates exactly what arming the
/// flight recorder costs — the acceptance target is < 5%.
fn trace_overhead_row() -> OverheadRow {
    let (instances, n, reps) = (32usize, 2000usize, 4);
    let batch = roommates_batch(instances, n, 404);
    let registry = BatchRegistry::new();
    let clock = StdClock::new();
    let [plain_ns, traced_ns] = measure_blocks(
        3,
        reps,
        [
            &mut || metered_proposals(&batch, &registry, &clock),
            &mut || {
                let recorder = || FlightRecorder::new(&clock, 1 << 12);
                let (outs, _, _) = solve_batch_with(
                    &batch,
                    default_threads(),
                    steal_seed(),
                    &registry,
                    &clock,
                    |_| (RoommatesWorkspace::new(), recorder()),
                );
                outs.iter().map(|o| o.stats().proposals).sum()
            },
        ],
    );
    OverheadRow::new(instances, n, plain_ns, traced_ns)
}

fn main() {
    // Same shared-VM caveats as bench_gs_json; see measure_blocks. The
    // scaling series must run first: peak RSS is monotone, so any earlier
    // materialized workload would be charged to every scaling row.
    let registry = BatchRegistry::new();
    let scaling = scaling_series(&registry);
    let schedule = schedule_tally();
    let single: Vec<SingleRow> = [(256usize, 400), (1024, 80), (2000, 40)]
        .into_iter()
        .map(|(n, reps)| single_row(n, reps))
        .collect();
    let (metrics_overhead, run_report) = overhead_row(&registry);
    let trace_overhead = trace_overhead_row();
    let run_report = trace_overhead.attach_to("trace_overhead", run_report);
    let report = Report {
        threads: default_threads(),
        scaling,
        schedule,
        single,
        batch: batch_row(),
        metrics_overhead,
        trace_overhead,
    };

    for row in &report.scaling {
        println!(
            "scaling n = {:>7}: {:>13.0} ns  {:>8} proposals  {:>5} rotations  \
             solvable {:>5}  cut {:>6} ({}, {} attempts)  arena {:>9} B  rss {:>11} B",
            row.n,
            row.solve_ns,
            row.proposals,
            row.rotations,
            row.solvable,
            row.final_cut,
            row.cert,
            row.escalation_attempts,
            row.arena_bytes,
            row.peak_rss_bytes,
        );
    }
    for row in &report.schedule {
        for c in &row.tally {
            println!(
                "schedule n = {:>5}: {:>3}/{} decide on attempt {} at cut {} ({})",
                row.n, c.instances, row.seeds, c.attempts, c.final_cut, c.cert,
            );
        }
    }
    for row in &report.single {
        println!(
            "n = {:>5}: reference {:>12.0} ns  fresh {:>12.0} ns  reuse {:>12.0} ns  \
             speedup {:.2}x / {:.2}x (reuse)",
            row.n,
            row.reference_ns,
            row.fastpath_fresh_ns,
            row.fastpath_reuse_ns,
            row.speedup_fresh,
            row.speedup_reuse,
        );
    }
    let b = &report.batch;
    println!(
        "batch {} x n={}: serial {:>10.0} ns  solve_batch {:>10.0} ns  \
         speedup {:.2}x on {} thread(s), {} solvable",
        b.instances, b.n, b.serial_ns, b.solve_batch_ns, b.speedup, b.threads, b.solvable,
    );
    let o = &report.metrics_overhead;
    println!(
        "metrics overhead {} x n={}: plain {:>10.0} ns  metered {:>10.0} ns  ({:+.2}%)",
        o.instances, o.n, o.plain_ns, o.metered_ns, o.overhead_pct,
    );
    let t = &report.trace_overhead;
    println!(
        "trace overhead   {} x n={}: plain {:>10.0} ns  traced  {:>10.0} ns  ({:+.2}%)",
        t.instances, t.n, t.plain_ns, t.metered_ns, t.overhead_pct,
    );

    write_results("BENCH_roommates.json", &report);
    write_results("REPORT_roommates.json", &run_report);
}
