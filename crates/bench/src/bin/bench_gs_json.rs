//! Machine-readable GS hot-path measurements → `results/BENCH_gs.json`
//! plus a structured run report → `results/REPORT_gs.json`.
//!
//! Records five things:
//!
//! 1. **n-scaling series over the lazy oracle backends** — the
//!    [`RandomOracle`] Feistel backend from 10³ to 10⁶ agents (no O(n²)
//!    tables anywhere) and the [`ScoreOracle`] popularity backend up to
//!    10⁴ (identical lists ⇒ Θ(n²) proposals, so it stops early), each
//!    row carrying `proposals / (n·ln n)` (Mertens' constant-ish check),
//!    a deterministic `arena_bytes` accounting of workspace + backend
//!    state, and the process `peak_rss_bytes` high-water mark. The lazy
//!    rows run **first and in ascending n**: `VmHWM` is monotone over the
//!    process lifetime, so this ordering is what makes the 10⁶ row's RSS
//!    reading an honest bound on the lazy solve. CSR anchors at 10³/10⁴
//!    re-solve the same seeds through [`CsrPrefs::from_oracle`] and
//!    assert the matchings agree.
//! 2. The single-instance comparison of the reference engine against the
//!    CSR fast path (the only materialized hot path — the slower
//!    rank-table layout was retired from the bench).
//! 3. A placement sweep: cold n = 2000 solves through workspaces created
//!    after 0–96 KiB of heap padding, reporting the fastest and slowest —
//!    the allocator's choice of addresses must not move the solve time.
//! 4. `solve_batch_stealing` throughput on 1000 instances vs a serial loop.
//! 5. `SolverMetrics` / flight-recorder / operator-plane / forensic-
//!    profiler overhead on an n = 2000 batch (acceptance target < 5%
//!    each).
//!
//! Run with `cargo run --release --bin bench_gs_json`.

use kmatch_bench::harness::{bipartite_batch, measure_blocks, write_results, OverheadRow};
use kmatch_bench::rng;
use kmatch_forensics::{start_sampler, ProbeSet, SharedProfile};
use kmatch_gs::{gale_shapley_reference, GsWorkspace};
use kmatch_obs::{peak_rss_bytes, BatchRegistry, RunReport, StdClock};
use kmatch_ops::{Level, OpsConfig, OpsState};
use kmatch_parallel::{
    default_threads, solve_batch_stealing, solve_batch_stealing_metered, solve_batch_with,
    steal_seed,
};
use kmatch_prefs::gen::uniform::uniform_bipartite;
use kmatch_prefs::{BipartiteInstance, CsrPrefs, PrefOracle, RandomOracle, ScoreOracle};
use kmatch_trace::FlightRecorder;
use serde::impl_json_struct;

/// Shared seed of the scaling series, so the CSR anchors rebuild exactly
/// the instances the lazy rows solved.
const SCALING_SEED: u64 = 0x5CA1_AB1E;

/// One n-scaling measurement.
#[derive(Debug, Clone)]
struct ScalingRow {
    backend: String,
    n: usize,
    proposals: u64,
    /// `proposals / (n · ln n)` — ≈ 1 on uniform instances by Mertens'
    /// theorem, Θ(n / ln n) for the shared-list scores backend.
    proposals_per_nlogn: f64,
    solve_ns: f64,
    /// Deterministic bytes held by the solve: workspace scratch plus the
    /// backend's own state (O(1) random, O(n) scores, O(n²) csr).
    arena_bytes: u64,
    /// `VmHWM` after this row — monotone across rows, 0 off-Linux.
    peak_rss_bytes: u64,
}

impl_json_struct!(ScalingRow {
    backend,
    n,
    proposals,
    proposals_per_nlogn,
    solve_ns,
    arena_bytes,
    peak_rss_bytes,
});

/// One single-instance comparison row: reference engine vs the CSR-arena
/// fast path.
#[derive(Debug, Clone)]
struct SingleRow {
    n: usize,
    proposals: u64,
    reference_ns: f64,
    fastpath_csr_ns: f64,
    /// `reference_ns / fastpath_csr_ns`.
    speedup_csr: f64,
}

impl_json_struct!(SingleRow {
    n,
    proposals,
    reference_ns,
    fastpath_csr_ns,
    speedup_csr,
});

/// One solve time of the placement sweep.
#[derive(Debug, Clone)]
struct PadRow {
    /// Heap padding allocated before the workspace, in KiB.
    pad_kb: u64,
    solve_ns: f64,
}

impl_json_struct!(PadRow { pad_kb, solve_ns });

/// Cold solves of one n = 2000 instance through fresh workspaces, each
/// created after a different amount of heap padding, so the allocator
/// hands the workspace different addresses: the solve time must not
/// depend on where the buffers land.
#[derive(Debug, Clone)]
struct PlacementRow {
    n: usize,
    proposals: u64,
    pads: Vec<PadRow>,
    /// Fastest and slowest block-minimum solve across the paddings.
    min_ns: f64,
    max_ns: f64,
}

impl_json_struct!(PlacementRow {
    n,
    proposals,
    pads,
    min_ns,
    max_ns
});

/// The batch-throughput comparison.
#[derive(Debug, Clone)]
struct BatchRow {
    instances: usize,
    n: usize,
    threads: usize,
    /// Which dispatch the batch took (from the executor's
    /// [`kmatch_parallel::StealReport`]): `"serial"` on a one-thread
    /// pool (no executor machinery at all), else `"stealing"`.
    path: String,
    /// Tasks the stealing executor split the batch into (1 on the
    /// serial path).
    task_count: u64,
    /// Successful steals across workers for the measured schedule —
    /// host-shape footprint, ignored by the regression gate.
    steal_count: u64,
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
    path,
    task_count,
    steal_count,
    serial_ns,
    solve_batch_ns,
    speedup,
    efficiency,
});

#[derive(Debug, Clone)]
struct Report {
    threads: usize,
    scaling: Vec<ScalingRow>,
    single: Vec<SingleRow>,
    placement: PlacementRow,
    batch: BatchRow,
    metrics_overhead: OverheadRow,
    /// `metered_ns` here is the *traced* batch (per-chunk flight
    /// recorders armed): the cost of leaving the black box on.
    trace_overhead: OverheadRow,
    /// `metered_ns` here is the metered batch plus a full operator-plane
    /// maintenance cycle per wave (window tick, watchdog sample, log
    /// record): the cost of an armed `--ops-listen` plane.
    ops_overhead: OverheadRow,
    /// `plain_ns` here is the *traced* batch and `metered_ns` the probed
    /// batch (one live lane per worker: progress and span stack) with the wall-clock
    /// sampler thread live: the incremental cost of the always-on
    /// forensic profiler over the already-traced path.
    profiler_overhead: OverheadRow,
}

impl_json_struct!(Report {
    threads,
    scaling,
    single,
    placement,
    batch,
    metrics_overhead,
    trace_overhead,
    ops_overhead,
    profiler_overhead
});

/// Solve `prefs` through a fresh workspace, verify the matching is a
/// permutation, and measure the block-minimum solve time.
fn scaling_row<P: PrefOracle>(
    backend: &str,
    prefs: &P,
    backend_bytes: usize,
    passes: usize,
    reps: usize,
) -> ScalingRow {
    let n = prefs.n();
    let mut ws = GsWorkspace::with_capacity(n);
    let out = ws.solve(prefs);
    let mut seen = vec![false; n];
    for m in 0..n as u32 {
        let w = out.matching.partner_of_proposer(m) as usize;
        assert!(!seen[w], "{backend} n = {n}: matching is not a permutation");
        seen[w] = true;
    }
    drop(seen);
    let [solve_ns] = measure_blocks(passes, reps, [&mut || ws.solve(prefs).stats.proposals]);
    ScalingRow {
        backend: backend.to_string(),
        n,
        proposals: out.stats.proposals,
        proposals_per_nlogn: out.stats.proposals as f64 / (n as f64 * (n as f64).ln()),
        solve_ns,
        arena_bytes: (ws.resident_bytes() + backend_bytes) as u64,
        peak_rss_bytes: peak_rss_bytes().unwrap_or(0),
    }
}

/// The full scaling series. Lazy rows first, ascending n (see the module
/// docs for why the order is load-bearing); CSR anchors last.
fn scaling_series() -> Vec<ScalingRow> {
    let mut rows = Vec::new();
    for (n, passes, reps) in [
        (1_000usize, 3, 8),
        (10_000, 3, 3),
        (100_000, 2, 1),
        (1_000_000, 2, 1),
    ] {
        let oracle = RandomOracle::new(n, SCALING_SEED);
        rows.push(scaling_row(
            "random",
            &oracle,
            size_of::<RandomOracle>(),
            passes,
            reps,
        ));
    }
    for (n, passes, reps) in [(1_000usize, 3, 5), (10_000, 2, 1)] {
        let oracle = ScoreOracle::seeded(n, SCALING_SEED);
        let backend_bytes = oracle.resident_bytes();
        rows.push(scaling_row("scores", &oracle, backend_bytes, passes, reps));
    }
    // Differential anchors: the same seeds materialized through the CSR
    // arena must produce the same matching as the lazy rows above.
    for (n, passes, reps) in [(1_000usize, 3, 8), (10_000, 2, 1)] {
        let oracle = RandomOracle::new(n, SCALING_SEED);
        let lazy = GsWorkspace::with_capacity(n).solve(&oracle);
        let csr = CsrPrefs::from_oracle(&oracle);
        let dense = GsWorkspace::with_capacity(n).solve(&csr);
        assert_eq!(
            lazy.matching, dense.matching,
            "CSR anchor diverged from the lazy backend at n = {n}"
        );
        assert_eq!(lazy.stats, dense.stats);
        rows.push(scaling_row("csr", &csr, csr.resident_bytes(), passes, reps));
    }
    rows
}

fn single_row(n: usize, reps: usize) -> SingleRow {
    let inst = uniform_bipartite(n, &mut rng(301));
    let proposals = gale_shapley_reference(&inst).stats.proposals;
    let mut ws_csr = GsWorkspace::with_capacity(n);
    let csr = CsrPrefs::from_prefs(&inst);
    let [reference_ns, fastpath_csr_ns] = measure_blocks(
        4,
        reps,
        [
            &mut || gale_shapley_reference(&inst).stats.proposals,
            &mut || ws_csr.solve(&csr).stats.proposals,
        ],
    );
    SingleRow {
        n,
        proposals,
        reference_ns,
        fastpath_csr_ns,
        speedup_csr: reference_ns / fastpath_csr_ns,
    }
}

fn placement_row() -> PlacementRow {
    let n = 2000;
    let csr = CsrPrefs::from_prefs(&uniform_bipartite(n, &mut rng(303)));
    let mut proposals = 0;
    let pads: Vec<PadRow> = [0u64, 1, 4, 8, 16, 32, 64, 96]
        .into_iter()
        .map(|pad_kb| {
            let pad = std::hint::black_box(vec![1u8; pad_kb as usize * 1024]);
            let mut ws = GsWorkspace::new();
            proposals = ws.solve(&csr).stats.proposals;
            let [solve_ns] = measure_blocks(3, 40, [&mut || ws.solve(&csr).stats.proposals]);
            drop(pad);
            PadRow { pad_kb, solve_ns }
        })
        .collect();
    let times = pads.iter().map(|p| p.solve_ns);
    PlacementRow {
        n,
        proposals,
        min_ns: times.clone().fold(f64::INFINITY, f64::min),
        max_ns: times.fold(0.0, f64::max),
        pads,
    }
}

fn batch_row() -> BatchRow {
    let (instances, n, reps) = (1000usize, 64usize, 25);
    let batch = bipartite_batch(instances, n, 302);
    let mut ws = GsWorkspace::with_capacity(n);
    let [serial_ns, solve_batch_ns] = measure_blocks(
        4,
        reps,
        [
            &mut || {
                batch
                    .iter()
                    .map(|inst| ws.solve(inst).stats.proposals)
                    .sum()
            },
            &mut || plain_proposals(&batch),
        ],
    );
    let threads = default_threads();
    // One un-timed pass for the schedule footprint of the measured
    // configuration.
    let (_, steal_report) = solve_batch_stealing(&batch, threads, steal_seed());
    let speedup = serial_ns / solve_batch_ns;
    BatchRow {
        instances,
        n,
        threads,
        path: steal_report.path.to_string(),
        task_count: steal_report.task_count as u64,
        steal_count: steal_report.steal_count,
        serial_ns,
        solve_batch_ns,
        speedup,
        efficiency: speedup / threads as f64,
    }
}

/// Measure `solve_batch_stealing_metered` against `solve_batch_stealing` on an n = 2000
/// batch, and emit the metered run's merged metrics as a RunReport.
fn overhead_row() -> (OverheadRow, RunReport) {
    let (instances, n, reps) = (32usize, 2000usize, 4);
    let batch = bipartite_batch(instances, n, 303);
    let registry = BatchRegistry::new();
    let clock = StdClock::new();
    let [plain_ns, metered_ns] = measure_blocks(
        3,
        reps,
        [&mut || plain_proposals(&batch), &mut || {
            metered_proposals(&batch, &registry, &clock)
        }],
    );
    // The registry accumulated every metered rep; report the merged view.
    let merged = registry.take();
    let report = RunReport::new(
        "gs",
        n,
        instances,
        0x5EED_0000 + 303,
        default_threads(),
        metered_ns as u64,
        merged,
        None,
    );
    (OverheadRow::new(instances, n, plain_ns, metered_ns), report)
}

/// Total proposals of one unobserved batch.
fn plain_proposals(batch: &[BipartiteInstance]) -> u64 {
    let (outs, _) = solve_batch_stealing(batch, default_threads(), steal_seed());
    outs.iter().map(|o| o.stats.proposals).sum()
}

/// Total proposals of one metered batch, absorbed into `registry`.
fn metered_proposals(
    batch: &[BipartiteInstance],
    registry: &BatchRegistry,
    clock: &StdClock,
) -> u64 {
    let threads = default_threads();
    let (outs, _) = solve_batch_stealing_metered(batch, threads, steal_seed(), registry, clock);
    outs.iter().map(|o| o.stats.proposals).sum()
}

/// Total proposals of one traced batch: every worker carries a
/// 4096-event flight recorder beside its metrics shard.
fn traced_proposals(
    batch: &[BipartiteInstance],
    registry: &BatchRegistry,
    clock: &StdClock,
) -> u64 {
    let threads = default_threads();
    let (outs, _, _) = solve_batch_with(batch, threads, steal_seed(), registry, clock, |_| {
        (GsWorkspace::new(), FlightRecorder::new(clock, 1 << 12))
    });
    outs.iter().map(|o| o.stats.proposals).sum()
}

/// Measure the traced batch path (per-chunk flight recorders, phase-level
/// spans, `StdClock` timestamps) against the metered one on the same
/// n = 2000 batch. The traced batch is the metered path with a ring
/// carried by each worker, so this isolates exactly what arming the
/// flight recorder costs — the acceptance target is < 5%.
fn trace_overhead_row() -> OverheadRow {
    let (instances, n, reps) = (32usize, 2000usize, 4);
    let batch = bipartite_batch(instances, n, 304);
    let registry = BatchRegistry::new();
    let clock = StdClock::new();
    let [plain_ns, traced_ns] = measure_blocks(
        3,
        reps,
        [
            &mut || metered_proposals(&batch, &registry, &clock),
            &mut || traced_proposals(&batch, &registry, &clock),
        ],
    );
    OverheadRow::new(instances, n, plain_ns, traced_ns)
}

/// Measure the metered batch with a live operator plane attached — after
/// every wave the serve loop's per-wave maintenance runs: a rolling-window
/// tick (registry snapshot + delta bookkeeping), a watchdog heartbeat
/// sample, and a structured log record. The HTTP server itself is idle
/// scrape-side work and not part of the solve path, so it is deliberately
/// excluded; this row prices exactly what `--ops-listen` adds to every
/// wave. Trace-ring ingestion is already priced by `trace_overhead`.
/// Acceptance target: < 5%.
fn ops_overhead_row() -> OverheadRow {
    let (instances, n, reps) = (32usize, 2000usize, 4);
    let batch = bipartite_batch(instances, n, 305);
    let registry = BatchRegistry::new();
    let clock = StdClock::new();
    let state = OpsState::new(std::sync::Arc::new(StdClock::new()), OpsConfig::default());
    let mut wave = 0u64;
    let [plain_ns, armed_ns] = measure_blocks(
        3,
        reps,
        [
            &mut || metered_proposals(&batch, &registry, &clock),
            &mut || {
                let total = metered_proposals(&batch, state.registry(), &clock);
                wave += 1;
                state.note_wave(n as u64);
                state.tick(&[wave]);
                state.log(
                    Level::Info,
                    "gs",
                    "wave complete",
                    vec![("wave".to_string(), wave.to_string())],
                );
                total
            },
        ],
    );
    OverheadRow::new(instances, n, plain_ns, armed_ns)
}

/// Measure the forensic profiler against the traced batch on the same
/// n = 2000 shape. Both sides arm per-chunk flight recorders;
/// the probed workers additionally keep their lock-free lane current
/// (progress publishes and the open-span stack), while a live
/// sampler thread folds lane snapshots into the shared profile at
/// ~1 kHz — an upper bound on any rate `--sample-hz` would use. The
/// delta prices exactly what "always-on profiler" adds to an already
/// observable batch. Acceptance target: < 5%.
fn profiler_overhead_row() -> OverheadRow {
    let (instances, n, reps) = (32usize, 2000usize, 4);
    let batch = bipartite_batch(instances, n, 306);
    let registry = BatchRegistry::new();
    let clock = StdClock::new();
    let lanes = default_threads();
    let probes = std::sync::Arc::new(ProbeSet::new(lanes));
    let profile = std::sync::Arc::new(SharedProfile::new());
    let sampler = start_sampler(
        std::sync::Arc::clone(&probes),
        std::sync::Arc::clone(&profile),
        std::sync::Arc::new(StdClock::new()),
        std::time::Duration::from_micros(1_000),
    );
    let [traced_ns, probed_ns] = measure_blocks(
        3,
        reps,
        [
            &mut || traced_proposals(&batch, &registry, &clock),
            &mut || {
                let (outs, _, _) =
                    solve_batch_with(&batch, lanes, steal_seed(), &registry, &clock, |w| {
                        let recorder = FlightRecorder::new(&clock, 1 << 12);
                        ((GsWorkspace::new(), probes.observer(w)), recorder)
                    });
                outs.iter().map(|o| o.stats.proposals).sum()
            },
        ],
    );
    sampler.stop();
    // The sampler genuinely ran against live lanes — a profiler row
    // that silently measured an idle sampler would gate nothing.
    assert!(
        profile.samples() > 0,
        "sampler took no samples during the probed batch"
    );
    OverheadRow::new(instances, n, traced_ns, probed_ns)
}

fn main() {
    // The host is a shared VM whose effective speed drifts by integer
    // factors over seconds; see `measure_blocks` for how the comparison
    // defends against both drift and cross-variant cache pollution.
    //
    // Scaling first: the lazy rows' peak-RSS readings are only honest
    // before anything below materializes O(n²) state.
    let scaling = scaling_series();
    let single: Vec<SingleRow> = [(256usize, 1000), (1024, 250), (2000, 150)]
        .into_iter()
        .map(|(n, reps)| single_row(n, reps))
        .collect();
    let (metrics_overhead, run_report) = overhead_row();
    let trace_overhead = trace_overhead_row();
    let ops_overhead = ops_overhead_row();
    let profiler_overhead = profiler_overhead_row();
    let run_report = trace_overhead.attach_to("trace_overhead", run_report);
    let run_report = ops_overhead.attach_to("ops_overhead", run_report);
    let run_report = profiler_overhead.attach_to("profiler_overhead", run_report);
    let report = Report {
        threads: default_threads(),
        scaling,
        single,
        placement: placement_row(),
        batch: batch_row(),
        metrics_overhead,
        trace_overhead,
        ops_overhead,
        profiler_overhead,
    };

    for row in &report.scaling {
        println!(
            "scaling {:>6} n = {:>7}: {:>12.0} ns  {:>11} proposals  \
             ({:.3} per n·ln n)  arena {:>12} B  rss {:>12} B",
            row.backend,
            row.n,
            row.solve_ns,
            row.proposals,
            row.proposals_per_nlogn,
            row.arena_bytes,
            row.peak_rss_bytes,
        );
    }
    for row in &report.single {
        println!(
            "n = {:>5}: reference {:>10.0} ns  csr {:>10.0} ns  speedup {:.2}x",
            row.n, row.reference_ns, row.fastpath_csr_ns, row.speedup_csr,
        );
    }
    let pl = &report.placement;
    println!(
        "placement n = {}: cold solve {:.0}..{:.0} ns over {} heap paddings (max/min {:.2})",
        pl.n,
        pl.min_ns,
        pl.max_ns,
        pl.pads.len(),
        pl.max_ns / pl.min_ns,
    );
    let b = &report.batch;
    println!(
        "batch {} x n={}: serial {:>10.0} ns  solve_batch {:>10.0} ns  \
         speedup {:.2}x on {} thread(s) via the {} path ({} tasks, {} steals)",
        b.instances,
        b.n,
        b.serial_ns,
        b.solve_batch_ns,
        b.speedup,
        b.threads,
        b.path,
        b.task_count,
        b.steal_count,
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
    let p = &report.ops_overhead;
    println!(
        "ops overhead     {} x n={}: plain {:>10.0} ns  armed   {:>10.0} ns  ({:+.2}%)",
        p.instances, p.n, p.plain_ns, p.metered_ns, p.overhead_pct,
    );
    let f = &report.profiler_overhead;
    println!(
        "profiler overhead {} x n={}: traced {:>9.0} ns  probed  {:>10.0} ns  ({:+.2}%)",
        f.instances, f.n, f.plain_ns, f.metered_ns, f.overhead_pct,
    );

    write_results("BENCH_gs.json", &report);
    write_results("REPORT_gs.json", &run_report);
}
