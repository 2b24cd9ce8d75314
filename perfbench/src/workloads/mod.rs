//! The four workloads and how a run of each turns into metrics.

pub mod gs_batch;
pub mod ingest;
pub mod roommates;
pub mod smp;

use std::collections::{BTreeMap, HashMap};
use std::process::Command;
use std::time::Duration;

use kmatch_parallel::StealReport;
use rand::Rng;

use crate::hooks;
use crate::runner::{median, median_setup, run_pass, tail, Pass, Until, Workload};
use crate::tracer::{ns_to_s, Layer, Tracer};

/// One executor call inside a `batch_span` span (parallel layer), with a
/// `gs_span` child sized as the workers' busy time over the thread count:
/// the GS work runs on executor threads the benchmark cannot wrap.
pub fn traced_executor<T>(
    tr: &mut Tracer,
    batch_span: &'static str,
    gs_span: &'static str,
    call: impl FnOnce() -> (T, StealReport),
) -> (T, StealReport) {
    let id = tr.begin(batch_span, Layer::Parallel, 0);
    let (out, report) = call();
    tr.end();
    let busy: u64 = report.lanes.iter().map(|l| l.busy_ns).sum();
    tr.derived_child(id, gs_span, Layer::Gs, busy / report.threads as u64);
    (out, report)
}

pub const NAMES: [&str; 4] = [
    "roommates_escalating",
    "gs_batch",
    "ingest_json",
    "smp_updates",
];

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Repetitions of the nanosecond-scale set-ups (each itself a block).
const SMALL_SETUP_REPS: usize = 9;
/// Fresh processes a nanosecond-scale set-up is timed in.
const SETUP_PROCESSES: usize = 8;

/// `rows` uniform random permutations of `0..n` (benchmark-side input
/// generation).
pub fn random_lists(rows: usize, n: usize, rng: &mut impl Rng) -> Vec<Vec<u32>> {
    (0..rows)
        .map(|_| {
            let mut p: Vec<u32> = (0..n as u32).collect();
            for i in (1..n).rev() {
                p.swap(i, rng.gen_range(0..i + 1));
            }
            p
        })
        .collect()
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// Everything one run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable detail printed before the metrics.
    pub lines: Vec<String>,
}

/// End-to-end metrics of the untraced run: name and unit. `throughput`
/// counts the workload's work units (instances, documents or deltas).
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: name and unit. Every traced run
/// prints all of them; a layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("prefs.parse_s", "s"),
    ("prefs.build_s", "s"),
    ("prefs.parse_mb_per_s", "MB/s"),
    ("prefs.bytes_in", "bytes"),
    ("prefs.csr_build_s", "s"),
    ("prefs.oracle_probes", "count"),
    ("prefs.delta_apply_s", "s"),
    ("prefs.self_s", "s"),
    ("gs.solve_s.n256", "s"),
    ("gs.solve_s.n2000", "s"),
    ("gs.solve_s.lazy", "s"),
    ("gs.proposals", "count"),
    ("gs.rounds", "count"),
    ("gs.proposals_per_nlogn", "ratio"),
    ("gs.self_s", "s"),
    ("roommates.wasted_attempt_s", "s"),
    ("roommates.deciding_attempt_s", "s"),
    ("roommates.verify_s", "s"),
    ("roommates.useful_attempt_ratio", "ratio"),
    ("roommates.attempts", "count"),
    ("roommates.final_cut", "count"),
    ("roommates.proposals", "count"),
    ("roommates.arena_bytes", "bytes"),
    ("roommates.partition_cert_ratio", "ratio"),
    ("roommates.self_s", "s"),
    ("core.bind_s", "s"),
    ("core.check_s", "s"),
    ("core.bind_proposals", "count"),
    ("core.theorem3_ratio", "ratio"),
    ("core.self_s", "s"),
    ("parallel.batch_s", "s"),
    ("parallel.busy_s", "s"),
    ("parallel.idle_s", "s"),
    ("parallel.efficiency", "ratio"),
    ("parallel.tasks", "count"),
    ("parallel.steals", "count"),
    ("parallel.straggler_ratio", "ratio"),
    ("parallel.self_s", "s"),
    ("incremental.resolve_s", "s"),
    ("incremental.cache_hit_ratio", "ratio"),
    ("incremental.warm_ratio", "ratio"),
    ("incremental.warm_fallbacks", "count"),
    ("incremental.warm_proposal_ratio", "ratio"),
    ("incremental.self_s", "s"),
    ("obs.output_write_s", "s"),
    ("obs.output_bytes", "bytes"),
    ("obs.self_s", "s"),
    ("unattributed_s", "s"),
    ("trace_overhead_pct", "%"),
];

/// This process's nanosecond-scale set-up time: the median of
/// `SMALL_SETUP_REPS` blocks.
pub fn setup_probe(name: &str) -> Result<f64, String> {
    match name {
        "roommates_escalating" => Ok(median_setup(SMALL_SETUP_REPS, roommates::Roommates::setup).0),
        "ingest_json" => Ok(median_setup(SMALL_SETUP_REPS, ingest::Ingest::setup).0),
        other => Err(format!("`{other}` has no nanosecond-scale set-up")),
    }
}

/// A nanosecond-scale set-up's speed depends on the process it runs in
/// (between processes it moves by up to 2x, within one it holds), so it is
/// timed in `SETUP_PROCESSES` fresh processes and reported as their mean.
fn setup_in_processes(name: &str) -> Result<(f64, Vec<f64>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let samples = (0..SETUP_PROCESSES)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--workload", name, "--setup-probe", "1"])
                .output()
                .map_err(|e| format!("set-up probe: {e}"))?;
            if !out.status.success() {
                return Err(format!("set-up probe exited with {}", out.status));
            }
            let text = String::from_utf8_lossy(&out.stdout);
            text.trim()
                .parse::<f64>()
                .map_err(|e| format!("set-up probe printed `{}`: {e}", text.trim()))
        })
        .collect::<Result<Vec<f64>, String>>()?;
    Ok((samples.iter().sum::<f64>() / samples.len() as f64, samples))
}

/// Run one workload in this process.
pub fn run(
    name: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: &str,
) -> Result<Outcome, String> {
    let budget = Duration::from_secs(seconds);
    match name {
        "roommates_escalating" => {
            let mut w = roommates::Roommates::new(seed);
            if trace {
                return Ok(traced(&mut w, name, seed, out_dir, |w, tr, pass, m| {
                    let c = |k: &str| pass.counters.get(k).copied().unwrap_or(0) as f64;
                    let n = roommates::INSTANCES as f64;
                    m.insert("prefs.oracle_probes", w.probes as f64);
                    m.insert("roommates.attempts", c("roommates.attempts"));
                    m.insert("roommates.final_cut", c("roommates.final_cut") / n);
                    m.insert("roommates.proposals", c("roommates.proposals"));
                    m.insert("roommates.arena_bytes", w.arena_bytes as f64);
                    let attempts = tr
                        .spans()
                        .iter()
                        .filter(|s| {
                            s.name.starts_with(hooks::ATTEMPT) || s.name == hooks::FULLWIDTH
                        })
                        .count() as f64;
                    m.insert("roommates.useful_attempt_ratio", n / attempts.max(1.0));
                    m.insert(
                        "roommates.partition_cert_ratio",
                        c("roommates.partition_certs") / n,
                    );
                }));
            }
            let setup = setup_in_processes(name)?;
            Ok(untraced(&mut w, name, seed, budget, setup, out_dir))
        }
        "gs_batch" => {
            let mut samples = Vec::new();
            let mut built = None;
            for _ in 0..SETUP_REPS {
                drop(built.take()); // one build in memory at a time
                let (w, s) = gs_batch::GsBatch::build(seed);
                samples.push(s);
                built = Some(w);
            }
            let mut w = built.expect("at least one set-up");
            let setup = (median(&samples), samples);
            if trace {
                w.count_probes();
                return Ok(traced(&mut w, name, seed, out_dir, |w, _tr, pass, m| {
                    let c = |k: &str| pass.counters.get(k).copied().unwrap_or(0) as f64;
                    m.insert("prefs.oracle_probes", w.probes() as f64);
                    let rounds = gs_batch::FIXED_ROUNDS as f64;
                    m.insert(
                        "gs.proposals_per_nlogn",
                        c("gs.proposals") / (rounds * gs_batch::GsBatch::nlogn_per_round()),
                    );
                    executor_metrics(&w.reports, m);
                    let serial: Vec<f64> = (0..2).map(|_| w.serial_round_s()).collect();
                    let batch_s = m["parallel.batch_s"] / rounds;
                    m.insert(
                        "parallel.efficiency",
                        median(&serial) / (gs_batch::THREADS as f64 * batch_s),
                    );
                }));
            }
            Ok(untraced(&mut w, name, seed, budget, setup, out_dir))
        }
        "ingest_json" => {
            let mut w = ingest::Ingest::new(seed);
            if trace {
                return Ok(traced(&mut w, name, seed, out_dir, |w, _tr, pass, m| {
                    let c = |k: &str| pass.counters.get(k).copied().unwrap_or(0) as f64;
                    let bytes: u64 = (0..ingest::DOCS).map(|i| w.doc_bytes(i)).sum();
                    m.insert("prefs.bytes_in", bytes as f64);
                    m.insert(
                        "prefs.parse_mb_per_s",
                        bytes as f64 / 1e6 / m["prefs.parse_s"].max(1e-12),
                    );
                    let docs = (ingest::DOCS / 2) as f64;
                    let n = ingest::BIPARTITE_N as f64;
                    let nlogn = docs * ingest::BIPARTITE_COUNT as f64 * n * n.ln();
                    m.insert("gs.proposals_per_nlogn", c("gs.proposals") / nlogn);
                    let kn = ingest::KARY_N as f64;
                    let bound = docs * (ingest::K as f64 - 1.0) * kn * kn;
                    m.insert("core.theorem3_ratio", c("core.bind_proposals") / bound);
                    m.insert("obs.output_bytes", w.output_bytes as f64);
                    executor_metrics(&w.reports, m);
                    m.insert("parallel.efficiency", 0.0);
                }));
            }
            let setup = setup_in_processes(name)?;
            Ok(untraced(&mut w, name, seed, budget, setup, out_dir))
        }
        "smp_updates" => {
            let (mut w, first) = smp::Smp::new(seed);
            let mut samples = vec![first];
            for _ in 1..SETUP_REPS {
                samples.push(w.reopen());
            }
            let setup = (median(&samples), samples);
            if trace {
                let csr: Vec<f64> = (0..SETUP_REPS).map(|_| w.csr_build_s()).collect();
                return Ok(traced(&mut w, name, seed, out_dir, |w, _tr, pass, m| {
                    let c = |k: &str| pass.counters.get(k).copied().unwrap_or(0) as f64;
                    m.insert("prefs.csr_build_s", median(&csr));
                    let (ops, hits) = (smp::FIXED_DELTAS as f64, c("incremental.cache_hits"));
                    m.insert("incremental.cache_hit_ratio", hits / ops);
                    let misses = (ops - hits).max(1.0);
                    m.insert(
                        "incremental.warm_ratio",
                        c("incremental.warm_resolves") / misses,
                    );
                    m.insert(
                        "incremental.warm_fallbacks",
                        c("incremental.warm_fallbacks"),
                    );
                    m.insert(
                        "incremental.warm_proposal_ratio",
                        w.warm_proposals as f64 / (w.cold_proposals as f64).max(1.0),
                    );
                }));
            }
            Ok(untraced(&mut w, name, seed, budget, setup, out_dir))
        }
        other => Err(format!(
            "unknown workload `{other}` (expected one of {NAMES:?})"
        )),
    }
}

/// `parallel.*` figures from the executor's reports of the traced ops.
fn executor_metrics(reports: &[StealReport], m: &mut BTreeMap<&'static str, f64>) {
    let lanes = || reports.iter().flat_map(|r| r.lanes.iter());
    m.insert("parallel.busy_s", ns_to_s(lanes().map(|l| l.busy_ns).sum()));
    m.insert(
        "parallel.idle_s",
        ns_to_s(lanes().map(|l| l.wall_ns.saturating_sub(l.busy_ns)).sum()),
    );
    m.insert(
        "parallel.steals",
        reports.iter().map(|r| r.steal_count as f64).sum(),
    );
    let ratios: Vec<f64> = reports.iter().map(StealReport::straggler_ratio).collect();
    m.insert(
        "parallel.straggler_ratio",
        ratios.iter().sum::<f64>() / ratios.len().max(1) as f64,
    );
}

fn peak_rss_mb() -> f64 {
    kmatch_obs::peak_rss_bytes().unwrap_or(0) as f64 / 1e6
}

fn pass_lines<W: Workload>(w: &W, pass: &Pass, label: &str) -> Vec<String> {
    let mut lines = vec![format!(
        "{label}: {} ops attempted, {} failed, error_rate = {:.6} (failed / attempted)",
        pass.ledger.attempted,
        pass.ledger.failed,
        pass.ledger.error_rate()
    )];
    lines.extend(pass.errors.iter().map(|e| format!("  error: {e}")));
    let counters: Vec<String> = pass
        .counters
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    lines.push(format!(
        "{label}: fingerprint of the fixed set (first {} ops): outputs {:016x}, {}",
        w.fixed_ops(),
        pass.digest,
        counters.join(" ")
    ));
    lines
}

/// Record the fixed-set fingerprint for this workload and seed, or compare
/// it with the one recorded by an earlier run of the same sources: runs of
/// one commit and seed must do exactly the same work with exactly the same
/// outputs.
fn fingerprint_matches(name: &str, seed: u64, pass: &Pass, out_dir: &str) -> Result<(), String> {
    let counters: Vec<String> = pass
        .counters
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    let record = format!("{:016x} {}", pass.digest, counters.join(" "));
    let source = crate::source_digest();
    let path = format!("{out_dir}/fingerprint-{name}-{seed}.txt");
    if let Ok(prev) = std::fs::read_to_string(&path) {
        if let Some((prev_source, prev_record)) = prev.trim_end().split_once(' ') {
            if prev_source == source && prev_record != record {
                return Err(format!(
                    "work fingerprint differs from an earlier run of these sources: \
                     was `{prev_record}`, now `{record}`"
                ));
            }
        }
    }
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {out_dir}: {e}"))?;
    std::fs::write(&path, format!("{source} {record}\n"))
        .map_err(|e| format!("writing {path}: {e}"))
}

fn untraced<W: Workload>(
    w: &mut W,
    name: &str,
    seed: u64,
    budget: Duration,
    setup: (f64, Vec<f64>),
    out_dir: &str,
) -> Outcome {
    let mut memo = HashMap::new();
    let mut pass = run_pass(w, Until::Budget(budget), None, &mut memo);
    let mut lines = pass_lines(w, &pass, "untraced");
    if let Err(e) = fingerprint_matches(name, seed, &pass, out_dir) {
        pass.ledger.failed += 1;
        lines.push(format!("  error: {e}"));
    }
    let (tail_s, pct) = tail(&pass.op_s);
    lines.push(format!(
        "setup_s from {} set-ups: {:?} s",
        setup.1.len(),
        setup.1
    ));
    lines.push(format!(
        "op_tail_ms is percentile {pct:.1} of {} ops; op_p50_ms is their median",
        pass.op_s.len()
    ));
    lines.push(format!("throughput counts {} per second", W::UNIT));
    let values = [
        pass.throughput(),
        median(&pass.op_s) * 1e3,
        tail_s * 1e3,
        setup.0,
        peak_rss_mb(),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| metric(name, v, unit))
        .collect();
    Outcome {
        attempted: pass.ledger.attempted,
        failed: pass.ledger.failed,
        metrics,
        lines,
    }
}

fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
    }
}

/// The traced run: the fixed set untraced, traced, and untraced again
/// (same inputs, fresh state each time), then the per-layer ledger from
/// the spans.
/// `extra` fills the workload's counts and ratios.
fn traced<W: Workload>(
    w: &mut W,
    name: &str,
    seed: u64,
    out_dir: &str,
    extra: impl FnOnce(&W, &Tracer, &Pass, &mut BTreeMap<&'static str, f64>),
) -> Outcome {
    let mut memo = HashMap::new();
    let plain = run_pass(w, Until::FixedSet, None, &mut memo);
    let mut lines = pass_lines(w, &plain, "untraced fixed set");
    let mut failed = plain.ledger.failed;
    if let Err(e) = fingerprint_matches(name, seed, &plain, out_dir) {
        failed += 1;
        lines.push(format!("  error: {e}"));
    }
    w.restart();
    let mut tr = Tracer::default();
    let traced = run_pass(w, Until::FixedSet, Some(&mut tr), &mut memo);
    lines.extend(pass_lines(w, &traced, "traced fixed set"));
    // The first pass also warmed caches and pages; the tracing overhead
    // compares the traced pass with a second untraced one.
    w.restart();
    let again = run_pass(w, Until::FixedSet, None, &mut memo);
    for p in [&traced, &again] {
        if p.digest != plain.digest || p.counters != plain.counters {
            failed += 1;
            lines.push("  error: a later pass did different work than the first".into());
        }
        failed += p.ledger.failed;
    }

    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|&(k, _)| (k, 0.0)).collect();
    for (key, span) in [
        ("prefs.parse_s", "prefs.parse"),
        ("prefs.build_s", "prefs.build"),
        ("prefs.delta_apply_s", "prefs.delta_apply"),
        ("gs.solve_s.n256", "gs.solve.n256"),
        ("gs.solve_s.n2000", "gs.solve.n2000"),
        ("gs.solve_s.lazy", "gs.solve.lazy"),
        ("roommates.wasted_attempt_s", hooks::ATTEMPT_WASTED),
        ("roommates.verify_s", hooks::VERIFY),
        ("core.bind_s", "core.bind"),
        ("core.check_s", "core.check"),
        ("incremental.resolve_s", "incremental.solve"),
        ("obs.output_write_s", "obs.output_write"),
    ] {
        m.insert(key, tr.total_s(span));
    }
    m.insert(
        "roommates.deciding_attempt_s",
        tr.total_s(hooks::ATTEMPT_DECIDING) + tr.total_s(hooks::FULLWIDTH),
    );
    m.insert("parallel.batch_s", tr.layer_total_s(Layer::Parallel));
    for (key, counter) in [
        ("gs.proposals", "gs.proposals"),
        ("gs.rounds", "gs.rounds"),
        ("core.bind_proposals", "core.bind_proposals"),
        ("parallel.tasks", "parallel.tasks"),
    ] {
        m.insert(
            key,
            traced.counters.get(counter).copied().unwrap_or(0) as f64,
        );
    }
    for (layer, key) in Layer::ALL.iter().zip([
        "prefs.self_s",
        "gs.self_s",
        "roommates.self_s",
        "core.self_s",
        "parallel.self_s",
        "incremental.self_s",
        "obs.self_s",
    ]) {
        m.insert(key, ns_to_s(tr.self_ns(*layer)));
    }
    m.insert("unattributed_s", ns_to_s(tr.self_ns(Layer::Op)));
    let (tp_plain, tp_traced) = (again.throughput(), traced.throughput());
    m.insert(
        "trace_overhead_pct",
        (tp_plain / tp_traced.max(1e-12) - 1.0) * 100.0,
    );
    extra(w, &tr, &traced, &mut m);

    let attributed: u64 = Layer::ALL.iter().map(|&l| tr.self_ns(l)).sum();
    let unattributed = tr.self_ns(Layer::Op);
    lines.push(format!(
        "layer self times: {}",
        Layer::ALL
            .iter()
            .map(|&l| format!("{}={:.6}s", l.name(), ns_to_s(tr.self_ns(l))))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    lines.push(format!(
        "attribution: layers {:.6} s + unattributed {:.6} s = {:.6} s; traced op time {:.6} s",
        ns_to_s(attributed),
        ns_to_s(unattributed),
        ns_to_s(attributed + unattributed),
        ns_to_s(tr.op_ns())
    ));
    if attributed + unattributed != tr.op_ns() {
        failed += 1;
        lines.push("  error: layer self times do not add up to the op time".into());
    }
    lines.push(format!(
        "throughput: untraced {tp_plain:.4} {u}/s, traced {tp_traced:.4} {u}/s",
        u = W::UNIT
    ));
    let path = format!("{out_dir}/trace-{name}-{seed}.json");
    match std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, tr.to_chrome_json()))
    {
        Ok(()) => lines.push(format!(
            "trace: {} spans written to {path} (Chrome trace-event JSON)",
            tr.spans().len()
        )),
        Err(e) => {
            failed += 1;
            lines.push(format!("  error: writing {path}: {e}"));
        }
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(k, unit)| metric(k, m[k], unit))
        .collect();
    Outcome {
        attempted: plain.ledger.attempted + traced.ledger.attempted + again.ledger.attempted,
        failed,
        metrics,
        lines,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn names(v: &Value, key: &str) -> Vec<(String, String)> {
        let Some(Value::Array(items)) = v.get(key) else {
            panic!("BENCHMARK.json lacks `{key}`");
        };
        items
            .iter()
            .map(|m| match (m.get("name"), m.get("unit")) {
                (Some(Value::String(n)), Some(Value::String(u))) => (n.clone(), u.clone()),
                (Some(Value::String(n)), None) => (n.clone(), String::new()),
                _ => panic!("malformed entry in `{key}`"),
            })
            .collect()
    }

    /// The benchmark description at the repository root names exactly the
    /// workloads and metrics this program reports.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v: Value = serde_json::from_str(&text).expect("valid JSON");
        let workloads: Vec<String> = names(&v, "workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, NAMES);
        assert_eq!(
            names(&v, "end_to_end"),
            END_TO_END.map(|(n, u)| (n.to_string(), u.to_string()))
        );
        let per_layer = names(&v, "per_layer");
        assert_eq!(
            per_layer,
            PER_LAYER.map(|(n, u)| (n.to_string(), u.to_string()))
        );
    }
}
