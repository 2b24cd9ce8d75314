//! The perf regression gate behind the `bench_diff` binary: compare a
//! fresh set of `results/BENCH_*.json` / `results/REPORT_*.json` files
//! against the committed baselines and report every row that regressed.
//!
//! The comparison is rule-based per leaf key rather than a blind float
//! diff, because the result files mix three kinds of numbers:
//!
//! - **counters** (`proposals`, `rounds`, bucket counts, …) are
//!   deterministic under the fixed bench seeds and must match exactly —
//!   a drift here is an engine behavior change, not noise;
//! - **timings** (`*_ns`) are host-dependent and only gate one-sided:
//!   a row regresses when it got *slower* than the baseline by more than
//!   the relative tolerance (and by more than an absolute floor, so
//!   sub-microsecond rows cannot trip the gate on scheduler jitter);
//! - **ratios** (`speedup*`, `efficiency`, `*_speedup`) are roughly
//!   host-independent and gate one-sided downward; `*_pct` overhead rows
//!   gate one-sided upward with an absolute slack in percentage points.
//!
//! Host-shape fields (`threads`, the batch `path`, the executor's
//! `steal_count`/`task_count` — schedule footprint, not output — and a
//! file's host header: `commit`, `cores`, `cpu_model`, `profile`) and the
//! spread of a wall-time row (`*_iqr_ns`, beside its gated median) are
//! informational: drift is noted, never fatal. Keys present in the
//! baseline but missing from the fresh run are regressions (a silently
//! dropped row must not pass the gate); new keys in the fresh run are
//! notes.

use std::fs;
use std::path::Path;

use serde::Value;

/// Per-rule tolerance thresholds of one gate run.
#[derive(Debug, Clone, Copy)]
pub struct DiffConfig {
    /// Relative slack on `*_ns` rows: fresh may be up to
    /// `baseline * (1 + timing_tol)` before regressing. Default 0.30.
    pub timing_tol: f64,
    /// Absolute floor on `*_ns` rows: a slowdown under this many
    /// nanoseconds never regresses, whatever the ratio says. Default
    /// 10 µs, which mutes the cached-hit rows that sit near clock
    /// resolution.
    pub timing_floor_ns: f64,
    /// Relative slack on ratio rows (`speedup*`, `efficiency`): fresh
    /// may fall to `baseline * (1 - ratio_tol)`. Default 0.25.
    pub ratio_tol: f64,
    /// Absolute slack on `*_pct` rows, in percentage points: fresh may
    /// exceed the baseline by this much. Default 3.0.
    pub pct_slack: f64,
    /// Relative slack on `*_bytes` rows: fresh may grow to
    /// `baseline * (1 + bytes_tol)` before regressing. Default 0.50 —
    /// generous, because the interesting regression is asymptotic (an
    /// O(n·polylog) lazy solve decaying to O(n²) overshoots any constant
    /// factor at the bench sizes).
    pub bytes_tol: f64,
    /// Absolute floor on `*_bytes` rows: growth under this many bytes
    /// never regresses (mutes allocator and RSS-accounting jitter on
    /// small rows). Default 32 MiB.
    pub bytes_floor: f64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            timing_tol: 0.30,
            timing_floor_ns: 10_000.0,
            ratio_tol: 0.25,
            pct_slack: 3.0,
            bytes_tol: 0.50,
            bytes_floor: 32.0 * 1024.0 * 1024.0,
        }
    }
}

/// What one gate run found.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// Leaves checked (numbers, booleans, strings).
    pub compared: usize,
    /// Rows that fail the gate, as `file:path — explanation` lines.
    pub regressions: Vec<String>,
    /// Informational drift (ignored keys, new rows) that never fails.
    pub notes: Vec<String>,
}

impl DiffReport {
    /// Whether the gate passes.
    pub fn ok(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// How a leaf key is compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rule {
    /// `*_ns`: one-sided slowdown gate with relative + absolute slack.
    Timing,
    /// `speedup*` / `efficiency`: one-sided shrink gate, relative slack.
    Ratio,
    /// `*_pct`: one-sided growth gate, absolute slack in points.
    Pct,
    /// `*_bytes`: one-sided growth gate, relative + absolute slack —
    /// memory may shrink freely, never silently balloon.
    Bytes,
    /// Host-shape fields: drift is a note, never a regression.
    Ignore,
    /// Everything else (counters, flags, names): exact match.
    Exact,
}

/// Classify a leaf by its key name.
fn rule_for(key: &str) -> Rule {
    if matches!(
        key,
        "threads" | "path" | "seed" | "steal_count" | "task_count" | "commit" | "cores"
            | "cpu_model" | "profile"
    ) || key.ends_with("_iqr_ns")
    {
        return Rule::Ignore;
    }
    if key.ends_with("_ns") {
        return Rule::Timing;
    }
    if key.ends_with("_pct") {
        return Rule::Pct;
    }
    if key.ends_with("_bytes") {
        return Rule::Bytes;
    }
    if key == "efficiency" || key == "speedup" || key.starts_with("speedup_") || key.ends_with("_speedup") {
        return Rule::Ratio;
    }
    Rule::Exact
}

fn compare_number(path: &str, key: &str, base: f64, fresh: f64, cfg: &DiffConfig, rep: &mut DiffReport) {
    rep.compared += 1;
    let pct = |a: f64, b: f64| {
        if a == 0.0 {
            f64::INFINITY
        } else {
            (b / a - 1.0) * 100.0
        }
    };
    match rule_for(key) {
        Rule::Ignore => {
            if base != fresh {
                rep.notes
                    .push(format!("{path}: host-shape drift {base} -> {fresh} (ignored)"));
            }
        }
        Rule::Timing => {
            if fresh > base * (1.0 + cfg.timing_tol) && fresh - base > cfg.timing_floor_ns {
                rep.regressions.push(format!(
                    "{path}: slowed {base:.0} ns -> {fresh:.0} ns ({:+.1}%, tolerance {:.0}%)",
                    pct(base, fresh),
                    cfg.timing_tol * 100.0
                ));
            }
        }
        Rule::Ratio => {
            if fresh < base * (1.0 - cfg.ratio_tol) {
                rep.regressions.push(format!(
                    "{path}: ratio shrank {base:.3} -> {fresh:.3} ({:+.1}%, tolerance -{:.0}%)",
                    pct(base, fresh),
                    cfg.ratio_tol * 100.0
                ));
            }
        }
        Rule::Pct => {
            if fresh > base + cfg.pct_slack {
                rep.regressions.push(format!(
                    "{path}: overhead grew {base:.2}% -> {fresh:.2}% (slack {:.1} points)",
                    cfg.pct_slack
                ));
            }
        }
        Rule::Bytes => {
            if fresh > base * (1.0 + cfg.bytes_tol) && fresh - base > cfg.bytes_floor {
                rep.regressions.push(format!(
                    "{path}: memory grew {base:.0} B -> {fresh:.0} B ({:+.1}%, tolerance {:.0}%)",
                    pct(base, fresh),
                    cfg.bytes_tol * 100.0
                ));
            }
        }
        Rule::Exact => {
            if base != fresh {
                rep.regressions
                    .push(format!("{path}: counter changed {base} -> {fresh} (must match exactly)"));
            }
        }
    }
}

/// Recursively compare `fresh` against `base`, accumulating into `rep`.
/// `path` locates the subtree for messages; `key` is the leaf key that
/// selects the comparison rule (array elements inherit their array's).
pub fn diff_values(path: &str, key: &str, base: &Value, fresh: &Value, cfg: &DiffConfig, rep: &mut DiffReport) {
    match (base, fresh) {
        (Value::Object(bf), Value::Object(ff)) => {
            for (k, bv) in bf {
                let sub = format!("{path}.{k}");
                match fresh.get(k) {
                    Some(fv) => diff_values(&sub, k, bv, fv, cfg, rep),
                    None => rep
                        .regressions
                        .push(format!("{sub}: row missing from fresh results")),
                }
            }
            for (k, _) in ff {
                if base.get(k).is_none() {
                    rep.notes
                        .push(format!("{path}.{k}: new row (absent from baseline)"));
                }
            }
        }
        (Value::Array(ba), Value::Array(fa)) => {
            if fa.len() < ba.len() {
                rep.regressions.push(format!(
                    "{path}: fresh has {} rows, baseline has {}",
                    fa.len(),
                    ba.len()
                ));
            } else if fa.len() > ba.len() {
                rep.notes.push(format!(
                    "{path}: fresh grew to {} rows from {}",
                    fa.len(),
                    ba.len()
                ));
            }
            for (i, (bv, fv)) in ba.iter().zip(fa).enumerate() {
                diff_values(&format!("{path}[{i}]"), key, bv, fv, cfg, rep);
            }
        }
        (Value::Number(b), Value::Number(f)) => compare_number(path, key, *b, *f, cfg, rep),
        (b, f) => {
            rep.compared += 1;
            if b != f {
                if rule_for(key) == Rule::Ignore {
                    rep.notes
                        .push(format!("{path}: host-shape drift {b:?} -> {f:?} (ignored)"));
                } else {
                    rep.regressions
                        .push(format!("{path}: value changed {b:?} -> {f:?}"));
                }
            }
        }
    }
}

/// Compare two JSON documents; `name` prefixes every message.
pub fn diff_json_text(name: &str, baseline: &str, fresh: &str, cfg: &DiffConfig, rep: &mut DiffReport) -> Result<(), String> {
    let b: Value = serde_json::from_str(baseline).map_err(|e| format!("{name} (baseline): {e}"))?;
    let f: Value = serde_json::from_str(fresh).map_err(|e| format!("{name} (fresh): {e}"))?;
    diff_values(name, "", &b, &f, cfg, rep);
    Ok(())
}

/// Whether a results-directory entry participates in the gate.
pub fn is_gated_file(name: &str) -> bool {
    (name.starts_with("BENCH_") || name.starts_with("REPORT_")) && name.ends_with(".json")
}

/// Compare every gated file of `baseline_dir` against its counterpart in
/// `fresh_dir`. A baseline file with no fresh counterpart is a
/// regression; extra fresh files are notes.
pub fn diff_dirs(baseline_dir: &Path, fresh_dir: &Path, cfg: &DiffConfig) -> Result<DiffReport, String> {
    let listing = |dir: &Path| -> Result<Vec<String>, String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .map_err(|e| format!("reading {}: {e}", dir.display()))?
            .filter_map(|entry| entry.ok())
            .filter_map(|entry| entry.file_name().into_string().ok())
            .filter(|name| is_gated_file(name))
            .collect();
        names.sort();
        Ok(names)
    };
    let base_names = listing(baseline_dir)?;
    if base_names.is_empty() {
        return Err(format!(
            "no BENCH_*.json / REPORT_*.json baselines in {}",
            baseline_dir.display()
        ));
    }
    let mut rep = DiffReport::default();
    for name in &base_names {
        let fresh_path = fresh_dir.join(name);
        if !fresh_path.exists() {
            rep.regressions
                .push(format!("{name}: missing from fresh results"));
            continue;
        }
        let read = |p: &Path| fs::read_to_string(p).map_err(|e| format!("reading {}: {e}", p.display()));
        let base_text = read(&baseline_dir.join(name))?;
        let fresh_text = read(&fresh_path)?;
        diff_json_text(name, &base_text, &fresh_text, cfg, &mut rep)?;
    }
    for name in listing(fresh_dir)? {
        if !base_names.contains(&name) {
            rep.notes
                .push(format!("{name}: new results file (absent from baseline)"));
        }
    }
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(base: &str, fresh: &str) -> DiffReport {
        let mut rep = DiffReport::default();
        diff_json_text("t", base, fresh, &DiffConfig::default(), &mut rep).unwrap();
        rep
    }

    #[test]
    fn key_classification() {
        assert_eq!(rule_for("fastpath_ns"), Rule::Timing);
        assert_eq!(rule_for("wall_ns"), Rule::Timing);
        assert_eq!(rule_for("overhead_pct"), Rule::Pct);
        assert_eq!(rule_for("speedup"), Rule::Ratio);
        assert_eq!(rule_for("speedup_csr"), Rule::Ratio);
        assert_eq!(rule_for("cached_speedup"), Rule::Ratio);
        assert_eq!(rule_for("efficiency"), Rule::Ratio);
        assert_eq!(rule_for("threads"), Rule::Ignore);
        assert_eq!(rule_for("path"), Rule::Ignore);
        assert_eq!(rule_for("steal_count"), Rule::Ignore);
        assert_eq!(rule_for("task_count"), Rule::Ignore);
        assert_eq!(rule_for("commit"), Rule::Ignore);
        assert_eq!(rule_for("cpu_model"), Rule::Ignore);
        assert_eq!(rule_for("parse_iqr_ns"), Rule::Ignore);
        assert_eq!(rule_for("parse_median_ns"), Rule::Timing);
        assert_eq!(rule_for("proposals"), Rule::Exact);
        assert_eq!(rule_for("n"), Rule::Exact);
        assert_eq!(rule_for("peak_rss_bytes"), Rule::Bytes);
        assert_eq!(rule_for("arena_bytes"), Rule::Bytes);
        assert_eq!(rule_for("instance_bytes"), Rule::Bytes);
        assert_eq!(rule_for("proposals_per_nlogn"), Rule::Exact);
    }

    #[test]
    fn bytes_gate_one_sided_with_relative_and_absolute_slack() {
        // 40% growth stays inside the default 50% tolerance.
        let rep = run(
            r#"{"peak_rss_bytes": 100000000}"#,
            r#"{"peak_rss_bytes": 140000000}"#,
        );
        assert!(rep.ok(), "{:?}", rep.regressions);
        // 3x growth regresses.
        let rep = run(
            r#"{"peak_rss_bytes": 100000000}"#,
            r#"{"peak_rss_bytes": 300000000}"#,
        );
        assert!(!rep.ok());
        assert!(rep.regressions[0].contains("memory grew"));
        // Shrinking never regresses.
        let rep = run(
            r#"{"arena_bytes": 300000000}"#,
            r#"{"arena_bytes": 100000000}"#,
        );
        assert!(rep.ok());
        // A 10x blowup under the 32 MiB floor is accounting jitter.
        let rep = run(r#"{"peak_rss_bytes": 1000000}"#, r#"{"peak_rss_bytes": 10000000}"#);
        assert!(rep.ok(), "{:?}", rep.regressions);
    }

    #[test]
    fn identical_documents_pass() {
        let doc = r#"{"n": 256, "proposals": 100, "fastpath_ns": 5000000, "speedup": 2.0}"#;
        let rep = run(doc, doc);
        assert!(rep.ok(), "{:?}", rep.regressions);
        assert_eq!(rep.compared, 4);
    }

    #[test]
    fn counter_drift_is_a_regression() {
        let rep = run(r#"{"proposals": 100}"#, r#"{"proposals": 101}"#);
        assert!(!rep.ok());
        assert!(rep.regressions[0].contains("t.proposals"), "{:?}", rep.regressions);
    }

    #[test]
    fn timing_gates_one_sided_with_slack() {
        // 20% slower stays inside the default 30% tolerance.
        let rep = run(r#"{"solve_ns": 1000000}"#, r#"{"solve_ns": 1200000}"#);
        assert!(rep.ok());
        // 2x slower regresses.
        let rep = run(r#"{"solve_ns": 1000000}"#, r#"{"solve_ns": 2000000}"#);
        assert!(!rep.ok());
        assert!(rep.regressions[0].contains("slowed"));
        // 2x faster never regresses.
        let rep = run(r#"{"solve_ns": 2000000}"#, r#"{"solve_ns": 1000000}"#);
        assert!(rep.ok());
        // A 3x blowup under the absolute floor is jitter, not regression.
        let rep = run(r#"{"cached_ns": 120}"#, r#"{"cached_ns": 400}"#);
        assert!(rep.ok(), "{:?}", rep.regressions);
    }

    #[test]
    fn ratio_and_pct_rules() {
        let rep = run(r#"{"speedup": 2.0}"#, r#"{"speedup": 1.7}"#);
        assert!(rep.ok(), "within 25%: {:?}", rep.regressions);
        let rep = run(r#"{"speedup": 2.0}"#, r#"{"speedup": 1.0}"#);
        assert!(!rep.ok());
        assert!(rep.regressions[0].contains("shrank"));
        let rep = run(r#"{"overhead_pct": 2.0}"#, r#"{"overhead_pct": 4.5}"#);
        assert!(rep.ok(), "within 3 points: {:?}", rep.regressions);
        let rep = run(r#"{"overhead_pct": 2.0}"#, r#"{"overhead_pct": 9.0}"#);
        assert!(!rep.ok());
        assert!(rep.regressions[0].contains("overhead grew"));
    }

    #[test]
    fn host_shape_drift_is_a_note() {
        let rep = run(
            r#"{"threads": 1, "path": "serial"}"#,
            r#"{"threads": 8, "path": "parallel"}"#,
        );
        assert!(rep.ok());
        assert_eq!(rep.notes.len(), 2);
    }

    #[test]
    fn missing_rows_regress_new_rows_note() {
        let rep = run(r#"{"a": 1, "b": 2}"#, r#"{"a": 1, "c": 3}"#);
        assert!(!rep.ok());
        assert!(rep.regressions[0].contains("t.b"));
        assert!(rep.notes.iter().any(|n| n.contains("t.c")));
        // Shorter fresh arrays regress; longer ones note.
        let rep = run(r#"{"single": [1, 2]}"#, r#"{"single": [1]}"#);
        assert!(!rep.ok());
        let rep = run(r#"{"single": [1]}"#, r#"{"single": [1, 2]}"#);
        assert!(rep.ok());
        assert_eq!(rep.notes.len(), 1);
    }

    #[test]
    fn nested_paths_name_the_row() {
        let base = r#"{"single": [{"n": 256, "reference_ns": 100000}, {"n": 1024, "reference_ns": 9000000}]}"#;
        let fresh = r#"{"single": [{"n": 256, "reference_ns": 100000}, {"n": 1024, "reference_ns": 90000000}]}"#;
        let rep = run(base, fresh);
        assert_eq!(rep.regressions.len(), 1);
        assert!(rep.regressions[0].contains("t.single[1].reference_ns"), "{:?}", rep.regressions);
    }

    #[test]
    fn gated_file_selection() {
        assert!(is_gated_file("BENCH_gs.json"));
        assert!(is_gated_file("REPORT_roommates.json"));
        assert!(!is_gated_file("gs_scaling.csv"));
        assert!(!is_gated_file("BENCH_gs.json.bak"));
        assert!(!is_gated_file("notes.json"));
    }

    #[test]
    fn real_baselines_self_compare_clean() {
        // The committed results must pass the gate against themselves —
        // the same invariant ci.sh enforces.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        if !dir.exists() {
            return; // fresh checkout without results — nothing to gate
        }
        let rep = diff_dirs(&dir, &dir, &DiffConfig::default()).unwrap();
        assert!(rep.ok(), "{:?}", rep.regressions);
        assert!(rep.compared > 50, "walked the real files: {}", rep.compared);
    }
}
