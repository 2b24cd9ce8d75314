//! `kmatch.postmortem/v1` bundles: the crash/stall artifact.
//!
//! A bundle is one JSON document assembling everything the process knew
//! at the moment something went wrong: the drained flight-recorder ring,
//! cumulative metrics, the structured-log tail, a progress snapshot of
//! every worker probe, the profiler aggregate, and run identity
//! (trigger, seed, config, RSS, uptime). It is written **atomically**
//! (`.tmp` + rename) so a crash during the write never leaves a
//! half-bundle that tooling would try to parse.
//!
//! [`validate_bundle`] re-checks the schema from parsed JSON — including
//! replaying trace well-formedness with `allow_truncated_head` (rings
//! legitimately wrap) — so `kmatch postmortem validate` catches both
//! producer bugs and on-disk corruption. [`inspect_summary`] renders the
//! operator-facing triage view.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use kmatch_trace::{EventKind, TraceEvent};
use serde::Value;

use crate::probe::ProgressSnapshot;

/// Schema tag carried by every bundle.
pub const POSTMORTEM_SCHEMA: &str = "kmatch.postmortem/v1";

/// Everything a bundle is assembled from. All borrowed: the caller
/// (ops plane) owns the real state.
pub struct BundleInputs<'a> {
    /// Why the bundle exists: `"panic"`, `"stall"`, `"signal"`, …
    pub trigger: &'a str,
    /// Injected-clock time of assembly.
    pub now_ns: u64,
    /// Nanoseconds since the ops plane was armed.
    pub uptime_ns: u64,
    /// Drained flight-recorder events, oldest first.
    pub trace_events: &'a [TraceEvent],
    /// Events the ring dropped before the drain.
    pub trace_dropped: u64,
    /// Cumulative solver metrics (`SolverMetrics::to_json`).
    pub metrics: Value,
    /// Rolling-window delta JSON, if a window was armed.
    pub window: Option<Value>,
    /// `kmatch.log/v1` JSONL tail (possibly empty).
    pub logs_jsonl: &'a str,
    /// Per-worker progress at assembly time.
    pub progress: &'a [ProgressSnapshot],
    /// Profiler aggregate (`kmatch.profile/v1` JSON), if armed.
    pub profile: Option<Value>,
    /// Run configuration key/value pairs (flags, sizes, modes).
    pub config: &'a [(String, String)],
    /// RNG seed, when the run had one.
    pub seed: Option<u64>,
    /// Current resident set size, when readable.
    pub rss_bytes: Option<u64>,
}

fn kind_code(kind: EventKind) -> &'static str {
    match kind {
        EventKind::Begin => "B",
        EventKind::End => "E",
        EventKind::Instant => "I",
    }
}

/// Assemble the bundle document.
pub fn bundle_json(inputs: &BundleInputs<'_>) -> Value {
    let events = inputs
        .trace_events
        .iter()
        .map(|ev| {
            Value::Object(vec![
                ("kind".into(), Value::String(kind_code(ev.kind).into())),
                ("name".into(), Value::String(ev.name.to_string())),
                ("ts_ns".into(), Value::Number(ev.ts_ns as f64)),
                ("arg".into(), Value::Number(ev.arg as f64)),
            ])
        })
        .collect();
    let progress = inputs
        .progress
        .iter()
        .map(|s| {
            Value::Object(vec![
                ("worker".into(), Value::Number(s.worker as f64)),
                ("phase".into(), Value::Number(s.phase as f64)),
                ("phase_name".into(), Value::String(s.phase_name().into())),
                ("attempt".into(), Value::Number(s.attempt as f64)),
                ("cut".into(), Value::Number(s.cut as f64)),
                ("round".into(), Value::Number(s.round as f64)),
                ("proposals".into(), Value::Number(s.proposals as f64)),
                ("generation".into(), Value::Number(s.generation as f64)),
                ("consistent".into(), Value::Bool(s.consistent)),
            ])
        })
        .collect();
    let config = inputs
        .config
        .iter()
        .map(|(k, v)| (k.clone(), Value::String(v.clone())))
        .collect();
    Value::Object(vec![
        ("schema".into(), Value::String(POSTMORTEM_SCHEMA.into())),
        ("trigger".into(), Value::String(inputs.trigger.into())),
        ("ts_ns".into(), Value::Number(inputs.now_ns as f64)),
        ("uptime_ns".into(), Value::Number(inputs.uptime_ns as f64)),
        (
            "seed".into(),
            match inputs.seed {
                Some(s) => Value::Number(s as f64),
                None => Value::Null,
            },
        ),
        (
            "rss_bytes".into(),
            match inputs.rss_bytes {
                Some(b) => Value::Number(b as f64),
                None => Value::Null,
            },
        ),
        ("config".into(), Value::Object(config)),
        ("progress".into(), Value::Array(progress)),
        (
            "trace".into(),
            Value::Object(vec![
                ("dropped".into(), Value::Number(inputs.trace_dropped as f64)),
                ("events".into(), Value::Array(events)),
            ]),
        ),
        ("metrics".into(), inputs.metrics.clone()),
        (
            "window".into(),
            inputs.window.clone().unwrap_or(Value::Null),
        ),
        (
            "logs_jsonl".into(),
            Value::String(inputs.logs_jsonl.to_string()),
        ),
        (
            "profile".into(),
            inputs.profile.clone().unwrap_or(Value::Null),
        ),
    ])
}

/// Process-lifetime bundle counter, part of the filename so two
/// triggers in the same nanosecond (ManualClock tests) never collide.
static BUNDLE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Write `bundle` under `dir` as
/// `postmortem-<pid>-<seq>-<trigger>.json`, atomically: the full
/// document goes to a `.tmp` sibling first, then a rename publishes it.
/// Creates `dir` if missing. Returns the final path.
pub fn write_bundle_atomic(dir: &Path, bundle: &Value, trigger: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let seq = BUNDLE_SEQ.fetch_add(1, Ordering::SeqCst);
    // Keep the trigger filename-safe without pulling in a sanitizer.
    let tag: String = trigger
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .take(24)
        .collect();
    let final_path = dir.join(format!(
        "postmortem-{}-{seq}-{tag}.json",
        std::process::id()
    ));
    let tmp_path = final_path.with_extension("json.tmp");
    {
        let mut f = std::fs::File::create(&tmp_path)?;
        let text = serde_json::to_string_pretty(bundle).expect("value tree always serializes");
        f.write_all(text.as_bytes())?;
        f.write_all(b"\n")?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp_path, &final_path)?;
    Ok(final_path)
}

fn req<'a>(v: &'a Value, key: &str, ctx: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("{ctx}: missing key {key:?}"))
}

fn req_num(v: &Value, key: &str, ctx: &str) -> Result<f64, String> {
    match req(v, key, ctx)? {
        Value::Number(n) => Ok(*n),
        other => Err(format!("{ctx}: {key} is not a number ({other:?})")),
    }
}

fn req_str<'a>(v: &'a Value, key: &str, ctx: &str) -> Result<&'a str, String> {
    match req(v, key, ctx)? {
        Value::String(s) => Ok(s),
        other => Err(format!("{ctx}: {key} is not a string ({other:?})")),
    }
}

/// Trace well-formedness over *parsed* events (names are arbitrary
/// strings here, so [`kmatch_trace::check_well_formed`] — which wants
/// `&'static str` — cannot be reused). Same rules, truncated-head
/// tolerant: orphan `end`s close dropped begins, crossed ends and
/// backward timestamps are violations.
fn check_parsed_trace(events: &[Value]) -> Result<(), String> {
    let mut stack: Vec<String> = Vec::new();
    let mut last_ts = 0f64;
    for (i, ev) in events.iter().enumerate() {
        let ctx = format!("trace.events[{i}]");
        let kind = req_str(ev, "kind", &ctx)?;
        let name = req_str(ev, "name", &ctx)?;
        let ts = req_num(ev, "ts_ns", &ctx)?;
        req_num(ev, "arg", &ctx)?;
        if ts < last_ts {
            return Err(format!("{ctx}: timestamp {ts} went backwards (previous {last_ts})"));
        }
        last_ts = ts;
        match kind {
            "B" => stack.push(name.to_string()),
            "E" => match stack.pop() {
                Some(open) if open == name => {}
                Some(open) => {
                    return Err(format!("{ctx}: end {name:?} does not match open span {open:?}"));
                }
                // Ring truncation: the begin fell off the front.
                None => {}
            },
            "I" => {}
            other => return Err(format!("{ctx}: unknown event kind {other:?}")),
        }
    }
    // Spans left open are fine in a postmortem: the process died inside
    // them — that is the point of the artifact.
    Ok(())
}

/// Validate a parsed bundle against the `kmatch.postmortem/v1` schema.
pub fn validate_bundle(v: &Value) -> Result<(), String> {
    let schema = req_str(v, "schema", "bundle")?;
    if schema != POSTMORTEM_SCHEMA {
        return Err(format!("bundle: schema {schema:?}, expected {POSTMORTEM_SCHEMA:?}"));
    }
    let trigger = req_str(v, "trigger", "bundle")?;
    if trigger.is_empty() {
        return Err("bundle: empty trigger".to_string());
    }
    req_num(v, "ts_ns", "bundle")?;
    req_num(v, "uptime_ns", "bundle")?;
    match req(v, "seed", "bundle")? {
        Value::Number(_) | Value::Null => {}
        other => return Err(format!("bundle: seed is neither number nor null ({other:?})")),
    }
    match req(v, "rss_bytes", "bundle")? {
        Value::Number(_) | Value::Null => {}
        other => return Err(format!("bundle: rss_bytes is neither number nor null ({other:?})")),
    }
    match req(v, "config", "bundle")? {
        Value::Object(pairs) => {
            for (k, val) in pairs {
                if !matches!(val, Value::String(_)) {
                    return Err(format!("config.{k}: not a string"));
                }
            }
        }
        _ => return Err("bundle: config is not an object".to_string()),
    }
    match req(v, "progress", "bundle")? {
        Value::Array(rows) => {
            for (i, row) in rows.iter().enumerate() {
                let ctx = format!("progress[{i}]");
                req_num(row, "worker", &ctx)?;
                req_num(row, "phase", &ctx)?;
                req_str(row, "phase_name", &ctx)?;
                req_num(row, "attempt", &ctx)?;
                req_num(row, "cut", &ctx)?;
                req_num(row, "round", &ctx)?;
                req_num(row, "proposals", &ctx)?;
                req_num(row, "generation", &ctx)?;
            }
        }
        _ => return Err("bundle: progress is not an array".to_string()),
    }
    let trace = req(v, "trace", "bundle")?;
    req_num(trace, "dropped", "trace")?;
    match req(trace, "events", "trace")? {
        Value::Array(events) => check_parsed_trace(events)?,
        _ => return Err("trace: events is not an array".to_string()),
    }
    let metrics = req(v, "metrics", "bundle")?;
    if !matches!(req(metrics, "counters", "metrics")?, Value::Object(_)) {
        return Err("metrics: counters is not an object".to_string());
    }
    match req(v, "window", "bundle")? {
        Value::Object(_) | Value::Null => {}
        other => return Err(format!("bundle: window is neither object nor null ({other:?})")),
    }
    let logs = req_str(v, "logs_jsonl", "bundle")?;
    for (i, line) in logs.lines().filter(|l| !l.trim().is_empty()).enumerate() {
        let parsed: Value = serde_json::from_str(line)
            .map_err(|e| format!("logs_jsonl line {i}: not JSON ({e:?})"))?;
        let ls = req_str(&parsed, "schema", &format!("logs_jsonl line {i}"))?;
        if ls != "kmatch.log/v1" {
            return Err(format!("logs_jsonl line {i}: schema {ls:?}"));
        }
    }
    match req(v, "profile", "bundle")? {
        Value::Null => {}
        profile @ Value::Object(_) => {
            let ps = req_str(profile, "schema", "profile")?;
            if ps != crate::profiler::PROFILE_SCHEMA {
                return Err(format!("profile: schema {ps:?}"));
            }
            req_num(profile, "samples", "profile")?;
            if !matches!(req(profile, "stacks", "profile")?, Value::Array(_)) {
                return Err("profile: stacks is not an array".to_string());
            }
        }
        other => return Err(format!("bundle: profile is neither object nor null ({other:?})")),
    }
    Ok(())
}

/// Operator-facing triage summary of a (valid) bundle.
pub fn inspect_summary(v: &Value) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let str_of = |key: &str| match v.get(key) {
        Some(Value::String(s)) => s.clone(),
        Some(Value::Number(n)) => format!("{n}"),
        Some(Value::Null) | None => "-".to_string(),
        Some(other) => format!("{other:?}"),
    };
    let _ = writeln!(out, "schema:   {}", str_of("schema"));
    let _ = writeln!(out, "trigger:  {}", str_of("trigger"));
    let _ = writeln!(out, "ts_ns:    {}", str_of("ts_ns"));
    let _ = writeln!(out, "uptime:   {} ns", str_of("uptime_ns"));
    let _ = writeln!(out, "seed:     {}", str_of("seed"));
    let _ = writeln!(out, "rss:      {} bytes", str_of("rss_bytes"));
    if let Some(Value::Object(pairs)) = v.get("config") {
        for (k, val) in pairs {
            if let Value::String(s) = val {
                let _ = writeln!(out, "config:   {k}={s}");
            }
        }
    }
    if let Some(Value::Array(rows)) = v.get("progress") {
        for row in rows {
            let g = |key: &str| match row.get(key) {
                Some(Value::Number(n)) => format!("{n}"),
                Some(Value::String(s)) => s.clone(),
                _ => "?".to_string(),
            };
            let _ = writeln!(
                out,
                "worker {}: phase={} attempt={} cut={} round={} proposals={} generation={}",
                g("worker"),
                g("phase_name"),
                g("attempt"),
                g("cut"),
                g("round"),
                g("proposals"),
                g("generation"),
            );
        }
    }
    if let Some(trace) = v.get("trace") {
        let events = match trace.get("events") {
            Some(Value::Array(e)) => e.len(),
            _ => 0,
        };
        let _ = writeln!(
            out,
            "trace:    {events} events, {} dropped",
            match trace.get("dropped") {
                Some(Value::Number(n)) => format!("{n}"),
                _ => "?".to_string(),
            }
        );
    }
    if let Some(Value::String(logs)) = v.get("logs_jsonl") {
        let _ = writeln!(out, "logs:     {} lines", logs.lines().count());
    }
    if let Some(profile @ Value::Object(_)) = v.get("profile") {
        if let Some(Value::Number(n)) = profile.get("samples") {
            let _ = writeln!(out, "profile:  {n} samples");
        }
        // Top 3 stacks by sample count.
        if let Some(Value::Array(rows)) = profile.get("stacks") {
            let mut stacks: Vec<(f64, String)> = rows
                .iter()
                .filter_map(|r| match (r.get("stack"), r.get("samples")) {
                    (Some(Value::String(s)), Some(Value::Number(n))) => Some((*n, s.clone())),
                    _ => None,
                })
                .collect();
            stacks.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
            for (n, s) in stacks.iter().take(3) {
                let _ = writeln!(out, "  hot:    {s} ({n})");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmatch_obs::phase;

    fn sample_inputs() -> (Vec<TraceEvent>, Vec<ProgressSnapshot>, Vec<(String, String)>) {
        let events = vec![
            TraceEvent { kind: EventKind::End, name: "gs.round", ts_ns: 5, arg: 0 },
            TraceEvent { kind: EventKind::Begin, name: "gs.solve", ts_ns: 10, arg: 4 },
            TraceEvent { kind: EventKind::Instant, name: "cache.miss", ts_ns: 11, arg: 0 },
            TraceEvent { kind: EventKind::End, name: "gs.solve", ts_ns: 20, arg: 0 },
        ];
        let progress = vec![ProgressSnapshot {
            worker: 0,
            phase: phase::ESCALATE,
            attempt: 2,
            cut: 128,
            round: 9,
            proposals: 12345,
            generation: 77,
            consistent: true,
            depth: 0,
            frames: [0; crate::MAX_DEPTH],
        }];
        let config = vec![
            ("kind".to_string(), "escalate".to_string()),
            ("n".to_string(), "100000".to_string()),
        ];
        (events, progress, config)
    }

    fn sample_bundle() -> Value {
        let (events, progress, config) = sample_inputs();
        bundle_json(&BundleInputs {
            trigger: "stall",
            now_ns: 123,
            uptime_ns: 456,
            trace_events: &events,
            trace_dropped: 3,
            metrics: kmatch_obs::SolverMetrics::new().to_json(),
            window: None,
            logs_jsonl: "{\"schema\":\"kmatch.log/v1\",\"level\":\"warn\",\"ts_ns\":1,\"solver\":\"ops\",\"msg\":\"worker stalled\",\"repeats\":1}\n",
            progress: &progress,
            profile: None,
            config: &config,
            seed: Some(42),
            rss_bytes: Some(1 << 20),
        })
    }

    #[test]
    fn bundle_validates_and_round_trips_through_text() {
        let bundle = sample_bundle();
        validate_bundle(&bundle).expect("fresh bundle is valid");
        let text = serde_json::to_string_pretty(&bundle).expect("serializes");
        let reparsed: Value = serde_json::from_str(&text).expect("parses back");
        validate_bundle(&reparsed).expect("round-tripped bundle is valid");
        let summary = inspect_summary(&reparsed);
        assert!(summary.contains("trigger:  stall"), "{summary}");
        assert!(summary.contains("phase=escalate"), "{summary}");
        assert!(summary.contains("cut=128"), "{summary}");
        assert!(summary.contains("4 events, 3 dropped"), "{summary}");
    }

    #[test]
    fn validation_rejects_corruption() {
        let good = sample_bundle();
        // Wrong schema.
        let mut bad = good.clone();
        if let Value::Object(pairs) = &mut bad {
            pairs[0].1 = Value::String("kmatch.postmortem/v0".into());
        }
        assert!(validate_bundle(&bad).unwrap_err().contains("schema"));
        // Crossed trace end.
        let (mut events, progress, config) = sample_inputs();
        events.push(TraceEvent { kind: EventKind::Begin, name: "a", ts_ns: 30, arg: 0 });
        events.push(TraceEvent { kind: EventKind::End, name: "b", ts_ns: 31, arg: 0 });
        let crossed = bundle_json(&BundleInputs {
            trigger: "stall",
            now_ns: 1,
            uptime_ns: 1,
            trace_events: &events,
            trace_dropped: 0,
            metrics: kmatch_obs::SolverMetrics::new().to_json(),
            window: None,
            logs_jsonl: "",
            progress: &progress,
            profile: None,
            config: &config,
            seed: None,
            rss_bytes: None,
        });
        assert!(validate_bundle(&crossed).unwrap_err().contains("does not match"));
        // Garbage log line.
        let mut bad_logs = good.clone();
        if let Value::Object(pairs) = &mut bad_logs {
            for (k, v) in pairs.iter_mut() {
                if k == "logs_jsonl" {
                    *v = Value::String("not json\n".into());
                }
            }
        }
        assert!(validate_bundle(&bad_logs).unwrap_err().contains("not JSON"));
    }

    #[test]
    fn atomic_write_lands_only_the_final_file() {
        let dir = std::env::temp_dir().join(format!("kmatch-bundle-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let bundle = sample_bundle();
        let path = write_bundle_atomic(&dir, &bundle, "unit/test!").expect("write");
        assert!(path.file_name().unwrap().to_string_lossy().contains("unit-test"));
        let text = std::fs::read_to_string(&path).expect("read back");
        let parsed: Value = serde_json::from_str(&text).expect("parses");
        validate_bundle(&parsed).expect("valid on disk");
        // No .tmp residue.
        let residue: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().map(|x| x == "tmp").unwrap_or(false))
            .collect();
        assert!(residue.is_empty(), "{residue:?}");
        // Two writes never collide.
        let path2 = write_bundle_atomic(&dir, &bundle, "unit/test!").expect("write 2");
        assert_ne!(path, path2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
