//! kmatch benchmark: four user-path workloads, end-to-end metrics from an
//! untraced run, and a per-layer ledger from a traced run. See
//! `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A single workload runs in this process and prints, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`). `--workload all` runs every workload in a
//! child process of its own, so each one's peak RSS is its own, and prints
//! one table.

mod check;
mod hooks;
mod runner;
mod tracer;
mod workloads;

use std::process::{Command, ExitCode};
use std::sync::OnceLock;

use serde::Value;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: print this process's nanosecond-scale set-up time and
    /// exit (see `workloads::setup_in_processes`).
    setup_probe: bool,
}

const USAGE: &str = "usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut setup_probe) = (0u64, 10u64, false, false);
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" | "--setup-probe" => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("{flag} takes 0 or 1, not {value}")),
                };
                if flag == "--trace" {
                    trace = on;
                } else {
                    setup_probe = on;
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        setup_probe,
    })
}

/// Root of the source checkout (the benchmark package's parent).
fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a subdirectory")
        .to_path_buf()
}

/// Where traces and recorded fingerprints go.
fn out_dir() -> String {
    format!("{}/out", env!("CARGO_MANIFEST_DIR"))
}

/// Digest of the program's sources (`crates/`, `vendor/`, and this
/// package's `src/`), so results are tied to a source state even where
/// the checkout carries no git metadata.
pub fn source_digest() -> &'static str {
    static DIGEST: OnceLock<String> = OnceLock::new();
    DIGEST.get_or_init(hash_sources)
}

fn hash_sources() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if matches!(
                p.extension().and_then(|x| x.to_str()),
                Some("rs") | Some("toml")
            ) {
                files.push(p);
            }
        }
    }
    let root = repo_root();
    let mut files = Vec::new();
    for dir in ["crates", "vendor", "perfbench/src"] {
        walk(&root.join(dir), &mut files);
    }
    files.sort();
    let mut d = check::Digest::default();
    for f in &files {
        d.bytes(
            f.strip_prefix(&root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        d.bytes(&std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", d.finish())
}

fn commit() -> String {
    let root = repo_root();
    if !root.join(".git").exists() {
        return "none (not a git checkout)".into();
    }
    Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn header(args: &Args) -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        format!("workload     : {}", args.workload),
        format!("workload seed: {}", args.seed),
        format!(
            "mode         : {}",
            if args.trace {
                "traced (per-layer ledger)"
            } else {
                "untraced (end-to-end)"
            }
        ),
        format!("commit       : {}", commit()),
        format!("source digest: {}", source_digest()),
        format!("nproc        : {nproc}"),
        format!("cpu          : {}", cpu_model()),
        format!(
            "build profile: {}",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
        ),
    ]
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[workloads::Metric],
) -> String {
    let obj = |fields: Vec<(&str, Value)>| {
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let metrics = Value::Object(
        metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                (
                    m.name.clone(),
                    obj(vec![
                        ("value", Value::Number(value)),
                        ("unit", Value::String(m.unit.clone())),
                    ]),
                )
            })
            .collect(),
    );
    serde_json::to_string(&obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Number(attempted as f64)),
        ("failed", Value::Number(failed as f64)),
        ("metrics", metrics),
    ]))
    .expect("a value tree serializes")
}

fn run_one(args: &Args) -> ExitCode {
    for line in header(args) {
        println!("{line}");
    }
    match workloads::run(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &out_dir(),
    ) {
        Ok(out) => {
            for line in &out.lines {
                println!("{line}");
            }
            for m in &out.metrics {
                println!("{:<34} {:>18.6} {}", m.name, m.value, m.unit);
            }
            let correct = out.failed == 0 && out.attempted > 0;
            println!(
                "{}",
                result_json(correct, out.attempted, out.failed, &out.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Every workload in a child process of its own, then one table.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: locating this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut rows = Vec::new();
    let mut ok = true;
    for name in workloads::NAMES {
        let out = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let out = match out {
            Ok(out) if out.status.success() => out,
            Ok(out) => {
                eprintln!("error: {name} exited with {}", out.status);
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                ok = false;
                continue;
            }
            Err(e) => {
                eprintln!("error: running {name}: {e}");
                ok = false;
                continue;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        print!("{text}");
        println!();
        let last = text.lines().last().unwrap_or_default().to_string();
        rows.push((name, last));
    }
    println!(
        "== summary (seed {}, {} s per workload) ==",
        args.seed, args.seconds
    );
    for (name, last) in rows {
        let Ok(v) = serde_json::from_str::<Value>(&last) else {
            println!("{name}: unreadable result");
            ok = false;
            continue;
        };
        let num = |v: Option<&Value>| match v {
            Some(Value::Number(x)) => *x,
            _ => 0.0,
        };
        let (attempted, failed) = (num(v.get("attempted")), num(v.get("failed")));
        println!(
            "{name}: correct={} attempted={attempted} failed={failed} error_rate={:.6}",
            matches!(v.get("correct"), Some(Value::Bool(true))),
            failed / attempted.max(1.0)
        );
        if let Some(Value::Object(metrics)) = v.get("metrics") {
            for (k, m) in metrics {
                let unit = match m.get("unit") {
                    Some(Value::String(u)) => u.as_str(),
                    _ => "",
                };
                println!("  {k:<32} {:>18.6} {unit}", num(m.get("value")));
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        return match workloads::setup_probe(&args.workload) {
            Ok(s) => {
                println!("{s}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}
