//! JSON ingest measurements → `results/BENCH_ingest.json`.
//!
//! Reads the two document shapes of the benchmark's `ingest_json`
//! workload, the way the CLI reads them:
//!
//! - **`bipartite`**: a compact array of 4 bipartite instances at
//!   n = 430, as `kmatch batch --input` reads it: parse to a `Value`
//!   tree, then convert each element with `BipartiteDto::from_value` and
//!   build its `BipartiteInstance`;
//! - **`kpartite`**: one k = 4, n = 375 instance, as `kmatch solve kary
//!   --input` reads it: a typed parse straight into `KPartiteDto`, then
//!   the `KPartiteInstance` build.
//!
//! Each document is read `REPS` times after one warm-up read; a row
//! records the median and interquartile range of the parse and of the
//! conversion/build wall times, the document's exact size counters
//! (bytes, numbers) and the bytes the built instances hold (their
//! `resident_bytes`, gated one-sided by `bench_diff`).
//!
//! The `kary_check` row times the stability check `kmatch solve kary`
//! runs next: `find_blocking_family` on the k-partite document's bound
//! matching (path binding tree), per check, from `REPS` samples of 20
//! checks each after one warm-up sample.
//!
//! A header records the commit, core count, CPU model and build profile
//! the times were taken with. Run with
//! `cargo run --release --bin bench_ingest_json`.

use std::process::Command;
use std::time::Instant;

use kmatch_bench::harness::write_results;
use kmatch_bench::rng;
use kmatch_core::{bind, find_blocking_family};
use kmatch_graph::BindingTree;
use kmatch_prefs::gen::uniform::{uniform_bipartite, uniform_kpartite};
use kmatch_prefs::serde_support::{BipartiteDto, KPartiteDto};
use kmatch_prefs::{BipartiteInstance, KPartiteInstance};
use serde::{impl_json_struct, Deserialize, Value};

/// Timed reads per document.
const REPS: usize = 21;
/// Genders and members per gender of the k-partite document.
const KARY_K: usize = 4;
const KARY_N: usize = 375;

/// Where and how the times were taken.
#[derive(Debug, Clone)]
struct Host {
    commit: String,
    cores: usize,
    cpu_model: String,
    profile: String,
}

impl_json_struct!(Host {
    commit,
    cores,
    cpu_model,
    profile
});

/// One document, read `REPS` times.
#[derive(Debug, Clone)]
struct Row {
    /// `"bipartite"` or `"kpartite"`.
    document: String,
    /// `"value"` (tree parse, then `from_value`) or `"typed"`.
    read: String,
    instances: usize,
    k: usize,
    n: usize,
    /// Document length in bytes, and the numbers it holds.
    bytes: u64,
    numbers: u64,
    /// Bytes the built instances' tables hold.
    instance_bytes: u64,
    parse_median_ns: f64,
    parse_iqr_ns: f64,
    /// Conversion of the parsed form and the instance build.
    build_median_ns: f64,
    build_iqr_ns: f64,
}

impl_json_struct!(Row {
    document,
    read,
    instances,
    k,
    n,
    bytes,
    numbers,
    instance_bytes,
    parse_median_ns,
    parse_iqr_ns,
    build_median_ns,
    build_iqr_ns
});

/// The stability check of the k-partite document's bound matching
/// (path binding tree), which finds no blocking family (Theorem 2).
#[derive(Debug, Clone)]
struct CheckRow {
    k: usize,
    n: usize,
    check_median_ns: f64,
    check_iqr_ns: f64,
}

impl_json_struct!(CheckRow {
    k,
    n,
    check_median_ns,
    check_iqr_ns
});

#[derive(Debug, Clone)]
struct Report {
    host: Host,
    reps: usize,
    rows: Vec<Row>,
    kary_check: CheckRow,
}

impl_json_struct!(Report {
    host,
    reps,
    rows,
    kary_check
});

fn host() -> Host {
    // `-dirty` marks a working tree with changes beyond the commit.
    let commit = Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=40"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Host {
        commit,
        cores: std::thread::available_parallelism().map_or(0, |n| n.get()),
        cpu_model,
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
        .into(),
    }
}

/// Number leaves of a value tree.
fn numbers(v: &Value) -> u64 {
    match v {
        Value::Number(_) => 1,
        Value::Array(items) => items.iter().map(numbers).sum(),
        Value::Object(fields) => fields.iter().map(|(_, v)| numbers(v)).sum(),
        _ => 0,
    }
}

/// Median and interquartile range of `samples`.
fn median_iqr(mut samples: Vec<f64>) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    let at = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
    (at(0.5), at(0.75) - at(0.25))
}

/// Read `text` `REPS + 1` times through `parse` then `build`, checking
/// every build with `check`; the first read is a warm-up.
fn measure<P, B>(
    text: &str,
    parse: impl Fn(&str) -> P,
    build: impl Fn(P) -> B,
    check: impl Fn(&B),
) -> [(f64, f64); 2] {
    let (mut parse_ns, mut build_ns) = (Vec::new(), Vec::new());
    for rep in 0..=REPS {
        let t0 = Instant::now();
        let parsed = parse(text);
        let t1 = Instant::now();
        let built = build(parsed);
        let t2 = Instant::now();
        check(&built);
        if rep > 0 {
            parse_ns.push((t1 - t0).as_nanos() as f64);
            build_ns.push((t2 - t1).as_nanos() as f64);
        }
    }
    [median_iqr(parse_ns), median_iqr(build_ns)]
}

fn bipartite_row() -> Row {
    const COUNT: usize = 4;
    const N: usize = 430;
    let mut r = rng(801);
    let insts: Vec<BipartiteInstance> = (0..COUNT).map(|_| uniform_bipartite(N, &mut r)).collect();
    let dtos: Vec<BipartiteDto> = insts.iter().map(BipartiteDto::from).collect();
    let text = serde_json::to_string(&dtos).expect("renders");
    let numbers = numbers(&serde_json::from_str(&text).expect("parses"));
    let [(parse_median_ns, parse_iqr_ns), (build_median_ns, build_iqr_ns)] = measure(
        &text,
        |t| match serde_json::from_str::<Value>(t) {
            Ok(Value::Array(items)) => items,
            other => panic!("expected an array of instances, got {other:?}"),
        },
        |items| {
            items
                .iter()
                .map(|item| {
                    BipartiteDto::from_value(item)
                        .map_err(|e| e.to_string())
                        .and_then(|d| BipartiteInstance::try_from(d).map_err(|e| e.to_string()))
                })
                .collect::<Result<Vec<_>, _>>()
                .expect("generated instances build")
        },
        |built| assert!(built == &insts, "built instances differ from the source"),
    );
    Row {
        document: "bipartite".into(),
        read: "value".into(),
        instances: COUNT,
        k: 2,
        n: N,
        bytes: text.len() as u64,
        numbers,
        instance_bytes: insts.iter().map(|i| i.resident_bytes() as u64).sum(),
        parse_median_ns,
        parse_iqr_ns,
        build_median_ns,
        build_iqr_ns,
    }
}

/// The instance of the k-partite document.
fn kpartite_instance() -> KPartiteInstance {
    uniform_kpartite(KARY_K, KARY_N, &mut rng(802))
}

fn kpartite_row() -> Row {
    let inst = kpartite_instance();
    let text = serde_json::to_string(&KPartiteDto::from(&inst)).expect("renders");
    let numbers = numbers(&serde_json::from_str(&text).expect("parses"));
    let [(parse_median_ns, parse_iqr_ns), (build_median_ns, build_iqr_ns)] = measure(
        &text,
        |t| serde_json::from_str::<KPartiteDto>(t).expect("parses"),
        |dto| KPartiteInstance::try_from(dto).expect("generated instance builds"),
        |built| assert!(built == &inst, "built instance differs from the source"),
    );
    Row {
        document: "kpartite".into(),
        read: "typed".into(),
        instances: 1,
        k: KARY_K,
        n: KARY_N,
        bytes: text.len() as u64,
        numbers,
        instance_bytes: inst.resident_bytes() as u64,
        parse_median_ns,
        parse_iqr_ns,
        build_median_ns,
        build_iqr_ns,
    }
}

fn kary_check_row() -> CheckRow {
    /// Checks per timed sample: one takes under a millisecond.
    const CHECKS: u32 = 20;
    let inst = kpartite_instance();
    let matching = bind(&inst, &BindingTree::path(KARY_K));
    // `measure`'s first timed step runs the checks; its second does
    // nothing.
    let [(median, iqr), _] = measure(
        "",
        |_| (0..CHECKS).all(|_| find_blocking_family(&inst, &matching).is_none()),
        |stable| stable,
        |&stable| assert!(stable, "a bound matching is stable"),
    );
    CheckRow {
        k: KARY_K,
        n: KARY_N,
        check_median_ns: median / f64::from(CHECKS),
        check_iqr_ns: iqr / f64::from(CHECKS),
    }
}

fn main() {
    let rows = vec![bipartite_row(), kpartite_row()];
    for row in &rows {
        println!(
            "{:>9} ({}): {} bytes, {} numbers, {} instance bytes; \
             parse {:.2} ms (IQR {:.2}), build {:.2} ms (IQR {:.2}), {:.0} MB/s parse",
            row.document,
            row.read,
            row.bytes,
            row.numbers,
            row.instance_bytes,
            row.parse_median_ns / 1e6,
            row.parse_iqr_ns / 1e6,
            row.build_median_ns / 1e6,
            row.build_iqr_ns / 1e6,
            row.bytes as f64 / row.parse_median_ns * 1e3,
        );
    }
    let kary_check = kary_check_row();
    let CheckRow { k, n, .. } = kary_check;
    let (median, iqr) = (
        kary_check.check_median_ns / 1e6,
        kary_check.check_iqr_ns / 1e6,
    );
    println!("kary_check (k = {k}, n = {n}): check {median:.3} ms (IQR {iqr:.3})");
    write_results(
        "BENCH_ingest.json",
        &Report {
            host: host(),
            reps: REPS,
            rows,
            kary_check,
        },
    );
}
