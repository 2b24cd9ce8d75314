//! The `kmatch` binary on inputs that name the wrong sizes: a hostile
//! `verify kary --matching` file is the one `error:` line and exit 1, a
//! batch reports the `--n` it was asked for, a plain `bind` writes the
//! report `--metrics-out` asks for, and a stdout closed early is the one
//! `error:` line, not a panic, whichever command was writing.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use serde::Value;

fn kmatch(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_kmatch"))
        .args(args)
        .output()
        .expect("kmatch runs")
}

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kmatch-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn path(p: &Path) -> &str {
    p.to_str().expect("UTF-8 temp path")
}

#[test]
fn verify_kary_rejects_a_hostile_matching_file() {
    let dir = scratch("verify");
    let inst = dir.join("inst.json");
    let gen = kmatch(&[
        "gen",
        "kpartite",
        "--k",
        "3",
        "--n",
        "4",
        "--out",
        path(&inst),
    ]);
    assert!(gen.status.success());
    for (name, tuples, why) in [
        (
            "families.json",
            "[[0,0,0],[1,1,1]]",
            "need exactly n = 4 families, got 2",
        ),
        (
            "member.json",
            "[[0,0,0],[1,1,1],[2,2,2],[3,9,3]]",
            "member index out of range: (1,9) with n = 4",
        ),
    ] {
        let matching = dir.join(name);
        std::fs::write(&matching, tuples).unwrap();
        let out = kmatch(&[
            "verify",
            "kary",
            "--input",
            path(&inst),
            "--matching",
            path(&matching),
        ]);
        assert_eq!(out.status.code(), Some(1), "{name}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("error: {}: {why}\n", path(&matching))
        );
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn batch_reports_the_requested_n() {
    let dir = scratch("batch-n");
    let report = dir.join("report.json");
    let run = |args: &[&str]| {
        let mut args = args.to_vec();
        args.extend(["--metrics-out", path(&report)]);
        let out = kmatch(&args);
        assert!(out.status.success(), "{args:?}");
        let v: Value = serde_json::from_str(&std::fs::read_to_string(&report).unwrap()).unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        (v.get("n").cloned(), v.get("instances").cloned(), stdout)
    };
    let num = |x: f64| Some(Value::Number(x));
    // A generated batch, even an empty one, is of the requested size.
    for kind in ["gs", "roommates"] {
        let (n, count, stdout) = run(&["batch", "--kind", kind, "--n", "4", "--count", "0"]);
        assert_eq!((n, count), (num(4.0), num(0.0)), "{kind}");
        assert!(stdout.contains(&format!("0 x n=4 ({kind})")), "{stdout}");
    }
    // An --input batch is named by its largest instance.
    let gs = dir.join("gs.json");
    std::fs::write(
        &gs,
        r#"[{"n": 2, "proposers": [[0, 1], [1, 0]], "responders": [[0, 1], [1, 0]]},
            {"n": 3, "proposers": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
             "responders": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}]"#,
    )
    .unwrap();
    let rm = dir.join("rm.json");
    std::fs::write(
        &rm,
        r#"[{"n": 2, "lists": [[1], [0]]},
            {"n": 4, "lists": [[1, 2, 3], [2, 3, 0], [3, 0, 1], [0, 1, 2]]}]"#,
    )
    .unwrap();
    for (kind, input, want) in [("gs", &gs, 3.0), ("roommates", &rm, 4.0)] {
        let (n, count, _) = run(&["batch", "--kind", kind, "--input", path(input)]);
        assert_eq!((n, count), (num(want), num(2.0)), "{kind}");
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn bind_writes_its_metrics_report_without_incremental() {
    let dir = scratch("bind-report");
    let (inst, report) = (dir.join("kp.json"), dir.join("m.json"));
    let gen = kmatch(&["gen", "kpartite", "--k", "3", "--n", "4", "--out", path(&inst)]);
    assert!(gen.status.success());
    let bind = kmatch(&[
        "bind",
        "--input",
        path(&inst),
        "--tree",
        "path",
        "--metrics-out",
        path(&report),
    ]);
    assert!(bind.status.success(), "{}", String::from_utf8_lossy(&bind.stderr));
    let validate = kmatch(&["report", "validate", "--input", path(&report)]);
    assert!(validate.status.success(), "{}", String::from_utf8_lossy(&validate.stderr));
    let v: Value = serde_json::from_str(&std::fs::read_to_string(&report).unwrap()).unwrap();
    assert_eq!(v.get("kind"), Some(&Value::String("bind".into())));
    let counters = v.get("metrics").and_then(|m| m.get("counters")).unwrap();
    assert_eq!(counters.get("theorem3_checks"), Some(&Value::Number(1.0)));
    assert_eq!(counters.get("theorem3_violations"), Some(&Value::Number(0.0)));
    std::fs::remove_dir_all(dir).unwrap();
}

/// Small inputs for the commands that read files. Every closed-stdout
/// test writes them into its own scratch directory, and an argument
/// `@name` stands for the file `name` there.
const FIXTURES: &[(&str, &str)] = &[
    (
        "kpartite.json",
        r#"{"k": 3, "n": 2, "lists": [[[[], [0, 1], [0, 1]], [[], [1, 0], [0, 1]]],
            [[[1, 0], [], [1, 0]], [[0, 1], [], [1, 0]]],
            [[[1, 0], [1, 0], []], [[1, 0], [0, 1], []]]]}"#,
    ),
    ("matching.json", "[[0, 0, 0], [1, 1, 1]]"),
    (
        "roommates.json",
        r#"{"n": 4, "lists": [[1, 2, 3], [2, 0, 3], [0, 1, 3], [0, 1, 2]]}"#,
    ),
    (
        "bipartite.json",
        r#"{"n": 2, "proposers": [[0, 1], [1, 0]], "responders": [[1, 0], [0, 1]]}"#,
    ),
    (
        "deltas.json",
        r#"[{"op": "swap", "side": "proposer", "row": 0, "prefs": [], "a": 0, "b": 1, "from": 0, "to": 0}]"#,
    ),
];

/// Runs `kmatch args` with the read end of its stdout closed before the
/// child starts, so its first write to stdout fails, as under
/// `kmatch ... | head -1`: the command must end through its error path
/// (exit 1, the one `error: stdout:` line), never a panic.
fn assert_closed_stdout_is_an_error(name: &str, args: &[&str]) {
    let dir = scratch(name);
    for (file, text) in FIXTURES {
        std::fs::write(dir.join(file), text).unwrap();
    }
    let args: Vec<String> = args
        .iter()
        .map(|a| match a.strip_prefix('@') {
            Some(file) => path(&dir.join(file)).to_string(),
            None => a.to_string(),
        })
        .collect();
    if args.iter().any(|a| a.ends_with("run-report.json")) {
        let report = path(&dir.join("run-report.json")).to_string();
        let batch = kmatch(&["batch", "--n", "4", "--metrics-out", &report]);
        assert!(batch.status.success());
    }
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_kmatch"))
        .args(&args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("kmatch runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.starts_with("error: stdout: "), "{args:?}: {stderr}");
    std::fs::remove_dir_all(dir).unwrap();
}

/// One test per command line: each writes its stdout through its own code.
macro_rules! closed_stdout {
    ($($name:ident: [$($arg:expr),*];)*) => {$(
        #[test]
        fn $name() {
            assert_closed_stdout_is_an_error(stringify!($name), &[$($arg),*]);
        }
    )*};
}

closed_stdout! {
    closed_stdout_is_an_error_not_a_panic: ["batch", "--n", "64", "--count", "200"];
    closed_stdout_ends_a_roommates_batch: ["batch", "--kind", "roommates", "--n", "16"];
    closed_stdout_ends_a_cached_batch: ["batch", "--n", "8", "--count", "4", "--cache", "on"];
    closed_stdout_ends_a_metered_batch: ["batch", "--n", "8", "--metrics-out", "@report.json"];
    closed_stdout_ends_a_traced_batch: ["batch", "--n", "8", "--trace-out", "@trace.json"];
    closed_stdout_ends_solve_smp: ["solve", "smp", "--n", "8", "--seed", "2"];
    closed_stdout_ends_a_lazy_solve_smp: ["solve", "smp", "--n", "8", "--prefs", "random"];
    closed_stdout_ends_solve_roommates: ["solve", "roommates", "--n", "20"];
    closed_stdout_ends_gen_kpartite: ["gen", "kpartite", "--k", "3", "--n", "4"];
    closed_stdout_ends_gen_theorem1: ["gen", "theorem1", "--k", "3", "--n", "2"];
    closed_stdout_ends_lattice: ["lattice", "--n", "6", "--seed", "3"];
    closed_stdout_ends_render_tree: ["render-tree", "--k", "4", "--tree", "star"];
    closed_stdout_ends_solve_kary: ["solve", "kary", "--input", "@kpartite.json"];
    closed_stdout_ends_solve_binary: ["solve", "binary", "--input", "@roommates.json"];
    closed_stdout_ends_trace: ["trace", "--input", "@roommates.json"];
    closed_stdout_ends_verify_kary:
        ["verify", "kary", "--input", "@kpartite.json", "--matching", "@matching.json"];
    closed_stdout_ends_bind: ["bind", "--input", "@kpartite.json"];
    closed_stdout_ends_an_incremental_bind:
        ["bind", "--input", "@kpartite.json", "--incremental", "true"];
    closed_stdout_ends_delta: ["delta", "--input", "@bipartite.json", "--deltas", "@deltas.json"];
    closed_stdout_ends_report_validate: ["report", "validate", "--input", "@run-report.json"];
}
