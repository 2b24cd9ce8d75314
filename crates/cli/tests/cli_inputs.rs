//! The `kmatch` binary on inputs that name the wrong sizes: a hostile
//! `verify kary --matching` file is the one `error:` line and exit 1, and
//! a batch reports the `--n` it was asked for.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

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
