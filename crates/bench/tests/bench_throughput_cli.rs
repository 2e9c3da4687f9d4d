//! `bench_throughput` flag validation: the flags of the retired matrix
//! mode are unknown arguments, and a bad `--gate` file fails before any
//! timing, so neither case writes a record.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty working directory, so a run that wrongly proceeds
/// cannot touch the committed `BENCH_*.json` records.
fn empty_workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cnt_bench_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creates the working dir");
    dir
}

fn bench_throughput(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench_throughput"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("runs bench_throughput")
}

fn assert_empty(dir: &Path, args: &[&str]) {
    let leftovers: Vec<_> = std::fs::read_dir(dir).expect("lists").collect();
    assert!(leftovers.is_empty(), "{args:?} wrote {leftovers:?}");
}

#[test]
fn retired_flags_exit_2_and_write_nothing() {
    let dir = empty_workdir("retired");
    let cases: [&[&str]; 6] = [
        &["--jobs", "2"],
        &["--trace", "t.ctr"],
        &["--workloads", "*"],
        &["--metrics-out", "m.jsonl"],
        &["--baseline", "b.json"],
        &["--stages"],
    ];
    for args in cases {
        let output = bench_throughput(&dir, args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("unknown argument"), "{args:?}: {stderr}");
        assert_empty(&dir, args);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_bad_gate_fails_before_timing_and_writes_nothing() {
    let dir = empty_workdir("gate");
    // The pre-row `BENCH_simd.json` shape is no longer a gate record.
    std::fs::write(
        dir.join("old.json"),
        r#"{"cores": 1, "baseline_accesses_per_second": 1.0, "stages": []}"#,
    )
    .expect("writes the old record");
    for gate in ["missing.json", "old.json"] {
        let args = ["--gate", gate, "--out", "x.json"];
        let output = bench_throughput(&dir, &args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("cannot load gate record"),
            "{args:?}: {stderr}"
        );
        assert!(
            !stderr.contains("timing"),
            "{args:?} timed stages: {stderr}"
        );
        assert!(!dir.join("x.json").exists(), "{args:?} wrote x.json");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
