//! `bench_throughput` flag validation: options that only tune the
//! `--stages` report must be refused elsewhere instead of being
//! silently ignored by the parallel-matrix run.

use std::path::PathBuf;
use std::process::Command;

/// A fresh, empty working directory, so a run that wrongly proceeds
/// cannot touch the committed `BENCH_*.json` records.
fn empty_workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cnt_bench_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creates the working dir");
    dir
}

#[test]
fn stage_only_flags_are_rejected_outside_stages() {
    let dir = empty_workdir("stage_only");
    let cases: [&[&str]; 5] = [
        &["--iters", "10"],
        &["--warmup", "0"],
        &["--baseline", "nonexistent.json"],
        &["--gate", "BENCH_simd.json"],
        &[
            "--iters",
            "10",
            "--warmup",
            "0",
            "--baseline",
            "nonexistent.json",
            "--out",
            "x.json",
        ],
    ];
    for args in cases {
        let output = Command::new(env!("CARGO_BIN_EXE_bench_throughput"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("runs bench_throughput");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("only applies to --stages"),
            "{args:?}: {stderr}"
        );
    }
    let leftovers: Vec<_> = std::fs::read_dir(&dir).expect("lists").collect();
    assert!(leftovers.is_empty(), "a rejected run wrote {leftovers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
