//! `metrics_lint` on bench records: the committed records pass, and
//! each fault a row file can carry fails with exit 1 and its reason.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repo_file(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name)
}

fn metrics_lint(path: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_metrics_lint"))
        .arg(path)
        .output()
        .expect("runs metrics_lint")
}

/// One row in `BENCH_simd.json`'s shape, with `edit` applied to its
/// JSON fields.
fn row(case: &str, edit: &[(&str, &str)]) -> String {
    let mut fields = vec![
        ("suite", "\"stages\"".to_string()),
        ("case", format!("\"{case}\"")),
        ("unit", "\"accesses/s\"".to_string()),
        ("cores", "2".to_string()),
        ("jobs", "1".to_string()),
        ("iters", "10".to_string()),
        ("warmup", "2".to_string()),
        ("median", "100.0".to_string()),
        ("q1", "90.0".to_string()),
        ("q3", "110.0".to_string()),
    ];
    for (key, value) in edit {
        let field = fields
            .iter_mut()
            .find(|(k, _)| k == key)
            .expect("known field");
        field.1 = (*value).to_string();
    }
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[test]
fn committed_records_lint_clean() {
    for name in ["BENCH_simd.json", "BENCH_workloads.json"] {
        let output = metrics_lint(&repo_file(name));
        assert_eq!(
            output.status.code(),
            Some(0),
            "{name}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
}

#[test]
fn faulty_row_files_fail_with_their_reason() {
    let dir = std::env::temp_dir().join(format!("cnt_metrics_lint_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creates the working dir");
    let cases = [
        ("empty", "[]".to_string(), "no rows"),
        (
            "zero_iters",
            format!("[{}]", row("replay", &[("iters", "0")])),
            "zero measured iterations",
        ),
        (
            "negative_median",
            format!("[{}]", row("replay", &[("median", "-1.0"), ("q1", "-2.0")])),
            "not a finite non-negative number",
        ),
        (
            "q1_above_median",
            format!("[{}]", row("replay", &[("q1", "101.0")])),
            "quartiles out of order",
        ),
        (
            "median_above_q3",
            format!("[{}]", row("replay", &[("q3", "99.0")])),
            "quartiles out of order",
        ),
        (
            "jobs_over_cores",
            format!("[{}]", row("replay", &[("jobs", "4")])),
            "exceed the 2 core(s)",
        ),
        (
            "duplicate",
            format!("[{}, {}]", row("replay", &[]), row("replay", &[])),
            "duplicate (suite, case)",
        ),
        // The last committed sequential-vs-parallel matrix record,
        // verbatim: its shape is no bench record any more.
        (
            "old_parallel",
            r#"{
  "cores": 2,
  "workloads": 10,
  "policies_per_workload": 2,
  "accesses_per_pass": 1018374,
  "sequential": {
    "jobs": 1,
    "wall_seconds": 0.100642949,
    "accesses_per_second": 10118682.035042515,
    "iters": 1,
    "warmup": 1
  },
  "parallel": {
    "jobs": 2,
    "wall_seconds": 0.105969144,
    "accesses_per_second": 9610099.3323113,
    "iters": 1,
    "warmup": 1
  },
  "skip_note": "parallel-scaling measurement skipped: 2 core(s) at measurement time, a >=4-core box is required for a meaningful speedup claim"
}"#
            .to_string(),
            "not a recognised bench record",
        ),
    ];
    for (name, text, reason) in cases {
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, text).expect("writes the case");
        let output = metrics_lint(&path);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{name}: {stderr}");
        assert!(
            stderr.contains(reason),
            "{name}: expected `{reason}` in {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
