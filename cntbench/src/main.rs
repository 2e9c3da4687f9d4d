//! `cntbench`: runs one benchmark workload and prints its metrics.
//!
//! ```text
//! cntbench run --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Prints a human-readable table, a `cntbench-record` line with every
//! sample summary, and — as the last line — one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 0 when every
//! output matched its reference, 1 on a mismatch or failure, 2 on a
//! usage error. A traced run (`--trace 1`) also writes its spans to
//! `.cntbench/spans/<workload>-seed<n>.jsonl`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use cnt_benchmark::{run, Outcome, RunOptions, Scale, WORKLOADS};
use serde::Value;

const USAGE: &str =
    "usage: cntbench run --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// Where the benchmark keeps its files, relative to the directory it
/// runs in.
const WORK_ROOT: &str = ".cntbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut it = args.iter();
    if it.next().map(String::as_str) != Some("run") {
        return Err("expected the `run` command".to_string());
    }
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        traced: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = || format!("`{flag}`: invalid value `{value}`");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds >= 0.0 && parsed.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "`--workload` must be one of: {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(parsed)
}

/// The checked-out commit, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |path: &Path| std::fs::read_to_string(path).ok();
    let git = Path::new(".git");
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&git.join(reference)) {
        return rev.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn num(v: f64) -> Value {
    Value::F64(v)
}

fn print_report(args: &Args, outcome: &Outcome, coverage: Option<f64>) {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let rev = git_rev();
    println!(
        "cntbench: workload={} seed={} traced={} cores={cores} jobs={} git_rev={rev}",
        args.workload, args.seed, args.traced, outcome.jobs
    );
    println!(
        "cntbench: attempted={} failed={} error_rate={}",
        outcome.tally.attempted,
        outcome.tally.failed,
        outcome.tally.error_rate()
    );
    if let Some(coverage) = coverage {
        println!(
            "cntbench: spans cover {:.1}% of the traced window",
            coverage * 100.0
        );
    }
    println!(
        "{:<36} {:>8} {:>14} {:>14} {:>14} {:>6}",
        "metric", "unit", "median", "q1", "q3", "n"
    );
    let rows = outcome
        .metrics
        .iter()
        .map(|(m, s)| (m.name.as_str(), m.unit, s))
        .chain(outcome.details.iter().map(|d| (d.name, d.unit, &d.summary)));
    let mut summaries = Vec::new();
    for (name, unit, s) in rows {
        println!(
            "{name:<36} {unit:>8} {:>14.6} {:>14.6} {:>14.6} {:>6}",
            s.median, s.q1, s.q3, s.n
        );
        summaries.push((
            name.to_string(),
            Value::Map(vec![
                ("unit".into(), Value::Str(unit.into())),
                ("median".into(), num(s.median)),
                ("q1".into(), num(s.q1)),
                ("q3".into(), num(s.q3)),
                ("n".into(), Value::U64(s.n as u64)),
            ]),
        ));
    }
    let record = Value::Map(vec![
        ("workload".into(), Value::Str(args.workload.clone())),
        ("seed".into(), Value::U64(args.seed)),
        ("traced".into(), Value::Bool(args.traced)),
        ("cores".into(), Value::U64(cores as u64)),
        ("jobs".into(), Value::U64(outcome.jobs as u64)),
        ("git_rev".into(), Value::Str(rev)),
        ("attempted".into(), Value::U64(outcome.tally.attempted)),
        ("failed".into(), Value::U64(outcome.tally.failed)),
        ("error_rate".into(), num(outcome.tally.error_rate())),
        ("coverage".into(), coverage.map_or(Value::Null, num)),
        ("metrics".into(), Value::Map(summaries)),
    ]);
    println!(
        "cntbench-record {}",
        serde_json::to_string(&record).expect("finite metrics")
    );
    let metrics = outcome
        .metrics
        .iter()
        .map(|(m, s)| {
            (
                m.name.clone(),
                Value::Map(vec![
                    ("value".into(), num(s.median)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    let result = Value::Map(vec![
        ("correct".into(), Value::Bool(outcome.correct())),
        ("attempted".into(), Value::U64(outcome.tally.attempted)),
        ("failed".into(), Value::U64(outcome.tally.failed)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("finite metrics")
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cntbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dir = PathBuf::from(WORK_ROOT).join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cntbench: `{}`: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let opts = RunOptions {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        scale: Scale::full(),
        dir: dir.clone(),
    };
    let outcome = run(&opts);
    std::fs::remove_dir_all(&dir).ok();
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("cntbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let coverage = match &outcome.trace {
        Some(trace) => {
            let spans = PathBuf::from(WORK_ROOT).join("spans");
            let path = spans.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
            let written = std::fs::create_dir_all(&spans)
                .and_then(|()| std::fs::write(&path, trace.to_jsonl()));
            if let Err(e) = written {
                eprintln!("cntbench: `{}`: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("cntbench: spans written to {}", path.display());
            Some(trace.coverage())
        }
        None => None,
    };
    print_report(&args, &outcome, coverage);
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "cntbench: {} of {} checked operations did not match their reference",
            outcome.tally.failed, outcome.tally.attempted
        );
        ExitCode::FAILURE
    }
}
