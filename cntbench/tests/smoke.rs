//! Every workload at a reduced size, untraced and traced, through the
//! library: outputs match their references, every declared metric is
//! printed and finite, and the traced run's spans explain its wall time.

use std::path::PathBuf;

use cnt_benchmark::metrics::{end_to_end, per_layer};
use cnt_benchmark::{run, Outcome, RunOptions, Scale};

fn smoke_scale() -> Scale {
    Scale {
        stream_accesses: 20_000,
        write_accesses: 20_000,
        experiments: vec!["table1", "fig2", "fig13"],
        paper_suite: cnt_workloads::suite_small,
        serve_accesses: 2_000,
        // The fewest sessions a p90 may be read from.
        min_sessions: 100,
        min_ops: 1,
        setup_reps: 1,
        traced_reps: 1,
    }
}

fn run_smoke(workload: &str, traced: bool) -> Outcome {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{workload}-{traced}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let outcome = run(&RunOptions {
        workload: workload.to_string(),
        seed: 2,
        seconds: 0.0,
        traced,
        scale: smoke_scale(),
        dir: dir.clone(),
    })
    .unwrap_or_else(|e| panic!("{workload} (traced: {traced}): {e}"));
    assert!(
        !dir.join("spans").exists(),
        "spans are written by the caller once the run ends, never during it"
    );
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        outcome.tally.error_rate(),
        0.0,
        "{workload}: {:?}",
        outcome.tally
    );
    assert!(outcome.tally.attempted > 0);
    assert!(outcome.correct());
    outcome
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|(m, _)| m.name == name)
        .map(|(_, s)| s.median)
        .unwrap_or_else(|| panic!("`{name}` not printed"))
}

/// Layer metrics every workload measures: the engine's, by differential
/// runs over the workload's own accesses.
const ENGINE: &[&str] = &[
    "workloads.generate_s",
    "sim.ns_per_acc",
    "sim.hit_rate",
    "sim.evictions_per_kacc",
    "sim.writebacks_per_kacc",
    "energy.meter_ns_per_acc",
    "energy.mbits_charged",
    "energy.saving_pct",
    "encoding.adaptive_ns_per_acc",
    "encoding.secded_ns_per_acc",
    "encoding.switch_decisions_per_kacc",
    "encoding.apply_ratio",
    "encoding.fifo_pushed",
    "encoding.fifo_drained",
    "encoding.fifo_cancelled",
    "encoding.fifo_dropped",
    "encoding.fifo_max_occupancy",
    "encoding.realized_over_projected",
    "core.baseline_ns_per_acc",
    "core.adaptive_ns_per_acc",
    "core.metadata_ns_per_acc",
    "core.flush_ms",
    "tracing_overhead_pct",
];

const INGEST: &[&str] = &[
    "trace.pack_s",
    "trace.read_ns_per_chunk",
    "trace.decode_ns_per_acc",
    "trace.chunks",
    "trace.mib_read",
    "trace.crc_failures",
];

/// The layer metrics each workload measures beyond [`ENGINE`]; the rest
/// read 0 because the workload does not run through that layer.
fn layers_of(workload: &str) -> Vec<String> {
    let own: Vec<&str> = match workload {
        "stream-mixed" => [INGEST, &["stream.unattributed_pct"]].concat(),
        "write-heavy" => Vec::new(),
        "paper-experiments" => vec![
            "pool.busy_s",
            "pool.utilization",
            "pool.straggler_s",
            "pool.tail_s",
        ],
        "serve-sessions" => [
            INGEST,
            &[
                "trace.ckpt_store_ms",
                "trace.ckpts",
                "trace.ckpt_kib",
                "obs.overhead_ns_per_acc",
                "obs.snapshots",
                "obs.jsonl_kib",
                "obs.to_jsonl_ms",
                "serve.connect_ms",
                "serve.admit_ms",
                "serve.upload_ms",
                "serve.first_obs_ms",
                "serve.drain_ms",
                "serve.queued",
                "serve.refused",
                "serve.diverged",
                "serve.overhead_ms",
            ],
        ]
        .concat(),
        other => panic!("unknown workload {other}"),
    };
    let mut names: Vec<String> = ENGINE.iter().chain(&own).map(|s| s.to_string()).collect();
    if workload == "paper-experiments" {
        names.extend(
            smoke_scale()
                .experiments
                .iter()
                .map(|id| format!("experiments.{id}_s")),
        );
    }
    names
}

fn check(workload: &str) {
    let untraced = run_smoke(workload, false);
    let names: Vec<&str> = untraced
        .metrics
        .iter()
        .map(|(m, _)| m.name.as_str())
        .collect();
    let declared: Vec<String> = end_to_end().into_iter().map(|m| m.name).collect();
    assert_eq!(names, declared);
    assert_eq!(
        untraced.measured, declared,
        "{workload} skipped an end-to-end metric"
    );
    for (m, s) in &untraced.metrics {
        assert!(
            s.median.is_finite() && s.median > 0.0,
            "{workload}: end-to-end metric {} must be finite and nonzero, got {s:?}",
            m.name
        );
    }

    let traced = run_smoke(workload, true);
    let names: Vec<&str> = traced
        .metrics
        .iter()
        .map(|(m, _)| m.name.as_str())
        .collect();
    let declared: Vec<String> = per_layer().into_iter().map(|m| m.name).collect();
    assert_eq!(names, declared);
    assert!(traced.metrics.iter().all(|(_, s)| s.median.is_finite()));
    let mut measured = traced.measured.clone();
    let mut expected = layers_of(workload);
    measured.sort();
    expected.sort();
    assert_eq!(
        measured, expected,
        "{workload} measured an unexpected set of layers"
    );

    // The engine's differential terms telescope to the adaptive cost.
    let sum = [
        "sim.ns_per_acc",
        "energy.meter_ns_per_acc",
        "encoding.adaptive_ns_per_acc",
        "core.metadata_ns_per_acc",
    ]
    .iter()
    .map(|name| value(&traced, name))
    .sum::<f64>();
    let adaptive = value(&traced, "core.adaptive_ns_per_acc");
    assert!(
        (sum - adaptive).abs() <= 1e-9 * adaptive.abs(),
        "{workload}: layers sum to {sum}, adaptive is {adaptive}"
    );

    let trace = traced.trace.expect("traced runs return their spans");
    assert!(
        trace.coverage() >= 0.95,
        "{workload}: spans cover only {:.1}% of the traced window",
        trace.coverage() * 100.0
    );
    let jsonl = trace.to_jsonl();
    assert_eq!(jsonl.lines().count(), trace.spans.len());
    for line in jsonl.lines() {
        let span: serde::Value = serde_json::from_str(line).expect("span lines are JSON");
        for key in ["id", "parent", "name", "group", "start_ns", "end_ns"] {
            assert!(span.get(key).is_some(), "span line lacks `{key}`: {line}");
        }
    }
}

#[test]
fn layer_table_covers_every_per_layer_metric() {
    let mut covered: Vec<String> = [
        "stream-mixed",
        "write-heavy",
        "paper-experiments",
        "serve-sessions",
    ]
    .into_iter()
    .flat_map(layers_of)
    .collect();
    covered.extend(
        cnt_bench::experiments::ALL
            .iter()
            .map(|id| format!("experiments.{id}_s")),
    );
    covered.sort();
    covered.dedup();
    let mut declared: Vec<String> = per_layer().into_iter().map(|m| m.name).collect();
    declared.sort();
    assert_eq!(
        covered, declared,
        "every layer metric is measured by some workload"
    );
}

#[test]
fn stream_mixed() {
    check("stream-mixed");
}

#[test]
fn write_heavy() {
    check("write-heavy");
}

#[test]
fn paper_experiments() {
    check("paper-experiments");
}

#[test]
fn serve_sessions() {
    check("serve-sessions");
}
