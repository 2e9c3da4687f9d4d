//! `BENCHMARK.json` and the metrics `cntbench` prints must agree.

use cnt_benchmark::metrics::{end_to_end, per_layer, Metric};
use cnt_benchmark::{run, RunOptions, Scale, WORKLOADS};
use serde::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(json: &'a Value, key: &str) -> &'a [Value] {
    match json.get(key) {
        Some(Value::Seq(items)) => items,
        other => panic!("`{key}` is not a list: {other:?}"),
    }
}

fn keys(entry: &Value) -> Vec<&str> {
    match entry {
        Value::Map(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

fn text<'a>(entry: &'a Value, key: &str) -> &'a str {
    match entry.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("`{key}` is not a string: {other:?}"),
    }
}

fn number(entry: &Value, key: &str) -> f64 {
    match entry.get(key) {
        Some(Value::F64(v)) => *v,
        Some(Value::U64(v)) => *v as f64,
        other => panic!("`{key}` is not a number: {other:?}"),
    }
}

fn assert_declared(json: &Value, key: &str, metrics: &[Metric]) {
    let declared = entries(json, key);
    assert_eq!(
        declared.iter().map(|e| text(e, "name")).collect::<Vec<_>>(),
        metrics.iter().map(|m| m.name.as_str()).collect::<Vec<_>>(),
        "`{key}` names and order must match what cntbench prints"
    );
    for (entry, metric) in declared.iter().zip(metrics) {
        assert_eq!(text(entry, "unit"), metric.unit, "{}", metric.name);
        assert_eq!(
            text(entry, "better"),
            metric.better.as_str(),
            "{}",
            metric.name
        );
        match metric.bound {
            Some(bound) => {
                assert_eq!(keys(entry), ["name", "unit", "better", "bound"]);
                assert_eq!(number(entry, "bound"), bound, "{}", metric.name);
                assert!(bound > 0.0 && bound <= 0.25, "{}", metric.name);
            }
            None => assert_eq!(keys(entry), ["name", "unit", "better"]),
        }
    }
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn benchmark_json_declares_exactly_the_printed_metrics() {
    let json = benchmark_json();
    assert_eq!(
        keys(&json),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_declared(&json, "end_to_end", &end_to_end());
    assert_declared(&json, "per_layer", &per_layer());
    assert!(end_to_end().len() <= 16 && per_layer().len() <= 128);
}

#[test]
fn setup_time_has_the_largest_bound() {
    let e2e = end_to_end();
    let setup = e2e
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is declared");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    assert!(e2e.iter().all(|m| m.bound <= setup.bound));
}

#[test]
fn names_are_well_formed_and_unique() {
    let json = benchmark_json();
    let mut names: Vec<&str> = ["workloads", "end_to_end", "per_layer"]
        .into_iter()
        .flat_map(|key| entries(&json, key).iter().map(|e| text(e, "name")))
        .collect();
    for name in &names {
        assert!(
            valid_name(name),
            "`{name}` is not a valid metric or workload name"
        );
    }
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), count, "a name is used twice");
}

#[test]
fn every_listed_workload_dispatches() {
    let json = benchmark_json();
    let listed: Vec<&str> = entries(&json, "workloads")
        .iter()
        .map(|w| {
            assert_eq!(keys(w), ["name", "why"]);
            text(w, "name")
        })
        .collect();
    assert_eq!(listed, WORKLOADS);
    let unknown = RunOptions {
        workload: "no-such-workload".to_string(),
        seed: 1,
        seconds: 0.0,
        traced: false,
        scale: Scale::full(),
        dir: env!("CARGO_TARGET_TMPDIR").into(),
    };
    let err = run(&unknown).expect_err("unknown workloads are refused");
    assert!(WORKLOADS.iter().all(|w| err.contains(w)), "{err}");
}
