//! The metrics stream must be deterministic across `--jobs` settings:
//! the same replays produce the same snapshot stream whether they ran
//! sequentially or interleaved on the worker pool, because replay ids
//! come from program structure, pool workers record into the caller's
//! sink, and the sink sorts by (id, epoch) before rendering.
//!
//! The pool's job count is process-wide, so the whole comparison lives
//! in ONE `#[test]`.

use cnt_bench::pool;
use cnt_bench::runner::run_dcache_matrix;
use cnt_cache::EncodingPolicy;
use cnt_workloads::Workload;

fn small_matrix() -> Vec<Workload> {
    // A few cheap kernels: enough fan-out for the pool to actually
    // interleave, cheap enough to replay four times in a debug test.
    cnt_workloads::suite_small()
}

/// Runs the (workload x policy) matrix under a sink installed on this
/// thread and returns the rendered JSONL.
fn matrix_jsonl(jobs: usize, every: u64) -> String {
    pool::set_jobs(jobs);
    let sink = cnt_obs::install_local(every, None);
    let policies = [EncodingPolicy::None, EncodingPolicy::adaptive_default()];
    let _scope = cnt_obs::scoped("matrix");
    let matrix = run_dcache_matrix(&small_matrix(), &policies);
    assert!(!matrix.is_empty());
    let snapshots = sink.finish();
    assert!(
        !snapshots.is_empty(),
        "tracing was enabled, expected snapshots"
    );
    cnt_obs::to_jsonl(&snapshots).expect("snapshots serialize")
}

#[test]
fn metrics_stream_is_byte_identical_across_jobs() {
    const EVERY: u64 = 2_000;

    // A worker that does not adopt the caller's sink drops its replays'
    // snapshots, so the parallel stream comes out shorter.
    let sequential = matrix_jsonl(1, EVERY);
    let parallel = matrix_jsonl(2, EVERY);
    assert_eq!(
        sequential, parallel,
        "snapshot stream must not depend on the worker count"
    );

    // The stream is well-formed, covers every matrix cell, and each
    // cell's replay id carries the fan-out structure.
    let summary = cnt_obs::validate_jsonl(&sequential).expect("valid stream");
    let cells = small_matrix().len() * 2;
    assert_eq!(
        summary.experiments, cells,
        "one stream per (workload, policy)"
    );
    assert!(
        summary.snapshots >= cells,
        "at least one snapshot per replay"
    );
    let first_line = sequential.lines().next().expect("non-empty");
    let first: cnt_obs::Snapshot = serde_json::from_str(first_line).expect("parses");
    assert!(
        first.experiment.starts_with("matrix/f0000/i") && first.experiment.ends_with("/r0000"),
        "replay id should be scope-structured, got `{}`",
        first.experiment
    );

    // With the sink finished, tracing is off again and nothing leaks into
    // a later install.
    assert!(!cnt_obs::is_enabled());
}
