//! Serialisable result records for the throughput benchmarks
//! (`bench_throughput` writes `BENCH_parallel.json` for the
//! sequential-vs-parallel comparison and `BENCH_simd.json` for the
//! isolated hot-path stage report).

use serde::{Deserialize, Serialize};

fn one_iter() -> u32 {
    1
}

/// One timed replay of the suite matrix at a fixed `--jobs` setting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PassRecord {
    /// Worker threads the pool was capped at.
    pub jobs: usize,
    /// Wall-clock time for the whole matrix, in seconds.
    pub wall_seconds: f64,
    /// Trace accesses replayed per second of wall-clock.
    pub accesses_per_second: f64,
    /// Measured iterations behind the numbers. Records written before
    /// the field existed were single-shot, so absent parses as 1.
    #[serde(default = "one_iter")]
    pub iters: u32,
    /// Untimed warm-up iterations run before measuring (absent in old
    /// records, which warmed up exactly once — but the field defaults
    /// to 0 because the old shape never said so).
    #[serde(default)]
    pub warmup: u32,
}

/// The full sequential-vs-parallel comparison written to disk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Hardware threads the machine reported at measurement time. A
    /// speedup near 1.0x on `cores: 1` is the honest expectation, not a
    /// regression.
    pub cores: usize,
    /// Workloads in the replayed suite.
    pub workloads: usize,
    /// Encoding policies replayed per workload.
    pub policies_per_workload: usize,
    /// Trace accesses replayed per pass (workload trace lengths x
    /// policies).
    pub accesses_per_pass: u64,
    /// The `--jobs 1` pass.
    pub sequential: PassRecord,
    /// The `--jobs N` pass.
    pub parallel: PassRecord,
    /// Why the numbers should not be read as a parallel-scaling claim —
    /// set automatically when the measuring box has fewer than 4 cores,
    /// `null`/absent on a real multi-core measurement.
    #[serde(default)]
    pub skip_note: Option<String>,
}

impl BenchRecord {
    /// Sequential wall-clock divided by parallel wall-clock, or `0.0`
    /// for a degenerate zero-length parallel pass (the ratio must stay
    /// finite so it can be rendered and serialized anywhere).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.parallel.wall_seconds > 0.0 {
            self.sequential.wall_seconds / self.parallel.wall_seconds
        } else {
            0.0
        }
    }
}

/// The trace-replay service comparison written to `BENCH_serve.json` by
/// `bench_serve`: the same batch of sessions shipped to a `cnt-serve`
/// instance one at a time (serial) and all at once (concurrent). The
/// record only exists if every session's streamed metrics matched the
/// offline replay byte-for-byte.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeBenchRecord {
    /// Hardware threads the machine reported at measurement time.
    pub cores: usize,
    /// Worker threads each session's replay pool was capped at.
    pub jobs: usize,
    /// Sessions in the batch.
    pub sessions: usize,
    /// Trace accesses replayed per session (both passes of one session
    /// count once — the session replays the same accesses twice).
    pub accesses_per_session: u64,
    /// Sessions submitted one at a time, each waited to completion.
    pub serial: PassRecord,
    /// All sessions submitted concurrently.
    pub concurrent: PassRecord,
    /// Why the numbers should not be read as a parallel-scaling claim —
    /// set automatically when the measuring box has fewer than 4 cores,
    /// `null`/absent on a real multi-core measurement.
    #[serde(default)]
    pub skip_note: Option<String>,
}

impl ServeBenchRecord {
    /// Serial wall-clock divided by concurrent wall-clock (>1 means
    /// overlapping sessions won), or `0.0` for a degenerate zero-length
    /// concurrent pass.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.concurrent.wall_seconds > 0.0 {
            self.serial.wall_seconds / self.concurrent.wall_seconds
        } else {
            0.0
        }
    }
}

/// Mean / stddev / min over repeated timed iterations — the
/// criterion-style confidence shim (`N` warm iterations are discarded,
/// `N` measured iterations are summarised) without the dependency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterStats {
    /// Arithmetic mean across measured iterations.
    pub mean: f64,
    /// Population standard deviation across measured iterations (0.0
    /// for a single sample).
    pub stddev: f64,
    /// Smallest sample — the least-noisy lower bound on throughput.
    pub min: f64,
}

impl IterStats {
    /// Summarises a non-empty sample set.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "stats of nothing");
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        IterStats {
            mean,
            stddev: var.sqrt(),
            min,
        }
    }
}

/// One isolated hot-path stage timed by `bench_throughput --stages`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageRecord {
    /// Stage name: `popcount`, `decode`, `decision`, or `replay`.
    pub stage: String,
    /// Work items processed per measured iteration.
    pub items_per_iter: u64,
    /// What one item is (`lines`, `records`, `decisions`, `accesses`).
    pub unit: String,
    /// Measured iterations summarised below.
    pub iters: u32,
    /// Untimed warm-up iterations run first.
    pub warmup: u32,
    /// Items per second across the measured iterations.
    pub per_second: IterStats,
    /// `per_second.mean` over the baseline end-to-end accesses/sec.
    /// Zero when no baseline was available at measurement time.
    pub speedup_vs_baseline: f64,
}

/// The full `--stages` report committed as `BENCH_simd.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimdBenchRecord {
    /// Hardware threads at measurement time (all stages run on one).
    pub cores: usize,
    /// The end-to-end sequential accesses/sec this report compares
    /// against (from `BENCH_parallel.json`), or 0.0 if unavailable.
    pub baseline_accesses_per_second: f64,
    /// Per-stage throughput summaries.
    pub stages: Vec<StageRecord>,
}

impl SimdBenchRecord {
    /// Looks up a stage by name.
    #[must_use]
    pub fn stage(&self, name: &str) -> Option<&StageRecord> {
        self.stages.iter().find(|s| s.stage == name)
    }

    /// The largest per-stage speedup over the end-to-end baseline.
    #[must_use]
    pub fn best_speedup(&self) -> f64 {
        self.stages
            .iter()
            .map(|s| s.speedup_vs_baseline)
            .fold(0.0, f64::max)
    }

    /// Compares a fresh run against this committed record and returns
    /// one message per stage whose fresh mean dropped below
    /// `1.0 - tolerance` of the committed mean. Stages present in only
    /// one record are skipped — the gate protects what was promised,
    /// not the shape of the report.
    #[must_use]
    pub fn regressions_in(&self, fresh: &SimdBenchRecord, tolerance: f64) -> Vec<String> {
        let mut out = Vec::new();
        for committed in &self.stages {
            let Some(measured) = fresh.stage(&committed.stage) else {
                continue;
            };
            let floor = committed.per_second.mean * (1.0 - tolerance);
            if measured.per_second.mean < floor {
                out.push(format!(
                    "stage `{}`: {:.0} {}/s is below the gate floor {:.0} \
                     ({:.0}% of the committed mean {:.0})",
                    committed.stage,
                    measured.per_second.mean,
                    committed.unit,
                    floor,
                    (1.0 - tolerance) * 100.0,
                    committed.per_second.mean,
                ));
            }
        }
        out
    }
}

/// One workload's baseline-vs-adaptive energy comparison, one row of
/// the `--per-workload-baseline` table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadRow {
    /// Registry id: `synth/<kernel>` or `import/<stem>`.
    pub id: String,
    /// `synthetic` or `imported` — where the trace came from.
    pub source: String,
    /// Accesses in the workload trace (reads + writes; instruction
    /// fetches count as reads).
    pub accesses: u64,
    /// Read accesses, including instruction fetches.
    pub reads: u64,
    /// Write accesses.
    pub writes: u64,
    /// Cache-line bits written under the baseline (no-encoding) policy.
    /// The energy model charges per bit value written, so this — not a
    /// flip count — is the write-side work both policies share.
    pub bits_written: u64,
    /// Baseline read energy, femtojoules.
    pub baseline_read_fj: f64,
    /// Baseline write energy, femtojoules.
    pub baseline_write_fj: f64,
    /// Baseline total energy, femtojoules.
    pub baseline_total_fj: f64,
    /// Adaptive-encoding total energy, femtojoules.
    pub adaptive_total_fj: f64,
    /// `100 * (baseline_total - adaptive_total) / baseline_total`.
    pub saving_percent: f64,
}

/// The per-workload baseline table written to `BENCH_workloads.json`
/// by `experiments --per-workload-baseline`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadBenchRecord {
    /// Hardware threads the machine reported at measurement time.
    /// Energy numbers are deterministic regardless, but `metrics_lint`
    /// still wants the provenance note on small boxes.
    pub cores: usize,
    /// Encoding policies replayed per workload (baseline + adaptive).
    pub policies_per_workload: usize,
    /// One row per selected workload, sorted by id.
    pub rows: Vec<WorkloadRow>,
    /// Why throughput-adjacent readings from this box should not be
    /// trusted — set automatically when the measuring box has fewer
    /// than 4 cores, `null`/absent otherwise.
    #[serde(default)]
    pub skip_note: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(jobs: usize, wall: f64) -> PassRecord {
        PassRecord {
            jobs,
            wall_seconds: wall,
            accesses_per_second: 1000.0 / wall,
            iters: 1,
            warmup: 1,
        }
    }

    #[test]
    fn speedup_is_seq_over_par() {
        let record = BenchRecord {
            cores: 4,
            workloads: 8,
            policies_per_workload: 2,
            accesses_per_pass: 1000,
            sequential: pass(1, 4.0),
            parallel: pass(4, 1.0),
            skip_note: None,
        };
        assert!((record.speedup() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn round_trips_through_json() {
        let record = BenchRecord {
            cores: 2,
            workloads: 8,
            policies_per_workload: 2,
            accesses_per_pass: 123_456,
            sequential: pass(1, 2.5),
            parallel: pass(2, 1.5),
            skip_note: None,
        };
        let json = serde_json::to_string_pretty(&record).expect("serialises");
        let back: BenchRecord = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, record);
    }

    #[test]
    fn old_records_without_iteration_fields_still_parse() {
        let json = r#"{
            "jobs": 1,
            "wall_seconds": 0.5,
            "accesses_per_second": 2000.0
        }"#;
        let pass: PassRecord = serde_json::from_str(json).expect("old shape parses");
        assert_eq!(pass.iters, 1);
        assert_eq!(pass.warmup, 0);
    }

    #[test]
    fn workload_record_round_trips_through_json() {
        let record = WorkloadBenchRecord {
            cores: 2,
            policies_per_workload: 2,
            rows: vec![WorkloadRow {
                id: "synth/pointer_chase".into(),
                source: "synthetic".into(),
                accesses: 1000,
                reads: 700,
                writes: 300,
                bits_written: 153_600,
                baseline_read_fj: 1.0e6,
                baseline_write_fj: 3.0e6,
                baseline_total_fj: 4.0e6,
                adaptive_total_fj: 3.2e6,
                saving_percent: 20.0,
            }],
            skip_note: Some("measured on 2 cores".into()),
        };
        let json = serde_json::to_string_pretty(&record).expect("serialises");
        let back: WorkloadBenchRecord = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, record);
    }

    #[test]
    fn serve_record_round_trips_and_keeps_skip_notes() {
        let record = ServeBenchRecord {
            cores: 1,
            jobs: 1,
            sessions: 2,
            accesses_per_session: 10_000,
            serial: pass(1, 2.0),
            concurrent: pass(1, 1.0),
            skip_note: Some("measured on a 1-core box".to_string()),
        };
        assert!((record.speedup() - 2.0).abs() < 1e-12);
        let json = serde_json::to_string_pretty(&record).expect("serialises");
        assert!(json.contains("skip_note"));
        let back: ServeBenchRecord = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, record);
        // A record without the field (the pre-skip_note shape, like the
        // committed BENCH_*.json files) still parses, as None.
        let json = r#"{
            "cores": 4, "jobs": 4, "sessions": 2, "accesses_per_session": 10000,
            "serial": {"jobs": 4, "wall_seconds": 2.0, "accesses_per_second": 500.0},
            "concurrent": {"jobs": 4, "wall_seconds": 1.0, "accesses_per_second": 1000.0}
        }"#;
        let back: ServeBenchRecord = serde_json::from_str(json).expect("old shape parses");
        assert_eq!(back.skip_note, None);
    }

    #[test]
    fn iter_stats_summarise_samples() {
        let stats = IterStats::from_samples(&[10.0, 20.0, 30.0]);
        assert!((stats.mean - 20.0).abs() < 1e-12);
        assert!((stats.min - 10.0).abs() < 1e-12);
        assert!((stats.stddev - (200.0f64 / 3.0).sqrt()).abs() < 1e-9);
        let single = IterStats::from_samples(&[5.0]);
        assert_eq!(single.stddev, 0.0);
        assert_eq!(single.mean, single.min);
    }

    fn stage(name: &str, mean: f64) -> StageRecord {
        StageRecord {
            stage: name.to_string(),
            items_per_iter: 1000,
            unit: "items".to_string(),
            iters: 3,
            warmup: 1,
            per_second: IterStats {
                mean,
                stddev: 0.0,
                min: mean,
            },
            speedup_vs_baseline: 1.0,
        }
    }

    #[test]
    fn gate_flags_only_real_regressions() {
        let committed = SimdBenchRecord {
            cores: 1,
            baseline_accesses_per_second: 100.0,
            stages: vec![stage("popcount", 1000.0), stage("decode", 500.0)],
        };
        // Fresh run within tolerance on one stage, 50% down on the other.
        let fresh = SimdBenchRecord {
            cores: 1,
            baseline_accesses_per_second: 100.0,
            stages: vec![stage("popcount", 850.0), stage("decode", 250.0)],
        };
        let msgs = committed.regressions_in(&fresh, 0.20);
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].contains("decode"), "{msgs:?}");
        // A stage missing from the fresh run is not a regression.
        let partial = SimdBenchRecord {
            cores: 1,
            baseline_accesses_per_second: 100.0,
            stages: vec![stage("popcount", 1000.0)],
        };
        assert!(committed.regressions_in(&partial, 0.20).is_empty());
    }

    #[test]
    fn simd_record_round_trips_and_ranks_stages() {
        let record = SimdBenchRecord {
            cores: 1,
            baseline_accesses_per_second: 10.0,
            stages: vec![stage("popcount", 100.0), stage("replay", 10.0)],
        };
        let json = serde_json::to_string_pretty(&record).expect("serialises");
        let back: SimdBenchRecord = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, record);
        assert!(back.stage("replay").is_some());
        assert!(back.stage("missing").is_none());
        assert!((record.best_speedup() - 1.0).abs() < 1e-12);
    }
}
