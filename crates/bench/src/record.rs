//! Serialisable result records: the timing rows `bench_throughput`
//! commits as `BENCH_simd.json`, and the per-workload energy table
//! `experiments --per-workload-baseline` commits as
//! `BENCH_workloads.json`.

use serde::{Deserialize, Serialize};

/// One timed case: the median and quartiles of a rate over `iters`
/// measured iterations. Field names and the quartile definition are
/// cntbench's (`median`, `q1`, `q3`; Python's
/// `statistics.quantiles(data, 4)`), so one summary reads the same in
/// either harness. Every row is a rate: higher is better.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRow {
    /// Harness that measured the row (`stages` for `bench_throughput`).
    pub suite: String,
    /// Case within the suite, e.g. `replay`.
    pub case: String,
    /// Unit of `median`, `q1` and `q3`, e.g. `accesses/s`.
    pub unit: String,
    /// Hardware threads present at measurement time.
    pub cores: usize,
    /// Threads the case ran on.
    pub jobs: usize,
    /// Measured iterations behind the summary.
    pub iters: u32,
    /// Untimed iterations run first.
    pub warmup: u32,
    /// Median rate.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

/// The three quartile cut points of `data` — Python's
/// `statistics.quantiles(data, 4)` with its default `exclusive`
/// method, as cntbench computes them. The middle one is the median.
///
/// # Panics
///
/// Panics if `data` is empty.
#[must_use]
pub fn quartiles(data: &[f64]) -> [f64; 3] {
    assert!(!data.is_empty(), "quartiles of nothing");
    let mut sorted = data.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    if len == 1 {
        return [sorted[0]; 3];
    }
    let m = len + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, len - 1);
        // Negative below the first sample, as in Python, which
        // extrapolates for tiny samples.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

/// Checks a row file: at least one row, each with measured iterations,
/// finite quartiles around a non-negative median, no more jobs than
/// cores, and no `(suite, case)` twice.
///
/// # Errors
///
/// Names the first offending row and what is wrong with it.
pub fn check_rows(rows: &[BenchRow]) -> Result<(), String> {
    if rows.is_empty() {
        return Err("row file with no rows".into());
    }
    for (i, row) in rows.iter().enumerate() {
        let name = format!("row `{}/{}`", row.suite, row.case);
        if row.iters == 0 {
            return Err(format!("{name}: zero measured iterations"));
        }
        if !row.median.is_finite() || row.median < 0.0 {
            return Err(format!(
                "{name}: median {} is not a finite non-negative number",
                row.median
            ));
        }
        if !row.q1.is_finite() || !row.q3.is_finite() {
            return Err(format!(
                "{name}: quartiles {} and {} are not both finite",
                row.q1, row.q3
            ));
        }
        if row.q1 > row.median || row.median > row.q3 {
            return Err(format!(
                "{name}: quartiles out of order: q1 {} <= median {} <= q3 {} does not hold",
                row.q1, row.median, row.q3
            ));
        }
        if row.jobs > row.cores {
            return Err(format!(
                "{name}: {} jobs exceed the {} core(s) present at measurement time; \
                 remeasure with jobs <= cores",
                row.jobs, row.cores
            ));
        }
        if rows[..i]
            .iter()
            .any(|r| r.suite == row.suite && r.case == row.case)
        {
            return Err(format!("{name}: duplicate (suite, case)"));
        }
    }
    Ok(())
}

/// Compares fresh rows against committed ones and returns one message
/// per `(suite, case)` whose fresh median fell below `1.0 - tolerance`
/// of the committed median. Cases present on only one side are skipped:
/// the gate protects what was promised, not the shape of the file.
#[must_use]
pub fn regressions(committed: &[BenchRow], fresh: &[BenchRow], tolerance: f64) -> Vec<String> {
    committed
        .iter()
        .filter_map(|old| {
            let new = fresh
                .iter()
                .find(|r| r.suite == old.suite && r.case == old.case)?;
            let floor = old.median * (1.0 - tolerance);
            (new.median < floor).then(|| {
                format!(
                    "`{}/{}`: {:.0} {} is below the gate floor {:.0} \
                     ({:.0}% of the committed median {:.0})",
                    old.suite,
                    old.case,
                    new.median,
                    old.unit,
                    floor,
                    (1.0 - tolerance) * 100.0,
                    old.median,
                )
            })
        })
        .collect()
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

    fn row(case: &str, median: f64) -> BenchRow {
        BenchRow {
            suite: "stages".to_string(),
            case: case.to_string(),
            unit: "items/s".to_string(),
            cores: 2,
            jobs: 1,
            iters: 10,
            warmup: 2,
            median,
            q1: median * 0.9,
            q3: median * 1.1,
        }
    }

    #[test]
    fn round_trips_through_json() {
        let rows = vec![row("popcount", 100.0), row("replay", 10.0)];
        let json = serde_json::to_string_pretty(&rows).expect("serialises");
        let back: Vec<BenchRow> = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, rows);
        assert!(check_rows(&back).is_ok());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let samples: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quartiles(&samples), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[5.0]), [5.0; 3]);
    }

    #[test]
    fn check_rows_rejects_duplicates_and_disorder() {
        assert!(check_rows(&[]).is_err());
        let dup = check_rows(&[row("a", 1.0), row("a", 2.0)]).unwrap_err();
        assert!(dup.contains("duplicate"), "{dup}");
        let mut bad = row("a", 1.0);
        bad.q1 = 2.0;
        assert!(check_rows(&[bad]).unwrap_err().contains("out of order"));
    }

    #[test]
    fn gate_flags_only_real_regressions() {
        let committed = [row("popcount", 1000.0), row("decode", 500.0)];
        // Fresh run within tolerance on one case, 50% down on the other.
        let fresh = [row("popcount", 850.0), row("decode", 250.0)];
        let msgs = regressions(&committed, &fresh, 0.20);
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].contains("decode"), "{msgs:?}");
        // A case missing from the fresh run is not a regression.
        assert!(regressions(&committed, &[row("popcount", 1000.0)], 0.20).is_empty());
        // Nor is one measured under another suite.
        let mut other = row("decode", 1.0);
        other.suite = "other".to_string();
        assert!(regressions(&committed, &[other], 0.20).is_empty());
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
}
