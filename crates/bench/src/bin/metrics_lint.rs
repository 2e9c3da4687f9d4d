//! Validates benchmark artefacts: JSONL metrics streams produced by
//! `--metrics-out` and the committed `BENCH_*.json` records.
//!
//! Usage:
//!
//! ```text
//! metrics_lint [--sessions] <metrics.jsonl | BENCH_record.json> [...]
//! ```
//!
//! Files ending in `.json` are linted as single benchmark records of
//! one of three shapes. A `bench_throughput` row file (a JSON array of
//! `BenchRow`s) needs at least one row, measured iterations, finite
//! quartiles in order around a non-negative median, no more jobs than
//! cores, and no `(suite, case)` twice. A per-workload baseline
//! `WorkloadBenchRecord` needs sorted rows, balanced read/write
//! arithmetic and a recomputed saving column. A `tracegen import
//! --report` `ImportReport` needs balanced access counts, and drops
//! only in lenient mode, with a named first casualty. Anything else is
//! linted as a snapshot stream: every line must parse as a
//! `cnt_obs::Snapshot` with at least one cache level, and within each
//! experiment stream the epochs must count up from zero with
//! non-decreasing access totals. With `--sessions`, streams are instead
//! linted as **multiplexed per-session** logs (as written by
//! `cnt_serve` into `serve_metrics.jsonl`): every experiment id must
//! carry an `sNNNN/` session prefix, and the per-experiment
//! monotonicity rules apply within each session's streams. Exits
//! non-zero on the first violation, naming the offending file. CI runs
//! this over the metrics smoke stream, the serve smoke log, and the
//! committed and fresh bench records.

use std::process::ExitCode;

use cnt_bench::record::check_rows;
use cnt_bench::{BenchRow, WorkloadBenchRecord};
use cnt_import::ImportReport;

/// Checks one energy figure: finite and non-negative.
fn check_energy(what: &str, fj: f64) -> Result<(), String> {
    if !fj.is_finite() || fj < 0.0 {
        return Err(format!(
            "{what}: energy {fj} fJ is not a finite non-negative number"
        ));
    }
    Ok(())
}

/// Lints a `tracegen import --report` record: the access arithmetic
/// must balance and a lossy import must say so.
fn lint_import_report(report: &ImportReport) -> Result<String, String> {
    if report.accesses == 0 {
        return Err("import report with zero accesses (the importer refuses these)".into());
    }
    if report.accesses != report.reads + report.writes + report.ifetches {
        return Err(format!(
            "import report arithmetic is broken: {} accesses != {} reads + {} writes + {} ifetches",
            report.accesses, report.reads, report.writes, report.ifetches
        ));
    }
    if report.dropped > 0 {
        if !report.lenient {
            return Err(format!(
                "import report drops {} record(s) without lenient mode — strict imports \
                 must fail, not skip",
                report.dropped
            ));
        }
        if report.first_drop.is_none() {
            return Err(format!(
                "import report drops {} record(s) but first_drop is absent; lossy imports \
                 must name their first casualty",
                report.dropped
            ));
        }
    }
    if report.chunks == 0 {
        return Err("import report with zero output chunks".into());
    }
    if report.identity.len() != 16 || !report.identity.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!(
            "import report identity `{}` is not a 16-digit hex fingerprint",
            report.identity
        ));
    }
    Ok(format!(
        "ok — {} {} record(s) -> {} accesses ({} dropped), identity {}",
        report.records_in, report.format, report.accesses, report.dropped, report.identity
    ))
}

/// Lints the `--per-workload-baseline` record: sorted rows, balanced
/// access arithmetic, finite energies, and an honest saving column.
fn lint_workload_record(record: &WorkloadBenchRecord) -> Result<String, String> {
    if record.rows.is_empty() {
        return Err("workload record with no rows".into());
    }
    for pair in record.rows.windows(2) {
        if pair[0].id >= pair[1].id {
            return Err(format!(
                "workload rows are not strictly sorted by id: `{}` then `{}`",
                pair[0].id, pair[1].id
            ));
        }
    }
    for row in &record.rows {
        let id = &row.id;
        if row.source != "synthetic" && row.source != "imported" {
            return Err(format!(
                "workload `{id}`: source `{}` is neither synthetic nor imported",
                row.source
            ));
        }
        if row.accesses == 0 {
            return Err(format!("workload `{id}` has zero accesses"));
        }
        if row.accesses != row.reads + row.writes {
            return Err(format!(
                "workload `{id}` arithmetic is broken: {} accesses != {} reads + {} writes",
                row.accesses, row.reads, row.writes
            ));
        }
        check_energy(
            &format!("workload `{id}` baseline read"),
            row.baseline_read_fj,
        )?;
        check_energy(
            &format!("workload `{id}` baseline write"),
            row.baseline_write_fj,
        )?;
        check_energy(
            &format!("workload `{id}` baseline total"),
            row.baseline_total_fj,
        )?;
        check_energy(
            &format!("workload `{id}` adaptive total"),
            row.adaptive_total_fj,
        )?;
        let expect = if row.baseline_total_fj > 0.0 {
            100.0 * (row.baseline_total_fj - row.adaptive_total_fj) / row.baseline_total_fj
        } else {
            0.0
        };
        if (row.saving_percent - expect).abs() > 1e-6 {
            return Err(format!(
                "workload `{id}` saving column says {:.6}% but the totals give {expect:.6}%",
                row.saving_percent
            ));
        }
    }
    if record.cores < 4 && record.skip_note.is_none() {
        return Err(format!(
            "workload record measured on {} core(s) without a skip_note disclaimer",
            record.cores
        ));
    }
    let imported = record
        .rows
        .iter()
        .filter(|r| r.source == "imported")
        .count();
    Ok(format!(
        "ok — {} workload(s) ({} imported), savings {:.2}%..{:.2}%",
        record.rows.len(),
        imported,
        record
            .rows
            .iter()
            .map(|r| r.saving_percent)
            .fold(f64::INFINITY, f64::min),
        record
            .rows
            .iter()
            .map(|r| r.saving_percent)
            .fold(f64::NEG_INFINITY, f64::max),
    ))
}

/// Lints one `BENCH_*.json` record of any recognised shape.
fn lint_bench_record(text: &str) -> Result<String, String> {
    let unrecognised = |e: serde_json::Error| format!("not a recognised bench record: {e}");
    if text.trim_start().starts_with('[') {
        let rows: Vec<BenchRow> = serde_json::from_str(text).map_err(unrecognised)?;
        check_rows(&rows)?;
        return Ok(format!("ok — {} timing row(s)", rows.len()));
    }
    if let Ok(report) = serde_json::from_str::<ImportReport>(text) {
        return lint_import_report(&report);
    }
    let record: WorkloadBenchRecord = serde_json::from_str(text).map_err(unrecognised)?;
    lint_workload_record(&record)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let sessions_mode = args.iter().any(|a| a == "--sessions");
    args.retain(|a| a != "--sessions");
    let paths = args;
    if paths.is_empty() || paths.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: metrics_lint [--sessions] <metrics.jsonl | BENCH_record.json>...");
        return ExitCode::from(2);
    }

    let mut failed = false;
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("{path}: cannot read: {e}");
                failed = true;
                continue;
            }
        };
        if text.is_empty() {
            eprintln!("{path}: empty metrics stream");
            failed = true;
            continue;
        }
        if path.ends_with(".json") {
            match lint_bench_record(&text) {
                Ok(summary) => println!("{path}: {summary}"),
                Err(e) => {
                    eprintln!("{path}: {e}");
                    failed = true;
                }
            }
            continue;
        }
        if sessions_mode {
            match cnt_obs::validate_sessions_jsonl(&text) {
                Ok(summary) => println!(
                    "{path}: ok — {} snapshots across {} sessions ({} experiments)",
                    summary.snapshots, summary.sessions, summary.experiments
                ),
                Err(e) => {
                    eprintln!("{path}: {e}");
                    failed = true;
                }
            }
            continue;
        }
        match cnt_obs::validate_jsonl(&text) {
            Ok(summary) => println!(
                "{path}: ok — {} snapshots across {} experiments",
                summary.snapshots, summary.experiments
            ),
            Err(e) => {
                eprintln!("{path}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
