//! Regenerates the CNT-Cache evaluation tables and figures.
//!
//! Usage:
//!
//! ```text
//! experiments all              # run everything in order
//! experiments fig3 table1     # run specific experiments
//! experiments --jobs 4 all    # cap the worker pool at 4 threads
//! experiments --seq all       # force fully sequential execution
//! experiments --list           # list available ids
//! experiments --metrics-out metrics.jsonl --metrics-every 10000 fig9
//!                              # also stream epoch snapshots as JSONL
//! experiments --metrics-final fig13b
//!                              # dump registry counters (sorted) at exit
//! ```
//!
//! Experiments are computed in parallel on a shared thread pool but the
//! reports are always printed in submission order, so the output is
//! byte-identical whatever `--jobs` is set to. The same holds for the
//! metrics stream: snapshots are sorted by (replay id, epoch) before
//! writing, and replay ids are deterministic, so the JSONL file is also
//! byte-identical across `--jobs` settings. Metrics notices go to
//! stderr; stdout carries only the reports.

use std::process::ExitCode;

use cnt_bench::cli::{self, CmdError};

/// Default snapshot epoch length (accesses) when only `--metrics-out`
/// is given.
const DEFAULT_METRICS_EVERY: u64 = 10_000;

/// Default output path for the `--per-workload-baseline` record.
const DEFAULT_WORKLOADS_OUT: &str = "BENCH_workloads.json";

/// Hysteresis margins swept by `--warm-fork` (the paper default is 0.1).
const WARM_FORK_DELTA_TS: [f64; 4] = [0.0, 0.05, 0.1, 0.2];

fn usage() {
    eprintln!(
        "usage: experiments [--list] [--jobs N | --seq] [--trace FILE.ctr]... \
         [--metrics-out FILE [--metrics-every N]] [--metrics-final] <id>... | all\n       \
         experiments --warm-fork FILE.ctrs --trace FILE.ctr   # ΔT sweep from a warmed checkpoint\n       \
         experiments --per-workload-baseline [--workloads GLOB] [--trace-dir DIR]... [--out FILE]\n                                            \
         # baseline-vs-adaptive energy table over the workload registry"
    );
    eprintln!("known ids: {}", cnt_bench::experiments::ALL.join(", "));
}

/// Fans a ΔT (hysteresis) sweep out of one warmed checkpoint: every fork
/// restores the same mid-trace cache state, swaps in a different
/// hysteresis margin (a non-shape knob, so the restored state is valid
/// for every fork), and replays only the remaining tail of the trace.
/// The warmup cost is paid once — by the run that wrote the checkpoint —
/// instead of once per sweep point.
fn run_warm_fork(ckpt_path: &str, trace_path: &str) -> Result<(), String> {
    use cnt_bench::stream::{replay_stream_resumable, ReplayCursor};
    use cnt_cache::{AdaptiveParams, CntCache, EncodingPolicy};
    use cnt_trace::{ReadOptions, StreamReader};

    let (file, driver) = cnt_bench::ckpt::load_for_fork(std::path::Path::new(ckpt_path))
        .map_err(|e| format!("`{ckpt_path}`: {e}"))?;

    println!("==== warm-fork:{ckpt_path} ====");
    println!(
        "resume:    pass {} at chunk {} ({} accesses) over `{trace_path}`",
        driver.pass, driver.cursor.chunk, driver.cursor.accesses
    );
    println!(
        "{:<8} {:>14} {:>10} {:>10} {:>12}",
        "delta_t", "total", "windows", "switches", "saving-vs-0"
    );
    let mut first_report = None;
    for delta_t in WARM_FORK_DELTA_TS {
        let config = cnt_bench::runner::dcache_config(
            "L1D",
            EncodingPolicy::Adaptive(AdaptiveParams {
                delta_t,
                ..AdaptiveParams::paper_default()
            }),
        );
        // The shape gate: geometry, protection, window, partitions must
        // match the checkpointed state; ΔT deliberately does not count.
        if config.shape_fingerprint() != file.manifest.shape_fingerprint {
            return Err(format!(
                "`{ckpt_path}`: checkpoint shape {:#018x} does not match the adaptive D-Cache \
                 shape {:#018x} — warm-fork needs a checkpoint taken during the adaptive \
                 (second) replay pass",
                file.manifest.shape_fingerprint,
                config.shape_fingerprint()
            ));
        }
        let mut cache = CntCache::new(config).expect("sweep configuration is valid");
        file.restore_component(&mut cache)
            .map_err(|e| format!("`{ckpt_path}`: {e}"))?;

        let f = std::fs::File::open(trace_path)
            .map_err(|e| format!("cannot read `{trace_path}`: {e}"))?;
        let mut reader = StreamReader::new(std::io::BufReader::new(f), ReadOptions::default())
            .map_err(|e| format!("`{trace_path}`: {e}"))?;
        reader
            .seek_to_chunk(driver.cursor.chunk)
            .map_err(|e| format!("`{trace_path}`: {e}"))?;
        cnt_bench::ckpt::verify_trace_identity(file.manifest.trace_identity, reader.identity())
            .map_err(|e| format!("`{trace_path}`: {e}"))?;

        // Forks run without a metrics stream: drop the original run's
        // experiment id and delta seed, keep the replay position.
        let cursor = ReplayCursor {
            experiment: None,
            delta_prev: Vec::new(),
            ..driver.cursor.clone()
        };
        replay_stream_resumable(&mut cache, &mut reader, Some(cursor), None, None)
            .map_err(|e| format!("`{trace_path}`: {e}"))?;
        cache.flush();
        let counters = *cache.encoding_counters();
        let report = cache.into_report();
        let saving = first_report
            .as_ref()
            .map(|first| format!("{:>11.2}%", report.saving_vs(first)))
            .unwrap_or_else(|| format!("{:>12}", "-"));
        println!(
            "{delta_t:<8.2} {:>14.1} {:>10} {:>10} {saving}",
            report.total(),
            counters.windows,
            counters.switches_applied
        );
        first_report.get_or_insert(report);
    }
    Ok(())
}

/// Replays every selected registry workload under the baseline
/// (no-encoding) policy and the paper-default adaptive policy, prints
/// the comparison as a markdown table, and writes the machine-readable
/// [`cnt_bench::WorkloadBenchRecord`] to `out`. Synthetic kernels and
/// imported `.ctr` captures run through the identical path, so the
/// table is an apples-to-apples energy comparison across sources.
fn run_per_workload_baseline(
    pattern: &str,
    trace_dirs: &[String],
    out: &str,
) -> Result<(), CmdError> {
    use cnt_bench::{WorkloadBenchRecord, WorkloadRow};
    use cnt_sim::trace::AccessKind;
    use cnt_workloads::WorkloadRegistry;

    let mut registry = WorkloadRegistry::builtin();
    for dir in trace_dirs {
        let added = registry
            .add_trace_dir(std::path::Path::new(dir))
            .map_err(|e| CmdError::Runtime(format!("--trace-dir {dir}: {e}")))?;
        eprintln!("registry: {added} imported workload(s) from {dir}");
    }
    let selected = registry
        .select(pattern)
        .map_err(|e| CmdError::Usage(e.to_string()))?;

    // Load sequentially (imported entries do file IO), then fan the
    // deterministic energy replays out on the shared pool. Entries are
    // already sorted by id, so the rows come back sorted too.
    let mut loaded = Vec::with_capacity(selected.len());
    for entry in &selected {
        let workload = entry
            .load()
            .map_err(|e| CmdError::Runtime(format!("workload `{}`: {e}", entry.id)))?;
        loaded.push((entry.id.clone(), entry.source_kind(), workload));
    }
    let rows: Vec<WorkloadRow> = cnt_bench::pool::par_map(&loaded, |(id, source, workload)| {
        let [base, adaptive] = cnt_bench::runner::run_dcache_pair(&workload.trace);
        let reads = workload
            .trace
            .iter()
            .filter(|a| matches!(a.kind, AccessKind::Read | AccessKind::InstrFetch))
            .count() as u64;
        let writes = workload
            .trace
            .iter()
            .filter(|a| a.kind == AccessKind::Write)
            .count() as u64;
        let baseline_total = base.total().femtojoules();
        let adaptive_total = adaptive.total().femtojoules();
        let saving = if baseline_total > 0.0 {
            100.0 * (baseline_total - adaptive_total) / baseline_total
        } else {
            0.0
        };
        WorkloadRow {
            id: id.clone(),
            source: (*source).to_string(),
            accesses: workload.trace.len() as u64,
            reads,
            writes,
            bits_written: base.breakdown.bits_written(),
            baseline_read_fj: base.breakdown.read_energy().femtojoules(),
            baseline_write_fj: base.breakdown.write_energy().femtojoules(),
            baseline_total_fj: baseline_total,
            adaptive_total_fj: adaptive_total,
            saving_percent: saving,
        }
    });

    let cores = cnt_bench::pool::default_jobs();
    let record = WorkloadBenchRecord {
        cores,
        policies_per_workload: 2,
        rows,
        skip_note: (cores < 4).then(|| {
            format!("measured on {cores} core(s); energy numbers are deterministic but do not read throughput from this box")
        }),
    };

    println!(
        "| workload | source | accesses | reads | writes | bits written | baseline read (fJ) | baseline write (fJ) | baseline total (fJ) | adaptive total (fJ) | saving |"
    );
    println!("|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|");
    for row in &record.rows {
        println!(
            "| `{}` | {} | {} | {} | {} | {} | {:.1} | {:.1} | {:.1} | {:.1} | {:.2}% |",
            row.id,
            row.source,
            row.accesses,
            row.reads,
            row.writes,
            row.bits_written,
            row.baseline_read_fj,
            row.baseline_write_fj,
            row.baseline_total_fj,
            row.adaptive_total_fj,
            row.saving_percent,
        );
    }

    let json = serde_json::to_string_pretty(&record)
        .map_err(|e| CmdError::Runtime(format!("cannot serialize {out}: {e}")))?;
    std::fs::write(out, json + "\n")
        .map_err(|e| CmdError::Runtime(format!("cannot write {out}: {e}")))?;
    eprintln!(
        "per-workload baseline: wrote {} row(s) to {out}",
        record.rows.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--list") {
        for id in cnt_bench::experiments::ALL {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }

    // Parse flags; everything else is an experiment id.
    let mut ids: Vec<&str> = Vec::new();
    let mut traces: Vec<String> = Vec::new();
    let mut jobs: Option<usize> = None;
    let mut metrics_out: Option<String> = None;
    let mut metrics_every: Option<u64> = None;
    let mut metrics_final = false;
    let mut warm_fork: Option<String> = None;
    let mut per_workload = false;
    let mut workloads_pattern: Option<String> = None;
    let mut trace_dirs: Vec<String> = Vec::new();
    let mut workloads_out: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--seq" => jobs = Some(1),
            "--warm-fork" => match cli::flag_value(&mut iter, "--warm-fork") {
                Ok(path) => warm_fork = Some(path.to_string()),
                Err(e) => return e.exit(),
            },
            "--trace" => match cli::flag_value(&mut iter, "--trace") {
                Ok(path) => traces.push(path.to_string()),
                Err(e) => return e.exit(),
            },
            "--jobs" | "-j" => match cli::positive_int_flag::<usize>(&mut iter, "--jobs") {
                Ok(n) => jobs = Some(n),
                Err(e) => return e.exit(),
            },
            "--metrics-out" => match cli::flag_value(&mut iter, "--metrics-out") {
                Ok(path) => metrics_out = Some(path.to_string()),
                Err(e) => return e.exit(),
            },
            "--metrics-every" => {
                match cli::positive_int_flag::<u64>(&mut iter, "--metrics-every") {
                    Ok(n) => metrics_every = Some(n),
                    Err(e) => return e.exit(),
                }
            }
            "--metrics-final" => metrics_final = true,
            "--per-workload-baseline" => per_workload = true,
            "--workloads" => match cli::flag_value(&mut iter, "--workloads") {
                Ok(pattern) => workloads_pattern = Some(pattern.to_string()),
                Err(e) => return e.exit(),
            },
            "--trace-dir" => match cli::flag_value(&mut iter, "--trace-dir") {
                Ok(dir) => trace_dirs.push(dir.to_string()),
                Err(e) => return e.exit(),
            },
            "--out" => match cli::flag_value(&mut iter, "--out") {
                Ok(path) => workloads_out = Some(path.to_string()),
                Err(e) => return e.exit(),
            },
            "all" => ids.extend_from_slice(cnt_bench::experiments::ALL),
            other => ids.push(other),
        }
    }
    if metrics_every.is_some() && metrics_out.is_none() {
        eprintln!("error: --metrics-every needs --metrics-out");
        return ExitCode::from(2);
    }
    if !per_workload
        && (workloads_pattern.is_some() || !trace_dirs.is_empty() || workloads_out.is_some())
    {
        eprintln!("error: --workloads/--trace-dir/--out need --per-workload-baseline");
        return ExitCode::from(2);
    }
    if per_workload {
        // The registry comparison is its own mode: it selects from the
        // workload registry, not the experiment-id list, and writes its
        // own record instead of the metrics stream.
        if !ids.is_empty() || !traces.is_empty() || warm_fork.is_some() {
            eprintln!(
                "error: --per-workload-baseline takes only --workloads/--trace-dir/--out \
                 (and --jobs/--seq)"
            );
            return ExitCode::from(2);
        }
        cnt_bench::pool::set_jobs(jobs.unwrap_or_else(cnt_bench::pool::default_jobs));
        return match run_per_workload_baseline(
            workloads_pattern.as_deref().unwrap_or("*"),
            &trace_dirs,
            workloads_out.as_deref().unwrap_or(DEFAULT_WORKLOADS_OUT),
        ) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => e.exit(),
        };
    }
    if let Some(ckpt_path) = warm_fork {
        // Warm-fork is its own mode: one checkpoint, one trace, a ΔT
        // sweep — no experiment ids and no metrics stream (the forks
        // share the checkpoint's mid-stream position, not its metrics).
        if !ids.is_empty() || metrics_out.is_some() || metrics_final {
            eprintln!("error: --warm-fork takes only --trace (and --jobs/--seq)");
            return ExitCode::from(2);
        }
        let [trace] = &traces[..] else {
            eprintln!("error: --warm-fork needs exactly one --trace FILE.ctr");
            return ExitCode::from(2);
        };
        cnt_bench::pool::set_jobs(jobs.unwrap_or_else(cnt_bench::pool::default_jobs));
        return match run_warm_fork(&ckpt_path, trace) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if ids.is_empty() && traces.is_empty() {
        usage();
        return ExitCode::from(2);
    }

    // Validate every id up front so a typo late in the list fails fast,
    // before any compute, and every unknown id is reported at once.
    let unknown: Vec<&str> = ids
        .iter()
        .copied()
        .filter(|id| !cnt_bench::experiments::is_known(id))
        .collect();
    if !unknown.is_empty() {
        for id in unknown {
            eprintln!("error: unknown experiment id `{id}`");
        }
        eprintln!("known ids: {}", cnt_bench::experiments::ALL.join(", "));
        return ExitCode::from(2);
    }

    cnt_bench::pool::set_jobs(jobs.unwrap_or_else(cnt_bench::pool::default_jobs));
    let metrics = cli::install_metrics(
        metrics_out
            .as_ref()
            .map(|_| metrics_every.unwrap_or(DEFAULT_METRICS_EVERY)),
    );

    for (id, report) in ids.iter().zip(cnt_bench::experiments::run_many(&ids)) {
        match report {
            Ok(report) => {
                println!("==== {id} ====");
                println!("{report}");
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // External `.ctr` traces replay streamed (bounded memory,
    // chunk-parallel decode) — baseline vs adaptive, like the built-in
    // policy comparisons.
    for path in &traces {
        use cnt_bench::stream::run_dcache_stream;
        use cnt_cache::EncodingPolicy;
        let opts = cnt_trace::ReadOptions::default();
        let run = |policy| run_dcache_stream(policy, std::path::Path::new(path), opts);
        let (base, cnt) = match (
            run(EncodingPolicy::None),
            run(EncodingPolicy::adaptive_default()),
        ) {
            (Ok(base), Ok(cnt)) => (base, cnt),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("error: `{path}`: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!("==== trace:{path} ====");
        println!(
            "accesses:  {} ({} chunks, {} skipped)",
            cnt.accesses, cnt.ingest.chunks_read, cnt.ingest.chunks_skipped
        );
        println!("baseline:  {:.1}", base.report.total());
        println!("CNT-Cache: {:.1}", cnt.report.total());
        println!("saving:    {:.2}%", cnt.report.saving_vs(&base.report));
        println!();
    }

    match cli::finish_metrics(
        metrics,
        metrics_out.as_deref(),
        metrics_final.then_some("==== final metrics ===="),
    ) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => e.exit(),
    }
}
