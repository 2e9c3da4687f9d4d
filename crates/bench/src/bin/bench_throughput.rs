//! Replays the full D-Cache suite sequentially and in parallel and
//! records the throughput comparison in `BENCH_parallel.json`.
//!
//! Usage:
//!
//! ```text
//! bench_throughput [--jobs N] [--out PATH] [--trace FILE.ctr]
//!                  [--workloads GLOB] [--trace-dir DIR]...
//!                  [--metrics-out FILE [--metrics-every N]]
//! bench_throughput --stages [--iters N] [--warmup N] [--out PATH]
//!                  [--baseline FILE] [--gate FILE]
//! ```
//!
//! Both passes run the identical (benchmark x policy) replay matrix —
//! baseline and adaptive encoding over every suite workload — so the
//! speedup column isolates the thread-pool gain. The recorded numbers
//! are whatever this machine produced: on a single-core runner the
//! honest speedup is ~1.0x, and `cores` in the JSON says so.
//!
//! With `--trace FILE.ctr` the suite matrix is replaced by streamed
//! replays of the external trace (baseline and adaptive), so the
//! speedup column instead isolates the chunk-parallel decode gain of
//! the `cnt-trace` ingestion pipeline.
//!
//! With `--workloads GLOB` (and optionally `--trace-dir DIR` to pull
//! imported `.ctr` captures into the namespace) the matrix is built
//! from the workload registry instead of the fixed suite, so imported
//! real-application traces replay through the identical measurement
//! path as the synthetic kernels.
//!
//! With `--stages` the end-to-end matrix is replaced by isolated
//! single-thread timings of the replay hot path — the `popcount`,
//! `decode`, and `decision` kernels plus the batched end-to-end
//! `replay` loop — each run `--warmup` untimed and `--iters` timed
//! iterations and summarised as mean/stddev/min in `BENCH_simd.json`.
//! `--gate FILE` additionally compares the fresh means against a
//! committed record and exits with code 3 when any stage drops more
//! than 20% below its committed mean (CI treats 3 as a warning: shared
//! runners are noisy; byte-identity breakage elsewhere stays fatal).
//! `--iters`, `--warmup`, `--baseline` and `--gate` only apply to
//! `--stages`; elsewhere they are rejected with exit code 2.

use std::process::ExitCode;
use std::time::Instant;

use cnt_bench::cli;
use cnt_bench::runner::{run_dcache_batch, run_dcache_matrix};
use cnt_bench::stream::run_dcache_stream;
use cnt_bench::{pool, BenchRecord, IterStats, PassRecord, SimdBenchRecord, StageRecord};
use cnt_cache::EncodingPolicy;
use cnt_encoding::popcount::popcount_word_partitions;
use cnt_encoding::{DirectionBits, DirectionPredictor, PredictorConfig, WindowSummary};
use cnt_energy::BitEnergies;
use cnt_sim::trace::AccessBatch;
use cnt_trace::format::{decode_payload_into, encode_access};
use cnt_trace::ReadOptions;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut jobs = pool::default_jobs();
    let mut out_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut metrics_every: Option<u64> = None;
    let mut stages = false;
    let mut iters: Option<u32> = None;
    let mut warmup: Option<u32> = None;
    let mut baseline_path: Option<String> = None;
    let mut gate_path: Option<String> = None;
    let mut workloads_pattern: Option<String> = None;
    let mut trace_dirs: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let parsed = match arg.as_str() {
            "--trace" => cli::flag_value(&mut iter, "--trace").map(|p| trace_path = Some(p.into())),
            "--jobs" | "-j" => cli::positive_int_flag(&mut iter, "--jobs").map(|n| jobs = n),
            "--out" => cli::flag_value(&mut iter, "--out").map(|p| out_path = Some(p.into())),
            "--stages" => {
                stages = true;
                Ok(())
            }
            "--iters" => cli::positive_int_flag(&mut iter, "--iters").map(|n| iters = Some(n)),
            "--warmup" => cli::int_flag(&mut iter, "--warmup").map(|n| warmup = Some(n)),
            "--baseline" => {
                cli::flag_value(&mut iter, "--baseline").map(|p| baseline_path = Some(p.into()))
            }
            "--gate" => cli::flag_value(&mut iter, "--gate").map(|p| gate_path = Some(p.into())),
            "--workloads" => cli::flag_value(&mut iter, "--workloads")
                .map(|p| workloads_pattern = Some(p.into())),
            "--trace-dir" => {
                cli::flag_value(&mut iter, "--trace-dir").map(|d| trace_dirs.push(d.into()))
            }
            "--metrics-out" => {
                cli::flag_value(&mut iter, "--metrics-out").map(|p| metrics_out = Some(p.into()))
            }
            "--metrics-every" => cli::positive_int_flag(&mut iter, "--metrics-every")
                .map(|n| metrics_every = Some(n)),
            other => {
                eprintln!(
                    "usage: bench_throughput [--jobs N] [--out PATH] [--trace FILE.ctr] \
                     [--workloads GLOB] [--trace-dir DIR]... \
                     [--metrics-out FILE [--metrics-every N]]\n       \
                     bench_throughput --stages [--iters N] [--warmup N] [--out PATH] \
                     [--baseline FILE] [--gate FILE]"
                );
                eprintln!("error: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = parsed {
            return e.exit();
        }
    }
    if metrics_every.is_some() && metrics_out.is_none() {
        eprintln!("error: --metrics-every needs --metrics-out");
        return ExitCode::from(2);
    }
    let registry_flags = workloads_pattern.is_some() || !trace_dirs.is_empty();
    if registry_flags && trace_path.is_some() {
        eprintln!("error: --workloads/--trace-dir select from the registry; drop --trace");
        return ExitCode::from(2);
    }
    if stages {
        if trace_path.is_some() || metrics_out.is_some() || registry_flags {
            eprintln!(
                "error: --stages cannot be combined with --trace, --metrics-out, \
                 --workloads, or --trace-dir"
            );
            return ExitCode::from(2);
        }
        let out = out_path.unwrap_or_else(|| String::from("BENCH_simd.json"));
        let baseline_path = baseline_path.unwrap_or_else(|| String::from("BENCH_parallel.json"));
        return run_stage_suite(
            &out,
            iters.unwrap_or(5),
            warmup.unwrap_or(2),
            &baseline_path,
            gate_path.as_deref(),
        );
    }
    let stage_only = [
        ("--iters", iters.is_some()),
        ("--warmup", warmup.is_some()),
        ("--baseline", baseline_path.is_some()),
        ("--gate", gate_path.is_some()),
    ];
    if let Some((flag, _)) = stage_only.iter().find(|(_, given)| *given) {
        eprintln!("error: {flag} only applies to --stages runs");
        return ExitCode::from(2);
    }
    let out_path = out_path.unwrap_or_else(|| String::from("BENCH_parallel.json"));
    if metrics_out.is_some() {
        let every = metrics_every.unwrap_or(10_000);
        cnt_obs::install(every);
        eprintln!("metrics: snapshot every {every} accesses");
    }

    let policies = [EncodingPolicy::None, EncodingPolicy::adaptive_default()];
    // One pass = the full replay matrix; returns accesses replayed.
    let (run_pass, workload_count): (Box<dyn Fn() -> u64>, usize) = match &trace_path {
        Some(path) => {
            let path = std::path::PathBuf::from(path);
            // Surface an unreadable or malformed trace before any
            // measurement, not halfway through the warmup.
            let header_check = std::fs::File::open(&path)
                .map_err(cnt_trace::TraceError::from)
                .and_then(|f| {
                    cnt_trace::StreamReader::new(std::io::BufReader::new(f), ReadOptions::default())
                        .map(|_| ())
                });
            if let Err(e) = header_check {
                eprintln!("error: `{}`: {e}", path.display());
                return ExitCode::from(2);
            }
            let pass = move || {
                policies
                    .iter()
                    .map(
                        |&policy| match run_dcache_stream(policy, &path, ReadOptions::default()) {
                            Ok(outcome) => outcome.accesses,
                            Err(e) => {
                                eprintln!("error: `{}`: {e}", path.display());
                                std::process::exit(1);
                            }
                        },
                    )
                    .sum()
            };
            (Box::new(pass), 1)
        }
        None => {
            // The default matrix is the classic suite; --workloads /
            // --trace-dir swap in a registry selection so imported
            // captures replay through the identical measurement path.
            let workloads = if registry_flags {
                let mut registry = cnt_workloads::WorkloadRegistry::builtin();
                for dir in &trace_dirs {
                    match registry.add_trace_dir(std::path::Path::new(dir)) {
                        Ok(added) => eprintln!("registry: {added} imported workload(s) from {dir}"),
                        Err(e) => {
                            eprintln!("error: --trace-dir {dir}: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                let pattern = workloads_pattern.as_deref().unwrap_or("*");
                let selected = match registry.select(pattern) {
                    Ok(selected) => selected,
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::from(2);
                    }
                };
                let mut loaded = Vec::with_capacity(selected.len());
                for entry in selected {
                    match entry.load() {
                        Ok(workload) => loaded.push(workload),
                        Err(e) => {
                            eprintln!("error: workload `{}`: {e}", entry.id);
                            return ExitCode::FAILURE;
                        }
                    }
                }
                loaded
            } else {
                cnt_workloads::suite()
            };
            let count = workloads.len();
            let pass = move || {
                let matrix = run_dcache_matrix(&workloads, &policies);
                assert_eq!(matrix.len(), workloads.len());
                // Each matrix cell replays the full trace once.
                workloads
                    .iter()
                    .map(|w| w.trace.len() as u64 * policies.len() as u64)
                    .sum()
            };
            (Box::new(pass), count)
        }
    };

    let measure = |label: &str, jobs: usize| -> (PassRecord, u64) {
        pool::set_jobs(jobs);
        // Distinct scope labels per pass: the same matrix replays four
        // times (warmup + measured, sequential + parallel), so snapshot
        // ids must not collide across passes.
        let _pass = cnt_obs::scoped(label);
        {
            // Full warm-up replay so neither measured pass pays
            // first-touch costs the other would not (the first pass
            // would otherwise warm the allocator and page cache for the
            // second).
            let _warmup = cnt_obs::scoped("warmup");
            let _ = run_pass();
        }
        let _measured = cnt_obs::scoped("measured");
        let start = Instant::now();
        let accesses = run_pass();
        let wall = start.elapsed().as_secs_f64();
        let record = PassRecord {
            jobs,
            wall_seconds: wall,
            // Guard the degenerate zero-wall case: the record must stay
            // serializable, and serde_json rejects non-finite floats.
            accesses_per_second: if wall > 0.0 {
                accesses as f64 / wall
            } else {
                0.0
            },
            iters: 1,
            warmup: 1,
        };
        (record, accesses)
    };

    let what = trace_path.as_deref().unwrap_or("suite");
    eprintln!("replaying {what} sequentially (--jobs 1)...");
    let (seq, seq_accesses) = measure("seq", 1);
    eprintln!(
        "  {:.3} s  ({:.0} accesses/s)",
        seq.wall_seconds, seq.accesses_per_second
    );
    eprintln!("replaying {what} in parallel (--jobs {jobs})...");
    let (par, par_accesses) = measure("par", jobs);
    eprintln!(
        "  {:.3} s  ({:.0} accesses/s)",
        par.wall_seconds, par.accesses_per_second
    );
    assert_eq!(
        seq_accesses, par_accesses,
        "both passes replay the identical matrix"
    );

    let cores = pool::default_jobs();
    let record = BenchRecord {
        // The pool's own view of the hardware, sampled at measurement
        // time — the one number `metrics_lint` trusts when judging
        // whether a `jobs > cores` speedup claim is reliable.
        cores,
        workloads: workload_count,
        policies_per_workload: policies.len(),
        accesses_per_pass: seq_accesses,
        sequential: seq,
        parallel: par,
        skip_note: scaling_skip_note(cores),
    };
    println!(
        "speedup: {:.2}x on {} core(s)",
        record.speedup(),
        record.cores
    );

    let json = serde_json::to_string_pretty(&record).expect("record serialises");
    if let Err(e) = std::fs::write(&out_path, json + "\n") {
        eprintln!("error: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");

    if let Some(path) = metrics_out {
        let snapshots = cnt_obs::drain();
        let jsonl = match cnt_obs::to_jsonl(&snapshots) {
            Ok(jsonl) => jsonl,
            Err(e) => {
                eprintln!("error: cannot serialize metrics: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = std::fs::write(&path, jsonl) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("metrics: wrote {} snapshots to {path}", snapshots.len());
    }
    ExitCode::SUCCESS
}

/// The explicit skip record a scaling measurement carries when the box
/// cannot support the claim (fewer than 4 hardware threads): the
/// numbers are still real wall-clock, but any speedup is noise, and the
/// committed JSON must say so rather than silently look like a
/// regression.
fn scaling_skip_note(cores: usize) -> Option<String> {
    (cores < 4).then(|| {
        format!(
            "parallel-scaling measurement skipped: {cores} core(s) at measurement time, \
             a >=4-core box is required for a meaningful speedup claim"
        )
    })
}

/// Gate tolerance: a fresh stage mean more than this fraction below the
/// committed mean exits with [`GATE_EXIT`].
const GATE_TOLERANCE: f64 = 0.20;

/// Exit code for a perf-gate violation — distinct from hard failures so
/// CI can downgrade it to a warning on noisy shared runners.
const GATE_EXIT: u8 = 3;

/// `splitmix64` step: cheap, deterministic, well-mixed test data.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs one stage body `warmup` untimed plus `iters` timed iterations
/// and summarises throughput. The body returns a checksum that must be
/// identical every iteration — a changing checksum means the stage is
/// not deterministic and the timing compares different work.
fn time_stage(
    name: &str,
    unit: &str,
    items_per_iter: u64,
    iters: u32,
    warmup: u32,
    baseline: f64,
    mut body: impl FnMut() -> u64,
) -> StageRecord {
    let mut checksum: Option<u64> = None;
    let mut check = |c: u64| match checksum {
        None => checksum = Some(c),
        Some(prev) => assert_eq!(prev, c, "stage `{name}` must be deterministic"),
    };
    for _ in 0..warmup {
        check(std::hint::black_box(body()));
    }
    let mut samples = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let start = Instant::now();
        let c = std::hint::black_box(body());
        let wall = start.elapsed().as_secs_f64();
        check(c);
        samples.push(if wall > 0.0 {
            items_per_iter as f64 / wall
        } else {
            0.0
        });
    }
    let per_second = IterStats::from_samples(&samples);
    let speedup = if baseline > 0.0 {
        per_second.mean / baseline
    } else {
        0.0
    };
    eprintln!(
        "stage {name:<8} {:>12.0} {unit}/s mean  (stddev {:.0}, min {:.0})  {:.1}x baseline",
        per_second.mean, per_second.stddev, per_second.min, speedup
    );
    StageRecord {
        stage: name.to_string(),
        items_per_iter,
        unit: unit.to_string(),
        iters,
        warmup,
        per_second,
        speedup_vs_baseline: speedup,
    }
}

/// The `--stages` mode: isolated single-thread hot-path timings.
fn run_stage_suite(
    out_path: &str,
    iters: u32,
    warmup: u32,
    baseline_path: &str,
    gate_path: Option<&str>,
) -> ExitCode {
    // All stages are single-thread measurements by definition.
    pool::set_jobs(1);
    let baseline = match std::fs::read_to_string(baseline_path) {
        Ok(text) => match serde_json::from_str::<BenchRecord>(&text) {
            Ok(record) => record.sequential.accesses_per_second,
            Err(e) => {
                eprintln!(
                    "warning: cannot parse baseline `{baseline_path}` ({e}); \
                     speedup_vs_baseline columns will read 0.0"
                );
                0.0
            }
        },
        Err(e) => {
            eprintln!(
                "warning: cannot read baseline `{baseline_path}` ({e}); \
                 speedup_vs_baseline columns will read 0.0"
            );
            0.0
        }
    };
    eprintln!("baseline: {baseline:.0} accesses/s end-to-end sequential ({baseline_path})");
    eprintln!("timing each stage: {warmup} warmup + {iters} measured iterations");

    let workloads = cnt_workloads::suite();
    let policies = [EncodingPolicy::None, EncodingPolicy::adaptive_default()];
    let mut records = Vec::new();

    // Stage 1 — popcount: the per-partition stored-weight kernel over
    // deterministic 512-bit lines (8 partitions of one word each, the
    // paper's D-Cache shape), exactly the split the predictor asks for.
    {
        const LINES: usize = 1 << 16;
        const WORDS_PER_LINE: usize = 8;
        let mut seed = 0xC17_CAC4Eu64;
        let words: Vec<u64> = (0..LINES * WORDS_PER_LINE)
            .map(|_| splitmix64(&mut seed))
            .collect();
        let mut counts = [0u32; WORDS_PER_LINE];
        records.push(time_stage(
            "popcount",
            "lines",
            LINES as u64,
            iters,
            warmup,
            baseline,
            || {
                let mut sum = 0u64;
                for line in words.chunks_exact(WORDS_PER_LINE) {
                    popcount_word_partitions(line, 1, &mut counts);
                    sum += counts.iter().map(|&c| u64::from(c)).sum::<u64>();
                }
                sum
            },
        ));
    }

    // Stage 2 — decode: `.ctr` chunk payloads for the whole suite,
    // decoded into one reused struct-of-arrays batch per chunk.
    {
        const CHUNK_ACCESSES: usize = 4096;
        let mut payloads: Vec<(Vec<u8>, u32)> = Vec::new();
        let mut total_records = 0u64;
        for workload in &workloads {
            for chunk in workload
                .trace
                .iter()
                .collect::<Vec<_>>()
                .chunks(CHUNK_ACCESSES)
            {
                let mut payload = Vec::new();
                for access in chunk {
                    encode_access(access, &mut payload);
                }
                payloads.push((payload, chunk.len() as u32));
                total_records += chunk.len() as u64;
            }
        }
        let mut batch = AccessBatch::with_capacity(CHUNK_ACCESSES);
        records.push(time_stage(
            "decode",
            "records",
            total_records,
            iters,
            warmup,
            baseline,
            || {
                let mut sum = 0u64;
                for (payload, count) in &payloads {
                    decode_payload_into(payload, *count, 0, &mut batch)
                        .expect("suite payloads are well-formed");
                    sum = sum
                        .wrapping_add(batch.len() as u64)
                        .wrapping_add(batch.addrs().last().copied().unwrap_or(0));
                }
                sum
            },
        ));
    }

    // Stage 3 — decision: Algorithm 1 direction decisions (batched
    // stored popcount + threshold-table consult) over deterministic
    // lines, directions, and window summaries.
    {
        const LINES: usize = 1 << 14;
        const WORDS_PER_LINE: usize = 8;
        let config = PredictorConfig::paper_default();
        let predictor = DirectionPredictor::new(&BitEnergies::cnfet_default(), config)
            .expect("paper-default predictor is valid");
        let mut seed = 0xD1C1_510Au64;
        let lines: Vec<u64> = (0..LINES * WORDS_PER_LINE)
            .map(|_| splitmix64(&mut seed))
            .collect();
        let dirs: Vec<DirectionBits> = (0..LINES)
            .map(|_| DirectionBits::from_mask(splitmix64(&mut seed) & 0xFF, config.partitions))
            .collect();
        records.push(time_stage(
            "decision",
            "decisions",
            LINES as u64,
            iters,
            warmup,
            baseline,
            || {
                let mut sum = 0u64;
                for (i, line) in lines.chunks_exact(WORDS_PER_LINE).enumerate() {
                    let summary = WindowSummary {
                        wr_num: (i % (config.window as usize + 1)) as u32,
                    };
                    let decision = predictor.decide(summary, line, &dirs[i]);
                    sum = sum.wrapping_add(decision.flips).wrapping_add(1);
                }
                sum
            },
        ));
    }

    // Stage 4 — replay: the honest end-to-end number. The full
    // (workload x policy) matrix through the batched columnar loop,
    // single thread; compare against `baseline` to see what the batch
    // path buys end-to-end (metering dominates, so expect ~1x here —
    // the kernel stages above are where the 5x+ lives).
    {
        let batches: Vec<AccessBatch> = workloads
            .iter()
            .map(|w| AccessBatch::from_trace(&w.trace))
            .collect();
        let accesses: u64 =
            batches.iter().map(|b| b.len() as u64).sum::<u64>() * policies.len() as u64;
        records.push(time_stage(
            "replay",
            "accesses",
            accesses,
            iters,
            warmup,
            baseline,
            || {
                let mut sum = 0u64;
                for batch in &batches {
                    for &policy in &policies {
                        let report = run_dcache_batch(policy, batch);
                        sum = sum.wrapping_add(report.stats.accesses());
                    }
                }
                sum
            },
        ));
    }

    let record = SimdBenchRecord {
        cores: pool::default_jobs(),
        baseline_accesses_per_second: baseline,
        stages: records,
    };
    println!(
        "best stage speedup: {:.1}x over the end-to-end baseline",
        record.best_speedup()
    );
    let json = serde_json::to_string_pretty(&record).expect("record serialises");
    if let Err(e) = std::fs::write(out_path, json + "\n") {
        eprintln!("error: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");

    if let Some(path) = gate_path {
        let committed: SimdBenchRecord = match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str(&text).map_err(|e| e.to_string()))
        {
            Ok(committed) => committed,
            Err(e) => {
                eprintln!("error: cannot load gate record `{path}`: {e}");
                return ExitCode::FAILURE;
            }
        };
        let violations = committed.regressions_in(&record, GATE_TOLERANCE);
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("perf-gate: {v}");
            }
            return ExitCode::from(GATE_EXIT);
        }
        println!(
            "perf-gate: all {} committed stages within {:.0}% of their means",
            committed.stages.len(),
            GATE_TOLERANCE * 100.0
        );
    }
    ExitCode::SUCCESS
}
