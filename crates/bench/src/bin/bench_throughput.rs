//! Times the replay hot path one stage at a time on one thread and
//! writes one [`BenchRow`] per stage to `BENCH_simd.json`.
//!
//! Usage:
//!
//! ```text
//! bench_throughput [--iters N] [--warmup N] [--out PATH] [--gate FILE]
//! ```
//!
//! The stages are the `popcount`, `decode` and `decision` kernels and
//! the batched end-to-end `replay` loop. Each runs `--warmup` untimed
//! and `--iters` timed iterations (defaults 2 and 10), and its row holds
//! the median and quartiles of the per-iteration rate. `--gate FILE`
//! loads a committed row file before any timing and, after it, exits
//! with code 3 when a fresh median falls more than 20% below the
//! committed median of the same `(suite, case)` (CI treats 3 as a
//! warning: shared runners are noisy). End-to-end figures are
//! cntbench's (`BENCHMARK.json`).

use std::process::ExitCode;
use std::time::Instant;

use cnt_bench::record::{check_rows, quartiles, regressions};
use cnt_bench::runner::run_dcache_batch;
use cnt_bench::{cli, pool, BenchRow};
use cnt_cache::EncodingPolicy;
use cnt_encoding::popcount::popcount_word_partitions;
use cnt_encoding::{DirectionBits, DirectionPredictor, PredictorConfig, WindowSummary};
use cnt_energy::BitEnergies;
use cnt_sim::trace::AccessBatch;
use cnt_trace::format::{decode_payload_into, encode_access};

/// Gate tolerance: a fresh median more than this fraction below the
/// committed median exits with [`GATE_EXIT`].
const GATE_TOLERANCE: f64 = 0.20;

/// Exit code for a perf-gate violation — distinct from hard failures so
/// CI can downgrade it to a warning on noisy shared runners.
const GATE_EXIT: u8 = 3;

/// The `suite` of every row this binary writes.
const SUITE: &str = "stages";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_simd.json");
    let mut iters = 10u32;
    let mut warmup = 2u32;
    let mut gate_path: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let parsed = match arg.as_str() {
            "--out" => cli::flag_value(&mut iter, "--out").map(|p| out_path = p.into()),
            "--iters" => cli::positive_int_flag(&mut iter, "--iters").map(|n| iters = n),
            "--warmup" => cli::int_flag(&mut iter, "--warmup").map(|n| warmup = n),
            "--gate" => cli::flag_value(&mut iter, "--gate").map(|p| gate_path = Some(p.into())),
            other => {
                eprintln!(
                    "usage: bench_throughput [--iters N] [--warmup N] [--out PATH] [--gate FILE]"
                );
                eprintln!("error: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = parsed {
            return e.exit();
        }
    }
    // A bad gate file fails here, before any timing and any output.
    let committed = match &gate_path {
        None => None,
        Some(path) => match load_rows(path) {
            Ok(rows) => Some(rows),
            Err(e) => {
                eprintln!("error: cannot load gate record `{path}`: {e}");
                return ExitCode::FAILURE;
            }
        },
    };

    let rows = time_stages(iters, warmup);
    let json = serde_json::to_string_pretty(&rows).expect("rows serialise");
    if let Err(e) = std::fs::write(&out_path, json + "\n") {
        eprintln!("error: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");

    if let Some(committed) = committed {
        let violations = regressions(&committed, &rows, GATE_TOLERANCE);
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("perf-gate: {v}");
            }
            return ExitCode::from(GATE_EXIT);
        }
        println!(
            "perf-gate: all {} committed rows within {:.0}% of their medians",
            committed.len(),
            GATE_TOLERANCE * 100.0
        );
    }
    ExitCode::SUCCESS
}

/// Reads and checks a committed row file.
fn load_rows(path: &str) -> Result<Vec<BenchRow>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let rows: Vec<BenchRow> = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    check_rows(&rows)?;
    Ok(rows)
}

/// `splitmix64` step: cheap, deterministic, well-mixed test data.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs one stage body `warmup` untimed plus `iters` timed iterations
/// and summarises its rate. The body returns a checksum that must be
/// identical every iteration — a changing checksum means the stage is
/// not deterministic and the timing compares different work.
fn time_stage(
    case: &str,
    unit: &str,
    items_per_iter: u64,
    iters: u32,
    warmup: u32,
    mut body: impl FnMut() -> u64,
) -> BenchRow {
    let mut checksum: Option<u64> = None;
    let mut check = |c: u64| match checksum {
        None => checksum = Some(c),
        Some(prev) => assert_eq!(prev, c, "stage `{case}` must be deterministic"),
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
    let [q1, median, q3] = quartiles(&samples);
    eprintln!("stage {case:<8} {median:>12.0} {unit} median  (q1 {q1:.0}, q3 {q3:.0})");
    BenchRow {
        suite: SUITE.to_string(),
        case: case.to_string(),
        unit: unit.to_string(),
        cores: pool::default_jobs(),
        jobs: 1,
        iters,
        warmup,
        median,
        q1,
        q3,
    }
}

/// Times every stage on one thread.
fn time_stages(iters: u32, warmup: u32) -> Vec<BenchRow> {
    pool::set_jobs(1);
    eprintln!("timing each stage: {warmup} warmup + {iters} measured iterations");

    let workloads = cnt_workloads::suite();
    let policies = [EncodingPolicy::None, EncodingPolicy::adaptive_default()];
    let mut rows = Vec::new();

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
        rows.push(time_stage(
            "popcount",
            "lines/s",
            LINES as u64,
            iters,
            warmup,
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
        rows.push(time_stage(
            "decode",
            "records/s",
            total_records,
            iters,
            warmup,
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
        rows.push(time_stage(
            "decision",
            "decisions/s",
            LINES as u64,
            iters,
            warmup,
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

    // Stage 4 — replay: the full (workload x policy) matrix through the
    // batched columnar loop, single thread. cntbench's per-layer split
    // puts the largest share of each access in the bare simulator, not
    // in the meter or the kernels timed above.
    {
        let accesses: u64 =
            workloads.iter().map(|w| w.trace.len() as u64).sum::<u64>() * policies.len() as u64;
        rows.push(time_stage(
            "replay",
            "accesses/s",
            accesses,
            iters,
            warmup,
            || {
                let mut sum = 0u64;
                for w in &workloads {
                    for &policy in &policies {
                        let report = run_dcache_batch(policy, &w.trace);
                        sum = sum.wrapping_add(report.stats.accesses());
                    }
                }
                sum
            },
        ));
    }

    rows
}
