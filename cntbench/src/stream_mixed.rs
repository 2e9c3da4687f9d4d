//! `stream-mixed`: streamed `.ctr` replay, the headline path.
//!
//! A Zipfian trace over four times the L1D's lines (a ~0.68 hit rate),
//! 80% reads, replayed from disk under the baseline and then the
//! adaptive policy. It runs through `.ctr` read and decode, lookup,
//! metering, the predictor and the FIFO together.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;
use std::time::Instant;

use cnt_bench::pool;
use cnt_bench::runner::{dcache_config, run_dcache_batch};
use cnt_bench::stream::{run_dcache_stream, StreamOutcome};
use cnt_cache::{CntCache, EncodingPolicy, EnergyReport};
use cnt_sim::trace::{AccessBatch, MemoryAccess};
use cnt_trace::reader::Fetch;
use cnt_trace::{CorruptionPolicy, IngestStats, ReadOptions, StreamReader};
use cnt_workloads::synthetic::{AddressPattern, SyntheticSpec};

use crate::engine::{self, Replay};
use crate::tracer::{span, Tracer};
use crate::{measure, median_of, peak_rss_mib, policies, repeat_timed, Ctx};

const MIB: usize = 1024 * 1024;

/// The reader's prefetch budget.
const BUDGET: usize = 8 * MIB;

fn spec(seed: u64, accesses: usize) -> SyntheticSpec {
    SyntheticSpec {
        accesses,
        footprint_lines: 2048,
        read_fraction: 0.8,
        ones_density: 0.2,
        pattern: AddressPattern::Zipfian { theta: 0.9 },
        seed,
    }
}

fn read_options() -> ReadOptions {
    ReadOptions {
        budget_bytes: BUDGET,
        corruption: CorruptionPolicy::FailFast,
    }
}

fn create(path: &Path) -> Result<BufWriter<File>, String> {
    File::create(path)
        .map(BufWriter::new)
        .map_err(|e| format!("`{}`: {e}", path.display()))
}

/// One operation: the trace streamed under each policy, each pass timed.
fn op(path: &Path) -> Result<[(StreamOutcome, f64); 2], String> {
    let [base, adaptive] = policies().map(|(policy, _)| {
        let t = Instant::now();
        run_dcache_stream(policy, path, read_options())
            .map(|outcome| (outcome, t.elapsed().as_secs_f64()))
            .map_err(|e| e.to_string())
    });
    Ok([base?, adaptive?])
}

/// The reference: the same accesses replayed in memory.
fn reference(spec: &SyntheticSpec) -> [EnergyReport; 2] {
    let batch: AccessBatch = spec.stream().collect();
    policies().map(|(policy, _)| run_dcache_batch(policy, &batch))
}

pub(crate) fn untraced(ctx: &mut Ctx) -> Result<(), String> {
    let opts = ctx.opts;
    pool::set_jobs(1);
    let spec = spec(opts.seed, opts.scale.stream_accesses);
    let path = opts.dir.join("stream-mixed.ctr");

    let setup = repeat_timed(opts.scale.setup_reps, |_| {
        cnt_trace::pack_accesses(
            spec.stream(),
            create(&path)?,
            cnt_trace::DEFAULT_CHUNK_ACCESSES,
        )
        .map(drop)
        .map_err(|e| e.to_string())
    })?;
    // The first operation is the untimed warm-up.
    let mut outputs = vec![op(&path)?];
    let peak_rss = peak_rss_mib()?;
    let ops = measure(opts.seconds, opts.scale.min_ops, |_| {
        outputs.push(op(&path)?);
        Ok(())
    })?;
    ctx.end_to_end(&setup, peak_rss, &ops);

    let expected = reference(&spec);
    for [(base, _), (adaptive, _)] in &outputs {
        ctx.tally
            .record(base.report == expected[0] && adaptive.report == expected[1]);
    }
    let passes: Vec<[f64; 2]> = outputs[1..].iter().map(|[b, a]| [b.1, a.1]).collect();
    ctx.replay_details(outputs[0][0].0.accesses as f64, &passes, &expected);
    Ok(())
}

/// One traced pass: the reader, decoder and cache called chunk by chunk,
/// as `run_dcache_stream` does at `--jobs 1`, each call a span.
fn traced_pass(
    tracer: &Tracer,
    path: &Path,
    (policy, label): (EncodingPolicy, &str),
    parent: Option<u64>,
    group: u64,
    mut keep: Option<&mut Replay>,
) -> Result<(EnergyReport, IngestStats), String> {
    let name = format!("stream.pass.{label}");
    let t = Some(tracer);
    span(t, &name, parent, group, |pass| {
        let file = File::open(path).map_err(|e| format!("`{}`: {e}", path.display()))?;
        let mut reader =
            StreamReader::new(BufReader::new(file), read_options()).map_err(|e| e.to_string())?;
        let mut cache = CntCache::new(dcache_config("L1D", policy)).map_err(|e| e.to_string())?;
        loop {
            let fetched = span(t, "trace.read", pass, group, |_| {
                reader.next_raw_within(BUDGET)
            })
            .map_err(|e| e.to_string())?;
            let raw = match fetched {
                Fetch::Chunk(raw) => raw,
                Fetch::Eof => break,
                Fetch::WouldExceed { chunk, needed } => {
                    return Err(format!(
                        "chunk {chunk} needs {needed} bytes, over the budget"
                    ))
                }
            };
            let batch = span(t, "trace.decode", pass, group, |_| {
                let mut batch = AccessBatch::with_capacity(raw.access_count as usize);
                raw.decode_batch(&mut batch).map(|()| batch)
            })
            .map_err(|e| e.to_string())?;
            span(t, "core.run_batch", pass, group, |_| {
                cache.run_batch(&batch)
            })
            .map_err(|e| e.to_string())?;
            if let Some(keep) = keep.as_mut() {
                keep.push(batch);
            }
        }
        span(t, "core.flush", pass, group, |_| cache.flush());
        Ok((cache.into_report(), reader.stats()))
    })
}

pub(crate) fn traced(ctx: &mut Ctx) -> Result<(), String> {
    let opts = ctx.opts;
    pool::set_jobs(1);
    let spec = spec(opts.seed, opts.scale.stream_accesses);
    let path = opts.dir.join("stream-mixed.ctr");
    let reps = opts.scale.traced_reps;
    let tracer = Tracer::new();
    let t = Some(&tracer);

    for rep in 0..opts.scale.setup_reps as u64 {
        span(t, "setup", None, rep, |setup| {
            let accesses: Vec<MemoryAccess> = span(t, "workloads.generate", setup, rep, |_| {
                spec.stream().collect()
            });
            span(t, "trace.pack", setup, rep, |_| {
                cnt_trace::pack_accesses(
                    accesses,
                    create(&path)?,
                    cnt_trace::DEFAULT_CHUNK_ACCESSES,
                )
                .map_err(|e| e.to_string())
            })
        })?;
    }

    // Iteration 0 is the warm-up; its decoded chunks feed the engine runs.
    let mut chunks = Replay::new();
    let mut reports = Vec::new();
    let mut stats = IngestStats::default();
    let start = Instant::now();
    let mut iteration = 0u64;
    while iteration as usize <= reps || start.elapsed().as_secs_f64() < ctx.phase_seconds() {
        let keep = (iteration == 0).then_some(&mut chunks);
        let [base, adaptive] = policies();
        let [(base, base_stats), (adaptive, _)] = span(t, "iteration", None, iteration, |it| {
            let base = traced_pass(&tracer, &path, base, it, iteration, keep)?;
            let adaptive = traced_pass(&tracer, &path, adaptive, it, iteration, None)?;
            Ok::<_, String>([base, adaptive])
        })?;
        stats = base_stats;
        reports.push([base, adaptive]);
        iteration += 1;
    }
    let replays = vec![chunks];
    let engine_reports = engine::run_rounds(&tracer, &replays, ctx.phase_seconds(), reps)?;
    let trace = tracer.finish();

    let untraced = measure(ctx.phase_seconds(), reps, |_| op(&path).map(drop))?;

    let expected = reference(&spec);
    for pair in &reports {
        ctx.tally.record(*pair == expected);
    }
    ctx.tally.record(
        engine_reports.baseline[..] == expected[..1]
            && engine_reports.adaptive[..] == expected[1..],
    );

    let m = &mut ctx.metrics;
    m.value(
        "workloads.generate_s",
        median_of(trace.durations("workloads.generate")),
    );
    m.value("trace.pack_s", median_of(trace.durations("trace.pack")));
    // Per measured iteration (group 0 is the warm-up), summed over both passes.
    let measured = |names: &[&str]| -> f64 {
        median_of(
            trace
                .by_group(names)
                .into_iter()
                .filter_map(|(group, secs)| (group > 0).then_some(secs)),
        )
    };
    let chunks_per_pass = stats.chunks_read as f64;
    let accesses_per_pass = stats.accesses_declared as f64;
    m.value(
        "trace.read_ns_per_chunk",
        measured(&["trace.read"]) * 1e9 / (2.0 * chunks_per_pass),
    );
    m.value(
        "trace.decode_ns_per_acc",
        measured(&["trace.decode"]) * 1e9 / (2.0 * accesses_per_pass),
    );
    m.value("trace.chunks", chunks_per_pass);
    m.value("trace.mib_read", stats.bytes_read as f64 / MIB as f64);
    m.value("trace.crc_failures", stats.crc_failures as f64);
    let untraced_op = median_of(untraced.secs);
    let layers = measured(&["trace.read", "trace.decode", "core.run_batch", "core.flush"]);
    m.value(
        "stream.unattributed_pct",
        (untraced_op - layers) / untraced_op * 100.0,
    );
    m.value(
        "tracing_overhead_pct",
        (measured(&["iteration"]) - untraced_op) / untraced_op * 100.0,
    );
    engine::layer_metrics(&trace, &replays, &engine_reports, m);
    ctx.trace = Some(trace);
    Ok(())
}
