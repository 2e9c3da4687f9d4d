//! `write-heavy`: an in-memory batch replay with no decode.
//!
//! Uniform accesses over eight times the L1D's lines, 80% writes of
//! half-ones data: miss, eviction and write-back dominated, and the
//! workload where adaptive encoding loses energy. A read-path or decode
//! gain that costs the write path shows here.

use std::time::Instant;

use cnt_bench::runner::{dcache_config, run_dcache, run_dcache_batch};
use cnt_cache::{CntCache, EncodingPolicy, EnergyReport};
use cnt_sim::trace::AccessBatch;
use cnt_workloads::synthetic::{AddressPattern, SyntheticSpec};

use crate::engine;
use crate::tracer::{span, Tracer};
use crate::{measure, median_of, peak_rss_mib, policies, repeat_timed, Ctx};

fn generate(seed: u64, accesses: usize) -> AccessBatch {
    SyntheticSpec {
        accesses,
        footprint_lines: 4096,
        read_fraction: 0.2,
        ones_density: 0.5,
        pattern: AddressPattern::UniformRandom,
        seed,
    }
    .stream()
    .collect()
}

/// One operation: the batch replayed under each policy, each pass timed.
fn op(batch: &AccessBatch) -> [(EnergyReport, f64); 2] {
    policies().map(|(policy, _)| {
        let t = Instant::now();
        let report = run_dcache_batch(policy, batch);
        (report, t.elapsed().as_secs_f64())
    })
}

/// The reference: the iterator path over the same accesses.
fn reference(batch: &AccessBatch) -> [EnergyReport; 2] {
    let trace = batch.to_trace();
    policies().map(|(policy, _)| run_dcache(policy, &trace))
}

pub(crate) fn untraced(ctx: &mut Ctx) -> Result<(), String> {
    let opts = ctx.opts;
    let mut batch = AccessBatch::new();
    let setup = repeat_timed(opts.scale.setup_reps, |_| {
        // Free the previous repetition first so peak RSS holds one batch.
        drop(std::mem::take(&mut batch));
        batch = generate(opts.seed, opts.scale.write_accesses);
        Ok(())
    })?;
    // The first operation is the untimed warm-up.
    let mut outputs = vec![op(&batch)];
    let peak_rss = peak_rss_mib()?;
    let ops = measure(opts.seconds, opts.scale.min_ops, |_| {
        outputs.push(op(&batch));
        Ok(())
    })?;
    ctx.end_to_end(&setup, peak_rss, &ops);

    let expected = reference(&batch);
    for [(base, _), (adaptive, _)] in &outputs {
        ctx.tally
            .record(*base == expected[0] && *adaptive == expected[1]);
    }
    let passes: Vec<[f64; 2]> = outputs[1..].iter().map(|[b, a]| [b.1, a.1]).collect();
    ctx.replay_details(batch.len() as f64, &passes, &expected);
    Ok(())
}

/// One traced pass: `run_dcache_batch` unrolled into its calls.
fn traced_pass(
    tracer: &Tracer,
    batch: &AccessBatch,
    (policy, label): (EncodingPolicy, &str),
    parent: Option<u64>,
    group: u64,
) -> Result<EnergyReport, String> {
    let t = Some(tracer);
    span(t, &format!("write.pass.{label}"), parent, group, |pass| {
        let mut cache = CntCache::new(dcache_config("L1D", policy)).map_err(|e| e.to_string())?;
        span(t, "core.run_batch", pass, group, |_| cache.run_batch(batch))
            .map_err(|e| e.to_string())?;
        span(t, "core.flush", pass, group, |_| cache.flush());
        Ok(cache.into_report())
    })
}

pub(crate) fn traced(ctx: &mut Ctx) -> Result<(), String> {
    let opts = ctx.opts;
    let reps = opts.scale.traced_reps;
    let tracer = Tracer::new();
    let t = Some(&tracer);

    let mut batch = AccessBatch::new();
    for rep in 0..opts.scale.setup_reps as u64 {
        drop(std::mem::take(&mut batch));
        batch = span(t, "setup", None, rep, |setup| {
            span(t, "workloads.generate", setup, rep, |_| {
                generate(opts.seed, opts.scale.write_accesses)
            })
        });
    }
    // Iteration 0 is the warm-up.
    let mut reports = Vec::new();
    let start = Instant::now();
    let mut iteration = 0u64;
    while iteration as usize <= reps || start.elapsed().as_secs_f64() < ctx.phase_seconds() {
        let [base, adaptive] = policies();
        reports.push(span(t, "iteration", None, iteration, |it| {
            Ok::<_, String>([
                traced_pass(&tracer, &batch, base, it, iteration)?,
                traced_pass(&tracer, &batch, adaptive, it, iteration)?,
            ])
        })?);
        iteration += 1;
    }
    let replays = vec![vec![batch]];
    let engine_reports = engine::run_rounds(&tracer, &replays, ctx.phase_seconds(), reps)?;
    let trace = tracer.finish();
    let batch = &replays[0][0];

    let untraced = measure(ctx.phase_seconds(), reps, |_| {
        op(batch);
        Ok(())
    })?;

    let expected = reference(batch);
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
    let iterations = trace
        .by_group(&["iteration"])
        .into_iter()
        .filter_map(|(group, secs)| (group > 0).then_some(secs));
    let untraced_op = median_of(untraced.secs);
    m.value(
        "tracing_overhead_pct",
        (median_of(iterations) - untraced_op) / untraced_op * 100.0,
    );
    engine::layer_metrics(&trace, &replays, &engine_reports, m);
    ctx.trace = Some(trace);
    Ok(())
}
