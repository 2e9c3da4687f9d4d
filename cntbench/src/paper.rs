//! `paper-experiments`: the user's "reproduce the paper" command.
//!
//! Each operation is `experiments::run_many` over every experiment on
//! two pool workers, submitted in an order drawn from the seed (a new one
//! per operation) and reassembled in report order. It is the only workload through the work-stealing
//! pool, fault campaigns, SECDED protection, hierarchies and model
//! sweeps; its outputs do not depend on the seed.

use std::time::Instant;

use cnt_bench::experiments::{self, run_many};
use cnt_bench::pool;
use cnt_sim::trace::AccessBatch;

use crate::engine::{self, Replay};
use crate::metrics::experiment_metric;
use crate::tracer::{span, Span, Tracer};
use crate::{measure, median_of, peak_rss_mib, splitmix64, Ctx};

/// Pool workers, the box's two cores.
const JOBS: usize = 2;

type Report = Vec<Result<String, String>>;

/// `ids` in an order drawn from the seed stream `state` (Fisher–Yates).
/// Which experiments share the two workers depends on the order, and
/// with it the wall time; a new order per operation keeps one seed's
/// draw from setting a whole run's median.
fn shuffled(ids: &[&'static str], state: &mut u64) -> Vec<&'static str> {
    let mut order = ids.to_vec();
    for i in (1..order.len()).rev() {
        let j = (splitmix64(state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Reorders results computed in `order` back into `ids` order.
fn in_report_order(ids: &[&str], order: &[&str], results: Report) -> Report {
    let mut slots: Vec<Option<Result<String, String>>> = vec![None; ids.len()];
    for (id, result) in order.iter().zip(results) {
        let at = ids
            .iter()
            .position(|x| x == id)
            .expect("order permutes ids");
        slots[at] = Some(result);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every id ran"))
        .collect()
}

/// The reference: every experiment on one thread, in report order.
fn reference(ids: &[&str]) -> Report {
    pool::set_jobs(1);
    let report = run_many(ids);
    pool::set_jobs(JOBS);
    report
}

pub(crate) fn untraced(ctx: &mut Ctx) -> Result<(), String> {
    let opts = ctx.opts;
    let ids = &opts.scale.experiments;
    // Nothing to generate: set-up is the first, cold run, which is also
    // the warm-up and the reference. It runs once because it is slow.
    // The peak resident set is read after it: on two workers the peak
    // depends on which experiments happen to overlap.
    let t = Instant::now();
    let expected = reference(ids);
    let setup = t.elapsed().as_secs_f64();
    let peak_rss = peak_rss_mib()?;
    ctx.tally.record(expected.iter().all(Result::is_ok));

    ctx.jobs = JOBS;
    let mut state = opts.seed;
    let tally = &mut ctx.tally;
    let ops = measure(opts.seconds, opts.scale.min_ops, |_| {
        let order = shuffled(ids, &mut state);
        let report = in_report_order(ids, &order, run_many(&order));
        tally.record(report == expected);
        Ok(())
    })?;
    ctx.end_to_end(&[setup], peak_rss, &ops);
    Ok(())
}

/// `run_many` with a span around each experiment.
fn traced_run_many(
    tracer: &Tracer,
    order: &[&'static str],
    parent: Option<u64>,
    group: u64,
) -> Report {
    pool::par_map(order, |id| {
        span(Some(tracer), &experiment_metric(id), parent, group, |_| {
            experiments::run(id)
        })
    })
}

pub(crate) fn traced(ctx: &mut Ctx) -> Result<(), String> {
    let opts = ctx.opts;
    let ids = &opts.scale.experiments;
    let reps = opts.scale.traced_reps;
    ctx.jobs = JOBS;
    pool::set_jobs(JOBS);
    let mut state = opts.seed;
    let tracer = Tracer::new();
    let t = Some(&tracer);

    // The kernel suite the experiments replay, for the engine's layers.
    let mut replays: Vec<Replay> = Vec::new();
    for rep in 0..opts.scale.setup_reps as u64 {
        replays = span(t, "setup", None, rep, |setup| {
            span(t, "workloads.generate", setup, rep, |_| {
                (opts.scale.paper_suite)()
                    .iter()
                    .map(|w| vec![AccessBatch::from_trace(&w.trace)])
                    .collect()
            })
        });
    }
    // Iteration 0 is the warm-up.
    let mut reports = Vec::new();
    let start = Instant::now();
    let mut iteration = 0u64;
    while iteration as usize <= reps || start.elapsed().as_secs_f64() < ctx.phase_seconds() {
        let order = shuffled(ids, &mut state);
        reports.push(span(t, "iteration", None, iteration, |it| {
            in_report_order(ids, &order, traced_run_many(&tracer, &order, it, iteration))
        }));
        iteration += 1;
    }
    let engine_reports = engine::run_rounds(&tracer, &replays, ctx.phase_seconds(), reps)?;
    let trace = tracer.finish();

    let untraced = measure(ctx.phase_seconds(), reps, |_| {
        let order = shuffled(ids, &mut state);
        reports.push(in_report_order(ids, &order, run_many(&order)));
        Ok(())
    })?;
    let expected = reference(ids);
    ctx.tally.record(expected.iter().all(Result::is_ok));
    for report in &reports {
        ctx.tally.record(*report == expected);
    }

    let m = &mut ctx.metrics;
    let iterations: Vec<&Span> = trace.named("iteration").filter(|s| s.group > 0).collect();
    let mut pool_stats: [Vec<f64>; 4] = Default::default();
    for it in &iterations {
        let runs: Vec<&Span> = trace
            .spans
            .iter()
            .filter(|s| s.parent == Some(it.id))
            .collect();
        let busy: f64 = runs.iter().map(|s| s.secs()).sum();
        let straggler = runs.iter().map(|s| s.secs()).fold(0.0, f64::max);
        let mut ends: Vec<u64> = runs.iter().map(|s| s.end_ns).collect();
        ends.sort_unstable();
        let all_but_one = ends.len().checked_sub(2).map_or(it.start_ns, |i| ends[i]);
        let tail = (it.end_ns - all_but_one) as f64 * 1e-9;
        for (stat, value) in
            pool_stats
                .iter_mut()
                .zip([busy, busy / (it.secs() * JOBS as f64), straggler, tail])
        {
            stat.push(value);
        }
    }
    for (name, values) in [
        "pool.busy_s",
        "pool.utilization",
        "pool.straggler_s",
        "pool.tail_s",
    ]
    .into_iter()
    .zip(pool_stats)
    {
        m.value(name, median_of(values));
    }
    for id in ids {
        let name = experiment_metric(id);
        let secs = trace
            .by_group(&[name.as_str()])
            .into_iter()
            .filter_map(|(group, secs)| (group > 0).then_some(secs));
        m.value(&name, median_of(secs));
    }
    m.value(
        "workloads.generate_s",
        median_of(trace.durations("workloads.generate")),
    );
    let untraced_op = median_of(untraced.secs);
    m.value(
        "tracing_overhead_pct",
        (median_of(iterations.iter().map(|s| s.secs())) - untraced_op) / untraced_op * 100.0,
    );
    engine::layer_metrics(&trace, &replays, &engine_reports, m);
    ctx.trace = Some(trace);
    Ok(())
}
