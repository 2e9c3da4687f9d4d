//! `cntbench`: the repository's benchmark.
//!
//! Four workloads, each run in its own process by the `cntbench` binary:
//! an untraced run measures the end-to-end metrics, a traced run
//! attributes time to the layers beneath them. See `README.md` beside
//! this crate for the workloads, the metric table, and how to run it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod stats;
pub mod tracer;

mod engine;
mod paper;
mod serve;
mod stream_mixed;
mod write_heavy;

use std::path::PathBuf;
use std::time::Instant;

use cnt_cache::{EncodingPolicy, EnergyReport};
use metrics::{Metric, Metrics};
use stats::{Summary, Tally};
use tracer::Trace;

/// The workloads, by the names the command line takes.
pub const WORKLOADS: [&str; 4] = [
    "stream-mixed",
    "write-heavy",
    "paper-experiments",
    "serve-sessions",
];

/// How much work each workload does. The binary always runs
/// [`Scale::full`]; tests pass a smaller one.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Demand accesses of the `stream-mixed` trace.
    pub stream_accesses: usize,
    /// Demand accesses of the `write-heavy` batch.
    pub write_accesses: usize,
    /// Experiments one `paper-experiments` operation runs.
    pub experiments: Vec<&'static str>,
    /// The kernel suite the traced `paper-experiments` run attributes
    /// engine layers on.
    pub paper_suite: fn() -> Vec<cnt_workloads::Workload>,
    /// Demand accesses of each `serve-sessions` trace.
    pub serve_accesses: usize,
    /// Sessions an untraced `serve-sessions` run completes at least.
    pub min_sessions: usize,
    /// Measured operations an untraced run completes at least.
    pub min_ops: usize,
    /// Times set-up is repeated (its median is `setup_s`).
    pub setup_reps: usize,
    /// Repetitions each phase of a traced run completes at least.
    pub traced_reps: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Scale {
        Scale {
            stream_accesses: 4_000_000,
            write_accesses: 2_000_000,
            experiments: cnt_bench::experiments::ALL.to_vec(),
            paper_suite: cnt_workloads::suite,
            serve_accesses: 125_000,
            min_sessions: 240,
            min_ops: 10,
            setup_reps: 3,
            traced_reps: 3,
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the measured phase runs, at least.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub traced: bool,
    /// Workload sizes.
    pub scale: Scale,
    /// Scratch directory for the run's files; must exist.
    pub dir: PathBuf,
}

/// A line of the human-readable report that is not a declared metric.
#[derive(Debug, Clone)]
pub struct Detail {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Samples.
    pub summary: Summary,
}

/// What one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Operations checked and failed.
    pub tally: Tally,
    /// Every declared metric of the run's kind, in declaration order.
    pub metrics: Vec<(Metric, Summary)>,
    /// The metrics the workload measured (the others read 0).
    pub measured: Vec<String>,
    /// Further numbers for the human-readable report.
    pub details: Vec<Detail>,
    /// Worker threads the workload's pool was pinned to.
    pub jobs: usize,
    /// The traced window's spans (traced runs only).
    pub trace: Option<Trace>,
}

impl Outcome {
    /// `true` when every checked output matched its reference.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }
}

/// A workload run in progress.
pub(crate) struct Ctx<'a> {
    pub opts: &'a RunOptions,
    pub metrics: Metrics,
    pub tally: Tally,
    pub details: Vec<Detail>,
    pub jobs: usize,
    pub trace: Option<Trace>,
}

impl Ctx<'_> {
    /// Seconds each phase of a traced run lasts at least: the run's
    /// budget split over the traced work and the untraced comparison.
    pub fn phase_seconds(&self) -> f64 {
        self.opts.seconds / 3.0
    }

    pub fn detail(&mut self, name: &'static str, unit: &'static str, samples: &[f64]) {
        self.details.push(Detail {
            name,
            unit,
            summary: Summary::of(samples),
        });
    }

    /// The replay workloads' report lines beyond the declared metrics:
    /// simulated accesses per host second of each pass (`passes` holds
    /// the baseline and adaptive seconds of each measured operation),
    /// and the simulated energy saving.
    pub fn replay_details(
        &mut self,
        accesses: f64,
        passes: &[[f64; 2]],
        expected: &[EnergyReport; 2],
    ) {
        for (i, name) in ["baseline_macc_s", "adaptive_macc_s"]
            .into_iter()
            .enumerate()
        {
            let rates: Vec<f64> = passes.iter().map(|secs| accesses / secs[i] / 1e6).collect();
            self.detail(name, "Macc/s", &rates);
        }
        let saving = expected[1].saving_vs(&expected[0]);
        self.detail("energy_saving_pct", "%", &[saving]);
    }

    /// Records the end-to-end metrics shared by every workload:
    /// `setup` holds each set-up's seconds, `peak_rss` the peak resident
    /// set after set-up and the warm-up operation.
    pub fn end_to_end(&mut self, setup: &[f64], peak_rss: f64, ops: &Samples) {
        self.metrics.set("setup_s", Summary::of(setup));
        self.metrics.value("peak_rss_mib", peak_rss);
        let ms: Vec<f64> = ops.secs.iter().map(|s| s * 1e3).collect();
        self.metrics.set("op_p50_ms", Summary::of(&ms));
        self.metrics
            .value("ops_per_s", ops.secs.len() as f64 / ops.wall);
    }
}

/// Runs one workload.
///
/// # Errors
///
/// An unknown workload, or a failure that stops the run (I/O, a
/// simulator error); output mismatches are counted in
/// [`Outcome::tally`] instead.
pub fn run(opts: &RunOptions) -> Result<Outcome, String> {
    let mut ctx = Ctx {
        opts,
        metrics: Metrics::new(opts.traced),
        tally: Tally::default(),
        details: Vec::new(),
        jobs: 1,
        trace: None,
    };
    match (opts.workload.as_str(), opts.traced) {
        ("stream-mixed", false) => stream_mixed::untraced(&mut ctx)?,
        ("stream-mixed", true) => stream_mixed::traced(&mut ctx)?,
        ("write-heavy", false) => write_heavy::untraced(&mut ctx)?,
        ("write-heavy", true) => write_heavy::traced(&mut ctx)?,
        ("paper-experiments", false) => paper::untraced(&mut ctx)?,
        ("paper-experiments", true) => paper::traced(&mut ctx)?,
        ("serve-sessions", false) => serve::untraced(&mut ctx)?,
        ("serve-sessions", true) => serve::traced(&mut ctx)?,
        (other, _) => {
            return Err(format!(
                "unknown workload `{other}` (expected one of: {})",
                WORKLOADS.join(", ")
            ))
        }
    }
    let measured = ctx.metrics.measured();
    if !opts.traced && measured.len() != metrics::end_to_end().len() {
        return Err(format!(
            "workload `{}` measured only {measured:?} of the end-to-end metrics",
            opts.workload
        ));
    }
    Ok(Outcome {
        tally: ctx.tally,
        metrics: ctx.metrics.finish(),
        measured,
        details: ctx.details,
        jobs: ctx.jobs,
        trace: ctx.trace,
    })
}

/// The two policies every replay operation runs, in order, with span
/// labels.
pub(crate) fn policies() -> [(EncodingPolicy, &'static str); 2] {
    [
        (EncodingPolicy::None, "baseline"),
        (EncodingPolicy::adaptive_default(), "adaptive"),
    ]
}

/// Per-operation wall times of a measured loop.
#[derive(Debug, Clone)]
pub(crate) struct Samples {
    /// Seconds per operation.
    pub secs: Vec<f64>,
    /// Seconds the whole loop took.
    pub wall: f64,
}

/// Runs `op` until `seconds` have passed and at least `min` operations
/// are done, timing each. `op` receives the operation's index.
pub(crate) fn measure(
    seconds: f64,
    min: usize,
    mut op: impl FnMut(u64) -> Result<(), String>,
) -> Result<Samples, String> {
    let start = Instant::now();
    let mut secs = Vec::new();
    while secs.len() < min || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        op(secs.len() as u64)?;
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok(Samples {
        secs,
        wall: start.elapsed().as_secs_f64(),
    })
}

/// Times `f` `reps` times, returning the seconds of each.
pub(crate) fn repeat_timed(
    reps: usize,
    mut f: impl FnMut(u64) -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    (0..reps as u64)
        .map(|rep| {
            let t = Instant::now();
            f(rep).map(|()| t.elapsed().as_secs_f64())
        })
        .collect()
}

/// The process's peak resident set (`VmHWM`), in MiB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field (not Linux).
pub(crate) fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS: /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|n| n.trim().parse().ok())
        .ok_or("peak RSS: no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// SplitMix64: a seed-derived stream of well-mixed words.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Medians over the values of a per-group map.
pub(crate) fn median_of<I: IntoIterator<Item = f64>>(values: I) -> f64 {
    stats::median(&values.into_iter().collect::<Vec<_>>())
}
