//! The replay engine's layers, by differential runs.
//!
//! The same access batches replay under five configurations, each a
//! strict superset of the previous one's work:
//!
//! | run        | what runs                                   |
//! |------------|---------------------------------------------|
//! | `sim`      | `cnt_sim::Cache` over `MainMemory`, no meter |
//! | `baseline` | `CntCache` without encoding: + the meter      |
//! | `nometa`   | adaptive, `meter_metadata = false`: + encoding |
//! | `adaptive` | adaptive, the default: + metadata charges     |
//! | `secded`   | adaptive with SECDED-protected D bits         |
//!
//! Each layer's cost per access is the difference between neighbouring
//! runs, so `sim + energy.meter + encoding.adaptive + core.metadata`
//! telescopes to `core.adaptive` exactly.

use std::time::Instant;

use cnt_bench::runner::dcache_config;
use cnt_cache::{CntCache, CntCacheConfig, EncodingPolicy, EnergyReport};
use cnt_encoding::ProtectionMode;
use cnt_energy::ChargeKind;
use cnt_sim::trace::{AccessBatch, AccessKind};
use cnt_sim::{Cache, MainMemory};

use crate::metrics::Metrics;
use crate::stats::{median, ratio, Summary};
use crate::tracer::{span, Trace, Tracer};

/// One independent replay: a sequence of batches through one cache.
pub type Replay = Vec<AccessBatch>;

/// The five runs, in the order each round executes them.
const RUNS: [Run; 5] = [
    Run::Sim,
    Run::Baseline,
    Run::NoMeta,
    Run::Adaptive,
    Run::Secded,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Run {
    Sim,
    Baseline,
    NoMeta,
    Adaptive,
    Secded,
}

impl Run {
    /// The span around the run's replay loop.
    fn span(self) -> &'static str {
        match self {
            Run::Sim => "sim.run",
            Run::Baseline => "core.run_batch.baseline",
            Run::NoMeta => "core.run_batch.nometa",
            Run::Adaptive => "core.run_batch.adaptive",
            Run::Secded => "core.run_batch.secded",
        }
    }

    /// The span around the run's final flush.
    fn flush_span(self) -> &'static str {
        match self {
            Run::Sim => unreachable!("the simulator-only run is never flushed"),
            Run::Baseline => "core.flush.baseline",
            Run::NoMeta => "core.flush.nometa",
            Run::Adaptive => "core.flush.adaptive",
            Run::Secded => "core.flush.secded",
        }
    }

    fn config(self) -> CntCacheConfig {
        let mut config = match self {
            Run::Sim | Run::Baseline => dcache_config("L1D", EncodingPolicy::None),
            _ => dcache_config("L1D", EncodingPolicy::adaptive_default()),
        };
        match self {
            Run::NoMeta => config.meter_metadata = false,
            Run::Secded => config.protection = ProtectionMode::Secded,
            _ => {}
        }
        config
    }
}

/// Reports of the first round, for correctness checks and counters.
pub struct EngineReports {
    /// Baseline report per replay.
    pub baseline: Vec<EnergyReport>,
    /// Adaptive report per replay.
    pub adaptive: Vec<EnergyReport>,
}

/// Replays `replays` under every run, round after round, until
/// `seconds` have passed and at least `min_rounds` rounds are done.
/// Every run is a span, grouped by round.
///
/// # Errors
///
/// A batch the simulator rejects.
pub fn run_rounds(
    tracer: &Tracer,
    replays: &[Replay],
    seconds: f64,
    min_rounds: usize,
) -> Result<EngineReports, String> {
    let start = Instant::now();
    let mut reports = None;
    let mut round = 0u64;
    while (round as usize) < min_rounds || start.elapsed().as_secs_f64() < seconds {
        let got = span(Some(tracer), "engine.round", None, round, |parent| {
            let mut baseline = Vec::new();
            let mut adaptive = Vec::new();
            for run in RUNS {
                for replay in replays {
                    match run {
                        Run::Sim => sim(tracer, replay, parent, round)?,
                        _ => {
                            let report = replay_cnt(tracer, run, replay, parent, round)?;
                            match run {
                                Run::Baseline => baseline.push(report),
                                Run::Adaptive => adaptive.push(report),
                                _ => {}
                            }
                        }
                    }
                }
            }
            Ok::<_, String>(EngineReports { baseline, adaptive })
        })?;
        reports.get_or_insert(got);
        round += 1;
    }
    Ok(reports.expect("at least one round ran"))
}

fn replay_cnt(
    tracer: &Tracer,
    run: Run,
    replay: &Replay,
    parent: Option<u64>,
    round: u64,
) -> Result<EnergyReport, String> {
    let mut cache = span(Some(tracer), "core.new", parent, round, |_| {
        CntCache::new(run.config())
    })
    .map_err(|e| e.to_string())?;
    span(Some(tracer), run.span(), parent, round, |_| {
        replay
            .iter()
            .try_for_each(|batch| cache.run_batch(batch).map(|_| ()))
    })
    .map_err(|e| e.to_string())?;
    span(Some(tracer), run.flush_span(), parent, round, |_| {
        cache.flush()
    });
    Ok(span(
        Some(tracer),
        "core.into_report",
        parent,
        round,
        |_| cache.into_report(),
    ))
}

/// The simulator alone: the same accesses through a plain `Cache`.
fn sim(tracer: &Tracer, replay: &Replay, parent: Option<u64>, round: u64) -> Result<(), String> {
    let config = Run::Sim.config();
    let (mut cache, mut memory) = span(Some(tracer), "sim.new", parent, round, |_| {
        (
            Cache::new("L1D", config.geometry, config.replacement),
            MainMemory::with_fill(config.fill_pattern),
        )
    });
    span(Some(tracer), Run::Sim.span(), parent, round, |_| {
        for batch in replay {
            for i in 0..batch.len() {
                let (addr, width) = (batch.addr(i), batch.width(i));
                match batch.kind(i) {
                    AccessKind::Write => {
                        let value = batch.write_value(i).expect("writes carry a value");
                        cache.write(addr, width, value, &mut memory, &mut ())
                    }
                    AccessKind::Read | AccessKind::InstrFetch => {
                        cache.read(addr, width, &mut memory, &mut ()).map(|_| ())
                    }
                }
                .map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    })
}

/// Fills the engine's layer metrics from the rounds' spans and the
/// first round's reports.
pub fn layer_metrics(
    trace: &Trace,
    replays: &[Replay],
    reports: &EngineReports,
    metrics: &mut Metrics,
) {
    let accesses: usize = replays.iter().flatten().map(AccessBatch::len).sum();
    let per_acc = |run: Run| -> f64 {
        let per_round: Vec<f64> = trace.by_group(&[run.span()]).into_values().collect();
        median(&per_round) * 1e9 / accesses as f64
    };
    let [sim, baseline, nometa, adaptive, secded] = RUNS.map(per_acc);
    metrics.value("sim.ns_per_acc", sim);
    metrics.value("energy.meter_ns_per_acc", baseline - sim);
    metrics.value("encoding.adaptive_ns_per_acc", nometa - baseline);
    metrics.value("core.metadata_ns_per_acc", adaptive - nometa);
    metrics.value("encoding.secded_ns_per_acc", secded - adaptive);
    metrics.value("core.baseline_ns_per_acc", baseline);
    metrics.value("core.adaptive_ns_per_acc", adaptive);
    let flush: Vec<f64> = trace
        .by_group(&[Run::Adaptive.flush_span()])
        .into_values()
        .collect();
    metrics.set(
        "core.flush_ms",
        Summary::of(&flush.iter().map(|s| s * 1e3).collect::<Vec<_>>()),
    );

    let base = sum_reports(&reports.baseline);
    let adapt = sum_reports(&reports.adaptive);
    let kacc = base.accesses as f64 / 1e3;
    metrics.value(
        "sim.hit_rate",
        ratio(base.hits as f64, base.accesses as f64),
    );
    metrics.value("sim.evictions_per_kacc", base.evictions as f64 / kacc);
    metrics.value("sim.writebacks_per_kacc", base.writebacks as f64 / kacc);
    metrics.value("energy.mbits_charged", base.bits as f64 / 1e6);
    metrics.value(
        "energy.saving_pct",
        (1.0 - ratio(adapt.energy_fj, base.energy_fj)) * 100.0,
    );
    metrics.value(
        "encoding.switch_decisions_per_kacc",
        adapt.switch_decisions as f64 / kacc,
    );
    metrics.value(
        "encoding.apply_ratio",
        ratio(adapt.switches_applied as f64, adapt.switch_decisions as f64),
    );
    metrics.value("encoding.fifo_pushed", adapt.fifo.pushed as f64);
    metrics.value("encoding.fifo_drained", adapt.fifo.drained as f64);
    metrics.value("encoding.fifo_cancelled", adapt.fifo.cancelled as f64);
    metrics.value("encoding.fifo_dropped", adapt.fifo.dropped as f64);
    metrics.value(
        "encoding.fifo_max_occupancy",
        adapt.fifo.max_occupancy as f64,
    );
    metrics.value(
        "encoding.realized_over_projected",
        ratio(adapt.realized_fj, adapt.projected_fj),
    );
}

/// Counters summed over independent replays (FIFO high-water mark: the
/// largest).
#[derive(Default)]
struct Totals {
    accesses: u64,
    hits: u64,
    evictions: u64,
    writebacks: u64,
    bits: u64,
    energy_fj: f64,
    switch_decisions: u64,
    switches_applied: u64,
    projected_fj: f64,
    realized_fj: f64,
    fifo: cnt_encoding::FifoStats,
}

fn sum_reports(reports: &[EnergyReport]) -> Totals {
    let mut t = Totals::default();
    for r in reports {
        t.accesses += r.stats.accesses();
        t.hits += r.stats.hits();
        t.evictions += r.stats.evictions;
        t.writebacks += r.stats.writebacks;
        t.bits += ChargeKind::ALL
            .iter()
            .map(|&k| r.breakdown.bits(k))
            .sum::<u64>();
        t.energy_fj += r.total().femtojoules();
        t.switch_decisions += r.encoding.switch_decisions;
        t.switches_applied += r.encoding.switches_applied;
        t.projected_fj += r.encoding.projected_saving_fj;
        t.realized_fj += r.encoding.realized_saving_fj;
        t.fifo.pushed += r.fifo.pushed;
        t.fifo.drained += r.fifo.drained;
        t.fifo.cancelled += r.fifo.cancelled;
        t.fifo.dropped += r.fifo.dropped;
        t.fifo.max_occupancy = t.fifo.max_occupancy.max(r.fifo.max_occupancy);
    }
    t
}
