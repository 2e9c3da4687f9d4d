//! The metrics `cntbench` reports. `BENCHMARK.json` at the repository
//! root declares the same names, units, directions and bounds; a test
//! keeps the two identical.

use cnt_bench::experiments::ALL;

use crate::stats::Summary;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, unique across both lists.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by
    /// which the metric may worsen before a change counts as a
    /// regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Decl {
    (name, unit, better, Some(bound))
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Decl {
    (name, unit, better, None)
}

type Decl = (&'static str, &'static str, Better, Option<f64>);

use Better::{Higher, Lower};

/// Metrics of an untraced run. An operation is one iteration of the
/// workload: a baseline plus an adaptive replay (`stream-mixed`,
/// `write-heavy`), one `run_many(ALL)` (`paper-experiments`), or one
/// session (`serve-sessions`).
const END_TO_END: &[Decl] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.2),
    e2e("op_p50_ms", "ms", Lower, 0.2),
    e2e("ops_per_s", "1/s", Higher, 0.2),
];

/// Metrics of a traced run, by layer. A layer a workload does not run
/// through reports 0 (see the README's table).
const PER_LAYER: &[Decl] = &[
    layer("workloads.generate_s", "s", Lower),
    layer("trace.pack_s", "s", Lower),
    layer("trace.read_ns_per_chunk", "ns", Lower),
    layer("trace.decode_ns_per_acc", "ns", Lower),
    layer("trace.chunks", "count", Lower),
    layer("trace.mib_read", "MiB", Lower),
    layer("trace.crc_failures", "count", Lower),
    layer("trace.ckpt_store_ms", "ms", Lower),
    layer("trace.ckpts", "count", Lower),
    layer("trace.ckpt_kib", "KiB", Lower),
    layer("sim.ns_per_acc", "ns", Lower),
    layer("sim.hit_rate", "ratio", Higher),
    layer("sim.evictions_per_kacc", "1/kacc", Lower),
    layer("sim.writebacks_per_kacc", "1/kacc", Lower),
    layer("energy.meter_ns_per_acc", "ns", Lower),
    layer("energy.mbits_charged", "Mbit", Lower),
    layer("energy.saving_pct", "%", Higher),
    layer("encoding.adaptive_ns_per_acc", "ns", Lower),
    layer("encoding.secded_ns_per_acc", "ns", Lower),
    layer("encoding.switch_decisions_per_kacc", "1/kacc", Lower),
    layer("encoding.apply_ratio", "ratio", Higher),
    layer("encoding.fifo_pushed", "count", Lower),
    layer("encoding.fifo_drained", "count", Higher),
    layer("encoding.fifo_cancelled", "count", Lower),
    layer("encoding.fifo_dropped", "count", Lower),
    layer("encoding.fifo_max_occupancy", "count", Lower),
    layer("encoding.realized_over_projected", "ratio", Higher),
    layer("core.baseline_ns_per_acc", "ns", Lower),
    layer("core.adaptive_ns_per_acc", "ns", Lower),
    layer("core.metadata_ns_per_acc", "ns", Lower),
    layer("core.flush_ms", "ms", Lower),
    layer("stream.unattributed_pct", "%", Lower),
    layer("pool.busy_s", "s", Lower),
    layer("pool.utilization", "ratio", Higher),
    layer("pool.straggler_s", "s", Lower),
    layer("pool.tail_s", "s", Lower),
    layer("obs.overhead_ns_per_acc", "ns", Lower),
    layer("obs.snapshots", "count", Lower),
    layer("obs.jsonl_kib", "KiB", Lower),
    layer("obs.to_jsonl_ms", "ms", Lower),
    layer("serve.connect_ms", "ms", Lower),
    layer("serve.admit_ms", "ms", Lower),
    layer("serve.upload_ms", "ms", Lower),
    layer("serve.first_obs_ms", "ms", Lower),
    layer("serve.drain_ms", "ms", Lower),
    layer("serve.queued", "count", Lower),
    layer("serve.refused", "count", Lower),
    layer("serve.diverged", "count", Lower),
    layer("serve.overhead_ms", "ms", Lower),
    layer("tracing_overhead_pct", "%", Lower),
];

fn metric((name, unit, better, bound): Decl) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        better,
        bound,
    }
}

/// The metrics every untraced run prints, in order.
pub fn end_to_end() -> Vec<Metric> {
    END_TO_END.iter().copied().map(metric).collect()
}

/// The metrics every traced run prints, in order: the layer table plus
/// one `experiments.<id>_s` per paper experiment.
pub fn per_layer() -> Vec<Metric> {
    let mut out: Vec<Metric> = PER_LAYER.iter().copied().map(metric).collect();
    out.extend(ALL.iter().map(|id| Metric {
        name: experiment_metric(id),
        unit: "s",
        better: Lower,
        bound: None,
    }));
    out
}

/// The per-experiment wall-time metric for experiment `id`.
pub fn experiment_metric(id: &str) -> String {
    format!("experiments.{id}_s")
}

/// A run's metric values, filled in by the workload.
#[derive(Debug, Clone)]
pub struct Metrics {
    slots: Vec<(Metric, Option<Summary>)>,
}

impl Metrics {
    /// Empty slots for the metrics of a traced (`per_layer`) or untraced
    /// (`end_to_end`) run.
    pub fn new(traced: bool) -> Metrics {
        let declared = if traced { per_layer() } else { end_to_end() };
        Metrics {
            slots: declared.into_iter().map(|m| (m, None)).collect(),
        }
    }

    /// Records a metric's samples.
    ///
    /// # Panics
    ///
    /// Panics on an undeclared name — a harness bug the consistency test
    /// also catches.
    pub fn set(&mut self, name: &str, summary: Summary) {
        let slot = self
            .slots
            .iter_mut()
            .find(|(m, _)| m.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared for this run"));
        slot.1 = Some(summary);
    }

    /// Records a metric measured once.
    pub fn value(&mut self, name: &str, value: f64) {
        self.set(name, Summary::single(value));
    }

    /// Names the workload measured, in declaration order.
    pub fn measured(&self) -> Vec<String> {
        self.slots
            .iter()
            .filter(|(_, s)| s.is_some())
            .map(|(m, _)| m.name.clone())
            .collect()
    }

    /// Every declared metric with its summary; a layer the workload does
    /// not run through reads 0.
    pub fn finish(self) -> Vec<(Metric, Summary)> {
        self.slots
            .into_iter()
            .map(|(m, s)| (m, s.unwrap_or(Summary::single(0.0))))
            .collect()
    }
}
