//! Shared simulation plumbing for the experiments.

use cnt_cache::{CntCache, CntCacheConfig, EncodingPolicy, EnergyReport, LaneGroup};
use cnt_obs::Emitter;
use cnt_sim::trace::AccessBatch;
use cnt_sim::ReplacementKind;
use cnt_workloads::Workload;

use crate::pool;

/// The paper's D-Cache configuration: 32 KiB, 64-byte lines, 8-way, LRU.
///
/// # Panics
///
/// Never panics: the constants are statically valid.
pub fn dcache_config(name: &str, policy: EncodingPolicy) -> CntCacheConfig {
    CntCacheConfig::builder()
        .name(name)
        .size_bytes(32 * 1024)
        .line_bytes(64)
        .associativity(8)
        .replacement(ReplacementKind::Lru)
        .policy(policy)
        .build()
        .expect("static D-Cache geometry is valid")
}

/// Replays `trace` once per group of configurations that
/// [share a simulator](CntCacheConfig::shares_simulator), one encoding
/// lane per config, and returns every config's report (after a final
/// flush) in input order. Each report, and with a sink installed each
/// snapshot stream and replay id, equals that of the config's solo
/// [`CntCache`] replay in this scope. The registry counters
/// `sim.accesses_simulated` and `sim.lane_accesses` record the sharing.
///
/// # Panics
///
/// Panics if a configuration is invalid or the trace contains malformed
/// accesses — both indicate harness bugs, not user errors.
pub fn run_configs(configs: &[CntCacheConfig], trace: &AccessBatch) -> Vec<EnergyReport> {
    let mut emitters: Vec<Option<Emitter>> = cnt_obs::lane_emitters(configs.len())
        .into_iter()
        .map(Some)
        .collect();
    let mut reports: Vec<Option<EnergyReport>> = vec![None; configs.len()];
    let mut pending: Vec<usize> = (0..configs.len()).collect();
    while let Some(&first) = pending.first() {
        let (lanes, rest): (Vec<usize>, Vec<usize>) = pending
            .iter()
            .partition(|&&i| configs[i].shares_simulator(&configs[first]));
        pending = rest;
        let mut group = LaneGroup::new(lanes.iter().map(|&i| configs[i].clone()).collect())
            .expect("experiment configuration must be valid");
        let mut lane_emitters: Vec<Emitter> = lanes
            .iter()
            .filter_map(|&i| emitters.get_mut(i).and_then(Option::take))
            .collect();
        let simulated = cnt_obs::replay_lanes(&mut group, trace, &mut lane_emitters)
            .expect("experiment traces are well-formed") as u64;
        group.flush();
        cnt_obs::count("sim.accesses_simulated", simulated);
        cnt_obs::count("sim.lane_accesses", simulated * lanes.len() as u64);
        for (i, report) in lanes.into_iter().zip(group.into_reports()) {
            reports[i] = Some(report);
        }
    }
    reports
        .into_iter()
        .map(|r| r.expect("every config ran in its group"))
        .collect()
}

/// [`run_configs`] over a fixed number of configurations, returning
/// the reports as an array to destructure.
///
/// # Panics
///
/// As [`run_configs`].
pub fn run_lanes<const K: usize>(
    configs: [CntCacheConfig; K],
    trace: &AccessBatch,
) -> [EnergyReport; K] {
    run_configs(&configs, trace)
        .try_into()
        .unwrap_or_else(|_| unreachable!("run_configs returns one report per config"))
}

/// Runs one trace to completion under one configuration.
///
/// # Panics
///
/// As [`run_configs`].
pub fn run_trace(config: CntCacheConfig, trace: &AccessBatch) -> EnergyReport {
    let [report] = run_lanes([config], trace);
    report
}

/// Runs a trace under the paper's D-Cache geometry with the given policy.
pub fn run_dcache(policy: EncodingPolicy, trace: &AccessBatch) -> EnergyReport {
    run_trace(dcache_config("L1D", policy), trace)
}

/// The D-Cache without encoding and under the paper's adaptive policy,
/// as two lanes of one simulation: `[baseline, adaptive]`.
pub fn run_dcache_pair(trace: &AccessBatch) -> [EnergyReport; 2] {
    run_lanes(
        [
            dcache_config("L1D", EncodingPolicy::None),
            dcache_config("L1D", EncodingPolicy::adaptive_default()),
        ],
        trace,
    )
}

/// Replays a prebuilt struct-of-arrays [`AccessBatch`] through a solo
/// [`CntCache`]. Produces a report identical to [`run_trace`] over the
/// same records.
///
/// # Panics
///
/// As [`run_trace`].
pub fn run_trace_batch(config: CntCacheConfig, batch: &AccessBatch) -> EnergyReport {
    let mut cache = CntCache::new(config).expect("experiment configuration must be valid");
    cnt_obs::replay(&mut cache, batch.iter()).expect("experiment traces are well-formed");
    cache.flush();
    cache.into_report()
}

/// Runs a prebuilt batch under the paper's D-Cache geometry.
pub fn run_dcache_batch(policy: EncodingPolicy, batch: &AccessBatch) -> EnergyReport {
    run_trace_batch(dcache_config("L1D", policy), batch)
}

/// Replays every (workload × policy) combination, one pool job per
/// workload whose policies are the lanes of one simulation, and returns,
/// for each workload in input order, the reports in policy order.
///
/// Each replay is an independent deterministic simulation, so the result
/// is byte-identical to the equivalent nested sequential loops — only
/// wall-clock time changes with the `--jobs` setting. Lane `p` of
/// workload `w` takes the replay id `…/i{w}/r{p}`.
pub fn run_dcache_matrix(
    workloads: &[Workload],
    policies: &[EncodingPolicy],
) -> Vec<Vec<EnergyReport>> {
    let configs: Vec<CntCacheConfig> = policies
        .iter()
        .map(|&policy| dcache_config("L1D", policy))
        .collect();
    pool::par_map(workloads, |w| run_configs(&configs, &w.trace))
}

/// Replays one trace under several policies, in policy order: the
/// one-workload [`run_dcache_matrix`] (replay ids `…/i0000/r{p}`).
pub fn run_dcache_set(policies: &[EncodingPolicy], trace: &AccessBatch) -> Vec<EnergyReport> {
    let configs: Vec<CntCacheConfig> = policies
        .iter()
        .map(|&policy| dcache_config("L1D", policy))
        .collect();
    pool::par_map(std::slice::from_ref(trace), |trace| {
        run_configs(&configs, trace)
    })
    .pop()
    .expect("one trace, one report set")
}

/// Geometric-mean helper for relative metrics.
///
/// # Panics
///
/// Panics if `values` is empty or contains non-positive entries.
pub fn geometric_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of nothing");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geometric mean needs positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of nothing");
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnt_workloads::kernels;

    #[test]
    fn dcache_config_matches_paper() {
        let c = dcache_config("x", EncodingPolicy::None);
        assert_eq!(c.geometry.size_bytes(), 32 * 1024);
        assert_eq!(c.geometry.associativity(), 8);
    }

    #[test]
    fn run_trace_produces_activity() {
        let w = kernels::histogram(256, 16, 1);
        let r = run_dcache(EncodingPolicy::None, &w.trace);
        assert_eq!(r.stats.accesses() as usize, w.trace.len());
        assert!(r.total().femtojoules() > 0.0);
    }

    #[test]
    fn batched_replay_matches_iterator_replay() {
        let w = kernels::histogram(256, 16, 1);
        for policy in [EncodingPolicy::None, EncodingPolicy::adaptive_default()] {
            let a = run_dcache(policy, &w.trace);
            let b = run_dcache_batch(policy, &w.trace);
            assert_eq!(a, b, "batched and iterator replays must agree exactly");
        }
    }

    #[test]
    fn means() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
    }
}
