//! Shared simulation plumbing for the experiments.

use cnt_cache::{CntCache, CntCacheConfig, EncodingPolicy, EnergyReport};
use cnt_energy::SramEnergyModel;
use cnt_sim::trace::{AccessBatch, Trace};
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

/// Runs one trace to completion (including a final flush) under the given
/// configuration and returns the report.
///
/// The replay goes through [`cnt_obs::replay`]: with no metrics sink
/// installed that is the same allocation-free loop as [`CntCache::run`];
/// with one installed (`--metrics-out`) it emits one snapshot per epoch
/// under this replay's deterministic scope id.
///
/// # Panics
///
/// Panics if the configuration is invalid or the trace contains malformed
/// accesses — both indicate harness bugs, not user errors.
pub fn run_trace(config: CntCacheConfig, trace: &Trace) -> EnergyReport {
    let mut cache = CntCache::new(config).expect("experiment configuration must be valid");
    cnt_obs::replay(&mut cache, trace).expect("experiment traces are well-formed");
    cache.flush();
    cache.into_report()
}

/// Runs a trace under the paper's D-Cache geometry with the given policy.
pub fn run_dcache(policy: EncodingPolicy, trace: &Trace) -> EnergyReport {
    run_trace(dcache_config("L1D", policy), trace)
}

/// Batched counterpart of [`run_trace`]: replays a prebuilt
/// struct-of-arrays [`AccessBatch`]. Produces a report identical to
/// [`run_trace`] over the same records.
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

/// Runs a trace under the D-Cache geometry with a specific energy model.
pub fn run_dcache_with_model(
    policy: EncodingPolicy,
    model: SramEnergyModel,
    trace: &Trace,
) -> EnergyReport {
    let mut config = dcache_config("L1D", policy);
    config.energy = model;
    run_trace(config, trace)
}

/// Replays every (workload × policy) combination on the shared thread
/// pool and returns, for each workload in input order, the reports in
/// policy order.
///
/// Each replay is an independent deterministic simulation, so the result
/// is byte-identical to the equivalent nested sequential loops — only
/// wall-clock time changes with the `--jobs` setting.
pub fn run_dcache_matrix(
    workloads: &[Workload],
    policies: &[EncodingPolicy],
) -> Vec<Vec<EnergyReport>> {
    let jobs: Vec<(usize, usize)> = (0..workloads.len())
        .flat_map(|w| (0..policies.len()).map(move |p| (w, p)))
        .collect();
    let mut reports = pool::par_map(&jobs, |&(w, p)| {
        run_dcache(policies[p], &workloads[w].trace)
    })
    .into_iter();
    workloads
        .iter()
        .map(|_| {
            (0..policies.len())
                .map(|_| reports.next().expect("one per job"))
                .collect()
        })
        .collect()
}

/// Replays one trace under several policies in parallel, in policy order.
pub fn run_dcache_set(policies: &[EncodingPolicy], trace: &Trace) -> Vec<EnergyReport> {
    pool::par_map(policies, |policy| run_dcache(*policy, trace))
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
        let batch = AccessBatch::from_trace(&w.trace);
        for policy in [EncodingPolicy::None, EncodingPolicy::adaptive_default()] {
            let a = run_dcache(policy, &w.trace);
            let b = run_dcache_batch(policy, &batch);
            assert_eq!(a, b, "batched and iterator replays must agree exactly");
        }
    }

    #[test]
    fn means() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
    }
}
