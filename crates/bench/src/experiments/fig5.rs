//! Fig. 5: sensitivity to the partition count `P`.
//!
//! Finer partitions store strictly more preferred bits (Fig. 2) but cost
//! one direction bit each; the benefit saturates while the overhead grows
//! linearly.

use std::fmt::Write as _;

use cnt_cache::{AdaptiveParams, EncodingPolicy};
use cnt_workloads::synthetic::StripedSpec;
use cnt_workloads::Workload;

use crate::runner::{mean, run_dcache_matrix, run_dcache_set};

/// The swept partition counts.
pub const PARTITIONS: [u32; 6] = [1, 2, 4, 8, 16, 32];

/// A heterogeneous "record stream": lines interleave four sparse words
/// (ids/flags, 5 % ones) with four dense words (hashes, 75 % ones). No
/// single inversion direction suits such a line — the Fig. 2 case.
pub fn record_stream(accesses: usize) -> cnt_sim::trace::AccessBatch {
    StripedSpec {
        accesses,
        footprint_lines: 128,
        read_fraction: 0.9,
        densities: [0.05, 0.75, 0.05, 0.75, 0.05, 0.75, 0.05, 0.75],
        seed: 0x5712,
    }
    .generate()
}

/// The swept policies, preceded by the un-encoded baseline.
fn swept_policies() -> Vec<EncodingPolicy> {
    let mut policies = vec![EncodingPolicy::None];
    policies.extend(PARTITIONS.iter().map(|&partitions| {
        EncodingPolicy::Adaptive(AdaptiveParams {
            partitions,
            ..AdaptiveParams::paper_default()
        })
    }));
    policies
}

/// Saving per partition count on the heterogeneous record stream.
pub fn record_data(accesses: usize) -> Vec<(u32, f64)> {
    let trace = record_stream(accesses);
    let reports = run_dcache_set(&swept_policies(), &trace);
    PARTITIONS
        .iter()
        .enumerate()
        .map(|(i, &partitions)| (partitions, reports[i + 1].saving_vs(&reports[0])))
        .collect()
}

/// Mean suite saving and H&D bits per line, per partition count.
pub fn data(workloads: &[Workload]) -> Vec<(u32, f64, u32)> {
    let policies = swept_policies();
    let matrix = run_dcache_matrix(workloads, &policies);
    PARTITIONS
        .iter()
        .enumerate()
        .map(|(i, &partitions)| {
            let savings: Vec<f64> = matrix
                .iter()
                .map(|reports| reports[i + 1].saving_vs(&reports[0]))
                .collect();
            (
                partitions,
                mean(&savings),
                policies[i + 1].metadata_bits_per_line(512),
            )
        })
        .collect()
}

/// Regenerates the partition-sensitivity figure on the full suite.
pub fn run() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Partition-count sensitivity (suite mean, W=15, ΔT=0.1):\n"
    );
    let _ = writeln!(
        out,
        "| {:>4} | {:>12} | {:>14} |",
        "P", "mean saving", "H&D bits/line"
    );
    for (partitions, saving, bits) in data(&cnt_workloads::suite()) {
        let _ = writeln!(out, "| {partitions:>4} | {saving:>11.2}% | {bits:>14} |");
    }
    let _ = writeln!(
        out,
        "\nThe suite's lines are mostly homogeneous, so full-line encoding\n\
         already captures the gain. On heterogeneous lines (sparse ids\n\
         interleaved with dense hashes — the Fig. 2 case) partitioning is\n\
         what unlocks the saving:\n"
    );
    let _ = writeln!(out, "| {:>4} | {:>20} |", "P", "record-stream saving");
    for (partitions, saving) in record_data(60_000) {
        let _ = writeln!(out, "| {partitions:>4} | {saving:>19.2}% |");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_partitioning_is_competitive_with_full_line() {
        // On homogeneous-line kernels the two are within a few percent;
        // the partitioned advantage shows on heterogeneous lines (below).
        let rows = data(&cnt_workloads::suite_small());
        assert_eq!(rows.len(), PARTITIONS.len());
        let full_line = rows[0].1;
        let partitioned = rows[3].1; // P = 8, the default
        assert!(
            (partitioned - full_line).abs() < 5.0,
            "P=8 ({partitioned:.1}%) strayed from P=1 ({full_line:.1}%)"
        );
        // Metadata grows linearly in P.
        assert_eq!(rows[0].2 + 31, rows[5].2);
    }

    #[test]
    fn partitioning_wins_on_heterogeneous_lines() {
        let rows = record_data(8_000);
        let at = |p: u32| rows.iter().find(|(q, _)| *q == p).expect("swept").1;
        assert!(
            at(8) > at(1) + 3.0,
            "P=8 ({:.1}%) must clearly beat P=1 ({:.1}%) on striped records",
            at(8),
            at(1)
        );
    }
}
