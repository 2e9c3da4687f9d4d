//! Fig. 9: D-Cache vs I-Cache benefit.
//!
//! The abstract singles out the *D-Cache* as the optimized target. The
//! I-Cache side is modeled with a code-fetch surrogate trace: sequential
//! fetch with loop reuse over read-only lines whose words have the sparse
//! bit density of RISC instruction encodings (~30 % ones). Instruction
//! lines are never written, so every window is read-intensive and the
//! encoder converges once per line — a favorable but write-free profile.

use std::fmt::Write as _;

use cnt_cache::EncodingPolicy;
use cnt_workloads::synthetic::{AddressPattern, SyntheticSpec};
use cnt_workloads::Workload;

use crate::runner::{mean, run_dcache_matrix, run_dcache_set};

/// A code-fetch surrogate: loop-reused sequential fetches over
/// 30 %-density instruction words (the init writes model program load).
pub fn icache_trace(accesses: usize) -> cnt_sim::trace::AccessBatch {
    SyntheticSpec {
        accesses,
        footprint_lines: 96,
        read_fraction: 1.0,
        ones_density: 0.30,
        pattern: AddressPattern::Sequential,
        seed: 0x1CAC4E,
    }
    .generate()
}

/// `(dcache_mean_saving, icache_saving)` for a given suite size.
pub fn data(workloads: &[Workload], icache_accesses: usize) -> (f64, f64) {
    let policies = [EncodingPolicy::None, EncodingPolicy::adaptive_default()];
    let d: Vec<f64> = run_dcache_matrix(workloads, &policies)
        .iter()
        .map(|reports| reports[1].saving_vs(&reports[0]))
        .collect();
    let itrace = icache_trace(icache_accesses);
    let ireports = run_dcache_set(&policies, &itrace);
    (mean(&d), ireports[1].saving_vs(&ireports[0]))
}

/// Regenerates the D-vs-I comparison.
pub fn run() -> String {
    let mut out = String::new();
    let (d, i) = data(&cnt_workloads::suite(), 100_000);
    let _ = writeln!(out, "Adaptive-encoding benefit by cache side:\n");
    let _ = writeln!(out, "| {:<8} | {:>12} |", "cache", "mean saving");
    let _ = writeln!(out, "| {:<8} | {:>11.2}% |", "L1D", d);
    let _ = writeln!(out, "| {:<8} | {:>11.2}% |", "L1I", i);
    let _ = writeln!(
        out,
        "\nBoth sides benefit; the I-side gain comes purely from the\n\
         read-path asymmetry since code lines are never re-written."
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_sides_save() {
        let (d, i) = data(&cnt_workloads::suite_small(), 10_000);
        assert!(d > 0.0, "D-side lost: {d:.1}%");
        assert!(i > 0.0, "I-side lost: {i:.1}%");
        // Sparse read-only code is close to the best case for the encoder.
        assert!(i > 15.0, "I-side should save substantially, got {i:.1}%");
    }
}
