//! Fig. 10 (extension): the sticky pattern classifier.
//!
//! `fig8` exposes Algorithm 1's failure mode: on *balanced* read/write
//! mixes over *extreme* bit densities the window classifier alternates
//! between read- and write-intensive and the line thrashes. Requiring the
//! classification to hold for `confirm_windows` consecutive windows
//! before switching damps the oscillation; this experiment sweeps that
//! knob on the thrash cells and on the normal suite.

use std::fmt::Write as _;

use cnt_cache::{AdaptiveParams, EncodingPolicy};
use cnt_workloads::synthetic::{AddressPattern, SyntheticSpec};
use cnt_workloads::Workload;

use crate::runner::{mean, run_dcache_matrix, run_dcache_set};

/// The swept confirmation depths.
pub const CONFIRMS: [u32; 4] = [1, 2, 3, 4];

fn policy(confirm_windows: u32) -> EncodingPolicy {
    EncodingPolicy::Adaptive(AdaptiveParams {
        confirm_windows,
        ..AdaptiveParams::paper_default()
    })
}

/// A fig8 thrash cell: balanced mix, extreme density.
pub fn thrash_trace(accesses: usize) -> cnt_sim::trace::AccessBatch {
    SyntheticSpec {
        accesses,
        footprint_lines: 128,
        read_fraction: 0.5,
        ones_density: 0.95,
        pattern: AddressPattern::UniformRandom,
        seed: 0xF18,
    }
    .generate()
}

/// `(confirm, thrash_saving, thrash_switches, suite_saving)` rows.
pub fn data(workloads: &[Workload], thrash_accesses: usize) -> Vec<(u32, f64, u64, f64)> {
    let thrash = thrash_trace(thrash_accesses);
    let mut policies = vec![EncodingPolicy::None];
    policies.extend(CONFIRMS.iter().map(|&confirm| policy(confirm)));
    let thrash_reports = run_dcache_set(&policies, &thrash);
    let matrix = run_dcache_matrix(workloads, &policies);
    CONFIRMS
        .iter()
        .enumerate()
        .map(|(i, &confirm)| {
            let t = &thrash_reports[i + 1];
            let suite: Vec<f64> = matrix
                .iter()
                .map(|reports| reports[i + 1].saving_vs(&reports[0]))
                .collect();
            (
                confirm,
                t.saving_vs(&thrash_reports[0]),
                t.encoding.switches_applied,
                mean(&suite),
            )
        })
        .collect()
}

/// Regenerates the sticky-classifier study.
pub fn run() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Sticky classifier: require N consecutive same-pattern windows\n\
         before switching. Thrash cell = 50% reads x 95% ones density.\n"
    );
    let _ = writeln!(
        out,
        "| {:>7} | {:>14} | {:>15} | {:>12} |",
        "confirm", "thrash saving", "thrash switches", "suite saving"
    );
    for (confirm, thrash_saving, switches, suite_saving) in data(&cnt_workloads::suite(), 40_000) {
        let _ = writeln!(
            out,
            "| {confirm:>7} | {thrash_saving:>13.2}% | {switches:>15} | {suite_saving:>11.2}% |"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confirmation_rescues_the_thrash_cell() {
        let rows = data(&cnt_workloads::suite_small(), 8_000);
        let at = |c: u32| rows.iter().find(|(q, ..)| *q == c).expect("swept");
        let plain = at(1);
        let sticky = at(3);
        assert!(
            sticky.1 > plain.1,
            "confirm=3 thrash saving {:.1}% must beat confirm=1 {:.1}%",
            sticky.1,
            plain.1
        );
        assert!(sticky.2 < plain.2, "switches must fall");
        // A shallow confirmation keeps most of the normal-suite saving
        // (deep confirmation trades suite reactivity for thrash immunity —
        // visible in the full-suite run, drastic on this tiny suite whose
        // lines only live for a handful of windows).
        let shallow = at(2);
        assert!(
            shallow.3 > plain.3 - 6.0,
            "suite saving fell too far at confirm=2: {:.1}% -> {:.1}%",
            plain.3,
            shallow.3
        );
    }
}
