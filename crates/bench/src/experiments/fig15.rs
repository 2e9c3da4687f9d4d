//! Fig. 15 (extension): where should the encoding go?
//!
//! The paper encodes the D-Cache. With every level of a split-L1/L2
//! hierarchy independently encodable, this sweeps which levels get the
//! adaptive encoder and reports whole-hierarchy dynamic energy.

use std::fmt::Write as _;

use cnt_cache::{CntHierarchy, CntHierarchyConfig, EncodingPolicy};
use cnt_sim::trace::{AccessBatch, MemoryAccess};
use cnt_sim::Address;
use cnt_workloads::synthetic::word_with_density;
use cnt_workloads::Workload;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::runner::mean;

const CODE_BASE: u64 = 0x0040_0000;
const CODE_LINES: u64 = 128;

/// Interleaves one instruction fetch (looping code footprint) before each
/// data access, approximating an in-order core's pipeline traffic.
pub fn with_ifetch(data: &AccessBatch) -> AccessBatch {
    let mut out = AccessBatch::new();
    for (i, access) in data.iter().enumerate() {
        let pc = CODE_BASE + (i as u64 % (CODE_LINES * 8)) * 8;
        out.push(MemoryAccess::ifetch(Address::new(pc)));
        out.push(access);
    }
    out
}

/// Loads realistic instruction words (≈30 % one-bits, like RISC
/// encodings) into the code footprint, untraced — the program loader.
fn load_code(h: &mut CntHierarchy) {
    let mut rng = SmallRng::seed_from_u64(0xC0DE);
    for word in 0..CODE_LINES * 8 {
        h.memory_mut().store(
            Address::new(CODE_BASE + word * 8),
            8,
            word_with_density(&mut rng, 0.30),
        );
    }
}

/// The encoding placements swept: (label, l1i, l1d, l2).
pub fn placements() -> Vec<(&'static str, EncodingPolicy, EncodingPolicy, EncodingPolicy)> {
    let adaptive = EncodingPolicy::adaptive_default();
    let none = EncodingPolicy::None;
    vec![
        ("none (baseline)", none, none, none),
        ("L1D only (paper)", none, adaptive, none),
        ("L1I + L1D", adaptive, adaptive, none),
        ("L2 only", none, none, adaptive),
        ("all levels", adaptive, adaptive, adaptive),
    ]
}

fn total_energy(
    trace: &AccessBatch,
    l1i: EncodingPolicy,
    l1d: EncodingPolicy,
    l2: EncodingPolicy,
) -> f64 {
    let config = CntHierarchyConfig::typical(l1i, l1d, l2).expect("static geometries");
    let mut h = CntHierarchy::new(config).expect("valid hierarchy");
    load_code(&mut h);
    // Observed replay: with `--metrics-out` installed this emits one
    // multi-level (L1I/L1D/L2) snapshot per epoch; without a sink it is
    // the same plain loop as `h.run`.
    cnt_obs::replay_hierarchy(&mut h, trace).expect("trace runs");
    h.flush_all();
    h.total_energy().femtojoules()
}

/// Mean whole-hierarchy saving per placement over a workload list.
pub fn data(workloads: &[Workload]) -> Vec<(&'static str, f64)> {
    let traces: Vec<AccessBatch> = workloads.iter().map(|w| with_ifetch(&w.trace)).collect();
    let baselines: Vec<f64> = traces
        .iter()
        .map(|t| {
            total_energy(
                t,
                EncodingPolicy::None,
                EncodingPolicy::None,
                EncodingPolicy::None,
            )
        })
        .collect();
    placements()
        .into_iter()
        .map(|(label, l1i, l1d, l2)| {
            let savings: Vec<f64> = traces
                .iter()
                .zip(&baselines)
                .map(|(t, &base)| (base - total_energy(t, l1i, l1d, l2)) / base * 100.0)
                .collect();
            (label, mean(&savings))
        })
        .collect()
}

/// Regenerates the placement study on the full suite.
pub fn run() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Encoding placement across a 16K-L1I / 32K-L1D / 256K-L2 hierarchy\n\
         (suite kernels with an interleaved looping instruction stream;\n\
         whole-hierarchy dynamic energy vs the all-baseline hierarchy):\n"
    );
    let _ = writeln!(out, "| {:<18} | {:>12} |", "encoded levels", "mean saving");
    for (label, saving) in data(&cnt_workloads::suite()) {
        let _ = writeln!(out, "| {label:<18} | {saving:>11.2}% |");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_ordering_is_sane() {
        // Repeat each small trace so I-cache lines live through several
        // prediction windows (single-window lines cannot amortize their
        // encoding switch and would make this shape test flaky).
        let workloads: Vec<cnt_workloads::Workload> = cnt_workloads::suite_small()[..4]
            .iter()
            .map(|w| {
                let mut trace = AccessBatch::new();
                for _ in 0..4 {
                    trace.extend(&w.trace);
                }
                cnt_workloads::Workload::new(w.name.clone(), w.description.clone(), trace)
            })
            .collect();
        let rows = data(&workloads);
        let at = |label: &str| {
            rows.iter()
                .find(|(l, _)| *l == label)
                .unwrap_or_else(|| panic!("missing {label}"))
                .1
        };
        assert!(at("none (baseline)").abs() < 1e-9, "baseline saves nothing");
        assert!(
            at("L1D only (paper)") > 0.0,
            "the paper's placement must save"
        );
        // On these short test traces each I-cache line completes barely
        // one window, so its switch cost is not amortized; allow a small
        // regression here (the full-suite run shows the I-side winning
        // big — see EXPERIMENTS.md).
        assert!(
            at("L1I + L1D") >= at("L1D only (paper)") - 4.0,
            "adding the I-side regressed too far: {:.2} vs {:.2}",
            at("L1I + L1D"),
            at("L1D only (paper)")
        );
        assert!(
            at("all levels") >= at("L1I + L1D") - 2.0,
            "adding the L2 should be near-neutral: {:.2} vs {:.2}",
            at("all levels"),
            at("L1I + L1D")
        );
    }
}
