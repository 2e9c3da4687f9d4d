//! Fig. 12 (extension): write-policy interaction.
//!
//! Under write-through, stores reach memory immediately and lines stay
//! clean, so the cache-array write mix and the writeback traffic both
//! change — does adaptive encoding still pay? (Main-memory energy is out
//! of scope; only the cache array is metered, which *flatters*
//! write-through — noted in the report.)

use std::fmt::Write as _;

use cnt_cache::{CntCacheConfig, EncodingPolicy};
use cnt_sim::WriteMode;
use cnt_workloads::Workload;

use crate::runner::{mean, run_lanes};

/// The swept write modes.
pub const MODES: [WriteMode; 3] = [
    WriteMode::WriteBack,
    WriteMode::WriteThrough,
    WriteMode::WriteThroughNoAllocate,
];

fn config(mode: WriteMode, policy: EncodingPolicy) -> CntCacheConfig {
    CntCacheConfig::builder()
        .write_mode(mode)
        .policy(policy)
        .build()
        .expect("static geometry is valid")
}

/// `(mode, baseline_fj_mean, saving_mean)` rows.
pub fn data(workloads: &[Workload]) -> Vec<(WriteMode, f64, f64)> {
    MODES
        .iter()
        .map(|&mode| {
            let pairs = crate::pool::par_map(workloads, |w| {
                let [base, cnt] = run_lanes(
                    [
                        config(mode, EncodingPolicy::None),
                        config(mode, EncodingPolicy::adaptive_default()),
                    ],
                    &w.trace,
                );
                (base.total().femtojoules(), cnt.saving_vs(&base))
            });
            let baselines: Vec<f64> = pairs.iter().map(|&(b, _)| b).collect();
            let savings: Vec<f64> = pairs.iter().map(|&(_, s)| s).collect();
            (mode, mean(&baselines), mean(&savings))
        })
        .collect()
}

/// Regenerates the write-policy study on the extended suite.
pub fn run() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Write-policy interaction (extended suite; cache-array energy only,\n\
         which flatters write-through since its extra memory writes are\n\
         not metered):\n"
    );
    let _ = writeln!(
        out,
        "| {:<26} | {:>18} | {:>12} |",
        "write mode", "baseline mean (fJ)", "mean saving"
    );
    for (mode, baseline, saving) in data(&cnt_workloads::suite_extended()) {
        let _ = writeln!(
            out,
            "| {:<26} | {baseline:>18.1} | {saving:>11.2}% |",
            mode.to_string()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_pays_under_every_write_mode() {
        for (mode, _, saving) in data(&cnt_workloads::suite_small()) {
            assert!(
                saving > 0.0,
                "{mode}: adaptive encoding lost energy ({saving:.1}%)"
            );
        }
    }
}
