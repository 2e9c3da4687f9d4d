//! Table 3: CNFET vs CMOS absolute dynamic energy — the motivation for
//! CNFET caches in the first place.

use std::fmt::Write as _;

use cnt_cache::{CntCacheConfig, EncodingPolicy};
use cnt_energy::SramEnergyModel;
use cnt_workloads::Workload;

use crate::runner::{dcache_config, geometric_mean, run_lanes};

/// `(name, cmos_fj, cnfet_fj, cnfet_cnt_fj)` rows.
pub fn data(workloads: &[Workload]) -> Vec<(String, f64, f64, f64)> {
    let config = |policy, energy| CntCacheConfig {
        energy,
        ..dcache_config("L1D", policy)
    };
    crate::pool::par_map(workloads, |w| {
        // One simulation, re-priced by three lanes.
        let [cmos, cnfet, cnt] = run_lanes(
            [
                config(EncodingPolicy::None, SramEnergyModel::cmos_default()),
                config(EncodingPolicy::None, SramEnergyModel::cnfet_default()),
                config(
                    EncodingPolicy::adaptive_default(),
                    SramEnergyModel::cnfet_default(),
                ),
            ],
            &w.trace,
        );
        (
            w.name.clone(),
            cmos.total().femtojoules(),
            cnfet.total().femtojoules(),
            cnt.total().femtojoules(),
        )
    })
}

/// Regenerates the technology comparison on the full suite.
pub fn run() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Absolute dynamic energy by technology (same traces, same geometry):\n"
    );
    let _ = writeln!(
        out,
        "| {:<16} | {:>14} | {:>14} | {:>14} | {:>9} |",
        "benchmark", "CMOS (fJ)", "CNFET (fJ)", "CNT-Cache (fJ)", "CMOS/CNT"
    );
    let mut ratios = Vec::new();
    for (name, cmos, cnfet, cnt) in data(&cnt_workloads::suite()) {
        let ratio = cmos / cnt;
        ratios.push(ratio);
        let _ = writeln!(
            out,
            "| {name:<16} | {cmos:>14.1} | {cnfet:>14.1} | {cnt:>14.1} | {ratio:>8.2}x |"
        );
    }
    let _ = writeln!(
        out,
        "\ngeomean CMOS/CNT-Cache ratio: {:.2}x",
        geometric_mean(&ratios)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cnfet_beats_cmos_everywhere() {
        for (name, cmos, cnfet, cnt) in data(&cnt_workloads::suite_small()) {
            assert!(cnfet < cmos, "{name}: CNFET {cnfet} vs CMOS {cmos}");
            // The combined CNFET + adaptive encoding must stay well below
            // CMOS even where encoding alone loses a little.
            assert!(cnt < cmos * 0.7, "{name}: CNT {cnt} vs CMOS {cmos}");
        }
    }
}
