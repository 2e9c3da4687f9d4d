//! Table 4 (extension): the oracle lower bound.
//!
//! For each array event, an omniscient encoder could store the touched
//! region in whichever direction is cheaper *for that event*, with free
//! switches and no metadata. Charging `min(cost(bits), cost(~bits))` per
//! event therefore lower-bounds every inversion-coding scheme. The ratio
//! `achieved / oracle-available saving` is the predictor's efficiency.

use std::fmt::Write as _;

use cnt_energy::{BitEnergies, Energy};
use cnt_sim::{
    Address, ArrayObserver, Cache, CacheGeometry, LineLocation, MainMemory, ReplacementKind,
};
use cnt_workloads::Workload;

use crate::runner::{mean, run_dcache_pair};

/// Accumulates the per-event oracle minimum at 64-bit granularity.
struct OracleMeter {
    bits: BitEnergies,
    total: Energy,
}

impl OracleMeter {
    fn new() -> Self {
        OracleMeter {
            bits: BitEnergies::cnfet_default(),
            total: Energy::ZERO,
        }
    }

    fn oracle_read(&mut self, word: u64) {
        let ones = word.count_ones();
        self.total += self
            .bits
            .read_bits(ones, 64)
            .min(self.bits.read_bits(64 - ones, 64));
    }

    fn oracle_write(&mut self, word: u64) {
        let ones = word.count_ones();
        self.total += self
            .bits
            .write_bits(ones, 64)
            .min(self.bits.write_bits(64 - ones, 64));
    }
}

impl ArrayObserver for OracleMeter {
    fn word_read(&mut self, _: LineLocation, _: usize, value: u64) {
        self.oracle_read(value);
    }
    fn word_written(&mut self, _: LineLocation, _: usize, _: u64, new: u64) {
        self.oracle_write(new);
    }
    fn line_filled(&mut self, _: LineLocation, _: Address, data: &[u64]) {
        for &w in data {
            self.oracle_write(w);
        }
    }
    fn line_evicted(&mut self, _: LineLocation, _: Address, data: &[u64], dirty: bool) {
        if dirty {
            for &w in data {
                self.oracle_read(w);
            }
        }
    }
}

/// Oracle total for one trace under the D-Cache geometry.
pub fn oracle_total(trace: &cnt_sim::trace::AccessBatch) -> Energy {
    let geometry = CacheGeometry::new(32 * 1024, 64, 8).expect("static geometry");
    let mut cache = Cache::new("oracle", geometry, ReplacementKind::Lru);
    let mut mem = MainMemory::new();
    let mut oracle = OracleMeter::new();
    for access in trace {
        if access.is_write() {
            cache
                .write(
                    access.addr,
                    access.width,
                    access.value,
                    &mut mem,
                    &mut oracle,
                )
                .expect("trace is well-formed");
        } else {
            cache
                .read(access.addr, access.width, &mut mem, &mut oracle)
                .expect("trace is well-formed");
        }
    }
    cache.flush(&mut mem, &mut oracle);
    oracle.total
}

/// `(name, oracle_saving, achieved_saving, efficiency)` rows.
pub fn data(workloads: &[Workload]) -> Vec<(String, f64, f64, f64)> {
    crate::pool::par_map(workloads, |w| {
        let [base, cnt] = run_dcache_pair(&w.trace);
        let oracle = oracle_total(&w.trace);
        let base_fj = base.total().femtojoules();
        let oracle_saving = (base_fj - oracle.femtojoules()) / base_fj * 100.0;
        let achieved = cnt.saving_vs(&base);
        let efficiency = if oracle_saving > 0.0 {
            achieved / oracle_saving
        } else {
            0.0
        };
        (w.name.clone(), oracle_saving, achieved, efficiency)
    })
}

/// Regenerates the oracle-bound table on the full suite.
pub fn run() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Oracle lower bound: per-event optimal direction, free switches,\n\
         no metadata (an unachievable bound for any real predictor):\n"
    );
    let _ = writeln!(
        out,
        "| {:<16} | {:>13} | {:>15} | {:>10} |",
        "benchmark", "oracle saving", "achieved saving", "efficiency"
    );
    let rows = data(&cnt_workloads::suite());
    let mut efficiencies = Vec::new();
    for (name, oracle, achieved, eff) in &rows {
        efficiencies.push(*eff);
        let _ = writeln!(
            out,
            "| {name:<16} | {oracle:>12.2}% | {achieved:>14.2}% | {:>9.1}% |",
            eff * 100.0
        );
    }
    let _ = writeln!(
        out,
        "\nmean predictor efficiency: {:.1}%",
        mean(&efficiencies) * 100.0
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_bounds_the_achieved_saving() {
        for (name, oracle, achieved, eff) in data(&cnt_workloads::suite_small()) {
            assert!(
                achieved <= oracle + 1e-6,
                "{name}: achieved {achieved:.1}% exceeds the oracle bound {oracle:.1}%"
            );
            assert!(oracle >= 0.0, "{name}: oracle can never lose");
            assert!(eff <= 1.0 + 1e-9, "{name}: efficiency {eff}");
        }
    }

    #[test]
    fn predictor_captures_a_real_fraction_on_winners() {
        let rows = data(&cnt_workloads::suite_small());
        let matmul = rows.iter().find(|(n, ..)| n == "matmul").expect("present");
        assert!(
            matmul.3 > 0.5,
            "matmul efficiency {:.2} — the predictor should capture most of the bound",
            matmul.3
        );
    }
}
