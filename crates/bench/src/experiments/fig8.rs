//! Fig. 8: the crossover map — where does adaptive encoding win?
//!
//! Synthetic traces sweep the two axes the predictor responds to: the
//! read fraction and the bit density of the data. Savings peak at skewed
//! densities, vanish at 50 % density (nothing to encode), and are
//! bounded below by the metadata overhead.

use std::fmt::Write as _;

use cnt_workloads::synthetic::{AddressPattern, SyntheticSpec};

use crate::runner::run_dcache_pair;

/// Swept read fractions.
pub const READ_FRACTIONS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];
/// Swept one-bit densities.
pub const DENSITIES: [f64; 5] = [0.05, 0.25, 0.5, 0.75, 0.95];

/// Saving (percent) for one grid cell.
pub fn cell(read_fraction: f64, ones_density: f64, accesses: usize) -> f64 {
    let spec = SyntheticSpec {
        accesses,
        footprint_lines: 128,
        read_fraction,
        ones_density,
        pattern: AddressPattern::UniformRandom,
        seed: 0xF18,
    };
    let trace = spec.generate();
    let [base, cnt] = run_dcache_pair(&trace);
    cnt.saving_vs(&base)
}

/// Regenerates the crossover map.
pub fn run() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Saving (%) by read fraction (rows) x one-bit density (columns),\n\
         uniform random lines, 128-line footprint, 40k accesses per cell:\n"
    );
    let _ = write!(out, "| rd\\den |");
    for d in DENSITIES {
        let _ = write!(out, " {d:>6.2} |");
    }
    let _ = writeln!(out);
    for rf in READ_FRACTIONS {
        let _ = write!(out, "| {rf:>6.2} |");
        for d in DENSITIES {
            let _ = write!(out, " {:>6.2} |", cell(rf, d, 40_000));
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_shape_holds() {
        let n = 6_000;
        // Skewed-density read-heavy: big win.
        let sparse_reads = cell(1.0, 0.05, n);
        assert!(
            sparse_reads > 20.0,
            "sparse reads won only {sparse_reads:.1}%"
        );
        // Balanced density: nothing to encode; bounded loss.
        let dense_balanced = cell(0.5, 0.5, n);
        assert!(
            dense_balanced.abs() < 8.0,
            "50% density should be near-neutral, got {dense_balanced:.1}%"
        );
        // One-heavy write workload also wins (stores zeros).
        let ones_writes = cell(0.0, 0.95, n);
        assert!(
            ones_writes > 10.0,
            "one-dense writes won only {ones_writes:.1}%"
        );
    }
}
