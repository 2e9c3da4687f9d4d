//! Fig. 13 (extension): reliability — direction-bit soft errors cause
//! *silent* data corruption.
//!
//! The H&D metadata is not covered by the data array's protection: a
//! single upset direction bit makes a whole partition decode inverted,
//! and nothing detects it. This experiment injects metadata upsets
//! mid-run and measures how many architecturally-visible words end up
//! corrupted, motivating parity over the D bits as future work. The
//! baseline (no encoding) has no direction bits and is immune by
//! construction.

use std::fmt::Write as _;

use cnt_cache::{CntCache, CntCacheConfig, EncodingPolicy};
use cnt_sim::trace::AccessBatch;
use cnt_sim::{Address, MainMemory};
use cnt_workloads::kernels;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Runs `trace` on an adaptive cache, injecting `faults` direction-bit
/// upsets at evenly spaced points, and returns the number of corrupted
/// 64-bit words in the final memory image.
pub fn corrupted_words(trace: &AccessBatch, faults: usize, seed: u64) -> usize {
    // Golden image: same trace, no faults, plain replay.
    let mut golden = MainMemory::new();
    for access in trace {
        if access.is_write() {
            golden.store(access.addr, access.width, access.value);
        }
    }

    let config = CntCacheConfig::builder()
        .policy(EncodingPolicy::adaptive_default())
        .build()
        .expect("static geometry");
    let mut cache = CntCache::new(config).expect("valid cache");
    let mut rng = SmallRng::seed_from_u64(seed);
    let interval = (trace.len() / (faults + 1)).max(1);
    let mut injected = 0;
    for (i, access) in trace.iter().enumerate() {
        cache.access(&access).expect("trace runs");
        if injected < faults && i % interval == interval - 1 {
            // Upset a random partition of a random valid line. The line
            // is picked by counted index (no per-upset allocation) and
            // the partition range comes from the cache's codec layout,
            // so non-default geometries inject valid faults too.
            let count = cache.valid_line_count();
            if count > 0 {
                let loc = cache
                    .nth_valid_line(rng.gen_range(0..count))
                    .expect("index below the valid-line count");
                let partition = rng.gen_range(0..cache.partitions());
                if cache.inject_direction_fault(loc, partition) {
                    injected += 1;
                }
            }
        }
    }
    cache.flush();

    // Compare every written word against the golden image.
    let mut corrupted = 0;
    let mut seen = std::collections::BTreeSet::new();
    for access in trace.iter().filter(|a| a.is_write()) {
        let addr = access.addr.align_down(8);
        if seen.insert(addr)
            && cache.memory_mut().load(addr, 8) != golden.load(Address::new(addr.value()), 8)
        {
            corrupted += 1;
        }
    }
    corrupted
}

/// `(faults, corrupted_words)` sweep on one kernel.
pub fn data(faults: &[usize]) -> Vec<(usize, usize)> {
    let w = kernels::matmul(24, 1);
    faults
        .iter()
        .map(|&f| (f, corrupted_words(&w.trace, f, 0xFA17)))
        .collect()
}

/// Regenerates the fault-injection study.
pub fn run() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Direction-bit soft errors (matmul, 24x24): injected metadata\n\
         upsets vs corrupted 64-bit words in the final memory image.\n\
         The baseline cache has no direction bits and is immune; every\n\
         corruption below is silent (no detection mechanism exists).\n"
    );
    let _ = writeln!(out, "| {:>7} | {:>16} |", "upsets", "corrupted words");
    for (faults, corrupted) in data(&[0, 1, 2, 4, 8, 16]) {
        let _ = writeln!(out, "| {faults:>7} | {corrupted:>16} |");
    }
    let _ = writeln!(
        out,
        "\nMitigation (future work): one parity bit over the D field per\n\
         line detects all single upsets at +{:.2}% additional storage.",
        1.0 / 512.0 * 100.0
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_faults_zero_corruption() {
        let w = kernels::matmul(10, 1);
        assert_eq!(corrupted_words(&w.trace, 0, 1), 0);
    }

    #[test]
    fn faults_corrupt_silently() {
        let w = kernels::matmul(10, 1);
        let corrupted = corrupted_words(&w.trace, 8, 1);
        assert!(corrupted > 0, "8 upsets must corrupt something");
    }

    #[test]
    fn corruption_grows_with_fault_count() {
        let w = kernels::matmul(12, 1);
        let few = corrupted_words(&w.trace, 1, 2);
        let many = corrupted_words(&w.trace, 16, 2);
        assert!(
            many >= few,
            "more upsets cannot corrupt less: {few} vs {many}"
        );
    }
}
