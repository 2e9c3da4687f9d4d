//! Explore a split-L1 / unified-L2 stack on a mixed program trace: hit
//! rates per level, then whole-hierarchy energy with the CNT encoder
//! placed at different levels.
//!
//! ```text
//! cargo run --release --example hierarchy_explorer
//! ```

use cnt_cache::{CntHierarchy, CntHierarchyConfig, EncodingPolicy};
use cnt_sim::trace::{AccessBatch, MemoryAccess};
use cnt_sim::{Address, CacheHierarchy, HierarchyConfig};
use cnt_workloads::kernels;
use cnt_workloads::synthetic::word_with_density;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Interleave a data trace with a synthetic instruction-fetch stream, the
/// way a simple in-order core would issue them.
fn interleave_with_ifetch(data: &AccessBatch) -> AccessBatch {
    let mut out = AccessBatch::new();
    let code_base = 0x0040_0000u64;
    let code_lines = 64u64;
    for (i, access) in data.iter().enumerate() {
        // One fetch per "instruction", walking a looping code footprint.
        let pc = code_base + (i as u64 % (code_lines * 8)) * 8;
        out.push(MemoryAccess::ifetch(Address::new(pc)));
        out.push(access);
    }
    out
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = kernels::stencil2d(64, 48, 2);
    let trace = interleave_with_ifetch(&workload.trace);
    println!(
        "running {} ({} accesses incl. instruction fetches)\n",
        workload.name,
        trace.len()
    );

    // --- Hit-rate view through the raw (unmetered) hierarchy -----------
    let mut hierarchy = CacheHierarchy::new(HierarchyConfig::typical());
    hierarchy.run(trace.iter())?;
    println!("L1I: {}", hierarchy.l1i_stats());
    println!("L1D: {}", hierarchy.l1d_stats());
    if let Some(l2) = hierarchy.l2_stats() {
        println!("L2 : {l2}");
    }

    // --- Energy view: CNT encoding placed at different levels ----------
    println!("\nwhole-hierarchy dynamic energy by encoder placement:");
    let placements: [(&str, EncodingPolicy, EncodingPolicy, EncodingPolicy); 4] = [
        (
            "none",
            EncodingPolicy::None,
            EncodingPolicy::None,
            EncodingPolicy::None,
        ),
        (
            "L1D only",
            EncodingPolicy::None,
            EncodingPolicy::adaptive_default(),
            EncodingPolicy::None,
        ),
        (
            "L1I + L1D",
            EncodingPolicy::adaptive_default(),
            EncodingPolicy::adaptive_default(),
            EncodingPolicy::None,
        ),
        (
            "all levels",
            EncodingPolicy::adaptive_default(),
            EncodingPolicy::adaptive_default(),
            EncodingPolicy::adaptive_default(),
        ),
    ];
    let mut baseline_fj = None;
    for (label, l1i, l1d, l2) in placements {
        let mut h = CntHierarchy::new(CntHierarchyConfig::typical(l1i, l1d, l2)?)?;
        // "Load the program": realistic ~30%-density instruction words.
        let mut rng = SmallRng::seed_from_u64(0xC0DE);
        for word in 0..64 * 8u64 {
            h.memory_mut().store(
                Address::new(0x0040_0000 + word * 8),
                8,
                word_with_density(&mut rng, 0.30),
            );
        }
        h.run(trace.iter())?;
        h.flush_all();
        let total = h.total_energy();
        let note = match baseline_fj {
            None => {
                baseline_fj = Some(total.femtojoules());
                String::new()
            }
            Some(base) => format!(
                "  (saving {:.2}%)",
                (base - total.femtojoules()) / base * 100.0
            ),
        };
        println!("  {label:<10} {total:>16.1}{note}");
        for report in h.reports() {
            println!(
                "      {:<4} {:>14.1}  [{}]",
                report.name,
                report.total(),
                report.policy
            );
        }
    }
    Ok(())
}
