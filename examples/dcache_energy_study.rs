//! The full D-Cache energy study: every suite kernel under four encoding
//! policies, with a per-category energy breakdown for one kernel.
//!
//! ```text
//! cargo run --release --example dcache_energy_study [kernel-name]
//! ```

use cnt_cache::{AdaptiveParams, CntCache, CntCacheConfig, EncodingPolicy, EnergyReport};
use cnt_encoding::BitPreference;
use cnt_sim::trace::AccessBatch;
use cnt_workloads::suite;

fn simulate(
    policy: EncodingPolicy,
    trace: &AccessBatch,
) -> Result<EnergyReport, Box<dyn std::error::Error>> {
    let mut cache = CntCache::new(CntCacheConfig::builder().policy(policy).build()?)?;
    cache.run(trace.iter())?;
    cache.flush();
    Ok(cache.report())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let focus = std::env::args().nth(1);
    let policies: [(&str, EncodingPolicy); 4] = [
        ("baseline", EncodingPolicy::None),
        (
            "static-ones",
            EncodingPolicy::StaticInvert {
                preference: BitPreference::MoreOnes,
                partitions: 8,
            },
        ),
        (
            "adaptive-full",
            EncodingPolicy::Adaptive(AdaptiveParams {
                partitions: 1,
                ..AdaptiveParams::paper_default()
            }),
        ),
        ("adaptive-part", EncodingPolicy::adaptive_default()),
    ];

    println!(
        "| {:<16} | {:>12} | {:>12} | {:>12} | {:>12} |",
        "kernel", "baseline fJ", "static-ones", "adaptive-full", "adaptive-part"
    );
    for w in suite() {
        let mut row = format!("| {:<16} |", w.name);
        let base = simulate(policies[0].1, &w.trace)?;
        row.push_str(&format!(" {:>12.0} |", base.total().femtojoules()));
        for (_, policy) in &policies[1..] {
            let r = simulate(*policy, &w.trace)?;
            row.push_str(&format!(" {:>11.2}% |", r.saving_vs(&base)));
        }
        println!("{row}");

        if focus.as_deref() == Some(w.name.as_str()) {
            println!("\nfull report for {} under adaptive-part:\n", w.name);
            let r = simulate(EncodingPolicy::adaptive_default(), &w.trace)?;
            println!("{r}");
        }
    }
    println!("\n(columns 3-5 are savings relative to the baseline column)");
    Ok(())
}
