//! Fig. 14 (extension): prefetching × adaptive encoding.
//!
//! A next-line prefetcher changes the fill mix: more lines are installed
//! per demand miss, each paying a full-line write into the array. Does
//! the encoder's saving survive the extra fill traffic — and does greedy
//! fill-time encoding (`fill_preference`) recover it?

use std::fmt::Write as _;

use cnt_cache::{AdaptiveParams, CntCacheConfig, EncodingPolicy};
use cnt_encoding::BitPreference;
use cnt_sim::PrefetchPolicy;
use cnt_workloads::Workload;

use crate::runner::{mean, run_lanes};

fn config(prefetch: PrefetchPolicy, policy: EncodingPolicy) -> CntCacheConfig {
    CntCacheConfig::builder()
        .prefetch(prefetch)
        .policy(policy)
        .build()
        .expect("static geometry is valid")
}

/// The encoder variants compared under each prefetch setting.
fn encoder_variants() -> Vec<(&'static str, EncodingPolicy)> {
    vec![
        ("adaptive", EncodingPolicy::adaptive_default()),
        (
            "adaptive+greedy-fill",
            EncodingPolicy::Adaptive(AdaptiveParams {
                fill_preference: Some(BitPreference::MoreOnes),
                ..AdaptiveParams::paper_default()
            }),
        ),
    ]
}

/// `(prefetch, variant, mean_saving, mean_hit_rate)` rows.
pub fn data(workloads: &[Workload]) -> Vec<(PrefetchPolicy, &'static str, f64, f64)> {
    let mut rows = Vec::new();
    for prefetch in [PrefetchPolicy::None, PrefetchPolicy::NextLine] {
        for (label, policy) in encoder_variants() {
            let pairs = crate::pool::par_map(workloads, |w| {
                let [base, cnt] = run_lanes(
                    [
                        config(prefetch, EncodingPolicy::None),
                        config(prefetch, policy),
                    ],
                    &w.trace,
                );
                (cnt.saving_vs(&base), cnt.stats.hit_rate())
            });
            let savings: Vec<f64> = pairs.iter().map(|&(s, _)| s).collect();
            let hit_rates: Vec<f64> = pairs.iter().map(|&(_, h)| h).collect();
            rows.push((prefetch, label, mean(&savings), mean(&hit_rates)));
        }
    }
    rows
}

/// Regenerates the prefetch-interaction study on the full suite.
pub fn run() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Prefetch x encoding interaction (savings vs the *matching*\n\
         prefetch baseline, so the prefetcher's own cost cancels out):\n"
    );
    let _ = writeln!(
        out,
        "| {:<10} | {:<22} | {:>12} | {:>9} |",
        "prefetch", "encoder", "mean saving", "hit rate"
    );
    for (prefetch, label, saving, hit_rate) in data(&cnt_workloads::suite()) {
        let _ = writeln!(
            out,
            "| {:<10} | {label:<22} | {saving:>11.2}% | {:>8.2}% |",
            prefetch.to_string(),
            hit_rate * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_survives_prefetching() {
        let rows = data(&cnt_workloads::suite_small());
        for (prefetch, label, saving, _) in &rows {
            if *label == "adaptive" {
                assert!(
                    *saving > 0.0,
                    "{prefetch}/{label}: encoding lost energy ({saving:.1}%)"
                );
            } else {
                // Greedy fill-time encoding repeats the static-ones
                // mistake (fig6) — it may lose, but boundedly.
                assert!(*saving > -25.0, "{prefetch}/{label}: {saving:.1}%");
            }
        }
        // Prefetching must not change hit rates downward.
        let no_pf = rows
            .iter()
            .find(|(p, l, ..)| *p == PrefetchPolicy::None && *l == "adaptive")
            .expect("row present");
        let pf = rows
            .iter()
            .find(|(p, l, ..)| *p == PrefetchPolicy::NextLine && *l == "adaptive")
            .expect("row present");
        assert!(
            pf.3 >= no_pf.3 - 0.01,
            "next-line prefetch should not hurt hit rate: {:.3} vs {:.3}",
            pf.3,
            no_pf.3
        );
    }
}
