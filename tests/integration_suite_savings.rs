//! The headline reproduction as a regression test: suite-level savings
//! stay in the expected band and the losers stay bounded.

use cnt_cache::{CntCache, CntCacheConfig, EncodingPolicy, EnergyReport};
use cnt_sim::trace::AccessBatch;
use cnt_workloads::suite_small;

fn run(policy: EncodingPolicy, trace: &AccessBatch) -> EnergyReport {
    let mut cache = CntCache::new(
        CntCacheConfig::builder()
            .policy(policy)
            .build()
            .expect("valid config"),
    )
    .expect("valid cache");
    cache.run(trace.iter()).expect("trace runs");
    cache.flush();
    cache.report()
}

#[test]
fn average_saving_is_in_the_paper_band() {
    let mut savings = Vec::new();
    for w in suite_small() {
        let base = run(EncodingPolicy::None, &w.trace);
        let cnt = run(EncodingPolicy::adaptive_default(), &w.trace);
        savings.push(cnt.saving_vs(&base));
    }
    let avg = savings.iter().sum::<f64>() / savings.len() as f64;
    assert!(
        (5.0..40.0).contains(&avg),
        "suite average saving {avg:.1}% left the plausible band (paper: 22.2%)"
    );
}

#[test]
fn no_kernel_loses_more_than_bounded_overhead() {
    // Adaptive encoding can lose on adversarial data, but only by its
    // metadata + switch overhead — never catastrophically.
    for w in suite_small() {
        let base = run(EncodingPolicy::None, &w.trace);
        let cnt = run(EncodingPolicy::adaptive_default(), &w.trace);
        let saving = cnt.saving_vs(&base);
        assert!(
            saving > -15.0,
            "{} lost {:.1}% — overhead is not bounded",
            w.name,
            -saving
        );
    }
}

#[test]
fn winners_win_for_the_right_reason() {
    // On the sparse read-heavy kernels the gain must come from the read
    // path: stored one-bits must dominate reads after adaptation.
    for name in ["matmul", "fir"] {
        let w = suite_small()
            .into_iter()
            .find(|w| w.name == name)
            .expect("kernel present");
        let base = run(EncodingPolicy::None, &w.trace);
        let cnt = run(EncodingPolicy::adaptive_default(), &w.trace);
        let base_ones_frac =
            base.breakdown.bits_read_one as f64 / base.breakdown.bits_read() as f64;
        let cnt_ones_frac = cnt.breakdown.bits_read_one as f64 / cnt.breakdown.bits_read() as f64;
        assert!(
            cnt_ones_frac > base_ones_frac + 0.2,
            "{name}: stored-ones read fraction {base_ones_frac:.2} -> {cnt_ones_frac:.2} (must grow)"
        );
    }
}

#[test]
fn fifo_never_drops_at_default_drain_rate() {
    for w in suite_small() {
        let cnt = run(EncodingPolicy::adaptive_default(), &w.trace);
        assert_eq!(cnt.fifo.dropped, 0, "{} dropped updates", w.name);
        assert_eq!(
            cnt.fifo.drained + cnt.fifo.pushed - cnt.fifo.drained,
            cnt.fifo.pushed,
            "bookkeeping sanity"
        );
        assert!(cnt.fifo.max_occupancy <= 8, "{}", w.name);
    }
}

#[test]
fn switch_counts_are_consistent() {
    for w in suite_small() {
        let cnt = run(EncodingPolicy::adaptive_default(), &w.trace);
        // Applied switches cannot exceed queued decisions; queued
        // decisions cannot exceed completed windows.
        assert!(cnt.encoding.switches_applied <= cnt.encoding.switch_decisions);
        assert!(cnt.encoding.switch_decisions <= cnt.encoding.windows);
        // Every applied switch flipped at least one partition.
        assert!(cnt.encoding.partition_flips >= cnt.encoding.switches_applied);
        // Projected savings of queued decisions are positive.
        if cnt.encoding.switch_decisions > 0 {
            assert!(cnt.encoding.projected_saving_fj > 0.0, "{}", w.name);
        }
    }
}
