//! Fused lanes against solo caches: every lane of one shared simulation
//! must report — and, with a sink installed, emit — exactly what a solo
//! `CntCache` replay of its configuration does. Each case draws one
//! simulator, one to six encoding lanes over it, and a random trace.

use cnt_bench::runner::run_configs;
use cnt_cache::{AdaptiveParams, CntCache, CntCacheConfig, EncodingPolicy, EnergyReport};
use cnt_encoding::{BitPreference, ProtectionMode};
use cnt_obs::Snapshot;
use cnt_sim::trace::{AccessBatch, MemoryAccess};
use cnt_sim::{Address, FillPattern, PrefetchPolicy, ReplacementKind, WriteMode};
use proptest::prelude::*;

/// No encoding, zero-flag, static inversion, and adaptive with varied
/// `W`, partitions, `ΔT`, FIFO depth and drain, inline updates and the
/// sticky classifier.
fn policies() -> Vec<EncodingPolicy> {
    let adaptive = |window, partitions, delta_t, fifo_capacity, drain_per_access| {
        EncodingPolicy::Adaptive(AdaptiveParams {
            window,
            partitions,
            delta_t,
            fifo_capacity,
            drain_per_access,
            ..AdaptiveParams::paper_default()
        })
    };
    vec![
        EncodingPolicy::None,
        EncodingPolicy::ZeroFlag,
        EncodingPolicy::StaticInvert {
            preference: BitPreference::MoreOnes,
            partitions: 8,
        },
        EncodingPolicy::adaptive_default(),
        adaptive(2, 16, 0.0, 1, 0),
        adaptive(4, 4, 0.4, 2, 2),
        adaptive(31, 1, 0.1, 8, 1),
        EncodingPolicy::Adaptive(AdaptiveParams {
            window: 4,
            inline_updates: true,
            ..AdaptiveParams::paper_default()
        }),
        EncodingPolicy::Adaptive(AdaptiveParams {
            window: 2,
            confirm_windows: 2,
            ..AdaptiveParams::paper_default()
        }),
    ]
}

fn trace_of(ops: &[(u64, u64, bool)]) -> AccessBatch {
    let mut trace = AccessBatch::new();
    for &(raw, value, is_write) in ops {
        // Sparse or dense payloads, so encoders actually switch.
        let value = if value % 3 == 0 {
            value & 0x0101
        } else {
            value
        };
        let addr = Address::new(raw & !7);
        trace.push(if is_write {
            MemoryAccess::write(addr, 8, value)
        } else {
            MemoryAccess::read(addr, 8)
        });
    }
    trace
}

/// Runs `replay` under a local sink inside the scope `label`, returning
/// its reports and its snapshots with `label/` cut from each replay id.
fn observed(
    label: &str,
    replay: impl FnOnce() -> Vec<EnergyReport>,
) -> (Vec<EnergyReport>, Vec<Snapshot>) {
    let sink = cnt_obs::install_local(29, None);
    let reports = {
        let _scope = cnt_obs::scoped(label);
        replay()
    };
    let mut snapshots = sink.finish();
    for snapshot in &mut snapshots {
        snapshot.experiment = snapshot.experiment[label.len() + 1..].to_string();
    }
    (reports, snapshots)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fused_lanes_match_solo_replays(
        (shape, replacement, write_mode, prefetch, fill) in (
            prop::sample::select(vec![(1024, 32, 1), (2048, 64, 2), (4096, 64, 4)]),
            prop::sample::select(vec![
                ReplacementKind::Lru,
                ReplacementKind::Fifo,
                ReplacementKind::Random { seed: 7 },
                ReplacementKind::TreePlru,
                ReplacementKind::Srrip,
            ]),
            prop::sample::select(vec![
                WriteMode::WriteBack,
                WriteMode::WriteThrough,
                WriteMode::WriteThroughNoAllocate,
            ]),
            prop::sample::select(vec![PrefetchPolicy::None, PrefetchPolicy::NextLine]),
            prop::sample::select(vec![FillPattern::Zero, FillPattern::Random { seed: 0x5EED }]),
        ),
        lanes in prop::collection::vec(
            (
                prop::sample::select(policies()),
                prop::sample::select(vec![
                    ProtectionMode::None,
                    ProtectionMode::Parity,
                    ProtectionMode::Secded,
                ]),
            ),
            1..7,
        ),
        ops in prop::collection::vec((0u64..6144, any::<u64>(), any::<bool>()), 0..1200),
        meter_metadata in any::<bool>(),
    ) {
        let (size, line, ways) = shape;
        let configs: Vec<CntCacheConfig> = lanes
            .iter()
            .map(|&(policy, protection)| CntCacheConfig {
                meter_metadata,
                ..CntCacheConfig::builder()
                    .size_bytes(size)
                    .line_bytes(line)
                    .associativity(ways)
                    .replacement(replacement)
                    .write_mode(write_mode)
                    .prefetch(prefetch)
                    .fill_pattern(fill)
                    .policy(policy)
                    .protection(protection)
                    .build()
                    .expect("drawn configurations are valid")
            })
            .collect();
        let trace = trace_of(&ops);

        let (fused, fused_snapshots) = observed("fused", || run_configs(&configs, &trace));
        let (solo, solo_snapshots) = observed("solo", || {
            configs
                .iter()
                .map(|config| {
                    let mut cache = CntCache::new(config.clone()).expect("valid");
                    cnt_obs::replay(&mut cache, trace.iter()).expect("well-formed");
                    cache.flush();
                    cache.into_report()
                })
                .collect()
        });

        prop_assert_eq!(fused, solo, "lanes of {:?}", configs);
        prop_assert_eq!(fused_snapshots, solo_snapshots);
    }
}
