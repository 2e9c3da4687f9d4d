//! Cross-crate property tests: random traces through the full CNT-Cache
//! stack must preserve semantics, keep energy monotone, and keep the
//! encoding metadata self-consistent.

use std::collections::HashMap;

use cnt_cache::{
    AdaptiveParams, CntCache, CntCacheConfig, CntHierarchy, CntHierarchyConfig, EncodingPolicy,
};
use cnt_encoding::BitPreference;
use cnt_sim::trace::MemoryAccess;
use cnt_sim::Address;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Read { addr: u64, width: u8 },
    Write { addr: u64, width: u8, value: u64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    let width = prop::sample::select(vec![1u8, 2, 4, 8]);
    (0u64..8192, width, any::<u64>(), any::<bool>()).prop_map(|(raw, width, value, is_write)| {
        let addr = raw & !(u64::from(width) - 1);
        if is_write {
            Op::Write { addr, width, value }
        } else {
            Op::Read { addr, width }
        }
    })
}

fn arb_policy() -> impl Strategy<Value = EncodingPolicy> {
    prop::sample::select(vec![
        EncodingPolicy::None,
        EncodingPolicy::StaticInvert {
            preference: BitPreference::MoreOnes,
            partitions: 8,
        },
        EncodingPolicy::adaptive_default(),
        EncodingPolicy::Adaptive(AdaptiveParams {
            window: 3,
            partitions: 64,
            delta_t: 0.0,
            ..AdaptiveParams::paper_default()
        }),
        EncodingPolicy::Adaptive(AdaptiveParams {
            window: 31,
            partitions: 1,
            fifo_capacity: 1,
            ..AdaptiveParams::paper_default()
        }),
    ])
}

fn width_mask(width: u8) -> u64 {
    match width {
        8 => u64::MAX,
        w => (1u64 << (u64::from(w) * 8)) - 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random operations through any policy behave exactly like flat
    /// byte-addressed memory.
    #[test]
    fn cnt_cache_is_transparent(ops in prop::collection::vec(arb_op(), 1..300), policy in arb_policy()) {
        let config = CntCacheConfig::builder()
            .size_bytes(1024) // tiny: constant evictions + re-encodings
            .associativity(2)
            .policy(policy)
            .build()
            .expect("valid config");
        let mut cache = CntCache::new(config).expect("valid cache");
        let mut reference: HashMap<u64, u8> = HashMap::new();

        for op in &ops {
            match *op {
                Op::Write { addr, width, value } => {
                    cache.write(Address::new(addr), width, value).expect("write ok");
                    for i in 0..u64::from(width) {
                        reference.insert(addr + i, (value >> (8 * i)) as u8);
                    }
                }
                Op::Read { addr, width } => {
                    let got = cache.read(Address::new(addr), width).expect("read ok");
                    let mut expect = 0u64;
                    for i in (0..u64::from(width)).rev() {
                        expect = (expect << 8) | u64::from(*reference.get(&(addr + i)).unwrap_or(&0));
                    }
                    prop_assert_eq!(got, expect & width_mask(width));
                }
            }
        }

        // Final flush lands the reference image in memory.
        cache.flush();
        for (&addr, &byte) in &reference {
            prop_assert_eq!(cache.memory_mut().load(Address::new(addr), 1) as u8, byte);
        }
    }

    /// Energy accumulates monotonically and the breakdown stays
    /// internally consistent on any workload and policy.
    #[test]
    fn energy_is_monotone_and_consistent(ops in prop::collection::vec(arb_op(), 1..200), policy in arb_policy()) {
        let config = CntCacheConfig::builder()
            .size_bytes(1024)
            .associativity(2)
            .policy(policy)
            .build()
            .expect("valid config");
        let mut cache = CntCache::new(config).expect("valid cache");
        let mut last = cache.total_energy();
        for op in &ops {
            match *op {
                Op::Write { addr, width, value } => {
                    cache.write(Address::new(addr), width, value).expect("write ok");
                }
                Op::Read { addr, width } => {
                    let _ = cache.read(Address::new(addr), width).expect("read ok");
                }
            }
            let now = cache.total_energy();
            prop_assert!(now >= last, "energy went backwards");
            last = now;
        }
        let b = cache.meter().breakdown();
        let rw = b.read_energy() + b.write_energy();
        prop_assert!((b.total() - rw).abs().femtojoules() < 1e-6);
        // The internal audit passes after any workload.
        prop_assert!(cache.audit().is_ok(), "{:?}", cache.audit());
    }

    /// Random traffic through a fully-encoded two-level hierarchy behaves
    /// exactly like flat memory, and every level passes its audit.
    #[test]
    fn cnt_hierarchy_is_transparent(ops in prop::collection::vec(arb_op(), 1..250)) {
        let config = CntHierarchyConfig {
            l1i: CntCacheConfig::builder()
                .name("L1I")
                .size_bytes(1024)
                .associativity(2)
                .build()
                .expect("valid"),
            l1d: CntCacheConfig::builder()
                .name("L1D")
                .size_bytes(1024) // tiny: constant L1<->L2 traffic
                .associativity(2)
                .policy(EncodingPolicy::Adaptive(AdaptiveParams {
                    window: 4,
                    delta_t: 0.0,
                    ..AdaptiveParams::paper_default()
                }))
                .build()
                .expect("valid"),
            l2: Some(
                CntCacheConfig::builder()
                    .name("L2")
                    .size_bytes(4096)
                    .associativity(4)
                    .policy(EncodingPolicy::adaptive_default())
                    .build()
                    .expect("valid"),
            ),
        };
        let mut h = CntHierarchy::new(config).expect("valid hierarchy");
        let mut reference: HashMap<u64, u8> = HashMap::new();
        for op in &ops {
            match *op {
                Op::Write { addr, width, value } => {
                    h.access(&MemoryAccess::write(Address::new(addr), width, value)).expect("write");
                    for i in 0..u64::from(width) {
                        reference.insert(addr + i, (value >> (8 * i)) as u8);
                    }
                }
                Op::Read { addr, width } => {
                    let got = h.access(&MemoryAccess::read(Address::new(addr), width)).expect("read");
                    let mut expect = 0u64;
                    for i in (0..u64::from(width)).rev() {
                        expect = (expect << 8) | u64::from(*reference.get(&(addr + i)).unwrap_or(&0));
                    }
                    prop_assert_eq!(got, expect & width_mask(width), "at {:#x}", addr);
                }
            }
        }
        h.flush_all();
        for (&addr, &byte) in &reference {
            prop_assert_eq!(h.memory_mut().load(Address::new(addr), 1) as u8, byte);
        }
        prop_assert!(h.l1d().audit().is_ok());
        prop_assert!(h.l2().expect("configured").audit().is_ok());
    }

    /// The per-line direction metadata always stays consistent: stored
    /// lines decode back to their logical content.
    #[test]
    fn directions_stay_decodable(ops in prop::collection::vec(arb_op(), 1..200)) {
        let config = CntCacheConfig::builder()
            .size_bytes(1024)
            .associativity(2)
            .policy(EncodingPolicy::Adaptive(AdaptiveParams {
                window: 3, // aggressive: maximum switch churn
                delta_t: 0.0,
                ..AdaptiveParams::paper_default()
            }))
            .build()
            .expect("valid config");
        let mut cache = CntCache::new(config).expect("valid cache");
        for op in &ops {
            match *op {
                Op::Write { addr, width, value } => {
                    cache.write(Address::new(addr), width, value).expect("write ok");
                }
                Op::Read { addr, width } => {
                    let _ = cache.read(Address::new(addr), width).expect("read ok");
                }
            }
        }
        let lines: Vec<_> = cache
            .valid_lines()
            .map(|(loc, line, dirs)| (loc, line.to_vec(), *dirs))
            .collect();
        for (loc, logical, dirs) in lines {
            let stored = cache.stored_line(loc).expect("valid line");
            let inverted_partitions = dirs.inverted_count();
            // Count how many 64-bit words differ: with 8 partitions over a
            // 512-bit line, exactly the inverted partitions' words differ.
            let differing = stored
                .iter()
                .zip(logical.iter())
                .filter(|(s, l)| s != l)
                .count() as u32;
            prop_assert_eq!(differing, inverted_partitions);
            // And XOR-ing back restores the logical words.
            for (w, (&s, &l)) in stored.iter().zip(logical.iter()).enumerate() {
                let p = (w as u32 * 64) / 64; // partition index for 8x64-bit layout
                if dirs.is_inverted(p) {
                    prop_assert_eq!(s, !l);
                } else {
                    prop_assert_eq!(s, l);
                }
            }
        }
    }
}
