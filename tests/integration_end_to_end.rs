//! End-to-end data integrity: every kernel of the suite, under every
//! encoding policy, must leave exactly the same memory image as a plain
//! un-encoded replay — encoding must be invisible to the program.

use cnt_cache::{AdaptiveParams, CntCache, CntCacheConfig, EncodingPolicy};
use cnt_encoding::BitPreference;
use cnt_sim::trace::AccessBatch;
use cnt_sim::{Address, MainMemory};
use cnt_workloads::suite_small;

/// Replays a trace directly against flat memory (no cache): the
/// architectural reference image.
fn reference_image(trace: &AccessBatch) -> MainMemory {
    let mut mem = MainMemory::new();
    for access in trace {
        if access.is_write() {
            mem.store(access.addr, access.width, access.value);
        } else {
            let _ = mem.load(access.addr, access.width);
        }
    }
    mem
}

fn policies() -> Vec<EncodingPolicy> {
    vec![
        EncodingPolicy::None,
        EncodingPolicy::StaticInvert {
            preference: BitPreference::MoreOnes,
            partitions: 8,
        },
        EncodingPolicy::StaticInvert {
            preference: BitPreference::MoreZeros,
            partitions: 1,
        },
        EncodingPolicy::adaptive_default(),
        EncodingPolicy::Adaptive(AdaptiveParams {
            window: 4,
            partitions: 64,
            delta_t: 0.0,
            ..AdaptiveParams::paper_default()
        }),
        EncodingPolicy::Adaptive(AdaptiveParams {
            partitions: 1,
            drain_per_access: 0, // FIFO only drains at flush
            ..AdaptiveParams::paper_default()
        }),
        EncodingPolicy::ZeroFlag,
    ]
}

#[test]
fn all_policies_preserve_program_semantics() {
    for workload in suite_small() {
        let mut reference = reference_image(&workload.trace);
        let touched: Vec<Address> = workload
            .trace
            .iter()
            .filter(|a| a.is_write())
            .map(|a| a.addr.align_down(8))
            .collect();

        for policy in policies() {
            let config = CntCacheConfig::builder()
                .size_bytes(4096) // small: force heavy eviction traffic
                .associativity(2)
                .policy(policy)
                .build()
                .expect("valid config");
            let mut cache = CntCache::new(config).expect("valid cache");
            cache.run(workload.trace.iter()).expect("trace runs");
            cache.flush();
            for &addr in &touched {
                let expect = reference.load(addr, 8);
                let got = cache.memory_mut().load(addr, 8);
                assert_eq!(
                    got, expect,
                    "{}: policy {policy} corrupted {addr}",
                    workload.name
                );
            }
        }
    }
}

#[test]
fn reads_see_writes_in_program_order() {
    // Drive the same kernel through the cache and through flat memory in
    // lockstep, comparing every read value.
    for workload in suite_small() {
        let mut flat = MainMemory::new();
        let config = CntCacheConfig::builder()
            .size_bytes(2048)
            .associativity(2)
            .policy(EncodingPolicy::adaptive_default())
            .build()
            .expect("valid config");
        let mut cache = CntCache::new(config).expect("valid cache");
        for access in workload.trace.iter() {
            if access.is_write() {
                flat.store(access.addr, access.width, access.value);
                cache
                    .write(access.addr, access.width, access.value)
                    .expect("write ok");
            } else {
                let expect = flat.load(access.addr, access.width);
                let got = cache.read(access.addr, access.width).expect("read ok");
                assert_eq!(
                    got, expect,
                    "{}: read mismatch at {}",
                    workload.name, access.addr
                );
            }
        }
    }
}

#[test]
fn wide_lines_and_many_partitions_work_end_to_end() {
    // 128-byte lines (1024 bits) with 32 partitions: partitions span
    // half-words of metadata bookkeeping and two words of data each.
    for partitions in [1u32, 4, 16, 32, 64] {
        let config = CntCacheConfig::builder()
            .size_bytes(8 * 1024)
            .line_bytes(128)
            .associativity(2)
            .policy(EncodingPolicy::Adaptive(AdaptiveParams {
                window: 6,
                partitions,
                ..AdaptiveParams::paper_default()
            }))
            .build()
            .expect("valid config");
        let mut cache = CntCache::new(config).expect("valid cache");
        for w in suite_small().iter().take(4) {
            cache.run(w.trace.iter()).expect("trace runs");
        }
        cache.flush();
        assert!(
            cache.audit().is_ok(),
            "partitions={partitions}: {:?}",
            cache.audit()
        );
        // All resident lines still decode.
        let lines: Vec<_> = cache
            .valid_lines()
            .map(|(loc, line, dirs)| (loc, line.to_vec(), *dirs))
            .collect();
        for (loc, logical, dirs) in lines {
            let stored = cache.stored_line(loc).expect("valid");
            assert_eq!(stored.len(), 16, "128-byte lines hold 16 words");
            if dirs.all_normal_dirs() {
                assert_eq!(stored, logical);
            }
        }
    }
}

#[test]
fn sixteen_bit_accesses_preserve_semantics_under_encoding() {
    let config = CntCacheConfig::builder()
        .size_bytes(2048)
        .associativity(2)
        .policy(EncodingPolicy::adaptive_default())
        .build()
        .expect("valid config");
    let mut cache = CntCache::new(config).expect("valid cache");
    // Dense interleaving of 1/2/4/8-byte accesses to overlapping words.
    for i in 0..512u64 {
        let base = (i % 32) * 64;
        cache
            .write(Address::new(base), 8, i.wrapping_mul(0x0101_0101_0101_0101))
            .expect("w8");
        cache
            .write(Address::new(base + 8), 2, i & 0xFFFF)
            .expect("w2");
        cache
            .write(Address::new(base + 12), 4, (i ^ 0xFFFF_FFFF) & 0xFFFF_FFFF)
            .expect("w4");
        cache
            .write(Address::new(base + 17), 1, i & 0xFF)
            .expect("w1");
        assert_eq!(
            cache.read(Address::new(base + 8), 2).expect("r2"),
            i & 0xFFFF
        );
        assert_eq!(
            cache.read(Address::new(base + 12), 4).expect("r4"),
            (i ^ 0xFFFF_FFFF) & 0xFFFF_FFFF
        );
        assert_eq!(
            cache.read(Address::new(base + 17), 1).expect("r1"),
            i & 0xFF
        );
    }
    assert!(cache.audit().is_ok());
}

#[test]
fn stored_lines_always_decode_to_logical_content() {
    let workload = &suite_small()[2]; // quicksort: heavy mixed traffic
    let config = CntCacheConfig::builder()
        .size_bytes(4096)
        .associativity(2)
        .policy(EncodingPolicy::adaptive_default())
        .build()
        .expect("valid config");
    let mut cache = CntCache::new(config).expect("valid cache");
    cache.run(workload.trace.iter()).expect("trace runs");
    let mut checked = 0;
    let lines: Vec<_> = cache
        .valid_lines()
        .map(|(loc, line, dirs)| (loc, line.to_vec(), *dirs))
        .collect();
    for (loc, logical, dirs) in lines {
        let stored = cache.stored_line(loc).expect("valid line");
        // XOR involution: applying the direction mask twice restores.
        assert!(!stored.is_empty(), "stored line must materialize at {loc}");
        if dirs.all_normal_dirs() {
            assert_eq!(stored, logical, "normal lines are stored verbatim");
        } else {
            assert_ne!(stored, logical, "inverted lines differ in the array");
        }
        checked += 1;
    }
    assert!(checked > 0, "no resident lines to check");
}
