//! Hierarchy integration: kernels through the split-L1/L2 stack keep
//! their semantics and the level statistics obey inclusion-style
//! invariants.

use cnt_sim::trace::{AccessBatch, MemoryAccess};
use cnt_sim::{
    Address, CacheGeometry, CacheHierarchy, HierarchyConfig, MainMemory, ReplacementKind,
};
use cnt_workloads::suite_small;

fn tiny_hierarchy() -> CacheHierarchy {
    // Small caches to force traffic at every level.
    let config = HierarchyConfig {
        l1i: CacheGeometry::new(1024, 64, 2).expect("valid"),
        l1d: CacheGeometry::new(2048, 64, 2).expect("valid"),
        l2: Some(CacheGeometry::new(8192, 64, 4).expect("valid")),
        replacement: ReplacementKind::Lru,
    };
    CacheHierarchy::new(config)
}

fn reference_image(trace: &AccessBatch) -> MainMemory {
    let mut mem = MainMemory::new();
    for access in trace {
        if access.is_write() {
            mem.store(access.addr, access.width, access.value);
        }
    }
    mem
}

#[test]
fn kernels_survive_the_full_hierarchy() {
    for workload in suite_small() {
        let mut h = tiny_hierarchy();
        h.run(workload.trace.iter()).expect("trace runs");
        h.flush_all();
        let mut reference = reference_image(&workload.trace);
        for access in workload.trace.iter().filter(|a| a.is_write()) {
            let addr = access.addr.align_down(8);
            assert_eq!(
                h.memory_mut().load(addr, 8),
                reference.load(addr, 8),
                "{}: {addr} diverged through the hierarchy",
                workload.name
            );
        }
    }
}

#[test]
fn l2_sees_only_l1_misses() {
    let workload = &suite_small()[4]; // stencil: strong locality
    let mut h = tiny_hierarchy();
    h.run(workload.trace.iter()).expect("trace runs");
    let l1_misses = h.l1d_stats().misses() + h.l1i_stats().misses();
    let l1_writebacks = h.l1d_stats().writebacks + h.l1i_stats().writebacks;
    let l2 = h.l2_stats().expect("l2 configured");
    assert_eq!(
        l2.accesses(),
        l1_misses + l1_writebacks,
        "every L2 access is an L1 refill or spill"
    );
    assert!(
        l2.accesses() < workload.trace.len() as u64,
        "L1 must filter"
    );
}

#[test]
fn ifetch_stream_isolates_to_l1i() {
    let mut h = tiny_hierarchy();
    let trace: AccessBatch = (0..256u64)
        .map(|i| MemoryAccess::ifetch(Address::new(0x1000 + (i % 32) * 64)))
        .collect();
    h.run(trace.iter()).expect("trace runs");
    assert_eq!(h.l1i_stats().accesses(), 256);
    assert_eq!(h.l1d_stats().accesses(), 0);
    // 32 distinct lines, 1 KiB L1I (16 lines): misses exceed 32 due to
    // capacity, but hits still dominate on the loop.
    assert!(h.l1i_stats().misses() >= 32);
}

#[test]
fn cnt_hierarchy_and_raw_hierarchy_agree_on_cache_behaviour() {
    // Differential test: the energy-metered CntHierarchy (all levels at
    // EncodingPolicy::None) and the raw cnt-sim CacheHierarchy implement
    // the same cache semantics independently; their per-level hit/miss
    // statistics must be identical on the same trace.
    use cnt_cache::{CntCacheConfig, CntHierarchy, CntHierarchyConfig, EncodingPolicy};

    for workload in suite_small().iter().take(6) {
        let geometry = |size: u64, ways: u32| CacheGeometry::new(size, 64, ways).expect("valid");
        let raw_config = HierarchyConfig {
            l1i: geometry(1024, 2),
            l1d: geometry(2048, 2),
            l2: Some(geometry(8192, 4)),
            replacement: ReplacementKind::Lru,
        };
        let mut raw = CacheHierarchy::new(raw_config);
        raw.run(workload.trace.iter()).expect("raw runs");

        let cnt_config = CntHierarchyConfig {
            l1i: CntCacheConfig::builder()
                .name("L1I")
                .size_bytes(1024)
                .associativity(2)
                .build()
                .expect("valid"),
            l1d: CntCacheConfig::builder()
                .name("L1D")
                .size_bytes(2048)
                .associativity(2)
                .build()
                .expect("valid"),
            l2: Some(
                CntCacheConfig::builder()
                    .name("L2")
                    .size_bytes(8192)
                    .associativity(4)
                    .policy(EncodingPolicy::None)
                    .build()
                    .expect("valid"),
            ),
        };
        let mut cnt = CntHierarchy::new(cnt_config).expect("valid");
        cnt.run(workload.trace.iter()).expect("cnt runs");

        assert_eq!(
            raw.l1d_stats(),
            cnt.l1d().stats(),
            "{}: L1D statistics diverged",
            workload.name
        );
        assert_eq!(
            raw.l1i_stats(),
            cnt.l1i().stats(),
            "{}: L1I statistics diverged",
            workload.name
        );
        assert_eq!(
            raw.l2_stats().expect("configured"),
            cnt.l2().expect("configured").stats(),
            "{}: L2 statistics diverged",
            workload.name
        );
    }
}

#[test]
fn hierarchy_without_l2_matches_flat_semantics() {
    let workload = &suite_small()[1]; // fir
    let mut config = HierarchyConfig::typical();
    config.l2 = None;
    let mut h = CacheHierarchy::new(config);
    h.run(workload.trace.iter()).expect("trace runs");
    h.flush_all();
    let mut reference = reference_image(&workload.trace);
    for access in workload.trace.iter().filter(|a| a.is_write()) {
        let addr = access.addr.align_down(8);
        assert_eq!(h.memory_mut().load(addr, 8), reference.load(addr, 8));
    }
}
