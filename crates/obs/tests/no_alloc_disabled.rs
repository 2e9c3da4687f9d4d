//! Proves that routing a replay through `cnt_obs::replay` with tracing
//! disabled keeps the hot path allocation-free.
//!
//! Sibling of `crates/core/tests/no_alloc_hot_path.rs`: the same counting
//! global allocator and the same 60k-access steady-state trace, but the
//! second replay goes through the observability entry point. With no sink
//! installed the only overhead is one relaxed atomic load, so the
//! assertion is identical — zero heap allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cnt_cache::{CntCache, CntCacheConfig, EncodingPolicy};
use cnt_sim::trace::{AccessBatch, MemoryAccess};
use cnt_sim::Address;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Same deterministic mixed trace as the core no-alloc test.
fn hot_trace() -> AccessBatch {
    let mut trace = AccessBatch::new();
    let mut state = 0x2E60_1234_5678_9ABCu64;
    for i in 0..60_000u64 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let addr = Address::new((state % 4096) * 8);
        if state.is_multiple_of(4) {
            let value = if i % 3 == 0 { u64::MAX } else { 0x0101 };
            trace.push(MemoryAccess::write(addr, 8, value));
        } else {
            trace.push(MemoryAccess::read(addr, 8));
        }
    }
    trace
}

#[test]
fn disabled_tracing_replay_allocates_nothing() {
    assert!(
        !cnt_obs::is_enabled(),
        "test requires the default (disabled) sink state"
    );

    let config = CntCacheConfig::builder()
        .name("L1D")
        .size_bytes(8 * 1024)
        .line_bytes(64)
        .associativity(4)
        .policy(EncodingPolicy::adaptive_default())
        .build()
        .expect("valid geometry");
    let trace = hot_trace();

    let mut cache = CntCache::new(config).expect("valid config");
    // Warm-up replay through the same entry point under test.
    cnt_obs::replay(&mut cache, &trace).expect("well-formed trace");

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    cnt_obs::replay(&mut cache, &trace).expect("well-formed trace");
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "disabled-tracing replay of {} accesses must not allocate",
        trace.len()
    );
}
