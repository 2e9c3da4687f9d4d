//! Proves the steady-state simulation hot path is allocation-free.
//!
//! A counting global allocator wraps the system allocator; the test warms
//! a `CntCache` up by replaying a trace once (filling memory chunks,
//! growing the update FIFO, installing every line), then replays the same
//! trace again and asserts the second replay performs **zero** heap
//! allocations. Every demand read/write, line fill, window decision, and
//! deferred re-encode therefore runs without touching the allocator —
//! both through `run` over records and through the columnar `run_batch`
//! that streamed replays and the benchmark drive.
//!
//! The wrapper forwards to `System` verbatim, so the accounting cannot
//! change allocation behaviour — only observe it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cnt_cache::{CntCache, CntCacheConfig, EncodingPolicy};
use cnt_sim::trace::{AccessBatch, MemoryAccess, Trace};
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

/// A deterministic mixed read/write trace over a footprint larger than
/// the cache, so the replay exercises hits, misses, fills, evictions,
/// write-backs, window decisions, and FIFO drains.
fn hot_trace() -> Trace {
    let mut trace = Trace::new();
    let mut state = 0x2E60_1234_5678_9ABCu64;
    for i in 0..60_000u64 {
        // xorshift64 keeps the trace allocation-free and reproducible.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let addr = Address::new((state % 4096) * 8);
        if state.is_multiple_of(4) {
            // Skewed payloads so the adaptive encoder actually switches.
            let value = if i % 3 == 0 { u64::MAX } else { 0x0101 };
            trace.push(MemoryAccess::write(addr, 8, value));
        } else {
            trace.push(MemoryAccess::read(addr, 8));
        }
    }
    trace
}

/// Warms a fresh cache up with one `replay`, then asserts a second one
/// allocates nothing.
fn assert_steady_state_allocates_nothing(
    what: &str,
    accesses: usize,
    mut replay: impl FnMut(&mut CntCache),
) {
    let config = CntCacheConfig::builder()
        .name("L1D")
        .size_bytes(8 * 1024)
        .line_bytes(64)
        .associativity(4)
        .policy(EncodingPolicy::adaptive_default())
        .build()
        .expect("valid geometry");
    let mut cache = CntCache::new(config).expect("valid config");
    // Warm-up replay: allocates backing-memory chunks, grows the FIFO to
    // its working capacity, and installs every line once.
    replay(&mut cache);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    replay(&mut cache);
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "steady-state {what} of {accesses} accesses must not allocate"
    );
}

// One test, so no other test's allocations land inside a measured window.
#[test]
fn steady_state_replay_allocates_nothing() {
    let trace = hot_trace();
    assert_steady_state_allocates_nothing("run", trace.len(), |cache| {
        cache.run(trace.iter()).expect("well-formed trace");
    });
    let batch = AccessBatch::from_trace(&trace);
    assert_steady_state_allocates_nothing("run_batch", batch.len(), |cache| {
        cache.run_batch(&batch).expect("well-formed batch");
    });
}
