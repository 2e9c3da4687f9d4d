//! Proves the steady-state simulation hot path is allocation-free.
//!
//! A counting global allocator wraps the system allocator; the test warms
//! a `CntCache` up by replaying a trace once (filling memory chunks,
//! growing the update FIFO, installing every line), then replays the same
//! trace again and asserts the second replay performs **zero** heap
//! allocations. Every demand read/write, line fill, window decision, and
//! deferred re-encode therefore runs without touching the allocator —
//! both through `run` over records and through the columnar `run_batch`
//! that streamed replays and the benchmark drive, and through a
//! three-lane `LaneGroup` that fans one simulation out to several
//! encoders. Every replacement policy's hit, fill and victim steps are
//! covered.
//!
//! The wrapper forwards to `System` verbatim, so the accounting cannot
//! change allocation behaviour — only observe it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cnt_cache::{CntCache, CntCacheConfig, EncodingPolicy, EpochClock, LaneGroup};
use cnt_encoding::ProtectionMode;
use cnt_sim::trace::{AccessBatch, MemoryAccess};
use cnt_sim::{Address, ReplacementKind};

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
fn hot_trace() -> AccessBatch {
    let mut trace = AccessBatch::new();
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

fn config(policy: EncodingPolicy, protection: ProtectionMode) -> CntCacheConfig {
    CntCacheConfig::builder()
        .name("L1D")
        .size_bytes(8 * 1024)
        .line_bytes(64)
        .associativity(4)
        .policy(policy)
        .protection(protection)
        .build()
        .expect("valid geometry")
}

/// Warms `sim` up with one `replay`, then asserts a second one allocates
/// nothing.
fn assert_steady_state_allocates_nothing<S>(
    what: &str,
    mut sim: S,
    mut replay: impl FnMut(&mut S),
) {
    // Warm-up replay: allocates backing-memory chunks, grows the FIFO to
    // its working capacity, and installs every line once.
    replay(&mut sim);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    replay(&mut sim);
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(after - before, 0, "steady-state {what} must not allocate");
}

// One test, so no other test's allocations land inside a measured window.
#[test]
fn steady_state_replay_allocates_nothing() {
    let trace = hot_trace();
    let adaptive = || {
        CntCache::new(config(
            EncodingPolicy::adaptive_default(),
            ProtectionMode::None,
        ))
        .expect("valid config")
    };
    for kind in [
        ReplacementKind::Fifo,
        ReplacementKind::Random { seed: 3 },
        ReplacementKind::TreePlru,
        ReplacementKind::Srrip,
    ] {
        let mut config = config(EncodingPolicy::adaptive_default(), ProtectionMode::None);
        config.replacement = kind;
        let cache = CntCache::new(config).expect("valid config");
        assert_steady_state_allocates_nothing(&format!("{kind} run"), cache, |cache| {
            cache.run(trace.iter()).expect("well-formed trace");
        });
    }
    assert_steady_state_allocates_nothing("run", adaptive(), |cache| {
        cache.run(trace.iter()).expect("well-formed trace");
    });
    assert_steady_state_allocates_nothing("run_batch", adaptive(), |cache| {
        cache.run_batch(&trace).expect("well-formed batch");
    });
    // Three lanes over one simulation: the fan-out allocates nothing
    // either.
    let group = LaneGroup::new(vec![
        config(EncodingPolicy::None, ProtectionMode::None),
        config(EncodingPolicy::ZeroFlag, ProtectionMode::None),
        config(EncodingPolicy::adaptive_default(), ProtectionMode::Secded),
    ])
    .expect("valid configs");
    assert_steady_state_allocates_nothing("3-lane group run", group, |group| {
        group
            .run_observed(trace.iter(), &mut EpochClock::default(), None)
            .expect("well-formed trace");
    });
}
