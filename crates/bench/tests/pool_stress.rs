//! Stress tests for the global pool budget and the scheduler.
//!
//! These tests assert on [`pool::available_budget`], a process-global
//! counter, so they must not overlap with each other (or any other
//! `par_map` in this binary): every test serialises on [`lock`]. The
//! library's unit tests run in a separate binary, so they cannot
//! interfere.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use cnt_bench::pool;
use cnt_bench::stream::replay_stream;
use cnt_cache::{CntCache, EncodingPolicy};
use cnt_sim::trace::{AccessBatch, MemoryAccess};
use cnt_sim::Address;
use cnt_trace::{pack_accesses, CorruptionPolicy, ReadOptions, StreamReader};

static SERIAL: Mutex<()> = Mutex::new(());

/// Serialises the tests in this file and restores the default pool
/// configuration afterwards (via [`Restore`]).
fn lock() -> (MutexGuard<'static, ()>, Restore) {
    let guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    (guard, Restore)
}

struct Restore;

impl Drop for Restore {
    fn drop(&mut self) {
        pool::set_jobs(pool::default_jobs());
    }
}

#[test]
fn budget_is_restored_after_worker_panic() {
    let (_guard, _restore) = lock();
    pool::set_jobs(4);
    assert_eq!(pool::available_budget(), 3, "fresh budget");
    let items: Vec<usize> = (0..64).collect();
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool::par_map(&items, |&i| {
            if i == 17 {
                panic!("injected failure");
            }
            i * 2
        })
    }));
    let panic = result.expect_err("the injected panic must propagate");
    let message = panic
        .downcast_ref::<&str>()
        .copied()
        .map(String::from)
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(message.contains("injected failure"), "{message}");
    assert_eq!(
        pool::available_budget(),
        3,
        "no leaked reservations after a panic"
    );
}

#[test]
fn nested_fanout_under_exhausted_budget_completes() {
    let (_guard, _restore) = lock();
    // Budget of exactly one extra thread: the outer fan-out takes it, so
    // inner fan-outs start with nothing and must make progress on their
    // calling thread alone.
    pool::set_jobs(2);
    let concurrent = AtomicUsize::new(0);
    let peak = AtomicUsize::new(0);
    let outer: Vec<usize> = (0..4).collect();
    let sums = pool::par_map(&outer, |&o| {
        let inner: Vec<usize> = (0..32).collect();
        let inner_sum: usize = pool::par_map(&inner, |&i| {
            let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            concurrent.fetch_sub(1, Ordering::SeqCst);
            o * 1000 + i
        })
        .iter()
        .sum();
        inner_sum
    });
    let expect: Vec<usize> = (0..4)
        .map(|o| (0..32).map(|i| o * 1000 + i).sum())
        .collect();
    assert_eq!(sums, expect, "nested results intact");
    assert!(
        peak.load(Ordering::SeqCst) <= 2,
        "at most --jobs threads ever ran"
    );
    assert_eq!(pool::available_budget(), 1, "budget restored after nesting");
}

/// The property the scheduler exists for: element 0 runs on the caller
/// and element 1 on the one worker, which finishes at once, so the
/// worker must hand its budget slot back and element 0's nested fan-out
/// — which starts while that slot is still held — must recruit it.
/// Without incremental release or without recruitment the inner items
/// all run on one thread.
#[test]
fn straggler_nested_fanout_recruits_released_slots() {
    let (_guard, _restore) = lock();
    pool::set_jobs(2);
    let threads = Mutex::new(HashSet::new());
    let outer = [0usize, 1];
    let totals = pool::par_map(&outer, |&o| {
        if o == 1 {
            return 1;
        }
        let inner: Vec<usize> = (0..32).collect();
        pool::par_map(&inner, |&i| {
            std::thread::sleep(Duration::from_millis(2));
            threads.lock().unwrap().insert(std::thread::current().id());
            i
        })
        .iter()
        .sum::<usize>()
    });
    assert_eq!(totals, vec![(0..32).sum(), 1]);
    assert_eq!(
        threads.lock().unwrap().len(),
        2,
        "the straggler's inner fan-out ran on both --jobs threads"
    );
    assert_eq!(pool::available_budget(), 1, "budget restored");
}

#[test]
fn deep_uneven_nesting_terminates_with_correct_results() {
    let (_guard, _restore) = lock();
    pool::set_jobs(8);
    // Skew: element 0 fans out again (the straggler shape the scheduler
    // exists for); recruitment and incremental release must neither
    // deadlock nor drop results.
    let outer: Vec<usize> = (0..16).collect();
    let totals = pool::par_map(&outer, |&o| {
        if o == 0 {
            let inner: Vec<usize> = (0..64).collect();
            pool::par_map(&inner, |&i| {
                std::thread::sleep(Duration::from_micros(200));
                i
            })
            .iter()
            .sum::<usize>()
        } else {
            o
        }
    });
    let mut expect: Vec<usize> = (1..16).collect();
    expect.insert(0, (0..64).sum());
    assert_eq!(totals, expect);
    assert_eq!(pool::available_budget(), 7, "budget restored");
}

fn sample_trace(n: u64) -> AccessBatch {
    (0..n)
        .map(|i| {
            let addr = Address::new(0x8000 + (i % 512) * 8);
            if i % 7 == 0 {
                MemoryAccess::write(addr, 8, i.wrapping_mul(0x0F0F_F0F0_1234_5678))
            } else {
                MemoryAccess::read(addr, 8)
            }
        })
        .collect()
}

/// The satellite acceptance sweep: the streamed-replay path must be
/// byte-identical across `--jobs {1, 2, 4, 8}` — same energy report,
/// same ingest counters, same access totals.
#[test]
fn jobs_sweep_is_identical_on_streamed_replay() {
    let (_guard, _restore) = lock();
    let trace = sample_trace(4_000);
    let mut bytes = Vec::new();
    pack_accesses(&trace, &mut bytes, 64).expect("packs");

    let replay = |jobs: usize| {
        pool::set_jobs(jobs);
        let mut reader = StreamReader::new(
            &bytes[..],
            ReadOptions {
                budget_bytes: 2 * 1024, // forces many prefetch windows
                corruption: CorruptionPolicy::FailFast,
            },
        )
        .expect("opens");
        let mut cache = CntCache::new(cnt_bench::runner::dcache_config(
            "L1D",
            EncodingPolicy::adaptive_default(),
        ))
        .expect("valid");
        let outcome = replay_stream(&mut cache, &mut reader).expect("streams");
        cache.flush();
        (outcome, cache.into_report())
    };

    let baseline = replay(1);
    for jobs in [2usize, 4, 8] {
        assert_eq!(
            replay(jobs),
            baseline,
            "streamed replay diverged at --jobs {jobs}"
        );
    }
}
