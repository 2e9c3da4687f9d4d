//! Epoch-boundary behaviour of the snapshot emitter.
//!
//! Each test installs its own sink on its own thread (`install_local`),
//! so the tests are independent and can run in parallel. The
//! parallel-vs-sequential determinism of a sink shared with pool workers
//! is covered by `crates/bench/tests/metrics_determinism.rs`.

use cnt_cache::{CntCache, CntCacheConfig, CntHierarchy, CntHierarchyConfig, EncodingPolicy};
use cnt_obs::{install_local, validate_jsonl, Snapshot};
use cnt_sim::trace::{AccessBatch, MemoryAccess};
use cnt_sim::Address;

fn small_cache() -> CntCache {
    let config = CntCacheConfig::builder()
        .name("L1D")
        .size_bytes(4 * 1024)
        .line_bytes(64)
        .associativity(2)
        .policy(EncodingPolicy::adaptive_default())
        .build()
        .expect("valid geometry");
    CntCache::new(config).expect("valid config")
}

fn trace_of(n: u64) -> AccessBatch {
    let mut trace = AccessBatch::new();
    for i in 0..n {
        let addr = Address::new((i % 512) * 8);
        if i % 4 == 0 {
            trace.push(MemoryAccess::write(addr, 8, i.wrapping_mul(0x9E37)));
        } else {
            trace.push(MemoryAccess::read(addr, 8));
        }
    }
    trace
}

fn snapshots_for(accesses: u64, every: u64) -> Vec<Snapshot> {
    let mut cache = small_cache();
    let trace = trace_of(accesses);
    let guard = install_local(every, None);
    let replayed = cnt_obs::replay(&mut cache, &trace).expect("replay succeeds");
    assert_eq!(replayed as u64, accesses);
    guard.finish()
}

/// The same replay through a three-level hierarchy.
fn hierarchy_snapshots_for(accesses: u64, every: u64) -> Vec<Snapshot> {
    let config = CntHierarchyConfig::typical(
        EncodingPolicy::None,
        EncodingPolicy::adaptive_default(),
        EncodingPolicy::None,
    )
    .expect("valid hierarchy");
    let mut hierarchy = CntHierarchy::new(config).expect("valid config");
    let trace = trace_of(accesses);
    let guard = install_local(every, None);
    let replayed = cnt_obs::replay_hierarchy(&mut hierarchy, &trace).expect("replay succeeds");
    assert_eq!(replayed as u64, accesses);
    guard.finish()
}

/// Every input the epoch rule must hold for, with its level count.
fn each_input(accesses: u64, every: u64) -> [(Vec<Snapshot>, usize); 2] {
    [
        (snapshots_for(accesses, every), 1),
        (hierarchy_snapshots_for(accesses, every), 3),
    ]
}

#[test]
fn exact_multiple_emits_one_snapshot_per_epoch() {
    for (snapshots, _) in each_input(100, 25) {
        assert_eq!(snapshots.len(), 4, "100 accesses / 25 per epoch");
        let seen: Vec<(u64, u64)> = snapshots.iter().map(|s| (s.epoch, s.accesses)).collect();
        assert_eq!(seen, vec![(0, 25), (1, 50), (2, 75), (3, 100)]);
    }
}

#[test]
fn trailing_partial_epoch_is_captured() {
    for (snapshots, _) in each_input(105, 25) {
        assert_eq!(snapshots.len(), 5, "four full epochs plus the remainder");
        let last = snapshots.last().expect("non-empty");
        assert_eq!((last.epoch, last.accesses), (4, 105));
    }
}

#[test]
fn zero_access_replay_still_emits_one_snapshot() {
    for (snapshots, levels) in each_input(0, 25) {
        assert_eq!(snapshots.len(), 1);
        let only = &snapshots[0];
        assert_eq!((only.epoch, only.accesses), (0, 0));
        assert_eq!(only.levels.len(), levels);
        assert!(only.levels.iter().all(|l| l.stats.accesses() == 0));
        // An all-zero snapshot must serialize: no rate may be NaN. The
        // optional ingest block is legitimately `null` for in-memory
        // replays, so mask it before scanning for NaN-induced nulls.
        let json = serde_json::to_string(only).expect("all-zero snapshot serializes");
        let json = json.replace("\"ingest\":null", "\"ingest\":{}");
        assert!(!json.contains("null"), "no non-finite floats: {json}");
    }
}

#[test]
fn energy_deltas_sum_back_to_cumulative() {
    let snapshots = snapshots_for(105, 25);
    let mut rebuilt = cnt_energy::EnergyBreakdown::default();
    for snapshot in &snapshots {
        rebuilt += snapshot.levels[0].energy_delta.clone();
    }
    let last = &snapshots.last().expect("non-empty").levels[0].energy;
    let (rebuilt_fj, last_fj) = (rebuilt.total().femtojoules(), last.total().femtojoules());
    assert!(
        (rebuilt_fj - last_fj).abs() < 1e-6,
        "sum of per-epoch deltas ({rebuilt_fj}) must equal the cumulative total ({last_fj})"
    );
    // Every delta is non-negative energy and no larger than its epoch's
    // cumulative value.
    for snapshot in &snapshots {
        let level = &snapshot.levels[0];
        let delta_fj = level.energy_delta.total().femtojoules();
        assert!(delta_fj >= 0.0);
        assert!(delta_fj <= level.energy.total().femtojoules() + 1e-9);
    }
}

#[test]
fn snapshot_counters_are_cumulative_and_consistent() {
    let snapshots = snapshots_for(100, 25);
    for window in snapshots.windows(2) {
        let (prev, next) = (&window[0], &window[1]);
        assert!(next.levels[0].stats.accesses() > prev.levels[0].stats.accesses());
        assert!(next.levels[0].energy.total() >= prev.levels[0].energy.total());
    }
    let last = snapshots.last().expect("non-empty");
    assert_eq!(last.levels[0].stats.accesses(), 100);
    let fifo = &last.levels[0].fifo;
    assert_eq!(
        fifo.stats.in_queue(),
        fifo.len,
        "FIFO counters must reconcile with live occupancy"
    );
}

#[test]
fn emitted_stream_passes_jsonl_validation() {
    let snapshots = snapshots_for(105, 25);
    let jsonl = cnt_obs::to_jsonl(&snapshots).expect("serializes");
    let summary = validate_jsonl(&jsonl).expect("valid stream");
    assert_eq!(summary.snapshots, 5);
    assert_eq!(summary.experiments, 1);
}
