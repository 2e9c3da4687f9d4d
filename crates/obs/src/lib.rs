//! # cnt-obs — observability for CNT-Cache replays
//!
//! This crate adds a thin observability layer over the simulator:
//!
//! - [`sink`] — one scoped [`Sink`] per run, installed on the driver's
//!   thread by [`install_local`] and carried to pool workers with the
//!   scope path. It owns the run's [`Registry`] of counters and gauges,
//!   buffers epoch snapshots, and can stream each one as it is recorded,
//!   so concurrent sessions of a replay server stay isolated;
//! - [`scope`] — deterministic replay identities (`fig9/i0003/r0000`)
//!   that are pure functions of program structure, so names match under
//!   sequential and parallel execution;
//! - [`Snapshot`] — epoch captures of per-level [`cnt_sim::CacheStats`],
//!   [`cnt_energy::EnergyBreakdown`], predictor/encoding counters, and
//!   deferred-update FIFO occupancy, sorted by (experiment id, epoch)
//!   before they are rendered to JSON Lines.
//!
//! ## Cost model
//!
//! Tracing is opt-in per thread. With no sink installed, [`replay`] pays
//! one thread-local read and then delegates to the exact same loop an
//! uninstrumented replay uses; the allocation-free hot path guarantee is
//! enforced by a counting-allocator test in this crate and in
//! `cnt-cache`. With a sink installed, snapshot capture clones
//! fixed-size accumulators once per epoch (never per access) and takes
//! one lock to buffer the snapshot.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod registry;
pub mod scope;
pub mod sink;
pub mod snapshot;

pub use registry::{Counter, Gauge, MetricValue, Registry};
pub use scope::{
    adopt, fork, next_replay_path, scoped, scoped_fanout, scoped_index, AdoptGuard, ScopeGuard,
    ScopeStack,
};
pub use sink::{
    count, epoch_len, install_local, installed, is_enabled, to_jsonl, OnRecord, Sink, SinkGuard,
};
pub use snapshot::{
    lane_emitters, replay, replay_hierarchy, replay_lanes, validate_jsonl, validate_sessions_jsonl,
    Capture, DeltaTracker, Emitter, FifoSnapshot, IngestSnapshot, JsonlSummary, LevelSnapshot,
    SessionsSummary, Snapshot,
};
