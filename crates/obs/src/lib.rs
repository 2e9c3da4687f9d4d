//! # cnt-obs — observability for CNT-Cache replays
//!
//! This crate adds a thin observability layer over the simulator:
//!
//! - [`Registry`] / [`Counter`] / [`Gauge`] — a lock-free-on-the-hot-path
//!   metrics registry ([`registry`] returns the process-wide instance);
//! - [`scope`] — deterministic replay identities (`fig9/i0003/r0000`)
//!   that are pure functions of program structure, so names match under
//!   sequential and parallel execution;
//! - [`Snapshot`] — epoch captures of per-level [`cnt_sim::CacheStats`],
//!   [`cnt_energy::EnergyBreakdown`], predictor/encoding counters, and
//!   deferred-update FIFO occupancy;
//! - [`sink`] — a global collector that orders interleaved snapshots by
//!   (experiment id, epoch) before they are rendered to JSON Lines;
//! - [`local`] — thread-local session sinks, so a multi-tenant replay
//!   server can keep per-session metrics streams isolated (and stream
//!   them live) while sharing one process.
//!
//! ## Cost model
//!
//! Tracing is opt-in per process. With no sink installed, [`replay`]
//! adds a single relaxed atomic load and then delegates to the exact
//! same loop an uninstrumented replay uses; the allocation-free hot
//! path guarantee is enforced by a counting-allocator test in this
//! crate and in `cnt-cache`. With a sink installed, snapshot capture
//! clones fixed-size accumulators once per epoch (never per access).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod local;
pub mod registry;
pub mod scope;
pub mod sink;
pub mod snapshot;

pub use local::{
    install_local, local_installed, local_pending, preload_local, LocalSinkGuard, OnRecord,
};
pub use registry::{Counter, Gauge, MetricValue, Registry};
pub use scope::{
    adopt, fork, next_replay_path, scoped, scoped_fanout, scoped_index, AdoptGuard, ScopeGuard,
    ScopeStack,
};
pub use sink::{
    drain, epoch_len, install, is_enabled, pending, preload, record, registry, to_jsonl,
};
pub use snapshot::{
    lane_emitters, replay, replay_hierarchy, replay_lanes, validate_jsonl, validate_sessions_jsonl,
    Capture, DeltaTracker, Emitter, FifoSnapshot, IngestSnapshot, JsonlSummary, LevelSnapshot,
    SessionsSummary, Snapshot,
};
