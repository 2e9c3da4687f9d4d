//! # CNT-Cache
//!
//! A reproduction of *"CNT-Cache: an Energy-Efficient Carbon Nanotube Cache
//! with Adaptive Encoding"* (DATE 2020) as a production-quality Rust
//! library.
//!
//! CNFET SRAM cells have strongly asymmetric access energies — writing a
//! `1` costs ≈10× writing a `0`, and reading a `0` costs far more than
//! reading a `1`. CNT-Cache exploits this by storing each cache line (or
//! each *partition* of a line) either as-is or inverted, predicting the
//! best encoding from a window of the line's recent accesses and deferring
//! re-encoding writes through a FIFO so the demand path never stalls.
//!
//! The workspace layers:
//!
//! | crate | role |
//! |-------|------|
//! | [`cnt_energy`] | per-bit CNFET/CMOS energy models and accounting |
//! | [`cnt_sim`] | data-carrying set-associative cache simulator |
//! | [`cnt_encoding`] | codec, predictor, thresholds, FIFOs (the paper's Section III) |
//! | `cnt-cache` (this crate) | [`CntCache`]: the integrated, metered cache |
//! | `cnt-workloads` | benchmark kernels and synthetic trace generators |
//! | `cnt-bench` | the experiment harness regenerating every table/figure |
//!
//! # Quickstart
//!
//! ```
//! use cnt_cache::{CntCache, CntCacheConfig, EncodingPolicy};
//! use cnt_sim::Address;
//!
//! // The paper's D-Cache: 32 KiB, 64 B lines, 8-way — once as the plain
//! // CNFET baseline, once with adaptive encoding.
//! let baseline_cfg = CntCacheConfig::builder().name("baseline").build()?;
//! let cnt_cfg = CntCacheConfig::builder()
//!     .name("CNT-Cache")
//!     .policy(EncodingPolicy::adaptive_default())
//!     .build()?;
//!
//! let mut baseline = CntCache::new(baseline_cfg)?;
//! let mut cnt = CntCache::new(cnt_cfg)?;
//!
//! // A read-heavy loop over sparse (mostly-zero) data.
//! for round in 0..32 {
//!     for line in 0..16u64 {
//!         let addr = Address::new(line * 64);
//!         if round == 0 {
//!             baseline.write(addr, 8, 1)?;
//!             cnt.write(addr, 8, 1)?;
//!         } else {
//!             baseline.read(addr, 8)?;
//!             cnt.read(addr, 8)?;
//!         }
//!     }
//! }
//!
//! let saving = cnt.report().saving_vs(&baseline.report());
//! assert!(saving > 0.0, "CNT-Cache saves dynamic energy: {saving:.1}%");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cnt;
mod config;
mod group;
mod hierarchy;
mod policy;
mod replay;
mod report;

pub use cnt::{AuditError, CntCache, EncodingLane, PendingUpdate, ScrubReport};
pub use config::{CntCacheConfig, CntCacheConfigBuilder, ConfigError};
pub use group::LaneGroup;
pub use hierarchy::{CntHierarchy, CntHierarchyConfig};
pub use policy::{AdaptiveParams, EncodingPolicy, MetadataFaultPolicy};
pub use replay::{EpochClock, EpochHook};
pub use report::{ComparisonRow, EncodingCounters, EnergyReport, ReliabilityCounters, TimingModel};

/// Convenience re-exports of the most commonly used substrate types.
pub mod prelude {
    pub use crate::{
        AdaptiveParams, CntCache, CntCacheConfig, ComparisonRow, EncodingPolicy, EnergyReport,
        MetadataFaultPolicy,
    };
    pub use cnt_encoding::{BitPreference, OverflowPolicy, ProtectionMode};
    pub use cnt_energy::{ChargeKind, Energy, SramEnergyModel};
    pub use cnt_sim::trace::{AccessBatch, AccessKind, MemoryAccess};
    pub use cnt_sim::{Address, CacheGeometry, FillPattern, ReplacementKind};
}
