//! Trace-driven set-associative cache simulator substrate for the CNT-Cache
//! reproduction.
//!
//! This crate is the *substrate* the CNT-Cache contribution sits on: a
//! functional, data-carrying cache model. Unlike a hit/miss-only simulator,
//! every line stores its actual words, because the whole point of
//! the paper is that dynamic energy depends on the *values* of the bits
//! moving through the SRAM array. The energy layer observes raw array
//! activity through the [`ArrayObserver`] trait without this crate knowing
//! anything about joules.
//!
//! # Architecture
//!
//! * [`Address`], [`CacheGeometry`] — address arithmetic and validated
//!   cache shapes,
//! * [`Cache`] storage — one tag array, valid and dirty flags and one data
//!   arena, indexed by [`LineLocation::slot`], plus one [`ReplacementState`]
//!   per set ([`replacement`]); [`CacheLine`] is one line's checkpoint record,
//! * [`Cache`] — a write-back, write-allocate cache over any [`Backing`]
//!   (main memory or a lower cache level),
//! * [`MainMemory`] — a sparse flat backing store,
//! * [`CacheHierarchy`] — split L1I/L1D over an optional unified L2,
//! * [`trace`] — the [`MemoryAccess`](trace::MemoryAccess) record format
//!   produced by the workload crate.
//!
//! # Example
//!
//! ```
//! use cnt_sim::{Address, Cache, CacheGeometry, MainMemory, ReplacementKind};
//!
//! let geometry = CacheGeometry::new(4096, 64, 4)?;
//! let mut cache = Cache::new("L1D", geometry, ReplacementKind::Lru);
//! let mut memory = MainMemory::new();
//!
//! cache.write(Address::new(0x1000), 8, 0xDEAD_BEEF, &mut memory, &mut ())?;
//! let value = cache.read(Address::new(0x1000), 8, &mut memory, &mut ())?;
//! assert_eq!(value, 0xDEAD_BEEF);
//! assert_eq!(cache.stats().write_misses, 1);
//! assert_eq!(cache.stats().read_hits, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod cache;
mod config;
mod hierarchy;
mod line;
mod memory;
pub mod replacement;
mod stats;
pub mod trace;

pub use addr::{Address, AddressParts};
pub use cache::{
    AccessError, AccessOutcome, ArrayObserver, Backing, Cache, CacheLevel, CacheSnapshot,
    PrefetchPolicy, WriteMode,
};
pub use config::{CacheGeometry, GeometryError};
pub use hierarchy::{CacheHierarchy, HierarchyConfig};
pub use line::{CacheLine, LineLocation};
pub use memory::{FillPattern, MainMemory, MemorySnapshot};
pub use replacement::{ReplacementKind, ReplacementState};
pub use stats::CacheStats;
