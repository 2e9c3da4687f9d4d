//! A split-L1 / optional-unified-L2 cache hierarchy.
//!
//! The hierarchy is a convenience wrapper used by examples and miss-rate
//! studies. The CNT-Cache energy experiments meter individual caches
//! directly (see the `cnt-cache` crate), so hierarchy traffic here is not
//! observed for energy.

use std::borrow::Borrow;

use serde::{Deserialize, Serialize};

use crate::cache::{AccessError, Cache, CacheLevel};
use crate::config::CacheGeometry;
use crate::memory::MainMemory;
use crate::replacement::ReplacementKind;
use crate::stats::CacheStats;
use crate::trace::{AccessKind, MemoryAccess};

/// Geometry and policy for a [`CacheHierarchy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// L1 instruction-cache geometry.
    pub l1i: CacheGeometry,
    /// L1 data-cache geometry.
    pub l1d: CacheGeometry,
    /// Optional unified L2 geometry.
    pub l2: Option<CacheGeometry>,
    /// Replacement policy used at every level.
    pub replacement: ReplacementKind,
}

impl HierarchyConfig {
    /// A typical embedded configuration: 16 KiB L1I + 32 KiB L1D (both
    /// 64 B lines) over a 256 KiB 8-way L2, all LRU.
    ///
    /// # Panics
    ///
    /// Never panics; the constants are statically valid.
    pub fn typical() -> Self {
        HierarchyConfig {
            l1i: CacheGeometry::new(16 * 1024, 64, 4).expect("static geometry"),
            l1d: CacheGeometry::new(32 * 1024, 64, 8).expect("static geometry"),
            l2: Some(CacheGeometry::new(256 * 1024, 64, 8).expect("static geometry")),
            replacement: ReplacementKind::Lru,
        }
    }
}

/// Split L1I/L1D over an optional unified L2 over main memory.
///
/// # Example
///
/// ```
/// use cnt_sim::{CacheHierarchy, HierarchyConfig};
/// use cnt_sim::trace::MemoryAccess;
/// use cnt_sim::Address;
///
/// let mut h = CacheHierarchy::new(HierarchyConfig::typical());
/// h.access(&MemoryAccess::write(Address::new(0x1000), 8, 5))?;
/// let v = h.access(&MemoryAccess::read(Address::new(0x1000), 8))?;
/// assert_eq!(v, 5);
/// assert_eq!(h.l1d_stats().read_hits, 1);
/// # Ok::<(), cnt_sim::AccessError>(())
/// ```
#[derive(Debug)]
pub struct CacheHierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Option<Cache>,
    memory: MainMemory,
}

impl CacheHierarchy {
    /// Creates an empty hierarchy over zero-filled memory.
    ///
    /// # Panics
    ///
    /// Panics if the levels' line sizes differ (see
    /// [`with_memory`](Self::with_memory)).
    pub fn new(config: HierarchyConfig) -> Self {
        CacheHierarchy::with_memory(config, MainMemory::new())
    }

    /// Creates a hierarchy over pre-populated memory.
    ///
    /// # Panics
    ///
    /// Panics if the levels' line sizes differ: lines move between levels
    /// whole.
    pub fn with_memory(config: HierarchyConfig, memory: MainMemory) -> Self {
        let line = config.l1d.line_bytes();
        assert!(
            config.l1i.line_bytes() == line && config.l2.is_none_or(|g| g.line_bytes() == line),
            "hierarchy levels must share one line size"
        );
        CacheHierarchy {
            l1i: Cache::new("L1I", config.l1i, config.replacement),
            l1d: Cache::new("L1D", config.l1d, config.replacement),
            l2: config.l2.map(|g| Cache::new("L2", g, config.replacement)),
            memory,
        }
    }

    /// Performs one demand access, returning the loaded value (stores and
    /// instruction fetches return the value seen at the access site).
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] for malformed accesses.
    pub fn access(&mut self, access: &MemoryAccess) -> Result<u64, AccessError> {
        let (l1, is_write) = match access.kind {
            AccessKind::InstrFetch => (&mut self.l1i, false),
            AccessKind::Read => (&mut self.l1d, false),
            AccessKind::Write => (&mut self.l1d, true),
        };
        match &mut self.l2 {
            Some(l2) => {
                let mut level2 = CacheLevel {
                    cache: l2,
                    lower: &mut self.memory,
                    observer: &mut (),
                };
                if is_write {
                    l1.write(
                        access.addr,
                        access.width,
                        access.value,
                        &mut level2,
                        &mut (),
                    )?;
                    Ok(access.value)
                } else {
                    l1.read(access.addr, access.width, &mut level2, &mut ())
                }
            }
            None => {
                if is_write {
                    l1.write(
                        access.addr,
                        access.width,
                        access.value,
                        &mut self.memory,
                        &mut (),
                    )?;
                    Ok(access.value)
                } else {
                    l1.read(access.addr, access.width, &mut self.memory, &mut ())
                }
            }
        }
    }

    /// Runs a whole trace, returning the number of accesses performed.
    ///
    /// # Errors
    ///
    /// Stops at and returns the first [`AccessError`].
    pub fn run<I>(&mut self, trace: I) -> Result<usize, AccessError>
    where
        I: IntoIterator,
        I::Item: Borrow<MemoryAccess>,
    {
        let mut n = 0;
        for access in trace {
            self.access(access.borrow())?;
            n += 1;
        }
        Ok(n)
    }

    /// Writes all dirty lines at every level back to memory.
    pub fn flush_all(&mut self) {
        match &mut self.l2 {
            Some(l2) => {
                {
                    // Explicit reborrow so `l2` survives the scope.
                    let mut level2 = CacheLevel {
                        cache: &mut *l2,
                        lower: &mut self.memory,
                        observer: &mut (),
                    };
                    self.l1d.flush(&mut level2, &mut ());
                    self.l1i.flush(&mut level2, &mut ());
                }
                l2.flush(&mut self.memory, &mut ());
            }
            None => {
                self.l1d.flush(&mut self.memory, &mut ());
                self.l1i.flush(&mut self.memory, &mut ());
            }
        }
    }

    /// L1 instruction-cache statistics.
    pub fn l1i_stats(&self) -> &CacheStats {
        self.l1i.stats()
    }

    /// L1 data-cache statistics.
    pub fn l1d_stats(&self) -> &CacheStats {
        self.l1d.stats()
    }

    /// L2 statistics, if an L2 is configured.
    pub fn l2_stats(&self) -> Option<&CacheStats> {
        self.l2.as_ref().map(|c| c.stats())
    }

    /// Direct access to the backing memory (e.g. to verify results after
    /// [`flush_all`](Self::flush_all)).
    pub fn memory_mut(&mut self) -> &mut MainMemory {
        &mut self.memory
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Address;

    #[test]
    fn ifetch_routes_to_l1i() {
        let mut h = CacheHierarchy::new(HierarchyConfig::typical());
        h.access(&MemoryAccess::ifetch(Address::new(0x100)))
            .expect("ok");
        h.access(&MemoryAccess::ifetch(Address::new(0x100)))
            .expect("ok");
        assert_eq!(h.l1i_stats().accesses(), 2);
        assert_eq!(h.l1i_stats().read_hits, 1);
        assert_eq!(h.l1d_stats().accesses(), 0);
    }

    #[test]
    fn data_round_trip_through_two_levels() {
        let mut h = CacheHierarchy::new(HierarchyConfig::typical());
        h.access(&MemoryAccess::write(Address::new(0x2000), 8, 0xABC))
            .expect("ok");
        let v = h
            .access(&MemoryAccess::read(Address::new(0x2000), 8))
            .expect("ok");
        assert_eq!(v, 0xABC);
    }

    #[test]
    fn flush_propagates_to_memory() {
        let mut h = CacheHierarchy::new(HierarchyConfig::typical());
        h.access(&MemoryAccess::write(Address::new(0x3000), 8, 77))
            .expect("ok");
        h.flush_all();
        assert_eq!(h.memory_mut().load(Address::new(0x3000), 8), 77);
    }

    #[test]
    fn works_without_l2() {
        let mut config = HierarchyConfig::typical();
        config.l2 = None;
        let mut h = CacheHierarchy::new(config);
        h.access(&MemoryAccess::write(Address::new(0x40), 8, 5))
            .expect("ok");
        let v = h
            .access(&MemoryAccess::read(Address::new(0x40), 8))
            .expect("ok");
        assert_eq!(v, 5);
        assert!(h.l2_stats().is_none());
        h.flush_all();
        assert_eq!(h.memory_mut().load(Address::new(0x40), 8), 5);
    }

    #[test]
    #[should_panic(expected = "one line size")]
    fn mismatched_line_sizes_are_rejected_at_construction() {
        let mut config = HierarchyConfig::typical();
        config.l1d = CacheGeometry::new(32 * 1024, 32, 8).expect("valid geometry");
        CacheHierarchy::new(config);
    }

    #[test]
    fn run_executes_whole_trace() {
        let mut h = CacheHierarchy::new(HierarchyConfig::typical());
        let trace = [
            MemoryAccess::write(Address::new(0x0), 8, 1),
            MemoryAccess::read(Address::new(0x0), 8),
            MemoryAccess::ifetch(Address::new(0x1000)),
        ];
        let n = h.run(trace.iter()).expect("ok");
        assert_eq!(n, 3);
        assert_eq!(h.l1d_stats().accesses(), 2);
        assert_eq!(h.l1i_stats().accesses(), 1);
    }
}
