//! A fully-metered multi-level CNT-Cache hierarchy.
//!
//! Split L1I/L1D over an optional unified L2, where **every level** is a
//! [`CntCache`] with its own encoding policy and energy meter. This is
//! the substrate for the "where should the encoding go?" study
//! (experiment `fig15`): the paper applies adaptive encoding to the
//! D-Cache; here any subset of levels can be encoded and compared.

use std::borrow::Borrow;

use cnt_sim::trace::{AccessKind, MemoryAccess};
use cnt_sim::{AccessError, Address, Backing, MainMemory, MemorySnapshot};
use cnt_trace::{CheckpointError, Checkpointable};
use serde::{Deserialize, Serialize};

use crate::cnt::{bad_state, CacheCheckpoint, CntCache};
use crate::config::{CntCacheConfig, ConfigError};
use crate::replay::{drive, EpochClock, EpochHook};
use crate::report::EnergyReport;

/// Configuration of a [`CntHierarchy`]: one [`CntCacheConfig`] per level.
#[derive(Debug, Clone, PartialEq)]
pub struct CntHierarchyConfig {
    /// L1 instruction cache.
    pub l1i: CntCacheConfig,
    /// L1 data cache.
    pub l1d: CntCacheConfig,
    /// Optional unified L2.
    pub l2: Option<CntCacheConfig>,
}

impl CntHierarchyConfig {
    /// A typical shape — 16 KiB 4-way L1I, 32 KiB 8-way L1D, 256 KiB
    /// 8-way L2 — with the given per-level encoding policies.
    ///
    /// # Errors
    ///
    /// Never fails for the built-in geometries; the `Result` mirrors the
    /// builder API.
    pub fn typical(
        l1i_policy: crate::EncodingPolicy,
        l1d_policy: crate::EncodingPolicy,
        l2_policy: crate::EncodingPolicy,
    ) -> Result<Self, ConfigError> {
        Ok(CntHierarchyConfig {
            l1i: CntCacheConfig::builder()
                .name("L1I")
                .size_bytes(16 * 1024)
                .associativity(4)
                .policy(l1i_policy)
                .build()?,
            l1d: CntCacheConfig::builder()
                .name("L1D")
                .size_bytes(32 * 1024)
                .associativity(8)
                .policy(l1d_policy)
                .build()?,
            l2: Some(
                CntCacheConfig::builder()
                    .name("L2")
                    .size_bytes(256 * 1024)
                    .associativity(8)
                    .policy(l2_policy)
                    .build()?,
            ),
        })
    }
}

/// Adapts an encoded [`CntCache`] plus its backing into a [`Backing`] for
/// an upper level, so line transfers between levels are metered and
/// encoded at the lower level too.
struct CntLevel<'a> {
    cache: &'a mut CntCache,
    lower: &'a mut dyn Backing,
}

impl Backing for CntLevel<'_> {
    fn load_line(&mut self, base: Address, buf: &mut [u64]) {
        self.cache.load_line_through(base, buf, self.lower);
    }

    fn store_line(&mut self, base: Address, data: &[u64]) {
        self.cache.store_line_through(base, data, self.lower);
    }

    fn store_word(&mut self, addr: Address, value: u64) {
        self.cache
            .access_through(&MemoryAccess::write(addr, 8, value), self.lower)
            .expect("aligned word store through a CNT level cannot fail");
    }
}

/// Split L1I/L1D over an optional unified L2, all CNT-Caches.
///
/// # Example
///
/// ```
/// use cnt_cache::{CntHierarchy, CntHierarchyConfig, EncodingPolicy};
/// use cnt_sim::trace::MemoryAccess;
/// use cnt_sim::Address;
///
/// let config = CntHierarchyConfig::typical(
///     EncodingPolicy::None,
///     EncodingPolicy::adaptive_default(),
///     EncodingPolicy::None,
/// )?;
/// let mut h = CntHierarchy::new(config)?;
/// h.access(&MemoryAccess::write(Address::new(0x1000), 8, 5))?;
/// assert_eq!(h.access(&MemoryAccess::read(Address::new(0x1000), 8))?, 5);
/// assert!(h.total_energy().femtojoules() > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct CntHierarchy {
    l1i: CntCache,
    l1d: CntCache,
    l2: Option<CntCache>,
    memory: MainMemory,
}

impl CntHierarchy {
    /// Builds the hierarchy over fresh zero-filled memory.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any level's configuration is invalid, or
    /// [`ConfigError::LineSizeMismatch`] if a level's line size differs
    /// from the L1D's: lines move between levels whole.
    pub fn new(config: CntHierarchyConfig) -> Result<Self, ConfigError> {
        let expected = config.l1d.geometry.line_bytes();
        for level in std::iter::once(&config.l1i).chain(&config.l2) {
            let line_bytes = level.geometry.line_bytes();
            if line_bytes != expected {
                return Err(ConfigError::LineSizeMismatch {
                    level: level.name.clone(),
                    line_bytes,
                    expected,
                });
            }
        }
        Ok(CntHierarchy {
            l1i: CntCache::new(config.l1i)?,
            l1d: CntCache::new(config.l1d)?,
            l2: config.l2.map(CntCache::new).transpose()?,
            memory: MainMemory::new(),
        })
    }

    /// Performs one demand access, returning the loaded value (stores
    /// return the stored value).
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] for malformed accesses.
    pub fn access(&mut self, access: &MemoryAccess) -> Result<u64, AccessError> {
        let l1 = match access.kind {
            AccessKind::InstrFetch => &mut self.l1i,
            AccessKind::Read | AccessKind::Write => &mut self.l1d,
        };
        let outcome = match &mut self.l2 {
            Some(l2) => {
                let mut backing = CntLevel {
                    cache: l2,
                    lower: &mut self.memory,
                };
                l1.access_through(access, &mut backing)?
            }
            None => l1.access_through(access, &mut self.memory)?,
        };
        Ok(outcome.value)
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
        self.run_observed(trace, &mut EpochClock::default(), None)
    }

    /// Runs a whole trace like [`run`](Self::run) with an epoch hook —
    /// the hierarchy counterpart of [`CntCache::run_observed`].
    ///
    /// # Errors
    ///
    /// Stops at and returns the first [`AccessError`].
    pub fn run_observed<I>(
        &mut self,
        trace: I,
        clock: &mut EpochClock,
        epoch_hook: Option<EpochHook<'_, Self>>,
    ) -> Result<usize, AccessError>
    where
        I: IntoIterator,
        I::Item: Borrow<MemoryAccess>,
    {
        drive(
            self,
            trace,
            |h, access| h.access(access.borrow()).map(drop),
            clock,
            epoch_hook,
        )
    }

    /// Flushes every level (L1s through the L2, then the L2 to memory).
    pub fn flush_all(&mut self) {
        match &mut self.l2 {
            Some(l2) => {
                {
                    let mut backing = CntLevel {
                        cache: &mut *l2,
                        lower: &mut self.memory,
                    };
                    self.l1d.flush_through(&mut backing);
                    self.l1i.flush_through(&mut backing);
                }
                l2.flush_through(&mut self.memory);
            }
            None => {
                self.l1d.flush_through(&mut self.memory);
                self.l1i.flush_through(&mut self.memory);
            }
        }
    }

    /// The L1 instruction cache.
    pub fn l1i(&self) -> &CntCache {
        &self.l1i
    }

    /// The L1 data cache.
    pub fn l1d(&self) -> &CntCache {
        &self.l1d
    }

    /// The unified L2, if configured.
    pub fn l2(&self) -> Option<&CntCache> {
        self.l2.as_ref()
    }

    /// Per-level reports, in `[L1I, L1D, L2?]` order.
    pub fn reports(&self) -> Vec<EnergyReport> {
        let mut reports = vec![self.l1i.report(), self.l1d.report()];
        if let Some(l2) = &self.l2 {
            reports.push(l2.report());
        }
        reports
    }

    /// Total dynamic energy across all levels.
    pub fn total_energy(&self) -> cnt_energy::Energy {
        let mut total = self.l1i.total_energy() + self.l1d.total_energy();
        if let Some(l2) = &self.l2 {
            total += l2.total_energy();
        }
        total
    }

    /// The backing memory (e.g. to verify results after
    /// [`flush_all`](Self::flush_all)).
    pub fn memory_mut(&mut self) -> &mut MainMemory {
        &mut self.memory
    }
}

/// The complete resumable state of a [`CntHierarchy`]: one
/// [`CacheCheckpoint`] per level plus the shared backing memory.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct HierarchyCheckpoint {
    l1i: CacheCheckpoint,
    l1d: CacheCheckpoint,
    l2: Option<CacheCheckpoint>,
    memory: MemorySnapshot,
}

impl Checkpointable for CntHierarchy {
    fn section_name(&self) -> &'static str {
        "hierarchy"
    }

    fn encode_state(&self) -> Result<Vec<u8>, CheckpointError> {
        let ckpt = HierarchyCheckpoint {
            l1i: self.l1i.checkpoint_data(),
            l1d: self.l1d.checkpoint_data(),
            l2: self.l2.as_ref().map(CntCache::checkpoint_data),
            memory: self.memory.snapshot(),
        };
        serde_json::to_string(&ckpt)
            .map(String::into_bytes)
            .map_err(|e| bad_state("hierarchy", format!("serialize: {e}")))
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| bad_state("hierarchy", "payload is not UTF-8"))?;
        let ckpt: HierarchyCheckpoint = serde_json::from_str(text)
            .map_err(|e| bad_state("hierarchy", format!("decode: {e}")))?;
        if ckpt.l2.is_some() != self.l2.is_some() {
            return Err(bad_state(
                "hierarchy",
                "checkpoint and configuration disagree on the presence of an L2",
            ));
        }
        // Restore into fresh levels on the side so a failure at any point
        // leaves the live hierarchy exactly as it was.
        let restore_level = |live: &CntCache, data| -> Result<CntCache, CheckpointError> {
            let mut level = CntCache::new(live.config().clone())
                .map_err(|e| bad_state("hierarchy", format!("rebuild level: {e}")))?;
            level
                .restore_from(data)
                .map_err(|what| bad_state("hierarchy", what))?;
            Ok(level)
        };
        let l1i = restore_level(&self.l1i, ckpt.l1i)?;
        let l1d = restore_level(&self.l1d, ckpt.l1d)?;
        let l2 = match (&self.l2, ckpt.l2) {
            (Some(live), Some(data)) => Some(restore_level(live, data)?),
            _ => None,
        };
        let memory =
            MainMemory::from_snapshot(ckpt.memory).map_err(|what| bad_state("hierarchy", what))?;
        self.l1i = l1i;
        self.l1d = l1d;
        self.l2 = l2;
        self.memory = memory;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EncodingPolicy;

    fn small_config(l1d_policy: EncodingPolicy, l2_policy: EncodingPolicy) -> CntHierarchyConfig {
        CntHierarchyConfig {
            l1i: CntCacheConfig::builder()
                .name("L1I")
                .size_bytes(1024)
                .associativity(2)
                .build()
                .expect("valid"),
            l1d: CntCacheConfig::builder()
                .name("L1D")
                .size_bytes(2048)
                .associativity(2)
                .policy(l1d_policy)
                .build()
                .expect("valid"),
            l2: Some(
                CntCacheConfig::builder()
                    .name("L2")
                    .size_bytes(8192)
                    .associativity(4)
                    .policy(l2_policy)
                    .build()
                    .expect("valid"),
            ),
        }
    }

    #[test]
    fn mismatched_line_sizes_are_a_config_error() {
        let mut config = CntHierarchyConfig::typical(
            EncodingPolicy::None,
            EncodingPolicy::adaptive_default(),
            EncodingPolicy::None,
        )
        .expect("valid");
        config.l1d = CntCacheConfig::builder()
            .name("L1D")
            .size_bytes(32 * 1024)
            .line_bytes(32)
            .build()
            .expect("valid");
        let err = CntHierarchy::new(config).expect_err("line sizes differ");
        assert_eq!(
            err,
            ConfigError::LineSizeMismatch {
                level: "L1I".to_string(),
                line_bytes: 64,
                expected: 32,
            }
        );
    }

    #[test]
    fn data_round_trips_through_encoded_levels() {
        let mut h = CntHierarchy::new(small_config(
            EncodingPolicy::adaptive_default(),
            EncodingPolicy::adaptive_default(),
        ))
        .expect("valid");
        for i in 0..256u64 {
            h.access(&MemoryAccess::write(Address::new(i * 8), 8, i * 3))
                .expect("write");
        }
        for i in 0..256u64 {
            let v = h
                .access(&MemoryAccess::read(Address::new(i * 8), 8))
                .expect("read");
            assert_eq!(v, i * 3);
        }
        h.flush_all();
        for i in 0..256u64 {
            assert_eq!(h.memory_mut().load(Address::new(i * 8), 8), i * 3);
        }
    }

    #[test]
    fn every_level_meters_energy() {
        let mut h = CntHierarchy::new(small_config(
            EncodingPolicy::adaptive_default(),
            EncodingPolicy::None,
        ))
        .expect("valid");
        // Enough footprint to spill from the 2 KiB L1D into the L2.
        for i in 0..512u64 {
            h.access(&MemoryAccess::write(Address::new(i * 64), 8, i))
                .expect("write");
        }
        for i in 0..512u64 {
            h.access(&MemoryAccess::ifetch(Address::new(
                0x10_0000 + (i % 64) * 64,
            )))
            .expect("ifetch");
        }
        let reports = h.reports();
        assert_eq!(reports.len(), 3);
        for r in &reports {
            assert!(
                r.total().femtojoules() > 0.0,
                "{} metered no energy",
                r.name
            );
        }
        let sum: f64 = reports.iter().map(|r| r.total().femtojoules()).sum();
        assert!((h.total_energy().femtojoules() - sum).abs() < 1e-6);
    }

    #[test]
    fn l2_encoding_adapts_on_l1_miss_traffic() {
        // Zero-data lines cycled through a tiny L1 hammer the L2 with
        // line reads; an adaptive L2 should eventually invert them.
        let mut h = CntHierarchy::new(small_config(
            EncodingPolicy::None,
            EncodingPolicy::adaptive_default(),
        ))
        .expect("valid");
        // 64 lines >> L1D capacity (32 lines), read repeatedly.
        for round in 0..32 {
            for line in 0..64u64 {
                let _ = round;
                h.access(&MemoryAccess::read(Address::new(line * 64), 8))
                    .expect("read");
            }
        }
        let l2 = h.l2().expect("configured").report();
        assert!(l2.encoding.windows > 0, "L2 completed no windows");
        assert!(
            l2.encoding.switches_applied > 0,
            "L2 never adapted: {:?}",
            l2.encoding
        );
    }

    fn mixed(h: &mut CntHierarchy, range: std::ops::Range<u64>) {
        for i in range {
            let addr = Address::new((i.wrapping_mul(0x61C8_8647) % 0x4000) & !7);
            match i % 3 {
                0 => h.access(&MemoryAccess::write(addr, 8, i)).expect("write"),
                1 => h.access(&MemoryAccess::read(addr, 8)).expect("read"),
                _ => h
                    .access(&MemoryAccess::ifetch(Address::new(
                        0x10_0000 + (i % 64) * 64,
                    )))
                    .expect("ifetch"),
            };
        }
    }

    fn reports_json(h: &CntHierarchy) -> String {
        serde_json::to_string(&h.reports()).expect("reports serialize")
    }

    #[test]
    fn checkpoint_restore_resumes_identically() {
        let config = small_config(
            EncodingPolicy::adaptive_default(),
            EncodingPolicy::adaptive_default(),
        );
        let mut control = CntHierarchy::new(config.clone()).expect("valid");
        mixed(&mut control, 0..400);

        let mut original = CntHierarchy::new(config.clone()).expect("valid");
        mixed(&mut original, 0..200);
        let bytes = original.encode_state().expect("encodes");

        let mut resumed = CntHierarchy::new(config).expect("valid");
        resumed.restore_state(&bytes).expect("restores");
        mixed(&mut resumed, 200..400);
        mixed(&mut original, 200..400);

        let expected = reports_json(&control);
        assert_eq!(reports_json(&original), expected);
        assert_eq!(reports_json(&resumed), expected, "resume diverged");
    }

    #[test]
    fn restore_rejects_l2_mismatch() {
        let with_l2 = small_config(EncodingPolicy::None, EncodingPolicy::None);
        let mut no_l2 = with_l2.clone();
        no_l2.l2 = None;

        let donor = CntHierarchy::new(with_l2).expect("valid");
        let bytes = donor.encode_state().expect("encodes");
        let mut target = CntHierarchy::new(no_l2).expect("valid");
        assert!(
            target.restore_state(&bytes).is_err(),
            "a checkpoint with an L2 must not restore into a 2-level hierarchy"
        );
    }

    #[test]
    fn works_without_l2() {
        let mut config = small_config(EncodingPolicy::adaptive_default(), EncodingPolicy::None);
        config.l2 = None;
        let mut h = CntHierarchy::new(config).expect("valid");
        h.access(&MemoryAccess::write(Address::new(0x40), 8, 9))
            .expect("write");
        assert_eq!(
            h.access(&MemoryAccess::read(Address::new(0x40), 8))
                .expect("read"),
            9
        );
        h.flush_all();
        assert_eq!(h.memory_mut().load(Address::new(0x40), 8), 9);
        assert_eq!(h.reports().len(), 2);
    }

    #[test]
    fn audits_pass_at_every_level() {
        let mut h = CntHierarchy::new(small_config(
            EncodingPolicy::adaptive_default(),
            EncodingPolicy::adaptive_default(),
        ))
        .expect("valid");
        for i in 0..1024u64 {
            h.access(&MemoryAccess::write(Address::new((i % 128) * 32), 4, i))
                .expect("write");
            h.access(&MemoryAccess::read(Address::new((i % 256) * 16), 8))
                .expect("read");
        }
        assert!(h.l1d().audit().is_ok());
        assert!(h.l1i().audit().is_ok());
        assert!(h.l2().expect("configured").audit().is_ok());
    }
}
