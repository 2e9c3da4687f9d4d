//! Configuration and builder for [`CntCache`](crate::CntCache).

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use cnt_encoding::{EncodingError, ProtectionMode};
use cnt_energy::SramEnergyModel;
use cnt_sim::{
    Cache, CacheGeometry, FillPattern, GeometryError, PrefetchPolicy, ReplacementKind, WriteMode,
};

use crate::policy::{EncodingPolicy, MetadataFaultPolicy};

/// Errors produced when assembling a [`CntCache`](crate::CntCache).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// The cache geometry is invalid.
    Geometry(GeometryError),
    /// The encoding configuration is invalid for this geometry.
    Encoding(EncodingError),
    /// A hierarchy level's line size differs from the L1D's.
    LineSizeMismatch {
        /// The offending level's name.
        level: String,
        /// Its line size in bytes.
        line_bytes: u32,
        /// The L1D's line size in bytes.
        expected: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Geometry(e) => write!(f, "invalid geometry: {e}"),
            ConfigError::Encoding(e) => write!(f, "invalid encoding configuration: {e}"),
            ConfigError::LineSizeMismatch {
                level,
                line_bytes,
                expected,
            } => write!(
                f,
                "{level} has {line_bytes}-byte lines, the L1D {expected}-byte lines"
            ),
        }
    }
}

impl Error for ConfigError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ConfigError::Geometry(e) => Some(e),
            ConfigError::Encoding(e) => Some(e),
            ConfigError::LineSizeMismatch { .. } => None,
        }
    }
}

impl From<GeometryError> for ConfigError {
    fn from(e: GeometryError) -> Self {
        ConfigError::Geometry(e)
    }
}

impl From<EncodingError> for ConfigError {
    fn from(e: EncodingError) -> Self {
        ConfigError::Encoding(e)
    }
}

/// Complete configuration of a [`CntCache`](crate::CntCache).
///
/// Use [`CntCacheConfig::builder`] for ergonomic construction:
///
/// ```
/// use cnt_cache::{CntCacheConfig, EncodingPolicy};
///
/// let config = CntCacheConfig::builder()
///     .name("L1D")
///     .size_bytes(32 * 1024)
///     .line_bytes(64)
///     .associativity(8)
///     .policy(EncodingPolicy::adaptive_default())
///     .build()?;
/// assert_eq!(config.geometry.num_sets(), 64);
/// # Ok::<(), cnt_cache::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CntCacheConfig {
    /// Display name.
    pub name: String,
    /// Cache shape.
    pub geometry: CacheGeometry,
    /// Replacement policy.
    pub replacement: ReplacementKind,
    /// How demand writes interact with the backing.
    pub write_mode: WriteMode,
    /// Hardware prefetching performed on demand misses.
    pub prefetch: PrefetchPolicy,
    /// Per-bit SRAM energy model.
    pub energy: SramEnergyModel,
    /// Encoding policy.
    pub policy: EncodingPolicy,
    /// Whether H&D metadata accesses are charged energy too.
    pub meter_metadata: bool,
    /// Per-bit energy of the H&D metadata array relative to the data
    /// array. Metadata bits live in a narrow sidecar array with short
    /// bitlines, so their access energy is a fraction of a data-array
    /// bit's; 0.1 is the default assumption (documented in `DESIGN.md`).
    pub metadata_energy_scale: f64,
    /// Cold-memory content pattern for the backing store.
    pub fill_pattern: FillPattern,
    /// How (and whether) the per-line direction vector is protected
    /// against soft-error upsets. Policies without direction bits
    /// (`None`, `ZeroFlag`) ignore this.
    pub protection: ProtectionMode,
    /// What to do when a protected direction vector is detected corrupt
    /// beyond repair.
    pub fault_policy: MetadataFaultPolicy,
}

impl CntCacheConfig {
    /// Starts a builder with the paper's D-Cache defaults: 32 KiB, 64 B
    /// lines, 8-way, LRU, CNFET energies, no encoding, metadata metered,
    /// zero-filled memory.
    pub fn builder() -> CntCacheConfigBuilder {
        CntCacheConfigBuilder::new()
    }

    /// FNV-1a digest of the *complete* configuration (over its canonical
    /// JSON form). `--resume` requires an exact match: any knob that
    /// differs means the checkpointed run and the resuming run are not
    /// the same experiment.
    pub fn fingerprint(&self) -> u64 {
        let json = serde_json::to_string(self).expect("a valid config always serializes");
        cnt_trace::fnv1a(json.as_bytes())
    }

    /// FNV-1a digest of the configuration's *shape*: everything that
    /// determines whether a checkpointed state is structurally loadable
    /// (geometry, policy kind, window, partitions, FIFO, protection, ...)
    /// with the fork-safe knobs neutralized — the display name, the
    /// energy model, the metadata energy scale, the predictor's `ΔT`
    /// hysteresis, and the fault policy. Warm-fork sweeps vary exactly
    /// those knobs from one warmed checkpoint, so they match on this
    /// digest instead of [`fingerprint`](Self::fingerprint).
    pub fn shape_fingerprint(&self) -> u64 {
        let mut shape = self.clone();
        shape.name = String::new();
        shape.energy = SramEnergyModel::cnfet_default();
        shape.metadata_energy_scale = 0.0;
        shape.fault_policy = MetadataFaultPolicy::default();
        if let EncodingPolicy::Adaptive(params) = &mut shape.policy {
            params.delta_t = 0.0;
        }
        let json = serde_json::to_string(&shape).expect("a valid config always serializes");
        cnt_trace::fnv1a(json.as_bytes())
    }

    /// Whether `other` simulates the same cache over the same memory:
    /// equal geometry, replacement, write mode, prefetcher, and
    /// cold-fill pattern. Configurations that agree on these differ only
    /// in what their encoding lanes do, so they can share one simulation
    /// as lanes of a [`LaneGroup`](crate::LaneGroup).
    pub fn shares_simulator(&self, other: &CntCacheConfig) -> bool {
        self.geometry == other.geometry
            && self.replacement == other.replacement
            && self.write_mode == other.write_mode
            && self.prefetch == other.prefetch
            && self.fill_pattern == other.fill_pattern
    }

    /// A fresh simulated cache with this configuration's geometry,
    /// replacement, write mode, and prefetcher.
    pub(crate) fn simulator(&self) -> Cache {
        Cache::new(self.name.clone(), self.geometry, self.replacement)
            .with_write_mode(self.write_mode)
            .with_prefetch(self.prefetch)
    }
}

/// Builder for [`CntCacheConfig`].
#[derive(Debug, Clone)]
pub struct CntCacheConfigBuilder {
    name: String,
    size_bytes: u64,
    line_bytes: u32,
    associativity: u32,
    replacement: ReplacementKind,
    write_mode: WriteMode,
    prefetch: PrefetchPolicy,
    energy: SramEnergyModel,
    policy: EncodingPolicy,
    meter_metadata: bool,
    metadata_energy_scale: f64,
    fill_pattern: FillPattern,
    protection: ProtectionMode,
    fault_policy: MetadataFaultPolicy,
}

impl CntCacheConfigBuilder {
    fn new() -> Self {
        CntCacheConfigBuilder {
            name: "L1D".to_string(),
            size_bytes: 32 * 1024,
            line_bytes: 64,
            associativity: 8,
            replacement: ReplacementKind::Lru,
            write_mode: WriteMode::WriteBack,
            prefetch: PrefetchPolicy::None,
            energy: SramEnergyModel::cnfet_default(),
            policy: EncodingPolicy::None,
            meter_metadata: true,
            metadata_energy_scale: 0.1,
            fill_pattern: FillPattern::Zero,
            protection: ProtectionMode::None,
            fault_policy: MetadataFaultPolicy::InvalidateLine,
        }
    }

    /// Sets the display name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the total capacity in bytes.
    pub fn size_bytes(mut self, size: u64) -> Self {
        self.size_bytes = size;
        self
    }

    /// Sets the line size in bytes.
    pub fn line_bytes(mut self, line: u32) -> Self {
        self.line_bytes = line;
        self
    }

    /// Sets the associativity (ways per set).
    pub fn associativity(mut self, ways: u32) -> Self {
        self.associativity = ways;
        self
    }

    /// Sets the replacement policy.
    pub fn replacement(mut self, kind: ReplacementKind) -> Self {
        self.replacement = kind;
        self
    }

    /// Sets the write mode (write-back, write-through, write-around).
    pub fn write_mode(mut self, mode: WriteMode) -> Self {
        self.write_mode = mode;
        self
    }

    /// Sets the hardware prefetch policy.
    pub fn prefetch(mut self, policy: PrefetchPolicy) -> Self {
        self.prefetch = policy;
        self
    }

    /// Sets the SRAM energy model.
    pub fn energy(mut self, model: SramEnergyModel) -> Self {
        self.energy = model;
        self
    }

    /// Sets the encoding policy.
    pub fn policy(mut self, policy: EncodingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables or disables energy metering of the H&D metadata bits.
    pub fn meter_metadata(mut self, on: bool) -> Self {
        self.meter_metadata = on;
        self
    }

    /// Sets the metadata-array per-bit energy relative to the data array.
    pub fn metadata_energy_scale(mut self, scale: f64) -> Self {
        self.metadata_energy_scale = scale;
        self
    }

    /// Sets the cold-memory content pattern.
    pub fn fill_pattern(mut self, pattern: FillPattern) -> Self {
        self.fill_pattern = pattern;
        self
    }

    /// Sets the direction-metadata protection mode.
    pub fn protection(mut self, mode: ProtectionMode) -> Self {
        self.protection = mode;
        self
    }

    /// Sets the response to uncorrectable metadata faults.
    pub fn fault_policy(mut self, policy: MetadataFaultPolicy) -> Self {
        self.fault_policy = policy;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the geometry is invalid (the encoding
    /// configuration itself is validated when the cache is constructed).
    pub fn build(self) -> Result<CntCacheConfig, ConfigError> {
        let geometry = CacheGeometry::new(self.size_bytes, self.line_bytes, self.associativity)?;
        Ok(CntCacheConfig {
            name: self.name,
            geometry,
            replacement: self.replacement,
            write_mode: self.write_mode,
            prefetch: self.prefetch,
            energy: self.energy,
            policy: self.policy,
            meter_metadata: self.meter_metadata,
            metadata_energy_scale: self.metadata_energy_scale,
            fill_pattern: self.fill_pattern,
            protection: self.protection,
            fault_policy: self.fault_policy,
        })
    }
}

impl Default for CntCacheConfigBuilder {
    fn default() -> Self {
        CntCacheConfigBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_paper_dcache() {
        let c = CntCacheConfig::builder().build().expect("defaults valid");
        assert_eq!(c.geometry.size_bytes(), 32 * 1024);
        assert_eq!(c.geometry.line_bytes(), 64);
        assert_eq!(c.geometry.associativity(), 8);
        assert_eq!(c.policy, EncodingPolicy::None);
        assert!(c.meter_metadata);
        assert_eq!(c.protection, ProtectionMode::None);
        assert_eq!(c.fault_policy, MetadataFaultPolicy::InvalidateLine);
    }

    #[test]
    fn protection_setters_apply() {
        let c = CntCacheConfig::builder()
            .protection(ProtectionMode::Secded)
            .fault_policy(MetadataFaultPolicy::FallbackBaseline)
            .build()
            .expect("valid");
        assert_eq!(c.protection, ProtectionMode::Secded);
        assert_eq!(c.fault_policy, MetadataFaultPolicy::FallbackBaseline);
    }

    #[test]
    fn builder_setters_apply() {
        let c = CntCacheConfig::builder()
            .name("L2")
            .size_bytes(256 * 1024)
            .line_bytes(128)
            .associativity(16)
            .replacement(ReplacementKind::TreePlru)
            .meter_metadata(false)
            .fill_pattern(FillPattern::Random { seed: 1 })
            .build()
            .expect("valid");
        assert_eq!(c.name, "L2");
        assert_eq!(c.geometry.line_bytes(), 128);
        assert_eq!(c.replacement, ReplacementKind::TreePlru);
        assert!(!c.meter_metadata);
    }

    #[test]
    fn bad_geometry_is_reported() {
        let err = CntCacheConfig::builder()
            .size_bytes(1000)
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::Geometry(_)));
        assert!(err.to_string().contains("geometry"));
        assert!(Error::source(&err).is_some());
    }
}
