//! [`CntCache`]: the adaptive-encoding CNFET cache with bit-exact dynamic
//! energy accounting.
//!
//! The type composes two parts:
//!
//! * the simulator: a data-carrying [`Cache`](cnt_sim::Cache) over a
//!   [`MainMemory`];
//! * an [`EncodingLane`]: the [`cnt_encoding`] predictor/codec/FIFO stack
//!   and a [`cnt_energy::EnergyMeter`] that prices every bit the SRAM
//!   array moves.
//!
//! No lane state feeds back into the simulator on a fault-free run, so a
//! [`LaneGroup`](crate::LaneGroup) drives several lanes from one
//! simulation through the same [`demand`] step.
//!
//! The *stored* array content is the logical content XOR the per-partition
//! direction bits; correctness is structural (the XOR is an involution) and
//! energy is always computed on the stored view.

use std::borrow::Borrow;

use cnt_encoding::{
    AccessHistory, BitPreference, DirectionBits, DirectionPredictor, FifoSnapshot, FifoStats,
    LineCodec, OverflowPolicy, PartitionLayout, PredictorConfig, ProtectedDirectionBits,
    ProtectedHistory, ProtectionMode, ProtectionVerdict, UpdateFifo,
};
use cnt_energy::{ChargeKind, EnergyBreakdown, EnergyMeter};
use cnt_sim::trace::{AccessBatch, MemoryAccess};
use cnt_sim::{
    AccessError, AccessOutcome, Address, ArrayObserver, Backing, Cache, CacheLevel, CacheSnapshot,
    CacheStats, LineLocation, MainMemory, MemorySnapshot,
};
use cnt_trace::{CheckpointError, Checkpointable};
use serde::{Deserialize, Serialize};

use crate::config::{CntCacheConfig, ConfigError};
use crate::policy::{EncodingPolicy, MetadataFaultPolicy};
use crate::replay::{drive, EpochClock, EpochHook};
use crate::report::{EncodingCounters, EnergyReport, ReliabilityCounters};

/// Per-line encoding state: direction bits, window counters, and the
/// sticky-classifier streak. Serialized as-is into checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct LineState {
    dirs: ProtectedDirectionBits,
    /// Window counters in a protected register: the H field is guarded
    /// by the same code family as the D bits (DESIGN.md §10), so an
    /// upset cannot silently skew the predictor.
    history: ProtectedHistory,
    /// Last window's pattern classification (sticky classifier only).
    last_pattern: Option<cnt_encoding::AccessPattern>,
    /// Consecutive windows with the same classification.
    streak: u32,
    /// Pinned to baseline encoding by `MetadataFaultPolicy::FallbackBaseline`
    /// until the line is replaced.
    pinned: bool,
}

impl LineState {
    fn fresh(dirs: ProtectedDirectionBits, history: ProtectedHistory) -> Self {
        LineState {
            dirs,
            history,
            last_pattern: None,
            streak: 0,
            pinned: false,
        }
    }
}

/// Everything a [`CntCache`] needs to resume exactly where it stopped:
/// the data-carrying cache, the backing memory, per-line encoding state,
/// the deferred-update FIFO, every counter, and the accumulated energy
/// breakdown. Serialized (as JSON) into one checkpoint section.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct CacheCheckpoint {
    cache: CacheSnapshot,
    memory: MemorySnapshot,
    states: Vec<LineState>,
    fifo_queue: Vec<PendingUpdate>,
    fifo_stats: FifoStats,
    counters: EncodingCounters,
    reliability: ReliabilityCounters,
    degraded_lines: Vec<Address>,
    breakdown: EnergyBreakdown,
}

/// A queued re-encoding: which line, and which partitions flip.
///
/// This is the joint content of the paper's index FIFO (the location) and
/// data FIFO (the flip set; the data itself is re-read at apply time).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PendingUpdate {
    /// Where the line lives.
    pub set: u64,
    /// Which way.
    pub way: u32,
    /// Bitmask of partitions to flip.
    pub flips: u64,
    /// The decision's projected net saving (fJ), carried so the realized
    /// total can be attributed when (and only when) the update applies.
    pub saving_fj: f64,
}

impl PendingUpdate {
    fn location(&self) -> LineLocation {
        LineLocation {
            set: self.set,
            way: self.way,
        }
    }
}

/// The outcome of one background scrub sweep over the direction
/// metadata (see [`CntCache::scrub_metadata`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ScrubReport {
    /// Valid lines whose metadata was verified.
    pub lines_checked: u64,
    /// Upsets repaired in place during this sweep.
    pub corrected: u64,
    /// Uncorrectable faults found (the fault policy fired).
    pub uncorrectable: u64,
}

/// One configuration's encoding state beside a simulated cache: codec,
/// predictor, per-line D bits and H counters, FIFO, counters, meter and
/// protection. It never changes a tag, hit or eviction, so lanes can
/// share one simulation ([`LaneGroup`](crate::LaneGroup)); only the
/// fault paths, reached through [`CntCache`]'s injection methods, write
/// a line.
#[derive(Debug)]
pub struct EncodingLane {
    config: CntCacheConfig,
    meter: EnergyMeter,
    codec: LineCodec,
    predictor: Option<DirectionPredictor>,
    states: Vec<LineState>,
    fifo: UpdateFifo<PendingUpdate>,
    counters: EncodingCounters,
    drain_per_access: usize,
    fill_preference: Option<BitPreference>,
    inline_updates: bool,
    confirm_windows: u32,
    /// Zero-flag compression: all-zero words skip the array, paying only
    /// their (sidecar) flag access.
    zero_flag: bool,
    /// Effective protection mode: the configured one, or forced `None`
    /// for policies without direction bits.
    protection: ProtectionMode,
    /// Template for a freshly-filled line's history register (window
    /// length and protection mode fixed by the configuration).
    fresh_history: ProtectedHistory,
    fault_policy: MetadataFaultPolicy,
    reliability: ReliabilityCounters,
    /// Base addresses of lines degraded by the fault policy (invalidated
    /// or pinned), in occurrence order; a base repeats if hit again.
    degraded_lines: Vec<Address>,
}

impl EncodingLane {
    /// Builds the encoding state for `config`; fails as [`CntCache::new`].
    pub(crate) fn new(config: CntCacheConfig) -> Result<Self, ConfigError> {
        let line_bits = config.geometry.line_bits();
        let partitions = config.policy.partitions();
        let (codec, predictor, adaptive) = match config.policy {
            EncodingPolicy::None | EncodingPolicy::ZeroFlag => (
                LineCodec::new(PartitionLayout::full_line(line_bits)?),
                None,
                None,
            ),
            EncodingPolicy::StaticInvert { preference, .. } => {
                let mut params = crate::policy::AdaptiveParams::paper_default();
                params.fill_preference = Some(preference);
                params.drain_per_access = 0;
                (
                    LineCodec::new(PartitionLayout::new(line_bits, partitions)?),
                    None,
                    Some(params),
                )
            }
            EncodingPolicy::Adaptive(params) => {
                let predictor = DirectionPredictor::new(
                    config.energy.bits(),
                    PredictorConfig {
                        window: params.window,
                        line_bits,
                        partitions: params.partitions,
                        delta_t: params.delta_t,
                    },
                )?;
                let codec = *predictor.codec();
                (codec, Some(predictor), Some(params))
            }
        };
        let fifo_capacity = adaptive.map_or(1, |p| p.fifo_capacity.max(1));
        let overflow = adaptive.map_or(OverflowPolicy::DropNewest, |p| p.overflow);
        let drain = if predictor.is_some() {
            adaptive.map_or(0, |p| p.drain_per_access)
        } else {
            0
        };
        // Policies without direction bits have nothing to protect; forcing
        // `None` keeps their hot path byte-identical to the unprotected
        // build.
        let protection = match config.policy {
            EncodingPolicy::None | EncodingPolicy::ZeroFlag => ProtectionMode::None,
            EncodingPolicy::StaticInvert { .. } | EncodingPolicy::Adaptive(_) => config.protection,
        };
        // The H counters live in the same protected metadata word as the
        // D bits; policies without a predictor carry a degenerate
        // single-access window that is never recorded into.
        let fresh_history = ProtectedHistory::new(
            predictor.as_ref().map_or(1, |p| p.config().window),
            protection,
        );
        let states = vec![
            LineState::fresh(
                ProtectedDirectionBits::all_normal(codec.layout().partitions(), protection),
                fresh_history,
            );
            config.geometry.num_lines() as usize
        ];
        Ok(EncodingLane {
            meter: EnergyMeter::new(config.energy),
            codec,
            predictor,
            states,
            fifo: UpdateFifo::new(fifo_capacity, overflow),
            counters: EncodingCounters::default(),
            drain_per_access: drain,
            fill_preference: adaptive.and_then(|p| p.fill_preference),
            inline_updates: adaptive.is_some_and(|p| p.inline_updates),
            confirm_windows: adaptive.map_or(1, |p| p.confirm_windows.max(1)),
            zero_flag: config.policy == EncodingPolicy::ZeroFlag,
            protection,
            fresh_history,
            fault_policy: config.fault_policy,
            reliability: ReliabilityCounters::default(),
            degraded_lines: Vec::new(),
            config,
        })
    }

    /// Updates currently queued in the deferred-update FIFO.
    pub fn fifo_len(&self) -> usize {
        self.fifo.len()
    }

    /// Capacity of the deferred-update FIFO.
    pub fn fifo_capacity(&self) -> usize {
        self.fifo.capacity()
    }

    fn line_index(&self, loc: LineLocation) -> usize {
        loc.slot(self.config.geometry.associativity())
    }

    /// Energy scale of the zero-flag sidecar array (zero when metadata
    /// is not metered).
    fn sidecar_scale(&self) -> f64 {
        if self.config.meter_metadata {
            self.config.metadata_energy_scale
        } else {
            0.0
        }
    }

    /// Decode-path check: the metadata of the line holding `addr` (if
    /// resident) is verified *before* its direction bits are trusted.
    fn verify_before_use(&mut self, cache: &mut Cache, addr: Address) {
        if self.protection != ProtectionMode::None {
            if let Some(loc) = cache.find(addr) {
                self.verify_line_metadata(cache, loc);
            }
        }
    }

    /// Line-transfer bookkeeping: the touched line gets one history event
    /// (reads/writes at line granularity) and idle-slot draining runs.
    fn after_line_transfer(&mut self, cache: &mut Cache, base: Address, is_write: bool) {
        let Some(location) = cache.find(base) else {
            return;
        };
        let outcome = AccessOutcome {
            value: 0,
            hit: true,
            location: Some(location),
            evicted: None,
        };
        self.after_demand(cache, &outcome, is_write);
    }

    /// Post-access bookkeeping: metadata energy, window prediction, and
    /// idle-slot draining.
    fn after_demand(&mut self, cache: &mut Cache, outcome: &AccessOutcome, is_write: bool) {
        // Write-around stores never touch the array: nothing to account.
        let Some(location) = outcome.location else {
            return;
        };
        let idx = self.line_index(location);

        // Every access under an encoding policy reads the line's H&D field.
        let metadata_bits = self
            .config
            .policy
            .metadata_bits_per_line(self.config.geometry.line_bits());
        // Zero-flag charges its flag bits precisely in the observer, so the
        // generic whole-field metadata charge below must not double-count.
        if self.config.meter_metadata && metadata_bits > 0 && !self.zero_flag {
            let state = &self.states[idx];
            let ones = state.dirs.inverted_count()
                + state.history.accesses().count_ones()
                + state.history.writes().count_ones();
            self.meter.charge_read_bits_scaled(
                ones.min(metadata_bits),
                metadata_bits,
                ChargeKind::MetadataRead,
                self.config.metadata_energy_scale,
            );
        }

        let Some(predictor) = &self.predictor else {
            return;
        };

        if self.states[idx].pinned {
            // FallbackBaseline: the line sits out the predictor entirely
            // until it is replaced.
            return;
        }

        let summary = predictor.observe_protected(&mut self.states[idx].history, is_write);

        if self.config.meter_metadata {
            // The history counters are re-written on every access.
            let hist_bits = AccessHistory::storage_bits(predictor.config().window);
            let state = &self.states[idx];
            let ones = (state.history.accesses().count_ones()
                + state.history.writes().count_ones())
            .min(hist_bits);
            self.meter.charge_write_bits_scaled(
                ones,
                hist_bits,
                ChargeKind::MetadataWrite,
                self.config.metadata_energy_scale,
            );
        }

        if let Some(summary) = summary {
            self.counters.windows += 1;

            // Sticky classifier: require `confirm_windows` consecutive
            // windows with the same pattern before allowing a switch.
            let confirmed = if self.confirm_windows <= 1 {
                true
            } else {
                let pattern = predictor.table().pattern(summary.wr_num);
                let state = &mut self.states[idx];
                if state.last_pattern == Some(pattern) {
                    state.streak = state.streak.saturating_add(1);
                } else {
                    state.streak = 1;
                }
                state.last_pattern = Some(pattern);
                state.streak >= self.confirm_windows
            };

            if confirmed {
                let decision =
                    predictor.decide(summary, cache.words(location), &self.states[idx].dirs);
                if decision.switches() {
                    self.counters.switch_decisions += 1;
                    self.counters.projected_saving_fj += decision.projected_saving_fj;
                    if self.inline_updates {
                        // No FIFO: the re-encode stalls the demand path.
                        let flips = decision.flips;
                        self.apply_update(
                            cache,
                            location,
                            flips,
                            decision.projected_saving_fj,
                            true,
                        );
                    } else {
                        self.fifo.push(PendingUpdate {
                            set: location.set,
                            way: location.way,
                            flips: decision.flips,
                            saving_fj: decision.projected_saving_fj,
                        });
                    }
                }
            } else {
                self.counters.suppressed_by_confirmation += 1;
            }
        }

        // A hit leaves fill bandwidth idle: drain deferred updates.
        if outcome.hit {
            for _ in 0..self.drain_per_access {
                if !self.apply_one_pending(cache) {
                    break;
                }
            }
        }
    }

    /// Verifies the protected direction metadata of the line at `loc`,
    /// repairing correctable upsets in place (metadata register *and*
    /// decoded data view) and invoking the fault policy on uncorrectable
    /// ones. No-op for invalid lines or when protection is off.
    ///
    /// Only an injected upset makes a verdict other than `Clean`, so
    /// only then does this write into `cache`.
    fn verify_line_metadata(&mut self, cache: &mut Cache, loc: LineLocation) -> ProtectionVerdict {
        if self.protection == ProtectionMode::None || !cache.is_valid(loc) {
            return ProtectionVerdict::Clean;
        }
        let idx = self.line_index(loc);
        if self.config.meter_metadata {
            // The check bits are read out alongside the D field.
            let dirs = &self.states[idx].dirs;
            self.meter.charge_read_bits_scaled(
                dirs.check_ones(),
                dirs.check_storage_bits(),
                ChargeKind::ProtectionCheck,
                self.config.metadata_energy_scale,
            );
        }
        // The H counters ride in the same protected metadata word as the
        // D bits: verify and repair them first. A history fault never
        // endangers stored data — the worst case is a skewed prediction —
        // so an uncorrectable one resets the window (a lost window, never
        // a silent skew) instead of firing the line fault policy. The
        // check is deliberately unmetered; DESIGN.md §14 explains why.
        let history_verdict = self.states[idx].history.verify_and_repair();
        match history_verdict {
            ProtectionVerdict::Clean => {}
            ProtectionVerdict::CorrectedData(_) | ProtectionVerdict::CorrectedCheck => {
                self.reliability.faults_detected += 1;
                self.reliability.faults_corrected += 1;
            }
            ProtectionVerdict::Uncorrectable => {
                self.reliability.faults_detected += 1;
                self.reliability.faults_uncorrected += 1;
                self.states[idx].history.reset();
            }
        }
        let verdict = self.states[idx].dirs.verify_and_repair();
        match verdict {
            ProtectionVerdict::Clean => {}
            ProtectionVerdict::CorrectedData(p) => {
                self.reliability.faults_detected += 1;
                self.reliability.faults_corrected += 1;
                // The metadata register was repaired; now restore the
                // decoded view. The stored array bits were never wrong —
                // only the direction lying about them — so re-deriving
                // the logical partition is an exact inverse of the upset.
                let (start, len) = self.codec.layout().range(p);
                cnt_encoding::popcount::invert_range(cache.words_mut(loc), start, len);
                self.charge_protection_repair(idx);
            }
            ProtectionVerdict::CorrectedCheck => {
                self.reliability.faults_detected += 1;
                self.reliability.faults_corrected += 1;
                self.charge_protection_repair(idx);
            }
            ProtectionVerdict::Uncorrectable => {
                self.reliability.faults_detected += 1;
                self.reliability.faults_uncorrected += 1;
                self.handle_uncorrectable(cache, loc, idx);
            }
        }
        worse_verdict(verdict, history_verdict)
    }

    /// Charges the re-write of the protected D register after a repair.
    fn charge_protection_repair(&mut self, idx: usize) {
        if self.config.meter_metadata {
            let dirs = &self.states[idx].dirs;
            self.meter.charge_write_bits_scaled(
                dirs.bits().inverted_count() + dirs.check_ones(),
                dirs.storage_bits(),
                ChargeKind::ProtectionUpdate,
                self.config.metadata_energy_scale,
            );
        }
    }

    /// Executes the configured [`MetadataFaultPolicy`] on the line at
    /// `loc`, whose direction vector can no longer be trusted.
    fn handle_uncorrectable(&mut self, cache: &mut Cache, loc: LineLocation, idx: usize) {
        let base = cache.line_base_at(loc);
        match self.fault_policy {
            MetadataFaultPolicy::Panic => panic!(
                "uncorrectable direction-metadata fault at {base} (set {}, way {})",
                loc.set, loc.way
            ),
            MetadataFaultPolicy::InvalidateLine => {
                self.degraded_lines.push(base);
                self.fifo.cancel_where(|u| u.location() == loc);
                let was_dirty = cache.invalidate(loc);
                if was_dirty {
                    // Unwritten stores are lost — detected data loss,
                    // never silent: the base is in the degraded log.
                    self.reliability.dirty_lines_invalidated += 1;
                }
                self.reliability.lines_invalidated += 1;
                self.states[idx] = LineState::fresh(
                    ProtectedDirectionBits::all_normal(
                        self.codec.layout().partitions(),
                        self.protection,
                    ),
                    self.fresh_history,
                );
            }
            MetadataFaultPolicy::FallbackBaseline => {
                self.degraded_lines.push(base);
                self.fifo.cancel_where(|u| u.location() == loc);
                // The array's physical content becomes the logical
                // truth: re-derive the logical view under the untrusted
                // direction belief, then declare every partition normal
                // and pin the line so the predictor leaves it alone.
                let dirs_mask = self.states[idx].dirs.mask();
                for p in 0..self.codec.layout().partitions() {
                    if dirs_mask >> p & 1 == 1 {
                        let (start, len) = self.codec.layout().range(p);
                        cnt_encoding::popcount::invert_range(cache.words_mut(loc), start, len);
                    }
                }
                self.states[idx].dirs.normalize();
                self.states[idx].pinned = true;
                self.reliability.lines_pinned += 1;
                self.charge_protection_repair(idx);
            }
        }
    }

    /// Verifies every valid line's metadata (used by flush and scrub).
    fn sweep_metadata(&mut self, cache: &mut Cache) -> ScrubReport {
        let mut report = ScrubReport::default();
        if self.protection == ProtectionMode::None {
            return report;
        }
        for set in 0..self.config.geometry.num_sets() {
            for way in 0..self.config.geometry.associativity() {
                let loc = LineLocation { set, way };
                if !cache.is_valid(loc) {
                    continue;
                }
                report.lines_checked += 1;
                match self.verify_line_metadata(cache, loc) {
                    ProtectionVerdict::Clean => {}
                    ProtectionVerdict::CorrectedData(_) | ProtectionVerdict::CorrectedCheck => {
                        report.corrected += 1;
                    }
                    ProtectionVerdict::Uncorrectable => report.uncorrectable += 1,
                }
            }
        }
        report
    }

    /// Applies the oldest pending re-encoding, charging the switch write.
    /// Returns `false` when the FIFO is empty.
    fn apply_one_pending(&mut self, cache: &mut Cache) -> bool {
        let Some(update) = self.fifo.pop() else {
            return false;
        };
        self.apply_update(
            cache,
            update.location(),
            update.flips,
            update.saving_fj,
            false,
        );
        true
    }

    /// Re-encodes the line at `loc` by flipping `flips`, charging the
    /// switch writes. `inline` marks the flips as demand-path stalls.
    fn apply_update(
        &mut self,
        cache: &mut Cache,
        loc: LineLocation,
        flips: u64,
        saving_fj: f64,
        inline: bool,
    ) {
        // The queued decision was made against metadata that may have
        // upset since: verify (and possibly degrade) before re-encoding.
        if self.protection != ProtectionMode::None {
            self.verify_line_metadata(cache, loc);
        }
        let idx = self.line_index(loc);
        if !cache.is_valid(loc) {
            // Fills cancel their location's pending updates, so this is
            // reached only after a whole-cache reset or a fault-policy
            // invalidation that raced the drain; drop silently.
            return;
        }
        if self.states[idx].pinned {
            // FallbackBaseline pinned the line to normal encoding.
            return;
        }
        let state = &mut self.states[idx];
        state.dirs.apply_flips(flips);
        state.history.reset();
        let layout = *self.codec.layout();
        let partition_bits = layout.partition_bits();
        // Raw (pre-direction) popcounts of the flipped partitions, on the
        // stack so this path stays free of per-update heap allocation.
        // A multi-flip update re-counts the whole line in one unrolled
        // u64×4 pass; a single flip counts just its own range.
        let mut raw_counts = [0u32; cnt_encoding::MAX_PARTITIONS];
        let partitions = layout.partitions();
        let words = cache.words(loc);
        if flips.count_ones() > 1 && partition_bits.is_multiple_of(64) {
            cnt_encoding::popcount::popcount_word_partitions(
                words,
                (partition_bits / 64) as usize,
                &mut raw_counts[..partitions as usize],
            );
        } else {
            for p in 0..partitions {
                if flips >> p & 1 == 1 {
                    let (start, len) = layout.range(p);
                    raw_counts[p as usize] =
                        cnt_encoding::popcount::popcount_range(words, start, len);
                }
            }
        }
        // Only flipped partitions are charged.
        for p in 0..partitions {
            if flips >> p & 1 == 1 {
                let raw = raw_counts[p as usize];
                let ones = if state.dirs.is_inverted(p) {
                    partition_bits - raw
                } else {
                    raw
                };
                self.meter
                    .charge_write_bits_kind(ones, partition_bits, ChargeKind::EncodeSwitch);
                self.counters.partition_flips += 1;
                if inline {
                    self.counters.inline_partition_flips += 1;
                }
            }
        }
        if self.config.meter_metadata {
            // The direction bits themselves are re-written.
            let state = &self.states[idx];
            self.meter.charge_write_bits_scaled(
                state.dirs.bits().inverted_count(),
                state.dirs.bits().storage_bits(),
                ChargeKind::MetadataWrite,
                self.config.metadata_energy_scale,
            );
            if self.protection != ProtectionMode::None {
                // ... and so are their protection check bits.
                self.meter.charge_write_bits_scaled(
                    state.dirs.check_ones(),
                    state.dirs.check_storage_bits(),
                    ChargeKind::ProtectionUpdate,
                    self.config.metadata_energy_scale,
                );
            }
        }
        self.counters.switches_applied += 1;
        // Projected savings realize only when the switch actually lands:
        // decisions dropped on FIFO overflow or cancelled by an eviction
        // never add here, which is exactly the projected/realized gap the
        // observability snapshots expose.
        self.counters.realized_saving_fj += saving_fj;
    }

    /// Applies every queued re-encoding, returning how many were applied.
    fn drain_pending(&mut self, cache: &mut Cache) -> usize {
        let mut n = 0;
        while self.apply_one_pending(cache) {
            n += 1;
        }
        n
    }

    /// H&D metadata bits per line, including protection check bits.
    fn total_metadata_bits_per_line(&self) -> u32 {
        self.config
            .policy
            .metadata_bits_per_line(self.config.geometry.line_bits())
            + self.protection.check_bits(self.codec.layout().partitions())
    }

    /// The lane's report over its simulated cache's `stats`.
    pub fn report(&self, stats: CacheStats) -> EnergyReport {
        EnergyReport {
            name: self.config.name.clone(),
            policy: self.config.policy.to_string(),
            technology: self.config.energy.technology(),
            breakdown: self.meter.breakdown().clone(),
            stats,
            encoding: self.counters,
            fifo: *self.fifo.stats(),
            metadata_bits_per_line: self.total_metadata_bits_per_line(),
            reliability: self.reliability,
        }
    }

    /// [`report`](Self::report), moving the name and breakdown instead of
    /// cloning them.
    pub(crate) fn into_report(mut self, stats: CacheStats) -> EnergyReport {
        let metadata_bits_per_line = self.total_metadata_bits_per_line();
        EnergyReport {
            name: std::mem::take(&mut self.config.name),
            policy: self.config.policy.to_string(),
            technology: self.config.energy.technology(),
            breakdown: self.meter.take_breakdown(),
            stats,
            encoding: self.counters,
            fifo: *self.fifo.stats(),
            metadata_bits_per_line,
            reliability: self.reliability,
        }
    }
}

/// The lanes one simulated cache feeds, as its [`ArrayObserver`]: a lone
/// [`EncodingLane`] (dispatched statically) or a
/// [`LaneGroup`](crate::LaneGroup)'s fan-out.
pub(crate) trait Lanes: ArrayObserver {
    /// Calls `f` on every lane, in lane order.
    fn each(&mut self, f: impl FnMut(&mut EncodingLane));
}

impl Lanes for EncodingLane {
    fn each(&mut self, mut f: impl FnMut(&mut EncodingLane)) {
        f(self);
    }
}

/// One demand access: every lane verifies the metadata it is about to
/// trust, the cache performs the access while the lanes meter its array
/// events, and every lane then runs its post-access bookkeeping.
pub(crate) fn demand<L: Lanes>(
    cache: &mut Cache,
    lower: &mut dyn Backing,
    lanes: &mut L,
    access: &MemoryAccess,
) -> Result<AccessOutcome, AccessError> {
    let MemoryAccess {
        addr, width, value, ..
    } = *access;
    // An uncorrectable fault may invalidate the line here, turning the
    // access into a clean refetch miss.
    lanes.each(|lane| lane.verify_before_use(cache, addr));
    let outcome = if access.is_write() {
        cache.write_outcome(addr, width, value, lower, lanes)?
    } else {
        cache.read_outcome(addr, width, lower, lanes)?
    };
    lanes.each(|lane| lane.after_demand(cache, &outcome, access.is_write()));
    Ok(outcome)
}

/// Drains every lane's pending updates, then writes all dirty lines back
/// to `lower` (charging write-back reads), returning the number written
/// back.
pub(crate) fn flush<L: Lanes>(cache: &mut Cache, lower: &mut dyn Backing, lanes: &mut L) -> usize {
    lanes.each(|lane| {
        // Every line's directions are about to be trusted for the final
        // write-back: verify them all first (not counted as a scrub pass).
        lane.sweep_metadata(cache);
        lane.drain_pending(cache);
    });
    cache.flush(lower, lanes)
}

/// The CNT-Cache: a CNFET data cache with (optional) adaptive encoding and
/// full dynamic-energy accounting — one simulated cache plus one
/// [`EncodingLane`].
///
/// # Example
///
/// ```
/// use cnt_cache::{CntCache, CntCacheConfig, EncodingPolicy};
/// use cnt_sim::Address;
///
/// let config = CntCacheConfig::builder()
///     .policy(EncodingPolicy::adaptive_default())
///     .build()?;
/// let mut cache = CntCache::new(config)?;
///
/// cache.write(Address::new(0x100), 8, 0xFF)?;
/// assert_eq!(cache.read(Address::new(0x100), 8)?, 0xFF);
/// assert!(cache.total_energy().femtojoules() > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct CntCache {
    cache: Cache,
    memory: MainMemory,
    lane: EncodingLane,
}

impl CntCache {
    /// Builds the cache over fresh memory with the configured cold-fill
    /// pattern.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the encoding policy is incompatible with
    /// the geometry (e.g. partitions that do not divide the line).
    pub fn new(config: CntCacheConfig) -> Result<Self, ConfigError> {
        let memory = MainMemory::with_fill(config.fill_pattern);
        CntCache::with_memory(config, memory)
    }

    /// Builds the cache over pre-populated memory.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the encoding policy is incompatible with
    /// the geometry.
    pub fn with_memory(config: CntCacheConfig, memory: MainMemory) -> Result<Self, ConfigError> {
        Ok(CntCache {
            cache: config.simulator(),
            memory,
            lane: EncodingLane::new(config)?,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &CntCacheConfig {
        &self.lane.config
    }

    /// The encoding lane: everything this cache keeps beside its lines.
    pub fn lane(&self) -> &EncodingLane {
        &self.lane
    }

    /// Hit/miss statistics of the underlying cache.
    pub fn stats(&self) -> &CacheStats {
        self.cache.stats()
    }

    /// Total dynamic energy accumulated so far.
    pub fn total_energy(&self) -> cnt_energy::Energy {
        self.lane.meter.total()
    }

    /// The energy meter (for breakdown inspection).
    pub fn meter(&self) -> &EnergyMeter {
        &self.lane.meter
    }

    /// Encoding activity counters.
    pub fn encoding_counters(&self) -> &EncodingCounters {
        &self.lane.counters
    }

    /// Metadata-protection and fault-handling counters.
    pub fn reliability_counters(&self) -> &ReliabilityCounters {
        &self.lane.reliability
    }

    /// The *effective* protection mode: the configured one, or `None`
    /// when the encoding policy carries no direction bits.
    pub fn protection(&self) -> ProtectionMode {
        self.lane.protection
    }

    /// Base addresses of lines degraded by the fault policy (invalidated
    /// or pinned after an uncorrectable metadata fault), in occurrence
    /// order. Campaigns use this to attribute end-of-run corruption as
    /// *detected* (the line is in this log) versus *silent*.
    pub fn degraded_line_bases(&self) -> &[Address] {
        &self.lane.degraded_lines
    }

    /// Encoding partitions per line in the active codec layout.
    pub fn partitions(&self) -> u32 {
        self.lane.codec.layout().partitions()
    }

    /// Number of currently valid (resident) lines.
    pub fn valid_line_count(&self) -> usize {
        self.cache.valid_lines().count()
    }

    /// The location of the `n`-th valid line in set/way iteration order,
    /// without allocating. `None` when fewer than `n + 1` lines are
    /// resident.
    pub fn nth_valid_line(&self, n: usize) -> Option<LineLocation> {
        self.cache.valid_lines().nth(n).map(|(loc, _)| loc)
    }

    /// Base address of the line at `loc` (valid for resident lines;
    /// reconstructed from the stored tag otherwise).
    pub fn line_base(&self, loc: LineLocation) -> Address {
        self.cache.line_base_at(loc)
    }

    /// Pending-update FIFO statistics.
    pub fn fifo_stats(&self) -> &FifoStats {
        self.lane.fifo.stats()
    }

    /// Updates currently queued in the deferred-update FIFO.
    pub fn fifo_len(&self) -> usize {
        self.lane.fifo_len()
    }

    /// Capacity of the deferred-update FIFO.
    pub fn fifo_capacity(&self) -> usize {
        self.lane.fifo_capacity()
    }

    /// The cache's display name (e.g. `L1D`).
    pub fn name(&self) -> &str {
        &self.lane.config.name
    }

    /// The backing memory.
    pub fn memory_mut(&mut self) -> &mut MainMemory {
        &mut self.memory
    }

    /// Performs one demand access from a trace record.
    ///
    /// Instruction fetches are treated as reads.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] for malformed accesses.
    pub fn access(&mut self, access: &MemoryAccess) -> Result<AccessOutcome, AccessError> {
        demand(&mut self.cache, &mut self.memory, &mut self.lane, access)
    }

    /// Reads `width` bytes at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] for malformed accesses.
    pub fn read(&mut self, addr: Address, width: u8) -> Result<u64, AccessError> {
        self.access(&MemoryAccess::read(addr, width))
            .map(|o| o.value)
    }

    /// Writes the low `width * 8` bits of `value` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] for malformed accesses.
    pub fn write(&mut self, addr: Address, width: u8, value: u64) -> Result<(), AccessError> {
        self.access(&MemoryAccess::write(addr, width, value))
            .map(|_| ())
    }

    /// Runs every access of a trace, returning how many were performed.
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

    /// Runs every access of a struct-of-arrays batch, returning how many
    /// were performed — [`run`](Self::run) over the batch's records.
    ///
    /// # Errors
    ///
    /// Stops at and returns the first [`AccessError`].
    pub fn run_batch(&mut self, batch: &AccessBatch) -> Result<usize, AccessError> {
        self.run(batch.iter())
    }

    /// Runs every access of `trace` like [`run`](Self::run), advancing
    /// `clock` and calling `epoch_hook(&self, epoch, accesses_so_far)`
    /// at each epoch boundary. A replay may span several calls with one
    /// clock; [`EpochClock::close`] emits its trailing partial epoch.
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
            |cache, access| cache.access(access.borrow()).map(drop),
            clock,
            epoch_hook,
        )
    }

    /// Performs one demand access against an *external* backing (a lower
    /// cache level or memory) instead of this cache's owned memory. Used
    /// by [`CntHierarchy`](crate::CntHierarchy) to stack encoded levels.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] for malformed accesses.
    pub fn access_through(
        &mut self,
        access: &MemoryAccess,
        lower: &mut dyn Backing,
    ) -> Result<AccessOutcome, AccessError> {
        demand(&mut self.cache, lower, &mut self.lane, access)
    }

    /// Serves a whole-line read for an upper cache level, with full
    /// energy metering and encoding bookkeeping at this level.
    pub fn load_line_through(&mut self, base: Address, buf: &mut [u64], lower: &mut dyn Backing) {
        self.transfer_through(base, false, lower, |level| level.load_line(base, buf));
    }

    /// Accepts a whole-line spill from an upper cache level, with full
    /// energy metering and encoding bookkeeping at this level.
    pub fn store_line_through(&mut self, base: Address, data: &[u64], lower: &mut dyn Backing) {
        self.transfer_through(base, true, lower, |level| level.store_line(base, data));
    }

    /// One metered line transfer at this level, then its bookkeeping.
    fn transfer_through(
        &mut self,
        base: Address,
        is_write: bool,
        lower: &mut dyn Backing,
        transfer: impl FnOnce(&mut CacheLevel<'_>),
    ) {
        self.lane.verify_before_use(&mut self.cache, base);
        transfer(&mut CacheLevel {
            cache: &mut self.cache,
            lower,
            observer: &mut self.lane,
        });
        self.lane
            .after_line_transfer(&mut self.cache, base, is_write);
    }

    /// One background scrub pass: verifies (and repairs where possible)
    /// the direction metadata of every valid line. Replay loops call this
    /// every N accesses so upsets on idle lines are caught before a
    /// second one lands and defeats SECDED.
    pub fn scrub_metadata(&mut self) -> ScrubReport {
        let report = self.lane.sweep_metadata(&mut self.cache);
        self.lane.reliability.scrub_passes += 1;
        self.lane.reliability.scrub_lines_checked += report.lines_checked;
        report
    }

    /// Applies every queued re-encoding immediately (e.g. before a
    /// simulation-ending flush), returning how many were applied.
    pub fn drain_pending(&mut self) -> usize {
        self.lane.drain_pending(&mut self.cache)
    }

    /// Drains pending updates, then writes all dirty lines back to memory
    /// (charging write-back reads), returning the number written back.
    pub fn flush(&mut self) -> usize {
        flush(&mut self.cache, &mut self.memory, &mut self.lane)
    }

    /// [`flush`](Self::flush) against an external backing (for stacked
    /// levels).
    pub fn flush_through(&mut self, lower: &mut dyn Backing) -> usize {
        flush(&mut self.cache, lower, &mut self.lane)
    }

    /// Produces the full energy/activity report.
    pub fn report(&self) -> EnergyReport {
        self.lane.report(self.cache.stats().clone())
    }

    /// [`report`](Self::report), but consuming the cache: the accumulated
    /// breakdown, statistics, and name move into the report instead of
    /// being cloned. Use at end of run when the cache is done.
    pub fn into_report(self) -> EnergyReport {
        self.lane.into_report(self.cache.into_stats())
    }

    /// The direction bits of the (valid) line at `loc`.
    ///
    /// # Panics
    ///
    /// Panics if `loc` is out of range.
    pub fn direction_bits(&self, loc: LineLocation) -> &DirectionBits {
        self.lane.states[self.lane.line_index(loc)].dirs.bits()
    }

    /// The protected direction metadata (vector + check bits) of the
    /// line at `loc`.
    ///
    /// # Panics
    ///
    /// Panics if `loc` is out of range.
    pub fn protected_direction_bits(&self, loc: LineLocation) -> &ProtectedDirectionBits {
        &self.lane.states[self.lane.line_index(loc)].dirs
    }

    /// Materializes the *stored* (encoded) form of the line at `loc`, as
    /// the SRAM array would hold it. Returns `None` for invalid lines.
    ///
    /// # Panics
    ///
    /// Panics if `loc` is out of range.
    pub fn stored_line(&self, loc: LineLocation) -> Option<Vec<u64>> {
        self.cache.is_valid(loc).then(|| {
            self.lane
                .codec
                .apply(self.cache.words(loc), self.direction_bits(loc))
        })
    }

    /// Iterates over all valid lines as `(location, logical line,
    /// direction bits)`.
    pub fn valid_lines(&self) -> impl Iterator<Item = (LineLocation, &[u64], &DirectionBits)> {
        self.cache
            .valid_lines()
            .map(move |(loc, words)| (loc, words, self.direction_bits(loc)))
    }

    /// Fault injection for reliability studies: flips the stored direction
    /// bit of `partition` on the line at `loc` *without* re-encoding the
    /// data — simulating a soft-error upset in the H&D metadata array.
    /// From this point the affected partition decodes inverted: **silent
    /// data corruption**, the hazard the `fig13` experiment quantifies.
    ///
    /// Returns `false` (and injects nothing) if the line is invalid.
    ///
    /// # Panics
    ///
    /// Panics if `loc` or `partition` is out of range.
    pub fn inject_direction_fault(&mut self, loc: LineLocation, partition: u32) -> bool {
        if !self.cache.is_valid(loc) {
            return false;
        }
        let lane = &mut self.lane;
        let idx = lane.line_index(loc);
        // `upset_direction` (not a legal update) leaves the protection
        // check bits stale — exactly what a particle strike does, and what
        // the next verification must catch.
        lane.states[idx].dirs.upset_direction(partition);
        lane.reliability.faults_injected += 1;
        // The simulator stores *logical* data and derives the physical
        // stored bits as `logical ^ direction`. A metadata upset leaves
        // the physical bits untouched while the direction lies about
        // them, so the logical view inverts: toggle the direction AND
        // invert the partition's logical words — the stored form
        // `logical' ^ direction' = logical ^ direction` stays fixed, and
        // every subsequent read returns corrupted data, exactly as in
        // hardware. The dirty flag is preserved (an upset is not a write).
        let (start, len) = lane.codec.layout().range(partition);
        // Mutating through `words_mut` leaves the dirty flag alone,
        // which is exactly right: an upset is not a write.
        cnt_encoding::popcount::invert_range(self.cache.words_mut(loc), start, len);
        true
    }

    /// Fault injection into the protection *check* bits themselves: flips
    /// stored check bit `bit` of the line at `loc` without touching the
    /// direction vector or the data. SECDED corrects these; parity
    /// detects its own bit's upset.
    ///
    /// Returns `false` (and injects nothing) if the line is invalid or
    /// the active protection mode stores fewer than `bit + 1` check bits.
    ///
    /// # Panics
    ///
    /// Panics if `loc` is out of range.
    pub fn inject_check_fault(&mut self, loc: LineLocation, bit: u32) -> bool {
        self.inject_metadata_fault(loc, |state| {
            (bit < state.dirs.check_storage_bits()).then(|| state.dirs.upset_check(bit))
        })
    }

    /// Fault injection into the history (H) counters: flips stored bit
    /// `bit` of the packed `A_num`/`Wr_num` register of the line at `loc`
    /// without updating the protection check bits — a soft-error upset in
    /// the H metadata array. Unprotected, the corrupted counters silently
    /// skew the next window's prediction (fired early or late, with a
    /// wrong `Wr_num`); protected, the next verification repairs them.
    ///
    /// Returns `false` (and injects nothing) if the line is invalid or
    /// the register stores fewer than `bit + 1` counter bits.
    ///
    /// # Panics
    ///
    /// Panics if `loc` is out of range.
    pub fn inject_history_fault(&mut self, loc: LineLocation, bit: u32) -> bool {
        self.inject_metadata_fault(loc, |state| {
            (bit < state.history.data_bits()).then(|| state.history.upset_bit(bit))
        })
    }

    /// Stored data bits of each line's history (H) register — the valid
    /// `bit` range for [`inject_history_fault`](Self::inject_history_fault).
    pub fn history_data_bits(&self) -> u32 {
        self.lane.fresh_history.data_bits()
    }

    /// Fault injection into the history register's protection *check*
    /// bits (the counterpart of [`inject_check_fault`](Self::inject_check_fault)
    /// for the H field).
    ///
    /// Returns `false` (and injects nothing) if the line is invalid or
    /// the active mode stores fewer than `bit + 1` check bits over the
    /// history register.
    ///
    /// # Panics
    ///
    /// Panics if `loc` is out of range.
    pub fn inject_history_check_fault(&mut self, loc: LineLocation, bit: u32) -> bool {
        self.inject_metadata_fault(loc, |state| {
            (bit < state.history.check_storage_bits()).then(|| state.history.upset_check(bit))
        })
    }

    /// Applies `upset` to the metadata of the valid line at `loc`,
    /// counting the injection when `upset` accepts its bit index.
    fn inject_metadata_fault(
        &mut self,
        loc: LineLocation,
        upset: impl FnOnce(&mut LineState) -> Option<()>,
    ) -> bool {
        if !self.cache.is_valid(loc) {
            return false;
        }
        let idx = self.lane.line_index(loc);
        let injected = upset(&mut self.lane.states[idx]).is_some();
        if injected {
            self.lane.reliability.faults_injected += 1;
        }
        injected
    }

    /// Audits the cache's internal invariants: per-line metadata shape,
    /// history-counter bounds, and FIFO referential integrity. Intended
    /// for tests and debugging; a healthy cache always passes.
    ///
    /// # Errors
    ///
    /// Returns an [`AuditError`] describing the first violated invariant.
    pub fn audit(&self) -> Result<(), AuditError> {
        let lane = &self.lane;
        let geometry = &lane.config.geometry;
        let expected_states = geometry.num_lines() as usize;
        if lane.states.len() != expected_states {
            return Err(AuditError::new(format!(
                "state table holds {} entries, geometry has {expected_states} lines",
                lane.states.len()
            )));
        }
        let partitions = lane.codec.layout().partitions();
        let window = lane.predictor.as_ref().map(|p| p.config().window);
        for (i, state) in lane.states.iter().enumerate() {
            if state.dirs.partitions() != partitions {
                return Err(AuditError::new(format!(
                    "line {i}: direction bits track {} partitions, codec has {partitions}",
                    state.dirs.partitions()
                )));
            }
            if state.history.window() != lane.fresh_history.window() {
                return Err(AuditError::new(format!(
                    "line {i}: history register window {} does not match the cache's {}",
                    state.history.window(),
                    lane.fresh_history.window()
                )));
            }
            // Counter-bound invariants hold on fault-free runs; injected
            // history upsets legitimately push the counters out of range
            // until the next verification repairs or resets them.
            if lane.reliability.faults_injected == 0 {
                if state.history.writes() > state.history.accesses() {
                    return Err(AuditError::new(format!(
                        "line {i}: write counter {} exceeds access counter {}",
                        state.history.writes(),
                        state.history.accesses()
                    )));
                }
                if let Some(w) = window {
                    if state.history.accesses() >= w {
                        return Err(AuditError::new(format!(
                            "line {i}: history counter {} reached the window {w} without reset",
                            state.history.accesses()
                        )));
                    }
                }
            }
            // On a fault-free run the protection code must be clean for
            // every line; only injected upsets may break it (until the
            // next verification repairs or degrades the line).
            if lane.reliability.faults_injected == 0
                && state.dirs.verdict() != ProtectionVerdict::Clean
            {
                return Err(AuditError::new(format!(
                    "line {i}: protection check bits inconsistent with the direction \
                     vector on a fault-free run"
                )));
            }
        }
        let partition_mask = if partitions == 64 {
            u64::MAX
        } else {
            (1u64 << partitions) - 1
        };
        for update in lane.fifo.iter() {
            if update.set >= geometry.num_sets()
                || u64::from(update.way) >= u64::from(geometry.associativity())
            {
                return Err(AuditError::new(format!(
                    "fifo references out-of-range location set {} way {}",
                    update.set, update.way
                )));
            }
            if update.flips & !partition_mask != 0 {
                return Err(AuditError::new(format!(
                    "fifo flip mask {:#x} has bits above the {partitions}-partition layout",
                    update.flips
                )));
            }
            if update.flips == 0 {
                return Err(AuditError::new("fifo holds a no-op update".to_string()));
            }
            if !update.saving_fj.is_finite() || update.saving_fj < 0.0 {
                return Err(AuditError::new(format!(
                    "fifo update carries a non-finite or negative projected saving {}",
                    update.saving_fj
                )));
            }
            if !self.cache.is_valid(update.location()) {
                return Err(AuditError::new(format!(
                    "fifo update targets invalid line at set {} way {}",
                    update.set, update.way
                )));
            }
        }
        Ok(())
    }

    /// Captures the complete resumable state: lines, memory, per-line
    /// encoding metadata, the deferred-update FIFO, all counters, and the
    /// accumulated energy breakdown. Everything derived purely from the
    /// configuration (codec, predictor, threshold table) is *not*
    /// captured — it is rebuilt identically on restore.
    pub(crate) fn checkpoint_data(&self) -> CacheCheckpoint {
        let lane = &self.lane;
        CacheCheckpoint {
            cache: self.cache.snapshot(),
            memory: self.memory.snapshot(),
            states: lane.states.clone(),
            fifo_queue: lane.fifo.iter().copied().collect(),
            fifo_stats: *lane.fifo.stats(),
            counters: lane.counters,
            reliability: lane.reliability,
            degraded_lines: lane.degraded_lines.clone(),
            breakdown: lane.meter.breakdown().clone(),
        }
    }

    /// Replaces the cache's state with `ckpt`, validating every shape
    /// against the live configuration *before* mutating anything: on
    /// error the cache is exactly as it was (never a partial restore).
    pub(crate) fn restore_from(&mut self, ckpt: CacheCheckpoint) -> Result<(), String> {
        let lane = &mut self.lane;
        let expected = lane.config.geometry.num_lines() as usize;
        if ckpt.states.len() != expected {
            return Err(format!(
                "checkpoint carries {} line states, geometry has {expected} lines",
                ckpt.states.len()
            ));
        }
        let partitions = lane.codec.layout().partitions();
        for (i, s) in ckpt.states.iter().enumerate() {
            if s.dirs.partitions() != partitions {
                return Err(format!(
                    "line {i}: direction bits track {} partitions, codec has {partitions}",
                    s.dirs.partitions()
                ));
            }
            if s.dirs.mode() != lane.protection {
                return Err(format!(
                    "line {i}: direction protection {:?} does not match the configured {:?}",
                    s.dirs.mode(),
                    lane.protection
                ));
            }
            if s.history.window() != lane.fresh_history.window() {
                return Err(format!(
                    "line {i}: history window {} does not match the configured {}",
                    s.history.window(),
                    lane.fresh_history.window()
                ));
            }
            if s.history.mode() != lane.protection {
                return Err(format!(
                    "line {i}: history protection {:?} does not match the configured {:?}",
                    s.history.mode(),
                    lane.protection
                ));
            }
        }
        // Build every fallible piece on the side first ...
        let memory = MainMemory::from_snapshot(ckpt.memory)?;
        let mut fifo = lane.fifo.clone();
        fifo.restore(FifoSnapshot {
            queue: ckpt.fifo_queue,
            stats: ckpt.fifo_stats,
        })?;
        // ... then perform the one in-place (but itself all-or-nothing)
        // restore, and only after it succeeds commit the rest.
        self.cache.restore(ckpt.cache)?;
        self.memory = memory;
        lane.fifo = fifo;
        lane.states = ckpt.states;
        lane.counters = ckpt.counters;
        lane.reliability = ckpt.reliability;
        lane.degraded_lines = ckpt.degraded_lines;
        lane.meter.restore_breakdown(ckpt.breakdown);
        Ok(())
    }
}

pub(crate) fn bad_state(section: &str, what: impl Into<String>) -> CheckpointError {
    CheckpointError::BadState {
        section: section.to_string(),
        what: what.into(),
    }
}

impl Checkpointable for CntCache {
    fn section_name(&self) -> &'static str {
        "cache"
    }

    fn encode_state(&self) -> Result<Vec<u8>, CheckpointError> {
        serde_json::to_string(&self.checkpoint_data())
            .map(String::into_bytes)
            .map_err(|e| bad_state("cache", format!("serialize: {e}")))
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let text =
            std::str::from_utf8(bytes).map_err(|_| bad_state("cache", "payload is not UTF-8"))?;
        let ckpt: CacheCheckpoint =
            serde_json::from_str(text).map_err(|e| bad_state("cache", format!("decode: {e}")))?;
        self.restore_from(ckpt)
            .map_err(|what| bad_state("cache", what))
    }
}

/// The more severe of two protection verdicts, for combined reporting of
/// the D-bit and H-counter checks on one line.
fn worse_verdict(a: ProtectionVerdict, b: ProtectionVerdict) -> ProtectionVerdict {
    fn rank(v: ProtectionVerdict) -> u8 {
        match v {
            ProtectionVerdict::Clean => 0,
            ProtectionVerdict::CorrectedCheck => 1,
            ProtectionVerdict::CorrectedData(_) => 2,
            ProtectionVerdict::Uncorrectable => 3,
        }
    }
    if rank(b) > rank(a) {
        b
    } else {
        a
    }
}

/// An internal invariant violated, as reported by [`CntCache::audit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditError {
    message: String,
}

impl AuditError {
    fn new(message: String) -> Self {
        AuditError { message }
    }
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cache invariant violated: {}", self.message)
    }
}

impl std::error::Error for AuditError {}

/// The lane meters raw array events on its *stored* bit view.
impl ArrayObserver for EncodingLane {
    fn word_read(&mut self, loc: LineLocation, word_index: usize, value: u64) {
        if self.zero_flag {
            // The flag is always read; a set flag short-circuits the word.
            self.meter.charge_read_bits_scaled(
                u32::from(value == 0),
                1,
                ChargeKind::MetadataRead,
                self.sidecar_scale(),
            );
            if value != 0 {
                self.meter
                    .charge_read_word_kind(value, 64, ChargeKind::DataRead);
            }
            return;
        }
        let dirs = &self.states[self.line_index(loc)].dirs;
        let stored = self.codec.stored_word(value, dirs, word_index);
        self.meter
            .charge_read_word_kind(stored, 64, ChargeKind::DataRead);
    }

    fn word_written(&mut self, loc: LineLocation, word_index: usize, _old: u64, new: u64) {
        if self.zero_flag {
            // The flag is re-written; a zero word writes nothing else.
            self.meter.charge_write_bits_scaled(
                u32::from(new == 0),
                1,
                ChargeKind::MetadataWrite,
                self.sidecar_scale(),
            );
            if new != 0 {
                self.meter
                    .charge_write_word_kind(new, 64, ChargeKind::DataWrite);
            }
            return;
        }
        let dirs = &self.states[self.line_index(loc)].dirs;
        let stored = self.codec.stored_word(new, dirs, word_index);
        self.meter
            .charge_write_word_kind(stored, 64, ChargeKind::DataWrite);
    }

    fn line_filled(&mut self, loc: LineLocation, _base: Address, data: &[u64]) {
        let idx = self.line_index(loc);
        // Any queued update belongs to the evicted occupant of this slot.
        self.fifo.cancel_where(|u| u.location() == loc);
        if self.zero_flag {
            self.states[idx] = LineState::fresh(
                ProtectedDirectionBits::all_normal(1, self.protection),
                self.fresh_history,
            );
            let nonzero = data.iter().filter(|&&w| w != 0).count() as u32;
            // One flag per word is written; only non-zero words hit the array.
            self.meter.charge_write_bits_scaled(
                nonzero,
                data.len() as u32,
                ChargeKind::MetadataWrite,
                self.sidecar_scale(),
            );
            for &w in data.iter().filter(|&&w| w != 0) {
                self.meter
                    .charge_write_word_kind(w, 64, ChargeKind::LineFill);
            }
            return;
        }
        let dirs = match self.fill_preference {
            Some(pref) => self.codec.choose_directions(data, pref),
            None => DirectionBits::all_normal(self.codec.layout().partitions()),
        };
        let dirs = ProtectedDirectionBits::new(dirs, self.protection);
        self.states[idx] = LineState::fresh(dirs, self.fresh_history);
        if self.protection != ProtectionMode::None {
            // A fresh line's check bits are computed and written with it.
            self.meter.charge_write_bits_scaled(
                dirs.check_ones(),
                dirs.check_storage_bits(),
                ChargeKind::ProtectionUpdate,
                self.sidecar_scale(),
            );
        }
        let ones = self.codec.stored_popcount(data, dirs.bits());
        self.meter.charge_write_bits_kind(
            ones,
            self.codec.layout().line_bits(),
            ChargeKind::LineFill,
        );
    }

    fn line_evicted(&mut self, loc: LineLocation, _base: Address, data: &[u64], dirty: bool) {
        if !dirty {
            return; // clean lines drop without an array read
        }
        if self.zero_flag {
            self.meter.charge_read_bits_scaled(
                data.iter().filter(|&&w| w == 0).count() as u32,
                data.len() as u32,
                ChargeKind::MetadataRead,
                self.sidecar_scale(),
            );
            for &w in data.iter().filter(|&&w| w != 0) {
                self.meter
                    .charge_read_word_kind(w, 64, ChargeKind::Writeback);
            }
            return;
        }
        let dirs = &self.states[self.line_index(loc)].dirs;
        let ones = self.codec.stored_popcount(data, dirs);
        self.meter.charge_read_bits_kind(
            ones,
            self.codec.layout().line_bits(),
            ChargeKind::Writeback,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::AdaptiveParams;
    use cnt_energy::SramEnergyModel;

    fn config(policy: EncodingPolicy) -> CntCacheConfig {
        CntCacheConfig::builder()
            .size_bytes(4096)
            .line_bytes(64)
            .associativity(2)
            .policy(policy)
            .build()
            .expect("valid config")
    }

    fn adaptive(window: u32, partitions: u32) -> EncodingPolicy {
        EncodingPolicy::Adaptive(AdaptiveParams {
            window,
            partitions,
            ..AdaptiveParams::paper_default()
        })
    }

    #[test]
    fn correctness_is_policy_independent() {
        for policy in [
            EncodingPolicy::None,
            EncodingPolicy::StaticInvert {
                preference: BitPreference::MoreOnes,
                partitions: 8,
            },
            adaptive(4, 8),
        ] {
            let mut cache = CntCache::new(config(policy)).expect("valid cache");
            for i in 0..64u64 {
                cache
                    .write(Address::new(i * 8), 8, i * 0x0101)
                    .expect("write");
            }
            for i in 0..64u64 {
                let v = cache.read(Address::new(i * 8), 8).expect("read");
                assert_eq!(v, i * 0x0101, "policy {policy} corrupted data");
            }
            cache.flush();
            for i in 0..64u64 {
                assert_eq!(cache.memory_mut().load(Address::new(i * 8), 8), i * 0x0101);
            }
        }
    }

    #[test]
    fn baseline_charges_logical_bits() {
        let mut cache = CntCache::new(config(EncodingPolicy::None)).expect("valid");
        cache.write(Address::new(0), 8, u64::MAX).expect("write");
        let b = cache.meter().breakdown();
        // Fill wrote a zero line (64 B of zeros from cold memory), then the
        // demand write stored 64 one-bits.
        assert_eq!(b.bits_written_one, 64);
        assert_eq!(b.bits(ChargeKind::LineFill), 512);
        assert_eq!(b.bits(ChargeKind::DataWrite), 64);
    }

    #[test]
    fn static_invert_stores_preferred_bits() {
        // All-zero data with a MoreOnes static policy must be stored as
        // all ones.
        let mut cache = CntCache::new(config(EncodingPolicy::StaticInvert {
            preference: BitPreference::MoreOnes,
            partitions: 8,
        }))
        .expect("valid");
        cache.read(Address::new(0), 8).expect("read");
        assert!(cache.cache.find(Address::new(0)).is_some(), "line resident");
        let (loc, line, dirs) = cache.valid_lines().next().expect("one line");
        assert!(line.iter().all(|&w| w == 0), "logical content is zero");
        assert_eq!(dirs.inverted_count(), 8, "all partitions inverted");
        let stored = cache.stored_line(loc).expect("valid");
        assert!(stored.iter().all(|&w| w == u64::MAX));
        // The fill charged 512 one-bit writes.
        assert_eq!(cache.meter().breakdown().bits_written_one, 512);
    }

    #[test]
    fn adaptive_read_loop_flips_zero_line_to_ones() {
        let mut cache = CntCache::new(config(adaptive(4, 8))).expect("valid");
        // Read the same zero line many times: the predictor must decide to
        // invert (stored ones are cheaper to read) and the FIFO must drain.
        for _ in 0..16 {
            cache.read(Address::new(0), 8).expect("read");
        }
        let report = cache.report();
        assert!(
            report.encoding.windows >= 3,
            "windows: {}",
            report.encoding.windows
        );
        assert!(report.encoding.switches_applied >= 1, "no switch applied");
        let (loc, _, dirs) = cache.valid_lines().next().expect("resident line");
        assert_eq!(dirs.inverted_count(), 8);
        let stored = cache.stored_line(loc).expect("valid");
        assert!(stored.iter().all(|&w| w == u64::MAX));
    }

    #[test]
    fn adaptive_saves_energy_on_skewed_read_workload() {
        // The headline mechanism: reading mostly-zero data repeatedly is
        // cheaper with adaptive encoding than without.
        let run = |policy| {
            let mut cache = CntCache::new(config(policy)).expect("valid");
            for round in 0..64 {
                for line in 0..8u64 {
                    let _ = round;
                    cache.read(Address::new(line * 64), 8).expect("read");
                }
            }
            cache.total_energy()
        };
        let baseline = run(EncodingPolicy::None);
        let adaptive_e = run(adaptive(15, 8));
        assert!(
            adaptive_e < baseline,
            "adaptive {adaptive_e} must beat baseline {baseline}"
        );
    }

    #[test]
    fn eviction_cancels_pending_updates() {
        // Create a switch decision, then evict the line before any idle
        // slot drains it; the update must not be applied to the newcomer.
        // drain_per_access = 0 keeps the update queued until we say so.
        let policy = EncodingPolicy::Adaptive(AdaptiveParams {
            window: 4,
            partitions: 8,
            drain_per_access: 0,
            ..AdaptiveParams::paper_default()
        });
        let mut cache = CntCache::new(config(policy)).expect("valid");
        // 4 misses+reads on line 0 complete a window on the 4th access
        // (a miss is not a hit, so nothing drains).
        for _ in 0..4 {
            cache.read(Address::new(0x000), 8).expect("read");
        }
        // The decision (flip to ones) is queued. Now evict line 0 by
        // touching two conflicting lines (2-way set).
        cache.read(Address::new(0x1000), 8).expect("read");
        cache.read(Address::new(0x2000), 8).expect("read");
        cache.read(Address::new(0x3000), 8).expect("read");
        // The queued update was cancelled by the fill into its slot.
        assert_eq!(cache.fifo_stats().pushed, 1, "one decision was queued");
        assert_eq!(cache.encoding_counters().switches_applied, 0);
        assert_eq!(cache.drain_pending(), 0, "nothing left to apply");
        // And no state was corrupted: all resident lines decode correctly.
        for (loc, line, dirs) in cache.valid_lines().collect::<Vec<_>>() {
            let stored = cache.stored_line(loc).expect("valid");
            let decoded = cache.lane.codec.decode(&stored, dirs);
            assert_eq!(decoded, line);
        }
    }

    #[test]
    fn flush_accounts_writebacks_on_stored_bits() {
        let mut cache = CntCache::new(config(EncodingPolicy::None)).expect("valid");
        cache.write(Address::new(0), 8, 0xF0F0).expect("write");
        let before = cache.meter().breakdown().bits(ChargeKind::Writeback);
        assert_eq!(before, 0);
        let flushed = cache.flush();
        assert_eq!(flushed, 1);
        assert_eq!(cache.meter().breakdown().bits(ChargeKind::Writeback), 512);
        assert_eq!(cache.memory_mut().load(Address::new(0), 8), 0xF0F0);
    }

    #[test]
    fn metadata_metering_can_be_disabled() {
        let mut with_md = CntCacheConfig::builder()
            .policy(EncodingPolicy::adaptive_default())
            .build()
            .expect("valid");
        with_md.meter_metadata = true;
        let mut without_md = with_md.clone();
        without_md.meter_metadata = false;

        let run = |cfg| {
            let mut cache = CntCache::new(cfg).expect("valid");
            for i in 0..32u64 {
                cache.read(Address::new(i * 8), 8).expect("read");
            }
            let b = cache.meter().breakdown().clone();
            b.energy(ChargeKind::MetadataRead) + b.energy(ChargeKind::MetadataWrite)
        };
        assert!(run(with_md).femtojoules() > 0.0);
        assert_eq!(run(without_md).femtojoules(), 0.0);
    }

    #[test]
    fn cmos_model_yields_higher_energy() {
        let mut cnfet_cfg = config(EncodingPolicy::None);
        cnfet_cfg.energy = SramEnergyModel::cnfet_default();
        let mut cmos_cfg = config(EncodingPolicy::None);
        cmos_cfg.energy = SramEnergyModel::cmos_default();

        let run = |cfg| {
            let mut cache = CntCache::new(cfg).expect("valid");
            for i in 0..64u64 {
                cache.write(Address::new(i * 8), 8, 0xABCD).expect("write");
                cache.read(Address::new(i * 8), 8).expect("read");
            }
            cache.total_energy()
        };
        assert!(run(cmos_cfg) > run(cnfet_cfg) * 1.5);
    }

    #[test]
    fn inline_updates_apply_immediately_and_count_stalls() {
        let policy = EncodingPolicy::Adaptive(AdaptiveParams {
            window: 4,
            partitions: 8,
            inline_updates: true,
            ..AdaptiveParams::paper_default()
        });
        let mut cache = CntCache::new(config(policy)).expect("valid");
        for _ in 0..4 {
            cache.read(Address::new(0), 8).expect("read");
        }
        let c = cache.encoding_counters();
        assert_eq!(c.switches_applied, 1, "inline decision applies at once");
        assert_eq!(c.inline_partition_flips, 8);
        assert_eq!(cache.fifo_stats().pushed, 0, "the FIFO is bypassed");
        // The FIFO design pays zero stall cycles on the same workload.
        let mut fifo_cache = CntCache::new(config(adaptive(4, 8))).expect("valid");
        for _ in 0..4 {
            fifo_cache.read(Address::new(0), 8).expect("read");
        }
        assert_eq!(fifo_cache.encoding_counters().inline_partition_flips, 0);
    }

    #[test]
    fn sticky_classifier_suppresses_alternating_patterns() {
        // Alternate read-only and write-only windows on one line: with
        // confirm_windows = 2 the pattern never stabilizes, so no switch
        // is ever issued, while the plain predictor churns.
        let run = |confirm_windows: u32| {
            let policy = EncodingPolicy::Adaptive(AdaptiveParams {
                window: 4,
                partitions: 1,
                delta_t: 0.0,
                confirm_windows,
                ..AdaptiveParams::paper_default()
            });
            let mut cache = CntCache::new(config(policy)).expect("valid");
            for window in 0..32 {
                for _ in 0..4 {
                    if window % 2 == 0 {
                        cache.read(Address::new(0), 8).expect("read");
                    } else {
                        cache.write(Address::new(0), 8, u64::MAX).expect("write");
                    }
                }
            }
            (
                cache.encoding_counters().switch_decisions,
                cache.encoding_counters().suppressed_by_confirmation,
            )
        };
        let (plain_switches, plain_suppressed) = run(1);
        let (sticky_switches, sticky_suppressed) = run(2);
        assert_eq!(plain_suppressed, 0);
        assert!(plain_switches > 0, "the plain predictor must churn here");
        assert!(
            sticky_switches < plain_switches,
            "sticky ({sticky_switches}) must cut churn vs plain ({plain_switches})"
        );
        assert!(sticky_suppressed > 0);
    }

    #[test]
    fn write_through_cache_meters_and_preserves_data() {
        let mut cfg = config(adaptive(4, 8));
        cfg.write_mode = cnt_sim::WriteMode::WriteThrough;
        let mut cache = CntCache::new(cfg).expect("valid");
        for i in 0..32u64 {
            cache.write(Address::new(i * 8), 8, i).expect("write");
        }
        for i in 0..32u64 {
            assert_eq!(cache.read(Address::new(i * 8), 8).expect("read"), i);
            // Already in memory without any flush.
            assert_eq!(cache.memory_mut().load(Address::new(i * 8), 8), i);
        }
        assert_eq!(cache.stats().writethroughs, 32);
        assert_eq!(cache.flush(), 0, "write-through lines are never dirty");
    }

    #[test]
    fn write_around_misses_skip_encoding_state() {
        let mut cfg = config(adaptive(4, 8));
        cfg.write_mode = cnt_sim::WriteMode::WriteThroughNoAllocate;
        let mut cache = CntCache::new(cfg).expect("valid");
        // Pure store misses: nothing allocates, no windows complete.
        for i in 0..64u64 {
            cache.write(Address::new(i * 64), 8, i).expect("write");
        }
        assert_eq!(cache.valid_lines().count(), 0);
        assert_eq!(cache.encoding_counters().windows, 0);
        // Data is still architecturally correct.
        for i in 0..64u64 {
            assert_eq!(cache.memory_mut().load(Address::new(i * 64), 8), i);
        }
    }

    #[test]
    fn timing_model_charges_only_inline_designs() {
        use crate::report::TimingModel;
        let run = |inline_updates: bool| {
            let policy = EncodingPolicy::Adaptive(AdaptiveParams {
                window: 4,
                partitions: 8,
                inline_updates,
                ..AdaptiveParams::paper_default()
            });
            let mut cache = CntCache::new(config(policy)).expect("valid");
            for _ in 0..64 {
                cache.read(Address::new(0), 8).expect("read");
            }
            cache.report()
        };
        let fifo = run(false);
        let inline = run(true);
        let timing = TimingModel::default();
        assert!(
            timing.total_cycles(&inline) > timing.total_cycles(&fifo),
            "inline re-encodes must cost cycles"
        );
        assert!(timing.overhead(&fifo, &inline) > 0.0);
    }

    #[test]
    fn zero_flag_skips_zero_words() {
        let mut cache = CntCache::new(config(EncodingPolicy::ZeroFlag)).expect("valid");
        // A zero line: the fill writes only flags, reads cost only flags.
        for _ in 0..8 {
            cache.read(Address::new(0), 8).expect("read");
        }
        let b = cache.meter().breakdown();
        assert_eq!(b.bits(ChargeKind::DataRead), 0, "zero words skip the array");
        assert_eq!(b.bits(ChargeKind::LineFill), 0, "zero fill skips the array");
        assert!(b.bits(ChargeKind::MetadataRead) > 0, "flags are read");

        // A dense word pays the full array cost plus its flag.
        cache.write(Address::new(0x40), 8, u64::MAX).expect("write");
        let b = cache.meter().breakdown();
        assert_eq!(b.bits(ChargeKind::DataWrite), 64);
        cache.read(Address::new(0x40), 8).expect("read");
        assert_eq!(cache.meter().breakdown().bits(ChargeKind::DataRead), 64);
    }

    #[test]
    fn zero_flag_preserves_semantics_and_audit() {
        let mut cache = CntCache::new(config(EncodingPolicy::ZeroFlag)).expect("valid");
        for i in 0..128u64 {
            cache.write(Address::new(i * 8), 8, i % 3).expect("write");
        }
        for i in 0..128u64 {
            assert_eq!(cache.read(Address::new(i * 8), 8).expect("read"), i % 3);
        }
        cache.flush();
        for i in 0..128u64 {
            assert_eq!(cache.memory_mut().load(Address::new(i * 8), 8), i % 3);
        }
        assert!(cache.audit().is_ok());
        assert_eq!(cache.encoding_counters().windows, 0, "no predictor runs");
    }

    #[test]
    fn zero_flag_beats_baseline_on_zero_data_only() {
        let run = |policy, value: u64| {
            let mut cache = CntCache::new(config(policy)).expect("valid");
            for round in 0..16 {
                for line in 0..8u64 {
                    let _ = round;
                    cache
                        .write(Address::new(line * 64), 8, value)
                        .expect("write");
                    cache.read(Address::new(line * 64), 8).expect("read");
                }
            }
            cache.total_energy()
        };
        // Mostly-zero traffic: zero-flag wins big.
        let ratio_zero = run(EncodingPolicy::ZeroFlag, 0).ratio(run(EncodingPolicy::None, 0));
        assert!(ratio_zero < 0.2, "zero data: ratio {ratio_zero}");
        // Dense written words pay the full array cost either way; only the
        // untouched zero words of each line (fills) are skipped, so the
        // advantage nearly vanishes.
        let ratio_dense =
            run(EncodingPolicy::ZeroFlag, u64::MAX).ratio(run(EncodingPolicy::None, u64::MAX));
        assert!(
            ratio_dense > 0.85 && ratio_dense < 1.05,
            "dense data: ratio {ratio_dense}"
        );
    }

    /// A deterministic mixed read/write stream with enough conflict
    /// misses and window completions to exercise every piece of state.
    fn churn(cache: &mut CntCache, range: std::ops::Range<u64>) {
        for i in range {
            let addr = Address::new((i.wrapping_mul(0x61C8_8647) % 0x2000) & !7);
            if i % 3 == 0 {
                cache.write(addr, 8, i.wrapping_mul(0x9E37)).expect("write");
            } else {
                cache.read(addr, 8).expect("read");
            }
        }
    }

    fn report_json(cache: &CntCache) -> String {
        serde_json::to_string(&cache.report()).expect("report serializes")
    }

    #[test]
    fn checkpoint_restore_resumes_identically() {
        let mut cfg = config(adaptive(4, 8));
        cfg.protection = ProtectionMode::Secded;
        // Uninterrupted control run.
        let mut control = CntCache::new(cfg.clone()).expect("valid");
        churn(&mut control, 0..300);

        // Checkpoint halfway, continue the original ...
        let mut original = CntCache::new(cfg.clone()).expect("valid");
        churn(&mut original, 0..150);
        let bytes = original.encode_state().expect("encodes");
        churn(&mut original, 150..300);

        // ... and resume a fresh cache from the checkpoint.
        let mut resumed = CntCache::new(cfg).expect("valid");
        resumed.restore_state(&bytes).expect("restores");
        assert!(resumed.audit().is_ok(), "restored cache must audit clean");
        churn(&mut resumed, 150..300);

        let expected = report_json(&control);
        assert_eq!(report_json(&original), expected);
        assert_eq!(report_json(&resumed), expected, "resume diverged");
        assert_eq!(
            resumed.fifo_stats(),
            control.fifo_stats(),
            "FIFO history diverged"
        );
        // The backing memories agree too.
        assert_eq!(
            serde_json::to_string(&resumed.memory_mut().snapshot()).expect("json"),
            serde_json::to_string(&control.memory_mut().snapshot()).expect("json"),
        );
    }

    #[test]
    fn restore_rejects_mismatched_state_untouched() {
        let mut donor = CntCache::new(config(adaptive(4, 8))).expect("valid");
        churn(&mut donor, 0..100);
        let bytes = donor.encode_state().expect("encodes");

        // Same geometry, different predictor window: history registers
        // do not fit.
        let mut other_window = CntCache::new(config(adaptive(15, 8))).expect("valid");
        churn(&mut other_window, 0..10);
        let before = report_json(&other_window);
        let err = other_window.restore_state(&bytes).expect_err("must refuse");
        assert!(
            matches!(err, CheckpointError::BadState { .. }),
            "unexpected error {err:?}"
        );
        assert_eq!(report_json(&other_window), before, "partial restore");

        // Different geometry: wrong number of line states.
        let big = CntCacheConfig::builder()
            .size_bytes(8192)
            .line_bytes(64)
            .associativity(2)
            .policy(adaptive(4, 8))
            .build()
            .expect("valid");
        let mut other_geometry = CntCache::new(big).expect("valid");
        assert!(matches!(
            other_geometry.restore_state(&bytes),
            Err(CheckpointError::BadState { .. })
        ));

        // Garbage payload.
        let mut target = CntCache::new(config(adaptive(4, 8))).expect("valid");
        assert!(matches!(
            target.restore_state(b"not json"),
            Err(CheckpointError::BadState { .. })
        ));
    }

    #[test]
    fn unprotected_history_fault_skews_predictions_silently() {
        let run = |inject: bool| {
            let mut cache = CntCache::new(config(adaptive(8, 8))).expect("valid");
            // Make line 0 resident and two accesses into its window.
            for _ in 0..3 {
                cache.read(Address::new(0), 8).expect("read");
            }
            if inject {
                // Flip A_num bit 2: counter 3 -> 7, one short of the
                // window — the next access fires the window early and
                // every later boundary lands 4 accesses sooner.
                assert!(cache.inject_history_fault(LineLocation { set: 0, way: 0 }, 2));
            }
            // 36 accesses total: the clean run completes windows at
            // accesses 8/16/24/32, the skewed run at 4/12/20/28/36.
            for _ in 0..33 {
                cache.read(Address::new(0), 8).expect("read");
            }
            cache
        };
        let clean = run(false);
        let skewed = run(true);
        assert_ne!(
            clean.encoding_counters().windows,
            skewed.encoding_counters().windows,
            "the upset must shift every subsequent window boundary"
        );
        // ... and nothing detected it: that is the silent skew.
        assert_eq!(skewed.reliability_counters().faults_detected, 0);
    }

    #[test]
    fn protected_history_fault_is_repaired_with_zero_skew() {
        let run = |inject: bool| {
            let mut cfg = config(adaptive(8, 8));
            cfg.protection = ProtectionMode::Secded;
            let mut cache = CntCache::new(cfg).expect("valid");
            for _ in 0..3 {
                cache.read(Address::new(0), 8).expect("read");
            }
            if inject {
                assert!(cache.inject_history_fault(LineLocation { set: 0, way: 0 }, 2));
            }
            for _ in 0..32 {
                cache.read(Address::new(0), 8).expect("read");
            }
            cache
        };
        let clean = run(false);
        let faulted = run(true);
        assert_eq!(
            clean.encoding_counters(),
            faulted.encoding_counters(),
            "SECDED must repair the H counters before they skew a window"
        );
        assert!(faulted.reliability_counters().faults_corrected >= 1);
        assert_eq!(faulted.reliability_counters().faults_uncorrected, 0);
    }

    #[test]
    fn history_check_faults_are_detected() {
        let mut cfg = config(adaptive(8, 8));
        cfg.protection = ProtectionMode::Secded;
        let mut cache = CntCache::new(cfg).expect("valid");
        cache.read(Address::new(0), 8).expect("read");
        assert!(cache.inject_history_check_fault(LineLocation { set: 0, way: 0 }, 0));
        cache.read(Address::new(0), 8).expect("read");
        assert!(cache.reliability_counters().faults_corrected >= 1);
    }

    #[test]
    fn report_captures_activity() {
        let mut cache = CntCache::new(config(adaptive(4, 8))).expect("valid");
        for _ in 0..8 {
            cache.read(Address::new(0), 8).expect("read");
        }
        let r = cache.report();
        assert_eq!(r.stats.accesses(), 8);
        assert!(r.total().femtojoules() > 0.0);
        assert_eq!(r.metadata_bits_per_line, 8 + 6); // W=4 -> 2x3 bits, 8 dirs
        assert!(r.policy.contains("adaptive"));
    }
}
