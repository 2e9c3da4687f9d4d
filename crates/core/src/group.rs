//! [`LaneGroup`]: several encoding lanes over one simulated cache.
//!
//! One [`Cache`] over one [`MainMemory`] fans its array events out to K
//! [`EncodingLane`]s through the same [`demand`] step a solo
//! [`CntCache`](crate::CntCache) takes, so each lane ends with exactly
//! the report a solo replay of its configuration produces. A lane writes
//! a line only on an injected metadata upset, and a group has no
//! fault-injection methods (DESIGN.md §17).

use std::borrow::Borrow;

use cnt_sim::trace::MemoryAccess;
use cnt_sim::{AccessError, Address, ArrayObserver, Cache, CacheStats, LineLocation, MainMemory};

use crate::cnt::{demand, flush, EncodingLane, Lanes};
use crate::config::{CntCacheConfig, ConfigError};
use crate::replay::{drive, EpochClock, EpochHook};
use crate::report::EnergyReport;

/// Several [`EncodingLane`]s metering one shared simulation.
///
/// # Example
///
/// ```
/// use cnt_cache::{CntCacheConfig, EncodingPolicy, EpochClock, LaneGroup};
/// use cnt_sim::trace::MemoryAccess;
/// use cnt_sim::Address;
///
/// let lane = |policy| CntCacheConfig::builder().policy(policy).build();
/// let mut group = LaneGroup::new(vec![
///     lane(EncodingPolicy::None)?,
///     lane(EncodingPolicy::adaptive_default())?,
/// ])?;
/// // Re-read eight zero lines: the adaptive lane learns to store ones.
/// let trace: Vec<_> = (0..512u64)
///     .map(|i| MemoryAccess::read(Address::new(i % 8 * 64), 8))
///     .collect();
/// group.run_observed(&trace, &mut EpochClock::default(), None)?;
/// group.flush();
/// let reports = group.into_reports();
/// assert!(reports[1].saving_vs(&reports[0]) > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct LaneGroup {
    cache: Cache,
    memory: MainMemory,
    lanes: FanOut,
}

/// Hands every array event to each lane in turn.
#[derive(Debug)]
struct FanOut(Vec<EncodingLane>);

impl ArrayObserver for FanOut {
    fn word_read(&mut self, loc: LineLocation, word_index: usize, value: u64) {
        for lane in &mut self.0 {
            lane.word_read(loc, word_index, value);
        }
    }

    fn word_written(&mut self, loc: LineLocation, word_index: usize, old: u64, new: u64) {
        for lane in &mut self.0 {
            lane.word_written(loc, word_index, old, new);
        }
    }

    fn line_filled(&mut self, loc: LineLocation, base: Address, data: &[u64]) {
        for lane in &mut self.0 {
            lane.line_filled(loc, base, data);
        }
    }

    fn line_evicted(&mut self, loc: LineLocation, base: Address, data: &[u64], dirty: bool) {
        for lane in &mut self.0 {
            lane.line_evicted(loc, base, data, dirty);
        }
    }
}

impl Lanes for FanOut {
    fn each(&mut self, f: impl FnMut(&mut EncodingLane)) {
        self.0.iter_mut().for_each(f);
    }
}

impl LaneGroup {
    /// One lane per configuration, in order, over fresh memory with the
    /// shared cold-fill pattern.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if an encoding policy is incompatible with
    /// the geometry.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty or two of them do not
    /// [share a simulator](CntCacheConfig::shares_simulator).
    pub fn new(configs: Vec<CntCacheConfig>) -> Result<Self, ConfigError> {
        let first = configs.first().expect("a lane group needs a lane");
        assert!(
            configs.iter().all(|c| c.shares_simulator(first)),
            "every lane of a group must share the simulated cache"
        );
        let cache = first.simulator();
        let memory = MainMemory::with_fill(first.fill_pattern);
        let lanes = configs
            .into_iter()
            .map(EncodingLane::new)
            .collect::<Result<_, _>>()?;
        Ok(LaneGroup {
            cache,
            memory,
            lanes: FanOut(lanes),
        })
    }

    /// The lanes, in configuration order.
    pub fn lanes(&self) -> &[EncodingLane] {
        &self.lanes.0
    }

    /// Hit/miss statistics of the shared cache (every lane's).
    pub fn stats(&self) -> &CacheStats {
        self.cache.stats()
    }

    /// Runs every access of `trace` like
    /// [`CntCache::run_observed`](crate::CntCache::run_observed), calling
    /// `epoch_hook(&self, epoch, accesses_so_far)` at each epoch
    /// boundary.
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
            |g, access| {
                demand(&mut g.cache, &mut g.memory, &mut g.lanes, access.borrow()).map(drop)
            },
            clock,
            epoch_hook,
        )
    }

    /// Drains every lane's pending updates, then writes all dirty lines
    /// back to memory, returning the number written back.
    pub fn flush(&mut self) -> usize {
        flush(&mut self.cache, &mut self.memory, &mut self.lanes)
    }

    /// Every lane's report, in configuration order, each over the shared
    /// cache statistics.
    pub fn into_reports(self) -> Vec<EnergyReport> {
        let stats = self.cache.into_stats();
        self.lanes
            .0
            .into_iter()
            .map(|lane| lane.into_report(stats.clone()))
            .collect()
    }
}
