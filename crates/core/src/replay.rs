//! The replay loop: the one place demand accesses are fed to a simulator.
//!
//! [`drive`] walks an access source, hands each access to a per-access
//! step ([`CntCache`](crate::CntCache)'s demand path, or
//! [`CntHierarchy::access`](crate::CntHierarchy::access) so instruction
//! fetches reach the L1I), and — when an epoch hook is attached — calls
//! it at every epoch boundary of an [`EpochClock`]. The clock is plain
//! data, so a replay that spans many calls (a streamed trace feeds one
//! chunk per call, and may resume from a checkpoint) keeps one clock
//! across all of them and ends with [`EpochClock::close`].

use cnt_sim::AccessError;

/// Called as `hook(sim, epoch, accesses)` at each epoch boundary.
pub type EpochHook<'a, S> = &'a mut dyn FnMut(&S, u64, u64);

/// Where a replay stands on its epoch grid: `accesses` replayed so far
/// and the index of the next `epoch`, with an epoch boundary whenever
/// `accesses` reaches a multiple of `every`.
///
/// The default clock (`every == 0`) has no boundaries; unobserved
/// replays use it only to count accesses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochClock {
    /// Epoch length in accesses.
    pub every: u64,
    /// Accesses replayed so far (cumulative).
    pub accesses: u64,
    /// Index of the epoch in progress.
    pub epoch: u64,
}

impl EpochClock {
    /// A fresh clock with `every`-access epochs.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn new(every: u64) -> Self {
        assert!(every > 0, "epoch length must be positive");
        EpochClock {
            every,
            ..EpochClock::default()
        }
    }

    /// Counts one access and, if it closes an epoch, calls
    /// `hook(sim, epoch, accesses)` — for replay loops that interleave
    /// their own work between accesses.
    #[inline]
    pub fn tick<S: ?Sized>(&mut self, sim: &S, hook: EpochHook<'_, S>) {
        self.accesses += 1;
        if self.accesses.is_multiple_of(self.every) {
            hook(sim, self.epoch, self.accesses);
            self.epoch += 1;
        }
    }

    /// Ends a replay: calls `hook(sim, epoch, accesses)` once more for a
    /// trailing partial epoch — or for the sole epoch of an empty replay
    /// — so the last accesses are never silently dropped and every
    /// replay yields at least one observation.
    pub fn close<S: ?Sized>(&self, sim: &S, hook: EpochHook<'_, S>) {
        if self.accesses == 0 || !self.accesses.is_multiple_of(self.every) {
            hook(sim, self.epoch, self.accesses);
        }
    }
}

/// Feeds every access of `source` to `step`, advancing `clock` and
/// calling `hook(sim, epoch, accesses)` after each access that closes
/// an epoch. Returns the number of accesses this call performed.
///
/// The hook borrows the simulator immutably, so it can capture
/// statistics, energy, and FIFO occupancy mid-replay without
/// disturbing the simulation. With no hook the loop does no epoch
/// bookkeeping beyond counting.
///
/// # Errors
///
/// Stops at and returns the first [`AccessError`] of `step`.
pub(crate) fn drive<S, I>(
    sim: &mut S,
    source: I,
    mut step: impl FnMut(&mut S, I::Item) -> Result<(), AccessError>,
    clock: &mut EpochClock,
    mut hook: Option<EpochHook<'_, S>>,
) -> Result<usize, AccessError>
where
    I: IntoIterator,
{
    let start = clock.accesses;
    for access in source {
        step(sim, access)?;
        match hook.as_deref_mut() {
            Some(hook) => clock.tick(sim, hook),
            None => clock.accesses += 1,
        }
    }
    Ok((clock.accesses - start) as usize)
}
