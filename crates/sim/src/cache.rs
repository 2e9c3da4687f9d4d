//! The write-back, write-allocate set-associative cache.

use std::error::Error;
use std::fmt;

use crate::addr::Address;
use crate::config::CacheGeometry;
use crate::line::{CacheLine, LineArray, LineLocation};
use crate::memory::{check_access, extract, splice};
use crate::replacement::{ReplacementKind, ReplacementState};
use crate::stats::CacheStats;

/// Serializable image of a cache's mutable state: every line
/// (set-major, way-minor), per-set replacement state, and statistics.
/// The shape itself (geometry, write mode, prefetch policy) is *not*
/// captured — a snapshot restores only into a cache built with the same
/// configuration, and [`Cache::restore`] rejects shape mismatches.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CacheSnapshot {
    /// All lines, flattened as `set * ways + way`.
    pub lines: Vec<CacheLine>,
    /// One replacement-policy state per set.
    pub replacement: Vec<ReplacementState>,
    /// Accumulated statistics at capture time.
    pub stats: CacheStats,
}

/// Raw SRAM-array activity, reported as it happens.
///
/// The energy layer implements this to price every bit that moves through
/// the array; the default methods do nothing, and `()` is the no-op
/// observer.
pub trait ArrayObserver {
    /// A word was read out of the array (demand load portion of a hit).
    fn word_read(&mut self, loc: LineLocation, word_index: usize, value: u64) {
        let _ = (loc, word_index, value);
    }

    /// A word in the array was overwritten (demand store portion of a hit).
    fn word_written(&mut self, loc: LineLocation, word_index: usize, old: u64, new: u64) {
        let _ = (loc, word_index, old, new);
    }

    /// A whole line was written into the array after a miss.
    fn line_filled(&mut self, loc: LineLocation, base: Address, data: &[u64]) {
        let _ = (loc, base, data);
    }

    /// A line left the array (eviction or flush). `dirty` lines were read
    /// out for write-back; clean lines just dropped.
    fn line_evicted(&mut self, loc: LineLocation, base: Address, data: &[u64], dirty: bool) {
        let _ = (loc, base, data, dirty);
    }
}

impl ArrayObserver for () {}

/// Anything a cache can fetch lines from and spill lines to: main memory or
/// a lower cache level.
pub trait Backing {
    /// Reads one line at `base` into `buf`.
    fn load_line(&mut self, base: Address, buf: &mut [u64]);
    /// Writes one line of `data` at `base`.
    fn store_line(&mut self, base: Address, data: &[u64]);
    /// Writes a single aligned 64-bit word (used by write-through caches).
    fn store_word(&mut self, addr: Address, value: u64);
}

/// Hardware prefetching performed by the cache itself.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum PrefetchPolicy {
    /// No prefetching (the default).
    #[default]
    None,
    /// On every demand miss, also fetch the next sequential line if it is
    /// not already resident.
    NextLine,
}

impl fmt::Display for PrefetchPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefetchPolicy::None => f.write_str("none"),
            PrefetchPolicy::NextLine => f.write_str("next-line"),
        }
    }
}

/// How demand writes interact with the array and the backing.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize, Default,
)]
pub enum WriteMode {
    /// Write-back, write-allocate (the default): stores dirty the line and
    /// reach the backing only on eviction.
    #[default]
    WriteBack,
    /// Write-through, write-allocate: stores update the (clean) line and
    /// the backing word immediately.
    WriteThrough,
    /// Write-through, no-allocate (write-around): store misses bypass the
    /// array entirely; hits behave like [`WriteMode::WriteThrough`].
    WriteThroughNoAllocate,
}

impl std::fmt::Display for WriteMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WriteMode::WriteBack => f.write_str("write-back"),
            WriteMode::WriteThrough => f.write_str("write-through"),
            WriteMode::WriteThroughNoAllocate => f.write_str("write-through/no-allocate"),
        }
    }
}

/// Errors for malformed demand accesses.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AccessError {
    /// Width was not 1, 2, 4 or 8 bytes.
    BadWidth {
        /// The offending width.
        width: u8,
    },
    /// The address was not naturally aligned to the access width.
    Unaligned {
        /// The offending address.
        addr: Address,
        /// The access width.
        width: u8,
    },
}

impl fmt::Display for AccessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessError::BadWidth { width } => {
                write!(f, "access width must be 1, 2, 4 or 8 bytes, got {width}")
            }
            AccessError::Unaligned { addr, width } => {
                write!(f, "{width}-byte access at unaligned address {addr}")
            }
        }
    }
}

impl Error for AccessError {}

/// What one demand access did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The value read (for reads) or written (for writes).
    pub value: u64,
    /// `true` if the access hit.
    pub hit: bool,
    /// Where the line now lives. `None` only for write-around stores
    /// ([`WriteMode::WriteThroughNoAllocate`] misses), which never touch
    /// the array.
    pub location: Option<LineLocation>,
    /// If a valid line was evicted to make room, its base address and
    /// whether it was dirty (written back).
    pub evicted: Option<(Address, bool)>,
}

/// A write-back, write-allocate set-associative cache carrying real data.
///
/// See the [crate-level example](crate) for typical use. All demand traffic
/// goes through [`read`](Cache::read) / [`write`](Cache::write) (or their
/// `_outcome` variants), which transparently fetch missing lines from the
/// [`Backing`] and spill dirty victims back to it. Raw array activity is
/// reported to the supplied [`ArrayObserver`].
pub struct Cache {
    name: String,
    geometry: CacheGeometry,
    write_mode: WriteMode,
    prefetch: PrefetchPolicy,
    kind: ReplacementKind,
    lines: LineArray,
    /// One replacement state per set.
    replacement: Vec<ReplacementState>,
    stats: CacheStats,
    scratch: Vec<u64>,
}

impl Cache {
    /// Creates an empty write-back, write-allocate cache.
    pub fn new(
        name: impl Into<String>,
        geometry: CacheGeometry,
        replacement: ReplacementKind,
    ) -> Self {
        let ways = geometry.associativity();
        let words = geometry.words_per_line();
        Cache {
            name: name.into(),
            geometry,
            write_mode: WriteMode::WriteBack,
            prefetch: PrefetchPolicy::None,
            kind: replacement,
            lines: LineArray::new(geometry.num_sets(), ways, words),
            replacement: (0..geometry.num_sets())
                .map(|set| ReplacementState::new(replacement, ways as usize, set))
                .collect(),
            stats: CacheStats::default(),
            scratch: vec![0; words],
        }
    }

    /// Sets the prefetch policy (chainable at construction time).
    pub fn with_prefetch(mut self, policy: PrefetchPolicy) -> Self {
        self.prefetch = policy;
        self
    }

    /// The prefetch policy in effect.
    pub fn prefetch(&self) -> PrefetchPolicy {
        self.prefetch
    }

    /// Sets the write mode (chainable at construction time).
    ///
    /// ```
    /// use cnt_sim::{Cache, CacheGeometry, ReplacementKind, WriteMode};
    ///
    /// let cache = Cache::new("L1D", CacheGeometry::new(4096, 64, 2)?, ReplacementKind::Lru)
    ///     .with_write_mode(WriteMode::WriteThrough);
    /// assert_eq!(cache.write_mode(), WriteMode::WriteThrough);
    /// # Ok::<(), cnt_sim::GeometryError>(())
    /// ```
    pub fn with_write_mode(mut self, mode: WriteMode) -> Self {
        self.write_mode = mode;
        self
    }

    /// The write mode in effect.
    pub fn write_mode(&self) -> WriteMode {
        self.write_mode
    }

    /// The cache's display name (e.g. `"L1D"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cache's shape.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Consumes the cache, returning its accumulated statistics without
    /// copying them (for end-of-run report assembly).
    pub fn into_stats(self) -> CacheStats {
        self.stats
    }

    /// Reads `width` bytes at `addr`, returning the zero-extended value.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] for a bad width or unaligned address.
    pub fn read(
        &mut self,
        addr: Address,
        width: u8,
        lower: &mut dyn Backing,
        observer: &mut dyn ArrayObserver,
    ) -> Result<u64, AccessError> {
        self.read_outcome(addr, width, lower, observer)
            .map(|o| o.value)
    }

    /// Reads `width` bytes at `addr` with full outcome detail.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] for a bad width or unaligned address.
    pub fn read_outcome(
        &mut self,
        addr: Address,
        width: u8,
        lower: &mut dyn Backing,
        observer: &mut dyn ArrayObserver,
    ) -> Result<AccessOutcome, AccessError> {
        validate(addr, width)?;
        let (location, hit, evicted) = self.ensure_line(addr, lower, observer);
        self.stats.record_read(hit);
        let word_index = (addr.offset_in(u64::from(self.geometry.line_bytes())) / 8) as usize;
        self.touch(location);
        let word = self.lines.words(location)[word_index];
        observer.word_read(location, word_index, word);
        let value = extract(word, addr.offset_in(8), width);
        if !hit {
            self.maybe_prefetch(addr, lower, observer);
        }
        Ok(AccessOutcome {
            value,
            hit,
            location: Some(location),
            evicted,
        })
    }

    /// Writes the low `width * 8` bits of `value` at `addr`.
    ///
    /// Sub-word writes are modeled as read-modify-write of the containing
    /// 64-bit word; the observer sees a single [`ArrayObserver::word_written`]
    /// with the old and new word.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] for a bad width or unaligned address.
    pub fn write(
        &mut self,
        addr: Address,
        width: u8,
        value: u64,
        lower: &mut dyn Backing,
        observer: &mut dyn ArrayObserver,
    ) -> Result<(), AccessError> {
        self.write_outcome(addr, width, value, lower, observer)
            .map(|_| ())
    }

    /// Writes with full outcome detail.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] for a bad width or unaligned address.
    pub fn write_outcome(
        &mut self,
        addr: Address,
        width: u8,
        value: u64,
        lower: &mut dyn Backing,
        observer: &mut dyn ArrayObserver,
    ) -> Result<AccessOutcome, AccessError> {
        validate(addr, width)?;
        let word_addr = addr.align_down(8);

        // Write-around: a miss under no-allocate bypasses the array.
        if self.write_mode == WriteMode::WriteThroughNoAllocate {
            let parts = self.geometry.split(addr);
            if self.lines.find(parts.set, parts.tag).is_none() {
                self.stats.record_write(false);
                self.stats.writethroughs += 1;
                // Sub-word stores read-modify-write the backing word; the
                // line-granular Backing supplies it via a line read.
                let new = if width == 8 {
                    value
                } else {
                    let base = addr.align_down(u64::from(self.geometry.line_bytes()));
                    lower.load_line(base, &mut self.scratch);
                    let word_index =
                        (addr.offset_in(u64::from(self.geometry.line_bytes())) / 8) as usize;
                    splice(self.scratch[word_index], addr.offset_in(8), width, value)
                };
                lower.store_word(word_addr, new);
                return Ok(AccessOutcome {
                    value,
                    hit: false,
                    location: None,
                    evicted: None,
                });
            }
        }

        let (location, hit, evicted) = self.ensure_line(addr, lower, observer);
        self.stats.record_write(hit);
        let word_index = (addr.offset_in(u64::from(self.geometry.line_bytes())) / 8) as usize;
        self.touch(location);
        let old = self.lines.words(location)[word_index];
        let new = splice(old, addr.offset_in(8), width, value);
        self.lines.write_word(location, word_index, new);
        observer.word_written(location, word_index, old, new);
        if self.write_mode != WriteMode::WriteBack {
            // The backing word is updated immediately; the line stays clean.
            self.lines.mark_clean(location);
            lower.store_word(word_addr, new);
            self.stats.writethroughs += 1;
        }
        if !hit {
            self.maybe_prefetch(addr, lower, observer);
        }
        Ok(AccessOutcome {
            value,
            hit,
            location: Some(location),
            evicted,
        })
    }

    /// Issues the configured prefetch after a demand miss. Runs after the
    /// demand word has been serviced, so a prefetch that conflicts with
    /// the demand line cannot corrupt the in-flight access.
    fn maybe_prefetch(
        &mut self,
        demand_addr: Address,
        lower: &mut dyn Backing,
        observer: &mut dyn ArrayObserver,
    ) {
        if self.prefetch != PrefetchPolicy::NextLine {
            return;
        }
        let line_bytes = u64::from(self.geometry.line_bytes());
        let next = demand_addr.align_down(line_bytes) + line_bytes;
        let parts = self.geometry.split(next);
        if self.lines.find(parts.set, parts.tag).is_some() {
            return; // already resident
        }
        let _ = self.ensure_line(next, lower, observer);
        self.stats.prefetch_fills += 1;
    }

    /// Brings the line containing `addr` into the cache, evicting if needed.
    fn ensure_line(
        &mut self,
        addr: Address,
        lower: &mut dyn Backing,
        observer: &mut dyn ArrayObserver,
    ) -> (LineLocation, bool, Option<(Address, bool)>) {
        let parts = self.geometry.split(addr);
        if let Some(loc) = self.lines.find(parts.set, parts.tag) {
            return (loc, true, None);
        }

        // Miss: fill an invalid way if there is one, else evict the
        // policy's victim.
        let policy = &mut self.replacement[parts.set as usize];
        let way = self
            .lines
            .free_way(parts.set)
            .unwrap_or_else(|| policy.victim(self.geometry.associativity() as usize) as u32);
        let loc = LineLocation {
            set: parts.set,
            way,
        };
        let mut evicted = None;
        if self.lines.is_valid(loc) {
            let base = self.geometry.line_base(self.lines.tag(loc), parts.set);
            let dirty = self.lines.is_dirty(loc);
            let data = self.lines.words(loc);
            observer.line_evicted(loc, base, data, dirty);
            if dirty {
                lower.store_line(base, data);
                self.stats.writebacks += 1;
            }
            self.stats.evictions += 1;
            evicted = Some((base, dirty));
        }

        // Fetch the new line from the backing and install it.
        let base = self.geometry.line_base(parts.tag, parts.set);
        lower.load_line(base, &mut self.scratch);
        self.lines.fill(loc, parts.tag, &self.scratch);
        self.replacement[parts.set as usize].on_fill(way as usize);
        self.stats.fills += 1;
        observer.line_filled(loc, base, &self.scratch);
        (loc, false, evicted)
    }

    /// Tells the set's replacement policy that the line at `loc` was
    /// accessed.
    fn touch(&mut self, loc: LineLocation) {
        self.replacement[loc.set as usize].on_hit(loc.way as usize);
    }

    /// Writes every dirty line back to the backing (without invalidating),
    /// returning the number of lines written back.
    pub fn flush(&mut self, lower: &mut dyn Backing, observer: &mut dyn ArrayObserver) -> usize {
        let mut written = 0;
        for set in 0..self.geometry.num_sets() {
            for way in 0..self.geometry.associativity() {
                let loc = LineLocation { set, way };
                if !self.lines.is_valid(loc) || !self.lines.is_dirty(loc) {
                    continue;
                }
                let base = self.line_base_at(loc);
                let data = self.lines.words(loc);
                observer.line_evicted(loc, base, data, true);
                lower.store_line(base, data);
                self.lines.mark_clean(loc);
                written += 1;
            }
        }
        self.stats.writebacks += written as u64;
        written
    }

    /// The location of the (valid) line containing `addr`, without
    /// disturbing replacement state or statistics.
    pub fn find(&self, addr: Address) -> Option<LineLocation> {
        let parts = self.geometry.split(addr);
        self.lines.find(parts.set, parts.tag)
    }

    /// `true` if the line at `loc` holds live data.
    ///
    /// # Panics
    ///
    /// Panics if the location is out of range.
    pub fn is_valid(&self, loc: LineLocation) -> bool {
        self.lines.is_valid(loc)
    }

    /// The stored words of the line at `loc` (e.g. for the encoding layer).
    ///
    /// # Panics
    ///
    /// Panics if the location is out of range.
    pub fn words(&self, loc: LineLocation) -> &[u64] {
        self.lines.words(loc)
    }

    /// Mutable view of the stored words at `loc`, bypassing the dirty flag.
    ///
    /// For modelling *physical* effects that are not architectural writes
    /// (fault injection, in-place re-encoding). Architectural stores go
    /// through [`write`](Self::write), which marks the line dirty.
    ///
    /// # Panics
    ///
    /// Panics if the location is out of range.
    pub fn words_mut(&mut self, loc: LineLocation) -> &mut [u64] {
        self.lines.words_mut(loc)
    }

    /// Invalidates the line at `loc` without writing it back, returning
    /// whether it was dirty (its unwritten stores are then lost).
    ///
    /// # Panics
    ///
    /// Panics if the location is out of range.
    pub fn invalidate(&mut self, loc: LineLocation) -> bool {
        self.lines.invalidate(loc)
    }

    /// The base address of the (valid) line at `loc`.
    ///
    /// # Panics
    ///
    /// Panics if the location is out of range.
    pub fn line_base_at(&self, loc: LineLocation) -> Address {
        self.geometry.line_base(self.lines.tag(loc), loc.set)
    }

    /// Captures lines, replacement state, and statistics for
    /// checkpointing.
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            lines: self.lines.records(),
            replacement: self.replacement.clone(),
            stats: self.stats.clone(),
        }
    }

    /// Restores state captured with [`snapshot`](Self::snapshot) from a
    /// cache of identical configuration.
    ///
    /// # Errors
    ///
    /// Fails — leaving this cache untouched — if the snapshot's shape
    /// does not match this cache (line/set counts, words per line), a
    /// replacement state does not fit its set's policy, or two valid ways
    /// of one set hold the same tag.
    pub fn restore(&mut self, snap: CacheSnapshot) -> Result<(), String> {
        let ways = self.geometry.associativity() as usize;
        let sets = self.geometry.num_sets() as usize;
        let words = self.geometry.words_per_line();
        if snap.lines.len() != sets * ways {
            return Err(format!(
                "snapshot has {} lines, cache holds {}",
                snap.lines.len(),
                sets * ways
            ));
        }
        if snap.replacement.len() != sets {
            return Err(format!(
                "snapshot has {} replacement states, cache has {sets} sets",
                snap.replacement.len()
            ));
        }
        if let Some(bad) = snap.lines.iter().position(|l| l.data.len() != words) {
            return Err(format!(
                "snapshot line {bad} holds {} words, lines here hold {words}",
                snap.lines[bad].data.len()
            ));
        }
        for (set, (state, lines)) in snap
            .replacement
            .iter()
            .zip(snap.lines.chunks(ways))
            .enumerate()
        {
            state
                .check(self.kind, ways)
                .map_err(|err| format!("set {set}: {err}"))?;
            for (way, line) in lines.iter().enumerate() {
                if line.valid && lines[..way].iter().any(|l| l.valid && l.tag == line.tag) {
                    return Err(format!(
                        "set {set}: two valid ways hold tag {:#x}",
                        line.tag
                    ));
                }
            }
        }
        self.lines.load(&snap.lines);
        self.replacement = snap.replacement;
        self.stats = snap.stats;
        Ok(())
    }

    /// Iterates over all valid lines as `(location, stored words)`.
    pub fn valid_lines(&self) -> impl Iterator<Item = (LineLocation, &[u64])> {
        self.lines.valid_lines()
    }
}

impl fmt::Debug for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cache")
            .field("name", &self.name)
            .field("geometry", &self.geometry)
            .field("stats", &self.stats)
            .finish()
    }
}

fn validate(addr: Address, width: u8) -> Result<(), AccessError> {
    if !matches!(width, 1 | 2 | 4 | 8) {
        return Err(AccessError::BadWidth { width });
    }
    if !addr.is_aligned(u64::from(width)) {
        return Err(AccessError::Unaligned { addr, width });
    }
    // The checked invariants imply the access cannot straddle a word, and
    // therefore cannot straddle a line either.
    check_access(addr, width);
    Ok(())
}

/// Adapts a [`Cache`] plus its own backing into a [`Backing`] for an upper
/// cache level, enabling multi-level hierarchies.
///
/// Line transfers between levels go through the lower cache's demand path
/// at line granularity, so lower-level statistics and observers see them.
pub struct CacheLevel<'a> {
    /// The lower-level cache.
    pub cache: &'a mut Cache,
    /// Whatever backs the lower-level cache.
    pub lower: &'a mut dyn Backing,
    /// Observer for the lower-level cache's array activity.
    pub observer: &'a mut dyn ArrayObserver,
}

impl Backing for CacheLevel<'_> {
    fn load_line(&mut self, base: Address, buf: &mut [u64]) {
        // Ensure presence, then copy the whole line out of the lower array.
        let (loc, hit, _) = self.cache.ensure_line(base, self.lower, self.observer);
        self.cache.stats.record_read(hit);
        self.cache.touch(loc);
        let words = self.cache.lines.words(loc);
        buf.copy_from_slice(words);
        for (i, &w) in words.iter().enumerate() {
            self.observer.word_read(loc, i, w);
        }
    }

    fn store_line(&mut self, base: Address, data: &[u64]) {
        let (loc, hit, _) = self.cache.ensure_line(base, self.lower, self.observer);
        self.cache.stats.record_write(hit);
        self.cache.touch(loc);
        assert_eq!(
            data.len(),
            self.cache.words(loc).len(),
            "write size mismatch"
        );
        for (i, &n) in data.iter().enumerate() {
            // write_word hands back the replaced word, so the observer
            // sees the old/new pair without a scratch copy of the line.
            let old = self.cache.lines.write_word(loc, i, n);
            self.observer.word_written(loc, i, old, n);
        }
    }

    fn store_word(&mut self, addr: Address, value: u64) {
        self.cache
            .write(addr, 8, value, self.lower, self.observer)
            .expect("aligned word store through a cache level cannot fail");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MainMemory;

    fn small_cache() -> Cache {
        // 4 sets x 2 ways x 64 B lines = 512 B.
        let g = CacheGeometry::new(512, 64, 2).expect("valid geometry");
        Cache::new("t", g, ReplacementKind::Lru)
    }

    #[test]
    fn read_your_own_write() {
        let mut cache = small_cache();
        let mut mem = MainMemory::new();
        cache
            .write(Address::new(0x40), 8, 0x1234, &mut mem, &mut ())
            .expect("write ok");
        let v = cache
            .read(Address::new(0x40), 8, &mut mem, &mut ())
            .expect("read ok");
        assert_eq!(v, 0x1234);
    }

    #[test]
    fn miss_then_hit_statistics() {
        let mut cache = small_cache();
        let mut mem = MainMemory::new();
        cache
            .read(Address::new(0), 8, &mut mem, &mut ())
            .expect("ok");
        cache
            .read(Address::new(8), 8, &mut mem, &mut ())
            .expect("ok");
        let s = cache.stats();
        assert_eq!(s.read_misses, 1);
        assert_eq!(s.read_hits, 1);
        assert_eq!(s.fills, 1);
    }

    #[test]
    fn writeback_on_dirty_eviction() {
        let mut cache = small_cache();
        let mut mem = MainMemory::new();
        // Three lines mapping to set 0 in a 2-way cache: 0x000, 0x100, 0x200.
        cache
            .write(Address::new(0x000), 8, 0xAA, &mut mem, &mut ())
            .expect("ok");
        cache
            .read(Address::new(0x100), 8, &mut mem, &mut ())
            .expect("ok");
        let out = cache
            .read_outcome(Address::new(0x200), 8, &mut mem, &mut ())
            .expect("ok");
        assert_eq!(out.evicted, Some((Address::new(0x000), true)));
        assert_eq!(cache.stats().writebacks, 1);
        // The dirty value must have landed in memory.
        assert_eq!(mem.load(Address::new(0x000), 8), 0xAA);
        // And reading it again pulls it back correctly.
        let v = cache
            .read(Address::new(0x000), 8, &mut mem, &mut ())
            .expect("ok");
        assert_eq!(v, 0xAA);
    }

    #[test]
    fn clean_eviction_skips_writeback() {
        let mut cache = small_cache();
        let mut mem = MainMemory::new();
        cache
            .read(Address::new(0x000), 8, &mut mem, &mut ())
            .expect("ok");
        cache
            .read(Address::new(0x100), 8, &mut mem, &mut ())
            .expect("ok");
        let out = cache
            .read_outcome(Address::new(0x200), 8, &mut mem, &mut ())
            .expect("ok");
        assert_eq!(out.evicted, Some((Address::new(0x000), false)));
        assert_eq!(cache.stats().writebacks, 0);
    }

    #[test]
    fn sub_word_write_merges() {
        let mut cache = small_cache();
        let mut mem = MainMemory::new();
        mem.store(Address::new(0x40), 8, 0xFFFF_FFFF_FFFF_FFFF);
        cache
            .write(Address::new(0x42), 2, 0, &mut mem, &mut ())
            .expect("ok");
        let v = cache
            .read(Address::new(0x40), 8, &mut mem, &mut ())
            .expect("ok");
        assert_eq!(v, 0xFFFF_FFFF_0000_FFFF);
    }

    #[test]
    fn narrow_reads_extract() {
        let mut cache = small_cache();
        let mut mem = MainMemory::new();
        mem.store(Address::new(0x40), 8, 0x8877_6655_4433_2211);
        assert_eq!(
            cache
                .read(Address::new(0x41), 1, &mut mem, &mut ())
                .unwrap(),
            0x22
        );
        assert_eq!(
            cache
                .read(Address::new(0x44), 4, &mut mem, &mut ())
                .unwrap(),
            0x8877_6655
        );
    }

    #[test]
    fn rejects_bad_accesses() {
        let mut cache = small_cache();
        let mut mem = MainMemory::new();
        assert!(matches!(
            cache.read(Address::new(1), 8, &mut mem, &mut ()),
            Err(AccessError::Unaligned { .. })
        ));
        assert!(matches!(
            cache.read(Address::new(0), 3, &mut mem, &mut ()),
            Err(AccessError::BadWidth { .. })
        ));
    }

    #[test]
    fn flush_writes_all_dirty_lines() {
        let mut cache = small_cache();
        let mut mem = MainMemory::new();
        cache
            .write(Address::new(0x00), 8, 1, &mut mem, &mut ())
            .expect("ok");
        cache
            .write(Address::new(0x40), 8, 2, &mut mem, &mut ())
            .expect("ok");
        cache
            .read(Address::new(0x80), 8, &mut mem, &mut ())
            .expect("ok");
        let written = cache.flush(&mut mem, &mut ());
        assert_eq!(written, 2);
        assert_eq!(mem.load(Address::new(0x00), 8), 1);
        assert_eq!(mem.load(Address::new(0x40), 8), 2);
        // Flushed lines stay resident and clean; a second flush is a no-op.
        assert_eq!(cache.flush(&mut mem, &mut ()), 0);
    }

    #[test]
    fn next_line_prefetch_fills_ahead() {
        let g = CacheGeometry::new(4096, 64, 2).expect("valid");
        let mut cache =
            Cache::new("t", g, ReplacementKind::Lru).with_prefetch(PrefetchPolicy::NextLine);
        let mut mem = MainMemory::new();
        mem.store(Address::new(0x40), 8, 99);
        cache
            .read(Address::new(0x00), 8, &mut mem, &mut ())
            .expect("miss");
        assert_eq!(cache.stats().prefetch_fills, 1);
        assert!(
            cache.find(Address::new(0x40)).is_some(),
            "next line resident"
        );
        // The subsequent sequential access hits thanks to the prefetch.
        let v = cache
            .read(Address::new(0x40), 8, &mut mem, &mut ())
            .expect("hit");
        assert_eq!(v, 99);
        assert_eq!(cache.stats().read_hits, 1);
        // Hitting again issues no further prefetch.
        cache
            .read(Address::new(0x40), 8, &mut mem, &mut ())
            .expect("hit");
        assert_eq!(cache.stats().prefetch_fills, 1);
    }

    #[test]
    fn prefetch_never_corrupts_the_demand_access() {
        // Demand line and its next line map to the same 1-way set in a
        // direct-mapped cache with a single set... use 1 set x 1 way so
        // the prefetch immediately evicts the demand line. The demand
        // value must still be correct.
        let g = CacheGeometry::new(64, 64, 1).expect("valid");
        let mut cache =
            Cache::new("t", g, ReplacementKind::Lru).with_prefetch(PrefetchPolicy::NextLine);
        let mut mem = MainMemory::new();
        mem.store(Address::new(0x00), 8, 7);
        let v = cache
            .read(Address::new(0x00), 8, &mut mem, &mut ())
            .expect("ok");
        assert_eq!(v, 7, "prefetch eviction must not affect the demand value");
        // The prefetched line displaced the demand line.
        assert!(cache.find(Address::new(0x00)).is_none());
        assert!(cache.find(Address::new(0x40)).is_some());
    }

    #[test]
    fn prefetch_preserves_dirty_data_through_conflicts() {
        let g = CacheGeometry::new(64, 64, 1).expect("valid");
        let mut cache =
            Cache::new("t", g, ReplacementKind::Lru).with_prefetch(PrefetchPolicy::NextLine);
        let mut mem = MainMemory::new();
        cache
            .write(Address::new(0x00), 8, 0xAB, &mut mem, &mut ())
            .expect("ok");
        // The write missed, the prefetch of 0x40 evicted the dirty line,
        // which must have been written back.
        assert_eq!(mem.load(Address::new(0x00), 8), 0xAB);
        assert_eq!(
            cache
                .read(Address::new(0x00), 8, &mut mem, &mut ())
                .expect("ok"),
            0xAB
        );
    }

    #[test]
    fn write_through_keeps_lines_clean_and_memory_fresh() {
        let g = CacheGeometry::new(512, 64, 2).expect("valid");
        let mut cache =
            Cache::new("t", g, ReplacementKind::Lru).with_write_mode(WriteMode::WriteThrough);
        let mut mem = MainMemory::new();
        cache
            .write(Address::new(0x40), 8, 0xAB, &mut mem, &mut ())
            .expect("ok");
        // Memory already has the value, no flush needed.
        assert_eq!(mem.load(Address::new(0x40), 8), 0xAB);
        assert_eq!(cache.stats().writethroughs, 1);
        // The resident line is clean: evicting it writes nothing back.
        let loc = cache.find(Address::new(0x40)).expect("resident");
        assert!(!cache.snapshot().lines[loc.slot(2)].dirty);
        assert_eq!(cache.flush(&mut mem, &mut ()), 0);
        // Sub-word write-through merges correctly.
        cache
            .write(Address::new(0x42), 2, 0xFFFF, &mut mem, &mut ())
            .expect("ok");
        assert_eq!(mem.load(Address::new(0x40), 8), 0xFFFF_00AB);
    }

    #[test]
    fn write_around_misses_bypass_the_array() {
        let g = CacheGeometry::new(512, 64, 2).expect("valid");
        let mut cache = Cache::new("t", g, ReplacementKind::Lru)
            .with_write_mode(WriteMode::WriteThroughNoAllocate);
        let mut mem = MainMemory::new();
        let out = cache
            .write_outcome(Address::new(0x40), 8, 7, &mut mem, &mut ())
            .expect("ok");
        assert!(!out.hit);
        assert_eq!(out.location, None, "write-around must not allocate");
        assert_eq!(mem.load(Address::new(0x40), 8), 7);
        assert!(cache.find(Address::new(0x40)).is_none());
        assert_eq!(cache.stats().fills, 0);
        // A read allocates; subsequent write hits update the line in place.
        let v = cache
            .read(Address::new(0x40), 8, &mut mem, &mut ())
            .expect("ok");
        assert_eq!(v, 7);
        let out = cache
            .write_outcome(Address::new(0x40), 8, 9, &mut mem, &mut ())
            .expect("ok");
        assert!(out.hit);
        assert!(out.location.is_some());
        assert_eq!(mem.load(Address::new(0x40), 8), 9);
        assert_eq!(
            cache
                .read(Address::new(0x40), 8, &mut mem, &mut ())
                .expect("ok"),
            9
        );
    }

    #[test]
    fn write_around_sub_word_miss_merges_with_memory() {
        let g = CacheGeometry::new(512, 64, 2).expect("valid");
        let mut cache = Cache::new("t", g, ReplacementKind::Lru)
            .with_write_mode(WriteMode::WriteThroughNoAllocate);
        let mut mem = MainMemory::new();
        mem.store(Address::new(0x40), 8, 0x1111_2222_3333_4444);
        cache
            .write(Address::new(0x42), 2, 0xAAAA, &mut mem, &mut ())
            .expect("ok");
        assert_eq!(mem.load(Address::new(0x40), 8), 0x1111_2222_AAAA_4444);
    }

    #[test]
    fn observer_sees_array_activity() {
        #[derive(Default)]
        struct Counter {
            reads: usize,
            writes: usize,
            fills: usize,
            evictions: usize,
        }
        impl ArrayObserver for Counter {
            fn word_read(&mut self, _: LineLocation, _: usize, _: u64) {
                self.reads += 1;
            }
            fn word_written(&mut self, _: LineLocation, _: usize, _: u64, _: u64) {
                self.writes += 1;
            }
            fn line_filled(&mut self, _: LineLocation, _: Address, _: &[u64]) {
                self.fills += 1;
            }
            fn line_evicted(&mut self, _: LineLocation, _: Address, _: &[u64], _: bool) {
                self.evictions += 1;
            }
        }

        let mut cache = small_cache();
        let mut mem = MainMemory::new();
        let mut obs = Counter::default();
        cache
            .write(Address::new(0x000), 8, 1, &mut mem, &mut obs)
            .expect("ok");
        cache
            .read(Address::new(0x100), 8, &mut mem, &mut obs)
            .expect("ok");
        cache
            .read(Address::new(0x200), 8, &mut mem, &mut obs)
            .expect("ok");
        assert_eq!(obs.fills, 3);
        assert_eq!(obs.writes, 1);
        assert_eq!(obs.reads, 2);
        assert_eq!(obs.evictions, 1);
    }

    #[test]
    fn peek_does_not_disturb() {
        let mut cache = small_cache();
        let mut mem = MainMemory::new();
        assert!(cache.find(Address::new(0)).is_none());
        mem.store(Address::new(8), 8, 0x77);
        cache
            .read(Address::new(0), 8, &mut mem, &mut ())
            .expect("ok");
        let before = cache.snapshot();
        let loc = cache.find(Address::new(0)).expect("resident");
        assert!(cache.is_valid(loc));
        assert_eq!(cache.words(loc)[1], 0x77);
        let after = cache.snapshot();
        assert_eq!(after.stats, before.stats);
        assert_eq!(after.replacement, before.replacement);
    }

    #[test]
    fn valid_lines_iterates_everything() {
        let mut cache = small_cache();
        let mut mem = MainMemory::new();
        for i in 0..4u64 {
            cache
                .read(Address::new(i * 64), 8, &mut mem, &mut ())
                .expect("ok");
        }
        assert_eq!(cache.valid_lines().count(), 4);
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        // Run a workload, snapshot halfway, finish, then restore into a
        // fresh cache and replay the second half: stats and contents
        // must match the uninterrupted run exactly.
        let accesses: Vec<(u64, bool)> = (0..200)
            .map(|i: u64| {
                (
                    (i.wrapping_mul(0x61C8_8647) % 0x800) & !7,
                    i.is_multiple_of(3),
                )
            })
            .collect();
        let run = |cache: &mut Cache, mem: &mut MainMemory, slice: &[(u64, bool)]| {
            for &(addr, is_write) in slice {
                if is_write {
                    cache
                        .write(Address::new(addr), 8, addr ^ 0x55, mem, &mut ())
                        .unwrap();
                } else {
                    cache.read(Address::new(addr), 8, mem, &mut ()).unwrap();
                }
            }
        };
        for kind in [
            ReplacementKind::Lru,
            ReplacementKind::Random { seed: 7 },
            ReplacementKind::Srrip,
        ] {
            let g = CacheGeometry::new(512, 64, 2).expect("valid geometry");
            let mut full = Cache::new("t", g, kind);
            let mut full_mem = MainMemory::new();
            run(&mut full, &mut full_mem, &accesses[..100]);
            let cache_snap = full.snapshot();
            let mem_snap = full_mem.snapshot();
            run(&mut full, &mut full_mem, &accesses[100..]);

            let mut resumed = Cache::new("t", g, kind);
            resumed.restore(cache_snap).expect("same shape restores");
            let mut resumed_mem = MainMemory::from_snapshot(mem_snap).expect("valid");
            run(&mut resumed, &mut resumed_mem, &accesses[100..]);

            assert_eq!(resumed.stats(), full.stats(), "{kind}");
            assert_eq!(resumed.snapshot().lines, full.snapshot().lines, "{kind}");
            assert_eq!(resumed_mem.snapshot(), full_mem.snapshot(), "{kind}");
        }
    }

    #[test]
    fn restore_rejects_mismatched_shapes_untouched() {
        let mut cache = small_cache();
        let mut mem = MainMemory::new();
        cache.read(Address::new(0), 8, &mut mem, &mut ()).unwrap();
        let before = cache.snapshot();

        let other = Cache::new(
            "o",
            CacheGeometry::new(1024, 64, 4).expect("valid"),
            ReplacementKind::Lru,
        );
        assert!(cache.restore(other.snapshot()).is_err(), "wrong shape");

        // Same shape, wrong policy kind inside.
        let fifo = Cache::new(
            "f",
            CacheGeometry::new(512, 64, 2).expect("valid"),
            ReplacementKind::Fifo,
        );
        assert!(cache.restore(fifo.snapshot()).is_err(), "wrong policy");

        // Every rejection left the cache exactly as it was.
        assert_eq!(cache.snapshot().lines, before.lines);
        assert_eq!(cache.snapshot().stats, before.stats);
        assert_eq!(cache.snapshot().replacement, before.replacement);
    }

    #[test]
    fn fill_target_prefers_invalid_ways() {
        let mut cache = small_cache();
        let mut mem = MainMemory::new();
        // Set 0 holds 0x000 (way 0) and 0x100 (way 1); touching 0x000
        // makes way 1 the LRU victim.
        for addr in [0x000, 0x100, 0x000] {
            cache
                .read(Address::new(addr), 8, &mut mem, &mut ())
                .unwrap();
        }
        let way0 = cache.find(Address::new(0x000)).expect("resident");
        assert!(!cache.invalidate(way0), "clean line");
        let out = cache.read_outcome(Address::new(0x200), 8, &mut mem, &mut ());
        assert_eq!(out.unwrap().location, Some(way0), "invalid way first");
        let out = cache.read_outcome(Address::new(0x300), 8, &mut mem, &mut ());
        assert_eq!(out.unwrap().evicted, Some((Address::new(0x100), false)));
    }

    #[test]
    fn restore_rejects_duplicate_tags_untouched() {
        let mut cache = small_cache();
        let mut mem = MainMemory::new();
        cache
            .write(Address::new(0), 8, 1, &mut mem, &mut ())
            .unwrap();
        let before = cache.snapshot();
        // Way 1 of set 0 claims the same tag as way 0, holding stale data
        // that a later eviction could write back over the newer line.
        let mut bad = before.clone();
        bad.lines[1] = CacheLine {
            valid: true,
            dirty: true,
            data: vec![0xBAD; 8],
            ..bad.lines[0].clone()
        };
        let err = cache.restore(bad).expect_err("duplicate tag");
        assert!(err.contains("set 0"), "{err}");
        assert_eq!(cache.snapshot().lines, before.lines);
        assert_eq!(cache.snapshot().replacement, before.replacement);
        assert_eq!(cache.snapshot().stats, before.stats);
    }

    #[test]
    fn two_level_read_through() {
        let g1 = CacheGeometry::new(256, 64, 2).expect("ok");
        let g2 = CacheGeometry::new(1024, 64, 4).expect("ok");
        let mut l1 = Cache::new("L1", g1, ReplacementKind::Lru);
        let mut l2 = Cache::new("L2", g2, ReplacementKind::Lru);
        let mut mem = MainMemory::new();
        mem.store(Address::new(0x40), 8, 777);

        let mut level2 = CacheLevel {
            cache: &mut l2,
            lower: &mut mem,
            observer: &mut (),
        };
        let v = l1
            .read(Address::new(0x40), 8, &mut level2, &mut ())
            .expect("ok");
        assert_eq!(v, 777);
        assert_eq!(l1.stats().read_misses, 1);
        assert_eq!(l2.stats().read_misses, 1);

        // A second L1 miss to a conflicting line hits in L2.
        let _ = l1
            .read(
                Address::new(0x140),
                8,
                &mut CacheLevel {
                    cache: &mut l2,
                    lower: &mut mem,
                    observer: &mut (),
                },
                &mut (),
            )
            .expect("ok");
        let v = l1
            .read(
                Address::new(0x40),
                8,
                &mut CacheLevel {
                    cache: &mut l2,
                    lower: &mut mem,
                    observer: &mut (),
                },
                &mut (),
            )
            .expect("ok");
        assert_eq!(v, 777);
    }

    #[test]
    fn write_through_l1_over_l2_routes_word_stores() {
        // A write-through L1 sends store_word() into the L2 level adapter,
        // which must route it through L2's own demand path.
        let g1 = CacheGeometry::new(128, 64, 1).expect("ok");
        let g2 = CacheGeometry::new(512, 64, 2).expect("ok");
        let mut l1 =
            Cache::new("L1", g1, ReplacementKind::Lru).with_write_mode(WriteMode::WriteThrough);
        let mut l2 = Cache::new("L2", g2, ReplacementKind::Lru);
        let mut mem = MainMemory::new();

        l1.write(
            Address::new(0x40),
            8,
            123,
            &mut CacheLevel {
                cache: &mut l2,
                lower: &mut mem,
                observer: &mut (),
            },
            &mut (),
        )
        .expect("ok");

        // The word reached L2 (dirty there, write-back L2) but not memory.
        assert_eq!(l1.stats().writethroughs, 1);
        assert!(l2.stats().writes() >= 1, "L2 saw the write-through");
        l2.flush(&mut mem, &mut ());
        assert_eq!(mem.load(Address::new(0x40), 8), 123);
        // And L1's copy stays clean and coherent.
        let v = l1
            .read(
                Address::new(0x40),
                8,
                &mut CacheLevel {
                    cache: &mut l2,
                    lower: &mut mem,
                    observer: &mut (),
                },
                &mut (),
            )
            .expect("ok");
        assert_eq!(v, 123);
        assert_eq!(
            l1.flush(
                &mut CacheLevel {
                    cache: &mut l2,
                    lower: &mut mem,
                    observer: &mut (),
                },
                &mut ()
            ),
            0,
            "write-through L1 has no dirty lines"
        );
    }

    #[test]
    fn two_level_writeback_lands_in_l2_then_memory() {
        let g1 = CacheGeometry::new(128, 64, 1).expect("ok"); // 2 sets, direct mapped
        let g2 = CacheGeometry::new(512, 64, 2).expect("ok");
        let mut l1 = Cache::new("L1", g1, ReplacementKind::Lru);
        let mut l2 = Cache::new("L2", g2, ReplacementKind::Lru);
        let mut mem = MainMemory::new();

        // Dirty line at 0x000, then conflict-evict it via 0x080 (same L1 set).
        l1.write(
            Address::new(0x000),
            8,
            42,
            &mut CacheLevel {
                cache: &mut l2,
                lower: &mut mem,
                observer: &mut (),
            },
            &mut (),
        )
        .expect("ok");
        l1.read(
            Address::new(0x080),
            8,
            &mut CacheLevel {
                cache: &mut l2,
                lower: &mut mem,
                observer: &mut (),
            },
            &mut (),
        )
        .expect("ok");

        // The dirty data now lives in L2 (write hit there), not yet memory.
        assert_eq!(l2.stats().write_hits + l2.stats().write_misses, 1);
        // Flush L2 to memory and verify.
        l2.flush(&mut mem, &mut ());
        assert_eq!(mem.load(Address::new(0x000), 8), 42);
    }
}
