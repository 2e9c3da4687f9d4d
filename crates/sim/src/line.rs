//! Flat, data-carrying line storage.
//!
//! The simulator stores real data because the CNT-Cache energy model prices
//! individual bit values; a hit/miss-only model could not reproduce the
//! paper. Every line of a cache lives in one [`LineArray`]: a tag array,
//! valid and dirty flags, and one data arena, all indexed by the slot
//! [`LineLocation::slot`] computes.

use std::fmt;
use std::ops::Range;

use serde::{Deserialize, Serialize};

/// Where a line lives inside the cache array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LineLocation {
    /// The set index.
    pub set: u64,
    /// The way within the set.
    pub way: u32,
}

impl LineLocation {
    /// This location's index in flat per-line arrays of a cache with
    /// `ways` ways: `set * ways + way`.
    pub fn slot(self, ways: u32) -> usize {
        (self.set * u64::from(ways) + u64::from(self.way)) as usize
    }
}

impl fmt::Display for LineLocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "set {} way {}", self.set, self.way)
    }
}

/// One line as a [`CacheSnapshot`](crate::CacheSnapshot) records it.
///
/// # Example
///
/// ```
/// use cnt_sim::{Address, Cache, CacheGeometry, MainMemory, ReplacementKind};
///
/// let mut cache = Cache::new("L1D", CacheGeometry::new(4096, 64, 4)?, ReplacementKind::Lru);
/// cache.write(Address::new(0x48), 8, 0xFF, &mut MainMemory::new(), &mut ())?;
/// let loc = cache.find(Address::new(0x40)).expect("resident");
/// let line = &cache.snapshot().lines[loc.slot(4)];
/// assert!(line.valid && line.dirty);
/// assert_eq!(line.data[1], 0xFF);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheLine {
    /// The stored tag. Only meaningful while `valid`.
    pub tag: u64,
    /// `true` if the line holds live data.
    pub valid: bool,
    /// `true` if the line has been written since it was filled.
    pub dirty: bool,
    /// The stored words.
    pub data: Vec<u64>,
}

/// Every line of one cache, flattened by slot.
pub(crate) struct LineArray {
    ways: u32,
    words: usize,
    tags: Vec<u64>,
    valid: Vec<bool>,
    dirty: Vec<bool>,
    data: Vec<u64>,
}

impl LineArray {
    /// `sets × ways` invalid lines of `words` zeroed words each.
    ///
    /// # Panics
    ///
    /// Panics if `words` is zero.
    pub(crate) fn new(sets: u64, ways: u32, words: usize) -> Self {
        assert!(words > 0, "a cache line must hold at least one word");
        let slots = (sets * u64::from(ways)) as usize;
        LineArray {
            ways,
            words,
            tags: vec![0; slots],
            valid: vec![false; slots],
            dirty: vec![false; slots],
            data: vec![0; slots * words],
        }
    }

    fn range(&self, slot: usize) -> Range<usize> {
        slot * self.words..(slot + 1) * self.words
    }

    /// The valid line of `set` tagged `tag`.
    pub(crate) fn find(&self, set: u64, tag: u64) -> Option<LineLocation> {
        let base = LineLocation { set, way: 0 }.slot(self.ways);
        (0..self.ways)
            .find(|&way| {
                let slot = base + way as usize;
                self.valid[slot] && self.tags[slot] == tag
            })
            .map(|way| LineLocation { set, way })
    }

    /// The first invalid way of `set`.
    pub(crate) fn free_way(&self, set: u64) -> Option<u32> {
        let base = LineLocation { set, way: 0 }.slot(self.ways);
        (0..self.ways).find(|&way| !self.valid[base + way as usize])
    }

    pub(crate) fn tag(&self, loc: LineLocation) -> u64 {
        self.tags[loc.slot(self.ways)]
    }

    pub(crate) fn is_valid(&self, loc: LineLocation) -> bool {
        self.valid[loc.slot(self.ways)]
    }

    pub(crate) fn is_dirty(&self, loc: LineLocation) -> bool {
        self.dirty[loc.slot(self.ways)]
    }

    pub(crate) fn words(&self, loc: LineLocation) -> &[u64] {
        &self.data[self.range(loc.slot(self.ways))]
    }

    /// The stored words, writable without touching the dirty flag.
    pub(crate) fn words_mut(&mut self, loc: LineLocation) -> &mut [u64] {
        let range = self.range(loc.slot(self.ways));
        &mut self.data[range]
    }

    /// Installs new contents, making the line valid and clean.
    ///
    /// # Panics
    ///
    /// Panics if `data` has a different length than a line.
    pub(crate) fn fill(&mut self, loc: LineLocation, tag: u64, data: &[u64]) {
        assert_eq!(data.len(), self.words, "fill size mismatch");
        let slot = loc.slot(self.ways);
        self.tags[slot] = tag;
        self.valid[slot] = true;
        self.dirty[slot] = false;
        self.words_mut(loc).copy_from_slice(data);
    }

    /// Writes one stored word, marking the line dirty; returns the old word.
    pub(crate) fn write_word(&mut self, loc: LineLocation, word: usize, value: u64) -> u64 {
        self.dirty[loc.slot(self.ways)] = true;
        std::mem::replace(&mut self.words_mut(loc)[word], value)
    }

    /// Marks the line clean (after a write-back or a write-through).
    pub(crate) fn mark_clean(&mut self, loc: LineLocation) {
        self.dirty[loc.slot(self.ways)] = false;
    }

    /// Invalidates the line, returning whether it was dirty.
    pub(crate) fn invalidate(&mut self, loc: LineLocation) -> bool {
        let slot = loc.slot(self.ways);
        let was_dirty = self.valid[slot] && self.dirty[slot];
        self.valid[slot] = false;
        self.dirty[slot] = false;
        was_dirty
    }

    /// Every valid line as `(location, words)`, set-major.
    pub(crate) fn valid_lines(&self) -> impl Iterator<Item = (LineLocation, &[u64])> {
        let ways = u64::from(self.ways);
        (0..self.valid.len())
            .filter(|&slot| self.valid[slot])
            .map(move |slot| {
                let loc = LineLocation {
                    set: slot as u64 / ways,
                    way: (slot as u64 % ways) as u32,
                };
                (loc, self.words(loc))
            })
    }

    /// Every line as a checkpoint record, set-major.
    pub(crate) fn records(&self) -> Vec<CacheLine> {
        (0..self.valid.len())
            .map(|slot| CacheLine {
                tag: self.tags[slot],
                valid: self.valid[slot],
                dirty: self.dirty[slot],
                data: self.data[self.range(slot)].to_vec(),
            })
            .collect()
    }

    /// Overwrites every line from checkpoint records whose count and
    /// lengths the caller has checked.
    pub(crate) fn load(&mut self, lines: &[CacheLine]) {
        for (slot, line) in lines.iter().enumerate() {
            self.tags[slot] = line.tag;
            self.valid[slot] = line.valid;
            self.dirty[slot] = line.dirty;
            let range = self.range(slot);
            self.data[range].copy_from_slice(&line.data);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Address, Backing, Cache, CacheGeometry, CacheLevel, MainMemory, ReplacementKind};

    const AT: LineLocation = LineLocation { set: 1, way: 1 };

    #[test]
    fn new_line_is_invalid_and_clean() {
        let lines = LineArray::new(2, 2, 4);
        assert!(!lines.is_valid(AT));
        assert!(!lines.is_dirty(AT));
        assert_eq!(lines.words(AT), &[0; 4]);
        assert_eq!(lines.valid_lines().count(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one word")]
    fn zero_word_line_panics() {
        LineArray::new(1, 1, 0);
    }

    #[test]
    fn fill_makes_valid_and_clean() {
        let mut lines = LineArray::new(2, 2, 2);
        lines.fill(AT, 7, &[0xFF, 0x1]);
        assert!(lines.is_valid(AT));
        assert!(!lines.is_dirty(AT));
        assert_eq!(lines.tag(AT), 7);
        assert_eq!(lines.words(AT), &[0xFF, 0x1]);
        assert_eq!(AT.slot(2), 3);
        assert_eq!(lines.records()[3].data, vec![0xFF, 0x1]);
        let others: Vec<_> = lines.records().iter().map(|l| l.valid).collect();
        assert_eq!(others, [false, false, false, true], "only slot 3 filled");
    }

    #[test]
    fn find_only_matches_valid_lines() {
        let mut lines = LineArray::new(2, 2, 4);
        assert_eq!(lines.find(1, 0), None, "invalid lines must not match tag 0");
        lines.fill(AT, 7, &[1, 2, 3, 4]);
        assert_eq!(lines.find(1, 7), Some(AT));
        assert_eq!(lines.find(0, 7), None, "tags match only within their set");
        assert_eq!(lines.find(1, 8), None);
        assert_eq!(lines.free_way(1), Some(0));
    }

    #[test]
    fn write_marks_dirty_and_returns_old() {
        let mut lines = LineArray::new(2, 2, 2);
        lines.fill(AT, 0, &[10, 20]);
        let old = lines.write_word(AT, 1, 99);
        assert_eq!(old, 20);
        assert!(lines.is_dirty(AT));
        assert_eq!(lines.words(AT)[1], 99);
        lines.mark_clean(AT);
        assert!(!lines.is_dirty(AT));
        lines.words_mut(AT)[0] = 5;
        assert!(!lines.is_dirty(AT), "a physical write is not a store");
    }

    #[test]
    fn write_all_replaces_payload() {
        // A whole-line store from an upper level replaces the payload of
        // the resident line and dirties it.
        let geometry = CacheGeometry::new(512, 64, 2).expect("valid geometry");
        let mut l2 = Cache::new("L2", geometry, ReplacementKind::Lru);
        let mut memory = MainMemory::new();
        let mut level = CacheLevel {
            cache: &mut l2,
            lower: &mut memory,
            observer: &mut (),
        };
        level.store_line(Address::new(0x40), &[1, 2, 3, 4, 5, 6, 7, 8]);
        let loc = l2.find(Address::new(0x40)).expect("resident");
        assert_eq!(l2.words(loc), &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(l2.snapshot().lines[loc.slot(2)].dirty);
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut lines = LineArray::new(2, 2, 1);
        lines.fill(AT, 0, &[1]);
        assert!(!lines.invalidate(AT), "clean line");
        lines.fill(AT, 0, &[1]);
        lines.write_word(AT, 0, 2);
        assert!(lines.invalidate(AT), "dirty line");
        assert!(!lines.is_valid(AT));
    }

    #[test]
    #[should_panic(expected = "fill size mismatch")]
    fn fill_size_mismatch_panics() {
        LineArray::new(1, 1, 2).fill(LineLocation { set: 0, way: 0 }, 0, &[1]);
    }
}
