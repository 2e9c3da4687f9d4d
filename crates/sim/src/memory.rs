//! Sparse flat backing store.
//!
//! Memory is a map from 64-byte-aligned chunk base to eight words. Every
//! path does one map lookup per chunk it touches: a 64-byte line transfer
//! copies one whole chunk, and a narrow store splices its word on one
//! borrow.

use std::collections::HashMap;
use std::fmt;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::addr::Address;
use crate::cache::Backing;

/// How uninitialized memory reads back.
///
/// Since the energy model prices bit values, what "cold" memory contains is
/// an experimental knob: all-zero memory flatters zero-preferring encodings,
/// while random memory is the adversarial baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum FillPattern {
    /// Uninitialized lines read as all-zero words.
    #[default]
    Zero,
    /// Uninitialized lines read as deterministic pseudo-random words.
    Random {
        /// Seed for the per-line deterministic generator.
        seed: u64,
    },
}

/// A sparse main memory.
///
/// 64-byte chunks are materialized on first touch. Word and byte
/// accessors are provided for the workload layer, which executes real
/// kernels against this memory while recording the resulting trace.
///
/// # Example
///
/// ```
/// use cnt_sim::{Address, MainMemory};
///
/// let mut mem = MainMemory::new();
/// mem.store(Address::new(0x100), 4, 0xABCD);
/// assert_eq!(mem.load(Address::new(0x100), 4), 0xABCD);
/// assert_eq!(mem.load(Address::new(0x104), 4), 0);
/// ```
#[derive(Clone)]
pub struct MainMemory {
    /// Storage keyed by 64-byte-aligned chunk base address.
    chunks: HashMap<u64, Box<[u64; WORDS_PER_CHUNK]>>,
    fill: FillPattern,
}

const CHUNK_BYTES: u64 = 64;

/// Words in one materialized memory chunk.
pub const WORDS_PER_CHUNK: usize = (CHUNK_BYTES / 8) as usize;

/// Serializable image of a [`MainMemory`], with deterministic chunk
/// order. Produced by [`MainMemory::snapshot`] and consumed by
/// [`MainMemory::from_snapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemorySnapshot {
    /// The cold-read pattern.
    pub fill: FillPattern,
    /// `(chunk base, words)` pairs sorted by base address.
    pub chunks: Vec<(u64, Vec<u64>)>,
}

impl MainMemory {
    /// Creates an empty memory whose cold reads are zero.
    pub fn new() -> Self {
        MainMemory::with_fill(FillPattern::Zero)
    }

    /// Creates an empty memory with the given cold-read pattern.
    pub fn with_fill(fill: FillPattern) -> Self {
        MainMemory {
            chunks: HashMap::new(),
            fill,
        }
    }

    /// Number of materialized 64-byte chunks (the touched footprint).
    pub fn touched_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// The cold-read pattern in effect.
    pub fn fill(&self) -> FillPattern {
        self.fill
    }

    /// Captures the full memory contents for checkpointing, with chunks
    /// sorted by base address so the same state always serializes to the
    /// same bytes (the backing `HashMap` iterates in arbitrary order).
    pub fn snapshot(&self) -> MemorySnapshot {
        let mut chunks: Vec<(u64, Vec<u64>)> = self
            .chunks
            .iter()
            .map(|(&base, words)| (base, words.to_vec()))
            .collect();
        chunks.sort_unstable_by_key(|&(base, _)| base);
        MemorySnapshot {
            fill: self.fill,
            chunks,
        }
    }

    /// Rebuilds a memory from a snapshot.
    ///
    /// # Errors
    ///
    /// Fails if a chunk base is misaligned or a chunk does not hold
    /// exactly [`WORDS_PER_CHUNK`] words. On error nothing is returned,
    /// so the caller's current memory is untouched.
    pub fn from_snapshot(snap: MemorySnapshot) -> Result<Self, String> {
        let mut chunks = HashMap::with_capacity(snap.chunks.len());
        for (base, words) in snap.chunks {
            if base % CHUNK_BYTES != 0 {
                return Err(format!(
                    "memory chunk base {base:#x} is not 64-byte aligned"
                ));
            }
            let words: Box<[u64; WORDS_PER_CHUNK]> = words
                .into_boxed_slice()
                .try_into()
                .map_err(|_| format!("memory chunk {base:#x} is not {WORDS_PER_CHUNK} words"))?;
            if chunks.insert(base, words).is_some() {
                return Err(format!("memory chunk {base:#x} appears twice"));
            }
        }
        Ok(MainMemory {
            chunks,
            fill: snap.fill,
        })
    }

    fn chunk_content(fill: FillPattern, base: u64) -> Box<[u64; WORDS_PER_CHUNK]> {
        match fill {
            FillPattern::Zero => Box::new([0; WORDS_PER_CHUNK]),
            FillPattern::Random { seed } => {
                let mut rng =
                    SmallRng::seed_from_u64(seed ^ base.wrapping_mul(0xA076_1D64_78BD_642F));
                let mut words = [0u64; WORDS_PER_CHUNK];
                for w in &mut words {
                    *w = rng.gen();
                }
                Box::new(words)
            }
        }
    }

    fn chunk(&mut self, base: u64) -> &mut [u64; WORDS_PER_CHUNK] {
        let fill = self.fill;
        self.chunks
            .entry(base)
            .or_insert_with(|| Self::chunk_content(fill, base))
    }

    /// The chunk holding the aligned word at `addr`, and the word's index
    /// in it.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned.
    fn word_slot(&mut self, addr: Address) -> (&mut [u64; WORDS_PER_CHUNK], usize) {
        assert!(addr.is_aligned(8), "word access at unaligned {addr}");
        let word = (addr.offset_in(CHUNK_BYTES) / 8) as usize;
        (self.chunk(addr.align_down(CHUNK_BYTES).value()), word)
    }

    /// Reads one aligned 64-bit word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned.
    pub fn read_word(&mut self, addr: Address) -> u64 {
        let (chunk, word) = self.word_slot(addr);
        chunk[word]
    }

    /// Writes one aligned 64-bit word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned.
    pub fn write_word(&mut self, addr: Address, value: u64) {
        let (chunk, word) = self.word_slot(addr);
        chunk[word] = value;
    }

    /// Loads `width` bytes (1, 2, 4, or 8) from a naturally-aligned address.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not one of 1/2/4/8 or `addr` is not aligned to
    /// `width`.
    pub fn load(&mut self, addr: Address, width: u8) -> u64 {
        check_access(addr, width);
        let word_addr = addr.align_down(8);
        let word = self.read_word(word_addr);
        extract(word, addr.offset_in(8), width)
    }

    /// Stores the low `width * 8` bits of `value` (width 1, 2, 4, or 8) to
    /// a naturally-aligned address.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not one of 1/2/4/8 or `addr` is not aligned to
    /// `width`.
    pub fn store(&mut self, addr: Address, width: u8, value: u64) {
        check_access(addr, width);
        let (chunk, word) = self.word_slot(addr.align_down(8));
        chunk[word] = splice(chunk[word], addr.offset_in(8), width, value);
    }
}

impl Default for MainMemory {
    fn default() -> Self {
        MainMemory::new()
    }
}

impl fmt::Debug for MainMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MainMemory")
            .field("touched_chunks", &self.chunks.len())
            .field("fill", &self.fill)
            .finish()
    }
}

/// A line's base is aligned to its length, so a line shorter than a chunk
/// lies inside one chunk and a longer one starts on a chunk boundary:
/// each `WORDS_PER_CHUNK`-word piece of the line is a slice of one chunk,
/// copied on one map lookup.
impl Backing for MainMemory {
    fn load_line(&mut self, base: Address, buf: &mut [u64]) {
        debug_assert!(base.is_aligned(buf.len() as u64 * 8));
        for (i, piece) in buf.chunks_mut(WORDS_PER_CHUNK).enumerate() {
            let (chunk, word) = self.word_slot(base + i as u64 * CHUNK_BYTES);
            piece.copy_from_slice(&chunk[word..word + piece.len()]);
        }
    }

    fn store_line(&mut self, base: Address, data: &[u64]) {
        debug_assert!(base.is_aligned(data.len() as u64 * 8));
        for (i, piece) in data.chunks(WORDS_PER_CHUNK).enumerate() {
            let (chunk, word) = self.word_slot(base + i as u64 * CHUNK_BYTES);
            chunk[word..word + piece.len()].copy_from_slice(piece);
        }
    }

    fn store_word(&mut self, addr: Address, value: u64) {
        self.write_word(addr, value);
    }
}

pub(crate) fn check_access(addr: Address, width: u8) {
    assert!(
        matches!(width, 1 | 2 | 4 | 8),
        "access width must be 1, 2, 4 or 8 bytes, got {width}"
    );
    assert!(
        addr.is_aligned(u64::from(width)),
        "{width}-byte access at unaligned {addr}"
    );
}

/// Extracts `width` bytes starting at byte offset `offset` from `word`.
pub(crate) fn extract(word: u64, offset: u64, width: u8) -> u64 {
    let shift = offset * 8;
    let mask = width_mask(width);
    (word >> shift) & mask
}

/// Replaces `width` bytes at byte offset `offset` in `word` with `value`.
pub(crate) fn splice(word: u64, offset: u64, width: u8, value: u64) -> u64 {
    let shift = offset * 8;
    let mask = width_mask(width);
    (word & !(mask << shift)) | ((value & mask) << shift)
}

fn width_mask(width: u8) -> u64 {
    match width {
        8 => u64::MAX,
        w => (1u64 << (u64::from(w) * 8)) - 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_fill_reads_zero() {
        let mut mem = MainMemory::new();
        assert_eq!(mem.load(Address::new(0x5000), 8), 0);
    }

    #[test]
    fn random_fill_is_deterministic() {
        let mut a = MainMemory::with_fill(FillPattern::Random { seed: 3 });
        let mut b = MainMemory::with_fill(FillPattern::Random { seed: 3 });
        let mut c = MainMemory::with_fill(FillPattern::Random { seed: 4 });
        let addr = Address::new(0x42 * 64);
        assert_eq!(a.read_word(addr), b.read_word(addr));
        assert_ne!(a.read_word(addr), c.read_word(addr));
    }

    #[test]
    fn store_then_load_round_trips_all_widths() {
        let mut mem = MainMemory::new();
        mem.store(Address::new(0x100), 1, 0xAB);
        mem.store(Address::new(0x102), 2, 0xCDEF);
        mem.store(Address::new(0x104), 4, 0x1234_5678);
        mem.store(Address::new(0x108), 8, 0x9ABC_DEF0_1122_3344);
        assert_eq!(mem.load(Address::new(0x100), 1), 0xAB);
        assert_eq!(mem.load(Address::new(0x102), 2), 0xCDEF);
        assert_eq!(mem.load(Address::new(0x104), 4), 0x1234_5678);
        assert_eq!(mem.load(Address::new(0x108), 8), 0x9ABC_DEF0_1122_3344);
    }

    #[test]
    fn narrow_store_preserves_neighbors() {
        let mut mem = MainMemory::new();
        mem.store(Address::new(0x200), 8, u64::MAX);
        mem.store(Address::new(0x202), 2, 0);
        assert_eq!(mem.load(Address::new(0x200), 8), 0xFFFF_FFFF_0000_FFFF);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_access_panics() {
        MainMemory::new().load(Address::new(0x101), 4);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn bad_width_panics() {
        MainMemory::new().load(Address::new(0x100), 3);
    }

    #[test]
    fn line_backing_round_trip() {
        let mut mem = MainMemory::new();
        let data = [1u64, 2, 3, 4, 5, 6, 7, 8];
        mem.store_line(Address::new(0x400), &data);
        let mut buf = [0u64; 8];
        mem.load_line(Address::new(0x400), &mut buf);
        assert_eq!(buf, data);
        // And word-granular view agrees.
        assert_eq!(mem.read_word(Address::new(0x418)), 4);
    }

    #[test]
    fn footprint_tracks_touched_chunks() {
        let mut mem = MainMemory::new();
        assert_eq!(mem.touched_chunks(), 0);
        mem.store(Address::new(0), 8, 1);
        mem.store(Address::new(8), 8, 1); // same chunk
        mem.store(Address::new(64), 8, 1); // new chunk
        assert_eq!(mem.touched_chunks(), 2);
    }

    #[test]
    fn snapshot_round_trips_and_orders_chunks() {
        let mut mem = MainMemory::with_fill(FillPattern::Random { seed: 5 });
        // Touch chunks in scrambled order.
        for base in [0x1C0u64, 0x000, 0x300, 0x080] {
            mem.store(Address::new(base), 8, base ^ 0xFF);
        }
        let snap = mem.snapshot();
        let bases: Vec<u64> = snap.chunks.iter().map(|&(b, _)| b).collect();
        assert_eq!(bases, vec![0x000, 0x080, 0x1C0, 0x300], "sorted by base");
        assert_eq!(snap, mem.snapshot(), "snapshot is deterministic");
        let mut back = MainMemory::from_snapshot(snap).expect("valid snapshot");
        for base in [0x1C0u64, 0x000, 0x300, 0x080] {
            assert_eq!(back.load(Address::new(base), 8), base ^ 0xFF);
        }
        assert_eq!(back.fill(), FillPattern::Random { seed: 5 });
        assert_eq!(back.touched_chunks(), 4);
    }

    #[test]
    fn from_snapshot_rejects_malformed_chunks() {
        let good = |base| (base, vec![0u64; WORDS_PER_CHUNK]);
        let misaligned = MemorySnapshot {
            fill: FillPattern::Zero,
            chunks: vec![good(0), (33, vec![0; WORDS_PER_CHUNK])],
        };
        assert!(MainMemory::from_snapshot(misaligned).is_err());
        let short = MemorySnapshot {
            fill: FillPattern::Zero,
            chunks: vec![(64, vec![0; 3])],
        };
        assert!(MainMemory::from_snapshot(short).is_err());
        let dup = MemorySnapshot {
            fill: FillPattern::Zero,
            chunks: vec![good(64), good(64)],
        };
        assert!(MainMemory::from_snapshot(dup).is_err());
    }

    /// Line transfers a word at a time, one map lookup per word: the
    /// oracle for `load_line`/`store_line`.
    fn oracle_load_line(mem: &mut MainMemory, base: Address, buf: &mut [u64]) {
        for (i, word) in buf.iter_mut().enumerate() {
            *word = mem.read_word(base + i as u64 * 8);
        }
    }

    fn oracle_store_line(mem: &mut MainMemory, base: Address, data: &[u64]) {
        for (i, &word) in data.iter().enumerate() {
            mem.write_word(base + i as u64 * 8, word);
        }
    }

    /// `store` as a read-modify-write through two word lookups.
    fn oracle_store(mem: &mut MainMemory, addr: Address, width: u8, value: u64) {
        let word_addr = addr.align_down(8);
        let old = mem.read_word(word_addr);
        mem.write_word(word_addr, splice(old, addr.offset_in(8), width, value));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random sequences of line transfers (8–256 B) and narrow
        /// accesses (1–8 B) over 4 KiB, under both fill patterns: every
        /// read and every snapshot equals the per-word oracle's.
        #[test]
        fn chunk_copies_match_the_per_word_oracle(
            seed in any::<u64>(),
            random_fill in any::<bool>(),
            ops in prop::collection::vec((0u8..4, 0u32..6, 0u64..4096, any::<u64>()), 1..48),
        ) {
            let fill = if random_fill {
                FillPattern::Random { seed }
            } else {
                FillPattern::Zero
            };
            let mut mem = MainMemory::with_fill(fill);
            let mut oracle = MainMemory::with_fill(fill);
            for (kind, size, at, value) in ops {
                let line_bytes = 8u64 << size;
                let base = Address::new(at).align_down(line_bytes);
                let words = (line_bytes / 8) as usize;
                let width = [1u8, 2, 4, 8][size as usize % 4];
                let addr = Address::new(at).align_down(u64::from(width));
                match kind {
                    0 => {
                        let data: Vec<u64> = (0..words as u64)
                            .map(|i| value.rotate_left(i as u32 * 7) ^ i)
                            .collect();
                        mem.store_line(base, &data);
                        oracle_store_line(&mut oracle, base, &data);
                    }
                    1 => {
                        let mut got = vec![0; words];
                        let mut want = vec![0; words];
                        mem.load_line(base, &mut got);
                        oracle_load_line(&mut oracle, base, &mut want);
                        prop_assert_eq!(got, want, "load_line {} B at {}", line_bytes, base);
                    }
                    2 => {
                        mem.store(addr, width, value);
                        oracle_store(&mut oracle, addr, width, value);
                    }
                    _ => prop_assert_eq!(
                        mem.load(addr, width),
                        oracle.load(addr, width),
                        "load {} B at {}", width, addr
                    ),
                }
                prop_assert_eq!(mem.snapshot(), oracle.snapshot());
            }
        }
    }

    #[test]
    fn splice_and_extract_are_inverse() {
        let word = 0x1122_3344_5566_7788u64;
        for (offset, width) in [(0u64, 1u8), (2, 2), (4, 4), (0, 8), (7, 1)] {
            let v = extract(word, offset, width);
            assert_eq!(splice(word, offset, width, v), word);
        }
    }
}
