//! The cache-line data encoder: full-line and partitioned inversion.
//!
//! In hardware this is the series of inverters with 2:1 multiplexers of the
//! paper's Fig. 1; the partitioned variant of Fig. 2 simply feeds each
//! multiplexer group its own direction bit. In this model the encoder is a
//! pure function from (logical words, direction bits) to stored words.

use serde::{Deserialize, Serialize};

use crate::direction::{DirectionBits, EncodingDirection};
use crate::error::EncodingError;
use crate::popcount::{
    popcount_range, popcount_range_masked, popcount_word_partitions, range_mask_in_word,
};

/// Maximum partitions per line (the direction mask is one `u64`), sizing
/// the stack buffers of the batched per-partition popcount paths.
pub const MAX_PARTITIONS: usize = 64;

/// Which stored bit value the current access pattern prefers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BitPreference {
    /// Read-intensive lines prefer storing `1` bits (reads of `1` are cheap).
    MoreOnes,
    /// Write-intensive lines prefer storing `0` bits (writes of `0` are cheap).
    MoreZeros,
}

/// How a line's bits are split into independently-encoded partitions.
///
/// # Example
///
/// ```
/// use cnt_encoding::PartitionLayout;
///
/// let layout = PartitionLayout::new(512, 8)?;
/// assert_eq!(layout.partition_bits(), 64);
/// assert_eq!(layout.range(1), (64, 64));
/// # Ok::<(), cnt_encoding::EncodingError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PartitionLayout {
    line_bits: u32,
    partitions: u32,
}

impl PartitionLayout {
    /// Creates a layout splitting `line_bits` into `partitions` equal
    /// contiguous ranges.
    ///
    /// # Errors
    ///
    /// Returns [`EncodingError::BadPartitioning`] when `line_bits` is zero
    /// or not a multiple of 64 (lines are word arrays), when `partitions`
    /// is zero or greater than 64 (the direction mask is one word), or when
    /// the split is not exact.
    pub fn new(line_bits: u32, partitions: u32) -> Result<Self, EncodingError> {
        let err = |reason| EncodingError::BadPartitioning {
            line_bits,
            partitions,
            reason,
        };
        if line_bits == 0 || !line_bits.is_multiple_of(64) {
            return Err(err("line length must be a non-zero multiple of 64 bits"));
        }
        if partitions == 0 || partitions > 64 {
            return Err(err("partition count must be in 1..=64"));
        }
        if !line_bits.is_multiple_of(partitions) {
            return Err(err("partitions must divide the line evenly"));
        }
        let pb = line_bits / partitions;
        if pb < 64 {
            if 64 % pb != 0 {
                return Err(err("sub-word partitions must divide a 64-bit word evenly"));
            }
        } else if !pb.is_multiple_of(64) {
            return Err(err("multi-word partitions must cover whole 64-bit words"));
        }
        Ok(PartitionLayout {
            line_bits,
            partitions,
        })
    }

    /// A single partition covering the whole line (the paper's baseline
    /// full-line encoding).
    ///
    /// # Errors
    ///
    /// Same conditions as [`PartitionLayout::new`].
    pub fn full_line(line_bits: u32) -> Result<Self, EncodingError> {
        PartitionLayout::new(line_bits, 1)
    }

    /// Line length in bits.
    pub fn line_bits(&self) -> u32 {
        self.line_bits
    }

    /// Number of partitions.
    pub fn partitions(&self) -> u32 {
        self.partitions
    }

    /// Bits per partition.
    pub fn partition_bits(&self) -> u32 {
        self.line_bits / self.partitions
    }

    /// 64-bit words per line.
    pub fn words(&self) -> usize {
        (self.line_bits / 64) as usize
    }

    /// The `(start_bit, len_bits)` range of partition `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn range(&self, p: u32) -> (u32, u32) {
        assert!(p < self.partitions, "partition {p} out of range");
        let len = self.partition_bits();
        (p * len, len)
    }

    /// The partition containing bit `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is out of range.
    pub fn partition_of_bit(&self, bit: u32) -> u32 {
        assert!(bit < self.line_bits, "bit {bit} out of range");
        bit / self.partition_bits()
    }

    /// The XOR mask that `dirs` applies to word `word_index` of the line:
    /// the union of the in-word ranges of all inverted partitions.
    ///
    /// # Panics
    ///
    /// Panics if `dirs` has a different partition count or `word_index` is
    /// out of range.
    pub fn xor_mask_for_word(&self, dirs: &DirectionBits, word_index: usize) -> u64 {
        assert_eq!(
            dirs.partitions(),
            self.partitions,
            "direction bits mismatch"
        );
        assert!(word_index < self.words(), "word {word_index} out of range");
        // Fast paths: whole-word partitions are the common geometry.
        let pb = self.partition_bits();
        if pb >= 64 {
            let p = (word_index as u32 * 64) / pb;
            return dirs.direction(p).mask64();
        }
        let mut mask = 0u64;
        let per_word = 64 / pb;
        let first = word_index as u32 * per_word;
        for i in 0..per_word {
            let p = first + i;
            if dirs.is_inverted(p) {
                let (start, len) = self.range(p);
                mask |= range_mask_in_word(start, len, word_index);
            }
        }
        mask
    }
}

/// The adaptive encoder: maps logical line contents to stored array
/// contents under a set of direction bits, and chooses directions.
///
/// # Example
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LineCodec {
    layout: PartitionLayout,
}

impl LineCodec {
    /// Creates a codec for the given layout.
    pub fn new(layout: PartitionLayout) -> Self {
        LineCodec { layout }
    }

    /// The partition layout.
    pub fn layout(&self) -> &PartitionLayout {
        &self.layout
    }

    /// Greedily chooses, per partition, the direction that maximizes the
    /// preferred stored bit value. Ties keep [`EncodingDirection::Normal`]
    /// (no gratuitous inversion).
    ///
    /// # Panics
    ///
    /// Panics if `logical` has the wrong length.
    pub fn choose_directions(&self, logical: &[u64], preference: BitPreference) -> DirectionBits {
        self.check_len(logical);
        let mut dirs = DirectionBits::all_normal(self.layout.partitions);
        let half2 = self.layout.partition_bits(); // compare 2*ones vs bits
        for p in 0..self.layout.partitions {
            let (start, len) = self.layout.range(p);
            let ones = popcount_range(logical, start, len);
            let invert = match preference {
                // Want stored ones: invert when the partition is majority zero.
                BitPreference::MoreOnes => 2 * ones < half2,
                // Want stored zeros: invert when the partition is majority one.
                BitPreference::MoreZeros => 2 * ones > half2,
            };
            if invert {
                dirs.set(p, EncodingDirection::Inverted);
            }
        }
        dirs
    }

    /// Encodes logical words into stored words under `dirs`.
    ///
    /// The transform is an involution: [`decode`](Self::decode) is the same
    /// operation.
    ///
    /// # Panics
    ///
    /// Panics if lengths or partition counts mismatch.
    pub fn apply(&self, logical: &[u64], dirs: &DirectionBits) -> Vec<u64> {
        self.check_len(logical);
        logical
            .iter()
            .enumerate()
            .map(|(w, &word)| word ^ self.layout.xor_mask_for_word(dirs, w))
            .collect()
    }

    /// Encodes in place.
    ///
    /// # Panics
    ///
    /// Panics if lengths or partition counts mismatch.
    pub fn apply_in_place(&self, words: &mut [u64], dirs: &DirectionBits) {
        self.check_len(words);
        for (w, word) in words.iter_mut().enumerate() {
            *word ^= self.layout.xor_mask_for_word(dirs, w);
        }
    }

    /// Decodes stored words back to logical words (same as
    /// [`apply`](Self::apply); inversion is an involution).
    ///
    /// # Panics
    ///
    /// Panics if lengths or partition counts mismatch.
    pub fn decode(&self, stored: &[u64], dirs: &DirectionBits) -> Vec<u64> {
        self.apply(stored, dirs)
    }

    /// The stored form of a single word of the line (the demand-path view:
    /// one word flows through the inverter/mux stage).
    ///
    /// # Panics
    ///
    /// Panics if `word_index` is out of range.
    pub fn stored_word(&self, logical_word: u64, dirs: &DirectionBits, word_index: usize) -> u64 {
        logical_word ^ self.layout.xor_mask_for_word(dirs, word_index)
    }

    /// Popcount of the stored form without materializing it.
    ///
    /// # Panics
    ///
    /// Panics if lengths or partition counts mismatch.
    pub fn stored_popcount(&self, logical: &[u64], dirs: &DirectionBits) -> u32 {
        let mut counts = [0u32; MAX_PARTITIONS];
        let n = self.layout.partitions as usize;
        self.stored_partition_popcounts_into(logical, dirs, &mut counts[..n]);
        counts[..n].iter().sum()
    }

    /// Per-partition popcounts of the *stored* form.
    ///
    /// # Panics
    ///
    /// Panics if lengths or partition counts mismatch.
    pub fn stored_partition_popcounts(&self, logical: &[u64], dirs: &DirectionBits) -> Vec<u32> {
        let mut out = vec![0u32; self.layout.partitions as usize];
        self.stored_partition_popcounts_into(logical, dirs, &mut out);
        out
    }

    /// Batched form of
    /// [`stored_partition_popcounts`](Self::stored_partition_popcounts):
    /// fills `out[p]` with the stored popcount of partition `p` in one
    /// streaming pass over the line (unrolled u64×4 for word-aligned
    /// partitions) instead of one range walk per partition. Sub-word
    /// partitions take the masked scalar reference path.
    ///
    /// This is the per-window demand-path kernel: callers keep a
    /// `[u32; MAX_PARTITIONS]` on the stack, so no allocation happens.
    ///
    /// # Panics
    ///
    /// Panics if lengths or partition counts mismatch, or if `out` does
    /// not hold exactly one slot per partition.
    pub fn stored_partition_popcounts_into(
        &self,
        logical: &[u64],
        dirs: &DirectionBits,
        out: &mut [u32],
    ) {
        self.check_len(logical);
        assert_eq!(
            dirs.partitions(),
            self.layout.partitions,
            "direction bits mismatch"
        );
        assert_eq!(
            out.len(),
            self.layout.partitions as usize,
            "need one output slot per partition"
        );
        let pb = self.layout.partition_bits();
        if pb.is_multiple_of(64) {
            popcount_word_partitions(logical, (pb / 64) as usize, out);
        } else {
            for (p, count) in out.iter_mut().enumerate() {
                let (start, len) = self.layout.range(p as u32);
                *count = popcount_range_masked(logical, start, len);
            }
        }
        for (p, count) in out.iter_mut().enumerate() {
            if dirs.is_inverted(p as u32) {
                *count = pb - *count;
            }
        }
    }

    /// Iterator form of the batched per-partition popcounts: computes all
    /// counts up front into a stack buffer (no allocation), then yields
    /// them in partition order.
    ///
    /// # Panics
    ///
    /// Panics if lengths or partition counts mismatch.
    pub fn stored_partition_popcounts_iter(
        &self,
        logical: &[u64],
        dirs: &DirectionBits,
    ) -> impl Iterator<Item = u32> {
        let mut counts = [0u32; MAX_PARTITIONS];
        let n = self.layout.partitions as usize;
        self.stored_partition_popcounts_into(logical, dirs, &mut counts[..n]);
        counts.into_iter().take(n)
    }

    fn check_len(&self, words: &[u64]) {
        assert_eq!(
            words.len(),
            self.layout.words(),
            "line has {} words, layout expects {}",
            words.len(),
            self.layout.words()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::popcount::popcount_words;

    fn codec(partitions: u32) -> LineCodec {
        LineCodec::new(PartitionLayout::new(512, partitions).expect("valid layout"))
    }

    #[test]
    fn layout_validation() {
        assert!(PartitionLayout::new(512, 8).is_ok());
        assert!(PartitionLayout::new(512, 64).is_ok());
        assert!(PartitionLayout::new(512, 0).is_err());
        assert!(PartitionLayout::new(512, 65).is_err());
        assert!(
            PartitionLayout::new(512, 7).is_err(),
            "7 does not divide 512"
        );
        assert!(PartitionLayout::new(100, 2).is_err(), "not a word multiple");
        assert!(PartitionLayout::new(0, 1).is_err());
        // 192/8 = 24-bit partitions straddle words unevenly: rejected.
        assert!(PartitionLayout::new(192, 8).is_err());
        // 192/2 = 96-bit partitions split a word between partitions: rejected.
        assert!(PartitionLayout::new(192, 2).is_err());
        // 192/3 = 64-bit partitions are fine.
        assert!(PartitionLayout::new(192, 3).is_ok());
        let full = PartitionLayout::full_line(512).expect("valid");
        assert_eq!(full.partitions(), 1);
        assert_eq!(full.partition_bits(), 512);
    }

    #[test]
    fn layout_geometry() {
        let l = PartitionLayout::new(512, 8).expect("valid");
        assert_eq!(l.words(), 8);
        assert_eq!(l.range(0), (0, 64));
        assert_eq!(l.range(7), (448, 64));
        assert_eq!(l.partition_of_bit(0), 0);
        assert_eq!(l.partition_of_bit(511), 7);
        // Sub-word partitions.
        let l = PartitionLayout::new(128, 16).expect("valid");
        assert_eq!(l.partition_bits(), 8);
        assert_eq!(l.range(9), (72, 8));
    }

    #[test]
    fn full_line_inversion_for_read_intensive_zeros() {
        // The paper's baseline: mostly-zero data under read preference is
        // inverted wholesale.
        let c = codec(1);
        let logical = [0u64; 8];
        let dirs = c.choose_directions(&logical, BitPreference::MoreOnes);
        assert!(dirs.is_inverted(0));
        let stored = c.apply(&logical, &dirs);
        assert_eq!(popcount_words(&stored), 512);
        assert_eq!(c.decode(&stored, &dirs), logical);
    }

    #[test]
    fn partitioned_encoding_preserves_one_rich_partition() {
        // Fig. 2: a mostly-zero line with one all-ones partition. Full-line
        // inversion would destroy it; partitioned encoding keeps it.
        let mut logical = [0u64; 8];
        logical[6] = u64::MAX; // the "(K-1)th partition"

        let full = codec(1);
        let dirs_full = full.choose_directions(&logical, BitPreference::MoreOnes);
        let stored_full = full.apply(&logical, &dirs_full);

        let part = codec(8);
        let dirs_part = part.choose_directions(&logical, BitPreference::MoreOnes);
        let stored_part = part.apply(&logical, &dirs_part);

        assert!(!dirs_part.is_inverted(6), "one-rich partition stays normal");
        assert!(dirs_part.is_inverted(0));
        assert!(
            popcount_words(&stored_part) > popcount_words(&stored_full),
            "partitioned encoding stores strictly more preferred bits"
        );
        assert_eq!(popcount_words(&stored_part), 512);
    }

    #[test]
    fn write_intensive_prefers_zeros() {
        let c = codec(8);
        let logical = [u64::MAX; 8];
        let dirs = c.choose_directions(&logical, BitPreference::MoreZeros);
        assert_eq!(dirs.inverted_count(), 8);
        assert_eq!(c.stored_popcount(&logical, &dirs), 0);
    }

    #[test]
    fn ties_keep_normal_direction() {
        let c = codec(8);
        let logical = [0x0000_0000_FFFF_FFFFu64; 8]; // exactly half ones
        for pref in [BitPreference::MoreOnes, BitPreference::MoreZeros] {
            let dirs = c.choose_directions(&logical, pref);
            assert!(dirs.all_normal_dirs(), "tie must not invert ({pref:?})");
        }
    }

    #[test]
    fn apply_is_involution_and_in_place_agrees() {
        let c = codec(4);
        let logical: Vec<u64> = (0..8)
            .map(|i| 0x1111_2222_3333_4444u64.wrapping_mul(i + 1))
            .collect();
        let dirs = DirectionBits::from_mask(0b1010, 4);
        let stored = c.apply(&logical, &dirs);
        let mut in_place = logical.clone();
        c.apply_in_place(&mut in_place, &dirs);
        assert_eq!(stored, in_place);
        assert_eq!(c.apply(&stored, &dirs), logical);
    }

    #[test]
    fn stored_word_matches_full_encode() {
        let c = codec(8);
        let logical: Vec<u64> = (0..8u64).map(|i| i * 0x0101_0101_0101_0101).collect();
        let dirs = DirectionBits::from_mask(0b1100_1010, 8);
        let stored = c.apply(&logical, &dirs);
        for w in 0..8 {
            assert_eq!(c.stored_word(logical[w], &dirs, w), stored[w]);
        }
    }

    #[test]
    fn stored_popcount_matches_materialized() {
        let c = LineCodec::new(PartitionLayout::new(128, 16).expect("valid"));
        let logical = [0xDEAD_BEEF_0123_4567u64, 0x0F0F_0F0F_0F0F_0F0F];
        let dirs = DirectionBits::from_mask(0xAAAA, 16);
        let stored = c.apply(&logical, &dirs);
        assert_eq!(c.stored_popcount(&logical, &dirs), popcount_words(&stored));
        let per: u32 = c.stored_partition_popcounts(&logical, &dirs).iter().sum();
        assert_eq!(per, popcount_words(&stored));
    }

    #[test]
    fn sub_word_partitions_encode_correctly() {
        // 128-bit line, 16 partitions of 8 bits: invert only partition 9
        // (bits 72..80, i.e. byte 1 of word 1).
        let c = LineCodec::new(PartitionLayout::new(128, 16).expect("valid"));
        let logical = [0u64, 0];
        let mut dirs = DirectionBits::all_normal(16);
        dirs.set(9, EncodingDirection::Inverted);
        let stored = c.apply(&logical, &dirs);
        assert_eq!(stored[0], 0);
        assert_eq!(stored[1], 0x0000_0000_0000_FF00);
    }

    #[test]
    #[should_panic(expected = "layout expects")]
    fn wrong_line_length_panics() {
        codec(8).apply(&[0u64; 4], &DirectionBits::all_normal(8));
    }

    #[test]
    #[should_panic(expected = "direction bits mismatch")]
    fn wrong_direction_count_panics() {
        codec(8).apply(&[0u64; 8], &DirectionBits::all_normal(4));
    }
}
