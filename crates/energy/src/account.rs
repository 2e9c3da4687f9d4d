//! Bit-exact dynamic-energy accounting.
//!
//! The cache layers never compute energy themselves: they report *which bits
//! were read or written* (and why) to an [`EnergyMeter`], which prices them
//! with its [`SramEnergyModel`] and accumulates an [`EnergyBreakdown`].

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

use serde::{Deserialize, Serialize};

use crate::model::{Energy, SramEnergyModel};

/// Why an SRAM array access happened, for breakdown purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChargeKind {
    /// A demand load reading data bits out of the array.
    DataRead,
    /// A demand store writing data bits into the array.
    DataWrite,
    /// Writing a whole refill line into the array after a miss.
    LineFill,
    /// Reading a dirty victim line out of the array for write-back.
    Writeback,
    /// Re-writing a line (or partition) because its encoding direction
    /// switched.
    EncodeSwitch,
    /// Reading H&D metadata bits (history counters, direction bits).
    MetadataRead,
    /// Writing H&D metadata bits.
    MetadataWrite,
    /// Reading protection check bits (parity / SECDED) to verify the
    /// direction vector.
    ProtectionCheck,
    /// Writing protection check bits after a legal direction update or a
    /// repair.
    ProtectionUpdate,
}

impl ChargeKind {
    /// All charge kinds, in breakdown-report order.
    pub const ALL: [ChargeKind; 9] = [
        ChargeKind::DataRead,
        ChargeKind::DataWrite,
        ChargeKind::LineFill,
        ChargeKind::Writeback,
        ChargeKind::EncodeSwitch,
        ChargeKind::MetadataRead,
        ChargeKind::MetadataWrite,
        ChargeKind::ProtectionCheck,
        ChargeKind::ProtectionUpdate,
    ];

    fn index(self) -> usize {
        match self {
            ChargeKind::DataRead => 0,
            ChargeKind::DataWrite => 1,
            ChargeKind::LineFill => 2,
            ChargeKind::Writeback => 3,
            ChargeKind::EncodeSwitch => 4,
            ChargeKind::MetadataRead => 5,
            ChargeKind::MetadataWrite => 6,
            ChargeKind::ProtectionCheck => 7,
            ChargeKind::ProtectionUpdate => 8,
        }
    }

    /// `true` if this kind reads bits out of the array (as opposed to
    /// writing them in).
    pub fn is_read(self) -> bool {
        matches!(
            self,
            ChargeKind::DataRead
                | ChargeKind::Writeback
                | ChargeKind::MetadataRead
                | ChargeKind::ProtectionCheck
        )
    }
}

impl fmt::Display for ChargeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ChargeKind::DataRead => "data read",
            ChargeKind::DataWrite => "data write",
            ChargeKind::LineFill => "line fill",
            ChargeKind::Writeback => "writeback",
            ChargeKind::EncodeSwitch => "encode switch",
            ChargeKind::MetadataRead => "metadata read",
            ChargeKind::MetadataWrite => "metadata write",
            ChargeKind::ProtectionCheck => "protect check",
            ChargeKind::ProtectionUpdate => "protect update",
        };
        f.write_str(s)
    }
}

/// Accumulated bit counts and energies, split by [`ChargeKind`].
///
/// Breakdowns are additive: two breakdowns can be summed with `+`, which is
/// how multi-cache simulations aggregate their report.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Number of `0` bits read out of the array.
    pub bits_read_zero: u64,
    /// Number of `1` bits read out of the array.
    pub bits_read_one: u64,
    /// Number of `0` bits written into the array.
    pub bits_written_zero: u64,
    /// Number of `1` bits written into the array.
    pub bits_written_one: u64,
    /// Energy per charge kind, indexed by [`ChargeKind::ALL`] order.
    energy_by_kind: [Energy; 9],
    /// Bit count per charge kind, indexed by [`ChargeKind::ALL`] order.
    bits_by_kind: [u64; 9],
}

impl EnergyBreakdown {
    /// Creates an empty breakdown.
    pub fn new() -> Self {
        EnergyBreakdown::default()
    }

    /// Total dynamic energy across all kinds.
    pub fn total(&self) -> Energy {
        self.energy_by_kind.iter().sum()
    }

    /// Energy attributed to one charge kind.
    pub fn energy(&self, kind: ChargeKind) -> Energy {
        self.energy_by_kind[kind.index()]
    }

    /// Bits attributed to one charge kind.
    pub fn bits(&self, kind: ChargeKind) -> u64 {
        self.bits_by_kind[kind.index()]
    }

    /// Total bits read out of the array.
    pub fn bits_read(&self) -> u64 {
        self.bits_read_zero + self.bits_read_one
    }

    /// Total bits written into the array.
    pub fn bits_written(&self) -> u64 {
        self.bits_written_zero + self.bits_written_one
    }

    /// Total energy spent reading (all read-like kinds).
    pub fn read_energy(&self) -> Energy {
        ChargeKind::ALL
            .iter()
            .filter(|k| k.is_read())
            .map(|k| self.energy(*k))
            .sum()
    }

    /// Energy attributed to metadata protection (check-bit reads and
    /// writes) — the reliability overhead, itemized.
    pub fn protection_energy(&self) -> Energy {
        self.energy(ChargeKind::ProtectionCheck) + self.energy(ChargeKind::ProtectionUpdate)
    }

    /// Total energy spent writing (all write-like kinds).
    pub fn write_energy(&self) -> Energy {
        ChargeKind::ALL
            .iter()
            .filter(|k| !k.is_read())
            .map(|k| self.energy(*k))
            .sum()
    }

    fn record(&mut self, kind: ChargeKind, ones: u64, width: u64, energy: Energy) {
        debug_assert!(ones <= width);
        let zeros = width - ones;
        if kind.is_read() {
            self.bits_read_one += ones;
            self.bits_read_zero += zeros;
        } else {
            self.bits_written_one += ones;
            self.bits_written_zero += zeros;
        }
        self.energy_by_kind[kind.index()] += energy;
        self.bits_by_kind[kind.index()] += width;
    }
}

impl Add for EnergyBreakdown {
    type Output = EnergyBreakdown;
    fn add(mut self, rhs: EnergyBreakdown) -> EnergyBreakdown {
        self += rhs;
        self
    }
}

impl AddAssign for EnergyBreakdown {
    fn add_assign(&mut self, rhs: EnergyBreakdown) {
        self.bits_read_zero += rhs.bits_read_zero;
        self.bits_read_one += rhs.bits_read_one;
        self.bits_written_zero += rhs.bits_written_zero;
        self.bits_written_one += rhs.bits_written_one;
        for i in 0..self.energy_by_kind.len() {
            self.energy_by_kind[i] += rhs.energy_by_kind[i];
            self.bits_by_kind[i] += rhs.bits_by_kind[i];
        }
    }
}

impl Sub for EnergyBreakdown {
    type Output = EnergyBreakdown;
    fn sub(mut self, rhs: EnergyBreakdown) -> EnergyBreakdown {
        self -= rhs;
        self
    }
}

/// Componentwise subtraction for epoch deltas: `later - earlier` yields
/// the activity accrued between two snapshots of the same meter.
///
/// # Panics
///
/// Panics (in debug builds) if any counter of `rhs` exceeds `self`'s —
/// i.e. if the operands are not ordered snapshots of one accumulator.
impl SubAssign for EnergyBreakdown {
    fn sub_assign(&mut self, rhs: EnergyBreakdown) {
        self.bits_read_zero -= rhs.bits_read_zero;
        self.bits_read_one -= rhs.bits_read_one;
        self.bits_written_zero -= rhs.bits_written_zero;
        self.bits_written_one -= rhs.bits_written_one;
        for i in 0..self.energy_by_kind.len() {
            self.energy_by_kind[i] -= rhs.energy_by_kind[i];
            self.bits_by_kind[i] -= rhs.bits_by_kind[i];
        }
    }
}

impl fmt::Display for EnergyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "total: {:.3}", self.total())?;
        for kind in ChargeKind::ALL {
            writeln!(
                f,
                "  {kind:>14}: {:>14.3}  ({} bits)",
                self.energy(kind),
                self.bits(kind)
            )?;
        }
        Ok(())
    }
}

/// Prices bit-level array activity against an [`SramEnergyModel`].
///
/// # Example
///
/// ```
/// use cnt_energy::{ChargeKind, EnergyMeter, SramEnergyModel};
///
/// let mut meter = EnergyMeter::new(SramEnergyModel::cnfet_default());
/// // A 64-bit word with 16 one-bits is filled into the array.
/// meter.charge_write_word_kind(0xFFFF, 64, ChargeKind::LineFill);
/// assert_eq!(meter.breakdown().bits_written_one, 16);
/// assert_eq!(meter.breakdown().bits_written_zero, 48);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyMeter {
    model: SramEnergyModel,
    breakdown: EnergyBreakdown,
}

impl EnergyMeter {
    /// Creates a meter with an empty breakdown.
    pub fn new(model: SramEnergyModel) -> Self {
        EnergyMeter {
            model,
            breakdown: EnergyBreakdown::new(),
        }
    }

    /// The energy model in use.
    pub fn model(&self) -> &SramEnergyModel {
        &self.model
    }

    /// The accumulated breakdown so far.
    pub fn breakdown(&self) -> &EnergyBreakdown {
        &self.breakdown
    }

    /// Total accumulated energy (shorthand for `breakdown().total()`).
    pub fn total(&self) -> Energy {
        self.breakdown.total()
    }

    /// Resets the breakdown to empty, returning the previous one.
    pub fn take_breakdown(&mut self) -> EnergyBreakdown {
        std::mem::take(&mut self.breakdown)
    }

    /// Replaces the accumulated breakdown (checkpoint restore): the
    /// meter continues accumulating on top of `breakdown` exactly as if
    /// it had metered that activity itself.
    pub fn restore_breakdown(&mut self, breakdown: EnergyBreakdown) {
        self.breakdown = breakdown;
    }

    /// Charges a read of the low `width` bits of `value` as [`ChargeKind::DataRead`].
    pub fn charge_read_word(&mut self, value: u64, width: u32) {
        self.charge_read_word_kind(value, width, ChargeKind::DataRead);
    }

    /// Charges a write of the low `width` bits of `value` as [`ChargeKind::DataWrite`].
    pub fn charge_write_word(&mut self, value: u64, width: u32) {
        self.charge_write_word_kind(value, width, ChargeKind::DataWrite);
    }

    /// Charges a read of the low `width` bits of `value`, attributed to `kind`.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or (debug only) if `value` has bits set above
    /// `width`.
    pub fn charge_read_word_kind(&mut self, value: u64, width: u32, kind: ChargeKind) {
        assert!(width <= 64, "word width {width} exceeds 64");
        debug_assert!(
            width == 64 || value >> width == 0,
            "value has bits above width"
        );
        let ones = value.count_ones();
        self.charge_read_bits_kind(ones, width, kind);
    }

    /// Charges a write of the low `width` bits of `value`, attributed to `kind`.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or (debug only) if `value` has bits set above
    /// `width`.
    pub fn charge_write_word_kind(&mut self, value: u64, width: u32, kind: ChargeKind) {
        assert!(width <= 64, "word width {width} exceeds 64");
        debug_assert!(
            width == 64 || value >> width == 0,
            "value has bits above width"
        );
        let ones = value.count_ones();
        self.charge_write_bits_kind(ones, width, kind);
    }

    /// Charges a read of `width` bits of which `ones` are `1`, attributed to `kind`.
    ///
    /// # Panics
    ///
    /// Panics if `ones > width`.
    pub fn charge_read_bits_kind(&mut self, ones: u32, width: u32, kind: ChargeKind) {
        assert!(ones <= width, "ones {ones} > width {width}");
        let energy = self.model.bits().read_bits(ones, width);
        self.breakdown
            .record(kind, u64::from(ones), u64::from(width), energy);
    }

    /// Charges a write of `width` bits of which `ones` are `1`, attributed to `kind`.
    ///
    /// # Panics
    ///
    /// Panics if `ones > width`.
    pub fn charge_write_bits_kind(&mut self, ones: u32, width: u32, kind: ChargeKind) {
        assert!(ones <= width, "ones {ones} > width {width}");
        let energy = self.model.bits().write_bits(ones, width);
        self.breakdown
            .record(kind, u64::from(ones), u64::from(width), energy);
    }

    /// Charges a read of `width` bits of which `ones` are `1`, attributed
    /// to `kind`, with the energy scaled by `scale`.
    ///
    /// Used for bits that live in physically smaller arrays than the main
    /// data array (e.g. per-line metadata in a narrow sidecar array with
    /// short bitlines), where the per-bit access energy is a fraction of
    /// the data-array cost. Bit *counts* are recorded unscaled.
    ///
    /// # Panics
    ///
    /// Panics if `ones > width` or `scale` is negative or non-finite.
    pub fn charge_read_bits_scaled(&mut self, ones: u32, width: u32, kind: ChargeKind, scale: f64) {
        assert!(ones <= width, "ones {ones} > width {width}");
        assert!(
            scale.is_finite() && scale >= 0.0,
            "bad energy scale {scale}"
        );
        let energy = self.model.bits().read_bits(ones, width) * scale;
        self.breakdown
            .record(kind, u64::from(ones), u64::from(width), energy);
    }

    /// Charges a write of `width` bits of which `ones` are `1`, attributed
    /// to `kind`, with the energy scaled by `scale`.
    ///
    /// See [`charge_read_bits_scaled`](Self::charge_read_bits_scaled).
    ///
    /// # Panics
    ///
    /// Panics if `ones > width` or `scale` is negative or non-finite.
    pub fn charge_write_bits_scaled(
        &mut self,
        ones: u32,
        width: u32,
        kind: ChargeKind,
        scale: f64,
    ) {
        assert!(ones <= width, "ones {ones} > width {width}");
        assert!(
            scale.is_finite() && scale >= 0.0,
            "bad energy scale {scale}"
        );
        let energy = self.model.bits().write_bits(ones, width) * scale;
        self.breakdown
            .record(kind, u64::from(ones), u64::from(width), energy);
    }

    /// Charges a write of a multi-word buffer (e.g. a whole cache line),
    /// attributed to `kind`. Every word is priced at full 64-bit width.
    pub fn charge_write_line_kind(&mut self, words: &[u64], kind: ChargeKind) {
        for &w in words {
            self.charge_write_word_kind(w, 64, kind);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::BitEnergies;

    fn meter() -> EnergyMeter {
        EnergyMeter::new(SramEnergyModel::cnfet_default())
    }

    #[test]
    fn read_word_counts_bits() {
        let mut m = meter();
        m.charge_read_word(0b1011, 4);
        let b = m.breakdown();
        assert_eq!(b.bits_read_one, 3);
        assert_eq!(b.bits_read_zero, 1);
        assert_eq!(b.bits_written(), 0);
        let bits = BitEnergies::cnfet_default();
        let expect = bits.rd1 * 3.0 + bits.rd0 * 1.0;
        assert!((m.total() - expect).abs().femtojoules() < 1e-12);
    }

    #[test]
    fn write_word_counts_bits() {
        let mut m = meter();
        m.charge_write_word(u64::MAX, 64);
        assert_eq!(m.breakdown().bits_written_one, 64);
        assert_eq!(m.breakdown().bits_written_zero, 0);
        let bits = BitEnergies::cnfet_default();
        assert!((m.total() - bits.wr1 * 64.0).abs().femtojoules() < 1e-9);
    }

    #[test]
    fn kinds_are_attributed() {
        let mut m = meter();
        m.charge_write_word_kind(0xF, 4, ChargeKind::LineFill);
        m.charge_read_word_kind(0xF, 4, ChargeKind::Writeback);
        m.charge_write_word_kind(0x0, 4, ChargeKind::EncodeSwitch);
        let b = m.breakdown();
        assert!(b.energy(ChargeKind::LineFill).femtojoules() > 0.0);
        assert!(b.energy(ChargeKind::Writeback).femtojoules() > 0.0);
        assert!(b.energy(ChargeKind::EncodeSwitch).femtojoules() > 0.0);
        assert_eq!(b.energy(ChargeKind::DataRead), Energy::ZERO);
        assert_eq!(b.bits(ChargeKind::LineFill), 4);
        // Writeback is a read-like kind: bits flow out of the array.
        assert_eq!(b.bits_read(), 4);
        assert_eq!(b.bits_written(), 8);
    }

    #[test]
    fn read_and_write_energy_partition_total() {
        let mut m = meter();
        m.charge_read_word(0xAB, 8);
        m.charge_write_word(0xCD, 8);
        m.charge_write_word_kind(0x12, 8, ChargeKind::EncodeSwitch);
        m.charge_read_word_kind(0x0, 8, ChargeKind::MetadataRead);
        let b = m.breakdown();
        let total = b.total();
        let sum = b.read_energy() + b.write_energy();
        assert!((total - sum).abs().femtojoules() < 1e-12);
    }

    #[test]
    fn line_charges_cover_all_words() {
        let mut m = meter();
        let line = [0u64, u64::MAX, 0xFFFF_0000_FFFF_0000, 1];
        m.charge_write_line_kind(&line, ChargeKind::LineFill);
        let b = m.breakdown();
        assert_eq!(b.bits_written(), 256);
        assert_eq!(b.bits_written_one, 64 + 32 + 1);
    }

    #[test]
    fn breakdown_addition_is_componentwise() {
        let mut m1 = meter();
        m1.charge_read_word(0xFF, 8);
        let mut m2 = meter();
        m2.charge_write_word(0x0F, 8);
        let sum = m1.breakdown().clone() + m2.breakdown().clone();
        assert_eq!(sum.bits_read_one, 8);
        assert_eq!(sum.bits_written_one, 4);
        assert_eq!(sum.bits_written_zero, 4);
        let expected = m1.total() + m2.total();
        assert!((sum.total() - expected).abs().femtojoules() < 1e-12);
    }

    #[test]
    fn breakdown_subtraction_yields_epoch_delta() {
        let mut m = meter();
        m.charge_read_word(0xFF, 8);
        let earlier = m.breakdown().clone();
        m.charge_write_word_kind(0x0F, 8, ChargeKind::LineFill);
        m.charge_read_word(0xF0, 8);
        let delta = m.breakdown().clone() - earlier.clone();
        assert_eq!(delta.bits_read_one, 4);
        assert_eq!(delta.bits_written(), 8);
        assert_eq!(delta.bits(ChargeKind::LineFill), 8);
        // Delta plus the earlier snapshot reconstructs the total.
        let rebuilt = earlier + delta;
        assert_eq!(&rebuilt, m.breakdown());
    }

    #[test]
    fn take_breakdown_resets() {
        let mut m = meter();
        m.charge_read_word(0xFF, 8);
        let taken = m.take_breakdown();
        assert_eq!(taken.bits_read_one, 8);
        assert_eq!(m.total(), Energy::ZERO);
        assert_eq!(m.breakdown().bits_read(), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds 64")]
    fn width_over_64_panics() {
        meter().charge_read_word(0, 65);
    }

    #[test]
    #[should_panic(expected = "ones")]
    fn ones_over_width_panics() {
        meter().charge_read_bits_kind(5, 4, ChargeKind::DataRead);
    }

    #[test]
    fn display_lists_all_kinds() {
        let mut m = meter();
        m.charge_read_word(1, 1);
        let s = format!("{}", m.breakdown());
        for kind in ChargeKind::ALL {
            assert!(s.contains(&kind.to_string()), "missing {kind}");
        }
    }

    #[test]
    fn scaled_charges_shrink_energy_not_counts() {
        let mut full = meter();
        let mut scaled = meter();
        full.charge_read_bits_kind(4, 16, ChargeKind::MetadataRead);
        scaled.charge_read_bits_scaled(4, 16, ChargeKind::MetadataRead, 0.1);
        assert_eq!(full.breakdown().bits_read(), scaled.breakdown().bits_read());
        let ratio = scaled.total().ratio(full.total());
        assert!((ratio - 0.1).abs() < 1e-12, "ratio {ratio}");
        // Writes behave the same way.
        let mut w = meter();
        w.charge_write_bits_scaled(8, 8, ChargeKind::MetadataWrite, 0.0);
        assert_eq!(w.total(), Energy::ZERO);
        assert_eq!(w.breakdown().bits_written(), 8);
    }

    #[test]
    #[should_panic(expected = "bad energy scale")]
    fn negative_scale_panics() {
        meter().charge_read_bits_scaled(0, 8, ChargeKind::MetadataRead, -1.0);
    }

    #[test]
    fn protection_kinds_are_attributed_and_classified() {
        let mut m = meter();
        m.charge_read_bits_scaled(2, 5, ChargeKind::ProtectionCheck, 0.1);
        m.charge_write_bits_scaled(3, 5, ChargeKind::ProtectionUpdate, 0.1);
        let b = m.breakdown();
        assert!(b.energy(ChargeKind::ProtectionCheck).femtojoules() > 0.0);
        assert!(b.energy(ChargeKind::ProtectionUpdate).femtojoules() > 0.0);
        let itemized = b.protection_energy();
        assert!((itemized - b.total()).abs().femtojoules() < 1e-12);
        // Check reads flow out of the array, updates flow in.
        assert!(ChargeKind::ProtectionCheck.is_read());
        assert!(!ChargeKind::ProtectionUpdate.is_read());
        assert_eq!(b.bits_read(), 5);
        assert_eq!(b.bits_written(), 5);
    }

    #[test]
    fn breakdown_serde_round_trip() {
        let mut m = meter();
        m.charge_write_word_kind(0xDEAD_BEEF, 64, ChargeKind::LineFill);
        let json = serde_json::to_string(m.breakdown()).expect("serialize");
        let back: EnergyBreakdown = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(&back, m.breakdown());
    }
}
