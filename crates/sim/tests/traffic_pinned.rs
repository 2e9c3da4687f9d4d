//! Pins the simulator's observable traffic for every replacement policy,
//! write mode and prefetch policy.
//!
//! Each configuration replays the same fixed 20k-access trace of mixed
//! widths over about four times the cache's capacity, then flushes. One
//! FNV-1a hash per configuration folds in every array event the observer
//! sees, every [`AccessOutcome`], the final [`CacheStats`] and the JSON of
//! the final [`Cache::snapshot`]. The constants were captured from the
//! simulator before its storage was flattened; any change to victim
//! choice, event order, write-back traffic or checkpoint bytes moves them.

use std::fmt::{self, Write};

use cnt_sim::{
    Address, ArrayObserver, Cache, CacheGeometry, LineLocation, MainMemory, PrefetchPolicy,
    ReplacementKind, WriteMode,
};

const ACCESSES: usize = 20_000;
const CAPACITY: u64 = 2048;

/// FNV-1a, fed through [`fmt::Write`]; the observer writes one line per
/// array event into it.
struct Fnv(u64);

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

impl ArrayObserver for Fnv {
    fn word_read(&mut self, loc: LineLocation, word_index: usize, value: u64) {
        let _ = writeln!(self, "read {loc} {word_index} {value:x}");
    }

    fn word_written(&mut self, loc: LineLocation, word_index: usize, old: u64, new: u64) {
        let _ = writeln!(self, "write {loc} {word_index} {old:x} {new:x}");
    }

    fn line_filled(&mut self, loc: LineLocation, base: Address, data: &[u64]) {
        let _ = writeln!(self, "fill {loc} {base} {data:x?}");
    }

    fn line_evicted(&mut self, loc: LineLocation, base: Address, data: &[u64], dirty: bool) {
        let _ = writeln!(self, "evict {loc} {base} {data:x?} {dirty}");
    }
}

/// `(is_write, addr, width, value)` for a fixed mixed-width trace: most
/// accesses fall in a hot region the size of the cache, the rest spread
/// over four times its capacity.
fn trace() -> Vec<(bool, u64, u8, u64)> {
    let mut s = 0x5EED_u64;
    let mut next = || {
        s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..ACCESSES)
        .map(|_| {
            let r = next();
            let width = [1u8, 2, 4, 8][(r & 3) as usize];
            let span = if (r >> 2) % 10 < 7 {
                CAPACITY
            } else {
                4 * CAPACITY
            };
            let addr = ((r >> 8) % span) & !(u64::from(width) - 1);
            (((r >> 5) % 3) == 0, addr, width, next())
        })
        .collect()
}

fn replay(kind: ReplacementKind, mode: WriteMode, prefetch: PrefetchPolicy) -> u64 {
    let geometry = CacheGeometry::new(CAPACITY, 64, 4).expect("valid geometry");
    let mut cache = Cache::new("pin", geometry, kind)
        .with_write_mode(mode)
        .with_prefetch(prefetch);
    let mut memory = MainMemory::new();
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for (is_write, addr, width, value) in trace() {
        let addr = Address::new(addr);
        let outcome = if is_write {
            cache.write_outcome(addr, width, value, &mut memory, &mut h)
        } else {
            cache.read_outcome(addr, width, &mut memory, &mut h)
        };
        let _ = writeln!(h, "{:?}", outcome.expect("aligned access"));
    }
    let written = cache.flush(&mut memory, &mut h);
    let stats = serde_json::to_string(cache.stats()).expect("stats serialize");
    let snapshot = serde_json::to_string(&cache.snapshot()).expect("snapshot serializes");
    let _ = writeln!(h, "{written}\n{stats}\n{snapshot}");
    h.0
}

const KINDS: [ReplacementKind; 5] = [
    ReplacementKind::Lru,
    ReplacementKind::Fifo,
    ReplacementKind::Random { seed: 7 },
    ReplacementKind::TreePlru,
    ReplacementKind::Srrip,
];
const MODES: [WriteMode; 3] = [
    WriteMode::WriteBack,
    WriteMode::WriteThrough,
    WriteMode::WriteThroughNoAllocate,
];
const PREFETCH: [PrefetchPolicy; 2] = [PrefetchPolicy::None, PrefetchPolicy::NextLine];

/// One hash per configuration, in `KINDS × MODES × PREFETCH` order.
#[rustfmt::skip]
const PINNED: [u64; 30] = [
    // LRU
    0xE682_7010_5D0A_2CC6, 0x372D_F79E_E256_B44C, 0xB18D_D91E_C22C_472C,
    0x63FB_9F4C_A22A_2C20, 0x6FDC_4794_C43A_03BA, 0xEC82_6E7D_2616_98DD,
    // FIFO
    0x04BC_59BD_B422_25EB, 0xB1C9_5D36_B55B_8233, 0xA325_9E55_5BD8_A9F7,
    0x4ADF_4FE6_4899_0FAE, 0xED5F_DC76_758F_85E7, 0x2E0D_FF4C_0375_651A,
    // random
    0xC2E5_A788_9BE6_C59F, 0x170C_8DB2_5E12_B8BB, 0x5658_3A8F_1847_1EA2,
    0x2F45_8D14_9D03_4F72, 0x31FF_C5D8_6864_6DE4, 0x0500_9E57_08B0_CD87,
    // tree-PLRU
    0x9339_A5ED_BEAF_4A38, 0xEC69_DC1B_BB0D_E42A, 0x5901_3FC5_C0DA_E8CD,
    0xF95D_CD77_D8F4_8A77, 0x01EE_554A_2700_442C, 0x73E2_4F3F_0DC8_4AFF,
    // SRRIP
    0x3AFB_C055_7B09_37A6, 0x8232_192C_E9CD_9D32, 0x988B_F5D5_13E1_B911,
    0x1292_4A7A_6C6F_B6A8, 0x6DDC_8710_BA41_34E6, 0x5F4E_1B4A_86F9_42AC,
];

#[test]
fn traffic_is_pinned_for_every_configuration() {
    let mut actual = Vec::new();
    for kind in KINDS {
        for mode in MODES {
            for prefetch in PREFETCH {
                actual.push(replay(kind, mode, prefetch));
            }
        }
    }
    let table: Vec<String> = actual.iter().map(|h| format!("0x{h:016X},")).collect();
    assert_eq!(
        actual,
        PINNED,
        "traffic moved; actual table:\n{}",
        table.join("\n")
    );
}
