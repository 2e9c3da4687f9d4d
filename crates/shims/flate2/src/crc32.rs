//! CRC-32 (IEEE 802.3, the zlib/gzip polynomial) over byte slices.
//!
//! The workspace's only CRC-32: `cnt_trace::crc32` re-exports it for
//! `.ctr` chunks, `.ctrs` sections and `cnt-serve` frames. Shims sit
//! below every workspace crate, so it lives here. Reflected polynomial
//! `0xEDB88320`, init and final XOR `0xFFFF_FFFF` — exactly what gzip's
//! trailer records, so archives produced by stock `gzip(1)` validate
//! against this implementation.
//!
//! Slicing-by-8: `TABLES[k][b]` is the CRC register contribution of
//! byte `b` followed by `k` zero bytes, so one step folds 8 input bytes
//! with 8 independent lookups. The tables are built at compile time.

/// Eight 256-entry tables; `TABLES[0]` is the classic byte-at-a-time
/// table.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Computes the CRC-32 of `data` in one call.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop over a table generated bit by bit at run
    /// time: the reference the sliced loop must agree with.
    fn oracle(data: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc = (crc >> 8) ^ table[((crc ^ u32::from(byte)) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // Standard check values for CRC-32/ISO-HDLC.
        for check in [crc32, oracle] {
            assert_eq!(check(b"123456789"), 0xCBF4_3926);
            assert_eq!(check(b""), 0);
            assert_eq!(check(b"hello world"), 0x0D4A_1185);
            assert_eq!(
                check(b"The quick brown fox jumps over the lazy dog"),
                0x414F_A339
            );
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = vec![0xA5u8; 64];
        let clean = crc32(&data);
        for byte in 0..64 {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), clean, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }

    /// Random lengths in 0..=4096 at random start offsets within one
    /// buffer, so the sliced loop sees every alignment and every tail
    /// length. The shim has no dependencies, so a splitmix64 stream
    /// stands in for a property-testing crate.
    #[test]
    fn sliced_matches_the_byte_loop_at_any_length_and_offset() {
        let mut state = 0x5EED_u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let buffer: Vec<u8> = (0..8192).map(|_| next() as u8).collect();
        for _ in 0..512 {
            let len = (next() % 4097) as usize;
            let start = (next() % (buffer.len() - len + 1) as u64) as usize;
            let data = &buffer[start..start + len];
            assert_eq!(crc32(data), oracle(data), "len {len} at offset {start}");
        }
    }
}
