//! Naive substring search over ASCII text.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::suite::Workload;
use crate::traced::TracedMemory;

/// Counts occurrences of a pattern in random lowercase ASCII text with a
/// naive scan.
///
/// Read-only byte traffic over data whose upper bits are always zero
/// (ASCII): a strongly zero-skewed, read-intensive workload — the best
/// case for storing lines inverted.
///
/// # Panics
///
/// Panics if `text_len <= pattern_len`, `pattern_len` is zero, or the
/// traced scan disagrees with an untraced reference count (self-check).
pub fn string_search(text_len: usize, pattern_len: usize, seed: u64) -> Workload {
    assert!(pattern_len > 0, "pattern must be non-empty");
    assert!(
        text_len > pattern_len,
        "text must be longer than the pattern"
    );
    let mut mem = TracedMemory::new();
    let text = mem.alloc(text_len as u64);
    let pattern = mem.alloc(pattern_len as u64);

    // Lowercase ASCII text from a tiny alphabet so matches actually occur.
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut reference_text = Vec::with_capacity(text_len);
    for i in 0..text_len {
        let ch = b'a' + (rng.gen::<u8>() % 4);
        reference_text.push(ch);
        mem.store_u8(text + i as u64, ch);
    }
    // Take the pattern from the middle of the text: at least one match.
    let start = text_len / 2;
    let mut reference_pattern = Vec::with_capacity(pattern_len);
    for j in 0..pattern_len {
        let ch = reference_text[start + j];
        reference_pattern.push(ch);
        mem.store_u8(pattern + j as u64, ch);
    }

    let mut matches = 0usize;
    for i in 0..=text_len - pattern_len {
        let mut hit = true;
        for j in 0..pattern_len {
            let t = mem.load_u8(text + (i + j) as u64);
            let p = mem.load_u8(pattern + j as u64);
            if t != p {
                hit = false;
                break;
            }
        }
        if hit {
            matches += 1;
        }
    }

    // Self-check against an untraced scan.
    let expect = reference_text
        .windows(pattern_len)
        .filter(|w| *w == reference_pattern.as_slice())
        .count();
    assert_eq!(matches, expect, "string_search self-check failed");
    assert!(matches >= 1, "pattern taken from the text must occur");

    Workload::new(
        "string_search",
        format!("naive search of a {pattern_len}-byte pattern in {text_len} bytes of ASCII"),
        mem.into_trace(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_is_read_dominated() {
        // The only writes are the init phase (text + pattern); the scan
        // itself is pure reads.
        let w = string_search(1024, 8, 1);
        assert!(w.trace.write_fraction() < 0.35);
        assert!(w.trace.iter().skip(1024 + 8).all(|a| !a.is_write()));
    }

    #[test]
    fn ascii_values_are_zero_skewed() {
        let w = string_search(256, 4, 2);
        // Every traced write is an ASCII byte: value < 128.
        for a in w.trace.iter().filter(|a| a.is_write()) {
            assert!(a.value < 128);
        }
    }
}
