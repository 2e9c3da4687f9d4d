//! DynamoRIO/memtrace-style text stream parser.
//!
//! The format is one access per line:
//!
//! ```text
//! R 0x7f2a00401000
//! W 0x7f2a00500040 8 0xdeadbeef
//! I 0x401000
//! # comments and blank lines are ignored
//! ```
//!
//! Fields are whitespace-separated: an opcode (`R`ead, `W`rite,
//! `I`nstruction fetch), a hex address (`0x` prefix optional), an
//! optional width (1, 2, 4 or 8 bytes; default 8), and — for writes
//! only — an optional hex value. Writes without a value get a
//! deterministic synthesized one (the CNT-Cache energy model prices
//! actual data bits, so a write must carry *some* payload; deriving it
//! from the line number and address keeps imports reproducible).
//!
//! Strictness is the point: any malformed field is a typed
//! [`ImportError`] carrying the 1-based line number. Lenient mode drops
//! the offending *line* (never a prefix of it) and counts the drop.

use cnt_sim::trace::MemoryAccess;
use cnt_sim::Address;

use crate::error::ImportError;
use crate::{splitmix64, ParsedStream};

/// Widths the `.ctr` record format can carry.
const WIDTHS: [u8; 4] = [1, 2, 4, 8];

/// Parses a whole memtrace-style text stream.
///
/// # Errors
///
/// Typed [`ImportError`]s naming the 1-based line; in lenient mode
/// droppable line-level errors are counted instead of returned.
pub fn parse_text(bytes: &[u8], lenient: bool) -> Result<ParsedStream, ImportError> {
    let mut out = ParsedStream::default();
    for (idx, raw_line) in bytes.split(|&b| b == b'\n').enumerate() {
        let line_no = idx as u64 + 1;
        let line = trim_ascii(raw_line);
        if line.is_empty() || line[0] == b'#' {
            continue;
        }
        out.records_in += 1;
        match parse_line(line, line_no) {
            Ok(access) => out.accesses.push(access),
            Err(e) if lenient && e.is_droppable() => out.drop_record(&e),
            Err(e) => return Err(e),
        }
    }
    Ok(out)
}

/// Parses one non-empty, non-comment line.
fn parse_line(line: &[u8], line_no: u64) -> Result<MemoryAccess, ImportError> {
    let mut fields = line
        .split(|b| b.is_ascii_whitespace())
        .filter(|f| !f.is_empty());
    let opcode = fields.next().expect("line is non-empty");
    let rest: Vec<&[u8]> = fields.collect();

    let kind = match opcode {
        b"R" | b"r" => b'R',
        b"W" | b"w" => b'W',
        b"I" | b"i" => b'I',
        other => {
            return Err(ImportError::BadOpcode {
                line: line_no,
                found: lossy(other),
            })
        }
    };

    let max_fields = if kind == b'W' { 3 } else { 2 };
    if rest.len() > max_fields {
        return Err(ImportError::BadFieldCount {
            line: line_no,
            found: rest.len() + 1,
            max: max_fields + 1,
        });
    }
    let Some(addr_field) = rest.first() else {
        return Err(ImportError::BadAddress {
            line: line_no,
            found: String::new(),
        });
    };
    let addr = parse_hex(addr_field).ok_or_else(|| ImportError::BadAddress {
        line: line_no,
        found: lossy(addr_field),
    })?;

    let width = match rest.get(1) {
        None => 8u8,
        Some(field) => {
            let w = parse_dec(field).ok_or_else(|| ImportError::BadWidth {
                line: line_no,
                found: lossy(field),
            })?;
            let w = u8::try_from(w).unwrap_or(0);
            if !WIDTHS.contains(&w) {
                return Err(ImportError::BadWidth {
                    line: line_no,
                    found: lossy(field),
                });
            }
            w
        }
    };

    // `.ctr` records require natural alignment; captures from real
    // machines contain unaligned accesses, which are normalized by
    // aligning the address down. This is a value-preserving transform
    // for the energy model (the cache line touched is the same), not a
    // silent drop.
    let aligned = Address::new(addr & !(u64::from(width) - 1));
    Ok(match kind {
        b'R' => MemoryAccess::read(aligned, width),
        b'I' => MemoryAccess::ifetch(Address::new(addr & !7)),
        _ => {
            let value = match rest.get(2) {
                Some(field) => parse_hex(field).ok_or_else(|| ImportError::BadValue {
                    line: line_no,
                    found: lossy(field),
                })?,
                None => splitmix64(line_no ^ addr),
            };
            MemoryAccess::write(aligned, width, mask_value(value, width))
        }
    })
}

/// Keeps only the low `width * 8` bits (the record format's contract).
fn mask_value(value: u64, width: u8) -> u64 {
    if width >= 8 {
        value
    } else {
        value & ((1u64 << (u32::from(width) * 8)) - 1)
    }
}

/// Parses a hex field, accepting an optional `0x`/`0X` prefix.
fn parse_hex(field: &[u8]) -> Option<u64> {
    let digits = match field {
        [b'0', b'x', rest @ ..] | [b'0', b'X', rest @ ..] => rest,
        other => other,
    };
    if digits.is_empty() || digits.len() > 16 {
        return None;
    }
    let mut value = 0u64;
    for &b in digits {
        value = (value << 4) | u64::from((b as char).to_digit(16)? as u8);
    }
    Some(value)
}

/// Parses a small decimal field.
fn parse_dec(field: &[u8]) -> Option<u64> {
    if field.is_empty() || field.len() > 3 {
        return None;
    }
    let mut value = 0u64;
    for &b in field {
        if !b.is_ascii_digit() {
            return None;
        }
        value = value * 10 + u64::from(b - b'0');
    }
    Some(value)
}

fn trim_ascii(line: &[u8]) -> &[u8] {
    let start = line.iter().position(|b| !b.is_ascii_whitespace());
    match start {
        None => &[],
        Some(start) => {
            let end = line.iter().rposition(|b| !b.is_ascii_whitespace()).unwrap();
            &line[start..=end]
        }
    }
}

fn lossy(field: &[u8]) -> String {
    String::from_utf8_lossy(field).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnt_sim::trace::AccessKind;

    #[test]
    fn parses_the_documented_forms() {
        let text = b"# header comment\n\
                     R 0x7f2a00401000\n\
                     W 0x7f2a00500040 8 0xdeadbeef\n\
                     I 401000\n\
                     w 1000 4\n\
                     \n";
        let parsed = parse_text(text, false).expect("parses");
        assert_eq!(parsed.records_in, 4);
        assert_eq!(parsed.accesses.len(), 4);
        assert_eq!(parsed.dropped, 0);
        let a = &parsed.accesses;
        assert_eq!(
            a.get(0),
            MemoryAccess::read(Address::new(0x7f2a_0040_1000), 8)
        );
        assert_eq!(
            a.get(1),
            MemoryAccess::write(Address::new(0x7f2a_0050_0040), 8, 0xdead_beef)
        );
        assert_eq!(a.kind(2), AccessKind::InstrFetch);
        assert_eq!(a.kind(3), AccessKind::Write);
        assert_eq!(a.width(3), 4);
        assert!(
            a.values()[3] <= u64::from(u32::MAX),
            "value masked to width"
        );
    }

    #[test]
    fn synthesized_write_values_are_deterministic() {
        let text = b"W 1000\nW 1000\nW 1008\n";
        let a = parse_text(text, false).expect("parses").accesses;
        let b = parse_text(text, false).expect("parses").accesses;
        assert_eq!(a, b);
        let v = a.values();
        assert_ne!(v[0], v[2], "different lines, different values");
        assert_ne!(v[0], v[1], "line number feeds the hash");
    }

    #[test]
    fn unaligned_addresses_are_aligned_down() {
        let parsed = parse_text(b"R 0x1003 4\n", false).expect("parses");
        assert_eq!(parsed.accesses.addr(0), Address::new(0x1000));
    }

    #[test]
    fn each_malformed_field_is_a_typed_error_with_its_line() {
        type Case = (&'static [u8], fn(&ImportError) -> bool);
        let cases: &[Case] = &[
            (b"R 1000\nX 2000\n", |e| {
                matches!(e, ImportError::BadOpcode { line: 2, .. })
            }),
            (b"R zz\n", |e| {
                matches!(e, ImportError::BadAddress { line: 1, .. })
            }),
            (b"R\n", |e| {
                matches!(e, ImportError::BadAddress { line: 1, .. })
            }),
            (b"R 1000 3\n", |e| {
                matches!(e, ImportError::BadWidth { line: 1, .. })
            }),
            (b"W 1000 8 qq\n", |e| {
                matches!(e, ImportError::BadValue { line: 1, .. })
            }),
            (b"R 1000 8 55\n", |e| {
                matches!(e, ImportError::BadFieldCount { line: 1, .. })
            }),
            (b"W 1000 8 55 99\n", |e| {
                matches!(e, ImportError::BadFieldCount { line: 1, .. })
            }),
        ];
        for (text, check) in cases {
            let err = parse_text(text, false).expect_err("must reject");
            assert!(check(&err), "{err} for {:?}", String::from_utf8_lossy(text));
        }
    }

    #[test]
    fn lenient_drops_only_the_bad_lines_and_counts_them() {
        let text = b"R 1000\nX 2000\nW 3000\nR zz\n";
        let parsed = parse_text(text, true).expect("lenient parses");
        assert_eq!(parsed.records_in, 4);
        assert_eq!(parsed.accesses.len(), 2);
        assert_eq!(parsed.dropped, 2);
        let first = parsed.first_drop.expect("first drop recorded");
        assert!(first.contains("line 2"), "{first}");
    }
}
