//! ChampSim-style packed binary instruction-trace parser.
//!
//! ChampSim distributes traces as a flat array of fixed 64-byte
//! `input_instr` records (usually xz- or gzip-compressed):
//!
//! ```text
//! offset  field                       size
//! 0       ip                          u64 (little-endian)
//! 8       is_branch                   u8  (0 or 1)
//! 9       branch_taken                u8  (0 or 1)
//! 10      destination_registers[2]    2 × u8
//! 12      source_registers[4]         4 × u8
//! 16      destination_memory[2]       2 × u64
//! 32      source_memory[4]            4 × u64
//! ```
//!
//! The CNT-Cache model consumes demand accesses, so each record maps
//! to: one instruction fetch at `ip`, one 8-byte read per non-zero
//! `source_memory` slot, and one 8-byte write per non-zero
//! `destination_memory` slot. Register fields don't touch the cache
//! and are ignored. Writes carry a deterministic synthesized value
//! (ChampSim traces record *which* bytes move, not their contents,
//! while the energy model prices actual data bits).
//!
//! Strictness: the flag bytes are validated (anything but 0/1 means
//! the reader lost record framing — the single most common symptom of
//! decompressing a truncated download), and a trailing partial record
//! is a typed [`ImportError::TruncatedRecord`] with its byte offset,
//! never a silent drop. Lenient mode skips flag-damaged *records*;
//! truncation stays fatal because past it there is no 64-byte boundary
//! to trust.

use cnt_sim::trace::{AccessBatch, MemoryAccess};
use cnt_sim::Address;

use crate::error::ImportError;
use crate::{splitmix64, ParsedStream};

/// Size of one packed `input_instr` record.
pub const RECORD_BYTES: usize = 64;

/// Parses a whole ChampSim-style binary stream.
///
/// # Errors
///
/// [`ImportError::BadFlag`] for framing damage (droppable in lenient
/// mode), [`ImportError::TruncatedRecord`] for a torn tail (always
/// fatal).
pub fn parse_champsim(bytes: &[u8], lenient: bool) -> Result<ParsedStream, ImportError> {
    let mut out = ParsedStream::default();
    let whole = bytes.len() / RECORD_BYTES * RECORD_BYTES;
    for (idx, record) in bytes[..whole].chunks_exact(RECORD_BYTES).enumerate() {
        let offset = (idx * RECORD_BYTES) as u64;
        out.records_in += 1;
        match parse_record(record, offset, &mut out.accesses) {
            Ok(()) => {}
            Err(e) if lenient && e.is_droppable() => out.drop_record(&e),
            Err(e) => return Err(e),
        }
    }
    if whole < bytes.len() {
        return Err(ImportError::TruncatedRecord {
            offset: whole as u64,
            have: bytes.len() - whole,
            need: RECORD_BYTES,
        });
    }
    Ok(out)
}

/// Decodes one 64-byte record and appends its demand accesses to `out`
/// (nothing is appended when the record is rejected).
fn parse_record(record: &[u8], offset: u64, out: &mut AccessBatch) -> Result<(), ImportError> {
    let ip = u64_at(record, 0);
    for (at, field) in [(8usize, "is_branch"), (9, "branch_taken")] {
        if record[at] > 1 {
            return Err(ImportError::BadFlag {
                offset,
                field,
                value: record[at],
            });
        }
    }
    out.push(MemoryAccess::ifetch(Address::new(ip & !7)));
    // Loads before stores: a store's operands are read first.
    for slot in 0..4 {
        let addr = u64_at(record, 32 + slot * 8);
        if addr != 0 {
            out.push(MemoryAccess::read(Address::new(addr & !7), 8));
        }
    }
    for slot in 0..2 {
        let addr = u64_at(record, 16 + slot * 8);
        if addr != 0 {
            let value = splitmix64(offset ^ addr);
            out.push(MemoryAccess::write(Address::new(addr & !7), 8, value));
        }
    }
    Ok(())
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnt_sim::trace::AccessKind;

    /// Builds one 64-byte record.
    pub(crate) fn record(ip: u64, dst_mem: [u64; 2], src_mem: [u64; 4]) -> [u8; RECORD_BYTES] {
        let mut bytes = [0u8; RECORD_BYTES];
        bytes[..8].copy_from_slice(&ip.to_le_bytes());
        bytes[8] = 0; // is_branch
        bytes[9] = 1; // branch_taken
        for (i, a) in dst_mem.iter().enumerate() {
            bytes[16 + i * 8..24 + i * 8].copy_from_slice(&a.to_le_bytes());
        }
        for (i, a) in src_mem.iter().enumerate() {
            bytes[32 + i * 8..40 + i * 8].copy_from_slice(&a.to_le_bytes());
        }
        bytes
    }

    #[test]
    fn maps_records_to_fetch_reads_writes() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&record(0x401000, [0x5000, 0], [0x1000, 0x2000, 0, 0]));
        bytes.extend_from_slice(&record(0x401004, [0, 0], [0, 0, 0, 0]));
        let parsed = parse_champsim(&bytes, false).expect("parses");
        assert_eq!(parsed.records_in, 2);
        assert_eq!(
            parsed.accesses.kinds(),
            [
                AccessKind::InstrFetch,
                AccessKind::Read,
                AccessKind::Read,
                AccessKind::Write,
                AccessKind::InstrFetch,
            ]
        );
        assert_eq!(parsed.accesses.addr(0), Address::new(0x401000));
        assert_eq!(parsed.accesses.addr(3), Address::new(0x5000));
        assert_ne!(
            parsed.accesses.values()[3],
            0,
            "writes carry synthesized data"
        );
    }

    #[test]
    fn synthesized_values_are_deterministic() {
        let bytes = record(0x401000, [0x5000, 0x6000], [0, 0, 0, 0]);
        let a = parse_champsim(&bytes, false).expect("parses").accesses;
        let b = parse_champsim(&bytes, false).expect("parses").accesses;
        assert_eq!(a, b);
        assert_ne!(
            a.values()[1],
            a.values()[2],
            "different slots, different values"
        );
    }

    #[test]
    fn bad_flag_names_the_record_offset() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&record(0x401000, [0, 0], [0, 0, 0, 0]));
        let mut bad = record(0x401004, [0, 0], [0, 0, 0, 0]);
        bad[8] = 0x7f;
        bytes.extend_from_slice(&bad);
        let err = parse_champsim(&bytes, false).expect_err("rejects");
        assert!(
            matches!(
                err,
                ImportError::BadFlag {
                    offset: 64,
                    field: "is_branch",
                    value: 0x7f
                }
            ),
            "{err}"
        );
        // Lenient drops exactly that record.
        let parsed = parse_champsim(&bytes, true).expect("lenient parses");
        assert_eq!(parsed.records_in, 2);
        assert_eq!(parsed.dropped, 1);
        assert_eq!(parsed.accesses.len(), 1);
        assert!(parsed.first_drop.expect("recorded").contains("byte 64"));
    }

    #[test]
    fn truncated_tail_is_fatal_even_in_lenient_mode() {
        let mut bytes = record(0x401000, [0, 0], [0, 0, 0, 0]).to_vec();
        bytes.extend_from_slice(&[0u8; 10]);
        for lenient in [false, true] {
            let err = parse_champsim(&bytes, lenient).expect_err("rejects");
            assert!(
                matches!(
                    err,
                    ImportError::TruncatedRecord {
                        offset: 64,
                        have: 10,
                        need: 64
                    }
                ),
                "{err}"
            );
        }
    }
}
