//! The `.ctr` on-disk layout: file header, chunk frames, and the packed
//! access records inside each chunk payload.
//!
//! All multi-byte integers are little-endian. The layout is:
//!
//! ```text
//! file   := header chunk*
//! header := magic[8] version:u16 flags:u16 chunk_target:u32      (16 bytes)
//! chunk  := payload_len:u32 access_count:u32 crc32:u32 payload   (12-byte frame)
//! payload:= record*                                              (crc32 covers this)
//! record := kind:u8 width:u8 addr:u64 value:u64?                 (value on writes only)
//! ```
//!
//! A clean end of stream falls exactly on a frame boundary; anything else
//! is reported as [`TraceError::Truncated`]. Reads and instruction
//! fetches pack to 10 bytes, writes to 18 — the length prefix plus the
//! access count let a reader skip or budget a chunk without decoding it.

use cnt_sim::trace::{AccessBatch, AccessKind, MemoryAccess};
use cnt_sim::Address;

use crate::error::TraceError;

/// The eight magic bytes opening every `.ctr` file.
pub const MAGIC: [u8; 8] = *b"CNTTRACE";

/// The format version this crate writes for uncompressed traces.
pub const VERSION: u16 = 1;

/// The format version written when chunk payloads are compressed.
///
/// Compression is a breaking change for readers — frame `payload_len`
/// becomes the *on-disk* (deflated) length and the payload needs
/// inflating before the CRC check — so compressed files bump the
/// version rather than hide behind a flag bit version-1 readers would
/// ignore. Old readers reject such files with a typed
/// [`TraceError::UnsupportedVersion`] instead of misreading them.
pub const VERSION_COMPRESSED: u16 = 2;

/// Header flag bit: chunk payloads are DEFLATE-compressed.
///
/// Only meaningful at [`VERSION_COMPRESSED`] and above; version-1 files
/// keep `flags` reserved-and-ignored as before.
pub const FLAG_COMPRESSED: u16 = 1 << 0;

/// Size of the fixed file header in bytes.
pub const HEADER_BYTES: usize = 16;

/// Size of each chunk frame (before its payload) in bytes.
pub const FRAME_BYTES: usize = 12;

const KIND_READ: u8 = 0;
const KIND_WRITE: u8 = 1;
const KIND_IFETCH: u8 = 2;

/// The parsed file header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Format version ([`VERSION`], or [`VERSION_COMPRESSED`] when the
    /// payloads are deflated).
    pub version: u16,
    /// Flag bits: [`FLAG_COMPRESSED`] at version 2+; all other bits
    /// remain reserved and ignored.
    pub flags: u16,
    /// The writer's target accesses per chunk — informational, for tools
    /// sizing prefetch windows before reading any frame.
    pub chunk_target: u32,
}

impl Header {
    /// Renders the 16-byte header.
    pub fn to_bytes(&self) -> [u8; HEADER_BYTES] {
        let mut out = [0u8; HEADER_BYTES];
        out[..8].copy_from_slice(&MAGIC);
        out[8..10].copy_from_slice(&self.version.to_le_bytes());
        out[10..12].copy_from_slice(&self.flags.to_le_bytes());
        out[12..16].copy_from_slice(&self.chunk_target.to_le_bytes());
        out
    }

    /// Parses and validates a 16-byte header.
    ///
    /// # Errors
    ///
    /// [`TraceError::BadMagic`] or [`TraceError::UnsupportedVersion`].
    pub fn from_bytes(bytes: &[u8; HEADER_BYTES]) -> Result<Self, TraceError> {
        let mut found = [0u8; 8];
        found.copy_from_slice(&bytes[..8]);
        if found != MAGIC {
            return Err(TraceError::BadMagic { found });
        }
        let version = u16::from_le_bytes([bytes[8], bytes[9]]);
        if version != VERSION && version != VERSION_COMPRESSED {
            return Err(TraceError::UnsupportedVersion { version });
        }
        Ok(Header {
            version,
            flags: u16::from_le_bytes([bytes[10], bytes[11]]),
            chunk_target: u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]),
        })
    }

    /// True when chunk payloads must be inflated before decoding.
    pub fn compressed(&self) -> bool {
        self.version >= VERSION_COMPRESSED && self.flags & FLAG_COMPRESSED != 0
    }
}

/// One chunk frame: what precedes every payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// Payload length in bytes.
    pub payload_len: u32,
    /// Number of access records in the payload.
    pub access_count: u32,
    /// CRC-32 of the payload bytes.
    pub crc32: u32,
}

impl Frame {
    /// Renders the 12-byte frame.
    pub fn to_bytes(&self) -> [u8; FRAME_BYTES] {
        let mut out = [0u8; FRAME_BYTES];
        out[..4].copy_from_slice(&self.payload_len.to_le_bytes());
        out[4..8].copy_from_slice(&self.access_count.to_le_bytes());
        out[8..12].copy_from_slice(&self.crc32.to_le_bytes());
        out
    }

    /// Parses a 12-byte frame.
    pub fn from_bytes(bytes: &[u8; FRAME_BYTES]) -> Self {
        Frame {
            payload_len: u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]),
            access_count: u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]),
            crc32: u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]),
        }
    }
}

/// Appends one access record to a payload buffer.
pub fn encode_access(access: &MemoryAccess, out: &mut Vec<u8>) {
    let kind = match access.kind {
        AccessKind::Read => KIND_READ,
        AccessKind::Write => KIND_WRITE,
        AccessKind::InstrFetch => KIND_IFETCH,
    };
    out.push(kind);
    out.push(access.width);
    out.extend_from_slice(&access.addr.value().to_le_bytes());
    if access.is_write() {
        out.extend_from_slice(&access.value.to_le_bytes());
    }
}

/// Decodes an entire chunk payload into a reusable struct-of-arrays
/// batch. The batch is cleared first, then every record's columns are
/// appended directly, so a replay loop can stream chunk after chunk
/// through one set of buffers.
///
/// `chunk` is only used for error reporting; `expected` is the frame's
/// access count and must match exactly.
///
/// # Errors
///
/// [`TraceError::BadRecord`] when the payload is malformed — an unknown
/// kind byte, a record running past the payload end, trailing bytes, or
/// a record count that disagrees with the frame. On error the batch
/// contents are unspecified (but always internally consistent).
pub fn decode_payload_into(
    payload: &[u8],
    expected: u32,
    chunk: u64,
    out: &mut AccessBatch,
) -> Result<(), TraceError> {
    out.clear();
    out.reserve(expected as usize);
    let mut offset = 0usize;
    while offset < payload.len() {
        let rest = &payload[offset..];
        if rest.len() < 10 {
            return Err(TraceError::BadRecord {
                chunk,
                offset,
                what: "record truncated inside payload",
            });
        }
        let kind = rest[0];
        let width = rest[1];
        let addr = Address::new(u64::from_le_bytes(rest[2..10].try_into().expect("8 bytes")));
        match kind {
            KIND_READ => {
                out.push_parts(AccessKind::Read, addr, width, 0);
                offset += 10;
            }
            KIND_IFETCH => {
                out.push_parts(AccessKind::InstrFetch, addr, width, 0);
                offset += 10;
            }
            KIND_WRITE => {
                if rest.len() < 18 {
                    return Err(TraceError::BadRecord {
                        chunk,
                        offset,
                        what: "write record truncated inside payload",
                    });
                }
                let value = u64::from_le_bytes(rest[10..18].try_into().expect("8 bytes"));
                out.push_parts(AccessKind::Write, addr, width, value);
                offset += 18;
            }
            _ => {
                return Err(TraceError::BadRecord {
                    chunk,
                    offset,
                    what: "unknown access kind byte",
                })
            }
        }
    }
    if out.len() != expected as usize {
        return Err(TraceError::BadRecord {
            chunk,
            offset,
            what: "payload record count disagrees with frame access count",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips() {
        let h = Header {
            version: VERSION,
            flags: 0,
            chunk_target: 4096,
        };
        let back = Header::from_bytes(&h.to_bytes()).expect("valid header");
        assert_eq!(back, h);
    }

    #[test]
    fn header_rejects_bad_magic_and_version() {
        let mut bytes = Header {
            version: VERSION,
            flags: 0,
            chunk_target: 1,
        }
        .to_bytes();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            Header::from_bytes(&bytes),
            Err(TraceError::BadMagic { .. })
        ));
        let mut bytes = Header {
            version: VERSION,
            flags: 0,
            chunk_target: 1,
        }
        .to_bytes();
        bytes[8] = 99;
        assert!(matches!(
            Header::from_bytes(&bytes),
            Err(TraceError::UnsupportedVersion { version: 99 })
        ));
    }

    #[test]
    fn compressed_header_round_trips_and_flags_gate() {
        let h = Header {
            version: VERSION_COMPRESSED,
            flags: FLAG_COMPRESSED,
            chunk_target: 4096,
        };
        let back = Header::from_bytes(&h.to_bytes()).expect("v2 headers parse");
        assert_eq!(back, h);
        assert!(back.compressed());
        // The flag bit alone does not enable compression at version 1:
        // v1 readers always treated flags as reserved-and-ignored.
        let v1 = Header {
            version: VERSION,
            flags: FLAG_COMPRESSED,
            chunk_target: 4096,
        };
        assert!(!Header::from_bytes(&v1.to_bytes())
            .expect("v1 parses")
            .compressed());
        // And a v2 header without the bit set is plain.
        let plain = Header {
            version: VERSION_COMPRESSED,
            flags: 0,
            chunk_target: 4096,
        };
        assert!(!plain.compressed());
    }

    fn decode(payload: &[u8], expected: u32, chunk: u64) -> Result<AccessBatch, TraceError> {
        let mut batch = AccessBatch::new();
        decode_payload_into(payload, expected, chunk, &mut batch).map(|()| batch)
    }

    #[test]
    fn records_round_trip() {
        let accesses = vec![
            MemoryAccess::read(Address::new(0x1000), 4),
            MemoryAccess::write(Address::new(0x2008), 8, 0xDEAD_BEEF_CAFE_F00D),
            MemoryAccess::ifetch(Address::new(0x40)),
            MemoryAccess::write(Address::new(0x3001), 1, 0xFF),
        ];
        let mut payload = Vec::new();
        for a in &accesses {
            encode_access(a, &mut payload);
        }
        assert_eq!(payload.len(), 10 + 18 + 10 + 18);
        let back = decode(&payload, accesses.len() as u32, 0).expect("decodes");
        assert_eq!(back.iter().collect::<Vec<_>>(), accesses);
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        let mut payload = Vec::new();
        encode_access(&MemoryAccess::read(Address::new(8), 8), &mut payload);
        // Wrong count.
        assert!(matches!(
            decode(&payload, 2, 7),
            Err(TraceError::BadRecord { chunk: 7, .. })
        ));
        // Truncated record.
        assert!(decode(&payload[..5], 1, 0).is_err());
        // Unknown kind byte.
        let mut bad = payload.clone();
        bad[0] = 9;
        assert!(matches!(
            decode(&bad, 1, 0),
            Err(TraceError::BadRecord {
                what: "unknown access kind byte",
                ..
            })
        ));
        // Truncated write.
        let mut w = Vec::new();
        encode_access(&MemoryAccess::write(Address::new(8), 8, 1), &mut w);
        assert!(decode(&w[..12], 1, 0).is_err());
    }
}
