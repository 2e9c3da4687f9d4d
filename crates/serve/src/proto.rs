//! The `cnt-serve` wire protocol (see `DESIGN.md` §15 for the spec).
//!
//! A connection opens with a symmetric 16-byte hello exchange (magic,
//! protocol version, feature bits), then carries length-prefixed,
//! CRC-32-protected frames in both directions — the same framing
//! discipline as the `.ctr` chunk grammar, lifted onto the socket:
//!
//! ```text
//! hello := magic[8] version:u16 reserved:u16 features:u32   (16 bytes)
//! frame := kind:u8 flags:u8 reserved:u16
//!          payload_len:u32 crc32:u32 payload                (12-byte header)
//! ```
//!
//! All integers are little-endian; `crc32` covers the payload bytes.
//! Every way a frame can be unacceptable — bad magic, version skew, an
//! unknown kind byte, an oversized length prefix, a CRC mismatch, a
//! payload that does not decode — is a distinct [`ProtoError`] variant,
//! never a panic: both ends treat the peer as untrusted input.
//!
//! Feature bits degrade gracefully: each side advertises what it can do
//! and the session runs on the intersection, so an old client that
//! cannot consume a streamed observability feed still gets its replay
//! (and the final [`Done`] summary) from a newer server.

use std::io::{Read, Write};

use cnt_trace::crc32;
use serde::{Deserialize, Serialize};

/// The eight magic bytes opening every hello.
pub const MAGIC: [u8; 8] = *b"CNTSERVE";

/// The protocol version this crate speaks.
pub const VERSION: u16 = 1;

/// Feature bit: the peer can stream/consume per-epoch observability
/// frames ([`Kind::Obs`]) while the replay runs.
pub const FEATURE_OBS_STREAM: u32 = 1;

/// Feature bit: the server checkpoints in-flight sessions periodically
/// and resumes them after a crash.
pub const FEATURE_CHECKPOINT: u32 = 2;

/// Size of the hello exchange message in bytes.
pub const HELLO_BYTES: usize = 16;

/// Size of each frame header (before its payload) in bytes.
pub const FRAME_HEADER_BYTES: usize = 12;

/// Hard ceiling on one frame's payload. Larger length prefixes are
/// rejected before any allocation — a corrupt or hostile length field
/// must not be able to balloon server memory.
pub const MAX_FRAME_PAYLOAD: u32 = 16 * 1024 * 1024;

/// One side's hello: who it is and what it can do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Protocol version the sender speaks.
    pub version: u16,
    /// Feature bits the sender supports (`FEATURE_*`).
    pub features: u32,
}

impl Hello {
    /// The hello this build sends, with the given feature bits.
    #[must_use]
    pub fn ours(features: u32) -> Self {
        Hello {
            version: VERSION,
            features,
        }
    }

    /// Renders the 16-byte hello.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; HELLO_BYTES] {
        let mut out = [0u8; HELLO_BYTES];
        out[..8].copy_from_slice(&MAGIC);
        out[8..10].copy_from_slice(&self.version.to_le_bytes());
        // bytes 10..12 reserved, zero.
        out[12..16].copy_from_slice(&self.features.to_le_bytes());
        out
    }

    /// Parses and validates a 16-byte hello.
    ///
    /// # Errors
    ///
    /// [`ProtoError::BadMagic`] when the peer is not speaking this
    /// protocol at all; [`ProtoError::UnsupportedVersion`] on version
    /// skew (the caller may still read `features` off the wire bytes to
    /// report what the peer wanted).
    pub fn from_bytes(bytes: &[u8; HELLO_BYTES]) -> Result<Self, ProtoError> {
        let mut found = [0u8; 8];
        found.copy_from_slice(&bytes[..8]);
        if found != MAGIC {
            return Err(ProtoError::BadMagic { found });
        }
        let version = u16::from_le_bytes([bytes[8], bytes[9]]);
        if version != VERSION {
            return Err(ProtoError::UnsupportedVersion { version });
        }
        Ok(Hello {
            version,
            features: u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]),
        })
    }
}

/// Frame kinds. Client-originated kinds live below `0x80`,
/// server-originated kinds at `0x80` and above.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// Client → server: open a replay session. Payload: [`OpenSession`]
    /// as JSON.
    OpenSession = 0x01,
    /// Client → server: the 16-byte `.ctr` file header of the trace
    /// about to be streamed.
    TraceHeader = 0x02,
    /// Client → server: one `.ctr` chunk, verbatim — the 12-byte chunk
    /// frame followed by its payload.
    Chunk = 0x03,
    /// Client → server: the trace is complete; replay it.
    Finish = 0x04,
    /// Client → server: abandon the session (any phase). The server
    /// tears the session down completely and frees its budget.
    Cancel = 0x05,
    /// Client → server: report session status. Payload empty.
    Status = 0x06,
    /// Server → client: session admitted. Payload: [`Accepted`] JSON.
    Accepted = 0x81,
    /// Server → client: session is waiting for replay budget. Payload:
    /// [`Queued`] JSON. Followed by [`Kind::Accepted`] (or an error)
    /// once budget frees up.
    Queued = 0x82,
    /// Server → client: one observability snapshot, as the exact JSONL
    /// line (trailing newline included) the offline replay would have
    /// written.
    Obs = 0x83,
    /// Server → client: the replay finished. Payload: [`Done`] JSON.
    Done = 0x84,
    /// Server → client: something went wrong. Payload: [`ErrorMsg`]
    /// JSON; `fatal` means the connection closes after this frame.
    Error = 0x85,
    /// Server → client: status report. Payload: [`StatusReport`] JSON.
    StatusReport = 0x86,
}

impl Kind {
    /// Decodes a kind byte.
    ///
    /// # Errors
    ///
    /// [`ProtoError::UnknownKind`] for anything this build does not
    /// recognise.
    pub fn from_u8(byte: u8) -> Result<Self, ProtoError> {
        Ok(match byte {
            0x01 => Kind::OpenSession,
            0x02 => Kind::TraceHeader,
            0x03 => Kind::Chunk,
            0x04 => Kind::Finish,
            0x05 => Kind::Cancel,
            0x06 => Kind::Status,
            0x81 => Kind::Accepted,
            0x82 => Kind::Queued,
            0x83 => Kind::Obs,
            0x84 => Kind::Done,
            0x85 => Kind::Error,
            0x86 => Kind::StatusReport,
            other => return Err(ProtoError::UnknownKind { byte: other }),
        })
    }
}

/// Everything that can go wrong on the wire. Every variant is a typed,
/// reportable condition — malformed input from the peer must never
/// panic or wedge the process.
#[derive(Debug)]
pub enum ProtoError {
    /// Socket/transport failure, including a read timeout and a peer
    /// that closed mid-frame.
    Io(std::io::Error),
    /// The peer's hello did not open with the protocol magic.
    BadMagic {
        /// The eight bytes found instead.
        found: [u8; 8],
    },
    /// The peer speaks a protocol version this build does not.
    UnsupportedVersion {
        /// The version the peer announced.
        version: u16,
    },
    /// A frame header carried a kind byte this build does not know.
    UnknownKind {
        /// The offending byte.
        byte: u8,
    },
    /// A frame announced a payload larger than [`MAX_FRAME_PAYLOAD`].
    Oversized {
        /// The announced payload length.
        len: u32,
    },
    /// A frame payload failed its CRC-32 check.
    Crc {
        /// CRC announced by the frame header.
        expected: u32,
        /// CRC computed over the received payload.
        found: u32,
    },
    /// A frame payload did not decode as the kind's message type.
    BadPayload {
        /// The frame kind being decoded.
        kind: &'static str,
        /// What was wrong.
        what: String,
    },
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// A frame arrived that the protocol state machine does not allow
    /// here (e.g. a chunk before the session was opened).
    Unexpected {
        /// What the receiver was prepared to handle.
        expected: &'static str,
        /// The kind that arrived.
        found: Kind,
    },
}

impl ProtoError {
    /// Short stable identifier for [`ErrorMsg::code`].
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            ProtoError::Io(_) => "io",
            ProtoError::BadMagic { .. } => "bad-magic",
            ProtoError::UnsupportedVersion { .. } => "version-skew",
            ProtoError::UnknownKind { .. } => "unknown-kind",
            ProtoError::Oversized { .. } => "oversized-frame",
            ProtoError::Crc { .. } => "crc-mismatch",
            ProtoError::BadPayload { .. } => "bad-payload",
            ProtoError::Closed => "closed",
            ProtoError::Unexpected { .. } => "unexpected-frame",
        }
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "transport failure: {e}"),
            ProtoError::BadMagic { found } => {
                write!(f, "bad protocol magic {found:02X?}")
            }
            ProtoError::UnsupportedVersion { version } => {
                write!(
                    f,
                    "unsupported protocol version {version} (this build speaks {VERSION})"
                )
            }
            ProtoError::UnknownKind { byte } => write!(f, "unknown frame kind 0x{byte:02X}"),
            ProtoError::Oversized { len } => write!(
                f,
                "frame payload of {len} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte ceiling"
            ),
            ProtoError::Crc { expected, found } => write!(
                f,
                "frame CRC mismatch: header says {expected:#010X}, payload hashes to {found:#010X}"
            ),
            ProtoError::BadPayload { kind, what } => {
                write!(f, "{kind} payload does not decode: {what}")
            }
            ProtoError::Closed => write!(f, "peer closed the connection"),
            ProtoError::Unexpected { expected, found } => {
                write!(f, "unexpected {found:?} frame (expected {expected})")
            }
        }
    }
}

impl std::error::Error for ProtoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// Writes one side's hello.
///
/// # Errors
///
/// [`ProtoError::Io`] on transport failure.
pub fn write_hello<W: Write>(w: &mut W, hello: &Hello) -> Result<(), ProtoError> {
    w.write_all(&hello.to_bytes())?;
    w.flush()?;
    Ok(())
}

/// Reads and validates the peer's hello.
///
/// # Errors
///
/// [`ProtoError::Closed`] if the peer hung up before sending one;
/// otherwise as [`Hello::from_bytes`].
pub fn read_hello<R: Read>(r: &mut R) -> Result<Hello, ProtoError> {
    let mut bytes = [0u8; HELLO_BYTES];
    read_exact_or_closed(r, &mut bytes)?;
    Hello::from_bytes(&bytes)
}

/// Writes one frame: header (with CRC over `payload`) then payload.
///
/// # Errors
///
/// [`ProtoError::Oversized`] if `payload` exceeds
/// [`MAX_FRAME_PAYLOAD`]; otherwise [`ProtoError::Io`].
pub fn write_frame<W: Write>(w: &mut W, kind: Kind, payload: &[u8]) -> Result<(), ProtoError> {
    let len = u32::try_from(payload.len()).unwrap_or(u32::MAX);
    if len > MAX_FRAME_PAYLOAD {
        return Err(ProtoError::Oversized { len });
    }
    let mut header = [0u8; FRAME_HEADER_BYTES];
    header[0] = kind as u8;
    // header[1] flags and header[2..4] reserved stay zero.
    header[4..8].copy_from_slice(&len.to_le_bytes());
    header[8..12].copy_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one complete frame: header, payload, CRC check.
///
/// # Errors
///
/// [`ProtoError::Closed`] on a clean hang-up at a frame boundary;
/// [`ProtoError::Io`] on any other transport failure, a read timeout
/// included — bytes of the frame may already be consumed, so the
/// stream is no longer at a frame boundary; [`ProtoError::UnknownKind`],
/// [`ProtoError::Oversized`], or [`ProtoError::Crc`] for frames that
/// are structurally unacceptable.
pub fn read_frame<R: Read>(r: &mut R) -> Result<(Kind, Vec<u8>), ProtoError> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    read_exact_or_closed(r, &mut header)?;
    let kind = Kind::from_u8(header[0])?;
    let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    let expected = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    if len > MAX_FRAME_PAYLOAD {
        return Err(ProtoError::Oversized { len });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let found = crc32(&payload);
    if found != expected {
        return Err(ProtoError::Crc { expected, found });
    }
    Ok((kind, payload))
}

/// Like `read_exact`, but distinguishes "peer closed before the first
/// byte" ([`ProtoError::Closed`]) from a mid-message truncation.
fn read_exact_or_closed<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), ProtoError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Err(ProtoError::Closed),
            Ok(0) => {
                return Err(ProtoError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "peer closed mid-message",
                )))
            }
            Ok(n) => filled += n,
            // A timeout may land with bytes already consumed, so it is
            // never a retryable "nothing arrived yet": surface it.
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    Ok(())
}

/// Serialises a typed message as a frame payload.
///
/// # Errors
///
/// [`ProtoError::BadPayload`] if the value fails to serialise.
pub fn encode_msg<T: Serialize>(kind: &'static str, value: &T) -> Result<Vec<u8>, ProtoError> {
    serde_json::to_string(value)
        .map(String::into_bytes)
        .map_err(|e| ProtoError::BadPayload {
            kind,
            what: e.to_string(),
        })
}

/// Decodes a frame payload as a typed message.
///
/// # Errors
///
/// [`ProtoError::BadPayload`] when the bytes are not UTF-8 JSON of the
/// expected shape.
pub fn decode_msg<T: Deserialize>(kind: &'static str, payload: &[u8]) -> Result<T, ProtoError> {
    let text = std::str::from_utf8(payload).map_err(|e| ProtoError::BadPayload {
        kind,
        what: format!("payload is not UTF-8: {e}"),
    })?;
    serde_json::from_str(text).map_err(|e| ProtoError::BadPayload {
        kind,
        what: e.to_string(),
    })
}

/// Client → server: the session the client wants to run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpenSession {
    /// The streaming-reader byte budget the replay runs under, in MiB.
    /// This is also the admission-control unit: the server grants the
    /// session a lease of this many bytes from its global budget (or
    /// queues/rejects the request).
    pub budget_mib: usize,
    /// Metrics epoch length in accesses; `0` runs the replay
    /// unobserved (no obs frames, no metrics file).
    pub metrics_every: u64,
    /// Total `.ctr` bytes the client is about to stream (header
    /// included). The server enforces this as a hard ceiling on the
    /// spool.
    pub trace_bytes: u64,
    /// Registry workload id (`synth/<kernel>` or `import/<stem>`) to
    /// replay instead of a client-streamed trace. When set, the server
    /// materializes the trace itself from its workload registry and
    /// `trace_bytes` must be `0` (there is nothing to spool). Absent
    /// (`None`) in requests from older clients, which always stream.
    #[serde(default)]
    pub workload: Option<String>,
}

/// Server → client: the session is admitted and may stream its trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Accepted {
    /// The server-assigned session id (`s0000`, `s0001`, …).
    pub session: String,
}

/// Server → client: the session is admissible but must wait for
/// budget currently leased to other sessions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Queued {
    /// Bytes of global budget currently available (informational).
    pub available_bytes: u64,
}

/// Server → client: the replay completed. Mirrors the offline
/// `tracegen stream-replay` summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Done {
    /// The session this concludes.
    pub session: String,
    /// Accesses replayed (one pass; both passes replay the same
    /// stream).
    pub accesses: u64,
    /// Baseline (no encoding) total energy, femtojoules.
    pub baseline_fj: f64,
    /// Adaptive CNT total energy, femtojoules.
    pub cnt_fj: f64,
    /// Observability snapshots streamed/recorded for this session.
    pub snapshots: u64,
}

/// Server → client: a typed failure report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorMsg {
    /// Stable machine-readable code (see [`ProtoError::code`] plus
    /// server codes like `admission`, `cancelled`, `replay`).
    pub code: String,
    /// Whether the server closes the connection after this frame.
    pub fatal: bool,
    /// Human-readable description.
    pub message: String,
}

/// Server → client: answer to a [`Kind::Status`] request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatusReport {
    /// The session being reported (empty before admission).
    pub session: String,
    /// Phase: `spooling`, `replaying`, or `done`.
    pub phase: String,
    /// Chunks spooled so far (spool phase) or obs epochs streamed so
    /// far (replay phase).
    pub progress: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_round_trips_and_rejects_skew() {
        let hello = Hello::ours(FEATURE_OBS_STREAM | FEATURE_CHECKPOINT);
        let back = Hello::from_bytes(&hello.to_bytes()).expect("valid");
        assert_eq!(back, hello);

        let mut bad = hello.to_bytes();
        bad[0] ^= 0xFF;
        assert!(matches!(
            Hello::from_bytes(&bad),
            Err(ProtoError::BadMagic { .. })
        ));

        let mut skewed = hello.to_bytes();
        skewed[8] = 0x2A;
        skewed[9] = 0;
        assert!(matches!(
            Hello::from_bytes(&skewed),
            Err(ProtoError::UnsupportedVersion { version: 0x2A })
        ));
    }

    #[test]
    fn frames_round_trip_through_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, Kind::Chunk, b"payload bytes").expect("writes");
        write_frame(&mut wire, Kind::Finish, b"").expect("writes");
        let mut r = wire.as_slice();
        let (kind, payload) = read_frame(&mut r).expect("reads");
        assert_eq!(kind, Kind::Chunk);
        assert_eq!(payload, b"payload bytes");
        let (kind, payload) = read_frame(&mut r).expect("reads");
        assert_eq!(kind, Kind::Finish);
        assert!(payload.is_empty());
        assert!(matches!(read_frame(&mut r), Err(ProtoError::Closed)));
    }

    #[test]
    fn corrupt_frames_yield_typed_errors() {
        let mut wire = Vec::new();
        write_frame(&mut wire, Kind::Obs, b"{\"x\":1}\n").expect("writes");

        // Flip a payload byte: CRC mismatch.
        let mut crc_bad = wire.clone();
        *crc_bad.last_mut().expect("non-empty") ^= 0x01;
        assert!(matches!(
            read_frame(&mut crc_bad.as_slice()),
            Err(ProtoError::Crc { .. })
        ));

        // Unknown kind byte.
        let mut kind_bad = wire.clone();
        kind_bad[0] = 0x7E;
        assert!(matches!(
            read_frame(&mut kind_bad.as_slice()),
            Err(ProtoError::UnknownKind { byte: 0x7E })
        ));

        // Oversized length prefix: rejected before allocation.
        let mut oversized = wire.clone();
        oversized[4..8].copy_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut oversized.as_slice()),
            Err(ProtoError::Oversized { .. })
        ));

        // Truncated mid-payload: an I/O error, not a hang or panic.
        let truncated = &wire[..wire.len() - 3];
        assert!(matches!(
            read_frame(&mut &truncated[..]),
            Err(ProtoError::Io(_))
        ));
    }

    #[test]
    fn typed_messages_round_trip() {
        let open = OpenSession {
            budget_mib: 8,
            metrics_every: 5000,
            trace_bytes: 123_456,
            workload: None,
        };
        let bytes = encode_msg("OpenSession", &open).expect("encodes");
        let back: OpenSession = decode_msg("OpenSession", &bytes).expect("decodes");
        assert_eq!(back, open);

        let garbage = decode_msg::<OpenSession>("OpenSession", b"not json");
        assert!(matches!(garbage, Err(ProtoError::BadPayload { .. })));
    }
}
