//! Client side of the replay service: connect, open a session, stream
//! a `.ctr` trace, and consume the replies.
//!
//! [`Client`] is a thin, explicit state machine over one TCP
//! connection; [`replay_file`] is the one-call convenience wrapper the
//! `cnt_client` binary (and the end-to-end tests) build on.

use std::net::TcpStream;
use std::path::Path;
use std::time::Duration;

use cnt_trace::{Header, FRAME_BYTES, HEADER_BYTES};

use crate::proto::{
    self, read_frame, read_hello, write_frame, write_hello, Hello, Kind, ProtoError,
    FEATURE_CHECKPOINT, FEATURE_OBS_STREAM,
};

/// Everything that can go wrong on the client side.
#[derive(Debug)]
pub enum ClientError {
    /// A wire-protocol failure (transport, framing, decoding).
    Proto(ProtoError),
    /// The server refused or aborted the session with a typed error.
    Rejected(proto::ErrorMsg),
    /// The local trace file is unreadable or structurally invalid.
    Trace(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Proto(e) => write!(f, "protocol failure: {e}"),
            ClientError::Rejected(e) => {
                write!(f, "server rejected the session ({}): {}", e.code, e.message)
            }
            ClientError::Trace(what) => write!(f, "trace file: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// An event the server pushed at us after the trace was finished.
#[derive(Debug)]
pub enum Event {
    /// One observability JSONL line (trailing newline included),
    /// byte-identical to what the offline replay would have written.
    Obs(String),
    /// The replay completed; this is the final event.
    Done(proto::Done),
    /// A status report (answer to [`Client::status`]).
    Status(proto::StatusReport),
    /// A non-fatal error report; the session continues.
    Warning(proto::ErrorMsg),
}

/// One client connection, hello through teardown.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    /// Feature bits both sides support.
    features: u32,
}

impl Client {
    /// Connects and performs the hello exchange.
    ///
    /// # Errors
    ///
    /// Transport failures, bad magic, or version skew.
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        let mut stream = TcpStream::connect(addr).map_err(ProtoError::Io)?;
        stream.set_nodelay(true).ok();
        let ours = Hello::ours(FEATURE_OBS_STREAM | FEATURE_CHECKPOINT);
        write_hello(&mut stream, &ours)?;
        let theirs = read_hello(&mut stream)?;
        Ok(Client {
            stream,
            features: ours.features & theirs.features,
        })
    }

    /// Feature bits negotiated with the server.
    #[must_use]
    pub fn features(&self) -> u32 {
        self.features
    }

    /// Sets the socket read timeout (e.g. while waiting in the
    /// admission queue). `None` blocks indefinitely.
    ///
    /// # Errors
    ///
    /// Socket configuration failure.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.stream
            .set_read_timeout(timeout)
            .map_err(|e| ClientError::Proto(ProtoError::Io(e)))
    }

    /// Opens a session, blocking in the admission queue if the server
    /// answers [`proto::Queued`]. `on_queued` fires (at most once) with
    /// the bytes currently available when the session queues.
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] when the server refuses admission;
    /// protocol failures otherwise.
    pub fn open(
        &mut self,
        open: &proto::OpenSession,
        mut on_queued: impl FnMut(u64),
    ) -> Result<proto::Accepted, ClientError> {
        let payload = proto::encode_msg("OpenSession", open)?;
        write_frame(&mut self.stream, Kind::OpenSession, &payload)?;
        loop {
            match read_frame(&mut self.stream)? {
                (Kind::Accepted, payload) => return Ok(proto::decode_msg("Accepted", &payload)?),
                (Kind::Queued, payload) => {
                    let queued: proto::Queued = proto::decode_msg("Queued", &payload)?;
                    on_queued(queued.available_bytes);
                }
                (Kind::Error, payload) => {
                    let e: proto::ErrorMsg = proto::decode_msg("ErrorMsg", &payload)?;
                    return Err(ClientError::Rejected(e));
                }
                (kind, _) => {
                    return Err(ClientError::Proto(ProtoError::Unexpected {
                        expected: "Accepted, Queued, or Error",
                        found: kind,
                    }))
                }
            }
        }
    }

    /// Streams a `.ctr` file: one [`Kind::TraceHeader`] frame, then one
    /// [`Kind::Chunk`] frame per chunk. Returns the chunk count.
    ///
    /// # Errors
    ///
    /// [`ClientError::Trace`] if the file is unreadable or not a
    /// well-formed `.ctr`; protocol failures otherwise.
    pub fn send_trace_file(&mut self, path: &Path) -> Result<u64, ClientError> {
        let bytes = std::fs::read(path)
            .map_err(|e| ClientError::Trace(format!("`{}`: {e}", path.display())))?;
        let (header, chunks) = split_trace(&bytes)
            .map_err(|what| ClientError::Trace(format!("`{}`: {what}", path.display())))?;
        write_frame(&mut self.stream, Kind::TraceHeader, header)?;
        let mut sent = 0;
        for chunk in chunks {
            write_frame(&mut self.stream, Kind::Chunk, chunk)?;
            sent += 1;
        }
        Ok(sent)
    }

    /// Declares the trace complete; the server starts the replay.
    ///
    /// # Errors
    ///
    /// Transport failure.
    pub fn finish(&mut self) -> Result<(), ClientError> {
        Ok(write_frame(&mut self.stream, Kind::Finish, b"")?)
    }

    /// Abandons the session from any phase.
    ///
    /// # Errors
    ///
    /// Transport failure.
    pub fn cancel(&mut self) -> Result<(), ClientError> {
        Ok(write_frame(&mut self.stream, Kind::Cancel, b"")?)
    }

    /// Asks the server for a status report; the answer arrives as an
    /// [`Event::Status`] through [`Client::recv_event`].
    ///
    /// # Errors
    ///
    /// Transport failure.
    pub fn status(&mut self) -> Result<(), ClientError> {
        Ok(write_frame(&mut self.stream, Kind::Status, b"")?)
    }

    /// Receives the next server event during/after the replay.
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] carries a fatal server error; protocol
    /// failures (including [`ProtoError::Closed`]) otherwise.
    pub fn recv_event(&mut self) -> Result<Event, ClientError> {
        loop {
            match read_frame(&mut self.stream)? {
                (Kind::Obs, payload) => {
                    let line = String::from_utf8(payload).map_err(|e| {
                        ClientError::Proto(ProtoError::BadPayload {
                            kind: "Obs",
                            what: format!("not UTF-8: {e}"),
                        })
                    })?;
                    return Ok(Event::Obs(line));
                }
                (Kind::Done, payload) => {
                    return Ok(Event::Done(proto::decode_msg("Done", &payload)?))
                }
                (Kind::StatusReport, payload) => {
                    return Ok(Event::Status(proto::decode_msg("StatusReport", &payload)?))
                }
                (Kind::Error, payload) => {
                    let e: proto::ErrorMsg = proto::decode_msg("ErrorMsg", &payload)?;
                    if e.fatal {
                        return Err(ClientError::Rejected(e));
                    }
                    return Ok(Event::Warning(e));
                }
                (Kind::Queued, payload) => {
                    let _: proto::Queued = proto::decode_msg("Queued", &payload)?;
                }
                (kind, _) => {
                    return Err(ClientError::Proto(ProtoError::Unexpected {
                        expected: "Obs, Done, StatusReport, or Error",
                        found: kind,
                    }))
                }
            }
        }
    }
}

/// The outcome of a full [`replay_file`] round trip.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// The server's final summary.
    pub done: proto::Done,
    /// Every streamed obs line, concatenated — byte-identical to the
    /// offline replay's metrics JSONL (empty when `metrics_every` was
    /// `0` or the server does not stream obs).
    pub metrics_jsonl: String,
}

/// Connects, opens a session, streams `path`, and collects the replay:
/// the one-call client. `on_event` observes every event as it arrives
/// (obs lines are also accumulated into the returned outcome).
///
/// # Errors
///
/// As the underlying [`Client`] calls.
pub fn replay_file(
    addr: &str,
    path: &Path,
    budget_mib: usize,
    metrics_every: u64,
    mut on_event: impl FnMut(&Event),
) -> Result<ReplayOutcome, ClientError> {
    let trace_bytes = std::fs::metadata(path)
        .map_err(|e| ClientError::Trace(format!("`{}`: {e}", path.display())))?
        .len();
    let mut client = Client::connect(addr)?;
    client.open(
        &proto::OpenSession {
            budget_mib,
            metrics_every,
            trace_bytes,
            workload: None,
        },
        |available| eprintln!("client: queued for budget ({available} bytes available)"),
    )?;
    client.send_trace_file(path)?;
    client.finish()?;
    collect_replay(&mut client, &mut on_event)
}

/// Connects and opens a registry-named session: the server materializes
/// the workload itself, so nothing is streamed — the client goes
/// straight to consuming events. `workload` is a registry id like
/// `synth/matmul` or `import/mcf_like`.
///
/// # Errors
///
/// As the underlying [`Client`] calls; [`ClientError::Rejected`] with
/// code `workload` when the server does not know the id.
pub fn replay_workload(
    addr: &str,
    workload: &str,
    budget_mib: usize,
    metrics_every: u64,
    mut on_event: impl FnMut(&Event),
) -> Result<ReplayOutcome, ClientError> {
    let mut client = Client::connect(addr)?;
    client.open(
        &proto::OpenSession {
            budget_mib,
            metrics_every,
            trace_bytes: 0,
            workload: Some(workload.to_string()),
        },
        |available| eprintln!("client: queued for budget ({available} bytes available)"),
    )?;
    collect_replay(&mut client, &mut on_event)
}

/// Drains events until [`Event::Done`], accumulating obs lines.
fn collect_replay(
    client: &mut Client,
    on_event: &mut impl FnMut(&Event),
) -> Result<ReplayOutcome, ClientError> {
    let mut metrics_jsonl = String::new();
    loop {
        let event = client.recv_event()?;
        on_event(&event);
        match event {
            Event::Obs(line) => metrics_jsonl.push_str(&line),
            Event::Done(done) => {
                return Ok(ReplayOutcome {
                    done,
                    metrics_jsonl,
                })
            }
            Event::Status(_) | Event::Warning(_) => {}
        }
    }
}

/// Splits raw `.ctr` bytes into the 16-byte header and one slice per
/// chunk (chunk frame + payload, verbatim).
fn split_trace(bytes: &[u8]) -> Result<(&[u8], Vec<&[u8]>), String> {
    if bytes.len() < HEADER_BYTES {
        return Err("shorter than a .ctr header".to_string());
    }
    let header = &bytes[..HEADER_BYTES];
    let sized: &[u8; HEADER_BYTES] = header.try_into().expect("sized above");
    Header::from_bytes(sized).map_err(|e| e.to_string())?;
    let mut chunks = Vec::new();
    let mut at = HEADER_BYTES;
    while at < bytes.len() {
        if bytes.len() - at < FRAME_BYTES {
            return Err(format!(
                "trailing {} bytes are not a chunk frame",
                bytes.len() - at
            ));
        }
        let frame_bytes: &[u8; FRAME_BYTES] =
            bytes[at..at + FRAME_BYTES].try_into().expect("sized above");
        let frame = cnt_trace::format::Frame::from_bytes(frame_bytes);
        let end = at + FRAME_BYTES + frame.payload_len as usize;
        if end > bytes.len() {
            return Err(format!(
                "chunk at byte {at} announces {} payload bytes but the file ends first",
                frame.payload_len
            ));
        }
        chunks.push(&bytes[at..end]);
        at = end;
    }
    Ok((header, chunks))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_trace_walks_chunks_and_rejects_damage() {
        let spec = cnt_workloads::synthetic::SyntheticSpec {
            accesses: 64,
            footprint_lines: 8,
            ..Default::default()
        };
        let mut bytes = Vec::new();
        let summary = cnt_trace::pack_accesses(spec.stream(), &mut bytes, 16).expect("packs");
        let (header, chunks) = split_trace(&bytes).expect("splits");
        assert_eq!(header.len(), HEADER_BYTES);
        assert_eq!(chunks.len() as u64, summary.chunks);
        let rejoined: usize = HEADER_BYTES + chunks.iter().map(|c| c.len()).sum::<usize>();
        assert_eq!(rejoined, bytes.len(), "chunks tile the file exactly");

        assert!(split_trace(&bytes[..HEADER_BYTES - 2]).is_err());
        assert!(split_trace(&bytes[..bytes.len() - 1]).is_err());
    }
}
