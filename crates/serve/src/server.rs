//! The multi-tenant trace-replay server.
//!
//! One listening socket, one connection-handler thread per client, one
//! **session thread** per admitted replay. The split matters for
//! determinism: `cnt-obs` replay ids and session sinks are thread-local
//! (see `cnt_obs::sink`), so running each session's two-pass replay on
//! a fresh thread gives it the exact same id sequence (`r0000`,
//! `r0001`) and metrics stream as an offline `tracegen stream-replay`
//! of the same trace — byte-identical, which is the audit bar this
//! server is built around.
//!
//! A session moves through three phases:
//!
//! 1. **Admission** — the client's [`proto::OpenSession`] asks for a
//!    replay byte budget; the [`BudgetLedger`] grants, queues, or
//!    rejects it (never over-committing memory).
//! 2. **Spool** — `.ctr` chunks arrive as CRC-checked frames and are
//!    appended verbatim to `<state>/<sid>/trace.ctr`; `trace.ok` marks
//!    a complete spool.
//! 3. **Replay** — the session thread drives the shared
//!    [`cnt_bench::driver::run_two_pass`] with a thread-local metrics
//!    sink; every epoch snapshot streams back to the client as an
//!    [`proto::Kind::Obs`] frame (bounded channel — a slow client
//!    back-pressures the replay, it cannot balloon server memory).
//!    The connection splits in two: a reader thread blocks on the
//!    socket and turns `Cancel` and `Status` into a cancel or a
//!    channel message, and the connection thread is the one writer,
//!    blocked on the channel until the session ends. Nothing polls.
//!    Periodic checkpoints go to a rotated `.ctrs` family in the
//!    session directory, so a killed server resumes every in-flight
//!    session on restart ([`Server::resume_pending`]).
//!
//! On completion the session directory holds `metrics.jsonl` (the
//! session's own stream) plus a `done` marker, and the session's
//! snapshots are appended — experiment ids prefixed `sNNNN/` — to the
//! shared `serve_metrics.jsonl` multiplex log.

use std::io::Write as _;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use cnt_bench::ckpt;
use cnt_bench::driver::{
    restore_resume_obs, run_two_pass, CheckpointPlan, CheckpointStore, ResumeState, SessionPlan,
    TwoPassOutcome,
};
use cnt_bench::stream::CancelToken;
use cnt_trace::crc32;
use cnt_trace::{
    rotate, CheckpointError, CheckpointFile, CheckpointRotator, CorruptionPolicy, Header,
    ReadOptions, FRAME_BYTES, HEADER_BYTES,
};
use serde::{Deserialize, Serialize};

use crate::budget::{Admission, BudgetLease, BudgetLedger};
use crate::proto::{
    self, read_frame, read_hello, write_frame, write_hello, Hello, Kind, ProtoError,
    FEATURE_CHECKPOINT, FEATURE_OBS_STREAM,
};

/// Tuning knobs for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Where session state (traces, checkpoints, metrics) lives.
    pub state_dir: PathBuf,
    /// Total replay byte budget leasable across concurrent sessions,
    /// in MiB.
    pub global_budget_mib: usize,
    /// Checkpoint in-flight replays every this many chunks (`None`
    /// disables checkpointing — and crash resume with it).
    pub checkpoint_every: Option<u64>,
    /// Checkpoint generations kept per session (rotation + GC).
    pub checkpoint_keep: usize,
    /// Read timeout while handshaking and spooling, and write timeout
    /// throughout: a stalled or vanished client cannot pin a session
    /// (or its budget lease) forever.
    pub spool_timeout: Duration,
    /// Directory of imported `.ctr` captures added to the server's
    /// workload registry (as `import/<stem>` ids) for registry-named
    /// sessions. `None` serves only the built-in `synth/*` kernels.
    pub trace_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            state_dir: PathBuf::from("serve_state"),
            global_budget_mib: 64,
            checkpoint_every: None,
            checkpoint_keep: 2,
            spool_timeout: Duration::from_secs(10),
            trace_dir: None,
        }
    }
}

/// Per-session metadata persisted next to the spooled trace, so a
/// restarted server can resume the session without its client.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SessionMeta {
    session: String,
    budget_mib: usize,
    metrics_every: u64,
    trace_bytes: u64,
    /// Registry workload id the server materialized the trace from,
    /// `None` for client-streamed sessions (and in meta files written
    /// before the field existed).
    #[serde(default)]
    workload: Option<String>,
}

/// Shared across the accept loop and every handler thread.
struct Shared {
    cfg: ServerConfig,
    ledger: Arc<BudgetLedger>,
    next_session: Mutex<u64>,
    /// Serialises appends to the `serve_metrics.jsonl` multiplex log.
    mux: Mutex<()>,
}

/// A bound replay server. Drive it with [`Server::run`].
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// How a session ended, for the handler's bookkeeping.
enum SessionEnd {
    /// Replay completed; summary for the `Done` frame.
    Done(proto::Done),
    /// Cancelled through the token (client `Cancel` or disconnect).
    Cancelled,
    /// Replay failed.
    Failed(String),
}

const MIB: u64 = 1024 * 1024;

impl Server {
    /// Binds to `addr` (e.g. `127.0.0.1:0`) and prepares the state
    /// directory.
    ///
    /// # Errors
    ///
    /// Socket or state-directory I/O failures.
    pub fn bind(addr: &str, cfg: ServerConfig) -> std::io::Result<Server> {
        std::fs::create_dir_all(&cfg.state_dir)?;
        let listener = TcpListener::bind(addr)?;
        let next = next_free_session_index(&cfg.state_dir)?;
        let ledger = BudgetLedger::new(cfg.global_budget_mib as u64 * MIB);
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                cfg,
                ledger,
                next_session: Mutex::new(next),
                mux: Mutex::new(()),
            }),
        })
    }

    /// The address the server actually bound (resolves port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket's address lookup failure.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Completes every interrupted session found in the state
    /// directory: sessions with a complete spool (`trace.ok`) but no
    /// `done` marker are replayed to completion — resuming from their
    /// newest checkpoint generation when one exists — exactly as if
    /// their server had never been killed. Sessions killed mid-spool
    /// are unrecoverable (their client is gone) and are removed.
    ///
    /// Returns `(session id, result)` per pending session. Call before
    /// [`Server::run`]; the replays happen inline, one session at a
    /// time, each on a fresh thread (determinism requires it).
    pub fn resume_pending(&self) -> Vec<(String, Result<(), String>)> {
        let mut out = Vec::new();
        let Ok(entries) = std::fs::read_dir(&self.shared.cfg.state_dir) else {
            return out;
        };
        let mut pending: Vec<(String, PathBuf)> = entries
            .filter_map(Result::ok)
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                parse_session_index(&name)?;
                Some((name, e.path()))
            })
            .collect();
        pending.sort();
        for (sid, dir) in pending {
            if dir.join("done").is_file() {
                continue;
            }
            if !dir.join("trace.ok").is_file() {
                eprintln!("serve: session {sid} was killed mid-spool; removing");
                std::fs::remove_dir_all(&dir).ok();
                continue;
            }
            let meta = match read_meta(&dir) {
                Ok(meta) => meta,
                Err(e) => {
                    out.push((sid.clone(), Err(format!("unreadable meta.json: {e}"))));
                    continue;
                }
            };
            eprintln!("serve: resuming session {sid}");
            // A fresh thread per session, same as live sessions get:
            // replay ids and the metrics sink are thread-local, and
            // byte-identical resume depends on starting both clean.
            let shared = Arc::clone(&self.shared);
            let result = std::thread::scope(|scope| {
                scope
                    .spawn(|| run_session_thread(&shared, &dir, &meta, None, None, None))
                    .join()
            })
            .unwrap_or_else(|_| Err(SessionEnd::Failed("session thread panicked".into())))
            .map(|_| ())
            .map_err(|end| match end {
                SessionEnd::Failed(what) => what,
                _ => "resume interrupted".to_string(),
            });
            match &result {
                Ok(()) => eprintln!("serve: session {sid} resumed to completion"),
                Err(what) => eprintln!("serve: session {sid} resume failed: {what}"),
            }
            out.push((sid, result));
        }
        out
    }

    /// Accepts and serves connections, one handler thread each, then
    /// joins the handlers and returns. The accept blocks: nothing
    /// polls. It stops when either
    ///
    /// * `shutdown` is `true` when an accept returns — that connection
    ///   is dropped unserved, so a caller stops the server by setting
    ///   the flag and connecting once; or
    /// * `max_sessions` connections have been accepted (`None` =
    ///   unbounded) — no wake connection is needed.
    ///
    /// # Errors
    ///
    /// Fatal listener failures only; per-connection errors are
    /// reported to their client and logged.
    pub fn run(&self, shutdown: &AtomicBool, max_sessions: Option<u64>) -> std::io::Result<()> {
        let mut accepted: u64 = 0;
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while max_sessions.is_none_or(|max| accepted < max) {
            let (stream, peer) = self.listener.accept()?;
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            accepted += 1;
            eprintln!("serve: connection from {peer}");
            // Reap finished handlers: a long-running server keeps no
            // dead threads.
            for finished in handlers.extract_if(.., |h| h.is_finished()) {
                finished.join().ok();
            }
            let shared = Arc::clone(&self.shared);
            handlers.push(std::thread::spawn(move || handle_conn(&shared, stream)));
        }
        for handle in handlers {
            handle.join().ok();
        }
        Ok(())
    }
}

/// Scans existing `sNNNN` directories so a restarted server continues
/// numbering after them.
fn next_free_session_index(state_dir: &Path) -> std::io::Result<u64> {
    let mut next = 0;
    for entry in std::fs::read_dir(state_dir)? {
        let entry = entry?;
        if let Some(index) = entry
            .file_name()
            .into_string()
            .ok()
            .as_deref()
            .and_then(parse_session_index)
        {
            next = next.max(index + 1);
        }
    }
    Ok(next)
}

/// `s0042` → `Some(42)`; anything else → `None`.
fn parse_session_index(name: &str) -> Option<u64> {
    let digits = name.strip_prefix('s')?;
    if digits.len() < 4 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

fn read_meta(dir: &Path) -> Result<SessionMeta, String> {
    let text = std::fs::read_to_string(dir.join("meta.json")).map_err(|e| e.to_string())?;
    serde_json::from_str(&text).map_err(|e| e.to_string())
}

/// Best-effort typed error frame; transport failures here are moot.
fn send_error(stream: &mut TcpStream, code: &str, fatal: bool, message: String) {
    let msg = proto::ErrorMsg {
        code: code.to_string(),
        fatal,
        message,
    };
    if let Ok(payload) = proto::encode_msg("ErrorMsg", &msg) {
        write_frame(stream, Kind::Error, &payload).ok();
    }
}

fn send_msg<T: Serialize>(
    stream: &mut TcpStream,
    kind: Kind,
    name: &'static str,
    value: &T,
) -> Result<(), ProtoError> {
    let payload = proto::encode_msg(name, value)?;
    write_frame(stream, kind, &payload)
}

/// One client connection, handshake to teardown.
fn handle_conn(shared: &Shared, mut stream: TcpStream) {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(shared.cfg.spool_timeout)).ok();
    stream
        .set_write_timeout(Some(shared.cfg.spool_timeout))
        .ok();

    let our_features = FEATURE_OBS_STREAM
        | if shared.cfg.checkpoint_every.is_some() {
            FEATURE_CHECKPOINT
        } else {
            0
        };
    let ours = Hello::ours(our_features);

    // Handshake: read the client's hello first, then answer with ours —
    // even on magic/version failure, so a skewed client can read what
    // the server speaks and report it, instead of a silent hang-up.
    let client_hello = match read_hello(&mut stream) {
        Ok(hello) => hello,
        Err(e) => {
            write_hello(&mut stream, &ours).ok();
            send_error(&mut stream, e.code(), true, e.to_string());
            eprintln!("serve: handshake rejected: {e}");
            return;
        }
    };
    if write_hello(&mut stream, &ours).is_err() {
        return;
    }
    let features = client_hello.features & our_features;

    // Admission: the first real frame must open a session.
    let open: proto::OpenSession = loop {
        match read_frame(&mut stream) {
            Ok((Kind::OpenSession, payload)) => match proto::decode_msg("OpenSession", &payload) {
                Ok(open) => break open,
                Err(e) => {
                    send_error(&mut stream, e.code(), true, e.to_string());
                    return;
                }
            },
            Ok((Kind::Status, _)) => {
                let report = proto::StatusReport {
                    session: String::new(),
                    phase: "awaiting-open".to_string(),
                    progress: 0,
                };
                if send_msg(&mut stream, Kind::StatusReport, "StatusReport", &report).is_err() {
                    return;
                }
            }
            Ok((Kind::Cancel, _)) => return,
            Ok((kind, _)) => {
                let e = ProtoError::Unexpected {
                    expected: "OpenSession",
                    found: kind,
                };
                send_error(&mut stream, e.code(), true, e.to_string());
                return;
            }
            Err(e) => {
                send_error(&mut stream, e.code(), true, e.to_string());
                eprintln!("serve: pre-admission failure: {e}");
                return;
            }
        }
    };
    if let Some(id) = &open.workload {
        // Registry-named sessions carry no client trace: the server
        // materializes the workload itself, so a nonzero trace_bytes is
        // a confused client, not a small one.
        if open.budget_mib == 0 || open.trace_bytes != 0 {
            send_error(
                &mut stream,
                "admission",
                true,
                format!(
                    "workload session `{id}` needs a positive budget_mib and trace_bytes of 0 \
                     (the server generates the trace)"
                ),
            );
            return;
        }
    } else if open.budget_mib == 0 || open.trace_bytes < HEADER_BYTES as u64 {
        send_error(
            &mut stream,
            "admission",
            true,
            "budget_mib must be positive and trace_bytes at least one header".to_string(),
        );
        return;
    }

    let want = open.budget_mib as u64 * MIB;
    let _lease: BudgetLease = match shared.ledger.try_acquire(want) {
        Ok(lease) => lease,
        Err(Admission::TooLarge { total }) => {
            send_error(
                &mut stream,
                "admission",
                true,
                format!("requested budget of {want} bytes exceeds the server's total of {total}"),
            );
            return;
        }
        Err(Admission::MustQueue { available }) => {
            let queued = proto::Queued {
                available_bytes: available,
            };
            if send_msg(&mut stream, Kind::Queued, "Queued", &queued).is_err() {
                return;
            }
            match shared.ledger.acquire(want) {
                Ok(lease) => lease,
                Err(_) => {
                    send_error(&mut stream, "admission", true, "budget unavailable".into());
                    return;
                }
            }
        }
    };

    // The session exists from here on; everything below must either
    // finish it or clean it up.
    let sid = {
        let mut next = shared.next_session.lock().expect("session counter");
        let sid = format!("s{:04}", *next);
        *next += 1;
        sid
    };
    let dir = shared.cfg.state_dir.join(&sid);
    let mut meta = SessionMeta {
        session: sid.clone(),
        budget_mib: open.budget_mib,
        metrics_every: open.metrics_every,
        trace_bytes: open.trace_bytes,
        workload: open.workload.clone(),
    };
    if let Some(id) = &open.workload {
        // Registry-named session: materialize the trace server-side
        // before admission completes, so a bad id is rejected while the
        // client is still waiting on OpenSession.
        if let Err(e) = std::fs::create_dir_all(&dir) {
            send_error(&mut stream, "io", true, e.to_string());
            return;
        }
        match materialize_workload(id, shared.cfg.trace_dir.as_deref(), &dir.join("trace.ctr")) {
            Ok(bytes) => meta.trace_bytes = bytes,
            Err(what) => {
                send_error(&mut stream, "workload", true, what);
                std::fs::remove_dir_all(&dir).ok();
                return;
            }
        }
    }
    if let Err(e) = prepare_session_dir(&dir, &meta) {
        send_error(&mut stream, "io", true, e);
        return;
    }
    let accepted = proto::Accepted {
        session: sid.clone(),
    };
    if send_msg(&mut stream, Kind::Accepted, "Accepted", &accepted).is_err() {
        std::fs::remove_dir_all(&dir).ok();
        return;
    }
    eprintln!(
        "serve: session {sid} accepted (budget {} MiB, metrics every {})",
        open.budget_mib, open.metrics_every
    );

    // Phase 2: spool the trace — unless the server already materialized
    // it from the registry, in which case the replay starts immediately
    // and the client goes straight to consuming events.
    if let Some(id) = &meta.workload {
        eprintln!(
            "serve: session {sid} replaying workload `{id}` ({} bytes, server-generated)",
            meta.trace_bytes
        );
    } else {
        match spool_trace(&mut stream, &dir, &sid, &open) {
            Ok(chunks) => {
                eprintln!("serve: session {sid} spooled {chunks} chunks");
            }
            Err(end) => {
                match end {
                    SpoolEnd::Cancelled => {
                        eprintln!("serve: session {sid} cancelled during spool");
                        send_error(&mut stream, "cancelled", true, "session cancelled".into());
                    }
                    SpoolEnd::Proto(e) => {
                        eprintln!("serve: session {sid} spool failed: {e}");
                        send_error(&mut stream, e.code(), true, e.to_string());
                    }
                    SpoolEnd::Io(what) => {
                        eprintln!("serve: session {sid} spool failed: {what}");
                        send_error(&mut stream, "io", true, what);
                    }
                }
                std::fs::remove_dir_all(&dir).ok();
                return;
            }
        }
    }

    // Phase 3: replay, streaming observability back. The reader half
    // blocks on the socket with no timeout; this thread is the writer.
    let Ok(reader_half) = stream.try_clone() else {
        send_error(&mut stream, "io", true, "socket clone failed".into());
        std::fs::remove_dir_all(&dir).ok();
        return;
    };
    stream.set_read_timeout(None).ok();
    let cancel = CancelToken::new();
    let progress = Arc::new(AtomicU64::new(0));
    let (sender, receiver) = mpsc::sync_channel::<Outbound>(256);
    let obs_stream = features & FEATURE_OBS_STREAM != 0 && open.metrics_every > 0;

    let end = {
        let shared: &Shared = shared;
        let cancel = &cancel;
        std::thread::scope(|scope| {
            let reader = {
                let sender = sender.clone();
                let sid = sid.as_str();
                scope.spawn(move || read_requests(reader_half, sid, cancel, &sender))
            };
            let session = scope.spawn(|| {
                let _end = EndOnDrop(sender.clone());
                run_session_thread(
                    shared,
                    &dir,
                    &meta,
                    Some(cancel),
                    Some(sender),
                    Some(Arc::clone(&progress)),
                )
            });
            write_replay(&mut stream, &sid, cancel, &progress, receiver, obs_stream);
            // The receiver is gone, so a reader blocked on a full channel
            // wakes too; shutting the read half wakes one blocked on the
            // socket.
            stream.shutdown(Shutdown::Read).ok();
            reader.join().ok();
            match session.join() {
                Ok(Ok(done)) => SessionEnd::Done(done),
                Ok(Err(end)) => end,
                Err(_) => SessionEnd::Failed("session thread panicked".to_string()),
            }
        })
    };

    match end {
        SessionEnd::Done(done) => {
            eprintln!(
                "serve: session {sid} done ({} accesses, {} snapshots)",
                done.accesses, done.snapshots
            );
            send_msg(&mut stream, Kind::Done, "Done", &done).ok();
        }
        SessionEnd::Cancelled => {
            eprintln!("serve: session {sid} cancelled; cleaning up");
            send_error(&mut stream, "cancelled", true, "session cancelled".into());
            std::fs::remove_dir_all(&dir).ok();
        }
        SessionEnd::Failed(what) => {
            eprintln!("serve: session {sid} failed: {what}");
            send_error(&mut stream, "replay", true, what);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// Materializes a registry workload into `<dir>/trace.ctr`: built-in
/// `synth/*` kernels plus any `import/*` captures from the server's
/// configured trace directory. Returns the packed byte length. The id
/// must match exactly one entry — globs are a client-side convenience,
/// a session replays one workload.
fn materialize_workload(id: &str, trace_dir: Option<&Path>, path: &Path) -> Result<u64, String> {
    let mut registry = cnt_workloads::WorkloadRegistry::builtin();
    if let Some(dir) = trace_dir {
        registry
            .add_trace_dir(dir)
            .map_err(|e| format!("trace dir `{}`: {e}", dir.display()))?;
    }
    let selected = registry.select(id).map_err(|e| e.to_string())?;
    let [entry] = selected.as_slice() else {
        return Err(format!(
            "workload id `{id}` matches {} entries; a session replays exactly one",
            selected.len()
        ));
    };
    let workload = entry.load().map_err(|e| e.to_string())?;
    let file = std::fs::File::create(path).map_err(|e| e.to_string())?;
    let mut out = std::io::BufWriter::new(file);
    cnt_trace::pack_accesses(&workload.trace, &mut out, cnt_trace::DEFAULT_CHUNK_ACCESSES)
        .map_err(|e| e.to_string())?;
    use std::io::Write;
    out.flush().map_err(|e| e.to_string())?;
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| e.to_string())
}

fn prepare_session_dir(dir: &Path, meta: &SessionMeta) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let text = serde_json::to_string(meta).map_err(|e| e.to_string())?;
    std::fs::write(dir.join("meta.json"), text).map_err(|e| e.to_string())
}

enum SpoolEnd {
    Cancelled,
    Proto(ProtoError),
    Io(String),
}

/// Receives the trace header and chunks, appending them verbatim to
/// `<dir>/trace.ctr`. Every chunk is validated twice: the outer frame
/// CRC (transport) and the inner `.ctr` chunk CRC (payload integrity),
/// so the spooled file is structurally sound before replay starts.
fn spool_trace(
    stream: &mut TcpStream,
    dir: &Path,
    sid: &str,
    open: &proto::OpenSession,
) -> Result<u64, SpoolEnd> {
    let path = dir.join("trace.ctr");
    let file = std::fs::File::create(&path).map_err(|e| SpoolEnd::Io(e.to_string()))?;
    let mut out = std::io::BufWriter::new(file);
    let mut spooled: u64 = 0;
    let mut chunks: u64 = 0;
    let mut have_header = false;

    loop {
        let (kind, payload) = read_frame(stream).map_err(SpoolEnd::Proto)?;
        match kind {
            Kind::TraceHeader => {
                if have_header {
                    return Err(SpoolEnd::Proto(ProtoError::Unexpected {
                        expected: "Chunk or Finish",
                        found: Kind::TraceHeader,
                    }));
                }
                let bytes: &[u8; HEADER_BYTES] = payload.as_slice().try_into().map_err(|_| {
                    SpoolEnd::Proto(ProtoError::BadPayload {
                        kind: "TraceHeader",
                        what: format!("expected {HEADER_BYTES} bytes, got {}", payload.len()),
                    })
                })?;
                Header::from_bytes(bytes).map_err(|e| {
                    SpoolEnd::Proto(ProtoError::BadPayload {
                        kind: "TraceHeader",
                        what: e.to_string(),
                    })
                })?;
                out.write_all(&payload)
                    .map_err(|e| SpoolEnd::Io(e.to_string()))?;
                spooled += payload.len() as u64;
                have_header = true;
            }
            Kind::Chunk => {
                if !have_header {
                    return Err(SpoolEnd::Proto(ProtoError::Unexpected {
                        expected: "TraceHeader",
                        found: Kind::Chunk,
                    }));
                }
                validate_chunk(&payload, chunks).map_err(SpoolEnd::Proto)?;
                spooled += payload.len() as u64;
                if spooled > open.trace_bytes {
                    return Err(SpoolEnd::Proto(ProtoError::BadPayload {
                        kind: "Chunk",
                        what: format!("trace overran its declared {} bytes", open.trace_bytes),
                    }));
                }
                out.write_all(&payload)
                    .map_err(|e| SpoolEnd::Io(e.to_string()))?;
                chunks += 1;
            }
            Kind::Finish => {
                if !have_header {
                    return Err(SpoolEnd::Proto(ProtoError::Unexpected {
                        expected: "TraceHeader",
                        found: Kind::Finish,
                    }));
                }
                break;
            }
            Kind::Cancel => return Err(SpoolEnd::Cancelled),
            Kind::Status => {
                let report = proto::StatusReport {
                    session: sid.to_string(),
                    phase: "spooling".to_string(),
                    progress: chunks,
                };
                send_msg(stream, Kind::StatusReport, "StatusReport", &report)
                    .map_err(SpoolEnd::Proto)?;
            }
            other => {
                return Err(SpoolEnd::Proto(ProtoError::Unexpected {
                    expected: "TraceHeader, Chunk, Finish, Cancel, or Status",
                    found: other,
                }))
            }
        }
    }

    out.flush().map_err(|e| SpoolEnd::Io(e.to_string()))?;
    out.into_inner()
        .map_err(|e| SpoolEnd::Io(e.to_string()))?
        .sync_all()
        .map_err(|e| SpoolEnd::Io(e.to_string()))?;
    std::fs::write(dir.join("trace.ok"), b"ok\n").map_err(|e| SpoolEnd::Io(e.to_string()))?;
    Ok(chunks)
}

/// Checks one `Chunk` frame payload is a well-formed `.ctr` chunk: a
/// 12-byte chunk frame whose length matches the remaining bytes and
/// whose CRC matches the chunk payload.
fn validate_chunk(payload: &[u8], chunk: u64) -> Result<(), ProtoError> {
    if payload.len() < FRAME_BYTES {
        return Err(ProtoError::BadPayload {
            kind: "Chunk",
            what: format!("chunk {chunk}: shorter than a chunk frame"),
        });
    }
    let frame_bytes: &[u8; FRAME_BYTES] = payload[..FRAME_BYTES].try_into().expect("sized above");
    let frame = cnt_trace::format::Frame::from_bytes(frame_bytes);
    let body = &payload[FRAME_BYTES..];
    if body.len() != frame.payload_len as usize {
        return Err(ProtoError::BadPayload {
            kind: "Chunk",
            what: format!(
                "chunk {chunk}: frame announces {} payload bytes, {} arrived",
                frame.payload_len,
                body.len()
            ),
        });
    }
    let found = crc32(body);
    if found != frame.crc32 {
        return Err(ProtoError::BadPayload {
            kind: "Chunk",
            what: format!(
                "chunk {chunk}: .ctr payload CRC mismatch ({found:#010X} vs {:#010X})",
                frame.crc32
            ),
        });
    }
    Ok(())
}

/// What the replay-phase writer sends or does next, in channel order.
enum Outbound {
    /// One streamed obs JSONL line from the session thread.
    Obs(String),
    /// The client asked for a status report.
    Status,
    /// The client sent a frame that is not valid during replay.
    Unexpected(Kind),
    /// The session thread returned or unwound; nothing follows.
    End,
}

/// Sends [`Outbound::End`] when dropped, so the writer loop ends even
/// when the session thread panics.
struct EndOnDrop(mpsc::SyncSender<Outbound>);

impl Drop for EndOnDrop {
    fn drop(&mut self) {
        self.0.send(Outbound::End).ok();
    }
}

/// The replay-phase reader half: blocks on the socket for whole frames.
/// `Cancel`, EOF and transport errors cancel the session at once, not
/// behind queued obs lines; replies go to the writer as messages.
/// Returns when the socket's read half closes or the writer is gone.
fn read_requests(
    mut stream: TcpStream,
    sid: &str,
    cancel: &CancelToken,
    out: &mpsc::SyncSender<Outbound>,
) {
    loop {
        let message = match read_frame(&mut stream) {
            Ok((Kind::Cancel, _)) => {
                eprintln!("serve: session {sid} received cancel");
                cancel.cancel();
                continue;
            }
            Ok((Kind::Status, _)) => Outbound::Status,
            Ok((kind, _)) => Outbound::Unexpected(kind),
            Err(_) => {
                cancel.cancel();
                return;
            }
        };
        if out.send(message).is_err() {
            return;
        }
    }
}

/// The replay-phase writer, the connection's only one: blocks on the
/// channel and writes each message's frame in channel order, so obs
/// lines leave exactly as the session streamed them. A failed write
/// cancels the session; later messages are drained unwritten until
/// [`Outbound::End`].
fn write_replay(
    stream: &mut TcpStream,
    sid: &str,
    cancel: &CancelToken,
    progress: &AtomicU64,
    receiver: mpsc::Receiver<Outbound>,
    obs_stream: bool,
) {
    let mut socket_live = true;
    while let Ok(message) = receiver.recv() {
        let written = match message {
            Outbound::End => return,
            _ if !socket_live => continue,
            Outbound::Obs(line) if obs_stream => write_frame(stream, Kind::Obs, line.as_bytes()),
            Outbound::Obs(_) => continue,
            Outbound::Status => {
                let report = proto::StatusReport {
                    session: sid.to_string(),
                    phase: "replaying".to_string(),
                    progress: progress.load(Ordering::SeqCst),
                };
                send_msg(stream, Kind::StatusReport, "StatusReport", &report)
            }
            Outbound::Unexpected(kind) => {
                send_error(
                    stream,
                    "unexpected-frame",
                    false,
                    format!("{kind:?} is not valid during replay"),
                );
                continue;
            }
        };
        if written.is_err() {
            // Client gone: stop writing, tear the session down at its
            // next cancellation point.
            socket_live = false;
            cancel.cancel();
        }
    }
}

/// A checkpoint store that logs every generation it writes — the line
/// the serve-smoke CI job greps for before killing the server.
struct LoggedRotator {
    inner: CheckpointRotator,
    sid: String,
}

impl CheckpointStore for LoggedRotator {
    fn store(&mut self, file: &CheckpointFile) -> Result<(), CheckpointError> {
        let generation = self.inner.next_generation();
        let path = self.inner.write(file)?;
        eprintln!(
            "serve: session {} checkpoint g{generation:04} -> {}",
            self.sid,
            path.display()
        );
        Ok(())
    }
}

/// Runs one session's two-pass replay **on the calling thread**, which
/// must be fresh (no prior replays, no local sink) — both the
/// connection handler and [`Server::resume_pending`] guarantee this by
/// spawning a thread per session. Streams snapshots through `out` (if
/// given), checkpoints to the session's rotation family, resumes from
/// the newest generation when one exists, and on success writes
/// `metrics.jsonl`, the `done` marker, and the multiplex log entry.
fn run_session_thread(
    shared: &Shared,
    dir: &Path,
    meta: &SessionMeta,
    cancel: Option<&CancelToken>,
    out: Option<mpsc::SyncSender<Outbound>>,
    progress: Option<Arc<AtomicU64>>,
) -> Result<proto::Done, SessionEnd> {
    let fail = |what: String| SessionEnd::Failed(what);
    let trace = dir.join("trace.ctr");
    let opts = ReadOptions {
        budget_bytes: meta.budget_mib * MIB as usize,
        corruption: CorruptionPolicy::FailFast,
    };
    let (base_cfg, cnt_cfg) = cnt_bench::driver::stream_config_pair();

    // The session's own sink, optionally streaming: its counters and
    // snapshots never mix with another session's. `metrics_every == 0`
    // keeps counters only.
    let observer = out.map(|sender| -> cnt_obs::OnRecord {
        let progress = progress.clone();
        Box::new(move |snapshot: &cnt_obs::Snapshot| {
            if let Ok(line) = serde_json::to_string(snapshot) {
                // A full channel blocks here: a slow consumer
                // back-pressures the replay instead of ballooning
                // buffered snapshots.
                sender.send(Outbound::Obs(line + "\n")).ok();
                if let Some(progress) = &progress {
                    progress.fetch_add(1, Ordering::SeqCst);
                }
            }
        })
    });
    let guard = cnt_obs::install_local(meta.metrics_every, observer);

    // Resume from the newest checkpoint generation, if the session was
    // interrupted mid-replay.
    let ckpt_base = dir.join("ckpt.ctrs");
    let resume = match rotate::resolve_resume(&ckpt_base) {
        Ok(Some(path)) => {
            let expected = ckpt::pair_fingerprint(base_cfg.fingerprint(), cnt_cfg.fingerprint());
            match ckpt::load(&path, expected) {
                Ok((file, driver, obs)) => {
                    if driver.metrics_every
                        != (meta.metrics_every > 0).then_some(meta.metrics_every)
                    {
                        return Err(fail(format!(
                            "checkpoint metrics epoch {:?} disagrees with session meta",
                            driver.metrics_every
                        )));
                    }
                    eprintln!(
                        "serve: session {} resuming pass {} at chunk {}",
                        meta.session, driver.pass, driver.cursor.chunk
                    );
                    restore_resume_obs(&driver, obs);
                    Some(ResumeState { file, driver })
                }
                Err(e) => return Err(fail(format!("checkpoint `{}`: {e}", path.display()))),
            }
        }
        Ok(None) => None,
        Err(e) => return Err(fail(format!("checkpoint family scan: {e}"))),
    };

    let mut store = match shared.cfg.checkpoint_every {
        Some(_) => match CheckpointRotator::new(&ckpt_base, shared.cfg.checkpoint_keep) {
            Ok(rotator) => Some(LoggedRotator {
                inner: rotator,
                sid: meta.session.clone(),
            }),
            Err(e) => return Err(fail(format!("checkpoint rotator: {e}"))),
        },
        None => None,
    };
    let plan = SessionPlan {
        input: &trace,
        opts,
        base_cfg: &base_cfg,
        cnt_cfg: &cnt_cfg,
        metrics_every: (meta.metrics_every > 0).then_some(meta.metrics_every),
        checkpoint: shared.cfg.checkpoint_every.map(|every| CheckpointPlan {
            every,
            store: store.as_mut().expect("store exists when checkpointing"),
        }),
        cancel,
    };

    let outcome = match run_two_pass(plan, resume.as_ref()) {
        Ok(outcome) => outcome,
        Err(e) => {
            return Err(if e.as_cancelled().is_some() {
                SessionEnd::Cancelled
            } else {
                fail(e.to_string())
            })
        }
    };

    // Completion: metrics file, multiplex log, done marker.
    let snapshots = guard.finish();
    let count = snapshots.len() as u64;
    if count > 0 {
        let jsonl = cnt_obs::to_jsonl(&snapshots)
            .map_err(|e| fail(format!("metrics serialisation: {e}")))?;
        std::fs::write(dir.join("metrics.jsonl"), jsonl)
            .map_err(|e| fail(format!("metrics.jsonl: {e}")))?;
        append_mux(shared, &meta.session, snapshots)
            .map_err(|e| fail(format!("serve_metrics.jsonl: {e}")))?;
    }
    std::fs::write(dir.join("done"), b"done\n").map_err(|e| fail(format!("done marker: {e}")))?;

    let TwoPassOutcome { base, cnt } = outcome;
    Ok(proto::Done {
        session: meta.session.clone(),
        accesses: cnt.accesses,
        baseline_fj: base.report.total().femtojoules(),
        cnt_fj: cnt.report.total().femtojoules(),
        snapshots: count,
    })
}

/// Appends one finished session's snapshots to the shared multiplex
/// log, experiment ids prefixed with the session id (`s0000/r0001`) so
/// downstream lint can tell tenants apart.
fn append_mux(
    shared: &Shared,
    sid: &str,
    mut snapshots: Vec<cnt_obs::Snapshot>,
) -> Result<(), String> {
    for snapshot in &mut snapshots {
        snapshot.experiment = format!("{sid}/{}", snapshot.experiment);
    }
    let jsonl = cnt_obs::to_jsonl(&snapshots).map_err(|e| e.to_string())?;
    let _guard = shared.mux.lock().expect("mux lock");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(shared.cfg.state_dir.join("serve_metrics.jsonl"))
        .map_err(|e| e.to_string())?;
    file.write_all(jsonl.as_bytes()).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_index_parsing_is_strict() {
        assert_eq!(parse_session_index("s0000"), Some(0));
        assert_eq!(parse_session_index("s0042"), Some(42));
        assert_eq!(parse_session_index("s10000"), Some(10_000));
        assert_eq!(parse_session_index("s42"), None, "too few digits");
        assert_eq!(parse_session_index("x0042"), None);
        assert_eq!(parse_session_index("s004x"), None);
        assert_eq!(parse_session_index("serve_metrics.jsonl"), None);
    }

    #[test]
    fn chunk_validation_rejects_damage() {
        let payload = {
            let body = b"0123456789".to_vec();
            let frame = cnt_trace::format::Frame {
                payload_len: body.len() as u32,
                access_count: 1,
                crc32: crc32(&body),
            };
            let mut out = frame.to_bytes().to_vec();
            out.extend_from_slice(&body);
            out
        };
        validate_chunk(&payload, 0).expect("well-formed chunk passes");

        let mut short = payload.clone();
        short.truncate(FRAME_BYTES - 1);
        assert!(validate_chunk(&short, 0).is_err());

        let mut wrong_len = payload.clone();
        wrong_len.pop();
        assert!(validate_chunk(&wrong_len, 0).is_err());

        let mut corrupt = payload;
        *corrupt.last_mut().expect("non-empty") ^= 0x40;
        assert!(matches!(
            validate_chunk(&corrupt, 3),
            Err(ProtoError::BadPayload { kind: "Chunk", .. })
        ));
    }
}
