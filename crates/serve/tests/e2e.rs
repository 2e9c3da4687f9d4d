//! End-to-end contracts of the replay service, over real sockets:
//!
//! * **Byte-identity** — metrics streamed over the socket are
//!   byte-identical to an offline `tracegen stream-replay`, at any
//!   `--jobs` setting.
//! * **Isolation** — concurrent sessions cannot perturb each other's
//!   streams, and the multiplexed log stays session-scoped.
//! * **Admission** — the global budget queues what fits eventually and
//!   rejects what never can; cancel and disconnect both free budget.
//! * **Crash resume** — a session interrupted mid-replay (checkpoint
//!   family on disk, no `done` marker) is completed byte-identically by
//!   `resume_pending` on the next server start.
//! * **Accept contract** — `run` returns after `max_sessions`
//!   connections with no wake, or after `shutdown` plus one connection.
//! * **No tick** — a request that trickles in across a pause is still
//!   answered mid-replay.

use std::io::Write as _;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use cnt_bench::driver::{
    run_two_pass, stream_config_pair, CheckpointPlan, CheckpointStore, SessionPlan,
};
use cnt_bench::pool;
use cnt_bench::stream::CancelToken;
use cnt_serve::client::{replay_file, Client, ClientError, Event};
use cnt_serve::proto::{
    decode_msg, encode_msg, read_frame, read_hello, write_frame, write_hello, Hello, Kind,
    OpenSession, StatusReport, FEATURE_OBS_STREAM,
};
use cnt_serve::{Server, ServerConfig};
use cnt_trace::format::Frame;
use cnt_trace::{
    CheckpointError, CheckpointFile, CheckpointRotator, CorruptionPolicy, ReadOptions, FRAME_BYTES,
    HEADER_BYTES,
};
use cnt_workloads::synthetic::SyntheticSpec;

const MIB: usize = 1024 * 1024;

/// Per-test scratch space; removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("cnt_serve_e2e_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }

    fn path(&self, leaf: &str) -> PathBuf {
        self.0.join(leaf)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Packs a synthetic trace big enough to span several streaming windows
/// at a 1 MiB budget (so checkpoints actually fire).
fn make_trace(path: &Path, accesses: usize) -> u64 {
    let spec = SyntheticSpec {
        accesses,
        ..Default::default()
    };
    let file = std::fs::File::create(path).expect("trace file");
    cnt_trace::pack_accesses(
        spec.stream(),
        std::io::BufWriter::new(file),
        cnt_trace::DEFAULT_CHUNK_ACCESSES,
    )
    .expect("packs");
    std::fs::metadata(path).expect("metadata").len()
}

/// The offline reference: what `tracegen stream-replay` would write for
/// this trace and budget. Fresh thread, same as every server session.
fn offline_metrics(trace: &Path, budget_mib: usize, metrics_every: u64) -> String {
    let trace = trace.to_path_buf();
    std::thread::spawn(move || {
        let (base_cfg, cnt_cfg) = stream_config_pair();
        let guard = cnt_obs::install_local(metrics_every, None);
        let plan = SessionPlan {
            input: &trace,
            opts: ReadOptions {
                budget_bytes: budget_mib * MIB,
                corruption: CorruptionPolicy::FailFast,
            },
            base_cfg: &base_cfg,
            cnt_cfg: &cnt_cfg,
            metrics_every: Some(metrics_every),
            checkpoint: None,
            cancel: None,
        };
        run_two_pass(plan, None).expect("offline replay");
        cnt_obs::to_jsonl(&guard.finish()).expect("serialises")
    })
    .join()
    .expect("offline thread")
}

struct TestServer {
    addr: String,
    state_dir: PathBuf,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl TestServer {
    fn start(state_dir: PathBuf, cfg: ServerConfig) -> TestServer {
        let cfg = ServerConfig {
            state_dir: state_dir.clone(),
            ..cfg
        };
        let server = Server::bind("127.0.0.1:0", cfg).expect("binds");
        let addr = server.local_addr().expect("addr").to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let handle = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                server.run(&shutdown, None).expect("listener survives");
            })
        };
        TestServer {
            addr,
            state_dir,
            shutdown,
            handle: Some(handle),
        }
    }

    /// Sets the flag and connects once: the blocking accept returns,
    /// sees the flag, and the accept loop ends.
    fn stop(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        TcpStream::connect(&self.addr).expect("wake connection");
        self.handle.take().expect("running").join().expect("exits");
    }
}

fn quick_cfg() -> ServerConfig {
    ServerConfig {
        spool_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    }
}

/// `sNNNN` directories currently present under a state dir.
fn session_dirs(state_dir: &Path) -> Vec<String> {
    let Ok(entries) = std::fs::read_dir(state_dir) else {
        return Vec::new();
    };
    let mut dirs: Vec<String> = entries
        .filter_map(Result::ok)
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|name| name.starts_with('s') && name[1..].bytes().all(|b| b.is_ascii_digit()))
        .collect();
    dirs.sort();
    dirs
}

#[test]
fn streamed_metrics_are_byte_identical_to_offline_at_any_jobs() {
    let scratch = Scratch::new("identity");
    let trace = scratch.path("t.ctr");
    make_trace(&trace, 120_000);
    let reference = offline_metrics(&trace, 1, 5_000);
    assert!(!reference.is_empty());

    let server = TestServer::start(scratch.path("state"), quick_cfg());
    for jobs in [1usize, 4] {
        pool::set_jobs(jobs);
        let outcome =
            replay_file(&server.addr, &trace, 1, 5_000, |_| {}).expect("session completes");
        assert_eq!(
            outcome.metrics_jsonl, reference,
            "streamed metrics diverged from offline at --jobs {jobs}"
        );
        assert_eq!(outcome.done.snapshots as usize, reference.lines().count());
        assert!(
            outcome.done.baseline_fj > outcome.done.cnt_fj,
            "CNT must save energy"
        );
    }
    pool::set_jobs(1);
    server.stop();
}

#[test]
fn concurrent_sessions_are_isolated_and_the_mux_log_is_scoped() {
    let scratch = Scratch::new("isolation");
    let trace = scratch.path("t.ctr");
    make_trace(&trace, 60_000);
    let reference = offline_metrics(&trace, 1, 2_000);

    let server = TestServer::start(scratch.path("state"), quick_cfg());
    let outcomes: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let addr = &server.addr;
                let trace = &trace;
                scope.spawn(move || {
                    replay_file(addr, trace, 1, 2_000, |_| {})
                        .expect("session completes")
                        .metrics_jsonl
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect()
    });
    for (session, jsonl) in outcomes.iter().enumerate() {
        assert_eq!(
            jsonl, &reference,
            "concurrent session {session} diverged from the offline stream"
        );
    }

    let mux = std::fs::read_to_string(server.state_dir.join("serve_metrics.jsonl"))
        .expect("multiplex log exists");
    let summary = cnt_obs::validate_sessions_jsonl(&mux).expect("mux log is session-scoped");
    assert_eq!(summary.sessions, 3);
    assert_eq!(summary.snapshots, 3 * reference.lines().count());
    server.stop();
}

#[test]
fn admission_queues_what_fits_and_rejects_what_never_can() {
    let scratch = Scratch::new("admission");
    let trace = scratch.path("t.ctr");
    let trace_bytes = make_trace(&trace, 30_000);

    let server = TestServer::start(
        scratch.path("state"),
        ServerConfig {
            global_budget_mib: 4,
            ..quick_cfg()
        },
    );

    // A request larger than the whole ledger is rejected outright.
    let mut too_big = Client::connect(&server.addr).expect("connects");
    let rejected = too_big.open(
        &OpenSession {
            budget_mib: 5,
            metrics_every: 0,
            trace_bytes,
            workload: None,
        },
        |_| {},
    );
    match rejected {
        Err(ClientError::Rejected(e)) => assert_eq!(e.code, "admission"),
        other => panic!("expected an admission rejection, got {other:?}"),
    }
    drop(too_big);

    // Holder takes 3 of the 4 MiB and sits in the spool phase.
    let mut holder = Client::connect(&server.addr).expect("connects");
    holder
        .open(
            &OpenSession {
                budget_mib: 3,
                metrics_every: 0,
                trace_bytes,
                workload: None,
            },
            |_| panic!("holder must be admitted immediately"),
        )
        .expect("admitted");

    // Waiter needs 3 MiB too: must queue until the holder cancels.
    let queued = Arc::new(AtomicBool::new(false));
    let waiter = {
        let addr = server.addr.clone();
        let trace = trace.clone();
        let queued = Arc::clone(&queued);
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connects");
            client
                .open(
                    &OpenSession {
                        budget_mib: 3,
                        metrics_every: 0,
                        trace_bytes,
                        workload: None,
                    },
                    |_| queued.store(true, Ordering::SeqCst),
                )
                .expect("admitted after the holder cancels");
            client.send_trace_file(&trace).expect("streams");
            client.finish().expect("finishes");
            loop {
                match client.recv_event().expect("events flow") {
                    Event::Done(done) => return done,
                    _ => continue,
                }
            }
        })
    };

    // Give the waiter time to hit the queue, then free the budget.
    std::thread::sleep(Duration::from_millis(300));
    assert!(
        queued.load(Ordering::SeqCst),
        "waiter should have been queued while the holder held the budget"
    );
    holder.cancel().expect("cancels");
    drop(holder);

    let done = waiter.join().expect("waiter completes");
    assert!(done.accesses > 0);
    server.stop();
}

#[test]
fn cancel_mid_replay_frees_the_session_completely() {
    let scratch = Scratch::new("cancel");
    let trace = scratch.path("t.ctr");
    make_trace(&trace, 200_000);

    let server = TestServer::start(
        scratch.path("state"),
        ServerConfig {
            global_budget_mib: 2,
            ..quick_cfg()
        },
    );

    // Stream the whole trace, then cancel at the first obs frame —
    // early in pass 0 of a two-pass replay.
    let mut client = Client::connect(&server.addr).expect("connects");
    client
        .open(
            &OpenSession {
                budget_mib: 2,
                metrics_every: 1_000,
                trace_bytes: std::fs::metadata(&trace).expect("metadata").len(),
                workload: None,
            },
            |_| {},
        )
        .expect("admitted");
    client.send_trace_file(&trace).expect("streams");
    client.finish().expect("finishes");
    let outcome = loop {
        match client.recv_event() {
            Ok(Event::Obs(_)) => client.cancel().expect("cancel sends"),
            Ok(Event::Done(_)) => panic!("replay finished before the cancel took effect"),
            Ok(_) => continue,
            Err(e) => break e,
        }
    };
    match outcome {
        ClientError::Rejected(e) => assert_eq!(e.code, "cancelled"),
        other => panic!("expected a cancelled error, got {other}"),
    }
    drop(client);

    // The session is fully gone: directory removed, budget returned —
    // a new full-budget session is admitted without queueing.
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        session_dirs(&server.state_dir).is_empty(),
        "cancelled session directory must be removed"
    );
    let outcome = replay_file(&server.addr, &trace, 2, 0, |event| {
        if let Event::Status(_) | Event::Obs(_) = event {}
    })
    .expect("full budget is free again");
    assert!(outcome.done.accesses > 0);
    server.stop();
}

#[test]
fn client_disconnect_mid_spool_frees_the_session() {
    let scratch = Scratch::new("disconnect");
    let trace = scratch.path("t.ctr");
    let trace_bytes = make_trace(&trace, 30_000);

    let server = TestServer::start(
        scratch.path("state"),
        ServerConfig {
            global_budget_mib: 2,
            ..quick_cfg()
        },
    );

    // Take the whole budget, then vanish mid-spool.
    let mut client = Client::connect(&server.addr).expect("connects");
    client
        .open(
            &OpenSession {
                budget_mib: 2,
                metrics_every: 0,
                trace_bytes,
                workload: None,
            },
            |_| {},
        )
        .expect("admitted");
    drop(client);

    // The server notices the hang-up, tears the session down, and the
    // next full-budget session is admitted cleanly.
    std::thread::sleep(Duration::from_millis(200));
    let outcome = replay_file(&server.addr, &trace, 2, 0, |_| {}).expect("budget was freed");
    assert!(outcome.done.accesses > 0);
    let dirs = session_dirs(&server.state_dir);
    assert_eq!(
        dirs.len(),
        1,
        "only the completed session remains: {dirs:?}"
    );
    server.stop();
}

/// A checkpoint store that cancels the replay after a fixed number of
/// generations — manufacturing the exact on-disk state a SIGKILL'd
/// server leaves behind.
struct KillAfter {
    inner: CheckpointRotator,
    writes_left: u32,
    token: CancelToken,
}

impl CheckpointStore for KillAfter {
    fn store(&mut self, file: &CheckpointFile) -> Result<(), CheckpointError> {
        self.inner.write(file)?;
        self.writes_left -= 1;
        if self.writes_left == 0 {
            self.token.cancel();
        }
        Ok(())
    }
}

#[test]
fn resume_pending_completes_interrupted_sessions_byte_identically() {
    let scratch = Scratch::new("resume");
    let trace = scratch.path("t.ctr");
    let trace_bytes = make_trace(&trace, 200_000);
    assert!(
        trace_bytes > MIB as u64,
        "trace must span several 1 MiB windows for checkpoints to fire"
    );
    let reference = offline_metrics(&trace, 1, 5_000);

    // Manufacture a killed session: spooled trace, meta, a checkpoint
    // family two generations deep, no `done` marker.
    let state_dir = scratch.path("state");
    let dir = state_dir.join("s0000");
    std::fs::create_dir_all(&dir).expect("session dir");
    std::fs::copy(&trace, dir.join("trace.ctr")).expect("spool");
    std::fs::write(dir.join("trace.ok"), b"ok\n").expect("marker");
    std::fs::write(
        dir.join("meta.json"),
        format!(
            "{{\"session\":\"s0000\",\"budget_mib\":1,\"metrics_every\":5000,\
             \"trace_bytes\":{trace_bytes}}}"
        ),
    )
    .expect("meta");
    {
        let token = CancelToken::new();
        let mut store = KillAfter {
            inner: CheckpointRotator::new(&dir.join("ckpt.ctrs"), 2).expect("rotator"),
            writes_left: 2,
            token: token.clone(),
        };
        let dir = dir.clone();
        let trace = trace.clone();
        let interrupted = std::thread::spawn(move || {
            let (base_cfg, cnt_cfg) = stream_config_pair();
            let _guard = cnt_obs::install_local(5_000, None);
            let plan = SessionPlan {
                input: &trace,
                opts: ReadOptions {
                    budget_bytes: MIB,
                    corruption: CorruptionPolicy::FailFast,
                },
                base_cfg: &base_cfg,
                cnt_cfg: &cnt_cfg,
                metrics_every: Some(5_000),
                checkpoint: Some(CheckpointPlan {
                    every: 4,
                    store: &mut store,
                }),
                cancel: Some(&token),
            };
            let err = match run_two_pass(plan, None) {
                Err(err) => err,
                Ok(_) => panic!("replay should have been interrupted mid-flight"),
            };
            assert!(err.as_cancelled().is_some(), "died via the kill switch");
            assert!(
                cnt_trace::rotate::latest(&dir.join("ckpt.ctrs"))
                    .expect("scan")
                    .is_some(),
                "a checkpoint generation is on disk"
            );
        });
        interrupted.join().expect("no panic");
    }
    assert!(!dir.join("done").is_file());

    // A session killed mid-spool (no trace.ok) must be swept, not resumed.
    let half_spooled = state_dir.join("s0001");
    std::fs::create_dir_all(&half_spooled).expect("dir");
    std::fs::write(half_spooled.join("trace.ctr"), b"partial").expect("write");

    // Next server start finishes the pending session before listening.
    let cfg = ServerConfig {
        checkpoint_every: Some(4),
        ..quick_cfg()
    };
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            state_dir: state_dir.clone(),
            ..cfg
        },
    )
    .expect("binds");
    let resumed = server.resume_pending();
    assert_eq!(resumed.len(), 1, "one session to resume: {resumed:?}");
    assert_eq!(resumed[0].0, "s0000");
    resumed[0].1.as_ref().expect("resume succeeds");

    let metrics = std::fs::read_to_string(dir.join("metrics.jsonl")).expect("metrics written");
    assert_eq!(
        metrics, reference,
        "resumed session must match the uninterrupted offline replay byte-for-byte"
    );
    assert!(dir.join("done").is_file());
    assert!(!half_spooled.exists(), "mid-spool corpse swept");

    // The multiplexed log got the resumed session's scoped snapshots.
    let mux = std::fs::read_to_string(state_dir.join("serve_metrics.jsonl")).expect("mux log");
    let summary = cnt_obs::validate_sessions_jsonl(&mux).expect("scoped");
    assert_eq!(summary.sessions, 1);

    // Resuming again is a no-op: the session is done.
    assert!(server.resume_pending().is_empty());
    drop(server);
}

#[test]
fn registry_named_sessions_replay_byte_identically_to_streamed_traces() {
    let scratch = Scratch::new("workload");

    // An "imported" capture: a synthetic trace dropped into the trace
    // dir the server scans, registered as `import/capture`.
    let capture_dir = scratch.path("captures");
    std::fs::create_dir_all(&capture_dir).expect("capture dir");
    let capture = capture_dir.join("capture.ctr");
    make_trace(&capture, 30_000);

    let server = TestServer::start(
        scratch.path("state"),
        ServerConfig {
            trace_dir: Some(capture_dir),
            ..quick_cfg()
        },
    );

    // A synthetic registry workload: the server materializes the same
    // bytes a local `pack_accesses` produces, so streaming the local pack
    // and naming the workload must give byte-identical metrics.
    let entry_trace = scratch.path("dct.ctr");
    {
        let registry = cnt_workloads::WorkloadRegistry::builtin();
        let selected = registry.select("synth/dct8x8").expect("known kernel");
        assert_eq!(selected.len(), 1);
        let workload = selected[0].load().expect("synthetic load");
        let file = std::fs::File::create(&entry_trace).expect("trace file");
        cnt_trace::pack_accesses(
            &workload.trace,
            std::io::BufWriter::new(file),
            cnt_trace::DEFAULT_CHUNK_ACCESSES,
        )
        .expect("packs");
    }
    let streamed = replay_file(&server.addr, &entry_trace, 1, 2_000, |_| {})
        .expect("streamed session completes");
    let named = cnt_serve::replay_workload(&server.addr, "synth/dct8x8", 1, 2_000, |_| {})
        .expect("workload session completes");
    assert_eq!(
        named.metrics_jsonl, streamed.metrics_jsonl,
        "registry-named session diverged from streaming the same trace"
    );
    assert_eq!(named.done.accesses, streamed.done.accesses);

    // The imported capture replays through the same registry path.
    let imported = cnt_serve::replay_workload(&server.addr, "import/capture", 1, 2_000, |_| {})
        .expect("imported workload session completes");
    let reference =
        replay_file(&server.addr, &capture, 1, 2_000, |_| {}).expect("streamed capture completes");
    assert_eq!(imported.metrics_jsonl, reference.metrics_jsonl);

    // Unknown ids are rejected during admission with the typed code.
    match cnt_serve::replay_workload(&server.addr, "import/nope", 1, 0, |_| {}) {
        Err(ClientError::Rejected(e)) => assert_eq!(e.code, "workload"),
        other => panic!("expected a workload rejection, got {other:?}"),
    }

    // A workload request that also claims trace bytes is a confused
    // client and is refused at admission.
    let mut confused = Client::connect(&server.addr).expect("connects");
    match confused.open(
        &OpenSession {
            budget_mib: 1,
            metrics_every: 0,
            trace_bytes: 64,
            workload: Some("synth/dct8x8".to_string()),
        },
        |_| {},
    ) {
        Err(ClientError::Rejected(e)) => assert_eq!(e.code, "admission"),
        other => panic!("expected an admission rejection, got {other:?}"),
    }
    server.stop();
}

/// Runs `server` on its own thread and reports when `run` returns, so a
/// test can bound the wait instead of hanging on a join.
fn run_in_background(
    server: Server,
    shutdown: Arc<AtomicBool>,
    max_sessions: Option<u64>,
) -> mpsc::Receiver<std::io::Result<()>> {
    let (returned, receiver) = mpsc::channel();
    std::thread::spawn(move || {
        returned.send(server.run(&shutdown, max_sessions)).ok();
    });
    receiver
}

#[test]
fn run_returns_after_max_sessions_with_no_wake_connection() {
    let scratch = Scratch::new("max_sessions");
    let trace = scratch.path("t.ctr");
    make_trace(&trace, 20_000);
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            state_dir: scratch.path("state"),
            ..quick_cfg()
        },
    )
    .expect("binds");
    let addr = server.local_addr().expect("addr").to_string();
    let returned = run_in_background(server, Arc::new(AtomicBool::new(false)), Some(1));

    let outcome = replay_file(&addr, &trace, 1, 0, |_| {}).expect("session completes");
    assert!(outcome.done.accesses > 0);
    returned
        .recv_timeout(Duration::from_secs(60))
        .expect("run returns once its one session is handled")
        .expect("listener survives");
}

#[test]
fn setting_shutdown_and_connecting_once_stops_run() {
    let scratch = Scratch::new("shutdown");
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            state_dir: scratch.path("state"),
            ..quick_cfg()
        },
    )
    .expect("binds");
    let addr = server.local_addr().expect("addr").to_string();
    let shutdown = Arc::new(AtomicBool::new(false));
    let returned = run_in_background(server, Arc::clone(&shutdown), None);

    // The flag alone wakes nothing: the accept blocks.
    shutdown.store(true, Ordering::SeqCst);
    assert!(returned.recv_timeout(Duration::from_millis(200)).is_err());
    TcpStream::connect(&addr).expect("wake connection");
    returned
        .recv_timeout(Duration::from_secs(60))
        .expect("run returns after the wake connection")
        .expect("listener survives");
}

/// Opens a client-streamed session on a raw socket with the `proto`
/// helpers: hello exchange, `OpenSession`, `Accepted`, then the trace's
/// header, its chunks one frame each, and `Finish`.
fn open_raw_session(addr: &str, trace: &Path, metrics_every: u64) -> TcpStream {
    let bytes = std::fs::read(trace).expect("trace bytes");
    let mut stream = TcpStream::connect(addr).expect("connects");
    write_hello(&mut stream, &Hello::ours(FEATURE_OBS_STREAM)).expect("hello");
    read_hello(&mut stream).expect("server hello");
    let open = OpenSession {
        budget_mib: 1,
        metrics_every,
        trace_bytes: bytes.len() as u64,
        workload: None,
    };
    let payload = encode_msg("OpenSession", &open).expect("encodes");
    write_frame(&mut stream, Kind::OpenSession, &payload).expect("open");
    let (kind, _) = read_frame(&mut stream).expect("admission reply");
    assert_eq!(kind, Kind::Accepted);

    let (header, mut rest) = bytes.split_at(HEADER_BYTES);
    write_frame(&mut stream, Kind::TraceHeader, header).expect("header");
    while !rest.is_empty() {
        let frame: &[u8; FRAME_BYTES] = rest[..FRAME_BYTES].try_into().expect("frame");
        let len = FRAME_BYTES + Frame::from_bytes(frame).payload_len as usize;
        write_frame(&mut stream, Kind::Chunk, &rest[..len]).expect("chunk");
        rest = &rest[len..];
    }
    write_frame(&mut stream, Kind::Finish, b"").expect("finish");
    stream
}

/// A `Status` frame whose header arrives in two pieces 100 ms apart is
/// still one frame: it is answered while the replay runs, and the obs
/// stream around it is untouched.
///
/// The replay streams about 10 MB of obs lines, more than the socket
/// buffers and the 256-line channel hold. The test reads nothing while
/// it pauses, so back-pressure stalls the session mid-replay however
/// fast the host is.
#[test]
fn a_status_frame_split_by_a_pause_is_answered_mid_replay() {
    let scratch = Scratch::new("split_status");
    let trace = scratch.path("t.ctr");
    make_trace(&trace, 400_000);
    let reference = offline_metrics(&trace, 1, 125);
    let server = TestServer::start(scratch.path("state"), quick_cfg());

    let mut status = Vec::new();
    write_frame(&mut status, Kind::Status, b"").expect("encodes");
    let mut stream = open_raw_session(&server.addr, &trace, 125);
    let mut obs = String::new();
    let mut report: Option<StatusReport> = None;
    loop {
        let (kind, payload) = read_frame(&mut stream).expect("frames flow until Done");
        match kind {
            Kind::Obs => {
                if obs.is_empty() {
                    // The replay is streaming: split the request.
                    stream.write_all(&status[..6]).expect("first half");
                    std::thread::sleep(Duration::from_millis(100));
                    stream.write_all(&status[6..]).expect("second half");
                }
                obs.push_str(std::str::from_utf8(&payload).expect("UTF-8"));
            }
            Kind::StatusReport => {
                assert!(report.is_none(), "one request, one report");
                report = Some(decode_msg("StatusReport", &payload).expect("decodes"));
            }
            Kind::Done => break,
            other => panic!("unexpected {other:?} frame"),
        }
    }
    let report = report.expect("the status request is answered before Done");
    assert_eq!(report.phase, "replaying");
    assert!((report.progress as usize) < reference.lines().count());
    assert_eq!(
        obs, reference,
        "the obs stream is unchanged around the reply"
    );
    server.stop();
}
