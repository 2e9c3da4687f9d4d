//! `serve-sessions`: closed-loop sessions against an in-process
//! `cnt-serve` server.
//!
//! Two clients, no think time, each sending its next session as soon as
//! the previous one is done. A session uploads one of four seed-derived
//! traces and streams its metrics back. It is the only workload with
//! observability capture, JSONL streaming, checkpoint I/O, spooling and
//! admission on the path; session latency is what a service user waits
//! on.

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use cnt_bench::driver::{
    run_two_pass, stream_config_pair, CheckpointPlan, CheckpointStore, SessionPlan,
};
use cnt_bench::pool;
use cnt_serve::proto::OpenSession;
use cnt_serve::{Client, ClientError, Event, Server, ServerConfig};
use cnt_sim::trace::{AccessBatch, MemoryAccess};
use cnt_trace::reader::Fetch;
use cnt_trace::{
    CheckpointError, CheckpointFile, CheckpointRotator, CorruptionPolicy, IngestStats, ReadOptions,
    StreamReader,
};
use cnt_workloads::synthetic::SyntheticSpec;

use crate::engine::{self, Replay};
use crate::metrics::Metrics;
use crate::stats::{median, p90, ratio, Summary, Tally};
use crate::tracer::{span, Trace, Tracer};
use crate::{median_of, repeat_timed, splitmix64, Ctx, Samples};

const MIB: usize = 1024 * 1024;
/// Pool workers (trace decode inside the server), the box's two cores.
const JOBS: usize = 2;
const CLIENTS: usize = 2;
const TRACES: usize = 4;
/// Per-session reader budget: a 125k-access trace spans two windows, so
/// each pass writes a checkpoint.
const BUDGET_MIB: usize = 1;
const METRICS_EVERY: u64 = 5_000;
const CHECKPOINT_EVERY: u64 = 8;
const CHECKPOINT_KEEP: usize = 2;

/// One of the four traces, with the offline reference of what a session
/// replaying it must stream back.
struct Input {
    path: PathBuf,
    bytes: u64,
    reference: String,
}

fn trace_paths(dir: &Path) -> Vec<PathBuf> {
    (0..TRACES)
        .map(|i| dir.join(format!("serve-{i}.ctr")))
        .collect()
}

/// Generates and packs the four traces.
fn write_traces(
    seed: u64,
    accesses: usize,
    paths: &[PathBuf],
    tracer: Option<&Tracer>,
    parent: Option<u64>,
    group: u64,
) -> Result<(), String> {
    let mut state = seed;
    for path in paths {
        let spec = SyntheticSpec {
            accesses,
            seed: splitmix64(&mut state),
            ..SyntheticSpec::default()
        };
        let trace: Vec<MemoryAccess> = span(tracer, "workloads.generate", parent, group, |_| {
            spec.stream().collect()
        });
        span(tracer, "trace.pack", parent, group, |_| {
            let file =
                std::fs::File::create(path).map_err(|e| format!("`{}`: {e}", path.display()))?;
            cnt_trace::pack_accesses(
                trace,
                std::io::BufWriter::new(file),
                cnt_trace::DEFAULT_CHUNK_ACCESSES,
            )
            .map(drop)
            .map_err(|e| e.to_string())
        })?;
    }
    Ok(())
}

/// A checkpoint store that times each write of the rotation family.
struct TimedStore<'a> {
    rotator: CheckpointRotator,
    tracer: Option<&'a Tracer>,
    parent: Option<u64>,
    group: u64,
    writes: u64,
    bytes: u64,
}

impl CheckpointStore for TimedStore<'_> {
    fn store(&mut self, file: &CheckpointFile) -> Result<(), CheckpointError> {
        let rotator = &mut self.rotator;
        let path = span(
            self.tracer,
            "trace.ckpt_store",
            self.parent,
            self.group,
            |_| rotator.write(file),
        )?;
        self.writes += 1;
        self.bytes += std::fs::metadata(&path).map_err(CheckpointError::Io)?.len();
        Ok(())
    }
}

/// What one offline two-pass replay produced.
#[derive(Default)]
struct Offline {
    jsonl: String,
    snapshots: u64,
    accesses: u64,
    checkpoint_writes: u64,
    checkpoint_bytes: u64,
}

/// The server's replay of one session, run offline on a fresh thread
/// (replay ids and the metrics sink are per thread, as in a session):
/// optionally observed, optionally checkpointed into `checkpoint_dir`,
/// which is removed afterwards.
fn offline(
    input: &Path,
    observed: bool,
    checkpoint_dir: Option<&Path>,
    tracer: Option<&Tracer>,
    name: &str,
    parent: Option<u64>,
    group: u64,
) -> Result<Offline, String> {
    span(tracer, name, parent, group, |root| {
        let replayed = std::thread::scope(|scope| {
            scope
                .spawn(|| replay_offline(input, observed, checkpoint_dir, tracer, root, group))
                .join()
        })
        .map_err(|_| "offline replay thread panicked".to_string())?;
        if let Some(dir) = checkpoint_dir {
            std::fs::remove_dir_all(dir).ok();
        }
        replayed
    })
}

fn replay_offline(
    input: &Path,
    observed: bool,
    checkpoint_dir: Option<&Path>,
    tracer: Option<&Tracer>,
    root: Option<u64>,
    group: u64,
) -> Result<Offline, String> {
    let (base_cfg, cnt_cfg) = stream_config_pair();
    let guard = observed.then(|| cnt_obs::install_local(METRICS_EVERY, None));
    let mut store = match checkpoint_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            let rotator = CheckpointRotator::new(&dir.join("ckpt.ctrs"), CHECKPOINT_KEEP)
                .map_err(|e| e.to_string())?;
            Some(TimedStore {
                rotator,
                tracer,
                parent: None,
                group,
                writes: 0,
                bytes: 0,
            })
        }
        None => None,
    };
    let outcome = span(tracer, "driver.two_pass", root, group, |replay| {
        if let Some(store) = store.as_mut() {
            store.parent = replay;
        }
        let plan = SessionPlan {
            input,
            opts: ReadOptions {
                budget_bytes: BUDGET_MIB * MIB,
                corruption: CorruptionPolicy::FailFast,
            },
            base_cfg: &base_cfg,
            cnt_cfg: &cnt_cfg,
            metrics_every: observed.then_some(METRICS_EVERY),
            checkpoint: store.as_mut().map(|store| CheckpointPlan {
                every: CHECKPOINT_EVERY,
                store,
            }),
            cancel: None,
        };
        run_two_pass(plan, None).map_err(|e| e.to_string())
    })?;
    let mut out = Offline {
        accesses: outcome.base.accesses + outcome.cnt.accesses,
        checkpoint_writes: store.as_ref().map_or(0, |s| s.writes),
        checkpoint_bytes: store.as_ref().map_or(0, |s| s.bytes),
        ..Offline::default()
    };
    if let Some(guard) = guard {
        let snapshots = guard.finish();
        out.snapshots = snapshots.len() as u64;
        out.jsonl = span(tracer, "obs.to_jsonl", root, group, |_| {
            cnt_obs::to_jsonl(&snapshots)
        })
        .map_err(|e| e.to_string())?;
    }
    Ok(out)
}

/// How one session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    /// Refused at admission.
    Refused,
    /// Streamed metrics differ from the offline reference.
    Diverged,
    /// Any other failure.
    Failed,
}

struct SessionRecord {
    secs: f64,
    verdict: Verdict,
    queued: bool,
}

/// One session: connect, open, upload, finish, then events until done.
fn session(
    addr: &str,
    input: &Input,
    state_dir: &Path,
    tracer: Option<&Tracer>,
    parent: Option<u64>,
    group: u64,
) -> SessionRecord {
    let t = Instant::now();
    let mut queued = false;
    let result = span(tracer, "session", parent, group, |session_span| {
        let mut client = span(tracer, "serve.connect", session_span, group, |_| {
            Client::connect(addr)
        })?;
        let accepted = span(tracer, "serve.admit", session_span, group, |_| {
            client.open(
                &OpenSession {
                    budget_mib: BUDGET_MIB,
                    metrics_every: METRICS_EVERY,
                    trace_bytes: input.bytes,
                    workload: None,
                },
                |_| queued = true,
            )
        })?;
        span(tracer, "serve.upload", session_span, group, |_| {
            client.send_trace_file(&input.path)?;
            client.finish()
        })?;
        let mut jsonl = String::new();
        let mut next = |jsonl: &mut String| loop {
            match client.recv_event()? {
                Event::Obs(line) => {
                    jsonl.push_str(&line);
                    return Ok::<_, ClientError>(false);
                }
                Event::Done(_) => return Ok(true),
                Event::Status(_) | Event::Warning(_) => {}
            }
        };
        let done = span(tracer, "serve.first_obs", session_span, group, |_| {
            next(&mut jsonl)
        })?;
        if !done {
            span(tracer, "serve.drain", session_span, group, |_| {
                while !next(&mut jsonl)? {}
                Ok::<_, ClientError>(())
            })?;
        }
        Ok::<_, ClientError>((accepted.session, jsonl))
    });
    let secs = t.elapsed().as_secs_f64();
    let verdict = match result {
        Ok((session, jsonl)) => {
            // The server is done with the session once `Done` is sent;
            // its spooled trace and checkpoints are not needed again.
            span(tracer, "serve.cleanup", parent, group, |_| {
                std::fs::remove_dir_all(state_dir.join(session)).ok()
            });
            if jsonl == input.reference {
                Verdict::Ok
            } else {
                Verdict::Diverged
            }
        }
        Err(ClientError::Rejected(e)) if e.code == "admission" => Verdict::Refused,
        Err(e) => {
            eprintln!("cntbench: session {group} failed: {e}");
            Verdict::Failed
        }
    };
    SessionRecord {
        secs,
        verdict,
        queued,
    }
}

/// The sessions of one closed loop.
struct Sessions {
    records: Vec<SessionRecord>,
    wall: f64,
}

impl Sessions {
    /// Latencies of the sessions that succeeded, in milliseconds.
    fn ok_ms(&self) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.verdict == Verdict::Ok)
            .map(|r| r.secs * 1e3)
            .collect()
    }

    fn count(&self, verdict: Verdict) -> usize {
        self.records.iter().filter(|r| r.verdict == verdict).count()
    }

    fn tally(&self, tally: &mut Tally) {
        for r in &self.records {
            tally.record(r.verdict == Verdict::Ok);
        }
    }
}

/// A running server and the clients' shared state.
struct Service<'a> {
    addr: String,
    state_dir: PathBuf,
    inputs: &'a [Input],
    seed: u64,
    /// Sessions started on this server; numbers them across its loops.
    sessions: AtomicU64,
}

impl Service<'_> {
    /// Two closed-loop clients, until `seconds` have passed and at least
    /// `min` sessions have started.
    fn closed_loop(
        &self,
        seconds: f64,
        min: usize,
        tracer: Option<&Tracer>,
        parent: Option<u64>,
    ) -> Sessions {
        let start = Instant::now();
        let started = AtomicU64::new(0);
        let records = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..CLIENTS {
                scope.spawn(|| loop {
                    let n = started.fetch_add(1, Ordering::Relaxed);
                    if n as usize >= min && start.elapsed().as_secs_f64() >= seconds {
                        break;
                    }
                    let k = self.sessions.fetch_add(1, Ordering::Relaxed);
                    let mut state = self.seed ^ k;
                    let input = &self.inputs[(splitmix64(&mut state) % TRACES as u64) as usize];
                    let record = session(&self.addr, input, &self.state_dir, tracer, parent, k);
                    records.lock().expect("no client panicked").push(record);
                });
            }
        });
        Sessions {
            records: records.into_inner().expect("no client panicked"),
            wall: start.elapsed().as_secs_f64(),
        }
    }
}

/// A server's warm-up sessions and closed loop.
struct Served {
    warmup: Sessions,
    measured: Sessions,
    /// Peak resident set after the warm-up, in MiB.
    peak_rss_mib: f64,
}

/// Starts a server on a loopback port, runs one warm-up session per
/// client and then a closed loop of `seconds` and at least `min`
/// sessions, and stops the server.
fn serve_loop(
    dir: &Path,
    inputs: &[Input],
    seed: u64,
    seconds: f64,
    min: usize,
    tracer: Option<&Tracer>,
) -> Result<Served, String> {
    let state_dir = dir.join("serve_state");
    let config = ServerConfig {
        state_dir: state_dir.clone(),
        checkpoint_every: Some(CHECKPOINT_EVERY),
        checkpoint_keep: CHECKPOINT_KEEP,
        ..ServerConfig::default()
    };
    span(tracer, "serve", None, 0, |root| {
        let server = span(tracer, "serve.start", root, 0, |_| {
            Server::bind("127.0.0.1:0", config)
        })
        .map_err(|e| e.to_string())?;
        let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
        let shutdown = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let running = scope.spawn(|| server.run(&shutdown, None));
            let service = Service {
                addr: addr.clone(),
                state_dir,
                inputs,
                seed,
                sessions: AtomicU64::new(0),
            };
            let warmup = service.closed_loop(0.0, CLIENTS, tracer, root);
            let peak_rss_mib = crate::peak_rss_mib()?;
            let measured = service.closed_loop(seconds, min, tracer, root);
            span(tracer, "serve.stop", root, 0, |_| {
                shutdown.store(true, Ordering::SeqCst);
                // Wake the accept loop so it sees the flag at once.
                TcpStream::connect(&addr).ok();
                running
                    .join()
                    .map_err(|_| "server thread panicked".to_string())?
                    .map_err(|e| e.to_string())
            })?;
            Ok(Served {
                warmup,
                measured,
                peak_rss_mib,
            })
        })
    })
}

/// The four traces and their offline references.
fn inputs(paths: Vec<PathBuf>, tracer: Option<&Tracer>) -> Result<Vec<Input>, String> {
    span(tracer, "references", None, 0, |root| {
        paths
            .into_iter()
            .enumerate()
            .map(|(i, path)| {
                let reference = offline(
                    &path,
                    true,
                    None,
                    tracer,
                    "offline.reference",
                    root,
                    i as u64,
                )?;
                let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
                Ok(Input {
                    path,
                    bytes,
                    reference: reference.jsonl,
                })
            })
            .collect()
    })
}

pub(crate) fn untraced(ctx: &mut Ctx) -> Result<(), String> {
    let opts = ctx.opts;
    ctx.jobs = JOBS;
    pool::set_jobs(JOBS);
    let paths = trace_paths(&opts.dir);
    let setup = repeat_timed(opts.scale.setup_reps, |rep| {
        write_traces(
            opts.seed,
            opts.scale.serve_accesses,
            &paths,
            None,
            None,
            rep,
        )
    })?;
    let inputs = inputs(paths, None)?;
    let served = serve_loop(
        &opts.dir,
        &inputs,
        opts.seed,
        opts.seconds,
        opts.scale.min_sessions,
        None,
    )?;
    served.warmup.tally(&mut ctx.tally);
    served.measured.tally(&mut ctx.tally);

    // Refused and failed sessions count as failures, not as latencies.
    let ms = served.measured.ok_ms();
    let p90 = p90(&ms)?;
    ctx.detail("session_p90_ms", "ms", &[p90]);
    let ops = Samples {
        secs: ms.iter().map(|ms| ms / 1e3).collect(),
        wall: served.measured.wall,
    };
    ctx.end_to_end(&setup, served.peak_rss_mib, &ops);
    Ok(())
}

/// Reads and decodes every trace chunk by chunk, each call a span.
fn ingest(
    paths: &[PathBuf],
    tracer: &Tracer,
    group: u64,
) -> Result<(Vec<Replay>, IngestStats), String> {
    let t = Some(tracer);
    span(t, "ingest", None, group, |root| {
        let mut replays = Vec::new();
        let mut total = IngestStats::default();
        for path in paths {
            let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
            let opts = ReadOptions {
                budget_bytes: BUDGET_MIB * MIB,
                corruption: CorruptionPolicy::FailFast,
            };
            let mut reader = StreamReader::new(std::io::BufReader::new(file), opts)
                .map_err(|e| e.to_string())?;
            let mut replay = Replay::new();
            loop {
                let fetched = span(t, "trace.read", root, group, |_| {
                    reader.next_raw_within(opts.budget_bytes)
                })
                .map_err(|e| e.to_string())?;
                let raw = match fetched {
                    Fetch::Chunk(raw) => raw,
                    Fetch::Eof => break,
                    Fetch::WouldExceed { chunk, .. } => {
                        return Err(format!("chunk {chunk} exceeds the session budget"))
                    }
                };
                replay.push(
                    span(t, "trace.decode", root, group, |_| {
                        let mut batch = AccessBatch::with_capacity(raw.access_count as usize);
                        raw.decode_batch(&mut batch).map(|()| batch)
                    })
                    .map_err(|e| e.to_string())?,
                );
            }
            let stats = reader.stats();
            total.chunks_read += stats.chunks_read;
            total.accesses_declared += stats.accesses_declared;
            total.bytes_read += stats.bytes_read;
            total.crc_failures += stats.crc_failures;
            replays.push(replay);
        }
        Ok((replays, total))
    })
}

pub(crate) fn traced(ctx: &mut Ctx) -> Result<(), String> {
    let opts = ctx.opts;
    let reps = opts.scale.traced_reps;
    ctx.jobs = JOBS;
    pool::set_jobs(JOBS);
    let paths = trace_paths(&opts.dir);
    let tracer = Tracer::new();
    let t = Some(&tracer);

    for rep in 0..opts.scale.setup_reps as u64 {
        span(t, "setup", None, rep, |setup| {
            write_traces(opts.seed, opts.scale.serve_accesses, &paths, t, setup, rep)
        })?;
    }
    let inputs = inputs(paths.clone(), t)?;
    // The server's replay without the service: bare, with the metrics
    // sink, and with the sink and checkpoints as a session runs it.
    let mut observed = Vec::new();
    let mut checkpointed = Vec::new();
    for rep in 0..reps {
        span(t, "offline", None, rep as u64, |root| {
            for (i, input) in inputs.iter().enumerate() {
                let group = (rep * TRACES + i) as u64;
                let path = &input.path;
                offline(path, false, None, t, "offline.plain", root, group)?;
                observed.push(offline(
                    path,
                    true,
                    None,
                    t,
                    "offline.observed",
                    root,
                    group,
                )?);
                let dir = opts.dir.join(format!("offline-{group}"));
                let name = "offline.checkpointed";
                checkpointed.push(offline(path, true, Some(&dir), t, name, root, group)?);
            }
            Ok::<_, String>(())
        })?;
    }
    let phase = ctx.phase_seconds();
    // The untraced loop, on a server of its own, runs after the traced
    // window closes.
    let traced = serve_loop(&opts.dir, &inputs, opts.seed, phase, reps, t)?;
    let mut ingested = Vec::new();
    let mut ingest_stats = IngestStats::default();
    for rep in 0..reps as u64 {
        let (replays, stats) = ingest(&paths, &tracer, rep)?;
        ingested = replays;
        ingest_stats = stats;
    }
    let engine_reports = engine::run_rounds(&tracer, &ingested, phase, reps)?;
    let trace = tracer.finish();
    let untraced = serve_loop(&opts.dir, &inputs, opts.seed, phase, reps, None)?;

    for served in [&traced, &untraced] {
        served.warmup.tally(&mut ctx.tally);
        served.measured.tally(&mut ctx.tally);
    }
    let (traced, untraced) = (traced.measured, untraced.measured);
    if traced.ok_ms().is_empty() || untraced.ok_ms().is_empty() {
        return Err("no session succeeded".to_string());
    }
    for (run, input) in observed
        .iter()
        .chain(&checkpointed)
        .zip(inputs.iter().cycle())
    {
        ctx.tally.record(run.jsonl == input.reference);
    }

    let m = &mut ctx.metrics;
    session_metrics(m, &trace, &traced, &untraced);
    offline_metrics(m, &trace, &observed, &checkpointed);
    let chunks = ingest_stats.chunks_read as f64;
    let per_rep = |name: &str| median_of(trace.by_group(&[name]).into_values());
    m.value(
        "trace.read_ns_per_chunk",
        per_rep("trace.read") * 1e9 / chunks,
    );
    m.value(
        "trace.decode_ns_per_acc",
        per_rep("trace.decode") * 1e9 / ingest_stats.accesses_declared as f64,
    );
    m.value("trace.chunks", chunks);
    m.value(
        "trace.mib_read",
        ingest_stats.bytes_read as f64 / MIB as f64,
    );
    m.value("trace.crc_failures", ingest_stats.crc_failures as f64);
    m.value("workloads.generate_s", per_rep("workloads.generate"));
    m.value("trace.pack_s", per_rep("trace.pack"));
    engine::layer_metrics(&trace, &ingested, &engine_reports, m);
    ctx.trace = Some(trace);
    Ok(())
}

/// Milliseconds of the spans called `name`; 0 when there are none (a
/// trace within one reader window writes no checkpoint).
fn span_ms(trace: &Trace, name: &str) -> Summary {
    let ms: Vec<f64> = trace.durations(name).iter().map(|s| s * 1e3).collect();
    if ms.is_empty() {
        Summary::single(0.0)
    } else {
        Summary::of(&ms)
    }
}

fn session_metrics(m: &mut Metrics, trace: &Trace, traced: &Sessions, untraced: &Sessions) {
    for (span_name, metric) in [
        ("serve.connect", "serve.connect_ms"),
        ("serve.admit", "serve.admit_ms"),
        ("serve.upload", "serve.upload_ms"),
        ("serve.first_obs", "serve.first_obs_ms"),
        ("serve.drain", "serve.drain_ms"),
    ] {
        m.set(metric, span_ms(trace, span_name));
    }
    let both = [traced, untraced];
    let count = |verdict| both.iter().map(|s| s.count(verdict)).sum::<usize>() as f64;
    m.value("serve.refused", count(Verdict::Refused));
    m.value("serve.diverged", count(Verdict::Diverged));
    m.value(
        "serve.queued",
        both.iter()
            .flat_map(|s| &s.records)
            .filter(|r| r.queued)
            .count() as f64,
    );
    // The server's own work for a session is the checkpointed offline
    // replay; the rest of a session's latency is the service around it.
    let untraced_p50 = median(&untraced.ok_ms());
    m.value(
        "serve.overhead_ms",
        untraced_p50 - median(&trace.durations("offline.checkpointed")) * 1e3,
    );
    m.value(
        "tracing_overhead_pct",
        (median(&traced.ok_ms()) - untraced_p50) / untraced_p50 * 100.0,
    );
}

/// Metrics of the offline replays: every trace, every repetition,
/// observed, and observed with checkpoints.
fn offline_metrics(m: &mut Metrics, trace: &Trace, observed: &[Offline], checkpointed: &[Offline]) {
    let runs = observed.len() as f64;
    let sum = |runs: &[Offline], f: fn(&Offline) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    // Seconds of the two-pass replays under the roots called `root`.
    let replay_secs = |root: &str| -> f64 {
        let roots: Vec<u64> = trace.named(root).map(|s| s.id).collect();
        trace
            .named("driver.two_pass")
            .filter(|s| s.parent.is_some_and(|p| roots.contains(&p)))
            .map(|s| s.secs())
            .sum()
    };
    m.value(
        "obs.overhead_ns_per_acc",
        (replay_secs("offline.observed") - replay_secs("offline.plain")) * 1e9
            / sum(observed, |o| o.accesses),
    );
    m.value("obs.snapshots", sum(observed, |o| o.snapshots) / runs);
    m.value(
        "obs.jsonl_kib",
        observed.iter().map(|o| o.jsonl.len()).sum::<usize>() as f64 / 1024.0 / runs,
    );
    m.set("obs.to_jsonl_ms", span_ms(trace, "obs.to_jsonl"));
    m.set("trace.ckpt_store_ms", span_ms(trace, "trace.ckpt_store"));
    let writes = sum(checkpointed, |o| o.checkpoint_writes);
    m.value("trace.ckpts", writes / checkpointed.len() as f64);
    m.value(
        "trace.ckpt_kib",
        ratio(sum(checkpointed, |o| o.checkpoint_bytes), writes) / 1024.0,
    );
}
