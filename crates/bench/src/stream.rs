//! Chunk-parallel replay of streamed `.ctr` traces.
//!
//! The pipeline between `cnt-trace` and the simulator:
//!
//! ```text
//! .ctr file ──▶ StreamReader ──▶ [window of raw chunks ≤ budget]
//!                  (seq I/O)          │ pool::par_map
//!                                     ▼
//!                              [decoded chunks, input order]
//!                                     │ in-order consumption
//!                                     ▼
//!                                 CntCache ──▶ EnergyReport
//! ```
//!
//! File I/O stays sequential; decode fans out across the shared worker
//! pool; the simulator consumes chunks strictly in file order. Because
//! windowing is a pure function of the byte budget and [`pool::par_map`]
//! returns results in input order, a replay is **byte-identical**
//! between `--seq` and `--jobs N` — including the metrics stream, whose
//! epoch snapshots carry chunk-ingest counters sampled only at
//! deterministic consumption points. Peak buffered payload never
//! exceeds the reader's configured budget.

use std::io::Read;
use std::path::Path;

use cnt_cache::{CntCache, CntCacheConfig, EncodingPolicy, EnergyReport, EpochClock, EpochHook};
use cnt_energy::EnergyBreakdown;
use cnt_obs::{Emitter, IngestSnapshot};
use cnt_sim::trace::AccessBatch;
use cnt_sim::AccessError;
use cnt_trace::reader::Fetch;
use cnt_trace::{
    CheckpointError, CorruptionPolicy, RawChunk, ReadOptions, StreamReader, TraceError,
};
use serde::{Deserialize, Serialize};

use crate::pool;
use crate::runner::dcache_config;

/// A streamed-replay failure: either the trace stream or the simulation.
#[derive(Debug)]
pub enum StreamError {
    /// The `.ctr` stream failed (I/O, corruption under fail-fast,
    /// truncation, budget overflow).
    Trace(TraceError),
    /// The simulator rejected an access.
    Access(AccessError),
    /// A periodic checkpoint write failed.
    Checkpoint(CheckpointError),
    /// The replay was cancelled through its [`CancelToken`]. Carries how
    /// far the replay got so the driver can report (and clean up) the
    /// abandoned work precisely.
    Cancelled {
        /// Chunks fully consumed before cancellation was observed.
        chunk: u64,
        /// Accesses replayed before cancellation was observed.
        accesses: u64,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Trace(e) => write!(f, "trace stream: {e}"),
            StreamError::Access(e) => write!(f, "replay: {e}"),
            StreamError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            StreamError::Cancelled { chunk, accesses } => write!(
                f,
                "replay cancelled after {chunk} chunks ({accesses} accesses)"
            ),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Trace(e) => Some(e),
            StreamError::Access(e) => Some(e),
            StreamError::Checkpoint(e) => Some(e),
            StreamError::Cancelled { .. } => None,
        }
    }
}

/// A cooperative cancellation handle for long replays. Cloneable and
/// thread-safe: a control thread (e.g. a server connection's reader
/// that just read a `Cancel` frame or lost its client) flips the token, and
/// the replay observes it at its next deterministic check point — the
/// window boundary and each chunk-consumption step — then returns
/// [`StreamError::Cancelled`] instead of touching further input.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(std::sync::Arc<std::sync::atomic::AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, std::sync::atomic::Ordering::SeqCst);
    }

    /// `true` once [`CancelToken::cancel`] has been called.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(std::sync::atomic::Ordering::SeqCst)
    }
}

impl From<CheckpointError> for StreamError {
    fn from(e: CheckpointError) -> Self {
        StreamError::Checkpoint(e)
    }
}

impl From<TraceError> for StreamError {
    fn from(e: TraceError) -> Self {
        StreamError::Trace(e)
    }
}

impl From<AccessError> for StreamError {
    fn from(e: AccessError) -> Self {
        StreamError::Access(e)
    }
}

/// What one streamed replay produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamOutcome {
    /// The final energy report (after a flush).
    pub report: EnergyReport,
    /// Final chunk-ingest counters.
    pub ingest: IngestSnapshot,
    /// Accesses replayed.
    pub accesses: u64,
}

/// Driver-side replay state that must survive a checkpoint — everything
/// [`replay_stream`] accumulates outside the cache itself. Captured at a
/// window boundary (nothing buffered, nothing in flight), handed to the
/// checkpoint hook, and fed back via [`replay_stream_resumable`] after a
/// restart.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ReplayCursor {
    /// Chunks fully consumed. Checkpoints are taken only at window
    /// boundaries under fail-fast corruption handling, so this equals
    /// the reader cursor: `StreamReader::seek_to_chunk(chunk)` puts a
    /// fresh reader exactly where this replay left off.
    pub chunk: u64,
    /// Accesses replayed so far (cumulative).
    pub accesses: u64,
    /// Next snapshot epoch index.
    pub epoch: u64,
    /// Driver-side ingest counters (consumption, decoded bytes, peaks).
    pub driver: IngestSnapshot,
    /// The replay's deterministic experiment id (`None` when no metrics
    /// sink was installed).
    pub experiment: Option<String>,
    /// Per-level cumulative energy at the last emitted epoch — the
    /// [`cnt_obs::DeltaTracker`] seed, so a resumed replay's next
    /// per-epoch delta subtracts the right baseline.
    pub delta_prev: Vec<EnergyBreakdown>,
}

/// Periodic-checkpoint policy for [`replay_stream_resumable`].
pub struct CheckpointEvery<'a> {
    /// Minimum chunks between checkpoint writes; the hook fires at the
    /// first window boundary at least this many chunks after the last
    /// write (never mid-window — nothing buffered is ever checkpointed).
    pub chunks: u64,
    /// Persists one checkpoint. Receives the cache, the cursor, and the
    /// reader's trace-identity digest at the cursor (for the checkpoint
    /// manifest). An error aborts the replay.
    #[allow(clippy::type_complexity)]
    pub write: &'a mut dyn FnMut(&CntCache, &ReplayCursor, u64) -> Result<(), CheckpointError>,
}

/// Merges read-side reader stats with driver-side consumption counters
/// into the snapshot-ready form.
fn sample_ingest(
    reader_stats: cnt_trace::IngestStats,
    driver: &IngestSnapshot,
    prefetch_buffered: u64,
) -> IngestSnapshot {
    IngestSnapshot {
        chunks_read: reader_stats.chunks_read,
        chunks_consumed: driver.chunks_consumed,
        chunks_skipped: reader_stats.chunks_skipped + driver.chunks_skipped,
        crc_failures: reader_stats.crc_failures,
        decode_failures: reader_stats.decode_failures + driver.decode_failures,
        bytes_read: reader_stats.bytes_read,
        bytes_decoded: driver.bytes_decoded,
        prefetch_buffered,
        peak_buffered_bytes: driver.peak_buffered_bytes,
    }
}

/// Replays a streamed trace through `cache`, decoding chunks on the
/// shared worker pool while the simulator consumes them in order.
///
/// Memory: at most one window of raw payloads plus its decoded accesses
/// are alive at a time, and the raw window never exceeds the reader's
/// byte budget (tracked in `peak_buffered_bytes`).
///
/// Observability: when a metrics sink is installed this emits one
/// [`cnt_obs::Snapshot`] per epoch — per-level counters, per-epoch energy deltas,
/// *and* the chunk-ingest block — under the same deterministic replay id
/// scheme as `cnt_obs::replay`.
///
/// # Errors
///
/// [`StreamError::Trace`] for stream damage (per the reader's
/// [`CorruptionPolicy`]) and [`StreamError::Access`] for malformed
/// accesses.
pub fn replay_stream<R: Read>(
    cache: &mut CntCache,
    reader: &mut StreamReader<R>,
) -> Result<(IngestSnapshot, u64), StreamError> {
    replay_stream_resumable(cache, reader, None, None, None)
}

/// [`replay_stream`] with checkpoint/resume support.
///
/// `resume` continues a replay from a [`ReplayCursor`] saved by an
/// earlier checkpoint: the caller must have restored `cache` from the
/// same checkpoint and seeked `reader` to `resume.chunk` (via
/// [`StreamReader::seek_to_chunk`]). Accesses, epochs, ingest counters,
/// and energy deltas all continue from the cursor, so the resumed run's
/// outputs are byte-identical to an uninterrupted one.
///
/// `checkpoint` persists the replay periodically at window boundaries.
/// Checkpointing requires [`CorruptionPolicy::FailFast`]: under
/// skip-with-report the consumed-chunk count diverges from the reader
/// cursor and a resume could silently replay the wrong suffix.
///
/// `cancel` makes the replay abandonable from another thread: the token
/// is polled before each window fill and before each chunk is consumed,
/// and a set token surfaces as [`StreamError::Cancelled`] without
/// reading further input — the isolation primitive a multi-tenant
/// server needs to tear one session down without touching the rest.
///
/// # Errors
///
/// As [`replay_stream`], plus [`StreamError::Checkpoint`] when the hook
/// fails and [`StreamError::Cancelled`] when `cancel` fires.
///
/// # Panics
///
/// Panics if `checkpoint` is combined with
/// [`CorruptionPolicy::SkipWithReport`], or if `resume` is given but the
/// reader is not positioned at the cursor — both are driver bugs, not
/// runtime conditions.
pub fn replay_stream_resumable<R: Read>(
    cache: &mut CntCache,
    reader: &mut StreamReader<R>,
    resume: Option<ReplayCursor>,
    mut checkpoint: Option<CheckpointEvery<'_>>,
    cancel: Option<&CancelToken>,
) -> Result<(IngestSnapshot, u64), StreamError> {
    let every = cnt_obs::epoch_len();
    assert!(
        checkpoint.is_none() || reader.options().corruption == CorruptionPolicy::FailFast,
        "checkpointing requires fail-fast corruption handling"
    );
    let resuming = resume.is_some();
    let cursor = resume.unwrap_or_default();
    if resuming {
        assert_eq!(
            reader.cursor(),
            cursor.chunk,
            "reader must be seeked to the checkpoint cursor before resuming"
        );
    }
    let mut emitter = if resuming {
        cursor.experiment.map(|experiment| Emitter {
            experiment,
            deltas: cnt_obs::DeltaTracker::seeded(cursor.delta_prev),
        })
    } else {
        every.map(|_| Emitter::start("obs.replays_observed"))
    };
    // Snapshots need a sink *and* a replay id: a resume from a
    // checkpoint taken without metrics has no id to continue.
    let observing = every.is_some() && emitter.is_some();
    let mut clock = EpochClock {
        every: every.unwrap_or_default(),
        accesses: cursor.accesses,
        epoch: cursor.epoch,
    };
    let budget = reader.options().budget_bytes;
    let corruption = reader.options().corruption;

    let mut driver = cursor.driver;
    let mut last_checkpoint: u64 = cursor.chunk;

    let cancelled = |driver: &IngestSnapshot, accesses: u64| StreamError::Cancelled {
        chunk: driver.chunks_consumed,
        accesses,
    };

    loop {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(cancelled(&driver, clock.accesses));
        }
        // Fill one prefetch window, hard-bounded by the byte budget: a
        // chunk that does not fit the remaining window stays inside the
        // reader (only its frame header was consumed).
        let mut window: Vec<RawChunk> = Vec::new();
        let mut window_bytes = 0usize;
        let mut eof = false;
        loop {
            match reader.next_raw_within(budget - window_bytes)? {
                Fetch::Chunk(raw) => {
                    window_bytes += raw.payload.len();
                    window.push(raw);
                    if window_bytes >= budget {
                        break;
                    }
                }
                Fetch::WouldExceed { chunk, needed } => {
                    if window.is_empty() {
                        // The pending chunk cannot fit even a *fresh*
                        // window, so it will never be replayed. Breaking
                        // out here (as this loop once did) would end the
                        // replay with `Ok`, silently dropping the rest of
                        // the trace; surface it as a budget error instead.
                        return Err(TraceError::ChunkExceedsBudget {
                            chunk,
                            payload_bytes: needed as u64,
                            budget_bytes: budget as u64,
                        }
                        .into());
                    }
                    break;
                }
                Fetch::Eof => {
                    eof = true;
                    break;
                }
            }
        }
        driver.peak_buffered_bytes = driver.peak_buffered_bytes.max(window_bytes as u64);

        if window.is_empty() {
            // An empty window now implies a clean end of stream: the
            // non-fitting-chunk case errored out above.
            debug_assert!(eof);
            break;
        }

        // Decode the whole window on the worker pool into struct-of-arrays
        // batches; results come back in input order, so consumption order
        // equals file order.
        let decoded = pool::par_map(&window, |raw| {
            let mut batch = AccessBatch::with_capacity(raw.access_count as usize);
            raw.decode_batch(&mut batch).map(|()| batch)
        });

        for (position, (raw, result)) in window.iter().zip(decoded).enumerate() {
            if cancel.is_some_and(CancelToken::is_cancelled) {
                return Err(cancelled(&driver, clock.accesses));
            }
            let batch = match result {
                Ok(batch) => batch,
                Err(e) => {
                    driver.decode_failures += 1;
                    match corruption {
                        CorruptionPolicy::FailFast => return Err(e.into()),
                        CorruptionPolicy::SkipWithReport => {
                            driver.chunks_skipped += 1;
                            continue;
                        }
                    }
                }
            };
            // Only chunks strictly after `position` are buffered-and-
            // unconsumed; the chunk being replayed is partially consumed
            // and must not inflate the gauge.
            let buffered = (window.len() - position - 1) as u64;
            let mut emit = |cache: &CntCache, epoch, accesses| {
                let ingest = sample_ingest(reader.stats(), &driver, buffered);
                if let Some(emitter) = emitter.as_mut() {
                    emitter.emit(cache, epoch, accesses, Some(ingest));
                }
            };
            let hook = observing.then_some(&mut emit as EpochHook<'_, CntCache>);
            cache.run_observed(batch.iter(), &mut clock, hook)?;
            driver.chunks_consumed += 1;
            driver.bytes_decoded += raw.payload.len() as u64;
        }

        // Window boundary: everything fetched is consumed, so the reader
        // cursor is the exact resume point. Write a checkpoint when the
        // interval has elapsed (skipped at EOF — the run is about to
        // finish and the final state supersedes any checkpoint).
        if let Some(ck) = checkpoint.as_mut() {
            if !eof && reader.cursor() - last_checkpoint >= ck.chunks {
                let state = ReplayCursor {
                    chunk: reader.cursor(),
                    accesses: clock.accesses,
                    epoch: clock.epoch,
                    driver,
                    experiment: emitter.as_ref().map(|e| e.experiment.clone()),
                    delta_prev: emitter
                        .as_ref()
                        .map_or_else(Vec::new, |e| e.deltas.state().to_vec()),
                };
                (ck.write)(cache, &state, reader.identity())?;
                last_checkpoint = state.chunk;
            }
        }

        if eof {
            break;
        }
    }

    let final_ingest = sample_ingest(reader.stats(), &driver, 0);
    if let Some(emitter) = emitter.as_mut().filter(|_| observing) {
        clock.close(cache, &mut |cache, epoch, accesses| {
            emitter.emit(cache, epoch, accesses, Some(final_ingest));
        });
    }

    // Mirror the totals into the sink's registry so `--metrics-final`
    // exports see ingest activity without snapshots.
    cnt_obs::count("trace.chunks_read", final_ingest.chunks_read);
    cnt_obs::count("trace.chunks_skipped", final_ingest.chunks_skipped);
    cnt_obs::count("trace.crc_failures", final_ingest.crc_failures);
    cnt_obs::count("trace.bytes_decoded", final_ingest.bytes_decoded);
    cnt_obs::count("trace.replays", 1);

    Ok((final_ingest, clock.accesses))
}

/// Streams `path` through a fresh cache built from `config`, flushes,
/// and returns the report plus ingest counters.
///
/// # Errors
///
/// As [`replay_stream`], plus I/O errors opening the file.
///
/// # Panics
///
/// Panics if `config` is invalid — a harness bug, not a user error.
pub fn replay_stream_file(
    path: &Path,
    config: CntCacheConfig,
    opts: ReadOptions,
) -> Result<StreamOutcome, StreamError> {
    let file = std::fs::File::open(path).map_err(TraceError::from)?;
    let mut reader = StreamReader::new(std::io::BufReader::new(file), opts)?;
    let mut cache = CntCache::new(config).expect("stream-replay configuration must be valid");
    let (ingest, accesses) = replay_stream(&mut cache, &mut reader)?;
    cache.flush();
    Ok(StreamOutcome {
        report: cache.into_report(),
        ingest,
        accesses,
    })
}

/// Streams `path` under the paper's D-Cache geometry with the given
/// policy.
///
/// # Errors
///
/// As [`replay_stream_file`].
pub fn run_dcache_stream(
    policy: EncodingPolicy,
    path: &Path,
    opts: ReadOptions,
) -> Result<StreamOutcome, StreamError> {
    replay_stream_file(path, dcache_config("L1D", policy), opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_dcache;
    use cnt_sim::trace::{AccessBatch, MemoryAccess};
    use cnt_sim::Address;
    use cnt_trace::pack_accesses;

    fn sample_trace(n: u64) -> AccessBatch {
        (0..n)
            .map(|i| {
                let addr = Address::new(0x4000 + (i % 300) * 8);
                if i % 5 == 0 {
                    MemoryAccess::write(addr, 8, i.wrapping_mul(0x0101_0101_0101_0101))
                } else {
                    MemoryAccess::read(addr, 8)
                }
            })
            .collect()
    }

    fn packed(trace: &AccessBatch, chunk_accesses: u32) -> Vec<u8> {
        let mut bytes = Vec::new();
        pack_accesses(trace, &mut bytes, chunk_accesses).expect("packs");
        bytes
    }

    #[test]
    fn streamed_replay_matches_in_memory_replay() {
        let trace = sample_trace(5_000);
        let bytes = packed(&trace, 128);
        let expected = run_dcache(EncodingPolicy::adaptive_default(), &trace);

        let mut reader = StreamReader::new(
            &bytes[..],
            ReadOptions {
                budget_bytes: 4 * 1024, // forces many windows
                corruption: CorruptionPolicy::FailFast,
            },
        )
        .expect("opens");
        let mut cache =
            CntCache::new(dcache_config("L1D", EncodingPolicy::adaptive_default())).expect("valid");
        let (ingest, accesses) = replay_stream(&mut cache, &mut reader).expect("streams");
        cache.flush();
        let report = cache.into_report();

        assert_eq!(accesses, 5_000);
        assert_eq!(report, expected);
        assert!(ingest.peak_buffered_bytes <= 4 * 1024, "budget respected");
        assert_eq!(ingest.chunks_consumed, ingest.chunks_read);
        assert_eq!(ingest.bytes_decoded, ingest.bytes_read);
    }

    #[test]
    fn skip_policy_replays_the_intact_remainder() {
        let trace = sample_trace(1_000);
        let mut bytes = packed(&trace, 100);
        // Flip a bit somewhere in the middle of the file body.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;

        let mut reader = StreamReader::new(
            &bytes[..],
            ReadOptions {
                budget_bytes: 64 * 1024,
                corruption: CorruptionPolicy::SkipWithReport,
            },
        )
        .expect("opens");
        let mut cache =
            CntCache::new(dcache_config("L1D", EncodingPolicy::adaptive_default())).expect("valid");
        let (ingest, accesses) = replay_stream(&mut cache, &mut reader).expect("skips");
        assert!(ingest.chunks_skipped >= 1);
        assert!(accesses < 1_000, "the damaged chunk's accesses are gone");
        assert_eq!(
            accesses,
            1_000 - 100 * ingest.chunks_skipped,
            "every skip drops exactly one chunk of accesses"
        );
    }

    #[test]
    fn oversized_chunk_errors_instead_of_truncating() {
        // One giant chunk that can never fit the byte budget. The replay
        // must surface a budget error — ending with `Ok` here would mean
        // the trace was silently truncated to zero accesses.
        let trace = sample_trace(1_000);
        let bytes = packed(&trace, 1_000);
        let mut reader = StreamReader::new(
            &bytes[..],
            ReadOptions {
                budget_bytes: 256,
                corruption: CorruptionPolicy::FailFast,
            },
        )
        .expect("opens");
        let mut cache =
            CntCache::new(dcache_config("L1D", EncodingPolicy::adaptive_default())).expect("valid");
        let err = replay_stream(&mut cache, &mut reader).unwrap_err();
        assert!(
            matches!(
                err,
                StreamError::Trace(TraceError::ChunkExceedsBudget { chunk: 0, .. })
            ),
            "expected a budget error, got {err}"
        );
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted_run() {
        use cnt_trace::Checkpointable;

        let trace = sample_trace(4_000);
        let bytes = packed(&trace, 64);
        let opts = ReadOptions {
            budget_bytes: 2 * 1024,
            corruption: CorruptionPolicy::FailFast,
        };
        let config = dcache_config("L1D", EncodingPolicy::adaptive_default());

        // Uninterrupted control run.
        let mut reader = StreamReader::new(std::io::Cursor::new(&bytes[..]), opts).expect("opens");
        let mut cache = CntCache::new(config.clone()).expect("valid");
        let control = replay_stream(&mut cache, &mut reader).expect("streams");
        cache.flush();
        let control_report = cache.into_report();
        let control_identity = reader.identity();

        // Checkpointed run: save the first checkpoint that fires, then let
        // the run finish — checkpointing must not perturb the outcome.
        let mut saved: Option<(Vec<u8>, ReplayCursor, u64)> = None;
        let mut hook = |cache: &CntCache, cursor: &ReplayCursor, identity: u64| {
            if saved.is_none() {
                saved = Some((cache.encode_state()?, cursor.clone(), identity));
            }
            Ok(())
        };
        let mut reader = StreamReader::new(std::io::Cursor::new(&bytes[..]), opts).expect("opens");
        let mut cache = CntCache::new(config.clone()).expect("valid");
        let observed = replay_stream_resumable(
            &mut cache,
            &mut reader,
            None,
            Some(CheckpointEvery {
                chunks: 10,
                write: &mut hook,
            }),
            None,
        )
        .expect("streams");
        cache.flush();
        assert_eq!(observed, control, "checkpointing perturbed the replay");
        assert_eq!(cache.into_report(), control_report);

        let (state, cursor, mid_identity) = saved.expect("a checkpoint fired mid-stream");
        assert!(cursor.chunk >= 10, "checkpoint landed before the interval");
        assert!(cursor.accesses < 4_000, "checkpoint landed at the end");

        // Kill-and-resume at the checkpoint, once sequential and once on
        // the pool: fresh process state, seeked reader, restored cache.
        let resume = |jobs: usize| {
            pool::set_jobs(jobs);
            let mut reader =
                StreamReader::new(std::io::Cursor::new(&bytes[..]), opts).expect("opens");
            reader.seek_to_chunk(cursor.chunk).expect("seeks");
            assert_eq!(
                reader.identity(),
                mid_identity,
                "seek reconstructed a different trace identity"
            );
            let mut cache = CntCache::new(config.clone()).expect("valid");
            cache.restore_state(&state).expect("restores");
            let outcome =
                replay_stream_resumable(&mut cache, &mut reader, Some(cursor.clone()), None, None)
                    .expect("resumes");
            cache.flush();
            (outcome, cache.into_report(), reader.identity())
        };
        let seq = resume(1);
        let par = resume(4);
        pool::set_jobs(pool::default_jobs());
        assert_eq!(seq.0, control, "resumed ingest/accesses diverged");
        assert_eq!(seq.1, control_report, "resumed report diverged");
        assert_eq!(seq.2, control_identity, "resumed identity diverged");
        assert_eq!(seq, par, "resume is jobs-sensitive");
    }

    #[test]
    fn cancel_token_aborts_with_progress_and_pre_set_token_replays_nothing() {
        let trace = sample_trace(2_000);
        let bytes = packed(&trace, 64);
        let opts = ReadOptions {
            budget_bytes: 1024,
            corruption: CorruptionPolicy::FailFast,
        };
        let config = dcache_config("L1D", EncodingPolicy::adaptive_default());

        // A token cancelled before the replay starts stops it at the very
        // first check, with zero progress consumed.
        let token = CancelToken::new();
        token.cancel();
        let mut reader = StreamReader::new(&bytes[..], opts).expect("opens");
        let mut cache = CntCache::new(config.clone()).expect("valid");
        let err = replay_stream_resumable(&mut cache, &mut reader, None, None, Some(&token))
            .expect_err("cancelled");
        assert!(
            matches!(
                err,
                StreamError::Cancelled {
                    chunk: 0,
                    accesses: 0
                }
            ),
            "expected zero-progress cancellation, got {err}"
        );

        // Cancelling from the checkpoint hook (a deterministic mid-replay
        // point) aborts with partial progress.
        let token = CancelToken::new();
        let hook_token = token.clone();
        let mut hook = move |_: &CntCache, _: &ReplayCursor, _: u64| {
            hook_token.cancel();
            Ok(())
        };
        let mut reader = StreamReader::new(&bytes[..], opts).expect("opens");
        let mut cache = CntCache::new(config).expect("valid");
        let err = replay_stream_resumable(
            &mut cache,
            &mut reader,
            None,
            Some(CheckpointEvery {
                chunks: 4,
                write: &mut hook,
            }),
            Some(&token),
        )
        .expect_err("cancelled");
        match err {
            StreamError::Cancelled { chunk, accesses } => {
                assert!(chunk > 0, "cancellation observed before any progress");
                assert!(accesses > 0 && accesses < 2_000, "partial progress");
            }
            other => panic!("expected cancellation, got {other}"),
        }
    }

    #[test]
    fn parallel_and_sequential_streams_are_identical() {
        let trace = sample_trace(3_000);
        let bytes = packed(&trace, 64);
        let replay = |jobs: usize| {
            pool::set_jobs(jobs);
            let mut reader = StreamReader::new(
                &bytes[..],
                ReadOptions {
                    budget_bytes: 2 * 1024,
                    corruption: CorruptionPolicy::FailFast,
                },
            )
            .expect("opens");
            let mut cache = CntCache::new(dcache_config("L1D", EncodingPolicy::adaptive_default()))
                .expect("valid");
            let outcome = replay_stream(&mut cache, &mut reader).expect("streams");
            cache.flush();
            (outcome, cache.into_report())
        };
        let seq = replay(1);
        let par = replay(4);
        pool::set_jobs(pool::default_jobs());
        assert_eq!(seq, par);
    }
}
