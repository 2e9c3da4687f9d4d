//! The shared two-pass stream-replay driver.
//!
//! `tracegen stream-replay` and the `cnt-serve` replay server must
//! produce **byte-identical** observability streams for the same trace
//! and configuration — that is the determinism bar that makes a served
//! session auditable against an offline run. Rather than asking two
//! copies of the pass logic to stay in lock-step forever, both front
//! ends call this one driver: open the trace, replay it under the
//! baseline config (pass 0), replay it again under the adaptive CNT
//! config (pass 1), with optional periodic checkpoints, resume, and
//! cooperative cancellation threaded straight through to
//! [`replay_stream_resumable`].
//!
//! The driver deliberately does **not** install metrics sinks or burn
//! replay ids: the caller owns observability setup (the offline CLI
//! installs one sink for the run, the server one per session thread —
//! see `cnt_obs::sink`) and applies [`restore_resume_obs`] before a
//! resumed run. Everything after that point is common code.

use std::io::BufReader;
use std::path::{Path, PathBuf};

use cnt_cache::{CntCache, CntCacheConfig, EncodingPolicy};
use cnt_trace::{
    CheckpointError, CheckpointFile, CheckpointRotator, ReadOptions, StreamReader, TraceError,
};

use crate::ckpt::{self, DriverState, ObsState};
use crate::runner::dcache_config;
use crate::stream::{
    replay_stream_resumable, CancelToken, CheckpointEvery, ReplayCursor, StreamError, StreamOutcome,
};

/// Where one session's periodic checkpoints land. The two layouts in
/// the tree are [`SingleFileStore`] (atomic overwrite-in-place, the
/// original `tracegen` behaviour) and the generation-rotated family of
/// [`cnt_trace::CheckpointRotator`].
pub trait CheckpointStore {
    /// Persists one complete checkpoint. An error aborts the replay.
    fn store(&mut self, file: &CheckpointFile) -> Result<(), CheckpointError>;
}

/// Single-file checkpoint layout: every write atomically replaces the
/// same path, so exactly the latest checkpoint exists.
pub struct SingleFileStore(pub PathBuf);

impl CheckpointStore for SingleFileStore {
    fn store(&mut self, file: &CheckpointFile) -> Result<(), CheckpointError> {
        file.write_atomic(&self.0)
    }
}

impl CheckpointStore for CheckpointRotator {
    fn store(&mut self, file: &CheckpointFile) -> Result<(), CheckpointError> {
        self.write(file).map(|_| ())
    }
}

/// Periodic-checkpoint policy for one [`run_two_pass`] call.
pub struct CheckpointPlan<'a> {
    /// Minimum chunks between checkpoint writes (window-boundary
    /// aligned, see [`CheckpointEvery`]).
    pub every: u64,
    /// Where the checkpoints go.
    pub store: &'a mut dyn CheckpointStore,
}

/// One session's complete replay plan.
pub struct SessionPlan<'a> {
    /// The `.ctr` trace to replay.
    pub input: &'a Path,
    /// Reader budget and corruption policy (both passes).
    pub opts: ReadOptions,
    /// Pass-0 (baseline) cache configuration.
    pub base_cfg: &'a CntCacheConfig,
    /// Pass-1 (adaptive CNT) cache configuration.
    pub cnt_cfg: &'a CntCacheConfig,
    /// The metrics epoch length the caller installed a sink with, or
    /// `None` for an unobserved replay. Only recorded into checkpoint
    /// driver state — the sink itself is the caller's, and
    /// [`run_two_pass`] asserts the two agree.
    pub metrics_every: Option<u64>,
    /// Periodic checkpointing, if any.
    pub checkpoint: Option<CheckpointPlan<'a>>,
    /// Cooperative cancellation, if the session can be torn down from
    /// outside (server sessions always pass one).
    pub cancel: Option<&'a CancelToken>,
}

/// A validated checkpoint to resume from, as returned by
/// [`ckpt::load`]. The caller has already checked the config
/// fingerprint and restored observability state.
pub struct ResumeState {
    /// The checkpoint file (cache state + manifest).
    pub file: CheckpointFile,
    /// The driver section: pass, baseline outcome, cursor.
    pub driver: DriverState,
}

/// Both passes' outcomes.
pub struct TwoPassOutcome {
    /// Pass 0 — the baseline (no-encoding) replay.
    pub base: StreamOutcome,
    /// Pass 1 — the adaptive CNT replay.
    pub cnt: StreamOutcome,
}

/// A two-pass driver failure.
#[derive(Debug)]
pub enum DriverError {
    /// The replay itself failed (I/O, corruption, simulation,
    /// checkpoint write, cancellation) on `path`.
    Replay {
        /// The trace being replayed.
        path: PathBuf,
        /// What went wrong.
        error: StreamError,
    },
    /// The resume state is unusable for this plan (wrong pass number,
    /// missing baseline outcome).
    Resume(String),
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::Replay { path, error } => {
                write!(f, "`{}`: {error}", path.display())
            }
            DriverError::Resume(what) => write!(f, "resume: {what}"),
        }
    }
}

impl std::error::Error for DriverError {}

impl DriverError {
    /// The replay cancellation inside, if that is what this error is.
    #[must_use]
    pub fn as_cancelled(&self) -> Option<(u64, u64)> {
        match self {
            DriverError::Replay {
                error: StreamError::Cancelled { chunk, accesses },
                ..
            } => Some((*chunk, *accesses)),
            _ => None,
        }
    }
}

/// The canonical stream-replay configuration pair: the paper's D-Cache
/// geometry, baseline (no encoding) and adaptive CNT. Every front end
/// replaying a served or offline `.ctr` session uses exactly this pair;
/// its [`ckpt::pair_fingerprint`] binds checkpoints to it.
#[must_use]
pub fn stream_config_pair() -> (CntCacheConfig, CntCacheConfig) {
    (
        dcache_config("L1D", EncodingPolicy::None),
        dcache_config("L1D", EncodingPolicy::adaptive_default()),
    )
}

/// Applies a loaded checkpoint's observability state before a resumed
/// run: restores the pre-kill counters and snapshots into the installed
/// sink (see [`ckpt::restore_obs`]) and burns the replay ids the
/// interrupted process already allocated, so later fresh passes get the
/// same deterministic names as in an uninterrupted run.
pub fn restore_resume_obs(driver: &DriverState, obs: ObsState) {
    ckpt::restore_obs(obs);
    for _ in 0..driver.replay_ids_allocated {
        let _ = cnt_obs::next_replay_path();
    }
}

/// Runs the two-pass comparison described by `plan`, optionally
/// resuming pass 0 or pass 1 from `resume`.
///
/// The caller must have installed its metrics sink (matching
/// `plan.metrics_every`) and, when resuming, already applied
/// [`restore_resume_obs`] — this function only replays.
///
/// # Errors
///
/// [`DriverError::Replay`] for any stream/simulation/checkpoint/
/// cancellation failure; [`DriverError::Resume`] when the checkpoint's
/// driver state cannot drive this plan.
///
/// # Panics
///
/// Panics if `plan.metrics_every` is not the installed sink's epoch
/// length ([`cnt_obs::epoch_len`]): checkpoints would record an epoch
/// the stream does not use.
pub fn run_two_pass(
    plan: SessionPlan<'_>,
    resume: Option<&ResumeState>,
) -> Result<TwoPassOutcome, DriverError> {
    let SessionPlan {
        input,
        opts,
        base_cfg,
        cnt_cfg,
        metrics_every,
        mut checkpoint,
        cancel,
    } = plan;
    assert_eq!(
        metrics_every,
        cnt_obs::epoch_len(),
        "plan.metrics_every must match the installed metrics sink"
    );
    let pair = (base_cfg, cnt_cfg);

    let mut one_pass = |config: &CntCacheConfig,
                        pass: u32,
                        baseline: Option<&StreamOutcome>,
                        resume_at: Option<(&CheckpointFile, &ReplayCursor)>|
     -> Result<StreamOutcome, DriverError> {
        let fail = |error: StreamError| DriverError::Replay {
            path: input.to_path_buf(),
            error,
        };
        let file = std::fs::File::open(input).map_err(|e| fail(TraceError::from(e).into()))?;
        let mut reader =
            StreamReader::new(BufReader::new(file), opts).map_err(|e| fail(e.into()))?;
        let mut cache =
            CntCache::new(config.clone()).expect("stream-replay configuration is valid");

        let cursor = if let Some((ckfile, cursor)) = resume_at {
            reader
                .seek_to_chunk(cursor.chunk)
                .map_err(|e| fail(e.into()))?;
            ckpt::verify_trace_identity(ckfile.manifest.trace_identity, reader.identity())
                .map_err(|e| fail(e.into()))?;
            ckfile
                .restore_component(&mut cache)
                .map_err(|e| fail(e.into()))?;
            Some(cursor.clone())
        } else {
            None
        };

        let every = checkpoint.as_ref().map(|ck| ck.every);
        let mut hook = |cache: &CntCache, state: &ReplayCursor, identity: u64| {
            let ck = checkpoint
                .as_mut()
                .expect("hook installed only with a checkpoint plan");
            let driver = DriverState {
                pass,
                baseline: baseline.cloned(),
                cursor: state.clone(),
                replay_ids_allocated: if metrics_every.is_some() {
                    u64::from(pass) + 1
                } else {
                    0
                },
                metrics_every,
            };
            ck.store
                .store(&ckpt::build(cache, pair, identity, &driver)?)
        };
        let periodic = every.map(|chunks| CheckpointEvery {
            chunks,
            write: &mut hook,
        });

        let (ingest, accesses) =
            replay_stream_resumable(&mut cache, &mut reader, cursor, periodic, cancel)
                .map_err(fail)?;
        cache.flush();
        Ok(StreamOutcome {
            report: cache.into_report(),
            ingest,
            accesses,
        })
    };

    match resume {
        Some(state) if state.driver.pass == 0 => {
            let base = one_pass(base_cfg, 0, None, Some((&state.file, &state.driver.cursor)))?;
            let cnt = one_pass(cnt_cfg, 1, Some(&base), None)?;
            Ok(TwoPassOutcome { base, cnt })
        }
        Some(state) if state.driver.pass == 1 => {
            let base = state.driver.baseline.clone().ok_or_else(|| {
                DriverError::Resume("pass-1 checkpoint lacks the baseline outcome".into())
            })?;
            let cnt = one_pass(
                cnt_cfg,
                1,
                Some(&base),
                Some((&state.file, &state.driver.cursor)),
            )?;
            Ok(TwoPassOutcome { base, cnt })
        }
        Some(state) => Err(DriverError::Resume(format!(
            "checkpoint records unknown pass {}",
            state.driver.pass
        ))),
        None => {
            let base = one_pass(base_cfg, 0, None, None)?;
            let cnt = one_pass(cnt_cfg, 1, Some(&base), None)?;
            Ok(TwoPassOutcome { base, cnt })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "plan.metrics_every must match the installed metrics sink")]
    fn plan_epoch_must_match_the_installed_sink() {
        let _guard = cnt_obs::install_local(5_000, None);
        let (base_cfg, cnt_cfg) = stream_config_pair();
        let plan = SessionPlan {
            input: Path::new("unread.ctr"),
            opts: ReadOptions::default(),
            base_cfg: &base_cfg,
            cnt_cfg: &cnt_cfg,
            metrics_every: Some(1_000),
            checkpoint: None,
            cancel: None,
        };
        let _ = run_two_pass(plan, None);
    }
}
