//! Whole-run checkpoint assembly for the stream-replay driver.
//!
//! A `.ctrs` file written here captures everything the `tracegen
//! stream-replay` two-pass comparison needs to resume after a kill:
//!
//! * `cache` — the in-flight pass's full simulator state, via
//!   [`cnt_cache::CntCache`]'s `Checkpointable` impl (lines, D/H
//!   metadata with protection check bits, predictor state, the deferred
//!   update FIFO, replacement state, statistics, and the energy
//!   accumulators);
//! * `obs` — the installed sink's metrics registry plus every snapshot
//!   it already recorded, so a resumed metrics stream and its counters
//!   continue instead of resetting;
//! * `driver` — which pass was running, the completed baseline outcome
//!   (if any), and the mid-pass [`ReplayCursor`].
//!
//! The manifest binds the file to its experiment: the paired config
//! fingerprint (both passes), the in-flight config's shape fingerprint
//! (for warm-fork sweeps), the trace-identity digest at the cursor, and
//! the cursor itself. [`load`] refuses — with a typed
//! [`CheckpointError`] and before any state is touched — any file whose
//! structure, CRCs, or config fingerprint disagree; the trace identity
//! is checked by the caller once its reader has seeked to the cursor.

use std::path::Path;

use cnt_cache::{CntCache, CntCacheConfig};
use cnt_obs::{MetricValue, Snapshot};
use cnt_trace::{fnv1a_extend, CheckpointError, CheckpointFile, CheckpointManifest, FNV_OFFSET};
use serde::{Deserialize, Serialize};

use crate::stream::{ReplayCursor, StreamOutcome};

/// Section carrying the observability state.
pub const SECTION_OBS: &str = "obs";
/// Section carrying the two-pass driver state.
pub const SECTION_DRIVER: &str = "driver";

/// Checkpointed observability state: the registry export plus every
/// snapshot recorded to the sink so far.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ObsState {
    /// Registry export, in registration order.
    pub metrics: Vec<(String, MetricValue)>,
    /// Recorded snapshots, sorted by (experiment, epoch).
    pub snapshots: Vec<Snapshot>,
}

/// Captures the observability state of the sink the calling thread
/// records into: its registry export and a sorted copy of its
/// snapshots. Each sink owns its registry, so a `cnt-serve` session's
/// checkpoint holds that session's counters and no other tenant's.
/// Empty when no sink is installed.
#[must_use]
pub fn capture_obs() -> ObsState {
    cnt_obs::installed()
        .map(|sink| ObsState {
            metrics: sink.registry().export(),
            snapshots: sink.snapshots(),
        })
        .unwrap_or_default()
}

/// Restores checkpointed observability state into the calling thread's
/// sink, so resumed counters continue from their checkpointed values and
/// the final JSONL stream contains the pre-kill epochs. Call after
/// `cnt_obs::install_local` and before restarting any replay; with no
/// sink installed the state is dropped, like any count.
pub fn restore_obs(state: ObsState) {
    if let Some(sink) = cnt_obs::installed() {
        sink.registry().restore(&state.metrics);
        sink.extend(state.snapshots);
    }
}

/// The stream-replay driver's own state across its two passes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DriverState {
    /// Pass in flight when the checkpoint was taken: 0 = baseline,
    /// 1 = CNT (adaptive).
    pub pass: u32,
    /// The completed baseline outcome (present once `pass == 1`).
    pub baseline: Option<StreamOutcome>,
    /// Mid-pass replay cursor.
    pub cursor: ReplayCursor,
    /// Deterministic replay ids allocated before the checkpoint. A
    /// resumed process adopts the in-flight id from the cursor, so it
    /// must burn this many ids up front for later fresh replays to get
    /// the same names as in the uninterrupted run.
    pub replay_ids_allocated: u64,
    /// The metrics epoch length the run was started with; a resume must
    /// use the same value (or none, matching).
    pub metrics_every: Option<u64>,
}

/// Folds the two per-pass config fingerprints into the manifest's single
/// `config_fingerprint` slot.
#[must_use]
pub fn pair_fingerprint(first: u64, second: u64) -> u64 {
    fnv1a_extend(
        fnv1a_extend(FNV_OFFSET, &first.to_le_bytes()),
        &second.to_le_bytes(),
    )
}

fn encode_json<T: Serialize>(section: &str, value: &T) -> Result<Vec<u8>, CheckpointError> {
    serde_json::to_string(value)
        .map(String::into_bytes)
        .map_err(|e| CheckpointError::BadState {
            section: section.to_string(),
            what: e.to_string(),
        })
}

fn decode_json<T: Deserialize>(section: &str, bytes: &[u8]) -> Result<T, CheckpointError> {
    let text = std::str::from_utf8(bytes).map_err(|e| CheckpointError::BadState {
        section: section.to_string(),
        what: format!("payload is not UTF-8: {e}"),
    })?;
    serde_json::from_str(text).map_err(|e| CheckpointError::BadState {
        section: section.to_string(),
        what: e.to_string(),
    })
}

/// Assembles the complete `.ctrs` for one stream-replay checkpoint.
/// `configs` is the (baseline, CNT) pass pair; `trace_identity` is the
/// reader's digest at the cursor.
///
/// # Errors
///
/// [`CheckpointError::BadState`] if any component fails to serialize.
pub fn build(
    cache: &CntCache,
    configs: (&CntCacheConfig, &CntCacheConfig),
    trace_identity: u64,
    driver: &DriverState,
) -> Result<CheckpointFile, CheckpointError> {
    let manifest = CheckpointManifest {
        config_fingerprint: pair_fingerprint(configs.0.fingerprint(), configs.1.fingerprint()),
        shape_fingerprint: cache.config().shape_fingerprint(),
        trace_identity,
        resume_cursor: driver.cursor.chunk,
        accesses: driver.cursor.accesses,
    };
    let mut file = CheckpointFile::new(manifest);
    file.add_component(cache)?;
    file.add_section(SECTION_OBS, encode_json(SECTION_OBS, &capture_obs())?);
    file.add_section(SECTION_DRIVER, encode_json(SECTION_DRIVER, driver)?);
    Ok(file)
}

/// Reads and validates a stream-replay `.ctrs`: structure and CRCs (via
/// [`CheckpointFile::read`]), the paired config fingerprint, and the
/// internal consistency of the driver section against the manifest.
/// Nothing is restored yet — the caller applies the returned state only
/// after the trace identity also checks out.
///
/// # Errors
///
/// Every rejection is a typed [`CheckpointError`]; no partially-valid
/// state is ever returned.
pub fn load(
    path: &Path,
    expected_config: u64,
) -> Result<(CheckpointFile, DriverState, ObsState), CheckpointError> {
    let file = CheckpointFile::read(path)?;
    if file.manifest.config_fingerprint != expected_config {
        return Err(CheckpointError::ConfigMismatch {
            expected: expected_config,
            found: file.manifest.config_fingerprint,
        });
    }
    let driver = decode_driver(&file)?;
    let obs: ObsState = decode_json(SECTION_OBS, file.require(SECTION_OBS)?)?;
    Ok((file, driver, obs))
}

/// Reads a `.ctrs` for warm-forking: validates structure, CRCs, and the
/// driver section's internal consistency, but **not** the exact config
/// pair — a fork intentionally varies non-shape knobs. Callers gate on
/// `manifest.shape_fingerprint` against each fork's configuration
/// instead, and still verify the trace identity after seeking.
///
/// # Errors
///
/// As [`load`], minus [`CheckpointError::ConfigMismatch`].
pub fn load_for_fork(path: &Path) -> Result<(CheckpointFile, DriverState), CheckpointError> {
    let file = CheckpointFile::read(path)?;
    let driver = decode_driver(&file)?;
    Ok((file, driver))
}

fn decode_driver(file: &CheckpointFile) -> Result<DriverState, CheckpointError> {
    let driver: DriverState = decode_json(SECTION_DRIVER, file.require(SECTION_DRIVER)?)?;
    if driver.cursor.chunk != file.manifest.resume_cursor
        || driver.cursor.accesses != file.manifest.accesses
    {
        return Err(CheckpointError::BadState {
            section: SECTION_DRIVER.to_string(),
            what: format!(
                "driver cursor (chunk {}, {} accesses) disagrees with the manifest \
                 (chunk {}, {} accesses)",
                driver.cursor.chunk,
                driver.cursor.accesses,
                file.manifest.resume_cursor,
                file.manifest.accesses
            ),
        });
    }
    Ok(driver)
}

/// Checks the reader's trace-identity digest (after seeking to the
/// cursor) against the checkpoint's.
///
/// # Errors
///
/// [`CheckpointError::TraceMismatch`] when they differ — the `.ctr` on
/// disk is not the trace the checkpoint was taken over.
pub fn verify_trace_identity(
    manifest_identity: u64,
    reader_identity: u64,
) -> Result<(), CheckpointError> {
    if manifest_identity == reader_identity {
        Ok(())
    } else {
        Err(CheckpointError::TraceMismatch {
            expected: reader_identity,
            found: manifest_identity,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnt_cache::EncodingPolicy;

    fn dcache(policy: EncodingPolicy) -> CntCacheConfig {
        crate::runner::dcache_config("L1D", policy)
    }

    #[test]
    fn build_load_round_trip() {
        let base = dcache(EncodingPolicy::None);
        let cnt = dcache(EncodingPolicy::adaptive_default());
        let cache = CntCache::new(cnt.clone()).expect("valid");
        let driver = DriverState {
            pass: 1,
            baseline: None,
            cursor: ReplayCursor {
                chunk: 7,
                accesses: 700,
                ..ReplayCursor::default()
            },
            replay_ids_allocated: 2,
            metrics_every: Some(100),
        };
        let file = build(&cache, (&base, &cnt), 0xABCD, &driver).expect("builds");
        let bytes = file.to_bytes();

        let dir = std::env::temp_dir().join("cnt_ckpt_round_trip");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("trip.ctrs");
        file.write_atomic(&path).expect("writes");
        assert_eq!(std::fs::read(&path).expect("reads back"), bytes);

        let expected = pair_fingerprint(base.fingerprint(), cnt.fingerprint());
        let (loaded, driver2, _obs) = load(&path, expected).expect("loads");
        assert_eq!(loaded.manifest.trace_identity, 0xABCD);
        assert_eq!(loaded.manifest.resume_cursor, 7);
        assert_eq!(driver2.pass, 1);
        assert_eq!(driver2.cursor.accesses, 700);
        verify_trace_identity(loaded.manifest.trace_identity, 0xABCD).expect("same trace");
        assert!(matches!(
            verify_trace_identity(loaded.manifest.trace_identity, 0xDCBA),
            Err(CheckpointError::TraceMismatch { .. })
        ));

        // The wrong config pair is refused before anything decodes.
        assert!(matches!(
            load(
                &path,
                pair_fingerprint(cnt.fingerprint(), base.fingerprint())
            ),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }
}
