//! Epoch snapshots of replay state.
//!
//! A [`Snapshot`] is a point-in-time capture of everything a replay
//! accumulates — per-level hit/miss statistics, the energy-breakdown
//! accumulators, encoding/predictor decision counters, and deferred
//! update FIFO occupancy — tagged with the replay's deterministic id and
//! epoch number so interleaved parallel emission can be reordered at the
//! sink (see [`crate::sink`]).

use std::borrow::Borrow;

use serde::{Deserialize, Serialize};

use cnt_cache::{
    CntCache, CntHierarchy, EncodingCounters, EncodingLane, EpochClock, EpochHook, LaneGroup,
    ReliabilityCounters,
};
use cnt_encoding::FifoStats;
use cnt_energy::{ChargeKind, EnergyBreakdown};
use cnt_sim::trace::{AccessBatch, MemoryAccess};
use cnt_sim::{AccessError, CacheStats};

use crate::{scope, sink};

/// Deferred-update FIFO occupancy at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FifoSnapshot {
    /// Updates queued right now.
    pub len: u64,
    /// Queue capacity.
    pub capacity: u64,
    /// Cumulative push/drain/cancel/drop counters.
    pub stats: FifoStats,
}

/// Chunk-ingest counters for replays fed from a streamed `.ctr` trace
/// (see `cnt-trace` and `cnt_bench::stream`). All zero / absent for
/// in-memory replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct IngestSnapshot {
    /// Intact chunks read from the source so far.
    pub chunks_read: u64,
    /// Chunks fully fed to the simulator so far.
    pub chunks_consumed: u64,
    /// Damaged chunks stepped over (skip-with-report policy).
    pub chunks_skipped: u64,
    /// CRC32 mismatches seen.
    pub crc_failures: u64,
    /// Payload-shape decode failures seen.
    pub decode_failures: u64,
    /// Payload bytes read from the source (including skipped chunks).
    pub bytes_read: u64,
    /// Payload bytes decoded into access records.
    pub bytes_decoded: u64,
    /// Chunks sitting decoded-but-unconsumed in the prefetch window.
    pub prefetch_buffered: u64,
    /// High-water mark of buffered payload bytes — must stay within the
    /// reader's configured budget.
    pub peak_buffered_bytes: u64,
}

/// Everything one cache level has accumulated so far.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LevelSnapshot {
    /// Level name from the cache config (e.g. `L1D`).
    pub level: String,
    /// Hit/miss/write statistics.
    pub stats: CacheStats,
    /// Per-charge-kind energy accumulators.
    pub energy: EnergyBreakdown,
    /// Energy spent in this epoch alone: `energy` minus the previous
    /// epoch's `energy` (equal to `energy` at epoch 0). Filled by
    /// [`DeltaTracker`]; [`validate_jsonl`] checks that a replay's deltas
    /// sum to its `energy`.
    pub energy_delta: EnergyBreakdown,
    /// Predictor windows, flips taken/rejected, projected vs realized
    /// savings.
    pub encoding: EncodingCounters,
    /// Deferred-update FIFO occupancy and overflow stats.
    pub fifo: FifoSnapshot,
    /// Metadata-protection and fault-handling activity (all zero unless
    /// the level protects its direction bits or a campaign injects
    /// faults).
    pub reliability: ReliabilityCounters,
}

impl LevelSnapshot {
    /// Captures one cache level.
    pub fn capture(cache: &CntCache) -> Self {
        LevelSnapshot::of_lane(cache.stats(), cache.lane())
    }

    /// Captures one encoding lane over its simulated cache's `stats`:
    /// the lane's report plus its FIFO occupancy.
    pub fn of_lane(stats: &CacheStats, lane: &EncodingLane) -> Self {
        let report = lane.report(stats.clone());
        LevelSnapshot {
            level: report.name,
            stats: report.stats,
            energy: report.breakdown.clone(),
            // Delta-from-zero until a DeltaTracker refines it.
            energy_delta: report.breakdown,
            encoding: report.encoding,
            fifo: FifoSnapshot {
                len: lane.fifo_len() as u64,
                capacity: lane.fifo_capacity() as u64,
                stats: report.fifo,
            },
            reliability: report.reliability,
        }
    }
}

/// One epoch snapshot of a replay, as emitted on the JSONL stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Deterministic replay id, e.g. `fig9/i0003/r0000` (see
    /// [`crate::scope`]).
    pub experiment: String,
    /// Zero-based epoch index within the replay.
    pub epoch: u64,
    /// Accesses replayed so far (cumulative, not per-epoch).
    pub accesses: u64,
    /// One entry per cache level.
    pub levels: Vec<LevelSnapshot>,
    /// Chunk-ingest counters when the replay streams a `.ctr` trace;
    /// `None` (JSON `null`) for in-memory replays.
    pub ingest: Option<IngestSnapshot>,
}

/// A replayable simulator whose state a [`Snapshot`] captures, one
/// [`LevelSnapshot`] per cache level.
pub trait Capture {
    /// Captures every level, innermost first.
    fn levels(&self) -> Vec<LevelSnapshot>;
}

impl Capture for CntCache {
    fn levels(&self) -> Vec<LevelSnapshot> {
        vec![LevelSnapshot::capture(self)]
    }
}

/// One lane of a [`LaneGroup`], captured as a single-level replay.
struct Lane<'a>(&'a CacheStats, &'a EncodingLane);

impl Capture for Lane<'_> {
    fn levels(&self) -> Vec<LevelSnapshot> {
        vec![LevelSnapshot::of_lane(self.0, self.1)]
    }
}

impl Capture for CntHierarchy {
    /// L1I, L1D, and the L2 when present.
    fn levels(&self) -> Vec<LevelSnapshot> {
        let mut levels = vec![
            LevelSnapshot::capture(self.l1i()),
            LevelSnapshot::capture(self.l1d()),
        ];
        if let Some(l2) = self.l2() {
            levels.push(LevelSnapshot::capture(l2));
        }
        levels
    }
}

impl Snapshot {
    /// Captures every level of a replay.
    pub fn capture<S: Capture + ?Sized>(
        sim: &S,
        experiment: &str,
        epoch: u64,
        accesses: u64,
    ) -> Self {
        Snapshot {
            experiment: experiment.to_string(),
            epoch,
            accesses,
            levels: sim.levels(),
            ingest: None,
        }
    }

    /// A snapshot with no levels — only useful as a sink-test fixture.
    pub fn empty(experiment: &str, epoch: u64, accesses: u64) -> Self {
        Snapshot {
            experiment: experiment.to_string(),
            epoch,
            accesses,
            levels: Vec::new(),
            ingest: None,
        }
    }
}

/// Rewrites each level's `energy_delta` from cumulative to per-epoch by
/// remembering the previous epoch's accumulators, per level index.
///
/// One tracker per replay: feed it every snapshot of that replay in
/// epoch order (exactly how [`Emitter`] calls it).
///
/// # Example
///
/// ```
/// use cnt_obs::DeltaTracker;
/// # use cnt_obs::Snapshot;
/// let mut deltas = DeltaTracker::new();
/// let mut snapshot = Snapshot::empty("demo", 0, 0);
/// deltas.apply(&mut snapshot); // epoch 0: delta == cumulative
/// ```
#[derive(Debug, Default)]
pub struct DeltaTracker {
    prev: Vec<EnergyBreakdown>,
}

impl DeltaTracker {
    /// A tracker with no history (first epoch's delta = cumulative).
    pub fn new() -> Self {
        DeltaTracker::default()
    }

    /// A tracker resuming from the per-level cumulative accumulators of
    /// the last emitted epoch — what [`state`](Self::state) returned when
    /// the run was checkpointed. A resumed replay's next delta is then
    /// computed against the correct previous epoch instead of zero.
    pub fn seeded(prev: Vec<EnergyBreakdown>) -> Self {
        DeltaTracker { prev }
    }

    /// The per-level cumulative accumulators of the last applied epoch
    /// (what a checkpoint must save to [`seeded`](Self::seeded) later).
    pub fn state(&self) -> &[EnergyBreakdown] {
        &self.prev
    }

    /// Rewrites `energy_delta` on every level of `snapshot` and records
    /// the cumulative values for the next epoch.
    pub fn apply(&mut self, snapshot: &mut Snapshot) {
        for (i, level) in snapshot.levels.iter_mut().enumerate() {
            let cumulative = level.energy.clone();
            level.energy_delta = match self.prev.get(i) {
                Some(prev) => cumulative.clone() - prev.clone(),
                None => cumulative.clone(),
            };
            if i < self.prev.len() {
                self.prev[i] = cumulative;
            } else {
                self.prev.push(cumulative);
            }
        }
    }
}

/// One observed replay's emission state: its deterministic id and its
/// energy-delta tracker. Every emitter — in-memory, hierarchy, and
/// streamed replays — records its snapshots through [`Emitter::emit`].
#[derive(Debug)]
pub struct Emitter {
    /// The replay id.
    pub experiment: String,
    /// Per-epoch energy deltas; a checkpoint saves its
    /// [`state`](DeltaTracker::state) to resume it.
    pub deltas: DeltaTracker,
}

impl Emitter {
    /// Starts a fresh observed replay: allocates the next replay id and
    /// counts the replay under the registry counter `counter`.
    pub fn start(counter: &str) -> Self {
        sink::count(counter, 1);
        Emitter {
            experiment: scope::next_replay_path(),
            deltas: DeltaTracker::new(),
        }
    }

    /// Captures `sim` at the end of `epoch`, rewrites its per-epoch
    /// energy deltas, and records it.
    pub fn emit<S: Capture + ?Sized>(
        &mut self,
        sim: &S,
        epoch: u64,
        accesses: u64,
        ingest: Option<IngestSnapshot>,
    ) {
        let mut snapshot = Snapshot::capture(sim, &self.experiment, epoch, accesses);
        snapshot.ingest = ingest;
        self.deltas.apply(&mut snapshot);
        sink::record(snapshot);
    }
}

/// Replays through `run(sim, clock, hook)` — a simulator's
/// `run_observed` entry — emitting one snapshot per epoch when a sink is
/// installed. With none, `run` gets no hook: one thread-local read is
/// all tracing adds, and the hot path stays allocation-free (see
/// `tests/no_alloc_disabled.rs`).
fn observe<S, F>(sim: &mut S, counter: &str, run: F) -> Result<usize, AccessError>
where
    S: Capture,
    F: FnOnce(&mut S, &mut EpochClock, Option<EpochHook<'_, S>>) -> Result<usize, AccessError>,
{
    let Some(every) = sink::epoch_len() else {
        return run(sim, &mut EpochClock::default(), None);
    };
    let mut emitter = Emitter::start(counter);
    let mut clock = EpochClock::new(every);
    let mut hook = |sim: &S, epoch, accesses| emitter.emit(sim, epoch, accesses, None);
    let replayed = run(sim, &mut clock, Some(&mut hook))?;
    clock.close(sim, &mut hook);
    Ok(replayed)
}

/// Replays `trace` — records, or a batch's `iter()` — through `cache`,
/// emitting one snapshot per epoch to this thread's sink.
///
/// # Errors
///
/// Propagates [`AccessError`] from the underlying replay.
pub fn replay<I>(cache: &mut CntCache, trace: I) -> Result<usize, AccessError>
where
    I: IntoIterator,
    I::Item: Borrow<MemoryAccess>,
{
    observe(cache, "obs.replays_observed", |cache, clock, hook| {
        cache.run_observed(trace, clock, hook)
    })
}

/// Starts one [`Emitter`] per lane of a `lanes`-lane [`LaneGroup`] when
/// a sink is installed, and none otherwise. Lane `k` gets the replay id
/// (and the `obs.replays_observed` count) the `k`-th of `lanes`
/// back-to-back [`replay`]s in this scope would, so a group's lanes name
/// their streams exactly as solo replays of their configurations do.
pub fn lane_emitters(lanes: usize) -> Vec<Emitter> {
    if sink::epoch_len().is_none() {
        return Vec::new();
    }
    (0..lanes)
        .map(|_| Emitter::start("obs.replays_observed"))
        .collect()
}

/// [`replay`] through every lane of `group` at once: `emitters[k]`
/// records lane `k`'s snapshots, which equal those a solo [`replay`] of
/// that lane's configuration emits. With no emitters (no sink installed)
/// the group replays with no hook.
///
/// # Errors
///
/// Propagates [`AccessError`] from the underlying replay.
pub fn replay_lanes<I>(
    group: &mut LaneGroup,
    trace: I,
    emitters: &mut [Emitter],
) -> Result<usize, AccessError>
where
    I: IntoIterator,
    I::Item: Borrow<MemoryAccess>,
{
    let every = match sink::epoch_len() {
        Some(every) if !emitters.is_empty() => every,
        _ => return group.run_observed(trace, &mut EpochClock::default(), None),
    };
    let mut clock = EpochClock::new(every);
    let mut hook = |group: &LaneGroup, epoch, accesses| {
        for (emitter, lane) in emitters.iter_mut().zip(group.lanes()) {
            emitter.emit(&Lane(group.stats(), lane), epoch, accesses, None);
        }
    };
    let replayed = group.run_observed(trace, &mut clock, Some(&mut hook))?;
    clock.close(group, &mut hook);
    Ok(replayed)
}

/// [`replay`] through a full hierarchy, one multi-level snapshot per
/// epoch — used by the placement study.
///
/// # Errors
///
/// Propagates [`AccessError`] from the underlying replay.
pub fn replay_hierarchy(
    hierarchy: &mut CntHierarchy,
    trace: &AccessBatch,
) -> Result<usize, AccessError> {
    observe(
        hierarchy,
        "obs.hierarchy_replays_observed",
        |hierarchy, clock, hook| hierarchy.run_observed(trace.iter(), clock, hook),
    )
}

/// A summary of a validated JSONL metrics stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonlSummary {
    /// Total snapshot lines.
    pub snapshots: usize,
    /// Distinct experiment ids.
    pub experiments: usize,
}

/// One replay's running state while [`validate_jsonl`] reads its lines.
struct Stream {
    experiment: String,
    epoch: u64,
    accesses: u64,
    /// Per level, the sum of every `energy_delta` seen so far.
    deltas: Vec<EnergyBreakdown>,
}

/// The bit counters of a breakdown: reads and writes by value, then one
/// per charge kind.
fn bit_counts(energy: &EnergyBreakdown) -> impl Iterator<Item = u64> + '_ {
    [
        energy.bits_read_zero,
        energy.bits_read_one,
        energy.bits_written_zero,
        energy.bits_written_one,
    ]
    .into_iter()
    .chain(ChargeKind::ALL.iter().map(|&kind| energy.bits(kind)))
}

/// Validates a JSONL metrics stream: every line must parse as a
/// [`Snapshot`] with at least one level, and within each experiment the
/// epochs must increase by exactly one from zero with non-decreasing
/// access counts. Each level's per-epoch `energy_delta`s must add up to
/// its cumulative `energy`: exactly for the bit counters, within 1e-9
/// relative for the total energy. Snapshots carrying chunk-ingest
/// counters must keep them non-decreasing too, consumption can never
/// outrun reading, and the prefetch gauge must stay strictly below the
/// read-but-unconsumed chunk gap (counting the in-flight chunk as
/// buffered was a real bug).
///
/// # Errors
///
/// Returns a message naming the first offending line.
pub fn validate_jsonl(text: &str) -> Result<JsonlSummary, String> {
    // Linear scan is fine for lint-sized inputs and keeps ordering
    // deterministic.
    let mut streams: Vec<Stream> = Vec::new();
    let mut ingests: Vec<(String, IngestSnapshot)> = Vec::new();
    let mut snapshots = 0usize;
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            return Err(format!("line {lineno}: blank line in metrics stream"));
        }
        let snapshot: Snapshot =
            serde_json::from_str(line).map_err(|e| format!("line {lineno}: {e}"))?;
        if snapshot.levels.is_empty() {
            return Err(format!(
                "line {lineno}: snapshot for `{}` has no cache levels",
                snapshot.experiment
            ));
        }
        if let Some(ingest) = snapshot.ingest {
            if ingest.chunks_consumed > ingest.chunks_read {
                return Err(format!(
                    "line {lineno}: experiment `{}` consumed {} chunks but only read {}",
                    snapshot.experiment, ingest.chunks_consumed, ingest.chunks_read
                ));
            }
            // Prefetch-gauge sanity. Read-but-unconsumed chunks split
            // into: fully buffered (the gauge), the one being consumed,
            // and decode-skipped ones. A snapshot is always emitted while
            // a chunk is mid-consumption, so the gauge must be *strictly*
            // less than the read/consumed gap — equality is exactly the
            // historical off-by-one that counted the current chunk as
            // buffered. With no gap there is nothing to buffer.
            let gap = ingest.chunks_read - ingest.chunks_consumed;
            if gap == 0 {
                if ingest.prefetch_buffered != 0 {
                    return Err(format!(
                        "line {lineno}: experiment `{}` reports {} buffered chunks \
                         with none unconsumed",
                        snapshot.experiment, ingest.prefetch_buffered
                    ));
                }
            } else if ingest.prefetch_buffered >= gap {
                return Err(format!(
                    "line {lineno}: experiment `{}` reports {} buffered chunks but only \
                     {} are read-but-unconsumed (gauge counts the in-flight chunk?)",
                    snapshot.experiment, ingest.prefetch_buffered, gap
                ));
            }
            match ingests
                .iter_mut()
                .find(|(id, _)| *id == snapshot.experiment)
            {
                None => ingests.push((snapshot.experiment.clone(), ingest)),
                Some((id, last)) => {
                    if ingest.chunks_read < last.chunks_read
                        || ingest.chunks_consumed < last.chunks_consumed
                        || ingest.chunks_skipped < last.chunks_skipped
                        || ingest.crc_failures < last.crc_failures
                        || ingest.decode_failures < last.decode_failures
                        || ingest.bytes_read < last.bytes_read
                        || ingest.bytes_decoded < last.bytes_decoded
                        || ingest.peak_buffered_bytes < last.peak_buffered_bytes
                    {
                        return Err(format!(
                            "line {lineno}: experiment `{id}` ingest counters went backwards"
                        ));
                    }
                    *last = ingest;
                }
            }
        }
        let index = match streams
            .iter()
            .position(|stream| stream.experiment == snapshot.experiment)
        {
            None => {
                if snapshot.epoch != 0 {
                    return Err(format!(
                        "line {lineno}: experiment `{}` starts at epoch {} (expected 0)",
                        snapshot.experiment, snapshot.epoch
                    ));
                }
                streams.push(Stream {
                    experiment: snapshot.experiment.clone(),
                    epoch: 0,
                    accesses: snapshot.accesses,
                    deltas: vec![EnergyBreakdown::default(); snapshot.levels.len()],
                });
                streams.len() - 1
            }
            Some(index) => {
                let stream = &mut streams[index];
                let id = &stream.experiment;
                if snapshot.epoch != stream.epoch + 1 {
                    return Err(format!(
                        "line {lineno}: experiment `{id}` jumps from epoch {} to {}",
                        stream.epoch, snapshot.epoch
                    ));
                }
                if snapshot.accesses < stream.accesses {
                    return Err(format!(
                        "line {lineno}: experiment `{id}` access count went backwards \
                         ({} -> {})",
                        stream.accesses, snapshot.accesses
                    ));
                }
                // A resumed stream spliced onto the wrong run changes the
                // hierarchy shape mid-experiment; an uninterrupted (or
                // correctly resumed) one never does.
                if snapshot.levels.len() != stream.deltas.len() {
                    return Err(format!(
                        "line {lineno}: experiment `{id}` changes from {} cache \
                         levels to {} mid-stream",
                        stream.deltas.len(),
                        snapshot.levels.len()
                    ));
                }
                stream.epoch = snapshot.epoch;
                stream.accesses = snapshot.accesses;
                index
            }
        };
        // Per-epoch deltas telescope to the cumulative accumulators; an
        // emitter that leaves `energy_delta` cumulative double-counts.
        let stream = &mut streams[index];
        for (sum, level) in stream.deltas.iter_mut().zip(&snapshot.levels) {
            *sum += level.energy_delta.clone();
            let (summed, total) = (sum.total().picojoules(), level.energy.total().picojoules());
            if !bit_counts(sum).eq(bit_counts(&level.energy))
                || (summed - total).abs() > 1e-9 * summed.abs().max(total.abs())
            {
                return Err(format!(
                    "line {lineno}: experiment `{}` level `{}`: per-epoch energy deltas \
                     do not sum to the cumulative energy (bit counters or {summed} pJ \
                     vs {total} pJ)",
                    stream.experiment, level.level
                ));
            }
        }
        snapshots += 1;
    }
    Ok(JsonlSummary {
        snapshots,
        experiments: streams.len(),
    })
}

/// A summary of a validated multiplexed (multi-session) JSONL stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionsSummary {
    /// Distinct session ids (`s0000`-style prefixes).
    pub sessions: usize,
    /// Total snapshot lines across all sessions.
    pub snapshots: usize,
    /// Distinct (session, replay) experiment ids.
    pub experiments: usize,
}

/// Validates a **multiplexed** per-session JSONL stream, as written by a
/// replay server that merges many tenants into one log. On top of every
/// [`validate_jsonl`] rule (which is already keyed per experiment id, so
/// per-session epoch monotonicity and ingest monotonicity follow from
/// session-scoped ids), this requires each experiment id to carry an
/// `sNNNN/` session prefix — an unprefixed id means some session leaked
/// into the log without scoping, the exact bug this mode exists to
/// catch.
///
/// # Errors
///
/// Returns a message naming the first offending line.
pub fn validate_sessions_jsonl(text: &str) -> Result<SessionsSummary, String> {
    let summary = validate_jsonl(text)?;
    let mut sessions: Vec<String> = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let snapshot: Snapshot =
            serde_json::from_str(line).map_err(|e| format!("line {lineno}: {e}"))?;
        let Some((session, rest)) = snapshot.experiment.split_once('/') else {
            return Err(format!(
                "line {lineno}: experiment `{}` has no session prefix",
                snapshot.experiment
            ));
        };
        let well_formed = session.len() >= 5
            && session.starts_with('s')
            && session[1..].bytes().all(|b| b.is_ascii_digit());
        if !well_formed || rest.is_empty() {
            return Err(format!(
                "line {lineno}: experiment `{}` is not session-scoped \
                 (expected an `sNNNN/` prefix)",
                snapshot.experiment
            ));
        }
        if !sessions.iter().any(|s| s == session) {
            sessions.push(session.to_string());
        }
    }
    Ok(SessionsSummary {
        sessions: sessions.len(),
        snapshots: summary.snapshots,
        experiments: summary.experiments,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(experiment: &str, epoch: u64, accesses: u64) -> String {
        let mut snapshot = Snapshot::empty(experiment, epoch, accesses);
        snapshot.levels.push(LevelSnapshot {
            level: "L1D".to_string(),
            stats: CacheStats::default(),
            energy: EnergyBreakdown::default(),
            energy_delta: EnergyBreakdown::default(),
            encoding: EncodingCounters::default(),
            fifo: FifoSnapshot {
                len: 0,
                capacity: 8,
                stats: FifoStats::default(),
            },
            reliability: ReliabilityCounters::default(),
        });
        serde_json::to_string(&snapshot).expect("snapshot serializes")
    }

    #[test]
    fn validate_accepts_interleaved_monotonic_streams() {
        let text = format!(
            "{}\n{}\n{}\n{}\n",
            line("a/r0000", 0, 25),
            line("b/r0000", 0, 25),
            line("a/r0000", 1, 50),
            line("b/r0000", 1, 30),
        );
        let summary = validate_jsonl(&text).expect("valid stream");
        assert_eq!(
            summary,
            JsonlSummary {
                snapshots: 4,
                experiments: 2
            }
        );
    }

    #[test]
    fn validate_rejects_epoch_gap_and_bad_start() {
        let gap = format!("{}\n{}\n", line("a", 0, 10), line("a", 2, 20));
        assert!(validate_jsonl(&gap).unwrap_err().contains("jumps"));
        let start = format!("{}\n", line("a", 3, 10));
        assert!(validate_jsonl(&start).unwrap_err().contains("expected 0"));
    }

    #[test]
    fn validate_rejects_garbage_and_empty_levels() {
        assert!(validate_jsonl("not json\n").is_err());
        let no_levels = serde_json::to_string(&Snapshot::empty("a", 0, 0)).expect("serializes");
        assert!(validate_jsonl(&format!("{no_levels}\n"))
            .unwrap_err()
            .contains("no cache levels"));
    }

    fn ingest_line(experiment: &str, epoch: u64, ingest: IngestSnapshot) -> String {
        let mut snapshot: Snapshot =
            serde_json::from_str(&line(experiment, epoch, (epoch + 1) * 10)).expect("parses");
        snapshot.ingest = Some(ingest);
        serde_json::to_string(&snapshot).expect("snapshot serializes")
    }

    #[test]
    fn validate_rejects_inflated_prefetch_gauge() {
        // The historical off-by-one: gauge equal to the read/consumed gap
        // means the chunk currently being replayed was counted as
        // buffered.
        let inflated = ingest_line(
            "a",
            0,
            IngestSnapshot {
                chunks_read: 4,
                chunks_consumed: 1,
                prefetch_buffered: 3,
                ..IngestSnapshot::default()
            },
        );
        let err = validate_jsonl(&format!("{inflated}\n")).unwrap_err();
        assert!(err.contains("buffered"), "{err}");

        // Nothing unconsumed: the gauge must read zero.
        let stale = ingest_line(
            "a",
            0,
            IngestSnapshot {
                chunks_read: 4,
                chunks_consumed: 4,
                prefetch_buffered: 1,
                ..IngestSnapshot::default()
            },
        );
        let err = validate_jsonl(&format!("{stale}\n")).unwrap_err();
        assert!(err.contains("none unconsumed"), "{err}");

        // A sane mid-stream gauge passes.
        let sane = ingest_line(
            "a",
            0,
            IngestSnapshot {
                chunks_read: 4,
                chunks_consumed: 1,
                prefetch_buffered: 2,
                ..IngestSnapshot::default()
            },
        );
        validate_jsonl(&format!("{sane}\n")).expect("valid gauge accepted");
    }

    #[test]
    fn validate_rejects_backwards_ingest_bytes() {
        let first = ingest_line(
            "a",
            0,
            IngestSnapshot {
                chunks_read: 2,
                chunks_consumed: 1,
                bytes_decoded: 100,
                peak_buffered_bytes: 64,
                ..IngestSnapshot::default()
            },
        );
        let second = ingest_line(
            "a",
            1,
            IngestSnapshot {
                chunks_read: 3,
                chunks_consumed: 2,
                bytes_decoded: 90, // went backwards
                peak_buffered_bytes: 64,
                ..IngestSnapshot::default()
            },
        );
        let err = validate_jsonl(&format!("{first}\n{second}\n")).unwrap_err();
        assert!(err.contains("went backwards"), "{err}");
    }

    #[test]
    fn validate_rejects_backwards_skip_counters() {
        // chunks_skipped and decode_failures are cumulative too — a
        // resumed stream that restarted them at zero must be rejected.
        let first = ingest_line(
            "a",
            0,
            IngestSnapshot {
                chunks_read: 4,
                chunks_consumed: 3,
                chunks_skipped: 2,
                decode_failures: 1,
                ..IngestSnapshot::default()
            },
        );
        let second = ingest_line(
            "a",
            1,
            IngestSnapshot {
                chunks_read: 6,
                chunks_consumed: 5,
                chunks_skipped: 0,
                decode_failures: 1,
                ..IngestSnapshot::default()
            },
        );
        let err = validate_jsonl(&format!("{first}\n{second}\n")).unwrap_err();
        assert!(err.contains("went backwards"), "{err}");
    }

    #[test]
    fn validate_rejects_level_count_change_mid_stream() {
        let two_levels = {
            let mut snapshot: Snapshot = serde_json::from_str(&line("a", 1, 20)).expect("parses");
            let extra = snapshot.levels[0].clone();
            snapshot.levels.push(extra);
            serde_json::to_string(&snapshot).expect("serializes")
        };
        let err = validate_jsonl(&format!("{}\n{two_levels}\n", line("a", 0, 10))).unwrap_err();
        assert!(err.contains("cache levels"), "{err}");
    }

    #[test]
    fn validate_rejects_cumulative_energy_deltas() {
        let epoch = |epoch: u64, cumulative: u64, delta: u64| {
            let mut snapshot: Snapshot =
                serde_json::from_str(&line("a", epoch, (epoch + 1) * 10)).expect("parses");
            snapshot.levels[0].energy.bits_written_one = cumulative;
            snapshot.levels[0].energy_delta.bits_written_one = delta;
            serde_json::to_string(&snapshot).expect("serializes")
        };
        let per_epoch = format!("{}\n{}\n", epoch(0, 10, 10), epoch(1, 15, 5));
        validate_jsonl(&per_epoch).expect("deltas sum to the cumulative energy");
        let cumulative = format!("{}\n{}\n", epoch(0, 10, 10), epoch(1, 15, 15));
        let err = validate_jsonl(&cumulative).unwrap_err();
        assert!(
            err.starts_with("line 2:") && err.contains("deltas"),
            "{err}"
        );
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let text = line("fig9/i0001/r0000", 3, 400);
        let parsed: Snapshot = serde_json::from_str(&text).expect("parses");
        assert_eq!(parsed.experiment, "fig9/i0001/r0000");
        assert_eq!(parsed.epoch, 3);
        assert_eq!(parsed.levels.len(), 1);
        assert_eq!(parsed.levels[0].fifo.capacity, 8);
    }
}
