//! End-to-end equivalence of streamed and in-memory replay.
//!
//! The contract under test: for any workload, JSON → `.ctr` → streamed
//! chunk-parallel replay produces an [`EnergyReport`] **byte-identical**
//! (after JSON serialization) to replaying the same accesses from
//! memory — and damaged inputs fail loudly instead of skewing energy
//! numbers silently.

use cnt_bench::runner::{dcache_config, run_dcache};
use cnt_bench::stream::{
    replay_stream, replay_stream_resumable, CheckpointEvery, ReplayCursor, StreamError,
};
use cnt_cache::{CntCache, EncodingPolicy, EnergyReport};
use cnt_obs::{install_local, Snapshot};
use cnt_sim::trace::{AccessBatch, MemoryAccess};
use cnt_sim::Address;
use cnt_trace::{pack_accesses, Checkpointable, CorruptionPolicy, ReadOptions, StreamReader};
use cnt_workloads::synthetic::{AddressPattern, SyntheticSpec};
use proptest::prelude::*;

fn pack(trace: &AccessBatch, chunk: u32) -> Vec<u8> {
    let mut bytes = Vec::new();
    pack_accesses(trace, &mut bytes, chunk).expect("packs");
    bytes
}

/// Streams packed bytes through a fresh D-Cache.
fn stream_replay(
    bytes: &[u8],
    policy: EncodingPolicy,
    opts: ReadOptions,
) -> Result<(EnergyReport, cnt_obs::IngestSnapshot), StreamError> {
    let mut reader = StreamReader::new(bytes, opts)?;
    let mut cache = CntCache::new(dcache_config("L1D", policy)).expect("valid config");
    let (ingest, _) = replay_stream(&mut cache, &mut reader)?;
    cache.flush();
    Ok((cache.into_report(), ingest))
}

fn arb_access() -> impl Strategy<Value = MemoryAccess> {
    // Cache-valid accesses: naturally aligned, small footprint so lines
    // are reused and the adaptive policy actually switches directions.
    let width = prop::sample::select(vec![1u8, 2, 4, 8]);
    (0u64..16384, width, any::<u64>(), 0u8..3).prop_map(|(raw, width, value, kind)| {
        let addr = Address::new(raw & !(u64::from(width) - 1));
        match kind {
            0 => MemoryAccess::read(addr, width),
            1 => MemoryAccess::write(addr, width, value),
            // Instruction fetches are always 8 bytes wide.
            _ => MemoryAccess::ifetch(Address::new(raw & !7)),
        }
    })
}

/// A snapshot with what only a streamed replay carries masked: the
/// ingest block, and the replay id (each replay on a thread takes the
/// next one).
fn without_stream_parts(mut snapshot: Snapshot) -> Snapshot {
    snapshot.ingest = None;
    snapshot.experiment.clear();
    snapshot
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// JSON → `.ctr` → streamed replay == in-memory replay, to the byte.
    #[test]
    fn streamed_replay_equals_in_memory_replay(
        accesses in prop::collection::vec(arb_access(), 0..500),
        chunk in 1u32..64,
        budget_kib in 1usize..16,
    ) {
        let trace = AccessBatch::from_iter(accesses);

        // JSON leg: the trace survives the text interchange format.
        let json = serde_json::to_string(&trace).expect("serializes");
        let from_json: AccessBatch = serde_json::from_str(&json).expect("parses");
        prop_assert_eq!(&from_json, &trace);

        let bytes = pack(&from_json, chunk);
        let opts = ReadOptions {
            budget_bytes: budget_kib * 1024,
            corruption: CorruptionPolicy::FailFast,
        };
        for policy in [EncodingPolicy::None, EncodingPolicy::adaptive_default()] {
            let expected = run_dcache(policy, &trace);
            let (streamed, ingest) = stream_replay(&bytes, policy, opts)
                .expect("intact stream replays");
            prop_assert_eq!(&streamed, &expected);
            // Byte-identical after serialization, not merely PartialEq.
            prop_assert_eq!(
                serde_json::to_string(&streamed).expect("serializes"),
                serde_json::to_string(&expected).expect("serializes")
            );
            prop_assert!(
                ingest.peak_buffered_bytes <= (budget_kib * 1024) as u64,
                "peak {} exceeded budget {}",
                ingest.peak_buffered_bytes,
                budget_kib * 1024
            );
        }
    }

    /// A streamed replay emits the snapshots `cnt_obs::replay` emits over
    /// the same trace, whatever the chunk size, budget and epoch length
    /// (`every` need not divide the chunk), and a replay resumed at a
    /// window-boundary checkpoint continues the same stream.
    #[test]
    fn streamed_snapshots_match_in_memory_replay(
        accesses in prop::collection::vec(arb_access(), 0..400),
        chunk in 1u32..64,
        budget_kib in 1usize..4,
        every in 1u64..90,
    ) {
        let trace = AccessBatch::from_iter(accesses);
        let bytes = pack(&trace, chunk);
        let opts = ReadOptions {
            budget_bytes: budget_kib * 1024,
            corruption: CorruptionPolicy::FailFast,
        };
        let config = dcache_config("L1D", EncodingPolicy::adaptive_default());

        let guard = install_local(every, None);
        let mut cache = CntCache::new(config.clone()).expect("valid config");
        cnt_obs::replay(&mut cache, &trace).expect("replays");
        let expected: Vec<Snapshot> =
            guard.finish().into_iter().map(without_stream_parts).collect();

        // Streamed, keeping the first window-boundary checkpoint.
        let mut saved: Option<(Vec<u8>, ReplayCursor)> = None;
        let mut keep_first = |cache: &CntCache, cursor: &ReplayCursor, _identity: u64| {
            if saved.is_none() {
                saved = Some((cache.encode_state()?, cursor.clone()));
            }
            Ok(())
        };
        let guard = install_local(every, None);
        let mut reader =
            StreamReader::new(std::io::Cursor::new(&bytes[..]), opts).expect("opens");
        let mut cache = CntCache::new(config.clone()).expect("valid config");
        let checkpoint = CheckpointEvery { chunks: 1, write: &mut keep_first };
        replay_stream_resumable(&mut cache, &mut reader, None, Some(checkpoint), None)
            .expect("streams");
        let streamed = guard.finish();
        let masked: Vec<Snapshot> =
            streamed.iter().cloned().map(without_stream_parts).collect();
        prop_assert_eq!(masked, expected);

        if let Some((state, cursor)) = saved {
            let guard = install_local(every, None);
            let mut reader =
                StreamReader::new(std::io::Cursor::new(&bytes[..]), opts).expect("opens");
            reader.seek_to_chunk(cursor.chunk).expect("seeks");
            let mut cache = CntCache::new(config).expect("valid config");
            cache.restore_state(&state).expect("restores");
            replay_stream_resumable(&mut cache, &mut reader, Some(cursor.clone()), None, None)
                .expect("resumes");
            let tail: Vec<Snapshot> =
                streamed.into_iter().filter(|s| s.epoch >= cursor.epoch).collect();
            prop_assert_eq!(guard.finish(), tail);
        }
    }

    /// A truncated `.ctr` file must error out of the replay — under both
    /// corruption policies — never produce a report.
    #[test]
    fn truncated_file_fails_the_replay(
        accesses in prop::collection::vec(arb_access(), 10..300),
        chunk in 1u32..32,
        cut_back in 1usize..11,
    ) {
        let trace = AccessBatch::from_iter(accesses);
        let bytes = pack(&trace, chunk);
        prop_assume!(cut_back < bytes.len());
        let cut = &bytes[..bytes.len() - cut_back];
        for corruption in [CorruptionPolicy::FailFast, CorruptionPolicy::SkipWithReport] {
            let result = stream_replay(cut, EncodingPolicy::adaptive_default(), ReadOptions {
                corruption,
                ..ReadOptions::default()
            });
            prop_assert!(
                matches!(result, Err(StreamError::Trace(_))),
                "{corruption:?} must surface truncation"
            );
        }
    }

    /// A flipped CRC byte fails fast, and under the skip policy the
    /// replay completes over the intact remainder only.
    #[test]
    fn flipped_crc_fails_fast_and_skips_cleanly(
        accesses in prop::collection::vec(arb_access(), 50..300),
        flip_frac in 0.1f64..0.9,
    ) {
        let trace = AccessBatch::from_iter(accesses);
        let chunk = 16u32;
        let mut bytes = pack(&trace, chunk);
        let flip_at = cnt_trace::HEADER_BYTES
            + ((bytes.len() - cnt_trace::HEADER_BYTES - 1) as f64 * flip_frac) as usize;
        bytes[flip_at] ^= 0x04;

        let fail = stream_replay(&bytes, EncodingPolicy::adaptive_default(), ReadOptions {
            corruption: CorruptionPolicy::FailFast,
            ..ReadOptions::default()
        });
        prop_assert!(fail.is_err(), "fail-fast must reject the damaged stream");

        if let Ok((_, ingest)) = stream_replay(
            &bytes,
            EncodingPolicy::adaptive_default(),
            ReadOptions {
                corruption: CorruptionPolicy::SkipWithReport,
                ..ReadOptions::default()
            },
        ) {
            // Some chunk was dropped and accounted for (a flip inside a
            // frame header can desync framing, which lands in the Err
            // arm instead — also acceptable).
            prop_assert!(ingest.chunks_skipped >= 1);
            prop_assert!(ingest.chunks_consumed < ingest.chunks_read + ingest.chunks_skipped);
        }
    }
}

/// Each observed streamed replay counts once, in the registry of the
/// sink it recorded into.
#[test]
fn observed_streamed_replays_are_counted_once_each() {
    let trace: AccessBatch = (0..2_500u64)
        .map(|i| MemoryAccess::read(Address::new((i % 700) * 8), 8))
        .collect();
    let bytes = pack(&trace, 256);
    let opts = ReadOptions::default();
    let count = |guard: &cnt_obs::SinkGuard, name: &str| guard.registry().counter(name).get();

    // Counters only: the replay is counted but not observed.
    let guard = install_local(0, None);
    stream_replay(&bytes, EncodingPolicy::adaptive_default(), opts).expect("streams");
    assert_eq!(count(&guard, "obs.replays_observed"), 0);
    assert_eq!(count(&guard, "trace.replays"), 1);
    assert!(guard.finish().is_empty());

    let guard = install_local(1_000, None);
    stream_replay(&bytes, EncodingPolicy::adaptive_default(), opts).expect("streams");
    stream_replay(&bytes, EncodingPolicy::adaptive_default(), opts).expect("streams");
    assert_eq!(
        count(&guard, "obs.replays_observed"),
        2,
        "one count per observed streamed replay"
    );
    assert_eq!(guard.finish().len(), 6, "three epochs per replay");
}

/// The ISSUE acceptance bar: a ≥ 64 MiB trace streamed under an 8 MiB
/// reader budget must reproduce the in-memory report exactly, with
/// buffering bounded by the budget. Run with `--ignored --release`
/// (debug-mode replay of ~5M accesses is too slow for tier-1).
#[test]
#[ignore = "multi-GB-scale acceptance check; run in release"]
fn large_trace_streams_identically_under_8mib_budget() {
    let spec = SyntheticSpec {
        accesses: 4_800_000,
        footprint_lines: 4096,
        read_fraction: 0.5,
        ones_density: 0.3,
        pattern: AddressPattern::UniformRandom,
        seed: 0x64C7,
    };
    let mut bytes = Vec::new();
    let summary =
        cnt_trace::pack_accesses(spec.stream(), &mut bytes, 8192).expect("packs streamed");
    assert!(
        summary.payload_bytes >= 64 * 1024 * 1024,
        "trace must be at least 64 MiB, got {} bytes",
        summary.payload_bytes
    );

    let budget = 8 * 1024 * 1024;
    let opts = ReadOptions {
        budget_bytes: budget,
        corruption: CorruptionPolicy::FailFast,
    };
    let (streamed, ingest) =
        stream_replay(&bytes, EncodingPolicy::adaptive_default(), opts).expect("streams");
    assert!(ingest.peak_buffered_bytes <= budget as u64);
    assert!(
        ingest.peak_buffered_bytes > budget as u64 / 2,
        "windows should actually fill toward the budget"
    );
    assert_eq!(ingest.chunks_consumed, summary.chunks);

    let trace = spec.generate();
    let expected = run_dcache(EncodingPolicy::adaptive_default(), &trace);
    assert_eq!(streamed, expected);
    assert_eq!(
        serde_json::to_string(&streamed).expect("serializes"),
        serde_json::to_string(&expected).expect("serializes")
    );
}
