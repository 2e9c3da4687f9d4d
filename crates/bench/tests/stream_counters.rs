//! Registry accounting of streamed replays. The registry is
//! process-wide, so this file holds a single test and no other replays.

use cnt_bench::runner::dcache_config;
use cnt_bench::stream::replay_stream;
use cnt_cache::{CntCache, EncodingPolicy};
use cnt_sim::trace::{MemoryAccess, Trace};
use cnt_sim::Address;
use cnt_trace::{pack_trace, ReadOptions, StreamReader};

fn stream_once(bytes: &[u8]) {
    let mut reader = StreamReader::new(bytes, ReadOptions::default()).expect("opens");
    let config = dcache_config("L1D", EncodingPolicy::adaptive_default());
    let mut cache = CntCache::new(config).expect("valid config");
    replay_stream(&mut cache, &mut reader).expect("streams");
}

#[test]
fn observed_streamed_replays_are_counted_once_each() {
    let trace: Trace = (0..2_500u64)
        .map(|i| MemoryAccess::read(Address::new((i % 700) * 8), 8))
        .collect();
    let mut bytes = Vec::new();
    pack_trace(&trace, &mut bytes, 256).expect("packs");
    let observed = cnt_obs::registry().counter("obs.replays_observed");

    // No sink: nothing is observed, so nothing is counted.
    stream_once(&bytes);
    assert_eq!(observed.get(), 0);

    let guard = cnt_obs::install_local(1_000, None);
    stream_once(&bytes);
    stream_once(&bytes);
    let snapshots = guard.finish();
    assert_eq!(snapshots.len(), 6, "three epochs per replay");
    assert_eq!(observed.get(), 2, "one count per observed streamed replay");
}
