//! The committed `tests/fixtures/synth_golden.ctr` pins the `.ctr` bytes
//! the synthetic generator and the trace writer produce, chunk CRCs
//! included. It was written by
//!
//! ```text
//! tracegen pack-synth synth_golden.ctr --accesses 96 --lines 8 --seed 11 --chunk 32
//! ```
//!
//! and repacking the same spec must reproduce it byte for byte.

use std::path::PathBuf;

use cnt_workloads::synthetic::{AddressPattern, SyntheticSpec};

#[test]
fn repacking_the_golden_spec_reproduces_the_committed_trace() {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/synth_golden.ctr");
    let golden = std::fs::read(&path).unwrap_or_else(|e| panic!("`{}`: {e}", path.display()));

    // `tracegen pack-synth`'s defaults, with the flags above applied.
    let spec = SyntheticSpec {
        accesses: 96,
        footprint_lines: 8,
        read_fraction: 0.7,
        ones_density: 0.25,
        pattern: AddressPattern::UniformRandom,
        seed: 11,
    };
    let mut repacked = Vec::new();
    let summary = cnt_trace::pack_accesses(spec.stream(), &mut repacked, 32).expect("packs");
    assert_eq!(summary.chunks, 5);
    assert!(
        repacked == golden,
        "repacked bytes differ from the golden trace"
    );

    // Every chunk CRC in the committed file verifies on read.
    let trace = cnt_trace::read_trace(golden.as_slice(), cnt_trace::ReadOptions::default())
        .expect("reads back CRC-clean");
    assert_eq!(trace.len(), 8 * 8 + 96);
}
