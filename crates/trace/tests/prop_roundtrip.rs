//! Property tests for the `.ctr` format: packing any access sequence and
//! streaming it back must be the identity, and any damage to the bytes
//! must be detected, never silently absorbed.

use cnt_sim::trace::{AccessBatch, MemoryAccess};
use cnt_sim::Address;
use cnt_trace::format::Frame;
use cnt_trace::{
    pack_accesses, pack_accesses_with, read_trace, CorruptionPolicy, ReadOptions, WriteOptions,
    FRAME_BYTES, HEADER_BYTES,
};
use proptest::prelude::*;

fn arb_access() -> impl Strategy<Value = MemoryAccess> {
    let width = prop::sample::select(vec![1u8, 2, 4, 8]);
    (0u64..65536, width, any::<u64>(), 0u8..3).prop_map(|(raw, width, value, kind)| {
        let addr = Address::new(raw & !(u64::from(width) - 1));
        match kind {
            0 => MemoryAccess::read(addr, width),
            1 => MemoryAccess::write(addr, width, value),
            // Instruction fetches are always 8 bytes wide.
            _ => MemoryAccess::ifetch(Address::new(raw & !7)),
        }
    })
}

fn arb_trace() -> impl Strategy<Value = AccessBatch> {
    prop::collection::vec(arb_access(), 0..600).prop_map(AccessBatch::from_iter)
}

fn packed(trace: &AccessBatch, chunk: u32) -> Vec<u8> {
    let mut bytes = Vec::new();
    pack_accesses(trace, &mut bytes, chunk).expect("packing in-memory never fails");
    bytes
}

/// Walks the chunk layout: `(payload_offset, payload_len)` per chunk.
fn payload_regions(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut offset = HEADER_BYTES;
    while offset < bytes.len() {
        let frame: Frame =
            Frame::from_bytes(&bytes[offset..offset + FRAME_BYTES].try_into().unwrap());
        let len = frame.payload_len as usize;
        regions.push((offset + FRAME_BYTES, len));
        offset += FRAME_BYTES + len;
    }
    regions
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// pack ∘ read is the identity for every trace and chunking.
    #[test]
    fn pack_then_read_is_identity(trace in arb_trace(), chunk in 1u32..64) {
        let bytes = packed(&trace, chunk);
        let back = read_trace(&bytes[..], ReadOptions::default()).expect("intact file reads");
        prop_assert_eq!(back, trace);
    }

    /// Cutting the file anywhere either errors or yields an exact
    /// chunk-boundary prefix — never garbage accesses.
    #[test]
    fn truncation_is_detected_or_a_clean_prefix(
        trace in arb_trace(),
        chunk in 1u32..32,
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = packed(&trace, chunk);
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        match read_trace(&bytes[..cut], ReadOptions::default()) {
            Ok(prefix) => {
                // Only a cut landing exactly on a chunk boundary parses;
                // the result must then be a whole-chunks prefix.
                prop_assert!(prefix.len() <= trace.len());
                prop_assert_eq!(
                    prefix,
                    trace.iter().take(prefix.len()).collect::<AccessBatch>(),
                    "parsed prefix must match the original accesses"
                );
                prop_assert_eq!(prefix.len() % chunk as usize, 0);
            }
            Err(e) => {
                // Damage must be named, and SkipWithReport must not
                // change the verdict: truncation has no resync point.
                let skip = read_trace(&bytes[..cut], ReadOptions {
                    corruption: CorruptionPolicy::SkipWithReport,
                    ..ReadOptions::default()
                });
                prop_assert!(skip.is_err(), "skip policy must not mask truncation: {e}");
            }
        }
    }

    /// pack(compress) ∘ read is also the identity: the reader inflates
    /// transparently and the CRC (over uncompressed records) still holds.
    #[test]
    fn compressed_pack_then_read_is_identity(trace in arb_trace(), chunk in 1u32..64) {
        let mut bytes = Vec::new();
        pack_accesses_with(&trace, &mut bytes, WriteOptions { chunk_accesses: chunk, compress: true })
            .expect("packing in-memory never fails");
        let back = read_trace(&bytes[..], ReadOptions::default()).expect("intact file reads");
        prop_assert_eq!(back, trace);
    }

    /// Flipping any bit of any compressed chunk payload is caught —
    /// either the inflater rejects the bitstream or the CRC over the
    /// inflated records mismatches — and the skip policy steps over
    /// exactly the damaged chunk.
    #[test]
    fn compressed_payload_damage_is_caught_and_skippable(
        trace in arb_trace(),
        chunk in 1u32..32,
        victim_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut bytes = Vec::new();
        pack_accesses_with(&trace, &mut bytes, WriteOptions { chunk_accesses: chunk, compress: true })
            .expect("packing in-memory never fails");
        let regions = payload_regions(&bytes);
        prop_assume!(!trace.is_empty());
        let victim = (((regions.len() - 1) as f64) * victim_frac) as usize;
        let (start, len) = regions[victim];
        prop_assume!(len > 0);
        bytes[start + len / 2] ^= 1 << bit;

        let err = read_trace(&bytes[..], ReadOptions::default())
            .expect_err("fail-fast must surface payload damage");
        prop_assert!(err.is_skippable(), "compressed damage is skippable: {err}");

        let back = read_trace(&bytes[..], ReadOptions {
            corruption: CorruptionPolicy::SkipWithReport,
            ..ReadOptions::default()
        }).expect("skip policy streams the intact remainder");
        let chunk = chunk as usize;
        let victim_accesses = trace.len().min(victim * chunk + chunk) - victim * chunk;
        prop_assert_eq!(back.len(), trace.len() - victim_accesses);
    }

    /// Flipping any bit of any chunk payload is caught by the CRC, and
    /// the skip policy recovers every other chunk.
    #[test]
    fn payload_damage_is_caught_and_skippable(
        trace in arb_trace(),
        chunk in 1u32..32,
        victim_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut bytes = packed(&trace, chunk);
        let regions = payload_regions(&bytes);
        prop_assume!(!trace.is_empty());
        let victim = (((regions.len() - 1) as f64) * victim_frac) as usize;
        let (start, len) = regions[victim];
        prop_assume!(len > 0);
        bytes[start + len / 2] ^= 1 << bit;

        let err = read_trace(&bytes[..], ReadOptions::default())
            .expect_err("fail-fast must surface payload damage");
        prop_assert!(err.is_skippable(), "CRC damage is skippable: {err}");

        let back = read_trace(&bytes[..], ReadOptions {
            corruption: CorruptionPolicy::SkipWithReport,
            ..ReadOptions::default()
        }).expect("skip policy streams the intact remainder");
        // Exactly the victim chunk's accesses are missing.
        let chunk = chunk as usize;
        let victim_accesses = trace.len().min(victim * chunk + chunk) - victim * chunk;
        prop_assert_eq!(back.len(), trace.len() - victim_accesses);
        let mut expected: AccessBatch = trace.iter().take(victim * chunk).collect();
        expected.extend(trace.iter().skip(victim * chunk + victim_accesses));
        prop_assert_eq!(back, expected);
    }
}
