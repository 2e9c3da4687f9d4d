//! # cnt-trace — streaming trace ingestion for multi-GB workload replay
//!
//! The in-memory [`cnt_sim::trace::AccessBatch`] caps replay at RAM-sized
//! workloads. This crate adds the I/O layer between workload generation
//! and simulation: a chunked, length-prefixed binary trace format
//! (`.ctr`) plus a bounded-memory streaming reader, so the adaptive
//! encoder's policies can be evaluated over access streams far larger
//! than memory.
//!
//! - [`format`] — the on-disk layout: versioned header, 12-byte chunk
//!   frames carrying payload length / access count / CRC32, and packed
//!   access records;
//! - [`writer`] — [`TraceWriter`] and the `pack_*` one-shots, which
//!   buffer at most one chunk while packing any access iterator;
//! - [`reader`] — [`StreamReader`], which yields CRC-verified chunks
//!   from any [`std::io::Read`] source under a hard byte budget, with
//!   fail-fast or skip-with-report corruption handling;
//! - [`crc32()`] — the CRC-32 (IEEE) every frame and section carries,
//!   re-exported from the vendored `flate2` shim;
//! - [`checkpoint`] — the `.ctrs` snapshot container, which reuses the
//!   same framing discipline to make long streamed replays
//!   kill-and-resume safe ([`CheckpointFile`], [`Checkpointable`],
//!   typed [`CheckpointError`] rejection of damaged or mismatched
//!   snapshots);
//! - [`rotate`] — generation-rotated checkpoint families
//!   ([`CheckpointRotator`]): periodic checkpoints write
//!   `base.gNNNN.ctrs` atomically and garbage-collect all but the
//!   newest K, so a long-running session never overwrites its only
//!   good snapshot and never grows without bound.
//!
//! Reading and decoding are deliberately split ([`RawChunk::decode`])
//! so a replay harness can keep file I/O sequential while fanning chunk
//! decode across worker threads — see `cnt_bench::stream`, which keeps
//! such replays byte-identical between sequential and parallel runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod error;
pub mod format;
pub mod reader;
pub mod rotate;
pub mod writer;

pub use checkpoint::{
    fnv1a, fnv1a_extend, CheckpointError, CheckpointFile, CheckpointManifest, Checkpointable,
    CHECKPOINT_MAGIC, CHECKPOINT_VERSION, FNV_OFFSET,
};
pub use error::TraceError;
/// The workspace's one CRC-32 (IEEE, slicing-by-8), shared with gzip.
pub use flate2::crc32;
pub use format::{
    Header, FLAG_COMPRESSED, FRAME_BYTES, HEADER_BYTES, MAGIC, VERSION, VERSION_COMPRESSED,
};
pub use reader::{
    read_trace, CorruptionPolicy, Fetch, IngestStats, RawChunk, ReadOptions, StreamReader,
};
pub use rotate::CheckpointRotator;
pub use writer::{
    pack_accesses, pack_accesses_with, PackSummary, TraceWriter, WriteOptions,
    DEFAULT_CHUNK_ACCESSES,
};
