//! Bounded-memory streaming of `.ctr` chunks from any [`Read`] source.
//!
//! [`StreamReader`] never materializes the trace: it holds at most one
//! frame of lookahead plus the single chunk payload currently being
//! returned, and it refuses up front any chunk that could not fit the
//! configured [`ReadOptions::budget_bytes`]. Callers building a prefetch
//! window use [`StreamReader::next_raw_within`] to fill up to a byte
//! budget without ever over-reading: a chunk that does not fit the
//! remaining window stays inside the reader (only its 12-byte frame has
//! been consumed) and is returned by the next call.
//!
//! Corruption handling is a per-reader policy: [`CorruptionPolicy::FailFast`]
//! surfaces the first CRC mismatch as an error; with
//! [`CorruptionPolicy::SkipWithReport`] damaged chunks are counted in
//! [`IngestStats`] and stepped over (the length-prefixed framing keeps
//! the stream in sync). Truncation — a stream ending mid-frame or
//! mid-payload — is always fatal: past the damage there is no frame
//! boundary left to resynchronize on.
//!
//! Compressed traces (header version 2 with the compressed flag) are
//! handled transparently: each chunk is inflated after the payload read
//! and *before* the CRC check, so the frame CRC-32 — computed over the
//! uncompressed records at write time — still catches damage wherever
//! it happened. An undecodable DEFLATE stream is per-chunk damage
//! ([`TraceError::Decompress`]), subject to the same corruption policy
//! as a CRC mismatch.

use std::io::{Read, Seek, SeekFrom};

use cnt_sim::trace::AccessBatch;

use crate::checkpoint::{fnv1a, fnv1a_extend};
use crate::crc32;
use crate::error::TraceError;
use crate::format::{decode_payload_into, Frame, Header, FRAME_BYTES, HEADER_BYTES};

/// What to do when a chunk's CRC32 (or payload shape) is wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CorruptionPolicy {
    /// Surface the first damaged chunk as an error (the default).
    #[default]
    FailFast,
    /// Skip damaged chunks, counting them in [`IngestStats`], and keep
    /// streaming the intact remainder.
    SkipWithReport,
}

/// Reader configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOptions {
    /// Upper bound on buffered payload bytes; chunks larger than this are
    /// rejected with [`TraceError::ChunkExceedsBudget`].
    pub budget_bytes: usize,
    /// Damaged-chunk handling.
    pub corruption: CorruptionPolicy,
}

impl Default for ReadOptions {
    fn default() -> Self {
        ReadOptions {
            budget_bytes: 8 * 1024 * 1024,
            corruption: CorruptionPolicy::FailFast,
        }
    }
}

/// Read-side counters, updated as the stream advances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestStats {
    /// Intact chunks yielded to the caller.
    pub chunks_read: u64,
    /// Damaged chunks stepped over (skip policy only).
    pub chunks_skipped: u64,
    /// CRC32 mismatches seen.
    pub crc_failures: u64,
    /// Compressed chunks whose payload failed to inflate.
    pub decompress_failures: u64,
    /// Payload-shape errors seen while decoding via [`StreamReader::next_chunk`].
    pub decode_failures: u64,
    /// Access records declared by yielded chunk frames.
    pub accesses_declared: u64,
    /// Payload bytes read from the source, including skipped chunks.
    pub bytes_read: u64,
}

/// A CRC-verified chunk that has not been decoded yet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawChunk {
    /// Zero-based position in the file, counting skipped chunks.
    pub index: u64,
    /// Records the frame declares.
    pub access_count: u32,
    /// The packed records.
    pub payload: Vec<u8>,
}

impl RawChunk {
    /// Decodes the payload into a reusable struct-of-arrays batch (see
    /// [`decode_payload_into`]). The batch is cleared first.
    ///
    /// This is intentionally separate from reading so callers can fan
    /// decode work out across worker threads while I/O stays sequential.
    ///
    /// # Errors
    ///
    /// [`TraceError::BadRecord`] for malformed payloads.
    pub fn decode_batch(&self, out: &mut AccessBatch) -> Result<(), TraceError> {
        decode_payload_into(&self.payload, self.access_count, self.index, out)
    }
}

/// Result of one bounded fetch attempt.
#[derive(Debug)]
pub enum Fetch {
    /// The next intact chunk, within the requested byte bound.
    Chunk(RawChunk),
    /// The next chunk needs more bytes than the caller has left in its
    /// window; nothing was buffered. Retry with a fresh window.
    WouldExceed {
        /// Index of the pending chunk.
        chunk: u64,
        /// Payload bytes the pending chunk requires.
        needed: usize,
    },
    /// Clean end of stream.
    Eof,
}

/// A streaming `.ctr` reader over any [`Read`] source.
pub struct StreamReader<R: Read> {
    src: R,
    header: Header,
    opts: ReadOptions,
    /// Index of the next chunk to be read (skipped chunks advance it too).
    next_index: u64,
    /// A frame whose payload has not been fetched yet (window overflow).
    lookahead: Option<Frame>,
    stats: IngestStats,
    finished: bool,
    /// Rolling FNV-1a digest over the file header plus the 12-byte frame
    /// of every chunk whose payload has been consumed (each frame embeds
    /// its payload's CRC-32, so payload damage perturbs this too).
    identity: u64,
}

impl<R: Read> StreamReader<R> {
    /// Reads and validates the file header.
    ///
    /// # Errors
    ///
    /// [`TraceError::BadMagic`], [`TraceError::UnsupportedVersion`],
    /// [`TraceError::Truncated`], or an I/O error.
    pub fn new(mut src: R, opts: ReadOptions) -> Result<Self, TraceError> {
        let mut bytes = [0u8; HEADER_BYTES];
        read_exact_or(&mut src, &mut bytes, u64::MAX, "file header")?;
        let header = Header::from_bytes(&bytes)?;
        let identity = fnv1a(&bytes);
        Ok(StreamReader {
            src,
            header,
            opts,
            next_index: 0,
            lookahead: None,
            stats: IngestStats::default(),
            finished: false,
            identity,
        })
    }

    /// The parsed file header.
    pub fn header(&self) -> Header {
        self.header
    }

    /// The configured options.
    pub fn options(&self) -> ReadOptions {
        self.opts
    }

    /// Read-side counters so far.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Index of the next chunk to be consumed (the resume cursor).
    ///
    /// A frame held in lookahead after a window overflow is *not*
    /// counted: its payload has not been consumed, and a resumed reader
    /// re-reads that frame from the file.
    pub fn cursor(&self) -> u64 {
        self.next_index
    }

    /// The trace-identity digest: FNV-1a over the file header plus every
    /// consumed chunk frame. Two readers at the same [`cursor`] over the
    /// same file always agree, while a different trace — any re-pack of
    /// different content perturbs the frames' lengths, access counts, or
    /// recorded CRC-32s — diverges with overwhelming probability.
    /// Checkpoints record this so a resume can refuse the wrong trace.
    /// (Payload bytes themselves are deliberately not folded in: that is
    /// what lets [`seek_to_chunk`] reconstruct the digest in O(frames).
    /// Payload damage *below* the cursor is immaterial to a resume — the
    /// prefix's effect lives in the restored cache state and those bytes
    /// are never read again — and damage above it is still caught by the
    /// normal per-chunk CRC check when the chunk is consumed.)
    ///
    /// [`cursor`]: Self::cursor
    /// [`seek_to_chunk`]: Self::seek_to_chunk
    pub fn identity(&self) -> u64 {
        self.identity
    }

    /// Reads the next frame, distinguishing clean EOF (exactly at a
    /// frame boundary) from truncation.
    fn read_frame(&mut self) -> Result<Option<Frame>, TraceError> {
        let mut bytes = [0u8; FRAME_BYTES];
        // A clean end of stream yields zero bytes here; anything between
        // 1 and FRAME_BYTES-1 is a torn frame.
        let mut filled = 0usize;
        while filled < FRAME_BYTES {
            let n = self.src.read(&mut bytes[filled..])?;
            if n == 0 {
                return if filled == 0 {
                    Ok(None)
                } else {
                    Err(TraceError::Truncated {
                        chunk: self.next_index,
                        while_reading: "chunk frame",
                    })
                };
            }
            filled += n;
        }
        Ok(Some(Frame::from_bytes(&bytes)))
    }

    /// Fetches the next intact chunk if its payload fits in `max_bytes`.
    ///
    /// On [`Fetch::WouldExceed`] the chunk remains pending inside the
    /// reader — no payload bytes were buffered — so a later call with a
    /// larger bound picks it up. This is what lets a prefetching replay
    /// bound its total buffered bytes *exactly* by its budget.
    ///
    /// # Errors
    ///
    /// [`TraceError::ChunkExceedsBudget`] when the chunk can never fit
    /// the reader's budget, [`TraceError::CrcMismatch`] under
    /// [`CorruptionPolicy::FailFast`], [`TraceError::Truncated`], or I/O
    /// errors. All of these end the stream.
    pub fn next_raw_within(&mut self, max_bytes: usize) -> Result<Fetch, TraceError> {
        loop {
            if self.finished {
                return Ok(Fetch::Eof);
            }
            let frame = match self.lookahead.take() {
                Some(frame) => frame,
                None => match self.read_frame()? {
                    Some(frame) => frame,
                    None => {
                        self.finished = true;
                        return Ok(Fetch::Eof);
                    }
                },
            };
            let len = frame.payload_len as usize;
            if len > self.opts.budget_bytes {
                self.finished = true;
                return Err(TraceError::ChunkExceedsBudget {
                    chunk: self.next_index,
                    payload_bytes: len as u64,
                    budget_bytes: self.opts.budget_bytes as u64,
                });
            }
            if len > max_bytes {
                self.lookahead = Some(frame);
                return Ok(Fetch::WouldExceed {
                    chunk: self.next_index,
                    needed: len,
                });
            }
            let index = self.next_index;
            self.next_index += 1;
            self.identity = fnv1a_extend(self.identity, &frame.to_bytes());
            let mut payload = vec![0u8; len];
            if let Err(e) = read_exact_or(&mut self.src, &mut payload, index, "chunk payload") {
                // Truncation is unrecoverable; poison the stream.
                self.finished = true;
                return Err(e);
            }
            self.stats.bytes_read += len as u64;
            if self.header.compressed() {
                // Inflate before the CRC check: the frame CRC-32 covers
                // the uncompressed records, so codec damage and record
                // damage fall through the same corruption policy. The
                // reader budget caps the inflated size too — a chunk
                // whose *decompressed* payload would blow the budget is
                // per-chunk damage (the frame stayed in sync), not a
                // stream-fatal budget error.
                match inflate_payload(&payload, self.opts.budget_bytes) {
                    Ok(inflated) => payload = inflated,
                    Err(what) => {
                        self.stats.decompress_failures += 1;
                        match self.opts.corruption {
                            CorruptionPolicy::FailFast => {
                                self.finished = true;
                                return Err(TraceError::Decompress { chunk: index, what });
                            }
                            CorruptionPolicy::SkipWithReport => {
                                self.stats.chunks_skipped += 1;
                                continue;
                            }
                        }
                    }
                }
            }
            let computed = crc32(&payload);
            if computed != frame.crc32 {
                self.stats.crc_failures += 1;
                match self.opts.corruption {
                    CorruptionPolicy::FailFast => {
                        self.finished = true;
                        return Err(TraceError::CrcMismatch {
                            chunk: index,
                            stored: frame.crc32,
                            computed,
                        });
                    }
                    CorruptionPolicy::SkipWithReport => {
                        self.stats.chunks_skipped += 1;
                        continue;
                    }
                }
            }
            self.stats.chunks_read += 1;
            self.stats.accesses_declared += u64::from(frame.access_count);
            return Ok(Fetch::Chunk(RawChunk {
                index,
                access_count: frame.access_count,
                payload,
            }));
        }
    }

    /// Fetches the next intact chunk, bounded only by the reader budget.
    ///
    /// # Errors
    ///
    /// As [`next_raw_within`](Self::next_raw_within).
    pub fn next_raw(&mut self) -> Result<Option<RawChunk>, TraceError> {
        match self.next_raw_within(self.opts.budget_bytes)? {
            Fetch::Chunk(raw) => Ok(Some(raw)),
            Fetch::Eof => Ok(None),
            Fetch::WouldExceed { .. } => {
                unreachable!("budget-bounded fetch cannot overflow the budget")
            }
        }
    }

    /// Fetches and decodes the next chunk, applying the corruption
    /// policy to payload-shape errors as well.
    ///
    /// # Errors
    ///
    /// As [`next_raw_within`](Self::next_raw_within), plus
    /// [`TraceError::BadRecord`] under [`CorruptionPolicy::FailFast`].
    pub fn next_chunk(&mut self) -> Result<Option<(u64, AccessBatch)>, TraceError> {
        let mut batch = AccessBatch::new();
        loop {
            let Some(raw) = self.next_raw()? else {
                return Ok(None);
            };
            match raw.decode_batch(&mut batch) {
                Ok(()) => return Ok(Some((raw.index, batch))),
                Err(e) => {
                    self.stats.decode_failures += 1;
                    match self.opts.corruption {
                        CorruptionPolicy::FailFast => {
                            self.finished = true;
                            return Err(e);
                        }
                        CorruptionPolicy::SkipWithReport => {
                            self.stats.chunks_skipped += 1;
                            // The frame-declared counters no longer hold.
                            self.stats.chunks_read -= 1;
                            self.stats.accesses_declared -= u64::from(raw.access_count);
                            continue;
                        }
                    }
                }
            }
        }
    }
}

impl<R: Read + Seek> StreamReader<R> {
    /// Advances a freshly-opened reader to chunk `n` without buffering
    /// or CRC-checking any payload: each of the `n` frames is read and
    /// validated (structure, byte budget, not running past the file),
    /// its payload is stepped over with a relative seek, and the
    /// identity digest plus [`IngestStats`] are reconstructed exactly as
    /// an uninterrupted fail-fast run would have left them. Resume cost
    /// is therefore O(frames), not O(payload bytes).
    ///
    /// # Errors
    ///
    /// [`TraceError::Truncated`] if the file ends before chunk `n` (the
    /// seek target lies beyond the trace), [`TraceError::ChunkExceedsBudget`]
    /// if a skipped chunk could never have been replayed under this
    /// reader's budget, or I/O errors.
    ///
    /// # Panics
    ///
    /// Panics if the reader has already consumed or looked ahead at any
    /// chunk — seeking is only meaningful right after open.
    pub fn seek_to_chunk(&mut self, n: u64) -> Result<(), TraceError> {
        assert!(
            self.next_index == 0 && self.lookahead.is_none() && !self.finished,
            "seek_to_chunk requires a freshly-opened reader"
        );
        // Establish the file extent once so relative seeks cannot
        // silently run past EOF (seeking beyond the end is not an error
        // at the OS level, but it must be one here).
        let start = self.src.stream_position()?;
        let end = self.src.seek(SeekFrom::End(0))?;
        self.src.seek(SeekFrom::Start(start))?;
        let mut pos = start;

        for _ in 0..n {
            let frame = match self.read_frame()? {
                Some(frame) => frame,
                None => {
                    self.finished = true;
                    return Err(TraceError::Truncated {
                        chunk: self.next_index,
                        while_reading: "seek target (cursor beyond the trace)",
                    });
                }
            };
            pos += FRAME_BYTES as u64;
            let len = u64::from(frame.payload_len);
            if len > self.opts.budget_bytes as u64 {
                self.finished = true;
                return Err(TraceError::ChunkExceedsBudget {
                    chunk: self.next_index,
                    payload_bytes: len,
                    budget_bytes: self.opts.budget_bytes as u64,
                });
            }
            if pos + len > end {
                self.finished = true;
                return Err(TraceError::Truncated {
                    chunk: self.next_index,
                    while_reading: "chunk payload (during seek)",
                });
            }
            self.src.seek(SeekFrom::Current(len as i64))?;
            pos += len;
            self.identity = fnv1a_extend(self.identity, &frame.to_bytes());
            self.stats.chunks_read += 1;
            self.stats.accesses_declared += u64::from(frame.access_count);
            self.stats.bytes_read += len;
            self.next_index += 1;
        }
        Ok(())
    }
}

/// Reads a whole `.ctr` stream into one in-memory [`AccessBatch`] — the
/// non-streaming convenience for tools and tests.
///
/// # Errors
///
/// As [`StreamReader::next_chunk`].
pub fn read_trace<R: Read>(src: R, opts: ReadOptions) -> Result<AccessBatch, TraceError> {
    let mut reader = StreamReader::new(src, opts)?;
    let mut trace = AccessBatch::new();
    while let Some((_, chunk)) = reader.next_chunk()? {
        trace.extend(&chunk);
    }
    Ok(trace)
}

/// Inflates one compressed chunk payload, capping the decompressed size
/// at the reader budget. Errors are rendered to a string because the
/// inflater's error type is a shim detail the `.ctr` API should not
/// re-export.
fn inflate_payload(payload: &[u8], budget_bytes: usize) -> Result<Vec<u8>, String> {
    let mut decoder = flate2::read::DeflateDecoder::with_limit(payload, budget_bytes);
    let mut inflated = Vec::new();
    decoder
        .read_to_end(&mut inflated)
        .map_err(|e| e.to_string())?;
    Ok(inflated)
}

fn read_exact_or<R: Read>(
    src: &mut R,
    buf: &mut [u8],
    chunk: u64,
    while_reading: &'static str,
) -> Result<(), TraceError> {
    src.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            TraceError::Truncated {
                chunk,
                while_reading,
            }
        } else {
            TraceError::Io(e)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::pack_accesses;
    use cnt_sim::trace::MemoryAccess;
    use cnt_sim::Address;

    fn sample_trace(n: u64) -> AccessBatch {
        (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    MemoryAccess::write(Address::new(0x1000 + i * 8), 8, i.wrapping_mul(0x9E37))
                } else {
                    MemoryAccess::read(Address::new(0x1000 + i * 8), 8)
                }
            })
            .collect()
    }

    fn packed(n: u64, chunk_accesses: u32) -> Vec<u8> {
        let mut bytes = Vec::new();
        pack_accesses(&sample_trace(n), &mut bytes, chunk_accesses).expect("packs");
        bytes
    }

    #[test]
    fn round_trips_across_chunks() {
        let trace = sample_trace(100);
        let bytes = packed(100, 7);
        let back = read_trace(&bytes[..], ReadOptions::default()).expect("reads");
        assert_eq!(back, trace);
    }

    #[test]
    fn stats_count_reads() {
        let bytes = packed(100, 7);
        let mut reader = StreamReader::new(&bytes[..], ReadOptions::default()).expect("opens");
        let mut total = 0usize;
        while let Some((_, accesses)) = reader.next_chunk().expect("streams") {
            total += accesses.len();
        }
        assert_eq!(total, 100);
        let stats = reader.stats();
        assert_eq!(stats.chunks_read, 15); // ceil(100 / 7)
        assert_eq!(stats.accesses_declared, 100);
        assert_eq!(stats.chunks_skipped, 0);
        assert!(stats.bytes_read > 0);
    }

    #[test]
    fn truncated_payload_is_fatal_even_when_skipping() {
        let bytes = packed(20, 5);
        let cut = &bytes[..bytes.len() - 3];
        let mut reader = StreamReader::new(
            cut,
            ReadOptions {
                corruption: CorruptionPolicy::SkipWithReport,
                ..ReadOptions::default()
            },
        )
        .expect("opens");
        let mut err = None;
        loop {
            match reader.next_chunk() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(matches!(err, Some(TraceError::Truncated { .. })), "{err:?}");
    }

    #[test]
    fn flipped_payload_bit_fails_fast_or_skips() {
        let mut bytes = packed(20, 5);
        // Flip one payload bit in the second chunk. Layout: header,
        // then frames+payloads; find the second payload start.
        let second_payload =
            HEADER_BYTES + FRAME_BYTES + chunk_payload_len(&bytes, 0) + FRAME_BYTES;
        bytes[second_payload + 2] ^= 0x40;

        let err = read_trace(&bytes[..], ReadOptions::default()).unwrap_err();
        assert!(
            matches!(err, TraceError::CrcMismatch { chunk: 1, .. }),
            "{err}"
        );

        let mut reader = StreamReader::new(
            &bytes[..],
            ReadOptions {
                corruption: CorruptionPolicy::SkipWithReport,
                ..ReadOptions::default()
            },
        )
        .expect("opens");
        let mut seen = Vec::new();
        while let Some((index, accesses)) = reader.next_chunk().expect("skips damage") {
            seen.push((index, accesses.len()));
        }
        assert_eq!(seen, vec![(0, 5), (2, 5), (3, 5)]);
        let stats = reader.stats();
        assert_eq!(stats.crc_failures, 1);
        assert_eq!(stats.chunks_skipped, 1);
        assert_eq!(stats.chunks_read, 3);
    }

    #[test]
    fn oversized_chunk_is_rejected_by_budget() {
        let bytes = packed(100, 100); // one big chunk: 100 records
        let err = read_trace(
            &bytes[..],
            ReadOptions {
                budget_bytes: 64,
                ..ReadOptions::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, TraceError::ChunkExceedsBudget { chunk: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn would_exceed_leaves_chunk_pending() {
        let bytes = packed(10, 5); // two chunks
        let mut reader = StreamReader::new(&bytes[..], ReadOptions::default()).expect("opens");
        let first = match reader.next_raw_within(usize::MAX).expect("fetch") {
            Fetch::Chunk(raw) => raw,
            other => panic!("expected chunk, got {other:?}"),
        };
        // Window too small for the second chunk: it must stay pending.
        let needed = match reader.next_raw_within(1).expect("fetch") {
            Fetch::WouldExceed { chunk, needed } => {
                assert_eq!(chunk, first.index + 1, "pending chunk is identified");
                needed
            }
            other => panic!("expected overflow, got {other:?}"),
        };
        assert!(needed > 1);
        // A fresh window picks it up, identical content.
        let second = match reader.next_raw_within(needed).expect("fetch") {
            Fetch::Chunk(raw) => raw,
            other => panic!("expected chunk, got {other:?}"),
        };
        assert_eq!(second.index, first.index + 1);
        assert!(matches!(
            reader.next_raw_within(usize::MAX).expect("fetch"),
            Fetch::Eof
        ));
    }

    #[test]
    fn identity_tracks_consumed_prefix() {
        let bytes = packed(40, 5);
        let mut a = StreamReader::new(&bytes[..], ReadOptions::default()).expect("opens");
        let mut b = StreamReader::new(&bytes[..], ReadOptions::default()).expect("opens");
        assert_eq!(a.identity(), b.identity(), "same header, same digest");
        a.next_raw().expect("reads").expect("chunk");
        assert_ne!(a.identity(), b.identity(), "digest advances per chunk");
        b.next_raw().expect("reads").expect("chunk");
        assert_eq!(a.identity(), b.identity());
        assert_eq!(a.cursor(), 1);
        // A lookahead frame (window overflow) is not part of the digest.
        let before = a.identity();
        assert!(matches!(
            a.next_raw_within(1).expect("fetch"),
            Fetch::WouldExceed { .. }
        ));
        assert_eq!(a.identity(), before);
        assert_eq!(a.cursor(), 1);
        // A re-pack of different content diverges even with identical
        // chunking: the affected chunk's recorded CRC-32 lands in its
        // frame, and the frame feeds the digest.
        let trace: AccessBatch = (0..40)
            .map(|i| {
                if i == 39 {
                    MemoryAccess::write(Address::new(0x1000 + i * 8), 8, 0xdead_beef)
                } else if i % 3 == 0 {
                    MemoryAccess::write(Address::new(0x1000 + i * 8), 8, i.wrapping_mul(0x9E37))
                } else {
                    MemoryAccess::read(Address::new(0x1000 + i * 8), 8)
                }
            })
            .collect();
        let mut other = Vec::new();
        pack_accesses(&trace, &mut other, 5).expect("packs");
        assert_eq!(other.len(), bytes.len(), "same structure, different bytes");
        let mut c = StreamReader::new(&other[..], ReadOptions::default()).expect("opens");
        while c.next_raw().expect("reads").is_some() {}
        let mut full = StreamReader::new(&bytes[..], ReadOptions::default()).expect("opens");
        while full.next_raw().expect("reads").is_some() {}
        assert_ne!(c.identity(), full.identity());
    }

    #[test]
    fn seek_to_chunk_matches_sequential_consumption() {
        let bytes = packed(100, 7);
        for target in [0u64, 1, 7, 14, 15] {
            let mut seq = StreamReader::new(&bytes[..], ReadOptions::default()).expect("opens");
            for _ in 0..target {
                seq.next_raw().expect("reads").expect("chunk");
            }
            let mut seeked =
                StreamReader::new(std::io::Cursor::new(&bytes[..]), ReadOptions::default())
                    .expect("opens");
            seeked.seek_to_chunk(target).expect("seeks");
            assert_eq!(seeked.identity(), seq.identity(), "target {target}");
            assert_eq!(seeked.cursor(), seq.cursor());
            assert_eq!(seeked.stats(), seq.stats());
            // The remainder streams identically.
            loop {
                let a = seq.next_raw().expect("reads");
                let b = seeked.next_raw().expect("reads");
                assert_eq!(a, b, "target {target}");
                if a.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn seek_past_end_of_trace_is_truncation() {
        let bytes = packed(20, 5); // 4 chunks
        let mut reader =
            StreamReader::new(std::io::Cursor::new(&bytes[..]), ReadOptions::default())
                .expect("opens");
        let err = reader.seek_to_chunk(5).unwrap_err();
        assert!(matches!(err, TraceError::Truncated { .. }), "{err}");
        // A payload cut below the seek target is caught during the seek.
        let cut = &bytes[..bytes.len() - 3];
        let mut reader =
            StreamReader::new(std::io::Cursor::new(cut), ReadOptions::default()).expect("opens");
        let err = reader.seek_to_chunk(4).unwrap_err();
        assert!(matches!(err, TraceError::Truncated { .. }), "{err}");
    }

    /// A `Read + Seek` source that counts bytes actually *read* (seeks
    /// are free), to prove resume cost is O(frames), not O(payload).
    struct CountingSource<'a> {
        inner: std::io::Cursor<&'a [u8]>,
        bytes_read: std::rc::Rc<std::cell::Cell<u64>>,
    }

    impl Read for CountingSource<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.bytes_read.set(self.bytes_read.get() + n as u64);
            Ok(n)
        }
    }

    impl Seek for CountingSource<'_> {
        fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
            self.inner.seek(pos)
        }
    }

    #[test]
    fn seek_cost_is_frames_not_payloads() {
        // Large chunks: payload bytes dwarf frame bytes.
        let bytes = packed(4_000, 500); // 8 chunks, ~5 KB payload each
        let counter = std::rc::Rc::new(std::cell::Cell::new(0u64));
        let src = CountingSource {
            inner: std::io::Cursor::new(&bytes[..]),
            bytes_read: counter.clone(),
        };
        let mut reader = StreamReader::new(src, ReadOptions::default()).expect("opens");
        reader.seek_to_chunk(8).expect("seeks");
        let read = counter.get();
        let frames_only = (HEADER_BYTES + 8 * FRAME_BYTES) as u64;
        assert_eq!(
            read,
            frames_only,
            "seek must read exactly the header and frames ({frames_only} bytes), \
             never payloads (file is {} bytes)",
            bytes.len()
        );
    }

    fn packed_compressed(n: u64, chunk_accesses: u32) -> Vec<u8> {
        let mut bytes = Vec::new();
        crate::writer::pack_accesses_with(
            &sample_trace(n),
            &mut bytes,
            crate::writer::WriteOptions {
                chunk_accesses,
                compress: true,
            },
        )
        .expect("packs");
        bytes
    }

    #[test]
    fn compressed_stream_round_trips_transparently() {
        let trace = sample_trace(100);
        let bytes = packed_compressed(100, 7);
        let back = read_trace(&bytes[..], ReadOptions::default()).expect("reads");
        assert_eq!(back, trace);
    }

    #[test]
    fn damaged_compressed_chunk_follows_corruption_policy() {
        let mut bytes = packed_compressed(40, 10);
        // Flip a bit in the middle of the second chunk's DEFLATE stream.
        let second_payload =
            HEADER_BYTES + FRAME_BYTES + chunk_payload_len(&bytes, 0) + FRAME_BYTES;
        let mid = second_payload + chunk_payload_len(&bytes, 1) / 2;
        bytes[mid] ^= 0x10;

        // Fail-fast: either the inflater chokes (Decompress) or it
        // happens to produce wrong bytes the CRC catches (CrcMismatch).
        // Both are chunk-1 damage, and both are skippable.
        let err = read_trace(&bytes[..], ReadOptions::default()).unwrap_err();
        assert!(
            matches!(
                err,
                TraceError::Decompress { chunk: 1, .. } | TraceError::CrcMismatch { chunk: 1, .. }
            ),
            "{err}"
        );
        assert!(err.is_skippable());

        let mut reader = StreamReader::new(
            &bytes[..],
            ReadOptions {
                corruption: CorruptionPolicy::SkipWithReport,
                ..ReadOptions::default()
            },
        )
        .expect("opens");
        let mut seen = Vec::new();
        while let Some((index, accesses)) = reader.next_chunk().expect("skips damage") {
            seen.push((index, accesses.len()));
        }
        assert_eq!(seen, vec![(0, 10), (2, 10), (3, 10)]);
        let stats = reader.stats();
        assert_eq!(stats.chunks_skipped, 1);
        assert_eq!(stats.crc_failures + stats.decompress_failures, 1);
    }

    #[test]
    fn compressed_chunk_inflating_past_budget_is_per_chunk_damage() {
        // A tiny budget that admits the compressed on-disk payload but
        // not the inflated records: the chunk must be rejected as
        // damage, not silently truncated.
        let bytes = packed_compressed(2000, 2000); // one chunk, highly compressible
        let on_disk = chunk_payload_len(&bytes, 0);
        let budget = on_disk + 64; // > compressed size, << inflated size
        let err = read_trace(
            &bytes[..],
            ReadOptions {
                budget_bytes: budget,
                ..ReadOptions::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, TraceError::Decompress { chunk: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn seek_works_on_compressed_traces() {
        let bytes = packed_compressed(100, 7);
        let mut seq = StreamReader::new(&bytes[..], ReadOptions::default()).expect("opens");
        for _ in 0..7 {
            seq.next_raw().expect("reads").expect("chunk");
        }
        let mut seeked =
            StreamReader::new(std::io::Cursor::new(&bytes[..]), ReadOptions::default())
                .expect("opens");
        seeked.seek_to_chunk(7).expect("seeks");
        assert_eq!(seeked.identity(), seq.identity());
        loop {
            let a = seq.next_raw().expect("reads");
            let b = seeked.next_raw().expect("reads");
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = packed(4, 2);
        bytes[0] = b'X';
        assert!(matches!(
            StreamReader::new(&bytes[..], ReadOptions::default()),
            Err(TraceError::BadMagic { .. })
        ));
    }

    fn chunk_payload_len(bytes: &[u8], nth: usize) -> usize {
        let mut offset = HEADER_BYTES;
        for _ in 0..nth {
            let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
            offset += FRAME_BYTES + len;
        }
        u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize
    }
}
