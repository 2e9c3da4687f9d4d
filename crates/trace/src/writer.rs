//! Packing accesses into `.ctr` chunks.
//!
//! [`TraceWriter`] buffers at most one chunk of records before flushing
//! its frame + payload to the sink, so packing a multi-GB stream needs
//! only chunk-sized memory. [`pack_accesses`] and [`pack_accesses_with`]
//! are the convenience one-shots built on it; an in-memory
//! [`AccessBatch`](cnt_sim::trace::AccessBatch) packs by reference.

use std::io::Write;

use cnt_sim::trace::MemoryAccess;

use crate::crc32;
use crate::error::TraceError;
use crate::format::{encode_access, Frame, Header, FLAG_COMPRESSED, VERSION, VERSION_COMPRESSED};

/// Default target accesses per chunk (~72 KiB of write-heavy payload).
pub const DEFAULT_CHUNK_ACCESSES: u32 = 4096;

/// Writer configuration beyond the sink itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOptions {
    /// Target access records per chunk (clamped to at least 1).
    pub chunk_accesses: u32,
    /// DEFLATE-compress each chunk payload. Compressed files carry
    /// [`VERSION_COMPRESSED`] + [`FLAG_COMPRESSED`] in the header, so
    /// version-1 readers reject them with a typed
    /// [`TraceError::UnsupportedVersion`] rather than misread the
    /// frames. The frame CRC-32 is always computed over the
    /// *uncompressed* payload — corruption checks survive whatever the
    /// codec does on disk.
    pub compress: bool,
}

impl Default for WriteOptions {
    fn default() -> Self {
        WriteOptions {
            chunk_accesses: DEFAULT_CHUNK_ACCESSES,
            compress: false,
        }
    }
}

/// What one packing pass produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PackSummary {
    /// Chunks written.
    pub chunks: u64,
    /// Access records written.
    pub accesses: u64,
    /// Payload bytes written (excluding header and frames).
    pub payload_bytes: u64,
}

/// A streaming `.ctr` writer: push accesses, chunks flush themselves.
///
/// # Example
///
/// ```
/// use cnt_sim::trace::MemoryAccess;
/// use cnt_sim::Address;
/// use cnt_trace::writer::TraceWriter;
///
/// let mut bytes = Vec::new();
/// let mut writer = TraceWriter::new(&mut bytes, 2).expect("header writes");
/// for i in 0..5u64 {
///     writer.push(&MemoryAccess::read(Address::new(i * 8), 8)).expect("packs");
/// }
/// let summary = writer.finish().expect("flushes");
/// assert_eq!(summary.chunks, 3); // 2 + 2 + 1
/// assert_eq!(summary.accesses, 5);
/// ```
pub struct TraceWriter<W: Write> {
    sink: W,
    chunk_accesses: u32,
    compress: bool,
    payload: Vec<u8>,
    pending: u32,
    summary: PackSummary,
}

impl<W: Write> TraceWriter<W> {
    /// Writes the file header and returns a writer targeting
    /// `chunk_accesses` records per chunk (clamped to at least 1).
    ///
    /// # Errors
    ///
    /// Propagates sink I/O errors.
    pub fn new(sink: W, chunk_accesses: u32) -> Result<Self, TraceError> {
        TraceWriter::with_options(
            sink,
            WriteOptions {
                chunk_accesses,
                ..WriteOptions::default()
            },
        )
    }

    /// Writes the file header and returns a writer configured by
    /// `options` (see [`WriteOptions`] for the compression contract).
    ///
    /// # Errors
    ///
    /// Propagates sink I/O errors.
    pub fn with_options(mut sink: W, options: WriteOptions) -> Result<Self, TraceError> {
        let chunk_accesses = options.chunk_accesses.max(1);
        let header = Header {
            version: if options.compress {
                VERSION_COMPRESSED
            } else {
                VERSION
            },
            flags: if options.compress { FLAG_COMPRESSED } else { 0 },
            chunk_target: chunk_accesses,
        };
        sink.write_all(&header.to_bytes())?;
        Ok(TraceWriter {
            sink,
            chunk_accesses,
            compress: options.compress,
            payload: Vec::new(),
            pending: 0,
            summary: PackSummary::default(),
        })
    }

    /// Appends one access, flushing a chunk when the target is reached.
    ///
    /// # Errors
    ///
    /// Propagates sink I/O errors.
    pub fn push(&mut self, access: &MemoryAccess) -> Result<(), TraceError> {
        encode_access(access, &mut self.payload);
        self.pending += 1;
        self.summary.accesses += 1;
        if self.pending >= self.chunk_accesses {
            self.flush_chunk()?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> Result<(), TraceError> {
        if self.pending == 0 {
            return Ok(());
        }
        // The CRC always covers the uncompressed records; a reader
        // inflates first, then checks, so on-disk codec damage and
        // record damage are caught by the same field.
        let crc = crc32(&self.payload);
        let compressed: Option<Vec<u8>> = if self.compress {
            let mut encoder =
                flate2::write::DeflateEncoder::new(Vec::new(), flate2::Compression::default());
            encoder.write_all(&self.payload)?;
            Some(encoder.finish()?)
        } else {
            None
        };
        let on_disk: &[u8] = compressed.as_deref().unwrap_or(&self.payload);
        let frame = Frame {
            payload_len: u32::try_from(on_disk.len()).expect("chunk payloads are small"),
            access_count: self.pending,
            crc32: crc,
        };
        self.sink.write_all(&frame.to_bytes())?;
        self.sink.write_all(on_disk)?;
        self.summary.chunks += 1;
        self.summary.payload_bytes += on_disk.len() as u64;
        self.payload.clear();
        self.pending = 0;
        Ok(())
    }

    /// Flushes the trailing partial chunk and the sink, returning the
    /// pack summary.
    ///
    /// # Errors
    ///
    /// Propagates sink I/O errors.
    pub fn finish(mut self) -> Result<PackSummary, TraceError> {
        self.flush_chunk()?;
        self.sink.flush()?;
        Ok(self.summary)
    }
}

/// Packs any access stream into `.ctr` form without materializing it.
///
/// # Errors
///
/// Propagates sink I/O errors.
pub fn pack_accesses<I, W>(
    accesses: I,
    sink: W,
    chunk_accesses: u32,
) -> Result<PackSummary, TraceError>
where
    I: IntoIterator<Item = MemoryAccess>,
    W: Write,
{
    pack_accesses_with(
        accesses,
        sink,
        WriteOptions {
            chunk_accesses,
            ..WriteOptions::default()
        },
    )
}

/// Packs any access stream with explicit [`WriteOptions`].
///
/// # Errors
///
/// Propagates sink I/O errors.
pub fn pack_accesses_with<I, W>(
    accesses: I,
    sink: W,
    options: WriteOptions,
) -> Result<PackSummary, TraceError>
where
    I: IntoIterator<Item = MemoryAccess>,
    W: Write,
{
    let mut writer = TraceWriter::with_options(sink, options)?;
    for access in accesses {
        writer.push(&access)?;
    }
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{FRAME_BYTES, HEADER_BYTES};
    use cnt_sim::trace::AccessBatch;
    use cnt_sim::Address;

    #[test]
    fn empty_trace_is_just_a_header() {
        let mut bytes = Vec::new();
        let summary = pack_accesses(&AccessBatch::new(), &mut bytes, 64).expect("packs");
        assert_eq!(bytes.len(), HEADER_BYTES);
        assert_eq!(summary, PackSummary::default());
    }

    #[test]
    fn chunking_splits_on_target() {
        let trace: AccessBatch = (0..10)
            .map(|i| MemoryAccess::read(Address::new(i * 8), 8))
            .collect();
        let mut bytes = Vec::new();
        let summary = pack_accesses(&trace, &mut bytes, 4).expect("packs");
        assert_eq!(summary.chunks, 3); // 4 + 4 + 2
        assert_eq!(summary.accesses, 10);
        assert_eq!(summary.payload_bytes, 10 * 10);
        assert_eq!(
            bytes.len(),
            HEADER_BYTES + 3 * FRAME_BYTES + summary.payload_bytes as usize
        );
    }

    #[test]
    fn compressed_pack_carries_v2_header_and_shrinks() {
        use crate::format::{Header, FLAG_COMPRESSED, VERSION_COMPRESSED};
        // A strided read loop: highly repetitive payload bytes.
        let trace: AccessBatch = (0..2000)
            .map(|i| MemoryAccess::read(Address::new(0x1000 + i * 64), 8))
            .collect();
        let mut plain = Vec::new();
        pack_accesses(&trace, &mut plain, 256).expect("packs");
        let mut packed = Vec::new();
        let summary = pack_accesses_with(
            &trace,
            &mut packed,
            WriteOptions {
                chunk_accesses: 256,
                compress: true,
            },
        )
        .expect("packs compressed");
        assert_eq!(summary.accesses, 2000);
        let header =
            Header::from_bytes(&packed[..HEADER_BYTES].try_into().expect("16 bytes")).unwrap();
        assert_eq!(header.version, VERSION_COMPRESSED);
        assert_eq!(header.flags & FLAG_COMPRESSED, FLAG_COMPRESSED);
        assert!(header.compressed());
        assert!(
            packed.len() < plain.len() / 2,
            "strided reads must compress: {} -> {}",
            plain.len(),
            packed.len()
        );
    }

    #[test]
    fn zero_chunk_target_is_clamped() {
        let trace: AccessBatch = (0..3)
            .map(|i| MemoryAccess::read(Address::new(i * 8), 8))
            .collect();
        let mut bytes = Vec::new();
        let summary = pack_accesses(&trace, &mut bytes, 0).expect("packs");
        assert_eq!(summary.chunks, 3, "clamped to one access per chunk");
    }
}
