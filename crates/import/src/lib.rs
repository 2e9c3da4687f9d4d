//! # cnt-import — real-application trace importers for CNT-Cache
//!
//! The synthetic kernels in `cnt-workloads` exercise known access
//! shapes; answering "what does the adaptive encoder save on a *real*
//! program" needs captures from real tools. This crate ingests the two
//! interchange formats those tools actually emit and converts them to
//! the repo's chunked `.ctr` format, where the whole replay/energy
//! pipeline (streaming, checkpoints, benches, `cnt-serve`) picks them
//! up unchanged:
//!
//! - [`champsim`] — ChampSim-style packed binary instruction records
//!   (64-byte `input_instr` structs);
//! - [`text`] — DynamoRIO/memtrace-style text streams
//!   (`R 0x7f.. / W 0x7f.. 8 0x..` lines);
//! - both transparently accepted gzip-compressed (detected by magic),
//!   via the vendored DEFLATE shim.
//!
//! The design stance mirrors the `.ctr` reader: **strict by default**.
//! Every malformed record is a typed [`ImportError`] carrying a line
//! number or byte offset; nothing is silently skipped. `--lenient` is
//! an explicit opt-in that drops damaged records and accounts for
//! every drop in the [`ImportReport`], which is also where automation
//! (CI's `metrics_lint`) checks that the importer's arithmetic holds.
//!
//! Inputs are buffered in memory: interchange captures are bounded
//! (unlike `.ctr` replay, which must stream), and the gzip shim
//! decodes whole members anyway. The `.ctr` *output* is written
//! through the streaming [`cnt_trace::TraceWriter`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod champsim;
pub mod error;
pub mod text;

use std::fs;
use std::io::Write;
use std::path::Path;

use cnt_sim::trace::{AccessBatch, AccessKind};
use cnt_trace::writer::WriteOptions;
use cnt_trace::{ReadOptions, StreamReader, TraceWriter};
use serde::{Deserialize, Serialize};

pub use error::ImportError;

/// Which foreign format an input is parsed as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceFormat {
    /// ChampSim-style packed 64-byte binary records.
    Champsim,
    /// DynamoRIO/memtrace-style text lines.
    Memtrace,
}

impl SourceFormat {
    /// Stable lowercase name used in reports and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            SourceFormat::Champsim => "champsim",
            SourceFormat::Memtrace => "memtrace",
        }
    }

    /// Parses a CLI flag value.
    pub fn from_flag(flag: &str) -> Option<Self> {
        match flag {
            "champsim" => Some(SourceFormat::Champsim),
            "memtrace" | "text" => Some(SourceFormat::Memtrace),
            _ => None,
        }
    }
}

/// Importer configuration.
#[derive(Debug, Clone, Copy)]
pub struct ImportOptions {
    /// Source format; `None` sniffs it from the (decompressed) bytes.
    pub format: Option<SourceFormat>,
    /// Drop damaged records (counted in the report) instead of failing
    /// on the first one.
    pub lenient: bool,
    /// Target accesses per `.ctr` chunk.
    pub chunk_accesses: u32,
    /// DEFLATE-compress the `.ctr` chunk payloads.
    pub compress: bool,
}

impl Default for ImportOptions {
    fn default() -> Self {
        ImportOptions {
            format: None,
            lenient: false,
            chunk_accesses: cnt_trace::DEFAULT_CHUNK_ACCESSES,
            compress: false,
        }
    }
}

/// What one import produced — the machine-readable receipt.
///
/// The arithmetic is deliberately redundant (`accesses` must equal
/// `reads + writes + ifetches`; `dropped > 0` only with `lenient`) so
/// `metrics_lint` can cross-check an import after the fact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImportReport {
    /// Input path (or `"<memory>"` for in-memory imports).
    pub source: String,
    /// Format the input was parsed as (`"champsim"` / `"memtrace"`).
    pub format: String,
    /// Whether the input was gzip-wrapped.
    pub gzip: bool,
    /// Whether lenient mode was on.
    pub lenient: bool,
    /// Source records seen (text lines / binary structs), including
    /// dropped ones but not comments or blank lines.
    pub records_in: u64,
    /// Accesses written to the `.ctr` output.
    pub accesses: u64,
    /// Data loads among `accesses`.
    pub reads: u64,
    /// Data stores among `accesses`.
    pub writes: u64,
    /// Instruction fetches among `accesses`.
    pub ifetches: u64,
    /// Records dropped (always 0 unless `lenient`).
    pub dropped: u64,
    /// The first drop's error text, for triage.
    #[serde(default)]
    pub first_drop: Option<String>,
    /// Chunks in the `.ctr` output.
    pub chunks: u64,
    /// Payload bytes in the `.ctr` output (compressed size when
    /// compression is on).
    pub payload_bytes: u64,
    /// Total `.ctr` output size in bytes.
    pub output_bytes: u64,
    /// The output's trace-identity digest (FNV-1a over header and
    /// frames, as `cnt_trace::StreamReader::identity` computes it),
    /// in hex. Re-importing the same source must reproduce it.
    pub identity: String,
}

/// Accesses accumulated by a format parser, with drop accounting.
#[derive(Debug, Default)]
pub struct ParsedStream {
    /// The demand accesses, in source order.
    pub accesses: AccessBatch,
    /// Source records seen (including dropped).
    pub records_in: u64,
    /// Records dropped under lenient mode.
    pub dropped: u64,
    /// The first drop's rendered error.
    pub first_drop: Option<String>,
}

impl ParsedStream {
    /// Counts one lenient-mode drop, keeping the first error text.
    pub fn drop_record(&mut self, error: &ImportError) {
        self.dropped += 1;
        if self.first_drop.is_none() {
            self.first_drop = Some(error.to_string());
        }
    }
}

/// SplitMix64 — the repo's standard cheap deterministic value hash,
/// used to synthesize write payloads for formats that don't record
/// data bytes.
pub(crate) fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sniffs the source format from decompressed bytes: a stream whose
/// first non-whitespace bytes look like memtrace lines (an opcode
/// letter followed by whitespace, or a `#` comment) is text; anything
/// else is treated as packed binary records.
pub fn sniff_format(bytes: &[u8]) -> SourceFormat {
    let head = bytes.iter().position(|b| !b.is_ascii_whitespace());
    match head {
        None => SourceFormat::Memtrace, // empty: harmless either way
        Some(i) => match bytes[i] {
            b'#' => SourceFormat::Memtrace,
            b'R' | b'W' | b'I' | b'r' | b'w' | b'i'
                if bytes.get(i + 1).is_some_and(|b| b.is_ascii_whitespace()) =>
            {
                SourceFormat::Memtrace
            }
            _ => SourceFormat::Champsim,
        },
    }
}

/// Imports raw input bytes into `.ctr` bytes plus the report.
///
/// This is the pure core of [`import_file`]: gzip detection and
/// decompression, format sniffing, strict/lenient parsing, `.ctr`
/// packing, and identity computation — no filesystem involved.
///
/// # Errors
///
/// Any [`ImportError`]; in strict mode the first malformed record.
pub fn import_bytes(
    raw: &[u8],
    source: &str,
    opts: ImportOptions,
) -> Result<(Vec<u8>, ImportReport), ImportError> {
    let gzip = flate2::is_gzip(raw);
    let decompressed: Vec<u8>;
    let bytes: &[u8] = if gzip {
        let mut decoder = flate2::read::GzDecoder::new(raw);
        let mut out = Vec::new();
        std::io::Read::read_to_end(&mut decoder, &mut out).map_err(|e| ImportError::Gzip {
            what: e.to_string(),
        })?;
        decompressed = out;
        &decompressed
    } else {
        raw
    };

    let format = opts.format.unwrap_or_else(|| sniff_format(bytes));
    let parsed = match format {
        SourceFormat::Champsim => champsim::parse_champsim(bytes, opts.lenient)?,
        SourceFormat::Memtrace => text::parse_text(bytes, opts.lenient)?,
    };
    if parsed.accesses.is_empty() {
        return Err(ImportError::Empty);
    }

    let mut ctr = Vec::new();
    let mut writer = TraceWriter::with_options(
        &mut ctr,
        WriteOptions {
            chunk_accesses: opts.chunk_accesses,
            compress: opts.compress,
        },
    )?;
    let (mut reads, mut writes, mut ifetches) = (0u64, 0u64, 0u64);
    for access in &parsed.accesses {
        match access.kind {
            AccessKind::Read => reads += 1,
            AccessKind::Write => writes += 1,
            AccessKind::InstrFetch => ifetches += 1,
        }
        writer.push(&access)?;
    }
    let summary = writer.finish()?;

    // Stream the produced bytes back through the real reader: this both
    // proves the output replays and yields the identity digest the
    // report promises.
    let mut reader = StreamReader::new(&ctr[..], ReadOptions::default())?;
    while reader.next_raw()?.is_some() {}
    let identity = format!("{:016x}", reader.identity());

    let report = ImportReport {
        source: source.to_string(),
        format: format.name().to_string(),
        gzip,
        lenient: opts.lenient,
        records_in: parsed.records_in,
        accesses: summary.accesses,
        reads,
        writes,
        ifetches,
        dropped: parsed.dropped,
        first_drop: parsed.first_drop,
        chunks: summary.chunks,
        payload_bytes: summary.payload_bytes,
        output_bytes: ctr.len() as u64,
        identity,
    };
    Ok((ctr, report))
}

/// Imports `input` (a ChampSim/memtrace capture, plain or gzip'd) into
/// a `.ctr` file at `output`, returning the report.
///
/// The output is written atomically (`.tmp` + rename) so a failed
/// import never leaves a half-written trace behind.
///
/// # Errors
///
/// Any [`ImportError`].
pub fn import_file(
    input: &Path,
    output: &Path,
    opts: ImportOptions,
) -> Result<ImportReport, ImportError> {
    let raw = fs::read(input)?;
    let (ctr, report) = import_bytes(&raw, &input.display().to_string(), opts)?;
    let tmp = output.with_extension("ctr.tmp");
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(&ctr)?;
        file.sync_all()?;
    }
    fs::rename(&tmp, output)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnt_trace::read_trace;

    const TEXT: &[u8] = b"# fixture\nR 0x1000\nW 0x2000 8 0xff\nI 0x401000\nR 0x1040 4\n";

    fn gzip(bytes: &[u8]) -> Vec<u8> {
        let mut encoder = flate2::write::GzEncoder::new(Vec::new(), flate2::Compression::default());
        encoder.write_all(bytes).expect("buffers");
        encoder.finish().expect("compresses")
    }

    fn champsim_bytes() -> Vec<u8> {
        let mut bytes = Vec::new();
        for i in 0..5u64 {
            let mut record = [0u8; champsim::RECORD_BYTES];
            record[..8].copy_from_slice(&(0x401000 + i * 4).to_le_bytes());
            record[32..40].copy_from_slice(&(0x1000 + i * 64).to_le_bytes());
            if i % 2 == 0 {
                record[16..24].copy_from_slice(&(0x5000 + i * 64).to_le_bytes());
            }
            bytes.extend_from_slice(&record);
        }
        bytes
    }

    #[test]
    fn sniffs_text_vs_binary() {
        assert_eq!(sniff_format(TEXT), SourceFormat::Memtrace);
        assert_eq!(sniff_format(&champsim_bytes()), SourceFormat::Champsim);
        assert_eq!(sniff_format(b"  R 0x10\n"), SourceFormat::Memtrace);
        // 'R' followed by non-whitespace is not a memtrace line.
        assert_eq!(sniff_format(b"RIFF...."), SourceFormat::Champsim);
    }

    #[test]
    fn text_import_round_trips_and_reports() {
        let (ctr, report) =
            import_bytes(TEXT, "<memory>", ImportOptions::default()).expect("imports");
        assert_eq!(report.format, "memtrace");
        assert!(!report.gzip);
        assert_eq!(report.records_in, 4);
        assert_eq!(report.accesses, 4);
        assert_eq!(report.reads, 2);
        assert_eq!(report.writes, 1);
        assert_eq!(report.ifetches, 1);
        assert_eq!(report.dropped, 0);
        assert_eq!(
            report.accesses,
            report.reads + report.writes + report.ifetches
        );
        assert_eq!(report.output_bytes, ctr.len() as u64);
        let trace = read_trace(&ctr[..], ReadOptions::default()).expect("replays");
        assert_eq!(trace.len(), 4);
    }

    #[test]
    fn gzip_wrapped_input_imports_to_identical_ctr() {
        let plain = import_bytes(TEXT, "<memory>", ImportOptions::default()).expect("imports");
        let gz = gzip(TEXT);
        let wrapped = import_bytes(&gz, "<memory>", ImportOptions::default()).expect("imports gz");
        assert!(wrapped.1.gzip);
        assert_eq!(plain.0, wrapped.0, "gzip transparency: same .ctr bytes");
        assert_eq!(plain.1.identity, wrapped.1.identity);
    }

    #[test]
    fn damaged_gzip_is_a_typed_error_even_in_lenient_mode() {
        let mut gz = gzip(TEXT);
        let mid = gz.len() / 2;
        gz[mid] ^= 0x20;
        let opts = ImportOptions {
            lenient: true,
            ..ImportOptions::default()
        };
        let err = import_bytes(&gz, "<memory>", opts).expect_err("rejects");
        assert!(matches!(err, ImportError::Gzip { .. }), "{err}");
    }

    #[test]
    fn champsim_import_reports_access_mix() {
        let bytes = champsim_bytes();
        let (ctr, report) =
            import_bytes(&bytes, "<memory>", ImportOptions::default()).expect("imports");
        assert_eq!(report.format, "champsim");
        assert_eq!(report.records_in, 5);
        assert_eq!(report.ifetches, 5);
        assert_eq!(report.reads, 5);
        assert_eq!(report.writes, 3);
        assert_eq!(report.accesses, 13);
        let trace = read_trace(&ctr[..], ReadOptions::default()).expect("replays");
        assert_eq!(trace.len(), 13);
    }

    #[test]
    fn reimport_is_byte_identical() {
        for compress in [false, true] {
            let opts = ImportOptions {
                compress,
                ..ImportOptions::default()
            };
            let a = import_bytes(TEXT, "<memory>", opts).expect("imports");
            let b = import_bytes(TEXT, "<memory>", opts).expect("imports");
            assert_eq!(a.0, b.0, "compress={compress}");
            assert_eq!(a.1, b.1);
        }
    }

    #[test]
    fn compressed_output_still_replays() {
        let opts = ImportOptions {
            compress: true,
            chunk_accesses: 2,
            ..ImportOptions::default()
        };
        let (ctr, report) = import_bytes(TEXT, "<memory>", opts).expect("imports");
        let plain = import_bytes(TEXT, "<memory>", ImportOptions::default()).expect("imports");
        let a = read_trace(&ctr[..], ReadOptions::default()).expect("replays");
        let b = read_trace(&plain.0[..], ReadOptions::default()).expect("replays");
        assert_eq!(a, b, "compression must not change the replayed accesses");
        assert_eq!(report.accesses, 4);
    }

    #[test]
    fn empty_input_is_refused() {
        for input in [&b""[..], b"# only comments\n\n"] {
            let err = import_bytes(input, "<memory>", ImportOptions::default())
                .expect_err("rejects empty");
            assert!(matches!(err, ImportError::Empty), "{err}");
        }
    }

    #[test]
    fn import_file_writes_atomically_and_round_trips() {
        let dir = std::env::temp_dir().join("cnt_import_test");
        fs::create_dir_all(&dir).expect("mkdir");
        let input = dir.join("fixture.txt");
        let output = dir.join("fixture.ctr");
        fs::write(&input, TEXT).expect("writes input");
        let report = import_file(&input, &output, ImportOptions::default()).expect("imports");
        assert_eq!(report.accesses, 4);
        assert!(report.source.ends_with("fixture.txt"));
        let bytes = fs::read(&output).expect("reads output");
        assert_eq!(bytes.len() as u64, report.output_bytes);
        assert!(
            !dir.join("fixture.ctr.tmp").exists(),
            "tmp file renamed away"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
