//! The `.ctrs` checkpoint container: crash-safe snapshots of streamed
//! replays.
//!
//! A checkpoint is an *untrusted input*: a resumed replay must produce
//! byte-identical results to an uninterrupted run, so a damaged or
//! mismatched snapshot has to be rejected outright — never partially
//! restored. The container therefore validates everything up front and
//! reuses the `.ctr` framing discipline (little-endian, length-prefixed,
//! CRC-32 per payload, truncation always fatal):
//!
//! ```text
//! file     := header manifest section*
//! header   := magic[8] version:u16 flags:u16 section_count:u32   (16 bytes)
//! manifest := config_fp:u64 shape_fp:u64 trace_identity:u64
//!             resume_cursor:u64 accesses:u64 crc32:u32 pad:u32   (48 bytes)
//! section  := name_len:u16 pad:u16 payload_len:u32 crc32:u32
//!             name payload                                       (12-byte frame)
//! ```
//!
//! The manifest carries the three identity fields a resume must match:
//! the **config fingerprint** (hash of the full cache configuration),
//! the **trace identity** (rolling digest over the `.ctr` bytes consumed
//! so far — see [`StreamReader::identity`]), and the **resume cursor**
//! (chunks fully consumed). The shape fingerprint is a weaker hash that
//! excludes fork-safe knobs, used by warm-fork sweeps that deliberately
//! vary those knobs.
//!
//! Component state travels in named sections; each component implements
//! [`Checkpointable`] and owns its encoding. Writers go through
//! [`CheckpointFile::write_atomic`] (write to a temp file in the target
//! directory, fsync, rename), so a crash mid-write can never leave a
//! half-written file under the checkpoint's name.
//!
//! [`StreamReader::identity`]: crate::reader::StreamReader::identity

use std::error::Error;
use std::fmt;
use std::io::{self, Write};
use std::path::Path;

use crate::crc32;

/// The eight magic bytes opening every `.ctrs` checkpoint.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"CNTCKPT\0";

/// The checkpoint format version this crate writes and reads.
pub const CHECKPOINT_VERSION: u16 = 1;

/// Size of the fixed checkpoint header in bytes.
pub const CHECKPOINT_HEADER_BYTES: usize = 16;

/// Size of the fixed manifest block in bytes.
pub const MANIFEST_BYTES: usize = 48;

/// Size of each section frame (before name and payload) in bytes.
pub const SECTION_FRAME_BYTES: usize = 12;

/// Everything that can go wrong while writing, reading, or applying a
/// `.ctrs` checkpoint.
#[derive(Debug)]
#[non_exhaustive]
pub enum CheckpointError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// The first bytes are not the `.ctrs` magic.
    BadMagic {
        /// The eight bytes actually found.
        found: [u8; 8],
    },
    /// The header declares a version this reader cannot decode.
    UnsupportedVersion {
        /// The declared version.
        version: u16,
    },
    /// The file ended in the middle of a header, manifest, frame, name,
    /// or payload — or carries trailing bytes past the last section.
    Truncated {
        /// What was being read when the shape broke.
        while_reading: &'static str,
    },
    /// The manifest's stored CRC-32 does not match its bytes.
    ManifestCrc {
        /// CRC-32 recorded in the manifest block.
        stored: u32,
        /// CRC-32 recomputed over the manifest as read.
        computed: u32,
    },
    /// A section's stored CRC-32 does not match its payload.
    SectionCrc {
        /// The section's name (empty if the name itself was unreadable).
        section: String,
        /// CRC-32 recorded in the section frame.
        stored: u32,
        /// CRC-32 recomputed over the payload as read.
        computed: u32,
    },
    /// Two sections share a name — the file was not produced by this
    /// writer.
    DuplicateSection {
        /// The repeated name.
        section: String,
    },
    /// A component's section is absent.
    MissingSection {
        /// The expected name.
        section: &'static str,
    },
    /// The checkpoint was taken under a different cache configuration.
    ConfigMismatch {
        /// Fingerprint of the configuration attempting the resume.
        expected: u64,
        /// Fingerprint recorded in the checkpoint.
        found: u64,
    },
    /// The checkpoint was taken over a different trace file (or the
    /// trace changed on disk since).
    TraceMismatch {
        /// Identity digest of the trace being resumed.
        expected: u64,
        /// Identity digest recorded in the checkpoint.
        found: u64,
    },
    /// A section's payload decoded but described an impossible state
    /// (wrong geometry, counter inconsistencies, malformed JSON, ...).
    BadState {
        /// The offending section.
        section: String,
        /// What was wrong.
        what: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic { found } => {
                write!(f, "not a .ctrs checkpoint (magic bytes {found:02x?})")
            }
            CheckpointError::UnsupportedVersion { version } => {
                write!(f, "unsupported .ctrs checkpoint version {version}")
            }
            CheckpointError::Truncated { while_reading } => {
                write!(f, "truncated checkpoint: bad shape in the {while_reading}")
            }
            CheckpointError::ManifestCrc { stored, computed } => write!(
                f,
                "checkpoint manifest is corrupt: stored CRC32 {stored:#010x}, \
                 computed {computed:#010x}"
            ),
            CheckpointError::SectionCrc {
                section,
                stored,
                computed,
            } => write!(
                f,
                "checkpoint section `{section}` is corrupt: stored CRC32 {stored:#010x}, \
                 computed {computed:#010x}"
            ),
            CheckpointError::DuplicateSection { section } => {
                write!(f, "checkpoint carries section `{section}` twice")
            }
            CheckpointError::MissingSection { section } => {
                write!(f, "checkpoint is missing section `{section}`")
            }
            CheckpointError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint was taken under a different configuration \
                 (fingerprint {found:#018x}, this run is {expected:#018x})"
            ),
            CheckpointError::TraceMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different trace \
                 (identity {found:#018x}, this trace is {expected:#018x})"
            ),
            CheckpointError::BadState { section, what } => {
                write!(f, "checkpoint section `{section}`: {what}")
            }
        }
    }
}

impl Error for CheckpointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// The identity fields a resume must match before any state is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointManifest {
    /// Fingerprint of the complete cache configuration. A `--resume`
    /// requires an exact match.
    pub config_fingerprint: u64,
    /// Fingerprint of the state-shaping subset of the configuration
    /// (geometry, policy kind, protection, ...), excluding knobs a
    /// warm-fork sweep may vary. Warm-fork requires only this to match.
    pub shape_fingerprint: u64,
    /// Rolling digest over the `.ctr` header and every consumed frame.
    pub trace_identity: u64,
    /// Chunks fully consumed when the checkpoint was taken; the resume
    /// seeks the reader here.
    pub resume_cursor: u64,
    /// Accesses replayed when the checkpoint was taken.
    pub accesses: u64,
}

impl CheckpointManifest {
    fn to_bytes(self) -> [u8; MANIFEST_BYTES] {
        let mut out = [0u8; MANIFEST_BYTES];
        out[..8].copy_from_slice(&self.config_fingerprint.to_le_bytes());
        out[8..16].copy_from_slice(&self.shape_fingerprint.to_le_bytes());
        out[16..24].copy_from_slice(&self.trace_identity.to_le_bytes());
        out[24..32].copy_from_slice(&self.resume_cursor.to_le_bytes());
        out[32..40].copy_from_slice(&self.accesses.to_le_bytes());
        let crc = crc32(&out[..40]);
        out[40..44].copy_from_slice(&crc.to_le_bytes());
        // out[44..48] stays zero (pad).
        out
    }

    fn from_bytes(bytes: &[u8; MANIFEST_BYTES]) -> Result<Self, CheckpointError> {
        let stored = u32::from_le_bytes(bytes[40..44].try_into().expect("4 bytes"));
        let computed = crc32(&bytes[..40]);
        if stored != computed {
            return Err(CheckpointError::ManifestCrc { stored, computed });
        }
        let word = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8 bytes"));
        Ok(CheckpointManifest {
            config_fingerprint: word(0),
            shape_fingerprint: word(8),
            trace_identity: word(16),
            resume_cursor: word(24),
            accesses: word(32),
        })
    }
}

/// A component whose state can travel in a named checkpoint section.
///
/// Implementations own their encoding (typically `serde_json` over a
/// dedicated snapshot struct) and must make `restore_state`
/// **all-or-nothing**: decode and validate into a temporary value first,
/// and only then mutate `self`. A failed restore must leave the
/// component exactly as it was.
pub trait Checkpointable {
    /// The section name this component's state travels under.
    fn section_name(&self) -> &'static str;

    /// Serializes the component's state.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::BadState`] if the state cannot be encoded.
    fn encode_state(&self) -> Result<Vec<u8>, CheckpointError>;

    /// Replaces the component's state with a decoded section payload.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::BadState`] for undecodable or impossible
    /// payloads; `self` is untouched on error.
    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), CheckpointError>;
}

/// An in-memory `.ctrs` checkpoint: manifest plus named sections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointFile {
    /// The identity fields.
    pub manifest: CheckpointManifest,
    sections: Vec<(String, Vec<u8>)>,
}

impl CheckpointFile {
    /// An empty checkpoint carrying `manifest`.
    pub fn new(manifest: CheckpointManifest) -> Self {
        CheckpointFile {
            manifest,
            sections: Vec::new(),
        }
    }

    /// Adds a raw named section.
    ///
    /// # Panics
    ///
    /// Panics if the name repeats, is empty, or exceeds `u16::MAX` bytes
    /// — section names are compile-time constants, so these are writer
    /// bugs, not data errors.
    pub fn add_section(&mut self, name: &str, payload: Vec<u8>) {
        assert!(
            !name.is_empty() && name.len() <= usize::from(u16::MAX),
            "bad section name length"
        );
        assert!(
            self.section(name).is_none(),
            "duplicate checkpoint section `{name}`"
        );
        self.sections.push((name.to_string(), payload));
    }

    /// Snapshots a component into its named section.
    ///
    /// # Errors
    ///
    /// As [`Checkpointable::encode_state`].
    pub fn add_component(&mut self, component: &dyn Checkpointable) -> Result<(), CheckpointError> {
        let payload = component.encode_state()?;
        self.add_section(component.section_name(), payload);
        Ok(())
    }

    /// The payload of section `name`, if present.
    pub fn section(&self, name: &str) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| p.as_slice())
    }

    /// The payload of section `name`, or [`CheckpointError::MissingSection`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::MissingSection`] when absent.
    pub fn require(&self, name: &'static str) -> Result<&[u8], CheckpointError> {
        self.section(name)
            .ok_or(CheckpointError::MissingSection { section: name })
    }

    /// Restores a component from its named section.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::MissingSection`] or whatever
    /// [`Checkpointable::restore_state`] reports; the component is
    /// untouched on error.
    pub fn restore_component(
        &self,
        component: &mut dyn Checkpointable,
    ) -> Result<(), CheckpointError> {
        let payload = self.require(component.section_name())?;
        component.restore_state(payload)
    }

    /// Renders the complete `.ctrs` byte stream.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // flags
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.manifest.to_bytes());
        for (name, payload) in &self.sections {
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(&0u16.to_le_bytes()); // pad
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(&crc32(payload).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(payload);
        }
        out
    }

    /// Parses a complete `.ctrs` byte stream, validating magic, version,
    /// manifest CRC, every section CRC, and that the stream ends exactly
    /// after the declared sections.
    ///
    /// # Errors
    ///
    /// Any [`CheckpointError`] shape/CRC variant.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut at = 0usize;
        let take =
            |at: &mut usize, n: usize, what: &'static str| -> Result<&[u8], CheckpointError> {
                let end = at.checked_add(n).filter(|&e| e <= bytes.len()).ok_or(
                    CheckpointError::Truncated {
                        while_reading: what,
                    },
                )?;
                let slice = &bytes[*at..end];
                *at = end;
                Ok(slice)
            };

        let header = take(&mut at, CHECKPOINT_HEADER_BYTES, "checkpoint header")?;
        let mut found = [0u8; 8];
        found.copy_from_slice(&header[..8]);
        if found != CHECKPOINT_MAGIC {
            return Err(CheckpointError::BadMagic { found });
        }
        let version = u16::from_le_bytes([header[8], header[9]]);
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion { version });
        }
        let section_count =
            u32::from_le_bytes([header[12], header[13], header[14], header[15]]) as usize;

        let manifest_bytes: [u8; MANIFEST_BYTES] = take(&mut at, MANIFEST_BYTES, "manifest")?
            .try_into()
            .expect("exact slice");
        let manifest = CheckpointManifest::from_bytes(&manifest_bytes)?;

        let mut sections: Vec<(String, Vec<u8>)> = Vec::with_capacity(section_count);
        for _ in 0..section_count {
            let frame = take(&mut at, SECTION_FRAME_BYTES, "section frame")?;
            let name_len = u16::from_le_bytes([frame[0], frame[1]]) as usize;
            let payload_len = u32::from_le_bytes([frame[4], frame[5], frame[6], frame[7]]) as usize;
            let stored = u32::from_le_bytes([frame[8], frame[9], frame[10], frame[11]]);
            let name = std::str::from_utf8(take(&mut at, name_len, "section name")?)
                .map_err(|_| CheckpointError::Truncated {
                    while_reading: "section name",
                })?
                .to_string();
            let payload = take(&mut at, payload_len, "section payload")?.to_vec();
            let computed = crc32(&payload);
            if stored != computed {
                return Err(CheckpointError::SectionCrc {
                    section: name,
                    stored,
                    computed,
                });
            }
            if sections.iter().any(|(n, _)| *n == name) {
                return Err(CheckpointError::DuplicateSection { section: name });
            }
            sections.push((name, payload));
        }
        if at != bytes.len() {
            return Err(CheckpointError::Truncated {
                while_reading: "end of file (trailing bytes)",
            });
        }
        Ok(CheckpointFile { manifest, sections })
    }

    /// Writes the checkpoint atomically: the bytes land in a temporary
    /// file next to `path`, are flushed and fsynced, and only then
    /// renamed over `path`. A crash at any point leaves either the old
    /// checkpoint or none — never a torn one.
    ///
    /// # Errors
    ///
    /// I/O errors from the filesystem.
    pub fn write_atomic(&self, path: &Path) -> Result<(), CheckpointError> {
        let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
        let file_name = path.file_name().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "checkpoint path has no file name",
            )
        })?;
        let mut tmp_name = file_name.to_os_string();
        tmp_name.push(".tmp");
        let tmp_path = match dir {
            Some(d) => d.join(&tmp_name),
            None => Path::new(&tmp_name).to_path_buf(),
        };
        {
            let mut file = std::fs::File::create(&tmp_path)?;
            file.write_all(&self.to_bytes())?;
            file.sync_all()?;
        }
        if let Err(e) = std::fs::rename(&tmp_path, path) {
            let _ = std::fs::remove_file(&tmp_path);
            return Err(e.into());
        }
        Ok(())
    }

    /// Reads and fully validates a `.ctrs` file.
    ///
    /// # Errors
    ///
    /// As [`CheckpointFile::from_bytes`], plus I/O errors.
    pub fn read(path: &Path) -> Result<Self, CheckpointError> {
        let bytes = std::fs::read(path)?;
        CheckpointFile::from_bytes(&bytes)
    }
}

/// The FNV-1a offset basis — shared by every fingerprint in the
/// checkpoint subsystem.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into a running FNV-1a digest.
pub fn fnv1a_extend(mut digest: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        digest ^= u64::from(b);
        digest = digest.wrapping_mul(FNV_PRIME);
    }
    digest
}

/// One-shot FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CheckpointFile {
        let mut ckpt = CheckpointFile::new(CheckpointManifest {
            config_fingerprint: 0x1111,
            shape_fingerprint: 0x2222,
            trace_identity: 0x3333,
            resume_cursor: 42,
            accesses: 4_200,
        });
        ckpt.add_section("cache", vec![1, 2, 3, 4, 5]);
        ckpt.add_section("obs", br#"{"epoch":7}"#.to_vec());
        ckpt
    }

    #[test]
    fn byte_round_trip() {
        let ckpt = sample();
        let back = CheckpointFile::from_bytes(&ckpt.to_bytes()).expect("parses");
        assert_eq!(back, ckpt);
        assert_eq!(back.section("cache"), Some(&[1u8, 2, 3, 4, 5][..]));
        assert_eq!(back.manifest.resume_cursor, 42);
    }

    #[test]
    fn file_round_trip_is_atomic_rename() {
        let dir = std::env::temp_dir().join("cnt_ckpt_test_rt");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("state.ctrs");
        let ckpt = sample();
        ckpt.write_atomic(&path).expect("writes");
        assert!(
            !dir.join("state.ctrs.tmp").exists(),
            "temp file must be renamed away"
        );
        let back = CheckpointFile::read(&path).expect("reads");
        assert_eq!(back, ckpt);
        // Overwriting goes through the same protocol.
        ckpt.write_atomic(&path).expect("overwrites");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            CheckpointFile::from_bytes(&bytes),
            Err(CheckpointError::BadMagic { .. })
        ));
    }

    #[test]
    fn version_bump_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[8] = 99;
        assert!(matches!(
            CheckpointFile::from_bytes(&bytes),
            Err(CheckpointError::UnsupportedVersion { version: 99 })
        ));
    }

    #[test]
    fn manifest_flip_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[CHECKPOINT_HEADER_BYTES + 3] ^= 0x80; // config fingerprint byte
        assert!(matches!(
            CheckpointFile::from_bytes(&bytes),
            Err(CheckpointError::ManifestCrc { .. })
        ));
    }

    #[test]
    fn payload_flip_rejected_with_section_name() {
        let ckpt = sample();
        let bytes = ckpt.to_bytes();
        // Flip the final payload byte (inside the "obs" section).
        let mut damaged = bytes.clone();
        let last = damaged.len() - 1;
        damaged[last] ^= 0x01;
        match CheckpointFile::from_bytes(&damaged) {
            Err(CheckpointError::SectionCrc { section, .. }) => assert_eq!(section, "obs"),
            other => panic!("expected SectionCrc, got {other:?}"),
        }
    }

    #[test]
    fn every_truncation_prefix_is_rejected() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            let err = CheckpointFile::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated { .. } | CheckpointError::ManifestCrc { .. }
                ),
                "prefix of {cut} bytes: {err:?}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert!(matches!(
            CheckpointFile::from_bytes(&bytes),
            Err(CheckpointError::Truncated { .. })
        ));
    }

    #[test]
    fn missing_section_is_typed() {
        let ckpt = sample();
        assert!(ckpt.require("cache").is_ok());
        assert!(matches!(
            ckpt.require("energy"),
            Err(CheckpointError::MissingSection { section: "energy" })
        ));
    }

    #[test]
    #[should_panic(expected = "duplicate checkpoint section")]
    fn duplicate_section_panics_at_write_time() {
        let mut ckpt = sample();
        ckpt.add_section("cache", vec![]);
    }

    #[test]
    fn fnv_is_stable_and_order_sensitive() {
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
        let split = fnv1a_extend(fnv1a(b"ab"), b"cd");
        assert_eq!(split, fnv1a(b"abcd"));
    }
}
