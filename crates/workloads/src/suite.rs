//! The named benchmark suite used by the experiments.

use serde::{Deserialize, Serialize};

use cnt_sim::trace::AccessBatch;

use crate::kernels;

/// One named, self-verified benchmark workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Short kernel name (e.g. `"matmul"`).
    pub name: String,
    /// Human-readable parameter description.
    pub description: String,
    /// The recorded data-carrying access trace.
    pub trace: AccessBatch,
}

impl Workload {
    /// Bundles a verified trace with its identity.
    pub fn new(
        name: impl Into<String>,
        description: impl Into<String>,
        trace: AccessBatch,
    ) -> Self {
        Workload {
            name: name.into(),
            description: description.into(),
            trace,
        }
    }
}

/// The full ten-kernel benchmark suite at the sizes the experiments use.
///
/// Footprints are chosen around the 32 KiB L1D of the paper's
/// configuration: some kernels fit comfortably (high hit rates), others
/// exceed it (binary search, pointer chase) to exercise fills, evictions
/// and write-backs.
///
/// # Example
///
/// ```no_run
/// let suite = cnt_workloads::suite();
/// assert_eq!(suite.len(), 10);
/// ```
pub fn suite() -> Vec<Workload> {
    vec![
        kernels::matmul(40, 1),
        kernels::fir(4096, 16),
        kernels::quicksort(2048, 0xC47),
        kernels::histogram(8192, 64, 0xC47),
        kernels::stencil2d(64, 48, 3),
        kernels::string_search(8192, 8, 0xC47),
        kernels::binary_search(4096, 2048, 0xC47),
        kernels::pointer_chase(1024, 8192, 0xC47),
        kernels::hash_mix(2048, 0xC47),
        kernels::image_threshold(96, 64, 0xC47),
    ]
}

/// The extended fourteen-kernel suite: the base [`suite`] plus SpMV
/// (whose interleaved index/value layout produces heterogeneous lines),
/// the STREAM triad, BFS, and the 8x8 DCT. Used by the partitioning and
/// write-policy studies.
pub fn suite_extended() -> Vec<Workload> {
    let mut s = suite();
    s.push(kernels::spmv(512, 12, 0xC47));
    s.push(kernels::stream_triad(4096, 4, 0xC47));
    s.push(kernels::bfs(2048, 4, 0xC47));
    s.push(kernels::dct8x8(8, 6, 0xC47));
    s
}

/// The base suite with every seeded kernel re-seeded (matmul, FIR and the
/// stencil generate structured data and are seed-independent). Used by
/// the seed-robustness study.
pub fn suite_seeded(seed: u64) -> Vec<Workload> {
    vec![
        kernels::matmul(40, 1),
        kernels::fir(4096, 16),
        kernels::quicksort(2048, seed),
        kernels::histogram(8192, 64, seed),
        kernels::stencil2d(64, 48, 3),
        kernels::string_search(8192, 8, seed),
        kernels::binary_search(4096, 2048, seed),
        kernels::pointer_chase(1024, 8192, seed),
        kernels::hash_mix(2048, seed),
        kernels::image_threshold(96, 64, seed),
    ]
}

/// A reduced-size suite (same ten kernels) for fast unit/integration
/// tests.
pub fn suite_small() -> Vec<Workload> {
    vec![
        kernels::matmul(10, 1),
        kernels::fir(256, 8),
        kernels::quicksort(192, 0xC47),
        kernels::histogram(512, 32, 0xC47),
        kernels::stencil2d(16, 12, 2),
        kernels::string_search(512, 6, 0xC47),
        kernels::binary_search(256, 128, 0xC47),
        kernels::pointer_chase(64, 512, 0xC47),
        kernels::hash_mix(256, 0xC47),
        kernels::image_threshold(24, 16, 0xC47),
    ]
}

// ---------------------------------------------------------------------
// Workload registry: one namespace over synthetic kernels and imported
// traces.
// ---------------------------------------------------------------------

use std::error::Error;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use cnt_trace::{read_trace, ReadOptions, TraceError};

/// Errors from registry construction or workload loading.
#[derive(Debug)]
#[non_exhaustive]
pub enum RegistryError {
    /// Filesystem access failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        error: io::Error,
    },
    /// An imported `.ctr` file failed to stream.
    Trace {
        /// The trace file.
        path: PathBuf,
        /// The underlying error.
        error: TraceError,
    },
    /// A selection pattern matched nothing.
    NoMatch {
        /// The pattern as given.
        pattern: String,
    },
    /// Two sources produced the same workload id.
    Duplicate {
        /// The colliding id.
        id: String,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Io { path, error } => {
                write!(f, "registry I/O error at {}: {error}", path.display())
            }
            RegistryError::Trace { path, error } => {
                write!(f, "imported trace {} failed: {error}", path.display())
            }
            RegistryError::NoMatch { pattern } => {
                write!(f, "no workload matches `{pattern}`")
            }
            RegistryError::Duplicate { id } => {
                write!(f, "duplicate workload id `{id}`")
            }
        }
    }
}

impl Error for RegistryError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RegistryError::Io { error, .. } => Some(error),
            RegistryError::Trace { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// Where a registry entry's trace comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSource {
    /// An instrumented kernel, already materialized.
    Synthetic(Workload),
    /// A `.ctr` file imported from a real-application capture, loaded
    /// on demand.
    Imported(PathBuf),
}

/// One selectable workload: a stable id plus its source.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadEntry {
    /// Namespaced id: `synth/<kernel>` or `import/<file-stem>`.
    pub id: String,
    /// Human-readable description.
    pub description: String,
    /// Where the trace comes from.
    pub source: WorkloadSource,
}

impl WorkloadEntry {
    /// `"synthetic"` or `"imported"` — the source tag reports use.
    pub fn source_kind(&self) -> &'static str {
        match self.source {
            WorkloadSource::Synthetic(_) => "synthetic",
            WorkloadSource::Imported(_) => "imported",
        }
    }

    /// Materializes the workload: synthetic entries clone their trace,
    /// imported entries stream their `.ctr` file (strict CRC checking).
    ///
    /// # Errors
    ///
    /// [`RegistryError::Io`] / [`RegistryError::Trace`] for imported
    /// entries whose file is missing or damaged.
    pub fn load(&self) -> Result<Workload, RegistryError> {
        match &self.source {
            WorkloadSource::Synthetic(workload) => Ok(workload.clone()),
            WorkloadSource::Imported(path) => {
                let file = fs::File::open(path).map_err(|error| RegistryError::Io {
                    path: path.clone(),
                    error,
                })?;
                let trace = read_trace(io::BufReader::new(file), ReadOptions::default()).map_err(
                    |error| RegistryError::Trace {
                        path: path.clone(),
                        error,
                    },
                )?;
                Ok(Workload::new(&self.id, &self.description, trace))
            }
        }
    }
}

/// One namespace over every workload the harnesses can run: the
/// synthetic kernel suite under `synth/`, imported `.ctr` captures
/// under `import/`. `experiments` and `cnt-serve` both select from
/// here by name or glob, so "run the adaptive encoder over mcf and the
/// stencil" is one `--workloads` flag regardless of where each trace
/// came from.
#[derive(Debug, Clone, Default)]
pub struct WorkloadRegistry {
    entries: Vec<WorkloadEntry>,
}

impl WorkloadRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        WorkloadRegistry::default()
    }

    /// The built-in registry: every kernel of [`suite_extended`] under
    /// `synth/<name>`.
    pub fn builtin() -> Self {
        WorkloadRegistry::from_suite(suite_extended())
    }

    /// A registry over an explicit kernel list (e.g. [`suite_small`]
    /// in tests).
    pub fn from_suite(suite: Vec<Workload>) -> Self {
        let mut registry = WorkloadRegistry::new();
        for workload in suite {
            let entry = WorkloadEntry {
                id: format!("synth/{}", workload.name),
                description: workload.description.clone(),
                source: WorkloadSource::Synthetic(workload),
            };
            registry
                .add(entry)
                .expect("kernel suites have unique names");
        }
        registry
    }

    /// Adds one entry, keeping ids unique and the listing sorted.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Duplicate`] if the id is already present.
    pub fn add(&mut self, entry: WorkloadEntry) -> Result<(), RegistryError> {
        match self.entries.binary_search_by(|e| e.id.cmp(&entry.id)) {
            Ok(_) => Err(RegistryError::Duplicate { id: entry.id }),
            Err(at) => {
                self.entries.insert(at, entry);
                Ok(())
            }
        }
    }

    /// Registers every `*.ctr` file in `dir` (sorted by file name) as
    /// `import/<stem>`, returning how many were added. Files are only
    /// opened later, by [`WorkloadEntry::load`].
    ///
    /// # Errors
    ///
    /// [`RegistryError::Io`] if the directory is unreadable,
    /// [`RegistryError::Duplicate`] on an id collision.
    pub fn add_trace_dir(&mut self, dir: &Path) -> Result<usize, RegistryError> {
        let entries = fs::read_dir(dir).map_err(|error| RegistryError::Io {
            path: dir.to_path_buf(),
            error,
        })?;
        let mut paths: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "ctr"))
            .collect();
        paths.sort();
        let added = paths.len();
        for path in paths {
            let stem = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            self.add(WorkloadEntry {
                id: format!("import/{stem}"),
                description: format!("imported from {}", path.display()),
                source: WorkloadSource::Imported(path),
            })?;
        }
        Ok(added)
    }

    /// All entries, sorted by id.
    pub fn entries(&self) -> &[WorkloadEntry] {
        &self.entries
    }

    /// Entries matching a glob pattern (`*` any run, `?` any one
    /// character; everything else literal). A pattern with no
    /// metacharacters is an exact-id match.
    ///
    /// # Errors
    ///
    /// [`RegistryError::NoMatch`] when nothing matches — selection
    /// typos must be loud, not an empty run.
    pub fn select(&self, pattern: &str) -> Result<Vec<&WorkloadEntry>, RegistryError> {
        let matched: Vec<&WorkloadEntry> = self
            .entries
            .iter()
            .filter(|e| glob_match(pattern, &e.id))
            .collect();
        if matched.is_empty() {
            return Err(RegistryError::NoMatch {
                pattern: pattern.to_string(),
            });
        }
        Ok(matched)
    }
}

/// Minimal glob: `*` matches any (possibly empty) run, `?` any single
/// character, everything else itself.
pub fn glob_match(pattern: &str, text: &str) -> bool {
    fn inner(pat: &[u8], text: &[u8]) -> bool {
        match pat.split_first() {
            None => text.is_empty(),
            Some((b'*', rest)) => (0..=text.len()).any(|skip| inner(rest, &text[skip..])),
            Some((b'?', rest)) => !text.is_empty() && inner(rest, &text[1..]),
            Some((&c, rest)) => text.first() == Some(&c) && inner(rest, &text[1..]),
        }
    }
    inner(pattern.as_bytes(), text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_suite_covers_all_kernels() {
        let s = suite_small();
        assert_eq!(s.len(), 10);
        let names: Vec<&str> = s.iter().map(|w| w.name.as_str()).collect();
        for expected in [
            "matmul",
            "fir",
            "quicksort",
            "histogram",
            "stencil2d",
            "string_search",
            "binary_search",
            "pointer_chase",
            "hash_mix",
            "image_threshold",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn small_suite_has_diverse_mixes() {
        let s = suite_small();
        let fractions: Vec<f64> = s.iter().map(|w| w.trace.write_fraction()).collect();
        let min = fractions.iter().cloned().fold(f64::MAX, f64::min);
        let max = fractions.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max - min > 0.3, "suite mixes too uniform: {fractions:?}");
    }

    #[test]
    fn glob_matches_the_documented_forms() {
        assert!(glob_match("synth/*", "synth/matmul"));
        assert!(glob_match("*", "import/mcf"));
        assert!(glob_match("synth/matmul", "synth/matmul"));
        assert!(glob_match("synth/?ir", "synth/fir"));
        assert!(!glob_match("synth/*", "import/mcf"));
        assert!(!glob_match("synth/matmul", "synth/matmul2"));
        assert!(glob_match("*search*", "synth/binary_search"));
    }

    #[test]
    fn registry_lists_sorted_and_selects_by_glob() {
        let registry = WorkloadRegistry::from_suite(suite_small());
        assert_eq!(registry.entries().len(), 10);
        let ids: Vec<&str> = registry.entries().iter().map(|e| e.id.as_str()).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted, "listing is sorted");
        assert!(ids.contains(&"synth/matmul"));

        let all = registry.select("synth/*").expect("matches");
        assert_eq!(all.len(), 10);
        let one = registry.select("synth/matmul").expect("matches");
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].source_kind(), "synthetic");
        let searches = registry.select("*search*").expect("matches");
        assert_eq!(searches.len(), 2);

        let err = registry.select("synth/mcf").expect_err("typo is loud");
        assert!(matches!(err, RegistryError::NoMatch { .. }), "{err}");
    }

    #[test]
    fn synthetic_entries_load_their_own_trace() {
        let registry = WorkloadRegistry::from_suite(suite_small());
        let entry = &registry.select("synth/fir").expect("matches")[0];
        let workload = entry.load().expect("loads");
        assert_eq!(workload.name, "fir");
        assert!(!workload.trace.is_empty());
    }

    #[test]
    fn trace_dir_entries_are_imported_and_load_lazily() {
        use cnt_sim::trace::MemoryAccess;
        use cnt_sim::Address;

        let dir = std::env::temp_dir().join("cnt_registry_test");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        let trace: AccessBatch = (0..50)
            .map(|i| MemoryAccess::read(Address::new(0x1000 + i * 8), 8))
            .collect();
        let mut bytes = Vec::new();
        cnt_trace::pack_accesses(&trace, &mut bytes, 16).expect("packs");
        fs::write(dir.join("mcf_like.ctr"), &bytes).expect("writes");
        fs::write(dir.join("notes.txt"), b"ignored").expect("writes");

        let mut registry = WorkloadRegistry::from_suite(suite_small());
        let added = registry.add_trace_dir(&dir).expect("scans");
        assert_eq!(added, 1, "only .ctr files register");
        let entry = &registry.select("import/*").expect("matches")[0];
        assert_eq!(entry.id, "import/mcf_like");
        assert_eq!(entry.source_kind(), "imported");
        let workload = entry.load().expect("streams the file");
        assert_eq!(workload.trace.len(), 50);

        // A second scan of the same dir collides on the id.
        let err = registry.add_trace_dir(&dir).expect_err("duplicate");
        assert!(matches!(err, RegistryError::Duplicate { .. }), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
