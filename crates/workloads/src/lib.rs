//! Benchmark kernels and synthetic trace generators for the CNT-Cache
//! reproduction.
//!
//! The original paper evaluates "a set of benchmark programs" on a
//! simulated D-Cache. Since its traces are not available, this crate
//! substitutes *instrumented Rust kernels*: each kernel executes a real
//! algorithm against a [`TracedMemory`], verifying its own output, while
//! every load and store — with its actual data value — is recorded into
//! the columns of an [`AccessBatch`](cnt_sim::trace::AccessBatch), the one
//! in-memory trace the simulator replays. This preserves the two
//! properties the adaptive-encoding result depends on: per-line
//! read/write mixes and the bit-value population of the data.
//!
//! * [`kernels`] — ten program kernels (matmul, FIR, quicksort, histogram,
//!   stencil, string search, binary search, pointer chase, hash mixing,
//!   image threshold),
//! * [`synthetic`] — parametric generators (sequential/strided/random/
//!   Zipfian; read-fraction and bit-density sweeps),
//! * [`suite`] — the named benchmark suite the experiment harness runs,
//!   plus the [`WorkloadRegistry`]: one `synth/*` + `import/*` namespace
//!   over kernels and imported `.ctr` captures, selectable by glob.
//!
//! # Example
//!
//! ```
//! use cnt_workloads::kernels;
//!
//! let workload = kernels::matmul(8, 1);
//! assert_eq!(workload.name, "matmul");
//! assert!(workload.trace.len() > 0);
//! assert!(workload.trace.write_fraction() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernels;
mod suite;
pub mod synthetic;
mod traced;

pub use suite::{
    glob_match, suite, suite_extended, suite_seeded, suite_small, RegistryError, Workload,
    WorkloadEntry, WorkloadRegistry, WorkloadSource,
};
pub use traced::TracedMemory;
