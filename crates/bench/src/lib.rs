//! Experiment harness for the CNT-Cache reproduction.
//!
//! Each module in [`experiments`] regenerates one table or figure of the
//! evaluation (see `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for recorded results). The `experiments` binary runs
//! them from the command line:
//!
//! ```text
//! cargo run --release -p cnt-bench --bin experiments -- all
//! cargo run --release -p cnt-bench --bin experiments -- fig3 fig6
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod ckpt;
pub mod cli;
pub mod driver;
pub mod experiments;
pub mod pool;
pub mod record;
pub mod runner;
pub mod stream;

pub use record::{
    BenchRecord, IterStats, PassRecord, ServeBenchRecord, SimdBenchRecord, StageRecord,
    WorkloadBenchRecord, WorkloadRow,
};
