//! Shared harness utilities for the table/figure reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one artifact of the paper's
//! evaluation section (see DESIGN.md's experiment index). This library
//! provides the shared pieces: CLI parsing, the engine runners with a
//! soft timeout (the paper kills runs at 24 h; we default to seconds-scale
//! budgets), the scaled Table-1 workload suite, and plain-text/JSON output.

#![forbid(unsafe_code)]

pub mod cli;
pub mod engines;
pub mod report;
pub mod suite;

pub use cli::HarnessArgs;
pub use engines::{run_array, run_ddsim, run_flatdd, EngineResult, RunStatus};
pub use report::{geo_mean, machine_header, JsonWriter, Table};
pub use suite::{table1_workloads, Workload};
