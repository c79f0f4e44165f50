//! # flatdd — a hybrid DD + flat-array quantum circuit simulator
//!
//! Rust reproduction of **FlatDD** (Jiang et al., ICPP 2024): simulation
//! starts on compressed decision diagrams (fast while the state is
//! *regular*), monitors the state-vector DD size with an exponentially
//! weighted moving average, and — when regularity collapses — converts the
//! state to a flat array with a parallel conversion and continues with
//! **DMAV**: DD-based gate matrices multiplied onto the array-based state.
//!
//! Module map (paper section in parentheses):
//!
//! * [`ewma`] — conversion timing (3.1.1).
//! * [`convert`] — parallel DD-to-array conversion with load balancing and
//!   scalar-multiplication optimizations (3.1.2, Fig. 4).
//! * [`dmav`](mod@dmav) — DMAV without caching (3.2.1, Alg. 1).
//! * [`dmav_cache`] — DMAV with per-thread caching and buffer sharing
//!   (3.2.2, Alg. 2), a standalone kernel: the simulator runs Alg. 1 only
//!   (DESIGN.md §2).
//! * [`cost`] — the MAC-count cost model `min(C1, C2)` (3.2.3).
//! * `plan_cache` — the memo of the Alg. 1 plan per gate matrix, keyed by
//!   root edge, dropped wholesale on DD garbage collection.
//! * [`fusion`] — DMAV-aware gate fusion (3.3, Alg. 3) and the
//!   k-operations baseline.
//! * [`sim`] — [`FlatDdSimulator`], the hybrid driver (Fig. 3): two phases, one gate boundary.
//! * [`pool`] — the fork-join thread pool behind every parallel kernel.
//! * [`memory`] — peak-RSS probes for Table-1-style measurements.
//! * [`govern`] — the resource governor: memory/time budgets, graceful
//!   degradation, and the numerical-health watchdog.
//! * [`error`] — [`FlatDdError`], the typed (panic-free) error surface,
//!   and [`RunOutcome`], the (possibly partial) run snapshot.
//! * [`checkpoint`] — crash-safe checkpoint files (checksummed sections,
//!   atomic rename installation) behind `--checkpoint-every` /
//!   `--resume-from`.
//! * [`signal`](mod@signal) — flag-based SIGINT/SIGTERM handling polled at
//!   gate boundaries.
//! * [`context`] — [`RunContext`], the per-run bundle of cancellation
//!   flag, metrics registry, and fault registry that makes concurrent
//!   jobs isolated from one another.
//! * [`faults`] — the deterministic fault-injection registry
//!   (`FLATDD_FAULTS`) that makes every degradation path testable.
//! * [`serve`] — the multi-job daemon behind `flatdd-serve`: HTTP/JSON
//!   job intake, admission control against a server-wide memory budget,
//!   checkpoint-based preemption, retry with backoff, and restart
//!   recovery from a spool directory.
//! * [`telemetry`] — the unified observability surface (structured gate
//!   events, Chrome-trace export, cross-crate metrics registry),
//!   re-exported from the `qtelemetry` crate.
//!
//! ## Quick start
//!
//! ```
//! use flatdd::{FlatDdConfig, FlatDdSimulator};
//! use qcircuit::generators;
//!
//! let circuit = generators::ghz(8);
//! let mut sim = FlatDdSimulator::new(8, FlatDdConfig { threads: 4, ..Default::default() });
//! sim.run(&circuit).unwrap();
//! let amp0 = sim.amplitude(0);
//! assert!((amp0.abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod checkpoint;
pub mod context;
pub mod convert;
pub mod cost;
pub mod dmav;
pub mod dmav_cache;
pub mod error;
pub mod ewma;
pub mod faults;
pub mod fusion;
pub mod govern;
pub mod memory;
mod plan_cache;
pub mod pool;
pub mod serve;
#[allow(unsafe_code)] // the `signal(2)` / `write(2)` FFI
pub mod signal;
pub mod sim;

/// The unified telemetry surface (structured events, Chrome-trace export,
/// cross-crate metrics registry), re-exported so downstream users need only
/// depend on `flatdd`.
pub use qtelemetry as telemetry;

pub use checkpoint::{
    circuit_fingerprint, config_fingerprint, read_checkpoint, read_header, sweep_stale_tmp,
    write_checkpoint, CheckpointHeader, CheckpointPayload, CheckpointPolicy, CheckpointState,
    InstallMailbox,
};
pub use context::RunContext;
pub use convert::{
    dd_to_array_parallel, dd_to_array_parallel_sharded_into_with, ConversionBreakdown,
    ConversionPlan,
};
pub use cost::{CostAnalysis, CostModel};
pub use dmav::{
    dmav, dmav_in_place, dmav_no_cache, dmav_run_in_place, DmavAssignment, BLOCK_LEVEL,
};
pub use dmav_cache::{dmav_cached, DmavCacheAssignment, DmavCacheRunStats, PartialBuffers};
pub use error::{FlatDdError, RunOutcome};
pub use ewma::{EwmaConfig, EwmaMonitor};
pub use fusion::{fuse_dmav_aware, fuse_k_operations, no_fusion, FusedGates};
pub use govern::{Breach, GovernorConfig, ResourceGovernor};
pub use pool::{clamp_shards, clamp_threads, ThreadPool};
pub use sim::{
    publish_package_metrics, simulate, try_simulate, ConversionPolicy, FlatDdConfig,
    FlatDdSimulator, FlatDdStats, FusionPolicy, GateTrace, Phase,
};
