//! # qtelemetry — unified telemetry for the FlatDD stack
//!
//! Three coordinated surfaces, shared by every crate of the workspace:
//!
//! * **Structured events** ([`event::Event`]): per-gate records, phase
//!   transitions, DD-to-array conversions (with a per-worker load-balance
//!   breakdown), garbage-collection sweeps, resource-governor decisions,
//!   and watchdog checks. Events flow through pluggable [`sink::EventSink`]s
//!   — a JSONL file writer ([`sink::JsonlSink`]) and an in-memory recorder
//!   ([`sink::Recorder`]) ship with the crate.
//! * **Chrome-trace export** ([`chrome::chrome_trace_json`]): renders a
//!   recorded event stream as a `chrome://tracing` / Perfetto timeline —
//!   the DD phase, the conversion (with per-worker fill sub-spans), DMAV
//!   gate spans, fusion groups, GC sweeps.
//! * **Metrics registry** ([`metrics`]): process-global named counters,
//!   gauges, and labels backed by relaxed atomics, snapshot-able at any
//!   point and serialized to stable (sorted-key) JSON.
//!
//! ## Overhead contract
//!
//! Telemetry is disabled until a sink is installed. The *only* cost on the
//! disabled path is one relaxed atomic load per would-be event
//! ([`sink::enabled`]); callers are expected to guard event *construction*
//! behind it:
//!
//! ```
//! if qtelemetry::enabled() {
//!     qtelemetry::emit(qtelemetry::Event::Governor {
//!         sim: 1,
//!         ts_us: qtelemetry::now_us(),
//!         action: "pressure_gc",
//!         detail: String::new(),
//!     });
//! }
//! ```
//!
//! Registry counters are always on — an uncontended relaxed `fetch_add` —
//! and are only placed on per-gate (not per-amplitude) paths. The
//! `telemetry_overhead` harness binary verifies the whole-gate overhead
//! stays within the budget.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chrome;
pub mod event;
pub mod histogram;
pub mod json;
pub mod metrics;
pub mod prometheus;
pub mod sink;
pub mod span;

pub use chrome::chrome_trace_json;
pub use event::{Event, WorkerFill};
pub use histogram::{Histogram, HistogramSnapshot};
pub use metrics::{
    counter, gauge, metrics_json, reset_metrics, set_label, Counter, Gauge, MetricsRegistry,
};
pub use sink::{
    add_sink, clear_sinks, emit, enabled, flush_sinks, remove_sink, EventSink, JsonlSink, Recorder,
    SinkId,
};
pub use span::Span;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Microseconds since the process-wide telemetry epoch (the first call to
/// this function). All event timestamps share this clock, so spans from
/// different components line up on one timeline.
pub fn now_us() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e6
}

/// Hands out process-unique ids for telemetry sources (simulators, DD
/// packages), so events from concurrent instances can be told apart.
pub fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic_and_ids_unique() {
        let a = now_us();
        let b = now_us();
        assert!(b >= a);
        let i = next_id();
        let j = next_id();
        assert_ne!(i, j);
    }
}
