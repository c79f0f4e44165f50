//! Per-run execution context.
//!
//! PR 1–5 built the robustness primitives — governor budgets, FDCP1
//! checkpoints, fault injection, telemetry — on process-global state: one
//! signal flag, one `OnceLock` metrics registry, one `FLATDD_FAULTS` rule
//! set. That is correct for a batch CLI and fatally wrong for a daemon
//! running N jobs at once, where cancelling one job must not interrupt its
//! neighbors and one job's stats must not bleed into another's.
//!
//! [`RunContext`] is the bundle the simulator now carries instead:
//!
//! * a **cancellation flag** with the same signal-number semantics as
//!   [`crate::signal`] (the scheduler cancels a job by raising SIGTERM on
//!   its context; the CLI's default context additionally follows the real
//!   process flag),
//! * a **metrics registry** handle ([`qtelemetry::MetricsRegistry`]),
//! * a **fault registry** handle ([`crate::faults::FaultRegistry`]).
//!
//! Contexts are cheap to clone — clones share state, so the scheduler keeps
//! one clone as a remote control while the worker thread drives the
//! simulator with another. [`RunContext::process`] reproduces the old
//! single-tenant behavior exactly and is the default everywhere, so the
//! CLI, examples, and existing tests are unchanged.

use crate::faults::FaultRegistry;
use crate::signal;
use qtelemetry::MetricsRegistry;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicI32, Ordering};
use std::sync::{Arc, Mutex};

/// One live progress sample, published by the simulator at gate boundaries
/// and consumed by `GET /jobs/{id}/events`. `seq` is assigned by the ring
/// at publish time, monotonically from 1, and doubles as the stream's
/// `?since=` resume cursor.
#[derive(Clone, Debug, PartialEq)]
pub struct Progress {
    /// Ring-assigned sequence number (resume cursor), starting at 1.
    pub seq: u64,
    /// Timestamp on the telemetry clock (µs).
    pub ts_us: f64,
    /// Current phase label (`"dd"` / `"dmav"`).
    pub phase: &'static str,
    /// Gates applied so far in this run.
    pub gate: usize,
    /// Total gates the run will apply (0 when unknown).
    pub total_gates: usize,
    /// Smoothed recent throughput (gates per second; 0 until warmed up).
    pub gates_per_sec: f64,
    /// Live DD node count (vector + matrix; 0 in the flat phase).
    pub dd_nodes: usize,
    /// Resource-governor degradation rung (0 = unconstrained).
    pub governor_rung: u32,
    /// Flat-state shard count in use (0 during the DD phase).
    pub shard_fill: usize,
    /// Telemetry id of the publishing simulator, the `sim` of its events
    /// (`FlatDdSimulator::telemetry_id`).
    pub sim: u64,
}

impl Progress {
    /// Serializes as one NDJSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        qtelemetry::json::render(|w| {
            w.begin_obj().key("event").string("progress");
            w.key("seq").uint(self.seq);
            w.key("ts_us").fixed(self.ts_us, Some(0));
            w.key("phase").string(self.phase);
            w.key("gate").uint(self.gate as u64);
            w.key("total_gates").uint(self.total_gates as u64);
            w.key("gates_per_sec").fixed(self.gates_per_sec, Some(1));
            w.key("dd_nodes").uint(self.dd_nodes as u64);
            w.key("governor_rung").uint(self.governor_rung.into());
            w.key("shard_fill").uint(self.shard_fill as u64);
            w.key("sim").uint(self.sim).end_obj();
        })
    }
}

/// Default capacity of the per-run progress ring. Sized so a client that
/// polls every few hundred milliseconds never observes a gap even at
/// hundreds of published samples per second, while one idle job holds at
/// most a few hundred KiB.
pub const PROGRESS_RING_CAP: usize = 4096;

struct ProgressRing {
    buf: VecDeque<Progress>,
    next_seq: u64,
    cap: usize,
}

/// Shared, clonable execution context for one simulation run (one job).
#[derive(Clone)]
pub struct RunContext {
    /// Pending per-job cancellation signal; 0 = none. Same numbering as
    /// [`crate::signal`] so `Interrupted { signal }` reporting is uniform.
    cancel: Arc<AtomicI32>,
    /// When true (the CLI default), [`RunContext::poll_cancel`] also drains
    /// the process-global signal flag, preserving PR 5's Ctrl-C behavior.
    follow_process_signals: bool,
    metrics: MetricsRegistry,
    faults: Arc<FaultRegistry>,
    /// Bounded lossy ring of [`Progress`] samples: the simulator publishes,
    /// the serve event stream reads with a cursor. Clones share the ring.
    progress: Arc<Mutex<ProgressRing>>,
}

impl std::fmt::Debug for RunContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunContext")
            .field("cancel", &self.cancel.load(Ordering::Relaxed))
            .field("follow_process_signals", &self.follow_process_signals)
            .finish_non_exhaustive()
    }
}

impl RunContext {
    /// The single-tenant default: global metrics registry, global fault
    /// registry, and cancellation follows the process signal flag. This is
    /// what `FlatDdSimulator::try_new` uses, so the CLI and every
    /// pre-existing caller keep their exact previous behavior.
    pub fn process() -> Self {
        RunContext {
            cancel: Arc::new(AtomicI32::new(0)),
            follow_process_signals: true,
            metrics: qtelemetry::metrics::global().clone(),
            faults: Arc::new(FaultRegistry::disarmed()),
            progress: Arc::new(Mutex::new(ProgressRing {
                buf: VecDeque::new(),
                next_seq: 1,
                cap: PROGRESS_RING_CAP,
            })),
        }
    }

    /// A fully isolated context: fresh metrics registry, disarmed fault
    /// registry, and cancellation only through [`RunContext::cancel`] —
    /// process signals are ignored. This is what the serve scheduler hands
    /// each job.
    pub fn isolated() -> Self {
        RunContext {
            cancel: Arc::new(AtomicI32::new(0)),
            follow_process_signals: false,
            metrics: MetricsRegistry::new(),
            faults: Arc::new(FaultRegistry::disarmed()),
            progress: Arc::new(Mutex::new(ProgressRing {
                buf: VecDeque::new(),
                next_seq: 1,
                cap: PROGRESS_RING_CAP,
            })),
        }
    }

    /// Replaces the metrics registry handle.
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.metrics = metrics;
        self
    }

    /// Arms this context's scoped fault registry from a `FLATDD_FAULTS`-
    /// grammar spec (replacing the current rule set).
    pub fn with_faults_spec(self, spec: &str) -> Result<Self, String> {
        self.faults.set_spec(spec)?;
        Ok(self)
    }

    /// This run's metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// This run's fault registry. For a [`RunContext::process`] context the
    /// scoped registry is empty, and fault probes fall through to the
    /// process-global `FLATDD_FAULTS` registry (see [`RunContext::fires`]).
    pub fn faults(&self) -> &FaultRegistry {
        &self.faults
    }

    /// Probes a fault site: the scoped registry first, then — only for
    /// process contexts — the global `FLATDD_FAULTS` registry. Isolated
    /// contexts never observe globally armed faults. A fired site counts
    /// in this run's `faults.injected`.
    #[inline]
    pub fn fires(&self, site: &str) -> Option<crate::faults::FaultAction> {
        let action = self.faults.fires(site).or_else(|| {
            self.follow_process_signals
                .then(|| crate::faults::fires(site))?
        });
        action.inspect(|_| self.metrics.counter("faults.injected").inc())
    }

    /// Requests cancellation of this run, as if signal `sig` (use
    /// [`signal::SIGTERM`] for a generic stop) had been delivered to it.
    /// The simulator honors it at its next gate / fused-matrix boundary.
    pub fn cancel(&self, sig: i32) {
        self.cancel.store(sig, Ordering::Relaxed);
    }

    /// Cancels this run for good, as SIGKILL would: it stops at its next
    /// boundary like [`Self::cancel`], but writes no on-breach checkpoint
    /// and drops a periodic one still waiting for its install, since no
    /// one will resume it (the daemon's user cancel).
    pub fn abandon(&self) {
        self.cancel(signal::SIGKILL);
    }

    /// True if cancellation is currently requested (without consuming it).
    pub fn cancel_requested(&self) -> bool {
        self.cancel.load(Ordering::Relaxed) != 0
            || (self.follow_process_signals && signal::pending().is_some())
    }

    /// Takes (and clears) the pending cancellation, per-job flag first,
    /// then — for process contexts — the process signal flag. The simulator
    /// calls this when it converts the flag into
    /// [`crate::FlatDdError::Interrupted`], so one cancellation interrupts
    /// one run instead of poisoning every run after it.
    pub fn take_cancel(&self) -> Option<i32> {
        match self.cancel.swap(0, Ordering::Relaxed) {
            0 => {
                if self.follow_process_signals {
                    signal::take()
                } else {
                    None
                }
            }
            s => Some(s),
        }
    }

    /// True if `other` is a handle to this same context's cancel flag.
    pub fn same_run_as(&self, other: &RunContext) -> bool {
        Arc::ptr_eq(&self.cancel, &other.cancel)
    }

    /// Publishes one progress sample into the ring, assigning its `seq`.
    /// Bounded and lossy: when the ring is full the oldest sample is
    /// dropped — a slow (or absent) stream consumer never blocks or
    /// bloats the simulation. Returns the assigned sequence number.
    pub fn publish_progress(&self, mut p: Progress) -> u64 {
        let mut ring = self.progress.lock().unwrap_or_else(|e| e.into_inner());
        p.seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.buf.len() == ring.cap {
            ring.buf.pop_front();
        }
        let seq = p.seq;
        ring.buf.push_back(p);
        seq
    }

    /// Samples with `seq > since`, in order, plus the cursor to pass next
    /// time (= the highest seq ever published, even if those samples have
    /// been evicted). An empty ring or an up-to-date cursor returns
    /// `(vec![], since)`-shaped results with the cursor clamped to what
    /// exists, so a stale client resumes cleanly after eviction.
    pub fn progress_since(&self, since: u64) -> (Vec<Progress>, u64) {
        let ring = self.progress.lock().unwrap_or_else(|e| e.into_inner());
        let latest = ring.next_seq - 1;
        if since >= latest {
            return (Vec::new(), latest);
        }
        let out: Vec<Progress> = ring.buf.iter().filter(|p| p.seq > since).cloned().collect();
        (out, latest)
    }

    /// The most recent sample, if any was ever published.
    pub fn progress_latest(&self) -> Option<Progress> {
        let ring = self.progress.lock().unwrap_or_else(|e| e.into_inner());
        ring.buf.back().cloned()
    }
}

impl Default for RunContext {
    fn default() -> Self {
        RunContext::process()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolated_cancel_is_per_context() {
        let a = RunContext::isolated();
        let b = RunContext::isolated();
        a.cancel(signal::SIGTERM);
        assert!(a.cancel_requested());
        assert!(!b.cancel_requested(), "cancel must not leak across jobs");
        assert_eq!(a.take_cancel(), Some(signal::SIGTERM));
        assert_eq!(a.take_cancel(), None, "take consumes the flag");
        assert_eq!(b.take_cancel(), None);
    }

    #[test]
    fn clones_share_the_flag() {
        let a = RunContext::isolated();
        let remote = a.clone();
        remote.cancel(signal::SIGINT);
        assert_eq!(a.take_cancel(), Some(signal::SIGINT));
        assert!(a.same_run_as(&remote));
        assert!(!a.same_run_as(&RunContext::isolated()));
    }

    #[test]
    fn isolated_ignores_process_flag_and_global_faults() {
        let ctx = RunContext::isolated();
        // Raise and immediately clear the process flag around the check so
        // this test cannot poison others even on failure.
        signal::raise_flag(signal::SIGTERM);
        let saw = ctx.cancel_requested();
        let took = ctx.take_cancel();
        signal::take();
        assert!(!saw, "isolated contexts must ignore process signals");
        assert_eq!(took, None);
    }

    #[test]
    fn scoped_faults_do_not_leak() {
        let a = RunContext::isolated()
            .with_faults_spec("alloc.flat:error:always")
            .unwrap();
        let b = RunContext::isolated();
        assert!(a.fires(crate::faults::SITE_ALLOC_FLAT).is_some());
        assert!(b.fires(crate::faults::SITE_ALLOC_FLAT).is_none());
    }

    fn sample(gate: usize) -> Progress {
        Progress {
            seq: 0,
            ts_us: 0.0,
            phase: "dd",
            gate,
            total_gates: 100,
            gates_per_sec: 10.0,
            dd_nodes: 4,
            governor_rung: 0,
            shard_fill: 0,
            sim: 1,
        }
    }

    #[test]
    fn progress_ring_assigns_seq_and_resumes_by_cursor() {
        let ctx = RunContext::isolated();
        assert_eq!(ctx.progress_since(0), (Vec::new(), 0));
        for g in 0..5 {
            ctx.publish_progress(sample(g));
        }
        let (all, cur) = ctx.progress_since(0);
        assert_eq!(all.len(), 5);
        assert_eq!(cur, 5);
        assert_eq!(all[0].seq, 1);
        assert_eq!(all[4].seq, 5);
        // Resume mid-stream: only newer samples come back, no overlap.
        let (tail, cur2) = ctx.progress_since(3);
        assert_eq!(tail.iter().map(|p| p.seq).collect::<Vec<_>>(), vec![4, 5]);
        assert_eq!(cur2, 5);
        // Up-to-date cursor: nothing new.
        assert_eq!(ctx.progress_since(5).0.len(), 0);
        assert_eq!(ctx.progress_latest().unwrap().seq, 5);
        // Clones share the ring.
        ctx.clone().publish_progress(sample(6));
        assert_eq!(ctx.progress_since(5).0.len(), 1);
    }

    #[test]
    fn progress_ring_is_bounded_and_lossy() {
        let ctx = RunContext::isolated();
        for g in 0..(PROGRESS_RING_CAP + 10) {
            ctx.publish_progress(sample(g));
        }
        let (got, cur) = ctx.progress_since(0);
        assert_eq!(got.len(), PROGRESS_RING_CAP, "ring must stay bounded");
        assert_eq!(cur, (PROGRESS_RING_CAP + 10) as u64);
        assert_eq!(got[0].seq, 11, "oldest samples evicted first");
    }

    #[test]
    fn progress_json_shape() {
        let ctx = RunContext::isolated();
        ctx.publish_progress(sample(7));
        let j = ctx.progress_latest().unwrap().to_json();
        assert!(j.starts_with("{\"event\":\"progress\",\"seq\":1,"), "{j}");
        assert!(j.contains("\"gate\":7"));
        assert!(j.contains("\"phase\":\"dd\""));
        assert!(j.contains("\"sim\":1"));
        assert!(j.ends_with('}'));
    }

    #[test]
    fn isolated_metrics_do_not_touch_global() {
        let ctx = RunContext::isolated();
        ctx.metrics().counter("test.ctx.gates").add(7);
        assert_eq!(ctx.metrics().counter("test.ctx.gates").get(), 7);
        assert_eq!(
            qtelemetry::metrics::global()
                .counter("test.ctx.gates")
                .get(),
            0
        );
    }
}
