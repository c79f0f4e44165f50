//! Admission, supervision, preemption, and recovery for the job daemon.
//!
//! The scheduler owns a bounded priority queue of [`JobRecord`]s and a
//! fixed pool of worker threads. Its robustness contract, layer by layer:
//!
//! * **Isolation** — every job runs on its own [`RunContext`]: scoped
//!   metrics registry, scoped fault registry, per-job cancellation flag.
//!   Cancelling or chaos-testing one job cannot touch its neighbors.
//! * **Admission** — a job is only dispatched while the sum of admitted
//!   per-job memory estimates stays under the server-wide budget; a full
//!   queue rejects new submissions (HTTP 429 at the edge).
//! * **Preemption** — when a higher-priority job is starved by the memory
//!   budget, the lowest-priority running job is cancelled; the simulator's
//!   on-breach checkpoint makes that a *suspend*, not a kill, and the job
//!   re-queues as `preempted`.
//! * **Containment** — a worker panic inside one job (e.g. the
//!   `convert.worker_panic` fault) becomes a `failed` record with exit
//!   code 10 for that job only; the daemon and its other jobs continue.
//! * **Retry** — transient failures (I/O, memory pressure) re-queue with
//!   capped exponential backoff, resuming from the job's checkpoint.
//! * **Recovery** — on startup the spool is swept of stale temp files and
//!   every non-terminal record is re-admitted, resuming from its
//!   checkpoint when one is installed. [`Scheduler::drain`] is the
//!   flip side: checkpoint everything running, persist, exit cleanly.
//!   A job that reaches a terminal state takes its checkpoint with it.
//! * **Checkpoint installs** — a job with periodic checkpoints runs with
//!   one installer thread ([`with_installer`]), so its `fsync`s overlap
//!   the simulation instead of pacing it.

use super::jobs::{JobRecord, JobResult, JobSpec, JobState};
use crate::checkpoint::{self, CheckpointPolicy, InstallMailbox};
use crate::context::RunContext;
use crate::error::FlatDdError;
use crate::govern::GovernorConfig;
use crate::sim::{FlatDdConfig, FlatDdSimulator};
use crate::{faults, signal};
use qcircuit::{generators, qasm, Circuit};
use qtelemetry::MetricsRegistry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Daemon-wide configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Spool directory: job records, checkpoints, the port file.
    pub spool: PathBuf,
    /// Concurrent worker threads (= concurrently running jobs).
    pub workers: usize,
    /// Server-wide admission budget over per-job memory estimates.
    pub memory_budget_bytes: u64,
    /// Maximum queued (not yet running) jobs before submissions bounce.
    pub queue_cap: usize,
    /// Transient-failure retries per job.
    pub retry_max: u32,
    /// First retry backoff; doubles per retry, capped at
    /// [`ServeConfig::MAX_RETRY_BACKOFF_MS`].
    pub retry_backoff_ms: u64,
    /// Periodic checkpoint interval (gates) for jobs that do not set one.
    pub default_checkpoint_every: Option<usize>,
    /// Flat-phase state shards for jobs that do not set `flat_shards`
    /// (`None` = auto: one shard per worker thread).
    pub default_flat_shards: Option<usize>,
}

impl ServeConfig {
    /// Ceiling for the doubling retry backoff.
    pub const MAX_RETRY_BACKOFF_MS: u64 = 2_000;

    /// Defaults: 2 workers, 2 GiB admission budget, queue of 16.
    pub fn at(spool: impl Into<PathBuf>) -> Self {
        ServeConfig {
            spool: spool.into(),
            workers: 2,
            memory_budget_bytes: 2 << 30,
            queue_cap: 16,
            retry_max: 3,
            retry_backoff_ms: 50,
            default_checkpoint_every: None,
            default_flat_shards: None,
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The daemon is draining and no longer admits work.
    Draining,
    /// The bounded queue is full (HTTP 429).
    QueueFull,
    /// The spec is malformed or can never be admitted.
    Invalid(String),
}

/// Outcome of a cancellation request.
#[derive(Debug, PartialEq, Eq)]
pub enum CancelOutcome {
    /// No such job.
    NotFound,
    /// The job already reached a terminal state.
    AlreadyTerminal,
    /// The job was cancelled (immediately if queued; at its next gate
    /// boundary if running).
    Cancelled,
}

/// How many per-job [`RunContext`]s (progress ring + scoped metrics) the
/// scheduler keeps reachable after the job leaves the worker, so late
/// `GET /jobs/{id}/events` subscribers and the Prometheus scrape still see
/// recently finished jobs. Oldest ids are evicted first.
const RETAINED_JOB_CTXS: usize = 64;

struct SchedState {
    records: BTreeMap<u64, JobRecord>,
    /// Admission estimate per non-terminal job.
    est: HashMap<u64, u64>,
    /// Remote-control contexts of currently running jobs.
    ctxs: HashMap<u64, RunContext>,
    /// Most recent context per job (running *or* finished, capped at
    /// [`RETAINED_JOB_CTXS`]): the progress ring behind the event stream
    /// and the scoped registry behind the per-job Prometheus scrape.
    job_ctxs: BTreeMap<u64, RunContext>,
    /// Wall-clock enqueue instant per queued job (set on submit, re-queue,
    /// and recovery; consumed into `serve.queue_wait_us` at claim).
    enqueued_at: HashMap<u64, Instant>,
    /// Jobs the client cancelled (distinguishes a user cancel from a
    /// preemption when `Interrupted` comes back).
    cancelled: HashSet<u64>,
    /// Running jobs already asked to yield for a higher-priority one.
    preempting: HashSet<u64>,
    queue: Vec<u64>,
    next_id: u64,
    mem_in_use: u64,
    running: usize,
}

struct Inner {
    cfg: ServeConfig,
    state: Mutex<SchedState>,
    cv: Condvar,
    metrics: MetricsRegistry,
    /// Cached handles into `metrics` (one lookup at startup; the two
    /// counters are bumped at two transitions each).
    hist_queue_wait: qtelemetry::Histogram,
    hist_run: qtelemetry::Histogram,
    jobs_cancelled: qtelemetry::Counter,
    jobs_failed: qtelemetry::Counter,
    draining: AtomicBool,
    /// Daemon start instant, for `/healthz` uptime reporting.
    started: Instant,
}

type Locked<'a> = MutexGuard<'a, SchedState>;

impl Inner {
    /// The scheduler lock does not poison: a worker that dies holding it
    /// (a panic outside the per-job containment) takes its own job down,
    /// not every later request.
    fn lock(&self) -> Locked<'_> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits on the scheduler's condition variable for at most `timeout`.
    fn wait<'a>(&self, st: Locked<'a>, timeout: Duration) -> Locked<'a> {
        let waited = self.cv.wait_timeout(st, timeout);
        waited.unwrap_or_else(PoisonError::into_inner).0
    }
}

/// The job scheduler. Cheap handles are obtained with [`Scheduler::handle`]
/// for the HTTP edge; the owning instance joins its workers on
/// [`Scheduler::drain`].
pub struct Scheduler {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// A clonable, non-owning view for request handlers.
#[derive(Clone)]
pub struct SchedulerHandle {
    inner: Arc<Inner>,
}

impl Scheduler {
    /// Creates the scheduler, recovers the spool, and starts the workers.
    pub fn start(cfg: ServeConfig) -> Result<Scheduler, FlatDdError> {
        std::fs::create_dir_all(&cfg.spool)?;
        // Satellite sweep: stale FDCP1 `*.tmp` siblings from a crashed
        // checkpoint write, plus torn record installs.
        checkpoint::sweep_stale_tmp(&cfg.spool);
        sweep_record_tmps(&cfg.spool);

        let mut state = SchedState {
            records: BTreeMap::new(),
            est: HashMap::new(),
            ctxs: HashMap::new(),
            job_ctxs: BTreeMap::new(),
            enqueued_at: HashMap::new(),
            cancelled: HashSet::new(),
            preempting: HashSet::new(),
            queue: Vec::new(),
            next_id: 1,
            mem_in_use: 0,
            running: 0,
        };
        let metrics = MetricsRegistry::new();
        // Spool fsck: corrupt records were moved to `<spool>/quarantine/`
        // by `load_spool`; surface the count so operators can alert on it.
        let loaded = super::jobs::load_spool(&cfg.spool);
        metrics
            .counter("serve.quarantined")
            .add(loaded.quarantined as u64);
        for mut rec in loaded.records {
            state.next_id = state.next_id.max(rec.id + 1);
            if !rec.state.is_terminal() {
                // A record caught `running` by a crash resumes from its
                // checkpoint exactly like a preempted one.
                if rec.state == JobState::Running {
                    rec.state = JobState::Preempted;
                }
                match job_estimate(&cfg, &rec.spec) {
                    Ok(est) => {
                        eprintln!(
                            "[flatdd-serve] recovered job {} ({}) as {}",
                            rec.id,
                            rec.spec.circuit,
                            rec.state.label()
                        );
                        let _ = rec.persist(&cfg.spool);
                        state.est.insert(rec.id, est);
                        state.queue.push(rec.id);
                        state.enqueued_at.insert(rec.id, Instant::now());
                        metrics.counter("serve.jobs_recovered").inc();
                    }
                    Err(e) => {
                        rec.state = JobState::Failed;
                        rec.exit_code = Some(2);
                        rec.error = Some(format!("unrecoverable spec: {e}"));
                        let _ = rec.persist(&cfg.spool);
                    }
                }
            }
            if rec.state.is_terminal() {
                // A terminal job's checkpoint has served its purpose.
                checkpoint::remove_checkpoint(&JobRecord::ckpt_path(&cfg.spool, rec.id));
            }
            state.records.insert(rec.id, rec);
        }

        let inner = Arc::new(Inner {
            cfg,
            state: Mutex::new(state),
            cv: Condvar::new(),
            hist_queue_wait: metrics.histogram("serve.queue_wait_us"),
            hist_run: metrics.histogram("serve.run_us"),
            jobs_cancelled: metrics.counter("serve.jobs_cancelled"),
            jobs_failed: metrics.counter("serve.jobs_failed"),
            metrics,
            draining: AtomicBool::new(false),
            started: Instant::now(),
        });
        publish_gauges(&inner, &inner.lock());
        let workers = (0..inner.cfg.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("flatdd-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker thread")
            })
            .collect();
        Ok(Scheduler { inner, workers })
    }

    /// A clonable handle for the HTTP edge.
    pub fn handle(&self) -> SchedulerHandle {
        SchedulerHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Graceful shutdown: stop admitting, cancel every running job (each
    /// writes its on-breach checkpoint and re-queues as `preempted`),
    /// persist, and join the workers. Queued and preempted jobs stay in
    /// the spool for the next daemon instance.
    pub fn drain(self) {
        self.inner.draining.store(true, Ordering::SeqCst);
        {
            let st = self.inner.lock();
            for ctx in st.ctxs.values() {
                ctx.cancel(signal::SIGTERM);
            }
        }
        self.inner.cv.notify_all();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

impl SchedulerHandle {
    /// True once [`Scheduler::drain`] has begun.
    pub fn draining(&self) -> bool {
        self.inner.draining.load(Ordering::SeqCst)
    }

    /// The daemon-level metrics registry (`serve.*` counters/gauges).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// Admits a job, returning its id.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, SubmitError> {
        if self.draining() {
            return Err(SubmitError::Draining);
        }
        if let Some(fspec) = &spec.faults {
            faults::FaultRegistry::from_spec(fspec).map_err(SubmitError::Invalid)?;
        }
        // Validate the circuit and size it before taking a queue slot.
        let est = job_estimate(&self.inner.cfg, &spec).map_err(SubmitError::Invalid)?;
        let mut st = self.inner.lock();
        if st.queue.len() >= self.inner.cfg.queue_cap {
            self.inner
                .metrics
                .counter("serve.jobs_rejected_queue_full")
                .inc();
            return Err(SubmitError::QueueFull);
        }
        let id = st.next_id;
        st.next_id += 1;
        let rec = JobRecord::new(id, spec);
        let _ = rec.persist(&self.inner.cfg.spool);
        st.records.insert(id, rec);
        st.est.insert(id, est);
        st.queue.push(id);
        st.enqueued_at.insert(id, Instant::now());
        self.inner.metrics.counter("serve.jobs_submitted").inc();
        self.publish_gauges(&st);
        drop(st);
        self.inner.cv.notify_all();
        Ok(id)
    }

    /// Requests cancellation of a job.
    pub fn cancel(&self, id: u64) -> CancelOutcome {
        let mut st = self.inner.lock();
        let Some(rec) = st.records.get(&id) else {
            return CancelOutcome::NotFound;
        };
        if rec.state.is_terminal() {
            return CancelOutcome::AlreadyTerminal;
        }
        st.cancelled.insert(id);
        if let Some(ctx) = st.ctxs.get(&id) {
            // Running: stop at the next gate boundary, leaving no
            // checkpoint (the terminal transition would delete it).
            ctx.abandon();
        } else {
            // Queued or preempted: finalize immediately.
            st.queue.retain(|&q| q != id);
            st.est.remove(&id);
            st.enqueued_at.remove(&id);
            let spool = self.inner.cfg.spool.clone();
            checkpoint::remove_checkpoint(&JobRecord::ckpt_path(&spool, id));
            if let Some(rec) = st.records.get_mut(&id) {
                rec.state = JobState::Cancelled;
                let _ = rec.persist(&spool);
            }
            self.inner.jobs_cancelled.inc();
            self.publish_gauges(&st);
        }
        drop(st);
        self.inner.cv.notify_all();
        CancelOutcome::Cancelled
    }

    /// Snapshot of one record.
    pub fn job(&self, id: u64) -> Option<JobRecord> {
        self.inner.lock().records.get(&id).cloned()
    }

    /// Snapshot of every record, ascending by id.
    pub fn jobs(&self) -> Vec<JobRecord> {
        self.inner.lock().records.values().cloned().collect()
    }

    /// `(running, queued)` counts for health reporting.
    pub fn load(&self) -> (usize, usize) {
        let st = self.inner.lock();
        (st.running, st.queue.len())
    }

    /// Blocks until every non-terminal job reaches a terminal state (test
    /// helper; returns false on timeout).
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.lock();
        loop {
            let busy = st.running > 0 || !st.queue.is_empty();
            if !busy {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            st = self.inner.wait(st, deadline - now);
        }
    }

    fn publish_gauges(&self, st: &SchedState) {
        publish_gauges(&self.inner, st);
    }

    /// Seconds since the scheduler started, for `/healthz`.
    pub fn uptime_secs(&self) -> f64 {
        self.inner.started.elapsed().as_secs_f64()
    }

    /// Execution context of a running or recently finished job: the
    /// progress ring behind `GET /jobs/{id}/events` and the scoped metrics
    /// registry. `None` once the context has aged out (see
    /// `RETAINED_JOB_CTXS`) or for ids the daemon never ran.
    pub fn job_context(&self, id: u64) -> Option<RunContext> {
        self.inner.lock().job_ctxs.get(&id).cloned()
    }

    /// `(id, registry)` for every tracked job, ascending by id — the
    /// per-job section of the Prometheus scrape.
    pub fn job_registries(&self) -> Vec<(u64, MetricsRegistry)> {
        self.inner
            .lock()
            .job_ctxs
            .iter()
            .map(|(&id, c)| (id, c.metrics().clone()))
            .collect()
    }
}

/// Removes torn `job-*.json.tmp` installs left by a crash mid-rename.
fn sweep_record_tmps(spool: &std::path::Path) {
    let Ok(entries) = std::fs::read_dir(spool) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("job-") && name.ends_with(".json.tmp") {
            let p = entry.path();
            if std::fs::remove_file(&p).is_ok() {
                eprintln!("[flatdd-serve] removed stale record temp {}", p.display());
            }
        }
    }
}

/// Builds the circuit a spec describes (deterministic in `seed`).
pub fn build_circuit(spec: &JobSpec) -> Result<Circuit, FlatDdError> {
    match &spec.qasm {
        Some(src) => qasm::parse_qasm(src).map_err(FlatDdError::Qasm),
        None => generators::from_spec(&spec.circuit, spec.seed).map_err(FlatDdError::InvalidInput),
    }
}

/// Builds the spec's circuit once — which validates it — and returns the
/// admission estimate in bytes: the job's own budget when it declares one,
/// else the one flat `2^n` buffer its flat phase holds plus fixed
/// overhead. Rejects jobs that can never fit under the server budget (they
/// would starve forever).
fn job_estimate(cfg: &ServeConfig, spec: &JobSpec) -> Result<u64, String> {
    const OVERHEAD: u64 = 32 << 20;
    let n = build_circuit(spec).map_err(|e| e.to_string())?.num_qubits() as u32;
    let est = match spec.memory_budget_mb {
        Some(mb) => mb << 20,
        None => {
            let amps = 1u64.checked_shl(n).unwrap_or(u64::MAX);
            amps.saturating_mul(16).saturating_add(OVERHEAD)
        }
    };
    if est > cfg.memory_budget_bytes {
        return Err(format!(
            "job needs ~{est} bytes but the server admission budget is {} bytes",
            cfg.memory_budget_bytes
        ));
    }
    Ok(est)
}

/// Picks the best admissible queued job: highest priority that fits the
/// remaining memory budget, oldest id as tie-break.
fn pick(st: &SchedState, budget: u64) -> Option<u64> {
    let free = budget - st.mem_in_use;
    st.queue
        .iter()
        .copied()
        .filter(|id| st.est.get(id).is_some_and(|&e| e <= free))
        .max_by_key(|id| (st.records[id].spec.priority, std::cmp::Reverse(*id)))
}

/// When the best queued job is starved by memory, asks the lowest-priority
/// strictly-lower running job to yield (at most one outstanding request).
fn maybe_preempt(inner: &Inner, st: &mut SchedState) {
    let Some(starved) = st
        .queue
        .iter()
        .copied()
        .max_by_key(|id| (st.records[id].spec.priority, std::cmp::Reverse(*id)))
    else {
        return;
    };
    let starved_prio = st.records[&starved].spec.priority;
    let victim = st
        .ctxs
        .keys()
        .copied()
        .filter(|id| !st.preempting.contains(id))
        .filter(|id| st.records[id].spec.priority < starved_prio)
        .min_by_key(|id| (st.records[id].spec.priority, *id));
    if let Some(victim) = victim {
        eprintln!(
            "[flatdd-serve] preempting job {victim} (priority {}) for job {starved} (priority {starved_prio})",
            st.records[&victim].spec.priority
        );
        st.preempting.insert(victim);
        st.ctxs[&victim].cancel(signal::SIGTERM);
        inner.metrics.counter("serve.preemptions_requested").inc();
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        // Claim phase: wait for an admissible job (or drain).
        let (id, ctx) = {
            let mut st = inner.lock();
            loop {
                if inner.draining.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(id) = pick(&st, inner.cfg.memory_budget_bytes) {
                    st.queue.retain(|&q| q != id);
                    let est = st.est[&id];
                    st.mem_in_use += est;
                    st.running += 1;
                    let spool = inner.cfg.spool.clone();
                    let rec = st.records.get_mut(&id).unwrap();
                    rec.state = JobState::Running;
                    let _ = rec.persist(&spool);
                    let mut ctx = RunContext::isolated();
                    if let Some(fspec) = &rec.spec.faults {
                        // Validated at submit; a scoped arming failure here
                        // would mean the grammar changed under us.
                        ctx = ctx
                            .with_faults_spec(fspec)
                            .unwrap_or_else(|_| RunContext::isolated());
                    }
                    if let Some(t) = st.enqueued_at.remove(&id) {
                        let wait_us = t.elapsed().as_micros().min(u64::MAX as u128) as u64;
                        inner.hist_queue_wait.observe(wait_us);
                    }
                    st.ctxs.insert(id, ctx.clone());
                    st.job_ctxs.insert(id, ctx.clone());
                    while st.job_ctxs.len() > RETAINED_JOB_CTXS {
                        let oldest = *st.job_ctxs.keys().next().unwrap();
                        st.job_ctxs.remove(&oldest);
                    }
                    publish_gauges(inner, &st);
                    break (id, ctx);
                }
                maybe_preempt(inner, &mut st);
                st = inner.wait(st, Duration::from_millis(200));
            }
        };

        // Run phase: outside the lock. Any panic that escapes the
        // simulator's own containment is still confined to this job.
        let spec = inner.lock().records[&id].spec.clone();
        let started = Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_job(inner, id, &spec, &ctx)
        }));
        let elapsed = started.elapsed().as_secs_f64();
        inner.hist_run.observe((elapsed * 1e6) as u64);

        // Transition phase.
        let mut backoff: Option<Duration> = None;
        {
            let mut st = inner.lock();
            let est = st.est[&id];
            st.mem_in_use -= est;
            st.running -= 1;
            st.ctxs.remove(&id);
            st.preempting.remove(&id);
            let was_cancelled = st.cancelled.remove(&id);
            let spool = inner.cfg.spool.clone();
            let retry_budget = inner.cfg.retry_max;
            let mut rec = st.records.remove(&id).unwrap();
            match outcome {
                Ok(Ok(mut result)) => {
                    result.elapsed_secs = elapsed;
                    rec.state = JobState::Done;
                    rec.result = Some(result);
                    inner.metrics.counter("serve.jobs_completed").inc();
                }
                Ok(Err(FlatDdError::Interrupted { .. })) => {
                    if was_cancelled {
                        rec.state = JobState::Cancelled;
                        inner.jobs_cancelled.inc();
                    } else {
                        // Preemption or drain: the on-breach checkpoint is
                        // installed; park the job for a later worker (or
                        // the next daemon instance).
                        rec.state = JobState::Preempted;
                        rec.preemptions += 1;
                        inner.metrics.counter("serve.jobs_preempted").inc();
                        st.queue.push(id);
                        st.enqueued_at.insert(id, Instant::now());
                    }
                }
                Ok(Err(e)) if is_transient(&e) && rec.retries < retry_budget => {
                    rec.retries += 1;
                    let exp = rec.retries.saturating_sub(1).min(16);
                    backoff = Some(Duration::from_millis(
                        (inner.cfg.retry_backoff_ms << exp).min(ServeConfig::MAX_RETRY_BACKOFF_MS),
                    ));
                    eprintln!(
                        "[flatdd-serve] job {id} transient failure (retry {}/{retry_budget}): {e}",
                        rec.retries
                    );
                    rec.state = JobState::Queued;
                    inner.metrics.counter("serve.job_retries").inc();
                    st.queue.push(id);
                    st.enqueued_at.insert(id, Instant::now());
                }
                Ok(Err(e)) => {
                    rec.state = JobState::Failed;
                    rec.exit_code = Some(e.exit_code());
                    rec.error = Some(e.to_string());
                    inner.jobs_failed.inc();
                }
                Err(_panic) => {
                    // Crash-loop containment: a panicking job gets
                    // `retry_max` fresh attempts (each resumes from its
                    // checkpoint when one is installed), then is poisoned.
                    // The count is persisted in the spool record, so a
                    // crash-restart cycle of the daemon itself cannot
                    // launder the attempt history.
                    rec.panics += 1;
                    inner.metrics.counter("serve.worker_panics").inc();
                    if rec.panics <= retry_budget {
                        eprintln!(
                            "[flatdd-serve] job {id} worker panicked (attempt {}/{}); re-queueing",
                            rec.panics, retry_budget
                        );
                        rec.state = JobState::Queued;
                        inner.metrics.counter("serve.job_panic_requeues").inc();
                        st.queue.push(id);
                        st.enqueued_at.insert(id, Instant::now());
                    } else {
                        rec.state = JobState::Failed;
                        rec.exit_code = Some(10);
                        rec.error = Some(format!(
                            "worker thread panicked repeatedly (crash-loop poisoned after {} attempts)",
                            rec.panics
                        ));
                        inner.jobs_failed.inc();
                        inner.metrics.counter("serve.jobs_poisoned").inc();
                    }
                }
            }
            if rec.state.is_terminal() {
                st.est.remove(&id);
                checkpoint::remove_checkpoint(&JobRecord::ckpt_path(&spool, id));
            }
            let _ = rec.persist(&spool);
            st.records.insert(id, rec);
            publish_gauges(inner, &st);
        }
        inner.cv.notify_all();
        if let Some(d) = backoff {
            // Backoff outside the lock; this worker sits out the delay, the
            // others keep draining the queue.
            std::thread::sleep(d);
            inner.cv.notify_all();
        }
    }
}

fn publish_gauges(inner: &Inner, st: &SchedState) {
    let m = &inner.metrics;
    m.gauge("serve.queue_depth").set(st.queue.len() as f64);
    m.gauge("serve.jobs_running").set(st.running as f64);
    m.gauge("serve.mem_admitted_bytes")
        .set(st.mem_in_use as f64);
}

fn is_transient(e: &FlatDdError) -> bool {
    matches!(
        e,
        FlatDdError::Io(_)
            | FlatDdError::MemoryBudgetExceeded { .. }
            | FlatDdError::AllocationFailed { .. }
    )
}

/// Runs one attempt of one job on the worker thread.
fn execute_job(
    inner: &Inner,
    id: u64,
    spec: &JobSpec,
    ctx: &RunContext,
) -> Result<JobResult, FlatDdError> {
    let circuit = build_circuit(spec)?;
    let n = circuit.num_qubits();
    let mut governor = GovernorConfig::default();
    if let Some(mb) = spec.memory_budget_mb {
        governor.memory_budget_bytes = Some((mb as usize) << 20);
    }
    if let Some(s) = spec.deadline_secs {
        governor.deadline = Some(Duration::from_secs_f64(s));
    }
    if let Some(f) = spec.approx_fidelity_floor {
        governor.approx_fidelity_floor = Some(f);
    }
    // `trace` keeps one record per step, so the job's per-step latency
    // histograms count every step, as under the CLI's `--metrics-out`.
    let mut cfg = FlatDdConfig {
        threads: spec.threads,
        trace: true,
        governor,
        ..Default::default()
    };
    if let Some(s) = spec.flat_shards.or(inner.cfg.default_flat_shards) {
        cfg.flat_shards = s;
    }
    if let Some(g) = spec.convert_at_gate {
        cfg.conversion = crate::sim::ConversionPolicy::AtGate(g);
    }

    let ckpt = JobRecord::ckpt_path(&inner.cfg.spool, id);
    // Resume when a loadable checkpoint is installed (prior preemption,
    // drain, retry, or daemon crash); otherwise start fresh. A corrupt
    // checkpoint is logged and ignored — losing progress beats losing
    // the job.
    let (mut sim, resumed) = if checkpoint::read_header(&ckpt).is_ok() {
        match FlatDdSimulator::resume_from_with(&ckpt, cfg, &circuit, ctx.clone()) {
            Ok((sim, header)) => {
                eprintln!(
                    "[flatdd-serve] job {id} resuming from gate {}/{}",
                    header.gate_cursor,
                    circuit.num_gates()
                );
                (sim, true)
            }
            Err(e) => {
                eprintln!("[flatdd-serve] job {id} checkpoint unusable ({e}); restarting");
                (FlatDdSimulator::try_new_with(n, cfg, ctx.clone())?, false)
            }
        }
    } else {
        (FlatDdSimulator::try_new_with(n, cfg, ctx.clone())?, false)
    };

    let mut policy = CheckpointPolicy::at(&ckpt);
    if let Some(g) = spec.checkpoint_every.or(inner.cfg.default_checkpoint_every) {
        policy = policy.every(g);
    }
    policy.rng_seed = spec.seed;
    // A job that completes is `done` and its checkpoint deleted: it need
    // not wait for the newest one's install.
    policy.install_on_completion = false;
    let periodic = policy.every_gates.is_some();
    sim.set_checkpoint_policy(Some(policy));

    let run = |sim: &mut FlatDdSimulator| {
        if resumed {
            sim.run_from(&circuit)
        } else {
            sim.run(&circuit)
        }
    };
    let outcome = if periodic {
        with_installer(&mut sim, run)
    } else {
        run(&mut sim)
    }?;

    let mut result = JobResult {
        gates_applied: outcome.gates_applied,
        total_gates: outcome.total_gates,
        phase: sim.phase().label().to_string(),
        elapsed_secs: 0.0,
        heavy: Vec::new(),
        stats_json: sim.stats().to_json(),
        metrics_json: String::new(),
        approximate: sim.is_approximate(),
        fidelity: sim.fidelity(),
    };
    // Top amplitudes at full precision, read without materializing 2^n.
    result.heavy = sim
        .top_amplitudes(8)
        .into_iter()
        .map(|(i, a)| (i, a.re, a.im))
        .collect();
    sim.publish_metrics();
    result.metrics_json = ctx.metrics().to_json();
    Ok(result)
}

/// Runs `run` on `sim` with a checkpoint installer attached: one scoped
/// thread that installs the simulator's periodic checkpoints while `run`
/// simulates on (DESIGN.md §10.2). The installer leaves when `run` returns
/// or unwinds, and a panic on it reaches the caller through the scope's
/// join. Should the thread not start, the installs run inline.
pub fn with_installer<R>(
    sim: &mut FlatDdSimulator,
    run: impl FnOnce(&mut FlatDdSimulator) -> R,
) -> R {
    struct Close<'a>(&'a InstallMailbox);
    impl Drop for Close<'_> {
        fn drop(&mut self) {
            self.0.close();
        }
    }
    let mailbox = Arc::new(InstallMailbox::default());
    let ctx = sim.context().clone();
    std::thread::scope(|s| {
        let installer = std::thread::Builder::new()
            .name("flatdd-ckpt-installer".into())
            .spawn_scoped(s, || mailbox.serve(&ctx));
        if installer.is_err() {
            return run(sim);
        }
        let _close = Close(&mailbox);
        sim.attach_installer(Some(Arc::clone(&mailbox)));
        let out = run(sim);
        sim.attach_installer(None);
        out
    })
}
