//! Checkpointing of the driver: policy, the FDCP1 write at the current
//! gate boundary, the best-effort periodic write (staged here, installed
//! here or on an attached installer), and resume.

use super::active::Fixed;
use super::{Boundary, Core, DdPhase, FlatDdConfig, FlatDdSimulator, FlatPhase, PhaseState};
use crate::checkpoint::{
    self, CheckpointHeader, CheckpointPayload, CheckpointPolicy, CheckpointState, InstallMailbox,
    InstallOutcome, Staged,
};
use crate::context::RunContext;
use crate::error::FlatDdError;
use qcircuit::Circuit;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Emits a checkpoint telemetry event for an operation that started at
/// `ts_us` on the telemetry clock (no-op without a sink).
fn checkpoint_event(core: &Core, phase: &PhaseState, op: &'static str, ts_us: f64, bytes: u64) {
    if qtelemetry::enabled() {
        qtelemetry::emit(qtelemetry::Event::Checkpoint {
            sim: core.telemetry_id,
            ts_us,
            dur_us: (qtelemetry::now_us() - ts_us).max(0.0),
            op,
            bytes,
            gate_cursor: core.cursor,
            phase: phase.phase().label(),
        });
    }
}

/// Counts a staged checkpoint that a newer one replaced, or that the end
/// of a run dropped, before its install.
fn note_superseded(core: &Core) {
    core.ctx.metrics().counter("checkpoint.superseded").inc();
}

/// Counts a checkpoint write or install that failed.
pub(super) fn note_write_failure(core: &Core) {
    core.ctx
        .metrics()
        .counter("checkpoint.write_failures")
        .inc();
}

/// The job thread's side of periodic checkpoint installs (DESIGN.md
/// §10.2): where installs run, and the retry state of failed ones.
#[derive(Default)]
pub(crate) struct Installs {
    /// The installer serving this simulator; `None` installs inline, on
    /// the job thread.
    mailbox: Option<Arc<InstallMailbox>>,
    /// A checkpoint handed to the installer has an outcome still to read.
    outstanding: bool,
    /// Failed periodic installs in a row.
    failures: u32,
    /// When the retry of a failed install may re-stage.
    retry_at: Option<Instant>,
}

impl Boundary {
    /// Encodes the checkpoint of `(core, phase)` straight from the live
    /// state into staging `slot` of `path`, or over `pending`, a staged
    /// checkpoint of that slot no installer took.
    fn stage(
        &self,
        core: &Core,
        phase: &PhaseState,
        path: &Path,
        rng_seed: u64,
        (pending, slot): (Option<Staged>, usize),
    ) -> Result<Staged, FlatDdError> {
        let header = CheckpointHeader {
            circuit_hash: self.active_circuit_hash,
            config_fingerprint: checkpoint::config_fingerprint(&core.cfg),
            n: core.n as u32,
            gate_cursor: core.cursor as u64,
            phase: phase.phase(),
            conversion_blocked: core.conversion_blocked,
            ewma: match phase {
                PhaseState::Dd(dd) => dd.ewma.state(),
                PhaseState::Flat(flat) => flat.ewma,
            },
            rng_seed,
            rng_pos: 0,
            stats: core.stats,
        };
        let (dd_bytes, amps);
        let payload = match phase {
            PhaseState::Dd(dd) => {
                dd_bytes = qdd::serialize::vector_dd_to_bytes(&core.pkg, dd.state, core.n)?;
                CheckpointPayload::Dd(&dd_bytes)
            }
            // Always the full-width state: the file does not depend on which
            // qubits the flat phase holds out.
            PhaseState::Flat(flat) => {
                amps = flat.full_state(core.n);
                CheckpointPayload::Flat { amps: &amps }
            }
        };
        match pending {
            Some(staged) => staged.restage(&header, payload),
            None => checkpoint::stage_checkpoint(path, slot, &header, payload),
        }
    }

    /// Accounts a checkpoint written on the job thread: `sim.ckpt_write_us`
    /// times what the job thread paid (the stage, plus the install when it
    /// ran inline).
    fn note_write(&self, core: &Core, phase: &PhaseState, started: f64, bytes: u64) {
        let dur_us = (qtelemetry::now_us() - started).max(0.0);
        self.hist_ckpt_write.observe(dur_us as u64);
        let metrics = core.ctx.metrics();
        metrics.counter("checkpoint.writes").inc();
        metrics.gauge("checkpoint.bytes").set(bytes as f64);
        checkpoint_event(core, phase, "write", started, bytes);
    }

    /// Writes a checkpoint of `(core, phase)` to the policy path now, on the
    /// job thread: drops a pending periodic checkpoint and waits for the one
    /// in flight first, so no late periodic install can overwrite this one.
    fn save_checkpoint(&mut self, core: &Core, phase: &PhaseState) -> Result<u64, FlatDdError> {
        let policy = self
            .ckpt
            .clone()
            .ok_or_else(|| FlatDdError::InvalidInput("no checkpoint policy configured".into()))?;
        self.drain_installs(core, true);
        let started = qtelemetry::now_us();
        let staged = self.stage(core, phase, &policy.path, policy.rng_seed, (None, 0))?;
        let bytes = staged.install_with(&core.ctx, false)?;
        // A newer checkpoint is durable: earlier failed installs need no
        // retry.
        self.installs.failures = 0;
        self.installs.retry_at = None;
        self.gates_since_ckpt = 0;
        self.last_checkpoint = Some(policy.path);
        self.note_write(core, phase, started, bytes);
        Ok(bytes)
    }

    /// The periodic checkpoint stage, after every step under a policy with
    /// `every_gates`. Reads the outcomes of finished installs, then stages
    /// a checkpoint when one is due, or when a failed install's retry is
    /// (its backoff has elapsed and no newer checkpoint is on its way).
    /// Periodic checkpoints are best-effort: a failed install (disk full,
    /// permissions, a torn write caught by the header read-back) is counted
    /// and retried, never fails the run, and the previously installed
    /// checkpoint stays valid.
    pub(super) fn periodic_checkpoint(&mut self, core: &Core, phase: &PhaseState, every: usize) {
        if self.installs.outstanding {
            self.read_installs(core, false);
        }
        let due = self.gates_since_ckpt >= every;
        let retry_due = !self.installs.outstanding
            && self
                .installs
                .retry_at
                .is_some_and(|at| Instant::now() >= at);
        if due || retry_due {
            self.stage_periodic(core, phase, due);
        }
    }

    /// Stages a periodic checkpoint (a due one moves the cadence, a retry
    /// does not) and installs it here, or hands it to the installer when
    /// one is attached, in place of a pending one.
    fn stage_periodic(&mut self, core: &Core, phase: &PhaseState, due: bool) {
        self.installs.retry_at = None;
        let Some((path, rng_seed)) = self.ckpt.as_ref().map(|p| (p.path.clone(), p.rng_seed))
        else {
            return;
        };
        if due {
            self.gates_since_ckpt = 0;
        }
        let started = qtelemetry::now_us();
        let staging = match &self.installs.mailbox {
            Some(mailbox) => mailbox.take_pending(),
            None => (None, 0),
        };
        if staging.0.is_some() {
            note_superseded(core);
        }
        let staged = match self.stage(core, phase, &path, rng_seed, staging) {
            Ok(staged) => staged,
            Err(e) => return self.note_install(core, Err(e)),
        };
        let bytes = staged.bytes();
        match &self.installs.mailbox {
            Some(mailbox) => {
                mailbox.post(staged);
                self.installs.outstanding = true;
                self.note_write(core, phase, started, bytes);
            }
            None => {
                let outcome = staged.install_with(&core.ctx, true);
                self.note_write(core, phase, started, bytes);
                self.note_install(core, outcome);
            }
        }
    }

    /// The drain point at the end of a run: with `keep`, waits until the
    /// newest staged checkpoint is installed, so the file a run leaves is
    /// its last due cursor's. Should that install have failed with retries
    /// left, the run has no later boundary to retry at: the retry waits out
    /// its backoff here, at the end cursor. Without `keep`, a pending
    /// checkpoint is dropped and only the one in flight is waited for.
    pub(super) fn finish_installs(&mut self, core: &Core, phase: &PhaseState, keep: bool) {
        self.drain_installs(core, !keep);
        if !keep {
            self.installs.failures = 0;
            self.installs.retry_at = None;
        }
        while let Some(at) = self.installs.retry_at {
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            self.stage_periodic(core, phase, false);
            self.drain_installs(core, false);
        }
    }

    /// Reads the installer's outcomes; with `wait`, once it is idle. A
    /// no-op without an installer.
    fn read_installs(&mut self, core: &Core, wait: bool) {
        let Some(mailbox) = &self.installs.mailbox else {
            return;
        };
        let (outcomes, idle) = mailbox.outcomes(wait);
        self.installs.outstanding = !idle;
        for outcome in outcomes {
            self.note_install(core, outcome);
        }
    }

    /// A drain point: waits until the installer has installed the newest
    /// staged checkpoint, or with `drop_pending` discards a pending one and
    /// waits only for the one in flight.
    pub(super) fn drain_installs(&mut self, core: &Core, drop_pending: bool) {
        if drop_pending {
            if let Some(old) = self
                .installs
                .mailbox
                .as_ref()
                .and_then(|m| m.take_pending().0)
            {
                old.discard();
                note_superseded(core);
            }
        }
        self.read_installs(core, true);
    }

    /// Accounts one periodic install's outcome. An install that follows a
    /// failed one is its retry (`checkpoint.write_retries`). A failure arms
    /// a retry `retry_backoff_ms` later, doubling per failure in a row (up
    /// to [`CheckpointPolicy::MAX_RETRY_BACKOFF_MS`]), until
    /// `write_retries` retries have failed too; then it is logged, and the
    /// next due checkpoint starts afresh.
    fn note_install(&mut self, core: &Core, outcome: InstallOutcome) {
        let Some(policy) = &self.ckpt else {
            return;
        };
        let metrics = core.ctx.metrics();
        let failures = self.installs.failures;
        if failures > 0 {
            metrics.counter("checkpoint.write_retries").inc();
        }
        match outcome {
            Ok(_) => {
                if failures > 0 {
                    eprintln!("[flatdd] periodic checkpoint succeeded on retry {failures}");
                }
                self.installs.failures = 0;
                self.installs.retry_at = None;
                self.last_checkpoint = Some(policy.path.clone());
            }
            Err(e) => {
                note_write_failure(core);
                let failures = failures + 1;
                if failures <= policy.write_retries {
                    let backoff_ms = (policy.retry_backoff_ms << (failures - 1).min(16))
                        .min(CheckpointPolicy::MAX_RETRY_BACKOFF_MS);
                    self.installs.failures = failures;
                    self.installs.retry_at =
                        Some(Instant::now() + Duration::from_millis(backoff_ms));
                } else {
                    eprintln!(
                        "[flatdd] periodic checkpoint failed after {failures} attempt(s) \
                         (run continues): {e}"
                    );
                    self.installs.failures = 0;
                    self.installs.retry_at = None;
                }
            }
        }
    }
}

impl FlatDdSimulator {
    /// Installs (or removes) the checkpoint policy. With a policy in
    /// place, checkpoints are written every `every_gates` applied gates,
    /// and — when `on_breach` is set — once more when a resumable error
    /// (budget breach or polled signal) ends a [`Self::run`].
    pub fn set_checkpoint_policy(&mut self, policy: Option<CheckpointPolicy>) {
        self.boundary.drain_installs(&self.core, false);
        self.boundary.ckpt = policy;
        self.boundary.gates_since_ckpt = 0;
        self.boundary.installs.failures = 0;
        self.boundary.installs.retry_at = None;
    }

    /// Hands the installs of this simulator's periodic checkpoints to an
    /// installer thread serving `mailbox` ([`InstallMailbox::serve`]), or
    /// with `None` back to the calling thread, after the installs under way
    /// are done. Each due checkpoint is still staged on the calling thread,
    /// straight from the live state; only the durability wait (`fsync`,
    /// rename, directory `fsync`, header read-back) moves, and the end of
    /// every run waits for the newest checkpoint's install.
    pub fn attach_installer(&mut self, mailbox: Option<Arc<InstallMailbox>>) {
        self.boundary.drain_installs(&self.core, false);
        self.boundary.installs.mailbox = mailbox;
    }

    /// The active checkpoint policy.
    pub fn checkpoint_policy(&self) -> Option<&CheckpointPolicy> {
        self.boundary.ckpt.as_ref()
    }

    /// Path of the most recently written (or resumed-from) checkpoint.
    pub fn last_checkpoint(&self) -> Option<&Path> {
        self.boundary.last_checkpoint.as_deref()
    }

    /// Writes a checkpoint to the policy path now, regardless of triggers.
    /// Returns the installed file's size in bytes.
    pub fn save_checkpoint(&mut self) -> Result<u64, FlatDdError> {
        self.boundary.save_checkpoint(&self.core, &self.phase)
    }

    /// Rebuilds a simulator from a checkpoint of an interrupted run over
    /// `circuit`. Validation order: file integrity first (magic, version,
    /// section checksums — [`FlatDdError::CorruptCheckpoint`]), then
    /// compatibility (circuit hash, config fingerprint, qubit count, gate
    /// cursor — [`FlatDdError::InvalidInput`]). On success the returned
    /// simulator is positioned exactly at the saved gate cursor in the
    /// saved phase; continue with [`Self::run_from`]. The returned header
    /// hands the caller the persisted RNG seed.
    ///
    /// Governor budgets start fresh: a deadline measures *this* process's
    /// wall clock, which is what makes "breach, checkpoint, retry with a
    /// larger budget" a sensible loop.
    pub fn resume_from(
        path: &Path,
        cfg: FlatDdConfig,
        circuit: &Circuit,
    ) -> Result<(Self, CheckpointHeader), FlatDdError> {
        Self::resume_from_with(path, cfg, circuit, RunContext::process())
    }

    /// [`Self::resume_from`] with an explicit per-run context (see
    /// [`Self::try_new_with`]).
    pub fn resume_from_with(
        path: &Path,
        cfg: FlatDdConfig,
        circuit: &Circuit,
        ctx: RunContext,
    ) -> Result<(Self, CheckpointHeader), FlatDdError> {
        let started = qtelemetry::now_us();
        let (header, state) = checkpoint::read_checkpoint(path)?;
        if header.n as usize != circuit.num_qubits() {
            return Err(FlatDdError::InvalidInput(format!(
                "checkpoint is over {} qubits but the circuit has {}",
                header.n,
                circuit.num_qubits()
            )));
        }
        if header.circuit_hash != checkpoint::circuit_fingerprint(circuit) {
            return Err(FlatDdError::InvalidInput(
                "checkpoint was taken for a different circuit (content hash mismatch)".into(),
            ));
        }
        if header.config_fingerprint != checkpoint::config_fingerprint(&cfg) {
            return Err(FlatDdError::InvalidInput(
                "checkpoint was taken under a different configuration \
                 (conversion/caching/fusion fingerprint mismatch)"
                    .into(),
            ));
        }
        if header.gate_cursor as usize > circuit.gates().len() {
            return Err(FlatDdError::CorruptCheckpoint {
                detail: format!(
                    "gate cursor {} is beyond the {}-gate circuit",
                    header.gate_cursor,
                    circuit.gates().len()
                ),
            });
        }
        let mut sim = Self::try_new_with(header.n as usize, cfg, ctx)?;
        let core = &mut sim.core;
        sim.phase = match state {
            CheckpointState::Dd(bytes) => {
                let (root, n2) = qdd::serialize::vector_dd_from_bytes(&mut core.pkg, &bytes)
                    .map_err(|e| FlatDdError::CorruptCheckpoint {
                        detail: format!("DD payload: {e}"),
                    })?;
                if n2 != header.n as usize {
                    return Err(FlatDdError::CorruptCheckpoint {
                        detail: format!("DD payload is over {n2} qubits, header says {}", header.n),
                    });
                }
                let mut dd = DdPhase::new(root, &cfg);
                dd.ewma.restore(header.ewma);
                PhaseState::Dd(dd)
            }
            CheckpointState::Flat(v) => {
                // The payload is shard-agnostic: re-shard under *this*
                // simulator's geometry, which may differ from the writer's.
                // The flat phase resumes at full width.
                let v = qarray::ShardedState::from_vec(v, core.shards);
                PhaseState::Flat(FlatPhase::new(v, Fixed::NONE, header.ewma))
            }
        };
        // Drop the |0...0> state try_new built.
        sim.phase.collect(core);
        core.cursor = header.gate_cursor as usize;
        core.stats = header.stats;
        core.conversion_blocked = header.conversion_blocked;
        sim.boundary.active_circuit_hash = header.circuit_hash;
        sim.boundary.last_checkpoint = Some(path.to_path_buf());
        let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        core.ctx.metrics().counter("checkpoint.loads").inc();
        checkpoint_event(core, &sim.phase, "load", started, bytes);
        Ok((sim, header))
    }
}
