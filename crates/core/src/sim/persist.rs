//! Checkpointing of the driver: policy, the FDCP1 write at the current
//! gate boundary, the best-effort periodic write, and resume.

use super::active::Fixed;
use super::{Boundary, Core, DdPhase, FlatDdConfig, FlatDdSimulator, FlatPhase, PhaseState};
use crate::checkpoint::{
    self, CheckpointHeader, CheckpointPayload, CheckpointPolicy, CheckpointState,
};
use crate::context::RunContext;
use crate::error::FlatDdError;
use qcircuit::Circuit;
use std::path::Path;
use std::time::Instant;

/// Starts timing a checkpoint operation: the telemetry-clock start (only
/// when telemetry is on) and the wall clock.
fn stopwatch() -> (Option<f64>, Instant) {
    let ts_us = qtelemetry::enabled().then(qtelemetry::now_us);
    (ts_us, Instant::now())
}

/// Emits a checkpoint telemetry event (no-op when telemetry was off at the
/// start of the operation).
fn checkpoint_event(
    core: &Core,
    phase: &PhaseState,
    op: &'static str,
    started: (Option<f64>, Instant),
    bytes: u64,
) {
    if let Some(ts_us) = started.0 {
        qtelemetry::emit(qtelemetry::Event::Checkpoint {
            sim: core.telemetry_id,
            ts_us,
            dur_us: started.1.elapsed().as_secs_f64() * 1e6,
            op,
            bytes,
            gate_cursor: core.cursor,
            phase: phase.phase().label(),
        });
    }
}

impl Boundary {
    /// Writes a checkpoint of `(core, phase)` to the policy path.
    fn save_checkpoint(&mut self, core: &Core, phase: &PhaseState) -> Result<u64, FlatDdError> {
        let policy = self
            .ckpt
            .clone()
            .ok_or_else(|| FlatDdError::InvalidInput("no checkpoint policy configured".into()))?;
        let started = stopwatch();
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
            rng_seed: policy.rng_seed,
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
        let bytes = checkpoint::write_checkpoint_with(&policy.path, &header, payload, &core.ctx)?;
        let dur_us = started.1.elapsed().as_secs_f64() * 1e6;
        self.gates_since_ckpt = 0;
        self.last_checkpoint = Some(policy.path);
        self.hist_ckpt_write.observe(dur_us as u64);
        let metrics = core.ctx.metrics();
        metrics.counter("checkpoint.writes").inc();
        metrics.gauge("checkpoint.bytes").set(bytes as f64);
        metrics.gauge("checkpoint.write_us").set(dur_us);
        checkpoint_event(core, phase, "write", started, bytes);
        Ok(bytes)
    }

    /// Periodic checkpoint write, best-effort: a transient failure (disk
    /// full, permissions, a torn write caught by post-install header
    /// verification) must not abort a run whose state is perfectly healthy.
    /// Failed attempts are retried up to `policy.write_retries` times with
    /// a doubling backoff (capped at
    /// [`CheckpointPolicy::MAX_RETRY_BACKOFF_MS`]); if every attempt fails
    /// the error is logged and counted while the previously installed
    /// checkpoint stays valid. The cadence counter resets either way, so
    /// the next attempt comes a full interval later instead of on every
    /// subsequent gate.
    pub(super) fn periodic_checkpoint(&mut self, core: &Core, phase: &PhaseState) {
        let Some((path, retries, mut backoff_ms)) = self
            .ckpt
            .as_ref()
            .map(|p| (p.path.clone(), p.write_retries, p.retry_backoff_ms))
        else {
            return;
        };
        let mut last_err: Option<FlatDdError> = None;
        for attempt in 0..=retries {
            if attempt > 0 {
                std::thread::sleep(std::time::Duration::from_millis(backoff_ms));
                backoff_ms = (backoff_ms * 2).min(CheckpointPolicy::MAX_RETRY_BACKOFF_MS);
                core.ctx.metrics().counter("checkpoint.write_retries").inc();
            }
            // `save_checkpoint` reports write-path errors; a write that
            // "succeeded" can still have been torn by a crash-adjacent
            // failure mode, so verify the installed header before trusting
            // it. The header CRC covers the cursor and phase — cheap, and
            // exactly what `resume_from` checks first.
            let result = self
                .save_checkpoint(core, phase)
                .and_then(|_| checkpoint::read_header(&path));
            match result {
                Ok(_) => {
                    if attempt > 0 {
                        eprintln!("[flatdd] periodic checkpoint succeeded on retry {attempt}");
                    }
                    return;
                }
                Err(e) => {
                    core.ctx
                        .metrics()
                        .counter("checkpoint.write_failures")
                        .inc();
                    last_err = Some(e);
                }
            }
        }
        self.gates_since_ckpt = 0;
        if let Some(e) = last_err {
            eprintln!(
                "[flatdd] periodic checkpoint failed after {} attempt(s) (run continues): {e}",
                retries + 1
            );
        }
    }
}

impl FlatDdSimulator {
    /// Installs (or removes) the checkpoint policy. With a policy in
    /// place, checkpoints are written every `every_gates` applied gates,
    /// and — when `on_breach` is set — once more when a resumable error
    /// (budget breach or polled signal) ends a [`Self::run`].
    pub fn set_checkpoint_policy(&mut self, policy: Option<CheckpointPolicy>) {
        self.boundary.ckpt = policy;
        self.boundary.gates_since_ckpt = 0;
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
        let started = stopwatch();
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
