//! The run loop: one validated entry for `run`/`run_prefix`/`run_from`,
//! and a loop that hands the gates from the cursor on to the
//! [`Boundary`] until the circuit is consumed.
//!
//! [`Boundary`]: super::Boundary

use super::{FlatDdSimulator, FlatDdStats, FusionPolicy, PhaseState};
use crate::checkpoint;
use crate::error::{FlatDdError, RunOutcome};
use crate::signal::SIGKILL;
use qcircuit::{Circuit, Gate};

/// Which slice of the circuit a run covers.
enum Span {
    /// Every gate, counted on from whatever this simulator applied before.
    Whole,
    /// The first `upto` gates.
    Prefix(usize),
    /// The gates after the cursor; statistics keep accumulating.
    Resume,
}

impl FlatDdSimulator {
    /// Applies one gate (no fusion and no run at this granularity).
    pub fn apply(&mut self, gate: &Gate) -> Result<(), FlatDdError> {
        self.boundary
            .step(&mut self.core, &mut self.phase, std::slice::from_ref(gate))
            .map(|_| ())
    }

    /// Runs a whole circuit, honoring the fusion policy after conversion.
    ///
    /// Returns a [`RunOutcome`] describing the completed run; budget
    /// breaches come back as [`FlatDdError`]s carrying the same snapshot as
    /// a *partial* outcome, so a caller can see how far the run got.
    pub fn run(&mut self, circuit: &Circuit) -> Result<RunOutcome, FlatDdError> {
        self.run_span(circuit, Span::Whole)
    }

    /// Runs only the first `upto` gates of `circuit`, recording the *full*
    /// circuit's content hash, so a checkpoint written at the prefix
    /// boundary resumes cleanly over the same circuit with
    /// [`Self::resume_from`] + [`Self::run_from`] (staged execution; also
    /// the backbone of the checkpoint/resume tests).
    pub fn run_prefix(
        &mut self,
        circuit: &Circuit,
        upto: usize,
    ) -> Result<RunOutcome, FlatDdError> {
        self.run_span(circuit, Span::Prefix(upto))
    }

    /// Continues an interrupted run: applies the gates of `circuit` *after*
    /// the current gate cursor ([`Self::gates_applied`], restored by
    /// [`Self::resume_from`]). Unlike [`Self::run`], per-run statistics are
    /// NOT reset — the restored counters keep accumulating, so a resumed
    /// run reports totals as if it had never been interrupted.
    pub fn run_from(&mut self, circuit: &Circuit) -> Result<RunOutcome, FlatDdError> {
        self.run_span(circuit, Span::Resume)
    }

    /// The one entry of every run: validates the circuit against the
    /// simulator, picks the gate slice, applies it, emits the run
    /// start/end events, and — when a resumable error ends the run under
    /// an `on_breach` checkpoint policy — writes a final checkpoint at the
    /// (still consistent) gate boundary the error left the state at, so
    /// the run can be picked up with `--resume-from`. It returns only once
    /// the newest checkpoint staged for an installer is installed, unless
    /// no one will read it: a run abandoned ([`crate::RunContext::abandon`])
    /// writes no final checkpoint, and it and a completed run under a
    /// policy without `install_on_completion` drop a pending one.
    fn run_span(&mut self, circuit: &Circuit, span: Span) -> Result<RunOutcome, FlatDdError> {
        if circuit.num_qubits() != self.core.n {
            return Err(FlatDdError::InvalidInput(format!(
                "circuit is over {} qubits but the simulator holds {}",
                circuit.num_qubits(),
                self.core.n
            )));
        }
        let all = circuit.gates();
        let (gates, total) = match span {
            Span::Prefix(upto) if upto > all.len() => {
                return Err(FlatDdError::InvalidInput(format!(
                    "prefix of {upto} gates requested from a {}-gate circuit",
                    all.len()
                )));
            }
            Span::Resume if self.core.cursor > all.len() => {
                return Err(FlatDdError::InvalidInput(format!(
                    "gate cursor {} is beyond the {}-gate circuit",
                    self.core.cursor,
                    all.len()
                )));
            }
            Span::Whole => (all, self.core.cursor + all.len()),
            Span::Prefix(upto) => (&all[..upto], all.len()),
            Span::Resume => (&all[self.core.cursor..], all.len()),
        };
        let resuming = matches!(span, Span::Resume);
        if resuming {
            self.core.ctx.metrics().counter("core.resumed_runs").inc();
        } else {
            // Per-run statistics restart from zero, while the monotonic
            // DD compute-table counters are re-baselined so [`Self::stats`]
            // reports deltas attributable to this run.
            self.core.stats = FlatDdStats::default();
            self.boundary.traces.clear();
            self.core.compute_base = self.core.pkg.compute_stats();
            self.core.ctx.metrics().counter("core.runs").inc();
        }
        if resuming || self.boundary.ckpt.is_some() {
            self.boundary.active_circuit_hash = checkpoint::circuit_fingerprint(circuit);
        }

        let core = &mut self.core;
        if qtelemetry::enabled() {
            qtelemetry::emit(qtelemetry::Event::RunStart {
                sim: core.telemetry_id,
                ts_us: qtelemetry::now_us(),
                qubits: core.n,
                threads: core.t,
                gates: gates.len(),
                phase: self.phase.phase().label(),
            });
        }
        core.run_total = Some(total);
        let result = self.run_gates(gates);
        let (core, phase) = (&mut self.core, &mut self.phase);
        if let PhaseState::Flat(flat) = phase {
            flat.clear_fused();
        }
        self.boundary.publish_progress(core, phase, true);
        if qtelemetry::enabled() {
            qtelemetry::emit(qtelemetry::Event::RunEnd {
                sim: core.telemetry_id,
                ts_us: qtelemetry::now_us(),
                gates_applied: core.cursor,
                phase: phase.phase().label(),
                ok: result.is_ok(),
            });
        }
        // What the run leaves: an abandoned run (a user's cancel) nothing, a
        // completed one its newest checkpoint unless the caller discards it.
        let policy = self.boundary.ckpt.as_ref();
        let (on_breach, keep) = (
            policy.is_some_and(|p| p.on_breach),
            match &result {
                Ok(()) => policy.is_none_or(|p| p.install_on_completion),
                Err(FlatDdError::Interrupted { signal, .. }) => *signal != SIGKILL,
                Err(_) => true,
            },
        );
        if let Err(e) = &result {
            if keep && on_breach && e.is_resumable() {
                // Best-effort: the original error is what the caller must
                // see; a failed final checkpoint only costs resumability.
                if let Err(ce) = self.save_checkpoint() {
                    super::persist::note_write_failure(&self.core);
                    eprintln!("[flatdd] failed to write checkpoint on breach: {ce}");
                }
            }
        }
        self.boundary.finish_installs(&self.core, &self.phase, keep);
        let outcome = result.map(|()| self.core.snapshot(self.phase.phase()));
        self.core.run_total = None;
        outcome
    }

    /// Hands the gates from the cursor on to the boundary until `gates` is
    /// consumed. In the flat phase under a fusion policy the rest of the
    /// run is fused on entry — up to the first gate that widens a fixed
    /// qubit, and again from there — and each boundary step then applies
    /// one pending block, or a run of them, and advances by the gates they
    /// fold; without fusion a step is a gate or a run of gates.
    fn run_gates(&mut self, gates: &[Gate]) -> Result<(), FlatDdError> {
        let fusing = self.core.cfg.fusion != FusionPolicy::None;
        let (mut idx, mut first) = (0, true);
        while idx < gates.len() {
            match &mut self.phase {
                PhaseState::Flat(flat) if fusing && flat.roots().is_empty() => {
                    flat.fuse(&mut self.core, &gates[idx..], first);
                    first = false;
                }
                PhaseState::Flat(_) | PhaseState::Dd(_) => {}
            }
            idx += self
                .boundary
                .step(&mut self.core, &mut self.phase, &gates[idx..])?;
        }
        Ok(())
    }
}
