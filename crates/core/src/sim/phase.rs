//! The two-state machine behind [`super::FlatDdSimulator`]: which phase
//! holds the state, one step of it, the one package sweep, and the one
//! transition — the DD-to-flat conversion (parallel DD-to-array, Section
//! 3.1.2), the only place a [`DdPhase`] is consumed and a [`FlatPhase`]
//! takes its place.

use super::active::Fixed;
use super::flat_phase::{shards_at, try_flat_buffer};
use super::{Core, DdPhase, FlatPhase, GateTrace, Phase};
use crate::error::FlatDdError;
use qcircuit::{Complex64, Gate};
use qdd::{MEdge, VEdge};
use std::time::Instant;

/// The representation currently holding the state. One lives inside each
/// simulator and is never moved in bulk, so the flat variant's extra size
/// over the DD one is not worth a `Box` hop on every step.
#[allow(clippy::large_enum_variant)]
pub(crate) enum PhaseState {
    /// DD-based simulation (before conversion).
    Dd(DdPhase),
    /// DMAV on the flat array.
    Flat(FlatPhase),
}

impl PhaseState {
    /// The public phase label of the current state.
    pub(super) fn phase(&self) -> Phase {
        match self {
            PhaseState::Dd(_) => Phase::Dd,
            PhaseState::Flat(_) => Phase::Dmav,
        }
    }

    /// One step at the cursor of `gates` (the rest of the run): a DD gate
    /// (followed by the conversion when the policy asks for it and the
    /// budget admits it), or a flat step — a gate, the pending fused block,
    /// or a run of in-place matrices folding at most `budget` gates.
    /// Returns the step's record, which the boundary times.
    pub(super) fn step(
        &mut self,
        core: &mut Core,
        gates: &[Gate],
        budget: usize,
    ) -> Result<GateTrace, FlatDdError> {
        match self {
            PhaseState::Flat(flat) => flat.step(core, gates, budget),
            PhaseState::Dd(dd) => {
                let (size, wanted) = dd.step(core, &gates[0]);
                let ewma = dd.ewma.value();
                if wanted && !core.conversion_blocked {
                    convert_on_policy(core, self, size, ewma)?;
                }
                Ok(GateTrace {
                    dd_size: Some(size),
                    ewma: Some(ewma),
                    ..GateTrace::untimed(core, 1, Phase::Dd)
                })
            }
        }
    }

    /// What a package sweep must keep alive: the DD phase's state edge, or
    /// the flat phase's pending fused matrices.
    fn roots(&self) -> (&[VEdge], &[MEdge]) {
        match self {
            PhaseState::Dd(dd) => (dd.roots(), &[]),
            PhaseState::Flat(flat) => (&[], flat.roots()),
        }
    }

    /// The one package sweep of the driver: everything not reachable from
    /// the current phase's roots is reclaimed; the plan memo, keyed by node
    /// id, sees it through the package's GC epoch. With a sink installed
    /// the sweep is a `gc_sweep` event under the simulator's id (fusion's
    /// own sweeps are counted by the package and run inside its `fusion`
    /// event).
    pub(super) fn collect(&self, core: &mut Core) {
        let (vectors, matrices) = self.roots();
        let ts_us = qtelemetry::enabled().then(qtelemetry::now_us);
        let (v_freed, m_freed) = core.pkg.gc(vectors, matrices);
        if let Some(ts_us) = ts_us {
            qtelemetry::emit(qtelemetry::Event::GcSweep {
                sim: core.telemetry_id,
                ts_us,
                dur_us: (qtelemetry::now_us() - ts_us).max(0.0),
                v_freed,
                m_freed,
                epoch: core.pkg.gc_epoch(),
            });
        }
    }

    /// [`Self::collect`] when the package's sweep rule says it is due.
    pub(super) fn collect_if_due(&self, core: &mut Core) {
        if core.pkg.gc_due() {
            self.collect(core);
        }
    }

    /// The degradation ladder's first rungs: clear the plan memo, sweep
    /// dead DD nodes, and shrink the compute tables (the only rung that
    /// lowers *capacity*, which is what the accounting measures).
    pub(super) fn relieve_pressure(&mut self, core: &mut Core) {
        if let PhaseState::Flat(flat) = self {
            flat.clear_plans();
        }
        self.collect(core);
        core.pkg.flush_caches();
        core.stats.pressure_gcs += 1;
        core.ctx.metrics().counter("core.pressure_gcs").inc();
        core.governor_note("pressure_gc", || {
            format!("memory_bytes={}", self.memory_bytes(core))
        });
    }

    /// Bytes the phase holds outside the package (the flat phase's state
    /// and plan memo).
    pub(super) fn flat_bytes(&self) -> usize {
        match self {
            PhaseState::Dd(_) => 0,
            PhaseState::Flat(flat) => flat.memory_bytes(),
        }
    }

    /// Accounted bytes of all simulation data structures.
    pub(super) fn memory_bytes(&self, core: &Core) -> usize {
        core.pkg.stats().memory_bytes + self.flat_bytes()
    }
}

/// Converts the DD phase in `*phase` into a flat phase (no-op when already
/// flat). `policy` is the DD size and EWMA value the conversion policy
/// fired on, `None` for a forced conversion; the `conversion` event
/// records it. The memory budget still applies: a conversion that cannot
/// fit — by admission or by allocator refusal — is counted as a refusal,
/// leaves the DD phase untouched, and returns the typed error (callers on
/// the automatic path treat that as "stay in DD mode").
pub(super) fn convert(
    core: &mut Core,
    phase: &mut PhaseState,
    policy: Option<(usize, f64)>,
) -> Result<(), FlatDdError> {
    let PhaseState::Dd(dd) = &*phase else {
        return Ok(());
    };
    let (state, ewma) = (dd.state, dd.ewma.state());
    let need = core.flat_phase_bytes();
    if !core.gov.admits_allocation(phase.memory_bytes(core), need) {
        // Try to make room before giving up.
        phase.relieve_pressure(core);
        let used = phase.memory_bytes(core);
        if !core.gov.admits_allocation(used, need) {
            core.refuse_conversion(used);
            return Err(FlatDdError::MemoryBudgetExceeded {
                budget_bytes: core.gov.config().memory_budget_bytes.unwrap_or(usize::MAX),
                observed_bytes: used.saturating_add(need),
                context: "DD-to-array conversion",
                partial: Box::new(core.snapshot(phase.phase())),
            });
        }
    }
    let telemetry = qtelemetry::enabled();
    let ts_us = telemetry.then(qtelemetry::now_us);
    let start = Instant::now();
    let mut v = try_flat_buffer(core, "conversion output").inspect_err(|_| {
        let used = core.pkg.stats().memory_bytes;
        core.refuse_conversion(used);
    })?;
    // Qubits the state holds in a basis state are projected out: the fill
    // writes the first 2^width amplitudes of the buffer, sharded at that
    // width, and the flat phase widens them back in as gates superpose them.
    let (mask, bits, state) = core.pkg.project_definite(state, core.n);
    let width = core.n - mask.count_ones() as usize;
    let shards = shards_at(core, width);
    v.set_active(1usize << width, shards);
    // Worker panics (including injected ones) are contained here: the pool
    // re-raises a job panic on the dispatching thread, the DD state is
    // untouched, and the caller gets a typed error instead of an abort.
    let breakdown = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match width {
        0 => {
            v[0] = core.pkg.cval(state.w);
            crate::convert::ConversionBreakdown::default()
        }
        _ => crate::convert::dd_to_array_parallel_sharded_into_with(
            &core.pkg, state, width, &core.pool, shards, &mut v, &core.ctx,
        ),
    }))
    .map_err(|_| FlatDdError::WorkerPanic {
        context: "DD-to-array conversion",
        partial: Box::new(core.snapshot(phase.phase())),
    })?;
    core.stats.conversion_seconds = start.elapsed().as_secs_f64();
    core.stats.converted_at = Some(core.cursor);
    core.hist_convert
        .observe((core.stats.conversion_seconds * 1e6) as u64);
    core.ctx.metrics().counter("core.conversions").inc();
    core.ctx
        .metrics()
        .gauge("sim.active_qubits")
        .set(width as f64);
    if telemetry {
        // The load-balance breakdown is keyed by shard id (one entry per
        // conversion dispatch group).
        let workers = breakdown
            .fill_tasks
            .iter()
            .enumerate()
            .map(|(i, &tasks)| qtelemetry::WorkerFill {
                worker: i,
                tasks,
                amps: breakdown.amp_spans.get(i).copied().unwrap_or(0),
                dur_us: breakdown.worker_nanos.get(i).copied().unwrap_or(0) as f64 / 1e3,
            })
            .collect();
        qtelemetry::emit(qtelemetry::Event::Conversion {
            sim: core.telemetry_id,
            ts_us: ts_us.unwrap_or(0.0),
            dur_us: core.stats.conversion_seconds * 1e6,
            at_gate: core.cursor,
            policy: policy.map_or("manual", |_| core.cfg.conversion.label()),
            dd_size: policy.map(|(size, _)| size),
            ewma: policy.map(|(_, ewma)| ewma),
            workers,
        });
    }
    let fixed = Fixed {
        mask,
        bits,
        factor: Complex64::ONE,
    };
    *phase = PhaseState::Flat(FlatPhase::new(v, fixed, ewma));
    // Drop all vector nodes (and stale gate matrices).
    phase.collect(core);
    Ok(())
}

/// The automatic path: converts because the policy asked, at `dd_size`
/// and `ewma`; a refusal pins the run to the DD phase and is not an error.
pub(super) fn convert_on_policy(
    core: &mut Core,
    phase: &mut PhaseState,
    dd_size: usize,
    ewma: f64,
) -> Result<(), FlatDdError> {
    match convert(core, phase, Some((dd_size, ewma))) {
        Ok(()) => Ok(()),
        Err(FlatDdError::MemoryBudgetExceeded { .. } | FlatDdError::AllocationFailed { .. }) => {
            // Graceful degradation: stay DD-based and stop re-attempting
            // on every subsequent gate.
            core.conversion_blocked = true;
            Ok(())
        }
        Err(e) => Err(e),
    }
}
