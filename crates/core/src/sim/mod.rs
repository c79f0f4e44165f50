//! The FlatDD hybrid simulator (Figure 3).
//!
//! Simulation starts DD-based (DDSIM-style). After every gate the
//! state-vector DD size feeds the EWMA monitor; when regularity collapses,
//! the state is converted to a flat array with the parallel conversion of
//! Section 3.1.2 and the simulation continues with DMAV (Section 3.2),
//! optionally after DMAV-aware gate fusion (Section 3.3).
//!
//! The driver is a two-state machine. `DdPhase` and `FlatPhase` own
//! their state and expose `step`/`roots`; the conversion
//! (`phase::convert`) is the only transition between them; and every
//! step — one gate, or one block of a fused span — runs inside the single
//! `Boundary`, which applies the [`ResourceGovernor`] in one fixed order:
//! cancel poll and wall-clock deadline before the step; after it trace and
//! telemetry, cursor advance, progress, rooted GC, the memory ladder
//! (scratch release, sweep, compute-table flush, then — when armed — the
//! approximation rung) and the numerical-health watchdog, and the periodic
//! checkpoint. A DD-to-array conversion that would bust the memory budget
//! is *refused* and the run continues in DD mode, with the refusal recorded
//! in [`FlatDdStats::conversion_refusals`].

mod active;
mod boundary;
mod config;
mod dd_phase;
mod driver;
mod flat_phase;
mod persist;
mod phase;
mod stats;
#[cfg(test)]
mod tests;

pub use config::{ConversionPolicy, FlatDdConfig, FusionPolicy, GateTrace, Phase};
pub use stats::FlatDdStats;

pub(crate) use boundary::Boundary;
pub(crate) use dd_phase::DdPhase;
pub(crate) use flat_phase::FlatPhase;
pub(crate) use phase::{PhaseState, StepReport};

use crate::context::RunContext;
use crate::convert::dd_to_array_grouped;
use crate::error::{FlatDdError, RunOutcome};
use crate::ewma::{EwmaConfig, EwmaMonitor};
use crate::govern::{Breach, ResourceGovernor};
use crate::pool::{clamp_threads, ThreadPool};
use qarray::vecops;
use qcircuit::{Circuit, Complex64};
use qdd::DdPackage;

/// What both phases and the boundary share: configuration, the worker pool,
/// the DD package, the governor, the run context, statistics and the gate
/// cursor.
pub(crate) struct Core {
    cfg: FlatDdConfig,
    n: usize,
    t: usize,
    /// Flat-phase shard count (resolved from `cfg.flat_shards`): the
    /// dispatch granularity of every flat-phase subsystem.
    shards: usize,
    /// The simulator's one worker pool, `t` wide: the flat phase
    /// dispatches `shards` groups over it, and the conversion reads the DD
    /// package from its workers. The DD phase runs on the caller's thread.
    pool: ThreadPool,
    pkg: DdPackage,
    gov: ResourceGovernor,
    /// Per-run execution context: cancellation flag, metrics registry, and
    /// fault registry. [`RunContext::process`] for single-tenant callers;
    /// the serve scheduler hands each job an isolated one.
    ctx: RunContext,
    stats: FlatDdStats,
    /// Compute-table counters at the last per-run stats reset.
    compute_base: qdd::ComputeStats,
    /// Gates applied over the simulator's lifetime (the checkpoint cursor).
    cursor: usize,
    /// Total gate count of the circuit an enclosing `run` is processing
    /// (`None` outside `run`); used to fill partial [`RunOutcome`]s.
    run_total: Option<usize>,
    /// Set after a refused conversion so the policy does not re-attempt
    /// (and re-refuse) the conversion on every subsequent gate.
    conversion_blocked: bool,
    /// Process-unique id stamped on this simulator's telemetry events.
    telemetry_id: u64,
    /// Span of the enclosing `run`/`run_from` ([`qtelemetry::Span::none`]
    /// outside a run); progress samples and span events carry its id so
    /// concurrent jobs' traces stay separable.
    run_span: qtelemetry::Span,
    /// Span of the current phase segment (DD or DMAV) within the run.
    phase_span: qtelemetry::Span,
    /// Telemetry-clock µs at which `phase_span` started.
    phase_start_us: f64,
    /// Cached metric handles (one registry lookup per simulator, one
    /// relaxed add per gate).
    ctr_gates_dd: qtelemetry::Counter,
    ctr_gates_dmav: qtelemetry::Counter,
    ctr_dmav_in_place: qtelemetry::Counter,
    hist_convert: qtelemetry::Histogram,
    hist_plan_build: qtelemetry::Histogram,
}

impl Core {
    /// Bytes of flat `2^n` vectors the flat phase of this configuration will
    /// hold, which is what entering it asks the memory budget for: the state
    /// alone when every DMAV is a single gate's on one group — each then has
    /// an in-place form ([`crate::DmavAssignment::in_place`]) — else the
    /// state and the out-of-place walks' output vector. (Should a one-vector
    /// run meet a matrix without an in-place form after all, the output
    /// vector is admitted or refused when that gate asks for it.)
    fn flat_phase_bytes(&self) -> usize {
        let in_place = self.cfg.fusion == FusionPolicy::None && self.shards == 1;
        let vectors = if in_place { 1 } else { 2 };
        vectors * (1usize << self.n) * std::mem::size_of::<Complex64>()
    }

    /// Run statistics including the DD compute-table hit rates (computed
    /// as deltas from the last per-run reset).
    fn stats(&self) -> FlatDdStats {
        fn ratio(hits: u64, lookups: u64) -> f64 {
            if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            }
        }
        let mut s = self.stats;
        let (c, base) = (self.pkg.compute_stats(), &self.compute_base);
        s.ct_mv_lookups = c.mv_lookups.saturating_sub(base.mv_lookups);
        s.ct_mv_hits = c.mv_hits.saturating_sub(base.mv_hits);
        s.ct_mv_hit_rate = ratio(s.ct_mv_hits, s.ct_mv_lookups);
        s.ct_mm_lookups = c.mm_lookups.saturating_sub(base.mm_lookups);
        s.ct_mm_hits = c.mm_hits.saturating_sub(base.mm_hits);
        s.ct_mm_hit_rate = ratio(s.ct_mm_hits, s.ct_mm_lookups);
        s.ct_add_lookups = c.add_lookups.saturating_sub(base.add_lookups);
        s.ct_add_hits = c.add_hits.saturating_sub(base.add_hits);
        s.ct_add_hit_rate = ratio(s.ct_add_hits, s.ct_add_lookups);
        s
    }

    /// A snapshot of how far the simulation has come, used both as the
    /// success value of a run and as the partial outcome carried by
    /// resource errors.
    fn snapshot(&self, phase: Phase) -> RunOutcome {
        RunOutcome {
            gates_applied: self.cursor,
            total_gates: self.run_total.unwrap_or(self.cursor),
            phase,
            stats: self.stats(),
        }
    }

    /// Emits a governor telemetry event (no-op when telemetry is off).
    fn governor_note(&self, action: &'static str, detail: impl FnOnce() -> String) {
        if qtelemetry::enabled() {
            qtelemetry::emit(qtelemetry::Event::Governor {
                sim: self.telemetry_id,
                ts_us: qtelemetry::now_us(),
                action,
                detail: detail(),
            });
        }
    }

    /// The typed error for a governor breach, carrying the partial outcome
    /// (a deadline breach is also announced on telemetry).
    fn breach_to_error(&self, breach: Breach, phase: Phase) -> FlatDdError {
        let partial = Box::new(self.snapshot(phase));
        match breach {
            Breach::Memory {
                budget_bytes,
                observed_bytes,
                context,
            } => FlatDdError::MemoryBudgetExceeded {
                budget_bytes,
                observed_bytes,
                context,
                partial,
            },
            Breach::Deadline { budget, elapsed } => {
                self.governor_note("deadline_breach", || {
                    format!("budget={budget:?} elapsed={elapsed:?}")
                });
                FlatDdError::Deadline {
                    budget,
                    elapsed,
                    partial,
                }
            }
        }
    }

    /// Accounts a refused conversion (stat, counter, governor event).
    fn refuse_conversion(&mut self, memory_bytes: usize) {
        self.stats.conversion_refusals += 1;
        self.ctx.metrics().counter("core.conversion_refusals").inc();
        self.governor_note("conversion_refused", || {
            format!("at_gate={} memory_bytes={memory_bytes}", self.cursor)
        });
    }

    /// Emits a timed [`qtelemetry::Event::Span`] for `span`.
    fn emit_span(&self, span: qtelemetry::Span, name: &'static str, ts_us: f64, dur_us: f64) {
        qtelemetry::emit(qtelemetry::Event::Span {
            sim: self.telemetry_id,
            ts_us,
            dur_us,
            id: span.id,
            parent: span.parent,
            name,
        });
    }

    /// Closes `span` now (no-op for [`qtelemetry::Span::none`] or when
    /// telemetry is off).
    fn end_span(&self, span: qtelemetry::Span, name: &'static str, start_us: f64) {
        if !span.is_none() && qtelemetry::enabled() {
            let dur_us = (qtelemetry::now_us() - start_us).max(0.0);
            self.emit_span(span, name, start_us, dur_us);
        }
    }
}

/// The FlatDD hybrid simulator.
pub struct FlatDdSimulator {
    core: Core,
    phase: PhaseState,
    boundary: Boundary,
}

impl FlatDdSimulator {
    /// Initializes `|0...0>` over `n` qubits.
    ///
    /// # Panics
    /// On invalid input or resource exhaustion; use [`Self::try_new`] for a
    /// typed error instead.
    pub fn new(n: usize, cfg: FlatDdConfig) -> Self {
        Self::try_new(n, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: `n == 0` is [`FlatDdError::InvalidInput`],
    /// thread-spawn failure is [`FlatDdError::Io`], and an `Immediate`
    /// conversion policy whose flat state does not fit in the memory budget
    /// falls back to a DD start (recorded as a conversion refusal) rather
    /// than failing.
    pub fn try_new(n: usize, cfg: FlatDdConfig) -> Result<Self, FlatDdError> {
        Self::try_new_with(n, cfg, RunContext::process())
    }

    /// [`Self::try_new`] with an explicit per-run context. Metrics and
    /// fault probes route through `ctx`, and the run is cancellable via
    /// [`RunContext::cancel`] — the isolation the multi-job daemon builds
    /// on.
    pub fn try_new_with(n: usize, cfg: FlatDdConfig, ctx: RunContext) -> Result<Self, FlatDdError> {
        if n == 0 {
            return Err(FlatDdError::InvalidInput(
                "simulator needs at least one qubit".into(),
            ));
        }
        let t = clamp_threads(cfg.threads, n);
        let metrics = ctx.metrics();
        let boundary = Boundary::new(metrics);
        let mut core = Core {
            cfg,
            n,
            t,
            shards: crate::pool::clamp_shards(cfg.flat_shards, t, n),
            pool: ThreadPool::try_new(t)?,
            pkg: DdPackage::default(),
            gov: ResourceGovernor::new(cfg.governor),
            stats: FlatDdStats::default(),
            compute_base: qdd::ComputeStats::default(),
            cursor: 0,
            run_total: None,
            conversion_blocked: false,
            telemetry_id: qtelemetry::next_id(),
            run_span: qtelemetry::Span::none(),
            phase_span: qtelemetry::Span::none(),
            phase_start_us: 0.0,
            ctr_gates_dd: metrics.counter("core.gates_dd"),
            ctr_gates_dmav: metrics.counter("core.gates_dmav"),
            ctr_dmav_in_place: metrics.counter("core.dmav_in_place"),
            hist_convert: metrics.histogram("sim.conversion_us"),
            hist_plan_build: metrics.histogram("sim.plan_build_us"),
            ctx,
        };
        let start_flat = cfg.conversion == ConversionPolicy::Immediate;
        let held = core.pkg.stats().memory_bytes;
        let phase = if start_flat && core.gov.admits_allocation(held, core.flat_phase_bytes()) {
            let mut v = flat_phase::try_flat_buffer(&core, "initial flat state")?;
            v[0] = Complex64::ONE;
            let ewma = EwmaMonitor::new(EwmaConfig::default()).state();
            PhaseState::Flat(FlatPhase::new(v, active::Fixed::NONE, ewma))
        } else {
            if start_flat {
                // The flat state would bust the budget before the first
                // gate: refuse and start DD-based instead.
                core.stats.conversion_refusals += 1;
                core.conversion_blocked = true;
            }
            PhaseState::Dd(DdPhase::new(core.pkg.basis_state(n, 0), &cfg))
        };
        Ok(FlatDdSimulator {
            core,
            phase,
            boundary,
        })
    }

    /// This simulator's execution context. Clone it to keep a remote
    /// control (e.g. to cancel the run from another thread).
    pub fn context(&self) -> &RunContext {
        &self.core.ctx
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.core.n
    }

    /// Effective (clamped) thread count.
    pub fn threads(&self) -> usize {
        self.core.t
    }

    /// Effective flat-phase shard count (resolved from
    /// [`FlatDdConfig::flat_shards`]; `0` there follows the thread count).
    pub fn flat_shards(&self) -> usize {
        self.core.shards
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.phase.phase()
    }

    /// Process-unique id identifying this simulator in telemetry events.
    pub fn telemetry_id(&self) -> u64 {
        self.core.telemetry_id
    }

    /// Aggregate run statistics, including the DD compute-table hit rates
    /// (computed as deltas from the last per-run reset).
    pub fn stats(&self) -> FlatDdStats {
        self.core.stats()
    }

    /// Cumulative fidelity product of the run so far (`1.0` = exact). Drops
    /// below 1 only when the approximation rung has truncated the state.
    pub fn fidelity(&self) -> f64 {
        self.core.stats.fidelity
    }

    /// True when the approximation rung fired and the state is approximate.
    pub fn is_approximate(&self) -> bool {
        self.core.stats.is_approximate()
    }

    /// Per-gate trace (empty unless `cfg.trace`).
    pub fn traces(&self) -> &[GateTrace] {
        &self.boundary.traces
    }

    /// Gates applied over this simulator's lifetime (the checkpoint gate
    /// cursor).
    pub fn gates_applied(&self) -> usize {
        self.core.cursor
    }

    /// The underlying DD package.
    pub fn package(&self) -> &DdPackage {
        &self.core.pkg
    }

    /// Forces the DD-to-DMAV conversion (parallel DD-to-array, Section
    /// 3.1.2), regardless of policy. The memory budget still applies: a
    /// conversion that cannot fit is counted as a refusal and returned as
    /// [`FlatDdError::MemoryBudgetExceeded`] (callers on the automatic path
    /// treat that as "stay in DD mode").
    pub fn convert_now(&mut self) -> Result<(), FlatDdError> {
        phase::convert(&mut self.core, &mut self.phase)
    }

    /// Converts the state back from the flat array to a DD (the reverse of
    /// [`Self::convert_now`]) — an extension beyond the paper, useful when
    /// a circuit's tail *disentangles* the state again (hidden-shift-style
    /// algorithms): the re-regularized DD is small and subsequent gates run
    /// in the cheap DD phase. Returns the DD size, or `None` when already
    /// in the DD phase.
    pub fn reconvert_to_dd(&mut self) -> Option<usize> {
        let PhaseState::Flat(flat) = &self.phase else {
            return None;
        };
        let state = self
            .core
            .pkg
            .vector_from_slice(&flat.full_state(self.core.n));
        let size = self.core.pkg.vector_dd_size(state);
        // Conversion monitoring restarts from scratch.
        self.phase = PhaseState::Dd(DdPhase::new(state, &self.core.cfg));
        self.phase.collect(&mut self.core);
        // The flat buffers are gone; a future conversion may fit again.
        self.core.conversion_blocked = false;
        Some(size)
    }

    /// The final amplitudes (DD phase: parallel conversion in the flat
    /// phase's shard geometry, so the bits do not depend on the thread
    /// count; DMAV phase: the flat array at full width).
    pub fn amplitudes(&self) -> Vec<Complex64> {
        match &self.phase {
            PhaseState::Dd(dd) => {
                let core = &self.core;
                dd_to_array_grouped(&core.pkg, dd.state, core.n, &core.pool, core.shards)
            }
            PhaseState::Flat(flat) => flat.full_state(self.core.n).into_owned(),
        }
    }

    /// Amplitude of a single basis state.
    pub fn amplitude(&self, index: usize) -> Complex64 {
        match &self.phase {
            PhaseState::Dd(dd) => self.core.pkg.amplitude(dd.state, index),
            PhaseState::Flat(flat) => flat.amplitude(index),
        }
    }

    /// The `k` heaviest amplitudes as `(index, amplitude)`, heaviest first:
    /// `norm_sqr` descending by `total_cmp`, index ascending on ties, zero
    /// probabilities omitted ([`qarray::TopAmplitudes`]). Exact in both
    /// phases without materializing the state: one pass over the flat array
    /// in the DMAV phase, a pruned walk over the DD's non-zero paths in the
    /// DD phase, each value equal to [`Self::amplitude`] of its index.
    pub fn top_amplitudes(&self, k: usize) -> Vec<(usize, Complex64)> {
        match &self.phase {
            PhaseState::Dd(dd) => self.core.pkg.top_amplitudes(dd.state, self.core.n, k),
            PhaseState::Flat(flat) => flat.top_amplitudes(k),
        }
    }

    /// Draws one basis-state index from the output distribution. In the DD
    /// phase this is a single O(n) walk (fast weak simulation); in the DMAV
    /// phase an inverse-CDF draw over the flat array.
    pub fn sample(&self, rand01: &mut impl FnMut() -> f64) -> usize {
        match &self.phase {
            PhaseState::Dd(dd) => self.core.pkg.sample(dd.state, rand01),
            PhaseState::Flat(flat) => qarray::sample(&flat.full_state(self.core.n), rand01),
        }
    }

    /// Draws `shots` samples; returns `(index, count)` sorted by count.
    pub fn sample_counts(
        &self,
        shots: usize,
        rand01: &mut impl FnMut() -> f64,
    ) -> Vec<(usize, usize)> {
        match &self.phase {
            PhaseState::Dd(dd) => self.core.pkg.sample_counts(dd.state, shots, rand01),
            PhaseState::Flat(flat) => {
                qarray::sample_counts(&flat.full_state(self.core.n), shots, rand01)
            }
        }
    }

    /// Marginal probability that qubit `q` measures 1.
    pub fn qubit_probability_one(&self, q: usize) -> f64 {
        let core = &self.core;
        match &self.phase {
            PhaseState::Dd(dd) => core.pkg.qubit_probability_one(dd.state, q),
            PhaseState::Flat(flat) => {
                let v = flat.full_state(core.n);
                qarray::qubit_probability_one_sharded(&v, q, core.shards, &core.pool)
            }
        }
    }

    /// Expectation value of one Pauli string on the current state.
    pub fn expectation_pauli(&mut self, p: &qcircuit::PauliString) -> f64 {
        match &self.phase {
            PhaseState::Dd(dd) => self.core.pkg.expectation_pauli(dd.state, p, self.core.n),
            PhaseState::Flat(flat) => qarray::expectation_pauli(&flat.full_state(self.core.n), p),
        }
    }

    /// Expectation value of a Pauli-sum Hamiltonian on the current state.
    pub fn expectation(&mut self, ham: &qcircuit::Hamiltonian) -> f64 {
        match &self.phase {
            PhaseState::Dd(dd) => self.core.pkg.expectation(dd.state, ham, self.core.n),
            PhaseState::Flat(flat) => qarray::expectation(&flat.full_state(self.core.n), ham),
        }
    }

    /// Projectively measures qubit `q`, collapsing the state, and returns
    /// the outcome.
    pub fn measure_qubit(&mut self, q: usize, rand01: &mut impl FnMut() -> f64) -> bool {
        let core = &mut self.core;
        match &mut self.phase {
            PhaseState::Dd(dd) => {
                let (outcome, collapsed) = core.pkg.measure_qubit(dd.state, q, core.n, rand01);
                dd.state = collapsed;
                outcome
            }
            PhaseState::Flat(flat) => {
                let v = flat.state_mut(core);
                qarray::measure_qubit_sharded(v, q, rand01, core.shards, &core.pool)
            }
        }
    }

    /// Approximate resident bytes of all simulation data structures.
    pub fn memory_bytes(&self) -> usize {
        self.phase.memory_bytes(&self.core)
    }

    /// Publishes a gauge snapshot of this simulator (run stats, plan cache,
    /// governor, DD package) into the run context's metrics registry.
    pub fn publish_metrics(&self) {
        let (core, m) = (&self.core, self.core.ctx.metrics());
        self.stats().publish_gauges(m);
        m.gauge("sim.threads").set(core.t as f64);
        m.gauge("sim.flat_shards").set(core.shards as f64);
        m.gauge("sim.memory_bytes").set(self.memory_bytes() as f64);
        // The plan memo belongs to the flat phase; before it the gauges
        // read zero.
        let (plans, plan_bytes) = match &self.phase {
            PhaseState::Dd(_) => (0, 0),
            PhaseState::Flat(flat) => flat.plan_memo_size(),
        };
        m.gauge("plan_cache.entries").set(plans as f64);
        m.gauge("plan_cache.memory_bytes").set(plan_bytes as f64);
        m.gauge("governor.elapsed_seconds")
            .set(core.gov.elapsed().as_secs_f64());
        if let Some(b) = core.gov.config().memory_budget_bytes {
            m.gauge("governor.memory_budget_bytes").set(b as f64);
        }
        // Forces backend detection so the `array.vecops_backend` label is
        // present even for runs that never left the DD phase.
        let _ = vecops::backend();
        core.pkg.publish_metrics();
    }
}

/// One-shot convenience: run `circuit` from `|0...0>` with `cfg`.
///
/// # Panics
/// On any [`FlatDdError`] (budget breach, divergence, invalid input); use
/// [`try_simulate`] under resource limits.
pub fn simulate(circuit: &Circuit, cfg: FlatDdConfig) -> Vec<Complex64> {
    try_simulate(circuit, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`simulate`]: returns the amplitudes or the typed error.
pub fn try_simulate(circuit: &Circuit, cfg: FlatDdConfig) -> Result<Vec<Complex64>, FlatDdError> {
    let mut sim = FlatDdSimulator::try_new(circuit.num_qubits(), cfg)?;
    sim.run(circuit)?;
    Ok(sim.amplitudes())
}
