//! The gate boundary: everything that happens around one step of the
//! current phase — a gate, a fused block, or a run of in-place matrices —
//! in one fixed order (see [`Boundary::step`]; DESIGN.md "Driver: phases
//! and the gate boundary" tabulates which error can leave at each stage and
//! where the cursor is).

use super::persist::Installs;
use super::{Core, GateTrace, Phase, PhaseState};
use crate::checkpoint::CheckpointPolicy;
use crate::context::Progress;
use crate::error::FlatDdError;
use crate::govern::Breach;
use qcircuit::Gate;
use qdd::DdPackage;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Gates that must have been applied since the last progress sample before
/// the throttle even reads the clock.
const PROGRESS_MIN_GATES: usize = 64;
/// Floor between two throttled progress samples.
const PROGRESS_MIN_INTERVAL: Duration = Duration::from_millis(100);
/// Most gates one step folds into a run, so that the cancel and deadline
/// polls before each step stay this many gates apart at most.
const MAX_RUN_GATES: usize = 64;

/// The throttle decision for a non-forced progress sample. `elapsed` (time
/// since the last sample) is only evaluated once enough gates have passed,
/// so the quiet path is one compare whatever the cursor's stride.
pub(super) fn progress_due(
    cursor: usize,
    last_cursor: usize,
    elapsed: impl FnOnce() -> Duration,
) -> bool {
    cursor.saturating_sub(last_cursor) >= PROGRESS_MIN_GATES && elapsed() >= PROGRESS_MIN_INTERVAL
}

/// Per-simulator state of the boundary stages.
pub(crate) struct Boundary {
    /// The per-step records (kept only under `cfg.trace`).
    pub(super) traces: Vec<GateTrace>,
    /// Wall clock (`None` until the first) and gate cursor of the last
    /// published progress sample.
    progress_at: Option<Instant>,
    progress_cursor: usize,
    /// Checkpoint triggers and destination (`None` = checkpointing off).
    pub(super) ckpt: Option<CheckpointPolicy>,
    /// Gates applied since the last written checkpoint.
    pub(super) gates_since_ckpt: usize,
    /// Path of the most recently installed (or resumed-from) checkpoint.
    pub(super) last_checkpoint: Option<PathBuf>,
    /// Where periodic checkpoints install, and their retry state.
    pub(super) installs: Installs,
    /// Fingerprint of the circuit an enclosing run is processing, stamped
    /// into checkpoints so resume can validate; 0 when no run provided one.
    pub(super) active_circuit_hash: u64,
    /// Cached latency-histogram handles (one registry lookup per
    /// simulator; an observe is three relaxed adds).
    hist_gate_dd: qtelemetry::Histogram,
    hist_gate_dmav: qtelemetry::Histogram,
    pub(super) hist_ckpt_write: qtelemetry::Histogram,
}

impl Boundary {
    pub(super) fn new(metrics: &qtelemetry::MetricsRegistry) -> Self {
        Boundary {
            traces: Vec::new(),
            progress_at: None,
            progress_cursor: 0,
            ckpt: None,
            gates_since_ckpt: 0,
            last_checkpoint: None,
            installs: Installs::default(),
            active_circuit_hash: 0,
            hist_gate_dd: metrics.histogram("sim.gate_dd_us"),
            hist_gate_dmav: metrics.histogram("sim.gate_dmav_us"),
            hist_ckpt_write: metrics.histogram("sim.ckpt_write_us"),
        }
    }

    /// Runs one step of `phase` at the cursor, whose gates start `gates`,
    /// and returns the number of circuit gates it consumed. Stage order:
    /// cancel poll, deadline, the step itself (including a policy
    /// conversion and its forced progress sample), the step's record,
    /// cursor advance, progress throttle, rooted GC when the package's rule
    /// says it is due, memory ladder, health
    /// watchdog, periodic checkpoint. Both exits before the step leave the
    /// state untouched and every exit after it leaves the cursor in sync
    /// with the state, so any resumable error can be checkpointed where it
    /// surfaced.
    pub(super) fn step(
        &mut self,
        core: &mut Core,
        phase: &mut PhaseState,
        gates: &[Gate],
    ) -> Result<usize, FlatDdError> {
        // One relaxed load when quiet: a delivered SIGINT/SIGTERM — or a
        // per-job cancel on this run's context — ends the run with a typed,
        // resumable error instead of killing the process mid-write.
        if core.ctx.cancel_requested() {
            if let Some(signal) = core.ctx.take_cancel() {
                return Err(FlatDdError::Interrupted {
                    signal,
                    partial: Box::new(core.snapshot(phase.phase())),
                });
            }
        }
        core.gov
            .check_deadline()
            .map_err(|b| core.breach_to_error(b, phase.phase()))?;

        let ts_us = core.recording().then(qtelemetry::now_us);
        let mut report = phase.step(core, gates, self.gates_until_due(core))?;
        if phase.phase() != report.phase {
            // Phase edge: the conversion forces a progress sample.
            self.publish_progress(core, phase, true);
        }
        if let Some(ts_us) = ts_us {
            report.ts_us = ts_us;
            report.seconds = (qtelemetry::now_us() - ts_us).max(0.0) / 1e6;
            self.record(core, report);
        }

        core.cursor += report.gates;
        self.publish_progress(core, phase, false);

        // The package sweeps when its own rule says so; the step's one
        // package read comes after, so the budget is charged what the
        // package holds now.
        phase.collect_if_due(core);
        let used = core.pkg.stats().memory_bytes + phase.flat_bytes();
        self.enforce_memory(core, phase, used, report.gates)?;
        self.enforce_health(core, phase, report.gates)?;

        self.gates_since_ckpt += report.gates;
        if let Some(every) = self.ckpt.as_ref().and_then(|p| p.every_gates) {
            self.periodic_checkpoint(core, phase, every);
        }
        Ok(report.gates)
    }

    /// Renders a step's record into every view that asked for it: the
    /// trace under `cfg.trace`, the phase's latency histogram, and the
    /// `gate` event when a sink is installed.
    fn record(&mut self, core: &Core, r: GateTrace) {
        let dur_us = r.seconds * 1e6;
        match r.phase {
            Phase::Dd => self.hist_gate_dd.observe(dur_us as u64),
            Phase::Dmav => self.hist_gate_dmav.observe(dur_us as u64),
        }
        if qtelemetry::enabled() {
            qtelemetry::emit(qtelemetry::Event::Gate {
                sim: core.telemetry_id,
                ts_us: r.ts_us,
                dur_us,
                index: r.gate_index,
                gates: r.gates,
                phase: r.phase.label(),
                dd_size: r.dd_size,
                ewma: r.ewma,
                plan_hit: r.plan_hit,
                fused: r.fused,
            });
        }
        if core.cfg.trace {
            self.traces.push(r);
        }
    }

    /// Most gates the next step may fold into a run: [`MAX_RUN_GATES`], cut
    /// where a periodic checkpoint, a health check or an RSS probe falls
    /// due, so each lands on the gate it would land on gate by gate (at
    /// least 1: a step always applies its first matrix, whatever it folds).
    fn gates_until_due(&self, core: &Core) -> usize {
        let ckpt = match self.ckpt.as_ref().and_then(|p| p.every_gates) {
            Some(every) => every.saturating_sub(self.gates_since_ckpt),
            None => usize::MAX,
        };
        MAX_RUN_GATES
            .min(ckpt)
            .min(core.gov.gates_until_due())
            .max(1)
    }

    /// Publishes a [`Progress`] sample into the run context's ring (the
    /// source of `GET /jobs/{id}/events`). Throttled by [`progress_due`];
    /// `force` bypasses the throttle at run and phase edges.
    pub(super) fn publish_progress(&mut self, core: &Core, phase: &PhaseState, force: bool) {
        let (last_t, last_cursor) = (self.progress_at, self.progress_cursor);
        let since = || last_t.map_or(Duration::MAX, |t| t.elapsed());
        if !force && !progress_due(core.cursor, last_cursor, since) {
            return;
        }
        let now = Instant::now();
        let gates_per_sec = match last_t.map(|t| now.duration_since(t).as_secs_f64()) {
            Some(dt) if dt > 0.0 => core.cursor.saturating_sub(last_cursor) as f64 / dt,
            _ => 0.0,
        };
        let (dd_nodes, shard_fill) = match phase {
            PhaseState::Dd(_) => {
                let live = core.pkg.stats();
                (live.v_nodes + live.m_nodes, 0)
            }
            PhaseState::Flat(_) => (0, core.shards),
        };
        // Degradation rung: 0 = unconstrained, 1 = memory pressure forced
        // GC sweeps, 2 = a conversion was refused (run pinned to DD mode),
        // 3 = the approximation rung truncated the state (approximate run).
        let governor_rung = if core.stats.approx_truncations > 0 {
            3
        } else if core.conversion_blocked {
            2
        } else if core.stats.pressure_gcs > 0 {
            1
        } else {
            0
        };
        core.ctx.publish_progress(Progress {
            seq: 0,
            ts_us: qtelemetry::now_us(),
            phase: phase.phase().label(),
            gate: core.cursor,
            total_gates: core.run_total.unwrap_or(0),
            gates_per_sec,
            dd_nodes,
            governor_rung,
            shard_fill,
            sim: core.telemetry_id,
        });
        (self.progress_at, self.progress_cursor) = (Some(now), core.cursor);
    }

    /// Re-probes the breached memory source after a relief rung ran.
    fn probe_breached(core: &Core, phase: &PhaseState, context: &'static str) -> usize {
        if context == "process RSS" {
            crate::memory::current_rss_bytes().unwrap_or(u64::MAX) as usize
        } else {
            phase.memory_bytes(core)
        }
    }

    /// Memory-budget enforcement over `used` accounted bytes after a step
    /// of `gates` gates: on a breach the degradation ladder runs first
    /// (scratch release, sweep, compute-table flush), then — when armed —
    /// the approximation rung, and only a still-standing breach becomes an
    /// error.
    fn enforce_memory(
        &mut self,
        core: &mut Core,
        phase: &mut PhaseState,
        used: usize,
        gates: usize,
    ) -> Result<(), FlatDdError> {
        let breach = match core.gov.check_memory(used, gates) {
            Ok(()) => return Ok(()),
            Err(b) => b,
        };
        phase.relieve_pressure(core);
        let Breach::Memory {
            budget_bytes,
            context,
            ..
        } = breach
        else {
            return Err(core.breach_to_error(breach, phase.phase()));
        };
        if Self::probe_breached(core, phase, context) <= budget_bytes
            || approx_truncate(core, phase, budget_bytes, context)
        {
            return Ok(());
        }
        let observed_bytes = Self::probe_breached(core, phase, context);
        if observed_bytes <= budget_bytes {
            return Ok(());
        }
        let standing = Breach::Memory {
            budget_bytes,
            observed_bytes,
            context,
        };
        Err(core.breach_to_error(standing, phase.phase()))
    }

    /// Allowed drift of the state 2-norm away from 1 before the watchdog
    /// reports divergence.
    const NORM_TOLERANCE: f64 = 1e-6;

    /// Periodic numerical-health watchdog, counted in gates (`gates` after
    /// this step). In the DD phase the normalization invariant (outgoing
    /// weights of every vector node have 2-norm 1) makes the state norm
    /// equal to the root weight's magnitude, so the check is O(1); in the
    /// flat phase it scans the array.
    fn enforce_health(
        &mut self,
        core: &mut Core,
        phase: &PhaseState,
        gates: usize,
    ) -> Result<(), FlatDdError> {
        if !core.gov.health_check_due(gates) {
            return Ok(());
        }
        core.ctx.metrics().counter("core.watchdog_checks").inc();
        let (norm, detail) = match phase {
            PhaseState::Dd(dd) => {
                let root = dd.state;
                let norm = if root.is_zero() {
                    0.0
                } else {
                    core.pkg.cval(root.w).abs()
                };
                (norm, "DD root weight drifted from unit norm")
            }
            PhaseState::Flat(flat) => match flat.norm_sqr(&core.pool) {
                sq if sq.is_finite() => (sq.sqrt(), "flat state norm drifted from 1"),
                _ => (f64::NAN, "non-finite amplitude in flat state"),
            },
        };
        let ok = norm.is_finite() && (norm - 1.0).abs() <= Self::NORM_TOLERANCE;
        if qtelemetry::enabled() {
            qtelemetry::emit(qtelemetry::Event::Watchdog {
                sim: core.telemetry_id,
                ts_us: qtelemetry::now_us(),
                norm,
                ok,
            });
        }
        if ok {
            return Ok(());
        }
        Err(FlatDdError::NumericalDivergence {
            norm,
            detail: detail.into(),
            partial: Box::new(core.snapshot(phase.phase())),
        })
    }
}

/// The approximation rung: the ladder's last resort, armed only by
/// `--approx-fidelity-floor` / `FLATDD_APPROX_FLOOR`. Repeatedly prunes the
/// DD-phase state at the smallest effective threshold and compacts the
/// package until the breach clears, each round accepted only if the
/// cumulative fidelity product stays at or above the floor. Returns `true`
/// when the budget holds again. In the flat phase there is nothing to
/// truncate, so the rung never fires there.
fn approx_truncate(
    core: &mut Core,
    phase: &mut PhaseState,
    budget_bytes: usize,
    context: &'static str,
) -> bool {
    let Some(floor) = core.gov.config().approx_fidelity_floor else {
        return false;
    };
    loop {
        let PhaseState::Dd(dd) = &mut *phase else {
            return false;
        };
        let nodes = core.pkg.vector_dd_size(dd.state);
        if nodes <= 2 {
            return false; // nothing left to prune
        }
        // Cheapest effective prune: walk the threshold ladder up from the
        // bottom and take the first rung that removes any node at all.
        // Capacity breaches (bloated value/compute tables over a healthy
        // state) then cost almost no fidelity — the compaction below is
        // what actually releases the memory — while genuinely oversized
        // states escalate naturally on later rounds once their low-mass
        // tail is gone.
        let mut threshold = 1e-12;
        let mut r = core.pkg.approximate(dd.state, threshold);
        while r.nodes_after >= nodes && threshold < 0.5 {
            threshold *= 16.0;
            r = core.pkg.approximate(dd.state, threshold);
        }
        if r.nodes_after >= nodes || r.fidelity.is_nan() || r.fidelity <= 0.0 {
            return false; // pruning made no progress
        }
        let product = core.stats.fidelity * r.fidelity;
        if product < floor {
            // Accepting this step would cross the floor: keep the exact
            // state and let the breach surface as the usual typed error.
            return false;
        }
        dd.state = r.state;
        core.stats.fidelity = product;
        core.stats.approx_truncations += 1;
        core.ctx.metrics().counter("core.approx_truncations").inc();
        // Per-step fidelity histogram (integer buckets → parts per
        // million; 1e6 = lossless).
        core.ctx
            .metrics()
            .histogram("sim.approx_step_fidelity_ppm")
            .observe((r.fidelity * 1e6) as u64);
        core.governor_note("approx_truncate", || {
            format!(
                "nodes={}->{} step_fidelity={:.12} cumulative={:.12}",
                r.nodes_before, r.nodes_after, r.fidelity, product
            )
        });
        // Reclaiming dead nodes is not enough: the arena slabs are
        // append-only, so a sweep never lowers the capacity-based
        // accounting the budget is charged against. Compact for real by
        // rebuilding the surviving state in a fresh package and dropping
        // the old one (node ids change with it; nothing id-keyed lives in
        // the DD phase).
        let mut fresh = DdPackage::default();
        let rebuilt = qdd::serialize::vector_dd_to_bytes(&core.pkg, dd.state, core.n)
            .ok()
            .and_then(|bytes| qdd::serialize::vector_dd_from_bytes(&mut fresh, &bytes).ok());
        match rebuilt {
            Some((root, _)) => {
                core.pkg = fresh;
                dd.state = root;
            }
            None => {
                phase.collect(core);
                core.pkg.flush_caches();
            }
        }
        if Boundary::probe_breached(core, phase, context) <= budget_bytes {
            return true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{ConversionPolicy, FlatDdConfig, FlatDdSimulator};
    use qcircuit::GateKind;

    #[test]
    fn one_step_reads_the_package_stats_once() {
        let cfg = FlatDdConfig {
            conversion: ConversionPolicy::Never,
            ..FlatDdConfig::default()
        };
        let mut sim = FlatDdSimulator::new(4, cfg);
        let gates: Vec<Gate> = (0..4).map(|q| Gate::new(GateKind::H, q)).collect();
        for phase in [Phase::Dd, Phase::Dmav] {
            assert_eq!(sim.phase(), phase);
            // No progress sample falls due within 64 gates, no GC fires and
            // no budget is breached: the step's own read is the only one.
            for g in &gates {
                let before = sim.package().stats_reads();
                sim.apply(g).unwrap();
                assert_eq!(sim.package().stats_reads() - before, 1, "{phase:?}");
            }
            sim.convert_now().unwrap();
        }
    }

    #[test]
    fn progress_throttle_does_not_depend_on_the_cursor_stride() {
        let long = || Duration::from_millis(150);
        // A fused span advancing by 7 never lands on a multiple of 64
        // before gate 448; the first step past 64 gates must publish.
        let first_due = (0..).map(|k| k * 7).find(|&c| progress_due(c, 0, long));
        assert_eq!(first_due, Some(70));
        // Same stride measured from the last published cursor.
        assert!(!progress_due(133, 70, long));
        assert!(progress_due(140, 70, long));
        // The 100 ms floor still holds once enough gates have passed...
        assert!(!progress_due(700, 0, || Duration::from_millis(99)));
        // ...and the clock is not read at all on the quiet path.
        assert!(!progress_due(63, 0, || panic!(
            "clock read before 64 gates"
        )));
    }
}
