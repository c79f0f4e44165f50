//! The flat phase: DMAV — DD gate matrices multiplied onto the array state
//! (Section 3.2) — on single gates or on the blocks of a fused span
//! (Section 3.3).

use super::{Core, FusionPolicy, StepReport};
use crate::dmav::dmav_no_cache;
use crate::dmav_cache::{dmav_cached, PartialBuffers};
use crate::error::FlatDdError;
use crate::ewma::EwmaState;
use crate::faults;
use crate::fusion::{fuse_dmav_aware, fuse_k_operations, no_fusion, FusedGates};
use crate::plan_cache::{Plan, PlanCache};
use crate::pool::ThreadPool;
use qarray::{vecops, ShardedState};
use qcircuit::{Complex64, Gate};
use qdd::MEdge;
use std::time::Instant;

/// State owned by the flat phase.
pub(crate) struct FlatPhase {
    /// The state vector.
    pub(super) v: ShardedState,
    /// DMAV output buffer, swapped with `v` after every multiply.
    w: ShardedState,
    scratch: PartialBuffers,
    plans: PlanCache,
    /// Matrices of the current fused span and the gates each folds; the
    /// ones from `next` on are still pending (and are the phase's GC roots).
    fused: Vec<MEdge>,
    gate_counts: Vec<usize>,
    next: usize,
    /// The DD phase's monitor state at conversion, kept only so checkpoint
    /// headers written from here on carry it.
    pub(super) ewma: EwmaState,
}

impl FlatPhase {
    /// A flat phase over state `v` and an equally sized output buffer `w`.
    pub(super) fn new(v: ShardedState, w: ShardedState, core: &Core, ewma: EwmaState) -> Self {
        FlatPhase {
            v,
            w,
            scratch: PartialBuffers::default(),
            plans: PlanCache::new(core.cfg.caching, core.cfg.cost_model),
            fused: Vec::new(),
            gate_counts: Vec::new(),
            next: 0,
            ewma,
        }
    }

    /// Fuses `gates` (the rest of the run, starting at the cursor) under
    /// the configured policy into the pending span.
    pub(super) fn fuse(&mut self, core: &mut Core, gates: &[Gate]) {
        let telemetry = qtelemetry::enabled();
        let fuse_ts = telemetry.then(qtelemetry::now_us);
        let fuse_t0 = telemetry.then(Instant::now);
        let (pkg, n, t) = (&mut core.pkg, core.n, core.t);
        let (model, gc_every) = (&core.cfg.cost_model, core.cfg.fusion_gc_every);
        let fused: FusedGates = match core.cfg.fusion {
            FusionPolicy::DmavAware => fuse_dmav_aware(pkg, gates, n, t, model, gc_every),
            FusionPolicy::KOperations(k) => fuse_k_operations(pkg, gates, n, t, k, model, gc_every),
            FusionPolicy::None => no_fusion(pkg, gates, n, t, model),
        };
        core.stats.fused_matrices = fused.matrices.len();
        if telemetry {
            qtelemetry::emit(qtelemetry::Event::Fusion {
                sim: core.telemetry_id,
                ts_us: fuse_ts.unwrap_or(0.0),
                dur_us: fuse_t0
                    .map(|t| t.elapsed().as_secs_f64() * 1e6)
                    .unwrap_or(0.0),
                gates_in: gates.len(),
                matrices_out: fused.matrices.len(),
            });
        }
        debug_assert_eq!(fused.gate_counts.iter().sum::<usize>(), gates.len());
        self.fused = fused.matrices;
        self.gate_counts = fused.gate_counts;
        self.next = 0;
    }

    /// Fused matrices not yet applied: the phase's GC roots.
    pub(super) fn roots(&self) -> &[MEdge] {
        &self.fused[self.next..]
    }

    /// Drops the pending span (a run ended; the next one re-fuses from its
    /// own cursor).
    pub(super) fn clear_fused(&mut self) {
        self.fused.clear();
        self.gate_counts.clear();
        self.next = 0;
    }

    /// One DMAV: the pending fused block that starts at the cursor when a
    /// span is loaded (advancing the cursor by the gates it folds),
    /// otherwise `gate` itself.
    pub(super) fn step(&mut self, core: &mut Core, gate: &Gate) -> Result<StepReport, FlatDdError> {
        let fused = self.next < self.fused.len();
        let (m, gates) = if fused {
            (self.fused[self.next], self.gate_counts[self.next])
        } else {
            (core.pkg.gate_dd(gate, core.n), 1)
        };
        let plan_hit = self.dmav(core, m)?;
        if fused {
            self.next += 1;
        }
        if core.ctx.fires(faults::SITE_STATE_NAN).is_some() {
            if let Some(a) = self.v.first_mut() {
                *a = Complex64::new(f64::NAN, 0.0);
            }
        }
        Ok(StepReport {
            gates,
            dd_size: None,
            ewma: None,
            plan_hit: Some(plan_hit),
            fused,
        })
    }

    /// `v <- m * v`: look the matrix's plan up, run it, account it. Returns
    /// whether the lookup hit; a miss plans under the configured kernel
    /// policy (see [`PlanCache`]).
    fn dmav(&mut self, core: &mut Core, m: MEdge) -> Result<bool, FlatDdError> {
        let (pkg, pool, stats) = (&core.pkg, &core.pool, &mut core.stats);
        let hist = &core.hist_plan_build;
        let (v, w, scratch) = (&self.v, &mut self.w, &mut self.scratch);
        // Clock read for the plan-build histogram rides behind `enabled()`
        // (the overhead contract); the observe itself lands only on misses,
        // where a plan was actually built.
        let plan_t0 = qtelemetry::enabled().then(Instant::now);
        let run = |plan: &Plan, cost: f64, hit: bool| {
            if let (Some(t0), false) = (plan_t0, hit) {
                hist.observe_duration_us(t0.elapsed());
            }
            stats.modeled_cost += cost;
            match plan {
                Plan::Cached(asg) => {
                    let st = dmav_cached(pkg, asg, v, w, pool, scratch);
                    stats.cache_hits += st.hits;
                    stats.cached_dmavs += 1;
                }
                Plan::Plain(asg) => {
                    dmav_no_cache(pkg, asg, v, w, pool);
                    stats.uncached_dmavs += 1;
                }
            }
            hit
        };
        // Plans are built over the shard geometry (one assignment group per
        // shard), so the memo keys them by shard count.
        let plan_hit = self.plans.with_plan(pkg, m, core.n, core.shards, run)?;
        std::mem::swap(&mut self.v, &mut self.w);
        if plan_hit {
            core.stats.dmav_plan_hits += 1;
        } else {
            core.stats.dmav_plan_misses += 1;
        }
        core.stats.gates_dmav += 1;
        core.ctr_gates_dmav.inc();
        Ok(plan_hit)
    }

    /// The scratch rung of the memory-pressure ladder: DMAV partial
    /// buffers and memoized plans go, the state buffers stay.
    pub(super) fn release_scratch(&mut self) {
        self.scratch.release();
        self.plans.clear();
    }

    /// Resident bytes of the phase's buffers, scratch and plan memo.
    pub(super) fn memory_bytes(&self) -> usize {
        (self.v.capacity() + self.w.capacity()) * std::mem::size_of::<Complex64>()
            + self.scratch.memory_bytes()
            + self.plans.memory_bytes()
    }

    /// Plans memoized and the bytes charged for them (for the metrics
    /// snapshot).
    pub(super) fn plan_memo_size(&self) -> (usize, usize) {
        (self.plans.len(), self.plans.memory_bytes())
    }

    /// Squared 2-norm of the state: per-shard partial sums combined in
    /// shard order, so the result is deterministic for a given shard count.
    /// One shard is the plain serial reduction. Non-finite amplitudes
    /// propagate into the sum.
    pub(super) fn norm_sqr(&self, pool: &ThreadPool) -> f64 {
        let v = &self.v;
        qarray::sum_shards(pool, v.shards(), |s| vecops::norm_sqr(&v[v.shard_range(s)]))
    }
}

/// Fallibly allocates a zeroed, sharded flat buffer: the pool's workers
/// first-touch (zero) the shards they will own, so on NUMA machines each
/// shard's pages land on the node of the worker that operates on it.
/// Allocator refusal maps to [`FlatDdError::AllocationFailed`]; the
/// `alloc.flat` fault site makes the refusal injectable without a real OOM.
pub(super) fn try_flat_buffer(
    core: &Core,
    context: &'static str,
) -> Result<ShardedState, FlatDdError> {
    let dim = 1usize << core.n;
    let refused = || FlatDdError::AllocationFailed {
        requested_bytes: dim * std::mem::size_of::<Complex64>(),
        context,
    };
    if core.ctx.fires(faults::SITE_ALLOC_FLAT).is_some() {
        return Err(refused());
    }
    ShardedState::try_new_zeroed_on(dim, core.shards, &core.pool).map_err(|_| refused())
}
