//! The flat phase: DMAV — DD gate matrices multiplied onto the array state
//! (Section 3.2) — on single gates or on the blocks of a fused span
//! (Section 3.3).

use super::{Core, FusionPolicy, Phase, StepReport};
use crate::dmav::{dmav_in_place, dmav_no_cache};
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
    /// Output buffer of the out-of-place DMAV walks, swapped with `v` after
    /// each. Allocated by the first of them ([`output_vector`]): a run whose
    /// every matrix has an in-place form holds one vector.
    w: Option<ShardedState>,
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
    /// A flat phase over state `v`.
    pub(super) fn new(v: ShardedState, core: &Core, ewma: EwmaState) -> Self {
        FlatPhase {
            v,
            w: None,
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
        // Priced over the shard geometry its plans will use (one group per
        // shard): whether a matrix runs in place depends on it.
        let (pkg, n, t) = (&mut core.pkg, core.n, core.shards);
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
    /// policy (see [`PlanCache`]). A plain plan with an in-place form runs
    /// on `v` itself; every other plan writes `w` (allocated here on first
    /// need — an error from that leaves `v` as it was) and swaps.
    fn dmav(&mut self, core: &mut Core, m: MEdge) -> Result<bool, FlatDdError> {
        /// Which kernel a plan ran.
        enum Ran {
            InPlace,
            Plain,
            Cached { hits: usize },
        }
        let held = self.memory_bytes();
        let (v, w, scratch) = (&mut self.v, &mut self.w, &mut self.scratch);
        let (pkg, pool) = (&core.pkg, &core.pool);
        let hist = &core.hist_plan_build;
        // Clock read for the plan-build histogram rides behind `enabled()`
        // (the overhead contract); the observe itself lands only on misses,
        // where a plan was actually built.
        let plan_t0 = qtelemetry::enabled().then(Instant::now);
        let run = |plan: &Plan, cost: f64, hit: bool| -> Result<_, FlatDdError> {
            if let (Some(t0), false) = (plan_t0, hit) {
                hist.observe_duration_us(t0.elapsed());
            }
            let ran = match plan {
                Plan::Plain(asg) if asg.in_place() => {
                    dmav_in_place(asg, v, pool);
                    Ran::InPlace
                }
                Plan::Plain(asg) => {
                    let w = output_vector(w, core, held)?;
                    dmav_no_cache(pkg, asg, v, w, pool);
                    std::mem::swap(v, w);
                    Ran::Plain
                }
                Plan::Cached(asg) => {
                    let w = output_vector(w, core, held)?;
                    let hits = dmav_cached(pkg, asg, v, w, pool, scratch).hits;
                    std::mem::swap(v, w);
                    Ran::Cached { hits }
                }
            };
            Ok((ran, cost, hit))
        };
        // Plans are built over the shard geometry (one assignment group per
        // shard), so the memo keys them by shard count.
        let (ran, cost, plan_hit) = self.plans.with_plan(pkg, m, core.n, core.shards, run)??;
        let stats = &mut core.stats;
        stats.modeled_cost += cost;
        match ran {
            // An in-place gate is an uncached DMAV that needed no `W`.
            Ran::InPlace => {
                stats.uncached_dmavs += 1;
                core.ctr_dmav_in_place.inc();
            }
            Ran::Plain => stats.uncached_dmavs += 1,
            Ran::Cached { hits } => {
                stats.cache_hits += hits;
                stats.cached_dmavs += 1;
            }
        }
        if plan_hit {
            stats.dmav_plan_hits += 1;
        } else {
            stats.dmav_plan_misses += 1;
        }
        stats.gates_dmav += 1;
        core.ctr_gates_dmav.inc();
        Ok(plan_hit)
    }

    /// The scratch rung of the memory-pressure ladder: the DMAV output
    /// vector (the next out-of-place walk allocates it again, if the budget
    /// then admits it), partial buffers and memoized plans go, the state
    /// stays.
    pub(super) fn release_scratch(&mut self) {
        self.w = None;
        self.scratch.release();
        self.plans.clear();
    }

    /// Resident bytes of the state and, once allocated, the output vector.
    pub(super) fn vector_bytes(&self) -> usize {
        let w = self.w.as_ref().map_or(0, ShardedState::capacity);
        (self.v.capacity() + w) * std::mem::size_of::<Complex64>()
    }

    /// Resident bytes of the phase's vectors, scratch and plan memo.
    pub(super) fn memory_bytes(&self) -> usize {
        self.vector_bytes() + self.scratch.memory_bytes() + self.plans.memory_bytes()
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

/// The flat phase's output vector, allocated on first need: admission
/// against the memory budget on top of what is held now (`held` flat-phase
/// bytes plus the package), then [`try_flat_buffer`]. Both refusals are
/// typed and happen before the gate that asked touches the state.
fn output_vector<'a>(
    w: &'a mut Option<ShardedState>,
    core: &Core,
    held: usize,
) -> Result<&'a mut ShardedState, FlatDdError> {
    // (The package is read only under a budget: an unbudgeted step reads
    // its statistics once, at the boundary.)
    if let (None, Some(budget_bytes)) = (&w, core.gov.config().memory_budget_bytes) {
        let used = core.pkg.stats().memory_bytes + held;
        let need = (1usize << core.n) * std::mem::size_of::<Complex64>();
        if !core.gov.admits_allocation(used, need) {
            return Err(FlatDdError::MemoryBudgetExceeded {
                budget_bytes,
                observed_bytes: used.saturating_add(need),
                context: "DMAV output vector",
                partial: Box::new(core.snapshot(Phase::Dmav)),
            });
        }
    }
    match w {
        Some(w) => Ok(w),
        None => Ok(w.insert(try_flat_buffer(core, "DMAV output vector")?)),
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
