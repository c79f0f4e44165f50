//! The flat phase: DMAV — DD gate matrices multiplied onto the array state
//! (Section 3.2) — on single gates or on the blocks of a fused span
//! (Section 3.3), consecutive in-place matrices as one blocked run.

use super::{Core, FusionPolicy, Phase, StepReport};
use crate::cost::CostModel;
use crate::dmav::{dmav_in_place, dmav_no_cache, dmav_run_in_place, DmavAssignment, BLOCK_LEVEL};
use crate::error::FlatDdError;
use crate::ewma::EwmaState;
use crate::faults;
use crate::fusion::{fuse_dmav_aware, fuse_k_operations, no_fusion, FusedGates};
use crate::plan_cache::{Lookup, PlanCache};
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
    plans: PlanCache,
    /// Matrices of the current fused span and the gates each folds; the
    /// ones from `next` on are still pending (and are the phase's GC roots).
    fused: Vec<MEdge>,
    gate_counts: Vec<usize>,
    next: usize,
    /// The lookup of the matrix at the cursor, made by the step before it
    /// when that matrix could not join its run: the step that applies the
    /// matrix uses and counts it, so every matrix is one counted lookup.
    peeked: Option<Lookup>,
    /// The DD phase's monitor state at conversion, kept only so checkpoint
    /// headers written from here on carry it.
    pub(super) ewma: EwmaState,
}

/// Whether a plan can join a blocked run at [`BLOCK_LEVEL`].
fn joins_runs(plan: &DmavAssignment) -> bool {
    plan.in_place() && plan.mixing_level() <= BLOCK_LEVEL
}

impl FlatPhase {
    /// A flat phase over state `v`.
    pub(super) fn new(v: ShardedState, ewma: EwmaState) -> Self {
        FlatPhase {
            v,
            w: None,
            plans: PlanCache::new(),
            fused: Vec::new(),
            gate_counts: Vec::new(),
            next: 0,
            peeked: None,
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
        let (model, gc_every) = (&CostModel::default(), core.cfg.fusion_gc_every);
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
        self.peeked = None;
    }

    /// One step at the cursor, over `gates` (the rest of the run, or the
    /// one gate `apply` was given) and folding at most `budget` of them
    /// unless the first matrix alone folds more. The matrices are the
    /// pending fused blocks when a span is loaded, otherwise the gates'
    /// own. The first matrix that has no place in a blocked run is applied
    /// on its own; otherwise every following matrix that has one and fits
    /// the budget joins it — a run, applied block by block in one dispatch.
    pub(super) fn step(
        &mut self,
        core: &mut Core,
        gates: &[Gate],
        budget: usize,
    ) -> Result<StepReport, FlatDdError> {
        let fused = self.next < self.fused.len();
        let mut run: Vec<Lookup> = Vec::new();
        let mut folded = 0;
        loop {
            let i = run.len();
            let pending = if fused {
                self.gate_counts.get(self.next + i).copied()
            } else {
                (i < gates.len()).then_some(1)
            };
            let Some(k) = pending else { break };
            if i > 0 && folded + k > budget {
                break;
            }
            let looked = match self.peeked.take() {
                Some(looked) => looked,
                None => {
                    let m = match fused {
                        true => self.fused[self.next + i],
                        false => core.pkg.gate_dd(&gates[i], core.n),
                    };
                    self.lookup(core, m)?
                }
            };
            let joins = joins_runs(&looked.plan);
            if i > 0 && !joins {
                self.peeked = Some(looked);
                break;
            }
            run.push(looked);
            folded += k;
            if !joins {
                break;
            }
        }
        self.dmav(core, &run)?;
        if fused {
            self.next += run.len();
        }
        if core.ctx.fires(faults::SITE_STATE_NAN).is_some() {
            if let Some(a) = self.v.first_mut() {
                *a = Complex64::new(f64::NAN, 0.0);
            }
        }
        Ok(StepReport {
            gates: folded,
            dd_size: None,
            ewma: None,
            plan_hit: Some(run.iter().all(|looked| looked.hit)),
            fused,
        })
    }

    /// The plan of `m` over the shard geometry (one assignment group per
    /// shard, so the memo keys plans by shard count); a miss builds it (see
    /// [`PlanCache`]).
    fn lookup(&mut self, core: &Core, m: MEdge) -> Result<Lookup, FlatDdError> {
        // Clock read for the plan-build histogram rides behind `enabled()`
        // (the overhead contract); the observe itself lands only on misses,
        // where a plan was actually built.
        let t0 = qtelemetry::enabled().then(Instant::now);
        let looked = self.plans.lookup(&core.pkg, m, core.n, core.shards)?;
        if let (Some(t0), false) = (t0, looked.hit) {
            core.hist_plan_build.observe_duration_us(t0.elapsed());
        }
        Ok(looked)
    }

    /// `v <- M_k * ... * M_1 * v` for the looked-up `run`, then account
    /// every matrix. A run of several is in place by construction and runs
    /// block by block; a plan with an in-place form runs on `v` itself; the
    /// others write `w` (allocated here on first need — an error from that
    /// leaves `v` as it was) and swap.
    fn dmav(&mut self, core: &mut Core, run: &[Lookup]) -> Result<(), FlatDdError> {
        let (pkg, pool) = (&core.pkg, &core.pool);
        let first = &run[0].plan;
        if run.len() > 1 {
            let asgs: Vec<&DmavAssignment> = run.iter().map(|looked| &*looked.plan).collect();
            dmav_run_in_place(&asgs, &mut self.v, pool, BLOCK_LEVEL);
        } else if first.in_place() {
            dmav_in_place(first, &mut self.v, pool);
        } else {
            let held = self.memory_bytes();
            let w = output_vector(&mut self.w, core, held)?;
            dmav_no_cache(pkg, first, &self.v, w, pool);
            std::mem::swap(&mut self.v, w);
        }
        let stats = &mut core.stats;
        for looked in run {
            stats.modeled_cost += looked.cost;
            stats.uncached_dmavs += 1;
            // An in-place matrix is a DMAV that needed no `W`.
            if looked.plan.in_place() {
                core.ctr_dmav_in_place.inc();
            }
            if looked.hit {
                stats.dmav_plan_hits += 1;
            } else {
                stats.dmav_plan_misses += 1;
            }
            stats.gates_dmav += 1;
            core.ctr_gates_dmav.inc();
        }
        Ok(())
    }

    /// The scratch rung of the memory-pressure ladder: the DMAV output
    /// vector (the next out-of-place walk allocates it again, if the budget
    /// then admits it) and the memoized plans go, the state stays.
    pub(super) fn release_scratch(&mut self) {
        self.w = None;
        self.plans.clear();
    }

    /// Resident bytes of the state and, once allocated, the output vector.
    pub(super) fn vector_bytes(&self) -> usize {
        let w = self.w.as_ref().map_or(0, ShardedState::capacity);
        (self.v.capacity() + w) * std::mem::size_of::<Complex64>()
    }

    /// Resident bytes of the phase's vectors and plan memo.
    pub(super) fn memory_bytes(&self) -> usize {
        self.vector_bytes() + self.plans.memory_bytes()
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
