//! The flat phase: DMAV — DD gate matrices multiplied onto the array state
//! (Section 3.2) — on single gates or on the blocks of a fused span
//! (Section 3.3), consecutive matrices that share the shard geometry as one
//! blocked run. Every matrix runs in place: the state is the phase's one
//! vector. The array holds only the qubits not fixed in a basis state
//! ([`Fixed`]); a gate that superposes a fixed one widens it back in, in
//! place.

use super::active::{Fixed, Reduced};
use super::{Core, FusionPolicy, GateTrace, Phase};
use crate::cost::CostModel;
use crate::dmav::{dmav_in_place, dmav_run_in_place, DmavAssignment, BLOCK_LEVEL};
use crate::error::FlatDdError;
use crate::ewma::EwmaState;
use crate::faults;
use crate::fusion::{fuse_dmav_aware, fuse_k_operations, FusedGates};
use crate::plan_cache::{Lookup, PlanCache};
use crate::pool::ThreadPool;
use qarray::vecops::{self, REAL_GROUP};
use qarray::ShardedState;
use qcircuit::{Complex64, Gate};
use qdd::MEdge;
use std::borrow::Cow;
use std::time::Instant;

/// State owned by the flat phase.
pub(crate) struct FlatPhase {
    /// The amplitudes of the active qubits: the first `2^(n - k)` of a
    /// `2^n` buffer, `k` the qubits `fixed` holds out.
    v: ShardedState,
    /// The qubits held out of `v`, their values and the pending factor.
    fixed: Fixed,
    plans: PlanCache,
    /// Matrices of the current fused span and the gates each folds; the
    /// ones from `next` on are still pending (and are the phase's GC roots).
    fused: Vec<MEdge>,
    gate_counts: Vec<usize>,
    /// What the gates each fused matrix folds do to `fixed` (a factor and
    /// the fixed qubits they flip), applied when the matrix is.
    effects: Vec<(Complex64, usize)>,
    next: usize,
    /// The lookup of the matrix at the cursor, made by the step before it
    /// when that matrix could not join its run: the step that applies the
    /// matrix uses and counts it, so every matrix is one counted lookup.
    peeked: Option<Lookup>,
    /// The DD phase's monitor state at conversion, kept only so checkpoint
    /// headers written from here on carry it.
    pub(super) ewma: EwmaState,
}

/// What a step's matrices run as: a blocked run at [`BLOCK_LEVEL`], or a
/// streamed group of up to [`REAL_GROUP`] real one-qubit matrices, one
/// block per shard.
#[derive(Clone, Copy, PartialEq)]
enum Join {
    Run,
    Group,
}

impl Join {
    /// What `plan` over `shards` groups can be part of: a run when it mixes
    /// at or below the block, a group when it is a real one-qubit matrix
    /// that mixes above it; nothing (it runs alone) otherwise, and when the
    /// lookup narrowed it to fewer groups.
    fn of(plan: &DmavAssignment, shards: usize) -> Option<Join> {
        if plan.t != shards {
            None
        } else if plan.mixing_level() <= BLOCK_LEVEL {
            Some(Join::Run)
        } else {
            plan.real_one_qubit().then_some(Join::Group)
        }
    }
}

/// Shard count of the flat state at `width` active qubits: the configured
/// one, clamped as for a `width`-qubit simulator.
pub(super) fn shards_at(core: &Core, width: usize) -> usize {
    crate::pool::clamp_shards(core.cfg.flat_shards, core.t, width)
}

impl FlatPhase {
    /// A flat phase over `v`, the state with the `fixed` qubits held out
    /// ([`Fixed::NONE`]: `v` is the whole state).
    pub(super) fn new(v: ShardedState, fixed: Fixed, ewma: EwmaState) -> Self {
        FlatPhase {
            v,
            fixed,
            plans: PlanCache::new(),
            fused: Vec::new(),
            gate_counts: Vec::new(),
            effects: Vec::new(),
            next: 0,
            peeked: None,
            ewma,
        }
    }

    /// Active qubits: the width the array runs at.
    fn width(&self) -> usize {
        self.v.len().trailing_zeros() as usize
    }

    /// Fuses `gates` (the rest of the run, starting at the cursor) under
    /// the configured policy into the pending span, reduced against the
    /// fixed qubits at the active width. The span ends before the first
    /// gate that widens, so the next span is fused at the new width; a span
    /// with no gate left to fuse loads nothing and the steps take the gates
    /// one at a time. `first` marks a run's first span, which restarts
    /// [`FlatDdStats::fused_matrices`](super::FlatDdStats::fused_matrices).
    /// The driver calls it only under a fusion policy.
    pub(super) fn fuse(&mut self, core: &mut Core, gates: &[Gate], first: bool) {
        if first {
            core.stats.fused_matrices = 0;
        }
        let fuse_ts = qtelemetry::enabled().then(qtelemetry::now_us);
        // Each reduced gate carries the circuit gates it stands for (itself
        // and the skipped or factored ones before it) and their effect.
        let mut fixed = self.fixed;
        let (mut reduced, mut counts, mut effects) = (Vec::new(), Vec::new(), Vec::new());
        let (mut held, mut effect) = (0, (Complex64::ONE, 0));
        for g in gates {
            match fixed.reduce(g) {
                Reduced::Widen(_) => break,
                Reduced::Skip => held += 1,
                Reduced::Factor(c, flip) => {
                    fixed.absorb(c, flip);
                    effect = (effect.0 * c, effect.1 ^ flip);
                    held += 1;
                }
                Reduced::Gate(g) => {
                    reduced.push(g);
                    counts.push(held + 1);
                    effects.push(effect);
                    (held, effect) = (0, (Complex64::ONE, 0));
                }
            }
        }
        // Trailing skipped or factored gates ride on the last matrix.
        let (Some(count), Some(last)) = (counts.last_mut(), effects.last_mut()) else {
            return;
        };
        *count += held;
        *last = (last.0 * effect.0, last.1 ^ effect.1);
        // Priced over the shard geometry its plans start from (one group per
        // shard): where a matrix runs in place depends on it.
        let (pkg, n, t) = (&mut core.pkg, self.width(), self.v.shards());
        let (model, gc_every) = (&CostModel::default(), core.cfg.fusion_gc_every);
        let fused: FusedGates = match core.cfg.fusion {
            FusionPolicy::KOperations(k) => {
                fuse_k_operations(pkg, &reduced, n, t, k, model, gc_every)
            }
            _ => fuse_dmav_aware(pkg, &reduced, n, t, model, gc_every),
        };
        debug_assert_eq!(fused.gate_counts.iter().sum::<usize>(), reduced.len());
        let spanned: usize = counts.iter().sum();
        core.stats.fused_matrices += fused.matrices.len();
        if let Some(ts_us) = fuse_ts {
            qtelemetry::emit(qtelemetry::Event::Fusion {
                sim: core.telemetry_id,
                ts_us,
                dur_us: (qtelemetry::now_us() - ts_us).max(0.0),
                gates_in: spanned,
                matrices_out: fused.matrices.len(),
            });
        }
        self.gate_counts.clear();
        self.effects.clear();
        let mut at = 0;
        for k in fused.gate_counts {
            self.gate_counts.push(counts[at..at + k].iter().sum());
            let folded = effects[at..at + k]
                .iter()
                .fold((Complex64::ONE, 0), |(c, f), &(c2, f2)| (c * c2, f ^ f2));
            self.effects.push(folded);
            at += k;
        }
        self.fused = fused.matrices;
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
        self.effects.clear();
        self.next = 0;
        self.peeked = None;
    }

    /// One step at the cursor, over `gates` (the rest of the run, or the
    /// one gate `apply` was given) and folding at most `budget` of them
    /// unless the first matrix alone folds more. The matrices are the
    /// pending fused blocks when a span is loaded, otherwise the gates'
    /// own, reduced against the fixed qubits: a skipped or factored gate
    /// costs no matrix, and one that widens a fixed qubit is a step of its
    /// own. A first matrix that mixes at or below the block opens a run:
    /// every following one that does too and fits the budget joins it, and
    /// the run is applied block by block in one dispatch. A real one-qubit
    /// matrix that mixes above the block opens a group: up to
    /// [`REAL_GROUP`]` - 1` following ones join it, streamed together in one
    /// pass. Any other first matrix (or one whose plan narrowed to fewer
    /// groups) is applied on its own.
    pub(super) fn step(
        &mut self,
        core: &mut Core,
        gates: &[Gate],
        budget: usize,
    ) -> Result<GateTrace, FlatDdError> {
        let report = self.advance(core, gates, budget)?;
        if core.ctx.fires(faults::SITE_STATE_NAN).is_some() {
            if let Some(a) = self.v.first_mut() {
                *a = Complex64::new(f64::NAN, 0.0);
            }
        }
        Ok(report)
    }

    /// [`Self::step`] short of its fault probe.
    fn advance(
        &mut self,
        core: &mut Core,
        gates: &[Gate],
        budget: usize,
    ) -> Result<GateTrace, FlatDdError> {
        let fused = self.next < self.fused.len();
        // The fixed set as the step leaves it, committed once its matrices
        // have run.
        let mut fixed = self.fixed;
        let mut run: Vec<Lookup> = Vec::new();
        let (mut folded, mut bypassed) = (0, 0);
        let mut join = None;
        loop {
            let i = run.len();
            if join == Some(Join::Group) && i == REAL_GROUP {
                break;
            }
            let pending = if fused {
                self.gate_counts.get(self.next + i).copied()
            } else {
                (folded < gates.len()).then_some(1)
            };
            let Some(k) = pending else { break };
            if folded > 0 && folded + k > budget {
                break;
            }
            let looked = match self.peeked.take() {
                Some(looked) => looked,
                None if fused => self.lookup(core, self.fused[self.next + i])?,
                None => match fixed.reduce(&gates[folded]) {
                    Reduced::Gate(g) => {
                        let m = core.pkg.gate_dd(&g, self.width());
                        self.lookup(core, m)?
                    }
                    // A widening ends the run.
                    Reduced::Widen(_) if folded > 0 => break,
                    Reduced::Widen(q) => return self.widen_step(core, &gates[0], q),
                    bypass => {
                        if let Reduced::Factor(c, flip) = bypass {
                            fixed.absorb(c, flip);
                        }
                        folded += 1;
                        bypassed += 1;
                        continue;
                    }
                },
            };
            let kind = Join::of(&looked.plan, self.v.shards());
            if i > 0 && kind != join {
                self.peeked = Some(looked);
                break;
            }
            join = kind;
            run.push(looked);
            folded += k;
            if join.is_none() {
                break;
            }
        }
        if !run.is_empty() {
            let level = match join {
                Some(Join::Group) => self.width(),
                _ => BLOCK_LEVEL,
            };
            self.dmav(core, &run, level);
        }
        if fused {
            for &(c, flip) in &self.effects[self.next..self.next + run.len()] {
                fixed.absorb(c, flip);
            }
            self.next += run.len();
        }
        self.fixed = fixed;
        for _ in 0..bypassed {
            account(core, 0.0, true);
        }
        Ok(GateTrace {
            plan_hit: Some(run.iter().all(|looked| looked.hit)),
            fused,
            ..GateTrace::untimed(core, folded, Phase::Dmav)
        })
    }

    /// The step of a gate that superposes fixed qubit `q`: widen `q` in,
    /// then apply the gate. With no active control the two are one pass —
    /// the widening writes the gate's column `b` — else the widening
    /// spreads the state onto `|b>` and the gate runs as any other.
    fn widen_step(
        &mut self,
        core: &mut Core,
        gate: &Gate,
        q: usize,
    ) -> Result<GateTrace, FlatDdError> {
        let (b, m) = (self.fixed.bit(q), gate.kind.matrix());
        let lone = gate.controls.iter().all(|c| self.fixed.holds(c.qubit));
        let column = match lone {
            true => [m[b], m[2 + b]],
            false => self.fixed.spread(q, Complex64::ONE),
        };
        self.widen(core, q, column);
        let hit = if lone {
            account(core, 0.0, true);
            true
        } else {
            let Reduced::Gate(g) = self.fixed.reduce(gate) else {
                unreachable!("a gate whose fixed target is widened in reduces to a gate");
            };
            let m = core.pkg.gate_dd(&g, self.width());
            let looked = self.lookup(core, m)?;
            self.dmav(core, std::slice::from_ref(&looked), BLOCK_LEVEL);
            looked.hit
        };
        Ok(GateTrace {
            plan_hit: Some(hit),
            ..GateTrace::untimed(core, 1, Phase::Dmav)
        })
    }

    /// Widens fixed qubit `q` into the array in place: every amplitude goes
    /// to the two halves of `q` times `column` and the pending factor.
    fn widen(&mut self, core: &Core, q: usize, column: [Complex64; 2]) {
        let p = self.fixed.position(q);
        let f = self.fixed.factor;
        let c = match f == Complex64::ONE {
            true => column,
            false => column.map(|x| x * f),
        };
        self.fixed.release(q);
        self.v.widen(p, c, shards_at(core, self.width() + 1));
        core.ctx.metrics().counter("sim.widenings").inc();
    }

    /// The state over all `n` qubits: the array itself while no qubit is
    /// fixed, else a copy with each fixed qubit spread back in and the
    /// pending factor applied. Every full-width reader but
    /// [`Self::amplitude`] and [`Self::top_amplitudes`] goes through here.
    pub(super) fn full_state(&self, n: usize) -> Cow<'_, [Complex64]> {
        if self.fixed.mask == 0 {
            return Cow::Borrowed(&self.v);
        }
        let mut full = vec![Complex64::ZERO; 1usize << n];
        let mut len = self.v.len();
        full[..len].copy_from_slice(&self.v);
        let mut f = self.fixed.factor;
        // Ascending, so every qubit below `q` is in place when `q` is.
        for q in (0..n).filter(|&q| self.fixed.holds(q)) {
            qarray::widen(&mut full[..2 * len], q, self.fixed.spread(q, f));
            (len, f) = (2 * len, Complex64::ONE);
        }
        Cow::Owned(full)
    }

    /// The amplitude of basis state `index` (over all qubits), read without
    /// spreading the array.
    pub(super) fn amplitude(&self, index: usize) -> Complex64 {
        let fx = &self.fixed;
        if fx.mask == 0 {
            return self.v[index];
        }
        fx.array_index(index)
            .map_or(Complex64::ZERO, |at| self.v[at] * fx.factor)
    }

    /// The `k` heaviest amplitudes over all qubits, in the order of
    /// [`qarray::TopAmplitudes`]: one pass over the array, each entry
    /// offered at its full index with the value [`Self::amplitude`] reads,
    /// so nothing of width `2^n` is built while qubits are held out.
    pub(super) fn top_amplitudes(&self, k: usize) -> Vec<(usize, Complex64)> {
        let fx = &self.fixed;
        if fx.mask == 0 {
            return qarray::top_amplitudes(&self.v, k);
        }
        let mut top = qarray::TopAmplitudes::new(k);
        for (at, &a) in self.v.iter().enumerate() {
            let a = a * fx.factor;
            // Only an entry that can be kept pays for its index.
            if a.norm_sqr() >= top.floor() {
                top.offer(fx.full_index(at), a);
            }
        }
        top.into_sorted()
    }

    /// The array as the whole state, for the readers that collapse or
    /// overwrite it: every fixed qubit is widened back in first.
    pub(super) fn state_mut(&mut self, core: &Core) -> &mut ShardedState {
        while self.fixed.mask != 0 {
            let q = self.fixed.mask.trailing_zeros() as usize;
            self.widen(core, q, self.fixed.spread(q, Complex64::ONE));
        }
        &mut self.v
    }

    /// The in-place plan of `m` from the shard geometry (one assignment
    /// group per shard, narrowed where the matrix crosses the shard border,
    /// so the memo keys plans by shard count); a miss builds it (see
    /// [`PlanCache`]).
    fn lookup(&mut self, core: &Core, m: MEdge) -> Result<Lookup, FlatDdError> {
        // Timed when the step is recorded (`cfg.trace` or a sink, the
        // overhead contract); the observe itself lands only on misses,
        // where a plan was actually built.
        let t0 = core.recording().then(Instant::now);
        let looked = self
            .plans
            .lookup(&core.pkg, m, self.width(), self.v.shards())?;
        if let (Some(t0), false) = (t0, looked.hit) {
            core.hist_plan_build.observe_duration_us(t0.elapsed());
        }
        Ok(looked)
    }

    /// `v <- M_k * ... * M_1 * v` in place for the looked-up `run`, then
    /// account every matrix: a run of several in blocks of `2^level`, one
    /// matrix on the groups its plan narrowed to.
    fn dmav(&mut self, core: &mut Core, run: &[Lookup], level: usize) {
        match run {
            [one] => dmav_in_place(&one.plan, &mut self.v, &core.pool),
            _ => {
                let asgs: Vec<&DmavAssignment> = run.iter().map(|looked| &*looked.plan).collect();
                dmav_run_in_place(&asgs, &mut self.v, &core.pool, level);
            }
        }
        for looked in run {
            account(core, looked.cost, looked.hit);
        }
    }

    /// The scratch rung of the memory-pressure ladder: the memoized plans
    /// go, the state stays.
    pub(super) fn clear_plans(&mut self) {
        self.plans.clear();
    }

    /// Resident bytes of the phase's one vector and plan memo.
    pub(super) fn memory_bytes(&self) -> usize {
        self.v.capacity() * std::mem::size_of::<Complex64>() + self.plans.memory_bytes()
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
        let sq = qarray::sum_shards(pool, v.shards(), |s| vecops::norm_sqr(&v[v.shard_range(s)]));
        match self.fixed.mask {
            0 => sq,
            _ => sq * self.fixed.factor.norm_sqr(),
        }
    }
}

/// Accounts one flat-phase matrix of modelled `cost`: a DMAV, or a gate the
/// fixed qubits reduced to no matrix (cost 0, nothing to look up), so the
/// counters still add up to the gates and blocks consumed.
fn account(core: &mut Core, cost: f64, hit: bool) {
    let stats = &mut core.stats;
    stats.modeled_cost += cost;
    stats.uncached_dmavs += 1;
    if hit {
        stats.dmav_plan_hits += 1;
    } else {
        stats.dmav_plan_misses += 1;
    }
    stats.gates_dmav += 1;
    core.ctr_gates_dmav.inc();
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
