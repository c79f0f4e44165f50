//! Memo of DMAV plans.
//!
//! Which kernel multiplies a gate matrix onto the state — Algorithm 1 or
//! Algorithm 2, by `min(C1, C2)` of Section 3.2.3 — and the task lists and
//! compiled program it runs are properties of the *matrix DD*, and DDs are
//! canonical: a repeated gate produces the identical root edge. The memo
//! keeps, per `(root edge, n, shards)`, the one plan that will run and the
//! modeled cost it charges, so a repeat is one lookup: no descent, no
//! compile, no analysis.
//!
//! One invalidation rule. Node ids are recycled by [`DdPackage::gc`], which
//! makes a stale plan silently wrong rather than just slow, so every lookup
//! compares the package's [`DdPackage::gc_epoch`] against the epoch the
//! memo was filled under and drops everything on a mismatch. Like the
//! compute tables the memo is lossy and never ages entries: an insert that
//! would take it over [`CAP_BYTES`] clears it instead. Held bytes are
//! reported via [`PlanCache::memory_bytes`] so the resource governor
//! charges them like any other cache.

use crate::cost::CostModel;
use crate::dmav::DmavAssignment;
use crate::dmav_cache::DmavCacheAssignment;
use crate::error::FlatDdError;
use crate::sim::CachingPolicy;
use qdd::fxhash::FxHashMap;
use qdd::{DdPackage, MEdge, MacTable};
use std::sync::Arc;

/// Bytes of plans the memo holds at most. The spine's workloads end their
/// runs holding under 0.12 MiB (EXPERIMENTS.md, "What the plan layer
/// serves"); the cap only bounds circuits of many distinct fused matrices.
const CAP_BYTES: usize = 32 << 20;

/// Fixed per-entry overhead charged on top of the assignment's own heap
/// bytes (key, map slot, the assignment's inline part).
const ENTRY_OVERHEAD: usize = 128;

/// The kernel that runs a matrix, with what it runs.
pub(crate) enum Plan {
    /// Algorithm 1 (row space, no caching).
    Plain(DmavAssignment),
    /// Algorithm 2 (column space, cached partial results).
    Cached(DmavCacheAssignment),
}

/// What one lookup hands back.
pub(crate) struct Lookup {
    /// The plan, shared with the memo: a run of matrices holds several at
    /// once, and one the memo dropped (past its cap) lives as long as that.
    pub(crate) plan: Arc<Plan>,
    /// What one application adds to `FlatDdStats::modeled_cost`
    /// (`min(C1, C2)` under [`CachingPolicy::CostModel`], else 0).
    pub(crate) cost: f64,
    /// The memo answered; a miss planned.
    pub(crate) hit: bool,
}

/// Memo of the [`Plan`] per gate matrix, invalidated wholesale on DD
/// garbage collection.
pub(crate) struct PlanCache {
    caching: CachingPolicy,
    model: CostModel,
    /// Per matrix root edge (node id + interned weight — canonical DDs make
    /// this a complete identity), qubit count and group count: the plan and
    /// its modeled cost per application.
    map: FxHashMap<(MEdge, usize, usize), (Arc<Plan>, f64)>,
    /// GC epoch the current contents were built under.
    epoch: u64,
    bytes: usize,
    cap: usize,
}

impl PlanCache {
    /// An empty memo whose misses plan under `caching` and `model`.
    pub(crate) fn new(caching: CachingPolicy, model: CostModel) -> Self {
        PlanCache {
            caching,
            model,
            map: FxHashMap::default(),
            epoch: 0,
            bytes: 0,
            cap: CAP_BYTES,
        }
    }

    /// The plan for `(m, n, t)`, planned and memoized on a miss. A geometry
    /// no plan exists for is [`FlatDdError::InvalidInput`], and nothing is
    /// stored.
    pub(crate) fn lookup(
        &mut self,
        pkg: &DdPackage,
        m: MEdge,
        n: usize,
        t: usize,
    ) -> Result<Lookup, FlatDdError> {
        if pkg.gc_epoch() != self.epoch {
            self.clear();
            self.epoch = pkg.gc_epoch();
        }
        if let Some((plan, cost)) = self.map.get(&(m, n, t)) {
            return Ok(Lookup {
                plan: Arc::clone(plan),
                cost: *cost,
                hit: true,
            });
        }
        let (plan, cost) = self.plan(pkg, m, n, t)?;
        let bytes = ENTRY_OVERHEAD
            + match &plan {
                Plan::Plain(asg) => asg.memory_bytes(),
                Plan::Cached(asg) => asg.memory_bytes(),
            };
        let plan = Arc::new(plan);
        if self.bytes + bytes > self.cap {
            self.clear();
        } else {
            self.bytes += bytes;
            self.map.insert((m, n, t), (Arc::clone(&plan), cost));
        }
        Ok(Lookup {
            plan,
            cost,
            hit: false,
        })
    }

    /// A miss: `Always` / `Never` build their variant; `CostModel` builds
    /// the cached assignment, analyses it, and keeps it or drops it for the
    /// plain one.
    fn plan(
        &self,
        pkg: &DdPackage,
        m: MEdge,
        n: usize,
        t: usize,
    ) -> Result<(Plan, f64), FlatDdError> {
        let cached = || DmavCacheAssignment::try_build(pkg, m, n, t);
        let plain = || DmavAssignment::try_build(pkg, m, n, t).map(Plan::Plain);
        Ok(match self.caching {
            CachingPolicy::Never => (plain()?, 0.0),
            CachingPolicy::Always => (Plan::Cached(cached()?), 0.0),
            CachingPolicy::CostModel => {
                let cached = cached()?;
                // The MAC counts are keyed by node id and die with this
                // call, so no package sweep can outdate them.
                let mut mac = MacTable::default();
                let analysis = self
                    .model
                    .analyze_with_assignment(pkg, &mut mac, &cached, m, n, t);
                let plan = if analysis.prefer_cached() {
                    Plan::Cached(cached)
                } else {
                    plain()?
                };
                (plan, analysis.cost())
            }
        })
    }

    /// Drops all stored plans (memory-pressure relief).
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.bytes = 0;
    }

    /// Bytes currently charged to the memo.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.bytes
    }

    /// Stored plans.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dmav::dmav_no_cache;
    use crate::dmav_cache::{dmav_cached, PartialBuffers};
    use crate::pool::ThreadPool;
    use qcircuit::gate::{Gate, GateKind};
    use qcircuit::Complex64;

    const N: usize = 12;
    const T: usize = 4;

    fn memo(caching: CachingPolicy) -> PlanCache {
        PlanCache::new(caching, CostModel::default())
    }

    /// `plan` applied to a fixed state.
    fn apply(pkg: &DdPackage, plan: &Plan) -> Vec<Complex64> {
        let v: Vec<Complex64> = (0..1usize << N)
            .map(|i| Complex64::new(0.5 - (i % 7) as f64, (i % 5) as f64 / 3.0))
            .collect();
        let mut w = vec![Complex64::ZERO; v.len()];
        let pool = ThreadPool::new(2);
        match plan {
            Plan::Plain(asg) => dmav_no_cache(pkg, asg, &v, &mut w, &pool),
            Plan::Cached(asg) => {
                dmav_cached(pkg, asg, &v, &mut w, &pool, &mut PartialBuffers::default());
            }
        }
        w
    }

    #[test]
    fn a_hit_runs_what_a_fresh_plan_of_the_preferred_kind_runs() {
        // T on the top qubit repeats nothing (Algorithm 1); H there repeats
        // a full-size identity block per group (Algorithm 2).
        let pkg = DdPackage::default();
        let mut plans = memo(CachingPolicy::CostModel);
        for (kind, cached) in [(GateKind::T, false), (GateKind::H, true)] {
            let m = pkg.gate_dd(&Gate::new(kind, N - 1), N);
            let fresh = if cached {
                Plan::Cached(DmavCacheAssignment::try_build(&pkg, m, N, T).unwrap())
            } else {
                Plan::Plain(DmavAssignment::try_build(&pkg, m, N, T).unwrap())
            };
            let want = apply(&pkg, &fresh);
            let mut mac = MacTable::default();
            let analysis = CostModel::default().analyze(&pkg, &mut mac, m, N, T);
            assert_eq!(analysis.prefer_cached(), cached);
            for expect_hit in [false, true] {
                let looked = plans.lookup(&pkg, m, N, T).unwrap();
                assert_eq!(looked.hit, expect_hit);
                assert_eq!(matches!(*looked.plan, Plan::Cached(_)), cached);
                assert!(
                    apply(&pkg, &looked.plan) == want,
                    "bit-identical to the fresh plan"
                );
                assert_eq!(looked.cost, analysis.cost());
            }
        }
        assert_eq!(plans.len(), 2, "one plan per matrix");
    }

    #[test]
    fn forced_policies_build_their_variant_and_charge_no_modeled_cost() {
        let pkg = DdPackage::default();
        let m = pkg.gate_dd(&Gate::new(GateKind::H, N - 1), N);
        for (caching, cached) in [(CachingPolicy::Never, false), (CachingPolicy::Always, true)] {
            let looked = memo(caching).lookup(&pkg, m, N, T).unwrap();
            assert_eq!(matches!(*looked.plan, Plan::Cached(_)), cached);
            assert_eq!(looked.cost, 0.0);
        }
    }

    #[test]
    fn gc_epoch_cap_and_invalid_geometry_leave_nothing_stored() {
        let (mut pkg, mut plans) = (DdPackage::default(), memo(CachingPolicy::CostModel));
        let m = pkg.gate_dd(&Gate::new(GateKind::H, 0), N);
        let invalid = |plans: &mut PlanCache, pkg: &DdPackage| {
            let r = plans.lookup(pkg, m, N, 3);
            assert!(matches!(r, Err(FlatDdError::InvalidInput(_))));
        };
        invalid(&mut plans, &pkg);
        assert_eq!((plans.len(), plans.memory_bytes()), (0, 0));

        plans.lookup(&pkg, m, N, T).unwrap();
        let one_plan = plans.memory_bytes();
        assert!(one_plan > ENTRY_OVERHEAD);
        // GC recycles node ids: the next lookup, whatever it is for, finds
        // the memo filled under another epoch and drops it.
        pkg.gc(&[], &[m]);
        invalid(&mut plans, &pkg);
        assert_eq!((plans.len(), plans.memory_bytes()), (0, 0));
        assert!(!plans.lookup(&pkg, m, N, T).unwrap().hit);

        // Room for the plan held and half of another: the second insert
        // would go over the cap, so it runs unstored and the memo is empty.
        plans.cap = one_plan + one_plan / 2;
        let other = pkg.gate_dd(&Gate::new(GateKind::H, 1), N);
        assert!(!plans.lookup(&pkg, other, N, T).unwrap().hit);
        assert_eq!((plans.len(), plans.memory_bytes()), (0, 0));
        assert!(!plans.lookup(&pkg, m, N, T).unwrap().hit);
        assert_eq!(plans.memory_bytes(), one_plan, "refilled under the cap");
    }

    #[test]
    fn compiled_program_is_charged_to_the_memo() {
        // A fused product of entangling layers compiles to tens of general
        // nodes; a single-qubit gate to a handful of Kronecker ops. Same
        // geometry, same task count: the difference is the program.
        use qcircuit::gate::Control;
        let n = 6;
        let pkg = DdPackage::default();
        let gate = pkg.gate_dd(&Gate::new(GateKind::H, 2), n);
        let mut fused = pkg.identity_dd(n);
        for layer in 0..2 {
            for q in 0..n {
                let ry = Gate::new(GateKind::RY(0.3 + q as f64 + 0.5 * layer as f64), q);
                let cx = Gate::controlled(GateKind::X, (q + 1) % n, vec![Control::pos(q)]);
                for g in [ry, cx] {
                    fused = pkg.mul_mm(pkg.gate_dd(&g, n), fused);
                }
            }
        }
        assert!(pkg.matrix_dd_size(fused) >= 40);
        for caching in [CachingPolicy::Never, CachingPolicy::Always] {
            let mut plans = memo(caching);
            let mut held = |m| {
                let before = plans.memory_bytes();
                let (tasks, bytes) = match &*plans.lookup(&pkg, m, n, 1).unwrap().plan {
                    Plan::Plain(asg) => (asg.total_tasks(), asg.memory_bytes()),
                    Plan::Cached(asg) => (asg.total_tasks(), asg.memory_bytes()),
                };
                assert_eq!(plans.memory_bytes() - before, bytes + ENTRY_OVERHEAD);
                (tasks, bytes)
            };
            let ((small_tasks, small), (big_tasks, big)) = (held(gate), held(fused));
            assert_eq!(small_tasks, big_tasks);
            assert!(big > small);
        }
    }
}
