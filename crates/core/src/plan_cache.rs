//! Memo of DMAV plans.
//!
//! The task lists and compiled program Algorithm 1 runs for a gate matrix
//! are properties of the *matrix DD*, and DDs are canonical: a repeated gate
//! produces the identical root edge. The memo keeps, per `(root edge, n,
//! shards)`, the assignment and the Eq. 5 cost `K1 / t` it charges, so a
//! repeat is one lookup: no descent, no compile, no MAC count. (The engine
//! runs Algorithm 1 only; Algorithm 2 is the standalone
//! [`crate::dmav_cache`] kernel, DESIGN.md §2.)
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
use crate::error::FlatDdError;
use qdd::fxhash::FxHashMap;
use qdd::{mac_count, DdPackage, MEdge};
use std::sync::Arc;

/// Bytes of plans the memo holds at most. The spine's workloads end their
/// runs holding under 0.12 MiB (EXPERIMENTS.md, "What the plan layer
/// serves"); the cap only bounds circuits of many distinct fused matrices.
const CAP_BYTES: usize = 32 << 20;

/// Fixed per-entry overhead charged on top of the assignment's own heap
/// bytes (key, map slot, the assignment's inline part).
const ENTRY_OVERHEAD: usize = 128;

/// What one lookup hands back.
pub(crate) struct Lookup {
    /// The assignment, shared with the memo: a run of matrices holds
    /// several at once, and one the memo dropped (past its cap) lives as
    /// long as that.
    pub(crate) plan: Arc<DmavAssignment>,
    /// What one application adds to `FlatDdStats::modeled_cost`: Eq. 5's
    /// `K1 / t`.
    pub(crate) cost: f64,
    /// The memo answered; a miss planned.
    pub(crate) hit: bool,
}

/// Memo of the assignment per gate matrix, invalidated wholesale on DD
/// garbage collection.
pub(crate) struct PlanCache {
    /// Per matrix root edge (node id + interned weight — canonical DDs make
    /// this a complete identity), qubit count and group count: the
    /// assignment and its modeled cost per application.
    map: FxHashMap<(MEdge, usize, usize), (Arc<DmavAssignment>, f64)>,
    /// GC epoch the current contents were built under.
    epoch: u64,
    bytes: usize,
    cap: usize,
}

impl PlanCache {
    /// An empty memo.
    pub(crate) fn new() -> Self {
        PlanCache {
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
        let plan = Arc::new(DmavAssignment::try_build(pkg, m, n, t)?);
        let cost = CostModel::default().cost_no_cache(mac_count(pkg, m), t);
        let bytes = ENTRY_OVERHEAD + plan.memory_bytes();
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
    use crate::pool::ThreadPool;
    use qcircuit::gate::{Gate, GateKind};
    use qcircuit::Complex64;

    const N: usize = 12;
    const T: usize = 4;

    /// `plan` applied to a fixed state.
    fn apply(plan: &DmavAssignment) -> Vec<Complex64> {
        let v: Vec<Complex64> = (0..1usize << N)
            .map(|i| Complex64::new(0.5 - (i % 7) as f64, (i % 5) as f64 / 3.0))
            .collect();
        let mut w = vec![Complex64::ZERO; v.len()];
        dmav_no_cache(&DdPackage::default(), plan, &v, &mut w, &ThreadPool::new(2));
        w
    }

    #[test]
    fn a_hit_runs_what_a_fresh_plan_runs_and_charges_eq_5() {
        // T on the top qubit repeats nothing; H there repeats a full-size
        // identity block per group (where Eq. 6 would pick Algorithm 2).
        // Both get the Algorithm 1 assignment and `K1 / t`.
        let pkg = DdPackage::default();
        let mut plans = PlanCache::new();
        for kind in [GateKind::T, GateKind::H] {
            let m = pkg.gate_dd(&Gate::new(kind, N - 1), N);
            let want = apply(&DmavAssignment::try_build(&pkg, m, N, T).unwrap());
            let k1_per_group = mac_count(&pkg, m) as f64 / T as f64;
            for expect_hit in [false, true] {
                let looked = plans.lookup(&pkg, m, N, T).unwrap();
                assert_eq!(looked.hit, expect_hit);
                assert!(
                    apply(&looked.plan) == want,
                    "bit-identical to the fresh plan"
                );
                assert_eq!(looked.cost, k1_per_group);
            }
        }
        assert_eq!(plans.len(), 2, "one plan per matrix");
    }

    #[test]
    fn gc_epoch_cap_and_invalid_geometry_leave_nothing_stored() {
        let (mut pkg, mut plans) = (DdPackage::default(), PlanCache::new());
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
        let mut plans = PlanCache::new();
        let mut held = |m| {
            let before = plans.memory_bytes();
            let plan = plans.lookup(&pkg, m, n, 1).unwrap().plan;
            assert_eq!(
                plans.memory_bytes() - before,
                plan.memory_bytes() + ENTRY_OVERHEAD
            );
            (plan.total_tasks(), plan.memory_bytes())
        };
        let ((small_tasks, small), (big_tasks, big)) = (held(gate), held(fused));
        assert_eq!(small_tasks, big_tasks);
        assert!(big > small);
    }
}
