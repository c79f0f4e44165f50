//! Memo of DMAV plans.
//!
//! The task lists and compiled program Algorithm 1 runs for a gate matrix
//! are properties of the *matrix DD*, and DDs are canonical: a repeated gate
//! produces the identical root edge. The memo keeps, per `(root edge, n,
//! shards)`, the plan the flat phase runs — the assignment at the widest of
//! `shards, shards/2, ..., 1` groups that runs in place, so the state is the
//! only vector — and the Eq. 5 cost `K1 / t` it charges at those `t`
//! groups, so a repeat is one lookup: no descent, no compile, no MAC count.
//! (The engine runs Algorithm 1 only; Algorithm 2 is the standalone
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
use crate::dmav::{narrowing, DmavAssignment};
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
    /// The assignment, in place, shared with the memo: a run of matrices
    /// holds several at once, and one the memo dropped (past its cap) lives
    /// as long as that. Its `t` is the group count it narrowed to.
    pub(crate) plan: Arc<DmavAssignment>,
    /// What one application adds to `FlatDdStats::modeled_cost`: Eq. 5's
    /// `K1 / t` at the plan's `t`.
    pub(crate) cost: f64,
    /// The memo answered; a miss planned.
    pub(crate) hit: bool,
}

/// Memo of the assignment per gate matrix, invalidated wholesale on DD
/// garbage collection.
pub(crate) struct PlanCache {
    /// Per matrix root edge (node id + interned weight — canonical DDs make
    /// this a complete identity), qubit count and requested group count:
    /// the in-place assignment and its modeled cost per application.
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

    /// The plan for `(m, n, t)`, planned and memoized on a miss: the first
    /// assignment at `t, t/2, ..., 1` groups that is
    /// [`DmavAssignment::in_place`] (at one group every single gate's is).
    /// A geometry no plan exists for, or a matrix with no in-place form, is
    /// [`FlatDdError::InvalidInput`], and nothing is stored.
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
        let mut planned = None;
        for g in narrowing(t) {
            let plan = DmavAssignment::try_build(pkg, m, n, g)?;
            if plan.in_place() {
                planned = Some(plan);
                break;
            }
        }
        let plan = Arc::new(planned.ok_or_else(|| {
            FlatDdError::InvalidInput("a DMAV matrix has no in-place form".into())
        })?);
        let cost = CostModel::default().cost_no_cache(mac_count(pkg, m), plan.t);
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
    use crate::dmav::dmav_in_place;
    use crate::pool::ThreadPool;
    use qcircuit::gate::{Gate, GateKind};
    use qcircuit::Complex64;

    const N: usize = 12;
    const T: usize = 4;

    /// `plan` applied in place to a fixed state.
    fn apply(plan: &DmavAssignment) -> Vec<Complex64> {
        let mut v: Vec<Complex64> = (0..1usize << N)
            .map(|i| Complex64::new(0.5 - (i % 7) as f64, (i % 5) as f64 / 3.0))
            .collect();
        dmav_in_place(plan, &mut v, &ThreadPool::new(2));
        v
    }

    #[test]
    fn a_hit_runs_what_a_fresh_plan_runs_and_charges_eq_5() {
        // T on the top qubit is diagonal and runs in place at T groups; H
        // there crosses the shard border, so its plan narrows to the one
        // group where it runs in place. Both charge `K1 / t` at the groups
        // they run on.
        let pkg = DdPackage::default();
        let mut plans = PlanCache::new();
        for (kind, groups) in [(GateKind::T, T), (GateKind::H, 1)] {
            let m = pkg.gate_dd(&Gate::new(kind, N - 1), N);
            assert_eq!(DmavAssignment::build(&pkg, m, N, T).in_place(), groups == T);
            let want = apply(&DmavAssignment::build(&pkg, m, N, groups));
            let k1_per_group = mac_count(&pkg, m) as f64 / groups as f64;
            for expect_hit in [false, true] {
                let looked = plans.lookup(&pkg, m, N, T).unwrap();
                assert_eq!(looked.hit, expect_hit);
                assert_eq!(looked.plan.t, groups, "{kind:?}");
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
        // A fused diagonal of ZZ rotations on every pair compiles to tens
        // of general nodes; a single-qubit gate to a handful of Kronecker
        // ops. Same geometry, same task count: the difference is the
        // program.
        use qcircuit::gate::Control;
        let n = 6;
        let pkg = DdPackage::default();
        let gate = pkg.gate_dd(&Gate::new(GateKind::H, 2), n);
        let mut fused = pkg.identity_dd(n);
        for q in 0..n {
            for r in q + 1..n {
                let cx = Gate::controlled(GateKind::X, r, vec![Control::pos(q)]);
                let rz = Gate::new(GateKind::RZ(0.3 + q as f64 + 0.7 * r as f64), r);
                for g in [&cx, &rz, &cx] {
                    fused = pkg.mul_mm(pkg.gate_dd(g, n), fused);
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

    #[test]
    fn a_matrix_with_no_in_place_form_is_refused_and_not_stored() {
        // H (x) H on two neighbouring qubits is a dense 4x4 block: no group
        // count runs it in place.
        let pkg = DdPackage::default();
        let h = |q| pkg.gate_dd(&Gate::new(GateKind::H, q), N);
        let mut plans = PlanCache::new();
        let r = plans.lookup(&pkg, pkg.mul_mm(h(2), h(3)), N, T);
        assert!(matches!(r, Err(FlatDdError::InvalidInput(_))));
        assert_eq!((plans.len(), plans.memory_bytes()), (0, 0));
    }
}
