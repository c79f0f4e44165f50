//! Memoization of DMAV assignments (the "plan cache").
//!
//! `Assign` / `AssignCache` (Algorithms 1-2) walk the gate-matrix DD down to
//! the border level for **every** gate application, yet deep circuits apply
//! the same small set of gate matrices thousands of times — and DDs are
//! canonical, so a repeated gate produces the *identical* root edge. This
//! cache keys the finished task lists by `(root node id, root weight, n, t)`
//! and hands out shared [`Arc`]s, so repeated gates skip the recursive
//! descent entirely.
//!
//! Node ids are recycled by [`DdPackage::gc`], which makes a stale plan
//! silently wrong rather than just slow. Every lookup therefore compares the
//! package's [`DdPackage::gc_epoch`] against the epoch the cache was filled
//! under and drops everything on a mismatch. Held bytes are reported via
//! [`PlanCache::memory_bytes`] so the resource governor charges them like
//! any other cache, and the LRU budget keeps pathological circuits (many
//! distinct fused matrices) from hoarding memory.

use crate::dmav::DmavAssignment;
use crate::dmav_cache::DmavCacheAssignment;
use crate::error::FlatDdError;
use qdd::fxhash::FxHashMap;
use qdd::{DdPackage, MEdge};
use std::sync::Arc;

/// Identity of a DMAV plan: the matrix root edge (node id + interned
/// weight — canonical DDs make this a complete identity) plus the geometry
/// the assignment was built for.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct PlanKey {
    node: u32,
    weight: qdd::CIdx,
    n: u32,
    t: u32,
}

impl PlanKey {
    fn new(m: MEdge, n: usize, t: usize) -> Self {
        PlanKey {
            node: m.n,
            weight: m.w,
            n: n as u32,
            t: t as u32,
        }
    }
}

/// Fixed per-entry overhead charged on top of the assignments' own heap
/// bytes (key, map slot, `Arc` control blocks).
const ENTRY_OVERHEAD: usize = 128;

struct Entry {
    plain: Option<Arc<DmavAssignment>>,
    cached: Option<Arc<DmavCacheAssignment>>,
    last_used: u64,
    bytes: usize,
}

/// LRU cache of [`DmavAssignment`] / [`DmavCacheAssignment`] values keyed
/// by matrix root edge, invalidated wholesale on DD garbage collection.
pub struct PlanCache {
    map: FxHashMap<PlanKey, Entry>,
    /// GC epoch the current contents were built under.
    epoch: u64,
    /// Logical LRU clock (bumped per lookup).
    clock: u64,
    budget_bytes: usize,
    bytes: usize,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    /// Creates a cache holding at most `budget_bytes` of plan data.
    /// A budget of 0 disables storage: every lookup builds a fresh plan and
    /// counts as a miss.
    pub fn new(budget_bytes: usize) -> Self {
        PlanCache {
            map: FxHashMap::default(),
            epoch: 0,
            clock: 0,
            budget_bytes,
            bytes: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Returns the row-space assignment for `(m, n, t)`, building and
    /// memoizing it on a miss.
    pub fn get_plain(
        &mut self,
        pkg: &DdPackage,
        m: MEdge,
        n: usize,
        t: usize,
    ) -> Result<Arc<DmavAssignment>, FlatDdError> {
        self.sync_epoch(pkg.gc_epoch());
        self.clock += 1;
        let key = PlanKey::new(m, n, t);
        if let Some(e) = self.map.get_mut(&key) {
            if let Some(p) = &e.plain {
                e.last_used = self.clock;
                self.hits += 1;
                return Ok(Arc::clone(p));
            }
        }
        self.misses += 1;
        let asg = Arc::new(DmavAssignment::try_build(pkg, m, n, t)?);
        let cost = asg.memory_bytes();
        self.store(key, cost, |e| e.plain = Some(Arc::clone(&asg)));
        Ok(asg)
    }

    /// Returns the column-space (caching) assignment for `(m, n, t)`,
    /// building and memoizing it on a miss.
    pub fn get_cached(
        &mut self,
        pkg: &DdPackage,
        m: MEdge,
        n: usize,
        t: usize,
    ) -> Result<Arc<DmavCacheAssignment>, FlatDdError> {
        self.sync_epoch(pkg.gc_epoch());
        self.clock += 1;
        let key = PlanKey::new(m, n, t);
        if let Some(e) = self.map.get_mut(&key) {
            if let Some(p) = &e.cached {
                e.last_used = self.clock;
                self.hits += 1;
                return Ok(Arc::clone(p));
            }
        }
        self.misses += 1;
        let asg = Arc::new(DmavCacheAssignment::try_build(pkg, m, n, t)?);
        let cost = asg.memory_bytes();
        self.store(key, cost, |e| e.cached = Some(Arc::clone(&asg)));
        Ok(asg)
    }

    /// Drops every stored plan when the package's GC epoch moved (node ids
    /// may have been recycled). Hit/miss counters survive.
    fn sync_epoch(&mut self, epoch: u64) {
        if epoch != self.epoch {
            self.map.clear();
            self.bytes = 0;
            self.epoch = epoch;
        }
    }

    fn store(&mut self, key: PlanKey, cost: usize, fill: impl FnOnce(&mut Entry)) {
        if self.budget_bytes == 0 {
            return;
        }
        let clock = self.clock;
        let e = self.map.entry(key).or_insert(Entry {
            plain: None,
            cached: None,
            last_used: clock,
            bytes: ENTRY_OVERHEAD,
        });
        if e.bytes == ENTRY_OVERHEAD && e.plain.is_none() && e.cached.is_none() {
            self.bytes += ENTRY_OVERHEAD;
        }
        fill(e);
        e.bytes += cost;
        e.last_used = clock;
        self.bytes += cost;
        self.evict_over_budget();
    }

    /// Evicts least-recently-used entries until the budget holds. May evict
    /// the entry just stored if it alone exceeds the budget (oversized plans
    /// are simply never cached).
    fn evict_over_budget(&mut self) {
        while self.bytes > self.budget_bytes && !self.map.is_empty() {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k)
                .expect("map is non-empty");
            if let Some(e) = self.map.remove(&victim) {
                self.bytes = self.bytes.saturating_sub(e.bytes);
            }
        }
    }

    /// Drops all stored plans (memory-pressure relief). Counters survive.
    pub fn clear(&mut self) {
        self.map.clear();
        self.bytes = 0;
    }

    /// Bytes currently charged to the cache.
    pub fn memory_bytes(&self) -> usize {
        self.bytes
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that built a fresh plan.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Stored plans.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no plans are stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dmav::dmav_no_cache;
    use crate::pool::ThreadPool;
    use qcircuit::complex::state_distance;
    use qcircuit::gate::{Control, Gate, GateKind};
    use qcircuit::{dense, Complex64};

    fn pkg_with_gate(n: usize) -> (DdPackage, MEdge) {
        let pkg = DdPackage::default();
        let m = pkg.gate_dd(&Gate::new(GateKind::H, 0), n);
        (pkg, m)
    }

    #[test]
    fn repeated_lookups_hit() {
        let (pkg, m) = pkg_with_gate(5);
        let mut cache = PlanCache::new(1 << 20);
        let a = cache.get_plain(&pkg, m, 5, 2).unwrap();
        let b = cache.get_plain(&pkg, m, 5, 2).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hit must return the same plan");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // The cached-variant plan is a separate slot under the same key.
        cache.get_cached(&pkg, m, 5, 2).unwrap();
        let c = cache.get_cached(&pkg, m, 5, 2).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
        assert!(c.total_tasks() > 0);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn gc_epoch_bump_invalidates() {
        let (mut pkg, m) = pkg_with_gate(5);
        let mut cache = PlanCache::new(1 << 20);
        cache.get_plain(&pkg, m, 5, 2).unwrap();
        assert_eq!(cache.len(), 1);
        // GC recycles node ids: the cache must drop everything.
        pkg.gc(&[], &[m]);
        cache.get_plain(&pkg, m, 5, 2).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert_eq!(cache.len(), 1, "refilled under the new epoch");
    }

    #[test]
    fn zero_budget_disables_storage() {
        let (pkg, m) = pkg_with_gate(5);
        let mut cache = PlanCache::new(0);
        cache.get_plain(&pkg, m, 5, 2).unwrap();
        let plan = cache.get_plain(&pkg, m, 5, 2).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert!(cache.is_empty());
        assert_eq!(cache.memory_bytes(), 0);
        // The unstored plan is complete: it runs.
        let v = vec![Complex64::ONE; 32];
        let mut w = vec![Complex64::ZERO; 32];
        dmav_no_cache(&pkg, &plan, &v, &mut w, &ThreadPool::new(1));
        let mut want = v.clone();
        dense::apply_gate(&mut want, &Gate::new(GateKind::H, 0));
        assert!(state_distance(&w, &want) < 1e-12);
    }

    #[test]
    fn compiled_program_is_charged_to_the_budget() {
        // A fused product of entangling layers compiles to tens of general
        // nodes; a single-qubit gate to a handful of Kronecker ops. Same
        // geometry, same task count: the difference is the program.
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
        let mut cache = PlanCache::new(1 << 20);
        let (small_p, big_p) = (
            cache.get_plain(&pkg, gate, n, 1).unwrap(),
            cache.get_plain(&pkg, fused, n, 1).unwrap(),
        );
        assert_eq!(small_p.total_tasks(), big_p.total_tasks());
        assert!(big_p.memory_bytes() > small_p.memory_bytes());
        let (small_c, big_c) = (
            cache.get_cached(&pkg, gate, n, 1).unwrap(),
            cache.get_cached(&pkg, fused, n, 1).unwrap(),
        );
        assert!(big_c.memory_bytes() > small_c.memory_bytes());
        let charged = small_p.memory_bytes()
            + big_p.memory_bytes()
            + small_c.memory_bytes()
            + big_c.memory_bytes()
            + 2 * ENTRY_OVERHEAD;
        assert_eq!(cache.memory_bytes(), charged);
    }

    #[test]
    fn lru_eviction_respects_budget() {
        let pkg = DdPackage::default();
        let gates: Vec<MEdge> = (0..4)
            .map(|q| pkg.gate_dd(&Gate::new(GateKind::H, q), 6))
            .collect();
        let mut cache = PlanCache::new(1 << 20);
        let one_plan = {
            let a = cache.get_plain(&pkg, gates[0], 6, 2).unwrap();
            a.memory_bytes() + ENTRY_OVERHEAD
        };
        // Budget for about two plans.
        let mut cache = PlanCache::new(2 * one_plan + ENTRY_OVERHEAD);
        for &g in &gates {
            cache.get_plain(&pkg, g, 6, 2).unwrap();
        }
        assert!(cache.memory_bytes() <= 2 * one_plan + ENTRY_OVERHEAD);
        assert!(cache.len() < gates.len(), "older plans must be evicted");
        // The most recent plan survives.
        cache.get_plain(&pkg, gates[3], 6, 2).unwrap();
        assert_eq!(cache.misses(), 4, "last plan answered from cache");
    }

    #[test]
    fn invalid_geometry_propagates_error() {
        let (pkg, m) = pkg_with_gate(5);
        let mut cache = PlanCache::new(1 << 20);
        assert!(matches!(
            cache.get_plain(&pkg, m, 5, 3),
            Err(FlatDdError::InvalidInput(_))
        ));
        assert!(cache.is_empty());
    }
}
