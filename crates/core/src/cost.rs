//! The DMAV computational cost model (Section 3.2.3, Equations 5 and 6).
//!
//! Costs are modeled in MAC operations per thread. For a DMAV without
//! caching with `K1` total MACs: `C1 = K1 / t` (Eq. 5). For a DMAV with
//! caching: `C2 = K2/t + 2^n/(d*t) * (H/t + b)` (Eq. 6), where `K2` counts
//! the MACs of *unique* border-level tasks, `H` the cache hits (repeated
//! tasks answered by a scalar multiplication of size `2^n/t`), `b` the
//! number of partial-output buffers to sum, and `d` the SIMD width.
//!
//! FlatDD picks caching per gate by evaluating both equations and choosing
//! the minimum.
//!
//! Fusion prices a matrix by the geometry its DMAV will run at
//! ([`CostModel::walk_cost`]): the flat phase runs every matrix in place,
//! on the widest group count where it has an in-place form, and a matrix
//! with none cannot run at all. This is a deviation from the paper, which
//! prices every DMAV by `C1` at `t` (DESIGN.md §2).

use crate::dmav::in_place_groups;
use crate::dmav_cache::DmavCacheAssignment;
use qdd::{DdPackage, MEdge, MacTable};

/// Tunables of the cost model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// SIMD width `d`: data elements processed per vector instruction
    /// (the paper uses AVX2, d = 4 for f64).
    pub simd_width: usize,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel { simd_width: 4 }
    }
}

/// The outcome of analyzing one gate matrix.
#[derive(Clone, Copy, Debug)]
pub struct CostAnalysis {
    /// Total MAC operations (`K1`).
    pub k1: u64,
    /// MAC operations of unique tasks only (`K2`).
    pub k2: u64,
    /// Cache hits the cached assignment would produce (`H`).
    pub hits: u64,
    /// Partial-output buffers (`b`).
    pub buffers: usize,
    /// Modeled cost without caching (Eq. 5).
    pub c1: f64,
    /// Modeled cost with caching (Eq. 6).
    pub c2: f64,
}

impl CostAnalysis {
    /// True when the model prefers the cached kernel.
    pub fn prefer_cached(&self) -> bool {
        self.c2 < self.c1
    }

    /// `min(C1, C2)` — the cost FlatDD charges this DMAV (Section 3.2.3).
    pub fn cost(&self) -> f64 {
        self.c1.min(self.c2)
    }
}

impl CostModel {
    /// Eq. 5 only: the no-cache cost for a given MAC count.
    pub fn cost_no_cache(&self, k1: u64, t: usize) -> f64 {
        k1 as f64 / t as f64
    }

    /// The price fusion charges a DMAV of `m` over `n` qubits in `t` groups:
    /// Eq. 5's `K1 / t'` at the widest `t'` of `t, t/2, ..., 1` whose
    /// assignment runs in place ([`crate::DmavAssignment::in_place`]), the
    /// geometry the flat phase's plan narrows to; infinite when there is
    /// none, so fusion never builds a product the flat phase cannot run.
    pub fn walk_cost(
        &self,
        pkg: &DdPackage,
        mac: &mut MacTable,
        m: MEdge,
        n: usize,
        t: usize,
    ) -> f64 {
        match in_place_groups(pkg, m, n, t) {
            Some(groups) => self.cost_no_cache(mac.count(pkg, m), groups),
            None => f64::INFINITY,
        }
    }

    /// Eq. 6 only.
    pub fn cost_cached(&self, k2: u64, hits: u64, buffers: usize, n: usize, t: usize) -> f64 {
        let d = self.simd_width as f64;
        let t_f = t as f64;
        let dim = (1u64 << n) as f64;
        k2 as f64 / t_f + dim / (d * t_f) * (hits as f64 / t_f + buffers as f64)
    }

    /// Analyzes matrix `m` for a `t`-thread DMAV over `n` qubits, using a
    /// prebuilt cached assignment (so the caller can reuse it for the actual
    /// multiplication).
    pub fn analyze_with_assignment(
        &self,
        pkg: &DdPackage,
        mac: &mut MacTable,
        asg: &DmavCacheAssignment,
        m: MEdge,
        n: usize,
        t: usize,
    ) -> CostAnalysis {
        let k1 = mac.count(pkg, m);
        // K2: MACs of unique border-level tasks; H: repeated tasks.
        let (mut k2, mut unique) = (0u64, 0u64);
        for e in asg.unique_tasks() {
            k2 += mac.count(pkg, e);
            unique += 1;
        }
        let hits = asg.total_tasks() as u64 - unique;
        let c1 = self.cost_no_cache(k1, t);
        let c2 = self.cost_cached(k2, hits, asg.num_buffers, n, t);
        CostAnalysis {
            k1,
            k2,
            hits,
            buffers: asg.num_buffers,
            c1,
            c2,
        }
    }

    /// Analyzes matrix `m`, building a throwaway cached assignment.
    pub fn analyze(
        &self,
        pkg: &DdPackage,
        mac: &mut MacTable,
        m: MEdge,
        n: usize,
        t: usize,
    ) -> CostAnalysis {
        let asg = DmavCacheAssignment::build(pkg, m, n, t);
        self.analyze_with_assignment(pkg, mac, &asg, m, n, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::gate::{Control, Gate, GateKind};

    #[test]
    fn equation_5_shape() {
        let cm = CostModel::default();
        assert_eq!(cm.cost_no_cache(512, 1), 512.0);
        assert_eq!(cm.cost_no_cache(512, 4), 128.0);
    }

    #[test]
    fn equation_6_shape() {
        let cm = CostModel { simd_width: 4 };
        // K2=100, H=8, b=2, n=10, t=4:
        // 100/4 + 1024/(4*4) * (8/4 + 2) = 25 + 64*4 = 281
        let c2 = cm.cost_cached(100, 8, 2, 10, 4);
        assert!((c2 - 281.0).abs() < 1e-9);
    }

    #[test]
    fn hadamard_k1_matches_figure_8() {
        let pkg = DdPackage::default();
        let mut mac = MacTable::default();
        let m = pkg.gate_dd(&Gate::new(GateKind::H, 2), 3);
        let a = CostModel::default().analyze(&pkg, &mut mac, m, 3, 2);
        assert_eq!(a.k1, 16, "Figure 8 counts 16 MACs for this DMAV");
        assert_eq!(a.c1, 8.0);
    }

    #[test]
    fn k2_plus_hit_macs_equals_k1() {
        // Every hit task's MACs are exactly the unique task's MACs (same
        // node), so K1 = K2 + sum over hit tasks of their (shared) counts.
        // For H (x) I over n qubits with t threads each repeated task has
        // the same count; verify the arithmetic identity on an example.
        let pkg = DdPackage::default();
        let mut mac = MacTable::default();
        let n = 6;
        let m = pkg.gate_dd(&Gate::new(GateKind::H, 5), n);
        let a = CostModel::default().analyze(&pkg, &mut mac, m, n, 2);
        // Thread layout: 2 threads x 2 tasks on the same identity node.
        assert_eq!(a.hits, 2);
        assert_eq!(a.k2 + a.hits * (a.k2 / 2), a.k1);
    }

    #[test]
    fn caching_preferred_for_repetitive_dense_gates() {
        // H on the top qubit repeats a full-size identity block per thread:
        // a textbook cache win at reasonable sizes.
        let pkg = DdPackage::default();
        let mut mac = MacTable::default();
        let n = 12;
        let m = pkg.gate_dd(&Gate::new(GateKind::H, n - 1), n);
        let a = CostModel::default().analyze(&pkg, &mut mac, m, n, 4);
        assert!(
            a.prefer_cached(),
            "expected caching to win: C1={}, C2={}",
            a.c1,
            a.c2
        );
        assert!(a.cost() <= a.c1);
    }

    #[test]
    fn caching_not_preferred_without_repetition() {
        // A diagonal gate: one task per thread, no repeats — caching only
        // adds the buffer-summation cost.
        let pkg = DdPackage::default();
        let mut mac = MacTable::default();
        let n = 10;
        let m = pkg.gate_dd(&Gate::new(GateKind::T, n - 1), n);
        let a = CostModel::default().analyze(&pkg, &mut mac, m, n, 4);
        assert_eq!(a.hits, 0);
        assert!(!a.prefer_cached(), "C1={} C2={}", a.c1, a.c2);
    }

    #[test]
    fn the_walk_price_is_eq_5_at_the_widest_in_place_geometry() {
        // H on qubit 2 runs in place at two groups; H on the top qubit
        // crosses the border there and runs in place on one group; the
        // product of two H's on neighbouring qubits is a dense block with
        // no in-place form at any group count.
        use qdd::mac_count;
        let (pkg, cm) = (DdPackage::default(), CostModel::default());
        let mut mac = MacTable::default();
        let n = 6;
        let h = |q| pkg.gate_dd(&Gate::new(GateKind::H, q), n);
        let eq5 = |m, t| cm.cost_no_cache(mac_count(&pkg, m), t);
        for (m, groups) in [(h(2), 2), (h(n - 1), 1)] {
            assert_eq!(cm.walk_cost(&pkg, &mut mac, m, n, 2), eq5(m, groups));
        }
        let product = pkg.mul_mm(h(2), h(3));
        for t in [1, 2, 4] {
            assert_eq!(cm.walk_cost(&pkg, &mut mac, product, n, t), f64::INFINITY);
        }
    }

    #[test]
    fn controlled_gates_have_smaller_k1_than_dense() {
        let pkg = DdPackage::default();
        let mut mac = MacTable::default();
        let n = 8;
        let dense_g = pkg.gate_dd(&Gate::new(GateKind::H, 3), n);
        let ctrl_g = pkg.gate_dd(&Gate::controlled(GateKind::X, 3, vec![Control::pos(6)]), n);
        let cm = CostModel::default();
        let a_dense = cm.analyze(&pkg, &mut mac, dense_g, n, 2);
        let a_ctrl = cm.analyze(&pkg, &mut mac, ctrl_g, n, 2);
        assert!(a_ctrl.k1 < a_dense.k1);
    }
}
