//! MAC-operation counting over matrix DDs (Section 3.2.3, Figure 8).
//!
//! The number of multiply-accumulate operations a DMAV with this gate matrix
//! performs is computed by a memoized DFS: the terminal counts one MAC and
//! every node counts the sum over its *non-zero* outgoing edges of its
//! children's counts. Identical nodes share their count through the look-up
//! table `T`.

use crate::fxhash::FxHashMap;
use crate::node::MEdge;
use crate::package::DdPackage;

/// Memoized MAC-count table (the paper's `T`).
#[derive(Default)]
pub struct MacTable {
    memo: FxHashMap<u32, u64>,
}

impl MacTable {
    /// Clears all memoized counts (required after a package GC, since node
    /// ids may be recycled).
    pub fn clear(&mut self) {
        self.memo.clear();
    }

    /// Number of memoized nodes.
    pub fn len(&self) -> usize {
        self.memo.len()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.memo.is_empty()
    }

    /// MAC count of the sub-DD behind `edge` (0 for a zero edge).
    pub fn count(&mut self, pkg: &DdPackage, edge: MEdge) -> u64 {
        if edge.is_zero() {
            return 0;
        }
        self.count_node(pkg, edge.n)
    }

    fn count_node(&mut self, pkg: &DdPackage, n: u32) -> u64 {
        if n == crate::node::TERM {
            return 1;
        }
        if let Some(&c) = self.memo.get(&n) {
            return c;
        }
        let node = pkg.m_node(n);
        let mut total = 0u64;
        for e in node.e {
            if !e.is_zero() {
                total += self.count_node(pkg, e.n);
            }
        }
        self.memo.insert(n, total);
        total
    }
}

/// One-shot MAC count of a matrix DD (allocates a fresh memo table).
pub fn mac_count(pkg: &DdPackage, edge: MEdge) -> u64 {
    MacTable::default().count(pkg, edge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::gate::{Control, Gate, GateKind};
    use qcircuit::Complex64;

    /// Brute-force MAC count: number of non-zero matrix entries (each
    /// non-zero `M[i][j]` contributes exactly one `W[i] += M[i][j]*V[j]`).
    fn brute_force(pkg: &DdPackage, e: MEdge, n: usize) -> u64 {
        let dim = 1usize << n;
        let mut count = 0;
        for r in 0..dim {
            for c in 0..dim {
                if !pkg.matrix_entry(e, r, c).approx_zero(1e-12) {
                    count += 1;
                }
            }
        }
        count
    }

    #[test]
    fn identity_has_2n_macs() {
        let p = DdPackage::default();
        for n in 1..=5usize {
            let e = p.identity_dd(n);
            assert_eq!(mac_count(&p, e), 1u64 << n, "n={n}");
        }
    }

    #[test]
    fn hadamard_counts_match_figure_8_style() {
        let p = DdPackage::default();
        // H on one qubit of 3: the H level is dense (4 entries), others
        // diagonal: total = 4 * 2 * 2 = 16 — exactly Figure 8's T(m1)=16.
        let g = Gate::new(GateKind::H, 2);
        let e = p.gate_dd(&g, 3);
        assert_eq!(mac_count(&p, e), 16);
    }

    #[test]
    fn counts_equal_nonzero_entries() {
        let p = DdPackage::default();
        let n = 4;
        let gates = vec![
            Gate::new(GateKind::H, 1),
            Gate::new(GateKind::T, 0),
            Gate::controlled(GateKind::X, 2, vec![Control::pos(0)]),
            Gate::controlled(GateKind::H, 3, vec![Control::pos(1)]),
            Gate::controlled(GateKind::X, 0, vec![Control::pos(1), Control::pos(3)]),
            Gate::new(GateKind::SqrtX, 3),
        ];
        for g in gates {
            let e = p.gate_dd(&g, n);
            assert_eq!(mac_count(&p, e), brute_force(&p, e, n), "gate {g}");
        }
    }

    #[test]
    fn fused_matrix_count_matches_brute_force() {
        let p = DdPackage::default();
        let n = 3;
        let g1 = Gate::new(GateKind::H, 0);
        let g2 = Gate::controlled(GateKind::X, 1, vec![Control::pos(0)]);
        let e1 = p.gate_dd(&g1, n);
        let e2 = p.gate_dd(&g2, n);
        let fused = p.mul_mm(e2, e1);
        assert_eq!(mac_count(&p, fused), brute_force(&p, fused, n));
    }

    #[test]
    fn zero_edge_counts_zero() {
        let p = DdPackage::default();
        assert_eq!(mac_count(&p, MEdge::ZERO), 0);
    }

    #[test]
    fn table_is_reusable_across_gates() {
        let p = DdPackage::default();
        let mut t = MacTable::default();
        let e1 = p.gate_dd(&Gate::new(GateKind::H, 0), 3);
        let e2 = p.gate_dd(&Gate::new(GateKind::H, 1), 3);
        let c1 = t.count(&p, e1);
        let c2 = t.count(&p, e2);
        assert_eq!(c1, 16);
        assert_eq!(c2, 16);
        assert!(!t.is_empty());
        t.clear();
        assert!(t.is_empty());
        let _ = Complex64::ZERO;
    }
}
