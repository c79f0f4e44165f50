//! DD state approximation (Zulehner, Hillmich, Markov, Wille — "Approximation
//! of quantum states using decision diagrams" \[97\], one of the DD
//! applications the FlatDD paper cites).
//!
//! Edges carrying a small share of the total probability mass are pruned
//! and the state renormalized: the DD shrinks (often drastically) at a
//! controlled fidelity cost. Contributions are computed in one top-down
//! pass using the normalization invariant (`|weight|^2` = branch
//! probability share).

use crate::fxhash::FxHashMap;
use crate::node::{VEdge, TERM};
use crate::package::DdPackage;

/// Outcome of an approximation.
#[derive(Clone, Copy, Debug)]
pub struct ApproxResult {
    /// The approximated (renormalized) state.
    pub state: VEdge,
    /// Exact fidelity `|<original|approx>|^2`.
    pub fidelity: f64,
    /// Nodes in the original DD.
    pub nodes_before: usize,
    /// Nodes in the approximated DD.
    pub nodes_after: usize,
}

impl DdPackage {
    /// Probability mass flowing through every node (top-down accumulation;
    /// assumes a normalized state).
    fn node_mass(&mut self, state: VEdge) -> FxHashMap<u32, f64> {
        let mut mass: FxHashMap<u32, f64> = FxHashMap::default();
        if state.is_zero() || state.is_terminal() {
            return mass;
        }
        // Collect nodes grouped by level (levels strictly decrease along
        // edges, so descending-level order is topological).
        let size = self.vector_dd_size(state);
        let _ = size;
        let mut by_level: Vec<Vec<u32>> = Vec::new();
        let mut seen: FxHashMap<u32, ()> = FxHashMap::default();
        let mut stack = vec![state.n];
        while let Some(id) = stack.pop() {
            if id == TERM || seen.insert(id, ()).is_some() {
                continue;
            }
            let node = self.v_node(id);
            let l = node.level as usize;
            if by_level.len() <= l {
                by_level.resize(l + 1, Vec::new());
            }
            by_level[l].push(id);
            stack.push(node.e[0].n);
            stack.push(node.e[1].n);
        }
        mass.insert(state.n, self.cval(state.w).norm_sqr());
        for level in (0..by_level.len()).rev() {
            for &id in &by_level[level] {
                let m = *mass.get(&id).unwrap_or(&0.0);
                let node = self.v_node(id);
                for e in node.e {
                    if !e.is_zero() && !e.is_terminal() {
                        *mass.entry(e.n).or_insert(0.0) += m * self.cval(e.w).norm_sqr();
                    }
                }
            }
        }
        mass
    }

    /// Prunes every edge whose probability contribution (mass reaching the
    /// parent times `|weight|^2`) is below `threshold`, renormalizes, and
    /// reports the exact fidelity against the original state.
    pub fn approximate(&mut self, state: VEdge, threshold: f64) -> ApproxResult {
        let nodes_before = self.vector_dd_size(state);
        if state.is_zero() || state.is_terminal() || threshold <= 0.0 {
            return ApproxResult {
                state,
                fidelity: 1.0,
                nodes_before,
                nodes_after: nodes_before,
            };
        }
        let mass = self.node_mass(state);
        let mut memo: FxHashMap<u32, VEdge> = FxHashMap::default();
        let pruned = self.prune_rec(state.n, &mass, threshold, &mut memo);
        let approx = self.scale_v(pruned, state.w);
        // Renormalize: the normalization invariant puts the surviving mass
        // in the top weight's magnitude.
        let w = self.cval(approx.w);
        let norm = w.abs();
        let state2 = if norm > 0.0 && (norm - 1.0).abs() > 1e-15 {
            let s = self.clookup(w / norm / w); // = 1/norm as a phase-free scale
            self.scale_v(approx, s)
        } else {
            approx
        };
        let fidelity = self.fidelity(state, state2);
        let nodes_after = self.vector_dd_size(state2);
        ApproxResult {
            state: state2,
            fidelity,
            nodes_before,
            nodes_after,
        }
    }

    fn prune_rec(
        &mut self,
        id: u32,
        mass: &FxHashMap<u32, f64>,
        threshold: f64,
        memo: &mut FxHashMap<u32, VEdge>,
    ) -> VEdge {
        if let Some(&e) = memo.get(&id) {
            return e;
        }
        let node = self.v_node(id);
        let my_mass = *mass.get(&id).unwrap_or(&0.0);
        let mut edges = [VEdge::ZERO; 2];
        for (b, e) in node.e.iter().enumerate() {
            if e.is_zero() {
                continue;
            }
            let contribution = my_mass * self.cval(e.w).norm_sqr();
            if contribution < threshold {
                continue; // prune
            }
            edges[b] = if e.is_terminal() {
                *e
            } else {
                let child = self.prune_rec(e.n, mass, threshold, memo);
                self.scale_v(child, e.w)
            };
        }
        let rebuilt = self.make_vnode(node.level, edges);
        memo.insert(id, rebuilt);
        rebuilt
    }

    /// Repeatedly raises the pruning threshold until the DD fits in
    /// `max_nodes` (or nothing more can be pruned). Returns the smallest
    /// tried threshold that fits.
    pub fn approximate_to_size(&mut self, state: VEdge, max_nodes: usize) -> ApproxResult {
        let before = self.vector_dd_size(state);
        if before <= max_nodes {
            return ApproxResult {
                state,
                fidelity: 1.0,
                nodes_before: before,
                nodes_after: before,
            };
        }
        let mut threshold = 1e-12;
        let mut best = self.approximate(state, threshold);
        while best.nodes_after > max_nodes && threshold < 0.5 {
            threshold *= 4.0;
            best = self.approximate(state, threshold);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::complex::norm_sqr;
    use qcircuit::generators;

    fn state_dd(c: &qcircuit::Circuit) -> (DdPackage, VEdge) {
        let pkg = DdPackage::default();
        let mut s = pkg.basis_state(c.num_qubits(), 0);
        for g in c.iter() {
            s = pkg.apply_gate(s, g, c.num_qubits());
        }
        (pkg, s)
    }

    #[test]
    fn zero_threshold_is_identity_operation() {
        let (mut pkg, s) = state_dd(&generators::w_state(6));
        let r = pkg.approximate(s, 0.0);
        assert_eq!(r.state, s);
        assert_eq!(r.fidelity, 1.0);
    }

    #[test]
    fn tiny_threshold_keeps_fidelity_near_one() {
        let (mut pkg, s) = state_dd(&generators::dnn(7, 2, 3));
        let r = pkg.approximate(s, 1e-9);
        assert!(r.fidelity > 0.999_999, "fidelity {}", r.fidelity);
        // Result stays normalized.
        let arr = pkg.vector_to_array(r.state, 7);
        assert!((norm_sqr(&arr) - 1.0).abs() < 1e-8);
    }

    #[test]
    fn pruning_shrinks_irregular_dds() {
        let (mut pkg, s) = state_dd(&generators::supremacy_n(9, 10, 5));
        let r = pkg.approximate(s, 1e-4);
        assert!(
            r.nodes_after < r.nodes_before,
            "no shrink: {} -> {}",
            r.nodes_before,
            r.nodes_after
        );
        assert!(r.fidelity > 0.5, "fidelity collapsed: {}", r.fidelity);
        let arr = pkg.vector_to_array(r.state, 9);
        assert!((norm_sqr(&arr) - 1.0).abs() < 1e-8);
    }

    #[test]
    fn fidelity_decreases_monotonically_with_threshold() {
        let (mut pkg, s) = state_dd(&generators::dnn(7, 2, 9));
        let mut last_f = 1.0;
        let mut last_nodes = usize::MAX;
        for t in [1e-8, 1e-5, 1e-3, 1e-2] {
            let r = pkg.approximate(s, t);
            assert!(r.fidelity <= last_f + 1e-9, "t={t}");
            assert!(r.nodes_after <= last_nodes, "t={t}");
            last_f = r.fidelity;
            last_nodes = r.nodes_after;
        }
    }

    #[test]
    fn approximate_to_size_hits_budget() {
        let (mut pkg, s) = state_dd(&generators::supremacy_n(9, 10, 7));
        let before = pkg.vector_dd_size(s);
        assert!(before > 60);
        let r = pkg.approximate_to_size(s, 60);
        assert!(
            r.nodes_after <= 60 || r.fidelity < 0.6,
            "{} nodes",
            r.nodes_after
        );
        assert!(r.nodes_before == before);
    }

    #[test]
    fn ghz_arms_survive_moderate_pruning() {
        // Both GHZ arms carry mass 0.5: far above any sane threshold.
        let (mut pkg, s) = state_dd(&generators::ghz(6));
        let r = pkg.approximate(s, 0.01);
        assert!((r.fidelity - 1.0).abs() < 1e-9);
        assert_eq!(r.nodes_after, r.nodes_before);
    }

    #[test]
    fn basis_state_is_untouchable() {
        let mut pkg = DdPackage::default();
        let s = pkg.basis_state(6, 33);
        let r = pkg.approximate(s, 0.4);
        assert_eq!(r.fidelity, 1.0);
        let arr = pkg.vector_to_array(r.state, 6);
        assert!((arr[33].norm_sqr() - 1.0).abs() < 1e-10);
    }
}
