//! Inner products, operator construction, and expectation values on DDs.
//!
//! `<a|b>` is computed by a memoized pairwise descent (no exponential
//! conversion), tensor-product operators are built level-by-level (one DD
//! node per level), and `<psi|P|psi>` combines the two — the standard way
//! DD packages evaluate observables.

use crate::ctable::CIdx;
use crate::fxhash::FxHashMap;
use crate::node::{MEdge, VEdge, TERM};
use crate::package::DdPackage;
use qarray::vecops;
use qcircuit::observable::{Hamiltonian, PauliString};
use qcircuit::{Complex64, Mat2};

/// Sub-vectors of at most `2^FLAT_BLOCK_QUBITS` amplitudes are expanded
/// densely (once per node, memoized) and reduced with the vectorized dot
/// kernel in [`DdPackage::inner_product_flat`].
const FLAT_BLOCK_QUBITS: usize = 6;

impl DdPackage {
    /// Inner product `<a|b>` (conjugate-linear in `a`).
    pub fn inner_product(&self, a: VEdge, b: VEdge) -> Complex64 {
        if a.is_zero() || b.is_zero() {
            return Complex64::ZERO;
        }
        let mut memo: FxHashMap<(u32, u32), Complex64> = FxHashMap::default();
        let rec = self.inner_rec(a.n, b.n, &mut memo);
        self.cval(a.w).conj() * self.cval(b.w) * rec
    }

    fn inner_rec(
        &self,
        an: u32,
        bn: u32,
        memo: &mut FxHashMap<(u32, u32), Complex64>,
    ) -> Complex64 {
        if an == TERM {
            debug_assert_eq!(bn, TERM, "vector DDs must be level-aligned");
            return Complex64::ONE;
        }
        if let Some(&v) = memo.get(&(an, bn)) {
            return v;
        }
        let a = self.v_node(an);
        let b = self.v_node(bn);
        debug_assert_eq!(a.level, b.level);
        let mut acc = Complex64::ZERO;
        for i in 0..2 {
            let (ea, eb) = (a.e[i], b.e[i]);
            if ea.is_zero() || eb.is_zero() {
                continue;
            }
            let sub = self.inner_rec(ea.n, eb.n, memo);
            acc += self.cval(ea.w).conj() * self.cval(eb.w) * sub;
        }
        memo.insert((an, bn), acc);
        acc
    }

    /// Squared norm `<v|v>` (1 for a normalized simulation state).
    pub fn vector_norm_sqr(&self, v: VEdge) -> f64 {
        self.inner_product(v, v).re
    }

    /// Inner product `<a|flat>` between a vector DD and a flat amplitude
    /// array (conjugate-linear in the DD argument), without materializing
    /// the DD: the descent stops at sub-vectors of at most
    /// `2^FLAT_BLOCK_QUBITS` amplitudes, expands each distinct node once
    /// (memoized — DD sharing makes this cheap), and reduces every block
    /// against the matching slice of `flat` with the vectorized dot kernel.
    ///
    /// `flat.len()` must be `2^n` for the DD's qubit count `n`.
    pub fn inner_product_flat(&self, a: VEdge, flat: &[Complex64]) -> Complex64 {
        if a.is_zero() {
            return Complex64::ZERO;
        }
        if a.is_terminal() {
            assert_eq!(flat.len(), 1, "flat array width mismatch");
            return self.cval(a.w).conj() * flat[0];
        }
        let levels = self.v_node(a.n).level as usize + 1;
        assert_eq!(flat.len(), 1usize << levels, "flat array width mismatch");
        let mut blocks: FxHashMap<u32, Vec<Complex64>> = FxHashMap::default();
        self.inner_flat_rec(a, Complex64::ONE, 0, flat, &mut blocks)
    }

    fn inner_flat_rec(
        &self,
        e: VEdge,
        f: Complex64,
        offset: usize,
        flat: &[Complex64],
        blocks: &mut FxHashMap<u32, Vec<Complex64>>,
    ) -> Complex64 {
        if e.is_zero() {
            return Complex64::ZERO;
        }
        let w = f * self.cval(e.w);
        if e.is_terminal() {
            return w.conj() * flat[offset];
        }
        let node = self.v_node(e.n);
        let len = 1usize << (node.level as usize + 1);
        if len <= (1 << FLAT_BLOCK_QUBITS) {
            let block = blocks.entry(e.n).or_insert_with(|| {
                let mut buf = vec![Complex64::ZERO; len];
                self.write_vector(
                    VEdge {
                        n: e.n,
                        w: CIdx::ONE,
                    },
                    node.level as usize + 1,
                    &mut buf,
                );
                buf
            });
            return w.conj() * vecops::dot(block, &flat[offset..offset + len]);
        }
        let half = len / 2;
        self.inner_flat_rec(node.e[0], w, offset, flat, blocks)
            + self.inner_flat_rec(node.e[1], w, offset + half, flat, blocks)
    }

    /// Fidelity `|<a|b>|^2`.
    pub fn fidelity(&self, a: VEdge, b: VEdge) -> f64 {
        self.inner_product(a, b).norm_sqr()
    }

    /// Builds the tensor-product operator `mats[n-1] (x) ... (x) mats\[0\]`
    /// as a matrix DD (one node per level — `mats[l]` acts on qubit `l`).
    pub fn kron_chain_dd(&mut self, mats: &[Mat2]) -> MEdge {
        let mut f = MEdge::terminal(crate::ctable::CIdx::ONE);
        for (l, m) in mats.iter().enumerate() {
            let mk = |pkg: &mut Self, w: Complex64, f: MEdge| -> MEdge {
                let wi = pkg.clookup(w);
                pkg.scale_m(f, wi)
            };
            let e = [
                mk(self, m[0], f),
                mk(self, m[1], f),
                mk(self, m[2], f),
                mk(self, m[3], f),
            ];
            f = self.make_mnode(l as u8, e);
        }
        f
    }

    /// The matrix DD of a Pauli string over `n` qubits (coefficient folded
    /// into the top edge weight).
    pub fn pauli_string_dd(&mut self, p: &PauliString, n: usize) -> MEdge {
        let mats = p.level_matrices(n);
        let e = self.kron_chain_dd(&mats);
        let w = self.clookup(Complex64::real(p.coeff));
        self.scale_m(e, w)
    }

    /// Expectation value `<psi| P |psi>` of one Pauli string.
    pub fn expectation_pauli(&mut self, state: VEdge, p: &PauliString, n: usize) -> f64 {
        let op = self.pauli_string_dd(p, n);
        let applied = self.mul_mv(op, state);
        self.inner_product(state, applied).re
    }

    /// Expectation value `<psi| H |psi>` of a Pauli-sum Hamiltonian.
    pub fn expectation(&mut self, state: VEdge, ham: &Hamiltonian, n: usize) -> f64 {
        ham.terms
            .iter()
            .map(|t| self.expectation_pauli(state, t, n))
            .sum()
    }

    /// Adjoint (conjugate transpose) of a matrix DD: transposes every
    /// node's 2x2 block structure and conjugates every weight.
    pub fn adjoint(&mut self, m: MEdge) -> MEdge {
        if m.is_zero() {
            return MEdge::ZERO;
        }
        let wc = self.cval(m.w).conj();
        let wi = self.clookup(wc);
        if m.is_terminal() {
            return MEdge::terminal(wi);
        }
        let mut memo: FxHashMap<u32, MEdge> = FxHashMap::default();
        let rec = self.adjoint_rec(m.n, &mut memo);
        self.scale_m(rec, wi)
    }

    fn adjoint_rec(&mut self, id: u32, memo: &mut FxHashMap<u32, MEdge>) -> MEdge {
        if let Some(&e) = memo.get(&id) {
            return e;
        }
        let node = self.m_node(id);
        let mut es = [MEdge::ZERO; 4];
        for i in 0..2usize {
            for j in 0..2usize {
                // Transpose block (i, j) -> (j, i), conjugate its weight.
                let src = node.e[2 * i + j];
                es[2 * j + i] = if src.is_zero() {
                    MEdge::ZERO
                } else {
                    let wc = self.cval(src.w).conj();
                    let wi = self.clookup(wc);
                    if src.is_terminal() {
                        MEdge::terminal(wi)
                    } else {
                        let child = self.adjoint_rec(src.n, memo);
                        self.scale_m(child, wi)
                    }
                };
            }
        }
        let rebuilt = self.make_mnode(node.level, es);
        memo.insert(id, rebuilt);
        rebuilt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::observable::Pauli;
    use qcircuit::{dense, generators};

    const TOL: f64 = 1e-9;

    fn state_dd(c: &qcircuit::Circuit) -> (DdPackage, VEdge) {
        let pkg = DdPackage::default();
        let mut s = pkg.basis_state(c.num_qubits(), 0);
        for g in c.iter() {
            s = pkg.apply_gate(s, g, c.num_qubits());
        }
        (pkg, s)
    }

    /// Dense inner product reference.
    fn dense_inner(a: &[Complex64], b: &[Complex64]) -> Complex64 {
        a.iter().zip(b).map(|(&x, &y)| x.conj() * y).sum()
    }

    #[test]
    fn inner_product_matches_dense() {
        let c1 = generators::random_circuit(5, 40, 1);
        let c2 = generators::random_circuit(5, 40, 2);
        let pkg = DdPackage::default();
        let mut s1 = pkg.basis_state(5, 0);
        for g in c1.iter() {
            s1 = pkg.apply_gate(s1, g, 5);
        }
        let mut s2 = pkg.basis_state(5, 0);
        for g in c2.iter() {
            s2 = pkg.apply_gate(s2, g, 5);
        }
        let got = pkg.inner_product(s1, s2);
        let want = dense_inner(&dense::simulate(&c1), &dense::simulate(&c2));
        assert!(got.approx_eq(want, TOL), "{got:?} vs {want:?}");
    }

    #[test]
    fn flat_inner_product_matches_dense_reference() {
        // n=5 sits below FLAT_BLOCK_QUBITS (pure block path); n=8 sits
        // above it (descent + block path).
        for (n, depth) in [(5usize, 40usize), (8, 60)] {
            let c1 = generators::random_circuit(n, depth, 1);
            let c2 = generators::random_circuit(n, depth, 2);
            let (pkg, s1) = state_dd(&c1);
            let flat = dense::simulate(&c2);
            let got = pkg.inner_product_flat(s1, &flat);
            let want = dense_inner(&dense::simulate(&c1), &flat);
            assert!(got.approx_eq(want, TOL), "n={n}: {got:?} vs {want:?}");
            // <s|s> over the flat copy of the same state is the norm.
            let self_flat = dense::simulate(&c1);
            let norm = pkg.inner_product_flat(s1, &self_flat);
            assert!((norm.re - 1.0).abs() < 1e-8 && norm.im.abs() < 1e-8);
        }
    }

    #[test]
    fn norm_of_simulation_state_is_one() {
        let (pkg, s) = state_dd(&generators::supremacy(2, 3, 6, 3));
        assert!((pkg.vector_norm_sqr(s) - 1.0).abs() < 1e-8);
    }

    #[test]
    fn inner_product_is_conjugate_symmetric() {
        let (pkg, _) = (DdPackage::default(), ());
        let c1 = generators::random_circuit(4, 25, 7);
        let c2 = generators::random_circuit(4, 25, 8);
        let mut a = pkg.basis_state(4, 0);
        for g in c1.iter() {
            a = pkg.apply_gate(a, g, 4);
        }
        let mut b = pkg.basis_state(4, 0);
        for g in c2.iter() {
            b = pkg.apply_gate(b, g, 4);
        }
        let ab = pkg.inner_product(a, b);
        let ba = pkg.inner_product(b, a);
        assert!(ab.approx_eq(ba.conj(), TOL));
    }

    #[test]
    fn fidelity_of_orthogonal_basis_states_is_zero() {
        let pkg = DdPackage::default();
        let a = pkg.basis_state(4, 3);
        let b = pkg.basis_state(4, 12);
        assert!(pkg.fidelity(a, b) < 1e-12);
        assert!((pkg.fidelity(a, a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kron_chain_matches_dense_kron() {
        let mut pkg = DdPackage::default();
        let mats = vec![Pauli::X.matrix(), Pauli::I.matrix(), Pauli::Z.matrix()];
        let e = pkg.kron_chain_dd(&mats);
        let _got = pkg.matrix_to_dense(e, 3);
        // Z (x) I (x) X acting with qubit 0 = X.
        let p = PauliString::new(1.0, vec![(0, Pauli::X), (2, Pauli::Z)]);
        for row in 0..8 {
            for col in 0..8 {
                // Dense reference via expectation trick: entry = <row|P|col>.
                let mut v = dense::basis_state(3, col);
                // apply X0
                let mut w = vec![Complex64::ZERO; 8];
                for (i, &amp) in v.iter().enumerate() {
                    if amp.is_zero() {
                        continue;
                    }
                    let j = i ^ 1; // X on qubit 0
                    let sign = if (j >> 2) & 1 == 1 { -1.0 } else { 1.0 }; // Z on qubit 2
                    w[j] += amp * sign;
                }
                v = w;
                let want = v[row];
                assert!(
                    pkg.matrix_entry(e, row, col).approx_eq(want, TOL),
                    "({row},{col})"
                );
            }
        }
        let _ = p;
    }

    #[test]
    fn pauli_expectations_match_dense_reference() {
        let c = generators::random_circuit(5, 50, 11);
        let (mut pkg, s) = state_dd(&c);
        let v = dense::simulate(&c);
        let strings = vec![
            PauliString::z(1.0, 0),
            PauliString::x(0.7, 3),
            PauliString::zz(-1.3, 1, 4),
            PauliString::new(0.5, vec![(0, Pauli::Y), (2, Pauli::X)]),
            PauliString::parse("0.25 * ZYXIZ").unwrap(),
            PauliString::identity(2.0),
        ];
        for p in strings {
            let got = pkg.expectation_pauli(s, &p, 5);
            let want = p.expectation_dense(&v);
            assert!((got - want).abs() < 1e-8, "{p}: {got} vs {want}");
        }
    }

    #[test]
    fn hamiltonian_expectation_on_ghz() {
        let (mut pkg, s) = state_dd(&generators::ghz(6));
        // sum of ZZ on neighbors: each term = +1 on GHZ.
        let mut ham = Hamiltonian::new();
        for q in 0..5 {
            ham.add(PauliString::zz(1.0, q, q + 1));
        }
        assert!((pkg.expectation(s, &ham, 6) - 5.0).abs() < TOL);
    }

    #[test]
    fn adjoint_matches_gate_dagger() {
        use qcircuit::gate::{Control, Gate, GateKind};
        let mut pkg = DdPackage::default();
        let n = 4;
        for g in [
            Gate::new(GateKind::T, 1),
            Gate::new(GateKind::SqrtX, 2),
            Gate::new(GateKind::U(0.4, 1.2, -0.5), 0),
            Gate::controlled(GateKind::RY(0.9), 3, vec![Control::pos(0)]),
        ] {
            let e = pkg.gate_dd(&g, n);
            let adj = pkg.adjoint(e);
            let dag = pkg.gate_dd(&g.dagger(), n);
            let a = pkg.matrix_to_dense(adj, n);
            let b = pkg.matrix_to_dense(dag, n);
            assert!(qcircuit::complex::state_distance(&a, &b) < 1e-9, "{g}");
        }
    }

    #[test]
    fn adjoint_times_self_is_identity() {
        let mut pkg = DdPackage::default();
        let n = 4;
        let c = generators::random_circuit(n, 15, 2);
        let mut u = pkg.identity_dd(n);
        for g in c.iter() {
            let gd = pkg.gate_dd(g, n);
            u = pkg.mul_mm(gd, u);
        }
        let udag = pkg.adjoint(u);
        let prod = pkg.mul_mm(udag, u);
        let id = pkg.identity_dd(n);
        // Canonical form: the product's node should BE the identity node.
        assert_eq!(prod.n, id.n, "U†U must canonicalize to the identity node");
        assert!(pkg.cval(prod.w).approx_eq(Complex64::ONE, 1e-8));
    }

    #[test]
    fn adjoint_is_involutive() {
        let mut pkg = DdPackage::default();
        let g = qcircuit::Gate::new(qcircuit::GateKind::U(0.3, -0.8, 1.1), 2);
        let e = pkg.gate_dd(&g, 4);
        let back = {
            let a = pkg.adjoint(e);
            pkg.adjoint(a)
        };
        assert_eq!(back, e, "adjoint twice must return the identical edge");
    }

    #[test]
    fn ising_energy_matches_dense() {
        let c = generators::vqe(5, 2, 9);
        let (mut pkg, s) = state_dd(&c);
        let v = dense::simulate(&c);
        let ham = Hamiltonian::transverse_ising(5, 1.0, 0.5);
        let got = pkg.expectation(s, &ham, 5);
        let want = ham.expectation_dense(&v);
        assert!((got - want).abs() < 1e-8);
    }
}
