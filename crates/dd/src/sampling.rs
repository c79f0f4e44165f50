//! Weak simulation on DDs: sampling, marginals, and measurement collapse.
//!
//! Because vector nodes are normalized (outgoing weights have 2-norm 1 and
//! sub-DDs are recursively normalized), the squared magnitude of an
//! outgoing weight *is* the conditional probability of that branch. One
//! sample is therefore a single O(n) root-to-terminal walk — the fast weak
//! simulation of Hillmich et al. \[36\], which the paper cites as a core DD
//! use case.
//!
//! Randomness comes in through a `FnMut() -> f64` closure (uniform in
//! `[0, 1)`), keeping this crate dependency-free and the tests exactly
//! reproducible.

use crate::fxhash::FxHashMap;
use crate::node::VEdge;
use crate::package::DdPackage;
use qcircuit::observable::{Pauli, PauliString};
use qcircuit::Complex64;

impl DdPackage {
    /// Draws one basis-state index from `|state|^2`. The state must be
    /// normalized (as every simulation state is).
    pub fn sample(&self, state: VEdge, rand01: &mut impl FnMut() -> f64) -> usize {
        assert!(!state.is_zero(), "cannot sample the zero vector");
        let mut index = 0usize;
        let mut cur = state;
        while !cur.is_terminal() {
            let node = self.v_node(cur.n);
            let p0 = self.cval(node.e[0].w).norm_sqr();
            let bit = if rand01() < p0 { 0 } else { 1 };
            if bit == 1 {
                index |= 1usize << node.level;
            }
            cur = node.e[bit];
            debug_assert!(!cur.is_zero(), "walked into a zero branch (p = 0)");
        }
        index
    }

    /// Draws `shots` samples and returns `(index, count)` pairs sorted by
    /// decreasing count.
    pub fn sample_counts(
        &self,
        state: VEdge,
        shots: usize,
        rand01: &mut impl FnMut() -> f64,
    ) -> Vec<(usize, usize)> {
        let mut counts: FxHashMap<usize, usize> = FxHashMap::default();
        for _ in 0..shots {
            *counts.entry(self.sample(state, rand01)).or_insert(0) += 1;
        }
        let mut out: Vec<(usize, usize)> = counts.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// The `k` heaviest amplitudes of an `n`-qubit state as `(index,
    /// amplitude)`, heaviest first, selected by [`qarray::TopAmplitudes`] —
    /// the DD-native counterpart of [`qarray::top_amplitudes`]. An
    /// index-ordered depth-first walk over the non-zero paths only; each
    /// value is the left-to-right product [`Self::amplitude`] computes. A
    /// sub-DD is skipped once no path through it can reach the lightest
    /// kept entry, so the work is bounded by the number of non-zero paths
    /// (two for GHZ) and nothing of size `2^n` is ever allocated.
    pub fn top_amplitudes(&self, state: VEdge, n: usize, k: usize) -> Vec<(usize, Complex64)> {
        assert!(
            state.is_terminal() || self.v_node(state.n).level as usize + 1 == n,
            "state is not an {n}-qubit vector"
        );
        let mut top = qarray::TopAmplitudes::new(k);
        let mut heaviest = FxHashMap::default();
        self.top_rec(state, 0, Complex64::ONE, &mut heaviest, &mut top);
        top.into_sorted()
    }

    fn top_rec(
        &self,
        e: VEdge,
        index: usize,
        weight: Complex64,
        heaviest: &mut FxHashMap<u32, f64>,
        top: &mut qarray::TopAmplitudes,
    ) {
        /// Relative head-room of the pruning bound over the rounding of the
        /// path products (~`n` ulps), so near-ties are still compared by
        /// their computed values.
        const SLACK: f64 = 1e-9;
        if e.is_zero() {
            return;
        }
        let w = weight * self.cval(e.w);
        if e.is_terminal() {
            top.offer(index, w);
            return;
        }
        if w.norm_sqr() * self.heaviest_path_sqr(e.n, heaviest) * (1.0 + SLACK) < top.floor() {
            return;
        }
        let node = self.v_node(e.n);
        self.top_rec(node.e[0], index, w, heaviest, top);
        self.top_rec(node.e[1], index | 1usize << node.level, w, heaviest, top);
    }

    /// Largest squared magnitude of a path-weight product from node `nid`
    /// down to the terminal (memoized: one visit per node).
    fn heaviest_path_sqr(&self, nid: u32, memo: &mut FxHashMap<u32, f64>) -> f64 {
        if nid == crate::node::TERM {
            return 1.0;
        }
        if let Some(&b) = memo.get(&nid) {
            return b;
        }
        let node = self.v_node(nid);
        let mut best = 0.0f64;
        for e in node.e {
            if !e.is_zero() {
                best = best.max(self.cval(e.w).norm_sqr() * self.heaviest_path_sqr(e.n, memo));
            }
        }
        memo.insert(nid, best);
        best
    }

    /// Marginal probability that qubit `q` measures 1 (memoized traversal,
    /// no conversion).
    pub fn qubit_probability_one(&self, state: VEdge, q: usize) -> f64 {
        if state.is_zero() {
            return 0.0;
        }
        let mut memo: FxHashMap<u32, f64> = FxHashMap::default();
        self.prob_one_rec(state.n, q, &mut memo) * self.cval(state.w).norm_sqr()
    }

    fn prob_one_rec(&self, nid: u32, q: usize, memo: &mut FxHashMap<u32, f64>) -> f64 {
        debug_assert_ne!(nid, crate::node::TERM, "qubit level below terminal");
        if let Some(&p) = memo.get(&nid) {
            return p;
        }
        let node = self.v_node(nid);
        let p = if node.level as usize == q {
            self.cval(node.e[1].w).norm_sqr()
        } else {
            let mut acc = 0.0;
            for e in node.e {
                if !e.is_zero() {
                    acc += self.cval(e.w).norm_sqr() * self.prob_one_rec(e.n, q, memo);
                }
            }
            acc
        };
        memo.insert(nid, p);
        p
    }

    /// Projectively measures qubit `q`: draws the outcome, collapses the
    /// state (projector + renormalization), and returns `(outcome, state')`.
    pub fn measure_qubit(
        &mut self,
        state: VEdge,
        q: usize,
        n: usize,
        rand01: &mut impl FnMut() -> f64,
    ) -> (bool, VEdge) {
        let p1 = self.qubit_probability_one(state, q);
        let outcome = rand01() < p1;
        let prob = if outcome { p1 } else { 1.0 - p1 };
        assert!(prob > 1e-15, "measured an impossible outcome");
        // Projector |b><b| at q, identity elsewhere.
        let mut mats = vec![Pauli::I.matrix(); n];
        let zero = qcircuit::Complex64::ZERO;
        let one = qcircuit::Complex64::ONE;
        mats[q] = if outcome {
            [zero, zero, zero, one]
        } else {
            [one, zero, zero, zero]
        };
        let proj = self.kron_chain_dd(&mats);
        let projected = self.mul_mv(proj, state);
        // Renormalize by 1/sqrt(prob).
        let scale = self.clookup(qcircuit::Complex64::real(1.0 / prob.sqrt()));
        let collapsed = self.scale_v(projected, scale);
        (outcome, collapsed)
    }

    /// Expectation of a *diagonal* Pauli string (only Z factors) by direct
    /// probabilistic traversal — cheaper than operator application.
    pub fn expectation_diagonal(&self, state: VEdge, p: &PauliString) -> f64 {
        assert!(
            p.is_diagonal(),
            "expectation_diagonal requires a Z-only string"
        );
        if state.is_zero() {
            return 0.0;
        }
        let mask: usize = p.ops.iter().map(|&(q, _)| 1usize << q).sum();
        let mut memo: FxHashMap<u32, f64> = FxHashMap::default();
        let raw = self.diag_rec(state.n, mask, &mut memo) * self.cval(state.w).norm_sqr();
        raw * p.coeff
    }

    fn diag_rec(&self, nid: u32, mask: usize, memo: &mut FxHashMap<u32, f64>) -> f64 {
        if nid == crate::node::TERM {
            return 1.0;
        }
        if let Some(&v) = memo.get(&nid) {
            return v;
        }
        let node = self.v_node(nid);
        let flip = (mask >> node.level) & 1 == 1;
        let mut acc = 0.0;
        for (b, e) in node.e.iter().enumerate() {
            if e.is_zero() {
                continue;
            }
            let sign = if flip && b == 1 { -1.0 } else { 1.0 };
            acc += sign * self.cval(e.w).norm_sqr() * self.diag_rec(e.n, mask, memo);
        }
        memo.insert(nid, acc);
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::generators;
    use qcircuit::rng::SplitMix64;

    fn state_dd(c: &qcircuit::Circuit) -> (DdPackage, VEdge) {
        let pkg = DdPackage::default();
        let mut s = pkg.basis_state(c.num_qubits(), 0);
        for g in c.iter() {
            s = pkg.apply_gate(s, g, c.num_qubits());
        }
        (pkg, s)
    }

    #[test]
    fn sampling_basis_state_is_deterministic() {
        let pkg = DdPackage::default();
        let e = pkg.basis_state(6, 0b101101);
        let mut rng = SplitMix64::new(1);
        for _ in 0..20 {
            assert_eq!(pkg.sample(e, &mut rng.as_fn()), 0b101101);
        }
    }

    #[test]
    fn ghz_samples_only_the_two_arms() {
        let (pkg, s) = state_dd(&generators::ghz(8));
        let mut rng = SplitMix64::new(7);
        let mut saw = [false, false];
        for _ in 0..200 {
            let x = pkg.sample(s, &mut rng.as_fn());
            assert!(x == 0 || x == 255, "got {x}");
            saw[(x == 255) as usize] = true;
        }
        assert!(saw[0] && saw[1], "both GHZ arms must appear in 200 shots");
    }

    #[test]
    fn sample_frequencies_match_probabilities() {
        let c = generators::w_state(4);
        let (pkg, s) = state_dd(&c);
        let mut rng = SplitMix64::new(11);
        let counts = pkg.sample_counts(s, 40_000, &mut rng.as_fn());
        // W state: 4 outcomes, each p = 1/4.
        assert_eq!(counts.len(), 4);
        for &(idx, cnt) in &counts {
            assert_eq!(idx.count_ones(), 1);
            let f = cnt as f64 / 40_000.0;
            assert!((f - 0.25).abs() < 0.02, "idx {idx}: freq {f}");
        }
    }

    #[test]
    fn marginals_match_dense() {
        let c = generators::random_circuit(6, 50, 13);
        let (pkg, s) = state_dd(&c);
        let v = qcircuit::dense::simulate(&c);
        for q in 0..6 {
            let want: f64 = v
                .iter()
                .enumerate()
                .filter(|(i, _)| (i >> q) & 1 == 1)
                .map(|(_, a)| a.norm_sqr())
                .sum();
            let got = pkg.qubit_probability_one(s, q);
            assert!((got - want).abs() < 1e-9, "q={q}: {got} vs {want}");
        }
    }

    #[test]
    fn measurement_collapses_and_renormalizes() {
        let (mut pkg, s) = state_dd(&generators::ghz(5));
        let mut rng = SplitMix64::new(3);
        let (outcome, collapsed) = pkg.measure_qubit(s, 2, 5, &mut rng.as_fn());
        // After measuring one GHZ qubit, all qubits are that value.
        let arr = pkg.vector_to_array(collapsed, 5);
        let expect_idx = if outcome { 31 } else { 0 };
        assert!((arr[expect_idx].norm_sqr() - 1.0).abs() < 1e-9);
        assert!((pkg.vector_norm_sqr(collapsed) - 1.0).abs() < 1e-9);
        // Subsequent marginals are deterministic.
        for q in 0..5 {
            let p1 = pkg.qubit_probability_one(collapsed, q);
            assert!((p1 - if outcome { 1.0 } else { 0.0 }).abs() < 1e-9);
        }
    }

    #[test]
    fn repeated_measurements_are_consistent() {
        let c = generators::random_circuit(5, 40, 21);
        let (mut pkg, mut s) = state_dd(&c);
        let mut rng = SplitMix64::new(5);
        let mut bits = Vec::new();
        for q in 0..5 {
            let (b, next) = pkg.measure_qubit(s, q, 5, &mut rng.as_fn());
            bits.push(b);
            s = next;
        }
        // Fully measured: the state is the matching basis state.
        let idx: usize = bits
            .iter()
            .enumerate()
            .map(|(q, &b)| (b as usize) << q)
            .sum();
        let arr = pkg.vector_to_array(s, 5);
        assert!((arr[idx].norm_sqr() - 1.0).abs() < 1e-8);
    }

    #[test]
    fn diagonal_expectation_matches_general_path() {
        let c = generators::vqe(5, 2, 17);
        let (mut pkg, s) = state_dd(&c);
        for p in [
            PauliString::z(1.0, 0),
            PauliString::zz(-0.5, 1, 3),
            PauliString::parse("0.7 * ZZIZZ").unwrap(),
            PauliString::identity(1.5),
        ] {
            let fast = pkg.expectation_diagonal(s, &p);
            let general = pkg.expectation_pauli(s, &p, 5);
            assert!((fast - general).abs() < 1e-9, "{p}");
        }
    }

    #[test]
    #[should_panic(expected = "Z-only")]
    fn diagonal_expectation_rejects_x() {
        let (pkg, s) = {
            let pkg = DdPackage::default();
            let s = pkg.basis_state(3, 0);
            (pkg, s)
        };
        pkg.expectation_diagonal(s, &PauliString::x(1.0, 0));
    }

    #[test]
    fn splitmix_is_uniformish() {
        let mut rng = SplitMix64::new(99);
        let mut acc = 0.0;
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            acc += x;
        }
        assert!((acc / 10_000.0 - 0.5).abs() < 0.02);
    }
}
