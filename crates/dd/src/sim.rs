//! A DDSIM-equivalent DD-based simulator.
//!
//! Applies every gate by building its matrix DD and multiplying it onto the
//! state-vector DD, with garbage collection when the package says it is
//! due ([`DdPackage::gc_if_due`]) — the strategy of
//! Zulehner & Wille's "Advanced simulation of quantum computations" \[99\],
//! which is both a baseline of the paper (Table 1) and the front half of
//! FlatDD itself (before the EWMA-triggered conversion).

use crate::node::VEdge;
use crate::package::DdPackage;
use qcircuit::{Circuit, Complex64, Gate};

/// Runtime statistics of a [`DdSimulator`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DdSimStats {
    /// Gates applied so far.
    pub gates_applied: usize,
    /// Garbage-collection runs.
    pub gc_runs: usize,
    /// Peak live vector nodes.
    pub peak_v_nodes: usize,
    /// Peak live matrix nodes.
    pub peak_m_nodes: usize,
    /// Largest state-vector DD observed (in nodes).
    pub peak_state_dd_size: usize,
}

/// DD-based strong simulator (DDSIM-equivalent).
pub struct DdSimulator {
    pkg: DdPackage,
    state: VEdge,
    n: usize,
    stats: DdSimStats,
}

impl DdSimulator {
    /// Initializes the simulator in `|0...0>` over `n` qubits.
    pub fn new(n: usize) -> Self {
        let pkg = DdPackage::default();
        let state = pkg.basis_state(n, 0);
        DdSimulator {
            pkg,
            state,
            n,
            stats: DdSimStats::default(),
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The current state-vector DD root.
    pub fn state(&self) -> VEdge {
        self.state
    }

    /// The underlying package (e.g. for amplitude queries).
    pub fn package(&self) -> &DdPackage {
        &self.pkg
    }

    /// Mutable access to the underlying package.
    pub fn package_mut(&mut self) -> &mut DdPackage {
        &mut self.pkg
    }

    /// Decomposes into `(package, state_root, qubits)` — used by FlatDD when
    /// taking over after the DD phase.
    pub fn into_parts(self) -> (DdPackage, VEdge, usize) {
        (self.pkg, self.state, self.n)
    }

    /// Applies one gate (gate-DD construction + DD matrix-vector multiply),
    /// collecting garbage when the package's sweep rule says it is due.
    pub fn apply(&mut self, gate: &Gate) {
        let g = self.pkg.gate_dd(gate, self.n);
        self.state = self.pkg.mul_mv(g, self.state);
        self.stats.gates_applied += 1;
        let live = self.pkg.stats();
        self.stats.peak_v_nodes = self.stats.peak_v_nodes.max(live.v_nodes);
        self.stats.peak_m_nodes = self.stats.peak_m_nodes.max(live.m_nodes);
        if self.pkg.gc_if_due(&[self.state], &[]).is_some() {
            self.stats.gc_runs += 1;
        }
    }

    /// Runs a whole circuit.
    pub fn run(&mut self, circuit: &Circuit) {
        assert_eq!(circuit.num_qubits(), self.n, "circuit width mismatch");
        for g in circuit.iter() {
            self.apply(g);
        }
    }

    /// Forces a garbage collection (roots: the current state).
    pub fn collect_garbage(&mut self) {
        self.pkg.gc(&[self.state], &[]);
        self.stats.gc_runs += 1;
    }

    /// Current DD size of the state vector (the paper's `s_i`), updating the
    /// peak statistic.
    pub fn state_dd_size(&mut self) -> usize {
        let s = self.pkg.vector_dd_size(self.state);
        self.stats.peak_state_dd_size = self.stats.peak_state_dd_size.max(s);
        s
    }

    /// Amplitude of `|index>`.
    pub fn amplitude(&self, index: usize) -> Complex64 {
        self.pkg.amplitude(self.state, index)
    }

    /// The full state as a flat array (sequential conversion — exponential).
    pub fn amplitudes(&self) -> Vec<Complex64> {
        self.pkg.vector_to_array(self.state, self.n)
    }

    /// Runtime statistics.
    pub fn stats(&self) -> DdSimStats {
        self.stats
    }
}

/// One-shot convenience: simulate a circuit from `|0...0>` and return the
/// final amplitudes.
pub fn simulate(circuit: &Circuit) -> Vec<Complex64> {
    let mut sim = DdSimulator::new(circuit.num_qubits());
    sim.run(circuit);
    sim.amplitudes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::complex::{norm_sqr, state_distance};
    use qcircuit::{dense, generators};

    const TOL: f64 = 1e-9;

    #[test]
    fn bell_state() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let v = simulate(&c);
        let want = dense::simulate(&c);
        assert!(state_distance(&v, &want) < TOL);
    }

    #[test]
    fn all_generators_match_dense() {
        let circuits = vec![
            generators::ghz(7),
            generators::adder_n(8),
            generators::qft(6),
            generators::dnn(5, 2, 3),
            generators::vqe(5, 2, 3),
            generators::swap_test(2, 3),
            generators::knn(2, 3),
            generators::supremacy(2, 3, 5, 3),
            generators::w_state(6),
        ];
        for c in circuits {
            let got = simulate(&c);
            let want = dense::simulate(&c);
            assert!(state_distance(&got, &want) < TOL, "{} diverged", c.name());
        }
    }

    #[test]
    fn forced_collections_keep_the_state() {
        let c = generators::random_circuit(6, 120, 5);
        let mut sim = DdSimulator::new(6);
        for g in c.iter() {
            sim.apply(g);
            sim.collect_garbage();
        }
        assert!(sim.stats().gc_runs >= c.num_gates());
        let want = dense::simulate(&c);
        assert!(state_distance(&sim.amplitudes(), &want) < TOL);
    }

    #[test]
    fn the_package_sweeps_when_its_rule_says_so() {
        // Supremacy at 12 qubits: a few thousand nodes per gate, so the
        // floor is passed within a few gates and again after each sweep.
        let c = generators::supremacy(3, 4, 10, 1);
        let mut sim = DdSimulator::new(12);
        sim.run(&c);
        let st = sim.stats();
        assert!(st.gc_runs >= 2, "{st:?}");
        let want = dense::simulate(&c);
        assert!(state_distance(&sim.amplitudes(), &want) < TOL);
    }

    #[test]
    fn dd_size_small_for_regular_large_for_irregular() {
        let n = 8;
        let mut reg = DdSimulator::new(n);
        reg.run(&generators::ghz(n));
        let s_reg = reg.state_dd_size();
        assert!(s_reg <= 2 * n, "GHZ DD must stay linear, got {s_reg}");

        let mut irr = DdSimulator::new(n);
        irr.run(&generators::dnn(n, 3, 9));
        let s_irr = irr.state_dd_size();
        assert!(
            s_irr > 4 * s_reg,
            "DNN should blow the DD up: regular={s_reg}, irregular={s_irr}"
        );
    }

    #[test]
    fn amplitude_queries_match_full_readout() {
        let c = generators::random_circuit(5, 40, 8);
        let mut sim = DdSimulator::new(5);
        sim.run(&c);
        let full = sim.amplitudes();
        for (i, &a) in full.iter().enumerate() {
            assert!(sim.amplitude(i).approx_eq(a, TOL));
        }
    }

    #[test]
    fn norm_is_preserved() {
        let c = generators::supremacy(2, 3, 8, 17);
        let mut sim = DdSimulator::new(6);
        sim.run(&c);
        assert!((norm_sqr(&sim.amplitudes()) - 1.0).abs() < 1e-8);
    }

    #[test]
    fn stats_progress() {
        let c = generators::ghz(5);
        let mut sim = DdSimulator::new(5);
        sim.run(&c);
        let st = sim.stats();
        assert_eq!(st.gates_applied, c.num_gates());
        assert!(sim.state_dd_size() >= 1);
        assert!(sim.stats().peak_state_dd_size >= 1);
    }
}
