//! The array-based simulator (Quantum++-equivalent baseline).

use crate::kernel::apply_gate_pooled;
use crate::pool::ThreadPool;
use crate::shard::ShardedState;
use qcircuit::complex::norm_sqr;
use qcircuit::{Circuit, Complex64, Gate};

/// Full-state array-based simulator: a flat `2^n` amplitude vector with
/// in-place gate application dispatched per shard on the simulator's own
/// worker pool.
pub struct ArraySimulator {
    state: Vec<Complex64>,
    n: usize,
    /// Workers for the gate kernels (size 1 = inline, no threads).
    pool: ThreadPool,
    /// Gate-kernel dispatch granularity (defaults to the thread count).
    shards: usize,
}

impl ArraySimulator {
    /// Initializes `|0...0>` over `n` qubits, single-threaded.
    pub fn new(n: usize) -> Self {
        Self::with_threads(n, 1)
    }

    /// Initializes `|0...0>` over `n` qubits with a worker-thread count.
    ///
    /// # Panics
    /// When the `2^n` amplitude vector cannot be allocated (use
    /// [`Self::try_with_threads`] to handle exhaustion gracefully) or the OS
    /// refuses to spawn a worker thread.
    pub fn with_threads(n: usize, threads: usize) -> Self {
        Self::try_with_threads(n, threads)
            .unwrap_or_else(|_| panic!("cannot allocate 2^{n} amplitudes"))
    }

    /// Fallible [`Self::with_threads`]: a refused allocation comes back as
    /// a `TryReserveError` instead of aborting the process. The state is
    /// zero-initialized first-touch: each of `threads` shards is paged in
    /// by the pool worker that owns it during gate application.
    pub fn try_with_threads(
        n: usize,
        threads: usize,
    ) -> Result<Self, std::collections::TryReserveError> {
        assert!(n >= 1 && n < usize::BITS as usize);
        let pool = ThreadPool::new(threads);
        let shards = pool.size();
        let mut state = ShardedState::try_new_zeroed_on(1usize << n, shards, &pool)?.into_vec();
        state[0] = Complex64::ONE;
        Ok(ArraySimulator {
            state,
            n,
            pool,
            shards,
        })
    }

    /// Wraps an existing state vector (length must be a power of two).
    pub fn from_state(state: Vec<Complex64>, threads: usize) -> Self {
        assert!(state.len().is_power_of_two() && state.len() >= 2);
        let n = state.len().trailing_zeros() as usize;
        let pool = ThreadPool::new(threads);
        ArraySimulator {
            state,
            n,
            shards: pool.size(),
            pool,
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Worker-thread count.
    pub fn threads(&self) -> usize {
        self.pool.size()
    }

    /// Gate-kernel dispatch shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Pins the gate-kernel dispatch granularity independently of the
    /// thread count (workers pick shards round-robin).
    pub fn set_shards(&mut self, shards: usize) {
        self.shards = shards.max(1);
    }

    /// The amplitude vector.
    pub fn state(&self) -> &[Complex64] {
        &self.state
    }

    /// Consumes the simulator, returning the amplitude vector.
    pub fn into_state(self) -> Vec<Complex64> {
        self.state
    }

    /// Applies one gate in place.
    pub fn apply(&mut self, gate: &Gate) {
        apply_gate_pooled(&mut self.state, gate, &self.pool, self.shards);
    }

    /// Runs a whole circuit.
    pub fn run(&mut self, circuit: &Circuit) {
        assert_eq!(circuit.num_qubits(), self.n, "circuit width mismatch");
        for g in circuit.iter() {
            self.apply(g);
        }
    }

    /// Probability of measuring `|index>`.
    pub fn probability(&self, index: usize) -> f64 {
        self.state[index].norm_sqr()
    }

    /// Squared 2-norm of the state (should stay 1 under unitaries).
    pub fn norm_sqr(&self) -> f64 {
        norm_sqr(&self.state)
    }

    /// Probability that qubit `q` measures 1.
    pub fn qubit_probability(&self, q: usize) -> f64 {
        let bit = 1usize << q;
        self.state
            .iter()
            .enumerate()
            .filter(|(i, _)| i & bit != 0)
            .map(|(_, a)| a.norm_sqr())
            .sum()
    }
}

/// One-shot convenience: simulate a circuit from `|0...0>`.
pub fn simulate(circuit: &Circuit) -> Vec<Complex64> {
    simulate_with_threads(circuit, 1)
}

/// One-shot convenience with a thread count.
pub fn simulate_with_threads(circuit: &Circuit, threads: usize) -> Vec<Complex64> {
    let mut sim = ArraySimulator::with_threads(circuit.num_qubits(), threads);
    sim.run(circuit);
    sim.into_state()
}

/// Allocates a zeroed amplitude vector of length `dim` fallibly, through
/// the flat buffers' one allocation path ([`crate::first_touch_zeroed`]):
/// an impossible request (e.g. a `2^n` buffer over what the allocator
/// grants) is an `Err`, not an abort.
pub fn try_zeroed_state(dim: usize) -> Result<Vec<Complex64>, std::collections::TryReserveError> {
    let mut v = Vec::new();
    crate::first_touch_zeroed(&mut v, dim, 1, &ThreadPool::new(1))?;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::complex::state_distance;
    use qcircuit::{dense, generators};

    const TOL: f64 = 1e-10;

    #[test]
    fn matches_dense_on_generators() {
        for c in [
            generators::ghz(8),
            generators::adder_n(8),
            generators::qft(6),
            generators::dnn(5, 2, 1),
            generators::vqe(5, 2, 1),
            generators::supremacy(2, 3, 6, 1),
            generators::knn(2, 1),
        ] {
            let got = simulate(&c);
            let want = dense::simulate(&c);
            assert!(state_distance(&got, &want) < TOL, "{}", c.name());
        }
    }

    #[test]
    fn multithreaded_matches_single() {
        let c = generators::random_circuit(11, 100, 4);
        let a = simulate(&c);
        for t in [2, 4, 8] {
            let b = simulate_with_threads(&c, t);
            assert!(state_distance(&a, &b) < TOL, "t={t}");
        }
    }

    #[test]
    fn pooled_threads_are_bit_identical_to_one_thread() {
        // 2^9 groups clear the parallel threshold at 2 and 4 workers, and
        // the kernels are elementwise per amplitude pair.
        let c = generators::random_circuit(10, 200, 9);
        let a = simulate(&c);
        for t in [2, 4] {
            assert_eq!(simulate_with_threads(&c, t), a, "t={t}");
        }
    }

    #[test]
    fn sharded_dispatch_matches_single() {
        let c = generators::random_circuit(11, 100, 4);
        let a = simulate(&c);
        for (threads, shards) in [(2, 8), (4, 1), (3, 7)] {
            let mut sim = ArraySimulator::with_threads(11, threads);
            sim.set_shards(shards);
            assert_eq!(sim.shards(), shards);
            sim.run(&c);
            assert!(
                state_distance(sim.state(), &a) < TOL,
                "t={threads} shards={shards}"
            );
        }
    }

    #[test]
    fn norm_stays_one() {
        let c = generators::supremacy(2, 4, 8, 5);
        let mut sim = ArraySimulator::with_threads(8, 2);
        sim.run(&c);
        assert!((sim.norm_sqr() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn qubit_probability_of_ghz() {
        let mut sim = ArraySimulator::new(4);
        sim.run(&generators::ghz(4));
        for q in 0..4 {
            assert!((sim.qubit_probability(q) - 0.5).abs() < TOL);
        }
        assert!((sim.probability(0) - 0.5).abs() < TOL);
        assert!((sim.probability(15) - 0.5).abs() < TOL);
    }

    #[test]
    fn from_state_round_trip() {
        let v = dense::simulate(&generators::w_state(4));
        let sim = ArraySimulator::from_state(v.clone(), 2);
        assert_eq!(sim.num_qubits(), 4);
        assert!(state_distance(sim.state(), &v) < TOL);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let mut sim = ArraySimulator::new(3);
        sim.run(&generators::ghz(4));
    }
}
