//! DMAV without caching (Section 3.2.1, Algorithm 1, Figure 5).
//!
//! Multiplies a **DD-based gate matrix** by an **array-based state vector**:
//! `Assign` recursively splits the matrix into `h x h` sub-matrices down to
//! the *border level* `n - log2(t) - 1`, pairing each with sub-vector start
//! indices and accumulated weight products per thread; `Run` then evaluates
//! every task with a recursive descent whose terminal case is a single MAC
//! `W[I_W] += f_r * M_r.w * V[I_V]`.
//!
//! Each thread owns rows `[tid*h, (tid+1)*h)` of the output (row-space
//! evaluation), so the parallel writes are disjoint by construction.

use crate::error::FlatDdError;
use crate::pool::ThreadPool;
use qarray::{vecops, SyncUnsafeSlice};
use qcircuit::Complex64;
use qdd::{DdPackage, MEdge};

/// The per-thread multiplication tasks produced by `Assign`
/// (the paper's `v_M`, `v_V`, `v_f`).
pub struct DmavAssignment {
    /// Thread count (power of two).
    pub t: usize,
    /// Sub-vector size `h = 2^n / t`.
    pub h: usize,
    /// Qubit count.
    pub n: usize,
    /// Sub-matrix DD edges per thread (`v_M`).
    pub m_edges: Vec<Vec<MEdge>>,
    /// Sub-vector start indices in `V` per thread (`v_V`).
    pub iv: Vec<Vec<usize>>,
    /// Weight products along the descent, excluding the stored edge's own
    /// weight (`v_f`).
    pub f: Vec<Vec<Complex64>>,
}

impl DmavAssignment {
    /// Runs `Assign` (Algorithm 1, lines 8-14) for matrix `m` over `n`
    /// qubits on `t` threads. Panicking wrapper over [`Self::try_build`]
    /// for callers that have already validated `t` (tests, benches).
    pub fn build(pkg: &DdPackage, m: MEdge, n: usize, t: usize) -> Self {
        Self::try_build(pkg, m, n, t).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible `Assign`: `t` must be a power of two with `log2(t) <= n`,
    /// otherwise [`FlatDdError::InvalidInput`] is returned.
    pub fn try_build(pkg: &DdPackage, m: MEdge, n: usize, t: usize) -> Result<Self, FlatDdError> {
        if !t.is_power_of_two() {
            return Err(FlatDdError::InvalidInput(format!(
                "thread count must be a power of two, got {t}"
            )));
        }
        let log_t = t.trailing_zeros() as usize;
        if log_t > n {
            return Err(FlatDdError::InvalidInput(format!(
                "need log2(t) <= n for the border-level scheme, got t={t} n={n}"
            )));
        }
        let mut asg = DmavAssignment {
            t,
            h: (1usize << n) / t,
            n,
            m_edges: vec![Vec::new(); t],
            iv: vec![Vec::new(); t],
            f: vec![Vec::new(); t],
        };
        let border = n as i64 - log_t as i64 - 1;
        asg.assign(pkg, m, Complex64::ONE, 0, 0, n as i64 - 1, border);
        Ok(asg)
    }

    /// Total number of tasks across threads.
    pub fn total_tasks(&self) -> usize {
        self.m_edges.iter().map(|v| v.len()).sum()
    }

    /// Heap bytes held by the task lists (for plan-cache accounting).
    pub fn memory_bytes(&self) -> usize {
        let per_task = std::mem::size_of::<MEdge>()
            + std::mem::size_of::<usize>()
            + std::mem::size_of::<Complex64>();
        self.m_edges
            .iter()
            .map(|v| v.capacity() * per_task)
            .sum::<usize>()
            + 3 * self.t * std::mem::size_of::<Vec<()>>()
    }

    // The argument list mirrors Assign/AssignCache in the paper verbatim.
    #[allow(clippy::too_many_arguments)]
    fn assign(
        &mut self,
        pkg: &DdPackage,
        m_r: MEdge,
        f_r: Complex64,
        u: usize,
        i_v: usize,
        l: i64,
        border: i64,
    ) {
        if m_r.is_zero() {
            return;
        }
        if l == border {
            self.m_edges[u].push(m_r);
            self.iv[u].push(i_v);
            self.f[u].push(f_r);
            return;
        }
        let node = pkg.m_node(m_r.n);
        debug_assert_eq!(node.level as i64, l);
        let e = node.e;
        let w = f_r * pkg.cval(m_r.w);
        let stride = self.t >> (self.n as i64 - l) as usize; // t / 2^(n-l)
        for i in 0..2usize {
            for j in 0..2usize {
                self.assign(
                    pkg,
                    e[2 * i + j],
                    w,
                    u + i * stride,
                    i_v + (j << l),
                    l - 1,
                    border,
                );
            }
        }
    }
}

/// `Run` (Algorithm 1, lines 16-22): evaluates one task into the thread's
/// output chunk. `i_w` is relative to the chunk; `i_v` absolute into `V`.
///
/// Three structural fast paths keep the *average* per-MAC cost constant
/// (the indexing-efficiency claim of Section 3.2.1):
/// * edge weights of 1 (the common case after normalization) skip the
///   complex multiply,
/// * scalar-identity blocks — which dominate single-qubit gate DDs —
///   become a single SIMD-friendly axpy over the whole block,
/// * level-0 nodes are unrolled instead of recursed into.
pub(crate) fn run_task(
    pkg: &DdPackage,
    m_r: MEdge,
    v: &[Complex64],
    w: &mut [Complex64],
    i_v: usize,
    i_w: usize,
    f_r: Complex64,
) {
    if m_r.is_zero() {
        return;
    }
    if m_r.is_terminal() {
        w[i_w] = w[i_w].mac(f_r * pkg.cval(m_r.w), v[i_v]);
        return;
    }
    let f = if m_r.w.is_one() {
        f_r
    } else {
        f_r * pkg.cval(m_r.w)
    };
    let node = pkg.m_node(m_r.n);
    let l = node.level as usize;
    if pkg.identity_node_id(node.level) == Some(m_r.n) {
        // f * identity block: W[i_w..] += f * V[i_v..].
        let len = 1usize << (l + 1);
        vecops::axpy(&mut w[i_w..i_w + len], f, &v[i_v..i_v + len]);
        return;
    }
    if l == 0 {
        // Children are terminal: one dense 2x2 MAC (zero edges contribute
        // exact-zero coefficients, which the kernel multiplies out).
        let mut m = [Complex64::ZERO; 4];
        for (k, c) in m.iter_mut().enumerate() {
            let e = node.e[k];
            if !e.is_zero() {
                *c = f * pkg.cval(e.w);
            }
        }
        vecops::mac2x2(&mut w[i_w..i_w + 2], &m, v[i_v], v[i_v + 1]);
        return;
    }
    for i in 0..2usize {
        for j in 0..2usize {
            run_task(
                pkg,
                node.e[2 * i + j],
                v,
                w,
                i_v + (j << l),
                i_w + (i << l),
                f,
            );
        }
    }
}

/// DMAV without caching: `W = M * V` with `M` a matrix DD and `V`, `W` flat
/// arrays. `w` is fully overwritten.
///
/// The assignment's `asg.t` groups are the dispatch shards: each group owns
/// output rows `[g*h, (g+1)*h)` and [`ThreadPool::for_each_shard`] hands
/// groups to workers, so a worker keeps writing the shards it
/// first-touched whatever the pool size.
pub fn dmav_no_cache(
    pkg: &DdPackage,
    asg: &DmavAssignment,
    v: &[Complex64],
    w: &mut [Complex64],
    pool: &ThreadPool,
) {
    assert_eq!(v.len(), 1usize << asg.n);
    assert_eq!(w.len(), v.len());
    let view = SyncUnsafeSlice::new(w);
    let h = asg.h;
    pool.for_each_shard(asg.t, |g| {
        // SAFETY: group `g` exclusively owns output rows [g*h, (g+1)*h) —
        // the row-space partition of Algorithm 1 — and each group runs on
        // exactly one worker.
        let chunk = unsafe { view.slice_mut(g * h, h) };
        // Each worker zeroes its own rows: first-touch locality, and the
        // dispatcher does not walk all 2^n amplitudes serially.
        chunk.fill(Complex64::ZERO);
        for j in 0..asg.m_edges[g].len() {
            run_task(
                pkg,
                asg.m_edges[g][j],
                v,
                chunk,
                asg.iv[g][j],
                0,
                asg.f[g][j],
            );
        }
    });
}

/// Convenience: assignment + execution in one call.
pub fn dmav(pkg: &DdPackage, m: MEdge, v: &[Complex64], w: &mut [Complex64], pool: &ThreadPool) {
    let n = v.len().trailing_zeros() as usize;
    let asg = DmavAssignment::build(pkg, m, n, pool.size());
    dmav_no_cache(pkg, &asg, v, w, pool);
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::complex::state_distance;
    use qcircuit::gate::{Control, Gate, GateKind};
    use qcircuit::{dense, generators};

    const TOL: f64 = 1e-9;

    fn rand_state(n: usize, seed: u64) -> Vec<Complex64> {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x as f64 / u64::MAX as f64) - 0.5
        };
        (0..(1usize << n))
            .map(|_| Complex64::new(next(), next()))
            .collect()
    }

    fn check_gate(g: &Gate, n: usize, t: usize) {
        let pkg = DdPackage::default();
        let m = pkg.gate_dd(g, n);
        let v = rand_state(n, 7);
        let mut w = vec![Complex64::ZERO; 1 << n];
        let pool = ThreadPool::new(t);
        dmav(&pkg, m, &v, &mut w, &pool);
        let mut want = v.clone();
        dense::apply_gate(&mut want, g);
        assert!(state_distance(&w, &want) < TOL, "gate {g} n={n} t={t}");
    }

    #[test]
    fn single_thread_matches_dense() {
        for g in [
            Gate::new(GateKind::H, 0),
            Gate::new(GateKind::H, 4),
            Gate::new(GateKind::T, 2),
            Gate::controlled(GateKind::X, 1, vec![Control::pos(3)]),
            Gate::controlled(GateKind::Z, 4, vec![Control::pos(0)]),
        ] {
            check_gate(&g, 5, 1);
        }
    }

    #[test]
    fn multi_thread_matches_dense() {
        for t in [2usize, 4, 8] {
            for g in [
                Gate::new(GateKind::H, 0),
                Gate::new(GateKind::H, 5),
                Gate::new(GateKind::RY(0.9), 3),
                Gate::controlled(GateKind::X, 2, vec![Control::pos(5)]),
                Gate::controlled(GateKind::H, 5, vec![Control::neg(1)]),
                Gate::controlled(GateKind::X, 0, vec![Control::pos(2), Control::pos(4)]),
            ] {
                check_gate(&g, 6, t);
            }
        }
    }

    #[test]
    fn figure_5_shape_two_threads_three_qubits() {
        // n=3, t=2: border level q1. H on the top qubit gives each thread
        // two tasks (a*m2*V[0:4] / b*m2*V[4:8] for the blue thread).
        let pkg = DdPackage::default();
        let m = pkg.gate_dd(&Gate::new(GateKind::H, 2), 3);
        let asg = DmavAssignment::build(&pkg, m, 3, 2);
        assert_eq!(asg.h, 4);
        assert_eq!(asg.m_edges[0].len(), 2);
        assert_eq!(asg.m_edges[1].len(), 2);
        assert_eq!(asg.iv[0], vec![0, 4]);
        assert_eq!(asg.iv[1], vec![0, 4]);
        // Both of thread 0's tasks reference the same sub-matrix node (m2).
        assert_eq!(asg.m_edges[0][0].n, asg.m_edges[0][1].n);
    }

    #[test]
    fn zero_blocks_produce_no_tasks() {
        // A controlled gate's matrix has zero off-diagonal blocks at the
        // control level, so threads covering those rows get fewer tasks.
        let pkg = DdPackage::default();
        let g = Gate::controlled(GateKind::X, 0, vec![Control::pos(3)]);
        let m = pkg.gate_dd(&g, 4);
        let asg = DmavAssignment::build(&pkg, m, 4, 2);
        // Block structure: diag(I, X_block) — each thread exactly one task.
        assert_eq!(asg.m_edges[0].len(), 1);
        assert_eq!(asg.m_edges[1].len(), 1);
        assert_eq!(asg.iv[0], vec![0]);
        assert_eq!(asg.iv[1], vec![8]);
    }

    #[test]
    fn fused_matrices_multiply_correctly() {
        // DMAV must work for arbitrary (non-gate) DDs, e.g. fused products.
        let n = 5;
        let c = generators::random_circuit(n, 10, 3);
        let pkg = DdPackage::default();
        let mut fused = pkg.identity_dd(n);
        for g in c.iter() {
            let gd = pkg.gate_dd(g, n);
            fused = pkg.mul_mm(gd, fused);
        }
        let v = rand_state(n, 5);
        let mut w = vec![Complex64::ZERO; 1 << n];
        let pool = ThreadPool::new(4);
        dmav(&pkg, fused, &v, &mut w, &pool);
        let mut want = v.clone();
        for g in c.iter() {
            dense::apply_gate(&mut want, g);
        }
        assert!(state_distance(&w, &want) < TOL);
    }

    #[test]
    fn whole_circuit_via_dmav_matches_dense() {
        let n = 6;
        let c = generators::supremacy(2, 3, 5, 9);
        let pkg = DdPackage::default();
        let pool = ThreadPool::new(4);
        let mut v = dense::zero_state(n);
        let mut w = vec![Complex64::ZERO; 1 << n];
        for g in c.iter() {
            let m = pkg.gate_dd(g, n);
            dmav(&pkg, m, &v, &mut w, &pool);
            std::mem::swap(&mut v, &mut w);
        }
        assert!(state_distance(&v, &dense::simulate(&c)) < TOL);
    }

    #[test]
    fn shard_count_decoupled_from_pool_size() {
        // The assignment's group count (shards) no longer has to match the
        // pool: workers claim groups round-robin.
        let n = 6;
        let pkg = DdPackage::default();
        let g = Gate::controlled(GateKind::H, 5, vec![Control::neg(1)]);
        let m = pkg.gate_dd(&g, n);
        let v = rand_state(n, 11);
        let mut want = v.clone();
        dense::apply_gate(&mut want, &g);
        for (threads, shards) in [(2usize, 8usize), (4, 2), (1, 4), (3, 8), (4, 16)] {
            let asg = DmavAssignment::build(&pkg, m, n, shards);
            let mut w = vec![Complex64::ZERO; 1 << n];
            let pool = ThreadPool::new(threads);
            dmav_no_cache(&pkg, &asg, &v, &mut w, &pool);
            assert!(state_distance(&w, &want) < TOL, "t={threads} s={shards}");
        }
    }

    #[test]
    fn t_equals_dimension_over_two_is_supported() {
        // log2(t) == n - 1: border level 0, tasks are level-0 edges.
        check_gate(&Gate::new(GateKind::H, 1), 3, 4);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_threads_panics() {
        let pkg = DdPackage::default();
        let m = pkg.gate_dd(&Gate::new(GateKind::H, 0), 3);
        DmavAssignment::build(&pkg, m, 3, 3);
    }

    #[test]
    fn try_build_reports_invalid_input() {
        let pkg = DdPackage::default();
        let m = pkg.gate_dd(&Gate::new(GateKind::H, 0), 3);
        for t in [3usize, 16] {
            match DmavAssignment::try_build(&pkg, m, 3, t) {
                Err(FlatDdError::InvalidInput(msg)) => {
                    assert!(
                        msg.contains("power of two") || msg.contains("log2"),
                        "{msg}"
                    );
                }
                Err(e) => panic!("wrong error class for t={t}: {e}"),
                Ok(_) => panic!("expected InvalidInput for t={t}"),
            }
        }
        assert!(DmavAssignment::try_build(&pkg, m, 3, 4).is_ok());
    }
}
