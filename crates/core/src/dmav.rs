//! DMAV without caching (Section 3.2.1, Algorithm 1, Figure 5).
//!
//! Multiplies a **DD-based gate matrix** by an **array-based state vector**:
//! `Assign` recursively splits the matrix into `h x h` sub-matrices down to
//! the *border level* `n - log2(t) - 1`, pairing each with sub-vector start
//! indices and accumulated weight products per thread; `Run` then evaluates
//! every task into the thread's rows of `W`.
//!
//! Each thread owns rows `[tid*h, (tid+1)*h)` of the output (row-space
//! evaluation), so the parallel writes are disjoint by construction.
//!
//! `Assign` also *compiles* the sub-DD under its task edges into a
//! `Program`: a small table of nodes with resolved weights, each
//! classified once. `Run` walks only that table — no package call, lock or
//! interned-weight lookup per amplitude — and writes every output element
//! exactly once before accumulating into it, so `W` is never zero-filled
//! (DESIGN.md §8.1).

use crate::error::FlatDdError;
use crate::pool::ThreadPool;
use qarray::{vecops, SyncUnsafeSlice};
use qcircuit::Complex64;
use qdd::fxhash::FxHashMap;
use qdd::{DdPackage, MEdge, TERM};

/// Marks a zero edge among the children of an [`Op::General`] node.
const NO_CHILD: u32 = u32::MAX - 1;

/// One node of a compiled program: what it does to the `2^(level+1)`
/// amplitudes it spans, with every weight resolved to its value.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// The identity node of its level: `w = f * v` over the whole span.
    Identity,
    /// `I (x) U (x) I_half`: all four children are identity, terminal or
    /// zero, so every `2 * half`-sized block of the span is one 2x2 block
    /// product. A chain of `I_2 (x) .` nodes above such a node is folded in
    /// (same `half`, weights multiplied), which is how a gate on a low
    /// qubit becomes a single strided loop instead of a descent per block.
    Kron { half: usize, u: [Complex64; 4] },
    /// `I (x) base`, for a chain of `I_2 (x) .` nodes that ends in a
    /// [`Op::General`] node spanning `block` amplitudes; `w` is the product
    /// of the chain's weights.
    Lift {
        base: u32,
        w: Complex64,
        block: usize,
    },
    /// Anything else: four children ([`NO_CHILD`] for a zero edge), each
    /// the next level's node on half of the span.
    General { child: [u32; 4], w: [Complex64; 4] },
}

/// The sub-DD under a plan's task edges as a package-independent table:
/// built once by `Assign`/`AssignCache`, memoized with the plan, and the
/// only thing `Run` reads. Children precede their parents.
#[derive(Debug)]
pub(crate) struct Program {
    ops: Vec<Op>,
}

/// Where a task enters its [`Program`]: the table index of the task edge's
/// node ([`TERM`] when the edge is terminal, i.e. `h == 1`) and the task's
/// whole linear factor — `v_f` times the edge's own weight, resolved.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Entry {
    pub(crate) op: u32,
    pub(crate) f: Complex64,
}

/// Builds a [`Program`] from the task edges of one assignment. Visits each
/// reachable node once (identity and Kronecker sub-DDs are not entered), so
/// a build is O(reachable nodes), never O(2^n).
struct Compiler<'a> {
    pkg: &'a DdPackage,
    /// Identity node id per level, read under one lock for the whole build.
    identity: Vec<u32>,
    /// Package node id -> table index.
    index: FxHashMap<u32, u32>,
    ops: Vec<Op>,
}

impl Compiler<'_> {
    /// Table index of package node `id`, compiling it on first sight.
    fn node(&mut self, id: u32) -> u32 {
        if id == TERM {
            return TERM;
        }
        if let Some(&i) = self.index.get(&id) {
            return i;
        }
        let node = *self.pkg.m_node(id);
        let l = node.level as usize;
        let w = node.e.map(|e| self.pkg.cval(e.w));
        let kron_child = |e: &MEdge| {
            e.is_zero()
                || if l == 0 {
                    e.is_terminal()
                } else {
                    self.identity.get(l - 1) == Some(&e.n)
                }
        };
        let op = if self.identity.get(l) == Some(&id) {
            Op::Identity
        } else if node.e.iter().all(kron_child) {
            Op::Kron { half: 1 << l, u: w }
        } else if node.e[1].is_zero() && node.e[2].is_zero() && node.e[0] == node.e[3] {
            // I_2 (x) child: fold into what the child compiled to.
            let c = self.node(node.e[0].n);
            match self.ops[c as usize] {
                Op::Kron { half, u } => Op::Kron {
                    half,
                    u: u.map(|x| w[0] * x),
                },
                Op::Lift {
                    base,
                    w: below,
                    block,
                } => Op::Lift {
                    base,
                    w: w[0] * below,
                    block,
                },
                // (An identity child cannot get here: the Kronecker test
                // above has caught it. The arm is right for it all the same.)
                Op::General { .. } | Op::Identity => Op::Lift {
                    base: c,
                    w: w[0],
                    block: 1 << l,
                },
            }
        } else {
            let mut child = [NO_CHILD; 4];
            for (c, e) in child.iter_mut().zip(&node.e) {
                if !e.is_zero() {
                    *c = self.node(e.n);
                }
            }
            Op::General { child, w }
        };
        let i = self.ops.len() as u32;
        self.ops.push(op);
        self.index.insert(id, i);
        i
    }
}

impl Program {
    /// Compiles the sub-DD under the task edges `m_edges` of an assignment
    /// over `n` qubits, whose weight products so far are `f` (same shape).
    /// Returns the table and, per task, its [`Entry`].
    pub(crate) fn compile(
        pkg: &DdPackage,
        n: usize,
        m_edges: &[Vec<MEdge>],
        f: &[Vec<Complex64>],
    ) -> (Program, Vec<Vec<Entry>>) {
        let mut compiler = Compiler {
            pkg,
            identity: pkg.identity_node_ids(n),
            index: FxHashMap::default(),
            ops: Vec::new(),
        };
        let entries = m_edges
            .iter()
            .zip(f)
            .map(|(edges, fs)| {
                edges
                    .iter()
                    .zip(fs)
                    .map(|(e, &f_r)| Entry {
                        op: compiler.node(e.n),
                        f: f_r * pkg.cval(e.w),
                    })
                    .collect()
            })
            .collect();
        (Program { ops: compiler.ops }, entries)
    }

    /// Heap bytes of the table (for plan-cache accounting).
    pub(crate) fn memory_bytes(&self) -> usize {
        self.ops.capacity() * std::mem::size_of::<Op>()
    }

    /// `w = f * M * v` (`acc == false`) or `w += f * M * v` (`acc == true`)
    /// for the sub-matrix `M` under table node `op`; `v` and `w` are exactly
    /// the amplitudes the node spans.
    ///
    /// Write-once rule: with `acc == false` every element of `w` is stored
    /// exactly once and never read, so the caller need not have zeroed it.
    /// Per output row of a [`Op::General`] node the first non-zero column
    /// stores, later columns accumulate, and a row with no non-zero column
    /// is filled with zeros.
    pub(crate) fn run(
        &self,
        op: u32,
        f: Complex64,
        v: &[Complex64],
        w: &mut [Complex64],
        acc: bool,
    ) {
        debug_assert_eq!(v.len(), w.len());
        if op == TERM {
            w[0] = if acc { w[0].mac(f, v[0]) } else { f * v[0] };
            return;
        }
        match self.ops[op as usize] {
            Op::Identity if acc => vecops::axpy(w, f, v),
            Op::Identity => vecops::scale(w, f, v),
            Op::Kron { half, u } => {
                let m = u.map(|x| f * x);
                if acc {
                    vecops::block2x2_acc(w, &m, v, half);
                } else {
                    vecops::block2x2(w, &m, v, half);
                }
            }
            Op::Lift {
                base,
                w: below,
                block,
            } => {
                let f = f * below;
                for (w_b, v_b) in w.chunks_exact_mut(block).zip(v.chunks_exact(block)) {
                    self.run(base, f, v_b, w_b, acc);
                }
            }
            Op::General { child, w: cw } => {
                let half = w.len() / 2;
                let (w_lo, w_hi) = w.split_at_mut(half);
                let v_halves = v.split_at(half);
                for (i, w_i) in [w_lo, w_hi].into_iter().enumerate() {
                    let mut written = acc;
                    for (j, v_j) in [v_halves.0, v_halves.1].into_iter().enumerate() {
                        let k = 2 * i + j;
                        if child[k] != NO_CHILD {
                            self.run(child[k], f * cw[k], v_j, w_i, written);
                            written = true;
                        }
                    }
                    if !written {
                        w_i.fill(Complex64::ZERO);
                    }
                }
            }
        }
    }
}

/// Which side of a sub-matrix block picks the group that evaluates it: its
/// row (`Assign`, Algorithm 1) or its column (`AssignCache`, Algorithm 2).
#[derive(Clone, Copy)]
pub(crate) enum Space {
    Row,
    Column,
}

/// What the descent to the border level yields per group: the paper's
/// `v_M`, `v_V` (row space) or `v_P` (column space), and `v_f`.
pub(crate) struct TaskLists {
    pub(crate) m_edges: Vec<Vec<MEdge>>,
    /// Start index of each task's sub-vector on the side its group does
    /// not own: in `V` for [`Space::Row`], in the output for
    /// [`Space::Column`].
    pub(crate) at: Vec<Vec<usize>>,
    pub(crate) f: Vec<Vec<Complex64>>,
}

/// `Assign` (Algorithm 1, lines 8-14) and `AssignCache` (Algorithm 2,
/// lines 16-21) for matrix `m` over `n` qubits in `t` groups: `t` must be a
/// power of two with `log2(t) <= n`, otherwise
/// [`FlatDdError::InvalidInput`] is returned.
pub(crate) fn assign_tasks(
    pkg: &DdPackage,
    m: MEdge,
    n: usize,
    t: usize,
    space: Space,
) -> Result<TaskLists, FlatDdError> {
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
    let mut descent = Descent {
        pkg,
        n,
        t,
        border: n as i64 - log_t as i64 - 1,
        space,
        tasks: TaskLists {
            m_edges: vec![Vec::new(); t],
            at: vec![Vec::new(); t],
            f: vec![Vec::new(); t],
        },
    };
    descent.assign(m, Complex64::ONE, 0, 0, n as i64 - 1);
    Ok(descent.tasks)
}

/// The recursion of [`assign_tasks`] and what it carries unchanged.
struct Descent<'a> {
    pkg: &'a DdPackage,
    n: usize,
    t: usize,
    border: i64,
    space: Space,
    tasks: TaskLists,
}

impl Descent<'_> {
    fn assign(&mut self, m_r: MEdge, f_r: Complex64, u: usize, at: usize, l: i64) {
        if m_r.is_zero() {
            return;
        }
        if l == self.border {
            self.tasks.m_edges[u].push(m_r);
            self.tasks.at[u].push(at);
            self.tasks.f[u].push(f_r);
            return;
        }
        let pkg = self.pkg;
        let node = pkg.m_node(m_r.n);
        debug_assert_eq!(node.level as i64, l);
        let e = node.e;
        let w = f_r * pkg.cval(m_r.w);
        // t / 2^(n-l)
        let stride = self.t >> (self.n as i64 - l) as usize;
        // Group-major traversal: the group index follows the block's row
        // `i` in row space and its column `j` in column space (Algorithm 2,
        // lines 20-21); the sub-vector index follows the other one.
        for own in 0..2usize {
            for other in 0..2usize {
                let (i, j) = match self.space {
                    Space::Row => (own, other),
                    Space::Column => (other, own),
                };
                self.assign(e[2 * i + j], w, u + own * stride, at + (other << l), l - 1);
            }
        }
    }
}

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
    /// The sub-DD under `m_edges`, compiled; what `Run` executes.
    program: Program,
    /// Per task, its entry into `program` (parallel to `m_edges`).
    entries: Vec<Vec<Entry>>,
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
        let tasks = assign_tasks(pkg, m, n, t, Space::Row)?;
        let (program, entries) = Program::compile(pkg, n, &tasks.m_edges, &tasks.f);
        Ok(DmavAssignment {
            t,
            h: (1usize << n) / t,
            n,
            m_edges: tasks.m_edges,
            iv: tasks.at,
            f: tasks.f,
            program,
            entries,
        })
    }

    /// Total number of tasks across threads.
    pub fn total_tasks(&self) -> usize {
        self.m_edges.iter().map(|v| v.len()).sum()
    }

    /// Heap bytes held by the task lists and the compiled program (for
    /// plan-cache accounting).
    pub fn memory_bytes(&self) -> usize {
        task_list_bytes(&self.m_edges)
            + self.program.memory_bytes()
            + 4 * self.t * std::mem::size_of::<Vec<()>>()
    }
}

/// Heap bytes of the per-task vectors (edge, index, weight product, entry)
/// of either assignment kind.
pub(crate) fn task_list_bytes(m_edges: &[Vec<MEdge>]) -> usize {
    let per_task = std::mem::size_of::<MEdge>()
        + std::mem::size_of::<usize>()
        + std::mem::size_of::<Complex64>()
        + std::mem::size_of::<Entry>();
    m_edges.iter().map(|v| v.capacity() * per_task).sum()
}

/// DMAV without caching: `W = M * V` with `M` a matrix DD and `V`, `W` flat
/// arrays. `w` is fully overwritten; what it held before is never read.
///
/// `Run` (Algorithm 1, lines 16-22) executes the assignment's compiled
/// program; the package is not consulted. The assignment's `asg.t` groups
/// are the dispatch shards: each group owns output rows `[g*h, (g+1)*h)`
/// and [`ThreadPool::for_each_shard`] hands groups to workers, so a worker
/// keeps writing the shards it first-touched whatever the pool size.
pub fn dmav_no_cache(
    _pkg: &DdPackage,
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
        // Every task of the group covers all `h` rows from another column
        // block: the first stores, the rest accumulate.
        for (j, (entry, &i_v)) in asg.entries[g].iter().zip(&asg.iv[g]).enumerate() {
            asg.program
                .run(entry.op, entry.f, &v[i_v..i_v + h], chunk, j > 0);
        }
        if asg.entries[g].is_empty() {
            chunk.fill(Complex64::ZERO);
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

    /// Largest element-wise error; infinite when `got` holds a NaN
    /// (`state_distance` folds with `f64::max`, which drops NaNs).
    fn max_err(got: &[Complex64], want: &[Complex64]) -> f64 {
        got.iter().zip(want).fold(0.0, |acc: f64, (&a, &b)| {
            let d = (a - b).abs();
            if d.is_nan() {
                f64::INFINITY
            } else {
                acc.max(d)
            }
        })
    }

    /// Plain and cached DMAV of `m` over `t` groups on `pool`, each into a
    /// `W` pre-filled with NaN so a row the walk fails to store shows.
    fn both_variants(
        pkg: &DdPackage,
        m: MEdge,
        n: usize,
        t: usize,
        pool: &ThreadPool,
        v: &[Complex64],
    ) -> [Vec<Complex64>; 2] {
        use crate::dmav_cache::{dmav_cached, DmavCacheAssignment, PartialBuffers};
        let nan = Complex64::new(f64::NAN, f64::NAN);
        let mut plain = vec![nan; 1 << n];
        dmav_no_cache(
            pkg,
            &DmavAssignment::build(pkg, m, n, t),
            v,
            &mut plain,
            pool,
        );
        let mut cached = vec![nan; 1 << n];
        let asg = DmavCacheAssignment::build(pkg, m, n, t);
        dmav_cached(
            pkg,
            &asg,
            v,
            &mut cached,
            pool,
            &mut PartialBuffers::default(),
        );
        [plain, cached]
    }

    #[test]
    fn compiled_walk_matches_dense_on_the_whole_gate_grid() {
        // Every gate kind x every target x seven control shapes x group
        // counts up to `2^(n-1)` (border level 0) on pools of another size
        // x {plain, cached}.
        let n = 6;
        let unitary = {
            let (h, t) = (GateKind::H.matrix(), GateKind::T.matrix());
            [h[0] * t[0], h[1] * t[3], h[2] * t[0], h[3] * t[3]]
        };
        let kinds = [
            GateKind::Id,
            GateKind::X,
            GateKind::Y,
            GateKind::Z,
            GateKind::H,
            GateKind::S,
            GateKind::Sdg,
            GateKind::T,
            GateKind::Tdg,
            GateKind::SqrtX,
            GateKind::SqrtXdg,
            GateKind::SqrtY,
            GateKind::SqrtYdg,
            GateKind::SqrtW,
            GateKind::RX(0.7),
            GateKind::RY(-1.3),
            GateKind::RZ(2.1),
            GateKind::Phase(0.4),
            GateKind::U(0.3, 1.1, -0.8),
            GateKind::Unitary(unitary),
        ];
        let pools = [ThreadPool::new(1), ThreadPool::new(2), ThreadPool::new(3)];
        // (groups, index of a pool whose size differs from it)
        let geometries = [(1usize, 1usize), (2, 2), (4, 0), (8, 2), (32, 1)];
        let v = rand_state(n, 41);
        for kind in kinds {
            for q in 0..n {
                let below = if q > 0 { q - 1 } else { q + 2 };
                let above = if q < n - 1 { q + 1 } else { q - 2 };
                let control_shapes = [
                    vec![],
                    vec![Control::pos(above)],
                    vec![Control::pos(below)],
                    vec![Control::neg((q + 3) % n)],
                    vec![Control::pos((q + 3) % n)],
                    vec![Control::pos(below), Control::neg(above)],
                    vec![Control::pos(below), Control::pos(above)],
                ];
                for controls in control_shapes {
                    let g = Gate::controlled(kind, q, controls);
                    let mut want = v.clone();
                    dense::apply_gate(&mut want, &g);
                    let pkg = DdPackage::default();
                    let m = pkg.gate_dd(&g, n);
                    for (t, pool) in geometries {
                        for (got, variant) in both_variants(&pkg, m, n, t, &pools[pool], &v)
                            .iter()
                            .zip(["plain", "cached"])
                        {
                            let err = max_err(got, &want);
                            assert!(err < 1e-12, "{variant} {g} t={t}: {err:e}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn compiled_walk_matches_the_dd_matrix_on_random_fused_products() {
        // Products of 10-30 random gates: general nodes at every level. The
        // oracle is the DD's own dense matrix, so interning error inside
        // `mul_mm` is not the walk's to answer for.
        let pool = ThreadPool::new(3);
        for (n, gates, seed) in [(5usize, 10usize, 3u64), (6, 17, 5), (7, 24, 7), (8, 30, 9)] {
            let pkg = DdPackage::default();
            let mut fused = pkg.identity_dd(n);
            for g in generators::random_circuit(n, gates, seed).iter() {
                fused = pkg.mul_mm(pkg.gate_dd(g, n), fused);
            }
            let dim = 1usize << n;
            let dense_m = pkg.matrix_to_dense(fused, n);
            let v = rand_state(n, seed);
            let want: Vec<Complex64> = (0..dim)
                .map(|r| {
                    (0..dim).fold(Complex64::ZERO, |acc, c| {
                        acc.mac(dense_m[r * dim + c], v[c])
                    })
                })
                .collect();
            for t in [1usize, 2, 4, 8] {
                for (got, variant) in both_variants(&pkg, fused, n, t, &pool, &v)
                    .iter()
                    .zip(["plain", "cached"])
                {
                    let err = max_err(got, &want);
                    assert!(err < 1e-12, "{variant} n={n} t={t}: {err:e}");
                }
            }
        }
    }

    #[test]
    fn low_target_gates_compile_to_one_strided_block_op() {
        // H on qubit 0 of 12: eleven `I_2 (x) .` nodes over `H (x) I_1`
        // fold into the entry op, a Kron of half 1 — no descent per pair.
        let n = 12;
        let pkg = DdPackage::default();
        let m = pkg.gate_dd(&Gate::new(GateKind::H, 0), n);
        let asg = DmavAssignment::build(&pkg, m, n, 1);
        let entry = asg.entries[0][0];
        assert!(matches!(
            asg.program.ops[entry.op as usize],
            Op::Kron { half: 1, .. }
        ));
        // The identity sub-DD of a controlled gate is one op, not a chain.
        let cx = Gate::controlled(GateKind::X, 3, vec![Control::pos(9)]);
        let asg = DmavAssignment::build(&pkg, pkg.gate_dd(&cx, n), n, 1);
        let identities = asg
            .program
            .ops
            .iter()
            .filter(|op| matches!(op, Op::Identity))
            .count();
        assert_eq!(identities, 1);
        assert!(asg.program.ops.len() <= n);
    }

    #[test]
    fn terminal_task_edges_run_when_h_is_one() {
        // t = 2^n: the border is below level 0 and every task edge is
        // terminal.
        let n = 3;
        let g = Gate::controlled(GateKind::H, 1, vec![Control::pos(0)]);
        let pkg = DdPackage::default();
        let m = pkg.gate_dd(&g, n);
        let v = rand_state(n, 13);
        let mut want = v.clone();
        dense::apply_gate(&mut want, &g);
        let pool = ThreadPool::new(2);
        for got in both_variants(&pkg, m, n, 8, &pool, &v) {
            assert!(max_err(&got, &want) < 1e-12);
        }
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
