//! Parallel DD-phase execution: a task-graph parallelization of the
//! matrix-vector multiply on the workspace's fork-join [`ThreadPool`]
//! (re-exported here from its home, `qarray::pool`).
//!
//! The parallel multiply splits the recursion over the top `k` levels of
//! the DD into a task graph (`k = log2(t) + 2`, so there are at least ~4x
//! more leaf tasks than workers to balance uneven subtree sizes), runs the
//! leaves as ordinary sequential recursions over the shared concurrent
//! package, and then folds the split nodes bottom-up level by level. Every
//! arithmetic step performs *exactly* the operations of the sequential
//! recursion — same prologue (`DdPackage::mul_mv_prologue`), same
//! additions, same normalizations, same cache keys — so results agree with
//! the single-threaded path up to the interning order of the weights the
//! new nodes store.

use crate::fxhash::FxHashMap;
use crate::node::{Lazy, MEdge, VEdge};
use crate::ops::Product;
use crate::package::DdPackage;
pub use qarray::pool::ThreadPool;
use qcircuit::Complex64;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

// ---- parallel matrix-vector multiply ---------------------------------------

/// One child multiplication of a split node.
#[derive(Clone, Copy)]
enum Kid {
    /// Resolved during graph construction (zero, terminal or identity).
    Done(Lazy),
    /// `w * result(task)` once the task has run.
    Task { idx: u32, w: Complex64 },
}

enum TaskKind {
    /// Already resolved at build time (operation-cache hit).
    Resolved,
    /// Sequential `mul_mv_rec` below the split frontier.
    Leaf,
    /// `es[i] = add(kid[2i], kid[2i+1])`, then `make_vnode`.
    Split { level: u8, kids: [Kid; 4] },
}

/// A node of the multiply task graph, keyed by the `(matrix node, vector
/// node)` pair exactly like the sequential recursion's cache entries.
struct Task {
    mn: u32,
    vn: u32,
    depth: u32,
    kind: TaskKind,
    /// The product, set once: at build time for a resolved task, else by
    /// the one worker that runs the task. A split reads its kids' cells only
    /// in a later round — the pool barrier between rounds orders the `set`
    /// before the `get`, and the cell's own release/acquire publishes it.
    result: OnceLock<Lazy>,
}

struct Graph {
    tasks: Vec<Task>,
    /// `(mn, vn)` -> task index: shares repeated sub-multiplications just
    /// like the operation cache does in the sequential recursion.
    memo: FxHashMap<(u32, u32), u32>,
    max_split_depth: u32,
}

impl Graph {
    fn build(pkg: &DdPackage, mn: u32, vn: u32, split_below: u32) -> (Self, u32) {
        let mut g = Graph {
            tasks: Vec::new(),
            memo: FxHashMap::default(),
            max_split_depth: 0,
        };
        let root = g.visit(pkg, mn, vn, 0, split_below);
        (g, root)
    }

    fn visit(&mut self, pkg: &DdPackage, mn: u32, vn: u32, depth: u32, split_below: u32) -> u32 {
        if let Some(&i) = self.memo.get(&(mn, vn)) {
            return i;
        }
        let task = |kind, result| Task {
            mn,
            vn,
            depth,
            kind,
            result,
        };
        let idx = if let Some(hit) = pkg.compute.lookup_mv(mn, vn) {
            self.push(task(TaskKind::Resolved, OnceLock::from(hit)))
        } else if depth >= split_below {
            self.push(task(TaskKind::Leaf, OnceLock::new()))
        } else {
            let mnode = *pkg.m_node(mn);
            let vnode = *pkg.v_node(vn);
            let below = mnode.level.wrapping_sub(1);
            let mut kids = [Kid::Done(Lazy::ZERO); 4];
            for (k, kid) in kids.iter_mut().enumerate() {
                let (me, ve) = (mnode.e[k], vnode.e[k % 2]);
                *kid = match pkg.mul_mv_prologue(me, pkg.lazy_v(ve), below) {
                    Product::Done(e) => Kid::Done(e),
                    Product::Nodes(w) => Kid::Task {
                        idx: self.visit(pkg, me.n, ve.n, depth + 1, split_below),
                        w,
                    },
                };
            }
            self.max_split_depth = self.max_split_depth.max(depth);
            let level = mnode.level;
            self.push(task(TaskKind::Split { level, kids }, OnceLock::new()))
        };
        self.memo.insert((mn, vn), idx);
        idx
    }

    fn push(&mut self, t: Task) -> u32 {
        self.tasks.push(t);
        (self.tasks.len() - 1) as u32
    }

    /// Product of a task that ran in an earlier round.
    fn result(&self, idx: u32) -> Lazy {
        *self.tasks[idx as usize]
            .result
            .get()
            .expect("a task's kids ran in an earlier round")
    }
}

/// State-DD nodes per worker below which forking a gate apply onto the
/// pool costs more than it saves: the multiply fits in a handful of cache
/// lines and the fork-join barrier dominates.
pub const PAR_GRAIN_NODES: usize = 64;

/// Adaptive worker cap for a parallel DD gate apply: one worker per
/// [`PAR_GRAIN_NODES`] state-DD nodes, rounded down to a power of two
/// (`1` = run sequential). A fixed all-or-nothing size cutoff lets a
/// 16-thread pool shred a 100-node DD into sub-cache-line tasks — the
/// measured dd-scaling regression on shallow-reconvergent circuits (VQE);
/// capping workers by the work available keeps the per-task grain roughly
/// constant as the DD grows.
pub fn adaptive_parallel_cap(dd_size: usize) -> usize {
    let cap = dd_size / PAR_GRAIN_NODES;
    if cap < 2 {
        1
    } else {
        1usize << (usize::BITS - 1 - cap.leading_zeros())
    }
}

impl DdPackage {
    /// Parallel [`Self::mul_mv`]: splits the top levels of the recursion
    /// into a task graph executed on `pool`, with a sequential cutoff below
    /// the frontier. Falls back to the sequential path for a size-1 pool.
    ///
    /// Performs the same arithmetic (and feeds the same operation-cache
    /// entries) as the sequential multiply, so a 1-thread run is bit-for-bit
    /// identical and a t-thread run differs at most by the tolerance-bounded
    /// interning order of the weights new nodes store.
    pub fn mul_mv_parallel(&self, pool: &ThreadPool, m: MEdge, v: VEdge) -> VEdge {
        self.mul_mv_parallel_capped(pool, m, v, pool.size())
    }

    /// [`Self::mul_mv_parallel`] with the effective worker count capped at
    /// `max_workers` (further capped by the pool size). The cap bounds the
    /// split frontier, so a small state DD is not shredded into tasks far
    /// smaller than the fork-join barrier it pays for; a cap of 1 is the
    /// exact sequential multiply. Idle pool workers still help drain the
    /// task rounds — the cap shapes the graph, not the pool.
    pub fn mul_mv_parallel_capped(
        &self,
        pool: &ThreadPool,
        m: MEdge,
        v: VEdge,
        max_workers: usize,
    ) -> VEdge {
        let t = pool.size().min(max_workers.max(1));
        if t <= 1 {
            return self.mul_mv(m, v);
        }
        let w = match self.mul_mv_prologue(m, self.lazy_v(v), self.m_level(m)) {
            Product::Done(e) => return self.intern_v(e),
            Product::Nodes(w) => w,
        };
        // Split the top k levels: ~4^k potential leaves bound the frontier,
        // but structural sharing usually collapses that to a few times the
        // worker count — enough slack to balance uneven subtrees.
        let split_below = t.trailing_zeros() + 2;
        let (graph, root) = Graph::build(self, m.n, v.n, split_below);
        self.execute(pool, &graph);
        self.intern_v(self.scaled(graph.result(root), w))
    }

    /// Runs the graph: all leaves first (they are mutually independent),
    /// then the split levels bottom-up. The pool barrier between rounds is
    /// what publishes results to the next round's readers.
    fn execute(&self, pool: &ThreadPool, graph: &Graph) {
        let leaves: Vec<u32> = (0..graph.tasks.len() as u32)
            .filter(|&i| matches!(graph.tasks[i as usize].kind, TaskKind::Leaf))
            .collect();
        self.run_round(pool, graph, &leaves);
        for d in (0..=graph.max_split_depth).rev() {
            let round: Vec<u32> = (0..graph.tasks.len() as u32)
                .filter(|&i| {
                    let t = &graph.tasks[i as usize];
                    t.depth == d && matches!(t.kind, TaskKind::Split { .. })
                })
                .collect();
            self.run_round(pool, graph, &round);
        }
    }

    fn run_round(&self, pool: &ThreadPool, graph: &Graph, round: &[u32]) {
        if round.is_empty() {
            return;
        }
        if round.len() == 1 {
            self.run_task(graph, &graph.tasks[round[0] as usize]);
            return;
        }
        let cursor = AtomicUsize::new(0);
        pool.run(|_| loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= round.len() {
                break;
            }
            self.run_task(graph, &graph.tasks[round[i] as usize]);
        });
    }

    fn run_task(&self, graph: &Graph, t: &Task) {
        let r = match &t.kind {
            TaskKind::Resolved => return,
            TaskKind::Leaf => self.mul_mv_rec(t.mn, t.vn),
            TaskKind::Split { level, kids } => {
                let kid = |k: &Kid| match *k {
                    Kid::Done(e) => e,
                    Kid::Task { idx, w } => self.scaled(graph.result(idx), w),
                };
                let es = [
                    self.add_v(kid(&kids[0]), kid(&kids[1])),
                    self.add_v(kid(&kids[2]), kid(&kids[3])),
                ];
                let r = self.make_vnode_lazy(*level, es);
                // Feed the operation cache exactly like the sequential
                // recursion, so later gates hit it either way.
                self.compute.insert_mv(t.mn, t.vn, r);
                r
            }
        };
        t.result.set(r).expect("a task runs once");
    }

    /// Parallel [`Self::apply_gate`]: builds the gate DD (cheap, sequential)
    /// and multiplies it onto the state with [`Self::mul_mv_parallel`].
    pub fn apply_gate_parallel(
        &self,
        pool: &ThreadPool,
        state: VEdge,
        gate: &qcircuit::Gate,
        n: usize,
    ) -> VEdge {
        let g = self.gate_dd(gate, n);
        self.mul_mv_parallel(pool, g, state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::{dense, generators, Complex64};

    fn simulate_parallel(pool: &ThreadPool, c: &qcircuit::Circuit) -> Vec<Complex64> {
        let p = DdPackage::default();
        let n = c.num_qubits();
        let mut state = p.basis_state(n, 0);
        for g in c.iter() {
            state = p.apply_gate_parallel(pool, state, g, n);
        }
        p.vector_to_array(state, n)
    }

    #[test]
    fn parallel_apply_matches_dense_across_circuits() {
        let pool = ThreadPool::new(4);
        let circuits = vec![
            generators::ghz(7),
            generators::qft(6),
            generators::w_state(6),
            generators::random_circuit(6, 80, 5),
            generators::grover(4, 9, Some(3)),
        ];
        for c in circuits {
            let got = simulate_parallel(&pool, &c);
            let want = dense::simulate(&c);
            assert!(
                qcircuit::complex::state_distance(&got, &want) < 1e-9,
                "circuit {}",
                c.name()
            );
        }
    }

    #[test]
    fn parallel_and_sequential_agree_to_tight_tolerance() {
        // The issue's acceptance bar: multi-thread amplitudes within 1e-12
        // of the single-threaded ones.
        for threads in [2usize, 4, 8] {
            let pool = ThreadPool::new(threads);
            for seed in [1u64, 7, 42] {
                let c = generators::random_circuit(6, 100, seed);
                let n = c.num_qubits();
                let seq = DdPackage::default();
                let mut s = seq.basis_state(n, 0);
                for g in c.iter() {
                    s = seq.apply_gate(s, g, n);
                }
                let want = seq.vector_to_array(s, n);
                let got = simulate_parallel(&pool, &c);
                assert!(
                    qcircuit::complex::state_distance(&got, &want) < 1e-12,
                    "threads={threads} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn four_thread_graph_publishes_every_task_result() {
        // The result cells of the task graph: every task of a 4-thread
        // multiply of a saturated state ends with its product set, splits
        // read their kids' cells a round later, and the root agrees with the
        // sequential recursion on a package of its own.
        let pool = ThreadPool::new(4);
        let n = 9;
        let v: Vec<Complex64> = (0..1 << n)
            .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        for q in [0, 3, 5] {
            let g = qcircuit::Gate::new(qcircuit::gate::GateKind::H, q);
            let (par, seq) = (DdPackage::default(), DdPackage::default());
            let (m, s) = (par.gate_dd(&g, n), par.vector_from_slice(&v));
            let (graph, root) = Graph::build(&par, m.n, s.n, 4);
            par.execute(&pool, &graph);
            assert!(graph.tasks.len() > 4, "qubit {q}: nothing was split");
            assert!(graph.tasks.iter().all(|t| t.result.get().is_some()));
            let got = par.scaled(graph.result(root), par.cval(m.w) * par.cval(s.w));
            let got = par.vector_to_array(par.intern_v(got), n);
            let want = seq.mul_mv(seq.gate_dd(&g, n), seq.vector_from_slice(&v));
            let want = seq.vector_to_array(want, n);
            assert!(
                qcircuit::complex::state_distance(&got, &want) < 1e-12,
                "qubit {q}"
            );
        }
    }

    #[test]
    fn adaptive_cap_tracks_dd_size() {
        assert_eq!(adaptive_parallel_cap(0), 1);
        assert_eq!(adaptive_parallel_cap(63), 1);
        assert_eq!(adaptive_parallel_cap(64), 1); // cap 1 < 2 -> sequential
        assert_eq!(adaptive_parallel_cap(128), 2);
        assert_eq!(adaptive_parallel_cap(255), 2);
        assert_eq!(adaptive_parallel_cap(256), 4);
        assert_eq!(adaptive_parallel_cap(64 * 16), 16);
        assert_eq!(adaptive_parallel_cap(64 * 16 + 63), 16);
        assert!(adaptive_parallel_cap(usize::MAX).is_power_of_two());
    }

    #[test]
    fn capped_multiply_matches_sequential() {
        let pool = ThreadPool::new(8);
        let c = generators::random_circuit(6, 80, 17);
        let n = c.num_qubits();
        let seq = DdPackage::default();
        let mut s = seq.basis_state(n, 0);
        for g in c.iter() {
            s = seq.apply_gate(s, g, n);
        }
        let want = seq.vector_to_array(s, n);
        for cap in [1usize, 2, 4, 8, 64] {
            let p = DdPackage::default();
            let mut state = p.basis_state(n, 0);
            for g in c.iter() {
                let gd = p.gate_dd(g, n);
                state = p.mul_mv_parallel_capped(&pool, gd, state, cap);
            }
            let got = p.vector_to_array(state, n);
            assert!(
                qcircuit::complex::state_distance(&got, &want) < 1e-12,
                "cap={cap}"
            );
        }
    }

    #[test]
    fn one_thread_parallel_is_bit_for_bit_sequential() {
        let pool = ThreadPool::new(1);
        let c = generators::random_circuit(6, 60, 9);
        let n = c.num_qubits();
        let seq = DdPackage::default();
        let mut a = seq.basis_state(n, 0);
        for g in c.iter() {
            a = seq.apply_gate(a, g, n);
        }
        let par = DdPackage::default();
        let mut b = par.basis_state(n, 0);
        for g in c.iter() {
            b = par.apply_gate_parallel(&pool, b, g, n);
        }
        // Identical packages run the identical code path: the edges match
        // exactly, not just within tolerance.
        assert_eq!(a, b);
        assert_eq!(seq.vector_to_array(a, n), par.vector_to_array(b, n));
    }

    #[test]
    fn parallel_multiply_populates_the_shared_cache() {
        let pool = ThreadPool::new(4);
        let p = DdPackage::default();
        let n = 6;
        let c = generators::qft(n);
        let mut state = p.basis_state(n, 0);
        for g in c.iter() {
            state = p.apply_gate_parallel(&pool, state, g, n);
        }
        // A sequential re-application now hits the cache the parallel run
        // populated.
        let g = qcircuit::Gate::new(qcircuit::gate::GateKind::H, 0);
        let gd = p.gate_dd(&g, n);
        let a = p.mul_mv(gd, state);
        let before = p.compute_stats();
        let b = p.mul_mv(gd, state);
        let after = p.compute_stats();
        assert_eq!(a, b);
        assert!(after.mv_hits > before.mv_hits);
    }
}
