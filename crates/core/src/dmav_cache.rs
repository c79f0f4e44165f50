//! DMAV with caching (Section 3.2.2, Algorithm 2, Figures 6 and 7).
//!
//! Each thread evaluates the gate matrix in **column space**: it owns the
//! `h`-sized input sub-vector `V[tid*h, (tid+1)*h)` and produces output
//! segments at varying row offsets into a *partial-output buffer*. Because a
//! DD gate matrix repeats sub-matrices (tensor-product regularity), a thread
//! frequently meets the same sub-matrix node twice with different scalar
//! coefficients — the cached result is then reused with one SIMD-friendly
//! scalar multiplication instead of a full recursive multiply (Figure 6).
//!
//! Threads whose output segments don't overlap share one buffer (saving the
//! memory and the final summation work); the buffers are summed into `W` at
//! the end (Algorithm 2, lines 11-13).
//!
//! Tasks run the same compiled `Program` as the uncached variant, in store
//! mode: every occupied buffer segment is written exactly once and in full
//! (one task, or one `scale` on a cache hit), so no buffer is zeroed between
//! gates.

use crate::dmav::{assign_tasks, task_list_bytes, Entry, Program, Space};
use crate::error::FlatDdError;
use crate::pool::ThreadPool;
use qarray::vecops;
use qcircuit::Complex64;
use qdd::fxhash::{FxHashMap, FxHashSet};
use qdd::{DdPackage, MEdge};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Per-thread column-space tasks plus the buffer-sharing assignment
/// (the paper's `v_M`, `v_P`, `v_f`, `v_B`).
pub struct DmavCacheAssignment {
    /// Thread count (power of two).
    pub t: usize,
    /// Sub-vector size `h = 2^n / t`.
    pub h: usize,
    /// Qubit count.
    pub n: usize,
    /// Sub-matrix DD edges per thread (`v_M`).
    pub m_edges: Vec<Vec<MEdge>>,
    /// Output-segment start indices per thread (`v_P`).
    pub ip: Vec<Vec<usize>>,
    /// Weight products (excluding the stored edge's weight) per thread (`v_f`).
    pub f: Vec<Vec<Complex64>>,
    /// Buffer index per thread (`v_B`).
    pub buffer_of: Vec<usize>,
    /// Number of distinct buffers (`size(B)`).
    pub num_buffers: usize,
    /// `buffer_segments[b][seg]`: does buffer `b` hold live data for output
    /// segment `seg`? (Unoccupied segments are neither written nor summed.)
    pub buffer_segments: Vec<Vec<bool>>,
    /// The sub-DD under `m_edges`, compiled; what the tasks execute.
    program: Program,
    /// Per task, its entry into `program` (parallel to `m_edges`).
    entries: Vec<Vec<Entry>>,
}

impl DmavCacheAssignment {
    /// Runs `AssignCache` (Algorithm 2, lines 16-26). Panicking wrapper over
    /// [`Self::try_build`] for callers that have already validated `t`.
    pub fn build(pkg: &DdPackage, m: MEdge, n: usize, t: usize) -> Self {
        Self::try_build(pkg, m, n, t).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible `AssignCache`: `t` must be a power of two with
    /// `log2(t) <= n`, otherwise [`FlatDdError::InvalidInput`] is returned.
    pub fn try_build(pkg: &DdPackage, m: MEdge, n: usize, t: usize) -> Result<Self, FlatDdError> {
        let tasks = assign_tasks(pkg, m, n, t, Space::Column)?;
        let (program, entries) = Program::compile(pkg, n, &tasks.m_edges, &tasks.f);
        let mut asg = DmavCacheAssignment {
            t,
            h: (1usize << n) / t,
            n,
            m_edges: tasks.m_edges,
            ip: tasks.at,
            f: tasks.f,
            buffer_of: vec![0; t],
            num_buffers: 0,
            buffer_segments: Vec::new(),
            program,
            entries,
        };
        asg.assign_buffers();
        Ok(asg)
    }

    /// Buffer sharing (lines 22-25): thread `i` joins the first buffer whose
    /// occupied segments don't overlap its own; otherwise it opens a new
    /// buffer.
    fn assign_buffers(&mut self) {
        let mut occupied: Vec<Vec<bool>> = Vec::new();
        for u in 0..self.t {
            let mut segs = vec![false; self.t];
            for &p in &self.ip[u] {
                segs[p / self.h] = true;
            }
            let found = occupied
                .iter()
                .position(|occ| occ.iter().zip(&segs).all(|(&a, &b)| !(a && b)));
            match found {
                Some(b) => {
                    for (o, &s) in occupied[b].iter_mut().zip(&segs) {
                        *o |= s;
                    }
                    self.buffer_of[u] = b;
                }
                None => {
                    self.buffer_of[u] = occupied.len();
                    occupied.push(segs);
                }
            }
        }
        if occupied.is_empty() {
            occupied.push(vec![false; self.t]);
        }
        self.num_buffers = occupied.len();
        self.buffer_segments = occupied;
    }

    /// Total number of tasks across threads.
    pub fn total_tasks(&self) -> usize {
        self.m_edges.iter().map(|v| v.len()).sum()
    }

    /// Heap bytes held by the task lists, the compiled program and the
    /// buffer maps (for plan-cache accounting).
    pub fn memory_bytes(&self) -> usize {
        task_list_bytes(&self.m_edges)
            + self.program.memory_bytes()
            + self.buffer_of.capacity() * std::mem::size_of::<usize>()
            + self
                .buffer_segments
                .iter()
                .map(|v| v.capacity())
                .sum::<usize>()
            + 5 * self.t * std::mem::size_of::<Vec<()>>()
    }

    /// The tasks that execute: the first of each group to meet a node. The
    /// rest of the group's tasks on that node are the cache hits.
    pub(crate) fn unique_tasks(&self) -> impl Iterator<Item = MEdge> + '_ {
        self.m_edges.iter().flat_map(|tasks| {
            let mut seen = FxHashSet::default();
            tasks.iter().copied().filter(move |e| seen.insert(e.n))
        })
    }

    /// Number of cache hits this assignment will produce (repeated nodes
    /// within a thread's task list) — the `H` of the cost model.
    pub fn cache_hits(&self) -> usize {
        self.total_tasks() - self.unique_tasks().count()
    }
}

/// Scratch buffers reused across gates to avoid per-gate allocation.
#[derive(Default)]
pub struct PartialBuffers {
    bufs: Vec<Vec<Complex64>>,
}

impl PartialBuffers {
    /// Ensures `count` buffers of length `len` (`h`-sized segments). A fresh
    /// buffer is first-touched by the pool workers that own its segments; a
    /// reused one is left as it is — every segment the coming DMAV reads, it
    /// has stored in full before (see [`Program::run`]), and stale segments
    /// are never read.
    fn prepare(&mut self, count: usize, len: usize, h: usize, pool: &ThreadPool) {
        let groups = len.checked_div(h).unwrap_or(1);
        self.bufs.resize_with(count.max(self.bufs.len()), Vec::new);
        for b in self.bufs.iter_mut().take(count) {
            if b.len() != len {
                qarray::first_touch_zeroed(b, len, groups, pool)
                    .unwrap_or_else(|_| panic!("cannot allocate DMAV partial buffer"));
            }
        }
    }

    /// Drops all held buffers (the DMAV rung of the memory-pressure
    /// degradation ladder) and returns the bytes released. The next cached
    /// DMAV re-allocates what it needs.
    pub fn release(&mut self) -> usize {
        let released = self.memory_bytes();
        self.bufs = Vec::new();
        released
    }

    /// Bytes currently held.
    pub fn memory_bytes(&self) -> usize {
        self.bufs
            .iter()
            .map(|b| b.capacity() * std::mem::size_of::<Complex64>())
            .sum()
    }
}

/// Execution statistics of one cached DMAV.
#[derive(Clone, Copy, Debug, Default)]
pub struct DmavCacheRunStats {
    /// Tasks executed.
    pub tasks: usize,
    /// Cache hits (tasks answered by scalar multiplication).
    pub hits: usize,
    /// Buffers used.
    pub buffers: usize,
}

/// DMAV with caching: `W = M * V`. `w` is fully overwritten; what it held
/// before is never read.
///
/// The tasks execute the assignment's compiled program; the package is not
/// consulted. The assignment's `asg.t` groups are the dispatch shards:
/// [`ThreadPool::for_each_part`] hands each group its own partial-buffer
/// segments, then its own rows of `w`.
pub fn dmav_cached(
    _pkg: &DdPackage,
    asg: &DmavCacheAssignment,
    v: &[Complex64],
    w: &mut [Complex64],
    pool: &ThreadPool,
    scratch: &mut PartialBuffers,
) -> DmavCacheRunStats {
    assert_eq!(v.len(), 1usize << asg.n);
    assert_eq!(w.len(), v.len());
    let h = asg.h;
    let dim = v.len();
    scratch.prepare(asg.num_buffers, dim, h, pool);
    // Every group takes its own segments, in task order: task `k` of group
    // `g` writes segment `ip[g][k] / h` of buffer `buffer_of[g]`, and groups
    // sharing a buffer occupy disjoint segments.
    let mut segments: Vec<Vec<Option<&mut [Complex64]>>> = scratch.bufs[..asg.num_buffers]
        .iter_mut()
        .map(|b| b.chunks_exact_mut(h).map(Some).collect())
        .collect();
    let parts: Vec<(usize, Vec<&mut [Complex64]>)> = (0..asg.t)
        .map(|g| {
            let segs = &mut segments[asg.buffer_of[g]];
            let own = asg.ip[g].iter().map(|&start| {
                assert!(start.is_multiple_of(h), "segment starts are multiples of h");
                segs[start / h]
                    .take()
                    .expect("a partial-buffer segment has one writer")
            });
            (g, own.collect())
        })
        .collect();
    let hit_count = AtomicUsize::new(0);

    pool.for_each_part(parts, |(g, mut segs)| {
        // Per-group, per-gate cache: program node -> (effective weight,
        // task whose segment holds it). It must not outlive the group: a
        // cached result lives in the *group's* buffer and was computed from
        // the *group's* input sub-vector, so it is meaningless to any other
        // group.
        let mut cache: FxHashMap<u32, (Complex64, usize)> = FxHashMap::default();
        let mut hits = 0usize;
        let v_g = &v[g * h..(g + 1) * h];
        // `entry.f` is the task's effective linear factor (it includes the
        // stored edge's own weight): two tasks on the same node differ only
        // by it.
        for (k, entry) in asg.entries[g].iter().enumerate() {
            if let Some(&(cached_f, cached_k)) = cache.get(&entry.op) {
                let [src, dst] = segs
                    .get_disjoint_mut([cached_k, k])
                    .expect("a task and its cached result are distinct segments");
                vecops::scale(dst, entry.f / cached_f, src);
                hits += 1;
            } else {
                asg.program.run(entry.op, entry.f, v_g, segs[k], false);
                cache.insert(entry.op, (entry.f, k));
            }
        }
        hit_count.fetch_add(hits, Ordering::Relaxed);
    });

    // Sum the partial buffers into W (lines 11-13): group `g` owns output
    // rows [g*h, (g+1)*h). Only buffers whose segment `g` is occupied
    // contribute: the first is copied, the rest are added, and rows no
    // buffer covers are zero.
    let bufs = &scratch.bufs[..asg.num_buffers];
    pool.for_each_part(w.chunks_exact_mut(h).enumerate(), |(g, out)| {
        let mut parts = bufs
            .iter()
            .zip(&asg.buffer_segments)
            .filter(|(_, segs)| segs[g])
            .map(|(buf, _)| &buf[g * h..(g + 1) * h]);
        match parts.next() {
            Some(first) => out.copy_from_slice(first),
            None => out.fill(Complex64::ZERO),
        }
        for part in parts {
            vecops::sum_into(out, part);
        }
    });

    DmavCacheRunStats {
        tasks: asg.total_tasks(),
        hits: hit_count.load(Ordering::Relaxed),
        buffers: asg.num_buffers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dmav::{dmav_no_cache, DmavAssignment};
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

    fn check_gate(g: &Gate, n: usize, t: usize) -> DmavCacheRunStats {
        let pkg = DdPackage::default();
        let m = pkg.gate_dd(g, n);
        let asg = DmavCacheAssignment::build(&pkg, m, n, t);
        let v = rand_state(n, 11);
        let mut w = vec![Complex64::ZERO; 1 << n];
        let pool = ThreadPool::new(t);
        let mut scratch = PartialBuffers::default();
        let stats = dmav_cached(&pkg, &asg, &v, &mut w, &pool, &mut scratch);
        let mut want = v.clone();
        dense::apply_gate(&mut want, g);
        assert!(state_distance(&w, &want) < TOL, "gate {g} n={n} t={t}");
        stats
    }

    #[test]
    fn hadamard_on_top_qubit_hits_cache() {
        // H on the top qubit: each thread sees the identity sub-matrix node
        // twice (a*m and b*m) — the Figure 6 scenario.
        let stats = check_gate(&Gate::new(GateKind::H, 5), 6, 2);
        assert!(stats.hits > 0, "expected cache hits, got {stats:?}");
    }

    #[test]
    fn diagonal_gate_has_no_hits_but_shares_buffers() {
        // T on the top qubit: block-diagonal, each thread one task, outputs
        // don't overlap => hits 0, a single shared buffer.
        let stats = check_gate(&Gate::new(GateKind::T, 5), 6, 2);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.buffers, 1);
    }

    #[test]
    fn a_hit_reads_the_segment_of_the_task_it_repeats() {
        // H on qubits 5 and 4, then Z on qubit 0 controlled by qubit 5: at
        // t = 4 every column holds the tasks [I, I, Z, Z] (scaled), so the
        // second hit of a group repeats its third task, not its first.
        let (n, t) = (6, 4);
        let pkg = DdPackage::default();
        let mut m = pkg.identity_dd(n);
        for g in [
            Gate::new(GateKind::H, 5),
            Gate::new(GateKind::H, 4),
            Gate::controlled(GateKind::Z, 0, vec![Control::pos(5)]),
        ] {
            m = pkg.mul_mm(pkg.gate_dd(&g, n), m);
        }
        let asg = DmavCacheAssignment::build(&pkg, m, n, t);
        assert_eq!(asg.cache_hits(), 2 * t);
        let v = rand_state(n, 29);
        let pool = ThreadPool::new(t);
        let (mut want, mut got) = (vec![Complex64::ZERO; 1 << n], vec![Complex64::ZERO; 1 << n]);
        dmav_no_cache(
            &pkg,
            &DmavAssignment::build(&pkg, m, n, t),
            &v,
            &mut want,
            &pool,
        );
        dmav_cached(
            &pkg,
            &asg,
            &v,
            &mut got,
            &pool,
            &mut PartialBuffers::default(),
        );
        assert!(state_distance(&got, &want) < TOL);
    }

    #[test]
    fn dense_top_gate_needs_two_buffers() {
        // H on the top qubit with t=2: both threads write both halves —
        // overlapping outputs force 2 buffers.
        let pkg = DdPackage::default();
        let m = pkg.gate_dd(&Gate::new(GateKind::H, 5), 6);
        let asg = DmavCacheAssignment::build(&pkg, m, 6, 2);
        assert_eq!(asg.num_buffers, 2);
        assert_eq!(asg.cache_hits(), 2); // one repeat per thread
    }

    #[test]
    fn cached_equals_uncached_on_random_fused_matrices() {
        let n = 6;
        let c = generators::random_circuit(n, 8, 19);
        let pkg = DdPackage::default();
        let mut fused = pkg.identity_dd(n);
        for g in c.iter() {
            let gd = pkg.gate_dd(g, n);
            fused = pkg.mul_mm(gd, fused);
        }
        let v = rand_state(n, 23);
        let pool = ThreadPool::new(4);

        let asg_nc = DmavAssignment::build(&pkg, fused, n, 4);
        let mut w1 = vec![Complex64::ZERO; 1 << n];
        dmav_no_cache(&pkg, &asg_nc, &v, &mut w1, &pool);

        let asg_c = DmavCacheAssignment::build(&pkg, fused, n, 4);
        let mut w2 = vec![Complex64::ZERO; 1 << n];
        let mut scratch = PartialBuffers::default();
        dmav_cached(&pkg, &asg_c, &v, &mut w2, &pool, &mut scratch);

        assert!(state_distance(&w1, &w2) < TOL);
    }

    #[test]
    fn whole_circuit_via_cached_dmav() {
        let n = 6;
        let c = generators::dnn(n, 2, 31);
        let pkg = DdPackage::default();
        let pool = ThreadPool::new(4);
        let mut scratch = PartialBuffers::default();
        let mut v = dense::zero_state(n);
        let mut w = vec![Complex64::ZERO; 1 << n];
        for g in c.iter() {
            let m = pkg.gate_dd(g, n);
            let asg = DmavCacheAssignment::build(&pkg, m, n, 4);
            dmav_cached(&pkg, &asg, &v, &mut w, &pool, &mut scratch);
            std::mem::swap(&mut v, &mut w);
        }
        assert!(state_distance(&v, &dense::simulate(&c)) < TOL);
    }

    #[test]
    fn scratch_buffers_are_reused() {
        let mut scratch = PartialBuffers::default();
        check_gate(&Gate::new(GateKind::H, 4), 5, 2);
        let pool = ThreadPool::new(2);
        scratch.prepare(2, 32, 16, &pool);
        let bytes = scratch.memory_bytes();
        scratch.bufs[1][20] = Complex64::ONE;
        scratch.prepare(2, 32, 16, &pool);
        assert_eq!(scratch.memory_bytes(), bytes, "no reallocation on reuse");
        assert_eq!(
            scratch.bufs[1][20],
            Complex64::ONE,
            "no re-zeroing on reuse"
        );
    }

    #[test]
    fn poisoned_scratch_and_output_never_reach_the_result() {
        // Store-mode tasks write every occupied segment in full and the
        // reduction copies before it adds: NaN left in the reused buffers
        // and in `W` must not survive a gate, dense or sparse.
        let n = 6;
        let t = 4;
        let pkg = DdPackage::default();
        let pool = ThreadPool::new(2);
        let mut scratch = PartialBuffers::default();
        let v = rand_state(n, 17);
        let nan = Complex64::new(f64::NAN, f64::NAN);
        for g in [
            Gate::new(GateKind::H, 5),
            Gate::new(GateKind::T, 5),
            Gate::controlled(GateKind::X, 0, vec![Control::pos(4)]),
            Gate::controlled(GateKind::X, 5, vec![Control::pos(0)]),
        ] {
            let asg = DmavCacheAssignment::build(&pkg, pkg.gate_dd(&g, n), n, t);
            let mut w = vec![nan; 1 << n];
            dmav_cached(&pkg, &asg, &v, &mut w, &pool, &mut scratch);
            let mut want = v.clone();
            dense::apply_gate(&mut want, &g);
            assert!(
                w.iter().all(|a| a.re.is_finite() && a.im.is_finite()),
                "gate {g}"
            );
            assert!(state_distance(&w, &want) < 1e-12, "gate {g}");
            for b in &mut scratch.bufs {
                b.fill(nan);
            }
        }
    }

    #[test]
    fn stale_buffer_garbage_never_leaks_into_output() {
        // Run a dense gate (fills buffers), then a sparse diagonal gate that
        // leaves most segments untouched: stale data must not be summed.
        let n = 6;
        let t = 4;
        let pkg = DdPackage::default();
        let pool = ThreadPool::new(t);
        let mut scratch = PartialBuffers::default();
        let v = rand_state(n, 3);

        let dense_m = pkg.gate_dd(&Gate::new(GateKind::H, 5), n);
        let asg1 = DmavCacheAssignment::build(&pkg, dense_m, n, t);
        let mut w1 = vec![Complex64::ZERO; 1 << n];
        dmav_cached(&pkg, &asg1, &v, &mut w1, &pool, &mut scratch);

        let diag_m = pkg.gate_dd(&Gate::new(GateKind::T, 5), n);
        let asg2 = DmavCacheAssignment::build(&pkg, diag_m, n, t);
        let mut w2 = vec![Complex64::ZERO; 1 << n];
        dmav_cached(&pkg, &asg2, &w1, &mut w2, &pool, &mut scratch);

        let mut want = v.clone();
        dense::apply_gate(&mut want, &Gate::new(GateKind::H, 5));
        dense::apply_gate(&mut want, &Gate::new(GateKind::T, 5));
        assert!(state_distance(&w2, &want) < TOL);
    }

    #[test]
    fn shard_count_decoupled_from_pool_size() {
        // Groups (shards) no longer have to match the pool: workers claim
        // groups round-robin, and the per-group cache resets per group.
        let n = 6;
        let pkg = DdPackage::default();
        let v = rand_state(n, 29);
        for g in [
            Gate::new(GateKind::H, 5),
            Gate::controlled(GateKind::X, 2, vec![Control::pos(5)]),
        ] {
            let m = pkg.gate_dd(&g, n);
            let mut want = v.clone();
            dense::apply_gate(&mut want, &g);
            for (threads, shards) in [(2usize, 8usize), (4, 2), (1, 4), (3, 8), (4, 16)] {
                let asg = DmavCacheAssignment::build(&pkg, m, n, shards);
                let mut w = vec![Complex64::ZERO; 1 << n];
                let pool = ThreadPool::new(threads);
                let mut scratch = PartialBuffers::default();
                dmav_cached(&pkg, &asg, &v, &mut w, &pool, &mut scratch);
                assert!(
                    state_distance(&w, &want) < TOL,
                    "gate {g} t={threads} s={shards}"
                );
            }
        }
    }

    #[test]
    fn try_build_reports_invalid_input() {
        let pkg = DdPackage::default();
        let m = pkg.gate_dd(&Gate::new(GateKind::H, 0), 3);
        assert!(DmavCacheAssignment::try_build(&pkg, m, 3, 5).is_err());
        assert!(DmavCacheAssignment::try_build(&pkg, m, 3, 16).is_err());
        assert!(DmavCacheAssignment::try_build(&pkg, m, 3, 2).is_ok());
    }

    #[test]
    fn assignment_shape_figure_7() {
        // Figure 7: H on the top qubit of n=3 with 4 threads.
        let pkg = DdPackage::default();
        let m = pkg.gate_dd(&Gate::new(GateKind::H, 2), 3);
        let asg = DmavCacheAssignment::build(&pkg, m, 3, 4);
        assert_eq!(asg.h, 2);
        // Threads t1/t2 (columns of the left half) each get 2 tasks with
        // non-overlapping rows vs. each other in the paper's example...
        assert_eq!(asg.total_tasks(), 8);
        // Each thread's two tasks reference the same node => 4 hits total.
        assert_eq!(asg.cache_hits(), 4);
    }
}
