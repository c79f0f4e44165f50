//! Parallel DD-to-array conversion (Section 3.1.2, Figure 4).
//!
//! The state-vector DD is converted to a flat array by splitting the thread
//! group at each DD node, with the paper's two optimizations:
//!
//! * **Load balancing** (Fig. 4a): at a node with a zero outgoing edge, the
//!   thread group does *not* split — all threads follow the non-zero edge,
//!   so no thread idles on an empty subtree.
//! * **Scalar multiplication** (Fig. 4b): at a node whose two edges point to
//!   the *same* child, only the left half is converted (by the whole
//!   group); the right half is then produced by a SIMD-friendly scalar
//!   multiplication of the left half.
//!
//! Planning is a cheap O(t + #scalar-tasks) descent; the exponential work
//! (filling 2^n amplitudes) is done by the pool workers on disjoint ranges.

use crate::pool::ThreadPool;
use qarray::{vecops, SyncUnsafeSlice};
use qcircuit::Complex64;
use qdd::{DdPackage, VEdge};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A leaf work item: fill the sub-vector of `edge` starting at `index`.
#[derive(Clone, Copy, Debug)]
struct FillTask {
    edge: VEdge,
    index: usize,
    /// Product of edge weights *above* `edge` (exclusive).
    weight: Complex64,
}

/// A deferred scalar multiplication: `out[dst..dst+len] = factor * out[src..src+len]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScalarTask {
    /// Source start index.
    pub src: usize,
    /// Destination start index.
    pub dst: usize,
    /// Segment length.
    pub len: usize,
    /// Multiplier (ratio of the two edge weights).
    pub factor: Complex64,
}

/// The plan produced by the descent: per-group fill lists plus ordered
/// scalar-multiplication tasks. A "group" is the dispatch unit — one state
/// shard in the sharded flat phase, one pool thread in the legacy layout
/// (`groups == pool.size()`).
pub struct ConversionPlan {
    fill: Vec<Vec<FillTask>>,
    scalar: Vec<ScalarTask>,
}

impl ConversionPlan {
    /// Builds a plan for converting `root` (over `n` qubits) into `threads`
    /// dispatch groups (shards).
    pub fn build(pkg: &DdPackage, root: VEdge, n: usize, threads: usize) -> Self {
        let t = threads.max(1);
        let mut plan = ConversionPlan {
            fill: vec![Vec::new(); t],
            scalar: Vec::new(),
        };
        plan.descend(pkg, root, 0, Complex64::ONE, 0, t);
        let _ = n;
        plan
    }

    /// Number of scalar-multiplication tasks discovered.
    pub fn scalar_tasks(&self) -> &[ScalarTask] {
        &self.scalar
    }

    /// Number of fill tasks assigned to each group.
    pub fn fill_counts(&self) -> Vec<usize> {
        self.fill.iter().map(|v| v.len()).collect()
    }

    /// Output-range coverage per group (amplitude slots each group's fill
    /// tasks span) — the load-balance metric of the Figure 4a optimization.
    pub fn coverage(&self, pkg: &DdPackage) -> Vec<usize> {
        self.fill
            .iter()
            .map(|tasks| {
                tasks
                    .iter()
                    .map(|t| {
                        if t.edge.is_terminal() {
                            1
                        } else {
                            1usize << (pkg.v_node(t.edge.n).level + 1)
                        }
                    })
                    .sum()
            })
            .collect()
    }

    fn descend(
        &mut self,
        pkg: &DdPackage,
        edge: VEdge,
        index: usize,
        weight: Complex64,
        lo: usize,
        hi: usize,
    ) {
        if edge.is_zero() {
            return;
        }
        if hi - lo == 1 || edge.is_terminal() {
            self.fill[lo].push(FillTask {
                edge,
                index,
                weight,
            });
            return;
        }
        let w = weight * pkg.cval(edge.w);
        let node = *pkg.v_node(edge.n);
        let half = 1usize << node.level;
        let (e0, e1) = (node.e[0], node.e[1]);
        if e0.is_zero() {
            // Load balancing: everyone takes the non-zero edge.
            self.descend(pkg, e1, index + half, w, lo, hi);
        } else if e1.is_zero() {
            self.descend(pkg, e0, index, w, lo, hi);
        } else if e0.n == e1.n && !e0.is_terminal() {
            // Scalar-multiplication optimization: identical children mean
            // the right half is a scalar multiple of the left half.
            let factor = pkg.cval(e1.w) / pkg.cval(e0.w);
            self.scalar.push(ScalarTask {
                src: index,
                dst: index + half,
                len: half,
                factor,
            });
            self.descend(pkg, e0, index, w, lo, hi);
        } else {
            let mid = lo + (hi - lo) / 2;
            self.descend(pkg, e0, index, w, lo, mid);
            self.descend(pkg, e1, index + half, w, mid, hi);
        }
    }
}

/// Sequential depth-first fill of one task's range (relative indexing into
/// the task's private sub-slice keeps bounds checks cheap).
fn fill_task(pkg: &DdPackage, task: &FillTask, view: &SyncUnsafeSlice<'_, Complex64>) {
    fill_rec(pkg, task.edge, task.index, task.weight, view);
}

fn fill_rec(
    pkg: &DdPackage,
    edge: VEdge,
    index: usize,
    weight: Complex64,
    view: &SyncUnsafeSlice<'_, Complex64>,
) {
    if edge.is_zero() {
        return;
    }
    let w = weight * pkg.cval(edge.w);
    if edge.is_terminal() {
        // SAFETY: index ranges of distinct fill tasks are disjoint by plan
        // construction; only this thread writes this element.
        unsafe { view.write(index, w) };
        return;
    }
    let node = pkg.v_node(edge.n);
    let half = 1usize << node.level;
    fill_rec(pkg, node.e[0], index, w, view);
    fill_rec(pkg, node.e[1], index + half, w, view);
}

/// Telemetry breakdown of one parallel conversion — the Figure 4a
/// load-balance data surfaced per dispatch group (shard).
#[derive(Clone, Debug, Default)]
pub struct ConversionBreakdown {
    /// Fill tasks assigned to each group (index = shard id).
    pub fill_tasks: Vec<usize>,
    /// Amplitude slots each group's fill tasks span — the load-balance
    /// metric (max/min across groups ≈ 1 means balanced).
    pub amp_spans: Vec<usize>,
    /// Wall-clock nanoseconds each group's fill took. Empty when telemetry
    /// is disabled — the per-group clocks are only read when a sink is
    /// listening.
    pub worker_nanos: Vec<u64>,
    /// Deferred scalar-multiplication tasks (the Figure 4b optimization).
    pub scalar_tasks: usize,
}

/// Converts a vector DD into a freshly allocated flat array using the pool
/// — the FlatDD parallel conversion of Figure 4 with one dispatch group per
/// pool thread. Probes the process-global fault registry.
///
/// # Panics
/// When the `2^n` output cannot be allocated.
pub fn dd_to_array_parallel(
    pkg: &DdPackage,
    root: VEdge,
    n: usize,
    pool: &ThreadPool,
) -> Vec<Complex64> {
    dd_to_array_grouped(pkg, root, n, pool, pool.size())
}

/// [`dd_to_array_parallel`] with an explicit dispatch-group count.
pub(crate) fn dd_to_array_grouped(
    pkg: &DdPackage,
    root: VEdge,
    n: usize,
    pool: &ThreadPool,
    groups: usize,
) -> Vec<Complex64> {
    let mut out = Vec::new();
    qarray::first_touch_zeroed(&mut out, 1usize << n, groups, pool)
        .unwrap_or_else(|_| panic!("cannot allocate 2^{n} amplitudes"));
    let ctx = crate::RunContext::process();
    dd_to_array_parallel_sharded_into_with(pkg, root, n, pool, groups, &mut out, &ctx);
    out
}

/// Converts a vector DD into the caller's (zeroed) buffer: the plan is
/// built with `shards` dispatch groups and [`ThreadPool::for_each_shard`]
/// hands them to the workers, so group `s` of the fill aligns with shard
/// `s` of the output state. `shards == 1` is a serial conversion. The
/// worker-panic fault site is probed through `ctx`, so chaos tests can
/// panic one job's conversion without touching its neighbors. Returns the
/// per-group breakdown for telemetry.
pub fn dd_to_array_parallel_sharded_into_with(
    pkg: &DdPackage,
    root: VEdge,
    n: usize,
    pool: &ThreadPool,
    shards: usize,
    out: &mut [Complex64],
    ctx: &crate::RunContext,
) -> ConversionBreakdown {
    assert_eq!(out.len(), 1usize << n);
    let t = pool.size();
    let shards = shards.max(1);
    let plan = ConversionPlan::build(pkg, root, n, shards);
    let view = SyncUnsafeSlice::new(out);
    // Phase 1: parallel fill of disjoint ranges, one group per shard.
    // Per-group wall clocks are only taken when a telemetry sink is
    // installed.
    let timed = qtelemetry::enabled();
    let clocks: Vec<AtomicU64> = if timed {
        (0..shards).map(|_| AtomicU64::new(0)).collect()
    } else {
        Vec::new()
    };
    pool.for_each_shard(shards, |g| {
        if g == 0 && ctx.fires(crate::faults::SITE_CONVERT_WORKER).is_some() {
            panic!("fault injection: conversion worker panic");
        }
        let t0 = timed.then(Instant::now);
        for task in &plan.fill[g] {
            fill_task(pkg, task, &view);
        }
        if let Some(t0) = t0 {
            clocks[g].store(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    });
    // Phase 2: scalar multiplications, deepest first (a shallower task's
    // source region contains the deeper tasks' destinations). Each task is
    // internally parallelized across the pool, one chunk per worker.
    for st in plan.scalar.iter().rev() {
        pool.for_each_shard(t, |c| {
            let r = qarray::shard_range(st.len, t, c);
            // SAFETY: src and dst ranges of one task are disjoint (sibling
            // halves), and per-worker chunks partition them.
            let (src, dst) = unsafe {
                (
                    view.slice(st.src + r.start, r.len()),
                    view.slice_mut(st.dst + r.start, r.len()),
                )
            };
            vecops::scale(dst, st.factor, src);
        });
    }
    ConversionBreakdown {
        fill_tasks: plan.fill_counts(),
        amp_spans: if timed {
            plan.coverage(pkg)
        } else {
            Vec::new()
        },
        worker_nanos: clocks.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
        scalar_tasks: plan.scalar.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::complex::state_distance;
    use qcircuit::{dense, generators};
    use qdd::DdSimulator;

    const TOL: f64 = 1e-9;

    fn convert_both_ways(
        circuit: &qcircuit::Circuit,
        threads: usize,
    ) -> (Vec<Complex64>, Vec<Complex64>) {
        let mut sim = DdSimulator::new(circuit.num_qubits());
        sim.run(circuit);
        let sequential = sim.amplitudes();
        let pool = ThreadPool::new(threads);
        let parallel =
            dd_to_array_parallel(sim.package(), sim.state(), circuit.num_qubits(), &pool);
        (sequential, parallel)
    }

    #[test]
    fn parallel_equals_sequential_on_generators() {
        for c in [
            generators::ghz(9),
            generators::w_state(7),
            generators::qft(6),
            generators::dnn(6, 2, 11),
            generators::supremacy(2, 3, 6, 11),
            generators::random_circuit(7, 80, 11),
        ] {
            for t in [1usize, 2, 4, 8] {
                let (seq, par) = convert_both_ways(&c, t);
                assert!(state_distance(&seq, &par) < TOL, "{} at t={t}", c.name());
            }
        }
    }

    #[test]
    fn matches_dense_ground_truth() {
        let c = generators::random_circuit(6, 60, 23);
        let (_, par) = convert_both_ways(&c, 4);
        let want = dense::simulate(&c);
        assert!(state_distance(&par, &want) < TOL);
    }

    #[test]
    fn sparse_state_with_zero_edges_load_balances() {
        // A basis state: every node has one zero edge, so all threads chase
        // a single path — exactly the Fig. 4a scenario.
        let pkg = DdPackage::default();
        let e = pkg.basis_state(10, 0b1100110011);
        let pool = ThreadPool::new(4);
        let plan = ConversionPlan::build(&pkg, e, 10, 4);
        let nonempty = plan.fill_counts().iter().filter(|&&c| c > 0).count();
        assert_eq!(nonempty, 1, "single path must collapse to one task");
        let out = dd_to_array_parallel(&pkg, e, 10, &pool);
        assert!(state_distance(&out, &dense::basis_state(10, 0b1100110011)) < TOL);
    }

    #[test]
    fn scalar_optimization_detected_for_product_states() {
        // |+>^n: every node has identical children — Fig. 4b territory.
        let n = 6;
        let c = {
            let mut c = qcircuit::Circuit::new(n);
            for q in 0..n {
                c.h(q);
            }
            c
        };
        let mut sim = DdSimulator::new(n);
        sim.run(&c);
        let plan = ConversionPlan::build(sim.package(), sim.state(), n, 4);
        assert!(
            !plan.scalar_tasks().is_empty(),
            "uniform superposition must trigger the scalar-multiplication path"
        );
        let pool = ThreadPool::new(4);
        let out = dd_to_array_parallel(sim.package(), sim.state(), n, &pool);
        assert!(state_distance(&out, &dense::simulate(&c)) < TOL);
    }

    #[test]
    fn nested_scalar_tasks_apply_in_the_right_order() {
        // ghz-like plus global H wall gives nested identical-children nodes.
        let n = 5;
        let mut c = qcircuit::Circuit::new(n);
        for q in 0..n {
            c.h(q);
        }
        c.t(0).s(2);
        let mut sim = DdSimulator::new(n);
        sim.run(&c);
        let pool = ThreadPool::new(2);
        let out = dd_to_array_parallel(sim.package(), sim.state(), n, &pool);
        assert!(state_distance(&out, &dense::simulate(&c)) < TOL);
    }

    #[test]
    fn zero_root_yields_zero_vector() {
        let pkg = DdPackage::default();
        let pool = ThreadPool::new(2);
        let out = dd_to_array_parallel(&pkg, VEdge::ZERO, 4, &pool);
        assert!(out.iter().all(|a| a.is_zero()));
    }

    #[test]
    fn sharded_conversion_matches_per_thread_dispatch() {
        let c = generators::random_circuit(7, 80, 11);
        let mut sim = DdSimulator::new(7);
        sim.run(&c);
        let want = dense::simulate(&c);
        let ctx = crate::RunContext::default();
        for (threads, shards) in [(2, 8), (4, 1), (2, 2), (4, 16), (1, 4)] {
            let pool = ThreadPool::new(threads);
            let mut out = vec![Complex64::ZERO; 1 << 7];
            let bd = dd_to_array_parallel_sharded_into_with(
                sim.package(),
                sim.state(),
                7,
                &pool,
                shards,
                &mut out,
                &ctx,
            );
            assert_eq!(bd.fill_tasks.len(), shards, "t={threads} s={shards}");
            assert!(state_distance(&out, &want) < TOL, "t={threads} s={shards}");
        }
    }

    #[test]
    fn thread_counts_beyond_paths_are_safe() {
        let pkg = DdPackage::default();
        let e = pkg.basis_state(3, 5);
        let pool = ThreadPool::new(8); // more threads than amplitudes
        let out = dd_to_array_parallel(&pkg, e, 3, &pool);
        assert!(state_distance(&out, &dense::basis_state(3, 5)) < TOL);
    }
}
