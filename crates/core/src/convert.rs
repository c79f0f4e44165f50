//! Parallel DD-to-array conversion (Section 3.1.2, Figure 4).
//!
//! The state-vector DD is converted to a flat array by splitting the thread
//! group at each DD node above the table boundary, with the paper's two
//! optimizations:
//!
//! * **Load balancing** (Fig. 4a): at a node with a zero outgoing edge, the
//!   thread group does *not* split — all threads follow the non-zero edge,
//!   so no thread idles on an empty subtree.
//! * **Scalar multiplication** (Fig. 4b): identical children are converted
//!   once and scaled into place — by the weight-1 tables below, which do
//!   this for every repeated sub-DD, not only for siblings.
//!
//! Planning is a cheap O(t) descent on the package that stops at the table
//! boundary; the exponential work (filling 2^n amplitudes) is done by the
//! pool workers on disjoint ranges, reading the DD through the package's
//! borrowed [`VectorView`] (the package itself has one owner and is not
//! `Sync`).
//!
//! **Write-once, block-wise fill** (our deviation; DESIGN.md §2). The
//! output buffer may hold anything: every amplitude is written exactly
//! once, so the flat buffer needs no zero pass and each page is first
//! touched by the group that fills it.
//!
//! * The descent records the zero runs that load balancing skips, split at
//!   shard boundaries; the group that owns a shard writes its runs.
//! * Below the plan, a zero edge writes its zero run.
//! * Each distinct node a group meets at the table boundary — the first
//!   node below [`TABLE_LEVEL`] on a path — is materialised once per fill
//!   group into a weight-1 table by one walk of its sub-DD; every
//!   occurrence is then one `vecops::scale(dst, w, table)` (the 52-node
//!   state `knn_wide` converts is 2^21 amplitudes).
//!
//! **One fill at every geometry.** The plan never splits below the table
//! boundary, so every group count multiplies the same weights in the same
//! order onto the same boundary tables: the output is a function of the DD
//! alone, bit for bit, whatever the thread and shard counts.

use crate::pool::ThreadPool;
use qarray::vecops;
use qcircuit::Complex64;
use qdd::fxhash::FxHashMap;
use qdd::{DdPackage, VEdge, VectorView};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The table boundary: a node below this level (a sub-vector of at most
/// `2^TABLE_LEVEL` amplitudes, 1 KiB at level 6) is materialised once per
/// fill group and scaled into place. Chosen with the conversion fill of
/// `microbench_kernels`' `convert` block, swept over levels 3–10
/// (EXPERIMENTS.md, "Conversion at memory speed"): on the `knn` and `dnn`
/// states at their conversion point the fill costs 0.13x the
/// per-amplitude walk from level 5 up, 0.15x at 4 and 0.22x at 3; on an
/// end-of-circuit `knn` DD of 19 426 nodes, whose boundary nodes rarely
/// repeat, it costs 0.44x at 3 and 0.77x at 6. 6 keeps the spine's states
/// on the plateau and every measured state below the walk.
pub const TABLE_LEVEL: u8 = 6;

/// Most amplitudes one group's tables may hold (256 KiB, an L2's worth).
/// When the next table would pass it, the group drops its tables and
/// starts over: a DD with that many distinct nodes at the boundary (a
/// dense random state) has little left to share.
const TABLE_CAP: usize = 1 << 14;

/// A leaf work item: fill the sub-vector of `edge` starting at `index`.
#[derive(Clone, Copy, Debug)]
struct FillTask {
    edge: VEdge,
    index: usize,
    /// Product of edge weights *above* `edge` (exclusive).
    weight: Complex64,
}

/// The plan produced by the descent: per-group fill lists and zero runs.
/// A "group" is the dispatch unit — one state shard in the sharded flat
/// phase, one pool thread in the legacy layout (`groups == pool.size()`).
/// Fill ranges and zero runs tile the output without overlap.
pub struct ConversionPlan {
    fill: Vec<Vec<FillTask>>,
    /// Zero runs, each inside the shard of the group it is listed under.
    zero: Vec<Vec<Range<usize>>>,
    dim: usize,
}

/// Length of the sub-vector below a non-zero `edge`.
fn span(pkg: &DdPackage, edge: VEdge) -> usize {
    if edge.is_terminal() {
        1
    } else {
        2usize << pkg.v_node(edge.n).level
    }
}

impl ConversionPlan {
    /// Builds a plan for converting `root` (over `n` qubits) into `threads`
    /// dispatch groups (shards).
    pub fn build(pkg: &DdPackage, root: VEdge, n: usize, threads: usize) -> Self {
        let t = threads.max(1);
        let dim = 1usize << n;
        let mut plan = ConversionPlan {
            fill: vec![Vec::new(); t],
            zero: vec![Vec::new(); t],
            dim,
        };
        plan.descend(pkg, root, 0..dim, Complex64::ONE, 0, t);
        plan
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
            .map(|tasks| tasks.iter().map(|t| span(pkg, t.edge)).sum())
            .collect()
    }

    /// Cuts `out` into every group's pieces — its zero runs (no task) and
    /// fill tasks, each with the range it writes — in one pass over all of
    /// them sorted by start. A group's fill tasks stay in plan order.
    ///
    /// # Panics
    /// When two pieces overlap: the plan promises they tile the output
    /// without overlap.
    fn carve<'a>(&'a self, pkg: &DdPackage, out: &'a mut [Complex64]) -> Vec<Vec<Piece<'a>>> {
        let mut order: Vec<(usize, usize, usize, Option<&FillTask>)> = Vec::new();
        for (g, (zero, fill)) in self.zero.iter().zip(&self.fill).enumerate() {
            order.extend(zero.iter().map(|r| (r.start, r.len(), g, None)));
            order.extend(
                fill.iter()
                    .map(|t| (t.index, span(pkg, t.edge), g, Some(t))),
            );
        }
        order.sort_unstable_by_key(|&(start, ..)| start);
        let mut shares: Vec<Vec<Piece<'a>>> = self.fill.iter().map(|_| Vec::new()).collect();
        let (mut rest, mut at) = (out, 0);
        for (start, len, g, task) in order {
            let gap = start
                .checked_sub(at)
                .expect("conversion plan pieces overlap");
            let (dst, tail) = std::mem::take(&mut rest)[gap..].split_at_mut(len);
            shares[g].push((task, dst));
            (rest, at) = (tail, start + len);
        }
        shares
    }

    /// Lists `run` as zero, split at shard boundaries.
    fn zero_run(&mut self, run: Range<usize>) {
        let per = self.dim.div_ceil(self.zero.len());
        let mut at = run.start;
        while at < run.end {
            let s = at / per;
            let next = run.end.min((s + 1) * per);
            self.zero[s].push(at..next);
            at = next;
        }
    }

    /// Plans the output range `out` of `edge` for groups `lo..hi`. An edge
    /// into a node below [`TABLE_LEVEL`] is one fill task: splitting it
    /// would table a deeper node and associate its weights otherwise than
    /// the one-group fill does.
    fn descend(
        &mut self,
        pkg: &DdPackage,
        edge: VEdge,
        out: Range<usize>,
        weight: Complex64,
        lo: usize,
        hi: usize,
    ) {
        if edge.is_zero() {
            self.zero_run(out);
            return;
        }
        if hi - lo == 1 || edge.is_terminal() || pkg.v_node(edge.n).level < TABLE_LEVEL {
            self.fill[lo].push(FillTask {
                edge,
                index: out.start,
                weight,
            });
            return;
        }
        let w = weight * pkg.cval(edge.w);
        let node = pkg.v_node(edge.n);
        let half = out.len() / 2;
        debug_assert_eq!(half, 1usize << node.level, "no level skipping");
        let (left, right) = (out.start..out.start + half, out.start + half..out.end);
        let (e0, e1) = (node.e[0], node.e[1]);
        if e0.is_zero() || e1.is_zero() {
            // Load balancing: everyone takes the non-zero edge; the other
            // half is a zero run.
            self.descend(pkg, e0, left, w, lo, hi);
            self.descend(pkg, e1, right, w, lo, hi);
        } else {
            let mid = lo + (hi - lo) / 2;
            self.descend(pkg, e0, left, w, lo, mid);
            self.descend(pkg, e1, right, w, mid, hi);
        }
    }
}

/// One fill group's weight-1 tables: the amplitudes of every distinct node
/// its tasks meet at the table boundary — the first node below
/// [`TABLE_LEVEL`] on a path — each written once (until [`TABLE_CAP`]
/// starts the group over).
#[derive(Default)]
struct Tables {
    /// Node id -> offset of its table in `amps`.
    at: FxHashMap<u32, usize>,
    amps: Vec<Complex64>,
    /// Tables built, rebuilds after a start-over included.
    built: usize,
}

impl Tables {
    /// Writes the sub-vector of `edge`, scaled by `weight`, into `dst` —
    /// every element exactly once, below the table boundary by one scaling
    /// of the node's table.
    fn fill(&mut self, view: &VectorView, edge: VEdge, weight: Complex64, dst: &mut [Complex64]) {
        if edge.is_zero() || edge.is_terminal() {
            walk(view, edge, weight, dst);
            return;
        }
        let w = weight * view.weight(edge.w);
        let node = view.node(edge.n);
        if node.level < TABLE_LEVEL {
            let at = self.table(view, edge.n, dst.len());
            vecops::scale(dst, w, &self.amps[at..at + dst.len()]);
            return;
        }
        let (lo, hi) = dst.split_at_mut(dst.len() / 2);
        self.fill(view, node.e[0], w, lo);
        self.fill(view, node.e[1], w, hi);
    }

    /// Offset of the `len`-amplitude table of node `id`, written by one
    /// walk of its sub-DD on first use.
    fn table(&mut self, view: &VectorView, id: u32, len: usize) -> usize {
        if let Some(&at) = self.at.get(&id) {
            return at;
        }
        if self.amps.len() + len > TABLE_CAP {
            self.at.clear();
            self.amps.clear();
        }
        let at = self.amps.len();
        self.amps.resize(at + len, Complex64::ZERO);
        debug_assert!(self.amps.len() <= TABLE_CAP);
        let (lo, hi) = self.amps[at..].split_at_mut(len / 2);
        let node = view.node(id);
        walk(view, node.e[0], Complex64::ONE, lo);
        walk(view, node.e[1], Complex64::ONE, hi);
        self.at.insert(id, at);
        self.built += 1;
        at
    }
}

/// Writes the sub-vector of `edge`, scaled by `weight`, into `dst` one
/// amplitude at a time (a zero edge as its zero run).
fn walk(view: &VectorView, edge: VEdge, weight: Complex64, dst: &mut [Complex64]) {
    if edge.is_zero() {
        dst.fill(Complex64::ZERO);
        return;
    }
    let w = weight * view.weight(edge.w);
    if edge.is_terminal() {
        dst[0] = w;
        return;
    }
    let node = view.node(edge.n);
    debug_assert_eq!(dst.len(), 2usize << node.level, "no level skipping");
    let (lo, hi) = dst.split_at_mut(dst.len() / 2);
    walk(view, node.e[0], w, lo);
    walk(view, node.e[1], w, hi);
}

/// One piece of a group's share: a fill task (`None`: a zero run)
/// and the output range it writes.
type Piece<'a> = (Option<&'a FillTask>, &'a mut [Complex64]);

/// One group's fill: its zero runs and fill tasks. Returns the number
/// of tables the group built.
fn fill_group(view: &VectorView, share: Vec<Piece<'_>>) -> usize {
    let mut tables = Tables::default();
    for (task, dst) in share {
        match task {
            Some(task) => tables.fill(view, task.edge, task.weight, dst),
            None => dst.fill(Complex64::ZERO),
        }
    }
    tables.built
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

/// Converts a vector DD into the caller's buffer, whatever it holds: every
/// amplitude is written exactly once. The plan is built with `shards`
/// dispatch groups and [`ThreadPool::for_each_part`] hands each its pieces
/// of `out`, so group `s` of the fill aligns with shard `s` of the output
/// state. `shards == 1` is a serial conversion. The worker-panic fault site
/// is probed through `ctx`, so chaos tests can panic one job's conversion
/// without touching its neighbors. Returns the per-group breakdown for
/// telemetry.
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
    let shards = shards.max(1);
    let plan = ConversionPlan::build(pkg, root, n, shards);
    // Parallel fill of disjoint ranges, one group per shard. Per-group wall
    // clocks are only taken when a telemetry sink is installed.
    let timed = qtelemetry::enabled();
    let clocks: Vec<AtomicU64> = if timed {
        (0..shards).map(|_| AtomicU64::new(0)).collect()
    } else {
        Vec::new()
    };
    let shares = plan.carve(pkg, out);
    pkg.with_vector_view(|view| {
        pool.for_each_part(shares.into_iter().enumerate(), |(g, share)| {
            if g == 0 && ctx.fires(crate::faults::SITE_CONVERT_WORKER).is_some() {
                panic!("fault injection: conversion worker panic");
            }
            let t0 = timed.then(Instant::now);
            fill_group(view, share);
            if let Some(t0) = t0 {
                clocks[g].store(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        })
    });
    ConversionBreakdown {
        fill_tasks: plan.fill_counts(),
        amp_spans: if timed {
            plan.coverage(pkg)
        } else {
            Vec::new()
        },
        worker_nanos: clocks.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::complex::state_distance;
    use qcircuit::{dense, generators, Circuit};
    use qdd::DdSimulator;
    use std::collections::HashSet;

    const TOL: f64 = 1e-12;

    /// Largest amplitude error, infinite when `got` holds a non-finite
    /// value (`state_distance` alone would skip a NaN).
    fn error(got: &[Complex64], want: &[Complex64]) -> f64 {
        if got.iter().all(|a| a.re.is_finite() && a.im.is_finite()) {
            state_distance(got, want)
        } else {
            f64::INFINITY
        }
    }

    fn convert_both_ways(circuit: &Circuit, threads: usize) -> (Vec<Complex64>, Vec<Complex64>) {
        let mut sim = DdSimulator::new(circuit.num_qubits());
        sim.run(circuit);
        let sequential = sim.amplitudes();
        let pool = ThreadPool::new(threads);
        let parallel =
            dd_to_array_parallel(sim.package(), sim.state(), circuit.num_qubits(), &pool);
        (sequential, parallel)
    }

    /// `|+>^n`: every node has identical children.
    fn plus_state(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q);
        }
        c
    }

    /// Converts `root` into a NaN-poisoned buffer at shards {1, 2, 4, 8, 16}
    /// x threads {1, 2, 4}: the one-shard fill is held to `want` at 1e-12,
    /// and every geometry to the one-shard fill bit for bit (signed zeros
    /// included).
    fn assert_fills_poisoned(
        pkg: &DdPackage,
        root: VEdge,
        n: usize,
        want: &[Complex64],
        what: &str,
    ) {
        let ctx = crate::RunContext::default();
        let bits = |pool: &ThreadPool, shards: usize| {
            let mut out = vec![Complex64::new(f64::NAN, f64::NAN); 1 << n];
            dd_to_array_parallel_sharded_into_with(pkg, root, n, pool, shards, &mut out, &ctx);
            let err = error(&out, want);
            assert!(err <= TOL, "{what}: t={} s={shards}: {err:e}", pool.size());
            out.iter()
                .map(|a| (a.re.to_bits(), a.im.to_bits()))
                .collect::<Vec<_>>()
        };
        let one = bits(&ThreadPool::new(1), 1);
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            for shards in [1, 2, 4, 8, 16] {
                let got = bits(&pool, shards);
                let moved = got.iter().zip(&one).filter(|(a, b)| a != b).count();
                assert_eq!(moved, 0, "{what}: t={threads} s={shards}: bits moved");
            }
        }
    }

    /// `c` run in the DD phase up to where the default EWMA policy converts
    /// (to its end when it never does).
    fn at_ewma_point(c: &Circuit) -> DdSimulator {
        let mut sim = DdSimulator::new(c.num_qubits());
        let mut monitor = crate::EwmaMonitor::new(crate::EwmaConfig::default());
        for g in c.iter() {
            sim.apply(g);
            if monitor.observe(sim.state_dd_size()) {
                break;
            }
        }
        sim
    }

    #[test]
    fn nan_poisoned_buffers_match_dense_at_every_geometry() {
        for c in [
            generators::ghz(10),
            generators::w_state(9),
            generators::qft(8),
            generators::knn(4, 11),
            // Seed 11 drifts 1.4e-11 from `dense` in the DD phase itself,
            // before any conversion.
            generators::dnn(8, 2, 12),
            generators::supremacy(3, 3, 8, 11),
            generators::random_circuit(9, 120, 11),
            // Root one level above the table boundary: 8 and 16 groups
            // meet it with groups to spare.
            generators::random_circuit(7, 80, 11),
            plus_state(10),
        ] {
            let n = c.num_qubits();
            let mut sim = DdSimulator::new(n);
            sim.run(&c);
            let want = dense::simulate(&c);
            assert_fills_poisoned(sim.package(), sim.state(), n, &want, c.name());
        }
        // A basis state: the plan is one path of zero-edge runs.
        let pkg = DdPackage::default();
        let e = pkg.basis_state(10, 0b1100110011);
        assert_fills_poisoned(&pkg, e, 10, &dense::basis_state(10, 0b1100110011), "basis");
        assert_fills_poisoned(&pkg, VEdge::ZERO, 6, &[Complex64::ZERO; 64], "zero");
    }

    #[test]
    fn states_at_their_conversion_point_fill_alike_at_every_geometry() {
        for c in [
            generators::supremacy_n(16, 14, 1),
            generators::supremacy_n(19, 20, 1),
            generators::knn(8, 1),
        ] {
            let n = c.num_qubits();
            let sim = at_ewma_point(&c);
            let want = sim.package().vector_to_array(sim.state(), n);
            assert_fills_poisoned(sim.package(), sim.state(), n, &want, c.name());
        }
    }

    /// Distinct nodes the fill meets at the table boundary from `roots`:
    /// the first node below [`TABLE_LEVEL`] on each path.
    fn boundary_nodes(pkg: &DdPackage, roots: &[VEdge]) -> HashSet<u32> {
        let (mut seen, mut found) = (HashSet::new(), HashSet::new());
        let mut stack: Vec<VEdge> = roots.to_vec();
        while let Some(e) = stack.pop() {
            if e.is_zero() || e.is_terminal() || !seen.insert(e.n) {
                continue;
            }
            let node = pkg.v_node(e.n);
            if node.level < TABLE_LEVEL {
                found.insert(e.n);
            } else {
                stack.extend(node.e);
            }
        }
        found
    }

    #[test]
    fn distinct_boundary_nodes_start_the_tables_over_and_still_fill() {
        // A random state at n = 15: 512 boundary nodes of 64 amplitudes,
        // twice TABLE_CAP (which a debug build asserts the tables never
        // pass). The first block repeats as the last, so its table, dropped
        // at the start-over halfway, is built a second time.
        let n = 15;
        let mut rng = qcircuit::rng::Rng::seed_from_u64(5);
        let mut v: Vec<Complex64> = (0..1 << n)
            .map(|_| Complex64::new(rng.f64_in(-1.0..1.0), rng.f64_in(-1.0..1.0)))
            .collect();
        let first: Vec<Complex64> = v[..64].to_vec();
        v[(1 << n) - 64..].copy_from_slice(&first);
        let pkg = DdPackage::default();
        let e = pkg.vector_from_slice(&v);
        let distinct = boundary_nodes(&pkg, &[e]).len();
        assert_eq!((distinct + 1) << TABLE_LEVEL, 2 * TABLE_CAP);
        let plan = ConversionPlan::build(&pkg, e, n, 1);
        let mut out = vec![Complex64::new(f64::NAN, 0.0); 1 << n];
        let share = plan.carve(&pkg, &mut out).remove(0);
        let tables = pkg.with_vector_view(|view| fill_group(view, share));
        assert_eq!(
            tables,
            distinct + 1,
            "the repeated block's table is rebuilt"
        );
        let want = pkg.vector_to_array(e, n);
        assert!(error(&out, &want) <= TOL);
        assert_fills_poisoned(&pkg, e, n, &want, "random, first block repeated");
    }

    #[test]
    fn repeated_sub_dds_build_one_table_per_node_per_group() {
        // A product of five random 2-qubit states: every sub-DD below a
        // factor's top repeats under each path above it.
        let mut rng = qcircuit::rng::Rng::seed_from_u64(3);
        let mut v = vec![Complex64::ONE];
        for _ in 0..5 {
            let f: Vec<Complex64> = (0..4)
                .map(|_| Complex64::new(rng.f64_in(-1.0..1.0), rng.f64_in(-1.0..1.0)))
                .collect();
            v = f
                .iter()
                .flat_map(|&a| v.iter().map(move |&b| a * b))
                .collect();
        }
        let n = 10;
        let pkg = DdPackage::default();
        let e = pkg.vector_from_slice(&v);
        // Below level 6 the whole state is one node, the top of the third
        // factor, met under each of the 16 paths above it.
        assert_eq!(boundary_nodes(&pkg, &[e]).len(), 1);
        let mut out = vec![Complex64::ZERO; 1 << n];
        for shards in [1, 2, 4, 8] {
            let plan = ConversionPlan::build(&pkg, e, n, shards);
            for (g, share) in plan.carve(&pkg, &mut out).into_iter().enumerate() {
                let roots: Vec<VEdge> = plan.fill[g].iter().map(|t| t.edge).collect();
                let tables = pkg.with_vector_view(|view| fill_group(view, share));
                let distinct = boundary_nodes(&pkg, &roots).len();
                assert_eq!(tables, distinct, "s={shards} g={g}");
            }
        }
        assert_fills_poisoned(&pkg, e, n, &pkg.vector_to_array(e, n), "product");
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn carving_an_overlapping_plan_panics() {
        let pkg = DdPackage::default();
        let plan = ConversionPlan {
            fill: vec![Vec::new(), Vec::new()],
            zero: vec![vec![0..4], vec![3..8]],
            dim: 8,
        };
        plan.carve(&pkg, &mut [Complex64::ZERO; 8]);
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
                assert!(error(&par, &seq) < TOL, "{} at t={t}", c.name());
            }
        }
    }

    #[test]
    fn matches_dense_ground_truth() {
        let c = generators::random_circuit(6, 60, 23);
        let (_, par) = convert_both_ways(&c, 4);
        let want = dense::simulate(&c);
        assert!(error(&par, &want) < TOL);
    }

    #[test]
    fn sparse_state_with_zero_edges_load_balances() {
        // A basis state: every node has one zero edge, so all threads chase
        // a single path — exactly the Fig. 4a scenario — down to the table
        // boundary, where the rest of the path is one fill task.
        let pkg = DdPackage::default();
        let e = pkg.basis_state(10, 0b1100110011);
        let pool = ThreadPool::new(4);
        let plan = ConversionPlan::build(&pkg, e, 10, 4);
        assert_eq!(
            plan.fill_counts().iter().sum::<usize>(),
            1,
            "one path, one task"
        );
        assert_eq!(plan.coverage(&pkg).iter().sum::<usize>(), 1 << TABLE_LEVEL);
        // The skipped halves are zero runs, each inside its group's shard.
        for (g, runs) in plan.zero.iter().enumerate() {
            let shard = qarray::shard_range(1 << 10, 4, g);
            assert!(runs
                .iter()
                .all(|r| shard.start <= r.start && r.end <= shard.end));
        }
        let zeros: usize = plan.zero.iter().flatten().map(|r| r.len()).sum();
        assert_eq!(zeros, (1 << 10) - (1 << TABLE_LEVEL));
        let out = dd_to_array_parallel(&pkg, e, 10, &pool);
        assert!(error(&out, &dense::basis_state(10, 0b1100110011)) < TOL);
    }

    #[test]
    fn nested_identical_children_fill_in_place() {
        // A global H wall plus phases gives nested identical-children nodes.
        let n = 5;
        let mut c = plus_state(n);
        c.t(0).s(2);
        let mut sim = DdSimulator::new(n);
        sim.run(&c);
        let pool = ThreadPool::new(2);
        let out = dd_to_array_parallel(sim.package(), sim.state(), n, &pool);
        assert!(error(&out, &dense::simulate(&c)) < TOL);
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
            assert!(error(&out, &want) < TOL, "t={threads} s={shards}");
        }
    }

    #[test]
    fn thread_counts_beyond_paths_are_safe() {
        let pkg = DdPackage::default();
        let e = pkg.basis_state(3, 5);
        let pool = ThreadPool::new(8); // more threads than amplitudes
        let out = dd_to_array_parallel(&pkg, e, 3, &pool);
        assert!(error(&out, &dense::basis_state(3, 5)) < TOL);
    }
}
