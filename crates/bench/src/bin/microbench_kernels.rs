//! Kernel microbenchmarks: a `convert` block (the DD-to-array conversion
//! split into allocate + fault, zero pass and fill, at n = 18, 21, 24 on
//! the `knn` and `dnn` states at their conversion point), ns/amplitude for
//! the hot vecops primitives
//! (`axpy`, `mac2x2`, `sum_into`, the conversion's table scale), a whole
//! per-gate DMAV application, a `dmav_by_target` block (one gate at
//! n = 20 per target qubit: DMAV plain, DMAV cached, DMAV in place, the
//! array kernel), a `fused_blocks` block (`dnn`'s fused matrices at n = 20
//! in place, out of place and as their gates one by one), a `blocked_runs`
//! block (the flat tails of `dnn(20, 5)` fused and `supremacy_n(21, 4)`
//! one matrix at a time and in blocked runs at block levels 12–18, with the
//! share of matrices that joined a run), a `widen` block (the flat phase's
//! widen-and-apply of an uncontrolled 2x2 into 2^16–2^21 amplitudes against
//! one in-place 2x2 pass at the new width), a `one_qubit_groups` block
//! (RYs as complex 2x2 passes against one real group of 1–3, at 2^10,
//! 2^16 and 2^20 amplitudes), a `pair_table_prep` block (a period of four
//! complex 2x2s on one 8-amplitude block: the apply of a prepared
//! `vecops::PairTable` against a one-use table prepared on the stack and
//! applied, ns per call), a `diag_shapes` block (the slow diagonal
//! shapes of ROADMAP item 3(d) at 2^16, recorded), under the SIMD
//! backend selected at startup (`FLATDD_SIMD={auto,scalar,avx2}`), and a
//! `dd_tables` block (the DD
//! phase's fixed per-operation costs: complex-table `lookup` hit / miss and
//! `DdPackage::stats()` at 10^3 and 10^6 interned values, `gate_dd` cold /
//! warm at n = 14, one DD gate — H on qubit 0, H on the top qubit, T on
//! the top qubit — on a saturated 12-qubit state, ns per state node, and the
//! unique table at 65 536 nodes per arena: insert / hit / sweep in ns per
//! node and the bytes both arenas reserve per vector + matrix node pair).
//!
//! `--check` exits 1 when an H through plain DMAV, or through DMAV in place,
//! costs more than 3x as much on target 0 as on target n-1 (constant
//! per-amplitude cost at every target is what Section 3.2.1 claims), when an
//! in-place CX controlled from qubit 0 costs more than 3x the CX controlled
//! from the top qubit on target 1 or 2 (a control below the target must not
//! fall off the vector kernels), when in-place H, T or CX-from-above on
//! target 10 costs more than 1.25x the array kernel's in-place update (the
//! gate DD's structure must buy something, not cost something), when the
//! tiled ZZ-layer diagonal costs more than 3x (4x on the portable path) an
//! in-place T on target 10 timed in turns with it, or a tiled fused block
//! more than its gates run
//! one by one (a plan-time tile must not fall back to the leaf walk), when
//! the `dnn` tail in blocked runs at `BLOCK_LEVEL` costs more than 0.9x
//! (1.1x on the portable path) the same tail one matrix at a time, timed in
//! turns (a run must stream the state once, not once per matrix), when
//! the block-wise conversion fill of the `knn` state at n = 21 costs more
//! than 2x one `vecops::scale` pass over as many amplitudes (the fill must
//! run at memory speed, not walk the DD per amplitude), when widening a
//! state by a qubit at its middle bit while applying a one-qubit gate costs
//! more than 1.8x one in-place 2x2 pass over the widened state (the widen
//! kernel must stream, not move single amplitudes), when three real
//! one-qubit matrices in one group cost more than 0.85x the three as
//! complex passes at 2^16 (a group must share its register loads), when a
//! one-use period-4 pair table costs more than 3x the apply of a prepared
//! one (a one-use table must be cheap to prepare), when
//! `stats()` at 10^6 values costs more than 3x what it costs at 10^3 (the
//! driver reads it every gate, so it must not walk the tables), when a memoized `gate_dd` costs more than 1/5 of
//! a first build, when a T on the top qubit of the saturated state costs
//! more than 1/20 of an H there (the multiply must stop at the identity
//! below the gate instead of walking the state), or when the arenas reserve
//! more than 180 bytes per node pair (a node is stored once; 244 with a
//! second copy as a hash-map key). Every ratio is between two numbers of
//! this process, so the host's speed cancels, and the byte count does not
//! depend on it.
//!
//! Emits `results/microbench_kernels.json` (override with `--json PATH`).
//! Run once per backend and compare the `ns_per_amp` columns:
//!
//! ```text
//! cargo run --release --bin microbench_kernels
//! FLATDD_SIMD=scalar cargo run --release --bin microbench_kernels -- \
//!     --json results/microbench_kernels_scalar.json
//! ```

use flatdd::{
    dd_to_array_parallel_sharded_into_with, dmav_cached, dmav_in_place, dmav_no_cache,
    dmav_run_in_place, fuse_dmav_aware, CostModel, DmavAssignment, DmavCacheAssignment, EwmaConfig,
    EwmaMonitor, PartialBuffers, ThreadPool, BLOCK_LEVEL,
};
use flatdd_bench::{HarnessArgs, JsonWriter, Table};
use qarray::vecops;
use qcircuit::gate::{Control, Gate, GateKind};
use qcircuit::{generators, Complex64};
use qdd::node::{MEdge, MNode, Node, NodeArena, VEdge, VNode, TERM};
use qdd::{CIdx, DdPackage, DdSimulator};
use std::time::Instant;

/// Deterministic, non-trivial amplitudes (no RNG dependency).
fn fill(v: &mut [Complex64]) {
    let mut x = 0x9e3779b97f4a7c15u64;
    for a in v.iter_mut() {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let re = ((x >> 11) as f64) * (1.0 / (1u64 << 53) as f64) - 0.5;
        let im = ((x >> 22) as f64) * (1.0 / (1u64 << 42) as f64) - 0.5;
        *a = Complex64::new(re, im);
    }
}

/// Median seconds of `reps` runs of `f` (each run returns amplitudes touched).
fn time_median(reps: usize, mut f: impl FnMut() -> usize) -> (f64, usize) {
    let mut times = Vec::with_capacity(reps);
    let mut amps = 0;
    for _ in 0..reps.max(1) {
        let s = Instant::now();
        amps = f();
        times.push(s.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], amps)
}

/// Median seconds of `reps` runs each of `a` and `b` on `v`, taken in turns
/// so a change of host speed during the block moves both alike.
fn time_interleaved(
    reps: usize,
    v: &mut [Complex64],
    mut a: impl FnMut(&mut [Complex64]),
    mut b: impl FnMut(&mut [Complex64]),
) -> (f64, f64) {
    let mut times = [Vec::with_capacity(reps), Vec::with_capacity(reps)];
    for _ in 0..reps.max(1) {
        let s = Instant::now();
        a(v);
        times[0].push(s.elapsed().as_secs_f64());
        let s = Instant::now();
        b(v);
        times[1].push(s.elapsed().as_secs_f64());
    }
    let [a, b] = times.map(|mut t| {
        t.sort_by(f64::total_cmp);
        t[t.len() / 2]
    });
    (a, b)
}

/// Qubit count of the `dmav_by_target` block.
const BY_TARGET_N: usize = 20;
/// `--check`: largest accepted (H on target 0) / (H on target n-1) ratio of
/// plain DMAV and of DMAV in place.
const MAX_TARGET_RATIO: f64 = 3.0;
/// `--check`: largest accepted in-place (CX controlled from qubit 0) / (CX
/// controlled from qubit n-1) ratio on targets 1 and 2.
const MAX_CONTROL_BELOW_RATIO: f64 = 3.0;
/// `--check`: largest accepted (DMAV in place) / (array kernel) ratio of H, T
/// and CX-from-above on [`VS_ARRAY_TARGET`].
const MAX_VS_ARRAY_RATIO: f64 = 1.25;
/// Target of the rows [`MAX_VS_ARRAY_RATIO`] is held on (n / 2).
const VS_ARRAY_TARGET: usize = BY_TARGET_N / 2;

/// One row of the `dmav_by_target` block, ns per amplitude.
struct TargetRow {
    gate: &'static str,
    target: usize,
    plain: f64,
    in_place: f64,
    array: f64,
}

/// One gate per row on a 2^20 state, one thread: H, T and CX (control on the
/// top qubit / on qubit 0) at targets 0, 1, 2, n/2, n-1, through plain and
/// cached DMAV (out of place), DMAV in place, and the array kernel.
fn dmav_by_target(reps: usize, backend: &str, json: &mut JsonWriter) -> Vec<TargetRow> {
    let n = BY_TARGET_N;
    let dim = 1usize << n;
    let pkg = DdPackage::default();
    let pool = ThreadPool::new(1);
    let mut scratch = PartialBuffers::default();
    let mut state = vec![Complex64::ZERO; dim];
    let mut out = vec![Complex64::ZERO; dim];
    fill(&mut state);
    let mut table = Table::new(vec![
        "gate",
        "target",
        "dmav_plain",
        "dmav_cached",
        "dmav_in_place",
        "array",
    ]);
    let mut rows = Vec::new();
    for target in [0, 1, 2, n / 2, n - 1] {
        let gates = [
            ("h", Some(Gate::new(GateKind::H, target))),
            ("t", Some(Gate::new(GateKind::T, target))),
            (
                "cx_ctrl_above",
                (target != n - 1)
                    .then(|| Gate::controlled(GateKind::X, target, vec![Control::pos(n - 1)])),
            ),
            (
                "cx_ctrl_below",
                (target != 0).then(|| Gate::controlled(GateKind::X, target, vec![Control::pos(0)])),
            ),
        ];
        for (name, gate) in gates {
            let Some(gate) = gate else { continue };
            let m = pkg.gate_dd(&gate, n);
            let plain = DmavAssignment::build(&pkg, m, n, 1);
            let cached = DmavCacheAssignment::build(&pkg, m, n, 1);
            let ns = |secs: f64| secs * 1e9 / dim as f64;
            let plain_ns = ns(time_median(reps, || {
                dmav_no_cache(&pkg, &plain, &state, &mut out, &pool);
                dim
            })
            .0);
            let cached_ns = ns(time_median(reps, || {
                dmav_cached(&pkg, &cached, &state, &mut out, &pool, &mut scratch);
                dim
            })
            .0);
            // Both in-place kernels run on the scratch output: its values do
            // not matter (every gate here is unitary, so they stay finite).
            let in_place_ns = ns(time_median(reps, || {
                dmav_in_place(&plain, &mut out, &pool);
                dim
            })
            .0);
            let array_ns = ns(time_median(reps, || {
                qarray::apply_gate_serial(&mut out, &gate);
                dim
            })
            .0);
            table.row(vec![
                name.into(),
                target.to_string(),
                format!("{plain_ns:.3}"),
                format!("{cached_ns:.3}"),
                format!("{in_place_ns:.3}"),
                format!("{array_ns:.3}"),
            ]);
            json.record(vec![
                ("kernel", "dmav_by_target".into()),
                ("backend", backend.into()),
                ("gate", name.into()),
                ("target", target.into()),
                ("n", n.into()),
                ("dmav_plain_ns_per_amp", plain_ns.into()),
                ("dmav_cached_ns_per_amp", cached_ns.into()),
                ("dmav_in_place_ns_per_amp", in_place_ns.into()),
                ("array_ns_per_amp", array_ns.into()),
            ]);
            rows.push(TargetRow {
                gate: name,
                target,
                plain: plain_ns,
                in_place: in_place_ns,
                array: array_ns,
            });
        }
    }
    println!("\ndmav_by_target — n = {n}, 1 thread, ns per amplitude");
    table.print();
    rows
}

/// `--check`: largest accepted (tiled ZZ-layer diagonal, in place) / (T on
/// [`VS_ARRAY_TARGET`], in place) ratio — 3 under AVX2, 4 on the portable
/// path. A tiled diagonal is two complex products per amplitude (its
/// occurrence's factor, then its entry) where T is one on half the state;
/// AVX2 hides most of that under the memory stream (2.5–2.8), the SSE2
/// code the portable loops compile to does not (3.0–3.1, EXPERIMENTS.md).
fn max_tiled_diagonal_ratio(backend: vecops::Backend) -> f64 {
    match backend {
        vecops::Backend::Avx2 => 3.0,
        vecops::Backend::Scalar => 4.0,
    }
}

/// One row of the `fused_blocks` block, ns per amplitude (NaN in place for
/// a block without an in-place form).
struct FusedRow {
    block: &'static str,
    /// The block runs in place through plan-time tiles.
    tiled: bool,
    in_place: f64,
    /// In-place T on [`VS_ARRAY_TARGET`], timed in turns with `in_place`.
    t_in_place: f64,
    unfused: f64,
}

/// `dnn`'s fused shapes on a 2^20 state, one thread: the CX–RZ–CX ladder
/// over every neighbouring pair (one irregular diagonal `zz`), `RY(0)`
/// after it, `RY(19)` before it, and `RY` on two neighbouring qubits —
/// through DMAV in place (the tiled walk, in turns with an in-place T on
/// [`VS_ARRAY_TARGET`] as the ratio's reference), out of place, and as the
/// sum of its gates run one by one in place. Products read right to left:
/// in `ry0·zz` the ladder comes first.
fn fused_blocks(reps: usize, backend: &str, json: &mut JsonWriter) -> Vec<FusedRow> {
    let n = BY_TARGET_N;
    let dim = 1usize << n;
    let pkg = DdPackage::default();
    let pool = ThreadPool::new(1);
    let mut state = vec![Complex64::ZERO; dim];
    let mut out = vec![Complex64::ZERO; dim];
    fill(&mut state);
    let ry = |q: usize| Gate::new(GateKind::RY(0.7 + 0.1 * q as f64), q);
    let zz: Vec<Gate> = (0..n - 1)
        .flat_map(|q| {
            let cx = Gate::controlled(GateKind::X, q + 1, vec![Control::pos(q)]);
            let rz = Gate::new(GateKind::RZ(0.3 + 0.2 * q as f64), q + 1);
            [cx.clone(), rz, cx]
        })
        .collect();
    // (name, gates, runs in place through tiles)
    let blocks = [
        ("zz", zz.clone(), true),
        ("ry0·zz", [zz.clone(), vec![ry(0)]].concat(), true),
        ("zz·ry19", [vec![ry(n - 1)], zz].concat(), true),
        ("ry9·ry10", vec![ry(9), ry(10)], false),
    ];
    let ns = |secs: f64| secs * 1e9 / dim as f64;
    let t_gate = Gate::new(GateKind::T, VS_ARRAY_TARGET);
    let t_asg = DmavAssignment::build(&pkg, pkg.gate_dd(&t_gate, n), n, 1);
    let mut table = Table::new(vec![
        "block",
        "gates",
        "in_place",
        "t_in_place",
        "out_of_place",
        "unfused_in_place",
    ]);
    let mut rows = Vec::new();
    for (name, gates, tiled) in blocks {
        let m = gates.iter().fold(pkg.identity_dd(n), |acc, g| {
            pkg.mul_mm(pkg.gate_dd(g, n), acc)
        });
        let asg = DmavAssignment::build(&pkg, m, n, 1);
        let (in_place, t_in_place) = if asg.in_place() {
            let (block, t) = time_interleaved(
                reps,
                &mut out,
                |v| dmav_in_place(&asg, v, &pool),
                |v| dmav_in_place(&t_asg, v, &pool),
            );
            (ns(block), ns(t))
        } else {
            (f64::NAN, f64::NAN)
        };
        let out_of_place = ns(time_median(reps, || {
            dmav_no_cache(&pkg, &asg, &state, &mut out, &pool);
            dim
        })
        .0);
        let unfused: f64 = gates
            .iter()
            .map(|g| {
                let single = DmavAssignment::build(&pkg, pkg.gate_dd(g, n), n, 1);
                ns(time_median(reps, || {
                    dmav_in_place(&single, &mut out, &pool);
                    dim
                })
                .0)
            })
            .sum();
        table.row(vec![
            name.into(),
            gates.len().to_string(),
            format!("{in_place:.3}"),
            format!("{t_in_place:.3}"),
            format!("{out_of_place:.3}"),
            format!("{unfused:.3}"),
        ]);
        json.record(vec![
            ("kernel", "fused_blocks".into()),
            ("backend", backend.into()),
            ("block", name.into()),
            ("gates", gates.len().into()),
            ("n", n.into()),
            ("in_place_ns_per_amp", in_place.into()),
            ("t_in_place_ns_per_amp", t_in_place.into()),
            ("out_of_place_ns_per_amp", out_of_place.into()),
            ("unfused_ns_per_amp", unfused.into()),
        ]);
        rows.push(FusedRow {
            block: name,
            tiled,
            in_place,
            t_in_place,
            unfused,
        });
    }
    println!("\nfused_blocks — n = {n}, 1 thread, ns per amplitude");
    table.print();
    rows
}

/// Block levels the `blocked_runs` block sweeps.
const RUN_LEVELS: std::ops::RangeInclusive<usize> = 12..=18;
/// `--check`: largest accepted (the `dnn` tail in blocked runs at
/// [`BLOCK_LEVEL`]) / (the same tail one matrix at a time) — 0.9 under
/// AVX2, 1.1 on the portable path. A dense 2x2 streams at 0.74
/// ns/amplitude from L3 and 0.64 from L2 under AVX2, so fewer passes show
/// (0.78–0.87); the SSE2 code the portable loops compile to is compute
/// bound at about 1 ns/amplitude wherever the block sits (1.00–1.04,
/// EXPERIMENTS.md), so there the rule only holds that runs cost nothing.
fn max_blocked_ratio(backend: vecops::Backend) -> f64 {
    match backend {
        vecops::Backend::Avx2 => 0.9,
        vecops::Backend::Scalar => 1.1,
    }
}

/// One row of the `blocked_runs` block.
struct RunRow {
    tail: &'static str,
    /// `None`: one matrix at a time; `Some(level)`: blocked runs at it.
    level: Option<usize>,
    ms: f64,
    /// The per-matrix walk, timed in turns with `ms` (the checked level).
    per_matrix_ms: f64,
}

/// The flat tail of `c` after the EWMA conversion, at one group: the
/// state the conversion hands over and the plans of the matrices after it
/// (`dnn`'s fused by DMAV-aware fusion, as `dnn_fused` runs them) with the
/// gates each folds.
fn flat_tail(c: &qcircuit::Circuit, fuse: bool) -> (Vec<Complex64>, Vec<(DmavAssignment, usize)>) {
    let n = c.num_qubits();
    let mut sim = DdSimulator::new(n);
    let mut monitor = EwmaMonitor::new(EwmaConfig::default());
    let mut at = c.num_gates();
    for (i, g) in c.iter().enumerate() {
        sim.apply(g);
        if monitor.observe(sim.state_dd_size()) {
            at = i + 1;
            break;
        }
    }
    let state = sim.package().vector_to_array(sim.state(), n);
    let mut pkg = DdPackage::default();
    let tail = &c.gates()[at..];
    let (matrices, folds) = if fuse {
        let fused = fuse_dmav_aware(&mut pkg, tail, n, 1, &CostModel::default(), 64);
        (fused.matrices, fused.gate_counts)
    } else {
        (
            tail.iter().map(|g| pkg.gate_dd(g, n)).collect(),
            vec![1; tail.len()],
        )
    };
    let plans = matrices
        .into_iter()
        .map(|m| DmavAssignment::build(&pkg, m, n, 1))
        .zip(folds)
        .collect();
    (state, plans)
}

/// The plans cut into runs at `level` the way the engine cuts them, each
/// with the block level it runs at: maximal sequences of in-place plans
/// that mix rows only below the level (blocked runs at it), up to
/// `REAL_GROUP` real one-qubit plans after one that mixes above it (a group
/// streamed at the tail's width), at most 64 gates each (a run of one for
/// everything else).
fn runs_at(plans: &[(DmavAssignment, usize)], level: usize) -> Vec<(Vec<&DmavAssignment>, usize)> {
    let n = plans.first().map_or(0, |(asg, _)| asg.n);
    let joins = |asg: &DmavAssignment| asg.in_place() && asg.mixing_level() <= level;
    let mut runs: Vec<(Vec<&DmavAssignment>, usize)> = Vec::new();
    let mut folded = 0;
    for (asg, gates) in plans {
        let takes = |run: &[&DmavAssignment]| match (joins(run[0]), joins(asg)) {
            (true, joined) => joined,
            (false, true) => false,
            (false, false) => {
                run[0].real_one_qubit() && asg.real_one_qubit() && run.len() < vecops::REAL_GROUP
            }
        };
        match runs.last_mut() {
            Some((run, _)) if folded + gates <= 64 && takes(run) => {
                run.push(asg);
                folded += gates;
            }
            _ => {
                runs.push((vec![asg], if joins(asg) { level } else { n }));
                folded = *gates;
            }
        }
    }
    runs
}

/// A flat tail's plans and what they run on, one matrix at a time or in
/// blocked runs. A plan without an in-place form (neither tail has one at
/// one group) runs out of place into `w`, copied back.
struct Tail<'a> {
    plans: &'a [(DmavAssignment, usize)],
    pkg: &'a DdPackage,
    pool: &'a ThreadPool,
}

impl Tail<'_> {
    fn one(&self, asg: &DmavAssignment, v: &mut [Complex64], w: &mut [Complex64]) {
        if asg.in_place() {
            dmav_in_place(asg, v, self.pool);
        } else {
            dmav_no_cache(self.pkg, asg, v, w, self.pool);
            v.copy_from_slice(w);
        }
    }

    fn per_matrix(&self, v: &mut [Complex64], w: &mut [Complex64]) {
        for (asg, _) in self.plans {
            self.one(asg, v, w);
        }
    }

    fn blocked(
        &self,
        runs: &[(Vec<&DmavAssignment>, usize)],
        v: &mut [Complex64],
        w: &mut [Complex64],
    ) {
        for (run, level) in runs {
            match &run[..] {
                [asg] => self.one(asg, v, w),
                _ => dmav_run_in_place(run, v, self.pool, *level),
            }
        }
    }
}

/// The flat tails of `dnn(20, 5)` (DMAV-aware fused, as `dnn_fused` runs
/// it) and `supremacy_n(21, 4)` after their EWMA conversion, one thread:
/// one matrix at a time against blocked runs at every level of
/// [`RUN_LEVELS`], and the share of matrices that joined a run of two or
/// more. At [`BLOCK_LEVEL`] the two are timed in turns, for `--check`.
fn blocked_runs(reps: usize, backend: &str, json: &mut JsonWriter) -> Vec<RunRow> {
    let pool = ThreadPool::new(1);
    let pkg = DdPackage::default();
    let mut table = Table::new(vec![
        "tail",
        "matrices",
        "level",
        "passes",
        "blocked_share",
        "ms",
    ]);
    let mut rows = Vec::new();
    for (tail, c, fuse) in [
        ("dnn", generators::dnn(20, 5, 11), true),
        ("supremacy", generators::supremacy_n(21, 4, 1), false),
    ] {
        let (mut v, plans) = flat_tail(&c, fuse);
        let (mut w, mut w2) = (
            vec![Complex64::ZERO; v.len()],
            vec![Complex64::ZERO; v.len()],
        );
        let walk = Tail {
            plans: &plans,
            pkg: &pkg,
            pool: &pool,
        };
        let mut record = |level: Option<usize>, passes: usize, share: f64, ms: f64, per: f64| {
            let label = level.map_or("per matrix".into(), |l| l.to_string());
            table.row(vec![
                tail.into(),
                plans.len().to_string(),
                label,
                passes.to_string(),
                format!("{share:.2}"),
                format!("{ms:.2}"),
            ]);
            json.record(vec![
                ("kernel", "blocked_runs".into()),
                ("backend", backend.into()),
                ("tail", tail.into()),
                ("matrices", plans.len().into()),
                ("level", level.into()),
                ("passes", passes.into()),
                ("blocked_share", share.into()),
                ("ms", ms.into()),
            ]);
            rows.push(RunRow {
                tail,
                level,
                ms,
                per_matrix_ms: per,
            });
        };
        let per = time_median(reps, || {
            walk.per_matrix(&mut v, &mut w);
            1
        })
        .0 * 1e3;
        record(None, plans.len(), 0.0, per, per);
        for level in RUN_LEVELS {
            let runs = runs_at(&plans, level);
            let joined = runs
                .iter()
                .filter(|(r, _)| r.len() > 1)
                .map(|(r, _)| r.len())
                .sum::<usize>();
            let share = joined as f64 / plans.len() as f64;
            let (ms, per) = if level == BLOCK_LEVEL {
                let (ms, per) = time_interleaved(
                    reps,
                    &mut v,
                    |v| walk.blocked(&runs, v, &mut w),
                    |v| walk.per_matrix(v, &mut w2),
                );
                (ms * 1e3, per * 1e3)
            } else {
                let ms = time_median(reps, || {
                    walk.blocked(&runs, &mut v, &mut w);
                    1
                });
                (ms.0 * 1e3, per)
            };
            record(Some(level), runs.len(), share, ms, per);
        }
    }
    println!("\nblocked_runs — flat tails after the EWMA conversion, 1 thread, ms per tail");
    table.print();
    rows
}

/// New widths of the `widen` block.
const WIDEN_NS: std::ops::RangeInclusive<usize> = 16..=21;
/// `--check`: largest accepted (widen-and-apply of an uncontrolled 2x2 into
/// a `2^n` state) / (one in-place 2x2 pass of the array kernel over it) at
/// the middle qubit. The widening reads half the amplitudes the pass reads
/// and writes as many, but its writes land on lines it has not read, so
/// out of cache each costs a read for ownership as well: 2.5 state sizes
/// of traffic against the pass's 2, and 1.3–1.6x measured from n = 18 up
/// (EXPERIMENTS.md, "Active-width flat phase"). A kernel that moved
/// single amplitudes would read 2.5x and more.
const MAX_WIDEN_RATIO: f64 = 1.8;

/// One row of the `widen` block, ns per amplitude of the new width.
struct WidenRow {
    n: usize,
    p: usize,
    widen: f64,
    pass: f64,
}

/// The flat phase's widen kernel: a `2^(n-1)` state widened by a qubit at
/// bit `p` while an uncontrolled RY is applied to it (`qarray::widen` with
/// the gate's first column), against one in-place pass of the array
/// kernel's RY on bit `p` of the `2^n` result, timed in turns, at
/// n = 16–21 and p = 0, n/2, n-1. One thread.
fn widen_block(reps: usize, backend: &str, json: &mut JsonWriter) -> Vec<WidenRow> {
    let kind = GateKind::RY(0.7);
    let m = kind.matrix();
    let mut table = Table::new(vec!["n", "p", "widen_ns", "pass_ns", "ratio"]);
    let mut rows = Vec::new();
    for n in WIDEN_NS {
        let dim = 1usize << n;
        let mut v = vec![Complex64::ZERO; dim];
        fill(&mut v);
        for p in [0, n / 2, n - 1] {
            let gate = Gate::new(kind, p);
            // Both keep the state's norm, so repeated timing stays clear of
            // subnormals.
            let (widen, pass) = time_interleaved(
                reps,
                &mut v,
                |v| qarray::widen(v, p, [m[0], m[2]]),
                |v| qarray::apply_gate_serial(v, &gate),
            );
            let [widen, pass] = [widen, pass].map(|s| s * 1e9 / dim as f64);
            table.row(vec![
                n.to_string(),
                p.to_string(),
                format!("{widen:.3}"),
                format!("{pass:.3}"),
                format!("{:.2}", widen / pass),
            ]);
            json.record(vec![
                ("kernel", "widen".into()),
                ("backend", backend.into()),
                ("n", n.into()),
                ("p", p.into()),
                ("widen_ns_per_amp", widen.into()),
                ("pass_ns_per_amp", pass.into()),
            ]);
            rows.push(WidenRow { n, p, widen, pass });
        }
    }
    println!(
        "\nwiden — widen-and-apply of RY into 2^n against one in-place RY pass, ns per amplitude"
    );
    table.print();
    rows
}

/// Amplitude counts (log2) of the `one_qubit_groups` block.
const GROUP_NS: [usize; 3] = [10, 16, 20];
/// Qubits of the `one_qubit_groups` block's matrices, in the order a group
/// takes them: one whose pairs sit in adjacent registers, and two wider.
const GROUP_QUBITS: [usize; 3] = [1, 4, 7];
/// Amplitude count (log2) [`MAX_GROUP_RATIO`] is held at: the block of a
/// blocked run ([`BLOCK_LEVEL`]).
const CHECK_GROUP_N: usize = 16;
/// `--check`: largest accepted (a group of three real 2x2s in one pass) /
/// (the three as complex 2x2 passes, the path of a complex `Kron`), per
/// amplitude and matrix at 2^[`CHECK_GROUP_N`], timed in turns. Under AVX2
/// the group costs 0.63-0.72 of the complex passes, the portable loops
/// (SSE2) 0.43-0.46 (EXPERIMENTS.md, "Real one-qubit groups"). A group
/// that fell back to a pass per matrix, or to complex arithmetic, reads
/// about 1.
const MAX_GROUP_RATIO: f64 = 0.85;

/// One row of the `one_qubit_groups` block, ns per amplitude and matrix.
struct GroupRow {
    n: usize,
    size: usize,
    complex: f64,
    real: f64,
}

/// Real one-qubit matrices (RYs) on [`GROUP_QUBITS`] of a `2^n` state, n in
/// [`GROUP_NS`], one thread: the first 1, 2 or 3 of them as complex 2x2
/// passes (`PairTable::apply` of one matrix, the path a complex `Kron` takes)
/// against one `vecops::real_2x2_group`, timed in turns.
fn one_qubit_groups(reps: usize, backend: &str, json: &mut JsonWriter) -> Vec<GroupRow> {
    let mut table = Table::new(vec!["n", "group", "complex_ns", "real_ns", "ratio"]);
    let mut rows = Vec::new();
    for n in GROUP_NS {
        let dim = 1usize << n;
        let mut v = vec![Complex64::ZERO; dim];
        fill(&mut v);
        // Orthogonal, so repeated timing keeps the state's norm.
        let group: Vec<vecops::Real2x2> = GROUP_QUBITS
            .iter()
            .enumerate()
            .map(|(j, &q)| {
                let m = GateKind::RY(0.4 + 0.3 * j as f64).matrix();
                vecops::Real2x2::of(&m, 1 << q).expect("an RY off qubit 0 is real")
            })
            .collect();
        // Enough passes per timing that a 2^10 state is not all timer.
        let passes = (1usize << 22) / dim;
        for size in 1..=vecops::REAL_GROUP {
            let tiles: Vec<(vecops::PairTable, usize)> = group[..size]
                .iter()
                .map(|g| {
                    let m = g.m.map(|x| Complex64::new(x, 0.0));
                    (vecops::PairTable::new(&[m]), g.half)
                })
                .collect();
            let (complex, real) = time_interleaved(
                reps,
                &mut v,
                |v| {
                    for _ in 0..passes {
                        for (tile, half) in &tiles {
                            tile.apply(v, *half, Complex64::ONE);
                        }
                    }
                },
                |v| {
                    for _ in 0..passes {
                        vecops::real_2x2_group(v, &group[..size]);
                    }
                },
            );
            let per = (passes * size * dim) as f64;
            let [complex, real] = [complex, real].map(|s| s * 1e9 / per);
            table.row(vec![
                n.to_string(),
                size.to_string(),
                format!("{complex:.3}"),
                format!("{real:.3}"),
                format!("{:.2}", real / complex),
            ]);
            json.record(vec![
                ("kernel", "one_qubit_groups".into()),
                ("backend", backend.into()),
                ("n", n.into()),
                ("group", size.into()),
                ("complex_ns_per_amp_gate", complex.into()),
                ("real_ns_per_amp_gate", real.into()),
            ]);
            rows.push(GroupRow {
                n,
                size,
                complex,
                real,
            });
        }
    }
    println!(
        "\none_qubit_groups — RYs on qubits {GROUP_QUBITS:?}, complex passes against one real group, ns per amplitude and matrix"
    );
    table.print();
    rows
}

/// Pairs in the period of the `pair_table_prep` block.
const PREP_PERIOD: usize = 4;
/// `--check`: largest accepted (a one-use period-4 pair table, prepared on
/// the stack and applied to one period) / (the same apply of a prepared
/// table), per call. A one-use table costs 1.5-2.8x the apply alone on
/// the reference box (EXPERIMENTS.md, "One pair table and one diagonal
/// table"); a preparation that zeroes or copies a whole
/// [`vecops::MAX_TILE`] table, as the retired per-call tile did, reads
/// 4-9.
const MAX_PREP_RATIO: f64 = 3.0;

/// The in-place walk's one-use pair tables: a period of
/// [`PREP_PERIOD`] complex 2x2s on one `2 * PREP_PERIOD`-amplitude block,
/// the region a control below the target leaves when the walk meets a
/// single period, one thread, ns per call: the apply of a prepared table
/// against preparing the table on the stack and applying it, timed in
/// turns. Returns the two.
fn pair_table_prep(reps: usize, backend: &str, json: &mut JsonWriter) -> (f64, f64) {
    let mats: Vec<[Complex64; 4]> = (0..PREP_PERIOD)
        .map(|j| GateKind::U(0.3 + j as f64, 0.7, -0.2 * j as f64).matrix())
        .collect();
    let prepared = vecops::PairTable::new(&mats);
    let mut v = vec![Complex64::ZERO; 1 << 10];
    fill(&mut v);
    let (block, passes) = (2 * PREP_PERIOD, 1 << 10);
    let (apply, one_use) = time_interleaved(
        reps,
        &mut v,
        |v| {
            for _ in 0..passes {
                for b in v.chunks_exact_mut(block) {
                    prepared.apply(b, PREP_PERIOD, Complex64::ONE);
                }
            }
        },
        |v| {
            for _ in 0..passes {
                for b in v.chunks_exact_mut(block) {
                    let mats = std::hint::black_box(&mats[..]);
                    vecops::PairTable::with(mats, |t| t.apply(b, PREP_PERIOD, Complex64::ONE));
                }
            }
        },
    );
    let calls = (passes * v.len() / block) as f64;
    let [apply, one_use] = [apply, one_use].map(|s| s * 1e9 / calls);
    let mut table = Table::new(vec!["pair table, period 4", "ns_per_call"]);
    table.row(vec![
        "apply of a prepared table".into(),
        format!("{apply:.1}"),
    ]);
    table.row(vec![
        "one-use table: prepare + apply".into(),
        format!("{one_use:.1}"),
    ]);
    json.record(vec![
        ("kernel", "pair_table_prep".into()),
        ("backend", backend.into()),
        ("period", PREP_PERIOD.into()),
        ("apply_ns_per_call", apply.into()),
        ("one_use_ns_per_call", one_use.into()),
    ]);
    println!("\npair_table_prep — one period of {PREP_PERIOD} complex 2x2s on {block} amplitudes, ns per call");
    table.print();
    (apply, one_use)
}

/// Diagonal gates whose in-place DMAV costs far more per amplitude than the
/// same gate on other qubits, at 2^16 amplitudes, one thread: CZ 3 -> 4
/// (`supremacy_flat` runs it) against CZ 8 -> 9, CZ 0 -> 5, and T on qubit 0
/// against T on qubit 12. Recorded as the baseline of the slow diagonal
/// shapes (ROADMAP item 3), not checked.
fn diag_shapes(reps: usize, backend: &str, json: &mut JsonWriter) {
    let n = 16;
    let dim = 1usize << n;
    let pkg = DdPackage::default();
    let pool = ThreadPool::new(1);
    let mut v = vec![Complex64::ZERO; dim];
    fill(&mut v);
    let cz = |c: usize, t: usize| Gate::controlled(GateKind::Z, t, vec![Control::pos(c)]);
    let shapes = [
        ("cz_3_4", cz(3, 4)),
        ("cz_8_9", cz(8, 9)),
        ("cz_0_5", cz(0, 5)),
        ("t_0", Gate::new(GateKind::T, 0)),
        ("t_12", Gate::new(GateKind::T, 12)),
    ];
    let mut table = Table::new(vec!["gate", "ns_per_amp"]);
    for (name, gate) in shapes {
        let plan = DmavAssignment::build(&pkg, pkg.gate_dd(&gate, n), n, 1);
        // 64 passes a timing; every gate is unitary, so the state stays finite.
        let (secs, _) = time_median(reps, || {
            for _ in 0..64 {
                dmav_in_place(&plan, &mut v, &pool);
            }
            dim
        });
        let ns = secs * 1e9 / (64 * dim) as f64;
        table.row(vec![name.into(), format!("{ns:.3}")]);
        json.record(vec![
            ("kernel", "diag_shapes".into()),
            ("backend", backend.into()),
            ("gate", name.into()),
            ("n", n.into()),
            ("dmav_in_place_ns_per_amp", ns.into()),
        ]);
    }
    println!(
        "\ndiag_shapes — slow diagonal shapes, in-place DMAV, n = {n}, 1 thread, ns per amplitude"
    );
    table.print();
}

/// Qubit counts of the `convert` block.
const CONVERT_NS: [usize; 3] = [18, 21, 24];
/// `--check`: largest accepted (block-wise fill of the `knn` state at
/// n = [`CHECK_FILL_N`] into a pre-faulted buffer) / (one `vecops::scale`
/// pass over as many amplitudes). The fill writes 16 bytes per amplitude
/// from tables that stay in cache, the pass reads 16 and writes 16.
const MAX_FILL_SCALE_RATIO: f64 = 2.0;
/// Qubit count [`MAX_FILL_SCALE_RATIO`] is held at (`knn_wide`'s).
const CHECK_FILL_N: usize = 21;
/// Most bytes the allocate + fault rows hold at once: their buffers are
/// freed only after the last repetition, because freeing a block below
/// 32 MiB raises glibc's mmap threshold and the next one of its size
/// would come pre-faulted from the heap.
const FAULT_HOLD_BYTES: usize = 256 << 20;

/// This process's `AnonHugePages` in KiB (`/proc/self/smaps_rollup`; 0
/// where unreadable).
fn anon_huge_kib() -> usize {
    let rollup = std::fs::read_to_string("/proc/self/smaps_rollup").unwrap_or_default();
    let line = rollup.lines().find(|l| l.starts_with("AnonHugePages:"));
    line.and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        .unwrap_or(0)
}

/// Median ms to allocate `dim` amplitudes with `alloc` and write each once,
/// and the `AnonHugePages` growth per buffer in KiB. The buffers stay
/// alive until every repetition is done ([`FAULT_HOLD_BYTES`]).
fn alloc_and_fault(reps: usize, dim: usize, alloc: impl Fn() -> Vec<Complex64>) -> (f64, usize) {
    let bytes = dim * std::mem::size_of::<Complex64>();
    let reps = reps.min(FAULT_HOLD_BYTES / bytes).max(1);
    let before = anon_huge_kib();
    let mut held = Vec::with_capacity(reps);
    let mut ms = Vec::with_capacity(reps);
    for _ in 0..reps {
        let s = Instant::now();
        let mut v = alloc();
        v.clear();
        v.resize(dim, Complex64::ONE);
        ms.push(s.elapsed().as_secs_f64() * 1e3);
        held.push(v);
    }
    let huge = anon_huge_kib().saturating_sub(before) / reps;
    (median(ms), huge)
}

/// What `--check` reads from the `convert` block.
struct ConvertCheck {
    fill_block_ms: f64,
    scale_ms: f64,
}

/// The DD-to-array conversion split into its parts at n = 18, 21, 24 (one
/// thread): allocate + fault, with 4 KiB pages (a plain reservation) and
/// with the flat buffers' kernel-zeroed, huge-page-advised path; the zero
/// pass the fill no longer needs; the old per-amplitude fill
/// (`DdPackage::write_vector`) against the block-wise fill, both into a
/// pre-faulted buffer; and one `vecops::scale` pass as the memory-speed
/// reference. States: `knn` (`m = (n - 1) / 2`, the top qubit idle at even
/// n) and `dnn(n, 5)`, each at its EWMA conversion point.
fn convert_block(reps: usize, backend: &str, json: &mut JsonWriter) -> Option<ConvertCheck> {
    let pool = ThreadPool::new(1);
    let ctx = flatdd::RunContext::isolated();
    let ms = |secs: f64| secs * 1e3;
    let mut table = Table::new(vec![
        "state",
        "n",
        "dd_nodes",
        "alloc_fault_4k",
        "alloc_fault_huge",
        "huge_kib",
        "zero",
        "fill_per_amp",
        "fill_block",
        "scale",
    ]);
    let mut check = None;
    for n in CONVERT_NS {
        let dim = 1usize << n;
        let flat_buffer = || {
            let mut v = Vec::new();
            qarray::first_touch_zeroed(&mut v, dim, 1, &pool).expect("flat buffer");
            v
        };
        let (fault_4k, huge_4k) = alloc_and_fault(reps, dim, || Vec::with_capacity(dim));
        let (fault_huge, huge_kib) = alloc_and_fault(reps, dim, flat_buffer);
        let mut buf = flat_buffer();
        buf.fill(Complex64::ONE);
        let zero = ms(time_median(reps, || {
            qarray::first_touch_zeroed(&mut buf, dim, 1, &pool).expect("reused capacity");
            dim
        })
        .0);
        let mut src = vec![Complex64::ZERO; dim];
        fill(&mut src);
        let f = Complex64::new(std::f64::consts::FRAC_1_SQRT_2, -0.25);
        let scale = ms(time_median(reps, || {
            vecops::scale(&mut buf, f, &src);
            dim
        })
        .0);
        drop(src);
        let circuits = [
            ("knn", generators::knn((n - 1) / 2, 11)),
            ("dnn", generators::dnn(n, 5, 11)),
        ];
        for (family, c) in circuits {
            let mut sim = DdSimulator::new(n);
            let mut monitor = EwmaMonitor::new(EwmaConfig::default());
            for g in c.iter() {
                sim.apply(g);
                if monitor.observe(sim.state_dd_size()) {
                    break;
                }
            }
            let nodes = sim.state_dd_size();
            let (pkg, state) = (sim.package(), sim.state());
            let per_amp = ms(time_median(reps, || {
                pkg.write_vector(state, n, &mut buf);
                dim
            })
            .0);
            let block = ms(time_median(reps, || {
                dd_to_array_parallel_sharded_into_with(pkg, state, n, &pool, 1, &mut buf, &ctx);
                dim
            })
            .0);
            if family == "knn" && n == CHECK_FILL_N {
                check = Some(ConvertCheck {
                    fill_block_ms: block,
                    scale_ms: scale,
                });
            }
            table.row(vec![
                family.into(),
                n.to_string(),
                nodes.to_string(),
                format!("{fault_4k:.2}"),
                format!("{fault_huge:.2}"),
                format!("{huge_4k}/{huge_kib}"),
                format!("{zero:.2}"),
                format!("{per_amp:.2}"),
                format!("{block:.2}"),
                format!("{scale:.2}"),
            ]);
            json.record(vec![
                ("kernel", "convert".into()),
                ("backend", backend.into()),
                ("state", family.into()),
                ("n", n.into()),
                ("dd_nodes", nodes.into()),
                ("alloc_fault_4k_ms", fault_4k.into()),
                ("alloc_fault_huge_ms", fault_huge.into()),
                ("anon_huge_kib_4k", huge_4k.into()),
                ("anon_huge_kib_advised", huge_kib.into()),
                ("zero_ms", zero.into()),
                ("fill_per_amp_ms", per_amp.into()),
                ("fill_block_ms", block.into()),
                ("scale_ms", scale.into()),
            ]);
        }
    }
    println!(
        "\nconvert — 1 thread, ms per 2^n amplitudes; huge_kib = AnonHugePages growth per \
         buffer, 4 KiB / advised (0 / 0: the kernel did not back the advice)"
    );
    table.print();
    check
}

/// `--check`: largest accepted `stats()` cost at 10^6 interned values over
/// its cost at 10^3.
const MAX_STATS_RATIO: f64 = 3.0;
/// `--check`: largest accepted warm / cold `gate_dd` ratio.
const MAX_WARM_GATE_RATIO: f64 = 0.2;
/// `--check`: largest accepted (T on the top qubit) / (H on the top qubit)
/// ratio of the DD multiply on a saturated state.
const MAX_TOP_T_RATIO: f64 = 0.05;

/// `--check`: most bytes the two arenas may reserve per vector + matrix
/// node pair at [`UNIQUE_NODES`] nodes each (a 24-byte and a 40-byte slot
/// in segments that double, two index words at a load between 3/8 and 3/4).
const MAX_NODE_PAIR_BYTES: f64 = 180.0;
/// Nodes per arena of the unique-table rows: the GC threshold of a run.
const UNIQUE_NODES: u32 = 1 << 16;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// One arena's unique-table costs at [`UNIQUE_NODES`] distinct nodes, a
/// fresh arena per repetition: median ns per node of inserting them, of
/// finding them again in a scattered order, and of a sweep that frees every
/// other one — and the bytes the full arena reserves.
fn unique_table<T: Node>(reps: usize, node: impl Fn(u32) -> T) -> ([f64; 3], usize) {
    use std::hint::black_box;
    let per_node = |s: Instant| s.elapsed().as_secs_f64() * 1e9 / UNIQUE_NODES as f64;
    let mut ns = [Vec::new(), Vec::new(), Vec::new()];
    let mut bytes = 0;
    for _ in 0..reps {
        let mut arena: NodeArena<T> = NodeArena::default();
        let s = Instant::now();
        for i in 0..UNIQUE_NODES {
            black_box(arena.get_or_insert(node(i)));
        }
        ns[0].push(per_node(s));
        let s = Instant::now();
        for k in 0..UNIQUE_NODES {
            black_box(arena.get_or_insert(node(k.wrapping_mul(7919) % UNIQUE_NODES)));
        }
        ns[1].push(per_node(s));
        assert_eq!(arena.len(), UNIQUE_NODES as usize, "nodes must be distinct");
        bytes = arena.memory_bytes();
        // Ids are slot indices in allocation order.
        arena.mark_reachable((0..UNIQUE_NODES).step_by(2), 1);
        let s = Instant::now();
        black_box(arena.sweep(1, |_| {}));
        ns[2].push(per_node(s));
    }
    (ns.map(median), bytes)
}

/// What `--check` reads from the `dd_tables` block (ns per call, bytes).
struct DdTables {
    pair_bytes: f64,
    stats_small: f64,
    stats_large: f64,
    gate_cold: f64,
    gate_warm: f64,
    h_top: f64,
    t_top: f64,
}

/// The DD phase's fixed costs, one thread. Complex table: a fresh package
/// per repetition interns `size` distinct values, then re-looks up to 10^5
/// of them in a scattered order (hit), interns `size / 10` (at least 100)
/// new ones (miss) and reads `stats()` 1000 times. Gate DDs at n = 14, a
/// Toffoli/CX/H mix: cold = the build right after a sweep emptied the memo
/// (the sweep itself untimed), warm = the same gates again. DD gates at
/// n = 12 on a saturated state (4095 nodes, a fresh package per repetition,
/// gate DDs built before the clock starts): one cold `mul_mv` each — a
/// second application would be answered by the `mv` table whether or not
/// the first one walked the state.
fn dd_tables(reps: usize, json: &mut JsonWriter) -> DdTables {
    use std::hint::black_box;
    // Distinct by construction: a 2^-40 lattice walked with an odd stride.
    let value = |i: u64| {
        let x = i.wrapping_mul(0x9e3779b97f4a7c15) >> 24;
        Complex64::new(
            (x & 0xf_ffff) as f64 / (1u64 << 20) as f64 - 0.5,
            (x >> 20) as f64 / (1u64 << 20) as f64 - 0.5,
        )
    };
    let mut table = Table::new(vec!["op", "values", "ns_per_call"]);
    let mut record = |op: &str, values: usize, ns: f64, json: &mut JsonWriter| {
        table.row(vec![op.into(), values.to_string(), format!("{ns:.1}")]);
        json.record(vec![
            ("kernel", "dd_tables".into()),
            ("op", op.into()),
            ("values", values.into()),
            ("ns_per_call", ns.into()),
        ]);
    };
    let mut stats_ns = [f64::NAN; 2];
    for (slot, size) in [1_000usize, 1_000_000].into_iter().enumerate() {
        let (mut hit, mut miss, mut stats) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..reps {
            let pkg = DdPackage::default();
            for i in 0..size as u64 {
                pkg.clookup(value(i));
            }
            assert_eq!(
                pkg.stats().complex_values,
                size + 2,
                "values must be distinct"
            );
            let hits = size.min(100_000) as u64;
            let s = Instant::now();
            for k in 0..hits {
                black_box(pkg.clookup(value(k.wrapping_mul(7919) % size as u64)));
            }
            hit.push(s.elapsed().as_secs_f64() * 1e9 / hits as f64);
            let misses = (size as u64 / 10).max(100);
            let s = Instant::now();
            for i in 0..misses {
                black_box(pkg.clookup(value(size as u64 + i)));
            }
            miss.push(s.elapsed().as_secs_f64() * 1e9 / misses as f64);
            // Few calls: a `stats()` that walked the tables again would
            // cost milliseconds each at 10^6 values, and the check must
            // fail on that, not time out.
            let s = Instant::now();
            for _ in 0..1000 {
                black_box(black_box(&pkg).stats());
            }
            stats.push(s.elapsed().as_secs_f64() * 1e9 / 1e3);
        }
        stats_ns[slot] = median(stats);
        record("lookup_hit", size, median(hit), json);
        record("lookup_miss", size, median(miss), json);
        record("stats", size, stats_ns[slot], json);
    }

    let n = 14;
    let gates: Vec<Gate> = (0..12)
        .flat_map(|q| {
            [
                Gate::controlled(
                    GateKind::X,
                    q + 2,
                    vec![Control::pos(q), Control::pos(q + 1)],
                ),
                Gate::controlled(GateKind::X, q + 1, vec![Control::pos(q)]),
                Gate::new(GateKind::H, q),
            ]
        })
        .collect();
    let mut pkg = DdPackage::default();
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        pkg.gc(&[], &[]);
        let s = Instant::now();
        for g in &gates {
            black_box(pkg.gate_dd(g, n));
        }
        cold.push(s.elapsed().as_secs_f64() * 1e9 / gates.len() as f64);
        let s = Instant::now();
        for _ in 0..100 {
            for g in &gates {
                black_box(pkg.gate_dd(g, n));
            }
        }
        warm.push(s.elapsed().as_secs_f64() * 1e9 / (100 * gates.len()) as f64);
    }
    let (gate_cold, gate_warm) = (median(cold), median(warm));
    record("gate_dd_cold", 0, gate_cold, json);
    record("gate_dd_warm", 0, gate_warm, json);

    let dn = 12;
    let amps: Vec<Complex64> = (0..1u64 << dn).map(|i| value(i + 1)).collect();
    let nodes = (1usize << dn) - 1;
    let mut per_node = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..reps {
        let pkg = DdPackage::default();
        let state = pkg.vector_from_slice(&amps);
        assert_eq!(pkg.vector_dd_size(state), nodes, "state must be saturated");
        let gate = |kind, q| pkg.gate_dd(&Gate::new(kind, q), dn);
        let (h_low, h_top, t_top) = (
            gate(GateKind::H, 0),
            gate(GateKind::H, dn - 1),
            gate(GateKind::T, dn - 1),
        );
        for (slot, g) in [h_low, h_top, t_top].into_iter().enumerate() {
            let s = Instant::now();
            black_box(pkg.mul_mv(g, state));
            per_node[slot].push(s.elapsed().as_secs_f64() * 1e9 / nodes as f64);
        }
    }
    let [h_low, h_top, t_top] = per_node.map(median);
    println!("\ndd_tables — 1 thread, gate_dd at n = {n}, ns per call");
    table.print();
    let mut table = Table::new(vec!["dd_gate", "ns_per_state_node"]);
    for (op, ns) in [
        ("mul_mv_h_q0", h_low),
        ("mul_mv_h_top", h_top),
        ("mul_mv_t_top", t_top),
    ] {
        table.row(vec![op.into(), format!("{ns:.3}")]);
        json.record(vec![
            ("kernel", "dd_tables".into()),
            ("op", op.into()),
            ("state_nodes", nodes.into()),
            ("ns_per_state_node", ns.into()),
        ]);
    }
    println!("\ndd_tables — 1 thread, one DD gate on a saturated n = {dn} state ({nodes} nodes)");
    table.print();

    // Terminal children, distinct by their (never dereferenced) weights.
    let edge = |w: u32| (TERM, CIdx(w));
    let (v_ns, v_bytes) = unique_table(reps, |i| VNode {
        level: 0,
        e: [edge(i), edge(!i)].map(|(n, w)| VEdge { n, w }),
    });
    let (m_ns, m_bytes) = unique_table(reps, |i| MNode {
        level: 0,
        e: [edge(i), edge(!i), edge(i ^ 0x5555), edge(1)].map(|(n, w)| MEdge { n, w }),
    });
    let pair_bytes = (v_bytes + m_bytes) as f64 / UNIQUE_NODES as f64;
    let mut table = Table::new(vec!["unique_table", "vnode", "mnode"]);
    for (slot, op) in ["insert", "hit", "sweep"].into_iter().enumerate() {
        table.row(vec![
            format!("{op}_ns_per_node"),
            format!("{:.1}", v_ns[slot]),
            format!("{:.1}", m_ns[slot]),
        ]);
        json.record(vec![
            ("kernel", "dd_tables".into()),
            ("op", format!("unique_{op}").into()),
            ("nodes", (UNIQUE_NODES as usize).into()),
            ("vnode_ns_per_node", v_ns[slot].into()),
            ("mnode_ns_per_node", m_ns[slot].into()),
        ]);
    }
    table.row(vec![
        "arena_bytes_per_node".into(),
        format!("{:.1}", v_bytes as f64 / UNIQUE_NODES as f64),
        format!("{:.1}", m_bytes as f64 / UNIQUE_NODES as f64),
    ]);
    json.record(vec![
        ("kernel", "dd_tables".into()),
        ("op", "unique_bytes_per_node_pair".into()),
        ("nodes", (UNIQUE_NODES as usize).into()),
        ("bytes", pair_bytes.into()),
    ]);
    println!("\ndd_tables — 1 thread, unique table at {UNIQUE_NODES} nodes per arena");
    table.print();
    DdTables {
        pair_bytes,
        stats_small: stats_ns[0],
        stats_large: stats_ns[1],
        gate_cold,
        gate_warm,
        h_top,
        t_top,
    }
}

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let check = raw.iter().any(|a| a == "--check");
    raw.retain(|a| a != "--check");
    let args = HarnessArgs::parse_from(raw);
    let reps = args.reps.max(5);
    // Cache-resident working set so the vector kernels measure compute, not
    // memory bandwidth; an inner loop amortizes the timer overhead.
    let len = ((1usize << 14) as f64 * args.scale).round().max(1024.0) as usize;
    let iters = ((1usize << 23) / len).max(1);
    let backend = vecops::backend().name();
    println!(
        "Kernel microbenchmarks — backend {backend}, {len} amplitudes x {iters} iters, {reps} reps\n"
    );
    let mut json = JsonWriter::new();
    // First, while no large block has been freed (see FAULT_HOLD_BYTES).
    let convert = convert_block(reps, backend, &mut json);

    let mut v = vec![Complex64::ZERO; len];
    let mut w = vec![Complex64::ZERO; len];
    fill(&mut v);
    fill(&mut w);
    let f = Complex64::new(std::f64::consts::FRAC_1_SQRT_2, -0.25);

    let mut table = Table::new(vec!["kernel", "ns_per_amp", "amplitudes"]);
    let mut report = |name: &str, secs: f64, amps: usize, json: &mut JsonWriter| {
        let ns = secs * 1e9 / amps.max(1) as f64;
        table.row(vec![name.into(), format!("{ns:.3}"), amps.to_string()]);
        json.record(vec![
            ("kernel", name.into()),
            ("backend", backend.into()),
            ("ns_per_amp", ns.into()),
            ("amplitudes", amps.into()),
            ("seconds", secs.into()),
        ]);
    };

    // axpy: w += f * v (the DMAV identity-block fast path).
    let (secs, amps) = time_median(reps, || {
        for _ in 0..iters {
            vecops::axpy(&mut w, f, &v);
        }
        len * iters
    });
    report("axpy", secs, amps, &mut json);

    // conversion table occurrence: dst = f * src (the parallel DD-to-array
    // conversion writes each repeated boundary sub-DD exactly like this).
    let (secs, amps) = time_median(reps, || {
        for _ in 0..iters {
            vecops::scale(&mut w, f, &v);
        }
        len * iters
    });
    report("conversion_scale", secs, amps, &mut json);

    // sum_into: out += part (partial-buffer summation of cached DMAV).
    let (secs, amps) = time_median(reps, || {
        for _ in 0..iters {
            vecops::sum_into(&mut w, &v);
        }
        len * iters
    });
    report("sum_into", secs, amps, &mut json);

    // mac2x2: dense 2x2 bottom-level blocks, len/2 applications per run.
    let m = [
        Complex64::new(0.6, 0.1),
        Complex64::new(-0.2, 0.7),
        Complex64::new(0.3, -0.4),
        Complex64::new(0.5, 0.5),
    ];
    let (secs, amps) = time_median(reps, || {
        for _ in 0..iters {
            for i in (0..len).step_by(2) {
                let (v0, v1) = (v[i], v[i + 1]);
                vecops::mac2x2(&mut w[i..i + 2], &m, v0, v1);
            }
        }
        len * iters
    });
    report("mac2x2", secs, amps, &mut json);

    // Whole per-gate DMAV (no caching): H on a middle qubit of an
    // n-qubit flat state, parallel across `--threads` workers.
    let n = (((1usize << 20) as f64 * args.scale).round().max(1024.0) as usize)
        .next_power_of_two()
        .trailing_zeros() as usize;
    let dim = 1usize << n;
    let t = args.threads.max(1).next_power_of_two().min(1 << n.min(8));
    let pkg = DdPackage::default();
    let m_edge = pkg.gate_dd(&Gate::new(GateKind::H, n / 2), n);
    let asg = DmavAssignment::build(&pkg, m_edge, n, t);
    let pool = ThreadPool::new(t);
    let mut state = vec![Complex64::ZERO; dim];
    let mut out = vec![Complex64::ZERO; dim];
    fill(&mut state);
    let (secs, amps) = time_median(reps, || {
        dmav_no_cache(&pkg, &asg, &state, &mut out, &pool);
        dim
    });
    report("dmav_per_gate", secs, amps, &mut json);

    table.print();
    let by_target = dmav_by_target(reps, backend, &mut json);
    let fused = fused_blocks(reps, backend, &mut json);
    let runs = blocked_runs(reps, backend, &mut json);
    let widened = widen_block(reps, backend, &mut json);
    let groups = one_qubit_groups(reps, backend, &mut json);
    let (prepared_apply, one_use) = pair_table_prep(reps, backend, &mut json);
    diag_shapes(reps, backend, &mut json);
    let dd = dd_tables(reps, &mut json);
    // Embed the unified metrics registry (DD package gauges) in the
    // results file.
    let registry = flatdd::telemetry::metrics::global();
    flatdd::publish_package_metrics(&pkg, registry);
    json.set_meta_raw(registry.to_json());
    let path = args
        .json
        .clone()
        .or_else(|| Some("results/microbench_kernels.json".into()));
    if let Some(p) = &path {
        if let Some(dir) = std::path::Path::new(p).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    json.write_if(&path);
    if check {
        // NaN for a row that was not measured, which fails its check.
        let cell = |gate: &str, target: usize, read: fn(&TargetRow) -> f64| {
            let row = by_target
                .iter()
                .find(|r| r.gate == gate && r.target == target);
            row.map_or(f64::NAN, read)
        };
        let top = BY_TARGET_N - 1;
        let mut dmav_within = true;
        let mut hold = |what: String, ratio: f64, limit: f64| {
            println!("check: {what} = {ratio:.2} (limit {limit})");
            dmav_within &= ratio <= limit;
        };
        hold(
            format!("plain DMAV of H, target 0 / target {top}"),
            cell("h", 0, |r| r.plain) / cell("h", top, |r| r.plain),
            MAX_TARGET_RATIO,
        );
        hold(
            format!("in-place DMAV of H, target 0 / target {top}"),
            cell("h", 0, |r| r.in_place) / cell("h", top, |r| r.in_place),
            MAX_TARGET_RATIO,
        );
        for target in [1, 2] {
            hold(
                format!("in-place DMAV of CX on target {target}, control 0 / control {top}"),
                cell("cx_ctrl_below", target, |r| r.in_place)
                    / cell("cx_ctrl_above", target, |r| r.in_place),
                MAX_CONTROL_BELOW_RATIO,
            );
        }
        for gate in ["h", "t", "cx_ctrl_above"] {
            hold(
                format!("{gate} on target {VS_ARRAY_TARGET}, in-place DMAV / array kernel"),
                cell(gate, VS_ARRAY_TARGET, |r| r.in_place)
                    / cell(gate, VS_ARRAY_TARGET, |r| r.array),
                MAX_VS_ARRAY_RATIO,
            );
        }
        let zz = fused.iter().find(|r| r.block == "zz");
        hold(
            format!("tiled zz diagonal / in-place T on target {VS_ARRAY_TARGET}"),
            zz.map_or(f64::NAN, |r| r.in_place / r.t_in_place),
            max_tiled_diagonal_ratio(vecops::backend()),
        );
        for row in fused.iter().filter(|r| r.tiled) {
            hold(
                format!("{} in place / its gates unfused", row.block),
                row.in_place / row.unfused,
                1.0,
            );
        }
        let dnn_runs = runs
            .iter()
            .find(|r| r.tail == "dnn" && r.level == Some(BLOCK_LEVEL));
        hold(
            format!("dnn tail in blocked runs at level {BLOCK_LEVEL} / one matrix at a time"),
            dnn_runs.map_or(f64::NAN, |r| r.ms / r.per_matrix_ms),
            max_blocked_ratio(vecops::backend()),
        );
        hold(
            format!("block-wise fill of the knn state at n = {CHECK_FILL_N} / one scale pass"),
            convert.map_or(f64::NAN, |c| c.fill_block_ms / c.scale_ms),
            MAX_FILL_SCALE_RATIO,
        );
        for n in WIDEN_NS {
            let row = widened.iter().find(|r| r.n == n && r.p == n / 2);
            hold(
                format!(
                    "widen-and-apply into 2^{n} / one in-place 2x2 pass, bit {}",
                    n / 2
                ),
                row.map_or(f64::NAN, |r| r.widen / r.pass),
                MAX_WIDEN_RATIO,
            );
        }
        let three = groups
            .iter()
            .find(|r| r.n == CHECK_GROUP_N && r.size == vecops::REAL_GROUP);
        hold(
            format!(
                "{} real one-qubit matrices in one group / as complex passes at 2^{CHECK_GROUP_N}",
                vecops::REAL_GROUP
            ),
            three.map_or(f64::NAN, |r| r.real / r.complex),
            MAX_GROUP_RATIO,
        );
        hold(
            format!("one-use period-{PREP_PERIOD} pair table: prepare + apply / apply of a prepared table"),
            one_use / prepared_apply,
            MAX_PREP_RATIO,
        );
        let stats_ratio = dd.stats_large / dd.stats_small;
        println!(
            "check: stats() at 10^6 interned values / at 10^3 = {stats_ratio:.2} (limit {MAX_STATS_RATIO})"
        );
        let gate_ratio = dd.gate_warm / dd.gate_cold;
        println!("check: gate_dd warm / cold = {gate_ratio:.3} (limit {MAX_WARM_GATE_RATIO})");
        let top_ratio = dd.t_top / dd.h_top;
        println!(
            "check: DD multiply, T / H on the top qubit of a saturated state = {top_ratio:.4} (limit {MAX_TOP_T_RATIO})"
        );
        println!(
            "check: arena bytes per v+m node pair = {:.1} (limit {MAX_NODE_PAIR_BYTES})",
            dd.pair_bytes
        );
        // Negated "all within", so that a NaN ratio (a cell that was not
        // measured) fails too.
        let within = dd.pair_bytes <= MAX_NODE_PAIR_BYTES
            && dmav_within
            && stats_ratio <= MAX_STATS_RATIO
            && gate_ratio <= MAX_WARM_GATE_RATIO
            && top_ratio <= MAX_TOP_T_RATIO;
        if !within {
            std::process::exit(1);
        }
    }
}
