//! Engine agreement, stated once: a generated configuration lattice.
//!
//! Each case draws a circuit (a Table 1 family, a random circuit, one that
//! fires every active-width reduction rule, or any of these on fewer qubits
//! than the register holds, so the idle ones stay held out of the flat
//! array), a conversion policy, a fusion policy, a geometry (`threads`,
//! `flat_shards`), a checkpoint at a random gate resumed
//! under a second geometry, the fidelity floor armed at 1.0 or unset, and a
//! telemetry sink on or off. The run must agree with the dense, DD and
//! array engines to 1e-12, its readers with their oracles, and itself bit
//! for bit wherever the design promises it (DESIGN.md §6). Every other pair
//! of runs is held to 1e-12 and the cases whose bits differ are counted per
//! pair and printed (`--nocapture`).

mod oracles;

use flatdd::{
    CheckpointPolicy, ConversionPolicy, EwmaConfig, FlatDdConfig, FlatDdSimulator, FusionPolicy,
    Phase, RunContext,
};
use qcircuit::complex::state_distance;
use qcircuit::gate::{Control, Gate, GateKind};
use qcircuit::prop::{self, Gen};
use qcircuit::{dense, generators, Circuit, Complex64};
use qtelemetry::Recorder;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

const CASES: usize = 96;
const TOL: f64 = 1e-12;
/// The DD package is not yet exact to 1e-12 on angle-random circuits
/// (ROADMAP item 9): where `qdd::sim::simulate` itself ends farther than
/// `TOL` from the dense state, the runs are held to this bound instead, and
/// the cases are counted and printed.
const DD_DRIFT: f64 = 1e-10;

/// `threads` and `flat_shards` of one run.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Geometry {
    threads: usize,
    flat_shards: usize,
}

impl Geometry {
    fn draw(g: &mut Gen) -> Self {
        Geometry {
            threads: [1, 2, 4, 16][g.rng.range(0..4)],
            flat_shards: [0, 1, 2, 3, 8][g.rng.range(0..5)],
        }
    }

    fn config(self, base: FlatDdConfig) -> FlatDdConfig {
        FlatDdConfig {
            threads: self.threads,
            flat_shards: self.flat_shards,
            ..base
        }
    }

    /// What changes from `self` to `other`, for the per-pair counts.
    fn change(self, other: Geometry) -> String {
        let changed: Vec<&str> = [
            (self.threads != other.threads, "threads"),
            (self.flat_shards != other.flat_shards, "flat_shards"),
        ]
        .into_iter()
        .filter_map(|(differs, name)| differs.then_some(name))
        .collect();
        match changed.is_empty() {
            true => "same geometry".into(),
            false => format!("other {}", changed.join(" + ")),
        }
    }
}

/// A Table 1 family, a random circuit, or a reduction circuit on `n`
/// qubits (some families round `n` to their own shape; supremacy stays at
/// most 8 wide, where 40 cycles cost milliseconds in a debug build).
fn family(g: &mut Gen, n: usize) -> Circuit {
    let seed = g.rng.next_u64();
    match g.rng.range(0..16) {
        0 => generators::ghz(n),
        1 => generators::adder_n(n + n % 2),
        2 => generators::qft(n),
        3 => generators::w_state(n),
        4 => generators::dnn(n, g.rng.range(1..4), seed),
        5 => generators::vqe(n, g.rng.range(1..4), seed),
        6 => generators::knn((n - 1) / 2, seed),
        7 => generators::swap_test((n - 1) / 2, seed),
        8 | 9 => generators::supremacy_n(n.min(8), g.rng.range(1..41), seed),
        10 => generators::supremacy_fsim(2, n.div_ceil(2), g.rng.range(1..6), seed),
        11 => generators::grover(n.min(6), g.rng.range(0..1 << n.min(6)), None),
        12 => generators::random_circuit(n, g.rng.range(n..10 * n), seed),
        13 => g.circuit(n, 1..60),
        _ => reduction_circuit(g, n),
    }
}

/// `c` re-declared over `n` qubits, its qubits shifted up by `offset`.
fn widened(c: &Circuit, n: usize, offset: usize) -> Circuit {
    let mut wide = Circuit::named(n, format!("{}+{}@{offset}", c.name(), n - c.num_qubits()));
    for gate in c.iter() {
        let mut gate = gate.clone();
        gate.target += offset;
        gate.controls.iter_mut().for_each(|k| k.qubit += offset);
        wide.push(gate);
    }
    wide
}

/// A circuit that fires every rule of the flat phase's active-width
/// reduction once its state converts: each qubit is put into superposition,
/// flipped to |1> or left at |0>, then gates come from the rule families —
/// controls on fixed qubits at either value; X, Y, Z, S, T, P, RZ (and so
/// CZ and CX) on fixed targets with and without active controls; and H,
/// √X, √Y and RY, which widen, on bit 0, the middle qubit and the top one.
fn reduction_circuit(g: &mut Gen, n: usize) -> Circuit {
    use GateKind::*;
    let mut c = Circuit::named(n, "reduction");
    for q in 0..n {
        match g.rng.range(0..3) {
            0 => c.h(q),
            1 => c.x(q),
            _ => &mut c,
        };
    }
    let kinds = [
        X,
        Y,
        Z,
        S,
        T,
        Phase(0.3),
        RZ(1.1),
        X,
        Z,
        H,
        SqrtX,
        SqrtY,
        RY(0.7),
    ];
    for _ in 0..g.rng.range(10..50) {
        let kind = kinds[g.rng.range(0..kinds.len())];
        let target = [0, n / 2, n - 1, g.rng.range(0..n)][g.rng.range(0..4)];
        let mut controls: Vec<Control> = Vec::new();
        for _ in 0..g.rng.range(0..3) {
            let q = g.rng.range(0..n);
            if q != target && controls.iter().all(|c| c.qubit != q) {
                controls.push(match g.rng.bool(0.5) {
                    true => Control::pos(q),
                    false => Control::neg(q),
                });
            }
        }
        c.push(Gate::controlled(kind, target, controls));
    }
    c
}

fn conversion(g: &mut Gen, gates: usize) -> ConversionPolicy {
    match g.rng.range(0..5) {
        0 => ConversionPolicy::Ewma(EwmaConfig::default()),
        1 => ConversionPolicy::Ewma(EwmaConfig {
            beta: g.rng.f64_in(0.3..0.95),
            epsilon: g.rng.f64_in(1.1..3.0),
            min_size: g.rng.range(1..16),
        }),
        2 => ConversionPolicy::AtGate(g.rng.range(0..gates + 2)),
        3 => ConversionPolicy::Immediate,
        _ => ConversionPolicy::Never,
    }
}

fn fusion(g: &mut Gen) -> FusionPolicy {
    match g.rng.range(0..3) {
        0 => FusionPolicy::None,
        1 => FusionPolicy::DmavAware,
        _ => FusionPolicy::KOperations(g.rng.range(2..6)),
    }
}

/// `index` drawn by inverse CDF from `amps` at `r`, as the flat phase samples.
fn inverse_cdf(amps: &[Complex64], r: f64) -> usize {
    let mut acc = 0.0;
    for (i, a) in amps.iter().enumerate() {
        acc += a.norm_sqr();
        if r < acc {
            return i;
        }
    }
    amps.len() - 1
}

fn same_bits(a: &[Complex64], b: &[Complex64]) -> bool {
    let bits = |x: &Complex64| (x.re.to_bits(), x.im.to_bits());
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bits(x) == bits(y))
}

/// Counts one more case of `pair`, and one more whose bits differ unless
/// `a` and `b` are the same.
fn compare(pairs: &mut BTreeMap<String, [usize; 2]>, pair: &str, a: &[Complex64], b: &[Complex64]) {
    let seen = pairs.entry(pair.into()).or_default();
    *seen = [seen[0] + 1, seen[1] + usize::from(!same_bits(a, b))];
}

/// Runs `c` under `cfg` and returns the simulator; with `telemetry` a
/// recorder sink listens (and must hear the run) and the trace is on.
fn run(c: &Circuit, mut cfg: FlatDdConfig, telemetry: bool) -> FlatDdSimulator {
    cfg.trace = telemetry;
    let ctx = RunContext::isolated();
    let mut sim = FlatDdSimulator::try_new_with(c.num_qubits(), cfg, ctx).unwrap();
    let recorder = Recorder::new();
    let sink = telemetry.then(|| qtelemetry::add_sink(recorder.sink()));
    let result = sim.run(c);
    if let Some(sink) = sink {
        qtelemetry::remove_sink(sink);
        assert!(!recorder.events().is_empty(), "the sink heard nothing");
    }
    result.unwrap();
    sim
}

#[test]
fn every_configuration_reaches_the_dense_state() {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    // What the lattice must reach -> cases that did.
    let mut reach: BTreeMap<&str, usize> = BTreeMap::new();
    // Pair of runs -> [cases, cases whose amplitudes differ in some bit].
    let mut pairs = BTreeMap::new();
    let mut drifted = 0;
    prop::check(CASES, |g| {
        let m = g.rng.range(4..12);
        let c = family(g, m);
        let c = match g.rng.range(0..4) {
            0 => {
                let (m, extra) = (c.num_qubits(), g.rng.range(1..4));
                widened(&c, m + extra, g.rng.range(0..extra + 1))
            }
            _ => c,
        };
        let (n, gates) = (c.num_qubits(), c.num_gates());
        let floor = g.rng.bool(0.5);
        let mut base = FlatDdConfig {
            conversion: conversion(g, gates),
            fusion: fusion(g),
            ..Default::default()
        };
        base.governor.approx_fidelity_floor = floor.then_some(1.0);
        let (geometry, resumed_at) = (Geometry::draw(g), Geometry::draw(g));
        let telemetry = g.rng.bool(0.5);
        let (conv, fus) = (base.conversion, base.fusion);
        let case = format!(
            "{} ({n} qubits, {gates} gates) {conv:?} {fus:?} {geometry:?} resumed at \
             {resumed_at:?} floor={floor} telemetry={telemetry}",
            c.name()
        );
        let want = dense::simulate(&c);

        // The run and its engines: dense, DD, array. Where the DD engine
        // itself drifts past `TOL`, so may the DD phase.
        let dd = qdd::sim::simulate(&c);
        let array = qarray::simulate_with_threads(&c, geometry.threads);
        let drift = state_distance(&dd, &want);
        assert!(drift < DD_DRIFT, "{case}: qdd {drift:e} from dense");
        drifted += usize::from(drift >= TOL);
        let tol = if drift < TOL { TOL } else { DD_DRIFT };
        let sim = run(&c, geometry.config(base), telemetry);
        let got = sim.amplitudes();
        for (engine, other) in [("dense", &want), ("qdd", &dd), ("qarray", &array)] {
            let d = state_distance(&got, other);
            assert!(d < tol, "{case}: {d:e} from {engine}");
        }
        let stats = sim.stats();
        assert_eq!(
            (stats.cached_dmavs, stats.uncached_dmavs),
            (0, stats.gates_dmav),
            "{case}: every DMAV is an Algorithm 1 walk"
        );

        // Its readers.
        oracles::assert_top_amplitudes_match_the_oracles(&sim, &case);
        let r = g.rng.f64_in(0.0..1.0);
        let drawn = sim.sample(&mut || r);
        // The DD phase samples by a walk down the diagram, the flat phase
        // by inverse CDF.
        if sim.phase() == Phase::Dd {
            assert!(want[drawn].norm_sqr() > 1e-18, "{case}: drew |{drawn}>");
        } else if inverse_cdf(&want, r - 1e-9) == inverse_cdf(&want, r + 1e-9) {
            assert_eq!(drawn, inverse_cdf(&want, r), "{case}: draw {r}");
        }

        // The twin run. The design promises the same bits on a rerun, with
        // telemetry off against on, with the floor unset against armed but
        // unpressured, and at another thread count when the flat phase has
        // one shard.
        let mut twin = geometry;
        if twin.flat_shards == 1 {
            twin.threads = [1, 2, 4, 16][g.rng.range(0..4)];
        }
        let mut unarmed = base;
        unarmed.governor.approx_fidelity_floor = None;
        let again = run(&c, twin.config(unarmed), false).amplitudes();
        let d = state_distance(&again, &got);
        assert!(d < tol, "{case}: twin {twin:?} {d:e} away");
        assert!(
            same_bits(&again, &got),
            "{case}: twin {twin:?} changed bits"
        );

        // A checkpoint at a random gate, resumed under the second geometry.
        let cut = g.rng.range(0..gates + 1);
        let path = std::env::temp_dir().join(format!(
            "flatdd-lattice-{}-{}.ckpt",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let mut first = FlatDdSimulator::try_new(n, geometry.config(base)).unwrap();
        first.set_checkpoint_policy(Some(CheckpointPolicy::at(&path)));
        first.run_prefix(&c, cut).unwrap();
        first.save_checkpoint().unwrap();
        drop(first);
        let resumed_cfg = resumed_at.config(base);
        let (mut resumed, _) = FlatDdSimulator::resume_from(&path, resumed_cfg, &c).unwrap();
        let _ = std::fs::remove_file(&path);
        let flat_checkpoint = resumed.phase() == Phase::Dmav;
        resumed.run_from(&c).unwrap();
        let after = resumed.amplitudes();
        let d = state_distance(&after, &got);
        assert!(d < tol, "{case}: resumed at gate {cut}, {d:e} away");
        let pair = format!("resume, {}", geometry.change(resumed_at));
        compare(&mut pairs, &pair, &after, &got);

        let metrics = sim.context().metrics();
        let counter = |name: &str| metrics.counter(name).get();
        let (in_place, widenings) = (counter("core.dmav_in_place"), counter("sim.widenings"));
        let active = metrics.gauge("sim.active_qubits").get() as u64;
        let (converted, fused) = (stats.converted_at.is_some(), stats.fused_matrices > 0);
        let never = conv == ConversionPolicy::Never && sim.phase() == Phase::Dd;
        let out_of_place = stats.uncached_dmavs as u64 > in_place;
        let dmav_aware = fused && fus == FusionPolicy::DmavAware;
        let k_operations = fused && matches!(fus, FusionPolicy::KOperations(_));
        let folds = sim
            .traces()
            .iter()
            .any(|t| t.phase == Phase::Dmav && t.gates > 1);
        let held_out = converted && active + widenings < n as u64;
        let cut_before = resumed.stats().converted_at.is_some() && !flat_checkpoint;
        for (what, hit) in [
            ("conversion", converted),
            ("Never ending in DD", never),
            ("in-place DMAV", in_place > 0),
            ("out-of-place DMAV", out_of_place),
            ("DmavAware fusion", dmav_aware),
            ("KOperations fusion", k_operations),
            ("flat step of several gates", folds),
            ("widening", widenings > 0),
            ("qubits held out at the end", held_out),
            ("resume cut before conversion", cut_before),
            ("resume cut after conversion", converted && flat_checkpoint),
        ] {
            *reach.entry(what).or_default() += usize::from(hit);
        }
    });

    println!("DD engine farther than {TOL:e} from dense: {drifted} of {CASES} cases");
    println!("pair of runs: cases, cases whose bits differ");
    for (pair, [cases, differ]) in &pairs {
        println!("  {pair}: {cases}, {differ}");
    }
    if std::env::var("FLATDD_PROP_SEED").is_err() {
        for (what, cases) in reach {
            assert!(cases > 0, "no case reached: {what}");
        }
    }
}
