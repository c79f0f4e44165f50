//! Property-based cross-validation: random circuits drawn gate-by-gate must
//! simulate identically on every engine, and core DD invariants must hold
//! for arbitrary states.

use flatdd::telemetry::{self, Event, EventSink};
use flatdd::{
    CheckpointPolicy, ConversionPolicy, FlatDdConfig, FlatDdError, FlatDdSimulator, FusionPolicy,
    RunContext, ThreadPool,
};
use qcircuit::complex::{norm_sqr, state_distance};
use qcircuit::gate::{Gate, GateKind};
use qcircuit::prop::{self, Gen};
use qcircuit::{dense, generators, Circuit, Complex64};
use qdd::DdPackage;
use std::sync::{Arc, Mutex};

const TOL: f64 = 1e-8;
const CASES: usize = 24;

/// An unnormalized `n`-qubit vector with components in `-1..1`.
fn arb_state(g: &mut Gen, n: usize) -> Vec<Complex64> {
    (0..1usize << n)
        .map(|_| Complex64::new(g.rng.f64_in(-1.0..1.0), g.rng.f64_in(-1.0..1.0)))
        .collect()
}

/// `engine` agrees with the dense oracle on random 5-qubit circuits of
/// fewer than `max_gates` gates.
fn assert_matches_dense(max_gates: usize, engine: impl Fn(&Circuit) -> Vec<Complex64>) {
    prop::check(CASES, |g| {
        let c = g.circuit(5, 1..max_gates);
        assert!(state_distance(&engine(&c), &dense::simulate(&c)) < TOL);
    });
}

fn with_threads(threads: usize) -> FlatDdConfig {
    FlatDdConfig {
        threads,
        ..Default::default()
    }
}

#[test]
fn dd_engine_matches_dense() {
    assert_matches_dense(40, qdd::sim::simulate);
}

#[test]
fn array_engine_matches_dense() {
    assert_matches_dense(40, |c| qarray::simulate_with_threads(c, 3));
}

#[test]
fn flatdd_matches_dense() {
    assert_matches_dense(40, |c| flatdd::simulate(c, with_threads(2)));
}

#[test]
fn flatdd_pure_dmav_with_fusion_matches_dense() {
    let cfg = FlatDdConfig {
        conversion: ConversionPolicy::Immediate,
        fusion: FusionPolicy::DmavAware,
        ..with_threads(4)
    };
    assert_matches_dense(30, |c| flatdd::simulate(c, cfg));
}

#[test]
fn flat_phase_matches_dense_under_every_kernel_and_fusion_policy() {
    prop::check(CASES, |g| {
        let c = g.circuit(6, 1..40);
        let (threads, flat_shards) = (g.rng.range(1..4), g.rng.range(1..9));
        // Every gate (or fused block) goes through the compiled DMAV walk,
        // in place or out of place, with shard counts that differ from the
        // pool size.
        let want = dense::simulate(&c);
        for fusion in [FusionPolicy::None, FusionPolicy::DmavAware] {
            let cfg = FlatDdConfig {
                threads,
                flat_shards,
                conversion: ConversionPolicy::Immediate,
                fusion,
                ..Default::default()
            };
            let got = flatdd::simulate(&c, cfg);
            let d = state_distance(&got, &want);
            assert!(
                d < 1e-10 && got.iter().all(|a| a.re.is_finite() && a.im.is_finite()),
                "{fusion:?} threads={threads} shards={flat_shards}: {d:e}"
            );
        }
    });
}

#[test]
fn in_place_and_out_of_place_gates_mix_within_a_run_and_across_a_resume() {
    // Without fusion at one shard every gate runs in place on the one state
    // vector; at 2 or 4 shards the gates that cross the shard border take
    // the out-of-place walk (and allocate `W` when the first one comes);
    // under DMAV-aware fusion single gates left unfused run in place between
    // out-of-place fused blocks. Half the cases are `dnn` circuits, whose
    // CX–RZ–CX ladders fuse into irregular diagonals that run through
    // plan-time tiles (alone and under an `RY`). A checkpoint at a random
    // gate drops `W`, so the resumed half starts from one vector again.
    static SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    prop::check(CASES, |g| {
        let c = if g.rng.bool(0.5) {
            generators::dnn(6, g.rng.range(1..4), g.rng.next_u64())
        } else {
            g.circuit(6, 2..40)
        };
        let cut = g.rng.range(0..c.num_gates() + 1);
        let want = dense::simulate(&c);
        for fusion in [FusionPolicy::None, FusionPolicy::DmavAware] {
            for flat_shards in [1usize, 2, 4] {
                let cfg = FlatDdConfig {
                    threads: 2,
                    flat_shards,
                    conversion: ConversionPolicy::Immediate,
                    fusion,
                    ..Default::default()
                };
                let path = std::env::temp_dir().join(format!(
                    "flatdd-prop-in-place-{}-{}.ckpt",
                    std::process::id(),
                    SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                ));
                let mut first = FlatDdSimulator::try_new(6, cfg).unwrap();
                first.set_checkpoint_policy(Some(CheckpointPolicy::at(&path)));
                first.run_prefix(&c, cut).unwrap();
                first.save_checkpoint().unwrap();
                drop(first);
                let (mut resumed, _) = FlatDdSimulator::resume_from(&path, cfg, &c).unwrap();
                let _ = std::fs::remove_file(&path);
                resumed.run_from(&c).unwrap();
                let stats = resumed.stats();
                assert_eq!(
                    (stats.cached_dmavs, stats.uncached_dmavs),
                    (0, stats.gates_dmav),
                    "every DMAV, in place or not, is an Algorithm 1 walk"
                );
                let d = state_distance(&resumed.amplitudes(), &want);
                assert!(
                    d < 1e-12,
                    "{fusion:?} shards={flat_shards} cut={cut}/{}: {d:e}",
                    c.num_gates()
                );
            }
        }
    });
}

/// Cancels `ctx` from inside the step of simulator `sim` that covers gate
/// `at_gate` (while the boundary emits its gate event, before the cursor
/// moves past it) and records that step's first gate and gate count.
struct CancelInside {
    sim: u64,
    at_gate: usize,
    ctx: RunContext,
    step: Arc<Mutex<Option<(usize, usize)>>>,
}

impl EventSink for CancelInside {
    fn emit(&mut self, event: &Event) {
        if let Event::Gate {
            sim, index, gates, ..
        } = *event
        {
            let mut step = self.step.lock().unwrap();
            if sim == self.sim && step.is_none() && index + gates > self.at_gate {
                self.ctx.cancel(15);
                *step = Some((index, gates));
            }
        }
    }
}

#[test]
fn blocked_runs_see_a_cancel_within_64_gates_and_resume_under_another_geometry() {
    // Table 1 families and random circuits at n = 8-14, fused or not, in
    // the flat phase on 1, 2 or 4 shards, where consecutive in-place
    // matrices run as blocked runs of up to 64 gates. A cancel requested
    // inside the step that covers a random gate is seen at the next poll:
    // the run stops at that step's end, at most 64 gates on, writes its
    // on-breach checkpoint there, and the rest resumes under another shard
    // and thread count to the dense state.
    static SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    prop::check(CASES, |g| {
        let n = g.rng.range(8..15);
        let seed = g.rng.next_u64();
        let c = match g.rng.range(0..5) {
            0 => g.circuit(n, 10..80),
            1 => generators::supremacy_n(n, g.rng.range(2..6), seed),
            2 => generators::dnn(n, g.rng.range(1..3), seed),
            3 => generators::qft(n),
            _ => generators::knn(n / 2, seed),
        };
        let n = c.num_qubits();
        let fusion = match g.rng.bool(0.5) {
            true => FusionPolicy::DmavAware,
            false => FusionPolicy::None,
        };
        let mut geometry = || {
            let shards = [1usize, 2, 4][g.rng.range(0..3)];
            FlatDdConfig {
                threads: shards,
                flat_shards: shards,
                conversion: ConversionPolicy::Immediate,
                fusion,
                ..Default::default()
            }
        };
        let (first_cfg, resumed_cfg) = (geometry(), geometry());
        let at_gate = g.rng.range(0..c.num_gates());
        let path = std::env::temp_dir().join(format!(
            "flatdd-prop-runs-{}-{}.ckpt",
            std::process::id(),
            SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let ctx = RunContext::isolated();
        let mut first = FlatDdSimulator::try_new_with(n, first_cfg, ctx.clone()).unwrap();
        first.set_checkpoint_policy(Some(CheckpointPolicy::at(&path)));
        let step = Arc::new(Mutex::new(None));
        let sink = telemetry::add_sink(Box::new(CancelInside {
            sim: first.telemetry_id(),
            at_gate,
            ctx,
            step: Arc::clone(&step),
        }));
        let result = first.run(&c);
        telemetry::remove_sink(sink);
        let (index, gates) = step.lock().unwrap().expect("a step covered the gate");
        let case = format!("{} {fusion:?} at gate {at_gate}", c.name());
        assert!(
            index <= at_gate && index + gates - at_gate <= 64,
            "{case}: {index}+{gates}"
        );
        match result {
            // The last step ends the run before another poll.
            Ok(_) => assert_eq!(index + gates, c.num_gates(), "{case}"),
            Err(FlatDdError::Interrupted { partial, .. }) => {
                assert_eq!(
                    partial.gates_applied,
                    index + gates,
                    "{case}: not the next poll"
                );
                let (mut resumed, header) =
                    FlatDdSimulator::resume_from(&path, resumed_cfg, &c).unwrap();
                assert_eq!(header.gate_cursor as usize, index + gates, "{case}");
                resumed.run_from(&c).unwrap();
                let d = state_distance(&resumed.amplitudes(), &dense::simulate(&c));
                assert!(d < 1e-12, "{case}: resumed {d:e} from dense");
            }
            Err(e) => panic!("{case}: {e}"),
        }
        let _ = std::fs::remove_file(&path);
    });
}

#[test]
fn unitarity_holds_on_random_circuits() {
    prop::check(CASES, |g| {
        let c = g.circuit(6, 1..60);
        assert!((norm_sqr(&flatdd::simulate(&c, with_threads(2))) - 1.0).abs() < 1e-7);
    });
}

#[test]
fn dd_round_trip_from_array() {
    prop::check(CASES, |g| {
        let v = arb_state(g, 5);
        let pkg = DdPackage::default();
        let e = pkg.vector_from_slice(&v);
        let back = pkg.vector_to_array(e, 5);
        assert!(state_distance(&back, &v) < 1e-9);
    });
}

/// A product of random 1-3 qubit states (each [`arb_state`]) over `n`
/// qubits: every sub-DD below a factor's top repeats under each path above.
fn arb_product(g: &mut Gen, n: usize) -> Vec<Complex64> {
    let mut v = vec![Complex64::ONE];
    while v.len() < 1 << n {
        let k = g.rng.range(1..4).min(n - v.len().trailing_zeros() as usize);
        let f = arb_state(g, k);
        v = f
            .iter()
            .flat_map(|&a| v.iter().map(move |&b| a * b))
            .collect();
    }
    v
}

/// A structured `n`-qubit circuit (`knn` leaves the top qubit idle at even
/// `n`): the states whose sub-DDs repeat.
fn arb_structured(g: &mut Gen, n: usize) -> Circuit {
    let seed = g.rng.next_u64();
    match g.rng.range(0..7) {
        0 => generators::ghz(n),
        1 => generators::w_state(n),
        2 => generators::qft(n),
        3 => generators::knn((n - 1) / 2, seed),
        4 => generators::dnn(n, g.rng.range(1..4), seed),
        5 => generators::supremacy_n(n, g.rng.range(2..9), seed),
        _ => generators::random_circuit(n, g.rng.range(10..80), seed),
    }
}

#[test]
fn parallel_conversion_equals_sequential() {
    // Three kinds of state at n = 8-12: dense random vectors (no sub-DD
    // repeats), products of random 1-3 qubit states and the DDs of
    // structured circuits (sub-DDs repeat, so the fill's per-node tables
    // are hit). Each converts into a NaN-poisoned buffer, so an amplitude
    // the write-once fill skipped would show.
    let ctx = flatdd::RunContext::default();
    prop::check(CASES, |g| {
        let n = g.rng.range(8..13);
        let mut sim = qdd::DdSimulator::new(n);
        let e = match g.rng.range(0..3) {
            0 => sim.package().vector_from_slice(&arb_state(g, n)),
            1 => sim.package().vector_from_slice(&arb_product(g, n)),
            _ => {
                for gate in arb_structured(g, n).iter() {
                    sim.apply(gate);
                }
                sim.state()
            }
        };
        let pkg = sim.package();
        let want = pkg.vector_to_array(e, n);
        let threads = g.rng.range(1..5);
        let pool = ThreadPool::new(threads);
        for shards in [1, 2, 4, 8] {
            let mut out = vec![Complex64::new(f64::NAN, f64::NAN); 1 << n];
            flatdd::dd_to_array_parallel_sharded_into_with(
                pkg, e, n, &pool, shards, &mut out, &ctx,
            );
            let finite = out.iter().all(|a| a.re.is_finite() && a.im.is_finite());
            let d = state_distance(&out, &want);
            assert!(finite && d <= 1e-12, "n={n} t={threads} s={shards}: {d:e}");
        }
    });
}

#[test]
fn normalization_is_canonical_under_global_scaling() {
    prop::check(CASES, |g| {
        let v = arb_state(g, 4);
        let w = Complex64::new(g.rng.f64_in(0.1..2.0), g.rng.f64_in(-2.0..2.0));
        // Near-zero vectors have nothing to share.
        if norm_sqr(&v) <= 1e-6 {
            return;
        }
        let scaled: Vec<Complex64> = v.iter().map(|&x| x * w).collect();
        let pkg = DdPackage::default();
        let e1 = pkg.vector_from_slice(&v);
        let e2 = pkg.vector_from_slice(&scaled);
        assert_eq!(e1.n, e2.n, "scaled copies must share the DD node");
    });
}

#[test]
fn dd_addition_is_commutative() {
    prop::check(CASES, |g| {
        let (a, b) = (arb_state(g, 4), arb_state(g, 4));
        let pkg = DdPackage::default();
        let ea = pkg.vector_from_slice(&a);
        let eb = pkg.vector_from_slice(&b);
        let ab = pkg.add_vectors(ea, eb);
        let ba = pkg.add_vectors(eb, ea);
        let x = pkg.vector_to_array(ab, 4);
        let y = pkg.vector_to_array(ba, 4);
        assert!(state_distance(&x, &y) < 1e-9);
    });
}

#[test]
fn dmav_equals_dense_matvec_on_random_gate() {
    prop::check(CASES, |g| {
        let v = arb_state(g, 5);
        let (target, theta) = (g.rng.range(0..5), g.rng.f64_in(-3.0..3.0));
        let gate = Gate::new(GateKind::U(theta, theta * 0.5, -theta), target);
        let pkg = DdPackage::default();
        let m = pkg.gate_dd(&gate, 5);
        let pool = ThreadPool::new(2);
        let mut w = vec![Complex64::ZERO; 32];
        flatdd::dmav(&pkg, m, &v, &mut w, &pool);
        let mut want = v.clone();
        dense::apply_gate(&mut want, &gate);
        assert!(state_distance(&w, &want) < 1e-9);
    });
}

/// A circuit that fires every rule of the flat phase's active-width
/// reduction once its state converts: each qubit is put into superposition,
/// flipped to |1> or left at |0>, then gates come from the rule families —
/// controls on fixed qubits at either value; X, Y, Z, S, T, P, RZ (and so
/// CZ and CX) on fixed targets with and without active controls; and H,
/// √X, √Y and RY, which widen, on bit 0, the middle qubit and the top one.
fn reduction_circuit(g: &mut Gen, n: usize) -> Circuit {
    use qcircuit::Control;
    use GateKind::*;
    let mut c = Circuit::new(n);
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

#[test]
fn active_width_lattice_matches_dense() {
    // Conversion at a random gate (`AtGate`) holds out the qubits the state
    // has in a basis state; the flat phase reduces every later gate against
    // them and widens them back in as gates superpose them. Each case draws
    // a circuit (supremacy, random, or one that fires every reduction
    // rule), the conversion point, 1, 2 or 4 shards, fusion or none, and a
    // checkpoint at a random flat gate resumed under another shard count.
    static SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    // Cases that held qubits out at conversion, and that widened one back.
    let (mut held, mut widened) = (0, 0);
    prop::check(CASES, |g| {
        let n = g.rng.range(4..11);
        let seed = g.rng.next_u64();
        let c = match g.rng.range(0..3) {
            0 => generators::supremacy_n(n, g.rng.range(1..6), seed),
            1 => generators::random_circuit(n, g.rng.range(10..80), seed),
            _ => reduction_circuit(g, n),
        };
        let gates = c.num_gates();
        let at = g.rng.range(1..gates + 1);
        let fusion = match g.rng.bool(0.5) {
            true => FusionPolicy::DmavAware,
            false => FusionPolicy::None,
        };
        let geometry = |shards: usize| FlatDdConfig {
            threads: shards,
            flat_shards: shards,
            conversion: ConversionPolicy::AtGate(at),
            fusion,
            ..Default::default()
        };
        let shards = [1usize, 2, 4][g.rng.range(0..3)];
        let (cfg, resumed_cfg) = (geometry(shards), geometry([2, 4, 1][shards / 2]));
        let case = format!("{} at {at}/{gates} {fusion:?} shards={shards}", c.name());
        let want = dense::simulate(&c);

        // The whole run, and every reader on the state it ends in.
        let mut sim = FlatDdSimulator::try_new_with(n, cfg, RunContext::isolated()).unwrap();
        sim.run(&c).unwrap();
        let metrics = sim.context().metrics();
        held += usize::from(metrics.gauge("sim.active_qubits").get() < n as f64);
        widened += usize::from(metrics.counter("sim.widenings").get() > 0);
        let got = sim.amplitudes();
        let d = state_distance(&got, &want);
        assert!(d < 1e-12, "{case}: {d:e}");
        let k = g.rng.range(1..9);
        let top = sim.top_amplitudes(k);
        let mut by_weight: Vec<usize> = (0..want.len()).collect();
        by_weight.sort_by(|&a, &b| want[b].norm_sqr().total_cmp(&want[a].norm_sqr()));
        for (&(i, a), &j) in top.iter().zip(&by_weight) {
            assert!(a.approx_eq(want[i], 1e-12), "{case}: top amplitude {i}");
            let (p, q) = (a.norm_sqr(), want[j].norm_sqr());
            assert!((p - q).abs() < 1e-12, "{case}: top {i} p={p} vs {j} p={q}");
        }
        let r = g.rng.f64_in(0.0..1.0);
        let drawn = sim.sample(&mut || r);
        let (lo, hi) = (r - 1e-9, r + 1e-9);
        if inverse_cdf(&want, lo) == inverse_cdf(&want, hi) {
            assert_eq!(drawn, inverse_cdf(&want, r), "{case}: draw {r}");
        }

        // Checkpoint at a random flat gate, resumed under other shards.
        let cut = g.rng.range(at.min(gates)..gates + 1);
        let path = std::env::temp_dir().join(format!(
            "flatdd-prop-active-{}-{}.ckpt",
            std::process::id(),
            SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let mut first = FlatDdSimulator::try_new(n, cfg).unwrap();
        first.set_checkpoint_policy(Some(CheckpointPolicy::at(&path)));
        first.run_prefix(&c, cut).unwrap();
        first.save_checkpoint().unwrap();
        drop(first);
        let (mut resumed, _) = FlatDdSimulator::resume_from(&path, resumed_cfg, &c).unwrap();
        let _ = std::fs::remove_file(&path);
        resumed.run_from(&c).unwrap();
        let d = state_distance(&resumed.amplitudes(), &want);
        assert!(d < 1e-12, "{case}: resumed at {cut}: {d:e}");
    });
    if std::env::var("FLATDD_PROP_SEED").is_err() {
        assert!(
            held > CASES / 2 && widened > CASES / 4,
            "{held} / {widened}"
        );
    }
}
