//! Property tests of the engines' parts: DD invariants on arbitrary states,
//! the parallel conversion and one DMAV against their sequential and dense
//! counterparts, sweeps and cancels mid-run. Whole runs against the other
//! engines are `tests/lattice.rs`.

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

fn with_threads(threads: usize) -> FlatDdConfig {
    FlatDdConfig {
        threads,
        ..Default::default()
    }
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

/// Every `(weight index, value)` the state DD under `e` stores.
fn stored_weights(pkg: &DdPackage, e: qdd::VEdge) -> Vec<(qdd::CIdx, Complex64)> {
    let mut out = vec![(e.w, pkg.cval(e.w))];
    let (mut stack, mut seen) = (vec![e.n], std::collections::HashSet::new());
    while let Some(id) = stack.pop() {
        if id == qdd::TERM || !seen.insert(id) {
            continue;
        }
        for c in pkg.v_node(id).e {
            out.push((c.w, pkg.cval(c.w)));
            stack.push(c.n);
        }
    }
    out
}

#[test]
fn a_sweep_after_every_gate_keeps_the_state_and_reuses_value_slots() {
    let pool = ThreadPool::new(2);
    prop::check(CASES, |g| {
        let n = g.rng.range(3..7);
        let c = g.circuit(n, 1..60);
        let want = dense::simulate(&c);
        let never = DdPackage::default();
        let mut unswept = never.basis_state(n, 0);
        for gate in c.iter() {
            unswept = never.apply_gate(unswept, gate, n);
        }
        let unswept = never.vector_to_array(unswept, n);
        // One DD worker, and two through the task graph (forced: these DDs
        // are far below the size the simulator would fork at).
        for workers in [1, 2] {
            let mut pkg = DdPackage::default();
            let mut state = pkg.basis_state(n, 0);
            let mut peak = 0;
            for gate in c.iter() {
                let m = pkg.gate_dd(gate, n);
                state = pkg.mul_mv_parallel_capped(&pool, m, state, workers);
                let before = stored_weights(&pkg, state);
                // Live values of the last sweep plus this interval's.
                peak = peak.max(pkg.stats().complex_values);
                pkg.gc(&[state], &[]);
                for (w, v) in before {
                    let now = pkg.cval(w);
                    assert!(
                        now.re.to_bits() == v.re.to_bits() && now.im.to_bits() == v.im.to_bits(),
                        "weight {w:?} read {v:?} before the sweep and {now:?} after"
                    );
                }
                // Freed slots are taken again: the slots stay within the
                // most values ever held at once, up to what the per-shard
                // free lists leave unevenly spread.
                let slots = pkg.stats().complex_slots;
                assert!(
                    slots <= 2 * peak + 64,
                    "{slots} slots for a peak of {peak} values"
                );
            }
            let got = pkg.vector_to_array(state, n);
            assert!(state_distance(&got, &want) < TOL, "workers = {workers}");
            assert!(state_distance(&got, &unswept) < TOL, "workers = {workers}");
        }
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
