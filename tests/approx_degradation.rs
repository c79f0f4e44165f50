//! Bounded-fidelity graceful degradation: the approximation rung at the
//! bottom of the governor's ladder (`GovernorConfig::approx_fidelity_floor`).
//!
//! Pinned here: the rung is off by default (a breach stays the typed fatal
//! error), an armed floor turns the same breach into a completed run whose
//! cumulative fidelity respects the floor, exact runs are bit-identical
//! whether or not the rung is armed, a floor of exactly 1.0 never accepts a
//! lossy truncation, and checkpoint resume carries the fidelity product
//! across process boundaries. The property block at the bottom pins the
//! truncation primitive's invariants against dense recomputation.

use flatdd::telemetry::json::{self, Json};
use flatdd::{
    CheckpointPolicy, ConversionPolicy, FlatDdConfig, FlatDdError, FlatDdSimulator, GovernorConfig,
};
use qcircuit::prop;
use qcircuit::{generators, Circuit, Complex64};
use qdd::DdPackage;

/// The reference fatally-breaching pair: a 14-qubit DNN whose pure-DD state
/// saturates at gate 80 of 120 into a DD that, alone in a fresh package,
/// still accounts 2.53 MiB — a live state over its 2 MiB budget, which no
/// exact rung of the ladder can give back
/// (`the_breaching_state_alone_exceeds_the_budget`).
fn breaching_circuit() -> Circuit {
    generators::dnn(14, 2, 7)
}

const BREACHING_BUDGET: usize = 2 << 20;

/// Pure-DD run (no conversion) under `budget` bytes, optionally armed.
fn breaching_cfg(budget: Option<usize>, floor: Option<f64>) -> FlatDdConfig {
    FlatDdConfig {
        conversion: ConversionPolicy::Never,
        governor: GovernorConfig {
            memory_budget_bytes: budget,
            approx_fidelity_floor: floor,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn tmp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "flatdd-approx-test-{}-{tag}.ckpt",
        std::process::id()
    ))
}

#[test]
fn unarmed_breach_stays_fatal() {
    let c = breaching_circuit();
    let mut sim =
        FlatDdSimulator::try_new(c.num_qubits(), breaching_cfg(Some(BREACHING_BUDGET), None))
            .unwrap();
    let err = sim.run(&c).unwrap_err();
    match &err {
        FlatDdError::MemoryBudgetExceeded { partial, .. } => {
            assert!(partial.gates_applied < c.num_gates());
        }
        other => panic!("expected MemoryBudgetExceeded, got {other}"),
    }
    // The default-off rung never touched the state: the run is exact up to
    // the breach point.
    assert_eq!(sim.stats().approx_truncations, 0);
    assert_eq!(sim.fidelity(), 1.0);
    assert!(!sim.is_approximate());
    let stats = json::parse(&sim.stats().to_json()).unwrap();
    assert_eq!(stats.get("approximate"), Some(&Json::Bool(false)));
}

#[test]
fn the_breaching_state_alone_exceeds_the_budget() {
    let c = breaching_circuit();
    let mut sim =
        FlatDdSimulator::try_new(c.num_qubits(), breaching_cfg(Some(BREACHING_BUDGET), None))
            .unwrap();
    let Err(FlatDdError::MemoryBudgetExceeded { partial, .. }) = sim.run(&c) else {
        panic!("the unarmed run must breach");
    };
    // The exact state at the breach, serialized into a fresh package: what
    // the ladder's compaction would leave, with no garbage and no history.
    let n = c.num_qubits();
    let pkg = DdPackage::default();
    let mut state = pkg.basis_state(n, 0);
    for gate in c.iter().take(partial.gates_applied) {
        state = pkg.apply_gate(state, gate, n);
    }
    let bytes = qdd::serialize::vector_dd_to_bytes(&pkg, state, n).unwrap();
    let mut fresh = DdPackage::default();
    qdd::serialize::vector_dd_from_bytes(&mut fresh, &bytes).unwrap();
    let live = fresh.stats().memory_bytes;
    assert!(
        live > BREACHING_BUDGET,
        "live state {live} B fits the budget"
    );
}

#[test]
fn the_former_breaching_pair_completes_exactly_under_12_mib() {
    // `vqe(12, 3, 7)` breached 12 MiB while sweeps freed no weight and the
    // compute tables stood at 7 MiB; its live state is under 1 MiB.
    let c = generators::vqe(12, 3, 7);
    let mut sim =
        FlatDdSimulator::try_new(c.num_qubits(), breaching_cfg(Some(12 << 20), None)).unwrap();
    let outcome = sim.run(&c).expect("the live state fits 12 MiB");
    assert_eq!(outcome.gates_applied, c.num_gates());
    assert_eq!(sim.stats().approx_truncations, 0);
    assert_eq!(sim.stats().pressure_gcs, 0);
    assert_eq!(sim.fidelity(), 1.0);
    assert!(!sim.is_approximate());
}

#[test]
fn armed_floor_completes_with_bounded_fidelity() {
    let c = breaching_circuit();
    // Same circuit, same budget: the only difference is the armed floor.
    let mut sim = FlatDdSimulator::try_new(
        c.num_qubits(),
        breaching_cfg(Some(BREACHING_BUDGET), Some(0.9)),
    )
    .unwrap();
    let outcome = sim.run(&c).expect("armed run must complete");
    assert_eq!(outcome.gates_applied, c.num_gates());
    let stats = sim.stats();
    assert!(stats.approx_truncations >= 1, "no truncation fired");
    assert!(sim.is_approximate());
    assert!(
        sim.fidelity() >= 0.9 && sim.fidelity() <= 1.0,
        "cumulative fidelity {} violates the floor",
        sim.fidelity()
    );
    // The result self-describes as approximate, with the fidelity last in
    // the stats payload.
    let text = stats.to_json();
    let v = json::parse(&text).unwrap();
    assert_eq!(v.get("approximate"), Some(&Json::Bool(true)), "{text}");
    assert_eq!(
        v.get("fidelity"),
        Some(&Json::Num(sim.fidelity())),
        "{text}"
    );
    assert!(
        text.ends_with(&format!("\"fidelity\":{}}}", sim.fidelity())),
        "{text}"
    );
    // The truncated state is still a normalized quantum state, and it is
    // genuinely close to the exact result (the floor bounds the tracked
    // product; the dense cross-check guards against accounting bugs).
    let approx = sim.amplitudes();
    let norm: f64 = approx.iter().map(|a| a.norm_sqr()).sum();
    assert!((norm - 1.0).abs() < 1e-9, "norm drifted to {norm}");
    let mut exact_sim =
        FlatDdSimulator::try_new(c.num_qubits(), breaching_cfg(None, None)).unwrap();
    exact_sim.run(&c).unwrap();
    let exact = exact_sim.amplitudes();
    let overlap: Complex64 = exact.iter().zip(&approx).map(|(a, b)| a.conj() * *b).sum();
    assert!(
        overlap.norm_sqr() > 0.9,
        "true fidelity {} too far from the tracked product {}",
        overlap.norm_sqr(),
        sim.fidelity()
    );
    // The cumulative product is published as a gauge for the serve layer.
    sim.publish_metrics();
    let metrics = json::parse(&sim.context().metrics().to_json()).unwrap();
    let gauge = metrics.get("gauges").and_then(|g| g.get("sim.fidelity"));
    assert_eq!(gauge, Some(&Json::Num(sim.fidelity())));
}

#[test]
fn armed_but_unpressured_runs_are_bit_identical() {
    let c = generators::vqe(10, 2, 11);
    let mut exact = FlatDdSimulator::try_new(10, breaching_cfg(None, None)).unwrap();
    exact.run(&c).unwrap();
    let mut armed = FlatDdSimulator::try_new(10, breaching_cfg(None, Some(0.9))).unwrap();
    armed.run(&c).unwrap();
    assert_eq!(armed.stats().approx_truncations, 0);
    assert_eq!(armed.fidelity(), 1.0);
    let (a, b) = (exact.amplitudes(), armed.amplitudes());
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "amplitude {i} differs: {x} vs {y}"
        );
    }
}

#[test]
fn floor_of_one_never_accepts_a_lossy_truncation() {
    let c = breaching_circuit();
    let mut sim = FlatDdSimulator::try_new(
        c.num_qubits(),
        breaching_cfg(Some(BREACHING_BUDGET), Some(1.0)),
    )
    .unwrap();
    // A floor of exactly 1.0 arms the rung but only lossless prunes can
    // clear it; whichever way the run ends, the state was never degraded.
    match sim.run(&c) {
        Ok(_) => assert_eq!(sim.fidelity(), 1.0),
        Err(FlatDdError::MemoryBudgetExceeded { .. }) => {
            assert_eq!(sim.fidelity(), 1.0);
            assert!(!sim.is_approximate());
        }
        Err(other) => panic!("unexpected error {other}"),
    }
}

#[test]
fn checkpoint_resume_preserves_the_fidelity_product() {
    let c = breaching_circuit();
    let path = tmp_path("resume");
    let cfg = breaching_cfg(Some(BREACHING_BUDGET), Some(0.9));
    let mut sim = FlatDdSimulator::try_new(c.num_qubits(), cfg).unwrap();
    sim.set_checkpoint_policy(Some(CheckpointPolicy::at(&path)));
    // Run far enough that truncations have fired, then suspend: the armed
    // run is the unarmed one up to the gate where that one breaches (gate
    // 80 of 120 here).
    let unarmed = breaching_cfg(Some(BREACHING_BUDGET), None);
    let cut = match FlatDdSimulator::try_new(c.num_qubits(), unarmed)
        .unwrap()
        .run(&c)
    {
        Err(FlatDdError::MemoryBudgetExceeded { partial, .. }) => partial.gates_applied + 1,
        other => panic!("expected MemoryBudgetExceeded, got {other:?}"),
    };
    sim.run_prefix(&c, cut).unwrap();
    assert!(
        sim.stats().approx_truncations >= 1,
        "the rung did not fire where the unarmed run breaches"
    );
    let fidelity_at_cut = sim.fidelity();
    let truncations_at_cut = sim.stats().approx_truncations;
    assert!((0.9..1.0).contains(&fidelity_at_cut));
    sim.save_checkpoint().unwrap();
    drop(sim);

    let (mut resumed, header) =
        FlatDdSimulator::resume_from(&path, breaching_cfg(Some(BREACHING_BUDGET), Some(0.9)), &c)
            .unwrap();
    assert_eq!(header.gate_cursor as usize, cut);
    // The product travels through the FDCP1 header bit-exactly (the
    // acceptance bound is 1e-12; the format stores the raw f64).
    assert!(
        (resumed.fidelity() - fidelity_at_cut).abs() < 1e-12,
        "restored fidelity {} != {}",
        resumed.fidelity(),
        fidelity_at_cut
    );
    assert_eq!(resumed.stats().approx_truncations, truncations_at_cut);
    assert!(resumed.is_approximate());
    // Finishing the run only multiplies the product further down.
    resumed
        .run_from(&c)
        .expect("resumed armed run must complete");
    assert_eq!(resumed.gates_applied(), c.num_gates());
    assert!(resumed.fidelity() <= fidelity_at_cut);
    assert!(resumed.fidelity() >= 0.9);
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// Truncation-primitive invariants (property tests over random circuits).
// ---------------------------------------------------------------------------

/// Dense fidelity `|<a|b>|^2`, computed independently of the DD package's
/// own inner product.
fn dense_fidelity(pkg: &DdPackage, a: qdd::VEdge, b: qdd::VEdge, n: usize) -> f64 {
    let va = pkg.vector_to_array(a, n);
    let vb = pkg.vector_to_array(b, n);
    let overlap: Complex64 = va.iter().zip(&vb).map(|(x, y)| x.conj() * *y).sum();
    overlap.norm_sqr()
}

#[test]
fn truncation_chain_invariants() {
    prop::check(12, |g| {
        let c = g.circuit(6, 4..30);
        let n = c.num_qubits();
        let mut pkg = DdPackage::default();
        let mut s = pkg.basis_state(n, 0);
        for gate in c.iter() {
            s = pkg.apply_gate(s, gate, n);
        }
        // A chain of escalating truncations, exactly as the governor rung
        // walks its threshold ladder.
        let mut tracked_product = 1.0f64;
        let mut independent_product = 1.0f64;
        for threshold in [1e-9, 1e-5, 1e-2] {
            let nodes_before = pkg.vector_dd_size(s);
            let r = pkg.approximate(s, threshold);
            // Truncation never grows the DD.
            assert!(r.nodes_after <= nodes_before, "{r:?} from {nodes_before}");
            assert_eq!(r.nodes_before, nodes_before);
            // Per-step fidelity lives in (0, 1] (up to f64 rounding).
            assert!(r.fidelity > 0.0 && r.fidelity <= 1.0 + 1e-12, "{r:?}");
            // The reported step fidelity matches a dense recomputation.
            let dense = dense_fidelity(&pkg, s, r.state, n);
            assert!((r.fidelity - dense).abs() < 1e-12, "{r:?} vs dense {dense}");
            tracked_product *= r.fidelity;
            independent_product *= dense;
            s = r.state;
        }
        // The cumulative product the simulator would track matches the
        // independently recomputed product to 1e-12.
        assert!((tracked_product - independent_product).abs() < 1e-12);
        // The surviving state is still normalized.
        let arr = pkg.vector_to_array(s, n);
        let norm: f64 = arr.iter().map(|a| a.norm_sqr()).sum();
        assert!((norm - 1.0).abs() < 1e-9, "norm {}", norm);
    });
}
