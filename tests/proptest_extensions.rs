//! Property tests for the extension modules: observables, sampling,
//! top-k readout, approximation, adjoint, transforms, and equivalence
//! checking.

mod oracles;

use flatdd::{ConversionPolicy, FlatDdConfig, FlatDdSimulator};
use qcircuit::complex::{norm_sqr, state_distance_up_to_phase};
use qcircuit::observable::{Pauli, PauliString};
use qcircuit::prop::{self, Gen};
use qcircuit::transform::{fuse_single_qubit_runs, peephole_optimize};
use qcircuit::{dense, Circuit, Complex64};
use qdd::DdPackage;

fn arb_pauli_string(g: &mut Gen, n: usize) -> PauliString {
    const PAULIS: [Pauli; 4] = [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z];
    let ops = (0..n).map(|q| (q, PAULIS[g.rng.range(0..4)])).collect();
    PauliString::new(g.rng.f64_in(-2.0..2.0), ops)
}

fn build_state(pkg: &mut DdPackage, c: &Circuit) -> qdd::VEdge {
    let mut s = pkg.basis_state(c.num_qubits(), 0);
    for g in c.iter() {
        s = pkg.apply_gate(s, g, c.num_qubits());
    }
    s
}

/// Runs `c` ending in both phases (`Never`, `Immediate`) and under the
/// default policy, and holds each run's top-k readout to the shared oracles.
fn assert_top_amplitudes_in_both_phases(c: &Circuit, what: &str) {
    let policies = [
        ConversionPolicy::Never,
        ConversionPolicy::Immediate,
        FlatDdConfig::default().conversion,
    ];
    for conversion in policies {
        let cfg = FlatDdConfig {
            conversion,
            ..Default::default()
        };
        let mut sim = FlatDdSimulator::new(c.num_qubits(), cfg);
        sim.run(c).unwrap();
        let ctx = format!("{what}, {}, phase {:?}", conversion.label(), sim.phase());
        oracles::assert_top_amplitudes_match_the_oracles(&sim, &ctx);
    }
}

#[test]
fn top_amplitudes_match_copy_and_sort_on_tie_heavy_states() {
    use qcircuit::generators;
    let mut uniform = Circuit::new(7);
    for q in 0..7 {
        uniform.h(q);
    }
    for (what, c) in [
        ("ghz", generators::ghz(8)),
        ("grover", generators::grover(6, 0b101101, None)),
        ("uniform", uniform),
        ("adder", generators::adder_n(8)),
        ("supremacy", generators::supremacy(3, 3, 8, 5)),
    ] {
        assert_top_amplitudes_in_both_phases(&c, what);
    }
}

/// 2^40 amplitudes are 16 TiB: only a readout that never materializes the
/// state can return from this.
#[test]
fn dd_phase_top_amplitudes_of_ghz_40_are_the_two_arms() {
    let cfg = FlatDdConfig {
        conversion: ConversionPolicy::Never,
        ..Default::default()
    };
    let mut sim = FlatDdSimulator::new(40, cfg);
    sim.run(&qcircuit::generators::ghz(40)).unwrap();
    let got = sim.top_amplitudes(8);
    let arms = [0usize, (1 << 40) - 1];
    assert_eq!(got.iter().map(|&(i, _)| i).collect::<Vec<_>>(), arms);
    for (i, a) in got {
        assert_eq!(a, sim.amplitude(i));
        assert!((a.norm_sqr() - 0.5).abs() < 1e-12);
    }
}

const CASES: usize = 20;

#[test]
fn top_amplitudes_match_copy_and_sort_on_random_circuits() {
    prop::check(CASES, |g| {
        assert_top_amplitudes_in_both_phases(&g.circuit(5, 1..40), "random circuit");
    });
}

#[test]
fn pauli_expectation_agrees_everywhere() {
    prop::check(CASES, |g| {
        let (c, p) = (g.circuit(5, 1..30), arb_pauli_string(g, 5));
        let v = dense::simulate(&c);
        let want = p.expectation_dense(&v);
        let mut pkg = DdPackage::default();
        let s = build_state(&mut pkg, &c);
        assert!((pkg.expectation_pauli(s, &p, 5) - want).abs() < 1e-8);
        assert!((qarray::expectation_pauli(&v, &p) - want).abs() < 1e-9);
        // Hermitian observables have real expectations bounded by |coeff|.
        assert!(want.abs() <= p.coeff.abs() + 1e-9);
    });
}

#[test]
fn approximation_invariants() {
    prop::check(CASES, |g| {
        let c = g.circuit(6, 1..40);
        let threshold = 10f64.powf(g.rng.f64_in(-8.0..-1.0));
        let mut pkg = DdPackage::default();
        let s = build_state(&mut pkg, &c);
        let r = pkg.approximate(s, threshold);
        // The result is always normalized...
        let arr = pkg.vector_to_array(r.state, 6);
        assert!((norm_sqr(&arr) - 1.0).abs() < 1e-7);
        // ...never larger than the input...
        assert!(r.nodes_after <= r.nodes_before);
        // ...with a valid fidelity in [0, 1].
        assert!((0.0..=1.0 + 1e-9).contains(&r.fidelity));
        // Pruned mass bounds the infidelity loosely: fidelity >= 1 - nodes*threshold*C.
        if threshold < 1e-6 {
            assert!(
                r.fidelity > 0.99,
                "fidelity {} at threshold {threshold}",
                r.fidelity
            );
        }
    });
}

#[test]
fn adjoint_respects_dagger_on_random_products() {
    prop::check(CASES, |g| {
        let c = g.circuit(4, 1..12);
        let mut pkg = DdPackage::default();
        let n = 4;
        let mut u = pkg.identity_dd(n);
        for gate in c.iter() {
            let gd = pkg.gate_dd(gate, n);
            u = pkg.mul_mm(gd, u);
        }
        let adj = pkg.adjoint(u);
        let prod = pkg.mul_mm(adj, u);
        let id = pkg.identity_dd(n);
        assert_eq!(
            prod.n, id.n,
            "U†U must be (a phase times) the identity node"
        );
        assert!((pkg.cval(prod.w).abs() - 1.0).abs() < 1e-7);
    });
}

#[test]
fn transforms_preserve_semantics() {
    prop::check(CASES, |g| {
        let c = g.circuit(5, 1..50);
        let want = dense::simulate(&c);
        let opt = peephole_optimize(&c);
        assert!(opt.num_gates() <= c.num_gates());
        assert!(state_distance_up_to_phase(&dense::simulate(&opt), &want) < 1e-8);
        let fused = fuse_single_qubit_runs(&c);
        assert!(state_distance_up_to_phase(&dense::simulate(&fused), &want) < 1e-8);
    });
}

#[test]
fn equivalence_checker_accepts_self_and_rejects_perturbation() {
    prop::check(CASES, |g| {
        let c = g.circuit(4, 1..25);
        assert!(qdd::check_equivalence(&c, &c.clone()).is_equivalent());
        let mut perturbed = c.clone();
        perturbed.ry(0.37, 1); // a non-trivial extra rotation
        assert!(!qdd::check_equivalence(&c, &perturbed).is_equivalent());
    });
}

#[test]
fn inner_product_is_cauchy_schwarz_bounded() {
    prop::check(CASES, |g| {
        let (c1, c2) = (g.circuit(5, 1..25), g.circuit(5, 1..25));
        let mut pkg = DdPackage::default();
        let a = build_state(&mut pkg, &c1);
        let b = build_state(&mut pkg, &c2);
        let ip = pkg.inner_product(a, b);
        assert!(ip.abs() <= 1.0 + 1e-8, "|<a|b>| = {} > 1", ip.abs());
        // Consistency with the dense inner product.
        let va = dense::simulate(&c1);
        let vb = dense::simulate(&c2);
        let want: Complex64 = va.iter().zip(&vb).map(|(&x, &y)| x.conj() * y).sum();
        assert!(ip.approx_eq(want, 1e-8));
    });
}

#[test]
fn dd_sampler_never_emits_zero_probability_outcomes() {
    prop::check(CASES, |g| {
        let c = g.circuit(5, 1..30);
        let mut pkg = DdPackage::default();
        let s = build_state(&mut pkg, &c);
        let v = dense::simulate(&c);
        let mut rng = qdd::SplitMix64::new(g.rng.range(0..1000) as u64);
        for _ in 0..32 {
            let idx = pkg.sample(s, &mut rng.as_fn());
            assert!(
                v[idx].norm_sqr() > 1e-18,
                "sampled impossible outcome {idx}"
            );
        }
    });
}
