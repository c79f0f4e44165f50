//! Property-based cross-validation: random circuits drawn gate-by-gate must
//! simulate identically on every engine, and core DD invariants must hold
//! for arbitrary states.

use flatdd::{CachingPolicy, ConversionPolicy, FlatDdConfig, FusionPolicy, ThreadPool};
use proptest::prelude::*;
use qcircuit::complex::{norm_sqr, state_distance};
use qcircuit::gate::{Control, Gate, GateKind};
use qcircuit::{dense, Circuit, Complex64};
use qdd::DdPackage;

const TOL: f64 = 1e-8;

/// Strategy: one random gate over `n` qubits.
fn arb_gate(n: usize) -> impl Strategy<Value = Gate> {
    let kind = prop_oneof![
        Just(GateKind::H),
        Just(GateKind::X),
        Just(GateKind::Y),
        Just(GateKind::Z),
        Just(GateKind::S),
        Just(GateKind::T),
        Just(GateKind::SqrtX),
        (-3.2f64..3.2).prop_map(GateKind::RX),
        (-3.2f64..3.2).prop_map(GateKind::RY),
        (-3.2f64..3.2).prop_map(GateKind::RZ),
        (-3.2f64..3.2).prop_map(GateKind::Phase),
        ((-3.2f64..3.2), (-3.2f64..3.2), (-3.2f64..3.2)).prop_map(|(a, b, c)| GateKind::U(a, b, c)),
    ];
    (
        kind,
        0..n,
        proptest::collection::vec((0..n, any::<bool>()), 0..3),
    )
        .prop_map(move |(kind, target, raw_controls)| {
            let mut controls: Vec<Control> = Vec::new();
            for (q, pos) in raw_controls {
                if q != target && !controls.iter().any(|c| c.qubit == q) {
                    controls.push(Control {
                        qubit: q,
                        positive: pos,
                    });
                }
            }
            Gate::controlled(kind, target, controls)
        })
}

fn arb_circuit(n: usize, max_gates: usize) -> impl Strategy<Value = Circuit> {
    proptest::collection::vec(arb_gate(n), 1..max_gates).prop_map(move |gates| {
        let mut c = Circuit::new(n);
        for g in gates {
            c.push(g);
        }
        c
    })
}

fn arb_state(n: usize) -> impl Strategy<Value = Vec<Complex64>> {
    proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 1usize << n).prop_map(|raw| {
        raw.into_iter()
            .map(|(re, im)| Complex64::new(re, im))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn dd_engine_matches_dense(c in arb_circuit(5, 40)) {
        let want = dense::simulate(&c);
        let got = qdd::sim::simulate(&c);
        prop_assert!(state_distance(&got, &want) < TOL);
    }

    #[test]
    fn array_engine_matches_dense(c in arb_circuit(5, 40)) {
        let want = dense::simulate(&c);
        let got = qarray::simulate_with_threads(&c, 3);
        prop_assert!(state_distance(&got, &want) < TOL);
    }

    #[test]
    fn flatdd_matches_dense(c in arb_circuit(5, 40)) {
        let want = dense::simulate(&c);
        let got = flatdd::simulate(&c, FlatDdConfig { threads: 2, ..Default::default() });
        prop_assert!(state_distance(&got, &want) < TOL);
    }

    #[test]
    fn flatdd_pure_dmav_with_fusion_matches_dense(c in arb_circuit(5, 30)) {
        let want = dense::simulate(&c);
        let got = flatdd::simulate(&c, FlatDdConfig {
            threads: 4,
            conversion: ConversionPolicy::Immediate,
            caching: CachingPolicy::Always,
            fusion: FusionPolicy::DmavAware,
            ..Default::default()
        });
        prop_assert!(state_distance(&got, &want) < TOL);
    }

    #[test]
    fn flat_phase_matches_dense_under_every_kernel_and_fusion_policy(
        c in arb_circuit(6, 40),
        threads in 1usize..4,
        flat_shards in 1usize..9,
    ) {
        // Every gate (or fused block) goes through the compiled DMAV walk,
        // row-space and column-space, with shard counts that differ from
        // the pool size.
        let want = dense::simulate(&c);
        for fusion in [FusionPolicy::None, FusionPolicy::DmavAware] {
            for caching in [CachingPolicy::Never, CachingPolicy::Always] {
                let got = flatdd::simulate(&c, FlatDdConfig {
                    threads,
                    flat_shards,
                    conversion: ConversionPolicy::Immediate,
                    caching,
                    fusion,
                    ..Default::default()
                });
                let d = state_distance(&got, &want);
                prop_assert!(
                    d < 1e-10 && got.iter().all(|a| a.re.is_finite() && a.im.is_finite()),
                    "{fusion:?} {caching:?} threads={threads} shards={flat_shards}: {d:e}"
                );
            }
        }
    }

    #[test]
    fn unitarity_holds_on_random_circuits(c in arb_circuit(6, 60)) {
        let got = flatdd::simulate(&c, FlatDdConfig { threads: 2, ..Default::default() });
        prop_assert!((norm_sqr(&got) - 1.0).abs() < 1e-7);
    }

    #[test]
    fn dd_round_trip_from_array(v in arb_state(5)) {
        let pkg = DdPackage::default();
        let e = pkg.vector_from_slice(&v);
        let back = pkg.vector_to_array(e, 5);
        prop_assert!(state_distance(&back, &v) < 1e-9);
    }

    #[test]
    fn parallel_conversion_equals_sequential(v in arb_state(6)) {
        let pkg = DdPackage::default();
        let e = pkg.vector_from_slice(&v);
        let seq = pkg.vector_to_array(e, 6);
        for t in [1usize, 2, 4] {
            let pool = ThreadPool::new(t);
            let par = flatdd::dd_to_array_parallel(&pkg, e, 6, &pool);
            prop_assert!(state_distance(&par, &seq) < 1e-10, "t={t}");
        }
    }

    #[test]
    fn normalization_is_canonical_under_global_scaling(
        v in arb_state(4),
        scale_re in 0.1f64..2.0,
        scale_im in -2.0f64..2.0,
    ) {
        // Skip near-zero vectors: nothing to share.
        prop_assume!(norm_sqr(&v) > 1e-6);
        let w = Complex64::new(scale_re, scale_im);
        let scaled: Vec<Complex64> = v.iter().map(|&x| x * w).collect();
        let pkg = DdPackage::default();
        let e1 = pkg.vector_from_slice(&v);
        let e2 = pkg.vector_from_slice(&scaled);
        prop_assert_eq!(e1.n, e2.n, "scaled copies must share the DD node");
    }

    #[test]
    fn dd_addition_is_commutative(a in arb_state(4), b in arb_state(4)) {
        let pkg = DdPackage::default();
        let ea = pkg.vector_from_slice(&a);
        let eb = pkg.vector_from_slice(&b);
        let ab = pkg.add_vectors(ea, eb);
        let ba = pkg.add_vectors(eb, ea);
        let x = pkg.vector_to_array(ab, 4);
        let y = pkg.vector_to_array(ba, 4);
        prop_assert!(state_distance(&x, &y) < 1e-9);
    }

    #[test]
    fn dmav_equals_dense_matvec_on_random_gate(
        v in arb_state(5),
        target in 0usize..5,
        theta in -3.0f64..3.0,
    ) {
        let g = Gate::new(GateKind::U(theta, theta * 0.5, -theta), target);
        let pkg = DdPackage::default();
        let m = pkg.gate_dd(&g, 5);
        let pool = ThreadPool::new(2);
        let mut w = vec![Complex64::ZERO; 32];
        flatdd::dmav(&pkg, m, &v, &mut w, &pool);
        let mut want = v.clone();
        dense::apply_gate(&mut want, &g);
        prop_assert!(state_distance(&w, &want) < 1e-9);
    }
}
