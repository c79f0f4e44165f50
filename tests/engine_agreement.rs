//! Cross-engine agreement: for every benchmark family and a grid of
//! configurations, the three engines (FlatDD, the DDSIM-equivalent DD
//! engine, the Quantum++-equivalent array engine) and the dense reference
//! must produce the same final state.

use flatdd::{ConversionPolicy, EwmaConfig, FlatDdConfig, FusionPolicy};
use qcircuit::complex::state_distance;
use qcircuit::{dense, generators, Circuit};

const TOL: f64 = 1e-8;

fn families(n: usize, seed: u64) -> Vec<Circuit> {
    vec![
        generators::ghz(n),
        generators::adder_n(if n.is_multiple_of(2) { n } else { n + 1 }),
        generators::qft(n),
        generators::w_state(n),
        generators::dnn(n, 2, seed),
        generators::vqe(n, 2, seed),
        generators::knn((n - 1) / 2, seed),
        generators::swap_test((n - 1) / 2, seed),
        generators::supremacy_n(n, 6, seed),
        generators::supremacy_fsim(2, n.div_ceil(2), 5, seed),
        generators::grover(n.min(6), 3, Some(1)),
        generators::random_circuit(n, 10 * n, seed),
    ]
}

#[test]
fn four_engines_agree_on_every_family() {
    for c in families(7, 11) {
        let want = dense::simulate(&c);
        let dd = qdd::sim::simulate(&c);
        assert!(
            state_distance(&dd, &want) < TOL,
            "dd vs dense on {}",
            c.name()
        );
        let ar = qarray::simulate_with_threads(&c, 4);
        assert!(
            state_distance(&ar, &want) < TOL,
            "array vs dense on {}",
            c.name()
        );
        let fd = flatdd::simulate(
            &c,
            FlatDdConfig {
                threads: 4,
                ..Default::default()
            },
        );
        assert!(
            state_distance(&fd, &want) < TOL,
            "flatdd vs dense on {}",
            c.name()
        );
    }
}

#[test]
fn flatdd_thread_grid_agrees() {
    let c = generators::supremacy_n(8, 8, 3);
    let want = dense::simulate(&c);
    for threads in [1usize, 2, 4, 8, 16] {
        let got = flatdd::simulate(
            &c,
            FlatDdConfig {
                threads,
                ..Default::default()
            },
        );
        assert!(state_distance(&got, &want) < TOL, "threads={threads}");
    }
}

#[test]
fn flatdd_policy_grid_agrees() {
    let c = generators::dnn(7, 2, 17);
    let want = dense::simulate(&c);
    let conversions = [
        ConversionPolicy::Ewma(EwmaConfig::default()),
        ConversionPolicy::Ewma(EwmaConfig {
            beta: 0.5,
            epsilon: 1.5,
            min_size: 8,
        }),
        ConversionPolicy::AtGate(3),
        ConversionPolicy::AtGate(1000),
        ConversionPolicy::Immediate,
        ConversionPolicy::Never,
    ];
    let fusions = [
        FusionPolicy::None,
        FusionPolicy::DmavAware,
        FusionPolicy::KOperations(3),
    ];
    for conversion in conversions {
        for fusion in fusions {
            let cfg = FlatDdConfig {
                threads: 2,
                conversion,
                fusion,
                ..Default::default()
            };
            let got = flatdd::simulate(&c, cfg);
            assert!(
                state_distance(&got, &want) < TOL,
                "{conversion:?} / {fusion:?}"
            );
        }
    }
}

#[test]
fn adder_computes_sums_in_every_engine() {
    // Functional check with classical semantics: the Cuccaro adder must add.
    let k = 3;
    let c = generators::adder(k, 5, 6);
    // 5 + 6 = 11 = 3 mod 8 with carry-out 1.
    let expect_b = 3u64;
    let expect_carry = 1u64;
    let check = |state: &[qcircuit::Complex64], tag: &str| {
        let idx = state
            .iter()
            .enumerate()
            .max_by(|(_, x), (_, y)| x.norm_sqr().total_cmp(&y.norm_sqr()))
            .unwrap()
            .0;
        let mut b_out = 0u64;
        for i in 0..k {
            b_out |= (((idx >> (2 * i + 2)) & 1) as u64) << i;
        }
        assert_eq!(b_out, expect_b, "{tag}: wrong sum bits");
        assert_eq!(
            ((idx >> (2 * k + 1)) & 1) as u64,
            expect_carry,
            "{tag}: wrong carry"
        );
    };
    check(&qdd::sim::simulate(&c), "dd");
    check(&qarray::simulate_with_threads(&c, 2), "array");
    check(
        &flatdd::simulate(
            &c,
            FlatDdConfig {
                threads: 2,
                ..Default::default()
            },
        ),
        "flatdd",
    );
}

#[test]
fn deep_circuit_agreement_with_mid_run_conversion() {
    // Long enough that GC, conversion, and hundreds of DMAVs all trigger.
    let n = 8;
    let c = generators::supremacy_n(n, 40, 9);
    assert!(c.num_gates() > 400);
    let want = qarray::simulate_with_threads(&c, 1);
    let got = flatdd::simulate(
        &c,
        FlatDdConfig {
            threads: 4,
            ..Default::default()
        },
    );
    assert!(state_distance(&got, &want) < 1e-7);
}

#[test]
fn grover_probability_consistent_across_engines() {
    let n = 8;
    let marked = 173;
    let c = generators::grover(n, marked, None);
    let p_dd = qdd::sim::simulate(&c)[marked].norm_sqr();
    let p_ar = qarray::simulate(&c)[marked].norm_sqr();
    let p_fd = flatdd::simulate(
        &c,
        FlatDdConfig {
            threads: 2,
            ..Default::default()
        },
    )[marked]
        .norm_sqr();
    assert!(p_dd > 0.9);
    assert!((p_dd - p_ar).abs() < 1e-9);
    assert!((p_dd - p_fd).abs() < 1e-9);
}
