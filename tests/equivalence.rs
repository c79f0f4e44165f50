//! Equivalence-checking integration tests: DD-based verification against
//! semantic ground truth across crates.

use qcircuit::{generators, Circuit};
use qdd::{check_equivalence, unitaries_equal, Equivalence};

#[test]
fn generator_families_are_self_equivalent() {
    for c in [
        generators::ghz(6),
        generators::qft(5),
        generators::w_state(5),
        generators::grover(4, 7, Some(1)),
        generators::dnn(5, 2, 3),
    ] {
        assert_eq!(
            check_equivalence(&c, &c.clone()),
            Equivalence::Equal,
            "{}",
            c.name()
        );
    }
}

#[test]
fn qft_dagger_qft_is_identity() {
    let n = 5;
    let mut c = generators::qft(n);
    c.extend(&generators::qft(n).dagger());
    let empty = Circuit::new(n);
    assert!(check_equivalence(&c, &empty).is_equivalent());
}

#[test]
fn different_random_circuits_are_inequivalent() {
    let a = generators::random_circuit(5, 30, 1);
    let b = generators::random_circuit(5, 30, 2);
    assert_eq!(check_equivalence(&a, &b), Equivalence::NotEqual);
}

#[test]
fn gate_commutation_rewrites_verify() {
    // Disjoint-qubit gates commute.
    let mut a = Circuit::new(4);
    a.h(0).t(2).cx(1, 3).ry(0.4, 0);
    let mut b = Circuit::new(4);
    b.cx(1, 3).h(0).ry(0.4, 0).t(2);
    assert_eq!(check_equivalence(&a, &b), Equivalence::Equal);
}

#[test]
fn cz_is_symmetric_but_cx_is_not() {
    let mut a = Circuit::new(2);
    a.cz(0, 1);
    let mut b = Circuit::new(2);
    b.cz(1, 0);
    assert_eq!(check_equivalence(&a, &b), Equivalence::Equal);

    let mut a = Circuit::new(2);
    a.cx(0, 1);
    let mut b = Circuit::new(2);
    b.cx(1, 0);
    assert_eq!(check_equivalence(&a, &b), Equivalence::NotEqual);
}

#[test]
fn equivalence_agrees_with_dense_unitaries() {
    // Cross-validate the DD checker against dense matrix comparison on
    // random pairs (some equal by construction, some perturbed).
    use qcircuit::dense;
    for seed in [3u64, 4, 5] {
        let a = generators::random_circuit(4, 25, seed);
        let mut b = a.clone();
        if seed % 2 == 1 {
            b.t(2); // perturb odd seeds
        }
        let verdict = check_equivalence(&a, &b);
        // Dense ground truth.
        let dim = 1usize << 4;
        let mut ua = vec![qcircuit::Complex64::ZERO; dim * dim];
        let mut ub = ua.clone();
        for col in 0..dim {
            let mut va = dense::basis_state(4, col);
            for g in a.iter() {
                dense::apply_gate(&mut va, g);
            }
            let mut vb = dense::basis_state(4, col);
            for g in b.iter() {
                dense::apply_gate(&mut vb, g);
            }
            for row in 0..dim {
                ua[row * dim + col] = va[row];
                ub[row * dim + col] = vb[row];
            }
        }
        let dense_equal = ua.iter().zip(&ub).all(|(&x, &y)| x.approx_eq(y, 1e-9));
        assert_eq!(
            verdict.is_equivalent() && verdict == Equivalence::Equal,
            dense_equal,
            "seed {seed}"
        );
    }
}

#[test]
fn unitaries_equal_and_miter_agree() {
    let pairs = [
        (generators::ghz(4), generators::ghz(4)),
        (generators::qft(4), generators::random_circuit(4, 20, 9)),
    ];
    for (a, b) in pairs {
        let v1 = check_equivalence(&a, &b);
        let v2 = unitaries_equal(&a, &b);
        assert_eq!(v1.is_equivalent(), v2.is_equivalent());
    }
}

#[test]
fn qasm_round_trip_preserves_equivalence_up_to_phase() {
    let c = generators::random_circuit(4, 30, 77);
    let qasm = qcircuit::qasm::to_qasm(&c).unwrap();
    let parsed = qcircuit::parse_qasm(&qasm).unwrap();
    assert!(check_equivalence(&c, &parsed).is_equivalent());
}
