//! Workspace-level checks of the tooling layer: DD serialization through
//! the FlatDD pipeline, DOT export on simulation states, gate census, and
//! QASM parser edge cases.

use flatdd::{FlatDdConfig, FlatDdSimulator};
use qcircuit::complex::state_distance;
use qcircuit::{generators, parse_qasm};
use qdd::serialize::{vector_dd_from_bytes, vector_dd_to_bytes};
use qdd::{DdPackage, DdSimulator};

#[test]
fn checkpoint_and_resume_a_simulation() {
    // Run half a circuit, serialize the state DD, load it elsewhere, run
    // the rest: must equal the uninterrupted run.
    let n = 8;
    let c = generators::qft(n);
    let half = c.num_gates() / 2;

    let mut first = DdSimulator::new(n);
    for g in c.gates().iter().take(half) {
        first.apply(g);
    }
    let bytes = vector_dd_to_bytes(first.package(), first.state(), n).unwrap();

    // "Resume" in a brand-new package.
    let mut pkg = DdPackage::default();
    let (mut state, n2) = vector_dd_from_bytes(&mut pkg, &bytes).unwrap();
    assert_eq!(n2, n);
    for g in c.gates().iter().skip(half) {
        state = pkg.apply_gate(state, g, n);
    }
    let resumed = pkg.vector_to_array(state, n);
    let reference = qdd::sim::simulate(&c);
    assert!(state_distance(&resumed, &reference) < 1e-9);
}

#[test]
fn serialized_states_feed_the_array_engine() {
    // DD checkpoint -> flat array -> array engine continues.
    let n = 7;
    let c = generators::w_state(n);
    let mut sim = DdSimulator::new(n);
    sim.run(&c);
    let bytes = vector_dd_to_bytes(sim.package(), sim.state(), n).unwrap();
    let mut pkg = DdPackage::default();
    let (state, _) = vector_dd_from_bytes(&mut pkg, &bytes).unwrap();
    let flat = pkg.vector_to_array(state, n);
    let mut arr = qarray::ArraySimulator::from_state(flat, 2);
    arr.run(&{
        let mut tail = qcircuit::Circuit::new(n);
        tail.h(0).cx(0, 1);
        tail
    });
    assert!((arr.norm_sqr() - 1.0).abs() < 1e-9);
}

#[test]
fn dot_export_works_on_live_simulation_states() {
    let mut sim = FlatDdSimulator::new(
        6,
        FlatDdConfig {
            threads: 1,
            ..Default::default()
        },
    );
    sim.run(&generators::w_state(6)).unwrap();
    // W state stays in the DD phase; package + a fresh DD of its amplitudes
    // render to DOT.
    let amps = sim.amplitudes();
    let pkg = DdPackage::default();
    let e = pkg.vector_from_slice(&amps);
    let dot = qdd::dot::vector_to_dot(&pkg, e, "wstate");
    assert!(dot.contains("digraph wstate"));
    assert!(dot.matches("->").count() > 6);
}

#[test]
fn census_reflects_generator_structure() {
    let c = generators::supremacy_n(8, 10, 3);
    let census = c.gate_census();
    let get = |k: &str| {
        census
            .iter()
            .find(|(n, _)| n == k)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    assert_eq!(get("h"), 8, "one initial H per qubit");
    assert!(get("cz") > 0);
    assert!(
        get("sx") + get("sy") + get("t") == 10 * 8,
        "one 1q gate per qubit per cycle"
    );
}

#[test]
fn qasm_edge_cases() {
    // Unterminated string.
    assert!(parse_qasm("include \"qelib1.inc;\nqreg q[1];").is_err());
    // Register size zero.
    assert!(parse_qasm("qreg q[0];").is_err());
    // Duplicate register.
    assert!(parse_qasm("qreg q[2]; qreg q[3];").is_err());
    // Opaque rejected.
    assert!(parse_qasm("qreg q[1]; opaque magic a;").is_err());
    // Gate bodies may not index registers.
    assert!(parse_qasm("qreg q[2]; gate bad a { cx a, q[0]; } bad q[1];").is_err());
    // Broadcast mismatch.
    assert!(parse_qasm("qreg a[2]; qreg b[3]; cx a, b;").is_err());
    // Deep-but-finite nesting is fine; a recursive definition errors out.
    assert!(parse_qasm("qreg q[1]; gate loop a { loop a; } loop q[0];").is_err());
    // Whitespace/comment-only program parses to an empty circuit over 1 qubit.
    let c = parse_qasm("// nothing\nqreg q[1];").unwrap();
    assert_eq!(c.num_gates(), 0);
}

#[test]
fn equivalence_checking_validates_peephole_on_qasm_inputs() {
    let src = qcircuit::qasm::to_qasm(&generators::qft(5)).unwrap();
    let parsed = parse_qasm(&src).unwrap();
    let optimized = qcircuit::transform::peephole_optimize(&parsed);
    assert!(qdd::check_equivalence(&parsed, &optimized).is_equivalent());
}
