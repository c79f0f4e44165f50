//! End-to-end OpenQASM pipeline: parse realistic QASMBench-style programs
//! and verify the simulated semantics across engines.

use flatdd::FlatDdConfig;
use qcircuit::complex::state_distance;
use qcircuit::{dense, parse_qasm};

const BELL: &str = r#"
OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q[0] -> c[0];
measure q[1] -> c[1];
"#;

/// A QASMBench-flavoured program with custom gate definitions, parameter
/// arithmetic, broadcasting, and barriers.
const FANCY: &str = r#"
OPENQASM 2.0;
include "qelib1.inc";
qreg in[3];
qreg anc[2];
creg c[5];
gate majority a, b, c { cx c, b; cx c, a; ccx a, b, c; }
gate phase_kick(theta) a, b { cu1(theta/2) a, b; cx a, b; cu1(-theta/2) a, b; cx a, b; }
h in;
barrier in;
x anc[0];
majority in[0], in[1], in[2];
phase_kick(pi/3) anc[0], anc[1];
u2(0, pi) anc[1];
u3(pi/7, -pi/5, pi/9) in[1];
rz(2*pi/8 + 0.125) in[2];
swap in[0], anc[1];
cswap anc[0], in[0], in[1];
barrier in, anc;
measure in[0] -> c[0];
"#;

const GHZ5: &str = r#"
OPENQASM 2.0;
include "qelib1.inc";
qreg q[5];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
cx q[2],q[3];
cx q[3],q[4];
"#;

#[test]
fn bell_state_through_all_engines() {
    let c = parse_qasm(BELL).unwrap();
    let want = dense::simulate(&c);
    assert!((want[0].norm_sqr() - 0.5).abs() < 1e-12);
    assert!((want[3].norm_sqr() - 0.5).abs() < 1e-12);
    assert!(state_distance(&qdd::sim::simulate(&c), &want) < 1e-10);
    assert!(state_distance(&qarray::simulate(&c), &want) < 1e-10);
    let fd = flatdd::simulate(
        &c,
        FlatDdConfig {
            threads: 1,
            ..Default::default()
        },
    );
    assert!(state_distance(&fd, &want) < 1e-10);
}

#[test]
fn fancy_program_parses_and_engines_agree() {
    let c = parse_qasm(FANCY).unwrap();
    assert_eq!(c.num_qubits(), 5);
    assert!(c.num_gates() > 15, "macro expansion must inline bodies");
    let want = dense::simulate(&c);
    assert!(state_distance(&qdd::sim::simulate(&c), &want) < 1e-9);
    assert!(state_distance(&qarray::simulate_with_threads(&c, 2), &want) < 1e-9);
    let fd = flatdd::simulate(
        &c,
        FlatDdConfig {
            threads: 2,
            ..Default::default()
        },
    );
    assert!(state_distance(&fd, &want) < 1e-9);
}

#[test]
fn ghz_qasm_matches_generator() {
    let parsed = parse_qasm(GHZ5).unwrap();
    let generated = qcircuit::generators::ghz(5);
    let a = dense::simulate(&parsed);
    let b = dense::simulate(&generated);
    assert!(state_distance(&a, &b) < 1e-12);
}

/// The families `flatdd-cli list` names.
fn listed_families() -> Vec<String> {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_flatdd-cli"))
        .arg("list")
        .output()
        .expect("flatdd-cli list runs");
    let text = String::from_utf8(out.stdout).unwrap();
    text.lines()
        .skip(1)
        .filter_map(|l| l.trim_start().split_once(':').map(|(f, _)| f.to_string()))
        .collect()
}

#[test]
fn generator_to_qasm_to_engines_round_trip() {
    // Every listed family, at 7 qubits (families round to their own
    // shape) with its default parameters: written exactly, up to global
    // phase, or refused at a gate OpenQASM 2.0 cannot write.
    let families = listed_families();
    assert!(families.len() >= 16, "{families:?}");
    let mut refused = Vec::new();
    for family in &families {
        let c = qcircuit::generators::from_spec(&format!("{family}:7"), 5).unwrap();
        let qasm = match qcircuit::qasm::to_qasm(&c) {
            Ok(qasm) => qasm,
            Err(e) => {
                let gate = &c.gates()[e.index];
                assert!(
                    gate.controls.len() > 2 || gate.controls.iter().any(|k| !k.positive),
                    "{family}: refused {e}"
                );
                refused.push(family.as_str());
                continue;
            }
        };
        assert!(
            qasm.lines().all(|l| !l.trim_start().starts_with("//")),
            "{family}: a comment line"
        );
        let parsed = parse_qasm(&qasm).unwrap_or_else(|e| panic!("{family}: {e}"));
        assert_eq!(parsed.num_gates(), c.num_gates(), "{family}");
        let want = dense::simulate(&c);
        let got = flatdd::simulate(
            &parsed,
            FlatDdConfig {
                threads: 2,
                ..Default::default()
            },
        );
        // An uncontrolled gate may be written with another global phase.
        let d = qcircuit::complex::state_distance_up_to_phase(&got, &want);
        assert!(d < 1e-12, "{family}: {d:e}");
    }
    assert_eq!(refused, ["grover"], "multi-controlled Z has no qelib1 form");
}

#[test]
fn file_round_trip_via_tempfile() {
    let dir = std::env::temp_dir();
    let path = dir.join("flatdd_test_ghz.qasm");
    std::fs::write(&path, GHZ5).unwrap();
    let src = std::fs::read_to_string(&path).unwrap();
    let c = parse_qasm(&src).unwrap();
    assert_eq!(c.num_qubits(), 5);
    std::fs::remove_file(&path).ok();
}
