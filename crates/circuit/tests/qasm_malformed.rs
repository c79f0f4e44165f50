//! Table-driven fuzz-adjacent coverage of the OpenQASM parser: every
//! malformed input here must come back as a `QasmError` (with a sane line
//! number), never a panic, hang, or stack overflow. These shapes mirror
//! what real-world truncated downloads and adversarial files look like.

use qcircuit::qasm::{parse_qasm, parse_qasm_full};

/// (label, source) pairs that must all produce `Err(QasmError)`.
fn malformed_inputs() -> Vec<(&'static str, String)> {
    let deep_parens = format!(
        "OPENQASM 2.0;\nqreg q[1];\nrz({}1.0{}) q[0];\n",
        "(".repeat(20_000),
        ")".repeat(20_000)
    );
    let deep_unary = format!(
        "OPENQASM 2.0;\nqreg q[1];\nrz({}1.0) q[0];\n",
        "-".repeat(50_000)
    );
    let deep_pow = format!(
        "OPENQASM 2.0;\nqreg q[1];\nrz(2{}) q[0];\n",
        " ^ 2".repeat(20_000)
    );
    let deep_calls = format!(
        "OPENQASM 2.0;\nqreg q[1];\nrz({}0.5{}) q[0];\n",
        "sin(".repeat(20_000),
        ")".repeat(20_000)
    );
    vec![
        ("truncated header", "OPENQASM".into()),
        ("header missing version", "OPENQASM ;\nqreg q[1];".into()),
        (
            "truncated mid-statement",
            "OPENQASM 2.0;\nqreg q[2];\nh q[".into(),
        ),
        (
            "truncated mid-gate-def",
            "OPENQASM 2.0;\nqreg q[1];\ngate foo a { h a".into(),
        ),
        (
            "unterminated include string",
            "OPENQASM 2.0;\ninclude \"qelib1.inc;\nqreg q[1];".into(),
        ),
        (
            "unterminated string at EOF",
            "OPENQASM 2.0;\ninclude \"qelib1.inc".into(),
        ),
        (
            "index out of register range",
            "OPENQASM 2.0;\nqreg q[3];\nh q[3];".into(),
        ),
        (
            "index far out of range",
            "OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[4095];".into(),
        ),
        (
            "unknown register",
            "OPENQASM 2.0;\nqreg q[2];\nh r[0];".into(),
        ),
        (
            "unknown gate",
            "OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];".into(),
        ),
        (
            "missing semicolon",
            "OPENQASM 2.0;\nqreg q[2]\nh q[0];".into(),
        ),
        (
            "negative register size",
            "OPENQASM 2.0;\nqreg q[-2];\nh q[0];".into(),
        ),
        (
            "garbage bytes",
            "\u{0}\u{1}\u{2} not qasm at all %%%".into(),
        ),
        (
            "expression where operand expected",
            "OPENQASM 2.0;\nqreg q[1];\nh 1.5;".into(),
        ),
        (
            "dangling binary operator",
            "OPENQASM 2.0;\nqreg q[1];\nrz(1.0 + ) q[0];".into(),
        ),
        (
            "recursive gate definition",
            "OPENQASM 2.0;\nqreg q[1];\ngate loop a { loop a; }\nloop q[0];".into(),
        ),
        (
            "parameter 0/0",
            "OPENQASM 2.0;\nqreg q[2];\nrx(0/0) q[1];".into(),
        ),
        (
            "parameter overflowing to infinity",
            "OPENQASM 2.0;\nqreg q[2];\nrx(1e308*10) q[1];".into(),
        ),
        (
            "parameter ln(0)",
            "OPENQASM 2.0;\nqreg q[1];\nu1(ln(0)) q[0];".into(),
        ),
        (
            "non-finite parameter inside a custom gate body",
            "OPENQASM 2.0;\nqreg q[1];\ngate g(t) a { rz(t/0) a; }\ng(1) q[0];".into(),
        ),
        ("deeply nested parens", deep_parens),
        ("deep unary chain", deep_unary),
        ("deep pow chain", deep_pow),
        ("deep function-call nest", deep_calls),
    ]
}

#[test]
fn malformed_sources_error_without_panicking() {
    for (label, src) in malformed_inputs() {
        let res = parse_qasm(&src);
        let err = match res {
            Err(e) => e,
            Ok(c) => panic!(
                "{label}: expected QasmError, parsed {} gates",
                c.num_gates()
            ),
        };
        assert!(
            !err.message.is_empty(),
            "{label}: error must carry a message"
        );
        assert!(err.line >= 1, "{label}: line numbers are 1-based");
    }
}

#[test]
fn malformed_sources_error_via_full_parse_too() {
    // `parse_qasm_full` shares the code path but returns measurement info;
    // make sure the error surface is identical.
    for (label, src) in malformed_inputs() {
        assert!(parse_qasm_full(&src).is_err(), "{label}: expected error");
    }
}

#[test]
fn a_non_finite_parameter_is_refused_on_its_gate_line() {
    // In the program (line 4) and in a custom gate's body (line 3).
    for (call, body, line) in [
        ("rx(0/0) q[1]", "rz(t) a", 4),
        ("rx(1e308*10) q[1]", "rz(t) a", 4),
        ("u1(ln(0)) q[1]", "rz(t) a", 4),
        ("g(1) q[1]", "rz(t/0) a", 3),
    ] {
        let src = format!(
            "OPENQASM 2.0;\nqreg q[3];\ngate g(t) a {{ {body}; }}\nh q[0]; {call}; cx q[0], q[1];\n"
        );
        let err = parse_qasm(&src).expect_err(call);
        assert_eq!(err.line, line, "{call} / {body}: {}", err.message);
        assert!(err.message.contains("parameter"), "{call}: {}", err.message);
    }
    // An infinity on the way that ends finite is a legal angle.
    let src = "OPENQASM 2.0;\nqreg q[1];\nrz(1/(1/0)) q[0];\nrz(exp(-1/0)) q[0];\n";
    assert_eq!(parse_qasm(src).expect("finite angles").num_gates(), 2);
}

#[test]
fn boundary_depth_still_parses() {
    // A reasonable nesting depth (well under the guard) must keep working.
    let src = format!(
        "OPENQASM 2.0;\nqreg q[1];\nrz({}0.25{}) q[0];\n",
        "(".repeat(100),
        ")".repeat(100)
    );
    let c = parse_qasm(&src).expect("100 nested parens is legitimate input");
    assert_eq!(c.num_gates(), 1);
}
