//! OpenQASM 2.0 runner: parse a file (or a built-in demo program) and
//! simulate it with a chosen engine.
//!
//! ```text
//! cargo run --release --example qasm_runner [-- <file.qasm> [flatdd|dd|array]]
//! ```

use flatdd::FlatDdConfig;
use qcircuit::qasm;

const DEMO: &str = r#"
OPENQASM 2.0;
include "qelib1.inc";
// Hidden-shift-flavoured demo: entangle, phase, disentangle.
qreg q[8];
creg c[8];
gate layer a, b { h a; h b; cz a, b; t a; tdg b; }
h q;
layer q[0], q[1];
layer q[2], q[3];
layer q[4], q[5];
layer q[6], q[7];
cx q[0], q[4];
cx q[1], q[5];
rz(pi/8) q[4];
rz(-pi/8) q[5];
h q;
measure q -> c;
"#;

fn main() {
    let mut args = std::env::args().skip(1);
    let source = match args.next() {
        Some(path) => {
            println!("parsing {path}");
            std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            })
        }
        None => {
            println!("no file given — running the built-in demo program");
            DEMO.to_string()
        }
    };
    let engine = args.next().unwrap_or_else(|| "flatdd".into());

    let (circuit, measurements) = match qasm::parse_qasm_full(&source) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    println!(
        "parsed: {} qubits, {} gates, depth {} ({} measure statements ignored — this is a strong simulator)",
        circuit.num_qubits(),
        circuit.num_gates(),
        circuit.depth(),
        measurements
    );

    let start = std::time::Instant::now();
    let state = match engine.as_str() {
        "flatdd" => flatdd::simulate(
            &circuit,
            FlatDdConfig {
                threads: 4,
                ..Default::default()
            },
        ),
        "dd" => qdd::sim::simulate(&circuit),
        "array" => qarray::simulate_with_threads(&circuit, 4),
        other => {
            eprintln!("unknown engine `{other}` (use flatdd | dd | array)");
            std::process::exit(2);
        }
    };
    println!(
        "engine {engine}: simulated in {:.3}s",
        start.elapsed().as_secs_f64()
    );

    // Print the measurement distribution's heaviest outcomes.
    println!("\nmost probable outcomes:");
    let width = circuit.num_qubits();
    for (i, a) in qarray::top_amplitudes(&state, 10) {
        let p = a.norm_sqr();
        if p < 1e-9 {
            break;
        }
        println!("  |{i:0width$b}>  p = {p:.4}");
    }
    let norm: f64 = state.iter().map(|a| a.norm_sqr()).sum();
    println!("\nnorm check: {norm:.12}");
}
