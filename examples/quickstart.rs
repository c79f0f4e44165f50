//! Quickstart: build a circuit, run it through FlatDD, inspect the result.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use flatdd::{FlatDdConfig, FlatDdSimulator, Phase};
use qcircuit::Circuit;

fn main() {
    // A 12-qubit GHZ state: H on qubit 0, then a CNOT chain.
    let n = 12;
    let mut circuit = Circuit::named(n, "quickstart_ghz");
    circuit.h(0);
    for q in 1..n {
        circuit.cx(q - 1, q);
    }

    // FlatDD with 4 worker threads and default (paper) parameters:
    // beta = 0.9, epsilon = 2, cost-model-driven DMAV caching.
    let mut sim = FlatDdSimulator::new(
        n,
        FlatDdConfig {
            threads: 4,
            ..Default::default()
        },
    );
    sim.run(&circuit).unwrap();

    println!("circuit : {} qubits, {} gates", n, circuit.num_gates());
    println!(
        "phase   : {:?} (GHZ stays regular, so FlatDD never leaves the DD phase)",
        sim.phase()
    );
    assert_eq!(sim.phase(), Phase::Dd);

    // Amplitudes can be queried individually (cheap on a DD)...
    let a0 = sim.amplitude(0);
    let a_all = sim.amplitude((1 << n) - 1);
    println!("<00..0|psi> = {a0:.6}");
    println!("<11..1|psi> = {a_all:.6}");

    // ...or read out as a full state vector.
    let state = sim.amplitudes();
    let nonzero = state.iter().filter(|a| a.norm_sqr() > 1e-12).count();
    println!("non-zero amplitudes: {nonzero} (expected 2 for GHZ)");

    // Now something irregular: a few layers of a parameterized ansatz makes
    // the DD blow up, and FlatDD converts to flat-array DMAV mid-circuit.
    let irregular = qcircuit::generators::dnn(n, 3, 42);
    let mut sim2 = FlatDdSimulator::new(
        n,
        FlatDdConfig {
            threads: 4,
            ..Default::default()
        },
    );
    sim2.run(&irregular).unwrap();
    let stats = sim2.stats();
    println!(
        "\nirregular circuit ({} gates): phase = {:?}, converted after gate {:?}",
        irregular.num_gates(),
        sim2.phase(),
        stats.converted_at
    );
    println!(
        "gates in DD phase: {}, DMAVs: {}",
        stats.gates_dd, stats.gates_dmav
    );
    let norm: f64 = sim2.amplitudes().iter().map(|a| a.norm_sqr()).sum();
    println!("state norm check: {norm:.12} (must be 1)");
}
