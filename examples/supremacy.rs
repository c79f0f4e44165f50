//! Random-circuit sampling (quantum-supremacy style, Arute et al. 2019).
//!
//! Simulates a 4x4-grid random circuit with FlatDD, reports where the
//! EWMA-triggered DD-to-DMAV conversion happened, and checks that the
//! output distribution approaches the Porter-Thomas shape expected of a
//! chaotic quantum circuit (mean of `D * p` near 1, second moment near 2).
//!
//! ```text
//! cargo run --release --example supremacy [-- <cycles>]
//! ```

use flatdd::{FlatDdConfig, FlatDdSimulator};
use qcircuit::generators;

fn main() {
    let cycles: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(14);
    let (rows, cols) = (4usize, 4usize);
    let n = rows * cols;
    let circuit = generators::supremacy(rows, cols, cycles, 2024);
    println!(
        "supremacy-style circuit: {rows}x{cols} grid ({n} qubits), {cycles} cycles, {} gates",
        circuit.num_gates()
    );

    let mut sim = FlatDdSimulator::new(
        n,
        FlatDdConfig {
            threads: 4,
            trace: true,
            ..Default::default()
        },
    );
    let start = std::time::Instant::now();
    sim.run(&circuit).unwrap();
    let elapsed = start.elapsed().as_secs_f64();
    let stats = sim.stats();
    println!(
        "simulated in {elapsed:.3}s — converted to DMAV after gate {:?}",
        stats.converted_at
    );
    println!(
        "DD-phase gates: {}, DMAVs: {}, peak state-DD: {} nodes",
        stats.gates_dd, stats.gates_dmav, stats.peak_state_dd_size
    );

    // Porter-Thomas check: for a chaotic circuit the scaled probabilities
    // x = D * p follow Exp(1): E[x] = 1 (exact), E[x^2] -> 2.
    let state = sim.amplitudes();
    let d = state.len() as f64;
    let xs: Vec<f64> = state.iter().map(|a| a.norm_sqr() * d).collect();
    let mean = xs.iter().sum::<f64>() / d;
    let m2 = xs.iter().map(|x| x * x).sum::<f64>() / d;
    println!(
        "\nPorter-Thomas statistics over {} amplitudes:",
        state.len()
    );
    println!("  E[D*p]   = {mean:.6} (exactly 1 by normalization)");
    println!("  E[(D*p)^2] = {m2:.4} (→ 2 for a fully scrambled circuit)");

    // Top-8 heavy outputs (what a sampling experiment would see most).
    println!("\nheaviest bitstrings:");
    for (i, a) in sim.top_amplitudes(8) {
        println!("  |{i:0n$b}>  p = {:.3e}", a.norm_sqr());
    }

    // Weak-simulation mode: draw samples and estimate the linear
    // cross-entropy benchmark fidelity F_XEB = D * <p(sampled)> - 1
    // (equals 1 in expectation for a perfect simulator of a chaotic
    // circuit, 0 for the uniform distribution).
    let shots = 4000;
    let mut rng = qdd::SplitMix64::new(7);
    let counts = sim.sample_counts(shots, &mut rng.as_fn());
    let mean_p: f64 = counts
        .iter()
        .map(|&(i, cnt)| state[i].norm_sqr() * cnt as f64)
        .sum::<f64>()
        / shots as f64;
    let f_xeb = d * mean_p - 1.0;
    println!("\nlinear XEB over {shots} samples: F = {f_xeb:.3} (perfect simulation: ~1)");
}
