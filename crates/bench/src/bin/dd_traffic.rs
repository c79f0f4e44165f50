//! DD memory against DD traffic: circuits whose state DDs are far larger
//! than the benchmark spine's, pinned to the DD phase, next to the spine's
//! two DD workloads. Per circuit: the fastest of `--reps` runs (a fresh
//! simulator each, one thread), and from the last run the accounted DD
//! memory, peak live nodes, interned values, sweeps and compute-table hit
//! rates — what shows whether small compute tables and swept weights cost
//! time where the DD is big.
//!
//! ```text
//! dd_traffic [--reps N]
//! ```

use flatdd::{ConversionPolicy, FlatDdConfig, FlatDdSimulator};
use flatdd_bench::{machine_header, Table};
use qcircuit::rng::SplitMix64;
use qcircuit::{generators, Circuit};
use std::time::Instant;

/// `reps` back-to-back `k`-bit additions of random operands (the shape of
/// the spine's `adder_dd`: a basis state through tens of thousands of
/// microsecond gates).
fn adders(k: usize, reps: usize, seed: u64) -> Circuit {
    let mut rng = SplitMix64::new(seed);
    let mut c = Circuit::named(2 * k + 2, format!("adder_{k}x{reps}"));
    for _ in 0..reps {
        let (a, b) = (rng.next_u64() >> (64 - k), rng.next_u64() >> (64 - k));
        c.extend(&generators::adder(k, a, b));
    }
    c
}

fn workloads() -> Vec<(&'static str, Circuit)> {
    vec![
        ("grover_16", generators::grover(16, 43690, Some(100))),
        ("dnn_12x8", generators::dnn(12, 8, 7)),
        ("supremacy_16x10", generators::supremacy_n(16, 10, 1)),
        ("supremacy_12x10", generators::supremacy_n(12, 10, 1)),
        ("adder_6x1000", adders(6, 1000, 1)),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let reps: usize = args
        .iter()
        .position(|a| a == "--reps")
        .and_then(|at| args.get(at + 1)?.parse().ok())
        .unwrap_or(5);
    println!("{}", machine_header());
    let mut table = Table::new(vec![
        "circuit",
        "gates",
        "wall_s",
        "dd_mib",
        "peak_nodes",
        "values",
        "sweeps",
        "mv_hit",
        "add_hit",
    ]);
    for (name, c) in workloads() {
        let cfg = FlatDdConfig {
            conversion: ConversionPolicy::Never,
            threads: 1,
            flat_shards: 1,
            ..FlatDdConfig::default()
        };
        let mut best = f64::INFINITY;
        let mut last = None;
        for _ in 0..reps {
            let mut sim = FlatDdSimulator::new(c.num_qubits(), cfg);
            let t0 = Instant::now();
            sim.run(&c).expect("an unbudgeted DD-phase run completes");
            best = best.min(t0.elapsed().as_secs_f64());
            last = Some(sim);
        }
        let sim = last.expect("at least one repetition");
        let (pkg, stats) = (sim.package().stats(), sim.stats());
        table.row(vec![
            name.to_string(),
            c.num_gates().to_string(),
            format!("{best:.4}"),
            format!("{:.2}", pkg.memory_bytes as f64 / (1u64 << 20) as f64),
            (pkg.peak_v_nodes + pkg.peak_m_nodes).to_string(),
            pkg.complex_values.to_string(),
            sim.package().gc_epoch().to_string(),
            format!("{:.3}", stats.ct_mv_hit_rate),
            format!("{:.3}", stats.ct_add_hit_rate),
        ]);
    }
    table.print();
}
