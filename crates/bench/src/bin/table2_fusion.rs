//! Table 2: FlatDD with DMAV-aware gate fusion vs FlatDD without fusion vs
//! FlatDD with k-operations \[100\] on the six deep circuits.
//!
//! Expected shape in the paper: DMAV-aware fusion wins both runtime and
//! modeled cost (13.1x / 9.94x vs no fusion, 5.27x / 5.59x vs k-operations
//! in geometric mean). The cost columns are `FlatDdStats::modeled_cost`,
//! the paper's `min(C1, C2)` summed over the DMAVs that ran; fusion itself
//! decides by the walk each product will take (DESIGN.md §2), so it no
//! longer minimizes that sum and the runtime columns are the ones to read.
//! The first line names the machine.

use flatdd::{ConversionPolicy, FlatDdConfig, FlatDdSimulator, FusionPolicy};
use flatdd_bench::{geo_mean, machine_header, HarnessArgs, JsonWriter, Table};
use qcircuit::Circuit;

struct Arm {
    seconds: f64,
    cost: f64,
    matrices: usize,
}

fn run_arm(c: &Circuit, threads: usize, fusion: FusionPolicy) -> Arm {
    let cfg = FlatDdConfig {
        threads,
        fusion,
        // Table 2 studies the DMAV phase: convert right away so all three
        // arms run the same (full) gate list through DMAV.
        conversion: ConversionPolicy::Immediate,
        ..Default::default()
    };
    let mut sim = FlatDdSimulator::new(c.num_qubits(), cfg);
    let start = std::time::Instant::now();
    sim.run(c).expect("benchmark run failed");
    let seconds = start.elapsed().as_secs_f64();
    let st = sim.stats();
    Arm {
        seconds,
        cost: st.modeled_cost,
        matrices: if st.fused_matrices > 0 {
            st.fused_matrices
        } else {
            st.gates_dmav
        },
    }
}

fn main() {
    let args = HarnessArgs::parse();
    let k = 4usize; // the k-operations chunk size
    let workloads = flatdd_bench::suite::deep_workloads(args.scale, args.seed);
    println!("{}", machine_header());
    println!(
        "Table 2 — gate fusion on deep circuits (scale {:.2}, {} threads, k-operations k={k})\n",
        args.scale, args.threads
    );
    let mut table = Table::new(vec![
        "name",
        "n",
        "gates",
        "fused_s",
        "fused_cost",
        "fused_mats",
        "nofuse_s",
        "nofuse_speedup",
        "nofuse_cost_red",
        "kops_s",
        "kops_speedup",
        "kops_cost_red",
    ]);
    let mut json = JsonWriter::new();
    let (mut sp_nf, mut sp_k, mut red_nf, mut red_k) = (vec![], vec![], vec![], vec![]);

    for w in &workloads {
        let c = &w.circuit;
        let fused = run_arm(c, args.threads, FusionPolicy::DmavAware);
        let plain = run_arm(c, args.threads, FusionPolicy::None);
        let kops = run_arm(c, args.threads, FusionPolicy::KOperations(k));
        sp_nf.push(plain.seconds / fused.seconds.max(1e-12));
        sp_k.push(kops.seconds / fused.seconds.max(1e-12));
        red_nf.push(plain.cost / fused.cost.max(1e-12));
        red_k.push(kops.cost / fused.cost.max(1e-12));
        table.row(vec![
            format!("{} ({})", w.family, w.paper_qubits),
            c.num_qubits().to_string(),
            c.num_gates().to_string(),
            format!("{:.3}", fused.seconds),
            format!("{:.2e}", fused.cost),
            fused.matrices.to_string(),
            format!("{:.3}", plain.seconds),
            format!("{:.2}x", plain.seconds / fused.seconds.max(1e-12)),
            format!("{:.2}x", plain.cost / fused.cost.max(1e-12)),
            format!("{:.3}", kops.seconds),
            format!("{:.2}x", kops.seconds / fused.seconds.max(1e-12)),
            format!("{:.2}x", kops.cost / fused.cost.max(1e-12)),
        ]);
        json.record(vec![
            ("family", w.family.into()),
            ("paper_qubits", w.paper_qubits.into()),
            ("qubits", c.num_qubits().into()),
            ("gates", c.num_gates().into()),
            ("fused_seconds", fused.seconds.into()),
            ("fused_cost", fused.cost.into()),
            ("fused_matrices", fused.matrices.into()),
            ("nofusion_seconds", plain.seconds.into()),
            ("nofusion_cost", plain.cost.into()),
            ("kops_seconds", kops.seconds.into()),
            ("kops_cost", kops.cost.into()),
        ]);
    }
    table.print();
    println!("\nGeometric means:");
    println!(
        "  speed-up vs no fusion     : {:.2}x (paper: 13.1x)",
        geo_mean(&sp_nf)
    );
    println!(
        "  speed-up vs k-operations  : {:.2}x (paper: 5.27x)",
        geo_mean(&sp_k)
    );
    println!(
        "  cost red. vs no fusion    : {:.2}x (paper: 9.94x)",
        geo_mean(&red_nf)
    );
    println!(
        "  cost red. vs k-operations : {:.2}x (paper: 5.59x)",
        geo_mean(&red_k)
    );
    json.write_if(&args.json);
}
