//! Figure 13: FlatDD's parallel DD-to-array conversion vs the sequential
//! (DDSIM-style) conversion — absolute time and share of total runtime.
//!
//! For each of the 10 irregular-suite circuits the simulation is driven in
//! DD mode up to the EWMA conversion point; both conversion algorithms then
//! run on the *same* state DD. `run_conv_pct` is the conversion's share of
//! one full FlatDD run (`FlatDdStats::conversion_seconds` over its wall
//! time), the paper's Fig. 13 quantity measured inside the engine.
//!
//! Expected shape: the parallel conversion wins everywhere (paper: 22.34x
//! geo-mean at 16 threads) and drops the conversion share of total runtime
//! from up to ~83% to a few percent.

use flatdd::{dd_to_array_parallel, EwmaConfig, EwmaMonitor, FlatDdConfig, ThreadPool};
use flatdd_bench::{geo_mean, machine_header, run_flatdd, HarnessArgs, JsonWriter, Table};
use qdd::DdSimulator;
use std::time::Instant;

fn main() {
    let args = HarnessArgs::parse();
    let workloads: Vec<_> = flatdd_bench::table1_workloads(args.scale, args.seed)
        .into_iter()
        .filter(|w| !w.regular)
        .collect();
    println!("{}", machine_header());
    println!(
        "Figure 13 — DD-to-array conversion: parallel (FlatDD, {} threads) vs sequential (DDSIM)\n",
        args.threads
    );
    let mut table = Table::new(vec![
        "name",
        "n",
        "conv_gate",
        "dd_nodes",
        "seq_ms",
        "par_ms",
        "speedup",
        "seq_pct_of_total",
        "par_pct_of_total",
        "run_conv_pct",
    ]);
    let mut json = JsonWriter::new();
    let mut speedups = Vec::new();

    for w in &workloads {
        let c = &w.circuit;
        let n = c.num_qubits();
        // Drive the DD phase to the conversion point.
        let mut sim = DdSimulator::new(n);
        let mut monitor = EwmaMonitor::new(EwmaConfig::default());
        let mut conv_gate = None;
        let budget = Instant::now();
        for (i, g) in c.iter().enumerate() {
            sim.apply(g);
            if monitor.observe(sim.state_dd_size()) {
                conv_gate = Some(i);
                break;
            }
            if budget.elapsed().as_secs_f64() > args.timeout_secs {
                break;
            }
        }
        let dd_nodes = sim.state_dd_size();
        let pkg = sim.package();
        let state = sim.state();

        // Sequential (DDSIM) conversion.
        let reps = args.reps.max(1);
        let mut seq_s = f64::INFINITY;
        for _ in 0..reps {
            let s = Instant::now();
            let out = pkg.vector_to_array(state, n);
            seq_s = seq_s.min(s.elapsed().as_secs_f64());
            std::hint::black_box(out);
        }
        // Parallel (FlatDD) conversion.
        let pool = ThreadPool::new(flatdd::clamp_threads(args.threads, n));
        let mut par_s = f64::INFINITY;
        for _ in 0..reps {
            let s = Instant::now();
            let out = dd_to_array_parallel(pkg, state, n, &pool);
            par_s = par_s.min(s.elapsed().as_secs_f64());
            std::hint::black_box(out);
        }

        // Total end-to-end runtime with the parallel conversion.
        let total = run_flatdd(
            c,
            FlatDdConfig {
                threads: args.threads,
                ..Default::default()
            },
            args.timeout_secs,
        );
        let total_par = total.seconds.max(1e-12);
        let total_seq = (total_par - par_s + seq_s).max(1e-12);
        let speedup = seq_s / par_s.max(1e-12);
        speedups.push(speedup);

        table.row(vec![
            format!("{} ({})", w.family, w.paper_qubits),
            n.to_string(),
            conv_gate
                .map(|g| g.to_string())
                .unwrap_or_else(|| "-".into()),
            dd_nodes.to_string(),
            format!("{:.3}", seq_s * 1e3),
            format!("{:.3}", par_s * 1e3),
            format!("{:.2}x", speedup),
            format!("{:.2}%", 100.0 * seq_s / total_seq),
            format!("{:.2}%", 100.0 * par_s / total_par),
            format!("{:.2}%", 100.0 * total.conversion_seconds / total_par),
        ]);
        json.record(vec![
            ("family", w.family.into()),
            ("paper_qubits", w.paper_qubits.into()),
            ("qubits", n.into()),
            ("conversion_gate", conv_gate.into()),
            ("dd_nodes", dd_nodes.into()),
            ("sequential_seconds", seq_s.into()),
            ("parallel_seconds", par_s.into()),
            ("total_seconds", total_par.into()),
            ("run_conversion_seconds", total.conversion_seconds.into()),
        ]);
    }
    table.print();
    println!(
        "\ngeo-mean conversion speed-up: {:.2}x (paper: 22.34x at 16 threads on 64 cores)",
        geo_mean(&speedups)
    );

    // Second measurement: convert the *largest* state DD each circuit
    // produces (the DD at the end of the DD-engine run, or at the soft
    // timeout). At harness scale the EWMA fires while DDs are still tiny,
    // so this view shows how the two algorithms compare once the DD carries
    // real work — the regime of the paper's Figure 13.
    println!("\nWorst-case view: converting the largest state DD per circuit");
    let mut table2 = Table::new(vec!["name", "n", "dd_nodes", "seq_ms", "par_ms", "speedup"]);
    let mut late_speedups = Vec::new();
    for w in &workloads {
        let c = &w.circuit;
        let n = c.num_qubits();
        let mut sim = DdSimulator::new(n);
        let budget = Instant::now();
        for g in c.iter() {
            sim.apply(g);
            if budget.elapsed().as_secs_f64() > args.timeout_secs / 2.0 {
                break;
            }
        }
        let dd_nodes = sim.state_dd_size();
        let pkg = sim.package();
        let state = sim.state();
        let reps = args.reps.max(1);
        let mut seq_s = f64::INFINITY;
        for _ in 0..reps {
            let s = Instant::now();
            std::hint::black_box(pkg.vector_to_array(state, n));
            seq_s = seq_s.min(s.elapsed().as_secs_f64());
        }
        let pool = ThreadPool::new(flatdd::clamp_threads(args.threads, n));
        let mut par_s = f64::INFINITY;
        for _ in 0..reps {
            let s = Instant::now();
            std::hint::black_box(dd_to_array_parallel(pkg, state, n, &pool));
            par_s = par_s.min(s.elapsed().as_secs_f64());
        }
        let speedup = seq_s / par_s.max(1e-12);
        late_speedups.push(speedup);
        table2.row(vec![
            format!("{} ({})", w.family, w.paper_qubits),
            n.to_string(),
            dd_nodes.to_string(),
            format!("{:.3}", seq_s * 1e3),
            format!("{:.3}", par_s * 1e3),
            format!("{:.2}x", speedup),
        ]);
        json.record(vec![
            ("family", w.family.into()),
            ("paper_qubits", w.paper_qubits.into()),
            ("view", "largest_dd".into()),
            ("dd_nodes", dd_nodes.into()),
            ("sequential_seconds", seq_s.into()),
            ("parallel_seconds", par_s.into()),
        ]);
    }
    table2.print();
    println!(
        "\ngeo-mean speed-up on largest DDs: {:.2}x",
        geo_mean(&late_speedups)
    );

    // Load-balance view (hardware-independent): how evenly the planner's
    // thread-splitting (Fig. 4a) distributes the output range. A perfectly
    // balanced plan has max/mean = 1.
    println!("\nLoad balance of the parallel plan (max/mean coverage across threads):");
    let mut table3 = Table::new(vec!["name", "dd_nodes", "threads_used", "max_over_mean"]);
    for w in &workloads {
        let c = &w.circuit;
        let n = c.num_qubits();
        let mut sim = DdSimulator::new(n);
        let budget = Instant::now();
        for g in c.iter() {
            sim.apply(g);
            if budget.elapsed().as_secs_f64() > args.timeout_secs / 4.0 {
                break;
            }
        }
        let t = flatdd::clamp_threads(args.threads, n);
        let plan = flatdd::ConversionPlan::build(sim.package(), sim.state(), n, t);
        let cov = plan.coverage(sim.package());
        let busy: Vec<usize> = cov.iter().copied().filter(|&c| c > 0).collect();
        let mean = busy.iter().sum::<usize>() as f64 / busy.len().max(1) as f64;
        let max = busy.iter().copied().max().unwrap_or(0) as f64;
        table3.row(vec![
            format!("{} ({})", w.family, w.paper_qubits),
            sim.state_dd_size().to_string(),
            busy.len().to_string(),
            format!("{:.3}", if mean > 0.0 { max / mean } else { 0.0 }),
        ]);
    }
    table3.print();
    json.write_if(&args.json);
}
