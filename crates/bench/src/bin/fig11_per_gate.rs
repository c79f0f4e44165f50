//! Figure 11: per-gate runtime of FlatDD vs DDSIM-equivalent vs
//! Quantum++-equivalent on a supremacy and a DNN circuit.
//!
//! Expected shape: the DD engine's per-gate time explodes after the state
//! turns irregular; FlatDD tracks the DD engine early, then converts (the
//! marked gate) and stays flat; the array engine is flat throughout.

use flatdd::{FlatDdConfig, FlatDdSimulator};
use flatdd_bench::{HarnessArgs, JsonWriter, Table};
use qarray::ArraySimulator;
use qcircuit::{generators, Circuit};
use qdd::DdSimulator;
use std::time::Instant;

/// Per-gate seconds for each engine (soft-capped).
fn per_gate_times(
    c: &Circuit,
    threads: usize,
    timeout: f64,
) -> (Vec<f64>, Vec<f64>, Vec<f64>, Option<usize>) {
    // FlatDD with tracing.
    let mut flat = FlatDdSimulator::new(
        c.num_qubits(),
        FlatDdConfig {
            threads,
            trace: true,
            ..Default::default()
        },
    );
    flat.run(c).expect("benchmark run failed");
    // One record per step; a flat step that folds several gates (a run of
    // in-place matrices) is spread evenly over them, so the series stays
    // indexed by gate and no step reads as one slow gate.
    let flat_times: Vec<f64> = flat
        .traces()
        .iter()
        .flat_map(|t| std::iter::repeat_n(t.seconds / t.gates.max(1) as f64, t.gates))
        .collect();
    let converted_at = flat.stats().converted_at;
    flat.publish_metrics();

    // DD engine, per gate, soft timeout.
    let mut dd_times = Vec::new();
    let mut dd = DdSimulator::new(c.num_qubits());
    let budget = Instant::now();
    for g in c.iter() {
        let s = Instant::now();
        dd.apply(g);
        dd_times.push(s.elapsed().as_secs_f64());
        if budget.elapsed().as_secs_f64() > timeout {
            break;
        }
    }

    // Array engine, per gate.
    let mut ar_times = Vec::new();
    let mut ar = ArraySimulator::with_threads(c.num_qubits(), threads);
    let budget = Instant::now();
    for g in c.iter() {
        let s = Instant::now();
        ar.apply(g);
        ar_times.push(s.elapsed().as_secs_f64());
        if budget.elapsed().as_secs_f64() > timeout {
            break;
        }
    }
    (flat_times, dd_times, ar_times, converted_at)
}

fn main() {
    let args = HarnessArgs::parse();
    let s = |n: usize| ((n as f64 * args.scale).round() as usize).max(6);
    let circuits = vec![
        ("Supremacy", generators::supremacy_n(s(20), 30, args.seed)),
        ("DNN", generators::dnn_paper(s(20), args.seed + 1)),
    ];
    println!(
        "Figure 11 — per-gate runtime traces (scale {:.2}, {} threads)\n",
        args.scale, args.threads
    );
    let mut json = JsonWriter::new();
    for (name, c) in &circuits {
        let (flat, dd, ar, conv) = per_gate_times(c, args.threads, args.timeout_secs);
        println!(
            "{name}: {} qubits, {} gates; FlatDD converted after gate {}",
            c.num_qubits(),
            c.num_gates(),
            conv.map(|g| g.to_string()).unwrap_or_else(|| "-".into())
        );
        // Print a down-sampled trace (about 20 rows).
        let mut table = Table::new(vec!["gate", "flatdd_ms", "ddsim_ms", "qpp_ms"]);
        let step = (c.num_gates() / 20).max(1);
        for i in (0..c.num_gates()).step_by(step) {
            let cell = |v: &[f64]| {
                v.get(i)
                    .map(|x| format!("{:.4}", x * 1e3))
                    .unwrap_or_else(|| "(timeout)".into())
            };
            table.row(vec![i.to_string(), cell(&flat), cell(&dd), cell(&ar)]);
            json.record(vec![
                ("circuit", (*name).into()),
                ("gate", i.into()),
                ("flatdd_ms", flat.get(i).map(|x| x * 1e3).into()),
                ("ddsim_ms", dd.get(i).map(|x| x * 1e3).into()),
                ("qpp_ms", ar.get(i).map(|x| x * 1e3).into()),
            ]);
        }
        table.print();
        // Shape summary: DD tail vs FlatDD tail.
        let tail = |v: &[f64]| -> f64 {
            let k = v.len().min(c.num_gates()) / 2;
            v.iter().skip(k).sum::<f64>().max(1e-12)
        };
        println!(
            "second-half totals: flatdd {:.3}s | ddsim {:.3}s{} | qpp {:.3}s\n",
            tail(&flat),
            tail(&dd),
            if dd.len() < c.num_gates() {
                " (timed out)"
            } else {
                ""
            },
            tail(&ar)
        );
    }
    // Embed the unified metrics registry in the results file.
    json.set_meta_raw(flatdd::telemetry::metrics_json());
    json.write_if(&args.json);
}
