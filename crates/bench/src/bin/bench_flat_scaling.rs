//! Flat-phase shard scalability: DD-to-array conversion time and per-gate
//! flat (DMAV-phase kernel) throughput over a threads x shards grid on the
//! conversion-heavy circuits.
//!
//! Isolates the two sharded code paths `FlatDdSimulator` dispatches after
//! the EWMA transition: the prefix of each circuit runs sequentially on a
//! `DdPackage`, then every grid point (a) converts that DD into a
//! first-touch-zeroed `ShardedState` via the sharded parallel conversion,
//! recording the per-shard amplitude coverage (`max/min` across shards is
//! the Figure 4a load-balance metric — 1.0 means balanced), and (b) applies
//! the remaining gates with the pooled flat kernel. One `ThreadPool` per
//! grid point does the zeroing, the conversion and every gate, exactly as a
//! simulator's pool would, so a cell times the pool's fork-join dispatch
//! and not thread creation. Every grid point cross-checks a sample of
//! amplitudes against the single-shard run (tolerance 1e-12) so a scaling
//! win can never hide a correctness regression.
//!
//! The thread axis stops at the visible hardware-thread count: a cell with
//! more workers than cores measures time-slicing, so it is printed as
//! skipped and not recorded.
//!
//! Expected shape: conversion and gate throughput scale with threads while
//! shards >= threads; extra shards beyond the thread count cost little
//! (smaller dispatch units, same total work).

use flatdd::RunContext;
use flatdd_bench::{HarnessArgs, JsonWriter, Table};
use qarray::{ShardedState, ThreadPool};
use qcircuit::{generators, Circuit, Complex64};
use qdd::DdPackage;
use std::time::Instant;

struct GridPoint {
    conv_secs: f64,
    /// max/min amplitude coverage across shards (1.0 = perfectly balanced).
    balance: f64,
    flat_secs: f64,
    flat_gates: usize,
    sample: Vec<Complex64>,
}

/// Runs the DD prefix sequentially, then converts and finishes the tail on
/// the sharded flat path with the given grid point.
fn run_point(c: &Circuit, prefix: usize, threads: usize, shards: usize) -> GridPoint {
    let n = c.num_qubits();
    let dim = 1usize << n;
    let pkg = DdPackage::default();
    let mut state = pkg.basis_state(n, 0);
    for g in c.iter().take(prefix) {
        state = pkg.apply_gate(state, g, n);
    }

    let pool = ThreadPool::new(threads);
    let ctx = RunContext::default();
    let start = Instant::now();
    let mut v = ShardedState::try_new_zeroed_on(dim, shards, &pool).expect("flat state");
    let breakdown =
        flatdd::dd_to_array_parallel_sharded_into_with(&pkg, state, n, &pool, shards, &mut v, &ctx);
    let conv_secs = start.elapsed().as_secs_f64();
    let max = breakdown
        .amp_spans
        .iter()
        .copied()
        .max()
        .unwrap_or(1)
        .max(1);
    let min = breakdown
        .amp_spans
        .iter()
        .copied()
        .min()
        .unwrap_or(1)
        .max(1);

    let start = Instant::now();
    let mut flat_gates = 0usize;
    for g in c.iter().skip(prefix) {
        qarray::apply_gate_pooled(&mut v, g, &pool, shards);
        flat_gates += 1;
    }
    let flat_secs = start.elapsed().as_secs_f64();

    let sample = (0..16).map(|i| v[(i * 2654435761usize) % dim]).collect();
    GridPoint {
        conv_secs,
        balance: max as f64 / min as f64,
        flat_secs,
        flat_gates,
        sample,
    }
}

fn main() {
    let args = HarnessArgs::parse();
    let s = |n: usize| ((n as f64 * args.scale).round() as usize).max(6);
    let circuits = vec![
        ("Supremacy", generators::supremacy_n(s(20), 24, args.seed)),
        ("QFT", generators::qft(s(20))),
    ];
    let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
    let (threads, skipped): (Vec<usize>, Vec<usize>) =
        [1usize, 2, 4, 8].into_iter().partition(|&t| t <= hw);
    let shard_grid = [0usize, 1, 4, 16, 64]; // 0 = auto (shards = threads)
    println!(
        "Flat-phase shard scalability (scale {:.2}, {hw} hardware threads visible)",
        args.scale
    );
    if !skipped.is_empty() {
        println!("skipped (more workers than hardware threads): threads = {skipped:?}");
    }
    println!();
    let mut json = JsonWriter::new();
    for (name, c) in &circuits {
        let prefix = c.num_gates() / 2;
        println!(
            "{name}: {} qubits, {} gates ({} flat)",
            c.num_qubits(),
            c.num_gates(),
            c.num_gates() - prefix
        );
        let mut table = Table::new(vec![
            "threads",
            "shards",
            "conv_s",
            "balance",
            "flat_gates_per_s",
            "speedup",
        ]);
        let mut base_secs = None;
        let mut base_sample: Option<Vec<Complex64>> = None;
        for &t in &threads {
            for &raw in &shard_grid {
                let shards = if raw == 0 { t } else { raw };
                let mut best: Option<GridPoint> = None;
                for _ in 0..args.reps.max(1) {
                    let p = run_point(c, prefix, t, shards);
                    if best.as_ref().is_none_or(|b| p.flat_secs < b.flat_secs) {
                        best = Some(p);
                    }
                }
                let p = best.unwrap();
                match &base_sample {
                    None => base_sample = Some(p.sample.clone()),
                    Some(want) => {
                        for (got, want) in p.sample.iter().zip(want) {
                            let d = (*got - *want).norm_sqr().sqrt();
                            assert!(
                                d < 1e-12,
                                "{name} @ {t}T/{shards}S diverged from 1T/1S by {d:.3e}"
                            );
                        }
                    }
                }
                let base = *base_secs.get_or_insert(p.flat_secs);
                let per_gate = p.flat_gates as f64 / p.flat_secs.max(1e-12);
                let speedup = base / p.flat_secs.max(1e-12);
                table.row(vec![
                    t.to_string(),
                    format!("{shards}{}", if raw == 0 { "*" } else { "" }),
                    format!("{:.4}", p.conv_secs),
                    format!("{:.2}", p.balance),
                    format!("{per_gate:.0}"),
                    format!("{speedup:.2}x"),
                ]);
                json.record(vec![
                    ("circuit", (*name).into()),
                    ("threads", t.into()),
                    ("shards", shards.into()),
                    ("auto_shards", (raw == 0).into()),
                    ("conv_seconds", p.conv_secs.into()),
                    ("balance_max_min", p.balance.into()),
                    ("flat_seconds", p.flat_secs.into()),
                    ("flat_gates_per_s", per_gate.into()),
                    ("speedup", speedup.into()),
                ]);
            }
        }
        table.print();
        println!("  (* = auto: shards follow the thread count)\n");
    }
    json.write_if(&args.json);
}
