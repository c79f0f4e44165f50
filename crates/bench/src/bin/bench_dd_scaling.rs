//! DD-phase thread scalability: gate-apply throughput of the parallel DD
//! engine (`--dd-threads`) over 1, 2, 4, 8, 16 workers on the Figure 12
//! circuits.
//!
//! Unlike `fig12_scalability` (which times the whole FlatDD pipeline, array
//! phase included) this harness isolates the DD phase: every gate is applied
//! as gate-DD construction + parallel DD matrix-vector multiply on a shared
//! `DdPackage`, the same code path `FlatDdSimulator` takes before the EWMA
//! conversion. Each thread count also cross-checks a sample of amplitudes
//! against the sequential run (tolerance 1e-12) so a scaling win can never
//! hide a correctness regression.
//!
//! The thread axis stops at the visible hardware-thread count: a cell with
//! more workers than cores measures time-slicing, so it is printed as
//! skipped and not recorded.
//!
//! Expected shape: monotone speedup that saturates near the physical core
//! count.

use flatdd_bench::{HarnessArgs, JsonWriter, Table};
use qarray::ThreadPool;
use qcircuit::{generators, Circuit, Complex64};
use qdd::DdPackage;
use std::time::Instant;

/// Applies `c` gate by gate on a fresh package, returning elapsed seconds
/// and a sample of final amplitudes for cross-checking.
fn run_dd_phase(c: &Circuit, threads: usize) -> (f64, Vec<Complex64>) {
    let n = c.num_qubits();
    let pkg = DdPackage::default();
    let pool = ThreadPool::new(threads);
    let mut state = pkg.basis_state(n, 0);
    let mut pkg = pkg; // gc needs &mut between timed spans
    let start = Instant::now();
    let mut since_gc = 0usize;
    let mut dd_size = 1usize;
    for g in c.iter() {
        let m = pkg.gate_dd(g, n);
        // The simulator's dispatch: cap the fork width by the work
        // available so small DDs run sequential instead of paying the
        // fork-join barrier (the VQE regression this harness guards).
        let workers = threads.min(qdd::par::adaptive_parallel_cap(dd_size));
        state = if workers > 1 {
            pkg.mul_mv_parallel_capped(&pool, m, state, workers)
        } else {
            pkg.mul_mv(m, state)
        };
        dd_size = pkg.vector_dd_size(state);
        since_gc += 1;
        if since_gc >= 256 {
            pkg.gc(&[state], &[]);
            since_gc = 0;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let dim = 1usize << n;
    let sample: Vec<Complex64> = (0..16)
        .map(|i| pkg.amplitude(state, (i * 2654435761usize) % dim))
        .collect();
    (secs, sample)
}

fn main() {
    let args = HarnessArgs::parse();
    let s = |n: usize| ((n as f64 * args.scale).round() as usize).max(6);
    let odd = |n: usize| if n % 2 == 1 { n } else { n + 1 };
    let circuits = vec![
        ("Supremacy", generators::supremacy_n(s(20), 24, args.seed)),
        ("KNN", generators::knn((odd(s(25)) - 1) / 2, args.seed + 1)),
        ("VQE", generators::vqe(s(16), 2, args.seed + 2)),
    ];
    let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
    let (threads, skipped): (Vec<usize>, Vec<usize>) =
        [1usize, 2, 4, 8, 16].into_iter().partition(|&t| t <= hw);
    println!(
        "DD-phase scalability (scale {:.2}, {hw} hardware threads visible)",
        args.scale
    );
    if !skipped.is_empty() {
        println!("skipped (more workers than hardware threads): dd_threads = {skipped:?}");
    }
    println!();
    let mut json = JsonWriter::new();
    for (name, c) in &circuits {
        println!("{name}: {} qubits, {} gates", c.num_qubits(), c.num_gates());
        let mut table = Table::new(vec!["dd_threads", "seconds", "gates_per_s", "speedup"]);
        let mut base_secs = None;
        let mut base_sample: Option<Vec<Complex64>> = None;
        for &t in &threads {
            let mut best = f64::INFINITY;
            let mut sample = Vec::new();
            for _ in 0..args.reps.max(1) {
                let (secs, amps) = run_dd_phase(c, t);
                if secs < best {
                    best = secs;
                }
                sample = amps;
            }
            let base = *base_secs.get_or_insert(best);
            match &base_sample {
                None => base_sample = Some(sample),
                Some(want) => {
                    for (got, want) in sample.iter().zip(want) {
                        let d = (*got - *want).norm_sqr().sqrt();
                        assert!(
                            d < 1e-12,
                            "{name} @ {t} threads diverged from sequential by {d:.3e}"
                        );
                    }
                }
            }
            let speedup = base / best.max(1e-12);
            table.row(vec![
                t.to_string(),
                format!("{best:.4}"),
                format!("{:.0}", c.num_gates() as f64 / best.max(1e-12)),
                format!("{speedup:.2}x"),
            ]);
            json.record(vec![
                ("circuit", (*name).into()),
                ("dd_threads", t.into()),
                ("seconds", best.into()),
                (
                    "gates_per_s",
                    (c.num_gates() as f64 / best.max(1e-12)).into(),
                ),
                ("speedup", speedup.into()),
            ]);
        }
        table.print();
        println!();
    }
    json.write_if(&args.json);
}
