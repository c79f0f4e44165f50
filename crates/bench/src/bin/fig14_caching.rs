//! Figure 14, matrix by matrix: DMAV with caching (Algorithm 2) against the
//! Algorithm 1 walk the simulator runs, on the gate matrices of the six deep
//! circuits (DNN 16/20/25, Supremacy 20/24/26) at `t` groups.
//!
//! The simulator runs Algorithm 1 only (DESIGN.md §2); `dmav_cached` is a
//! standalone kernel and this is where it is measured. For every distinct
//! gate matrix of a circuit and every `t` (powers of two up to `--threads`,
//! on a pool of `t` workers) it builds both plans, prices them with
//! `CostModel::analyze_with_assignment` (Eq. 5 and 6), and takes the best of
//! `--reps` interleaved runs of `dmav_cached` and of the engine's walk
//! (`dmav_in_place` when the assignment is in place, else `dmav_no_cache`)
//! on a 2^n state. Matrices are weighted by how often the circuit applies
//! them. Per circuit and `t` it reports:
//!
//! - `cost_red%`: `1 - Σ min(C1, C2) / Σ C1`, the modelled saving of
//!   picking per matrix (the paper's 13.53 % at 16 threads);
//! - `eq6_picks`: gates Eq. 6 prices below Eq. 5, and `faster` how many of
//!   those ran faster cached;
//! - `walk_s`, `cached_s`: the summed kernel times of each kernel on every
//!   gate;
//! - `pick_speedup%`: `walk_s` over the time had each gate run the model's
//!   pick, minus one (the paper's 16.47 % at 16 threads).
//!
//! The walk is timed per matrix; the simulator also folds consecutive
//! in-place matrices into blocked runs, which only widens the gap. The
//! first line names the machine.
//!
//! ```text
//! cargo run --release -p flatdd-bench --bin fig14_caching -- --scale 0.8 --reps 5 --threads 2
//! ```

use flatdd::{
    dmav_cached, dmav_in_place, dmav_no_cache, CostModel, DmavAssignment, DmavCacheAssignment,
    PartialBuffers, ThreadPool,
};
use flatdd_bench::{machine_header, HarnessArgs, JsonWriter, Table};
use qcircuit::{Circuit, Complex64};
use qdd::{DdPackage, MEdge, MacTable};
use std::collections::HashMap;
use std::time::Instant;

/// One circuit at one group count, summed over its gates.
#[derive(Default)]
struct Sums {
    c1: f64,
    cost: f64,
    picks: usize,
    picks_faster: usize,
    walk_s: f64,
    cached_s: f64,
    picked_s: f64,
}

/// The circuit's distinct gate matrices with how often each is applied, in
/// order of first use.
fn matrices(pkg: &DdPackage, c: &Circuit) -> Vec<(MEdge, usize)> {
    let mut index = HashMap::new();
    let mut out: Vec<(MEdge, usize)> = Vec::new();
    for g in c.iter() {
        let m = pkg.gate_dd(g, c.num_qubits());
        let i = *index.entry(m).or_insert_with(|| {
            out.push((m, 0));
            out.len() - 1
        });
        out[i].1 += 1;
    }
    out
}

/// Seconds `f` takes.
fn seconds(f: impl FnOnce()) -> f64 {
    let s = Instant::now();
    f();
    s.elapsed().as_secs_f64()
}

fn measure(c: &Circuit, t: usize, reps: usize) -> Sums {
    let n = c.num_qubits();
    let pkg = DdPackage::default();
    let (pool, model) = (ThreadPool::new(t), CostModel::default());
    let (mut mac, mut scratch) = (MacTable::default(), PartialBuffers::default());
    // Deterministic, non-trivial amplitudes; every gate is unitary, so the
    // in-place walk keeps them finite.
    let mut v: Vec<Complex64> = (0..1usize << n)
        .map(|i| Complex64::new(0.5 - (i % 7) as f64 / 7.0, (i % 5) as f64 / 5.0))
        .collect();
    let mut w = vec![Complex64::ZERO; v.len()];
    let mut sums = Sums::default();
    for (m, count) in matrices(&pkg, c) {
        let plain = DmavAssignment::build(&pkg, m, n, t);
        let cached = DmavCacheAssignment::build(&pkg, m, n, t);
        let a = model.analyze_with_assignment(&pkg, &mut mac, &cached, m, n, t);
        let (mut walk_s, mut cached_s) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..reps.max(1) {
            walk_s = walk_s.min(seconds(|| {
                if plain.in_place() {
                    dmav_in_place(&plain, &mut v, &pool);
                } else {
                    dmav_no_cache(&pkg, &plain, &v, &mut w, &pool);
                }
            }));
            cached_s = cached_s.min(seconds(|| {
                dmav_cached(&pkg, &cached, &v, &mut w, &pool, &mut scratch);
            }));
        }
        let k = count as f64;
        sums.c1 += k * a.c1;
        sums.cost += k * a.cost();
        sums.walk_s += k * walk_s;
        sums.cached_s += k * cached_s;
        if a.prefer_cached() {
            sums.picks += count;
            sums.picks_faster += if cached_s < walk_s { count } else { 0 };
            sums.picked_s += k * cached_s;
        } else {
            sums.picked_s += k * walk_s;
        }
    }
    sums
}

fn main() {
    let args = HarnessArgs::parse();
    let workloads = flatdd_bench::suite::deep_workloads(args.scale, args.seed);
    let groups: Vec<usize> = (0..)
        .map(|k| 1usize << k)
        .take_while(|&t| t <= args.threads.max(1))
        .collect();
    println!("{}", machine_header());
    println!(
        "Figure 14 — Algorithm 2 (cached) against the engine's Algorithm 1 walk, per gate \
         matrix (scale {:.2}, best of {} reps)\n",
        args.scale, args.reps
    );
    let mut table = Table::new(vec![
        "name",
        "n",
        "t",
        "gates",
        "cost_red%",
        "eq6_picks",
        "faster",
        "walk_s",
        "cached_s",
        "cached_x",
        "pick_speedup%",
    ]);
    let mut json = JsonWriter::new();
    for &t in &groups {
        for w in &workloads {
            let c = &w.circuit;
            let s = measure(c, t, args.reps);
            let cost_red = 100.0 * (1.0 - s.cost / s.c1.max(1e-12));
            let pick_speedup = 100.0 * (s.walk_s / s.picked_s.max(1e-12) - 1.0);
            table.row(vec![
                format!("{} ({})", w.family, w.paper_qubits),
                c.num_qubits().to_string(),
                t.to_string(),
                c.num_gates().to_string(),
                format!("{cost_red:.2}"),
                s.picks.to_string(),
                s.picks_faster.to_string(),
                format!("{:.3}", s.walk_s),
                format!("{:.3}", s.cached_s),
                format!("{:.2}x", s.cached_s / s.walk_s.max(1e-12)),
                format!("{pick_speedup:.2}"),
            ]);
            json.record(vec![
                ("family", w.family.into()),
                ("paper_qubits", w.paper_qubits.into()),
                ("qubits", c.num_qubits().into()),
                ("threads", t.into()),
                ("gates", c.num_gates().into()),
                ("cost_reduction_pct", cost_red.into()),
                ("eq6_picks", s.picks.into()),
                ("eq6_picks_faster", s.picks_faster.into()),
                ("walk_s", s.walk_s.into()),
                ("cached_s", s.cached_s.into()),
                ("pick_speedup_pct", pick_speedup.into()),
            ]);
        }
    }
    table.print();
    println!("\npaper reference at 16 threads: 13.53% cost reduction, 16.47% speed-up.");
    json.write_if(&args.json);
}
