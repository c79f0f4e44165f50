//! Criterion micro-benchmarks of the array-engine gate kernels
//! (Equations 2/3): dense vs diagonal vs controlled, serial vs parallel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qarray::{apply_gate_pooled, apply_gate_serial, ThreadPool};
use qcircuit::gate::{Control, Gate, GateKind};
use qcircuit::Complex64;

fn state(n: usize) -> Vec<Complex64> {
    (0..(1usize << n))
        .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos() * 0.5))
        .collect()
}

fn bench_serial(c: &mut Criterion) {
    let mut group = c.benchmark_group("array_serial");
    group.sample_size(30);
    for n in [14usize, 16] {
        let gates = vec![
            ("h_mid", Gate::new(GateKind::H, n / 2)),
            ("t_diag", Gate::new(GateKind::T, n / 2)),
            ("x_antidiag", Gate::new(GateKind::X, n / 2)),
            (
                "cx",
                Gate::controlled(GateKind::X, 0, vec![Control::pos(n - 1)]),
            ),
        ];
        for (name, g) in gates {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, &n| {
                let mut v = state(n);
                b.iter(|| {
                    apply_gate_serial(&mut v, &g);
                    std::hint::black_box(&v);
                });
            });
        }
    }
    group.finish();
}

fn bench_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("array_parallel");
    group.sample_size(20);
    for t in [2usize, 4] {
        let n = 16;
        group.bench_with_input(BenchmarkId::new("h_mid", t), &t, |b, &t| {
            let g = Gate::new(GateKind::H, n / 2);
            let mut v = state(n);
            let pool = ThreadPool::new(t);
            b.iter(|| {
                apply_gate_pooled(&mut v, &g, &pool, t);
                std::hint::black_box(&v);
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_serial, bench_parallel);
criterion_main!(benches);
