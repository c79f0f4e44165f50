//! Shared oracles of the engine tests: what a simulator's readers must
//! return on the state it holds, whatever produced it.

use flatdd::FlatDdSimulator;
use qcircuit::Complex64;

/// Indices of the non-zero probabilities of `amps`, copied and fully
/// sorted in the readout order — what `top_amplitudes` replaces.
fn copy_and_sort(amps: &[Complex64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..amps.len())
        .filter(|&i| amps[i].norm_sqr() > 0.0)
        .collect();
    idx.sort_by(|&a, &b| {
        amps[b]
            .norm_sqr()
            .total_cmp(&amps[a].norm_sqr())
            .then(a.cmp(&b))
    });
    idx
}

/// Holds `sim.top_amplitudes(k)` for k in {0, 1, 8, 2^n, 2^n + 3} against
/// two oracles: the sort of the per-index `amplitude()` values (exact: same
/// indices, same order, values bit for bit) and the sort of the
/// materialized `amplitudes()` the daemon used to read (the DD phase
/// computes those in another order, so ranks may swap between magnitudes
/// closer than 1e-12).
pub fn assert_top_amplitudes_match_the_oracles(sim: &FlatDdSimulator, ctx: &str) {
    let n = sim.num_qubits();
    let exact: Vec<Complex64> = (0..1usize << n).map(|i| sim.amplitude(i)).collect();
    let exact_order = copy_and_sort(&exact);
    let dense = sim.amplitudes();
    let p = |i: usize| dense[i].norm_sqr();
    let dense_order = copy_and_sort(&dense);
    assert_eq!(exact_order.len(), dense_order.len(), "{ctx}");
    for k in [0, 1, 8, 1 << n, (1 << n) + 3] {
        let got = sim.top_amplitudes(k);
        let want = &exact_order[..k.min(exact_order.len())];
        let got_idx: Vec<usize> = got.iter().map(|&(i, _)| i).collect();
        assert_eq!(got_idx, want, "{ctx}, k = {k}");
        for (rank, &(i, a)) in got.iter().enumerate() {
            assert_eq!(
                (a.re.to_bits(), a.im.to_bits()),
                (exact[i].re.to_bits(), exact[i].im.to_bits()),
                "{ctx}, k = {k}: value of |{i}>"
            );
            let old = dense_order[rank];
            assert!(
                (p(i) - p(old)).abs() <= 1e-12,
                "{ctx}, k = {k}, rank {rank}"
            );
            let apart = |r: usize| (p(dense_order[r]) - p(old)).abs() > 1e-12;
            let isolated = (rank == 0 || apart(rank - 1))
                && (rank + 1 == dense_order.len() || apart(rank + 1));
            assert!(
                !isolated || i == old,
                "{ctx}, k = {k}, rank {rank}: {i} vs {old}"
            );
        }
    }
}
