//! Weak simulation on flat state vectors: sampling, marginals, measurement
//! collapse, and Pauli expectation values — the array-engine counterpart of
//! `qdd::sampling` / `qdd::inner`.

use crate::pool::ThreadPool;
use crate::shard::{shard_parts, shard_range, sum_shards};
use crate::vecops;
use qcircuit::observable::{Hamiltonian, Pauli, PauliString};
use qcircuit::Complex64;

/// Draws one basis-state index from `|state|^2` via inverse-CDF search.
/// `rand01` supplies uniforms in `[0, 1)`.
pub fn sample(state: &[Complex64], rand01: &mut impl FnMut() -> f64) -> usize {
    let r = rand01();
    let mut acc = 0.0;
    for (i, a) in state.iter().enumerate() {
        acc += a.norm_sqr();
        if r < acc {
            return i;
        }
    }
    // Round-off spill: return the last non-zero index.
    state
        .iter()
        .rposition(|a| !a.is_zero())
        .expect("cannot sample the zero vector")
}

/// Draws `shots` samples and returns `(index, count)` pairs sorted by
/// decreasing count. Precomputes the CDF once, so per-shot cost is
/// O(log 2^n).
pub fn sample_counts(
    state: &[Complex64],
    shots: usize,
    rand01: &mut impl FnMut() -> f64,
) -> Vec<(usize, usize)> {
    let mut cdf = Vec::with_capacity(state.len());
    let mut acc = 0.0;
    for a in state {
        acc += a.norm_sqr();
        cdf.push(acc);
    }
    let mut counts = std::collections::HashMap::new();
    for _ in 0..shots {
        let r = rand01() * acc.min(1.0);
        let idx = cdf.partition_point(|&c| c <= r).min(state.len() - 1);
        *counts.entry(idx).or_insert(0usize) += 1;
    }
    let mut out: Vec<(usize, usize)> = counts.into_iter().collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

/// One kept amplitude of a [`TopAmplitudes`]. `Ord` is the readout order:
/// `norm_sqr` descending by `total_cmp`, index ascending on ties; `Less`
/// is reported earlier.
struct Ranked {
    p: f64,
    index: usize,
    amp: Complex64,
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .p
            .total_cmp(&self.p)
            .then(self.index.cmp(&other.index))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Ranked {}

/// The `k` heaviest of the amplitudes offered so far, in the readout order
/// of the workspace: `norm_sqr` descending by `total_cmp`, index ascending
/// on ties. An amplitude of probability exactly zero is never kept, so a
/// sparse state reports fewer than `k`. This is the one selection rule
/// behind [`top_amplitudes`] and `qdd`'s DD-native counterpart; memory is
/// `O(min(k, offers))`.
pub struct TopAmplitudes {
    k: usize,
    /// Max-heap under the readout order: its top is the last kept entry.
    kept: std::collections::BinaryHeap<Ranked>,
    floor: f64,
}

impl TopAmplitudes {
    /// An empty selection of at most `k` amplitudes.
    pub fn new(k: usize) -> Self {
        TopAmplitudes {
            k,
            kept: std::collections::BinaryHeap::new(),
            floor: if k == 0 { f64::INFINITY } else { 0.0 },
        }
    }

    /// The `norm_sqr` an offer must reach to be kept: that of the last kept
    /// entry once `k` are kept, `0.0` before.
    pub fn floor(&self) -> f64 {
        self.floor
    }

    /// Offers the amplitude of basis state `index`.
    #[inline]
    pub fn offer(&mut self, index: usize, amp: Complex64) {
        let p = amp.norm_sqr();
        if p < self.floor || p == 0.0 {
            return;
        }
        self.insert(Ranked { p, index, amp });
    }

    fn insert(&mut self, r: Ranked) {
        if self.kept.len() < self.k {
            self.kept.push(r);
        } else {
            match self.kept.peek_mut() {
                Some(mut last) if r < *last => *last = r,
                _ => return,
            }
        }
        if self.kept.len() == self.k {
            self.floor = self.kept.peek().map_or(f64::INFINITY, |last| last.p);
        }
    }

    /// The kept `(index, amplitude)` pairs, heaviest first.
    pub fn into_sorted(self) -> Vec<(usize, Complex64)> {
        let sorted = self.kept.into_sorted_vec().into_iter();
        sorted.map(|r| (r.index, r.amp)).collect()
    }
}

/// The `k` heaviest amplitudes of `state` as `(index, amplitude)`, heaviest
/// first (the order of [`TopAmplitudes`]): one pass over the slice, no copy
/// of it and no index vector.
pub fn top_amplitudes(state: &[Complex64], k: usize) -> Vec<(usize, Complex64)> {
    let mut top = TopAmplitudes::new(k);
    for (i, &a) in state.iter().enumerate() {
        top.offer(i, a);
    }
    top.into_sorted()
}

/// Marginal probability that qubit `q` measures 1: the one-shard case of
/// [`qubit_probability_one_sharded`].
pub fn qubit_probability_one(state: &[Complex64], q: usize) -> f64 {
    qubit_probability_one_sharded(state, q, 1, &ThreadPool::new(1))
}

/// The `|1>`-branch probability mass inside `state[range]`: the marginal's
/// runs (`[base + bit, base + 2*bit)` for `base` a multiple of `2*bit`)
/// clipped to the range. The partials of a tiling of `state` are summed in
/// shard order, so the marginal is deterministic for a given shard count
/// regardless of thread count.
fn prob_one_partial(state: &[Complex64], bit: usize, range: std::ops::Range<usize>) -> f64 {
    let stride = 2 * bit;
    let mut p1 = 0.0;
    let mut base = range.start & !(stride - 1);
    while base < range.end {
        let lo = (base + bit).max(range.start);
        let hi = (base + stride).min(range.end);
        if lo < hi {
            p1 += vecops::norm_sqr(&state[lo..hi]);
        }
        base += stride;
    }
    p1
}

/// Marginal probability that qubit `q` measures 1, computed per shard:
/// each of `shards` contiguous state ranges contributes a partial sum
/// (dispatched by [`ThreadPool::for_each_part`]), and the partials are
/// added in shard order.
pub fn qubit_probability_one_sharded(
    state: &[Complex64],
    q: usize,
    shards: usize,
    pool: &ThreadPool,
) -> f64 {
    let bit = 1usize << q;
    if bit >= state.len() {
        return 0.0;
    }
    sum_shards(pool, shards, |s| {
        prob_one_partial(state, bit, shard_range(state.len(), shards, s))
    })
}

/// Projectively measures qubit `q` in place with the collapse dispatched
/// per shard: the outcome is drawn from the shard-ordered marginal, the
/// other branch is zeroed and the kept one renormalized, each shard's range
/// independently (elementwise, so only the marginal's summation order
/// depends on the shard count). Returns the outcome.
pub fn measure_qubit_sharded(
    state: &mut [Complex64],
    q: usize,
    rand01: &mut impl FnMut() -> f64,
    shards: usize,
    pool: &ThreadPool,
) -> bool {
    let shards = shards.max(1);
    let p1 = qubit_probability_one_sharded(state, q, shards, pool);
    let outcome = rand01() < p1;
    let prob = if outcome { p1 } else { 1.0 - p1 };
    assert!(prob > 1e-15, "measured an impossible outcome");
    let bit = 1usize << q;
    let scale = Complex64::real(1.0 / prob.sqrt());
    let dim = state.len();
    pool.for_each_part(shard_parts(state, shards).enumerate(), |(s, chunk)| {
        let r = shard_range(dim, shards, s);
        if bit >= dim {
            // Qubit above the register: outcome is always 0, pure rescale.
            vecops::scale_in_place(chunk, scale);
            return;
        }
        let stride = 2 * bit;
        let mut base = r.start & !(stride - 1);
        while base < r.end {
            let zero_run = (base.max(r.start), (base + bit).min(r.end));
            let one_run = ((base + bit).max(r.start), (base + stride).min(r.end));
            let (keep, kill) = if outcome {
                (one_run, zero_run)
            } else {
                (zero_run, one_run)
            };
            if keep.0 < keep.1 {
                vecops::scale_in_place(&mut chunk[keep.0 - r.start..keep.1 - r.start], scale);
            }
            if kill.0 < kill.1 {
                chunk[kill.0 - r.start..kill.1 - r.start].fill(Complex64::ZERO);
            }
            base += stride;
        }
    });
    outcome
}

/// Projectively measures qubit `q` in place: the one-shard case of
/// [`measure_qubit_sharded`]. Returns the outcome.
pub fn measure_qubit(state: &mut [Complex64], q: usize, rand01: &mut impl FnMut() -> f64) -> bool {
    measure_qubit_sharded(state, q, rand01, 1, &ThreadPool::new(1))
}

/// Expectation `<psi| P |psi>` of one Pauli string (bit-twiddling, no
/// operator matrix).
pub fn expectation_pauli(state: &[Complex64], p: &PauliString) -> f64 {
    let mut flip = 0usize;
    let mut zmask = 0usize;
    let mut y_count = 0u32;
    let mut ymask = 0usize;
    for &(q, op) in &p.ops {
        match op {
            Pauli::I => {}
            Pauli::X => flip |= 1 << q,
            Pauli::Y => {
                flip |= 1 << q;
                ymask |= 1 << q;
                y_count += 1;
            }
            Pauli::Z => zmask |= 1 << q,
        }
    }
    // P|i> = phase(i) |i ^ flip>, with
    // phase(i) = (-1)^{popcount(i & zmask)} * i^{y_count} * (-1)^{popcount(i & ymask)}
    // (each Y contributes i on |0> -> |1| and -i on |1> -> |0>: Y|0> = i|1>,
    // Y|1> = -i|0>).
    let base_phase = match y_count % 4 {
        0 => Complex64::ONE,
        1 => Complex64::I,
        2 => Complex64::real(-1.0),
        _ => -Complex64::I,
    };
    let mut acc = Complex64::ZERO;
    for (i, &amp) in state.iter().enumerate() {
        if amp.is_zero() {
            continue;
        }
        let j = i ^ flip;
        let mut sign = 1.0f64;
        if ((i & zmask).count_ones() + (i & ymask).count_ones()) % 2 == 1 {
            sign = -1.0;
        }
        acc += state[j].conj() * amp * (base_phase * sign);
    }
    (acc * p.coeff).re
}

/// Expectation `<psi| H |psi>` of a Pauli-sum Hamiltonian.
pub fn expectation(state: &[Complex64], ham: &Hamiltonian) -> f64 {
    ham.terms.iter().map(|t| expectation_pauli(state, t)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::{dense, generators};
    use qdd::SplitMix64;

    #[test]
    fn expectation_matches_dense_reference() {
        let c = generators::random_circuit(5, 50, 13);
        let v = dense::simulate(&c);
        for p in [
            PauliString::z(1.0, 0),
            PauliString::x(0.7, 3),
            PauliString::zz(-1.3, 1, 4),
            PauliString::new(0.5, vec![(0, Pauli::Y), (2, Pauli::X)]),
            PauliString::parse("0.25 * ZYXIZ").unwrap(),
            PauliString::new(0.9, vec![(1, Pauli::Y), (3, Pauli::Y)]),
            PauliString::identity(2.0),
        ] {
            let got = expectation_pauli(&v, &p);
            let want = p.expectation_dense(&v);
            assert!((got - want).abs() < 1e-9, "{p}: {got} vs {want}");
        }
    }

    #[test]
    fn hamiltonian_expectation_matches_dense() {
        let c = generators::vqe(6, 2, 3);
        let v = dense::simulate(&c);
        let ham = Hamiltonian::heisenberg_xxz(6, 0.7, 1.3);
        assert!((expectation(&v, &ham) - ham.expectation_dense(&v)).abs() < 1e-9);
    }

    #[test]
    fn top_amplitudes_is_the_nonzero_prefix_of_copy_and_sort() {
        // Ties, exact zeros and a NaN (heaviest under `total_cmp`).
        let mut v = dense::simulate(&generators::random_circuit(5, 40, 6));
        v[3] = v[17];
        v[9] = Complex64::ZERO;
        v[20] = Complex64::new(f64::NAN, 0.0);
        let mut want: Vec<usize> = (0..v.len()).filter(|&i| v[i].norm_sqr() != 0.0).collect();
        want.sort_by(|&a, &b| v[b].norm_sqr().total_cmp(&v[a].norm_sqr()).then(a.cmp(&b)));
        assert_eq!(want[0], 20);
        for k in [0, 1, 8, 31, 32, 40] {
            let got: Vec<usize> = top_amplitudes(&v, k).iter().map(|&(i, _)| i).collect();
            assert_eq!(got, want[..k.min(want.len())], "k = {k}");
        }
        assert_eq!(top_amplitudes(&v, 2)[1], (want[1], v[want[1]]));
    }

    #[test]
    fn sample_ghz_arms_only() {
        let v = dense::simulate(&generators::ghz(6));
        let mut rng = SplitMix64::new(5);
        for _ in 0..100 {
            let x = sample(&v, &mut rng.as_fn());
            assert!(x == 0 || x == 63);
        }
    }

    #[test]
    fn sample_counts_match_w_state() {
        let v = dense::simulate(&generators::w_state(4));
        let mut rng = SplitMix64::new(9);
        let counts = sample_counts(&v, 40_000, &mut rng.as_fn());
        assert_eq!(counts.len(), 4);
        for &(idx, cnt) in &counts {
            assert_eq!(idx.count_ones(), 1);
            assert!((cnt as f64 / 40_000.0 - 0.25).abs() < 0.02);
        }
    }

    #[test]
    fn array_and_dd_sampling_distributions_agree() {
        let c = generators::random_circuit(5, 40, 4);
        let v = dense::simulate(&c);
        let pkg = qdd::DdPackage::default();
        let e = pkg.vector_from_slice(&v);
        let mut r1 = SplitMix64::new(77);
        let mut r2 = SplitMix64::new(78);
        let a = sample_counts(&v, 20_000, &mut r1.as_fn());
        let d = pkg.sample_counts(e, 20_000, &mut r2.as_fn());
        // Compare empirical frequencies of the top outcome.
        let fa = a[0].1 as f64 / 20_000.0;
        let top = a[0].0;
        let fd = d
            .iter()
            .find(|&&(i, _)| i == top)
            .map(|&(_, c)| c)
            .unwrap_or(0) as f64
            / 20_000.0;
        assert!((fa - fd).abs() < 0.02, "{fa} vs {fd}");
    }

    #[test]
    fn measurement_collapse_matches_marginal() {
        let c = generators::random_circuit(5, 40, 8);
        let mut v = dense::simulate(&c);
        let p1 = qubit_probability_one(&v, 2);
        let mut rng = SplitMix64::new(3);
        let outcome = measure_qubit(&mut v, 2, &mut rng.as_fn());
        // Collapsed state: qubit 2 is deterministic, norm restored.
        let p1_after = qubit_probability_one(&v, 2);
        assert!((p1_after - if outcome { 1.0 } else { 0.0 }).abs() < 1e-9);
        assert!((qcircuit::complex::norm_sqr(&v) - 1.0).abs() < 1e-9);
        let _ = p1;
    }

    #[test]
    fn sharded_marginal_matches_monolithic() {
        let c = generators::random_circuit(6, 60, 11);
        let v = dense::simulate(&c);
        let one = ThreadPool::new(1);
        for q in 0..6 {
            // Independent reference: the index-filtered sum.
            let naive: f64 = v
                .iter()
                .enumerate()
                .filter(|(i, _)| i & (1 << q) != 0)
                .map(|(_, a)| a.norm_sqr())
                .sum();
            let want = qubit_probability_one(&v, q);
            assert!((want - naive).abs() < 1e-12, "q={q}");
            // One shard is the monolithic marginal on any pool.
            assert_eq!(
                qubit_probability_one_sharded(&v, q, 1, &ThreadPool::new(4)),
                want
            );
            for (shards, threads) in [(2, 1), (4, 2), (8, 3), (16, 16), (3, 2)] {
                let pool = ThreadPool::new(threads);
                let got = qubit_probability_one_sharded(&v, q, shards, &pool);
                assert!((got - want).abs() < 1e-12, "q={q} shards={shards}");
                // Deterministic for a shard count regardless of threads.
                assert_eq!(got, qubit_probability_one_sharded(&v, q, shards, &one));
            }
        }
    }

    #[test]
    fn sharded_collapse_matches_monolithic() {
        let c = generators::random_circuit(6, 60, 17);
        for (shards, threads) in [(1, 1), (4, 2), (8, 8), (5, 3)] {
            let pool = ThreadPool::new(threads);
            for q in 0..6 {
                let mut a = dense::simulate(&c);
                let mut b = a.clone();
                let mut r1 = SplitMix64::new(q as u64 + 1);
                let mut r2 = SplitMix64::new(q as u64 + 1);
                let oa = measure_qubit(&mut a, q, &mut r1.as_fn());
                let ob = measure_qubit_sharded(&mut b, q, &mut r2.as_fn(), shards, &pool);
                assert_eq!(oa, ob, "q={q} shards={shards}");
                assert!(
                    qcircuit::complex::state_distance(&a, &b) < 1e-12,
                    "q={q} shards={shards} t={threads}"
                );
            }
        }
    }

    #[test]
    fn full_measurement_yields_basis_state() {
        let c = generators::qft(4);
        let mut v = dense::simulate(&c);
        let mut rng = SplitMix64::new(21);
        let mut idx = 0usize;
        for q in 0..4 {
            if measure_qubit(&mut v, q, &mut rng.as_fn()) {
                idx |= 1 << q;
            }
        }
        assert!((v[idx].norm_sqr() - 1.0).abs() < 1e-9);
    }
}
