//! Benchmark circuit generators.
//!
//! Parameterized constructions of the circuit families used in the FlatDD
//! evaluation (QASMBench \[69\], MQT Bench \[88\], and Google quantum-supremacy
//! \[7\] style circuits). The generators stand in for the benchmark files the
//! paper downloads: they follow the published constructions and preserve the
//! property FlatDD exploits — Adder/GHZ stay *regular* (polynomial DD size)
//! while DNN/VQE/supremacy turn *irregular* (exponential DD size).
//!
//! All randomized families take an explicit seed so experiments are
//! reproducible.

use crate::circuit::Circuit;
use crate::rng::Rng;
use std::f64::consts::PI;

/// GHZ state preparation: `H` then a CNOT chain. Highly regular — the state
/// DD has O(n) nodes throughout.
pub fn ghz(n: usize) -> Circuit {
    assert!(n >= 1);
    let mut c = Circuit::named(n, format!("ghz_{n}"));
    c.h(0);
    for q in 1..n {
        c.cx(q - 1, q);
    }
    c
}

/// Cuccaro ripple-carry adder over two `k`-bit registers (`n = 2k + 2`
/// qubits: carry-in, interleaved a/b registers, carry-out).
///
/// The inputs are prepared as basis states (`a_val`, `b_val`), so the state
/// stays a computational basis state throughout — the most regular workload
/// in the suite (matches the paper: DDSIM finishes the 28-qubit Adder in
/// milliseconds).
pub fn adder(k: usize, a_val: u64, b_val: u64) -> Circuit {
    assert!((1..=62).contains(&k));
    let n = 2 * k + 2;
    let mut c = Circuit::named(n, format!("adder_{n}"));
    // Layout: qubit 0 = carry-in c0; for bit i: a_i at 2i+1, b_i at 2i+2;
    // carry-out z at 2k+1 ... we place z at the last qubit index n-1.
    let a = |i: usize| 2 * i + 1;
    let b = |i: usize| 2 * i + 2;
    let cin = 0usize;
    let z = n - 1;
    // But b(k-1) = 2k, z = 2k+1 = n-1: consistent.

    // Input preparation.
    for i in 0..k {
        if (a_val >> i) & 1 == 1 {
            c.x(a(i));
        }
        if (b_val >> i) & 1 == 1 {
            c.x(b(i));
        }
    }
    // MAJ(x, y, z): cx z y; cx z x; ccx x y z  — using Cuccaro's ordering.
    let maj = |c: &mut Circuit, x: usize, y: usize, zz: usize| {
        c.cx(zz, y);
        c.cx(zz, x);
        c.ccx(x, y, zz);
    };
    // UMA(x, y, z): ccx x y z; cx z x; cx x y
    let uma = |c: &mut Circuit, x: usize, y: usize, zz: usize| {
        c.ccx(x, y, zz);
        c.cx(zz, x);
        c.cx(x, y);
    };
    maj(&mut c, cin, b(0), a(0));
    for i in 1..k {
        maj(&mut c, a(i - 1), b(i), a(i));
    }
    c.cx(a(k - 1), z);
    for i in (1..k).rev() {
        uma(&mut c, a(i - 1), b(i), a(i));
    }
    uma(&mut c, cin, b(0), a(0));
    c
}

/// Convenience wrapper choosing register width from total qubit count
/// (`n = 2k + 2`) with fixed, interesting input values.
pub fn adder_n(n: usize) -> Circuit {
    assert!(
        n >= 4 && n.is_multiple_of(2),
        "adder needs an even qubit count >= 4"
    );
    let k = (n - 2) / 2;
    let mask = if k >= 62 { u64::MAX } else { (1u64 << k) - 1 };
    adder(
        k,
        0xAAAA_AAAA_AAAA_AAAA & mask,
        0x6DB6_DB6D_B6DB_6DB6 & mask,
    )
}

/// Quantum Fourier transform (with final qubit-reversal swaps).
pub fn qft(n: usize) -> Circuit {
    let mut c = Circuit::named(n, format!("qft_{n}"));
    for i in (0..n).rev() {
        c.h(i);
        for j in (0..i).rev() {
            c.cp(PI / (1u64 << (i - j)) as f64, j, i);
        }
    }
    for i in 0..n / 2 {
        c.swap(i, n - 1 - i);
    }
    c
}

/// Quantum deep-neural-network circuit (QASMBench `dnn` style, after Beer
/// et al. \[10\]): an initial superposition wall, then `layers` of the
/// standard QNN block — a parameterized RY mixing wall followed by a
/// ZZ-feature-map entangler (`cx, rz, cx` per neighbor pair) with
/// pseudo-random angles. Highly *irregular* for a DD (dense amplitude
/// distribution with diverse phases), while the permutation/diagonal
/// entangler makes it the fusion-friendly workload of Table 2.
pub fn dnn(n: usize, layers: usize, seed: u64) -> Circuit {
    let mut rng = Rng::seed_from_u64(seed);
    let mut c = Circuit::named(n, format!("dnn_{n}"));
    for q in 0..n {
        c.h(q);
    }
    for _ in 0..layers {
        for q in 0..n {
            c.ry(rng.f64_in(0.0..2.0 * PI), q);
        }
        for q in 0..n - 1 {
            // exp(-i theta/2 Z_q Z_{q+1}) via CX-RZ-CX.
            c.cx(q, q + 1);
            c.rz(rng.f64_in(0.0..2.0 * PI), q + 1);
            c.cx(q, q + 1);
        }
    }
    c
}

/// A `dnn` instance sized to roughly match the paper's gate counts
/// (DNN-16: 2032 gates, DNN-20: 6214, DNN-25: 9644).
pub fn dnn_paper(n: usize, seed: u64) -> Circuit {
    // gates = n + layers * (4n - 3) => layers ~ (target - n) / (4n - 3)
    let target = match n {
        16 => 2032,
        20 => 6214,
        25 => 9644,
        _ => 40 * n,
    };
    let layers = ((target - n) as f64 / (4.0 * n as f64 - 3.0))
        .round()
        .max(1.0) as usize;
    dnn(n, layers, seed)
}

/// Hardware-efficient VQE ansatz: `depth` layers of RY/RZ rotations with a
/// linear CX entangler, pseudo-random parameters. Irregular.
pub fn vqe(n: usize, depth: usize, seed: u64) -> Circuit {
    let mut rng = Rng::seed_from_u64(seed);
    let mut c = Circuit::named(n, format!("vqe_{n}"));
    for _ in 0..depth {
        for q in 0..n {
            c.ry(rng.f64_in(0.0..2.0 * PI), q);
            c.rz(rng.f64_in(0.0..2.0 * PI), q);
        }
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
    }
    // Final rotation layer (standard for hardware-efficient ansatze).
    for q in 0..n {
        c.ry(rng.f64_in(0.0..2.0 * PI), q);
    }
    c
}

/// VQE sized to the paper's 16-qubit/95-gate instance (depth chosen so the
/// gate count lands near `3*depth*n - depth + n`).
pub fn vqe_paper(n: usize, seed: u64) -> Circuit {
    vqe(n, 2, seed)
}

/// Swap test between two `m`-qubit registers (`n = 2m + 1` qubits):
/// pseudo-random product-state preparation, then `H` on the ancilla, a
/// controlled-SWAP per register pair, and a closing `H`.
pub fn swap_test(m: usize, seed: u64) -> Circuit {
    let n = 2 * m + 1;
    let mut rng = Rng::seed_from_u64(seed);
    let mut c = Circuit::named(n, format!("swaptest_{n}"));
    // Ancilla is qubit 0; register X at 1..=m, register Y at m+1..=2m.
    for q in 1..n {
        c.ry(rng.f64_in(0.0..PI), q);
    }
    c.h(0);
    for i in 0..m {
        c.cswap(0, 1 + i, 1 + m + i);
    }
    c.h(0);
    c
}

/// KNN kernel-distance circuit (QASMBench `knn` style): structurally a swap
/// test whose second register encodes training data — we use a different
/// angle distribution to distinguish the two preparations.
pub fn knn(m: usize, seed: u64) -> Circuit {
    let n = 2 * m + 1;
    let mut rng = Rng::seed_from_u64(seed);
    let mut c = Circuit::named(n, format!("knn_{n}"));
    for q in 1..=m {
        c.ry(rng.f64_in(0.0..PI), q);
    }
    for q in m + 1..n {
        // Training register: RY then RZ (mixed-phase encoding).
        c.ry(rng.f64_in(0.0..PI), q);
        c.rz(rng.f64_in(0.0..2.0 * PI), q);
    }
    c.h(0);
    for i in 0..m {
        c.cswap(0, 1 + i, 1 + m + i);
    }
    c.h(0);
    c
}

/// Google quantum-supremacy-style random circuit on a `rows x cols` grid
/// \[7\]: per cycle, a random single-qubit gate from {sqrt(X), sqrt(Y), T}
/// on every qubit (never repeating the previous choice on the same qubit,
/// Hadamards in cycle 0), followed by a CZ layer whose pattern rotates
/// through eight grid configurations. Maximally irregular.
pub fn supremacy(rows: usize, cols: usize, cycles: usize, seed: u64) -> Circuit {
    let n = rows * cols;
    let mut rng = Rng::seed_from_u64(seed);
    let mut c = Circuit::named(n, format!("supremacy_{n}"));
    let q = |r: usize, col: usize| r * cols + col;

    for qu in 0..n {
        c.h(qu);
    }
    // last single-qubit gate id per qubit: 0=sx, 1=sy, 2=t, 3=h(none yet)
    let mut last = vec![3usize; n];
    for cycle in 0..cycles {
        // Single-qubit layer.
        #[allow(clippy::needless_range_loop)]
        for qu in 0..n {
            let mut g = rng.range(0..3);
            while g == last[qu] {
                g = rng.range(0..3);
            }
            last[qu] = g;
            match g {
                0 => c.sx(qu),
                1 => c.sy(qu),
                _ => c.t(qu),
            };
        }
        // CZ layer: eight patterns covering the grid couplers.
        let pattern = cycle % 8;
        match pattern {
            // Horizontal couplers, four phases.
            0 | 2 => {
                let off = if pattern == 0 { 0 } else { 1 };
                for r in 0..rows {
                    let mut col = off;
                    while col + 1 < cols {
                        c.cz(q(r, col), q(r, col + 1));
                        col += 2;
                    }
                }
            }
            4 | 6 => {
                let off = if pattern == 4 { 0 } else { 1 };
                for r in (0..rows).skip(1).step_by(2) {
                    let mut col = off;
                    while col + 1 < cols {
                        c.cz(q(r, col), q(r, col + 1));
                        col += 2;
                    }
                }
                for r in (0..rows).step_by(2) {
                    let mut col = 1 - off;
                    while col + 1 < cols {
                        c.cz(q(r, col), q(r, col + 1));
                        col += 2;
                    }
                }
            }
            // Vertical couplers, four phases.
            1 | 3 => {
                let off = if pattern == 1 { 0 } else { 1 };
                for col in 0..cols {
                    let mut r = off;
                    while r + 1 < rows {
                        c.cz(q(r, col), q(r + 1, col));
                        r += 2;
                    }
                }
            }
            _ => {
                let off = if pattern == 5 { 0 } else { 1 };
                for col in (0..cols).skip(1).step_by(2) {
                    let mut r = off;
                    while r + 1 < rows {
                        c.cz(q(r, col), q(r + 1, col));
                        r += 2;
                    }
                }
                for col in (0..cols).step_by(2) {
                    let mut r = 1 - off;
                    while r + 1 < rows {
                        c.cz(q(r, col), q(r + 1, col));
                        r += 2;
                    }
                }
            }
        }
    }
    c
}

/// Supremacy circuit for a qubit count, choosing a near-square grid and a
/// cycle count that lands near the paper's gate totals (4500 gates at n=20).
/// Sycamore-style random circuit (Arute et al. 2019, as flown on hardware):
/// per cycle, random single-qubit gates from {sqrt(X), sqrt(Y), sqrt(W)}
/// (never repeating on a qubit), followed by **fSim(pi/2, pi/6)** couplers
/// on the rotating grid pattern — the gate set of the actual supremacy
/// experiment, rather than the CZ-based 2017 proposal.
pub fn supremacy_fsim(rows: usize, cols: usize, cycles: usize, seed: u64) -> Circuit {
    let n = rows * cols;
    let mut rng = Rng::seed_from_u64(seed);
    let mut c = Circuit::named(n, format!("sycamore_{n}"));
    let q = |r: usize, col: usize| r * cols + col;
    let theta = std::f64::consts::FRAC_PI_2;
    let phi = std::f64::consts::PI / 6.0;

    for qu in 0..n {
        c.h(qu);
    }
    let mut last = vec![3usize; n];
    for cycle in 0..cycles {
        #[allow(clippy::needless_range_loop)]
        for qu in 0..n {
            let mut g = rng.range(0..3);
            while g == last[qu] {
                g = rng.range(0..3);
            }
            last[qu] = g;
            match g {
                0 => c.sx(qu),
                1 => c.sy(qu),
                _ => c.sw(qu),
            };
        }
        // Couplers: alternate horizontal/vertical with offset, 4 patterns.
        match cycle % 4 {
            0 | 1 => {
                let off = cycle % 2;
                for r in 0..rows {
                    let mut col = off;
                    while col + 1 < cols {
                        c.fsim(theta, phi, q(r, col), q(r, col + 1));
                        col += 2;
                    }
                }
            }
            _ => {
                let off = cycle % 2;
                for col in 0..cols {
                    let mut r = off;
                    while r + 1 < rows {
                        c.fsim(theta, phi, q(r, col), q(r + 1, col));
                        r += 2;
                    }
                }
            }
        }
    }
    c
}

/// Supremacy circuit for a qubit count with a near-square grid (CZ-coupler
/// variant; see [`supremacy_fsim`] for the Sycamore fSim gate set).
pub fn supremacy_n(n: usize, cycles: usize, seed: u64) -> Circuit {
    let (rows, cols) = best_grid(n);
    supremacy(rows, cols, cycles, seed)
}

/// Picks the most square `rows x cols = n` factorization.
pub fn best_grid(n: usize) -> (usize, usize) {
    let mut best = (1, n);
    let mut r = 1;
    while r * r <= n {
        if n.is_multiple_of(r) {
            best = (r, n / r);
        }
        r += 1;
    }
    best
}

/// Grover search for a single marked item, with the textbook iteration count
/// `floor(pi/4 * sqrt(2^n))` unless overridden.
pub fn grover(n: usize, marked: usize, iterations: Option<usize>) -> Circuit {
    assert!(n >= 2);
    assert!(marked < (1usize << n));
    let iters =
        iterations.unwrap_or_else(|| (PI / 4.0 * ((1u64 << n) as f64).sqrt()).floor() as usize);
    let mut c = Circuit::named(n, format!("grover_{n}"));
    for q in 0..n {
        c.h(q);
    }
    let all_but_last: Vec<usize> = (0..n - 1).collect();
    for _ in 0..iters.max(1) {
        // Oracle: phase-flip |marked>.
        for q in 0..n {
            if (marked >> q) & 1 == 0 {
                c.x(q);
            }
        }
        c.mcz(&all_but_last, n - 1);
        for q in 0..n {
            if (marked >> q) & 1 == 0 {
                c.x(q);
            }
        }
        // Diffusion.
        for q in 0..n {
            c.h(q);
        }
        for q in 0..n {
            c.x(q);
        }
        c.mcz(&all_but_last, n - 1);
        for q in 0..n {
            c.x(q);
        }
        for q in 0..n {
            c.h(q);
        }
    }
    c
}

/// W-state preparation via the standard linear cascade of controlled
/// rotations: the excitation starts on the top qubit and at each step a
/// `1/sqrt(r)` share of the remaining amplitude is pinned in place while the
/// rest moves one qubit down.
pub fn w_state(n: usize) -> Circuit {
    assert!(n >= 2);
    let mut c = Circuit::named(n, format!("wstate_{n}"));
    c.x(n - 1);
    let mut r = n;
    for i in (1..n).rev() {
        let theta = 2.0 * (1.0 / (r as f64).sqrt()).acos();
        c.cry(theta, i, i - 1);
        c.cx(i - 1, i);
        r -= 1;
    }
    c
}

/// QAOA circuit for MaxCut with explicit per-round `(gamma, beta)` angles:
/// cost layers (CX-RZ-CX per edge) alternating with mixer layers (RX wall).
/// Diagonal-heavy, moderately irregular.
pub fn qaoa_with_angles(n: usize, edges: &[(usize, usize)], angles: &[(f64, f64)]) -> Circuit {
    assert!(n >= 3);
    let mut c = Circuit::named(n, format!("qaoa_{n}"));
    for q in 0..n {
        c.h(q);
    }
    for &(gamma, beta) in angles {
        for &(a, b) in edges {
            c.cx(a, b);
            c.rz(2.0 * gamma, b);
            c.cx(a, b);
        }
        for q in 0..n {
            c.rx(2.0 * beta, q);
        }
    }
    c
}

/// QAOA circuit for MaxCut on a random ring-plus-chords graph with `p`
/// rounds of pseudo-random angles (use [`qaoa_with_angles`] +
/// [`qaoa_edges`] when you need optimized parameters).
pub fn qaoa(n: usize, p: usize, seed: u64) -> Circuit {
    let edges = qaoa_edges(n, seed);
    let mut rng = Rng::seed_from_u64(seed ^ 0xA0A0);
    let angles: Vec<(f64, f64)> = (0..p)
        .map(|_| (rng.f64_in(0.0..PI), rng.f64_in(0.0..PI)))
        .collect();
    qaoa_with_angles(n, &edges, &angles)
}

/// QAOA's problem graph for a given `(n, seed)` — paired with [`qaoa`] so
/// callers can evaluate the cut value of sampled bitstrings.
pub fn qaoa_edges(n: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    for _ in 0..n / 2 {
        let a = rng.range(0..n);
        let b = rng.range(0..n);
        if a != b && !edges.contains(&(a, b)) && !edges.contains(&(b, a)) {
            edges.push((a.min(b), a.max(b)));
        }
    }
    edges
}

/// Bernstein-Vazirani: recovers the hidden bitstring `secret` in one query.
/// `n` data qubits plus one ancilla (qubit `n`). Extremely regular.
pub fn bernstein_vazirani(n: usize, secret: u64) -> Circuit {
    let mut c = Circuit::named(n + 1, format!("bv_{}", n + 1));
    c.x(n);
    for q in 0..=n {
        c.h(q);
    }
    for q in 0..n {
        if (secret >> q) & 1 == 1 {
            c.cx(q, n);
        }
    }
    for q in 0..n {
        c.h(q);
    }
    c
}

/// Deutsch-Jozsa with a balanced inner-product oracle (`mask` != 0) or the
/// constant oracle (`mask` == 0). `n` data qubits + 1 ancilla.
pub fn deutsch_jozsa(n: usize, mask: u64) -> Circuit {
    let mut c = Circuit::named(n + 1, format!("dj_{}", n + 1));
    c.x(n);
    for q in 0..=n {
        c.h(q);
    }
    for q in 0..n {
        if (mask >> q) & 1 == 1 {
            c.cx(q, n);
        }
    }
    for q in 0..n {
        c.h(q);
    }
    c
}

/// Hidden-shift circuit for bent-function duality (Maiorana-McFarland
/// style, as in QASMBench `hs` / Cirq's hidden-shift benchmark): finds the
/// shift `s` of a shifted bent function in one query. `n` must be even.
pub fn hidden_shift(n: usize, shift: u64) -> Circuit {
    assert!(
        n >= 2 && n.is_multiple_of(2),
        "hidden shift needs an even qubit count"
    );
    let mut c = Circuit::named(n, format!("hiddenshift_{n}"));
    let half = n / 2;
    for q in 0..n {
        c.h(q);
    }
    // Oracle for f(x + s): X-conjugated CZ pairs.
    for q in 0..n {
        if (shift >> q) & 1 == 1 {
            c.x(q);
        }
    }
    for i in 0..half {
        c.cz(i, i + half);
    }
    for q in 0..n {
        if (shift >> q) & 1 == 1 {
            c.x(q);
        }
    }
    for q in 0..n {
        c.h(q);
    }
    // Dual bent function g = f for MM with identity permutation.
    for i in 0..half {
        c.cz(i, i + half);
    }
    for q in 0..n {
        c.h(q);
    }
    c
}

/// Quantum phase estimation of the phase gate `diag(1, e^{2 pi i theta})`
/// with `bits` counting qubits (total `bits + 1` qubits; the eigenstate
/// qubit is the last one).
pub fn phase_estimation(bits: usize, theta: f64) -> Circuit {
    let n = bits + 1;
    let target = bits;
    let mut c = Circuit::named(n, format!("qpe_{n}"));
    c.x(target); // eigenstate |1> of the phase gate
    for q in 0..bits {
        c.h(q);
    }
    for q in 0..bits {
        // Controlled-U^(2^q)
        let angle = 2.0 * PI * theta * (1u64 << q) as f64;
        c.cp(angle, q, target);
    }
    // Inverse QFT on the counting register.
    for i in 0..bits / 2 {
        c.swap(i, bits - 1 - i);
    }
    for i in 0..bits {
        for j in (0..i).rev() {
            c.cp(-PI / (1u64 << (i - j)) as f64, j, i);
        }
        c.h(i);
    }
    c
}

/// Uniformly random circuit over a universal gate set — used by property
/// tests to cross-validate the simulation engines.
pub fn random_circuit(n: usize, num_gates: usize, seed: u64) -> Circuit {
    let mut rng = Rng::seed_from_u64(seed);
    let mut c = Circuit::named(n, format!("random_{n}_{num_gates}"));
    for _ in 0..num_gates {
        let q = rng.range(0..n);
        match rng.range(0..10) {
            0 => c.h(q),
            1 => c.x(q),
            2 => c.t(q),
            3 => c.s(q),
            4 => c.ry(rng.f64_in(0.0..2.0 * PI), q),
            5 => c.rz(rng.f64_in(0.0..2.0 * PI), q),
            6 => c.sx(q),
            7 | 8 if n >= 2 => {
                let mut p = rng.range(0..n);
                while p == q {
                    p = rng.range(0..n);
                }
                if rng.bool(0.5) {
                    c.cx(p, q)
                } else {
                    c.cz(p, q)
                }
            }
            _ if n >= 3 => {
                let mut a = rng.range(0..n);
                while a == q {
                    a = rng.range(0..n);
                }
                let mut b = rng.range(0..n);
                while b == q || b == a {
                    b = rng.range(0..n);
                }
                c.ccx(a, b, q)
            }
            _ => c.h(q),
        };
    }
    c
}

/// Builds a circuit from a compact textual spec, e.g. `ghz:12`,
/// `supremacy:16,30`, `dnn:10,3`, `grover:10`, `qft:8`, `adder:14`,
/// `knn:13`, `swaptest:13`, `vqe:12,2`, `qaoa:10,2`, `bv:8`, `hs:8`,
/// `qpe:6`, `wstate:9`, `random:8,100`. The number after the colon is the
/// qubit count; extra comma-separated numbers are family parameters.
pub fn from_spec(spec: &str, seed: u64) -> Result<Circuit, String> {
    let (family, rest) = spec
        .split_once(':')
        .ok_or_else(|| format!("bad spec `{spec}`: expected `family:qubits[,param...]`"))?;
    let nums: Vec<usize> = rest
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|_| format!("bad number `{s}` in `{spec}`"))
        })
        .collect::<Result<_, _>>()?;
    if nums.is_empty() {
        return Err(format!("spec `{spec}` needs a qubit count"));
    }
    let n = nums[0];
    let p = |k: usize, default: usize| nums.get(k).copied().unwrap_or(default);
    Ok(match family {
        "ghz" => ghz(n),
        "adder" => adder_n(if n.is_multiple_of(2) { n } else { n + 1 }),
        "qft" => qft(n),
        "dnn" => dnn(n, p(1, 8), seed),
        "vqe" => vqe(n, p(1, 2), seed),
        "knn" => knn((n.max(3) - 1) / 2, seed),
        "swaptest" => swap_test((n.max(3) - 1) / 2, seed),
        "supremacy" => supremacy_n(n, p(1, 20), seed),
        "sycamore" => {
            let (rows, cols) = best_grid(n);
            supremacy_fsim(rows, cols, p(1, 12), seed)
        }
        "grover" => grover(n, p(1, 1usize << (n / 2)) % (1 << n), None),
        "wstate" => w_state(n),
        "qaoa" => qaoa(n, p(1, 2), seed),
        "bv" => bernstein_vazirani(n.max(2) - 1, seed | 1),
        "dj" => deutsch_jozsa(n.max(2) - 1, (seed | 1) & ((1 << (n.max(2) - 1)) - 1)),
        "hs" => hidden_shift(
            if n.is_multiple_of(2) { n } else { n + 1 },
            seed & ((1 << n) - 1),
        ),
        "qpe" => phase_estimation(n.max(2) - 1, 0.3125),
        "random" => random_circuit(n, p(1, 20 * n), seed),
        other => return Err(format!("unknown circuit family `{other}`")),
    })
}

/// The twelve Table-1 workloads of the paper, scaled by `scale`:
/// `scale = 1.0` reproduces the paper's qubit counts; smaller values shrink
/// the qubit counts proportionally (floor at 6 qubits) so the full table can
/// run on small machines.
pub fn table1_suite(scale: f64, seed: u64) -> Vec<Circuit> {
    let sz = |n: usize| ((n as f64 * scale).round() as usize).max(6);
    let even = |n: usize| if n.is_multiple_of(2) { n } else { n + 1 };
    let odd = |n: usize| if n % 2 == 1 { n } else { n + 1 };
    vec![
        dnn_paper(sz(16), seed),
        dnn_paper(sz(20), seed + 1),
        dnn_paper(sz(25), seed + 2),
        adder_n(even(sz(28))),
        ghz(sz(23)),
        vqe_paper(sz(16), seed + 3),
        knn((odd(sz(25)) - 1) / 2, seed + 4),
        knn((odd(sz(31)) - 1) / 2, seed + 5),
        swap_test((odd(sz(25)) - 1) / 2, seed + 6),
        supremacy_n(sz(20), 30, seed + 7),
        supremacy_n(sz(24), 30, seed + 8),
        supremacy_n(sz(26), 30, seed + 9),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{norm_sqr, Complex64};
    use crate::dense::simulate;

    const TOL: f64 = 1e-10;

    #[test]
    fn ghz_state_is_correct() {
        let v = simulate(&ghz(4));
        let s = std::f64::consts::FRAC_1_SQRT_2;
        assert!((v[0].re - s).abs() < TOL);
        assert!((v[15].re - s).abs() < TOL);
        for (i, amp) in v.iter().enumerate().take(15).skip(1) {
            assert!(amp.approx_zero(TOL), "i={i}");
        }
    }

    #[test]
    fn adder_adds() {
        // k=3 bits: a=3, b=5 => b' = 8 mod 8 = 0 with carry-out 1.
        for (a_val, b_val) in [(3u64, 5u64), (1, 2), (7, 7), (0, 0), (6, 1), (5, 6)] {
            let k = 3;
            let c = adder(k, a_val, b_val);
            let v = simulate(&c);
            // Find the single basis state with amplitude ~1.
            let idx = v
                .iter()
                .enumerate()
                .max_by(|(_, x), (_, y)| x.norm_sqr().total_cmp(&y.norm_sqr()))
                .unwrap()
                .0;
            assert!((v[idx].norm_sqr() - 1.0).abs() < TOL, "not a basis state");
            // Decode: a_i at 2i+1, b_i at 2i+2, carry-out at n-1.
            let mut a_out = 0u64;
            let mut b_out = 0u64;
            for i in 0..k {
                a_out |= (((idx >> (2 * i + 1)) & 1) as u64) << i;
                b_out |= (((idx >> (2 * i + 2)) & 1) as u64) << i;
            }
            let carry = (idx >> (2 * k + 1)) & 1;
            let sum = a_val + b_val;
            assert_eq!(a_out, a_val, "a register clobbered");
            assert_eq!(
                b_out,
                sum & ((1 << k) - 1),
                "sum bits wrong for {a_val}+{b_val}"
            );
            assert_eq!(carry as u64, sum >> k, "carry wrong for {a_val}+{b_val}");
        }
    }

    #[test]
    fn qft_of_zero_is_uniform() {
        let v = simulate(&qft(4));
        let expect = 1.0 / 4.0;
        for amp in &v {
            assert!((amp.re - expect).abs() < TOL && amp.im.abs() < TOL);
        }
    }

    #[test]
    fn qft_peaks_on_fourier_basis() {
        // QFT |k> then inverse QFT returns |k>.
        let n = 3;
        let mut c = Circuit::new(n);
        c.x(0).x(2); // |101> = index 5
        c.extend(&qft(n));
        c.extend(&qft(n).dagger());
        let v = simulate(&c);
        assert!((v[5].norm_sqr() - 1.0).abs() < TOL);
    }

    #[test]
    fn generators_are_normalized() {
        let circuits = vec![
            ghz(5),
            adder_n(8),
            qft(5),
            dnn(5, 2, 7),
            vqe(5, 2, 7),
            swap_test(2, 7),
            knn(2, 7),
            supremacy(2, 3, 4, 7),
            grover(4, 9, Some(2)),
            w_state(5),
            random_circuit(5, 40, 7),
        ];
        for c in circuits {
            let v = simulate(&c);
            assert!(
                (norm_sqr(&v) - 1.0).abs() < 1e-8,
                "{} not normalized",
                c.name()
            );
        }
    }

    #[test]
    fn w_state_has_exactly_n_nonzero_amplitudes() {
        let n = 5;
        let v = simulate(&w_state(n));
        let expect = 1.0 / (n as f64).sqrt();
        let mut count = 0;
        for (i, amp) in v.iter().enumerate() {
            if amp.norm_sqr() > 1e-12 {
                count += 1;
                assert!(i.count_ones() == 1, "non-Hamming-1 index {i}");
                assert!((amp.abs() - expect).abs() < TOL);
            }
        }
        assert_eq!(count, n);
    }

    #[test]
    fn grover_amplifies_marked_item() {
        for (n, marked) in [(5, 19), (8, 173)] {
            let v = simulate(&grover(n, marked, None));
            let p_marked = v[marked].norm_sqr();
            assert!(p_marked > 0.9, "n={n}: p={p_marked}");
        }
    }

    #[test]
    fn swap_test_ancilla_statistics() {
        // Identical states => ancilla measures 0 with probability 1.
        let m = 2;
        let n = 2 * m + 1;
        let mut c = Circuit::named(n, "swaptest_eq");
        for q in 1..n {
            c.ry(0.7, q); // same angle in both registers
        }
        c.h(0);
        for i in 0..m {
            c.cswap(0, 1 + i, 1 + m + i);
        }
        c.h(0);
        let v = simulate(&c);
        let p1: f64 = v
            .iter()
            .enumerate()
            .filter(|(i, _)| i & 1 == 1)
            .map(|(_, a)| a.norm_sqr())
            .sum();
        assert!(p1 < 1e-10, "identical states must give p(1)=0, got {p1}");
    }

    #[test]
    fn supremacy_gate_structure() {
        let c = supremacy(2, 2, 8, 42);
        // 4 initial H + per cycle 4 single-qubit, plus CZ layers.
        assert_eq!(c.num_qubits(), 4);
        assert!(c.num_gates() > 8 * 4);
        let (g0, g1, g2) = c.control_profile();
        assert!(g0 >= 4 + 8 * 4);
        assert!(g1 > 0, "no CZ gates emitted");
        assert_eq!(g2, 0);
    }

    #[test]
    fn supremacy_single_qubit_layers_never_repeat() {
        // The generator promises no consecutive identical single-qubit gate
        // on the same qubit after the initial H wall.
        use crate::gate::GateKind;
        let c = supremacy(2, 2, 10, 3);
        let mut last: Vec<Option<GateKind>> = vec![None; 4];
        for g in c.iter().skip(4) {
            if g.num_controls() == 0 {
                if let Some(prev) = last[g.target] {
                    assert_ne!(prev, g.kind, "repeated {:?} on q{}", g.kind, g.target);
                }
                last[g.target] = Some(g.kind);
            }
        }
    }

    #[test]
    fn best_grid_is_square_ish() {
        assert_eq!(best_grid(20), (4, 5));
        assert_eq!(best_grid(16), (4, 4));
        assert_eq!(best_grid(26), (2, 13));
        assert_eq!(best_grid(7), (1, 7));
    }

    #[test]
    fn dnn_paper_gate_counts_close() {
        for (n, target) in [(16usize, 2032usize), (20, 6214), (25, 9644)] {
            let c = dnn_paper(n, 1);
            let got = c.num_gates();
            let rel = (got as f64 - target as f64).abs() / target as f64;
            assert!(rel < 0.05, "n={n}: got {got}, want ~{target}");
        }
    }

    #[test]
    fn random_circuit_is_deterministic_per_seed() {
        let a = random_circuit(6, 50, 11);
        let b = random_circuit(6, 50, 11);
        assert_eq!(a, b);
        let c = random_circuit(6, 50, 12);
        assert_ne!(a, c);
    }

    #[test]
    fn sycamore_fsim_circuit_is_valid_and_irregular() {
        let c = supremacy_fsim(2, 3, 6, 5);
        assert_eq!(c.num_qubits(), 6);
        let v = simulate(&c);
        assert!((crate::complex::norm_sqr(&v) - 1.0).abs() < 1e-8);
        // fSim entangling makes the state dense quickly.
        let nonzero = v.iter().filter(|a| a.norm_sqr() > 1e-12).count();
        assert!(nonzero > 32, "only {nonzero} nonzero amplitudes");
    }

    #[test]
    fn from_spec_covers_every_family() {
        for spec in [
            "ghz:8",
            "adder:10",
            "qft:6",
            "dnn:6,2",
            "vqe:6,2",
            "knn:7",
            "swaptest:7",
            "supremacy:6,5",
            "grover:5",
            "wstate:6",
            "qaoa:6,2",
            "bv:6",
            "dj:6",
            "hs:6",
            "qpe:5",
            "random:5,30",
        ] {
            let c = from_spec(spec, 42).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert!(c.num_gates() > 0, "{spec} produced an empty circuit");
            let v = simulate(&c);
            assert!(
                (crate::complex::norm_sqr(&v) - 1.0).abs() < 1e-8,
                "{spec} not normalized"
            );
        }
    }

    #[test]
    fn from_spec_rejects_garbage() {
        assert!(from_spec("nope:5", 1).is_err());
        assert!(from_spec("ghz", 1).is_err());
        assert!(from_spec("ghz:x", 1).is_err());
    }

    #[test]
    fn table1_suite_has_twelve_members() {
        let suite = table1_suite(0.3, 1);
        assert_eq!(suite.len(), 12);
        for c in &suite {
            assert!(c.num_qubits() >= 6);
            assert!(c.num_gates() > 0);
        }
    }

    #[test]
    fn bernstein_vazirani_recovers_secret() {
        let secret = 0b10110u64;
        let c = bernstein_vazirani(5, secret);
        let v = simulate(&c);
        // Data register holds the secret; ancilla is in |-> (superposed).
        let p: f64 = v
            .iter()
            .enumerate()
            .filter(|(i, _)| (i & 0b11111) as u64 == secret)
            .map(|(_, a)| a.norm_sqr())
            .sum();
        assert!((p - 1.0).abs() < TOL, "p = {p}");
    }

    #[test]
    fn deutsch_jozsa_constant_vs_balanced() {
        // Constant oracle: data register returns to |0...0>.
        let v = simulate(&deutsch_jozsa(4, 0));
        let p0: f64 = v
            .iter()
            .enumerate()
            .filter(|(i, _)| i & 0b1111 == 0)
            .map(|(_, a)| a.norm_sqr())
            .sum();
        assert!((p0 - 1.0).abs() < TOL);
        // Balanced oracle: probability of |0...0> is exactly 0.
        let v = simulate(&deutsch_jozsa(4, 0b1010));
        let p0: f64 = v
            .iter()
            .enumerate()
            .filter(|(i, _)| i & 0b1111 == 0)
            .map(|(_, a)| a.norm_sqr())
            .sum();
        assert!(p0 < TOL);
    }

    #[test]
    fn hidden_shift_finds_the_shift() {
        let shift = 0b1101u64;
        let c = hidden_shift(4, shift);
        let v = simulate(&c);
        assert!((v[shift as usize].norm_sqr() - 1.0).abs() < 1e-9, "{v:?}");
    }

    #[test]
    fn phase_estimation_reads_exact_binary_phases() {
        // theta = 3/8 is exactly representable in 3 bits: counting register
        // must read 011 reversed ... i.e. the integer 3.
        let bits = 3;
        let theta = 3.0 / 8.0;
        let v = simulate(&phase_estimation(bits, theta));
        // Eigenstate qubit is |1> (bit `bits`); counting register = 3.
        let want_idx = 3 | (1 << bits);
        assert!(
            (v[want_idx].norm_sqr() - 1.0).abs() < 1e-9,
            "estimate distribution: {:?}",
            v.iter().map(|a| a.norm_sqr()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn qaoa_structure_and_normalization() {
        let c = qaoa(6, 2, 3);
        assert_eq!(c.num_qubits(), 6);
        let v = simulate(&c);
        assert!((crate::complex::norm_sqr(&v) - 1.0).abs() < 1e-9);
        let edges = qaoa_edges(6, 3);
        assert!(edges.len() >= 6);
        assert!(edges.iter().all(|&(a, b)| a < 6 && b < 6 && a != b));
    }

    #[test]
    fn basis_input_stays_basis_through_adder() {
        // The adder on basis inputs must keep the state a basis state after
        // every gate (this is what makes it DD-friendly).
        let c = adder(2, 2, 1);
        let mut v = crate::dense::zero_state(c.num_qubits());
        for g in c.iter() {
            crate::dense::apply_gate(&mut v, g);
            let nonzero = v.iter().filter(|a| a.norm_sqr() > 1e-12).count();
            assert_eq!(nonzero, 1, "state left the computational basis");
        }
        let _ = Complex64::ZERO; // silence unused import in some cfgs
    }
}
