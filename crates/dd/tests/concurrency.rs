//! Cross-thread stress tests for the DD package, which stays `Sync`: the
//! simulator has one writer per package, but the conversion reads it from
//! pool workers. Canonicity of the unique/complex tables under concurrent
//! insertion and exactness of the lossy compute caches. These run through
//! the public API only, so they double as a contract check.

use qcircuit::complex::state_distance;
use qcircuit::{dense, generators, Circuit, Complex64};
use qdd::DdPackage;
use std::thread;

/// Deterministic pseudo-random amplitudes (no external RNG crates).
fn amps(seed: u64, len: usize) -> Vec<Complex64> {
    let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let mut step = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    (0..len).map(|_| Complex64::new(step(), step())).collect()
}

#[test]
fn concurrent_builds_of_the_same_vector_are_one_dd() {
    // 8 threads build the identical 64-amplitude vector on one shared
    // package; the sharded unique table must hand every thread the exact
    // same canonical root edge (same node ids, same weight index).
    for seed in [1u64, 7, 42] {
        let pkg = DdPackage::default();
        let v = amps(seed, 64);
        let roots: Vec<_> = thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| pkg.vector_from_slice(&v)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in &roots[1..] {
            assert_eq!(*r, roots[0], "non-canonical DD for seed {seed}");
        }
    }
}

#[test]
fn concurrent_interning_returns_equal_indices() {
    // Every thread interns the same value sequence; the sharded complex
    // table must resolve each value to one canonical index no matter which
    // thread got there first.
    let pkg = DdPackage::default();
    let vals = amps(99, 1_000);
    let idx_sets: Vec<Vec<_>> = thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| s.spawn(|| vals.iter().map(|&c| pkg.clookup(c)).collect::<Vec<_>>()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for set in &idx_sets[1..] {
        assert_eq!(*set, idx_sets[0]);
    }
}

#[test]
fn concurrent_gate_applies_on_one_package_match_private_runs() {
    // 8 threads each simulate a *different* circuit on one shared package
    // (shared unique, complex, and compute tables — the serve-style
    // contention pattern). Each result must match the same circuit run
    // alone on a private package.
    let circuits: Vec<Circuit> = (0..8)
        .map(|i| generators::random_circuit(6, 60, 1000 + i as u64))
        .collect();
    let shared = DdPackage::default();
    let got: Vec<Vec<Complex64>> = thread::scope(|s| {
        let handles: Vec<_> = circuits
            .iter()
            .map(|c| {
                let shared = &shared;
                s.spawn(move || {
                    let mut state = shared.basis_state(6, 0);
                    for g in c.iter() {
                        let m = shared.gate_dd(g, 6);
                        state = shared.mul_mv(m, state);
                    }
                    shared.vector_to_array(state, 6)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (c, got) in circuits.iter().zip(&got) {
        let want = dense::simulate(c);
        assert!(
            state_distance(got, &want) < 1e-9,
            "{} diverged under shared-package contention",
            c.name()
        );
    }
}
