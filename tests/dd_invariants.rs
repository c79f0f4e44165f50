//! Cross-crate DD invariants: the decision-diagram substrate must stay
//! canonical and exact under everything the FlatDD pipeline does to it —
//! multiplication chains, fusion products, GC, conversion, cost analysis.

use flatdd::{ConversionPolicy, CostModel, FlatDdConfig, FlatDdSimulator, ThreadPool};
use qcircuit::complex::state_distance;
use qcircuit::gate::{Control, Gate, GateKind};
use qcircuit::{dense, generators, Complex64};
use qdd::{mac_count, DdPackage, MacTable};

#[test]
fn unique_table_keeps_node_count_canonical() {
    // Building the same circuit's gate DDs twice must not add nodes.
    let pkg = DdPackage::default();
    let c = generators::qft(6);
    for g in c.iter() {
        pkg.gate_dd(g, 6);
    }
    let after_first = pkg.stats().m_nodes;
    for g in c.iter() {
        pkg.gate_dd(g, 6);
    }
    assert_eq!(pkg.stats().m_nodes, after_first, "rebuilds must be shared");
}

#[test]
fn mac_count_equals_nonzero_entries_on_fused_products() {
    let n = 4;
    let pkg = DdPackage::default();
    let c = generators::random_circuit(n, 10, 5);
    let mut fused = pkg.identity_dd(n);
    for g in c.iter() {
        let gd = pkg.gate_dd(g, n);
        fused = pkg.mul_mm(gd, fused);
    }
    let by_table = mac_count(&pkg, fused);
    let dim = 1usize << n;
    let mut by_enumeration = 0u64;
    for r in 0..dim {
        for col in 0..dim {
            if !pkg.matrix_entry(fused, r, col).approx_zero(1e-12) {
                by_enumeration += 1;
            }
        }
    }
    assert_eq!(by_table, by_enumeration);
}

#[test]
fn matrix_dd_of_unitary_products_stays_unitary() {
    let n = 4;
    let pkg = DdPackage::default();
    let c = generators::random_circuit(n, 12, 9);
    let mut fused = pkg.identity_dd(n);
    for g in c.iter() {
        let gd = pkg.gate_dd(g, n);
        fused = pkg.mul_mm(gd, fused);
    }
    let dim = 1usize << n;
    let m = pkg.matrix_to_dense(fused, n);
    // Check M * M^dagger = I.
    for i in 0..dim {
        for j in 0..dim {
            let mut acc = Complex64::ZERO;
            for k in 0..dim {
                acc += m[i * dim + k] * m[j * dim + k].conj();
            }
            let want = if i == j {
                Complex64::ONE
            } else {
                Complex64::ZERO
            };
            assert!(acc.approx_eq(want, 1e-8), "({i},{j}) = {acc:?}");
        }
    }
}

#[test]
fn gc_then_rebuild_reproduces_identical_structure() {
    let mut pkg = DdPackage::default();
    let n = 6;
    let g = Gate::controlled(GateKind::RY(0.7), 2, vec![Control::pos(4)]);
    let e1 = pkg.gate_dd(&g, n);
    let dense1 = pkg.matrix_to_dense(e1, n);
    pkg.gc(&[], &[]); // drop everything
    let e2 = pkg.gate_dd(&g, n);
    let dense2 = pkg.matrix_to_dense(e2, n);
    assert!(state_distance(&dense1, &dense2) < 1e-12);
}

#[test]
fn compute_cache_survives_interleaved_operations() {
    // Interleave multiplications and additions; results must stay exact even
    // with the direct-mapped caches overwriting entries.
    let n = 5;
    let pkg = DdPackage::default();
    let c = generators::random_circuit(n, 60, 3);
    let mut state = pkg.basis_state(n, 0);
    let mut ref_state = dense::zero_state(n);
    for g in c.iter() {
        state = pkg.apply_gate(state, g, n);
        dense::apply_gate(&mut ref_state, g);
        // Interleave unrelated matrix algebra to stress cache collisions.
        let a = pkg.gate_dd(&Gate::new(GateKind::T, 1), n);
        let b = pkg.gate_dd(&Gate::new(GateKind::H, 3), n);
        let _ = pkg.mul_mm(a, b);
    }
    let got = pkg.vector_to_array(state, n);
    assert!(state_distance(&got, &ref_state) < 1e-8);
}

#[test]
fn conversion_handles_denormal_scale_states() {
    // States with very small and very large amplitude spread must convert
    // exactly (weight products multiply along paths).
    let n = 6;
    let mut v: Vec<Complex64> = (0..(1usize << n))
        .map(|i| Complex64::new(2.0f64.powi(-((i % 40) as i32)), 0.0))
        .collect();
    // normalize
    let norm = qcircuit::complex::norm_sqr(&v).sqrt();
    v.iter_mut().for_each(|x| *x = *x / norm);
    let pkg = DdPackage::default();
    let e = pkg.vector_from_slice(&v);
    let seq = pkg.vector_to_array(e, n);
    assert!(state_distance(&seq, &v) < 1e-9);
    let pool = ThreadPool::new(4);
    let par = flatdd::dd_to_array_parallel(&pkg, e, n, &pool);
    assert!(state_distance(&par, &v) < 1e-9);
}

#[test]
fn cost_model_c1_scales_inversely_with_threads() {
    let pkg = DdPackage::default();
    let mut mac = MacTable::default();
    let n = 8;
    let m = pkg.gate_dd(&Gate::new(GateKind::H, 4), n);
    let cm = CostModel::default();
    let c1 = cm.analyze(&pkg, &mut mac, m, n, 1).c1;
    let c4 = cm.analyze(&pkg, &mut mac, m, n, 4).c1;
    assert!((c1 / c4 - 4.0).abs() < 1e-9);
}

#[test]
fn amplitude_path_products_match_array_readout() {
    let c = generators::supremacy_n(8, 6, 2);
    let pkg = DdPackage::default();
    let mut state = pkg.basis_state(8, 0);
    for g in c.iter() {
        state = pkg.apply_gate(state, g, 8);
    }
    let arr = pkg.vector_to_array(state, 8);
    for idx in [0usize, 1, 17, 100, 255] {
        assert!(
            pkg.amplitude(state, idx).approx_eq(arr[idx], 1e-10),
            "idx={idx}"
        );
    }
}

#[test]
fn package_stats_monotone_peaks() {
    let pkg = DdPackage::default();
    let mut prev_peak = 0;
    for k in 1..=6usize {
        let _ = pkg.basis_state(8, k * 37 % 256);
        let s = pkg.stats();
        assert!(s.peak_v_nodes >= prev_peak);
        prev_peak = s.peak_v_nodes;
        assert!(s.v_nodes <= s.peak_v_nodes);
    }
}

#[test]
fn dd_phase_interns_a_weight_only_where_a_node_stores_it() {
    // A run pinned to the DD phase on a state that saturates at 4095 nodes:
    // the complex table ends with the weights nodes stored, not with every
    // product, sum and ratio the 176 multiplies went through. Instances of
    // `supremacy_n(12, 10, _)` end between 112 k and 297 k values (484 k to
    // 1152 k when every intermediate was interned), so the bound is the
    // family's, not one instance's.
    for seed in 1..=3 {
        let c = generators::supremacy_n(12, 10, seed);
        let cfg = FlatDdConfig {
            conversion: ConversionPolicy::Never,
            threads: 1,
            dd_threads: 1,
            ..Default::default()
        };
        let mut sim = FlatDdSimulator::try_new(12, cfg).unwrap();
        sim.run(&c).unwrap();
        let stats = sim.package().stats();
        assert!(
            stats.peak_v_nodes >= 4095,
            "seed {seed}: state never saturated"
        );
        assert!(
            stats.complex_values <= 400_000,
            "seed {seed}: {} interned values",
            stats.complex_values
        );
    }
}
