//! Structural assertions of the paper's headline claims — not timings, but
//! the mechanisms that produce them: regular circuits keep tiny DDs and
//! never convert; irregular circuits blow the DD up and convert; the cost
//! model steers caching; fusion reduces modeled cost; buffer sharing kicks
//! in for sparse gates.

use flatdd::{
    ConversionPolicy, CostModel, EwmaConfig, FlatDdConfig, FlatDdSimulator, FusionPolicy, Phase,
};
use qcircuit::generators;
use qdd::{DdPackage, DdSimulator, MacTable};

#[test]
fn regular_circuits_stay_in_dd_phase() {
    for c in [generators::ghz(12), generators::adder_n(12)] {
        let mut sim = FlatDdSimulator::new(
            c.num_qubits(),
            FlatDdConfig {
                threads: 2,
                ..Default::default()
            },
        );
        sim.run(&c).unwrap();
        assert_eq!(sim.phase(), Phase::Dd, "{} must not convert", c.name());
        assert!(sim.stats().peak_state_dd_size <= 3 * c.num_qubits());
    }
}

#[test]
fn irregular_circuits_convert_early() {
    // A statement about the families, so asserted over a seed set: every
    // instance converts, and the family's median conversion point lies in
    // the first half of the circuit. (One instance proves nothing either
    // way: a random supremacy circuit now and then stays regular for a
    // few more cycles.)
    type Family = fn(u64) -> qcircuit::Circuit;
    let families: [Family; 3] = [
        |seed| generators::dnn(10, 3, seed),
        |seed| generators::vqe(10, 3, seed),
        |seed| generators::supremacy_n(10, 12, seed),
    ];
    for family in families {
        let mut fractions: Vec<f64> = (1..=5)
            .map(|seed| {
                let c = family(seed);
                let mut sim = FlatDdSimulator::new(
                    c.num_qubits(),
                    FlatDdConfig {
                        threads: 2,
                        ..Default::default()
                    },
                );
                sim.run(&c).unwrap();
                assert_eq!(sim.phase(), Phase::Dmav, "{} must convert", c.name());
                sim.stats().converted_at.unwrap() as f64 / c.num_gates() as f64
            })
            .collect();
        fractions.sort_by(f64::total_cmp);
        assert!(
            fractions[2] < 0.5,
            "{}: conversion came too late (fractions of the circuit: {fractions:?})",
            family(1).name()
        );
    }
}

#[test]
fn dd_size_contrast_between_families() {
    // Figure 1's root cause: the state-DD size separates the families.
    let n = 10;
    let mut reg = DdSimulator::new(n);
    reg.run(&generators::adder_n(n));
    let regular_size = reg.state_dd_size();

    let mut irr = DdSimulator::new(n);
    irr.run(&generators::supremacy_n(n, 10, 1));
    let irregular_size = irr.state_dd_size();

    assert!(regular_size <= 2 * n);
    assert!(
        irregular_size > 10 * regular_size,
        "supremacy DD ({irregular_size}) should dwarf adder DD ({regular_size})"
    );
    // And the irregular DD approaches the worst case 2^n - ish scale.
    assert!(irregular_size > (1 << (n - 3)), "got {irregular_size}");
}

#[test]
fn ewma_epsilon_controls_conversion_timing() {
    // A larger epsilon tolerates more growth => converts later (or never).
    let c = generators::dnn(9, 3, 7);
    let at_for = |epsilon: f64| {
        let cfg = FlatDdConfig {
            threads: 2,
            conversion: ConversionPolicy::Ewma(EwmaConfig {
                epsilon,
                ..Default::default()
            }),
            ..Default::default()
        };
        let mut sim = FlatDdSimulator::new(9, cfg);
        sim.run(&c).unwrap();
        sim.stats().converted_at.unwrap_or(usize::MAX)
    };
    let tight = at_for(1.2);
    let loose = at_for(8.0);
    assert!(tight <= loose, "eps=1.2 gave {tight}, eps=8 gave {loose}");
}

#[test]
fn cost_model_prefers_caching_exactly_when_hits_pay() {
    let pkg = DdPackage::default();
    let mut mac = MacTable::default();
    let cm = CostModel::default();
    let n = 12;
    // Dense single-qubit gate on the TOP qubit: every thread re-multiplies
    // the same full-size block => caching wins.
    let top = pkg.gate_dd(&qcircuit::Gate::new(qcircuit::GateKind::H, n - 1), n);
    assert!(cm.analyze(&pkg, &mut mac, top, n, 4).prefer_cached());
    // Same gate on the BOTTOM qubit: the repeated blocks are below the
    // border level, border-level tasks are unique => no hits, no win.
    let bottom = pkg.gate_dd(&qcircuit::Gate::new(qcircuit::GateKind::H, 0), n);
    let a = cm.analyze(&pkg, &mut mac, bottom, n, 4);
    assert_eq!(a.hits, 0);
    assert!(!a.prefer_cached());
}

#[test]
fn fusion_cost_ordering_matches_table_2() {
    // Modeled cost: DMAV-aware <= no-fusion, and DMAV-aware <= k-operations
    // (on the deep irregular families the paper uses).
    let n = 8;
    for seed in [1u64, 9] {
        let c = generators::dnn(n, 3, seed);
        let run = |fusion: FusionPolicy| {
            let cfg = FlatDdConfig {
                threads: 4,
                fusion,
                conversion: ConversionPolicy::Immediate,
                ..Default::default()
            };
            let mut sim = FlatDdSimulator::new(n, cfg);
            sim.run(&c).unwrap();
            sim.stats().modeled_cost
        };
        let fused = run(FusionPolicy::DmavAware);
        let plain = run(FusionPolicy::None);
        let kops = run(FusionPolicy::KOperations(4));
        assert!(fused <= plain * 1.001, "fused {fused} vs plain {plain}");
        assert!(
            fused <= kops * 1.001,
            "fused {fused} vs k-operations {kops} (seed {seed})"
        );
    }
}

#[test]
fn per_gate_trace_shows_dd_blowup_then_flat_dmav() {
    // The Figure 11 mechanism: DD sizes in the trace grow up to conversion,
    // then the engine stays in DMAV (no dd_size recorded).
    let n = 10;
    let c = generators::supremacy_n(n, 12, 3);
    let mut sim = FlatDdSimulator::new(
        n,
        FlatDdConfig {
            threads: 2,
            trace: true,
            ..Default::default()
        },
    );
    sim.run(&c).unwrap();
    let traces = sim.traces();
    let conv = sim.stats().converted_at.expect("must convert");
    let max_dd_size = traces.iter().filter_map(|t| t.dd_size).max().unwrap();
    let first_size = traces.iter().find_map(|t| t.dd_size).unwrap();
    // With epsilon = 2 the monitor fires as soon as the size doubles past
    // the moving average, so the observed blow-up is bounded but must still
    // clearly exceed the initial (regular) size.
    assert!(
        max_dd_size > 2 * first_size.max(1) && max_dd_size > n,
        "no blow-up seen: first={first_size}, max={max_dd_size}"
    );
    // After conversion, every trace entry is DMAV.
    for t in traces.iter().filter(|t| t.gate_index > conv) {
        assert_eq!(t.phase, Phase::Dmav);
    }
}

#[test]
fn flatdd_memory_below_ddsim_on_irregular_circuits() {
    // Table 1's memory claim, structurally: on an irregular circuit the DD
    // engine's peak node count implies more bytes than FlatDD's flat array
    // + matrix DDs.
    let n = 12;
    let c = generators::supremacy_n(n, 14, 5);
    let mut dd = DdSimulator::new(n);
    dd.run(&c);
    let dd_bytes = dd.package().stats().memory_bytes;

    let mut fd = FlatDdSimulator::new(
        n,
        FlatDdConfig {
            threads: 2,
            ..Default::default()
        },
    );
    fd.run(&c).unwrap();
    let fd_bytes = fd.memory_bytes();
    assert!(
        fd_bytes < dd_bytes,
        "flatdd {fd_bytes} bytes should undercut ddsim {dd_bytes} bytes here"
    );
}

#[test]
fn never_policy_is_ddsim_equivalent() {
    // With conversion disabled FlatDD must match the DD engine node-for-node
    // on final amplitudes.
    let c = generators::qft(8);
    let a = flatdd::simulate(
        &c,
        FlatDdConfig {
            threads: 1,
            conversion: ConversionPolicy::Never,
            ..Default::default()
        },
    );
    let b = qdd::sim::simulate(&c);
    assert!(qcircuit::complex::state_distance(&a, &b) < 1e-10);
}

#[test]
fn dmav_aware_fusion_keeps_knn_in_several_small_matrices() {
    // After knn converts, its controlled swaps fold into a permutation with
    // no in-place form; a price that kept such products folded the whole
    // flat phase into one matrix of 7,712 (m = 6) to 117,983 (m = 8) peak
    // matrix nodes. Fusion now refuses them: the flat phase runs 15-21
    // matrices and the package peaks at a few hundred matrix nodes.
    for m in 6..=8 {
        let c = generators::knn(m, 7);
        let cfg = FlatDdConfig {
            threads: 1,
            fusion: FusionPolicy::DmavAware,
            ..Default::default()
        };
        let mut sim = FlatDdSimulator::new(c.num_qubits(), cfg);
        sim.run(&c).unwrap();
        assert!(sim.stats().converted_at.is_some(), "knn({m}) converts");
        assert!(sim.stats().fused_matrices > 1, "knn({m}): one product");
        let peak = sim.package().stats().peak_m_nodes;
        assert!(peak < 2_000, "knn({m}): {peak} peak matrix nodes");
    }
}
