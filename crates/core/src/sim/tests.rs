//! Unit tests of the hybrid driver.

use super::*;
use crate::govern::GovernorConfig;
use qcircuit::complex::state_distance;
use qcircuit::{dense, generators};
use std::time::Duration;

const TOL: f64 = 1e-8;

fn cfg(threads: usize) -> FlatDdConfig {
    FlatDdConfig {
        threads,
        governor: GovernorConfig::unlimited(),
        ..FlatDdConfig::default()
    }
}

#[test]
fn default_config_matches_dense_on_all_families() {
    for c in [
        generators::ghz(7),
        generators::adder_n(8),
        generators::qft(6),
        generators::dnn(6, 2, 5),
        generators::vqe(6, 2, 5),
        generators::swap_test(3, 5),
        generators::knn(3, 5),
        generators::supremacy(2, 3, 6, 5),
        generators::w_state(6),
        generators::random_circuit(6, 80, 5),
    ] {
        let got = simulate(&c, cfg(4));
        let want = dense::simulate(&c);
        assert!(state_distance(&got, &want) < TOL, "{}", c.name());
    }
}

#[test]
fn all_conversion_policies_agree() {
    let c = generators::dnn(6, 2, 9);
    let want = dense::simulate(&c);
    for conversion in [
        ConversionPolicy::Ewma(EwmaConfig::default()),
        ConversionPolicy::AtGate(5),
        ConversionPolicy::Immediate,
        ConversionPolicy::Never,
    ] {
        let got = simulate(
            &c,
            FlatDdConfig {
                conversion,
                ..cfg(2)
            },
        );
        assert!(state_distance(&got, &want) < TOL, "{conversion:?}");
    }
}

#[test]
fn a_gate_eq_6_prices_below_eq_5_still_runs_algorithm_1() {
    // H on the top qubit at two groups repeats one identity block per
    // group: Eq. 6 prices it at 3,584 MACs per group against Eq. 5's 4,096,
    // so `min(C1, C2)` would send it to Algorithm 2. The engine runs
    // Algorithm 1 and charges Eq. 5.
    let n = 12;
    let mut c = Circuit::new(n);
    c.h(n - 1);
    let mut sim = FlatDdSimulator::new(
        n,
        FlatDdConfig {
            conversion: ConversionPolicy::Immediate,
            ..cfg(2)
        },
    );
    sim.run(&c).unwrap();
    let st = sim.stats();
    assert_eq!((st.gates_dmav, st.cached_dmavs, st.cache_hits), (1, 0, 0));
    assert_eq!(st.modeled_cost, 4096.0);
    assert!(state_distance(&sim.amplitudes(), &dense::simulate(&c)) < 1e-12);
}

#[test]
fn all_fusion_policies_agree() {
    let c = generators::dnn(6, 3, 13);
    let want = dense::simulate(&c);
    for fusion in [
        FusionPolicy::None,
        FusionPolicy::DmavAware,
        FusionPolicy::KOperations(4),
    ] {
        let got = simulate(
            &c,
            FlatDdConfig {
                fusion,
                conversion: ConversionPolicy::Immediate,
                ..cfg(4)
            },
        );
        assert!(state_distance(&got, &want) < TOL, "{fusion:?}");
    }
}

#[test]
fn regular_circuits_never_convert() {
    let mut sim = FlatDdSimulator::new(10, cfg(2));
    let outcome = sim.run(&generators::ghz(10)).unwrap();
    assert_eq!(sim.phase(), Phase::Dd);
    assert_eq!(sim.stats().converted_at, None);
    assert_eq!(sim.stats().gates_dd, 10);
    assert_eq!(sim.stats().gates_dmav, 0);
    assert!(outcome.is_complete());
    assert_eq!(outcome.gates_applied, 10);
    assert_eq!(outcome.phase, Phase::Dd);
}

#[test]
fn irregular_circuits_convert() {
    let n = 10;
    let mut sim = FlatDdSimulator::new(n, cfg(2));
    sim.run(&generators::dnn(n, 3, 21)).unwrap();
    assert_eq!(sim.phase(), Phase::Dmav, "DNN must trigger conversion");
    let at = sim.stats().converted_at.expect("conversion gate recorded");
    assert!(at > 0);
    assert!(sim.stats().gates_dmav > 0);
    let want = dense::simulate(&generators::dnn(n, 3, 21));
    assert!(state_distance(&sim.amplitudes(), &want) < TOL);
}

#[test]
fn trace_records_phase_transition() {
    let n = 8;
    let c = generators::dnn(n, 3, 2);
    let mut sim = FlatDdSimulator::new(
        n,
        FlatDdConfig {
            trace: true,
            ..cfg(2)
        },
    );
    sim.run(&c).unwrap();
    let traces = sim.traces();
    assert!(!traces.is_empty());
    let dd_gates = traces.iter().filter(|t| t.phase == Phase::Dd).count();
    let dmav_gates = traces.iter().filter(|t| t.phase == Phase::Dmav).count();
    assert!(
        dd_gates > 0 && dmav_gates > 0,
        "dd={dd_gates} dmav={dmav_gates}"
    );
    // DD-phase records carry the DD size.
    assert!(traces
        .iter()
        .filter(|t| t.phase == Phase::Dd)
        .all(|t| t.dd_size.is_some()));
}

#[test]
fn threads_are_clamped() {
    let sim = FlatDdSimulator::new(4, cfg(64));
    assert_eq!(sim.threads(), 8); // 2^(4-1)
    let sim = FlatDdSimulator::new(10, cfg(6));
    assert_eq!(sim.threads(), 4); // round down to power of two
}

#[test]
fn apply_level_api_matches_run() {
    let c = generators::random_circuit(6, 50, 31);
    let mut a = FlatDdSimulator::new(6, cfg(2));
    for g in c.iter() {
        a.apply(g).unwrap();
    }
    let mut b = FlatDdSimulator::new(6, cfg(2));
    b.run(&c).unwrap();
    assert!(state_distance(&a.amplitudes(), &b.amplitudes()) < TOL);
}

#[test]
fn amplitude_queries_work_in_both_phases() {
    let mut sim = FlatDdSimulator::new(5, cfg(2));
    sim.run(&generators::ghz(5)).unwrap();
    assert!(sim.amplitude(0).abs() > 0.7 - TOL);
    assert_eq!(sim.phase(), Phase::Dd);
    sim.convert_now().unwrap();
    assert_eq!(sim.phase(), Phase::Dmav);
    assert!(sim.amplitude(0).abs() > 0.7 - TOL);
    assert!(sim.amplitude(31).abs() > 0.7 - TOL);
}

#[test]
fn modeled_cost_sums_eq_5_on_real_workloads() {
    let (n, t) = (8, 4);
    let c = generators::supremacy(2, 4, 8, 7);
    let mut sim = FlatDdSimulator::new(
        n,
        FlatDdConfig {
            conversion: ConversionPolicy::Immediate,
            ..cfg(t)
        },
    );
    sim.run(&c).unwrap();
    let st = sim.stats();
    assert_eq!((st.cached_dmavs, st.uncached_dmavs), (0, st.gates_dmav));
    assert_eq!(st.gates_dmav, c.num_gates());
    let pkg = DdPackage::default();
    let k1_per_group: f64 = c
        .iter()
        .map(|g| qdd::mac_count(&pkg, pkg.gate_dd(g, n)) as f64 / t as f64)
        .sum();
    assert_eq!(st.modeled_cost, k1_per_group);
}

#[test]
fn plan_cache_hits_on_deep_repeated_gate_circuits() {
    // 50 identical layers: after the first layer every gate matrix is a
    // repeat, so nearly every DMAV plan lookup must hit.
    let n = 8;
    let mut c = Circuit::new(n);
    for _ in 0..50 {
        for q in 0..n {
            c.h(q);
            c.t(q);
        }
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
    }
    let mut sim = FlatDdSimulator::new(
        n,
        FlatDdConfig {
            conversion: ConversionPolicy::Immediate,
            ..cfg(4)
        },
    );
    sim.run(&c).unwrap();
    let st = sim.stats();
    // One plan lookup per DMAV.
    assert_eq!(st.dmav_plan_hits + st.dmav_plan_misses, st.gates_dmav);
    let rate = st.dmav_plan_hits as f64 / st.gates_dmav as f64;
    assert!(rate > 0.9, "plan hit rate {rate} over {}", st.gates_dmav);
}

#[test]
fn memory_accounting_is_positive() {
    let mut sim = FlatDdSimulator::new(6, cfg(2));
    sim.run(&generators::dnn(6, 2, 1)).unwrap();
    assert!(sim.memory_bytes() > 0);
}

#[test]
fn a_run_that_never_fuses_holds_one_state_vector() {
    // Every single-gate matrix has an in-place form on one shard, so the
    // output vector of the out-of-place walk is never allocated.
    let n = 12;
    let c = generators::supremacy_n(n, 6, 1);
    let mut sim = FlatDdSimulator::new(n, cfg(1));
    sim.run(&c).unwrap();
    let PhaseState::Flat(flat) = &sim.phase else {
        panic!("supremacy converts");
    };
    let one_vector = (1usize << n) * std::mem::size_of::<Complex64>();
    assert!(flat.vector_bytes() < one_vector * 11 / 10);
    let stats = sim.stats();
    assert!(stats.gates_dmav > 0);
    assert_eq!(stats.cached_dmavs + stats.uncached_dmavs, stats.gates_dmav);
    assert!(state_distance(&sim.amplitudes(), &dense::simulate(&c)) < 1e-12);
    // The same run on two shards meets gates that cross the shard border.
    let mut sharded = FlatDdSimulator::new(
        n,
        FlatDdConfig {
            flat_shards: 2,
            ..cfg(2)
        },
    );
    sharded.run(&c).unwrap();
    let PhaseState::Flat(flat) = &sharded.phase else {
        panic!("supremacy converts");
    };
    assert_eq!(flat.vector_bytes(), 2 * one_vector);
    assert!(state_distance(&sharded.amplitudes(), &dense::simulate(&c)) < 1e-12);
}

#[test]
fn sampling_and_marginals_agree_across_phases() {
    let c = generators::ghz(6);
    // DD phase.
    let mut dd = FlatDdSimulator::new(6, cfg(2));
    dd.run(&c).unwrap();
    assert_eq!(dd.phase(), Phase::Dd);
    // Forced flat phase.
    let mut flat = FlatDdSimulator::new(6, cfg(2));
    flat.run(&c).unwrap();
    flat.convert_now().unwrap();
    assert_eq!(flat.phase(), Phase::Dmav);
    for q in 0..6 {
        let a = dd.qubit_probability_one(q);
        let b = flat.qubit_probability_one(q);
        assert!((a - b).abs() < 1e-9 && (a - 0.5).abs() < 1e-9, "q={q}");
    }
    let mut rng = qdd::SplitMix64::new(4);
    for _ in 0..50 {
        let x = dd.sample(&mut rng.as_fn());
        assert!(x == 0 || x == 63);
        let y = flat.sample(&mut rng.as_fn());
        assert!(y == 0 || y == 63);
    }
    let counts = flat.sample_counts(100, &mut rng.as_fn());
    assert!(counts.len() <= 2);
}

#[test]
fn expectation_agrees_across_phases() {
    use qcircuit::{Hamiltonian, PauliString};
    let c = generators::vqe(6, 2, 5);
    let ham = Hamiltonian::transverse_ising(6, 1.0, 0.4);
    let mut a = FlatDdSimulator::new(
        6,
        FlatDdConfig {
            conversion: ConversionPolicy::Never,
            ..cfg(2)
        },
    );
    a.run(&c).unwrap();
    let ea = a.expectation(&ham);
    let mut b = FlatDdSimulator::new(
        6,
        FlatDdConfig {
            conversion: ConversionPolicy::Immediate,
            ..cfg(2)
        },
    );
    b.run(&c).unwrap();
    let eb = b.expectation(&ham);
    assert!((ea - eb).abs() < 1e-8, "{ea} vs {eb}");
    let p = PauliString::zz(1.0, 0, 1);
    assert!((a.expectation_pauli(&p) - b.expectation_pauli(&p)).abs() < 1e-8);
}

#[test]
fn reconversion_restores_the_dd_phase() {
    // Hidden-shift ends in a basis state: after running flat, the back
    // conversion must produce a tiny DD.
    let n = 8;
    let shift = 0b1011_0010u64;
    let c = generators::hidden_shift(n, shift);
    let mut sim = FlatDdSimulator::new(
        n,
        FlatDdConfig {
            conversion: ConversionPolicy::Immediate,
            ..cfg(2)
        },
    );
    sim.run(&c).unwrap();
    assert_eq!(sim.phase(), Phase::Dmav);
    let size = sim.reconvert_to_dd().expect("was flat");
    assert_eq!(sim.phase(), Phase::Dd);
    assert!(
        size <= n,
        "final basis state must compress to <= n nodes, got {size}"
    );
    assert!((sim.amplitude(shift as usize).abs() - 1.0).abs() < 1e-8);
    // Reconverting again is a no-op.
    assert!(sim.reconvert_to_dd().is_none());
    // And the engine keeps working in the DD phase.
    sim.apply(&qcircuit::Gate::new(qcircuit::GateKind::X, 0))
        .unwrap();
    assert!((sim.amplitude((shift ^ 1) as usize).abs() - 1.0).abs() < 1e-8);
}

#[test]
fn round_trip_conversion_preserves_state() {
    let c = generators::dnn(7, 2, 3);
    let mut sim = FlatDdSimulator::new(7, cfg(2));
    sim.run(&c).unwrap();
    let before = sim.amplitudes();
    if sim.phase() == Phase::Dd {
        sim.convert_now().unwrap();
    }
    sim.reconvert_to_dd();
    sim.convert_now().unwrap();
    let after = sim.amplitudes();
    assert!(state_distance(&before, &after) < 1e-9);
}

#[test]
fn measurement_collapse_in_both_phases() {
    let c = generators::ghz(5);
    let mut rng = qdd::SplitMix64::new(8);
    for convert in [false, true] {
        let mut sim = FlatDdSimulator::new(5, cfg(2));
        sim.run(&c).unwrap();
        if convert {
            sim.convert_now().unwrap();
        }
        let outcome = sim.measure_qubit(2, &mut rng.as_fn());
        for q in 0..5 {
            let p1 = sim.qubit_probability_one(q);
            assert!(
                (p1 - if outcome { 1.0 } else { 0.0 }).abs() < 1e-9,
                "convert={convert} q={q}"
            );
        }
    }
}

// ------------------------------------------------------------------
// Governor behavior
// ------------------------------------------------------------------

#[test]
fn zero_qubits_is_invalid_input_not_a_panic() {
    let err = FlatDdSimulator::try_new(0, cfg(1)).err();
    assert!(
        matches!(err, Some(FlatDdError::InvalidInput(_))),
        "expected InvalidInput, got {err:?}"
    );
}

#[test]
fn width_mismatch_is_invalid_input() {
    let mut sim = FlatDdSimulator::new(4, cfg(1));
    let err = sim.run(&generators::ghz(6)).unwrap_err();
    assert!(matches!(err, FlatDdError::InvalidInput(_)));
    assert_eq!(err.exit_code(), 2);
}

#[test]
fn zero_deadline_returns_partial_outcome() {
    let mut g = cfg(2);
    g.governor.deadline = Some(Duration::ZERO);
    let mut sim = FlatDdSimulator::new(8, g);
    std::thread::sleep(Duration::from_millis(2));
    let err = sim.run(&generators::ghz(8)).unwrap_err();
    match &err {
        FlatDdError::Deadline { partial, .. } => {
            assert_eq!(partial.total_gates, 8);
            assert_eq!(partial.gates_applied, 0, "deadline checked pre-gate");
            assert!(!partial.is_complete());
            assert_eq!(partial.phase, Phase::Dd);
        }
        other => panic!("expected Deadline, got {other:?}"),
    }
    assert_eq!(err.exit_code(), 5);
}

#[test]
fn refused_conversion_keeps_run_in_dd_mode() {
    // Budget admits the DD tables and one 2^20 flat buffer (16 MiB) but not
    // the two a two-thread run holds (2 * 16 MiB), so the forced AtGate
    // conversion must be refused and the run still complete correctly in
    // DD mode.
    let n = 20;
    let mut g = cfg(2);
    g.conversion = ConversionPolicy::AtGate(3);
    g.governor.memory_budget_bytes = Some(24 * 1024 * 1024);
    let mut sim = FlatDdSimulator::new(n, g);
    let c = generators::ghz(n);
    let outcome = sim.run(&c).expect("GHZ DD tables fit 24 MiB");
    assert!(outcome.is_complete());
    assert_eq!(sim.phase(), Phase::Dd, "conversion must have been refused");
    assert!(sim.stats().conversion_refusals >= 1);
    assert_eq!(sim.stats().converted_at, None);
    assert!((sim.amplitude(0).abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-9);
}

#[test]
fn immediate_policy_over_budget_falls_back_to_dd() {
    // One in-place 2^20 flat buffer, 16 MiB, against an 8 MiB budget that
    // the DD phase fits.
    let mut g = cfg(1);
    g.conversion = ConversionPolicy::Immediate;
    g.governor.memory_budget_bytes = Some(8 * 1024 * 1024);
    let sim = FlatDdSimulator::new(20, g);
    assert_eq!(sim.phase(), Phase::Dd);
    assert_eq!(sim.stats().conversion_refusals, 1);
}

#[test]
fn forced_conversion_over_budget_errors_with_refusal_recorded() {
    // The 16 MiB flat buffer alone is over the budget.
    let mut g = cfg(1);
    g.governor.memory_budget_bytes = Some(8 * 1024 * 1024);
    let mut sim = FlatDdSimulator::new(20, g);
    let err = sim.convert_now().unwrap_err();
    match err {
        FlatDdError::MemoryBudgetExceeded { context, .. } => {
            assert_eq!(context, "DD-to-array conversion");
        }
        other => panic!("expected MemoryBudgetExceeded, got {other:?}"),
    }
    assert_eq!(sim.stats().conversion_refusals, 1);
    assert_eq!(sim.phase(), Phase::Dd);
}

#[test]
fn one_qubit_circuits_run_under_governor() {
    let mut g = cfg(8); // threads clamp to 1 for n = 1
    g.governor.memory_budget_bytes = Some(1024 * 1024); // a fresh package holds ~0.6 MiB
    g.governor.deadline = Some(Duration::from_secs(60));
    let mut sim = FlatDdSimulator::new(1, g);
    assert_eq!(sim.threads(), 1);
    let mut c = Circuit::new(1);
    c.h(0);
    c.z(0);
    c.h(0);
    let outcome = sim.run(&c).unwrap();
    assert!(outcome.is_complete());
    assert!((sim.amplitude(1).abs() - 1.0).abs() < 1e-9);
}

#[test]
fn divergence_watchdog_catches_non_unitary_evolution() {
    use qcircuit::{Gate, GateKind};
    let mut g = cfg(1);
    g.governor.health_check_every = 1;
    let mut sim = FlatDdSimulator::new(3, g);
    // 2*I is not unitary: the state norm doubles on application.
    let double = [
        Complex64::new(2.0, 0.0),
        Complex64::ZERO,
        Complex64::ZERO,
        Complex64::new(2.0, 0.0),
    ];
    let err = sim
        .apply(&Gate::new(GateKind::Unitary(double), 0))
        .unwrap_err();
    match err {
        FlatDdError::NumericalDivergence { norm, .. } => {
            assert!((norm - 2.0).abs() < 1e-9, "norm {norm}");
        }
        other => panic!("expected NumericalDivergence, got {other:?}"),
    }
}

#[test]
fn run_after_deadline_error_reports_progress() {
    // Set a deadline that expires mid-run: first gates apply, then the
    // error carries the partial gate count.
    let mut g = cfg(2);
    g.governor.deadline = Some(Duration::from_millis(5));
    let mut sim = FlatDdSimulator::new(10, g);
    // Enough gates that 5 ms cannot possibly finish them all... not
    // guaranteed on fast machines, so loop until the deadline trips.
    let c = generators::random_circuit(10, 200, 3);
    let mut last = None;
    for _ in 0..200 {
        match sim.run(&c) {
            Ok(_) => {}
            Err(e) => {
                last = Some(e);
                break;
            }
        }
    }
    let err = last.expect("repeated runs must eventually pass the 5 ms deadline");
    let partial = err.partial_outcome().expect("deadline carries partial");
    assert!(partial.gates_applied <= partial.total_gates);
}

/// `c` from `|0...0>` in the flat phase on `shards` groups, in a run
/// context of its own and with the watchdog off (so only a run's own cuts
/// bound it), through `run` (consecutive in-place matrices fold into
/// blocked runs) or gate by gate through `apply` (one matrix per step),
/// traced; with a checkpoint every 10 gates into `ckpt` when given.
fn flat_run(
    c: &Circuit,
    shards: usize,
    by_gate: bool,
    ckpt: Option<&std::path::Path>,
) -> FlatDdSimulator {
    let mut config = FlatDdConfig {
        threads: shards,
        flat_shards: shards,
        conversion: ConversionPolicy::Immediate,
        trace: true,
        ..cfg(shards)
    };
    config.governor.health_check_every = usize::MAX;
    let mut sim =
        FlatDdSimulator::try_new_with(c.num_qubits(), config, crate::RunContext::isolated())
            .unwrap();
    if let Some(path) = ckpt {
        sim.set_checkpoint_policy(Some(crate::CheckpointPolicy::at(path).every(10)));
    }
    if by_gate {
        c.iter().for_each(|g| sim.apply(g).unwrap());
    } else {
        sim.run(c).unwrap();
    }
    sim
}

#[test]
fn runs_leave_the_state_as_gate_by_gate_steps_do() {
    // n = 18 is wider than one block of 2^16: the runs walk several
    // blocks per shard and leave every amplitude as the per-gate walk
    // does. At n = 14 one block is the whole state and every gate joins,
    // so only the 64-gate cap ends a run. Each step is one trace record
    // and one gate event that says how many gates it folded; the DMAV
    // counters still count matrices.
    let wide = generators::supremacy_n(18, 5, 3);
    let narrow = generators::supremacy_n(14, 8, 3);
    for (c, shards) in [(&wide, 1), (&wide, 2), (&narrow, 1)] {
        let case = format!("{} shards={shards}", c.name());
        let runs = flat_run(c, shards, false, None);
        let gates = flat_run(c, shards, true, None);
        assert!(runs.amplitudes() == gates.amplitudes(), "{case}");
        let folded: Vec<usize> = runs.traces().iter().map(|t| t.gates).collect();
        assert_eq!(folded.iter().sum::<usize>(), c.num_gates());
        assert!(folded.iter().any(|&k| k > 1), "{case}: no run formed");
        let longest = folded.iter().copied().max().unwrap_or(0);
        assert!(longest <= 64, "{case}: a run past 64 gates: {folded:?}");
        if c.num_qubits() == 14 {
            assert_eq!(longest, 64, "{case}: {folded:?}");
        }
        assert!(gates.traces().iter().all(|t| t.gates == 1));
        let stats = runs.stats();
        assert_eq!(stats.gates_dmav, c.num_gates());
        assert_eq!(
            stats.dmav_plan_hits + stats.dmav_plan_misses,
            stats.gates_dmav
        );
        assert_eq!(
            (stats.dmav_plan_hits, stats.dmav_plan_misses),
            (gates.stats().dmav_plan_hits, gates.stats().dmav_plan_misses),
            "{case}: a matrix looked up while a run was formed is counted once, where it runs"
        );
    }
}

#[test]
fn runs_write_periodic_checkpoints_where_gate_by_gate_steps_do() {
    // Every 10 gates, on a circuit whose every gate joins a run: a run is
    // cut where a checkpoint falls due, so runs write as many checkpoints
    // as gate-by-gate steps and the last one at the same cursor.
    let c = generators::supremacy_n(14, 8, 3);
    let dir = std::env::temp_dir();
    let path = |what: &str| dir.join(format!("flatdd-runs-{what}-{}.fdcp", std::process::id()));
    let (runs_path, gates_path) = (path("runs"), path("gates"));
    let runs = flat_run(&c, 1, false, Some(&runs_path));
    let gates = flat_run(&c, 1, true, Some(&gates_path));
    let writes = |sim: &FlatDdSimulator| sim.context().metrics().counter("checkpoint.writes").get();
    assert_eq!(writes(&runs), (c.num_gates() / 10) as u64);
    assert_eq!(writes(&runs), writes(&gates));
    let cursor = |p: &std::path::Path| crate::checkpoint::read_header(p).unwrap().gate_cursor;
    assert_eq!(cursor(&runs_path), cursor(&gates_path));
    assert_eq!(cursor(&runs_path) % 10, 0);
    for p in [runs_path, gates_path] {
        let _ = std::fs::remove_file(p);
    }
}

/// `core.watchdog_checks` of `sim`'s run context.
fn watchdog_checks(sim: &FlatDdSimulator) -> u64 {
    sim.context()
        .metrics()
        .counter("core.watchdog_checks")
        .get()
}

#[test]
fn health_checks_count_gates_across_fused_blocks_and_runs() {
    // Every 8 gates: a run is cut where the count comes due, so a run of
    // gates checks exactly as often as gate-by-gate steps; a fused block
    // folds its gates into the count (checked after the block that reaches
    // it), where stepping by blocks checked once per eight blocks.
    let every = 8;
    let c = generators::dnn(10, 3, 4);
    for fusion in [FusionPolicy::None, FusionPolicy::DmavAware] {
        let mut config = FlatDdConfig {
            threads: 1,
            conversion: ConversionPolicy::Immediate,
            fusion,
            trace: true,
            ..cfg(1)
        };
        config.governor.health_check_every = every;
        let mut sim =
            FlatDdSimulator::try_new_with(10, config, crate::RunContext::isolated()).unwrap();
        sim.run(&c).unwrap();
        let steps: Vec<usize> = sim.traces().iter().map(|t| t.gates).collect();
        assert!(
            steps.iter().any(|&k| k > 1),
            "{fusion:?}: every step one gate"
        );
        let (mut since, mut due) = (0, 0);
        for k in &steps {
            since += k;
            if since >= every {
                (since, due) = (0, due + 1);
            }
        }
        assert_eq!(watchdog_checks(&sim), due, "{fusion:?}");
        if fusion == FusionPolicy::None {
            assert_eq!(due as usize, c.num_gates() / every);
        } else {
            assert!(
                due as usize > steps.len() / every,
                "{fusion:?}: counted steps"
            );
        }
    }
}

/// An 8-qubit state with qubits 1, 4 and 7 at |0> and 6 at |1> when it
/// converts after the first 12 gates, then gates the fixed qubits reduce: a
/// factor, a controlled phase onto an active qubit, a flip and a skip.
/// Returns the circuit, the flat run (still holding qubits out) and the
/// `Never` run of the same circuit.
fn held_out() -> (qcircuit::Circuit, FlatDdSimulator, FlatDdSimulator) {
    use qcircuit::{Control, Gate, GateKind};
    let n = 8;
    let mut c = qcircuit::Circuit::new(n);
    for q in [0, 2, 3, 5] {
        c.h(q);
    }
    c.x(6).t(0).cx(0, 2).t(2).cx(3, 5);
    c.push(Gate::new(GateKind::RY(0.4), 5)).cx(2, 3).t(3);
    c.z(6).cz(0, 6).x(1);
    c.push(Gate::controlled(GateKind::H, 3, vec![Control::pos(4)]));
    let run = |conversion| {
        let config = FlatDdConfig {
            conversion,
            ..cfg(2)
        };
        let mut sim =
            FlatDdSimulator::try_new_with(n, config, crate::RunContext::isolated()).unwrap();
        sim.run(&c).unwrap();
        sim
    };
    let flat = run(ConversionPolicy::AtGate(12));
    assert_eq!(flat.phase(), Phase::Dmav);
    let active = flat.context().metrics().gauge("sim.active_qubits").get();
    assert_eq!(active, 4.0, "qubits 1, 4, 6 and 7 held out");
    assert_eq!(flat.context().metrics().counter("sim.widenings").get(), 0);
    let dd = run(ConversionPolicy::Never);
    (c, flat, dd)
}

#[test]
fn full_width_readers_agree_with_the_dd_phase_while_qubits_are_held_out() {
    let (c, flat, dd) = held_out();
    let want = dense::simulate(&c);
    assert!(state_distance(&dd.amplitudes(), &want) < 1e-12);
    assert!(state_distance(&flat.amplitudes(), &want) < 1e-12);
    for (i, w) in want.iter().enumerate() {
        assert!(flat.amplitude(i).approx_eq(*w, 1e-12), "amplitude {i}");
    }
    // Every non-zero amplitude, compared as index -> amplitude.
    let (mut top, mut top_dd) = (flat.top_amplitudes(256), dd.top_amplitudes(256));
    top.sort_by_key(|&(i, _)| i);
    top_dd.sort_by_key(|&(i, _)| i);
    assert_eq!(top.len(), top_dd.len());
    for ((i, a), (j, b)) in top.iter().zip(&top_dd) {
        assert!(i == j && a.approx_eq(*b, 1e-12), "top {i} / {j}");
    }
    // The flat phase samples by inverse CDF over the full-width state (the
    // DD phase walks the diagram, which maps a draw elsewhere).
    let amps = dd.amplitudes();
    for k in 0..10 {
        let r = 0.05 + 0.1 * k as f64;
        assert_eq!(
            flat.sample(&mut || r),
            qarray::sample(&amps, &mut || r),
            "draw {r}"
        );
    }
    let draws = |seed| {
        let mut rng = qcircuit::rng::SplitMix64::new(seed);
        move || rng.next_f64()
    };
    assert_eq!(
        flat.sample_counts(200, &mut draws(3)),
        qarray::sample_counts(&amps, 200, &mut draws(3))
    );
    for q in 0..8 {
        let (a, b) = (flat.qubit_probability_one(q), dd.qubit_probability_one(q));
        assert!((a - b).abs() < 1e-12, "qubit {q}: {a} vs {b}");
    }
}

#[test]
fn observables_measurement_reconversion_and_checkpoints_see_the_full_state() {
    use qcircuit::{Hamiltonian, PauliString};
    let (c, mut flat, mut dd) = held_out();
    let ham = Hamiltonian::transverse_ising(8, 1.0, 0.4);
    assert!((flat.expectation(&ham) - dd.expectation(&ham)).abs() < 1e-12);
    for label in ["ZIIIIIZI", "XIIZIIIX", "IZYIIXII"] {
        let p = PauliString::parse(label).unwrap();
        let (a, b) = (flat.expectation_pauli(&p), dd.expectation_pauli(&p));
        assert!((a - b).abs() < 1e-12, "{label}: {a} vs {b}");
    }
    // The FDCP1 payload is the full-width state.
    let path = std::env::temp_dir().join(format!("flatdd-held-out-{}.fdcp", std::process::id()));
    flat.set_checkpoint_policy(Some(crate::CheckpointPolicy::at(&path)));
    flat.save_checkpoint().unwrap();
    let (_, state) = crate::checkpoint::read_checkpoint(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    match state {
        crate::checkpoint::CheckpointState::Flat(v) => assert!(v == flat.amplitudes()),
        _ => panic!("a flat checkpoint"),
    }
    // Measuring widens first: an active qubit and a held-out one.
    let mut twin = held_out().1;
    for (q, r) in [(2, 0.3), (6, 0.9)] {
        let (a, b) = (
            flat.measure_qubit(q, &mut || r),
            dd.measure_qubit(q, &mut || r),
        );
        assert_eq!(a, b, "qubit {q}");
        assert!(state_distance(&flat.amplitudes(), &dd.amplitudes()) < 1e-12);
    }
    assert_eq!(flat.context().metrics().counter("sim.widenings").get(), 4);
    // Reconversion reads the full state too.
    assert!(twin.reconvert_to_dd().is_some());
    assert!(state_distance(&twin.amplitudes(), &dense::simulate(&c)) < 1e-12);
}
