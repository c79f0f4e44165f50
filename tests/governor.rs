//! End-to-end resource-governor behavior at paper-relevant scale.
//!
//! The headline guarantee: a 26-qubit run whose memory budget cannot hold
//! the 2^26-amplitude flat array (1 GiB of Complex64) must still complete — the
//! governor refuses the DD-to-array conversion, records the refusal, and
//! the run finishes in DD mode instead of aborting or getting OOM-killed.

use flatdd::{
    CheckpointPolicy, ConversionPolicy, FlatDdConfig, FlatDdError, FlatDdSimulator, FusionPolicy,
    GovernorConfig, Phase,
};
use qcircuit::complex::state_distance;
use qcircuit::{dense, generators};
use std::time::Duration;

fn governed(budget_bytes: usize) -> GovernorConfig {
    GovernorConfig {
        memory_budget_bytes: Some(budget_bytes),
        ..GovernorConfig::unlimited()
    }
}

#[test]
fn qubits_26_under_1gib_budget_complete_in_dd_mode() {
    // GHZ stays regular, so the DD itself is tiny; AtGate(3) forces a
    // conversion attempt that needs 2^26 * 16 B = 1 GiB — far over the
    // 256 MiB budget. The run must degrade to DD-only, not fail.
    let n = 26;
    let budget = 256usize << 20;
    assert!(budget < (1usize << n) * 16, "budget must not fit the array");
    let cfg = FlatDdConfig {
        threads: 2,
        conversion: ConversionPolicy::AtGate(3),
        governor: governed(budget),
        ..Default::default()
    };
    let mut sim = FlatDdSimulator::try_new(n, cfg).unwrap();
    let outcome = sim.run(&generators::ghz(n)).unwrap();

    assert!(outcome.is_complete(), "run must finish despite the budget");
    assert_eq!(sim.phase(), Phase::Dd, "must stay in the DD phase");
    assert!(
        sim.stats().conversion_refusals >= 1,
        "the refused conversion must be visible in stats"
    );
    assert!(sim.stats().converted_at.is_none());
    // The state is still correct: GHZ amplitudes at |0..0> and |1..1>.
    let a0 = sim.amplitude(0);
    let a1 = sim.amplitude((1usize << n) - 1);
    assert!((a0.abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-9);
    assert!((a1.abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-9);
}

#[test]
fn deadline_breach_surfaces_partial_progress() {
    let n = 16;
    let cfg = FlatDdConfig {
        threads: 1,
        governor: GovernorConfig {
            deadline: Some(Duration::ZERO),
            ..GovernorConfig::unlimited()
        },
        ..Default::default()
    };
    let mut sim = FlatDdSimulator::try_new(n, cfg).unwrap();
    let c = generators::ghz(n);
    let err = sim.run(&c).unwrap_err();
    match &err {
        FlatDdError::Deadline { partial, .. } => {
            assert_eq!(partial.total_gates, c.num_gates());
            assert!(!partial.is_complete());
        }
        other => panic!("expected Deadline, got {other}"),
    }
    assert_eq!(err.exit_code(), 5);
}

#[test]
fn env_lookup_governs_without_code_changes() {
    // `from_lookup` is the testable spine of `from_env`: the same strings
    // CI exports must parse into byte/second budgets.
    let cfg = GovernorConfig::from_lookup(|k| match k {
        "FLATDD_MEMORY_BUDGET_MB" => Some("256".into()),
        "FLATDD_DEADLINE_SECS" => Some("30".into()),
        _ => None,
    });
    assert_eq!(cfg.memory_budget_bytes, Some(256 << 20));
    assert_eq!(cfg.deadline, Some(Duration::from_secs(30)));
    assert_eq!(cfg.rss_budget_bytes, None);
}

#[test]
fn conversion_admission_asks_for_the_vectors_the_run_will_hold() {
    // GHZ keeps the DD tiny, so the budget is about the flat vector: at
    // n = 20 it is 16 MiB, and the package's tables account at most 8 MiB
    // more (less once the ladder's flush has shrunk them). 28 MiB holds one
    // vector and never two — and one is all the flat phase holds, fused or
    // not, on one shard or two (every matrix runs in place).
    let n = 20;
    let c = generators::ghz(n);
    for fusion in [FusionPolicy::None, FusionPolicy::DmavAware] {
        for threads in [1, 2] {
            let cfg = FlatDdConfig {
                threads,
                fusion,
                conversion: ConversionPolicy::AtGate(3),
                governor: governed(28 << 20),
                ..Default::default()
            };
            let case = format!("{fusion:?} threads={threads}");
            let mut sim = FlatDdSimulator::try_new(n, cfg).unwrap();
            assert!(sim.run(&c).unwrap().is_complete(), "{case}");
            assert_eq!(sim.phase(), Phase::Dmav, "{case}");
            assert_eq!(sim.stats().conversion_refusals, 0, "{case}");
            assert!(sim.stats().converted_at.is_some(), "{case}");
            let d = state_distance(&sim.amplitudes(), &dense::simulate(&c));
            assert!(d < 1e-12, "{case}: {d:e}");
        }
    }
}

#[test]
fn flat_phase_over_budget_is_typed_and_resumable() {
    // A flat checkpoint resumes with the state alone. What follows the cut
    // opens with a SWAP written as three CXs, which fusion once folded into
    // a permutation with no in-place form; now every fused matrix runs in
    // place, so a budget of one vector and a half runs the rest of the
    // circuit. A budget of one vector cannot hold the resumed state beside
    // the package, whatever the ladder frees: the first step breaches it,
    // typed, with the cursor and the partial outcome in step, and the run
    // resumes from its on-breach checkpoint.
    let n = 12;
    let mut c = generators::dnn(n, 1, 3);
    let cut = c.num_gates();
    c.cx(0, 5).cx(5, 0).cx(0, 5);
    c.extend(&generators::dnn(n, 1, 4));
    let unbudgeted = FlatDdConfig {
        threads: 1,
        conversion: ConversionPolicy::AtGate(4),
        fusion: FusionPolicy::DmavAware,
        ..Default::default()
    };
    let path = |tag: &str| {
        std::env::temp_dir().join(format!(
            "flatdd-governor-test-{}-{tag}.ckpt",
            std::process::id()
        ))
    };
    let (at_cut, breach) = (path("cut"), path("breach"));
    let mut first = FlatDdSimulator::try_new(n, unbudgeted).unwrap();
    first.set_checkpoint_policy(Some(CheckpointPolicy::at(&at_cut)));
    first.run_prefix(&c, cut).unwrap();
    assert_eq!(first.phase(), Phase::Dmav);
    first.save_checkpoint().unwrap();
    let want = dense::simulate(&c);

    // The governor is not part of the checkpoint's config fingerprint. The
    // DD phase's footprint counts in full: nothing relieves it first.
    let dd_phase = FlatDdSimulator::try_new(n, unbudgeted)
        .unwrap()
        .memory_bytes();
    let vector = (1usize << n) * 16;
    let mut budgeted = unbudgeted;
    budgeted.governor = governed(dd_phase + 3 * vector / 2);
    let (mut resumed, _) = FlatDdSimulator::resume_from(&at_cut, budgeted, &c).unwrap();
    assert!(resumed.run_from(&c).unwrap().is_complete());
    assert!(resumed.stats().fused_matrices > 0);
    assert!(state_distance(&resumed.amplitudes(), &want) < 1e-12);

    budgeted.governor = governed(vector);
    let (mut resumed, _) = FlatDdSimulator::resume_from(&at_cut, budgeted, &c).unwrap();
    resumed.set_checkpoint_policy(Some(CheckpointPolicy::at(&breach)));
    let err = resumed.run_from(&c).unwrap_err();
    match &err {
        FlatDdError::MemoryBudgetExceeded { partial, .. } => {
            assert_eq!(partial.gates_applied, resumed.gates_applied());
            assert!(partial.gates_applied >= cut);
            assert_eq!(partial.phase, Phase::Dmav);
        }
        other => panic!("expected MemoryBudgetExceeded, got {other}"),
    }
    assert!(err.is_resumable());
    let (mut again, _) = FlatDdSimulator::resume_from(&breach, unbudgeted, &c).unwrap();
    assert_eq!(again.gates_applied(), resumed.gates_applied());
    again.run_from(&c).unwrap();
    assert!(state_distance(&again.amplitudes(), &want) < 1e-12);
    for p in [at_cut, breach] {
        let _ = std::fs::remove_file(p);
    }
}
