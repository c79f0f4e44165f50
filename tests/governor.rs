//! End-to-end resource-governor behavior at paper-relevant scale.
//!
//! The headline guarantee (ISSUE acceptance): a 26-qubit run whose memory
//! budget cannot hold the 2^26-amplitude flat array (1 GiB of Complex64,
//! times two for the conversion scratch buffer) must still complete — the
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
    // conversion attempt that needs 2 * 2^26 * 16 B = 2 GiB — far over the
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
    // GHZ keeps the DD tiny, so the budget is about the flat vectors: at
    // n = 20 one is 16 MiB, and the package's tables account at most 8 MiB
    // more (less once the ladder's flush has shrunk them). 28 MiB holds one
    // vector and never two.
    let n = 20;
    let c = generators::ghz(n);
    let cfg = FlatDdConfig {
        threads: 1,
        conversion: ConversionPolicy::AtGate(3),
        governor: governed(28 << 20),
        ..Default::default()
    };

    // No fusion on one shard: every gate runs in place, the state is the
    // only vector, and it fits.
    let mut sim = FlatDdSimulator::try_new(n, cfg).unwrap();
    sim.run(&c).unwrap();
    assert_eq!(sim.phase(), Phase::Dmav);
    assert_eq!(sim.stats().conversion_refusals, 0);
    assert!(sim.stats().converted_at.is_some());
    assert!(state_distance(&sim.amplitudes(), &dense::simulate(&c)) < 1e-12);

    // Fused matrices take the out-of-place walk, so the same budget cannot
    // hold the run: refused where the conversion asks, not at the first
    // fused block, and the run completes DD-based.
    let fused = FlatDdConfig {
        fusion: FusionPolicy::DmavAware,
        ..cfg
    };
    let mut sim = FlatDdSimulator::try_new(n, fused).unwrap();
    let outcome = sim.run(&c).unwrap();
    assert!(outcome.is_complete());
    assert_eq!(sim.phase(), Phase::Dd);
    assert_eq!(sim.stats().conversion_refusals, 1);
    assert_eq!(sim.stats().converted_at, None);
    assert_eq!(sim.stats().gates_dmav, 0);
}

#[test]
fn output_vector_refused_at_the_point_of_need_is_typed_and_resumable() {
    // A flat checkpoint resumes with the state alone; under a budget that
    // cannot hold a second vector the first out-of-place block is refused
    // before it runs, with the cursor and the state where the checkpoint
    // left them. Priced by the walk it will take, fusion leaves `dnn`'s
    // rotations and diagonal layers in place; what still fuses into a
    // matrix without an in-place form is a permutation — here a SWAP
    // written as three CXs, which opens the span after the cut.
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
    let path = std::env::temp_dir().join(format!(
        "flatdd-governor-test-{}-output-vector.ckpt",
        std::process::id()
    ));
    let mut first = FlatDdSimulator::try_new(n, unbudgeted).unwrap();
    first.set_checkpoint_policy(Some(CheckpointPolicy::at(&path)));
    first.run_prefix(&c, cut).unwrap();
    assert_eq!(first.phase(), Phase::Dmav);
    first.save_checkpoint().unwrap();
    let at_cut = first.amplitudes();

    // The governor is not part of the checkpoint's config fingerprint.
    let mut budgeted = unbudgeted;
    // The DD phase's footprint plus one and a half vectors: no relief is
    // attempted at the point of need, so the tables count in full.
    let dd_phase = FlatDdSimulator::try_new(n, unbudgeted)
        .unwrap()
        .memory_bytes();
    budgeted.governor = governed(dd_phase + 3 * (1usize << n) * 16 / 2);
    let (mut resumed, _) = FlatDdSimulator::resume_from(&path, budgeted, &c).unwrap();
    let err = resumed.run_from(&c).unwrap_err();
    match &err {
        FlatDdError::MemoryBudgetExceeded {
            context, partial, ..
        } => {
            assert_eq!(*context, "DMAV output vector");
            assert_eq!(partial.gates_applied, cut);
            assert_eq!(partial.phase, Phase::Dmav);
        }
        other => panic!("expected MemoryBudgetExceeded, got {other}"),
    }
    assert!(err.is_resumable());
    assert_eq!(resumed.gates_applied(), cut);
    assert!(
        resumed.amplitudes() == at_cut,
        "the refused gate moved the state"
    );
    let _ = std::fs::remove_file(&path);
}
