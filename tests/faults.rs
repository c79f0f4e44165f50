//! Fault-injection integration: every `FLATDD_FAULTS` site must turn into
//! the documented typed, recoverable behavior — graceful DD fallback for
//! allocation failures, a contained `WorkerPanic` for conversion-worker
//! panics, a watchdog trip for NaN poisoning, and `CorruptCheckpoint` for
//! damaged checkpoint files.
//!
//! The registry is process-global, so every test serializes on [`LOCK`]
//! and disarms in a drop guard (panics included).

use flatdd::{
    faults, CheckpointPolicy, ConversionPolicy, FlatDdConfig, FlatDdError, FlatDdSimulator,
    FusionPolicy, GovernorConfig, Phase,
};
use qcircuit::complex::state_distance;
use qcircuit::gate::{Gate, GateKind};
use qcircuit::{dense, generators, Circuit, Complex64};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

/// Serializes the test and guarantees disarm-on-exit (even on panic).
struct Armed<'a>(#[allow(dead_code)] std::sync::MutexGuard<'a, ()>);

impl<'a> Armed<'a> {
    fn new(spec: &str) -> Self {
        let guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        faults::set_spec(spec).unwrap();
        Armed(guard)
    }
}

impl Drop for Armed<'_> {
    fn drop(&mut self) {
        faults::clear();
    }
}

fn tmp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "flatdd-fault-test-{}-{tag}.ckpt",
        std::process::id()
    ))
}

#[test]
fn alloc_failure_degrades_to_dd_phase() {
    let _armed = Armed::new("alloc.flat:error:always");
    let c = generators::from_spec("vqe:8,2", 1).unwrap();
    let cfg = FlatDdConfig {
        conversion: ConversionPolicy::AtGate(6),
        ..Default::default()
    };
    let mut sim = FlatDdSimulator::try_new(8, cfg).unwrap();
    // The forced conversion hits the injected allocation failure; the run
    // must complete entirely DD-based with the refusal recorded.
    sim.run(&c).unwrap();
    assert_eq!(sim.phase(), Phase::Dd);
    assert!(sim.stats().conversion_refusals >= 1);
    assert_eq!(sim.stats().converted_at, None);
}

#[test]
fn output_vector_alloc_failure_mid_phase_is_typed_and_leaves_the_state() {
    // The second flat buffer of a run is the DMAV output vector, allocated
    // when the first out-of-place matrix asks for it — after the
    // conversion, before that gate touches the state. Under DMAV-aware
    // fusion that is the first block without an in-place form — a fused
    // permutation or dense product (fused diagonals stay in place) — or,
    // on this test's default 16 shards, a gate that crosses the shard
    // border.
    let _armed = Armed::new("alloc.flat:error:2");
    let c = generators::from_spec("vqe:8,2", 1).unwrap();
    let cfg = FlatDdConfig {
        conversion: ConversionPolicy::AtGate(6),
        fusion: FusionPolicy::DmavAware,
        ..Default::default()
    };
    let mut sim = FlatDdSimulator::try_new(8, cfg).unwrap();
    let err = sim.run(&c).unwrap_err();
    match &err {
        FlatDdError::AllocationFailed { context, .. } => {
            assert_eq!(*context, "DMAV output vector");
        }
        other => panic!("expected AllocationFailed, got {other}"),
    }
    assert_eq!(err.exit_code(), 4);
    assert_eq!(sim.phase(), Phase::Dmav, "the conversion itself succeeded");
    // The state is the one the applied gates produced, nothing more.
    let applied = sim.gates_applied();
    assert!((6..c.num_gates()).contains(&applied), "{applied}");
    let mut prefix = Circuit::new(8);
    for g in &c.gates()[..applied] {
        prefix.push(g.clone());
    }
    let d = state_distance(&sim.amplitudes(), &dense::simulate(&prefix));
    assert!(d < 1e-12, "state moved by the failed gate: {d:e}");
    // One-shot fault: the same simulator finishes the run from where it is.
    sim.run_from(&c).unwrap();
    let d = state_distance(&sim.amplitudes(), &dense::simulate(&c));
    assert!(d < 1e-10, "{d:e}");
}

#[test]
fn conversion_worker_panic_is_contained() {
    let _armed = Armed::new("convert.worker_panic:panic");
    let c = generators::from_spec("vqe:8,2", 2).unwrap();
    let cfg = FlatDdConfig {
        conversion: ConversionPolicy::AtGate(6),
        ..Default::default()
    };
    let mut sim = FlatDdSimulator::try_new(8, cfg).unwrap();
    let err = sim.run(&c).unwrap_err();
    match &err {
        FlatDdError::WorkerPanic { context, partial } => {
            assert_eq!(*context, "DD-to-array conversion");
            assert!(partial.gates_applied < c.num_gates());
        }
        other => panic!("expected WorkerPanic, got {other}"),
    }
    assert_eq!(err.exit_code(), 10);
    // The panic unwound through the package's borrowed read view: the same
    // simulator's package interns and multiplies again (a borrow left
    // behind would panic on the first insert).
    let pkg = sim.package();
    let w = Complex64::new(0.123, -0.456);
    assert_eq!(pkg.cval(pkg.clookup(w)), w);
    let h = pkg.gate_dd(&Gate::new(GateKind::H, 3), 8);
    let plus = pkg.mul_mv(h, pkg.basis_state(8, 0));
    for index in [0, 8] {
        let a = pkg.amplitude(plus, index);
        assert!((a.re - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12 && a.im == 0.0);
    }
    // The fault was one-shot (`Once` default): the simulator is still
    // usable and a fresh run now converts and completes.
    faults::clear();
    let mut sim2 = FlatDdSimulator::try_new(
        8,
        FlatDdConfig {
            conversion: ConversionPolicy::AtGate(6),
            ..Default::default()
        },
    )
    .unwrap();
    sim2.run(&c).unwrap();
    assert_eq!(sim2.phase(), Phase::Dmav);
}

#[test]
fn nan_poisoning_trips_the_watchdog() {
    let _armed = Armed::new("state.nan:nan");
    let c = generators::from_spec("vqe:8,2", 3).unwrap();
    let cfg = FlatDdConfig {
        conversion: ConversionPolicy::AtGate(4),
        governor: GovernorConfig {
            health_check_every: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut sim = FlatDdSimulator::try_new(8, cfg).unwrap();
    let err = sim.run(&c).unwrap_err();
    match &err {
        FlatDdError::NumericalDivergence { detail, .. } => {
            assert!(
                detail.contains("NaN") || detail.contains("finite") || detail.contains("norm"),
                "unexpected watchdog detail: {detail}"
            );
        }
        other => panic!("expected NumericalDivergence, got {other}"),
    }
    assert_eq!(err.exit_code(), 6);
}

#[test]
fn truncated_checkpoint_write_is_rejected_on_load() {
    let _armed = Armed::new("checkpoint.truncate:truncate=100");
    let c = generators::ghz(8);
    let path = tmp_path("truncate");
    let mut sim = FlatDdSimulator::try_new(8, FlatDdConfig::default()).unwrap();
    sim.set_checkpoint_policy(Some(CheckpointPolicy::at(&path)));
    sim.run(&c).unwrap();
    // The write itself "succeeds" — the damage models a crash mid-write.
    sim.save_checkpoint().unwrap();
    match FlatDdSimulator::resume_from(&path, FlatDdConfig::default(), &c) {
        Err(FlatDdError::CorruptCheckpoint { .. }) => {}
        Err(e) => panic!("expected CorruptCheckpoint, got {e}"),
        Ok(_) => panic!("truncated checkpoint was accepted"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn bitflipped_checkpoint_write_is_rejected_on_load() {
    let _armed = Armed::new("checkpoint.bitflip:bitflip=333");
    let c = generators::ghz(8);
    let path = tmp_path("bitflip");
    let mut sim = FlatDdSimulator::try_new(8, FlatDdConfig::default()).unwrap();
    sim.set_checkpoint_policy(Some(CheckpointPolicy::at(&path)));
    sim.run(&c).unwrap();
    sim.save_checkpoint().unwrap();
    match FlatDdSimulator::resume_from(&path, FlatDdConfig::default(), &c) {
        Err(err @ FlatDdError::CorruptCheckpoint { .. }) => assert_eq!(err.exit_code(), 9),
        Err(e) => panic!("expected CorruptCheckpoint, got {e}"),
        Ok(_) => panic!("bit-flipped checkpoint was accepted"),
    }
}

#[test]
fn disarmed_runs_are_unaffected() {
    let _armed = Armed::new("");
    let c = generators::from_spec("vqe:8,2", 4).unwrap();
    let cfg = FlatDdConfig {
        conversion: ConversionPolicy::AtGate(6),
        ..Default::default()
    };
    let mut sim = FlatDdSimulator::try_new(8, cfg).unwrap();
    sim.run(&c).unwrap();
    assert_eq!(sim.phase(), Phase::Dmav);
}

#[test]
fn enospc_during_checkpoint_install_keeps_prior_checkpoint() {
    let _armed = Armed::new("checkpoint.enospc:error");
    let c = generators::ghz(8);
    let path = tmp_path("enospc");
    let mut sim = FlatDdSimulator::try_new(8, FlatDdConfig::default()).unwrap();
    sim.set_checkpoint_policy(Some(CheckpointPolicy::at(&path)));
    sim.run(&c).unwrap();
    // First write hits the injected ENOSPC between the temp write and the
    // rename: a typed I/O error, no torn file installed.
    match sim.save_checkpoint() {
        Err(FlatDdError::Io(e)) => {
            assert_eq!(e.kind(), std::io::ErrorKind::StorageFull);
            assert!(e.to_string().contains(faults::SITE_CKPT_ENOSPC));
        }
        Err(e) => panic!("expected Io(StorageFull), got {e}"),
        Ok(_) => panic!("injected ENOSPC was swallowed"),
    }
    assert!(!path.exists(), "failed install left a checkpoint behind");
    // The fault was one-shot: the retry succeeds and the file loads.
    sim.save_checkpoint().unwrap();
    FlatDdSimulator::resume_from(&path, FlatDdConfig::default(), &c).unwrap();
    // A full checkpoint survives a later failed overwrite attempt intact.
    faults::set_spec("checkpoint.enospc:error:always").unwrap();
    sim.save_checkpoint().unwrap_err();
    FlatDdSimulator::resume_from(&path, FlatDdConfig::default(), &c).unwrap();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn spool_write_failure_is_a_typed_io_error() {
    let _armed = Armed::new("spool.write:error:always");
    let dir = std::env::temp_dir().join(format!("flatdd-fault-test-spool-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = flatdd::serve::JobSpec {
        circuit: "ghz:4".into(),
        ..Default::default()
    };
    let rec = flatdd::serve::JobRecord::new(7, spec);
    match rec.persist(&dir) {
        Err(FlatDdError::Io(e)) => {
            assert!(e.to_string().contains(faults::SITE_SPOOL_WRITE));
        }
        Err(e) => panic!("expected Io, got {e}"),
        Ok(()) => panic!("injected spool write failure was swallowed"),
    }
    // Nothing was installed and nothing torn was left behind.
    let leftovers: Vec<_> = std::fs::read_dir(&dir).unwrap().flatten().collect();
    assert!(
        leftovers.is_empty(),
        "spool write failure left files: {leftovers:?}"
    );
    // Disarmed, the same record persists and reloads cleanly.
    faults::clear();
    rec.persist(&dir).unwrap();
    let loaded = flatdd::serve::jobs::load_spool(&dir);
    assert_eq!(loaded.records.len(), 1);
    assert_eq!(loaded.records[0].id, 7);
    assert_eq!(loaded.quarantined, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_site_is_registered() {
    // The CI smoke job iterates `sites()`; pin the catalog so a new site
    // cannot be added without a smoke entry (this list is the contract).
    let sites = faults::sites();
    for s in [
        "alloc.flat",
        "convert.worker_panic",
        "state.nan",
        "checkpoint.truncate",
        "checkpoint.bitflip",
        "spool.write",
        "checkpoint.enospc",
    ] {
        assert!(sites.contains(&s), "fault site {s} missing from registry");
    }
    assert_eq!(sites.len(), 7, "new fault site needs a CI smoke entry");
}
