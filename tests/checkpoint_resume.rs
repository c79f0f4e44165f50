//! Checkpoint/resume integration: a run cut at an arbitrary gate and
//! resumed from the checkpoint file must match the uninterrupted run to
//! 1e-12 in both phases (including a cut exactly at the DD-to-DMAV
//! conversion boundary), and corrupted or mismatched checkpoints must be
//! rejected with typed errors — never a panic.

use flatdd::serve::with_installer;
use flatdd::{
    CheckpointPolicy, ConversionPolicy, FlatDdConfig, FlatDdError, FlatDdSimulator, FusionPolicy,
    Phase,
};
use qcircuit::complex::state_distance;
use qcircuit::{generators, prop, Circuit};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const TOL: f64 = 1e-12;

fn tmp_ckpt(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "flatdd-ckpt-test-{}-{tag}-{seq}.ckpt",
        std::process::id()
    ))
}

/// Reference run, then the same circuit cut at `cut` gates: checkpoint at
/// the boundary, resume from the file, finish, compare amplitudes.
fn assert_resume_matches(circuit: &Circuit, cfg: &FlatDdConfig, cut: usize, tag: &str) {
    let n = circuit.num_qubits();
    let mut clean = FlatDdSimulator::try_new(n, *cfg).unwrap();
    clean.run(circuit).unwrap();
    let want = clean.amplitudes();

    let path = tmp_ckpt(tag);
    let mut first = FlatDdSimulator::try_new(n, *cfg).unwrap();
    first.set_checkpoint_policy(Some(CheckpointPolicy::at(&path)));
    first.run_prefix(circuit, cut).unwrap();
    let phase_at_cut = first.phase();
    first.save_checkpoint().unwrap();
    drop(first);

    let (mut resumed, header) = FlatDdSimulator::resume_from(&path, *cfg, circuit).unwrap();
    assert_eq!(header.gate_cursor as usize, cut, "{tag}: cursor");
    assert_eq!(
        resumed.phase(),
        phase_at_cut,
        "{tag}: phase survives resume"
    );
    assert_eq!(resumed.gates_applied(), cut, "{tag}: gates_applied");
    resumed.run_from(circuit).unwrap();
    let got = resumed.amplitudes();
    let d = state_distance(&got, &want);
    assert!(
        d < TOL,
        "{tag}: resumed state deviates by {d:.3e} (cut at {cut}/{})",
        circuit.num_gates()
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn dd_phase_checkpoint_resumes_exactly() {
    // GHZ stays regular, so the whole run — and the checkpoint — is DD.
    let c = generators::ghz(10);
    let cfg = FlatDdConfig {
        threads: 2,
        ..Default::default()
    };
    for cut in [1, 5, c.num_gates() - 1] {
        assert_resume_matches(&c, &cfg, cut, "dd-phase");
    }
}

#[test]
fn flat_phase_checkpoint_resumes_exactly() {
    // Force an early conversion so the cut lands deep in the DMAV phase.
    let c = generators::from_spec("vqe:10,2", 7).unwrap();
    let cfg = FlatDdConfig {
        threads: 2,
        conversion: ConversionPolicy::AtGate(10),
        ..Default::default()
    };
    for cut in [20, c.num_gates() / 2, c.num_gates() - 1] {
        assert_resume_matches(&c, &cfg, cut, "flat-phase");
    }
}

#[test]
fn conversion_boundary_checkpoint_resumes_exactly() {
    // Cut exactly at, one before, and one after the forced conversion
    // gate: the checkpoint straddling the representation switch must
    // restore whichever side it was taken on.
    let c = generators::from_spec("vqe:9,2", 11).unwrap();
    let k = 12;
    let cfg = FlatDdConfig {
        threads: 2,
        conversion: ConversionPolicy::AtGate(k),
        ..Default::default()
    };
    for cut in [k - 1, k, k + 1] {
        assert_resume_matches(&c, &cfg, cut, "boundary");
    }
}

#[test]
fn whole_circuit_cuts_cover_both_phases() {
    // Sanity that the harness really exercises both payload kinds.
    let c = generators::from_spec("vqe:8,2", 3).unwrap();
    let k = c.num_gates() / 2;
    let cfg = FlatDdConfig {
        threads: 2,
        conversion: ConversionPolicy::AtGate(k),
        ..Default::default()
    };
    let mut probe = FlatDdSimulator::try_new(8, cfg).unwrap();
    probe.run_prefix(&c, k - 1).unwrap();
    assert_eq!(probe.phase(), Phase::Dd);
    let mut probe = FlatDdSimulator::try_new(8, cfg).unwrap();
    probe.run_prefix(&c, k + 1).unwrap();
    assert_eq!(probe.phase(), Phase::Dmav);
}

#[test]
fn corrupted_checkpoints_are_rejected_not_panics() {
    let c = generators::ghz(8);
    let cfg = FlatDdConfig::default();
    let path = tmp_ckpt("corrupt");
    let mut sim = FlatDdSimulator::try_new(8, cfg).unwrap();
    sim.set_checkpoint_policy(Some(CheckpointPolicy::at(&path)));
    sim.run(&c).unwrap();
    sim.save_checkpoint().unwrap();
    let bytes = std::fs::read(&path).unwrap();

    // Single-bit flips across the file: typed rejection, never a panic.
    for pos in (0..bytes.len()).step_by(7) {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x04;
        std::fs::write(&path, &bad).unwrap();
        match FlatDdSimulator::resume_from(&path, cfg, &c) {
            Err(FlatDdError::CorruptCheckpoint { .. }) => {}
            Err(FlatDdError::InvalidInput(_)) => {
                // A flip inside the header that still checksums clean is
                // impossible; but a flip in the *stored hash itself* is
                // caught by the CRC, so InvalidInput can only come from a
                // legitimate compatibility check. Either way: typed.
                panic!("bit flip at {pos} slipped past the checksums");
            }
            Err(e) => panic!("bit flip at {pos}: unexpected error class {e}"),
            Ok(_) => panic!("bit flip at {pos} was accepted"),
        }
    }

    // Truncations at every prefix length (sampled): typed rejection.
    for len in (0..bytes.len().saturating_sub(1)).step_by(13) {
        std::fs::write(&path, &bytes[..len]).unwrap();
        match FlatDdSimulator::resume_from(&path, cfg, &c) {
            Err(FlatDdError::CorruptCheckpoint { .. }) => {}
            Err(e) => panic!("truncation to {len}: unexpected error class {e}"),
            Ok(_) => panic!("truncation to {len} was accepted"),
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn mismatched_circuit_or_config_is_invalid_input() {
    let c = generators::ghz(8);
    let cfg = FlatDdConfig::default();
    let path = tmp_ckpt("mismatch");
    let mut sim = FlatDdSimulator::try_new(8, cfg).unwrap();
    sim.set_checkpoint_policy(Some(CheckpointPolicy::at(&path)));
    sim.run_prefix(&c, 4).unwrap();
    sim.save_checkpoint().unwrap();

    // Different circuit content, same width.
    let other = generators::qft(8);
    match FlatDdSimulator::resume_from(&path, cfg, &other) {
        Err(FlatDdError::InvalidInput(msg)) => assert!(msg.contains("different circuit")),
        Err(e) => panic!("wrong circuit: expected InvalidInput, got {e}"),
        Ok(_) => panic!("wrong circuit was accepted"),
    }
    // Different width.
    let wider = generators::ghz(9);
    match FlatDdSimulator::resume_from(&path, cfg, &wider) {
        Err(FlatDdError::InvalidInput(_)) => {}
        Err(e) => panic!("wrong width: expected InvalidInput, got {e}"),
        Ok(_) => panic!("wrong width was accepted"),
    }
    // Result-affecting config change.
    let other_cfg = FlatDdConfig {
        conversion: ConversionPolicy::Never,
        ..Default::default()
    };
    match FlatDdSimulator::resume_from(&path, other_cfg, &c) {
        Err(FlatDdError::InvalidInput(msg)) => assert!(msg.contains("configuration")),
        Err(e) => panic!("wrong config: expected InvalidInput, got {e}"),
        Ok(_) => panic!("wrong config was accepted"),
    }
    // The original pairing still loads.
    FlatDdSimulator::resume_from(&path, cfg, &c).unwrap();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn periodic_checkpoints_fire_during_run() {
    let c = generators::from_spec("vqe:8,2", 5).unwrap();
    let path = tmp_ckpt("periodic");
    let mut sim = FlatDdSimulator::try_new(8, FlatDdConfig::default()).unwrap();
    sim.set_checkpoint_policy(Some(CheckpointPolicy::at(&path).every(8)));
    sim.run(&c).unwrap();
    // The file on disk is the last periodic checkpoint, and it resumes.
    let header = flatdd::read_header(&path).unwrap();
    assert!(header.gate_cursor > 0);
    assert_eq!(header.gate_cursor as usize % 8, 0);
    let (mut resumed, _) =
        FlatDdSimulator::resume_from(&path, FlatDdConfig::default(), &c).unwrap();
    resumed.run_from(&c).unwrap();
    assert_eq!(resumed.gates_applied(), c.num_gates());
    let _ = std::fs::remove_file(&path);
}

/// A deterministic 6-layer circuit over `n` qubits: `n` gates per layer,
/// mixing rotations and entanglers (used by the fused-phase tests, which
/// need an exact gate count).
fn layered_circuit(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for l in 0..6 {
        for q in 0..n {
            if (l + q) % 3 == 0 {
                c.cx(q, (q + 1) % n);
            } else {
                c.rx(0.21 + 0.07 * (l * n + q) as f64, q);
            }
        }
    }
    c
}

#[test]
fn periodic_checkpoint_mid_fused_span_resumes_exactly() {
    // Fusion folds several original gates into each DMAV matrix; the gate
    // cursor must advance matrix by matrix so a checkpoint written inside
    // the fused span resumes without re-applying (or skipping) gates. The
    // cadence comes from a traced clean run: `every` = its last fused-step
    // boundary `b` inside the span, past the span's middle, so the one
    // checkpoint falls due at `b` (the DD phase steps gate by gate, and a
    // flat step folds no further than the next due cursor) and the next
    // one would fall past the end.
    let c = layered_circuit(6);
    assert_eq!(c.num_gates(), 36);
    let cfg = FlatDdConfig {
        threads: 2,
        conversion: ConversionPolicy::AtGate(12),
        fusion: FusionPolicy::KOperations(4),
        ..Default::default()
    };
    let mut clean = FlatDdSimulator::try_new(6, FlatDdConfig { trace: true, ..cfg }).unwrap();
    clean.run(&c).unwrap();
    let want = clean.amplitudes();
    let boundaries: Vec<usize> = clean
        .traces()
        .iter()
        .filter(|t| t.fused)
        .map(|t| t.gate_index + t.gates)
        .filter(|&b| b > 12 && b < c.num_gates())
        .collect();
    let every = *boundaries
        .last()
        .expect("a fused step ends inside the span");
    assert!(2 * every > c.num_gates(), "boundaries {boundaries:?}");

    let path = tmp_ckpt("fused-periodic");
    let mut sim = FlatDdSimulator::try_new(6, cfg).unwrap();
    sim.set_checkpoint_policy(Some(CheckpointPolicy::at(&path).every(every)));
    sim.run(&c).unwrap();

    let header = flatdd::read_header(&path).unwrap();
    assert!(
        boundaries.contains(&(header.gate_cursor as usize)),
        "checkpoint cursor {} should be a fused-step boundary inside the \
         fused flat span {boundaries:?}",
        header.gate_cursor
    );
    assert_eq!(header.phase, Phase::Dmav);

    let (mut resumed, _) = FlatDdSimulator::resume_from(&path, cfg, &c).unwrap();
    resumed.run_from(&c).unwrap();
    assert_eq!(resumed.gates_applied(), c.num_gates());
    let d = state_distance(&resumed.amplitudes(), &want);
    assert!(
        d < TOL,
        "resume from a mid-fused-span checkpoint deviates by {d:.3e}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn dmav_aware_fusion_checkpoint_resumes_exactly() {
    // Same property under the cost-driven fusion policy (data-dependent
    // grouping): cut at exact gate boundaries across the fused span.
    let c = layered_circuit(6);
    let cfg = FlatDdConfig {
        threads: 2,
        conversion: ConversionPolicy::AtGate(12),
        fusion: FusionPolicy::DmavAware,
        ..Default::default()
    };
    for cut in [15, 24, c.num_gates() - 1] {
        assert_resume_matches(&c, &cfg, cut, "fused-dmav-aware");
    }
}

/// Checkpoint at a random gate of a random circuit, with a random
/// forced conversion point, and resume: amplitudes match to 1e-12.
#[test]
fn random_cut_resumes_exactly() {
    prop::check(16, |g| {
        let c = g.circuit(6, 8..48);
        let (cut_frac, conv_frac) = (g.rng.f64_in(0.0..1.0), g.rng.f64_in(0.0..1.0));
        let total = c.num_gates();
        let cut = ((cut_frac * total as f64) as usize).min(total);
        let k = 1 + (conv_frac * total as f64) as usize;
        let cfg = FlatDdConfig {
            threads: 2,
            conversion: ConversionPolicy::AtGate(k),
            ..Default::default()
        };
        assert_resume_matches(&c, &cfg, cut, "random-cut");
    });
}

/// `tests/fixtures/fdcp1_v2_flat_supremacy_8.fdcp` was written by a build
/// whose flat phase always stored all `2^n` amplitudes: `supremacy_n(8, 5,
/// 1)` under `AtGate(16)` at one thread, checkpointed after gate 20. Here
/// the same conversion holds four qubits out; the older file still resumes
/// (at full width) and finishes at the dense state, as does a checkpoint
/// this build writes at the same gate, whose payload is the same state.
#[test]
fn a_version_2_flat_checkpoint_from_a_full_width_writer_still_resumes() {
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/fdcp1_v2_flat_supremacy_8.fdcp");
    let c = generators::supremacy_n(8, 5, 1);
    let cfg = FlatDdConfig {
        threads: 1,
        conversion: ConversionPolicy::AtGate(16),
        ..FlatDdConfig::default()
    };
    let want = qcircuit::dense::simulate(&c);
    let (mut old, header) = FlatDdSimulator::resume_from(&fixture, cfg, &c).unwrap();
    assert_eq!((header.gate_cursor, header.phase), (20, Phase::Dmav));
    let before = old.amplitudes();
    old.run_from(&c).unwrap();
    assert!(state_distance(&old.amplitudes(), &want) < TOL);

    let ctx = flatdd::RunContext::isolated();
    let mut new = FlatDdSimulator::try_new_with(8, cfg, ctx).unwrap();
    let path = tmp_ckpt("v2-held-out");
    new.set_checkpoint_policy(Some(CheckpointPolicy::at(&path)));
    new.run_prefix(&c, 20).unwrap();
    let metrics = new.context().metrics();
    assert_eq!(metrics.gauge("sim.active_qubits").get(), 4.0);
    assert_eq!(metrics.counter("sim.widenings").get(), 0);
    new.save_checkpoint().unwrap();
    let (_, state) = flatdd::checkpoint::read_checkpoint(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let flatdd::checkpoint::CheckpointState::Flat(v) = state else {
        panic!("a flat checkpoint");
    };
    assert!(state_distance(&v, &before) < TOL);
}

/// The files next to `path` whose names extend it: its staging files.
fn staging_siblings(path: &std::path::Path) -> Vec<String> {
    let name = path.file_name().unwrap().to_string_lossy().into_owned();
    std::fs::read_dir(path.parent().unwrap())
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with(&name) && n.ends_with(".tmp"))
        .collect()
}

/// Runs `c` from scratch on an isolated context with a periodic policy,
/// its installs inline or on an installer thread. Returns the simulator
/// and, read as `run()` returns (before the installer is detached), the
/// installed cursor and the staging files left.
fn periodic_run(
    c: &Circuit,
    cfg: FlatDdConfig,
    path: &PathBuf,
    every: usize,
    installer: bool,
) -> (FlatDdSimulator, u64, Vec<String>) {
    let ctx = flatdd::RunContext::isolated();
    let mut sim = FlatDdSimulator::try_new_with(c.num_qubits(), cfg, ctx).unwrap();
    sim.set_checkpoint_policy(Some(CheckpointPolicy::at(path).every(every)));
    let run = |sim: &mut FlatDdSimulator| {
        sim.run(c).unwrap();
        let cursor = flatdd::read_header(path).unwrap().gate_cursor;
        (cursor, staging_siblings(path))
    };
    let (cursor, staging) = if installer {
        with_installer(&mut sim, run)
    } else {
        run(&mut sim)
    };
    (sim, cursor, staging)
}

/// With an installer attached, a run stages every due checkpoint as the
/// inline run writes it, and returns only once the newest is installed: the
/// file is the last due cursor's, no staging file is left, the amplitudes
/// are the inline run's bit for bit, and every staged checkpoint was either
/// installed or replaced by a newer one before its install.
#[test]
fn an_installer_leaves_the_last_due_checkpoint_and_the_inline_amplitudes() {
    let every = 4;
    for (spec, conversion) in [
        ("vqe:10,3", ConversionPolicy::AtGate(40)),
        ("grover:8", ConversionPolicy::Never),
    ] {
        let c = generators::from_spec(spec, 5).unwrap();
        let cfg = FlatDdConfig {
            threads: 1,
            conversion,
            ..Default::default()
        };
        let (inline_path, path) = (tmp_ckpt("inline"), tmp_ckpt("installer"));
        let (inline, inline_cursor, _) = periodic_run(&c, cfg, &inline_path, every, false);
        let (sim, cursor, staging) = periodic_run(&c, cfg, &path, every, true);

        let last_due = (c.num_gates() / every * every) as u64;
        assert_eq!(cursor, last_due, "{spec}");
        assert_eq!(inline_cursor, last_due, "{spec}");
        assert!(staging.is_empty(), "{spec}: {staging:?}");
        assert!(
            sim.amplitudes() == inline.amplitudes(),
            "{spec}: amplitudes differ"
        );

        let metrics = sim.context().metrics();
        let writes = metrics.counter("checkpoint.writes").get();
        let superseded = metrics.counter("checkpoint.superseded").get();
        let installs = metrics.histogram("sim.ckpt_install_us").count();
        assert_eq!(
            writes,
            (c.num_gates() / every) as u64,
            "{spec}: one per due cursor"
        );
        assert_eq!(writes, superseded + installs, "{spec}");
        assert_eq!(
            metrics.counter("checkpoint.write_failures").get(),
            0,
            "{spec}"
        );
        let inline_metrics = inline.context().metrics();
        assert_eq!(
            inline_metrics.counter("checkpoint.writes").get(),
            writes,
            "{spec}"
        );
        assert_eq!(
            inline_metrics.histogram("sim.ckpt_install_us").count(),
            writes,
            "{spec}"
        );
        for p in [inline_path, path] {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// A preemption (a cancel on the run's context, as the daemon's scheduler
/// raises it) lands while periodic checkpoints are being staged and
/// installed: the on-breach write drops the pending one, waits for the one
/// in flight, and installs the breach cursor's checkpoint, which no late
/// periodic install overwrites; the job resumes from it to the
/// uninterrupted amplitudes.
#[test]
fn a_preemption_after_async_installs_leaves_the_breach_checkpoint() {
    let c = generators::from_spec("random:10,20000", 3).unwrap();
    let cfg = FlatDdConfig {
        threads: 1,
        ..Default::default()
    };
    let mut clean = FlatDdSimulator::try_new(10, cfg).unwrap();
    clean.run(&c).unwrap();
    let want = clean.amplitudes();

    let path = tmp_ckpt("preempted");
    let ctx = flatdd::RunContext::isolated();
    let mut sim = FlatDdSimulator::try_new_with(10, cfg, ctx.clone()).unwrap();
    sim.set_checkpoint_policy(Some(CheckpointPolicy::at(&path).every(8)));
    let err = std::thread::scope(|s| {
        s.spawn(|| {
            let writes = ctx.metrics().counter("checkpoint.writes");
            let installs = ctx.metrics().histogram("sim.ckpt_install_us");
            while writes.get() < 4 || installs.count() < 1 {
                std::thread::yield_now();
            }
            ctx.cancel(flatdd::signal::SIGTERM);
        });
        with_installer(&mut sim, |sim| sim.run(&c)).unwrap_err()
    });
    let FlatDdError::Interrupted { partial, .. } = err else {
        panic!("expected a preemption, got {err}");
    };
    let breach = partial.gates_applied;
    assert!(breach < c.num_gates(), "the run finished before the cancel");
    let header = flatdd::read_header(&path).unwrap();
    assert_eq!(header.gate_cursor as usize, breach);
    assert!(
        staging_siblings(&path).is_empty(),
        "{:?}",
        staging_siblings(&path)
    );

    let (mut resumed, _) = FlatDdSimulator::resume_from(&path, cfg, &c).unwrap();
    resumed.run_from(&c).unwrap();
    let d = state_distance(&resumed.amplitudes(), &want);
    assert!(
        d < TOL,
        "resumed state deviates by {d:.3e} (breach at {breach})"
    );
    let _ = std::fs::remove_file(&path);
}

/// A cancel that abandons the run ([`flatdd::RunContext::abandon`], the
/// daemon's user cancel) installs no checkpoint; a plain cancel (a
/// preemption or drain) installs the breach cursor's.
#[test]
fn an_abandoned_run_installs_no_checkpoint() {
    let c = generators::from_spec("dnn:8,2", 4).unwrap();
    let cfg = FlatDdConfig {
        threads: 1,
        ..Default::default()
    };
    for abandon in [true, false] {
        let path = tmp_ckpt("cancel");
        let ctx = flatdd::RunContext::isolated();
        let mut sim = FlatDdSimulator::try_new_with(8, cfg, ctx.clone()).unwrap();
        sim.set_checkpoint_policy(Some(CheckpointPolicy::at(&path)));
        if abandon {
            ctx.abandon();
        } else {
            ctx.cancel(flatdd::signal::SIGTERM);
        }
        let err = sim.run(&c).unwrap_err();
        assert!(matches!(err, FlatDdError::Interrupted { .. }), "{err}");
        let writes = ctx.metrics().counter("checkpoint.writes").get();
        if abandon {
            assert!(!path.exists(), "an abandoned run left {}", path.display());
            assert_eq!(writes, 0);
        } else {
            assert_eq!(flatdd::read_header(&path).unwrap().gate_cursor, 0);
            assert_eq!(writes, 1);
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// Under a policy without `install_on_completion` a completed run waits for
/// no pending install: with an installer that never takes one, every
/// staged checkpoint is superseded — by the next, the last by the end of
/// the run — and none is installed or left staged.
#[test]
fn a_run_whose_caller_discards_the_checkpoint_waits_for_no_pending_install() {
    let c = generators::from_spec("grover:8", 5).unwrap();
    let cfg = FlatDdConfig {
        threads: 1,
        ..Default::default()
    };
    let path = tmp_ckpt("discarded");
    let mut sim = FlatDdSimulator::try_new_with(8, cfg, flatdd::RunContext::isolated()).unwrap();
    let mut policy = CheckpointPolicy::at(&path).every(4);
    policy.install_on_completion = false;
    sim.set_checkpoint_policy(Some(policy));
    sim.attach_installer(Some(std::sync::Arc::new(flatdd::InstallMailbox::default())));
    sim.run(&c).unwrap();
    sim.attach_installer(None);

    let metrics = sim.context().metrics();
    let writes = metrics.counter("checkpoint.writes").get();
    assert_eq!(writes, (c.num_gates() / 4) as u64);
    assert_eq!(metrics.counter("checkpoint.superseded").get(), writes);
    assert_eq!(metrics.histogram("sim.ckpt_install_us").count(), 0);
    assert!(!path.exists());
    assert!(
        staging_siblings(&path).is_empty(),
        "{:?}",
        staging_siblings(&path)
    );
}
