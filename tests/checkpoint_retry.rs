//! Satellite regression: a *transient* periodic-checkpoint write failure
//! must be retried with capped backoff and must not kill the run.
//!
//! The `checkpoint.truncate` fault site damages the temp file before its
//! atomic install, so the write itself "succeeds" — only the post-install
//! header verification in the retry loop can catch it. Armed to fire on
//! the first hit only, the first periodic attempt installs a corrupt file
//! and the retry must replace it with a good one.
//!
//! Both cases run twice: with the installs inline on the running thread
//! (the CLI and library default), and on an installer thread
//! (`serve::with_installer`, as the daemon runs a job). The assertions are
//! the same, because both go through one retry path.

use flatdd::serve::with_installer;
use flatdd::{
    read_header, CheckpointPolicy, ConversionPolicy, FlatDdConfig, FlatDdError, FlatDdSimulator,
    RunContext, RunOutcome,
};
use qcircuit::complex::state_distance;
use qcircuit::Circuit;

/// Runs `c` on `sim` with its checkpoints installed inline or, with
/// `installer`, on an installer thread.
fn run(sim: &mut FlatDdSimulator, c: &Circuit, installer: bool) -> Result<RunOutcome, FlatDdError> {
    if installer {
        with_installer(sim, |sim| sim.run(c))
    } else {
        sim.run(c)
    }
}

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
fn transient_truncate_is_retried_and_the_run_completes() {
    for installer in [false, true] {
        transient_truncate_is_retried(installer);
    }
}

fn transient_truncate_is_retried(installer: bool) {
    let c = layered_circuit(6);
    let cfg = FlatDdConfig {
        threads: 1,
        conversion: ConversionPolicy::AtGate(12),
        ..Default::default()
    };
    let mut clean = FlatDdSimulator::try_new(6, cfg).unwrap();
    clean.run(&c).unwrap();
    let want = clean.amplitudes();

    let path = std::env::temp_dir().join(format!(
        "flatdd-ckpt-retry-test-{}-{installer}.ckpt",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);

    // Truncate to 100 bytes (inside the header region) on the first
    // checkpoint write only — a one-shot torn write.
    let ctx = RunContext::isolated()
        .with_faults_spec("checkpoint.truncate:truncate=100:1")
        .unwrap();
    let mut sim = FlatDdSimulator::try_new_with(6, cfg, ctx.clone()).unwrap();
    sim.set_checkpoint_policy(Some(CheckpointPolicy::at(&path).every(5).retries(2, 1)));
    run(&mut sim, &c, installer).expect("a transient checkpoint failure must not fail the run");

    // The verification loop saw the torn install and retried.
    assert!(
        ctx.metrics().counter("checkpoint.write_failures").get() >= 1,
        "the damaged install must be counted as a write failure"
    );
    assert!(
        ctx.metrics().counter("checkpoint.write_retries").get() >= 1,
        "the retry must be counted"
    );

    // The installed checkpoint is the retried (good) one: loadable, and
    // resuming from it reproduces the uninterrupted amplitudes.
    read_header(&path).expect("final installed checkpoint must be valid");
    let (mut resumed, _header) = FlatDdSimulator::resume_from(&path, cfg, &c).unwrap();
    resumed.run_from(&c).unwrap();
    let d = state_distance(&resumed.amplitudes(), &want);
    assert!(d < 1e-12, "resumed state deviates by {d:.3e}");
    let _ = std::fs::remove_file(&path);
}

/// With no retry budget the old single-best-effort behavior holds: the
/// torn install stays, the run still completes (periodic checkpoints are
/// best-effort), and the failure is visible in the per-job metrics.
#[test]
fn exhausted_retries_leave_run_alive_and_failures_counted() {
    for installer in [false, true] {
        exhausted_retries_leave_run_alive(installer);
    }
}

fn exhausted_retries_leave_run_alive(installer: bool) {
    let c = layered_circuit(6);
    let cfg = FlatDdConfig {
        threads: 1,
        conversion: ConversionPolicy::AtGate(12),
        ..Default::default()
    };
    let path = std::env::temp_dir().join(format!(
        "flatdd-ckpt-retry-exhaust-{}-{installer}.ckpt",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);

    let ctx = RunContext::isolated()
        .with_faults_spec("checkpoint.truncate:truncate=100:always")
        .unwrap();
    let mut sim = FlatDdSimulator::try_new_with(6, cfg, ctx.clone()).unwrap();
    sim.set_checkpoint_policy(Some(CheckpointPolicy::at(&path).every(5).retries(1, 1)));
    run(&mut sim, &c, installer)
        .expect("even unrecoverable periodic-checkpoint failures must not fail the run");

    let failures = ctx.metrics().counter("checkpoint.write_failures").get();
    let retries = ctx.metrics().counter("checkpoint.write_retries").get();
    assert!(failures >= 2, "every attempt fails; got {failures}");
    assert!(retries >= 1, "the retry budget was consumed; got {retries}");
    assert!(
        read_header(&path).is_err(),
        "with the fault always armed the installed file stays torn"
    );
    let _ = std::fs::remove_file(&path);
}
