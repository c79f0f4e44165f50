//! Multi-tenant isolation: concurrent simulators on per-job
//! [`flatdd::RunContext`]s must not share cancellation, metrics, or
//! faults.
//!
//! Before RunContext, the interrupt flag, metrics registry, and fault
//! registry were process-global, so `fused_signal_interrupt` needed its
//! own test binary to avoid poisoning neighbors. These tests are the
//! replacement: cancellation is per-job now, so they run in one shared
//! binary alongside everything else — which is itself part of what they
//! verify.

use flatdd::{
    signal, CheckpointPolicy, ConversionPolicy, FlatDdConfig, FlatDdError, FlatDdSimulator,
    FusionPolicy, Phase, RunContext,
};
use qcircuit::complex::state_distance;
use qcircuit::{Circuit, Complex64};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Deterministic 36-gate circuit over 6 qubits (mirrors the
/// checkpoint_resume harness).
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

fn fused_cfg() -> FlatDdConfig {
    FlatDdConfig {
        threads: 2,
        conversion: ConversionPolicy::AtGate(12),
        fusion: FusionPolicy::DmavAware,
        ..Default::default()
    }
}

/// The old `fused_signal_interrupt` scenario, re-homed: a cancellation
/// raised on the job's own context while the simulator is in the *fused*
/// flat phase must interrupt at the next fused-matrix boundary, write the
/// on-breach checkpoint, and resume to the uninterrupted amplitudes. No
/// process-global flag is involved, so this coexists with every other
/// test in the binary.
#[test]
fn cancel_during_fused_flat_phase_interrupts_checkpoints_and_resumes() {
    let c = layered_circuit(6);
    let cfg = fused_cfg();
    let mut clean = FlatDdSimulator::try_new(6, cfg).unwrap();
    clean.run(&c).unwrap();
    let want = clean.amplitudes();

    let path = std::env::temp_dir().join(format!(
        "flatdd-fused-cancel-test-{}.ckpt",
        std::process::id()
    ));
    let ctx = RunContext::isolated();
    let mut sim = FlatDdSimulator::try_new_with(6, cfg, ctx.clone()).unwrap();
    sim.set_checkpoint_policy(Some(CheckpointPolicy::at(&path)));
    sim.run_prefix(&c, 20).unwrap();
    assert_eq!(sim.phase(), Phase::Dmav, "cut must land in the flat phase");

    // The cancel flag is polled at the top of each fused-matrix iteration,
    // so the continuation must stop at gate 20 instead of running to
    // completion.
    ctx.cancel(signal::SIGTERM);
    match sim.run_from(&c) {
        Err(FlatDdError::Interrupted { signal: s, partial }) => {
            assert_eq!(s, signal::SIGTERM);
            assert_eq!(partial.gates_applied, 20);
        }
        other => panic!("expected Interrupted from the fused loop, got {other:?}"),
    }
    assert!(!ctx.cancel_requested(), "the poll must consume the flag");
    drop(sim);

    // The on-breach checkpoint resumes to the uninterrupted amplitudes.
    let (mut resumed, header) = FlatDdSimulator::resume_from(&path, cfg, &c).unwrap();
    assert_eq!(header.gate_cursor, 20);
    resumed.run_from(&c).unwrap();
    let d = state_distance(&resumed.amplitudes(), &want);
    assert!(d < 1e-12, "resumed state deviates by {d:.3e}");
    let _ = std::fs::remove_file(&path);
}

/// Cancelling one of two concurrently running jobs stops exactly that
/// job; the other runs to completion with correct amplitudes.
#[test]
fn cancelling_one_concurrent_job_leaves_the_other_running() {
    let n = 10;
    let c = {
        // A long repetitive circuit so the victim is reliably mid-flight
        // when the cancel lands.
        let mut c = Circuit::new(n);
        for l in 0..200 {
            for q in 0..n {
                if (l + q) % 4 == 0 {
                    c.cx(q, (q + 1) % n);
                } else {
                    c.rx(0.11 + 0.03 * ((l * n + q) % 17) as f64, q);
                }
            }
        }
        c
    };
    let cfg = FlatDdConfig {
        threads: 1,
        conversion: ConversionPolicy::AtGate(40),
        ..Default::default()
    };
    let mut reference = FlatDdSimulator::try_new(n, cfg).unwrap();
    reference.run(&c).unwrap();
    let want = reference.amplitudes();

    let victim_ctx = RunContext::isolated();
    let victim_started = Arc::new(AtomicBool::new(false));
    let victim = {
        let c = c.clone();
        let ctx = victim_ctx.clone();
        let started = Arc::clone(&victim_started);
        std::thread::spawn(move || {
            let mut sim = FlatDdSimulator::try_new_with(n, cfg, ctx).unwrap();
            started.store(true, Ordering::SeqCst);
            sim.run(&c)
        })
    };
    let survivor = {
        let c = c.clone();
        std::thread::spawn(move || {
            let mut sim = FlatDdSimulator::try_new_with(n, cfg, RunContext::isolated()).unwrap();
            let r = sim.run(&c);
            (r, sim.amplitudes())
        })
    };

    while !victim_started.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    victim_ctx.cancel(signal::SIGINT);

    match victim.join().unwrap() {
        Err(FlatDdError::Interrupted { signal: s, .. }) => assert_eq!(s, signal::SIGINT),
        Ok(outcome) => panic!(
            "victim ran to completion ({} gates) — cancel was lost",
            outcome.gates_applied
        ),
        other => panic!("victim failed for the wrong reason: {other:?}"),
    }
    let (result, amps) = survivor.join().unwrap();
    result.expect("survivor must be untouched by the neighbor's cancel");
    let d = state_distance(&amps, &want);
    assert!(d < 1e-12, "survivor state deviates by {d:.3e}");
}

/// Stress: four simulations on four threads, each with its own context,
/// each poisoned differently. Stats, metrics, and faults must not bleed
/// between jobs, and every job must land the outcome its own context
/// dictates.
#[test]
fn four_concurrent_jobs_keep_stats_and_faults_isolated() {
    let n = 8;
    let circuit = layered_circuit(6);
    let big = {
        let mut c = Circuit::new(n);
        for l in 0..8 {
            for q in 0..n {
                if (l + q) % 3 == 0 {
                    c.cx(q, (q + 1) % n);
                } else {
                    c.ry(0.13 + 0.05 * (l * n + q) as f64, q);
                }
            }
        }
        c
    };
    let cfg6 = FlatDdConfig {
        threads: 1,
        conversion: ConversionPolicy::AtGate(12),
        ..Default::default()
    };
    let cfg8 = FlatDdConfig {
        threads: 2,
        conversion: ConversionPolicy::AtGate(16),
        ..Default::default()
    };

    // Job A: clean 6-qubit run. Job B: clean 8-qubit run. Job C: armed
    // `alloc.flat` under an Immediate conversion policy, where the flat
    // allocation is mandatory → must fail with AllocationFailed. (At a
    // policy *trigger* the same fault degrades to a conversion refusal by
    // design.) Job D: armed `state.nan` → the watchdog must report
    // divergence.
    let ctx_a = RunContext::isolated();
    let ctx_b = RunContext::isolated();
    let ctx_c = RunContext::isolated()
        .with_faults_spec("alloc.flat:error:always")
        .unwrap();
    let ctx_d = RunContext::isolated()
        .with_faults_spec("state.nan:nan:once")
        .unwrap();

    let run = |c: Circuit, nq: usize, cfg: FlatDdConfig, ctx: RunContext| {
        std::thread::spawn(move || {
            let mut sim = FlatDdSimulator::try_new_with(nq, cfg, ctx)?;
            sim.run(&c).map(|_| sim.stats())
        })
    };
    let cfg_c = FlatDdConfig {
        threads: 1,
        conversion: ConversionPolicy::Immediate,
        ..Default::default()
    };
    let a = run(circuit.clone(), 6, cfg6, ctx_a.clone());
    let b = run(big.clone(), n, cfg8, ctx_b.clone());
    let c_ = run(circuit.clone(), 6, cfg_c, ctx_c.clone());
    let d = run(big.clone(), n, cfg8, ctx_d.clone());

    let stats_a = a.join().unwrap().expect("job A is clean and must succeed");
    let stats_b = b.join().unwrap().expect("job B is clean and must succeed");
    match c_.join().unwrap() {
        Err(FlatDdError::AllocationFailed { .. }) => {}
        other => panic!("job C must hit its injected allocation fault, got {other:?}"),
    }
    match d.join().unwrap() {
        Err(FlatDdError::NumericalDivergence { .. }) => {}
        other => panic!("job D must trip the watchdog on its injected NaN, got {other:?}"),
    }

    // Per-job gate counters reflect each job's own circuit, nothing else.
    assert_eq!(
        stats_a.gates_dd + stats_a.gates_dmav,
        circuit.num_gates(),
        "job A stats polluted by a neighbor"
    );
    assert_eq!(
        stats_b.gates_dd + stats_b.gates_dmav,
        big.num_gates(),
        "job B stats polluted by a neighbor"
    );
    let a_gates = ctx_a.metrics().counter("core.gates_dd").get()
        + ctx_a.metrics().counter("core.gates_dmav").get();
    assert_eq!(a_gates, circuit.num_gates() as u64);
    let b_gates = ctx_b.metrics().counter("core.gates_dd").get()
        + ctx_b.metrics().counter("core.gates_dmav").get();
    assert_eq!(b_gates, big.num_gates() as u64);
    assert_eq!(
        ctx_a.metrics().counter("core.runs").get(),
        1,
        "each isolated registry sees exactly its own run"
    );
    assert_eq!(ctx_b.metrics().counter("core.runs").get(), 1);

    // The armed registries fired only for their own jobs.
    assert!(
        ctx_c.fires("alloc.flat").is_some(),
        "C stays armed (always)"
    );
    assert!(
        ctx_a.fires("alloc.flat").is_none(),
        "A must never see C's fault"
    );
    assert!(
        ctx_b.fires("state.nan").is_none(),
        "B must never see D's fault"
    );
}

/// Two jobs running their *DD phases* concurrently each own an
/// independent `DdPackage` (unique/complex/compute tables): both reproduce
/// their solo reference amplitudes bit for bit, and each job's `gates_dd`
/// counter counts only its own gates. Before the per-job `RunContext`
/// refactor the DD package was effectively global; this pins the
/// de-globalized behavior.
#[test]
fn concurrent_dd_phase_jobs_use_independent_packages() {
    let n = 8;
    // Irregular circuits, so the two packages fill with different nodes.
    let mk = |seed: u64| {
        let mut c = Circuit::new(n);
        for l in 0..12 {
            for q in 0..n {
                if (l + q + seed as usize).is_multiple_of(3) {
                    c.cx(q, (q + 1) % n);
                } else {
                    c.rx(0.17 + 0.05 * ((l * n + q) as f64 + seed as f64), q);
                }
            }
        }
        c
    };
    let (ca, cb) = (mk(0), mk(5));
    let cfg = FlatDdConfig {
        threads: 1,
        conversion: ConversionPolicy::Never,
        ..Default::default()
    };
    let reference = |c: &Circuit| {
        let mut sim = FlatDdSimulator::try_new(n, cfg).unwrap();
        sim.run(c).unwrap();
        sim.amplitudes()
    };
    let (want_a, want_b) = (reference(&ca), reference(&cb));

    let ctx_a = RunContext::isolated();
    let ctx_b = RunContext::isolated();
    let spawn = |c: Circuit, ctx: RunContext| {
        std::thread::spawn(move || {
            let mut sim = FlatDdSimulator::try_new_with(n, cfg, ctx).unwrap();
            sim.run(&c).unwrap();
            sim.amplitudes()
        })
    };
    let a = spawn(ca.clone(), ctx_a.clone());
    let b = spawn(cb.clone(), ctx_b.clone());
    let got_a = a.join().unwrap();
    let got_b = b.join().unwrap();

    let bits = |v: &[Complex64]| -> Vec<(u64, u64)> {
        v.iter().map(|a| (a.re.to_bits(), a.im.to_bits())).collect()
    };
    assert!(
        bits(&got_a) == bits(&want_a),
        "job A deviates by {:.3e} — packages not isolated?",
        state_distance(&got_a, &want_a)
    );
    assert!(
        bits(&got_b) == bits(&want_b),
        "job B deviates by {:.3e} — packages not isolated?",
        state_distance(&got_b, &want_b)
    );

    // Each context counted its own job's DD gates and nothing of the
    // neighbor's (a shared registry would read the sum in both).
    let gates = |ctx: &RunContext| ctx.metrics().counter("core.gates_dd").get();
    assert_eq!(gates(&ctx_a), ca.num_gates() as u64, "job A's gates_dd");
    assert_eq!(gates(&ctx_b), cb.num_gates() as u64, "job B's gates_dd");
}
