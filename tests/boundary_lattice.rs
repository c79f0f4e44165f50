//! The gate boundary's exit lattice: every way a run leaves the boundary
//! early, crossed with every kind of step the boundary wraps (a DD gate, a
//! flat gate, a fused block). One table, one set of assertions per cell:
//! the error is the typed one, its partial outcome agrees with the
//! simulator's gate cursor, and — for the resumable exits — the on-breach
//! checkpoint resumes to the uninterrupted run's amplitudes.
//!
//! The second test drives the memory ladder's sweep *inside* a fused span,
//! where the pending fused matrices are the package's only live roots.

use flatdd::{
    CheckpointPolicy, ConversionPolicy, FlatDdConfig, FlatDdError, FlatDdSimulator, FusionPolicy,
    GovernorConfig, Phase, RunContext,
};
use qcircuit::complex::state_distance;
use qcircuit::{dense, generators, Circuit};
use std::path::PathBuf;
use std::time::Duration;

const TOL: f64 = 1e-12;

/// The kind of step the boundary wraps.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Lane {
    Dd,
    Flat,
    FusedFlat,
}

/// The way the run leaves the boundary.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Exit {
    /// A cancel delivered between a completed prefix and its continuation.
    Cancel,
    /// A deadline that has passed before the first gate.
    Deadline,
    /// A budget no relief rung can restore (1 byte of process RSS), probed
    /// on the fifth step.
    Memory,
    /// The `state.nan` fault on its third hit, with the watchdog on every
    /// step. Divergence is not resumable.
    StateNan,
}

fn lane_cfg(lane: Lane) -> FlatDdConfig {
    let (conversion, fusion) = match lane {
        Lane::Dd => (ConversionPolicy::Never, FusionPolicy::None),
        Lane::Flat => (ConversionPolicy::Immediate, FusionPolicy::None),
        Lane::FusedFlat => (ConversionPolicy::Immediate, FusionPolicy::DmavAware),
    };
    FlatDdConfig {
        threads: 2,
        conversion,
        fusion,
        governor: GovernorConfig::unlimited(),
        ..FlatDdConfig::default()
    }
}

fn ckpt_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("flatdd_lattice_{}_{tag}.fdcp", std::process::id()))
}

/// Runs one cell; returns the error the boundary raised (`None` = the run
/// completed) and the simulator as the exit left it.
fn leave_boundary(
    exit: Exit,
    lane: Lane,
    c: &Circuit,
    path: &PathBuf,
) -> (Option<FlatDdError>, FlatDdSimulator) {
    let mut cfg = lane_cfg(lane);
    let mut ctx = RunContext::isolated();
    match exit {
        Exit::Cancel => {}
        Exit::Deadline => cfg.governor.deadline = Some(Duration::ZERO),
        Exit::Memory => {
            cfg.governor.rss_budget_bytes = Some(1);
            cfg.governor.rss_probe_every = 5;
        }
        Exit::StateNan => {
            cfg.governor.health_check_every = 1;
            ctx = ctx.with_faults_spec("state.nan:nan:3").unwrap();
        }
    }
    let mut sim = FlatDdSimulator::try_new_with(c.num_qubits(), cfg, ctx).unwrap();
    sim.set_checkpoint_policy(Some(CheckpointPolicy::at(path)));
    let result = match exit {
        Exit::Cancel => {
            sim.run_prefix(c, 40).unwrap();
            sim.context().cancel(15);
            sim.run_from(c)
        }
        Exit::Deadline => {
            std::thread::sleep(Duration::from_millis(2));
            sim.run(c)
        }
        Exit::Memory | Exit::StateNan => sim.run(c),
    };
    (result.err(), sim)
}

#[test]
fn every_exit_in_every_lane_is_typed_in_sync_and_resumable() {
    let c = generators::dnn(8, 4, 7);
    assert!(c.num_gates() > 60);
    let rss_probe_works = flatdd::memory::current_rss_bytes().is_some();
    for lane in [Lane::Dd, Lane::Flat, Lane::FusedFlat] {
        let want = flatdd::simulate(&c, lane_cfg(lane));
        assert!(state_distance(&want, &dense::simulate(&c)) < 1e-9);
        for exit in [Exit::Cancel, Exit::Deadline, Exit::Memory, Exit::StateNan] {
            if exit == Exit::Memory && !rss_probe_works {
                continue;
            }
            let cell = format!("{exit:?} x {lane:?}");
            let path = ckpt_path(&format!("{exit:?}_{lane:?}"));
            let _ = std::fs::remove_file(&path);
            let (err, sim) = leave_boundary(exit, lane, &c, &path);

            // The probe that poisons the state sits in the flat step (it
            // writes into the array), so a DD-phase run never meets it; in
            // the flat phase it covers single gates and fused blocks alike.
            if (exit, lane) == (Exit::StateNan, Lane::Dd) {
                assert!(err.is_none(), "{cell}: {err:?}");
                assert_eq!(sim.gates_applied(), c.num_gates(), "{cell}");
                continue;
            }
            let err = err.unwrap_or_else(|| panic!("{cell}: the run completed"));
            let typed = match (exit, &err) {
                (Exit::Cancel, FlatDdError::Interrupted { signal, .. }) => *signal == 15,
                (Exit::Deadline, FlatDdError::Deadline { .. }) => true,
                (Exit::Memory, FlatDdError::MemoryBudgetExceeded { context, .. }) => {
                    *context == "process RSS"
                }
                (Exit::StateNan, FlatDdError::NumericalDivergence { norm, .. }) => norm.is_nan(),
                _ => false,
            };
            assert!(typed, "{cell}: {err:?}");
            let partial = err.partial_outcome().expect("partial outcome");
            assert_eq!(partial.gates_applied, sim.gates_applied(), "{cell}");
            assert_eq!(partial.total_gates, c.num_gates(), "{cell}");
            assert_eq!(partial.phase, sim.phase(), "{cell}");
            match exit {
                Exit::Cancel => assert_eq!(partial.gates_applied, 40, "{cell}"),
                Exit::Deadline => assert_eq!(partial.gates_applied, 0, "{cell}"),
                // Five steps: five gates, or five blocks of at least one.
                Exit::Memory => {
                    assert!(partial.gates_applied >= 5, "{cell}");
                    assert!(lane == Lane::FusedFlat || partial.gates_applied == 5);
                    assert_eq!(partial.stats.pressure_gcs, 1, "{cell}");
                }
                Exit::StateNan => {
                    assert!(partial.gates_applied >= 3, "{cell}");
                    assert!(lane == Lane::FusedFlat || partial.gates_applied == 3);
                }
            }

            if !err.is_resumable() {
                assert_eq!(exit, Exit::StateNan, "{cell}");
                assert!(!path.exists(), "{cell}: divergence must not checkpoint");
                continue;
            }
            let (mut resumed, header) =
                FlatDdSimulator::resume_from(&path, lane_cfg(lane), &c).expect(&cell);
            assert_eq!(header.gate_cursor as usize, partial.gates_applied, "{cell}");
            assert_eq!(resumed.phase(), partial.phase, "{cell}");
            let outcome = resumed.run_from(&c).expect(&cell);
            assert!(outcome.is_complete(), "{cell}");
            let d = state_distance(&resumed.amplitudes(), &want);
            assert!(d < TOL, "{cell}: resumed run is {d:.3e} from uninterrupted");
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// A budget half the plan memo under what the unbudgeted run ends up
/// holding (state, output vector, package, plans) is busted mid-span (after
/// the third of seven steps): the ladder drops the output vector and the
/// plans and sweeps the package while later fused matrices are still
/// pending. Those are the sweep's roots; the run must finish exactly.
#[test]
fn pressure_sweep_inside_a_fused_span_keeps_the_pending_matrices() {
    let n = 16;
    let c = generators::dnn(n, 2, 7);
    let mut cfg = lane_cfg(Lane::FusedFlat);
    let mut free = FlatDdSimulator::try_new_with(n, cfg, RunContext::isolated()).unwrap();
    free.run(&c).unwrap();
    free.publish_metrics();
    let plans = free
        .context()
        .metrics()
        .gauge("plan_cache.memory_bytes")
        .get() as usize;
    assert!(plans > 0);
    cfg.governor.memory_budget_bytes = Some(free.memory_bytes() - plans / 2);
    let mut sim = FlatDdSimulator::try_new(n, cfg).unwrap();
    assert_eq!(sim.phase(), Phase::Dmav, "the budget admits the flat state");
    sim.run(&c).unwrap();
    let stats = sim.stats();
    assert!(stats.fused_matrices > 2, "{stats:?}");
    assert!(
        stats.pressure_gcs >= 1,
        "the ladder must have run: {stats:?}"
    );
    assert_eq!(stats.gates_dmav, stats.fused_matrices);
    let d = state_distance(&sim.amplitudes(), &dense::simulate(&c));
    assert!(d < TOL, "{d:.3e}");
}
