//! Sharded flat-phase integration: every `--flat-shards` setting must be
//! an implementation detail of the DMAV phase, invisible in the results.
//! A shard grid must agree with the single-shard (monolithic-equivalent)
//! state to 1e-12, checkpoints written mid-conversion and mid-flat-phase
//! must resume bit-compatibly under a *different* shard count, and random
//! circuits must agree between sharded and monolithic application.

use flatdd::{CheckpointPolicy, ConversionPolicy, FlatDdConfig, FlatDdSimulator, Phase};
use qcircuit::complex::state_distance;
use qcircuit::{dense, generators, prop, Circuit};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const TOL: f64 = 1e-12;

fn tmp_ckpt(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "flatdd-shards-test-{}-{tag}-{seq}.ckpt",
        std::process::id()
    ))
}

fn cfg(threads: usize, flat_shards: usize, convert_at: usize) -> FlatDdConfig {
    FlatDdConfig {
        threads,
        flat_shards,
        conversion: ConversionPolicy::AtGate(convert_at),
        ..Default::default()
    }
}

fn run(c: &Circuit, cfg: FlatDdConfig) -> Vec<qcircuit::complex::Complex64> {
    let mut sim = FlatDdSimulator::try_new(c.num_qubits(), cfg).unwrap();
    sim.run(c).unwrap();
    assert_eq!(
        sim.phase(),
        Phase::Dmav,
        "circuit must reach the flat phase"
    );
    sim.amplitudes()
}

#[test]
fn shard_grid_matches_single_shard() {
    // The single-shard state is the monolithic-equivalent reference: one
    // contiguous allocation, one conversion group, one DMAV group.
    let c = generators::supremacy_n(9, 8, 5);
    let want = run(&c, cfg(2, 1, 12));
    for shards in [2usize, 3, 4, 8, 16] {
        for threads in [1usize, 2, 4] {
            let got = run(&c, cfg(threads, shards, 12));
            let d = state_distance(&got, &want);
            assert!(
                d < TOL,
                "shards={shards} threads={threads} deviates by {d:.3e}"
            );
        }
    }
}

#[test]
fn sharded_runs_agree_with_dense() {
    for c in [
        generators::vqe(8, 2, 3),
        generators::qft(8),
        generators::dnn(8, 2, 9),
    ] {
        let want = dense::simulate(&c);
        for shards in [1usize, 4, 8] {
            let got = flatdd::simulate(&c, cfg(2, shards, 8));
            let d = state_distance(&got, &want);
            assert!(d < 1e-8, "{} shards={shards}: {d:.3e}", c.name());
        }
    }
}

/// Checkpoint at `cut` under `write_cfg`, resume under `read_cfg` (a
/// different shard count), finish, and compare against the uninterrupted
/// `write_cfg` run.
fn assert_reshard_resume(c: &Circuit, write_cfg: FlatDdConfig, read_cfg: FlatDdConfig, cut: usize) {
    let n = c.num_qubits();
    let mut clean = FlatDdSimulator::try_new(n, write_cfg).unwrap();
    clean.run(c).unwrap();
    let want = clean.amplitudes();

    let path = tmp_ckpt("reshard");
    let mut first = FlatDdSimulator::try_new(n, write_cfg).unwrap();
    first.set_checkpoint_policy(Some(CheckpointPolicy::at(&path)));
    first.run_prefix(c, cut).unwrap();
    first.save_checkpoint().unwrap();
    drop(first);

    let (mut resumed, header) = FlatDdSimulator::resume_from(&path, read_cfg, c).unwrap();
    assert_eq!(header.gate_cursor as usize, cut);
    resumed.run_from(c).unwrap();
    let d = state_distance(&resumed.amplitudes(), &want);
    assert!(
        d < TOL,
        "resume with {} shards of a {}-shard checkpoint (cut {cut}) deviates by {d:.3e}",
        read_cfg.flat_shards,
        write_cfg.flat_shards,
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn mid_flat_checkpoint_resumes_under_different_shard_count() {
    let c = generators::from_spec("vqe:9,2", 7).unwrap();
    let k = 10;
    let deep = c.num_gates() / 2;
    assert!(deep > k, "cut must land inside the flat phase");
    for (write_s, read_s) in [(4usize, 1usize), (1, 8), (8, 3), (2, 16)] {
        assert_reshard_resume(&c, cfg(2, write_s, k), cfg(2, read_s, k), deep);
    }
}

#[test]
fn mid_conversion_checkpoint_resumes_under_different_shard_count() {
    // Cuts straddling the conversion gate: one before (the conversion —
    // and the first sharded allocation — happens after resume, under the
    // new shard count), exactly at, and one after the boundary.
    let c = generators::from_spec("vqe:9,2", 11).unwrap();
    let k = 12;
    for cut in [k - 1, k, k + 1] {
        assert_reshard_resume(&c, cfg(2, 2, k), cfg(2, 5, k), cut);
        assert_reshard_resume(&c, cfg(2, 8, k), cfg(2, 1, k), cut);
    }
}

/// Random circuit, random conversion point, random shard count: the
/// sharded state matches the monolithic (single-shard) state.
#[test]
fn sharded_matches_monolithic_on_random_circuits() {
    prop::check(12, |g| {
        let c = generators::random_circuit(7, 40, g.rng.range(0..1000) as u64);
        let k = 1 + (g.rng.f64_in(0.0..1.0) * c.num_gates() as f64) as usize;
        let (shards, threads) = (g.rng.range(2..12), g.rng.range(1..5));
        let mono = flatdd::simulate(&c, cfg(2, 1, k));
        let sharded = flatdd::simulate(&c, cfg(threads, shards, k));
        let d = state_distance(&sharded, &mono);
        assert!(d < TOL, "shards={shards} threads={threads} k={k}: {d:.3e}");
    });
}
