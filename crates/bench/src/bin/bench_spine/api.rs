//! The only file of the benchmark that names items from `flatdd`, `qdd`,
//! `qarray` and `qcircuit`. Everything the harness measures goes through
//! the calls made here; README.md lists them as the frozen public surface,
//! so a refactor that changes one of these signatures needs a paired
//! benchmark change.
//!
//! Nothing engine-typed leaves this module: callers get seconds, counts and
//! `(re, im)` pairs.

use crate::catalog::{Params, INSTANCE_SEED, SERVE_MIX};
use crate::spans::Recorder;
use crate::stats::{median, percentile};
use flatdd::serve::json::{self as sjson, Json};
use flatdd::serve::{scheduler, JobRecord, JobSpec, JobState};
use flatdd::{
    circuit_fingerprint, dd_to_array_parallel_sharded_into_with, dmav_cached, dmav_no_cache,
    fuse_dmav_aware, no_fusion, CheckpointPolicy, ConversionPlan, ConversionPolicy, CostModel,
    DmavAssignment, DmavCacheAssignment, FlatDdConfig, FlatDdSimulator, FusionPolicy,
    GovernorConfig, PartialBuffers, Phase, RunContext, ThreadPool,
};
use qarray::{apply_gate_sharded, vecops, ArraySimulator, ShardedState};
use qcircuit::{generators, Circuit, Complex64};
use qdd::{DdPackage, MacTable};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Largest |amplitude difference| a result may have against its reference.
pub const AMP_TOL: f64 = 1e-8;
/// Largest | ||state|| - 1 | a result may have.
pub const NORM_TOL: f64 = 1e-9;
/// Amplitudes published per workload for the timed repetitions to compare.
pub const REF_SAMPLES: usize = 64;

/// Name of the vecops backend the engine dispatches to on this machine.
pub fn vecops_backend() -> &'static str {
    vecops::backend().name()
}

/// What the probes need to know about the machine.
pub struct Host {
    pub mem_available: u64,
    pub llc_bytes: u64,
}

/// The harness's own generator (SplitMix64) for everything it derives from
/// `--seed` itself: adder operands, job order, sample indices.
struct SplitMix(u64);

impl SplitMix {
    fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

// ---------------------------------------------------------------------------
// Workload inputs
// ---------------------------------------------------------------------------

/// One simulator problem: the generated circuit, the engine configuration
/// and what the run must look like when it ends.
pub struct Case {
    circuit: Circuit,
    cfg: FlatDdConfig,
    /// `Some(true)`: must end in the flat phase; `Some(false)`: must end in
    /// the DD phase; `None`: no assertion (the `serve_mix` stand-in).
    must_convert: Option<bool>,
}

/// Engine configuration with every environment-derived field pinned.
fn config(threads: usize) -> FlatDdConfig {
    FlatDdConfig {
        threads,
        dd_threads: threads,
        // 0 follows the thread count; the single-thread baseline pins the
        // serial path explicitly.
        flat_shards: usize::from(threads == 1),
        governor: GovernorConfig::default(),
        ..FlatDdConfig::default()
    }
}

fn job_spec(spec: &str) -> JobSpec {
    JobSpec {
        circuit: spec.to_string(),
        seed: INSTANCE_SEED,
        threads: 1,
        ..JobSpec::default()
    }
}

/// Builds the simulator problem of `workload` from `seed`. For `serve_mix`
/// this is the stand-in circuit the simulator layer probes run on.
pub fn build_case(workload: &str, seed: u64, p: &Params, threads: usize) -> Result<Case, String> {
    let mut cfg = config(threads);
    let mut must_convert = Some(true);
    let circuit = match workload {
        "supremacy_flat" => {
            generators::supremacy_n(p.supremacy_flat.0, p.supremacy_flat.1, INSTANCE_SEED)
        }
        "dnn_fused" => {
            cfg.fusion = FusionPolicy::DmavAware;
            generators::dnn(p.dnn_fused.0, p.dnn_fused.1, seed)
        }
        "knn_wide" => generators::knn(p.knn_wide, seed),
        "supremacy_dd" => {
            cfg.conversion = ConversionPolicy::Never;
            must_convert = Some(false);
            generators::supremacy_n(p.supremacy_dd.0, p.supremacy_dd.1, INSTANCE_SEED)
        }
        "adder_dd" => {
            must_convert = Some(false);
            let (k, reps) = p.adder_dd;
            let mut rng = SplitMix::new(seed);
            let mut c = Circuit::named(2 * k + 2, format!("adder_dd_{k}x{reps}"));
            for _ in 0..reps {
                let (a, b) = (rng.next_u64() >> (64 - k), rng.next_u64() >> (64 - k));
                c.extend(&generators::adder(k, a, b));
            }
            c
        }
        SERVE_MIX => {
            must_convert = None;
            scheduler::build_circuit(&job_spec(p.serve_trace_spec)).map_err(|e| e.to_string())?
        }
        other => return Err(format!("unknown workload `{other}`")),
    };
    Ok(Case {
        circuit,
        cfg,
        must_convert,
    })
}

impl Case {
    pub fn qubits(&self) -> usize {
        self.circuit.num_qubits()
    }

    /// Content hash of the generated circuit (`flatdd::circuit_fingerprint`).
    pub fn fingerprint(&self) -> u64 {
        circuit_fingerprint(&self.circuit)
    }

    /// Bytes of one flat state vector of this problem.
    pub fn state_bytes(&self) -> u64 {
        16u64 << self.qubits()
    }

    fn fused(&self) -> bool {
        self.cfg.fusion != FusionPolicy::None
    }

    fn phase_ok(&self, sim: &FlatDdSimulator) -> Result<(), String> {
        let flat = sim.phase() == Phase::Dmav;
        match self.must_convert {
            Some(want) if want != flat => Err(format!(
                "phase assertion failed: run ended in the {} phase (converted_at={:?})",
                sim.phase().label(),
                sim.stats().converted_at
            )),
            _ => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------------
// Reference samples and result checks
// ---------------------------------------------------------------------------

/// `(basis index, re, im)` of a reference amplitude.
pub type Sample = (usize, f64, f64);

fn max_abs_err(a: &[Complex64], b: &[Complex64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x - *y).abs())
        .fold(0.0, f64::max)
}

fn norm_err(amps: &[Complex64]) -> f64 {
    (vecops::norm_sqr(amps).sqrt() - 1.0).abs()
}

/// Picks the published samples: the heaviest amplitudes (where an error
/// would matter most) plus seed-chosen indices spread over the state.
fn pick_samples(reference: &[Complex64], seed: u64) -> Vec<Sample> {
    let mut by_weight: Vec<usize> = (0..reference.len()).collect();
    let heavy = (REF_SAMPLES / 2).min(reference.len());
    by_weight.select_nth_unstable_by(heavy.saturating_sub(1), |&a, &b| {
        reference[b]
            .norm_sqr()
            .total_cmp(&reference[a].norm_sqr())
            .then(a.cmp(&b))
    });
    let mut idx: Vec<usize> = by_weight[..heavy].to_vec();
    let mut rng = SplitMix::new(seed ^ 0x05EE_D5A3_B1E5);
    while idx.len() < REF_SAMPLES.min(reference.len()) {
        let i = (rng.next_u64() % reference.len() as u64) as usize;
        if !idx.contains(&i) {
            idx.push(i);
        }
    }
    idx.sort_unstable();
    idx.into_iter()
        .map(|i| (i, reference[i].re, reference[i].im))
        .collect()
}

/// What one repetition reports back.
#[derive(Default)]
pub struct RepOut {
    pub new_s: f64,
    pub run_s: f64,
    /// Largest sample error and norm error of the final state.
    pub max_abs_err: f64,
    pub norm_err: f64,
    /// Counters that must repeat exactly for a fixed seed and thread count.
    pub counters: Vec<(&'static str, f64)>,
}

fn exact_counters(sim: &FlatDdSimulator) -> Vec<(&'static str, f64)> {
    let s = sim.stats();
    vec![
        (
            "ewma.converted_at",
            s.converted_at.map_or(-1.0, |g| g as f64),
        ),
        ("sim.gates_dd", s.gates_dd as f64),
        ("sim.gates_dmav", s.gates_dmav as f64),
        ("fusion.matrices", s.fused_matrices as f64),
        ("cost.modeled_total", s.modeled_cost),
    ]
}

/// One timed repetition on an already generated `case`: construct, `run`,
/// then (clock stopped) check the phase assertion, the published samples
/// and the norm.
///
/// `ready` fires when the simulator is constructed, `done` when `run` has
/// returned; the parent stamps both, and `done` is also where the child
/// reads its peak RSS, before the checks allocate anything.
pub fn timed_rep(
    case: &Case,
    samples: &[Sample],
    ready: impl FnOnce(),
    done: impl FnOnce(),
) -> Result<RepOut, String> {
    let t1 = Instant::now();
    let mut sim = FlatDdSimulator::try_new(case.qubits(), case.cfg).map_err(|e| e.to_string())?;
    let new_s = t1.elapsed().as_secs_f64();
    ready();
    let t2 = Instant::now();
    let outcome = sim.run(black_box(&case.circuit));
    let run_s = t2.elapsed().as_secs_f64();
    done();
    outcome.map_err(|e| e.to_string())?;
    case.phase_ok(&sim)?;
    let mut worst = 0.0f64;
    for &(i, re, im) in samples {
        worst = worst.max((sim.amplitude(i) - Complex64::new(re, im)).abs());
    }
    let norm = norm_err(&sim.amplitudes());
    if worst > AMP_TOL || norm > NORM_TOL {
        return Err(format!(
            "result check failed: max |d amp| = {worst:e} (tol {AMP_TOL:e}), | norm - 1 | = {norm:e} (tol {NORM_TOL:e})"
        ));
    }
    Ok(RepOut {
        new_s,
        run_s,
        max_abs_err: worst,
        norm_err: norm,
        counters: exact_counters(&sim),
    })
}

/// The independent engine: the array simulator on one thread.
fn reference_run(circuit: &Circuit) -> (Vec<Complex64>, f64) {
    let t = Instant::now();
    let mut arr = ArraySimulator::new(circuit.num_qubits());
    arr.run(black_box(circuit));
    let secs = t.elapsed().as_secs_f64();
    (arr.into_state(), secs)
}

/// Full-state check of `sim` against the array engine. Returns the samples
/// to publish, the largest amplitude error and the reference run time.
fn full_check(
    case: &Case,
    sim: &FlatDdSimulator,
    seed: u64,
) -> Result<(Vec<Sample>, f64, f64), String> {
    case.phase_ok(sim)?;
    let (reference, ref_s) = reference_run(&case.circuit);
    let amps = sim.amplitudes();
    let err = max_abs_err(&amps, &reference);
    let norm = norm_err(&amps);
    if err > AMP_TOL || norm > NORM_TOL {
        return Err(format!(
            "full-state check against the array engine failed: max |d amp| = {err:e}, | norm - 1 | = {norm:e}"
        ));
    }
    Ok((pick_samples(&reference, seed), err, ref_s))
}

/// The untimed checking repetition of an end-to-end run: one `run` (which
/// also warms the page cache and the binary), compared amplitude by
/// amplitude with the array engine.
pub fn check_rep(case: &Case, seed: u64) -> Result<(Vec<Sample>, f64), String> {
    let mut sim = FlatDdSimulator::try_new(case.qubits(), case.cfg).map_err(|e| e.to_string())?;
    sim.run(&case.circuit).map_err(|e| e.to_string())?;
    let (samples, err, _) = full_check(case, &sim, seed)?;
    Ok((samples, err))
}

// ---------------------------------------------------------------------------
// The traced repetition
// ---------------------------------------------------------------------------

fn secs<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

fn micros<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let (r, s) = secs(f);
    (r, s * 1e6)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// GB/s of `pass`, which moves `bytes` (computed from array sizes, cache
/// misses ignored). One warm pass, then at least three timed passes and at
/// least 30 ms.
fn bandwidth_gbps(bytes: f64, mut pass: impl FnMut()) -> f64 {
    pass();
    let t = Instant::now();
    let mut passes = 0u32;
    while passes < 3 || t.elapsed().as_secs_f64() < 0.03 {
        pass();
        passes += 1;
    }
    bytes * f64::from(passes) / t.elapsed().as_secs_f64() / 1e9
}

/// Every `stride`-th index of `0..len`, at most `want` of them.
fn sample_indices(len: usize, want: usize) -> Vec<usize> {
    if len == 0 || want == 0 {
        return Vec::new();
    }
    let stride = len.div_ceil(want);
    (0..len).step_by(stride).collect()
}

/// Metrics of the traced repetition, in catalog order where it matters.
pub type Layers = Vec<(&'static str, f64)>;

/// Drives `case` gate by gate under spans, then replays the same gates
/// through each layer's public functions on harness-owned state, and checks
/// the final state against the array engine.
///
/// Returns the layer metrics and the samples to publish. `scratch` is a
/// directory the checkpoint probe may write into; `seed` picks the samples.
pub fn traced_rep(
    mut case: Case,
    seed: u64,
    p: &Params,
    rec: &mut Recorder,
    scratch: &Path,
    host: &Host,
) -> Result<(Layers, Vec<Sample>), String> {
    let mut out: Layers = Vec::new();
    let err = |e: flatdd::FlatDdError| e.to_string();
    let threads = case.cfg.threads;

    // Fused tails run inside the engine; its own per-gate trace is the only
    // view of the fused matrices' times.
    case.cfg.trace = case.fused();
    let n = case.qubits();
    let gates = case.circuit.gates();
    let (sim, new_s) = rec.time("sim.new", None, || FlatDdSimulator::try_new(n, case.cfg));
    let mut sim = sim.map_err(err)?;
    out.push(("sim.new_s", new_s));

    // -- the run, one span per public call --------------------------------------
    let run = rec.begin("sim.run", None);
    let mut phase_span = rec.begin("phase.dd", Some(run));
    let (mut dd_us, mut flat_us) = (Vec::new(), Vec::new());
    let mut convert_us = 0.0;
    let mut next = 0;
    while next < gates.len() {
        let before = sim.phase();
        if before == Phase::Dmav && case.fused() {
            break;
        }
        let id = rec.begin("sim.apply", Some(phase_span));
        sim.apply(&gates[next]).map_err(err)?;
        let us = rec.end(id);
        next += 1;
        match (before, sim.phase()) {
            (Phase::Dd, Phase::Dd) => dd_us.push(us),
            (Phase::Dd, Phase::Dmav) => {
                // The gate that tripped the conversion gets a parent of its
                // own, between the two phases.
                convert_us = us;
                rec.end_at(phase_span, rec.get(id).start_us);
                rec.wrap(id, "gate.convert", Some(run));
                phase_span = rec.begin("phase.flat", Some(run));
            }
            _ => flat_us.push(us),
        }
    }
    let mut fused_tail_us = 0.0;
    if next < gates.len() {
        let id = rec.begin("sim.run_from", Some(phase_span));
        sim.run_from(&case.circuit).map_err(err)?;
        fused_tail_us = rec.end(id);
        flat_us = sim
            .traces()
            .iter()
            .filter(|t| t.phase == Phase::Dmav)
            .map(|t| t.seconds * 1e6)
            .collect();
    }
    rec.end(phase_span);
    let run_us = rec.end(run);

    let stats = sim.stats();
    // `+ 0.0`: an empty float sum is -0.0, which would print as such.
    let dd_phase_s = (dd_us.iter().sum::<f64>() + 0.0) / 1e6;
    let flat_phase_s = if fused_tail_us > 0.0 {
        fused_tail_us / 1e6
    } else {
        (flat_us.iter().sum::<f64>() + 0.0) / 1e6
    };
    out.push(("sim.run_span_s", run_us / 1e6));
    out.push(("sim.dd_phase_s", dd_phase_s));
    out.push(("sim.convert_gate_s", convert_us / 1e6));
    out.push(("sim.flat_phase_s", flat_phase_s));
    out.push(("sim.flat_share", ratio(flat_phase_s, run_us / 1e6)));
    out.push(("sim.flat_gate_p50_us", median(&flat_us)));
    out.push(("sim.flat_gate_p99_us", percentile(&flat_us, 99.0)));
    out.push(("sim.gates_dd", stats.gates_dd as f64));
    out.push(("sim.gates_dmav", stats.gates_dmav as f64));
    out.push(("sim.cached_dmavs", stats.cached_dmavs as f64));
    out.push(("sim.uncached_dmavs", stats.uncached_dmavs as f64));
    out.push((
        "ewma.converted_at",
        stats.converted_at.map_or(-1.0, |g| g as f64),
    ));
    out.push(("ewma.peak_dd_size", stats.peak_state_dd_size as f64));
    out.push(("qdd.gc_count", sim.package().gc_epoch() as f64));
    out.push(("qdd.ct_mv_hit_rate", stats.ct_mv_hit_rate));
    out.push(("qdd.ct_mm_hit_rate", stats.ct_mm_hit_rate));
    out.push(("qdd.ct_add_hit_rate", stats.ct_add_hit_rate));
    let pstats = sim.package().stats();
    out.push((
        "qdd.peak_nodes",
        (pstats.peak_v_nodes + pstats.peak_m_nodes) as f64,
    ));
    out.push((
        "qdd.contention_events",
        sim.package().contention_events() as f64,
    ));
    out.push((
        "qdd.memory_mb",
        pstats.memory_bytes as f64 / (1 << 20) as f64,
    ));
    let plan_hit_rate = ratio(
        stats.dmav_plan_hits as f64,
        (stats.dmav_plan_hits + stats.dmav_plan_misses) as f64,
    );
    out.push(("plan_cache.hit_rate", plan_hit_rate));
    out.push(("cost.modeled_total", stats.modeled_cost));
    let sim_fused_matrices = stats.fused_matrices;

    // -- result check and published samples ---------------------------------------
    let (samples, check_err, ref_s) = full_check(&case, &sim, seed)?;
    out.push(("check.max_abs_err", check_err));
    out.push(("qarray.run_s", ref_s));

    // -- flatdd::checkpoint ---------------------------------------------------------
    // `run_from` with no gates left only stamps the circuit hash that
    // `resume_from` validates.
    let ckpt = scratch.join(format!("probe-{}.ckpt", std::process::id()));
    sim.set_checkpoint_policy(Some(CheckpointPolicy::at(&ckpt)));
    sim.run_from(&case.circuit).map_err(err)?;
    let (bytes, write_s) = rec.time("checkpoint.save", None, || sim.save_checkpoint());
    let bytes = bytes.map_err(err)?;
    drop(sim);
    let (resumed, read_s) = rec.time("checkpoint.resume", None, || {
        FlatDdSimulator::resume_from(&ckpt, case.cfg, &case.circuit)
    });
    drop(resumed.map_err(err)?);
    let _ = std::fs::remove_file(&ckpt);
    out.push(("checkpoint.write_s", write_s));
    out.push(("checkpoint.read_s", read_s));
    out.push(("checkpoint.bytes", bytes as f64));
    out.push(("checkpoint.write_mbps", ratio(bytes as f64 / 1e6, write_s)));

    // -- qdd: sequential replay of the DD phase on a harness-owned package ---------
    let dd_gates = &gates[..stats.gates_dd.min(gates.len())];
    let flat_gates = if stats.gates_dd < gates.len() {
        &gates[stats.gates_dd..]
    } else {
        gates
    };
    let pool = ThreadPool::try_new(threads).map_err(|e| e.to_string())?;
    let mut pkg = DdPackage::default();
    let mut state = pkg.basis_state(n, 0);
    let (mut gate_dd_us, mut mul_mv_us, mut dd_size_us, mut gc_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut gc_threshold = 1usize << 16;
    let replay = rec.begin("probe.qdd_replay", None);
    for g in dd_gates {
        let (m, t) = micros(|| pkg.gate_dd(g, n));
        gate_dd_us.push(t);
        let (s, t) = micros(|| pkg.mul_mv(m, state));
        mul_mv_us.push(t);
        state = s;
        let (_, t) = micros(|| black_box(pkg.vector_dd_size(state)));
        dd_size_us.push(t);
        // The driver's own collection rule, so the replayed package sees
        // the same table pressure.
        let live = pkg.stats();
        if live.v_nodes + live.m_nodes > gc_threshold {
            gc_s.push(secs(|| pkg.gc(&[state], &[])).1);
            let live = pkg.stats();
            gc_threshold = ((live.v_nodes + live.m_nodes) * 2).max(1 << 16);
        }
    }
    rec.end(replay);
    out.push(("ewma.dd_size_at_convert", pkg.vector_dd_size(state) as f64));
    out.push(("qdd.gate_dd_us", median(&gate_dd_us)));
    out.push(("qdd.mul_mv_us", median(&mul_mv_us)));
    out.push(("qdd.dd_size_us", median(&dd_size_us)));
    out.push((
        "sim.dd_gate_self_us",
        median(&dd_us) - median(&gate_dd_us) - median(&mul_mv_us) - median(&dd_size_us),
    ));

    // -- qdd: the same gates through the parallel apply -----------------------------
    // A second package, because the two paths feed the same compute table
    // and would answer each other's lookups.
    {
        let mut par = DdPackage::default();
        let mut s = par.basis_state(n, 0);
        let mut par_us = Vec::new();
        let mut gc_threshold = 1usize << 16;
        let id = rec.begin("probe.qdd_parallel_replay", None);
        for g in &dd_gates[..dd_gates.len().min(4096)] {
            let (s2, t) = micros(|| par.apply_gate_parallel(&pool, s, g, n));
            par_us.push(t);
            s = s2;
            let live = par.stats();
            if live.v_nodes + live.m_nodes > gc_threshold {
                par.gc(&[s], &[]);
                let live = par.stats();
                gc_threshold = ((live.v_nodes + live.m_nodes) * 2).max(1 << 16);
            }
        }
        rec.end(id);
        out.push(("qdd.mul_mv_par_us", median(&par_us)));
    }

    // -- flatdd::convert on the state the DD phase ended with --------------------------
    let dim = 1usize << n;
    let shards = flatdd::clamp_shards(case.cfg.flat_shards, flatdd::clamp_threads(threads, n), n);
    let (v, alloc_s) = rec.time("convert.alloc_zero", None, || {
        ShardedState::try_new_zeroed(dim, shards, threads)
    });
    let mut v = v.map_err(|e| e.to_string())?;
    let (plan, plan_s) = rec.time("convert.plan_build", None, || {
        ConversionPlan::build(&pkg, state, n, shards)
    });
    let coverage = plan.coverage(&pkg);
    let mean_cov = coverage.iter().sum::<usize>() as f64 / coverage.len().max(1) as f64;
    let max_cov = coverage.iter().copied().max().unwrap_or(0) as f64;
    let ctx = RunContext::isolated();
    let (_, fill_s) = rec.time("convert.fill", None, || {
        dd_to_array_parallel_sharded_into_with(&pkg, state, n, &pool, shards, &mut v, &ctx)
    });
    let (seq, seq_s) = rec.time("convert.seq", None, || pkg.vector_to_array(state, n));
    drop(seq);
    out.push(("convert.alloc_zero_s", alloc_s));
    out.push(("convert.plan_build_s", plan_s));
    out.push(("convert.fill_s", fill_s));
    out.push(("convert.seq_s", seq_s));
    out.push((
        "convert.gbytes_per_s",
        ratio(16.0 * dim as f64 / 1e9, fill_s),
    ));
    out.push(("convert.balance", ratio(max_cov, mean_cov)));
    out.push(("qdd.gc_s", {
        // One collection at the DD phase's final size, so the metric exists
        // even when the replay never crossed the threshold.
        gc_s.push(secs(|| pkg.gc(&[state], &[])).1);
        median(&gc_s)
    }));

    // -- dmav, dmav_cache, cost, qarray kernel on sampled flat-phase gates -------------
    let mut w = ShardedState::try_new_zeroed(dim, shards, threads).map_err(|e| e.to_string())?;
    // Fewer samples on wide states: one sample costs two whole DMAVs.
    let want = ((1usize << 24) >> n.min(24)).clamp(4, 64);
    let model = CostModel::default();
    let mut mac = MacTable::default();
    let mut scratch_bufs = PartialBuffers::default();
    let (mut flat_gate_dd_us, mut plain_plan_us, mut cached_plan_us, mut analyze_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut plain_us, mut cached_us, mut picked_us, mut array_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut macs, mut tasks, mut hits, mut buffers, mut right_picks) = (0u64, 0, 0, 0, 0usize);
    let probes = rec.begin("probe.flat_gates", None);
    let sampled = sample_indices(flat_gates.len(), want);
    for &i in &sampled {
        let g = &flat_gates[i];
        let (m, t) = micros(|| pkg.gate_dd(g, n));
        flat_gate_dd_us.push(t);
        let (plain, t) = micros(|| DmavAssignment::try_build(&pkg, m, n, shards));
        let plain = plain.map_err(err)?;
        plain_plan_us.push(t);
        let (cached, t) = micros(|| DmavCacheAssignment::try_build(&pkg, m, n, shards));
        let cached = cached.map_err(err)?;
        cached_plan_us.push(t);
        let (analysis, t) =
            micros(|| model.analyze_with_assignment(&pkg, &mut mac, &cached, m, n, shards));
        analyze_us.push(t);
        let (_, t_plain) = micros(|| dmav_no_cache(&pkg, &plain, &v, &mut w, &pool));
        plain_us.push(t_plain);
        let (st, t_cached) =
            micros(|| dmav_cached(&pkg, &cached, &v, &mut w, &pool, &mut scratch_bufs));
        cached_us.push(t_cached);
        macs += analysis.k1;
        tasks += st.tasks;
        hits += st.hits;
        buffers = buffers.max(st.buffers);
        picked_us.push(if analysis.prefer_cached() {
            t_cached
        } else {
            t_plain
        });
        right_picks += usize::from(analysis.prefer_cached() == (t_cached < t_plain));
        // The array engine's kernel on the same gate and geometry; `w` is
        // scratch here, its values do not matter.
        array_us.push(micros(|| apply_gate_sharded(&mut w, g, threads, shards)).1);
    }
    rec.end(probes);
    let plain_total_s = plain_us.iter().sum::<f64>() / 1e6;
    let state_bytes = 16.0 * dim as f64;
    let dmav_gbps = ratio(
        2.0 * state_bytes * sampled.len() as f64 / 1e9,
        plain_total_s,
    );
    out.push(("dmav.plan_build_us", median(&plain_plan_us)));
    out.push(("dmav_cache.plan_build_us", median(&cached_plan_us)));
    out.push(("cost.analyze_us", median(&analyze_us)));
    out.push(("dmav.exec_us", median(&plain_us)));
    out.push(("dmav_cache.exec_us", median(&cached_us)));
    out.push(("dmav.macs_per_s", ratio(macs as f64, plain_total_s)));
    out.push(("dmav.gbytes_per_s", dmav_gbps));
    out.push(("dmav_cache.hit_rate", ratio(hits as f64, tasks as f64)));
    out.push(("dmav_cache.buffers", buffers as f64));
    out.push((
        "cost.pick_accuracy",
        ratio(right_picks as f64, sampled.len() as f64),
    ));
    out.push(("qarray.gate_us", median(&array_us)));
    out.push((
        "sim.flat_gate_self_us",
        median(&flat_us)
            - median(&flat_gate_dd_us)
            - median(&analyze_us)
            - median(&picked_us)
            - (1.0 - plan_hit_rate) * (median(&cached_plan_us) + median(&plain_plan_us)),
    ));

    // -- fusion and qdd::mul_mm on the flat-phase tail -----------------------------------
    {
        // The fused workload fuses its whole tail, as the engine did; the
        // others only sample what fusing their first gates would cost
        // (DDMM on wide Toffoli chains takes seconds).
        let cap = if case.fused() { usize::MAX } else { 16 };
        let tail = &flat_gates[..flat_gates.len().min(cap)];
        let mut fpkg = DdPackage::default();
        let unfused = no_fusion(&mut fpkg, tail, n, threads, &model).total_cost;
        let (fused, fuse_s) = rec.time("fusion.fuse_dmav_aware", None, || {
            fuse_dmav_aware(
                &mut fpkg,
                tail,
                n,
                threads,
                &model,
                case.cfg.fusion_gc_every,
            )
        });
        if case.fused() && tail.len() == flat_gates.len() && fused.len() != sim_fused_matrices {
            return Err(format!(
                "fusion probe produced {} matrices, the engine run {sim_fused_matrices}",
                fused.len()
            ));
        }
        let max_nodes = fused
            .matrices
            .iter()
            .map(|&m| fpkg.matrix_dd_size(m))
            .max()
            .unwrap_or(0);
        out.push(("fusion.fuse_s", fuse_s));
        out.push(("fusion.matrices", fused.len() as f64));
        out.push(("fusion.max_matrix_nodes", max_nodes as f64));
        out.push(("fusion.cost_reduction_x", ratio(unfused, fused.total_cost)));
        // DDMM the way fusion calls it: the next gate onto the product
        // accumulated so far, restarted every eight gates.
        let mpkg = DdPackage::default();
        let mut acc = mpkg.identity_dd(n);
        let mut mm_us = Vec::new();
        for (k, g) in tail.iter().take(256).enumerate() {
            let m = mpkg.gate_dd(g, n);
            if k % 8 == 0 {
                acc = m;
                continue;
            }
            let (prod, t) = micros(|| mpkg.mul_mm(m, acc));
            mm_us.push(t);
            acc = prod;
        }
        out.push(("qdd.mul_mm_us", median(&mm_us)));
    }

    // -- qarray::vecops at the workload's 2^n ---------------------------------------------
    {
        let f = Complex64::new(0.6, 0.8);
        let m4 = [f, f.conj(), f.conj(), f];
        let (src, dst): (&[Complex64], &mut [Complex64]) = (&v, &mut w);
        out.push((
            "vecops.axpy_gbps",
            bandwidth_gbps(3.0 * state_bytes, || vecops::axpy(dst, f, src)),
        ));
        out.push((
            "vecops.scale_gbps",
            bandwidth_gbps(2.0 * state_bytes, || vecops::scale(dst, f, src)),
        ));
        out.push((
            "vecops.sum_into_gbps",
            bandwidth_gbps(3.0 * state_bytes, || vecops::sum_into(dst, src)),
        ));
        out.push((
            "vecops.mac2x2_gbps",
            bandwidth_gbps(3.0 * state_bytes, || {
                for (pair, s) in dst.chunks_exact_mut(2).zip(src.chunks_exact(2)) {
                    vecops::mac2x2(pair, &m4, s[0], s[1]);
                }
            }),
        ));
        out.push((
            "vecops.norm_sqr_gbps",
            bandwidth_gbps(state_bytes, || {
                black_box(vecops::norm_sqr(src));
            }),
        ));
    }
    drop((v, w));

    // -- memory bandwidth, measured in the same repetition ----------------------------------
    {
        let want = (4 * host.llc_bytes).max(256 << 20);
        let array_bytes = want.min(host.mem_available / 8).min(p.triad_cap_bytes);
        let gbps = triad_gbps(array_bytes as usize, threads);
        out.push(("mem.triad_gbps", gbps));
        out.push(("mem.triad_array_mb", array_bytes as f64 / (1 << 20) as f64));
        // A ratio against DRAM bandwidth only means something when the
        // arrays really were four times the last-level cache.
        out.push((
            "dmav.bw_share",
            if array_bytes >= want {
                ratio(dmav_gbps, gbps)
            } else {
                0.0
            },
        ));
    }
    Ok((out, samples))
}

/// STREAM triad `a[i] = b[i] + s * c[i]` over three arrays of `bytes` each,
/// split over `threads` scoped threads. Computed bytes: 3 x `bytes` a pass.
fn triad_gbps(bytes: usize, threads: usize) -> f64 {
    let len = (bytes / 8).max(threads);
    let mut a = vec![0.0f64; len];
    let b = vec![1.5f64; len];
    let c = vec![2.5f64; len];
    let chunk = len.div_ceil(threads);
    let mut pass = || {
        std::thread::scope(|s| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                s.spawn(move || {
                    for ((x, y), z) in a.iter_mut().zip(b).zip(c) {
                        *x = *y + 3.0 * *z;
                    }
                });
            }
        });
    };
    let gbps = bandwidth_gbps(3.0 * 8.0 * len as f64, &mut pass);
    black_box(&a);
    gbps
}

// ---------------------------------------------------------------------------
// serve: job bodies, status parsing, in-process reference
// ---------------------------------------------------------------------------

/// One job of the `serve_mix` stream.
#[derive(Clone, Debug)]
pub struct Job {
    pub spec: &'static str,
    pub priority: i64,
    pub checkpoint_every: Option<usize>,
}

/// The seed-shuffled job stream: specs round-robin, then shuffled; 1 in 8
/// at priority 10 and 1 in 6 with `checkpoint_every: 32`.
pub fn job_stream(p: &Params, jobs: usize, seed: u64) -> Vec<Job> {
    let mut rng = SplitMix::new(seed ^ 0x0B5E_55ED);
    let mut stream: Vec<Job> = (0..jobs)
        .map(|i| Job {
            spec: p.serve_specs[i % p.serve_specs.len()],
            priority: if i % 8 == 7 { 10 } else { 0 },
            checkpoint_every: (i % 6 == 5).then_some(32),
        })
        .collect();
    for i in (1..stream.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        stream.swap(i, j);
    }
    stream
}

/// The `POST /jobs` body of `job`.
pub fn job_body(job: &Job) -> String {
    let mut spec = job_spec(job.spec);
    spec.priority = job.priority;
    spec.checkpoint_every = job.checkpoint_every;
    spec.to_json().to_string()
}

/// The id in a `202` submit response.
pub fn parse_submit(body: &str) -> Option<u64> {
    sjson::parse(body).ok()?.get("id").and_then(Json::as_u64)
}

/// What the load generator needs from a `GET /jobs/{id}` body.
pub struct JobView {
    pub terminal: bool,
    pub done: bool,
    pub state: String,
    pub heavy: Vec<Sample>,
    pub preemptions: u32,
    pub retries: u32,
}

pub fn parse_job(body: &str) -> Result<JobView, String> {
    let rec = JobRecord::from_json(&sjson::parse(body)?)?;
    Ok(JobView {
        terminal: rec.state.is_terminal(),
        done: rec.state == JobState::Done,
        state: rec.state.label().to_string(),
        heavy: rec.result.map(|r| r.heavy).unwrap_or_default(),
        preemptions: rec.preemptions,
        retries: rec.retries,
    })
}

/// Runs the circuit of `spec` in this process with `flatdd::simulate` on
/// one thread: the reference a served result is compared with, and the
/// no-daemon baseline of the same job. Returns amplitudes and seconds.
pub fn simulate_in_process(spec: &str) -> Result<(Vec<(f64, f64)>, f64), String> {
    let circuit = scheduler::build_circuit(&job_spec(spec)).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let amps = flatdd::try_simulate(black_box(&circuit), config(1)).map_err(|e| e.to_string())?;
    let secs = t.elapsed().as_secs_f64();
    Ok((amps.into_iter().map(|a| (a.re, a.im)).collect(), secs))
}

/// `BENCHMARK.json` as the catalog test needs it: `(name, why)` per
/// workload, `(name, unit, better, bound)` per metric.
#[cfg(test)]
pub struct BenchmarkDecl {
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<(String, String, String, Option<f64>)>,
    pub per_layer: Vec<(String, String, String, Option<f64>)>,
    pub paths: Vec<String>,
    pub run_seconds: u64,
}

#[cfg(test)]
pub fn parse_benchmark_json(text: &str) -> Result<BenchmarkDecl, String> {
    let root = sjson::parse(text)?;
    let list = |key: &str| match root.get(key) {
        Some(Json::Arr(items)) => Ok(items.clone()),
        _ => Err(format!("`{key}` is not an array")),
    };
    let text_of = |v: &Json, key: &str| {
        v.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("`{key}` missing"))
    };
    let metrics = |key: &str| {
        list(key)?
            .iter()
            .map(|m| {
                Ok((
                    text_of(m, "name")?,
                    text_of(m, "unit")?,
                    text_of(m, "better")?,
                    m.get("bound").and_then(Json::as_f64),
                ))
            })
            .collect::<Result<Vec<_>, String>>()
    };
    Ok(BenchmarkDecl {
        workloads: list("workloads")?
            .iter()
            .map(|w| Ok((text_of(w, "name")?, text_of(w, "why")?)))
            .collect::<Result<_, String>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
        paths: list("paths")?
            .iter()
            .filter_map(|p| p.as_str().map(str::to_string))
            .collect(),
        run_seconds: root
            .get("run_seconds")
            .and_then(Json::as_u64)
            .ok_or("`run_seconds` missing")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{SMOKE, WORKLOADS};

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        // Random-circuit instances are pinned (see INSTANCE_SEED); the other
        // generators take the seed.
        let pinned = ["supremacy_flat", "supremacy_dd", SERVE_MIX];
        for w in &WORKLOADS {
            let a = build_case(w.name, 11, &SMOKE, 1).unwrap().fingerprint();
            let b = build_case(w.name, 11, &SMOKE, 2).unwrap().fingerprint();
            let c = build_case(w.name, 12, &SMOKE, 1).unwrap().fingerprint();
            assert_eq!(
                a, b,
                "{}: the thread count must not reach the generator",
                w.name
            );
            assert_eq!(a == c, pinned.contains(&w.name), "{}", w.name);
        }
        let order = |seed| {
            job_stream(&SMOKE, 10, seed)
                .iter()
                .map(|j| j.spec)
                .collect::<Vec<_>>()
        };
        assert_eq!(order(3), order(3));
        assert_ne!(order(3), order(4));
    }

    #[test]
    fn job_bodies_parse_back_and_carry_the_mix() {
        let stream = job_stream(&SMOKE, 48, 1);
        assert_eq!(stream.iter().filter(|j| j.priority == 10).count(), 6);
        assert_eq!(
            stream
                .iter()
                .filter(|j| j.checkpoint_every.is_some())
                .count(),
            8
        );
        for job in &stream {
            let spec = JobSpec::from_json(&sjson::parse(&job_body(job)).unwrap()).unwrap();
            assert_eq!((spec.threads, spec.seed), (1, INSTANCE_SEED));
            assert_eq!(spec.circuit, job.spec);
        }
        assert_eq!(parse_submit("{\"id\":17,\"state\":\"queued\"}"), Some(17));
        assert!(parse_job("{\"id\":1}").is_err());
    }

    #[test]
    fn samples_cover_the_heaviest_amplitudes_and_repeat_per_seed() {
        let mut state = vec![Complex64::ZERO; 256];
        state[200] = Complex64::new(0.8, 0.0);
        state[3] = Complex64::new(0.0, 0.6);
        let a = pick_samples(&state, 9);
        assert_eq!(a.len(), REF_SAMPLES);
        assert!(a.iter().any(|s| s.0 == 200) && a.iter().any(|s| s.0 == 3));
        assert_eq!(a, pick_samples(&state, 9));
        assert_ne!(a, pick_samples(&state, 10));
        assert_eq!(pick_samples(&state[..16], 1).len(), 16);
    }

    #[test]
    fn sampling_and_bandwidth_helpers() {
        assert_eq!(sample_indices(10, 64), (0..10).collect::<Vec<_>>());
        assert_eq!(
            sample_indices(130, 64),
            (0..130).step_by(3).collect::<Vec<_>>()
        );
        assert!(sample_indices(0, 4).is_empty());
        assert!(triad_gbps(1 << 16, 2) > 0.0);
    }
}
