//! The benchmark's fixed vocabulary: workloads, their size parameters, and
//! every metric name with its unit. `BENCHMARK.json` repeats the same lists
//! for the driver; a unit test keeps the two in step.

/// Size parameters. Qubit counts are fixed per workload; the depth fields
/// (cycles, layers, repetitions, job counts) are what was tuned so that one
/// repetition fits the driver's run budget.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// `supremacy_flat`: qubits, cycles.
    pub supremacy_flat: (usize, usize),
    /// `dnn_fused`: qubits, layers.
    pub dnn_fused: (usize, usize),
    /// `knn_wide`: register width `m` (`n = 2m + 1`).
    pub knn_wide: usize,
    /// `supremacy_dd`: qubits, cycles.
    pub supremacy_dd: (usize, usize),
    /// `adder_dd`: register width `k` (`n = 2k + 2`), back-to-back additions.
    pub adder_dd: (usize, usize),
    /// `serve_mix`: the five job specs, in the order the shuffle starts from.
    pub serve_specs: [&'static str; 5],
    /// `serve_mix`: jobs per session.
    pub serve_jobs: usize,
    /// Jobs of the short daemon session that gives the `serve.*` layer
    /// metrics on the simulator workloads.
    pub serve_probe_jobs: usize,
    /// The job spec whose circuit stands in for `serve_mix` in the simulator
    /// layer probes (the heaviest flat-phase job of the mix).
    pub serve_trace_spec: &'static str,
    /// Upper limit on each array of the memory-bandwidth probe.
    pub triad_cap_bytes: u64,
}

/// Generator seed of the random-circuit inputs (`supremacy_*` and every
/// served job). Random-circuit instances differ up to 3x in cost — EWMA
/// fires one or two cycles later on some, DD sharing differs on all — so
/// the instance is part of the workload definition, like the qubit count,
/// and `--seed` varies only what leaves the cost alone (rotation angles,
/// adder operands, job order, sampled amplitudes). README.md has the data.
pub const INSTANCE_SEED: u64 = 1;

pub const FULL: Params = Params {
    supremacy_flat: (21, 4),
    dnn_fused: (20, 5),
    knn_wide: 10,
    supremacy_dd: (12, 10),
    adder_dd: (6, 1000),
    serve_specs: [
        "ghz:20",
        "grover:10",
        "supremacy:14,12",
        "dnn:14,4",
        "knn:17",
    ],
    serve_jobs: 240,
    serve_probe_jobs: 20,
    serve_trace_spec: "supremacy:14,12",
    triad_cap_bytes: u64::MAX,
};

/// Same code paths at n <= 12, for the `--smoke` self test.
pub const SMOKE: Params = Params {
    supremacy_flat: (12, 6),
    dnn_fused: (10, 3),
    knn_wide: 5,
    supremacy_dd: (9, 6),
    adder_dd: (4, 20),
    serve_specs: ["ghz:10", "grover:6", "supremacy:9,6", "dnn:8,2", "knn:9"],
    serve_jobs: 10,
    serve_probe_jobs: 5,
    serve_trace_spec: "supremacy:9,6",
    triad_cap_bytes: 32 << 20,
};

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const SERVE_MIX: &str = "serve_mix";

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "supremacy_flat",
        why: "Irregular from the first cycles: converts early and spends the run in per-gate DMAV on tiny gate DDs, the paper's headline path (dmav, dmav_cache, plan_cache, vecops).",
    },
    Workload {
        name: "dnn_fused",
        why: "Same DMAV layer used through DMAV-aware fusion: few large fused matrices (qdd::mul_mm, fusion) instead of many tiny ones, so a change that helps one and hurts the other shows.",
    },
    Workload {
        name: "knn_wide",
        why: "Wide and shallow: conversion, first-touch zeroing and a few bandwidth-bound CX/Toffoli DMAVs on the largest state are the whole run; where convert and peak_rss_mb matter.",
    },
    Workload {
        name: "supremacy_dd",
        why: "conversion=Never on a DD that saturates at 4095 nodes: pure qdd (mul_mv, mul_mv_parallel, compute tables, GC); flat layers idle, DD-phase parallelism can only show here.",
    },
    Workload {
        name: "adder_dd",
        why: "Regular: the state stays one basis state so EWMA never fires; tens of thousands of microsecond gates make the per-gate driver cost in sim and gate_dd the run. Flat-phase changes must not move it.",
    },
    Workload {
        name: SERVE_MIX,
        why: "Served jobs end to end: real flatdd-serve, 1 worker, closed loop of 2 clients over a seed-shuffled mix of small jobs with priorities and checkpoints; fixed per-request and per-gate costs dominate.",
    },
];

#[derive(Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the metric
    /// may worsen before a change is a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    e2e(name, unit, better, 0.0)
}

/// What a user of the system sees. Every workload reports every one of
/// them; README.md says what each means on a simulator workload and on
/// `serve_mix`.
pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("wall_s", "s", "lower", 0.25),
    e2e("wall_1t_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.10),
    e2e("jobs_per_s", "1/s", "higher", 0.25),
];

/// One entry per layer boundary the traced repetition measures. README.md
/// holds the catalog: the public call each one times and the end-to-end
/// metric it should move.
pub const PER_LAYER: [Metric; 83] = [
    layer("qcircuit.generate_s", "s", "lower"),
    layer("sim.new_s", "s", "lower"),
    layer("sim.run_span_s", "s", "lower"),
    layer("sim.dd_phase_s", "s", "lower"),
    layer("sim.convert_gate_s", "s", "lower"),
    layer("sim.flat_phase_s", "s", "lower"),
    layer("sim.flat_share", "ratio", "higher"),
    layer("sim.flat_gate_p50_us", "us", "lower"),
    layer("sim.flat_gate_p99_us", "us", "lower"),
    layer("sim.dd_gate_self_us", "us", "lower"),
    layer("sim.flat_gate_self_us", "us", "lower"),
    layer("sim.gates_dd", "count", "lower"),
    layer("sim.gates_dmav", "count", "lower"),
    layer("sim.cached_dmavs", "count", "higher"),
    layer("sim.uncached_dmavs", "count", "lower"),
    layer("ewma.converted_at", "count", "lower"),
    layer("ewma.dd_size_at_convert", "count", "lower"),
    layer("ewma.peak_dd_size", "count", "lower"),
    layer("qdd.gate_dd_us", "us", "lower"),
    layer("qdd.mul_mv_us", "us", "lower"),
    layer("qdd.mul_mv_par_us", "us", "lower"),
    layer("qdd.mul_mm_us", "us", "lower"),
    layer("qdd.dd_size_us", "us", "lower"),
    layer("qdd.gc_s", "s", "lower"),
    layer("qdd.gc_count", "count", "lower"),
    layer("qdd.ct_mv_hit_rate", "ratio", "higher"),
    layer("qdd.ct_mm_hit_rate", "ratio", "higher"),
    layer("qdd.ct_add_hit_rate", "ratio", "higher"),
    layer("qdd.peak_nodes", "count", "lower"),
    layer("qdd.contention_events", "count", "lower"),
    layer("qdd.memory_mb", "MiB", "lower"),
    layer("convert.alloc_zero_s", "s", "lower"),
    layer("convert.plan_build_s", "s", "lower"),
    layer("convert.fill_s", "s", "lower"),
    layer("convert.seq_s", "s", "lower"),
    layer("convert.gbytes_per_s", "GB/s", "higher"),
    layer("convert.balance", "ratio", "lower"),
    layer("dmav.plan_build_us", "us", "lower"),
    layer("dmav_cache.plan_build_us", "us", "lower"),
    layer("cost.analyze_us", "us", "lower"),
    layer("dmav.exec_us", "us", "lower"),
    layer("dmav_cache.exec_us", "us", "lower"),
    layer("dmav.macs_per_s", "1/s", "higher"),
    layer("dmav.gbytes_per_s", "GB/s", "higher"),
    layer("dmav.bw_share", "ratio", "higher"),
    layer("dmav_cache.hit_rate", "ratio", "higher"),
    layer("dmav_cache.buffers", "count", "lower"),
    layer("plan_cache.hit_rate", "ratio", "higher"),
    layer("cost.pick_accuracy", "ratio", "higher"),
    layer("cost.modeled_total", "count", "lower"),
    layer("fusion.fuse_s", "s", "lower"),
    layer("fusion.matrices", "count", "lower"),
    layer("fusion.max_matrix_nodes", "count", "lower"),
    layer("fusion.cost_reduction_x", "ratio", "higher"),
    layer("vecops.axpy_gbps", "GB/s", "higher"),
    layer("vecops.scale_gbps", "GB/s", "higher"),
    layer("vecops.sum_into_gbps", "GB/s", "higher"),
    layer("vecops.mac2x2_gbps", "GB/s", "higher"),
    layer("vecops.norm_sqr_gbps", "GB/s", "higher"),
    layer("mem.triad_gbps", "GB/s", "higher"),
    layer("mem.triad_array_mb", "MiB", "higher"),
    layer("qarray.gate_us", "us", "lower"),
    layer("qarray.run_s", "s", "lower"),
    layer("checkpoint.write_s", "s", "lower"),
    layer("checkpoint.read_s", "s", "lower"),
    layer("checkpoint.bytes", "count", "lower"),
    layer("checkpoint.write_mbps", "MB/s", "higher"),
    layer("serve.http_rtt_us", "us", "lower"),
    layer("serve.submit_us", "us", "lower"),
    layer("serve.polls_per_job", "count", "lower"),
    layer("serve.queue_wait_p50_us", "us", "lower"),
    layer("serve.queue_wait_p95_us", "us", "lower"),
    layer("serve.run_p50_us", "us", "lower"),
    layer("serve.run_p95_us", "us", "lower"),
    layer("serve.checkpoint_write_p50_us", "us", "lower"),
    layer("serve.preemptions", "count", "lower"),
    layer("serve.retries", "count", "lower"),
    layer("serve.rejected_429", "count", "lower"),
    layer("serve.job_latency_p50_ms", "ms", "lower"),
    layer("serve.job_latency_p95_ms", "ms", "lower"),
    layer("serve.overhead_ms", "ms", "lower"),
    layer("check.max_abs_err", "abs", "lower"),
    layer("trace.overhead_pct", "%", "lower"),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_driver_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
            assert!(m.better == "lower" || m.better == "higher");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!((2..=8).contains(&WORKLOADS.len()) && PER_LAYER.len() <= 128);
    }
}
