//! Harness-level tests. Repetitions run in-process here (see `run_child`),
//! through the same `child_main` a child process runs.

use super::*;

fn smoke_ctx(tag: &str) -> Ctx {
    let dir = std::env::temp_dir().join(format!("bench_spine-test-{}-{tag}", std::process::id()));
    let args = Args {
        smoke: true,
        out_dir: dir,
        threads: Some(1),
        ..parse_args(&[]).unwrap()
    };
    Ctx::new(&args).unwrap()
}

fn simulator_workloads() -> impl Iterator<Item = &'static str> {
    WORKLOADS.iter().map(|w| w.name).filter(|n| *n != SERVE_MIX)
}

#[test]
fn smoke_end_to_end_has_every_metric_finite_positive_and_with_its_unit() {
    let ctx = smoke_ctx("e2e");
    for w in simulator_workloads() {
        let r = run_e2e_simulator(&ctx, w);
        assert_eq!(r.failed, 0, "{w}: {:?}", r.first_error);
        assert_eq!(r.attempted, MIN_REPS, "{w}");
        for m in &END_TO_END {
            let v = r.values.iter().find(|v| v.metric.name == m.name).unwrap();
            assert!(v.value.is_finite() && v.value > 0.0, "{w} {}", m.name);
            assert_eq!(v.metric.unit, m.unit);
        }
        let line = r.driver_json();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":5,\"failed\":0,\"metrics\":{"));
        assert!(line.contains("\"setup_s\":{\"value\":") && line.contains("\"unit\":\"MiB\""));
    }
    std::fs::remove_dir_all(&ctx.dir).ok();
}

#[test]
fn smoke_trace_measures_every_simulator_layer() {
    let ctx = smoke_ctx("trace");
    // What the daemon session and the parent add to the traced child's own.
    let elsewhere = |name: &str| name.starts_with("serve.") || name == "trace.overhead_pct";
    for w in WORKLOADS.iter().map(|w| w.name) {
        let rep = run_child(&ctx, "trace", w, ctx.threads_for(w));
        assert_eq!(rep.error, None, "{w}");
        for m in PER_LAYER.iter().filter(|m| !elsewhere(m.name)) {
            let v = rep.metrics.get(m.name);
            assert!(v.is_some_and(|v| v.is_finite()), "{w} {}: {v:?}", m.name);
        }
        for name in rep.metrics.keys() {
            assert!(
                PER_LAYER.iter().any(|m| m.name == name),
                "{w}: stray {name}"
            );
        }
        let phases: f64 = ["sim.dd_phase_s", "sim.convert_gate_s", "sim.flat_phase_s"]
            .iter()
            .map(|m| rep.metrics[*m])
            .sum();
        assert!(phases <= rep.metrics["sim.run_span_s"] * 1.0001, "{w}");
        assert!(rep.metrics["check.max_abs_err"] <= api::AMP_TOL, "{w}");
        let spans = std::fs::read_to_string(ctx.dir.join(format!("{w}.spans.json"))).unwrap();
        assert!(
            spans.contains("\"name\":\"sim.apply\"") && spans.contains("\"name\":\"phase.dd\"")
        );
        // The traced repetition publishes samples a timed one accepts.
        let timed = run_child(&ctx, "rep", w, ctx.threads_for(w));
        assert_eq!(timed.error, None, "{w}");
        assert!(timed.setup_s > 0.0 && timed.total_s >= timed.setup_s && timed.rss_bytes > 0);
    }
    let serve_names = serve::Session::default().layers();
    for m in PER_LAYER.iter().filter(|m| m.name.starts_with("serve.")) {
        assert!(serve_names.iter().any(|(n, _)| *n == m.name), "{}", m.name);
    }
    std::fs::remove_dir_all(&ctx.dir).ok();
}

#[test]
fn phase_assertions_and_sample_checks_fail_the_repetition() {
    let ctx = smoke_ctx("fail");
    // No samples published yet.
    let rep = run_child(&ctx, "rep", "adder_dd", 1);
    assert!(rep.error.is_some());
    let check = run_child(&ctx, "check", "adder_dd", 1);
    assert_eq!(check.error, None);
    // Samples of another seed are refused, not compared.
    let other = Ctx {
        seed: ctx.seed + 1,
        ..smoke_ctx("fail")
    };
    let rep = run_child(&other, "rep", "adder_dd", 1);
    assert!(rep.error.unwrap().contains("another run"));
    // A corrupted reference amplitude is caught.
    let path = ctx.ref_path("adder_dd");
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, text.replace(" 1.0 ", " 0.5 ")).unwrap();
    let rep = run_child(&ctx, "rep", "adder_dd", 1);
    assert!(rep.error.unwrap().contains("result check failed"));
    std::fs::remove_dir_all(&ctx.dir).ok();
}

#[test]
fn sample_files_round_trip_exactly() {
    let dir = std::env::temp_dir().join(format!("bench_spine-test-{}-ref", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("w.ref");
    let samples = vec![(0usize, 0.1 + 0.2, -1.0 / 3.0), (7, 5e-324, 0.0)];
    write_samples(&path, "w", 3, 99, &samples).unwrap();
    assert_eq!(read_samples(&path, "w", 3, 99).unwrap(), samples);
    assert!(read_samples(&path, "w", 4, 99).is_err());
    assert!(read_samples(&path, "w", 3, 98).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn arguments_parse_and_reject() {
    let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let a = parse_args(&argv(
        "--workload knn_wide --seed 9 --seconds 2.5 --trace 1",
    ))
    .unwrap();
    assert_eq!(a.workload.as_deref(), Some("knn_wide"));
    assert_eq!((a.seed, a.seconds, a.trace), (9, 2.5, Some(true)));
    assert!(parse_args(&argv("--workload nope")).is_err());
    assert!(parse_args(&argv("--trace 2")).is_err());
    assert!(parse_args(&argv("--seconds -1")).is_err());
    assert!(parse_args(&argv("--seed")).is_err());
    // More threads than the machine has: refuse to record.
    let too_many = Args {
        threads: Some(2 * host::nproc().next_power_of_two()),
        ..a
    };
    assert!(Ctx::new(&too_many)
        .err()
        .unwrap()
        .contains("refusing to record"));
}

#[test]
fn agree_flags_a_median_that_moved_past_its_bound() {
    let set = |wall: f64, rate: f64| {
        let mut r = RunResult::new("knn_wide", false);
        r.push("wall_s", wall, None);
        r.push("jobs_per_s", rate, None);
        vec![r]
    };
    let (lines, ok) = compare_sets(&set(1.0, 10.0), &set(1.2, 8.0));
    assert!(ok && lines.len() == 2, "{lines:?}");
    // Slower by 30%: beyond the 25% bound.
    assert!(!compare_sets(&set(1.0, 10.0), &set(1.3, 10.0)).1);
    // Throughput is better when higher: a drop is what counts.
    assert!(!compare_sets(&set(1.0, 10.0), &set(1.0, 7.0)).1);
    // Two sets of the same code that differ either way do not agree.
    assert!(!compare_sets(&set(1.0, 10.0), &set(1.0, 14.0)).1);
}

#[test]
fn incomplete_results_are_failures_not_gaps() {
    let mut r = RunResult::new("knn_wide", false);
    r.push("wall_s", f64::NAN, None);
    r.verify_complete();
    // One not finite, four missing.
    assert_eq!(r.failed, 5);
    assert_eq!(r.values.len(), END_TO_END.len());
    assert!(r
        .driver_json()
        .starts_with("{\"correct\":false,\"attempted\":1,\"failed\":5,"));
}

/// `BENCHMARK.json` is what the driver reads; the catalog is what the
/// binary prints. They must list the same things.
#[test]
fn benchmark_json_lists_the_catalog() {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    while !dir.join("BENCHMARK.json").is_file() {
        assert!(dir.pop(), "BENCHMARK.json not found above the manifest");
    }
    let text = std::fs::read_to_string(dir.join("BENCHMARK.json")).unwrap();
    let decl = api::parse_benchmark_json(&text).unwrap();
    let names = |ms: &[Metric]| ms.iter().map(|m| m.name.to_string()).collect::<Vec<_>>();
    assert_eq!(
        decl.workloads,
        WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect::<Vec<_>>()
    );
    assert_eq!(
        decl.end_to_end
            .iter()
            .map(|m| m.0.clone())
            .collect::<Vec<_>>(),
        names(&END_TO_END)
    );
    assert_eq!(
        decl.per_layer
            .iter()
            .map(|m| m.0.clone())
            .collect::<Vec<_>>(),
        names(&PER_LAYER)
    );
    for (m, d) in END_TO_END
        .iter()
        .zip(&decl.end_to_end)
        .chain(PER_LAYER.iter().zip(&decl.per_layer))
    {
        assert_eq!(
            (m.unit, m.better),
            (d.1.as_str(), d.2.as_str()),
            "{}",
            m.name
        );
        assert_eq!(d.3.unwrap_or(0.0), m.bound, "{}", m.name);
    }
    assert_eq!(
        decl.paths,
        vec!["crates/bench/src/bin/bench_spine".to_string()]
    );
    assert!((1..=60).contains(&decl.run_seconds));
}
