//! End-to-end tests of the `flatdd-cli` binary (cargo builds it for
//! integration tests and exposes the path via `CARGO_BIN_EXE_*`).

use flatdd::telemetry::json::{self, Json};
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_flatdd-cli"))
}

/// Runs the CLI and returns `(stdout, stderr)`: machine-readable payloads
/// (outcomes, samples, expectations, `--stats-json -`) land on stdout;
/// human commentary (summaries, timings, `--stats`) on stderr.
fn run_split(args: &[&str]) -> (String, String) {
    let out = cli()
        .args(args)
        .output()
        .expect("failed to launch flatdd-cli");
    assert!(
        out.status.success(),
        "exit {:?}\nstdout: {}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn run_ok(args: &[&str]) -> String {
    let (stdout, stderr) = run_split(args);
    stdout + &stderr
}

#[test]
fn list_prints_families() {
    let out = run_ok(&["list"]);
    for family in ["ghz:N", "supremacy:N,cycles", "adder:N", "qaoa:N,rounds"] {
        assert!(out.contains(family), "missing {family} in:\n{out}");
    }
}

#[test]
fn run_ghz_reports_dd_phase() {
    let out = run_ok(&["run", "ghz:10", "--threads", "2"]);
    assert!(out.contains("10 qubits"));
    assert!(out.contains("phase Dd"));
    assert!(out.contains("converted at None"));
    // GHZ heavy outcomes are the two arms.
    assert!(out.contains("|0000000000>"));
    assert!(out.contains("|1111111111>"));
}

#[test]
fn run_supremacy_converts_and_samples() {
    let out = run_ok(&[
        "run",
        "supremacy:10,12",
        "--threads",
        "2",
        "--shots",
        "50",
        "--seed",
        "3",
    ]);
    assert!(out.contains("phase Dmav"));
    assert!(out.contains("converted at Some("));
    assert!(out.contains("sampled 50 shots"));
}

#[test]
fn engines_agree_through_the_cli() {
    let a = run_ok(&["run", "grover:8", "--engine", "flatdd", "--top", "1"]);
    let b = run_ok(&["run", "grover:8", "--engine", "dd", "--top", "1"]);
    let c = run_ok(&["run", "grover:8", "--engine", "array", "--top", "1"]);
    let heavy = |s: &str| {
        s.lines()
            .find(|l| l.trim_start().starts_with('|'))
            .map(|l| l.trim().to_string())
            .expect("no outcome line")
    };
    let (ha, hb, hc) = (heavy(&a), heavy(&b), heavy(&c));
    assert_eq!(ha, hb, "flatdd vs dd");
    assert_eq!(ha, hc, "flatdd vs array");
}

#[test]
fn expectation_flag_works() {
    let out = run_ok(&["run", "ghz:4", "--expect", "ZZII", "--expect", "IIIZ"]);
    // GHZ: <ZZ> on any pair = 1, single <Z> = 0.
    assert!(out.contains("<ZZII> = 1.000000"), "{out}");
    assert!(
        out.contains("<IIIZ> = 0.000000") || out.contains("<IIIZ> = -0.000000"),
        "{out}"
    );
}

#[test]
fn gen_emits_parseable_qasm() {
    let qasm = run_ok(&["gen", "qft:5"]);
    assert!(qasm.contains("OPENQASM 2.0;"));
    let c = qcircuit::parse_qasm(&qasm).expect("CLI-generated QASM must parse");
    assert_eq!(c.num_qubits(), 5);
}

#[test]
fn qasm_file_round_trip_through_cli() {
    let dir = std::env::temp_dir().join("flatdd_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bell.qasm");
    std::fs::write(
        &path,
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n",
    )
    .unwrap();
    let out = run_ok(&["run", path.to_str().unwrap(), "--engine", "array"]);
    assert!(out.contains("2 qubits, 2 gates"));
    assert!(out.contains("|00>"));
    assert!(out.contains("|11>"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_non_finite_gate_parameter_is_a_parse_error() {
    let dir = std::env::temp_dir().join(format!("flatdd_cli_nan_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("nan.qasm");
    std::fs::write(
        &path,
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\nrx(0/0) q[1];\ncx q[0],q[1];\n",
    )
    .unwrap();
    // Sampling panicked on the NaN state, a plain run printed no outcome and
    // the array engine printed `p = NaN`; each is refused at parse time.
    for extra in [&["--shots", "4"][..], &[], &["--engine", "array"]] {
        let out = cli()
            .args(["run", path.to_str().unwrap()])
            .args(extra)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{extra:?}: {stderr}");
        assert!(stderr.contains("line 5"), "{extra:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_spec_fails_cleanly() {
    let out = cli().args(["run", "bogus:5"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown circuit family"));
}

#[test]
fn stats_flag_prints_structured_stats() {
    let (stdout, stderr) = run_split(&["run", "dnn:8,3", "--stats", "--threads", "2"]);
    // Human-readable stats belong on stderr, keeping stdout machine-clean.
    assert!(stderr.contains("gates_dmav"), "{stderr}");
    assert!(stderr.contains("peak_state_dd_size"));
    assert!(!stdout.contains("gates_dmav"), "{stdout}");
}

#[test]
fn human_commentary_on_stderr_results_on_stdout() {
    let (stdout, stderr) = run_split(&["run", "ghz:8", "--threads", "2", "--stats-json", "-"]);
    for human in ["qubits", "gate census", "flatdd:"] {
        assert!(
            !stdout.contains(human),
            "stdout polluted by `{human}`:\n{stdout}"
        );
    }
    assert!(stderr.contains("8 qubits"));
    // `--stats-json -` puts one JSON object on stdout, then the outcomes.
    let json_line = stdout.lines().next().expect("stats JSON line");
    assert!(json_line.starts_with("{\"gates_dd\":"), "{json_line}");
    assert!(json_line.ends_with('}'));
    assert!(json_line.contains("\"ct_mv_hit_rate\":"));
    assert!(stdout.contains("|00000000>"));
}

#[test]
fn telemetry_flags_write_valid_files() {
    let dir = std::env::temp_dir().join(format!("flatdd_cli_tele_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.json");
    let metrics = dir.join("metrics.json");
    let events = dir.join("events.jsonl");
    run_split(&[
        "run",
        "dnn:8,3",
        "--threads",
        "2",
        "--trace-out",
        trace.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
        "--events-out",
        events.to_str().unwrap(),
    ]);
    let trace = std::fs::read_to_string(&trace).unwrap();
    let Some(Json::Arr(entries)) = json::parse(&trace).unwrap().get("traceEvents").cloned() else {
        panic!("no traceEvents array: {trace}");
    };
    assert!(
        entries
            .iter()
            .any(|e| e.get("name") == Some(&"dmav phase".into())),
        "DNN must convert"
    );
    let metrics = std::fs::read_to_string(&metrics).unwrap();
    let m = json::parse(&metrics).unwrap();
    let section = |name: &str, key: &str| m.get(name).and_then(|s| s.get(key)).cloned();
    assert_eq!(
        section("counters", "core.runs"),
        Some(Json::Num(1.0)),
        "{metrics}"
    );
    assert!(section("gauges", "sim.gates_dmav").is_some(), "{metrics}");
    let events = std::fs::read_to_string(&events).unwrap();
    assert!(events.lines().count() > 2);
    assert!(events.lines().all(|l| l.starts_with("{\"type\":\"")));
    let types: Vec<Json> = events
        .lines()
        .map(|l| json::parse(l).unwrap().get("type").cloned().unwrap())
        .collect();
    assert!(types.contains(&"phase_transition".into()));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flatdd_trace_env_var_enables_event_stream() {
    let path = std::env::temp_dir().join(format!("flatdd_env_trace_{}.jsonl", std::process::id()));
    let out = cli()
        .args(["run", "ghz:6", "--threads", "1"])
        .env("FLATDD_TRACE", &path)
        .output()
        .unwrap();
    assert!(out.status.success());
    let events = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(events.contains("\"type\":\"run_start\""), "{events}");
    assert!(events.contains("\"type\":\"run_end\""));
}
