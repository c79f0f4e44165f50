//! `flatdd-cli` — run quantum circuits through the FlatDD engines.
//!
//! ```text
//! flatdd-cli run  <circuit> [options]   simulate and report
//! flatdd-cli gen  <circuit> [options]   emit the circuit as OpenQASM 2.0
//! flatdd-cli list                       list generator families
//!
//! <circuit> is either a path to an OpenQASM 2.0 file or a generator spec
//! like `ghz:12`, `supremacy:16,20`, `dnn:12,4` (see `list`).
//!
//! run options:
//!   --engine flatdd|dd|array   engine selection (default flatdd)
//!   --threads <t>              worker threads (default 4)
//!   --flat-shards <s>          flat-phase state shards (default auto = one
//!                              shard per thread)
//!   --shots <k>                sample k bitstrings from the output
//!   --top <k>                  print the k most probable outcomes (default 8)
//!   --seed <u64>               generator / sampling seed (default 42)
//!   --expect <pauli>           expectation of a Pauli label, e.g. "0.5*ZIZ"
//!   --stats                    print engine statistics (human-readable, stderr)
//!   --stats-json <path|->      write run stats as JSON (`-` = stdout)
//!   --trace-out <path>         write a Chrome-trace (chrome://tracing,
//!                              Perfetto) timeline of the run
//!   --metrics-out <path|->     write the unified metrics registry as JSON
//!   --events-out <path>        write the structured event stream as JSONL
//!   --memory-budget-mb <mb>    cap engine-accounted memory (flatdd engine)
//!   --rss-budget-mb <mb>       cap process RSS (flatdd engine)
//!   --deadline-secs <s>        wall-clock budget (flatdd engine)
//!   --approx-fidelity-floor <f> arm the approximation rung: on a memory
//!                              breach no exact relief can clear, truncate
//!                              the DD state as long as the cumulative
//!                              fidelity stays >= f (in (0,1]; flatdd
//!                              engine; or FLATDD_APPROX_FLOOR)
//!   --no-convert               never convert to the flat array: keep the
//!                              run DD-based end to end (flatdd engine)
//!   --checkpoint-path <path>   write crash-safe checkpoints here (flatdd)
//!   --checkpoint-every <g>     also checkpoint every g applied gates
//!   --resume-from <path>       resume a prior run from a checkpoint file
//! ```
//!
//! The environment variable `FLATDD_TRACE=<path>` is a `--events-out`
//! default (the flag wins when both are given).
//!
//! Output-channel convention: machine-readable payloads (amplitudes,
//! samples, expectations, `--stats-json -`, `--metrics-out -`) go to
//! stdout; human commentary (circuit summaries, timings, `--stats`) goes
//! to stderr.
//!
//! Budget breaches exit with the error's typed exit code (see
//! `FlatDdError::exit_code`): 4 memory, 5 deadline, 6 divergence,
//! 8 interrupted (SIGINT/SIGTERM), 9 corrupt checkpoint, 10 worker panic.
//! Resumable exits (4, 5, 8) write a final checkpoint when a
//! `--checkpoint-path` is configured and print the `--resume-from` hint.

use flatdd::{FlatDdConfig, FlatDdError, FlatDdSimulator, GovernorConfig, Phase};
use qcircuit::{generators, qasm, Circuit, PauliString};
use qdd::SplitMix64;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(|s| s.as_str()) {
        Some("run") => cmd_run(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        Some("list") => cmd_list(),
        Some("--help") | Some("-h") | None => {
            eprintln!("{}", USAGE);
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n\n{USAGE}");
            std::process::exit(2);
        }
    }
}

const USAGE: &str = "\
flatdd-cli — hybrid DD + flat-array quantum circuit simulator

Usage:
  flatdd-cli run <circuit> [--engine flatdd|dd|array] [--threads t] [--flat-shards s]
                 [--shots k] [--top k] [--seed s] [--expect PAULI] [--stats]
                 [--stats-json path|-] [--trace-out path]
                 [--metrics-out path|-] [--events-out path]
                 [--memory-budget-mb mb] [--rss-budget-mb mb]
                 [--deadline-secs s] [--approx-fidelity-floor f]
                 [--no-convert] [--checkpoint-path path]
                 [--checkpoint-every gates] [--resume-from path]
  flatdd-cli gen <circuit> [--seed s]
  flatdd-cli list

<circuit> = a .qasm file path, or a generator spec such as ghz:12 or
supremacy:16,20 (run `flatdd-cli list` for all families).";

fn load_circuit(spec: &str, seed: u64) -> Circuit {
    if spec.ends_with(".qasm") || std::path::Path::new(spec).exists() {
        let src = std::fs::read_to_string(spec).unwrap_or_else(|e| {
            eprintln!("cannot read {spec}: {e}");
            std::process::exit(FlatDdError::from(e).exit_code());
        });
        match qasm::parse_qasm(&src) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(FlatDdError::from(e).exit_code());
            }
        }
    } else {
        match generators::from_spec(spec, seed) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }
}

fn parse_or_die<T: std::str::FromStr>(flag: &str, raw: &str) -> T {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: cannot parse `{raw}`");
        std::process::exit(2);
    })
}

struct RunOpts {
    circuit: String,
    engine: String,
    threads: usize,
    flat_shards: Option<usize>,
    shots: usize,
    top: usize,
    seed: u64,
    expect: Vec<String>,
    stats: bool,
    stats_json: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    events_out: Option<String>,
    memory_budget_mb: Option<u64>,
    rss_budget_mb: Option<u64>,
    deadline_secs: Option<f64>,
    approx_fidelity_floor: Option<f64>,
    no_convert: bool,
    checkpoint_path: Option<String>,
    checkpoint_every: Option<usize>,
    resume_from: Option<String>,
}

fn parse_run_opts(args: &[String]) -> RunOpts {
    let mut o = RunOpts {
        circuit: String::new(),
        engine: "flatdd".into(),
        threads: 4,
        flat_shards: None,
        shots: 0,
        top: 8,
        seed: 42,
        expect: Vec::new(),
        stats: false,
        stats_json: None,
        trace_out: None,
        metrics_out: None,
        events_out: None,
        memory_budget_mb: None,
        rss_budget_mb: None,
        deadline_secs: None,
        approx_fidelity_floor: None,
        no_convert: false,
        checkpoint_path: None,
        checkpoint_every: None,
        resume_from: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{name} expects a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--engine" => o.engine = val("--engine"),
            "--threads" => o.threads = val("--threads").parse().unwrap_or(4),
            "--flat-shards" => {
                o.flat_shards =
                    Some(parse_or_die::<usize>("--flat-shards", &val("--flat-shards")).max(1))
            }
            "--shots" => o.shots = val("--shots").parse().unwrap_or(0),
            "--top" => o.top = val("--top").parse().unwrap_or(8),
            "--seed" => o.seed = val("--seed").parse().unwrap_or(42),
            "--expect" => o.expect.push(val("--expect")),
            "--stats" => o.stats = true,
            "--stats-json" => o.stats_json = Some(val("--stats-json")),
            "--trace-out" => o.trace_out = Some(val("--trace-out")),
            "--metrics-out" => o.metrics_out = Some(val("--metrics-out")),
            "--events-out" => o.events_out = Some(val("--events-out")),
            // A mistyped budget must not silently run unbudgeted.
            "--memory-budget-mb" => {
                o.memory_budget_mb = Some(parse_or_die(
                    "--memory-budget-mb",
                    &val("--memory-budget-mb"),
                ))
            }
            "--rss-budget-mb" => {
                o.rss_budget_mb = Some(parse_or_die("--rss-budget-mb", &val("--rss-budget-mb")))
            }
            "--deadline-secs" => {
                let s: f64 = parse_or_die("--deadline-secs", &val("--deadline-secs"));
                if !s.is_finite() || s < 0.0 {
                    eprintln!("--deadline-secs: must be a non-negative number, got {s}");
                    std::process::exit(2);
                }
                o.deadline_secs = Some(s);
            }
            // A mistyped floor must not silently run exact (and die) or,
            // worse, accept arbitrarily lossy truncation.
            "--approx-fidelity-floor" => {
                let f: f64 =
                    parse_or_die("--approx-fidelity-floor", &val("--approx-fidelity-floor"));
                if !f.is_finite() || f <= 0.0 || f > 1.0 {
                    eprintln!("--approx-fidelity-floor: must be in (0, 1], got {f}");
                    std::process::exit(2);
                }
                o.approx_fidelity_floor = Some(f);
            }
            "--no-convert" => o.no_convert = true,
            "--checkpoint-path" => o.checkpoint_path = Some(val("--checkpoint-path")),
            // A mistyped interval must not silently disable checkpointing.
            "--checkpoint-every" => {
                let g: usize = parse_or_die("--checkpoint-every", &val("--checkpoint-every"));
                if g == 0 {
                    eprintln!("--checkpoint-every: must be at least 1 gate");
                    std::process::exit(2);
                }
                o.checkpoint_every = Some(g);
            }
            "--resume-from" => o.resume_from = Some(val("--resume-from")),
            other if o.circuit.is_empty() && !other.starts_with("--") => {
                o.circuit = other.to_string()
            }
            other => {
                eprintln!("unknown flag `{other}`\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    if o.circuit.is_empty() {
        eprintln!("run: missing <circuit>\n\n{USAGE}");
        std::process::exit(2);
    }
    o
}

/// CLI telemetry plumbing: installs the requested sinks up front and, on
/// [`Telemetry::finish`], renders the Chrome trace / metrics JSON and
/// flushes everything (also on error paths, where `std::process::exit`
/// would otherwise drop buffered output).
struct Telemetry {
    recorder: Option<flatdd::telemetry::Recorder>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
}

impl Telemetry {
    fn init(o: &RunOpts) -> Telemetry {
        // The flag wins over the FLATDD_TRACE environment default.
        let events_path = o
            .events_out
            .clone()
            .or_else(|| std::env::var("FLATDD_TRACE").ok().filter(|s| !s.is_empty()));
        if let Some(path) = events_path {
            match flatdd::telemetry::JsonlSink::create(&path) {
                Ok(sink) => {
                    flatdd::telemetry::add_sink(Box::new(sink));
                }
                Err(e) => {
                    eprintln!("--events-out: cannot create {path}: {e}");
                    std::process::exit(2);
                }
            }
        }
        let recorder = o.trace_out.as_ref().map(|_| {
            let rec = flatdd::telemetry::Recorder::new();
            flatdd::telemetry::add_sink(rec.sink());
            rec
        });
        Telemetry {
            recorder,
            trace_out: o.trace_out.clone(),
            metrics_out: o.metrics_out.clone(),
        }
    }

    fn finish(&self) {
        flatdd::telemetry::flush_sinks();
        if let (Some(rec), Some(path)) = (&self.recorder, &self.trace_out) {
            let json = flatdd::telemetry::chrome_trace_json(&rec.events());
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("--trace-out: cannot write {path}: {e}");
            }
        }
        if let Some(path) = &self.metrics_out {
            let json = flatdd::telemetry::metrics_json();
            write_payload("--metrics-out", path, &json);
        }
    }
}

/// Writes a machine-readable payload to `path`, with `-` meaning stdout.
fn write_payload(flag: &str, path: &str, json: &str) {
    if path == "-" {
        println!("{json}");
    } else if let Err(e) = std::fs::write(path, format!("{json}\n")) {
        eprintln!("{flag}: cannot write {path}: {e}");
    }
}

fn cmd_run(args: &[String]) {
    let o = parse_run_opts(args);
    let tele = Telemetry::init(&o);
    let circuit = load_circuit(&o.circuit, o.seed);
    let n = circuit.num_qubits();
    eprintln!(
        "circuit {}: {} qubits, {} gates, depth {}",
        if circuit.name().is_empty() {
            &o.circuit
        } else {
            circuit.name()
        },
        n,
        circuit.num_gates(),
        circuit.depth()
    );
    if o.stats {
        let census: Vec<String> = circuit
            .gate_census()
            .iter()
            .map(|(k, v)| format!("{k}:{v}"))
            .collect();
        eprintln!("gate census: {}", census.join(" "));
    }

    if o.engine != "flatdd"
        && (o.checkpoint_path.is_some() || o.checkpoint_every.is_some() || o.resume_from.is_some())
    {
        eprintln!("--checkpoint-path/--checkpoint-every/--resume-from: only supported by the flatdd engine");
        tele.finish();
        std::process::exit(2);
    }

    let start = Instant::now();
    // For sampling/expectation we need a live simulator; for dd/array
    // engines fall back to the flat state.
    let mut rng = SplitMix64::new(o.seed ^ 0xBEEF);
    match o.engine.as_str() {
        "flatdd" => {
            // Flags override the FLATDD_* environment variables.
            let mut governor = GovernorConfig::from_env();
            if let Some(mb) = o.memory_budget_mb {
                governor.memory_budget_bytes = Some((mb as usize) << 20);
            }
            if let Some(mb) = o.rss_budget_mb {
                governor.rss_budget_bytes = Some((mb as usize) << 20);
            }
            if let Some(s) = o.deadline_secs {
                governor.deadline = Some(std::time::Duration::from_secs_f64(s));
            }
            if let Some(f) = o.approx_fidelity_floor {
                governor.approx_fidelity_floor = Some(f);
            }
            let mut cfg = FlatDdConfig {
                threads: o.threads,
                governor,
                ..Default::default()
            };
            if o.no_convert {
                cfg.conversion = flatdd::ConversionPolicy::Never;
            }
            if let Some(s) = o.flat_shards {
                cfg.flat_shards = s;
            }
            // Flag-based signal handling: SIGINT/SIGTERM set a flag polled
            // at gate boundaries, so sinks flush and checkpoints install
            // even when the run is cut short.
            flatdd::signal::install_handlers();
            let (mut sim, resumed_seed) = match &o.resume_from {
                Some(path) => {
                    match FlatDdSimulator::resume_from(std::path::Path::new(path), cfg, &circuit) {
                        Ok((sim, header)) => {
                            eprintln!(
                                "resumed from {path}: gate {}/{} in {:?} phase",
                                header.gate_cursor,
                                circuit.num_gates(),
                                header.phase
                            );
                            (sim, Some(header.rng_seed))
                        }
                        Err(e) => {
                            eprintln!("--resume-from {path}: {e}");
                            tele.finish();
                            std::process::exit(e.exit_code());
                        }
                    }
                }
                None => match FlatDdSimulator::try_new(n, cfg) {
                    Ok(sim) => (sim, None),
                    Err(e) => {
                        eprintln!("{e}");
                        // Flush sinks before the typed death so a partial
                        // JSONL event file is still complete and parseable.
                        tele.finish();
                        std::process::exit(e.exit_code());
                    }
                },
            };
            // A resumed run inherits the original sampling seed so the final
            // output distribution matches the uninterrupted run.
            if let Some(seed) = resumed_seed {
                rng = SplitMix64::new(seed ^ 0xBEEF);
            }
            // Checkpointing continues on resume: default the path to the
            // file being resumed when no --checkpoint-path is given.
            let ckpt_path = o.checkpoint_path.clone().or_else(|| {
                (o.checkpoint_every.is_some() || o.resume_from.is_some()).then(|| {
                    o.resume_from
                        .clone()
                        .unwrap_or_else(|| "flatdd.ckpt".into())
                })
            });
            if let Some(path) = ckpt_path {
                // Startup hygiene: a crashed predecessor may have left a
                // torn `*.tmp` beside the checkpoint file; sweep before
                // writing new ones.
                let dir = std::path::Path::new(&path)
                    .parent()
                    .filter(|d| !d.as_os_str().is_empty())
                    .unwrap_or_else(|| std::path::Path::new("."));
                flatdd::sweep_stale_tmp(dir);
                let mut policy = flatdd::CheckpointPolicy::at(path);
                if let Some(g) = o.checkpoint_every {
                    policy = policy.every(g);
                }
                policy.rng_seed = resumed_seed.unwrap_or(o.seed);
                sim.set_checkpoint_policy(Some(policy));
            }
            let result = match o.resume_from {
                Some(_) => sim.run_from(&circuit),
                None => sim.run(&circuit),
            };
            if let Err(e) = result {
                eprintln!("{e}");
                if let Some(p) = e.partial_outcome() {
                    eprintln!(
                        "stopped after {}/{} gates in {:?} phase",
                        p.gates_applied, p.total_gates, p.phase
                    );
                    if o.stats {
                        eprintln!("{:#?}", p.stats);
                    }
                    if let Some(path) = &o.stats_json {
                        write_payload("--stats-json", path, &p.stats.to_json());
                    }
                }
                if e.is_resumable() {
                    if let Some(path) = sim.last_checkpoint() {
                        eprintln!("resumable: rerun with --resume-from {}", path.display());
                    }
                }
                sim.publish_metrics();
                tele.finish();
                std::process::exit(e.exit_code());
            }
            let secs = start.elapsed().as_secs_f64();
            eprintln!(
                "flatdd: {secs:.3}s, phase {:?}, converted at {:?}",
                sim.phase(),
                sim.stats().converted_at
            );
            if sim.is_approximate() {
                eprintln!(
                    "APPROXIMATE result: {} truncation(s) under memory pressure, \
                     cumulative fidelity {:.12}",
                    sim.stats().approx_truncations,
                    sim.fidelity()
                );
            }
            if o.stats {
                eprintln!("{:#?}", sim.stats());
            }
            if let Some(path) = &o.stats_json {
                write_payload("--stats-json", path, &sim.stats().to_json());
            }
            sim.publish_metrics();
            for label in &o.expect {
                match PauliString::parse(label) {
                    Some(p) => println!("<{label}> = {:.6}", sim.expectation_pauli(&p)),
                    None => eprintln!("bad Pauli label `{label}`"),
                }
            }
            if o.shots > 0 {
                print_counts(
                    &sim.sample_counts(o.shots, &mut rng.as_fn()),
                    o.shots,
                    n,
                    o.top,
                );
            } else if sim.phase() == Phase::Dmav || n <= 22 {
                print_heavy(&sim.top_amplitudes(o.top), n);
            }
        }
        "dd" => {
            let mut sim = qdd::DdSimulator::new(n);
            sim.run(&circuit);
            let secs = start.elapsed().as_secs_f64();
            eprintln!(
                "dd engine: {secs:.3}s, state DD = {} nodes",
                sim.state_dd_size()
            );
            if o.stats {
                eprintln!("{:#?}", sim.stats());
                eprintln!("{:#?}", sim.package().stats());
            }
            if o.stats_json.is_some() {
                eprintln!("--stats-json: only supported by the flatdd engine");
            }
            sim.package().publish_metrics();
            for label in &o.expect {
                match PauliString::parse(label) {
                    Some(p) => {
                        let state = sim.state();
                        let e = sim.package_mut().expectation_pauli(state, &p, n);
                        println!("<{label}> = {e:.6}");
                    }
                    None => eprintln!("bad Pauli label `{label}`"),
                }
            }
            if o.shots > 0 {
                print_counts(
                    &sim.package()
                        .sample_counts(sim.state(), o.shots, &mut rng.as_fn()),
                    o.shots,
                    n,
                    o.top,
                );
            } else if n <= 22 {
                print_heavy(&sim.package().top_amplitudes(sim.state(), n, o.top), n);
            }
        }
        "array" => {
            let mut sim = qarray::ArraySimulator::with_threads(n, o.threads);
            sim.run(&circuit);
            let secs = start.elapsed().as_secs_f64();
            eprintln!("array engine: {secs:.3}s");
            if o.stats_json.is_some() {
                eprintln!("--stats-json: only supported by the flatdd engine");
            }
            for label in &o.expect {
                match PauliString::parse(label) {
                    Some(p) => {
                        println!(
                            "<{label}> = {:.6}",
                            qarray::expectation_pauli(sim.state(), &p)
                        )
                    }
                    None => eprintln!("bad Pauli label `{label}`"),
                }
            }
            if o.shots > 0 {
                print_counts(
                    &qarray::sample_counts(sim.state(), o.shots, &mut rng.as_fn()),
                    o.shots,
                    n,
                    o.top,
                );
            } else {
                print_heavy(&qarray::top_amplitudes(sim.state(), o.top), n);
            }
        }
        other => {
            eprintln!("unknown engine `{other}` (flatdd | dd | array)");
            tele.finish();
            std::process::exit(2);
        }
    }
    tele.finish();
}

fn print_heavy(top: &[(usize, qcircuit::Complex64)], n: usize) {
    println!("most probable outcomes:");
    for &(i, a) in top {
        let p = a.norm_sqr();
        if p < 1e-12 {
            break;
        }
        println!("  |{i:0n$b}>  p = {p:.6}");
    }
}

fn print_counts(counts: &[(usize, usize)], shots: usize, n: usize, top: usize) {
    println!("sampled {shots} shots:");
    for &(i, c) in counts.iter().take(top) {
        println!(
            "  |{i:0n$b}>  {c}  ({:.2}%)",
            100.0 * c as f64 / shots as f64
        );
    }
}

fn cmd_gen(args: &[String]) {
    let mut spec = String::new();
    let mut seed = 42u64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => seed = it.next().and_then(|s| s.parse().ok()).unwrap_or(42),
            other if spec.is_empty() && !other.starts_with("--") => spec = other.to_string(),
            other => {
                eprintln!("unknown flag `{other}`");
                std::process::exit(2);
            }
        }
    }
    if spec.is_empty() {
        eprintln!("gen: missing <circuit spec>");
        std::process::exit(2);
    }
    let c = load_circuit(&spec, seed);
    print!("{}", qasm::to_qasm(&c));
}

fn cmd_list() {
    println!("generator families (spec syntax `family:qubits[,param]`):");
    for (spec, desc) in [
        ("ghz:N", "GHZ state (regular)"),
        ("adder:N", "Cuccaro ripple-carry adder (regular; N even)"),
        ("qft:N", "quantum Fourier transform"),
        ("dnn:N,layers", "QNN feature-map circuit (irregular)"),
        ("vqe:N,depth", "hardware-efficient VQE ansatz (irregular)"),
        ("knn:N", "KNN swap-test kernel (N odd)"),
        ("swaptest:N", "swap test (N odd)"),
        (
            "supremacy:N,cycles",
            "Google-style random circuit (irregular)",
        ),
        ("grover:N[,marked]", "Grover search"),
        ("wstate:N", "W state"),
        ("qaoa:N,rounds", "QAOA MaxCut"),
        ("bv:N", "Bernstein-Vazirani"),
        ("dj:N", "Deutsch-Jozsa"),
        ("hs:N", "hidden shift (N even)"),
        ("qpe:N", "quantum phase estimation"),
        ("random:N,gates", "uniformly random circuit"),
    ] {
        println!("  {spec:<22} {desc}");
    }
}
