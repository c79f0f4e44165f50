//! `bench_spine` — the layered benchmark every speed claim in this
//! repository is measured with. README.md beside this file is the manual:
//! workloads, metric catalog, run protocol, how to read the span files.
//!
//! ```text
//! bench_spine --workload W --seed N --seconds S --trace 0|1   one driver run
//! bench_spine [--seed N] [--seconds S]                        every workload, both modes
//! bench_spine --agree                                         two end-to-end sets, compared
//! bench_spine --smoke                                         same code paths, n <= 12
//! ```

mod api;
mod catalog;
mod host;
mod json;
mod serve;
mod spans;
mod stats;

use catalog::{Metric, Params, END_TO_END, PER_LAYER, SERVE_MIX, WORKLOADS};
use json::JsonWriter;
use stats::{fastest, median, Summary};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Timed repetitions of each kind, at `T` threads and at one thread, that
/// an end-to-end run makes at least. The kinds alternate so each samples
/// the whole run: the host's slow stretches last seconds. With `T = 1`
/// there is one kind, and both metrics read it.
const MIN_REPS: usize = 5;
/// Untraced repetitions beside the traced one, for `trace.overhead_pct`.
const TRACE_BASELINE_REPS: usize = 3;
/// Daemon start-ups timed per `serve_mix` run for `setup_s`.
const DAEMON_SETUPS: usize = 5;
/// Share of the run budget the in-process baseline of `serve_mix` may use,
/// and the rounds over the job specs it makes at least.
const BASELINE_SHARE: f64 = 0.15;
const MIN_BASELINE_ROUNDS: usize = 3;

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    agree: bool,
    threads: Option<usize>,
    out_dir: PathBuf,
    /// `rep`, `check` or `trace` when this process is a repetition child.
    child: Option<String>,
}

const USAGE: &str = "\
bench_spine — layered FlatDD benchmark (see README.md beside the sources)

  --workload <name>   run one workload and end with the driver's JSON line
  --seed <n>          seeds the circuit generators and the job order (default 1)
  --seconds <s>       measuring budget of one run (default 18; 0 = minimum repetitions)
  --trace <0|1>       0 = end-to-end metrics (default), 1 = traced repetition, layer metrics
  --threads <t>       T of the multi-thread repetitions (default: largest power of two <= min(nproc / 2, 4), at least 1)
  --out-dir <dir>     reports, reference samples, span files (default target/bench_spine)
  --smoke             small sizes (n <= 12), minimum repetitions, every metric asserted
  --agree             two end-to-end sets; exit 1 if a value moved by more than its bound

Without --workload every workload runs in both modes and report.json is written.";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 18.0,
        trace: None,
        smoke: false,
        agree: false,
        threads: None,
        out_dir: PathBuf::from("target/bench_spine"),
        child: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} expects a value"))
        };
        let bad = |v: &str| format!("{flag}: cannot parse `{v}`");
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--seconds" => {
                let v = value()?;
                a.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad(&v))?;
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                })
            }
            "--threads" => a.threads = Some(value().and_then(|v| v.parse().map_err(|_| bad(&v)))?),
            "--out-dir" => a.out_dir = PathBuf::from(value()?),
            "--child" => a.child = Some(value()?),
            "--smoke" => a.smoke = true,
            "--agree" => a.agree = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag `{other}`\n\n{USAGE}")),
        }
    }
    if let Some(w) = &a.workload {
        if catalog::workload(w).is_none() {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload `{w}`; one of {}",
                names.join(", ")
            ));
        }
    }
    Ok(a)
}

// ---------------------------------------------------------------------------
// Shared context
// ---------------------------------------------------------------------------

struct Ctx {
    params: Params,
    smoke: bool,
    /// `T`.
    threads: usize,
    seed: u64,
    seconds: f64,
    dir: PathBuf,
}

impl Ctx {
    fn new(a: &Args) -> Result<Ctx, String> {
        let nproc = host::nproc();
        let threads = a.threads.unwrap_or_else(host::default_threads);
        if threads == 0 || !threads.is_power_of_two() {
            return Err(format!("--threads {threads}: must be a power of two"));
        }
        if threads > nproc {
            return Err(format!(
                "refusing to record: T = {threads} threads asked for, {nproc} hardware threads visible"
            ));
        }
        std::fs::create_dir_all(&a.out_dir).map_err(|e| format!("{}: {e}", a.out_dir.display()))?;
        Ok(Ctx {
            params: if a.smoke {
                catalog::SMOKE
            } else {
                catalog::FULL
            },
            smoke: a.smoke,
            threads,
            seed: a.seed,
            seconds: if a.smoke { 0.0 } else { a.seconds },
            dir: a.out_dir.clone(),
        })
    }

    /// Threads of the simulator repetitions of `workload`: served jobs run
    /// on one thread, so their stand-in circuit does too.
    fn threads_for(&self, workload: &str) -> usize {
        if workload == SERVE_MIX {
            1
        } else {
            self.threads
        }
    }

    fn ref_path(&self, workload: &str) -> PathBuf {
        self.dir.join(format!("{workload}.ref"))
    }
}

// ---------------------------------------------------------------------------
// Reference sample files
// ---------------------------------------------------------------------------

fn write_samples(
    path: &Path,
    workload: &str,
    seed: u64,
    fingerprint: u64,
    samples: &[api::Sample],
) -> Result<(), String> {
    let mut text = format!("workload {workload}\nseed {seed}\nfingerprint {fingerprint}\n");
    for (i, re, im) in samples {
        text.push_str(&format!("{i} {re:?} {im:?}\n"));
    }
    // Rename into place: a repetition never sees half a file.
    let tmp = path.with_extension("ref.tmp");
    std::fs::write(&tmp, text)
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn read_samples(
    path: &Path,
    workload: &str,
    seed: u64,
    fingerprint: u64,
) -> Result<Vec<api::Sample>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut lines = text.lines();
    let header = [
        format!("workload {workload}"),
        format!("seed {seed}"),
        format!("fingerprint {fingerprint}"),
    ];
    for want in &header {
        if lines.next() != Some(want.as_str()) {
            return Err(format!(
                "{} was published for another run (expected `{want}`)",
                path.display()
            ));
        }
    }
    lines
        .map(|l| {
            let mut f = l.split(' ');
            Some((
                f.next()?.parse().ok()?,
                f.next()?.parse().ok()?,
                f.next()?.parse().ok()?,
            ))
        })
        .collect::<Option<Vec<_>>>()
        .filter(|s| !s.is_empty())
        .ok_or_else(|| format!("{}: malformed sample line", path.display()))
}

// ---------------------------------------------------------------------------
// Child side: one repetition per process
// ---------------------------------------------------------------------------

/// Runs one repetition of `kind` and reports through `emit`, one line each:
/// `READY`, `DONE <peak rss bytes>`, `M <metric> <value>`, `C <exact
/// counter> <value>`. In a child process `emit` prints; the in-process
/// tests hand in a collector.
fn child_main(
    kind: &str,
    workload: &str,
    threads: usize,
    ctx: &Ctx,
    emit: &mut dyn FnMut(&str),
) -> Result<(), String> {
    let p = &ctx.params;
    let seed = ctx.seed;
    let mem_available = host::mem_available_bytes().unwrap_or(u64::MAX);
    let mut rec = spans::Recorder::new(seed);
    let (case, generate_s) = rec.time("qcircuit.generate", None, || {
        api::build_case(workload, seed, p, threads)
    });
    let case = case?;
    // Two state vectors, the checked copy and the reference, with headroom.
    let need = 8 * case.state_bytes();
    if mem_available < need {
        return Err(format!(
            "refusing to start: MemAvailable {} MiB < {} MiB needed for 2^{} amplitudes",
            mem_available >> 20,
            need >> 20,
            case.qubits()
        ));
    }
    let fingerprint = case.fingerprint();
    let ref_path = ctx.ref_path(workload);
    emit(&format!("M qcircuit.generate_s {generate_s:?}"));
    match kind {
        "rep" => {
            let samples = read_samples(&ref_path, workload, seed, fingerprint)?;
            // Both callbacks need `emit`, one after the other.
            let shared = std::cell::RefCell::new(&mut *emit);
            let out = api::timed_rep(
                &case,
                &samples,
                || (*shared.borrow_mut())("READY"),
                || {
                    let rss = host::peak_rss_bytes(std::process::id()).unwrap_or(0);
                    (*shared.borrow_mut())(&format!("DONE {rss}"));
                },
            )?;
            emit(&format!("M sim.new_s {:?}", out.new_s));
            emit(&format!("M run_s {:?}", out.run_s));
            emit(&format!("M check.max_abs_err {:?}", out.max_abs_err));
            emit(&format!("M check.norm_err {:?}", out.norm_err));
            for (name, v) in out.counters {
                emit(&format!("C {name} {v:?}"));
            }
        }
        "check" => {
            let (samples, err) = api::check_rep(&case, seed)?;
            write_samples(&ref_path, workload, seed, fingerprint, &samples)?;
            emit(&format!("M check.max_abs_err {err:?}"));
        }
        "trace" => {
            let host = api::Host {
                mem_available,
                llc_bytes: host::llc_bytes().unwrap_or(32 << 20),
            };
            let (layers, samples) = api::traced_rep(case, seed, p, &mut rec, &ctx.dir, &host)?;
            write_samples(&ref_path, workload, seed, fingerprint, &samples)?;
            let span_path = ctx.dir.join(format!("{workload}.spans.json"));
            std::fs::write(&span_path, rec.to_json())
                .map_err(|e| format!("{}: {e}", span_path.display()))?;
            for (name, v) in layers {
                emit(&format!("M {name} {v:?}"));
            }
        }
        other => return Err(format!("unknown child kind `{other}`")),
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Parent side: spawning and reading repetitions
// ---------------------------------------------------------------------------

/// What the parent learned from one repetition.
#[derive(Default, Debug)]
struct Rep {
    threads: usize,
    /// Child start to simulator constructed.
    setup_s: f64,
    /// Child start to child exit.
    total_s: f64,
    rss_bytes: u64,
    metrics: BTreeMap<String, f64>,
    counters: Vec<(String, f64)>,
    error: Option<String>,
}

impl Rep {
    fn note_line(&mut self, line: &str, t0: Instant) {
        let mut f = line.split(' ');
        match f.next() {
            Some("READY") => self.setup_s = t0.elapsed().as_secs_f64(),
            Some("DONE") => {
                self.rss_bytes = f.next().and_then(|v| v.parse().ok()).unwrap_or(0);
            }
            Some(tag @ ("M" | "C")) => {
                if let (Some(name), Some(Ok(v))) = (f.next(), f.next().map(str::parse::<f64>)) {
                    if tag == "M" {
                        self.metrics.insert(name.to_string(), v);
                    } else {
                        self.counters.push((name.to_string(), v));
                    }
                }
            }
            Some("E") => self.error = Some(line[2..].to_string()),
            _ => {}
        }
    }
}

/// Runs one repetition in a fresh process (re-exec of this binary with a
/// scrubbed environment), so allocator state, DD tables, plan caches and
/// `VmHWM` are its own.
#[cfg(not(test))]
fn run_child(ctx: &Ctx, kind: &str, workload: &str, threads: usize) -> Rep {
    use std::io::{BufRead, BufReader, Read};
    use std::process::{Command, Stdio};
    let mut rep = Rep {
        threads,
        ..Rep::default()
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            rep.error = Some(format!("current_exe: {e}"));
            return rep;
        }
    };
    let mut cmd = Command::new(exe);
    cmd.args(["--child", kind, "--workload", workload])
        .args(["--seed", &ctx.seed.to_string()])
        .args(["--threads", &threads.to_string()])
        .arg("--out-dir")
        .arg(&ctx.dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    if ctx.smoke {
        cmd.arg("--smoke");
    }
    host::scrub_env(&mut cmd);
    let t0 = Instant::now();
    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => {
            rep.error = Some(format!("spawn repetition: {e}"));
            return rep;
        }
    };
    let stdout = child.stdout.take().expect("stdout was piped");
    for line in BufReader::new(stdout).lines().map_while(Result::ok) {
        rep.note_line(&line, t0);
    }
    // The engine writes a line or two to stderr; far below a pipe buffer.
    let mut stderr = String::new();
    if let Some(mut e) = child.stderr.take() {
        let _ = e.read_to_string(&mut stderr);
    }
    let status = child.wait();
    rep.total_s = t0.elapsed().as_secs_f64();
    match status {
        Ok(s) if s.success() => {}
        Ok(s) if rep.error.is_none() => {
            let tail: Vec<&str> = stderr.lines().rev().take(3).collect();
            rep.error = Some(format!("repetition exited with {s}: {}", tail.join(" | ")));
        }
        Err(e) => rep.error = Some(format!("wait: {e}")),
        _ => {}
    }
    rep
}

/// Under `cargo test` the running executable is the test harness, not
/// `bench_spine`, so repetitions run in-process through the same
/// `child_main`.
#[cfg(test)]
fn run_child(ctx: &Ctx, kind: &str, workload: &str, threads: usize) -> Rep {
    let mut rep = Rep {
        threads,
        ..Rep::default()
    };
    let t0 = Instant::now();
    let result = child_main(kind, workload, threads, ctx, &mut |l: &str| {
        rep.note_line(l, t0)
    });
    rep.total_s = t0.elapsed().as_secs_f64();
    rep.error = result.err();
    rep
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

struct Value {
    metric: Metric,
    value: f64,
    /// Present when the value was read from several repetitions or jobs.
    summary: Option<Summary>,
}

struct RunResult {
    workload: &'static str,
    traced: bool,
    attempted: usize,
    failed: usize,
    values: Vec<Value>,
    /// Printed ratios and findings that are not gated metrics.
    notes: Vec<String>,
    first_error: Option<String>,
}

impl RunResult {
    fn new(workload: &'static str, traced: bool) -> RunResult {
        RunResult {
            workload,
            traced,
            attempted: 0,
            failed: 0,
            values: Vec::new(),
            notes: Vec::new(),
            first_error: None,
        }
    }

    fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        let why = why.into();
        eprintln!("[bench_spine] {}: FAILED: {why}", self.workload);
        self.first_error.get_or_insert(why);
    }

    fn push(&mut self, name: &str, value: f64, samples: Option<&[f64]>) {
        let metric = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the catalog"));
        self.values.push(Value {
            metric: *metric,
            value,
            summary: samples.map(Summary::of),
        });
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|v| v.metric.name == name)
            .map(|v| v.value)
    }

    /// Every metric of this mode must be there exactly once, finite.
    fn verify_complete(&mut self) {
        let wanted: &[Metric] = if self.traced { &PER_LAYER } else { &END_TO_END };
        for m in wanted {
            let found: Vec<f64> = self
                .values
                .iter()
                .filter(|v| v.metric.name == m.name)
                .map(|v| v.value)
                .collect();
            match found.as_slice() {
                [v] if v.is_finite() => {}
                [v] => self.fail(format!("metric {} is not finite: {v}", m.name)),
                [] => {
                    self.fail(format!("metric {} was not measured", m.name));
                    self.push(m.name, 0.0, None);
                }
                _ => self.fail(format!("metric {} was measured twice", m.name)),
            }
        }
    }

    fn print(&self) {
        for v in &self.values {
            let detail = v.summary.as_ref().map_or(String::new(), |s| {
                format!(
                    "  (of {}: min {:.6} q1 {:.6} median {:.6} q3 {:.6} max {:.6}, spread {:.2}%)",
                    s.n,
                    s.min,
                    s.q1,
                    s.median,
                    s.q3,
                    s.max,
                    s.spread * 100.0
                )
            });
            println!(
                "{} {} {:?} {}{detail}",
                self.workload, v.metric.name, v.value, v.metric.unit
            );
        }
        for n in &self.notes {
            println!("{} # {n}", self.workload);
        }
        println!(
            "{} ops {} count\n{} ops_failed {} count",
            self.workload, self.attempted, self.workload, self.failed
        );
    }

    /// The driver's result object.
    fn driver_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("correct").boolean(self.failed == 0);
        w.key("attempted").uint(self.attempted.max(1) as u64);
        w.key("failed").uint(self.failed as u64);
        w.key("metrics").begin_object();
        for v in &self.values {
            w.key(v.metric.name).begin_object();
            w.key("value").number(v.value);
            w.key("unit").string(v.metric.unit);
            w.end_object();
        }
        w.end_object();
        w.end_object();
        w.finish()
    }

    fn report_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("workload").string(self.workload);
        w.key("mode")
            .string(if self.traced { "trace" } else { "end_to_end" });
        w.key("ops").uint(self.attempted as u64);
        w.key("ops_failed").uint(self.failed as u64);
        match &self.first_error {
            Some(e) => w.key("first_error").string(e),
            None => w.key("first_error").null(),
        };
        w.key("metrics").begin_array();
        for v in &self.values {
            w.begin_object();
            w.key("name").string(v.metric.name);
            w.key("unit").string(v.metric.unit);
            w.key("value").number(v.value);
            if let Some(s) = &v.summary {
                w.key("n").uint(s.n as u64);
                w.key("min").number(s.min);
                w.key("q1").number(s.q1);
                w.key("median").number(s.median);
                w.key("q3").number(s.q3);
                w.key("max").number(s.max);
                w.key("spread").number(s.spread);
            }
            w.end_object();
        }
        w.end_array();
        w.key("notes").begin_array();
        for n in &self.notes {
            w.string(n);
        }
        w.end_array();
        w.end_object();
    }
}

// ---------------------------------------------------------------------------
// End-to-end runs
// ---------------------------------------------------------------------------

/// Folds one timed repetition into the result; `Some(rep)` when it passed.
fn accept_rep(
    res: &mut RunResult,
    rep: Rep,
    exact: &mut BTreeMap<usize, Vec<(String, f64)>>,
) -> Option<Rep> {
    res.attempted += 1;
    if let Some(e) = &rep.error {
        res.fail(format!("repetition at {} threads: {e}", rep.threads));
        return None;
    }
    // Counters must repeat exactly among repetitions of one thread count.
    match exact.get(&rep.threads) {
        Some(first) if *first != rep.counters => {
            res.fail(format!(
                "exact counters changed between repetitions at {} threads: {:?} then {:?}",
                rep.threads, first, rep.counters
            ));
            return None;
        }
        Some(_) => {}
        None => {
            exact.insert(rep.threads, rep.counters.clone());
        }
    }
    Some(rep)
}

fn run_e2e_simulator(ctx: &Ctx, workload: &'static str) -> RunResult {
    let mut res = RunResult::new(workload, false);
    let t = ctx.threads;
    // Untimed: warms up, checks the whole state against the array engine
    // and publishes the samples the timed repetitions compare with.
    let check = run_child(ctx, "check", workload, t);
    if let Some(e) = check.error {
        res.attempted += 1;
        res.fail(format!("full-state check: {e}"));
        res.verify_complete();
        return res;
    }
    let mut reps: Vec<Rep> = Vec::new();
    let mut exact = BTreeMap::new();
    let start = Instant::now();
    let kinds: &[usize] = if t == 1 { &[1] } else { &[t, 1] };
    let mut rounds = 0;
    let mut round_s = 0.0;
    // The minimum, then on while the next round still fits the budget.
    while res.failed == 0
        && (rounds < MIN_REPS || start.elapsed().as_secs_f64() + round_s <= ctx.seconds)
    {
        let t0 = Instant::now();
        for &threads in kinds {
            let rep = run_child(ctx, "rep", workload, threads);
            reps.extend(accept_rep(&mut res, rep, &mut exact));
        }
        round_s = t0.elapsed().as_secs_f64();
        rounds += 1;
    }
    let of = |threads: usize, f: &dyn Fn(&Rep) -> f64| -> Vec<f64> {
        reps.iter()
            .filter(|r| r.threads == threads)
            .map(f)
            .collect()
    };
    let run_s = |r: &Rep| r.metrics.get("run_s").copied().unwrap_or(0.0);
    let setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let wall = of(t, &run_s);
    let wall_1t = of(1, &run_s);
    let rss = of(t, &|r| r.rss_bytes as f64 / (1 << 20) as f64);
    // Every repetition is the same computation and the host only ever adds
    // time to it, so the fastest one is the run's reading of each timing.
    res.push("setup_s", fastest(&setup), Some(&setup));
    res.push("wall_s", fastest(&wall), Some(&wall));
    res.push("wall_1t_s", fastest(&wall_1t), Some(&wall_1t));
    res.push("peak_rss_mb", median(&rss), Some(&rss));
    let rate: Vec<f64> = wall.iter().map(|w| 1.0 / w).collect();
    res.push("jobs_per_s", 1.0 / fastest(&wall), Some(&rate));
    if fastest(&wall) > 0.0 {
        res.notes.push(format!(
            "speedup_x = wall_1t_s / wall_s = {:.3} at T = {t} (not gated)",
            fastest(&wall_1t) / fastest(&wall)
        ));
    }
    let order: Vec<String> = reps
        .iter()
        .map(|r| format!("{}:{:.3}", r.threads, run_s(r)))
        .collect();
    res.notes.push(format!(
        "threads:run() seconds in order: {}",
        order.join(" ")
    ));
    if let Some(c) = exact.get(&t) {
        res.notes.push(format!("exact counters at T = {t}: {c:?}"));
    }
    res.verify_complete();
    res
}

/// In-process references of the job specs: the amplitudes served results
/// are checked against.
type References = Vec<(&'static str, Vec<(f64, f64)>)>;

fn serve_references(ctx: &Ctx) -> Result<References, String> {
    ctx.params
        .serve_specs
        .iter()
        .map(|&spec| Ok((spec, api::simulate_in_process(spec)?.0)))
        .collect()
}

fn run_e2e_serve(ctx: &Ctx) -> RunResult {
    let mut res = RunResult::new(SERVE_MIX, false);
    let stream = api::job_stream(&ctx.params, ctx.params.serve_jobs, ctx.seed);
    res.attempted = stream.len();
    let outcome = (|| -> Result<(), String> {
        let refs = serve_references(ctx)?;
        let specs = &ctx.params.serve_specs;
        let jobs_of = |spec: &str| stream.iter().filter(|j| j.spec == spec).count();
        // The same jobs with no daemon: rounds over the specs, each
        // simulated in this process on one thread; a job of the stream
        // costs the fastest run of its spec.
        let mut in_process: Vec<(usize, Vec<f64>)> =
            specs.iter().map(|s| (jobs_of(s), Vec::new())).collect();
        let t0 = Instant::now();
        while in_process[0].1.len() < MIN_BASELINE_ROUNDS
            || t0.elapsed().as_secs_f64() < ctx.seconds * BASELINE_SHARE
        {
            for (spec, (_, times)) in specs.iter().zip(&mut in_process) {
                let t = Instant::now();
                api::simulate_in_process(spec)?;
                times.push(t.elapsed().as_secs_f64());
            }
        }
        let baseline_s: f64 = in_process
            .iter()
            .map(|(jobs, times)| *jobs as f64 * fastest(times))
            .sum();

        let mut setups = Vec::new();
        for k in 1..DAEMON_SETUPS {
            setups.push(serve::Daemon::spawn(&ctx.dir, &format!("setup{k}"))?.ready_s);
        }
        let daemon = serve::Daemon::spawn(&ctx.dir, "load")?;
        setups.push(daemon.ready_s);
        let mut rec = spans::Recorder::new(ctx.seed);
        let s = serve::run_session(&daemon, &stream, &refs, &mut rec)?;
        drop(daemon);
        res.failed = s.failed;
        res.first_error = s.first_error.clone();
        if let Some(e) = &s.first_error {
            eprintln!("[bench_spine] serve_mix: FAILED: {e}");
        }
        res.push("setup_s", fastest(&setups), Some(&setups));
        res.push("wall_s", s.wall_s, None);
        res.push("wall_1t_s", baseline_s, None);
        res.push(
            "peak_rss_mb",
            s.peak_rss_bytes as f64 / (1 << 20) as f64,
            None,
        );
        res.push("jobs_per_s", s.jobs as f64 / s.wall_s, None);
        res.notes.push(format!(
            "serving factor = wall_s / wall_1t_s = {:.3} (closed loop, {} clients, 1 worker)",
            s.wall_s / baseline_s,
            serve::CLIENTS
        ));
        res.notes.push(format!(
            "in-process rounds over the specs: {}",
            in_process[0].1.len()
        ));
        if let Some(p) = stats::highest_supported_percentile(s.latency_ms.len()) {
            res.notes.push(format!(
                "job latency p50 = {:.3} ms, p{p} = {:.3} ms over {} jobs (not gated)",
                median(&s.latency_ms),
                stats::percentile(&s.latency_ms, p),
                s.latency_ms.len()
            ));
        }
        Ok(())
    })();
    if let Err(e) = outcome {
        res.fail(e);
        res.failed = res.attempted;
    }
    res.verify_complete();
    res
}

// ---------------------------------------------------------------------------
// Traced runs
// ---------------------------------------------------------------------------

fn run_trace(ctx: &Ctx, workload: &'static str) -> RunResult {
    let mut res = RunResult::new(workload, true);
    let t = ctx.threads_for(workload);

    // The simulator layers: one traced repetition.
    res.attempted += 1;
    let traced = run_child(ctx, "trace", workload, t);
    match &traced.error {
        Some(e) => res.fail(format!("traced repetition: {e}")),
        None => {
            for (name, v) in &traced.metrics {
                res.push(name, *v, None);
            }
        }
    }

    // Tracing overhead: the traced run span against untraced repetitions.
    let mut exact = BTreeMap::new();
    let mut wall = Vec::new();
    if traced.error.is_none() {
        for _ in 0..TRACE_BASELINE_REPS {
            let rep = run_child(ctx, "rep", workload, t);
            if let Some(r) = accept_rep(&mut res, rep, &mut exact) {
                wall.push(r.metrics.get("run_s").copied().unwrap_or(0.0));
            }
        }
    }
    let span_s = traced.metrics.get("sim.run_span_s").copied().unwrap_or(0.0);
    let base = median(&wall);
    res.push(
        "trace.overhead_pct",
        if base > 0.0 {
            (span_s - base) / base * 100.0
        } else {
            0.0
        },
        None,
    );
    if base > 0.0 {
        let parts = ["sim.dd_phase_s", "sim.convert_gate_s", "sim.flat_phase_s"]
            .iter()
            .filter_map(|m| res.get(m))
            .sum::<f64>();
        let share = parts / span_s.max(f64::MIN_POSITIVE);
        res.notes.push(format!(
            "phases cover {:.1}% of the traced run span ({})",
            share * 100.0,
            if share >= 0.95 { "ok" } else { "BELOW 95%" }
        ));
        if let Some(ref_s) = res.get("qarray.run_s") {
            res.notes.push(format!(
                "vs_array_x = qarray.run_s (1 thread) / wall_s (T = {t}) = {:.3}",
                ref_s / base
            ));
        }
    }

    // The serve layer: a daemon session with spans around every request.
    let jobs = if workload == SERVE_MIX {
        ctx.params.serve_jobs
    } else {
        ctx.params.serve_probe_jobs
    };
    let stream = api::job_stream(&ctx.params, jobs, ctx.seed);
    res.attempted += stream.len();
    let session = (|| -> Result<serve::Session, String> {
        let refs = serve_references(ctx)?;
        let daemon = serve::Daemon::spawn(&ctx.dir, "trace")?;
        let mut rec = spans::Recorder::new(ctx.seed);
        let s = serve::run_session(&daemon, &stream, &refs, &mut rec)?;
        let path = ctx.dir.join(format!("{workload}.serve.spans.json"));
        std::fs::write(&path, rec.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(s)
    })();
    match session {
        Ok(s) => {
            res.failed += s.failed;
            if let Some(e) = s.first_error.clone() {
                eprintln!("[bench_spine] {workload}: FAILED: {e}");
                res.first_error.get_or_insert(e);
            }
            for (name, v) in s.layers() {
                res.push(name, v, None);
            }
        }
        Err(e) => {
            res.fail(format!("serve session: {e}"));
            res.failed += stream.len() - 1;
        }
    }
    res.verify_complete();
    res
}

fn run_one(ctx: &Ctx, workload: &'static str, traced: bool) -> RunResult {
    match (traced, workload == SERVE_MIX) {
        (true, _) => run_trace(ctx, workload),
        (false, true) => run_e2e_serve(ctx),
        (false, false) => run_e2e_simulator(ctx, workload),
    }
}

// ---------------------------------------------------------------------------
// Whole-suite modes
// ---------------------------------------------------------------------------

fn write_header(w: &mut JsonWriter, ctx: &Ctx) {
    let p = &ctx.params;
    w.key("header").begin_object();
    w.key("git_rev").string(&host::git_rev());
    w.key("nproc").uint(host::nproc() as u64);
    w.key("cpu_model").string(&host::cpu_model());
    w.key("llc_bytes").uint(host::llc_bytes().unwrap_or(0));
    w.key("mem_available_bytes")
        .uint(host::mem_available_bytes().unwrap_or(0));
    w.key("vecops_backend").string(api::vecops_backend());
    w.key("rustc").string(&host::rustc_version());
    w.key("threads_T").uint(ctx.threads as u64);
    w.key("seed").uint(ctx.seed);
    w.key("seconds").number(ctx.seconds);
    w.key("smoke").boolean(ctx.smoke);
    w.key("parameters").begin_object();
    let pair = |w: &mut JsonWriter, k: &str, a: &str, x: usize, b: &str, y: usize| {
        w.key(k).begin_object();
        w.key(a).uint(x as u64);
        w.key(b).uint(y as u64);
        w.end_object();
    };
    pair(
        w,
        "supremacy_flat",
        "qubits",
        p.supremacy_flat.0,
        "cycles",
        p.supremacy_flat.1,
    );
    pair(
        w,
        "dnn_fused",
        "qubits",
        p.dnn_fused.0,
        "layers",
        p.dnn_fused.1,
    );
    pair(
        w,
        "knn_wide",
        "qubits",
        2 * p.knn_wide + 1,
        "register",
        p.knn_wide,
    );
    pair(
        w,
        "supremacy_dd",
        "qubits",
        p.supremacy_dd.0,
        "cycles",
        p.supremacy_dd.1,
    );
    pair(
        w,
        "adder_dd",
        "qubits",
        2 * p.adder_dd.0 + 2,
        "additions",
        p.adder_dd.1,
    );
    w.key("serve_mix").begin_object();
    w.key("jobs").uint(p.serve_jobs as u64);
    w.key("clients").uint(serve::CLIENTS as u64);
    w.key("specs").begin_array();
    for s in p.serve_specs {
        w.string(s);
    }
    w.end_array();
    w.end_object();
    w.end_object();
    w.end_object();
}

fn write_report(ctx: &Ctx, sets: &[Vec<RunResult>]) -> Result<PathBuf, String> {
    let mut w = JsonWriter::new();
    w.begin_object();
    write_header(&mut w, ctx);
    w.key("sets").begin_array();
    for set in sets {
        w.begin_array();
        for r in set {
            r.report_json(&mut w);
        }
        w.end_array();
    }
    w.end_array();
    w.end_object();
    let path = ctx.dir.join("report.json");
    std::fs::write(&path, w.finish()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Runs every workload in the given modes, printing as it goes.
fn run_set(ctx: &Ctx, modes: &[bool]) -> Vec<RunResult> {
    let mut out = Vec::new();
    for w in &WORKLOADS {
        println!("# {}: {}", w.name, w.why);
        for &traced in modes {
            let r = run_one(ctx, w.name, traced);
            r.print();
            let _ = std::io::stdout().flush();
            out.push(r);
        }
    }
    out
}

/// Compares the end-to-end values of two sets of the same code. Returns
/// the lines to print and whether every metric stayed within its bound.
fn compare_sets(a: &[RunResult], b: &[RunResult]) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut ok = true;
    for (ra, rb) in a.iter().zip(b) {
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (ra.get(m.name), rb.get(m.name)) else {
                continue;
            };
            let worse = if m.better == "lower" { y - x } else { x - y };
            let diff = if x != 0.0 { worse / x.abs() } else { 0.0 };
            let verdict = if diff.abs() <= m.bound {
                "agree"
            } else {
                "DISAGREE"
            };
            ok &= diff.abs() <= m.bound;
            lines.push(format!(
                "{} {} set1 {:.6} set2 {:.6} diff {:+.2}% bound {:.0}% {verdict}",
                ra.workload,
                m.name,
                x,
                y,
                diff * 100.0,
                m.bound * 100.0
            ));
        }
    }
    (lines, ok)
}

fn real_main() -> Result<i32, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    let ctx = Ctx::new(&args)?;

    if let Some(kind) = &args.child {
        let workload = args.workload.as_deref().ok_or("--child needs --workload")?;
        let threads = args.threads.ok_or("--child needs --threads")?;
        let mut emit = |line: &str| {
            // One write per line, flushed: the parent stamps arrival times.
            let mut out = std::io::stdout().lock();
            let _ = writeln!(out, "{line}");
            let _ = out.flush();
        };
        return Ok(match child_main(kind, workload, threads, &ctx, &mut emit) {
            Ok(()) => 0,
            Err(e) => {
                emit(&format!("E {e}"));
                1
            }
        });
    }

    // The daemon must exist before anything is measured: never a skip.
    serve::daemon_path()?;
    // The in-process baseline of `serve_mix` runs the engine in this
    // process, where each phase transition would log a line to stderr.
    // Children never see this: their environment is scrubbed.
    std::env::set_var("FLATDD_PHASE_LOG", "0");

    if let Some(w) = &args.workload {
        let workload = catalog::workload(w).expect("validated by parse_args").name;
        println!(
            "# T={} nproc={} cpu=\"{}\" vecops={} {} git={} seed={}",
            ctx.threads,
            host::nproc(),
            host::cpu_model(),
            api::vecops_backend(),
            host::rustc_version(),
            host::git_rev(),
            ctx.seed
        );
        let r = run_one(&ctx, workload, args.trace.unwrap_or(false));
        r.print();
        println!("{}", r.driver_json());
        return Ok(0);
    }

    let started = Instant::now();
    let sets = if args.agree {
        let a = run_set(&ctx, &[false]);
        let b = run_set(&ctx, &[false]);
        vec![a, b]
    } else {
        let modes: &[bool] = match args.trace {
            Some(t) => &[t],
            None => &[false, true],
        };
        vec![run_set(&ctx, modes)]
    };
    let report = write_report(&ctx, &sets)?;
    let failed: usize = sets.iter().flatten().map(|r| r.failed).sum();
    let mut code = i32::from(failed > 0);
    if let [a, b] = sets.as_slice() {
        let (lines, ok) = compare_sets(a, b);
        for l in lines {
            println!("{l}");
        }
        if !ok {
            code = 1;
        }
    }
    println!(
        "# {} written, {} failed ops, {:.0} s",
        report.display(),
        failed,
        started.elapsed().as_secs_f64()
    );
    if args.smoke && started.elapsed() > Duration::from_secs(20) {
        eprintln!("[bench_spine] smoke run took longer than 20 s");
    }
    Ok(code)
}

fn main() {
    match real_main() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests;
