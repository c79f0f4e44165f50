//! The workspace's one JSON codec (`qtelemetry::json`, re-exported as
//! `flatdd::serve::json`) against what it reads and writes:
//!
//! * every emitter's output parses, with its keys in the documented order;
//! * a spool record written by an earlier build still loads;
//! * the decoders never panic on hostile bytes, and whatever parses
//!   survives a write/parse round trip unchanged;
//! * a string as long as the largest request body parses in linear time.

use flatdd::context::Progress;
use flatdd::serve::http::MAX_BODY_BYTES;
use flatdd::serve::jobs::load_spool;
use flatdd::serve::json::{parse, Json};
use flatdd::serve::stream::{cursor_line, end_line, heartbeat_line};
use flatdd::serve::{JobRecord, JobResult, JobSpec, JobState};
use flatdd::telemetry::{chrome_trace_json, Event, MetricsRegistry, WorkerFill};
use flatdd::FlatDdStats;
use qcircuit::prop;
use std::time::Instant;

/// A spool record the daemon wrote before the codec moved: a finished
/// `dnn:8,2` job with its result, stats and metrics.
const PARENT_RECORD: &str = include_str!("fixtures/job-1.json");

/// The keys of every object in `text`, object by object in the order the
/// objects open. Keys with escapes are not expected.
fn object_keys(text: &str) -> Vec<Vec<String>> {
    let mut open: Vec<(usize, Vec<String>)> = Vec::new();
    let mut done = Vec::new();
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '{' => open.push((open.len() + done.len(), Vec::new())),
            '}' => done.push(open.pop().expect("balanced braces")),
            '"' => {
                let mut s = String::new();
                while let Some(c) = chars.next() {
                    match c {
                        '\\' => {
                            chars.next();
                        }
                        '"' => break,
                        c => s.push(c),
                    }
                }
                if chars.peek() == Some(&':') {
                    open.last_mut().expect("a key inside an object").1.push(s);
                }
            }
            _ => {}
        }
    }
    done.sort_by_key(|&(order, _)| order);
    done.into_iter().map(|(_, keys)| keys).collect()
}

/// Asserts `text` parses and its first (outermost) object has `keys`, in
/// order. Returns the parsed value.
fn parses_with_keys(text: &str, keys: &[&str]) -> Json {
    let v = parse(text).unwrap_or_else(|e| panic!("{e}: {text}"));
    assert_eq!(object_keys(text)[0], keys, "{text}");
    v
}

fn every_event() -> Vec<Event> {
    let worker = WorkerFill {
        worker: 1,
        tasks: 3,
        amps: 4096,
        dur_us: 5.5,
    };
    vec![
        Event::RunStart {
            sim: 1,
            ts_us: 0.5,
            qubits: 8,
            threads: 2,
            gates: 40,
            phase: "dd",
        },
        Event::Gate {
            sim: 1,
            ts_us: 1.0,
            dur_us: 2.0,
            index: 0,
            gates: 1,
            phase: "dd",
            dd_size: Some(9),
            ewma: Some(7.5),
            plan_hit: Some(true),
            fused: true,
        },
        Event::PhaseTransition {
            sim: 1,
            ts_us: 3.0,
            at_gate: 12,
            dd_size: 200,
            ewma: 150.25,
            policy: "ewma",
        },
        Event::Conversion {
            sim: 1,
            ts_us: 3.0,
            dur_us: 6.0,
            at_gate: 12,
            workers: vec![worker],
            scalar_tasks: 2,
        },
        Event::Fusion {
            sim: 1,
            ts_us: 0.0,
            dur_us: 4.0,
            gates_in: 40,
            matrices_out: 9,
        },
        Event::GcSweep {
            pkg: 2,
            ts_us: 2.0,
            dur_us: 1.0,
            v_freed: 10,
            m_freed: 4,
            epoch: 3,
        },
        Event::Governor {
            sim: 1,
            ts_us: 4.0,
            action: "pressure_gc",
            detail: "say \"no\"\n\u{1}".into(),
        },
        Event::Watchdog {
            sim: 1,
            ts_us: 5.0,
            norm: f64::NAN,
            ok: false,
        },
        Event::Checkpoint {
            sim: 1,
            ts_us: 6.0,
            dur_us: 7.0,
            op: "write",
            bytes: 1 << 40,
            gate_cursor: 20,
            phase: "dmav",
        },
        Event::Checkpoint {
            sim: 1,
            ts_us: 6.0,
            dur_us: 7.0,
            op: "load",
            bytes: 4096,
            gate_cursor: 20,
            phase: "dmav",
        },
        Event::Fault {
            ts_us: 8.0,
            site: "alloc.flat".into(),
            action: "error",
        },
        Event::Span {
            sim: 1,
            ts_us: 0.5,
            dur_us: 9.0,
            id: 11,
            parent: 10,
            name: "phase.dd",
        },
        Event::RunEnd {
            sim: 1,
            ts_us: 9.5,
            gates_applied: 40,
            phase: "dmav",
            ok: true,
        },
    ]
}

fn finished_record() -> JobRecord {
    let stats = FlatDdStats {
        gates_dd: 41,
        converted_at: Some(40),
        ..FlatDdStats::default()
    };
    let metrics = MetricsRegistry::new();
    metrics.counter("core.runs").inc();
    metrics.gauge("sim.fidelity").set(1.0);
    metrics.histogram("sim.conversion_us").observe(285);
    metrics.set_label("array.vecops_backend", "scalar");
    let mut rec = JobRecord::new(
        7,
        JobSpec {
            qasm: Some("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\n".into()),
            deadline_secs: Some(2.5),
            ..JobSpec::default()
        },
    );
    rec.state = JobState::Done;
    rec.exit_code = Some(0);
    rec.error = Some("none \"quoted\"".into());
    rec.result = Some(JobResult {
        gates_applied: 66,
        total_gates: 66,
        phase: "dmav".into(),
        elapsed_secs: 0.013,
        heavy: vec![(239, -0.21026394481591607, 0.05922410167034463)],
        stats_json: stats.to_json(),
        metrics_json: metrics.to_json(),
        ..JobResult::default()
    });
    rec
}

const STATS_KEYS: [&str; 26] = [
    "gates_dd",
    "gates_dmav",
    "converted_at",
    "conversion_seconds",
    "cached_dmavs",
    "uncached_dmavs",
    "cache_hits",
    "fused_matrices",
    "modeled_cost",
    "peak_state_dd_size",
    "conversion_refusals",
    "pressure_gcs",
    "dmav_plan_hits",
    "dmav_plan_misses",
    "ct_mv_lookups",
    "ct_mv_hits",
    "ct_mv_hit_rate",
    "ct_mm_lookups",
    "ct_mm_hits",
    "ct_mm_hit_rate",
    "ct_add_lookups",
    "ct_add_hits",
    "ct_add_hit_rate",
    "approx_truncations",
    "approximate",
    "fidelity",
];

#[test]
fn every_emitter_parses_with_its_keys_in_order() {
    // JSONL events: `type` first, then the fields in declaration order.
    let event_keys: [&[&str]; 13] = [
        &[
            "type", "sim", "ts_us", "qubits", "threads", "gates", "phase",
        ],
        &[
            "type", "sim", "ts_us", "dur_us", "index", "gates", "phase", "dd_size", "ewma",
            "plan_hit", "fused",
        ],
        &[
            "type", "sim", "ts_us", "at_gate", "dd_size", "ewma", "policy",
        ],
        &[
            "type",
            "sim",
            "ts_us",
            "dur_us",
            "at_gate",
            "scalar_tasks",
            "workers",
        ],
        &["type", "sim", "ts_us", "dur_us", "gates_in", "matrices_out"],
        &[
            "type", "pkg", "ts_us", "dur_us", "v_freed", "m_freed", "epoch",
        ],
        &["type", "sim", "ts_us", "action", "detail"],
        &["type", "sim", "ts_us", "norm", "ok"],
        &[
            "type",
            "sim",
            "ts_us",
            "dur_us",
            "bytes",
            "gate_cursor",
            "phase",
        ],
        &[
            "type",
            "sim",
            "ts_us",
            "dur_us",
            "bytes",
            "gate_cursor",
            "phase",
        ],
        &["type", "ts_us", "site", "action"],
        &["type", "sim", "ts_us", "dur_us", "id", "parent", "name"],
        &["type", "sim", "ts_us", "gates_applied", "phase", "ok"],
    ];
    let events = every_event();
    for (e, keys) in events.iter().zip(event_keys) {
        let line = e.to_jsonl();
        let v = parses_with_keys(&line, keys);
        assert_eq!(v.get("type"), Some(&e.kind().into()), "{line}");
    }
    let conversion = events[3].to_jsonl();
    assert_eq!(
        object_keys(&conversion)[1],
        ["worker", "tasks", "amps", "dur_us"]
    );
    let governor = parse(&events[6].to_jsonl()).unwrap();
    assert_eq!(governor.get("detail"), Some(&"say \"no\"\n\u{1}".into()));
    let watchdog = parse(&events[7].to_jsonl()).unwrap();
    assert_eq!(
        watchdog.get("norm"),
        Some(&Json::Null),
        "NaN is written as null"
    );
    let checkpoint = parse(&events[8].to_jsonl()).unwrap();
    assert_eq!(
        checkpoint.get("bytes"),
        Some(&Json::Num((1u64 << 40) as f64))
    );

    // Chrome trace: one object holding `traceEvents`, whose entries are
    // spans, instants and thread-name metadata.
    let trace = chrome_trace_json(&events);
    let v = parses_with_keys(&trace, &["traceEvents"]);
    let Some(Json::Arr(entries)) = v.get("traceEvents") else {
        panic!("{trace}");
    };
    let shapes: [&[&str]; 3] = [
        &["name", "ph", "pid", "tid", "ts", "dur", "args"],
        &["name", "ph", "pid", "tid", "ts", "s", "args"],
        &["name", "ph", "pid", "tid", "args"],
    ];
    let entry_keys: Vec<Vec<String>> = object_keys(&trace)
        .into_iter()
        .filter(|k| k.first().map(String::as_str) == Some("name") && k.len() > 1)
        .collect();
    assert_eq!(entry_keys.len(), entries.len(), "{trace}");
    for keys in &entry_keys {
        assert!(shapes.iter().any(|s| keys == s), "{keys:?}");
    }
    let names: Vec<&str> = entries
        .iter()
        .filter_map(|e| e.get("name")?.as_str())
        .collect();
    for name in ["dd gate", "conversion", "fill", "dd phase", "dmav phase"] {
        assert!(names.contains(&name), "no {name} in {names:?}");
    }
    let worker_track = Some(&Json::from("conversion worker 1"));
    assert!(entries
        .iter()
        .any(|e| e.get("args").and_then(|a| a.get("name")) == worker_track));

    // Metrics registry: four sorted sections; histograms as summaries.
    let finished = finished_record();
    let metrics = &finished.result.as_ref().unwrap().metrics_json;
    let v = parses_with_keys(metrics, &["counters", "gauges", "histograms", "labels"]);
    let hist = object_keys(metrics)
        .into_iter()
        .find(|k| k.first().map(String::as_str) == Some("count"))
        .expect("a histogram summary");
    assert_eq!(hist, ["count", "sum", "mean", "p50", "p90", "p99"]);
    let at = |section: &str, key: &str| v.get(section)?.get(key).cloned();
    assert_eq!(at("counters", "core.runs"), Some(Json::Num(1.0)));
    assert_eq!(at("labels", "array.vecops_backend"), Some("scalar".into()));

    // Run statistics: declaration order, `approximate` before `fidelity`.
    let stats = &finished.result.as_ref().unwrap().stats_json;
    let v = parses_with_keys(stats, &STATS_KEYS);
    assert_eq!(v.get("converted_at"), Some(&Json::Num(40.0)));
    assert_eq!(
        parse(&FlatDdStats::default().to_json())
            .unwrap()
            .get("converted_at"),
        Some(&Json::Null)
    );

    // Progress samples and the stream's control lines.
    let p = Progress {
        seq: 3,
        ts_us: 12.4,
        phase: "dd",
        gate: 7,
        total_gates: 100,
        gates_per_sec: 1234.56,
        dd_nodes: 4,
        governor_rung: 1,
        shard_fill: 0,
        run_span: 1,
        phase_span: 2,
    };
    let v = parses_with_keys(
        &p.to_json(),
        &[
            "event",
            "seq",
            "ts_us",
            "phase",
            "gate",
            "total_gates",
            "gates_per_sec",
            "dd_nodes",
            "governor_rung",
            "shard_fill",
            "run_span",
            "phase_span",
        ],
    );
    assert_eq!(v.get("ts_us"), Some(&Json::Num(12.0)), "rounded to µs");
    assert_eq!(
        v.get("gates_per_sec"),
        Some(&Json::Num(1234.6)),
        "one decimal"
    );
    let heartbeat = heartbeat_line(5);
    assert!(heartbeat.ends_with('\n'));
    parses_with_keys(heartbeat.trim_end(), &["event", "ts_us", "cursor"]);
    let v = parses_with_keys(
        end_line("done", 5).trim_end(),
        &["event", "state", "cursor"],
    );
    assert_eq!(v.get("state"), Some(&"done".into()));
    let v = parses_with_keys(cursor_line(9).trim_end(), &["event", "cursor"]);
    assert_eq!(v.get("cursor"), Some(&Json::Num(9.0)));

    // A job record: sorted keys, the stats embedded in their own order.
    let text = finished.to_json().to_string();
    let v = parses_with_keys(
        &text,
        &[
            "error",
            "exit_code",
            "id",
            "panics",
            "preemptions",
            "result",
            "retries",
            "spec",
            "state",
        ],
    );
    let back = JobRecord::from_json(&v).unwrap();
    assert_eq!(back.spec, finished.spec);
    assert_eq!(back.error, finished.error);
    let result = back.result.unwrap();
    assert_eq!(result.heavy, finished.result.as_ref().unwrap().heavy);
    assert_eq!(parse(&result.stats_json), parse(stats));
    assert_eq!(parse(&result.metrics_json), parse(metrics));
}

#[test]
fn a_record_written_by_the_earlier_build_still_loads() {
    let spool = std::env::temp_dir().join(format!("flatdd-json-fixture-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);
    std::fs::create_dir_all(&spool).unwrap();
    std::fs::write(spool.join("job-1.json"), PARENT_RECORD).unwrap();
    let load = load_spool(&spool);
    std::fs::remove_dir_all(&spool).ok();
    assert_eq!(load.quarantined, 0);
    let [rec] = &load.records[..] else {
        panic!("{:?}", load.records);
    };
    assert_eq!((rec.id, &rec.state), (1, &JobState::Done));
    assert_eq!(rec.spec.circuit, "dnn:8,2");
    assert_eq!((rec.spec.seed, rec.spec.threads), (7, 1));
    assert_eq!(rec.spec.checkpoint_every, Some(16));
    let result = rec.result.as_ref().unwrap();
    assert_eq!((result.gates_applied, result.total_gates), (66, 66));
    assert_eq!(result.heavy.len(), 8);
    assert_eq!(
        result.heavy[0],
        (239, -0.21026394481591607, 0.05922410167034463)
    );
    let stats = parse(&result.stats_json).unwrap();
    assert_eq!(stats.get("gates_dd"), Some(&Json::Num(41.0)));
    assert_eq!(stats.get("approximate"), Some(&Json::Bool(false)));
    let metrics = parse(&result.metrics_json).unwrap();
    let runs = metrics.get("counters").and_then(|c| c.get("core.runs"));
    assert_eq!(runs, Some(&Json::Num(1.0)));

    // Rewritten in today's spelling it reads back to the same values.
    let old = parse(PARENT_RECORD).unwrap();
    assert_eq!(parse(&rec.to_json().to_string()).unwrap(), old);
}

/// One mutation of `doc`, drawn from `g`: a bit flip, a truncation, a
/// splice of another document, a run of openers, a long string, or a
/// number scaled past the `f64` range.
fn mutate(g: &mut prop::Gen, doc: &[u8], other: &[u8]) -> Vec<u8> {
    let mut out = doc.to_vec();
    let at = g.rng.range(0..out.len() + 1);
    match g.rng.range(0..6) {
        0 if !out.is_empty() => {
            let i = g.rng.range(0..out.len());
            out[i] ^= 1 << g.rng.range(0..8);
        }
        1 => out.truncate(at),
        2 => {
            let from = g.rng.range(0..other.len());
            let to = g.rng.range(from..other.len() + 1);
            let end = g.rng.range(at..out.len() + 1);
            out.splice(at..end, other[from..to].iter().copied());
        }
        3 => {
            let opener: &[u8] = if g.rng.bool(0.5) { b"[" } else { b"{\"a\":" };
            let reps = 1 << g.rng.range(0..17);
            out.splice(at..at, opener.repeat(reps));
        }
        4 => {
            if let Some(i) = (at..out.len()).find(|&i| out[i].is_ascii_digit()) {
                out.splice(i + 1..i + 1, *b"e999");
            }
        }
        _ => {
            let len = 1 << g.rng.range(0..21);
            let fill = [b'a', b'\\', b'"', 0xce][g.rng.range(0..4)];
            out.splice(at..at, std::iter::repeat_n(fill, len));
        }
    }
    out
}

#[test]
fn decoders_survive_hostile_bytes_and_round_trip_what_they_accept() {
    let spec = JobSpec {
        qasm: Some(
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\ncx q[0],q[1];\n".into(),
        ),
        checkpoint_every: Some(4),
        ..JobSpec::default()
    };
    let corpus = [
        spec.to_json().to_string(),
        PARENT_RECORD.to_string(),
        include_str!("../BENCHMARK.json").to_string(),
        every_event()[6].to_jsonl(),
    ];
    for doc in &corpus {
        let v = parse(doc).unwrap_or_else(|e| panic!("seed document: {e}"));
        assert_eq!(parse(&v.to_string()), Ok(v));
    }
    let mut accepted = 0;
    prop::check(1500, |g| {
        let doc_index = g.rng.range(0..corpus.len());
        let doc = corpus[doc_index].as_bytes();
        let other = corpus[g.rng.range(0..corpus.len())].as_bytes();
        let mut bytes = mutate(g, doc, other);
        for _ in 0..g.rng.range(0..3) {
            bytes = mutate(g, &bytes, other);
        }
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(v) = parse(&text) {
            accepted += 1;
            let _ = JobSpec::from_json(&v);
            let _ = JobRecord::from_json(&v);
            let back = parse(&v.to_string());
            assert!(
                matches!(&back, Ok(b) if *b == v),
                "a {}-byte mutant of document {doc_index} does not round-trip",
                bytes.len()
            );
        }
    });
    assert!(
        accepted > 0,
        "no mutant parsed: the loop never reached the round trip"
    );
}

#[test]
fn a_body_sized_string_parses_in_linear_time() {
    let filler = MAX_BODY_BYTES - "{\"circuit\":\"\"}".len();
    let doc = format!("{{\"circuit\":\"{}\"}}", "a".repeat(filler));
    assert_eq!(doc.len(), MAX_BODY_BYTES);
    let t = Instant::now();
    let v = parse(&doc).unwrap();
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(
        v.get("circuit").and_then(Json::as_str).map(str::len),
        Some(filler)
    );
    assert!(
        secs < 2.0,
        "a {MAX_BODY_BYTES}-byte string took {secs:.2} s"
    );
}
