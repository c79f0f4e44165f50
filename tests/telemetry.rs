//! Integration tests for the unified telemetry surface: per-run stats
//! semantics, structured event-stream invariants, the JSONL and Chrome
//! trace exporters, and the global metrics registry.
//!
//! The event-sink registry is process-global, so every test that installs
//! a sink serializes on [`TELEMETRY_LOCK`] and filters recorded events by
//! its own simulator's `telemetry_id`.

use flatdd::telemetry::json::{self, Json};
use flatdd::telemetry::{self, Event};
use flatdd::{ConversionPolicy, FlatDdConfig, FlatDdSimulator};
use qcircuit::generators;
use std::sync::{Mutex, MutexGuard};

static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

fn sink_lock() -> MutexGuard<'static, ()> {
    TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn irregular_circuit() -> qcircuit::Circuit {
    generators::dnn(10, 2, 1)
}

#[test]
fn stats_reset_between_runs() {
    let c = irregular_circuit();
    let mut sim = FlatDdSimulator::new(
        10,
        FlatDdConfig {
            threads: 2,
            ..Default::default()
        },
    );
    let first = sim.run(&c).expect("first run").stats;
    assert!(first.gates_dd > 0, "run starts in the DD phase");
    assert!(first.converted_at.is_some(), "DNN must convert");
    assert!(first.ct_mv_lookups > 0, "DD gates hit the MV compute table");

    // The second run starts in the DMAV phase; its stats must describe only
    // itself, not the accumulated lifetime of the simulator.
    let second = sim.run(&c).expect("second run").stats;
    assert_eq!(second.gates_dd, 0, "second run never touches the DD phase");
    assert_eq!(second.converted_at, None, "conversion is not re-reported");
    assert_eq!(
        second.gates_dmav,
        c.num_gates(),
        "every gate of the second run is a DMAV"
    );
    assert_eq!(
        second.ct_mv_lookups, 0,
        "compute-table deltas are re-baselined per run"
    );
    assert_eq!(
        second.dmav_plan_hits + second.dmav_plan_misses,
        c.num_gates(),
        "plan lookups are counted per run, not over the simulator's lifetime"
    );
}

#[test]
fn conversion_and_run_events_emitted_exactly_once() {
    let _g = sink_lock();
    let rec = telemetry::Recorder::new();
    let id = telemetry::add_sink(rec.sink());
    let c = irregular_circuit();
    let mut sim = FlatDdSimulator::new(
        10,
        FlatDdConfig {
            threads: 2,
            conversion: ConversionPolicy::AtGate(5),
            ..Default::default()
        },
    );
    sim.run(&c).expect("run");
    let me = sim.telemetry_id();
    telemetry::remove_sink(id);

    let mut conversions = 0;
    let mut transitions = 0;
    let mut starts = 0;
    let mut ends = 0;
    let mut gates = 0;
    for e in rec.events() {
        match e {
            Event::Conversion { sim, at_gate, .. } if sim == me => {
                conversions += 1;
                assert_eq!(at_gate, 4, "AtGate(5) converts after the 5th gate");
            }
            Event::PhaseTransition { sim, policy, .. } if sim == me => {
                transitions += 1;
                assert_eq!(policy, "at-gate");
            }
            Event::RunStart { sim, .. } if sim == me => starts += 1,
            Event::RunEnd { sim, ok, .. } if sim == me => {
                ends += 1;
                assert!(ok);
            }
            // One event per boundary step: a gate, or in the flat phase a
            // run of gates that says how many it applied.
            Event::Gate { sim, gates: k, .. } if sim == me => gates += k,
            _ => {}
        }
    }
    assert_eq!(conversions, 1, "conversion event exactly once");
    assert_eq!(transitions, 1, "phase-transition event exactly once");
    assert_eq!((starts, ends), (1, 1));
    assert_eq!(
        gates,
        c.num_gates(),
        "every applied gate in exactly one gate event"
    );
}

#[test]
fn plan_cache_accounting_covers_every_dmav_gate() {
    let c = irregular_circuit();
    let mut sim = FlatDdSimulator::new(
        10,
        FlatDdConfig {
            threads: 2,
            conversion: ConversionPolicy::Immediate,
            ..Default::default()
        },
    );
    let stats = sim.run(&c).expect("run").stats;
    assert_eq!(stats.gates_dd, 0, "Immediate converts at construction");
    assert_eq!(stats.gates_dmav, c.num_gates());
    assert_eq!(
        stats.dmav_plan_hits + stats.dmav_plan_misses,
        stats.gates_dmav,
        "every DMAV gate is exactly one plan lookup, and each lookup is a \
         hit or a miss"
    );
    assert!(stats.dmav_plan_hits > 0, "repeated gate matrices must hit");
    assert_eq!(stats.cached_dmavs, 0, "the engine runs Algorithm 1 only");
}

#[test]
fn jsonl_sink_writes_one_valid_object_per_line() {
    let _g = sink_lock();
    let path = std::env::temp_dir().join(format!("flatdd-events-{}.jsonl", std::process::id()));
    let sink = telemetry::JsonlSink::create(&path).expect("create JSONL sink");
    let id = telemetry::add_sink(Box::new(sink));
    let mut sim = FlatDdSimulator::new(
        10,
        FlatDdConfig {
            threads: 2,
            ..Default::default()
        },
    );
    sim.run(&irregular_circuit()).expect("run");
    let me = sim.telemetry_id();
    telemetry::remove_sink(id); // flushes

    let text = std::fs::read_to_string(&path).expect("read JSONL");
    let _ = std::fs::remove_file(&path);
    let mine: Vec<&str> = text
        .lines()
        .filter(|l| l.contains(&format!("\"sim\":{me},")))
        .collect();
    assert!(!mine.is_empty(), "the run must have produced events");
    for line in mine {
        assert!(line.starts_with("{\"type\":\""), "line: {line}");
        assert!(line.ends_with('}'), "line: {line}");
        assert!(line.contains("\"ts_us\":"), "line: {line}");
    }
    assert!(text.lines().any(|l| l.contains("\"type\":\"conversion\"")));
}

#[test]
fn chrome_trace_renders_phases_and_workers() {
    let _g = sink_lock();
    let rec = telemetry::Recorder::new();
    let id = telemetry::add_sink(rec.sink());
    let mut sim = FlatDdSimulator::new(
        10,
        FlatDdConfig {
            threads: 2,
            ..Default::default()
        },
    );
    sim.run(&irregular_circuit()).expect("run");
    telemetry::remove_sink(id);

    let trace = telemetry::chrome_trace_json(&rec.events());
    assert!(trace.starts_with("{\"traceEvents\":["));
    let Some(Json::Arr(entries)) = json::parse(&trace).unwrap().get("traceEvents").cloned() else {
        panic!("no traceEvents array");
    };
    let names: Vec<&str> = entries
        .iter()
        .filter_map(|e| e.get("name")?.as_str())
        .collect();
    for needle in ["dd phase", "dmav phase", "conversion", "thread_name"] {
        assert!(names.contains(&needle), "missing {needle}");
    }
    let worker_track = entries
        .iter()
        .find(|e| e.get("args").and_then(|a| a.get("name")) == Some(&"conversion worker 0".into()));
    assert!(worker_track.is_some(), "missing conversion worker 0");
}

#[test]
fn metrics_registry_round_trips_and_resets() {
    // Unique names so concurrent tests mutating engine metrics cannot
    // interfere with the values asserted here.
    let ctr = telemetry::counter("test.roundtrip_counter");
    ctr.add(41);
    ctr.inc();
    telemetry::gauge("test.roundtrip_gauge").set(2.5);
    telemetry::set_label("test.roundtrip_label", "hello \"world\"");
    let text = telemetry::metrics_json();
    assert!(text.starts_with("{\"counters\":{"), "{text}");
    let m = json::parse(&text).unwrap();
    let at = |m: &Json, section: &str, key: &str| m.get(section)?.get(key).cloned();
    assert_eq!(
        at(&m, "counters", "test.roundtrip_counter"),
        Some(Json::Num(42.0))
    );
    assert_eq!(
        at(&m, "gauges", "test.roundtrip_gauge"),
        Some(Json::Num(2.5))
    );
    assert_eq!(
        at(&m, "labels", "test.roundtrip_label"),
        Some("hello \"world\"".into())
    );

    telemetry::reset_metrics();
    assert_eq!(ctr.get(), 0, "reset zeroes live counter handles");
    let m = json::parse(&telemetry::metrics_json()).unwrap();
    assert_eq!(
        at(&m, "counters", "test.roundtrip_counter"),
        Some(Json::Num(0.0))
    );
}
