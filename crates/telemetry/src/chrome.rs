//! Chrome-trace (a.k.a. Trace Event Format) export.
//!
//! [`chrome_trace_json`] renders a recorded event stream as a JSON object
//! with a `traceEvents` array, loadable in `chrome://tracing` or Perfetto.
//! Layout: each simulator is a *process* (pid = simulator id) with fixed
//! *threads* — tid 0 carries each run's DD/DMAV phase spans, the
//! conversion, fusion and checkpoint spans, and the run start/end
//! instants; tid 1 carries per-gate spans; tid 2 GC sweeps; tid 3 governor
//! and watchdog instants; tid `10 + w` the conversion fill of worker `w`.
//! Every event is drawn once; the phase spans are the only derived
//! entries.

use crate::event::Event;
use crate::json::Writer;
use std::collections::BTreeMap;

const TID_PHASES: u64 = 0;
const TID_GATES: u64 = 1;
const TID_GC: u64 = 2;
const TID_GOVERNOR: u64 = 3;
const TID_WORKER_BASE: u64 = 10;

/// Opens one `traceEvents` entry with its `name, ph, pid, tid` header.
fn entry(w: &mut Writer, name: &str, ph: &str, pid: u64, tid: u64) {
    w.begin_obj().key("name").string(name).key("ph").string(ph);
    w.key("pid").uint(pid).key("tid").uint(tid);
}

/// Complete span (`ph:"X"`), left open in its `args`: write them, then
/// [`close`].
fn span(w: &mut Writer, name: &str, pid: u64, tid: u64, ts: f64, dur: f64) {
    entry(w, name, "X", pid, tid);
    w.key("ts").num(ts.max(0.0)).key("dur").num(dur.max(0.0));
    w.key("args").begin_obj();
}

/// Instant event (`ph:"i"`, thread scope), left open like [`span`].
fn instant(w: &mut Writer, name: &str, pid: u64, tid: u64, ts: f64) {
    entry(w, name, "i", pid, tid);
    w.key("ts").num(ts.max(0.0)).key("s").string("t");
    w.key("args").begin_obj();
}

/// Closes an entry's `args` and the entry.
fn close(w: &mut Writer) {
    w.end_obj().end_obj();
}

fn thread_name(w: &mut Writer, pid: u64, tid: u64, name: &str) {
    entry(w, "thread_name", "M", pid, tid);
    w.key("args").begin_obj().key("name").string(name);
    close(w);
}

/// A run between its `run_start` and `run_end`: where it started, in
/// which phase, and the conversion inside it, if any.
struct Run {
    start: f64,
    phase: &'static str,
    conv: Option<(f64, f64)>, // (start ts, dur)
}

impl Run {
    /// The run's phase spans, ending at `end` (see [`chrome_trace_json`]).
    fn draw(&self, w: &mut Writer, sim: u64, end: f64) {
        let mut phase = |name: &str, from: f64, to: f64| {
            span(w, name, sim, TID_PHASES, from, to - from);
            close(w);
        };
        match self.conv {
            Some((ts, dur)) => {
                phase("dd phase", self.start, ts);
                phase("dmav phase", ts + dur, end);
            }
            None if self.phase == "dmav" => phase("dmav phase", self.start, end),
            None => phase("dd phase", self.start, end),
        }
    }
}

/// Per-simulator bookkeeping: the open run and the tracks to name.
#[derive(Default)]
struct SimTimeline {
    run: Option<Run>,
    max_ts: f64,
    max_worker: Option<usize>,
    has_gc: bool,
}

impl SimTimeline {
    fn see(&mut self, ts: f64) {
        if ts > self.max_ts {
            self.max_ts = ts;
        }
    }
}

/// Renders `events` as a Chrome-trace JSON document.
///
/// In addition to one entry per recorded event, the exporter derives each
/// run's phase spans from that run's own `run_start`, `conversion` and
/// `run_end`: with a conversion, `"dd phase"` up to its start and
/// `"dmav phase"` from its end; without one, a single span named after the
/// starting phase. A run the stream does not end closes at the
/// simulator's last recorded timestamp.
pub fn chrome_trace_json(events: &[Event]) -> String {
    let mut out = String::new();
    let t = &mut Writer::new(&mut out);
    t.begin_obj().key("traceEvents").begin_arr();
    let mut sims: BTreeMap<u64, SimTimeline> = BTreeMap::new();

    for e in events {
        match e {
            Event::RunStart {
                sim,
                ts_us,
                qubits,
                threads,
                gates,
                phase,
            } => {
                let tl = sims.entry(*sim).or_default();
                tl.run = Some(Run {
                    start: *ts_us,
                    phase,
                    conv: None,
                });
                tl.see(*ts_us);
                instant(t, "run_start", *sim, TID_PHASES, *ts_us);
                t.key("qubits").uint(*qubits as u64);
                t.key("threads").uint(*threads as u64);
                t.key("gates").uint(*gates as u64);
                close(t);
            }
            Event::RunEnd {
                sim,
                ts_us,
                gates_applied,
                phase,
                ok,
            } => {
                let tl = sims.entry(*sim).or_default();
                if let Some(run) = tl.run.take() {
                    run.draw(t, *sim, *ts_us);
                }
                tl.see(*ts_us);
                instant(t, "run_end", *sim, TID_PHASES, *ts_us);
                t.key("gates_applied").uint(*gates_applied as u64);
                t.key("phase").string(phase);
                t.key("ok").string(if *ok { "true" } else { "false" });
                close(t);
            }
            Event::Gate {
                sim,
                ts_us,
                dur_us,
                index,
                gates,
                phase,
                dd_size,
                ewma,
                plan_hit,
                fused,
            } => {
                let tl = sims.entry(*sim).or_default();
                tl.see(*ts_us + *dur_us);
                let kind = match (*phase, *fused) {
                    ("dmav", true) => "fused dmav",
                    ("dmav", false) => "dmav",
                    _ => "dd",
                };
                // A step that folds several gates says so in its label, so
                // a long span reads as many gates, not one slow one.
                let name = match gates {
                    1 => format!("{kind} gate"),
                    k => format!("{kind} step ({k} gates)"),
                };
                span(t, &name, *sim, TID_GATES, *ts_us, *dur_us);
                t.key("index").uint(*index as u64);
                t.key("gates").uint(*gates as u64);
                if let Some(s) = dd_size {
                    t.key("dd_size").uint(*s as u64);
                }
                if let Some(e) = ewma {
                    t.key("ewma").num(*e);
                }
                if let Some(h) = plan_hit {
                    t.key("plan_hit").string(if *h { "hit" } else { "miss" });
                }
                close(t);
            }
            Event::Conversion {
                sim,
                ts_us,
                dur_us,
                at_gate,
                policy,
                dd_size,
                ewma,
                workers,
            } => {
                let tl = sims.entry(*sim).or_default();
                if let Some(run) = &mut tl.run {
                    run.conv = Some((*ts_us, *dur_us));
                }
                tl.see(*ts_us + *dur_us);
                span(t, "conversion", *sim, TID_PHASES, *ts_us, *dur_us);
                t.key("at_gate").uint(*at_gate as u64);
                t.key("policy").string(policy);
                if let Some(s) = dd_size {
                    t.key("dd_size").uint(*s as u64);
                }
                if let Some(e) = ewma {
                    t.key("ewma").num(*e);
                }
                t.key("workers").uint(workers.len() as u64);
                close(t);
                for w in workers {
                    let cur = tl.max_worker.map_or(0, |m| m.max(w.worker));
                    tl.max_worker = Some(cur.max(w.worker));
                    span(
                        t,
                        "fill",
                        *sim,
                        TID_WORKER_BASE + w.worker as u64,
                        *ts_us,
                        w.dur_us,
                    );
                    t.key("tasks").uint(w.tasks as u64);
                    t.key("amps").uint(w.amps as u64);
                    close(t);
                }
            }
            Event::Fusion {
                sim,
                ts_us,
                dur_us,
                gates_in,
                matrices_out,
            } => {
                sims.entry(*sim).or_default().see(*ts_us + *dur_us);
                span(t, "fusion", *sim, TID_PHASES, *ts_us, *dur_us);
                t.key("gates_in").uint(*gates_in as u64);
                t.key("matrices_out").uint(*matrices_out as u64);
                close(t);
            }
            Event::GcSweep {
                sim,
                ts_us,
                dur_us,
                v_freed,
                m_freed,
                epoch,
            } => {
                let tl = sims.entry(*sim).or_default();
                tl.see(*ts_us + *dur_us);
                tl.has_gc = true;
                span(t, "gc_sweep", *sim, TID_GC, *ts_us, *dur_us);
                t.key("v_freed").uint(*v_freed as u64);
                t.key("m_freed").uint(*m_freed as u64);
                t.key("epoch").uint(*epoch);
                close(t);
            }
            Event::Governor {
                sim,
                ts_us,
                action,
                detail,
            } => {
                sims.entry(*sim).or_default().see(*ts_us);
                instant(t, "governor", *sim, TID_GOVERNOR, *ts_us);
                t.key("action").string(action);
                t.key("detail").string(detail);
                close(t);
            }
            Event::Watchdog {
                sim,
                ts_us,
                norm,
                ok,
            } => {
                sims.entry(*sim).or_default().see(*ts_us);
                instant(t, "watchdog", *sim, TID_GOVERNOR, *ts_us);
                t.key("norm").num(*norm);
                t.key("ok").string(if *ok { "true" } else { "false" });
                close(t);
            }
            Event::Checkpoint {
                sim,
                ts_us,
                dur_us,
                op,
                bytes,
                gate_cursor,
                phase,
            } => {
                let tl = sims.entry(*sim).or_default();
                tl.see(*ts_us + *dur_us);
                let name = if *op == "load" {
                    "checkpoint load"
                } else {
                    "checkpoint write"
                };
                span(t, name, *sim, TID_PHASES, *ts_us, *dur_us);
                t.key("bytes").uint(*bytes);
                t.key("gate_cursor").uint(*gate_cursor as u64);
                t.key("phase").string(phase);
                close(t);
            }
            Event::Fault {
                ts_us,
                site,
                action,
            } => {
                // Faults carry no simulator id; park them on the first
                // simulator's governor track (pid 0 when none recorded yet).
                let pid = sims.keys().next().copied().unwrap_or(0);
                instant(t, "fault_injected", pid, TID_GOVERNOR, *ts_us);
                t.key("site").string(site);
                t.key("action").string(action);
                close(t);
            }
        }
    }

    // Runs the stream leaves open, and thread-name metadata.
    for (sim, tl) in &sims {
        if let Some(run) = &tl.run {
            run.draw(t, *sim, tl.max_ts);
        }
        thread_name(t, *sim, TID_PHASES, "phases");
        thread_name(t, *sim, TID_GATES, "gates");
        thread_name(t, *sim, TID_GOVERNOR, "governor/watchdog");
        if tl.has_gc {
            thread_name(t, *sim, TID_GC, "dd gc");
        }
        if let Some(max_w) = tl.max_worker {
            for w in 0..=max_w {
                let name = format!("conversion worker {w}");
                thread_name(t, *sim, TID_WORKER_BASE + w as u64, &name);
            }
        }
    }

    t.end_arr().end_obj();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::WorkerFill;
    use crate::json::{self, Json};

    #[test]
    fn empty_stream_is_valid_shell() {
        let s = chrome_trace_json(&[]);
        assert_eq!(s, "{\"traceEvents\":[]}");
    }

    #[test]
    fn full_run_renders_spans_and_derived_phases() {
        let events = vec![
            Event::RunStart {
                sim: 3,
                ts_us: 0.0,
                qubits: 4,
                threads: 2,
                gates: 5,
                phase: "dd",
            },
            Event::Gate {
                sim: 3,
                ts_us: 1.0,
                dur_us: 2.0,
                index: 0,
                gates: 1,
                phase: "dd",
                dd_size: Some(8),
                ewma: Some(7.5),
                plan_hit: None,
                fused: false,
            },
            Event::Conversion {
                sim: 3,
                ts_us: 4.0,
                dur_us: 6.0,
                at_gate: 1,
                policy: "ewma",
                dd_size: Some(8),
                ewma: Some(7.5),
                workers: vec![WorkerFill {
                    worker: 0,
                    tasks: 4,
                    amps: 16,
                    dur_us: 5.0,
                }],
            },
            Event::Gate {
                sim: 3,
                ts_us: 11.0,
                dur_us: 1.0,
                index: 1,
                gates: 1,
                phase: "dmav",
                dd_size: None,
                ewma: None,
                plan_hit: Some(true),
                fused: false,
            },
            Event::Gate {
                sim: 3,
                ts_us: 12.0,
                dur_us: 0.5,
                index: 2,
                gates: 3,
                phase: "dmav",
                dd_size: None,
                ewma: None,
                plan_hit: Some(true),
                fused: false,
            },
            Event::RunEnd {
                sim: 3,
                ts_us: 13.0,
                gates_applied: 5,
                phase: "dmav",
                ok: true,
            },
        ];
        let s = chrome_trace_json(&events);
        assert!(s.starts_with("{\"traceEvents\":["));
        assert!(s.ends_with("]}"));
        assert!(s.contains("\"name\":\"dd gate\""));
        assert!(s.contains("\"name\":\"dmav gate\""));
        assert!(s.contains("\"name\":\"dmav step (3 gates)\""));
        assert!(s.contains("\"gates\":3"));
        assert!(s.contains("\"name\":\"conversion\""));
        assert!(s.contains("\"name\":\"fill\""));
        assert!(s.contains("\"name\":\"dd phase\""));
        assert!(s.contains("\"name\":\"dmav phase\""));
        assert!(s.contains("\"policy\":\"ewma\""));
        assert!(s.contains("\"name\":\"conversion worker 0\""));
        assert!(s.contains("\"plan_hit\":\"hit\""));
        // Worker fill sub-span lands on tid 10.
        assert!(s.contains("\"tid\":10"));
    }

    /// Each run's phase spans come from that run's own events: two runs
    /// of one simulator with an idle gap between them, the first
    /// converting, draw `dd phase` and `dmav phase` inside the first and a
    /// second `dmav phase` inside the second, none across the gap.
    #[test]
    fn phase_spans_stay_inside_their_run() {
        let start = |ts_us, phase| Event::RunStart {
            sim: 4,
            ts_us,
            qubits: 2,
            threads: 1,
            gates: 2,
            phase,
        };
        let end = |ts_us| Event::RunEnd {
            sim: 4,
            ts_us,
            gates_applied: 2,
            phase: "dmav",
            ok: true,
        };
        let events = vec![
            start(0.0, "dd"),
            Event::Conversion {
                sim: 4,
                ts_us: 2.0,
                dur_us: 1.0,
                at_gate: 1,
                policy: "manual",
                dd_size: None,
                ewma: None,
                workers: Vec::new(),
            },
            end(5.0),
            start(100.0, "dmav"),
            end(110.0),
        ];
        let s = chrome_trace_json(&events);
        let Some(Json::Arr(entries)) = json::parse(&s).unwrap().get("traceEvents").cloned() else {
            panic!("{s}");
        };
        let phases: Vec<(&str, f64, f64)> = entries
            .iter()
            .filter_map(|e| {
                let name = e.get("name")?.as_str().filter(|n| n.ends_with(" phase"))?;
                Some((name, e.get("ts")?.as_f64()?, e.get("dur")?.as_f64()?))
            })
            .collect();
        assert_eq!(
            phases,
            [
                ("dd phase", 0.0, 2.0),
                ("dmav phase", 3.0, 2.0),
                ("dmav phase", 100.0, 10.0)
            ]
        );
    }

    #[test]
    fn run_without_conversion_gets_single_phase_span() {
        let events = vec![
            Event::RunStart {
                sim: 9,
                ts_us: 0.0,
                qubits: 2,
                threads: 1,
                gates: 1,
                phase: "dd",
            },
            Event::RunEnd {
                sim: 9,
                ts_us: 5.0,
                gates_applied: 1,
                phase: "dd",
                ok: true,
            },
        ];
        let s = chrome_trace_json(&events);
        assert!(s.contains("\"name\":\"dd phase\""));
        assert!(!s.contains("\"name\":\"dmav phase\""));
    }
}
