//! Chrome-trace (a.k.a. Trace Event Format) export.
//!
//! [`chrome_trace_json`] renders a recorded event stream as a JSON object
//! with a `traceEvents` array, loadable in `chrome://tracing` or Perfetto.
//! Layout: each simulator is a *process* (pid = simulator id) with fixed
//! *threads* — tid 0 carries the DD/DMAV phase spans, conversion and fusion
//! spans, and phase-transition markers; tid 1 carries per-gate spans; tid 2
//! GC sweeps (pid = DD-package id); tid 3 governor and watchdog instants;
//! tid `10 + w` the conversion fill sub-span of worker `w`.

use crate::event::Event;
use crate::json::Writer;
use std::collections::BTreeMap;

const TID_PHASES: u64 = 0;
const TID_GATES: u64 = 1;
const TID_GC: u64 = 2;
const TID_GOVERNOR: u64 = 3;
const TID_SPANS: u64 = 4;
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

/// Per-simulator bookkeeping for the derived DD/DMAV phase spans.
#[derive(Default)]
struct SimTimeline {
    start: Option<(f64, &'static str)>,
    conv: Option<(f64, f64)>, // (start ts, dur)
    end: Option<f64>,
    max_ts: f64,
    max_worker: Option<usize>,
    has_spans: bool,
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
/// In addition to one entry per recorded event, the exporter derives
/// top-level phase spans per simulator: with a conversion recorded, a
/// `"dd phase"` span from run start to conversion start and a
/// `"dmav phase"` span from conversion end to run end; without one, a
/// single span covering the whole run, named after its starting phase.
pub fn chrome_trace_json(events: &[Event]) -> String {
    let mut out = String::new();
    let t = &mut Writer::new(&mut out);
    t.begin_obj().key("traceEvents").begin_arr();
    let mut sims: BTreeMap<u64, SimTimeline> = BTreeMap::new();
    let mut gc_pids: Vec<u64> = Vec::new();

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
                if tl.start.is_none() {
                    tl.start = Some((*ts_us, phase));
                }
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
                tl.end = Some(*ts_us);
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
            Event::PhaseTransition {
                sim,
                ts_us,
                at_gate,
                dd_size,
                ewma,
                policy,
            } => {
                sims.entry(*sim).or_default().see(*ts_us);
                instant(t, "phase_transition", *sim, TID_PHASES, *ts_us);
                t.key("at_gate").uint(*at_gate as u64);
                t.key("dd_size").uint(*dd_size as u64);
                t.key("ewma").num(*ewma);
                t.key("policy").string(policy);
                close(t);
            }
            Event::Conversion {
                sim,
                ts_us,
                dur_us,
                at_gate,
                workers,
                scalar_tasks,
            } => {
                let tl = sims.entry(*sim).or_default();
                if tl.conv.is_none() {
                    tl.conv = Some((*ts_us, *dur_us));
                }
                tl.see(*ts_us + *dur_us);
                span(t, "conversion", *sim, TID_PHASES, *ts_us, *dur_us);
                t.key("at_gate").uint(*at_gate as u64);
                t.key("workers").uint(workers.len() as u64);
                t.key("scalar_tasks").uint(*scalar_tasks as u64);
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
                pkg,
                ts_us,
                dur_us,
                v_freed,
                m_freed,
                epoch,
            } => {
                if !gc_pids.contains(pkg) {
                    gc_pids.push(*pkg);
                }
                span(t, "gc_sweep", *pkg, TID_GC, *ts_us, *dur_us);
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
            Event::Span {
                sim,
                ts_us,
                dur_us,
                id,
                parent,
                name,
            } => {
                let tl = sims.entry(*sim).or_default();
                tl.has_spans = true;
                tl.see(*ts_us + *dur_us);
                span(t, name, *sim, TID_SPANS, *ts_us, *dur_us);
                t.key("span").uint(*id);
                t.key("parent").uint(*parent);
                close(t);
            }
        }
    }

    // Derived phase spans + thread-name metadata.
    for (sim, tl) in &sims {
        if let Some((start_ts, start_phase)) = tl.start {
            let end_ts = tl.end.unwrap_or(tl.max_ts);
            match tl.conv {
                Some((conv_ts, conv_dur)) => {
                    span(
                        t,
                        "dd phase",
                        *sim,
                        TID_PHASES,
                        start_ts,
                        conv_ts - start_ts,
                    );
                    close(t);
                    let dmav_start = conv_ts + conv_dur;
                    span(
                        t,
                        "dmav phase",
                        *sim,
                        TID_PHASES,
                        dmav_start,
                        end_ts - dmav_start,
                    );
                    close(t);
                }
                None => {
                    let name = if start_phase == "dmav" {
                        "dmav phase"
                    } else {
                        "dd phase"
                    };
                    span(t, name, *sim, TID_PHASES, start_ts, end_ts - start_ts);
                    close(t);
                }
            }
        }
        thread_name(t, *sim, TID_PHASES, "phases");
        thread_name(t, *sim, TID_GATES, "gates");
        thread_name(t, *sim, TID_GOVERNOR, "governor/watchdog");
        if tl.has_spans {
            thread_name(t, *sim, TID_SPANS, "spans");
        }
        if let Some(max_w) = tl.max_worker {
            for w in 0..=max_w {
                let name = format!("conversion worker {w}");
                thread_name(t, *sim, TID_WORKER_BASE + w as u64, &name);
            }
        }
    }
    for pid in gc_pids {
        thread_name(t, pid, TID_GC, "dd gc");
    }

    t.end_arr().end_obj();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::WorkerFill;

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
            Event::PhaseTransition {
                sim: 3,
                ts_us: 4.0,
                at_gate: 1,
                dd_size: 8,
                ewma: 7.5,
                policy: "ewma",
            },
            Event::Conversion {
                sim: 3,
                ts_us: 4.0,
                dur_us: 6.0,
                at_gate: 1,
                workers: vec![WorkerFill {
                    worker: 0,
                    tasks: 4,
                    amps: 16,
                    dur_us: 5.0,
                }],
                scalar_tasks: 2,
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
        assert!(s.contains("\"name\":\"phase_transition\""));
        assert!(s.contains("\"name\":\"conversion worker 0\""));
        assert!(s.contains("\"plan_hit\":\"hit\""));
        // Worker fill sub-span lands on tid 10.
        assert!(s.contains("\"tid\":10"));
    }

    #[test]
    fn span_events_render_on_their_own_track() {
        let run = crate::span::Span::root();
        let phase = run.child();
        let events = vec![
            Event::Span {
                sim: 5,
                ts_us: 0.0,
                dur_us: 10.0,
                id: run.id,
                parent: run.parent,
                name: "run",
            },
            Event::Span {
                sim: 5,
                ts_us: 0.0,
                dur_us: 4.0,
                id: phase.id,
                parent: phase.parent,
                name: "phase.dd",
            },
        ];
        let s = chrome_trace_json(&events);
        assert!(s.contains("\"name\":\"run\""));
        assert!(s.contains("\"name\":\"phase.dd\""));
        assert!(s.contains(&format!("\"parent\":{}", run.id)));
        assert!(s.contains("\"tid\":4"), "span track is tid 4");
        assert!(s.contains("\"name\":\"spans\""), "span track is named");
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
