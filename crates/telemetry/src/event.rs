//! The structured event taxonomy and its JSONL serialization.
//!
//! Every event carries a `ts_us` timestamp on the process-wide telemetry
//! clock ([`crate::now_us`]) and, where applicable, the id of the emitting
//! simulator or DD package ([`crate::next_id`]). Span-like events
//! (gates, conversions, fusion, GC sweeps) stamp their *start* time plus a
//! `dur_us` duration, which is what the Chrome-trace exporter needs.

use crate::json::Writer;

/// Per-worker share of the parallel DD-to-array conversion (the Figure 4a
/// load-balance breakdown).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkerFill {
    /// Worker (pool thread) index.
    pub worker: usize,
    /// Fill tasks assigned to this worker.
    pub tasks: usize,
    /// Amplitudes (array slots) covered by this worker's shard(s).
    pub amps: usize,
    /// Wall-clock microseconds this worker spent filling.
    pub dur_us: f64,
}

/// One telemetry event.
///
/// The JSONL form (one object per line, [`Event::to_jsonl`]) keys each
/// record with a stable `"type"` discriminant; field names match the Rust
/// field names.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A circuit run started on a simulator.
    RunStart {
        /// Emitting simulator id.
        sim: u64,
        /// Start timestamp (µs on the telemetry clock).
        ts_us: f64,
        /// Qubit count.
        qubits: usize,
        /// Worker threads.
        threads: usize,
        /// Gates the run will apply.
        gates: usize,
        /// Phase the run starts in (`"dd"` / `"dmav"`).
        phase: &'static str,
    },
    /// A circuit run finished (successfully or not).
    RunEnd {
        /// Emitting simulator id.
        sim: u64,
        /// End timestamp (µs).
        ts_us: f64,
        /// Gates applied over the simulator's lifetime.
        gates_applied: usize,
        /// Phase the run ended in.
        phase: &'static str,
        /// Whether the run completed without a typed error.
        ok: bool,
    },
    /// One step of the gate boundary: a gate application, or in the DMAV
    /// phase a fused matrix or a run of in-place matrices.
    Gate {
        /// Emitting simulator id.
        sim: u64,
        /// Step start timestamp (µs).
        ts_us: f64,
        /// Step duration (µs).
        dur_us: f64,
        /// Index of the step's first gate in application order.
        index: usize,
        /// Circuit gates the step applied: 1, the gates a fused matrix
        /// folds, or the length of a run.
        gates: usize,
        /// Phase the gate ran in (`"dd"` / `"dmav"`).
        phase: &'static str,
        /// State-vector DD size after the gate (DD phase only).
        dd_size: Option<usize>,
        /// EWMA monitor value after the gate (DD phase only).
        ewma: Option<f64>,
        /// Whether the DMAV plan cache answered this gate's plan lookup
        /// (DMAV phase only).
        plan_hit: Option<bool>,
        /// True when this record covers a fused matrix rather than an
        /// original circuit gate.
        fused: bool,
    },
    /// The conversion policy fired: the run switches from DD to DMAV.
    PhaseTransition {
        /// Emitting simulator id.
        sim: u64,
        /// Timestamp (µs).
        ts_us: f64,
        /// Gate index after which the transition happens.
        at_gate: usize,
        /// State-vector DD size at the transition.
        dd_size: usize,
        /// EWMA monitor value at the transition.
        ewma: f64,
        /// Conversion policy label (`"ewma"`, `"at-gate"`, ...).
        policy: &'static str,
    },
    /// The parallel DD-to-array conversion, with its load-balance breakdown.
    Conversion {
        /// Emitting simulator id.
        sim: u64,
        /// Conversion start timestamp (µs).
        ts_us: f64,
        /// Total conversion duration (µs).
        dur_us: f64,
        /// Gate index after which the conversion ran.
        at_gate: usize,
        /// Per-worker fill spans.
        workers: Vec<WorkerFill>,
        /// Deferred scalar-multiplication tasks (the Figure 4b optimization).
        scalar_tasks: usize,
    },
    /// A gate-fusion pass (DMAV-aware or k-operations).
    Fusion {
        /// Emitting simulator id.
        sim: u64,
        /// Fusion start timestamp (µs).
        ts_us: f64,
        /// Fusion planning duration (µs).
        dur_us: f64,
        /// Gates fed into the pass.
        gates_in: usize,
        /// Fused matrices produced.
        matrices_out: usize,
    },
    /// A DD garbage-collection sweep.
    GcSweep {
        /// Emitting DD-package id.
        pkg: u64,
        /// Sweep start timestamp (µs).
        ts_us: f64,
        /// Sweep duration (µs).
        dur_us: f64,
        /// Vector nodes freed.
        v_freed: usize,
        /// Matrix nodes freed.
        m_freed: usize,
        /// Package GC epoch after the sweep.
        epoch: u64,
    },
    /// A resource-governor decision (pressure GC, conversion refusal,
    /// budget breach, ...).
    Governor {
        /// Emitting simulator id.
        sim: u64,
        /// Timestamp (µs).
        ts_us: f64,
        /// Decision kind (`"pressure_gc"`, `"conversion_refused"`, ...).
        action: &'static str,
        /// Free-form context.
        detail: String,
    },
    /// A numerical-health watchdog check.
    Watchdog {
        /// Emitting simulator id.
        sim: u64,
        /// Timestamp (µs).
        ts_us: f64,
        /// Observed state 2-norm (NaN when non-finite amplitudes found).
        norm: f64,
        /// Whether the check passed.
        ok: bool,
    },
    /// A checkpoint written or loaded (kind `checkpoint_write` /
    /// `checkpoint_load`, picked by `op`).
    Checkpoint {
        /// Emitting simulator id.
        sim: u64,
        /// Operation start timestamp (µs).
        ts_us: f64,
        /// Operation duration (µs).
        dur_us: f64,
        /// `"write"` or `"load"`.
        op: &'static str,
        /// Checkpoint file size in bytes.
        bytes: u64,
        /// Gate cursor the checkpoint covers (gates already applied).
        gate_cursor: usize,
        /// Phase the state was captured in (`"dd"` / `"dmav"`).
        phase: &'static str,
    },
    /// A fault-injection site fired (kind `fault_injected`).
    Fault {
        /// Timestamp (µs).
        ts_us: f64,
        /// Registered site name (e.g. `alloc.flat`).
        site: String,
        /// Action label (`error`, `panic`, `nan`, `truncate`, `bitflip`).
        action: &'static str,
    },
    /// A completed span: the run → phase → conversion-worker hierarchy,
    /// emitted at span *end* with the start timestamp and duration already
    /// measured. `id`/`parent` come from [`crate::span::Span`], so traces
    /// from concurrent jobs in one daemon stay separable per job.
    Span {
        /// Emitting simulator id.
        sim: u64,
        /// Span start timestamp (µs).
        ts_us: f64,
        /// Span duration (µs).
        dur_us: f64,
        /// Process-unique span id.
        id: u64,
        /// Owning span id ([`crate::span::NO_PARENT`] for run roots).
        parent: u64,
        /// Span name (`"run"`, `"phase.dd"`, `"phase.dmav"`,
        /// `"conversion"`, `"conversion.worker"`).
        name: &'static str,
    },
}

impl Event {
    /// Stable discriminant used as the JSONL `"type"` field.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::RunStart { .. } => "run_start",
            Event::RunEnd { .. } => "run_end",
            Event::Gate { .. } => "gate",
            Event::PhaseTransition { .. } => "phase_transition",
            Event::Conversion { .. } => "conversion",
            Event::Fusion { .. } => "fusion",
            Event::GcSweep { .. } => "gc_sweep",
            Event::Governor { .. } => "governor",
            Event::Watchdog { .. } => "watchdog",
            Event::Checkpoint { op, .. } => {
                if *op == "load" {
                    "checkpoint_load"
                } else {
                    "checkpoint_write"
                }
            }
            Event::Fault { .. } => "fault_injected",
            Event::Span { .. } => "span",
        }
    }

    /// Serializes the event as one JSON object (no trailing newline):
    /// `type` first, then the fields in declaration order.
    pub fn to_jsonl(&self) -> String {
        let mut o = String::with_capacity(160);
        let w = &mut Writer::new(&mut o);
        w.begin_obj().key("type").string(self.kind());
        match self {
            Event::RunStart {
                sim,
                ts_us,
                qubits,
                threads,
                gates,
                phase,
            } => {
                w.key("sim").uint(*sim).key("ts_us").num(*ts_us);
                w.key("qubits").uint(*qubits as u64);
                w.key("threads").uint(*threads as u64);
                w.key("gates").uint(*gates as u64);
                w.key("phase").string(phase);
            }
            Event::RunEnd {
                sim,
                ts_us,
                gates_applied,
                phase,
                ok,
            } => {
                w.key("sim").uint(*sim).key("ts_us").num(*ts_us);
                w.key("gates_applied").uint(*gates_applied as u64);
                w.key("phase").string(phase).key("ok").bool(*ok);
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
                w.key("sim").uint(*sim).key("ts_us").num(*ts_us);
                w.key("dur_us")
                    .num(*dur_us)
                    .key("index")
                    .uint(*index as u64);
                w.key("gates")
                    .uint(*gates as u64)
                    .key("phase")
                    .string(phase);
                if let Some(s) = dd_size {
                    w.key("dd_size").uint(*s as u64);
                }
                if let Some(e) = ewma {
                    w.key("ewma").num(*e);
                }
                if let Some(h) = plan_hit {
                    w.key("plan_hit").bool(*h);
                }
                if *fused {
                    w.key("fused").bool(true);
                }
            }
            Event::PhaseTransition {
                sim,
                ts_us,
                at_gate,
                dd_size,
                ewma,
                policy,
            } => {
                w.key("sim").uint(*sim).key("ts_us").num(*ts_us);
                w.key("at_gate").uint(*at_gate as u64);
                w.key("dd_size").uint(*dd_size as u64);
                w.key("ewma").num(*ewma).key("policy").string(policy);
            }
            Event::Conversion {
                sim,
                ts_us,
                dur_us,
                at_gate,
                workers,
                scalar_tasks,
            } => {
                w.key("sim").uint(*sim).key("ts_us").num(*ts_us);
                w.key("dur_us")
                    .num(*dur_us)
                    .key("at_gate")
                    .uint(*at_gate as u64);
                w.key("scalar_tasks").uint(*scalar_tasks as u64);
                w.key("workers").begin_arr();
                for f in workers {
                    w.begin_obj().key("worker").uint(f.worker as u64);
                    w.key("tasks").uint(f.tasks as u64);
                    w.key("amps").uint(f.amps as u64);
                    w.key("dur_us").num(f.dur_us).end_obj();
                }
                w.end_arr();
            }
            Event::Fusion {
                sim,
                ts_us,
                dur_us,
                gates_in,
                matrices_out,
            } => {
                w.key("sim").uint(*sim).key("ts_us").num(*ts_us);
                w.key("dur_us").num(*dur_us);
                w.key("gates_in").uint(*gates_in as u64);
                w.key("matrices_out").uint(*matrices_out as u64);
            }
            Event::GcSweep {
                pkg,
                ts_us,
                dur_us,
                v_freed,
                m_freed,
                epoch,
            } => {
                w.key("pkg").uint(*pkg).key("ts_us").num(*ts_us);
                w.key("dur_us").num(*dur_us);
                w.key("v_freed").uint(*v_freed as u64);
                w.key("m_freed").uint(*m_freed as u64);
                w.key("epoch").uint(*epoch);
            }
            Event::Governor {
                sim,
                ts_us,
                action,
                detail,
            } => {
                w.key("sim").uint(*sim).key("ts_us").num(*ts_us);
                w.key("action").string(action).key("detail").string(detail);
            }
            Event::Watchdog {
                sim,
                ts_us,
                norm,
                ok,
            } => {
                w.key("sim").uint(*sim).key("ts_us").num(*ts_us);
                w.key("norm").num(*norm).key("ok").bool(*ok);
            }
            Event::Checkpoint {
                sim,
                ts_us,
                dur_us,
                op: _,
                bytes,
                gate_cursor,
                phase,
            } => {
                w.key("sim").uint(*sim).key("ts_us").num(*ts_us);
                w.key("dur_us").num(*dur_us).key("bytes").uint(*bytes);
                w.key("gate_cursor").uint(*gate_cursor as u64);
                w.key("phase").string(phase);
            }
            Event::Fault {
                ts_us,
                site,
                action,
            } => {
                w.key("ts_us").num(*ts_us).key("site").string(site);
                w.key("action").string(action);
            }
            Event::Span {
                sim,
                ts_us,
                dur_us,
                id,
                parent,
                name,
            } => {
                w.key("sim").uint(*sim).key("ts_us").num(*ts_us);
                w.key("dur_us").num(*dur_us).key("id").uint(*id);
                w.key("parent").uint(*parent).key("name").string(name);
            }
        }
        w.end_obj();
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_event_jsonl_shape() {
        let e = Event::Gate {
            sim: 7,
            ts_us: 12.5,
            dur_us: 3.25,
            index: 42,
            gates: 1,
            phase: "dd",
            dd_size: Some(128),
            ewma: Some(96.5),
            plan_hit: None,
            fused: false,
        };
        let s = e.to_jsonl();
        assert!(s.starts_with("{\"type\":\"gate\""), "{s}");
        assert!(s.contains("\"sim\":7"));
        assert!(s.contains("\"index\":42"));
        assert!(s.contains("\"gates\":1"));
        assert!(s.contains("\"dd_size\":128"));
        assert!(s.contains("\"ewma\":96.5"));
        assert!(!s.contains("plan_hit"), "None fields must be omitted");
        assert!(!s.contains("fused"), "non-fused gates omit the flag");
        assert!(s.ends_with('}'));
    }

    #[test]
    fn conversion_event_serializes_workers() {
        let e = Event::Conversion {
            sim: 1,
            ts_us: 0.0,
            dur_us: 100.0,
            at_gate: 9,
            workers: vec![
                WorkerFill {
                    worker: 0,
                    tasks: 3,
                    amps: 4096,
                    dur_us: 50.0,
                },
                WorkerFill {
                    worker: 1,
                    tasks: 2,
                    amps: 4096,
                    dur_us: 48.0,
                },
            ],
            scalar_tasks: 1,
        };
        let s = e.to_jsonl();
        assert!(s.contains("\"workers\":[{\"worker\":0,\"tasks\":3,\"amps\":4096,\"dur_us\":50}"));
        assert!(s.contains("\"scalar_tasks\":1"));
    }

    #[test]
    fn checkpoint_and_fault_events_jsonl_shape() {
        let w = Event::Checkpoint {
            sim: 2,
            ts_us: 10.0,
            dur_us: 250.0,
            op: "write",
            bytes: 4096,
            gate_cursor: 17,
            phase: "dmav",
        };
        let s = w.to_jsonl();
        assert!(s.starts_with("{\"type\":\"checkpoint_write\""), "{s}");
        assert!(s.contains("\"bytes\":4096"));
        assert!(s.contains("\"gate_cursor\":17"));
        assert!(s.contains("\"phase\":\"dmav\""));

        let l = Event::Checkpoint {
            sim: 2,
            ts_us: 10.0,
            dur_us: 250.0,
            op: "load",
            bytes: 4096,
            gate_cursor: 17,
            phase: "dmav",
        };
        assert!(l.to_jsonl().starts_with("{\"type\":\"checkpoint_load\""));

        let f = Event::Fault {
            ts_us: 1.0,
            site: "alloc.flat".into(),
            action: "error",
        };
        let s = f.to_jsonl();
        assert!(s.starts_with("{\"type\":\"fault_injected\""), "{s}");
        assert!(s.contains("\"site\":\"alloc.flat\""));
        assert!(s.contains("\"action\":\"error\""));
    }

    #[test]
    fn span_event_jsonl_shape() {
        let e = Event::Span {
            sim: 3,
            ts_us: 5.0,
            dur_us: 20.0,
            id: 101,
            parent: 100,
            name: "phase.dd",
        };
        let s = e.to_jsonl();
        assert!(s.starts_with("{\"type\":\"span\""), "{s}");
        assert!(s.contains("\"id\":101"));
        assert!(s.contains("\"parent\":100"));
        assert!(s.contains("\"name\":\"phase.dd\""));
    }

    #[test]
    fn detail_strings_are_escaped() {
        let e = Event::Governor {
            sim: 1,
            ts_us: 0.0,
            action: "breach",
            detail: "say \"no\"\n".into(),
        };
        assert!(e.to_jsonl().contains("say \\\"no\\\"\\n"));
    }
}
