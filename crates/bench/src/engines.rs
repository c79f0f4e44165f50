//! Engine runners with soft timeouts and memory accounting.
//!
//! The paper terminates runs after 24 hours; at harness scale the default
//! budget is seconds. Timeouts are *soft*: checked between gates, so a run
//! reports how far it got (the Table-1 `> 24 h` rows become `TimedOut`
//! results with a lower-bound runtime).

use flatdd::{FlatDdConfig, FlatDdSimulator, FusionPolicy};
use qarray::ArraySimulator;
use qcircuit::Circuit;
use qdd::DdSimulator;
use std::time::Instant;

/// Whether the run finished within budget.
///
/// (Named `RunStatus` to avoid clashing with [`flatdd::RunOutcome`], the
/// engine's own progress snapshot.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunStatus {
    /// All gates applied.
    Completed,
    /// Stopped at the soft timeout.
    TimedOut,
    /// The engine returned a typed error (budget breach, divergence, ...).
    Failed,
}

/// One engine measurement.
#[derive(Clone, Copy, Debug)]
pub struct EngineResult {
    /// Wall-clock seconds (lower bound when timed out).
    pub seconds: f64,
    /// Completion status.
    pub outcome: RunStatus,
    /// Gates applied before stopping.
    pub gates_done: usize,
    /// Engine data-structure bytes (capacity-based, i.e. high-water).
    pub memory_bytes: usize,
    /// Gate index of the DD-to-DMAV conversion (FlatDD only).
    pub converted_at: Option<usize>,
    /// Seconds the DD-to-array conversion took (FlatDD only; 0 otherwise).
    pub conversion_seconds: f64,
}

impl EngineResult {
    /// Runtime string: seconds, or `> s` when timed out (Table-1 style).
    pub fn runtime_str(&self) -> String {
        match self.outcome {
            RunStatus::Completed => format!("{:.3}", self.seconds),
            RunStatus::TimedOut => format!("> {:.0}", self.seconds),
            RunStatus::Failed => format!("failed @ {:.3}", self.seconds),
        }
    }
}

/// Runs the DDSIM-equivalent engine (single-threaded, per the paper).
pub fn run_ddsim(circuit: &Circuit, timeout_secs: f64) -> EngineResult {
    let mut sim = DdSimulator::new(circuit.num_qubits());
    let start = Instant::now();
    let mut done = 0;
    let mut outcome = RunStatus::Completed;
    for g in circuit.iter() {
        sim.apply(g);
        done += 1;
        if start.elapsed().as_secs_f64() > timeout_secs {
            outcome = RunStatus::TimedOut;
            break;
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    let st = sim.package().stats();
    EngineResult {
        seconds,
        outcome,
        gates_done: done,
        memory_bytes: st.memory_bytes,
        converted_at: None,
        conversion_seconds: 0.0,
    }
}

/// Runs the Quantum++-equivalent array engine.
pub fn run_array(circuit: &Circuit, threads: usize, timeout_secs: f64) -> EngineResult {
    let mut sim = ArraySimulator::with_threads(circuit.num_qubits(), threads);
    let start = Instant::now();
    let mut done = 0;
    let mut outcome = RunStatus::Completed;
    for g in circuit.iter() {
        sim.apply(g);
        done += 1;
        if start.elapsed().as_secs_f64() > timeout_secs {
            outcome = RunStatus::TimedOut;
            break;
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    let mem = std::mem::size_of_val(sim.state());
    EngineResult {
        seconds,
        outcome,
        gates_done: done,
        memory_bytes: mem,
        converted_at: None,
        conversion_seconds: 0.0,
    }
}

/// Runs FlatDD. With fusion enabled the fused tail executes as one block
/// (the timeout is still honored up to the conversion point).
pub fn run_flatdd(circuit: &Circuit, cfg: FlatDdConfig, timeout_secs: f64) -> EngineResult {
    let mut sim = FlatDdSimulator::new(circuit.num_qubits(), cfg);
    let start = Instant::now();
    let mut done = 0;
    let mut outcome = RunStatus::Completed;
    if cfg.fusion == FusionPolicy::None {
        for g in circuit.iter() {
            if sim.apply(g).is_err() {
                outcome = RunStatus::Failed;
                break;
            }
            done += 1;
            if start.elapsed().as_secs_f64() > timeout_secs {
                outcome = RunStatus::TimedOut;
                break;
            }
        }
    } else {
        match sim.run(circuit) {
            Ok(out) => done = out.gates_applied,
            Err(e) => {
                outcome = RunStatus::Failed;
                done = e.partial_outcome().map_or(0, |p| p.gates_applied);
            }
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    let stats = sim.stats();
    sim.publish_metrics();
    EngineResult {
        seconds,
        outcome,
        gates_done: done,
        memory_bytes: sim.memory_bytes(),
        converted_at: stats.converted_at,
        conversion_seconds: stats.conversion_seconds,
    }
}

/// Repeats a measurement `reps` times and keeps the fastest (completed runs
/// preferred over timeouts).
pub fn best_of<F: FnMut() -> EngineResult>(reps: usize, mut f: F) -> EngineResult {
    let mut best: Option<EngineResult> = None;
    for _ in 0..reps.max(1) {
        let r = f();
        best = Some(match best {
            None => r,
            Some(b) => {
                let b_to = b.outcome == RunStatus::TimedOut;
                let r_to = r.outcome == RunStatus::TimedOut;
                if (b_to && !r_to) || (b_to == r_to && r.seconds < b.seconds) {
                    r
                } else {
                    b
                }
            }
        });
    }
    best.unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::generators;

    #[test]
    fn engines_complete_small_workloads() {
        let c = generators::ghz(8);
        let dd = run_ddsim(&c, 30.0);
        assert_eq!(dd.outcome, RunStatus::Completed);
        assert_eq!(dd.gates_done, c.num_gates());
        let ar = run_array(&c, 2, 30.0);
        assert_eq!(ar.outcome, RunStatus::Completed);
        assert!(ar.memory_bytes >= (1 << 8) * 16);
        let fd = run_flatdd(
            &c,
            FlatDdConfig {
                threads: 2,
                ..Default::default()
            },
            30.0,
        );
        assert_eq!(fd.outcome, RunStatus::Completed);
        assert!(fd.converted_at.is_none(), "GHZ must not convert");
    }

    #[test]
    fn timeout_reports_partial_progress() {
        let c = generators::dnn(12, 8, 3);
        let r = run_ddsim(&c, 0.000_001);
        assert_eq!(r.outcome, RunStatus::TimedOut);
        assert!(r.gates_done < c.num_gates());
        assert!(r.runtime_str().starts_with('>'));
    }

    #[test]
    fn best_of_prefers_completed() {
        let mut calls = 0;
        let r = best_of(3, || {
            calls += 1;
            EngineResult {
                seconds: calls as f64,
                outcome: if calls == 2 {
                    RunStatus::Completed
                } else {
                    RunStatus::TimedOut
                },
                gates_done: 0,
                memory_bytes: 0,
                converted_at: None,
                conversion_seconds: 0.0,
            }
        });
        assert_eq!(r.outcome, RunStatus::Completed);
        assert_eq!(r.seconds, 2.0);
    }
}
