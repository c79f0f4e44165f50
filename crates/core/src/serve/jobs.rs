//! Job model and spool persistence for the serving daemon.
//!
//! A **job** is one simulation request: a circuit (generator spec or
//! inline QASM), a seed, and per-job resource limits. Every job owns a
//! durable record in the **spool directory**:
//!
//! ```text
//! <spool>/job-<id>.json    the spec + last observed state (atomic rename)
//! <spool>/job-<id>.ckpt    FDCP1 checkpoint (periodic / preemption / drain)
//! <spool>/serve.port       the bound TCP port, written once at startup
//! ```
//!
//! The record is rewritten on every state transition, so a daemon killed
//! at any instant can rebuild its queue on restart: `queued`, `running`,
//! and `preempted` records are re-admitted (resuming from the checkpoint
//! when one is installed and loadable), terminal records are served as
//! history. This is the restart-recovery contract exercised by
//! `tests/serve_recovery.rs`.

use super::json::{self, Json};
use crate::error::FlatDdError;
use std::path::{Path, PathBuf};

/// Default priority for jobs that do not ask for one.
pub const DEFAULT_PRIORITY: i64 = 0;

/// What a client asked the daemon to run.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Generator spec (`ghz:12`, `supremacy:16,8`, ...). Ignored when
    /// `qasm` is set.
    pub circuit: String,
    /// Inline OpenQASM 2.0 source, overriding `circuit`.
    pub qasm: Option<String>,
    /// Generator / sampling seed.
    pub seed: u64,
    /// Worker threads for this job's simulator.
    pub threads: usize,
    /// Flat-phase state shards (`None` = the daemon default, which itself
    /// defaults to auto = one shard per worker thread).
    pub flat_shards: Option<usize>,
    /// Scheduling priority: higher runs first and may preempt lower.
    pub priority: i64,
    /// Per-job wall-clock budget.
    pub deadline_secs: Option<f64>,
    /// Per-job engine memory budget (also the admission estimate).
    pub memory_budget_mb: Option<u64>,
    /// Periodic checkpoint interval in gates (`None` = breach/drain only).
    pub checkpoint_every: Option<usize>,
    /// Force DD-to-array conversion at this gate index (`None` = the
    /// default EWMA trigger). Lets chaos tests drive the conversion path
    /// deterministically.
    pub convert_at_gate: Option<usize>,
    /// Scoped fault spec (`FLATDD_FAULTS` grammar) armed on this job's
    /// context only — chaos testing one tenant must not touch the others.
    pub faults: Option<String>,
    /// Arms the approximation rung for this job: on an unrelievable memory
    /// breach, truncate the DD state as long as the cumulative fidelity
    /// stays at or above this floor (in `(0, 1]`; `None` = exact, fatal
    /// behavior). Results produced this way are marked `approximate`.
    pub approx_fidelity_floor: Option<f64>,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            circuit: String::new(),
            qasm: None,
            seed: 42,
            threads: 2,
            flat_shards: None,
            priority: DEFAULT_PRIORITY,
            deadline_secs: None,
            memory_budget_mb: None,
            checkpoint_every: None,
            convert_at_gate: None,
            faults: None,
            approx_fidelity_floor: None,
        }
    }
}

impl JobSpec {
    /// Parses a client-submitted JSON body, rejecting unknown fields (a
    /// typo'd limit silently ignored is a limit not applied).
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        let obj = match v {
            Json::Obj(m) => m,
            _ => return Err("job spec must be a JSON object".into()),
        };
        let mut spec = JobSpec::default();
        for (k, v) in obj {
            match k.as_str() {
                "circuit" => {
                    spec.circuit = v.as_str().ok_or("`circuit` must be a string")?.to_string()
                }
                "qasm" => {
                    spec.qasm = Some(v.as_str().ok_or("`qasm` must be a string")?.to_string())
                }
                "seed" => spec.seed = v.as_u64().ok_or("`seed` must be a non-negative integer")?,
                "threads" => {
                    let t = v.as_u64().ok_or("`threads` must be a positive integer")?;
                    if t == 0 {
                        return Err("`threads` must be at least 1".into());
                    }
                    spec.threads = t as usize;
                }
                // Retired: the DD phase runs on one thread. Still validated
                // and then dropped, so an earlier daemon's spool loads.
                "dd_threads" => {
                    let t = v
                        .as_u64()
                        .ok_or("`dd_threads` must be a positive integer")?;
                    if t == 0 {
                        return Err("`dd_threads` must be at least 1".into());
                    }
                }
                "flat_shards" => {
                    let s = v
                        .as_u64()
                        .ok_or("`flat_shards` must be a positive integer")?;
                    if s == 0 {
                        return Err("`flat_shards` must be at least 1".into());
                    }
                    spec.flat_shards = Some(s as usize);
                }
                "priority" => {
                    spec.priority = v.as_f64().ok_or("`priority` must be a number")? as i64
                }
                "deadline_secs" => {
                    let s = v.as_f64().ok_or("`deadline_secs` must be a number")?;
                    if !s.is_finite() || s <= 0.0 {
                        return Err("`deadline_secs` must be a positive number".into());
                    }
                    spec.deadline_secs = Some(s);
                }
                "memory_budget_mb" => {
                    spec.memory_budget_mb =
                        Some(v.as_u64().ok_or("`memory_budget_mb` must be an integer")?)
                }
                "checkpoint_every" => {
                    let g = v.as_u64().ok_or("`checkpoint_every` must be an integer")?;
                    if g == 0 {
                        return Err("`checkpoint_every` must be at least 1 gate".into());
                    }
                    spec.checkpoint_every = Some(g as usize);
                }
                "convert_at_gate" => {
                    spec.convert_at_gate =
                        Some(v.as_u64().ok_or("`convert_at_gate` must be an integer")? as usize)
                }
                "faults" => {
                    spec.faults = Some(v.as_str().ok_or("`faults` must be a string")?.to_string())
                }
                "approx_fidelity_floor" => {
                    let f = v
                        .as_f64()
                        .ok_or("`approx_fidelity_floor` must be a number")?;
                    if !f.is_finite() || f <= 0.0 || f > 1.0 {
                        return Err("`approx_fidelity_floor` must be in (0, 1]".into());
                    }
                    spec.approx_fidelity_floor = Some(f);
                }
                other => return Err(format!("unknown job field `{other}`")),
            }
        }
        if spec.circuit.is_empty() && spec.qasm.is_none() {
            return Err("job spec needs `circuit` or `qasm`".into());
        }
        Ok(spec)
    }

    /// Serializes the spec (inverse of [`JobSpec::from_json`]).
    pub fn to_json(&self) -> Json {
        present(vec![
            ("circuit", Some(self.circuit.as_str().into())),
            ("qasm", self.qasm.as_deref().map(Json::from)),
            ("seed", Some(self.seed.into())),
            ("threads", Some(self.threads.into())),
            ("flat_shards", self.flat_shards.map(Json::from)),
            ("priority", Some(Json::Num(self.priority as f64))),
            ("deadline_secs", self.deadline_secs.map(Json::Num)),
            ("memory_budget_mb", self.memory_budget_mb.map(Json::from)),
            ("checkpoint_every", self.checkpoint_every.map(Json::from)),
            ("convert_at_gate", self.convert_at_gate.map(Json::from)),
            ("faults", self.faults.as_deref().map(Json::from)),
            (
                "approx_fidelity_floor",
                self.approx_fidelity_floor.map(Json::Num),
            ),
        ])
    }
}

/// An object of the pairs whose value is present.
fn present(pairs: Vec<(&str, Option<Json>)>) -> Json {
    Json::Obj(
        pairs
            .into_iter()
            .filter_map(|(k, v)| Some((k.to_string(), v?)))
            .collect(),
    )
}

/// Lifecycle of one job. `Preempted` is non-terminal: the job was
/// checkpointed to make room (or for a drain) and waits in the queue.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for a worker and an admission slot.
    Queued,
    /// A worker is driving its simulator right now.
    Running,
    /// Checkpointed and re-queued (preemption or daemon drain).
    Preempted,
    /// Finished successfully.
    Done,
    /// Finished with a typed error; the exit code is recorded.
    Failed,
    /// Cancelled by the client.
    Cancelled,
}

impl JobState {
    /// Stable wire label.
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Preempted => "preempted",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Parses a wire label.
    pub fn from_label(s: &str) -> Option<JobState> {
        Some(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "preempted" => JobState::Preempted,
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            "cancelled" => JobState::Cancelled,
            _ => return None,
        })
    }

    /// True once the job can never run again.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// What a finished job reports back.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// Gates applied (equals the circuit total on success).
    pub gates_applied: usize,
    /// Total gates in the circuit.
    pub total_gates: usize,
    /// Final simulation phase label (`dd` / `dmav`).
    pub phase: String,
    /// Wall-clock seconds spent simulating (all attempts).
    pub elapsed_secs: f64,
    /// `true` when the approximation rung truncated the state: the result
    /// is an approximate state with [`Self::fidelity`] possibly below 1.
    pub approximate: bool,
    /// Cumulative fidelity product achieved (`1.0` for exact runs).
    pub fidelity: f64,
    /// The top amplitudes by probability: `(basis index, re, im)`,
    /// descending. Full `f64` precision survives the JSON round trip, so
    /// recovery tests can compare against an uninterrupted run at 1e-12.
    pub heavy: Vec<(usize, f64, f64)>,
    /// `FlatDdStats::to_json` payload.
    pub stats_json: String,
    /// The job's scoped metrics registry, dumped as JSON.
    pub metrics_json: String,
}

impl Default for JobResult {
    fn default() -> Self {
        JobResult {
            gates_applied: 0,
            total_gates: 0,
            phase: String::new(),
            elapsed_secs: 0.0,
            approximate: false,
            fidelity: 1.0,
            heavy: Vec::new(),
            stats_json: String::new(),
            metrics_json: String::new(),
        }
    }
}

/// The durable record: spec + state + outcome, one JSON file per job.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// Daemon-assigned id (monotonic, persisted across restarts).
    pub id: u64,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Current lifecycle state.
    pub state: JobState,
    /// Exit code for `Failed` (the `FlatDdError::exit_code` table).
    pub exit_code: Option<i32>,
    /// Human-readable error for `Failed`.
    pub error: Option<String>,
    /// Transient-failure retries consumed so far.
    pub retries: u32,
    /// Times this job was preempted or drained mid-run.
    pub preemptions: u32,
    /// Worker panics this job has caused so far. Persisted so a crash-loop
    /// — a job that keeps panicking after checkpoint resumes, across
    /// daemon restarts — is bounded: past `retry_max` attempts the job is
    /// marked failed-poisoned instead of being retried forever.
    pub panics: u32,
    /// Result payload for `Done`.
    pub result: Option<JobResult>,
}

impl JobRecord {
    /// A fresh queued record.
    pub fn new(id: u64, spec: JobSpec) -> Self {
        JobRecord {
            id,
            spec,
            state: JobState::Queued,
            exit_code: None,
            error: None,
            retries: 0,
            preemptions: 0,
            panics: 0,
            result: None,
        }
    }

    /// The record file for job `id` in `spool`.
    pub fn path(spool: &Path, id: u64) -> PathBuf {
        spool.join(format!("job-{id}.json"))
    }

    /// The checkpoint file for job `id` in `spool`.
    pub fn ckpt_path(spool: &Path, id: u64) -> PathBuf {
        spool.join(format!("job-{id}.ckpt"))
    }

    /// Full status object served on `GET /jobs/{id}` (also the persisted
    /// on-disk form — one schema, one parser).
    pub fn to_json(&self) -> Json {
        let result = self.result.as_ref().map(|r| {
            let heavy = r.heavy.iter().map(|&(i, re, im)| {
                Json::obj(vec![
                    ("index", i.into()),
                    ("re", re.into()),
                    ("im", im.into()),
                ])
            });
            Json::obj(vec![
                ("gates_applied", r.gates_applied.into()),
                ("total_gates", r.total_gates.into()),
                ("phase", r.phase.as_str().into()),
                ("elapsed_secs", r.elapsed_secs.into()),
                ("approximate", r.approximate.into()),
                ("fidelity", r.fidelity.into()),
                ("heavy", Json::Arr(heavy.collect())),
                ("stats", raw_or_null(&r.stats_json)),
                ("metrics", raw_or_null(&r.metrics_json)),
            ])
        });
        present(vec![
            ("id", Some(self.id.into())),
            ("state", Some(self.state.label().into())),
            ("spec", Some(self.spec.to_json())),
            ("retries", Some(self.retries.into())),
            ("preemptions", Some(self.preemptions.into())),
            ("panics", Some(self.panics.into())),
            ("exit_code", self.exit_code.map(Json::from)),
            ("error", self.error.as_deref().map(Json::from)),
            ("result", result),
        ])
    }

    /// Parses a persisted record (tolerates `result` payloads from newer
    /// versions by ignoring fields it does not know).
    pub fn from_json(v: &Json) -> Result<JobRecord, String> {
        let id = v
            .get("id")
            .and_then(Json::as_u64)
            .ok_or("record missing `id`")?;
        let state = v
            .get("state")
            .and_then(Json::as_str)
            .and_then(JobState::from_label)
            .ok_or("record missing `state`")?;
        let spec = JobSpec::from_json(v.get("spec").ok_or("record missing `spec`")?)?;
        let mut rec = JobRecord::new(id, spec);
        rec.state = state;
        rec.retries = v.get("retries").and_then(Json::as_u64).unwrap_or(0) as u32;
        rec.preemptions = v.get("preemptions").and_then(Json::as_u64).unwrap_or(0) as u32;
        // Absent in records written by older daemons: default to 0.
        rec.panics = v.get("panics").and_then(Json::as_u64).unwrap_or(0) as u32;
        rec.exit_code = v.get("exit_code").and_then(Json::as_f64).map(|c| c as i32);
        rec.error = v.get("error").and_then(Json::as_str).map(|s| s.to_string());
        if let Some(r) = v.get("result") {
            let mut result = JobResult {
                gates_applied: r.get("gates_applied").and_then(Json::as_u64).unwrap_or(0) as usize,
                total_gates: r.get("total_gates").and_then(Json::as_u64).unwrap_or(0) as usize,
                phase: r
                    .get("phase")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                elapsed_secs: r.get("elapsed_secs").and_then(Json::as_f64).unwrap_or(0.0),
                approximate: r
                    .get("approximate")
                    .and_then(Json::as_bool)
                    .unwrap_or(false),
                fidelity: r.get("fidelity").and_then(Json::as_f64).unwrap_or(1.0),
                heavy: Vec::new(),
                stats_json: r.get("stats").map(|s| s.to_string()).unwrap_or_default(),
                metrics_json: r.get("metrics").map(|s| s.to_string()).unwrap_or_default(),
            };
            if let Some(Json::Arr(items)) = r.get("heavy") {
                for it in items {
                    let idx = it.get("index").and_then(Json::as_u64).unwrap_or(0) as usize;
                    let re = it.get("re").and_then(Json::as_f64).unwrap_or(0.0);
                    let im = it.get("im").and_then(Json::as_f64).unwrap_or(0.0);
                    result.heavy.push((idx, re, im));
                }
            }
            rec.result = Some(result);
        }
        Ok(rec)
    }

    /// Durably writes the record: tmp sibling, then atomic rename — the
    /// same install discipline as FDCP1 checkpoints, so a crash leaves
    /// either the old record or the new one, never a torn file.
    ///
    /// Probes the `spool.write` fault site (process-global registry —
    /// record persistence is a daemon-level concern, not scoped to any one
    /// job's chaos spec): when armed, the write reports an IO error and
    /// the on-disk record is left as it was; the `panic` action dies here
    /// instead, which under the scheduler is a panic holding its lock.
    pub fn persist(&self, spool: &Path) -> Result<(), FlatDdError> {
        if let Some(action) = crate::faults::fires(crate::faults::SITE_SPOOL_WRITE) {
            if action == crate::faults::FaultAction::Panic {
                panic!("fault injection: crash persisting job record {}", self.id);
            }
            return Err(FlatDdError::Io(std::io::Error::other(format!(
                "injected IO error persisting job record {} (fault site {})",
                self.id,
                crate::faults::SITE_SPOOL_WRITE
            ))));
        }
        let path = Self::path(spool, self.id);
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, format!("{}\n", self.to_json()))?;
        std::fs::rename(&tmp, &path)?;
        Ok(())
    }
}

fn raw_or_null(s: &str) -> Json {
    if s.is_empty() {
        Json::Null
    } else {
        Json::Raw(s.to_string())
    }
}

/// Outcome of the startup spool fsck: the loadable records plus how many
/// corrupt files were moved aside.
#[derive(Debug, Default)]
pub struct SpoolLoad {
    /// Every loadable record, sorted by id.
    pub records: Vec<JobRecord>,
    /// Corrupt/unparseable record files quarantined to
    /// `<spool>/quarantine/` this pass.
    pub quarantined: usize,
}

/// Loads every `job-*.json` record in `spool`, sorted by id — the daemon's
/// startup fsck. A corrupt or unparseable record is *quarantined*: moved
/// to `<spool>/quarantine/` with one log line, so recovery continues and
/// the damaged file stays available for post-mortem instead of either
/// taking the daemon down or being silently re-read (and re-skipped) on
/// every restart.
pub fn load_spool(spool: &Path) -> SpoolLoad {
    let mut out = SpoolLoad::default();
    let entries = match std::fs::read_dir(spool) {
        Ok(e) => e,
        Err(_) => return out,
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy().to_string();
        if !name.starts_with("job-") || !name.ends_with(".json") {
            continue;
        }
        let path = entry.path();
        let parsed = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|src| json::parse(&src))
            .and_then(|v| JobRecord::from_json(&v));
        match parsed {
            Ok(rec) => out.records.push(rec),
            Err(e) => {
                let qdir = spool.join("quarantine");
                let moved = std::fs::create_dir_all(&qdir)
                    .and_then(|()| std::fs::rename(&path, qdir.join(&name)));
                match moved {
                    Ok(()) => {
                        out.quarantined += 1;
                        eprintln!(
                            "[flatdd-serve] quarantined corrupt record {} -> quarantine/{name}: {e}",
                            path.display()
                        );
                    }
                    // Quarantine failing (e.g. read-only spool) degrades to
                    // the old skip behavior — recovery still proceeds.
                    Err(me) => eprintln!(
                        "[flatdd-serve] skipping {} ({e}; quarantine failed: {me})",
                        path.display()
                    ),
                }
            }
        }
    }
    out.records.sort_by_key(|r| r.id);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            circuit: "ghz:6".into(),
            seed: 7,
            threads: 1,
            flat_shards: Some(8),
            priority: 3,
            deadline_secs: Some(2.5),
            memory_budget_mb: Some(64),
            checkpoint_every: Some(10),
            convert_at_gate: Some(12),
            faults: Some("state.nan:nan:once".into()),
            approx_fidelity_floor: Some(0.95),
            ..JobSpec::default()
        }
    }

    #[test]
    fn spec_roundtrips() {
        let s = spec();
        let back = JobSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn spec_rejects_unknown_and_invalid_fields() {
        assert!(
            JobSpec::from_json(&json::parse(r#"{"circuit":"ghz:4","turbo":1}"#).unwrap())
                .unwrap_err()
                .contains("unknown job field")
        );
        assert!(
            JobSpec::from_json(&json::parse(r#"{"circuit":"ghz:4","threads":0}"#).unwrap())
                .is_err()
        );
        assert!(JobSpec::from_json(&json::parse(r#"{"seed":1}"#).unwrap()).is_err());
        assert!(
            JobSpec::from_json(&json::parse(r#"{"circuit":"ghz:4","dd_threads":0}"#).unwrap())
                .is_err()
        );
        assert!(JobSpec::from_json(
            &json::parse(r#"{"circuit":"ghz:4","flat_shards":0}"#).unwrap()
        )
        .is_err());
        for bad in ["0", "-0.5", "1.5", "\"x\""] {
            let src = format!(r#"{{"circuit":"ghz:4","approx_fidelity_floor":{bad}}}"#);
            assert!(
                JobSpec::from_json(&json::parse(&src).unwrap()).is_err(),
                "floor {bad} must be rejected"
            );
        }
        let ok = JobSpec::from_json(
            &json::parse(r#"{"circuit":"ghz:4","approx_fidelity_floor":0.9}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(ok.approx_fidelity_floor, Some(0.9));
    }

    #[test]
    fn record_persist_and_reload() {
        let dir = std::env::temp_dir().join(format!("flatdd-jobs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut rec = JobRecord::new(12, spec());
        rec.state = JobState::Done;
        rec.retries = 1;
        rec.panics = 2;
        rec.result = Some(JobResult {
            gates_applied: 11,
            total_gates: 11,
            phase: "dmav".into(),
            elapsed_secs: 0.25,
            approximate: true,
            fidelity: 0.987654321098765,
            heavy: vec![(0, std::f64::consts::FRAC_1_SQRT_2, 0.0), (63, -0.5, 0.25)],
            stats_json: r#"{"gates_dd":5}"#.into(),
            metrics_json: String::new(),
        });
        rec.persist(&dir).unwrap();
        let loaded = load_spool(&dir);
        assert_eq!(loaded.quarantined, 0);
        let got = loaded.records.iter().find(|r| r.id == 12).unwrap();
        assert_eq!(got.state, JobState::Done);
        assert_eq!(got.spec, rec.spec);
        assert_eq!(got.panics, 2, "panic count must survive restarts");
        let r = got.result.as_ref().unwrap();
        assert_eq!(
            r.heavy[0].1,
            std::f64::consts::FRAC_1_SQRT_2,
            "f64 must roundtrip"
        );
        assert_eq!(r.heavy[1].0, 63);
        assert!(r.approximate);
        assert_eq!(r.fidelity, 0.987654321098765, "fidelity must roundtrip");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_records_are_quarantined_not_fatal() {
        let dir = std::env::temp_dir().join(format!("flatdd-fsck-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rec = JobRecord::new(1, spec());
        rec.persist(&dir).unwrap();
        std::fs::write(dir.join("job-2.json"), "{ not json at all").unwrap();
        // Nested deep enough to overflow a recursive parser's stack.
        std::fs::write(dir.join("job-4.json"), "[".repeat(1 << 20)).unwrap();
        std::fs::write(dir.join("job-3.json"), r#"{"id":3}"#).unwrap(); // no state/spec
        let loaded = load_spool(&dir);
        assert_eq!(loaded.records.len(), 1);
        assert_eq!(loaded.records[0].id, 1);
        assert_eq!(loaded.quarantined, 3);
        for name in ["job-2.json", "job-3.json", "job-4.json"] {
            assert!(dir.join("quarantine").join(name).exists(), "{name}");
        }
        assert!(!dir.join("job-2.json").exists(), "original must be moved");
        // A second pass finds a clean spool: quarantine is idempotent.
        let again = load_spool(&dir);
        assert_eq!(again.records.len(), 1);
        assert_eq!(again.quarantined, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
