//! Daemon restart recovery: a SIGKILL'd daemon must finish its in-flight
//! jobs after a restart from the same spool, with amplitudes matching an
//! uninterrupted run to 1e-12; a SIGTERM'd daemon must drain gracefully
//! (checkpoint, persist, exit 0) and hand the parked job to the next
//! instance.

#![cfg(unix)]

#[path = "serve_util/mod.rs"]
mod util;

use flatdd::{FlatDdConfig, FlatDdSimulator};
use qcircuit::generators;
use std::path::Path;
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use util::*;

const CIRCUIT: &str = "supremacy:19,14";
const SEED: u64 = 9;
const SUBMIT: &str = r#"{"circuit":"supremacy:19,14","seed":9,"threads":2,"checkpoint_every":10}"#;

/// Top-8 amplitudes of the uninterrupted run, computed in-process with
/// the same selection rule the daemon uses.
fn reference_heavy() -> &'static [(usize, f64, f64)] {
    static WANT: OnceLock<Vec<(usize, f64, f64)>> = OnceLock::new();
    WANT.get_or_init(|| {
        let c = generators::from_spec(CIRCUIT, SEED).unwrap();
        let cfg = FlatDdConfig {
            threads: 2,
            ..Default::default()
        };
        let mut sim = FlatDdSimulator::try_new(c.num_qubits(), cfg).unwrap();
        sim.run(&c).unwrap();
        let amps = sim.amplitudes();
        let mut idx: Vec<usize> = (0..amps.len()).collect();
        idx.sort_by(|&a, &b| {
            amps[b]
                .norm_sqr()
                .total_cmp(&amps[a].norm_sqr())
                .then(a.cmp(&b))
        });
        idx.into_iter()
            .take(8)
            .map(|i| (i, amps[i].re, amps[i].im))
            .collect()
    })
}

fn assert_heavy_matches(status: &str) {
    let got = heavy_amplitudes(status);
    let want = reference_heavy();
    assert_eq!(got.len(), want.len(), "heavy list length: {status}");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(
            g.0, w.0,
            "heavy outcome order diverged: {got:?} vs {want:?}"
        );
        assert!(
            (g.1 - w.1).abs() < 1e-12 && (g.2 - w.2).abs() < 1e-12,
            "amplitude {} deviates: got ({}, {}), want ({}, {})",
            g.0,
            g.1,
            g.2,
            w.1,
            w.2
        );
    }
}

/// Polls until `path` holds a loadable flat-phase checkpoint.
fn wait_for_flat_checkpoint(path: &Path, deadline: Duration) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if let Ok(h) = flatdd::read_header(path) {
            if h.phase == flatdd::Phase::Dmav {
                return true;
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    false
}

#[test]
fn sigkill_mid_flight_restart_completes_and_matches() {
    let spool = fresh_spool("sigkill");
    let daemon = Daemon::start(&spool, &["--workers", "1"]);
    let (code, body) = http(daemon.port, "POST", "/jobs", Some(SUBMIT));
    assert_eq!(code, 202, "{body}");
    let id = job_id(&body);

    // Let the job get deep enough to have installed a flat-phase
    // checkpoint, then kill -9: no drain, no flush, no persistence pass.
    let ckpt = spool.join(format!("job-{id}.ckpt"));
    assert!(
        wait_for_flat_checkpoint(&ckpt, Duration::from_secs(120)),
        "no flat-phase checkpoint appeared"
    );
    let (_, body) = http(daemon.port, "GET", &format!("/jobs/{id}"), None);
    assert_eq!(
        job_state(&body),
        "running",
        "job finished before the kill; grow CIRCUIT to keep this test honest"
    );
    daemon.kill();

    // A fresh instance on the same spool re-admits the job and resumes it
    // from the checkpoint.
    let daemon = Daemon::start(&spool, &["--workers", "1"]);
    let (code, body) = http(daemon.port, "GET", "/metrics", None);
    assert_eq!(code, 200);
    assert!(
        field_u64(&body, &["counters", "serve.jobs_recovered"]) >= Some(1),
        "restart must report the recovered job: {body}"
    );
    let status = wait_terminal(daemon.port, id, Duration::from_secs(300));
    assert_eq!(job_state(&status), "done", "{status}");
    assert_heavy_matches(&status);

    daemon.drain(Duration::from_secs(30));
    std::fs::remove_dir_all(&spool).ok();
}

#[test]
fn sigterm_drain_parks_the_job_and_restart_finishes_it() {
    let spool = fresh_spool("drain");
    let daemon = Daemon::start(&spool, &["--workers", "1"]);
    let (code, body) = http(daemon.port, "POST", "/jobs", Some(SUBMIT));
    assert_eq!(code, 202, "{body}");
    let id = job_id(&body);

    let ckpt = spool.join(format!("job-{id}.ckpt"));
    assert!(
        wait_for_flat_checkpoint(&ckpt, Duration::from_secs(120)),
        "no flat-phase checkpoint appeared"
    );
    let (_, body) = http(daemon.port, "GET", &format!("/jobs/{id}"), None);
    assert_eq!(
        job_state(&body),
        "running",
        "job finished before the drain; grow CIRCUIT to keep this test honest"
    );

    // Graceful drain: the running job is checkpointed and parked, the
    // process exits 0.
    daemon.drain(Duration::from_secs(60));
    let record = std::fs::read_to_string(spool.join(format!("job-{id}.json")))
        .expect("drained daemon must persist the job record");
    assert!(
        job_state(&record) == "preempted",
        "drained job must be parked as preempted: {record}"
    );
    assert!(
        flatdd::read_header(&ckpt).is_ok(),
        "drained job must leave a loadable checkpoint"
    );

    // The next instance picks it up and finishes it.
    let daemon = Daemon::start(&spool, &["--workers", "1"]);
    let status = wait_terminal(daemon.port, id, Duration::from_secs(300));
    assert_eq!(job_state(&status), "done", "{status}");
    assert!(
        field_u64(&status, &["preemptions"]) >= Some(1),
        "the drain must be visible in the record: {status}"
    );
    assert_heavy_matches(&status);

    daemon.drain(Duration::from_secs(30));
    std::fs::remove_dir_all(&spool).ok();
}

/// A job an earlier daemon queued with `dd_threads`, a field since retired,
/// is re-admitted and run, not quarantined, and the field is not written
/// back.
#[test]
fn a_queued_record_with_the_retired_dd_threads_field_loads_and_runs() {
    let spool = fresh_spool("retired-dd-threads");
    std::fs::write(
        spool.join("job-1.json"),
        r#"{"id":1,"state":"queued","spec":{"circuit":"ghz:6","seed":1,"threads":1,"dd_threads":4}}"#,
    )
    .unwrap();
    let daemon = Daemon::start(&spool, &["--workers", "1"]);
    let status = wait_terminal(daemon.port, 1, Duration::from_secs(60));
    assert_eq!(job_state(&status), "done", "{status}");
    assert_eq!(field(&status, &["spec", "dd_threads"]), None, "{status}");
    daemon.drain(Duration::from_secs(30));
    assert!(
        !spool.join("quarantine").exists(),
        "the record was quarantined"
    );
    let record = std::fs::read_to_string(spool.join("job-1.json")).unwrap();
    assert!(!record.contains("dd_threads"), "{record}");
    std::fs::remove_dir_all(&spool).ok();
}
