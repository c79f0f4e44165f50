//! End-to-end daemon behavior over real HTTP: submission, status,
//! metrics, health, bounded-queue rejection, cancellation, and worker
//! panic containment.

#![cfg(unix)]

#[path = "serve_util/mod.rs"]
mod util;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;
use util::*;

#[test]
fn submit_over_http_run_to_completion_and_observe() {
    let spool = fresh_spool("basic");
    let daemon = Daemon::start(&spool, &["--workers", "2"]);
    let port = daemon.port;

    let (code, body) = http(port, "GET", "/healthz", None);
    assert_eq!(code, 200);
    assert_eq!(field(&body, &["status"]), Some("ok".into()), "{body}");

    let (code, body) = http(
        port,
        "POST",
        "/jobs",
        Some(r#"{"circuit":"ghz:8","threads":1,"seed":5}"#),
    );
    assert_eq!(code, 202, "{body}");
    let id = job_id(&body);

    let status = wait_terminal(port, id, Duration::from_secs(60));
    assert_eq!(job_state(&status), "done", "{status}");
    assert_eq!(
        field_u64(&status, &["result", "total_gates"]),
        Some(8),
        "result payload missing: {status}"
    );
    // GHZ heaviest outcomes are |0..0> and |1..1> at p = 1/2 each.
    let heavy = heavy_amplitudes(&status);
    assert!(heavy.len() >= 2, "expected heavy amplitudes: {status}");
    let idxs: Vec<usize> = heavy.iter().take(2).map(|h| h.0).collect();
    assert!(idxs.contains(&0) && idxs.contains(&255), "{heavy:?}");

    let (code, body) = http(port, "GET", "/jobs", None);
    assert_eq!(code, 200);
    let Some(Json::Arr(jobs)) = field(&body, &["jobs"]) else {
        panic!("no job list in {body}");
    };
    assert!(
        jobs.iter()
            .any(|j| j.get("circuit") == Some(&"ghz:8".into())),
        "{body}"
    );

    let (code, body) = http(port, "GET", "/metrics", None);
    assert_eq!(code, 200);
    assert!(
        field_u64(&body, &["counters", "serve.jobs_completed"]) >= Some(1),
        "{body}"
    );

    let (code, _) = http(port, "GET", "/jobs/99999", None);
    assert_eq!(code, 404);

    // A body nested far past the parser's depth cap is a 400, not a stack
    // overflow of the accept loop: the daemon keeps answering.
    let (code, body) = http(port, "POST", "/jobs", Some(&"[".repeat(1 << 20)));
    assert_eq!(code, 400, "{body}");
    let (code, _) = http(port, "GET", "/healthz", None);
    assert_eq!(code, 200);

    daemon.drain(Duration::from_secs(30));
    std::fs::remove_dir_all(&spool).ok();
}

#[test]
fn worker_panic_fails_one_job_and_spares_the_daemon() {
    let spool = fresh_spool("panic");
    let daemon = Daemon::start(&spool, &["--workers", "2"]);
    let port = daemon.port;

    // The poisoned job panics on a conversion worker thread; the clean
    // job must be completely unaffected, and the daemon must keep
    // serving.
    let (code, body) = http(
        port,
        "POST",
        "/jobs",
        Some(
            r#"{"circuit":"supremacy:10,8","threads":2,"convert_at_gate":16,"faults":"convert.worker_panic:panic:once"}"#,
        ),
    );
    assert_eq!(code, 202, "{body}");
    let poisoned = job_id(&body);
    let (code, body) = http(
        port,
        "POST",
        "/jobs",
        Some(r#"{"circuit":"ghz:8","threads":1}"#),
    );
    assert_eq!(code, 202, "{body}");
    let clean = job_id(&body);

    let status = wait_terminal(port, poisoned, Duration::from_secs(60));
    assert_eq!(job_state(&status), "failed", "{status}");
    assert_eq!(
        field_u64(&status, &["exit_code"]),
        Some(10),
        "worker panic must map to exit code 10: {status}"
    );

    let status = wait_terminal(port, clean, Duration::from_secs(60));
    assert_eq!(
        job_state(&status),
        "done",
        "the neighbor of a panicking job must finish: {status}"
    );

    // The daemon itself survived.
    let (code, body) = http(port, "GET", "/healthz", None);
    assert_eq!(code, 200);
    assert_eq!(field(&body, &["status"]), Some("ok".into()), "{body}");

    daemon.drain(Duration::from_secs(30));
    std::fs::remove_dir_all(&spool).ok();
}

#[test]
fn worker_dying_under_the_scheduler_lock_does_not_poison_the_daemon() {
    let spool = fresh_spool("lock-panic");
    // The daemon-level `spool.write` site fires on its second hit: the first
    // is the submit handler persisting the new record, the second the worker
    // persisting `running` in its claim phase — under the scheduler lock and
    // outside the per-job containment, so that worker thread is gone.
    let env = [("FLATDD_FAULTS", "spool.write:panic:2")];
    let daemon = Daemon::start_with_env(&spool, &["--workers", "2"], &env);
    let port = daemon.port;
    let submit = || {
        let body = r#"{"circuit":"ghz:8","threads":1}"#;
        let (code, body) = http(port, "POST", "/jobs", Some(body));
        assert_eq!(code, 202, "{body}");
        job_id(&body)
    };
    let state = |id| job_state(&http(port, "GET", &format!("/jobs/{id}"), None).1);

    let lost = submit();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while state(lost) != "running" {
        assert!(std::time::Instant::now() < deadline, "job never claimed");
        std::thread::sleep(Duration::from_millis(5));
    }
    // Every later locker — status, health, submit, the surviving worker's
    // claim and its condvar wait — proceeds on the state the dead worker
    // left behind.
    let (code, body) = http(port, "GET", "/healthz", None);
    assert!(
        code == 200 && field(&body, &["status"]) == Some("ok".into()),
        "{body}"
    );
    let status = wait_terminal(port, submit(), Duration::from_secs(60));
    assert_eq!(job_state(&status), "done", "{status}");
    assert_eq!(state(lost), "running");

    daemon.drain(Duration::from_secs(30));
    std::fs::remove_dir_all(&spool).ok();
}

#[test]
fn bounded_queue_rejects_and_cancel_works() {
    let spool = fresh_spool("queue");
    let daemon = Daemon::start(&spool, &["--workers", "1", "--queue-cap", "1"]);
    let port = daemon.port;

    // A long-running job to occupy the single worker.
    let (code, body) = http(
        port,
        "POST",
        "/jobs",
        Some(r#"{"circuit":"supremacy:18,12","threads":1,"seed":3}"#),
    );
    assert_eq!(code, 202, "{body}");
    let running = job_id(&body);
    // Wait until it is actually running (i.e. out of the queue).
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let (_, body) = http(port, "GET", &format!("/jobs/{running}"), None);
        if job_state(&body) == "running" {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "job never started");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Fill the queue (capacity 1), then overflow it.
    let (code, body) = http(
        port,
        "POST",
        "/jobs",
        Some(r#"{"circuit":"ghz:6","threads":1}"#),
    );
    assert_eq!(code, 202, "{body}");
    let queued = job_id(&body);
    let (code, body) = http(
        port,
        "POST",
        "/jobs",
        Some(r#"{"circuit":"ghz:6","threads":1}"#),
    );
    assert_eq!(code, 429, "expected queue-full rejection, got {body}");

    // Cancel the queued job (immediate) and the running one (next gate
    // boundary).
    let (code, body) = http(port, "POST", &format!("/jobs/{queued}/cancel"), None);
    assert_eq!(code, 200, "{body}");
    let status = wait_terminal(port, queued, Duration::from_secs(10));
    assert_eq!(job_state(&status), "cancelled", "{status}");

    let (code, body) = http(port, "DELETE", &format!("/jobs/{running}"), None);
    assert_eq!(code, 200, "{body}");
    let status = wait_terminal(port, running, Duration::from_secs(60));
    assert_eq!(job_state(&status), "cancelled", "{status}");

    // Cancelling a finished job conflicts.
    let (code, _) = http(port, "POST", &format!("/jobs/{queued}/cancel"), None);
    assert_eq!(code, 409);

    daemon.drain(Duration::from_secs(30));
    std::fs::remove_dir_all(&spool).ok();
}

#[test]
fn crash_loop_is_poisoned_after_the_retry_budget() {
    let spool = fresh_spool("crash-loop");
    let daemon = Daemon::start(&spool, &["--workers", "1", "--retry-max", "1"]);
    let port = daemon.port;

    // The injected `panic` action at the checkpoint install point models
    // the worker dying mid-job on every attempt: attempt 1 panics and
    // re-queues, attempt 2 panics and exhausts the retry budget.
    let (code, body) = http(
        port,
        "POST",
        "/jobs",
        Some(
            r#"{"circuit":"ghz:10","threads":1,"checkpoint_every":4,"faults":"checkpoint.enospc:panic:always"}"#,
        ),
    );
    assert_eq!(code, 202, "{body}");
    let id = job_id(&body);

    let status = wait_terminal(port, id, Duration::from_secs(60));
    assert_eq!(job_state(&status), "failed", "{status}");
    assert_eq!(field_u64(&status, &["exit_code"]), Some(10), "{status}");
    assert!(
        field(&status, &["error"]).is_some_and(|e| e.as_str().unwrap().contains("poisoned")),
        "error should mark the job as crash-loop poisoned: {status}"
    );
    // Both attempts are accounted in the persisted record.
    assert_eq!(field_u64(&status, &["panics"]), Some(2), "{status}");

    // The daemon itself survived both panics and still serves work.
    let (code, body) = http(
        port,
        "POST",
        "/jobs",
        Some(r#"{"circuit":"ghz:8","threads":1}"#),
    );
    assert_eq!(code, 202, "{body}");
    let clean = job_id(&body);
    let status = wait_terminal(port, clean, Duration::from_secs(60));
    assert_eq!(job_state(&status), "done", "{status}");
    let (_, metrics) = http(port, "GET", "/metrics", None);
    assert!(
        field_u64(&metrics, &["counters", "serve.worker_panics"]) >= Some(2),
        "{metrics}"
    );

    daemon.drain(Duration::from_secs(30));
    std::fs::remove_dir_all(&spool).ok();
}

#[test]
fn approximate_degradation_stamps_the_result() {
    let spool = fresh_spool("approx");
    let daemon = Daemon::start(&spool, &["--workers", "1"]);
    let port = daemon.port;

    // Pure-DD job (conversion gate beyond the circuit) under a budget its
    // live state exceeds (the reference pair of `approx_degradation.rs`);
    // the armed per-job floor turns the breach into a completed,
    // fidelity-stamped approximate result.
    let (code, body) = http(
        port,
        "POST",
        "/jobs",
        Some(
            r#"{"circuit":"dnn:14,2","seed":7,"threads":1,"convert_at_gate":100000,"memory_budget_mb":2,"approx_fidelity_floor":0.9}"#,
        ),
    );
    assert_eq!(code, 202, "{body}");
    let id = job_id(&body);

    let status = wait_terminal(port, id, Duration::from_secs(120));
    assert_eq!(job_state(&status), "done", "{status}");
    assert_eq!(
        field(&status, &["result", "approximate"]),
        Some(Json::Bool(true)),
        "result must self-describe as approximate: {status}"
    );
    let fidelity = field(&status, &["result", "fidelity"])
        .and_then(|f| f.as_f64())
        .expect("result carries a fidelity");
    assert!(
        (0.9..1.0).contains(&fidelity),
        "fidelity {fidelity} outside [0.9, 1.0): {status}"
    );

    daemon.drain(Duration::from_secs(30));
    std::fs::remove_dir_all(&spool).ok();
}

/// Median round trip of 20 `GET /healthz` requests, in milliseconds.
fn healthz_median_ms(port: u16) -> f64 {
    let mut ms: Vec<f64> = (0..20)
        .map(|_| {
            let t0 = std::time::Instant::now();
            let (code, _) = http(port, "GET", "/healthz", None);
            assert_eq!(code, 200);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    (ms[9] + ms[10]) / 2.0
}

/// A request the daemon cannot read is answered with a JSON `error` body,
/// control characters in the reason included.
#[test]
fn unreadable_request_gets_a_json_400() {
    let spool = fresh_spool("bad-request");
    let daemon = Daemon::start(&spool, &["--workers", "1"]);
    let mut stream = TcpStream::connect(("127.0.0.1", daemon.port)).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(b"POST /jobs HTTP/1.1\r\nHost: localhost\r\nContent-Length: 1\x01\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 400 "), "{response:?}");
    let (_, body) = response.split_once("\r\n\r\n").expect("head and body");
    assert_eq!(
        field(body, &["error"]),
        Some("bad Content-Length `1\u{1}`".into()),
        "{body:?}"
    );
    daemon.drain(Duration::from_secs(30));
    std::fs::remove_dir_all(&spool).ok();
}

#[test]
fn idle_daemon_answers_without_a_polling_delay() {
    let spool = fresh_spool("idle-rtt");
    let daemon = Daemon::start(&spool, &["--workers", "1"]);
    // An idle sleep in the accept loop delays every round of requests; a
    // busy test host delays some. Five rounds tell the two apart.
    let medians: Vec<f64> = (0..5).map(|_| healthz_median_ms(daemon.port)).collect();
    assert!(
        medians.iter().any(|&m| m < 2.0),
        "median /healthz round trip per round: {medians:?} ms"
    );
    daemon.drain(Duration::from_secs(30));
    std::fs::remove_dir_all(&spool).ok();
}

#[test]
fn sigterm_wakes_a_daemon_blocked_in_accept() {
    let spool = fresh_spool("idle-term");
    let daemon = Daemon::start(&spool, &["--workers", "1"]);
    let (code, _) = http(daemon.port, "GET", "/healthz", None);
    assert_eq!(code, 200);
    // No client is connected now and none will connect: only the signal
    // can end the accept() the daemon has gone back to.
    std::thread::sleep(Duration::from_millis(50));
    daemon.drain(Duration::from_millis(500));
    std::fs::remove_dir_all(&spool).ok();
}

#[test]
fn wide_regular_job_is_read_out_without_materializing_the_state() {
    let spool = fresh_spool("ghz24");
    let daemon = Daemon::start(&spool, &["--workers", "1"]);
    let port = daemon.port;
    // Admission estimate 32 * 2^24 + 32 MiB = 544 MiB, inside the default
    // 2 GiB budget; the run itself is a 24-node DD.
    let (code, body) = http(
        port,
        "POST",
        "/jobs",
        Some(r#"{"circuit":"ghz:24","threads":1}"#),
    );
    assert_eq!(code, 202, "{body}");
    let status = wait_terminal(port, job_id(&body), Duration::from_secs(60));
    assert_eq!(job_state(&status), "done", "{status}");
    let heavy = heavy_amplitudes(&status);
    let arms: Vec<usize> = heavy.iter().map(|h| h.0).collect();
    assert_eq!(arms, [0, (1 << 24) - 1], "{status}");
    for &(_, re, im) in &heavy {
        assert!((re * re + im * im - 0.5).abs() < 1e-12, "{heavy:?}");
    }
    // 2^24 amplitudes are 256 MiB; the daemon's high-water mark shows that
    // nobody allocated them.
    let proc_status = std::fs::read_to_string(format!("/proc/{}/status", daemon.child.id()))
        .expect("daemon /proc status");
    let hwm_kb: u64 = proc_status
        .lines()
        .find_map(|l| {
            l.strip_prefix("VmHWM:")?
                .trim()
                .strip_suffix(" kB")?
                .parse()
                .ok()
        })
        .expect("VmHWM line");
    assert!(hwm_kb < 64 << 10, "daemon VmHWM {hwm_kb} kB");
    daemon.drain(Duration::from_secs(30));
    std::fs::remove_dir_all(&spool).ok();
}
