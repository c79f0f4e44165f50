//! Load generator for the real `flatdd-serve` daemon: spawn it from beside
//! this executable on a fresh temp spool, drive it closed-loop from a fixed
//! number of clients over std-only HTTP, check every result, and scrape
//! the daemon's Prometheus endpoint once at the end.

use crate::api::{self, Job, Sample};
use crate::host;
use crate::spans::Recorder;
use crate::stats::{median, percentile};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Clients of the closed loop: two on one worker keep one job queued.
pub const CLIENTS: usize = 2;
const POLL_EVERY: Duration = Duration::from_millis(2);
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);
const JOB_TIMEOUT: Duration = Duration::from_secs(60);
const READY_TIMEOUT: Duration = Duration::from_secs(20);

// ---------------------------------------------------------------------------
// HTTP client
// ---------------------------------------------------------------------------

/// One request on a fresh connection (the daemon answers `Connection:
/// close`). Returns the status code and the body.
pub fn request(
    port: u16,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    let addr = SocketAddr::from(([127, 0, 0, 1], port));
    let io = |what: &str, e: std::io::Error| format!("{method} {path}: {what}: {e}");
    let mut stream =
        TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT).map_err(|e| io("connect", e))?;
    stream
        .set_read_timeout(Some(REQUEST_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(REQUEST_TIMEOUT)))
        .and_then(|()| stream.set_nodelay(true))
        .map_err(|e| io("socket options", e))?;
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| io("write", e))?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| io("read", e))?;
    parse_response(&raw).ok_or_else(|| format!("{method} {path}: malformed HTTP response"))
}

fn parse_response(raw: &[u8]) -> Option<(u16, String)> {
    let text = std::str::from_utf8(raw).ok()?;
    let (head, body) = text.split_once("\r\n\r\n")?;
    let status = head
        .lines()
        .next()?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some((status, body.to_string()))
}

// ---------------------------------------------------------------------------
// The daemon under test
// ---------------------------------------------------------------------------

/// A running `flatdd-serve` and its spool. Dropping it on any path,
/// unwinding included, stops the daemon (SIGTERM, then SIGKILL after two
/// seconds) and removes the spool.
pub struct Daemon {
    child: Child,
    spool: PathBuf,
    pub port: u16,
    /// Spawn to first `200` from `/healthz`.
    pub ready_s: f64,
}

/// Path of the daemon binary: beside this executable, where
/// `cargo build` puts both.
pub fn daemon_path() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let path = exe.with_file_name("flatdd-serve");
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} not found: build it next to bench_spine first, e.g.\n  \
             cargo build --release --manifest-path crates/bench/src/bin/bench_spine/Cargo.toml\n\
             or, in the repository's own workspace,\n  \
             cargo build --release -p flatdd-bench -p flatdd-repro --bin bench_spine --bin flatdd-serve",
            path.display()
        ))
    }
}

impl Daemon {
    /// Starts the daemon with one worker on a fresh spool under `dir`.
    pub fn spawn(dir: &Path, tag: &str) -> Result<Daemon, String> {
        let exe = daemon_path()?;
        let spool = dir.join(format!("spool-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&spool);
        std::fs::create_dir_all(&spool).map_err(|e| format!("{}: {e}", spool.display()))?;
        let mut cmd = Command::new(exe);
        cmd.arg("--spool")
            .arg(&spool)
            .args(["--workers", "1", "--queue-cap", "16"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        host::scrub_env(&mut cmd);
        let t0 = Instant::now();
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawn flatdd-serve: {e}"))?;
        // From here on the guard owns the process and the spool.
        let mut daemon = Daemon {
            child,
            spool,
            port: 0,
            ready_s: 0.0,
        };
        let port_file = daemon.spool.join("serve.port");
        while daemon.port == 0 {
            if let Some(p) = std::fs::read_to_string(&port_file)
                .ok()
                .and_then(|s| s.trim().parse().ok())
            {
                daemon.port = p;
            } else if t0.elapsed() > READY_TIMEOUT {
                return Err("flatdd-serve wrote no port file within 20 s".into());
            } else if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("flatdd-serve exited at start-up: {status}"));
            } else {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        loop {
            match request(daemon.port, "GET", "/healthz", None) {
                Ok((200, _)) => break,
                _ if t0.elapsed() > READY_TIMEOUT => {
                    return Err("flatdd-serve never answered /healthz".into())
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        daemon.ready_s = t0.elapsed().as_secs_f64();
        Ok(daemon)
    }

    /// The daemon's peak resident set so far, in bytes.
    pub fn peak_rss_bytes(&self) -> Option<u64> {
        host::peak_rss_bytes(self.child.id())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // std can only SIGKILL; the daemon drains on SIGTERM, so ask first.
        let _ = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status();
        let t0 = Instant::now();
        while matches!(self.child.try_wait(), Ok(None)) {
            if t0.elapsed() > Duration::from_secs(2) {
                let _ = self.child.kill();
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.spool);
    }
}

// ---------------------------------------------------------------------------
// One closed-loop session
// ---------------------------------------------------------------------------

/// What a client saw of one job.
struct JobOutcome {
    index: usize,
    latency_ms: f64,
    submit_us: f64,
    polls: usize,
    preemptions: u32,
    retries: u32,
    rejected: bool,
    /// `Ok(heavy amplitudes)` of a `done` job, else why it failed.
    result: Result<Vec<Sample>, String>,
}

/// Results of a session, already checked against the references.
#[derive(Default)]
pub struct Session {
    pub jobs: usize,
    pub failed: usize,
    pub first_error: Option<String>,
    /// First submit sent to last terminal state observed.
    pub wall_s: f64,
    pub latency_ms: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub http_rtt_us: Vec<f64>,
    pub polls: usize,
    pub preemptions: u32,
    pub retries: u32,
    pub rejected_429: usize,
    pub max_abs_err: f64,
    pub peak_rss_bytes: u64,
    /// The Prometheus exposition scraped after the last job.
    pub prometheus: String,
}

fn drive_job(port: u16, index: usize, job: &Job, rec: &mut Recorder) -> JobOutcome {
    rec.set_run(index as u64);
    let span = rec.begin("serve.job", None);
    let t0 = Instant::now();
    let mut out = JobOutcome {
        index,
        latency_ms: 0.0,
        submit_us: 0.0,
        polls: 0,
        preemptions: 0,
        retries: 0,
        rejected: false,
        result: Err("not finished".into()),
    };
    let submit = rec.begin("serve.submit", Some(span));
    let posted = request(port, "POST", "/jobs", Some(&api::job_body(job)));
    out.submit_us = rec.end(submit);
    let id = match posted {
        Ok((202, body)) => api::parse_submit(&body),
        Ok((status, body)) => {
            out.rejected = status == 429;
            out.result = Err(format!("submit answered {status}: {body}"));
            None
        }
        Err(e) => {
            out.result = Err(e);
            None
        }
    };
    if let Some(id) = id {
        let path = format!("/jobs/{id}");
        out.result = loop {
            std::thread::sleep(POLL_EVERY);
            let poll = rec.begin("serve.poll", Some(span));
            let answer = request(port, "GET", &path, None);
            rec.end(poll);
            out.polls += 1;
            let view = match answer {
                Ok((200, body)) => api::parse_job(&body),
                Ok((status, body)) => Err(format!("poll answered {status}: {body}")),
                Err(e) => Err(e),
            };
            match view {
                Ok(v) if v.terminal => {
                    out.preemptions = v.preemptions;
                    out.retries = v.retries;
                    break if v.done {
                        Ok(v.heavy)
                    } else {
                        Err(format!("job {id} ended `{}`", v.state))
                    };
                }
                Ok(_) if t0.elapsed() > JOB_TIMEOUT => {
                    break Err(format!("job {id} not terminal after 60 s"))
                }
                Ok(_) => {}
                Err(e) => break Err(e),
            }
        };
    }
    out.latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    rec.end(span);
    out
}

/// Checks a served result against the in-process reference of its spec:
/// every reported amplitude must match, and the reported set must be the
/// heaviest amplitudes.
fn check_heavy(heavy: &[Sample], reference: &[(f64, f64)]) -> Result<f64, String> {
    if heavy.is_empty() {
        return Err("result carries no amplitudes".into());
    }
    let prob = |a: &(f64, f64)| a.0 * a.0 + a.1 * a.1;
    let mut worst = 0.0f64;
    let mut lightest = f64::INFINITY;
    for &(i, re, im) in heavy {
        let r = reference
            .get(i)
            .ok_or_else(|| format!("amplitude index {i} out of range"))?;
        worst = worst.max(((re - r.0).powi(2) + (im - r.1).powi(2)).sqrt());
        lightest = lightest.min(prob(r));
    }
    if worst > api::AMP_TOL {
        return Err(format!("served amplitudes differ by {worst:e}"));
    }
    let heavier = reference
        .iter()
        .filter(|a| prob(a) > lightest + 4.0 * api::AMP_TOL)
        .count();
    if heavier >= heavy.len() {
        return Err(format!(
            "served result is not the {} heaviest amplitudes",
            heavy.len()
        ));
    }
    Ok(worst)
}

/// Runs `stream` through `daemon` from [`CLIENTS`] closed-loop clients.
/// `references` maps a job spec to its in-process amplitudes.
pub fn run_session(
    daemon: &Daemon,
    stream: &[Job],
    references: &[(&'static str, Vec<(f64, f64)>)],
    rec: &mut Recorder,
) -> Result<Session, String> {
    let port = daemon.port;
    let mut s = Session {
        jobs: stream.len(),
        ..Session::default()
    };
    // Round trips of the cheapest request, before any job competes for the
    // accept loop.
    for _ in 0..20 {
        let span = rec.begin("serve.healthz", None);
        let answer = request(port, "GET", "/healthz", None)?;
        let us = rec.end(span);
        if answer.0 != 200 {
            return Err(format!("/healthz answered {}", answer.0));
        }
        s.http_rtt_us.push(us);
    }

    let next = AtomicUsize::new(0);
    let epoch = Instant::now();
    let t0 = Instant::now();
    let per_client: Vec<(Vec<JobOutcome>, Recorder)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut rec = Recorder::with_epoch(0, epoch);
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = stream.get(i) else { break };
                        done.push(drive_job(port, i, job, &mut rec));
                    }
                    (done, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    s.wall_s = t0.elapsed().as_secs_f64();
    s.peak_rss_bytes = daemon.peak_rss_bytes().unwrap_or(0);

    let mut outcomes = Vec::new();
    for (done, client_rec) in per_client {
        outcomes.extend(done);
        rec.absorb(client_rec);
    }
    outcomes.sort_by_key(|o| o.index);
    for o in &outcomes {
        s.latency_ms.push(o.latency_ms);
        s.submit_us.push(o.submit_us);
        s.polls += o.polls;
        s.preemptions += o.preemptions;
        s.retries += o.retries;
        s.rejected_429 += usize::from(o.rejected);
        let spec = stream[o.index].spec;
        let checked = o.result.clone().and_then(|heavy| {
            let reference = references
                .iter()
                .find(|(name, _)| *name == spec)
                .map(|(_, amps)| amps)
                .ok_or_else(|| format!("no reference for `{spec}`"))?;
            check_heavy(&heavy, reference)
        });
        match checked {
            Ok(err) => s.max_abs_err = s.max_abs_err.max(err),
            Err(e) => {
                s.failed += 1;
                s.first_error
                    .get_or_insert_with(|| format!("job {} ({spec}): {e}", o.index));
            }
        }
    }
    let (status, text) = request(port, "GET", "/metrics?format=prometheus", None)?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    s.prometheus = text;
    Ok(s)
}

impl Session {
    /// The `serve.*` layer metrics of this session.
    pub fn layers(&self) -> Vec<(&'static str, f64)> {
        let hist = |name: &str, q: f64| prometheus_quantile(&self.prometheus, name, q);
        let p50_ms = median(&self.latency_ms);
        let run_p50_us = hist("flatdd_serve_run_us", 0.5);
        vec![
            ("serve.http_rtt_us", median(&self.http_rtt_us)),
            ("serve.submit_us", median(&self.submit_us)),
            (
                "serve.polls_per_job",
                self.polls as f64 / self.jobs.max(1) as f64,
            ),
            (
                "serve.queue_wait_p50_us",
                hist("flatdd_serve_queue_wait_us", 0.5),
            ),
            (
                "serve.queue_wait_p95_us",
                hist("flatdd_serve_queue_wait_us", 0.95),
            ),
            ("serve.run_p50_us", run_p50_us),
            ("serve.run_p95_us", hist("flatdd_serve_run_us", 0.95)),
            (
                "serve.checkpoint_write_p50_us",
                hist("flatdd_sim_ckpt_write_us", 0.5),
            ),
            ("serve.preemptions", f64::from(self.preemptions)),
            ("serve.retries", f64::from(self.retries)),
            ("serve.rejected_429", self.rejected_429 as f64),
            ("serve.job_latency_p50_ms", p50_ms),
            (
                "serve.job_latency_p95_ms",
                percentile(&self.latency_ms, 95.0),
            ),
            ("serve.overhead_ms", p50_ms - run_p50_us / 1e3),
        ]
    }
}

/// Quantile `q` of histogram `name` in a Prometheus text exposition, merged
/// over every label set (each per-job registry carries its own series, and
/// a series stops at its highest occupied bucket), interpolated inside the
/// log2 bucket it falls in. 0 when the histogram has no observations.
pub fn prometheus_quantile(text: &str, name: &str, q: f64) -> f64 {
    use std::collections::BTreeMap;
    let prefix = format!("{name}_bucket{{");
    // upper bound -> observations in that bucket, over all series
    let mut merged: BTreeMap<u64, f64> = BTreeMap::new();
    // labels other than `le` -> cumulative count at the previous bucket
    let mut previous: BTreeMap<String, f64> = BTreeMap::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(&prefix) else {
            continue;
        };
        let Some((labels, value)) = rest.split_once("} ") else {
            continue;
        };
        let Ok(cum) = value.trim().parse::<f64>() else {
            continue;
        };
        let (mut le, mut series) = (None, String::new());
        for kv in labels.split(',') {
            match kv.trim().strip_prefix("le=\"") {
                Some(v) => le = Some(v.trim_end_matches('"')),
                None => series.push_str(kv),
            }
        }
        // `+Inf` repeats the last finite bucket's count.
        let Some(bound) = le.and_then(|b| b.parse::<u64>().ok()) else {
            continue;
        };
        let before = previous.insert(series, cum).unwrap_or(0.0);
        *merged.entry(bound).or_insert(0.0) += cum - before;
    }
    let total: f64 = merged.values().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let target = q * total;
    let (mut lower, mut below) = (0.0, 0.0);
    for (&bound, &inside) in &merged {
        if inside > 0.0 && below + inside >= target {
            return lower + (target - below) / inside * (bound as f64 - lower);
        }
        lower = bound as f64;
        below += inside;
    }
    lower
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_body() {
        let raw = b"HTTP/1.1 202 Accepted\r\nContent-Length: 8\r\n\r\n{\"id\":3}";
        assert_eq!(parse_response(raw), Some((202, "{\"id\":3}".to_string())));
        assert_eq!(
            parse_response(b"HTTP/1.1 429 Too Many\r\n\r\n").unwrap().0,
            429
        );
        assert_eq!(parse_response(b"garbage"), None);
    }

    #[test]
    fn quantiles_sum_label_sets_and_interpolate() {
        let text = "\
# TYPE flatdd_serve_run_us histogram
flatdd_serve_run_us_bucket{le=\"1023\"} 0
flatdd_serve_run_us_bucket{le=\"2047\"} 10
flatdd_serve_run_us_bucket{le=\"4095\"} 20
flatdd_serve_run_us_bucket{le=\"+Inf\"} 20
flatdd_sim_ckpt_write_us_bucket{job=\"1\",le=\"255\"} 1
flatdd_sim_ckpt_write_us_bucket{job=\"1\",le=\"+Inf\"} 1
flatdd_sim_ckpt_write_us_bucket{job=\"2\",le=\"255\"} 0
flatdd_sim_ckpt_write_us_bucket{job=\"2\",le=\"511\"} 1
flatdd_sim_ckpt_write_us_bucket{job=\"2\",le=\"+Inf\"} 1
";
        // Half of 20 observations sit at or below 2047.
        assert_eq!(
            prometheus_quantile(text, "flatdd_serve_run_us", 0.5),
            2047.0
        );
        let p75 = prometheus_quantile(text, "flatdd_serve_run_us", 0.75);
        assert!((p75 - 3071.0).abs() < 1.0, "{p75}");
        // Two jobs, one observation each: job 1 in (0, 255], job 2 in
        // (255, 511]. Job 1's series stops at its last occupied bucket.
        assert_eq!(
            prometheus_quantile(text, "flatdd_sim_ckpt_write_us", 0.5),
            255.0
        );
        assert_eq!(
            prometheus_quantile(text, "flatdd_sim_ckpt_write_us", 1.0),
            511.0
        );
        assert_eq!(prometheus_quantile(text, "flatdd_missing", 0.5), 0.0);
    }

    #[test]
    fn heavy_check_accepts_the_top_set_and_rejects_wrong_values() {
        let reference = vec![(0.6, 0.0), (0.0, 0.0), (0.0, 0.8), (0.0, 0.0)];
        assert!(check_heavy(&[(2, 0.0, 0.8), (0, 0.6, 0.0)], &reference).is_ok());
        assert!(check_heavy(&[(2, 0.0, 0.7), (0, 0.6, 0.0)], &reference).is_err());
        // Reports one amplitude, but a heavier one exists.
        assert!(check_heavy(&[(0, 0.6, 0.0)], &reference).is_err());
        assert!(check_heavy(&[(9, 0.0, 0.0)], &reference).is_err());
        assert!(check_heavy(&[], &reference).is_err());
    }

    #[test]
    fn missing_daemon_is_a_hard_error_with_the_build_command() {
        // The test binary lives in `deps/`, where no flatdd-serve is built.
        let err = daemon_path().unwrap_err();
        assert!(err.contains("cargo build --release"), "{err}");
    }
}
