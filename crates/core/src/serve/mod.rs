//! Multi-job serving: the engine behind the `flatdd-serve` daemon.
//!
//! PR 1–5 hardened one simulation at a time — typed errors, resource
//! governance, crash-safe checkpoints, fault injection. This module turns
//! those primitives into a long-running service that accepts circuits over
//! HTTP/JSON and runs many of them concurrently without letting them hurt
//! each other:
//!
//! * [`json`] / [`http`] — a dependency-free wire layer (the crate policy
//!   is no external crates; `std::net` and a small JSON codec suffice).
//! * [`jobs`] — the job model and its durable spool records.
//! * [`scheduler`] — admission against a server-wide memory budget,
//!   priority preemption via checkpoints, capped-backoff retry, worker
//!   panic containment, and restart recovery.
//!
//! The HTTP surface (JSON by default, `Connection: close`):
//!
//! | Method & path            | Purpose                                   |
//! |--------------------------|-------------------------------------------|
//! | `POST /jobs`             | submit a job spec; `202` with the id, `429` when the queue is full, `503` while draining |
//! | `GET /jobs`              | summaries of every known job              |
//! | `GET /jobs/{id}`         | full status: state, retries, result, stats, per-job metrics |
//! | `GET /jobs/{id}/events`  | live NDJSON progress stream (chunked in the daemon; one-shot batch through [`route`]); `?since=` resumes |
//! | `POST /jobs/{id}/cancel` | cancel (`DELETE /jobs/{id}` is an alias)  |
//! | `GET /metrics`           | daemon + per-job registries; `?format=prometheus` (or `Accept: text/plain`) switches to Prometheus exposition |
//! | `GET /healthz`           | liveness + `ok`/`draining` + load + uptime + build info |
//!
//! Routing is a pure function ([`route`]) so the whole API surface is
//! unit-testable without sockets; `flatdd-serve` owns only the listener
//! loop, the long-lived event-stream connections, and process signals.

pub mod http;
pub mod jobs;
pub mod scheduler;
pub mod stream;

/// The workspace's JSON codec, re-exported under the path the daemon's
/// clients import it from.
pub use qtelemetry::json;

pub use jobs::{JobRecord, JobResult, JobSpec, JobState};
pub use scheduler::{CancelOutcome, Scheduler, SchedulerHandle, ServeConfig, SubmitError};

use json::Json;

/// Name of the file (inside the spool) holding the bound TCP port.
pub const PORT_FILE: &str = "serve.port";

/// The `{"error": msg}` body of every non-2xx response.
pub fn err_body(msg: &str) -> String {
    Json::obj(vec![("error", msg.into())]).to_string()
}

/// The build profile `/healthz` and the Prometheus build info report.
const PROFILE: &str = if cfg!(debug_assertions) {
    "debug"
} else {
    "release"
};

/// JSON content type for the default API responses.
pub const JSON_CONTENT_TYPE: &str = "application/json";

/// True when the client asked for the Prometheus exposition format —
/// explicitly via `?format=prometheus`, or by `Accept`ing `text/plain` /
/// OpenMetrics without forcing `?format=json`.
fn wants_prometheus(req: &http::Request) -> bool {
    match req.query_param("format") {
        Some("prometheus") => true,
        Some(_) => false,
        None => {
            req.accept.contains("text/plain") || req.accept.contains("application/openmetrics-text")
        }
    }
}

/// Renders the full Prometheus scrape: build info, the daemon registry
/// (with `# HELP`/`# TYPE` headers), then every tracked job's scoped
/// registry labeled `job="<id>"` (headers suppressed — Prometheus allows
/// one `# TYPE` per metric name per exposition).
fn prometheus_body(handle: &SchedulerHandle) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("# HELP flatdd_build_info Build metadata of the running daemon.\n");
    out.push_str("# TYPE flatdd_build_info gauge\n");
    out.push_str(&format!(
        "flatdd_build_info{{version=\"{}\",profile=\"{PROFILE}\"}} 1\n",
        env!("CARGO_PKG_VERSION"),
    ));
    out.push_str(&qtelemetry::prometheus::render_registry(
        handle.metrics(),
        &[],
        true,
    ));
    for (id, reg) in handle.job_registries() {
        let id = id.to_string();
        out.push_str(&qtelemetry::prometheus::render_registry(
            &reg,
            &[("job", id.as_str())],
            false,
        ));
    }
    out
}

/// Dispatches one parsed request against the scheduler, returning
/// `(status, content type, body)`.
pub fn route(handle: &SchedulerHandle, req: &http::Request) -> (u32, &'static str, String) {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    let json = |status: u32, body: String| (status, JSON_CONTENT_TYPE, body);
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => {
            let (running, queued) = handle.load();
            let status = if handle.draining() { "draining" } else { "ok" };
            json(
                200,
                Json::obj(vec![
                    ("status", status.into()),
                    ("running", running.into()),
                    ("queued", queued.into()),
                    ("uptime_secs", handle.uptime_secs().into()),
                    ("version", env!("CARGO_PKG_VERSION").into()),
                    ("profile", PROFILE.into()),
                ])
                .to_string(),
            )
        }
        ("GET", ["metrics"]) => {
            if wants_prometheus(req) {
                (
                    200,
                    qtelemetry::prometheus::CONTENT_TYPE,
                    prometheus_body(handle),
                )
            } else {
                json(200, handle.metrics().to_json())
            }
        }
        ("GET", ["jobs", id, "events"]) => {
            let Some(id) = parse_id(id) else {
                return json(400, err_body("bad job id"));
            };
            let since = req
                .query_param("since")
                .and_then(|s| s.parse().ok())
                .unwrap_or(0);
            match stream::events_batch(handle, id, since) {
                Some((mut body, cursor)) => {
                    body.push_str(&stream::cursor_line(cursor));
                    (200, stream::NDJSON_CONTENT_TYPE, body)
                }
                None => match handle.job(id) {
                    // Known but never dispatched (or aged out): an empty
                    // batch with a zero cursor, not an error.
                    Some(_) => (200, stream::NDJSON_CONTENT_TYPE, stream::cursor_line(0)),
                    None => json(404, err_body("no such job")),
                },
            }
        }
        ("GET", ["jobs"]) => {
            let items: Vec<Json> = handle
                .jobs()
                .iter()
                .map(|r| {
                    Json::obj(vec![
                        ("id", Json::Num(r.id as f64)),
                        ("state", Json::Str(r.state.label().into())),
                        ("circuit", Json::Str(r.spec.circuit.clone())),
                        ("priority", Json::Num(r.spec.priority as f64)),
                        ("retries", Json::Num(r.retries as f64)),
                    ])
                })
                .collect();
            json(200, Json::obj(vec![("jobs", Json::Arr(items))]).to_string())
        }
        ("POST", ["jobs"]) => {
            let body = match std::str::from_utf8(&req.body) {
                Ok(s) => s,
                Err(_) => return json(400, err_body("body is not UTF-8")),
            };
            let spec = match json::parse(body).and_then(|v| JobSpec::from_json(&v)) {
                Ok(s) => s,
                Err(e) => return json(400, err_body(&e)),
            };
            match handle.submit(spec) {
                Ok(id) => json(
                    202,
                    Json::obj(vec![
                        ("id", Json::Num(id as f64)),
                        ("state", Json::Str("queued".into())),
                    ])
                    .to_string(),
                ),
                Err(SubmitError::QueueFull) => json(429, err_body("queue full")),
                Err(SubmitError::Draining) => json(503, err_body("draining")),
                Err(SubmitError::Invalid(e)) => json(400, err_body(&e)),
            }
        }
        ("GET", ["jobs", id]) => match parse_id(id) {
            Some(id) => match handle.job(id) {
                Some(rec) => json(200, rec.to_json().to_string()),
                None => json(404, err_body("no such job")),
            },
            None => json(400, err_body("bad job id")),
        },
        ("POST", ["jobs", id, "cancel"]) | ("DELETE", ["jobs", id]) => match parse_id(id) {
            Some(id) => match handle.cancel(id) {
                CancelOutcome::Cancelled => json(
                    200,
                    Json::obj(vec![
                        ("id", Json::Num(id as f64)),
                        ("cancelled", Json::Bool(true)),
                    ])
                    .to_string(),
                ),
                CancelOutcome::AlreadyTerminal => json(409, err_body("job already finished")),
                CancelOutcome::NotFound => json(404, err_body("no such job")),
            },
            None => json(400, err_body("bad job id")),
        },
        ("GET" | "POST" | "DELETE", _) => json(404, err_body("no such endpoint")),
        _ => json(405, err_body("method not allowed")),
    }
}

fn parse_id(s: &str) -> Option<u64> {
    s.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(method: &str, path: &str, body: &str) -> http::Request {
        let (path, query) = match path.split_once('?') {
            Some((p, q)) => (p.to_string(), q.to_string()),
            None => (path.to_string(), String::new()),
        };
        http::Request {
            method: method.into(),
            path,
            query,
            accept: String::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn tiny_sched(name: &str) -> (Scheduler, std::path::PathBuf) {
        let spool =
            std::env::temp_dir().join(format!("flatdd-serve-route-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&spool).ok();
        let mut cfg = ServeConfig::at(&spool);
        cfg.workers = 1;
        cfg.queue_cap = 2;
        (Scheduler::start(cfg).unwrap(), spool)
    }

    #[test]
    fn healthz_metrics_and_404() {
        let (sched, spool) = tiny_sched("health");
        let h = sched.handle();
        let (code, ct, body) = route(&h, &req("GET", "/healthz", ""));
        assert_eq!(code, 200);
        assert_eq!(ct, JSON_CONTENT_TYPE);
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        assert!(body.contains("\"uptime_secs\":"), "{body}");
        assert!(body.contains("\"version\":"), "{body}");
        let (code, ct, body) = route(&h, &req("GET", "/metrics", ""));
        assert_eq!(code, 200);
        assert_eq!(ct, JSON_CONTENT_TYPE);
        json::parse(&body).expect("metrics must be valid JSON");
        assert_eq!(route(&h, &req("GET", "/nope", "")).0, 404);
        assert_eq!(route(&h, &req("PUT", "/jobs", "")).0, 405);
        assert_eq!(route(&h, &req("GET", "/jobs/zzz", "")).0, 400);
        sched.drain();
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn metrics_negotiates_prometheus() {
        let (sched, spool) = tiny_sched("prom");
        let h = sched.handle();
        // Explicit query parameter.
        let (code, ct, body) = route(&h, &req("GET", "/metrics?format=prometheus", ""));
        assert_eq!(code, 200);
        assert_eq!(ct, qtelemetry::prometheus::CONTENT_TYPE);
        assert!(body.contains("flatdd_build_info{"), "{body}");
        assert!(
            body.contains("# TYPE flatdd_serve_queue_depth gauge"),
            "{body}"
        );
        assert!(
            body.contains("flatdd_serve_queue_wait_us_bucket{"),
            "histograms must expose buckets: {body}"
        );
        // Accept-header negotiation.
        let mut r = req("GET", "/metrics", "");
        r.accept = "text/plain".into();
        let (_, ct, _) = route(&h, &r);
        assert_eq!(ct, qtelemetry::prometheus::CONTENT_TYPE);
        // format=json wins over Accept.
        let mut r = req("GET", "/metrics?format=json", "");
        r.accept = "text/plain".into();
        let (_, ct, _) = route(&h, &r);
        assert_eq!(ct, JSON_CONTENT_TYPE);
        sched.drain();
        std::fs::remove_dir_all(&spool).ok();
    }

    #[test]
    fn submit_poll_and_queue_full() {
        let (sched, spool) = tiny_sched("submit");
        let h = sched.handle();
        assert_eq!(route(&h, &req("POST", "/jobs", "not json")).0, 400);
        assert_eq!(
            route(&h, &req("POST", "/jobs", r#"{"circuit":"bogus:3"}"#)).0,
            400
        );
        let (code, _, body) = route(
            &h,
            &req("POST", "/jobs", r#"{"circuit":"ghz:6","threads":1}"#),
        );
        assert_eq!(code, 202, "{body}");
        let id = json::parse(&body)
            .unwrap()
            .get("id")
            .and_then(Json::as_u64)
            .unwrap();
        assert!(h.wait_idle(std::time::Duration::from_secs(30)));
        let (code, _, body) = route(&h, &req("GET", &format!("/jobs/{id}"), ""));
        assert_eq!(code, 200);
        let v = json::parse(&body).unwrap();
        assert_eq!(v.get("state").and_then(Json::as_str), Some("done"));
        let (code, _, body) = route(&h, &req("GET", "/jobs", ""));
        assert_eq!(code, 200);
        assert!(body.contains("\"circuit\":\"ghz:6\""), "{body}");
        // The event batch endpoint serves the finished job's ring with a
        // trailing cursor line, and resumes past it cleanly.
        let (code, ct, body) = route(&h, &req("GET", &format!("/jobs/{id}/events"), ""));
        assert_eq!(code, 200);
        assert_eq!(ct, stream::NDJSON_CONTENT_TYPE);
        assert!(body.contains("\"event\":\"progress\""), "{body}");
        let cursor_line = body.lines().last().unwrap();
        assert!(cursor_line.starts_with("{\"event\":\"cursor\""), "{body}");
        let cursor = json::parse(cursor_line)
            .unwrap()
            .get("cursor")
            .and_then(Json::as_u64)
            .unwrap();
        let (code, _, body) = route(
            &h,
            &req("GET", &format!("/jobs/{id}/events?since={cursor}"), ""),
        );
        assert_eq!(code, 200);
        assert_eq!(
            body.lines().count(),
            1,
            "resume at the cursor must be empty: {body}"
        );
        assert_eq!(route(&h, &req("GET", "/jobs/999/events", "")).0, 404);
        sched.drain();
        std::fs::remove_dir_all(&spool).ok();
    }
}
