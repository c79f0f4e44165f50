//! Live NDJSON event streaming for `GET /jobs/{id}/events`.
//!
//! The simulator publishes [`crate::context::Progress`] samples into its
//! job's bounded ring (see [`crate::context::RunContext`]); this module
//! turns that ring into an HTTP surface twice over:
//!
//! * [`events_batch`] — one-shot drain for the pure [`super::route`]
//!   dispatcher: everything after a `?since=` cursor as NDJSON, plus the
//!   new cursor. Pollable with plain request/response clients.
//! * [`stream_events`] — a chunked (`Transfer-Encoding: chunked`)
//!   long-lived response for `flatdd-serve`: samples are forwarded as they
//!   appear, a heartbeat line keeps idle connections alive, and the stream
//!   ends with an `end` line once the job is terminal and the ring is
//!   drained. A client that reconnects with the last `seq` it saw as
//!   `?since=` resumes without gaps (as long as the lossy ring has not
//!   wrapped past it — its capacity is
//!   [`crate::context::PROGRESS_RING_CAP`] samples).
//!
//! Every line is a complete JSON object; the `event` field tags the kind
//! (`progress`, `heartbeat`, `end`, and `cursor` closing a batch).

use super::json::{self, Writer};
use super::scheduler::SchedulerHandle;
use std::io::Write as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// NDJSON content type for both the batch and the streaming response.
pub const NDJSON_CONTENT_TYPE: &str = "application/x-ndjson";

/// Ring poll cadence while streaming.
const POLL_INTERVAL: Duration = Duration::from_millis(50);
/// Idle interval after which a heartbeat line is sent.
const HEARTBEAT_INTERVAL: Duration = Duration::from_secs(2);

/// Drains every progress sample with `seq > since` from job `id`'s ring as
/// NDJSON (one object per line, trailing newline included when non-empty)
/// and returns it with the resume cursor. `None` when the job is unknown
/// or its context has aged out of retention.
pub fn events_batch(handle: &SchedulerHandle, id: u64, since: u64) -> Option<(String, u64)> {
    let ctx = handle.job_context(id)?;
    let (samples, cursor) = ctx.progress_since(since);
    let mut out = String::new();
    for s in &samples {
        out.push_str(&s.to_json());
        out.push('\n');
    }
    Some((out, cursor))
}

/// One control line, `{"event": kind, <fields>, "cursor": n}` and its
/// newline.
fn control_line(kind: &str, fields: impl FnOnce(&mut Writer), cursor: u64) -> String {
    let mut line = json::render(|w| {
        w.begin_obj().key("event").string(kind);
        fields(w);
        w.key("cursor").uint(cursor).end_obj();
    });
    line.push('\n');
    line
}

/// The line that closes a batch: where the next `?since=` resumes.
pub fn cursor_line(cursor: u64) -> String {
    control_line("cursor", |_| {}, cursor)
}

/// The line that keeps an idle stream alive.
pub fn heartbeat_line(cursor: u64) -> String {
    let ts_us = qtelemetry::now_us();
    control_line(
        "heartbeat",
        |w| _ = w.key("ts_us").fixed(ts_us, Some(0)),
        cursor,
    )
}

/// The line that closes a stream, with the job's final `state`.
pub fn end_line(state: &str, cursor: u64) -> String {
    control_line("end", |w| _ = w.key("state").string(state), cursor)
}

/// Serves one chunked NDJSON connection: forwards progress samples as the
/// ring fills, heartbeats while idle, and closes with an `end` line once
/// the job reaches a terminal state and its remaining samples are drained.
/// Returns when the stream ends or the client hangs up (write errors are
/// the hangup signal and are swallowed).
pub fn stream_events(stream: &mut TcpStream, handle: &SchedulerHandle, id: u64, since: u64) {
    // Streaming reuses the connection the accept loop handed over; undo
    // its nonblocking accept mode and its short request-read timeout.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    if super::http::respond_stream_head(stream, NDJSON_CONTENT_TYPE).is_err() {
        return;
    }
    let mut cursor = since;
    let mut last_write = Instant::now();
    while let Some(rec) = handle.job(id) {
        let state = rec.state;
        let mut wrote = false;
        if let Some(ctx) = handle.job_context(id) {
            let (samples, latest) = ctx.progress_since(cursor);
            for s in &samples {
                let mut line = s.to_json();
                line.push('\n');
                if super::http::write_chunk(stream, &line).is_err() {
                    return;
                }
                wrote = true;
            }
            cursor = cursor.max(latest);
        }
        if state.is_terminal() {
            let _ = super::http::write_chunk(stream, &end_line(state.label(), cursor));
            break;
        }
        if wrote {
            last_write = Instant::now();
        } else if last_write.elapsed() >= HEARTBEAT_INTERVAL {
            if super::http::write_chunk(stream, &heartbeat_line(cursor)).is_err() {
                return;
            }
            last_write = Instant::now();
        }
        if handle.draining() {
            // The daemon is going down; end the stream cleanly rather than
            // holding the connection into the join.
            let _ = super::http::write_chunk(stream, &end_line("draining", cursor));
            break;
        }
        std::thread::sleep(POLL_INTERVAL);
    }
    // Terminating zero-length chunk; the peer may already be gone.
    let _ = super::http::write_chunk(stream, "");
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{Scheduler, ServeConfig};

    #[test]
    fn batch_resumes_from_cursor() {
        let spool =
            std::env::temp_dir().join(format!("flatdd-serve-stream-batch-{}", std::process::id()));
        std::fs::remove_dir_all(&spool).ok();
        let mut cfg = ServeConfig::at(&spool);
        cfg.workers = 1;
        let sched = Scheduler::start(cfg).unwrap();
        let h = sched.handle();
        assert!(
            events_batch(&h, 999, 0).is_none(),
            "unknown job has no ring"
        );
        let id = h
            .submit(crate::serve::JobSpec {
                circuit: "ghz:8".into(),
                threads: 1,
                ..Default::default()
            })
            .expect("submit");
        assert!(h.wait_idle(Duration::from_secs(30)));
        let (all, cursor) = events_batch(&h, id, 0).expect("retained after completion");
        assert!(cursor >= 1, "the run must have published samples");
        assert!(all.contains("\"event\":\"progress\""), "{all}");
        // Resuming from the final cursor returns nothing new.
        let (rest, cursor2) = events_batch(&h, id, cursor).unwrap();
        assert!(rest.is_empty());
        assert_eq!(cursor2, cursor);
        // Resuming mid-way returns only the tail.
        if cursor > 1 {
            let (tail, _) = events_batch(&h, id, cursor - 1).unwrap();
            assert_eq!(tail.lines().count(), 1, "{tail}");
        }
        sched.drain();
        std::fs::remove_dir_all(&spool).ok();
    }
}
