//! End-to-end live event streaming: subscribe to `GET /jobs/{id}/events`
//! while a job is running, read progress samples off the chunked NDJSON
//! stream, disconnect, then resume with `?since=` and verify the sequence
//! numbers are contiguous across the reconnect — no gap, no duplicates.

#![cfg(unix)]

#[path = "serve_util/mod.rs"]
mod util;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use util::*;

/// A client-side reader for one chunked NDJSON stream connection. The
/// server writes one JSON line per chunk, so decoding the chunk framing
/// yields whole events.
struct EventStream {
    reader: BufReader<TcpStream>,
}

impl EventStream {
    /// Connects and consumes the response head, asserting the chunked
    /// NDJSON contract.
    fn open(port: u16, id: u64, since: u64) -> EventStream {
        let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let req =
            format!("GET /jobs/{id}/events?since={since} HTTP/1.1\r\nHost: localhost\r\n\r\n");
        (&stream).write_all(req.as_bytes()).expect("write request");
        let mut reader = BufReader::new(stream);
        let mut head = String::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read header line");
            if line == "\r\n" || line.is_empty() {
                break;
            }
            head.push_str(&line);
        }
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let lower = head.to_ascii_lowercase();
        assert!(lower.contains("transfer-encoding: chunked"), "{head}");
        assert!(lower.contains("application/x-ndjson"), "{head}");
        EventStream { reader }
    }

    /// Next event line, or `None` on the terminating zero-length chunk.
    fn next_line(&mut self) -> Option<String> {
        let mut size_line = String::new();
        self.reader.read_line(&mut size_line).expect("chunk size");
        let size = usize::from_str_radix(size_line.trim(), 16)
            .unwrap_or_else(|_| panic!("bad chunk size line {size_line:?}"));
        if size == 0 {
            return None;
        }
        let mut buf = vec![0u8; size + 2]; // payload + trailing CRLF
        self.reader.read_exact(&mut buf).expect("chunk payload");
        let line = String::from_utf8(buf[..size].to_vec()).expect("utf8 event");
        json(&line); // every line of the stream is one JSON document
        Some(line.trim_end().to_string())
    }
}

/// The `seq` of a progress line.
fn seq_of(line: &str) -> Option<u64> {
    (field(line, &["event"])? == "progress".into())
        .then(|| field_u64(line, &["seq"]))
        .flatten()
}

/// An inline OpenQASM circuit with enough gates that the run spans many
/// progress-throttle windows even on fast hardware: `layers` repetitions
/// of an H + ladder-CX block over 6 qubits.
fn long_qasm(layers: usize) -> String {
    let mut q = String::from("OPENQASM 2.0;\\ninclude \\\"qelib1.inc\\\";\\nqreg q[6];\\n");
    for _ in 0..layers {
        for i in 0..6 {
            q.push_str(&format!("h q[{i}];\\n"));
        }
        for i in 0..5 {
            q.push_str(&format!("cx q[{i}],q[{}];\\n", i + 1));
        }
    }
    q
}

#[test]
fn stream_survives_reconnect_without_seq_gap() {
    let spool = fresh_spool("stream");
    let daemon = Daemon::start(&spool, &["--workers", "1"]);
    let port = daemon.port;

    // Periodic checkpoints add steady per-window work, stretching the run
    // so the first connection reliably lands mid-flight.
    let body = format!(
        r#"{{"qasm":"{}","threads":1,"checkpoint_every":128}}"#,
        long_qasm(4000)
    );
    let (code, resp) = http(port, "POST", "/jobs", Some(&body));
    assert_eq!(code, 202, "{resp}");
    let id = job_id(&resp);

    // Unknown jobs must 404 rather than hang a stream open.
    let probe = TcpStream::connect(("127.0.0.1", port)).unwrap();
    probe
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    (&probe)
        .write_all(b"GET /jobs/99999/events HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut resp404 = String::new();
    BufReader::new(probe).read_line(&mut resp404).unwrap();
    assert!(resp404.starts_with("HTTP/1.1 404"), "{resp404}");

    // First subscription: read from the start of the ring until we have a
    // couple of mid-run samples, then drop the connection abruptly.
    let mut first = EventStream::open(port, id, 0);
    let mut seqs: Vec<u64> = Vec::new();
    let mut saw_end_early = false;
    let deadline = Instant::now() + Duration::from_secs(60);
    while let Some(line) = first.next_line() {
        if let Some(s) = seq_of(&line) {
            seqs.push(s);
            if seqs.len() >= 2 {
                break;
            }
        }
        if field(&line, &["event"]) == Some("end".into()) {
            saw_end_early = true;
            break;
        }
        assert!(Instant::now() < deadline, "no progress within 60s");
    }
    assert!(
        !seqs.is_empty(),
        "the stream must deliver at least one progress sample"
    );
    let resume_from = *seqs.last().unwrap();
    drop(first); // hard disconnect mid-stream

    // Resume from the last seq we saw: the next sample must be exactly
    // `resume_from + 1` — nothing skipped, nothing replayed.
    let mut second = EventStream::open(port, id, resume_from);
    let mut ended = saw_end_early;
    let mut sims = std::collections::BTreeSet::new();
    let deadline = Instant::now() + Duration::from_secs(120);
    while let Some(line) = second.next_line() {
        if let Some(s) = seq_of(&line) {
            seqs.push(s);
            sims.insert(field_u64(&line, &["sim"]));
        }
        if field(&line, &["event"]) == Some("end".into()) {
            ended = true;
            break;
        }
        assert!(Instant::now() < deadline, "job did not finish within 120s");
    }
    assert!(ended, "the stream must close with an `end` event");

    assert_eq!(seqs[0], 1, "first subscription starts at the ring head");
    for w in seqs.windows(2) {
        assert_eq!(
            w[1],
            w[0] + 1,
            "seq must be contiguous across the reconnect: {seqs:?}"
        );
    }

    // Every sample names the job's simulator: the `sim` (Chrome-trace
    // pid) of its telemetry events.
    assert!(
        sims.len() <= 1 && !sims.contains(&None),
        "progress lines carry one sim id: {sims:?}"
    );
    let (code, status) = http(port, "GET", &format!("/jobs/{id}"), None);
    assert_eq!(code, 200, "{status}");

    daemon.drain(Duration::from_secs(30));
    std::fs::remove_dir_all(&spool).ok();
}
