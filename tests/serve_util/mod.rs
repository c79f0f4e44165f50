//! Shared helpers for the `flatdd-serve` end-to-end tests: spawn the
//! daemon against a spool, talk minimal HTTP/1.1 to it, poll job states.

#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

pub const SERVE: &str = env!("CARGO_BIN_EXE_flatdd-serve");

/// A running daemon bound to an OS-assigned port.
pub struct Daemon {
    pub child: Child,
    pub port: u16,
    pub spool: PathBuf,
}

impl Daemon {
    /// Spawns `flatdd-serve --spool <spool> --port 0 <extra...>` and waits
    /// for the port file.
    pub fn start(spool: &Path, extra: &[&str]) -> Daemon {
        Self::start_with_env(spool, extra, &[])
    }

    /// [`Self::start`] with extra environment variables for the daemon.
    pub fn start_with_env(spool: &Path, extra: &[&str], env: &[(&str, &str)]) -> Daemon {
        std::fs::create_dir_all(spool).unwrap();
        let port_file = spool.join("serve.port");
        // A stale port file from a previous instance must not be read as
        // this instance's port.
        let _ = std::fs::remove_file(&port_file);
        let child = Command::new(SERVE)
            .args(["--spool", spool.to_str().unwrap(), "--port", "0"])
            .args(extra)
            .envs(env.iter().copied())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn flatdd-serve");
        let deadline = Instant::now() + Duration::from_secs(30);
        let port = loop {
            if let Ok(s) = std::fs::read_to_string(&port_file) {
                if let Ok(p) = s.trim().parse::<u16>() {
                    break p;
                }
            }
            assert!(
                Instant::now() < deadline,
                "daemon did not write {} within 30s",
                port_file.display()
            );
            std::thread::sleep(Duration::from_millis(10));
        };
        Daemon {
            child,
            port,
            spool: spool.to_path_buf(),
        }
    }

    /// Sends SIGTERM and waits for exit, asserting a clean (code 0) drain
    /// within `timeout`.
    pub fn drain(mut self, timeout: Duration) {
        let term = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .expect("send SIGTERM");
        assert!(term.success());
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                assert_eq!(status.code(), Some(0), "drain must exit 0");
                return;
            }
            assert!(
                Instant::now() < deadline,
                "daemon did not drain within {timeout:?}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// SIGKILL — the crash the recovery tests simulate.
    pub fn kill(mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

/// One HTTP request against localhost; returns `(status, body)`.
pub fn http(port: u16, method: &str, path: &str, body: Option<&str>) -> (u32, String) {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let body = body.unwrap_or("");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u32 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {response:?}"));
    let payload = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, payload)
}

/// Extracts a top-level `"id": N` from a submit response.
pub fn job_id(body: &str) -> u64 {
    field_u64(body, "\"id\":").unwrap_or_else(|| panic!("no id in {body:?}"))
}

/// Pulls the number right after `key` out of a JSON string (the tests
/// only need flat, known-shape payloads — no full parser required).
pub fn field_u64(body: &str, key: &str) -> Option<u64> {
    let i = body.find(key)? + key.len();
    let digits: String = body[i..]
        .chars()
        .skip_while(|c| c.is_whitespace())
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// The job's `"state"` value from a status payload.
pub fn job_state(body: &str) -> String {
    let key = "\"state\":\"";
    let i = body
        .find(key)
        .unwrap_or_else(|| panic!("no state in {body:?}"))
        + key.len();
    body[i..].chars().take_while(|&c| c != '"').collect()
}

/// Polls `GET /jobs/{id}` until the state is terminal; returns the final
/// status body.
pub fn wait_terminal(port: u16, id: u64, timeout: Duration) -> String {
    let deadline = Instant::now() + timeout;
    loop {
        let (code, body) = http(port, "GET", &format!("/jobs/{id}"), None);
        assert_eq!(code, 200, "status poll failed: {body}");
        let state = job_state(&body);
        if matches!(state.as_str(), "done" | "failed" | "cancelled") {
            return body;
        }
        assert!(
            Instant::now() < deadline,
            "job {id} still `{state}` after {timeout:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Parses the `heavy` array of a `done` status payload into
/// `(index, re, im)` triples.
pub fn heavy_amplitudes(body: &str) -> Vec<(usize, f64, f64)> {
    let mut out = Vec::new();
    let Some(start) = body.find("\"heavy\":[") else {
        return out;
    };
    let rest = &body[start + "\"heavy\":[".len()..];
    let end = rest.find(']').unwrap_or(rest.len());
    for item in rest[..end].split("},") {
        let idx = field_u64(item, "\"index\":");
        let re = field_f64(item, "\"re\":");
        let im = field_f64(item, "\"im\":");
        if let (Some(idx), Some(re), Some(im)) = (idx, re, im) {
            out.push((idx as usize, re, im));
        }
    }
    out
}

fn field_f64(body: &str, key: &str) -> Option<f64> {
    let i = body.find(key)? + key.len();
    let num: String = body[i..]
        .chars()
        .take_while(|&c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
        .collect();
    num.parse().ok()
}

/// A fresh spool directory under the system temp dir.
pub fn fresh_spool(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flatdd-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
