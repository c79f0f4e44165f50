//! `flatdd-serve` — a long-running simulation daemon.
//!
//! ```text
//! flatdd-serve --spool DIR [options]
//!
//!   --spool <dir>              job records + checkpoints + port file (required)
//!   --port <p>                 TCP port (default 0 = OS-assigned; the bound
//!                              port is written to <spool>/serve.port)
//!   --workers <n>              concurrently running jobs (default 2)
//!   --memory-budget-mb <mb>    server-wide admission budget (default 2048)
//!   --queue-cap <n>            bounded queue size, 429 beyond it (default 16)
//!   --retry-max <n>            transient-failure retries per job (default 3)
//!   --checkpoint-every <g>     default periodic checkpoint interval (gates)
//!   --dd-threads <t>           default DD-phase worker threads per job
//!                              (default 1 = sequential)
//!   --flat-shards <s>          default flat-phase state shards per job
//!                              (default auto = one shard per thread)
//! ```
//!
//! Submit with `POST /jobs`, poll `GET /jobs/{id}`, follow a running job
//! live with `GET /jobs/{id}/events` (chunked NDJSON, `?since=` resumes),
//! and observe `GET /metrics` (JSON, or Prometheus exposition via
//! `?format=prometheus`) and `GET /healthz`. SIGTERM/SIGINT drains:
//! admission stops, running jobs
//! are checkpointed and parked, state is persisted, and the process exits 0.
//! A daemon killed outright (SIGKILL, power loss) recovers on restart from
//! the same spool: queued, preempted, and mid-flight jobs are re-admitted,
//! resuming from their checkpoints.

use flatdd::serve::{self, http, Scheduler, ServeConfig};
use flatdd::signal;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

const USAGE: &str = "\
flatdd-serve — long-running FlatDD simulation daemon

Usage:
  flatdd-serve --spool DIR [--port p] [--workers n] [--memory-budget-mb mb]
               [--queue-cap n] [--retry-max n] [--checkpoint-every gates]
               [--dd-threads t] [--flat-shards s]";

/// `GET /jobs/{id}/events` → `Some(id)`; anything else `None`.
fn event_stream_target(req: &http::Request) -> Option<u64> {
    if req.method != "GET" {
        return None;
    }
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match segments.as_slice() {
        ["jobs", id, "events"] => id.parse().ok(),
        _ => None,
    }
}

fn parse_or_die<T: std::str::FromStr>(flag: &str, raw: &str) -> T {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: cannot parse `{raw}`");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut spool: Option<String> = None;
    let mut port: u16 = 0;
    let mut workers = 2usize;
    let mut memory_budget_mb = 2048u64;
    let mut queue_cap = 16usize;
    let mut retry_max = 3u32;
    let mut checkpoint_every: Option<usize> = None;
    let mut dd_threads: Option<usize> = None;
    let mut flat_shards: Option<usize> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{name} expects a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--spool" => spool = Some(val("--spool")),
            "--port" => port = parse_or_die("--port", &val("--port")),
            "--workers" => workers = parse_or_die("--workers", &val("--workers")),
            "--memory-budget-mb" => {
                memory_budget_mb = parse_or_die("--memory-budget-mb", &val("--memory-budget-mb"))
            }
            "--queue-cap" => queue_cap = parse_or_die("--queue-cap", &val("--queue-cap")),
            "--retry-max" => retry_max = parse_or_die("--retry-max", &val("--retry-max")),
            "--checkpoint-every" => {
                let g: usize = parse_or_die("--checkpoint-every", &val("--checkpoint-every"));
                if g == 0 {
                    eprintln!("--checkpoint-every: must be at least 1 gate");
                    std::process::exit(2);
                }
                checkpoint_every = Some(g);
            }
            "--dd-threads" => {
                let t: usize = parse_or_die("--dd-threads", &val("--dd-threads"));
                dd_threads = Some(t.max(1));
            }
            "--flat-shards" => {
                let s: usize = parse_or_die("--flat-shards", &val("--flat-shards"));
                flat_shards = Some(s.max(1));
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return;
            }
            other => {
                eprintln!("unknown flag `{other}`\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let Some(spool) = spool else {
        eprintln!("--spool is required\n\n{USAGE}");
        std::process::exit(2);
    };

    let mut cfg = ServeConfig::at(&spool);
    cfg.workers = workers.max(1);
    cfg.memory_budget_bytes = memory_budget_mb << 20;
    cfg.queue_cap = queue_cap.max(1);
    cfg.retry_max = retry_max;
    cfg.default_checkpoint_every = checkpoint_every;
    cfg.default_dd_threads = dd_threads;
    cfg.default_flat_shards = flat_shards;

    // SIGTERM/SIGINT only set a flag and wake the shutdown watcher below,
    // so the drain runs on the main thread with everything still alive.
    signal::install_handlers();

    let scheduler = match Scheduler::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("flatdd-serve: cannot start scheduler: {e}");
            std::process::exit(e.exit_code());
        }
    };
    let handle = scheduler.handle();

    let listener = match TcpListener::bind(("127.0.0.1", port)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("flatdd-serve: cannot bind 127.0.0.1:{port}: {e}");
            std::process::exit(7);
        }
    };
    let bound = listener
        .local_addr()
        .expect("bound listener has an address");
    let port_file = std::path::Path::new(&spool).join(serve::PORT_FILE);
    if let Err(e) = std::fs::write(&port_file, format!("{}\n", bound.port())) {
        eprintln!("flatdd-serve: cannot write {}: {e}", port_file.display());
        std::process::exit(7);
    }
    eprintln!("[flatdd-serve] listening on {bound}, spool {spool}");

    // The accept loop blocks in `accept()`. std retries EINTR and the C
    // library restarts the call after a handler returns, so a signal alone
    // cannot end it: the watcher blocks in `signal::wait()`, reports the
    // signal, and connects to the listener to wake the loop.
    let (shutdown_tx, shutdown_rx) = std::sync::mpsc::channel();
    let watcher = std::thread::Builder::new()
        .name("flatdd-serve-shutdown".into())
        .spawn(move || {
            let _ = shutdown_tx.send(signal::wait());
            let _ = TcpStream::connect(bound);
        })
        .expect("spawn shutdown watcher");

    let drain_signal = loop {
        let accepted = listener.accept();
        if let Ok(sig) = shutdown_rx.try_recv() {
            break sig;
        }
        match accepted {
            Ok((mut stream, _peer)) => match http::read_request(&mut stream) {
                Ok(req) => {
                    // Live event streams are long-lived chunked responses;
                    // hand each its own thread so the accept loop stays
                    // responsive. Everything else is answered inline.
                    if let Some(id) = event_stream_target(&req) {
                        let h = handle.clone();
                        let since = req
                            .query_param("since")
                            .and_then(|s| s.parse().ok())
                            .unwrap_or(0);
                        let known = h.job(id).is_some();
                        if !known {
                            http::respond_json(&mut stream, 404, "{\"error\":\"no such job\"}");
                        } else {
                            std::thread::spawn(move || {
                                serve::stream::stream_events(&mut stream, &h, id, since);
                            });
                        }
                    } else {
                        let (status, content_type, body) = serve::route(&handle, &req);
                        http::respond(&mut stream, status, content_type, &body);
                    }
                }
                Err(e) => {
                    http::respond_json(
                        &mut stream,
                        400,
                        &format!("{{\"error\":{:?}}}", e.to_string()),
                    );
                }
            },
            Err(e) => {
                // EMFILE and the like persist until a stream thread exits:
                // back off, but not past a shutdown request.
                eprintln!("[flatdd-serve] accept error: {e}");
                if let Ok(sig) = shutdown_rx.recv_timeout(Duration::from_millis(50)) {
                    break sig;
                }
            }
        }
    };
    watcher.join().expect("shutdown watcher panicked");

    eprintln!(
        "[flatdd-serve] received {}, draining: admission closed, checkpointing running jobs",
        signal::signal_name(drain_signal)
    );
    drop(listener);
    scheduler.drain();
    let _ = std::fs::remove_file(&port_file);
    eprintln!("[flatdd-serve] drain complete, exiting");
}
