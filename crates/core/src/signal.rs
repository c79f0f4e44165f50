//! Flag-based SIGINT/SIGTERM handling.
//!
//! A default-disposition SIGINT kills the process wherever it happens to
//! be — mid-checkpoint-write, with telemetry sinks unflushed, with the run
//! unreported. This module installs async-signal-safe handlers that only
//! set an atomic flag; the simulator polls the flag at gate boundaries
//! ([`crate::FlatDdSimulator::apply`]) and turns it into a typed
//! [`crate::FlatDdError::Interrupted`] — optionally after writing a
//! checkpoint — so callers unwind through the normal error path, flush
//! their sinks, and exit with a stable code.
//!
//! The handler is one-shot per signal: the **first** SIGINT/SIGTERM sets
//! the flag and restores the default disposition, so a second signal kills
//! the process immediately (the standard escape hatch when graceful
//! shutdown hangs).
//!
//! Handlers are opt-in — nothing is installed until
//! [`install_handlers`] is called (the CLI does; library users decide).
//!
//! A thread with nothing to poll — the daemon's shutdown watcher — blocks in
//! [`wait`] instead: the handler also `write(2)`s one byte to a self-pipe
//! (still async-signal-safe), because a flag cannot wake a thread parked in
//! a system call that the C library restarts after the handler returns.

use std::sync::atomic::{AtomicI32, Ordering};

/// SIGINT signal number (POSIX).
pub const SIGINT: i32 = 2;
/// SIGTERM signal number (POSIX).
pub const SIGTERM: i32 = 15;
/// SIGKILL signal number (POSIX). Never handled here; a run cancelled with
/// it ([`crate::RunContext::abandon`]) stops like a killed process, leaving
/// no final checkpoint.
pub const SIGKILL: i32 = 9;

/// Last received signal number; 0 = none.
static PENDING: AtomicI32 = AtomicI32::new(0);

#[cfg(unix)]
mod imp {
    use std::io::Read;
    use std::os::fd::IntoRawFd;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicI32, Ordering};
    use std::sync::OnceLock;

    // Bind the C library's `signal(2)` and `write(2)` directly — handlers
    // here only touch atomics and call `write`, both async-signal-safe, and
    // taking no libc dependency keeps the workspace std-only.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    const SIG_DFL: usize = 0;
    const SIG_ERR: usize = usize::MAX;

    /// Write end of the self-pipe; -1 until the first [`wake_pipe`].
    static WAKE_FD: AtomicI32 = AtomicI32::new(-1);

    extern "C" fn on_signal(sig: i32) {
        super::notify(sig);
        // One-shot: a second signal of the same kind gets the default
        // (terminating) disposition.
        // SAFETY: `signal(2)` is async-signal-safe and `sig` is the number
        // this handler was installed for.
        unsafe {
            signal(sig, SIG_DFL);
        }
    }

    /// Wakes [`super::wait`]. Async-signal-safe.
    pub(super) fn wake() {
        let fd = WAKE_FD.load(Ordering::SeqCst);
        if fd >= 0 {
            // SAFETY: `fd` is the write end `wake_pipe` leaked, open for the
            // life of the process; the buffer is one readable byte. A failed
            // write only costs the wake-up: the flag is already set.
            unsafe {
                write(fd, [1u8].as_ptr(), 1);
            }
        }
    }

    /// Read end of the self-pipe, created and published on first use. A
    /// signal that lands before the write end is published leaves only the
    /// flag, so callers check the flag after this returns.
    pub(super) fn wake_pipe() -> &'static UnixStream {
        static RX: OnceLock<UnixStream> = OnceLock::new();
        RX.get_or_init(|| {
            let (rx, tx) = UnixStream::pair().expect("socketpair for the signal self-pipe");
            WAKE_FD.store(tx.into_raw_fd(), Ordering::SeqCst);
            rx
        })
    }

    /// Blocks until a byte arrives (or the read fails; the caller re-checks
    /// the flag either way).
    pub(super) fn block_on(mut rx: &UnixStream) {
        let _ = rx.read(&mut [0u8; 1]);
    }

    pub(super) fn install(signums: &[i32]) -> bool {
        let mut ok = true;
        for &s in signums {
            // SAFETY: `on_signal` is an `extern "C" fn(i32)` that only sets
            // an atomic, writes one byte to a pipe and resets its own
            // disposition, all async-signal-safe
            // (`tests/crash_recovery.rs::sigterm_checkpoints_and_exits_resumable`,
            // `tests/serve_jobs.rs::sigterm_wakes_a_daemon_blocked_in_accept`).
            ok &= unsafe { signal(s, on_signal as extern "C" fn(i32) as usize) } != SIG_ERR;
        }
        ok
    }
}

#[cfg(not(unix))]
mod imp {
    pub(super) fn install(_signums: &[i32]) -> bool {
        false
    }

    pub(super) fn wake() {}

    pub(super) fn wake_pipe() {}

    /// No signals here: only [`super::raise_flag`] can end a wait, so a
    /// coarse re-check is all there is to do.
    pub(super) fn block_on(_rx: ()) {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
}

/// Installs the flag-setting handlers for SIGINT and SIGTERM. Returns
/// `false` when installation failed (or the platform has no POSIX
/// signals), in which case the default dispositions remain.
pub fn install_handlers() -> bool {
    imp::install(&[SIGINT, SIGTERM])
}

/// The pending signal, if any, *without* consuming it.
pub fn pending() -> Option<i32> {
    match PENDING.load(Ordering::Relaxed) {
        0 => None,
        s => Some(s),
    }
}

/// Takes (and clears) the pending signal. The simulator calls this when it
/// converts the flag into [`crate::FlatDdError::Interrupted`], so one
/// signal interrupts one run instead of poisoning every run after it.
pub fn take() -> Option<i32> {
    match PENDING.swap(0, Ordering::Relaxed) {
        0 => None,
        s => Some(s),
    }
}

/// Sets the flag as if `sig` had been delivered (tests; also lets embedders
/// route their own shutdown mechanism through the same graceful path).
pub fn raise_flag(sig: i32) {
    notify(sig);
}

/// Sets the flag, then wakes [`wait`]. Async-signal-safe: the handler runs
/// exactly this.
fn notify(sig: i32) {
    PENDING.store(sig, Ordering::SeqCst);
    imp::wake();
}

/// Blocks the calling thread until a signal is pending and returns it
/// *without* consuming it. Meant for one watcher thread per process: a
/// wake-up byte is read by one waiter only.
pub fn wait() -> i32 {
    let rx = imp::wake_pipe();
    loop {
        // SeqCst pairs with `notify`: it stores the flag and then loads the
        // pipe's write end, this side published the write end and now loads
        // the flag, so a signal is seen here or wakes the read below.
        match PENDING.load(Ordering::SeqCst) {
            0 => imp::block_on(rx),
            sig => return sig,
        }
    }
}

/// Human-readable name of a handled signal number.
pub fn signal_name(sig: i32) -> &'static str {
    match sig {
        SIGINT => "SIGINT",
        SIGTERM => "SIGTERM",
        _ => "signal",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_take_semantics() {
        // Note: no real signals here — other tests share the process.
        assert_eq!(take(), None);
        raise_flag(SIGTERM);
        assert_eq!(wait(), SIGTERM, "wait returns a pending signal");
        assert_eq!(pending(), Some(SIGTERM), "without consuming it");
        assert_eq!(take(), Some(SIGTERM));
        assert_eq!(take(), None, "take consumes the flag");
        assert_eq!(pending(), None);
    }

    #[test]
    fn names() {
        assert_eq!(signal_name(SIGINT), "SIGINT");
        assert_eq!(signal_name(SIGTERM), "SIGTERM");
        assert_eq!(signal_name(99), "signal");
    }
}
