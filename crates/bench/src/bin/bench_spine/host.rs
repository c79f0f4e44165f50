//! What the harness needs from the machine it runs on: the header stamped
//! on every report, `/proc` memory probes, and the scrubbed environment
//! that children and the daemon run in.

use std::process::Command;

/// Hardware threads visible to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The thread count of every multi-thread repetition: the largest power of
/// two that is at most `min(nproc / 2, 4)`, and at least 1. Half of the
/// hardware threads stay with the harness, the load generator and the
/// host: a fork-join run on every hardware thread of a shared machine
/// times where the hypervisor put the threads (README.md, Calibration).
pub fn default_threads() -> usize {
    let cap = (nproc() / 2).clamp(1, 4);
    1 << (usize::BITS - 1 - cap.leading_zeros())
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// A `Key:   value kB` line of a `/proc` status file, in bytes.
fn proc_kib_field(text: &str, key: &str) -> Option<u64> {
    let rest = text.lines().find_map(|l| l.strip_prefix(key))?;
    let kib: u64 = rest.split_whitespace().next()?.parse().ok()?;
    Some(kib * 1024)
}

/// Peak resident set (`VmHWM`) of process `pid`, in bytes.
pub fn peak_rss_bytes(pid: u32) -> Option<u64> {
    proc_kib_field(&read(&format!("/proc/{pid}/status"))?, "VmHWM:")
}

pub fn mem_available_bytes() -> Option<u64> {
    proc_kib_field(&read("/proc/meminfo")?, "MemAvailable:")
}

pub fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size in bytes of cpu0's highest-level cache as sysfs reports it.
pub fn llc_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let (Some(level), Some(size)) =
            (read(&format!("{dir}/level")), read(&format!("{dir}/size")))
        else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let Some(bytes) = parse_size(size.trim()) else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, b)| b)
}

/// `"2048K"`, `"260M"`, `"512"` → bytes.
fn parse_size(s: &str) -> Option<u64> {
    let (digits, mult) = match s.chars().last()? {
        'K' | 'k' => (&s[..s.len() - 1], 1 << 10),
        'M' | 'm' => (&s[..s.len() - 1], 1 << 20),
        'G' | 'g' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * mult)
}

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

pub fn rustc_version() -> String {
    first_line_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())
}

/// The commit of the tree the benchmark runs from; the driver's checkout is
/// not a git repository, which reads as "unknown".
pub fn git_rev() -> String {
    first_line_of("git", &["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "unknown".into())
}

/// Removes every `FLATDD_*` variable from `cmd`'s environment. The engine
/// reads them in `FlatDdConfig::default()`, `GovernorConfig::from_env()`,
/// the fault registry and the vecops dispatcher; a benchmark child must see
/// none, so all of its parameters arrive on its command line.
pub fn scrub_env(cmd: &mut Command) {
    for (k, _) in std::env::vars_os() {
        if is_engine_var(&k) {
            cmd.env_remove(k);
        }
    }
}

fn is_engine_var(key: &std::ffi::OsStr) -> bool {
    key.to_string_lossy().starts_with("FLATDD_")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_and_sysfs_shapes() {
        let status = "Name:\tx\nVmHWM:\t   1036 kB\nVmRSS:\t 900 kB\n";
        assert_eq!(proc_kib_field(status, "VmHWM:"), Some(1036 * 1024));
        assert_eq!(proc_kib_field(status, "VmSwap:"), None);
        assert_eq!(parse_size("2048K"), Some(2048 << 10));
        assert_eq!(parse_size("260M"), Some(260 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size(""), None);
    }

    #[test]
    fn default_threads_is_a_power_of_two_within_nproc() {
        let t = default_threads();
        assert!(t.is_power_of_two() && t <= nproc() && t <= 4);
        assert!(peak_rss_bytes(std::process::id()).is_some_and(|b| b > 0));
    }

    #[test]
    fn scrub_targets_only_engine_variables() {
        use std::ffi::OsStr;
        for k in ["FLATDD_FAULTS", "FLATDD_DD_THREADS", "FLATDD_"] {
            assert!(is_engine_var(OsStr::new(k)), "{k}");
        }
        for k in ["PATH", "CARGO_TARGET_DIR", "XFLATDD_X", "flatdd_x"] {
            assert!(!is_engine_var(OsStr::new(k)), "{k}");
        }
    }
}
