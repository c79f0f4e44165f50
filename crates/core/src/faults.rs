//! Deterministic fault injection (failpoint registry).
//!
//! Every degradation path the simulator promises — refused conversions on
//! allocation failure, typed errors on worker panics, the numerical-health
//! watchdog, checkpoint corruption rejection — is only *theoretically*
//! correct until something actually fails. This registry turns each failure
//! mode into a named **site** that tests and CI can trip on demand, so every
//! recovery path is exercised deterministically instead of waiting for a
//! real OOM or cosmic ray.
//!
//! ## Activation
//!
//! Faults are compiled in always. The process-global registry (used by the
//! CLI and by any simulator not given its own) arms through the environment:
//!
//! ```text
//! FLATDD_FAULTS=site:action[:when][,site:action[:when]...]
//! ```
//!
//! * `site` — one of [`sites`] (e.g. `alloc.flat`, `checkpoint.bitflip`).
//! * `action` — what to do when the site fires: `error` (report failure),
//!   `panic`, `nan` (poison an amplitude), `truncate=N` (cut a checkpoint
//!   file to `N` bytes), `bitflip=K` (flip bit `K` of a checkpoint file).
//!   Sites interpret the action; an action a site cannot express (e.g.
//!   `truncate` at an allocation site) degrades to `error`.
//! * `when` — `once` (default: fire on the first hit only), `always`, or an
//!   integer `N` (fire on the N-th hit only, 1-based).
//!
//! Multi-tenant serving additionally needs faults scoped to one job, so a
//! chaos test can poison one simulation without touching its neighbors:
//! [`FaultRegistry`] is the instantiable form, carried per job by
//! [`crate::RunContext`] and armed with the same spec grammar.
//!
//! ## Overhead contract
//!
//! Same discipline as telemetry: with no rule armed the cost of a site is
//! **one relaxed atomic load** after first-use initialization — the
//! `telemetry_overhead` bench budget applies unchanged. The registry slow
//! path (string match + hit counting) only runs while at least one fault
//! is armed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// Allocation failure of a flat amplitude buffer (initial state, conversion
/// output, DMAV scratch). Fires inside `try_flat_buffer`.
pub const SITE_ALLOC_FLAT: &str = "alloc.flat";
/// Panic on a conversion worker thread during the parallel DD-to-array
/// fill. Surfaced as [`crate::FlatDdError::WorkerPanic`].
pub const SITE_CONVERT_WORKER: &str = "convert.worker_panic";
/// NaN poisoning of amplitude 0 of the flat state after a gate — must trip
/// the numerical-health watchdog at its next check.
pub const SITE_STATE_NAN: &str = "state.nan";
/// Truncates a checkpoint file before its atomic installation.
pub const SITE_CKPT_TRUNCATE: &str = "checkpoint.truncate";
/// Flips one bit of a checkpoint file before its atomic installation.
pub const SITE_CKPT_BITFLIP: &str = "checkpoint.bitflip";
/// IO error while persisting a spool job record (`flatdd-serve`): the
/// persist call reports failure and the caller's in-memory state must stay
/// coherent. The `panic` action dies at the write instead — the scheduler
/// persists under its lock, so this is the seam for a holder of that lock
/// panicking; every other action degrades to `error`.
pub const SITE_SPOOL_WRITE: &str = "spool.write";
/// Disk-full (`ENOSPC`-shaped IO error) at checkpoint installation time —
/// the temp file is written but the atomic rename is denied. The `panic`
/// action models the process dying at the install point instead (the seam
/// the serve-layer crash-loop quarantine is exercised through); every
/// other action degrades to `error`.
pub const SITE_CKPT_ENOSPC: &str = "checkpoint.enospc";

/// Every registered fault site, for smoke tests that iterate the catalog.
pub fn sites() -> &'static [&'static str] {
    &[
        SITE_ALLOC_FLAT,
        SITE_CONVERT_WORKER,
        SITE_STATE_NAN,
        SITE_CKPT_TRUNCATE,
        SITE_CKPT_BITFLIP,
        SITE_SPOOL_WRITE,
        SITE_CKPT_ENOSPC,
    ]
}

/// What an armed site does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Report the operation as failed (typed error on the normal surface).
    Error,
    /// Panic at the site (exercises unwind containment).
    Panic,
    /// Poison a value with NaN.
    Nan,
    /// Truncate the target file to this many bytes.
    Truncate(u64),
    /// Flip this bit index (over the whole file, wrapping).
    BitFlip(u64),
}

impl FaultAction {
    /// Stable label used in telemetry events.
    pub fn label(&self) -> &'static str {
        match self {
            FaultAction::Error => "error",
            FaultAction::Panic => "panic",
            FaultAction::Nan => "nan",
            FaultAction::Truncate(_) => "truncate",
            FaultAction::BitFlip(_) => "bitflip",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum When {
    Once,
    Always,
    OnNth(u64),
}

#[derive(Debug)]
struct Rule {
    site: String,
    action: FaultAction,
    when: When,
    hits: u64,
    fired: bool,
}

/// An isolated set of armed fault rules. One lives behind [`global`] for
/// the single-tenant surface; serving hands each job its own so chaos in
/// one simulation cannot leak into another.
#[derive(Debug)]
pub struct FaultRegistry {
    /// `true` while at least one rule is armed — the one-load fast path.
    armed: AtomicBool,
    rules: Mutex<Vec<Rule>>,
}

impl Default for FaultRegistry {
    fn default() -> Self {
        Self::disarmed()
    }
}

impl FaultRegistry {
    /// A registry with nothing armed.
    pub fn disarmed() -> Self {
        FaultRegistry {
            armed: AtomicBool::new(false),
            rules: Mutex::new(Vec::new()),
        }
    }

    /// A registry armed from a spec string (the `FLATDD_FAULTS` grammar).
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        let reg = Self::disarmed();
        reg.set_spec(spec)?;
        Ok(reg)
    }

    /// Replaces the armed rule set from a spec string; an empty spec
    /// disarms everything.
    pub fn set_spec(&self, spec: &str) -> Result<(), String> {
        let parsed = parse_spec(spec)?;
        let mut guard = self.rules.lock().unwrap_or_else(|e| e.into_inner());
        self.armed.store(!parsed.is_empty(), Ordering::Relaxed);
        *guard = parsed;
        Ok(())
    }

    /// Disarms every fault (test teardown).
    pub fn clear(&self) {
        let _ = self.set_spec("");
    }

    /// The failpoint probe: returns the armed action when `site` fires on
    /// this hit. The disarmed fast path is a single relaxed atomic load.
    #[inline]
    pub fn fires(&self, site: &str) -> Option<FaultAction> {
        if !self.armed.load(Ordering::Relaxed) {
            return None;
        }
        self.fires_slow(site)
    }

    #[cold]
    fn fires_slow(&self, site: &str) -> Option<FaultAction> {
        let mut guard = self.rules.lock().unwrap_or_else(|e| e.into_inner());
        let rule = guard.iter_mut().find(|r| r.site == site)?;
        rule.hits += 1;
        let fire = match rule.when {
            When::Always => true,
            When::Once => !rule.fired,
            When::OnNth(n) => rule.hits == n,
        };
        if !fire {
            return None;
        }
        rule.fired = true;
        let action = rule.action;
        drop(guard);
        if qtelemetry::enabled() {
            qtelemetry::emit(qtelemetry::Event::Fault {
                ts_us: qtelemetry::now_us(),
                site: site.to_string(),
                action: action.label(),
            });
        }
        Some(action)
    }
}

/// The process-global registry, armed once from `FLATDD_FAULTS`. The CLI
/// and any simulator without a scoped [`crate::RunContext`] probe this one.
pub fn global() -> &'static FaultRegistry {
    static GLOBAL: OnceLock<FaultRegistry> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let spec = std::env::var("FLATDD_FAULTS").unwrap_or_default();
        FaultRegistry::from_spec(&spec).unwrap_or_else(|e| {
            eprintln!("[flatdd] ignoring malformed FLATDD_FAULTS: {e}");
            FaultRegistry::disarmed()
        })
    })
}

/// Replaces the [`global`] rule set (see [`FaultRegistry::set_spec`]).
/// Intended for tests, which must not mutate process-global environment.
pub fn set_spec(spec: &str) -> Result<(), String> {
    global().set_spec(spec)
}

/// Disarms every [`global`] fault (test teardown).
pub fn clear() {
    global().clear();
}

/// Probes the [`global`] registry (see [`FaultRegistry::fires`]).
#[inline]
pub fn fires(site: &str) -> Option<FaultAction> {
    global().fires(site)
}

fn parse_spec(spec: &str) -> Result<Vec<Rule>, String> {
    let mut out = Vec::new();
    for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let mut fields = part.split(':');
        let site = fields.next().unwrap_or_default().trim();
        if site.is_empty() {
            return Err(format!("`{part}`: missing site"));
        }
        let action_raw = fields
            .next()
            .map(str::trim)
            .filter(|a| !a.is_empty())
            .ok_or_else(|| format!("`{part}`: missing action"))?;
        let action = parse_action(action_raw).ok_or_else(|| {
            format!(
                "`{part}`: unknown action `{action_raw}` (error|panic|nan|truncate=N|bitflip=K)"
            )
        })?;
        let when = match fields.next().map(str::trim) {
            None | Some("once") | Some("") => When::Once,
            Some("always") => When::Always,
            Some(n) => When::OnNth(
                n.parse::<u64>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("`{part}`: bad trigger `{n}` (once|always|N>=1)"))?,
            ),
        };
        if fields.next().is_some() {
            return Err(format!("`{part}`: too many `:` fields"));
        }
        out.push(Rule {
            site: site.to_string(),
            action,
            when,
            hits: 0,
            fired: false,
        });
    }
    Ok(out)
}

fn parse_action(raw: &str) -> Option<FaultAction> {
    let (name, param) = match raw.split_once('=') {
        Some((n, p)) => (n, Some(p)),
        None => (raw, None),
    };
    match (name, param) {
        ("error", None) => Some(FaultAction::Error),
        ("panic", None) => Some(FaultAction::Panic),
        ("nan", None) => Some(FaultAction::Nan),
        ("truncate", p) => Some(FaultAction::Truncate(
            p.map_or(Some(0), |p| p.parse().ok())?,
        )),
        ("bitflip", p) => Some(FaultAction::BitFlip(p.map_or(Some(0), |p| p.parse().ok())?)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global; tests touching it must not interleave.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disarmed_sites_never_fire() {
        let _g = LOCK.lock().unwrap();
        clear();
        for site in sites() {
            assert_eq!(fires(site), None);
        }
    }

    #[test]
    fn once_fires_exactly_once() {
        let _g = LOCK.lock().unwrap();
        set_spec("alloc.flat:error").unwrap();
        assert_eq!(fires(SITE_ALLOC_FLAT), Some(FaultAction::Error));
        assert_eq!(fires(SITE_ALLOC_FLAT), None);
        assert_eq!(fires(SITE_STATE_NAN), None, "other sites stay quiet");
        clear();
    }

    #[test]
    fn always_and_nth_triggers() {
        let _g = LOCK.lock().unwrap();
        set_spec("state.nan:nan:always, checkpoint.bitflip:bitflip=37:3").unwrap();
        for _ in 0..4 {
            assert_eq!(fires(SITE_STATE_NAN), Some(FaultAction::Nan));
        }
        assert_eq!(fires(SITE_CKPT_BITFLIP), None);
        assert_eq!(fires(SITE_CKPT_BITFLIP), None);
        assert_eq!(fires(SITE_CKPT_BITFLIP), Some(FaultAction::BitFlip(37)));
        assert_eq!(fires(SITE_CKPT_BITFLIP), None);
        clear();
    }

    #[test]
    fn malformed_specs_are_rejected() {
        let _g = LOCK.lock().unwrap();
        for bad in [
            "alloc.flat",
            "alloc.flat:frobnicate",
            "alloc.flat:error:sometimes",
            "alloc.flat:error:0",
            ":error",
            "a:truncate=x",
        ] {
            assert!(parse_spec(bad).is_err(), "`{bad}` must be rejected");
        }
        assert!(parse_spec("").unwrap().is_empty());
        assert_eq!(parse_spec("a:truncate=128").unwrap()[0].action, {
            FaultAction::Truncate(128)
        });
        clear();
    }

    #[test]
    fn scoped_registries_fire_independently() {
        // No LOCK needed: scoped registries never touch the global one.
        let a = FaultRegistry::from_spec("alloc.flat:error:always").unwrap();
        let b = FaultRegistry::disarmed();
        assert_eq!(a.fires(SITE_ALLOC_FLAT), Some(FaultAction::Error));
        assert_eq!(b.fires(SITE_ALLOC_FLAT), None);
        assert_eq!(a.fires(SITE_ALLOC_FLAT), Some(FaultAction::Error));
        a.clear();
        assert_eq!(a.fires(SITE_ALLOC_FLAT), None);
    }
}
