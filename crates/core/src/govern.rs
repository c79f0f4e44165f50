//! The resource governor: memory/time budgets and the numerical watchdog.
//!
//! The hybrid simulator's defining move — converting the DD state into a
//! dense `2^n` array — is also its riskiest: on a large run under memory
//! pressure an unchecked conversion OOM-kills the process. The governor
//! turns every run into a *budgeted* operation:
//!
//! * **Memory**: an allocator-level budget checked after every gate against
//!   the simulator's own accounting, plus an optional whole-process RSS
//!   budget probed periodically from `/proc` (see [`crate::memory`]). A
//!   breach first triggers the degradation ladder (compute-table flush,
//!   garbage collection, scratch release) and only errors out when that is
//!   not enough; a conversion that cannot fit is *refused* and the run
//!   continues in DD mode.
//! * **Time**: a wall-clock deadline checked before every gate. On breach
//!   the run returns [`crate::FlatDdError::Deadline`] carrying a partial
//!   [`crate::RunOutcome`], so the caller can retry with a different policy.
//! * **Numerical health**: a periodic watchdog verifying the state norm and
//!   rejecting NaN/Inf amplitudes in both the DD and DMAV phases.

use std::time::{Duration, Instant};

/// Budgets and watchdog tunables of one simulator instance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GovernorConfig {
    /// Budget on the simulator's own accounted bytes (DD tables, flat
    /// arrays, scratch); `None` = unlimited.
    pub memory_budget_bytes: Option<usize>,
    /// Budget on whole-process resident set size, probed from
    /// `/proc/self/status` every [`Self::rss_probe_every`] gates; `None` =
    /// unlimited. Note this is process-global: concurrent simulators (or a
    /// test harness) share it.
    pub rss_budget_bytes: Option<usize>,
    /// Wall-clock deadline measured from simulator construction; `None` =
    /// unlimited.
    pub deadline: Option<Duration>,
    /// Gates between `/proc` RSS probes (the probe reads a file, so it is
    /// much more expensive than the allocator accounting).
    pub rss_probe_every: usize,
    /// Gates between numerical-health checks (norm + NaN/Inf). In the DMAV
    /// phase one check costs `O(2^n)`.
    pub health_check_every: usize,
    /// Allowed drift of the state 2-norm away from 1 before the watchdog
    /// reports divergence.
    pub norm_tolerance: f64,
    /// Arms the approximation rung of the degradation ladder: on a memory
    /// breach that survives every exact relief measure, the DD-phase state
    /// may be truncated (lowest-contribution edges pruned, renormalized) as
    /// long as the *cumulative* fidelity product stays at or above this
    /// floor. `None` (the default) keeps the exact, fatal behavior. Valid
    /// values are in `(0, 1]`; a floor of exactly `1.0` arms the rung but
    /// only accepts lossless truncations, so results stay bit-identical.
    pub approx_fidelity_floor: Option<f64>,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig {
            memory_budget_bytes: None,
            rss_budget_bytes: None,
            deadline: None,
            rss_probe_every: 256,
            health_check_every: 64,
            norm_tolerance: 1e-6,
            approx_fidelity_floor: None,
        }
    }
}

impl GovernorConfig {
    /// Unlimited budgets with default watchdog cadence.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Reads budgets from the environment on top of the defaults:
    /// `FLATDD_MEMORY_BUDGET_MB` (allocator-accounted bytes),
    /// `FLATDD_RSS_BUDGET_MB` (process RSS), `FLATDD_DEADLINE_SECS`
    /// (fractional seconds), and `FLATDD_APPROX_FLOOR` (cumulative fidelity
    /// floor in `(0, 1]` arming the approximation rung). Unparseable values
    /// are ignored. This is how CI runs the whole test suite under a budget
    /// without touching code.
    pub fn from_env() -> Self {
        Self::from_lookup(|name| std::env::var(name).ok())
    }

    /// [`Self::from_env`] with an injectable variable source (testable
    /// without mutating process-global environment).
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Self {
        let read = |name: &str| -> Option<f64> {
            let parsed = lookup(name)?.trim().parse::<f64>().ok()?;
            (parsed.is_finite() && parsed >= 0.0).then_some(parsed)
        };
        let mut cfg = Self::default();
        if let Some(mb) = read("FLATDD_MEMORY_BUDGET_MB") {
            cfg.memory_budget_bytes = Some((mb * 1024.0 * 1024.0) as usize);
        }
        if let Some(mb) = read("FLATDD_RSS_BUDGET_MB") {
            cfg.rss_budget_bytes = Some((mb * 1024.0 * 1024.0) as usize);
        }
        if let Some(secs) = read("FLATDD_DEADLINE_SECS") {
            cfg.deadline = Some(Duration::from_secs_f64(secs));
        }
        if let Some(raw) = lookup("FLATDD_APPROX_FLOOR") {
            if let Ok(f) = raw.trim().parse::<f64>() {
                if f.is_finite() && f > 0.0 && f <= 1.0 {
                    cfg.approx_fidelity_floor = Some(f);
                }
            }
        }
        cfg
    }

    /// True when no budget is configured (the watchdog may still run).
    pub fn is_unlimited(&self) -> bool {
        self.memory_budget_bytes.is_none()
            && self.rss_budget_bytes.is_none()
            && self.deadline.is_none()
    }
}

/// A detected budget breach. The simulator decides how to react (degrade,
/// refuse, or surface a typed error with a partial outcome).
#[derive(Clone, Debug, PartialEq)]
pub enum Breach {
    /// A memory budget was exceeded.
    Memory {
        /// Configured budget in bytes.
        budget_bytes: usize,
        /// Observed bytes at detection time.
        observed_bytes: usize,
        /// Which probe tripped (`"allocator accounting"` / `"process RSS"`).
        context: &'static str,
    },
    /// The wall-clock deadline elapsed.
    Deadline {
        /// Configured deadline.
        budget: Duration,
        /// Elapsed time at detection.
        elapsed: Duration,
    },
}

/// Per-simulator budget enforcement state.
#[derive(Debug)]
pub struct ResourceGovernor {
    cfg: GovernorConfig,
    start: Instant,
    gates_since_rss_probe: usize,
    gates_since_health: usize,
}

impl ResourceGovernor {
    /// Starts the governor's clock.
    pub fn new(cfg: GovernorConfig) -> Self {
        ResourceGovernor {
            cfg,
            start: Instant::now(),
            gates_since_rss_probe: 0,
            gates_since_health: 0,
        }
    }

    /// The configuration this governor enforces.
    pub fn config(&self) -> &GovernorConfig {
        &self.cfg
    }

    /// Wall-clock time since construction.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Checks the deadline alone (cheap; called before every gate).
    pub fn check_deadline(&self) -> Result<(), Breach> {
        if let Some(budget) = self.cfg.deadline {
            let elapsed = self.start.elapsed();
            if elapsed > budget {
                return Err(Breach::Deadline { budget, elapsed });
            }
        }
        Ok(())
    }

    /// Checks the memory budgets against the caller's accounted bytes, and
    /// (every [`GovernorConfig::rss_probe_every`] gates) the process RSS.
    /// Called after every step, with the `gates` it applied (1, or the
    /// gates a fused block or a run folds).
    pub fn check_memory(&mut self, accounted_bytes: usize, gates: usize) -> Result<(), Breach> {
        if let Some(budget) = self.cfg.memory_budget_bytes {
            if accounted_bytes > budget {
                return Err(Breach::Memory {
                    budget_bytes: budget,
                    observed_bytes: accounted_bytes,
                    context: "allocator accounting",
                });
            }
        }
        if let Some(budget) = self.cfg.rss_budget_bytes {
            self.gates_since_rss_probe += gates;
            if self.gates_since_rss_probe >= self.cfg.rss_probe_every.max(1) {
                self.gates_since_rss_probe = 0;
                if let Some(rss) = crate::memory::current_rss_bytes() {
                    if rss as usize > budget {
                        return Err(Breach::Memory {
                            budget_bytes: budget,
                            observed_bytes: rss as usize,
                            context: "process RSS",
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Admission control for a proposed allocation of `extra_bytes` on top
    /// of `accounted_bytes`: `false` means the allocation would bust the
    /// memory budget and must be refused (e.g. a DD-to-array conversion).
    pub fn admits_allocation(&self, accounted_bytes: usize, extra_bytes: usize) -> bool {
        match self.cfg.memory_budget_bytes {
            Some(budget) => accounted_bytes.saturating_add(extra_bytes) <= budget,
            None => true,
        }
    }

    /// Advances the health-check counter by the `gates` a step applied;
    /// `true` means a numerical-health check is due after it.
    pub fn health_check_due(&mut self, gates: usize) -> bool {
        self.gates_since_health += gates;
        if self.gates_since_health >= self.cfg.health_check_every.max(1) {
            self.gates_since_health = 0;
            true
        } else {
            false
        }
    }

    /// Gates until the next health check or (under an RSS budget) RSS probe
    /// falls due (at least 1): the most a step may fold for every periodic
    /// check to land on the gate it counts to.
    pub fn gates_until_due(&self) -> usize {
        let left = |every: usize, since: usize| every.max(1).saturating_sub(since).max(1);
        let health = left(self.cfg.health_check_every, self.gates_since_health);
        match self.cfg.rss_budget_bytes {
            Some(_) => health.min(left(self.cfg.rss_probe_every, self.gates_since_rss_probe)),
            None => health,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_config_never_breaches() {
        let mut g = ResourceGovernor::new(GovernorConfig::default());
        assert!(g.config().is_unlimited());
        assert!(g.check_deadline().is_ok());
        assert!(g.check_memory(usize::MAX / 2, 1).is_ok());
        assert!(g.admits_allocation(usize::MAX / 2, usize::MAX / 2));
    }

    #[test]
    fn memory_budget_breach_reports_both_sides() {
        let mut g = ResourceGovernor::new(GovernorConfig {
            memory_budget_bytes: Some(1000),
            ..GovernorConfig::default()
        });
        assert!(g.check_memory(1000, 1).is_ok(), "budget is inclusive");
        match g.check_memory(1001, 1) {
            Err(Breach::Memory {
                budget_bytes,
                observed_bytes,
                context,
            }) => {
                assert_eq!(budget_bytes, 1000);
                assert_eq!(observed_bytes, 1001);
                assert_eq!(context, "allocator accounting");
            }
            other => panic!("expected memory breach, got {other:?}"),
        }
    }

    #[test]
    fn allocation_admission_respects_budget_and_saturates() {
        let g = ResourceGovernor::new(GovernorConfig {
            memory_budget_bytes: Some(1 << 20),
            ..GovernorConfig::default()
        });
        assert!(g.admits_allocation(0, 1 << 20));
        assert!(!g.admits_allocation(1, 1 << 20));
        // Saturating add: a huge request must not wrap around into admission.
        assert!(!g.admits_allocation(usize::MAX, usize::MAX));
    }

    #[test]
    fn zero_deadline_breaches_immediately() {
        let g = ResourceGovernor::new(GovernorConfig {
            deadline: Some(Duration::ZERO),
            ..GovernorConfig::default()
        });
        // Any nonzero elapsed time exceeds a zero budget.
        std::thread::sleep(Duration::from_millis(1));
        match g.check_deadline() {
            Err(Breach::Deadline { budget, elapsed }) => {
                assert_eq!(budget, Duration::ZERO);
                assert!(elapsed > Duration::ZERO);
            }
            other => panic!("expected deadline breach, got {other:?}"),
        }
    }

    #[test]
    fn generous_deadline_does_not_breach() {
        let g = ResourceGovernor::new(GovernorConfig {
            deadline: Some(Duration::from_secs(3600)),
            ..GovernorConfig::default()
        });
        assert!(g.check_deadline().is_ok());
    }

    #[test]
    fn health_check_cadence() {
        let mut g = ResourceGovernor::new(GovernorConfig {
            health_check_every: 3,
            ..GovernorConfig::default()
        });
        let due: Vec<bool> = (0..7).map(|_| g.health_check_due(1)).collect();
        assert_eq!(due, [false, false, true, false, false, true, false]);
    }

    #[test]
    fn cadences_count_gates_not_steps() {
        let mut g = ResourceGovernor::new(GovernorConfig {
            health_check_every: 8,
            rss_probe_every: 5,
            ..GovernorConfig::default()
        });
        // Without an RSS budget only the watchdog bounds a step.
        assert_eq!(g.gates_until_due(), 8);
        assert!(!g.health_check_due(3));
        assert_eq!(g.gates_until_due(), 5);
        // A step of five gates (a fused block, a run) reaches the check.
        assert!(g.health_check_due(5));
        assert_eq!(g.gates_until_due(), 8);
        // One that overshoots it still counts as due, once.
        assert!(g.health_check_due(11));
        assert!(!g.health_check_due(1));
        g.cfg.rss_budget_bytes = Some(usize::MAX);
        assert_eq!(g.gates_until_due(), 5);
        g.check_memory(0, 4).unwrap();
        assert_eq!(g.gates_until_due(), 1);
        g.check_memory(0, 1).unwrap();
        assert_eq!(g.gates_until_due(), 5, "probed and reset after gate 5");
    }

    #[test]
    fn env_parsing_ignores_garbage() {
        let cfg = GovernorConfig::from_lookup(|name| match name {
            "FLATDD_MEMORY_BUDGET_MB" => Some("64".into()),
            "FLATDD_DEADLINE_SECS" => Some("not-a-number".into()),
            _ => None,
        });
        assert_eq!(cfg.memory_budget_bytes, Some(64 * 1024 * 1024));
        assert_eq!(cfg.deadline, None, "garbage deadline must be ignored");
        assert_eq!(cfg.rss_budget_bytes, None);

        let cfg = GovernorConfig::from_lookup(|name| match name {
            "FLATDD_DEADLINE_SECS" => Some("0.25".into()),
            "FLATDD_RSS_BUDGET_MB" => Some("-3".into()),
            _ => None,
        });
        assert_eq!(cfg.deadline, Some(Duration::from_millis(250)));
        assert_eq!(cfg.rss_budget_bytes, None, "negative budget ignored");
    }

    #[test]
    fn approx_floor_parsing_enforces_range() {
        let parse = |raw: &str| {
            GovernorConfig::from_lookup(|name| {
                (name == "FLATDD_APPROX_FLOOR").then(|| raw.to_string())
            })
            .approx_fidelity_floor
        };
        assert_eq!(parse("0.9"), Some(0.9));
        assert_eq!(parse(" 1.0 "), Some(1.0));
        assert_eq!(parse("0"), None, "floor must be strictly positive");
        assert_eq!(parse("1.5"), None, "floor above 1 is meaningless");
        assert_eq!(parse("-0.5"), None);
        assert_eq!(parse("NaN"), None);
        assert_eq!(parse("inf"), None);
        assert_eq!(parse("garbage"), None);
        assert_eq!(
            GovernorConfig::from_lookup(|_| None).approx_fidelity_floor,
            None,
            "unset stays exact"
        );
    }
}
