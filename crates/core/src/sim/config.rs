//! Simulator configuration and the small public value types of the driver.

use crate::ewma::EwmaConfig;
use crate::govern::GovernorConfig;

/// When to convert from DD-based simulation to DMAV.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ConversionPolicy {
    /// EWMA-triggered (Section 3.1.1) — the FlatDD default.
    Ewma(EwmaConfig),
    /// Convert unconditionally after this many gates (for experiments).
    AtGate(usize),
    /// Start in DMAV mode immediately (pure-DMAV ablation).
    Immediate,
    /// Never convert (pure-DD ablation; FlatDD then degenerates to DDSIM
    /// plus monitoring overhead).
    Never,
}

impl ConversionPolicy {
    /// Compact policy name used in telemetry events (`"ewma"`, `"at-gate"`,
    /// `"immediate"`, `"never"`).
    pub fn label(&self) -> &'static str {
        match self {
            ConversionPolicy::Ewma(_) => "ewma",
            ConversionPolicy::AtGate(_) => "at-gate",
            ConversionPolicy::Immediate => "immediate",
            ConversionPolicy::Never => "never",
        }
    }
}

/// Gate-fusion strategy for the DMAV phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FusionPolicy {
    /// One DMAV per gate.
    None,
    /// DMAV-aware greedy fusion (Algorithm 3).
    DmavAware,
    /// Fuse every `k` gates unconditionally (the k-operations baseline
    /// \[100\]).
    KOperations(usize),
}

/// FlatDD configuration.
#[derive(Clone, Copy, Debug)]
pub struct FlatDdConfig {
    /// Requested worker threads (clamped to a power of two `<= 2^(n-1)`).
    pub threads: usize,
    /// Ignored: the DD phase runs on one thread (DESIGN.md §12). The field
    /// stays because the benchmark harness still sets it.
    pub dd_threads: usize,
    /// Flat-phase shard count: the dispatch granularity of conversion,
    /// DMAV, gate kernels, measurement, the health watchdog, and
    /// checkpoint chunking. `0` (the default) follows the worker-thread
    /// count; explicit values are clamped like a thread count (power of
    /// two, `log2 s < n`). Numerically the shard count is inert: an
    /// unfused run, or one that ends in the DD phase, ends on the same
    /// bits at every value; a fused run's amplitudes agree with `1` to
    /// 1e-12 (a plan-time tile wider than a shard is entered below its
    /// node). Readers that sum over shards (`norm_sqr`, the marginals,
    /// `measure_qubit`) sum in shard order.
    pub flat_shards: usize,
    /// Conversion timing.
    pub conversion: ConversionPolicy,
    /// Gate fusion in the DMAV phase (only applies to [`super::FlatDdSimulator::run`]).
    pub fusion: FusionPolicy,
    /// Keep the per-step record ([`GateTrace`], Figure 11 instrumentation):
    /// one record per boundary step, held until the next run. Also what
    /// fills the `sim.gate_*_us` and `sim.plan_build_us` histograms when no
    /// event sink is installed.
    pub trace: bool,
    /// GC period (in DDMMs) during fusion.
    pub fusion_gc_every: usize,
    /// Resource budgets and watchdog cadence. The default picks budgets up
    /// from `FLATDD_MEMORY_BUDGET_MB` / `FLATDD_RSS_BUDGET_MB` /
    /// `FLATDD_DEADLINE_SECS` so whole test suites and CI jobs can run
    /// governed without code changes.
    pub governor: GovernorConfig,
}

impl Default for FlatDdConfig {
    fn default() -> Self {
        FlatDdConfig {
            threads: 16,
            dd_threads: 1,
            flat_shards: 0,
            conversion: ConversionPolicy::Ewma(EwmaConfig::default()),
            fusion: FusionPolicy::None,
            trace: false,
            fusion_gc_every: 64,
            governor: GovernorConfig::from_env(),
        }
    }
}

/// Which representation currently holds the state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// DD-based simulation (before conversion).
    Dd,
    /// DMAV: DD matrices times a flat array state.
    Dmav,
}

impl Phase {
    /// Lower-case label used in telemetry events (`"dd"` / `"dmav"`).
    pub fn label(self) -> &'static str {
        match self {
            Phase::Dd => "dd",
            Phase::Dmav => "dmav",
        }
    }
}

/// The one record of a boundary step (the Figure 11 data): a gate, or in
/// the flat phase a fused block or a run of in-place matrices. Built when
/// `FlatDdConfig::trace` is set or an event sink is installed; kept in
/// [`super::FlatDdSimulator::traces`] under `trace`, and the step's latency
/// histogram and `gate` event are rendered from it.
#[derive(Clone, Copy, Debug)]
pub struct GateTrace {
    /// Index of the step's first gate in application order.
    pub gate_index: usize,
    /// Circuit gates the step applied: 1, the gates a fused block folds, or
    /// the length of a run.
    pub gates: usize,
    /// Phase the step ran in.
    pub phase: Phase,
    /// Step start on the telemetry clock (µs, [`qtelemetry::now_us`]).
    pub ts_us: f64,
    /// Wall-clock seconds for the whole step.
    pub seconds: f64,
    /// State-vector DD size after the gate (DD phase only).
    pub dd_size: Option<usize>,
    /// EWMA monitor value after the gate (DD phase only).
    pub ewma: Option<f64>,
    /// Whether the DMAV plan lookup hit (flat phase only; a run's only if
    /// every matrix hit).
    pub plan_hit: Option<bool>,
    /// The step applied fused blocks rather than circuit gates.
    pub fused: bool,
}

impl GateTrace {
    /// The record of a step at `core`'s cursor that applied `gates` in
    /// `phase`, before the boundary times it and the phase fills in what
    /// it knows.
    pub(super) fn untimed(core: &super::Core, gates: usize, phase: Phase) -> Self {
        GateTrace {
            gate_index: core.cursor,
            gates,
            phase,
            ts_us: 0.0,
            seconds: 0.0,
            dd_size: None,
            ewma: None,
            plan_hit: None,
            fused: false,
        }
    }
}
