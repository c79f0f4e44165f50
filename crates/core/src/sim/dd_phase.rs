//! The DD phase: DDSIM-style gate application on the state-vector DD plus
//! the size monitor that decides when regularity has collapsed.

use super::{ConversionPolicy, Core, FlatDdConfig};
use crate::ewma::{EwmaConfig, EwmaMonitor};
use qcircuit::Gate;
use qdd::VEdge;

/// State owned by the DD phase. Dropped by the conversion.
pub(crate) struct DdPhase {
    /// Root edge of the state-vector DD.
    pub(super) state: VEdge,
    /// Conversion-timing monitor (Section 3.1.1).
    pub(super) ewma: EwmaMonitor,
    /// State-DD size after the previous gate; gates on a DD smaller than
    /// the adaptive grain ([`qdd::par::adaptive_parallel_cap`]) skip the
    /// parallel path, and mid-size DDs fork with a capped worker count.
    last_size: usize,
}

impl DdPhase {
    /// A DD phase over `state` with a fresh monitor.
    pub(super) fn new(state: VEdge, cfg: &FlatDdConfig) -> Self {
        let ewma_cfg = match cfg.conversion {
            ConversionPolicy::Ewma(e) => e,
            _ => EwmaConfig::default(),
        };
        DdPhase {
            state,
            ewma: EwmaMonitor::new(ewma_cfg),
            last_size: 0,
        }
    }

    /// Applies `gate`, feeds the new DD size to the monitor, and returns
    /// `(dd_size, policy_wants_conversion)`.
    pub(super) fn step(&mut self, core: &mut Core, gate: &Gate) -> (usize, bool) {
        let g = core.pkg.gate_dd(gate, core.n);
        // Adaptive dispatch on the simulator's pool: `dd_threads` workers at
        // most (`<= 1` is the exact sequential path), further capped by the
        // state-DD size (one worker per `PAR_GRAIN_NODES` nodes) instead of
        // an all-or-nothing cutoff, so a wide pool never shreds a small DD
        // into tasks dominated by the fork-join barrier.
        let workers = core
            .cfg
            .dd_threads
            .min(qdd::par::adaptive_parallel_cap(self.last_size));
        self.state = if workers > 1 {
            core.ctx.metrics().counter("core.dd_parallel_applies").inc();
            core.pkg
                .mul_mv_parallel_capped(&core.pool, g, self.state, workers)
        } else {
            core.pkg.mul_mv(g, self.state)
        };
        core.stats.gates_dd += 1;
        core.ctr_gates_dd.inc();
        let size = core.pkg.vector_dd_size(self.state);
        self.last_size = size;
        core.stats.peak_state_dd_size = core.stats.peak_state_dd_size.max(size);
        let convert = match core.cfg.conversion {
            ConversionPolicy::Ewma(_) => self.ewma.observe(size),
            ConversionPolicy::AtGate(k) => core.cursor + 1 >= k,
            ConversionPolicy::Immediate => true,
            ConversionPolicy::Never => false,
        };
        (size, convert)
    }

    /// GC roots of this phase: the state edge.
    pub(super) fn roots(&self) -> &[VEdge] {
        std::slice::from_ref(&self.state)
    }
}
