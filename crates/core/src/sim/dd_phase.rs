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
        }
    }

    /// Applies `gate`, feeds the new DD size to the monitor, and returns
    /// `(dd_size, policy_wants_conversion)`.
    pub(super) fn step(&mut self, core: &mut Core, gate: &Gate) -> (usize, bool) {
        let g = core.pkg.gate_dd(gate, core.n);
        self.state = core.pkg.mul_mv(g, self.state);
        core.stats.gates_dd += 1;
        core.ctr_gates_dd.inc();
        let size = core.pkg.vector_dd_size(self.state);
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
