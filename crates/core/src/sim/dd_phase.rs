//! The DD phase: DDSIM-style gate application on the state-vector DD plus
//! the size monitor that decides when regularity has collapsed.

use super::{ConversionPolicy, Core, FlatDdConfig};
use crate::error::FlatDdError;
use crate::ewma::{EwmaConfig, EwmaMonitor};
use crate::pool::ThreadPool;
use qcircuit::Gate;
use qdd::VEdge;

/// State owned by the DD phase. Dropped (pool included) by the conversion.
pub(crate) struct DdPhase {
    /// Root edge of the state-vector DD.
    pub(super) state: VEdge,
    /// Conversion-timing monitor (Section 3.1.1).
    pub(super) ewma: EwmaMonitor,
    /// State-DD size after the previous gate; gates on a DD smaller than
    /// the adaptive grain ([`qdd::par::adaptive_parallel_cap`]) skip the
    /// parallel path, and mid-size DDs fork onto a capped subset of the pool.
    last_size: usize,
    /// Pool for parallel gate application (`None` when
    /// `cfg.dd_threads <= 1`: the exact sequential path).
    pool: Option<ThreadPool>,
}

impl DdPhase {
    /// Spawns the pool `cfg.dd_threads` asks for (`None` for `<= 1`).
    pub(super) fn spawn_pool(cfg: &FlatDdConfig) -> Result<Option<ThreadPool>, FlatDdError> {
        let spawn = || ThreadPool::try_new(cfg.dd_threads);
        Ok((cfg.dd_threads > 1).then(spawn).transpose()?)
    }

    /// A DD phase over `state` with a fresh monitor.
    pub(super) fn new(state: VEdge, cfg: &FlatDdConfig, pool: Option<ThreadPool>) -> Self {
        let ewma_cfg = match cfg.conversion {
            ConversionPolicy::Ewma(e) => e,
            _ => EwmaConfig::default(),
        };
        DdPhase {
            state,
            ewma: EwmaMonitor::new(ewma_cfg),
            last_size: 0,
            pool,
        }
    }

    /// Applies `gate`, feeds the new DD size to the monitor, and returns
    /// `(dd_size, policy_wants_conversion)`.
    pub(super) fn step(&mut self, core: &mut Core, gate: &Gate) -> (usize, bool) {
        let g = core.pkg.gate_dd(gate, core.n);
        // Adaptive dispatch: cap the effective workers by the state-DD size
        // (one worker per `PAR_GRAIN_NODES` nodes) instead of an
        // all-or-nothing cutoff, so a wide pool never shreds a small DD
        // into tasks dominated by the fork-join barrier.
        let cap = qdd::par::adaptive_parallel_cap(self.last_size);
        self.state = match &self.pool {
            Some(pool) if cap > 1 => {
                core.ctx.metrics().counter("core.dd_parallel_applies").inc();
                core.pkg.mul_mv_parallel_capped(pool, g, self.state, cap)
            }
            _ => core.pkg.mul_mv(g, self.state),
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
