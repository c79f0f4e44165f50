//! In-place gate-application kernels over a flat state vector.
//!
//! Implements the local amplitude manipulation of Equations 2 and 3 of the
//! paper (the strategy of Quantum++ \[19\] and most array-based simulators):
//! a gate on target `k` touches amplitude pairs `(a_{..0_k..}, a_{..1_k..})`
//! and each pair is independent, so pairs are partitioned across threads.

use crate::pool::ThreadPool;
use crate::sync_slice::SyncUnsafeSlice;
use crate::vecops;
use qcircuit::{Complex64, Gate};

/// Precomputed dispatch data for one gate application.
struct GatePlan {
    m: [Complex64; 4],
    tbit: usize,
    low_mask: usize,
    /// Bits that must be 1 for the gate to act.
    pos_mask: usize,
    /// Bits that must be 0 for the gate to act.
    neg_mask: usize,
    diagonal: bool,
    anti_diagonal: bool,
}

impl GatePlan {
    fn new(gate: &Gate) -> Self {
        let m = gate.kind.matrix();
        let tbit = 1usize << gate.target;
        let mut pos_mask = 0usize;
        let mut neg_mask = 0usize;
        for c in &gate.controls {
            if c.positive {
                pos_mask |= 1 << c.qubit;
            } else {
                neg_mask |= 1 << c.qubit;
            }
        }
        GatePlan {
            m,
            tbit,
            low_mask: tbit - 1,
            pos_mask,
            neg_mask,
            diagonal: m[1].is_zero() && m[2].is_zero(),
            anti_diagonal: m[0].is_zero() && m[3].is_zero(),
        }
    }

    /// Pair-base index of group `g`: inserts a 0 bit at the target position.
    #[inline(always)]
    fn pair_index(&self, g: usize) -> usize {
        ((g & !self.low_mask) << 1) | (g & self.low_mask)
    }

    #[inline(always)]
    fn controls_ok(&self, i: usize) -> bool {
        (i & self.pos_mask) == self.pos_mask && (i & self.neg_mask) == 0
    }
}

/// Applies `gate` to `state` on one thread.
pub fn apply_gate_serial(state: &mut [Complex64], gate: &Gate) {
    let plan = GatePlan::new(gate);
    let groups = state.len() / 2;
    apply_range(state, &plan, 0, groups);
}

fn apply_range(state: &mut [Complex64], plan: &GatePlan, start: usize, end: usize) {
    let m = plan.m;
    if plan.pos_mask | plan.neg_mask == 0 && plan.tbit >= 2 {
        // Control-free gates touch *contiguous* amplitude runs, which the
        // vectorized kernels eat whole (targets 0 produce unit runs, where
        // the scalar loops below are faster).
        apply_range_runs(state, plan, start, end);
        return;
    }
    if plan.diagonal {
        // Diagonal fast path: no pairing, pure scaling.
        for g in start..end {
            let i = plan.pair_index(g);
            if !plan.controls_ok(i) {
                continue;
            }
            state[i] = m[0] * state[i];
            let j = i | plan.tbit;
            state[j] = m[3] * state[j];
        }
    } else if plan.anti_diagonal {
        // Anti-diagonal fast path (X, Y): swap-and-scale.
        for g in start..end {
            let i = plan.pair_index(g);
            if !plan.controls_ok(i) {
                continue;
            }
            let j = i | plan.tbit;
            let (a0, a1) = (state[i], state[j]);
            state[i] = m[1] * a1;
            state[j] = m[2] * a0;
        }
    } else {
        for g in start..end {
            let i = plan.pair_index(g);
            if !plan.controls_ok(i) {
                continue;
            }
            let j = i | plan.tbit;
            let (a0, a1) = (state[i], state[j]);
            state[i] = m[0] * a0 + m[1] * a1;
            state[j] = m[2] * a0 + m[3] * a1;
        }
    }
}

/// Control-free run decomposition: consecutive groups sharing their high
/// bits map to the contiguous slices `state[i..i+run]` (target bit 0) and
/// `state[i+tbit..i+tbit+run]` (target bit 1), so one [`vecops`] call
/// processes a whole run instead of one amplitude pair per iteration.
fn apply_range_runs(state: &mut [Complex64], plan: &GatePlan, start: usize, end: usize) {
    let mut g = start;
    while g < end {
        let i = plan.pair_index(g);
        let run = (plan.tbit - (g & plan.low_mask)).min(end - g);
        let (head, tail) = state.split_at_mut(i + plan.tbit);
        let lo = &mut head[i..i + run];
        let hi = &mut tail[..run];
        if plan.diagonal {
            vecops::scale_in_place(lo, plan.m[0]);
            vecops::scale_in_place(hi, plan.m[3]);
        } else {
            // General and anti-diagonal blocks share the dense 2x2 kernel
            // (the zero entries multiply out exactly).
            vecops::apply_2x2(lo, hi, &plan.m);
        }
        g += run;
    }
}

/// Applies `gate` to `state` on `pool`, with group space partitioned into
/// `shards` contiguous ranges dispatched by [`ThreadPool::for_each_shard`],
/// so the worker that first-touched a state shard keeps operating on it.
/// `pair_index` is monotone in the group index, so a contiguous group shard
/// touches a disjoint set of amplitude pairs. States too small to amortize
/// the fork-join barrier (and size-1 pools) take the serial kernel.
pub fn apply_gate_pooled(state: &mut [Complex64], gate: &Gate, pool: &ThreadPool, shards: usize) {
    let groups = state.len() / 2;
    if pool.size() <= 1 || groups < pool.size() * 64 {
        apply_gate_serial(state, gate);
        return;
    }
    let plan = &GatePlan::new(gate);
    let view = SyncUnsafeSlice::new(state);
    let shards = shards.max(1);
    pool.for_each_shard(shards, |shard| {
        let r = crate::shard::shard_range(groups, shards, shard);
        if r.is_empty() {
            return;
        }
        // SAFETY: shard group ranges are disjoint and each group's pair
        // indices are unique to that group, so no element is touched by
        // two threads.
        let full = unsafe { view.slice_mut(0, view.len()) };
        apply_range(full, plan, r.start, r.end);
    });
}

/// One-shot convenience over [`apply_gate_pooled`]: builds a transient
/// `threads`-worker pool for this one gate (`threads <= 1` spawns nothing
/// and runs inline). Anything applying more than one gate should own a
/// [`ThreadPool`] and call the pooled kernel.
pub fn apply_gate_sharded(state: &mut [Complex64], gate: &Gate, threads: usize, shards: usize) {
    apply_gate_pooled(state, gate, &ThreadPool::new(threads), shards);
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::complex::state_distance;
    use qcircuit::dense;
    use qcircuit::gate::{Control, GateKind};
    use qcircuit::generators;

    const TOL: f64 = 1e-12;

    fn rand_state(n: usize, seed: u64) -> Vec<Complex64> {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x as f64 / u64::MAX as f64) - 0.5
        };
        (0..(1usize << n))
            .map(|_| Complex64::new(next(), next()))
            .collect()
    }

    fn gates_under_test() -> Vec<Gate> {
        vec![
            Gate::new(GateKind::H, 0),
            Gate::new(GateKind::H, 4),
            Gate::new(GateKind::X, 2),
            Gate::new(GateKind::Y, 3),
            Gate::new(GateKind::T, 1),
            Gate::new(GateKind::RZ(0.37), 4),
            Gate::new(GateKind::RY(-1.1), 0),
            Gate::new(GateKind::U(0.5, 1.0, -0.7), 2),
            Gate::controlled(GateKind::X, 3, vec![Control::pos(1)]),
            Gate::controlled(GateKind::Z, 0, vec![Control::pos(4)]),
            Gate::controlled(GateKind::H, 2, vec![Control::neg(0)]),
            Gate::controlled(GateKind::X, 1, vec![Control::pos(0), Control::pos(3)]),
            Gate::controlled(
                GateKind::Phase(0.9),
                4,
                vec![Control::pos(2), Control::neg(1)],
            ),
        ]
    }

    #[test]
    fn serial_matches_dense_reference() {
        let n = 5;
        for g in gates_under_test() {
            let mut a = rand_state(n, 42);
            let mut b = a.clone();
            apply_gate_serial(&mut a, &g);
            dense::apply_gate(&mut b, &g);
            assert!(state_distance(&a, &b) < TOL, "gate {g}");
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let n = 11; // big enough to pass the parallel threshold
        for threads in [2usize, 3, 4, 8] {
            let pool = ThreadPool::new(threads);
            for g in gates_under_test() {
                let mut a = rand_state(n, 7);
                let mut b = a.clone();
                apply_gate_serial(&mut a, &g);
                apply_gate_pooled(&mut b, &g, &pool, threads);
                assert!(state_distance(&a, &b) < TOL, "gate {g}, t={threads}");
            }
        }
    }

    #[test]
    fn sharded_matches_serial_for_every_geometry() {
        let n = 11;
        for (threads, shards) in [(2, 8), (4, 2), (3, 5), (8, 1), (2, 16), (4, 4)] {
            for g in gates_under_test() {
                let mut a = rand_state(n, 13);
                let mut b = a.clone();
                apply_gate_serial(&mut a, &g);
                apply_gate_sharded(&mut b, &g, threads, shards);
                assert!(
                    state_distance(&a, &b) < TOL,
                    "gate {g}, t={threads}, shards={shards}"
                );
            }
        }
    }

    #[test]
    fn small_states_fall_back_to_serial() {
        let mut a = rand_state(3, 5);
        let mut b = a.clone();
        let g = Gate::new(GateKind::H, 1);
        apply_gate_sharded(&mut a, &g, 8, 8);
        apply_gate_serial(&mut b, &g);
        assert!(state_distance(&a, &b) < TOL);
    }

    #[test]
    fn diagonal_fast_path_matches_general() {
        // T is diagonal; route it through the general path by wrapping its
        // matrix in a Unitary (which defeats no detection — so instead
        // compare against the dense reference).
        let n = 6;
        let g = Gate::controlled(GateKind::T, 2, vec![Control::pos(4)]);
        let mut a = rand_state(n, 9);
        let mut b = a.clone();
        apply_gate_serial(&mut a, &g);
        dense::apply_gate(&mut b, &g);
        assert!(state_distance(&a, &b) < TOL);
    }

    #[test]
    fn whole_circuits_match_dense() {
        for c in [
            generators::ghz(6),
            generators::qft(5),
            generators::random_circuit(6, 80, 3),
            generators::w_state(5),
        ] {
            let mut a = dense::zero_state(c.num_qubits());
            for g in c.iter() {
                apply_gate_serial(&mut a, g);
            }
            let want = dense::simulate(&c);
            assert!(state_distance(&a, &want) < TOL, "{}", c.name());
        }
    }
}
