//! In-place gate-application kernels over a flat state vector.
//!
//! Implements the local amplitude manipulation of Equations 2 and 3 of the
//! paper (the strategy of Quantum++ \[19\] and most array-based simulators):
//! a gate on target `k` touches amplitude pairs `(a_{..0_k..}, a_{..1_k..})`
//! and each pair is independent, so pairs are partitioned across threads.

use crate::pool::ThreadPool;
use crate::vecops;
use qcircuit::{Complex64, Gate};

/// Precomputed dispatch data for one gate application.
struct GatePlan {
    m: [Complex64; 4],
    tbit: usize,
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
            pos_mask,
            neg_mask,
            diagonal: m[1].is_zero() && m[2].is_zero(),
            anti_diagonal: m[0].is_zero() && m[3].is_zero(),
        }
    }

    #[inline(always)]
    fn controls_ok(&self, i: usize) -> bool {
        (i & self.pos_mask) == self.pos_mask && (i & self.neg_mask) == 0
    }
}

/// Applies `gate` to `state` on one thread.
pub fn apply_gate_serial(state: &mut [Complex64], gate: &Gate) {
    apply_blocks(state, &GatePlan::new(gate), 0);
}

/// A run of amplitude pairs: the index of its first low amplitude, the low
/// amplitudes and their partners.
type Run<'a> = (usize, &'a mut [Complex64], &'a mut [Complex64]);

/// Applies the gate to `part`, whole `2 * tbit`-amplitude blocks of the
/// state starting at amplitude `base`: each block is its low and high half.
fn apply_blocks(part: &mut [Complex64], plan: &GatePlan, base: usize) {
    let (tbit, block) = (plan.tbit, 2 * plan.tbit);
    let runs = part.chunks_exact_mut(block).enumerate().map(|(b, pairs)| {
        let (lo, hi) = pairs.split_at_mut(tbit);
        (base + b * block, lo, hi)
    });
    apply_runs(plan, runs);
}

/// Applies the gate to `runs`: in run `(base, lo, hi)`, `lo[k]` is
/// amplitude `base + k` (target bit 0) and `hi[k]` its partner.
fn apply_runs<'a>(plan: &GatePlan, runs: impl Iterator<Item = Run<'a>>) {
    let m = plan.m;
    if plan.pos_mask | plan.neg_mask == 0 && plan.tbit >= 2 {
        // Control-free gates on a target above 0 pair whole contiguous
        // runs, which the vectorized kernels eat whole (target 0 produces
        // unit runs, where the scalar loops below are faster).
        for (_, lo, hi) in runs {
            if plan.diagonal {
                vecops::scale_in_place(lo, m[0]);
                vecops::scale_in_place(hi, m[3]);
            } else {
                // General and anti-diagonal blocks share the dense 2x2
                // kernel (the zero entries multiply out exactly).
                vecops::apply_2x2(lo, hi, &m);
            }
        }
    } else if plan.diagonal {
        // Diagonal fast path: no pairing, pure scaling.
        for_each_pair(plan, runs, |l, h| {
            *l = m[0] * *l;
            *h = m[3] * *h;
        });
    } else if plan.anti_diagonal {
        // Anti-diagonal fast path (X, Y): swap-and-scale.
        for_each_pair(plan, runs, |l, h| (*l, *h) = (m[1] * *h, m[2] * *l));
    } else {
        for_each_pair(plan, runs, |l, h| {
            let (a0, a1) = (*l, *h);
            *l = m[0] * a0 + m[1] * a1;
            *h = m[2] * a0 + m[3] * a1;
        });
    }
}

/// `act(lo, hi)` on every pair of `runs` whose controls are satisfied.
#[inline(always)]
fn for_each_pair<'a>(
    plan: &GatePlan,
    runs: impl Iterator<Item = Run<'a>>,
    act: impl Fn(&mut Complex64, &mut Complex64),
) {
    for (base, lo, hi) in runs {
        for (k, (l, h)) in lo.iter_mut().zip(hi).enumerate() {
            if plan.controls_ok(base + k) {
                act(l, h);
            }
        }
    }
}

/// Applies `gate` to `state` on `pool`, with group space (one group per
/// amplitude pair) partitioned into `shards` contiguous ranges handed out
/// by [`ThreadPool::for_each_part`], so the worker that first-touched a
/// state shard keeps operating on it. A shard of at least `tbit` groups is
/// whole `2 * tbit` blocks of the state; a smaller one is a matching pair
/// of runs inside one block's low and high half. States too small to
/// amortize the fork-join barrier (and size-1 pools) take the serial
/// kernel.
pub fn apply_gate_pooled(state: &mut [Complex64], gate: &Gate, pool: &ThreadPool, shards: usize) {
    let groups = state.len() / 2;
    if pool.size() <= 1 || groups < pool.size() * 64 {
        apply_gate_serial(state, gate);
        return;
    }
    let plan = &GatePlan::new(gate);
    let (tbit, chunk) = (plan.tbit, groups.div_ceil(shards.max(1)));
    if chunk >= tbit {
        let span = 2 * chunk.next_multiple_of(tbit);
        let parts = state.chunks_mut(span).enumerate();
        pool.for_each_part(parts, |(s, part)| apply_blocks(part, plan, s * span));
    } else {
        let parts = state
            .chunks_exact_mut(2 * tbit)
            .enumerate()
            .flat_map(|(b, block)| {
                let (lo, hi) = block.split_at_mut(tbit);
                let runs = lo.chunks_mut(chunk).zip(hi.chunks_mut(chunk));
                runs.enumerate()
                    .map(move |(r, (lo, hi))| (2 * tbit * b + r * chunk, lo, hi))
            });
        pool.for_each_part(parts, |run| apply_runs(plan, std::iter::once(run)));
    }
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
    fn pooled_is_bit_identical_to_serial_on_every_target() {
        // n = 10: 512 groups, so shards of 512 / s groups meet targets on
        // both sides of `tbit` (whole blocks per part, or runs of a half).
        let n = 10;
        let pool = ThreadPool::new(2);
        for t in 0..n {
            let (up, down) = ((t + 1) % n, (t + n - 1) % n);
            for g in [
                Gate::new(GateKind::H, t),
                Gate::new(GateKind::RZ(0.37), t),
                Gate::new(GateKind::Y, t),
                Gate::controlled(GateKind::U(0.5, 1.0, -0.7), t, vec![Control::pos(up)]),
                Gate::controlled(GateKind::Phase(0.9), t, vec![Control::neg(down)]),
                Gate::controlled(GateKind::X, t, vec![Control::pos(up), Control::pos(down)]),
            ] {
                let mut want = rand_state(n, 21);
                apply_gate_serial(&mut want, &g);
                for shards in [1, 2, 4, 8] {
                    let mut got = rand_state(n, 21);
                    apply_gate_pooled(&mut got, &g, &pool, shards);
                    assert_eq!(got, want, "gate {g}, shards={shards}");
                }
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
