//! Gate fusion (Section 3.3, Algorithm 3) and the k-operations baseline
//! \[100\].
//!
//! After the DD-to-DMAV conversion, the remaining gates are DD matrices.
//! Two consecutive gates can be *fused* with a DD matrix-matrix multiply
//! (DDMM) into one matrix, trading one DMAV for a (cheap) DDMM — a win
//! exactly when the fused matrix's DMAV cost is below the sum of the two
//! separate DMAV costs (Figures 9 and 10 show both directions). FlatDD's
//! DMAV-aware fusion greedily fuses while that cost does not grow.
//!
//! The paper's Algorithm 3 costs a matrix by Eq. 5 at `t` groups. Here
//! every matrix is priced at the geometry its DMAV will run at
//! ([`CostModel::walk_cost`]): the flat phase runs every matrix in place,
//! on the widest group count where it can, so a product survives only if
//! it is no dearer than its parts *there*, and a product with no in-place
//! form is never kept. A diagonal stays diagonal and in place, so a
//! CX–RZ–CX ladder still folds into one matrix; two dense gates on
//! different qubits make a general block with no in-place form, and stay
//! apart (DESIGN.md §2).
//!
//! The k-operations strategy of Zulehner & Wille (DATE'19) fuses every `k`
//! consecutive gates unconditionally; it is the comparison point of
//! Table 2. Here a chunk also closes before a gate that would leave its
//! product without an in-place form. All three functions report
//! `total_cost` in the same walk-priced units.

use crate::cost::CostModel;
use qcircuit::Gate;
use qdd::{DdPackage, MEdge, MacTable};

/// A fusion result: the matrices FlatDD will DMAV, in application order.
#[derive(Debug)]
pub struct FusedGates {
    /// Fused gate matrices, in application order.
    pub matrices: Vec<MEdge>,
    /// How many original gates each matrix folds, aligned with
    /// `matrices` (a leading identity matrix folds 0). Summing a prefix
    /// gives the original-gate cursor at that matrix boundary, which is
    /// what makes a checkpoint written mid-span resumable.
    pub gate_counts: Vec<usize>,
    /// Total walk-priced DMAV cost ([`CostModel::walk_cost`]) of the fused
    /// sequence.
    pub total_cost: f64,
    /// Number of original gates that went in.
    pub original_gates: usize,
}

impl FusedGates {
    /// Number of DMAVs after fusion.
    pub fn len(&self) -> usize {
        self.matrices.len()
    }

    /// True when no matrices were produced.
    pub fn is_empty(&self) -> bool {
        self.matrices.is_empty()
    }
}

/// DMAV-aware gate fusion (Algorithm 3): fuse the running matrix with the
/// next gate iff the fused DMAV is priced no dearer than the two separate
/// DMAVs (`C_i + C_p >= C_ip`), each priced at the geometry it runs at from
/// `t` groups ([`CostModel::walk_cost`]; a product with no in-place form
/// is priced infinite, so it is never kept).
///
/// `gc_every` bounds DD growth during fusion: after that many DDMMs the
/// package is garbage-collected with the surviving matrices as roots.
pub fn fuse_dmav_aware(
    pkg: &mut DdPackage,
    gates: &[Gate],
    n: usize,
    t: usize,
    model: &CostModel,
    gc_every: usize,
) -> FusedGates {
    let mut mac = MacTable::default();
    let mut out: Vec<MEdge> = Vec::new();
    let mut counts: Vec<usize> = Vec::new();
    let mut total_cost = 0.0f64;
    // M_p = identity, C_p = 0 (line 2).
    let mut m_p = pkg.identity_dd(n);
    let mut c_p = 0.0f64;
    let mut g_p = 0usize;
    let mut ddmm_since_gc = 0usize;

    for gate in gates {
        let m_i = pkg.gate_dd(gate, n);
        let c_i = model.walk_cost(pkg, &mut mac, m_i, n, t);
        // M_ip = M_i * M_p: apply the accumulated M_p first, then M_i.
        let m_ip = pkg.mul_mm(m_i, m_p);
        let c_ip = model.walk_cost(pkg, &mut mac, m_ip, n, t);
        if c_i + c_p < c_ip {
            // Sequential DMAV is cheaper: emit M_p, restart from M_i.
            out.push(m_p);
            counts.push(g_p);
            total_cost += c_p;
            m_p = m_i;
            c_p = c_i;
            g_p = 1;
        } else {
            m_p = m_ip;
            c_p = c_ip;
            g_p += 1;
        }
        ddmm_since_gc += 1;
        if ddmm_since_gc >= gc_every {
            let mut roots = out.clone();
            roots.push(m_p);
            roots.push(m_i);
            pkg.gc(&[], &roots);
            mac.clear(); // node ids may have been recycled
            ddmm_since_gc = 0;
        }
    }
    // Flush the trailing accumulated matrix (implicit in the paper).
    out.push(m_p);
    counts.push(g_p);
    total_cost += c_p;
    FusedGates {
        matrices: out,
        gate_counts: counts,
        total_cost,
        original_gates: gates.len(),
    }
}

/// The k-operations baseline: fuse every `k` consecutive gates via DDMM,
/// unconditionally — except that a chunk closes early, before the gate
/// that would leave its product with no in-place form
/// ([`CostModel::walk_cost`] infinite), which \[100\] does not do.
pub fn fuse_k_operations(
    pkg: &mut DdPackage,
    gates: &[Gate],
    n: usize,
    t: usize,
    k: usize,
    model: &CostModel,
    gc_every: usize,
) -> FusedGates {
    assert!(k >= 1);
    let mut mac = MacTable::default();
    let mut out: Vec<MEdge> = Vec::new();
    let mut counts: Vec<usize> = Vec::new();
    let mut total_cost = 0.0f64;
    let mut ddmm_since_gc = 0usize;
    // The open chunk: its product, price and gate count.
    let mut open: Option<(MEdge, f64, usize)> = None;
    for gate in gates {
        let m_i = pkg.gate_dd(gate, n);
        let grown = match open {
            Some((m, _, folded)) if folded < k => {
                let m_ip = pkg.mul_mm(m_i, m);
                ddmm_since_gc += 1;
                let c_ip = model.walk_cost(pkg, &mut mac, m_ip, n, t);
                c_ip.is_finite().then_some((m_ip, c_ip, folded + 1))
            }
            _ => None,
        };
        open = Some(grown.unwrap_or_else(|| {
            if let Some((m, c, folded)) = open {
                out.push(m);
                counts.push(folded);
                total_cost += c;
            }
            (m_i, model.walk_cost(pkg, &mut mac, m_i, n, t), 1)
        }));
        if ddmm_since_gc >= gc_every {
            let mut roots = out.clone();
            roots.extend(open.map(|(m, _, _)| m));
            pkg.gc(&[], &roots);
            mac.clear();
            ddmm_since_gc = 0;
        }
    }
    if let Some((m, c, folded)) = open {
        out.push(m);
        counts.push(folded);
        total_cost += c;
    }
    FusedGates {
        matrices: out,
        gate_counts: counts,
        total_cost,
        original_gates: gates.len(),
    }
}

/// No fusion: one matrix per gate (for baseline comparisons).
pub fn no_fusion(
    pkg: &mut DdPackage,
    gates: &[Gate],
    n: usize,
    t: usize,
    model: &CostModel,
) -> FusedGates {
    let mut mac = MacTable::default();
    let mut out = Vec::with_capacity(gates.len());
    let mut total_cost = 0.0;
    for gate in gates {
        let m = pkg.gate_dd(gate, n);
        total_cost += model.walk_cost(pkg, &mut mac, m, n, t);
        out.push(m);
    }
    FusedGates {
        gate_counts: vec![1; out.len()],
        matrices: out,
        total_cost,
        original_gates: gates.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::complex::state_distance;
    use qcircuit::{dense, generators, Complex64};

    const TOL: f64 = 1e-8;

    /// Applies a fused sequence to |0...0> through dense matrices (ground
    /// truth check of semantic equivalence). Also asserts the per-matrix
    /// gate counts partition the original gate sequence — the invariant
    /// mid-span checkpoint cursors depend on.
    fn apply_fused(pkg: &DdPackage, fused: &FusedGates, n: usize) -> Vec<Complex64> {
        assert_eq!(fused.gate_counts.len(), fused.matrices.len());
        assert_eq!(
            fused.gate_counts.iter().sum::<usize>(),
            fused.original_gates
        );
        let mut v = dense::zero_state(n);
        for &m in &fused.matrices {
            let dm = pkg.matrix_to_dense(m, n);
            v = dense::mat_vec(&dm, &v);
        }
        v
    }

    #[test]
    fn dmav_aware_fusion_preserves_semantics() {
        let n = 5;
        for c in [
            generators::random_circuit(n, 40, 3),
            generators::ghz(n),
            generators::qft(n),
            generators::dnn(n, 2, 3),
        ] {
            let mut pkg = DdPackage::default();
            let fused = fuse_dmav_aware(&mut pkg, c.gates(), n, 4, &CostModel::default(), 64);
            let got = apply_fused(&pkg, &fused, n);
            let want = dense::simulate(&c);
            assert!(state_distance(&got, &want) < TOL, "{}", c.name());
            assert_eq!(fused.original_gates, c.num_gates());
        }
    }

    #[test]
    fn k_operations_preserves_semantics() {
        let n = 5;
        let c = generators::random_circuit(n, 30, 7);
        for k in [1usize, 2, 4, 7] {
            let mut pkg = DdPackage::default();
            let fused = fuse_k_operations(&mut pkg, c.gates(), n, 4, k, &CostModel::default(), 64);
            assert!(fused.len() >= c.num_gates().div_ceil(k));
            assert!(fused.gate_counts.iter().all(|&folded| folded <= k));
            let got = apply_fused(&pkg, &fused, n);
            let want = dense::simulate(&c);
            assert!(state_distance(&got, &want) < TOL, "k={k}");
        }
    }

    #[test]
    fn fusion_reduces_gate_count_on_diagonal_runs() {
        // A run of diagonal gates fuses into very few matrices: the fused
        // matrix stays diagonal, so cost never grows.
        let n = 6;
        let mut c = qcircuit::Circuit::new(n);
        for q in 0..n {
            c.t(q).rz(0.3, q).s(q);
        }
        for q in 0..n - 1 {
            c.cz(q, q + 1);
        }
        let mut pkg = DdPackage::default();
        let fused = fuse_dmav_aware(&mut pkg, c.gates(), n, 4, &CostModel::default(), 256);
        assert!(
            fused.len() <= 2,
            "diagonal run should fuse into at most identity+1 matrices, got {}",
            fused.len()
        );
    }

    #[test]
    fn fusion_never_costs_more_than_no_fusion() {
        // The greedy rule only fuses when no dearer, so the total walk price
        // is <= the unfused total, at every group count.
        let n = 6;
        for seed in [1u64, 2, 3] {
            let c = generators::dnn(n, 2, seed);
            for t in [1usize, 2, 4] {
                let mut pkg1 = DdPackage::default();
                let fused = fuse_dmav_aware(&mut pkg1, c.gates(), n, t, &CostModel::default(), 256);
                let mut pkg2 = DdPackage::default();
                let plain = no_fusion(&mut pkg2, c.gates(), n, t, &CostModel::default());
                assert!(
                    fused.total_cost <= plain.total_cost + 1e-9,
                    "seed {seed} t={t}: fused {} > plain {}",
                    fused.total_cost,
                    plain.total_cost
                );
                assert!(fused.len() <= plain.len());
            }
        }
    }

    /// Fuses `gates` at `t` groups in a fresh package; the package too, for
    /// planning the matrices.
    fn fuse(gates: &[Gate], n: usize, t: usize) -> (DdPackage, FusedGates) {
        let mut pkg = DdPackage::default();
        let fused = fuse_dmav_aware(&mut pkg, gates, n, t, &CostModel::default(), 64);
        (pkg, fused)
    }

    #[test]
    fn adjacent_dense_gates_stay_apart_at_every_group_count() {
        // Each RY runs in place on its own; their 4x4 product has no
        // in-place form at any group count, so neither fusion keeps it.
        let n = 6;
        let mut c = qcircuit::Circuit::new(n);
        for k in 0..4 {
            c.ry(0.3 + k as f64, n - 1).ry(1.1 - k as f64, n - 2);
        }
        for t in [1usize, 2, 4] {
            let (_, fused) = fuse(c.gates(), n, t);
            assert_eq!(fused.gate_counts, [1; 8], "t={t}");
            let mut pkg = DdPackage::default();
            let k_ops = fuse_k_operations(&mut pkg, c.gates(), n, t, 4, &CostModel::default(), 64);
            assert_eq!(k_ops.gate_counts, [1; 8], "t={t}");
        }
    }

    #[test]
    fn every_fused_matrix_has_an_in_place_form() {
        // Under a price that admits matrices with no in-place form `knn`
        // folds into one dense product; here every matrix either policy
        // emits runs in place at some group count.
        let cm = CostModel::default();
        for c in [generators::knn(2, 5), generators::knn(3, 6)] {
            let n = c.num_qubits();
            for t in [1usize, 2] {
                let mut pkg = DdPackage::default();
                let aware = fuse_dmav_aware(&mut pkg, c.gates(), n, t, &cm, 64);
                let mut k_pkg = DdPackage::default();
                let k_ops = fuse_k_operations(&mut k_pkg, c.gates(), n, t, 4, &cm, 64);
                for (pkg, fused) in [(&pkg, &aware), (&k_pkg, &k_ops)] {
                    for &m in &fused.matrices {
                        let groups = crate::dmav::in_place_groups(pkg, m, n, t);
                        assert!(groups.is_some(), "{} t={t}", c.name());
                    }
                    let got = apply_fused(pkg, fused, n);
                    assert!(state_distance(&got, &dense::simulate(&c)) < TOL);
                }
            }
        }
    }

    #[test]
    fn zz_ladder_fuses_into_one_in_place_diagonal() {
        let n = 7;
        let mut c = qcircuit::Circuit::new(n);
        for q in 0..n - 1 {
            c.cx(q, q + 1).rz(0.5 + q as f64, q + 1).cx(q, q + 1);
        }
        for t in [1usize, 2, 4] {
            let (pkg, fused) = fuse(c.gates(), n, t);
            assert_eq!(fused.gate_counts, [c.num_gates()], "t={t}");
            let m = fused.matrices[0];
            assert!(crate::DmavAssignment::build(&pkg, m, n, t).in_place());
            let dense_m = pkg.matrix_to_dense(m, n);
            let dim = 1usize << n;
            let off_diagonal = (0..dim * dim).filter(|&k| k / dim != k % dim);
            assert!(off_diagonal.into_iter().all(|k| dense_m[k].is_zero()));
        }
    }

    #[test]
    fn fused_circuits_match_dense_at_every_group_count() {
        let n = 6;
        for c in [
            generators::dnn(n, 3, 5),
            generators::qft(n),
            generators::random_circuit(n, 60, 7),
        ] {
            let want = dense::simulate(&c);
            for t in [1usize, 2, 4] {
                let (pkg, fused) = fuse(c.gates(), n, t);
                let err = state_distance(&apply_fused(&pkg, &fused, n), &want);
                assert!(err < 1e-12, "{} t={t}: {err:e}", c.name());
            }
        }
    }

    #[test]
    fn gc_during_fusion_is_safe() {
        let n = 5;
        let c = generators::random_circuit(n, 50, 11);
        let mut pkg = DdPackage::default();
        // GC after every DDMM: maximum stress on root tracking.
        let fused = fuse_dmav_aware(&mut pkg, c.gates(), n, 2, &CostModel::default(), 1);
        let got = apply_fused(&pkg, &fused, n);
        assert!(state_distance(&got, &dense::simulate(&c)) < TOL);
    }

    #[test]
    fn single_gate_circuit() {
        let n = 3;
        let mut c = qcircuit::Circuit::new(n);
        c.h(1);
        let mut pkg = DdPackage::default();
        let fused = fuse_dmav_aware(&mut pkg, c.gates(), n, 2, &CostModel::default(), 64);
        // Identity fuses into H: exactly one matrix out.
        assert_eq!(fused.len(), 1);
        let got = apply_fused(&pkg, &fused, n);
        assert!(state_distance(&got, &dense::simulate(&c)) < TOL);
    }

    #[test]
    fn empty_gate_list_yields_identity() {
        let mut pkg = DdPackage::default();
        let fused = fuse_dmav_aware(&mut pkg, &[], 3, 2, &CostModel::default(), 64);
        assert_eq!(fused.len(), 1);
        let got = apply_fused(&pkg, &fused, 3);
        assert!(state_distance(&got, &dense::zero_state(3)) < TOL);
    }
}
