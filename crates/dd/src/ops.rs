//! DD arithmetic: matrix-vector multiply (the DDSIM simulation kernel),
//! matrix-matrix multiply (used by gate fusion / DDMM), and addition —
//! all memoized through direct-mapped operation caches, which is how
//! "identical matrix-vector multiplications are avoided using hash tables"
//! (Section 2.2 of the paper).
//!
//! The caches are safe for concurrent *lossy* access: each slot is a tiny
//! seq-lock (sequence counter + atomically stored key/value words). Racing
//! writers skip the insert (the cache is allowed to lose entries), and a
//! reader accepts a hit only when the sequence was stable and even across
//! its key/value loads — so a hit can only ever return the value that was
//! stored together with exactly that key.

use crate::ctable::CIdx;
use crate::fxhash::{hash_pair, hash_u64};
use crate::node::{MEdge, VEdge, TERM};
use crate::package::DdPackage;
use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};

/// One direct-mapped cache slot: a seq-lock over two key words and one
/// value word. `seq == 0` means never written; odd means a write is in
/// flight; even (> 0) means stable.
struct CacheSlot {
    seq: AtomicU32,
    k0: AtomicU64,
    k1: AtomicU64,
    val: AtomicU64,
}

impl CacheSlot {
    fn new() -> Self {
        CacheSlot {
            seq: AtomicU32::new(0),
            k0: AtomicU64::new(0),
            k1: AtomicU64::new(0),
            val: AtomicU64::new(0),
        }
    }
}

/// A fixed-size direct-mapped cache with seq-locked slots: collisions
/// overwrite, concurrent writers to one slot lose (lossy insert). This
/// keeps the DDSIM compute-table design — bounded memory, O(1) lookup, no
/// eviction bookkeeping — while allowing concurrent `&self` access.
struct ConcurrentMap {
    slots: Box<[CacheSlot]>,
    mask: u64,
    lookups: AtomicU64,
    hits: AtomicU64,
}

impl ConcurrentMap {
    fn new(bits: u32) -> Self {
        ConcurrentMap {
            slots: (0..1usize << bits).map(|_| CacheSlot::new()).collect(),
            mask: (1u64 << bits) - 1,
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }

    #[inline(always)]
    fn lookup(&self, k0: u64, k1: u64, hash: u64) -> Option<u64> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(hash & self.mask) as usize];
        let s1 = slot.seq.load(Ordering::Acquire);
        if s1 == 0 || s1 & 1 == 1 {
            return None;
        }
        let a = slot.k0.load(Ordering::Relaxed);
        let b = slot.k1.load(Ordering::Relaxed);
        let v = slot.val.load(Ordering::Relaxed);
        // Validate: the loads above belong to the generation we started
        // with — otherwise a writer interleaved and (a, b, v) may be torn.
        fence(Ordering::Acquire);
        if slot.seq.load(Ordering::Relaxed) != s1 || a != k0 || b != k1 {
            return None;
        }
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(v)
    }

    #[inline(always)]
    fn insert(&self, k0: u64, k1: u64, hash: u64, val: u64) {
        let slot = &self.slots[(hash & self.mask) as usize];
        let s = slot.seq.load(Ordering::Relaxed);
        if s & 1 == 1 {
            return; // another writer owns the slot: lossy skip
        }
        // Acquire on success orders the data stores below after the
        // counter becomes odd.
        if slot
            .seq
            .compare_exchange(s, s.wrapping_add(1), Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        slot.k0.store(k0, Ordering::Relaxed);
        slot.k1.store(k1, Ordering::Relaxed);
        slot.val.store(val, Ordering::Relaxed);
        slot.seq.store(s.wrapping_add(2), Ordering::Release);
    }

    /// Drops every entry. Exclusive access means no readers can observe
    /// the intermediate states.
    fn clear(&mut self) {
        for s in self.slots.iter() {
            s.seq.store(0, Ordering::Relaxed);
        }
    }

    /// Reallocates the slot array at `bits`, dropping every entry. Used by
    /// the memory-pressure ladder to actually release cache memory (a plain
    /// `clear` keeps the capacity).
    fn shrink_to_bits(&mut self, bits: u32) {
        self.slots = (0..1usize << bits).map(|_| CacheSlot::new()).collect();
        self.mask = (1u64 << bits) - 1;
    }

    fn memory_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<CacheSlot>()
    }
}

#[inline(always)]
fn pack_u32s(a: u32, b: u32) -> u64 {
    ((a as u64) << 32) | b as u64
}

#[inline(always)]
pub(crate) fn pack_vedge(e: VEdge) -> u64 {
    pack_u32s(e.n, e.w.0)
}

#[inline(always)]
pub(crate) fn unpack_vedge(v: u64) -> VEdge {
    VEdge {
        n: (v >> 32) as u32,
        w: CIdx(v as u32),
    }
}

#[inline(always)]
fn pack_medge(e: MEdge) -> u64 {
    pack_u32s(e.n, e.w.0)
}

#[inline(always)]
fn unpack_medge(v: u64) -> MEdge {
    MEdge {
        n: (v >> 32) as u32,
        w: CIdx(v as u32),
    }
}

/// Operation caches of a package. Concurrent lossy access via `&self`.
pub(crate) struct ComputeTables {
    mv: ConcurrentMap,
    mm: ConcurrentMap,
    add_v: ConcurrentMap,
    add_m: ConcurrentMap,
}

impl Default for ComputeTables {
    fn default() -> Self {
        ComputeTables {
            mv: ConcurrentMap::new(16),
            mm: ConcurrentMap::new(16),
            add_v: ConcurrentMap::new(16),
            add_m: ConcurrentMap::new(16),
        }
    }
}

impl ComputeTables {
    pub(crate) fn clear(&mut self) {
        self.mv.clear();
        self.mm.clear();
        self.add_v.clear();
        self.add_m.clear();
    }

    /// Shrinks every cache to a minimal footprint (memory-pressure relief).
    /// Subsequent operations still work — just with a smaller cache.
    pub(crate) fn shrink_for_pressure(&mut self) {
        const PRESSURE_BITS: u32 = 10;
        self.mv.shrink_to_bits(PRESSURE_BITS);
        self.mm.shrink_to_bits(PRESSURE_BITS);
        self.add_v.shrink_to_bits(PRESSURE_BITS);
        self.add_m.shrink_to_bits(PRESSURE_BITS);
    }

    pub(crate) fn stats(&self) -> ComputeStats {
        let ld = |m: &ConcurrentMap| {
            (
                m.lookups.load(Ordering::Relaxed),
                m.hits.load(Ordering::Relaxed),
            )
        };
        let (mvl, mvh) = ld(&self.mv);
        let (mml, mmh) = ld(&self.mm);
        let (avl, avh) = ld(&self.add_v);
        let (aml, amh) = ld(&self.add_m);
        ComputeStats {
            mv_lookups: mvl,
            mv_hits: mvh,
            mm_lookups: mml,
            mm_hits: mmh,
            add_lookups: avl + aml,
            add_hits: avh + amh,
        }
    }

    pub(crate) fn memory_bytes(&self) -> usize {
        self.mv.memory_bytes()
            + self.mm.memory_bytes()
            + self.add_v.memory_bytes()
            + self.add_m.memory_bytes()
    }

    // Typed slot accessors (shared by the sequential recursions and the
    // parallel apply in `par`).

    #[inline(always)]
    pub(crate) fn lookup_mv(&self, mn: u32, vn: u32) -> Option<VEdge> {
        let key = pack_u32s(mn, vn);
        self.mv
            .lookup(key, 0, hash_pair(mn as u64, vn as u64))
            .map(unpack_vedge)
    }

    #[inline(always)]
    pub(crate) fn insert_mv(&self, mn: u32, vn: u32, r: VEdge) {
        let key = pack_u32s(mn, vn);
        self.mv
            .insert(key, 0, hash_pair(mn as u64, vn as u64), pack_vedge(r));
    }

    #[inline(always)]
    fn lookup_mm(&self, an: u32, bn: u32) -> Option<MEdge> {
        let key = pack_u32s(an, bn);
        let hash = hash_u64(hash_pair(an as u64, bn as u64)) ^ 0x33;
        self.mm.lookup(key, 0, hash).map(unpack_medge)
    }

    #[inline(always)]
    fn insert_mm(&self, an: u32, bn: u32, r: MEdge) {
        let key = pack_u32s(an, bn);
        let hash = hash_u64(hash_pair(an as u64, bn as u64)) ^ 0x33;
        self.mm.insert(key, 0, hash, pack_medge(r));
    }

    #[inline(always)]
    fn lookup_add_v(&self, an: u32, bn: u32, ratio: CIdx) -> Option<VEdge> {
        let hash = hash_pair(hash_pair(an as u64, bn as u64), ratio.0 as u64);
        self.add_v
            .lookup(pack_u32s(an, bn), ratio.0 as u64, hash)
            .map(unpack_vedge)
    }

    #[inline(always)]
    fn insert_add_v(&self, an: u32, bn: u32, ratio: CIdx, r: VEdge) {
        let hash = hash_pair(hash_pair(an as u64, bn as u64), ratio.0 as u64);
        self.add_v
            .insert(pack_u32s(an, bn), ratio.0 as u64, hash, pack_vedge(r));
    }

    #[inline(always)]
    fn lookup_add_m(&self, an: u32, bn: u32, ratio: CIdx) -> Option<MEdge> {
        let hash = hash_pair(hash_pair(an as u64, bn as u64), ratio.0 as u64) ^ 0x5a5a;
        self.add_m
            .lookup(pack_u32s(an, bn), ratio.0 as u64, hash)
            .map(unpack_medge)
    }

    #[inline(always)]
    fn insert_add_m(&self, an: u32, bn: u32, ratio: CIdx, r: MEdge) {
        let hash = hash_pair(hash_pair(an as u64, bn as u64), ratio.0 as u64) ^ 0x5a5a;
        self.add_m
            .insert(pack_u32s(an, bn), ratio.0 as u64, hash, pack_medge(r));
    }
}

/// Hit/miss counters of the operation caches.
#[derive(Clone, Copy, Debug, Default)]
pub struct ComputeStats {
    /// Matrix-vector cache probes.
    pub mv_lookups: u64,
    /// Matrix-vector cache hits.
    pub mv_hits: u64,
    /// Matrix-matrix cache probes.
    pub mm_lookups: u64,
    /// Matrix-matrix cache hits.
    pub mm_hits: u64,
    /// Addition cache probes (vector + matrix).
    pub add_lookups: u64,
    /// Addition cache hits.
    pub add_hits: u64,
}

impl DdPackage {
    // ---- vector addition -----------------------------------------------------

    /// Adds two vector DDs: `a + b`.
    pub fn add_vectors(&self, a: VEdge, b: VEdge) -> VEdge {
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        // Same function: amplitudes add on the shared top weight.
        if a.n == b.n {
            let w = self.ct.add(a.w, b.w);
            return if w.is_zero() {
                VEdge::ZERO
            } else {
                VEdge { n: a.n, w }
            };
        }
        if a.is_terminal() && b.is_terminal() {
            return VEdge::terminal(self.ct.add(a.w, b.w));
        }
        // Factor the left weight out: a + b = a.w * (A + (b.w/a.w) * B).
        let ratio = self.ct.div(b.w, a.w);
        let r = self.add_v_rec(a.n, b.n, ratio);
        self.scale_v(r, a.w)
    }

    fn add_v_rec(&self, an: u32, bn: u32, ratio: CIdx) -> VEdge {
        if let Some(hit) = self.compute.lookup_add_v(an, bn, ratio) {
            return hit;
        }
        let av = *self.v.get(an);
        let bv = *self.v.get(bn);
        debug_assert_eq!(
            av.level, bv.level,
            "level-skipped DDs are not produced here"
        );
        let mut es = [VEdge::ZERO; 2];
        #[allow(clippy::needless_range_loop)]
        for i in 0..2 {
            let be = self.scale_v(bv.e[i], ratio);
            es[i] = self.add_vectors(av.e[i], be);
        }
        let r = self.make_vnode(av.level, es);
        self.compute.insert_add_v(an, bn, ratio, r);
        r
    }

    /// Scales a vector edge by an interned weight.
    #[inline]
    pub fn scale_v(&self, e: VEdge, w: CIdx) -> VEdge {
        let nw = self.ct.mul(e.w, w);
        if nw.is_zero() {
            VEdge::ZERO
        } else {
            VEdge { n: e.n, w: nw }
        }
    }

    /// Scales a matrix edge by an interned weight.
    #[inline]
    pub fn scale_m(&self, e: MEdge, w: CIdx) -> MEdge {
        let nw = self.ct.mul(e.w, w);
        if nw.is_zero() {
            MEdge::ZERO
        } else {
            MEdge { n: e.n, w: nw }
        }
    }

    // ---- matrix addition -------------------------------------------------------

    /// Adds two matrix DDs: `a + b`.
    pub fn add_matrices(&self, a: MEdge, b: MEdge) -> MEdge {
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        if a.n == b.n {
            let w = self.ct.add(a.w, b.w);
            return if w.is_zero() {
                MEdge::ZERO
            } else {
                MEdge { n: a.n, w }
            };
        }
        if a.is_terminal() && b.is_terminal() {
            return MEdge::terminal(self.ct.add(a.w, b.w));
        }
        let ratio = self.ct.div(b.w, a.w);
        let r = self.add_m_rec(a.n, b.n, ratio);
        self.scale_m(r, a.w)
    }

    fn add_m_rec(&self, an: u32, bn: u32, ratio: CIdx) -> MEdge {
        if let Some(hit) = self.compute.lookup_add_m(an, bn, ratio) {
            return hit;
        }
        let am = *self.m.get(an);
        let bm = *self.m.get(bn);
        debug_assert_eq!(am.level, bm.level);
        let mut es = [MEdge::ZERO; 4];
        #[allow(clippy::needless_range_loop)]
        for i in 0..4 {
            let be = self.scale_m(bm.e[i], ratio);
            es[i] = self.add_matrices(am.e[i], be);
        }
        let r = self.make_mnode(am.level, es);
        self.compute.insert_add_m(an, bn, ratio, r);
        r
    }

    // ---- matrix-vector multiplication (DD-based simulation step) --------------

    /// Multiplies a matrix DD by a vector DD: `m * v` — the core kernel of
    /// DD-based simulation (done DFS-style with the operation cache, as
    /// described in Section 2.2).
    pub fn mul_mv(&self, m: MEdge, v: VEdge) -> VEdge {
        let w = self.ct.mul(m.w, v.w);
        if w.is_zero() {
            return VEdge::ZERO;
        }
        if m.is_terminal() {
            debug_assert!(v.is_terminal());
            return VEdge::terminal(w);
        }
        let r = self.mul_mv_rec(m.n, v.n);
        self.scale_v(r, w)
    }

    pub(crate) fn mul_mv_rec(&self, mn: u32, vn: u32) -> VEdge {
        debug_assert_ne!(mn, TERM);
        debug_assert_ne!(vn, TERM);
        if let Some(hit) = self.compute.lookup_mv(mn, vn) {
            return hit;
        }
        let mnode = *self.m.get(mn);
        let vnode = *self.v.get(vn);
        debug_assert_eq!(mnode.level, vnode.level);
        let mut es = [VEdge::ZERO; 2];
        #[allow(clippy::needless_range_loop)]
        for i in 0..2 {
            let p0 = self.mul_mv(mnode.e[2 * i], vnode.e[0]);
            let p1 = self.mul_mv(mnode.e[2 * i + 1], vnode.e[1]);
            es[i] = self.add_vectors(p0, p1);
        }
        let r = self.make_vnode(mnode.level, es);
        self.compute.insert_mv(mn, vn, r);
        r
    }

    // ---- matrix-matrix multiplication (DDMM, used by gate fusion) -------------

    /// Multiplies two matrix DDs: `a * b` (apply `b` first, then `a`).
    pub fn mul_mm(&self, a: MEdge, b: MEdge) -> MEdge {
        let w = self.ct.mul(a.w, b.w);
        if w.is_zero() {
            return MEdge::ZERO;
        }
        if a.is_terminal() {
            debug_assert!(b.is_terminal());
            return MEdge::terminal(w);
        }
        let r = self.mul_mm_rec(a.n, b.n);
        self.scale_m(r, w)
    }

    fn mul_mm_rec(&self, an: u32, bn: u32) -> MEdge {
        debug_assert_ne!(an, TERM);
        debug_assert_ne!(bn, TERM);
        if let Some(hit) = self.compute.lookup_mm(an, bn) {
            return hit;
        }
        let am = *self.m.get(an);
        let bm = *self.m.get(bn);
        debug_assert_eq!(am.level, bm.level);
        let mut es = [MEdge::ZERO; 4];
        for i in 0..2 {
            for j in 0..2 {
                let p0 = self.mul_mm(am.e[2 * i], bm.e[j]);
                let p1 = self.mul_mm(am.e[2 * i + 1], bm.e[2 + j]);
                es[2 * i + j] = self.add_matrices(p0, p1);
            }
        }
        let r = self.make_mnode(am.level, es);
        self.compute.insert_mm(an, bn, r);
        r
    }

    /// Builds the gate's DD and multiplies it onto the state — one
    /// DD-simulation step.
    pub fn apply_gate(&self, state: VEdge, gate: &qcircuit::Gate, n: usize) -> VEdge {
        let g = self.gate_dd(gate, n);
        self.mul_mv(g, state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::gate::{Control, Gate, GateKind};
    use qcircuit::{dense, generators, Complex64};

    const TOL: f64 = 1e-9;

    fn close(a: &[Complex64], b: &[Complex64]) -> bool {
        qcircuit::complex::state_distance(a, b) < TOL
    }

    fn rand_vec(n: usize, seed: u64) -> Vec<Complex64> {
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
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

    #[test]
    fn add_vectors_matches_dense() {
        let p = DdPackage::default();
        let a = rand_vec(4, 1);
        let b = rand_vec(4, 2);
        let ea = p.vector_from_slice(&a);
        let eb = p.vector_from_slice(&b);
        let es = p.add_vectors(ea, eb);
        let got = p.vector_to_array(es, 4);
        let want: Vec<Complex64> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        assert!(close(&got, &want));
    }

    #[test]
    fn add_vector_with_zero() {
        let p = DdPackage::default();
        let a = rand_vec(3, 3);
        let ea = p.vector_from_slice(&a);
        assert_eq!(p.add_vectors(ea, VEdge::ZERO), ea);
        assert_eq!(p.add_vectors(VEdge::ZERO, ea), ea);
    }

    #[test]
    fn add_cancels_to_zero() {
        let p = DdPackage::default();
        let a = rand_vec(3, 4);
        let neg: Vec<Complex64> = a.iter().map(|&x| -x).collect();
        let ea = p.vector_from_slice(&a);
        let en = p.vector_from_slice(&neg);
        let s = p.add_vectors(ea, en);
        assert!(s.is_zero(), "a + (-a) must be the zero edge");
    }

    #[test]
    fn mul_mv_matches_dense_single_gates() {
        let p = DdPackage::default();
        let n = 4;
        let v = rand_vec(n, 5);
        let gates = vec![
            Gate::new(GateKind::H, 0),
            Gate::new(GateKind::H, 3),
            Gate::new(GateKind::T, 2),
            Gate::new(GateKind::RY(1.1), 1),
            Gate::controlled(GateKind::X, 2, vec![Control::pos(0)]),
            Gate::controlled(GateKind::Z, 0, vec![Control::pos(3)]),
            Gate::controlled(GateKind::X, 3, vec![Control::pos(1), Control::pos(2)]),
            Gate::controlled(GateKind::H, 1, vec![Control::neg(0)]),
        ];
        for g in gates {
            let ev = p.vector_from_slice(&v);
            let em = p.gate_dd(&g, n);
            let res = p.mul_mv(em, ev);
            let got = p.vector_to_array(res, n);
            let mut want = v.clone();
            dense::apply_gate(&mut want, &g);
            assert!(close(&got, &want), "gate {g}");
        }
    }

    #[test]
    fn dd_simulation_of_circuits_matches_dense() {
        let circuits = vec![
            generators::ghz(6),
            generators::qft(5),
            generators::w_state(5),
            generators::random_circuit(5, 60, 21),
            generators::grover(4, 11, Some(2)),
        ];
        for c in circuits {
            let p = DdPackage::default();
            let mut state = p.basis_state(c.num_qubits(), 0);
            for g in c.iter() {
                state = p.apply_gate(state, g, c.num_qubits());
            }
            let got = p.vector_to_array(state, c.num_qubits());
            let want = dense::simulate(&c);
            assert!(close(&got, &want), "circuit {}", c.name());
        }
    }

    #[test]
    fn ghz_dd_stays_linear_in_size() {
        // The regularity property: GHZ state DDs have O(n) nodes
        // (the final GHZ state has exactly 2n-1: one shared top node plus
        // two disjoint chains).
        let n = 12;
        let c = generators::ghz(n);
        let p = DdPackage::default();
        let mut state = p.basis_state(n, 0);
        for g in c.iter() {
            state = p.apply_gate(state, g, n);
            assert!(p.vector_dd_size(state) <= 2 * n, "GHZ DD grew superlinear");
        }
        assert_eq!(p.vector_dd_size(state), 2 * n - 1);
    }

    #[test]
    fn mul_mm_matches_dense() {
        let p = DdPackage::default();
        let n = 3;
        let g1 = Gate::new(GateKind::H, 0);
        let g2 = Gate::controlled(GateKind::X, 1, vec![Control::pos(0)]);
        let e1 = p.gate_dd(&g1, n);
        let e2 = p.gate_dd(&g2, n);
        // Apply H first, then CX: product CX * H.
        let prod = p.mul_mm(e2, e1);
        let got = p.matrix_to_dense(prod, n);
        let m1 = dense::gate_matrix(n, &g1);
        let m2 = dense::gate_matrix(n, &g2);
        let want = dense::mat_mul(&m2, &m1, 1 << n);
        assert!(close(&got, &want));
    }

    #[test]
    fn fused_matrix_equals_sequential_application() {
        let p = DdPackage::default();
        let c = generators::random_circuit(4, 12, 33);
        let n = 4;
        // Fuse all gates into one matrix.
        let mut fused = p.identity_dd(n);
        for g in c.iter() {
            let gd = p.gate_dd(g, n);
            fused = p.mul_mm(gd, fused);
        }
        let mut state = p.basis_state(n, 0);
        state = p.mul_mv(fused, state);
        let got = p.vector_to_array(state, n);
        let want = dense::simulate(&c);
        assert!(close(&got, &want));
    }

    #[test]
    fn mm_with_identity_is_identity_op() {
        let p = DdPackage::default();
        let g = Gate::controlled(GateKind::RY(0.4), 2, vec![Control::pos(0)]);
        let e = p.gate_dd(&g, 3);
        let id = p.identity_dd(3);
        let left = p.mul_mm(id, e);
        let right = p.mul_mm(e, id);
        let want = p.matrix_to_dense(e, 3);
        assert!(close(&p.matrix_to_dense(left, 3), &want));
        assert!(close(&p.matrix_to_dense(right, 3), &want));
    }

    #[test]
    fn add_matrices_matches_dense() {
        let p = DdPackage::default();
        let n = 3;
        let g1 = Gate::new(GateKind::T, 1);
        let g2 = Gate::new(GateKind::H, 2);
        let e1 = p.gate_dd(&g1, n);
        let e2 = p.gate_dd(&g2, n);
        let sum = p.add_matrices(e1, e2);
        let got = p.matrix_to_dense(sum, n);
        let m1 = dense::gate_matrix(n, &g1);
        let m2 = dense::gate_matrix(n, &g2);
        let want: Vec<Complex64> = m1.iter().zip(&m2).map(|(&x, &y)| x + y).collect();
        assert!(close(&got, &want));
    }

    #[test]
    fn compute_cache_hits_on_repeated_multiplication() {
        let p = DdPackage::default();
        let n = 6;
        let c = generators::ghz(n);
        let mut state = p.basis_state(n, 0);
        for g in c.iter() {
            state = p.apply_gate(state, g, n);
        }
        // Re-apply the same gate twice; second time must hit the cache.
        let g = Gate::new(GateKind::H, 0);
        let gd = p.gate_dd(&g, n);
        let s1 = p.mul_mv(gd, state);
        let before = p.compute_stats();
        let s2 = p.mul_mv(gd, state);
        let after = p.compute_stats();
        assert_eq!(s1, s2, "cached result must be identical");
        assert!(after.mv_hits > before.mv_hits, "no cache hit on repeat");
    }

    #[test]
    fn unitarity_preserved_through_long_random_circuit() {
        let n = 5;
        let c = generators::random_circuit(n, 150, 77);
        let p = DdPackage::default();
        let mut state = p.basis_state(n, 0);
        for g in c.iter() {
            state = p.apply_gate(state, g, n);
        }
        let arr = p.vector_to_array(state, n);
        let norm = qcircuit::complex::norm_sqr(&arr);
        assert!((norm - 1.0).abs() < 1e-8, "norm drifted to {norm}");
    }

    #[test]
    fn gc_mid_simulation_is_safe() {
        let n = 5;
        let c = generators::random_circuit(n, 60, 13);
        let mut p = DdPackage::default();
        let mut state = p.basis_state(n, 0);
        for (i, g) in c.iter().enumerate() {
            state = p.apply_gate(state, g, n);
            if i % 7 == 0 {
                p.gc(&[state], &[]);
            }
        }
        let got = p.vector_to_array(state, n);
        let want = dense::simulate(&c);
        assert!(close(&got, &want));
    }

    #[test]
    fn concurrent_cache_hits_are_exact_key_matches() {
        // Hammer one ConcurrentMap from 8 threads with keys whose correct
        // value is derivable from the key; every hit must satisfy that
        // relation (a torn read would violate it).
        let map = ConcurrentMap::new(6); // tiny: maximal slot contention
        let f = |k: u64| k.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xABCD;
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let map = &map;
                s.spawn(move || {
                    let mut x = t.wrapping_mul(0x243F_6A88_85A3_08D3) | 1;
                    for _ in 0..200_000 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let k0 = x & 0xFFFF;
                        let k1 = (x >> 16) & 0xFFFF;
                        let hash = hash_pair(k0, k1);
                        if let Some(v) = map.lookup(k0, k1, hash) {
                            assert_eq!(
                                v,
                                f(k0 ^ k1),
                                "cache hit returned a value not stored with this key"
                            );
                        } else {
                            map.insert(k0, k1, hash, f(k0 ^ k1));
                        }
                    }
                });
            }
        });
        // The cache saw real traffic.
        assert!(map.lookups.load(Ordering::Relaxed) >= 8 * 200_000);
    }

    #[test]
    fn concurrent_mul_mv_matches_sequential() {
        // Many threads apply the same gates to the same states through one
        // shared package; results must equal an isolated sequential run.
        for seed in [3u64, 17, 99] {
            let n = 5;
            let c = generators::random_circuit(n, 40, seed);
            let seq = DdPackage::default();
            let mut want = seq.basis_state(n, 0);
            for g in c.iter() {
                want = seq.apply_gate(want, g, n);
            }
            let want = seq.vector_to_array(want, n);

            let shared = DdPackage::default();
            let results: Vec<Vec<Complex64>> = std::thread::scope(|s| {
                let hs: Vec<_> = (0..4)
                    .map(|_| {
                        let c = &c;
                        let shared = &shared;
                        s.spawn(move || {
                            let mut st = shared.basis_state(n, 0);
                            for g in c.iter() {
                                st = shared.apply_gate(st, g, n);
                            }
                            shared.vector_to_array(st, n)
                        })
                    })
                    .collect();
                hs.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for r in results {
                assert!(close(&r, &want), "seed {seed}");
            }
        }
    }
}
