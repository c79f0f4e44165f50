//! DD arithmetic: matrix-vector multiply (the DDSIM simulation kernel),
//! matrix-matrix multiply (used by gate fusion / DDMM), and addition —
//! all memoized through direct-mapped operation caches, which is how
//! "identical matrix-vector multiplications are avoided using hash tables"
//! (Section 2.2 of the paper).
//!
//! Weights are *lazy* inside the arithmetic: an edge is a `Lazy` — node id
//! plus the `Complex64` itself — and products, sums and ratios are plain
//! `f64` arithmetic. The complex table's tolerance acts as a flush-to-zero
//! (`DdPackage::weighted`) exactly where interning the intermediate used
//! to answer `CIdx::ZERO`. A weight is interned only where a node stores it
//! (`make_vnode_lazy` / `make_mnode_lazy`) and once where a public function
//! hands an interned edge back.
//!
//! The caches are safe for concurrent *lossy* access: each slot is a tiny
//! seq-lock (sequence counter + atomically stored key/value words). Racing
//! writers skip the insert (the cache is allowed to lose entries), and a
//! reader accepts a hit only when the sequence was stable and even across
//! its key/value loads — so a hit can only ever return the value that was
//! stored together with exactly that key.

use crate::ctable::CIdx;
use crate::fxhash::{hash_pair, hash_u64};
use crate::node::{Lazy, MEdge, VEdge, TERM};
use crate::package::DdPackage;
use qcircuit::Complex64;
use std::alloc::{alloc_zeroed, handle_alloc_error, Layout};
use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};

/// One direct-mapped cache slot: a seq-lock over `K` key words and a
/// `(node, re, im)` result. `seq == 0` means never written; odd means a
/// write is in flight; even (> 0) means stable. All-zero bytes are the
/// empty slot, and the alignment stays natural (8), so a slot array comes
/// straight from `calloc` (see [`zeroed_slots`]). `K = 1` is 32 bytes,
/// `K = 3` is 48.
struct CacheSlot<const K: usize> {
    seq: AtomicU32,
    node: AtomicU32,
    key: [AtomicU64; K],
    re: AtomicU64,
    im: AtomicU64,
}

/// `n` empty slots, allocated zeroed: the allocator hands large zeroed
/// requests to the kernel as untouched pages, so a table costs nothing
/// until its slots are written (building each slot in a loop faulted in
/// every page of every table at package construction).
fn zeroed_slots<const K: usize>(n: usize) -> Box<[CacheSlot<K>]> {
    assert!(n > 0);
    let layout = Layout::array::<CacheSlot<K>>(n).expect("slot array fits the address space");
    // SAFETY: `layout` has non-zero size (`n > 0`, a slot is >= 32 bytes).
    // A slot holds only atomic integers, for which every bit pattern —
    // all-zero included — is a valid value, so the zeroed block is `n`
    // initialized slots; it was allocated by the global allocator with
    // exactly the layout `Box<[CacheSlot<K>]>` frees it with.
    unsafe {
        let p = alloc_zeroed(layout) as *mut CacheSlot<K>;
        if p.is_null() {
            handle_alloc_error(layout);
        }
        Box::from_raw(std::ptr::slice_from_raw_parts_mut(p, n))
    }
}

/// A fixed-size direct-mapped cache with seq-locked slots: collisions
/// overwrite, concurrent writers to one slot lose (lossy insert). This
/// keeps the DDSIM compute-table design — bounded memory, O(1) lookup, no
/// eviction bookkeeping — while allowing concurrent `&self` access.
struct ConcurrentMap<const K: usize> {
    slots: Box<[CacheSlot<K>]>,
    mask: u64,
    lookups: AtomicU64,
    hits: AtomicU64,
    /// What `lookups` read when the table was last empty. Every insert site
    /// probes the same table first (a result is stored where its lookup
    /// missed), so `lookups == empty_at` means nothing was written since.
    empty_at: u64,
}

impl<const K: usize> ConcurrentMap<K> {
    fn new(bits: u32) -> Self {
        ConcurrentMap {
            slots: zeroed_slots(1usize << bits),
            mask: (1u64 << bits) - 1,
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            empty_at: 0,
        }
    }

    #[inline(always)]
    fn lookup(&self, key: [u64; K], hash: u64) -> Option<Lazy> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(hash & self.mask) as usize];
        let s1 = slot.seq.load(Ordering::Acquire);
        if s1 == 0 || s1 & 1 == 1 {
            return None;
        }
        let stored: [u64; K] = std::array::from_fn(|i| slot.key[i].load(Ordering::Relaxed));
        let n = slot.node.load(Ordering::Relaxed);
        let re = slot.re.load(Ordering::Relaxed);
        let im = slot.im.load(Ordering::Relaxed);
        // Validate: the loads above belong to the generation we started
        // with — otherwise a writer interleaved and they may be torn.
        fence(Ordering::Acquire);
        if slot.seq.load(Ordering::Relaxed) != s1 || stored != key {
            return None;
        }
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(Lazy {
            n,
            w: Complex64::new(f64::from_bits(re), f64::from_bits(im)),
        })
    }

    #[inline(always)]
    fn insert(&self, key: [u64; K], hash: u64, val: Lazy) {
        debug_assert_ne!(
            self.lookups.load(Ordering::Relaxed),
            self.empty_at,
            "an insert follows a lookup of the same table"
        );
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
        for (word, k) in slot.key.iter().zip(key) {
            word.store(k, Ordering::Relaxed);
        }
        slot.node.store(val.n, Ordering::Relaxed);
        slot.re.store(val.w.re.to_bits(), Ordering::Relaxed);
        slot.im.store(val.w.im.to_bits(), Ordering::Relaxed);
        slot.seq.store(s.wrapping_add(2), Ordering::Release);
    }

    /// Drops every entry and says whether there could be any. A table not
    /// probed since it was last empty is left alone: storing into every
    /// slot would fault in pages `calloc` never had to back (the `mm` and
    /// `add_m` tables of a run that multiplies no matrices). Exclusive
    /// access means no readers can observe the intermediate states.
    fn clear(&mut self) -> bool {
        let probes = *self.lookups.get_mut();
        if probes == self.empty_at {
            return false;
        }
        for s in self.slots.iter_mut() {
            *s.seq.get_mut() = 0;
        }
        self.empty_at = probes;
        true
    }

    /// Reallocates the slot array at `bits`, dropping every entry. Used by
    /// the memory-pressure ladder to actually release cache memory (a plain
    /// `clear` keeps the capacity).
    fn shrink_to_bits(&mut self, bits: u32) {
        self.slots = zeroed_slots(1usize << bits);
        self.mask = (1u64 << bits) - 1;
        self.empty_at = *self.lookups.get_mut();
    }

    fn memory_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<CacheSlot<K>>()
    }
}

#[inline(always)]
fn pack_u32s(a: u32, b: u32) -> u64 {
    ((a as u64) << 32) | b as u64
}

/// Key of a cached sum `A + ratio * B`: the two nodes and the ratio rounded
/// to the tolerance grid (`1 / tol` steps per unit, per axis). The caller
/// factors out the operand of larger magnitude, so `|ratio| <= 1` and the
/// coordinates stay far inside `i64` (they could saturate, and distinct
/// ratios alias, only for a tolerance below ~1e-19). A hit therefore reuses
/// the sum computed for a ratio less than one tolerance away per axis —
/// the distance at which interning would have unified the two ratios.
#[inline(always)]
fn add_key(an: u32, bn: u32, ratio: Complex64, inv_tol: f64) -> ([u64; 3], u64) {
    // Round half away from zero without a libm call.
    let grid = |x: f64| (x * inv_tol + 0.5f64.copysign(x)) as i64 as u64;
    let key = [pack_u32s(an, bn), grid(ratio.re), grid(ratio.im)];
    let hash = hash_u64(hash_u64(hash_pair(an as u64, bn as u64) ^ key[1]) ^ key[2]);
    (key, hash)
}

/// log2 slots of the multiply tables (32-byte slots) and of the addition
/// tables (48-byte slots): 2 x 2 MiB + 2 x 1.5 MiB = 7 MiB per package.
const MUL_BITS: u32 = 16;
const ADD_BITS: u32 = 15;

/// Operation caches of a package. Concurrent lossy access via `&self`.
pub(crate) struct ComputeTables {
    mv: ConcurrentMap<1>,
    mm: ConcurrentMap<1>,
    add_v: ConcurrentMap<3>,
    add_m: ConcurrentMap<3>,
}

impl Default for ComputeTables {
    fn default() -> Self {
        ComputeTables {
            mv: ConcurrentMap::new(MUL_BITS),
            mm: ConcurrentMap::new(MUL_BITS),
            add_v: ConcurrentMap::new(ADD_BITS),
            add_m: ConcurrentMap::new(ADD_BITS),
        }
    }
}

impl ComputeTables {
    /// Empties the tables; which of `[mv, mm, add_v, add_m]` held anything
    /// to drop (see [`ConcurrentMap::clear`]).
    pub(crate) fn clear(&mut self) -> [bool; 4] {
        [
            self.mv.clear(),
            self.mm.clear(),
            self.add_v.clear(),
            self.add_m.clear(),
        ]
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
        fn ld<const K: usize>(m: &ConcurrentMap<K>) -> (u64, u64) {
            (
                m.lookups.load(Ordering::Relaxed),
                m.hits.load(Ordering::Relaxed),
            )
        }
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

    // The matrix-vector table is shared with the parallel apply in `par`.

    #[inline(always)]
    pub(crate) fn lookup_mv(&self, mn: u32, vn: u32) -> Option<Lazy> {
        self.mv
            .lookup([pack_u32s(mn, vn)], hash_pair(mn as u64, vn as u64))
    }

    #[inline(always)]
    pub(crate) fn insert_mv(&self, mn: u32, vn: u32, r: Lazy) {
        self.mv
            .insert([pack_u32s(mn, vn)], hash_pair(mn as u64, vn as u64), r);
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

/// What the non-recursive prologue of a product `m * v` decides.
pub(crate) enum Product {
    /// The product itself: zero, a terminal, or — under an identity — the
    /// other operand re-weighted.
    Done(Lazy),
    /// `w *` the product of the two target nodes.
    Nodes(Complex64),
}

/// What the non-recursive prologue of a sum `a + b` decides.
enum Sum {
    /// The sum itself: one operand is zero, or both point at one node.
    Done(Lazy),
    /// `x.w * (X + ratio * Y)` over the nodes of `x` and of the lighter
    /// operand `yn`, `|ratio| <= 1`.
    Nodes { x: Lazy, yn: u32, ratio: Complex64 },
}

impl DdPackage {
    // ---- lazy edges ------------------------------------------------------------

    /// Edge to `n` with weight `w`, flushed to the zero edge when `w` is
    /// within tolerance of zero — where interning `w` answered `CIdx::ZERO`.
    #[inline(always)]
    pub(crate) fn weighted(&self, n: u32, w: Complex64) -> Lazy {
        if w.approx_zero(self.ct.tolerance()) {
            Lazy::ZERO
        } else {
            Lazy { n, w }
        }
    }

    /// `w * e`, flushed like [`Self::weighted`].
    #[inline(always)]
    pub(crate) fn scaled(&self, e: Lazy, w: Complex64) -> Lazy {
        self.weighted(e.n, e.w * w)
    }

    /// The value of an interned weight. The two constants — every weight of
    /// a basis state, most weights of a gate DD — are answered from the index,
    /// without the dependent loads into the value store.
    #[inline(always)]
    fn weight(&self, w: CIdx) -> Complex64 {
        if w.0 <= CIdx::ONE.0 {
            Complex64::real(w.0 as f64)
        } else {
            self.ct.get(w)
        }
    }

    /// Weight of a product of two edges, the left one still interned so that
    /// a zero operand or a unit weight costs neither a table read nor a
    /// multiply; `None` when the product is (flushed to) zero.
    #[inline(always)]
    fn product_weight(&self, a: CIdx, b: Complex64) -> Option<Complex64> {
        if a.is_zero() || b.is_zero() {
            return None;
        }
        if a.is_one() {
            return Some(b);
        }
        let w = self.weight(a) * b;
        (!w.approx_zero(self.ct.tolerance())).then_some(w)
    }

    /// An interned vector edge with its weight resolved.
    #[inline(always)]
    pub(crate) fn lazy_v(&self, e: VEdge) -> Lazy {
        Lazy {
            n: e.n,
            w: self.weight(e.w),
        }
    }

    /// An interned matrix edge with its weight resolved.
    #[inline(always)]
    pub(crate) fn lazy_m(&self, e: MEdge) -> Lazy {
        Lazy {
            n: e.n,
            w: self.weight(e.w),
        }
    }

    /// Interns the weight of a result edge (the one lookup a public
    /// arithmetic function performs outside node construction).
    #[inline]
    pub(crate) fn intern_v(&self, e: Lazy) -> VEdge {
        match self.ct.lookup(e.w) {
            w if w.is_zero() => VEdge::ZERO,
            w => VEdge { n: e.n, w },
        }
    }

    /// Matrix form of [`Self::intern_v`].
    #[inline]
    pub(crate) fn intern_m(&self, e: Lazy) -> MEdge {
        match self.ct.lookup(e.w) {
            w if w.is_zero() => MEdge::ZERO,
            w => MEdge { n: e.n, w },
        }
    }

    /// Level of the node a matrix edge points at (the children of a
    /// level-`l` node sit at `l - 1`, which the recursions pass down
    /// instead of loading each child to ask).
    #[inline(always)]
    pub(crate) fn m_level(&self, e: MEdge) -> u8 {
        if e.is_terminal() {
            0
        } else {
            self.m.get(e.n).level
        }
    }

    // ---- vector addition -----------------------------------------------------

    /// Adds two vector DDs: `a + b`.
    pub fn add_vectors(&self, a: VEdge, b: VEdge) -> VEdge {
        self.intern_v(self.add_v(self.lazy_v(a), self.lazy_v(b)))
    }

    /// The part of `a + b` that needs no recursion.
    #[inline(always)]
    fn add_prologue(&self, a: Lazy, b: Lazy) -> Sum {
        if a.is_zero() {
            return Sum::Done(b);
        }
        if b.is_zero() {
            return Sum::Done(a);
        }
        // Same function (or both terminal): amplitudes add on the weight.
        if a.n == b.n {
            return Sum::Done(self.weighted(a.n, a.w + b.w));
        }
        // Factor the heavier weight out: x + y = x.w * (X + (y.w / x.w) * Y).
        let (x, y) = if b.w.norm_sqr() > a.w.norm_sqr() {
            (b, a)
        } else {
            (a, b)
        };
        let ratio = y.w / x.w;
        if ratio.approx_zero(self.ct.tolerance()) {
            return Sum::Done(x);
        }
        Sum::Nodes { x, yn: y.n, ratio }
    }

    #[inline(always)]
    pub(crate) fn add_v(&self, a: Lazy, b: Lazy) -> Lazy {
        match self.add_prologue(a, b) {
            Sum::Done(e) => e,
            Sum::Nodes { x, yn, ratio } => self.scaled(self.add_v_rec(x.n, yn, ratio), x.w),
        }
    }

    fn add_v_rec(&self, an: u32, bn: u32, ratio: Complex64) -> Lazy {
        let (key, hash) = add_key(an, bn, ratio, self.inv_tol);
        if let Some(hit) = self.compute.add_v.lookup(key, hash) {
            return hit;
        }
        let av = *self.v.get(an);
        let bv = *self.v.get(bn);
        debug_assert_eq!(
            av.level, bv.level,
            "level-skipped DDs are not produced here"
        );
        let es = std::array::from_fn(|i| {
            let be = self.weighted(bv.e[i].n, self.weight(bv.e[i].w) * ratio);
            self.add_v(self.lazy_v(av.e[i]), be)
        });
        let r = self.make_vnode_lazy(av.level, es);
        self.compute.add_v.insert(key, hash, r);
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
        self.intern_m(self.add_m(self.lazy_m(a), self.lazy_m(b)))
    }

    fn add_m(&self, a: Lazy, b: Lazy) -> Lazy {
        match self.add_prologue(a, b) {
            Sum::Done(e) => e,
            Sum::Nodes { x, yn, ratio } => self.scaled(self.add_m_rec(x.n, yn, ratio), x.w),
        }
    }

    fn add_m_rec(&self, an: u32, bn: u32, ratio: Complex64) -> Lazy {
        let (key, hash) = add_key(an, bn, ratio, self.inv_tol);
        if let Some(hit) = self.compute.add_m.lookup(key, hash) {
            return hit;
        }
        let am = *self.m.get(an);
        let bm = *self.m.get(bn);
        debug_assert_eq!(am.level, bm.level);
        let es = std::array::from_fn(|i| {
            let be = self.weighted(bm.e[i].n, self.weight(bm.e[i].w) * ratio);
            self.add_m(self.lazy_m(am.e[i]), be)
        });
        let r = self.make_mnode_lazy(am.level, es);
        self.compute.add_m.insert(key, hash, r);
        r
    }

    // ---- matrix-vector multiplication (DD-based simulation step) --------------

    /// Multiplies a matrix DD by a vector DD: `m * v` — the core kernel of
    /// DD-based simulation (done DFS-style with the operation cache, as
    /// described in Section 2.2).
    pub fn mul_mv(&self, m: MEdge, v: VEdge) -> VEdge {
        self.intern_v(self.mul_mv_edge(m, self.lazy_v(v), self.m_level(m)))
    }

    /// The part of `m * v` that needs no recursion. `level` is the level of
    /// `m`'s node.
    #[inline(always)]
    pub(crate) fn mul_mv_prologue(&self, m: MEdge, v: Lazy, level: u8) -> Product {
        let Some(w) = self.product_weight(m.w, v.w) else {
            return Product::Done(Lazy::ZERO);
        };
        if m.is_terminal() {
            debug_assert_eq!(v.n, TERM);
            return Product::Done(Lazy { n: TERM, w });
        }
        // I_l * v = v: decided on the node id alone.
        if m.n == self.identity_at(level) {
            return Product::Done(Lazy { n: v.n, w });
        }
        Product::Nodes(w)
    }

    #[inline(always)]
    fn mul_mv_edge(&self, m: MEdge, v: Lazy, level: u8) -> Lazy {
        match self.mul_mv_prologue(m, v, level) {
            Product::Done(e) => e,
            Product::Nodes(w) => self.scaled(self.mul_mv_rec(m.n, v.n), w),
        }
    }

    pub(crate) fn mul_mv_rec(&self, mn: u32, vn: u32) -> Lazy {
        debug_assert_ne!(mn, TERM);
        debug_assert_ne!(vn, TERM);
        if let Some(hit) = self.compute.lookup_mv(mn, vn) {
            return hit;
        }
        let mnode = *self.m.get(mn);
        let vnode = *self.v.get(vn);
        debug_assert_eq!(mnode.level, vnode.level);
        let below = mnode.level.wrapping_sub(1);
        let ve = [self.lazy_v(vnode.e[0]), self.lazy_v(vnode.e[1])];
        let es = std::array::from_fn(|i| {
            let p0 = self.mul_mv_edge(mnode.e[2 * i], ve[0], below);
            let p1 = self.mul_mv_edge(mnode.e[2 * i + 1], ve[1], below);
            self.add_v(p0, p1)
        });
        let r = self.make_vnode_lazy(mnode.level, es);
        self.compute.insert_mv(mn, vn, r);
        r
    }

    // ---- matrix-matrix multiplication (DDMM, used by gate fusion) -------------

    /// Multiplies two matrix DDs: `a * b` (apply `b` first, then `a`).
    pub fn mul_mm(&self, a: MEdge, b: MEdge) -> MEdge {
        self.intern_m(self.mul_mm_edge(a, self.lazy_m(b), self.m_level(a)))
    }

    fn mul_mm_edge(&self, a: MEdge, b: Lazy, level: u8) -> Lazy {
        let Some(w) = self.product_weight(a.w, b.w) else {
            return Lazy::ZERO;
        };
        if a.is_terminal() {
            debug_assert_eq!(b.n, TERM);
            return Lazy { n: TERM, w };
        }
        // I_l * b = b and a * I_l = a, decided on the node ids alone.
        let identity = self.identity_at(level);
        if a.n == identity {
            return Lazy { n: b.n, w };
        }
        if b.n == identity {
            return Lazy { n: a.n, w };
        }
        self.scaled(self.mul_mm_rec(a.n, b.n), w)
    }

    fn mul_mm_rec(&self, an: u32, bn: u32) -> Lazy {
        debug_assert_ne!(an, TERM);
        debug_assert_ne!(bn, TERM);
        let key = [pack_u32s(an, bn)];
        let hash = hash_pair(an as u64, bn as u64);
        if let Some(hit) = self.compute.mm.lookup(key, hash) {
            return hit;
        }
        let am = *self.m.get(an);
        let bm = *self.m.get(bn);
        debug_assert_eq!(am.level, bm.level);
        let below = am.level.wrapping_sub(1);
        let be: [Lazy; 4] = std::array::from_fn(|k| self.lazy_m(bm.e[k]));
        let es = std::array::from_fn(|k| {
            let (i, j) = (k / 2, k % 2);
            let p0 = self.mul_mm_edge(am.e[2 * i], be[j], below);
            let p1 = self.mul_mm_edge(am.e[2 * i + 1], be[2 + j], below);
            self.add_m(p0, p1)
        });
        let r = self.make_mnode_lazy(am.level, es);
        self.compute.mm.insert(key, hash, r);
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
        // I * g = g * I = g, decided on the identity node's id: the edge
        // itself comes back and the `mm` table is never probed.
        let p = DdPackage::default();
        let n = 10;
        let g = Gate::controlled(GateKind::RY(0.4), 2, vec![Control::pos(0)]);
        let e = p.gate_dd(&g, n);
        let id = p.identity_dd(n);
        let before = p.compute_stats();
        assert_eq!(p.mul_mm(id, e), e);
        assert_eq!(p.mul_mm(e, id), e);
        assert_eq!(p.compute_stats().mm_lookups, before.mm_lookups);
        // Below the gate's lowest qubit only: the product recurses through
        // the levels the factors touch and stops at the identity under them.
        let h = p.gate_dd(&Gate::new(GateKind::H, 7), n);
        let prod = p.mul_mm(h, e);
        assert!(p.compute_stats().mm_lookups - before.mm_lookups <= n as u64);
        let (m1, m2) = (dense::gate_matrix(n, &h_gate(7)), dense::gate_matrix(n, &g));
        assert!(close(
            &p.matrix_to_dense(prod, n),
            &dense::mat_mul(&m1, &m2, 1 << n)
        ));
    }

    fn h_gate(q: usize) -> Gate {
        Gate::new(GateKind::H, q)
    }

    /// A saturated state: `2^n - 1` nodes, no two sub-vectors alike.
    fn saturated(p: &DdPackage, n: usize, seed: u64) -> (Vec<Complex64>, VEdge) {
        let v = rand_vec(n, seed);
        let e = p.vector_from_slice(&v);
        assert_eq!(p.vector_dd_size(e), (1 << n) - 1);
        (v, e)
    }

    #[test]
    fn weights_are_interned_only_where_a_node_stores_them() {
        // Every value a multiply adds to the complex table is one of the two
        // weights of a vector node it created, or the top weight it hands
        // back (interning every intermediate product, sum and ratio read
        // ~9 per node).
        let p = DdPackage::default();
        let n = 10;
        let (_, mut s) = saturated(&p, n, 11);
        for q in 0..n {
            let g = p.gate_dd(&h_gate(q), n);
            let before = p.stats();
            s = p.mul_mv(g, s);
            let after = p.stats();
            let nodes = after.v_nodes - before.v_nodes;
            let values = after.complex_values - before.complex_values;
            assert!(nodes > 0, "H on qubit {q} rebuilt nothing");
            assert!(
                values <= 2 * nodes + 1,
                "H on qubit {q}: {values} values interned for {nodes} new nodes"
            );
        }
    }

    #[test]
    fn gates_on_the_top_qubits_do_not_walk_the_state() {
        // Under the gate's lowest qubit the gate DD is the identity, which
        // the recursion recognizes by node id: the state's 2^n - 1 nodes are
        // neither visited nor probed for.
        let p = DdPackage::default();
        let n = 10;
        let (v, s) = saturated(&p, n, 12);
        for g in [
            Gate::new(GateKind::T, n - 1),
            Gate::controlled(GateKind::Z, n - 1, vec![Control::pos(n - 2)]),
        ] {
            let gd = p.gate_dd(&g, n);
            let before = p.compute_stats();
            let r = p.mul_mv(gd, s);
            let probes = p.compute_stats().mv_lookups - before.mv_lookups;
            assert!(probes <= n as u64, "gate {g}: {probes} mv probes");
            let mut want = v.clone();
            dense::apply_gate(&mut want, &g);
            assert!(close(&p.vector_to_array(r, n), &want), "gate {g}");
        }
        // The identity itself hands the state edge back.
        assert_eq!(p.mul_mv(p.identity_dd(n), s), s);
    }

    #[test]
    fn add_factors_out_the_heavier_operand() {
        let n = 6;
        let (a, b) = (rand_vec(n, 21), rand_vec(n, 22));
        for scale in [1e12, 1e-12, 3.0, 1.0 / 3.0] {
            let p = DdPackage::default();
            let b: Vec<Complex64> = b.iter().map(|&x| x * scale).collect();
            let (ea, eb) = (p.vector_from_slice(&a), p.vector_from_slice(&b));
            let want: Vec<Complex64> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
            let size = want.iter().map(|x| x.abs()).fold(0.0, f64::max);
            let before = p.compute_stats();
            let ab = p.add_vectors(ea, eb);
            let first = p.compute_stats();
            let ba = p.add_vectors(eb, ea);
            let second = p.compute_stats();
            assert_eq!(ab, ba, "scale {scale}");
            let got = p.vector_to_array(ab, n);
            let err = got.iter().zip(&want).map(|(&x, &y)| (x - y).abs());
            assert!(err.fold(0.0, f64::max) <= 1e-9 * size, "scale {scale}");
            if !(1e-6..=1e6).contains(&scale) {
                // The ratio is below the tolerance whichever operand comes
                // first (factoring the lighter one out would put 1e22 on the
                // key grid): the sum is the heavier operand, no recursion.
                assert_eq!(ab.n, if scale > 1.0 { eb.n } else { ea.n });
                assert_eq!(second.add_lookups, before.add_lookups);
            } else {
                // `a + b` and `b + a` are one entry: the second order is
                // answered by the root probe.
                assert!(first.add_lookups > before.add_lookups);
                assert_eq!(second.add_lookups, first.add_lookups + 1);
                assert_eq!(second.add_hits, first.add_hits + 1);
            }
        }
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
    fn clear_empties_exactly_the_tables_probed_since_they_were_empty() {
        let mut p = DdPackage::default();
        assert_eq!(p.compute.clear(), [false; 4], "fresh tables are empty");
        let n = 5;
        let (_, state) = saturated(&p, n, 4);
        let gd = p.gate_dd(&h_gate(2), n);
        let product = p.mul_mv(gd, state);
        let stats = p.compute_stats();
        assert!(stats.mv_lookups > 0 && stats.add_lookups > 0);
        assert_eq!(stats.mm_lookups, 0, "mv-only traffic");
        assert_eq!(p.mul_mv(gd, state), product);
        assert_eq!(p.compute_stats().mv_hits, stats.mv_hits + 1, "stored");
        // Matrix-vector products probe `mv` and `add_v`, never `mm`/`add_m`.
        assert_eq!(p.compute.clear(), [true, false, true, false]);
        assert_eq!(p.compute.clear(), [false; 4], "nothing probed in between");
        // What was stored before the clear never hits after it: the repeat
        // recomputes every (distinct) node pair, then is stored again.
        let hits = p.compute_stats().mv_hits;
        assert_eq!(p.mul_mv(gd, state), product);
        assert_eq!(p.compute_stats().mv_hits, hits, "a cleared entry hit");
        assert_eq!(p.mul_mv(gd, state), product);
        assert_eq!(p.compute_stats().mv_hits, hits + 1);
        // A shrink leaves empty tables too.
        p.compute.shrink_for_pressure();
        assert_eq!(p.compute.clear(), [false; 4]);
        p.mul_mm(gd, gd);
        let [mv, mm, add_v, _] = p.compute.clear();
        assert!(mm && !mv && !add_v, "a matrix product probes `mm` only");
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

    /// Hammers one `ConcurrentMap<K>` from 8 threads with keys whose correct
    /// `(node, re, im)` is derivable from the key; every hit must satisfy
    /// that relation in all three words (a torn read would violate it).
    fn hammer<const K: usize>() {
        let map = ConcurrentMap::<K>::new(6); // tiny: maximal slot contention
        let f = |key: [u64; K]| {
            let k = key.iter().fold(0u64, |h, &w| hash_pair(h, w));
            Lazy {
                n: k as u32,
                w: Complex64::new((k >> 11) as f64, -((k >> 40) as f64)),
            }
        };
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let map = &map;
                s.spawn(move || {
                    let mut x = t.wrapping_mul(0x243F_6A88_85A3_08D3) | 1;
                    for _ in 0..200_000 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let key: [u64; K] = std::array::from_fn(|i| (x >> (8 * i)) & 0xFF);
                        let hash = key.iter().fold(0, |h, &w| hash_pair(h, w));
                        if let Some(v) = map.lookup(key, hash) {
                            assert_eq!(v, f(key), "hit returned a value not stored with its key");
                        } else {
                            map.insert(key, hash, f(key));
                        }
                    }
                });
            }
        });
        // The cache saw real traffic.
        assert!(map.lookups.load(Ordering::Relaxed) >= 8 * 200_000);
        assert!(map.hits.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn concurrent_cache_hits_are_exact_key_matches() {
        assert_eq!(std::mem::size_of::<CacheSlot<1>>(), 32);
        assert_eq!(std::mem::size_of::<CacheSlot<3>>(), 48);
        hammer::<1>(); // mv / mm
        hammer::<3>(); // add_v / add_m
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
