//! Complex-number table.
//!
//! Decision-diagram edge weights are *interned*: every distinct complex
//! value is stored once and referenced by a 32-bit index ([`CIdx`]). This
//! reproduces the complex-number handling of DDSIM ("How to efficiently
//! handle complex values?", Zulehner et al. \[98\]) and is what makes DD nodes
//! cheap to hash and compare — two sub-DDs are identical iff their node ids
//! and weight indices are identical.
//!
//! Lookups are tolerance-based: values within [`ComplexTable::tolerance`] of
//! an existing entry map to it, which keeps the unique table canonical under
//! floating-point round-off.
//!
//! ## Index geometry
//!
//! The plane is cut into square cells `CELL_TOLS` (2^10) tolerances wide and a
//! value is filed under the cell it floors into (the grid origin is shifted
//! by a third of a cell, so `0`, `±1`, `±1/2` and every other short dyadic
//! sit in cell interiors instead of on a grid line). Two values within
//! tolerance of each other are in the same cell or in adjacent ones, and in
//! the adjacent case both lie within tolerance of the shared side — so a
//! lookup probes its own cell, plus a neighbour only across the sides the
//! value is within `EDGE` of: one cell for all but ~0.4 % of uniformly
//! placed values, four at a corner.
//!
//! ## Concurrency
//!
//! Values live in one global append-only store (so [`CIdx`] stays a dense
//! index and `get` is lock-free); the cell index is sharded into
//! [`CTABLE_SHARDS`] lock-striped tag indexes (`crate::sync::TagIndex`: the
//! cell key is not stored, a tag match is confirmed against the value
//! itself, and a regrow re-keys the stored values). A lookup
//! holds the lock of every shard it probes — taken in ascending shard
//! order, so concurrent lookups cannot deadlock — from its first probe to
//! its insert. Two values that could match each other always probe each
//! other's home cell, hence share a lock, hence are serialized: an insert
//! is atomic with respect to every probe that could have found it.

use crate::fxhash::hash_pair;
use crate::sync::{stripe_of, SlotVec, Stripe, TagIndex, STRIPES};
use qcircuit::Complex64;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::MutexGuard;

/// Index of an interned complex value.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct CIdx(pub u32);

impl CIdx {
    /// The interned value `0`.
    pub const ZERO: CIdx = CIdx(0);
    /// The interned value `1`.
    pub const ONE: CIdx = CIdx(1);

    /// True for the interned zero.
    #[inline(always)]
    pub fn is_zero(self) -> bool {
        self == CIdx::ZERO
    }

    /// True for the interned one.
    #[inline(always)]
    pub fn is_one(self) -> bool {
        self == CIdx::ONE
    }
}

/// Number of lock-striped shards of the cell index (power of two).
pub const CTABLE_SHARDS: usize = STRIPES;

/// Cell width in tolerances: wide enough that a value is rarely near a
/// side, narrow enough that the values sharing a cell (and with it a probe
/// chain) stay few.
const CELL_TOLS: f64 = 1024.0;
/// Shift of the grid origin, in cells.
const GRID_SHIFT: f64 = 1.0 / 3.0;
/// A value closer than this (in cells) to a side of its cell also probes
/// the cell across that side: one tolerance, widened by 1/16 to absorb the
/// rounding of the scaled coordinate (covers `|v| < 2^48 tol`).
const EDGE: f64 = (1.0 + 1.0 / 16.0) / CELL_TOLS;
/// Slots of a fresh shard (power of two).
const INITIAL_SLOTS: usize = 64;

/// Where a value files: its home cell and, per axis, the step (`-1`, `0`,
/// `+1`) to the neighbour cell it could also match in.
struct Place {
    kr: i64,
    ki: i64,
    dr: i64,
    di: i64,
}

impl Place {
    /// Hash of the home cell.
    #[inline(always)]
    fn home(&self) -> u64 {
        cell_hash(self.kr, self.ki)
    }
}

/// Hash of a cell: the top 4 bits pick the shard, the top 32 are the slot
/// tag, the low bits the home slot.
#[inline(always)]
fn cell_hash(kr: i64, ki: i64) -> u64 {
    hash_pair(kr as u64, ki as u64)
}

/// Interning table for complex edge weights. All methods take `&self` and
/// are safe to call from many threads.
pub struct ComplexTable {
    /// Global value store: `CIdx` is a dense index into this. Values are
    /// never marked, so the slots carry no stamp.
    values: SlotVec<Complex64, ()>,
    /// Values allocated so far (the next fresh index).
    next: AtomicU32,
    shards: Vec<Stripe<TagIndex>>,
    /// Bytes reserved by the value segments and the slot arrays, updated
    /// where either grows so that [`Self::memory_bytes`] is one load.
    bytes: AtomicUsize,
    tol: f64,
    /// Cells per unit length: `1 / (CELL_TOLS * tol)`.
    inv_cell: f64,
    /// Cached handle into the global `dd.ctable_stall_ns` histogram for
    /// contended shard lock waits.
    stall: qtelemetry::Histogram,
}

impl Default for ComplexTable {
    fn default() -> Self {
        Self::new(1e-10)
    }
}

impl ComplexTable {
    /// Creates a table with the given numerical tolerance.
    pub fn new(tol: f64) -> Self {
        assert!(tol > 0.0);
        let t = ComplexTable {
            values: SlotVec::default(),
            next: AtomicU32::new(0),
            shards: (0..CTABLE_SHARDS)
                .map(|_| Stripe::new(TagIndex::new(INITIAL_SLOTS)))
                .collect(),
            bytes: AtomicUsize::new(CTABLE_SHARDS * INITIAL_SLOTS * 8),
            tol,
            inv_cell: 1.0 / (CELL_TOLS * tol),
            stall: qtelemetry::histogram("dd.ctable_stall_ns"),
        };
        // Pre-intern the distinguished constants at fixed indices (`lookup`
        // answers both without touching the index; a value merely within
        // tolerance of one finds it here).
        for (v, want) in [(Complex64::ZERO, CIdx::ZERO), (Complex64::ONE, CIdx::ONE)] {
            let h = t.place(v).home();
            let got = t.alloc_value(v, h, &mut t.shards[stripe_of(h)].lock(&t.stall));
            debug_assert_eq!(got, want);
        }
        t
    }

    /// The numerical tolerance for value identification.
    pub fn tolerance(&self) -> f64 {
        self.tol
    }

    /// Number of distinct values stored.
    pub fn len(&self) -> usize {
        self.next.load(Ordering::Relaxed) as usize
    }

    /// True when only the pre-interned constants exist.
    pub fn is_empty(&self) -> bool {
        self.len() <= 2
    }

    /// The value behind an index. Lock-free.
    #[inline(always)]
    pub fn get(&self, idx: CIdx) -> Complex64 {
        debug_assert!((idx.0 as usize) < self.len());
        // SAFETY: a valid index was published after its slot write (the
        // allocating thread wrote the value before the index escaped
        // through a shard unlock or a cache-entry release).
        unsafe { *self.values.get(idx.0) }
    }

    #[inline(always)]
    fn place(&self, v: Complex64) -> Place {
        let xr = v.re * self.inv_cell + GRID_SHIFT;
        let xi = v.im * self.inv_cell + GRID_SHIFT;
        let (fr, fi) = (xr.floor(), xi.floor());
        // Position inside the cell, `[0, 1)`, against both sides.
        let step = |frac: f64| (frac > 1.0 - EDGE) as i64 - (frac < EDGE) as i64;
        Place {
            kr: fr as i64,
            ki: fi as i64,
            dr: step(xr - fr),
            di: step(xi - fi),
        }
    }

    /// Walks the chain of cell hash `h` for a stored value within tolerance
    /// of `v`. `slots` is the locked shard of `h`.
    #[inline]
    fn find(&self, slots: &TagIndex, h: u64, v: Complex64) -> Option<CIdx> {
        slots
            .find(h, |idx| {
                // SAFETY: an index in `slots` was filed under the shard lock
                // we hold (`concurrent_interning_is_canonical`).
                unsafe { *self.values.get(idx) }.approx_eq(v, self.tol)
            })
            .map(CIdx)
    }

    /// Appends `v` to the value store and files it under its home cell
    /// (hash `h`), whose locked shard is `slots`.
    fn alloc_value(&self, v: Complex64, h: u64, slots: &mut TagIndex) -> CIdx {
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        assert!(idx < u32::MAX, "complex table exhausted");
        let mut grown = self.values.ensure(idx);
        // SAFETY: `idx` was exclusively reserved by the fetch_add above and
        // is published only by the insert below / the caller's use.
        unsafe { self.values.write(idx, v) };
        grown += slots.insert(h, idx, |i| {
            // SAFETY: as in `find`; a regrow re-keys every stored value
            // (`every_value_stays_findable_across_three_regrows`).
            self.place(unsafe { *self.values.get(i) }).home()
        });
        if grown != 0 {
            self.bytes.fetch_add(grown, Ordering::Relaxed);
        }
        CIdx(idx)
    }

    /// Interns `v`, returning the index of an existing entry within
    /// tolerance or a fresh one.
    pub fn lookup(&self, v: Complex64) -> CIdx {
        // Fast paths for the exact constants algebra on canonical weights
        // keeps producing.
        if v.is_zero() {
            return CIdx::ZERO;
        }
        if v == Complex64::ONE {
            return CIdx::ONE;
        }
        let p = self.place(v);
        if p.dr | p.di != 0 {
            return self.lookup_near_edge(v, &p);
        }
        let h = p.home();
        let mut slots = self.shards[stripe_of(h)].lock(&self.stall);
        match self.find(&slots, h, v) {
            Some(idx) => idx,
            None => self.alloc_value(v, h, &mut slots),
        }
    }

    /// [`Self::lookup`] for a value within [`EDGE`] of a side of its cell:
    /// probes the home cell and the one, or at a corner three, neighbours
    /// across those sides.
    #[cold]
    fn lookup_near_edge(&self, v: Complex64, p: &Place) -> CIdx {
        let (nr, ni) = (p.kr.wrapping_add(p.dr), p.ki.wrapping_add(p.di));
        // Home first: it is where a miss inserts.
        let mut cells = [p.home(); 4];
        let mut n = 1;
        for (probe, kr, ki) in [
            (p.dr != 0, nr, p.ki),
            (p.di != 0, p.kr, ni),
            (p.dr != 0 && p.di != 0, nr, ni),
        ] {
            if probe {
                cells[n] = cell_hash(kr, ki);
                n += 1;
            }
        }
        let cells = &cells[..n];
        // Lock in ascending shard order (deadlock-free by total order).
        let need = cells.iter().fold(0u16, |m, &h| m | 1 << stripe_of(h));
        type Held<'t> = (usize, MutexGuard<'t, TagIndex>);
        let mut held: [Option<Held<'_>>; 4] = [None, None, None, None];
        let shards = (0..CTABLE_SHARDS).filter(|s| need & (1 << s) != 0);
        for (slot, s) in held.iter_mut().zip(shards) {
            *slot = Some((s, self.shards[s].lock(&self.stall)));
        }
        fn slots_of<'a>(held: &'a mut [Option<Held<'_>>; 4], h: u64) -> &'a mut TagIndex {
            held.iter_mut()
                .flatten()
                .find_map(|(s, g)| (*s == stripe_of(h)).then_some(&mut **g))
                .expect("probed shard is locked")
        }
        for &h in cells {
            if let Some(idx) = self.find(slots_of(&mut held, h), h, v) {
                return idx;
            }
        }
        self.alloc_value(v, cells[0], slots_of(&mut held, cells[0]))
    }

    /// Interns the product of two interned values (what `scale_v` /
    /// `scale_m` do to an interned edge; the DD arithmetic itself multiplies
    /// the values and interns only what a node stores).
    #[inline]
    pub fn mul(&self, a: CIdx, b: CIdx) -> CIdx {
        if a.is_zero() || b.is_zero() {
            return CIdx::ZERO;
        }
        if a.is_one() {
            return b;
        }
        if b.is_one() {
            return a;
        }
        let v = self.get(a) * self.get(b);
        self.lookup(v)
    }

    /// Bytes reserved by the table (value segments + slot arrays). One
    /// atomic load: the counter moves where a segment or a shard grows.
    pub fn memory_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// [`Self::memory_bytes`] recounted from the structures themselves.
    #[cfg(test)]
    pub(crate) fn recount_bytes(&self) -> usize {
        let slots = |sh: &Stripe<TagIndex>| sh.lock(&self.stall).words() * 8;
        self.values.allocated_bytes() + self.shards.iter().map(slots).sum::<usize>()
    }

    /// Total shard lock-contention events observed (telemetry).
    pub fn contended(&self) -> u64 {
        self.shards.iter().map(Stripe::contended).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::prop::Gen;

    #[test]
    fn constants_have_fixed_indices() {
        let t = ComplexTable::default();
        assert_eq!(t.lookup(Complex64::ZERO), CIdx::ZERO);
        assert_eq!(t.lookup(Complex64::ONE), CIdx::ONE);
        assert_eq!(t.get(CIdx::ZERO), Complex64::ZERO);
        assert_eq!(t.get(CIdx::ONE), Complex64::ONE);
    }

    #[test]
    fn interning_dedups_exact_values() {
        let t = ComplexTable::default();
        let a = t.lookup(Complex64::new(0.25, -0.5));
        let b = t.lookup(Complex64::new(0.25, -0.5));
        assert_eq!(a, b);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn interning_dedups_within_tolerance() {
        let t = ComplexTable::new(1e-10);
        let a = t.lookup(Complex64::new(0.5, 0.5));
        let b = t.lookup(Complex64::new(0.5 + 3e-11, 0.5 - 3e-11));
        assert_eq!(a, b, "values within tolerance must unify");
        let c = t.lookup(Complex64::new(0.5 + 1e-6, 0.5));
        assert_ne!(a, c, "values outside tolerance must stay distinct");
    }

    /// The coordinate `frac` of a cell into cell `k` of the default grid.
    fn at_cell(k: i64, frac: f64) -> f64 {
        (k as f64 - GRID_SHIFT + frac) * CELL_TOLS * 1e-10
    }

    #[test]
    fn dedup_across_cell_sides_and_corners() {
        let t = ComplexTable::new(1e-10);
        // 0.8 tol apart across the side between cells 4882812 and 4882813.
        let (lo, hi) = (
            at_cell(4882813, -0.4 / CELL_TOLS),
            at_cell(4882813, 0.4 / CELL_TOLS),
        );
        assert_ne!(
            t.place(Complex64::real(lo)).kr,
            t.place(Complex64::real(hi)).kr
        );
        assert_eq!(
            t.lookup(Complex64::new(lo, 0.25)),
            t.lookup(Complex64::new(hi, 0.25))
        );
        // Across a corner: the stored value is in the diagonal neighbour.
        assert_eq!(
            t.lookup(Complex64::new(lo, hi)),
            t.lookup(Complex64::new(hi, lo))
        );
        assert_eq!(t.len(), 2 + 2);
    }

    #[test]
    fn near_one_unifies_with_one() {
        let t = ComplexTable::default();
        let a = t.lookup(Complex64::new(1.0 + 1e-12, -1e-12));
        assert_eq!(a, CIdx::ONE);
    }

    #[test]
    fn arithmetic_shortcuts() {
        let t = ComplexTable::default();
        let a = t.lookup(Complex64::new(0.3, 0.7));
        assert_eq!(t.mul(CIdx::ZERO, a), CIdx::ZERO);
        assert_eq!(t.mul(CIdx::ONE, a), a);
        assert_eq!(t.mul(a, CIdx::ONE), a);
    }

    #[test]
    fn mul_matches_complex_mul() {
        let t = ComplexTable::default();
        let x = Complex64::new(0.6, -0.8);
        let y = Complex64::new(-0.1, 0.2);
        let a = t.lookup(x);
        let b = t.lookup(y);
        let p = t.mul(a, b);
        assert!(t.get(p).approx_eq(x * y, 1e-10));
    }

    #[test]
    fn many_values_stay_distinct() {
        let t = ComplexTable::default();
        let mut idxs = Vec::new();
        for i in 0..2000 {
            idxs.push(t.lookup(Complex64::new(i as f64 * 1e-3, -(i as f64) * 2e-3)));
        }
        for (i, &ix) in idxs.iter().enumerate() {
            assert!(t
                .get(ix)
                .approx_eq(Complex64::new(i as f64 * 1e-3, -(i as f64) * 2e-3), 1e-10));
        }
        assert!(t.memory_bytes() > 0);
    }

    #[test]
    fn every_value_stays_findable_across_three_regrows() {
        let t = ComplexTable::default();
        let value = |i: usize| Complex64::new(i as f64 * 1.7e-3 - 4.0, (i as f64 * 0.37).sin());
        let idxs: Vec<CIdx> = (0..6000).map(|i| t.lookup(value(i))).collect();
        assert_eq!(t.len(), 2 + 6000);
        for sh in &t.shards {
            let words = sh.lock(&t.stall).words();
            assert!(words >= INITIAL_SLOTS << 3, "shard regrew to only {words}");
        }
        for (i, &ix) in idxs.iter().enumerate() {
            assert_eq!(t.lookup(value(i)), ix, "value {i} lost by a regrow");
            assert_eq!(t.get(ix), value(i));
        }
        assert_eq!(t.len(), 2 + 6000, "a re-lookup interned a duplicate");
        assert_eq!(t.lookup(Complex64::new(1e-12, -1e-12)), CIdx::ZERO);
        assert_eq!(t.lookup(Complex64::new(1.0 - 1e-12, 1e-12)), CIdx::ONE);
        assert_eq!(t.memory_bytes(), t.recount_bytes());
    }

    #[test]
    fn concurrent_interning_is_canonical() {
        let t = ComplexTable::default();
        // Pairs within tolerance of each other on opposite sides of a cell
        // side (every fourth one of a corner): whichever of a pair lands
        // first must be what all 8 threads get for both.
        let pairs: Vec<[Complex64; 2]> = (0..200)
            .map(|i| {
                let k = 1000 + 37 * i as i64;
                let im = |d: f64| if i % 4 == 0 { at_cell(-k, d) } else { -0.5 };
                [
                    Complex64::new(at_cell(k, -2e-4), im(-2e-4)),
                    Complex64::new(at_cell(k, 2e-4), im(2e-4)),
                ]
            })
            .collect();
        // 8 threads intern the same value set — the grid values in order,
        // the pairs in opposite orders on alternating threads, released
        // together; every value must resolve to one index everywhere.
        let start = std::sync::Barrier::new(8);
        let per_thread: Vec<Vec<CIdx>> = std::thread::scope(|s| {
            let hs: Vec<_> = (0..8)
                .map(|tid| {
                    let (t, pairs, start) = (&t, &pairs, &start);
                    s.spawn(move || {
                        start.wait();
                        let mut got: Vec<CIdx> = (0..500)
                            .map(|i| t.lookup(Complex64::new(i as f64 * 0.01, -0.5)))
                            .collect();
                        for p in pairs {
                            let first = t.lookup(p[tid % 2]);
                            let second = t.lookup(p[1 - tid % 2]);
                            assert_eq!(first, second, "a pair within tolerance split");
                            got.push(first);
                        }
                        got
                    })
                })
                .collect();
            hs.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for other in &per_thread[1..] {
            assert_eq!(&per_thread[0], other);
        }
        assert_eq!(t.len(), 2 + 500 + pairs.len());
    }

    /// Position inside a cell: interior, hugging the lower side, or
    /// hugging the upper one (a corner when both axes draw a side).
    fn frac(g: &mut Gen) -> f64 {
        match g.rng.range(0..3) {
            0 => g.rng.f64_in(0.01..0.99),
            1 => g.rng.f64_in(0.0..2.0) / CELL_TOLS,
            _ => 1.0 - g.rng.f64_in(0.0..2.0) / CELL_TOLS,
        }
    }

    /// A coordinate of magnitude ~1e-9..1e3 (log-uniform), either sign,
    /// at `frac()` of its cell.
    fn coord(g: &mut Gen) -> f64 {
        let k = (10f64.powf(g.rng.f64_in(-9.0..3.0)) / (CELL_TOLS * 1e-10)) as i64;
        at_cell(if g.rng.bool(0.5) { -k - 1 } else { k }, frac(g))
    }

    #[test]
    fn lookup_unifies_exactly_the_values_within_tolerance() {
        qcircuit::prop::check(2000, |g| {
            let (re, im) = (coord(g), coord(g));
            let (dr, di) = (g.rng.f64_in(-1.5..1.5), g.rng.f64_in(-1.5..1.5));
            let exact_tol = g.rng.bool(0.5);
            let t = ComplexTable::default();
            let tol = t.tolerance();
            let s = Complex64::new(re, im);
            // Offsets up to 1.5 tol per component, or exactly +-tol.
            let off = |d: f64| if exact_tol { d.signum() * tol } else { d * tol };
            let v = Complex64::new(re + off(dr), im + off(di));
            // The two pre-interned constants would take index 2's place.
            if [Complex64::ZERO, Complex64::ONE]
                .iter()
                .any(|&c| s.approx_eq(c, 3.0 * tol))
            {
                return;
            }
            let is = t.lookup(s);
            assert_eq!(is, CIdx(2));
            let iv = t.lookup(v);
            assert_eq!(iv == is, v.approx_eq(s, tol), "s = {s:?}, v = {v:?}");
            assert_eq!(t.lookup(s), is);
            assert_eq!(t.lookup(v), iv);
        });
    }
}
