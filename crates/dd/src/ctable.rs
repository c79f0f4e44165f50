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
//! ## Storage
//!
//! Values live in one `Vec` (so [`CIdx`] stays a dense index); the cell
//! index is one tag index (`crate::index::TagIndex`: the cell key is not
//! stored, a tag match is confirmed against the value itself, and a regrow
//! re-keys the stored values). The table has one owner: `lookup` takes
//! `&self` through `RefCell`s, so the table is `Send` and not `Sync`.
//!
//! ## Sweeping
//!
//! The package's stop-the-world sweep (`ComplexTable::sweep`) hands over
//! a `ValueMarks` bitmap of the values live nodes and root edges still
//! store. The index is rebuilt with only those, and the unmarked indices
//! go onto the free list, where the next insert takes them. A live value
//! keeps its [`CIdx`];
//! [`CIdx::ZERO`] and [`CIdx::ONE`] are never freed.

use crate::fxhash::hash_pair;
use crate::index::FreeListIndex;
use qcircuit::Complex64;
use std::cell::{Cell, RefCell};

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
/// Words of a fresh cell index (power of two), as for the unique table.
const INITIAL_SLOTS: usize = 1024;

/// Which value indices a sweep keeps: one bit per index, built for one
/// sweep and dropped with it (the value store itself carries no stamp).
pub(crate) struct ValueMarks(Vec<u64>);

impl ValueMarks {
    /// Marks `w` live.
    #[inline(always)]
    pub(crate) fn set(&mut self, w: CIdx) {
        self.0[w.0 as usize / 64] |= 1 << (w.0 % 64);
    }

    #[inline(always)]
    fn get(&self, i: u32) -> bool {
        self.0[i as usize / 64] >> (i % 64) & 1 == 1
    }
}

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

/// Where `v` files on a grid of `inv_cell` cells per unit length.
#[inline(always)]
fn place(v: Complex64, inv_cell: f64) -> Place {
    let xr = v.re * inv_cell + GRID_SHIFT;
    let xi = v.im * inv_cell + GRID_SHIFT;
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

/// Hash of a cell: the top 32 bits are the slot tag, the low bits the home
/// slot.
#[inline(always)]
fn cell_hash(kr: i64, ki: i64) -> u64 {
    hash_pair(kr as u64, ki as u64)
}

/// Interning table for complex edge weights.
pub struct ComplexTable {
    /// Value store: `CIdx` is a dense index into this. A sweep marks values
    /// in a transient [`ValueMarks`], so the slots carry no stamp.
    values: RefCell<Vec<Complex64>>,
    /// Values filed in the index (allocated slots minus the free list).
    live: Cell<usize>,
    /// Cell hash -> value index, and the indices the sweeps freed.
    index: RefCell<FreeListIndex>,
    /// Bytes reserved by the value store, the index and the free list,
    /// updated where any of them grows so that [`Self::memory_bytes`] is
    /// one load.
    bytes: Cell<usize>,
    tol: f64,
    /// Cells per unit length: `1 / (CELL_TOLS * tol)`.
    inv_cell: f64,
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
            values: RefCell::default(),
            live: Cell::new(0),
            index: RefCell::new(FreeListIndex::new(INITIAL_SLOTS)),
            bytes: Cell::new(INITIAL_SLOTS * 8),
            tol,
            inv_cell: 1.0 / (CELL_TOLS * tol),
        };
        // Pre-intern the distinguished constants at fixed indices (`lookup`
        // answers both without touching the index; a value merely within
        // tolerance of one finds it here).
        for (v, want) in [(Complex64::ZERO, CIdx::ZERO), (Complex64::ONE, CIdx::ONE)] {
            let h = place(v, t.inv_cell).home();
            let got = t.alloc_value(v, h, &mut t.index.borrow_mut());
            debug_assert_eq!(got, want);
        }
        t
    }

    /// The numerical tolerance for value identification.
    pub fn tolerance(&self) -> f64 {
        self.tol
    }

    /// Number of distinct values stored (live or not yet swept).
    pub fn len(&self) -> usize {
        self.live.get()
    }

    /// Value slots allocated: [`Self::len`] plus the free lists.
    pub fn slots(&self) -> usize {
        self.values.borrow().len()
    }

    /// True when only the pre-interned constants exist.
    pub fn is_empty(&self) -> bool {
        self.len() <= 2
    }

    /// The value behind an index.
    #[inline(always)]
    pub fn get(&self, idx: CIdx) -> Complex64 {
        self.values.borrow()[idx.0 as usize]
    }

    /// The value store, borrowed for a read-only view.
    pub(crate) fn values(&self) -> std::cell::Ref<'_, Vec<Complex64>> {
        self.values.borrow()
    }

    /// Walks the chain of cell hash `h` in `index` for a stored value
    /// within tolerance of `v`.
    #[inline]
    fn find(&self, index: &FreeListIndex, h: u64, v: Complex64) -> Option<CIdx> {
        index
            .index
            .find(h, |idx| self.get(CIdx(idx)).approx_eq(v, self.tol))
            .map(CIdx)
    }

    /// Stores `v` in a slot `index` freed, or else in a fresh one, and
    /// files it under its home cell (hash `h`).
    fn alloc_value(&self, v: Complex64, h: u64, index: &mut FreeListIndex) -> CIdx {
        let (idx, mut grown) = index.store(&mut self.values.borrow_mut(), v);
        // A regrow re-keys every filed value, as `find` reads them
        // (`every_value_stays_findable_across_three_regrows`).
        grown += index
            .index
            .insert(h, idx, |i| place(self.get(CIdx(i)), self.inv_cell).home());
        if grown != 0 {
            self.bytes.set(self.bytes.get() + grown);
        }
        self.live.set(self.live.get() + 1);
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
        let p = place(v, self.inv_cell);
        let h = p.home();
        let mut index = self.index.borrow_mut();
        let mut found = self.find(&index, h, v);
        if found.is_none() && p.dr | p.di != 0 {
            found = self.find_across_sides(&index, v, &p);
        }
        found.unwrap_or_else(|| self.alloc_value(v, h, &mut index))
    }

    /// The value within tolerance of `v`, which lies within [`EDGE`] of a
    /// side of its cell, in the one, or at a corner three, neighbours
    /// across those sides.
    #[cold]
    fn find_across_sides(&self, index: &FreeListIndex, v: Complex64, p: &Place) -> Option<CIdx> {
        let (nr, ni) = (p.kr.wrapping_add(p.dr), p.ki.wrapping_add(p.di));
        [
            (p.dr != 0, nr, p.ki),
            (p.di != 0, p.kr, ni),
            (p.dr != 0 && p.di != 0, nr, ni),
        ]
        .into_iter()
        .filter(|&(probe, _, _)| probe)
        .find_map(|(_, kr, ki)| self.find(index, cell_hash(kr, ki), v))
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

    /// An empty mark bitmap covering every allocated value slot.
    pub(crate) fn marks(&self) -> ValueMarks {
        ValueMarks(vec![0; self.slots().div_ceil(64)])
    }

    /// Frees every value `marks` does not hold ([`CIdx::ZERO`] and
    /// [`CIdx::ONE`] stay): the index is rebuilt at its size with the
    /// marked values only, and the rest go onto the free list.
    /// Returns the number freed. Stop-the-world (`&mut self`): the caller
    /// marked every value a live node or a held edge stores.
    pub(crate) fn sweep(&mut self, marks: &ValueMarks) -> usize {
        let (values, inv_cell) = (self.values.get_mut(), self.inv_cell);
        let (freed, grown) = self.index.get_mut().sweep(
            |idx| idx <= CIdx::ONE.0 || marks.get(idx),
            |i| place(values[i as usize], inv_cell).home(),
        );
        *self.bytes.get_mut() += grown;
        *self.live.get_mut() -= freed;
        freed
    }

    /// Bytes reserved by the table (value store, index and free list).
    /// One load: the counter moves where any of them grows.
    pub fn memory_bytes(&self) -> usize {
        self.bytes.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::prop::Gen;

    impl ComplexTable {
        /// [`Self::memory_bytes`] recounted from the structures themselves.
        pub(crate) fn recount_bytes(&self) -> usize {
            self.values.borrow().capacity() * std::mem::size_of::<Complex64>()
                + self.index.borrow().bytes()
        }

        /// The indices the sweeps freed that no value has taken again.
        pub(crate) fn free_indices(&self) -> Vec<u32> {
            self.index.borrow().free().to_vec()
        }
    }

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
            place(Complex64::real(lo), t.inv_cell).kr,
            place(Complex64::real(hi), t.inv_cell).kr
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
        let words = t.index.borrow().index.words();
        assert!(
            words >= INITIAL_SLOTS << 3,
            "the index regrew to only {words}"
        );
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
    fn recycled_slots_take_new_values_and_live_ones_keep_theirs() {
        let mut t = ComplexTable::default();
        let value = |i: usize| Complex64::new(i as f64 * 1.3e-3 - 2.0, (i as f64 * 0.71).cos());
        let idxs: Vec<CIdx> = (0..5000).map(|i| t.lookup(value(i))).collect();
        let mut marks = t.marks();
        idxs.iter().step_by(3).for_each(|&ix| marks.set(ix));
        assert_eq!(t.sweep(&marks), 5000 - 1667);
        assert_eq!((t.len(), t.slots()), (2 + 1667, 2 + 5000));
        assert_eq!(t.memory_bytes(), t.recount_bytes(), "swept");
        for (i, &ix) in idxs.iter().enumerate().step_by(3) {
            assert_eq!(t.get(ix), value(i), "a live value moved");
            assert_eq!(t.lookup(value(i)), ix, "a live value lost its filing");
        }
        // New values take the freed slots first, so the same values again
        // take exactly the freed slots: no fresh one.
        let freed: std::collections::HashSet<CIdx> = idxs
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 != 0)
            .map(|(_, &ix)| ix)
            .collect();
        for i in (0..5000).filter(|i| i % 3 != 0) {
            let ix = t.lookup(value(i));
            assert!(
                freed.contains(&ix),
                "value {i} took a slot that was not free"
            );
            assert_eq!(t.get(ix), value(i));
        }
        assert_eq!((t.len(), t.slots()), (2 + 5000, 2 + 5000));
        assert_eq!(t.memory_bytes(), t.recount_bytes(), "refilled");
        // Nothing marked: everything but the two constants goes.
        let marks = t.marks();
        assert_eq!(t.sweep(&marks), 5000);
        assert_eq!(t.lookup(Complex64::new(1.0 + 1e-12, 0.0)), CIdx::ONE);
        assert_eq!(t.lookup(Complex64::new(-1e-12, 1e-12)), CIdx::ZERO);
        assert_eq!(t.get(CIdx::ONE), Complex64::ONE);
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
