//! Vectorized complex primitives shared by every hot loop of the stack.
//!
//! The DMAV kernels (identity blocks, cached-buffer scaling, partial-buffer
//! summation), the DD-to-array conversion's table scales, the array gate
//! kernels, and the numerical-health watchdog all reduce to a handful of
//! complex BLAS-1-style primitives. Each primitive here has a portable
//! scalar implementation and an x86-64 AVX2+FMA implementation; the backend
//! is picked **once** per process via [`is_x86_feature_detected!`] and can
//! be overridden with the `FLATDD_SIMD` environment variable:
//!
//! | `FLATDD_SIMD` | effect |
//! |---------------|--------|
//! | `auto` (or unset) | AVX2+FMA when the CPU supports both, else scalar |
//! | `scalar` | force the portable path (what the scalar CI job uses) |
//! | `avx2` | request AVX2+FMA; silently falls back to scalar on CPUs without it |
//!
//! Layout contract: [`Complex64`] is `#[repr(C)] { re: f64, im: f64 }`, so a
//! `&[Complex64]` is a flat `[re, im, re, im, ...]` `f64` stream and one
//! 256-bit register holds two complex numbers.
//!
//! The AVX2 kernels use FMA and reassociate reductions, so results may
//! differ from the scalar path by a few ULPs — the property tests in this
//! module pin the agreement to `1e-12`.

use qcircuit::Complex64;
use std::sync::OnceLock;

/// Which kernel family [`backend`] selected for this process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar loops.
    Scalar,
    /// x86-64 AVX2 + FMA intrinsics.
    Avx2,
}

impl Backend {
    /// Short human-readable name (`"scalar"` / `"avx2"`), used by `--stats`
    /// output and the kernel microbenchmark.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
        }
    }
}

static BACKEND: OnceLock<Backend> = OnceLock::new();

fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn detect() -> Backend {
    let choice = std::env::var("FLATDD_SIMD").unwrap_or_default();
    match choice.to_ascii_lowercase().as_str() {
        "scalar" => Backend::Scalar,
        // An explicit "avx2" on a CPU without AVX2/FMA falls back to scalar
        // rather than executing illegal instructions.
        "avx2" | "auto" | "" => {
            if avx2_available() {
                Backend::Avx2
            } else {
                Backend::Scalar
            }
        }
        other => {
            eprintln!("FLATDD_SIMD={other:?} not recognized (auto|scalar|avx2); using auto");
            if avx2_available() {
                Backend::Avx2
            } else {
                Backend::Scalar
            }
        }
    }
}

/// The backend in use, selected on first call and fixed for the process
/// lifetime.
#[inline]
pub fn backend() -> Backend {
    *BACKEND.get_or_init(detect)
}

macro_rules! dispatch {
    ($scalar:expr, $avx2:expr) => {
        match backend() {
            Backend::Scalar => $scalar,
            Backend::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `backend()` only returns `Avx2` after runtime
                // detection of both AVX2 and FMA, the features every `avx2`
                // kernel enables (`backend_is_stable_and_named`).
                unsafe {
                    $avx2
                }
                #[cfg(not(target_arch = "x86_64"))]
                $scalar
            }
        }
    };
}

/// `dst[i] += f * src[i]` — the identity-block fast path of DMAV `Run`.
#[inline]
pub fn axpy(dst: &mut [Complex64], f: Complex64, src: &[Complex64]) {
    debug_assert_eq!(dst.len(), src.len());
    dispatch!(scalar::axpy(dst, f, src), avx2::axpy(dst, f, src))
}

/// `dst[i] = f * src[i]` — cached-buffer reuse and conversion table scales.
#[inline]
pub fn scale(dst: &mut [Complex64], f: Complex64, src: &[Complex64]) {
    debug_assert_eq!(dst.len(), src.len());
    dispatch!(scalar::scale(dst, f, src), avx2::scale(dst, f, src))
}

/// `v[i] *= f` in place — diagonal gate kernels, measurement renormalization.
#[inline]
pub fn scale_in_place(v: &mut [Complex64], f: Complex64) {
    dispatch!(scalar::scale_in_place(v, f), avx2::scale_in_place(v, f))
}

/// `dst[i] += src[i]` — partial-buffer summation of Algorithm 2.
#[inline]
pub fn sum_into(dst: &mut [Complex64], src: &[Complex64]) {
    debug_assert_eq!(dst.len(), src.len());
    dispatch!(scalar::sum_into(dst, src), avx2::sum_into(dst, src))
}

/// `sum_i |v[i]|^2` — the flat-phase norm watchdog and marginals.
///
/// Returns a non-finite value when any amplitude is non-finite, so callers
/// can keep their divergence checks without a separate scan.
#[inline]
pub fn norm_sqr(v: &[Complex64]) -> f64 {
    dispatch!(scalar::norm_sqr(v), avx2::norm_sqr(v))
}

/// Conjugate-linear inner product `sum_i conj(a[i]) * b[i]`.
#[inline]
pub fn dot(a: &[Complex64], b: &[Complex64]) -> Complex64 {
    debug_assert_eq!(a.len(), b.len());
    dispatch!(scalar::dot(a, b), avx2::dot(a, b))
}

/// One dense 2x2 complex MAC: `w[0] += m[0]*v0 + m[1]*v1` and
/// `w[1] += m[2]*v0 + m[3]*v1`. Was the unrolled level-0 case of DMAV `Run`,
/// which now goes through [`block2x2`]; kept because the benchmark times it.
///
/// # Panics
/// When `w` holds fewer than two amplitudes.
#[inline]
pub fn mac2x2(w: &mut [Complex64], m: &[Complex64; 4], v0: Complex64, v1: Complex64) {
    let w = w.first_chunk_mut().expect("mac2x2 writes two amplitudes");
    dispatch!(scalar::mac2x2(w, m, v0, v1), avx2::mac2x2(w, m, v0, v1))
}

/// Out-of-place 2x2 block kernel, the `U (x) I_half` node of a compiled DMAV
/// program: `w` and `v` are cut into blocks of `2 * half` amplitudes and in
/// every block `(w_lo, w_hi) = m * (v_lo, v_hi)` over the two `half`-long
/// runs. `half == 1` is the adjacent-pair case (a gate on qubit 0). Every
/// element of `w` is stored, none is read.
#[inline]
pub fn block2x2(w: &mut [Complex64], m: &[Complex64; 4], v: &[Complex64], half: usize) {
    debug_assert!(half > 0 && w.len() == v.len() && w.len().is_multiple_of(2 * half));
    dispatch!(
        scalar::block2x2::<false>(w, m, v, half),
        avx2::block2x2::<false>(w, m, v, half)
    )
}

/// Accumulating [`block2x2`]: `(w_lo, w_hi) += m * (v_lo, v_hi)` per block —
/// the second and later columns of an output row.
#[inline]
pub fn block2x2_acc(w: &mut [Complex64], m: &[Complex64; 4], v: &[Complex64], half: usize) {
    debug_assert!(half > 0 && w.len() == v.len() && w.len().is_multiple_of(2 * half));
    dispatch!(
        scalar::block2x2::<true>(w, m, v, half),
        avx2::block2x2::<true>(w, m, v, half)
    )
}

/// Applies a dense 2x2 matrix to paired amplitude runs:
/// `(lo[i], hi[i]) <- m * (lo[i], hi[i])` — the array-kernel general path.
#[inline]
pub fn apply_2x2(lo: &mut [Complex64], hi: &mut [Complex64], m: &[Complex64; 4]) {
    debug_assert_eq!(lo.len(), hi.len());
    dispatch!(scalar::apply_2x2(lo, hi, m), avx2::apply_2x2(lo, hi, m))
}

/// One real 2x2 of a [`real_2x2_group`]: `(lo, hi) <- m * (lo, hi)` on
/// every pair of amplitudes `half` apart in each `2 * half`-sized block —
/// `I (x) m (x) I_half`, a one-qubit gate on the qubit of bit `half`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Real2x2 {
    /// Distance between the two amplitudes of a pair: a power of two of at
    /// least 2, so each side of a pair fills whole registers.
    pub half: usize,
    /// The entries, row-major.
    pub m: [f64; 4],
}

impl Real2x2 {
    /// `m` on pairs `half` apart, when that is a [`Real2x2`]: every entry
    /// real, `m` not diagonal (a diagonal scales only the run its entry
    /// that is not 1 covers) and `half >= 2`.
    pub fn of(m: &[Complex64; 4], half: usize) -> Option<Self> {
        let real = m.iter().all(|x| x.im == 0.0);
        let mixes = !(m[1].is_zero() && m[2].is_zero());
        (real && mixes && half >= 2 && half.is_power_of_two()).then(|| Real2x2 {
            half,
            m: m.map(|x| x.re),
        })
    }
}

/// Most matrices one [`real_2x2_group`] applies per register load: three
/// hold a group's eight registers and twelve broadcast entries in the
/// sixteen of AVX2 (EXPERIMENTS.md, "Real one-qubit groups").
pub const REAL_GROUP: usize = 3;

/// `v <- group[k-1] * ... * group[0] * v` for 1 to [`REAL_GROUP`] real 2x2s
/// on distinct halves, in one pass: each set of `2^k` amplitudes the group
/// mixes is loaded once, taken through every matrix in order, and stored
/// once. Every amplitude is the one [`apply_2x2`] per matrix leaves, with
/// the entries as complex numbers (the same products, summed in the same
/// order; only the sign of an exact zero may differ), at half the
/// multiplies and none of the shuffles.
///
/// # Panics
/// Unless the group holds 1 to [`REAL_GROUP`] matrices whose halves are
/// distinct powers of two of at least 2, and twice the widest divides
/// `v.len()`.
pub fn real_2x2_group(v: &mut [Complex64], group: &[Real2x2]) {
    let widest = group.iter().map(|g| g.half).max().unwrap_or(0);
    let distinct = group.iter().enumerate().all(|(j, g)| {
        g.half >= 2 && g.half.is_power_of_two() && group[..j].iter().all(|e| e.half != g.half)
    });
    assert!(
        distinct && widest > 0 && group.len() <= REAL_GROUP && v.len().is_multiple_of(2 * widest),
        "a real group is 1 to {REAL_GROUP} matrices on distinct halves that divide the vector"
    );
    match group {
        [a] => dispatch!(scalar::real_group(v, &[*a]), avx2::real_group(v, &[*a])),
        [a, b] => dispatch!(
            scalar::real_group(v, &[*a, *b]),
            avx2::real_group(v, &[*a, *b])
        ),
        [a, b, c] => dispatch!(
            scalar::real_group(v, &[*a, *b, *c]),
            avx2::real_group(v, &[*a, *b, *c])
        ),
        _ => unreachable!("group length checked above"),
    }
}

/// Where the amplitudes a group of `K` matrices mixes lie in a vector of
/// `len` elements (amplitudes, or registers of two), the halves counted in
/// elements: from every base [`Self::bases`] yields, `2^K` runs of
/// [`Self::run`] elements start at `base + off[r]`, bit `j` of `r` the side
/// of gate `j`'s pairs the run lies on, all within `base..base + span`.
struct GroupLayout<const K: usize> {
    off: [usize; 1 << REAL_GROUP],
    /// The halves, ascending: the bits of an index a base leaves zero.
    bits: [usize; K],
    run: usize,
    span: usize,
    bases: usize,
}

impl<const K: usize> GroupLayout<K> {
    fn new(halves: [usize; K], len: usize) -> Self {
        let mut off = [0; 1 << REAL_GROUP];
        for (r, off) in off.iter_mut().enumerate().take(1 << K) {
            *off = (0..K)
                .filter(|j| (r >> j) & 1 == 1)
                .map(|j| halves[j])
                .sum();
        }
        let mut bits = halves;
        bits.sort_unstable();
        GroupLayout {
            off,
            bits,
            run: bits[0],
            span: off[(1 << K) - 1] + bits[0],
            bases: (len >> K) / bits[0],
        }
    }

    /// The start of every `run`: its index with a zero bit inserted at each
    /// half, lowest first.
    fn bases(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.bases).map(move |o| {
            let deposit = |at: usize, h: &usize| (at & (h - 1)) | ((at & !(h - 1)) << 1);
            self.bits.iter().fold(o * self.run, deposit)
        })
    }
}

/// Longest period of the one-use tables the in-place walk builds per call
/// ([`PairTable::with`], [`DiagTable::with`]): 16 pairs or amplitudes, eight
/// register positions of the AVX2 loops, so a table fits on the stack.
pub const MAX_TILE: usize = 16;

/// Whether `m` is exactly the 2x2 identity: a pair it would leave as it is,
/// which the in-place kernels and their callers skip instead of multiply.
#[inline]
pub fn is_identity(m: &[Complex64; 4]) -> bool {
    m[0] == Complex64::ONE && m[3] == Complex64::ONE && m[1].is_zero() && m[2].is_zero()
}

/// In-place 2x2 on adjacent pairs, `(v[2k], v[2k+1]) <- m * (v[2k], v[2k+1])`:
/// a gate on qubit 0 of the in-place DMAV walk, where both amplitudes of a
/// pair sit in one register. An odd trailing element is left alone.
#[inline]
pub fn pairs2x2(v: &mut [Complex64], m: &[Complex64; 4]) {
    dispatch!(scalar::pairs2x2(v, m), avx2::pairs2x2(v, m))
}

/// Two complex numbers in the broadcast layout of the AVX2 kernels:
/// `[a.re, a.re, b.re, b.re]` and `[a.im, a.im, b.im, b.im]` — one register
/// each, multiplied into a register of two amplitudes with one shuffle.
fn lanes(a: Complex64, b: Complex64) -> [[f64; 4]; 2] {
    [[a.re, a.re, b.re, b.re], [a.im, a.im, b.im, b.im]]
}

/// One register position of a [`PairTable`]: the 2x2 matrices of two
/// consecutive pairs, entry `k` of both as [`lanes`] at `[2k]` (real parts)
/// and `[2k + 1]` (imaginary) — the registers the AVX2 loop loads. Aligned
/// to a register, so no load straddles a cache line (unaligned, the flag
/// put every table entry at another offset and a plan-time tile ran up to
/// a third slower).
#[derive(Clone, Copy, Debug)]
#[repr(align(32))]
pub struct PairCoef {
    lanes: [[f64; 4]; 8],
    /// Both matrices are exactly the identity: under a factor of 1 the
    /// position is not touched.
    identity: bool,
}

impl PairCoef {
    /// Position `r` of the period `mats`: pairs `2r` and `2r + 1` modulo
    /// the period (a period of one fills both lanes).
    #[inline]
    fn of(mats: &[[Complex64; 4]], r: usize) -> Self {
        let wrap = mats.len() - 1;
        let (a, b) = (&mats[(2 * r) & wrap], &mats[(2 * r + 1) & wrap]);
        let l = |k: usize| lanes(a[k], b[k]);
        let [l0, l1, l2, l3] = [l(0), l(1), l(2), l(3)];
        PairCoef {
            lanes: [l0[0], l0[1], l1[0], l1[1], l2[0], l2[1], l3[0], l3[1]],
            identity: is_identity(a) && is_identity(b),
        }
    }

    /// The matrix of the position's first (`lane` 0) or second pair.
    fn matrix(&self, lane: usize) -> [Complex64; 4] {
        let c = &self.lanes;
        std::array::from_fn(|k| Complex64::new(c[2 * k][2 * lane], c[2 * k + 1][2 * lane]))
    }
}

/// Entries of a table of period `p` (a power of two), `per` to an entry.
#[inline]
fn table_len(p: usize, per: usize) -> usize {
    assert!(p.is_power_of_two(), "a table's period is a power of two");
    p.div_ceil(per)
}

/// Calls `run` with the `n` entries `entry(0..n)` in an array on the
/// stack, `n` one of 1, 2, 4 or 8 (a one-use table of at most
/// [`MAX_TILE`] pairs or amplitudes): each entry is written once, and
/// nothing is zeroed or allocated.
#[inline]
fn on_stack<T, R>(n: usize, entry: impl Fn(usize) -> T, run: impl FnOnce(&[T]) -> R) -> R {
    let e = entry;
    match n {
        1 => run(&[e(0)]),
        2 => run(&[e(0), e(1)]),
        4 => run(&[e(0), e(1), e(2), e(3)]),
        8 => run(&[e(0), e(1), e(2), e(3), e(4), e(5), e(6), e(7)]),
        _ => panic!("a one-use table has at most {MAX_TILE} pairs or amplitudes"),
    }
}

/// 2x2 matrices on the amplitude pairs of a vector cut into blocks of
/// `2 * half`: pair `i < half` of block `b` is `(v[2*half*b + i],
/// v[2*half*b + half + i])`, and it takes entry `(b*half + i) mod len` of
/// the table's `len` matrices (a power of two). That one rule covers:
///
/// * one 2x2 on every block (`len` 1): a gate `U (x) I_half`;
/// * a short period (`len <= MAX_TILE`, dividing `half`): a gate controlled
///   from *below* its target, whose 2x2 depends on the low bits of a pair's
///   index (the identity where a control is off), built per call;
/// * one 2x2 per pair of a span (`len` its pairs, `half` the stride): the
///   plan-time tile of a node with one non-diagonal pair stride (an `RY`
///   folded with an irregular diagonal, DESIGN.md §8.1).
///
/// The entries live in a plan's `Vec` ([`Self::new`]) or in an array on
/// the stack ([`Self::with`]); both run the same loops.
#[derive(Debug)]
pub struct PairTable<C = Vec<PairCoef>> {
    coef: C,
}

impl PairTable {
    /// The table of `mats`, one matrix per pair in pair order, kept.
    ///
    /// # Panics
    /// Unless `mats.len()` is a power of two.
    pub fn new(mats: &[[Complex64; 4]]) -> Self {
        let n = table_len(mats.len(), 2);
        PairTable {
            coef: (0..n).map(|r| PairCoef::of(mats, r)).collect(),
        }
    }

    /// Calls `run` with the one-use table of `mats`, built on the stack: only
    /// the positions the period uses are written, and nothing is allocated.
    ///
    /// # Panics
    /// Unless `mats.len()` is a power of two of at most [`MAX_TILE`].
    pub fn with<R>(mats: &[[Complex64; 4]], run: impl FnOnce(PairTable<&[PairCoef]>) -> R) -> R {
        let n = table_len(mats.len(), 2);
        on_stack(n, |r| PairCoef::of(mats, r), |coef| run(PairTable { coef }))
    }

    /// Heap bytes of the table.
    pub fn memory_bytes(&self) -> usize {
        self.coef.capacity() * std::mem::size_of::<PairCoef>()
    }
}

impl<C: AsRef<[PairCoef]>> PairTable<C> {
    /// `(lo, hi) <- m_j * f * (lo, hi)` on every pair of every `2 * half`-sized
    /// block of `v`, `m_j` the table's entry for the pair (above). Positions
    /// whose two matrices are exactly the identity are not touched under a
    /// factor of 1.
    ///
    /// # Panics
    /// Unless `half` is a power of two and `2 * half` divides `v.len()`, and
    /// at `half == 1` the pairs are even in number (the AVX2 loop steps by
    /// registers without a tail, so this is asserted in release builds too).
    #[inline]
    pub fn apply(&self, v: &mut [Complex64], half: usize, f: Complex64) {
        assert!(
            half.is_power_of_two() && v.len().is_multiple_of(2 * half.max(2)),
            "a pair table runs over whole blocks of register pairs"
        );
        let coef = self.coef.as_ref();
        dispatch!(
            scalar::pair_table(coef, blocks(v, half), f),
            avx2::pair_table(coef, v, half, f)
        )
    }

    /// [`Self::apply`] on one block whose halves `lo` and `hi` lie apart (a
    /// region of a pair walk): pair `i` is `(lo[i], hi[i])`.
    ///
    /// # Panics
    /// Unless `lo` and `hi` have one even length.
    #[inline]
    pub fn apply_runs(&self, lo: &mut [Complex64], hi: &mut [Complex64], f: Complex64) {
        assert!(
            lo.len() == hi.len() && lo.len().is_multiple_of(2),
            "a pair table runs over whole registers"
        );
        let coef = self.coef.as_ref();
        dispatch!(
            scalar::pair_table(coef, std::iter::once((lo, hi)), f),
            avx2::pair_runs(coef, std::iter::once((lo, hi)), f)
        )
    }
}

/// The two halves of every `2 * half`-sized block of `v`.
fn blocks(
    v: &mut [Complex64],
    half: usize,
) -> impl Iterator<Item = (&mut [Complex64], &mut [Complex64])> {
    v.chunks_exact_mut(2 * half)
        .map(move |b| b.split_at_mut(half))
}

/// The order [`DiagCoef`] keeps four consecutive entries in.
const SPLIT_ORDER: [usize; 4] = [0, 2, 1, 3];

/// Four consecutive entries `a, b, c, d` of a [`DiagTable`]: the real parts
/// as `[a, c, b, d]` ([`SPLIT_ORDER`]), then the imaginary parts — the
/// order unpacking two registers of amplitudes (`[a, b]`, `[c, d]`) into
/// one of real and one of imaginary parts leaves them in, so the entries
/// are multiplied in without a shuffle of their own. Aligned to a register
/// as [`PairCoef`] is: 24 bytes an entry.
#[derive(Clone, Copy, Debug)]
#[repr(align(32))]
pub struct DiagCoef {
    lanes: [[f64; 4]; 2],
    /// Per register (`a, b` and `c, d`): both entries are exactly 1, so
    /// under a factor of 1 it is not touched.
    ones: [bool; 2],
}

impl DiagCoef {
    /// Entries `4q .. 4q + 4` of the diagonal `d`, modulo its period (a
    /// shorter one repeated).
    #[inline]
    fn of(d: &[Complex64], q: usize) -> Self {
        let e = |k: usize| d[(4 * q + k) & (d.len() - 1)];
        let split = SPLIT_ORDER.map(e);
        let one = |k: usize| e(k) == Complex64::ONE;
        DiagCoef {
            lanes: [split.map(|c| c.re), split.map(|c| c.im)],
            ones: [one(0) && one(1), one(2) && one(3)],
        }
    }
}

/// A diagonal of `p` entries (a power of two), applied as `v[i] <- f *
/// d[i mod p] * v[i]`. Two shapes share it:
///
/// * a short period (`p <= MAX_TILE`) with the factor folded into the
///   entries: T or CZ on low qubits, the bottom of an irregular diagonal,
///   built per call;
/// * the plan-time tile of an irregular fused diagonal (`p` its span,
///   DESIGN.md §8.1), applied under each occurrence's factor.
///
/// The entries live in a plan's `Vec` ([`Self::new`]) or in an array on
/// the stack ([`Self::with`]); both run the same loops.
#[derive(Debug)]
pub struct DiagTable<C = Vec<DiagCoef>> {
    coef: C,
}

impl DiagTable {
    /// The table of the diagonal `d`, kept.
    ///
    /// # Panics
    /// Unless `d.len()` is a power of two.
    pub fn new(d: &[Complex64]) -> Self {
        let n = table_len(d.len(), 4);
        DiagTable {
            coef: (0..n).map(|q| DiagCoef::of(d, q)).collect(),
        }
    }

    /// Calls `run` with the one-use table of `d`, built on the stack:
    /// nothing is allocated.
    ///
    /// # Panics
    /// Unless `d.len()` is a power of two of at most [`MAX_TILE`].
    pub fn with<R>(d: &[Complex64], run: impl FnOnce(DiagTable<&[DiagCoef]>) -> R) -> R {
        let n = table_len(d.len(), 4);
        on_stack(n, |q| DiagCoef::of(d, q), |coef| run(DiagTable { coef }))
    }

    /// Heap bytes of the table.
    pub fn memory_bytes(&self) -> usize {
        self.coef.capacity() * std::mem::size_of::<DiagCoef>()
    }
}

impl<C: AsRef<[DiagCoef]>> DiagTable<C> {
    /// Entries the diagonal repeats after (four for a shorter period).
    pub fn period(&self) -> usize {
        4 * self.coef.as_ref().len()
    }

    /// `v[i] <- f * d[i mod p] * v[i]`: `f` folded into the entry, then the
    /// amplitude through it. Registers whose two entries are exactly 1 are
    /// not touched under a factor of 1.
    ///
    /// # Panics
    /// Unless `v.len()` is even (the AVX2 loop steps by registers).
    #[inline]
    pub fn apply(&self, v: &mut [Complex64], f: Complex64) {
        assert!(
            v.len().is_multiple_of(2),
            "a diagonal table runs over whole registers"
        );
        let coef = self.coef.as_ref();
        dispatch!(scalar::diag_table(coef, v, f), avx2::diag_table(coef, v, f))
    }
}

/// Portable reference implementations (and the tail handlers of the AVX2
/// path).
pub(crate) mod scalar {
    use super::Complex64;

    pub fn diag_table(coef: &[super::DiagCoef], v: &mut [Complex64], f: Complex64) {
        let mask = coef.len() - 1;
        for (q, x) in v.chunks_mut(4).enumerate() {
            let c = &coef[q & mask];
            let [re, im] = c.lanes;
            // `f * d` four lanes at a time (the compiler vectorizes this).
            let fd_re: [f64; 4] = std::array::from_fn(|l| f.re * re[l] - f.im * im[l]);
            let fd_im: [f64; 4] = std::array::from_fn(|l| f.re * im[l] + f.im * re[l]);
            for (k, a) in x.iter_mut().enumerate() {
                let l = super::SPLIT_ORDER[k];
                if f != Complex64::ONE {
                    *a = Complex64::new(fd_re[l], fd_im[l]) * *a;
                } else if !c.ones[k / 2] {
                    *a = Complex64::new(re[l], im[l]) * *a;
                }
            }
        }
    }

    /// Pair `g`, counted across the runs, takes lane `g % 2` of position
    /// `g / 2` modulo the table.
    pub fn pair_table<'a>(
        coef: &[super::PairCoef],
        runs: impl Iterator<Item = (&'a mut [Complex64], &'a mut [Complex64])>,
        f: Complex64,
    ) {
        let mask = coef.len() - 1;
        let mut g = 0;
        for (lo, hi) in runs {
            for (l, h) in lo.iter_mut().zip(hi) {
                let c = &coef[(g / 2) & mask];
                if f != Complex64::ONE || !c.identity {
                    let m = c.matrix(g % 2);
                    let (a0, a1) = if f == Complex64::ONE {
                        (*l, *h)
                    } else {
                        (f * *l, f * *h)
                    };
                    *l = m[0] * a0 + m[1] * a1;
                    *h = m[2] * a0 + m[3] * a1;
                }
                g += 1;
            }
        }
    }

    pub fn axpy(dst: &mut [Complex64], f: Complex64, src: &[Complex64]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = d.mac(f, s);
        }
    }

    pub fn scale(dst: &mut [Complex64], f: Complex64, src: &[Complex64]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = f * s;
        }
    }

    pub fn scale_in_place(v: &mut [Complex64], f: Complex64) {
        for a in v {
            *a = f * *a;
        }
    }

    pub fn sum_into(dst: &mut [Complex64], src: &[Complex64]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d += s;
        }
    }

    pub fn norm_sqr(v: &[Complex64]) -> f64 {
        let mut sq = 0.0;
        for a in v {
            sq += a.norm_sqr();
        }
        sq
    }

    pub fn dot(a: &[Complex64], b: &[Complex64]) -> Complex64 {
        let mut acc = Complex64::ZERO;
        for (&x, &y) in a.iter().zip(b) {
            acc += x.conj() * y;
        }
        acc
    }

    pub fn mac2x2(w: &mut [Complex64; 2], m: &[Complex64; 4], v0: Complex64, v1: Complex64) {
        w[0] = w[0].mac(m[0], v0).mac(m[1], v1);
        w[1] = w[1].mac(m[2], v0).mac(m[3], v1);
    }

    pub fn apply_2x2(lo: &mut [Complex64], hi: &mut [Complex64], m: &[Complex64; 4]) {
        for (l, h) in lo.iter_mut().zip(hi.iter_mut()) {
            let (a0, a1) = (*l, *h);
            *l = m[0] * a0 + m[1] * a1;
            *h = m[2] * a0 + m[3] * a1;
        }
    }

    /// `(a0, a1)` through the real 2x2 `m`: the products and sums of
    /// [`apply_2x2`] on real entries.
    #[inline(always)]
    fn real_mul(a0: Complex64, a1: Complex64, m: &[f64; 4]) -> (Complex64, Complex64) {
        (
            Complex64::new(m[0] * a0.re + m[1] * a1.re, m[0] * a0.im + m[1] * a1.im),
            Complex64::new(m[2] * a0.re + m[3] * a1.re, m[2] * a0.im + m[3] * a1.im),
        )
    }

    pub fn real_group<const K: usize>(v: &mut [Complex64], group: &[super::Real2x2; K]) {
        let layout = super::GroupLayout::new(group.map(|g| g.half), v.len());
        let (off, r_len) = (&layout.off, 1 << K);
        let mut x = [Complex64::ZERO; 1 << super::REAL_GROUP];
        for base in layout.bases() {
            let span = &mut v[base..base + layout.span];
            for i in 0..layout.run {
                for r in 0..r_len {
                    x[r] = span[i + off[r]];
                }
                for (j, g) in group.iter().enumerate() {
                    for r in 0..r_len {
                        if (r >> j) & 1 == 0 {
                            (x[r], x[r | 1 << j]) = real_mul(x[r], x[r | 1 << j], &g.m);
                        }
                    }
                }
                for r in 0..r_len {
                    span[i + off[r]] = x[r];
                }
            }
        }
    }

    pub fn pairs2x2(v: &mut [Complex64], m: &[Complex64; 4]) {
        for pair in v.chunks_exact_mut(2) {
            let (a0, a1) = (pair[0], pair[1]);
            pair[0] = m[0] * a0 + m[1] * a1;
            pair[1] = m[2] * a0 + m[3] * a1;
        }
    }

    /// One block of [`block2x2`]: `(w_lo, w_hi) (+)= m * (v_lo, v_hi)`.
    #[inline(always)]
    pub fn block2x2_one<const ACC: bool>(
        w_lo: &mut [Complex64],
        w_hi: &mut [Complex64],
        m: &[Complex64; 4],
        v_lo: &[Complex64],
        v_hi: &[Complex64],
    ) {
        for (((wl, wh), &a0), &a1) in w_lo.iter_mut().zip(w_hi.iter_mut()).zip(v_lo).zip(v_hi) {
            let lo = m[0] * a0 + m[1] * a1;
            let hi = m[2] * a0 + m[3] * a1;
            if ACC {
                *wl += lo;
                *wh += hi;
            } else {
                *wl = lo;
                *wh = hi;
            }
        }
    }

    pub fn block2x2<const ACC: bool>(
        w: &mut [Complex64],
        m: &[Complex64; 4],
        v: &[Complex64],
        half: usize,
    ) {
        if half == 1 {
            // Adjacent pairs: constant-size chunks, so the per-block slice
            // bookkeeping of the general loop compiles away.
            for (wb, vb) in w.chunks_exact_mut(2).zip(v.chunks_exact(2)) {
                let (w_lo, w_hi) = wb.split_at_mut(1);
                block2x2_one::<ACC>(w_lo, w_hi, m, &vb[..1], &vb[1..]);
            }
            return;
        }
        for (wb, vb) in w.chunks_exact_mut(2 * half).zip(v.chunks_exact(2 * half)) {
            let (w_lo, w_hi) = wb.split_at_mut(half);
            let (v_lo, v_hi) = vb.split_at(half);
            block2x2_one::<ACC>(w_lo, w_hi, m, v_lo, v_hi);
        }
    }
}

/// AVX2+FMA kernels. One `__m256d` holds two `Complex64` values as
/// `[re0, im0, re1, im1]`; complex multiplication is the standard
/// `fmaddsub` shuffle recipe (3 shuffles + 1 mul + 1 fused op per pair).
///
/// Every kernel is a safe `#[target_feature]` fn that walks its slices as
/// `[Complex64; 2]` registers (`as_chunks`, `chunks_exact`,
/// `split_at_mut`), so bounds are the slices' own. Only the register
/// primitives [`load`], [`store`] and [`load_lanes`] touch a pointer, each
/// on a whole array reference; the one `unsafe` a caller needs is the call
/// into this module, which `dispatch!` makes after runtime detection.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{scalar, Complex64, DiagCoef, PairCoef, Real2x2};
    use std::arch::x86_64::*;

    /// The register of two amplitudes.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn load(x: &[Complex64; 2]) -> __m256d {
        // SAFETY: `x` is 32 readable bytes (`Complex64` is `#[repr(C)]` of
        // two f64s) and the load is unaligned
        // (`avx2_kernels_match_scalar_directly`).
        unsafe { _mm256_loadu_pd(x.as_ptr().cast()) }
    }

    /// Stores a register into two amplitudes.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn store(x: &mut [Complex64; 2], r: __m256d) {
        // SAFETY: `x` is 32 writable bytes of two `#[repr(C)]` f64 pairs, any
        // bit pattern of which is a valid `Complex64`
        // (`avx2_kernels_match_scalar_directly`).
        unsafe { _mm256_storeu_pd(x.as_mut_ptr().cast(), r) }
    }

    /// Registers of prepared lanes (`super::lanes` layout).
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn load_lanes<const N: usize>(c: &[[f64; 4]; N]) -> [__m256d; N] {
        // SAFETY: each `lanes` is 32 readable bytes; the load is unaligned
        // (`avx2_kernels_match_scalar_directly`).
        c.map(|lanes| unsafe { _mm256_loadu_pd(lanes.as_ptr()) })
    }

    /// `v` as registers of two amplitudes (an odd last one left out).
    #[inline(always)]
    fn regs(v: &[Complex64]) -> &[[Complex64; 2]] {
        v.as_chunks().0
    }

    /// [`regs`], mutably.
    #[inline(always)]
    fn regs_mut(v: &mut [Complex64]) -> &mut [[Complex64; 2]] {
        v.as_chunks_mut().0
    }

    /// `x * f` for a packed pair, with `f` pre-broadcast as
    /// (`f_re` = `[f.re; 4]`, `f_im` = `[f.im; 4]`).
    ///
    /// Even lanes: `x.re*f.re - x.im*f.im`; odd: `x.im*f.re + x.re*f.im`.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn cmul_bcast(x: __m256d, f_re: __m256d, f_im: __m256d) -> __m256d {
        let x_swap = _mm256_permute_pd(x, 0b0101);
        _mm256_fmaddsub_pd(x, f_re, _mm256_mul_pd(x_swap, f_im))
    }

    /// One amplitude in both halves of a register.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn bcast(x: &Complex64) -> __m256d {
        let x = _mm_setr_pd(x.re, x.im);
        _mm256_set_m128d(x, x)
    }

    /// The registers of a 2x2 matrix applied to a register of `lo`
    /// amplitudes and one of `hi`: `[re, im]` broadcasts of `m0` to `m3`,
    /// the [`PairCoef`] layout of a single matrix.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn matrix_regs(m: &[Complex64; 4]) -> [__m256d; 8] {
        std::array::from_fn(|x| {
            let e = m[x / 2];
            _mm256_set1_pd(if x % 2 == 0 { e.re } else { e.im })
        })
    }

    #[target_feature(enable = "avx2,fma")]
    pub fn axpy(dst: &mut [Complex64], f: Complex64, src: &[Complex64]) {
        let n = dst.len().min(src.len());
        let f_re = _mm256_set1_pd(f.re);
        let f_im = _mm256_set1_pd(f.im);
        for (d, s) in regs_mut(&mut dst[..n]).iter_mut().zip(regs(&src[..n])) {
            let v = load(s);
            let w = load(d);
            let prod = cmul_bcast(v, f_re, f_im);
            store(d, _mm256_add_pd(w, prod));
        }
        let i = n / 2 * 2;
        scalar::axpy(&mut dst[i..n], f, &src[i..n]);
    }

    #[target_feature(enable = "avx2,fma")]
    pub fn scale(dst: &mut [Complex64], f: Complex64, src: &[Complex64]) {
        let n = dst.len().min(src.len());
        let f_re = _mm256_set1_pd(f.re);
        let f_im = _mm256_set1_pd(f.im);
        for (d, s) in regs_mut(&mut dst[..n]).iter_mut().zip(regs(&src[..n])) {
            store(d, cmul_bcast(load(s), f_re, f_im));
        }
        let i = n / 2 * 2;
        scalar::scale(&mut dst[i..n], f, &src[i..n]);
    }

    #[target_feature(enable = "avx2,fma")]
    pub fn scale_in_place(v: &mut [Complex64], f: Complex64) {
        let f_re = _mm256_set1_pd(f.re);
        let f_im = _mm256_set1_pd(f.im);
        let (pairs, tail) = v.as_chunks_mut();
        for x in pairs {
            store(x, cmul_bcast(load(x), f_re, f_im));
        }
        scalar::scale_in_place(tail, f);
    }

    #[target_feature(enable = "avx2,fma")]
    pub fn sum_into(dst: &mut [Complex64], src: &[Complex64]) {
        let n = dst.len().min(src.len());
        let i = n / 4 * 4;
        let (dst, dst_tail) = dst[..n].split_at_mut(i);
        let (src, src_tail) = src[..n].split_at(i);
        // Treat the pair stream as flat f64 addition (no shuffles at all).
        let quads = regs_mut(dst).as_chunks_mut().0.iter_mut();
        for ([d0, d1], [s0, s1]) in quads.zip(regs(src).as_chunks().0) {
            let a0 = load(d0);
            let b0 = load(s0);
            let a1 = load(d1);
            let b1 = load(s1);
            store(d0, _mm256_add_pd(a0, b0));
            store(d1, _mm256_add_pd(a1, b1));
        }
        scalar::sum_into(dst_tail, src_tail);
    }

    #[target_feature(enable = "avx2,fma")]
    pub fn norm_sqr(v: &[Complex64]) -> f64 {
        let (pairs, tail) = v.as_chunks();
        let (quads, odd) = pairs.as_chunks();
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        for [a, b] in quads {
            let x0 = load(a);
            let x1 = load(b);
            acc0 = _mm256_fmadd_pd(x0, x0, acc0);
            acc1 = _mm256_fmadd_pd(x1, x1, acc1);
        }
        for a in odd {
            let x = load(a);
            acc0 = _mm256_fmadd_pd(x, x, acc0);
        }
        let acc = _mm256_add_pd(acc0, acc1);
        let lo = _mm256_castpd256_pd128(acc);
        let hi = _mm256_extractf128_pd(acc, 1);
        let s = _mm_add_pd(lo, hi);
        let mut sum = _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
        for x in tail.iter().flat_map(|a| [a.re, a.im]) {
            sum += x * x;
        }
        sum
    }

    #[target_feature(enable = "avx2,fma")]
    pub fn dot(a: &[Complex64], b: &[Complex64]) -> Complex64 {
        let n = a.len().min(b.len());
        let mut acc = _mm256_setzero_pd();
        for (x, y) in regs(&a[..n]).iter().zip(regs(&b[..n])) {
            let av = load(x);
            let bv = load(y);
            // conj(a)*b: even lanes a.re*b.re + a.im*b.im,
            //            odd lanes  a.re*b.im - a.im*b.re.
            let a_re = _mm256_movedup_pd(av);
            let a_im = _mm256_permute_pd(av, 0b1111);
            let b_swap = _mm256_permute_pd(bv, 0b0101);
            let prod = _mm256_fmsubadd_pd(bv, a_re, _mm256_mul_pd(b_swap, a_im));
            acc = _mm256_add_pd(acc, prod);
        }
        let lo = _mm256_castpd256_pd128(acc);
        let hi = _mm256_extractf128_pd(acc, 1);
        let s = _mm_add_pd(lo, hi);
        let mut out = Complex64::new(_mm_cvtsd_f64(s), _mm_cvtsd_f64(_mm_unpackhi_pd(s, s)));
        let i = n / 2 * 2;
        out += scalar::dot(&a[i..n], &b[i..n]);
        out
    }

    #[target_feature(enable = "avx2,fma")]
    pub fn mac2x2(w: &mut [Complex64; 2], m: &[Complex64; 4], v0: Complex64, v1: Complex64) {
        // [m0*v0, m1*v1] and [m2*v0, m3*v1] in two vector multiplies, then
        // horizontal-add each register's halves into one complex each.
        let (top, bot) = (load(&[m[0], m[1]]), load(&[m[2], m[3]]));
        let v = _mm256_setr_pd(v0.re, v0.im, v1.re, v1.im);
        let v_re = _mm256_movedup_pd(v);
        let v_im = _mm256_permute_pd(v, 0b1111);
        let tp = cmul_bcast(top, v_re, v_im);
        let bp = cmul_bcast(bot, v_re, v_im);
        let t = _mm_add_pd(_mm256_castpd256_pd128(tp), _mm256_extractf128_pd(tp, 1));
        let b = _mm_add_pd(_mm256_castpd256_pd128(bp), _mm256_extractf128_pd(bp, 1));
        store(w, _mm256_add_pd(load(w), _mm256_set_m128d(b, t)));
    }

    /// A register of `lo` amplitudes and one of `hi` through their lanes'
    /// matrices, `c` the `[re, im]` registers of the four entries.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn pair_mul(a0: __m256d, a1: __m256d, c: &[__m256d; 8]) -> (__m256d, __m256d) {
        (
            _mm256_add_pd(cmul_bcast(a0, c[0], c[1]), cmul_bcast(a1, c[2], c[3])),
            _mm256_add_pd(cmul_bcast(a0, c[4], c[5]), cmul_bcast(a1, c[6], c[7])),
        )
    }

    /// [`pair_mul`] on the registers `lo` and `hi` through `f`, in place.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn pair_step(lo: &mut [Complex64; 2], hi: &mut [Complex64; 2], c: &[__m256d; 8], f: Factor) {
        let (new_lo, new_hi) = pair_mul(scaled(load(lo), f), scaled(load(hi), f), c);
        store(lo, new_lo);
        store(hi, new_hi);
    }

    #[target_feature(enable = "avx2,fma")]
    pub fn apply_2x2(lo: &mut [Complex64], hi: &mut [Complex64], m: &[Complex64; 4]) {
        let n = lo.len().min(hi.len());
        let c = matrix_regs(m);
        for (l, h) in regs_mut(&mut lo[..n])
            .iter_mut()
            .zip(regs_mut(&mut hi[..n]))
        {
            pair_step(l, h, &c, None);
        }
        let i = n / 2 * 2;
        scalar::apply_2x2(&mut lo[i..n], &mut hi[i..n], m);
    }

    /// A register of `lo` amplitudes and one of `hi` through a real 2x2
    /// (`m`: its entries, broadcast): [`pair_mul`]'s products and sums,
    /// which on real entries round alike.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn real_pair(a0: __m256d, a1: __m256d, m: &[__m256d; 4]) -> (__m256d, __m256d) {
        (
            _mm256_add_pd(_mm256_mul_pd(a0, m[0]), _mm256_mul_pd(a1, m[1])),
            _mm256_add_pd(_mm256_mul_pd(a0, m[2]), _mm256_mul_pd(a1, m[3])),
        )
    }

    /// The broadcast entries of `K` real matrices.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn real_regs<const K: usize>(m: &[[f64; 4]; K]) -> [[__m256d; 4]; K] {
        let mut c = [[_mm256_setzero_pd(); 4]; K];
        for (c, m) in c.iter_mut().zip(m) {
            for (c, &x) in c.iter_mut().zip(m) {
                *c = _mm256_set1_pd(x);
            }
        }
        c
    }

    /// Registers of `lo` and `hi` amplitudes through the real 2x2 `c`.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn real_pairs(lo: &mut [[Complex64; 2]], hi: &mut [[Complex64; 2]], c: &[__m256d; 4]) {
        for (l, h) in lo.iter_mut().zip(hi) {
            let (new_lo, new_hi) = real_pair(load(l), load(h), c);
            store(l, new_lo);
            store(h, new_hi);
        }
    }

    /// [`scalar::real_group`] a register at a time: the halves, even,
    /// count registers here. No closure calls a kernel: it would carry the
    /// kernel's features, and a generic `std` fn without them (an
    /// iterator adapter, `array::map`) could not inline it.
    #[target_feature(enable = "avx2,fma")]
    pub fn real_group<const K: usize>(v: &mut [Complex64], group: &[Real2x2; K]) {
        let mut m = [[0.0; 4]; K];
        let mut halves = [0; K];
        for ((m, h), g) in m.iter_mut().zip(&mut halves).zip(group) {
            (*m, *h) = (g.m, g.half / 2);
        }
        let c = real_regs(&m);
        let regs = regs_mut(v);
        if K == 1 {
            // One matrix: its runs are whole blocks' halves.
            for block in regs.chunks_exact_mut(2 * halves[0]) {
                let (lo, hi) = block.split_at_mut(halves[0]);
                real_pairs(lo, hi, &c[0]);
            }
            return;
        }
        let layout = super::GroupLayout::new(halves, regs.len());
        let (off, r_len) = (&layout.off, 1 << K);
        let mut x = [_mm256_setzero_pd(); 1 << super::REAL_GROUP];
        for base in layout.bases() {
            let span = &mut regs[base..base + layout.span];
            for i in 0..layout.run {
                for r in 0..r_len {
                    x[r] = load(&span[i + off[r]]);
                }
                for (j, c) in c.iter().enumerate() {
                    for r in 0..r_len {
                        if (r >> j) & 1 == 0 {
                            (x[r], x[r | 1 << j]) = real_pair(x[r], x[r | 1 << j], c);
                        }
                    }
                }
                for r in 0..r_len {
                    store(&mut span[i + off[r]], x[r]);
                }
            }
        }
    }

    /// The matrix *columns* of `m` for [`pair_out`]: `[m0, m2]` and
    /// `[m1, m3]`, real and imaginary parts broadcast within each half.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn columns(m: &[Complex64; 4]) -> [__m256d; 4] {
        [
            _mm256_setr_pd(m[0].re, m[0].re, m[2].re, m[2].re),
            _mm256_setr_pd(m[0].im, m[0].im, m[2].im, m[2].im),
            _mm256_setr_pd(m[1].re, m[1].re, m[3].re, m[3].re),
            _mm256_setr_pd(m[1].im, m[1].im, m[3].im, m[3].im),
        ]
    }

    /// `m * [v0, v1]` for the adjacent pair `v`: each amplitude is
    /// broadcast to both lanes and multiplied by a matrix column
    /// ([`columns`]), which lands `[w0, w1]` in lane order with no shuffle
    /// of the result.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn pair_out(v: &[Complex64; 2], c: &[__m256d; 4]) -> __m256d {
        let (x0, x1) = (bcast(&v[0]), bcast(&v[1]));
        _mm256_add_pd(cmul_bcast(x0, c[0], c[1]), cmul_bcast(x1, c[2], c[3]))
    }

    #[target_feature(enable = "avx2,fma")]
    pub fn pairs2x2(v: &mut [Complex64], m: &[Complex64; 4]) {
        let c = columns(m);
        for pair in regs_mut(v) {
            store(pair, pair_out(pair, &c));
        }
    }

    /// A factor in broadcast registers (`[f.re; 4]`, `[f.im; 4]`), or
    /// `None` for a factor of 1, which is not multiplied in.
    type Factor = Option<(__m256d, __m256d)>;

    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn factor(f: Complex64) -> Factor {
        (f != Complex64::ONE).then(|| (_mm256_set1_pd(f.re), _mm256_set1_pd(f.im)))
    }

    /// `x * f` for a register of two amplitudes.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn scaled(x: __m256d, f: Factor) -> __m256d {
        match f {
            Some((f_re, f_im)) => cmul_bcast(x, f_re, f_im),
            None => x,
        }
    }

    /// Runs of pairs `(lo[i], hi[i])`, each of an even length; pair `g`,
    /// counted across the runs, takes position `g / 2` of the table.
    #[target_feature(enable = "avx2,fma")]
    pub fn pair_runs<'a>(
        coef: &[PairCoef],
        runs: impl Iterator<Item = (&'a mut [Complex64], &'a mut [Complex64])>,
        f: Complex64,
    ) {
        let f = factor(f);
        if let [c] = coef {
            // One position: its registers stay loaded for the whole call.
            if f.is_some() || !c.identity {
                let c = load_lanes(&c.lanes);
                for (lo, hi) in runs {
                    for (l, h) in regs_mut(lo).iter_mut().zip(regs_mut(hi)) {
                        pair_step(l, h, &c, f);
                    }
                }
            }
            return;
        }
        let mask = coef.len() - 1;
        let mut r = 0;
        for (lo, hi) in runs {
            for (l, h) in regs_mut(lo).iter_mut().zip(regs_mut(hi)) {
                let c = &coef[r & mask];
                if f.is_some() || !c.identity {
                    pair_step(l, h, &load_lanes(&c.lanes), f);
                }
                r += 1;
            }
        }
    }

    /// [`pair_runs`] on the blocks of `v`. At `half == 1` a block is one
    /// adjacent pair: two blocks, `[lo_0, hi_0]` and `[lo_1, hi_1]`, are
    /// split into a `lo` and a `hi` register and back.
    #[target_feature(enable = "avx2,fma")]
    pub fn pair_table(coef: &[PairCoef], v: &mut [Complex64], half: usize, f: Complex64) {
        if half > 1 {
            return pair_runs(coef, super::blocks(v, half), f);
        }
        let f = factor(f);
        let mask = coef.len() - 1;
        let quads = regs_mut(v).as_chunks_mut().0.iter_mut();
        for (r, [x, y]) in quads.enumerate() {
            let c = &coef[r & mask];
            if f.is_none() && c.identity {
                continue;
            }
            let (a, b) = (load(x), load(y));
            let lo = scaled(_mm256_permute2f128_pd(a, b, 0x20), f);
            let hi = scaled(_mm256_permute2f128_pd(a, b, 0x31), f);
            let (lo, hi) = pair_mul(lo, hi, &load_lanes(&c.lanes));
            store(x, _mm256_permute2f128_pd(lo, hi, 0x20));
            store(y, _mm256_permute2f128_pd(lo, hi, 0x31));
        }
    }

    /// `x * t` with the real and imaginary parts of four amplitudes in
    /// separate registers: lane by lane the products and the fused
    /// operation of [`cmul_bcast`].
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn cmul_split(re: __m256d, im: __m256d, t_re: __m256d, t_im: __m256d) -> (__m256d, __m256d) {
        (
            _mm256_fmsub_pd(re, t_re, _mm256_mul_pd(im, t_im)),
            _mm256_fmadd_pd(im, t_re, _mm256_mul_pd(re, t_im)),
        )
    }

    /// The registers `[a, b]` and `[c, d]` through their entries `t`
    /// ([`DiagCoef`]'s registers) with `f` folded in.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn diag_quad(x0: __m256d, x1: __m256d, t: &[__m256d; 2], f: Factor) -> (__m256d, __m256d) {
        let (t_re, t_im) = match f {
            Some((f_re, f_im)) => cmul_split(t[0], t[1], f_re, f_im),
            None => (t[0], t[1]),
        };
        let (re, im) = (_mm256_unpacklo_pd(x0, x1), _mm256_unpackhi_pd(x0, x1));
        let (re, im) = cmul_split(re, im, t_re, t_im);
        (_mm256_unpacklo_pd(re, im), _mm256_unpackhi_pd(re, im))
    }

    /// Four amplitudes at a time; a last register of two takes the first
    /// half of its entry, in the same lanes.
    #[target_feature(enable = "avx2,fma")]
    pub fn diag_table(coef: &[DiagCoef], v: &mut [Complex64], f: Complex64) {
        let f = factor(f);
        let mask = coef.len() - 1;
        let (quads, tail) = regs_mut(v).as_chunks_mut();
        for (q, [a, b]) in quads.iter_mut().enumerate() {
            let c = &coef[q & mask];
            // The registers a factor of 1 leaves alone.
            let kept = if f.is_none() { c.ones } else { [false; 2] };
            if kept != [true; 2] {
                let (x, y) = diag_quad(load(a), load(b), &load_lanes(&c.lanes), f);
                if !kept[0] {
                    store(a, x);
                }
                if !kept[1] {
                    store(b, y);
                }
            }
        }
        if let [a] = tail {
            let c = &coef[quads.len() & mask];
            if f.is_some() || !c.ones[0] {
                let x = load(a);
                store(a, diag_quad(x, x, &load_lanes(&c.lanes), f).0);
            }
        }
    }

    /// `half >= 2`: the two runs of a block are register-aligned streams, so
    /// a block is [`apply_2x2`] read from `v` and written to `w`. `half == 1`:
    /// [`pair_out`] per pair.
    #[target_feature(enable = "avx2,fma")]
    pub fn block2x2<const ACC: bool>(
        w: &mut [Complex64],
        m: &[Complex64; 4],
        v: &[Complex64],
        half: usize,
    ) {
        let n = w.len().min(v.len());
        let (w, v) = (&mut w[..n], &v[..n]);
        if half == 1 {
            let c = columns(m);
            for (wp, vp) in regs_mut(w).iter_mut().zip(regs(v)) {
                let mut out = pair_out(vp, &c);
                if ACC {
                    out = _mm256_add_pd(out, load(wp));
                }
                store(wp, out);
            }
            return;
        }
        let c = matrix_regs(m);
        for (wb, vb) in w.chunks_exact_mut(2 * half).zip(v.chunks_exact(2 * half)) {
            let (w_lo, w_hi) = wb.split_at_mut(half);
            let (v_lo, v_hi) = vb.split_at(half);
            let ws = regs_mut(w_lo).iter_mut().zip(regs_mut(w_hi));
            for ((wl, wh), (a0, a1)) in ws.zip(regs(v_lo).iter().zip(regs(v_hi))) {
                let (mut new_lo, mut new_hi) = pair_mul(load(a0), load(a1), &c);
                if ACC {
                    new_lo = _mm256_add_pd(new_lo, load(wl));
                    new_hi = _mm256_add_pd(new_hi, load(wh));
                }
                store(wl, new_lo);
                store(wh, new_hi);
            }
            if half % 2 == 1 {
                let i = half - 1;
                scalar::block2x2_one::<ACC>(
                    &mut w_lo[i..],
                    &mut w_hi[i..],
                    m,
                    &v_lo[i..],
                    &v_hi[i..],
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    fn rand_vec(len: usize, seed: u64) -> Vec<Complex64> {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x as f64 / u64::MAX as f64) - 0.5
        };
        (0..len).map(|_| Complex64::new(next(), next())).collect()
    }

    fn close(a: Complex64, b: Complex64) -> bool {
        (a - b).abs() < TOL
    }

    /// Runs `check(len)` over lengths straddling the 2-complex lane width
    /// and the unrolled 4-complex stride, including ragged tails.
    fn for_lengths(check: impl Fn(usize)) {
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 15, 31, 64, 100, 257] {
            check(len);
        }
    }

    // The dispatched path (whatever this host picked) must agree with the
    // scalar reference on every length, tails included. On an AVX2 machine
    // this is the scalar-vs-AVX2 property test of the issue; on anything
    // else it degenerates to scalar-vs-scalar and still guards the tails.

    #[test]
    fn axpy_matches_scalar_reference() {
        for_lengths(|len| {
            let src = rand_vec(len, 3);
            let f = Complex64::new(0.37, -1.21);
            let mut got = rand_vec(len, 5);
            let mut want = got.clone();
            axpy(&mut got, f, &src);
            scalar::axpy(&mut want, f, &src);
            assert!(
                got.iter().zip(&want).all(|(&a, &b)| close(a, b)),
                "len {len}"
            );
        });
    }

    #[test]
    fn scale_matches_scalar_reference() {
        for_lengths(|len| {
            let src = rand_vec(len, 7);
            let f = Complex64::new(-0.8, 0.45);
            let mut got = vec![Complex64::ZERO; len];
            let mut want = vec![Complex64::ZERO; len];
            scale(&mut got, f, &src);
            scalar::scale(&mut want, f, &src);
            assert!(
                got.iter().zip(&want).all(|(&a, &b)| close(a, b)),
                "len {len}"
            );

            let mut in_place = src.clone();
            scale_in_place(&mut in_place, f);
            assert!(
                in_place.iter().zip(&want).all(|(&a, &b)| close(a, b)),
                "in-place len {len}"
            );
        });
    }

    #[test]
    fn sum_into_matches_scalar_reference() {
        for_lengths(|len| {
            let src = rand_vec(len, 11);
            let mut got = rand_vec(len, 13);
            let mut want = got.clone();
            sum_into(&mut got, &src);
            scalar::sum_into(&mut want, &src);
            assert!(
                got.iter().zip(&want).all(|(&a, &b)| close(a, b)),
                "len {len}"
            );
        });
    }

    #[test]
    fn reductions_match_scalar_reference() {
        for_lengths(|len| {
            let a = rand_vec(len, 17);
            let b = rand_vec(len, 19);
            assert!(
                (norm_sqr(&a) - scalar::norm_sqr(&a)).abs() < TOL * (len as f64 + 1.0),
                "norm len {len}"
            );
            let got = dot(&a, &b);
            let want = scalar::dot(&a, &b);
            assert!(
                (got - want).abs() < TOL * (len as f64 + 1.0),
                "dot len {len}: {got:?} vs {want:?}"
            );
        });
    }

    #[test]
    fn norm_sqr_propagates_non_finite_amplitudes() {
        let mut v = rand_vec(9, 23);
        v[7] = Complex64::new(f64::NAN, 0.0);
        assert!(!norm_sqr(&v).is_finite());
        let mut v = rand_vec(64, 23);
        v[3] = Complex64::new(f64::INFINITY, 0.0);
        assert!(!norm_sqr(&v).is_finite());
    }

    #[test]
    fn mac2x2_matches_scalar_reference() {
        let m: [Complex64; 4] = rand_vec(4, 29).try_into().unwrap();
        let v = rand_vec(2, 31);
        let mut got = rand_vec(3, 37);
        let mut want: [Complex64; 2] = got[..2].try_into().unwrap();
        mac2x2(&mut got, &m, v[0], v[1]);
        scalar::mac2x2(&mut want, &m, v[0], v[1]);
        assert!(close(got[0], want[0]) && close(got[1], want[1]));
        assert_eq!(got[2], rand_vec(3, 37)[2], "only two outputs are written");
    }

    #[test]
    #[should_panic(expected = "two amplitudes")]
    fn mac2x2_refuses_a_short_output_in_every_build() {
        let m: [Complex64; 4] = rand_vec(4, 29).try_into().unwrap();
        mac2x2(&mut [Complex64::ZERO], &m, Complex64::ONE, Complex64::ONE);
    }

    #[test]
    fn apply_2x2_matches_scalar_reference() {
        let m: [Complex64; 4] = rand_vec(4, 41).try_into().unwrap();
        for_lengths(|len| {
            let mut lo_got = rand_vec(len, 43);
            let mut hi_got = rand_vec(len, 47);
            let mut lo_want = lo_got.clone();
            let mut hi_want = hi_got.clone();
            apply_2x2(&mut lo_got, &mut hi_got, &m);
            scalar::apply_2x2(&mut lo_want, &mut hi_want, &m);
            assert!(
                lo_got.iter().zip(&lo_want).all(|(&a, &b)| close(a, b))
                    && hi_got.iter().zip(&hi_want).all(|(&a, &b)| close(a, b)),
                "len {len}"
            );
        });
    }

    /// A real, non-diagonal 2x2 (a rotation's entries, scaled).
    fn rand_real(seed: u64) -> [f64; 4] {
        let r = rand_vec(2, seed);
        [r[0].re, -r[0].im, r[1].im, r[1].re]
    }

    /// `g` applied the way the complex kernel applies it: [`apply_2x2`] on
    /// every block, the entries as complex numbers.
    fn complex_pass(v: &mut [Complex64], g: &Real2x2) {
        let m = g.m.map(|x| Complex64::new(x, 0.0));
        for block in v.chunks_exact_mut(2 * g.half) {
            let (lo, hi) = block.split_at_mut(g.half);
            apply_2x2(lo, hi, &m);
        }
    }

    /// Groups of 1 to [`REAL_GROUP`] matrices in every order of their
    /// halves (2 to 32), over 1 to 3 blocks of the widest.
    fn real_groups() -> Vec<Vec<Real2x2>> {
        let halves = [2usize, 4, 8, 16, 32];
        let mut groups = Vec::new();
        for (a, &ha) in halves.iter().enumerate() {
            groups.push(vec![ha]);
            for (b, &hb) in halves.iter().enumerate().filter(|&(b, _)| b != a) {
                groups.push(vec![ha, hb]);
                for (_, &hc) in halves.iter().enumerate().filter(|&(c, _)| c != a && c != b) {
                    groups.push(vec![ha, hb, hc]);
                }
            }
        }
        groups
            .into_iter()
            .enumerate()
            .map(|(i, hs)| {
                hs.iter()
                    .enumerate()
                    .map(|(j, &half)| Real2x2 {
                        half,
                        m: rand_real(211 + 7 * i as u64 + j as u64),
                    })
                    .collect()
            })
            .collect()
    }

    /// `kernel(v, group)` against the complex kernel one matrix at a time,
    /// `==` amplitude for amplitude.
    fn check_real_group(kernel: impl Fn(&mut [Complex64], &[Real2x2])) {
        for group in real_groups() {
            let widest = group.iter().map(|g| g.half).max().unwrap();
            for blocks in 1..=3usize {
                let v = rand_vec(2 * widest * blocks, 223);
                let mut got = v.clone();
                kernel(&mut got, &group);
                let mut want = v;
                for g in &group {
                    complex_pass(&mut want, g);
                }
                let halves: Vec<usize> = group.iter().map(|g| g.half).collect();
                assert!(got == want, "halves {halves:?} blocks {blocks}");
            }
        }
    }

    #[test]
    fn real_groups_equal_the_complex_kernel() {
        check_real_group(scalar_real_group);
        check_real_group(real_2x2_group);
    }

    /// [`real_2x2_group`] on the portable path, whatever the dispatcher
    /// picked.
    fn scalar_real_group(v: &mut [Complex64], group: &[Real2x2]) {
        match group {
            [x] => scalar::real_group(v, &[*x]),
            [x, y] => scalar::real_group(v, &[*x, *y]),
            [x, y, z] => scalar::real_group(v, &[*x, *y, *z]),
            _ => unreachable!(),
        }
    }

    #[test]
    fn real_2x2_of_takes_only_real_mixing_matrices() {
        let ry = [0.8, -0.6, 0.6, 0.8].map(|x| Complex64::new(x, 0.0));
        assert_eq!(
            Real2x2::of(&ry, 4).map(|g| g.m),
            Some([0.8, -0.6, 0.6, 0.8])
        );
        assert_eq!(Real2x2::of(&ry, 1), None, "qubit 0 keeps pairs2x2");
        let mut complex = ry;
        complex[1].im = 1e-300;
        assert_eq!(Real2x2::of(&complex, 4), None);
        let diag = [ry[0], Complex64::ZERO, Complex64::ZERO, ry[3]];
        assert_eq!(Real2x2::of(&diag, 4), None);
    }

    #[test]
    #[should_panic(expected = "distinct halves")]
    fn real_group_refuses_two_matrices_on_one_half() {
        let g = Real2x2 {
            half: 4,
            m: rand_real(239),
        };
        real_2x2_group(&mut rand_vec(16, 241), &[g, g]);
    }

    /// `kernel(acc, w, m, v, half)` against the scalar reference: `half`
    /// over the ragged lengths (odd halves take the scalar tail inside a
    /// block), 1-3 blocks, store and accumulate. The store variant starts
    /// from NaN, so an element it fails to write is caught.
    fn check_block2x2(
        kernel: impl Fn(bool, &mut [Complex64], &[Complex64; 4], &[Complex64], usize),
    ) {
        let m: [Complex64; 4] = rand_vec(4, 89).try_into().unwrap();
        for_lengths(|half| {
            if half == 0 {
                return;
            }
            for blocks in 1..=3usize {
                let len = 2 * half * blocks;
                let v = rand_vec(len, 97);
                for acc in [false, true] {
                    let mut got = if acc {
                        rand_vec(len, 101)
                    } else {
                        vec![Complex64::new(f64::NAN, f64::NAN); len]
                    };
                    let mut want = got.clone();
                    kernel(acc, &mut got, &m, &v, half);
                    if acc {
                        scalar::block2x2::<true>(&mut want, &m, &v, half);
                    } else {
                        scalar::block2x2::<false>(&mut want, &m, &v, half);
                    }
                    assert!(
                        got.iter().zip(&want).all(|(&a, &b)| close(a, b)),
                        "half {half} blocks {blocks} acc {acc}"
                    );
                }
            }
        });
    }

    #[test]
    fn block2x2_matches_scalar_reference() {
        check_block2x2(|acc, w, m, v, half| {
            if acc {
                block2x2_acc(w, m, v, half)
            } else {
                block2x2(w, m, v, half)
            }
        });
    }

    #[test]
    fn block2x2_is_the_dense_kron_product() {
        // Independent of the scalar kernel: entry (r, c) of `I (x) U (x) I_half`.
        let m: [Complex64; 4] = rand_vec(4, 103).try_into().unwrap();
        for half in [1usize, 2, 4] {
            let len = 4 * half;
            let v = rand_vec(len, 107);
            let mut w = vec![Complex64::new(f64::NAN, 0.0); len];
            block2x2(&mut w, &m, &v, half);
            for (r, &got) in w.iter().enumerate() {
                let i = (r / half) % 2;
                let base = r - i * half;
                let want = m[2 * i] * v[base] + m[2 * i + 1] * v[base + half];
                assert!(close(got, want), "half {half} row {r}");
            }
        }
    }

    /// A period of `p` matrices with every third one the exact identity (the
    /// positions a table may skip).
    fn rand_tile(p: usize, seed: u64) -> Vec<[Complex64; 4]> {
        let identity = [
            Complex64::ONE,
            Complex64::ZERO,
            Complex64::ZERO,
            Complex64::ONE,
        ];
        rand_vec(4 * p, seed)
            .chunks_exact(4)
            .enumerate()
            .map(|(j, m)| {
                if j % 3 == 1 {
                    identity
                } else {
                    m.try_into().unwrap()
                }
            })
            .collect()
    }

    /// The factors every table case runs under: 1 (a one-use table, the
    /// factor folded into its entries) and not (a plan-time tile).
    const FACTORS: [Complex64; 2] = [Complex64::ONE, Complex64::new(-0.7, 0.4)];

    /// The pair-table cases `(len, half, blocks)`: periods 1 to 16 (one-use
    /// tables; a period-1 table is a 2x2 on every block) and 32 to 64 (a
    /// plan-time span), every half from 1 to 32, 1 to 4 blocks (an even
    /// count at half 1). A period need not divide the half.
    fn pair_cases() -> Vec<(usize, usize, usize)> {
        let mut cases = Vec::new();
        for len in [1usize, 2, 4, 8, 16, 32, 64] {
            for half in [1usize, 2, 4, 8, 16, 32] {
                for blocks in (1..=4usize).filter(|b| half > 1 || b % 2 == 0) {
                    cases.push((len, half, blocks));
                }
            }
        }
        cases
    }

    /// `kernel(coef, v, half, f)` against the defining formula on every
    /// [`pair_cases`] case: pair `i` of block `b` takes matrix `(b * half +
    /// i) mod len` under `f`.
    fn check_pair_table(kernel: impl Fn(&[PairCoef], &mut [Complex64], usize, Complex64)) {
        for (len, half, blocks) in pair_cases() {
            let mats = rand_tile(len, 109 + len as u64);
            let table = PairTable::new(&mats);
            for f in FACTORS {
                let v = rand_vec(2 * half * blocks, 113);
                let mut got = v.clone();
                kernel(&table.coef, &mut got, half, f);
                for (i, &g) in got.iter().enumerate() {
                    let (b, row, k) = (i / (2 * half), i / half % 2, i % half);
                    let base = i - row * half;
                    let m = &mats[(b * half + k) % len];
                    let want = m[2 * row] * (f * v[base]) + m[2 * row + 1] * (f * v[base + half]);
                    assert!(
                        close(g, want),
                        "len {len} half {half} blocks {blocks} at {i}"
                    );
                }
            }
        }
    }

    /// `kernel(coef, lo, hi, f)` against the defining formula: pair `i` takes
    /// matrix `i mod len`, over runs of even lengths a period need not divide
    /// (a run of 6 under a period of 4 included).
    fn check_pair_runs(
        kernel: impl Fn(&[PairCoef], &mut [Complex64], &mut [Complex64], Complex64),
    ) {
        for len in [1usize, 2, 4, 8, 16] {
            let mats = rand_tile(len, 163 + len as u64);
            let table = PairTable::new(&mats);
            for run in [2usize, 4, 6, 8, 16, 34] {
                for f in FACTORS {
                    let (lo, hi) = (rand_vec(run, 167), rand_vec(run, 173));
                    let (mut lo_got, mut hi_got) = (lo.clone(), hi.clone());
                    kernel(&table.coef, &mut lo_got, &mut hi_got, f);
                    for i in 0..run {
                        let m = &mats[i % len];
                        let (a0, a1) = (f * lo[i], f * hi[i]);
                        assert!(
                            close(lo_got[i], m[0] * a0 + m[1] * a1)
                                && close(hi_got[i], m[2] * a0 + m[3] * a1),
                            "len {len} run {run} at {i}"
                        );
                    }
                }
            }
        }
    }

    /// A diagonal of `p` entries, the last two of every four exactly 1 (a
    /// register a factor of 1 leaves alone).
    fn rand_diag(p: usize, seed: u64) -> Vec<Complex64> {
        let mut d = rand_vec(p, seed);
        for (j, x) in d.iter_mut().enumerate() {
            if j % 4 >= 2 {
                *x = Complex64::ONE;
            }
        }
        d
    }

    /// `kernel(coef, v, f)` against `f * d[i mod p] * v[i]`: periods 1 to 64,
    /// vectors of one register, of six amplitudes, and of 1 to 5 periods.
    /// Under a factor of 1 a register of two exact ones keeps its bits.
    fn check_diag_table(kernel: impl Fn(&[DiagCoef], &mut [Complex64], Complex64)) {
        for p in [1usize, 2, 4, 8, 16, 32, 64] {
            let d = rand_diag(p, 139 + p as u64);
            let table = DiagTable::new(&d);
            let lens = [2, 6].into_iter().chain((1..=5).map(|k| k * p));
            for len in lens.filter(|len| len % 2 == 0) {
                for f in FACTORS {
                    let v = rand_vec(len, 149);
                    let mut got = v.clone();
                    kernel(&table.coef, &mut got, f);
                    for (i, &g) in got.iter().enumerate() {
                        assert!(close(g, d[i % p] * (f * v[i])), "p {p} len {len} at {i}");
                        let ones = |j: usize| d[j % p] == Complex64::ONE;
                        if f == Complex64::ONE && ones(i & !1) && ones(i | 1) {
                            assert_eq!(g, v[i], "p {p} len {len}: a register of ones touched");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pair_table_matches_the_defining_formula() {
        check_pair_table(|c, v, half, f| scalar::pair_table(c, blocks(v, half), f));
        check_pair_table(|c, v, half, f| PairTable { coef: c }.apply(v, half, f));
        check_pair_runs(|c, lo, hi, f| scalar::pair_table(c, std::iter::once((lo, hi)), f));
        check_pair_runs(|c, lo, hi, f| PairTable { coef: c }.apply_runs(lo, hi, f));
    }

    #[test]
    fn diag_table_matches_the_defining_formula() {
        check_diag_table(scalar::diag_table);
        check_diag_table(|c, v, f| DiagTable { coef: c }.apply(v, f));
    }

    /// The amplitudes of `v` as bits.
    fn bits(v: &[Complex64]) -> Vec<[u64; 2]> {
        v.iter().map(|z| [z.re.to_bits(), z.im.to_bits()]).collect()
    }

    #[test]
    fn a_tables_bits_do_not_depend_on_the_call_shape() {
        // The in-place walk reaches one pair through a period or through a
        // plan-time span, in one region or in a call over many blocks, with
        // a table on the stack or in a plan, depending on how wide a group's
        // rows are. All of them must leave the same bits, under the
        // dispatched backend (CI runs both).
        for len in [1usize, 2, 4, 8, 16] {
            let mats = rand_tile(len, 251 + len as u64);
            for half in [2usize, 4, 8, 16, 32].into_iter().filter(|&h| h >= len) {
                for blocks in [1usize, 2, 4] {
                    let v = rand_vec(2 * half * blocks, 257);
                    for f in FACTORS {
                        let case = format!("pairs: len {len} half {half} blocks {blocks} f {f:?}");
                        let mut want = v.clone();
                        PairTable::new(&mats).apply(&mut want, half, f);
                        let want = bits(&want);
                        // The whole span as one plan-time table.
                        let span: Vec<_> = (0..half * blocks).map(|g| mats[g % len]).collect();
                        let mut got = v.clone();
                        PairTable::new(&span).apply(&mut got, half, f);
                        assert_eq!(bits(&got), want, "{case}: whole span");
                        // One region at a time, by either entry point.
                        let (mut runs, mut one_block) = (v.clone(), v.clone());
                        let table = PairTable::new(&mats);
                        for block in runs.chunks_exact_mut(2 * half) {
                            let (lo, hi) = block.split_at_mut(half);
                            table.apply_runs(lo, hi, f);
                        }
                        for block in one_block.chunks_exact_mut(2 * half) {
                            table.apply(block, half, f);
                        }
                        assert_eq!(bits(&runs), want, "{case}: per region");
                        assert_eq!(bits(&one_block), want, "{case}: per block");
                        // A one-use table on the stack.
                        let mut got = v.clone();
                        PairTable::with(&mats, |t| t.apply(&mut got, half, f));
                        assert_eq!(bits(&got), want, "{case}: stack table");
                    }
                }
            }
        }
        for p in [2usize, 4, 8, 16] {
            let d = rand_diag(p, 263 + p as u64);
            for blocks in [1usize, 2, 8] {
                let v = rand_vec(p * blocks, 269);
                for f in FACTORS {
                    let case = format!("diagonal: p {p} blocks {blocks} f {f:?}");
                    let mut want = v.clone();
                    DiagTable::new(&d).apply(&mut want, f);
                    let want = bits(&want);
                    let span: Vec<_> = (0..v.len()).map(|i| d[i % p]).collect();
                    let mut got = v.clone();
                    DiagTable::new(&span).apply(&mut got, f);
                    assert_eq!(bits(&got), want, "{case}: whole span");
                    let mut got = v.clone();
                    for block in got.chunks_exact_mut(p) {
                        DiagTable::new(&d).apply(block, f);
                    }
                    assert_eq!(bits(&got), want, "{case}: per period");
                    let mut got = v.clone();
                    DiagTable::with(&d, |t| t.apply(&mut got, f));
                    assert_eq!(bits(&got), want, "{case}: stack table");
                }
            }
        }
        // A register on its own takes the lanes it takes among four, and a
        // constant diagonal is `scale_in_place` (the factor a run's block
        // meets inside a diagonal `Kron`).
        let (d, v) = (rand_vec(2, 271), rand_vec(8, 277));
        let mut want = v.clone();
        DiagTable::new(&d).apply(&mut want, Complex64::ONE);
        let mut got = v.clone();
        for reg in got.chunks_exact_mut(2) {
            DiagTable::new(&d).apply(reg, Complex64::ONE);
        }
        assert_eq!(bits(&got), bits(&want), "diagonal: per register");
        let c = d[0];
        let (mut got, mut want) = (v.clone(), v);
        DiagTable::new(&[c]).apply(&mut got, Complex64::ONE);
        scale_in_place(&mut want, c);
        assert_eq!(bits(&got), bits(&want), "diagonal: a constant");
    }

    #[test]
    fn tables_refuse_what_their_loops_cannot_step_through() {
        let mats = rand_tile(4, 281);
        let table = PairTable::new(&mats);
        let one = Complex64::ONE;
        refused("a period of three pairs", || {
            drop(PairTable::new(&rand_tile(3, 283)))
        });
        refused("a one-use table over the stack's limit", || {
            PairTable::with(&rand_tile(2 * MAX_TILE, 283), |_| ())
        });
        refused("an odd run", || {
            table.apply_runs(&mut rand_vec(5, 1), &mut rand_vec(5, 2), one)
        });
        refused("runs of two lengths", || {
            table.apply_runs(&mut rand_vec(6, 1), &mut rand_vec(4, 2), one)
        });
        refused("a block that does not divide the vector", || {
            table.apply(&mut rand_vec(24, 3), 8, one)
        });
        refused("a half not a power of two", || {
            table.apply(&mut rand_vec(12, 3), 3, one)
        });
        refused("an odd count of adjacent pairs", || {
            table.apply(&mut rand_vec(6, 3), 1, one)
        });
        refused("a diagonal of six entries", || {
            drop(DiagTable::new(&rand_vec(6, 4)))
        });
        refused("an odd vector under a diagonal", || {
            DiagTable::new(&rand_vec(4, 5)).apply(&mut rand_vec(5, 6), one)
        });
    }

    /// Asserts that `call` panics.
    fn refused(what: &str, call: impl FnOnce()) {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(call));
        assert!(caught.is_err(), "{what} was accepted");
    }

    /// `kernel(v, m)` against the defining formula on 0-4 pairs and on odd
    /// lengths, whose last element must stay as it was.
    fn check_pairs2x2(kernel: impl Fn(&mut [Complex64], &[Complex64; 4])) {
        let m: [Complex64; 4] = rand_vec(4, 151).try_into().unwrap();
        for len in 0..=9usize {
            let v = rand_vec(len, 157);
            let mut got = v.clone();
            kernel(&mut got, &m);
            for k in 0..len / 2 {
                let (a0, a1) = (v[2 * k], v[2 * k + 1]);
                assert!(
                    close(got[2 * k], m[0] * a0 + m[1] * a1)
                        && close(got[2 * k + 1], m[2] * a0 + m[3] * a1),
                    "len {len} pair {k}"
                );
            }
            if len % 2 == 1 {
                assert_eq!(got[len - 1], v[len - 1], "len {len}: odd tail touched");
            }
        }
    }

    #[test]
    fn pairs2x2_matches_scalar_reference() {
        check_pairs2x2(scalar::pairs2x2);
        check_pairs2x2(pairs2x2);
    }

    #[test]
    fn backend_is_stable_and_named() {
        let b = backend();
        assert_eq!(b, backend(), "backend must be selected once");
        assert!(b.name() == "scalar" || b.name() == "avx2");
    }

    // Direct scalar-vs-AVX2 comparison, independent of what the dispatcher
    // picked (e.g. under FLATDD_SIMD=scalar the dispatched tests above
    // compare scalar to itself; this one still exercises the intrinsics).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_kernels_match_scalar_directly() {
        if !std::arch::is_x86_feature_detected!("avx2")
            || !std::arch::is_x86_feature_detected!("fma")
        {
            return; // nothing to compare on this host
        }
        // SAFETY: AVX2 and FMA were detected just above.
        unsafe { avx2_against_scalar() }
    }

    /// Every `avx2` kernel against its scalar reference, at every length
    /// of the checks above (odd tails included). The kernels are called
    /// from inside the features they enable, so no call needs `unsafe`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    fn avx2_against_scalar() {
        let f = Complex64::new(1.3, -0.2);
        let m: [Complex64; 4] = rand_vec(4, 53).try_into().unwrap();
        for_lengths(|len| {
            let src = rand_vec(len, 59);
            let mut a = rand_vec(len, 61);
            let mut b = a.clone();
            avx2::axpy(&mut a, f, &src);
            scalar::axpy(&mut b, f, &src);
            assert!(
                a.iter().zip(&b).all(|(&x, &y)| close(x, y)),
                "axpy len {len}"
            );

            let mut a = vec![Complex64::ZERO; len];
            let mut b = vec![Complex64::ZERO; len];
            avx2::scale(&mut a, f, &src);
            scalar::scale(&mut b, f, &src);
            assert!(
                a.iter().zip(&b).all(|(&x, &y)| close(x, y)),
                "scale len {len}"
            );

            let mut a = src.clone();
            let mut b = src.clone();
            avx2::scale_in_place(&mut a, f);
            scalar::scale_in_place(&mut b, f);
            assert!(
                a.iter().zip(&b).all(|(&x, &y)| close(x, y)),
                "scale_in_place len {len}"
            );

            let other = rand_vec(len, 67);
            let mut a = other.clone();
            let mut b = other.clone();
            avx2::sum_into(&mut a, &src);
            scalar::sum_into(&mut b, &src);
            assert!(
                a.iter().zip(&b).all(|(&x, &y)| close(x, y)),
                "sum len {len}"
            );

            let n_avx = avx2::norm_sqr(&src);
            assert!(
                (n_avx - scalar::norm_sqr(&src)).abs() < TOL * (len as f64 + 1.0),
                "norm len {len}"
            );
            let d_avx = avx2::dot(&src, &other);
            let d_ref = scalar::dot(&src, &other);
            assert!(
                (d_avx - d_ref).abs() < TOL * (len as f64 + 1.0),
                "dot len {len}"
            );

            let mut lo_a = rand_vec(len, 71);
            let mut hi_a = rand_vec(len, 73);
            let mut lo_b = lo_a.clone();
            let mut hi_b = hi_a.clone();
            avx2::apply_2x2(&mut lo_a, &mut hi_a, &m);
            scalar::apply_2x2(&mut lo_b, &mut hi_b, &m);
            assert!(
                lo_a.iter().zip(&lo_b).all(|(&x, &y)| close(x, y))
                    && hi_a.iter().zip(&hi_b).all(|(&x, &y)| close(x, y)),
                "apply_2x2 len {len}"
            );
        });
        check_block2x2(|acc, w, m, v, half| {
            if acc {
                avx2::block2x2::<true>(w, m, v, half)
            } else {
                avx2::block2x2::<false>(w, m, v, half)
            }
        });
        check_pairs2x2(|v, m| avx2::pairs2x2(v, m));
        check_pair_table(|c, v, half, f| avx2::pair_table(c, v, half, f));
        check_pair_runs(|c, lo, hi, f| avx2::pair_runs(c, std::iter::once((lo, hi)), f));
        check_diag_table(|c, v, f| avx2::diag_table(c, v, f));
        check_real_group(|v, group| match group {
            [x] => avx2::real_group(v, &[*x]),
            [x, y] => avx2::real_group(v, &[*x, *y]),
            [x, y, z] => avx2::real_group(v, &[*x, *y, *z]),
            _ => unreachable!(),
        });
        let mut wa: [Complex64; 2] = rand_vec(2, 79).try_into().unwrap();
        let mut wb = wa;
        let v = rand_vec(2, 83);
        avx2::mac2x2(&mut wa, &m, v[0], v[1]);
        scalar::mac2x2(&mut wb, &m, v[0], v[1]);
        assert!(close(wa[0], wb[0]) && close(wa[1], wb[1]));
    }
}
