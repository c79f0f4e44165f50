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

/// Longest period the tiled kernels ([`PairTile`], [`mul_diag_tiled`])
/// accept: 16 amplitudes, eight register positions of the AVX2 kernels.
pub const MAX_TILE: usize = 16;

/// Whether `m` is exactly the 2x2 identity: a pair it would leave as it is,
/// which the in-place kernels and their callers skip instead of multiply.
#[inline]
pub fn is_identity(m: &[Complex64; 4]) -> bool {
    m[0] == Complex64::ONE && m[3] == Complex64::ONE && m[1].is_zero() && m[2].is_zero()
}

/// Whether `p` is a period the tiled kernels accept.
fn tile_period_ok(p: usize) -> bool {
    p.is_power_of_two() && p <= MAX_TILE
}

/// In-place 2x2 on adjacent pairs, `(v[2k], v[2k+1]) <- m * (v[2k], v[2k+1])`:
/// a gate on qubit 0 of the in-place DMAV walk, where both amplitudes of a
/// pair sit in one register. An odd trailing element is left alone.
#[inline]
pub fn pairs2x2(v: &mut [Complex64], m: &[Complex64; 4]) {
    dispatch!(scalar::pairs2x2(v, m), avx2::pairs2x2(v, m))
}

/// A short period of 2x2 matrices, prepared once and applied to any number
/// of runs: [`apply_2x2`] with a matrix per position,
/// `(lo[i], hi[i]) <- tile[i % p] * (lo[i], hi[i])`. This is a gate
/// controlled from *below* its target in the in-place DMAV walk: the 2x2 a
/// pair sees depends on the low bits of its index (identity where a control
/// is off), so the lanes of a register carry different matrices. Positions
/// whose matrix is exactly the identity are not touched. A period of 1 is a
/// plain `U (x) I`.
///
/// Preparing costs a few hundred bytes of table writes; a walk that meets
/// the same period in many small regions keeps the value.
pub struct PairTile {
    /// The period's matrices, row-major (`p` of them are meaningful).
    tile: [[Complex64; 4]; MAX_TILE],
    p: usize,
    /// Per amplitude of the period: its matrix is the exact identity.
    identity: [bool; MAX_TILE],
    /// Per register position (amplitudes `2r, 2r + 1` of the period; a
    /// period of 1 fills both lanes with its one matrix): `[re, im]` of the
    /// four matrix entries, lane `k` holding amplitude `k`'s. Plain arrays,
    /// so the type is the same on every target; the AVX2 kernels load them.
    coef: [[[f64; 4]; 8]; MAX_TILE / 2],
    /// Register positions both of whose matrices are the identity.
    skip: [bool; MAX_TILE / 2],
    positions: usize,
}

impl PairTile {
    /// Prepares the period `tile`.
    ///
    /// # Panics
    /// Unless `tile.len()` is a power of two `<= MAX_TILE`.
    pub fn new(tile: &[[Complex64; 4]]) -> Self {
        let p = tile.len();
        assert!(tile_period_ok(p));
        let mut t = PairTile {
            tile: [[Complex64::ZERO; 4]; MAX_TILE],
            p,
            identity: [false; MAX_TILE],
            coef: [[[0.0; 4]; 8]; MAX_TILE / 2],
            skip: [false; MAX_TILE / 2],
            positions: p.div_ceil(2),
        };
        t.tile[..p].copy_from_slice(tile);
        for (id, m) in t.identity.iter_mut().zip(tile) {
            *id = is_identity(m);
        }
        for r in 0..t.positions {
            let (j0, j1) = ((2 * r) % p, (2 * r + 1) % p);
            let (a, b) = (&tile[j0], &tile[j1]);
            for k in 0..4 {
                t.coef[r][2 * k] = [a[k].re, a[k].re, b[k].re, b[k].re];
                t.coef[r][2 * k + 1] = [a[k].im, a[k].im, b[k].im, b[k].im];
            }
            t.skip[r] = t.identity[j0] && t.identity[j1];
        }
        t
    }

    /// `(lo[i], hi[i]) <- tile[i % p] * (lo[i], hi[i])`.
    ///
    /// # Panics
    /// Unless `lo.len() == hi.len()` and the period divides it (the AVX2
    /// loop steps by the period without a tail, so this is asserted in
    /// release builds too).
    #[inline]
    pub fn apply(&self, lo: &mut [Complex64], hi: &mut [Complex64]) {
        assert!(lo.len() == hi.len() && lo.len().is_multiple_of(self.p));
        dispatch!(
            scalar::pair_tile_run(self, lo, hi),
            avx2::pair_tile_apply(self, lo, hi)
        )
    }

    /// [`Self::apply`] on every `2 * half`-sized block of `v`, the two
    /// `half`-long runs of a block as `lo` and `hi` — the in-place
    /// counterpart of [`block2x2`], with the block loop inside the kernel so
    /// that a run of two amplitudes costs one register pass, not one call.
    ///
    /// # Panics
    /// Unless the period divides `half` and `2 * half` divides `v.len()`.
    #[inline]
    pub fn apply_blocks(&self, v: &mut [Complex64], half: usize) {
        assert!(half > 0 && half.is_multiple_of(self.p) && v.len().is_multiple_of(2 * half));
        dispatch!(
            scalar::pair_tile_blocks(self, v, half),
            avx2::pair_tile_blocks(self, v, half)
        )
    }
}

/// `v[i] <- d[i % p] * v[i]` with `p = d.len()`: a diagonal gate matrix whose
/// entries repeat with a short period (T or CZ on low qubits), flattened once
/// per gate. Register positions whose factors are exactly 1 are not touched.
///
/// # Panics
/// Unless `p` is a power of two `<= MAX_TILE` that divides `v.len()`.
#[inline]
pub fn mul_diag_tiled(v: &mut [Complex64], d: &[Complex64]) {
    let p = d.len();
    assert!(tile_period_ok(p) && v.len().is_multiple_of(p));
    dispatch!(scalar::mul_diag_tiled(v, d), avx2::mul_diag_tiled(v, d))
}

/// Two complex numbers in the broadcast layout of the AVX2 kernels:
/// `[a.re, a.re, b.re, b.re]` and `[a.im, a.im, b.im, b.im]` — one register
/// each, multiplied into a register of two amplitudes with one shuffle.
fn lanes(a: Complex64, b: Complex64) -> [[f64; 4]; 2] {
    [[a.re, a.re, b.re, b.re], [a.im, a.im, b.im, b.im]]
}

/// The order [`DiagTable`] keeps four consecutive entries in.
const SPLIT_ORDER: [usize; 4] = [0, 2, 1, 3];

/// A dense diagonal of any length `p` that is a multiple of 4, prepared
/// once per plan (the plan-time tile of an irregular fused diagonal,
/// DESIGN.md §8.1) and applied to every `p`-amplitude block of a vector
/// under one factor.
#[derive(Debug)]
pub struct DiagTable {
    /// Per four consecutive entries `a, b, c, d`: the real parts as
    /// `[a, c, b, d]` ([`SPLIT_ORDER`]), then the imaginary parts. That is
    /// the order unpacking two registers of amplitudes (`[a, b]`, `[c, d]`)
    /// into one of real and one of imaginary parts leaves them in, so the
    /// table is multiplied in without a shuffle of its own, at 16 bytes an
    /// entry.
    coef: Vec<[[f64; 4]; 2]>,
}

impl DiagTable {
    /// Prepares the diagonal `d`.
    ///
    /// # Panics
    /// Unless `d.len()` is a non-zero multiple of 4.
    pub fn new(d: &[Complex64]) -> Self {
        assert!(!d.is_empty() && d.len().is_multiple_of(4));
        let coef = d
            .chunks_exact(4)
            .map(|x| {
                let split = SPLIT_ORDER.map(|k| x[k]);
                [split.map(|c| c.re), split.map(|c| c.im)]
            })
            .collect();
        DiagTable { coef }
    }

    /// Entries of the diagonal: the period it repeats with over `v`.
    pub fn period(&self) -> usize {
        4 * self.coef.len()
    }

    /// Heap bytes of the table.
    pub fn memory_bytes(&self) -> usize {
        self.coef.capacity() * std::mem::size_of::<[[f64; 4]; 2]>()
    }

    /// `v[i] <- f * d[i % p] * v[i]`.
    ///
    /// # Panics
    /// Unless `p` divides `v.len()` (the AVX2 loop steps by it).
    #[inline]
    pub fn apply(&self, v: &mut [Complex64], f: Complex64) {
        assert!(v.len().is_multiple_of(self.period()));
        dispatch!(
            scalar::diag_table_apply(self, v, f),
            avx2::diag_table_apply(self, v, f)
        )
    }
}

/// 2x2 matrices, one per amplitude pair of a span at one stride, prepared
/// once per plan: the span is cut into blocks of `2 * stride` amplitudes,
/// and pair `j = b * stride + i` is `(v[2 * stride * b + i],
/// v[2 * stride * b + stride + i])` — the plan-time tile of a node whose
/// only non-diagonal level is one pair stride (an `RY` folded with an
/// irregular diagonal, DESIGN.md §8.1). Unlike [`PairTile`] the matrices do
/// not repeat: a table is as long as the span it covers.
#[derive(Debug)]
pub struct PairTable {
    /// Per two consecutive pairs `j, j + 1`: entry `k` of their matrices as
    /// [`lanes`] at `[2k]` (real parts) and `[2k + 1]` (imaginary) — the
    /// layout of one [`PairTile`] register position.
    coef: Vec<[[f64; 4]; 8]>,
    stride: usize,
}

impl PairTable {
    /// Prepares one matrix per pair, in pair order.
    ///
    /// # Panics
    /// Unless `stride` is a power of two and `mats.len()` a non-zero, even
    /// multiple of it.
    pub fn new(mats: &[[Complex64; 4]], stride: usize) -> Self {
        let pairs = mats.len();
        assert!(stride.is_power_of_two() && pairs > 0);
        assert!(pairs.is_multiple_of(2) && pairs.is_multiple_of(stride));
        let coef = mats
            .chunks_exact(2)
            .map(|m| {
                let entries: [[[f64; 4]; 2]; 4] = std::array::from_fn(|k| lanes(m[0][k], m[1][k]));
                std::array::from_fn(|x| entries[x / 2][x % 2])
            })
            .collect();
        PairTable { coef, stride }
    }

    /// Amplitudes the table covers.
    pub fn span(&self) -> usize {
        4 * self.coef.len()
    }

    /// Heap bytes of the table.
    pub fn memory_bytes(&self) -> usize {
        self.coef.capacity() * std::mem::size_of::<[[f64; 4]; 8]>()
    }

    /// `(lo, hi) <- f * m_j * (lo, hi)` for every pair `j` of every
    /// [`Self::span`]-sized block of `v`.
    ///
    /// # Panics
    /// Unless the span divides `v.len()`.
    #[inline]
    pub fn apply(&self, v: &mut [Complex64], f: Complex64) {
        assert!(v.len().is_multiple_of(self.span()));
        dispatch!(
            scalar::pair_table_apply(self, v, f),
            avx2::pair_table_apply(self, v, f)
        )
    }
}

/// Portable reference implementations (and the tail handlers of the AVX2
/// path).
pub(crate) mod scalar {
    use super::Complex64;

    pub fn diag_table_apply(t: &super::DiagTable, v: &mut [Complex64], f: Complex64) {
        for block in v.chunks_exact_mut(t.period()) {
            for (x, [re, im]) in block.chunks_exact_mut(4).zip(&t.coef) {
                // `f * d` four lanes at a time (the compiler vectorizes
                // this), then one product per amplitude.
                let fd_re: [f64; 4] = std::array::from_fn(|k| f.re * re[k] - f.im * im[k]);
                let fd_im: [f64; 4] = std::array::from_fn(|k| f.re * im[k] + f.im * re[k]);
                for (a, lane) in x.iter_mut().zip(super::SPLIT_ORDER) {
                    *a = Complex64::new(fd_re[lane], fd_im[lane]) * *a;
                }
            }
        }
    }

    pub fn pair_table_apply(t: &super::PairTable, v: &mut [Complex64], f: Complex64) {
        let (s, shift) = (t.stride, t.stride.trailing_zeros());
        for span in v.chunks_exact_mut(t.span()) {
            for (r, c) in t.coef.iter().enumerate() {
                for lane in 0..2 {
                    // Pair `j` is `span[at]` and `span[at + s]`.
                    let j = 2 * r + lane;
                    let at = ((j >> shift) << (shift + 1)) + (j & (s - 1));
                    let m: [Complex64; 4] = std::array::from_fn(|k| {
                        Complex64::new(c[2 * k][2 * lane], c[2 * k + 1][2 * lane])
                    });
                    let (a0, a1) = (f * span[at], f * span[at + s]);
                    span[at] = m[0] * a0 + m[1] * a1;
                    span[at + s] = m[2] * a0 + m[3] * a1;
                }
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

    pub fn pair_tile_run(t: &super::PairTile, lo: &mut [Complex64], hi: &mut [Complex64]) {
        if t.p == 1 {
            return apply_2x2(lo, hi, &t.tile[0]);
        }
        let (tile, identity) = (&t.tile[..t.p], &t.identity[..t.p]);
        for (lo_t, hi_t) in lo.chunks_exact_mut(t.p).zip(hi.chunks_exact_mut(t.p)) {
            for (((l, h), m), &identity) in lo_t.iter_mut().zip(hi_t).zip(tile).zip(identity) {
                if identity {
                    continue;
                }
                let (a0, a1) = (*l, *h);
                *l = m[0] * a0 + m[1] * a1;
                *h = m[2] * a0 + m[3] * a1;
            }
        }
    }

    pub fn pair_tile_blocks(t: &super::PairTile, v: &mut [Complex64], half: usize) {
        for block in v.chunks_exact_mut(2 * half) {
            let (lo, hi) = block.split_at_mut(half);
            pair_tile_run(t, lo, hi);
        }
    }

    pub fn mul_diag_tiled(v: &mut [Complex64], d: &[Complex64]) {
        for t in v.chunks_exact_mut(d.len()) {
            for (a, &f) in t.iter_mut().zip(d) {
                *a = f * *a;
            }
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
    use super::{scalar, Complex64, DiagTable, PairTable, PairTile, Real2x2, MAX_TILE};
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
    /// the [`PairTile`] layout of a period of 1.
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

    /// [`pair_mul`] on the registers `lo` and `hi`, in place.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn pair_step(lo: &mut [Complex64; 2], hi: &mut [Complex64; 2], c: &[__m256d; 8]) {
        let (new_lo, new_hi) = pair_mul(load(lo), load(hi), c);
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
            pair_step(l, h, &c);
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

    /// Register positions of a period: [`MAX_TILE`] amplitudes, two a register.
    const POSITIONS: usize = MAX_TILE / 2;

    /// Pairs of runs `lo` and `hi` of one length, even and a multiple of
    /// the period, so whole passes over the table cover them.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn pair_runs<'a>(
        t: &PairTile,
        runs: impl Iterator<Item = (&'a mut [Complex64], &'a mut [Complex64])>,
    ) {
        if t.positions == 1 {
            let c = load_lanes(&t.coef[0]);
            for (lo, hi) in runs {
                for (l, h) in regs_mut(lo).iter_mut().zip(regs_mut(hi)) {
                    pair_step(l, h, &c);
                }
            }
            return;
        }
        for (lo, hi) in runs {
            let (lo, hi) = (regs_mut(lo), regs_mut(hi));
            let periods = lo
                .chunks_exact_mut(t.positions)
                .zip(hi.chunks_exact_mut(t.positions));
            for (lo, hi) in periods {
                for (((l, h), c), &skip) in lo.iter_mut().zip(hi).zip(&t.coef).zip(&t.skip) {
                    if !skip {
                        pair_step(l, h, &load_lanes(c));
                    }
                }
            }
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub fn pair_tile_apply(t: &PairTile, lo: &mut [Complex64], hi: &mut [Complex64]) {
        let len = lo.len().min(hi.len());
        if len % 2 == 1 {
            // Only a period of 1 divides an odd length.
            return scalar::pair_tile_run(t, lo, hi);
        }
        pair_runs(t, std::iter::once((&mut lo[..len], &mut hi[..len])));
    }

    #[target_feature(enable = "avx2,fma")]
    pub fn pair_tile_blocks(t: &PairTile, v: &mut [Complex64], half: usize) {
        if half % 2 == 1 {
            return scalar::pair_tile_blocks(t, v, half);
        }
        pair_runs(
            t,
            v.chunks_exact_mut(2 * half)
                .map(|block| block.split_at_mut(half)),
        );
    }

    #[target_feature(enable = "avx2,fma")]
    pub fn diag_table_apply(t: &DiagTable, v: &mut [Complex64], f: Complex64) {
        let (f_re, f_im) = (_mm256_set1_pd(f.re), _mm256_set1_pd(f.im));
        for block in v.chunks_exact_mut(t.period()) {
            let quads = regs_mut(block).as_chunks_mut().0.iter_mut();
            for ([a, b], c) in quads.zip(&t.coef) {
                let (x0, x1) = (load(a), load(b));
                // Real and imaginary parts in `DiagTable`'s order.
                let (re, im) = (_mm256_unpacklo_pd(x0, x1), _mm256_unpackhi_pd(x0, x1));
                let y_re = _mm256_fmsub_pd(re, f_re, _mm256_mul_pd(im, f_im));
                let y_im = _mm256_fmadd_pd(re, f_im, _mm256_mul_pd(im, f_re));
                let [t_re, t_im] = load_lanes(c);
                let z_re = _mm256_fmsub_pd(y_re, t_re, _mm256_mul_pd(y_im, t_im));
                let z_im = _mm256_fmadd_pd(y_re, t_im, _mm256_mul_pd(y_im, t_re));
                store(a, _mm256_unpacklo_pd(z_re, z_im));
                store(b, _mm256_unpackhi_pd(z_re, z_im));
            }
        }
    }

    /// Two pairs, `lo = [lo_j, lo_j+1]` and `hi = [hi_j, hi_j+1]`, through
    /// `f` and their matrices (`c`: [`PairTable`]'s entry for `j, j + 1`).
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn table_step(
        lo: __m256d,
        hi: __m256d,
        c: &[[f64; 4]; 8],
        f: Option<(__m256d, __m256d)>,
    ) -> (__m256d, __m256d) {
        let (lo, hi) = match f {
            Some((f_re, f_im)) => (cmul_bcast(lo, f_re, f_im), cmul_bcast(hi, f_re, f_im)),
            None => (lo, hi),
        };
        pair_mul(lo, hi, &load_lanes(c))
    }

    #[target_feature(enable = "avx2,fma")]
    pub fn pair_table_apply(t: &PairTable, v: &mut [Complex64], f: Complex64) {
        let f = (f != Complex64::ONE).then(|| (_mm256_set1_pd(f.re), _mm256_set1_pd(f.im)));
        let s = t.stride;
        for span in v.chunks_exact_mut(t.span()) {
            if s == 1 {
                // Pairs `2r, 2r + 1` are amplitudes `4r .. 4r + 4`: split
                // the two registers into a `lo` and a `hi` one and back.
                let quads = regs_mut(span).as_chunks_mut().0.iter_mut();
                for ([x, y], c) in quads.zip(&t.coef) {
                    let (a, b) = (load(x), load(y));
                    let lo = _mm256_permute2f128_pd(a, b, 0x20);
                    let hi = _mm256_permute2f128_pd(a, b, 0x31);
                    let (lo, hi) = table_step(lo, hi, c, f);
                    store(x, _mm256_permute2f128_pd(lo, hi, 0x20));
                    store(y, _mm256_permute2f128_pd(lo, hi, 0x31));
                }
                continue;
            }
            // Block `b` of `2 * s` amplitudes holds pairs `b*s .. (b+1)*s`,
            // two a table entry.
            for (block, coef) in span.chunks_exact_mut(2 * s).zip(t.coef.chunks_exact(s / 2)) {
                let (lo, hi) = block.split_at_mut(s);
                for ((l, h), c) in regs_mut(lo).iter_mut().zip(regs_mut(hi)).zip(coef) {
                    let (new_lo, new_hi) = table_step(load(l), load(h), c, f);
                    store(l, new_lo);
                    store(h, new_hi);
                }
            }
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub fn mul_diag_tiled(v: &mut [Complex64], d: &[Complex64]) {
        let period = d.len();
        if period == 1 {
            return scale_in_place(v, d[0]);
        }
        let positions = period / 2;
        let mut re = [_mm256_setzero_pd(); POSITIONS];
        let mut im = [_mm256_setzero_pd(); POSITIONS];
        let mut skip = [false; POSITIONS];
        for r in 0..positions {
            let (a, b) = (d[2 * r], d[2 * r + 1]);
            re[r] = _mm256_setr_pd(a.re, a.re, b.re, b.re);
            im[r] = _mm256_setr_pd(a.im, a.im, b.im, b.im);
            skip[r] = a == Complex64::ONE && b == Complex64::ONE;
        }
        for block in v.chunks_exact_mut(period) {
            let block = regs_mut(block);
            for r in 0..positions {
                if !skip[r] {
                    let x = &mut block[r];
                    store(x, cmul_bcast(load(x), re[r], im[r]));
                }
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
    /// positions a tiled kernel may skip).
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

    /// `kernel(lo, hi, tile)` against the defining formula, over periods
    /// 1..=16 and 1-5 periods per run (a run of one amplitude included).
    fn check_apply_tiled(kernel: impl Fn(&mut [Complex64], &mut [Complex64], &[[Complex64; 4]])) {
        for p in [1usize, 2, 4, 8, 16] {
            let tile = rand_tile(p, 109 + p as u64);
            for periods in 1..=5usize {
                let len = p * periods;
                let (lo, hi) = (rand_vec(len, 113), rand_vec(len, 127));
                let (mut lo_got, mut hi_got) = (lo.clone(), hi.clone());
                kernel(&mut lo_got, &mut hi_got, &tile);
                for i in 0..len {
                    let m = &tile[i % p];
                    assert!(
                        close(lo_got[i], m[0] * lo[i] + m[1] * hi[i])
                            && close(hi_got[i], m[2] * lo[i] + m[3] * hi[i]),
                        "p {p} len {len} at {i}"
                    );
                }
            }
        }
    }

    /// `kernel(v, tile, half)` against the defining formula: every period
    /// that divides `half`, halves 1..=32, 1-3 blocks.
    fn check_block_tiled(kernel: impl Fn(&mut [Complex64], &[[Complex64; 4]], usize)) {
        for half in [1usize, 2, 4, 8, 16, 32] {
            for p in [1usize, 2, 4, 8, 16] {
                if p > half {
                    continue;
                }
                let tile = rand_tile(p, 131 + p as u64);
                for blocks in 1..=3usize {
                    let v = rand_vec(2 * half * blocks, 137);
                    let mut got = v.clone();
                    kernel(&mut got, &tile, half);
                    for (i, &g) in got.iter().enumerate() {
                        let (row, j) = ((i / half) % 2, i % half);
                        let base = i - row * half;
                        let m = &tile[j % p];
                        let want = m[2 * row] * v[base] + m[2 * row + 1] * v[base + half];
                        assert!(close(g, want), "half {half} p {p} blocks {blocks} at {i}");
                    }
                }
            }
        }
    }

    /// `kernel(v, d)` against `v[i] * d[i % p]`, with runs of exact ones in
    /// the diagonal (the positions the kernel may skip).
    fn check_mul_diag(kernel: impl Fn(&mut [Complex64], &[Complex64])) {
        for p in [1usize, 2, 4, 8, 16] {
            let mut d = rand_vec(p, 139 + p as u64);
            // Elements 2 and 3 of every four: a whole register of ones.
            for (j, f) in d.iter_mut().enumerate() {
                if j % 4 >= 2 {
                    *f = Complex64::ONE;
                }
            }
            for periods in 1..=5usize {
                let v = rand_vec(p * periods, 149);
                let mut got = v.clone();
                kernel(&mut got, &d);
                for (i, &g) in got.iter().enumerate() {
                    assert!(close(g, d[i % p] * v[i]), "p {p} at {i}");
                }
            }
        }
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

    /// `kernel(table, v, f)` against `f * d[i % p] * v[i]`: periods 4 to 64,
    /// 1-3 blocks, `f` of 1 and not.
    fn check_diag_table(kernel: impl Fn(&DiagTable, &mut [Complex64], Complex64)) {
        for p in [4usize, 8, 32, 64] {
            let d = rand_vec(p, 179 + p as u64);
            let table = DiagTable::new(&d);
            assert_eq!(table.period(), p);
            for f in [Complex64::ONE, Complex64::new(0.3, -1.1)] {
                for blocks in 1..=3usize {
                    let v = rand_vec(p * blocks, 181);
                    let mut got = v.clone();
                    kernel(&table, &mut got, f);
                    for (i, &g) in got.iter().enumerate() {
                        assert!(close(g, f * d[i % p] * v[i]), "p {p} f {f:?} at {i}");
                    }
                }
            }
        }
    }

    /// Random matrices, one per pair of a span of `pairs` pairs.
    fn rand_mats(pairs: usize, seed: u64) -> Vec<[Complex64; 4]> {
        rand_vec(4 * pairs, seed)
            .chunks_exact(4)
            .map(|m| m.try_into().unwrap())
            .collect()
    }

    /// `kernel(table, v, f)` against the defining formula: strides 1 to 16
    /// over spans of 1-4 blocks, 1-3 spans, `f` of 1 and not.
    fn check_pair_table(kernel: impl Fn(&PairTable, &mut [Complex64], Complex64)) {
        for stride in [1usize, 2, 4, 16] {
            for blocks in 1..=4usize {
                let pairs = stride * blocks;
                if pairs % 2 == 1 {
                    continue;
                }
                let mats = rand_mats(pairs, 191 + pairs as u64);
                let table = PairTable::new(&mats, stride);
                assert_eq!(table.span(), 2 * pairs);
                for f in [Complex64::ONE, Complex64::new(-0.7, 0.4)] {
                    for spans in 1..=3usize {
                        let v = rand_vec(2 * pairs * spans, 193);
                        let mut got = v.clone();
                        kernel(&table, &mut got, f);
                        for (i, &g) in got.iter().enumerate() {
                            let at = i % (2 * pairs);
                            let (b, row, k) = (at / (2 * stride), at / stride % 2, at % stride);
                            let base = i - row * stride;
                            let m = &mats[b * stride + k];
                            let want =
                                f * (m[2 * row] * v[base] + m[2 * row + 1] * v[base + stride]);
                            assert!(close(g, want), "stride {stride} pairs {pairs} at {i}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn diag_table_matches_the_defining_formula() {
        check_diag_table(scalar::diag_table_apply);
        check_diag_table(|t, v, f| t.apply(v, f));
    }

    #[test]
    fn pair_table_matches_the_defining_formula() {
        check_pair_table(scalar::pair_table_apply);
        check_pair_table(|t, v, f| t.apply(v, f));
    }

    #[test]
    #[should_panic]
    fn pair_table_refuses_an_odd_pair_count() {
        PairTable::new(&rand_mats(3, 197), 1);
    }

    #[test]
    fn pairs2x2_matches_scalar_reference() {
        check_pairs2x2(scalar::pairs2x2);
        check_pairs2x2(pairs2x2);
    }

    #[test]
    fn pair_tile_matches_the_defining_formula() {
        check_apply_tiled(|lo, hi, tile| scalar::pair_tile_run(&PairTile::new(tile), lo, hi));
        check_apply_tiled(|lo, hi, tile| PairTile::new(tile).apply(lo, hi));
        check_block_tiled(|v, tile, half| scalar::pair_tile_blocks(&PairTile::new(tile), v, half));
        check_block_tiled(|v, tile, half| PairTile::new(tile).apply_blocks(v, half));
    }

    #[test]
    fn mul_diag_tiled_matches_scalar_reference() {
        check_mul_diag(scalar::mul_diag_tiled);
        check_mul_diag(mul_diag_tiled);
    }

    #[test]
    #[should_panic]
    fn pair_tile_refuses_a_period_that_does_not_divide_the_run() {
        let tile = rand_tile(4, 163);
        PairTile::new(&tile).apply(&mut rand_vec(6, 167), &mut rand_vec(6, 173));
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
        check_apply_tiled(|lo, hi, tile| avx2::pair_tile_apply(&PairTile::new(tile), lo, hi));
        check_block_tiled(|v, tile, half| avx2::pair_tile_blocks(&PairTile::new(tile), v, half));
        check_mul_diag(|v, d| avx2::mul_diag_tiled(v, d));
        check_diag_table(|t, v, f| avx2::diag_table_apply(t, v, f));
        check_pair_table(|t, v, f| avx2::pair_table_apply(t, v, f));
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
