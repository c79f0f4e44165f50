//! Explicitly sharded flat state vectors with first-touch initialization.
//!
//! The flat-phase state used to be one monolithic `vec![ZERO; dim]`: the
//! allocating thread wrote every page once, so on NUMA (and multi-CCX)
//! machines the whole vector landed on that thread's memory node and every
//! remote worker paid interconnect latency on the hottest loops in the
//! system. [`ShardedState`] keeps the *storage* contiguous — DMAV tasks and
//! gate kernels index arbitrary absolute amplitudes, so a split allocation
//! would cost an indirection per access — but carves it into `shards`
//! contiguous, equally sized ranges.
//!
//! A fresh buffer comes zeroed from the kernel ([`first_touch_zeroed`]:
//! `alloc_zeroed`, which for a large block is a fresh mapping that no user
//! pass writes), so each page is faulted in — and on NUMA placed — by the
//! first worker that writes it: the conversion fill group or gate kernel
//! that owns its shard. Buffers of at least [`HUGE_PAGE_MIN_BYTES`] are
//! advised onto transparent huge pages on Linux, which turns 512 faults
//! into one where the kernel honours the advice.
//!
//! The shard is the unit of dispatch everywhere in the flat phase:
//! DD-to-array conversion groups, DMAV assignment groups, gate-kernel
//! partitions, measurement partial sums, the health watchdog, and FDCP1
//! checkpoint chunking all align to [`ShardedState::shard_range`]. Workers
//! pick shards round-robin (`tid, tid + T, tid + 2T, ...`), so a worker
//! keeps touching the same shards it first-touched regardless of whether
//! the shard count equals, exceeds, or undershoots the thread count.

use crate::pool::ThreadPool;
use crate::vecops;
use qcircuit::Complex64;
use std::collections::TryReserveError;
use std::mem::MaybeUninit;
use std::ops::{Deref, DerefMut, Range};

/// Splits `dim` elements into `shards` contiguous ranges: every shard gets
/// `ceil(dim / shards)` elements except a possibly short (or empty) tail.
/// For the power-of-two dims and shard counts the simulator uses, all
/// shards are equal.
pub fn shard_range(dim: usize, shards: usize, s: usize) -> Range<usize> {
    let shards = shards.max(1);
    let len = dim.div_ceil(shards);
    let start = (s * len).min(dim);
    let end = ((s + 1) * len).min(dim);
    start..end
}

/// `v` cut at the [`shard_range`]s of `shards` shards: part `s` is shard
/// `s`, and the empty tail shards of a short `v` are left out — the parts
/// a sharded writer hands to [`ThreadPool::for_each_part`].
pub(crate) fn shard_parts<T>(v: &mut [T], shards: usize) -> std::slice::ChunksMut<'_, T> {
    v.chunks_mut(v.len().div_ceil(shards.max(1)).max(1))
}

/// Smallest flat buffer advised onto transparent huge pages (4 MiB: below
/// that the 2 MiB-aligned interior holds at most one huge page, and the
/// served jobs' small states stay on 4 KiB pages).
pub const HUGE_PAGE_MIN_BYTES: usize = 4 << 20;
/// Size and alignment of a transparent huge page on x86-64 and arm64 Linux.
const HUGE_PAGE: usize = 2 << 20;

/// The 2 MiB-aligned interior of the `bytes`-long block at `addr`: the
/// range `madvise(MADV_HUGEPAGE)` is applied to. `None` below
/// [`HUGE_PAGE_MIN_BYTES`] or when no whole huge page fits.
fn huge_page_interior(addr: usize, bytes: usize) -> Option<Range<usize>> {
    if bytes < HUGE_PAGE_MIN_BYTES {
        return None;
    }
    let start = addr.checked_next_multiple_of(HUGE_PAGE)?;
    let end = addr.saturating_add(bytes) / HUGE_PAGE * HUGE_PAGE;
    (start < end).then_some(start..end)
}

#[cfg(target_os = "linux")]
mod thp {
    // Bind the C library's `madvise(2)` directly, as `flatdd::signal` binds
    // `signal(2)`: the workspace takes no libc dependency.
    extern "C" {
        fn madvise(addr: *mut u8, len: usize, advice: i32) -> i32;
    }

    const MADV_HUGEPAGE: i32 = 14;

    /// Asks for transparent huge pages on `range`. The result is ignored:
    /// a kernel without THP (or with it set to `never`) refuses, and the
    /// buffer then simply stays on 4 KiB pages.
    pub(super) fn advise(range: std::ops::Range<usize>) {
        // SAFETY: `range` is the page-aligned interior of a live allocation
        // this module just made (`huge_page_interior`; covered by
        // `fresh_buffers_read_zero_and_are_advised`), and MADV_HUGEPAGE
        // changes only how its pages are backed, never their contents.
        unsafe { madvise(range.start as *mut u8, range.len(), MADV_HUGEPAGE) };
    }
}

#[cfg(not(target_os = "linux"))]
mod thp {
    pub(super) fn advise(_range: std::ops::Range<usize>) {}
}

/// A fresh `dim`-element buffer from `alloc_zeroed`: the allocator hands a
/// large block over as a new mapping the kernel zeroes at fault time, so no
/// user pass writes it. `None` when the allocator refuses (or `dim` is 0).
fn kernel_zeroed(dim: usize) -> Option<Vec<Complex64>> {
    let layout = std::alloc::Layout::array::<Complex64>(dim).ok()?;
    if layout.size() == 0 {
        return None;
    }
    // SAFETY: `layout` has a non-zero size, checked above
    // (`fresh_buffers_read_zero_and_are_advised` asks for 0 amplitudes).
    let ptr = unsafe { std::alloc::alloc_zeroed(layout) }.cast::<Complex64>();
    if ptr.is_null() {
        return None;
    }
    if let Some(interior) = huge_page_interior(ptr as usize, layout.size()) {
        thp::advise(interior);
    }
    // SAFETY: `ptr` was allocated by the global allocator with the layout of
    // `dim` `Complex64`s, which is what `Vec` frees it with; all-zero bytes
    // are a valid `Complex64` (two 0.0 f64s), so all `dim` elements are
    // initialized (`fresh_buffers_read_zero_and_are_advised`).
    Some(unsafe { Vec::from_raw_parts(ptr, dim, dim) })
}

/// Replaces the contents of `v` with `dim` zeroed elements, fallibly: the
/// one allocation path of every flat buffer. Fresh capacity comes zeroed
/// from the kernel (and huge-page-advised from [`HUGE_PAGE_MIN_BYTES`]
/// up), so its pages are faulted in by whichever worker first writes them.
/// Capacity `v` already holds is zeroed explicitly, each shard by the
/// `pool` worker that will own it ([`ThreadPool::for_each_part`]). A
/// refused reservation is the `TryReserveError`.
pub fn first_touch_zeroed(
    v: &mut Vec<Complex64>,
    dim: usize,
    shards: usize,
    pool: &ThreadPool,
) -> Result<(), TryReserveError> {
    v.clear();
    if v.capacity() < dim {
        if let Some(fresh) = kernel_zeroed(dim) {
            *v = fresh;
            return Ok(());
        }
        // Refused (or empty): the std reservation reports the typed error,
        // or — should memory have come free meanwhile — succeeds and the
        // buffer is zeroed below.
        v.try_reserve_exact(dim)?;
    }
    let spare = &mut v.spare_capacity_mut()[..dim];
    pool.for_each_part(shard_parts(spare, shards), |part| {
        part.fill(MaybeUninit::new(Complex64::ZERO));
    });
    // SAFETY: the shard parts tile `0..dim` and `for_each_part` returned, so
    // every element below `dim` is initialized
    // (`first_touch_reuses_existing_capacity`).
    unsafe { v.set_len(dim) };
    Ok(())
}

/// Sums `partial(s)` over the shards `0..shards`: the partials are computed
/// on `pool` ([`ThreadPool::for_each_part`]) and added in shard order, so
/// the result depends on the shard count but never on the thread count.
/// One shard is `partial(0)` itself.
pub fn sum_shards(pool: &ThreadPool, shards: usize, partial: impl Fn(usize) -> f64 + Sync) -> f64 {
    if shards <= 1 {
        return partial(0);
    }
    let mut partials = vec![0.0f64; shards];
    pool.for_each_part(partials.iter_mut().enumerate(), |(s, p)| *p = partial(s));
    partials.iter().sum()
}

/// Below this chunk length the widen kernel moves single amplitudes; from
/// it up it moves whole chunks through [`vecops`].
const WIDEN_MIN_CHUNK: usize = 8;

/// Doubles the state held in the first half of `v` into all of `v` by
/// inserting a qubit at bit `p` of the index: old amplitude `i`, with `lo`
/// its low `p` bits and `hi` the rest, goes to `c[0] * v[i]` at new index
/// `hi << (p + 1) | lo` and to `c[1] * v[i]` at that index plus `2^p`.
/// `c = [1, 0]` (or `[0, 1]`) spreads the state onto the qubit's `|0>` (or
/// `|1>`) half; `c = [u00, u10]` widens and applies a one-qubit gate's first
/// column at once. Works back to front over chunks of `2^p`, in place: a
/// chunk's destination never overlaps a chunk not yet read. A coefficient
/// of exactly 0 writes zeros and one of exactly 1 copies.
///
/// # Panics
/// When `v` has odd length or `2^p` exceeds its half.
pub fn widen(v: &mut [Complex64], p: usize, c: [Complex64; 2]) {
    let len = v.len() / 2;
    let s = 1usize << p;
    assert!(v.len() == 2 * len && s <= len, "widen needs 2^p <= len");
    if s < WIDEN_MIN_CHUNK {
        for i in (0..len).rev() {
            let a = v[i];
            let lo = i + (i & !(s - 1));
            v[lo] = c[0] * a;
            v[lo + s] = c[1] * a;
        }
        return;
    }
    for chunk in (1..len / s).rev() {
        let (head, tail) = v.split_at_mut(2 * chunk * s);
        let old = &head[chunk * s..(chunk + 1) * s];
        let (lo, hi) = tail[..2 * s].split_at_mut(s);
        put(lo, c[0], old);
        put(hi, c[1], old);
    }
    // The first chunk is its own `lo` destination: write `hi` from it first.
    let (lo, hi) = v[..2 * s].split_at_mut(s);
    put(hi, c[1], lo);
    if c[0].is_zero() {
        lo.fill(Complex64::ZERO);
    } else if c[0] != Complex64::ONE {
        vecops::scale_in_place(lo, c[0]);
    }
}

/// `dst = f * src`, as a fill for `f == 0` and a copy for `f == 1`.
fn put(dst: &mut [Complex64], f: Complex64, src: &[Complex64]) {
    if f.is_zero() {
        dst.fill(Complex64::ZERO);
    } else if f == Complex64::ONE {
        dst.copy_from_slice(src);
    } else {
        vecops::scale(dst, f, src);
    }
}

/// A `2^n` amplitude vector in one contiguous allocation, carved into
/// explicitly tracked shards. Derefs to `[Complex64]`, so every existing
/// slice consumer (kernels, DMAV, measurement, checkpointing) works
/// unchanged; the shard geometry travels with the state so each subsystem
/// dispatches over the same ranges.
///
/// The state may use only a prefix of its buffer (its *active* length,
/// [`Self::set_active`]): it derefs to, and shards, that prefix, while
/// [`Self::capacity`] still counts the whole buffer. [`Self::widen`] doubles
/// the prefix in place.
#[derive(Debug)]
pub struct ShardedState {
    data: Vec<Complex64>,
    len: usize,
    shards: usize,
}

impl ShardedState {
    /// One-shot convenience over [`Self::try_new_zeroed_on`]. A fresh buffer
    /// needs no worker (the kernel zeroes it), so no pool is spawned and
    /// `_threads` is ignored.
    pub fn try_new_zeroed(
        dim: usize,
        shards: usize,
        _threads: usize,
    ) -> Result<Self, TryReserveError> {
        Self::try_new_zeroed_on(dim, shards, &ThreadPool::new(1))
    }

    /// Allocates `dim` zeroed amplitudes in `shards` shards through
    /// [`first_touch_zeroed`]: kernel-zeroed, so each page is faulted in by
    /// the first worker that writes it.
    pub fn try_new_zeroed_on(
        dim: usize,
        shards: usize,
        pool: &ThreadPool,
    ) -> Result<Self, TryReserveError> {
        let mut data = Vec::new();
        first_touch_zeroed(&mut data, dim, shards, pool)?;
        Ok(ShardedState {
            len: data.len(),
            data,
            shards: shards.max(1),
        })
    }

    /// Wraps an existing amplitude vector (e.g. a checkpoint payload) with
    /// a shard geometry. A resume may use any shard count — the amplitudes
    /// are shard-agnostic.
    pub fn from_vec(data: Vec<Complex64>, shards: usize) -> Self {
        ShardedState {
            len: data.len(),
            data,
            shards: shards.max(1),
        }
    }

    /// Consumes the state, returning the flat vector (its active prefix).
    pub fn into_vec(self) -> Vec<Complex64> {
        let mut data = self.data;
        data.truncate(self.len);
        data
    }

    /// Makes the first `len` amplitudes of the buffer the state, cut into
    /// `shards` shards. What lies beyond them is left as it is.
    ///
    /// # Panics
    /// When `len` exceeds the buffer.
    pub fn set_active(&mut self, len: usize, shards: usize) {
        assert!(len <= self.data.len(), "active prefix beyond the buffer");
        self.len = len;
        self.shards = shards.max(1);
    }

    /// Doubles the state in place by inserting a qubit at bit `p` of the
    /// index ([`widen`]): the amplitude of old index `i` goes to the two
    /// new indices around it, times `c[0]` where the new bit is 0 and
    /// `c[1]` where it is 1. The result is cut into `shards` shards.
    ///
    /// # Panics
    /// When the buffer holds less than twice the state, or `2^p` exceeds it.
    pub fn widen(&mut self, p: usize, c: [Complex64; 2], shards: usize) {
        let len = self.len;
        widen(&mut self.data[..2 * len], p, c);
        self.set_active(2 * len, shards);
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Index range of shard `s` (equal-sized contiguous ranges).
    pub fn shard_range(&self, s: usize) -> Range<usize> {
        shard_range(self.len, self.shards, s)
    }

    /// Allocated capacity in elements (for memory accounting).
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }
}

impl Clone for ShardedState {
    fn clone(&self) -> Self {
        ShardedState {
            data: self.data.clone(),
            len: self.len,
            shards: self.shards,
        }
    }
}

impl Deref for ShardedState {
    type Target = [Complex64];
    fn deref(&self) -> &[Complex64] {
        &self.data[..self.len]
    }
}

impl DerefMut for ShardedState {
    fn deref_mut(&mut self) -> &mut [Complex64] {
        &mut self.data[..self.len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_tile_the_dimension() {
        for (dim, shards) in [(16, 4), (16, 1), (16, 16), (10, 4), (7, 3), (4, 8), (0, 2)] {
            let mut covered = 0;
            for s in 0..shards {
                let r = shard_range(dim, shards, s);
                assert_eq!(r.start, covered.min(dim), "dim={dim} shards={shards} s={s}");
                covered = r.end;
            }
            assert_eq!(covered, dim);
        }
        // Power-of-two geometry: all shards equal.
        for s in 0..8 {
            assert_eq!(shard_range(1 << 10, 8, s).len(), 128);
        }
    }

    #[test]
    fn parallel_first_touch_matches_serial() {
        for (shards, threads) in [(1, 1), (4, 2), (8, 8), (8, 3), (2, 16)] {
            let st = ShardedState::try_new_zeroed(1 << 8, shards, threads).unwrap();
            assert_eq!(st.len(), 1 << 8);
            assert_eq!(st.shards(), shards);
            assert!(st.iter().all(|a| a.is_zero()));
        }
    }

    #[test]
    fn deref_and_roundtrip() {
        let mut st = ShardedState::try_new_zeroed(8, 2, 1).unwrap();
        st[3] = Complex64::new(1.5, -0.5);
        assert_eq!(st.shard_range(0), 0..4);
        assert_eq!(st.shard_range(1), 4..8);
        let v = st.clone().into_vec();
        assert_eq!(v[3], Complex64::new(1.5, -0.5));
        let back = ShardedState::from_vec(v, 4);
        assert_eq!(back.shards(), 4);
        assert_eq!(back[3], Complex64::new(1.5, -0.5));
    }

    /// The widen kernel against its definition, index by index.
    fn widen_reference(old: &[Complex64], p: usize, c: [Complex64; 2]) -> Vec<Complex64> {
        let mut new = vec![Complex64::ZERO; 2 * old.len()];
        for (i, &a) in old.iter().enumerate() {
            let lo = (i >> p << (p + 1)) | (i & ((1 << p) - 1));
            new[lo] = c[0] * a;
            new[lo | 1 << p] = c[1] * a;
        }
        new
    }

    #[test]
    fn widen_inserts_a_qubit_at_every_position() {
        let u = Complex64::new(0.6, -0.3);
        let coefficients = [
            [Complex64::ONE, Complex64::ZERO],
            [Complex64::ZERO, Complex64::ONE],
            [u, Complex64::new(-0.2, 0.7)],
            [Complex64::ZERO, u],
        ];
        for width in [0usize, 1, 3, 4, 7] {
            let old: Vec<Complex64> = (0..1usize << width)
                .map(|i| Complex64::new(i as f64 + 1.0, -(i as f64) * 0.5))
                .collect();
            for p in 0..=width {
                for c in coefficients {
                    let mut st =
                        ShardedState::from_vec(vec![Complex64::new(f64::NAN, 0.0); 4 << width], 1);
                    st[..old.len()].copy_from_slice(&old);
                    st.set_active(old.len(), 1);
                    st.widen(p, c, 2);
                    assert_eq!(st.len(), 2 << width);
                    assert_eq!(st.shard_range(1), 1 << width..2 << width);
                    // (`vecops::scale` may fuse its multiply-adds.)
                    let want = widen_reference(&old, p, c);
                    let close = st
                        .iter()
                        .zip(&want)
                        .all(|(a, b)| a.approx_eq(*b, 1e-15 * (1.0 + b.abs())));
                    assert!(close, "width={width} p={p} c={c:?}");
                }
            }
        }
    }

    #[test]
    fn huge_page_interior_is_the_aligned_inside_from_4_mib() {
        const MIB: usize = 1 << 20;
        assert_eq!(huge_page_interior(0, 4 * MIB - 1), None);
        assert_eq!(huge_page_interior(2 * MIB, 4 * MIB - 16), None);
        assert_eq!(huge_page_interior(0, 4 * MIB), Some(0..4 * MIB));
        // glibc hands a large block over 16 bytes into a fresh mapping.
        let addr = 0x7f00_0000_0000 + 16;
        assert_eq!(
            huge_page_interior(addr, 32 * MIB),
            Some(0x7f00_0000_0000 + 2 * MIB..0x7f00_0000_0000 + 32 * MIB)
        );
        // A misaligned 4 MiB block still holds one whole huge page.
        assert_eq!(huge_page_interior(MIB + 8, 4 * MIB), Some(2 * MIB..4 * MIB));
        assert_eq!(huge_page_interior(MIB, 4 * MIB), Some(2 * MIB..4 * MIB));
        assert_eq!(huge_page_interior(usize::MAX - MIB, 4 * MIB), None);
    }

    /// The `VmFlags` line of the mapping in `/proc/self/smaps` that holds
    /// `addr` (Linux only).
    fn vm_flags(addr: usize) -> Option<String> {
        let smaps = std::fs::read_to_string("/proc/self/smaps").ok()?;
        let mut inside = false;
        for line in smaps.lines() {
            let range = line.split_whitespace().next().and_then(|r| {
                let (a, b) = r.split_once('-')?;
                Some(usize::from_str_radix(a, 16).ok()?..usize::from_str_radix(b, 16).ok()?)
            });
            if let Some(r) = range {
                inside = r.contains(&addr);
            } else if inside && line.starts_with("VmFlags:") {
                return Some(line.to_string());
            }
        }
        None
    }

    #[test]
    fn fresh_buffers_read_zero_and_are_advised() {
        let pool = ThreadPool::new(2);
        for dim in [0, 1 << 4, 1 << 17, (1 << 18) + 3, 1 << 20] {
            let mut v = vec![Complex64::new(f64::NAN, 1.0); 3];
            first_touch_zeroed(&mut v, dim, 4, &pool).unwrap();
            assert_eq!(v.len(), dim);
            assert!(v.iter().all(|a| a.is_zero()), "dim={dim}");
            let bytes = dim * std::mem::size_of::<Complex64>();
            let interior = huge_page_interior(v.as_ptr() as usize, bytes);
            assert_eq!(
                interior.is_some(),
                bytes >= HUGE_PAGE_MIN_BYTES,
                "dim={dim}"
            );
            // Where the kernel has transparent huge pages, the advice is on
            // the mapping ("hg" in its flags); elsewhere it is a no-op.
            let thp = std::path::Path::new("/sys/kernel/mm/transparent_hugepage/enabled");
            if let (Some(r), true) = (interior, cfg!(target_os = "linux") && thp.exists()) {
                let flags = vm_flags(r.start).expect("the buffer is mapped");
                assert!(flags.split_whitespace().any(|f| f == "hg"), "{flags}");
            }
        }
    }

    #[test]
    fn refused_allocation_is_a_typed_error() {
        // 2^62 bytes: a valid layout no allocator can grant.
        let mut v = vec![Complex64::ONE; 8];
        assert!(first_touch_zeroed(&mut v, 1 << 58, 2, &ThreadPool::new(1)).is_err());
        assert!(ShardedState::try_new_zeroed(1 << 58, 4, 2).is_err());
        assert!(crate::try_zeroed_state(1 << 58).is_err());
    }

    #[test]
    fn first_touch_reuses_existing_capacity() {
        let mut v = Vec::with_capacity(32);
        v.extend((0..32).map(|i| Complex64::new(i as f64, 0.0)));
        let ptr = v.as_ptr();
        first_touch_zeroed(&mut v, 32, 4, &ThreadPool::new(2)).unwrap();
        assert_eq!(v.len(), 32);
        assert!(v.iter().all(|a| a.is_zero()));
        assert_eq!(ptr, v.as_ptr(), "no reallocation when capacity suffices");
    }
}
