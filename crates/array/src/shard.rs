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

/// A `2^n` amplitude vector in one contiguous allocation, carved into
/// explicitly tracked shards. Derefs to `[Complex64]`, so every existing
/// slice consumer (kernels, DMAV, measurement, checkpointing) works
/// unchanged; the shard geometry travels with the state so each subsystem
/// dispatches over the same ranges.
#[derive(Debug)]
pub struct ShardedState {
    data: Vec<Complex64>,
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
            data,
            shards: shards.max(1),
        })
    }

    /// Wraps an existing amplitude vector (e.g. a checkpoint payload) with
    /// a shard geometry. A resume may use any shard count — the amplitudes
    /// are shard-agnostic.
    pub fn from_vec(data: Vec<Complex64>, shards: usize) -> Self {
        ShardedState {
            data,
            shards: shards.max(1),
        }
    }

    /// Consumes the state, returning the flat vector.
    pub fn into_vec(self) -> Vec<Complex64> {
        self.data
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Index range of shard `s` (equal-sized contiguous ranges).
    pub fn shard_range(&self, s: usize) -> Range<usize> {
        shard_range(self.data.len(), self.shards, s)
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
            shards: self.shards,
        }
    }
}

impl Deref for ShardedState {
    type Target = [Complex64];
    fn deref(&self) -> &[Complex64] {
        &self.data
    }
}

impl DerefMut for ShardedState {
    fn deref_mut(&mut self) -> &mut [Complex64] {
        &mut self.data
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
