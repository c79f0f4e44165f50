//! Explicitly sharded flat state vectors with first-touch initialization.
//!
//! The flat-phase state used to be one monolithic `vec![ZERO; dim]`: the
//! allocating thread wrote every page once, so on NUMA (and multi-CCX)
//! machines the whole vector landed on that thread's memory node and every
//! remote worker paid interconnect latency on the hottest loops in the
//! system. [`ShardedState`] keeps the *storage* contiguous — DMAV tasks and
//! gate kernels index arbitrary absolute amplitudes, so a split allocation
//! would cost an indirection per access — but carves it into `shards`
//! contiguous, equally sized ranges and lets the worker that will *own* a
//! shard be the first to touch (zero) its pages.
//!
//! The shard is the unit of dispatch everywhere in the flat phase:
//! DD-to-array conversion groups, DMAV assignment groups, gate-kernel
//! partitions, measurement partial sums, the health watchdog, and FDCP1
//! checkpoint chunking all align to [`ShardedState::shard_range`]. Workers
//! pick shards round-robin (`tid, tid + T, tid + 2T, ...`), so a worker
//! keeps touching the same shards it first-touched regardless of whether
//! the shard count equals, exceeds, or undershoots the thread count.

use crate::pool::ThreadPool;
use crate::sync_slice::SyncUnsafeSlice;
use qcircuit::Complex64;
use std::collections::TryReserveError;
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

/// Replaces the contents of `v` with `dim` zeroed elements, reserving
/// fallibly and letting `pool`'s workers first-touch the shards they will
/// own afterwards ([`ThreadPool::for_each_shard`]'s round-robin rule): the
/// one place a flat buffer gets zeroed in parallel.
pub fn first_touch_zeroed(
    v: &mut Vec<Complex64>,
    dim: usize,
    shards: usize,
    pool: &ThreadPool,
) -> Result<(), TryReserveError> {
    v.clear();
    if v.capacity() < dim {
        v.try_reserve_exact(dim)?;
    }
    let shards = shards.max(1);
    let spare = SyncUnsafeSlice::new(&mut v.spare_capacity_mut()[..dim]);
    pool.for_each_shard(shards, |s| {
        let r = shard_range(dim, shards, s);
        // SAFETY: shard ranges tile `0..dim` without overlap and each shard
        // runs on exactly one worker; all-zero bytes are a valid
        // `Complex64` (two 0.0 f64s).
        unsafe {
            spare
                .slice_mut(r.start, r.len())
                .as_mut_ptr()
                .write_bytes(0, r.len())
        };
    });
    // SAFETY: the shards tile `0..dim` and `for_each_shard` returned, so
    // every element below `dim` is initialized.
    unsafe { v.set_len(dim) };
    Ok(())
}

/// Sums `partial(s)` over the shards `0..shards`: the partials are computed
/// on `pool` ([`ThreadPool::for_each_shard`]) and added in shard order, so
/// the result depends on the shard count but never on the thread count.
/// One shard is `partial(0)` itself.
pub fn sum_shards(pool: &ThreadPool, shards: usize, partial: impl Fn(usize) -> f64 + Sync) -> f64 {
    if shards <= 1 {
        return partial(0);
    }
    let mut partials = vec![0.0f64; shards];
    let view = SyncUnsafeSlice::new(&mut partials);
    pool.for_each_shard(shards, |s| {
        // SAFETY: each partial slot is written by exactly one worker.
        unsafe { view.write(s, partial(s)) };
    });
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
    /// One-shot convenience over [`Self::try_new_zeroed_on`]: builds a
    /// transient `threads`-worker pool for the first touch (`threads <= 1`
    /// spawns nothing and zeroes inline). A caller that goes on to operate
    /// on the state should own the [`ThreadPool`] and pass it instead, so
    /// the workers that paged a shard in are the ones that use it.
    pub fn try_new_zeroed(
        dim: usize,
        shards: usize,
        threads: usize,
    ) -> Result<Self, TryReserveError> {
        Self::try_new_zeroed_on(dim, shards, &ThreadPool::new(threads))
    }

    /// Allocates `dim` zeroed amplitudes in `shards` shards, each shard
    /// first-touched by the `pool` worker that owns it.
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
