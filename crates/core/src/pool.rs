//! Thread-pool plumbing for the FlatDD phases.
//!
//! The persistent fork-join [`ThreadPool`] itself lives in [`qarray::pool`]
//! (the bottom of the crate stack) so the array kernels, the DD phase, the
//! DMAV kernels and the converters all share one worker implementation;
//! this module re-exports it and keeps the DMAV-specific thread-count clamp.

pub use qarray::pool::ThreadPool;

/// Clamps a requested thread count to the largest power of two that the
/// DMAV assignment scheme supports for `n` qubits (`log2 t < n`).
pub fn clamp_threads(requested: usize, n: usize) -> usize {
    let r = requested.max(1);
    let mut t = r.next_power_of_two();
    if t != r {
        t /= 2; // round *down* to a power of two
    }
    let max = 1usize << n.saturating_sub(1).min(16);
    t.clamp(1, max)
}

/// Resolves a requested flat-phase shard count: `0` means "follow the
/// thread count" (the default), anything else is clamped exactly like a
/// thread count (power of two, `log2 s < n`) so shards stay usable as DMAV
/// assignment groups and conversion groups.
pub fn clamp_shards(requested: usize, threads: usize, n: usize) -> usize {
    if requested == 0 {
        clamp_threads(threads, n)
    } else {
        clamp_threads(requested, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_partition_disjoint_slices() {
        let pool = ThreadPool::new(4);
        let mut data = vec![0usize; 64];
        pool.for_each_part(data.chunks_mut(16).enumerate(), |(tid, chunk)| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = tid * 16 + i;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i);
        }
    }

    #[test]
    fn clamp_threads_powers_of_two() {
        assert_eq!(clamp_threads(1, 10), 1);
        assert_eq!(clamp_threads(2, 10), 2);
        assert_eq!(clamp_threads(3, 10), 2);
        assert_eq!(clamp_threads(4, 10), 4);
        assert_eq!(clamp_threads(7, 10), 4);
        assert_eq!(clamp_threads(16, 10), 16);
        // n=3 allows at most 2^2 = 4 threads.
        assert_eq!(clamp_threads(16, 3), 4);
        assert_eq!(clamp_threads(0, 5), 1);
    }

    #[test]
    fn clamp_shards_auto_follows_threads() {
        assert_eq!(clamp_shards(0, 4, 10), 4);
        assert_eq!(clamp_shards(0, 3, 10), 2);
        assert_eq!(clamp_shards(8, 2, 10), 8);
        assert_eq!(clamp_shards(5, 2, 10), 4);
        assert_eq!(clamp_shards(64, 4, 3), 4);
        assert_eq!(clamp_shards(1, 16, 10), 1);
    }
}
