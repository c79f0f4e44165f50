//! Lock-free log-bucketed latency histograms.
//!
//! Counters answer "how many" and gauges answer "what is it now"; neither
//! answers "how is it *distributed*" — and every latency the stack cares
//! about (queue wait, gate apply, conversion, checkpoint write, lock
//! stalls) is long-tailed enough that a last-value gauge hides exactly the
//! events that matter. [`Histogram`] fills that gap with the same cost
//! model as [`crate::metrics::Counter`]:
//!
//! * **Recording** ([`Histogram::observe`]) is three relaxed `fetch_add`s
//!   (bucket, count, sum) on `Arc`-shared atomics — no lock, no allocation,
//!   safe on per-gate paths. Call sites that would need an *extra* clock
//!   read to produce the value are expected to guard that read behind
//!   [`crate::enabled`], keeping the disabled cost at one relaxed load.
//! * **Buckets** are base-2 logarithmic: bucket 0 holds the value `0`,
//!   bucket `i ≥ 1` holds `[2^(i-1), 2^i)`. 64 value buckets cover the
//!   full `u64` range, so microsecond latencies from sub-µs lock stalls to
//!   multi-hour job runs land in meaningful buckets with zero
//!   configuration.
//! * **Snapshots** ([`Histogram::snapshot`]) are taken with relaxed loads
//!   while writers continue; they expose cumulative bucket counts (the
//!   Prometheus `le` shape), estimated quantiles, the mean, and can be
//!   [merged](HistogramSnapshot::merge) across registries (e.g. summing
//!   per-job histograms into a fleet view).
//!
//! Units are the caller's choice and belong in the metric name
//! (`serve.queue_wait_us`, `dd.unique_stall_ns`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of buckets: one for zero plus one per power of two.
pub const NUM_BUCKETS: usize = 65;

struct Inner {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A lock-free log2-bucketed histogram handle. Cheap to clone; all clones
/// share the same buckets.
#[derive(Clone)]
pub struct Histogram(Arc<Inner>);

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count)
            .field("sum", &s.sum)
            .finish_non_exhaustive()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a value: 0 for 0, else `64 - leading_zeros`.
#[inline]
fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last bucket,
/// which would otherwise overflow `2^64 - 1` arithmetic on the shift).
#[inline]
pub fn bucket_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Histogram(Arc::new(Inner {
            buckets: [const { AtomicU64::new(0) }; NUM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }

    /// Records one value: three relaxed `fetch_add`s, no lock.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.0.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] in whole microseconds.
    #[inline]
    pub fn observe_duration_us(&self, d: std::time::Duration) {
        self.observe(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// True if `other` is a handle to this same histogram.
    pub fn same_as(&self, other: &Histogram) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Adds every recorded value of `other` into `self` (bucket-wise).
    /// Used to roll per-job histograms up into a daemon-wide view.
    pub fn merge_from(&self, other: &Histogram) {
        for i in 0..NUM_BUCKETS {
            let n = other.0.buckets[i].load(Ordering::Relaxed);
            if n > 0 {
                self.0.buckets[i].fetch_add(n, Ordering::Relaxed);
            }
        }
        self.0
            .count
            .fetch_add(other.0.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.0
            .sum
            .fetch_add(other.0.sum.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Zeroes every bucket (registered handles keep working).
    pub fn reset(&self) {
        for b in &self.0.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.0.count.store(0, Ordering::Relaxed);
        self.0.sum.store(0, Ordering::Relaxed);
    }

    /// A point-in-time copy of the distribution. Taken with relaxed loads
    /// while writers continue, so `count`/`sum` may trail the buckets by a
    /// few in-flight observations — fine for monitoring, documented here so
    /// nobody builds an invariant on exactness.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; NUM_BUCKETS];
        for (i, b) in self.0.buckets.iter().enumerate() {
            buckets[i] = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            count: buckets.iter().sum(),
            sum: self.0.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// An owned, immutable copy of a histogram's state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total recorded values (derived from the buckets, so quantiles are
    /// internally consistent even under concurrent writers).
    pub count: u64,
    /// Sum of all recorded values (saturating in practice: `u64` µs wraps
    /// after ~580k years of accumulated latency).
    pub sum: u64,
    /// Per-bucket (non-cumulative) counts; bucket `i` spans
    /// `(bucket_bound(i-1), bucket_bound(i)]`.
    pub buckets: [u64; NUM_BUCKETS],
}

impl HistogramSnapshot {
    /// An empty snapshot (identity for [`HistogramSnapshot::merge`]).
    pub fn empty() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: [0; NUM_BUCKETS],
        }
    }

    /// Bucket-wise sum of two snapshots.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = self.clone();
        for i in 0..NUM_BUCKETS {
            out.buckets[i] += other.buckets[i];
        }
        out.count += other.count;
        out.sum += other.sum;
        out
    }

    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated quantile `q` in `[0, 1]`, linearly interpolated inside the
    /// target bucket. Returns 0 for an empty histogram. The estimate is
    /// bounded by the bucket edges, so error is at most 2× (one octave).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let before = seen;
            seen += n;
            if (seen as f64) >= rank {
                let lo = if i == 0 {
                    0.0
                } else {
                    bucket_bound(i - 1) as f64
                };
                let hi = bucket_bound(i) as f64;
                let frac = (rank - before as f64) / n as f64;
                return lo + (hi - lo) * frac.clamp(0.0, 1.0);
            }
        }
        bucket_bound(NUM_BUCKETS - 1) as f64
    }

    /// Cumulative `(inclusive upper bound, count ≤ bound)` pairs, one per
    /// *occupied* prefix of the bucket array: all buckets up to and
    /// including the highest non-empty one (always at least bucket 0).
    /// This is exactly the Prometheus `le` shape minus the `+Inf` bucket,
    /// which equals [`HistogramSnapshot::count`].
    pub fn cumulative(&self) -> Vec<(u64, u64)> {
        let last = self
            .buckets
            .iter()
            .rposition(|&n| n > 0)
            .unwrap_or(0)
            .max(1);
        let mut out = Vec::with_capacity(last + 1);
        let mut acc = 0u64;
        for i in 0..=last {
            acc += self.buckets[i];
            out.push((bucket_bound(i), acc));
        }
        out
    }

    /// Renders as a compact JSON object (used by
    /// [`crate::MetricsRegistry::to_json`]).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        use std::fmt::Write as _;
        let _ = write!(out, "\"count\": {}, \"sum\": {}, ", self.count, self.sum);
        out.push_str("\"mean\": ");
        crate::json_f64(&mut out, self.mean());
        for (label, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
            let _ = write!(out, ", \"{label}\": ");
            crate::json_f64(&mut out, self.quantile(q));
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(1), 1);
        assert_eq!(bucket_bound(2), 3);
        assert_eq!(bucket_bound(64), u64::MAX);
    }

    #[test]
    fn observe_count_sum_and_clone_share() {
        let h = Histogram::new();
        h.observe(0);
        h.observe(1);
        h.observe(100);
        let h2 = h.clone();
        h2.observe(1000);
        assert!(h.same_as(&h2));
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 1101);
        assert_eq!(s.mean(), 1101.0 / 4.0);
    }

    #[test]
    fn quantiles_are_octave_bounded() {
        let h = Histogram::new();
        for _ in 0..1000 {
            h.observe(100);
        }
        let s = h.snapshot();
        // 100 lives in bucket (63, 127]; any quantile must land there.
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let v = s.quantile(q);
            assert!((63.0..=127.0).contains(&v), "q={q} -> {v}");
        }
        assert_eq!(HistogramSnapshot::empty().quantile(0.5), 0.0);
    }

    #[test]
    fn cumulative_is_monotonic_and_ends_at_count() {
        let h = Histogram::new();
        for v in [0u64, 1, 5, 5, 300, 70_000] {
            h.observe(v);
        }
        let s = h.snapshot();
        let cum = s.cumulative();
        let mut prev = 0u64;
        for &(_, c) in &cum {
            assert!(c >= prev, "cumulative counts must be monotonic");
            prev = c;
        }
        assert_eq!(cum.last().unwrap().1, s.count);
        let mut bounds: Vec<u64> = cum.iter().map(|&(b, _)| b).collect();
        let mut sorted = bounds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(bounds, sorted, "bounds strictly increasing");
        bounds.dedup();
    }

    #[test]
    fn merge_adds_bucketwise() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.observe(10);
        b.observe(10);
        b.observe(1 << 20);
        a.merge_from(&b);
        let s = a.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 20 + (1 << 20));
        let m = a.snapshot().merge(&b.snapshot());
        assert_eq!(m.count, 5);
    }

    #[test]
    fn reset_zeroes_but_handle_lives() {
        let h = Histogram::new();
        h.observe(42);
        h.reset();
        assert_eq!(h.snapshot().count, 0);
        h.observe(7);
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn concurrent_observers_lose_nothing() {
        let h = Histogram::new();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.observe(t * 1000 + i % 7);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.snapshot().count, 40_000);
    }
}
