//! Metrics registries.
//!
//! Named **counters** (monotonic `u64`, incremented at the source),
//! **gauges** (last-write-wins `f64`, published at snapshot boundaries),
//! and **labels** (string facts such as the SIMD backend). Handles are
//! `Arc`-backed atomics: look one up once ([`MetricsRegistry::counter`] /
//! [`MetricsRegistry::gauge`]), cache it, and update with relaxed
//! operations — no lock on the hot path.
//!
//! Historically there was one process-global registry; multi-tenant serving
//! needs one registry *per job* so stats don't bleed between concurrent
//! simulations. [`MetricsRegistry`] is the instantiable form (cheap to
//! clone — clones share storage), and [`global`] is the process registry
//! of single-tenant runs ([`metrics_json`] and [`reset_metrics`] act on it).
//!
//! [`MetricsRegistry::to_json`] serializes a registry with sorted keys, so
//! the output is stable across runs and directly diffable / `jq`-able:
//!
//! ```json
//! {"counters":{"core.gates_dmav":120,...},"gauges":{"dd.gc_sweeps":3,...},
//!  "histograms":{...},"labels":{"array.vecops_backend":"avx2"}}
//! ```

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::json::{self, Writer};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// A monotonic counter handle. Cheap to clone; all clones share the value.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins `f64` gauge handle (stored as bits in an atomic).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

struct Inner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    labels: Mutex<BTreeMap<String, String>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// An isolated set of counters, gauges, and labels. Clones share storage,
/// so a registry handle can be passed to every component of one job while
/// a sibling job writes to its own registry undisturbed.
#[derive(Clone)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry").finish_non_exhaustive()
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            inner: Arc::new(Inner {
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                labels: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// True if `other` is a handle to this same registry.
    pub fn same_as(&self, other: &MetricsRegistry) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Gets (or registers) the counter named `name`. Dotted names namespace
    /// by component: `core.conversions`, `checkpoint.writes`,
    /// `serve.jobs_completed`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = lock(&self.inner.counters);
        Counter(Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        ))
    }

    /// Gets (or registers) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = lock(&self.inner.gauges);
        Gauge(Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0f64.to_bits()))),
        ))
    }

    /// Gets (or registers) the histogram named `name`. Include the unit in
    /// the name (`serve.queue_wait_us`, `sim.gate_dd_us`); the buckets
    /// are base-2 logarithmic over the full `u64` range, so no per-metric
    /// bucket configuration exists or is needed.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = lock(&self.inner.histograms);
        map.entry(name.to_string()).or_default().clone()
    }

    /// Sets a string label (e.g. the selected SIMD backend).
    pub fn set_label(&self, name: &str, value: impl Into<String>) {
        lock(&self.inner.labels).insert(name.to_string(), value.into());
    }

    /// Sorted snapshot of every counter.
    pub fn counters_snapshot(&self) -> Vec<(String, u64)> {
        lock(&self.inner.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect()
    }

    /// Sorted snapshot of every gauge.
    pub fn gauges_snapshot(&self) -> Vec<(String, f64)> {
        lock(&self.inner.gauges)
            .iter()
            .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Ordering::Relaxed))))
            .collect()
    }

    /// Sorted snapshot of every string label.
    pub fn labels_snapshot(&self) -> Vec<(String, String)> {
        lock(&self.inner.labels)
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Sorted snapshot of every histogram.
    pub fn histograms_snapshot(&self) -> Vec<(String, HistogramSnapshot)> {
        lock(&self.inner.histograms)
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect()
    }

    /// Zeroes every counter and gauge and clears all labels. Registered
    /// names stay registered (existing handles keep working). Intended for
    /// tests and for harnesses that take per-section snapshots.
    pub fn reset(&self) {
        for v in lock(&self.inner.counters).values() {
            v.store(0, Ordering::Relaxed);
        }
        for v in lock(&self.inner.gauges).values() {
            v.store(0f64.to_bits(), Ordering::Relaxed);
        }
        for h in lock(&self.inner.histograms).values() {
            h.reset();
        }
        lock(&self.inner.labels).clear();
    }

    /// Serializes the registry as stable (sorted-key) JSON.
    pub fn to_json(&self) -> String {
        let inner = &self.inner;
        json::render(|w| {
            w.begin_obj();
            section(w, "counters", &inner.counters, |w, v| {
                w.uint(v.load(Ordering::Relaxed));
            });
            section(w, "gauges", &inner.gauges, |w, v| {
                w.num(f64::from_bits(v.load(Ordering::Relaxed)));
            });
            section(w, "histograms", &inner.histograms, |w, h| {
                h.snapshot().write_json(w)
            });
            section(w, "labels", &inner.labels, |w, v| _ = w.string(v));
            w.end_obj();
        })
    }
}

/// Writes `"name": {key: value, ...}` from one registry map, under its lock
/// (a snapshot would copy every name first).
fn section<V>(
    w: &mut Writer,
    name: &str,
    map: &Mutex<BTreeMap<String, V>>,
    value: impl Fn(&mut Writer, &V),
) {
    w.key(name).begin_obj();
    for (k, v) in lock(map).iter() {
        value(w.key(k), v);
    }
    w.end_obj();
}

/// The process-global registry — the default sink for single-tenant runs
/// (CLI, examples) and for components not yet threaded onto a per-job
/// registry.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Resets the [`global`] registry (see [`MetricsRegistry::reset`]).
pub fn reset_metrics() {
    global().reset();
}

/// Serializes the [`global`] registry as stable (sorted-key) JSON.
pub fn metrics_json() -> String {
    global().to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn counters_and_gauges_round_trip() {
        let c = global().counter("test.metrics.count");
        let before = c.get();
        c.inc();
        c.add(2);
        assert_eq!(c.get(), before + 3);
        // A second lookup shares the same atomic.
        assert_eq!(global().counter("test.metrics.count").get(), before + 3);

        let g = global().gauge("test.metrics.gauge");
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        global().set_label("test.metrics.label", "hello");

        let json = json::parse(&metrics_json()).unwrap();
        let at = |section: &str, name: &str| json.get(section)?.get(name).cloned();
        assert_eq!(
            at("counters", "test.metrics.count"),
            Some((before + 3).into())
        );
        assert_eq!(at("gauges", "test.metrics.gauge"), Some(Json::Num(2.5)));
        assert_eq!(at("labels", "test.metrics.label"), Some("hello".into()));
    }

    #[test]
    fn histograms_live_in_the_registry_and_json() {
        let r = MetricsRegistry::new();
        let h = r.histogram("test.hist.us");
        h.observe(100);
        h.observe(5);
        // A second lookup shares the same buckets.
        assert!(r.histogram("test.hist.us").same_as(&h));
        assert_eq!(r.histogram("test.hist.us").snapshot().count, 2);
        let json = r.to_json();
        let h_json = json::parse(&json).unwrap();
        let snap = h_json.get("histograms").and_then(|h| h.get("test.hist.us"));
        assert_eq!(
            snap.and_then(|s| s.get("count")),
            Some(&Json::Num(2.0)),
            "{json}"
        );
        assert_eq!(
            snap.and_then(|s| s.get("sum")),
            Some(&Json::Num(105.0)),
            "{json}"
        );
        r.reset();
        assert_eq!(h.snapshot().count, 0, "reset zeroes histograms");
    }

    #[test]
    fn json_keys_are_sorted() {
        global().gauge("test.sort.b").set(1.0);
        global().gauge("test.sort.a").set(1.0);
        let json = metrics_json();
        let a = json.find("test.sort.a").unwrap();
        let b = json.find("test.sort.b").unwrap();
        assert!(a < b, "BTreeMap must render keys in order");
    }

    #[test]
    fn scoped_registries_are_isolated() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.counter("test.scope.hits").add(3);
        b.counter("test.scope.hits").inc();
        assert_eq!(a.counter("test.scope.hits").get(), 3);
        assert_eq!(b.counter("test.scope.hits").get(), 1);
        assert!(!a.same_as(&b));
        assert!(a.same_as(&a.clone()));

        // The global registry is untouched by scoped writes.
        let g = global().counter("test.scope.hits").get();
        assert_eq!(g, 0);

        // Clones share storage.
        let a2 = a.clone();
        a2.counter("test.scope.hits").inc();
        assert_eq!(a.counter("test.scope.hits").get(), 4);
    }
}
