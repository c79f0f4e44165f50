//! `DdPackage::stats().memory_bytes` against the allocator: the governor's
//! budget is charged from counters the tables keep as they grow, so those
//! counters must add up to what the package actually holds. This binary
//! installs a counting global allocator (and therefore holds this one test
//! only — a second test thread would allocate into the same count).

use qcircuit::generators;
use qdd::DdPackage;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: forwards every call to `System` unchanged; the counter is a
// relaxed statistic that publishes nothing. `realloc`/`alloc_zeroed` use
// the default implementations, which go through `alloc`/`dealloc`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// What escapes the accounting by design, all of it fixed-size and 4.3-5.0
/// KiB together: the stripe headers of the two arenas and the complex
/// table, one inline segment directory per slot store (three of them), the
/// identity chain and telemetry handles. Everything that grows is counted
/// exactly — the tables model no allocator or std container.
const SLACK: usize = 8 << 10;

#[test]
fn stats_charge_what_the_allocator_holds() {
    let n = 12;
    let circuit = generators::supremacy(3, 4, 10, 1);
    let base = LIVE.load(Ordering::Relaxed);
    let mut pkg = DdPackage::default();
    let held = |pkg: &DdPackage| {
        let (live, accounted) = (
            LIVE.load(Ordering::Relaxed) - base,
            pkg.stats().memory_bytes,
        );
        assert!(
            live.abs_diff(accounted) <= SLACK,
            "allocator holds {live} B, stats() charges {accounted} B"
        );
        accounted
    };
    let fresh = held(&pkg);
    // An irregular state: thousands of nodes, hundreds of thousands of
    // interned weights, so every table regrows many times.
    let mut state = pkg.basis_state(n, 0);
    for (i, g) in circuit.iter().enumerate() {
        state = pkg.apply_gate(state, g, n);
        if i % 64 == 0 {
            held(&pkg);
        }
    }
    let grown = held(&pkg);
    assert!(
        grown > fresh + (8 << 20),
        "the workload must grow the tables"
    );
    assert!(pkg.stats().complex_values > 100_000);
    pkg.gc(&[state], &[]);
    held(&pkg);
    for g in circuit.iter().take(40) {
        state = pkg.apply_gate(state, g, n);
    }
    let before_flush = held(&pkg);
    let released = pkg.flush_caches();
    assert!(released > 0);
    assert_eq!(held(&pkg), before_flush - released);
}
