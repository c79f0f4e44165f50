//! Shared-memory building blocks for the concurrent DD package: the one
//! storage layer under both interning tables, the unique table of
//! [`crate::node::NodeArena`] and [`crate::ctable::ComplexTable`].
//!
//! * [`SlotVec`] is a segmented, append-only slot store: segments are
//!   allocated on demand (doubling in size) and *never* moved or freed while
//!   the structure is alive, so readers can dereference slots without taking
//!   any lock while writers append behind a stripe lock. This is what lets
//!   both tables hand out stable, dense `u32` indices whose contents are
//!   readable from any thread.
//! * [`TagIndex`] is the index over such a store: an open-addressed array of
//!   `hash tag << 32 | idx + 1` words. It stores no key — a tag match is
//!   confirmed against the slot by the caller — and holds the only probe
//!   loop of the crate.
//! * [`Stripe`] is the lock a table puts around each of its indexes, with
//!   the contention count (and, under telemetry, wait time) both report.
//!
//! Safety model (stated once here, relied on by the callers):
//!
//! * A slot is written at most once between publications — either when its
//!   index is freshly allocated (no other thread knows the index yet) or
//!   when a recycled slot is re-filled under the lock of the stripe whose
//!   stop-the-world sweep proved it unreachable.
//! * An index only *escapes* to other threads through a synchronizing
//!   structure (a stripe mutex, or a seq-lock-validated compute-cache entry
//!   whose final store is `Release`), so the slot write happens-before
//!   every cross-thread read of that slot.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};

/// log2 of the first segment's slot count.
const SEG0_BITS: u32 = 10;
/// Number of doubling segments: capacity `(2^NSEGS - 1) * 2^SEG0_BITS` =
/// `2^32 - 1024` slots. An index is a slot number, so one store spans the
/// `u32` index space but for its last 1024 values: [`SlotVec::ensure`]
/// refuses a fresh index before it can reach `u32::MAX`, the terminal's id.
const NSEGS: usize = 22;

/// One slot: node/value payload plus its stamp — an atomic mark/traversal
/// stamp for nodes, `()` (no bytes) for stores nothing ever marks.
struct Slot<T, S> {
    stamp: S,
    data: UnsafeCell<MaybeUninit<T>>,
}

type Segment<T, S> = Box<[Slot<T, S>]>;

/// Segmented, append-only slot store with lock-free reads.
pub(crate) struct SlotVec<T, S = AtomicU32> {
    segs: [OnceLock<Segment<T, S>>; NSEGS],
}

// SAFETY: cross-thread access to `data` follows the publication protocol in
// the module docs; `stamp` is an atomic or `()`, shared as `S: Sync`
// (`node::tests::concurrent_overlapping_inserts_across_regrows_get_one_id_per_content`).
unsafe impl<T: Send + Sync, S: Sync> Sync for SlotVec<T, S> {}
// SAFETY: a `SlotVec` owns its payloads and stamps, so moving it to another
// thread moves `T`s and `S`s (`write_then_read_round_trips`).
unsafe impl<T: Send, S: Send> Send for SlotVec<T, S> {}

/// Maps a global slot index to (segment, offset).
#[inline(always)]
fn locate(i: u32) -> (usize, usize) {
    let q = (i >> SEG0_BITS) + 1;
    let k = 31 - q.leading_zeros();
    let base = ((1u32 << k) - 1) << SEG0_BITS;
    (k as usize, (i - base) as usize)
}

#[inline(always)]
fn seg_len(k: usize) -> usize {
    1usize << (SEG0_BITS + k as u32)
}

impl<T, S> Default for SlotVec<T, S> {
    fn default() -> Self {
        SlotVec {
            segs: std::array::from_fn(|_| OnceLock::new()),
        }
    }
}

impl<T, S: Default> SlotVec<T, S> {
    /// Makes sure the segment holding slot `i` is allocated and returns the
    /// bytes this call reserved for it (`0` when the segment existed), so
    /// owners can keep a running byte count instead of walking the
    /// segments. Callable from any thread; racing allocators are serialized
    /// by the `OnceLock`, and exactly one of them is told the size.
    pub(crate) fn ensure(&self, i: u32) -> usize {
        let (k, _) = locate(i);
        assert!(k < NSEGS, "SlotVec capacity exhausted");
        let mut reserved = 0;
        self.segs[k].get_or_init(|| {
            reserved = seg_len(k) * std::mem::size_of::<Slot<T, S>>();
            (0..seg_len(k))
                .map(|_| Slot {
                    stamp: S::default(),
                    data: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect()
        });
        reserved
    }

    #[inline(always)]
    fn slot(&self, i: u32) -> &Slot<T, S> {
        let (k, off) = locate(i);
        let seg = self.segs[k].get().expect("slot segment not allocated");
        &seg[off]
    }

    /// Writes slot `i`.
    ///
    /// # Safety
    /// The caller must hold exclusive ownership of slot `i` (freshly
    /// reserved index, or recycled slot re-filled under the shard lock) and
    /// must have called [`Self::ensure`] for it.
    #[inline(always)]
    pub(crate) unsafe fn write(&self, i: u32, v: T) {
        (*self.slot(i).data.get()).write(v);
    }

    /// Reads slot `i`.
    ///
    /// # Safety
    /// Slot `i` must have been written, and that write must happen-before
    /// this read (the index was received through a synchronizing structure).
    /// The reference must not be held across a sweep that could recycle the
    /// slot — the same liveness contract node ids already carry.
    #[inline(always)]
    pub(crate) unsafe fn get(&self, i: u32) -> &T {
        (*self.slot(i).data.get()).assume_init_ref()
    }

    /// Bytes held by all currently allocated segments (what the `ensure`
    /// return values add up to).
    #[cfg(test)]
    pub(crate) fn allocated_bytes(&self) -> usize {
        (0..NSEGS)
            .filter(|&k| self.segs[k].get().is_some())
            .map(|k| seg_len(k) * std::mem::size_of::<Slot<T, S>>())
            .sum()
    }
}

impl<T> SlotVec<T> {
    /// The atomic mark/traversal stamp of slot `i` (must be allocated).
    #[inline(always)]
    pub(crate) fn stamp(&self, i: u32) -> &AtomicU32 {
        &self.slot(i).stamp
    }
}

/// Open-addressed, linearly probed index from a 64-bit hash to slot
/// indices: words of `hash tag << 32 | idx + 1`, `0` = empty, load at most
/// 3/4. The low hash bits pick the home word and the top 32 are the tag
/// (the tables pick the stripe by the top 4, [`stripe_of`], so the words of
/// one index differ in the other 28). The key is not stored, which is also why the
/// array is regrown (and swept) by asking the caller to re-hash what the
/// indices point at.
pub(crate) struct TagIndex {
    words: Box<[u64]>,
    len: usize,
}

impl TagIndex {
    /// An empty index of `words` words (a power of two).
    pub(crate) fn new(words: usize) -> Self {
        assert!(words.is_power_of_two());
        TagIndex {
            words: vec![0; words].into_boxed_slice(),
            len: 0,
        }
    }

    /// Indices held.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Words reserved (8 bytes each).
    pub(crate) fn words(&self) -> usize {
        self.words.len()
    }

    /// Walks the chain of hash `h` to the first word whose tag matches and
    /// whose index `confirm` accepts, or to the empty word ending the chain
    /// (one exists: the load stays below 1).
    #[inline(always)]
    fn probe(&self, h: u64, mut confirm: impl FnMut(u32) -> bool) -> usize {
        let mask = self.words.len() - 1;
        let mut i = h as usize & mask;
        loop {
            let word = self.words[i];
            if word == 0 || (word >> 32 == h >> 32 && confirm(word as u32 - 1)) {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// The index filed under hash `h` that `confirm` accepts.
    #[inline(always)]
    pub(crate) fn find(&self, h: u64, confirm: impl FnMut(u32) -> bool) -> Option<u32> {
        match self.words[self.probe(h, confirm)] {
            0 => None,
            word => Some(word as u32 - 1),
        }
    }

    /// Files `idx` under hash `h` (the caller found no match there),
    /// doubling the array first when the load would pass 3/4 — `rehash`
    /// gives the hash each held index was filed under. Returns the bytes
    /// the index grew by.
    #[inline]
    pub(crate) fn insert(&mut self, h: u64, idx: u32, rehash: impl FnMut(u32) -> u64) -> usize {
        let before = self.words.len();
        if (self.len + 1) * 4 > before * 3 {
            self.rebuild(before * 2, |_| true, rehash);
        }
        self.link(h, idx);
        (self.words.len() - before) * 8
    }

    fn link(&mut self, h: u64, idx: u32) {
        let i = self.probe(h, |_| false);
        self.words[i] = (h >> 32) << 32 | (idx as u64 + 1);
        self.len += 1;
    }

    /// Re-files into a fresh array of `words` words every held index that
    /// `keep` accepts, under the hash `rehash` gives for it. `words` must
    /// hold them at a load below 1.
    #[inline(never)]
    pub(crate) fn rebuild(
        &mut self,
        words: usize,
        mut keep: impl FnMut(u32) -> bool,
        mut rehash: impl FnMut(u32) -> u64,
    ) {
        let old = std::mem::replace(self, TagIndex::new(words));
        for &word in old.words.iter().filter(|&&w| w != 0) {
            let idx = word as u32 - 1;
            if keep(idx) {
                self.link(rehash(idx), idx);
            }
        }
    }
}

/// Lock stripes of an interning table.
pub(crate) const STRIPES: usize = 16;

/// The stripe a hash belongs to: its top 4 bits (see [`TagIndex`] for the
/// rest of the split).
#[inline(always)]
pub(crate) fn stripe_of(h: u64) -> usize {
    const _: () = assert!(STRIPES == 1 << 4);
    (h >> 60) as usize
}

/// Locks `m` without poisoning: a holder that panicked leaves the state as
/// it was at that point and later lockers proceed (as in `qarray::pool`).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`lock`] for an exclusive borrow (stop-the-world paths).
pub(crate) fn get_mut<T>(m: &mut Mutex<T>) -> &mut T {
    m.get_mut().unwrap_or_else(PoisonError::into_inner)
}

/// One lock stripe of an interning table: the state it guards and how often
/// a locker found it held. Like [`lock`], it does not poison.
pub(crate) struct Stripe<T> {
    state: Mutex<T>,
    contended: AtomicU64,
}

impl<T> Stripe<T> {
    pub(crate) fn new(state: T) -> Self {
        Stripe {
            state: Mutex::new(state),
            contended: AtomicU64::new(0),
        }
    }

    /// Locks the stripe. A wait is counted, and timed into `stall` when
    /// telemetry is on: the two clock reads stay off the uncontended path
    /// and cost one relaxed load on the already-blocking one.
    #[inline(always)]
    pub(crate) fn lock(&self, stall: &qtelemetry::Histogram) -> MutexGuard<'_, T> {
        match self.state.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => self.wait(stall),
        }
    }

    #[cold]
    fn wait(&self, stall: &qtelemetry::Histogram) -> MutexGuard<'_, T> {
        self.contended.fetch_add(1, Ordering::Relaxed);
        if !qtelemetry::enabled() {
            return lock(&self.state);
        }
        let t0 = std::time::Instant::now();
        let g = lock(&self.state);
        stall.observe(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        g
    }

    /// The guarded state through an exclusive borrow (stop-the-world paths).
    pub(crate) fn get_mut(&mut self) -> &mut T {
        get_mut(&mut self.state)
    }

    /// Times [`Self::lock`] had to wait.
    pub(crate) fn contended(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn locate_covers_segment_boundaries() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(1023), (0, 1023));
        assert_eq!(locate(1024), (1, 0));
        assert_eq!(locate(3071), (1, 2047));
        assert_eq!(locate(3072), (2, 0));
        assert_eq!(locate(7168), (3, 0));
        // The last segment ends 1024 short of the `u32` space, and `ensure`
        // refuses what lies beyond: no index ever equals `u32::MAX`.
        let last = NSEGS - 1;
        let first_of_last = ((1u32 << last) - 1) << SEG0_BITS;
        assert_eq!(locate(first_of_last - 1), (last - 1, seg_len(last - 1) - 1));
        assert_eq!(locate(first_of_last), (last, 0));
        assert_eq!(locate(u32::MAX - 1024), (last, seg_len(last) - 1));
        assert_eq!(locate(u32::MAX - 1023), (NSEGS, 0));
        assert_eq!(locate(u32::MAX).0, NSEGS);
        // Successive indices are dense within each segment.
        let mut prev = locate(0);
        for i in 1..100_000u32 {
            let cur = locate(i);
            if cur.0 == prev.0 {
                assert_eq!(cur.1, prev.1 + 1, "i={i}");
            } else {
                assert_eq!(cur.0, prev.0 + 1, "i={i}");
                assert_eq!(cur.1, 0, "i={i}");
            }
            prev = cur;
        }
    }

    #[test]
    fn write_then_read_round_trips() {
        let v: SlotVec<u64> = SlotVec::default();
        let mut reserved = 0;
        for i in 0..5000u32 {
            reserved += v.ensure(i);
            // SAFETY: slot `i` was just ensured and this thread owns `v`.
            unsafe { v.write(i, (i as u64) * 7 + 1) };
        }
        for i in 0..5000u32 {
            // SAFETY: every slot below 5000 was written above.
            assert_eq!(unsafe { *v.get(i) }, (i as u64) * 7 + 1);
        }
        assert_eq!(reserved, v.allocated_bytes());
        assert_eq!(reserved, (1024 + 2048 + 4096) * 16);
        // Without a stamp a slot is its payload.
        let bare: SlotVec<u64, ()> = SlotVec::default();
        assert_eq!(bare.ensure(0), 1024 * 8);
    }

    #[test]
    fn stamps_start_zero_and_are_atomic() {
        let v: SlotVec<u8> = SlotVec::default();
        v.ensure(42);
        assert_eq!(v.stamp(42).load(Ordering::Relaxed), 0);
        assert_eq!(v.stamp(42).swap(9, Ordering::Relaxed), 0);
        assert_eq!(v.stamp(42).load(Ordering::Relaxed), 9);
    }

    #[test]
    #[should_panic(expected = "capacity exhausted")]
    fn ensure_refuses_an_index_past_the_last_segment() {
        // Panics on the segment number, before anything is allocated.
        SlotVec::<u64>::default().ensure(u32::MAX - 1023);
    }

    /// Keys are `u32`s stored in a side vector (the "slab"); the hash keeps
    /// only 8 distinct tags and few home words, so chains are long and most
    /// tag matches are collisions `confirm` must turn down.
    fn weak_hash(key: u32) -> u64 {
        let h = crate::fxhash::hash_u64(key as u64);
        (h >> 61) << 61 | (h & 0x3ff)
    }

    #[test]
    fn tag_index_matches_a_hashmap_model() {
        use std::collections::HashMap;
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let mut index = TagIndex::new(8);
        let mut slab: Vec<u32> = Vec::new(); // idx -> key
        let mut model: HashMap<u32, u32> = HashMap::new(); // key -> idx
        let mut dropped: Vec<u32> = Vec::new();
        let (mut regrows, mut bytes) = (0, 8 * 8);
        for round in 0..40 {
            for _ in 0..100 {
                let key = draw(1 << 20) as u32;
                let (slab_ref, found) = (&slab, model.get(&key).copied());
                let got = index.find(weak_hash(key), |idx| slab_ref[idx as usize] == key);
                assert_eq!(got, found, "key {key}");
                if found.is_none() {
                    let idx = slab.len() as u32;
                    slab.push(key);
                    let slab_ref = &slab;
                    let grown =
                        index.insert(weak_hash(key), idx, |i| weak_hash(slab_ref[i as usize]));
                    regrows += (grown != 0) as usize;
                    bytes += grown;
                    model.insert(key, idx);
                }
                assert!(index.len() * 4 <= index.words() * 3, "load above 3/4");
            }
            if round % 8 == 7 {
                // A sweep: drop about a third, at the same size.
                let (words, slab_ref) = (index.words(), &slab);
                index.rebuild(
                    words,
                    |idx| {
                        let keep = slab_ref[idx as usize] % 3 != 0;
                        if !keep {
                            dropped.push(slab_ref[idx as usize]);
                        }
                        keep
                    },
                    |i| weak_hash(slab_ref[i as usize]),
                );
                assert_eq!(index.words(), words);
                model.retain(|key, _| key % 3 != 0);
            }
            assert_eq!(index.len(), model.len());
            assert_eq!(index.words() * 8, bytes);
            for (&key, &idx) in &model {
                let got = index.find(weak_hash(key), |i| slab[i as usize] == key);
                assert_eq!(got, Some(idx), "kept key {key} lost");
            }
            for &key in dropped.iter().filter(|k| !model.contains_key(k)) {
                let got = index.find(weak_hash(key), |i| slab[i as usize] == key);
                assert_eq!(got, None, "dropped key {key} still filed");
            }
        }
        assert!(regrows >= 3, "only {regrows} regrows");
        assert!(!dropped.is_empty());
    }

    #[test]
    fn stripe_counts_a_wait_only_when_the_lock_is_held() {
        let stripe = Stripe::new(0u32);
        let stall = qtelemetry::Histogram::new();
        *stripe.lock(&stall) += 1;
        assert_eq!(stripe.contended(), 0);
        let held = stripe.lock(&stall);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| *stripe.lock(&stall) += 1);
            while stripe.contended() == 0 {
                std::thread::yield_now();
            }
            drop(held);
            waiter.join().unwrap();
        });
        assert_eq!(stripe.contended(), 1);
        let mut stripe = stripe;
        assert_eq!(*stripe.get_mut(), 2);
    }

    #[test]
    fn a_panic_under_the_guard_leaves_the_stripe_usable() {
        let mut stripe = Stripe::new(7u32);
        let stall = qtelemetry::Histogram::new();
        let dies = || {
            *stripe.lock(&stall) += 1;
            let _held = stripe.lock(&stall);
            panic!("dies holding the stripe");
        };
        assert!(std::thread::scope(|s| s.spawn(dies).join()).is_err());
        // The free path (`try_lock`) and the waiting one both see the state
        // the dead thread left, not a poisoned-lock panic.
        let held = stripe.lock(&stall);
        assert_eq!(*held, 8);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| *stripe.lock(&stall) += 1);
            while stripe.contended() == 0 {
                std::thread::yield_now();
            }
            drop(held);
            waiter.join().unwrap();
        });
        assert_eq!(*stripe.get_mut(), 9);
    }
}
