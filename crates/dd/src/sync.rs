//! Shared-memory building blocks for the DD package: the one storage layer
//! under both interning tables, the unique table of
//! [`crate::node::NodeArena`] and [`crate::ctable::ComplexTable`]. A
//! package has one writer, but stays `Sync`: the conversion reads it from
//! pool workers.
//!
//! * [`SlotVec`] is a segmented, append-only slot store: segments are
//!   allocated on demand (doubling in size) and *never* moved or freed while
//!   the structure is alive, so readers can dereference slots without taking
//!   any lock while a writer appends behind the table's lock. This is what
//!   lets both tables hand out stable, dense `u32` indices whose contents
//!   are readable from any thread.
//! * [`TagIndex`] is the index over such a store: an open-addressed array of
//!   `hash tag << 32 | idx + 1` words. It stores no key — a tag match is
//!   confirmed against the slot by the caller — and holds the only probe
//!   loop of the crate. [`FreeListIndex`] pairs it with the free list of
//!   the slots a sweep released, and is what each table's one lock guards.
//!
//! Safety model (stated once here, relied on by the callers):
//!
//! * A slot is written at most once between publications — either when its
//!   index is freshly allocated (no other thread knows the index yet) or
//!   when a recycled slot is re-filled under the table's lock, after a
//!   stop-the-world sweep proved it unreachable.
//! * An index only *escapes* to other threads through a synchronizing
//!   structure (the table's mutex, or a seq-lock-validated compute-cache
//!   entry whose final store is `Release`), so the slot write
//!   happens-before every cross-thread read of that slot.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

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
    /// reserved index, or recycled slot re-filled under the table's lock) and
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
/// 3/4. The low hash bits pick the home word and the top 32 are the tag.
/// The key is not stored, which is also why the array is regrown (and
/// swept) by asking the caller to re-hash what the indices point at.
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

/// The lock-protected part of an interning table: its [`TagIndex`] and the
/// slots its sweeps freed. A freed slot is handed out again only by
/// [`Self::take_slot`] under the table's lock, which is what keeps
/// [`SlotVec`]'s one-writer rule for recycled slots.
pub(crate) struct FreeListIndex {
    pub(crate) index: TagIndex,
    free: Vec<u32>,
}

impl FreeListIndex {
    /// An empty index of `words` words (a power of two), nothing freed.
    pub(crate) fn new(words: usize) -> Self {
        FreeListIndex {
            index: TagIndex::new(words),
            free: Vec::new(),
        }
    }

    /// A slot of `slots` for a new entry: one a sweep freed, else the next
    /// fresh one of `next`, whose segment is made sure of.
    /// Returns the slot and the bytes `slots` grew by.
    #[inline(always)]
    pub(crate) fn take_slot<T, S: Default>(
        &mut self,
        next: &AtomicU32,
        slots: &SlotVec<T, S>,
    ) -> (u32, usize) {
        match self.free.pop() {
            Some(i) => (i, 0),
            None => {
                let i = next.fetch_add(1, Ordering::Relaxed);
                // Refuses the index (capacity assert) before `u32::MAX`.
                (i, slots.ensure(i))
            }
        }
    }

    /// Rebuilds the index at its size with the indices `keep` accepts (under
    /// the hash `rehash` gives each) and frees the rest onto the free list.
    /// Returns how many were freed and the bytes the free list grew by.
    pub(crate) fn sweep(
        &mut self,
        mut keep: impl FnMut(u32) -> bool,
        rehash: impl FnMut(u32) -> u64,
    ) -> (usize, usize) {
        let FreeListIndex { index, free } = self;
        let (held, free_cap) = (index.len(), free.capacity());
        // An index of the same size: a sweep releases nothing.
        index.rebuild(
            index.words(),
            |i| {
                let kept = keep(i);
                if !kept {
                    free.push(i);
                }
                kept
            },
            rehash,
        );
        (held - index.len(), (free.capacity() - free_cap) * 4)
    }

    /// Bytes held by the index and the free list.
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> usize {
        self.index.words() * 8 + self.free.capacity() * 4
    }
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
    fn a_panic_under_the_guard_leaves_the_lock_usable() {
        let mut m = Mutex::new(7u32);
        let dies = || {
            *lock(&m) += 1;
            let _held = lock(&m);
            panic!("dies holding the lock");
        };
        assert!(std::thread::scope(|s| s.spawn(dies).join()).is_err());
        // Later lockers, shared and exclusive, see the state the dead
        // thread left, not a poisoned-lock panic.
        *lock(&m) += 1;
        assert_eq!(*get_mut(&mut m), 9);
    }
}
