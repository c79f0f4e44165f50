//! Shared-memory building blocks for the concurrent DD package.
//!
//! [`SlotVec`] is a segmented, append-only slot store: segments are
//! allocated on demand (doubling in size) and *never* moved or freed while
//! the structure is alive, so readers can dereference slots without taking
//! any lock while writers append behind a shard lock. This is what lets the
//! sharded unique tables ([`crate::node::NodeArena`]) and the complex table
//! ([`crate::ctable::ComplexTable`]) hand out stable `u32` indices whose
//! contents are readable from any thread.
//!
//! Safety model (stated once here, relied on by the callers):
//!
//! * A slot is written at most once between publications — either when its
//!   index is freshly allocated (no other thread knows the index yet) or
//!   when a recycled slot is re-filled under the owning shard's lock after
//!   a stop-the-world sweep proved it unreachable.
//! * An index only *escapes* to other threads through a synchronizing
//!   structure (a shard mutex, or a seq-lock-validated compute-cache entry
//!   whose final store is `Release`), so the slot write happens-before
//!   every cross-thread read of that slot.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::AtomicU32;
use std::sync::OnceLock;

/// log2 of the first segment's slot count.
const SEG0_BITS: u32 = 10;
/// Number of doubling segments: capacity `(2^NSEGS - 1) * 2^SEG0_BITS`
/// (~5.4e8 slots), comfortably above the `u32 >> 4` local-index space.
const NSEGS: usize = 19;

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
// the module docs; `stamp` is an atomic or `()`, shared as `S: Sync`.
unsafe impl<T: Send + Sync, S: Sync> Sync for SlotVec<T, S> {}
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
            unsafe { v.write(i, (i as u64) * 7 + 1) };
        }
        for i in 0..5000u32 {
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
}
