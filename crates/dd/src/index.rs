//! The index under both interning tables, the unique table of
//! [`crate::node::NodeArena`] and [`crate::ctable::ComplexTable`]: each
//! keeps its entries in a `Vec` whose position *is* the entry's `u32` id
//! (a node id, a [`crate::CIdx`]), and finds them through this module.
//!
//! * [`TagIndex`] is an open-addressed array of `hash tag << 32 | idx + 1`
//!   words. It stores no key — a tag match is confirmed against the store
//!   by the caller — and holds the only probe loop of the crate.
//! * [`FreeListIndex`] pairs it with the free list of the slots a sweep
//!   released, and hands out the slot a new entry goes into.

use crate::node::TERM;

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

/// An interning table's index and the slots its sweeps freed: a new entry
/// takes a freed slot first, and only then a fresh one at the end of the
/// store.
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

    /// Stores `v` in `slots`: in a slot a sweep freed, else in a fresh one
    /// pushed at the end. Returns the slot and the bytes `slots` grew by.
    #[inline(always)]
    pub(crate) fn store<T>(&mut self, slots: &mut Vec<T>, v: T) -> (u32, usize) {
        if let Some(i) = self.free.pop() {
            slots[i as usize] = v;
            return (i, 0);
        }
        let (i, cap) = (fresh_id(slots.len()), slots.capacity());
        slots.push(v);
        (i, (slots.capacity() - cap) * std::mem::size_of::<T>())
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
}

/// Slots one store holds at most: an id is a slot number, and the last
/// 1024 values of the `u32` space stay unused, [`TERM`] among them.
const CAPACITY: usize = TERM as usize - 1023;

/// The id of a fresh slot pushed onto a store of `len` slots.
///
/// # Panics
/// When the store is full: no id ever reaches [`TERM`].
#[inline(always)]
fn fresh_id(len: usize) -> u32 {
    assert!(len < CAPACITY, "slot store capacity exhausted");
    len as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FreeListIndex {
        /// The slots the sweeps freed that no entry has taken again.
        pub(crate) fn free(&self) -> &[u32] {
            &self.free
        }

        /// Bytes held by the index and the free list.
        pub(crate) fn bytes(&self) -> usize {
            self.index.words() * 8 + self.free.capacity() * 4
        }
    }

    #[test]
    #[should_panic(expected = "capacity exhausted")]
    fn a_fresh_id_stops_short_of_the_terminal() {
        // The last id a store hands out is `TERM - 1024`.
        assert_eq!(fresh_id(CAPACITY - 1), TERM - 1024);
        fresh_id(CAPACITY);
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
}
