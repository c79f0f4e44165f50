//! DD nodes, edges, and the unique-table arena.
//!
//! Vector nodes have two outgoing edges, matrix nodes four (row-major).
//! Nodes live in one `Vec` per arena whose position is the node's `u32`
//! id; a unique table maps node *content* (level + edges) to its id, so
//! structurally identical sub-DDs are shared — the defining property of a
//! decision diagram.
//!
//! The unique table is one tag index (`crate::index::TagIndex`, the
//! structure the complex table files values in) and a free list. An arena
//! has one owner: reads, inserts and marks take `&self` through
//! `RefCell`s and `Cell`s, which make it `Send` and not `Sync`, and the
//! sweep takes `&mut self`. The conversion's workers read the nodes
//! through a borrowed slice ([`crate::package::VectorView`]).

use crate::ctable::CIdx;
use crate::fxhash::{hash_u64, FxHasher};
use crate::index::FreeListIndex;
use qcircuit::Complex64;
use std::cell::{Cell, RefCell};
use std::hash::{Hash, Hasher};

/// Sentinel node id of the terminal node ("1" in Figure 2 of the paper).
pub const TERM: u32 = u32::MAX;

/// Index words of a fresh unique table (power of two). 1024 measured no
/// worse in peak RSS than 64 (EXPERIMENTS.md, "One writer").
const INITIAL_WORDS: usize = 1024;

/// A weighted edge to a vector node (or the terminal).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct VEdge {
    /// Target node id (`TERM` for the terminal).
    pub n: u32,
    /// Interned edge weight.
    pub w: CIdx,
}

/// A weighted edge to a matrix node (or the terminal).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MEdge {
    /// Target node id (`TERM` for the terminal).
    pub n: u32,
    /// Interned edge weight.
    pub w: CIdx,
}

macro_rules! edge_impl {
    ($t:ident) => {
        impl $t {
            /// The canonical zero edge (terminal with weight 0).
            pub const ZERO: $t = $t {
                n: TERM,
                w: CIdx::ZERO,
            };

            /// Terminal edge with the given weight.
            #[inline(always)]
            pub fn terminal(w: CIdx) -> $t {
                $t { n: TERM, w }
            }

            /// True for the canonical zero edge.
            #[inline(always)]
            pub fn is_zero(self) -> bool {
                self.w.is_zero()
            }

            /// True when pointing at the terminal node.
            #[inline(always)]
            pub fn is_terminal(self) -> bool {
                self.n == TERM
            }

            /// Same target with a different weight.
            #[inline(always)]
            pub fn with_weight(self, w: CIdx) -> $t {
                $t { n: self.n, w }
            }
        }
    };
}
edge_impl!(VEdge);
edge_impl!(MEdge);

/// An edge as the arithmetic carries it: the target node id (vector or
/// matrix, by context) and the weight *itself*, not an interned index.
/// Products, sums and ratios of such weights are plain `f64` arithmetic;
/// a weight is interned only where a node stores it (`make_vnode` /
/// `make_mnode`) or where a public function hands a [`VEdge`] / [`MEdge`]
/// back. The zero edge is exactly [`Lazy::ZERO`]: every constructor flushes
/// a weight within the table's tolerance of zero to it.
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) struct Lazy {
    pub(crate) n: u32,
    pub(crate) w: Complex64,
}

impl Lazy {
    pub(crate) const ZERO: Lazy = Lazy {
        n: TERM,
        w: Complex64::ZERO,
    };

    #[inline(always)]
    pub(crate) fn is_zero(self) -> bool {
        self.w.is_zero()
    }
}

/// Content of a vector node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct VNode {
    /// Qubit level (0 = least significant).
    pub level: u8,
    /// Outgoing edges: `e[b]` is the sub-vector where the level bit is `b`.
    pub e: [VEdge; 2],
}

/// Content of a matrix node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MNode {
    /// Qubit level (0 = least significant).
    pub level: u8,
    /// Outgoing edges, row-major: `e[2*i + j]` is sub-matrix block (i, j).
    pub e: [MEdge; 4],
}

/// What the arena and the package's sweep need of a node's content beyond
/// identity: where its edges lead and which weights it stores.
pub trait Node: Copy + Eq + Hash {
    /// Ids of the nodes the edges point at ([`TERM`] included: a zero edge
    /// is the terminal's, every constructor flushes it there).
    fn children(&self) -> impl Iterator<Item = u32>;
    /// The interned weights of the edges.
    fn weights(&self) -> impl Iterator<Item = CIdx>;
}

macro_rules! node_impl {
    ($t:ident) => {
        impl Node for $t {
            #[inline(always)]
            fn children(&self) -> impl Iterator<Item = u32> {
                self.e.iter().map(|e| e.n)
            }

            #[inline(always)]
            fn weights(&self) -> impl Iterator<Item = CIdx> {
                self.e.iter().map(|e| e.w)
            }
        }
    };
}
node_impl!(VNode);
node_impl!(MNode);

/// One node slot: the content and the stamp of the last mark walk that
/// reached it (0: none yet).
#[derive(Clone, Copy)]
pub(crate) struct Slot<T> {
    pub(crate) node: T,
    stamp: u32,
}

/// Slab arena with structural sharing (unique table) and mark/sweep
/// support: one slot store whose index *is* the node id, and an index from
/// content to id. Inserts, reads and marks take `&self`; the sweep takes
/// `&mut self`.
pub struct NodeArena<T: Node> {
    slots: RefCell<Vec<Slot<T>>>,
    /// Hash of node content -> id, and the ids the sweeps freed.
    index: RefCell<FreeListIndex>,
    /// The mark walk's stack, kept between calls: the per-gate size probe
    /// (`DdPackage::vector_dd_size`) allocates nothing once it is warm.
    stack: Cell<Vec<u32>>,
    alive: Cell<usize>,
    peak_alive: Cell<usize>,
    /// Bytes reserved by the slab, the index and the free list, updated
    /// where any of them grows so that [`Self::memory_bytes`] is one load.
    bytes: Cell<usize>,
}

impl<T: Node> Default for NodeArena<T> {
    fn default() -> Self {
        NodeArena {
            slots: RefCell::default(),
            index: RefCell::new(FreeListIndex::new(INITIAL_WORDS)),
            stack: Cell::default(),
            alive: Cell::new(0),
            peak_alive: Cell::new(0),
            bytes: Cell::new(INITIAL_WORDS * 8),
        }
    }
}

/// Hash of node content, computed once per lookup: the top 32 bits are the
/// index tag, the low bits the home word (the split `ctable` makes of a
/// cell hash).
#[inline(always)]
fn node_hash<T: Hash>(data: &T) -> u64 {
    let mut h = FxHasher::default();
    data.hash(&mut h);
    hash_u64(h.finish())
}

impl<T: Node> NodeArena<T> {
    /// Returns the id of a node with this content, inserting if new.
    #[inline]
    pub fn get_or_insert(&self, data: T) -> u32 {
        let h = node_hash(&data);
        let mut core = self.index.borrow_mut();
        if let Some(id) = core.index.find(h, |id| self.get(id) == data) {
            return id;
        }
        // Fresh ids stop short of `TERM` (`FreeListIndex::store`).
        let (id, mut grown) = core.store(
            &mut self.slots.borrow_mut(),
            Slot {
                node: data,
                stamp: 0,
            },
        );
        grown += core.index.insert(h, id, |i| node_hash(&self.get(i)));
        if grown != 0 {
            self.bytes.set(self.bytes.get() + grown);
        }
        let alive = self.alive.get() + 1;
        self.alive.set(alive);
        self.peak_alive.set(self.peak_alive.get().max(alive));
        id
    }

    /// Content of a node.
    #[inline(always)]
    pub fn get(&self, id: u32) -> T {
        debug_assert_ne!(id, TERM, "terminal has no content");
        self.slots.borrow()[id as usize].node
    }

    /// The slot store, borrowed for a read-only view.
    pub(crate) fn slots(&self) -> std::cell::Ref<'_, Vec<Slot<T>>> {
        self.slots.borrow()
    }

    /// Number of live (reachable-or-not-yet-collected) nodes.
    pub fn len(&self) -> usize {
        self.alive.get()
    }

    /// True when no nodes are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// High-water mark of live nodes.
    pub fn peak(&self) -> usize {
        self.peak_alive.get()
    }

    /// Marks every node reachable from `roots` with `stamp` and returns how
    /// many this call marked (nodes already carrying `stamp` are neither
    /// counted nor walked again).
    pub fn mark_reachable(&self, roots: impl IntoIterator<Item = u32>, stamp: u32) -> usize {
        let mut slots = self.slots.borrow_mut();
        let mut stack = self.stack.take();
        let mut marked = 0;
        for root in roots {
            stack.push(root);
            while let Some(id) = stack.pop() {
                if id == TERM {
                    continue;
                }
                let slot = &mut slots[id as usize];
                if std::mem::replace(&mut slot.stamp, stamp) != stamp {
                    marked += 1;
                    stack.extend(slot.node.children());
                }
            }
        }
        self.stack.set(stack);
        marked
    }

    /// Frees every node *not* carrying `stamp` and hands each kept one to
    /// `kept`. Returns the number freed.
    ///
    /// The caller must have marked all roots (and their transitive
    /// children) with `stamp` first.
    pub fn sweep(&mut self, stamp: u32, mut kept: impl FnMut(&T)) -> usize {
        let slots = self.slots.get_mut();
        let (freed, grown) = self.index.get_mut().sweep(
            |id| {
                let slot = &slots[id as usize];
                let keep = slot.stamp == stamp;
                if keep {
                    kept(&slot.node);
                }
                keep
            },
            |id| node_hash(&slots[id as usize].node),
        );
        *self.bytes.get_mut() += grown;
        *self.alive.get_mut() -= freed;
        freed
    }

    /// Bytes reserved by the slab, the index and the free list. One load:
    /// the counter moves where any of them grows.
    pub fn memory_bytes(&self) -> usize {
        self.bytes.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T: Node> NodeArena<T> {
        /// [`Self::memory_bytes`] recounted from the structures themselves.
        pub(crate) fn recount_bytes(&self) -> usize {
            self.slots.borrow().capacity() * std::mem::size_of::<Slot<T>>()
                + self.index.borrow().bytes()
        }

        /// The ids the sweeps freed that no node has taken again.
        pub(crate) fn free_ids(&self) -> Vec<u32> {
            self.index.borrow().free().to_vec()
        }

        /// The id the unique table files `data` under, if any.
        pub(crate) fn find(&self, data: T) -> Option<u32> {
            let core = self.index.borrow();
            core.index.find(node_hash(&data), |id| self.get(id) == data)
        }
    }

    fn vnode(level: u8, a: u32, b: u32) -> VNode {
        VNode {
            level,
            e: [
                VEdge { n: a, w: CIdx::ONE },
                VEdge {
                    n: b,
                    w: CIdx::ZERO,
                },
            ],
        }
    }

    #[test]
    fn zero_edge_is_terminal_zero() {
        assert!(VEdge::ZERO.is_zero());
        assert!(VEdge::ZERO.is_terminal());
        assert!(MEdge::ZERO.is_zero());
        assert!(!VEdge::terminal(CIdx::ONE).is_zero());
    }

    #[test]
    fn unique_table_shares_identical_nodes() {
        let a: NodeArena<VNode> = NodeArena::default();
        let x = a.get_or_insert(vnode(0, TERM, TERM));
        let y = a.get_or_insert(vnode(0, TERM, TERM));
        assert_eq!(x, y);
        assert_eq!(a.len(), 1);
        let z = a.get_or_insert(vnode(1, x, TERM));
        assert_ne!(x, z);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn ids_never_collide_with_terminal() {
        let a: NodeArena<VNode> = NodeArena::default();
        for l in 0..64u8 {
            let id = a.get_or_insert(vnode(l, TERM, TERM));
            assert_ne!(id, TERM);
            assert_eq!(a.get(id), vnode(l, TERM, TERM));
        }
    }

    #[test]
    fn mark_and_sweep_frees_unreachable() {
        let mut a: NodeArena<VNode> = NodeArena::default();
        let keep = a.get_or_insert(vnode(0, TERM, TERM));
        let _dead = a.get_or_insert(vnode(1, TERM, TERM));
        assert_eq!(a.len(), 2);
        let stamp = 7;
        assert_eq!(a.mark_reachable([keep], stamp), 1);
        assert_eq!(a.mark_reachable([keep], stamp), 0, "already marked");
        let freed = a.sweep(stamp, |_| {});
        assert_eq!(freed, 1);
        assert_eq!(a.len(), 1);
        assert_eq!(a.peak(), 2);
    }

    #[test]
    fn ids_are_slot_indices_in_allocation_order() {
        let a: NodeArena<VNode> = NodeArena::default();
        // Far past the index's first regrows (768 entries, then 1536, ...).
        for i in 0..5000u32 {
            assert_eq!(a.get_or_insert(vnode((i % 7) as u8, i, TERM)), i);
        }
        for i in 0..5000u32 {
            assert_eq!(a.get_or_insert(vnode((i % 7) as u8, i, TERM)), i, "hit");
            assert_eq!(a.get(i), vnode((i % 7) as u8, i, TERM));
        }
        assert_eq!(a.len(), 5000);
    }

    #[test]
    fn sweep_then_reinsert_recycles_the_slot() {
        let mut a: NodeArena<VNode> = NodeArena::default();
        let x = a.get_or_insert(vnode(0, TERM, TERM));
        assert_eq!(a.sweep(99, |_| {}), 1, "nothing marked: frees x");
        assert_eq!(a.len(), 0);
        // The free list holds the slot: a recycled id and a fresh index
        // entry, no second slot.
        let y = a.get_or_insert(vnode(0, TERM, TERM));
        assert_eq!(x, y, "slot must be reused");
        assert_eq!(a.len(), 1);
        assert_eq!(a.get_or_insert(vnode(1, TERM, TERM)), 1, "next fresh id");
    }

    #[test]
    fn mark_reachable_counts_each_node_once() {
        let a: NodeArena<VNode> = NodeArena::default();
        let leaf = a.get_or_insert(vnode(0, TERM, TERM));
        let mid = a.get_or_insert(vnode(1, leaf, leaf));
        let top = a.get_or_insert(vnode(2, mid, leaf));
        let other = a.get_or_insert(vnode(2, leaf, TERM));
        assert_eq!(a.mark_reachable([top, TERM], 3), 3);
        assert_eq!(a.mark_reachable([top], 3), 0, "already carrying the stamp");
        assert_eq!(a.mark_reachable([other, mid], 3), 1);
        assert_eq!(a.mark_reachable([top, other], 4), 4);
        assert_eq!(a.mark_reachable([TERM], 5), 0);
    }

    #[test]
    fn accounted_bytes_survive_grow_sweep_and_regrow() {
        let mut a: NodeArena<MNode> = NodeArena::default();
        let mnode = |i: u32| MNode {
            level: (i % 5) as u8,
            e: [
                MEdge { n: i, w: CIdx::ONE },
                MEdge::ZERO,
                MEdge::ZERO,
                MEdge::ZERO,
            ],
        };
        assert_eq!(a.memory_bytes(), a.recount_bytes(), "fresh");
        let ids: Vec<u32> = (0..20_000).map(|i| a.get_or_insert(mnode(i))).collect();
        assert_eq!(a.memory_bytes(), a.recount_bytes(), "grown");
        // Keep every third node: the free lists grow, the indexes do not.
        let grown = a.memory_bytes();
        let kept = a.mark_reachable(ids.iter().copied().step_by(3), 1);
        assert_eq!(a.sweep(1, |_| {}), 20_000 - kept);
        assert_eq!(a.memory_bytes(), a.recount_bytes(), "swept");
        assert!(a.memory_bytes() > grown, "a sweep releases nothing");
        for &id in ids.iter().step_by(3) {
            assert_eq!(a.get_or_insert(mnode(id)), id, "a kept node stays findable");
        }
        // Through the recycled slots and on into new segments and regrows.
        for i in 20_000..60_000 {
            a.get_or_insert(mnode(i));
        }
        assert_eq!(a.len(), kept + 40_000);
        assert_eq!(a.memory_bytes(), a.recount_bytes(), "regrown");
    }

    #[test]
    fn overlapping_inserts_across_regrows_get_one_id_per_content() {
        // 8 passes, each over 3/4 of 24 000 distinct contents in its own
        // order: the index regrows several times during the first passes,
        // and every content is inserted by 6 of them.
        const N: u32 = 24_000;
        let a: NodeArena<VNode> = NodeArena::default();
        let content = |i: u32| vnode((i % 11) as u8, i, i / 3);
        let mut id_of = vec![TERM; N as usize];
        for t in 0..8u32 {
            for i in (0..N)
                .map(|k| (k * 7 + t * 3001) % N)
                .filter(|i| i % 8 != t && i % 8 != (t + 1) % 8)
            {
                let id = a.get_or_insert(content(i));
                assert!(id < N, "ids are dense");
                assert_eq!(a.get(id), content(i));
                let seen = std::mem::replace(&mut id_of[i as usize], id);
                assert!(
                    seen == TERM || seen == id,
                    "content {i} got ids {seen} and {id}"
                );
            }
        }
        assert!(
            id_of.iter().all(|&id| id != TERM),
            "every content was inserted"
        );
        let mut ids = id_of.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), N as usize, "one id per content");
        assert_eq!(a.len(), N as usize);
        assert_eq!(a.memory_bytes(), a.recount_bytes());
    }
}
