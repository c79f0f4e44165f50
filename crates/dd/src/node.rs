//! DD nodes, edges, and the unique-table arena.
//!
//! Vector nodes have two outgoing edges, matrix nodes four (row-major).
//! Nodes live in one slab per arena whose slot index is the node's `u32`
//! id; a unique table maps node *content* (level + edges) to its id, so
//! structurally identical sub-DDs are shared — the defining property of a
//! decision diagram.
//!
//! The unique table is striped for shared-memory parallelism: node content
//! hashes to one of [`NODE_SHARDS`] locks, each over its own tag index
//! (`crate::sync::TagIndex`, the structure the complex table files values
//! in) and free list. `get` reads the slab without any lock; only inserts
//! take the (per-stripe) lock. Mark stamps are atomic, letting concurrent
//! traversals mark while other threads insert; the sweep itself is
//! stop-the-world (`&mut self`).

use crate::ctable::CIdx;
use crate::fxhash::{hash_u64, FxHasher};
use crate::sync::{stripe_of, SlotVec, Stripe, TagIndex, STRIPES};
use qcircuit::Complex64;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

/// Sentinel node id of the terminal node ("1" in Figure 2 of the paper).
pub const TERM: u32 = u32::MAX;

/// Number of lock stripes of a [`NodeArena`]'s unique table (power of two).
///
/// 16 stripes keep the insert-lock collision probability below ~`t/16` for
/// `t` worker threads while the per-stripe constant overhead (a mutex, an
/// index of 64 words to start with) stays negligible next to the nodes
/// themselves.
pub const NODE_SHARDS: usize = STRIPES;
/// Index words of a fresh stripe (power of two).
const INITIAL_WORDS: usize = 64;

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

/// What the arena needs of a node's content beyond identity: where its
/// edges lead.
pub trait Node: Copy + Eq + Hash {
    /// Ids of the nodes the edges point at ([`TERM`] included: a zero edge
    /// is the terminal's, every constructor flushes it there).
    fn children(&self) -> impl Iterator<Item = u32>;
}

impl Node for VNode {
    #[inline(always)]
    fn children(&self) -> impl Iterator<Item = u32> {
        self.e.iter().map(|e| e.n)
    }
}

impl Node for MNode {
    #[inline(always)]
    fn children(&self) -> impl Iterator<Item = u32> {
        self.e.iter().map(|e| e.n)
    }
}

/// Lock-protected part of one stripe.
struct StripeCore {
    /// Hash of node content -> id, for the content hashing to this stripe.
    index: TagIndex,
    /// Ids this stripe's sweeps freed. A recycled slot is re-written only
    /// under the lock of the stripe that freed it ([`SlotVec`]'s one-writer
    /// rule), which is why the free lists are per stripe.
    free: Vec<u32>,
}

/// Per-stripe occupancy/contention snapshot (telemetry).
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardStats {
    /// Live nodes filed in the stripe.
    pub live: usize,
    /// Lock-contention events observed on insert.
    pub contended: u64,
}

/// Slab arena with structural sharing (unique table) and mark/sweep
/// support: one slot store whose index *is* the node id, and an index from
/// content to id striped [`NODE_SHARDS`] ways by content hash. Inserts,
/// reads, and marks take `&self` and are safe to call from many threads;
/// the sweep is stop-the-world.
pub struct NodeArena<T: Node> {
    slots: SlotVec<T>,
    /// Slots allocated so far (the next fresh id).
    next: AtomicU32,
    stripes: Vec<Stripe<StripeCore>>,
    alive: AtomicUsize,
    peak_alive: AtomicUsize,
    /// Bytes reserved by the slab, the indexes and the free lists, updated
    /// where any of them grows so that [`Self::memory_bytes`] is one load.
    bytes: AtomicUsize,
    /// Cached handle into the global `dd.unique_stall_ns` histogram, so the
    /// contended path records its wait without a registry lookup.
    stall: qtelemetry::Histogram,
}

impl<T: Node> Default for NodeArena<T> {
    fn default() -> Self {
        let core = || StripeCore {
            index: TagIndex::new(INITIAL_WORDS),
            free: Vec::new(),
        };
        NodeArena {
            slots: SlotVec::default(),
            next: AtomicU32::new(0),
            stripes: (0..NODE_SHARDS).map(|_| Stripe::new(core())).collect(),
            alive: AtomicUsize::new(0),
            peak_alive: AtomicUsize::new(0),
            bytes: AtomicUsize::new(NODE_SHARDS * INITIAL_WORDS * 8),
            stall: qtelemetry::histogram("dd.unique_stall_ns"),
        }
    }
}

/// Hash of node content, computed once per lookup: the top 4 bits pick the
/// stripe, the top 32 are the index tag, the low bits the home word (the
/// split `ctable` makes of a cell hash).
#[inline(always)]
fn node_hash<T: Hash>(data: &T) -> u64 {
    let mut h = FxHasher::default();
    data.hash(&mut h);
    hash_u64(h.finish())
}

impl<T: Node> NodeArena<T> {
    /// Returns the id of a node with this content, inserting if new.
    /// Concurrent callers inserting equal content all receive the same id.
    #[inline]
    pub fn get_or_insert(&self, data: T) -> u32 {
        let h = node_hash(&data);
        let mut core = self.stripes[stripe_of(h)].lock(&self.stall);
        // SAFETY: `stored` only reads ids filed in this stripe's index (and
        // `id` below, written before it is filed), and an id is written
        // before it is filed, under the stripe lock we hold
        // (`concurrent_overlapping_inserts_across_regrows_get_one_id_per_content`).
        let stored = |id: u32| unsafe { self.slots.get(id) };
        if let Some(id) = core.index.find(h, |id| stored(id) == &data) {
            return id;
        }
        let mut grown = 0;
        let id = core.free.pop().unwrap_or_else(|| {
            let id = self.next.fetch_add(1, Ordering::Relaxed);
            // Refuses the id (capacity assert) before it can reach `TERM`.
            grown = self.slots.ensure(id);
            id
        });
        // SAFETY: `id` is either freshly allocated (unknown to every other
        // thread) or was proven unreachable by the last sweep of this
        // stripe; we hold the stripe lock, which is also what publishes it.
        unsafe { self.slots.write(id, data) };
        grown += core.index.insert(h, id, |i| node_hash(stored(i)));
        if grown != 0 {
            self.bytes.fetch_add(grown, Ordering::Relaxed);
        }
        let alive = self.alive.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_alive.fetch_max(alive, Ordering::Relaxed);
        id
    }

    /// Content of a node. Lock-free.
    #[inline(always)]
    pub fn get(&self, id: u32) -> &T {
        debug_assert_ne!(id, TERM, "terminal has no content");
        // SAFETY: a valid id was published after its slot write (stripe
        // lock / cache-entry release); liveness is the caller's contract.
        unsafe { self.slots.get(id) }
    }

    /// Number of live (reachable-or-not-yet-collected) nodes.
    pub fn len(&self) -> usize {
        self.alive.load(Ordering::Relaxed)
    }

    /// True when no nodes are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// High-water mark of live nodes.
    pub fn peak(&self) -> usize {
        self.peak_alive.load(Ordering::Relaxed)
    }

    /// Marks `id` with `stamp`; returns `true` when it was not yet marked
    /// (i.e. the caller should recurse into its children). Safe to call
    /// concurrently — exactly one of the racing markers gets `true`.
    #[inline(always)]
    fn mark(&self, id: u32, stamp: u32) -> bool {
        id != TERM && self.slots.stamp(id).swap(stamp, Ordering::Relaxed) != stamp
    }

    /// Marks every node reachable from `roots` with `stamp` and returns how
    /// many this call marked (nodes already carrying `stamp` are neither
    /// counted nor walked again).
    pub fn mark_reachable(&self, roots: impl IntoIterator<Item = u32>, stamp: u32) -> usize {
        let mut stack: Vec<u32> = roots.into_iter().collect();
        let mut marked = 0;
        while let Some(id) = stack.pop() {
            if self.mark(id, stamp) {
                marked += 1;
                stack.extend(self.get(id).children());
            }
        }
        marked
    }

    /// Frees every node *not* carrying `stamp`. Returns the number freed.
    ///
    /// Stop-the-world: requires `&mut self`, so no concurrent readers or
    /// inserters can exist. The caller must have marked all roots (and
    /// their transitive children) with `stamp` first.
    pub fn sweep(&mut self, stamp: u32) -> usize {
        let slots = &self.slots;
        let (mut freed, mut grown) = (0, 0);
        for stripe in &mut self.stripes {
            let StripeCore { index, free } = stripe.get_mut();
            let (held, free_cap) = (index.len(), free.capacity());
            // An index of the same size: a sweep releases nothing.
            index.rebuild(
                index.words(),
                |id| {
                    let keep = slots.stamp(id).load(Ordering::Relaxed) == stamp;
                    if !keep {
                        free.push(id);
                    }
                    keep
                },
                // SAFETY: every id in the index was written before it was
                // filed, and `&mut self` orders this after all of them.
                |id| node_hash(unsafe { slots.get(id) }),
            );
            freed += held - index.len();
            grown += (free.capacity() - free_cap) * 4;
        }
        *self.bytes.get_mut() += grown;
        *self.alive.get_mut() -= freed;
        freed
    }

    /// Bytes reserved by the slab, the indexes and the free lists. One
    /// atomic load: the counter moves where any of them grows.
    pub fn memory_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// [`Self::memory_bytes`] recounted from the structures themselves.
    #[cfg(test)]
    pub(crate) fn recount_bytes(&self) -> usize {
        let held = |st: &Stripe<StripeCore>| {
            let core = st.lock(&self.stall);
            core.index.words() * 8 + core.free.capacity() * 4
        };
        self.slots.allocated_bytes() + self.stripes.iter().map(held).sum::<usize>()
    }

    /// Per-stripe occupancy and lock-contention counters (telemetry).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.stripes
            .iter()
            .map(|st| ShardStats {
                live: st.lock(&self.stall).index.len(),
                contended: st.contended(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            assert_eq!(*a.get(id), vnode(l, TERM, TERM));
        }
    }

    #[test]
    fn mark_and_sweep_frees_unreachable() {
        let mut a: NodeArena<VNode> = NodeArena::default();
        let keep = a.get_or_insert(vnode(0, TERM, TERM));
        let _dead = a.get_or_insert(vnode(1, TERM, TERM));
        assert_eq!(a.len(), 2);
        let stamp = 7;
        assert!(a.mark(keep, stamp));
        assert!(!a.mark(keep, stamp), "second mark reports already-marked");
        let freed = a.sweep(stamp);
        assert_eq!(freed, 1);
        assert_eq!(a.len(), 1);
        assert_eq!(a.peak(), 2);
    }

    #[test]
    fn ids_are_slot_indices_in_allocation_order() {
        let a: NodeArena<VNode> = NodeArena::default();
        // Far past the first regrow of every stripe (16 x 48 entries).
        for i in 0..5000u32 {
            assert_eq!(a.get_or_insert(vnode((i % 7) as u8, i, TERM)), i);
        }
        for i in 0..5000u32 {
            assert_eq!(a.get_or_insert(vnode((i % 7) as u8, i, TERM)), i, "hit");
            assert_eq!(*a.get(i), vnode((i % 7) as u8, i, TERM));
        }
        assert_eq!(a.len(), 5000);
    }

    #[test]
    fn sweep_then_reinsert_recycles_the_slot() {
        let mut a: NodeArena<VNode> = NodeArena::default();
        let x = a.get_or_insert(vnode(0, TERM, TERM));
        assert_eq!(a.sweep(99), 1, "nothing marked: frees x");
        assert_eq!(a.len(), 0);
        // Same content hashes to the same stripe, whose free list holds the
        // slot: a recycled id and a fresh index entry, no second slot.
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
    fn shard_stats_sum_to_totals() {
        let a: NodeArena<VNode> = NodeArena::default();
        for l in 0..100u8 {
            a.get_or_insert(vnode(l, TERM, TERM));
        }
        let stats = a.shard_stats();
        assert_eq!(stats.len(), NODE_SHARDS);
        assert_eq!(stats.iter().map(|s| s.live).sum::<usize>(), 100);
        // 100 distinct contents should spread over more than one stripe.
        assert!(stats.iter().filter(|s| s.live > 0).count() > 1);
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
        assert_eq!(a.sweep(1), 20_000 - kept);
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
    fn concurrent_inserts_of_same_content_get_one_id() {
        let a: NodeArena<VNode> = NodeArena::default();
        let ids: Vec<u32> = std::thread::scope(|s| {
            let hs: Vec<_> = (0..8)
                .map(|_| s.spawn(|| a.get_or_insert(vnode(3, TERM, TERM))))
                .collect();
            hs.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn concurrent_overlapping_inserts_across_regrows_get_one_id_per_content() {
        // 8 threads, released together, each insert 3/4 of 24 000 distinct
        // contents in its own order: every stripe regrows several times
        // under contention and every content is raced for by 6 threads.
        const N: u32 = 24_000;
        let a: NodeArena<VNode> = NodeArena::default();
        let content = |i: u32| vnode((i % 11) as u8, i, i / 3);
        let start = std::sync::Barrier::new(8);
        let per_thread: Vec<Vec<(u32, u32)>> = std::thread::scope(|s| {
            let hs: Vec<_> = (0..8u32)
                .map(|t| {
                    let (a, start) = (&a, &start);
                    s.spawn(move || {
                        start.wait();
                        (0..N)
                            .map(|k| (k * 7 + t * 3001) % N)
                            .filter(|i| i % 8 != t && i % 8 != (t + 1) % 8)
                            .map(|i| (i, a.get_or_insert(content(i))))
                            .collect()
                    })
                })
                .collect();
            hs.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut id_of = vec![TERM; N as usize];
        for (i, id) in per_thread.into_iter().flatten() {
            assert!(id < N, "ids are dense");
            assert_eq!(*a.get(id), content(i));
            let seen = std::mem::replace(&mut id_of[i as usize], id);
            assert!(
                seen == TERM || seen == id,
                "content {i} got ids {seen} and {id}"
            );
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
