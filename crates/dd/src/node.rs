//! DD nodes, edges, and the sharded unique-table arena.
//!
//! Vector nodes have two outgoing edges, matrix nodes four (row-major).
//! Nodes live in per-shard slab storage addressed by `u32` ids; a unique
//! table maps node *content* (level + edges) to its id, so structurally
//! identical sub-DDs are shared — the defining property of a decision
//! diagram.
//!
//! The arena is sharded for shared-memory parallelism: node content hashes
//! to one of [`NODE_SHARDS`] lock-striped shards, each with its own unique
//! map, free list, and slab segment store. Ids encode the shard in their
//! low bits, so `get` decodes the shard and reads the slab without any
//! lock; only inserts take the (per-shard) lock. Mark stamps are atomic,
//! letting concurrent traversals mark while other threads insert; the
//! sweep itself is stop-the-world (`&mut self`).

use crate::ctable::CIdx;
use crate::fxhash::{hash_u64, FxHashMap, FxHasher};
use crate::sync::SlotVec;
use parking_lot::Mutex;
use qcircuit::Complex64;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Sentinel node id of the terminal node ("1" in Figure 2 of the paper).
pub const TERM: u32 = u32::MAX;

/// Number of lock-striped shards in a [`NodeArena`] (power of two).
///
/// 16 shards keep the insert-lock collision probability below ~`t/16` for
/// `t` worker threads while the per-shard constant overhead (a mutex, a
/// hash map, one slab) stays negligible next to the nodes themselves.
pub const NODE_SHARDS: usize = 16;
const SHARD_BITS: u32 = 4;
const SHARD_MASK: u32 = NODE_SHARDS as u32 - 1;
/// Largest per-shard local index: `local << SHARD_BITS | shard` must never
/// collide with [`TERM`].
const MAX_LOCAL: u32 = (TERM >> SHARD_BITS) - 1;

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

/// Lock-protected part of one shard.
struct ShardCore<T> {
    /// Node content -> global id.
    unique: FxHashMap<T, u32>,
    /// Recycled *local* slot indices.
    free: Vec<u32>,
    /// Local slots allocated so far.
    len: u32,
}

struct Shard<T> {
    core: Mutex<ShardCore<T>>,
    slots: SlotVec<T>,
    /// Times an inserter found this shard's lock held (contention signal).
    contended: AtomicU64,
}

impl<T> Default for Shard<T> {
    fn default() -> Self {
        Shard {
            core: Mutex::new(ShardCore {
                unique: FxHashMap::default(),
                free: Vec::new(),
                len: 0,
            }),
            slots: SlotVec::default(),
            contended: AtomicU64::new(0),
        }
    }
}

/// Per-shard occupancy/contention snapshot (telemetry).
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardStats {
    /// Live nodes in the shard.
    pub live: usize,
    /// Slab slots allocated in the shard.
    pub slots: usize,
    /// Lock-contention events observed on insert.
    pub contended: u64,
}

/// Sharded slab arena with structural sharing (unique table) and
/// mark/sweep support. Inserts, reads, and marks take `&self` and are safe
/// to call from many threads; the sweep is stop-the-world.
pub struct NodeArena<T: Copy + Eq + Hash> {
    shards: Vec<Shard<T>>,
    alive: AtomicUsize,
    peak_alive: AtomicUsize,
    /// Bytes reserved by every shard's slab, unique map and free list,
    /// updated where any of them grows so that [`Self::memory_bytes`] is
    /// one load.
    bytes: AtomicUsize,
    /// Cached handle into the global `dd.unique_stall_ns` histogram, so the
    /// contended path records its wait without a registry lookup.
    stall: qtelemetry::Histogram,
}

impl<T: Copy + Eq + Hash> Default for NodeArena<T> {
    fn default() -> Self {
        NodeArena {
            shards: (0..NODE_SHARDS).map(|_| Shard::default()).collect(),
            alive: AtomicUsize::new(0),
            peak_alive: AtomicUsize::new(0),
            bytes: AtomicUsize::new(0),
            stall: qtelemetry::histogram("dd.unique_stall_ns"),
        }
    }
}

#[inline(always)]
fn shard_of<T: Hash>(data: &T) -> usize {
    let mut h = FxHasher::default();
    data.hash(&mut h);
    // The unique maps index with the *low* bits of the same hash; pick the
    // shard from remixed high bits so the two stay decorrelated.
    (hash_u64(h.finish()) >> 32) as usize & (NODE_SHARDS - 1)
}

/// Bytes a unique map of the given `capacity()` holds: std's hash map
/// (hashbrown) keeps `capacity / 7 * 8` buckets (4 or 8 below that) of one
/// entry plus one control byte each, and one trailing 16-byte control
/// group (the SSE2 group width).
fn unique_map_bytes<T>(capacity: usize) -> usize {
    let buckets = match capacity {
        0 => return 0,
        c if c < 8 => c + 1,
        c => c / 7 * 8,
    };
    (buckets * std::mem::size_of::<(T, u32)>()).next_multiple_of(16) + buckets + 16
}

#[inline(always)]
fn encode(local: u32, shard: usize) -> u32 {
    (local << SHARD_BITS) | shard as u32
}

#[inline(always)]
fn decode(id: u32) -> (u32, usize) {
    (id >> SHARD_BITS, (id & SHARD_MASK) as usize)
}

impl<T: Copy + Eq + Hash> NodeArena<T> {
    /// Returns the id of a node with this content, inserting if new.
    /// Concurrent callers inserting equal content all receive the same id.
    #[inline]
    pub fn get_or_insert(&self, data: T) -> u32 {
        let s = shard_of(&data);
        let sh = &self.shards[s];
        let mut core = match sh.core.try_lock() {
            Some(g) => g,
            None => {
                sh.contended.fetch_add(1, Ordering::Relaxed);
                // Stall timing costs two clock reads, so only when telemetry
                // is on (one relaxed load otherwise) — and only on this
                // already-blocking path, never on the uncontended fast path.
                if qtelemetry::enabled() {
                    let t0 = std::time::Instant::now();
                    let g = sh.core.lock();
                    self.stall
                        .observe(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
                    g
                } else {
                    sh.core.lock()
                }
            }
        };
        if let Some(&id) = core.unique.get(&data) {
            return id;
        }
        let mut grown = 0;
        let local = core.free.pop().unwrap_or_else(|| {
            let l = core.len;
            assert!(l <= MAX_LOCAL, "node arena shard exhausted");
            core.len = l + 1;
            grown = sh.slots.ensure(l);
            l
        });
        // SAFETY: `local` is either freshly allocated (unknown to every
        // other thread) or was proven unreachable by the last sweep; we
        // hold the shard lock, which is also what publishes the id.
        unsafe { sh.slots.write(local, data) };
        let id = encode(local, s);
        let cap = core.unique.capacity();
        core.unique.insert(data, id);
        if core.unique.capacity() != cap {
            grown += unique_map_bytes::<T>(core.unique.capacity()) - unique_map_bytes::<T>(cap);
        }
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
        let (local, s) = decode(id);
        // SAFETY: a valid id was published after its slot write (shard
        // lock / cache-entry release); liveness is the caller's contract.
        unsafe { self.shards[s].slots.get(local) }
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

    /// Total slab slots allocated across all shards (memory accounting).
    pub fn slots(&self) -> usize {
        self.shards
            .iter()
            .map(|sh| sh.core.lock().len as usize)
            .sum()
    }

    /// Marks `id` with `stamp`; returns `true` when it was not yet marked
    /// (i.e. the caller should recurse into its children). Safe to call
    /// concurrently — exactly one of the racing markers gets `true`.
    #[inline(always)]
    pub fn mark(&self, id: u32, stamp: u32) -> bool {
        if id == TERM {
            return false;
        }
        let (local, s) = decode(id);
        self.shards[s]
            .slots
            .stamp(local)
            .swap(stamp, Ordering::Relaxed)
            != stamp
    }

    /// True when `id` carries `stamp`.
    #[inline(always)]
    pub fn is_marked(&self, id: u32, stamp: u32) -> bool {
        if id == TERM {
            return false;
        }
        let (local, s) = decode(id);
        self.shards[s].slots.stamp(local).load(Ordering::Relaxed) == stamp
    }

    /// Frees every node *not* carrying `stamp`. Returns the number freed.
    ///
    /// Stop-the-world: requires `&mut self`, so no concurrent readers or
    /// inserters can exist. The caller must have marked all roots (and
    /// their transitive children) with `stamp` first.
    pub fn sweep(&mut self, stamp: u32) -> usize {
        let mut freed = 0usize;
        let mut grown = 0usize;
        let mut kept: Vec<(T, u32)> = Vec::new();
        for sh in &mut self.shards {
            let slots = &sh.slots;
            let core = sh.core.get_mut();
            let free_cap = core.free.capacity();
            // Drained and re-inserted, not erased in place: `retain` leaves
            // tombstones, after which `capacity()` — what the map's byte
            // count is derived from — understates the buckets held. The
            // drained map keeps its allocation, so only the free list grows.
            for (data, id) in core.unique.drain() {
                let (local, _) = decode(id);
                if slots.stamp(local).load(Ordering::Relaxed) == stamp {
                    kept.push((data, id));
                } else {
                    core.free.push(local);
                    freed += 1;
                }
            }
            core.unique.extend(kept.drain(..));
            grown += (core.free.capacity() - free_cap) * 4;
        }
        *self.bytes.get_mut() += grown;
        self.alive.fetch_sub(freed, Ordering::Relaxed);
        freed
    }

    /// Bytes reserved by the shards' slabs, unique maps and free lists. One
    /// atomic load: the counter moves where any of them grows.
    pub fn memory_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// [`Self::memory_bytes`] recounted from the structures themselves.
    #[cfg(test)]
    pub(crate) fn recount_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|sh| {
                let core = sh.core.lock();
                sh.slots.allocated_bytes()
                    + core.free.capacity() * 4
                    + unique_map_bytes::<T>(core.unique.capacity())
            })
            .sum()
    }

    /// Per-shard occupancy and lock-contention counters (telemetry).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|sh| {
                let core = sh.core.lock();
                ShardStats {
                    live: core.unique.len(),
                    slots: core.len as usize,
                    contended: sh.contended.load(Ordering::Relaxed),
                }
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
    fn freed_slots_are_recycled_within_a_shard() {
        let mut a: NodeArena<VNode> = NodeArena::default();
        let x = a.get_or_insert(vnode(0, TERM, TERM));
        a.sweep(99); // nothing marked: frees x
        assert_eq!(a.len(), 0);
        // Same content hashes to the same shard and reuses the freed slot.
        let y = a.get_or_insert(vnode(0, TERM, TERM));
        assert_eq!(x, y, "slot must be reused");
        assert_eq!(a.slots(), 1);
    }

    #[test]
    fn sweep_then_reinsert_same_content() {
        let mut a: NodeArena<VNode> = NodeArena::default();
        let x = a.get_or_insert(vnode(0, TERM, TERM));
        a.sweep(5);
        let y = a.get_or_insert(vnode(0, TERM, TERM));
        // Same content gets a (recycled) id and a fresh unique entry.
        assert_eq!(x, y);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn terminal_never_marks() {
        let a: NodeArena<VNode> = NodeArena::default();
        assert!(!a.mark(TERM, 3));
        assert!(!a.is_marked(TERM, 3));
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
        assert_eq!(stats.iter().map(|s| s.slots).sum::<usize>(), a.slots());
        // 100 distinct contents should spread over more than one shard.
        assert!(stats.iter().filter(|s| s.live > 0).count() > 1);
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
}
