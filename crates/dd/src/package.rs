//! The DD package: node construction with normalization, gate-DD building,
//! DD <-> array conversion, traversals, and garbage collection.
//!
//! A package has one owner, the thread that runs the DD phase. Its
//! construction and arithmetic paths take `&self` and write through
//! `RefCell`s and `Cell`s (the unique tables, the complex table, the
//! compute caches, the gate memo, the counters), so the package is `Send`
//! — a served job's simulator moves to its worker — and not `Sync`: the
//! compiler, not a publication protocol, proves that one thread writes it.
//! The conversion's pool workers read it through a [`VectorView`], plain
//! slices of the node and value stores borrowed for one closure
//! ([`DdPackage::with_vector_view`]). Only the sweeps —
//! [`DdPackage::gc_if_due`], [`DdPackage::gc`] and
//! [`DdPackage::flush_caches`] — require `&mut self`.

use crate::ctable::{CIdx, ComplexTable};
use crate::fxhash::{hash_u64, FxHashMap};
use crate::node::{Lazy, MEdge, MNode, Node, NodeArena, Slot, VEdge, VNode, TERM};
use crate::ops::ComputeTables;
use qcircuit::{Complex64, Gate, Mat2};
use std::cell::{Cell, RefCell};

/// Memory/size statistics of a [`DdPackage`].
#[derive(Clone, Copy, Debug, Default)]
pub struct PackageStats {
    /// Live vector nodes.
    pub v_nodes: usize,
    /// Live matrix nodes.
    pub m_nodes: usize,
    /// Peak live vector nodes observed.
    pub peak_v_nodes: usize,
    /// Peak live matrix nodes observed.
    pub peak_m_nodes: usize,
    /// Distinct interned complex values (live, or not yet swept).
    pub complex_values: usize,
    /// Value slots allocated: `complex_values` plus the slots sweeps freed
    /// and no value has taken again yet.
    pub complex_slots: usize,
    /// Bytes reserved by all DD structures: both node arenas, the complex
    /// table, the compute caches and the gate memo.
    pub memory_bytes: usize,
}

/// Entries of the gate-DD memo (power of two).
const GATE_MEMO_SLOTS: usize = 1024;

/// Fewest live nodes (vector + matrix) at which [`DdPackage::gc_if_due`]
/// sweeps: below it a sweep would run every few gates on a small state and
/// empty the compute tables each time.
const SWEEP_FLOOR: usize = 1 << 13;

/// Words of a gate-memo key.
const KEY_WORDS: usize = 13;

/// Everything [`DdPackage::gate_dd`] reads from its arguments: the matrix
/// bit for bit (8 words), the controls as positive and negative qubit masks
/// (2 words each), and `n << 8 | target`, never 0 (`n >= 1`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct GateKey([u64; KEY_WORDS]);

impl GateKey {
    /// `None` for a gate touching a qubit the masks cannot name (such a
    /// gate is built every time).
    fn new(mat: &Mat2, gate: &Gate, n: usize) -> Option<GateKey> {
        if n > 128 {
            return None;
        }
        let mut key = [0; KEY_WORDS];
        for (k, c) in mat.iter().enumerate() {
            key[2 * k] = c.re.to_bits();
            key[2 * k + 1] = c.im.to_bits();
        }
        for c in &gate.controls {
            let (bit, mask) = (1u128 << c.qubit, if c.positive { 8 } else { 10 });
            key[mask] |= bit as u64;
            key[mask + 1] |= (bit >> 64) as u64;
        }
        key[12] = (n as u64) << 8 | gate.target as u64;
        Some(GateKey(key))
    }

    fn slot(&self) -> usize {
        let h = self.0.iter().fold(0, |h, &w| hash_u64(h ^ w));
        h as usize & (GATE_MEMO_SLOTS - 1)
    }
}

/// Direct-mapped memo of built gate DDs: a circuit repeats few distinct
/// gates, so the second build of one is a probe here instead of `4t + n`
/// `make_mnode` calls. Entries hold node ids and die with every sweep.
struct GateMemo(RefCell<Box<[MemoEntry]>>);

/// A key's words, then the root edge as `n << 32 | w`; all zero when
/// empty. 128 B, so the memo is one zeroed 128 KiB allocation, which
/// `calloc` serves as untouched pages instead of faulting them in at
/// package construction.
type MemoEntry = [u64; 16];

impl GateMemo {
    fn new() -> Self {
        GateMemo(RefCell::new(
            vec![[0; 16]; GATE_MEMO_SLOTS].into_boxed_slice(),
        ))
    }

    fn get(&self, key: &GateKey) -> Option<MEdge> {
        let entry = &self.0.borrow()[key.slot()];
        let e = entry[KEY_WORDS];
        (entry[..KEY_WORDS] == key.0).then_some(MEdge {
            n: (e >> 32) as u32,
            w: CIdx(e as u32),
        })
    }

    fn put(&self, key: GateKey, e: MEdge) {
        let entry = &mut self.0.borrow_mut()[key.slot()];
        entry[..KEY_WORDS].copy_from_slice(&key.0);
        entry[KEY_WORDS] = (e.n as u64) << 32 | e.w.0 as u64;
    }

    fn clear(&mut self) {
        self.0.get_mut().fill([0; 16]);
    }

    fn memory_bytes(&self) -> usize {
        GATE_MEMO_SLOTS * std::mem::size_of::<MemoEntry>()
    }
}

/// A QMDD-style decision-diagram package.
///
/// Owns the complex table, the vector/matrix node arenas with their unique
/// tables, and the operation caches. All DD values (states and gate
/// matrices) produced by one package share structure with each other.
///
/// A package is `Send` (a simulator moves to the thread that runs it) and
/// not `Sync`: it has one owner, and other threads read its vector nodes
/// only through [`Self::with_vector_view`].
///
/// ```compile_fail,E0277
/// fn shared_across_threads<T: Sync>() {}
/// shared_across_threads::<qdd::DdPackage>();
/// ```
pub struct DdPackage {
    pub(crate) ct: ComplexTable,
    pub(crate) v: NodeArena<VNode>,
    pub(crate) m: NodeArena<MNode>,
    pub(crate) compute: ComputeTables,
    /// `1 / tolerance`: steps per unit of the grid addition-cache keys
    /// round their ratio to.
    pub(crate) inv_tol: f64,
    /// Cached identity chains: `id_cache[l]` = identity DD over levels `0..l`.
    id_cache: RefCell<Vec<MEdge>>,
    /// `id_nodes[l]` = id of the identity node at level `l` (top node of
    /// `id_cache[l + 1]`), [`TERM`] until built: what the multiply
    /// recursions and DMAV plan compilation compare node ids against.
    id_nodes: [Cell<u32>; 256],
    gate_memo: GateMemo,
    /// Calls of [`Self::stats`] so far (see [`Self::stats_reads`]).
    stats_reads: Cell<u64>,
    stamp: Cell<u32>,
    /// Bumped by every [`Self::gc`] sweep. Node ids are recycled by the
    /// sweep, so anything keyed by node id (e.g. the DMAV plan cache) must
    /// be dropped when this changes.
    gc_epoch: u64,
    /// Live nodes above which [`Self::gc_if_due`] sweeps: twice the live
    /// count the last sweep left, and at least [`SWEEP_FLOOR`].
    sweep_at: usize,
    /// Process-unique id stamped on this package's telemetry events.
    telemetry_id: u64,
}

// A served job's simulator, and with it its package, moves to the worker
// that runs it.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<DdPackage>();
};

/// A read-only view of a package's vector nodes and weights, borrowed for
/// one [`DdPackage::with_vector_view`] call: plain slices, so it is `Sync`
/// and pool workers share it.
pub struct VectorView<'a> {
    nodes: &'a [Slot<VNode>],
    values: &'a [Complex64],
}

impl VectorView<'_> {
    /// A vector node's content ([`DdPackage::v_node`]).
    #[inline(always)]
    pub fn node(&self, id: u32) -> VNode {
        self.nodes[id as usize].node
    }

    /// The value behind an interned weight ([`DdPackage::cval`]).
    #[inline(always)]
    pub fn weight(&self, w: CIdx) -> Complex64 {
        self.values[w.0 as usize]
    }
}

impl Default for DdPackage {
    fn default() -> Self {
        Self::new(1e-10)
    }
}

impl DdPackage {
    /// Creates a package with the given complex-table tolerance.
    pub fn new(tolerance: f64) -> Self {
        DdPackage {
            ct: ComplexTable::new(tolerance),
            v: NodeArena::default(),
            m: NodeArena::default(),
            compute: ComputeTables::default(),
            inv_tol: 1.0 / tolerance,
            id_cache: RefCell::new(vec![MEdge::terminal(CIdx::ONE)]),
            id_nodes: std::array::from_fn(|_| Cell::new(TERM)),
            gate_memo: GateMemo::new(),
            stats_reads: Cell::new(0),
            stamp: Cell::new(0),
            gc_epoch: 0,
            sweep_at: SWEEP_FLOOR,
            telemetry_id: qtelemetry::next_id(),
        }
    }

    /// Process-unique id identifying this package in telemetry events.
    #[inline(always)]
    pub fn telemetry_id(&self) -> u64 {
        self.telemetry_id
    }

    /// Monotone garbage-collection epoch: incremented by every [`Self::gc`]
    /// sweep. Caches keyed by node id are valid only while this is
    /// unchanged.
    #[inline(always)]
    pub fn gc_epoch(&self) -> u64 {
        self.gc_epoch
    }

    // ---- complex values ----------------------------------------------------

    /// Value behind an interned weight.
    #[inline(always)]
    pub fn cval(&self, w: CIdx) -> Complex64 {
        self.ct.get(w)
    }

    /// Interns a complex value.
    #[inline(always)]
    pub fn clookup(&self, v: Complex64) -> CIdx {
        self.ct.lookup(v)
    }

    /// A vector node's content.
    #[inline(always)]
    pub fn v_node(&self, id: u32) -> VNode {
        self.v.get(id)
    }

    /// A matrix node's content.
    #[inline(always)]
    pub fn m_node(&self, id: u32) -> MNode {
        self.m.get(id)
    }

    /// Runs `f` on a read-only view of the vector nodes and the weights —
    /// what the conversion's pool workers share. The view borrows the two
    /// stores for the call: inserting a node or a weight inside `f` panics,
    /// and the borrow ends when `f` returns or unwinds.
    pub fn with_vector_view<R>(&self, f: impl FnOnce(&VectorView<'_>) -> R) -> R {
        let (nodes, values) = (self.v.slots(), self.ct.values());
        f(&VectorView {
            nodes: &nodes,
            values: &values,
        })
    }

    // ---- node construction with normalization ------------------------------

    /// Builds (or shares) a vector node with canonical normalization:
    /// outgoing weights get 2-norm 1 with the first non-zero weight real
    /// positive; the extracted factor becomes the returned edge weight.
    pub fn make_vnode(&self, level: u8, e: [VEdge; 2]) -> VEdge {
        self.intern_v(self.make_vnode_lazy(level, e.map(|e| self.lazy_v(e))))
    }

    /// [`Self::make_vnode`] on lazy edges: interns the two weights the node
    /// stores and returns the factor as it is.
    pub(crate) fn make_vnode_lazy(&self, level: u8, e: [Lazy; 2]) -> Lazy {
        // One live child: the node is (1, 0) / (0, 1) and the child's
        // weight passes up unchanged.
        let one_child = |i: usize| {
            let mut edges = [VEdge::ZERO; 2];
            edges[i] = VEdge {
                n: e[i].n,
                w: CIdx::ONE,
            };
            Lazy {
                n: self.v.get_or_insert(VNode { level, e: edges }),
                w: e[i].w,
            }
        };
        match (e[0].is_zero(), e[1].is_zero()) {
            (true, true) => return Lazy::ZERO,
            (false, true) => return one_child(0),
            (true, false) => return one_child(1),
            (false, false) => {}
        }
        let (w0, w1) = (e[0].w, e[1].w);
        let tol = self.ct.tolerance();
        let norm = (w0.norm_sqr() + w1.norm_sqr()).sqrt();
        // Phase reference: the first weight becomes real positive. A child
        // whose normalized weight would intern as zero is a zero edge, so
        // the node is the one-child node of the other.
        let mag0 = w0.abs();
        let nw0 = mag0 / norm;
        if nw0 <= tol {
            return one_child(1);
        }
        let factor = w0 * (norm / mag0);
        let nw1 = w1 / factor;
        if nw1.approx_zero(tol) {
            return one_child(0);
        }
        let node = VNode {
            level,
            e: [
                VEdge {
                    n: e[0].n,
                    w: self.ct.lookup(Complex64::real(nw0)),
                },
                VEdge {
                    n: e[1].n,
                    w: self.ct.lookup(nw1),
                },
            ],
        };
        Lazy {
            n: self.v.get_or_insert(node),
            w: factor,
        }
    }

    /// Builds (or shares) a matrix node with canonical normalization: all
    /// weights are divided by the first maximum-magnitude weight, which
    /// becomes the returned edge weight (cf. Figure 2a of the paper).
    pub fn make_mnode(&self, level: u8, e: [MEdge; 4]) -> MEdge {
        self.intern_m(self.make_mnode_lazy(level, e.map(|e| self.lazy_m(e))))
    }

    /// [`Self::make_mnode`] on lazy edges: interns the (up to three) weights
    /// the node stores beside the unit one and returns the factor as it is.
    pub(crate) fn make_mnode_lazy(&self, level: u8, e: [Lazy; 4]) -> Lazy {
        let mut k = usize::MAX;
        let mut best = 0.0f64;
        let tol = self.ct.tolerance();
        for (i, edge) in e.iter().enumerate() {
            let mag = edge.w.norm_sqr();
            if mag > best * (1.0 + tol) && mag > 0.0 {
                best = mag;
                k = i;
            }
        }
        if k == usize::MAX {
            return Lazy::ZERO;
        }
        let factor = e[k].w;
        let ne = std::array::from_fn(|i| {
            if e[i].is_zero() {
                MEdge::ZERO
            } else if i == k {
                MEdge {
                    n: e[i].n,
                    w: CIdx::ONE,
                }
            } else {
                match self.ct.lookup(e[i].w / factor) {
                    w if w.is_zero() => MEdge::ZERO,
                    w => MEdge { n: e[i].n, w },
                }
            }
        });
        Lazy {
            n: self.m.get_or_insert(MNode { level, e: ne }),
            w: factor,
        }
    }

    // ---- vector construction / readout --------------------------------------

    /// DD of the computational basis state `|index>` over `n` qubits.
    pub fn basis_state(&self, n: usize, index: usize) -> VEdge {
        assert!(n >= 1 && (n >= 64 || index < (1usize << n)));
        let mut e = VEdge::terminal(CIdx::ONE);
        for l in 0..n {
            let bit = (index >> l) & 1;
            e = if bit == 0 {
                self.make_vnode(l as u8, [e, VEdge::ZERO])
            } else {
                self.make_vnode(l as u8, [VEdge::ZERO, e])
            };
        }
        e
    }

    /// Builds a vector DD from a flat array (length must be a power of two).
    pub fn vector_from_slice(&self, a: &[Complex64]) -> VEdge {
        assert!(a.len().is_power_of_two() && a.len() >= 2);
        self.build_from_slice(a)
    }

    fn build_from_slice(&self, a: &[Complex64]) -> VEdge {
        if a.len() == 1 {
            return VEdge::terminal(self.ct.lookup(a[0]));
        }
        let half = a.len() / 2;
        let lo = self.build_from_slice(&a[..half]);
        let hi = self.build_from_slice(&a[half..]);
        let level = (a.len().trailing_zeros() - 1) as u8;
        self.make_vnode(level, [lo, hi])
    }

    /// Converts a vector DD to a flat array — the *sequential* conversion
    /// used by DDSIM, the baseline of Figure 13. `n` is the qubit count.
    pub fn vector_to_array(&self, e: VEdge, n: usize) -> Vec<Complex64> {
        let mut out = vec![Complex64::ZERO; 1usize << n];
        self.write_vector(e, n, &mut out);
        out
    }

    /// Sequential DD-to-array conversion into a caller-provided buffer.
    pub fn write_vector(&self, e: VEdge, n: usize, out: &mut [Complex64]) {
        assert_eq!(out.len(), 1usize << n);
        self.write_rec(e, 0, Complex64::ONE, out);
    }

    fn write_rec(&self, e: VEdge, idx: usize, weight: Complex64, out: &mut [Complex64]) {
        if e.is_zero() {
            return;
        }
        let w = weight * self.ct.get(e.w);
        if e.is_terminal() {
            out[idx] = w;
            return;
        }
        let node = self.v.get(e.n);
        self.write_rec(node.e[0], idx, w, out);
        self.write_rec(node.e[1], idx | (1usize << node.level), w, out);
    }

    /// Amplitude of `|index>` in a vector DD (product of path weights,
    /// cf. Figure 2b of the paper).
    pub fn amplitude(&self, e: VEdge, index: usize) -> Complex64 {
        let mut w = Complex64::ONE;
        let mut cur = e;
        loop {
            if cur.is_zero() {
                return Complex64::ZERO;
            }
            w *= self.ct.get(cur.w);
            if cur.is_terminal() {
                return w;
            }
            let node = self.v.get(cur.n);
            cur = node.e[(index >> node.level) & 1];
        }
    }

    /// The qubits `e` holds in a definite basis state, and `e` without them:
    /// `(mask, bits, projected)`. Level `l` is fixed at `b` when every node
    /// reachable at it has a zero edge `1 - b`, so every amplitude with the
    /// other value there is zero; `mask` has bit `l` set and `bits` holds
    /// `b` there. `projected` is the DD over the other `n - k` levels,
    /// renumbered downwards in order, each kept edge with its weight and
    /// each dropped level's weight carried onto the edge above: its
    /// amplitude at an index with the fixed bits deleted is `e`'s amplitude
    /// at the full index. With no level fixed, `projected` is `e`.
    pub fn project_definite(&self, e: VEdge, n: usize) -> (usize, usize, VEdge) {
        if e.is_zero() || e.is_terminal() {
            return (0, 0, e);
        }
        let all = if n >= usize::BITS as usize {
            usize::MAX
        } else {
            (1usize << n) - 1
        };
        let (mut at0, mut at1) = (all, all);
        let mut seen: FxHashMap<u32, VEdge> = FxHashMap::default();
        let mut stack = vec![e.n];
        while let Some(id) = stack.pop() {
            if id == TERM || seen.insert(id, VEdge::ZERO).is_some() {
                continue;
            }
            let node = self.v.get(id);
            let bit = 1usize << node.level;
            if !node.e[1].is_zero() {
                at0 &= !bit;
            }
            if !node.e[0].is_zero() {
                at1 &= !bit;
            }
            stack.extend([node.e[0].n, node.e[1].n]);
        }
        let mask = at0 | at1;
        if mask == 0 {
            return (0, 0, e);
        }
        seen.clear();
        let projected = self.scale_v(self.project_rec(e.n, mask, &mut seen), e.w);
        (mask, at1, projected)
    }

    /// The sub-DD under node `id` without the `mask` levels (unit weight on
    /// top; `memo` by node id).
    fn project_rec(&self, id: u32, mask: usize, memo: &mut FxHashMap<u32, VEdge>) -> VEdge {
        if id == TERM {
            return VEdge::terminal(CIdx::ONE);
        }
        if let Some(&r) = memo.get(&id) {
            return r;
        }
        let node = self.v.get(id);
        let level = node.level as usize;
        let mut child = |c: VEdge| match c.is_zero() {
            true => VEdge::ZERO,
            false => self.scale_v(self.project_rec(c.n, mask, memo), c.w),
        };
        let r = if mask >> level & 1 == 1 {
            child(node.e[usize::from(node.e[0].is_zero())])
        } else {
            let below = (mask & ((1usize << level) - 1)).count_ones() as usize;
            let e = [child(node.e[0]), child(node.e[1])];
            self.make_vnode((level - below) as u8, e)
        };
        memo.insert(id, r);
        r
    }

    /// Matrix entry `M[row][col]` of a matrix DD (cf. Figure 2a).
    pub fn matrix_entry(&self, e: MEdge, row: usize, col: usize) -> Complex64 {
        let mut w = Complex64::ONE;
        let mut cur = e;
        loop {
            if cur.is_zero() {
                return Complex64::ZERO;
            }
            w *= self.ct.get(cur.w);
            if cur.is_terminal() {
                return w;
            }
            let node = self.m.get(cur.n);
            let i = (row >> node.level) & 1;
            let j = (col >> node.level) & 1;
            cur = node.e[2 * i + j];
        }
    }

    /// Dense row-major matrix of a matrix DD over `n` qubits (tests only —
    /// exponential).
    pub fn matrix_to_dense(&self, e: MEdge, n: usize) -> Vec<Complex64> {
        let dim = 1usize << n;
        let mut out = vec![Complex64::ZERO; dim * dim];
        for r in 0..dim {
            for c in 0..dim {
                out[r * dim + c] = self.matrix_entry(e, r, c);
            }
        }
        out
    }

    // ---- gate DDs ------------------------------------------------------------

    /// Identity DD over levels `0..l` (an `l`-qubit identity matrix).
    pub fn identity_dd(&self, l: usize) -> MEdge {
        let mut cache = self.id_cache.borrow_mut();
        while cache.len() <= l {
            let prev = *cache.last().unwrap();
            let level = cache.len() - 1;
            let e = self.make_mnode(level as u8, [prev, MEdge::ZERO, MEdge::ZERO, prev]);
            self.id_nodes[level].set(e.n);
            cache.push(e);
        }
        cache[l]
    }

    /// Id of the identity node at `level`, [`TERM`] while the chain has not
    /// been built that far. Because node construction is canonical, *any*
    /// sub-DD equal to a scalar times the identity points at exactly this
    /// node.
    #[inline(always)]
    pub(crate) fn identity_at(&self, level: u8) -> u32 {
        self.id_nodes[level as usize].get()
    }

    /// Snapshot of the identity chain: entry `l` is the id of the identity
    /// node at level `l` (the node of the identity DD over levels `0..=l`),
    /// for as many of the levels `0..n` as have been built (all of them once
    /// [`Self::gate_dd`] ran for `n`) — what DMAV plan compilation
    /// classifies nodes against.
    pub fn identity_node_ids(&self, n: usize) -> Vec<u32> {
        self.id_nodes
            .iter()
            .take(n)
            .map(Cell::get)
            .take_while(|&id| id != TERM)
            .collect()
    }

    /// The `2^n x 2^n` matrix DD of a gate (single-qubit unitary with
    /// arbitrary positive/negative controls): the memoized edge when this
    /// gate was built since the last sweep, else built level by level from
    /// the terminal up — the standard QMDD gate construction.
    pub fn gate_dd(&self, gate: &Gate, n: usize) -> MEdge {
        assert!(gate.max_qubit() < n);
        let mat = gate.kind.matrix();
        let key = GateKey::new(&mat, gate, n);
        if let Some(e) = key.as_ref().and_then(|k| self.gate_memo.get(k)) {
            return e;
        }
        let e = self.build_gate_dd(&mat, gate, n);
        if let Some(k) = key {
            self.gate_memo.put(k, e);
        }
        e
    }

    fn build_gate_dd(&self, mat: &Mat2, gate: &Gate, n: usize) -> MEdge {
        // Ensure the identity chain exists through level n: the unique table
        // then shares every scalar-identity block of this gate with it, and
        // DMAV plan compilation recognizes those blocks by node id.
        self.identity_dd(n);
        let t = gate.target;
        // Per-entry chains below the target level.
        let mut e: [MEdge; 4] = [
            MEdge::terminal(self.ct.lookup(mat[0])),
            MEdge::terminal(self.ct.lookup(mat[1])),
            MEdge::terminal(self.ct.lookup(mat[2])),
            MEdge::terminal(self.ct.lookup(mat[3])),
        ];
        let mut f = MEdge::ZERO; // combined edge once the target level is built
        let control_at = |l: usize| gate.controls.iter().find(|c| c.qubit == l);
        for l in 0..n {
            let lu = l as u8;
            if l < t {
                if let Some(ctl) = control_at(l) {
                    // Control below the target: the inactive branch is the
                    // identity (diagonal entries) or zero (off-diagonal).
                    let id_below = self.identity_dd(l);
                    #[allow(clippy::needless_range_loop)]
                    for k in 0..4 {
                        let diag = if k == 0 || k == 3 {
                            id_below
                        } else {
                            MEdge::ZERO
                        };
                        e[k] = if ctl.positive {
                            self.make_mnode(lu, [diag, MEdge::ZERO, MEdge::ZERO, e[k]])
                        } else {
                            self.make_mnode(lu, [e[k], MEdge::ZERO, MEdge::ZERO, diag])
                        };
                    }
                } else {
                    #[allow(clippy::needless_range_loop)]
                    for k in 0..4 {
                        e[k] = self.make_mnode(lu, [e[k], MEdge::ZERO, MEdge::ZERO, e[k]]);
                    }
                }
            } else if l == t {
                f = self.make_mnode(lu, e);
            } else {
                // Above the target.
                if let Some(ctl) = control_at(l) {
                    let id_below = self.identity_dd(l);
                    f = if ctl.positive {
                        self.make_mnode(lu, [id_below, MEdge::ZERO, MEdge::ZERO, f])
                    } else {
                        self.make_mnode(lu, [f, MEdge::ZERO, MEdge::ZERO, id_below])
                    };
                } else {
                    f = self.make_mnode(lu, [f, MEdge::ZERO, MEdge::ZERO, f]);
                }
            }
        }
        f
    }

    // ---- traversal / statistics -----------------------------------------------

    pub(crate) fn next_stamp(&self) -> u32 {
        // On the (extremely rare) wrap, skip stamp 0, the slot-initial
        // value. Stale stamps can only cause extra (harmless) re-marks.
        let s = match self.stamp.get().wrapping_add(1) {
            0 => 1,
            s => s,
        };
        self.stamp.set(s);
        s
    }

    /// Number of DD nodes reachable from a vector edge — the paper's
    /// "DD size" `s_i` monitored by the EWMA (terminal excluded).
    pub fn vector_dd_size(&self, e: VEdge) -> usize {
        self.v.mark_reachable([e.n], self.next_stamp())
    }

    /// Number of DD nodes reachable from a matrix edge (terminal excluded).
    pub fn matrix_dd_size(&self, e: MEdge) -> usize {
        self.m.mark_reachable([e.n], self.next_stamp())
    }

    /// The package's one sweep rule, for callers at a step boundary:
    /// [`Self::gc`] when the live node count has passed twice what the last
    /// sweep left (and `SWEEP_FLOOR`, 2^13). Callers pass only what they
    /// hold — every edge they will use after the call. Returns what the
    /// sweep freed, `None` when none was due.
    pub fn gc_if_due(&mut self, v_roots: &[VEdge], m_roots: &[MEdge]) -> Option<(usize, usize)> {
        (self.v.len() + self.m.len() > self.sweep_at).then(|| self.gc(v_roots, m_roots))
    }

    /// Marks and sweeps: frees every node unreachable from the given roots,
    /// and every interned value that neither a live node nor a root edge
    /// stores ([`CIdx::ZERO`] and [`CIdx::ONE`] stay). A live value keeps
    /// its index. The operation caches and the gate memo are emptied.
    /// Returns `(vector_nodes_freed, matrix_nodes_freed)`.
    ///
    pub fn gc(&mut self, v_roots: &[VEdge], m_roots: &[MEdge]) -> (usize, usize) {
        let sweep_t0 =
            qtelemetry::enabled().then(|| (qtelemetry::now_us(), std::time::Instant::now()));
        let stamp = self.next_stamp();
        let id_chain = self.id_cache.get_mut();
        let mut marks = self.ct.marks();
        v_roots.iter().for_each(|e| marks.set(e.w));
        m_roots
            .iter()
            .chain(id_chain.iter())
            .for_each(|e| marks.set(e.w));
        self.v.mark_reachable(v_roots.iter().map(|e| e.n), stamp);
        self.m
            .mark_reachable(m_roots.iter().chain(id_chain.iter()).map(|e| e.n), stamp);
        let fv = self
            .v
            .sweep(stamp, |n| n.weights().for_each(|w| marks.set(w)));
        let fm = self
            .m
            .sweep(stamp, |n| n.weights().for_each(|w| marks.set(w)));
        let fw = self.ct.sweep(&marks);
        self.compute.clear();
        self.gate_memo.clear();
        self.gc_epoch += 1;
        self.sweep_at = (2 * (self.v.len() + self.m.len())).max(SWEEP_FLOOR);
        qtelemetry::counter("dd.gc_sweeps").inc();
        qtelemetry::counter("dd.gc_nodes_freed").add((fv + fm) as u64);
        qtelemetry::counter("dd.gc_values_freed").add(fw as u64);
        if let Some((ts_us, t0)) = sweep_t0 {
            qtelemetry::emit(qtelemetry::Event::GcSweep {
                pkg: self.telemetry_id,
                ts_us,
                dur_us: t0.elapsed().as_secs_f64() * 1e6,
                v_freed: fv,
                m_freed: fm,
                epoch: self.gc_epoch,
            });
        }
        (fv, fm)
    }

    /// Memory-pressure relief hook: drops every compute-table entry and
    /// shrinks the tables to a minimal footprint, actually releasing the
    /// cache memory (unlike the `clear` done by [`Self::gc`], which keeps
    /// capacity for speed). Live nodes are untouched; subsequent operations
    /// run correctly with colder, smaller caches. Returns the bytes
    /// released according to the package's own accounting.
    pub fn flush_caches(&mut self) -> usize {
        let before = self.compute.memory_bytes();
        self.compute.shrink_for_pressure();
        qtelemetry::counter("dd.cache_flushes").inc();
        before.saturating_sub(self.compute.memory_bytes())
    }

    /// Current package statistics. O(1): live counts and reserved bytes
    /// are counters the arenas and the complex table keep current as they
    /// grow, so the per-gate driver can afford to read this every step.
    pub fn stats(&self) -> PackageStats {
        self.stats_reads.set(self.stats_reads.get() + 1);
        PackageStats {
            v_nodes: self.v.len(),
            m_nodes: self.m.len(),
            peak_v_nodes: self.v.peak(),
            peak_m_nodes: self.m.peak(),
            complex_values: self.ct.len(),
            complex_slots: self.ct.slots(),
            memory_bytes: self.v.memory_bytes()
                + self.m.memory_bytes()
                + self.ct.memory_bytes()
                + self.compute.memory_bytes()
                + self.gate_memo.memory_bytes(),
        }
    }

    /// How many times [`Self::stats`] has been called — what the driver's
    /// "one read per gate step" rule is tested against.
    pub fn stats_reads(&self) -> u64 {
        self.stats_reads.get()
    }

    /// Hit/miss counters of the operation caches.
    pub fn compute_stats(&self) -> crate::ops::ComputeStats {
        self.compute.stats()
    }

    /// Always 0: a package has one owner, so nothing is contended. Kept
    /// because the benchmark harness still reads it.
    pub fn contention_events(&self) -> u64 {
        0
    }

    /// Publishes this package's statistics (node/table sizes, compute-table
    /// hit rates) as gauges in the global
    /// [`qtelemetry`] metrics registry. Call at snapshot boundaries (end of
    /// run, `--metrics-out` dump).
    pub fn publish_metrics(&self) {
        use qtelemetry::gauge;
        fn ratio(hits: u64, lookups: u64) -> f64 {
            if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            }
        }
        let s = self.stats();
        gauge("dd.v_nodes").set(s.v_nodes as f64);
        gauge("dd.m_nodes").set(s.m_nodes as f64);
        gauge("dd.nodes").set((s.v_nodes + s.m_nodes) as f64);
        gauge("dd.peak_v_nodes").set(s.peak_v_nodes as f64);
        gauge("dd.peak_m_nodes").set(s.peak_m_nodes as f64);
        gauge("dd.complex_values").set(s.complex_values as f64);
        gauge("dd.memory_bytes").set(s.memory_bytes as f64);
        let c = self.compute_stats();
        gauge("dd.ct_mv_lookups").set(c.mv_lookups as f64);
        gauge("dd.ct_mv_hit_rate").set(ratio(c.mv_hits, c.mv_lookups));
        gauge("dd.ct_mm_lookups").set(c.mm_lookups as f64);
        gauge("dd.ct_mm_hit_rate").set(ratio(c.mm_hits, c.mm_lookups));
        gauge("dd.ct_add_lookups").set(c.add_lookups as f64);
        gauge("dd.ct_add_hit_rate").set(ratio(c.add_hits, c.add_lookups));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::gate::{Control, GateKind};
    use qcircuit::{dense, Circuit};
    use std::collections::HashSet;

    impl GateMemo {
        /// The root node ids of the memoized gate DDs.
        fn held_nodes(&self) -> Vec<u32> {
            let entries = self.0.borrow();
            let full = entries.iter().filter(|e| e[KEY_WORDS - 1] != 0);
            full.map(|e| (e[KEY_WORDS] >> 32) as u32).collect()
        }
    }

    /// Checks one arena against its free list: every live node (a slot the
    /// sweeps did not free) is the id the unique table returns for its
    /// content and stores neither a freed node nor a weight in
    /// `freed_weights`, and no root reaches a freed node. Returns the
    /// weights the live nodes store.
    fn check_arena<T: Node + std::fmt::Debug>(
        arena: &NodeArena<T>,
        roots: impl IntoIterator<Item = u32>,
        held: &[u32],
        freed_weights: &HashSet<u32>,
        what: &str,
    ) -> Vec<CIdx> {
        let freed: HashSet<u32> = arena.free_ids().into_iter().collect();
        let mut stored = Vec::new();
        let slots = arena.slots().len() as u32;
        for id in (0..slots).filter(|id| !freed.contains(id)) {
            let node = arena.get(id);
            assert_eq!(arena.find(node), Some(id), "{what} {id} {node:?}: filing");
            for c in node.children() {
                assert!(!freed.contains(&c), "{what} {id} stores freed node {c}");
            }
            for w in node.weights() {
                assert!(
                    !freed_weights.contains(&w.0),
                    "{what} {id} stores freed {w:?}"
                );
                stored.push(w);
            }
        }
        let (mut stack, mut seen): (Vec<u32>, HashSet<u32>) =
            (roots.into_iter().collect(), HashSet::new());
        while let Some(id) = stack.pop() {
            if id != TERM && seen.insert(id) {
                assert!(
                    !freed.contains(&id),
                    "a {what} root reaches freed node {id}"
                );
                stack.extend(arena.get(id).children());
            }
        }
        for id in held.iter().filter(|&&id| id != TERM) {
            assert!(!freed.contains(id), "a cache holds freed {what} {id}");
        }
        stored
    }

    /// The storage invariants of `p` while the caller holds `v_roots` and
    /// `m_roots`: every live node is filed under its own content, no freed
    /// node or value is reachable from the roots or stored by a live node,
    /// every stored weight's `lookup` returns its own index, and neither
    /// the compute tables nor the gate memo hold a freed node id.
    pub(crate) fn assert_consistent(p: &DdPackage, v_roots: &[VEdge], m_roots: &[MEdge]) {
        let freed_weights: HashSet<u32> = p.ct.free_indices().into_iter().collect();
        let (held_v, mut held_m) = p.compute.held_nodes();
        held_m.extend(p.gate_memo.held_nodes());
        held_m.extend(p.id_cache.borrow().iter().map(|e| e.n));
        let mut weights = check_arena(
            &p.v,
            v_roots.iter().map(|e| e.n),
            &held_v,
            &freed_weights,
            "vector node",
        );
        weights.extend(check_arena(
            &p.m,
            m_roots.iter().map(|e| e.n),
            &held_m,
            &freed_weights,
            "matrix node",
        ));
        weights.extend(
            v_roots
                .iter()
                .map(|e| e.w)
                .chain(m_roots.iter().map(|e| e.w)),
        );
        for w in weights {
            assert!(!freed_weights.contains(&w.0), "a root stores freed {w:?}");
            assert_eq!(
                p.ct.lookup(p.ct.get(w)),
                w,
                "{w:?} = {:?}: filing",
                p.ct.get(w)
            );
        }
    }

    #[test]
    fn storage_stays_consistent_across_gates_and_sweeps() {
        qcircuit::prop::check(64, |g| {
            let n = g.rng.range(2..7);
            let c = g.circuit(n, 1..48);
            let mut p = DdPackage::default();
            let mut s = p.basis_state(n, 0);
            // The product of the gates since the last reset: matrix roots
            // that die at the reset, so matrix slots are freed and reused.
            let mut product = p.identity_dd(n);
            for (i, gate) in c.iter().enumerate() {
                let gd = p.gate_dd(gate, n);
                s = p.mul_mv(gd, s);
                product = match i % 5 {
                    4 => p.identity_dd(n),
                    _ => p.mul_mm(gd, product),
                };
                assert_consistent(&p, &[s], &[product]);
                p.gc(&[s], &[product]);
                assert_consistent(&p, &[s], &[product]);
            }
            let want = dense::simulate(&c);
            assert!(close(&p.vector_to_array(s, n), &want), "{c}");
        });
    }

    const TOL: f64 = 1e-10;

    fn close(a: &[Complex64], b: &[Complex64]) -> bool {
        qcircuit::complex::state_distance(a, b) < TOL
    }

    #[test]
    fn basis_state_round_trip() {
        let p = DdPackage::default();
        for n in 1..=4usize {
            for idx in 0..(1usize << n) {
                let e = p.basis_state(n, idx);
                let arr = p.vector_to_array(e, n);
                assert!(close(&arr, &dense::basis_state(n, idx)), "n={n} idx={idx}");
            }
        }
    }

    #[test]
    fn identity_snapshot_agrees_with_per_level_lookup() {
        let p = DdPackage::default();
        assert!(p.identity_node_ids(8).is_empty(), "nothing built yet");
        let n = 7;
        p.gate_dd(&Gate::controlled(GateKind::H, 2, vec![Control::pos(5)]), n);
        let ids = p.identity_node_ids(n);
        assert_eq!(ids.len(), n);
        for (l, &id) in ids.iter().enumerate() {
            assert_eq!(p.identity_dd(l + 1).n, id, "level {l}");
        }
        // Fewer levels on request, never more than were built.
        assert_eq!(p.identity_node_ids(3), ids[..3]);
        assert_eq!(p.identity_node_ids(64), ids);
    }

    #[test]
    fn repeated_gate_is_answered_by_the_memo() {
        let mut p = DdPackage::default();
        let n = 6;
        let toffoli =
            |kind, target, c5: Control| Gate::controlled(kind, target, vec![Control::pos(1), c5]);
        let g = toffoli(GateKind::X, 3, Control::neg(5));
        let key = GateKey::new(&g.kind.matrix(), &g, n).unwrap();
        assert_eq!(p.gate_memo.get(&key), None);
        let e = p.gate_dd(&g, n);
        assert_eq!(p.gate_memo.get(&key), Some(e));
        let before = p.stats();
        assert_eq!(p.gate_dd(&g, n), e);
        let after = p.stats();
        assert_eq!(after.m_nodes, before.m_nodes, "a hit builds no node");
        assert_eq!(after.complex_values, before.complex_values);
        // One control polarity, the width, the target or the matrix apart:
        // a miss, and the DD of that gate (from the memo too, second time).
        for (h, hn) in [
            (toffoli(GateKind::X, 3, Control::pos(5)), n),
            (g.clone(), n + 1),
            (toffoli(GateKind::X, 2, Control::neg(5)), n),
            (toffoli(GateKind::Y, 3, Control::neg(5)), n),
        ] {
            let hkey = GateKey::new(&h.kind.matrix(), &h, hn).unwrap();
            assert_eq!(p.gate_memo.get(&hkey), None, "{h} at n = {hn}");
            let built = p.gate_dd(&h, hn);
            assert_ne!(built, e, "{h} at n = {hn}");
            assert_eq!(p.gate_dd(&h, hn), built);
            assert_eq!(p.gate_memo.get(&hkey), Some(built));
            let want = dense::gate_matrix(hn, &h);
            assert!(
                close(&p.matrix_to_dense(built, hn), &want),
                "{h} at n = {hn}"
            );
        }
        // A sweep recycles node ids, so it empties the memo.
        p.gc(&[], &[e]);
        assert!(p.gate_memo.0.borrow().iter().all(|e| *e == [0; 16]));
        assert_eq!(p.gate_dd(&g, n), e, "rebuilt onto the surviving nodes");
        // Too wide for the key's masks: built every time, still canonical.
        let wide = Gate::controlled(GateKind::Z, 130, vec![Control::pos(0)]);
        assert!(GateKey::new(&wide.kind.matrix(), &wide, 131).is_none());
        assert_eq!(p.gate_dd(&wide, 131), p.gate_dd(&wide, 131));
    }

    #[test]
    fn accounted_bytes_are_the_bytes_reserved() {
        let mut p = DdPackage::default();
        let recount = |p: &DdPackage| {
            p.v.recount_bytes()
                + p.m.recount_bytes()
                + p.ct.recount_bytes()
                + p.compute.memory_bytes()
                + p.gate_memo.memory_bytes()
        };
        assert_eq!(p.stats().memory_bytes, recount(&p));
        // 10^5 distinct weights (every complex-table shard regrows several
        // times, the value store opens new segments) and a chain of 5 * 10^4
        // distinct nodes (slabs, unique maps).
        let (mut chain, mut keep) = (VEdge::terminal(CIdx::ONE), VEdge::ZERO);
        for i in 0..100_000 {
            p.clookup(Complex64::new(0.1 + i as f64 * 1e-6, -0.3));
            if i % 2 == 0 {
                chain = p.make_vnode(0, [chain, VEdge::ZERO]);
            }
            if i == 200 {
                keep = chain;
            }
        }
        let s = p.stats();
        assert!(s.complex_values > 100_000 && s.v_nodes >= 50_000);
        assert_eq!(s.memory_bytes, recount(&p));
        let (freed, _) = p.gc(&[keep], &[]);
        assert!(freed >= 49_000);
        assert_eq!(p.stats().memory_bytes, recount(&p), "after the sweep");
        assert!(
            p.stats().memory_bytes >= s.memory_bytes,
            "a sweep releases nothing"
        );
        // Recycled slots reserve nothing new.
        let before = p.stats().memory_bytes;
        for i in 0..1000 {
            p.basis_state(10, i);
        }
        assert_eq!(p.stats().memory_bytes, before);
        assert_eq!(before, recount(&p));
    }

    #[test]
    fn projecting_definite_levels_keeps_every_amplitude() {
        // |1> on qubit 1, |0> on qubit 4, a 4-qubit state with some
        // structure on qubits 0, 2, 3, 5.
        let n = 6;
        let pkg = DdPackage::default();
        let mut a = vec![Complex64::ZERO; 1 << n];
        let active = [0usize, 2, 3, 5];
        for k in 0..16usize {
            let full = active
                .iter()
                .enumerate()
                .fold(0b10, |idx, (j, &q)| idx | ((k >> j) & 1) << q);
            a[full] = Complex64::new(0.1 + k as f64, 0.3 - (k % 3) as f64);
        }
        let e = pkg.vector_from_slice(&a);
        let (mask, bits, p) = pkg.project_definite(e, n);
        assert_eq!((mask, bits), (0b01_0010, 0b00_0010));
        for (k, got) in pkg.vector_to_array(p, 4).iter().enumerate() {
            let full = active
                .iter()
                .enumerate()
                .fold(0b10, |idx, (j, &q)| idx | ((k >> j) & 1) << q);
            assert!(got.approx_eq(a[full], 1e-12), "k={k}");
        }
        // Nothing fixed: the edge itself. A basis state: every level fixed.
        let ghz = pkg.vector_from_slice(&{
            let mut g = vec![Complex64::ZERO; 8];
            (g[0], g[7]) = (Complex64::real(0.6), Complex64::real(0.8));
            g
        });
        assert_eq!(pkg.project_definite(ghz, 3), (0, 0, ghz));
        let (mask, bits, p) = pkg.project_definite(pkg.basis_state(5, 0b10110), 5);
        assert_eq!((mask, bits), (0b11111, 0b10110));
        assert!(p.is_terminal() && pkg.cval(p.w).approx_eq(Complex64::ONE, 1e-15));
    }

    #[test]
    fn basis_state_dd_size_is_n() {
        let p = DdPackage::default();
        let e = p.basis_state(8, 0b1010_1010);
        assert_eq!(p.vector_dd_size(e), 8);
    }

    #[test]
    fn flush_caches_releases_memory_and_keeps_results_correct() {
        let mut p = DdPackage::default();
        let c = qcircuit::generators::qft(6);
        let mut s = p.basis_state(6, 0);
        for g in c.iter() {
            s = p.apply_gate(s, g, 6);
        }
        let want = p.vector_to_array(s, 6);
        let before = p.stats().memory_bytes;
        let probes = p.compute_stats().mv_lookups;
        let released = p.flush_caches();
        assert!(released > 0, "shrinking the compute tables must free bytes");
        assert!(p.stats().memory_bytes < before);
        assert_eq!(
            p.compute_stats().mv_lookups,
            probes,
            "the counters outlive the slot arrays (run stats are differences)"
        );
        // The package still computes correctly with cold, smaller caches.
        for g in c.iter() {
            let m = p.gate_dd(g, 6);
            let _ = p.mul_mv(m, s);
        }
        assert!(close(&p.vector_to_array(s, 6), &want));
    }

    #[test]
    fn from_slice_round_trip_random() {
        let p = DdPackage::default();
        let n = 5;
        let v: Vec<Complex64> = (0..(1 << n))
            .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos() * 0.5))
            .collect();
        let e = p.vector_from_slice(&v);
        let back = p.vector_to_array(e, n);
        assert!(close(&back, &v));
    }

    #[test]
    fn from_slice_shares_identical_subtrees() {
        let p = DdPackage::default();
        // Four identical blocks: the DD must collapse them.
        let block = [Complex64::new(0.5, 0.0), Complex64::new(0.0, 0.5)];
        let mut v = Vec::new();
        for _ in 0..4 {
            v.extend_from_slice(&block);
        }
        let e = p.vector_from_slice(&v);
        assert_eq!(p.vector_dd_size(e), 3, "chain of 3 nodes expected");
    }

    #[test]
    fn ghz_vector_dd_structure_matches_figure_2b() {
        // The 3-qubit state of Figure 2b: (1/2)(|000> + |011> + |100> - |111>)
        let half = Complex64::real(0.5);
        let v = vec![
            half,
            Complex64::ZERO,
            Complex64::ZERO,
            half,
            half,
            Complex64::ZERO,
            Complex64::ZERO,
            -half,
        ];
        let p = DdPackage::default();
        // Note: the paper's figure indexes V[|q2 q1 q0>]; our array index i
        // has q0 as LSB, which is the same ordering.
        let e = p.vector_from_slice(&v);
        // 5 nodes: v1, v2, v3, v4, v5 (Figure 2b).
        assert_eq!(p.vector_dd_size(e), 5);
        assert!(p.amplitude(e, 3).approx_eq(half, TOL));
        assert!(p.amplitude(e, 7).approx_eq(-half, TOL));
        assert!(p.amplitude(e, 1).approx_zero(TOL));
        let back = p.vector_to_array(e, 3);
        assert!(close(&back, &v));
    }

    #[test]
    fn normalization_is_canonical_under_scaling() {
        let p = DdPackage::default();
        let w = Complex64::new(0.3, -0.4);
        let a: Vec<Complex64> = vec![Complex64::new(0.1, 0.2), Complex64::new(-0.5, 0.0)];
        let b: Vec<Complex64> = a.iter().map(|&x| x * w).collect();
        let ea = p.vector_from_slice(&a);
        let eb = p.vector_from_slice(&b);
        assert_eq!(ea.n, eb.n, "scaled vectors must share the node");
        assert!(p.cval(eb.w).approx_eq(p.cval(ea.w) * w, TOL));
    }

    #[test]
    fn negligible_child_is_the_canonical_zero_edge() {
        // A non-zero child weight that normalizes to within tolerance of
        // zero is flushed to the zero edge, node id included: the node is
        // the one built without that child (keeping the id stored a
        // non-canonical zero edge that defeated sharing and kept the dead
        // subtree reachable).
        let p = DdPackage::default();
        let (a, b) = (p.basis_state(3, 2), p.basis_state(3, 5));
        let (big, small) = (
            p.clookup(Complex64::new(0.0, 1e4)),
            p.clookup(Complex64::real(1e-9)),
        );
        let second_negligible = p.make_vnode(3, [a.with_weight(big), b.with_weight(small)]);
        assert_eq!(
            second_negligible,
            p.make_vnode(3, [a.with_weight(big), VEdge::ZERO])
        );
        assert_eq!(p.v_node(second_negligible.n).e[1], VEdge::ZERO);
        let first_negligible = p.make_vnode(3, [a.with_weight(small), b.with_weight(big)]);
        assert_eq!(
            first_negligible,
            p.make_vnode(3, [VEdge::ZERO, b.with_weight(big)])
        );
        assert_eq!(p.v_node(first_negligible.n).e[0], VEdge::ZERO);
        // The phase reference is the surviving child, not the flushed one.
        assert_eq!(first_negligible.w, big);
    }

    #[test]
    fn vnode_top_weight_carries_norm() {
        // For a normalized state the root weight has magnitude 1.
        let p = DdPackage::default();
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let v = vec![Complex64::real(s), Complex64::new(0.0, s)];
        let e = p.vector_from_slice(&v);
        assert!((p.cval(e.w).abs() - 1.0).abs() < TOL);
    }

    #[test]
    fn hadamard_gate_dd_matches_figure_2a() {
        let p = DdPackage::default();
        // H on qubit 1 of a 2-qubit system = H (x) I.
        let g = Gate::new(GateKind::H, 1);
        let e = p.gate_dd(&g, 2);
        // Figure 2a: top weight 1/sqrt(2), 2 nodes (m1, m2).
        assert!((p.cval(e.w).re - std::f64::consts::FRAC_1_SQRT_2).abs() < TOL);
        assert_eq!(p.matrix_dd_size(e), 2);
        // M[0][2] = 1/sqrt(2) per the paper's example.
        assert!(p
            .matrix_entry(e, 0, 2)
            .approx_eq(Complex64::real(std::f64::consts::FRAC_1_SQRT_2), TOL));
        let dense_m = p.matrix_to_dense(e, 2);
        let expect = dense::gate_matrix(2, &g);
        assert!(close(&dense_m, &expect));
    }

    #[test]
    fn gate_dd_matches_dense_for_all_kinds() {
        let p = DdPackage::default();
        let n = 3;
        let gates = vec![
            Gate::new(GateKind::X, 0),
            Gate::new(GateKind::H, 2),
            Gate::new(GateKind::T, 1),
            Gate::new(GateKind::RY(0.7), 1),
            Gate::new(GateKind::SqrtX, 2),
            Gate::controlled(GateKind::X, 1, vec![Control::pos(0)]),
            Gate::controlled(GateKind::X, 0, vec![Control::pos(2)]),
            Gate::controlled(GateKind::Z, 2, vec![Control::pos(0)]),
            Gate::controlled(GateKind::H, 0, vec![Control::pos(1)]),
            Gate::controlled(GateKind::X, 1, vec![Control::neg(2)]),
            Gate::controlled(GateKind::X, 2, vec![Control::pos(0), Control::pos(1)]),
            Gate::controlled(GateKind::X, 1, vec![Control::pos(0), Control::pos(2)]),
            Gate::controlled(GateKind::Y, 0, vec![Control::neg(1), Control::pos(2)]),
            Gate::controlled(GateKind::Phase(0.9), 2, vec![Control::pos(1)]),
        ];
        for g in gates {
            let e = p.gate_dd(&g, n);
            let got = p.matrix_to_dense(e, n);
            let expect = dense::gate_matrix(n, &g);
            assert!(close(&got, &expect), "gate {g} mismatch");
        }
    }

    #[test]
    fn identity_dd_is_identity() {
        let p = DdPackage::default();
        let e = p.identity_dd(3);
        let m = p.matrix_to_dense(e, 3);
        for r in 0..8 {
            for c in 0..8 {
                let want = if r == c {
                    Complex64::ONE
                } else {
                    Complex64::ZERO
                };
                assert!(m[r * 8 + c].approx_eq(want, TOL));
            }
        }
        assert_eq!(
            p.matrix_dd_size(e),
            3,
            "identity chain is one node per level"
        );
    }

    #[test]
    fn identity_gate_dd_equals_identity_chain() {
        let p = DdPackage::default();
        let g = Gate::new(GateKind::Id, 1);
        let e = p.gate_dd(&g, 3);
        let id = p.identity_dd(3);
        assert_eq!(e, id, "Id gate must share the cached identity chain");
    }

    /// Every weight the DD under `e` stores, with its value.
    fn live_weights(p: &DdPackage, e: VEdge) -> Vec<(CIdx, Complex64)> {
        let (mut out, mut stack, mut seen) = (vec![(e.w, p.cval(e.w))], vec![e.n], Vec::new());
        while let Some(id) = stack.pop() {
            if id == TERM || seen.contains(&id) {
                continue;
            }
            seen.push(id);
            for c in p.v_node(id).e {
                out.push((c.w, p.cval(c.w)));
                stack.push(c.n);
            }
        }
        out
    }

    #[test]
    fn a_sweep_frees_exactly_the_weights_no_live_edge_stores() {
        let mut p = DdPackage::default();
        let (n, c) = (8, qcircuit::generators::random_circuit(8, 150, 3));
        let mut s = p.basis_state(n, 0);
        for g in c.iter() {
            s = p.apply_gate(s, g, n);
        }
        let want = p.vector_to_array(s, n);
        let live = live_weights(&p, s);
        let before = p.stats();
        p.gc(&[s], &[]);
        let after = p.stats();
        // The identity chain stores only 0 and 1, which are always kept.
        let mut distinct: Vec<CIdx> = live.iter().map(|&(w, _)| w).collect();
        distinct.extend([CIdx::ZERO, CIdx::ONE]);
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(after.complex_values, distinct.len());
        assert!(
            before.complex_values > 4 * after.complex_values,
            "{before:?}"
        );
        for (w, v) in live {
            assert_eq!(p.cval(w), v, "a live weight changed under its index");
        }
        let got = p.vector_to_array(s, n);
        assert!(got.iter().zip(&want).all(|(a, b)| a == b), "bit for bit");
        assert_eq!(after.complex_slots, before.complex_slots);
        // Freed slots are taken before fresh ones: a few more gates intern
        // new values into the slots the sweep freed.
        for g in c.iter().take(4) {
            s = p.apply_gate(s, g, n);
        }
        assert!(p.stats().complex_values > after.complex_values);
        assert_eq!(p.stats().complex_slots, before.complex_slots);
    }

    #[test]
    fn gc_keeps_roots_and_frees_garbage() {
        let mut p = DdPackage::default();
        let keep = p.basis_state(4, 5);
        let dead = p.basis_state(4, 10);
        let before = p.stats().v_nodes;
        assert!(before >= 8);
        let (fv, _) = p.gc(&[keep], &[]);
        assert!(fv > 0, "must free the dead basis state's private nodes");
        // keep must still read back correctly.
        let arr = p.vector_to_array(keep, 4);
        assert!(close(&arr, &dense::basis_state(4, 5)));
        // dead's edge is now dangling by contract; rebuilding it must work.
        let dead2 = p.basis_state(4, 10);
        let arr2 = p.vector_to_array(dead2, 4);
        assert!(close(&arr2, &dense::basis_state(4, 10)));
        let _ = dead; // not used after gc
    }

    #[test]
    fn gc_bumps_the_epoch() {
        let mut p = DdPackage::default();
        assert_eq!(p.gc_epoch(), 0);
        let keep = p.basis_state(4, 5);
        p.gc(&[keep], &[]);
        assert_eq!(p.gc_epoch(), 1);
        p.gc(&[keep], &[]);
        assert_eq!(p.gc_epoch(), 2);
    }

    #[test]
    fn gc_preserves_identity_cache() {
        let mut p = DdPackage::default();
        let id = p.identity_dd(4);
        p.gc(&[], &[]);
        let id2 = p.identity_dd(4);
        assert_eq!(id, id2);
        let m = p.matrix_to_dense(id2, 4);
        for r in 0..16 {
            assert!(m[r * 16 + r].approx_eq(Complex64::ONE, TOL));
        }
    }

    #[test]
    fn matrix_entries_of_cx_permutation() {
        let p = DdPackage::default();
        let g = Gate::controlled(GateKind::X, 1, vec![Control::pos(0)]);
        let e = p.gate_dd(&g, 2);
        // |01> -> |11>: column 1 has its 1 at row 3.
        assert!(p.matrix_entry(e, 3, 1).approx_eq(Complex64::ONE, TOL));
        assert!(p.matrix_entry(e, 1, 1).approx_zero(TOL));
        assert!(p.matrix_entry(e, 0, 0).approx_eq(Complex64::ONE, TOL));
        assert!(p.matrix_entry(e, 2, 2).approx_eq(Complex64::ONE, TOL));
    }

    #[test]
    fn stats_track_peaks() {
        let mut p = DdPackage::default();
        let a = p.basis_state(6, 0);
        let _b = p.basis_state(6, 63);
        let s1 = p.stats();
        assert!(s1.v_nodes >= 12);
        p.gc(&[a], &[]);
        let s2 = p.stats();
        assert!(s2.v_nodes < s1.v_nodes);
        assert_eq!(s2.peak_v_nodes, s1.peak_v_nodes);
        assert!(s2.memory_bytes > 0);
    }

    #[test]
    fn circuit_state_via_dense_matches_dd_readback() {
        // Build a state with the dense simulator, import, and spot-check
        // amplitudes through the DD.
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).t(1).ry(0.3, 2);
        let v = dense::simulate(&c);
        let p = DdPackage::default();
        let e = p.vector_from_slice(&v);
        for (i, &amp) in v.iter().enumerate() {
            assert!(p.amplitude(e, i).approx_eq(amp, TOL), "i={i}");
        }
    }
}
