//! The DD package: node construction with normalization, gate-DD building,
//! DD <-> array conversion, traversals, and garbage collection.
//!
//! All construction and arithmetic paths take `&self` and are safe to call
//! from many threads sharing one package: the unique tables and the complex
//! table are sharded and lock-striped, the compute caches are lossy
//! seq-locked slots, and traversal stamps are atomic. Only the
//! stop-the-world operations — [`DdPackage::gc`] and
//! [`DdPackage::flush_caches`] — require `&mut self`.

use crate::ctable::{CIdx, ComplexTable};
use crate::fxhash::{hash_u64, FxHashMap};
use crate::node::{Lazy, MEdge, MNode, NodeArena, VEdge, VNode, TERM};
use crate::ops::ComputeTables;
use crate::sync::{get_mut, lock};
use qcircuit::{Complex64, Gate, Mat2};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

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
    /// Distinct interned complex values.
    pub complex_values: usize,
    /// Bytes reserved by all DD structures: both node arenas, the complex
    /// table, the compute caches and the gate memo.
    pub memory_bytes: usize,
}

/// Entries of the gate-DD memo (power of two).
const GATE_MEMO_SLOTS: usize = 1024;

/// Everything [`DdPackage::gate_dd`] reads from its arguments: the matrix
/// bit for bit, the target, the controls as positive/negative qubit masks,
/// and the width.
#[derive(Clone, Copy, PartialEq, Eq)]
struct GateKey {
    mat: [u64; 8],
    pos: u128,
    neg: u128,
    target: u8,
    n: u16,
}

impl GateKey {
    /// `None` for a gate touching a qubit the masks cannot name (such a
    /// gate is built every time).
    fn new(mat: &Mat2, gate: &Gate, n: usize) -> Option<GateKey> {
        if n > 128 {
            return None;
        }
        let mut key = GateKey {
            mat: [0; 8],
            pos: 0,
            neg: 0,
            target: gate.target as u8,
            n: n as u16,
        };
        for (k, c) in mat.iter().enumerate() {
            key.mat[2 * k] = c.re.to_bits();
            key.mat[2 * k + 1] = c.im.to_bits();
        }
        for c in &gate.controls {
            let mask = if c.positive {
                &mut key.pos
            } else {
                &mut key.neg
            };
            *mask |= 1 << c.qubit;
        }
        Some(key)
    }

    fn slot(&self) -> usize {
        let words = [
            self.pos as u64,
            (self.pos >> 64) as u64,
            self.neg as u64,
            (self.neg >> 64) as u64,
            (self.n as u64) << 8 | self.target as u64,
        ];
        let h = self
            .mat
            .iter()
            .chain(&words)
            .fold(0, |h, &w| hash_u64(h ^ w));
        h as usize & (GATE_MEMO_SLOTS - 1)
    }
}

/// Direct-mapped memo of built gate DDs: a circuit repeats few distinct
/// gates, so the second build of one is a probe here instead of `4t + n`
/// `make_mnode` calls. Entries hold node ids and die with every sweep.
struct GateMemo(Mutex<Box<[MemoEntry]>>);

type MemoEntry = Option<(GateKey, MEdge)>;

impl GateMemo {
    fn new() -> Self {
        GateMemo(Mutex::new(vec![None; GATE_MEMO_SLOTS].into_boxed_slice()))
    }

    fn get(&self, key: &GateKey) -> Option<MEdge> {
        match &lock(&self.0)[key.slot()] {
            Some((k, e)) if k == key => Some(*e),
            _ => None,
        }
    }

    fn put(&self, key: GateKey, e: MEdge) {
        lock(&self.0)[key.slot()] = Some((key, e));
    }

    fn clear(&mut self) {
        get_mut(&mut self.0).fill(None);
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
pub struct DdPackage {
    pub(crate) ct: ComplexTable,
    pub(crate) v: NodeArena<VNode>,
    pub(crate) m: NodeArena<MNode>,
    pub(crate) compute: ComputeTables,
    /// `1 / tolerance`: steps per unit of the grid addition-cache keys
    /// round their ratio to.
    pub(crate) inv_tol: f64,
    /// Cached identity chains: `id_cache[l]` = identity DD over levels `0..l`.
    id_cache: Mutex<Vec<MEdge>>,
    /// `id_nodes[l]` = id of the identity node at level `l` (top node of
    /// `id_cache[l + 1]`), [`TERM`] until built: the lock-free view of the
    /// chain the multiply recursions and DMAV plan compilation compare node
    /// ids against. `Relaxed` on both sides — a reader only compares the id
    /// with one it already holds (never follows it), and a reader that still
    /// sees `TERM` merely skips the short-circuit.
    id_nodes: [AtomicU32; 256],
    gate_memo: GateMemo,
    /// Calls of [`Self::stats`] so far (see [`Self::stats_reads`]).
    stats_reads: AtomicU64,
    stamp: AtomicU32,
    /// Bumped by every [`Self::gc`] sweep. Node ids are recycled by the
    /// sweep, so anything keyed by node id (e.g. the DMAV plan cache) must
    /// be dropped when this changes.
    gc_epoch: u64,
    /// Process-unique id stamped on this package's telemetry events.
    telemetry_id: u64,
}

// The package is shared by reference across DD worker threads; every
// `&self` path goes through the sharded/atomic structures above.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DdPackage>();
};

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
            id_cache: Mutex::new(vec![MEdge::terminal(CIdx::ONE)]),
            id_nodes: std::array::from_fn(|_| AtomicU32::new(TERM)),
            gate_memo: GateMemo::new(),
            stats_reads: AtomicU64::new(0),
            stamp: AtomicU32::new(0),
            gc_epoch: 0,
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

    /// Read access to a vector node's content.
    #[inline(always)]
    pub fn v_node(&self, id: u32) -> &VNode {
        self.v.get(id)
    }

    /// Read access to a matrix node's content.
    #[inline(always)]
    pub fn m_node(&self, id: u32) -> &MNode {
        self.m.get(id)
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
        let node = *self.v.get(id);
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
        let mut cache = lock(&self.id_cache);
        while cache.len() <= l {
            let prev = *cache.last().unwrap();
            let level = cache.len() - 1;
            let e = self.make_mnode(level as u8, [prev, MEdge::ZERO, MEdge::ZERO, prev]);
            self.id_nodes[level].store(e.n, Ordering::Relaxed);
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
        self.id_nodes[level as usize].load(Ordering::Relaxed)
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
            .map(|id| id.load(Ordering::Relaxed))
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
        let s = self.stamp.fetch_add(1, Ordering::Relaxed).wrapping_add(1);
        if s != 0 {
            return s;
        }
        // Extremely rare wrap: skip stamp 0 (the slot-initial value). Stale
        // stamps can only cause extra (harmless) re-marks.
        self.stamp.fetch_add(1, Ordering::Relaxed).wrapping_add(1)
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

    /// Marks and sweeps: frees every node unreachable from the given roots.
    /// The operation caches are invalidated. Returns `(vector_nodes_freed,
    /// matrix_nodes_freed)`.
    ///
    /// Stop-the-world by construction: `&mut self` means no other thread
    /// holds the package, so no insert/read can race the sweep.
    pub fn gc(&mut self, v_roots: &[VEdge], m_roots: &[MEdge]) -> (usize, usize) {
        let sweep_t0 =
            qtelemetry::enabled().then(|| (qtelemetry::now_us(), std::time::Instant::now()));
        let stamp = self.next_stamp();
        self.v.mark_reachable(v_roots.iter().map(|e| e.n), stamp);
        let id_chain = get_mut(&mut self.id_cache).iter();
        self.m
            .mark_reachable(m_roots.iter().chain(id_chain).map(|e| e.n), stamp);
        let fv = self.v.sweep(stamp);
        let fm = self.m.sweep(stamp);
        self.compute.clear();
        self.gate_memo.clear();
        self.gc_epoch += 1;
        qtelemetry::counter("dd.gc_sweeps").inc();
        qtelemetry::counter("dd.gc_nodes_freed").add((fv + fm) as u64);
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
        self.stats_reads.fetch_add(1, Ordering::Relaxed);
        PackageStats {
            v_nodes: self.v.len(),
            m_nodes: self.m.len(),
            peak_v_nodes: self.v.peak(),
            peak_m_nodes: self.m.peak(),
            complex_values: self.ct.len(),
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
        self.stats_reads.load(Ordering::Relaxed)
    }

    /// Hit/miss counters of the operation caches.
    pub fn compute_stats(&self) -> crate::ops::ComputeStats {
        self.compute.stats()
    }

    /// Per-shard occupancy/contention snapshots of the two node arenas
    /// (vector, matrix).
    pub fn shard_stats(&self) -> (Vec<crate::node::ShardStats>, Vec<crate::node::ShardStats>) {
        (self.v.shard_stats(), self.m.shard_stats())
    }

    /// Total lock-contention events observed across the unique-table and
    /// complex-table shards (telemetry signal for `--dd-threads` tuning).
    pub fn contention_events(&self) -> u64 {
        let arena = |s: &[crate::node::ShardStats]| s.iter().map(|x| x.contended).sum::<u64>();
        let (vs, ms) = self.shard_stats();
        arena(&vs) + arena(&ms) + self.ct.contended()
    }

    /// Publishes this package's statistics (node/table sizes, compute-table
    /// hit rates, per-shard contention/occupancy) as gauges in the global
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
        // Sharding observability: lock contention and occupancy skew.
        let (vs, ms) = self.shard_stats();
        let contended =
            |st: &[crate::node::ShardStats]| st.iter().map(|x| x.contended).sum::<u64>();
        let max_live =
            |st: &[crate::node::ShardStats]| st.iter().map(|x| x.live).max().unwrap_or(0);
        gauge("dd.unique_contended").set((contended(&vs) + contended(&ms)) as f64);
        gauge("dd.ctable_contended").set(self.ct.contended() as f64);
        gauge("dd.shard_max_v_nodes").set(max_live(&vs) as f64);
        gauge("dd.shard_max_m_nodes").set(max_live(&ms) as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::gate::{Control, GateKind};
    use qcircuit::{dense, Circuit};

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
        assert!(lock(&p.gate_memo.0).iter().all(Option::is_none));
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
    fn contention_counters_start_at_zero() {
        let p = DdPackage::default();
        let _ = p.basis_state(6, 9);
        // Single-threaded use never contends a shard lock.
        assert_eq!(p.contention_events(), 0);
        let (vs, ms) = p.shard_stats();
        assert_eq!(vs.len(), crate::node::NODE_SHARDS);
        assert_eq!(ms.len(), crate::node::NODE_SHARDS);
        assert_eq!(
            vs.iter().map(|s| s.live).sum::<usize>(),
            p.stats().v_nodes,
            "shard occupancy must sum to the live node count"
        );
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
