//! DMAV without caching (Section 3.2.1, Algorithm 1, Figure 5).
//!
//! Multiplies a **DD-based gate matrix** by an **array-based state vector**:
//! `Assign` recursively splits the matrix into `h x h` sub-matrices down to
//! the *border level* `n - log2(t) - 1`, pairing each with sub-vector start
//! indices and accumulated weight products per thread; `Run` then evaluates
//! every task into the thread's rows of `W`.
//!
//! Each thread owns rows `[tid*h, (tid+1)*h)` of the output (row-space
//! evaluation), so the parallel writes are disjoint by construction.
//!
//! `Assign` also *compiles* the sub-DD under its task edges into a
//! `Program`: a small table of nodes with resolved weights, each
//! classified once. `Run` walks only that table — no package call, lock or
//! interned-weight lookup per amplitude — and writes every output element
//! exactly once before accumulating into it, so `W` is never zero-filled
//! (DESIGN.md §8.1).
//!
//! The same table has a second interpreter, `Program::run_in_place`: a
//! matrix whose compiled structure maps every block of the state onto
//! itself — every single gate matrix at one group, and at `t` groups every
//! one that stays below the border level — updates `V` where it lies
//! ([`dmav_in_place`]): identity blocks cost nothing, a diagonal block
//! touches only the runs it changes, and no `W` is needed at all.
//!
//! A sequence of such matrices whose rows mix only inside aligned blocks of
//! `2^level` amplitudes is a *run* ([`dmav_run_in_place`]): each block is
//! taken through every matrix of the run while it sits in cache, entered at
//! the node `run_in_place` would reach it through, so the state is streamed
//! once per run instead of once per matrix, and comes out as the
//! per-matrix walk leaves it.

use crate::error::FlatDdError;
use crate::pool::ThreadPool;
use qarray::vecops::{self, DiagTable, PairTable, Real2x2, REAL_GROUP};
use qcircuit::Complex64;
use qdd::fxhash::FxHashMap;
use qdd::{DdPackage, MEdge, TERM};

/// Marks a zero edge among the children of an [`Op::General`] node.
const NO_CHILD: u32 = u32::MAX - 1;

/// One node of a compiled program: what it does to the `2^(level+1)`
/// amplitudes it spans, with every weight resolved to its value.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// The identity node of its level: `w = f * v` over the whole span.
    Identity,
    /// `I (x) U (x) I_half`: all four children are identity, terminal or
    /// zero, so every `2 * half`-sized block of the span is one 2x2 block
    /// product. A chain of `I_2 (x) .` nodes above such a node is folded in
    /// (same `half`, weights multiplied), which is how a gate on a low
    /// qubit becomes a single strided loop instead of a descent per block.
    Kron { half: usize, u: [Complex64; 4] },
    /// `I (x) base`, for a chain of `I_2 (x) .` nodes that ends in a
    /// [`Op::General`] node spanning `block` amplitudes; `w` is the product
    /// of the chain's weights.
    Lift {
        base: u32,
        w: Complex64,
        block: usize,
    },
    /// Anything else: four children ([`NO_CHILD`] for a zero edge), each
    /// the next level's node on half of the span.
    General { child: [u32; 4], w: [Complex64; 4] },
}

/// The sub-DD under a plan's task edges as a package-independent table:
/// built once by `Assign`/`AssignCache`, memoized with the plan, and the
/// only thing `Run` reads. Children precede their parents.
#[derive(Debug)]
pub(crate) struct Program {
    ops: Vec<Node>,
    /// Plan-time tiles of irregular in-place nodes ([`Program::plant_tiles`]).
    tiles: Vec<Tile>,
}

/// One table entry: the op and what [`Program::compile`] derived from it
/// and its children (which precede it).
#[derive(Clone, Copy, Debug)]
struct Node {
    op: Op,
    /// The node spans `2^(level + 1)` amplitudes.
    level: u8,
    /// The sub-matrix is diagonal.
    diag: bool,
    /// [`Program::run_in_place`] can apply the sub-matrix to its span.
    in_place: bool,
    /// Levels at which the sub-matrix is not `I_2 (x) .` (saturating). A
    /// gate branches only at its own qubits, so every gate `gate_dd` builds
    /// with up to two controls has at most [`GATE_DEPTH`].
    depth: u8,
    /// `Some(s)`: not diagonal, but block-diagonal above one level whose
    /// four blocks are diagonal — one 2x2 per pair of amplitudes `s` apart
    /// (an `RY` on qubit 0 folded with a diagonal: `s = 1`).
    stride: Option<usize>,
    /// The sub-matrix maps every aligned block of `2^mix` amplitudes onto
    /// itself, as [`Program::run_in_place`] walks it: `mix` is one above the
    /// highest level at which it is not block-diagonal — 0 for a diagonal,
    /// the top of the `U` of a `Kron`, the node's own span for a node the
    /// walk does not enter per half (a pair walk, a plan-time tile). Only
    /// meaningful for an in-place node.
    mix: u8,
    /// Index of the node's plan-time tile in `Program::tiles`, if it has one.
    tile: Option<u32>,
}

/// The dense form of one node's sub-matrix, built at plan time for a node
/// the in-place walk would otherwise descend to [`TILE`]-sized leaves (an
/// irregular fused diagonal, alone or under one pair stride) and streamed by
/// one kernel per occurrence.
#[derive(Debug)]
enum Tile {
    /// The diagonal's entries.
    Diag(DiagTable),
    /// One 2x2 per pair at the node's stride (the table's `half`).
    Pairs(PairTable, usize),
}

impl Tile {
    /// `v = f * T * v` on every tile-sized block of `v`.
    fn apply(&self, v: &mut [Complex64], f: Complex64) {
        match self {
            Tile::Diag(d) => d.apply(v, f),
            Tile::Pairs(table, stride) => table.apply(v, *stride, f),
        }
    }

    fn memory_bytes(&self) -> usize {
        match self {
            Tile::Diag(d) => d.memory_bytes(),
            Tile::Pairs(table, _) => table.memory_bytes(),
        }
    }
}

/// Most levels a gate with two controls branches at ([`Node::depth`]). A
/// sub-matrix that branches at more is a fused product; only those get
/// tiles, so the single-gate workloads keep the walk they were tuned on.
const GATE_DEPTH: u8 = 3;

/// Largest span of a plan-time tile: 2^10 amplitudes, 24 KiB as a diagonal
/// and 72 KiB as a pair table in the kernels' layout, so a tile streams
/// from L1/L2.
const TILE_SPAN: usize = 1 << 10;

/// Most bytes of tiles one program builds; past it the untiled walk runs.
const TILE_BYTES: usize = 1 << 20;

/// A diagonal sub-matrix on its way down the pair walk: the table node
/// ([`TERM`] or [`NO_CHILD`] for a constant) and the factor in front of it
/// (zero for [`NO_CHILD`]).
type Diag = (u32, Complex64);

/// Diagonals whose period is at most this many amplitudes are flattened to
/// a one-use table on the stack and applied by one kernel call instead of
/// walked.
const TILE: usize = vecops::MAX_TILE;

/// Most leaves a [`PairPlan`] may hold. The gates this serves — controls
/// below the target — resolve to a handful; a region that needs more is
/// irregular and is split before it is resolved.
const PLAN_LEAVES: usize = 64;

/// What the four diagonals of a pair walk do to one period of the region
/// they span, resolved once: the regions where the 2x2 is not the identity,
/// each with one matrix or one prepared tile. Replaying it costs a kernel
/// call per leaf, with no descent — under a second control further up, a
/// control on a low qubit makes the same few leaves recur thousands of times.
struct PairPlan {
    /// Amplitudes the diagonals repeat after; the region is a multiple.
    span: usize,
    leaves: Vec<Leaf>,
    /// The distinct prepared periods, with the diagonals each came from.
    tiles: Vec<([Diag; 4], PairTable)>,
}

/// `len` pairs from offset `at` of every period, and what to do to them.
struct Leaf {
    at: usize,
    len: usize,
    step: Step,
}

enum Step {
    /// One 2x2 for the whole leaf.
    Const([Complex64; 4]),
    /// The prepared period `tiles[.]`.
    Tile(usize),
}

impl PairPlan {
    /// Applies the plan to every period of the pair region `(lo, hi)`.
    fn run(&self, lo: &mut [Complex64], hi: &mut [Complex64]) {
        let periods = lo
            .chunks_exact_mut(self.span)
            .zip(hi.chunks_exact_mut(self.span));
        for (lo, hi) in periods {
            for leaf in &self.leaves {
                let (lo, hi) = (
                    &mut lo[leaf.at..][..leaf.len],
                    &mut hi[leaf.at..][..leaf.len],
                );
                match &leaf.step {
                    Step::Const(m) => pair_const(lo, hi, m),
                    Step::Tile(i) => self.tiles[*i].1.apply_runs(lo, hi, Complex64::ONE),
                }
            }
        }
    }
}

/// Where a task enters its [`Program`]: the table index of the task edge's
/// node ([`TERM`] when the edge is terminal, i.e. `h == 1`) and the task's
/// whole linear factor — `v_f` times the edge's own weight, resolved.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Entry {
    pub(crate) op: u32,
    pub(crate) f: Complex64,
}

/// Builds a [`Program`] from the task edges of one assignment. Visits each
/// reachable node once (identity and Kronecker sub-DDs are not entered), so
/// a build is O(reachable nodes), never O(2^n).
struct Compiler<'a> {
    pkg: &'a DdPackage,
    /// Identity node id per level, read under one lock for the whole build.
    identity: Vec<u32>,
    /// Package node id -> table index.
    index: FxHashMap<u32, u32>,
    /// The table so far (children precede their parents).
    table: Program,
}

impl Compiler<'_> {
    /// Table index of package node `id`, compiling it on first sight.
    fn node(&mut self, id: u32) -> u32 {
        if id == TERM {
            return TERM;
        }
        if let Some(&i) = self.index.get(&id) {
            return i;
        }
        let node = self.pkg.m_node(id);
        let l = node.level as usize;
        let w = node.e.map(|e| self.pkg.cval(e.w));
        let kron_child = |e: &MEdge| {
            e.is_zero()
                || if l == 0 {
                    e.is_terminal()
                } else {
                    self.identity.get(l - 1) == Some(&e.n)
                }
        };
        let op = if self.identity.get(l) == Some(&id) {
            Op::Identity
        } else if node.e.iter().all(kron_child) {
            Op::Kron { half: 1 << l, u: w }
        } else if node.e[1].is_zero() && node.e[2].is_zero() && node.e[0] == node.e[3] {
            // I_2 (x) child: fold into what the child compiled to.
            let c = self.node(node.e[0].n);
            match self.table.ops[c as usize].op {
                Op::Kron { half, u } => Op::Kron {
                    half,
                    u: u.map(|x| w[0] * x),
                },
                Op::Lift {
                    base,
                    w: below,
                    block,
                } => Op::Lift {
                    base,
                    w: w[0] * below,
                    block,
                },
                // (An identity child cannot get here: the Kronecker test
                // above has caught it. The arm is right for it all the same.)
                Op::General { .. } | Op::Identity => Op::Lift {
                    base: c,
                    w: w[0],
                    block: 1 << l,
                },
            }
        } else {
            let mut child = [NO_CHILD; 4];
            for (c, e) in child.iter_mut().zip(&node.e) {
                if !e.is_zero() {
                    *c = self.node(e.n);
                }
            }
            Op::General { child, w }
        };
        let i = self.table.ops.len() as u32;
        let node = self.table.derive(op, l as u8);
        self.table.ops.push(node);
        self.index.insert(id, i);
        i
    }
}

impl Program {
    /// Compiles the sub-DD under the task edges `m_edges` of an assignment
    /// over `n` qubits, whose weight products so far are `f` (same shape).
    /// Returns the table and, per task, its [`Entry`].
    pub(crate) fn compile(
        pkg: &DdPackage,
        n: usize,
        m_edges: &[Vec<MEdge>],
        f: &[Vec<Complex64>],
    ) -> (Program, Vec<Vec<Entry>>) {
        let mut compiler = Compiler {
            pkg,
            identity: pkg.identity_node_ids(n),
            index: FxHashMap::default(),
            table: Program {
                ops: Vec::new(),
                tiles: Vec::new(),
            },
        };
        let entries = m_edges
            .iter()
            .zip(f)
            .map(|(edges, fs)| {
                edges
                    .iter()
                    .zip(fs)
                    .map(|(e, &f_r)| Entry {
                        op: compiler.node(e.n),
                        f: f_r * pkg.cval(e.w),
                    })
                    .collect()
            })
            .collect();
        (compiler.table, entries)
    }

    /// Heap bytes of the table and its tiles (for plan-cache accounting).
    pub(crate) fn memory_bytes(&self) -> usize {
        self.ops.capacity() * std::mem::size_of::<Node>()
            + self.tiles.capacity() * std::mem::size_of::<Tile>()
            + self.tiles.iter().map(Tile::memory_bytes).sum::<usize>()
    }

    /// Builds the tiles of an in-place program whose tasks enter it at
    /// `roots`: from each root down, the first node that spans more than
    /// [`TILE`] and at most [`TILE_SPAN`] amplitudes, runs in place as a
    /// diagonal or under one pair stride, and branches at more levels than
    /// a gate can ([`GATE_DEPTH`]) gets the dense form of its sub-matrix,
    /// until the next tile would take them over `budget` bytes
    /// ([`TILE_BYTES`]). Regular nodes get none. A tiled node is one kernel
    /// call over its span, so it and the nodes above it re-derive
    /// [`Node::mix`].
    fn plant_tiles(&mut self, roots: impl IntoIterator<Item = u32>, budget: usize) {
        let mut seen = vec![false; self.ops.len()];
        let mut stack: Vec<u32> = roots.into_iter().collect();
        let mut bytes = 0;
        while let Some(op) = stack.pop() {
            if op == TERM || op == NO_CHILD || std::mem::replace(&mut seen[op as usize], true) {
                continue;
            }
            let node = self.ops[op as usize];
            let span = 2usize << node.level;
            if span <= TILE {
                continue;
            }
            let shaped = node.diag || node.stride.is_some();
            if span <= TILE_SPAN && node.in_place && shaped && node.depth > GATE_DEPTH {
                let tile = self.tile_of(op);
                bytes += tile.memory_bytes();
                if bytes > budget {
                    break;
                }
                self.ops[op as usize].tile = Some(self.tiles.len() as u32);
                self.tiles.push(tile);
                continue;
            }
            match node.op {
                Op::General { child, .. } => stack.extend(child),
                Op::Lift { base, .. } => stack.push(base),
                Op::Identity | Op::Kron { .. } => {}
            }
        }
        if !self.tiles.is_empty() {
            for i in 0..self.ops.len() {
                let node = self.ops[i];
                self.ops[i].mix = match node.tile {
                    Some(_) => node.level + 1,
                    None => self.mix(node.op, node.level),
                };
            }
        }
    }

    /// The dense form of the diagonal or single-stride sub-matrix under
    /// `op`, with a factor of 1.
    fn tile_of(&self, op: u32) -> Tile {
        let node = self.ops[op as usize];
        let span = 2usize << node.level;
        match node.stride {
            None => {
                let mut d = vec![Complex64::ZERO; span];
                self.flatten((op, Complex64::ONE), &mut d);
                Tile::Diag(DiagTable::new(&d))
            }
            Some(s) => {
                let mut pairs = vec![[Complex64::ZERO; 4]; span / 2];
                self.fill_pairs((op, Complex64::ONE), s, &mut pairs);
                Tile::Pairs(PairTable::new(&pairs), s)
            }
        }
    }

    /// Writes the 2x2 of every pair at stride `s` of the region under `d` —
    /// a diagonal, or a node with that [`Node::stride`] — into `out`, one
    /// entry per pair in [`PairTable`] order.
    fn fill_pairs(&self, d: Diag, s: usize, out: &mut [[Complex64; 4]]) {
        let (op, c) = d;
        if self.diag(op) {
            let mut flat = vec![Complex64::ZERO; 2 * out.len()];
            self.flatten(d, &mut flat);
            for (j, m) in out.iter_mut().enumerate() {
                let at = 2 * s * (j / s) + j % s;
                *m = [flat[at], Complex64::ZERO, Complex64::ZERO, flat[at + s]];
            }
            return;
        }
        match self.ops[op as usize].op {
            Op::Kron { u, .. } => out.fill(u.map(|x| c * x)),
            Op::Lift { base, w, block } => {
                for chunk in out.chunks_exact_mut(block / 2) {
                    self.fill_pairs((base, c * w), s, chunk);
                }
            }
            // The stride's own level: four diagonals of `s` amplitudes.
            Op::General { child, w } if out.len() == s => {
                let mut flat = vec![Complex64::ZERO; s];
                for k in 0..4 {
                    self.flatten((child[k], c * w[k]), &mut flat);
                    for (m, &x) in out.iter_mut().zip(&flat) {
                        m[k] = x;
                    }
                }
            }
            Op::General { child, w } => {
                let (lo, hi) = out.split_at_mut(out.len() / 2);
                self.fill_pairs((child[0], c * w[0]), s, lo);
                self.fill_pairs((child[3], c * w[3]), s, hi);
            }
            Op::Identity => unreachable!("the identity is diagonal"),
        }
    }

    /// `w = f * M * v` (`acc == false`) or `w += f * M * v` (`acc == true`)
    /// for the sub-matrix `M` under table node `op`; `v` and `w` are exactly
    /// the amplitudes the node spans.
    ///
    /// Write-once rule: with `acc == false` every element of `w` is stored
    /// exactly once and never read, so the caller need not have zeroed it.
    /// Per output row of a [`Op::General`] node the first non-zero column
    /// stores, later columns accumulate, and a row with no non-zero column
    /// is filled with zeros.
    pub(crate) fn run(
        &self,
        op: u32,
        f: Complex64,
        v: &[Complex64],
        w: &mut [Complex64],
        acc: bool,
    ) {
        debug_assert_eq!(v.len(), w.len());
        if op == TERM {
            w[0] = if acc { w[0].mac(f, v[0]) } else { f * v[0] };
            return;
        }
        match self.ops[op as usize].op {
            Op::Identity if acc => vecops::axpy(w, f, v),
            Op::Identity => vecops::scale(w, f, v),
            Op::Kron { half, u } => {
                let m = u.map(|x| f * x);
                if acc {
                    vecops::block2x2_acc(w, &m, v, half);
                } else {
                    vecops::block2x2(w, &m, v, half);
                }
            }
            Op::Lift {
                base,
                w: below,
                block,
            } => {
                let f = f * below;
                for (w_b, v_b) in w.chunks_exact_mut(block).zip(v.chunks_exact(block)) {
                    self.run(base, f, v_b, w_b, acc);
                }
            }
            Op::General { child, w: cw } => {
                let half = w.len() / 2;
                let (w_lo, w_hi) = w.split_at_mut(half);
                let v_halves = v.split_at(half);
                for (i, w_i) in [w_lo, w_hi].into_iter().enumerate() {
                    let mut written = acc;
                    for (j, v_j) in [v_halves.0, v_halves.1].into_iter().enumerate() {
                        let k = 2 * i + j;
                        if child[k] != NO_CHILD {
                            self.run(child[k], f * cw[k], v_j, w_i, written);
                            written = true;
                        }
                    }
                    if !written {
                        w_i.fill(Complex64::ZERO);
                    }
                }
            }
        }
    }

    /// The table entry of `op` at `level`, whose children are already in
    /// the table.
    fn derive(&self, op: Op, level: u8) -> Node {
        let node = |diag, in_place, depth, stride| Node {
            op,
            level,
            diag,
            in_place,
            depth,
            stride,
            mix: self.mix(op, level),
            tile: None,
        };
        match op {
            Op::Identity => node(true, true, 0, None),
            Op::Kron { half, u } => {
                let diag = u[1].is_zero() && u[2].is_zero();
                node(diag, true, 1, (!diag).then_some(half))
            }
            Op::Lift { base, .. } => Node {
                op,
                level,
                tile: None,
                ..self.ops[base as usize]
            },
            Op::General { child, .. } => {
                let all_diag = child.iter().all(|&c| self.diag(c));
                let block_diagonal = child[1] == NO_CHILD && child[2] == NO_CHILD;
                let splits = self.splits(&child);
                let depth = child.iter().map(|&c| self.depth(c)).max().unwrap_or(0);
                let stride = if all_diag && !block_diagonal {
                    Some(1 << level)
                } else if splits {
                    self.common_stride(child[0], child[3])
                } else {
                    None
                };
                node(
                    all_diag && block_diagonal,
                    all_diag || splits,
                    depth.saturating_add(1),
                    stride,
                )
            }
        }
    }

    /// Whether the sub-matrix under `op` is diagonal. A zero block is: the
    /// constant 0.
    fn diag(&self, op: u32) -> bool {
        op == TERM || op == NO_CHILD || self.ops[op as usize].diag
    }

    /// [`Node::depth`] of `op` (0 for a constant).
    fn depth(&self, op: u32) -> u8 {
        if op == TERM || op == NO_CHILD {
            0
        } else {
            self.ops[op as usize].depth
        }
    }

    /// [`Node::mix`] of an untiled `op` at `level`, from its children's:
    /// the walk enters a `Lift`'s base per block and a splitting `General`
    /// per half, and applies every other node to its span as a whole.
    fn mix(&self, op: Op, level: u8) -> u8 {
        let of = |op: u32| {
            if op == TERM || op == NO_CHILD {
                0
            } else {
                self.ops[op as usize].mix
            }
        };
        match op {
            Op::Identity => 0,
            Op::Kron { u, .. } if u[1].is_zero() && u[2].is_zero() => 0,
            Op::Kron { half, .. } => (2 * half).trailing_zeros() as u8,
            Op::Lift { base, .. } => of(base),
            Op::General { child, .. } if self.splits(&child) => of(child[0]).max(of(child[3])),
            Op::General { .. } => level + 1,
        }
    }

    /// The pair stride of a block-diagonal node with diagonal blocks `a`
    /// and `b`: theirs when they agree or one of them is diagonal.
    fn common_stride(&self, a: u32, b: u32) -> Option<usize> {
        let stride = |op: u32| {
            if op == TERM || op == NO_CHILD {
                None
            } else {
                self.ops[op as usize].stride
            }
        };
        match (stride(a), stride(b)) {
            (Some(x), Some(y)) => (x == y).then_some(x),
            (Some(x), None) if self.diag(b) => Some(x),
            (None, Some(y)) if self.diag(a) => Some(y),
            _ => None,
        }
    }

    /// Whether [`Self::run_in_place`] accepts the sub-matrix under `op`. A
    /// zero block cannot be run in place on its own: the only in-place way
    /// through it is the pair walk of a parent whose four blocks are all
    /// diagonal.
    fn in_place(&self, op: u32) -> bool {
        op != NO_CHILD && (op == TERM || self.ops[op as usize].in_place)
    }

    /// Whether a `General` node with these children runs in place as two
    /// independent halves (if in place at all, else: as the pair walk of
    /// four diagonals).
    fn splits(&self, child: &[u32; 4]) -> bool {
        child[1] == NO_CHILD
            && child[2] == NO_CHILD
            && self.in_place(child[0])
            && self.in_place(child[3])
    }

    /// `v = f * M * v` for the sub-matrix `M` under table node `op`, which
    /// must be [`Self::in_place`]; `v` is exactly the amplitudes the node
    /// spans.
    ///
    /// In-place rule: an op reads and writes only its own span, and inside
    /// it only what `f * M` changes. An identity block under `f == 1` is not
    /// touched, a diagonal `Kron` skips the run its `1` entry leaves alone,
    /// `Lift` and a block-diagonal `General` hand each child its own part of
    /// the span, and a `General` whose four blocks are all diagonal — the
    /// node of a target controlled from below — is a 2x2 on each pair
    /// `(lo[i], hi[i])` of its two halves ([`Self::pair_walk`]). A node with
    /// a plan-time tile is one kernel call over its span. [`TERM`] is the
    /// constant `f` over whatever it is given: one amplitude for a terminal
    /// task edge, a block [`Self::enter`] found inside a run of a diagonal
    /// `Kron`.
    pub(crate) fn run_in_place(&self, op: u32, f: Complex64, v: &mut [Complex64]) {
        if op == TERM {
            if f != Complex64::ONE {
                vecops::scale_in_place(v, f);
            }
            return;
        }
        let node = &self.ops[op as usize];
        if let Some(tile) = node.tile {
            return self.tiles[tile as usize].apply(v, f);
        }
        if node.diag && !matches!(node.op, Op::Identity) && self.period(op, v.len()) <= TILE {
            // A diagonal that repeats within `TILE` amplitudes (T or CZ on
            // low qubits, the bottom of a fused product of phase gates): one
            // period flattened, one table call over the span.
            let period = self.period(op, v.len());
            let mut d = [Complex64::ZERO; TILE];
            self.flatten((op, f), &mut d[..period]);
            return DiagTable::with(&d[..period], |t| t.apply(v, Complex64::ONE));
        }
        match node.op {
            Op::Identity => {
                if f != Complex64::ONE {
                    vecops::scale_in_place(v, f);
                }
            }
            Op::Kron { half, u } => kron_in_place(v, &u.map(|x| f * x), half),
            Op::Lift {
                base,
                w: below,
                block,
            } => {
                let f = f * below;
                if !self.blocks_in_place(base, f, v, block) {
                    for v_b in v.chunks_exact_mut(block) {
                        self.run_in_place(base, f, v_b);
                    }
                }
            }
            Op::General { child, w: cw } => {
                let (lo, hi) = v.split_at_mut(v.len() / 2);
                if self.splits(&child) {
                    self.run_in_place(child[0], f * cw[0], lo);
                    self.run_in_place(child[3], f * cw[3], hi);
                } else {
                    self.pair_walk(diagonals(&child, &cw, f), lo, hi);
                }
            }
        }
    }

    /// Where [`Self::run_in_place`] meets the `block` amplitudes at offset
    /// `at` of a task's `span`, when the task enters at `e`: the descent
    /// through the levels above the block forms the factors the walk forms
    /// on its way down — through a splitting `General` to the half holding
    /// the block, through a `Lift` to its base — and stops at the first
    /// node whose action on the block is the whole node's action restricted
    /// to it: one no wider than the block, the identity, a `Kron` or `Lift`
    /// whose period divides the block, or — inside one run of a diagonal
    /// `Kron` — that run's entry as the constant [`TERM`]. The sub-matrix
    /// under `e` must map every aligned block onto itself ([`Node::mix`]),
    /// so the descent never meets a pair walk or a plan-time tile wider
    /// than the block.
    fn enter(&self, e: Entry, mut span: usize, mut at: usize, block: usize) -> Entry {
        let Entry { mut op, mut f } = e;
        while span > block && op != TERM {
            let node = &self.ops[op as usize];
            debug_assert!(
                node.tile.is_none() && 1usize << node.mix <= block,
                "entered below a node that mixes rows across a block of {block}"
            );
            match node.op {
                Op::Identity => break,
                Op::Kron { half, .. } if 2 * half <= block => break,
                Op::Kron { half, u } => {
                    // Diagonal: the block lies in one run of `half`.
                    f *= u[if at % (2 * half) < half { 0 } else { 3 }];
                    op = TERM;
                }
                Op::Lift { block: period, .. } if period <= block => break,
                Op::Lift {
                    base,
                    w,
                    block: period,
                } => {
                    (op, f, span, at) = (base, f * w, period, at % period);
                }
                Op::General { child, w } => {
                    let half = span / 2;
                    let k = if at < half { 0 } else { 3 };
                    (op, f, span, at) = (child[k], f * w[k], half, at % half);
                }
            }
        }
        Entry { op, f }
    }

    /// The real one-qubit matrix [`Self::run_in_place`] applies at entry
    /// `e`, when it applies one: a `Kron` whose `f * u` is a [`Real2x2`].
    fn real_kron(&self, e: Entry) -> Option<Real2x2> {
        match self.ops.get(e.op as usize)?.op {
            Op::Kron { half, u } => Real2x2::of(&u.map(|x| e.f * x), half),
            _ => None,
        }
    }

    /// `v = f * (I (x) B) * v` for a base node `B` of `block` amplitudes,
    /// resolved once instead of entered per block: a tiled `B` is one kernel
    /// call over the whole span, a `B` of four diagonal blocks one prepared
    /// period (every block in one kernel call) or one [`PairPlan`]
    /// (replayed per block). `false` (nothing done) for any other base (a
    /// diagonal `B` of at most [`TILE`] amplitudes never gets here: the
    /// `Lift` over it is one diagonal table call).
    fn blocks_in_place(&self, base: u32, f: Complex64, v: &mut [Complex64], block: usize) -> bool {
        let node = &self.ops[base as usize];
        if let Some(tile) = node.tile {
            self.tiles[tile as usize].apply(v, f);
            return true;
        }
        let Op::General { child, w } = node.op else {
            return false;
        };
        if self.splits(&child) {
            return false;
        }
        let (d, half) = (diagonals(&child, &w, f), block / 2);
        let period = self.joint_period(&d, half);
        if period <= TILE {
            let tile = self.tile(&d, period);
            PairTable::with(&tile[..period], |t| t.apply(v, half, Complex64::ONE));
        } else if let Some(plan) = self.pair_plan(d, period) {
            for v_b in v.chunks_exact_mut(block) {
                let (lo, hi) = v_b.split_at_mut(half);
                plan.run(lo, hi);
            }
        } else {
            return false;
        }
        true
    }

    /// `(lo[i], hi[i]) = [[d0_i, d1_i], [d2_i, d3_i]] * (lo[i], hi[i])` for
    /// the four diagonals `d` over `lo.len()` amplitudes. All four constant:
    /// one 2x2 for the region (nothing for the identity: the control-off
    /// part of the state is never loaded). A joint period of at most
    /// [`TILE`], a region of one period included: one tiled kernel call,
    /// so every pair goes through the same `vecops` arithmetic whatever
    /// the width of the group that reaches it. A longer
    /// period the region repeats: resolved once into a [`PairPlan`] and
    /// replayed. Otherwise — no repetition at this level, or a period too
    /// irregular to resolve — each half of each period on its own.
    fn pair_walk(&self, d: [Diag; 4], lo: &mut [Complex64], hi: &mut [Complex64]) {
        let len = lo.len();
        let d = d.map(|x| self.unlift(x, len));
        let period = self.joint_period(&d, len);
        if period == 1 {
            return pair_const(lo, hi, &d.map(|(_, c)| c));
        }
        if period == len && self.tiled_pairs(&d, lo, hi) {
            return;
        }
        if period <= TILE {
            let tile = self.tile(&d, period);
            return PairTable::with(&tile[..period], |t| t.apply_runs(lo, hi, Complex64::ONE));
        }
        if period < len {
            if let Some(plan) = self.pair_plan(d, period) {
                return plan.run(lo, hi);
            }
        }
        let halves = d.map(|x| self.halves(self.unlift(x, period), period));
        for (lo, hi) in lo.chunks_exact_mut(period).zip(hi.chunks_exact_mut(period)) {
            let (lo_0, lo_1) = lo.split_at_mut(period / 2);
            let (hi_0, hi_1) = hi.split_at_mut(period / 2);
            self.pair_walk(halves.map(|h| h.0), lo_0, hi_0);
            self.pair_walk(halves.map(|h| h.1), lo_1, hi_1);
        }
    }

    /// [`Self::pair_walk`] over a region whose four diagonals are tiles or
    /// constants, one diagonal shared per column — the 2x2 of the four
    /// factors acts after them: `U * diag(X, Y)`, an `RY` on the target
    /// folded onto a diagonal below it — or per row (`diag(X, Y) * U`, the
    /// `RY` first): the two diagonals through their tiles and the 2x2, one
    /// pass each over the region. `false` (nothing done) for any other
    /// region.
    fn tiled_pairs(&self, d: &[Diag; 4], lo: &mut [Complex64], hi: &mut [Complex64]) -> bool {
        let len = lo.len();
        // The diagonal two blocks have in common; a zero block shares any.
        let shared = |a: Diag, b: Diag| {
            if a.1.is_zero() {
                Some(b.0)
            } else if b.1.is_zero() || a.0 == b.0 {
                Some(a.0)
            } else {
                None
            }
        };
        // A shared diagonal's tile (`Some(None)` for a constant, whose
        // value the factors carry).
        let tile = |op: u32| -> Option<Option<&DiagTable>> {
            if op == TERM || op == NO_CHILD {
                return Some(None);
            }
            let node = &self.ops[op as usize];
            match (node.op, node.tile.map(|t| &self.tiles[t as usize])) {
                (Op::Identity, _) => Some(None),
                (_, Some(Tile::Diag(t))) if t.period() == len => Some(Some(t)),
                _ => None,
            }
        };
        let through = |v: &mut [Complex64], t: Option<&DiagTable>| {
            if let Some(t) = t {
                t.apply(v, Complex64::ONE);
            }
        };
        let m = d.map(|(_, c)| c);
        let columns = shared(d[0], d[2]).zip(shared(d[1], d[3]));
        if let Some((Some(x), Some(y))) = columns.map(|(x, y)| (tile(x), tile(y))) {
            through(lo, x);
            through(hi, y);
            pair_const(lo, hi, &m);
            return true;
        }
        let rows = shared(d[0], d[1]).zip(shared(d[2], d[3]));
        if let Some((Some(x), Some(y))) = rows.map(|(x, y)| (tile(x), tile(y))) {
            pair_const(lo, hi, &m);
            through(lo, x);
            through(hi, y);
            return true;
        }
        false
    }

    /// The diagonals `d`, which repeat after `span > TILE` amplitudes,
    /// resolved over one such period; `None` when that needs more than
    /// [`PLAN_LEAVES`] leaves.
    fn pair_plan(&self, d: [Diag; 4], span: usize) -> Option<PairPlan> {
        let mut plan = PairPlan {
            span,
            leaves: Vec::new(),
            tiles: Vec::new(),
        };
        self.resolve(d, 0, span, &mut plan).then_some(plan)
    }

    /// [`Self::pair_walk`] without the amplitudes: descends the four
    /// diagonals `d` together over `[at, at + len)` of a period and records
    /// where they become constant (no leaf for the identity) or repeat with
    /// a period of at most [`TILE`] (one prepared tile per distinct `d`).
    /// `false` once the plan is over [`PLAN_LEAVES`].
    fn resolve(&self, d: [Diag; 4], at: usize, len: usize, plan: &mut PairPlan) -> bool {
        let d = d.map(|x| self.unlift(x, len));
        let step = match self.joint_period(&d, len) {
            1 => {
                let m = d.map(|(_, c)| c);
                if vecops::is_identity(&m) {
                    return true;
                }
                Step::Const(m)
            }
            p if p <= TILE => {
                let known = plan.tiles.iter().position(|(from, _)| *from == d);
                Step::Tile(known.unwrap_or_else(|| {
                    plan.tiles.push((d, PairTable::new(&self.tile(&d, p)[..p])));
                    plan.tiles.len() - 1
                }))
            }
            _ => {
                let halves = d.map(|x| self.halves(x, len));
                return self.resolve(halves.map(|h| h.0), at, len / 2, plan)
                    && self.resolve(halves.map(|h| h.1), at + len / 2, len / 2, plan);
            }
        };
        plan.leaves.push(Leaf { at, len, step });
        plan.leaves.len() <= PLAN_LEAVES
    }

    /// Longest period among the diagonals `d` over a region of `len`
    /// amplitudes (1 = all four constant).
    fn joint_period(&self, d: &[Diag; 4], len: usize) -> usize {
        d.iter().fold(1, |p, &(op, _)| p.max(self.period(op, len)))
    }

    /// One period (the first `p` amplitudes) of the 2x2 matrices the
    /// diagonals `d` form.
    fn tile(&self, d: &[Diag; 4], p: usize) -> [[Complex64; 4]; TILE] {
        let mut tile = [[Complex64::ZERO; 4]; TILE];
        let mut flat = [Complex64::ZERO; TILE];
        for (k, &d_k) in d.iter().enumerate() {
            self.flatten(d_k, &mut flat[..p]);
            for (m, &x) in tile.iter_mut().zip(&flat) {
                m[k] = x;
            }
        }
        tile
    }

    /// Period of the diagonal under `op` over a region of `len` amplitudes
    /// (1 = constant). A `General` node's is the region itself.
    fn period(&self, op: u32, len: usize) -> usize {
        if op == TERM || op == NO_CHILD {
            return 1;
        }
        match self.ops[op as usize].op {
            Op::Identity => 1,
            Op::Kron { half, .. } => 2 * half,
            Op::Lift { block, .. } => block,
            Op::General { .. } => len,
        }
    }

    /// A `Lift` over a region of exactly one of its blocks is its base.
    fn unlift(&self, d: Diag, len: usize) -> Diag {
        match (d.0 != TERM && d.0 != NO_CHILD).then(|| self.ops[d.0 as usize].op) {
            Some(Op::Lift { base, w, block }) if block == len => (base, d.1 * w),
            _ => d,
        }
    }

    /// The diagonal `d` over `len` amplitudes as its lower and upper half.
    fn halves(&self, d: Diag, len: usize) -> (Diag, Diag) {
        let (op, c) = d;
        if op == TERM || op == NO_CHILD {
            return (d, d);
        }
        match self.ops[op as usize].op {
            Op::Kron { half, u } if len == 2 * half => ((TERM, c * u[0]), (TERM, c * u[3])),
            Op::General { child, w } => ((child[0], c * w[0]), (child[3], c * w[3])),
            // The identity, and `I_2 (x) .` chains longer than the region's
            // two halves.
            Op::Identity | Op::Kron { .. } | Op::Lift { .. } => (d, d),
        }
    }

    /// Writes the diagonal `d` over `out.len()` amplitudes, a multiple of
    /// its period, into `out`.
    fn flatten(&self, d: Diag, out: &mut [Complex64]) {
        let (op, c) = d;
        if op == TERM || op == NO_CHILD {
            return out.fill(c);
        }
        match self.ops[op as usize].op {
            Op::Identity => out.fill(c),
            Op::Kron { half, u } => {
                for run in out.chunks_exact_mut(2 * half) {
                    run[..half].fill(c * u[0]);
                    run[half..].fill(c * u[3]);
                }
            }
            Op::Lift { base, w, block } => {
                for run in out.chunks_exact_mut(block) {
                    self.flatten((base, c * w), run);
                }
            }
            Op::General { child, w } => {
                let (lo, hi) = out.split_at_mut(out.len() / 2);
                self.flatten((child[0], c * w[0]), lo);
                self.flatten((child[3], c * w[3]), hi);
            }
        }
    }
}

/// The four blocks of a `General` node as [`Diag`]s under the factor `f`
/// (a zero edge's weight is zero, so its constant is).
fn diagonals(child: &[u32; 4], w: &[Complex64; 4], f: Complex64) -> [Diag; 4] {
    std::array::from_fn(|k| (child[k], f * w[k]))
}

/// In-place `I (x) m (x) I_half` over `v`. A diagonal `m` multiplies only the
/// runs whose entry is not 1 (T touches half of `v`, the Z block of a CZ a
/// quarter of the state; blocks of at most [`TILE`] amplitudes never get
/// here, they are one diagonal table call); a real one above qubit 0 (RY,
/// H, X) runs in real arithmetic ([`Real2x2`]), which leaves every
/// amplitude as the complex kernel does.
fn kron_in_place(v: &mut [Complex64], m: &[Complex64; 4], half: usize) {
    if !(m[1].is_zero() && m[2].is_zero()) {
        if half == 1 {
            vecops::pairs2x2(v, m);
        } else if let Some(real) = Real2x2::of(m, half) {
            vecops::real_2x2_group(v, &[real]);
        } else {
            PairTable::with(std::slice::from_ref(m), |t| {
                t.apply(v, half, Complex64::ONE)
            });
        }
    } else {
        for block in v.chunks_exact_mut(2 * half) {
            let (lo, hi) = block.split_at_mut(half);
            pair_const(lo, hi, m);
        }
    }
}

/// `(lo[i], hi[i]) = m * (lo[i], hi[i])` with one `m` for the whole region;
/// a diagonal `m` scales only the run whose entry is not 1.
fn pair_const(lo: &mut [Complex64], hi: &mut [Complex64], m: &[Complex64; 4]) {
    if m[1].is_zero() && m[2].is_zero() {
        if m[0] != Complex64::ONE {
            vecops::scale_in_place(lo, m[0]);
        }
        if m[3] != Complex64::ONE {
            vecops::scale_in_place(hi, m[3]);
        }
    } else {
        vecops::apply_2x2(lo, hi, m);
    }
}

/// Which side of a sub-matrix block picks the group that evaluates it: its
/// row (`Assign`, Algorithm 1) or its column (`AssignCache`, Algorithm 2).
#[derive(Clone, Copy)]
pub(crate) enum Space {
    Row,
    Column,
}

/// What the descent to the border level yields per group: the paper's
/// `v_M`, `v_V` (row space) or `v_P` (column space), and `v_f`.
pub(crate) struct TaskLists {
    pub(crate) m_edges: Vec<Vec<MEdge>>,
    /// Start index of each task's sub-vector on the side its group does
    /// not own: in `V` for [`Space::Row`], in the output for
    /// [`Space::Column`].
    pub(crate) at: Vec<Vec<usize>>,
    pub(crate) f: Vec<Vec<Complex64>>,
}

/// `Assign` (Algorithm 1, lines 8-14) and `AssignCache` (Algorithm 2,
/// lines 16-21) for matrix `m` over `n` qubits in `t` groups: `t` must be a
/// power of two with `log2(t) <= n`, otherwise
/// [`FlatDdError::InvalidInput`] is returned.
pub(crate) fn assign_tasks(
    pkg: &DdPackage,
    m: MEdge,
    n: usize,
    t: usize,
    space: Space,
) -> Result<TaskLists, FlatDdError> {
    if !t.is_power_of_two() {
        return Err(FlatDdError::InvalidInput(format!(
            "thread count must be a power of two, got {t}"
        )));
    }
    let log_t = t.trailing_zeros() as usize;
    if log_t > n {
        return Err(FlatDdError::InvalidInput(format!(
            "need log2(t) <= n for the border-level scheme, got t={t} n={n}"
        )));
    }
    let mut descent = Descent {
        pkg,
        n,
        t,
        border: n as i64 - log_t as i64 - 1,
        space,
        tasks: TaskLists {
            m_edges: vec![Vec::new(); t],
            at: vec![Vec::new(); t],
            f: vec![Vec::new(); t],
        },
    };
    descent.assign(m, Complex64::ONE, 0, 0, n as i64 - 1);
    Ok(descent.tasks)
}

/// The recursion of [`assign_tasks`] and what it carries unchanged.
struct Descent<'a> {
    pkg: &'a DdPackage,
    n: usize,
    t: usize,
    border: i64,
    space: Space,
    tasks: TaskLists,
}

impl Descent<'_> {
    fn assign(&mut self, m_r: MEdge, f_r: Complex64, u: usize, at: usize, l: i64) {
        if m_r.is_zero() {
            return;
        }
        if l == self.border {
            self.tasks.m_edges[u].push(m_r);
            self.tasks.at[u].push(at);
            self.tasks.f[u].push(f_r);
            return;
        }
        let pkg = self.pkg;
        let node = pkg.m_node(m_r.n);
        debug_assert_eq!(node.level as i64, l);
        let e = node.e;
        let w = f_r * pkg.cval(m_r.w);
        // t / 2^(n-l)
        let stride = self.t >> (self.n as i64 - l) as usize;
        // Group-major traversal: the group index follows the block's row
        // `i` in row space and its column `j` in column space (Algorithm 2,
        // lines 20-21); the sub-vector index follows the other one.
        for own in 0..2usize {
            for other in 0..2usize {
                let (i, j) = match self.space {
                    Space::Row => (own, other),
                    Space::Column => (other, own),
                };
                self.assign(e[2 * i + j], w, u + own * stride, at + (other << l), l - 1);
            }
        }
    }
}

/// The per-thread multiplication tasks produced by `Assign`
/// (the paper's `v_M`, `v_V`, `v_f`).
pub struct DmavAssignment {
    /// Thread count (power of two).
    pub t: usize,
    /// Sub-vector size `h = 2^n / t`.
    pub h: usize,
    /// Qubit count.
    pub n: usize,
    /// Sub-matrix DD edges per thread (`v_M`).
    pub m_edges: Vec<Vec<MEdge>>,
    /// Sub-vector start indices in `V` per thread (`v_V`).
    pub iv: Vec<Vec<usize>>,
    /// Weight products along the descent, excluding the stored edge's own
    /// weight (`v_f`).
    pub f: Vec<Vec<Complex64>>,
    /// The sub-DD under `m_edges`, compiled; what `Run` executes.
    program: Program,
    /// Per task, its entry into `program` (parallel to `m_edges`).
    entries: Vec<Vec<Entry>>,
    /// Every group has exactly one task, on its own rows, that
    /// [`Program::run_in_place`] accepts.
    in_place: bool,
    /// Largest [`Node::mix`] of the groups' entries.
    mix: usize,
    /// In place, and every group's entry is a real one-qubit matrix.
    real_one_qubit: bool,
}

impl DmavAssignment {
    /// Runs `Assign` (Algorithm 1, lines 8-14) for matrix `m` over `n`
    /// qubits on `t` threads. Panicking wrapper over [`Self::try_build`]
    /// for callers that have already validated `t` (tests, benches).
    pub fn build(pkg: &DdPackage, m: MEdge, n: usize, t: usize) -> Self {
        Self::try_build(pkg, m, n, t).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible `Assign`: `t` must be a power of two with `log2(t) <= n`,
    /// otherwise [`FlatDdError::InvalidInput`] is returned.
    pub fn try_build(pkg: &DdPackage, m: MEdge, n: usize, t: usize) -> Result<Self, FlatDdError> {
        let RowSpace {
            tasks,
            mut program,
            entries,
            in_place,
        } = compile_row_space(pkg, m, n, t)?;
        if in_place {
            program.plant_tiles(entries.iter().map(|e| e[0].op), TILE_BYTES);
        }
        let mix = entries
            .iter()
            .flat_map(|e| e.first())
            .map(|e| program.ops.get(e.op as usize).map_or(0, |node| node.mix))
            .max()
            .unwrap_or(0);
        let real_one_qubit = in_place && entries.iter().all(|e| program.real_kron(e[0]).is_some());
        Ok(DmavAssignment {
            t,
            h: (1usize << n) / t,
            n,
            m_edges: tasks.m_edges,
            iv: tasks.at,
            f: tasks.f,
            program,
            entries,
            in_place,
            mix: mix.into(),
            real_one_qubit,
        })
    }

    /// For an assignment that is [`Self::in_place`]: every aligned block of
    /// `2^mixing_level()` amplitudes is mapped onto itself — rows mix only
    /// below that level — so the matrix can join a run of
    /// [`dmav_run_in_place`] at any level at or above it.
    pub fn mixing_level(&self) -> usize {
        self.mix
    }

    /// Whether [`dmav_in_place`] can apply this assignment: the matrix maps
    /// every group's rows onto themselves, through structure the in-place
    /// walk knows. At one group that is every single gate matrix
    /// (`DdPackage::gate_dd`); general fused products, and at `t > 1` gates
    /// whose structure crosses the border level, are not.
    pub fn in_place(&self) -> bool {
        self.in_place
    }

    /// Whether the plan is in place and applies, on every group, one real
    /// one-qubit matrix above qubit 0 (an RY, H or X, or a same-qubit
    /// product of them): a matrix [`dmav_run_in_place`] takes with up to
    /// [`REAL_GROUP`]` - 1` more such on other qubits in one register pass,
    /// so a run of them streams the state once whatever level they mix at.
    pub fn real_one_qubit(&self) -> bool {
        self.real_one_qubit
    }

    /// Total number of tasks across threads.
    pub fn total_tasks(&self) -> usize {
        self.m_edges.iter().map(|v| v.len()).sum()
    }

    /// Heap bytes held by the task lists and the compiled program (for
    /// plan-cache accounting).
    pub fn memory_bytes(&self) -> usize {
        task_list_bytes(&self.m_edges)
            + self.program.memory_bytes()
            + 4 * self.t * std::mem::size_of::<Vec<()>>()
    }
}

/// `Assign` and the compile of its sub-DD, before any tile is planted.
struct RowSpace {
    tasks: TaskLists,
    program: Program,
    entries: Vec<Vec<Entry>>,
    /// Every group has exactly one task, on its own rows, that
    /// [`Program::run_in_place`] accepts.
    in_place: bool,
}

/// [`RowSpace`] of `m` over `n` qubits in `t` groups.
fn compile_row_space(
    pkg: &DdPackage,
    m: MEdge,
    n: usize,
    t: usize,
) -> Result<RowSpace, FlatDdError> {
    let tasks = assign_tasks(pkg, m, n, t, Space::Row)?;
    let (program, entries) = Program::compile(pkg, n, &tasks.m_edges, &tasks.f);
    let h = (1usize << n) / t;
    let in_place = entries.iter().zip(&tasks.at).enumerate().all(|(g, (e, at))| {
        matches!((&e[..], &at[..]), ([e], [at]) if *at == g * h && program.in_place(e.op))
    });
    Ok(RowSpace {
        tasks,
        program,
        entries,
        in_place,
    })
}

/// The group counts a plan at `t` groups narrows through: `t, t/2, ..., 1`.
pub(crate) fn narrowing(t: usize) -> impl Iterator<Item = usize> {
    std::iter::successors(Some(t), |&g| (g > 1).then_some(g / 2))
}

/// The widest group count of [`narrowing`]`(t)` at which `m`'s assignment
/// over `n` qubits is [`DmavAssignment::in_place`], found without building
/// tiles; `None` when `m` has no in-place form (or `t` no assignment).
pub(crate) fn in_place_groups(pkg: &DdPackage, m: MEdge, n: usize, t: usize) -> Option<usize> {
    for g in narrowing(t) {
        if compile_row_space(pkg, m, n, g).ok()?.in_place {
            return Some(g);
        }
    }
    None
}

/// Heap bytes of the per-task vectors (edge, index, weight product, entry)
/// of either assignment kind.
pub(crate) fn task_list_bytes(m_edges: &[Vec<MEdge>]) -> usize {
    let per_task = std::mem::size_of::<MEdge>()
        + std::mem::size_of::<usize>()
        + std::mem::size_of::<Complex64>()
        + std::mem::size_of::<Entry>();
    m_edges.iter().map(|v| v.capacity() * per_task).sum()
}

/// DMAV without caching: `W = M * V` with `M` a matrix DD and `V`, `W` flat
/// arrays. `w` is fully overwritten; what it held before is never read.
///
/// `Run` (Algorithm 1, lines 16-22) executes the assignment's compiled
/// program; the package is not consulted. The assignment's `asg.t` groups
/// are the dispatch shards: [`ThreadPool::for_each_part`] hands group `g`
/// its output rows `[g*h, (g+1)*h)`, so a worker keeps writing the shards
/// it first-touched whatever the pool size.
pub fn dmav_no_cache(
    _pkg: &DdPackage,
    asg: &DmavAssignment,
    v: &[Complex64],
    w: &mut [Complex64],
    pool: &ThreadPool,
) {
    assert_eq!(v.len(), 1usize << asg.n);
    assert_eq!(w.len(), v.len());
    let h = asg.h;
    pool.for_each_part(w.chunks_exact_mut(h).enumerate(), |(g, chunk)| {
        // Every task of the group covers all `h` rows from another column
        // block: the first stores, the rest accumulate.
        for (j, (entry, &i_v)) in asg.entries[g].iter().zip(&asg.iv[g]).enumerate() {
            asg.program
                .run(entry.op, entry.f, &v[i_v..i_v + h], chunk, j > 0);
        }
        if asg.entries[g].is_empty() {
            chunk.fill(Complex64::ZERO);
        }
    });
}

/// DMAV in place: `V = M * V` for an assignment that is
/// [`DmavAssignment::in_place`] — one state vector, no `W`. Each group runs
/// its one task on its own rows of `v`; identity blocks are not touched. A
/// run of one ([`dmav_run_in_place`]) whose block is the group's rows.
///
/// # Panics
/// When the assignment is not in place (run [`dmav_no_cache`] instead).
pub fn dmav_in_place(asg: &DmavAssignment, v: &mut [Complex64], pool: &ThreadPool) {
    dmav_run_in_place(&[asg], v, pool, asg.n);
}

/// Block level of the engine's runs: 2^16 amplitudes, 1 MiB — half the
/// 2 MiB L2 of the reference box (EXPERIMENTS.md), so a block stays cached
/// through a run of matrices while the next one streams in. Swept over 10–18 on `dnn(20, 5)` and
/// `supremacy_n(21, 4)` (EXPERIMENTS.md, "Blocked flat runs"): 15–17 is a
/// plateau, below it fewer matrices qualify and each extra block costs a
/// descent per matrix.
pub const BLOCK_LEVEL: usize = 16;

/// `V = M_k * ... * M_1 * V` for the run `[M_1, ..., M_k]` in one dispatch:
/// every group walks its rows in blocks of `2^min(level, log2 h)`
/// amplitudes and takes each block through every matrix of the run in
/// order, so a block is loaded once per run instead of once per matrix.
/// Each matrix runs the in-place walk (`Program::run_in_place`) entered
/// where it meets the block — consecutive real one-qubit matrices on
/// distinct qubits as one [`vecops::real_2x2_group`] pass — so the state
/// comes out as one [`dmav_in_place`] per matrix leaves it (amplitude for
/// amplitude, at blocks of at least two AVX2 registers).
///
/// # Panics
/// Unless every assignment is [`DmavAssignment::in_place`] over the same
/// `n` and group count, with a [`DmavAssignment::mixing_level`] of at most
/// the block's.
pub fn dmav_run_in_place(
    run: &[&DmavAssignment],
    v: &mut [Complex64],
    pool: &ThreadPool,
    level: usize,
) {
    let Some(first) = run.first() else {
        return;
    };
    let (n, t, h) = (first.n, first.t, first.h);
    let block = h.min(1usize << level.min(usize::BITS as usize - 1));
    let block_level = block.trailing_zeros() as usize;
    for asg in run {
        assert!(asg.in_place, "assignment has no in-place form");
        assert_eq!((asg.n, asg.t), (n, t), "a run shares one geometry");
        assert!(asg.mix <= block_level, "rows mix across a block of {block}");
    }
    assert_eq!(v.len(), 1usize << n);
    // Group `g` needs its own rows only: the one task of every assignment
    // in the run starts at column `g*h` (checked by `try_build`), and each
    // matrix maps every aligned block of `block` rows onto itself (`mix`,
    // asserted above).
    pool.for_each_part(v.chunks_exact_mut(h).enumerate(), |(g, rows)| {
        for (b, v_b) in rows.chunks_exact_mut(block).enumerate() {
            let mut group = RealGroup::default();
            for asg in run {
                let entry = asg.program.enter(asg.entries[g][0], h, b * block, block);
                match asg.program.real_kron(entry) {
                    Some(m) => group.push(m, v_b),
                    None => {
                        group.flush(v_b);
                        asg.program.run_in_place(entry.op, entry.f, v_b);
                    }
                }
            }
            group.flush(v_b);
        }
    });
}

/// Consecutive real one-qubit matrices of a run on distinct qubits, held
/// until a matrix that cannot join arrives and then applied to the block in
/// one [`vecops::real_2x2_group`] pass.
#[derive(Default)]
struct RealGroup {
    gates: [Real2x2; REAL_GROUP],
    len: usize,
}

impl RealGroup {
    /// Adds `m`, applying the group to `v` first when `m` cannot join it
    /// (full, or a matrix on `m`'s qubit already in it).
    fn push(&mut self, m: Real2x2, v: &mut [Complex64]) {
        if self.len == REAL_GROUP || self.gates[..self.len].iter().any(|g| g.half == m.half) {
            self.flush(v);
        }
        self.gates[self.len] = m;
        self.len += 1;
    }

    /// Applies the held matrices to `v`, in order, and empties the group.
    fn flush(&mut self, v: &mut [Complex64]) {
        if self.len > 0 {
            vecops::real_2x2_group(v, &self.gates[..self.len]);
        }
        self.len = 0;
    }
}

/// Convenience: assignment + execution in one call.
pub fn dmav(pkg: &DdPackage, m: MEdge, v: &[Complex64], w: &mut [Complex64], pool: &ThreadPool) {
    let n = v.len().trailing_zeros() as usize;
    let asg = DmavAssignment::build(pkg, m, n, pool.size());
    dmav_no_cache(pkg, &asg, v, w, pool);
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::complex::state_distance;
    use qcircuit::gate::{Control, Gate, GateKind};
    use qcircuit::{dense, generators};

    const TOL: f64 = 1e-9;

    fn rand_state(n: usize, seed: u64) -> Vec<Complex64> {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x as f64 / u64::MAX as f64) - 0.5
        };
        (0..(1usize << n))
            .map(|_| Complex64::new(next(), next()))
            .collect()
    }

    #[test]
    fn figure_5_shape_two_threads_three_qubits() {
        // n=3, t=2: border level q1. H on the top qubit gives each thread
        // two tasks (a*m2*V[0:4] / b*m2*V[4:8] for the blue thread).
        let pkg = DdPackage::default();
        let m = pkg.gate_dd(&Gate::new(GateKind::H, 2), 3);
        let asg = DmavAssignment::build(&pkg, m, 3, 2);
        assert_eq!(asg.h, 4);
        assert_eq!(asg.m_edges[0].len(), 2);
        assert_eq!(asg.m_edges[1].len(), 2);
        assert_eq!(asg.iv[0], vec![0, 4]);
        assert_eq!(asg.iv[1], vec![0, 4]);
        // Both of thread 0's tasks reference the same sub-matrix node (m2).
        assert_eq!(asg.m_edges[0][0].n, asg.m_edges[0][1].n);
    }

    #[test]
    fn zero_blocks_produce_no_tasks() {
        // A controlled gate's matrix has zero off-diagonal blocks at the
        // control level, so threads covering those rows get fewer tasks.
        let pkg = DdPackage::default();
        let g = Gate::controlled(GateKind::X, 0, vec![Control::pos(3)]);
        let m = pkg.gate_dd(&g, 4);
        let asg = DmavAssignment::build(&pkg, m, 4, 2);
        // Block structure: diag(I, X_block) — each thread exactly one task.
        assert_eq!(asg.m_edges[0].len(), 1);
        assert_eq!(asg.m_edges[1].len(), 1);
        assert_eq!(asg.iv[0], vec![0]);
        assert_eq!(asg.iv[1], vec![8]);
    }

    #[test]
    fn fused_matrices_multiply_correctly() {
        // DMAV must work for arbitrary (non-gate) DDs, e.g. fused products.
        let n = 5;
        let c = generators::random_circuit(n, 10, 3);
        let pkg = DdPackage::default();
        let mut fused = pkg.identity_dd(n);
        for g in c.iter() {
            let gd = pkg.gate_dd(g, n);
            fused = pkg.mul_mm(gd, fused);
        }
        let v = rand_state(n, 5);
        let mut w = vec![Complex64::ZERO; 1 << n];
        let pool = ThreadPool::new(4);
        dmav(&pkg, fused, &v, &mut w, &pool);
        let mut want = v.clone();
        for g in c.iter() {
            dense::apply_gate(&mut want, g);
        }
        assert!(state_distance(&w, &want) < TOL);
    }

    #[test]
    fn whole_circuit_via_dmav_matches_dense() {
        let n = 6;
        let c = generators::supremacy(2, 3, 5, 9);
        let pkg = DdPackage::default();
        let pool = ThreadPool::new(4);
        let mut v = dense::zero_state(n);
        let mut w = vec![Complex64::ZERO; 1 << n];
        for g in c.iter() {
            let m = pkg.gate_dd(g, n);
            dmav(&pkg, m, &v, &mut w, &pool);
            std::mem::swap(&mut v, &mut w);
        }
        assert!(state_distance(&v, &dense::simulate(&c)) < TOL);
    }

    #[test]
    fn shard_count_decoupled_from_pool_size() {
        // The assignment's group count (shards) no longer has to match the
        // pool: workers claim groups round-robin.
        let n = 6;
        let pkg = DdPackage::default();
        let g = Gate::controlled(GateKind::H, 5, vec![Control::neg(1)]);
        let m = pkg.gate_dd(&g, n);
        let v = rand_state(n, 11);
        let mut want = v.clone();
        dense::apply_gate(&mut want, &g);
        for (threads, shards) in [(2usize, 8usize), (4, 2), (1, 4), (3, 8), (4, 16)] {
            let asg = DmavAssignment::build(&pkg, m, n, shards);
            let mut w = vec![Complex64::ZERO; 1 << n];
            let pool = ThreadPool::new(threads);
            dmav_no_cache(&pkg, &asg, &v, &mut w, &pool);
            assert!(state_distance(&w, &want) < TOL, "t={threads} s={shards}");
        }
    }

    /// Largest element-wise error; infinite when `got` holds a NaN
    /// (`state_distance` folds with `f64::max`, which drops NaNs).
    fn max_err(got: &[Complex64], want: &[Complex64]) -> f64 {
        got.iter().zip(want).fold(0.0, |acc: f64, (&a, &b)| {
            let d = (a - b).abs();
            if d.is_nan() {
                f64::INFINITY
            } else {
                acc.max(d)
            }
        })
    }

    /// Every DMAV variant of `m` over `t` groups on `pool`: plain and
    /// cached, each into a `W` pre-filled with NaN so a row the walk fails
    /// to store shows, and — when the plain assignment has one — in place on
    /// a copy of `v`. Also returns whether it has one.
    fn all_variants(
        pkg: &DdPackage,
        m: MEdge,
        n: usize,
        t: usize,
        pool: &ThreadPool,
        v: &[Complex64],
    ) -> (Vec<(&'static str, Vec<Complex64>)>, bool) {
        use crate::dmav_cache::{dmav_cached, DmavCacheAssignment, PartialBuffers};
        let nan = Complex64::new(f64::NAN, f64::NAN);
        let mut plain = vec![nan; 1 << n];
        let plain_asg = DmavAssignment::build(pkg, m, n, t);
        dmav_no_cache(pkg, &plain_asg, v, &mut plain, pool);
        let mut cached = vec![nan; 1 << n];
        let asg = DmavCacheAssignment::build(pkg, m, n, t);
        dmav_cached(
            pkg,
            &asg,
            v,
            &mut cached,
            pool,
            &mut PartialBuffers::default(),
        );
        let mut variants = vec![("plain", plain), ("cached", cached)];
        if plain_asg.in_place() {
            let mut in_place = v.to_vec();
            dmav_in_place(&plain_asg, &mut in_place, pool);
            variants.push(("in place", in_place));
        }
        (variants, plain_asg.in_place())
    }

    #[test]
    fn compiled_walk_matches_dense_on_the_whole_gate_grid() {
        // Every gate kind x every target x controls {none, one, two} x
        // {positive, negative} x {above, below, both sides} x group counts
        // up to `2^(n-1)` (border level 0) on pools of another size x
        // {plain, cached, in place}. At one group every gate matrix must
        // have an in-place form.
        let n = 6;
        let unitary = {
            let (h, t) = (GateKind::H.matrix(), GateKind::T.matrix());
            [h[0] * t[0], h[1] * t[3], h[2] * t[0], h[3] * t[3]]
        };
        let kinds = [
            GateKind::Id,
            GateKind::X,
            GateKind::Y,
            GateKind::Z,
            GateKind::H,
            GateKind::S,
            GateKind::Sdg,
            GateKind::T,
            GateKind::Tdg,
            GateKind::SqrtX,
            GateKind::SqrtXdg,
            GateKind::SqrtY,
            GateKind::SqrtYdg,
            GateKind::SqrtW,
            GateKind::RX(0.7),
            GateKind::RY(-1.3),
            GateKind::RZ(2.1),
            GateKind::Phase(0.4),
            GateKind::U(0.3, 1.1, -0.8),
            GateKind::Unitary(unitary),
        ];
        let pools = [ThreadPool::new(1), ThreadPool::new(2), ThreadPool::new(3)];
        // (groups, index of a pool whose size differs from it)
        let geometries = [(1usize, 1usize), (2, 2), (4, 0), (8, 2), (32, 1)];
        let v = rand_state(n, 41);
        let mut in_place_beyond_one_group = 0;
        for kind in kinds {
            for q in 0..n {
                let below = if q > 0 { q - 1 } else { q + 2 };
                let above = if q < n - 1 { q + 1 } else { q - 2 };
                // Farthest qubits on either side (the target itself at the
                // ends, where the shape falls back to the near one).
                let (lowest, highest) = (
                    if q > 0 { 0 } else { below },
                    if q < n - 1 { n - 1 } else { above },
                );
                let control_shapes = [
                    vec![],
                    vec![Control::pos(above)],
                    vec![Control::pos(below)],
                    vec![Control::neg(above)],
                    vec![Control::neg(below)],
                    vec![Control::neg((q + 3) % n)],
                    vec![Control::pos((q + 3) % n)],
                    vec![Control::pos(lowest)],
                    vec![Control::neg(highest)],
                    vec![Control::pos(below), Control::neg(above)],
                    vec![Control::pos(below), Control::pos(above)],
                    vec![Control::neg(lowest), Control::pos(highest)],
                ];
                for controls in control_shapes {
                    let g = Gate::controlled(kind, q, controls);
                    let mut want = v.clone();
                    dense::apply_gate(&mut want, &g);
                    let pkg = DdPackage::default();
                    let m = pkg.gate_dd(&g, n);
                    // The one-group in-place result: every group count that
                    // runs in place must end on its bits.
                    let mut one_group: Option<Vec<u64>> = None;
                    for (t, pool) in geometries {
                        let (variants, in_place) = all_variants(&pkg, m, n, t, &pools[pool], &v);
                        assert!(in_place || t > 1, "{g}: no in-place form at one group");
                        if in_place {
                            let got = &variants.last().expect("the in-place variant").1;
                            let bits = got.iter().flat_map(|z| [z.re.to_bits(), z.im.to_bits()]);
                            let bits: Vec<u64> = bits.collect();
                            let want_bits = one_group.get_or_insert_with(|| bits.clone());
                            assert!(bits == *want_bits, "{g} t={t}: in place changed bits");
                        }
                        // The guard that keeps the single-gate workloads on
                        // the walk they were tuned on.
                        let tiles = DmavAssignment::build(&pkg, m, n, t).program.tiles.len();
                        assert_eq!(tiles, 0, "{g} t={t}: a single gate built a tile");
                        in_place_beyond_one_group += usize::from(in_place && t > 1);
                        for (variant, got) in &variants {
                            let err = max_err(got, &want);
                            assert!(err < 1e-12, "{variant} {g} t={t}: {err:e}");
                        }
                    }
                }
            }
        }
        // Gates whose structure stays below the border level keep their
        // in-place form under sharding.
        assert!(in_place_beyond_one_group > 1000);
    }

    #[test]
    fn two_controls_on_one_side_run_in_place() {
        // Toffoli shapes the grid's one-per-side pairs do not reach: both
        // controls below the target (a diagonal block that is itself a
        // general node) and both above, at a size where the pair walk
        // descends before it tiles.
        let n = 9;
        let v = rand_state(n, 43);
        let pool = ThreadPool::new(2);
        // (7, 0, 5): below the top qubit, so the resolved plan is replayed
        // per block of an `I_2 (x) .` chain.
        for (target, c0, c1) in [
            (7, 0, 5),
            (8, 0, 6),
            (8, 5, 6),
            (7, 1, 2),
            (0, 3, 8),
            (4, 0, 8),
            (6, 5, 7),
        ] {
            for kind in [GateKind::X, GateKind::H, GateKind::T] {
                let g = Gate::controlled(kind, target, vec![Control::pos(c0), Control::neg(c1)]);
                let mut want = v.clone();
                dense::apply_gate(&mut want, &g);
                let pkg = DdPackage::default();
                let m = pkg.gate_dd(&g, n);
                for t in [1usize, 2, 8] {
                    let (variants, in_place) = all_variants(&pkg, m, n, t, &pool, &v);
                    assert!(in_place || t > 1, "{g}");
                    let tiles = DmavAssignment::build(&pkg, m, n, t).program.tiles.len();
                    assert_eq!(tiles, 0, "{g} t={t}: a single gate built a tile");
                    for (variant, got) in &variants {
                        let err = max_err(got, &want);
                        assert!(err < 1e-12, "{variant} {g} t={t}: {err:e}");
                    }
                }
            }
        }
    }

    #[test]
    fn in_place_walk_leaves_identity_blocks_untouched() {
        // CX controlled from above: the control-off half of the state is
        // never written, so NaNs parked there survive (a scale by 1 or a
        // copy would not tell; a touch of any kind turns up in `dense`).
        let n = 8;
        let pkg = DdPackage::default();
        let g = Gate::controlled(GateKind::X, 2, vec![Control::pos(n - 1)]);
        let asg = DmavAssignment::build(&pkg, pkg.gate_dd(&g, n), n, 1);
        assert!(asg.in_place());
        let mut v = rand_state(n, 47);
        let mut want = v.clone();
        dense::apply_gate(&mut want, &g);
        let half = 1 << (n - 1);
        let before = v[..half].to_vec();
        dmav_in_place(&asg, &mut v, &ThreadPool::new(1));
        assert!(v[..half] == before[..], "identity block was rewritten");
        assert!(max_err(&v, &want) < 1e-12);
    }

    /// The product of `gates` as one matrix DD.
    fn product(pkg: &DdPackage, gates: &[Gate], n: usize) -> MEdge {
        gates.iter().fold(pkg.identity_dd(n), |fused, g| {
            pkg.mul_mm(pkg.gate_dd(g, n), fused)
        })
    }

    /// `m * v` through the DD's own dense matrix, so interning error inside
    /// `mul_mm` is not the walk's to answer for.
    fn dense_product(pkg: &DdPackage, m: MEdge, n: usize, v: &[Complex64]) -> Vec<Complex64> {
        let dim = 1usize << n;
        let dense_m = pkg.matrix_to_dense(m, n);
        (0..dim)
            .map(|r| {
                (0..dim).fold(Complex64::ZERO, |acc, c| {
                    acc.mac(dense_m[r * dim + c], v[c])
                })
            })
            .collect()
    }

    #[test]
    fn compiled_walk_matches_the_dd_matrix_on_random_fused_products() {
        // Products of 10-30 random gates: general nodes at every level, no
        // in-place form at any group count, the out-of-place walk as before.
        let pool = ThreadPool::new(3);
        for (n, gates, seed) in [(5usize, 10usize, 3u64), (6, 17, 5), (7, 24, 7), (8, 30, 9)] {
            let pkg = DdPackage::default();
            let c = generators::random_circuit(n, gates, seed);
            let fused = product(&pkg, c.gates(), n);
            let v = rand_state(n, seed);
            let want = dense_product(&pkg, fused, n, &v);
            for t in [1usize, 2, 4, 8] {
                let (variants, in_place) = all_variants(&pkg, fused, n, t, &pool, &v);
                assert!(!in_place, "n={n} t={t}: a general product ran in place");
                for (variant, got) in &variants {
                    let err = max_err(got, &want);
                    assert!(err < 1e-12, "{variant} n={n} t={t}: {err:e}");
                }
            }
        }
    }

    #[test]
    fn zero_row_products_fall_back_to_the_write_once_walk() {
        // A projector on the top qubit times gates below it: the lower half
        // of the rows is zero, and the block that is not is not diagonal.
        // No in-place form; the out-of-place walk zero-fills those rows.
        let n = 6;
        let zero = Complex64::ZERO;
        let projector = GateKind::Unitary([Complex64::ONE, zero, zero, zero]);
        let pkg = DdPackage::default();
        let gates = [
            Gate::new(GateKind::H, 2),
            Gate::controlled(GateKind::X, 4, vec![Control::pos(1)]),
            Gate::new(projector, n - 1),
        ];
        let fused = product(&pkg, &gates, n);
        let v = rand_state(n, 53);
        let want = dense_product(&pkg, fused, n, &v);
        assert!(want[1 << (n - 1)..].iter().all(|a| a.is_zero()));
        let pool = ThreadPool::new(2);
        for t in [1usize, 2, 4] {
            let (variants, in_place) = all_variants(&pkg, fused, n, t, &pool, &v);
            assert!(!in_place, "t={t}: a zero-row product ran in place");
            for (variant, got) in &variants {
                let err = max_err(got, &want);
                assert!(err < 1e-12, "{variant} t={t}: {err:e}");
            }
        }
    }

    #[test]
    fn fused_diagonal_products_run_in_place() {
        // A product of diagonal gates is one diagonal matrix with distinct
        // entries everywhere: in place through nested block-diagonal nodes,
        // and under a control from below through a pair walk that descends
        // to single amplitudes.
        let n = 7;
        let pkg = DdPackage::default();
        let phases: Vec<Gate> = (0..n)
            .map(|q| Gate::new(GateKind::RZ(0.3 + q as f64), q))
            .chain((0..n - 1).map(|q| {
                Gate::controlled(
                    GateKind::Phase(0.2 * (q + 1) as f64),
                    q + 1,
                    vec![Control::pos(q)],
                )
            }))
            .collect();
        let diagonal = product(&pkg, &phases, n);
        let mut with_x = phases.clone();
        with_x.push(Gate::new(GateKind::X, n - 1));
        let v = rand_state(n, 59);
        let pool = ThreadPool::new(2);
        for m in [diagonal, product(&pkg, &with_x, n)] {
            let want = dense_product(&pkg, m, n, &v);
            let (variants, in_place) = all_variants(&pkg, m, n, 1, &pool, &v);
            assert!(in_place);
            for (variant, got) in &variants {
                let err = max_err(got, &want);
                assert!(err < 1e-12, "{variant}: {err:e}");
            }
        }
        // 13 qubits, the phases on the low 11 and qubit 11 left alone: under
        // the X the 2^11 distinct 2x2 matrices repeat once, a period with
        // more leaves than one plan holds, so the walk gives up resolving it
        // and splits it. Too large for the dense matrix; the out-of-place
        // walk over the same DD is the oracle.
        let n = 13;
        let mut gates: Vec<Gate> = (0..n - 2)
            .map(|q| Gate::new(GateKind::RZ(0.3 + q as f64), q))
            .collect();
        gates.extend((0..n - 3).map(|q| {
            let phase = GateKind::Phase(0.2 * (q + 1) as f64);
            Gate::controlled(phase, q + 1, vec![Control::pos(q)])
        }));
        gates.push(Gate::new(GateKind::X, n - 1));
        let v = rand_state(n, 61);
        let (variants, in_place) = all_variants(&pkg, product(&pkg, &gates, n), n, 1, &pool, &v);
        assert!(in_place);
        let [(_, plain), _, (_, got)] = &variants[..] else {
            panic!("plain, cached, in place");
        };
        assert!(max_err(got, plain) < 1e-12);
    }

    /// `dnn`'s entangling layer on `n` qubits: CX–RZ–CX on every
    /// neighbouring pair, one irregular diagonal.
    fn zz_ladder(n: usize) -> Vec<Gate> {
        (0..n - 1)
            .flat_map(|q| {
                let cx = Gate::controlled(GateKind::X, q + 1, vec![Control::pos(q)]);
                let rz = Gate::new(GateKind::RZ(0.4 + 0.3 * q as f64), q + 1);
                [cx.clone(), rz, cx]
            })
            .collect()
    }

    /// The fused shapes that get tiles, each times a phase so that no task
    /// enters its program with a factor of 1: the ladder (a diagonal), `RY`
    /// on qubit 0 after it (one pair stride of 1 over it), and `RY` on the
    /// top qubit after and before it (a pair walk over its two halves,
    /// sharing a diagonal per column and per row).
    fn tiled_products(pkg: &DdPackage, n: usize) -> Vec<(&'static str, MEdge)> {
        let ry = |q| Gate::new(GateKind::RY(1.1), q);
        let zz = zz_ladder(n);
        let phase = pkg.cval(pkg.gate_dd(&Gate::new(GateKind::RZ(0.9), 0), n).w);
        [
            ("zz", zz.clone()),
            ("ry0·zz", [zz.clone(), vec![ry(0)]].concat()),
            ("ry_top·zz", [zz.clone(), vec![ry(n - 1)]].concat()),
            ("zz·ry_top", [vec![ry(n - 1)], zz].concat()),
        ]
        .into_iter()
        .map(|(name, gates)| {
            let m = product(pkg, &gates, n);
            let w = pkg.clookup(pkg.cval(m.w) * phase);
            (name, MEdge { n: m.n, w })
        })
        .collect()
    }

    #[test]
    fn diagonal_and_pair_stride_tiles_match_dense() {
        // n = 8: the tiles sit at the task entries themselves — the whole
        // matrix at one group (a pair stride of 128 for the `RY` on the
        // top qubit), the border-level nodes at 2, 4 and 8 groups, where
        // the top-qubit products have no in-place form.
        let n = 8;
        let pkg = DdPackage::default();
        let pool = ThreadPool::new(2);
        let v = rand_state(n, 67);
        for (name, m) in tiled_products(&pkg, n) {
            let want = dense_product(&pkg, m, n, &v);
            for t in [1usize, 2, 4, 8] {
                let asg = DmavAssignment::build(&pkg, m, n, t);
                if !asg.in_place() {
                    assert!(name.contains("top") && t > 1, "{name} t={t}");
                    continue;
                }
                assert!(!asg.program.tiles.is_empty(), "{name} t={t}: no tile");
                assert!(asg.entries.iter().all(|e| e[0].f != Complex64::ONE));
                let mut got = v.clone();
                dmav_in_place(&asg, &mut got, &pool);
                let err = max_err(&got, &want);
                assert!(err < 1e-12, "{name} t={t}: {err:e}");
            }
        }
    }

    #[test]
    fn tiles_below_the_span_cap_match_the_write_once_walk() {
        // n = 11: the ladder's nodes of 2^10 amplitudes are tiled under a
        // split of the top node, under a pair walk over them (the `RY` on
        // the top qubit, both orders), and under an `RY` on qubit 0. Too
        // large for the dense matrix; the out-of-place walk over the same
        // DD is the oracle.
        let n = 11;
        let pkg = DdPackage::default();
        let pool = ThreadPool::new(1);
        let v = rand_state(n, 71);
        for (name, m) in tiled_products(&pkg, n) {
            let asg = DmavAssignment::build(&pkg, m, n, 1);
            assert!(asg.in_place() && !asg.program.tiles.is_empty(), "{name}");
            let mut want = vec![Complex64::ZERO; 1 << n];
            dmav_no_cache(&pkg, &asg, &v, &mut want, &pool);
            let mut got = v.clone();
            dmav_in_place(&asg, &mut got, &pool);
            let err = max_err(&got, &want);
            assert!(err < 1e-12, "{name}: {err:e}");
        }
    }

    #[test]
    fn tile_bytes_are_charged_and_capped() {
        let n = 11;
        let pkg = DdPackage::default();
        let pool = ThreadPool::new(1);
        let v = rand_state(n, 73);
        for (name, m) in tiled_products(&pkg, n) {
            let asg = DmavAssignment::build(&pkg, m, n, 1);
            let RowSpace {
                program: mut untiled,
                entries,
                ..
            } = compile_row_space(&pkg, m, n, 1).unwrap();
            let tiles: usize = asg.program.tiles.iter().map(Tile::memory_bytes).sum();
            assert!(tiles >= 1 << 14, "{name}: {tiles} bytes of tiles");
            assert!(asg.program.memory_bytes() >= untiled.memory_bytes() + tiles);
            // A budget one byte short of the first tile: the program runs
            // on the leaf walk, and still agrees.
            let first = asg.program.tiles[0].memory_bytes();
            untiled.plant_tiles(entries.iter().map(|e| e[0].op), first - 1);
            assert!(untiled.tiles.is_empty(), "{name}: planted over the cap");
            let mut want = v.clone();
            dmav_in_place(&asg, &mut want, &pool);
            let mut got = v.clone();
            untiled.run_in_place(entries[0][0].op, entries[0][0].f, &mut got);
            let err = max_err(&got, &want);
            assert!(err < 1e-12, "{name}: {err:e}");
        }
    }

    #[test]
    fn mixing_level_is_one_above_the_highest_level_rows_mix_at() {
        // n = 8, one group: a gate mixes rows at its target (pairs `2^q`
        // apart), a diagonal nowhere, and a control only gates the mixing.
        let n = 8;
        let pkg = DdPackage::default();
        let level = |g: &Gate, t: usize| {
            let asg = DmavAssignment::build(&pkg, pkg.gate_dd(g, n), n, t);
            assert!(asg.in_place(), "{g}");
            asg.mixing_level()
        };
        for q in 0..n {
            assert_eq!(level(&Gate::new(GateKind::H, q), 1), q + 1);
            assert_eq!(level(&Gate::new(GateKind::T, q), 1), 0);
            for c in (0..n).filter(|&c| c != q) {
                let cx = Gate::controlled(GateKind::X, q, vec![Control::pos(c)]);
                assert_eq!(level(&cx, 1), q + 1, "{cx}");
                let cz = Gate::controlled(GateKind::Z, q, vec![Control::neg(c)]);
                assert_eq!(level(&cz, 1), 0, "{cz}");
            }
        }
        // At two groups a group's entry spans its own half of the rows.
        assert_eq!(level(&Gate::new(GateKind::H, 3), 2), 4);
        // A plan-time tile is one kernel call over its span: a product
        // tiled below the top mixes at the tile's span, not at the
        // diagonal's level 0.
        let zz = DmavAssignment::build(&pkg, product(&pkg, &zz_ladder(11), 11), 11, 1);
        let widest = zz.program.ops.iter().filter(|node| node.tile.is_some());
        let tile_level = widest.map(|node| usize::from(node.level) + 1).max();
        assert_eq!(tile_level, Some(10));
        assert_eq!(zz.mixing_level(), 10);
    }

    /// The plans of `plans` applied one at a time, in place where a plan
    /// can, else out of place and swapped.
    fn per_matrix(plans: &[DmavAssignment], v: &mut Vec<Complex64>, pool: &ThreadPool) {
        let mut w = vec![Complex64::ZERO; v.len()];
        for asg in plans {
            if asg.in_place() {
                dmav_in_place(asg, v, pool);
            } else {
                dmav_no_cache(&DdPackage::default(), asg, v, &mut w, pool);
                std::mem::swap(v, &mut w);
            }
        }
    }

    /// [`per_matrix`], except that every maximal sequence of plans that can
    /// join a run at `level` runs blocked. Returns how many plans joined a
    /// run of two or more.
    fn blocked(
        plans: &[DmavAssignment],
        v: &mut Vec<Complex64>,
        pool: &ThreadPool,
        level: usize,
    ) -> usize {
        let joins = |asg: &DmavAssignment| asg.in_place() && asg.mixing_level() <= level;
        let mut joined = 0;
        let mut rest = plans;
        while !rest.is_empty() {
            let k = rest.iter().take_while(|asg| joins(asg)).count();
            if k > 1 {
                let run: Vec<&DmavAssignment> = rest[..k].iter().collect();
                dmav_run_in_place(&run, v, pool, level);
                joined += k;
            } else {
                per_matrix(&rest[..k.max(1)], v, pool);
            }
            rest = &rest[k.max(1)..];
        }
        joined
    }

    /// `layers` layers of one RY, H or X on every qubit, the qubits of a
    /// layer in a random order.
    fn real_layers(n: usize, layers: usize, rng: &mut qcircuit::rng::Rng) -> qcircuit::Circuit {
        let mut c = qcircuit::Circuit::named(n, format!("real_layers_{n}"));
        for _ in 0..layers {
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                order.swap(i, rng.range(0..i + 1));
            }
            for q in order {
                match rng.range(0..3) {
                    0 => c.ry(rng.f64_in(0.0..6.0), q),
                    1 => c.h(q),
                    _ => c.x(q),
                };
            }
        }
        c
    }

    #[test]
    fn blocked_runs_match_the_per_matrix_walk_at_every_level() {
        // Table 1 families, random circuits and layers of real one-qubit
        // gates at n = 8-14, fused by the walk-priced rule or left as gates,
        // planned over 1, 2 or 4 groups: at every block level from 2 to n,
        // the runs leave the state as the matrices applied one at a time
        // leave it, amplitude for amplitude, and that is the dense
        // simulation's to 1e-12. A plan joins a run only at a level no
        // plan-time tile of it is wider than. The real layers put a real
        // one-qubit matrix on every qubit, so at every level the run's
        // blocks take groups of them (`RealGroup`) in every order of their
        // qubits.
        qcircuit::prop::check(32, |g| {
            let n = g.rng.range(8..15);
            let seed = g.rng.next_u64();
            let c = match g.rng.range(0..6) {
                0 => generators::random_circuit(n, g.rng.range(10..60), seed),
                1 => generators::supremacy_n(n, g.rng.range(2..6), seed),
                2 => generators::dnn(n, g.rng.range(1..3), seed),
                3 => generators::qft(n),
                4 => real_layers(n, g.rng.range(1..4), &mut g.rng),
                _ => generators::knn(n / 2, seed),
            };
            let n = c.num_qubits();
            let t = [1, 2, 4][g.rng.range(0..3)];
            let fuse = g.rng.bool(0.5);
            let mut pkg = DdPackage::default();
            let matrices = if fuse {
                let model = crate::cost::CostModel::default();
                crate::fusion::fuse_dmav_aware(&mut pkg, c.gates(), n, t, &model, 64).matrices
            } else {
                c.iter().map(|gate| pkg.gate_dd(gate, n)).collect()
            };
            let plans: Vec<DmavAssignment> = matrices
                .iter()
                .map(|&m| DmavAssignment::build(&pkg, m, n, t))
                .collect();
            let pool = ThreadPool::new(2);
            let mut start = rand_state(n, seed);
            let norm = qcircuit::complex::norm_sqr(&start).sqrt();
            start
                .iter_mut()
                .for_each(|a| *a *= Complex64::new(1.0 / norm, 0.0));
            let mut want = start.clone();
            for gate in c.iter() {
                dense::apply_gate(&mut want, gate);
            }
            let mut one_at_a_time = start.clone();
            per_matrix(&plans, &mut one_at_a_time, &pool);
            let err = max_err(&one_at_a_time, &want);
            let case = format!("{} n={n} t={t} fused={fuse}", c.name());
            assert!(err < 1e-12, "{case}: {err:e} from dense");
            let mut joined_somewhere = false;
            for level in 2..=n {
                let block = (1usize << n) / t;
                let block = block.min(1 << level);
                for asg in plans
                    .iter()
                    .filter(|a| a.in_place() && a.mixing_level() <= level)
                {
                    let wide = asg.program.ops.iter().filter(|node| node.tile.is_some());
                    assert!(
                        wide.clone().all(|node| 2usize << node.level <= block),
                        "{case} level {level}: a tile wider than the block"
                    );
                }
                let mut got = start.clone();
                joined_somewhere |= blocked(&plans, &mut got, &pool, level) > 0;
                assert!(
                    got == one_at_a_time,
                    "{case} level {level}: not the per-matrix state"
                );
            }
            assert!(joined_somewhere, "{case}: no run formed at any level");
        });
    }

    #[test]
    fn low_target_gates_compile_to_one_strided_block_op() {
        // H on qubit 0 of 12: eleven `I_2 (x) .` nodes over `H (x) I_1`
        // fold into the entry op, a Kron of half 1 — no descent per pair.
        let n = 12;
        let pkg = DdPackage::default();
        let m = pkg.gate_dd(&Gate::new(GateKind::H, 0), n);
        let asg = DmavAssignment::build(&pkg, m, n, 1);
        let entry = asg.entries[0][0];
        assert!(matches!(
            asg.program.ops[entry.op as usize].op,
            Op::Kron { half: 1, .. }
        ));
        // The identity sub-DD of a controlled gate is one op, not a chain.
        let cx = Gate::controlled(GateKind::X, 3, vec![Control::pos(9)]);
        let asg = DmavAssignment::build(&pkg, pkg.gate_dd(&cx, n), n, 1);
        let identities = asg
            .program
            .ops
            .iter()
            .filter(|node| matches!(node.op, Op::Identity))
            .count();
        assert_eq!(identities, 1);
        assert!(asg.program.ops.len() <= n);
    }

    #[test]
    fn terminal_task_edges_run_when_h_is_one() {
        // t = 2^n: the border is below level 0 and every task edge is
        // terminal.
        let n = 3;
        let g = Gate::controlled(GateKind::H, 1, vec![Control::pos(0)]);
        let pkg = DdPackage::default();
        let m = pkg.gate_dd(&g, n);
        let v = rand_state(n, 13);
        let mut want = v.clone();
        dense::apply_gate(&mut want, &g);
        let pool = ThreadPool::new(2);
        let (variants, in_place) = all_variants(&pkg, m, n, 8, &pool, &v);
        // H on qubit 1 controlled by qubit 0 mixes rows: four of the eight
        // one-row groups have two tasks.
        assert!(!in_place);
        for (variant, got) in &variants {
            assert!(max_err(got, &want) < 1e-12, "{variant}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_threads_panics() {
        let pkg = DdPackage::default();
        let m = pkg.gate_dd(&Gate::new(GateKind::H, 0), 3);
        DmavAssignment::build(&pkg, m, 3, 3);
    }

    #[test]
    fn try_build_reports_invalid_input() {
        let pkg = DdPackage::default();
        let m = pkg.gate_dd(&Gate::new(GateKind::H, 0), 3);
        for t in [3usize, 16] {
            match DmavAssignment::try_build(&pkg, m, 3, t) {
                Err(FlatDdError::InvalidInput(msg)) => {
                    assert!(
                        msg.contains("power of two") || msg.contains("log2"),
                        "{msg}"
                    );
                }
                Err(e) => panic!("wrong error class for t={t}: {e}"),
                Ok(_) => panic!("expected InvalidInput for t={t}"),
            }
        }
        assert!(DmavAssignment::try_build(&pkg, m, 3, 4).is_ok());
    }
}
