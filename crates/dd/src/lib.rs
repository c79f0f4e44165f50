//! # qdd — a QMDD-style decision-diagram package
//!
//! From-scratch re-implementation of the decision-diagram machinery the
//! FlatDD paper builds on (DDSIM \[99\], QMDDs \[86\], and the complex-number
//! table of \[98\]):
//!
//! * [`ctable`] — tolerance-based interning of complex edge weights.
//! * [`node`] — vector (2-edge) and matrix (4-edge) nodes in slab arenas
//!   with unique tables for structural sharing.
//! * [`package`] — [`DdPackage`]: normalized node construction, gate-DD
//!   building, DD ↔ array conversion, traversals, mark/sweep GC.
//! * [`ops`] — memoized DD arithmetic: matrix-vector multiply (the DD
//!   simulation kernel), matrix-matrix multiply (DDMM, used by gate
//!   fusion), and addition.
//! * [`mac`] — MAC-operation counting (the paper's cost-model primitive,
//!   Figure 8).
//! * [`sim`] — [`DdSimulator`], the DDSIM-equivalent baseline simulator.
//!
//! ## Canonical form
//!
//! Nodes never skip levels (every root-to-terminal path visits every
//! qubit), vector nodes normalize outgoing weights to 2-norm 1 with the
//! first non-zero weight real positive, and matrix nodes normalize by their
//! first maximum-magnitude weight. Combined with weight interning this makes
//! structurally equal sub-DDs *pointer*-equal, which the unique and compute
//! tables rely on.

#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod approx;
pub mod ctable;
pub mod dot;
pub mod fxhash;
pub mod inner;
pub mod mac;
pub mod node;
pub mod ops;
pub mod package;
pub mod par;
pub mod sampling;
pub mod serialize;
pub mod sim;
mod sync;
pub mod verify;

pub use approx::ApproxResult;
pub use ctable::{CIdx, ComplexTable};
pub use mac::{mac_count, MacTable};
pub use node::ShardStats;
pub use node::{MEdge, MNode, VEdge, VNode, TERM};
pub use ops::ComputeStats;
pub use package::{DdPackage, PackageStats};
pub use par::ThreadPool;
pub use qcircuit::rng::SplitMix64;
pub use sim::{DdSimStats, DdSimulator};
pub use verify::{check_equivalence, circuit_unitary_dd, unitaries_equal, Equivalence};
