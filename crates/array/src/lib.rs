//! # qarray — array-based state-vector simulation
//!
//! Re-implementation of the simulation strategy of Quantum++ \[19\], the
//! array-based baseline of the FlatDD paper: gate matrices act *locally* on
//! a flat `2^n` amplitude array (Equations 2 and 3 of the paper), and
//! independent amplitude pairs are partitioned across threads.
//!
//! * [`pool`] — [`ThreadPool`], the persistent fork-join pool every
//!   parallel site of the workspace dispatches on, and
//!   [`ThreadPool::for_each_part`], its shard-to-worker rule, which hands
//!   each worker the disjoint `&mut` parts of an output it writes.
//! * [`kernel`] — serial and pooled in-place gate application with
//!   diagonal/anti-diagonal fast paths.
//! * [`sim`] — [`ArraySimulator`], the full-state simulator.
//! * [`shard`] — [`ShardedState`], the contiguous-but-sharded flat state,
//!   and the one allocation path of flat buffers (kernel-zeroed,
//!   huge-page-advised, faulted in by the first worker to write a page),
//!   and [`widen`], the kernel that doubles a state in place by inserting a
//!   qubit.
//! * [`vecops`] — vectorized complex primitives (axpy/scale/dot/2x2 blocks)
//!   with runtime scalar-vs-AVX2 dispatch, shared by every hot loop of the
//!   workspace.

#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod kernel;
pub mod measure;
pub mod pool;
pub mod shard;
pub mod sim;
pub mod vecops;

pub use kernel::{apply_gate_pooled, apply_gate_serial, apply_gate_sharded};
pub use measure::{
    expectation, expectation_pauli, measure_qubit, measure_qubit_sharded, qubit_probability_one,
    qubit_probability_one_sharded, sample, sample_counts, top_amplitudes, TopAmplitudes,
};
pub use pool::ThreadPool;
pub use shard::{first_touch_zeroed, shard_range, sum_shards, widen, ShardedState};
pub use sim::{simulate, simulate_with_threads, try_zeroed_state, ArraySimulator};
