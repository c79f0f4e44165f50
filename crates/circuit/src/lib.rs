//! # qcircuit — quantum circuit IR and benchmark workloads
//!
//! The base substrate of the FlatDD reproduction workspace:
//!
//! * [`complex`] — self-contained `f64` complex arithmetic ([`Complex64`]).
//! * [`gate`] — gates canonicalized to *single-qubit unitary + control set*.
//! * [`circuit`] — the [`Circuit`] container/builder.
//! * [`qasm`] — an OpenQASM 2.0 parser covering the QASMBench/MQT-Bench
//!   subset (custom gate definitions, broadcasting, parameter expressions).
//! * [`generators`] — parameterized constructions of every benchmark family
//!   in the paper's evaluation (GHZ, Adder, QFT, DNN, VQE, KNN, swap test,
//!   quantum-supremacy random circuits, Grover, W state).
//! * [`dense`] — naive dense reference simulation used as ground truth by
//!   the test suites of every crate.
//! * [`rng`] — the seeded generators behind every randomized family and
//!   every sampler; [`prop`] — the property runner the test suites share.
//!
//! ## Conventions
//!
//! Qubit `0` is the least significant bit of a basis-state index. A state
//! vector over `n` qubits is a flat `Vec<Complex64>` of length `2^n` in
//! natural index order.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod circuit;
pub mod complex;
pub mod dense;
pub mod gate;
pub mod generators;
pub mod observable;
pub mod prop;
pub mod qasm;
pub mod rng;
pub mod transform;

pub use circuit::Circuit;
pub use complex::Complex64;
pub use gate::{Control, Gate, GateKind, Mat2};
pub use observable::{Hamiltonian, ObservableError, Pauli, PauliString};
pub use qasm::{parse_qasm, QasmError};
