//! Workspace root crate: hosts the runnable examples (`examples/`) and the
//! cross-crate integration and property test suites (`tests/`). The library
//! surface simply re-exports the member crates for convenience.

#![forbid(unsafe_code)]

pub use flatdd;
pub use qarray;
pub use qcircuit;
pub use qdd;
