//! # numfuzz-benchsuite
//!
//! The benchmark workloads of the paper's evaluation (Section 6):
//!
//! * [`small`] — the seventeen Table 3 kernels (FPBench subset + Horner
//!   family), each with its IR form, sample inputs, and the exact Λnum
//!   grade the paper reports;
//! * [`ir`] — the straight-line kernel IR those kernels are written in
//!   (the FPBench fragment the paper supports), with input ranges;
//! * [`to_core`] — the translation of kernels into Λnum terms
//!   ([`kernel_to_core`]), which both the typing judgment and the
//!   `numfuzz-bounds` interval engine analyze;
//! * [`generators`] — the Table 4 programs (Horner50/75/100,
//!   MatrixMultiply4–128, SerialSum, Poly50), built directly into the
//!   term arena at full scale;
//! * [`std_bounds`] — the γ_n textbook bounds quoted in Table 4's "Std."
//!   column;
//! * [`conditionals`] — the four Table 5 conditional kernels as surface
//!   programs.
//!
//! Next to each table's workloads sit the paper's published rows
//! ([`PAPER_TABLE3`], [`PAPER_TABLE4`], [`PAPER_TABLE5`]), which
//! `numfuzz paper N` prints beside its own.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conditionals;
pub mod generators;
pub mod ir;
pub mod small;
pub mod std_bounds;
pub mod to_core;

pub use conditionals::{table5, CondBench, PAPER_TABLE5};
pub use generators::{
    horner, horner_in, matrix_multiply, matrix_multiply_in, poly_naive, poly_naive_in, serial_sum,
    serial_sum_in, Generated, PAPER_TABLE4,
};
pub use ir::{Expr, Kernel};
pub use small::{
    horner2_with_error_kernel, horner2_with_error_source, table3, SmallBench, PAPER_TABLE3,
};
pub use to_core::{kernel_to_core, kernel_to_core_in, CoreKernel, TranslateError};
