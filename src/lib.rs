//! # numfuzz
//!
//! A Rust reproduction of **Numerical Fuzz: A Type System for Rounding
//! Error Analysis** (Kellison & Hsu, PLDI 2024): the Λnum language — a
//! linear λ-calculus whose type system combines a Fuzz-style sensitivity
//! analysis with a graded monad `M[u]τ` tracking worst-case rounding
//! error — together with every substrate its evaluation depends on.
//!
//! This crate is the facade: the [`Program`]/[`Analyzer`] session API,
//! the content-addressed [`AnalysisCache`], the resident analysis
//! service ([`serve`], surfaced as `numfuzz serve`), the `numfuzz` CLI,
//! the runnable examples, and the repo-level integration tests. The
//! workspace crates remain available under their module names:
//!
//! | module | contents |
//! |---|---|
//! | [`exact`] | arbitrary-precision integers/rationals, intervals, enclosures |
//! | [`softfloat`] | parameterized IEEE 754 binary formats and rounding (Tables 1–2) |
//! | [`metrics`] | relative precision (Olver), relative/absolute/ULP error |
//! | [`core`] | Λnum: grades, types, terms, inference (Figs. 1–2, 10–12), surface syntax (Figs. 7–9) |
//! | [`interp`] | ideal/FP semantics, §7 rounding extensions, error-soundness validation |
//! | [`bounds`] | the interval/Taylor-form roundoff engine (Table 1 and Table 3 comparisons, engines-agree oracle) |
//! | [`benchsuite`] | the Table 3/4/5 workloads, the kernel IR and its Λnum translation, textbook bounds |
//! | [`fuzz`] | the soundness fuzzer: typed program generator, shrinker, campaign driver (oracle: [`fuzzing`]) |
//!
//! ## Quickstart
//!
//! A [`Program`] is parsed once; an [`Analyzer`] is a configured session
//! (signature, format, rounding mode) reused across programs:
//!
//! ```
//! use numfuzz::prelude::*;
//!
//! // 1. Parse a Λnum program (the paper's Fig. 7/8 style).
//! let program = Program::parse(r#"
//!     function mulfp (xy: (num, num)) : M[eps]num { s = mul xy; rnd s }
//!     function addfp (xy: <num, num>) : M[eps]num { s = add xy; rnd s }
//!     function MA (x: num) (y: num) (z: num) : M[2*eps]num {
//!         s = mulfp (x,y);
//!         let a = s;
//!         addfp (|a,z|)
//!     }
//!     MA 0.1 0.3 7
//! "#)?;
//!
//! // 2. One type-checking pass: the grade on the monad is a sound
//! //    roundoff bound, and eq. (8) turns it into a relative error.
//! let analyzer = Analyzer::builder()
//!     .signature(Instantiation::RelativePrecision)
//!     .format(Format::BINARY64)
//!     .mode(RoundingMode::TowardPositive)
//!     .build();
//! let typed = analyzer.check(&program)?;
//! assert_eq!(typed.ty().to_string(), "M[2*eps]num");
//! let bound = analyzer.bound(&typed)?;
//! assert_eq!(bound.relative.unwrap().to_sci_string(3), "4.44e-16"); // the paper's Table 3 value
//!
//! // 3. Run both semantics and verify the bound rigorously (Cor. 4.20).
//! let report = analyzer.validate(&program, &Inputs::none())?;
//! assert!(report.holds());
//! # Ok::<(), numfuzz::Diagnostic>(())
//! ```
//!
//! Every failure mode — parse error, scope error, grade mismatch, bad
//! input, evaluation fault — is a structured [`Diagnostic`] with a stable
//! [`ErrorCode`] and, for programs parsed from text, a `file:line:col`
//! span.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyzer;
mod diag;
pub mod fuzzing;
pub mod loadgen;
pub mod optimize;
mod program;
pub mod serve;

pub use analyzer::{
    Analysis, AnalysisCache, Analyzer, AnalyzerBuilder, BackwardBound, BackwardTyped, ErrorBound,
    Execution, FnBackwardBound, InputBackwardBound, Inputs, Typed,
};
pub use diag::{Diagnostic, ErrorCode, Span};
pub use numfuzz_core::cache::{AnalysisMode, CacheStats};
pub use numfuzz_core::JudgmentCounts;
pub use program::Program;

pub use numfuzz_benchsuite as benchsuite;
pub use numfuzz_bounds as bounds;
pub use numfuzz_core as core;
pub use numfuzz_exact as exact;
pub use numfuzz_fuzz as fuzz;
pub use numfuzz_interp as interp;
pub use numfuzz_metrics as metrics;
pub use numfuzz_softfloat as softfloat;

/// The names most programs need, in one import.
pub mod prelude {
    pub use crate::analyzer::{
        Analysis, AnalysisCache, Analyzer, AnalyzerBuilder, BackwardBound, BackwardTyped,
        ErrorBound, Execution, FnBackwardBound, InputBackwardBound, Inputs, Typed,
    };
    pub use crate::diag::{Diagnostic, ErrorCode, Span};
    pub use crate::program::Program;
    pub use numfuzz_bounds::{BoundError, IntervalBound};
    pub use numfuzz_core::cache::{AnalysisMode, CacheStats};
    pub use numfuzz_core::{Grade, Instantiation, JudgmentCounts, Signature, Ty};
    pub use numfuzz_exact::{RatInterval, Rational};
    pub use numfuzz_interp::{SoundnessReport, Value};
    pub use numfuzz_metrics::{NumMetric, Within};
    pub use numfuzz_softfloat::{Format, Fp, RoundingMode};
}
