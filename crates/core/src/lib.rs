//! # numfuzz-core
//!
//! The Λnum language of *Numerical Fuzz: A Type System for Rounding Error
//! Analysis* (PLDI 2024): a linear call-by-value λ-calculus whose type
//! system combines a Fuzz-style sensitivity analysis with a graded monad
//! `M_u τ` that tracks accumulated rounding error.
//!
//! * [`Grade`] — sensitivities and error indices as exact symbolic linear
//!   expressions over `R≥0 ∪ {∞}`;
//! * [`Ty`] — types (Fig. 1) with subtyping (Fig. 12) and the `max`/`min`
//!   lattice (Fig. 11);
//! * [`CoreArena`] — the hash-consing arena: types and grades intern to
//!   [`TyId`]/[`GradeId`] with O(1) structural equality and memoized
//!   lattice operations (see [`arena`]);
//! * [`TermStore`] — arena-based, hash-consed terms (Fig. 1) scaling to
//!   the paper's 4.2-million-operation benchmarks;
//! * [`Signature`] — the primitive-operation signatures of the Section 5
//!   instantiations (relative precision and absolute error);
//! * [`infer`] and [`infer_backward`] — algorithmic sensitivity inference
//!   (Fig. 10) and Bean's backward-error judgment: two rule sets over one
//!   iterative walker, which owns the traversal, binder introduction and
//!   subterm memoization, and one error enum, [`CheckError`];
//! * [`compile`] — the surface syntax of the paper's Figs. 7–9, read in
//!   one pass that elaborates as it parses (ANF + scope resolution) and
//!   emits hash-consed terms straight into the arena: tokens borrow the
//!   source, and no surface tree is built.
//!
//! ## Example: the paper's `pow2'` (Section 2.3)
//!
//! ```
//! use numfuzz_core::{compile, infer, Signature};
//!
//! let sig = Signature::relative_precision();
//! let src = r#"
//!     function pow2' (x: ![2.0]num) : M[eps]num {
//!         let [x1] = x;
//!         s = mul (x1, x1);
//!         rnd s
//!     }
//! "#;
//! let lowered = compile(src, &sig)?;
//! let result = infer(&lowered.store, &sig, lowered.root, &[])?;
//! // The checker reproduces the paper's type: !2 num ⊸ M_eps num.
//! assert_eq!(result.fn_report("pow2'").unwrap().inferred.to_string(),
//!            "![2]num -o M[eps]num");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
// Grade::add takes references (see numfuzz-exact); CheckError carries full types for messages and checking is not a hot error path.
#![allow(clippy::should_implement_trait)]
#![allow(clippy::result_large_err)]
#![warn(missing_docs)]

pub mod arena;
mod backward;
pub mod cache;
mod check;
mod env;
mod grade;
mod intern;
mod lexer;
mod lower;
mod parser;
pub mod pool;
mod pretty;
pub mod rewrite;
mod sig;
mod term;
mod ty;
pub mod validate;
mod walk;

pub use arena::{CoreArena, GradeId, TyId, TyNode};
pub use backward::{
    infer_backward, infer_backward_memoized, BackwardFnReport, BackwardInferred, BackwardResult,
};
pub use cache::{
    AnalysisMode, CacheKey, CacheStats, CacheWeight, ConfigFingerprint, JudgmentCache,
    JudgmentCounts, ResultCache,
};
pub use check::{infer, infer_memoized, CheckResult, FnReport, Inferred};
pub use env::{BackwardEnv, Env};
pub use grade::{Coeffect, Grade, LinExpr, Sym};
pub use lexer::SyntaxError;
pub use lower::{compile, compile_expr_with, compile_in, Lowered};
pub use parser::parse_ty;
pub use pretty::pretty_term;
pub use sig::{Instantiation, OpSig, Signature};
pub use term::{Node, TermId, TermStore, VarId};
pub use ty::Ty;
pub use walk::CheckError;
