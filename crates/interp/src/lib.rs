//! # numfuzz-interp
//!
//! Operational semantics for Λnum (the `numfuzz` reproduction of
//! *Numerical Fuzz*, PLDI 2024):
//!
//! * [`eval`] — a big-step abstract machine (explicit stack, handles
//!   million-node programs) parameterized by a [`Rounding`] strategy;
//! * [`rounding`] — the ideal identity semantics, the four IEEE modes,
//!   the §7.1 exceptional semantics (`err` on overflow/underflow), and
//!   the §7.2 non-deterministic / state-dependent / stochastic variants;
//! * [`smallstep`] — a substitution-based reference implementation of the
//!   Fig. 3 step relation, cross-checked against the machine;
//! * [`decide`] — the error-soundness decision: given the bound of
//!   `⊢ e : M_r num` and the results of both semantics, rigorously
//!   verifies Corollary 4.20 (`d(⟦e⟧_id, ⟦e⟧_fp) <= r`) on actual runs;
//!   [`report_for`] adds the display-only measured distance and ULP
//!   error. The facade's `Analyzer::run` and `Analyzer::validate`
//!   type-check, evaluate and report.
//!
//! ```
//! use numfuzz_core::{compile, Grade, Signature};
//! use numfuzz_interp::{eval, report_for, EvalConfig, Rounding};
//! use numfuzz_interp::rounding::{IdentityRounding, ModeRounding};
//! use numfuzz_softfloat::{Format, RoundingMode};
//!
//! let sig = Signature::relative_precision();
//! let src = "function f (x: num) : M[eps]num { s = mul (x, 0.3); rnd s }\nf 0.1";
//! let lowered = compile(src, &sig)?;
//! let (store, root) = (&lowered.store, lowered.root);
//! let format = Format::BINARY64;
//! let mode = RoundingMode::TowardPositive;
//! let mut fp = ModeRounding { format, mode };
//! let config = EvalConfig::default();
//! let ideal = eval(store, root, &mut IdentityRounding, config, &[])?;
//! let rounded = eval(store, root, &mut fp, config, &[])?;
//! let grade = Grade::symbol("eps"); // the type checker infers `M[eps]num`
//! let bound = grade.eval_eps(&format.unit_roundoff(mode)).expect("only eps");
//! let report =
//!     report_for(sig.instantiation(), grade, bound, &ideal, &rounded, fp.target_format())?;
//! assert!(report.holds()); // RP(ideal, fp) <= eps, rigorously
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod eval;
pub mod rounding;
pub mod smallstep;
mod soundness;
mod value;

pub use eval::{eval, EvalConfig, EvalError};
pub use rounding::{RoundOutcome, Rounding};
pub use soundness::{decide, metric_for, report_for, Decision, SoundnessReport};
pub use value::{Closure, Value};
