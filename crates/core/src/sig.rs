//! Operation signatures Σ and language instantiations (paper Sections 3.1
//! and 5).
//!
//! Λnum is parameterized by a signature of primitive operations, each with
//! a type `σ ⊸ τ`, and by the grade `q` of the `rnd` primitive. The
//! leading instantiation interprets `num` as the strictly positive reals
//! with the RP metric and provides the Fig. 5 operations; a secondary
//! absolute-error instantiation demonstrates that the framework is metric-
//! generic. Operation *semantics* live in `numfuzz-interp`, keyed by name.

use crate::grade::Grade;
use crate::ty::Ty;
use numfuzz_exact::Rational;

/// A primitive operation `{ op : σ ⊸ τ } ∈ Σ`.
///
/// The paper's (Op) rule fixes `τ = num`; we allow any return type so that
/// the Section 5.1 comparison `is_pos : !∞ num ⊸ bool` is an ordinary
/// signature entry (the (Op) deviation listed in the `check` module docs).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OpSig {
    /// Operation name as it appears in programs.
    pub name: String,
    /// Argument type `σ`.
    pub arg: Ty,
    /// Result type `τ`.
    pub ret: Ty,
}

/// Which numeric interpretation a signature belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Instantiation {
    /// `num = R_{>0}` with Olver's relative-precision metric (Section 5).
    RelativePrecision,
    /// `num = R` with the absolute-value metric; errors are absolute.
    AbsoluteError,
}

/// A signature Σ together with the grade of `rnd` and the intended metric.
#[derive(Clone, Debug)]
pub struct Signature {
    ops: Vec<OpSig>,
    rnd_grade: Grade,
    instantiation: Instantiation,
}

impl Signature {
    /// The paper's leading instantiation (Section 5, Fig. 5): RP metric
    /// over strictly positive reals, with
    ///
    /// * `add : (num × num) ⊸ num` — non-expansive in the max metric;
    /// * `mul, div : (num ⊗ num) ⊸ num` — non-expansive in the sum metric;
    /// * `sqrt : ![0.5]num ⊸ num` — halves RP distances;
    /// * `is_pos : ![inf]num ⊸ bool`, `is_gt : ![inf](num ⊗ num) ⊸ bool` —
    ///   boolean tests are infinitely sensitive (Section 5.1).
    ///
    /// `rnd` carries the symbolic grade `eps` (instantiated to `2^(1-p)`
    /// for round-toward-+∞, per Table 2).
    pub fn relative_precision() -> Self {
        let num = Ty::Num;
        let half = Grade::constant(Rational::ratio(1, 2));
        Signature {
            ops: vec![
                OpSig {
                    name: "add".into(),
                    arg: Ty::with(num.clone(), num.clone()),
                    ret: num.clone(),
                },
                OpSig {
                    name: "mul".into(),
                    arg: Ty::tensor(num.clone(), num.clone()),
                    ret: num.clone(),
                },
                OpSig {
                    name: "div".into(),
                    arg: Ty::tensor(num.clone(), num.clone()),
                    ret: num.clone(),
                },
                OpSig { name: "sqrt".into(), arg: Ty::bang(half, num.clone()), ret: num.clone() },
                OpSig {
                    name: "is_pos".into(),
                    arg: Ty::bang(Grade::infinite(), num.clone()),
                    ret: Ty::bool(),
                },
                OpSig {
                    name: "is_gt".into(),
                    arg: Ty::bang(Grade::infinite(), Ty::tensor(num.clone(), num.clone())),
                    ret: Ty::bool(),
                },
            ],
            rnd_grade: Grade::symbol("eps"),
            instantiation: Instantiation::RelativePrecision,
        }
    }

    /// A secondary instantiation for **absolute** error: `num = R` with
    /// `d(x,y) = |x - y|`. Here `add`/`sub` are non-expansive in the sum
    /// metric, `neg` is an isometry, `scale2`/`half` scale distances by
    /// their constant, and `rnd` carries an *absolute* error grade `delta`
    /// (sound on a bounded range: rounding `x` moves it by at most `u·|x|`,
    /// so `delta` is `u·M` for a bound `M` on the magnitudes, set through
    /// `AnalyzerBuilder::rounding_unit` in the facade).
    pub fn absolute_error() -> Self {
        let num = Ty::Num;
        let two = Grade::constant(Rational::from_int(2));
        let half = Grade::constant(Rational::ratio(1, 2));
        Signature {
            ops: vec![
                OpSig {
                    name: "add".into(),
                    arg: Ty::tensor(num.clone(), num.clone()),
                    ret: num.clone(),
                },
                OpSig {
                    name: "sub".into(),
                    arg: Ty::tensor(num.clone(), num.clone()),
                    ret: num.clone(),
                },
                OpSig { name: "neg".into(), arg: num.clone(), ret: num.clone() },
                OpSig { name: "scale2".into(), arg: Ty::bang(two, num.clone()), ret: num.clone() },
                OpSig { name: "half".into(), arg: Ty::bang(half, num.clone()), ret: num.clone() },
                OpSig {
                    name: "is_pos".into(),
                    arg: Ty::bang(Grade::infinite(), num.clone()),
                    ret: Ty::bool(),
                },
            ],
            rnd_grade: Grade::symbol("delta"),
            instantiation: Instantiation::AbsoluteError,
        }
    }

    /// Builds an empty signature with a given `rnd` grade (for tests and
    /// custom instantiations).
    pub fn custom(rnd_grade: Grade, instantiation: Instantiation) -> Self {
        Signature { ops: Vec::new(), rnd_grade, instantiation }
    }

    /// Adds an operation (builder style).
    pub fn with_op(mut self, name: &str, arg: Ty, ret: Ty) -> Self {
        self.ops.push(OpSig { name: name.into(), arg, ret });
        self
    }

    /// Looks up an operation by name.
    pub fn op(&self, name: &str) -> Option<&OpSig> {
        self.ops.iter().find(|o| o.name == name)
    }

    /// All operations.
    pub fn ops(&self) -> &[OpSig] {
        &self.ops
    }

    /// The grade assigned to one application of `rnd` (the `q` of the
    /// (Rnd) rule).
    pub fn rnd_grade(&self) -> &Grade {
        &self.rnd_grade
    }

    /// The intended numeric interpretation.
    pub fn instantiation(&self) -> Instantiation {
        self.instantiation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rp_signature_matches_fig5() {
        let sig = Signature::relative_precision();
        assert_eq!(sig.op("add").unwrap().arg.to_string(), "<num, num>");
        assert_eq!(sig.op("mul").unwrap().arg.to_string(), "(num, num)");
        assert_eq!(sig.op("div").unwrap().arg.to_string(), "(num, num)");
        assert_eq!(sig.op("sqrt").unwrap().arg.to_string(), "![1/2]num");
        assert_eq!(sig.op("is_pos").unwrap().arg.to_string(), "![inf]num");
        assert_eq!(sig.op("is_pos").unwrap().ret.to_string(), "bool");
        assert_eq!(sig.rnd_grade().to_string(), "eps");
        assert!(sig.op("sub").is_none());
    }

    #[test]
    fn abs_signature_has_subtraction() {
        let sig = Signature::absolute_error();
        assert!(sig.op("sub").is_some());
        assert_eq!(sig.op("scale2").unwrap().arg.to_string(), "![2]num");
        assert_eq!(sig.rnd_grade().to_string(), "delta");
    }

    #[test]
    fn custom_builder() {
        let sig = Signature::custom(Grade::symbol("q"), Instantiation::AbsoluteError).with_op(
            "id",
            Ty::Num,
            Ty::Num,
        );
        assert!(sig.op("id").is_some());
        assert_eq!(sig.ops().len(), 1);
    }
}
