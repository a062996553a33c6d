//! Empirical validation of error soundness (paper Corollary 4.20 and its
//! §7 variants): for a checked program `⊢ e : M_r num`, run the ideal and
//! floating-point semantics and *rigorously* verify
//! `d(⟦e⟧_id, ⟦e⟧_fp) <= r`.
//!
//! The check is exact end to end: values are rational enclosures, the
//! grade bound is evaluated by substituting the exact unit roundoff for
//! `eps`, and the RP comparison is decided against rational enclosures of
//! `e^±r`. A reported violation would be a genuine counterexample to the
//! implementation (not a float artifact) — none exist, which the test
//! suites demonstrate on every benchmark and on random programs.

use crate::eval::{eval, EvalConfig, EvalError};
use crate::rounding::{IdentityRounding, Rounding};
use crate::value::Value;
use numfuzz_core::{
    infer, CheckError, Grade, Instantiation, Signature, TermId, TermStore, Ty, VarId,
};
use numfuzz_exact::{RatInterval, Rational};
use numfuzz_metrics::{NumMetric, Within};
use std::fmt;

/// Everything the validator produces for one program + input + strategy.
#[derive(Clone, Debug)]
pub struct SoundnessReport {
    /// The inferred monadic grade.
    pub grade: Grade,
    /// The grade with `eps` (or `delta`) substituted: the numeric bound.
    pub bound: Rational,
    /// Result of the ideal run.
    pub ideal: RatInterval,
    /// Result of the floating-point run (`None` when it faulted to `err`,
    /// in which case Cor. 7.5 imposes no bound).
    pub fp: Option<RatInterval>,
    /// The rigorous verdict: is the distance within the bound?
    pub verdict: Within,
    /// Display-quality measured distance (None when undefined/err).
    pub measured: Option<f64>,
    /// ULP error (paper eq. 4): the number of floats of the target format
    /// between the correctly-rounded ideal result and the fp result,
    /// inclusive (so 1 means "same float"). `None` when the strategy has
    /// no single target format, the results aren't points, or the ideal
    /// enclosure straddles a rounding boundary.
    pub ulp: Option<numfuzz_exact::BigUint>,
}

impl SoundnessReport {
    /// Whether the soundness theorem's claim held on this run (an `err`
    /// outcome vacuously satisfies Cor. 7.5).
    pub fn holds(&self) -> bool {
        self.fp.is_none() || self.verdict == Within::Yes
    }
}

/// Failures of the validation *harness* (not of the theorem).
#[derive(Debug)]
pub enum SoundnessError {
    /// The program does not check.
    Check(CheckError),
    /// The program's type is not `M_r num`.
    NotMonadicNum(Ty),
    /// The grade mentions symbols beyond the rounding unit (give their
    /// values via [`validate_with`]).
    UnresolvedGrade(Grade),
    /// Evaluation failed.
    Eval(EvalError),
}

impl fmt::Display for SoundnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SoundnessError::Check(e) => write!(f, "type checking failed: {e}"),
            SoundnessError::NotMonadicNum(t) => {
                write!(f, "error soundness applies to M[r]num programs, got `{t}`")
            }
            SoundnessError::UnresolvedGrade(g) => {
                write!(f, "grade `{g}` has symbols without assigned values")
            }
            SoundnessError::Eval(e) => write!(f, "evaluation failed: {e}"),
        }
    }
}

impl std::error::Error for SoundnessError {}

impl From<CheckError> for SoundnessError {
    fn from(e: CheckError) -> Self {
        SoundnessError::Check(e)
    }
}

impl From<EvalError> for SoundnessError {
    fn from(e: EvalError) -> Self {
        SoundnessError::Eval(e)
    }
}

/// The metric a signature's instantiation imposes on `num` (Section 5).
pub fn metric_for(inst: Instantiation) -> NumMetric {
    match inst {
        Instantiation::RelativePrecision => NumMetric::RelativePrecision,
        Instantiation::AbsoluteError => NumMetric::Absolute,
    }
}

/// Validates Corollary 4.20 for a closed program of type `M_r num`:
/// type-checks, runs the ideal and the given floating-point semantics,
/// and decides the distance bound rigorously. `rnd_unit` is substituted
/// for the signature's rounding-grade symbol (e.g. `eps ↦ 2^(1-p)`).
/// `sqrt` enclosures use the default [`EvalConfig`] precision (192 bits,
/// enough for formats up to p = 64); use [`validate_with`] for wider
/// formats.
///
/// # Errors
///
/// [`SoundnessError`] if the program doesn't check, isn't `M_r num`, has
/// extra grade symbols, or fails to evaluate.
pub fn validate(
    store: &TermStore,
    sig: &Signature,
    root: TermId,
    inputs: &[(VarId, Value)],
    fp_rounding: &mut dyn Rounding,
    rnd_unit: &Rational,
) -> Result<SoundnessReport, SoundnessError> {
    let rnd_symbol = match sig.rnd_grade() {
        Grade::Finite(e) if e.terms().len() == 1 => e.terms()[0].0.to_string(),
        _ => "eps".to_string(),
    };
    let symbols = |s: &str| (s == rnd_symbol).then(|| rnd_unit.clone());
    validate_with(store, sig, root, inputs, fp_rounding, &symbols, EvalConfig::default().sqrt_bits)
}

/// Like [`validate`], with an arbitrary symbol assignment for the grade
/// and `sqrt` enclosures at `sqrt_bits` bits of precision.
///
/// # Errors
///
/// See [`validate`].
pub fn validate_with(
    store: &TermStore,
    sig: &Signature,
    root: TermId,
    inputs: &[(VarId, Value)],
    fp_rounding: &mut dyn Rounding,
    symbols: &dyn Fn(&str) -> Option<Rational>,
    sqrt_bits: u32,
) -> Result<SoundnessReport, SoundnessError> {
    // Free variables are typed from their supplied values (first-order
    // inputs only, which is all the benchmarks need).
    let free: Vec<(VarId, Ty)> = inputs
        .iter()
        .map(|(v, val)| {
            let ty = ty_of_input(val).ok_or({
                SoundnessError::Eval(EvalError::Stuck("inputs must be first-order values"))
            })?;
            Ok((*v, ty))
        })
        .collect::<Result<_, SoundnessError>>()?;
    let checked = infer(store, sig, root, &free)?;
    let grade = match &checked.root.ty {
        Ty::Monad(g, inner) if **inner == Ty::Num => g.clone(),
        other => return Err(SoundnessError::NotMonadicNum(other.clone())),
    };
    let bound =
        grade.eval(symbols).ok_or_else(|| SoundnessError::UnresolvedGrade(grade.clone()))?;

    let config = EvalConfig { instantiation: sig.instantiation(), sqrt_bits };
    let ideal_val = eval(store, root, &mut IdentityRounding, config, inputs)?;
    let fp_val = eval(store, root, fp_rounding, config, inputs)?;

    report_for(sig.instantiation(), grade, bound, &ideal_val, &fp_val, fp_rounding.target_format())
}

/// Assembles a [`SoundnessReport`] from an already-inferred grade bound
/// and already-computed results of both semantics — the tail of
/// [`validate_with`], exposed so callers that have run the evaluations
/// themselves (e.g. a session API's `run`) don't pay for a second full
/// inference + evaluation pass.
///
/// # Errors
///
/// [`SoundnessError::Eval`] when either value is not `ret` of a number
/// (and the fp value is not `err`).
pub fn report_for(
    instantiation: Instantiation,
    grade: Grade,
    bound: Rational,
    ideal_val: &Value,
    fp_val: &Value,
    target_format: Option<numfuzz_softfloat::Format>,
) -> Result<SoundnessReport, SoundnessError> {
    let ideal = expect_ret_num(ideal_val)?;
    let metric = metric_for(instantiation);
    match fp_val {
        Value::ErrV => Ok(SoundnessReport {
            grade,
            bound,
            ideal,
            fp: None,
            verdict: Within::Yes,
            measured: None,
            ulp: None,
        }),
        other => {
            let fp = expect_ret_num(other)?;
            let verdict = metric.within(&ideal, &fp, &bound);
            // Worst-case distance over the enclosure corners (display only;
            // the verdict above is the rigorous statement).
            let measured = [
                metric.distance_f64(ideal.hi(), fp.lo()),
                metric.distance_f64(ideal.lo(), fp.hi()),
            ]
            .into_iter()
            .flatten()
            .fold(None, |acc: Option<f64>, d| Some(acc.map_or(d, |a| a.max(d))));
            let ulp = ulp_between(target_format, &ideal, &fp);
            Ok(SoundnessReport { grade, bound, ideal, fp: Some(fp), verdict, measured, ulp })
        }
    }
}

/// The type of a first-order input value.
fn ty_of_input(v: &Value) -> Option<Ty> {
    match v {
        Value::Num(_) => Some(Ty::Num),
        Value::Unit => Some(Ty::Unit),
        Value::PairW(a, b) => Some(Ty::with(ty_of_input(a)?, ty_of_input(b)?)),
        Value::PairT(a, b) => Some(Ty::tensor(ty_of_input(a)?, ty_of_input(b)?)),
        // Booleans: both injections at unit + unit.
        Value::Inl(x) | Value::Inr(x) if matches!(**x, Value::Unit) => Some(Ty::bool()),
        _ => None,
    }
}

/// ULP error (eq. 4) between the correctly-rounded ideal result and the
/// fp result, when both are unambiguous floats of `format`.
fn ulp_between(
    format: Option<numfuzz_softfloat::Format>,
    ideal: &RatInterval,
    fp: &RatInterval,
) -> Option<numfuzz_exact::BigUint> {
    use numfuzz_softfloat::{Fp, RoundingMode};
    let format = format?;
    let fp_point = fp.as_point()?;
    let fp_float = Fp::round(fp_point, format, RoundingMode::NearestEven);
    if fp_float.to_rational()? != *fp_point {
        return None; // fp result is not representable (shouldn't happen)
    }
    // Round both enclosure ends of the ideal; require agreement.
    let lo = Fp::round(ideal.lo(), format, RoundingMode::NearestEven);
    let hi = Fp::round(ideal.hi(), format, RoundingMode::NearestEven);
    if lo != hi || !lo.is_finite() {
        return None;
    }
    Some(numfuzz_metrics::pointwise::ulp_error(&lo, &fp_float))
}

fn expect_ret_num(v: &Value) -> Result<RatInterval, SoundnessError> {
    match v.as_ret().and_then(Value::as_num) {
        Some(i) => Ok(i.clone()),
        None => Err(SoundnessError::Eval(EvalError::Stuck("monadic numeric result expected"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rounding::{CheckedRounding, ChoiceRounding, ModeRounding, StatefulRounding};
    use numfuzz_core::compile;
    use numfuzz_softfloat::{Format, RoundingMode};

    const HYPOT: &str = r#"
        function mulfp (xy: (num, num)) : M[eps]num { s = mul xy; rnd s }
        function addfp (xy: <num, num>) : M[eps]num { s = add xy; rnd s }
        function sqrtfp (x: ![1/2]num) : M[eps]num { s = sqrt x; rnd s }
        function hypot (x: num) (y: num) : M[5/2*eps]num {
            let a = mulfp (x,x);
            let b = mulfp (y,y);
            let c = addfp (|a,b|);
            sqrtfp [c]{1/2}
        }
        hypot 3.7 0.51
    "#;

    #[test]
    fn hypot_bound_holds_in_binary64() {
        let sig = Signature::relative_precision();
        let lowered = compile(HYPOT, &sig).unwrap();
        let format = Format::BINARY64;
        let mode = RoundingMode::TowardPositive;
        let mut fp = ModeRounding { format, mode };
        let rep =
            validate(&lowered.store, &sig, lowered.root, &[], &mut fp, &format.unit_roundoff(mode))
                .unwrap();
        assert_eq!(rep.grade.to_string(), "5/2*eps");
        assert!(rep.holds(), "hypot violates its bound: {rep:?}");
        // The measured distance is nonzero (roundings really happened)...
        let measured = rep.measured.unwrap();
        assert!(measured > 0.0);
        // ...and below the bound.
        assert!(measured <= rep.bound.to_f64());
    }

    #[test]
    fn bound_holds_in_every_tiny_format_and_mode() {
        // Small formats make rounding error large; the theorem must hold
        // in every (format, mode) combination.
        let sig = Signature::relative_precision();
        let lowered = compile(HYPOT, &sig).unwrap();
        for p in [4, 6, 9] {
            let format = Format::new(p, 40);
            for mode in RoundingMode::ALL {
                let mut fp = ModeRounding { format, mode };
                let rep = validate(
                    &lowered.store,
                    &sig,
                    lowered.root,
                    &[],
                    &mut fp,
                    &format.unit_roundoff(mode),
                )
                .unwrap();
                assert!(rep.holds(), "violated at p={p} mode={mode}: {rep:?}");
            }
        }
    }

    #[test]
    fn nondeterministic_rounding_all_resolutions_hold() {
        // §7.2 TP⁺: every resolution of mode choices satisfies the bound.
        let sig = Signature::relative_precision();
        let lowered = compile(HYPOT, &sig).unwrap();
        let format = Format::new(6, 40);
        // hypot performs 4 roundings; enumerate all 2^4 RU/RD resolutions.
        let modes = vec![RoundingMode::TowardPositive, RoundingMode::TowardNegative];
        for choices in ChoiceRounding::all_choice_vectors(2, 4) {
            let mut fp = ChoiceRounding::new(format, modes.clone(), choices.clone());
            let rep = validate(
                &lowered.store,
                &sig,
                lowered.root,
                &[],
                &mut fp,
                &format.unit_roundoff(RoundingMode::TowardPositive),
            )
            .unwrap();
            assert!(rep.holds(), "violated for choices {choices:?}: {rep:?}");
        }
    }

    #[test]
    fn stateful_rounding_holds_for_every_initial_state() {
        let sig = Signature::relative_precision();
        let lowered = compile(HYPOT, &sig).unwrap();
        let format = Format::new(6, 40);
        let modes = vec![
            RoundingMode::TowardPositive,
            RoundingMode::TowardNegative,
            RoundingMode::NearestEven,
            RoundingMode::TowardZero,
        ];
        for s0 in 0..modes.len() {
            let mut fp = StatefulRounding { format, modes: modes.clone(), state: s0 };
            let rep = validate(
                &lowered.store,
                &sig,
                lowered.root,
                &[],
                &mut fp,
                &format.unit_roundoff(RoundingMode::TowardPositive),
            )
            .unwrap();
            assert!(rep.holds(), "violated from initial state {s0}: {rep:?}");
        }
    }

    #[test]
    fn exceptional_semantics_vacuous_on_overflow() {
        let sig = Signature::relative_precision();
        let src = r#"
            function f (x: ![2.0]num) : M[eps]num {
                let [x1] = x;
                s = mul (x1, x1);
                rnd s
            }
            f [70]{2.0}
        "#;
        let lowered = compile(src, &sig).unwrap();
        // 70^2 = 4900 overflows p=5, emax=10 (max ~2046).
        let format = Format::new(5, 10);
        let mut fp = CheckedRounding { format, mode: RoundingMode::NearestEven };
        let rep = validate(
            &lowered.store,
            &sig,
            lowered.root,
            &[],
            &mut fp,
            &format.unit_roundoff(RoundingMode::NearestEven),
        )
        .unwrap();
        assert!(rep.fp.is_none(), "expected err outcome");
        assert!(rep.holds(), "Cor. 7.5 is vacuous on err");
    }

    #[test]
    fn non_monadic_programs_are_rejected() {
        let sig = Signature::relative_precision();
        let src = "function f (x: num) : num { mul (x, 2) }\nf 3";
        let lowered = compile(src, &sig).unwrap();
        let mut fp = ModeRounding { format: Format::BINARY64, mode: RoundingMode::TowardPositive };
        let err = validate(&lowered.store, &sig, lowered.root, &[], &mut fp, &Rational::pow2(-52))
            .unwrap_err();
        assert!(matches!(err, SoundnessError::NotMonadicNum(_)));
    }
}
