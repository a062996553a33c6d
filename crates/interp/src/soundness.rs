//! Empirical validation of error soundness (paper Corollary 4.20 and its
//! §7 variants): given the grade of a checked program `⊢ e : M_r num` and
//! the results of its ideal and floating-point runs, [`decide`]
//! *rigorously* decides `d(⟦e⟧_id, ⟦e⟧_fp) <= r`, and [`report_for`]
//! adds the display-only figures (the measured distance and the ULP
//! error). The facade's `Analyzer::validate` type-checks, runs both
//! semantics and reports; its optimizer reads the decision alone.
//!
//! The check is exact end to end: values are rational enclosures, the
//! grade bound is evaluated by substituting the exact unit roundoff for
//! `eps`, and the RP comparison is decided against rational enclosures of
//! `e^±r`. A reported violation would be a genuine counterexample to the
//! implementation (not a float artifact) — none exist, which the test
//! suites demonstrate on every benchmark and on random programs.

use crate::eval::EvalError;
use crate::value::Value;
use numfuzz_core::{Grade, Instantiation};
use numfuzz_exact::{RatInterval, Rational};
use numfuzz_metrics::{NumMetric, Within};

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

/// The metric a signature's instantiation imposes on `num` (Section 5).
pub fn metric_for(inst: Instantiation) -> NumMetric {
    match inst {
        Instantiation::RelativePrecision => NumMetric::RelativePrecision,
        Instantiation::AbsoluteError => NumMetric::Absolute,
    }
}

/// The rigorous half of a [`SoundnessReport`]: what [`decide`] finds,
/// without the display-only figures.
#[derive(Clone, Debug)]
pub struct Decision {
    /// Result of the ideal run.
    pub ideal: RatInterval,
    /// Result of the floating-point run (`None` when it faulted to `err`).
    pub fp: Option<RatInterval>,
    /// Is the distance within the bound?
    pub verdict: Within,
}

impl Decision {
    /// Whether the soundness theorem's claim held on this run (an `err`
    /// outcome vacuously satisfies Cor. 7.5).
    pub fn holds(&self) -> bool {
        self.fp.is_none() || self.verdict == Within::Yes
    }

    /// The full report: this decision, the grade and bound it was made
    /// against, and the display-only figures — the measured distance and
    /// the ULP error against `target_format` (eq. 4). Those figures cost
    /// far more than the decision (two 80-bit distance enclosures).
    pub fn report(
        self,
        instantiation: Instantiation,
        grade: Grade,
        bound: Rational,
        target_format: Option<numfuzz_softfloat::Format>,
    ) -> SoundnessReport {
        let Decision { ideal, fp, verdict } = self;
        let (measured, ulp) = match &fp {
            None => (None, None),
            Some(fp) => {
                let metric = metric_for(instantiation);
                // Worst-case distance over the enclosure corners.
                let measured = [
                    metric.distance_f64(ideal.hi(), fp.lo()),
                    metric.distance_f64(ideal.lo(), fp.hi()),
                ]
                .into_iter()
                .flatten()
                .fold(None, |acc: Option<f64>, d| Some(acc.map_or(d, |a| a.max(d))));
                (measured, ulp_between(target_format, &ideal, fp))
            }
        };
        SoundnessReport { grade, bound, ideal, fp, verdict, measured, ulp }
    }
}

/// Decides Corollary 4.20 for one run: given the numeric `bound` of a
/// program `⊢ e : M_r num` and the results of the ideal and a
/// floating-point semantics, whether `d(⟦e⟧_id, ⟦e⟧_fp) <= r`. An `err`
/// floating-point result vacuously satisfies Cor. 7.5.
///
/// # Errors
///
/// [`EvalError::Stuck`] when either value is not `ret` of a number (and
/// the fp value is not `err`).
pub fn decide(
    instantiation: Instantiation,
    bound: &Rational,
    ideal_val: &Value,
    fp_val: &Value,
) -> Result<Decision, EvalError> {
    let ideal = expect_ret_num(ideal_val)?;
    let (fp, verdict) = match fp_val {
        Value::ErrV => (None, Within::Yes),
        other => {
            let fp = expect_ret_num(other)?;
            let verdict = metric_for(instantiation).within(&ideal, &fp, bound);
            (Some(fp), verdict)
        }
    };
    Ok(Decision { ideal, fp, verdict })
}

/// [`decide`], then [`Decision::report`]: the full Cor. 4.20 report for
/// one run. `target_format` is the strategy's format, for the ULP error
/// (eq. 4).
///
/// # Errors
///
/// As for [`decide`].
pub fn report_for(
    instantiation: Instantiation,
    grade: Grade,
    bound: Rational,
    ideal_val: &Value,
    fp_val: &Value,
    target_format: Option<numfuzz_softfloat::Format>,
) -> Result<SoundnessReport, EvalError> {
    let decision = decide(instantiation, &bound, ideal_val, fp_val)?;
    Ok(decision.report(instantiation, grade, bound, target_format))
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

fn expect_ret_num(v: &Value) -> Result<RatInterval, EvalError> {
    v.as_ret()
        .and_then(Value::as_num)
        .cloned()
        .ok_or(EvalError::Stuck("monadic numeric result expected"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval, EvalConfig};
    use crate::rounding::{
        CheckedRounding, ChoiceRounding, IdentityRounding, ModeRounding, Rounding, StatefulRounding,
    };
    use numfuzz_core::{compile, infer, Signature, Ty};
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

    /// Corollary 4.20 for a closed relative-precision program: infers its
    /// grade, substitutes `unit` for `eps`, runs the ideal semantics and
    /// `fp`, and decides the distance with [`report_for`].
    fn validate(src: &str, fp: &mut dyn Rounding, unit: &Rational) -> SoundnessReport {
        let sig = Signature::relative_precision();
        let lowered = compile(src, &sig).unwrap();
        let (store, root) = (&lowered.store, lowered.root);
        let grade = match infer(store, &sig, root, &[]).unwrap().root.ty {
            Ty::Monad(grade, _) => grade,
            other => panic!("not monadic: {other}"),
        };
        let bound = grade.eval_eps(unit).unwrap();
        let config = EvalConfig::default();
        let ideal = eval(store, root, &mut IdentityRounding, config, &[]).unwrap();
        let fp_val = eval(store, root, fp, config, &[]).unwrap();
        report_for(sig.instantiation(), grade, bound, &ideal, &fp_val, fp.target_format()).unwrap()
    }

    #[test]
    fn hypot_bound_holds_in_binary64() {
        let format = Format::BINARY64;
        let mode = RoundingMode::TowardPositive;
        let mut fp = ModeRounding { format, mode };
        let rep = validate(HYPOT, &mut fp, &format.unit_roundoff(mode));
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
        for p in [4, 6, 9] {
            let format = Format::new(p, 40);
            for mode in RoundingMode::ALL {
                let mut fp = ModeRounding { format, mode };
                let rep = validate(HYPOT, &mut fp, &format.unit_roundoff(mode));
                assert!(rep.holds(), "violated at p={p} mode={mode}: {rep:?}");
            }
        }
    }

    #[test]
    fn nondeterministic_rounding_all_resolutions_hold() {
        // §7.2 TP⁺: every resolution of mode choices satisfies the bound.
        let format = Format::new(6, 40);
        let unit = format.unit_roundoff(RoundingMode::TowardPositive);
        // hypot performs 4 roundings; enumerate all 2^4 RU/RD resolutions.
        let modes = vec![RoundingMode::TowardPositive, RoundingMode::TowardNegative];
        for choices in ChoiceRounding::all_choice_vectors(2, 4) {
            let mut fp = ChoiceRounding::new(format, modes.clone(), choices.clone());
            let rep = validate(HYPOT, &mut fp, &unit);
            assert!(rep.holds(), "violated for choices {choices:?}: {rep:?}");
        }
    }

    #[test]
    fn stateful_rounding_holds_for_every_initial_state() {
        let format = Format::new(6, 40);
        let unit = format.unit_roundoff(RoundingMode::TowardPositive);
        let modes = vec![
            RoundingMode::TowardPositive,
            RoundingMode::TowardNegative,
            RoundingMode::NearestEven,
            RoundingMode::TowardZero,
        ];
        for s0 in 0..modes.len() {
            let mut fp = StatefulRounding { format, modes: modes.clone(), state: s0 };
            let rep = validate(HYPOT, &mut fp, &unit);
            assert!(rep.holds(), "violated from initial state {s0}: {rep:?}");
        }
    }

    #[test]
    fn exceptional_semantics_vacuous_on_overflow() {
        let src = r#"
            function f (x: ![2.0]num) : M[eps]num {
                let [x1] = x;
                s = mul (x1, x1);
                rnd s
            }
            f [70]{2.0}
        "#;
        // 70^2 = 4900 overflows p=5, emax=10 (max ~2046).
        let format = Format::new(5, 10);
        let mut fp = CheckedRounding { format, mode: RoundingMode::NearestEven };
        let rep = validate(src, &mut fp, &format.unit_roundoff(RoundingMode::NearestEven));
        assert!(rep.fp.is_none(), "expected err outcome");
        assert!(rep.holds(), "Cor. 7.5 is vacuous on err");
    }

    #[test]
    fn non_monadic_programs_are_rejected() {
        let sig = Signature::relative_precision();
        let src = "function f (x: num) : num { mul (x, 2) }\nf 3";
        let lowered = compile(src, &sig).unwrap();
        let mut fp = ModeRounding { format: Format::BINARY64, mode: RoundingMode::TowardPositive };
        let config = EvalConfig::default();
        let value = eval(&lowered.store, lowered.root, &mut fp, config, &[]).unwrap();
        let err = report_for(
            sig.instantiation(),
            Grade::zero(),
            Rational::zero(),
            &value,
            &value,
            fp.target_format(),
        )
        .unwrap_err();
        assert!(matches!(err, EvalError::Stuck(_)), "{err}");
    }
}
