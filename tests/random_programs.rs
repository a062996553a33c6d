//! Property-based error soundness, rebuilt on the full-surface fuzzer
//! (the workspace's strongest end-to-end check):
//!
//! * `full_surface_soundness` drives the `numfuzz-fuzz` generator — the
//!   same one behind `numfuzz fuzz` — through the complete differential
//!   oracle on random seeds, so conditionals, pairs, sums,
//!   `let`-functions, boxing, both instantiations, all formats and
//!   rounding modes are under proptest, not just straight-line kernels;
//! * the kernel-based properties below keep exercising the IR
//!   translation path: Cor. 4.20 on random straight-line programs, grade
//!   composition, production-vs-reference checker agreement, and
//!   machine-vs-small-step agreement. The metric-free properties use
//!   *signed* constants including zero (the RP metric itself is only
//!   defined on one-signed data, so the Cor. 4.20 property keeps the
//!   strictly positive corpus the paper's leading instantiation
//!   interprets).

use numfuzz::benchsuite::{Expr, Kernel};
use numfuzz::fuzz::generate_case;
use numfuzz::fuzzing::AnalyzerOracle;
use numfuzz::prelude::*;
use proptest::prelude::*;

/// Random positive "nice" rationals in roughly [1/64, 64] — the RP
/// instantiation interprets `num` as the strictly positive reals, so the
/// soundness property (which evaluates the RP metric) stays positive.
fn pos_const() -> impl Strategy<Value = Rational> {
    (1i64..64, 1i64..64).prop_map(|(n, d)| Rational::ratio(n, d))
}

/// Signed constants *including zero and negatives* for the metric-free
/// properties (checker agreement, machine-vs-small-step): sign handling
/// in `softfloat::arith` is only exercised when signs actually vary.
fn signed_const() -> impl Strategy<Value = Rational> {
    (-64i64..64, 1i64..64).prop_map(|(n, d)| Rational::ratio(n, d))
}

/// Random expressions over `nvars` inputs with bounded size.
fn expr_with(
    consts: proptest::strategy::BoxedStrategy<Rational>,
    nvars: usize,
) -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![consts.prop_map(Expr::Const), (0..nvars).prop_map(Expr::Var)];
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::add(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::mul(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::div(a, b)),
            inner.clone().prop_map(Expr::sqrt),
            (inner.clone(), inner.clone(), inner).prop_map(|(a, b, c)| Expr::fma(a, b, c)),
        ]
    })
}

fn expr(nvars: usize) -> impl Strategy<Value = Expr> {
    expr_with(pos_const().boxed(), nvars)
}

/// Random input values in [1/2, 2] — positive and overflow-safe for the
/// sizes generated here.
fn input_vals(nvars: usize) -> impl Strategy<Value = Vec<Rational>> {
    proptest::collection::vec((8i64..32, 8i64..16).prop_map(|(n, d)| Rational::ratio(n, d)), nvars)
}

fn unit_range() -> RatInterval {
    RatInterval::new(Rational::ratio(1, 2), Rational::from_int(2))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The full surface under proptest: random seeds drive the typed
    /// program generator and the complete differential oracle
    /// (check → validate → reference-ideal cross-check → round-trip).
    #[test]
    fn full_surface_soundness(seed in 0u64..u64::MAX / 2, index in 0usize..8) {
        use numfuzz::fuzz::Oracle;
        let case = generate_case(seed, index);
        let src = case.program.render();
        let result = AnalyzerOracle.run_case(&case.plan, &src, case.expected_ideal.as_ref());
        prop_assert!(
            result.is_ok(),
            "case (seed {seed}, index {index}, {}): {:?}\n---\n{src}",
            case.plan.describe(),
            result.err()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cor. 4.20 on random programs, two formats, two modes.
    #[test]
    fn error_soundness_on_random_programs(e in expr(3), vals in input_vals(3)) {
        let kernel = Kernel::new(
            "random",
            vec![("a", unit_range()), ("b", unit_range()), ("c", unit_range())],
            e,
        );
        let program = Program::from_kernel(&kernel).expect("always translatable (no sub)");
        // Every random program type-checks with a finite grade.
        let analyzer = Analyzer::new();
        let typed = analyzer.check(&program).expect("checks");
        prop_assert!(matches!(typed.grade(), Some(g) if !g.is_infinite()));

        let inputs = Inputs::positional(vals.iter().map(|q| Value::num(q.clone())));
        for format in [Format::BINARY64, Format::new(9, 60)] {
            for mode in [RoundingMode::TowardPositive, RoundingMode::NearestEven] {
                let session = Analyzer::builder().format(format).mode(mode).build();
                let rep = session.validate(&program, &inputs).expect("harness");
                prop_assert!(rep.holds(), "violation at {format} {mode}: {rep:?}");
            }
        }
    }

    /// The checker's minimality invariant: inferred grades only shrink
    /// when a program is embedded in a context that uses it once (bind
    /// composition adds grades, eq. of (MuE)).
    #[test]
    fn bind_composition_adds_grades(e1 in expr(1), e2 in expr(1)) {
        let analyzer = Analyzer::new();
        let mk = |e: Expr| Kernel::new("k", vec![("a", unit_range())], e);
        let g1 = grade_of(&analyzer, &mk(e1.clone()));
        let g2 = grade_of(&analyzer, &mk(e2.clone()));
        // Compose: e1 + e2 (one more rounding): grade(e1)+grade(e2)+eps.
        let composed = grade_of(&analyzer, &mk(Expr::add(e1, e2)));
        let expected = g1.add(&g2).add(&Grade::symbol("eps"));
        prop_assert_eq!(composed, expected);
    }
}

fn grade_of(analyzer: &Analyzer, k: &Kernel) -> Grade {
    let program = Program::from_kernel(k).expect("translatable");
    let typed = analyzer.check(&program).expect("checks");
    typed.grade().unwrap_or_else(|| panic!("unexpected {}", typed.ty())).clone()
}

/// Random expressions without `sqrt` (kept rational so the substitution-
/// based reference semantics applies), over *signed* constants.
fn expr_no_sqrt(nvars: usize) -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![signed_const().prop_map(Expr::Const), (0..nvars).prop_map(Expr::Var)];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::add(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::mul(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::div(a, b)),
            (inner.clone(), inner.clone(), inner).prop_map(|(a, b, c)| Expr::fma(a, b, c)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Differential oracle: the iterative production checker (behind
    /// `Analyzer::check`) and the recursive reference checker agree
    /// exactly (environment and type) on random programs — with signed
    /// and zero constants (typing is metric-free, so the whole constant
    /// range is fair game here).
    #[test]
    fn production_checker_agrees_with_reference(e in expr_with(signed_const().boxed(), 3)) {
        let kernel = Kernel::new(
            "random",
            vec![("a", unit_range()), ("b", unit_range()), ("c", unit_range())],
            e,
        );
        let program = Program::from_kernel(&kernel).expect("translatable");
        let analyzer = Analyzer::new();
        let fast = analyzer.check(&program).expect("fast");
        let slow = numfuzz::core::validate::infer_reference(
            program.store(),
            analyzer.signature(),
            program.root(),
            program.free(),
        )
        .expect("slow");
        prop_assert_eq!(fast.ty(), &slow.ty);
        prop_assert!(fast.root().env.le(&slow.env) && slow.env.le(&fast.root().env));
    }

    /// Cross-semantics agreement: the abstract machine (behind
    /// `Analyzer::run`) and the substitution-based small-step reference
    /// compute the same result on random (sqrt-free) programs, under both
    /// the ideal and the FP semantics. Signed and zero constants are in
    /// range; programs that divide by zero fault identically in both
    /// semantics and are skipped.
    #[test]
    fn machine_agrees_with_smallstep_on_random_programs(e in expr_no_sqrt(2), vals in input_vals(2)) {
        use numfuzz::core::Node;
        use numfuzz::interp::smallstep::{normalize, StepSemantics};

        let kernel = Kernel::new(
            "random",
            vec![("a", unit_range()), ("b", unit_range())],
            e,
        );
        let program = Program::from_kernel(&kernel).expect("translatable");
        let inputs = Inputs::positional(vals.iter().map(|q| Value::num(q.clone())));

        use numfuzz::interp::rounding::ModeRounding;
        let small_format = Format::new(11, 50);
        let session = Analyzer::new();
        // One machine run covers both arms: identity rounding for the
        // ideal side, plain (non-faulting) mode rounding for the FP
        // side — exactly matching the small-step semantics below.
        let mut fp = ModeRounding { format: small_format, mode: RoundingMode::TowardNegative };
        let report = match session.validate_with_rounding(&program, &inputs, &mut fp) {
            Ok(report) => report,
            Err(d) if d.code == ErrorCode::EvalFailed => {
                // Signed constants can divide by zero; both semantics
                // fault on such programs, so there is nothing to compare.
                prop_assume!(false);
                unreachable!()
            }
            Err(d) => panic!("harness failure: {}", d.render()),
        };
        for sem in [
            StepSemantics::Ideal,
            StepSemantics::Fp(small_format, RoundingMode::TowardNegative),
        ] {
            let machine = match sem {
                StepSemantics::Ideal => &report.ideal,
                _ => report.fp.as_ref().expect("mode rounding never faults"),
            };
            let machine_val = machine.as_point().expect("exact").clone();

            // Close the term by substituting constants for the free
            // inputs (the reference semantics has no environments).
            let (mut store, mut closed, free) = program.clone().into_parts();
            for ((v, _), q) in free.iter().zip(&vals) {
                let k = store.num(q.clone());
                closed = numfuzz::interp::smallstep::subst(&mut store, closed, *v, k);
            }
            let nf = normalize(&mut store, closed, sem, 10_000_000);
            let ss_val = match store.node(nf) {
                Node::Ret(v) => match store.node(*v) {
                    Node::Const(k) => store.constant(*k).clone(),
                    other => panic!("unexpected payload {other:?}"),
                },
                other => panic!("unexpected normal form {other:?}"),
            };
            prop_assert_eq!(&machine_val, &ss_val, "semantics {:?} diverged", sem);
        }
    }
}
