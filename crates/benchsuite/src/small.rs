//! The seventeen small kernels of the paper's Table 3.
//!
//! Thirteen come from FPBench (marked `fpbench: true`) — the subset the
//! paper can handle: `+ × ÷ √` over strictly positive inputs; the rest are
//! the Horner-scheme family of Section 5. Every kernel records the exact
//! Λnum error coefficient (the grade is `coeff · eps`) that the paper's
//! Table 3 column reports after the eq. (8) conversion, plus sample inputs
//! used by the error-soundness validator.

use crate::ir::{Expr, Kernel};
use numfuzz_exact::{RatInterval, Rational};

/// One Table 3 row.
#[derive(Clone, Debug)]
pub struct SmallBench {
    /// Kernel (IR form, translated to Λnum for both the typing judgment
    /// and the interval engine).
    pub kernel: Kernel,
    /// Whether the kernel comes from FPBench (starred in the paper).
    pub fpbench: bool,
    /// The Λnum grade as a multiple of `eps` (exact).
    pub expected_eps_coeff: Rational,
    /// Sample inputs (one per kernel input) for soundness validation.
    pub samples: Vec<Vec<Rational>>,
}

fn rat(s: &str) -> Rational {
    Rational::from_decimal_str(s).expect("valid benchmark literal")
}

/// The paper's input range for Table 3: `[0.1, 1000]`.
fn std_range() -> RatInterval {
    RatInterval::new(rat("0.1"), rat("1000"))
}

fn coeff(n: i64, d: i64) -> Rational {
    Rational::ratio(n, d)
}

fn v(i: usize) -> Expr {
    Expr::Var(i)
}

/// FMA-based Horner evaluation of the degree-`n` polynomial with
/// coefficients `a_i = i + 1` (positive, so RP applies).
pub fn horner_expr(degree: usize) -> Expr {
    let mut acc = Expr::Const(Rational::from_int(degree as i64 + 1));
    for i in (0..degree).rev() {
        acc = Expr::fma(acc, v(0), Expr::Const(Rational::from_int(i as i64 + 1)));
    }
    acc
}

fn bench(
    name: &str,
    fpbench: bool,
    inputs: Vec<&str>,
    expr: Expr,
    expected: Rational,
    samples: &[&[&str]],
) -> SmallBench {
    let kernel = Kernel::new(name, inputs.into_iter().map(|n| (n, std_range())).collect(), expr);
    SmallBench {
        kernel,
        fpbench,
        expected_eps_coeff: expected,
        samples: samples.iter().map(|row| row.iter().map(|s| rat(s)).collect()).collect(),
    }
}

/// All Table 3 kernels, in the paper's row order.
///
/// `Horner2_with_error` is the 14th row; its Λnum form needs monadic
/// inputs and lives in [`horner2_with_error_source`], while its kernel
/// form, for the interval engine, is [`horner2_with_error_kernel`].
pub fn table3() -> Vec<SmallBench> {
    vec![
        bench(
            "hypot",
            true,
            vec!["x1", "x2"],
            Expr::sqrt(Expr::add(Expr::mul(v(0), v(0)), Expr::mul(v(1), v(1)))),
            coeff(5, 2),
            &[&["3.7", "0.51"], &["0.1", "1000"], &["999.5", "999.5"]],
        ),
        bench(
            "x_by_xy",
            true,
            vec!["x", "y"],
            Expr::div(v(0), Expr::add(v(0), v(1))),
            coeff(2, 1),
            &[&["0.1", "1000"], &["500", "0.25"]],
        ),
        bench(
            "one_by_sqrtxx",
            false,
            vec!["x"],
            Expr::div(Expr::num("1"), Expr::sqrt(Expr::mul(v(0), v(0)))),
            coeff(5, 2),
            &[&["0.1"], &["33.3"], &["1000"]],
        ),
        bench(
            "sqrt_add",
            true,
            vec!["x"],
            Expr::div(
                Expr::num("1"),
                Expr::add(Expr::sqrt(Expr::add(v(0), Expr::num("1"))), Expr::sqrt(v(0))),
            ),
            coeff(9, 2),
            &[&["0.1"], &["42"], &["1000"]],
        ),
        bench(
            "test02_sum8",
            true,
            vec!["x0", "x1", "x2", "x3", "x4", "x5", "x6", "x7"],
            (1..8).fold(v(0), |acc, i| Expr::add(acc, v(i))),
            coeff(7, 1),
            &[&["0.1", "2", "3", "4", "5", "6", "7", "1000"]],
        ),
        bench(
            "nonlin1",
            true,
            vec!["z"],
            Expr::div(v(0), Expr::add(v(0), Expr::num("1"))),
            coeff(2, 1),
            &[&["0.1"], &["999.9"]],
        ),
        bench(
            "test05_nonlin1",
            true,
            vec!["z"],
            Expr::div(v(0), Expr::add(v(0), Expr::num("1"))),
            coeff(2, 1),
            &[&["0.5"], &["123.456"]],
        ),
        bench(
            "verhulst",
            true,
            vec!["x"],
            Expr::div(
                Expr::mul(Expr::num("4.0"), v(0)),
                Expr::add(Expr::num("1.0"), Expr::div(v(0), Expr::num("1.11"))),
            ),
            coeff(4, 1),
            &[&["0.1"], &["0.27"], &["1000"]],
        ),
        bench(
            "predatorPrey",
            true,
            vec!["x"],
            Expr::div(
                Expr::mul(Expr::mul(Expr::num("4.0"), v(0)), v(0)),
                Expr::add(
                    Expr::num("1.0"),
                    Expr::mul(
                        Expr::div(v(0), Expr::num("1.11")),
                        Expr::div(v(0), Expr::num("1.11")),
                    ),
                ),
            ),
            coeff(7, 1),
            &[&["0.1"], &["0.35"], &["1000"]],
        ),
        bench(
            "test06_sums4_sum1",
            true,
            vec!["x0", "x1", "x2", "x3"],
            Expr::add(Expr::add(Expr::add(v(0), v(1)), v(2)), v(3)),
            coeff(3, 1),
            &[&["0.1", "2", "30", "1000"]],
        ),
        bench(
            "test06_sums4_sum2",
            true,
            vec!["x0", "x1", "x2", "x3"],
            Expr::add(Expr::add(v(0), v(1)), Expr::add(v(2), v(3))),
            coeff(3, 1),
            &[&["0.1", "2", "30", "1000"]],
        ),
        bench(
            "i4",
            true,
            vec!["x", "y"],
            Expr::sqrt(Expr::add(v(0), Expr::mul(v(1), v(1)))),
            coeff(2, 1),
            &[&["0.1", "1000"], &["777", "0.3"]],
        ),
        bench(
            "Horner2",
            false,
            vec!["x"],
            horner_expr(2),
            coeff(2, 1),
            &[&["0.1"], &["9.75"], &["1000"]],
        ),
        bench(
            "Horner5",
            false,
            vec!["x"],
            horner_expr(5),
            coeff(5, 1),
            &[&["0.1"], &["3.3"], &["1000"]],
        ),
        bench(
            "Horner10",
            false,
            vec!["x"],
            horner_expr(10),
            coeff(10, 1),
            &[&["0.1"], &["2"], &["57"]],
        ),
        bench(
            "Horner20",
            false,
            vec!["x"],
            horner_expr(20),
            coeff(20, 1),
            &[&["0.1"], &["1.5"], &["2.25"]],
        ),
    ]
}

/// The Horner2-with-input-error row as a kernel: the Horner-2 kernel with
/// one unit of relative input error, which the interval engine bounds.
pub fn horner2_with_error_kernel() -> SmallBench {
    let mut b = bench(
        "Horner2_with_error",
        false,
        vec!["x"],
        horner_expr(2),
        coeff(7, 1),
        &[&["0.1"], &["9.75"], &["1000"]],
    );
    b.kernel = b.kernel.with_input_error(1);
    b
}

/// The Λnum surface program for Horner2_with_error (Fig. 9): every input
/// arrives with `eps` of error and the inferred total is `7·eps`.
pub fn horner2_with_error_source() -> &'static str {
    r#"
function FMA (x: num) (y: num) (z: num) : M[eps]num {
    a = mul (x,y);
    b = add (|a,z|);
    rnd b
}
function Horner2we (a0: M[eps]num) (a1: M[eps]num) (a2: M[eps]num) (x: ![2.0]M[eps]num) : M[7*eps]num {
    let [x1] = x;
    let a0' = a0; let a1' = a1;
    let a2' = a2; let x' = x1;
    s1 = FMA a2' x' a1';
    let z = s1;
    FMA z x' a0'
}
"#
}

/// The paper's published Table 3 values, one row per kernel of
/// [`table3`] plus `Horner2_with_error`: (name, Λnum bound, FPTaylor
/// bound, Gappa bound).
pub const PAPER_TABLE3: &[(&str, &str, &str, &str)] = &[
    ("hypot", "5.55e-16", "5.17e-16", "4.46e-16"),
    ("x_by_xy", "4.44e-16", "fail", "2.22e-16"),
    ("one_by_sqrtxx", "5.55e-16", "5.09e-13", "3.33e-16"),
    ("sqrt_add", "9.99e-16", "6.66e-16", "5.54e-16"),
    ("test02_sum8", "1.55e-15", "9.32e-14", "1.55e-15"),
    ("nonlin1", "4.44e-16", "4.49e-16", "2.22e-16"),
    ("test05_nonlin1", "4.44e-16", "4.46e-16", "2.22e-16"),
    ("verhulst", "8.88e-16", "7.38e-16", "4.44e-16"),
    ("predatorPrey", "1.55e-15", "4.21e-11", "8.88e-16"),
    ("test06_sums4_sum1", "6.66e-16", "6.71e-16", "6.66e-16"),
    ("test06_sums4_sum2", "6.66e-16", "1.78e-14", "4.44e-16"),
    ("i4", "4.44e-16", "4.50e-16", "4.44e-16"),
    ("Horner2", "4.44e-16", "6.49e-11", "4.44e-16"),
    ("Horner2_with_error", "1.55e-15", "1.61e-10", "1.11e-15"),
    ("Horner5", "1.11e-15", "1.62e-01", "1.11e-15"),
    ("Horner10", "2.22e-15", "1.14e+13", "2.22e-15"),
    ("Horner20", "4.44e-15", "2.53e+43", "4.44e-15"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_core::kernel_to_core;
    use numfuzz_core::{infer, Grade, Signature, Ty};

    /// Every Table 3 kernel's Λnum translation infers exactly the grade
    /// the paper reports (the central reproduction check).
    #[test]
    fn all_table3_grades_match_the_paper() {
        let sig = Signature::relative_precision();
        for b in table3() {
            let ck = kernel_to_core(&b.kernel).expect("translatable");
            let res = infer(&ck.store, &sig, ck.root, &ck.free)
                .unwrap_or_else(|e| panic!("{}: {e}", b.kernel.name));
            let expected = Ty::monad(Grade::symbol("eps").scale(&b.expected_eps_coeff), Ty::Num);
            assert_eq!(
                res.root.ty, expected,
                "{}: inferred {} expected {}",
                b.kernel.name, res.root.ty, expected
            );
        }
    }

    /// Op counts match the paper's Ops column.
    #[test]
    fn op_counts_match_table3() {
        // Our convention counts one op per rounding (two for FMA). The
        // paper's Ops column is one higher for four rows (x_by_xy 3,
        // test02_sum8 8, sums4 4, i4 4); `table3` prints this count, and
        // the grades do not depend on it.
        let expected: &[(&str, usize)] = &[
            ("hypot", 4),
            ("x_by_xy", 2),
            ("one_by_sqrtxx", 3),
            ("sqrt_add", 5),
            ("test02_sum8", 7),
            ("nonlin1", 2),
            ("test05_nonlin1", 2),
            ("verhulst", 4),
            ("predatorPrey", 7),
            ("test06_sums4_sum1", 3),
            ("test06_sums4_sum2", 3),
            ("i4", 3),
            ("Horner2", 4),
            ("Horner5", 10),
            ("Horner10", 20),
            ("Horner20", 40),
        ];
        let benches = table3();
        for (name, ops) in expected {
            let b = benches.iter().find(|b| &b.kernel.name == name).unwrap();
            assert_eq!(b.kernel.op_count(), *ops, "{name}");
        }
    }

    /// Sample inputs lie inside the declared ranges.
    #[test]
    fn samples_in_range() {
        for b in table3() {
            for row in &b.samples {
                assert_eq!(row.len(), b.kernel.inputs.len(), "{}", b.kernel.name);
                for (val, (_, range)) in row.iter().zip(&b.kernel.inputs) {
                    assert!(range.contains(val), "{}: {val} outside range", b.kernel.name);
                }
            }
        }
    }

    /// The with-error row checks out at 7·eps from the surface program.
    #[test]
    fn horner2_with_error_is_7_eps() {
        let sig = Signature::relative_precision();
        let lowered = numfuzz_core::compile(horner2_with_error_source(), &sig).unwrap();
        let res = infer(&lowered.store, &sig, lowered.root, &[]).unwrap();
        let rep = res.fn_report("Horner2we").unwrap();
        assert!(rep.inferred.to_string().ends_with("M[7*eps]num"), "{}", rep.inferred);
    }
}
