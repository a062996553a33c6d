//! # numfuzz-bench
//!
//! The table-regeneration harness: one binary per table of the paper's
//! evaluation (`table1` … `table5`, plus `validate` for the error-
//! soundness sweep), and criterion benches backing the timing columns.
//!
//! Run e.g. `cargo run --release -p numfuzz-bench --bin table3`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use numfuzz_exact::Rational;
use numfuzz_metrics::rp::rp_to_rel_bound;
use std::time::Duration;

/// The paper's Table 3 reference values: (name, paper Λnum bound,
/// paper FPTaylor bound, paper Gappa bound).
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

/// The paper's Table 4 reference values: (name, ops, paper Λnum bound,
/// paper Std bound, paper Λnum seconds).
pub const PAPER_TABLE4: &[(&str, usize, &str, &str, &str)] = &[
    ("Horner50", 100, "1.11e-14", "1.11e-14", "9e-03"),
    ("MatrixMultiply4", 112, "1.55e-15", "8.88e-16", "3e-03"),
    ("Horner75", 150, "1.66e-14", "1.66e-14", "2e-02"),
    ("Horner100", 200, "2.22e-14", "2.22e-14", "4e-02"),
    ("SerialSum", 1023, "2.27e-13", "2.27e-13", "5"),
    ("Poly50", 1325, "2.94e-13", "-", "2.12"),
    ("MatrixMultiply16", 7936, "6.88e-15", "3.55e-15", "4e-02"),
    ("MatrixMultiply64", 520192, "2.82e-14", "1.42e-14", "10"),
    ("MatrixMultiply128", 4177920, "5.66e-14", "2.84e-14", "1080"),
];

/// The paper's Table 5 reference values: (name, paper bound, paper ms).
pub const PAPER_TABLE5: &[(&str, &str, &str)] = &[
    ("PythagoreanSum", "8.88e-16", "2"),
    ("HammarlingDistance", "1.11e-15", "2"),
    ("squareRoot3", "4.44e-16", "2"),
    ("squareRoot3Invalid", "4.44e-16", "2"),
];

/// Converts an RP grade coefficient times `u` into the relative-error
/// bound the paper reports (eq. 8), rendered at three significant digits.
pub fn rp_bound_string(alpha: &Rational) -> String {
    match rp_to_rel_bound(alpha) {
        Some(rel) => rel.to_sci_string(3),
        None => "inf".to_string(),
    }
}

/// Render a duration like the paper's timing columns.
pub fn fmt_time(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.0}us", s * 1e6)
    }
}

/// The ratio of the typed grade `α` to the interval engine's bound, as
/// the paper's Ratio column (values <= 1 mean Λnum is at least as tight).
///
/// Both sides are exact RP-metric bounds, the quantity `numfuzz table1`'s
/// `tighter` column compares; their eq. (8) conversions would add an
/// `O(u)` term that moves ties in the last printed digit.
pub fn ratio_string(typed_alpha: &Rational, interval_alpha: &Rational) -> String {
    if interval_alpha.is_zero() {
        return "-".to_string();
    }
    format!("{:.1}", typed_alpha.div(interval_alpha).to_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use numfuzz_benchsuite::{horner2_with_error_kernel, table3};
    use numfuzz_softfloat::{Format, RoundingMode};

    /// The recorded Table 3 coefficients reproduce the paper's published
    /// Λnum column at binary64, round toward +∞.
    #[test]
    fn table3_coefficients_reproduce_the_paper_lnum_column() {
        let u = Format::BINARY64.unit_roundoff(RoundingMode::TowardPositive);
        let rows = table3().into_iter().chain([horner2_with_error_kernel()]).collect::<Vec<_>>();
        assert_eq!(rows.len(), PAPER_TABLE3.len());
        for b in rows {
            let paper = PAPER_TABLE3
                .iter()
                .find(|(name, ..)| *name == b.kernel.name)
                .unwrap_or_else(|| panic!("{} has no paper row", b.kernel.name));
            assert_eq!(rp_bound_string(&b.expected_eps_coeff.mul(&u)), paper.1, "{}", paper.0);
        }
    }
}
