//! A straight-line expression IR for floating-point kernels.
//!
//! The Table 3 kernels are written in this IR and reach both the typing
//! judgment and the `numfuzz-bounds` interval engine through the
//! translation into Λnum ([`crate::to_core`]). It mirrors the FPBench
//! core fragment the paper can handle: `+ − × ÷ √` over real constants
//! and range-bounded inputs (subtraction is representable so that
//! out-of-fragment kernels get a diagnostic; the RP instantiation of Λnum
//! does not type it).

use numfuzz_exact::{RatInterval, Rational};

/// A real-valued expression over indexed inputs.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A real constant.
    Const(Rational),
    /// The `i`-th input.
    Var(usize),
    /// `a + b`.
    Add(Box<Expr>, Box<Expr>),
    /// `a - b`.
    Sub(Box<Expr>, Box<Expr>),
    /// `a * b`.
    Mul(Box<Expr>, Box<Expr>),
    /// `a / b`.
    Div(Box<Expr>, Box<Expr>),
    /// `sqrt(a)`.
    Sqrt(Box<Expr>),
    /// Fused multiply-add `a*b + c` with a **single** rounding — the
    /// operation behind the paper's Horner benchmarks (Fig. 8).
    Fma(Box<Expr>, Box<Expr>, Box<Expr>),
}

// `add`/`sub`/`mul`/`div` are static constructors named after the IR
// nodes, not operator overloads.
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// Constant from a decimal literal.
    ///
    /// # Panics
    ///
    /// Panics on an invalid literal (kernel definitions are static).
    pub fn num(s: &str) -> Expr {
        Expr::Const(Rational::from_decimal_str(s).expect("valid kernel literal"))
    }

    /// `a + b`.
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::Add(Box::new(a), Box::new(b))
    }

    /// `a - b`.
    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::Sub(Box::new(a), Box::new(b))
    }

    /// `a * b`.
    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::Mul(Box::new(a), Box::new(b))
    }

    /// `a / b`.
    pub fn div(a: Expr, b: Expr) -> Expr {
        Expr::Div(Box::new(a), Box::new(b))
    }

    /// `sqrt(a)`.
    pub fn sqrt(a: Expr) -> Expr {
        Expr::Sqrt(Box::new(a))
    }

    /// `fma(a, b, c) = a*b + c`, rounded once.
    pub fn fma(a: Expr, b: Expr, c: Expr) -> Expr {
        Expr::Fma(Box::new(a), Box::new(b), Box::new(c))
    }

    /// Number of rounded floating-point operations.
    pub fn op_count(&self) -> usize {
        match self {
            Expr::Const(_) | Expr::Var(_) => 0,
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                1 + a.op_count() + b.op_count()
            }
            Expr::Sqrt(a) => 1 + a.op_count(),
            // Counted as two arithmetic operations (mul + add), matching
            // the paper's Ops column, despite the single rounding.
            Expr::Fma(a, b, c) => 2 + a.op_count() + b.op_count() + c.op_count(),
        }
    }
}

/// A named kernel: an expression plus input names and ranges.
#[derive(Clone, Debug)]
pub struct Kernel {
    /// Kernel name (FPBench name where applicable).
    pub name: String,
    /// Input names and ranges.
    pub inputs: Vec<(String, RatInterval)>,
    /// The body.
    pub expr: Expr,
    /// Relative error already present on every input, in units of the
    /// rounding unit `u` (0 for exact inputs; the `*_with_error`
    /// benchmarks use 1). The Λnum translation rounds each input this
    /// many times before the body.
    pub input_rel_ulps: u32,
}

impl Kernel {
    /// Builds a kernel with exact inputs.
    pub fn new(name: &str, inputs: Vec<(&str, RatInterval)>, expr: Expr) -> Self {
        Kernel {
            name: name.to_string(),
            inputs: inputs.into_iter().map(|(n, r)| (n.to_string(), r)).collect(),
            expr,
            input_rel_ulps: 0,
        }
    }

    /// Marks every input as carrying `k·u` of relative error.
    pub fn with_input_error(mut self, k: u32) -> Self {
        self.input_rel_ulps = k;
        self
    }

    /// The input ranges, in order.
    pub fn ranges(&self) -> Vec<RatInterval> {
        self.inputs.iter().map(|(_, r)| r.clone()).collect()
    }

    /// Number of rounded operations.
    pub fn op_count(&self) -> usize {
        self.expr.op_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_count_counts_roundings() {
        // hypot: sqrt(x*x + y*y) = 4 ops.
        let e = Expr::sqrt(Expr::add(
            Expr::mul(Expr::Var(0), Expr::Var(0)),
            Expr::mul(Expr::Var(1), Expr::Var(1)),
        ));
        assert_eq!(e.op_count(), 4);
        assert_eq!(Expr::Var(0).op_count(), 0);
    }
}
