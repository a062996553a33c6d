//! Translation from the straight-line IR into Λnum terms.
//!
//! This is the paper's "we translate a variety of floating-point
//! benchmarks into Λnum" (Section 6): every IR operation becomes the
//! corresponding primitive application followed by `rnd`, sequenced with
//! monadic binds — i.e. the `mulfp`/`addfp`/`sqrtfp` style of Fig. 7,
//! inlined. Constants stay exact real constants: `num` is the real
//! numbers, and Table 3 compares bounds on kernels whose literals are
//! exact, so a constant contributes no rounding of its own. A kernel
//! whose inputs already carry `k·u` of error ([`Kernel::input_rel_ulps`])
//! rounds each input `k` times before the body.
//!
//! Kernels with `Sub` cannot be translated: the RP instantiation has no
//! subtraction (Section 6.1 limitations).

use crate::ir::{Expr, Kernel};
use numfuzz_core::{CoreArena, Grade, TermId, TermStore, Ty, VarId};
use numfuzz_exact::Rational;

/// A kernel translated to an (open) Λnum term of type `M[...]num`.
#[derive(Debug)]
pub struct CoreKernel {
    /// The arena.
    pub store: TermStore,
    /// The root term.
    pub root: TermId,
    /// Free variables (kernel inputs, in order) with their types.
    pub free: Vec<(VarId, Ty)>,
}

/// Translation failure (subtraction, or an input index out of range).
#[derive(Clone, Debug, PartialEq)]
pub struct TranslateError(pub String);

impl std::fmt::Display for TranslateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot translate to Λnum: {}", self.0)
    }
}

impl std::error::Error for TranslateError {}

/// Translates a kernel into an open Λnum term.
///
/// # Errors
///
/// [`TranslateError`] for `Sub` nodes (no RP subtraction) or bad input
/// indices.
pub fn kernel_to_core(kernel: &Kernel) -> Result<CoreKernel, TranslateError> {
    kernel_to_core_in(CoreArena::new(), kernel)
}

/// [`kernel_to_core`], emitting into a store that shares `tys` (one
/// analysis session's arena), so annotation ids and memoized lattice
/// queries are reused across a batch of kernels.
///
/// # Errors
///
/// See [`kernel_to_core`].
pub fn kernel_to_core_in(tys: CoreArena, kernel: &Kernel) -> Result<CoreKernel, TranslateError> {
    let mut store = TermStore::with_arena(tys);
    let free: Vec<(VarId, Ty)> =
        kernel.inputs.iter().map(|(name, _)| (store.fresh_var(name), Ty::Num)).collect();
    // One `(from, to)` step per rounding of input error, in binding order;
    // the body reads each input's last name.
    let mut steps = Vec::new();
    let mut vars = Vec::new();
    for (x, _) in &free {
        let mut cur = *x;
        for _ in 0..kernel.input_rel_ulps {
            let t = store.fresh_var("t");
            steps.push((cur, t));
            cur = t;
        }
        vars.push(cur);
    }
    let mut tx = Translator { store, vars };
    let mut root = tx.monadic(&kernel.expr)?;
    for &(x, t) in steps.iter().rev() {
        root = tx.rounded_input(x, t, root);
    }
    Ok(CoreKernel { store: tx.store, root, free })
}

struct Translator {
    store: TermStore,
    vars: Vec<VarId>,
}

impl Translator {
    /// Translates an expression to a monadic term (`M[...]num`): every IR
    /// operation is computed with the exact primitive and then rounded.
    fn monadic(&mut self, e: &Expr) -> Result<TermId, TranslateError> {
        match e {
            // Leaves incur no rounding: ret.
            Expr::Const(c) => {
                let k = self.store.num(c.clone());
                Ok(self.store.ret(k))
            }
            Expr::Var(i) => {
                let v = self.value_leaf(e)?;
                let _ = i;
                Ok(self.store.ret(v))
            }
            _ => self.bind_compound(e),
        }
    }

    fn value_leaf(&mut self, e: &Expr) -> Result<TermId, TranslateError> {
        match e {
            Expr::Const(c) => Ok(self.store.num(c.clone())),
            Expr::Var(i) => {
                let v = *self
                    .vars
                    .get(*i)
                    .ok_or_else(|| TranslateError(format!("input index {i} out of range")))?;
                Ok(self.store.var(v))
            }
            _ => unreachable!("only called on leaves"),
        }
    }

    /// Translates `op(a, b)` as
    /// `let x = ⟦a⟧; let y = ⟦b⟧; s = op (x,y); rnd s`
    /// (leaf operands are used in place without a bind).
    fn bind_compound(&mut self, e: &Expr) -> Result<TermId, TranslateError> {
        match e {
            Expr::Sub(..) => Err(TranslateError(
                "subtraction is not typable in the RP instantiation".to_string(),
            )),
            Expr::Add(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                let (op_name, with_pair) = match e {
                    Expr::Add(..) => ("add", true),
                    Expr::Mul(..) => ("mul", false),
                    _ => ("div", false),
                };
                // Innermost-first: operand computations happen before the
                // operation; binds nest outward.
                self.with_operand(a, |tx, va| {
                    tx.with_operand(b, |tx, vb| {
                        let pair = if with_pair {
                            tx.store.pair_with(va, vb)
                        } else {
                            tx.store.pair_tensor(va, vb)
                        };
                        let s = tx.store.fresh_var("s");
                        let op = tx.store.op(op_name, pair);
                        let sv = tx.store.var(s);
                        let rnd = tx.store.rnd(sv);
                        Ok(tx.store.let_in(s, op, rnd))
                    })
                })
            }
            Expr::Fma(a, b, c) => {
                // FMA: exact mul, exact add, one rounding (paper Fig. 8).
                self.with_operand(a, |tx, va| {
                    tx.with_operand(b, |tx, vb| {
                        tx.with_operand(c, |tx, vc| {
                            let m = tx.store.fresh_var("m");
                            let prod = tx.store.pair_tensor(va, vb);
                            let mul = tx.store.op("mul", prod);
                            let s = tx.store.fresh_var("s");
                            let mv = tx.store.var(m);
                            let sum_pair = tx.store.pair_with(mv, vc);
                            let add = tx.store.op("add", sum_pair);
                            let sv = tx.store.var(s);
                            let rnd = tx.store.rnd(sv);
                            let inner = tx.store.let_in(s, add, rnd);
                            Ok(tx.store.let_in(m, mul, inner))
                        })
                    })
                })
            }
            Expr::Sqrt(a) => self.with_operand(a, |tx, va| {
                let boxed = tx.store.box_intro(Grade::constant(Rational::ratio(1, 2)), va);
                let s = tx.store.fresh_var("s");
                let op = tx.store.op("sqrt", boxed);
                let sv = tx.store.var(s);
                let rnd = tx.store.rnd(sv);
                Ok(tx.store.let_in(s, op, rnd))
            }),
            Expr::Const(_) | Expr::Var(_) => self.monadic(e),
        }
    }

    /// `c = rnd x; let-bind t = c in body`: the body reads `x` after one
    /// rounding, in the [`Translator::with_operand`] shape.
    fn rounded_input(&mut self, x: VarId, t: VarId, body: TermId) -> TermId {
        let xv = self.store.var(x);
        let rnd = self.store.rnd(xv);
        let c = self.store.fresh_var("c");
        let cv = self.store.var(c);
        let bind = self.store.let_bind(t, cv, body);
        self.store.let_in(c, rnd, bind)
    }

    /// Provides an operand as a *value* term: leaves directly, compound
    /// operands in the paper's explicit style
    /// `c = ⟦operand⟧; let x = c; …` — the plain `let` names the monadic
    /// computation so that `let-bind`'s scrutinee is a value, exactly as
    /// Fig. 1's grammar requires (and as Fig. 8's `MA` is written).
    fn with_operand(
        &mut self,
        e: &Expr,
        k: impl FnOnce(&mut Self, TermId) -> Result<TermId, TranslateError>,
    ) -> Result<TermId, TranslateError> {
        match e {
            Expr::Const(_) | Expr::Var(_) => {
                let v = self.value_leaf(e)?;
                k(self, v)
            }
            _ => {
                let computed = self.bind_compound(e)?;
                let c = self.store.fresh_var("c");
                let x = self.store.fresh_var("t");
                let xv = self.store.var(x);
                let body = k(self, xv)?;
                let cv = self.store.var(c);
                let bind = self.store.let_bind(x, cv, body);
                Ok(self.store.let_in(c, computed, bind))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numfuzz_core::{infer, Signature};
    use numfuzz_exact::RatInterval;

    fn iv(lo: i64, hi: i64) -> RatInterval {
        RatInterval::new(Rational::from_int(lo), Rational::from_int(hi))
    }

    #[test]
    fn hypot_translates_to_2_5_eps() {
        let e = Expr::sqrt(Expr::add(
            Expr::mul(Expr::Var(0), Expr::Var(0)),
            Expr::mul(Expr::Var(1), Expr::Var(1)),
        ));
        let k = Kernel::new("hypot", vec![("x", iv(1, 1000)), ("y", iv(1, 1000))], e);
        let ck = kernel_to_core(&k).unwrap();
        assert!(ck.store.conforms_to_value_restriction(ck.root), "Fig. 1 syntax");
        let sig = Signature::relative_precision();
        let res = infer(&ck.store, &sig, ck.root, &ck.free).unwrap();
        assert_eq!(res.root.ty.to_string(), "M[5/2*eps]num");
        // The kernel is 1-sensitive in each input (x² halved by sqrt).
        for (v, _) in &ck.free {
            assert_eq!(res.root.env.get(*v).to_string(), "1");
        }
    }

    #[test]
    fn serial_sum_translates_linearly() {
        // ((x0+x1)+x2)+x3: 3 roundings, all at sensitivity 1 -> 3 eps.
        let e =
            Expr::add(Expr::add(Expr::add(Expr::Var(0), Expr::Var(1)), Expr::Var(2)), Expr::Var(3));
        let k = Kernel::new(
            "sum4",
            vec![("a", iv(1, 2)), ("b", iv(1, 2)), ("c", iv(1, 2)), ("d", iv(1, 2))],
            e,
        );
        let ck = kernel_to_core(&k).unwrap();
        let sig = Signature::relative_precision();
        let res = infer(&ck.store, &sig, ck.root, &ck.free).unwrap();
        assert_eq!(res.root.ty.to_string(), "M[3*eps]num");
    }

    #[test]
    fn fma_horner_rounds_once_per_step() {
        // Horner of degree 3 with FMAs: fma(fma(fma(a3,x,a2),x,a1),x,a0)
        // = 3 roundings -> 3*eps, even though op_count reports 6.
        let x = || Expr::Var(0);
        let mut acc = Expr::num("4");
        for c in ["3", "2", "1"] {
            acc = Expr::fma(acc, x(), Expr::num(c));
        }
        let k = Kernel::new("horner3", vec![("x", iv(1, 1000))], acc);
        assert_eq!(k.op_count(), 6);
        let ck = kernel_to_core(&k).unwrap();
        let sig = Signature::relative_precision();
        let res = infer(&ck.store, &sig, ck.root, &ck.free).unwrap();
        assert_eq!(res.root.ty.to_string(), "M[3*eps]num");
        // x appears once per FMA: 3-sensitive.
        assert_eq!(res.root.env.get(ck.free[0].0).to_string(), "3");
    }

    #[test]
    fn input_error_rounds_each_input_before_the_body() {
        // Horner2 with `u` of error on x: 2 eps from the FMAs plus x's
        // eps at sensitivity 2.
        let k = crate::small::horner2_with_error_kernel().kernel;
        assert_eq!(k.input_rel_ulps, 1);
        let ck = kernel_to_core(&k).unwrap();
        assert!(ck.store.conforms_to_value_restriction(ck.root), "Fig. 1 syntax");
        let sig = Signature::relative_precision();
        let res = infer(&ck.store, &sig, ck.root, &ck.free).unwrap();
        assert_eq!(res.root.ty.to_string(), "M[4*eps]num");
        assert_eq!(res.root.env.get(ck.free[0].0).to_string(), "2");
    }

    #[test]
    fn subtraction_is_rejected() {
        let e = Expr::sub(Expr::Var(0), Expr::Var(1));
        let k = Kernel::new("bad", vec![("a", iv(1, 2)), ("b", iv(1, 2))], e);
        assert!(kernel_to_core(&k).is_err());
    }

    #[test]
    fn translated_term_is_well_shaped() {
        // div(x, add(x, y)) — the x_by_xy kernel: 2 eps.
        let e = Expr::div(Expr::Var(0), Expr::add(Expr::Var(0), Expr::Var(1)));
        let k = Kernel::new("x_by_xy", vec![("x", iv(1, 1000)), ("y", iv(1, 1000))], e);
        let ck = kernel_to_core(&k).unwrap();
        let sig = Signature::relative_precision();
        let res = infer(&ck.store, &sig, ck.root, &ck.free).unwrap();
        assert_eq!(res.root.ty.to_string(), "M[2*eps]num");
        // x is used twice: once exactly, once through the rounded sum.
        let x = ck.free[0].0;
        assert_eq!(res.root.env.get(x).to_string(), "2");
    }
}
