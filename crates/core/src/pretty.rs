//! A compact pretty-printer for arena terms, used in error messages,
//! examples and debugging. Output follows the surface syntax and
//! **re-parses** for programs built from it: `function` chains print with
//! their parameter sugar restored, and constants print as exact decimals
//! whenever they have one (denominator `2^a·5^b`). The residue that
//! cannot round-trip — bare lambdas outside `function` sugar, `err`
//! terms, constants like `1/3` — prints readably but is not surface
//! syntax.

use crate::term::{Node, TermId, TermStore};
use crate::ty::Ty;
use numfuzz_exact::Rational;

/// Renders a term, printing structure deeper than `max_depth` as `...`.
/// Statement chains (`let` bodies and the definitions after a
/// `function`) are printed in a loop, so a program of any length prints
/// in constant stack; only nesting inside one statement recurses.
pub fn pretty_term(store: &TermStore, id: TermId, max_depth: u32) -> String {
    let mut out = String::new();
    go(store, id, max_depth, &mut out);
    out
}

fn go(store: &TermStore, mut id: TermId, mut depth: u32, out: &mut String) {
    loop {
        if depth == 0 {
            out.push_str("...");
            return;
        }
        depth -= 1;
        match go_step(store, id, depth, out) {
            Some(tail) => id = tail,
            None => return,
        }
    }
}

/// Prints the head of `id` at remaining depth `d`; returns the term in
/// tail position still to print at that depth, if any.
fn go_step(store: &TermStore, id: TermId, d: u32, out: &mut String) -> Option<TermId> {
    match store.node(id) {
        Node::Var(v) => out.push_str(store.var_name(*v)),
        Node::UnitVal => out.push_str("()"),
        Node::Const(k) => out.push_str(&constant_literal(store.constant(*k))),
        Node::PairW(a, b) => {
            out.push_str("(|");
            go(store, *a, d, out);
            out.push_str(", ");
            go(store, *b, d, out);
            out.push_str("|)");
        }
        Node::PairT(a, b) => {
            out.push('(');
            go(store, *a, d, out);
            out.push_str(", ");
            go(store, *b, d, out);
            out.push(')');
        }
        Node::Inl(v, ann) => {
            // `true` is sugar for `inl () : bool`; restore it so the
            // output re-parses to the identical term.
            if matches!(store.node(*v), Node::UnitVal) && store.ty(*ann) == Ty::Unit {
                out.push_str("true");
            } else {
                out.push_str(&format!("inl {{{}}} ", store.ty(*ann)));
                go(store, *v, d, out);
            }
        }
        Node::Inr(v, ann) => {
            if matches!(store.node(*v), Node::UnitVal) && store.ty(*ann) == Ty::Unit {
                out.push_str("false");
            } else {
                out.push_str(&format!("inr {{{}}} ", store.ty(*ann)));
                go(store, *v, d, out);
            }
        }
        Node::Lam(x, ty, body) => {
            out.push_str("\\(");
            out.push_str(store.var_name(*x));
            out.push_str(": ");
            out.push_str(&store.ty(*ty).to_string());
            out.push_str("). ");
            go(store, *body, d, out);
        }
        Node::BoxIntro(g, v) => {
            out.push('[');
            go(store, *v, d, out);
            out.push_str("]{");
            out.push_str(&store.grade(*g).to_string());
            out.push('}');
        }
        Node::Rnd(v) => {
            out.push_str("rnd ");
            go(store, *v, d, out);
        }
        Node::Ret(v) => {
            out.push_str("ret ");
            go(store, *v, d, out);
        }
        Node::Err(g, t) => {
            out.push_str(&format!("err[{}]{{{}}}", store.grade(*g), store.ty(*t)));
        }
        Node::App(f, a) => {
            go(store, *f, d, out);
            out.push(' ');
            let needs_paren = !matches!(
                store.node(*a),
                Node::Var(_) | Node::Const(_) | Node::UnitVal | Node::PairT(..) | Node::PairW(..)
            );
            if needs_paren {
                out.push('(');
            }
            go(store, *a, d, out);
            if needs_paren {
                out.push(')');
            }
        }
        Node::Proj(first, v) => {
            out.push_str(if *first { "fst " } else { "snd " });
            go(store, *v, d, out);
        }
        Node::LetTensor(x, y, v, e) => {
            out.push_str(&format!("let ({}, {}) = ", store.var_name(*x), store.var_name(*y)));
            go(store, *v, d, out);
            out.push_str("; ");
            return Some(*e);
        }
        Node::Case(v, x, e1, y, e2) => {
            out.push_str("case ");
            go(store, *v, d, out);
            out.push_str(&format!(" of (inl {} . ", store.var_name(*x)));
            go(store, *e1, d, out);
            out.push_str(&format!(" | inr {} . ", store.var_name(*y)));
            go(store, *e2, d, out);
            out.push(')');
        }
        Node::LetBox(x, v, e) => {
            emit_stmt(store, Binder::Box, *x, *v, d, out);
            return Some(*e);
        }
        Node::LetBind(x, v, e) => {
            emit_stmt(store, Binder::Bind, *x, *v, d, out);
            return Some(*e);
        }
        Node::Let(x, e, f) => {
            emit_stmt(store, Binder::Plain, *x, *e, d, out);
            return Some(*f);
        }
        Node::LetFun(x, decl, body, rest) => {
            // Restore the surface sugar when possible: a declared type
            // plus a lambda chain prints as
            // `function f (p: T) ... : R { body }`.
            if let Some(decl) = decl {
                let mut params = Vec::new();
                let mut inner = *body;
                let mut ret = store.ty(*decl);
                while let (Node::Lam(p, pt, b), Ty::Lolli(_, cod)) =
                    (store.node(inner), ret.clone())
                {
                    params.push((store.var_name(*p).to_string(), store.ty(*pt)));
                    inner = *b;
                    ret = *cod;
                }
                out.push_str(&format!("function {}", store.var_name(*x)));
                for (p, t) in &params {
                    out.push_str(&format!(" ({p}: {t})"));
                }
                out.push_str(&format!(" : {ret} {{ "));
                go(store, inner, d, out);
                out.push_str(" }\n");
            } else {
                out.push_str(&format!("function {} = ", store.var_name(*x)));
                go(store, *body, d, out);
                out.push_str("; ");
            }
            return Some(*rest);
        }
        Node::Op(op, v) => {
            out.push_str(store.op_name(*op));
            out.push(' ');
            go(store, *v, d, out);
        }
    }
    None
}

/// Statement flavors of the surface syntax.
#[derive(Clone, Copy)]
enum Binder {
    /// `x = e;`
    Plain,
    /// `let x = e;` (monadic bind)
    Bind,
    /// `let [x] = e;` (box elimination)
    Box,
}

/// Prints one `… = e;` statement. When the bound term is itself a
/// statement chain (ANF puts let-chains in bound position), the chain is
/// hoisted — `x = (y = a; b); c` prints as `y = a; x = b; c` — because
/// the surface grammar has no parenthesized blocks. Call-by-value
/// evaluation order is unchanged by this floating.
/// The hoisted chain's tail — `x = b` above — is printed in a loop.
fn emit_stmt(
    store: &TermStore,
    kind: Binder,
    x: crate::term::VarId,
    mut bound: TermId,
    mut d: u32,
    out: &mut String,
) {
    loop {
        if d == 0 {
            out.push_str("...; ");
            return;
        }
        d -= 1;
        let (inner, y, a, b) = match store.node(bound) {
            Node::Let(y, a, b) => (Binder::Plain, *y, *a, *b),
            Node::LetBind(y, a, b) => (Binder::Bind, *y, *a, *b),
            Node::LetBox(y, a, b) => (Binder::Box, *y, *a, *b),
            _ => {
                match kind {
                    Binder::Plain => out.push_str(&format!("{} = ", store.var_name(x))),
                    Binder::Bind => out.push_str(&format!("let {} = ", store.var_name(x))),
                    Binder::Box => out.push_str(&format!("let [{}] = ", store.var_name(x))),
                }
                go(store, bound, d, out);
                out.push_str("; ");
                return;
            }
        };
        emit_stmt(store, inner, y, a, d, out);
        bound = b;
    }
}

/// Renders a constant as a literal the lexer accepts: an exact decimal
/// when the denominator is `2^a·5^b` (every float and every decimal
/// source literal qualifies), the `n/d` display form otherwise.
fn constant_literal(q: &Rational) -> String {
    if q.is_integer() {
        return q.to_string();
    }
    // Find the smallest k with q·10^k integral. Each ×10 strips the
    // denominator's factors of 2 and 5; when a step leaves the
    // denominator unchanged there is another prime in it and no finite
    // decimal exists, so `1/3`-like constants bail after one step
    // instead of looping to the bound (which only guards softfloat
    // extremes, well under 10^-400).
    let ten = Rational::from_int(10);
    let mut scaled = q.clone();
    for k in 1..=512u32 {
        let next = scaled.mul(&ten);
        if next.denom() == scaled.denom() {
            return q.to_string();
        }
        scaled = next;
        if scaled.is_integer() {
            let digits = scaled.abs().to_string();
            let sign = if q.is_negative() { "-" } else { "" };
            let k = k as usize;
            return if digits.len() > k {
                format!("{sign}{}.{}", &digits[..digits.len() - k], &digits[digits.len() - k..])
            } else {
                format!("{sign}0.{}{digits}", "0".repeat(k - digits.len()))
            };
        }
    }
    q.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sig::Signature;

    #[test]
    fn prints_paper_style() {
        let sig = Signature::relative_precision();
        let src = "function mulfp (xy: (num, num)) : M[eps]num { s = mul xy; rnd s }";
        let lowered = crate::lower::compile(src, &sig).unwrap();
        let text = pretty_term(&lowered.store, lowered.root, 16);
        assert!(text.contains("function mulfp"), "{text}");
        assert!(text.contains("mul xy"), "{text}");
        assert!(text.contains("rnd s"), "{text}");
    }

    #[test]
    fn constants_print_as_literals() {
        let dec = |s: &str| Rational::from_decimal_str(s).unwrap();
        assert_eq!(constant_literal(&dec("0.1")), "0.1");
        assert_eq!(constant_literal(&dec("-2.5")), "-2.5");
        assert_eq!(constant_literal(&dec("42")), "42");
        assert_eq!(constant_literal(&dec("0.001")), "0.001");
        assert_eq!(constant_literal(&Rational::pow2(-4)), "0.0625");
        // No finite decimal expansion: falls back to the display form.
        assert_eq!(constant_literal(&Rational::ratio(1, 3)), "1/3");
    }

    #[test]
    fn function_sugar_round_trips() {
        let sig = Signature::relative_precision();
        let src = r#"
            function mulfp (xy: (num, num)) : M[eps]num { s = mul xy; rnd s }
            function addfp (xy: <num, num>) : M[eps]num { s = add xy; rnd s }
            function MA (x: num) (y: num) (z: num) : M[2*eps]num {
                s = mulfp (x,y);
                let a = s;
                addfp (|a,z|)
            }
            MA 0.1 0.3 7
        "#;
        let lowered = crate::lower::compile(src, &sig).unwrap();
        let printed = pretty_term(&lowered.store, lowered.root, u32::MAX);
        assert!(printed.contains("function mulfp (xy: (num, num)) : M[eps]num {"), "{printed}");
        // The printed program parses and lowers again.
        let again = crate::lower::compile(&printed, &sig)
            .unwrap_or_else(|e| panic!("re-parse failed: {e}\n---\n{printed}"));
        let reprinted = pretty_term(&again.store, again.root, u32::MAX);
        assert_eq!(printed, reprinted, "printing reaches a fixpoint");
    }

    #[test]
    fn user_temp_like_names_do_not_capture() {
        // `_t0`/`_t1` as *source* binders must not collide with generated
        // ANF temporaries, or the hoisted statement chains would shadow
        // each other on re-parse.
        let sig = Signature::relative_precision();
        let src = r#"
            function f (x: num) : M[2*eps]num {
                _t0 = mul (x, x);
                let _t1 = rnd (mul (_t0, _t0));
                rnd (mul (_t1, _t1))
            }
            f 2
        "#;
        let lowered = crate::lower::compile(src, &sig).unwrap();
        let printed = pretty_term(&lowered.store, lowered.root, u32::MAX);
        let again = crate::lower::compile(&printed, &sig)
            .unwrap_or_else(|e| panic!("re-parse failed: {e}\n---\n{printed}"));
        assert_eq!(printed, pretty_term(&again.store, again.root, u32::MAX));
    }

    #[test]
    fn depth_limit_truncates() {
        let sig = Signature::relative_precision();
        let src = "function f (x: num) : num { a = mul (x, x); b = mul (a, a); mul (b, b) }";
        let lowered = crate::lower::compile(src, &sig).unwrap();
        let text = pretty_term(&lowered.store, lowered.root, 3);
        assert!(text.contains("..."));
    }
}
