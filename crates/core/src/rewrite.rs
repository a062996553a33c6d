//! Sound algebraic rewriting over the real-valued operation fragment.
//!
//! This module is the expression-level half of `numfuzz optimize`: a tiny
//! hash-consed arena for real expressions built from `add`, `mul`, `div`
//! and `sqrt` over variables and positive rational constants, a
//! canonicalizing simplifier, and a set of rewrite rules that preserve the
//! *ideal* (real-valued) semantics on the strictly positive carrier of the
//! relative-precision instantiation (Section 5 of the paper). Rounding is
//! not represented here at all: the optimizer re-derives rounding
//! placement when it emits a candidate back to surface syntax (one `rnd`
//! per operation), and every candidate is then re-certified through the
//! full analyzer facade — so the rules only need to be exact over ℝ>0.
//!
//! Soundness notes, per rule:
//!
//! * `commute`, `distribute`, `factor`: ring identities, exact over ℝ.
//! * `rationalize`, `div_through`: rewrite into / out of a single-quotient
//!   normal form. Every denominator in the fragment is a product/sum of
//!   strictly positive values, so no division by zero can be introduced.
//! * `sqrt_square`: `sqrt(e·e) → e` is exact because the carrier is
//!   strictly positive (no `|e|` is needed).
//!
//! Associativity is not a searchable rule: the simplifier canonicalizes
//! `add`/`mul` chains (flattened, constants folded into a single leading
//! coefficient, left-associated rebuild), which quotients the search space
//! by reassociation. Reassociation is bound-neutral in the graded monad —
//! the monadic grade sums one `eps` per operation regardless of tree
//! shape — so nothing is lost.

use crate::intern::{IdTable, SeededSet};
use numfuzz_exact::Rational;

/// Index of an expression node in an [`ExprArena`].
pub type ExprId = usize;

/// One node of the rewrite fragment.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum ENode {
    /// Parameter reference, by position in the principal function.
    Var(usize),
    /// A positive rational constant.
    Const(Rational),
    /// `a + b` (typed over the Cartesian product).
    Add(ExprId, ExprId),
    /// `a · b` (typed over the tensor product).
    Mul(ExprId, ExprId),
    /// `a / b`.
    Div(ExprId, ExprId),
    /// `√a`.
    Sqrt(ExprId),
}

/// Hash-consed arena: structurally equal expressions share one id, so
/// candidate deduplication and common-subexpression detection are id
/// comparisons.
#[derive(Default, Debug)]
pub struct ExprArena {
    nodes: Vec<ENode>,
    ids: IdTable,
}

/// A local rewrite rule: applied at a single node, returns the rewritten
/// alternatives of that node (not yet simplified).
pub type RuleFn = fn(&mut ExprArena, ExprId) -> Vec<ExprId>;

/// Cost-model weights per operation (a crude latency model: division and
/// square root are an order of magnitude slower than addition).
pub const COST_ADD: u64 = 1;
/// See [`COST_ADD`].
pub const COST_MUL: u64 = 2;
/// See [`COST_ADD`].
pub const COST_DIV: u64 = 8;
/// See [`COST_ADD`].
pub const COST_SQRT: u64 = 8;

impl ExprArena {
    /// An empty arena.
    pub fn new() -> Self {
        ExprArena::default()
    }

    /// Interns a node, returning the id of the shared instance.
    pub fn intern(&mut self, n: ENode) -> ExprId {
        self.ids.find(&self.nodes, &n).unwrap_or_else(|at| {
            self.nodes.push(n);
            self.ids.insert(at)
        }) as ExprId
    }

    /// The node stored at `id`.
    pub fn node(&self, id: ExprId) -> &ENode {
        &self.nodes[id]
    }

    /// Parameter leaf.
    pub fn var(&mut self, i: usize) -> ExprId {
        self.intern(ENode::Var(i))
    }

    /// Constant leaf.
    pub fn constant(&mut self, q: Rational) -> ExprId {
        self.intern(ENode::Const(q))
    }

    /// `a + b`.
    pub fn add(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.intern(ENode::Add(a, b))
    }

    /// `a · b`.
    pub fn mul(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.intern(ENode::Mul(a, b))
    }

    /// `a / b`.
    pub fn div(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.intern(ENode::Div(a, b))
    }

    /// `√a`.
    pub fn sqrt(&mut self, a: ExprId) -> ExprId {
        self.intern(ENode::Sqrt(a))
    }

    fn const_value(&self, id: ExprId) -> Option<&Rational> {
        match self.node(id) {
            ENode::Const(q) => Some(q),
            _ => None,
        }
    }

    /// Flattens an `add` chain into its (unsimplified) term list, left to
    /// right.
    pub fn terms_of(&self, id: ExprId) -> Vec<ExprId> {
        let mut out = Vec::new();
        self.flatten(id, true, &mut out);
        out
    }

    /// Flattens a `mul` chain into its (unsimplified) factor list, left
    /// to right.
    pub fn factors_of(&self, id: ExprId) -> Vec<ExprId> {
        let mut out = Vec::new();
        self.flatten(id, false, &mut out);
        out
    }

    fn flatten(&self, id: ExprId, add: bool, out: &mut Vec<ExprId>) {
        match (self.node(id), add) {
            (&ENode::Add(a, b), true) | (&ENode::Mul(a, b), false) => {
                self.flatten(a, add, out);
                self.flatten(b, add, out);
            }
            _ => out.push(id),
        }
    }

    fn rebuild(&mut self, chain: &[ExprId], add: bool) -> ExprId {
        debug_assert!(!chain.is_empty());
        let mut acc = chain[0];
        for &next in &chain[1..] {
            acc = if add { self.add(acc, next) } else { self.mul(acc, next) };
        }
        acc
    }

    /// Canonicalizes: flattens `add`/`mul` chains, folds constants into a
    /// single leading coefficient, drops unit coefficients, normalizes
    /// nested quotients (`(a/b)/c → a/(b·c)`, `a/(b/c) → (a·c)/b`), and
    /// folds constant quotients when the result stays decimal-printable.
    pub fn simplify(&mut self, id: ExprId) -> ExprId {
        match self.node(id).clone() {
            ENode::Var(_) | ENode::Const(_) => id,
            ENode::Sqrt(a) => {
                let a = self.simplify(a);
                self.sqrt(a)
            }
            ENode::Add(..) => self.simplify_chain(id, true),
            ENode::Mul(..) => self.simplify_chain(id, false),
            ENode::Div(a, b) => {
                let mut num = self.simplify(a);
                let mut den = self.simplify(b);
                loop {
                    if let &ENode::Div(x, y) = self.node(num) {
                        let d = self.mul(y, den);
                        den = self.simplify_chain(d, false);
                        num = x;
                        continue;
                    }
                    if let &ENode::Div(x, y) = self.node(den) {
                        let n = self.mul(num, y);
                        num = self.simplify_chain(n, false);
                        den = x;
                        continue;
                    }
                    break;
                }
                if self.const_value(den) == Some(&Rational::one()) {
                    return num;
                }
                if let (Some(n), Some(d)) = (self.const_value(num), self.const_value(den)) {
                    let q = n.div(d);
                    if decimal_friendly(&q) {
                        return self.constant(q);
                    }
                }
                self.div(num, den)
            }
        }
    }

    fn simplify_chain(&mut self, id: ExprId, add: bool) -> ExprId {
        let mut konst = if add { Rational::zero() } else { Rational::one() };
        let mut rest = Vec::new();
        self.gather(id, add, &mut konst, &mut rest);
        let neutral = if add { konst.is_zero() } else { konst == Rational::one() };
        let mut chain = Vec::new();
        if !neutral || rest.is_empty() {
            let c = self.constant(konst);
            chain.push(c);
        }
        chain.extend(rest);
        self.rebuild(&chain, add)
    }

    fn gather(&mut self, id: ExprId, add: bool, konst: &mut Rational, rest: &mut Vec<ExprId>) {
        match (self.node(id).clone(), add) {
            (ENode::Add(a, b), true) | (ENode::Mul(a, b), false) => {
                self.gather(a, add, konst, rest);
                self.gather(b, add, konst, rest);
            }
            (node, _) => {
                let s = match node {
                    ENode::Var(_) | ENode::Const(_) => id,
                    _ => self.simplify(id),
                };
                match (self.node(s).clone(), add) {
                    (ENode::Add(..), true) | (ENode::Mul(..), false) => {
                        self.gather(s, add, konst, rest)
                    }
                    (ENode::Const(c), true) => *konst = konst.add(&c),
                    (ENode::Const(c), false) => *konst = konst.mul(&c),
                    _ => rest.push(s),
                }
            }
        }
    }

    /// Single-quotient normal form: returns `(num, den)` with
    /// `id = num/den` exactly, `den` free of `div` nodes at the top level.
    /// `sqrt` is opaque (its argument is normalized independently).
    fn ratio(&mut self, id: ExprId) -> (ExprId, ExprId) {
        let one = self.constant(Rational::one());
        match self.node(id).clone() {
            ENode::Var(_) | ENode::Const(_) => (id, one),
            ENode::Sqrt(a) => {
                let (n, d) = self.ratio(a);
                let inner = if d == one { n } else { self.div(n, d) };
                let inner = self.simplify(inner);
                (self.sqrt(inner), one)
            }
            ENode::Add(a, b) => {
                let (na, da) = self.ratio(a);
                let (nb, db) = self.ratio(b);
                if da == db {
                    (self.add(na, nb), da)
                } else {
                    let l = self.mul(na, db);
                    let r = self.mul(nb, da);
                    (self.add(l, r), self.mul(da, db))
                }
            }
            ENode::Mul(a, b) => {
                let (na, da) = self.ratio(a);
                let (nb, db) = self.ratio(b);
                (self.mul(na, nb), self.mul(da, db))
            }
            ENode::Div(a, b) => {
                let (na, da) = self.ratio(a);
                let (nb, db) = self.ratio(b);
                (self.mul(na, db), self.mul(da, nb))
            }
        }
    }

    /// Operation-count cost of the expression DAG (shared nodes counted
    /// once, mirroring the let-bound code the optimizer emits).
    pub fn op_cost(&self, id: ExprId) -> u64 {
        let mut seen = SeededSet::default();
        self.cost_walk(id, &mut seen)
    }

    fn cost_walk(&self, id: ExprId, seen: &mut SeededSet<ExprId>) -> u64 {
        if !seen.insert(id) {
            return 0;
        }
        match *self.node(id) {
            ENode::Var(_) | ENode::Const(_) => 0,
            ENode::Add(a, b) => COST_ADD + self.cost_walk(a, seen) + self.cost_walk(b, seen),
            ENode::Mul(a, b) => COST_MUL + self.cost_walk(a, seen) + self.cost_walk(b, seen),
            ENode::Div(a, b) => COST_DIV + self.cost_walk(a, seen) + self.cost_walk(b, seen),
            ENode::Sqrt(a) => COST_SQRT + self.cost_walk(a, seen),
        }
    }

    /// Number of operation nodes in the DAG (shared nodes counted once).
    pub fn op_count(&self, id: ExprId) -> u64 {
        let mut seen = SeededSet::default();
        self.count_walk(id, &mut seen)
    }

    fn count_walk(&self, id: ExprId, seen: &mut SeededSet<ExprId>) -> u64 {
        if !seen.insert(id) {
            return 0;
        }
        match *self.node(id) {
            ENode::Var(_) | ENode::Const(_) => 0,
            ENode::Add(a, b) | ENode::Mul(a, b) | ENode::Div(a, b) => {
                1 + self.count_walk(a, seen) + self.count_walk(b, seen)
            }
            ENode::Sqrt(a) => 1 + self.count_walk(a, seen),
        }
    }

    /// Debug rendering (not surface syntax).
    pub fn to_text(&self, id: ExprId) -> String {
        match self.node(id) {
            ENode::Var(i) => format!("v{i}"),
            ENode::Const(q) => format!("{q}"),
            ENode::Add(a, b) => format!("({} + {})", self.to_text(*a), self.to_text(*b)),
            ENode::Mul(a, b) => format!("({} * {})", self.to_text(*a), self.to_text(*b)),
            ENode::Div(a, b) => format!("({} / {})", self.to_text(*a), self.to_text(*b)),
            ENode::Sqrt(a) => format!("sqrt({})", self.to_text(*a)),
        }
    }
}

/// True if `q` can be written as a finite decimal literal (denominator of
/// the form `2^a·5^b`), i.e. re-parsed exactly by the surface grammar.
pub fn decimal_friendly(q: &Rational) -> bool {
    if q.is_integer() {
        return true;
    }
    let scale = Rational::from_int(10).pow(40);
    q.mul(&scale).is_integer()
}

/// Renders a positive rational as a surface decimal literal, or `None` if
/// it is not [`decimal_friendly`] (or not positive).
pub fn decimal_literal(q: &Rational) -> Option<String> {
    if !q.is_positive() {
        return None;
    }
    if q.is_integer() {
        return Some(q.numer().to_string());
    }
    let ten = Rational::from_int(10);
    let mut scaled = q.clone();
    for k in 1..=40u32 {
        scaled = scaled.mul(&ten);
        if scaled.is_integer() {
            let digits = scaled.numer().to_string();
            let k = k as usize;
            return Some(if digits.len() > k {
                format!("{}.{}", &digits[..digits.len() - k], &digits[digits.len() - k..])
            } else {
                format!("0.{}{}", "0".repeat(k - digits.len()), digits)
            });
        }
    }
    None
}

/// The sound rule set, in the (fixed, deterministic) order the search
/// applies them.
pub fn sound_rules() -> Vec<(&'static str, RuleFn)> {
    vec![
        ("rationalize", rule_rationalize),
        ("div_through", rule_div_through),
        ("sqrt_square", rule_sqrt_square),
        ("factor", rule_factor),
        ("distribute", rule_distribute),
        ("commute", rule_commute),
    ]
}

/// A deliberately *unsound* rule (`a/b → b/a`), exposed only so tests can
/// prove the optimizer's exact-oracle leg rejects semantically wrong
/// candidates. Never part of [`sound_rules`].
pub fn unsound_swap_div_rule() -> (&'static str, RuleFn) {
    ("swap_div_unsound", rule_swap_div_unsound)
}

/// Applies a local rule at every position of `root`, returning the
/// simplified, deduplicated whole-expression variants (excluding `root`
/// itself).
pub fn apply_everywhere(arena: &mut ExprArena, root: ExprId, rule: RuleFn) -> Vec<ExprId> {
    let raw = everywhere(arena, root, rule);
    let base = arena.simplify(root);
    let mut seen = SeededSet::default();
    let mut out = Vec::new();
    for v in raw {
        let s = arena.simplify(v);
        if s != base && seen.insert(s) {
            out.push(s);
        }
    }
    out
}

fn everywhere(arena: &mut ExprArena, id: ExprId, rule: RuleFn) -> Vec<ExprId> {
    let mut out = rule(arena, id);
    match arena.node(id).clone() {
        ENode::Var(_) | ENode::Const(_) => {}
        ENode::Sqrt(a) => {
            for a2 in everywhere(arena, a, rule) {
                out.push(arena.sqrt(a2));
            }
        }
        ENode::Add(a, b) => {
            for a2 in everywhere(arena, a, rule) {
                out.push(arena.add(a2, b));
            }
            for b2 in everywhere(arena, b, rule) {
                out.push(arena.add(a, b2));
            }
        }
        ENode::Mul(a, b) => {
            for a2 in everywhere(arena, a, rule) {
                out.push(arena.mul(a2, b));
            }
            for b2 in everywhere(arena, b, rule) {
                out.push(arena.mul(a, b2));
            }
        }
        ENode::Div(a, b) => {
            for a2 in everywhere(arena, a, rule) {
                out.push(arena.div(a2, b));
            }
            for b2 in everywhere(arena, b, rule) {
                out.push(arena.div(a, b2));
            }
        }
    }
    out
}

fn rule_commute(arena: &mut ExprArena, id: ExprId) -> Vec<ExprId> {
    match arena.node(id).clone() {
        ENode::Add(a, b) if a != b => vec![arena.add(b, a)],
        ENode::Mul(a, b) if a != b => vec![arena.mul(b, a)],
        _ => Vec::new(),
    }
}

fn rule_distribute(arena: &mut ExprArena, id: ExprId) -> Vec<ExprId> {
    let mut out = Vec::new();
    if let ENode::Mul(a, b) = arena.node(id).clone() {
        if let ENode::Add(u, v) = arena.node(b).clone() {
            let l = arena.mul(a, u);
            let r = arena.mul(a, v);
            out.push(arena.add(l, r));
        }
        if let ENode::Add(u, v) = arena.node(a).clone() {
            let l = arena.mul(u, b);
            let r = arena.mul(v, b);
            out.push(arena.add(l, r));
        }
    }
    out
}

/// Factors a common (non-constant) factor out of the subset of an `add`
/// chain's terms that contain it: `f·a + f·b + c → f·(a + b) + c`.
/// Repeated application yields Horner-style restructurings.
fn rule_factor(arena: &mut ExprArena, id: ExprId) -> Vec<ExprId> {
    if !matches!(arena.node(id), ENode::Add(..)) {
        return Vec::new();
    }
    let terms = arena.terms_of(id);
    if terms.len() < 2 {
        return Vec::new();
    }
    let factor_lists: Vec<Vec<ExprId>> = terms.iter().map(|&t| arena.factors_of(t)).collect();
    // Candidate factors in first-occurrence order, skipping constants.
    let mut cands = Vec::new();
    let mut seen = SeededSet::default();
    for fl in &factor_lists {
        for &f in fl {
            if !matches!(arena.node(f), ENode::Const(_)) && seen.insert(f) {
                cands.push(f);
            }
        }
    }
    let mut out = Vec::new();
    for f in cands {
        let mut inside = Vec::new();
        let mut outside = Vec::new();
        for (i, fl) in factor_lists.iter().enumerate() {
            if fl.contains(&f) {
                let mut rest: Vec<ExprId> = Vec::new();
                let mut dropped = false;
                for &g in fl {
                    if !dropped && g == f {
                        dropped = true;
                    } else {
                        rest.push(g);
                    }
                }
                if rest.is_empty() {
                    rest.push(arena.constant(Rational::one()));
                }
                inside.push(arena.rebuild(&rest, false));
            } else {
                outside.push(terms[i]);
            }
        }
        if inside.len() < 2 {
            continue;
        }
        let sum = arena.rebuild(&inside, true);
        let factored = arena.mul(f, sum);
        let mut chain = vec![factored];
        chain.extend(outside);
        out.push(arena.rebuild(&chain, true));
    }
    out
}

/// Rewrites the subtree into single-quotient form `num/den`, cancelling
/// common non-constant factors exactly and normalizing the constant
/// coefficients when the quotient stays decimal-printable.
fn rule_rationalize(arena: &mut ExprArena, id: ExprId) -> Vec<ExprId> {
    if matches!(arena.node(id), ENode::Var(_) | ENode::Const(_)) {
        return Vec::new();
    }
    let (n, d) = arena.ratio(id);
    let n = arena.simplify(n);
    let d = arena.simplify(d);
    // Cancel common non-constant factors (multiset intersection).
    let mut nf = arena.factors_of(n);
    let mut df = arena.factors_of(d);
    let mut cancelled = false;
    let mut i = 0;
    while i < nf.len() {
        let f = nf[i];
        if !matches!(arena.node(f), ENode::Const(_)) {
            if let Some(j) = df.iter().position(|&g| g == f) {
                nf.remove(i);
                df.remove(j);
                cancelled = true;
                continue;
            }
        }
        i += 1;
    }
    let (mut n, mut d) = (n, d);
    if cancelled {
        let one = arena.constant(Rational::one());
        if nf.is_empty() {
            nf.push(one);
        }
        if df.is_empty() {
            df.push(one);
        }
        n = arena.rebuild(&nf, false);
        d = arena.rebuild(&df, false);
    }
    // Normalize the constant coefficient of the denominator into the
    // numerator when that stays exactly decimal-printable.
    let dfacs = arena.factors_of(d);
    if let Some(ENode::Const(dc)) = dfacs.first().map(|&f| arena.node(f).clone()) {
        if dc != Rational::one() && dfacs.len() > 1 {
            let nfacs = arena.factors_of(n);
            let (nc, nrest) = match nfacs.first().map(|&f| arena.node(f).clone()) {
                Some(ENode::Const(c)) => (c, nfacs[1..].to_vec()),
                _ => (Rational::one(), nfacs.clone()),
            };
            let scaled = nc.div(&dc);
            if decimal_friendly(&scaled) {
                let mut chain = vec![arena.constant(scaled)];
                chain.extend(nrest);
                n = arena.rebuild(&chain, false);
                d = arena.rebuild(&dfacs[1..], false);
            }
        }
    }
    vec![arena.div(n, d)]
}

/// At `num/den`, divides both sides by a shared or one-sided non-constant
/// factor, turning e.g. `c·x² / (k + x²)` into `c / (k/x² + 1)` over two
/// applications — trading multiplications for divisions and, crucially,
/// shortening the rounded dependency chain.
fn rule_div_through(arena: &mut ExprArena, id: ExprId) -> Vec<ExprId> {
    let ENode::Div(n, d) = arena.node(id).clone() else {
        return Vec::new();
    };
    let mut cands = Vec::new();
    let mut seen = SeededSet::default();
    for side in [n, d] {
        for f in arena.factors_of(side) {
            if !matches!(arena.node(f), ENode::Const(_)) && seen.insert(f) {
                cands.push(f);
            }
        }
    }
    let mut out = Vec::new();
    for f in cands {
        let n2 = divide_out(arena, n, f);
        let d2 = divide_out(arena, d, f);
        out.push(arena.div(n2, d2));
    }
    out
}

/// `x / f`, preferring exact factor removal, distributing over `add`
/// chains, and falling back to an explicit quotient.
fn divide_out(arena: &mut ExprArena, x: ExprId, f: ExprId) -> ExprId {
    let facs = arena.factors_of(x);
    if let Some(i) = facs.iter().position(|&g| g == f) {
        let mut rest = facs;
        rest.remove(i);
        if rest.is_empty() {
            return arena.constant(Rational::one());
        }
        return arena.rebuild(&rest, false);
    }
    if matches!(arena.node(x), ENode::Add(..)) {
        let terms = arena.terms_of(x);
        let divided: Vec<ExprId> = terms.iter().map(|&t| divide_out(arena, t, f)).collect();
        return arena.rebuild(&divided, true);
    }
    arena.div(x, f)
}

fn rule_sqrt_square(arena: &mut ExprArena, id: ExprId) -> Vec<ExprId> {
    if let ENode::Sqrt(a) = arena.node(id).clone() {
        if let ENode::Mul(x, y) = arena.node(a).clone() {
            if x == y {
                return vec![x];
            }
        }
    }
    Vec::new()
}

fn rule_swap_div_unsound(arena: &mut ExprArena, id: ExprId) -> Vec<ExprId> {
    match arena.node(id).clone() {
        ENode::Div(a, b) if a != b => vec![arena.div(b, a)],
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(n: i64, d: i64) -> Rational {
        Rational::ratio(n, d)
    }

    #[test]
    fn simplify_folds_constants_and_flattens() {
        let mut a = ExprArena::new();
        let x = a.var(0);
        let c4 = a.constant(q(4, 1));
        let c111 = a.constant(q(111, 100));
        let m1 = a.mul(c4, x);
        let m2 = a.mul(m1, c111);
        let s = a.simplify(m2);
        // 4 * x * 1.11 → 4.44 * x with the constant leading.
        let facs = a.factors_of(s);
        assert_eq!(facs.len(), 2);
        assert_eq!(a.node(facs[0]), &ENode::Const(q(111, 25)));
        assert_eq!(facs[1], x);
    }

    #[test]
    fn simplify_normalizes_nested_quotients() {
        let mut a = ExprArena::new();
        let x = a.var(0);
        let y = a.var(1);
        let z = a.var(2);
        let inner = a.div(x, y);
        let outer = a.div(inner, z);
        let s = a.simplify(outer);
        let ENode::Div(n, d) = *a.node(s) else { panic!("expected quotient") };
        assert_eq!(n, x);
        assert_eq!(a.factors_of(d), vec![y, z]);
    }

    #[test]
    fn rationalize_cancels_common_factors() {
        // x / (x · y)  →  1 / y
        let mut a = ExprArena::new();
        let x = a.var(0);
        let y = a.var(1);
        let den = a.mul(x, y);
        let e = a.div(x, den);
        let outs = apply_everywhere(&mut a, e, rule_rationalize);
        let one = a.constant(Rational::one());
        let want = a.div(one, y);
        let want = a.simplify(want);
        assert!(
            outs.contains(&want),
            "{:?}",
            outs.iter().map(|&o| a.to_text(o)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn rationalize_clears_embedded_quotient() {
        // (4·x) / (1 + x/1.11)  →  4.44·x / (1.11 + x)
        let mut a = ExprArena::new();
        let x = a.var(0);
        let c4 = a.constant(q(4, 1));
        let c1 = a.constant(q(1, 1));
        let c111 = a.constant(q(111, 100));
        let n = a.mul(c4, x);
        let inner = a.div(x, c111);
        let d = a.add(c1, inner);
        let e = a.div(n, d);
        let outs = apply_everywhere(&mut a, e, rule_rationalize);
        let c444 = a.constant(q(111, 25));
        let wn = a.mul(c444, x);
        let wd = a.add(c111, x);
        let want = a.div(wn, wd);
        let want = a.simplify(want);
        assert!(
            outs.contains(&want),
            "{:?}",
            outs.iter().map(|&o| a.to_text(o)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn sqrt_square_uses_positive_carrier() {
        let mut a = ExprArena::new();
        let x = a.var(0);
        let sq = a.mul(x, x);
        let r = a.sqrt(sq);
        let c1 = a.constant(q(1, 1));
        let e = a.div(c1, r);
        let outs = apply_everywhere(&mut a, e, rule_sqrt_square);
        let want = a.div(c1, x);
        let want = a.simplify(want);
        assert!(outs.contains(&want));
    }

    #[test]
    fn factor_groups_subsets_for_horner() {
        // x·x·a + x·b + c → x·(x·a + b) + c
        let mut a = ExprArena::new();
        let x = a.var(0);
        let va = a.var(1);
        let vb = a.var(2);
        let vc = a.var(3);
        let xx = a.mul(x, x);
        let t1 = a.mul(xx, va);
        let t2 = a.mul(x, vb);
        let s1 = a.add(t1, t2);
        let e = a.add(s1, vc);
        let outs = apply_everywhere(&mut a, e, rule_factor);
        let ia = a.mul(x, va);
        let inner = a.add(ia, vb);
        let fac = a.mul(x, inner);
        let want = a.add(fac, vc);
        let want = a.simplify(want);
        assert!(
            outs.contains(&want),
            "{:?}",
            outs.iter().map(|&o| a.to_text(o)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn cost_counts_shared_nodes_once() {
        let mut a = ExprArena::new();
        let x = a.var(0);
        let sq = a.mul(x, x);
        let e = a.add(sq, sq); // hash-consed: same node twice
        assert_eq!(a.op_cost(e), COST_MUL + COST_ADD);
        assert_eq!(a.op_count(e), 2);
    }

    #[test]
    fn decimal_literals_round_trip() {
        assert_eq!(decimal_literal(&q(1, 4)).as_deref(), Some("0.25"));
        assert_eq!(decimal_literal(&q(111, 25)).as_deref(), Some("4.44"));
        assert_eq!(decimal_literal(&q(12321, 2500)).as_deref(), Some("4.9284"));
        assert_eq!(decimal_literal(&q(1000, 1)).as_deref(), Some("1000"));
        assert_eq!(decimal_literal(&q(1, 3)), None);
        assert_eq!(decimal_literal(&q(-1, 2)), None);
    }
}
