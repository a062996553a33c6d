//! Arena-based Λnum terms (paper Fig. 1).
//!
//! Table 4 of the paper type-checks programs with up to 4.2 million
//! floating-point operations — tens of millions of AST nodes. To make that
//! feasible (and to avoid recursive `Drop` on million-deep let chains),
//! terms live in a [`TermStore`] arena and are referenced by compact
//! [`TermId`]s. Term nodes are **hash-consed**: structurally identical
//! nodes (same children ids, same annotations) intern to one id, so
//! equality is id equality and substitution-heavy workloads share
//! structure instead of copying it. Variables are alpha-renamed at
//! construction time: every binder introduces a fresh [`VarId`], so
//! checking and evaluation never deal with shadowing (and hash-consing
//! can never confuse two binders).
//!
//! Each interning table (nodes, constants, variable names) keeps its keys
//! once, in the id-ordered `Vec` that ids index; the id table beside it
//! (`crate::intern`) holds a hash tag and an id per key and confirms a
//! match against that `Vec`, so a name looked up as `&str` is copied
//! only when it is new.
//!
//! Type and grade annotations are interned ids ([`TyId`]/[`GradeId`])
//! into a shared [`CoreArena`]; see [`crate::arena`] for the id-stability
//! guarantees. Stores created with [`TermStore::with_arena`] share one
//! arena (one analysis session), so annotation ids interchange between
//! them.

use crate::arena::{CoreArena, GradeId, TyId};
pub use crate::arena::{TermId, VarId};
use crate::grade::Grade;
use crate::intern::IdTable;
use crate::ty::Ty;
use numfuzz_exact::Rational;
use std::sync::Arc;

/// Interned index of a constant or operation name.
type Idx = u32;

/// Index of a stored variable display name.
pub(crate) type NameIdx = u32;

/// The entry at index `i` of a table indexed by a store-local id
/// ([`TermId`], [`VarId`] or an operation index), growing the table with
/// `fill` to reach it.
pub(crate) fn grow_to<T: Clone>(table: &mut Vec<T>, i: usize, fill: T) -> &mut T {
    if i >= table.len() {
        table.resize(i + 1, fill);
    }
    &mut table[i]
}

/// A term node. Constructors and eliminators take *value* operands
/// (Fig. 1's refinement of Fuzz); the surface-syntax lowering inserts lets
/// to enforce this, and [`TermStore::is_value`] checks it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Node {
    /// Variable reference.
    Var(VarId),
    /// The unit value `⟨⟩`.
    UnitVal,
    /// A numeric constant `k ∈ R`.
    Const(Idx),
    /// Cartesian pair `⟨v, w⟩` (max metric).
    PairW(TermId, TermId),
    /// Tensor pair `(v, w)` (sum metric).
    PairT(TermId, TermId),
    /// Left injection; carries the annotation for the *right* type.
    Inl(TermId, TyId),
    /// Right injection; carries the annotation for the *left* type.
    Inr(TermId, TyId),
    /// `λ(x : σ). e`.
    Lam(VarId, TyId, TermId),
    /// `[v]` with scaling annotation `s` — introduces `!_s`.
    BoxIntro(GradeId, TermId),
    /// `rnd v`: the effectful rounding operation.
    Rnd(TermId),
    /// `ret v`: the monadic unit.
    Ret(TermId),
    /// The error value of the exceptional extension (Section 7.1), with
    /// its monadic grade and result-type annotations.
    Err(GradeId, TyId),
    /// Application `v w`.
    App(TermId, TermId),
    /// Projection `π₁/π₂ v` from a Cartesian pair.
    Proj(bool, TermId),
    /// `let (x, y) = v in e`.
    LetTensor(VarId, VarId, TermId, TermId),
    /// `case v of (inl x. e | inr y. f)`.
    Case(TermId, VarId, TermId, VarId, TermId),
    /// `let [x] = v in e`.
    LetBox(VarId, TermId, TermId),
    /// `let-bind(v, x. f)`: monadic sequencing.
    LetBind(VarId, TermId, TermId),
    /// `let x = e in f`: call-by-value sequencing.
    Let(VarId, TermId, TermId),
    /// Top-level `function` definition: like `Let`, but with an optional
    /// declared type that checking validates and then assigns to the
    /// variable.
    LetFun(VarId, Option<TyId>, TermId, TermId),
    /// Primitive operation application `op(v)`.
    Op(Idx, TermId),
}

/// The arena holding every node of a program, plus interning tables for
/// constants and operation names and a (possibly shared) [`CoreArena`]
/// for type/grade annotations.
#[derive(Clone, Debug)]
pub struct TermStore {
    nodes: Vec<Node>,
    /// Hash-consing table: node → its id.
    node_ids: IdTable,
    consts: Vec<Rational>,
    const_ids: IdTable,
    tys: CoreArena,
    ops: Vec<String>,
    /// Distinct variable display names, each spelling stored once.
    names: Vec<Arc<str>>,
    name_ids: IdTable,
    /// Each variable's index into `names`.
    var_names: Vec<NameIdx>,
}

impl Default for TermStore {
    fn default() -> Self {
        TermStore::with_arena(CoreArena::new())
    }
}

impl TermStore {
    /// An empty store with its own fresh type/grade arena.
    pub fn new() -> Self {
        TermStore::default()
    }

    /// An empty store sharing an existing arena, so annotation ids (and
    /// memoized lattice queries) interchange with other stores of the
    /// same session.
    pub fn with_arena(tys: CoreArena) -> Self {
        TermStore {
            nodes: Vec::new(),
            node_ids: IdTable::default(),
            consts: Vec::new(),
            const_ids: IdTable::default(),
            tys,
            ops: Vec::new(),
            names: Vec::new(),
            name_ids: IdTable::default(),
            var_names: Vec::new(),
        }
    }

    /// The type/grade arena this store interns annotations into.
    pub fn tys(&self) -> &CoreArena {
        &self.tys
    }

    /// Number of distinct nodes allocated.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of variables allocated (a strictly increasing counter, so
    /// it also serves as a unique-name seed for generated temporaries).
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// The node behind an id.
    pub fn node(&self, id: TermId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// The constant behind a [`Node::Const`] index.
    pub fn constant(&self, idx: Idx) -> &Rational {
        &self.consts[idx as usize]
    }

    /// The type annotation behind an id (resolved out of the arena).
    pub fn ty(&self, id: TyId) -> Ty {
        self.tys.resolve(id)
    }

    /// The grade annotation behind an id (resolved out of the arena).
    pub fn grade(&self, id: GradeId) -> Grade {
        self.tys.grade(id)
    }

    /// The operation name behind an index.
    pub fn op_name(&self, idx: Idx) -> &str {
        &self.ops[idx as usize]
    }

    /// The display name of a variable.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.names[self.var_names[v.0 as usize] as usize]
    }

    /// Allocates a fresh variable with a display name.
    pub fn fresh_var(&mut self, name: &str) -> VarId {
        let name = self.intern_name(name);
        self.fresh_var_named(name)
    }

    /// Interns a display name for [`TermStore::fresh_var_named`].
    pub(crate) fn intern_name(&mut self, name: &str) -> NameIdx {
        self.name_ids.find(&self.names, name).unwrap_or_else(|at| {
            self.names.push(name.into());
            self.name_ids.insert(at)
        })
    }

    /// Allocates a fresh variable under an interned name.
    pub(crate) fn fresh_var_named(&mut self, name: NameIdx) -> VarId {
        let id = VarId(self.var_names.len() as u32);
        self.var_names.push(name);
        id
    }

    /// Renames a variable (the front end names ANF temporaries once the
    /// whole program is read).
    pub(crate) fn rename_var(&mut self, v: VarId, name: NameIdx) {
        self.var_names[v.0 as usize] = name;
    }

    /// Interns a node (hash-consing: structurally identical nodes share
    /// one id).
    fn push(&mut self, node: Node) -> TermId {
        TermId(self.node_ids.find(&self.nodes, &node).unwrap_or_else(|at| {
            self.nodes.push(node);
            self.node_ids.insert(at)
        }))
    }

    /// Interns a type annotation.
    pub fn intern_ty(&mut self, t: Ty) -> TyId {
        self.tys.intern(&t)
    }

    /// Interns a grade annotation.
    pub fn intern_grade(&mut self, g: Grade) -> GradeId {
        self.tys.inner().intern_grade_owned(g)
    }

    /// Interns an operation name.
    pub fn intern_op(&mut self, name: &str) -> Idx {
        if let Some(i) = self.ops.iter().position(|x| x == name) {
            return i as Idx;
        }
        self.ops.push(name.to_string());
        (self.ops.len() - 1) as Idx
    }

    // ----- node constructors (the programmatic building API) -----

    /// `x`.
    pub fn var(&mut self, v: VarId) -> TermId {
        self.push(Node::Var(v))
    }

    /// `⟨⟩`.
    pub fn unit(&mut self) -> TermId {
        self.push(Node::UnitVal)
    }

    /// Numeric constant.
    pub fn num(&mut self, k: Rational) -> TermId {
        let idx = self.const_ids.find(&self.consts, &k).unwrap_or_else(|at| {
            self.consts.push(k);
            self.const_ids.insert(at)
        });
        self.push(Node::Const(idx))
    }

    /// Cartesian pair `⟨a, b⟩` (written `(|a, b|)` in the surface syntax).
    pub fn pair_with(&mut self, a: TermId, b: TermId) -> TermId {
        self.push(Node::PairW(a, b))
    }

    /// Tensor pair `(a, b)`.
    pub fn pair_tensor(&mut self, a: TermId, b: TermId) -> TermId {
        self.push(Node::PairT(a, b))
    }

    /// `inl v` with the right-hand type annotation.
    pub fn inl(&mut self, v: TermId, right: Ty) -> TermId {
        let idx = self.intern_ty(right);
        self.inl_at(v, idx)
    }

    /// `inl v` with an already-interned annotation.
    pub fn inl_at(&mut self, v: TermId, right: TyId) -> TermId {
        self.push(Node::Inl(v, right))
    }

    /// `inr v` with the left-hand type annotation.
    pub fn inr(&mut self, v: TermId, left: Ty) -> TermId {
        let idx = self.intern_ty(left);
        self.inr_at(v, idx)
    }

    /// `inr v` with an already-interned annotation.
    pub fn inr_at(&mut self, v: TermId, left: TyId) -> TermId {
        self.push(Node::Inr(v, left))
    }

    /// `true = inl ⟨⟩ : bool`.
    pub fn bool_true(&mut self) -> TermId {
        let u = self.unit();
        let unit_ty = self.tys.unit();
        self.inl_at(u, unit_ty)
    }

    /// `false = inr ⟨⟩ : bool`.
    pub fn bool_false(&mut self) -> TermId {
        let u = self.unit();
        let unit_ty = self.tys.unit();
        self.inr_at(u, unit_ty)
    }

    /// `λ(x : σ). e`.
    pub fn lam(&mut self, x: VarId, ty: Ty, body: TermId) -> TermId {
        let idx = self.intern_ty(ty);
        self.lam_at(x, idx, body)
    }

    /// `λ(x : σ). e` with an already-interned domain.
    pub fn lam_at(&mut self, x: VarId, ty: TyId, body: TermId) -> TermId {
        self.push(Node::Lam(x, ty, body))
    }

    /// `[v]{s}`.
    pub fn box_intro(&mut self, s: Grade, v: TermId) -> TermId {
        let idx = self.intern_grade(s);
        self.box_intro_at(idx, v)
    }

    /// `[v]{s}` with an already-interned grade.
    pub fn box_intro_at(&mut self, s: GradeId, v: TermId) -> TermId {
        self.push(Node::BoxIntro(s, v))
    }

    /// `rnd v`.
    pub fn rnd(&mut self, v: TermId) -> TermId {
        self.push(Node::Rnd(v))
    }

    /// `ret v`.
    pub fn ret(&mut self, v: TermId) -> TermId {
        self.push(Node::Ret(v))
    }

    /// `err : M_u τ` (Section 7.1).
    pub fn err(&mut self, u: Grade, ty: Ty) -> TermId {
        let g = self.intern_grade(u);
        let t = self.intern_ty(ty);
        self.err_at(g, t)
    }

    /// `err` with already-interned annotations.
    pub fn err_at(&mut self, u: GradeId, ty: TyId) -> TermId {
        self.push(Node::Err(u, ty))
    }

    /// `v w`.
    pub fn app(&mut self, v: TermId, w: TermId) -> TermId {
        self.push(Node::App(v, w))
    }

    /// `π₁ v` (`first = true`) or `π₂ v`.
    pub fn proj(&mut self, first: bool, v: TermId) -> TermId {
        self.push(Node::Proj(first, v))
    }

    /// `let (x, y) = v in e`.
    pub fn let_tensor(&mut self, x: VarId, y: VarId, v: TermId, e: TermId) -> TermId {
        self.push(Node::LetTensor(x, y, v, e))
    }

    /// `case v of (inl x. e | inr y. f)`.
    pub fn case(&mut self, v: TermId, x: VarId, e: TermId, y: VarId, f: TermId) -> TermId {
        self.push(Node::Case(v, x, e, y, f))
    }

    /// `let [x] = v in e`.
    pub fn let_box(&mut self, x: VarId, v: TermId, e: TermId) -> TermId {
        self.push(Node::LetBox(x, v, e))
    }

    /// `let-bind(v, x. f)`.
    pub fn let_bind(&mut self, x: VarId, v: TermId, f: TermId) -> TermId {
        self.push(Node::LetBind(x, v, f))
    }

    /// `let x = e in f`.
    pub fn let_in(&mut self, x: VarId, e: TermId, f: TermId) -> TermId {
        self.push(Node::Let(x, e, f))
    }

    /// Top-level function definition (`Let` plus a declared type to check
    /// against and assign).
    pub fn let_fun(
        &mut self,
        x: VarId,
        declared: Option<Ty>,
        body: TermId,
        rest: TermId,
    ) -> TermId {
        let idx = declared.map(|t| self.intern_ty(t));
        self.let_fun_at(x, idx, body, rest)
    }

    /// [`TermStore::let_fun`] with an already-interned declared type.
    pub fn let_fun_at(
        &mut self,
        x: VarId,
        declared: Option<TyId>,
        body: TermId,
        rest: TermId,
    ) -> TermId {
        self.push(Node::LetFun(x, declared, body, rest))
    }

    /// `op(v)`.
    pub fn op(&mut self, name: &str, v: TermId) -> TermId {
        let idx = self.intern_op(name);
        self.op_at(idx, v)
    }

    /// `op(v)` with an already-interned operation index.
    pub fn op_at(&mut self, op: Idx, v: TermId) -> TermId {
        self.push(Node::Op(op, v))
    }

    /// Whether every node under `root` respects Fig. 1's syntactic
    /// restriction: constructors and eliminators take *value* operands
    /// (terms appear only as `let`-style bodies and bound computations).
    ///
    /// The checker is deliberately more liberal (it types any well-scoped
    /// tree), but all surface-lowered and generated programs conform;
    /// tests enforce this so the small-step reference semantics always
    /// applies to them.
    pub fn conforms_to_value_restriction(&self, root: TermId) -> bool {
        let mut stack = vec![root];
        while let Some(t) = stack.pop() {
            let ok = match self.node(t) {
                Node::Var(_) | Node::UnitVal | Node::Const(_) | Node::Err(..) => true,
                Node::PairW(a, b) | Node::PairT(a, b) | Node::App(a, b) => {
                    stack.push(*a);
                    stack.push(*b);
                    self.is_value(*a) && self.is_value(*b)
                }
                Node::Inl(v, _)
                | Node::Inr(v, _)
                | Node::BoxIntro(_, v)
                | Node::Rnd(v)
                | Node::Ret(v)
                | Node::Proj(_, v)
                | Node::Op(_, v) => {
                    stack.push(*v);
                    self.is_value(*v)
                }
                Node::Lam(_, _, body) => {
                    stack.push(*body);
                    true
                }
                Node::LetTensor(_, _, v, e) | Node::LetBox(_, v, e) | Node::LetBind(_, v, e) => {
                    stack.push(*v);
                    stack.push(*e);
                    self.is_value(*v)
                }
                Node::Case(v, _, e1, _, e2) => {
                    stack.push(*v);
                    stack.push(*e1);
                    stack.push(*e2);
                    self.is_value(*v)
                }
                // `let x = e in f` sequences arbitrary terms.
                Node::Let(_, e, f) | Node::LetFun(_, _, e, f) => {
                    stack.push(*e);
                    stack.push(*f);
                    true
                }
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Whether a term is a *value* per Fig. 1 (iterative, no recursion).
    pub fn is_value(&self, id: TermId) -> bool {
        let mut stack = vec![id];
        while let Some(t) = stack.pop() {
            match self.node(t) {
                Node::Var(_) | Node::UnitVal | Node::Const(_) | Node::Lam(..) => {}
                Node::PairW(a, b) | Node::PairT(a, b) => {
                    stack.push(*a);
                    stack.push(*b);
                }
                Node::Inl(v, _)
                | Node::Inr(v, _)
                | Node::BoxIntro(_, v)
                | Node::Rnd(v)
                | Node::Ret(v) => stack.push(*v),
                // Fig. 1: let-bind(rnd v, x. f) is a value for value v.
                Node::LetBind(_, v, _) => match self.node(*v) {
                    Node::Rnd(w) => stack.push(*w),
                    _ => return false,
                },
                Node::Err(..) => {}
                _ => return false,
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_per_fig1() {
        let mut s = TermStore::new();
        let x = s.fresh_var("x");
        let vx = s.var(x);
        assert!(s.is_value(vx));
        let k = s.num(Rational::from_int(3));
        let pair = s.pair_tensor(vx, k);
        assert!(s.is_value(pair));
        let rnd = s.rnd(pair);
        assert!(s.is_value(rnd));
        // Applications are not values...
        let app = s.app(vx, k);
        assert!(!s.is_value(app));
        // ...nor are pairs containing them.
        let bad_pair = s.pair_with(app, k);
        assert!(!s.is_value(bad_pair));
        // let-bind(rnd v, x.f) is a value; let-bind(ret v, x.f) is not.
        let y = s.fresh_var("y");
        let body = s.var(y);
        let lb = s.let_bind(y, rnd, body);
        assert!(s.is_value(lb));
        let r = s.ret(k);
        let lb2 = s.let_bind(y, r, body);
        assert!(!s.is_value(lb2));
    }

    #[test]
    fn interning_dedupes() {
        let mut s = TermStore::new();
        let a = s.intern_ty(Ty::Num);
        let b = s.intern_ty(Ty::Num);
        assert_eq!(a, b);
        let g1 = s.intern_grade(Grade::one());
        let g2 = s.intern_grade(Grade::one());
        assert_eq!(g1, g2);
        let o1 = s.intern_op("mul");
        let o2 = s.intern_op("mul");
        assert_eq!(o1, o2);
        assert_eq!(s.op_name(o1), "mul");
    }

    #[test]
    fn nodes_are_hash_consed() {
        let mut s = TermStore::new();
        let x = s.fresh_var("x");
        // Identical leaves and identical compounds share one id.
        let v1 = s.var(x);
        let v2 = s.var(x);
        assert_eq!(v1, v2);
        let k1 = s.num(Rational::ratio(1, 2));
        let k2 = s.num(Rational::ratio(2, 4));
        assert_eq!(k1, k2, "constants dedup by value");
        let p1 = s.pair_tensor(v1, k1);
        let p2 = s.pair_tensor(v2, k2);
        assert_eq!(p1, p2);
        // Different structure gets a different id.
        let p3 = s.pair_with(v1, k1);
        assert_ne!(p1, p3);
        assert_eq!(s.len(), 4, "x, 1/2, (x,1/2), (|x,1/2|)");
    }

    #[test]
    fn structured_keys_keep_probe_runs_short() {
        // Programs intern regular keys (pairs of neighbouring ids, decimal
        // constants, numbered names); a hash whose bits do not mix piles
        // them into long probe runs.
        let mut s = TermStore::new();
        for i in 0..200_000u32 {
            s.push(Node::PairW(TermId(i), TermId(i + 1)));
            s.num(Rational::ratio(i64::from(i) + 1, 1000));
            s.intern_name(&format!("s{}", i + 1));
        }
        assert_eq!((s.len(), s.consts.len(), s.names.len()), (400_000, 200_000, 200_000));
        for (what, table) in
            [("nodes", &s.node_ids), ("constants", &s.const_ids), ("names", &s.name_ids)]
        {
            assert!(table.longest_probe() <= 64, "{what}: {}", table.longest_probe());
        }
    }

    #[test]
    fn fresh_vars_are_distinct() {
        let mut s = TermStore::new();
        let a = s.fresh_var("x");
        let b = s.fresh_var("x");
        assert_ne!(a, b);
        assert_eq!(s.var_name(a), "x");
        assert_eq!(s.var_name(b), "x");
        assert_eq!(s.names.len(), 1, "a spelling is stored once");
    }
}
