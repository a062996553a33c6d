//! Hash-consed interning arena for the core IR.
//!
//! Types and grades are *hash-consed*: structurally equal values intern to
//! the same [`TyId`]/[`GradeId`], so equality of interned types is a
//! single integer comparison and the subtype/`max`/`min` lattice
//! operations of Figs. 11–12 memoize by id pair. The whole pipeline —
//! lowering, checking, evaluation — passes these ids around instead of
//! cloning [`Ty`] trees.
//!
//! Each of the two tables keeps its keys once, in the id-ordered `Vec`
//! that ids index, beside an id table of hash tags and ids (the crate's
//! one hash-consing design, `crate::intern`), so a new grade is moved or
//! cloned into the arena once. The lattice memos are hash maps under the
//! crate's hasher, seeded once per process.
//!
//! # Id stability
//!
//! The arena is **append-only**: once a node is interned its id never
//! changes and never dangles, even across [`CoreArena::clone`] handles
//! (clones share the same table). Ids are only meaningful relative to the
//! arena that produced them; every [`crate::TermStore`] exposes its arena
//! via [`crate::TermStore::tys`], and stores built from the same
//! [`CoreArena`] handle (one analysis session, in facade terms) may
//! exchange ids freely. Interning the same type twice — in any order,
//! from any handle — always yields the same id, which is what makes the
//! memoized lattice caches sound: a cache entry keyed by `(TyId, TyId)`
//! can never be invalidated by later interning.
//!
//! The arena hands out *owned* [`Ty`]/[`Grade`] values when resolving
//! (the table lives behind a lock so handles are shareable across
//! threads); hot paths never resolve — they walk [`TyNode`]s, which are
//! `Copy`.

use crate::grade::Grade;
use crate::intern::{IdTable, SeededMap};
use crate::ty::Ty;
use std::sync::{Arc, Mutex, MutexGuard};

/// Index of a term node in a [`crate::TermStore`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TermId(pub(crate) u32);

/// A unique variable (fresh per binder).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VarId(pub(crate) u32);

/// Interned id of a type in a [`CoreArena`]. Two ids from the same arena
/// are equal **iff** the types are structurally equal (O(1) equality).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TyId(u32);

/// Interned id of a grade in a [`CoreArena`] (same equality guarantee).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct GradeId(u32);

/// One interned type node: children are ids, so the node itself is `Copy`
/// and structural sharing is maximal (a type DAG, not a tree).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TyNode {
    /// The unit type.
    Unit,
    /// The numeric base type.
    Num,
    /// Tensor product `σ ⊗ τ` (sum metric).
    Tensor(TyId, TyId),
    /// Cartesian product `σ × τ` (max metric).
    With(TyId, TyId),
    /// Sum `σ + τ`.
    Sum(TyId, TyId),
    /// Linear functions `σ ⊸ τ`.
    Lolli(TyId, TyId),
    /// Metric scaling `!_s σ`.
    Bang(GradeId, TyId),
    /// The graded monad `M_u τ`.
    Monad(GradeId, TyId),
}

#[derive(Debug, Default)]
pub(crate) struct ArenaInner {
    ty_nodes: Vec<TyNode>,
    ty_ids: IdTable,
    grades: Vec<Grade>,
    grade_ids: IdTable,
    /// Memoized Fig. 12 subtype queries (not symmetric: keyed as asked).
    subtype_cache: SeededMap<(TyId, TyId), bool>,
    /// Memoized Fig. 11 `max` (join); `None` records a shape mismatch.
    sup_cache: SeededMap<(TyId, TyId), Option<TyId>>,
    /// Memoized Fig. 11 `min` (meet).
    inf_cache: SeededMap<(TyId, TyId), Option<TyId>>,
}

/// A shareable hash-consing arena for types and grades. Cloning the
/// handle is O(1) and shares the underlying table (and its memoized
/// lattice caches); see the [module docs](self) for the id-stability
/// guarantees.
#[derive(Clone, Debug)]
pub struct CoreArena {
    inner: Arc<Mutex<ArenaInner>>,
}

impl Default for CoreArena {
    fn default() -> Self {
        CoreArena::new()
    }
}

/// `Unit` and `Num` are pre-interned at fixed slots so the checker can
/// compare against them without taking the lock.
pub(crate) const UNIT_ID: TyId = TyId(0);
pub(crate) const NUM_ID: TyId = TyId(1);

impl CoreArena {
    /// A fresh arena with `unit` and `num` pre-interned.
    pub fn new() -> Self {
        let mut inner = ArenaInner::default();
        assert_eq!(inner.mk(TyNode::Unit), UNIT_ID);
        assert_eq!(inner.mk(TyNode::Num), NUM_ID);
        CoreArena { inner: Arc::new(Mutex::new(inner)) }
    }

    fn lock(&self) -> MutexGuard<'_, ArenaInner> {
        // Interning never panics mid-mutation, so a poisoned lock still
        // guards a consistent table.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Takes the table lock once for a whole pass (the checker holds this
    /// guard for its entire run instead of locking per query). While the
    /// guard is live, the handle's own methods on the same thread would
    /// deadlock — callers must go through the guard exclusively.
    pub(crate) fn inner(&self) -> MutexGuard<'_, ArenaInner> {
        self.lock()
    }

    /// Number of distinct interned types.
    pub fn len(&self) -> usize {
        self.lock().ty_nodes.len()
    }

    /// Whether the arena holds no types at all — always `false` in
    /// practice (`unit` and `num` are pre-interned), provided only to
    /// honor the standard `len`/`is_empty` contract.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The interned `unit` type (no lock taken).
    pub fn unit(&self) -> TyId {
        UNIT_ID
    }

    /// The interned `num` type (no lock taken).
    pub fn num(&self) -> TyId {
        NUM_ID
    }

    /// Interns a single node whose children are already interned.
    pub fn mk(&self, node: TyNode) -> TyId {
        self.lock().mk(node)
    }

    /// `σ ⊗ τ`.
    pub fn tensor(&self, a: TyId, b: TyId) -> TyId {
        self.mk(TyNode::Tensor(a, b))
    }

    /// `σ × τ`.
    pub fn with_ty(&self, a: TyId, b: TyId) -> TyId {
        self.mk(TyNode::With(a, b))
    }

    /// `σ + τ`.
    pub fn sum(&self, a: TyId, b: TyId) -> TyId {
        self.mk(TyNode::Sum(a, b))
    }

    /// `σ ⊸ τ`.
    pub fn lolli(&self, a: TyId, b: TyId) -> TyId {
        self.mk(TyNode::Lolli(a, b))
    }

    /// `!_s σ`.
    pub fn bang(&self, s: GradeId, t: TyId) -> TyId {
        self.mk(TyNode::Bang(s, t))
    }

    /// `M_u τ`.
    pub fn monad(&self, u: GradeId, t: TyId) -> TyId {
        self.mk(TyNode::Monad(u, t))
    }

    /// The node behind an id.
    pub fn node(&self, id: TyId) -> TyNode {
        self.lock().ty_nodes[id.0 as usize]
    }

    /// Interns a [`Ty`] tree bottom-up.
    pub fn intern(&self, t: &Ty) -> TyId {
        self.lock().intern(t)
    }

    /// Reconstructs the [`Ty`] tree behind an id.
    pub fn resolve(&self, id: TyId) -> Ty {
        self.lock().resolve(id)
    }

    /// Interns a grade.
    pub fn intern_grade(&self, g: &Grade) -> GradeId {
        self.lock().intern_grade(g)
    }

    /// The grade behind an id (cloned out of the table).
    pub fn grade(&self, id: GradeId) -> Grade {
        self.lock().grades[id.0 as usize].clone()
    }

    /// The subtype relation of Fig. 12 over interned ids, memoized.
    /// Equal ids short-circuit without touching the cache (reflexivity).
    pub fn subtype(&self, a: TyId, b: TyId) -> bool {
        if a == b {
            return true;
        }
        self.lock().subtype(a, b)
    }

    /// The supertype operation `max` of Fig. 11, memoized. `None` when the
    /// shapes differ.
    pub fn sup(&self, a: TyId, b: TyId) -> Option<TyId> {
        if a == b {
            return Some(a);
        }
        self.lock().sup(a, b)
    }

    /// The subtype operation `min` of Fig. 11 (dual of [`CoreArena::sup`]),
    /// memoized.
    pub fn inf(&self, a: TyId, b: TyId) -> Option<TyId> {
        if a == b {
            return Some(a);
        }
        self.lock().inf(a, b)
    }
}

impl ArenaInner {
    /// The node behind an id.
    pub(crate) fn node(&self, id: TyId) -> TyNode {
        self.ty_nodes[id.0 as usize]
    }

    /// The grade behind an id, borrowed (no clone).
    pub(crate) fn grade(&self, id: GradeId) -> &Grade {
        &self.grades[id.0 as usize]
    }

    pub(crate) fn mk(&mut self, node: TyNode) -> TyId {
        TyId(self.ty_ids.find(&self.ty_nodes, &node).unwrap_or_else(|at| {
            self.ty_nodes.push(node);
            self.ty_ids.insert(at)
        }))
    }

    pub(crate) fn intern(&mut self, t: &Ty) -> TyId {
        // Type trees are shallow (annotation-sized), so recursion is fine
        // here; the hot paths never build `Ty` trees at all.
        let node = match t {
            Ty::Unit => return UNIT_ID,
            Ty::Num => return NUM_ID,
            Ty::Tensor(a, b) => TyNode::Tensor(self.intern(a), self.intern(b)),
            Ty::With(a, b) => TyNode::With(self.intern(a), self.intern(b)),
            Ty::Sum(a, b) => TyNode::Sum(self.intern(a), self.intern(b)),
            Ty::Lolli(a, b) => TyNode::Lolli(self.intern(a), self.intern(b)),
            Ty::Bang(s, t) => {
                let sid = self.intern_grade(s);
                TyNode::Bang(sid, self.intern(t))
            }
            Ty::Monad(u, t) => {
                let uid = self.intern_grade(u);
                TyNode::Monad(uid, self.intern(t))
            }
        };
        self.mk(node)
    }

    pub(crate) fn resolve(&self, id: TyId) -> Ty {
        match self.ty_nodes[id.0 as usize] {
            TyNode::Unit => Ty::Unit,
            TyNode::Num => Ty::Num,
            TyNode::Tensor(a, b) => Ty::tensor(self.resolve(a), self.resolve(b)),
            TyNode::With(a, b) => Ty::with(self.resolve(a), self.resolve(b)),
            TyNode::Sum(a, b) => Ty::sum(self.resolve(a), self.resolve(b)),
            TyNode::Lolli(a, b) => Ty::lolli(self.resolve(a), self.resolve(b)),
            TyNode::Bang(s, t) => Ty::bang(self.grades[s.0 as usize].clone(), self.resolve(t)),
            TyNode::Monad(u, t) => Ty::monad(self.grades[u.0 as usize].clone(), self.resolve(t)),
        }
    }

    pub(crate) fn intern_grade(&mut self, g: &Grade) -> GradeId {
        GradeId(self.grade_ids.find(&self.grades, g).unwrap_or_else(|at| {
            self.grades.push(g.clone());
            self.grade_ids.insert(at)
        }))
    }

    /// [`ArenaInner::intern_grade`] of a grade the caller no longer
    /// needs: a new grade is moved into the table, not cloned.
    pub(crate) fn intern_grade_owned(&mut self, g: Grade) -> GradeId {
        GradeId(self.grade_ids.find(&self.grades, &g).unwrap_or_else(|at| {
            self.grades.push(g);
            self.grade_ids.insert(at)
        }))
    }

    pub(crate) fn subtype(&mut self, a: TyId, b: TyId) -> bool {
        if a == b {
            return true;
        }
        if let Some(&hit) = self.subtype_cache.get(&(a, b)) {
            return hit;
        }
        let result = match (self.ty_nodes[a.0 as usize], self.ty_nodes[b.0 as usize]) {
            (TyNode::Unit, TyNode::Unit) | (TyNode::Num, TyNode::Num) => true,
            (TyNode::Tensor(a1, b1), TyNode::Tensor(a2, b2))
            | (TyNode::With(a1, b1), TyNode::With(a2, b2))
            | (TyNode::Sum(a1, b1), TyNode::Sum(a2, b2)) => {
                self.subtype(a1, a2) && self.subtype(b1, b2)
            }
            (TyNode::Lolli(a1, b1), TyNode::Lolli(a2, b2)) => {
                self.subtype(a2, a1) && self.subtype(b1, b2)
            }
            (TyNode::Monad(u1, t1), TyNode::Monad(u2, t2)) => {
                self.grade_le(u1, u2) && self.subtype(t1, t2)
            }
            (TyNode::Bang(s1, t1), TyNode::Bang(s2, t2)) => {
                self.grade_le(s2, s1) && self.subtype(t1, t2)
            }
            _ => false,
        };
        self.subtype_cache.insert((a, b), result);
        result
    }

    pub(crate) fn grade_le(&self, a: GradeId, b: GradeId) -> bool {
        a == b || self.grades[a.0 as usize].le(&self.grades[b.0 as usize])
    }

    pub(crate) fn grade_sup(&mut self, a: GradeId, b: GradeId) -> GradeId {
        if a == b {
            return a;
        }
        let g = self.grades[a.0 as usize].sup(&self.grades[b.0 as usize]);
        self.intern_grade_owned(g)
    }

    pub(crate) fn grade_inf(&mut self, a: GradeId, b: GradeId) -> GradeId {
        if a == b {
            return a;
        }
        let g = self.grades[a.0 as usize].inf(&self.grades[b.0 as usize]);
        self.intern_grade_owned(g)
    }

    pub(crate) fn sup(&mut self, a: TyId, b: TyId) -> Option<TyId> {
        if a == b {
            return Some(a);
        }
        if let Some(&hit) = self.sup_cache.get(&(a, b)) {
            return hit;
        }
        let result = match (self.ty_nodes[a.0 as usize], self.ty_nodes[b.0 as usize]) {
            (TyNode::Unit, TyNode::Unit) => Some(UNIT_ID),
            (TyNode::Num, TyNode::Num) => Some(NUM_ID),
            (TyNode::Tensor(a1, b1), TyNode::Tensor(a2, b2)) => {
                let (l, r) = (self.sup(a1, a2), self.sup(b1, b2));
                l.zip(r).map(|(l, r)| self.mk(TyNode::Tensor(l, r)))
            }
            (TyNode::With(a1, b1), TyNode::With(a2, b2)) => {
                let (l, r) = (self.sup(a1, a2), self.sup(b1, b2));
                l.zip(r).map(|(l, r)| self.mk(TyNode::With(l, r)))
            }
            (TyNode::Sum(a1, b1), TyNode::Sum(a2, b2)) => {
                let (l, r) = (self.sup(a1, a2), self.sup(b1, b2));
                l.zip(r).map(|(l, r)| self.mk(TyNode::Sum(l, r)))
            }
            // sup of functions narrows the domain (contravariance).
            (TyNode::Lolli(a1, b1), TyNode::Lolli(a2, b2)) => {
                let (l, r) = (self.inf(a1, a2), self.sup(b1, b2));
                l.zip(r).map(|(l, r)| self.mk(TyNode::Lolli(l, r)))
            }
            (TyNode::Monad(u1, t1), TyNode::Monad(u2, t2)) => self.sup(t1, t2).map(|t| {
                let u = self.grade_sup(u1, u2);
                self.mk(TyNode::Monad(u, t))
            }),
            (TyNode::Bang(s1, t1), TyNode::Bang(s2, t2)) => self.sup(t1, t2).map(|t| {
                let s = self.grade_inf(s1, s2);
                self.mk(TyNode::Bang(s, t))
            }),
            _ => None,
        };
        self.sup_cache.insert((a, b), result);
        result
    }

    pub(crate) fn inf(&mut self, a: TyId, b: TyId) -> Option<TyId> {
        if a == b {
            return Some(a);
        }
        if let Some(&hit) = self.inf_cache.get(&(a, b)) {
            return hit;
        }
        let result = match (self.ty_nodes[a.0 as usize], self.ty_nodes[b.0 as usize]) {
            (TyNode::Unit, TyNode::Unit) => Some(UNIT_ID),
            (TyNode::Num, TyNode::Num) => Some(NUM_ID),
            (TyNode::Tensor(a1, b1), TyNode::Tensor(a2, b2)) => {
                let (l, r) = (self.inf(a1, a2), self.inf(b1, b2));
                l.zip(r).map(|(l, r)| self.mk(TyNode::Tensor(l, r)))
            }
            (TyNode::With(a1, b1), TyNode::With(a2, b2)) => {
                let (l, r) = (self.inf(a1, a2), self.inf(b1, b2));
                l.zip(r).map(|(l, r)| self.mk(TyNode::With(l, r)))
            }
            (TyNode::Sum(a1, b1), TyNode::Sum(a2, b2)) => {
                let (l, r) = (self.inf(a1, a2), self.inf(b1, b2));
                l.zip(r).map(|(l, r)| self.mk(TyNode::Sum(l, r)))
            }
            // inf of functions widens the domain (contravariance).
            (TyNode::Lolli(a1, b1), TyNode::Lolli(a2, b2)) => {
                let (l, r) = (self.sup(a1, a2), self.inf(b1, b2));
                l.zip(r).map(|(l, r)| self.mk(TyNode::Lolli(l, r)))
            }
            (TyNode::Monad(u1, t1), TyNode::Monad(u2, t2)) => self.inf(t1, t2).map(|t| {
                let u = self.grade_inf(u1, u2);
                self.mk(TyNode::Monad(u, t))
            }),
            (TyNode::Bang(s1, t1), TyNode::Bang(s2, t2)) => self.inf(t1, t2).map(|t| {
                let s = self.grade_sup(s1, s2);
                self.mk(TyNode::Bang(s, t))
            }),
            _ => None,
        };
        self.inf_cache.insert((a, b), result);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numfuzz_exact::Rational;

    fn eps() -> Grade {
        Grade::symbol("eps")
    }

    fn two() -> Grade {
        Grade::constant(Rational::from_int(2))
    }

    #[test]
    fn interning_is_structural() {
        let arena = CoreArena::new();
        let t1 = arena.intern(&Ty::lolli(Ty::bang(two(), Ty::Num), Ty::monad(eps(), Ty::Num)));
        let t2 = arena.intern(&Ty::lolli(Ty::bang(two(), Ty::Num), Ty::monad(eps(), Ty::Num)));
        assert_eq!(t1, t2);
        let t3 = arena.intern(&Ty::lolli(Ty::bang(eps(), Ty::Num), Ty::monad(eps(), Ty::Num)));
        assert_ne!(t1, t3);
        // Shared handles intern to the same ids.
        let handle = arena.clone();
        assert_eq!(handle.intern(&Ty::monad(eps(), Ty::Num)), {
            let gid = arena.intern_grade(&eps());
            arena.monad(gid, arena.num())
        });
    }

    #[test]
    fn unit_and_num_keep_their_fixed_ids() {
        let arena = CoreArena::new();
        assert_eq!((arena.unit(), arena.num()), (TyId(0), TyId(1)));
        assert_eq!((arena.mk(TyNode::Unit), arena.mk(TyNode::Num)), (TyId(0), TyId(1)));
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let arena = CoreArena::new();
        let t =
            Ty::with(Ty::tensor(Ty::Num, Ty::bool()), Ty::monad(eps(), Ty::bang(two(), Ty::Unit)));
        let id = arena.intern(&t);
        assert_eq!(arena.resolve(id), t);
        assert_eq!(arena.intern(&arena.resolve(id)), id);
    }

    #[test]
    fn lattice_ops_agree_with_tree_impls() {
        let arena = CoreArena::new();
        let a = Ty::monad(eps(), Ty::bang(two(), Ty::Num));
        let b = Ty::monad(two(), Ty::bang(eps(), Ty::Num));
        let (ia, ib) = (arena.intern(&a), arena.intern(&b));
        assert_eq!(arena.subtype(ia, ib), a.subtype(&b));
        assert_eq!(arena.sup(ia, ib).map(|i| arena.resolve(i)), a.sup(&b));
        assert_eq!(arena.inf(ia, ib).map(|i| arena.resolve(i)), a.inf(&b));
        // Shape mismatch memoizes as None.
        let unit = arena.unit();
        assert_eq!(arena.sup(ia, unit), None);
        assert_eq!(arena.sup(ia, unit), None);
    }

    #[test]
    fn monad_grades_grow_bang_grades_shrink() {
        let arena = CoreArena::new();
        let geps = arena.intern_grade(&eps());
        let g2eps = arena.intern_grade(&eps().scale(&Rational::from_int(2)));
        let m1 = arena.monad(geps, arena.num());
        let m2 = arena.monad(g2eps, arena.num());
        assert!(arena.subtype(m1, m2));
        assert!(!arena.subtype(m2, m1));
        let gtwo = arena.intern_grade(&two());
        let gone = arena.intern_grade(&Grade::one());
        let b2 = arena.bang(gtwo, arena.num());
        let b1 = arena.bang(gone, arena.num());
        assert!(arena.subtype(b2, b1));
        assert!(!arena.subtype(b1, b2));
    }
}
