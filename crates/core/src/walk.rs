//! The judgment walker: one iterative traversal shared by the NumFuzz
//! forward judgment ([`crate::infer`], paper Fig. 10) and Bean's backward
//! judgment ([`crate::infer_backward`]).
//!
//! Both analyses type the same hash-consed IR bottom-up and differ only in
//! what a judgment is and how each node combines its children's. The
//! walker owns everything else, once:
//!
//! * the pass driver: memo fingerprinting and scope seeding, the single
//!   arena lock, and the [`JudgmentCounts`];
//! * the explicit stack and its stages (children are pushed in one fixed
//!   order), so million-node Table 4 programs check without recursion;
//! * child results consumed over [`count_parent_edges`], so peak memory
//!   tracks the live frontier while shared children still work;
//! * binder introduction: `λ` parameters, and the binders of `let (x, y)`,
//!   `case`, `let [x]` and `let x = v` from the scrutinee's `⊗`/`+`/`!`/`M`
//!   shape;
//! * the memo protocol ([`crate::cache`]): a stage-0 replay of each
//!   non-leaf node under its scope chain, the window of function reports
//!   each cache-missed node emits, and memoization when it completes.
//!
//! A [`Rules`] set supplies the rest: its judgment and report types, a
//! stage-0 hook that can reject a construct before its children are
//! visited, each node's own rule once its children are judged, the
//! `Let`/`LetFun` binder hook, and the translation between a judgment and
//! its store-independent [`JudgmentEntry`]. The walker is generic over the
//! rule set (static dispatch) and never asks which one it runs.
//!
//! Types flow through the pass as interned [`TyId`]s of the store's
//! [`crate::CoreArena`]; a `Ty` tree is built only at the public boundary
//! (results, reports, memo entries and error messages).

use crate::arena::{ArenaInner, GradeId, TyId, TyNode};
use crate::cache::{
    hash_ty_tree, node_fingerprints, scope_extend, JudgmentCache, JudgmentCounts, JudgmentEntry,
    NodeFingerprints,
};
use crate::grade::Grade;
use crate::sig::Signature;
use crate::term::{Node, TermId, TermStore, VarId};
use crate::ty::Ty;
use std::collections::HashMap;
use std::fmt;
use std::sync::MutexGuard;

/// Type-checking errors of both judgments. The forward judgment raises
/// the first ten; Bean's backward judgment raises the shape errors it
/// shares with them and the last five, its linearity and first-order
/// discipline.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckError {
    /// A variable was used without a binding.
    UnboundVar(String),
    /// An operation name is not in the signature.
    UnknownOp(String),
    /// A term's type had the wrong shape for its context.
    Expected {
        /// What the context needed (human-readable).
        what: &'static str,
        /// The type that was found.
        found: Ty,
    },
    /// A function argument does not match the domain type.
    ArgMismatch {
        /// The function's declared domain.
        expected: Ty,
        /// The argument's inferred type.
        found: Ty,
    },
    /// An operation argument does not match the signature.
    OpArgMismatch {
        /// Operation name.
        op: String,
        /// Signature argument type.
        expected: Ty,
        /// Inferred argument type.
        found: Ty,
    },
    /// A λ-bound variable is used at sensitivity above 1 (the body is not
    /// non-expansive; box the parameter instead).
    LambdaSensitivity {
        /// The parameter name.
        var: String,
        /// The inferred sensitivity.
        got: Grade,
    },
    /// A grade product of two symbolic quantities arose (not representable
    /// as a linear expression).
    NonlinearGrade,
    /// `let [x] = v in e` where `v : !_0 σ` but `x` is used.
    BoxZeroGrade {
        /// The bound variable's name.
        var: String,
    },
    /// `case` branches have incompatible types.
    BranchTypeMismatch {
        /// Left branch type.
        left: Ty,
        /// Right branch type.
        right: Ty,
    },
    /// A declared function type is not a supertype of the inferred one.
    DeclaredMismatch {
        /// Function name.
        name: String,
        /// The declaration.
        declared: Ty,
        /// What inference produced.
        inferred: Ty,
    },
    /// Backward: a linear binder is never consumed (weakening, which Bean
    /// forbids on data).
    UnusedLinear {
        /// The binder's name.
        var: String,
    },
    /// Backward: a linear variable is consumed more than once (general
    /// contraction).
    DuplicatedUse {
        /// The variable's name.
        var: String,
    },
    /// Backward: a construct with no backward-error interpretation.
    Incompatible {
        /// Which construct (human-readable).
        construct: &'static str,
    },
    /// Backward: rounding error (or a replayed demand) arises over a
    /// context with no linear variable to carry it back.
    NoCarrier {
        /// The syntactic site (`rnd`, `application`, …).
        site: &'static str,
    },
    /// Backward: `case` branches consume different sets of linear
    /// variables.
    BranchSupport {
        /// A variable consumed by only one branch.
        var: String,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::UnboundVar(x) => write!(f, "unbound variable `{x}`"),
            CheckError::UnknownOp(op) => write!(f, "unknown operation `{op}`"),
            CheckError::Expected { what, found } => write!(f, "expected {what}, found `{found}`"),
            CheckError::ArgMismatch { expected, found } => {
                write!(f, "argument type `{found}` is not a subtype of `{expected}`")
            }
            CheckError::OpArgMismatch { op, expected, found } => {
                write!(f, "operation `{op}` expects `{expected}`, got `{found}`")
            }
            CheckError::LambdaSensitivity { var, got } => write!(
                f,
                "parameter `{var}` is used at sensitivity {got} > 1; give it a ![{got}] type"
            ),
            CheckError::NonlinearGrade => {
                write!(f, "a product of two symbolic grades arose; annotate with constants")
            }
            CheckError::BoxZeroGrade { var } => {
                write!(f, "`{var}` was boxed at grade 0 but is used")
            }
            CheckError::BranchTypeMismatch { left, right } => {
                write!(f, "case branches have incompatible types `{left}` and `{right}`")
            }
            CheckError::DeclaredMismatch { name, declared, inferred } => write!(
                f,
                "function `{name}`: inferred type `{inferred}` is not a subtype of declared `{declared}`"
            ),
            CheckError::UnusedLinear { var } => {
                write!(f, "linear variable `{var}` is never consumed")
            }
            CheckError::DuplicatedUse { var } => {
                write!(f, "linear variable `{var}` is consumed more than once")
            }
            CheckError::Incompatible { construct } => {
                write!(f, "{construct} has no backward-error interpretation")
            }
            CheckError::NoCarrier { site } => {
                write!(f, "rounding error at {site} has no linear variable to flow back to")
            }
            CheckError::BranchSupport { var } => {
                write!(f, "`{var}` is consumed by only one case branch")
            }
        }
    }
}

impl std::error::Error for CheckError {}

/// One judgment's rules over the shared traversal.
pub(crate) trait Rules: Default {
    /// The per-subterm judgment.
    type Judgment: Clone;
    /// The report emitted for one `function` definition.
    type Report;
    /// What a whole pass returns.
    type Output;

    /// The type a judgment assigns.
    fn ty(j: &Self::Judgment) -> TyId;

    /// Runs when a node is first visited and its memo lookup missed,
    /// before any child is: a construct the judgment has no rule for is
    /// rejected here.
    fn enter(_node: Node) -> Result<(), CheckError> {
        Ok(())
    }

    /// The node's own rule, applied once its children are judged (leaves
    /// at once). Children's judgments are consumed with [`Walker::take`].
    fn rule(w: &mut Walker<'_, Self>, node: Node) -> Result<Self::Judgment, CheckError>;

    /// Introduces the binder `x` of a `Let` (`fun` false) or `LetFun`
    /// (`fun` true) whose bound term `bound` is judged. `assigned` is the
    /// binder's type, already checked against any declaration and in
    /// scope; the result is the scope chain the body is checked under.
    fn bind(
        w: &mut Walker<'_, Self>,
        x: VarId,
        bound: TermId,
        assigned: TyId,
        fun: bool,
        scope: u64,
    ) -> u64;

    /// The store-independent memo entry for a judgment whose subtree
    /// emitted the reports `window`, or `None` when some part of it does
    /// not canonicalize (the node then goes unmemoized).
    fn entry(
        j: &Self::Judgment,
        fps: &NodeFingerprints,
        arena: &ArenaInner,
        window: &[Self::Report],
    ) -> Option<JudgmentEntry>;

    /// Translates a memo entry back into this store, appending its
    /// subtree's reports; `None` (and nothing appended) when the entry is
    /// the other judgment's or does not translate.
    fn replay(
        entry: &JudgmentEntry,
        fps: &NodeFingerprints,
        store: &TermStore,
        arena: &mut ArenaInner,
        reports: &mut Vec<Self::Report>,
    ) -> Option<Self::Judgment>;

    /// Assembles the pass result from the root judgment, its resolved
    /// type and every function report in source order.
    fn output(
        store: &TermStore,
        root: Self::Judgment,
        ty: Ty,
        fns: Vec<Self::Report>,
    ) -> Self::Output;
}

/// Runs one judgment over `root`, with `free` typing the free variables,
/// memoizing subterm judgments against `memo` when given: `(cache,
/// config)`, where `config` fingerprints the analysis mode and signature.
pub(crate) fn walk<R: Rules>(
    store: &TermStore,
    sig: &Signature,
    root: TermId,
    free: &[(VarId, Ty)],
    memo: Option<(&mut JudgmentCache, u64)>,
) -> Result<(R::Output, JudgmentCounts), CheckError> {
    // The scope-chain seed folds the free interface — each variable's
    // canonical number and type — over the caller's config fingerprint,
    // so a judgment replays only under an identical interface. Computed
    // before the arena lock below: fingerprinting resolves annotation
    // types through the store's arena handle.
    let (memo, seed) = match memo {
        None => (None, 0),
        Some((cache, config)) => {
            let fps = node_fingerprints(store, root, free);
            let mut seed = config;
            for (v, t) in free {
                let canon = fps.canon(*v).expect("free variable is canonicalized");
                seed = scope_extend(seed, canon, hash_ty_tree(t));
            }
            let memo = Memo {
                cache,
                fps,
                ty_fps: HashMap::new(),
                fns_start: HashMap::new(),
                recomputed: 0,
            };
            (Some(memo), seed)
        }
    };
    // The whole pass holds the arena lock once instead of locking per
    // query; nothing below may call back through the `CoreArena` handle.
    let mut arena = store.tys().inner();
    let rnd_grade_id = arena.intern_grade(sig.rnd_grade());
    let zero_grade_id = arena.intern_grade(&Grade::zero());
    let var_tys = free.iter().map(|(v, t)| (*v, arena.intern(t))).collect();
    let mut w = Walker {
        store,
        sig,
        arena,
        var_tys,
        results: HashMap::new(),
        remaining: count_parent_edges(store),
        reports: Vec::new(),
        ops: HashMap::new(),
        rnd_grade_id,
        zero_grade_id,
        memo,
        rules: R::default(),
    };
    w.run(root, seed)?;
    let counts = match &w.memo {
        None => JudgmentCounts::default(),
        Some(m) => {
            let total = m.fps.reachable() as u64;
            JudgmentCounts {
                reused: total.saturating_sub(m.recomputed),
                recomputed: m.recomputed,
                total,
            }
        }
    };
    let root_j = w.results.remove(&root).expect("root judged");
    let ty = w.arena.resolve(R::ty(&root_j));
    Ok((R::output(store, root_j, ty, w.reports), counts))
}

/// How many parent edges reference each node, across the whole store.
///
/// Results are dropped once every referencing parent has consumed them, so
/// peak memory tracks the live frontier on trees while node *sharing*
/// (which hash-consing and small-step substitution both create) still
/// works: a shared child's result survives until its last parent takes it.
fn count_parent_edges(store: &TermStore) -> Vec<u32> {
    let mut uses = vec![0u32; store.len()];
    let mut bump = |t: TermId| uses[t.0 as usize] = uses[t.0 as usize].saturating_add(1);
    for i in 0..store.len() {
        match store.node(TermId(i as u32)) {
            Node::Var(_) | Node::UnitVal | Node::Const(_) | Node::Err(..) => {}
            Node::PairW(a, b) | Node::PairT(a, b) | Node::App(a, b) => {
                bump(*a);
                bump(*b);
            }
            Node::Inl(v, _)
            | Node::Inr(v, _)
            | Node::BoxIntro(_, v)
            | Node::Rnd(v)
            | Node::Ret(v)
            | Node::Proj(_, v)
            | Node::Op(_, v) => bump(*v),
            Node::Lam(_, _, body) => bump(*body),
            Node::LetTensor(_, _, v, e)
            | Node::LetBox(_, v, e)
            | Node::LetBind(_, v, e)
            | Node::Let(_, v, e)
            | Node::LetFun(_, _, v, e) => {
                bump(*v);
                bump(*e);
            }
            Node::Case(v, _, e1, _, e2) => {
                bump(*v);
                bump(*e1);
                bump(*e2);
            }
        }
    }
    uses
}

/// The state of one pass: what every rule set reads, plus its own
/// (`rules`).
pub(crate) struct Walker<'a, R: Rules> {
    pub(crate) store: &'a TermStore,
    pub(crate) sig: &'a Signature,
    /// The arena table, locked once for the whole pass.
    pub(crate) arena: MutexGuard<'a, ArenaInner>,
    var_tys: HashMap<VarId, TyId>,
    results: HashMap<TermId, R::Judgment>,
    /// Outstanding parent edges per node (see [`count_parent_edges`]).
    remaining: Vec<u32>,
    /// Function reports in emission (source) order.
    pub(crate) reports: Vec<R::Report>,
    /// Signature entries interned on first use, keyed by op index.
    ops: HashMap<u32, (TyId, TyId)>,
    pub(crate) rnd_grade_id: GradeId,
    pub(crate) zero_grade_id: GradeId,
    /// Judgment memoization state (memoized passes only).
    pub(crate) memo: Option<Memo<'a>>,
    /// The rule set's own state.
    pub(crate) rules: R,
}

/// Per-pass memoization state: the shared judgment table plus this
/// store's node fingerprints and canonical-variable translation.
pub(crate) struct Memo<'a> {
    cache: &'a mut JudgmentCache,
    pub(crate) fps: NodeFingerprints,
    /// `hash_ty_tree` of resolved types, memoized by interned id.
    ty_fps: HashMap<TyId, u128>,
    /// Where each in-flight (cache-missed) node's window into the reports
    /// starts; presence gates memoization in [`Walker::done`].
    fns_start: HashMap<TermId, usize>,
    /// Judgments computed by this pass (cache misses and leaves).
    recomputed: u64,
}

#[derive(Clone, Copy)]
struct Frame {
    id: TermId,
    stage: u8,
    /// Scope-chain fingerprint the node is checked under (0 when not
    /// memoizing).
    scope: u64,
}

impl<'a, R: Rules> Walker<'a, R> {
    /// The type of a variable in scope.
    pub(crate) fn var_ty(&self, v: VarId) -> Result<TyId, CheckError> {
        self.var_tys.get(&v).copied().ok_or_else(|| CheckError::UnboundVar(self.name(v)))
    }

    /// A variable's source name (for reports and errors).
    pub(crate) fn name(&self, v: VarId) -> String {
        self.store.var_name(v).to_string()
    }

    /// Resolves an interned type for a report or an error message.
    pub(crate) fn show(&self, ty: TyId) -> Ty {
        self.arena.resolve(ty)
    }

    /// The wrong-shape error for a term of type `found`.
    pub(crate) fn expected(&self, what: &'static str, found: TyId) -> CheckError {
        CheckError::Expected { what, found: self.show(found) }
    }

    /// The interned `(arg, ret)` pair of a signature operation.
    pub(crate) fn op_sig(&mut self, op_idx: u32) -> Result<(TyId, TyId), CheckError> {
        if let Some(&entry) = self.ops.get(&op_idx) {
            return Ok(entry);
        }
        let name = self.store.op_name(op_idx);
        let op = self.sig.op(name).ok_or_else(|| CheckError::UnknownOp(name.to_string()))?;
        let entry = (self.arena.intern(&op.arg), self.arena.intern(&op.ret));
        self.ops.insert(op_idx, entry);
        Ok(entry)
    }

    /// Consumes one parent edge's view of a judged child; the stored
    /// judgment is freed when the last edge has consumed it.
    pub(crate) fn take(&mut self, id: TermId) -> R::Judgment {
        let slot = &mut self.remaining[id.0 as usize];
        let j = if *slot > 1 {
            *slot -= 1;
            self.results.get(&id).cloned()
        } else {
            *slot = 0;
            self.results.remove(&id)
        };
        j.expect("child judged")
    }

    /// A judged child's judgment, without consuming it.
    pub(crate) fn judged(&self, id: TermId) -> &R::Judgment {
        self.results.get(&id).expect("child judged")
    }

    /// Records a node's judgment, memoizing it if the node cache-missed.
    fn done(&mut self, id: TermId, j: R::Judgment, scope: u64) {
        self.memoize(id, &j, scope);
        self.results.insert(id, j);
    }

    /// Memoizes a freshly computed judgment, if this node cache-missed at
    /// stage 0 (leaves never register and are never memoized — they are
    /// cheaper to recompute than to look up).
    fn memoize(&mut self, id: TermId, j: &R::Judgment, scope: u64) {
        let Some(memo) = self.memo.as_mut() else { return };
        let Some(start) = memo.fns_start.remove(&id) else { return };
        let Some(node_fp) = memo.fps.node(id) else { return };
        if let Some(entry) = R::entry(j, &memo.fps, &self.arena, &self.reports[start..]) {
            memo.cache.insert(node_fp, scope, entry);
        }
    }

    /// Attempts to replay a memoized judgment for `id` under `scope`.
    /// Returns `true` on a hit (judgment installed, subtree skipped). On a
    /// miss, registers the node's report window and counts the upcoming
    /// computation.
    fn try_replay(&mut self, id: TermId, scope: u64) -> bool {
        let Some(memo) = self.memo.as_mut() else { return false };
        if matches!(
            self.store.node(id),
            Node::Var(_) | Node::UnitVal | Node::Const(_) | Node::Err(..)
        ) {
            memo.recomputed += 1;
            return false;
        }
        let Some(node_fp) = memo.fps.node(id) else {
            memo.recomputed += 1;
            return false;
        };
        if let Some(entry) = memo.cache.get(node_fp, scope) {
            let replayed =
                R::replay(&entry, &memo.fps, self.store, &mut self.arena, &mut self.reports);
            if let Some(j) = replayed {
                self.results.insert(id, j);
                return true;
            }
        }
        memo.fns_start.insert(id, self.reports.len());
        memo.recomputed += 1;
        false
    }

    /// The scope-chain fingerprint for a child checked under one more
    /// binder `x : ty` (0 when not memoizing).
    pub(crate) fn scope_child(&mut self, parent: u64, x: VarId, ty: TyId) -> u64 {
        let Some(memo) = self.memo.as_mut() else { return 0 };
        let Some(canon) = memo.fps.canon(x) else { return parent };
        let ty_fp = match memo.ty_fps.get(&ty) {
            Some(&fp) => fp,
            None => {
                let fp = hash_ty_tree(&self.arena.resolve(ty));
                memo.ty_fps.insert(ty, fp);
                fp
            }
        };
        scope_extend(parent, canon, ty_fp)
    }

    /// Brings the binder `x : ty` into scope and returns the scope chain
    /// under it.
    fn introduce(&mut self, scope: u64, x: VarId, ty: TyId) -> u64 {
        self.var_tys.insert(x, ty);
        self.scope_child(scope, x, ty)
    }

    fn run(&mut self, root: TermId, seed: u64) -> Result<(), CheckError> {
        let mut stack = vec![Frame { id: root, stage: 0, scope: seed }];
        while let Some(Frame { id, stage, scope }) = stack.pop() {
            let node = *self.store.node(id);
            if stage == 0 {
                if self.results.contains_key(&id) || self.try_replay(id, scope) {
                    continue;
                }
                R::enter(node)?;
            }
            match (node, stage) {
                // ----- one child first, under the node's own scope -----
                (
                    Node::Inl(v, _)
                    | Node::Inr(v, _)
                    | Node::BoxIntro(_, v)
                    | Node::Rnd(v)
                    | Node::Ret(v)
                    | Node::Proj(_, v)
                    | Node::Op(_, v)
                    | Node::LetTensor(_, _, v, _)
                    | Node::Case(v, ..)
                    | Node::LetBox(_, v, _)
                    | Node::LetBind(_, v, _)
                    | Node::Let(_, v, _)
                    | Node::LetFun(_, _, v, _),
                    0,
                ) => {
                    stack.push(Frame { id, stage: 1, scope });
                    stack.push(Frame { id: v, stage: 0, scope });
                }
                // ----- pairs and application: two independent children -----
                (Node::PairW(a, b) | Node::PairT(a, b) | Node::App(a, b), 0) => {
                    stack.push(Frame { id, stage: 1, scope });
                    stack.push(Frame { id: a, stage: 0, scope });
                    stack.push(Frame { id: b, stage: 0, scope });
                }
                // ----- λ: bring the parameter into scope, then the body -----
                (Node::Lam(x, ty, body), 0) => {
                    let inner = self.introduce(scope, x, ty);
                    stack.push(Frame { id, stage: 1, scope });
                    stack.push(Frame { id: body, stage: 0, scope: inner });
                }

                // ----- binders typed by the scrutinee's shape -----
                (Node::LetTensor(x, y, v, e), 1) => {
                    let ty = R::ty(self.judged(v));
                    let TyNode::Tensor(a, b) = self.arena.node(ty) else {
                        return Err(self.expected("a tensor pair", ty));
                    };
                    let inner = self.introduce(scope, x, a);
                    let inner = self.introduce(inner, y, b);
                    stack.push(Frame { id, stage: 2, scope });
                    stack.push(Frame { id: e, stage: 0, scope: inner });
                }
                (Node::Case(v, x, e1, y, e2), 1) => {
                    let ty = R::ty(self.judged(v));
                    let TyNode::Sum(a, b) = self.arena.node(ty) else {
                        return Err(self.expected("a sum", ty));
                    };
                    let left = self.introduce(scope, x, a);
                    let right = self.introduce(scope, y, b);
                    stack.push(Frame { id, stage: 2, scope });
                    stack.push(Frame { id: e1, stage: 0, scope: left });
                    stack.push(Frame { id: e2, stage: 0, scope: right });
                }
                (Node::LetBox(x, v, e), 1) => {
                    let ty = R::ty(self.judged(v));
                    let TyNode::Bang(_, inner_ty) = self.arena.node(ty) else {
                        return Err(self.expected("a boxed value", ty));
                    };
                    let inner = self.introduce(scope, x, inner_ty);
                    stack.push(Frame { id, stage: 2, scope });
                    stack.push(Frame { id: e, stage: 0, scope: inner });
                }
                (Node::LetBind(x, v, f), 1) => {
                    let ty = R::ty(self.judged(v));
                    let TyNode::Monad(_, inner_ty) = self.arena.node(ty) else {
                        return Err(self.expected("a monadic computation", ty));
                    };
                    let inner = self.introduce(scope, x, inner_ty);
                    stack.push(Frame { id, stage: 2, scope });
                    stack.push(Frame { id: f, stage: 0, scope: inner });
                }
                // ----- binders typed by the bound term: the rule set's hook -----
                (Node::Let(x, e, f) | Node::LetFun(x, _, e, f), 1) => {
                    let inferred = R::ty(self.judged(e));
                    let assigned = match node {
                        Node::LetFun(_, Some(declared), ..) => {
                            if !self.arena.subtype(inferred, declared) {
                                return Err(CheckError::DeclaredMismatch {
                                    name: self.name(x),
                                    declared: self.show(declared),
                                    inferred: self.show(inferred),
                                });
                            }
                            declared
                        }
                        _ => inferred,
                    };
                    self.var_tys.insert(x, assigned);
                    let fun = matches!(node, Node::LetFun(..));
                    let inner = R::bind(self, x, e, assigned, fun, scope);
                    stack.push(Frame { id, stage: 2, scope });
                    stack.push(Frame { id: f, stage: 0, scope: inner });
                }

                // ----- leaves, and every other node once its children are judged -----
                _ => {
                    let j = R::rule(self, node)?;
                    self.done(id, j, scope);
                }
            }
        }
        Ok(())
    }
}
