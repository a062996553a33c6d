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
//! * per-node and per-variable state in vectors indexed by [`TermId`] and
//!   [`VarId`] (the [`Results`] slab, variable types, where each memoized
//!   node's report window starts): both ids are dense and local to the
//!   store, so no pass state is hashed; only tables keyed by the
//!   session-wide arena's [`TyId`]s are;
//! * binder introduction: `λ` parameters, and the binders of `let (x, y)`,
//!   `case`, `let [x]` and `let x = v` from the scrutinee's `⊗`/`+`/`!`/`M`
//!   shape;
//! * the memo protocol ([`crate::cache`]): a stage-0 replay of each
//!   non-leaf node under its scope chain, the window of function reports
//!   each cache-missed node emits, and memoization when it completes —
//!   the entries reach the cache when the pass ends, sharing one frozen
//!   log of the pass's reports.
//!
//! A [`Rules`] set supplies the rest: its judgment and report types, a
//! stage-0 hook that can reject a construct before its children are
//! visited, each node's own rule once its children are judged, the
//! `Let`/`LetFun` binder hook, and the translation between a judgment (or
//! a report) and its store-independent [`JudgmentEntry`] form. The walker
//! is generic over the rule set (static dispatch) and never asks which one
//! it runs.
//!
//! Types flow through the pass as interned [`TyId`]s of the store's
//! [`crate::CoreArena`]; a `Ty` tree is built only at the public boundary
//! (results, reports, memo entries and error messages).

use crate::arena::{ArenaInner, GradeId, TyId, TyNode};
use crate::cache::{
    hash_ty_tree, node_fingerprints, scope_extend, CacheWeight, JudgmentCache, JudgmentCounts,
    JudgmentEntry, NodeFingerprints, ReportLog, ReportWindow,
};
use crate::grade::Grade;
use crate::intern::SeededMap;
use crate::sig::Signature;
use crate::term::{grow_to, Node, TermId, TermStore, VarId};
use crate::ty::Ty;
use std::fmt;
use std::ops::Range;
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
    /// A report's store-independent form, as memo entries keep it.
    type Canon: CacheWeight;
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

    /// The store-independent memo entry for a judgment, with an empty
    /// report window ([`Rules::attach`] fills it when the pass ends), or
    /// `None` when some part of it does not canonicalize (the node then
    /// goes unmemoized).
    fn entry(
        j: &Self::Judgment,
        fps: &NodeFingerprints,
        arena: &ArenaInner,
    ) -> Option<JudgmentEntry>;

    /// A report's store-independent form, or `None` when it does not
    /// canonicalize (no report window of the pass is then memoized).
    fn canon(report: &Self::Report) -> Option<Self::Canon>;

    /// Gives a memo entry the window of reports its subtree emitted.
    fn attach(entry: &mut JudgmentEntry, fns: ReportWindow<Self::Canon>);

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
                ty_fps: SeededMap::default(),
                fns_start: vec![NOT_IN_FLIGHT; store.len()],
                pending: Vec::new(),
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
    let mut w = Walker {
        store,
        sig,
        arena,
        var_tys: vec![None; store.num_vars()],
        results: Results::new(count_parent_edges(store)),
        reports: Vec::new(),
        ops: Vec::new(),
        rnd_grade_id,
        zero_grade_id,
        memo,
        rules: R::default(),
    };
    for (v, t) in free {
        let ty = w.arena.intern(t);
        w.set_var_ty(*v, ty);
    }
    // A failed pass still memoizes the subtrees it judged.
    let run = w.run(root, seed);
    w.flush();
    run?;
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
    let root_j = w.results.remove(root).expect("root judged");
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

/// Judged nodes' judgments, each held until its last parent edge has
/// consumed it (see [`count_parent_edges`]).
///
/// A judgment lives in a slot of one vector, and a consumed node's slot
/// goes on a free list for the next judgment: memory follows the live
/// frontier, as it would in a map keyed by node, not the store size,
/// while each lookup is two indexings instead of a hash.
struct Results<J> {
    /// Per node, by [`TermId`].
    nodes: Vec<NodeState>,
    slots: Vec<Option<J>>,
    /// Slots whose judgment was consumed.
    free: Vec<u32>,
}

#[derive(Clone, Copy)]
struct NodeState {
    /// Outstanding parent edges.
    remaining: u32,
    /// The node's slot, or [`NO_SLOT`] while it holds no judgment.
    slot: u32,
}

const NO_SLOT: u32 = u32::MAX;

impl<J: Clone> Results<J> {
    /// An empty table for nodes with `edges[i]` parent edges each.
    fn new(edges: Vec<u32>) -> Self {
        let nodes = edges.into_iter().map(|remaining| NodeState { remaining, slot: NO_SLOT });
        Results { nodes: nodes.collect(), slots: Vec::new(), free: Vec::new() }
    }

    fn contains(&self, id: TermId) -> bool {
        self.nodes[id.0 as usize].slot != NO_SLOT
    }

    fn get(&self, id: TermId) -> Option<&J> {
        match self.nodes[id.0 as usize].slot {
            NO_SLOT => None,
            slot => self.slots[slot as usize].as_ref(),
        }
    }

    /// Stores a node's judgment, in a freed slot if there is one.
    fn insert(&mut self, id: TermId, j: J) {
        let node = &mut self.nodes[id.0 as usize];
        if node.slot == NO_SLOT {
            node.slot = self.free.pop().unwrap_or_else(|| {
                self.slots.push(None);
                (self.slots.len() - 1) as u32
            });
        }
        self.slots[node.slot as usize] = Some(j);
    }

    /// Removes a node's judgment and frees its slot.
    fn remove(&mut self, id: TermId) -> Option<J> {
        let slot = std::mem::replace(&mut self.nodes[id.0 as usize].slot, NO_SLOT);
        if slot == NO_SLOT {
            return None;
        }
        self.free.push(slot);
        self.slots[slot as usize].take()
    }

    /// Consumes one parent edge's view of a judged node: a clone while
    /// other edges remain, the judgment itself at the last one.
    fn take(&mut self, id: TermId) -> Option<J> {
        let node = &mut self.nodes[id.0 as usize];
        if node.remaining > 1 {
            node.remaining -= 1;
            self.get(id).cloned()
        } else {
            node.remaining = 0;
            self.remove(id)
        }
    }
}

/// The state of one pass: what every rule set reads, plus its own
/// (`rules`).
pub(crate) struct Walker<'a, R: Rules> {
    pub(crate) store: &'a TermStore,
    pub(crate) sig: &'a Signature,
    /// The arena table, locked once for the whole pass.
    pub(crate) arena: MutexGuard<'a, ArenaInner>,
    /// Each variable's type, by [`VarId`], once its binder is in scope.
    var_tys: Vec<Option<TyId>>,
    results: Results<R::Judgment>,
    /// Function reports in emission (source) order.
    pub(crate) reports: Vec<R::Report>,
    /// Signature entries interned on first use, by op index.
    ops: Vec<Option<(TyId, TyId)>>,
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
    ty_fps: SeededMap<TyId, u128>,
    /// Per node, by [`TermId`]: where its window into the reports starts
    /// while it is in flight (cache-missed, not yet judged), else
    /// [`NOT_IN_FLIGHT`]; only in-flight nodes are memoized in
    /// [`Walker::done`].
    fns_start: Vec<u32>,
    /// Entries memoized by this pass, inserted when it ends.
    pending: Vec<Pending>,
    /// Judgments computed by this pass (cache misses and leaves).
    recomputed: u64,
}

const NOT_IN_FLIGHT: u32 = u32::MAX;

/// A memo entry waiting for the end of its pass: the reports its subtree
/// emitted are a range of the pass's reports, frozen into the log every
/// entry of the pass shares only once the pass is over.
struct Pending {
    node: u128,
    scope: u64,
    entry: JudgmentEntry,
    fns: Range<usize>,
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
        let ty = self.var_tys.get(v.0 as usize).copied().flatten();
        ty.ok_or_else(|| CheckError::UnboundVar(self.name(v)))
    }

    fn set_var_ty(&mut self, v: VarId, ty: TyId) {
        *grow_to(&mut self.var_tys, v.0 as usize, None) = Some(ty);
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
        if let Some(&Some(entry)) = self.ops.get(op_idx as usize) {
            return Ok(entry);
        }
        let name = self.store.op_name(op_idx);
        let op = self.sig.op(name).ok_or_else(|| CheckError::UnknownOp(name.to_string()))?;
        let entry = (self.arena.intern(&op.arg), self.arena.intern(&op.ret));
        *grow_to(&mut self.ops, op_idx as usize, None) = Some(entry);
        Ok(entry)
    }

    /// Consumes one parent edge's view of a judged child; the stored
    /// judgment is freed when the last edge has consumed it.
    pub(crate) fn take(&mut self, id: TermId) -> R::Judgment {
        self.results.take(id).expect("child judged")
    }

    /// A judged child's judgment, without consuming it.
    pub(crate) fn judged(&self, id: TermId) -> &R::Judgment {
        self.results.get(id).expect("child judged")
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
        let start = std::mem::replace(&mut memo.fns_start[id.0 as usize], NOT_IN_FLIGHT);
        if start == NOT_IN_FLIGHT {
            return;
        }
        let Some(node) = memo.fps.node(id) else { return };
        if let Some(entry) = R::entry(j, &memo.fps, &self.arena) {
            let fns = start as usize..self.reports.len();
            memo.pending.push(Pending { node, scope, entry, fns });
        }
    }

    /// Inserts the entries this pass memoized, in the order their nodes
    /// were judged, each with its window into the pass's reports — frozen
    /// now into the one log they share.
    fn flush(&mut self) {
        let Some(memo) = self.memo.as_mut() else { return };
        if memo.pending.is_empty() {
            return;
        }
        let log = ReportLog::freeze(self.reports.iter().map(R::canon));
        for Pending { node, scope, mut entry, fns } in memo.pending.drain(..) {
            if !fns.is_empty() {
                // A report that did not canonicalize leaves every window
                // unmemoized.
                let Some(log) = &log else { continue };
                R::attach(&mut entry, ReportWindow::new(log, fns));
            }
            memo.cache.insert(node, scope, entry);
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
        memo.fns_start[id.0 as usize] = self.reports.len() as u32;
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
        self.set_var_ty(x, ty);
        self.scope_child(scope, x, ty)
    }

    fn run(&mut self, root: TermId, seed: u64) -> Result<(), CheckError> {
        let mut stack = vec![Frame { id: root, stage: 0, scope: seed }];
        while let Some(Frame { id, stage, scope }) = stack.pop() {
            let node = *self.store.node(id);
            if stage == 0 {
                if self.results.contains(id) || self.try_replay(id, scope) {
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
                    self.set_var_ty(x, assigned);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: u32) -> TermId {
        TermId(i)
    }

    #[test]
    fn last_parent_edge_frees_the_slot_for_the_next_judgment() {
        // Node 0 has one parent edge, node 1 one.
        let mut results = Results::new(vec![1, 1]);
        results.insert(id(0), "a".to_string());
        assert_eq!(results.take(id(0)).as_deref(), Some("a"));
        assert!(!results.contains(id(0)), "consumed by its only parent");
        results.insert(id(1), "b".to_string());
        assert_eq!(results.slots.len(), 1, "node 1 reuses node 0's slot");
        assert_eq!(results.get(id(1)).map(String::as_str), Some("b"));
    }

    #[test]
    fn shared_child_is_cloned_until_its_last_parent_takes_it() {
        let mut results = Results::new(vec![3]);
        results.insert(id(0), "shared".to_string());
        assert_eq!(results.take(id(0)).as_deref(), Some("shared"));
        assert_eq!(results.take(id(0)).as_deref(), Some("shared"));
        assert!(results.contains(id(0)), "one parent edge outstanding");
        assert_eq!(results.take(id(0)).as_deref(), Some("shared"));
        assert!(!results.contains(id(0)));
        assert_eq!(results.free, [0]);
    }

    #[test]
    fn freed_node_can_be_judged_again() {
        let mut results = Results::new(vec![1, 0]);
        results.insert(id(0), "first".to_string());
        results.insert(id(1), "root".to_string());
        assert_eq!(results.take(id(0)).as_deref(), Some("first"));
        assert!(results.get(id(0)).is_none());
        results.insert(id(0), "again".to_string());
        assert_eq!(results.slots.len(), 2, "the freed slot is reused");
        assert_eq!(results.take(id(0)).as_deref(), Some("again"));
        assert_eq!(results.remove(id(1)).as_deref(), Some("root"));
        assert!(results.remove(id(1)).is_none());
    }
}
