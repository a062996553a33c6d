//! Backward-error inference: the **Bean** judgment as a second analysis
//! mode over the shared hash-consed IR.
//!
//! Where [`crate::infer`] types *forward* error — one bound on how far the
//! output of the floating-point run drifts from the ideal one — this pass
//! types *backward* error: for every linear input `x` it produces a grade
//! `r` such that the computed result is the **exact** ideal result of a
//! perturbed input `x̃` with `d(x, x̃) ≤ r` (Bean's soundness statement,
//! the classic "the computed answer is the true answer to a nearby
//! question"). The semantic model is a backward error *lens*: a forward
//! floating-point pass plus a demand-pulling pass that constructs the
//! witness `x̃`; `numfuzz_fuzz`'s reference lens evaluator realises it and
//! differentially validates this checker.
//!
//! The judgment context maps each variable to a [`Coeffect`] `(err,
//! absorb)`: the backward error already attributed to the input and the
//! amplification future demands pick up on the way back to it (the
//! inverse of the forward sensitivity along the consumption path — e.g.
//! `sqrt` halves forward error, so a demand on its output *doubles* on
//! the way in). Each `rnd` charges every variable of its context
//! `absorb · ε`; composition (`x = e; …`) replays the binder's
//! accumulated demand onto the producer's context.
//!
//! Bean's discipline is **strictly linear** and first-order, which this
//! pass enforces with dedicated errors (surfaced as the facade's `E05xx`
//! diagnostics):
//!
//! * every non-unit binder must be consumed ([`BackwardError::UnusedLinear`]),
//! * no variable may be consumed twice — general contraction is exactly
//!   what backward error cannot cross ([`BackwardError::DuplicatedUse`]),
//! * `case` branches must consume the same context
//!   ([`BackwardError::BranchSupport`]),
//! * constructs with no backward reading are rejected
//!   ([`BackwardError::Incompatible`]): `!`-introduction/elimination,
//!   Cartesian projections, first-class function values, `err`,
//! * rounding error must land on *some* linear input — `rnd` over
//!   constants has nowhere to push its error ([`BackwardError::NoCarrier`]).
//!
//! Top-level `function`s are Bean's non-linear (duplicable) context: a
//! function *name* is not a tracked resource, but its captured linear
//! variables travel with every use, so a twice-called closure over a
//! linear variable still reports a duplicated use.

use crate::arena::{ArenaInner, GradeId, TyId, TyNode, NUM_ID as NUM, UNIT_ID as UNIT};
use crate::cache::{
    hash_ty_tree, node_fingerprints, scope_extend, BackwardFnEntry, BackwardJudgment,
    BackwardParamEntry, JudgmentCache, JudgmentCounts, JudgmentEntry, NodeFingerprints,
    StableHasher,
};
use crate::check::count_parent_edges;
use crate::env::BackwardEnv;
use crate::grade::{Coeffect, Grade};
use crate::sig::Signature;
use crate::term::{Node, TermId, TermStore, VarId};
use crate::ty::Ty;
use std::collections::HashMap;
use std::fmt;
use std::sync::MutexGuard;

/// The backward judgment for the root term: one error bound per consumed
/// input, plus the (forward-compatible) type.
#[derive(Clone, Debug)]
pub struct BackwardInferred {
    /// Per-input backward error bounds, in binding order: the computed
    /// result is the exact ideal result of inputs perturbed within these
    /// distances.
    pub inputs: Vec<(String, Grade)>,
    /// The term's type (identical shapes to forward inference).
    pub ty: Ty,
}

/// Backward report for one top-level `function` definition.
#[derive(Clone, Debug)]
pub struct BackwardFnReport {
    /// The function's name.
    pub name: String,
    /// The type assigned in the context (declaration if present).
    pub assigned: Ty,
    /// Per-parameter backward error bounds, in parameter order
    /// (unit-typed parameters are omitted — there is nothing to perturb).
    pub inputs: Vec<(String, Grade)>,
}

/// Result of backward-checking a whole program term.
#[derive(Clone, Debug)]
pub struct BackwardResult {
    /// Judgment for the root term.
    pub root: BackwardInferred,
    /// One report per `function` definition, in source order.
    pub fns: Vec<BackwardFnReport>,
}

impl BackwardResult {
    /// Looks up a function report by name (the last definition wins).
    pub fn fn_report(&self, name: &str) -> Option<&BackwardFnReport> {
        self.fns.iter().rev().find(|f| f.name == name)
    }
}

/// Backward-checking errors. The first block mirrors [`crate::CheckError`]
/// (shape errors exist in both modes); the second is Bean's linearity and
/// first-order discipline.
#[derive(Clone, Debug, PartialEq)]
pub enum BackwardError {
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
    /// A grade product of two symbolic quantities arose.
    NonlinearGrade,
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
    /// A linear binder is never consumed (weakening, which Bean forbids
    /// on data).
    UnusedLinear {
        /// The binder's name.
        var: String,
    },
    /// A linear variable is consumed more than once (general contraction).
    DuplicatedUse {
        /// The variable's name.
        var: String,
    },
    /// A construct with no backward-error interpretation.
    Incompatible {
        /// Which construct (human-readable).
        construct: &'static str,
    },
    /// Rounding error (or a replayed demand) arises over a context with
    /// no linear variable to carry it back.
    NoCarrier {
        /// The syntactic site (`rnd`, `application`, …).
        site: &'static str,
    },
    /// `case` branches consume different sets of linear variables.
    BranchSupport {
        /// A variable consumed by only one branch.
        var: String,
    },
}

impl fmt::Display for BackwardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackwardError::UnboundVar(x) => write!(f, "unbound variable `{x}`"),
            BackwardError::UnknownOp(op) => write!(f, "unknown operation `{op}`"),
            BackwardError::Expected { what, found } => {
                write!(f, "expected {what}, found `{found}`")
            }
            BackwardError::ArgMismatch { expected, found } => {
                write!(f, "argument type `{found}` is not a subtype of `{expected}`")
            }
            BackwardError::OpArgMismatch { op, expected, found } => {
                write!(f, "operation `{op}` expects `{expected}`, got `{found}`")
            }
            BackwardError::NonlinearGrade => {
                write!(f, "a product of two symbolic grades arose; annotate with constants")
            }
            BackwardError::BranchTypeMismatch { left, right } => {
                write!(f, "case branches have incompatible types `{left}` and `{right}`")
            }
            BackwardError::DeclaredMismatch { name, declared, inferred } => write!(
                f,
                "function `{name}`: inferred type `{inferred}` is not a subtype of declared `{declared}`"
            ),
            BackwardError::UnusedLinear { var } => {
                write!(f, "linear variable `{var}` is never consumed")
            }
            BackwardError::DuplicatedUse { var } => {
                write!(f, "linear variable `{var}` is consumed more than once")
            }
            BackwardError::Incompatible { construct } => {
                write!(f, "{construct} has no backward-error interpretation")
            }
            BackwardError::NoCarrier { site } => write!(
                f,
                "rounding error at {site} has no linear variable to flow back to"
            ),
            BackwardError::BranchSupport { var } => {
                write!(f, "`{var}` is consumed by only one case branch")
            }
        }
    }
}

impl std::error::Error for BackwardError {}

/// Infers per-input backward error bounds for `root`, with `free` giving
/// types for free variables.
///
/// # Errors
///
/// Any [`BackwardError`]; the pass is complete for the algorithmic system,
/// so an error means the term lies outside Bean's backward-typable
/// fragment (or is ill-shaped).
pub fn infer_backward(
    store: &TermStore,
    sig: &Signature,
    root: TermId,
    free: &[(VarId, Ty)],
) -> Result<BackwardResult, BackwardError> {
    infer_backward_pass(store, sig, root, free, None).map(|(result, _)| result)
}

/// [`infer_backward`], with subterm-level judgment memoization against
/// `cache` — the backward twin of [`crate::infer_memoized`], with the
/// same key discipline, the same soundness contract (`config` must
/// fingerprint mode and signature), and the same byte-identity guarantee
/// against the unmemoized pass.
///
/// # Errors
///
/// Exactly as [`infer_backward`]; failed passes memoize nothing new
/// beyond their successfully checked subtrees.
pub fn infer_backward_memoized(
    store: &TermStore,
    sig: &Signature,
    root: TermId,
    free: &[(VarId, Ty)],
    cache: &mut JudgmentCache,
    config: u64,
) -> Result<(BackwardResult, JudgmentCounts), BackwardError> {
    infer_backward_pass(store, sig, root, free, Some((cache, config)))
}

fn infer_backward_pass(
    store: &TermStore,
    sig: &Signature,
    root: TermId,
    free: &[(VarId, Ty)],
    memo_cfg: Option<(&mut JudgmentCache, u64)>,
) -> Result<(BackwardResult, JudgmentCounts), BackwardError> {
    // Fingerprint before taking the arena lock: fingerprinting resolves
    // annotation types through the store's arena handle.
    let (memo, seed) = match memo_cfg {
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
                fns_canon: Vec::new(),
                recomputed: 0,
            };
            (Some(memo), seed)
        }
    };
    let mut arena = store.tys().inner();
    let rnd_grade_id = arena.intern_grade(sig.rnd_grade());
    let zero_grade_id = arena.intern_grade(&Grade::zero());
    let var_tys = free.iter().map(|(v, t)| (*v, arena.intern(t))).collect();
    let mut ck = BackwardChecker {
        store,
        sig,
        var_tys,
        fn_sigs: HashMap::new(),
        results: HashMap::new(),
        remaining: count_parent_edges(store),
        fns: Vec::new(),
        ops: HashMap::new(),
        rnd_grade_id,
        zero_grade_id,
        arena,
        memo,
    };
    ck.run(root, seed)?;
    let counts = match &ck.memo {
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
    let root_res = ck.results.remove(&root).expect("root inferred");
    let inputs =
        root_res.env.iter().map(|(v, c)| (store.var_name(*v).to_string(), c.err.clone())).collect();
    Ok((
        BackwardResult {
            root: BackwardInferred { inputs, ty: ck.arena.resolve(root_res.ty) },
            fns: ck.fns,
        },
        counts,
    ))
}

/// One parameter of a function value: its binder, whether it carries data
/// (non-unit), and the demand its consumption places on an argument.
#[derive(Clone, Debug)]
struct BParam {
    var: VarId,
    named: bool,
    demand: Coeffect,
}

/// The backward "function info" of a value: the still-unapplied parameters
/// in application order. Present exactly for (possibly partially applied)
/// top-level functions and aliases of them — Bean's duplicable context.
#[derive(Clone, Debug)]
struct BFun {
    params: Vec<BParam>,
}

/// The per-subterm backward judgment.
#[derive(Clone, Debug)]
struct BJudgment {
    env: BackwardEnv,
    ty: TyId,
    fun: Option<BFun>,
}

struct BackwardChecker<'a> {
    store: &'a TermStore,
    sig: &'a Signature,
    arena: MutexGuard<'a, ArenaInner>,
    var_tys: HashMap<VarId, TyId>,
    /// Function-bound variables (Bean's duplicable context): their
    /// captured linear context and parameter demands, replayed at every
    /// use site.
    fn_sigs: HashMap<VarId, (BackwardEnv, Option<BFun>)>,
    results: HashMap<TermId, BJudgment>,
    remaining: Vec<u32>,
    fns: Vec<BackwardFnReport>,
    ops: HashMap<u32, (TyId, TyId)>,
    rnd_grade_id: GradeId,
    zero_grade_id: GradeId,
    /// Judgment memoization state ([`infer_backward_memoized`] only).
    memo: Option<Memo<'a>>,
}

/// Per-pass memoization state (the backward twin of the forward
/// checker's). Function reports need one extra structure: their
/// parameter *names* are presentation (lambda binder names are not part
/// of the content fingerprint), so a canonical mirror of `fns` is kept
/// and memoized instead of the rendered reports.
struct Memo<'a> {
    cache: &'a mut JudgmentCache,
    fps: NodeFingerprints,
    /// `hash_ty_tree` of resolved types, memoized by interned id.
    ty_fps: HashMap<TyId, u128>,
    /// Where each in-flight (cache-missed) node's window into `fns` (and
    /// `fns_canon`, kept parallel) starts; presence gates memoization.
    fns_start: HashMap<TermId, usize>,
    /// Canonical mirror of `fns`; a `None` marks a report that could not
    /// be canonicalized, poisoning every window that contains it.
    fns_canon: Vec<Option<BackwardFnEntry>>,
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

/// Translates a memoized backward judgment into the replaying store's
/// variables; `None` on any canonical number the store cannot resolve
/// (a defensive miss).
fn translate_backward(
    fps: &NodeFingerprints,
    store: &TermStore,
    j: &BackwardJudgment,
) -> Option<(BackwardEnv, Option<BFun>, Vec<BackwardFnReport>)> {
    let mut entries = Vec::with_capacity(j.env.len());
    for (canon, c) in &j.env {
        entries.push((fps.var(*canon)?, c.clone()));
    }
    let fun = match &j.fun {
        None => None,
        Some(ps) => {
            let mut params = Vec::with_capacity(ps.len());
            for p in ps {
                params.push(BParam {
                    var: fps.var(p.var)?,
                    named: p.named,
                    demand: p.demand.clone(),
                });
            }
            Some(BFun { params })
        }
    };
    let mut reports = Vec::with_capacity(j.fns.len());
    for e in &j.fns {
        let mut inputs = Vec::with_capacity(e.inputs.len());
        for (canon, g) in &e.inputs {
            inputs.push((store.var_name(fps.var(*canon)?).to_string(), g.clone()));
        }
        reports.push(BackwardFnReport {
            name: e.name.clone(),
            assigned: e.assigned.clone(),
            inputs,
        });
    }
    Some((BackwardEnv::from_entries(entries), fun, reports))
}

/// Hashes a variable into a scope chain: by canonical number when
/// fingerprinted (stable across stores), by raw id otherwise (cannot
/// happen for program variables; still deterministic within one pass).
fn write_var(h: &mut StableHasher, fps: &NodeFingerprints, v: VarId) {
    match fps.canon(v) {
        Some(c) => {
            h.write_u8(1);
            h.write_u32(c);
        }
        None => {
            h.write_u8(2);
            h.write_u32(v.0);
        }
    }
}

impl<'a> BackwardChecker<'a> {
    fn var_ty(&self, v: VarId) -> Result<TyId, BackwardError> {
        self.var_tys
            .get(&v)
            .copied()
            .ok_or_else(|| BackwardError::UnboundVar(self.store.var_name(v).to_string()))
    }

    fn take(&mut self, id: TermId) -> Option<BJudgment> {
        let slot = &mut self.remaining[id.0 as usize];
        if *slot > 1 {
            *slot -= 1;
            self.results.get(&id).cloned()
        } else {
            *slot = 0;
            self.results.remove(&id)
        }
    }

    fn done(&mut self, id: TermId, env: BackwardEnv, ty: TyId, fun: Option<BFun>, scope: u64) {
        self.memoize(id, &env, ty, &fun, scope);
        self.results.insert(id, BJudgment { env, ty, fun });
    }

    /// Memoizes a freshly computed judgment, if this node cache-missed at
    /// stage 0 and every part of it canonicalizes.
    fn memoize(&mut self, id: TermId, env: &BackwardEnv, ty: TyId, fun: &Option<BFun>, scope: u64) {
        let Some(memo) = self.memo.as_mut() else { return };
        let Some(start) = memo.fns_start.remove(&id) else { return };
        let Some(node_fp) = memo.fps.node(id) else { return };
        let mut canon_env = Vec::with_capacity(env.len());
        for (v, c) in env.iter() {
            match memo.fps.canon(*v) {
                Some(n) => canon_env.push((n, c.clone())),
                None => return,
            }
        }
        canon_env.sort_by_key(|(n, _)| *n);
        let fun = match fun {
            None => None,
            Some(bf) => {
                let mut params = Vec::with_capacity(bf.params.len());
                for p in &bf.params {
                    match memo.fps.canon(p.var) {
                        Some(n) => params.push(BackwardParamEntry {
                            var: n,
                            named: p.named,
                            demand: p.demand.clone(),
                        }),
                        None => return,
                    }
                }
                Some(params)
            }
        };
        let mut fns = Vec::with_capacity(memo.fns_canon.len() - start);
        for entry in &memo.fns_canon[start..] {
            match entry {
                Some(e) => fns.push(e.clone()),
                // A window containing a non-canonicalizable report is
                // never memoized.
                None => return,
            }
        }
        let resolved = self.arena.resolve(ty);
        memo.cache.insert(
            node_fp,
            scope,
            JudgmentEntry::Backward(BackwardJudgment { env: canon_env, ty: resolved, fun, fns }),
        );
    }

    /// Attempts to replay a memoized judgment for `id` under `scope`;
    /// `true` on a hit. On a miss, registers the node's report window and
    /// counts the upcoming computation.
    fn try_replay(&mut self, id: TermId, scope: u64) -> bool {
        let Some(memo) = self.memo.as_mut() else { return false };
        if matches!(self.store.node(id), Node::Var(_) | Node::UnitVal | Node::Const(_)) {
            memo.recomputed += 1;
            return false;
        }
        let Some(node_fp) = memo.fps.node(id) else {
            memo.recomputed += 1;
            return false;
        };
        if let Some(JudgmentEntry::Backward(j)) = memo.cache.get(node_fp, scope) {
            if let Some((env, fun, reports)) = translate_backward(&memo.fps, self.store, &j) {
                let ty = self.arena.intern(&j.ty);
                self.fns.extend(reports);
                memo.fns_canon.extend(j.fns.iter().cloned().map(Some));
                self.results.insert(id, BJudgment { env, ty, fun });
                return true;
            }
        }
        memo.fns_start.insert(id, self.fns.len());
        memo.recomputed += 1;
        false
    }

    /// The scope-chain fingerprint for a child checked under one more
    /// binder `x : ty` (0 when not memoizing).
    fn scope_child(&mut self, parent: u64, x: VarId, ty: TyId) -> u64 {
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

    /// Scope extension for a binder entering the duplicable function
    /// context: uses of the binder replay the function's captured linear
    /// context and parameter demands, so downstream judgments depend on
    /// that content and it must be folded into the chain alongside the
    /// binder's type.
    fn scope_child_fn(
        &mut self,
        parent: u64,
        x: VarId,
        ty: TyId,
        caps: &BackwardEnv,
        fun: &Option<BFun>,
    ) -> u64 {
        let base = self.scope_child(parent, x, ty);
        let Some(memo) = self.memo.as_mut() else { return 0 };
        let mut h = StableHasher::new();
        h.write_u64(base);
        for (v, c) in caps.iter() {
            write_var(&mut h, &memo.fps, *v);
            h.write_str(&c.err.to_string());
            h.write_str(&c.absorb.to_string());
        }
        match fun {
            None => h.write_u8(0),
            Some(bf) => {
                h.write_u8(1);
                for p in &bf.params {
                    write_var(&mut h, &memo.fps, p.var);
                    h.write_u8(p.named as u8);
                    h.write_str(&p.demand.err.to_string());
                    h.write_str(&p.demand.absorb.to_string());
                }
            }
        }
        h.finish64()
    }

    /// Mirrors a just-pushed function report into the canonical window
    /// (`None` if a parameter cannot be canonicalized).
    fn memo_fn_entry(&mut self, name_var: VarId, assigned: TyId, fun: &Option<BFun>) {
        if self.memo.is_none() {
            return;
        }
        let assigned = self.arena.resolve(assigned);
        let memo = self.memo.as_mut().expect("checked above");
        let mut inputs = Vec::new();
        let mut canonical = true;
        if let Some(bf) = fun {
            for p in bf.params.iter().filter(|p| p.named) {
                match memo.fps.canon(p.var) {
                    Some(n) => inputs.push((n, p.demand.err.clone())),
                    None => {
                        canonical = false;
                        break;
                    }
                }
            }
        }
        let entry = canonical.then(|| BackwardFnEntry {
            name: self.store.var_name(name_var).to_string(),
            assigned,
            inputs,
        });
        memo.fns_canon.push(entry);
    }

    fn show(&self, ty: TyId) -> Ty {
        self.arena.resolve(ty)
    }

    fn name(&self, v: VarId) -> String {
        self.store.var_name(v).to_string()
    }

    fn dup(&self, v: VarId) -> BackwardError {
        BackwardError::DuplicatedUse { var: self.name(v) }
    }

    fn op_sig(&mut self, op_idx: u32) -> Result<(TyId, TyId), BackwardError> {
        if let Some(&entry) = self.ops.get(&op_idx) {
            return Ok(entry);
        }
        let name = self.store.op_name(op_idx);
        let op = self.sig.op(name).ok_or_else(|| BackwardError::UnknownOp(name.to_string()))?;
        let entry = (self.arena.intern(&op.arg), self.arena.intern(&op.ret));
        self.ops.insert(op_idx, entry);
        Ok(entry)
    }

    /// The backward amplification through an operation whose domain is
    /// boxed at `grade`: the inverse of the (finite, positive, constant)
    /// forward sensitivity; anything else — zero, `∞` (comparisons), or
    /// symbolic — admits no finite backward routing.
    fn inverse_amplification(&self, grade: GradeId) -> Grade {
        match self.arena.grade(grade).as_constant() {
            Some(c) if !c.is_zero() => Grade::constant(c.recip()),
            _ => Grade::infinite(),
        }
    }

    /// Replays a binder's accumulated demand onto its producer's context:
    /// the (Let)/(⊸E)/(case) composition step. A demanded producer with an
    /// empty context means the demand lands on constants.
    fn compose(
        &self,
        producer: BackwardEnv,
        binder: &Coeffect,
        site: &'static str,
    ) -> Result<BackwardEnv, BackwardError> {
        if producer.is_empty() && !binder.err.is_zero() {
            return Err(BackwardError::NoCarrier { site });
        }
        producer.try_update(|c| c.seq(binder)).ok_or(BackwardError::NonlinearGrade)
    }

    /// Removes a binder from a body context, enforcing consumption for
    /// binders that carry data (`unit`-typed binders are vacuous).
    fn consume_binder(
        &self,
        env: &mut BackwardEnv,
        x: VarId,
        ty: TyId,
    ) -> Result<Coeffect, BackwardError> {
        match env.remove(x) {
            Some(c) => Ok(c),
            None if ty == UNIT => Ok(Coeffect::vacuous()),
            None => Err(BackwardError::UnusedLinear { var: self.name(x) }),
        }
    }

    fn run(&mut self, root: TermId, seed: u64) -> Result<(), BackwardError> {
        let eps = self.sig.rnd_grade().clone();
        let mut stack = vec![Frame { id: root, stage: 0, scope: seed }];
        while let Some(Frame { id, stage, scope }) = stack.pop() {
            if stage == 0 && (self.results.contains_key(&id) || self.try_replay(id, scope)) {
                continue;
            }
            match (*self.store.node(id), stage) {
                // ----- constructs outside Bean's fragment -----
                (Node::Proj(..), _) => {
                    return Err(BackwardError::Incompatible {
                        construct: "projection from a cartesian pair",
                    })
                }
                (Node::BoxIntro(..), _) => {
                    return Err(BackwardError::Incompatible { construct: "box introduction" })
                }
                (Node::LetBox(..), _) => {
                    return Err(BackwardError::Incompatible { construct: "box elimination" })
                }
                (Node::Err(..), _) => {
                    return Err(BackwardError::Incompatible { construct: "the `err` value" })
                }

                // ----- leaves -----
                (Node::Var(v), _) => {
                    let ty = self.var_ty(v)?;
                    if let Some((caps, fun)) = self.fn_sigs.get(&v) {
                        let (caps, fun) = (caps.clone(), fun.clone());
                        self.done(id, caps, ty, fun, scope);
                    } else {
                        self.done(id, BackwardEnv::consume(v), ty, None, scope);
                    }
                }
                (Node::UnitVal, _) => self.done(id, BackwardEnv::empty(), UNIT, None, scope),
                (Node::Const(_), _) => self.done(id, BackwardEnv::empty(), NUM, None, scope),

                // ----- single-child nodes -----
                (Node::Inl(v, _), 0)
                | (Node::Inr(v, _), 0)
                | (Node::Rnd(v), 0)
                | (Node::Ret(v), 0)
                | (Node::Op(_, v), 0) => {
                    stack.push(Frame { id, stage: 1, scope });
                    stack.push(Frame { id: v, stage: 0, scope });
                }
                (Node::Inl(v, rt), 1) => {
                    let r = self.take(v).expect("child done");
                    let ty = self.arena.mk(TyNode::Sum(r.ty, rt));
                    self.done(id, r.env, ty, None, scope);
                }
                (Node::Inr(v, lt), 1) => {
                    let r = self.take(v).expect("child done");
                    let ty = self.arena.mk(TyNode::Sum(lt, r.ty));
                    self.done(id, r.env, ty, None, scope);
                }
                (Node::Rnd(v), 1) => {
                    let r = self.take(v).expect("child done");
                    if r.ty != NUM {
                        return Err(BackwardError::Expected {
                            what: "a numeric argument to rnd",
                            found: self.show(r.ty),
                        });
                    }
                    if r.env.is_empty() {
                        // The committed rounding error has nowhere to go:
                        // constants cannot be perturbed.
                        return Err(BackwardError::NoCarrier { site: "rnd" });
                    }
                    let env = r
                        .env
                        .try_update(|c| c.charge(&eps))
                        .ok_or(BackwardError::NonlinearGrade)?;
                    let ty = self.arena.mk(TyNode::Monad(self.rnd_grade_id, NUM));
                    self.done(id, env, ty, None, scope);
                }
                (Node::Ret(v), 1) => {
                    let r = self.take(v).expect("child done");
                    let ty = self.arena.mk(TyNode::Monad(self.zero_grade_id, r.ty));
                    self.done(id, r.env, ty, r.fun, scope);
                }
                (Node::Op(op_idx, v), 1) => {
                    let r = self.take(v).expect("child done");
                    let (arg, ret) = self.op_sig(op_idx)?;
                    let env = if self.arena.subtype(r.ty, arg) {
                        r.env
                    } else if let TyNode::Bang(g, inner) = self.arena.node(arg) {
                        // Implicit boxing (`sqrt x`): the backward demand
                        // through the op amplifies by the inverse of the
                        // declared sensitivity.
                        if self.arena.subtype(r.ty, inner) {
                            let factor = self.inverse_amplification(g);
                            r.env
                                .try_update(|c| c.amplify(&factor))
                                .ok_or(BackwardError::NonlinearGrade)?
                        } else {
                            return Err(BackwardError::OpArgMismatch {
                                op: self.store.op_name(op_idx).to_string(),
                                expected: self.show(arg),
                                found: self.show(r.ty),
                            });
                        }
                    } else {
                        return Err(BackwardError::OpArgMismatch {
                            op: self.store.op_name(op_idx).to_string(),
                            expected: self.show(arg),
                            found: self.show(r.ty),
                        });
                    };
                    self.done(id, env, ret, None, scope);
                }

                // ----- pairs and application -----
                (Node::PairW(a, b), 0) | (Node::PairT(a, b), 0) | (Node::App(a, b), 0) => {
                    stack.push(Frame { id, stage: 1, scope });
                    stack.push(Frame { id: a, stage: 0, scope });
                    stack.push(Frame { id: b, stage: 0, scope });
                }
                (Node::PairW(a, b), 1) => {
                    let ra = self.take(a).expect("child done");
                    let rb = self.take(b).expect("child done");
                    // A Cartesian pair with exactly one rigid (constant)
                    // side: a demand on the pair cannot be split
                    // proportionally — in the RP instantiation this is
                    // `add (|x, c|)`, whose one-sided solve has unbounded
                    // relative amplification. Mark the open side `∞`.
                    let (ea, eb) = if ra.env.is_empty() != rb.env.is_empty() {
                        let inf = Grade::infinite();
                        let widen = |e: BackwardEnv| {
                            e.try_update(|c| c.amplify(&inf)).expect("∞ product is total")
                        };
                        (widen(ra.env), widen(rb.env))
                    } else {
                        (ra.env, rb.env)
                    };
                    let env = ea.merge_disjoint(eb).map_err(|v| self.dup(v))?;
                    let ty = self.arena.mk(TyNode::With(ra.ty, rb.ty));
                    self.done(id, env, ty, None, scope);
                }
                (Node::PairT(a, b), 1) => {
                    let ra = self.take(a).expect("child done");
                    let rb = self.take(b).expect("child done");
                    let env = ra.env.merge_disjoint(rb.env).map_err(|v| self.dup(v))?;
                    let ty = self.arena.mk(TyNode::Tensor(ra.ty, rb.ty));
                    self.done(id, env, ty, None, scope);
                }
                (Node::App(a, b), 1) => {
                    let ra = self.take(a).expect("child done");
                    let rb = self.take(b).expect("child done");
                    let cod = match self.arena.node(ra.ty) {
                        TyNode::Lolli(dom, cod) => {
                            if !self.arena.subtype(rb.ty, dom) {
                                return Err(BackwardError::ArgMismatch {
                                    expected: self.show(dom),
                                    found: self.show(rb.ty),
                                });
                            }
                            cod
                        }
                        _ => {
                            return Err(BackwardError::Expected {
                                what: "a function",
                                found: self.show(ra.ty),
                            })
                        }
                    };
                    // Bean is first-order: only (possibly partially
                    // applied) top-level functions carry backward
                    // parameter demands.
                    let mut params = match ra.fun {
                        Some(bf) => bf.params,
                        None => {
                            return Err(BackwardError::Incompatible {
                                construct: "first-class function application",
                            })
                        }
                    };
                    let first = params.remove(0);
                    let shifted = self.compose(rb.env, &first.demand, "application")?;
                    let env = ra.env.merge_disjoint(shifted).map_err(|v| self.dup(v))?;
                    let fun = if params.is_empty() { None } else { Some(BFun { params }) };
                    self.done(id, env, cod, fun, scope);
                }

                // ----- λ -----
                (Node::Lam(x, ty_id, body), 0) => {
                    self.var_tys.insert(x, ty_id);
                    let body_scope = self.scope_child(scope, x, ty_id);
                    stack.push(Frame { id, stage: 1, scope });
                    stack.push(Frame { id: body, stage: 0, scope: body_scope });
                }
                (Node::Lam(x, ty_id, body), 1) => {
                    let mut r = self.take(body).expect("child done");
                    let demand = self.consume_binder(&mut r.env, x, ty_id)?;
                    let param = BParam { var: x, named: ty_id != UNIT, demand };
                    let params = match r.fun {
                        Some(bf) => {
                            let mut ps = vec![param];
                            ps.extend(bf.params);
                            ps
                        }
                        None => vec![param],
                    };
                    let ty = self.arena.mk(TyNode::Lolli(ty_id, r.ty));
                    self.done(id, r.env, ty, Some(BFun { params }), scope);
                }

                // ----- binders that need the scrutinee's type first -----
                (Node::LetTensor(_, _, v, _), 0)
                | (Node::Case(v, ..), 0)
                | (Node::LetBind(_, v, _), 0) => {
                    stack.push(Frame { id, stage: 1, scope });
                    stack.push(Frame { id: v, stage: 0, scope });
                }
                (Node::Let(_, e, _), 0) | (Node::LetFun(_, _, e, _), 0) => {
                    stack.push(Frame { id, stage: 1, scope });
                    stack.push(Frame { id: e, stage: 0, scope });
                }

                (Node::LetTensor(x, y, v, e), 1) => {
                    let rv = self.results.get(&v).expect("scrutinee done");
                    match self.arena.node(rv.ty) {
                        TyNode::Tensor(a, b) => {
                            self.var_tys.insert(x, a);
                            self.var_tys.insert(y, b);
                            let inner = self.scope_child(scope, x, a);
                            let inner = self.scope_child(inner, y, b);
                            stack.push(Frame { id, stage: 2, scope });
                            stack.push(Frame { id: e, stage: 0, scope: inner });
                        }
                        _ => {
                            return Err(BackwardError::Expected {
                                what: "a tensor pair",
                                found: self.show(rv.ty),
                            })
                        }
                    }
                }
                (Node::LetTensor(x, y, v, e), 2) => {
                    let rv = self.take(v).expect("scrutinee done");
                    let mut re = self.take(e).expect("body done");
                    let (a, b) = match self.arena.node(rv.ty) {
                        TyNode::Tensor(a, b) => (a, b),
                        _ => unreachable!("checked at stage 1"),
                    };
                    let cx = self.consume_binder(&mut re.env, x, a)?;
                    let cy = self.consume_binder(&mut re.env, y, b)?;
                    // The scrutinee pair carries both components' demands
                    // (sum metric on ⊗).
                    let shifted = self.compose(rv.env, &cx.join_add(&cy), "let-tensor")?;
                    let env = re.env.merge_disjoint(shifted).map_err(|v| self.dup(v))?;
                    self.done(id, env, re.ty, re.fun, scope);
                }

                (Node::Case(v, x, e1, y, e2), 1) => {
                    let rv = self.results.get(&v).expect("scrutinee done");
                    match self.arena.node(rv.ty) {
                        TyNode::Sum(a, b) => {
                            self.var_tys.insert(x, a);
                            self.var_tys.insert(y, b);
                            let s1 = self.scope_child(scope, x, a);
                            let s2 = self.scope_child(scope, y, b);
                            stack.push(Frame { id, stage: 2, scope });
                            stack.push(Frame { id: e1, stage: 0, scope: s1 });
                            stack.push(Frame { id: e2, stage: 0, scope: s2 });
                        }
                        _ => {
                            return Err(BackwardError::Expected {
                                what: "a sum",
                                found: self.show(rv.ty),
                            })
                        }
                    }
                }
                (Node::Case(v, x, e1, y, e2), 2) => {
                    let rv = self.take(v).expect("scrutinee done");
                    let mut r1 = self.take(e1).expect("left branch done");
                    let mut r2 = self.take(e2).expect("right branch done");
                    let (a, b) = match self.arena.node(rv.ty) {
                        TyNode::Sum(a, b) => (a, b),
                        _ => unreachable!("checked at stage 1"),
                    };
                    let c1 = self.consume_binder(&mut r1.env, x, a)?;
                    let c2 = self.consume_binder(&mut r2.env, y, b)?;
                    let ty = self.arena.sup(r1.ty, r2.ty).ok_or_else(|| {
                        BackwardError::BranchTypeMismatch {
                            left: self.show(r1.ty),
                            right: self.show(r2.ty),
                        }
                    })?;
                    // Bean's case: both branches must consume the same
                    // linear context (either may be taken at runtime).
                    let theta = r1
                        .env
                        .sup_same_support(r2.env)
                        .map_err(|v| BackwardError::BranchSupport { var: self.name(v) })?;
                    let shifted = self.compose(rv.env, &c1.sup(&c2), "case")?;
                    let env = theta.merge_disjoint(shifted).map_err(|v| self.dup(v))?;
                    self.done(id, env, ty, None, scope);
                }

                (Node::LetBind(x, v, f), 1) => {
                    let rv = self.results.get(&v).expect("scrutinee done");
                    match self.arena.node(rv.ty) {
                        TyNode::Monad(_, inner) => {
                            self.var_tys.insert(x, inner);
                            let body_scope = self.scope_child(scope, x, inner);
                            stack.push(Frame { id, stage: 2, scope });
                            stack.push(Frame { id: f, stage: 0, scope: body_scope });
                        }
                        _ => {
                            return Err(BackwardError::Expected {
                                what: "a monadic computation",
                                found: self.show(rv.ty),
                            })
                        }
                    }
                }
                (Node::LetBind(x, v, f), 2) => {
                    let rv = self.take(v).expect("scrutinee done");
                    let mut rf = self.take(f).expect("body done");
                    let (r, inner) = match self.arena.node(rv.ty) {
                        TyNode::Monad(r, inner) => (r, inner),
                        _ => unreachable!("checked at stage 1"),
                    };
                    let (q, tau) = match self.arena.node(rf.ty) {
                        TyNode::Monad(q, tau) => (q, tau),
                        _ => {
                            return Err(BackwardError::Expected {
                                what: "a monadic body in let-bind",
                                found: self.show(rf.ty),
                            })
                        }
                    };
                    let c = self.consume_binder(&mut rf.env, x, inner)?;
                    let shifted = self.compose(rv.env, &c, "let-bind")?;
                    let env = rf.env.merge_disjoint(shifted).map_err(|v| self.dup(v))?;
                    // Linear sequencing: the stage grades add (the forward
                    // grade is kept so both modes print the same types).
                    let grade = self.arena.grade(r).add(self.arena.grade(q));
                    let gid = self.arena.intern_grade(&grade);
                    let ty = self.arena.mk(TyNode::Monad(gid, tau));
                    self.done(id, env, ty, None, scope);
                }

                (Node::Let(x, e, f), 1) => {
                    let re = self.results.get(&e).expect("bound term done");
                    let re_ty = re.ty;
                    // A function alias: uses of `x` replay the function's
                    // captures and demands (Bean's duplicable context), so
                    // `x` itself is not a tracked resource — but the
                    // replayed content is part of what the body's
                    // judgments depend on, hence the richer scope hash.
                    let alias = re.fun.as_ref().map(|_| (re.env.clone(), re.fun.clone()));
                    self.var_tys.insert(x, re_ty);
                    let body_scope = match &alias {
                        Some((caps, fun)) => self.scope_child_fn(scope, x, re_ty, caps, fun),
                        None => self.scope_child(scope, x, re_ty),
                    };
                    if let Some(sig) = alias {
                        self.fn_sigs.insert(x, sig);
                    }
                    stack.push(Frame { id, stage: 2, scope });
                    stack.push(Frame { id: f, stage: 0, scope: body_scope });
                }
                (Node::Let(x, e, f), 2) => {
                    let re = self.take(e).expect("bound term done");
                    let mut rf = self.take(f).expect("body done");
                    if re.fun.is_some() {
                        // Alias composition happened at the use sites; an
                        // unused alias simply drops (its captures are then
                        // reported unused at their own binders).
                        self.done(id, rf.env, rf.ty, rf.fun, scope);
                        continue;
                    }
                    let c = self.consume_binder(&mut rf.env, x, re.ty)?;
                    let shifted = self.compose(re.env, &c, "let")?;
                    let env = rf.env.merge_disjoint(shifted).map_err(|v| self.dup(v))?;
                    self.done(id, env, rf.ty, rf.fun, scope);
                }

                (Node::LetFun(x, decl, body, rest), 1) => {
                    let rb = self.results.get(&body).expect("function body done");
                    let inferred = rb.ty;
                    let assigned = match decl {
                        None => inferred,
                        Some(declared) => {
                            if !self.arena.subtype(inferred, declared) {
                                return Err(BackwardError::DeclaredMismatch {
                                    name: self.name(x),
                                    declared: self.show(declared),
                                    inferred: self.show(inferred),
                                });
                            }
                            declared
                        }
                    };
                    let (rb_env, rb_fun) = (rb.env.clone(), rb.fun.clone());
                    let inputs = match &rb_fun {
                        Some(bf) => bf
                            .params
                            .iter()
                            .filter(|p| p.named)
                            .map(|p| (self.name(p.var), p.demand.err.clone()))
                            .collect(),
                        None => Vec::new(),
                    };
                    self.fns.push(BackwardFnReport {
                        name: self.name(x),
                        assigned: self.show(assigned),
                        inputs,
                    });
                    self.memo_fn_entry(x, assigned, &rb_fun);
                    let rest_scope = self.scope_child_fn(scope, x, assigned, &rb_env, &rb_fun);
                    self.fn_sigs.insert(x, (rb_env, rb_fun));
                    self.var_tys.insert(x, assigned);
                    stack.push(Frame { id, stage: 2, scope });
                    stack.push(Frame { id: rest, stage: 0, scope: rest_scope });
                }
                (Node::LetFun(_, _, body, rest), 2) => {
                    let _ = self.take(body);
                    let rr = self.take(rest).expect("rest done");
                    self.done(id, rr.env, rr.ty, rr.fun, scope);
                }

                (node, stage) => unreachable!("invalid backward state: {node:?} at stage {stage}"),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::compile;
    use crate::sig::Signature;

    fn rp(src: &str) -> Result<BackwardResult, BackwardError> {
        let sig = Signature::relative_precision();
        let lowered = compile(src, &sig).expect("compiles");
        infer_backward(&lowered.store, &sig, lowered.root, &[])
    }

    fn abs(src: &str) -> Result<BackwardResult, BackwardError> {
        let sig = Signature::absolute_error();
        let lowered = compile(src, &sig).expect("compiles");
        infer_backward(&lowered.store, &sig, lowered.root, &[])
    }

    fn bound(res: &BackwardResult, f: &str, x: &str) -> String {
        let report = res.fn_report(f).unwrap_or_else(|| panic!("no report for {f}"));
        report
            .inputs
            .iter()
            .find(|(n, _)| n == x)
            .unwrap_or_else(|| panic!("no input {x} in {f}: {:?}", report.inputs))
            .1
            .to_string()
    }

    #[test]
    fn single_rounding_charges_eps_per_input() {
        let res = rp(r#"
            function mulfp (xy: (num, num)) : M[eps]num { s = mul xy; rnd s }
        "#)
        .expect("backward-typed");
        assert_eq!(bound(&res, "mulfp", "xy"), "eps");
        assert_eq!(res.fn_report("mulfp").unwrap().assigned.to_string(), "(num, num) -o M[eps]num");
    }

    #[test]
    fn composition_replays_demands_onto_producers() {
        // Two roundings: the multiply's inputs absorb both (the add's
        // demand replays through the bind), the late input only one.
        let res = rp(r#"
            function mulfp (xy: (num, num)) : M[eps]num { s = mul xy; rnd s }
            function addfp (xy: <num, num>) : M[eps]num { s = add xy; rnd s }
            function ma (x: num) (y: num) (z: num) : M[2*eps]num {
                s = mulfp (x, y);
                let a = s;
                addfp (|a, z|)
            }
        "#)
        .expect("backward-typed");
        assert_eq!(bound(&res, "ma", "x"), "2*eps");
        assert_eq!(bound(&res, "ma", "y"), "2*eps");
        assert_eq!(bound(&res, "ma", "z"), "eps");
        assert_eq!(
            res.fn_report("ma").unwrap().assigned.to_string(),
            "num -o num -o num -o M[2*eps]num"
        );
    }

    #[test]
    fn sqrt_doubles_the_backward_demand() {
        let res = rp(r#"
            function s (x: num) : M[eps]num { r = sqrt x; rnd r }
        "#)
        .expect("backward-typed");
        assert_eq!(bound(&res, "s", "x"), "2*eps");
    }

    #[test]
    fn abs_scaling_halves_and_doubles() {
        let res = abs(r#"
            function f (x: num) : M[delta]num { r = scale2 x; rnd r }
            function g (x: num) : M[delta]num { r = half x; rnd r }
        "#)
        .expect("backward-typed");
        assert_eq!(bound(&res, "f", "x"), "1/2*delta");
        assert_eq!(bound(&res, "g", "x"), "2*delta");
    }

    #[test]
    fn rp_add_against_a_constant_is_unbounded() {
        let res = rp(r#"
            function g (x: num) : M[eps]num { s = add (|x, 1|); rnd s }
        "#)
        .expect("types, with an infinite bound");
        assert_eq!(bound(&res, "g", "x"), "inf");
    }

    #[test]
    fn abs_add_against_a_constant_stays_finite() {
        let res = abs(r#"
            function g (x: num) : M[delta]num { s = add (x, 1); rnd s }
        "#)
        .expect("backward-typed");
        assert_eq!(bound(&res, "g", "x"), "delta");
    }

    #[test]
    fn unused_binder_is_rejected() {
        assert_eq!(
            rp("function f (x: num) : num { 2 }").unwrap_err(),
            BackwardError::UnusedLinear { var: "x".into() }
        );
    }

    #[test]
    fn duplicated_use_is_rejected() {
        assert_eq!(
            rp("function f (x: num) : M[eps]num { rnd (mul (x, x)) }").unwrap_err(),
            BackwardError::DuplicatedUse { var: "x".into() }
        );
    }

    #[test]
    fn rounding_constants_has_no_carrier() {
        assert_eq!(rp("rnd 1.5").unwrap_err(), BackwardError::NoCarrier { site: "rnd" });
        // The same through a composition: a demanded producer with an
        // empty context.
        let err = rp(r#"
            function mulfp (xy: (num, num)) : M[eps]num { s = mul xy; rnd s }
            mulfp (2, 3)
        "#)
        .unwrap_err();
        assert_eq!(err, BackwardError::NoCarrier { site: "application" });
    }

    #[test]
    fn boxes_and_projections_are_outside_the_fragment() {
        assert!(matches!(
            rp("function f (x: ![2]num) : M[eps]num { let [y] = x; rnd y }").unwrap_err(),
            BackwardError::Incompatible { construct: "box elimination" }
        ));
        assert!(matches!(
            rp("fst (|1, 2|)").unwrap_err(),
            BackwardError::Incompatible { construct: "projection from a cartesian pair" }
        ));
        assert!(matches!(
            rp("p = [3]{2}; ret p").unwrap_err(),
            BackwardError::Incompatible { construct: "box introduction" }
        ));
    }

    #[test]
    fn branches_must_consume_the_same_context() {
        let err = rp(r#"
            function h (x: num) (y: num) : num {
                c = is_pos x;
                if c then y else 0
            }
        "#)
        .unwrap_err();
        assert_eq!(err, BackwardError::BranchSupport { var: "y".into() });
    }

    #[test]
    fn conditionals_with_equal_support_type() {
        // Comparisons consume their argument at absorb ∞, but a demand
        // of zero through ∞ is zero, and both branches consume `y`.
        let res = rp(r#"
            function h (x: num) (y: num) : M[eps]num {
                c = is_pos x;
                if c then { rnd (mul (y, 2)) } else { rnd (mul (y, 3)) }
            }
        "#)
        .expect("backward-typed");
        assert_eq!(bound(&res, "h", "y"), "eps");
        assert_eq!(bound(&res, "h", "x"), "0");
    }

    #[test]
    fn twice_called_closure_over_a_linear_variable_is_contraction() {
        // A partially applied function value closes over `w`; calling the
        // alias twice replays the capture twice.
        let err = rp(r#"
            function mul2 (x: num) (y: num) : M[eps]num { rnd (mul (x, y)) }
            function outer (w: num) (u: num) : M[2*eps]num {
                g = mul2 w;
                let a = g u;
                g a
            }
        "#)
        .unwrap_err();
        assert_eq!(err, BackwardError::DuplicatedUse { var: "w".into() });
    }

    #[test]
    fn unused_functions_are_fine_but_unused_data_is_not() {
        // Functions live in the duplicable context: defining and never
        // calling one is allowed.
        let res = rp(r#"
            function f (x: num) : M[eps]num { rnd (mul (x, 2)) }
            ret 0
        "#)
        .expect("backward-typed");
        assert_eq!(bound(&res, "f", "x"), "eps");
        assert!(res.root.inputs.is_empty());
        // But a let-bound datum must be consumed.
        assert_eq!(
            rp("k = 3; ret 0").unwrap_err(),
            BackwardError::UnusedLinear { var: "k".into() }
        );
    }

    #[test]
    fn higher_order_application_is_rejected() {
        let err = rp(r#"
            function apply (f: num -o num) (x: num) : num { f x }
            ret 0
        "#)
        .unwrap_err();
        assert!(matches!(
            err,
            BackwardError::Incompatible { construct: "first-class function application" }
        ));
    }

    #[test]
    fn reports_are_deterministic_and_in_source_order() {
        let src = r#"
            function a (x: num) : M[eps]num { rnd (mul (x, 2)) }
            function b (y: num) : M[eps]num { rnd (mul (y, 3)) }
            ret 1
        "#;
        let first = rp(src).expect("types");
        let names: Vec<&str> = first.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        let second = rp(src).expect("types");
        assert_eq!(format!("{first:?}"), format!("{second:?}"));
    }
}
