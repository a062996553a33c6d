//! Algorithmic sensitivity inference (paper Fig. 10).
//!
//! The checker is bottom-up: it computes, for every subterm, the *minimal*
//! environment of variable sensitivities and the most precise type, and
//! compares against annotations using the subtype relation (Fig. 12). The
//! traversal is iterative (explicit stack) so million-node Table 4
//! programs check without recursion, and child results are consumed as
//! they are merged so peak memory stays proportional to the tree depth
//! frontier rather than the whole program.
//!
//! Types flow through the whole pass as interned [`TyId`]s from the
//! store's [`crate::CoreArena`]: equality is id equality, the subtype and
//! `max`/`min` lattice queries are memoized by id pair, and no `Ty` tree
//! is ever built except at the public boundary (the returned [`Inferred`]
//! root, the per-function [`FnReport`]s, and error messages).
//!
//! Deviations from the published figure, each with its reason:
//!
//! * (⊸I) enforces `s <= 1` on the λ-bound variable (the figure prints
//!   `s >= 1`, which would reject `λx. x` bodies that *under*-use `x` and
//!   accept 2-sensitive bodies — the opposite of Fig. 2's declarative
//!   rule);
//! * (+E) and (Let) replace a zero scaling by the signature's positive
//!   `rnd` grade, the figure's "`ε` otherwise";
//! * (Op) allows non-`num` result types so `is_pos : !∞ num ⊸ bool` is an
//!   ordinary signature entry.

use crate::arena::{ArenaInner, GradeId, TyId, TyNode, NUM_ID as NUM, UNIT_ID as UNIT};
use crate::cache::{
    hash_ty_tree, node_fingerprints, scope_extend, ForwardJudgment, JudgmentCache, JudgmentCounts,
    JudgmentEntry, NodeFingerprints,
};
use crate::env::Env;
use crate::grade::Grade;
use crate::sig::Signature;
use crate::term::{Node, TermId, TermStore, VarId};
use crate::ty::Ty;
use std::collections::HashMap;
use std::fmt;
use std::sync::MutexGuard;

/// The result of inferring one (sub)term: a minimal environment and type.
#[derive(Clone, Debug)]
pub struct Inferred {
    /// Minimal sensitivities of the free variables.
    pub env: Env,
    /// The inferred (most precise) type.
    pub ty: Ty,
}

/// The internal per-subterm judgment: same as [`Inferred`], but the type
/// stays an interned id (the hot path never resolves).
#[derive(Clone, Debug)]
struct Judgment {
    env: Env,
    ty: TyId,
}

/// Report for a top-level `function` definition.
#[derive(Clone, Debug)]
pub struct FnReport {
    /// The function's name.
    pub name: String,
    /// The type inference produced for its body.
    pub inferred: Ty,
    /// The type assigned in the context (the declaration if present,
    /// otherwise the inferred type).
    pub assigned: Ty,
}

/// Result of checking a whole program term.
#[derive(Clone, Debug)]
pub struct CheckResult {
    /// Environment and type of the root term.
    pub root: Inferred,
    /// One report per `function` definition, in source order.
    pub fns: Vec<FnReport>,
}

impl CheckResult {
    /// Looks up a function report by name (the last definition wins, as in
    /// nested lets).
    pub fn fn_report(&self, name: &str) -> Option<&FnReport> {
        self.fns.iter().rev().find(|f| f.name == name)
    }
}

/// Type-checking errors.
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
        }
    }
}

impl std::error::Error for CheckError {}

/// Infers the minimal environment and type of `root`, with `free` giving
/// types for free variables.
///
/// # Errors
///
/// Any [`CheckError`]; inference is complete for this algorithmic system,
/// so an error means the term is ill-typed (up to the documented
/// incompleteness of coefficient-wise grade comparison).
pub fn infer(
    store: &TermStore,
    sig: &Signature,
    root: TermId,
    free: &[(VarId, Ty)],
) -> Result<CheckResult, CheckError> {
    infer_pass(store, sig, root, free, None).map(|(result, _)| result)
}

/// [`infer`], with subterm-level judgment memoization against `cache`.
///
/// `config` must fingerprint everything beyond the term that can change
/// a judgment — at minimum the analysis mode and the signature (see
/// [`crate::ConfigFingerprint`]) — and the same value must be passed for
/// a lookup to hit. On rechecking an edited program, only the spine from
/// the edit to the root is recomputed; every untouched subtree judgment
/// replays from the table, and the returned [`JudgmentCounts`] report
/// the split. Cached values are store- and arena-independent, so one
/// cache serves re-parsed programs and forked sessions alike. The result
/// is byte-identical to [`infer`]'s — memoization is observable only in
/// the counts.
///
/// # Errors
///
/// Exactly as [`infer`]; failed passes memoize nothing new beyond their
/// successfully checked subtrees.
pub fn infer_memoized(
    store: &TermStore,
    sig: &Signature,
    root: TermId,
    free: &[(VarId, Ty)],
    cache: &mut JudgmentCache,
    config: u64,
) -> Result<(CheckResult, JudgmentCounts), CheckError> {
    infer_pass(store, sig, root, free, Some((cache, config)))
}

fn infer_pass(
    store: &TermStore,
    sig: &Signature,
    root: TermId,
    free: &[(VarId, Ty)],
    memo_cfg: Option<(&mut JudgmentCache, u64)>,
) -> Result<(CheckResult, JudgmentCounts), CheckError> {
    // The scope-chain seed folds the free interface — each variable's
    // canonical number and type — over the caller's config fingerprint,
    // so a judgment replays only under an identical interface. Computed
    // before the arena lock below: fingerprinting resolves annotation
    // types through the store's arena handle.
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
    let mut ck = Checker {
        store,
        sig,
        var_tys,
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
    Ok((
        CheckResult {
            root: Inferred { env: root_res.env, ty: ck.arena.resolve(root_res.ty) },
            fns: ck.fns,
        },
        counts,
    ))
}

/// How many parent edges reference each node, across the whole store.
///
/// Results are dropped once every referencing parent has consumed them, so
/// peak memory tracks the live frontier on trees while node *sharing*
/// (which hash-consing and small-step substitution both create) still
/// works: a shared child's result survives until its last parent takes it.
pub(crate) fn count_parent_edges(store: &TermStore) -> Vec<u32> {
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

struct Checker<'a> {
    store: &'a TermStore,
    sig: &'a Signature,
    /// The arena table, locked once for the whole run.
    arena: MutexGuard<'a, ArenaInner>,
    var_tys: HashMap<VarId, TyId>,
    results: HashMap<TermId, Judgment>,
    /// Outstanding parent edges per node (see [`count_parent_edges`]).
    remaining: Vec<u32>,
    fns: Vec<FnReport>,
    /// Signature entries interned on first use, keyed by op index.
    ops: HashMap<u32, (TyId, TyId)>,
    rnd_grade_id: GradeId,
    zero_grade_id: GradeId,
    /// Judgment memoization state ([`infer_memoized`] only).
    memo: Option<Memo<'a>>,
}

/// Per-pass memoization state: the shared judgment table plus this
/// store's node fingerprints and canonical-variable translation.
struct Memo<'a> {
    cache: &'a mut JudgmentCache,
    fps: NodeFingerprints,
    /// `hash_ty_tree` of resolved types, memoized by interned id.
    ty_fps: HashMap<TyId, u128>,
    /// Where each in-flight (cache-missed) node's window into `fns`
    /// starts; presence gates memoization in `done`.
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

impl<'a> Checker<'a> {
    fn var_ty(&self, v: VarId) -> Result<TyId, CheckError> {
        self.var_tys
            .get(&v)
            .copied()
            .ok_or_else(|| CheckError::UnboundVar(self.store.var_name(v).to_string()))
    }

    /// Consumes one parent edge's view of a child result; the stored
    /// result is freed when the last edge has consumed it.
    fn take(&mut self, id: TermId) -> Option<Judgment> {
        let slot = &mut self.remaining[id.0 as usize];
        if *slot > 1 {
            *slot -= 1;
            self.results.get(&id).cloned()
        } else {
            *slot = 0;
            self.results.remove(&id)
        }
    }

    fn done(&mut self, id: TermId, env: Env, ty: TyId, scope: u64) {
        self.memoize(id, &env, ty, scope);
        self.results.insert(id, Judgment { env, ty });
    }

    /// Memoizes a freshly computed judgment, if this node cache-missed at
    /// stage 0 (leaves never register and are never memoized — they are
    /// cheaper to recompute than to look up).
    fn memoize(&mut self, id: TermId, env: &Env, ty: TyId, scope: u64) {
        let Some(memo) = self.memo.as_mut() else { return };
        let Some(start) = memo.fns_start.remove(&id) else { return };
        let Some(node_fp) = memo.fps.node(id) else { return };
        let mut canon_env = Vec::with_capacity(env.len());
        for (v, g) in env.iter() {
            match memo.fps.canon(*v) {
                Some(c) => canon_env.push((c, g.clone())),
                // Unfingerprinted variable (cannot happen for a var that
                // occurs in the program): skip memoization defensively.
                None => return,
            }
        }
        canon_env.sort_by_key(|(c, _)| *c);
        let resolved = self.arena.resolve(ty);
        memo.cache.insert(
            node_fp,
            scope,
            JudgmentEntry::Forward(ForwardJudgment {
                env: canon_env,
                ty: resolved,
                fns: self.fns[start..].to_vec(),
            }),
        );
    }

    /// Attempts to replay a memoized judgment for `id` under `scope`.
    /// Returns `true` on a hit (result installed, subtree skipped). On a
    /// miss, registers the node's function-report window and counts the
    /// upcoming computation.
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
        if let Some(JudgmentEntry::Forward(j)) = memo.cache.get(node_fp, scope) {
            let mut entries = Vec::with_capacity(j.env.len());
            let mut translated = true;
            for (canon, g) in &j.env {
                match memo.fps.var(*canon) {
                    Some(v) => entries.push((v, g.clone())),
                    None => {
                        translated = false;
                        break;
                    }
                }
            }
            if translated {
                let ty = self.arena.intern(&j.ty);
                self.fns.extend(j.fns.iter().cloned());
                self.results.insert(id, Judgment { env: Env::from_entries(entries), ty });
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

    /// The positive stand-in for a zero scaling in (Let)/(+E) — the
    /// figure's `ε`.
    fn epsilon(&self) -> Grade {
        self.sig.rnd_grade().clone()
    }

    /// Resolves an interned type for an error message (cold path only).
    fn show(&self, ty: TyId) -> Ty {
        self.arena.resolve(ty)
    }

    /// The interned `(arg, ret)` pair of a signature operation.
    fn op_sig(&mut self, op_idx: u32) -> Result<(TyId, TyId), CheckError> {
        if let Some(&entry) = self.ops.get(&op_idx) {
            return Ok(entry);
        }
        let name = self.store.op_name(op_idx);
        let op = self.sig.op(name).ok_or_else(|| CheckError::UnknownOp(name.to_string()))?;
        let entry = (self.arena.intern(&op.arg), self.arena.intern(&op.ret));
        self.ops.insert(op_idx, entry);
        Ok(entry)
    }

    fn run(&mut self, root: TermId, seed: u64) -> Result<(), CheckError> {
        let mut stack = vec![Frame { id: root, stage: 0, scope: seed }];
        while let Some(Frame { id, stage, scope }) = stack.pop() {
            if stage == 0 && (self.results.contains_key(&id) || self.try_replay(id, scope)) {
                continue;
            }
            match (*self.store.node(id), stage) {
                // ----- leaves -----
                (Node::Var(v), _) => {
                    let ty = self.var_ty(v)?;
                    self.done(id, Env::singleton(v, Grade::one()), ty, scope);
                }
                (Node::UnitVal, _) => self.done(id, Env::empty(), UNIT, scope),
                (Node::Const(_), _) => self.done(id, Env::empty(), NUM, scope),
                (Node::Err(g, t), _) => {
                    let ty = self.arena.mk(TyNode::Monad(g, t));
                    self.done(id, Env::empty(), ty, scope);
                }

                // ----- single-child nodes -----
                (Node::Inl(v, _), 0)
                | (Node::Inr(v, _), 0)
                | (Node::BoxIntro(_, v), 0)
                | (Node::Rnd(v), 0)
                | (Node::Ret(v), 0)
                | (Node::Proj(_, v), 0)
                | (Node::Op(_, v), 0) => {
                    stack.push(Frame { id, stage: 1, scope });
                    stack.push(Frame { id: v, stage: 0, scope });
                }
                (Node::Inl(v, rt), 1) => {
                    let r = self.take(v).expect("child done");
                    let ty = self.arena.mk(TyNode::Sum(r.ty, rt));
                    self.done(id, r.env, ty, scope);
                }
                (Node::Inr(v, lt), 1) => {
                    let r = self.take(v).expect("child done");
                    let ty = self.arena.mk(TyNode::Sum(lt, r.ty));
                    self.done(id, r.env, ty, scope);
                }
                (Node::BoxIntro(g, v), 1) => {
                    let r = self.take(v).expect("child done");
                    let env = r.env.scale(self.arena.grade(g)).ok_or(CheckError::NonlinearGrade)?;
                    let ty = self.arena.mk(TyNode::Bang(g, r.ty));
                    self.done(id, env, ty, scope);
                }
                (Node::Rnd(v), 1) => {
                    let r = self.take(v).expect("child done");
                    if r.ty != NUM {
                        return Err(CheckError::Expected {
                            what: "a numeric argument to rnd",
                            found: self.show(r.ty),
                        });
                    }
                    let ty = self.arena.mk(TyNode::Monad(self.rnd_grade_id, NUM));
                    self.done(id, r.env, ty, scope);
                }
                (Node::Ret(v), 1) => {
                    let r = self.take(v).expect("child done");
                    let ty = self.arena.mk(TyNode::Monad(self.zero_grade_id, r.ty));
                    self.done(id, r.env, ty, scope);
                }
                (Node::Proj(first, v), 1) => {
                    let r = self.take(v).expect("child done");
                    match self.arena.node(r.ty) {
                        TyNode::With(a, b) => {
                            let ty = if first { a } else { b };
                            self.done(id, r.env, ty, scope);
                        }
                        _ => {
                            return Err(CheckError::Expected {
                                what: "a cartesian pair",
                                found: self.show(r.ty),
                            })
                        }
                    }
                }
                (Node::Op(op_idx, v), 1) => {
                    let r = self.take(v).expect("child done");
                    let (arg, ret) = self.op_sig(op_idx)?;
                    let env = if self.arena.subtype(r.ty, arg) {
                        r.env
                    } else if let TyNode::Bang(g, inner) = self.arena.node(arg) {
                        // Implicit boxing: `sqrt x` elaborates as
                        // `sqrt [x]{g}`, scaling the environment by the
                        // domain's grade (the (!I) rule applied on the fly).
                        if self.arena.subtype(r.ty, inner) {
                            r.env.scale(self.arena.grade(g)).ok_or(CheckError::NonlinearGrade)?
                        } else {
                            return Err(CheckError::OpArgMismatch {
                                op: self.store.op_name(op_idx).to_string(),
                                expected: self.show(arg),
                                found: self.show(r.ty),
                            });
                        }
                    } else {
                        return Err(CheckError::OpArgMismatch {
                            op: self.store.op_name(op_idx).to_string(),
                            expected: self.show(arg),
                            found: self.show(r.ty),
                        });
                    };
                    self.done(id, env, ret, scope);
                }

                // ----- pairs and application: two independent children -----
                (Node::PairW(a, b), 0) | (Node::PairT(a, b), 0) | (Node::App(a, b), 0) => {
                    stack.push(Frame { id, stage: 1, scope });
                    stack.push(Frame { id: a, stage: 0, scope });
                    stack.push(Frame { id: b, stage: 0, scope });
                }
                (Node::PairW(a, b), 1) => {
                    let ra = self.take(a).expect("child done");
                    let rb = self.take(b).expect("child done");
                    let ty = self.arena.mk(TyNode::With(ra.ty, rb.ty));
                    self.done(id, ra.env.sup(rb.env), ty, scope);
                }
                (Node::PairT(a, b), 1) => {
                    let ra = self.take(a).expect("child done");
                    let rb = self.take(b).expect("child done");
                    let ty = self.arena.mk(TyNode::Tensor(ra.ty, rb.ty));
                    self.done(id, ra.env.add(rb.env), ty, scope);
                }
                (Node::App(a, b), 1) => {
                    let ra = self.take(a).expect("child done");
                    let rb = self.take(b).expect("child done");
                    match self.arena.node(ra.ty) {
                        TyNode::Lolli(dom, cod) => {
                            if !self.arena.subtype(rb.ty, dom) {
                                return Err(CheckError::ArgMismatch {
                                    expected: self.show(dom),
                                    found: self.show(rb.ty),
                                });
                            }
                            self.done(id, ra.env.add(rb.env), cod, scope);
                        }
                        _ => {
                            return Err(CheckError::Expected {
                                what: "a function",
                                found: self.show(ra.ty),
                            })
                        }
                    }
                }

                // ----- λ: register the parameter, then check the body -----
                (Node::Lam(x, ty_id, body), 0) => {
                    self.var_tys.insert(x, ty_id);
                    let body_scope = self.scope_child(scope, x, ty_id);
                    stack.push(Frame { id, stage: 1, scope });
                    stack.push(Frame { id: body, stage: 0, scope: body_scope });
                }
                (Node::Lam(x, ty_id, body), 1) => {
                    let mut r = self.take(body).expect("child done");
                    let s = r.env.remove(x);
                    if !s.le(&Grade::one()) {
                        return Err(CheckError::LambdaSensitivity {
                            var: self.store.var_name(x).to_string(),
                            got: s,
                        });
                    }
                    let ty = self.arena.mk(TyNode::Lolli(ty_id, r.ty));
                    self.done(id, r.env, ty, scope);
                }

                // ----- binders that need the scrutinee's type first -----
                (Node::LetTensor(_, _, v, _), 0)
                | (Node::Case(v, ..), 0)
                | (Node::LetBox(_, v, _), 0)
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
                            return Err(CheckError::Expected {
                                what: "a tensor pair",
                                found: self.show(rv.ty),
                            })
                        }
                    }
                }
                (Node::LetTensor(x, y, v, e), 2) => {
                    let rv = self.take(v).expect("scrutinee done");
                    let mut re = self.take(e).expect("body done");
                    let sx = re.env.remove(x);
                    let sy = re.env.remove(y);
                    let s = sx.sup(&sy);
                    let scaled = rv.env.scale(&s).ok_or(CheckError::NonlinearGrade)?;
                    self.done(id, re.env.add(scaled), re.ty, scope);
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
                            return Err(CheckError::Expected {
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
                    let s = r1.env.remove(x).sup(&r2.env.remove(y));
                    // (+E) side condition s > 0: keep a positive dependence
                    // on the guard (the figure's s̄).
                    let s_bar = if s.is_zero() { self.epsilon() } else { s };
                    let ty = self.arena.sup(r1.ty, r2.ty).ok_or_else(|| {
                        CheckError::BranchTypeMismatch {
                            left: self.show(r1.ty),
                            right: self.show(r2.ty),
                        }
                    })?;
                    let theta = r1.env.sup(r2.env);
                    let scaled = rv.env.scale(&s_bar).ok_or(CheckError::NonlinearGrade)?;
                    self.done(id, theta.add(scaled), ty, scope);
                }

                (Node::LetBox(x, v, e), 1) => {
                    let rv = self.results.get(&v).expect("scrutinee done");
                    match self.arena.node(rv.ty) {
                        TyNode::Bang(_, inner) => {
                            self.var_tys.insert(x, inner);
                            let body_scope = self.scope_child(scope, x, inner);
                            stack.push(Frame { id, stage: 2, scope });
                            stack.push(Frame { id: e, stage: 0, scope: body_scope });
                        }
                        _ => {
                            return Err(CheckError::Expected {
                                what: "a boxed value",
                                found: self.show(rv.ty),
                            })
                        }
                    }
                }
                (Node::LetBox(x, v, e), 2) => {
                    let rv = self.take(v).expect("scrutinee done");
                    let mut re = self.take(e).expect("body done");
                    let s = match self.arena.node(rv.ty) {
                        TyNode::Bang(s, _) => self.arena.grade(s),
                        _ => unreachable!("checked at stage 1"),
                    };
                    let r = re.env.remove(x);
                    let t = r.div_min(s).ok_or_else(|| CheckError::BoxZeroGrade {
                        var: self.store.var_name(x).to_string(),
                    })?;
                    let scaled = rv.env.scale(&t).ok_or(CheckError::NonlinearGrade)?;
                    self.done(id, re.env.add(scaled), re.ty, scope);
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
                            return Err(CheckError::Expected {
                                what: "a monadic computation",
                                found: self.show(rv.ty),
                            })
                        }
                    }
                }
                (Node::LetBind(x, v, f), 2) => {
                    let rv = self.take(v).expect("scrutinee done");
                    let mut rf = self.take(f).expect("body done");
                    let r = match self.arena.node(rv.ty) {
                        TyNode::Monad(r, _) => r,
                        _ => unreachable!("checked at stage 1"),
                    };
                    let (q, tau) = match self.arena.node(rf.ty) {
                        TyNode::Monad(q, tau) => (q, tau),
                        _ => {
                            return Err(CheckError::Expected {
                                what: "a monadic body in let-bind",
                                found: self.show(rf.ty),
                            })
                        }
                    };
                    let s = rf.env.remove(x);
                    let sr =
                        s.checked_mul(self.arena.grade(r)).ok_or(CheckError::NonlinearGrade)?;
                    let grade = sr.add(self.arena.grade(q));
                    let scaled = rv.env.scale(&s).ok_or(CheckError::NonlinearGrade)?;
                    let gid = self.arena.intern_grade(&grade);
                    let ty = self.arena.mk(TyNode::Monad(gid, tau));
                    self.done(id, rf.env.add(scaled), ty, scope);
                }

                (Node::Let(x, e, f), 1) => {
                    let re_ty = self.results.get(&e).expect("bound term done").ty;
                    self.var_tys.insert(x, re_ty);
                    let body_scope = self.scope_child(scope, x, re_ty);
                    stack.push(Frame { id, stage: 2, scope });
                    stack.push(Frame { id: f, stage: 0, scope: body_scope });
                }
                (Node::Let(x, e, f), 2) => {
                    let re = self.take(e).expect("bound term done");
                    let mut rf = self.take(f).expect("body done");
                    let s = rf.env.remove(x);
                    // (Let) side condition s > 0.
                    let s_bar = if s.is_zero() { self.epsilon() } else { s };
                    let scaled = re.env.scale(&s_bar).ok_or(CheckError::NonlinearGrade)?;
                    self.done(id, rf.env.add(scaled), rf.ty, scope);
                }

                (Node::LetFun(x, decl, body, rest), 1) => {
                    let rb = self.results.get(&body).expect("function body done");
                    let inferred = rb.ty;
                    let assigned = match decl {
                        None => inferred,
                        Some(declared) => {
                            if !self.arena.subtype(inferred, declared) {
                                return Err(CheckError::DeclaredMismatch {
                                    name: self.store.var_name(x).to_string(),
                                    declared: self.show(declared),
                                    inferred: self.show(inferred),
                                });
                            }
                            declared
                        }
                    };
                    self.fns.push(FnReport {
                        name: self.store.var_name(x).to_string(),
                        inferred: self.show(inferred),
                        assigned: self.show(assigned),
                    });
                    self.var_tys.insert(x, assigned);
                    let rest_scope = self.scope_child(scope, x, assigned);
                    stack.push(Frame { id, stage: 2, scope });
                    stack.push(Frame { id: rest, stage: 0, scope: rest_scope });
                }
                (Node::LetFun(x, _, body, rest), 2) => {
                    let rb = self.take(body).expect("function body done");
                    let mut rr = self.take(rest).expect("rest done");
                    let s = rr.env.remove(x);
                    let s_bar = if s.is_zero() { self.epsilon() } else { s };
                    let scaled = rb.env.scale(&s_bar).ok_or(CheckError::NonlinearGrade)?;
                    self.done(id, rr.env.add(scaled), rr.ty, scope);
                }

                (node, stage) => unreachable!("invalid checker state: {node:?} at stage {stage}"),
            }
        }
        Ok(())
    }
}
