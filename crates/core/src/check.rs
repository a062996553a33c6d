//! Algorithmic sensitivity inference (paper Fig. 10): the forward rule
//! set over the shared judgment walker ([`crate::walk`]).
//!
//! The checker is bottom-up: it computes, for every subterm, the *minimal*
//! environment of variable sensitivities and the most precise type, and
//! compares against annotations using the subtype relation (Fig. 12).
//! The walker owns the traversal, binder introduction and memoization;
//! this module holds only the per-node rules.
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

use crate::arena::{ArenaInner, TyId, TyNode, NUM_ID as NUM, UNIT_ID as UNIT};
use crate::cache::{
    ForwardJudgment, JudgmentCache, JudgmentCounts, JudgmentEntry, NodeFingerprints, ReportWindow,
};
use crate::env::Env;
use crate::grade::Grade;
use crate::sig::Signature;
use crate::term::{Node, TermId, TermStore, VarId};
use crate::ty::Ty;
use crate::walk::{walk, CheckError, Rules, Walker};

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
    walk::<Forward>(store, sig, root, free, None).map(|(result, _)| result)
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
    walk::<Forward>(store, sig, root, free, Some((cache, config)))
}

/// The forward rule set: Fig. 10 over the shared walker.
#[derive(Default)]
struct Forward;

impl Rules for Forward {
    type Judgment = Judgment;
    type Report = FnReport;
    type Canon = FnReport;
    type Output = CheckResult;

    fn ty(j: &Judgment) -> TyId {
        j.ty
    }

    fn rule(w: &mut Walker<'_, Self>, node: Node) -> Result<Judgment, CheckError> {
        let (env, ty) = match node {
            // ----- leaves -----
            Node::Var(v) => (Env::singleton(v, Grade::one()), w.var_ty(v)?),
            Node::UnitVal => (Env::empty(), UNIT),
            Node::Const(_) => (Env::empty(), NUM),
            Node::Err(g, t) => (Env::empty(), w.arena.mk(TyNode::Monad(g, t))),

            // ----- single-child nodes -----
            Node::Inl(v, rt) => {
                let r = w.take(v);
                (r.env, w.arena.mk(TyNode::Sum(r.ty, rt)))
            }
            Node::Inr(v, lt) => {
                let r = w.take(v);
                (r.env, w.arena.mk(TyNode::Sum(lt, r.ty)))
            }
            Node::BoxIntro(g, v) => {
                let r = w.take(v);
                let env = r.env.scale(w.arena.grade(g)).ok_or(CheckError::NonlinearGrade)?;
                (env, w.arena.mk(TyNode::Bang(g, r.ty)))
            }
            Node::Rnd(v) => {
                let r = w.take(v);
                if r.ty != NUM {
                    return Err(w.expected("a numeric argument to rnd", r.ty));
                }
                (r.env, w.arena.mk(TyNode::Monad(w.rnd_grade_id, NUM)))
            }
            Node::Ret(v) => {
                let r = w.take(v);
                (r.env, w.arena.mk(TyNode::Monad(w.zero_grade_id, r.ty)))
            }
            Node::Proj(first, v) => {
                let r = w.take(v);
                match w.arena.node(r.ty) {
                    TyNode::With(a, b) => (r.env, if first { a } else { b }),
                    _ => return Err(w.expected("a cartesian pair", r.ty)),
                }
            }
            Node::Op(op_idx, v) => {
                let r = w.take(v);
                let (arg, ret) = w.op_sig(op_idx)?;
                let env = if w.arena.subtype(r.ty, arg) {
                    r.env
                } else {
                    match w.arena.node(arg) {
                        // Implicit boxing: `sqrt x` elaborates as
                        // `sqrt [x]{g}`, scaling the environment by the
                        // domain's grade (the (!I) rule applied on the fly).
                        TyNode::Bang(g, inner) if w.arena.subtype(r.ty, inner) => {
                            r.env.scale(w.arena.grade(g)).ok_or(CheckError::NonlinearGrade)?
                        }
                        _ => {
                            return Err(CheckError::OpArgMismatch {
                                op: w.store.op_name(op_idx).to_string(),
                                expected: w.show(arg),
                                found: w.show(r.ty),
                            })
                        }
                    }
                };
                (env, ret)
            }

            // ----- pairs and application -----
            Node::PairW(a, b) => {
                let (ra, rb) = (w.take(a), w.take(b));
                (ra.env.sup(rb.env), w.arena.mk(TyNode::With(ra.ty, rb.ty)))
            }
            Node::PairT(a, b) => {
                let (ra, rb) = (w.take(a), w.take(b));
                (ra.env.add(rb.env), w.arena.mk(TyNode::Tensor(ra.ty, rb.ty)))
            }
            Node::App(a, b) => {
                let (ra, rb) = (w.take(a), w.take(b));
                let TyNode::Lolli(dom, cod) = w.arena.node(ra.ty) else {
                    return Err(w.expected("a function", ra.ty));
                };
                if !w.arena.subtype(rb.ty, dom) {
                    return Err(CheckError::ArgMismatch {
                        expected: w.show(dom),
                        found: w.show(rb.ty),
                    });
                }
                (ra.env.add(rb.env), cod)
            }

            // ----- binders -----
            Node::Lam(x, ty_id, body) => {
                let mut r = w.take(body);
                let s = r.env.remove(x);
                if !s.le(&Grade::one()) {
                    return Err(CheckError::LambdaSensitivity { var: w.name(x), got: s });
                }
                (r.env, w.arena.mk(TyNode::Lolli(ty_id, r.ty)))
            }
            Node::LetTensor(x, y, v, e) => {
                let (rv, mut re) = (w.take(v), w.take(e));
                let s = re.env.remove(x).sup(&re.env.remove(y));
                let scaled = rv.env.scale(&s).ok_or(CheckError::NonlinearGrade)?;
                (re.env.add(scaled), re.ty)
            }
            Node::Case(v, x, e1, y, e2) => {
                let (rv, mut r1, mut r2) = (w.take(v), w.take(e1), w.take(e2));
                let s = r1.env.remove(x).sup(&r2.env.remove(y));
                // (+E) side condition s > 0: keep a positive dependence
                // on the guard (the figure's s̄).
                let s_bar = positive(w, s);
                let ty = w.arena.sup(r1.ty, r2.ty).ok_or_else(|| {
                    CheckError::BranchTypeMismatch { left: w.show(r1.ty), right: w.show(r2.ty) }
                })?;
                let scaled = rv.env.scale(&s_bar).ok_or(CheckError::NonlinearGrade)?;
                (r1.env.sup(r2.env).add(scaled), ty)
            }
            Node::LetBox(x, v, e) => {
                let (rv, mut re) = (w.take(v), w.take(e));
                let TyNode::Bang(s, _) = w.arena.node(rv.ty) else {
                    unreachable!("checked when the binder was introduced")
                };
                let t = re
                    .env
                    .remove(x)
                    .div_min(w.arena.grade(s))
                    .ok_or_else(|| CheckError::BoxZeroGrade { var: w.name(x) })?;
                let scaled = rv.env.scale(&t).ok_or(CheckError::NonlinearGrade)?;
                (re.env.add(scaled), re.ty)
            }
            Node::LetBind(x, v, f) => {
                let (rv, mut rf) = (w.take(v), w.take(f));
                let TyNode::Monad(r, _) = w.arena.node(rv.ty) else {
                    unreachable!("checked when the binder was introduced")
                };
                let TyNode::Monad(q, tau) = w.arena.node(rf.ty) else {
                    return Err(w.expected("a monadic body in let-bind", rf.ty));
                };
                let s = rf.env.remove(x);
                let sr = s.checked_mul(w.arena.grade(r)).ok_or(CheckError::NonlinearGrade)?;
                let grade = sr.add(w.arena.grade(q));
                let scaled = rv.env.scale(&s).ok_or(CheckError::NonlinearGrade)?;
                let gid = w.arena.intern_grade_owned(grade);
                (rf.env.add(scaled), w.arena.mk(TyNode::Monad(gid, tau)))
            }
            // (Let) side condition s > 0; a function binding composes the
            // same way.
            Node::Let(x, e, f) | Node::LetFun(x, _, e, f) => {
                let (re, mut rf) = (w.take(e), w.take(f));
                let s_bar = positive(w, rf.env.remove(x));
                let scaled = re.env.scale(&s_bar).ok_or(CheckError::NonlinearGrade)?;
                (rf.env.add(scaled), rf.ty)
            }
        };
        Ok(Judgment { env, ty })
    }

    fn bind(
        w: &mut Walker<'_, Self>,
        x: VarId,
        bound: TermId,
        assigned: TyId,
        fun: bool,
        scope: u64,
    ) -> u64 {
        if fun {
            let inferred = w.judged(bound).ty;
            let report = FnReport {
                name: w.name(x),
                inferred: w.show(inferred),
                assigned: w.show(assigned),
            };
            w.reports.push(report);
        }
        w.scope_child(scope, x, assigned)
    }

    fn entry(j: &Judgment, fps: &NodeFingerprints, arena: &ArenaInner) -> Option<JudgmentEntry> {
        let mut env = Vec::with_capacity(j.env.len());
        for (v, g) in j.env.iter() {
            env.push((fps.canon(*v)?, g.clone()));
        }
        env.sort_by_key(|(c, _)| *c);
        let ty = arena.resolve(j.ty);
        Some(JudgmentEntry::Forward(ForwardJudgment { env, ty, fns: ReportWindow::default() }))
    }

    fn canon(report: &FnReport) -> Option<FnReport> {
        Some(report.clone())
    }

    fn attach(entry: &mut JudgmentEntry, fns: ReportWindow<FnReport>) {
        if let JudgmentEntry::Forward(j) = entry {
            j.fns = fns;
        }
    }

    fn replay(
        entry: &JudgmentEntry,
        fps: &NodeFingerprints,
        _store: &TermStore,
        arena: &mut ArenaInner,
        reports: &mut Vec<FnReport>,
    ) -> Option<Judgment> {
        let JudgmentEntry::Forward(j) = entry else { return None };
        let mut env = Vec::with_capacity(j.env.len());
        for (canon, g) in &j.env {
            env.push((fps.var(*canon)?, g.clone()));
        }
        reports.extend(j.fns.reports().iter().cloned());
        Some(Judgment { env: Env::from_entries(env), ty: arena.intern(&j.ty) })
    }

    fn output(_store: &TermStore, root: Judgment, ty: Ty, fns: Vec<FnReport>) -> CheckResult {
        CheckResult { root: Inferred { env: root.env, ty }, fns }
    }
}

/// The positive stand-in for a zero scaling in (Let)/(+E) — the figure's
/// `ε`.
fn positive(w: &Walker<'_, Forward>, s: Grade) -> Grade {
    if s.is_zero() {
        w.sig.rnd_grade().clone()
    } else {
        s
    }
}
