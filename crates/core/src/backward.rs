//! Backward-error inference: the **Bean** judgment as a second rule set
//! over the shared judgment walker ([`crate::walk`]).
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
//! Bean's discipline is **strictly linear** and first-order, which these
//! rules enforce with the backward variants of [`CheckError`] (surfaced
//! as the facade's `E05xx` diagnostics):
//!
//! * every non-unit binder must be consumed ([`CheckError::UnusedLinear`]),
//! * no variable may be consumed twice — general contraction is exactly
//!   what backward error cannot cross ([`CheckError::DuplicatedUse`]),
//! * `case` branches must consume the same context
//!   ([`CheckError::BranchSupport`]),
//! * constructs with no backward reading are rejected
//!   ([`CheckError::Incompatible`]): `!`-introduction/elimination,
//!   Cartesian projections, first-class function values, `err` — all but
//!   the function values before their children are visited,
//! * rounding error must land on *some* linear input — `rnd` over
//!   constants has nowhere to push its error ([`CheckError::NoCarrier`]).
//!
//! Top-level `function`s are Bean's non-linear (duplicable) context: a
//! function *name* is not a tracked resource, but its captured linear
//! variables travel with every use, so a twice-called closure over a
//! linear variable still reports a duplicated use. This context lives in
//! the rule set's `Let`/`LetFun` binder hook, which also folds it into
//! the memo scope chain and keeps a canonical mirror of the function
//! reports for memoization.

use crate::arena::{ArenaInner, GradeId, TyId, TyNode, NUM_ID as NUM, UNIT_ID as UNIT};
use crate::cache::{
    BackwardFnEntry, BackwardJudgment, BackwardParamEntry, JudgmentCache, JudgmentCounts,
    JudgmentEntry, NodeFingerprints, ReportWindow, StableHasher,
};
use crate::env::BackwardEnv;
use crate::grade::{Coeffect, Grade};
use crate::sig::Signature;
use crate::term::{grow_to, Node, TermId, TermStore, VarId};
use crate::ty::Ty;
use crate::walk::{walk, CheckError, Rules, Walker};

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

/// Infers per-input backward error bounds for `root`, with `free` giving
/// types for free variables.
///
/// # Errors
///
/// Any [`CheckError`]; the pass is complete for the algorithmic system,
/// so an error means the term lies outside Bean's backward-typable
/// fragment (or is ill-shaped).
pub fn infer_backward(
    store: &TermStore,
    sig: &Signature,
    root: TermId,
    free: &[(VarId, Ty)],
) -> Result<BackwardResult, CheckError> {
    walk::<Bean>(store, sig, root, free, None).map(|(result, _)| result)
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
) -> Result<(BackwardResult, JudgmentCounts), CheckError> {
    walk::<Bean>(store, sig, root, free, Some((cache, config)))
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

/// A function report with its canonical mirror (memoized passes only).
/// Parameter *names* are presentation — lambda binder names are not part
/// of the content fingerprint — so the mirror is memoized instead of the
/// rendered report. A `None` mirror in a memoized pass marks a report
/// that could not be canonicalized, poisoning every report window of the
/// pass.
#[derive(Clone, Debug)]
struct BReport {
    shown: BackwardFnReport,
    canon: Option<BackwardFnEntry>,
}

/// Bean's rule set, with its duplicable function context: the
/// function-bound variables, with their captured linear context and
/// parameter demands, replayed at every use site.
#[derive(Default)]
struct Bean {
    /// By [`VarId`]; `None` for variables outside the function context.
    fn_sigs: Vec<Option<(BackwardEnv, Option<BFun>)>>,
}

impl Rules for Bean {
    type Judgment = BJudgment;
    type Report = BReport;
    type Canon = BackwardFnEntry;
    type Output = BackwardResult;

    fn ty(j: &BJudgment) -> TyId {
        j.ty
    }

    fn enter(node: Node) -> Result<(), CheckError> {
        let construct = match node {
            Node::Proj(..) => "projection from a cartesian pair",
            Node::BoxIntro(..) => "box introduction",
            Node::LetBox(..) => "box elimination",
            Node::Err(..) => "the `err` value",
            _ => return Ok(()),
        };
        Err(CheckError::Incompatible { construct })
    }

    fn rule(w: &mut Walker<'_, Self>, node: Node) -> Result<BJudgment, CheckError> {
        let (env, ty, fun) = match node {
            Node::Proj(..) | Node::BoxIntro(..) | Node::LetBox(..) | Node::Err(..) => {
                unreachable!("rejected on entry")
            }

            // ----- leaves -----
            Node::Var(v) => {
                let ty = w.var_ty(v)?;
                match w.rules.fn_sigs.get(v.0 as usize) {
                    Some(Some((caps, fun))) => (caps.clone(), ty, fun.clone()),
                    _ => (BackwardEnv::consume(v), ty, None),
                }
            }
            Node::UnitVal => (BackwardEnv::empty(), UNIT, None),
            Node::Const(_) => (BackwardEnv::empty(), NUM, None),

            // ----- single-child nodes -----
            Node::Inl(v, rt) => {
                let r = w.take(v);
                (r.env, w.arena.mk(TyNode::Sum(r.ty, rt)), None)
            }
            Node::Inr(v, lt) => {
                let r = w.take(v);
                (r.env, w.arena.mk(TyNode::Sum(lt, r.ty)), None)
            }
            Node::Rnd(v) => {
                let r = w.take(v);
                if r.ty != NUM {
                    return Err(w.expected("a numeric argument to rnd", r.ty));
                }
                if r.env.is_empty() {
                    // The committed rounding error has nowhere to go:
                    // constants cannot be perturbed.
                    return Err(CheckError::NoCarrier { site: "rnd" });
                }
                let eps = w.sig.rnd_grade();
                let env = r.env.try_update(|c| c.charge(eps)).ok_or(CheckError::NonlinearGrade)?;
                (env, w.arena.mk(TyNode::Monad(w.rnd_grade_id, NUM)), None)
            }
            Node::Ret(v) => {
                let r = w.take(v);
                (r.env, w.arena.mk(TyNode::Monad(w.zero_grade_id, r.ty)), r.fun)
            }
            Node::Op(op_idx, v) => {
                let r = w.take(v);
                let (arg, ret) = w.op_sig(op_idx)?;
                let env = if w.arena.subtype(r.ty, arg) {
                    r.env
                } else {
                    match w.arena.node(arg) {
                        // Implicit boxing (`sqrt x`): the backward demand
                        // through the op amplifies by the inverse of the
                        // declared sensitivity.
                        TyNode::Bang(g, inner) if w.arena.subtype(r.ty, inner) => {
                            let factor = inverse_amplification(w, g);
                            r.env
                                .try_update(|c| c.amplify(&factor))
                                .ok_or(CheckError::NonlinearGrade)?
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
                (env, ret, None)
            }

            // ----- pairs and application -----
            Node::PairW(a, b) => {
                let (ra, rb) = (w.take(a), w.take(b));
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
                let env = ea.merge_disjoint(eb).map_err(|v| dup(w, v))?;
                (env, w.arena.mk(TyNode::With(ra.ty, rb.ty)), None)
            }
            Node::PairT(a, b) => {
                let (ra, rb) = (w.take(a), w.take(b));
                let env = ra.env.merge_disjoint(rb.env).map_err(|v| dup(w, v))?;
                (env, w.arena.mk(TyNode::Tensor(ra.ty, rb.ty)), None)
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
                // Bean is first-order: only (possibly partially applied)
                // top-level functions carry backward parameter demands.
                let Some(BFun { mut params }) = ra.fun else {
                    return Err(CheckError::Incompatible {
                        construct: "first-class function application",
                    });
                };
                let first = params.remove(0);
                let shifted = compose(rb.env, &first.demand, "application")?;
                let env = ra.env.merge_disjoint(shifted).map_err(|v| dup(w, v))?;
                (env, cod, (!params.is_empty()).then_some(BFun { params }))
            }

            // ----- binders -----
            Node::Lam(x, ty_id, body) => {
                let mut r = w.take(body);
                let demand = consume_binder(w, &mut r.env, x, ty_id)?;
                let mut params = vec![BParam { var: x, named: ty_id != UNIT, demand }];
                if let Some(bf) = r.fun {
                    params.extend(bf.params);
                }
                (r.env, w.arena.mk(TyNode::Lolli(ty_id, r.ty)), Some(BFun { params }))
            }
            Node::LetTensor(x, y, v, e) => {
                let (rv, mut re) = (w.take(v), w.take(e));
                let TyNode::Tensor(a, b) = w.arena.node(rv.ty) else {
                    unreachable!("checked when the binders were introduced")
                };
                let cx = consume_binder(w, &mut re.env, x, a)?;
                let cy = consume_binder(w, &mut re.env, y, b)?;
                // The scrutinee pair carries both components' demands
                // (sum metric on ⊗).
                let shifted = compose(rv.env, &cx.join_add(&cy), "let-tensor")?;
                let env = re.env.merge_disjoint(shifted).map_err(|v| dup(w, v))?;
                (env, re.ty, re.fun)
            }
            Node::Case(v, x, e1, y, e2) => {
                let (rv, mut r1, mut r2) = (w.take(v), w.take(e1), w.take(e2));
                let TyNode::Sum(a, b) = w.arena.node(rv.ty) else {
                    unreachable!("checked when the binders were introduced")
                };
                let c1 = consume_binder(w, &mut r1.env, x, a)?;
                let c2 = consume_binder(w, &mut r2.env, y, b)?;
                let ty = w.arena.sup(r1.ty, r2.ty).ok_or_else(|| {
                    CheckError::BranchTypeMismatch { left: w.show(r1.ty), right: w.show(r2.ty) }
                })?;
                // Bean's case: both branches must consume the same linear
                // context (either may be taken at runtime).
                let theta = r1
                    .env
                    .sup_same_support(r2.env)
                    .map_err(|v| CheckError::BranchSupport { var: w.name(v) })?;
                let shifted = compose(rv.env, &c1.sup(&c2), "case")?;
                let env = theta.merge_disjoint(shifted).map_err(|v| dup(w, v))?;
                (env, ty, None)
            }
            Node::LetBind(x, v, f) => {
                let (rv, mut rf) = (w.take(v), w.take(f));
                let TyNode::Monad(r, inner) = w.arena.node(rv.ty) else {
                    unreachable!("checked when the binder was introduced")
                };
                let TyNode::Monad(q, tau) = w.arena.node(rf.ty) else {
                    return Err(w.expected("a monadic body in let-bind", rf.ty));
                };
                let c = consume_binder(w, &mut rf.env, x, inner)?;
                let shifted = compose(rv.env, &c, "let-bind")?;
                let env = rf.env.merge_disjoint(shifted).map_err(|v| dup(w, v))?;
                // Linear sequencing: the stage grades add (the forward
                // grade is kept so both modes print the same types).
                let grade = w.arena.grade(r).add(w.arena.grade(q));
                let gid = w.arena.intern_grade_owned(grade);
                (env, w.arena.mk(TyNode::Monad(gid, tau)), None)
            }
            Node::Let(x, e, f) => {
                let (re, mut rf) = (w.take(e), w.take(f));
                if re.fun.is_some() {
                    // Alias composition happened at the use sites; an
                    // unused alias simply drops (its captures are then
                    // reported unused at their own binders).
                    (rf.env, rf.ty, rf.fun)
                } else {
                    let c = consume_binder(w, &mut rf.env, x, re.ty)?;
                    let shifted = compose(re.env, &c, "let")?;
                    let env = rf.env.merge_disjoint(shifted).map_err(|v| dup(w, v))?;
                    (env, rf.ty, rf.fun)
                }
            }
            // The function's demands replay at its call sites (see
            // `bind`); only the rest of the program contributes here.
            Node::LetFun(_, _, body, rest) => {
                w.take(body);
                let rr = w.take(rest);
                (rr.env, rr.ty, rr.fun)
            }
        };
        Ok(BJudgment { env, ty, fun })
    }

    fn bind(
        w: &mut Walker<'_, Self>,
        x: VarId,
        bound: TermId,
        assigned: TyId,
        fun: bool,
        scope: u64,
    ) -> u64 {
        let j = w.judged(bound);
        if !fun && j.fun.is_none() {
            return w.scope_child(scope, x, assigned);
        }
        // A function, or an alias of one: uses of `x` replay its captures
        // and demands (Bean's duplicable context), so `x` itself is not a
        // tracked resource — but the replayed content is part of what the
        // body's judgments depend on, hence the richer scope hash.
        let (caps, params) = (j.env.clone(), j.fun.clone());
        if fun {
            report(w, x, assigned, &params);
        }
        let inner = scope_child_fn(w, scope, x, assigned, &caps, &params);
        *grow_to(&mut w.rules.fn_sigs, x.0 as usize, None) = Some((caps, params));
        inner
    }

    fn entry(j: &BJudgment, fps: &NodeFingerprints, arena: &ArenaInner) -> Option<JudgmentEntry> {
        let mut env = Vec::with_capacity(j.env.len());
        for (v, c) in j.env.iter() {
            env.push((fps.canon(*v)?, c.clone()));
        }
        env.sort_by_key(|(n, _)| *n);
        let fun = match &j.fun {
            None => None,
            Some(bf) => {
                let mut params = Vec::with_capacity(bf.params.len());
                for p in &bf.params {
                    let var = fps.canon(p.var)?;
                    params.push(BackwardParamEntry {
                        var,
                        named: p.named,
                        demand: p.demand.clone(),
                    });
                }
                Some(params)
            }
        };
        let ty = arena.resolve(j.ty);
        let fns = ReportWindow::default();
        Some(JudgmentEntry::Backward(BackwardJudgment { env, ty, fun, fns }))
    }

    fn canon(report: &BReport) -> Option<BackwardFnEntry> {
        report.canon.clone()
    }

    fn attach(entry: &mut JudgmentEntry, fns: ReportWindow<BackwardFnEntry>) {
        if let JudgmentEntry::Backward(j) = entry {
            j.fns = fns;
        }
    }

    fn replay(
        entry: &JudgmentEntry,
        fps: &NodeFingerprints,
        store: &TermStore,
        arena: &mut ArenaInner,
        reports: &mut Vec<BReport>,
    ) -> Option<BJudgment> {
        let JudgmentEntry::Backward(j) = entry else { return None };
        let mut env = Vec::with_capacity(j.env.len());
        for (canon, c) in &j.env {
            env.push((fps.var(*canon)?, c.clone()));
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
        let mut replayed = Vec::with_capacity(j.fns.reports().len());
        for e in j.fns.reports() {
            let mut inputs = Vec::with_capacity(e.inputs.len());
            for (canon, g) in &e.inputs {
                inputs.push((store.var_name(fps.var(*canon)?).to_string(), g.clone()));
            }
            let shown =
                BackwardFnReport { name: e.name.clone(), assigned: e.assigned.clone(), inputs };
            replayed.push(BReport { shown, canon: Some(e.clone()) });
        }
        reports.extend(replayed);
        Some(BJudgment { env: BackwardEnv::from_entries(env), ty: arena.intern(&j.ty), fun })
    }

    fn output(store: &TermStore, root: BJudgment, ty: Ty, fns: Vec<BReport>) -> BackwardResult {
        let inputs =
            root.env.iter().map(|(v, c)| (store.var_name(*v).to_string(), c.err.clone())).collect();
        let fns = fns.into_iter().map(|r| r.shown).collect();
        BackwardResult { root: BackwardInferred { inputs, ty }, fns }
    }
}

/// Emits the report for the function `x : assigned` with parameters
/// `params`, and its canonical mirror when memoizing (`None` if a
/// parameter cannot be canonicalized).
fn report(w: &mut Walker<'_, Bean>, x: VarId, assigned: TyId, params: &Option<BFun>) {
    let named = || params.iter().flat_map(|bf| &bf.params).filter(|p| p.named);
    let inputs = named().map(|p| (w.name(p.var), p.demand.err.clone())).collect();
    let shown = BackwardFnReport { name: w.name(x), assigned: w.show(assigned), inputs };
    let canon = w.memo.as_ref().and_then(|memo| {
        let inputs = named().map(|p| Some((memo.fps.canon(p.var)?, p.demand.err.clone())));
        Some(BackwardFnEntry {
            name: shown.name.clone(),
            assigned: shown.assigned.clone(),
            inputs: inputs.collect::<Option<_>>()?,
        })
    });
    w.reports.push(BReport { shown, canon });
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

/// Scope extension for a binder entering the duplicable function
/// context: uses of the binder replay the function's captured linear
/// context and parameter demands, so downstream judgments depend on that
/// content and it must be folded into the chain alongside the binder's
/// type.
fn scope_child_fn(
    w: &mut Walker<'_, Bean>,
    parent: u64,
    x: VarId,
    ty: TyId,
    caps: &BackwardEnv,
    fun: &Option<BFun>,
) -> u64 {
    let base = w.scope_child(parent, x, ty);
    let Some(memo) = &w.memo else { return 0 };
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

fn dup(w: &Walker<'_, Bean>, v: VarId) -> CheckError {
    CheckError::DuplicatedUse { var: w.name(v) }
}

/// The backward amplification through an operation whose domain is boxed
/// at `grade`: the inverse of the (finite, positive, constant) forward
/// sensitivity; anything else — zero, `∞` (comparisons), or symbolic —
/// admits no finite backward routing.
fn inverse_amplification(w: &Walker<'_, Bean>, grade: GradeId) -> Grade {
    match w.arena.grade(grade).as_constant() {
        Some(c) if !c.is_zero() => Grade::constant(c.recip()),
        _ => Grade::infinite(),
    }
}

/// Replays a binder's accumulated demand onto its producer's context: the
/// (Let)/(⊸E)/(case) composition step. A demanded producer with an empty
/// context means the demand lands on constants.
fn compose(
    producer: BackwardEnv,
    binder: &Coeffect,
    site: &'static str,
) -> Result<BackwardEnv, CheckError> {
    if producer.is_empty() && !binder.err.is_zero() {
        return Err(CheckError::NoCarrier { site });
    }
    producer.try_update(|c| c.seq(binder)).ok_or(CheckError::NonlinearGrade)
}

/// Removes a binder from a body context, enforcing consumption for
/// binders that carry data (`unit`-typed binders are vacuous).
fn consume_binder(
    w: &Walker<'_, Bean>,
    env: &mut BackwardEnv,
    x: VarId,
    ty: TyId,
) -> Result<Coeffect, CheckError> {
    match env.remove(x) {
        Some(c) => Ok(c),
        None if ty == UNIT => Ok(Coeffect::vacuous()),
        None => Err(CheckError::UnusedLinear { var: w.name(x) }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::compile;
    use crate::sig::Signature;

    fn rp(src: &str) -> Result<BackwardResult, CheckError> {
        let sig = Signature::relative_precision();
        let lowered = compile(src, &sig).expect("compiles");
        infer_backward(&lowered.store, &sig, lowered.root, &[])
    }

    fn abs(src: &str) -> Result<BackwardResult, CheckError> {
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
            CheckError::UnusedLinear { var: "x".into() }
        );
    }

    #[test]
    fn duplicated_use_is_rejected() {
        assert_eq!(
            rp("function f (x: num) : M[eps]num { rnd (mul (x, x)) }").unwrap_err(),
            CheckError::DuplicatedUse { var: "x".into() }
        );
    }

    #[test]
    fn rounding_constants_has_no_carrier() {
        assert_eq!(rp("rnd 1.5").unwrap_err(), CheckError::NoCarrier { site: "rnd" });
        // The same through a composition: a demanded producer with an
        // empty context.
        let err = rp(r#"
            function mulfp (xy: (num, num)) : M[eps]num { s = mul xy; rnd s }
            mulfp (2, 3)
        "#)
        .unwrap_err();
        assert_eq!(err, CheckError::NoCarrier { site: "application" });
    }

    #[test]
    fn boxes_and_projections_are_outside_the_fragment() {
        assert!(matches!(
            rp("function f (x: ![2]num) : M[eps]num { let [y] = x; rnd y }").unwrap_err(),
            CheckError::Incompatible { construct: "box elimination" }
        ));
        assert!(matches!(
            rp("fst (|1, 2|)").unwrap_err(),
            CheckError::Incompatible { construct: "projection from a cartesian pair" }
        ));
        assert!(matches!(
            rp("p = [3]{2}; ret p").unwrap_err(),
            CheckError::Incompatible { construct: "box introduction" }
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
        assert_eq!(err, CheckError::BranchSupport { var: "y".into() });
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
        assert_eq!(err, CheckError::DuplicatedUse { var: "w".into() });
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
        assert_eq!(rp("k = 3; ret 0").unwrap_err(), CheckError::UnusedLinear { var: "k".into() });
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
            CheckError::Incompatible { construct: "first-class function application" }
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
