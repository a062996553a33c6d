//! `numfuzz optimize` — sound rewrite + precision search using the
//! analyzer as a fitness function.
//!
//! The optimizer treats the typed judgment as an oracle, the direction
//! PAPERS.md's *Towards a Compiler for Reals* (Darulova & Kuncak) points
//! at: search over algebraic rewrites of the surface program that
//! preserve the *ideal* (real-valued) semantics, re-derive rounding
//! placement when emitting each candidate back to surface syntax (one
//! `rnd` per operation), and let the eq. (8) bound of the re-checked
//! candidate decide fitness, subject to an operation-count cost model.
//!
//! The pipeline per candidate is the full facade, so no unsound rewrite
//! can win:
//!
//! 1. **Probe**: the candidate is emitted as a *closed* let-chain with
//!    the committed argument values inlined, then parsed, type-checked
//!    and bounded — the inferred root grade is the candidate's exact
//!    monadic error grade (leaves contribute no accumulated error, so
//!    the grade is structural).
//! 2. **Function form**: the candidate is re-emitted as the original
//!    `function` declaration (same name, same parameter types, declared
//!    return grade = the probe grade) plus the original trailing
//!    application, and must re-check. A candidate that uses a parameter
//!    above its declared sensitivity is rejected here.
//! 3. **Interval cross-check**: the interval engine (`crates/bounds`)
//!    must produce a bound for the rewritten function over the standard
//!    `[0.1, 1000]` box (the same box `numfuzz table1` uses).
//! 4. **End-to-end validation**: the function form runs under both
//!    semantics at the committed point and must meet its bound
//!    (Corollary 4.20, [`Analyzer::validate`]) — the one soundness report
//!    each candidate gets.
//! 5. **Exact-oracle spot validation**: the candidate's ideal value is
//!    compared against the *original* program's ideal value at several
//!    sample points (the committed arguments and scaled variants); the
//!    exact-rational enclosures must overlap. Only ideal values are
//!    read, so both sides run the ideal semantics alone.
//!
//! Search is a deterministic, seeded beam search over the
//! [`numfuzz_core::rewrite`] rules; candidate evaluation shards onto the
//! worker pool ([`numfuzz_core::pool`]) with byte-identical results at
//! every `--jobs` value (candidate order is fixed before dispatch,
//! results are collected in input order, and selection is
//! lexicographic).

use crate::analyzer::{Analyzer, Inputs, Typed};
use crate::diag::{Diagnostic, ErrorCode};
use crate::program::Program;
use numfuzz_core::rewrite::{self, decimal_literal, ENode, ExprArena, ExprId};
use numfuzz_core::{Grade, Instantiation, Node, TermId, TermStore, Ty, VarId};
use numfuzz_exact::{RatInterval, Rational};
use numfuzz_fuzz::rp_format_palette;
use numfuzz_interp::Value;
use std::collections::HashSet;
use std::rc::Rc;

/// Beam width of the search frontier.
const BEAM: usize = 6;

/// Sample-point scale factors for the exact-oracle leg: the committed
/// arguments, and two scaled variants that stay strictly positive and
/// decimal-printable.
const SAMPLE_SCALES: [(i64, i64); 3] = [(1, 1), (3, 2), (5, 8)];

/// Configuration for [`optimize`].
#[derive(Clone, Debug)]
pub struct OptimizeConfig {
    /// Maximum number of rewrite candidates to evaluate.
    pub budget: usize,
    /// Seed for the (deterministic) candidate shuffle before budget
    /// truncation.
    pub seed: u64,
    /// Worker threads for candidate evaluation (`0` = auto). The result
    /// is byte-identical at every value.
    pub jobs: usize,
    /// Also search per-program precision assignments over the fuzzer's
    /// format palette.
    pub precision_search: bool,
    /// Relative-error target for the precision search; defaults to the
    /// original program's bound at the session format.
    pub target_rel: Option<Rational>,
    /// Test-only: include the deliberately unsound `swap_div` rule so
    /// tests can prove the oracle leg rejects semantically wrong
    /// candidates.
    pub unsound_rule_for_tests: bool,
}

impl Default for OptimizeConfig {
    fn default() -> Self {
        OptimizeConfig {
            budget: 192,
            seed: 42,
            jobs: 1,
            precision_search: false,
            target_rel: None,
            unsound_rule_for_tests: false,
        }
    }
}

/// Bound + cost summary of one program form.
#[derive(Clone, Debug)]
pub struct CandidateReport {
    /// The typed monadic grade (e.g. `3*eps`).
    pub grade: String,
    /// The grade evaluated at the session's unit roundoff.
    pub alpha: Rational,
    /// The eq. (8) relative-error bound, when finite.
    pub relative: Option<Rational>,
    /// Cost-model total over the emitted DAG.
    pub cost: u64,
    /// Operation count over the emitted DAG.
    pub ops: u64,
}

/// Per-rule candidate accounting.
#[derive(Clone, Debug)]
pub struct RuleCount {
    /// Rule name.
    pub rule: &'static str,
    /// Candidates the rule generated (post-dedup).
    pub generated: usize,
    /// Of those, candidates that passed full certification.
    pub certified: usize,
}

/// One row of the `--precision-search` table.
#[derive(Clone, Debug)]
pub struct PrecisionRow {
    /// Format name from the fuzzer's palette.
    pub format: &'static str,
    /// Unit roundoff at the session rounding mode.
    pub unit_roundoff: Rational,
    /// The winner's relative bound re-certified under this format.
    pub relative: Option<Rational>,
    /// Format-scaled cost.
    pub cost: u64,
    /// Whether the re-certified bound meets the target.
    pub meets_target: bool,
}

/// The result of [`optimize`].
#[derive(Clone, Debug)]
pub struct OptimizeOutcome {
    /// Principal function name.
    pub name: String,
    /// Bound + cost of the original program.
    pub original: CandidateReport,
    /// Bound + cost of the winner (equals `original` when unchanged).
    pub best: CandidateReport,
    /// Whether the winner strictly improves (bound, then cost).
    pub improved: bool,
    /// Rewrite candidates evaluated (excluding the original).
    pub evaluated: usize,
    /// Candidates that passed full certification.
    pub certified: usize,
    /// Rejections at the type-check/bound stage.
    pub rejected_check: usize,
    /// Rejections at the interval cross-check stage.
    pub rejected_interval: usize,
    /// Rejections at the exact-oracle stage.
    pub rejected_oracle: usize,
    /// Per-rule accounting, in rule order.
    pub rule_counts: Vec<RuleCount>,
    /// Precision table (only with `precision_search`).
    pub precision: Vec<PrecisionRow>,
    /// Chosen format name (only with `precision_search`).
    pub chosen_format: Option<&'static str>,
    /// Deterministic human-readable report (no timing).
    pub report: String,
    /// The emitted `.nf` source: the rewritten program, or the original
    /// source when unchanged.
    pub rewritten: String,
}

fn unsupported(msg: impl Into<String>) -> Diagnostic {
    Diagnostic::new(ErrorCode::EvalFailed, msg.into())
        .with_note("numfuzz optimize handles first-order programs over add/mul/div/sqrt with constant trailing-application arguments")
}

// ---------------------------------------------------------------------------
// Extraction: core IR → rewrite fragment
// ---------------------------------------------------------------------------

/// A parameter of the principal function.
#[derive(Clone, Debug)]
struct Param {
    name: String,
    /// `Some(grade)` for `![g]num` parameters, `None` for plain `num`.
    bang: Option<Grade>,
    /// Committed trailing-application argument value.
    value: Rational,
}

struct Principal {
    name: String,
    params: Vec<Param>,
    root: ExprId,
}

#[derive(Clone)]
enum SVal {
    E(ExprId),
    PairT(Rc<SVal>, Rc<SVal>),
    PairW(Rc<SVal>, Rc<SVal>),
    Boxed(Rc<SVal>),
    Fun(Rc<SFun>),
    Unit,
}

struct SFun {
    param: VarId,
    ty: numfuzz_core::TyId,
    body: TermId,
    env: Env,
}

type Env = Vec<(VarId, SVal)>;

fn lookup(env: &Env, v: VarId) -> Result<SVal, String> {
    env.iter()
        .rev()
        .find(|(x, _)| *x == v)
        .map(|(_, s)| s.clone())
        .ok_or_else(|| "unbound variable in extraction".to_string())
}

/// Symbolically evaluates the *ideal* semantics of a term into the
/// rewrite fragment (`rnd` is the identity; helper functions are
/// inlined).
fn sym_eval(
    store: &TermStore,
    arena: &mut ExprArena,
    env: &Env,
    id: TermId,
) -> Result<SVal, String> {
    match *store.node(id) {
        Node::Var(v) => lookup(env, v),
        Node::UnitVal => Ok(SVal::Unit),
        Node::Const(ci) => {
            let q = store.constant(ci).clone();
            if !q.is_positive() {
                return Err("non-positive constant outside the RP carrier".into());
            }
            Ok(SVal::E(arena.constant(q)))
        }
        Node::PairW(a, b) => {
            let a = sym_eval(store, arena, env, a)?;
            let b = sym_eval(store, arena, env, b)?;
            Ok(SVal::PairW(Rc::new(a), Rc::new(b)))
        }
        Node::PairT(a, b) => {
            let a = sym_eval(store, arena, env, a)?;
            let b = sym_eval(store, arena, env, b)?;
            Ok(SVal::PairT(Rc::new(a), Rc::new(b)))
        }
        Node::Lam(x, ty, body) => {
            Ok(SVal::Fun(Rc::new(SFun { param: x, ty, body, env: env.clone() })))
        }
        Node::BoxIntro(_, v) => Ok(SVal::Boxed(Rc::new(sym_eval(store, arena, env, v)?))),
        Node::Rnd(v) | Node::Ret(v) => sym_eval(store, arena, env, v),
        Node::App(f, a) => {
            let fun = match sym_eval(store, arena, env, f)? {
                SVal::Fun(fun) => fun,
                _ => return Err("application of a non-function".into()),
            };
            let arg = sym_eval(store, arena, env, a)?;
            let mut inner = fun.env.clone();
            inner.push((fun.param, arg));
            sym_eval(store, arena, &inner, fun.body)
        }
        Node::Proj(first, v) => match sym_eval(store, arena, env, v)? {
            SVal::PairW(a, b) | SVal::PairT(a, b) => {
                Ok(if first { (*a).clone() } else { (*b).clone() })
            }
            _ => Err("projection from a non-pair".into()),
        },
        Node::LetTensor(x, y, v, e) => match sym_eval(store, arena, env, v)? {
            SVal::PairT(a, b) | SVal::PairW(a, b) => {
                let mut env2 = env.clone();
                env2.push((x, (*a).clone()));
                env2.push((y, (*b).clone()));
                sym_eval(store, arena, &env2, e)
            }
            _ => Err("let-tensor of a non-pair".into()),
        },
        Node::LetBox(x, v, e) => {
            let inner = match sym_eval(store, arena, env, v)? {
                SVal::Boxed(inner) => (*inner).clone(),
                other => other,
            };
            let mut env2 = env.clone();
            env2.push((x, inner));
            sym_eval(store, arena, &env2, e)
        }
        Node::LetBind(x, v, e) | Node::Let(x, v, e) => {
            let bound = sym_eval(store, arena, env, v)?;
            let mut env2 = env.clone();
            env2.push((x, bound));
            sym_eval(store, arena, &env2, e)
        }
        Node::LetFun(x, _, body, rest) => {
            let bound = sym_eval(store, arena, env, body)?;
            let mut env2 = env.clone();
            env2.push((x, bound));
            sym_eval(store, arena, &env2, rest)
        }
        Node::Op(op, v) => {
            let name = store.op_name(op).to_string();
            let arg = sym_eval(store, arena, env, v)?;
            let expr_of = |s: &SVal| -> Result<ExprId, String> {
                match s {
                    SVal::E(e) => Ok(*e),
                    SVal::Boxed(inner) => match inner.as_ref() {
                        SVal::E(e) => Ok(*e),
                        _ => Err("non-numeric operand".into()),
                    },
                    _ => Err("non-numeric operand".into()),
                }
            };
            match name.as_str() {
                "add" | "mul" | "div" => {
                    let (a, b) = match &arg {
                        SVal::PairW(a, b) | SVal::PairT(a, b) => {
                            (expr_of(a.as_ref())?, expr_of(b.as_ref())?)
                        }
                        _ => return Err(format!("{name} of a non-pair")),
                    };
                    Ok(SVal::E(match name.as_str() {
                        "add" => arena.add(a, b),
                        "mul" => arena.mul(a, b),
                        _ => arena.div(a, b),
                    }))
                }
                "sqrt" => {
                    let a = expr_of(&arg)?;
                    Ok(SVal::E(arena.sqrt(a)))
                }
                other => Err(format!("operation `{other}` outside the optimizable fragment")),
            }
        }
        Node::Inl(..) | Node::Inr(..) | Node::Case(..) | Node::Err(..) => {
            Err("sums/case/err outside the optimizable fragment".into())
        }
    }
}

/// Resolves the trailing term of a program to `(function var, argument
/// terms)`. The lowering ANF-chains curried applications (`f a b`
/// becomes `let t = f a; t b`), so partial applications bound by `let`
/// are followed through.
fn trailing_application(store: &TermStore, cur: TermId) -> Result<(VarId, Vec<TermId>), String> {
    // Lowered VarIds are unique, so the environment never needs popping.
    fn spine_of(
        store: &TermStore,
        env: &mut Vec<(VarId, (VarId, Vec<TermId>))>,
        id: TermId,
    ) -> Result<(VarId, Vec<TermId>), String> {
        match *store.node(id) {
            Node::Let(x, v, body) | Node::LetBind(x, v, body) => {
                let spine = spine_of(store, env, v)?;
                env.push((x, spine));
                spine_of(store, env, body)
            }
            Node::App(f, a) => {
                let (fv, mut args) = spine_of(store, env, f)?;
                args.push(a);
                Ok((fv, args))
            }
            Node::Var(v) => Ok(env
                .iter()
                .rev()
                .find(|(x, _)| *x == v)
                .map(|(_, s)| s.clone())
                .unwrap_or((v, Vec::new()))),
            _ => Err("trailing term is not an application of a named function".into()),
        }
    }
    spine_of(store, &mut Vec::new(), cur)
}

/// Extracts the principal function (the one the trailing application
/// calls) of a program into the rewrite fragment, with helper functions
/// inlined.
fn extract(program: &Program, arena: &mut ExprArena) -> Result<Principal, Diagnostic> {
    let store = program.store();
    let mut env: Env = Vec::new();
    let mut cur = program.root();
    while let Node::LetFun(x, _, body, rest) = *store.node(cur) {
        let bound = sym_eval(store, arena, &env, body).map_err(unsupported)?;
        env.push((x, bound));
        cur = rest;
    }
    let (fvar, args) = trailing_application(store, cur).map_err(unsupported)?;
    let name = store.var_name(fvar).to_string();
    if args.is_empty() {
        return Err(unsupported("trailing application has no arguments"));
    }
    let mut fun = match lookup(&env, fvar).map_err(unsupported)? {
        SVal::Fun(f) => f,
        _ => return Err(unsupported("trailing application head is not a function")),
    };
    let mut params = Vec::new();
    let mut fenv = fun.env.clone();
    let mut body = fun.body;
    for (i, &arg_term) in args.iter().enumerate() {
        if i > 0 {
            // Walk into the next Lam of the curried chain.
            let Node::Lam(..) = *store.node(body) else {
                return Err(unsupported("more arguments than parameters"));
            };
            let SVal::Fun(next) = sym_eval(store, arena, &fenv, body).map_err(unsupported)? else {
                unreachable!("Lam evaluates to Fun");
            };
            fun = next;
            fenv = fun.env.clone();
            body = fun.body;
        }
        let pname = store.var_name(fun.param).to_string();
        let bang = match store.ty(fun.ty) {
            Ty::Num => None,
            Ty::Bang(g, inner) if *inner == Ty::Num => Some(g),
            other => {
                return Err(unsupported(format!(
                    "parameter `{pname}` has type `{other}`; only num and ![g]num are searchable"
                )))
            }
        };
        let value = match *store.node(arg_term) {
            Node::Const(ci) => store.constant(ci).clone(),
            Node::BoxIntro(_, inner) => match *store.node(inner) {
                Node::Const(ci) => store.constant(ci).clone(),
                _ => return Err(unsupported("non-constant boxed argument")),
            },
            _ => return Err(unsupported("non-constant trailing-application argument")),
        };
        if decimal_literal(&value).is_none() {
            return Err(unsupported("argument is not a positive decimal literal"));
        }
        let leaf = arena.var(i);
        let sval = if bang.is_some() { SVal::Boxed(Rc::new(SVal::E(leaf))) } else { SVal::E(leaf) };
        fenv.push((fun.param, sval));
        params.push(Param { name: pname, bang, value });
    }
    if let Node::Lam(..) = *store.node(body) {
        return Err(unsupported("trailing application is partial"));
    }
    let root = match sym_eval(store, arena, &fenv, body).map_err(unsupported)? {
        SVal::E(e) => e,
        _ => return Err(unsupported("principal function body is not numeric")),
    };
    Ok(Principal { name, params, root })
}

// ---------------------------------------------------------------------------
// Codegen: rewrite fragment → surface syntax
// ---------------------------------------------------------------------------

/// Deterministic post-order list of the operation nodes below (and
/// including) `root`, shared nodes once.
fn topo_ops(arena: &ExprArena, root: ExprId) -> Vec<ExprId> {
    fn walk(arena: &ExprArena, id: ExprId, seen: &mut HashSet<ExprId>, out: &mut Vec<ExprId>) {
        if !seen.insert(id) {
            return;
        }
        match *arena.node(id) {
            ENode::Var(_) | ENode::Const(_) => {}
            ENode::Sqrt(a) => {
                walk(arena, a, seen, out);
                out.push(id);
            }
            ENode::Add(a, b) | ENode::Mul(a, b) | ENode::Div(a, b) => {
                walk(arena, a, seen, out);
                walk(arena, b, seen, out);
                out.push(id);
            }
        }
    }
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    walk(arena, root, &mut seen, &mut out);
    out
}

/// Emits the statement chain for a candidate: one `let t = rnd (op …);`
/// per interior operation, the root operation as the `rnd (…)` tail.
/// `leaf` renders parameter references. Returns `None` when a constant
/// is not decimal-printable or the root is not an operation.
fn emit_body(
    arena: &ExprArena,
    root: ExprId,
    used_names: &[String],
    leaf: &dyn Fn(usize) -> String,
) -> Option<Vec<String>> {
    let ops = topo_ops(arena, root);
    if ops.last() != Some(&root) {
        return None; // root is a leaf: nothing to round, nothing to optimize
    }
    let mut temp_names: Vec<(ExprId, String)> = Vec::new();
    let mut next = 0usize;
    for &id in ops.iter().filter(|&&id| id != root) {
        let name = loop {
            let cand = format!("t{next}");
            next += 1;
            if !used_names.contains(&cand) {
                break cand;
            }
        };
        temp_names.push((id, name));
    }
    let rend = |id: ExprId| -> Option<String> {
        match arena.node(id) {
            ENode::Var(i) => Some(leaf(*i)),
            ENode::Const(q) => decimal_literal(q),
            _ => temp_names.iter().find(|(n, _)| *n == id).map(|(_, s)| s.clone()),
        }
    };
    let op_text = |id: ExprId| -> Option<String> {
        Some(match *arena.node(id) {
            ENode::Add(a, b) => format!("add (| {}, {} |)", rend(a)?, rend(b)?),
            ENode::Mul(a, b) => format!("mul ({}, {})", rend(a)?, rend(b)?),
            ENode::Div(a, b) => format!("div ({}, {})", rend(a)?, rend(b)?),
            ENode::Sqrt(a) => format!("sqrt [{}]{{1/2}}", rend(a)?),
            ENode::Var(_) | ENode::Const(_) => return None,
        })
    };
    let mut lines = Vec::new();
    for (id, name) in &temp_names {
        lines.push(format!("    let {name} = rnd ({});", op_text(*id)?));
    }
    lines.push(format!("    rnd ({})", op_text(root)?));
    Some(lines)
}

/// Placeholder the worker substitutes with the probe-inferred grade.
const GRADE_HOLE: &str = "@@GRADE@@";

/// A fully rendered candidate, ready for (parallel) certification.
struct Job {
    expr: ExprId,
    rule_idx: usize,
    cost: u64,
    ops: u64,
    /// Closed probe sources, one per sample point (first = committed).
    probes: Vec<String>,
    /// Function + trailing application with [`GRADE_HOLE`] for the
    /// declared return grade.
    template: String,
}

fn param_ty_text(p: &Param) -> String {
    match &p.bang {
        None => "num".to_string(),
        Some(g) => format!("![{g}]num"),
    }
}

fn arg_text(p: &Param) -> Option<String> {
    let lit = decimal_literal(&p.value)?;
    Some(match &p.bang {
        None => lit,
        Some(g) => format!("[{lit}]{{{g}}}"),
    })
}

/// Renders a candidate into its probe sources and function template.
fn make_job(
    arena: &ExprArena,
    principal: &Principal,
    expr: ExprId,
    rule_idx: usize,
) -> Option<Job> {
    // Inner names: `x` parameters of `![g]num` type are unboxed to a
    // fresh name in a preamble, mirroring the benchmark style.
    let mut used: Vec<String> = principal.params.iter().map(|p| p.name.clone()).collect();
    let mut inner = Vec::new();
    for p in &principal.params {
        if p.bang.is_some() {
            let mut cand = format!("{}1", p.name);
            while used.contains(&cand) {
                cand.push('_');
            }
            used.push(cand.clone());
            inner.push(cand);
        } else {
            inner.push(p.name.clone());
        }
    }
    let fn_leaf = |i: usize| inner[i].clone();
    let body = emit_body(arena, expr, &used, &fn_leaf)?;

    let mut probes = Vec::new();
    for (sn, sd) in SAMPLE_SCALES {
        let scale = Rational::ratio(sn, sd);
        let values: Vec<String> = principal
            .params
            .iter()
            .map(|p| decimal_literal(&p.value.mul(&scale)))
            .collect::<Option<Vec<_>>>()?;
        let probe_leaf = |i: usize| values[i].clone();
        let lines = emit_body(arena, expr, &[], &probe_leaf)?;
        let mut src = String::new();
        for line in &lines {
            src.push_str(line.trim_start());
            src.push('\n');
        }
        probes.push(src);
    }

    let mut t = String::new();
    t.push_str(&format!("function {}", principal.name));
    for p in &principal.params {
        t.push_str(&format!(" ({}: {})", p.name, param_ty_text(p)));
    }
    t.push_str(&format!(" : M[{GRADE_HOLE}]num {{\n"));
    for (p, inner_name) in principal.params.iter().zip(&inner) {
        if p.bang.is_some() {
            t.push_str(&format!("    let [{inner_name}] = {};\n", p.name));
        }
    }
    for line in &body {
        t.push_str(line);
        t.push('\n');
    }
    t.push_str("}\n");
    t.push_str(&principal.name.to_string());
    for p in &principal.params {
        t.push_str(&format!(" {}", arg_text(p)?));
    }
    t.push('\n');

    Some(Job {
        expr,
        rule_idx,
        cost: arena.op_cost(expr),
        ops: arena.op_count(expr),
        probes,
        template: t,
    })
}

// ---------------------------------------------------------------------------
// Certification
// ---------------------------------------------------------------------------

/// Shared, `Sync` context for worker-side certification.
struct Ctx {
    fname: String,
    ranges: Vec<RatInterval>,
    /// Original-program ideal enclosures at each sample point.
    sample_ideals: Vec<RatInterval>,
}

enum Verdict {
    Certified(Box<Certificate>),
    RejectedCheck,
    RejectedInterval,
    RejectedOracle,
}

/// Payload of a [`Verdict::Certified`] (boxed: the rejection variants
/// are unit-like, and most candidates are rejections).
struct Certificate {
    grade: Grade,
    alpha: Rational,
    relative: Option<Rational>,
    src: String,
}

fn ideal_interval(v: &Value) -> Option<RatInterval> {
    let v = v.as_ret().unwrap_or(v);
    v.as_num().cloned()
}

fn overlap(a: &RatInterval, b: &RatInterval) -> bool {
    a.lo() <= b.hi() && b.lo() <= a.hi()
}

fn check_and_bound(
    session: &Analyzer,
    name: &str,
    src: &str,
) -> Option<(Program, Typed, Grade, Rational, Option<Rational>)> {
    let program = session.parse_named(name, src).ok()?;
    let typed = session.check(&program).ok()?;
    let bound = session.bound(&typed).ok()?;
    Some((program, typed, bound.grade, bound.alpha, bound.relative))
}

/// Runs the full facade over one candidate. Pure in (session, ctx, job):
/// safe to shard.
fn certify(session: &Analyzer, ctx: &Ctx, job: &Job) -> Verdict {
    // 1. Probe: inferred grade from the closed committed-point form.
    let Some((probe, _, grade, alpha, _)) = check_and_bound(session, "probe", &job.probes[0])
    else {
        return Verdict::RejectedCheck;
    };
    // 2. Function form with the probe grade declared.
    let src = job.template.replace(GRADE_HOLE, &grade.to_string());
    let Some((program, _, fgrade, falpha, relative)) = check_and_bound(session, &ctx.fname, &src)
    else {
        return Verdict::RejectedCheck;
    };
    if fgrade != grade || falpha != alpha {
        return Verdict::RejectedCheck;
    }
    // 3. Interval cross-check over the standard box.
    if session.bound_interval_fn(&program, &ctx.fname, &ctx.ranges).is_err() {
        return Verdict::RejectedInterval;
    }
    // 4. End-to-end Corollary 4.20 validation at the committed point.
    match session.validate(&program, &Inputs::none()) {
        Ok(report) if report.holds() => {}
        _ => return Verdict::RejectedOracle,
    }
    // 5. Exact-oracle ideal equivalence at every sample point: the ideal
    // semantics alone (4 ran both at the committed point), starting from
    // the probe leg 1 parsed.
    let scaled = job.probes[1..].iter().map(|src| session.parse_named("probe", src));
    for (probe, want) in std::iter::once(Ok(probe)).chain(scaled).zip(&ctx.sample_ideals) {
        let Ok(probe) = probe else {
            return Verdict::RejectedCheck;
        };
        let Ok(run) = session.run_ideal(&probe, &Inputs::none()) else {
            return Verdict::RejectedOracle;
        };
        let Some(got) = ideal_interval(&run.ideal) else {
            return Verdict::RejectedOracle;
        };
        if !overlap(&got, want) {
            return Verdict::RejectedOracle;
        }
    }
    Verdict::Certified(Box::new(Certificate { grade, alpha, relative, src }))
}

/// Ideal enclosure of the *original* program with its trailing-application
/// arguments scaled by `scale` (rebuilt on a cloned store).
fn original_ideal_at(
    analyzer: &Analyzer,
    program: &Program,
    scale: &Rational,
) -> Result<RatInterval, Diagnostic> {
    let mut store = program.store().clone();
    let mut chain = Vec::new();
    let mut cur = program.root();
    while let Node::LetFun(v, decl, body, rest) = *store.node(cur) {
        chain.push((v, decl, body));
        cur = rest;
    }
    let (fvar, args) = trailing_application(&store, cur).map_err(unsupported)?;
    let mut spine = store.var(fvar);
    for &a in &args {
        let scaled = match *store.node(a) {
            Node::Const(ci) => {
                let q = store.constant(ci).clone().mul(scale);
                store.num(q)
            }
            Node::BoxIntro(g, inner) => match *store.node(inner) {
                Node::Const(ci) => {
                    let q = store.constant(ci).clone().mul(scale);
                    let n = store.num(q);
                    store.box_intro_at(g, n)
                }
                _ => return Err(unsupported("non-constant boxed argument")),
            },
            _ => return Err(unsupported("non-constant trailing-application argument")),
        };
        spine = store.app(spine, scaled);
    }
    let mut root = spine;
    for &(v, decl, body) in chain.iter().rev() {
        root = store.let_fun_at(v, decl, body, root);
    }
    let rebuilt = Program::from_parts(store, root, Vec::new());
    let run = analyzer.run_ideal(&rebuilt, &Inputs::none())?;
    ideal_interval(&run.ideal)
        .ok_or_else(|| unsupported("original program does not return a number"))
}

// ---------------------------------------------------------------------------
// Search
// ---------------------------------------------------------------------------

/// xorshift64* — deterministic shuffle source.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed })
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

fn sci(r: &Option<Rational>) -> String {
    match r {
        Some(q) => q.to_sci_string(3),
        None => "inf".to_string(),
    }
}

/// Runs the optimizer over a parsed program. See the module docs for the
/// search space and certification pipeline.
pub fn optimize(
    analyzer: &Analyzer,
    program: &Program,
    cfg: &OptimizeConfig,
) -> Result<OptimizeOutcome, Diagnostic> {
    if analyzer.signature().instantiation() != Instantiation::RelativePrecision {
        return Err(Diagnostic::new(
            ErrorCode::EvalFailed,
            "numfuzz optimize requires the relative-precision instantiation",
        ));
    }
    let mut arena = ExprArena::new();
    let principal = extract(program, &mut arena)?;
    let orig_expr = arena.simplify(principal.root);

    // Oracle reference: the original program's ideal value at each sample
    // point, computed on the original store (independent of extraction —
    // the extracted original is certified against these below, which
    // cross-checks the extraction itself).
    let mut sample_ideals = Vec::new();
    for (sn, sd) in SAMPLE_SCALES {
        sample_ideals.push(original_ideal_at(analyzer, program, &Rational::ratio(sn, sd))?);
    }
    let ctx = Ctx {
        fname: principal.name.clone(),
        ranges: vec![
            RatInterval::new(Rational::ratio(1, 10), Rational::from_int(1000));
            principal.params.len()
        ],
        sample_ideals,
    };

    // The original row is the *file's* typed bound and the cost of its
    // extracted operation DAG, before canonicalization — so a win from
    // canonicalization alone (folded constants, merged shared subterms)
    // is reported as the improvement it is.
    let file_typed = analyzer.check(program)?;
    let file_bound = analyzer.bound(&file_typed)?;
    let original = CandidateReport {
        grade: file_bound.grade.to_string(),
        alpha: file_bound.alpha,
        relative: file_bound.relative,
        cost: arena.op_cost(principal.root),
        ops: arena.op_count(principal.root),
    };

    let orig_job = make_job(&arena, &principal, orig_expr, usize::MAX)
        .ok_or_else(|| unsupported("program cannot be re-emitted (root is a bare leaf?)"))?;
    let Verdict::Certified(cert) = certify(analyzer, &ctx, &orig_job) else {
        return Err(unsupported("re-emitted original failed certification"));
    };
    let Certificate { grade, alpha, relative, src } = *cert;
    // Winner state: (alpha, cost, src) — lexicographic, fully ordered.
    // Seeded with the certified re-emission of the original.
    let mut best = CandidateReport {
        grade: grade.to_string(),
        alpha: alpha.clone(),
        relative,
        cost: orig_job.cost,
        ops: orig_job.ops,
    };
    let mut best_key = (alpha, orig_job.cost, src);
    let mut best_expr = orig_expr;

    let mut rules = rewrite::sound_rules();
    if cfg.unsound_rule_for_tests {
        rules.push(rewrite::unsound_swap_div_rule());
    }
    let mut rule_counts: Vec<RuleCount> = rules
        .iter()
        .map(|(name, _)| RuleCount { rule: name, generated: 0, certified: 0 })
        .collect();

    let mut seen: HashSet<ExprId> = HashSet::from([orig_expr]);
    let mut frontier = vec![orig_expr];
    let mut rng = Rng::new(cfg.seed);
    let (mut evaluated, mut certified) = (0usize, 0usize);
    let (mut rej_check, mut rej_interval, mut rej_oracle) = (0usize, 0usize, 0usize);

    while evaluated < cfg.budget && !frontier.is_empty() {
        // Generate this wave: every rule at every position of every
        // frontier expression, deduplicated against everything seen.
        let mut wave: Vec<(usize, ExprId)> = Vec::new();
        for &e in &frontier {
            for (ri, &(_, rule)) in rules.iter().enumerate() {
                for v in rewrite::apply_everywhere(&mut arena, e, rule) {
                    if seen.insert(v) {
                        wave.push((ri, v));
                    }
                }
            }
        }
        if wave.is_empty() {
            break;
        }
        rng.shuffle(&mut wave);
        wave.truncate(cfg.budget - evaluated);
        let jobs: Vec<Job> = wave
            .iter()
            .filter_map(|&(ri, v)| {
                let job = make_job(&arena, &principal, v, ri);
                if job.is_none() {
                    // Not emittable (e.g. a constant fell outside the
                    // decimal-printable literals): skip silently; it was
                    // never a viable candidate.
                }
                job
            })
            .collect();
        evaluated += jobs.len();
        let verdicts = numfuzz_core::pool::ordered_map_with(
            cfg.jobs,
            &jobs,
            |_| analyzer.fork_session(),
            |session, _, job| certify(session, &ctx, job),
        );
        let mut wave_certified: Vec<(Rational, u64, usize, ExprId)> = Vec::new();
        for (job, verdict) in jobs.iter().zip(verdicts) {
            rule_counts[job.rule_idx].generated += 1;
            match verdict {
                Verdict::Certified(cert) => {
                    let Certificate { grade, alpha, relative, src } = *cert;
                    certified += 1;
                    rule_counts[job.rule_idx].certified += 1;
                    wave_certified.push((alpha.clone(), job.cost, wave_certified.len(), job.expr));
                    let key = (alpha.clone(), job.cost, src);
                    if key < best_key {
                        best = CandidateReport {
                            grade: grade.to_string(),
                            alpha,
                            relative,
                            cost: job.cost,
                            ops: job.ops,
                        };
                        best_key = key;
                        best_expr = job.expr;
                    }
                }
                Verdict::RejectedCheck => rej_check += 1,
                Verdict::RejectedInterval => rej_interval += 1,
                Verdict::RejectedOracle => rej_oracle += 1,
            }
        }
        // Next frontier: the best few certified candidates of this wave.
        wave_certified.sort();
        frontier = wave_certified.into_iter().take(BEAM).map(|(_, _, _, e)| e).collect();
    }
    let _ = best_expr;

    let improved =
        best.alpha < original.alpha || (best.alpha == original.alpha && best.cost < original.cost);
    let rewritten = if improved {
        best_key.2.clone()
    } else {
        program.source().map(str::to_string).unwrap_or_else(|| best_key.2.clone())
    };

    // Precision search: re-certify the winner under each palette format.
    let mut precision = Vec::new();
    let mut chosen_format = None;
    if cfg.precision_search {
        let target = cfg
            .target_rel
            .clone()
            .or_else(|| original.relative.clone())
            .unwrap_or_else(Rational::one);
        let palette = rp_format_palette();
        for &(fname, format) in &palette {
            let session = Analyzer::builder().format(format).mode(analyzer.mode()).build();
            let row_src = &best_key.2;
            let rel = session
                .parse_named(&principal.name, row_src)
                .ok()
                .and_then(|p| session.check(&p).ok().map(|t| (p, t)))
                .and_then(|(_, t)| session.bound(&t).ok())
                .and_then(|b| b.relative);
            let weight = u64::from(format.precision().div_ceil(16));
            precision.push(PrecisionRow {
                format: fname,
                unit_roundoff: format.unit_roundoff(analyzer.mode()),
                relative: rel.clone(),
                cost: best.cost * weight,
                meets_target: rel.map(|r| r <= target).unwrap_or(false),
            });
        }
        // Cheapest certified format meeting the target (palette is
        // ordered most- to least-precise, so scan from the back).
        chosen_format = precision.iter().rev().find(|row| row.meets_target).map(|row| row.format);
    }

    let mut report = String::new();
    report.push_str(&format!("numfuzz optimize — {}\n", principal.name));
    report.push_str(&format!(
        "  search     : budget {}, seed {}, beam {BEAM}, rules {}\n",
        cfg.budget,
        cfg.seed,
        rules.len()
    ));
    report.push_str(&format!(
        "  candidates : evaluated {evaluated}, certified {certified}, rejected {rej_check} check / {rej_interval} interval / {rej_oracle} oracle\n",
    ));
    let rc: Vec<String> = rule_counts
        .iter()
        .filter(|r| r.generated > 0)
        .map(|r| format!("{} {}/{}", r.rule, r.certified, r.generated))
        .collect();
    report.push_str(&format!(
        "  rules      : {}\n",
        if rc.is_empty() { "none applied".to_string() } else { rc.join(", ") }
    ));
    report.push_str(&format!(
        "  original   : {}  (rel <= {})  cost {}  ops {}\n",
        original.grade,
        sci(&original.relative),
        original.cost,
        original.ops
    ));
    report.push_str(&format!(
        "  optimized  : {}  (rel <= {})  cost {}  ops {}\n",
        best.grade,
        sci(&best.relative),
        best.cost,
        best.ops
    ));
    report.push_str(&if improved {
        format!(
            "  verdict    : improved — bound {} -> {}, cost {} -> {}\n",
            original.grade, best.grade, original.cost, best.cost
        )
    } else {
        "  verdict    : unchanged — no certified candidate beats the original\n".to_string()
    });
    if cfg.precision_search {
        report.push_str("  precision  : format    unit-roundoff  rel-bound  cost\n");
        for row in &precision {
            report.push_str(&format!(
                "               {:<9} {:<14} {:<10} {}{}\n",
                row.format,
                row.unit_roundoff.to_sci_string(3),
                sci(&row.relative),
                row.cost,
                if row.meets_target { "  (meets target)" } else { "" }
            ));
        }
        report.push_str(&match chosen_format {
            Some(f) => format!("  format     : {f} (cheapest meeting rel <= {})\n", {
                let target = cfg
                    .target_rel
                    .clone()
                    .or_else(|| original.relative.clone())
                    .unwrap_or_else(Rational::one);
                target.to_sci_string(3)
            }),
            None => "  format     : none meets the target\n".to_string(),
        });
    }
    report.push_str("--- program ---\n");
    report.push_str(&rewritten);

    Ok(OptimizeOutcome {
        name: principal.name,
        original,
        best,
        improved,
        evaluated,
        certified,
        rejected_check: rej_check,
        rejected_interval: rej_interval,
        rejected_oracle: rej_oracle,
        rule_counts,
        precision,
        chosen_format,
        report,
        rewritten,
    })
}
