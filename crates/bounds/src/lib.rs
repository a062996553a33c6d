//! # numfuzz-bounds
//!
//! An **independent** interval/Taylor-form roundoff bound engine — the
//! repo's stand-in for the FPTaylor/Gappa columns of the paper's
//! comparison (Section 6.2: `numfuzz table1` and the `table3` binary), and
//! the second opinion behind the fuzzer's engines-agree oracle.
//!
//! The engine shares *nothing* with the graded typing judgment: it is a
//! direct abstract interpreter over the core term language. Every
//! numeric quantity is tracked as a triple (`NumAbs`):
//!
//! * an exact rational **ideal** enclosure `I` (the infinite-precision
//!   value lies in `I`),
//! * an exact rational **floating-point** enclosure `F` (every value the
//!   machine run can produce lies in `F` — constants stay exact and
//!   rounding happens only at explicit `rnd`, mirroring the reference
//!   machine), and
//! * a pointwise **error** bound `err`: for the true ideal value `v ∈ I`
//!   and the true machine value `w ∈ F`, `d(v, w) ≤ err` in the
//!   instantiation's metric.
//!
//! Interval arithmetic over `+ - × ÷` is *exact* (rational endpoints,
//! see `numfuzz-exact`); outward widening happens only at `sqrt`, by a
//! controlled `2^-bits` amount. Error terms compose by the standard
//! first-order rules of each Section 5 instantiation:
//!
//! * **Relative precision** (`d(x,y) = |ln(y/x)|`): `rnd` charges the
//!   unit roundoff `u(format, mode)` (sound for all four modes because
//!   the faithful-rounding relative error `δ` satisfies
//!   `|ln(1+δ)| ≤ ln(1+u) < u`); `add` takes the max of its operand
//!   errors (operands must be same-signed — checked on the enclosures);
//!   `mul`/`div` add errors; `sqrt` halves them.
//! * **Absolute error** (`d(x,y) = |x-y|`): `rnd` charges
//!   `u · sup|F|` (the standard model, valid because rounding faults on
//!   under/overflow exactly like the checked machine); `add`/`sub` add
//!   errors; `scale2`/`half` scale them.
//!
//! Branches (`is_pos`, `is_gt`, `case`) are decided only when **both**
//! the ideal and floating-point enclosures decide them the same way
//! (robust tests); anything else is reported as [`BoundError`] rather
//! than guessed at — the engine is sound or silent, never unsound.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use numfuzz_core::{Instantiation, Node, TermId, TermStore, VarId};
use numfuzz_exact::{RatInterval, Rational};
use numfuzz_softfloat::{Format, Fp, RoundingMode};
use std::fmt;
use std::rc::Rc;

/// Recursion guard: generated fuzz programs stay under ~100 nodes of
/// nesting and the Table 1 corpus is tiny; anything deeper is outside
/// the fragment this engine promises to cover.
const DEPTH_LIMIT: u32 = 2048;

/// What the engine needs to know about the machine it is bounding.
#[derive(Clone, Debug)]
pub struct BoundConfig {
    /// Which Section 5 instantiation's metric and operations apply.
    pub instantiation: Instantiation,
    /// The floating-point format `rnd` targets.
    pub format: Format,
    /// The rounding mode `rnd` uses.
    pub mode: RoundingMode,
    /// Precision (in bits) of `sqrt` enclosures, as in the reference
    /// machine's `EvalConfig`.
    pub sqrt_bits: u32,
}

impl BoundConfig {
    /// A configuration with the default `sqrt` enclosure precision.
    pub fn new(instantiation: Instantiation, format: Format, mode: RoundingMode) -> Self {
        BoundConfig { instantiation, format, mode, sqrt_bits: 192 }
    }

    /// The per-`rnd` unit roundoff this engine charges (Table 2).
    pub fn unit(&self) -> Rational {
        self.format.unit_roundoff(self.mode)
    }
}

/// Why the engine could not produce a bound.
///
/// The engine never guesses: a program outside its fragment (a
/// non-robust branch, a sign-indefinite `add` under the RP metric, an
/// operation missing from the instantiation) yields an error, as does a
/// rounding fault (where the checked machine is vacuous too).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BoundError {
    /// The program uses a construct the engine cannot bound soundly.
    Unsupported(String),
    /// A `rnd` step faulted (overflow/underflow) — the exceptional
    /// machine semantics would produce `err` here, so there is no
    /// floating-point value to bound.
    Fault(String),
    /// The term nests deeper than the engine's recursion limit.
    DepthLimit,
}

impl fmt::Display for BoundError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundError::Unsupported(why) => write!(f, "unsupported by interval engine: {why}"),
            BoundError::Fault(why) => write!(f, "rounding fault: {why}"),
            BoundError::DepthLimit => write!(f, "term nests deeper than the interval engine limit"),
        }
    }
}

impl std::error::Error for BoundError {}

/// The abstract numeric value: ideal enclosure, floating-point
/// enclosure, and a pointwise error bound between them.
#[derive(Clone, Debug)]
struct NumAbs {
    ideal: RatInterval,
    fp: RatInterval,
    err: Rational,
}

impl NumAbs {
    fn exact(iv: RatInterval) -> Self {
        NumAbs { ideal: iv.clone(), fp: iv, err: Rational::zero() }
    }
}

/// Abstract values mirror the machine's value grammar.
#[derive(Clone, Debug)]
enum AVal {
    Unit,
    Num(Box<NumAbs>),
    PairW(Rc<AVal>, Rc<AVal>),
    PairT(Rc<AVal>, Rc<AVal>),
    Inl(Rc<AVal>),
    Inr(Rc<AVal>),
    Boxed(Rc<AVal>),
    Closure { param: VarId, body: TermId, env: Env },
    Ret(Rc<AVal>),
}

impl AVal {
    fn num(n: NumAbs) -> Self {
        AVal::Num(Box::new(n))
    }
}

type Env = Vec<(VarId, AVal)>;

/// The result of a successful interval analysis: both enclosures and
/// the roundoff bound.
#[derive(Clone, Debug)]
pub struct IntervalBound {
    ideal: RatInterval,
    fp: RatInterval,
    err: Rational,
    metric: Instantiation,
}

impl IntervalBound {
    /// Enclosure of the ideal (infinite-precision) result.
    pub fn ideal(&self) -> &RatInterval {
        &self.ideal
    }

    /// Enclosure of every value the machine run can produce.
    pub fn fp(&self) -> &RatInterval {
        &self.fp
    }

    /// The pointwise roundoff bound: for the true ideal result `v` and
    /// the true machine result `w`, `d(v, w) ≤ bound()` in the
    /// instantiation's metric. This is the number comparable with the
    /// typed engine's `Analyzer::bound` (and with Table 1).
    pub fn bound(&self) -> &Rational {
        &self.err
    }

    /// A (slightly) widened bound that also covers the *enclosure
    /// corners*: `sup { d(x, y) : x ∈ ideal, y ∈ fp } ≤ oracle_bound()`.
    ///
    /// The soundness validator measures distances between enclosures
    /// rather than points, so the engines-agree oracle must charge the
    /// enclosure widths on top of the pointwise bound (triangle
    /// inequality: `d(x,y) ≤ d(x,v) + d(v,w) + d(w,y)`). For point
    /// inputs the slop is just the `sqrt` enclosure width, around
    /// `2^-190` — negligible against any real roundoff bound.
    pub fn oracle_bound(&self) -> Result<Rational, BoundError> {
        let slop = |iv: &RatInterval| -> Result<Rational, BoundError> {
            if iv.is_point() {
                return Ok(Rational::zero());
            }
            match self.metric {
                Instantiation::AbsoluteError => Ok(iv.width()),
                Instantiation::RelativePrecision => {
                    // ln(hi/lo) ≤ (hi - lo)/min|x| on a sign-definite
                    // interval.
                    let denom = iv.abs_inf();
                    if denom.is_zero() {
                        Err(BoundError::Unsupported(
                            "sign-indefinite enclosure has no RP width".into(),
                        ))
                    } else {
                        Ok(iv.width().div(&denom))
                    }
                }
            }
        };
        Ok(self.err.add(&slop(&self.ideal)?).add(&slop(&self.fp)?))
    }
}

struct Engine<'a> {
    store: &'a TermStore,
    cfg: &'a BoundConfig,
    unit: Rational,
}

/// Analyzes a closed program (or one whose free variables are supplied
/// as point/range enclosures via [`analyze_with_inputs`]).
///
/// The result must be a monadic numeric computation (`rnd`/`ret`
/// shaped), exactly the programs the soundness validator covers.
pub fn analyze(
    store: &TermStore,
    root: TermId,
    cfg: &BoundConfig,
) -> Result<IntervalBound, BoundError> {
    analyze_with_inputs(store, root, cfg, &[])
}

/// [`analyze`] with enclosures for the program's free variables. Each
/// input is treated as error-free: ideal and machine runs start from the
/// same (interval of) values.
pub fn analyze_with_inputs(
    store: &TermStore,
    root: TermId,
    cfg: &BoundConfig,
    inputs: &[(VarId, RatInterval)],
) -> Result<IntervalBound, BoundError> {
    let engine = Engine { store, cfg, unit: cfg.unit() };
    let mut env: Env =
        inputs.iter().map(|(v, iv)| (*v, AVal::num(NumAbs::exact(iv.clone())))).collect();
    let val = engine.eval(root, &mut env, 0)?;
    engine.finish(val)
}

/// Range-parameterized analysis of a named top-level function: walks the
/// `function` spine of `root`, applies the definition named `fname` to
/// one error-free enclosure per curried `num` parameter, and bounds the
/// result — `bound()` then holds for *every* point input in the ranges.
/// This is how the Table 1 comparison runs each benchmark over its input
/// box.
pub fn analyze_fn(
    store: &TermStore,
    root: TermId,
    cfg: &BoundConfig,
    fname: &str,
    ranges: &[RatInterval],
) -> Result<IntervalBound, BoundError> {
    let engine = Engine { store, cfg, unit: cfg.unit() };
    let mut env: Env = Vec::new();
    let mut t = root;
    loop {
        match store.node(t) {
            Node::Let(x, e, rest) | Node::LetFun(x, _, e, rest) => {
                let v = engine.eval(*e, &mut env, 0)?;
                let found = store.var_name(*x) == fname;
                env.push((*x, v.clone()));
                if found {
                    let mut cur = v;
                    for r in ranges {
                        let arg = AVal::num(NumAbs::exact(r.clone()));
                        cur = engine.apply(cur, arg, 0)?;
                    }
                    return engine.finish(cur);
                }
                t = *rest;
            }
            _ => {
                return Err(BoundError::Unsupported(format!(
                    "no top-level function named `{fname}`"
                )))
            }
        }
    }
}

impl Engine<'_> {
    fn eval(&self, t: TermId, env: &mut Env, depth: u32) -> Result<AVal, BoundError> {
        if depth > DEPTH_LIMIT {
            return Err(BoundError::DepthLimit);
        }
        let d = depth + 1;
        match *self.store.node(t) {
            Node::Var(v) => {
                env.iter().rev().find(|(x, _)| *x == v).map(|(_, val)| val.clone()).ok_or_else(
                    || {
                        BoundError::Unsupported(format!(
                            "unbound variable `{}`",
                            self.store.var_name(v)
                        ))
                    },
                )
            }
            Node::UnitVal => Ok(AVal::Unit),
            Node::Const(idx) => {
                Ok(AVal::num(NumAbs::exact(RatInterval::point(self.store.constant(idx).clone()))))
            }
            Node::PairW(a, b) => {
                Ok(AVal::PairW(Rc::new(self.eval(a, env, d)?), Rc::new(self.eval(b, env, d)?)))
            }
            Node::PairT(a, b) => {
                Ok(AVal::PairT(Rc::new(self.eval(a, env, d)?), Rc::new(self.eval(b, env, d)?)))
            }
            Node::Inl(v, _) => Ok(AVal::Inl(Rc::new(self.eval(v, env, d)?))),
            Node::Inr(v, _) => Ok(AVal::Inr(Rc::new(self.eval(v, env, d)?))),
            Node::Lam(x, _, body) => Ok(AVal::Closure { param: x, body, env: env.clone() }),
            Node::BoxIntro(_, v) => Ok(AVal::Boxed(Rc::new(self.eval(v, env, d)?))),
            Node::Rnd(v) => {
                let n = self.as_num(self.eval(v, env, d)?, "rnd of a non-number")?;
                Ok(AVal::Ret(Rc::new(AVal::num(self.round(n)?))))
            }
            Node::Ret(v) => Ok(AVal::Ret(Rc::new(self.eval(v, env, d)?))),
            Node::Err(..) => Err(BoundError::Fault("explicit `err` term".into())),
            Node::App(f, a) => {
                let fv = self.eval(f, env, d)?;
                let av = self.eval(a, env, d)?;
                self.apply(fv, av, d)
            }
            Node::Proj(first, v) => match strip_box(self.eval(v, env, d)?) {
                AVal::PairW(a, b) => Ok(if first { (*a).clone() } else { (*b).clone() }),
                _ => Err(BoundError::Unsupported("projection from a non-pair".into())),
            },
            Node::LetTensor(x, y, v, e) => match strip_box(self.eval(v, env, d)?) {
                AVal::PairT(a, b) | AVal::PairW(a, b) => {
                    env.push((x, (*a).clone()));
                    env.push((y, (*b).clone()));
                    let r = self.eval(e, env, d);
                    env.truncate(env.len() - 2);
                    r
                }
                _ => Err(BoundError::Unsupported("tensor-let of a non-pair".into())),
            },
            Node::Case(v, x, e1, y, e2) => match strip_box(self.eval(v, env, d)?) {
                AVal::Inl(inner) => self.eval_bound(e1, env, d, x, (*inner).clone()),
                AVal::Inr(inner) => self.eval_bound(e2, env, d, y, (*inner).clone()),
                _ => Err(BoundError::Unsupported("case on a non-sum".into())),
            },
            Node::LetBox(x, v, e) => {
                let val = match self.eval(v, env, d)? {
                    AVal::Boxed(inner) => (*inner).clone(),
                    other => other,
                };
                self.eval_bound(e, env, d, x, val)
            }
            Node::LetBind(x, v, e) => match self.eval(v, env, d)? {
                AVal::Ret(inner) => self.eval_bound(e, env, d, x, (*inner).clone()),
                _ => Err(BoundError::Unsupported("bind of a non-monadic value".into())),
            },
            Node::Let(x, e, f) | Node::LetFun(x, _, e, f) => {
                let val = self.eval(e, env, d)?;
                self.eval_bound(f, env, d, x, val)
            }
            Node::Op(idx, v) => {
                let name = self.store.op_name(idx).to_string();
                let operand = self.eval(v, env, d)?;
                self.apply_op(&name, operand)
            }
        }
    }

    /// Evaluates `t` with one extra binding in scope.
    fn eval_bound(
        &self,
        t: TermId,
        env: &mut Env,
        depth: u32,
        x: VarId,
        val: AVal,
    ) -> Result<AVal, BoundError> {
        env.push((x, val));
        let r = self.eval(t, env, depth);
        env.pop();
        r
    }

    fn apply(&self, f: AVal, arg: AVal, depth: u32) -> Result<AVal, BoundError> {
        match strip_box(f) {
            AVal::Closure { param, body, env } => {
                let mut call_env = env;
                call_env.push((param, arg));
                self.eval(body, &mut call_env, depth + 1)
            }
            _ => Err(BoundError::Unsupported("application of a non-function".into())),
        }
    }

    /// The `rnd` step: rounds the floating-point enclosure endpoint-wise
    /// (rounding is monotone, so the rounded endpoints enclose every
    /// rounded point) and charges one unit roundoff in the metric.
    /// Faults exactly where the checked machine faults (over/underflow
    /// at either endpoint).
    fn round(&self, n: NumAbs) -> Result<NumAbs, BoundError> {
        let round_end = |q: &Rational| -> Result<Rational, BoundError> {
            let f = Fp::round_checked(q, self.cfg.format, self.cfg.mode)
                .map_err(|fault| BoundError::Fault(fault.to_string()))?;
            Ok(f.to_rational().expect("checked rounding is finite"))
        };
        let fp = RatInterval::new(round_end(n.fp.lo())?, round_end(n.fp.hi())?);
        let charge = match self.cfg.instantiation {
            // |ln(1+δ)| ≤ ln(1+u) < u for every mode's faithful δ.
            Instantiation::RelativePrecision => self.unit.clone(),
            // |rnd(w) - w| ≤ u·|w| ≤ u·sup|F| (standard model; valid
            // because under/overflow faulted above).
            Instantiation::AbsoluteError => self.unit.mul(&n.fp.abs_sup()),
        };
        Ok(NumAbs { ideal: n.ideal, fp, err: n.err.add(&charge) })
    }

    fn as_num(&self, v: AVal, what: &str) -> Result<NumAbs, BoundError> {
        match strip_box(v) {
            AVal::Num(n) => Ok(*n),
            _ => Err(BoundError::Unsupported(what.into())),
        }
    }

    fn two_nums(&self, v: AVal, what: &str) -> Result<(NumAbs, NumAbs), BoundError> {
        match strip_box(v) {
            AVal::PairW(a, b) | AVal::PairT(a, b) => {
                Ok((self.as_num((*a).clone(), what)?, self.as_num((*b).clone(), what)?))
            }
            _ => Err(BoundError::Unsupported(what.into())),
        }
    }

    fn apply_op(&self, name: &str, v: AVal) -> Result<AVal, BoundError> {
        let rp = matches!(self.cfg.instantiation, Instantiation::RelativePrecision);
        match name {
            "add" => {
                let (a, b) = self.two_nums(v, "add of a non-pair")?;
                let err = if rp {
                    // RP(x+y, x̃+ỹ) ≤ max(RP(x,x̃), RP(y,ỹ)) — only for
                    // same-signed summands (all four enclosures must
                    // agree on a strict sign).
                    let all_pos =
                        [&a.ideal, &b.ideal, &a.fp, &b.fp].iter().all(|iv| iv.lo().is_positive());
                    let all_neg =
                        [&a.ideal, &b.ideal, &a.fp, &b.fp].iter().all(|iv| iv.hi().is_negative());
                    if !(all_pos || all_neg) {
                        return Err(BoundError::Unsupported(
                            "RP add of sign-indefinite operands".into(),
                        ));
                    }
                    a.err.max(b.err)
                } else {
                    a.err.add(&b.err)
                };
                Ok(AVal::num(NumAbs { ideal: a.ideal.add(&b.ideal), fp: a.fp.add(&b.fp), err }))
            }
            "sub" => {
                let (a, b) = self.two_nums(v, "sub of a non-pair")?;
                if rp {
                    // Cancellation makes RP(x-y, x̃-ỹ) unbounded by the
                    // operand errors; the RP signature has no `sub`.
                    return Err(BoundError::Unsupported("sub under the RP metric".into()));
                }
                Ok(AVal::num(NumAbs {
                    ideal: a.ideal.sub(&b.ideal),
                    fp: a.fp.sub(&b.fp),
                    err: a.err.add(&b.err),
                }))
            }
            "mul" => {
                let (a, b) = self.two_nums(v, "mul of a non-pair")?;
                let err = if rp {
                    // RP(xy, x̃ỹ) ≤ RP(x,x̃) + RP(y,ỹ).
                    a.err.add(&b.err)
                } else {
                    // |xy - x̃ỹ| = |x(y-ỹ) + ỹ(x-x̃)|
                    //            ≤ sup|I_x|·e_y + sup|F_y|·e_x.
                    a.ideal.abs_sup().mul(&b.err).add(&b.fp.abs_sup().mul(&a.err))
                };
                Ok(AVal::num(NumAbs { ideal: a.ideal.mul(&b.ideal), fp: a.fp.mul(&b.fp), err }))
            }
            "div" => {
                let (a, b) = self.two_nums(v, "div of a non-pair")?;
                if !rp {
                    return Err(BoundError::Unsupported("div under the absolute metric".into()));
                }
                let ideal = a.ideal.div(&b.ideal).ok_or_else(|| {
                    BoundError::Unsupported("division by an enclosure containing zero".into())
                })?;
                let fp = a.fp.div(&b.fp).ok_or_else(|| {
                    BoundError::Unsupported("division by an enclosure containing zero".into())
                })?;
                // RP(x/y, x̃/ỹ) ≤ RP(x,x̃) + RP(y,ỹ).
                Ok(AVal::num(NumAbs { ideal, fp, err: a.err.add(&b.err) }))
            }
            "sqrt" => {
                let a = self.as_num(v, "sqrt of a non-number")?;
                if !rp {
                    return Err(BoundError::Unsupported("sqrt under the absolute metric".into()));
                }
                if a.ideal.lo().is_negative() || a.fp.lo().is_negative() {
                    return Err(BoundError::Unsupported(
                        "sqrt of a possibly-negative value".into(),
                    ));
                }
                // RP(√x, √x̃) = RP(x, x̃)/2.
                Ok(AVal::num(NumAbs {
                    ideal: a.ideal.sqrt(self.cfg.sqrt_bits),
                    fp: a.fp.sqrt(self.cfg.sqrt_bits),
                    err: a.err.mul(&Rational::ratio(1, 2)),
                }))
            }
            "neg" => {
                let a = self.as_num(v, "neg of a non-number")?;
                // Both metrics are invariant under negation.
                Ok(AVal::num(NumAbs { ideal: a.ideal.neg(), fp: a.fp.neg(), err: a.err }))
            }
            "scale2" | "half" => {
                let a = self.as_num(v, "scaling of a non-number")?;
                let k =
                    if name == "scale2" { Rational::from_int(2) } else { Rational::ratio(1, 2) };
                let kiv = RatInterval::point(k.clone());
                // RP is invariant under positive scaling; absolute error
                // scales with the factor.
                let err = if rp { a.err } else { a.err.mul(&k) };
                Ok(AVal::num(NumAbs { ideal: a.ideal.mul(&kiv), fp: a.fp.mul(&kiv), err }))
            }
            "is_pos" => {
                let a = self.as_num(v, "is_pos of a non-number")?;
                // Robust only: ideal and machine runs must take the same
                // branch for every point in the enclosures.
                if a.ideal.lo().is_positive() && a.fp.lo().is_positive() {
                    Ok(AVal::Inl(Rc::new(AVal::Unit)))
                } else if !a.ideal.hi().is_positive() && !a.fp.hi().is_positive() {
                    Ok(AVal::Inr(Rc::new(AVal::Unit)))
                } else {
                    Err(BoundError::Unsupported("is_pos test is not robust".into()))
                }
            }
            "is_gt" => {
                let (a, b) = self.two_nums(v, "is_gt of a non-pair")?;
                if a.ideal.lo() > b.ideal.hi() && a.fp.lo() > b.fp.hi() {
                    Ok(AVal::Inl(Rc::new(AVal::Unit)))
                } else if a.ideal.hi() <= b.ideal.lo() && a.fp.hi() <= b.fp.lo() {
                    Ok(AVal::Inr(Rc::new(AVal::Unit)))
                } else {
                    Err(BoundError::Unsupported("is_gt test is not robust".into()))
                }
            }
            other => Err(BoundError::Unsupported(format!("unknown operation `{other}`"))),
        }
    }

    /// Unwraps the final value: the program must have produced a monadic
    /// numeric result.
    fn finish(&self, val: AVal) -> Result<IntervalBound, BoundError> {
        let inner = match val {
            AVal::Ret(inner) => (*inner).clone(),
            other => other,
        };
        match strip_box(inner) {
            AVal::Num(n) => Ok(IntervalBound {
                ideal: n.ideal,
                fp: n.fp,
                err: n.err,
                metric: self.cfg.instantiation,
            }),
            _ => Err(BoundError::Unsupported("program result is not a monadic number".into())),
        }
    }
}

fn strip_box(v: AVal) -> AVal {
    match v {
        AVal::Boxed(inner) => strip_box((*inner).clone()),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numfuzz_core::{compile, Signature};

    fn rp_cfg() -> BoundConfig {
        BoundConfig::new(
            Instantiation::RelativePrecision,
            Format::BINARY64,
            RoundingMode::TowardPositive,
        )
    }

    fn analyze_src(src: &str, cfg: &BoundConfig) -> Result<IntervalBound, BoundError> {
        let sig = match cfg.instantiation {
            Instantiation::RelativePrecision => Signature::relative_precision(),
            Instantiation::AbsoluteError => Signature::absolute_error(),
        };
        let lowered = compile(src, &sig).expect("test program compiles");
        analyze(&lowered.store, lowered.root, cfg)
    }

    #[test]
    fn single_rnd_charges_one_unit() {
        let cfg = rp_cfg();
        let b = analyze_src("rnd 1.5", &cfg).expect("bounded");
        assert_eq!(b.bound(), &cfg.unit());
        // 1.5 is exactly representable: the machine enclosure is the
        // constant itself and the oracle slop is zero.
        assert_eq!(b.fp(), &RatInterval::point(Rational::ratio(3, 2)));
        assert_eq!(b.oracle_bound().unwrap(), cfg.unit());
    }

    #[test]
    fn product_of_two_rnds_adds_errors() {
        let cfg = rp_cfg();
        let src = "let a = rnd 0.1; let b = rnd 0.2;\ns = mul (a, b);\nrnd s";
        let b = analyze_src(src, &cfg).expect("bounded");
        let three_u = cfg.unit().mul(&Rational::from_int(3));
        assert_eq!(b.bound(), &three_u);
        // Point input ⇒ the machine enclosure is the machine value
        // exactly; toward +∞ it sits strictly above the exact ideal.
        assert_eq!(b.ideal(), &RatInterval::point(Rational::ratio(1, 50)));
        assert!(b.fp().is_point());
        assert!(b.fp().lo() > &Rational::ratio(1, 50));
    }

    #[test]
    fn hypot_beats_or_matches_the_typed_grade() {
        // The soundness suite's running example: typed grade 5/2·eps.
        // The interval engine, free of the judgment's let-sequencing,
        // finds 2·eps (mul: u, add: max = u, sqrt: /2, final rnd: +u).
        let src = "function mulfp (xy: (num, num)) : M[eps]num {\n\
                   \x20 s = mul xy;\n\
                   \x20 rnd s\n\
                   }\n\
                   function sqrtfp (x: ![1/2]num) : M[eps]num {\n\
                   \x20 s = sqrt x;\n\
                   \x20 rnd s\n\
                   }\n\
                   function hypot (x: num) (y: num) : M[5/2*eps]num {\n\
                   \x20 let a = mulfp (x, x);\n\
                   \x20 let b = mulfp (y, y);\n\
                   \x20 s = add (| a, b |);\n\
                   \x20 let c = rnd s;\n\
                   \x20 sqrtfp [c]{1/2}\n\
                   }\n\
                   hypot 3.7 0.51";
        let cfg = rp_cfg();
        let sig = Signature::relative_precision();
        let lowered = compile(src, &sig).expect("compiles");
        let b = analyze(&lowered.store, lowered.root, &cfg).expect("bounded");
        let two_u = cfg.unit().mul(&Rational::from_int(2));
        assert_eq!(b.bound(), &two_u);

        // Ranged: the same bound holds over the whole Table 1 input box.
        let range = RatInterval::new(Rational::ratio(1, 10), Rational::from_int(1000));
        let rb = analyze_fn(&lowered.store, lowered.root, &cfg, "hypot", &[range.clone(), range])
            .expect("bounded over the box");
        assert_eq!(rb.bound(), &two_u);
        assert!(rb.ideal().lo() > &Rational::zero());
    }

    #[test]
    fn abs_rnd_charges_magnitude_scaled_unit() {
        let cfg = BoundConfig::new(
            Instantiation::AbsoluteError,
            Format::BINARY64,
            RoundingMode::NearestEven,
        );
        let b = analyze_src("rnd 3.0", &cfg).expect("bounded");
        assert_eq!(b.bound(), &cfg.unit().mul(&Rational::from_int(3)));
    }

    #[test]
    fn non_robust_test_is_refused_not_guessed() {
        let cfg = BoundConfig::new(
            Instantiation::AbsoluteError,
            Format::BINARY64,
            RoundingMode::NearestEven,
        );
        let sig = Signature::absolute_error();
        let lowered =
            compile("t = is_pos [0.5]{inf}; case t of (inl a. ret 1.0 | inr b. ret 2.0)", &sig)
                .expect("compiles");
        // Point 0.5 is robustly positive...
        assert!(analyze(&lowered.store, lowered.root, &cfg).is_ok());
        // ...but a range straddling zero is not.
        let lowered2 = compile(
            "function f (x: ![inf]num) : M[0]num { t = is_pos x; case t of (inl a. ret 1.0 | inr b. ret 2.0) }\nf [0.5]{inf}",
            &sig,
        )
        .expect("compiles");
        let straddle = RatInterval::new(Rational::from_int(-1), Rational::from_int(1));
        let r = analyze_fn(&lowered2.store, lowered2.root, &cfg, "f", &[straddle]);
        assert!(matches!(r, Err(BoundError::Unsupported(_))), "{r:?}");
    }

    #[test]
    fn overflowing_rnd_faults_like_the_checked_machine() {
        let cfg = rp_cfg();
        let r = analyze_src("rnd 1.0e400", &cfg);
        assert!(matches!(r, Err(BoundError::Fault(_))), "{r:?}");
    }
}
