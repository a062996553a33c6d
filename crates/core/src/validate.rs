//! An independent *reference* checker, used as a differential oracle.
//!
//! [`infer_reference`] implements exactly the same algorithmic rules
//! (Fig. 10) as [`crate::infer`], but written the obvious way: direct
//! recursion, no explicit stack, no result-map bookkeeping. Like the
//! production checker it types over interned [`TyId`]s (the memoized
//! lattice caches in the shared [`crate::CoreArena`] serve both), so the
//! differential tests exercise the staging of the iterative machine, not
//! a second type representation. The production checker is cross-checked
//! against it on the whole paper corpus and on randomly generated
//! programs; any divergence would expose a staging bug in the iterative
//! machine.
//!
//! Because it recurses, it is only suitable for modest terms (roughly
//! depth < 10⁴); the production checker has no such limit.

use crate::arena::{CoreArena, TyId, TyNode};
use crate::check::Inferred;
use crate::env::Env;
use crate::grade::Grade;
use crate::intern::SeededMap;
use crate::sig::Signature;
use crate::term::{Node, TermId, TermStore, VarId};
use crate::ty::Ty;
use crate::walk::CheckError;

/// Reference (recursive) re-implementation of [`crate::infer`] for the
/// root judgment only (no function reports).
///
/// # Errors
///
/// The same [`CheckError`]s as the production checker, on the same terms.
pub fn infer_reference(
    store: &TermStore,
    sig: &Signature,
    root: TermId,
    free: &[(VarId, Ty)],
) -> Result<Inferred, CheckError> {
    let arena = store.tys().clone();
    let mut cx = Ref {
        store,
        sig,
        var_tys: free.iter().map(|(v, t)| (*v, arena.intern(t))).collect(),
        arena,
    };
    let (env, ty) = cx.go(root)?;
    Ok(Inferred { env, ty: cx.arena.resolve(ty) })
}

struct Ref<'a> {
    store: &'a TermStore,
    sig: &'a Signature,
    arena: CoreArena,
    var_tys: SeededMap<VarId, TyId>,
}

impl<'a> Ref<'a> {
    fn epsilon(&self) -> Grade {
        self.sig.rnd_grade().clone()
    }

    fn show(&self, ty: TyId) -> Ty {
        self.arena.resolve(ty)
    }

    fn go(&mut self, t: TermId) -> Result<(Env, TyId), CheckError> {
        match *self.store.node(t) {
            Node::Var(x) => {
                let ty =
                    self.var_tys.get(&x).copied().ok_or_else(|| {
                        CheckError::UnboundVar(self.store.var_name(x).to_string())
                    })?;
                Ok((Env::singleton(x, Grade::one()), ty))
            }
            Node::UnitVal => Ok((Env::empty(), self.arena.unit())),
            Node::Const(_) => Ok((Env::empty(), self.arena.num())),
            Node::Err(g, ty) => Ok((Env::empty(), self.arena.monad(g, ty))),
            Node::PairW(a, b) => {
                let ((ea, ta), (eb, tb)) = (self.go(a)?, self.go(b)?);
                Ok((ea.sup(eb), self.arena.with_ty(ta, tb)))
            }
            Node::PairT(a, b) => {
                let ((ea, ta), (eb, tb)) = (self.go(a)?, self.go(b)?);
                Ok((ea.add(eb), self.arena.tensor(ta, tb)))
            }
            Node::Inl(v, rt) => {
                let (env, ty) = self.go(v)?;
                Ok((env, self.arena.sum(ty, rt)))
            }
            Node::Inr(v, lt) => {
                let (env, ty) = self.go(v)?;
                Ok((env, self.arena.sum(lt, ty)))
            }
            Node::Lam(x, dom, body) => {
                self.var_tys.insert(x, dom);
                let (mut env, ty) = self.go(body)?;
                let s = env.remove(x);
                if !s.le(&Grade::one()) {
                    return Err(CheckError::LambdaSensitivity {
                        var: self.store.var_name(x).to_string(),
                        got: s,
                    });
                }
                Ok((env, self.arena.lolli(dom, ty)))
            }
            Node::BoxIntro(g, v) => {
                let (env, ty) = self.go(v)?;
                let s = self.store.grade(g);
                let env = env.scale(&s).ok_or(CheckError::NonlinearGrade)?;
                Ok((env, self.arena.bang(g, ty)))
            }
            Node::Rnd(v) => {
                let (env, ty) = self.go(v)?;
                if ty != self.arena.num() {
                    return Err(CheckError::Expected {
                        what: "a numeric argument to rnd",
                        found: self.show(ty),
                    });
                }
                let rnd = self.arena.intern_grade(self.sig.rnd_grade());
                Ok((env, self.arena.monad(rnd, self.arena.num())))
            }
            Node::Ret(v) => {
                let (env, ty) = self.go(v)?;
                let zero = self.arena.intern_grade(&Grade::zero());
                Ok((env, self.arena.monad(zero, ty)))
            }
            Node::App(f, a) => {
                let ((ef, tf), (ea, ta)) = (self.go(f)?, self.go(a)?);
                match self.arena.node(tf) {
                    TyNode::Lolli(dom, cod) => {
                        if !self.arena.subtype(ta, dom) {
                            return Err(CheckError::ArgMismatch {
                                expected: self.show(dom),
                                found: self.show(ta),
                            });
                        }
                        Ok((ef.add(ea), cod))
                    }
                    _ => Err(CheckError::Expected { what: "a function", found: self.show(tf) }),
                }
            }
            Node::Proj(first, v) => {
                let (env, ty) = self.go(v)?;
                match self.arena.node(ty) {
                    TyNode::With(a, b) => Ok((env, if first { a } else { b })),
                    _ => {
                        Err(CheckError::Expected { what: "a cartesian pair", found: self.show(ty) })
                    }
                }
            }
            Node::LetTensor(x, y, v, e) => {
                let (ev, tv) = self.go(v)?;
                let (ta, tb) = match self.arena.node(tv) {
                    TyNode::Tensor(a, b) => (a, b),
                    _ => {
                        return Err(CheckError::Expected {
                            what: "a tensor pair",
                            found: self.show(tv),
                        })
                    }
                };
                self.var_tys.insert(x, ta);
                self.var_tys.insert(y, tb);
                let (mut ee, te) = self.go(e)?;
                let s = ee.remove(x).sup(&ee.remove(y));
                let scaled = ev.scale(&s).ok_or(CheckError::NonlinearGrade)?;
                Ok((ee.add(scaled), te))
            }
            Node::Case(v, x, e1, y, e2) => {
                let (ev, tv) = self.go(v)?;
                let (ta, tb) = match self.arena.node(tv) {
                    TyNode::Sum(a, b) => (a, b),
                    _ => return Err(CheckError::Expected { what: "a sum", found: self.show(tv) }),
                };
                self.var_tys.insert(x, ta);
                self.var_tys.insert(y, tb);
                let (mut e1env, t1) = self.go(e1)?;
                let (mut e2env, t2) = self.go(e2)?;
                let s = e1env.remove(x).sup(&e2env.remove(y));
                let s_bar = if s.is_zero() { self.epsilon() } else { s };
                let ty = self.arena.sup(t1, t2).ok_or_else(|| CheckError::BranchTypeMismatch {
                    left: self.show(t1),
                    right: self.show(t2),
                })?;
                let scaled = ev.scale(&s_bar).ok_or(CheckError::NonlinearGrade)?;
                Ok((e1env.sup(e2env).add(scaled), ty))
            }
            Node::LetBox(x, v, e) => {
                let (ev, tv) = self.go(v)?;
                let (s, inner) = match self.arena.node(tv) {
                    TyNode::Bang(s, inner) => (self.store.grade(s), inner),
                    _ => {
                        return Err(CheckError::Expected {
                            what: "a boxed value",
                            found: self.show(tv),
                        })
                    }
                };
                self.var_tys.insert(x, inner);
                let (mut ee, te) = self.go(e)?;
                let r = ee.remove(x);
                let tmul = r.div_min(&s).ok_or_else(|| CheckError::BoxZeroGrade {
                    var: self.store.var_name(x).to_string(),
                })?;
                let scaled = ev.scale(&tmul).ok_or(CheckError::NonlinearGrade)?;
                Ok((ee.add(scaled), te))
            }
            Node::LetBind(x, v, f) => {
                let (ev, tv) = self.go(v)?;
                let (r, inner) = match self.arena.node(tv) {
                    TyNode::Monad(r, inner) => (self.store.grade(r), inner),
                    _ => {
                        return Err(CheckError::Expected {
                            what: "a monadic computation",
                            found: self.show(tv),
                        })
                    }
                };
                self.var_tys.insert(x, inner);
                let (mut ef, tf) = self.go(f)?;
                let (q, tau) = match self.arena.node(tf) {
                    TyNode::Monad(q, tau) => (self.store.grade(q), tau),
                    _ => {
                        return Err(CheckError::Expected {
                            what: "a monadic body in let-bind",
                            found: self.show(tf),
                        })
                    }
                };
                let s = ef.remove(x);
                let grade = s.checked_mul(&r).ok_or(CheckError::NonlinearGrade)?.add(&q);
                let scaled = ev.scale(&s).ok_or(CheckError::NonlinearGrade)?;
                let gid = self.arena.intern_grade(&grade);
                Ok((ef.add(scaled), self.arena.monad(gid, tau)))
            }
            Node::Let(x, e, f) | Node::LetFun(x, None, e, f) => {
                let (ee, te) = self.go(e)?;
                self.var_tys.insert(x, te);
                let (mut ef, tf) = self.go(f)?;
                let s = ef.remove(x);
                let s_bar = if s.is_zero() { self.epsilon() } else { s };
                let scaled = ee.scale(&s_bar).ok_or(CheckError::NonlinearGrade)?;
                Ok((ef.add(scaled), tf))
            }
            Node::LetFun(x, Some(declared), e, f) => {
                // The declared type gets validated here too, keeping the
                // oracle's behaviour aligned with the production rule.
                let (ee, te) = self.go(e)?;
                if !self.arena.subtype(te, declared) {
                    return Err(CheckError::DeclaredMismatch {
                        name: self.store.var_name(x).to_string(),
                        declared: self.show(declared),
                        inferred: self.show(te),
                    });
                }
                self.var_tys.insert(x, declared);
                let (mut ef, tf) = self.go(f)?;
                let s = ef.remove(x);
                let s_bar = if s.is_zero() { self.epsilon() } else { s };
                let scaled = ee.scale(&s_bar).ok_or(CheckError::NonlinearGrade)?;
                Ok((ef.add(scaled), tf))
            }
            Node::Op(op_idx, v) => {
                let (env, ty) = self.go(v)?;
                let name = self.store.op_name(op_idx);
                let op =
                    self.sig.op(name).ok_or_else(|| CheckError::UnknownOp(name.to_string()))?;
                let arg = self.arena.intern(&op.arg);
                let ret = self.arena.intern(&op.ret);
                let env = if self.arena.subtype(ty, arg) {
                    env
                } else if let TyNode::Bang(g, inner) = self.arena.node(arg) {
                    if self.arena.subtype(ty, inner) {
                        let grade = self.store.grade(g);
                        env.scale(&grade).ok_or(CheckError::NonlinearGrade)?
                    } else {
                        return Err(CheckError::OpArgMismatch {
                            op: name.to_string(),
                            expected: self.show(arg),
                            found: self.show(ty),
                        });
                    }
                } else {
                    return Err(CheckError::OpArgMismatch {
                        op: name.to_string(),
                        expected: self.show(arg),
                        found: self.show(ty),
                    });
                };
                Ok((env, ret))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::compile;

    /// The production (iterative) checker and this reference agree on a
    /// corpus of paper programs — environment and type, exactly.
    #[test]
    fn reference_agrees_with_production_checker() {
        let sig = Signature::relative_precision();
        let corpus = [
            "function mulfp (xy: (num, num)) : M[eps]num { s = mul xy; rnd s }",
            r#"
            function pow2' (x: ![2.0]num) : M[eps]num {
                let [x1] = x;
                s = mul (x1, x1);
                rnd s
            }
            function pow4 (x: ![4.0]num) : M[3*eps]num {
                let [x1] = x;
                let y = pow2' [x1]{2.0};
                pow2' [y]{2.0}
            }
            "#,
            r#"
            function case1 (x: ![inf]num) : M[eps]num {
                let [x1] = x;
                c = is_pos x1;
                if c then { s = mul (x1, x1); rnd s } else ret 1
            }
            case1 [2]{inf}
            "#,
            r#"
            function f (p: <num, num>) : M[eps]num {
                a = fst p;
                s = mul (a, 2);
                rnd s
            }
            f (|3, 4|)
            "#,
        ];
        for src in corpus {
            let lowered = compile(src, &sig).expect("compiles");
            let fast =
                crate::check::infer(&lowered.store, &sig, lowered.root, &[]).expect("fast checks");
            let slow =
                infer_reference(&lowered.store, &sig, lowered.root, &[]).expect("slow checks");
            assert_eq!(fast.root.ty, slow.ty, "types diverge on {src}");
            assert!(
                fast.root.env.le(&slow.env) && slow.env.le(&fast.root.env),
                "envs diverge on {src}"
            );
        }
    }

    /// Both checkers reject ill-typed programs with the same error class.
    #[test]
    fn reference_rejects_like_production() {
        let sig = Signature::relative_precision();
        let bad = [
            "function bad (x: num) : num { mul (x, x) }",
            "function bad (x: num) : M[eps]num { rnd x; }",
            "function bad (x: num) : num { y }",
        ];
        for src in bad {
            let Ok(lowered) = compile(src, &sig) else { continue };
            let fast = crate::check::infer(&lowered.store, &sig, lowered.root, &[]);
            let slow = infer_reference(&lowered.store, &sig, lowered.root, &[]);
            assert_eq!(fast.is_err(), slow.is_err(), "{src}");
        }
    }
}
