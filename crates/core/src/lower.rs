//! Elaboration of the surface syntax into arena terms, done by the parser
//! as it reads (one pass, no surface tree):
//!
//! 1. **ANF-ization.** Fig. 1 restricts constructors and eliminators to
//!    *value* operands; the surface syntax is free-form, so non-value
//!    operands are let-bound (`addfp (mul (x,y), z)` becomes
//!    `let t = mul (x,y) in addfp (t, z)` — exactly the explicit
//!    sequencing style of the paper's examples).
//! 2. **Scope resolution.** Names are resolved to fresh [`VarId`]s
//!    (alpha-renaming); unbound names that match signature operations
//!    become [`Node::Op`](crate::Node::Op) applications. (Implicit boxing
//!    of `!`-typed operation domains, `sqrt x` as `sqrt ([x]{1/2})`,
//!    happens in the checker, which knows the argument's type.)
//!
//! The parser hands each expression over as an [`Item`] and converts it
//! once its context is known: a *value* operand, or a *term* in
//! statement, arm or body position. A bare identifier stays unresolved
//! until then, because an operation name is elaborated where it is
//! applied, parentheses included (`(add) (|1, 2|)` is an operation).
//! Terms, variables and temps are created in the order of a
//! left-to-right, innermost-first lowering of the whole expression.

use crate::arena::TermId;
use crate::lexer::SyntaxError;
use crate::sig::Signature;
use crate::term::{NameIdx, TermStore, VarId};
use crate::ty::Ty;
use std::collections::{HashMap, HashSet};
use std::fmt::Write;

/// A lowered program: the arena plus the root term.
#[derive(Clone, Debug)]
pub struct Lowered {
    /// The term arena.
    pub store: TermStore,
    /// The root term (function definitions nested as `LetFun`s; the final
    /// body is the main expression, or the last function's variable).
    pub root: TermId,
}

/// Parses and lowers a program in one pass.
///
/// # Errors
///
/// A [`SyntaxError`] with source position on malformed input; one
/// without position for unbound names or misused operations.
pub fn compile(src: &str, sig: &Signature) -> Result<Lowered, SyntaxError> {
    compile_in(crate::arena::CoreArena::new(), src, sig)
}

/// [`compile`] into a store sharing an existing type/grade arena, so a
/// session's programs interchange annotation ids and reuse the memoized
/// lattice caches.
///
/// # Errors
///
/// See [`compile`].
pub fn compile_in(
    arena: crate::arena::CoreArena,
    src: &str,
    sig: &Signature,
) -> Result<Lowered, SyntaxError> {
    crate::parser::read(Lowerer::new(TermStore::with_arena(arena), sig), src, true)
}

/// Parses and lowers a single expression (block form: statements
/// allowed) with the given free variables in scope, returned with their
/// variables in order.
///
/// # Errors
///
/// See [`compile`].
pub fn compile_expr_with(
    src: &str,
    sig: &Signature,
    free: &[(String, Ty)],
) -> Result<(Lowered, Vec<(VarId, Ty)>), SyntaxError> {
    let mut cx = Lowerer::new(TermStore::new(), sig);
    let frees = free.iter().map(|(name, ty)| (cx.bind(name), ty.clone())).collect();
    Ok((crate::parser::read(cx, src, false)?, frees))
}

/// What a parsed expression lowers to before its context is known.
#[derive(Clone, Copy)]
pub(crate) enum Item<'a> {
    /// A value (Fig. 1) whose operands' let-bindings wait on the bind
    /// stack for the enclosing term.
    Value(TermId),
    /// A term that is not a value, its own let-bindings wrapped inside.
    Term(TermId),
    /// A bare identifier: a variable or, when applied, an operation.
    Name(&'a str),
}

/// One spelling's scope entry.
#[derive(Clone, Copy, Default)]
struct Slot {
    /// The innermost binding in force.
    var: Option<VarId>,
    /// The spelling as interned in the term store, once a variable has it.
    name: Option<NameIdx>,
}

/// A term id handed out after the first lowering error, when the parser
/// keeps reading only to find a later syntax error.
const POISONED: TermId = TermId(u32::MAX);

/// The name of a temp until [`Lowerer::finish`] names it.
const UNNAMED: NameIdx = NameIdx::MAX;

/// The lowering state the parser carries.
pub(crate) struct Lowerer<'a> {
    pub(crate) store: TermStore,
    sig: &'a Signature,
    /// Spelling → index into `slots`.
    syms: HashMap<&'a str, u32>,
    slots: Vec<Slot>,
    /// Bindings shadowed by later ones, restored by [`Lowerer::unbind_to`].
    shadowed: Vec<(u32, Option<VarId>)>,
    /// Pending ANF let-bindings, innermost last; each term wraps those
    /// above the height it started at.
    binds: Vec<(VarId, TermId)>,
    /// ANF temporaries in creation order, named once the program is read.
    temps: Vec<VarId>,
    /// Source binders shaped like generated temps (`_t<digits>`), which
    /// temps must avoid so pretty-printed programs re-parse without
    /// accidental capture.
    taken: HashSet<&'a str>,
    /// The first lowering error; reported only if the parse succeeds.
    error: Option<SyntaxError>,
}

/// Whether a source identifier is shaped like a generated temp name.
fn is_templike(name: &str) -> bool {
    name.strip_prefix("_t")
        .is_some_and(|rest| !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()))
}

impl<'a> Lowerer<'a> {
    pub(crate) fn new(store: TermStore, sig: &'a Signature) -> Self {
        Lowerer {
            store,
            sig,
            syms: HashMap::new(),
            slots: Vec::new(),
            shadowed: Vec::new(),
            binds: Vec::new(),
            temps: Vec::new(),
            taken: HashSet::new(),
            error: None,
        }
    }

    /// Records a lowering error (the first one wins).
    pub(crate) fn fail(&mut self, msg: String) -> TermId {
        self.error.get_or_insert_with(|| SyntaxError::new(msg, 0, 0));
        POISONED
    }

    fn slot(&mut self, name: &'a str) -> u32 {
        let next = self.slots.len() as u32;
        let sym = *self.syms.entry(name).or_insert(next);
        if sym == next {
            self.slots.push(Slot::default());
        }
        sym
    }

    /// A fresh variable named `name`, with the spelling's slot.
    pub(crate) fn fresh(&mut self, name: &'a str) -> (u32, VarId) {
        let sym = self.slot(name);
        let slot = &mut self.slots[sym as usize];
        let stored = match slot.name {
            Some(n) => n,
            None => *slot.name.insert(self.store.intern_name(name)),
        };
        (sym, self.store.fresh_var_named(stored))
    }

    /// Binds a fresh variable for a source binder.
    pub(crate) fn bind(&mut self, name: &'a str) -> VarId {
        let (sym, v) = self.fresh(name);
        let shadowed = self.slots[sym as usize].var.replace(v);
        self.shadowed.push((sym, shadowed));
        if is_templike(name) {
            self.taken.insert(name);
        }
        v
    }

    /// The scope height, for [`Lowerer::unbind_to`].
    pub(crate) fn scope_height(&self) -> usize {
        self.shadowed.len()
    }

    /// Ends every binding made since `height`.
    pub(crate) fn unbind_to(&mut self, height: usize) {
        while self.shadowed.len() > height {
            let (sym, prev) = self.shadowed.pop().expect("above height");
            self.slots[sym as usize].var = prev;
        }
    }

    fn lookup(&self, name: &str) -> Option<VarId> {
        self.syms.get(name).and_then(|&sym| self.slots[sym as usize].var)
    }

    /// The operation an applied name elaborates to: an unbound name the
    /// signature defines.
    pub(crate) fn applied_op(&self, name: &str) -> bool {
        self.lookup(name).is_none() && self.sig.op(name).is_some()
    }

    /// The bind-stack height a term starts at.
    pub(crate) fn mark(&self) -> usize {
        self.binds.len()
    }

    /// An item in operand position: values as they are, other terms
    /// let-bound to a fresh temp, names resolved as variables.
    pub(crate) fn value(&mut self, item: Item<'a>) -> TermId {
        match item {
            Item::Value(t) => t,
            Item::Term(t) => {
                let v = self.store.fresh_var_named(UNNAMED);
                self.temps.push(v);
                self.binds.push((v, t));
                self.store.var(v)
            }
            Item::Name(name) => match self.lookup(name) {
                Some(v) => self.store.var(v),
                None if self.sig.op(name).is_some() => {
                    self.fail(format!("operation `{name}` must be applied to an argument"))
                }
                None => self.fail(format!("unbound name `{name}`")),
            },
        }
    }

    /// An item as a whole term begun at bind height `mark`: a value gets
    /// its pending let-bindings wrapped around it.
    pub(crate) fn term(&mut self, item: Item<'a>, mark: usize) -> TermId {
        match item {
            Item::Term(t) => t,
            _ => {
                let t = self.value(item);
                self.wrap(mark, t)
            }
        }
    }

    /// Wraps the pending let-bindings above `mark` (innermost last)
    /// around `node`.
    pub(crate) fn wrap(&mut self, mark: usize, node: TermId) -> TermId {
        let mut acc = node;
        while self.binds.len() > mark {
            let (v, t) = self.binds.pop().expect("above mark");
            acc = self.store.let_in(v, t, acc);
        }
        acc
    }

    /// Finishes a program: names the temps `_t0`, `_t1`, … in creation
    /// order, skipping every `_t<digits>` source binder.
    pub(crate) fn finish(mut self, root: TermId) -> Result<Lowered, SyntaxError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let (mut next, mut name) = (0usize, String::new());
        for v in std::mem::take(&mut self.temps) {
            loop {
                name.clear();
                write!(name, "_t{next}").expect("writing to a String");
                next += 1;
                if !self.taken.contains(name.as_str()) {
                    break;
                }
            }
            let stored = self.store.intern_name(&name);
            self.store.rename_var(v, stored);
        }
        Ok(Lowered { store: self.store, root })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Node;

    fn rp() -> Signature {
        Signature::relative_precision()
    }

    #[test]
    fn lowers_mulfp_like_fig7() {
        // function mulfp (xy: (num, num)) : M[eps]num { s = mul xy; rnd s }
        let src = r#"
            function mulfp (xy: (num, num)) : M[eps]num {
                s = mul xy;
                rnd s
            }
        "#;
        let lowered = compile(src, &rp()).unwrap();
        assert!(lowered.store.conforms_to_value_restriction(lowered.root));
        // Root is LetFun(mulfp, lam, var mulfp).
        match lowered.store.node(lowered.root) {
            Node::LetFun(_, _, body, rest) => {
                assert!(matches!(lowered.store.node(*body), Node::Lam(..)));
                assert!(matches!(lowered.store.node(*rest), Node::Var(_)));
            }
            other => panic!("expected LetFun, got {other:?}"),
        }
    }

    #[test]
    fn anf_inserts_lets() {
        // rnd (mul (x, x)) is not value-applied: a let must appear.
        let src = r#"
            function pow2' (x: ![2.0]num) : M[eps]num {
                let [x1] = x;
                rnd (mul (x1, x1))
            }
        "#;
        let lowered = compile(src, &rp()).unwrap();
        // Walk: LetFun -> Lam -> LetBox -> Let(_t = mul(..)) -> Rnd(var).
        let mut id = lowered.root;
        let store = &lowered.store;
        let body = match store.node(id) {
            Node::LetFun(_, _, b, _) => *b,
            other => panic!("{other:?}"),
        };
        id = match store.node(body) {
            Node::Lam(_, _, b) => *b,
            other => panic!("{other:?}"),
        };
        id = match store.node(id) {
            Node::LetBox(_, _, e) => *e,
            other => panic!("{other:?}"),
        };
        let (temp, bound, rest) = match store.node(id) {
            Node::Let(t, e, f) => (*t, *e, *f),
            other => panic!("expected ANF let, got {other:?}"),
        };
        assert_eq!(store.var_name(temp), "_t0");
        assert!(matches!(store.node(bound), Node::Op(..)));
        match store.node(rest) {
            Node::Rnd(v) => assert!(matches!(store.node(*v), Node::Var(_))),
            other => panic!("expected rnd of var, got {other:?}"),
        }
    }

    #[test]
    fn sqrt_lowers_to_op_on_bare_var() {
        // Implicit boxing of the `![1/2]` domain happens in the checker,
        // not here: the lowered term applies the op to the raw variable.
        let lowered = compile("function f (x: num) : num { sqrt x }", &rp()).unwrap();
        let store = &lowered.store;
        let body = match store.node(lowered.root) {
            Node::LetFun(_, _, b, _) => *b,
            other => panic!("{other:?}"),
        };
        let inner = match store.node(body) {
            Node::Lam(_, _, b) => *b,
            other => panic!("{other:?}"),
        };
        match store.node(inner) {
            Node::Op(op, arg) => {
                assert_eq!(store.op_name(*op), "sqrt");
                assert!(matches!(store.node(*arg), Node::Var(_)));
            }
            other => panic!("expected sqrt op, got {other:?}"),
        }
    }

    #[test]
    fn operation_names_elaborate_where_applied() {
        // Through parentheses, and not once the name is bound.
        let lowered = compile("s = (add) (|1, 2|); rnd s", &rp()).unwrap();
        match lowered.store.node(lowered.root) {
            Node::Let(_, bound, _) => assert!(matches!(lowered.store.node(*bound), Node::Op(..))),
            other => panic!("{other:?}"),
        }
        let lowered = compile("function add (x: num) : num { x }\nadd 2", &rp()).unwrap();
        match lowered.store.node(lowered.root) {
            Node::LetFun(_, _, _, rest) => {
                assert!(matches!(lowered.store.node(*rest), Node::App(..)))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unbound_names_error() {
        let e = compile("function f (x: num) : num { y }", &rp()).unwrap_err();
        assert_eq!((e.msg.as_str(), e.line), ("unbound name `y`", 0));
        // `mul` alone (unapplied) is an error.
        let e = compile("function f (x: num) : num { mul }", &rp()).unwrap_err();
        assert_eq!(e.msg, "operation `mul` must be applied to an argument");
        // The first lowering error wins, and a later syntax error wins
        // over both.
        let e = compile("x = y; z = inl 1; z", &rp()).unwrap_err();
        assert_eq!(e.msg, "unbound name `y`");
        let e = compile("x = y; z = inl 1; (", &rp()).unwrap_err();
        assert_eq!(
            (e.msg.as_str(), e.line, e.col),
            ("expected an expression, found end of input", 1, 20)
        );
    }

    #[test]
    fn shadowing_resolves_innermost() {
        let src = r#"
            function f (x: num) : num {
                x = mul (x, x);
                x
            }
        "#;
        let lowered = compile(src, &rp()).unwrap();
        let store = &lowered.store;
        let body = match store.node(lowered.root) {
            Node::LetFun(_, _, b, _) => *b,
            other => panic!("{other:?}"),
        };
        let inner = match store.node(body) {
            Node::Lam(param, _, b) => (*param, *b),
            other => panic!("{other:?}"),
        };
        match store.node(inner.1) {
            Node::Let(bound_var, _, rest) => match store.node(*rest) {
                Node::Var(v) => {
                    assert_eq!(v, bound_var, "inner x refers to the let-bound x");
                    assert_ne!(*v, inner.0, "not the parameter");
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn temps_skip_templike_binders_anywhere_in_the_program() {
        // `_t0` is bound after the first temp is made, and still skipped;
        // the grade symbol `_t1` is not a binder.
        let src =
            "s = mul (add (|1, 2|), 3);\n_t0 = rnd s;\nt = mul (add (|[_t0]{_t1}, 2|), 3);\nt";
        let lowered = compile(src, &rp()).unwrap();
        let printed = crate::pretty_term(&lowered.store, lowered.root, u32::MAX);
        assert!(printed.contains("_t1 = add") && printed.contains("_t2 = add"), "{printed}");
        assert!(!printed.contains("_t0 = add"), "{printed}");
    }

    #[test]
    fn booleans_lower_to_injections() {
        let (lowered, _) = compile_expr_with("true", &rp(), &[]).unwrap();
        assert!(matches!(lowered.store.node(lowered.root), Node::Inl(..)));
    }
}
