//! Parser for the Λnum surface syntax. It reads a program in one pass,
//! lowering as it goes ([`crate::lower`]): no surface tree is built.
//!
//! The grammar follows the paper's implementation notation (Section 5):
//!
//! ```text
//! program := fndef* block?
//! fndef   := "function" ID param* ":" ty "{" block "}"
//! param   := "(" ID ":" ty ")"
//! block   := stmt* expr
//! stmt    := ID "=" expr ";"              -- let x = v in e
//!          | "let" "[" ID "]" "=" expr ";"-- let [x] = v in e
//!          | "let" ID "=" expr ";"        -- let-bind(v, x. e)
//! expr    := unary+                       -- application by juxtaposition
//! unary   := ("rnd"|"ret"|"fst"|"snd") unary
//!          | ("inl"|"inr") ("{" ty "}")? unary
//!          | "if" expr "then" arm "else" arm
//!          | "case" expr "of" "(" "inl" ID "." block "|" "inr" ID "." block ")"
//!          | atom
//! arm     := "{" block "}" | unary
//! atom    := NUMBER | ID | "true" | "false" | "()"
//!          | "(" expr ")" | "(" expr "," expr ")" | "(|" expr "," expr "|)"
//!          | "[" expr "]" "{" grade "}"
//! ty      := sumty ("-o" ty)?
//! sumty   := atomty ("+" atomty)*
//! atomty  := "num" | "unit" | "bool" | "M" "[" grade "]" atomty
//!          | "!" "[" grade "]" atomty | "<" ty "," ty ">"
//!          | "(" ty ")" | "(" ty "," ty ")"
//! grade   := gterm ("+" gterm)*
//! gterm   := gfactor ("*" gfactor)*
//! gfactor := NUMBER ("/" NUMBER)? | ID | "inf"
//! ```
//!
//! Two limits keep hostile input cheap. The descent is recursive, so
//! nesting is limited to 256 levels ([`MAX_NESTING`]): deeper input is a
//! syntax error, not a stack overflow. A numeric literal may write a
//! decimal exponent of at most ±100,000
//! ([`Rational::MAX_DECIMAL_EXPONENT`]), so `1e10000000` is a syntax error
//! at the literal, not a ten-million-digit power of ten.
//!
//! Definitions and statements are read in loops and their `let` chains
//! folded from the end, so neither thousands of definitions nor Table 4
//! scale blocks recurse.

use crate::arena::TermId;
use crate::grade::Grade;
use crate::lexer::{Lexer, SyntaxError, Tok, Token};
use crate::lower::{Item, Lowered, Lowerer};
use crate::ty::Ty;
use numfuzz_exact::Rational;

/// Parses a type (useful for tests and tools).
///
/// # Errors
///
/// Returns a [`SyntaxError`] with source position on malformed input.
pub fn parse_ty(src: &str) -> Result<Ty, SyntaxError> {
    let sig = crate::sig::Signature::relative_precision();
    let mut p = Parser::new(src, Lowerer::new(crate::term::TermStore::new(), &sig))?;
    let t = p.ty().and_then(|t| p.expect_eof().map(|()| t));
    t.map_err(|e| p.lexer.rest_error().unwrap_or(e))
}

/// Reads a whole program (`program` true) or a single block into the
/// lowerer's store.
pub(crate) fn read<'a>(
    lower: Lowerer<'a>,
    src: &'a str,
    program: bool,
) -> Result<Lowered, SyntaxError> {
    let mut p = Parser::new(src, lower)?;
    let root = if program { p.program() } else { p.block() };
    match root.and_then(|root| p.expect_eof().map(|()| root)) {
        Ok(root) => p.lower.finish(root),
        // Lexing is context-free: a bad character anywhere wins.
        Err(e) => Err(p.lexer.rest_error().unwrap_or(e)),
    }
}

/// The deepest nesting the parser accepts, counted one level per nested
/// `unary` expression, atomic type and `-o` right-hand side (every
/// recursive position of the grammar). Several passes below the parser
/// recurse too, and this keeps all of them inside a 2 MiB worker-thread
/// stack: generated programs nest at most 47 deep and the committed
/// examples at most 4. (The other limit, on written exponents, is
/// checked by every caller of [`Rational::from_decimal_str`].)
const MAX_NESTING: u32 = 256;

/// The three statement forms of a block.
#[derive(Clone, Copy)]
enum StmtKind {
    Let,
    LetBind,
    LetBox,
}

/// A read statement waiting for the rest of its block: its binder, the
/// bound term, and the bind-stack height its value's let-bindings start
/// at (they wrap the statement's `let`).
struct Stmt {
    kind: StmtKind,
    var: crate::term::VarId,
    bound: TermId,
    binds: usize,
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    tok: Token<'a>,
    /// The token after `tok`, once something looked at it.
    next: Option<Token<'a>>,
    /// Current nesting depth (see [`MAX_NESTING`]).
    depth: u32,
    lower: Lowerer<'a>,
    /// Statements of the blocks being read, innermost block last.
    stmts: Vec<Stmt>,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str, lower: Lowerer<'a>) -> Result<Self, SyntaxError> {
        let mut lexer = Lexer::new(src);
        let tok = lexer.next_token()?;
        Ok(Parser { lexer, tok, next: None, depth: 0, lower, stmts: Vec::new() })
    }

    fn peek(&self) -> Tok<'a> {
        self.tok.kind
    }

    fn peek2(&mut self) -> Result<Tok<'a>, SyntaxError> {
        if self.next.is_none() {
            self.next = Some(self.lexer.next_token()?);
        }
        Ok(self.next.map_or(Tok::Eof, |t| t.kind))
    }

    fn here(&self) -> (u32, u32) {
        (self.tok.line, self.tok.col)
    }

    /// Moves past the current token, returning it.
    fn bump(&mut self) -> Result<Tok<'a>, SyntaxError> {
        let kind = self.tok.kind;
        if kind != Tok::Eof {
            self.tok = match self.next.take() {
                Some(t) => t,
                None => self.lexer.next_token()?,
            };
        }
        Ok(kind)
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, SyntaxError> {
        let (line, col) = self.here();
        Err(SyntaxError::new(msg, line, col))
    }

    fn expect(&mut self, tok: Tok<'a>) -> Result<(), SyntaxError> {
        if self.peek() == tok {
            self.bump()?;
            Ok(())
        } else {
            self.err(format!("expected {tok}, found {}", self.peek()))
        }
    }

    fn expect_eof(&mut self) -> Result<(), SyntaxError> {
        if self.peek() == Tok::Eof {
            Ok(())
        } else {
            self.err(format!("expected end of input, found {}", self.peek()))
        }
    }

    fn ident(&mut self) -> Result<&'a str, SyntaxError> {
        match self.peek() {
            Tok::Ident(s) => {
                self.bump()?;
                Ok(s)
            }
            other => self.err(format!("expected an identifier, found {other}")),
        }
    }

    fn is_kw(&self, kw: &str) -> bool {
        self.peek() == Tok::Ident(kw)
    }

    fn eat_kw(&mut self, kw: &str) -> Result<bool, SyntaxError> {
        let found = self.is_kw(kw);
        if found {
            self.bump()?;
        }
        Ok(found)
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), SyntaxError> {
        if self.eat_kw(kw)? {
            Ok(())
        } else {
            self.err(format!("expected `{kw}`, found {}", self.peek()))
        }
    }

    /// Enters one more nesting level, rejecting input nested deeper than
    /// [`MAX_NESTING`] at the token where it crosses the limit. The caller
    /// leaves the level again on success; an error ends the parse.
    fn descend(&mut self) -> Result<(), SyntaxError> {
        if self.depth == MAX_NESTING {
            return self.err(format!("nesting deeper than {MAX_NESTING} levels"));
        }
        self.depth += 1;
        Ok(())
    }

    /// A numeric literal at the current token, located there on error.
    fn literal(&mut self, text: &str) -> Result<Rational, SyntaxError> {
        let (line, col) = self.here();
        self.bump()?;
        Rational::from_decimal_str(text).map_err(|e| SyntaxError::new(e.to_string(), line, col))
    }

    // ----- program -----

    /// Definitions are read in a loop and their `LetFun` chain folded
    /// from the end, so thousands of them do not recurse.
    fn program(&mut self) -> Result<TermId, SyntaxError> {
        let mut defs = Vec::new();
        while self.is_kw("function") {
            defs.push(self.fndef()?);
        }
        let mut root = match (self.peek(), defs.last()) {
            (Tok::Eof, None) => {
                self.lower.fail("program has no definitions or main expression".into())
            }
            // No main: the program's value is the last function.
            (Tok::Eof, Some(&(last, _, _))) => self.lower.store.var(last),
            _ => self.block()?,
        };
        for (var, declared, body) in defs.into_iter().rev() {
            root = self.lower.store.let_fun(var, Some(declared), body, root);
        }
        Ok(root)
    }

    /// One definition: its variable (bound for the rest of the program),
    /// its declared type, and its body as curried lambdas.
    fn fndef(&mut self) -> Result<(crate::term::VarId, Ty, TermId), SyntaxError> {
        self.bump()?;
        let name = self.ident()?;
        let scope = self.lower.scope_height();
        let mut params = Vec::new();
        while self.peek() == Tok::LParen {
            self.bump()?;
            let p = self.ident()?;
            self.expect(Tok::Colon)?;
            let t = self.ty()?;
            self.expect(Tok::RParen)?;
            params.push((self.lower.bind(p), t));
        }
        self.expect(Tok::Colon)?;
        let mut declared = self.ty()?;
        self.expect(Tok::LBrace)?;
        let mut body = self.block()?;
        self.expect(Tok::RBrace)?;
        for (v, t) in params.iter().rev() {
            body = self.lower.store.lam(*v, t.clone(), body);
        }
        self.lower.unbind_to(scope);
        for (_, t) in params.into_iter().rev() {
            declared = Ty::lolli(t, declared);
        }
        Ok((self.lower.bind(name), declared, body))
    }

    // ----- expressions -----

    /// `stmt* expr`, as a term. Statements are read in a loop and their
    /// `let` chain folded from the end, so blocks with tens of thousands
    /// of statements (Table 4 scale) do not recurse.
    fn block(&mut self) -> Result<TermId, SyntaxError> {
        let (scope, first) = (self.lower.scope_height(), self.stmts.len());
        while self.stmt()? {}
        let mark = self.lower.mark();
        let tail = self.expr()?;
        let mut acc = self.lower.term(tail, mark);
        self.lower.unbind_to(scope);
        while self.stmts.len() > first {
            let s = self.stmts.pop().expect("above first");
            let store = &mut self.lower.store;
            acc = match s.kind {
                StmtKind::Let => store.let_in(s.var, s.bound, acc),
                StmtKind::LetBind => store.let_bind(s.var, s.bound, acc),
                StmtKind::LetBox => store.let_box(s.var, s.bound, acc),
            };
            acc = self.lower.wrap(s.binds, acc);
        }
        Ok(acc)
    }

    /// One `x = e;`, `let x = e;` or `let [x] = e;` statement, pushed
    /// onto `stmts` with its binder in scope; `false` at the block's
    /// final expression.
    fn stmt(&mut self) -> Result<bool, SyntaxError> {
        let kind = if self.eat_kw("let")? {
            if self.peek() == Tok::LBracket {
                self.bump()?;
                StmtKind::LetBox
            } else {
                StmtKind::LetBind
            }
        } else if matches!(self.peek(), Tok::Ident(s) if s != "true" && s != "false")
            && self.peek2()? == Tok::Eq
        {
            StmtKind::Let
        } else {
            return Ok(false);
        };
        let x = self.ident()?;
        if let StmtKind::LetBox = kind {
            self.expect(Tok::RBracket)?;
        }
        self.expect(Tok::Eq)?;
        let binds = self.lower.mark();
        let e = self.expr()?;
        // `x = e` binds a term; the other forms bind a value, whose
        // let-bindings wrap the statement.
        let bound = match kind {
            StmtKind::Let => self.lower.term(e, binds),
            StmtKind::LetBind | StmtKind::LetBox => self.lower.value(e),
        };
        self.expect(Tok::Semi)?;
        let var = self.lower.bind(x);
        self.stmts.push(Stmt { kind, var, bound, binds });
        Ok(true)
    }

    fn expr(&mut self) -> Result<Item<'a>, SyntaxError> {
        let mark = self.lower.mark();
        let head = self.unary()?;
        if self.starts_atom() {
            self.application(head, mark)
        } else {
            Ok(head)
        }
    }

    /// `head a b …`, left-associative; each application is a term that
    /// wraps the let-bindings made since `mark`.
    fn application(&mut self, mut head: Item<'a>, mark: usize) -> Result<Item<'a>, SyntaxError> {
        while self.starts_atom() {
            let node = match head {
                Item::Name(op) if self.lower.applied_op(op) => {
                    let arg = self.unary()?;
                    let arg = self.lower.value(arg);
                    self.lower.store.op(op, arg)
                }
                _ => {
                    let f = self.lower.value(head);
                    let arg = self.unary()?;
                    let arg = self.lower.value(arg);
                    self.lower.store.app(f, arg)
                }
            };
            head = Item::Term(self.lower.wrap(mark, node));
        }
        Ok(head)
    }

    fn starts_atom(&self) -> bool {
        match self.peek() {
            Tok::Number(_) | Tok::LParen | Tok::LPairW | Tok::LBracket => true,
            Tok::Ident(s) => !matches!(s, "then" | "else" | "of" | "function" | "let" | "in"),
            _ => false,
        }
    }

    /// One nesting level: a `rnd`/`ret`/`fst`/`snd`/`inl`/`inr` prefix,
    /// `if`, `case`, or an atom. Each form has its own function, which
    /// keeps the stack frames on the recursive path small.
    fn unary(&mut self) -> Result<Item<'a>, SyntaxError> {
        self.descend()?;
        let e = match self.peek() {
            Tok::Ident("if") => self.conditional(),
            Tok::Ident("case") => self.case(),
            Tok::Ident("rnd" | "ret" | "fst" | "snd" | "inl" | "inr") => self.prefixed(),
            _ => self.atom(),
        };
        self.depth -= 1;
        e
    }

    fn prefixed(&mut self) -> Result<Item<'a>, SyntaxError> {
        let mark = self.lower.mark();
        let Tok::Ident(kw) = self.bump()? else { unreachable!("called at a prefix keyword") };
        let annotation = match kw {
            "inl" | "inr" => self.injection_annotation()?,
            _ => None,
        };
        let arg = self.unary()?;
        let arg = self.lower.value(arg);
        let store = &mut self.lower.store;
        Ok(match kw {
            "rnd" => Item::Value(store.rnd(arg)),
            "ret" => Item::Value(store.ret(arg)),
            "fst" | "snd" => {
                let node = store.proj(kw == "fst", arg);
                Item::Term(self.lower.wrap(mark, node))
            }
            _ => Item::Value(match annotation {
                Some(t) if kw == "inl" => store.inl(arg, t),
                Some(t) => store.inr(arg, t),
                None => self.lower.fail(format!("`{kw}` needs a type annotation: {kw} {{T}} v")),
            }),
        })
    }

    fn conditional(&mut self) -> Result<Item<'a>, SyntaxError> {
        let mark = self.lower.mark();
        self.bump()?;
        let c = self.expr()?;
        let c = self.lower.value(c);
        let (_, x) = self.lower.fresh("_tt");
        let (_, y) = self.lower.fresh("_ff");
        self.expect_kw("then")?;
        let e1 = self.arm()?;
        self.expect_kw("else")?;
        let e2 = self.arm()?;
        let node = self.lower.store.case(c, x, e1, y, e2);
        Ok(Item::Term(self.lower.wrap(mark, node)))
    }

    fn case(&mut self) -> Result<Item<'a>, SyntaxError> {
        let mark = self.lower.mark();
        self.bump()?;
        let v = self.expr()?;
        let v = self.lower.value(v);
        self.expect_kw("of")?;
        self.expect(Tok::LParen)?;
        let e1 = self.case_arm("inl")?;
        self.expect(Tok::Pipe)?;
        let e2 = self.case_arm("inr")?;
        self.expect(Tok::RParen)?;
        let node = self.lower.store.case(v, e1.0, e1.1, e2.0, e2.1);
        Ok(Item::Term(self.lower.wrap(mark, node)))
    }

    /// `inl x . block` or `inr y . block`, with the binder in scope for
    /// the block only.
    fn case_arm(&mut self, kw: &str) -> Result<(crate::term::VarId, TermId), SyntaxError> {
        self.expect_kw(kw)?;
        let x = self.ident()?;
        self.expect(Tok::Dot)?;
        let scope = self.lower.scope_height();
        let xv = self.lower.bind(x);
        let e = self.block()?;
        self.lower.unbind_to(scope);
        Ok((xv, e))
    }

    fn injection_annotation(&mut self) -> Result<Option<Ty>, SyntaxError> {
        if self.peek() == Tok::LBrace {
            self.bump()?;
            let t = self.ty()?;
            self.expect(Tok::RBrace)?;
            Ok(Some(t))
        } else {
            Ok(None)
        }
    }

    fn arm(&mut self) -> Result<TermId, SyntaxError> {
        if self.peek() == Tok::LBrace {
            self.bump()?;
            let e = self.block()?;
            self.expect(Tok::RBrace)?;
            Ok(e)
        } else {
            // Unbraced arms span a full application; `else` terminates the
            // `then` arm because keywords never start an atom.
            let mark = self.lower.mark();
            let e = self.expr()?;
            Ok(self.lower.term(e, mark))
        }
    }

    fn atom(&mut self) -> Result<Item<'a>, SyntaxError> {
        match self.peek() {
            Tok::LParen | Tok::LPairW => self.pair(),
            Tok::LBracket => self.boxed(),
            _ => self.leaf(),
        }
    }

    /// `()`, `(e)`, `(a, b)` or `(|a, b|)`. A parenthesized expression
    /// keeps its item, so `(add) (|1, 2|)` still applies an operation.
    fn pair(&mut self) -> Result<Item<'a>, SyntaxError> {
        let cartesian = self.bump()? == Tok::LPairW;
        if !cartesian && self.peek() == Tok::RParen {
            self.bump()?;
            return Ok(Item::Value(self.lower.store.unit()));
        }
        let a = self.expr()?;
        if !cartesian && self.peek() != Tok::Comma {
            self.expect(Tok::RParen)?;
            return Ok(a);
        }
        self.expect(Tok::Comma)?;
        let a = self.lower.value(a);
        let b = self.expr()?;
        let b = self.lower.value(b);
        self.expect(if cartesian { Tok::RPairW } else { Tok::RParen })?;
        let store = &mut self.lower.store;
        Ok(Item::Value(if cartesian { store.pair_with(a, b) } else { store.pair_tensor(a, b) }))
    }

    /// `[e]{s}`.
    fn boxed(&mut self) -> Result<Item<'a>, SyntaxError> {
        self.bump()?;
        let e = self.expr()?;
        self.expect(Tok::RBracket)?;
        self.expect(Tok::LBrace)?;
        let g = self.grade()?;
        self.expect(Tok::RBrace)?;
        let e = self.lower.value(e);
        Ok(Item::Value(self.lower.store.box_intro(g, e)))
    }

    /// A number, `true`, `false` or a name.
    fn leaf(&mut self) -> Result<Item<'a>, SyntaxError> {
        let store_value = match self.peek() {
            Tok::Number(n) => {
                let q = self.literal(n)?;
                self.lower.store.num(q)
            }
            Tok::Ident("true") => {
                self.bump()?;
                self.lower.store.bool_true()
            }
            Tok::Ident("false") => {
                self.bump()?;
                self.lower.store.bool_false()
            }
            Tok::Ident(s) => {
                self.bump()?;
                return Ok(Item::Name(s));
            }
            other => return self.err(format!("expected an expression, found {other}")),
        };
        Ok(Item::Value(store_value))
    }

    // ----- types -----

    fn ty(&mut self) -> Result<Ty, SyntaxError> {
        let lhs = self.sum_ty()?;
        if self.peek() == Tok::Lolli {
            self.bump()?;
            // The right-hand side nests: `-o` is right-associative.
            self.descend()?;
            let rhs = self.ty()?;
            self.depth -= 1;
            Ok(Ty::lolli(lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn sum_ty(&mut self) -> Result<Ty, SyntaxError> {
        let mut t = self.atom_ty()?;
        while self.peek() == Tok::Plus {
            self.bump()?;
            let r = self.atom_ty()?;
            t = Ty::sum(t, r);
        }
        Ok(t)
    }

    /// One nesting level of types.
    fn atom_ty(&mut self) -> Result<Ty, SyntaxError> {
        self.descend()?;
        let t = match self.peek() {
            Tok::Bang | Tok::Ident("M") => self.graded_ty()?,
            Tok::Lt | Tok::LParen => self.pair_ty()?,
            _ => self.base_ty()?,
        };
        self.depth -= 1;
        Ok(t)
    }

    /// `M[g] τ` or `![g] τ`.
    fn graded_ty(&mut self) -> Result<Ty, SyntaxError> {
        let bang = self.bump()? == Tok::Bang;
        self.expect(Tok::LBracket)?;
        let g = self.grade()?;
        self.expect(Tok::RBracket)?;
        let t = self.atom_ty()?;
        Ok(if bang { Ty::bang(g, t) } else { Ty::monad(g, t) })
    }

    /// `<σ, τ>`, `(σ, τ)` or `(τ)`.
    fn pair_ty(&mut self) -> Result<Ty, SyntaxError> {
        let cartesian = self.bump()? == Tok::Lt;
        let a = self.ty()?;
        if cartesian {
            self.expect(Tok::Comma)?;
            let b = self.ty()?;
            self.expect(Tok::Gt)?;
            Ok(Ty::with(a, b))
        } else if self.peek() == Tok::Comma {
            self.bump()?;
            let b = self.ty()?;
            self.expect(Tok::RParen)?;
            Ok(Ty::tensor(a, b))
        } else {
            self.expect(Tok::RParen)?;
            Ok(a)
        }
    }

    /// `num`, `unit` or `bool`.
    fn base_ty(&mut self) -> Result<Ty, SyntaxError> {
        let t = match self.peek() {
            Tok::Ident("num") => Ty::Num,
            Tok::Ident("unit") => Ty::Unit,
            Tok::Ident("bool") => Ty::bool(),
            Tok::Ident(s) => return self.err(format!("expected a type, found identifier `{s}`")),
            other => return self.err(format!("expected a type, found {other}")),
        };
        self.bump()?;
        Ok(t)
    }

    // ----- grades -----

    fn grade(&mut self) -> Result<Grade, SyntaxError> {
        let mut g = self.grade_term()?;
        while self.peek() == Tok::Plus {
            self.bump()?;
            let t = self.grade_term()?;
            g = g.add(&t);
        }
        Ok(g)
    }

    fn grade_term(&mut self) -> Result<Grade, SyntaxError> {
        let mut g = self.grade_factor()?;
        while self.peek() == Tok::Star {
            self.bump()?;
            let f = self.grade_factor()?;
            g = match g.checked_mul(&f) {
                Some(p) => p,
                None => return self.err("grades must be linear: cannot multiply two symbols"),
            };
        }
        Ok(g)
    }

    fn grade_factor(&mut self) -> Result<Grade, SyntaxError> {
        match self.peek() {
            Tok::Number(n) => {
                let mut q = self.literal(n)?;
                // Optional exact fraction: `1/2`.
                if self.peek() == Tok::Slash {
                    self.bump()?;
                    match self.peek() {
                        Tok::Number(d) => {
                            let den = self.literal(d)?;
                            if den.is_zero() {
                                return self.err("zero denominator in grade");
                            }
                            q = q.div(&den);
                        }
                        other => return self.err(format!("expected a denominator, found {other}")),
                    }
                }
                if q.is_negative() {
                    return self.err("grades must be non-negative");
                }
                Ok(Grade::constant(q))
            }
            Tok::Ident(s) => {
                self.bump()?;
                Ok(if s == "inf" { Grade::infinite() } else { Grade::symbol(s) })
            }
            other => self.err(format!("expected a grade, found {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::{compile, compile_expr_with};
    use crate::sig::Signature;
    use crate::term::Node;

    fn parse(src: &str) -> Result<Lowered, SyntaxError> {
        compile(src, &Signature::relative_precision())
    }

    fn expr(src: &str) -> Result<Lowered, SyntaxError> {
        let free: Vec<(String, Ty)> =
            ["c", "x", "y", "f", "a", "b"].iter().map(|n| (n.to_string(), Ty::Num)).collect();
        compile_expr_with(src, &Signature::relative_precision(), &free).map(|(l, _)| l)
    }

    fn root(l: &Lowered) -> Node {
        *l.store.node(l.root)
    }

    #[test]
    fn parses_types() {
        assert_eq!(parse_ty("num").unwrap(), Ty::Num);
        assert_eq!(
            parse_ty("![2.0]num -o M[2*eps]num").unwrap().to_string(),
            "![2]num -o M[2*eps]num"
        );
        assert_eq!(parse_ty("(num, num)").unwrap().to_string(), "(num, num)");
        assert_eq!(parse_ty("<num, num>").unwrap().to_string(), "<num, num>");
        assert_eq!(parse_ty("bool").unwrap(), Ty::bool());
        assert_eq!(parse_ty("unit + num").unwrap().to_string(), "unit + num");
        assert_eq!(parse_ty("M[1/2 + eps]num").unwrap().to_string(), "M[1/2 + eps]num");
        assert_eq!(parse_ty("![inf]num").unwrap().to_string(), "![inf]num");
        // -o is right-associative.
        assert_eq!(
            parse_ty("num -o num -o num").unwrap(),
            Ty::lolli(Ty::Num, Ty::lolli(Ty::Num, Ty::Num))
        );
    }

    #[test]
    fn parses_ma_from_fig8() {
        let src = r#"
            function MA (x: num) (y: num) (z: num) : M[2*eps]num {
                s = mulfp (x,y);
                let a = s;
                addfp (|a,z|)
            }
        "#;
        let sig = Signature::relative_precision()
            .with_op("mulfp", Ty::tensor(Ty::Num, Ty::Num), Ty::Num)
            .with_op("addfp", Ty::with(Ty::Num, Ty::Num), Ty::Num);
        let l = compile(src, &sig).unwrap();
        let Node::LetFun(_, declared, body, _) = root(&l) else { panic!("expected a LetFun") };
        assert_eq!(
            l.store.ty(declared.expect("declared")).to_string(),
            "num -o num -o num -o M[2*eps]num"
        );
        let mut body = body;
        for _ in 0..3 {
            let Node::Lam(_, _, b) = *l.store.node(body) else { panic!("expected a lambda") };
            body = b;
        }
        let Node::Let(_, v, rest) = *l.store.node(body) else { panic!("expected a let") };
        assert!(matches!(l.store.node(v), Node::Op(..)));
        let Node::LetBind(_, _, rest) = *l.store.node(rest) else { panic!("expected a bind") };
        assert!(matches!(l.store.node(rest), Node::Op(..)));
    }

    #[test]
    fn parses_case_and_if() {
        assert!(matches!(
            root(&expr("case c of (inl x . ret 0.5 | inr y . ret 1)").unwrap()),
            Node::Case(..)
        ));
        assert!(matches!(root(&expr("if c then ret x else ret y").unwrap()), Node::Case(..)));
        let l = expr("if c then { a = mul (x, x); rnd a } else ret y").unwrap();
        assert!(matches!(root(&l), Node::Case(..)));
    }

    #[test]
    fn parses_box_and_letbox() {
        assert!(matches!(root(&expr("let [x1] = x; mul (x1, x1)").unwrap()), Node::LetBox(..)));
        let l = expr("[x]{2.0}").unwrap();
        let Node::BoxIntro(g, _) = root(&l) else { panic!("expected a box") };
        assert_eq!(l.store.grade(g).to_string(), "2");
    }

    #[test]
    fn application_is_left_associative() {
        // `f a b` applies `f a` (let-bound to a temp) to `b`.
        let l = expr("f a b").unwrap();
        let Node::Let(t, fa, outer) = root(&l) else { panic!("expected an ANF let") };
        assert!(matches!(l.store.node(fa), Node::App(..)));
        let Node::App(head, _) = *l.store.node(outer) else { panic!("expected an application") };
        assert_eq!(*l.store.node(head), Node::Var(t));
    }

    #[test]
    fn program_with_main() {
        let src = r#"
            function pow2 (x: ![2.0]num) : num {
                let [x1] = x;
                mul (x1, x1)
            }
            pow2 [3]{2.0}
        "#;
        let l = parse(src).unwrap();
        let Node::LetFun(_, _, _, main) = root(&l) else { panic!("expected a LetFun") };
        assert!(matches!(l.store.node(main), Node::App(..)));
    }

    #[test]
    fn error_positions() {
        let e = parse("function f (x: num) : num { ) }").unwrap_err();
        assert!(e.line >= 1 && e.col > 1, "error has a position: {e}");
        assert!(expr("(a,").is_err());
        assert!(parse_ty("M[").is_err());
        assert!(expr("").is_err());
        // A bad character anywhere wins over an earlier syntax error.
        let e = parse("x = ); y = 1 # 2; y").unwrap_err();
        assert_eq!((e.msg.as_str(), e.col), ("unexpected character `#`", 14));
        // Malformed literals are located at the literal.
        let e = parse("x = 1.2.3; x").unwrap_err();
        assert_eq!((e.line, e.col), (1, 5), "{e}");
        let e = parse_ty("![1..2]num").unwrap_err();
        assert_eq!((e.line, e.col), (1, 3), "{e}");
    }

    #[test]
    fn nesting_is_limited_at_the_crossing_token() {
        let limit = MAX_NESTING as usize;
        let parens = |n: usize| format!("{}2{}", "(".repeat(n), ")".repeat(n));
        assert!(expr(&parens(limit - 1)).is_ok());
        let e = expr(&parens(limit)).unwrap_err();
        assert_eq!((e.line, e.col), (1, MAX_NESTING + 1), "{e}");
        assert_eq!(e.msg, "nesting deeper than 256 levels");
        // Types nest through atomic types and through `-o` chains.
        assert!(parse_ty(&format!("{}num", "![1]".repeat(limit - 1))).is_ok());
        assert!(parse_ty(&format!("{}num", "![1]".repeat(limit))).is_err());
        assert!(parse_ty(&vec!["num"; limit].join(" -o ")).is_ok());
        assert!(parse_ty(&vec!["num"; limit + 1].join(" -o ")).is_err());
    }

    #[test]
    fn written_exponents_are_bounded() {
        assert!(expr("x = 1e100000; x").is_ok());
        let e = expr("x = 1e100001; x").unwrap_err();
        assert_eq!((e.line, e.col), (1, 5), "{e}");
        assert!(e.msg.contains("exponent"), "{e}");
    }

    #[test]
    fn rejects_nonlinear_grades() {
        assert!(parse_ty("M[eps*eps]num").is_err());
        assert!(parse_ty("M[2*eps + u]num").is_ok());
    }
}
