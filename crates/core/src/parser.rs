//! Parser for the Λnum surface syntax.
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
//! The descent is recursive, so nesting is limited to 256 levels
//! (`MAX_NESTING`): deeper input is a syntax error, not a stack overflow.

use crate::grade::Grade;
use crate::lexer::{lex, SyntaxError, Tok, Token};
use crate::ty::Ty;
use numfuzz_exact::Rational;

/// Surface expression tree (pre-lowering).
#[derive(Clone, Debug, PartialEq)]
pub enum SExpr {
    /// Numeric literal.
    Num(Rational),
    /// Variable or function reference.
    Var(String),
    /// `true`.
    True,
    /// `false`.
    False,
    /// `()`.
    Unit,
    /// Tensor pair `(a, b)`.
    PairT(Box<SExpr>, Box<SExpr>),
    /// Cartesian pair `(|a, b|)`.
    PairW(Box<SExpr>, Box<SExpr>),
    /// `inl {τ}? v` (annotation = the absent right type).
    Inl(Option<Ty>, Box<SExpr>),
    /// `inr {σ}? v` (annotation = the absent left type).
    Inr(Option<Ty>, Box<SExpr>),
    /// Application `f a`.
    App(Box<SExpr>, Box<SExpr>),
    /// `rnd e`.
    Rnd(Box<SExpr>),
    /// `ret e`.
    Ret(Box<SExpr>),
    /// `[e]{s}`.
    BoxI(Grade, Box<SExpr>),
    /// `fst e`.
    Fst(Box<SExpr>),
    /// `snd e`.
    Snd(Box<SExpr>),
    /// `if c then e1 else e2`.
    If(Box<SExpr>, Box<SExpr>, Box<SExpr>),
    /// `case v of (inl x. e | inr y. f)`.
    Case(Box<SExpr>, String, Box<SExpr>, String, Box<SExpr>),
    /// `x = e; rest`.
    Let(String, Box<SExpr>, Box<SExpr>),
    /// `let x = e; rest` (monadic bind).
    LetBind(String, Box<SExpr>, Box<SExpr>),
    /// `let [x] = e; rest`.
    LetBox(String, Box<SExpr>, Box<SExpr>),
}

impl Drop for SExpr {
    /// Iterative drop: statement chains can be tens of thousands of nodes
    /// deep, and the default recursive drop glue would overflow the stack.
    fn drop(&mut self) {
        fn take_children(e: &mut SExpr, work: &mut Vec<SExpr>) {
            let mut grab = |b: &mut Box<SExpr>| work.push(std::mem::replace(&mut **b, SExpr::Unit));
            match e {
                SExpr::Num(_) | SExpr::Var(_) | SExpr::True | SExpr::False | SExpr::Unit => {}
                SExpr::PairT(a, b) | SExpr::PairW(a, b) | SExpr::App(a, b) => {
                    grab(a);
                    grab(b);
                }
                SExpr::Inl(_, v)
                | SExpr::Inr(_, v)
                | SExpr::Rnd(v)
                | SExpr::Ret(v)
                | SExpr::BoxI(_, v)
                | SExpr::Fst(v)
                | SExpr::Snd(v) => grab(v),
                SExpr::If(a, b, c) => {
                    grab(a);
                    grab(b);
                    grab(c);
                }
                SExpr::Case(v, _, a, _, b) => {
                    grab(v);
                    grab(a);
                    grab(b);
                }
                SExpr::Let(_, a, b) | SExpr::LetBind(_, a, b) | SExpr::LetBox(_, a, b) => {
                    grab(a);
                    grab(b);
                }
            }
        }
        let mut work = Vec::new();
        take_children(self, &mut work);
        while let Some(mut e) = work.pop() {
            take_children(&mut e, &mut work);
        }
    }
}

/// A surface `function` definition.
#[derive(Clone, Debug, PartialEq)]
pub struct SFnDef {
    /// Function name.
    pub name: String,
    /// Curried parameters.
    pub params: Vec<(String, Ty)>,
    /// Declared result type (of the body, after all parameters).
    pub ret: Ty,
    /// The body block.
    pub body: SExpr,
}

/// A parsed program: definitions plus an optional main expression.
#[derive(Clone, Debug, PartialEq)]
pub struct SProgram {
    /// `function` definitions, in source order.
    pub defs: Vec<SFnDef>,
    /// The trailing expression, if any.
    pub main: Option<SExpr>,
}

/// Parses a full program.
///
/// # Errors
///
/// Returns a [`SyntaxError`] with source position on malformed input.
pub fn parse_program(src: &str) -> Result<SProgram, SyntaxError> {
    let mut p = Parser::new(src)?;
    let prog = p.program()?;
    p.expect_eof()?;
    Ok(prog)
}

/// Parses a single expression (block form: statements allowed).
///
/// # Errors
///
/// Returns a [`SyntaxError`] with source position on malformed input.
pub fn parse_expr(src: &str) -> Result<SExpr, SyntaxError> {
    let mut p = Parser::new(src)?;
    let e = p.block()?;
    p.expect_eof()?;
    Ok(e)
}

/// Parses a type (useful for tests and tools).
///
/// # Errors
///
/// Returns a [`SyntaxError`] with source position on malformed input.
pub fn parse_ty(src: &str) -> Result<Ty, SyntaxError> {
    let mut p = Parser::new(src)?;
    let t = p.ty()?;
    p.expect_eof()?;
    Ok(t)
}

/// The deepest nesting the parser accepts, counted one level per nested
/// `unary` expression, atomic type and `-o` right-hand side (every
/// recursive position of the grammar). Several passes below the parser
/// recurse too, and this keeps all of them inside a 2 MiB worker-thread
/// stack: generated programs nest at most 47 deep and the committed
/// examples at most 4.
const MAX_NESTING: u32 = 256;

/// The three statement forms of a block.
enum StmtKind {
    Let,
    LetBind,
    LetBox,
}

/// Nests a block's statements around its final expression.
fn fold_stmts(stmts: Vec<(StmtKind, String, SExpr)>, tail: SExpr) -> SExpr {
    let mut acc = tail;
    for (kind, x, e) in stmts.into_iter().rev() {
        let (e, rest) = (Box::new(e), Box::new(acc));
        acc = match kind {
            StmtKind::Let => SExpr::Let(x, e, rest),
            StmtKind::LetBind => SExpr::LetBind(x, e, rest),
            StmtKind::LetBox => SExpr::LetBox(x, e, rest),
        };
    }
    acc
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    /// Current nesting depth (see [`MAX_NESTING`]).
    depth: u32,
}

impl Parser {
    fn new(src: &str) -> Result<Self, SyntaxError> {
        Ok(Parser { toks: lex(src)?, pos: 0, depth: 0 })
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].kind
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].kind
    }

    fn here(&self) -> (u32, u32) {
        let t = &self.toks[self.pos];
        (t.line, t.col)
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].kind.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, SyntaxError> {
        let (line, col) = self.here();
        Err(SyntaxError::new(msg, line, col))
    }

    fn expect(&mut self, tok: Tok) -> Result<(), SyntaxError> {
        if self.peek() == &tok {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {tok}, found {}", self.peek()))
        }
    }

    fn expect_eof(&mut self) -> Result<(), SyntaxError> {
        if self.peek() == &Tok::Eof {
            Ok(())
        } else {
            self.err(format!("expected end of input, found {}", self.peek()))
        }
    }

    fn ident(&mut self) -> Result<String, SyntaxError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected an identifier, found {other}")),
        }
    }

    fn is_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.is_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), SyntaxError> {
        if self.eat_kw(kw) {
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

    // ----- program -----

    fn program(&mut self) -> Result<SProgram, SyntaxError> {
        let mut defs = Vec::new();
        while self.is_kw("function") {
            defs.push(self.fndef()?);
        }
        let main = if self.peek() == &Tok::Eof { None } else { Some(self.block()?) };
        Ok(SProgram { defs, main })
    }

    fn fndef(&mut self) -> Result<SFnDef, SyntaxError> {
        assert!(self.eat_kw("function"));
        let name = self.ident()?;
        let mut params = Vec::new();
        while self.peek() == &Tok::LParen {
            self.bump();
            let p = self.ident()?;
            self.expect(Tok::Colon)?;
            let t = self.ty()?;
            self.expect(Tok::RParen)?;
            params.push((p, t));
        }
        self.expect(Tok::Colon)?;
        let ret = self.ty()?;
        self.expect(Tok::LBrace)?;
        let body = self.block()?;
        self.expect(Tok::RBrace)?;
        Ok(SFnDef { name, params, ret, body })
    }

    // ----- expressions -----

    /// `stmt* expr`. Iterative: statements are collected in a loop and the
    /// nest is folded at the end, so blocks with tens of thousands of
    /// statements (Table 4 scale) parse without deep recursion.
    fn block(&mut self) -> Result<SExpr, SyntaxError> {
        let mut stmts = Vec::new();
        while let Some(stmt) = self.stmt()? {
            stmts.push(stmt);
        }
        let tail = self.expr()?;
        Ok(fold_stmts(stmts, tail))
    }

    /// One `x = e;`, `let x = e;` or `let [x] = e;` statement, or `None`
    /// at the block's final expression.
    fn stmt(&mut self) -> Result<Option<(StmtKind, String, SExpr)>, SyntaxError> {
        let kind = if self.eat_kw("let") {
            if self.peek() == &Tok::LBracket {
                self.bump();
                StmtKind::LetBox
            } else {
                StmtKind::LetBind
            }
        } else if matches!(self.peek(), Tok::Ident(_))
            && self.peek2() == &Tok::Eq
            && !self.is_kw("true")
            && !self.is_kw("false")
        {
            StmtKind::Let
        } else {
            return Ok(None);
        };
        let x = self.ident()?;
        if let StmtKind::LetBox = kind {
            self.expect(Tok::RBracket)?;
        }
        self.expect(Tok::Eq)?;
        let e = self.expr()?;
        self.expect(Tok::Semi)?;
        Ok(Some((kind, x, e)))
    }

    fn expr(&mut self) -> Result<SExpr, SyntaxError> {
        let head = self.unary()?;
        if self.starts_atom() {
            self.application(head)
        } else {
            Ok(head)
        }
    }

    /// `head a b …`, left-associative.
    fn application(&mut self, mut head: SExpr) -> Result<SExpr, SyntaxError> {
        while self.starts_atom() {
            let arg = self.unary()?;
            head = SExpr::App(Box::new(head), Box::new(arg));
        }
        Ok(head)
    }

    fn starts_atom(&self) -> bool {
        match self.peek() {
            Tok::Number(_) | Tok::LParen | Tok::LPairW | Tok::LBracket => true,
            Tok::Ident(s) => {
                !matches!(s.as_str(), "then" | "else" | "of" | "function" | "let" | "in")
            }
            _ => false,
        }
    }

    /// One nesting level: a `rnd`/`ret`/`fst`/`snd`/`inl`/`inr` prefix,
    /// `if`, `case`, or an atom. Each form has its own function, which
    /// keeps the stack frames on the recursive path small.
    fn unary(&mut self) -> Result<SExpr, SyntaxError> {
        self.descend()?;
        let e = if self.is_kw("if") {
            self.conditional()
        } else if self.is_kw("case") {
            self.case()
        } else if ["rnd", "ret", "fst", "snd", "inl", "inr"].iter().any(|kw| self.is_kw(kw)) {
            self.prefixed()
        } else {
            self.atom()
        };
        self.depth -= 1;
        e
    }

    fn prefixed(&mut self) -> Result<SExpr, SyntaxError> {
        let Tok::Ident(kw) = self.bump() else { unreachable!("called at a prefix keyword") };
        let annotation = match kw.as_str() {
            "inl" | "inr" => self.injection_annotation()?,
            _ => None,
        };
        let arg = Box::new(self.unary()?);
        Ok(match kw.as_str() {
            "rnd" => SExpr::Rnd(arg),
            "ret" => SExpr::Ret(arg),
            "fst" => SExpr::Fst(arg),
            "snd" => SExpr::Snd(arg),
            "inl" => SExpr::Inl(annotation, arg),
            _ => SExpr::Inr(annotation, arg),
        })
    }

    fn conditional(&mut self) -> Result<SExpr, SyntaxError> {
        self.bump();
        let c = Box::new(self.expr()?);
        self.expect_kw("then")?;
        let e1 = Box::new(self.arm()?);
        self.expect_kw("else")?;
        let e2 = Box::new(self.arm()?);
        Ok(SExpr::If(c, e1, e2))
    }

    fn case(&mut self) -> Result<SExpr, SyntaxError> {
        self.bump();
        let v = self.expr()?;
        self.expect_kw("of")?;
        self.expect(Tok::LParen)?;
        self.expect_kw("inl")?;
        let x = self.ident()?;
        self.expect(Tok::Dot)?;
        let e1 = self.block()?;
        self.expect(Tok::Pipe)?;
        self.expect_kw("inr")?;
        let y = self.ident()?;
        self.expect(Tok::Dot)?;
        let e2 = self.block()?;
        self.expect(Tok::RParen)?;
        Ok(SExpr::Case(Box::new(v), x, Box::new(e1), y, Box::new(e2)))
    }

    fn injection_annotation(&mut self) -> Result<Option<Ty>, SyntaxError> {
        if self.peek() == &Tok::LBrace {
            self.bump();
            let t = self.ty()?;
            self.expect(Tok::RBrace)?;
            Ok(Some(t))
        } else {
            Ok(None)
        }
    }

    fn arm(&mut self) -> Result<SExpr, SyntaxError> {
        if self.peek() == &Tok::LBrace {
            self.bump();
            let e = self.block()?;
            self.expect(Tok::RBrace)?;
            Ok(e)
        } else {
            // Unbraced arms span a full application; `else` terminates the
            // `then` arm because keywords never start an atom.
            self.expr()
        }
    }

    fn atom(&mut self) -> Result<SExpr, SyntaxError> {
        match self.peek() {
            Tok::LParen | Tok::LPairW => self.pair(),
            Tok::LBracket => self.boxed(),
            _ => self.leaf(),
        }
    }

    /// `()`, `(e)`, `(a, b)` or `(|a, b|)`.
    fn pair(&mut self) -> Result<SExpr, SyntaxError> {
        let cartesian = self.bump() == Tok::LPairW;
        if !cartesian && self.peek() == &Tok::RParen {
            self.bump();
            return Ok(SExpr::Unit);
        }
        let a = self.expr()?;
        if !cartesian && self.peek() != &Tok::Comma {
            self.expect(Tok::RParen)?;
            return Ok(a);
        }
        self.expect(Tok::Comma)?;
        let b = Box::new(self.expr()?);
        self.expect(if cartesian { Tok::RPairW } else { Tok::RParen })?;
        let a = Box::new(a);
        Ok(if cartesian { SExpr::PairW(a, b) } else { SExpr::PairT(a, b) })
    }

    /// `[e]{s}`.
    fn boxed(&mut self) -> Result<SExpr, SyntaxError> {
        self.bump();
        let e = self.expr()?;
        self.expect(Tok::RBracket)?;
        self.expect(Tok::LBrace)?;
        let g = self.grade()?;
        self.expect(Tok::RBrace)?;
        Ok(SExpr::BoxI(g, Box::new(e)))
    }

    /// A number, `true`, `false` or a variable.
    fn leaf(&mut self) -> Result<SExpr, SyntaxError> {
        match self.peek().clone() {
            Tok::Number(n) => {
                self.bump();
                let q = Rational::from_decimal_str(&n)
                    .map_err(|e| SyntaxError::new(e.to_string(), 0, 0))?;
                Ok(SExpr::Num(q))
            }
            Tok::Ident(s) => {
                self.bump();
                Ok(match s.as_str() {
                    "true" => SExpr::True,
                    "false" => SExpr::False,
                    _ => SExpr::Var(s),
                })
            }
            other => self.err(format!("expected an expression, found {other}")),
        }
    }

    // ----- types -----

    fn ty(&mut self) -> Result<Ty, SyntaxError> {
        let lhs = self.sum_ty()?;
        if self.peek() == &Tok::Lolli {
            self.bump();
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
        while self.peek() == &Tok::Plus {
            self.bump();
            let r = self.atom_ty()?;
            t = Ty::sum(t, r);
        }
        Ok(t)
    }

    /// One nesting level of types.
    fn atom_ty(&mut self) -> Result<Ty, SyntaxError> {
        self.descend()?;
        let t = match self.peek() {
            Tok::Bang => self.graded_ty()?,
            Tok::Ident(s) if s == "M" => self.graded_ty()?,
            Tok::Lt | Tok::LParen => self.pair_ty()?,
            _ => self.base_ty()?,
        };
        self.depth -= 1;
        Ok(t)
    }

    /// `M[g] τ` or `![g] τ`.
    fn graded_ty(&mut self) -> Result<Ty, SyntaxError> {
        let bang = self.bump() == Tok::Bang;
        self.expect(Tok::LBracket)?;
        let g = self.grade()?;
        self.expect(Tok::RBracket)?;
        let t = self.atom_ty()?;
        Ok(if bang { Ty::bang(g, t) } else { Ty::monad(g, t) })
    }

    /// `<σ, τ>`, `(σ, τ)` or `(τ)`.
    fn pair_ty(&mut self) -> Result<Ty, SyntaxError> {
        let cartesian = self.bump() == Tok::Lt;
        let a = self.ty()?;
        if cartesian {
            self.expect(Tok::Comma)?;
            let b = self.ty()?;
            self.expect(Tok::Gt)?;
            Ok(Ty::with(a, b))
        } else if self.peek() == &Tok::Comma {
            self.bump();
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
            Tok::Ident(s) if s == "num" => Ty::Num,
            Tok::Ident(s) if s == "unit" => Ty::Unit,
            Tok::Ident(s) if s == "bool" => Ty::bool(),
            Tok::Ident(s) => return self.err(format!("expected a type, found identifier `{s}`")),
            other => return self.err(format!("expected a type, found {other}")),
        };
        self.bump();
        Ok(t)
    }

    // ----- grades -----

    fn grade(&mut self) -> Result<Grade, SyntaxError> {
        let mut g = self.grade_term()?;
        while self.peek() == &Tok::Plus {
            self.bump();
            let t = self.grade_term()?;
            g = g.add(&t);
        }
        Ok(g)
    }

    fn grade_term(&mut self) -> Result<Grade, SyntaxError> {
        let mut g = self.grade_factor()?;
        while self.peek() == &Tok::Star {
            self.bump();
            let f = self.grade_factor()?;
            g = match g.checked_mul(&f) {
                Some(p) => p,
                None => return self.err("grades must be linear: cannot multiply two symbols"),
            };
        }
        Ok(g)
    }

    fn grade_factor(&mut self) -> Result<Grade, SyntaxError> {
        match self.peek().clone() {
            Tok::Number(n) => {
                self.bump();
                let mut q = Rational::from_decimal_str(&n)
                    .map_err(|e| SyntaxError::new(e.to_string(), 0, 0))?;
                // Optional exact fraction: `1/2`.
                if self.peek() == &Tok::Slash {
                    self.bump();
                    match self.peek().clone() {
                        Tok::Number(d) => {
                            self.bump();
                            let den = Rational::from_decimal_str(&d)
                                .map_err(|e| SyntaxError::new(e.to_string(), 0, 0))?;
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
            Tok::Ident(s) if s == "inf" => {
                self.bump();
                Ok(Grade::infinite())
            }
            Tok::Ident(s) => {
                self.bump();
                Ok(Grade::symbol(&s))
            }
            other => self.err(format!("expected a grade, found {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.defs.len(), 1);
        let ma = &prog.defs[0];
        assert_eq!(ma.name, "MA");
        assert_eq!(ma.params.len(), 3);
        assert_eq!(ma.ret.to_string(), "M[2*eps]num");
        match &ma.body {
            SExpr::Let(s, v, rest) => {
                assert_eq!(s, "s");
                assert!(matches!(**v, SExpr::App(..)));
                match &**rest {
                    SExpr::LetBind(a, _, rest2) => {
                        assert_eq!(a, "a");
                        assert!(matches!(**rest2, SExpr::App(..)));
                    }
                    other => panic!("expected let-bind, got {other:?}"),
                }
            }
            other => panic!("expected let, got {other:?}"),
        }
    }

    #[test]
    fn parses_case_and_if() {
        let e = parse_expr("case c of (inl x . ret 0.5 | inr y . ret 1)").unwrap();
        assert!(matches!(e, SExpr::Case(..)));
        let e = parse_expr("if c then ret x else ret y").unwrap();
        assert!(matches!(e, SExpr::If(..)));
        let e = parse_expr("if c then { a = mul (x, x); rnd a } else ret y").unwrap();
        assert!(matches!(e, SExpr::If(..)));
    }

    #[test]
    fn parses_box_and_letbox() {
        let e = parse_expr("let [x1] = x; mul (x1, x1)").unwrap();
        assert!(matches!(e, SExpr::LetBox(..)));
        let e = parse_expr("[x]{2.0}").unwrap();
        match &e {
            SExpr::BoxI(g, _) => assert_eq!(g.to_string(), "2"),
            other => panic!("expected box, got {other:?}"),
        }
    }

    #[test]
    fn application_is_left_associative() {
        let e = parse_expr("f a b").unwrap();
        match &e {
            SExpr::App(fa, b) => {
                assert!(matches!(**fa, SExpr::App(..)));
                assert_eq!(**b, SExpr::Var("b".into()));
            }
            other => panic!("expected application, got {other:?}"),
        }
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
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.defs.len(), 1);
        assert!(prog.main.is_some());
    }

    #[test]
    fn error_positions() {
        let e = parse_program("function f (x: num) : num { ) }").unwrap_err();
        assert!(e.line >= 1 && e.col > 1, "error has a position: {e}");
        assert!(parse_expr("(a,").is_err());
        assert!(parse_ty("M[").is_err());
        assert!(parse_expr("").is_err());
    }

    #[test]
    fn nesting_is_limited_at_the_crossing_token() {
        let limit = MAX_NESTING as usize;
        let parens = |n: usize| format!("{}2{}", "(".repeat(n), ")".repeat(n));
        assert!(parse_expr(&parens(limit - 1)).is_ok());
        let e = parse_expr(&parens(limit)).unwrap_err();
        assert_eq!((e.line, e.col), (1, MAX_NESTING + 1), "{e}");
        assert_eq!(e.msg, "nesting deeper than 256 levels");
        // Types nest through atomic types and through `-o` chains.
        assert!(parse_ty(&format!("{}num", "![1]".repeat(limit - 1))).is_ok());
        assert!(parse_ty(&format!("{}num", "![1]".repeat(limit))).is_err());
        assert!(parse_ty(&vec!["num"; limit].join(" -o ")).is_ok());
        assert!(parse_ty(&vec!["num"; limit + 1].join(" -o ")).is_err());
    }

    #[test]
    fn rejects_nonlinear_grades() {
        assert!(parse_ty("M[eps*eps]num").is_err());
        assert!(parse_ty("M[2*eps + u]num").is_ok());
    }
}
