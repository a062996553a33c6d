//! The one structured error type of the facade API.
//!
//! Every failure mode of the pipeline — lexing, parsing, lowering, type
//! checking, input binding, evaluation, soundness validation, kernel
//! translation — surfaces as a [`Diagnostic`]: an error code from a
//! stable catalogue, a human message, and (when the program came from
//! source text) a `file:line:col` span with the offending line. This
//! replaces the `SyntaxError` / `CheckError` / `Box<dyn Error>` soup the
//! pre-0.2 free functions exposed.

use numfuzz_core::{CheckError, SyntaxError};
use numfuzz_interp::EvalError;
use std::fmt;

/// A 1-based source position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// Stable error codes, grouped by pipeline stage:
/// `E00xx` syntax/lowering, `E01xx` type checking, `E02xx`
/// evaluation/validation, `E03xx` API usage (inputs, translation),
/// `E05xx` backward-mode analysis (Bean's linearity discipline).
///
/// # Catalog
///
/// | code | variant | stage |
/// |---|---|---|
/// | `E0001` | [`ErrorCode::Syntax`] | parse |
/// | `E0002` | [`ErrorCode::UnboundName`] | lower |
/// | `E0003` | [`ErrorCode::MisusedOp`] | lower |
/// | `E0101` | [`ErrorCode::UnknownOp`] | check |
/// | `E0102` | [`ErrorCode::Shape`] | check |
/// | `E0103` | [`ErrorCode::ArgMismatch`] | check |
/// | `E0104` | [`ErrorCode::OpArgMismatch`] | check |
/// | `E0105` | [`ErrorCode::LambdaSensitivity`] | check |
/// | `E0106` | [`ErrorCode::NonlinearGrade`] | check |
/// | `E0107` | [`ErrorCode::BoxZeroGrade`] | check |
/// | `E0108` | [`ErrorCode::BranchMismatch`] | check |
/// | `E0109` | [`ErrorCode::GradeMismatch`] | check |
/// | `E0201` | [`ErrorCode::NotMonadicNum`] | bound/validate |
/// | `E0202` | [`ErrorCode::UnresolvedGrade`] | bound/validate |
/// | `E0203` | [`ErrorCode::EvalFailed`] | run |
/// | `E0204` | [`ErrorCode::BoundViolated`] | run/validate |
/// | `E0301` | [`ErrorCode::BadInput`] | inputs |
/// | `E0302` | [`ErrorCode::Untranslatable`] | kernel import |
/// | `E0303` | [`ErrorCode::SignatureMismatch`] | session misuse |
/// | `E0501` | [`ErrorCode::UnusedLinear`] | backward check |
/// | `E0502` | [`ErrorCode::DuplicatedUse`] | backward check |
/// | `E0503` | [`ErrorCode::BackwardIncompatible`] | backward check |
/// | `E0504` | [`ErrorCode::NoCarrier`] | backward check |
/// | `E0505` | [`ErrorCode::BranchSupport`] | backward check |
///
/// Every variant's documentation below carries a compiled example that
/// actually triggers it (except `E0204`, which by the soundness theorem
/// has no triggering program).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// `E0001` — lexical or grammatical error in the surface syntax.
    ///
    /// ```
    /// use numfuzz::{ErrorCode, Program};
    /// let err = Program::parse("function (").unwrap_err();
    /// assert_eq!(err.code, ErrorCode::Syntax);
    /// ```
    Syntax,
    /// `E0002` — a name is not in scope.
    ///
    /// ```
    /// use numfuzz::{ErrorCode, Program};
    /// let err = Program::parse("x").unwrap_err();
    /// assert_eq!(err.code, ErrorCode::UnboundName);
    /// ```
    UnboundName,
    /// `E0003` — a primitive operation used in a non-applied position
    /// (operations are not first-class; wrap them in a `function`).
    ///
    /// ```
    /// use numfuzz::{ErrorCode, Program};
    /// let err = Program::parse("add").unwrap_err();
    /// assert_eq!(err.code, ErrorCode::MisusedOp);
    /// ```
    MisusedOp,
    /// `E0101` — an operation name is not in the signature. Parsed
    /// programs can only hit this when checked against a *different*
    /// signature of the same instantiation (unknown names fail at
    /// lowering otherwise):
    ///
    /// ```
    /// use numfuzz::prelude::*;
    /// use numfuzz::core::Signature;
    ///
    /// let extended = Signature::relative_precision().with_op("cube", Ty::Num, Ty::Num);
    /// let rich = Analyzer::builder().custom_signature(extended).build();
    /// let program = rich.parse("s = cube 2; rnd s")?;
    /// // A plain session has no `cube`:
    /// let err = Analyzer::new().check(&program).unwrap_err();
    /// assert_eq!(err.code, ErrorCode::UnknownOp);
    /// # Ok::<(), numfuzz::Diagnostic>(())
    /// ```
    UnknownOp,
    /// `E0102` — a term's type has the wrong shape for its context
    /// (applying a non-function, projecting a non-pair, ...).
    ///
    /// ```
    /// use numfuzz::prelude::*;
    /// let analyzer = Analyzer::new();
    /// let err = analyzer.check(&analyzer.parse("2 3")?).unwrap_err();
    /// assert_eq!(err.code, ErrorCode::Shape);
    /// # Ok::<(), numfuzz::Diagnostic>(())
    /// ```
    Shape,
    /// `E0103` — a function argument is not a subtype of the domain.
    ///
    /// ```
    /// use numfuzz::prelude::*;
    /// let analyzer = Analyzer::new();
    /// let program = analyzer.parse("function f (x: num) : num { x }\nf ()")?;
    /// let err = analyzer.check(&program).unwrap_err();
    /// assert_eq!(err.code, ErrorCode::ArgMismatch);
    /// # Ok::<(), numfuzz::Diagnostic>(())
    /// ```
    ArgMismatch,
    /// `E0104` — an operation argument does not match the signature.
    /// The classic trip-up: RP `add` takes the *Cartesian* pair
    /// `<num, num>` (max metric), not the tensor `(num, num)`.
    ///
    /// ```
    /// use numfuzz::prelude::*;
    /// let analyzer = Analyzer::new();
    /// let err = analyzer.check(&analyzer.parse("s = add (1, 2); rnd s")?).unwrap_err();
    /// assert_eq!(err.code, ErrorCode::OpArgMismatch);
    /// // `add (|1, 2|)` — a Cartesian pair — would check.
    /// # Ok::<(), numfuzz::Diagnostic>(())
    /// ```
    OpArgMismatch,
    /// `E0105` — a λ-bound variable is used at sensitivity above 1;
    /// Λnum is linear, so the parameter must be boxed (`![s]`) to that
    /// sensitivity.
    ///
    /// ```
    /// use numfuzz::prelude::*;
    /// let analyzer = Analyzer::new();
    /// let src = "function f (x: num) : M[eps]num { s = mul (x, x); rnd s }\nf 2";
    /// let err = analyzer.check(&analyzer.parse(src)?).unwrap_err();
    /// assert_eq!(err.code, ErrorCode::LambdaSensitivity);
    /// // Declaring `x: ![2]num` and unboxing (`let [x1] = x;`) fixes it.
    /// # Ok::<(), numfuzz::Diagnostic>(())
    /// ```
    LambdaSensitivity,
    /// `E0106` — a product of two symbolic grades arose (grades are
    /// linear expressions; `eps * eps` has no representation).
    ///
    /// ```
    /// use numfuzz::prelude::*;
    /// let analyzer = Analyzer::new();
    /// let src = "function f (x: num) : num { x }\n[[f]{eps}]{eps}";
    /// let err = analyzer.check(&analyzer.parse(src)?).unwrap_err();
    /// assert_eq!(err.code, ErrorCode::NonlinearGrade);
    /// # Ok::<(), numfuzz::Diagnostic>(())
    /// ```
    NonlinearGrade,
    /// `E0107` — a variable boxed at grade 0 is used (grade 0 promises
    /// the value influences nothing, so using it is contradictory).
    ///
    /// ```
    /// use numfuzz::prelude::*;
    /// let analyzer = Analyzer::new();
    /// let src = "function f (x: ![0]num) : num { let [x1] = x; x1 }\nf [1]{0}";
    /// let err = analyzer.check(&analyzer.parse(src)?).unwrap_err();
    /// assert_eq!(err.code, ErrorCode::BoxZeroGrade);
    /// # Ok::<(), numfuzz::Diagnostic>(())
    /// ```
    BoxZeroGrade,
    /// `E0108` — `case` (or `if`) branches have incompatible types.
    ///
    /// ```
    /// use numfuzz::prelude::*;
    /// let analyzer = Analyzer::new();
    /// let src = "function f (c: bool) : num { if c then 1 else () }\nf true";
    /// let err = analyzer.check(&analyzer.parse(src)?).unwrap_err();
    /// assert_eq!(err.code, ErrorCode::BranchMismatch);
    /// # Ok::<(), numfuzz::Diagnostic>(())
    /// ```
    BranchMismatch,
    /// `E0109` — the inferred type is not a subtype of the declaration
    /// (most often: the declared monadic grade is smaller than the
    /// rounding error the body actually accumulates).
    ///
    /// ```
    /// use numfuzz::prelude::*;
    /// let analyzer = Analyzer::new();
    /// let src = "function f (xy: (num, num)) : M[0]num { s = mul xy; rnd s }\nf (1, 2)";
    /// let err = analyzer.check(&analyzer.parse(src)?).unwrap_err();
    /// assert_eq!(err.code, ErrorCode::GradeMismatch);
    /// # Ok::<(), numfuzz::Diagnostic>(())
    /// ```
    GradeMismatch,
    /// `E0201` — the program's type is not `M[r]num`, so no rounding
    /// error bound applies.
    ///
    /// ```
    /// use numfuzz::prelude::*;
    /// let analyzer = Analyzer::new();
    /// let typed = analyzer.check(&analyzer.parse("42")?)?;
    /// let err = analyzer.bound(&typed).unwrap_err();
    /// assert_eq!(err.code, ErrorCode::NotMonadicNum);
    /// # Ok::<(), numfuzz::Diagnostic>(())
    /// ```
    NotMonadicNum,
    /// `E0202` — the grade mentions a symbol with no value, or is
    /// infinite (`M[inf]num`). A session assigns one symbol, the
    /// signature's rounding symbol (`eps`, or `delta` for the
    /// absolute-error signature), its rounding unit; a declared grade may
    /// name any other:
    ///
    /// ```
    /// use numfuzz::prelude::*;
    /// let analyzer = Analyzer::new();
    /// let src = "function f (x: num) : M[eps + k]num { rnd x }\nf 1.5";
    /// let err = analyzer.run(&analyzer.parse(src)?, &Inputs::none()).unwrap_err();
    /// assert_eq!(err.code, ErrorCode::UnresolvedGrade);
    /// # Ok::<(), numfuzz::Diagnostic>(())
    /// ```
    UnresolvedGrade,
    /// `E0203` — evaluation failed on a numeric side condition.
    ///
    /// ```
    /// use numfuzz::prelude::*;
    /// let analyzer = Analyzer::new();
    /// let program = analyzer.parse("s = div (1, 0); rnd s")?;
    /// let err = analyzer.run(&program, &Inputs::none()).unwrap_err();
    /// assert_eq!(err.code, ErrorCode::EvalFailed);
    /// # Ok::<(), numfuzz::Diagnostic>(())
    /// ```
    EvalFailed,
    /// `E0204` — the error-soundness bound was violated. Corollary 4.20
    /// proves this cannot happen, so there is no triggering example: the
    /// CLI's `numfuzz run` maps a failing [`SoundnessReport`] here, and
    /// seeing it would mean an implementation bug (the `validate` sweep
    /// binary exists to witness that none does).
    ///
    /// [`SoundnessReport`]: numfuzz_interp::SoundnessReport
    BoundViolated,
    /// `E0301` — a program input is missing or names no free variable.
    ///
    /// ```
    /// use numfuzz::prelude::*;
    /// let analyzer = Analyzer::new();
    /// let program = analyzer.parse("rnd 1")?; // closed: no free variables
    /// let inputs = Inputs::none().with_num("z", Rational::from_int(1));
    /// let err = analyzer.run(&program, &inputs).unwrap_err();
    /// assert_eq!(err.code, ErrorCode::BadInput);
    /// # Ok::<(), numfuzz::Diagnostic>(())
    /// ```
    BadInput,
    /// `E0302` — an IR kernel has no Λnum translation (the RP fragment
    /// has no subtraction: relative error is unbounded near cancellation).
    ///
    /// ```
    /// use numfuzz::benchsuite::{Expr, Kernel};
    /// use numfuzz::prelude::*;
    ///
    /// let one = RatInterval::point(Rational::from_int(1));
    /// let kernel = Kernel::new("diff", vec![("x", one)], Expr::sub(Expr::num("1"), Expr::num("2")));
    /// let err = Program::from_kernel(&kernel).unwrap_err();
    /// assert_eq!(err.code, ErrorCode::Untranslatable);
    /// ```
    Untranslatable,
    /// `E0303` — a program lowered against one instantiation's signature
    /// was handed to an analyzer configured for another (operation names
    /// differ between instantiations, so cross-checking would only
    /// produce misleading unknown-operation errors).
    ///
    /// ```
    /// use numfuzz::prelude::*;
    /// let program = Program::parse("rnd 1")?; // relative-precision signature
    /// let abs = Analyzer::builder().signature(Instantiation::AbsoluteError).build();
    /// let err = abs.check(&program).unwrap_err();
    /// assert_eq!(err.code, ErrorCode::SignatureMismatch);
    /// # Ok::<(), numfuzz::Diagnostic>(())
    /// ```
    SignatureMismatch,
    /// `E0501` — backward mode: a linear binder is never consumed. Bean
    /// rejects weakening on data — an unconsumed input would have no
    /// backward error bound, breaking the per-input guarantee.
    ///
    /// ```
    /// use numfuzz::prelude::*;
    /// let analyzer = Analyzer::new();
    /// let err = analyzer.check_backward(&analyzer.parse("function f (x: num) : num { 2 }")?).unwrap_err();
    /// assert_eq!(err.code, ErrorCode::UnusedLinear);
    /// # Ok::<(), numfuzz::Diagnostic>(())
    /// ```
    UnusedLinear,
    /// `E0502` — backward mode: a linear variable is consumed more than
    /// once. General contraction is exactly what backward error cannot
    /// cross: two uses would each demand their own perturbation of the
    /// same input.
    ///
    /// ```
    /// use numfuzz::prelude::*;
    /// let analyzer = Analyzer::new();
    /// let src = "function f (x: num) : M[eps]num { rnd (mul (x, x)) }";
    /// let err = analyzer.check_backward(&analyzer.parse(src)?).unwrap_err();
    /// assert_eq!(err.code, ErrorCode::DuplicatedUse);
    /// # Ok::<(), numfuzz::Diagnostic>(())
    /// ```
    DuplicatedUse,
    /// `E0503` — backward mode: a construct with no backward-error
    /// interpretation (`!`-introduction/elimination, Cartesian
    /// projections, first-class function application, `err`).
    ///
    /// ```
    /// use numfuzz::prelude::*;
    /// let analyzer = Analyzer::new();
    /// let err = analyzer.check_backward(&analyzer.parse("fst (|1, 2|)")?).unwrap_err();
    /// assert_eq!(err.code, ErrorCode::BackwardIncompatible);
    /// # Ok::<(), numfuzz::Diagnostic>(())
    /// ```
    BackwardIncompatible,
    /// `E0504` — backward mode: rounding error arises over a context with
    /// no linear variable to carry it (e.g. `rnd` over constants) — the
    /// committed error cannot be attributed to any input.
    ///
    /// ```
    /// use numfuzz::prelude::*;
    /// let analyzer = Analyzer::new();
    /// let err = analyzer.check_backward(&analyzer.parse("rnd 1.5")?).unwrap_err();
    /// assert_eq!(err.code, ErrorCode::NoCarrier);
    /// # Ok::<(), numfuzz::Diagnostic>(())
    /// ```
    NoCarrier,
    /// `E0505` — backward mode: `case` (or `if`) branches consume
    /// different linear variables; either branch may run, so both must
    /// consume the same context.
    ///
    /// ```
    /// use numfuzz::prelude::*;
    /// let analyzer = Analyzer::new();
    /// let src = "function h (x: num) (y: num) : num { c = is_pos x; if c then y else 0 }";
    /// let err = analyzer.check_backward(&analyzer.parse(src)?).unwrap_err();
    /// assert_eq!(err.code, ErrorCode::BranchSupport);
    /// # Ok::<(), numfuzz::Diagnostic>(())
    /// ```
    BranchSupport,
}

impl ErrorCode {
    /// The stable code string (`E0102` style).
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Syntax => "E0001",
            ErrorCode::UnboundName => "E0002",
            ErrorCode::MisusedOp => "E0003",
            ErrorCode::UnknownOp => "E0101",
            ErrorCode::Shape => "E0102",
            ErrorCode::ArgMismatch => "E0103",
            ErrorCode::OpArgMismatch => "E0104",
            ErrorCode::LambdaSensitivity => "E0105",
            ErrorCode::NonlinearGrade => "E0106",
            ErrorCode::BoxZeroGrade => "E0107",
            ErrorCode::BranchMismatch => "E0108",
            ErrorCode::GradeMismatch => "E0109",
            ErrorCode::NotMonadicNum => "E0201",
            ErrorCode::UnresolvedGrade => "E0202",
            ErrorCode::EvalFailed => "E0203",
            ErrorCode::BoundViolated => "E0204",
            ErrorCode::BadInput => "E0301",
            ErrorCode::Untranslatable => "E0302",
            ErrorCode::SignatureMismatch => "E0303",
            ErrorCode::UnusedLinear => "E0501",
            ErrorCode::DuplicatedUse => "E0502",
            ErrorCode::BackwardIncompatible => "E0503",
            ErrorCode::NoCarrier => "E0504",
            ErrorCode::BranchSupport => "E0505",
        }
    }

    /// Whether the code describes a defect in the *program being
    /// analyzed* (as opposed to harness misuse: bad inputs, mismatched
    /// sessions). The CLI maps program errors to its "ill-typed program"
    /// exit code and harness misuse to its usage exit code.
    pub fn is_program_error(self) -> bool {
        !matches!(self, ErrorCode::BadInput | ErrorCode::SignatureMismatch)
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A structured, optionally spanned error.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Which failure this is.
    pub code: ErrorCode,
    /// Human-readable description.
    pub message: String,
    /// The file (or synthetic name) the program came from, when known.
    pub file: Option<String>,
    /// Position in the source, when known.
    pub span: Option<Span>,
    /// The source line at `span`, for rendering.
    pub snippet: Option<String>,
    /// Extra context lines (hints, the paper rule involved, ...).
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// A bare diagnostic with no location.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            message: message.into(),
            file: None,
            span: None,
            snippet: None,
            notes: Vec::new(),
        }
    }

    /// Attaches a file (or synthetic program) name.
    pub fn with_file(mut self, file: impl Into<String>) -> Self {
        self.file = Some(file.into());
        self
    }

    /// Attaches a hint line.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Attaches a position, capturing the snippet line from `src`.
    pub fn with_span_in(mut self, span: Span, src: Option<&str>) -> Self {
        self.snippet =
            src.and_then(|s| s.lines().nth(span.line.saturating_sub(1) as usize)).map(String::from);
        self.span = Some(span);
        self
    }

    /// Locates the first whole-word occurrence of `needle` in `src` and
    /// attaches it as the span. No-op when the needle does not occur.
    pub fn locate(self, src: Option<&str>, needle: &str) -> Self {
        let Some(src) = src else { return self };
        match find_word(src, needle) {
            Some(span) => self.with_span_in(span, Some(src)),
            None => self,
        }
    }

    /// Renders the diagnostic in full (multi-line, rustc style).
    ///
    /// ```
    /// use numfuzz::Program;
    ///
    /// let err = Program::parse_named("demo.nf", "rnd y").unwrap_err();
    /// let rendered = err.render();
    /// assert!(rendered.starts_with("error[E0002]"), "{rendered}");
    /// assert!(rendered.contains("demo.nf:1:5"), "{rendered}");
    /// ```
    pub fn render(&self) -> String {
        let mut out = format!("error[{}]: {}", self.code, self.message);
        if let Some(span) = self.span {
            let file = self.file.as_deref().unwrap_or("<source>");
            out.push_str(&format!("\n  --> {}:{}:{}", file, span.line, span.col));
            if let Some(snippet) = &self.snippet {
                out.push_str(&format!("\n   |\n   | {snippet}\n   | "));
                for _ in 1..span.col {
                    out.push(' ');
                }
                out.push('^');
            }
        } else if let Some(file) = &self.file {
            out.push_str(&format!("\n  --> {file}"));
        }
        for note in &self.notes {
            out.push_str(&format!("\n  note: {note}"));
        }
        out
    }

    // ---- constructors from the engine error types ----

    pub(crate) fn from_syntax(err: &SyntaxError, src: Option<&str>, file: Option<&str>) -> Self {
        let code = if err.msg.contains("unbound name") {
            ErrorCode::UnboundName
        } else if err.msg.contains("must be applied") {
            ErrorCode::MisusedOp
        } else {
            ErrorCode::Syntax
        };
        let mut d = Diagnostic::new(code, err.msg.clone());
        if let Some(f) = file {
            d = d.with_file(f);
        }
        if err.line > 0 {
            d.with_span_in(Span { line: err.line, col: err.col }, src)
        } else if let Some(name) = backticked(&err.msg) {
            // Lowering reports names without positions; recover the span
            // from the interned source.
            d.locate(src, &name)
        } else {
            d
        }
    }

    pub(crate) fn from_check(err: &CheckError, src: Option<&str>, file: Option<&str>) -> Self {
        let (code, needle): (ErrorCode, Option<String>) = match err {
            CheckError::UnboundVar(x) => (ErrorCode::UnboundName, Some(x.clone())),
            CheckError::UnknownOp(op) => (ErrorCode::UnknownOp, Some(op.clone())),
            CheckError::Expected { .. } => (ErrorCode::Shape, None),
            CheckError::ArgMismatch { .. } => (ErrorCode::ArgMismatch, None),
            CheckError::OpArgMismatch { op, .. } => (ErrorCode::OpArgMismatch, Some(op.clone())),
            CheckError::LambdaSensitivity { var, .. } => {
                (ErrorCode::LambdaSensitivity, Some(var.clone()))
            }
            CheckError::NonlinearGrade => (ErrorCode::NonlinearGrade, None),
            CheckError::BoxZeroGrade { var } => (ErrorCode::BoxZeroGrade, Some(var.clone())),
            CheckError::BranchTypeMismatch { .. } => (ErrorCode::BranchMismatch, None),
            CheckError::DeclaredMismatch { name, .. } => {
                (ErrorCode::GradeMismatch, Some(name.clone()))
            }
            CheckError::UnusedLinear { var } => (ErrorCode::UnusedLinear, Some(var.clone())),
            CheckError::DuplicatedUse { var } => (ErrorCode::DuplicatedUse, Some(var.clone())),
            CheckError::Incompatible { .. } => (ErrorCode::BackwardIncompatible, None),
            CheckError::NoCarrier { site } => (ErrorCode::NoCarrier, Some((*site).to_string())),
            CheckError::BranchSupport { var } => (ErrorCode::BranchSupport, Some(var.clone())),
        };
        let mut d = Diagnostic::new(code, err.to_string());
        if let Some(f) = file {
            d = d.with_file(f);
        }
        match needle {
            Some(n) => d.locate(src, &n),
            None => d,
        }
    }

    pub(crate) fn from_eval(err: &EvalError) -> Self {
        Diagnostic::new(ErrorCode::EvalFailed, err.to_string())
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(span) = self.span {
            write!(
                f,
                "{}:{}:{}: error[{}]: {}",
                self.file.as_deref().unwrap_or("<source>"),
                span.line,
                span.col,
                self.code,
                self.message
            )
        } else {
            write!(f, "error[{}]: {}", self.code, self.message)
        }
    }
}

impl std::error::Error for Diagnostic {}

/// First `` `name` `` payload of a message, if any.
fn backticked(msg: &str) -> Option<String> {
    let start = msg.find('`')? + 1;
    let len = msg[start..].find('`')?;
    (len > 0).then(|| msg[start..start + len].to_string())
}

/// Finds `needle` in `src` as a whole word (identifier-boundary on both
/// sides), returning its 1-based position.
fn find_word(src: &str, needle: &str) -> Option<Span> {
    if needle.is_empty() {
        return None;
    }
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '\'';
    let bytes = src.as_bytes();
    let mut from = 0;
    while let Some(pos) = src[from..].find(needle) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident(bytes[at - 1] as char);
        let end = at + needle.len();
        let after_ok = end >= src.len() || !is_ident(bytes[end] as char);
        if before_ok && after_ok {
            let upto = &src[..at];
            let line = upto.matches('\n').count() as u32 + 1;
            let col = upto.rsplit('\n').next().map_or(0, str::len) as u32 + 1;
            return Some(Span { line, col });
        }
        from = at + needle.len();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_word_respects_boundaries() {
        let src = "function xyz (xy: num) : num { xy }";
        let span = find_word(src, "xy").unwrap();
        assert_eq!((span.line, span.col), (1, 15), "matches `xy`, not the prefix of `xyz`");
        assert!(find_word(src, "zzz").is_none());
    }

    #[test]
    fn render_includes_caret() {
        let src = "line one\nlet y = x;";
        let d = Diagnostic::new(ErrorCode::UnboundName, "unbound name `x`")
            .with_file("demo.nf")
            .locate(Some(src), "x");
        let r = d.render();
        assert!(r.contains("demo.nf:2:9"), "{r}");
        assert!(r.contains("let y = x;"), "{r}");
        assert!(r.ends_with("        ^"), "{r}");
    }

    #[test]
    fn display_is_single_line() {
        let d = Diagnostic::new(ErrorCode::Syntax, "oops")
            .with_span_in(Span { line: 3, col: 7 }, None)
            .with_file("f.nf");
        assert_eq!(d.to_string(), "f.nf:3:7: error[E0001]: oops");
    }
}
