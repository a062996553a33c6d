//! The facade's error-path contract: malformed programs, unbound
//! variables, and grade mismatches yield *spanned* `Diagnostic`s with
//! stable codes — never panics — and `Program::parse` → `pretty` →
//! re-parse round-trips.

use numfuzz::prelude::*;

#[test]
fn malformed_programs_are_spanned_syntax_diagnostics() {
    // Lexical garbage.
    let err =
        Program::parse_named("lex.nf", "function f (x: num) : num { x # y }").expect_err("rejects");
    assert_eq!(err.code, ErrorCode::Syntax);
    let span = err.span.expect("lexer errors carry positions");
    assert_eq!(span.line, 1);
    assert!(err.to_string().starts_with("lex.nf:1:"), "{err}");

    // Grammatical garbage, off line one.
    let err = Program::parse_named("parse.nf", "function f (x: num) : num {\n  let = x;\n  x\n}")
        .expect_err("rejects");
    assert_eq!(err.code, ErrorCode::Syntax);
    assert_eq!(err.span.expect("spanned").line, 2);

    // The rendered form includes the offending line and a caret.
    let rendered = err.render();
    assert!(rendered.contains("parse.nf:2:"), "{rendered}");
    assert!(rendered.contains("let = x;"), "{rendered}");
    assert!(rendered.contains('^'), "{rendered}");
}

#[test]
fn unbound_names_are_located_in_the_source() {
    let src = "function f (x: num) : num {\n    mul (x, yy)\n}";
    let err = Program::parse_named("scope.nf", src).expect_err("rejects");
    assert_eq!(err.code, ErrorCode::UnboundName);
    // Lowering reports no position; the facade recovers the span from
    // the interned source.
    let span = err.span.expect("located");
    assert_eq!((span.line, span.col), (2, 13), "{err}");
    assert!(err.message.contains("yy"), "{err}");
}

#[test]
fn misused_operations_are_diagnosed() {
    let err = Program::parse("function f (x: num) : num { mul }").expect_err("rejects");
    assert_eq!(err.code, ErrorCode::MisusedOp);
}

#[test]
fn grade_mismatches_are_located_at_the_function() {
    // pow2' really rounds once: declaring M[0*eps] must fail (E0109).
    let src = r#"
function pow2' (x: ![2.0]num) : M[0*eps]num {
    let [x1] = x;
    s = mul (x1, x1);
    rnd s
}
"#;
    let program = Program::parse_named("grade.nf", src).expect("lowers fine");
    let err = Analyzer::new().check(&program).expect_err("grade too small");
    assert_eq!(err.code, ErrorCode::GradeMismatch);
    let span = err.span.expect("located at the function name");
    assert_eq!((span.line, span.col), (2, 10), "{err}");
    assert!(err.message.contains("pow2'"), "{err}");
}

#[test]
fn lambda_sensitivity_and_shape_errors_have_codes() {
    let analyzer = Analyzer::new();

    // 2-sensitive parameter without a bang type.
    let p = Program::parse("function f (x: num) : num { mul (x, x) }").expect("lowers");
    let err = analyzer.check(&p).expect_err("rejects");
    assert_eq!(err.code, ErrorCode::LambdaSensitivity);
    assert!(err.span.is_some(), "{err}");

    // rnd of a non-number.
    let p = Program::parse("rnd ()").expect("lowers");
    let err = analyzer.check(&p).expect_err("rejects");
    assert_eq!(err.code, ErrorCode::Shape);

    // Operation argument of the wrong shape.
    let p = Program::parse("function f (x: num) : num { mul x }").expect("lowers");
    let err = analyzer.check(&p).expect_err("rejects");
    assert_eq!(err.code, ErrorCode::OpArgMismatch);
}

#[test]
fn input_errors_are_structured_not_panics() {
    let analyzer = Analyzer::new();
    let program = Program::parse("function f (x: num) : M[eps]num { rnd x }\nf").expect("lowers");
    // `f` unapplied: root is a function, so validate reports NotMonadicNum.
    let err = analyzer.validate(&program, &Inputs::none()).expect_err("not monadic");
    assert_eq!(err.code, ErrorCode::NotMonadicNum);

    // A named input for a closed program is a BadInput diagnostic.
    let closed = Program::parse("ret 1").expect("lowers");
    let err = analyzer
        .run(&closed, &Inputs::none().with_num("x", Rational::one()))
        .expect_err("no free vars");
    assert_eq!(err.code, ErrorCode::BadInput);

    // Missing inputs likewise.
    let kernel_prog = {
        use numfuzz::benchsuite::{Expr, Kernel};
        let k = Kernel::new(
            "needs-a",
            vec![("a", RatInterval::new(Rational::one(), Rational::from_int(2)))],
            Expr::add(Expr::Var(0), Expr::Var(0)),
        );
        Program::from_kernel(&k).expect("translates")
    };
    let err = analyzer.run(&kernel_prog, &Inputs::none()).expect_err("missing input");
    assert_eq!(err.code, ErrorCode::BadInput);
    assert!(err.message.contains('a'), "{err}");
}

#[test]
fn cross_instantiation_programs_are_rejected_up_front() {
    // A default-parsed (relative-precision) program handed to an
    // absolute-error session fails with a clear mismatch code, not a
    // misleading unknown-operation error.
    let program = Program::parse("function f (x: num) : M[eps]num { rnd x }").expect("parses");
    let abs = Analyzer::builder().signature(Instantiation::AbsoluteError).build();
    let err = abs.check(&program).expect_err("mismatched session");
    assert_eq!(err.code, ErrorCode::SignatureMismatch);
    assert!(!err.code.is_program_error(), "harness misuse, not a program defect");
    let err = abs.validate(&program, &Inputs::none()).expect_err("mismatched session");
    assert_eq!(err.code, ErrorCode::SignatureMismatch);
}

#[test]
fn untranslatable_kernels_are_diagnosed() {
    use numfuzz::benchsuite::{Expr, Kernel};
    let k = Kernel::new(
        "has-sub",
        vec![("a", RatInterval::new(Rational::one(), Rational::from_int(2)))],
        Expr::sub(Expr::Var(0), Expr::Const(Rational::one())),
    );
    let err = Program::from_kernel(&k).expect_err("RP has no subtraction");
    assert_eq!(err.code, ErrorCode::Untranslatable);
}

#[test]
fn parse_pretty_reparse_round_trips() {
    let corpus = [
        "function mulfp (xy: (num, num)) : M[eps]num { s = mul xy; rnd s }",
        r#"
        function mulfp (xy: (num, num)) : M[eps]num { s = mul xy; rnd s }
        function addfp (xy: <num, num>) : M[eps]num { s = add xy; rnd s }
        function MA (x: num) (y: num) (z: num) : M[2*eps]num {
            s = mulfp (x,y);
            let a = s;
            addfp (|a,z|)
        }
        MA 0.1 0.3 7
        "#,
        r#"
        function pow2' (x: ![2.0]num) : M[eps]num {
            let [x1] = x;
            s = mul (x1, x1);
            rnd s
        }
        pow2' [1.5]{2.0}
        "#,
        r#"
        function case1 (x: ![inf]num) : M[eps]num {
            let [x1] = x;
            c = is_pos x1;
            if c then { s = mul (x1, x1); rnd s } else ret 1
        }
        case1 [0.75]{inf}
        "#,
    ];
    let analyzer = Analyzer::new();
    for src in corpus {
        let program = Program::parse(src).expect("parses");
        let printed = program.pretty(u32::MAX);
        let again = Program::parse(&printed)
            .unwrap_or_else(|e| panic!("re-parse failed: {e}\n---\n{printed}"));
        // Same type after the round trip, and printing is a fixpoint.
        let t1 = analyzer.check(&program).expect("checks");
        let t2 = analyzer.check(&again).expect("re-checks");
        assert_eq!(t1.ty(), t2.ty(), "type drift on:\n{printed}");
        assert_eq!(printed, again.pretty(u32::MAX), "printing not a fixpoint on:\n{printed}");
    }
}

#[test]
fn one_session_checks_each_program_independently() {
    // A failing program leaves the session usable for the next one.
    let analyzer = Analyzer::new();
    let good = Program::parse("function f (x: num) : M[eps]num { rnd x }").expect("parses");
    let bad = Program::parse("function g (x: num) : num { mul (x, x) }").expect("parses");
    let results: Vec<_> = [&good, &bad, &good].map(|p| analyzer.check(p)).into();
    assert!(results[0].is_ok());
    assert_eq!(results[1].as_ref().expect_err("ill-typed").code, ErrorCode::LambdaSensitivity);
    assert!(results[2].is_ok());
}
