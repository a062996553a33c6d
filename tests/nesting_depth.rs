//! The deepest input the parser accepts, per nesting construct, must
//! survive every pass behind it on a 2 MiB thread (a pool worker's
//! stack) in the test profile, whose stack frames are the largest. The
//! parser carries lowering state in its recursive frames, so this pins
//! both the nesting limit and the frame sizes.

use numfuzz::prelude::*;

/// One nesting construct: a program nesting it `n` deep.
type Template = fn(usize) -> String;

const CONSTRUCTS: [(&str, Template); 12] = [
    ("parentheses", |n| format!("s = mul ({}2{}, 3);\nrnd s", "(".repeat(n), ")".repeat(n))),
    ("rnd/ret chain", |n| format!("{}rnd 1", "ret ".repeat(n - 1))),
    ("tensor pairs", |n| format!("x = {}1{};\nret x", "(".repeat(n), ", 1)".repeat(n))),
    ("cartesian pairs", |n| format!("x = {}1{};\nret x", "(|".repeat(n), ", 1|)".repeat(n))),
    ("boxes", |n| format!("x = {}1{};\nret x", "[".repeat(n), "]{1}".repeat(n))),
    ("application", |n| {
        format!("function f (x: num) : num {{ x }}\n{}1{}", "f (".repeat(n), ")".repeat(n))
    }),
    ("if with braces", |n| {
        let (open, close) = ("if c then { ".repeat(n), " } else { ret 2 }".repeat(n));
        format!("c = is_pos 1;\n{open}ret 1{close}")
    }),
    ("if without braces", |n| {
        format!("c = is_pos 1;\n{}ret 1{}", "if c then ".repeat(n), " else ret 2".repeat(n))
    }),
    ("case", |n| {
        let (open, close) = ("case v of (inl a . ".repeat(n), " | inr b . ret b)".repeat(n));
        format!("v = inl {{num}} 1;\n{open}ret a{close}")
    }),
    ("! types", |n| {
        let t = format!("{}num", "![1]".repeat(n));
        format!("function f (x: {t}) : {t} {{ x }}")
    }),
    ("M types", |n| {
        let t = format!("{}num", "M[eps]".repeat(n));
        format!("function f (x: {t}) : {t} {{ x }}")
    }),
    ("-o types", |n| {
        let t = format!("{}num", "num -o ".repeat(n));
        format!("function f (x: {t}) : {t} {{ x }}")
    }),
];

/// The deepest `n` whose program parses; the next one must fail on the
/// nesting limit, not on anything else.
fn deepest(name: &str, template: Template) -> usize {
    let analyzer = Analyzer::new();
    let mut n = 1;
    while analyzer.parse(&template(n)).is_ok() {
        n += 1;
    }
    let err = analyzer.parse(&template(n)).expect_err("fails past the limit");
    assert_eq!(err.message, "nesting deeper than 256 levels", "{name} at {n}: {err}");
    assert!(n > 200, "{name}: only {} levels accepted", n - 1);
    n - 1
}

#[test]
fn deepest_accepted_inputs_pass_every_pass_on_a_worker_stack() {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            for (name, template) in CONSTRUCTS {
                let n = deepest(name, template);
                let analyzer = Analyzer::new();
                let program = analyzer.parse(&template(n)).expect("deepest input parses");
                let typed = analyzer.check(&program);
                assert!(typed.is_ok(), "{name} at {n}: {:?}", typed.err());
                // Bean's linearity rejects most of these; a diagnostic is
                // an answer.
                let _ = analyzer.check_backward(&program);
                let _ = program.fingerprint();
                assert!(!program.pretty(u32::MAX).is_empty(), "{name}");
            }
        })
        .expect("spawn a 2 MiB thread")
        .join()
        .expect("no construct overflows a 2 MiB stack");
}
