//! Golden pin of the front end: what reading a program builds.
//!
//! `tests/golden/lowering.expected` holds one line per input: the term
//! store's node and variable counts, the content and display
//! fingerprints, and a hash of the full pretty-printed program, or else
//! the rendered diagnostic. Node counts, fingerprints and the printed
//! program change when node shapes, sharing, binder spellings, ANF
//! placement or temp names change, so any drift in parsing or
//! elaboration shows up here. Regenerate after an intentional change
//! with
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test frontend_golden
//! ```

use numfuzz::benchsuite::{serial_sum, table5};
use numfuzz::core::cache::StableHasher;
use numfuzz::fuzz::generate_case;
use numfuzz::prelude::*;
use std::path::{Path, PathBuf};

/// Small programs at the edges of scope resolution, elaboration and
/// error precedence.
const EDGE_CASES: [(&str, &str); 25] = [
    // A syntax error anywhere wins over a scope error earlier on.
    ("unbound-then-syntax", "x = y;\nz = (1, ;\nz"),
    ("unbound-then-bad-char", "x = y;\nz = 1 # 2;\nz"),
    ("syntax-then-bad-char", "x = );\ny = 1 $ 2;\ny"),
    // An operation name is elaborated where it is applied.
    ("parenthesized-op", "s = (add) (|1, 2|);\nrnd s"),
    ("doubly-parenthesized-op", "s = ((mul)) (2, 3);\nrnd s"),
    // Temps skip source binders shaped `_t<digits>`, not grade symbols.
    ("binder-t0", "_t0 = 2;\n_t1 = 3;\ns = mul (add (|_t0, 1|), _t1);\nrnd s"),
    (
        "grade-symbol-t0",
        "function f (x: ![_t0]num) : M[eps + _t0]num {\n  s = mul (add (|[x]{1}, 1|), 2);\n  rnd s\n}",
    ),
    ("unapplied-op", "x = mul;\nx"),
    ("inl-without-annotation-after-unbound", "x = y;\nz = inl 1;\nz"),
    ("unbound-after-inl-without-annotation", "z = inl 1;\nx = y;\nz"),
    // Application chains, projections and conditionals in value position.
    ("application-chain", "function f (x: num) (y: num) : num { x }\ng = f;\nh = g 1 2;\nret h"),
    ("value-position-if", "c = is_pos 1;\nret (if c then 1 else 2, fst (|3, 4|))"),
    ("if-as-head", "function f (x: num) : num { x }\nc = is_pos 1;\nh = (if c then f else f) 2;\nret h"),
    ("case-as-operand", "c = inl {num} 1;\nret (case c of (inl a . a | inr b . b), ())"),
    ("bind-value-temps", "function f (x: num) : M[eps]num { rnd x }\nlet a = f (mul (2, 3));\nlet [b] = [a]{2};\nret (b, (true, false))"),
    ("braced-arms", "c = is_pos 1;\nif c then { let a = rnd (mul (1, 2)); ret a } else { b = rnd 2; b }"),
    ("shadowed-op-name", "function mul (x: num) : num { x }\nmul 2"),
    ("duplicate-params", "function f (x: num) (x: num) : num { x }\nf 1 2"),
    ("keyword-binders", "rnd = 1;\nnum = 2;\nM = add (|num, 1|);\nrnd M"),
    ("templike-spellings", "_t00 = 1;\n_t2 = 2;\nlet _t1 = rnd (add (|_t00, _t2|));\ns = mul (add (|_t1, 1|), add (|2, 3|));\nrnd s"),
    ("injections", "x = inr {num} 1;\ny = inl {num + unit} (|1, 2|);\nret (x, y)"),
    ("literals", "s = mul (-1.5e2, 0.000125);\nt = add (|1e300, 123456789012345678901234567890|);\nu = mul (1E-308, .5);\nret (s, (t, u))"),
    ("lambda-types", "function app (f: num -o M[eps]num) (x: ![2]num) : M[eps]num { let [y] = x; f y }\nfunction r (z: num) : M[eps]num { rnd z }\napp r [1]{2}"),
    ("empty", "// only a comment\n"),
    ("no-main", "function f (x: num) : num { x }\nfunction g (y: num) : num { f y }"),
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn nf_files(dir: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(root().join(dir))
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "nf"))
        .collect();
    files.sort();
    files
}

/// One input's line: what parsing built, or the diagnostic.
fn lowering_line(name: &str, analyzer: &Analyzer, src: &str) -> String {
    match analyzer.parse_named(name, src) {
        Ok(program) => {
            let mut h = StableHasher::new();
            h.write_str(&program.pretty(u32::MAX));
            format!(
                "{name}: nodes={} vars={} fp={:032x} display={:032x} pretty={:032x}\n",
                program.store().len(),
                program.store().num_vars(),
                program.fingerprint(),
                program.display_fingerprint(),
                h.finish128()
            )
        }
        Err(d) => format!("{name}: {}\n", d.render().replace('\n', " | ")),
    }
}

#[test]
fn long_statement_chains_pretty_print_on_a_worker_stack() {
    // `serial_sum(5000)` is a 5,000-statement chain, the largest program
    // `numfuzz bench` renders; the printer loops along statement chains,
    // so it fits a 2 MiB pool worker's stack in the test profile.
    let printed = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| Program::from_generated(serial_sum(5000)).pretty(u32::MAX))
        .expect("spawn")
        .join()
        .expect("pretty-printing serial_sum(5000) on a 2 MiB stack");
    assert!(printed.len() > 100_000, "{} bytes", printed.len());
}

#[test]
fn lowering_is_pinned() {
    let mut rendered = String::new();
    for dir in ["benches/table1", "tests/golden"] {
        for path in nf_files(dir) {
            let name = path.file_name().and_then(|n| n.to_str()).expect("utf-8 name").to_string();
            let src = std::fs::read_to_string(&path).expect("read input");
            rendered.push_str(&lowering_line(&name, &Analyzer::new(), &src));
        }
    }
    for bench in table5() {
        let src = format!("{}\n{}\n", bench.source, bench.sample);
        rendered.push_str(&lowering_line(bench.name, &Analyzer::new(), &src));
    }
    for index in 0..300 {
        let case = generate_case(42, index);
        let analyzer = Analyzer::builder().signature(case.plan.instantiation).build();
        let name = format!("case-{index}");
        rendered.push_str(&lowering_line(&name, &analyzer, &case.program.render()));
    }
    let generated = serial_sum(1000);
    let name = generated.name.clone();
    let src = Program::from_generated(generated).pretty(u32::MAX);
    rendered.push_str(&lowering_line(&name, &Analyzer::new(), &src));
    for (name, src) in EDGE_CASES {
        rendered.push_str(&lowering_line(name, &Analyzer::new(), src));
    }
    let deep = format!("x = y;\nz = {}1{};\nz", "(".repeat(300), ")".repeat(300));
    rendered.push_str(&lowering_line("unbound-then-nesting", &Analyzer::new(), &deep));

    let expected_path = root().join("tests/golden/lowering.expected");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&expected_path, &rendered)
            .unwrap_or_else(|e| panic!("{}: {e}", expected_path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&expected_path)
        .unwrap_or_else(|e| panic!("{}: {e}", expected_path.display()));
    let drifted: Vec<String> = expected
        .lines()
        .zip(rendered.lines())
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("--- expected\n{want}\n--- got\n{got}"))
        .collect();
    assert!(
        drifted.is_empty() && expected.lines().count() == rendered.lines().count(),
        "lowering drifted ({} vs {} lines):\n{}\n\
         (if intentional: UPDATE_GOLDEN=1 cargo test --test frontend_golden)",
        expected.lines().count(),
        rendered.lines().count(),
        drifted.join("\n")
    );
}
