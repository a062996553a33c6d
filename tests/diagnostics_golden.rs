//! Golden-file diagnostics: one checked-in `.nf` input and one expected
//! rendered diagnostic per `E0xxx` code, so error-*message* regressions
//! (wording, spans, carets, notes) are caught — the 24 facade doctests
//! only pin the codes.
//!
//! Layout: `tests/golden/E0xxx.nf` (the program or scenario input) and
//! `tests/golden/E0xxx.expected` (the exact `Diagnostic::render()`
//! output). Regenerate after an intentional change with
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test diagnostics_golden
//! ```
//!
//! The scenario table below is an exhaustive `match` over [`ErrorCode`],
//! so adding a new code without a golden test fails to compile.
//!
//! `tests/golden/backward_mode.expected` pins the backward judgment's
//! outcome on every golden input and on a fixed slice of generated
//! programs, one line each.

use numfuzz::benchsuite::{Expr, Kernel};
use numfuzz::core::Signature;
use numfuzz::fuzz::generate_case;
use numfuzz::prelude::*;
use numfuzz::serve::backward_check_report;
use std::path::PathBuf;

/// Every error code in the catalog, in `E0xxx` order.
const ALL_CODES: [ErrorCode; 24] = [
    ErrorCode::Syntax,
    ErrorCode::UnboundName,
    ErrorCode::MisusedOp,
    ErrorCode::UnknownOp,
    ErrorCode::Shape,
    ErrorCode::ArgMismatch,
    ErrorCode::OpArgMismatch,
    ErrorCode::LambdaSensitivity,
    ErrorCode::NonlinearGrade,
    ErrorCode::BoxZeroGrade,
    ErrorCode::BranchMismatch,
    ErrorCode::GradeMismatch,
    ErrorCode::NotMonadicNum,
    ErrorCode::UnresolvedGrade,
    ErrorCode::EvalFailed,
    ErrorCode::BoundViolated,
    ErrorCode::BadInput,
    ErrorCode::Untranslatable,
    ErrorCode::SignatureMismatch,
    ErrorCode::UnusedLinear,
    ErrorCode::DuplicatedUse,
    ErrorCode::BackwardIncompatible,
    ErrorCode::NoCarrier,
    ErrorCode::BranchSupport,
];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden")
}

/// Produces the diagnostic for one code's checked-in scenario. The
/// exhaustive match doubles as the coverage guarantee.
fn trigger(code: ErrorCode, name: &str, src: &str) -> Diagnostic {
    let rp = || Analyzer::new();
    let parse = |src: &str| rp().parse_named(name, src);
    let check_err = |src: &str| {
        let program = parse(src).expect("scenario parses");
        rp().check(&program).expect_err("scenario is ill-typed")
    };
    match code {
        // Parse/lowering failures: the diagnostic falls out of parsing.
        ErrorCode::Syntax | ErrorCode::UnboundName | ErrorCode::MisusedOp => {
            parse(src).expect_err("scenario does not parse")
        }
        // `cube` exists only in an extended signature; checking the
        // program against the plain session cannot resolve it.
        ErrorCode::UnknownOp => {
            let extended = Signature::relative_precision().with_op("cube", Ty::Num, Ty::Num);
            let rich = Analyzer::builder().custom_signature(extended).build();
            let program = rich.parse_named(name, src).expect("parses with the extended signature");
            rp().check(&program).expect_err("plain session lacks `cube`")
        }
        ErrorCode::Shape
        | ErrorCode::ArgMismatch
        | ErrorCode::OpArgMismatch
        | ErrorCode::LambdaSensitivity
        | ErrorCode::NonlinearGrade
        | ErrorCode::BoxZeroGrade
        | ErrorCode::BranchMismatch
        | ErrorCode::GradeMismatch => check_err(src),
        ErrorCode::NotMonadicNum => {
            let typed = rp().check(&parse(src).expect("parses")).expect("checks");
            rp().bound(&typed).expect_err("no bound on a pure type")
        }
        ErrorCode::UnresolvedGrade => {
            let program = parse(src).expect("parses");
            let mut fp = numfuzz::interp::rounding::CheckedRounding {
                format: Format::BINARY64,
                mode: RoundingMode::TowardPositive,
            };
            rp().validate_with_symbols(&program, &Inputs::none(), &mut fp, &|_| None)
                .expect_err("no symbol assignment supplied")
        }
        ErrorCode::EvalFailed => {
            let program = parse(src).expect("parses");
            rp().run(&program, &Inputs::none()).expect_err("division by zero")
        }
        // Corollary 4.20 proves no triggering program exists; golden the
        // diagnostic the CLI would render for a failing report.
        ErrorCode::BoundViolated => Diagnostic::new(
            ErrorCode::BoundViolated,
            "error-soundness violation (this would be an implementation bug)",
        )
        .with_file(name),
        ErrorCode::BadInput => {
            let program = parse(src).expect("parses");
            let inputs = Inputs::none().with_num("z", Rational::from_int(1));
            rp().run(&program, &inputs).expect_err("`z` names no free variable")
        }
        // The kernel described in the .nf file's comments, built here.
        ErrorCode::Untranslatable => {
            let one = RatInterval::point(Rational::from_int(1));
            let kernel =
                Kernel::new(name, vec![("x", one)], Expr::sub(Expr::Var(0), Expr::num("2")));
            Program::from_kernel(&kernel).expect_err("subtraction is outside the RP fragment")
        }
        ErrorCode::SignatureMismatch => {
            let program = parse(src).expect("parses under RP");
            let abs = Analyzer::builder().signature(Instantiation::AbsoluteError).build();
            abs.check(&program).expect_err("instantiations must match")
        }
        // Backward mode (Bean's strict linearity discipline): the same
        // session, second judgment.
        ErrorCode::UnusedLinear
        | ErrorCode::DuplicatedUse
        | ErrorCode::BackwardIncompatible
        | ErrorCode::NoCarrier
        | ErrorCode::BranchSupport => {
            let program = parse(src).expect("scenario parses");
            rp().check_backward(&program).expect_err("scenario violates the backward discipline")
        }
    }
}

#[test]
fn every_error_code_has_a_golden_rendering() {
    let dir = golden_dir();
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let mut failures = Vec::new();

    for code in ALL_CODES {
        let name = format!("{code}.nf");
        let nf_path = dir.join(&name);
        let src = std::fs::read_to_string(&nf_path)
            .unwrap_or_else(|e| panic!("{}: {e}", nf_path.display()));
        let diagnostic = trigger(code, &name, &src);
        assert_eq!(diagnostic.code, code, "scenario for {code} triggered the wrong code");
        let rendered = diagnostic.render();

        let expected_path = dir.join(format!("{code}.expected"));
        if update {
            std::fs::write(&expected_path, format!("{rendered}\n"))
                .unwrap_or_else(|e| panic!("{}: {e}", expected_path.display()));
            continue;
        }
        let expected = std::fs::read_to_string(&expected_path).unwrap_or_else(|e| {
            panic!(
                "{}: {e}\n(run `UPDATE_GOLDEN=1 cargo test --test diagnostics_golden` to create)",
                expected_path.display()
            )
        });
        if expected.trim_end() != rendered {
            failures.push(format!(
                "=== {code} drifted ===\n--- expected ---\n{}\n--- got ---\n{rendered}\n",
                expected.trim_end()
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{}\n(if intentional: UPDATE_GOLDEN=1 cargo test --test diagnostics_golden)",
        failures.join("\n")
    );
}

/// One program's backward outcome on one line: the diagnostic's code,
/// span and message, or the `numfuzz check --backward` report with its
/// lines joined by ` | `.
fn backward_line(name: &str, outcome: Result<BackwardTyped, Diagnostic>) -> String {
    match outcome {
        Ok(typed) => {
            let report = backward_check_report(&typed);
            format!("{name}: ok: {}\n", report.trim_end().replace('\n', " | "))
        }
        Err(d) => {
            let span = d.span.map_or("-".to_string(), |s| format!("{}:{}", s.line, s.col));
            format!("{name}: error[{}] at {span}: {}\n", d.code, d.message)
        }
    }
}

#[test]
fn backward_mode_diagnostics_are_pinned() {
    let dir = golden_dir();
    let mut inputs: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("golden dir exists")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "nf"))
        .collect();
    inputs.sort();
    let mut rendered = String::new();
    for path in inputs {
        let name = path.file_name().and_then(|n| n.to_str()).expect("utf-8 name").to_string();
        let src = std::fs::read_to_string(&path).expect("read golden input");
        let analyzer = Analyzer::new();
        // The parse and lowering scenarios never reach a judgment.
        if let Ok(program) = analyzer.parse_named(&name, &src) {
            rendered.push_str(&backward_line(&name, analyzer.check_backward(&program)));
        }
    }
    for index in 0..200 {
        let case = generate_case(42, index);
        let plan = &case.plan;
        let mut builder =
            Analyzer::builder().signature(plan.instantiation).format(plan.format).mode(plan.mode);
        if let Some(unit) = &plan.rnd_unit {
            builder = builder.rounding_unit(unit.clone());
        }
        let analyzer = builder.build();
        let name = format!("case-{index}");
        let program = analyzer.parse_named(&name, &case.program.render()).expect("cases parse");
        rendered.push_str(&backward_line(&name, analyzer.check_backward(&program)));
    }

    let expected_path = dir.join("backward_mode.expected");
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
        "backward outcomes drifted ({} vs {} lines):\n{}\n\
         (if intentional: UPDATE_GOLDEN=1 cargo test --test diagnostics_golden)",
        expected.lines().count(),
        rendered.lines().count(),
        drifted.join("\n")
    );
}

#[test]
fn golden_directory_has_no_orphans() {
    // Every golden file must correspond to a cataloged code — stale
    // files would silently stop being checked. The non-diagnostic
    // goldens are `table1` and `paper1`/`2`/`3`/`5` (the `numfuzz table1`
    // and `numfuzz paper N` reports, pinned by tests/table1_golden.rs),
    // `backward_mode` (pinned above),
    // `lowering` (the front end's output, pinned by
    // tests/frontend_golden.rs) and the `optimize_*` reports (pinned by
    // tests/optimize_golden.rs).
    let mut known: Vec<String> = ALL_CODES.iter().map(|c| c.to_string()).collect();
    known.push("table1".to_string());
    known.extend(["paper1", "paper2", "paper3", "paper5"].map(String::from));
    known.push("backward_mode".to_string());
    known.push("lowering".to_string());
    for entry in std::fs::read_dir(golden_dir()).expect("golden dir exists") {
        let path = entry.expect("dir entry").path();
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or_default().to_string();
        if let Some(bench) = stem.strip_prefix("optimize_") {
            let nf = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("benches/table1")
                .join(format!("{bench}.nf"));
            assert!(nf.exists(), "orphan optimize golden (no such benchmark): {}", path.display());
            continue;
        }
        assert!(
            known.contains(&stem),
            "orphan golden file (no such error code): {}",
            path.display()
        );
    }
}
