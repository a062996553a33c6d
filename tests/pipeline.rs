//! End-to-end integration through the facade: every Table 3 / Table 5
//! benchmark goes through `Program` construction → `Analyzer::check` →
//! ideal+fp evaluation → rigorous bound check (Corollary 4.20), across
//! formats and modes; the Table 3 kernels also through the independent
//! interval engine over their input boxes.

use numfuzz::benchsuite::{horner2_with_error_kernel, table3, table5};
use numfuzz::bounds::{analyze_with_inputs, BoundConfig};
use numfuzz::prelude::*;

#[test]
fn table3_kernels_check_and_validate() {
    let benches = table3();
    let programs: Vec<Program> =
        benches.iter().map(|b| Program::from_kernel(&b.kernel).expect("translatable")).collect();

    // One session checks every kernel; grades equal the recorded paper
    // coefficients.
    let analyzer = Analyzer::new();
    for (b, program) in benches.iter().zip(&programs) {
        let typed = analyzer.check(program).expect("checks");
        let expected = Ty::monad(Grade::symbol("eps").scale(&b.expected_eps_coeff), Ty::Num);
        assert_eq!(typed.ty(), &expected, "{}", b.kernel.name);
    }

    // Every committed sample stays within the typed bound. At binary64 it
    // also stays within the independent interval engine's bound over the
    // kernel's input box, pinned as an exact multiple of u. (In the 10-bit
    // format Horner5/10/20 overflow over [0.1, 1000], and the engine
    // reports the fault.)
    let with_error = horner2_with_error_kernel();
    let with_error_program = Program::from_kernel(&with_error.kernel).expect("translatable");
    let interval_multiples =
        ["2", "2", "5/2", "7/2", "7", "2", "2", "4", "7", "3", "2", "2", "2", "5", "10", "20"];
    assert_eq!(interval_multiples.len(), benches.len());
    let rows = benches
        .iter()
        .zip(&programs)
        .zip(interval_multiples)
        .chain([((&with_error, &with_error_program), "4")]);
    let formats = [Format::BINARY64, Format::new(10, 50)];
    for ((b, program), multiple) in rows {
        let box_inputs: Vec<_> =
            program.free().iter().map(|(v, _)| *v).zip(b.kernel.ranges()).collect();
        for format in formats {
            for mode in [RoundingMode::TowardPositive, RoundingMode::NearestEven] {
                let ranged = (format == Format::BINARY64).then(|| {
                    let cfg = BoundConfig::new(Instantiation::RelativePrecision, format, mode);
                    let ranged =
                        analyze_with_inputs(program.store(), program.root(), &cfg, &box_inputs)
                            .unwrap_or_else(|e| panic!("{} {mode}: {e}", b.kernel.name));
                    let expected = multiple.parse::<Rational>().expect("pinned").mul(&cfg.unit());
                    assert_eq!(ranged.bound(), &expected, "{} {mode}", b.kernel.name);
                    ranged
                });
                let session = Analyzer::builder().format(format).mode(mode).build();
                for sample in &b.samples {
                    let inputs = Inputs::positional(sample.iter().map(|q| Value::num(q.clone())));
                    let rep = session
                        .validate(program, &inputs)
                        .unwrap_or_else(|e| panic!("{}: {e}", b.kernel.name));
                    assert!(
                        rep.holds(),
                        "{} violated at {sample:?} {format} {mode}: {rep:?}",
                        b.kernel.name
                    );
                    // A faulted run is vacuous, as in Cor. 7.5.
                    if let (Some(ranged), Some(fp)) = (&ranged, &rep.fp) {
                        let metric = numfuzz::interp::metric_for(Instantiation::RelativePrecision);
                        assert_eq!(
                            metric.within(&rep.ideal, fp, ranged.bound()),
                            Within::Yes,
                            "{} escapes the interval bound at {sample:?} {mode}",
                            b.kernel.name
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn table5_conditionals_check_and_validate() {
    for b in table5() {
        let program =
            Program::parse_named(b.name, &format!("{}\n{}", b.source, b.sample)).expect("parses");
        for mode in RoundingMode::ALL {
            let session = Analyzer::builder().format(Format::BINARY64).mode(mode).build();
            let rep = session
                .validate(&program, &Inputs::none())
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            assert!(rep.holds(), "{} violated under {mode}", b.name);
        }
    }
}

/// `run`, `validate` and `validate_with_rounding` are three projections
/// of one Cor. 4.20 check: the report `run` attaches is `validate`'s, and
/// `validate_with_rounding` under the session's own checked rounding is
/// `validate`. Compared field by field over Table 1, every Table 3 kernel
/// at its recorded samples (free-variable inputs) and Table 5.
fn run_and_validate_report_alike(format: Format) {
    use numfuzz::interp::rounding::CheckedRounding;
    use numfuzz::interp::SoundnessReport;

    fn same(label: &str, a: &SoundnessReport, b: &SoundnessReport) {
        assert_eq!(a.grade, b.grade, "{label}: grade");
        assert_eq!(a.bound, b.bound, "{label}: bound");
        assert_eq!(a.ideal, b.ideal, "{label}: ideal");
        assert_eq!(a.fp, b.fp, "{label}: fp");
        assert_eq!(a.verdict, b.verdict, "{label}: verdict");
        let bits = |m: Option<f64>| m.map(f64::to_bits);
        assert_eq!(bits(a.measured), bits(b.measured), "{label}: measured");
        assert_eq!(a.ulp, b.ulp, "{label}: ulp");
    }

    let session = Analyzer::builder().format(format).build();
    let mut cases: Vec<(String, Program, Inputs)> = Vec::new();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/benches/table1");
    let mut table1: Vec<_> = std::fs::read_dir(dir)
        .expect("benches/table1 is committed")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "nf"))
        .collect();
    table1.sort();
    assert_eq!(table1.len(), 10);
    for path in &table1 {
        let name = path.file_name().expect("file").to_string_lossy().into_owned();
        let src = std::fs::read_to_string(path).expect("readable");
        cases.push((
            name.clone(),
            session.parse_named(&name, &src).expect("parses"),
            Inputs::none(),
        ));
    }
    for b in table3() {
        let program = session.program_from_kernel(&b.kernel).expect("translatable");
        for (i, sample) in b.samples.iter().enumerate() {
            let inputs = Inputs::positional(sample.iter().map(|q| Value::num(q.clone())));
            cases.push((format!("{} sample {i}", b.kernel.name), program.clone(), inputs));
        }
    }
    for b in table5() {
        let src = format!("{}\n{}", b.source, b.sample);
        cases.push((
            b.name.to_string(),
            session.parse_named(b.name, &src).expect("parses"),
            Inputs::none(),
        ));
    }

    for (name, program, inputs) in &cases {
        let label = format!("{name} in {format}");
        let validated =
            session.validate(program, inputs).unwrap_or_else(|e| panic!("{label}: {e}"));
        let exec = session.run(program, inputs).unwrap_or_else(|e| panic!("{label}: {e}"));
        let ran = exec.report.unwrap_or_else(|| panic!("{label}: run attached no report"));
        same(&format!("{label}, run"), &ran, &validated);
        let mut fp = CheckedRounding { format: session.format(), mode: session.mode() };
        let strategy = session
            .validate_with_rounding(program, inputs, &mut fp)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        same(&format!("{label}, validate_with_rounding"), &strategy, &validated);
    }
}

#[test]
fn run_and_validate_report_alike_in_binary64() {
    run_and_validate_report_alike(Format::BINARY64);
}

/// A 6-bit format, where some sample runs overflow and fault to `err`.
#[test]
fn run_and_validate_report_alike_in_a_6_bit_format() {
    run_and_validate_report_alike(Format::new(6, 40));
}

#[test]
fn generated_table4_programs_validate() {
    use numfuzz::benchsuite::{horner, matrix_multiply, poly_naive, serial_sum};
    let session =
        Analyzer::builder().format(Format::new(16, 80)).mode(RoundingMode::TowardPositive).build();
    for g in [horner(25), serial_sum(64), matrix_multiply(3), poly_naive(8)] {
        let program = Program::from_generated(g);
        let inputs =
            Inputs::positional(program.free().iter().map(|_| Value::num(Rational::ratio(5, 4))));
        let name = program.name().unwrap_or("?").to_string();
        let rep = session.validate(&program, &inputs).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(rep.holds(), "{name} violated: {rep:?}");
        // Error really accumulates in a 16-bit format: measured > 0.
        assert!(rep.measured.unwrap_or(0.0) > 0.0, "{name}");
    }
}

#[test]
fn hypot_validates_and_runs_in_formats_wider_than_192_bits() {
    // The ideal semantics encloses `sqrt` at a precision derived from the
    // format. A fixed 192-bit enclosure is coarser than these formats'
    // unit roundoff, and the rigorous verdict reported a violation.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/benches/table1/hypot.nf");
    let src = std::fs::read_to_string(path).expect("hypot.nf is committed");
    for format in [Format::new(200, 16383), Format::new(237, 262143)] {
        let session = Analyzer::builder().format(format).build();
        let program = session.parse_named("hypot.nf", &src).expect("parses");
        let rep = session.validate(&program, &Inputs::none()).expect("validates");
        assert!(rep.holds(), "validate in {format}: {rep:?}");
        let exec = session.run(&program, &Inputs::none()).expect("runs");
        let rep = exec.report.expect("an M[r]num program carries a verdict");
        assert!(rep.holds(), "run in {format}: {rep:?}");
    }
}

#[test]
fn cross_semantics_agreement_smallstep_vs_machine() {
    // The substitution-based reference semantics and the abstract machine
    // agree on the Table 5 squareRoot3 program (taking the non-sqrt
    // branch so the reference stays rational). The machine side goes
    // through `Analyzer::run`; the small-step side uses the arena parts
    // the `Program` releases.
    use numfuzz::core::Node;
    use numfuzz::interp::smallstep::{normalize, StepSemantics};

    let b = table5().into_iter().find(|b| b.name == "squareRoot3").expect("present");
    let src = format!("{}\nsquareRoot3 [0.000001]{{inf}}", b.source);
    let program = Program::parse(&src).expect("parses");

    let session =
        Analyzer::builder().format(Format::BINARY64).mode(RoundingMode::TowardPositive).build();
    let exec = session.run(&program, &Inputs::none()).expect("runs");
    let machine_val = exec
        .fp
        .as_ret()
        .and_then(Value::as_num)
        .expect("ret num")
        .as_point()
        .expect("point")
        .clone();

    let (mut store, root, _free) = program.into_parts();
    let sem = StepSemantics::Fp(Format::BINARY64, RoundingMode::TowardPositive);
    let nf = normalize(&mut store, root, sem, 10_000_000);
    let ss_val = match store.node(nf) {
        Node::Ret(v) => match store.node(*v) {
            Node::Const(k) => store.constant(*k).clone(),
            other => panic!("unexpected payload {other:?}"),
        },
        other => panic!("unexpected normal form {other:?}"),
    };
    assert_eq!(machine_val, ss_val);
}
