//! The paper's evaluation (§6): `numfuzz paper N` regenerates Table N,
//! and `numfuzz validate` runs the Cor. 4.20 error-soundness sweep.
//! Tables 3–5 print the paper's published values (kept next to their
//! kernels in `crates/benchsuite`) beside the ones computed here.

use numfuzz::benchsuite::{
    horner, horner2_with_error_kernel, horner2_with_error_source, matrix_multiply, poly_naive,
    serial_sum, std_bounds, table3, table5, CondBench, Generated, Kernel, SmallBench, PAPER_TABLE3,
    PAPER_TABLE4, PAPER_TABLE5,
};
use numfuzz::bounds::{analyze_with_inputs, BoundConfig};
use numfuzz::core::pool::ordered_map_with;
use numfuzz::metrics::rp::rp_to_rel_bound;
use numfuzz::prelude::*;
use std::time::{Duration, Instant};

/// Prints Table `n`; `Err` when there is no such table.
pub fn table(n: &str) -> Result<(), String> {
    match n {
        "1" => table1(),
        "2" => table2(),
        "3" => table3_kernels(),
        "4" => table4(),
        "5" => table5_conditionals(),
        _ => return Err(format!("paper: no Table `{n}` (N is 1 to 5)")),
    }
    Ok(())
}

/// Converts an RP grade coefficient times `u` into the relative-error
/// bound the paper reports (eq. 8), rendered at three significant digits.
pub fn rp_bound_string(alpha: &Rational) -> String {
    match rp_to_rel_bound(alpha) {
        Some(rel) => rel.to_sci_string(3),
        None => "inf".to_string(),
    }
}

/// Render a duration like the paper's timing columns.
fn fmt_time(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.0}us", s * 1e6)
    }
}

/// The ratio of the typed grade `α` to the interval engine's bound, as
/// the paper's Ratio column (values <= 1 mean Λnum is at least as tight).
///
/// Both sides are exact RP-metric bounds, the quantity `numfuzz table1`'s
/// `tighter` column compares; their eq. (8) conversions would add an
/// `O(u)` term that moves ties in the last printed digit.
fn ratio_string(typed_alpha: &Rational, interval_alpha: &Rational) -> String {
    if interval_alpha.is_zero() {
        return "-".to_string();
    }
    format!("{:.1}", typed_alpha.div(interval_alpha).to_f64())
}

/// The binary64, round-toward-+∞ session of Tables 3–5: `u = 2^-52`,
/// which reproduces the paper's Λnum columns.
fn paper_session() -> Analyzer {
    Analyzer::builder().format(Format::BINARY64).mode(RoundingMode::TowardPositive).build()
}

/// Table 1: IEEE 754-2008 binary format parameters, straight from the
/// softfloat substrate.
fn table1() {
    println!("Table 1: Parameters for floating-point number sets in IEEE 754-2008");
    println!("(emin = 1 - emax for each format)\n");
    println!("{:<12} {:>10} {:>10} {:>10}", "Parameter", "binary32", "binary64", "binary128");
    let formats = [Format::BINARY32, Format::BINARY64, Format::BINARY128];
    print!("{:<12}", "p");
    for f in &formats {
        print!(" {:>10}", f.precision());
    }
    println!();
    print!("{:<12}", "emax");
    for f in &formats {
        print!(" {:>10}", format!("+{}", f.emax()));
    }
    println!();
    print!("{:<12}", "emin");
    for f in &formats {
        print!(" {:>10}", f.emin());
    }
    println!();
    println!("\nDerived extremes (exact, from the simulator):");
    for f in &formats {
        println!(
            "  {}: max finite = {}, min normal = 2^{}, min subnormal = 2^{}",
            f,
            f.max_finite_value().to_sci_string(5),
            f.emin(),
            f.emin() - f.precision() as i64 + 1,
        );
    }
}

/// Table 2: the four rounding modes, their behaviour on an
/// unrepresentable value, and their unit roundoffs.
fn table2() {
    println!("Table 2: Common rounding functions (modes)\n");
    let f = Format::BINARY64;
    let sample = Rational::from_decimal_str("0.1").expect("valid");
    println!("Demonstration on x = 0.1 (not representable in binary64):\n");
    println!(
        "{:<28} {:>8} {:>14} {:>24}",
        "Rounding mode", "notation", "unit roundoff", "round(0.1) - 0.1"
    );
    for mode in RoundingMode::ALL {
        let rounded = Fp::round(&sample, f, mode).to_rational().expect("finite");
        let delta = rounded.sub(&sample);
        println!(
            "{:<28} {:>8} {:>14} {:>24}",
            mode.name(),
            mode.notation(),
            f.unit_roundoff(mode).to_sci_string(3),
            delta.to_sci_string(3),
        );
    }
    println!("\nDefining properties (verified exhaustively in the test suite):");
    println!("  RU(x) = min {{ y in F | y >= x }}     RD(x) = max {{ y in F | y <= x }}");
    println!("  RZ(x) = RU(x) if x < 0 else RD(x)   RN(x) = nearest, ties to even");
}

/// Table 3: small kernels, the Λnum bound (one `Analyzer::check` pass
/// and the eq. 8 conversion) against the `numfuzz-bounds` interval
/// engine over each kernel's input box, with the paper's values
/// alongside. All inputs are in `[0.1, 1000]` and constants are exact
/// (the kernels' literals are reals, not rounded inputs). Rows run
/// serially: the timing columns are the point of this table, and
/// concurrent rows would inflate each other's wall-clock numbers.
fn table3_kernels() {
    let analyzer = paper_session();

    println!("Table 3: small kernels (binary64, round toward +inf, inputs in [0.1, 1000])");
    println!("Bounds are worst-case relative error; ratio = Lnum grade / interval bound.\n");
    println!(
        "{:<20} {:>4} | {:>9} {:>9} {:>5} | {:>9} {:>9} | {:>9} {:>9} {:>9}",
        "Benchmark",
        "Ops",
        "Lnum",
        "Intvl",
        "ratio",
        "t(Lnum)",
        "t(Intvl)",
        "paperLnum",
        "paperFPT",
        "paperGappa"
    );

    let mut rows: Vec<Row> = table3().iter().map(|b| run_ir_row(b, &analyzer)).collect();
    // Horner2_with_error: Λnum from the Fig. 9 surface program, the
    // interval bound from the kernel with one unit of input error.
    rows.push(run_with_error_row(&analyzer));

    for row in rows {
        let paper = PAPER_TABLE3
            .iter()
            .find(|(n, ..)| *n == row.name)
            .copied()
            .unwrap_or(("", "-", "-", "-"));
        println!(
            "{:<20} {:>4} | {:>9} {:>9} {:>5} | {:>9} {:>9} | {:>9} {:>9} {:>9}",
            row.name,
            row.ops,
            rp_bound_string(&row.alpha),
            rp_bound_string(&row.interval),
            ratio_string(&row.alpha, &row.interval),
            fmt_time(row.t_ours),
            fmt_time(row.t_interval),
            paper.1,
            paper.2,
            paper.3,
        );
    }
    println!("\nNotes:");
    println!("  * Intvl is numfuzz-bounds: exact interval evaluation plus first-order error");
    println!("    propagation, the technique behind the paper's FPTaylor/Gappa columns;");
    println!("  * Horner rows use FMA (one rounding per two ops), as in the paper;");
    println!("  * Λnum grades are exact k*eps values; bounds use eq. (8): rel <= a/(1-a).");
}

/// One Table 3 row.
struct Row {
    name: String,
    ops: usize,
    /// The typed grade's coefficient times `u`.
    alpha: Rational,
    /// The interval engine's bound in the same RP metric.
    interval: Rational,
    t_ours: Duration,
    t_interval: Duration,
}

/// The interval engine's bound for `program`, translated from `kernel`,
/// over the kernel's input box, and the time the analysis took.
fn interval_bound(program: &Program, kernel: &Kernel, analyzer: &Analyzer) -> (Rational, Duration) {
    let cfg =
        BoundConfig::new(Instantiation::RelativePrecision, analyzer.format(), analyzer.mode());
    let inputs: Vec<_> = program.free().iter().map(|(v, _)| *v).zip(kernel.ranges()).collect();
    let t0 = Instant::now();
    let bound = analyze_with_inputs(program.store(), program.root(), &cfg, &inputs)
        .unwrap_or_else(|e| panic!("{}: interval engine: {e}", kernel.name));
    (bound.bound().clone(), t0.elapsed())
}

fn run_ir_row(b: &SmallBench, analyzer: &Analyzer) -> Row {
    let program = Program::from_kernel(&b.kernel).expect("translatable");
    let t0 = Instant::now();
    let typed = analyzer.check(&program).expect("checks");
    let bound = analyzer.bound(&typed).expect("monadic grade");
    let t_ours = t0.elapsed();
    // Sanity: inference matched the recorded coefficient.
    assert_eq!(
        typed.ty(),
        &Ty::monad(Grade::symbol("eps").scale(&b.expected_eps_coeff), Ty::Num),
        "{}",
        b.kernel.name
    );
    let (interval, t_interval) = interval_bound(&program, &b.kernel, analyzer);
    Row {
        name: b.kernel.name.clone(),
        ops: b.kernel.op_count(),
        alpha: bound.alpha,
        interval,
        t_ours,
        t_interval,
    }
}

fn run_with_error_row(analyzer: &Analyzer) -> Row {
    let t0 = Instant::now();
    let program = analyzer.parse(horner2_with_error_source()).expect("parses");
    let typed = analyzer.check(&program).expect("checks");
    let rep = typed.function("Horner2we").expect("reported");
    // The bound of *calling* the function: walk the curried type to its
    // monadic codomain.
    let bound = analyzer.bound_of_ty(&rep.inferred).expect("monadic codomain");
    let t_ours = t0.elapsed();

    let b = horner2_with_error_kernel();
    let kernel_program = Program::from_kernel(&b.kernel).expect("translatable");
    let (interval, t_interval) = interval_bound(&kernel_program, &b.kernel, analyzer);
    Row {
        name: b.kernel.name.clone(),
        ops: b.kernel.op_count(),
        alpha: bound.alpha,
        interval,
        t_ours,
        t_interval,
    }
}

/// Table 4: large benchmarks (100 to 4.2M floating-point operations).
/// Each generated program is type-checked (timed) by one session, and
/// its eq. (8) bound is compared against the literature "Std." bound.
/// `MatrixMultiply128` (≈25M AST nodes, several GB) only runs when
/// `NUMFUZZ_LARGE=1` is set. The last line is the run's peak RSS.
fn table4() {
    let analyzer = paper_session();
    let u = analyzer.rounding_unit();

    println!("Table 4: large benchmarks (binary64, round toward +inf)");
    println!(
        "Std. bounds: gamma_n after Higham / Boldo et al.; paper timings quoted for reference.\n"
    );
    println!(
        "{:<20} {:>9} | {:>9} {:>9} | {:>10} {:>10} | {:>9} {:>9} {:>9}",
        "Benchmark",
        "Ops",
        "Lnum",
        "Std.",
        "t(gen)",
        "t(check)",
        "paperLnum",
        "paperStd",
        "paper t"
    );

    let large = std::env::var("NUMFUZZ_LARGE").is_ok_and(|v| v == "1");

    type Job = (Box<dyn FnOnce() -> Generated>, Option<Rational>);
    let mut jobs: Vec<Job> = vec![
        (Box::new(|| horner(50)), std_bounds::horner_fma(50, &u)),
        (Box::new(|| matrix_multiply(4)), std_bounds::inner_product(4, &u)),
        (Box::new(|| horner(75)), std_bounds::horner_fma(75, &u)),
        (Box::new(|| horner(100)), std_bounds::horner_fma(100, &u)),
        (Box::new(|| serial_sum(1024)), std_bounds::serial_sum(1024, &u)),
        (Box::new(|| poly_naive(50)), None),
        (Box::new(|| matrix_multiply(16)), std_bounds::inner_product(16, &u)),
        (Box::new(|| matrix_multiply(64)), std_bounds::inner_product(64, &u)),
    ];
    if large {
        jobs.push((Box::new(|| matrix_multiply(128)), std_bounds::inner_product(128, &u)));
    }

    for (gen, std_bound) in jobs {
        let t0 = Instant::now();
        let g = gen();
        let ops = g.ops;
        let t_gen = t0.elapsed();
        let program = Program::from_generated(g);
        let name = program.name().expect("generated benchmarks are named").to_string();
        let t0 = Instant::now();
        let typed = analyzer.check(&program).expect("checks");
        let t_check = t0.elapsed();
        let bound = analyzer.bound(&typed).expect("monadic grade");
        // `SerialSum(1024)` is the paper's `SerialSum`.
        let paper_name = name.split('(').next().unwrap_or_default();
        let paper = PAPER_TABLE4.iter().find(|(n, ..)| *n == paper_name);
        println!(
            "{:<20} {:>9} | {:>9} {:>9} | {:>10} {:>10} | {:>9} {:>9} {:>9}",
            name,
            ops,
            rp_bound_string(&bound.alpha),
            std_bound.as_ref().map_or("-".to_string(), |b| b.to_sci_string(3)),
            fmt_time(t_gen),
            fmt_time(t_check),
            paper.map_or("-", |p| p.2),
            paper.map_or("-", |p| p.3),
            paper.map_or("-", |p| p.4),
        );
    }
    if !large {
        println!("\n(set NUMFUZZ_LARGE=1 to include MatrixMultiply128: ~25M AST nodes)");
    }
    println!("\nNotes: Λnum matches Std. exactly on Horner and SerialSum; on MatrixMultiply the");
    println!(
        "per-op rounding model yields (2n-1)u vs the literature's fused gamma_n (a factor ~2),"
    );
    println!("the same relationship the paper reports.");
    if let Some(mib) = peak_rss_mib() {
        println!("\npeak RSS: {mib} MiB");
    }
}

/// The process's peak resident set in MiB (`VmHWM` in
/// `/proc/self/status`), where the system reports one.
fn peak_rss_mib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: u64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib / 1024)
}

/// Table 5: conditional benchmarks. Each surface program is parsed,
/// lowered and type-checked (timed); the bound comes from the function's
/// monadic grade via eq. (8).
fn table5_conditionals() {
    let analyzer = paper_session();

    println!("Table 5: conditional benchmarks (binary64, round toward +inf)\n");
    println!(
        "{:<22} | {:>9} {:>10} | {:>9} {:>9}",
        "Benchmark", "Lnum", "t(check)", "paperLnum", "paper(ms)"
    );

    for b in table5() {
        let t0 = Instant::now();
        let program = analyzer.parse_named(b.name, b.source).expect("parses");
        let typed = analyzer.check(&program).expect("checks");
        let elapsed = t0.elapsed();
        let rep = typed.function(b.function).expect("function present");
        // The bound of calling the function: eq. (8) on the curried
        // type's monadic codomain.
        let bound = analyzer.bound_of_ty(&rep.inferred).expect("monadic codomain");
        let paper =
            PAPER_TABLE5.iter().find(|(n, ..)| *n == b.name).copied().unwrap_or((b.name, "-", "-"));
        println!(
            "{:<22} | {:>9} {:>10} | {:>9} {:>9}",
            b.name,
            rp_bound_string(&bound.alpha),
            fmt_time(elapsed),
            paper.1,
            paper.2,
        );
    }
    println!("\nNote: bounds assume both executions take the same branch (Section 5.1);");
    println!("guards are infinitely sensitive (is_pos / is_gt at ![inf]).");
}

/// Tallies from one benchmark's sweep, merged in input order.
struct Outcome {
    report: String,
    runs: usize,
    violations: usize,
    faults: usize,
    worst_slack: f64,
}

impl Outcome {
    fn new() -> Self {
        Outcome {
            report: String::new(),
            runs: 0,
            violations: 0,
            faults: 0,
            worst_slack: f64::INFINITY,
        }
    }
}

/// The sweep's formats: binary64 and two narrow ones that over- and
/// underflow on some samples.
fn sweep_formats() -> [Format; 3] {
    [Format::BINARY64, Format::new(12, 60), Format::new(6, 40)]
}

/// One fresh session per format/mode combination, arena-private to the
/// calling worker.
fn sessions() -> Vec<Analyzer> {
    sweep_formats()
        .into_iter()
        .flat_map(|format| {
            RoundingMode::ALL
                .into_iter()
                .map(move |mode| Analyzer::builder().format(format).mode(mode).build())
        })
        .collect()
}

fn sweep_table3(b: &SmallBench, sessions: &[Analyzer]) -> Outcome {
    let program = Program::from_kernel(&b.kernel).expect("translatable");
    let mut outcome = Outcome::new();
    for sample in &b.samples {
        let inputs = Inputs::positional(sample.iter().map(|q| Value::num(q.clone())));
        for session in sessions {
            let rep = session.validate(&program, &inputs).unwrap_or_else(|e| {
                panic!("{} {} {}: {e}", b.kernel.name, session.format(), session.mode())
            });
            outcome.runs += 1;
            if rep.fp.is_none() {
                outcome.faults += 1; // over/underflow: Cor. 7.5 is vacuous
            }
            if !rep.holds() {
                outcome.violations += 1;
                outcome.report.push_str(&format!(
                    "VIOLATION: {} sample {sample:?} {} {}\n",
                    b.kernel.name,
                    session.format(),
                    session.mode()
                ));
            }
            if let Some(m) = rep.measured {
                let bound = rep.bound.to_f64();
                if bound > 0.0 && m > 0.0 {
                    outcome.worst_slack = outcome.worst_slack.min(bound / m);
                }
            }
        }
    }
    outcome.report.push_str(&format!(
        "  {:<20} ok ({} samples x {} format/mode combos)\n",
        b.kernel.name,
        b.samples.len(),
        sessions.len()
    ));
    outcome
}

fn sweep_table5(b: &CondBench, sessions: &[Analyzer]) -> Outcome {
    let program =
        Program::parse_named(b.name, &format!("{}\n{}", b.source, b.sample)).expect("parses");
    let mut outcome = Outcome::new();
    for session in sessions {
        let rep = session.validate(&program, &Inputs::none()).expect("validation harness");
        outcome.runs += 1;
        if !rep.holds() {
            outcome.violations += 1;
            outcome.report.push_str(&format!(
                "VIOLATION: {} {} {}\n",
                b.name,
                session.format(),
                session.mode()
            ));
        }
    }
    outcome.report.push_str(&format!("  {:<20} ok\n", b.name));
    outcome
}

/// The error-soundness sweep (Corollary 4.20): for every Table 3 kernel
/// and every recorded sample input, run the ideal and floating-point
/// semantics in several formats and modes and *rigorously* check
/// `RP(ideal, fp) <= inferred bound`; then the Table 5 conditionals and
/// two generated Table 4 programs. The Table 3 and Table 5 sweeps are
/// sharded over `jobs` workers, each with its own sessions, and merged in
/// input order, so the report reads identically for every job count.
/// Returns the number of violations (none exist: this is the empirical
/// witness to the soundness theorem).
pub fn validate(jobs: usize) -> usize {
    let mut total = Outcome::new();
    let mut merge = |outcomes: Vec<Outcome>| {
        for o in outcomes {
            print!("{}", o.report);
            total.runs += o.runs;
            total.violations += o.violations;
            total.faults += o.faults;
            total.worst_slack = total.worst_slack.min(o.worst_slack);
        }
    };

    println!("Error-soundness validation (Cor. 4.20): RP(ideal, fp) <= grade bound\n");
    merge(ordered_map_with(jobs, &table3(), |_w| sessions(), |s, _i, b| sweep_table3(b, s)));
    merge(ordered_map_with(jobs, &table5(), |_w| sessions(), |s, _i, b| sweep_table5(b, s)));

    // Generated programs: Horner50 at a sample point, SerialSum(64).
    for g in [horner(50), serial_sum(64)] {
        let program = Program::from_generated(g);
        let name = program.name().expect("named").to_string();
        let inputs =
            Inputs::positional(program.free().iter().map(|_| Value::num(Rational::ratio(7, 2))));
        for format in sweep_formats() {
            let session =
                Analyzer::builder().format(format).mode(RoundingMode::TowardPositive).build();
            let rep = session.validate(&program, &inputs).expect("validation harness");
            total.runs += 1;
            if !rep.holds() {
                total.violations += 1;
                println!("VIOLATION: {name} {format}");
            }
        }
        println!("  {name:<20} ok");
    }

    println!(
        "\n{} validations, {} violations, {} vacuous (over/underflow -> err).",
        total.runs, total.violations, total.faults
    );
    if total.worst_slack.is_finite() {
        println!("tightest observed bound/measured ratio: {:.2}x", total.worst_slack);
    }
    total.violations
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recorded Table 3 coefficients reproduce the paper's published
    /// Λnum column at binary64, round toward +∞.
    #[test]
    fn table3_coefficients_reproduce_the_paper_lnum_column() {
        let u = Format::BINARY64.unit_roundoff(RoundingMode::TowardPositive);
        let rows = table3().into_iter().chain([horner2_with_error_kernel()]).collect::<Vec<_>>();
        assert_eq!(rows.len(), PAPER_TABLE3.len());
        for b in rows {
            let paper = PAPER_TABLE3
                .iter()
                .find(|(name, ..)| *name == b.kernel.name)
                .unwrap_or_else(|| panic!("{} has no paper row", b.kernel.name));
            assert_eq!(rp_bound_string(&b.expected_eps_coeff.mul(&u)), paper.1, "{}", paper.0);
        }
    }
}
