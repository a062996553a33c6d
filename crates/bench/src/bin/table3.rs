//! Regenerates the paper's Table 3: small kernels, comparing the Λnum
//! bound (one `Analyzer::check` pass and the eq. 8 conversion) against
//! the `numfuzz-bounds` interval engine over each kernel's input box,
//! with the paper's published values alongside.
//!
//! Conventions: binary64, round toward +∞ (`u = 2^-52`, which reproduces
//! the paper's Λnum column), all inputs in `[0.1, 1000]`, constants exact
//! (the kernels' literals are reals, not rounded inputs).
//! Rows run serially: the timing columns are the point of this table,
//! and concurrent rows would inflate each other's wall-clock numbers.

use numfuzz::bounds::{analyze_with_inputs, BoundConfig};
use numfuzz::prelude::*;
use numfuzz_bench::{fmt_time, ratio_string, rp_bound_string, PAPER_TABLE3};
use numfuzz_benchsuite::{
    horner2_with_error_kernel, horner2_with_error_source, table3, Kernel, SmallBench,
};
use std::time::{Duration, Instant};

fn main() {
    let analyzer =
        Analyzer::builder().format(Format::BINARY64).mode(RoundingMode::TowardPositive).build();

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
