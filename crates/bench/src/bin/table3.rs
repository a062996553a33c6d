//! Regenerates the paper's Table 3: small kernels, comparing the Λnum
//! bound (one `Analyzer::check` pass and the eq. 8 conversion) against
//! the interval (Gappa-style) and Taylor-form (FPTaylor-style) baselines,
//! with the paper's published values alongside.
//!
//! Conventions (see DESIGN.md / EXPERIMENTS.md): binary64, round toward
//! +∞ (`u = 2^-52`), all inputs in `[0.1, 1000]`, constants exact.

use numfuzz::prelude::*;
use numfuzz_analyzers::{analyze_interval, analyze_taylor};
use numfuzz_bench::{fmt_time, opt_bound_string, ratio_string, rp_bound_string, PAPER_TABLE3};
use numfuzz_benchsuite::{horner2_with_error_kernel, horner2_with_error_source, table3};
use numfuzz_core::pool;
use std::time::Instant;

fn main() {
    // Serial by default: this binary's whole point is its timing
    // columns, and oversubscribed workers would inflate per-row
    // wall-clock numbers. `--jobs N` opts into sharding when only the
    // bounds matter.
    let mut jobs = 1usize;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--jobs" => {
                jobs = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("table3: --jobs needs a number");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!("table3: unknown option `{other}` (usage: table3 [--jobs N])");
                std::process::exit(2);
            }
        }
    }
    let analyzer =
        Analyzer::builder().format(Format::BINARY64).mode(RoundingMode::TowardPositive).build();

    println!("Table 3: small kernels (binary64, round toward +inf, inputs in [0.1, 1000])");
    println!("Bounds are worst-case relative error; ratio = ours / best(baselines).\n");
    println!(
        "{:<20} {:>4} | {:>9} {:>9} {:>9} {:>5} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}",
        "Benchmark",
        "Ops",
        "Lnum",
        "Taylor",
        "Intvl",
        "ratio",
        "t(Lnum)",
        "t(Taylor)",
        "t(Intvl)",
        "paperLnum",
        "paperFPT",
        "paperGappa"
    );

    // Rows are independent (Λnum check + two baseline analyses each), so
    // they shard across workers — one session per worker, rows collected
    // in table order. The printed bounds are identical for every job
    // count; only the wall-clock timing columns vary.
    let benches = table3();
    let mut rows = pool::ordered_map_with(
        jobs,
        &benches,
        |_w| {
            Analyzer::builder().format(Format::BINARY64).mode(RoundingMode::TowardPositive).build()
        },
        |analyzer, _i, b| run_ir_row(b, analyzer),
    );
    // Horner2_with_error: Λnum from the Fig. 9 surface program, baselines
    // from the kernel with one unit of input error.
    rows.push(run_with_error_row(&analyzer));

    for row in rows {
        let paper = PAPER_TABLE3
            .iter()
            .find(|(n, ..)| *n == row.name)
            .copied()
            .unwrap_or(("", "-", "-", "-"));
        println!(
            "{:<20} {:>4} | {:>9} {:>9} {:>9} {:>5} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}",
            row.name,
            row.ops,
            row.ours,
            opt_bound_string(&row.taylor),
            opt_bound_string(&row.interval),
            row.ratio,
            row.t_ours,
            row.t_taylor,
            row.t_interval,
            paper.1,
            paper.2,
            paper.3,
        );
    }
    println!("\nNotes:");
    println!("  * baselines are this repo's Gappa/FPTaylor technique stand-ins (DESIGN.md §1);");
    println!("  * Horner rows use FMA (one rounding per two ops), as in the paper;");
    println!("  * Λnum grades are exact k*eps values; bounds use eq. (8): rel <= a/(1-a).");
}

struct Row {
    name: String,
    ops: usize,
    ours: String,
    taylor: Option<Rational>,
    interval: Option<Rational>,
    ratio: String,
    t_ours: String,
    t_taylor: String,
    t_interval: String,
}

fn run_ir_row(b: &numfuzz_benchsuite::SmallBench, analyzer: &Analyzer) -> Row {
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

    let (format, mode) = (analyzer.format(), analyzer.mode());
    let t0 = Instant::now();
    let taylor = analyze_taylor(&b.kernel, format, mode).ok().and_then(|r| r.rel);
    let t_taylor = t0.elapsed();
    let t0 = Instant::now();
    let interval = analyze_interval(&b.kernel, format, mode).ok().and_then(|r| r.rel);
    let t_interval = t0.elapsed();

    let ours_rel = bound.relative.clone().expect("alpha < 1");
    Row {
        name: b.kernel.name.clone(),
        ops: b.kernel.op_count(),
        ours: rp_bound_string(&bound.alpha),
        ratio: ratio_string(&ours_rel, &[&taylor, &interval]),
        taylor,
        interval,
        t_ours: fmt_time(t_ours),
        t_taylor: fmt_time(t_taylor),
        t_interval: fmt_time(t_interval),
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
    let (format, mode) = (analyzer.format(), analyzer.mode());
    let t0 = Instant::now();
    let taylor = analyze_taylor(&b.kernel, format, mode).ok().and_then(|r| r.rel);
    let t_taylor = t0.elapsed();
    let t0 = Instant::now();
    let interval = analyze_interval(&b.kernel, format, mode).ok().and_then(|r| r.rel);
    let t_interval = t0.elapsed();
    let ours_rel = bound.relative.clone().expect("alpha < 1");
    Row {
        name: "Horner2_with_error".to_string(),
        ops: b.kernel.op_count(),
        ours: rp_bound_string(&bound.alpha),
        ratio: ratio_string(&ours_rel, &[&taylor, &interval]),
        taylor,
        interval,
        t_ours: fmt_time(t_ours),
        t_taylor: fmt_time(t_taylor),
        t_interval: fmt_time(t_interval),
    }
}
