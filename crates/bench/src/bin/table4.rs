//! Regenerates the paper's Table 4: large benchmarks (100 to 4.2M
//! floating-point operations). Each generated program becomes a
//! `Program`, is type-checked (timed) by one `Analyzer` session, and its
//! grade is converted to a relative bound via eq. (8) and compared
//! against the literature "Std." bound.
//!
//! `MatrixMultiply128` (≈25M AST nodes, several GB) only runs when
//! `NUMFUZZ_LARGE=1` is set.

use numfuzz::prelude::*;
use numfuzz_bench::{fmt_time, rp_bound_string, PAPER_TABLE4};
use numfuzz_benchsuite::{horner, matrix_multiply, poly_naive, serial_sum, std_bounds, Generated};
use std::time::Instant;

fn main() {
    let analyzer = Analyzer::builder()
        .format(Format::BINARY64)
        .mode(RoundingMode::TowardPositive) // u = 2^-52, directed rounding
        .build();
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
        let paper_name = paper_key(&name);
        let paper = PAPER_TABLE4
            .iter()
            .find(|(n, ..)| *n == paper_name)
            .copied()
            .unwrap_or((paper_name, 0, "-", "-", "-"));
        println!(
            "{:<20} {:>9} | {:>9} {:>9} | {:>10} {:>10} | {:>9} {:>9} {:>9}",
            name,
            ops,
            rp_bound_string(&bound.alpha),
            std_bound.as_ref().map_or("-".to_string(), |b| b.to_sci_string(3)),
            fmt_time(t_gen),
            fmt_time(t_check),
            paper.2,
            paper.3,
            paper.4,
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
}

fn paper_key(name: &str) -> &'static str {
    match name {
        "Horner50" => "Horner50",
        "Horner75" => "Horner75",
        "Horner100" => "Horner100",
        "MatrixMultiply4" => "MatrixMultiply4",
        "MatrixMultiply16" => "MatrixMultiply16",
        "MatrixMultiply64" => "MatrixMultiply64",
        "MatrixMultiply128" => "MatrixMultiply128",
        "Poly50" => "Poly50",
        _ => "SerialSum",
    }
}
