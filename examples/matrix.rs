//! Table 4 at example scale: generate an n×n matrix-multiply program with
//! a rounding after every operation, type-check it, compare the inferred
//! element-wise bound against the textbook γ_n bound, and watch checking
//! time scale with program size.
//!
//! ```sh
//! cargo run --release --example matrix
//! ```

use numfuzz::benchsuite::{matrix_multiply, std_bounds};
use numfuzz::prelude::*;
use std::time::Instant;

fn main() -> Result<(), Diagnostic> {
    let analyzer = Analyzer::new(); // RP, binary64, round toward +inf: u = 2^-52
    let u = analyzer.rounding_unit();

    println!("n  | ops     | nodes    | grade        | bound     | gamma_n   | t(check)");
    for n in [2usize, 4, 8, 16] {
        let g = matrix_multiply(n);
        let ops = g.ops;
        let program = Program::from_generated(g);
        let nodes = program.store().len();
        let t0 = Instant::now();
        let typed = analyzer.check(&program)?;
        let dt = t0.elapsed();
        let bound = analyzer.bound(&typed)?;
        let gamma = std_bounds::inner_product(n as u64, &u).expect("small");
        println!(
            "{:<2} | {:<7} | {:<8} | {:<12} | {:<9} | {:<9} | {:?}",
            n,
            ops,
            nodes,
            bound.grade.to_string(),
            bound.relative.expect("small").to_sci_string(3),
            gamma.to_sci_string(3),
            dt,
        );
    }
    println!();
    println!("The inferred (2n-1)*eps element-wise bound is ~2x the literature's");
    println!("gamma_n = n*u/(1-n*u): Lnum rounds the products and the partial sums");
    println!("separately, while the fused inner-product analysis amortizes them —");
    println!("the same factor the paper reports in Table 4.");
    println!("(Full scale: NUMFUZZ_LARGE=1 cargo run --release -- paper 4.)");
    Ok(())
}
