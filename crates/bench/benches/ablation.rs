//! Ablation benches measuring what three design choices cost:
//!
//! * exact symbolic grades: cost of grade arithmetic per checker step;
//! * sqrt enclosure precision: ideal-evaluation cost vs `sqrt_bits`;
//! * evaluator: ideal vs floating-point semantics overhead.

use criterion::{criterion_group, criterion_main, Criterion};
use numfuzz_core::{compile, Grade, Signature};
use numfuzz_exact::{funcs::sqrt_enclosure, Rational};
use numfuzz_interp::{eval, rounding::IdentityRounding, rounding::ModeRounding, EvalConfig};
use numfuzz_softfloat::{Format, RoundingMode};

fn bench_grade_arithmetic(c: &mut Criterion) {
    // The checker's hot loop is grade add / sup / scale on small linear
    // expressions; an f64 representation would be ~10x faster but inexact
    // (and could not print `7*eps`). This measures what exactness costs.
    let eps = Grade::symbol("eps");
    let three = Grade::constant(Rational::from_int(3));
    let g1 = eps.scale(&Rational::from_int(7)).add(&three);
    let g2 = eps.scale(&Rational::ratio(5, 2));
    c.bench_function("ablation/grade_add", |b| b.iter(|| g1.add(&g2)));
    c.bench_function("ablation/grade_sup", |b| b.iter(|| g1.sup(&g2)));
    c.bench_function("ablation/grade_mul", |b| b.iter(|| three.checked_mul(&g2).expect("linear")));
}

fn bench_sqrt_bits(c: &mut Criterion) {
    let q = Rational::from_decimal_str("13.9501").expect("valid");
    for bits in [64u32, 192, 512] {
        c.bench_function(&format!("ablation/sqrt_enclosure_{bits}"), |b| {
            b.iter(|| sqrt_enclosure(&q, bits))
        });
    }
}

fn bench_eval_semantics(c: &mut Criterion) {
    let sig = Signature::relative_precision();
    let src = r#"
        function mulfp (xy: (num, num)) : M[eps]num { s = mul xy; rnd s }
        function addfp (xy: <num, num>) : M[eps]num { s = add xy; rnd s }
        function sqrtfp (x: ![1/2]num) : M[eps]num { s = sqrt x; rnd s }
        function hypot (x: num) (y: num) : M[5/2*eps]num {
            let a = mulfp (x,x);
            let b = mulfp (y,y);
            let c = addfp (|a,b|);
            sqrtfp [c]{1/2}
        }
        hypot 3.7 0.51
    "#;
    let lowered = compile(src, &sig).expect("compiles");
    c.bench_function("ablation/eval_ideal", |b| {
        b.iter(|| {
            eval(&lowered.store, lowered.root, &mut IdentityRounding, EvalConfig::default(), &[])
                .expect("evaluates")
        })
    });
    c.bench_function("ablation/eval_fp_b64", |b| {
        b.iter(|| {
            let mut m =
                ModeRounding { format: Format::BINARY64, mode: RoundingMode::TowardPositive };
            eval(&lowered.store, lowered.root, &mut m, EvalConfig::default(), &[])
                .expect("evaluates")
        })
    });
}

criterion_group!(benches, bench_grade_arithmetic, bench_sqrt_bits, bench_eval_semantics);
criterion_main!(benches);
