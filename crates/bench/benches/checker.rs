//! Criterion benches behind the paper's timing columns: Λnum type
//! inference across program scales (Tables 3 and 4), and the interval
//! engine on the same Table 3 kernels, so both sides of the Table 3 speed
//! comparison are timed on identical terms.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use numfuzz::bounds::{analyze_with_inputs, BoundConfig};
use numfuzz_benchsuite::{horner, kernel_to_core, matrix_multiply, serial_sum, table3, SmallBench};
use numfuzz_core::{infer, Instantiation, Signature};
use numfuzz_softfloat::{Format, RoundingMode};

/// The Table 3 kernels both small-program groups time.
fn small_kernels() -> Vec<SmallBench> {
    table3()
        .into_iter()
        .filter(|b| matches!(b.kernel.name.as_str(), "hypot" | "test02_sum8" | "Horner20"))
        .collect()
}

fn bench_small(c: &mut Criterion) {
    let sig = Signature::relative_precision();
    let mut group = c.benchmark_group("check/table3");
    for b in small_kernels() {
        let ck = kernel_to_core(&b.kernel).expect("translatable");
        group.bench_function(&b.kernel.name, |bench| {
            bench.iter(|| infer(&ck.store, &sig, ck.root, &ck.free).expect("checks"))
        });
    }
    group.finish();
}

fn bench_interval(c: &mut Criterion) {
    let cfg = BoundConfig::new(
        Instantiation::RelativePrecision,
        Format::BINARY64,
        RoundingMode::TowardPositive,
    );
    let mut group = c.benchmark_group("interval/table3");
    for b in small_kernels() {
        let ck = kernel_to_core(&b.kernel).expect("translatable");
        let inputs: Vec<_> = ck.free.iter().map(|(v, _)| *v).zip(b.kernel.ranges()).collect();
        group.bench_function(&b.kernel.name, |bench| {
            bench.iter(|| analyze_with_inputs(&ck.store, ck.root, &cfg, &inputs).expect("bounds"))
        });
    }
    group.finish();
}

fn bench_large(c: &mut Criterion) {
    let sig = Signature::relative_precision();
    let mut group = c.benchmark_group("check/table4");
    group.sample_size(10);
    for g in [horner(100), serial_sum(1024), matrix_multiply(4), matrix_multiply(16)] {
        group.bench_function(&g.name, |bench| {
            bench.iter_batched(
                || (),
                |_| infer(&g.store, &sig, g.root, &g.free).expect("checks"),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_small, bench_interval, bench_large);
criterion_main!(benches);
