//! Criterion bench behind Table 3: direct blocked GEMM versus Strassen.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mnn_bench::deterministic_buffer;
use mnn_kernels::gemm::gemm;
use mnn_kernels::simd::KernelBackend;
use mnn_kernels::strassen::{strassen_scratch, strassen_with};
use std::time::Duration;

/// (a, b, c) for [a, b] x [b, c]. The 1024 case of the paper's Table 3 is covered
/// by the `table3_strassen` binary; keeping 256/512 here keeps `cargo bench` quick.
const SIZES: [(usize, usize, usize); 3] = [(256, 256, 256), (512, 512, 512), (512, 512, 1024)];

fn bench_strassen(c: &mut Criterion) {
    let mut group = c.benchmark_group("table3_strassen");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4))
        .warm_up_time(Duration::from_millis(500));
    for (a, b, n) in SIZES {
        let lhs = deterministic_buffer(a * b, 1);
        let rhs = deterministic_buffer(b * n, 2);
        let mut out = vec![0.0f32; a * n];
        let mut scratch = vec![0.0f32; strassen_scratch(a, b, n).f32];
        let label = format!("{a}x{b}x{n}");
        group.bench_with_input(BenchmarkId::new("direct", &label), &label, |bench, _| {
            bench.iter(|| gemm(a, b, n, &lhs, &rhs, &mut out))
        });
        group.bench_with_input(BenchmarkId::new("strassen", &label), &label, |bench, _| {
            let kb = KernelBackend::Scalar;
            bench.iter(|| strassen_with(kb, 1, a, b, n, &lhs, &rhs, &mut out, &mut scratch))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_strassen);
criterion_main!(benches);
