//! Ablation bench: Winograd output-tile sizes (the `n` of Eq. 2) and the generator.
//!
//! Complements Table 1 by sweeping every candidate tile size the pre-inference
//! cost model chooses between, plus the transform-generation cost itself.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mnn_backend::ConvScheme;
use mnn_bench::SchemeBench;
use mnn_kernels::conv::ConvParams;
use mnn_kernels::winograd::generate;
use std::time::Duration;

fn bench_tile_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("winograd_tile_sweep");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));

    let mut conv = SchemeBench::new(ConvParams::square(32, 32, 3, 1), 56, 4, 6);
    for tile in [2usize, 3, 4, 6] {
        group.bench_with_input(
            BenchmarkId::new("conv3x3_ic32_oc32_s56", tile),
            &tile,
            |b, &tile| b.iter(|| conv.run(ConvScheme::Winograd { tile })),
        );
    }
    group.finish();

    let mut gen_group = c.benchmark_group("winograd_generator");
    gen_group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    for (n, k) in [(2usize, 3usize), (4, 3), (6, 3), (2, 7)] {
        gen_group.bench_with_input(
            BenchmarkId::new("generate", format!("F({n},{k})")),
            &(n, k),
            |b, &(n, k)| b.iter(|| generate(n, k)),
        );
    }
    gen_group.finish();
}

criterion_group!(benches, bench_tile_sizes);
criterion_main!(benches);
