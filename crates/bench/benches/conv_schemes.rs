//! Criterion bench behind Table 1: convolution schemes on the paper's settings.
//!
//! Spatial sizes are reduced relative to the paper's Table 1 so a full
//! `cargo bench --workspace` stays fast; the table binary
//! (`table1_scheme_selection`) measures the original settings.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mnn_backend::ConvScheme;
use mnn_bench::SchemeBench;
use mnn_core::scheme::{select_conv_scheme, MAX_WINOGRAD_TILE};
use mnn_kernels::conv::ConvParams;
use std::time::Duration;

/// Reduced versions of the Table 1 settings: (k, ic, oc, spatial size).
const SETTINGS: [(usize, usize, usize, usize); 3] =
    [(2, 3, 16, 112), (2, 128, 128, 16), (3, 32, 32, 56)];

fn bench_conv_schemes(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_conv_schemes");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    let threads = 4;

    for setting in SETTINGS {
        let (k, ic, oc, size) = setting;
        let params = ConvParams::square(ic, oc, k, 0);
        let decision = select_conv_scheme(&params, size, size, MAX_WINOGRAD_TILE);
        let mut conv = SchemeBench::new(params, size, threads, MAX_WINOGRAD_TILE);
        let label = format!("k{k}_ic{ic}_oc{oc}_s{size}");

        let ours = match decision.selected {
            winograd @ ConvScheme::Winograd { .. } => winograd,
            _ => ConvScheme::SlidingWindow,
        };
        for (name, scheme) in [
            ("sliding", ConvScheme::SlidingWindow),
            ("winograd_min", ConvScheme::Winograd { tile: 2 }),
            (
                "winograd_max",
                ConvScheme::Winograd {
                    tile: MAX_WINOGRAD_TILE,
                },
            ),
            ("ours_selected", ours),
        ] {
            group.bench_with_input(BenchmarkId::new(name, &label), &setting, |b, _| {
                b.iter(|| conv.run(scheme))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_conv_schemes);
criterion_main!(benches);
