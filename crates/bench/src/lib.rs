//! Shared helpers for the benchmark harness.
//!
//! Each reproduced paper table has a dedicated binary under `src/bin/` (the
//! README's "Paper experiments" section lists them); the Criterion benches
//! under `benches/` cover the kernel-level measurements (Tables 1 and 3). This
//! library holds the workload definitions and output formatting they share.

#![deny(missing_docs)]

use mnn_backend::ConvScheme;
use mnn_kernels::conv::{conv2d_sliding_window, ConvParams};
use mnn_kernels::simd::KernelBackend;
use mnn_kernels::winograd::{
    conv2d_winograd_prepared_with, prepare_winograd_weights, winograd_scratch,
};
use mnn_kernels::{Scratch, ScratchLen};
use mnn_tensor::Shape;
use std::time::Instant;

/// The three convolution settings of the paper's Table 1, written as
/// `(kernel, in_channels, out_channels, input spatial size)`.
pub const TABLE1_SETTINGS: [(usize, usize, usize, usize); 3] =
    [(2, 3, 16, 224), (2, 512, 512, 16), (3, 64, 64, 112)];

/// The matrix sizes of the paper's Table 3, written as `(a, b, c)` for
/// `[a, b] × [b, c]`.
pub const TABLE3_SIZES: [(usize, usize, usize); 4] = [
    (256, 256, 256),
    (512, 512, 512),
    (512, 512, 1024),
    (1024, 1024, 1024),
];

/// Build the [`ConvParams`] for one Table 1 setting.
pub fn table1_conv(setting: (usize, usize, usize, usize)) -> ConvParams {
    let (k, ic, oc, _) = setting;
    ConvParams::square(ic, oc, k, 0)
}

/// One convolution of the Table 1 kind — `params` on a `size`×`size` input with
/// deterministic data — ready to be timed under either scheme the table
/// compares. Output and scratch are allocated here, once, so a timed
/// [`SchemeBench::run`] is the kernel alone.
pub struct SchemeBench {
    params: ConvParams,
    size: usize,
    threads: usize,
    input: Vec<f32>,
    weight: Vec<f32>,
    output: Vec<f32>,
    scratch: Scratch,
}

impl SchemeBench {
    /// Buffers for `params` at `size`, with scratch for every Winograd tile up
    /// to `max_tile`.
    pub fn new(params: ConvParams, size: usize, threads: usize, max_tile: usize) -> Self {
        let (out_h, out_w) = params.output_size(size, size);
        let need = (2..=max_tile)
            .map(|tile| winograd_scratch(&params, tile, threads, size, size))
            .fold(ScratchLen::default(), ScratchLen::max);
        SchemeBench {
            size,
            threads,
            input: deterministic_buffer(params.in_channels * size * size, 1),
            weight: deterministic_buffer(params.weight_len(), 2),
            output: vec![0.0; params.out_channels * out_h * out_w],
            scratch: Scratch::new(need),
            params,
        }
    }

    /// Run the convolution once: the sliding-window kernel, or Winograd with
    /// `tile` on the scalar kernels (weights transformed per call, as the
    /// paper's Table 1 measures it).
    ///
    /// # Panics
    ///
    /// Panics on any other scheme, or a tile above `max_tile`.
    pub fn run(&mut self, scheme: ConvScheme) {
        let (params, size, threads) = (&self.params, self.size, self.threads);
        let (x, w, out) = (&self.input, &self.weight, &mut self.output);
        match scheme {
            ConvScheme::SlidingWindow => {
                conv2d_sliding_window(params, threads, 1, size, size, x, w, &[], out)
            }
            ConvScheme::Winograd { tile } => conv2d_winograd_prepared_with(
                KernelBackend::Scalar,
                params,
                &prepare_winograd_weights(params, tile, w),
                threads,
                1,
                size,
                size,
                x,
                &[],
                out,
                &mut self.scratch,
            ),
            other => panic!("unexpected scheme {other}"),
        }
    }
}

/// Deterministic pseudo-random buffer (xorshift-based), used to build benchmark
/// inputs without depending on `rand` in hot paths.
pub fn deterministic_buffer(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let r = (state.wrapping_mul(0x2545F4914F6CDD1D) >> 40) as f32 / (1u64 << 24) as f32;
            r * 2.0 - 1.0
        })
        .collect()
}

/// Deterministic NCHW input tensor for a model with the given input shape.
pub fn deterministic_input(shape: Shape, seed: u64) -> mnn_tensor::Tensor {
    let len = shape.num_elements();
    mnn_tensor::Tensor::from_vec(shape, deterministic_buffer(len, seed))
}

/// Time a closure, returning (result, milliseconds).
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64() * 1000.0)
}

/// Time a closure averaged over `runs` executions after one warm-up run.
pub fn time_avg_ms<T>(runs: usize, mut f: impl FnMut() -> T) -> f64 {
    let _ = f();
    let start = Instant::now();
    for _ in 0..runs.max(1) {
        let _ = f();
    }
    start.elapsed().as_secs_f64() * 1000.0 / runs.max(1) as f64
}

/// Print a table header (title plus column names) in the plain-text format used by
/// all experiment binaries.
pub fn print_table_header(title: &str, columns: &[&str]) {
    println!("\n=== {title} ===");
    println!("{}", columns.join(" | "));
    println!(
        "{}",
        "-".repeat(columns.iter().map(|c| c.len() + 3).sum::<usize>().max(20))
    );
}

/// Print one table row.
pub fn print_row(cells: &[String]) {
    println!("{}", cells.join(" | "));
}

/// Format milliseconds with one decimal.
pub fn ms(value: f64) -> String {
    format!("{value:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_constants_match_the_paper() {
        assert_eq!(TABLE1_SETTINGS.len(), 3);
        assert_eq!(TABLE3_SIZES[3], (1024, 1024, 1024));
        let p = table1_conv(TABLE1_SETTINGS[1]);
        assert_eq!(p.in_channels, 512);
        assert_eq!(p.kernel_h, 2);
    }

    #[test]
    fn deterministic_buffer_is_reproducible_and_bounded() {
        let a = deterministic_buffer(128, 7);
        let b = deterministic_buffer(128, 7);
        let c = deterministic_buffer(128, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn timers_return_positive_durations() {
        let (_, t) = time_ms(|| std::thread::sleep(std::time::Duration::from_millis(2)));
        assert!(t >= 1.0);
        let avg = time_avg_ms(2, || 40 + 2);
        assert!(avg >= 0.0);
    }
}
