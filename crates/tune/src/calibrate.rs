//! Calibration of the analytic cost model from real measurements.
//!
//! The cost model's constants (most prominently the int8-vs-float discount
//! `INT8_COST_FACTOR` in `mnn-core`) were originally guessed. This harness
//! derives them from the same micro-benchmarks the tuner runs, so even
//! *untuned* sessions (`TuningMode::Off`) benefit from measurements: run it
//! once per device class, feed the result into
//! `SessionConfig::builder().cost_model(...)`, or use it to justify the
//! shipped default.
//!
//! Run interactively via `cargo run --release -p mnn-bench --bin table_tuning
//! -- --calibrate`.

use mnn_backend::timing::time_runs;
use mnn_kernels::conv::ConvParams;
use mnn_kernels::quant::{per_channel_scales, quantize_per_channel};
use mnn_kernels::simd::KernelBackend;
use mnn_kernels::{conv, quant, Scratch};

/// One calibration geometry's measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationSample {
    /// Human-readable geometry description (`k/ic/oc/size`).
    pub description: String,
    /// Float direct-convolution milliseconds (the cost model's float
    /// reference: its cost is the raw multiplication count).
    pub float_ms: f64,
    /// Int8 integer-kernel milliseconds (includes the per-run activation
    /// quantization pass, as at inference time).
    pub int8_ms: f64,
    /// The implied per-multiplication int8 discount for this geometry.
    pub factor: f64,
}

/// Result of calibrating the int8 cost factor.
#[derive(Debug, Clone, PartialEq)]
pub struct Int8Calibration {
    /// Median per-multiplication discount across the sample geometries —
    /// the measured replacement for the cost model's `INT8_COST_FACTOR`.
    pub factor: f64,
    /// The individual geometry measurements.
    pub samples: Vec<CalibrationSample>,
}

/// Representative convolution geometries: a GEMM-heavy 3×3, a pointwise layer
/// and a wider late-network 3×3 (mirrors the mix the zoo models run).
const GEOMETRIES: [(usize, usize, usize, usize); 3] =
    [(3, 32, 64, 28), (1, 64, 128, 14), (3, 64, 64, 28)];

/// Measure the relative cost of one int8 multiply-accumulate against one f32
/// multiply, in the units of the scheme cost model.
///
/// For each geometry the float direct kernel and the int8 kernel are timed —
/// both as sessions on this host run them, i.e. on the detected kernel set —
/// on identical deterministic data with `threads` workers; the model equation
/// `cost_int8 = muls · factor + quantize_pass` is then solved for `factor`
/// (clamped to a sane range) and the median across geometries is returned.
pub fn calibrate_int8_cost_factor(threads: usize) -> Int8Calibration {
    let mut samples = Vec::new();
    for (k, ic, oc, size) in GEOMETRIES {
        let params = ConvParams::square(ic, oc, k, k / 2);
        let muls = params.mul_count(size, size) as f64;
        let quantize_pass = (ic * size * size) as f64;

        let input = deterministic(ic * size * size, 7);
        let weight = deterministic(params.weight_len(), 11);
        let scales = per_channel_scales(&weight, oc);
        let weight_q = quantize_per_channel(&weight, &scales);
        let bias = vec![0.0f32; oc];
        // Same-padded, stride 1: the output is `oc` planes of the input's size.
        let mut output = vec![0.0f32; oc * size * size];
        let mut scratch = Scratch::new(quant::conv2d_quantized_scratch(
            &params, threads, 1, size, size,
        ));

        let float_ms = time_runs(1, 3, || {
            conv::conv2d_sliding_window(
                &params,
                threads,
                1,
                size,
                size,
                &input,
                &weight,
                &bias,
                &mut output,
            );
            std::hint::black_box(&output);
        });
        let int8_ms = time_runs(1, 3, || {
            quant::conv2d_quantized_with(
                KernelBackend::active(),
                &params,
                threads,
                1,
                size,
                size,
                &input,
                &weight_q,
                &scales,
                &bias,
                &mut output,
                &mut scratch,
            );
            std::hint::black_box(&output);
        });

        // t_int8 / t_float ≈ (muls·factor + quantize_pass) / muls
        let factor = ((int8_ms / float_ms.max(1e-9)) * muls - quantize_pass) / muls;
        samples.push(CalibrationSample {
            description: format!("k{k} {ic}->{oc} @{size}px"),
            float_ms,
            int8_ms,
            factor: factor.clamp(0.05, 1.5),
        });
    }
    let mut factors: Vec<f64> = samples.iter().map(|s| s.factor).collect();
    factors.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Int8Calibration {
        factor: factors[factors.len() / 2],
        samples,
    }
}

fn deterministic(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_produces_a_sane_factor() {
        let calibration = calibrate_int8_cost_factor(1);
        assert_eq!(calibration.samples.len(), GEOMETRIES.len());
        assert!(calibration.factor >= 0.05 && calibration.factor <= 1.5);
        for sample in &calibration.samples {
            assert!(sample.float_ms > 0.0);
            assert!(sample.int8_ms > 0.0);
        }
    }
}
