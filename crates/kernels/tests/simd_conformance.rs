//! SIMD-vs-scalar conformance suite for the vectorized kernel paths.
//!
//! Contract being enforced (see `mnn_kernels::simd`):
//!
//! * **int8 paths are bit-identical.** Every product is exact in i32 and i32
//!   addition is associative, so vectorization must not change a single bit —
//!   these tests use `assert_eq!`.
//! * **f32 paths agree within a documented tolerance.** SIMD kernels use FMA
//!   and lane-parallel accumulation, so individual elements may differ from
//!   the scalar reference by rounding. The bound used throughout is
//!   `|simd - scalar| <= TOL * (1 + |scalar|)` with `TOL` scaled to the
//!   reduction depth of the kernel under test.
//!
//! Geometries deliberately include sizes that are not multiples of the vector
//! width (16/8/4 column tails, 1..3-row remainders) so every remainder path in
//! the micro-kernels is crossed.
//!
//! On hosts with no SIMD backend (or non-x86_64/aarch64 targets) the suite
//! passes trivially — there is nothing to compare.

use mnn_kernels::conv::{
    conv2d_1x1_strassen_with, conv2d_depthwise_with, conv2d_im2col_with, im2col_scratch,
    strassen_1x1_scratch, ConvParams,
};
use mnn_kernels::fc::fully_connected_with;
use mnn_kernels::gemm::{gemm_mt_with, gemm_with, transpose};
use mnn_kernels::quant::{
    conv2d_quantized_scratch, conv2d_quantized_with, gemm_i8_with, QuantParams,
};
use mnn_kernels::simd::KernelBackend;
use mnn_kernels::winograd::{
    conv2d_winograd_prepared_with, prepare_winograd_weights, winograd_scratch,
};
use mnn_kernels::{Scratch, ScratchLen};

/// Output elements of `params` on a `batch × in_h × in_w` input.
fn conv_len(params: &ConvParams, batch: usize, in_h: usize, in_w: usize) -> usize {
    let (out_h, out_w) = params.output_size(in_h, in_w);
    batch * params.out_channels * out_h * out_w
}

/// The SIMD backend this host can actually execute, if any.
fn hw_backend() -> Option<KernelBackend> {
    [KernelBackend::Avx2Fma, KernelBackend::Neon]
        .into_iter()
        .find(|kb| kb.hw_supported())
}

fn lcg(seed: &mut u64) -> f32 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*seed >> 33) as f32 / (1u64 << 31) as f32) - 0.5
}

fn randf(seed: &mut u64, len: usize) -> Vec<f32> {
    (0..len).map(|_| lcg(seed)).collect()
}

fn randi8(seed: &mut u64, len: usize) -> Vec<i8> {
    (0..len).map(|_| (lcg(seed) * 250.0) as i8).collect()
}

fn assert_close(simd: &[f32], scalar: &[f32], tol: f32, what: &str) {
    assert_eq!(simd.len(), scalar.len(), "{what}: length mismatch");
    for (i, (s, r)) in simd.iter().zip(scalar).enumerate() {
        assert!(
            (s - r).abs() <= tol * (1.0 + r.abs()),
            "{what}: element {i} diverged: simd {s} vs scalar {r}"
        );
    }
}

#[test]
fn f32_gemm_matches_scalar_within_tolerance() {
    let Some(kb) = hw_backend() else { return };
    // m exercises 4-row tiles + 1..3-row remainders; n exercises 16/8/4-wide
    // and scalar column tails; k crosses the BLOCK_K=256 boundary.
    for (m, k, n) in [
        (1, 1, 1),
        (2, 3, 5),
        (4, 16, 16),
        (5, 7, 17),
        (6, 31, 24),
        (7, 300, 23),
        (8, 257, 33),
        (13, 64, 40),
    ] {
        let mut seed = (m * 1009 + k * 31 + n) as u64;
        let a = randf(&mut seed, m * k);
        let b = randf(&mut seed, k * n);
        let mut c_simd = vec![0.0f32; m * n];
        let mut c_scalar = vec![0.0f32; m * n];
        gemm_with(kb, m, k, n, &a, &b, &mut c_simd);
        gemm_with(KernelBackend::Scalar, m, k, n, &a, &b, &mut c_scalar);
        // Per output element the reduction is a single k-deep chain in both
        // paths; only FMA rounding differs.
        assert_close(&c_simd, &c_scalar, 1e-4, &format!("gemm {m}x{k}x{n}"));
    }
}

#[test]
fn f32_gemm_mt_matches_single_thread() {
    let Some(kb) = hw_backend() else { return };
    let (m, k, n) = (9, 40, 21);
    let mut seed = 7u64;
    let a = randf(&mut seed, m * k);
    let b = randf(&mut seed, k * n);
    let mut c_st = vec![0.0f32; m * n];
    gemm_with(kb, m, k, n, &a, &b, &mut c_st);
    for threads in [2, 3, 8] {
        let mut c_mt = vec![0.0f32; m * n];
        gemm_mt_with(kb, threads, m, k, n, &a, &b, &mut c_mt);
        // Row partitioning never splits a reduction, so multithreading is
        // bit-identical to single-threaded for the same backend.
        assert_eq!(c_mt, c_st, "gemm_mt diverged at {threads} threads");
    }
}

#[test]
fn int8_gemm_is_bit_identical() {
    let Some(kb) = hw_backend() else { return };
    for (m, k, n) in [(1, 1, 1), (3, 5, 7), (4, 9, 16), (5, 33, 23), (8, 64, 40)] {
        let mut seed = (m * 131 + k * 17 + n) as u64;
        let a = randi8(&mut seed, m * k);
        let b = randi8(&mut seed, k * n);
        let ap = QuantParams::from_max_abs(1.3);
        let bp = QuantParams::from_max_abs(0.9);
        let need = ScratchLen {
            i32: n,
            ..ScratchLen::default()
        };
        let run = |kb| {
            Scratch::collect(m * n, need, |c, scratch| {
                gemm_i8_with(kb, m, k, n, &a, ap, &b, bp, c, scratch)
            })
        };
        assert_eq!(
            run(kb),
            run(KernelBackend::Scalar),
            "int8 gemm must be exact ({m}x{k}x{n})"
        );
    }
}

#[test]
fn quantized_conv_is_bit_identical() {
    let Some(kb) = hw_backend() else { return };
    let params = ConvParams::square(3, 8, 3, 1);
    let (batch, in_h, in_w) = (2, 9, 11);
    let mut seed = 42u64;
    let input = randf(&mut seed, batch * params.in_channels * in_h * in_w);
    let weight_q = randi8(&mut seed, params.weight_len());
    let weight_scales: Vec<f32> = (0..params.out_channels)
        .map(|oc| 0.01 + 0.002 * oc as f32)
        .collect();
    let bias = vec![0.0f32; 0];
    let run = |kb| {
        Scratch::collect(
            conv_len(&params, batch, in_h, in_w),
            conv2d_quantized_scratch(&params, 1, batch, in_h, in_w),
            |out, scratch| {
                conv2d_quantized_with(
                    kb,
                    &params,
                    1,
                    batch,
                    in_h,
                    in_w,
                    &input,
                    &weight_q,
                    &weight_scales,
                    &bias,
                    out,
                    scratch,
                )
            },
        )
    };
    // Activations are quantized identically by both paths and the integer
    // accumulation is exact, so the dequantized outputs match bit-for-bit.
    assert_eq!(
        run(kb),
        run(KernelBackend::Scalar),
        "quantized conv must be exact"
    );
}

#[test]
fn im2col_conv_matches_scalar_within_tolerance() {
    let Some(kb) = hw_backend() else { return };
    for (ic, oc, kernel, in_h, in_w) in [(3, 8, 3, 8, 8), (5, 7, 1, 9, 13), (4, 16, 5, 12, 10)] {
        let params = ConvParams::square(ic, oc, kernel, kernel / 2);
        let mut seed = (ic * 100 + oc * 10 + kernel) as u64;
        let input = randf(&mut seed, ic * in_h * in_w);
        let weight = randf(&mut seed, params.weight_len());
        let run = |kb| {
            Scratch::collect(
                conv_len(&params, 1, in_h, in_w),
                im2col_scratch(&params, in_h, in_w),
                |out, scratch| {
                    conv2d_im2col_with(
                        kb,
                        &params,
                        1,
                        1,
                        in_h,
                        in_w,
                        &input,
                        &weight,
                        &[],
                        out,
                        scratch,
                    )
                },
            )
        };
        assert_close(
            &run(kb),
            &run(KernelBackend::Scalar),
            1e-4,
            &format!("im2col {ic}->{oc} k{kernel}"),
        );
    }
}

#[test]
fn pointwise_strassen_and_fc_match_scalar_within_tolerance() {
    let Some(kb) = hw_backend() else { return };
    let params = ConvParams::square(17, 9, 1, 0);
    let (in_h, in_w) = (7, 5);
    let mut seed = 77u64;
    let input = randf(&mut seed, 17 * in_h * in_w);
    let weight = randf(&mut seed, params.weight_len());
    let run = |kb| {
        Scratch::collect(
            conv_len(&params, 1, in_h, in_w),
            strassen_1x1_scratch(&params, in_h, in_w),
            |out, scratch| {
                conv2d_1x1_strassen_with(
                    kb,
                    &params,
                    2,
                    1,
                    in_h,
                    in_w,
                    &input,
                    &weight,
                    &[],
                    out,
                    scratch,
                )
            },
        )
    };
    assert_close(
        &run(kb),
        &run(KernelBackend::Scalar),
        1e-4,
        "strassen 1x1 17->9",
    );

    let (batch, inf, outf) = (3, 33, 10);
    let x = randf(&mut seed, batch * inf);
    let w_t = transpose(outf, inf, &randf(&mut seed, outf * inf));
    let bias = randf(&mut seed, outf);
    let run = |kb| {
        Scratch::collect(batch * outf, ScratchLen::default(), |out, _| {
            fully_connected_with(kb, 2, batch, inf, outf, &x, &w_t, &bias, out)
        })
    };
    assert_close(
        &run(kb),
        &run(KernelBackend::Scalar),
        1e-4,
        "fully-connected 33->10",
    );
}

#[test]
fn winograd_conv_matches_scalar_within_tolerance() {
    let Some(kb) = hw_backend() else { return };
    for (ic, oc, tile, in_h, in_w) in [(4, 8, 2, 10, 10), (3, 5, 4, 13, 11), (8, 16, 4, 12, 18)] {
        let params = ConvParams::square(ic, oc, 3, 1);
        let mut seed = (ic * 1000 + oc * 100 + tile) as u64;
        let input = randf(&mut seed, ic * in_h * in_w);
        let weight = randf(&mut seed, params.weight_len());
        let prepared = prepare_winograd_weights(&params, tile, &weight);
        let run = |kb| {
            Scratch::collect(
                conv_len(&params, 1, in_h, in_w),
                winograd_scratch(&params, tile, 1, in_h, in_w),
                |out, scratch| {
                    conv2d_winograd_prepared_with(
                        kb,
                        &params,
                        &prepared,
                        1,
                        1,
                        in_h,
                        in_w,
                        &input,
                        &[],
                        out,
                        scratch,
                    )
                },
            )
        };
        // Only the per-position GEMM differs (the transforms are scalar on
        // every backend), but the output transform then mixes its rounding
        // across a tile: 1e-3 relative.
        assert_close(
            &run(kb),
            &run(KernelBackend::Scalar),
            1e-3,
            &format!("winograd F({tile}x{tile}) {ic}->{oc}"),
        );
    }
}

#[test]
fn depthwise_conv_matches_scalar_within_tolerance() {
    let Some(kb) = hw_backend() else { return };
    // stride 1 exercises the vectorized row-axpy path; a column stride or
    // dilation > 1 leaves no contiguous span and runs the scalar kernel.
    let cases = [
        (ConvParams::square(8, 8, 3, 1).depthwise(), 11, 9),
        (
            ConvParams::square(5, 5, 3, 0).depthwise().with_stride(2),
            12,
            14,
        ),
        (
            ConvParams::square(4, 4, 3, 2).depthwise().with_dilation(2),
            10,
            10,
        ),
    ];
    for (idx, (params, in_h, in_w)) in cases.into_iter().enumerate() {
        let mut seed = 1000 + idx as u64;
        let input = randf(&mut seed, params.in_channels * in_h * in_w);
        let weight = randf(&mut seed, params.weight_len());
        let run = |kb| {
            let len = conv_len(&params, 1, in_h, in_w);
            Scratch::collect(len, ScratchLen::default(), |out, _| {
                conv2d_depthwise_with(kb, &params, 2, 1, in_h, in_w, &input, &weight, &[], out)
            })
        };
        // 9 taps per output: a short reduction, so the bound is tight.
        assert_close(
            &run(kb),
            &run(KernelBackend::Scalar),
            1e-5,
            &format!("depthwise case {idx}"),
        );
    }
}
