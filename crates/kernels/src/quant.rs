//! Symmetric int8 quantization and quantized compute kernels.
//!
//! The offline converter (paper Fig. 2, "model compressor") quantizes weights to
//! int8 with **per-output-channel** symmetric scales; these kernels provide the
//! quantize/dequantize transforms and the int8 GEMM / convolution /
//! fully-connected paths that the session executor dispatches for quantized
//! graphs. All integer paths accumulate in `i32` and rescale back to `f32`.
//!
//! Activations are quantized on the fly, **per sample** (and per group for a
//! grouped convolution): each batch item's scale is derived from that item's data
//! alone, so a micro-batched inference is bit-identical to running the samples
//! one by one — the property `mnn-serve`'s dynamic batcher relies on.

use crate::conv::ConvParams;
use crate::parallel::parallel_chunks_mut_scratch;
use crate::scratch::{Scratch, ScratchLen};
use crate::simd::{i8_axpy2_i32, i8_axpy_i32, KernelBackend};

/// Quantization parameters for a symmetric int8 scheme: `real = scale * quantized`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Scale factor mapping int8 values back to reals.
    pub scale: f32,
}

impl QuantParams {
    /// Derive the symmetric scale covering `[-max_abs, max_abs]` over the int8 range.
    ///
    /// A zero `max_abs` (all-zero tensor) yields scale 1.0 so dequantization is a
    /// no-op.
    pub fn from_max_abs(max_abs: f32) -> Self {
        let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
        QuantParams { scale }
    }

    /// Derive quantization parameters from the data itself.
    pub fn from_data(data: &[f32]) -> Self {
        let max_abs = data.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        Self::from_max_abs(max_abs)
    }
}

/// Quantize one value with the given scale: the single rounding/clamping recipe
/// every int8 path in this module shares — batched-vs-unbatched bit-identity
/// depends on all call sites agreeing on it.
#[inline]
fn quantize_value(v: f32, scale: f32) -> i8 {
    (v / scale).round().clamp(-127.0, 127.0) as i8
}

/// Quantize an `f32` buffer to int8 with the given parameters.
pub fn quantize(data: &[f32], params: QuantParams) -> Vec<i8> {
    data.iter()
        .map(|&v| quantize_value(v, params.scale))
        .collect()
}

/// Dequantize an int8 buffer back to `f32`.
pub fn dequantize(data: &[i8], params: QuantParams) -> Vec<f32> {
    data.iter().map(|&v| v as f32 * params.scale).collect()
}

/// Worst-case absolute quantization error for the given parameters (half a step).
pub fn quantization_error_bound(params: QuantParams) -> f32 {
    params.scale * 0.5
}

/// Derive one symmetric scale per output channel.
///
/// `data` is laid out `[channels, per_channel...]` (the weight layouts used by
/// convolution, `[oc, ic/g, kh, kw]`, and fully-connected, `[out, in]`, both
/// qualify). Channels that are entirely zero get scale 1.0.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `channels`.
pub fn per_channel_scales(data: &[f32], channels: usize) -> Vec<f32> {
    assert!(channels > 0, "channel count must be positive");
    assert!(
        data.len().is_multiple_of(channels),
        "data length {} is not a multiple of {channels} channels",
        data.len()
    );
    let per = data.len() / channels;
    data.chunks_exact(per)
        .map(|chunk| QuantParams::from_data(chunk).scale)
        .collect()
}

/// Quantize a `[channels, per_channel...]` buffer with one scale per channel.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `scales.len()`.
pub fn quantize_per_channel(data: &[f32], scales: &[f32]) -> Vec<i8> {
    assert!(
        !scales.is_empty() && data.len().is_multiple_of(scales.len()),
        "data length {} does not match {} channel scales",
        data.len(),
        scales.len()
    );
    let per = data.len() / scales.len();
    let mut out = Vec::with_capacity(data.len());
    for (chunk, &scale) in data.chunks_exact(per).zip(scales) {
        out.extend(chunk.iter().map(|&v| quantize_value(v, scale)));
    }
    out
}

/// Dequantize a `[channels, per_channel...]` int8 buffer with one scale per channel.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `scales.len()`.
pub fn dequantize_per_channel(data: &[i8], scales: &[f32]) -> Vec<f32> {
    assert!(
        !scales.is_empty() && data.len().is_multiple_of(scales.len()),
        "data length {} does not match {} channel scales",
        data.len(),
        scales.len()
    );
    let per = data.len() / scales.len();
    let mut out = Vec::with_capacity(data.len());
    for (chunk, &scale) in data.chunks_exact(per).zip(scales) {
        out.extend(chunk.iter().map(|&v| v as f32 * scale));
    }
    out
}

/// Int8 GEMM with i32 accumulation: `c_f32 = (a_i8 × b_i8) * a_scale * b_scale`.
///
/// `a` is `[m, k]`, `b` is `[k, n]`, `c` is `[m, n]` (overwritten); `scratch`
/// lends one `i32` accumulator row (`n` elements).
///
/// All backends are bit-identical: every partial product is exact in `i32`
/// and integer addition is associative, so vectorization cannot change bits.
///
/// # Panics
///
/// Panics if slice lengths do not match the dimensions.
pub fn gemm_i8_with(
    kb: KernelBackend,
    m: usize,
    k: usize,
    n: usize,
    a: &[i8],
    a_params: QuantParams,
    b: &[i8],
    b_params: QuantParams,
    c: &mut [f32],
    scratch: &mut Scratch,
) {
    assert_eq!(a.len(), m * k, "A length mismatch");
    assert_eq!(b.len(), k * n, "B length mismatch");
    assert_eq!(c.len(), m * n, "C length mismatch");
    let rescale = a_params.scale * b_params.scale;
    let acc = &mut scratch.i32[..n];
    for (i, c_row) in c.chunks_mut(n.max(1)).enumerate() {
        // accumulate in i32 per the standard int8 inference recipe
        acc.fill(0);
        accumulate_rows_i8(kb, acc, b, &a[i * k..(i + 1) * k]);
        for (out, &sum) in c_row.iter_mut().zip(&*acc) {
            *out = sum as f32 * rescale;
        }
    }
}

/// `acc += Σ_p w[p] · mat[p·len .. (p+1)·len]` with `len = acc.len()`,
/// skipping zero weights and feeding nonzero rows to the paired axpy kernel
/// two at a time (bit-identical to one-at-a-time: integer addition is exact
/// and associative).
fn accumulate_rows_i8(kb: KernelBackend, acc: &mut [i32], mat: &[i8], w: &[i8]) {
    let len = acc.len();
    let mut pending: Option<(usize, i32)> = None;
    for (p, &wp) in w.iter().enumerate() {
        if wp == 0 {
            continue;
        }
        match pending.take() {
            None => pending = Some((p, wp as i32)),
            Some((q, wq)) => i8_axpy2_i32(
                kb,
                acc,
                &mat[q * len..(q + 1) * len],
                wq,
                &mat[p * len..(p + 1) * len],
                wp as i32,
            ),
        }
    }
    if let Some((q, wq)) = pending {
        i8_axpy_i32(kb, acc, &mat[q * len..(q + 1) * len], wq);
    }
}

/// Scratch of [`conv2d_quantized_with`]: one activation scale per
/// `(sample, group)`, the quantized input plus one unfolded int8 patch matrix,
/// and an `i32` accumulator plane per worker.
pub fn conv2d_quantized_scratch(
    params: &ConvParams,
    threads: usize,
    batch: usize,
    in_h: usize,
    in_w: usize,
) -> ScratchLen {
    let groups = params.groups.max(1);
    let (out_h, out_w) = params.output_size(in_h, in_w);
    let out_plane = out_h * out_w;
    let k_dim = params.in_channels / groups * params.kernel_h * params.kernel_w;
    ScratchLen {
        f32: batch * groups,
        i8: batch * params.in_channels * in_h * in_w + k_dim * out_plane,
        i32: threads.max(1) * out_plane,
    }
}

/// Quantized 2-D convolution with per-output-channel weight scales and full
/// `groups` support (depthwise and grouped convolutions included), written
/// into `output` (`[batch, oc, out_h, out_w]`, overwritten).
///
/// Weights are int8 in the `[oc, ic/g, kh, kw]` layout with one scale per output
/// channel; activations are quantized on the fly with one symmetric scale per
/// `(sample, group)` — derived from that sample's data alone, so batched runs
/// stay bit-identical to per-sample runs. Accumulation is exact in `i32`, so
/// the result is bit-identical on every `kb`; the output is rescaled to `f32`
/// and the (f32) bias added.
///
/// Layout conventions match [`crate::conv::conv2d_reference`].
///
/// # Panics
///
/// Panics if buffer lengths do not match the parameters, `weight_scales.len() !=
/// out_channels`, channel counts are not divisible by `groups`, or `scratch` is
/// smaller than [`conv2d_quantized_scratch`].
pub fn conv2d_quantized_with(
    kb: KernelBackend,
    params: &ConvParams,
    threads: usize,
    batch: usize,
    in_h: usize,
    in_w: usize,
    input: &[f32],
    weight_q: &[i8],
    weight_scales: &[f32],
    bias: &[f32],
    output: &mut [f32],
    scratch: &mut Scratch,
) {
    let groups = params.groups.max(1);
    assert!(
        params.in_channels.is_multiple_of(groups) && params.out_channels.is_multiple_of(groups),
        "channel counts ({}, {}) must divide by groups {groups}",
        params.in_channels,
        params.out_channels
    );
    assert_eq!(
        input.len(),
        batch * params.in_channels * in_h * in_w,
        "input length mismatch"
    );
    assert_eq!(
        weight_q.len(),
        params.weight_len(),
        "weight length mismatch"
    );
    assert_eq!(
        weight_scales.len(),
        params.out_channels,
        "one weight scale per output channel required"
    );
    if params.has_bias {
        assert_eq!(bias.len(), params.out_channels, "bias length mismatch");
    }
    let icg = params.in_channels / groups;
    let ocg = params.out_channels / groups;
    let group_block = icg * in_h * in_w;
    let (out_h, out_w) = params.output_size(in_h, in_w);
    let (pad_h, pad_w) = params.resolve_padding(in_h, in_w);
    let out_plane = out_h * out_w;
    let k_dim = icg * params.kernel_h * params.kernel_w;
    assert_eq!(
        output.len(),
        batch * params.out_channels * out_plane,
        "output length mismatch"
    );
    let input_scales = &mut scratch.f32[..batch * groups];
    let (input_q, col) = scratch.i8[..input.len() + k_dim * out_plane].split_at_mut(input.len());
    let accumulators = &mut scratch.i32[..];

    // Quantize activations once, per (sample, group): each scale is a function of
    // that sample's group slice only (batch-invariance for micro-batching).
    for b in 0..batch {
        for g in 0..groups {
            let start = (b * groups + g) * group_block;
            let slice = &input[start..start + group_block];
            let p = QuantParams::from_data(slice);
            input_scales[b * groups + g] = p.scale;
            for (dst, &v) in input_q[start..start + group_block].iter_mut().zip(slice) {
                *dst = quantize_value(v, p.scale);
            }
        }
    }

    // im2col + integer GEMM, one (sample, group) at a time: the unfolded int8
    // patch matrix `col` is `[k_dim, out_plane]`, and every output channel of
    // the group is a `[k_dim]` weight row dotted against it with contiguous
    // inner loops and exact i32 accumulation. The accumulation order does not
    // affect the result (integer adds are associative), so thread count and
    // batching never change output bits.
    for b in 0..batch {
        for g in 0..groups {
            col.fill(0);
            for ic in 0..icg {
                let in_c = g * icg + ic;
                let in_plane =
                    &input_q[(b * params.in_channels + in_c) * in_h * in_w..][..in_h * in_w];
                for ky in 0..params.kernel_h {
                    for kx in 0..params.kernel_w {
                        let p = (ic * params.kernel_h + ky) * params.kernel_w + kx;
                        let col_row = &mut col[p * out_plane..(p + 1) * out_plane];
                        for oy in 0..out_h {
                            let iy = (oy * params.stride_h + ky * params.dilation_h) as isize
                                - pad_h as isize;
                            if iy < 0 || iy >= in_h as isize {
                                continue;
                            }
                            let in_row = &in_plane[iy as usize * in_w..][..in_w];
                            let out_row = &mut col_row[oy * out_w..][..out_w];
                            for (ox, slot) in out_row.iter_mut().enumerate() {
                                let ix = (ox * params.stride_w + kx * params.dilation_w) as isize
                                    - pad_w as isize;
                                if ix < 0 || ix >= in_w as isize {
                                    continue;
                                }
                                *slot = in_row[ix as usize];
                            }
                        }
                    }
                }
            }
            let group_out_start = (b * params.out_channels + g * ocg) * out_plane;
            let group_out = &mut output[group_out_start..group_out_start + ocg * out_plane];
            let (col, input_scale) = (&*col, input_scales[b * groups + g]);
            parallel_chunks_mut_scratch(
                threads,
                group_out,
                out_plane,
                accumulators,
                out_plane,
                |first_oc, planes, acc| {
                    for (o, plane) in planes.chunks_mut(out_plane).enumerate() {
                        let oc = g * ocg + first_oc + o;
                        acc.fill(0);
                        let w_row = &weight_q[oc * k_dim..(oc + 1) * k_dim];
                        accumulate_rows_i8(kb, acc, col, w_row);
                        let rescale = input_scale * weight_scales[oc];
                        let bias_v = if params.has_bias { bias[oc] } else { 0.0 };
                        for (slot, &a) in plane.iter_mut().zip(&*acc) {
                            *slot = a as f32 * rescale + bias_v;
                        }
                    }
                },
            );
        }
    }
}

/// Scratch of [`fully_connected_quantized`]: one quantized input row per worker.
pub fn fully_connected_quantized_scratch(threads: usize, in_features: usize) -> ScratchLen {
    ScratchLen {
        i8: threads.max(1) * in_features,
        ..ScratchLen::default()
    }
}

/// Quantized fully-connected layer: `y = x · Wᵀ + b` with int8 weights, written
/// into `output` (`[batch, out_features]`, overwritten).
///
/// `weight_q` is `[out_features, in_features]` with one scale per output feature;
/// each input row (sample) is quantized with its own symmetric scale, keeping
/// batched runs bit-identical to per-sample runs. Accumulation is in `i32`.
///
/// # Panics
///
/// Panics if slice lengths are inconsistent or `scratch` is smaller than
/// [`fully_connected_quantized_scratch`].
pub fn fully_connected_quantized(
    threads: usize,
    batch: usize,
    in_features: usize,
    out_features: usize,
    input: &[f32],
    weight_q: &[i8],
    weight_scales: &[f32],
    bias: &[f32],
    output: &mut [f32],
    scratch: &mut Scratch,
) {
    assert_eq!(input.len(), batch * in_features, "input length mismatch");
    assert_eq!(
        weight_q.len(),
        out_features * in_features,
        "weight length mismatch"
    );
    assert_eq!(
        weight_scales.len(),
        out_features,
        "one weight scale per output feature required"
    );
    if !bias.is_empty() {
        assert_eq!(bias.len(), out_features, "bias length mismatch");
    }
    assert_eq!(output.len(), batch * out_features, "output length mismatch");
    parallel_chunks_mut_scratch(
        threads,
        output,
        out_features,
        &mut scratch.i8,
        in_features,
        |first_row, rows, row_q| {
            for (r, row_out) in rows.chunks_mut(out_features).enumerate() {
                let b = first_row + r;
                let row = &input[b * in_features..(b + 1) * in_features];
                let p = QuantParams::from_data(row);
                for (q, &v) in row_q.iter_mut().zip(row) {
                    *q = quantize_value(v, p.scale);
                }
                for (o, out) in row_out.iter_mut().enumerate() {
                    let w_row = &weight_q[o * in_features..(o + 1) * in_features];
                    let mut acc: i32 = 0;
                    for (&x, &w) in row_q.iter().zip(w_row) {
                        acc += x as i32 * w as i32;
                    }
                    *out = acc as f32 * (p.scale * weight_scales[o]);
                    if !bias.is_empty() {
                        *out += bias[o];
                    }
                }
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::conv2d_reference;
    use crate::gemm::gemm_naive;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    // The write-into kernels on the scalar backend, through `Scratch::collect`.
    fn gemm_i8(
        m: usize,
        k: usize,
        n: usize,
        a: &[i8],
        ap: QuantParams,
        b: &[i8],
        bp: QuantParams,
    ) -> Vec<f32> {
        let need = ScratchLen {
            i32: n,
            ..ScratchLen::default()
        };
        Scratch::collect(m * n, need, |c, scratch| {
            gemm_i8_with(KernelBackend::Scalar, m, k, n, a, ap, b, bp, c, scratch)
        })
    }

    fn conv2d_quantized(
        p: &ConvParams,
        threads: usize,
        batch: usize,
        in_h: usize,
        in_w: usize,
        input: &[f32],
        wq: &[i8],
        scales: &[f32],
        bias: &[f32],
    ) -> Vec<f32> {
        let (out_h, out_w) = p.output_size(in_h, in_w);
        Scratch::collect(
            batch * p.out_channels * out_h * out_w,
            conv2d_quantized_scratch(p, threads, batch, in_h, in_w),
            |out, scratch| {
                let kb = KernelBackend::Scalar;
                conv2d_quantized_with(
                    kb, p, threads, batch, in_h, in_w, input, wq, scales, bias, out, scratch,
                )
            },
        )
    }

    fn fc_quantized(
        threads: usize,
        batch: usize,
        inf: usize,
        outf: usize,
        input: &[f32],
        wq: &[i8],
        scales: &[f32],
        bias: &[f32],
    ) -> Vec<f32> {
        Scratch::collect(
            batch * outf,
            fully_connected_quantized_scratch(threads, inf),
            |out, scratch| {
                fully_connected_quantized(
                    threads, batch, inf, outf, input, wq, scales, bias, out, scratch,
                )
            },
        )
    }

    #[test]
    fn quantize_dequantize_roundtrip_error_is_bounded() {
        let data = vec![-1.0, -0.5, 0.0, 0.25, 0.9, 1.0];
        let params = QuantParams::from_data(&data);
        let q = quantize(&data, params);
        let back = dequantize(&q, params);
        let bound = quantization_error_bound(params);
        for (a, b) in data.iter().zip(&back) {
            assert!((a - b).abs() <= bound + 1e-6);
        }
    }

    #[test]
    fn zero_tensor_quantizes_to_zero() {
        let data = vec![0.0; 8];
        let params = QuantParams::from_data(&data);
        assert_eq!(params.scale, 1.0);
        assert!(quantize(&data, params).iter().all(|&v| v == 0));
    }

    #[test]
    fn extreme_values_map_to_127() {
        let data = vec![-2.0, 2.0];
        let params = QuantParams::from_data(&data);
        let q = quantize(&data, params);
        assert_eq!(q, vec![-127, 127]);
    }

    #[test]
    fn per_channel_scales_follow_each_channel_magnitude() {
        // Two channels with very different ranges: per-channel scales keep the
        // small channel precise where one per-tensor scale would crush it.
        let data = vec![100.0, -50.0, 0.5, -0.25];
        let scales = per_channel_scales(&data, 2);
        assert!((scales[0] - 100.0 / 127.0).abs() < 1e-6);
        assert!((scales[1] - 0.5 / 127.0).abs() < 1e-6);
        let q = quantize_per_channel(&data, &scales);
        let back = dequantize_per_channel(&q, &scales);
        for (a, b) in data.iter().zip(&back) {
            assert!((a - b).abs() <= 100.0 / 254.0 + 1e-6);
        }
        // The small channel round-trips with its own (tiny) half-step bound.
        assert!((data[2] - back[2]).abs() <= 0.5 / 254.0 + 1e-7);
        assert!((data[3] - back[3]).abs() <= 0.5 / 254.0 + 1e-7);
    }

    #[test]
    fn all_zero_channel_gets_identity_scale() {
        let data = vec![0.0, 0.0, 3.0, -1.0];
        let scales = per_channel_scales(&data, 2);
        assert_eq!(scales[0], 1.0);
        let q = quantize_per_channel(&data, &scales);
        assert_eq!(&q[..2], &[0, 0]);
    }

    #[test]
    fn int8_gemm_approximates_float_gemm() {
        let mut rng = StdRng::seed_from_u64(1);
        let (m, k, n) = (4usize, 8usize, 5usize);
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let ap = QuantParams::from_data(&a);
        let bp = QuantParams::from_data(&b);
        let aq = quantize(&a, ap);
        let bq = quantize(&b, bp);
        let got = gemm_i8(m, k, n, &aq, ap, &bq, bp);
        let mut expected = vec![0.0f32; m * n];
        gemm_naive(m, k, n, &a, &b, &mut expected);
        // error grows with k; the bound below is loose but catches systematic bugs
        for (g, e) in got.iter().zip(&expected) {
            assert!((g - e).abs() < 0.1, "{g} vs {e}");
        }
    }

    #[test]
    fn quantized_conv_tracks_float_conv() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut p = ConvParams::square(3, 4, 3, 1);
        p.has_bias = true;
        let size = 8;
        let input: Vec<f32> = (0..3 * size * size)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let weight: Vec<f32> = (0..p.weight_len())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let bias: Vec<f32> = (0..4).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let expected = conv2d_reference(&p, 1, size, size, &input, &weight, &bias);
        let scales = per_channel_scales(&weight, p.out_channels);
        let wq = quantize_per_channel(&weight, &scales);
        let got = conv2d_quantized(&p, 1, 1, size, size, &input, &wq, &scales, &bias);
        let mean_abs_err: f32 = got
            .iter()
            .zip(&expected)
            .map(|(a, b)| (a - b).abs())
            .sum::<f32>()
            / got.len() as f32;
        assert!(mean_abs_err < 0.05, "mean abs error {mean_abs_err}");
    }

    #[test]
    fn quantized_depthwise_conv_tracks_float_conv() {
        // Regression: `conv2d_quantized` used to panic on `groups != 1`.
        let mut rng = StdRng::seed_from_u64(3);
        let p = ConvParams::square(6, 6, 3, 1).depthwise();
        let size = 7;
        let input: Vec<f32> = (0..6 * size * size)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let weight: Vec<f32> = (0..p.weight_len())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let expected = conv2d_reference(&p, 1, size, size, &input, &weight, &[]);
        let scales = per_channel_scales(&weight, p.out_channels);
        let wq = quantize_per_channel(&weight, &scales);
        let got = conv2d_quantized(&p, 2, 1, size, size, &input, &wq, &scales, &[]);
        let max_err = got
            .iter()
            .zip(&expected)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_err < 0.05, "max abs error {max_err}");
    }

    #[test]
    fn quantized_grouped_conv_tracks_float_conv() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut p = ConvParams::square(8, 4, 3, 1);
        p.groups = 2;
        let size = 6;
        let input: Vec<f32> = (0..8 * size * size)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let weight: Vec<f32> = (0..p.weight_len())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let expected = conv2d_reference(&p, 1, size, size, &input, &weight, &[]);
        let scales = per_channel_scales(&weight, p.out_channels);
        let wq = quantize_per_channel(&weight, &scales);
        let got = conv2d_quantized(&p, 1, 1, size, size, &input, &wq, &scales, &[]);
        let max_err = got
            .iter()
            .zip(&expected)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_err < 0.05, "max abs error {max_err}");
    }

    #[test]
    fn quantized_conv_is_batch_invariant() {
        // Per-(sample, group) activation scales: running two different samples as
        // one batch must reproduce the per-sample outputs bit for bit.
        let mut rng = StdRng::seed_from_u64(5);
        let p = ConvParams::square(3, 4, 3, 1);
        let size = 6;
        let a: Vec<f32> = (0..3 * size * size)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let b: Vec<f32> = (0..3 * size * size)
            .map(|_| rng.gen_range(-10.0..10.0)) // very different dynamic range
            .collect();
        let weight: Vec<f32> = (0..p.weight_len())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let scales = per_channel_scales(&weight, p.out_channels);
        let wq = quantize_per_channel(&weight, &scales);
        let out_a = conv2d_quantized(&p, 1, 1, size, size, &a, &wq, &scales, &[]);
        let out_b = conv2d_quantized(&p, 1, 1, size, size, &b, &wq, &scales, &[]);
        let mut batched_in = a.clone();
        batched_in.extend_from_slice(&b);
        let batched = conv2d_quantized(&p, 2, 2, size, size, &batched_in, &wq, &scales, &[]);
        assert_eq!(&batched[..out_a.len()], &out_a[..]);
        assert_eq!(&batched[out_a.len()..], &out_b[..]);
    }

    #[test]
    fn quantized_fc_tracks_float_fc_and_is_batch_invariant() {
        let mut rng = StdRng::seed_from_u64(6);
        let (inf, outf) = (16usize, 5usize);
        let x0: Vec<f32> = (0..inf).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let x1: Vec<f32> = (0..inf).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let weight: Vec<f32> = (0..outf * inf).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let bias: Vec<f32> = (0..outf).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let scales = per_channel_scales(&weight, outf);
        let wq = quantize_per_channel(&weight, &scales);

        let got0 = fc_quantized(1, 1, inf, outf, &x0, &wq, &scales, &bias);
        let expected0 = weight
            .chunks(inf)
            .zip(&bias)
            .map(|(row, b)| row.iter().zip(&x0).map(|(w, x)| w * x).sum::<f32>() + b);
        for (g, e) in got0.iter().zip(expected0) {
            assert!((g - e).abs() < 0.05, "{g} vs {e}");
        }

        let got1 = fc_quantized(1, 1, inf, outf, &x1, &wq, &scales, &bias);
        let mut batched_in = x0.clone();
        batched_in.extend_from_slice(&x1);
        let batched = fc_quantized(2, 2, inf, outf, &batched_in, &wq, &scales, &bias);
        assert_eq!(&batched[..outf], &got0[..]);
        assert_eq!(&batched[outf..], &got1[..]);
    }

    #[test]
    fn quantized_conv_thread_count_does_not_change_bits() {
        let mut rng = StdRng::seed_from_u64(7);
        let p = ConvParams::square(4, 8, 3, 1);
        let size = 9;
        let input: Vec<f32> = (0..4 * size * size)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let weight: Vec<f32> = (0..p.weight_len())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let scales = per_channel_scales(&weight, p.out_channels);
        let wq = quantize_per_channel(&weight, &scales);
        let one = conv2d_quantized(&p, 1, 1, size, size, &input, &wq, &scales, &[]);
        let four = conv2d_quantized(&p, 4, 1, size, size, &input, &wq, &scales, &[]);
        assert_eq!(one, four);
    }

    proptest! {
        #[test]
        fn prop_roundtrip_error_within_half_step(
            values in proptest::collection::vec(-100.0f32..100.0, 1..64)
        ) {
            let params = QuantParams::from_data(&values);
            let q = quantize(&values, params);
            let back = dequantize(&q, params);
            let bound = quantization_error_bound(params) + 1e-4;
            for (a, b) in values.iter().zip(&back) {
                prop_assert!((a - b).abs() <= bound);
            }
        }

        #[test]
        fn prop_roundtrip_error_within_bound_for_arbitrary_finite_inputs(
            values in proptest::collection::vec(
                prop_oneof![
                    -1e6f32..1e6,          // wide dynamic range
                    -1e-3f32..1e-3,        // tiny magnitudes
                    Just(0.0f32),          // exact zeros (guards the max_abs == 0 scale)
                ],
                1..96
            )
        ) {
            let params = QuantParams::from_data(&values);
            let q = quantize(&values, params);
            let back = dequantize(&q, params);
            // Relative slack covers the f32 rounding of (v / scale) * scale.
            let bound = quantization_error_bound(params) * (1.0 + 1e-4) + 1e-9;
            for (a, b) in values.iter().zip(&back) {
                prop_assert!(
                    (a - b).abs() <= bound,
                    "value {a} came back as {b} (scale {})", params.scale
                );
            }
        }

        #[test]
        fn prop_quantized_values_in_range(
            values in proptest::collection::vec(-1000.0f32..1000.0, 1..64)
        ) {
            let params = QuantParams::from_data(&values);
            let q = quantize(&values, params);
            prop_assert!(q.iter().all(|&v| (-127..=127).contains(&v)));
        }

        #[test]
        fn prop_gemm_i8_matches_float_gemm_within_accumulated_bound(
            m in 1usize..5, k in 1usize..24, n in 1usize..5, seed in 0u64..50
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let ap = QuantParams::from_data(&a);
            let bp = QuantParams::from_data(&b);
            let aq = quantize(&a, ap);
            let bq = quantize(&b, bp);
            let got = gemm_i8(m, k, n, &aq, ap, &bq, bp);
            let mut expected = vec![0.0f32; m * n];
            gemm_naive(m, k, n, &a, &b, &mut expected);
            // Per product: |ã·b̃ − a·b| ≤ |a|·εb + |b|·εa + εa·εb with εx = half a
            // step; summed over the k-long reduction.
            let a_max = a.iter().fold(0.0f32, |acc, v| acc.max(v.abs()));
            let b_max = b.iter().fold(0.0f32, |acc, v| acc.max(v.abs()));
            let (ea, eb) = (
                quantization_error_bound(ap),
                quantization_error_bound(bp),
            );
            let bound = k as f32 * (a_max * eb + b_max * ea + ea * eb) + 1e-5;
            for (g, e) in got.iter().zip(&expected) {
                prop_assert!((g - e).abs() <= bound, "{g} vs {e} (bound {bound})");
            }
        }
    }

    #[test]
    fn gemm_i8_all_zero_operands_are_exact() {
        // The max_abs == 0 path must yield scale 1.0 and an exactly-zero product.
        let a = vec![0.0f32; 6];
        let b = vec![0.0f32; 8];
        let ap = QuantParams::from_data(&a);
        let bp = QuantParams::from_data(&b);
        assert_eq!(ap.scale, 1.0);
        let got = gemm_i8(3, 2, 4, &quantize(&a, ap), ap, &quantize(&b, bp), bp);
        assert!(got.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn gemm_i8_single_max_value_is_exact() {
        // A lone ±max value quantizes to exactly ±127, so its products are exact
        // up to f32 rounding: single-element operands hit the extremes directly.
        let ap = QuantParams::from_data(&[3.5]);
        let bp = QuantParams::from_data(&[-2.0]);
        assert_eq!(quantize(&[3.5], ap), vec![127]);
        assert_eq!(quantize(&[-2.0], bp), vec![-127]);
        let got = gemm_i8(1, 1, 1, &[127], ap, &[-127], bp);
        assert!((got[0] - (3.5 * -2.0)).abs() < 1e-5);
        // A max value embedded among zeros keeps its exact representation too.
        let a = vec![0.0f32, 0.0, 3.5, 0.0];
        let b = vec![-2.0f32, 0.0, 1.0, 2.0];
        let ap = QuantParams::from_data(&a);
        let bp = QuantParams::from_data(&b);
        let got = gemm_i8(1, 4, 1, &quantize(&a, ap), ap, &quantize(&b, bp), bp);
        // Only a[2]·b[2] contributes; b[2] = 1.0 quantizes to round(63.5) = 64.
        let b2_dequant = 64.0 * bp.scale;
        assert!((got[0] - 3.5 * b2_dequant).abs() < 1e-5);
    }
}
