//! Convolution kernels: reference, sliding-window, im2col and 1×1-as-GEMM paths.
//!
//! These are the algorithms that populate MNN's *convolution scheme pool*
//! (paper Section 3.2, Eq. 3): the pre-inference stage picks, per layer, between the
//! sliding-window kernel, a Winograd variant (see [`crate::winograd`]) and the
//! Strassen-backed 1×1 path, based on the arithmetic cost model.
//!
//! All kernels consume NCHW `f32` buffers and overwrite a caller-provided
//! `[batch, oc, out_h, out_w]` `output`; temporaries come from a [`Scratch`] sized
//! by the `*_scratch` function beside the kernel. Only the reference allocates.

use crate::gemm::gemm_mt_with;
use crate::scratch::{Scratch, ScratchLen};
use crate::simd::{axpy_f32, KernelBackend};
use crate::strassen::{strassen_scratch, strassen_with};

/// Padding policy for convolution/pooling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PadMode {
    /// Explicit symmetric padding given by `pad_h` / `pad_w`.
    #[default]
    Explicit,
    /// TensorFlow-style `SAME` padding: output spatial size = ceil(input / stride).
    Same,
    /// No padding (`VALID`).
    Valid,
}

/// Hyper-parameters of a 2-D convolution.
///
/// The tuple quoted in the paper's Table 1, `(k, ic, oc, size)`, maps to
/// `kernel_h = kernel_w = k`, `in_channels = ic`, `out_channels = oc` and a square
/// spatial input of side `size`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConvParams {
    /// Number of input channels.
    pub in_channels: usize,
    /// Number of output channels.
    pub out_channels: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Vertical stride.
    pub stride_h: usize,
    /// Horizontal stride.
    pub stride_w: usize,
    /// Vertical zero padding (each side) when `pad_mode == Explicit`.
    pub pad_h: usize,
    /// Horizontal zero padding (each side) when `pad_mode == Explicit`.
    pub pad_w: usize,
    /// Vertical dilation.
    pub dilation_h: usize,
    /// Horizontal dilation.
    pub dilation_w: usize,
    /// Number of groups (`in_channels` for a depthwise convolution).
    pub groups: usize,
    /// Padding policy.
    pub pad_mode: PadMode,
    /// Whether a bias vector of length `out_channels` is added.
    pub has_bias: bool,
}

impl Default for ConvParams {
    fn default() -> Self {
        ConvParams {
            in_channels: 1,
            out_channels: 1,
            kernel_h: 3,
            kernel_w: 3,
            stride_h: 1,
            stride_w: 1,
            pad_h: 0,
            pad_w: 0,
            dilation_h: 1,
            dilation_w: 1,
            groups: 1,
            pad_mode: PadMode::Explicit,
            has_bias: false,
        }
    }
}

impl ConvParams {
    /// Convenience constructor for a square-kernel convolution with explicit padding,
    /// stride 1 and dilation 1 (the common case in the paper's experiments).
    pub fn square(in_channels: usize, out_channels: usize, kernel: usize, pad: usize) -> Self {
        ConvParams {
            in_channels,
            out_channels,
            kernel_h: kernel,
            kernel_w: kernel,
            pad_h: pad,
            pad_w: pad,
            ..ConvParams::default()
        }
    }

    /// Set the stride on both axes (builder style).
    pub fn with_stride(mut self, stride: usize) -> Self {
        self.stride_h = stride;
        self.stride_w = stride;
        self
    }

    /// Set the dilation on both axes (builder style).
    pub fn with_dilation(mut self, dilation: usize) -> Self {
        self.dilation_h = dilation;
        self.dilation_w = dilation;
        self
    }

    /// Mark this convolution as depthwise (`groups == in_channels == out_channels`).
    pub fn depthwise(mut self) -> Self {
        self.groups = self.in_channels;
        self
    }

    /// Effective kernel extent along the height axis, accounting for dilation.
    pub fn effective_kernel_h(&self) -> usize {
        (self.kernel_h - 1) * self.dilation_h + 1
    }

    /// Effective kernel extent along the width axis, accounting for dilation.
    pub fn effective_kernel_w(&self) -> usize {
        (self.kernel_w - 1) * self.dilation_w + 1
    }

    /// Resolved padding `(pad_h, pad_w)` for an input of the given spatial size.
    pub fn resolve_padding(&self, in_h: usize, in_w: usize) -> (usize, usize) {
        match self.pad_mode {
            PadMode::Explicit => (self.pad_h, self.pad_w),
            PadMode::Valid => (0, 0),
            PadMode::Same => {
                let out_h = in_h.div_ceil(self.stride_h);
                let out_w = in_w.div_ceil(self.stride_w);
                let needed_h =
                    ((out_h - 1) * self.stride_h + self.effective_kernel_h()).saturating_sub(in_h);
                let needed_w =
                    ((out_w - 1) * self.stride_w + self.effective_kernel_w()).saturating_sub(in_w);
                (needed_h / 2, needed_w / 2)
            }
        }
    }

    /// Output spatial size `(out_h, out_w)` for an input of size `(in_h, in_w)`.
    pub fn output_size(&self, in_h: usize, in_w: usize) -> (usize, usize) {
        if self.pad_mode == PadMode::Same {
            return (in_h.div_ceil(self.stride_h), in_w.div_ceil(self.stride_w));
        }
        let (pad_h, pad_w) = self.resolve_padding(in_h, in_w);
        let out_h =
            (in_h + 2 * pad_h).saturating_sub(self.effective_kernel_h()) / self.stride_h + 1;
        let out_w =
            (in_w + 2 * pad_w).saturating_sub(self.effective_kernel_w()) / self.stride_w + 1;
        (out_h, out_w)
    }

    /// Number of scalar multiplications a direct convolution performs for an input
    /// of size `(in_h, in_w)`. This is the `MUL` term of the paper's cost model
    /// (Eq. 5).
    pub fn mul_count(&self, in_h: usize, in_w: usize) -> usize {
        let (out_h, out_w) = self.output_size(in_h, in_w);
        let ic_per_group = self.in_channels / self.groups;
        out_h * out_w * self.out_channels * ic_per_group * self.kernel_h * self.kernel_w
    }

    /// Whether this is a 1×1, stride-1, undilated convolution — the case MNN lowers
    /// to a large matrix multiplication accelerated by Strassen.
    pub fn is_pointwise(&self) -> bool {
        self.kernel_h == 1
            && self.kernel_w == 1
            && self.stride_h == 1
            && self.stride_w == 1
            && self.dilation_h == 1
            && self.dilation_w == 1
            && self.groups == 1
    }

    /// Whether this is a depthwise convolution.
    pub fn is_depthwise(&self) -> bool {
        self.groups > 1 && self.groups == self.in_channels && self.groups == self.out_channels
    }

    /// Whether the Winograd family `F(n×n, k×k)` applies to this convolution:
    /// square kernel of size ≥ 2, unit stride and dilation, no grouping.
    ///
    /// This is the applicability rule shared by the cost model, the backend's
    /// default scheme choice and the auto-tuner's candidate enumeration.
    pub fn winograd_applicable(&self) -> bool {
        self.kernel_h == self.kernel_w
            && self.stride_h == 1
            && self.stride_w == 1
            && self.dilation_h == 1
            && self.dilation_w == 1
            && self.groups == 1
            && self.kernel_h >= 2
    }

    /// Whether the im2col + GEMM lowering applies (any ungrouped convolution).
    pub fn im2col_applicable(&self) -> bool {
        self.groups == 1
    }

    /// Length of the weight buffer: `oc * ic/groups * kh * kw`.
    pub fn weight_len(&self) -> usize {
        self.out_channels * (self.in_channels / self.groups) * self.kernel_h * self.kernel_w
    }
}

/// Reference convolution: direct 7-deep loop over NCHW buffers. Slow but obviously
/// correct; every other convolution kernel is tested against it.
///
/// `input` is `[batch, ic, in_h, in_w]`, `weight` is `[oc, ic/groups, kh, kw]`,
/// `bias` is `[oc]` or empty, and the returned buffer is `[batch, oc, out_h, out_w]`.
///
/// # Panics
///
/// Panics if buffer lengths do not match the parameters.
pub fn conv2d_reference(
    params: &ConvParams,
    batch: usize,
    in_h: usize,
    in_w: usize,
    input: &[f32],
    weight: &[f32],
    bias: &[f32],
) -> Vec<f32> {
    let (out_h, out_w) = params.output_size(in_h, in_w);
    let mut output = vec![0.0f32; batch * params.out_channels * out_h * out_w];
    validate(params, batch, in_h, in_w, input, weight, bias, &output);
    let (pad_h, pad_w) = params.resolve_padding(in_h, in_w);
    let ic_per_group = params.in_channels / params.groups;
    let oc_per_group = params.out_channels / params.groups;

    for b in 0..batch {
        for oc in 0..params.out_channels {
            let group = oc / oc_per_group;
            let bias_v = if params.has_bias { bias[oc] } else { 0.0 };
            for oy in 0..out_h {
                for ox in 0..out_w {
                    let mut acc = bias_v;
                    for ic in 0..ic_per_group {
                        let in_c = group * ic_per_group + ic;
                        for ky in 0..params.kernel_h {
                            let iy = (oy * params.stride_h + ky * params.dilation_h) as isize
                                - pad_h as isize;
                            if iy < 0 || iy >= in_h as isize {
                                continue;
                            }
                            for kx in 0..params.kernel_w {
                                let ix = (ox * params.stride_w + kx * params.dilation_w) as isize
                                    - pad_w as isize;
                                if ix < 0 || ix >= in_w as isize {
                                    continue;
                                }
                                let in_idx = ((b * params.in_channels + in_c) * in_h + iy as usize)
                                    * in_w
                                    + ix as usize;
                                let w_idx = ((oc * ic_per_group + ic) * params.kernel_h + ky)
                                    * params.kernel_w
                                    + kx;
                                acc += input[in_idx] * weight[w_idx];
                            }
                        }
                    }
                    let out_idx = ((b * params.out_channels + oc) * out_h + oy) * out_w + ox;
                    output[out_idx] = acc;
                }
            }
        }
    }
    output
}

/// Sliding-window convolution: the "case-by-case" style direct kernel with the
/// spatial loops innermost and the multiply-accumulate over a contiguous input row,
/// multi-threaded over output channels.
///
/// This is the `Sliding` scheme of the paper's Table 1.
///
/// # Panics
///
/// Panics if buffer lengths do not match the parameters.
pub fn conv2d_sliding_window(
    params: &ConvParams,
    threads: usize,
    batch: usize,
    in_h: usize,
    in_w: usize,
    input: &[f32],
    weight: &[f32],
    bias: &[f32],
    output: &mut [f32],
) {
    validate(params, batch, in_h, in_w, input, weight, bias, output);
    let (out_h, out_w) = params.output_size(in_h, in_w);
    let (pad_h, pad_w) = params.resolve_padding(in_h, in_w);
    let ic_per_group = params.in_channels / params.groups;
    let oc_per_group = params.out_channels / params.groups;
    let out_plane = out_h * out_w;

    crate::parallel::parallel_chunks_mut(threads, output, out_plane, |plane_index, planes| {
        for (p, plane) in planes.chunks_mut(out_plane).enumerate() {
            let global = plane_index + p;
            let b = global / params.out_channels;
            let oc = global % params.out_channels;
            let group = oc / oc_per_group;
            let bias_v = if params.has_bias { bias[oc] } else { 0.0 };
            plane.fill(bias_v);
            for ic in 0..ic_per_group {
                let in_c = group * ic_per_group + ic;
                let in_plane =
                    &input[((b * params.in_channels + in_c) * in_h * in_w)..][..in_h * in_w];
                let w_base = (oc * ic_per_group + ic) * params.kernel_h * params.kernel_w;
                for ky in 0..params.kernel_h {
                    for kx in 0..params.kernel_w {
                        let wv = weight[w_base + ky * params.kernel_w + kx];
                        if wv == 0.0 {
                            continue;
                        }
                        for oy in 0..out_h {
                            let iy = (oy * params.stride_h + ky * params.dilation_h) as isize
                                - pad_h as isize;
                            if iy < 0 || iy >= in_h as isize {
                                continue;
                            }
                            let in_row = &in_plane[iy as usize * in_w..][..in_w];
                            let out_row = &mut plane[oy * out_w..][..out_w];
                            for ox in 0..out_w {
                                let ix = (ox * params.stride_w + kx * params.dilation_w) as isize
                                    - pad_w as isize;
                                if ix < 0 || ix >= in_w as isize {
                                    continue;
                                }
                                out_row[ox] += wv * in_row[ix as usize];
                            }
                        }
                    }
                }
            }
        }
    });
}

/// Scratch of [`conv2d_im2col_with`]: the unfolded `[ic*kh*kw, out_h*out_w]`
/// patch matrix of one sample.
pub fn im2col_scratch(params: &ConvParams, in_h: usize, in_w: usize) -> ScratchLen {
    let (out_h, out_w) = params.output_size(in_h, in_w);
    ScratchLen::f32(params.in_channels * params.kernel_h * params.kernel_w * out_h * out_w)
}

/// im2col + GEMM convolution: unfolds input patches into a matrix and computes the
/// convolution as `[oc, ic*kh*kw] × [ic*kh*kw, out_h*out_w]`.
///
/// The unfold stage is identical across backends; only the product dispatches
/// to `kb`'s micro-kernels.
///
/// # Panics
///
/// Panics if buffer lengths do not match the parameters, if `groups != 1`
/// (grouped convolutions take the sliding-window or depthwise path), or if
/// `scratch` is smaller than [`im2col_scratch`].
pub fn conv2d_im2col_with(
    kb: KernelBackend,
    params: &ConvParams,
    threads: usize,
    batch: usize,
    in_h: usize,
    in_w: usize,
    input: &[f32],
    weight: &[f32],
    bias: &[f32],
    output: &mut [f32],
    scratch: &mut Scratch,
) {
    assert_eq!(params.groups, 1, "im2col path requires groups == 1");
    validate(params, batch, in_h, in_w, input, weight, bias, output);
    let (out_h, out_w) = params.output_size(in_h, in_w);
    let (pad_h, pad_w) = params.resolve_padding(in_h, in_w);
    let k_dim = params.in_channels * params.kernel_h * params.kernel_w;
    let n_dim = out_h * out_w;
    let col = &mut scratch.f32[..k_dim * n_dim];

    for b in 0..batch {
        // im2col
        col.fill(0.0);
        for ic in 0..params.in_channels {
            let in_plane = &input[((b * params.in_channels + ic) * in_h * in_w)..][..in_h * in_w];
            for ky in 0..params.kernel_h {
                for kx in 0..params.kernel_w {
                    let row = (ic * params.kernel_h + ky) * params.kernel_w + kx;
                    let col_row = &mut col[row * n_dim..(row + 1) * n_dim];
                    for oy in 0..out_h {
                        let iy = (oy * params.stride_h + ky * params.dilation_h) as isize
                            - pad_h as isize;
                        if iy < 0 || iy >= in_h as isize {
                            continue;
                        }
                        for ox in 0..out_w {
                            let ix = (ox * params.stride_w + kx * params.dilation_w) as isize
                                - pad_w as isize;
                            if ix < 0 || ix >= in_w as isize {
                                continue;
                            }
                            col_row[oy * out_w + ox] = in_plane[iy as usize * in_w + ix as usize];
                        }
                    }
                }
            }
        }
        // GEMM: [oc, k_dim] x [k_dim, n_dim]
        let out_block =
            &mut output[b * params.out_channels * n_dim..][..params.out_channels * n_dim];
        gemm_mt_with(
            kb,
            threads,
            params.out_channels,
            k_dim,
            n_dim,
            weight,
            col,
            out_block,
        );
        if params.has_bias {
            for oc in 0..params.out_channels {
                let bias_v = bias[oc];
                for v in &mut out_block[oc * n_dim..(oc + 1) * n_dim] {
                    *v += bias_v;
                }
            }
        }
    }
}

/// Scratch of [`conv2d_1x1_strassen_with`]: the recursion's quadrants and
/// products (nothing when Eq. 9 stops it at the first level).
pub fn strassen_1x1_scratch(params: &ConvParams, in_h: usize, in_w: usize) -> ScratchLen {
    strassen_scratch(params.out_channels, params.in_channels, in_h * in_w)
}

/// 1×1 convolution lowered to a large matrix multiplication
/// `[oc, ic] × [ic, h*w]`, accelerated with the Strassen kernel when the paper's
/// Eq. 9 condition says the recursion pays off. `kb` and `threads` drive the
/// base-case GEMM of the recursion.
///
/// # Panics
///
/// Panics if the convolution is not pointwise, buffer lengths are wrong or
/// `scratch` is smaller than [`strassen_1x1_scratch`].
pub fn conv2d_1x1_strassen_with(
    kb: KernelBackend,
    params: &ConvParams,
    threads: usize,
    batch: usize,
    in_h: usize,
    in_w: usize,
    input: &[f32],
    weight: &[f32],
    bias: &[f32],
    output: &mut [f32],
    scratch: &mut Scratch,
) {
    assert!(
        params.is_pointwise(),
        "conv2d_1x1_strassen requires a 1x1 s1 d1 convolution"
    );
    validate(params, batch, in_h, in_w, input, weight, bias, output);
    let spatial = in_h * in_w;
    for b in 0..batch {
        let in_block = &input[b * params.in_channels * spatial..][..params.in_channels * spatial];
        let out_block =
            &mut output[b * params.out_channels * spatial..][..params.out_channels * spatial];
        // weight is [oc, ic] (kh = kw = 1), input block is [ic, spatial].
        strassen_with(
            kb,
            threads,
            params.out_channels,
            params.in_channels,
            spatial,
            weight,
            in_block,
            out_block,
            &mut scratch.f32,
        );
        if params.has_bias {
            for oc in 0..params.out_channels {
                let bias_v = bias[oc];
                for v in &mut out_block[oc * spatial..(oc + 1) * spatial] {
                    *v += bias_v;
                }
            }
        }
    }
}

/// Depthwise convolution (each channel convolved with its own kernel).
///
/// With a SIMD backend and unit column stride/dilation, each kernel tap
/// becomes one vector axpy over the valid output row span (`out_row += wv *
/// in_row[..]`). Strided or dilated columns leave no contiguous span to
/// vectorize, so they run the scalar kernel on every backend. Results differ
/// from scalar only by FMA rounding per element.
///
/// # Panics
///
/// Panics if the parameters do not describe a depthwise convolution or buffer
/// lengths are wrong.
pub fn conv2d_depthwise_with(
    kb: KernelBackend,
    params: &ConvParams,
    threads: usize,
    batch: usize,
    in_h: usize,
    in_w: usize,
    input: &[f32],
    weight: &[f32],
    bias: &[f32],
    output: &mut [f32],
) {
    assert!(
        params.is_depthwise(),
        "conv2d_depthwise requires groups == in_channels == out_channels"
    );
    let row_axpy = params.stride_w == 1 && params.dilation_w == 1;
    if !kb.is_simd() || !row_axpy {
        return conv2d_sliding_window(
            params, threads, batch, in_h, in_w, input, weight, bias, output,
        );
    }
    validate(params, batch, in_h, in_w, input, weight, bias, output);
    let (out_h, out_w) = params.output_size(in_h, in_w);
    let (pad_h, pad_w) = params.resolve_padding(in_h, in_w);
    let out_plane = out_h * out_w;

    crate::parallel::parallel_chunks_mut(threads, output, out_plane, |plane_index, planes| {
        for (p, plane) in planes.chunks_mut(out_plane).enumerate() {
            let global = plane_index + p;
            let b = global / params.out_channels;
            let c = global % params.out_channels;
            let bias_v = if params.has_bias { bias[c] } else { 0.0 };
            plane.fill(bias_v);
            let in_plane = &input[((b * params.in_channels + c) * in_h * in_w)..][..in_h * in_w];
            let w_base = c * params.kernel_h * params.kernel_w;
            for ky in 0..params.kernel_h {
                for kx in 0..params.kernel_w {
                    let wv = weight[w_base + ky * params.kernel_w + kx];
                    if wv == 0.0 {
                        continue;
                    }
                    for oy in 0..out_h {
                        let iy = (oy * params.stride_h + ky * params.dilation_h) as isize
                            - pad_h as isize;
                        if iy < 0 || iy >= in_h as isize {
                            continue;
                        }
                        let in_row = &in_plane[iy as usize * in_w..][..in_w];
                        let out_row = &mut plane[oy * out_w..][..out_w];
                        // ix = ox + kx - pad_w; restrict ox to where ix lands
                        // inside the row, then vector-axpy the span.
                        let shift = kx as isize - pad_w as isize;
                        let ox_start = (-shift).max(0) as usize;
                        let ox_end = out_w.min((in_w as isize - shift).max(0) as usize);
                        if ox_start < ox_end {
                            let ix0 = (ox_start as isize + shift) as usize;
                            axpy_f32(
                                kb,
                                &mut out_row[ox_start..ox_end],
                                &in_row[ix0..ix0 + (ox_end - ox_start)],
                                wv,
                            );
                        }
                    }
                }
            }
        }
    });
}

fn validate(
    params: &ConvParams,
    batch: usize,
    in_h: usize,
    in_w: usize,
    input: &[f32],
    weight: &[f32],
    bias: &[f32],
    output: &[f32],
) {
    assert!(params.groups >= 1, "groups must be >= 1");
    assert_eq!(
        params.in_channels % params.groups,
        0,
        "in_channels must be divisible by groups"
    );
    assert_eq!(
        params.out_channels % params.groups,
        0,
        "out_channels must be divisible by groups"
    );
    assert_eq!(
        input.len(),
        batch * params.in_channels * in_h * in_w,
        "input buffer length mismatch"
    );
    assert_eq!(
        weight.len(),
        params.weight_len(),
        "weight buffer length mismatch"
    );
    if params.has_bias {
        assert_eq!(
            bias.len(),
            params.out_channels,
            "bias buffer length mismatch"
        );
    }
    let (out_h, out_w) = params.output_size(in_h, in_w);
    assert_eq!(
        output.len(),
        batch * params.out_channels * out_h * out_w,
        "output buffer length mismatch"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    /// The write-into kernels on square inputs, through [`Scratch::collect`].
    fn output_len(p: &ConvParams, batch: usize, size: usize) -> usize {
        let (out_h, out_w) = p.output_size(size, size);
        batch * p.out_channels * out_h * out_w
    }

    fn sliding_window(
        p: &ConvParams,
        threads: usize,
        batch: usize,
        size: usize,
        x: &[f32],
        w: &[f32],
        b: &[f32],
    ) -> Vec<f32> {
        Scratch::collect(
            output_len(p, batch, size),
            ScratchLen::default(),
            |out, _| conv2d_sliding_window(p, threads, batch, size, size, x, w, b, out),
        )
    }

    fn im2col(
        p: &ConvParams,
        threads: usize,
        batch: usize,
        size: usize,
        x: &[f32],
        w: &[f32],
        b: &[f32],
    ) -> Vec<f32> {
        Scratch::collect(
            output_len(p, batch, size),
            im2col_scratch(p, size, size),
            |out, scratch| {
                let kb = KernelBackend::Scalar;
                conv2d_im2col_with(kb, p, threads, batch, size, size, x, w, b, out, scratch)
            },
        )
    }

    fn max_diff(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len());
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
    }

    #[test]
    fn output_size_basic() {
        let p = ConvParams::square(3, 8, 3, 1);
        assert_eq!(p.output_size(8, 8), (8, 8));
        let p = ConvParams::square(3, 8, 3, 0).with_stride(2);
        assert_eq!(p.output_size(9, 9), (4, 4));
    }

    #[test]
    fn same_padding_matches_tf_convention() {
        let mut p = ConvParams::square(3, 8, 3, 0).with_stride(2);
        p.pad_mode = PadMode::Same;
        assert_eq!(p.output_size(224, 224), (112, 112));
        assert_eq!(p.output_size(7, 7), (4, 4));
    }

    #[test]
    fn pointwise_and_depthwise_detection() {
        assert!(ConvParams::square(16, 32, 1, 0).is_pointwise());
        assert!(!ConvParams::square(16, 32, 3, 1).is_pointwise());
        assert!(ConvParams::square(16, 16, 3, 1).depthwise().is_depthwise());
    }

    #[test]
    fn mul_count_matches_formula() {
        let p = ConvParams::square(3, 16, 3, 1);
        // 224x224 output, 3*3*3 MACs per output element, 16 output channels
        assert_eq!(p.mul_count(224, 224), 224 * 224 * 16 * 3 * 3 * 3);
    }

    #[test]
    fn sliding_window_matches_reference() {
        let mut rng = StdRng::seed_from_u64(5);
        for &(k, ic, oc, size, stride, pad, dil) in &[
            (3usize, 3usize, 8usize, 12usize, 1usize, 1usize, 1usize),
            (3, 4, 6, 11, 2, 1, 1),
            (5, 2, 4, 16, 1, 2, 1),
            (3, 2, 3, 14, 1, 2, 2),
            (1, 8, 16, 9, 1, 0, 1),
            (7, 1, 2, 15, 3, 3, 1),
        ] {
            let mut p = ConvParams::square(ic, oc, k, pad)
                .with_stride(stride)
                .with_dilation(dil);
            p.has_bias = true;
            let input = random(&mut rng, ic * size * size);
            let weight = random(&mut rng, p.weight_len());
            let bias = random(&mut rng, oc);
            let expected = conv2d_reference(&p, 1, size, size, &input, &weight, &bias);
            let got = sliding_window(&p, 2, 1, size, &input, &weight, &bias);
            assert!(max_diff(&expected, &got) < 1e-4, "k={k} ic={ic} oc={oc}");
        }
    }

    #[test]
    fn im2col_matches_reference() {
        let mut rng = StdRng::seed_from_u64(6);
        for &(k, ic, oc, size, stride, pad) in &[
            (3usize, 3usize, 8usize, 10usize, 1usize, 1usize),
            (3, 5, 7, 13, 2, 1),
            (5, 4, 4, 12, 1, 2),
            (1, 6, 12, 8, 1, 0),
        ] {
            let mut p = ConvParams::square(ic, oc, k, pad).with_stride(stride);
            p.has_bias = true;
            let input = random(&mut rng, ic * size * size);
            let weight = random(&mut rng, p.weight_len());
            let bias = random(&mut rng, oc);
            let expected = conv2d_reference(&p, 1, size, size, &input, &weight, &bias);
            let got = im2col(&p, 2, 1, size, &input, &weight, &bias);
            assert!(max_diff(&expected, &got) < 1e-4, "k={k} ic={ic} oc={oc}");
        }
    }

    #[test]
    fn strassen_1x1_matches_reference() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut p = ConvParams::square(32, 64, 1, 0);
        p.has_bias = true;
        let size = 14;
        let input = random(&mut rng, 32 * size * size);
        let weight = random(&mut rng, p.weight_len());
        let bias = random(&mut rng, 64);
        let expected = conv2d_reference(&p, 1, size, size, &input, &weight, &bias);
        let got = Scratch::collect(
            expected.len(),
            strassen_1x1_scratch(&p, size, size),
            |out, scratch| {
                let kb = KernelBackend::Scalar;
                conv2d_1x1_strassen_with(
                    kb, &p, 1, 1, size, size, &input, &weight, &bias, out, scratch,
                )
            },
        );
        assert!(max_diff(&expected, &got) < 1e-3);
    }

    #[test]
    fn depthwise_matches_reference() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut p = ConvParams::square(8, 8, 3, 1).depthwise().with_stride(2);
        p.has_bias = true;
        let size = 13;
        let input = random(&mut rng, 8 * size * size);
        let weight = random(&mut rng, p.weight_len());
        let bias = random(&mut rng, 8);
        let expected = conv2d_reference(&p, 1, size, size, &input, &weight, &bias);
        let got = Scratch::collect(expected.len(), ScratchLen::default(), |out, _| {
            let kb = KernelBackend::Scalar;
            conv2d_depthwise_with(kb, &p, 3, 1, size, size, &input, &weight, &bias, out)
        });
        assert!(max_diff(&expected, &got) < 1e-4);
    }

    #[test]
    fn batch_dimension_is_respected() {
        let mut rng = StdRng::seed_from_u64(9);
        let p = ConvParams::square(3, 4, 3, 1);
        let size = 8;
        let input = random(&mut rng, 2 * 3 * size * size);
        let weight = random(&mut rng, p.weight_len());
        let expected = conv2d_reference(&p, 2, size, size, &input, &weight, &[]);
        let got = im2col(&p, 2, 2, size, &input, &weight, &[]);
        assert!(max_diff(&expected, &got) < 1e-4);
        let got_sw = sliding_window(&p, 2, 2, size, &input, &weight, &[]);
        assert!(max_diff(&expected, &got_sw) < 1e-4);
    }

    #[test]
    fn asymmetric_1x7_and_7x1_kernels() {
        // The Inception-v3 operators NCNN leaves unoptimized (paper Fig. 8).
        let mut rng = StdRng::seed_from_u64(10);
        for &(kh, kw) in &[(1usize, 7usize), (7, 1)] {
            let p = ConvParams {
                in_channels: 4,
                out_channels: 6,
                kernel_h: kh,
                kernel_w: kw,
                pad_h: kh / 2,
                pad_w: kw / 2,
                ..ConvParams::default()
            };
            let size = 12;
            let input = random(&mut rng, 4 * size * size);
            let weight = random(&mut rng, p.weight_len());
            let expected = conv2d_reference(&p, 1, size, size, &input, &weight, &[]);
            let got = sliding_window(&p, 2, 1, size, &input, &weight, &[]);
            assert!(max_diff(&expected, &got) < 1e-4, "{kh}x{kw}");
            let got2 = im2col(&p, 2, 1, size, &input, &weight, &[]);
            assert!(max_diff(&expected, &got2) < 1e-4, "{kh}x{kw} im2col");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_all_paths_agree(
            k in 1usize..5,
            ic in 1usize..5,
            oc in 1usize..5,
            size in 4usize..12,
            stride in 1usize..3,
            seed in 0u64..1000,
        ) {
            let pad = k / 2;
            let mut rng = StdRng::seed_from_u64(seed);
            let p = ConvParams::square(ic, oc, k, pad).with_stride(stride);
            let input = random(&mut rng, ic * size * size);
            let weight = random(&mut rng, p.weight_len());
            let reference = conv2d_reference(&p, 1, size, size, &input, &weight, &[]);
            let sliding = sliding_window(&p, 2, 1, size, &input, &weight, &[]);
            let im2col = im2col(&p, 1, 1, size, &input, &weight, &[]);
            prop_assert!(max_diff(&reference, &sliding) < 1e-3);
            prop_assert!(max_diff(&reference, &im2col) < 1e-3);
        }
    }
}
