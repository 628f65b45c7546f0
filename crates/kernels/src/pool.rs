//! Spatial pooling kernels (max / average, plus global pooling).

/// Pooling mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolMode {
    /// Maximum over the window.
    Max,
    /// Arithmetic mean over the window (averaging only over in-bounds elements).
    Avg,
}

/// Hyper-parameters of a 2-D pooling operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolParams {
    /// Pooling mode.
    pub mode: PoolMode,
    /// Window height.
    pub kernel_h: usize,
    /// Window width.
    pub kernel_w: usize,
    /// Vertical stride.
    pub stride_h: usize,
    /// Horizontal stride.
    pub stride_w: usize,
    /// Vertical padding (each side).
    pub pad_h: usize,
    /// Horizontal padding (each side).
    pub pad_w: usize,
    /// When `true`, the window covers the whole spatial extent (global pooling) and
    /// `kernel_*`/`stride_*` are ignored.
    pub global: bool,
}

impl PoolParams {
    /// Max pooling with a square window, stride equal to the window, no padding.
    pub fn max(kernel: usize) -> Self {
        PoolParams {
            mode: PoolMode::Max,
            kernel_h: kernel,
            kernel_w: kernel,
            stride_h: kernel,
            stride_w: kernel,
            pad_h: 0,
            pad_w: 0,
            global: false,
        }
    }

    /// Average pooling with a square window, stride equal to the window, no padding.
    pub fn avg(kernel: usize) -> Self {
        PoolParams {
            mode: PoolMode::Avg,
            ..PoolParams::max(kernel)
        }
    }

    /// Global average pooling (used as the classifier head of most zoo networks).
    pub fn global_avg() -> Self {
        PoolParams {
            mode: PoolMode::Avg,
            global: true,
            ..PoolParams::max(1)
        }
    }

    /// Builder-style stride override (both axes).
    pub fn with_stride(mut self, stride: usize) -> Self {
        self.stride_h = stride;
        self.stride_w = stride;
        self
    }

    /// Builder-style padding override (both axes).
    pub fn with_pad(mut self, pad: usize) -> Self {
        self.pad_h = pad;
        self.pad_w = pad;
        self
    }

    /// Output spatial size for an input of size `(in_h, in_w)`.
    pub fn output_size(&self, in_h: usize, in_w: usize) -> (usize, usize) {
        if self.global {
            return (1, 1);
        }
        let out_h = (in_h + 2 * self.pad_h).saturating_sub(self.kernel_h) / self.stride_h + 1;
        let out_w = (in_w + 2 * self.pad_w).saturating_sub(self.kernel_w) / self.stride_w + 1;
        (out_h, out_w)
    }
}

/// 2-D pooling over an NCHW buffer into `output`
/// (`[batch, channels, out_h, out_w]`, overwritten).
///
/// # Panics
///
/// Panics if `input.len() != batch * channels * in_h * in_w` or `output` is
/// not the pooled size.
pub fn pool2d(
    params: &PoolParams,
    batch: usize,
    channels: usize,
    in_h: usize,
    in_w: usize,
    input: &[f32],
    output: &mut [f32],
) {
    assert_eq!(
        input.len(),
        batch * channels * in_h * in_w,
        "input length mismatch"
    );
    let (kernel_h, kernel_w, stride_h, stride_w, pad_h, pad_w) = if params.global {
        (in_h, in_w, 1, 1, 0, 0)
    } else {
        (
            params.kernel_h,
            params.kernel_w,
            params.stride_h,
            params.stride_w,
            params.pad_h,
            params.pad_w,
        )
    };
    let (out_h, out_w) = params.output_size(in_h, in_w);
    assert_eq!(
        output.len(),
        batch * channels * out_h * out_w,
        "output length mismatch"
    );
    for b in 0..batch {
        for c in 0..channels {
            let plane = &input[(b * channels + c) * in_h * in_w..][..in_h * in_w];
            let out_plane = &mut output[(b * channels + c) * out_h * out_w..][..out_h * out_w];
            for oy in 0..out_h {
                for ox in 0..out_w {
                    let mut acc = match params.mode {
                        PoolMode::Max => f32::NEG_INFINITY,
                        PoolMode::Avg => 0.0,
                    };
                    let mut count = 0usize;
                    for ky in 0..kernel_h {
                        let iy = (oy * stride_h + ky) as isize - pad_h as isize;
                        if iy < 0 || iy >= in_h as isize {
                            continue;
                        }
                        for kx in 0..kernel_w {
                            let ix = (ox * stride_w + kx) as isize - pad_w as isize;
                            if ix < 0 || ix >= in_w as isize {
                                continue;
                            }
                            let v = plane[iy as usize * in_w + ix as usize];
                            match params.mode {
                                PoolMode::Max => acc = acc.max(v),
                                PoolMode::Avg => acc += v,
                            }
                            count += 1;
                        }
                    }
                    out_plane[oy * out_w + ox] = match params.mode {
                        PoolMode::Max => {
                            if count == 0 {
                                0.0
                            } else {
                                acc
                            }
                        }
                        PoolMode::Avg => {
                            if count == 0 {
                                0.0
                            } else {
                                acc / count as f32
                            }
                        }
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::{Scratch, ScratchLen};
    use proptest::prelude::*;

    fn pooled(p: &PoolParams, batch: usize, c: usize, h: usize, w: usize, x: &[f32]) -> Vec<f32> {
        let (out_h, out_w) = p.output_size(h, w);
        Scratch::collect(
            batch * c * out_h * out_w,
            ScratchLen::default(),
            |out, _| pool2d(p, batch, c, h, w, x, out),
        )
    }

    #[test]
    fn max_pool_2x2() {
        // 1x1x4x4 input
        let input: Vec<f32> = (1..=16).map(|v| v as f32).collect();
        let out = pooled(&PoolParams::max(2), 1, 1, 4, 4, &input);
        assert_eq!(out, vec![6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn avg_pool_2x2() {
        let input: Vec<f32> = (1..=16).map(|v| v as f32).collect();
        let out = pooled(&PoolParams::avg(2), 1, 1, 4, 4, &input);
        assert_eq!(out, vec![3.5, 5.5, 11.5, 13.5]);
    }

    #[test]
    fn global_avg_pool_reduces_to_one_value_per_channel() {
        let input: Vec<f32> = (0..2 * 3 * 4).map(|v| v as f32).collect();
        let out = pooled(&PoolParams::global_avg(), 1, 2, 3, 4, &input);
        assert_eq!(out.len(), 2);
        let mean0: f32 = input[..12].iter().sum::<f32>() / 12.0;
        let mean1: f32 = input[12..].iter().sum::<f32>() / 12.0;
        assert!((out[0] - mean0).abs() < 1e-5);
        assert!((out[1] - mean1).abs() < 1e-5);
    }

    #[test]
    fn padded_avg_counts_only_valid_elements() {
        // 1x1x2x2 input with pad 1, window 3, stride 2: the corner windows cover
        // exactly the 2x2 valid area with different counts.
        let params = PoolParams::avg(3).with_stride(2).with_pad(1);
        let input = vec![1.0, 2.0, 3.0, 4.0];
        let out = pooled(&params, 1, 1, 2, 2, &input);
        assert_eq!(out.len(), 1);
        assert!((out[0] - 2.5).abs() < 1e-6);
    }

    #[test]
    fn strided_max_pool_with_padding() {
        let params = PoolParams::max(3).with_stride(2).with_pad(1);
        let input: Vec<f32> = (1..=25).map(|v| v as f32).collect(); // 5x5
        let out = pooled(&params, 1, 1, 5, 5, &input);
        assert_eq!(params.output_size(5, 5), (3, 3));
        assert_eq!(
            out,
            vec![7.0, 9.0, 10.0, 17.0, 19.0, 20.0, 22.0, 24.0, 25.0]
        );
    }

    #[test]
    fn output_size_formula() {
        assert_eq!(PoolParams::max(2).output_size(224, 224), (112, 112));
        assert_eq!(
            PoolParams::max(3).with_stride(2).output_size(112, 112),
            (55, 55)
        );
        assert_eq!(PoolParams::global_avg().output_size(7, 7), (1, 1));
    }

    proptest! {
        #[test]
        fn prop_max_pool_never_exceeds_input_max(
            h in 2usize..10, w in 2usize..10, k in 1usize..4,
            values in proptest::collection::vec(-10.0f32..10.0, 100)
        ) {
            let k = k.min(h).min(w);
            let input = &values[..h * w];
            let params = PoolParams::max(k);
            let out = pooled(&params, 1, 1, h, w, input);
            let max_in = input.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(out.iter().all(|&v| v <= max_in + 1e-6));
        }

        #[test]
        fn prop_global_avg_equals_mean(
            c in 1usize..4, h in 1usize..8, w in 1usize..8,
            seed in 0u64..100
        ) {
            let n = c * h * w;
            let input: Vec<f32> = (0..n).map(|i| ((i as u64 * 31 + seed) % 17) as f32).collect();
            let out = pooled(&PoolParams::global_avg(), 1, c, h, w, &input);
            for ci in 0..c {
                let mean: f32 = input[ci * h * w..(ci + 1) * h * w].iter().sum::<f32>() / (h * w) as f32;
                prop_assert!((out[ci] - mean).abs() < 1e-4);
            }
        }
    }
}
