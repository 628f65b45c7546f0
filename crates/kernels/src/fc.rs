//! Fully-connected (inner product) kernel.

use crate::gemm::gemm_mt_with;
use crate::simd::KernelBackend;

/// Fully-connected layer: `y = x · Wᵀ + b`, written into `output`
/// (`[batch, out_features]`, overwritten).
///
/// `input` is `[batch, in_features]`; `weight_t` is the layer's weight
/// **transposed** to `[in_features, out_features]` (the Caffe/ONNX `[out, in]`
/// layout goes through [`crate::gemm::transpose`] once, when the layer is
/// prepared, not on every call); `bias` is `[out_features]` or empty.
///
/// # Panics
///
/// Panics if slice lengths are inconsistent.
pub fn fully_connected_with(
    kb: KernelBackend,
    threads: usize,
    batch: usize,
    in_features: usize,
    out_features: usize,
    input: &[f32],
    weight_t: &[f32],
    bias: &[f32],
    output: &mut [f32],
) {
    assert_eq!(input.len(), batch * in_features, "input length mismatch");
    assert_eq!(
        weight_t.len(),
        out_features * in_features,
        "weight length mismatch"
    );
    if !bias.is_empty() {
        assert_eq!(bias.len(), out_features, "bias length mismatch");
    }
    // y[b][o] = sum_i x[b][i] * w[o][i]  ==  X (batch x in) * W^T (in x out)
    gemm_mt_with(
        kb,
        threads,
        batch,
        in_features,
        out_features,
        input,
        weight_t,
        output,
    );
    if !bias.is_empty() {
        for row in output.chunks_mut(out_features) {
            for (v, &b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::transpose;
    use crate::scratch::{Scratch, ScratchLen};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The scalar kernel on an `[out, in]` weight.
    fn fully_connected(
        threads: usize,
        batch: usize,
        inf: usize,
        outf: usize,
        input: &[f32],
        weight: &[f32],
        bias: &[f32],
    ) -> Vec<f32> {
        assert_eq!(weight.len(), outf * inf, "weight length mismatch");
        let weight_t = transpose(outf, inf, weight);
        Scratch::collect(batch * outf, ScratchLen::default(), |out, _| {
            let kb = KernelBackend::Scalar;
            fully_connected_with(kb, threads, batch, inf, outf, input, &weight_t, bias, out)
        })
    }

    #[test]
    fn matches_manual_dot_products() {
        // 1 batch, 3 -> 2
        let input = vec![1.0, 2.0, 3.0];
        let weight = vec![
            1.0, 0.0, -1.0, // out 0
            0.5, 0.5, 0.5, // out 1
        ];
        let bias = vec![10.0, -1.0];
        let out = fully_connected(1, 1, 3, 2, &input, &weight, &bias);
        assert_eq!(out, vec![1.0 - 3.0 + 10.0, 3.0 - 1.0]);
    }

    #[test]
    fn works_without_bias_and_with_batches() {
        let mut rng = StdRng::seed_from_u64(1);
        let (batch, inf, outf) = (3usize, 8usize, 5usize);
        let input: Vec<f32> = (0..batch * inf).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let weight: Vec<f32> = (0..outf * inf).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let out = fully_connected(2, batch, inf, outf, &input, &weight, &[]);
        for b in 0..batch {
            for o in 0..outf {
                let expected: f32 = (0..inf)
                    .map(|i| input[b * inf + i] * weight[o * inf + i])
                    .sum();
                assert!((out[b * outf + o] - expected).abs() < 1e-4);
            }
        }
    }

    #[test]
    #[should_panic(expected = "weight length mismatch")]
    fn rejects_bad_weight_shape() {
        fully_connected(1, 1, 3, 2, &[0.0; 3], &[0.0; 5], &[]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_linear_in_input(
            inf in 1usize..10, outf in 1usize..10, seed in 0u64..100
        ) {
            // f(2x) == 2 f(x) when bias is zero
            let mut rng = StdRng::seed_from_u64(seed);
            let input: Vec<f32> = (0..inf).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let doubled: Vec<f32> = input.iter().map(|v| v * 2.0).collect();
            let weight: Vec<f32> = (0..outf * inf).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let y1 = fully_connected(1, 1, inf, outf, &input, &weight, &[]);
            let y2 = fully_connected(1, 1, inf, outf, &doubled, &weight, &[]);
            for (a, b) in y1.iter().zip(&y2) {
                prop_assert!((2.0 * a - b).abs() < 1e-4);
            }
        }
    }
}
