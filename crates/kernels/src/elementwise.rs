//! Binary element-wise kernels and channel concatenation.

/// Binary element-wise operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// Element-wise addition (e.g. residual connections in ResNet).
    Add,
    /// Element-wise subtraction.
    Sub,
    /// Element-wise multiplication.
    Mul,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
}

impl BinaryOp {
    /// Apply the operation to a pair of scalars.
    pub fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Mul => a * b,
            BinaryOp::Max => a.max(b),
            BinaryOp::Min => a.min(b),
        }
    }
}

/// Apply `op` element-wise over two equal-length buffers into `out`.
///
/// # Panics
///
/// Panics if the three buffer lengths differ.
pub fn binary(op: BinaryOp, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(
        a.len(),
        b.len(),
        "element-wise operands must have equal length"
    );
    assert_eq!(out.len(), a.len(), "element-wise output length mismatch");
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = op.apply(x, y);
    }
}

/// Apply `op` element-wise, writing into `a` (`a = op(a, b)`).
///
/// # Panics
///
/// Panics if the buffer lengths differ.
pub fn binary_inplace(op: BinaryOp, a: &mut [f32], b: &[f32]) {
    assert_eq!(
        a.len(),
        b.len(),
        "element-wise operands must have equal length"
    );
    for (x, &y) in a.iter_mut().zip(b) {
        *x = op.apply(*x, y);
    }
}

/// Broadcast-apply `op` with a per-channel scalar over an NCHW buffer.
///
/// `per_channel` has `channels` entries; each is combined with every element of the
/// corresponding channel plane.
///
/// # Panics
///
/// Panics if buffer lengths are inconsistent.
pub fn binary_broadcast_channel(
    op: BinaryOp,
    data: &mut [f32],
    per_channel: &[f32],
    batch: usize,
    channels: usize,
    plane: usize,
) {
    assert_eq!(
        per_channel.len(),
        channels,
        "per-channel operand length mismatch"
    );
    assert_eq!(data.len(), batch * channels * plane, "data length mismatch");
    for b in 0..batch {
        for c in 0..channels {
            let v = per_channel[c];
            let start = (b * channels + c) * plane;
            for x in &mut data[start..start + plane] {
                *x = op.apply(*x, v);
            }
        }
    }
}

/// One input of a concatenation of NCHW tensors along the channel axis: copy
/// `src` (`[batch, channels, plane]`) into channels `channel_offset..
/// channel_offset + channels` of `out` (`[batch, total_channels, plane]`).
/// Calling it once per input, with the offsets summing to `total_channels`,
/// writes every element of `out`.
///
/// # Panics
///
/// Panics if a buffer length disagrees with its dimensions or the channel
/// range does not fit.
pub fn concat_channels(
    out: &mut [f32],
    total_channels: usize,
    channel_offset: usize,
    src: &[f32],
    channels: usize,
    batch: usize,
    plane: usize,
) {
    assert_eq!(
        src.len(),
        batch * channels * plane,
        "concat input length mismatch"
    );
    assert_eq!(
        out.len(),
        batch * total_channels * plane,
        "concat output length mismatch"
    );
    assert!(
        channel_offset + channels <= total_channels,
        "concat channel range out of bounds"
    );
    for b in 0..batch {
        let from = &src[b * channels * plane..][..channels * plane];
        out[(b * total_channels + channel_offset) * plane..][..channels * plane]
            .copy_from_slice(from);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn binary_of(op: BinaryOp, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![f32::NAN; a.len()];
        binary(op, a, b, &mut out);
        out
    }

    /// Concatenate `[batch, c_i, plane]` inputs, one `concat_channels` each.
    fn concat_of(inputs: &[(&[f32], usize)], batch: usize, plane: usize) -> (Vec<f32>, usize) {
        let total: usize = inputs.iter().map(|(_, c)| c).sum();
        let mut out = vec![f32::NAN; batch * total * plane];
        let mut offset = 0;
        for (data, c) in inputs {
            concat_channels(&mut out, total, offset, data, *c, batch, plane);
            offset += c;
        }
        (out, total)
    }

    #[test]
    fn binary_ops_scalar_semantics() {
        assert_eq!(BinaryOp::Add.apply(2.0, 3.0), 5.0);
        assert_eq!(BinaryOp::Sub.apply(2.0, 3.0), -1.0);
        assert_eq!(BinaryOp::Mul.apply(2.0, 3.0), 6.0);
        assert_eq!(BinaryOp::Max.apply(2.0, 3.0), 3.0);
        assert_eq!(BinaryOp::Min.apply(2.0, 3.0), 2.0);
    }

    #[test]
    fn binary_and_inplace_agree() {
        let a = vec![1.0, -2.0, 3.0];
        let b = vec![0.5, 2.0, -1.0];
        let out = binary_of(BinaryOp::Mul, &a, &b);
        let mut a2 = a.clone();
        binary_inplace(BinaryOp::Mul, &mut a2, &b);
        assert_eq!(out, a2);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn binary_rejects_length_mismatch() {
        binary_of(BinaryOp::Add, &[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn broadcast_channel_adds_bias_per_channel() {
        // 1 batch, 2 channels, 2 elements per plane
        let mut data = vec![1.0, 1.0, 2.0, 2.0];
        binary_broadcast_channel(BinaryOp::Add, &mut data, &[10.0, 20.0], 1, 2, 2);
        assert_eq!(data, vec![11.0, 11.0, 22.0, 22.0]);
    }

    #[test]
    fn concat_joins_channel_planes() {
        // two inputs with 1 and 2 channels, plane = 2
        let a = vec![1.0, 2.0];
        let b = vec![3.0, 4.0, 5.0, 6.0];
        let (out, c) = concat_of(&[(&a, 1), (&b, 2)], 1, 2);
        assert_eq!(c, 3);
        assert_eq!(out, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn concat_respects_batches() {
        // batch 2, plane 1: input A has 1 channel, input B has 1 channel
        let a = vec![1.0, 3.0]; // batches: [1], [3]
        let b = vec![2.0, 4.0];
        let (out, c) = concat_of(&[(&a, 1), (&b, 1)], 2, 1);
        assert_eq!(c, 2);
        assert_eq!(out, vec![1.0, 2.0, 3.0, 4.0]);
    }

    proptest! {
        #[test]
        fn prop_add_commutes(a in proptest::collection::vec(-10.0f32..10.0, 1..32),
                             seed in 0u64..100) {
            let b: Vec<f32> = a.iter().map(|v| v * (seed as f32 % 7.0 - 3.0)).collect();
            prop_assert_eq!(binary_of(BinaryOp::Add, &a, &b), binary_of(BinaryOp::Add, &b, &a));
            prop_assert_eq!(binary_of(BinaryOp::Mul, &a, &b), binary_of(BinaryOp::Mul, &b, &a));
            prop_assert_eq!(binary_of(BinaryOp::Max, &a, &b), binary_of(BinaryOp::Max, &b, &a));
        }

        #[test]
        fn prop_concat_preserves_total_elements(
            c1 in 1usize..5, c2 in 1usize..5, plane in 1usize..9, batch in 1usize..3
        ) {
            let a = vec![1.0f32; batch * c1 * plane];
            let b = vec![2.0f32; batch * c2 * plane];
            let (out, c) = concat_of(&[(&a, c1), (&b, c2)], batch, plane);
            prop_assert_eq!(c, c1 + c2);
            prop_assert_eq!(out.len(), a.len() + b.len());
        }
    }
}
