//! Winograd convolution: transform-matrix generator and tiled kernel.
//!
//! Most mobile engines hard-code the Winograd `A`, `B`, `G` matrices for a handful of
//! kernel/tile sizes. MNN instead ships a **Winograd generator** (paper Section
//! 3.3.1 (3), Eq. 8) that derives the transforms for *any* output tile size `n` and
//! kernel size `k`, which is what lets the cost model of Eq. 2 freely choose the
//! optimal tile size `n̂` at pre-inference time.
//!
//! * [`WinogradTransforms`] / [`generate`] — the generator itself.
//! * [`conv2d_winograd_prepared_with`] — the tiled `F(n×n, k×k)` convolution of Fig. 4, with the
//!   channel-wise Hadamard product restructured as one GEMM per transform position.

mod generator;
mod kernel;

pub use generator::{generate, WinogradTransforms};
pub use kernel::{
    conv2d_winograd_prepared_with, prepare_winograd_weights, winograd_scratch,
    PreparedWinogradWeights,
};

/// Arithmetic cost `C(n)` of Winograd convolution with output tile size `n`,
/// kernel size `k`, `ic` input and `oc` output channels (paper Eq. 2):
///
/// ```text
/// C(n) = 2·ic·(n+k−1)³ + ic·oc·(n+k−1)² + n·(n+k−1)·(2n+k−1)
/// ```
///
/// The first term models the input transform, the second the per-position
/// multiplication (Hadamard-as-GEMM) stage, the third the output transform. The
/// pre-inference stage minimizes this cost over `n` to pick `n̂`.
pub fn winograd_tile_cost(n: usize, k: usize, ic: usize, oc: usize) -> f64 {
    let alpha = (n + k - 1) as f64;
    let (nf, kf, icf, ocf) = (n as f64, k as f64, ic as f64, oc as f64);
    2.0 * icf * alpha * alpha * alpha
        + icf * ocf * alpha * alpha
        + nf * alpha * (2.0 * nf + kf - 1.0)
}

/// The optimal Winograd output tile size `n̂ = argmin_n C(n)` for a `k×k`
/// convolution with `ic`/`oc` channels, searched over `n ∈ [1, max_n]`
/// (paper Eq. 2).
///
/// `C(n)` is a *per-tile* cost while a tile covers `n²` output pixels, so the
/// minimization is over the amortized cost `C(n) / n²` — equivalent to minimizing
/// the total cost `⌊ow·oh/n²⌋ · C(n)` of Eq. 7 for a fixed output size.
///
/// Returning `n̂ = 1` means Winograd degenerates and the sliding-window scheme
/// should be used instead (paper Eq. 3).
pub fn optimal_tile_size(k: usize, ic: usize, oc: usize, max_n: usize) -> usize {
    let max_n = max_n.max(1);
    let amortized = |n: usize| winograd_tile_cost(n, k, ic, oc) / (n * n) as f64;
    (1..=max_n)
        .min_by(|&a, &b| amortized(a).partial_cmp(&amortized(b)).unwrap())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_cost_matches_formula_by_hand() {
        // n = 2, k = 3, ic = 1, oc = 1: alpha = 4
        // C = 2*1*64 + 1*1*16 + 2*4*(4+3-1=6) = 128 + 16 + 48 = 192
        assert_eq!(winograd_tile_cost(2, 3, 1, 1), 192.0);
    }

    #[test]
    fn optimal_tile_grows_with_channel_count() {
        // With many channels the GEMM term dominates and larger tiles win.
        let small = optimal_tile_size(3, 4, 4, 6);
        let large = optimal_tile_size(3, 512, 512, 6);
        assert!(large >= small);
        assert!(large >= 2, "large channel counts should favor Winograd");
    }

    #[test]
    fn optimal_tile_is_within_bounds() {
        for k in [2, 3, 5, 7] {
            for ic in [1, 16, 256] {
                let n = optimal_tile_size(k, ic, ic, 6);
                assert!((1..=6).contains(&n));
            }
        }
    }
}
