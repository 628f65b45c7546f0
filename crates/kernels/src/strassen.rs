//! Strassen matrix multiplication with MNN's cost-based recursion control.
//!
//! MNN is, per the paper (Section 3.3.2), the first mobile inference engine to adopt
//! the Strassen algorithm for the large matrix multiplications produced by 1×1
//! convolutions. Strassen trades one expensive multiplication for cheap additions:
//! a `[n, k] × [k, m]` product costs `m·n·k` scalar multiplications directly, but
//! only `7 · (m/2)(n/2)(k/2)` with one level of Strassen plus
//! `4·(m/2)(k/2) + 4·(n/2)(k/2) + 7·(m/2)(n/2)` extra additions.
//!
//! The recursion therefore continues only while the saved multiplications exceed the
//! added additions (paper Eq. 9):
//!
//! ```text
//! m·n·k − 7·(m/2)(n/2)(k/2) > 4·(m/2)(k/2) + 4·(n/2)(k/2) + 7·(m/2)(n/2)
//! ```
//!
//! Matrices with odd dimensions are padded by one zero row/column at the recursion
//! level where the split happens; the padding is stripped when recombining.

use crate::gemm::gemm_mt_with;
use crate::scratch::ScratchLen;
use crate::simd::KernelBackend;

/// Minimum size the half-matrices must keep for another recursion level.
///
/// Eq. 9 compares multiplications against additions only; on a real machine the
/// quadrant extraction / recombination also costs memory traffic, so recursing all
/// the way down to tiny blocks (which Eq. 9 alone would allow) destroys locality.
/// Like the production implementation, recursion stops once the sub-problem drops
/// below the block size at which the base GEMM reaches peak throughput. The
/// threshold is larger than in the NEON-based original because this crate's safe
/// scalar GEMM has a lower FLOP rate, so the O(n²) add/copy overhead of one Strassen
/// level only amortizes on very large products.
pub const MIN_STRASSEN_BLOCK: usize = 512;

/// Decide whether one more level of Strassen recursion pays off for a
/// `[m, k] × [k, n]` product: the saved multiplications must exceed the extra
/// additions (paper Eq. 9) *and* the resulting sub-problem must stay at least
/// [`MIN_STRASSEN_BLOCK`] in every dimension.
///
/// ```
/// use mnn_kernels::strassen::should_recurse;
/// assert!(should_recurse(1024, 1024, 1024));
/// assert!(!should_recurse(16, 16, 16));
/// ```
pub fn should_recurse(m: usize, k: usize, n: usize) -> bool {
    if m / 2 < MIN_STRASSEN_BLOCK || k / 2 < MIN_STRASSEN_BLOCK || n / 2 < MIN_STRASSEN_BLOCK {
        return false;
    }
    let (mh, kh, nh) = ((m / 2) as f64, (k / 2) as f64, (n / 2) as f64);
    let saved = (m * k * n) as f64 - 7.0 * mh * nh * kh;
    let extra = 4.0 * mh * kh + 4.0 * nh * kh + 7.0 * mh * nh;
    saved > extra
}

/// Maximum recursion depth the cost condition will allow for a given problem size.
///
/// Exposed so the pre-inference cost model can estimate Strassen's multiplication
/// count without running the kernel.
pub fn planned_depth(mut m: usize, mut k: usize, mut n: usize) -> usize {
    let mut depth = 0;
    while should_recurse(m, k, n) {
        m = m.div_ceil(2);
        k = k.div_ceil(2);
        n = n.div_ceil(2);
        depth += 1;
    }
    depth
}

/// Number of scalar multiplications Strassen will perform for a `[m,k]×[k,n]`
/// product under the Eq. 9 recursion policy.
pub fn strassen_mul_count(m: usize, k: usize, n: usize) -> usize {
    if !should_recurse(m, k, n) {
        return m * k * n;
    }
    let (mh, kh, nh) = (m.div_ceil(2), k.div_ceil(2), n.div_ceil(2));
    7 * strassen_mul_count(mh, kh, nh)
}

/// `f32` scratch elements one recursion level over a `[m, k] × [k, n]` product
/// carves for itself: the eight quadrants, one operand sum per side and the
/// seven products.
fn level_scratch(mh: usize, kh: usize, nh: usize) -> usize {
    5 * mh * kh + 5 * kh * nh + 7 * mh * nh
}

/// Scratch [`strassen_with`] needs for a `[m, k] × [k, n]` product: every
/// level the Eq. 9 policy will recurse through (the seven sub-products of a
/// level run one after the other and share the next level's share), nothing
/// when the product goes straight to the blocked GEMM.
pub fn strassen_scratch(m: usize, k: usize, n: usize) -> ScratchLen {
    let mut len = 0;
    let (mut m, mut k, mut n) = (m, k, n);
    while should_recurse(m, k, n) {
        (m, k, n) = (m.div_ceil(2), k.div_ceil(2), n.div_ceil(2));
        len += level_scratch(m, k, n);
    }
    ScratchLen::f32(len)
}

/// Strassen matrix multiplication: `c = a × b` with `a: [m, k]`, `b: [k, n]`,
/// `c: [m, n]`, all row-major; `c` is overwritten.
///
/// Recursion depth is governed by [`should_recurse`] (paper Eq. 9); the base case
/// falls back to the blocked GEMM on `kb` with `threads` workers.
///
/// # Panics
///
/// Panics if slice lengths do not match the dimensions or `scratch` is shorter
/// than [`strassen_scratch`].
pub fn strassen_with(
    kb: KernelBackend,
    threads: usize,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    scratch: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "A must be m*k elements");
    assert_eq!(b.len(), k * n, "B must be k*n elements");
    assert_eq!(c.len(), m * n, "C must be m*n elements");
    strassen_impl(kb, threads, m, k, n, a, b, c, scratch);
}

/// The four `h × w` quadrants of the row-major `[rows, cols]` matrix `src`,
/// copied into `dst` with implicit zero padding where `2h > rows` or
/// `2w > cols`: `[q11, q12, q21, q22]`.
fn quadrants<'s>(
    src: &[f32],
    rows: usize,
    cols: usize,
    h: usize,
    w: usize,
    dst: &'s mut [f32],
) -> [&'s [f32]; 4] {
    dst.fill(0.0);
    for (q, quadrant) in dst.chunks_mut(h * w).enumerate() {
        let (r0, c0) = ((q / 2) * h, (q % 2) * w);
        let copy_w = w.min(cols.saturating_sub(c0));
        for r in 0..h.min(rows.saturating_sub(r0)) {
            quadrant[r * w..r * w + copy_w].copy_from_slice(&src[(r0 + r) * cols + c0..][..copy_w]);
        }
    }
    let (top, bottom) = dst.split_at(2 * h * w);
    let (q11, q12) = top.split_at(h * w);
    let (q21, q22) = bottom.split_at(h * w);
    [q11, q12, q21, q22]
}

fn strassen_impl(
    kb: KernelBackend,
    threads: usize,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    scratch: &mut [f32],
) {
    if !should_recurse(m, k, n) {
        gemm_mt_with(kb, threads, m, k, n, a, b, c);
        return;
    }

    // Odd dimensions are padded up to even so the four quadrants are equal-sized.
    let (mh, kh, nh) = (m.div_ceil(2), k.div_ceil(2), n.div_ceil(2));
    let (a_quadrants, rest) = scratch.split_at_mut(4 * mh * kh);
    let (b_quadrants, rest) = rest.split_at_mut(4 * kh * nh);
    let (ta, rest) = rest.split_at_mut(mh * kh);
    let (tb, rest) = rest.split_at_mut(kh * nh);
    let (products, deeper) = rest.split_at_mut(7 * mh * nh);
    let [a11, a12, a21, a22] = quadrants(a, m, k, mh, kh, a_quadrants);
    let [b11, b12, b21, b22] = quadrants(b, k, n, kh, nh, b_quadrants);

    let add = |dst: &mut [f32], x: &[f32], y: &[f32]| {
        for ((d, p), q) in dst.iter_mut().zip(x).zip(y) {
            *d = p + q;
        }
    };
    let sub = |dst: &mut [f32], x: &[f32], y: &[f32]| {
        for ((d, p), q) in dst.iter_mut().zip(x).zip(y) {
            *d = p - q;
        }
    };
    let mut product = |index: usize, x: &[f32], y: &[f32]| {
        let out = &mut products[index * mh * nh..][..mh * nh];
        strassen_impl(kb, threads, mh, kh, nh, x, y, out, deeper);
    };

    // The seven Strassen products M1..M7.
    add(ta, a11, a22);
    add(tb, b11, b22);
    product(0, ta, tb);
    add(ta, a21, a22);
    product(1, ta, b11);
    sub(tb, b12, b22);
    product(2, a11, tb);
    sub(tb, b21, b11);
    product(3, a22, tb);
    add(ta, a11, a12);
    product(4, ta, b22);
    sub(ta, a21, a11);
    add(tb, b11, b12);
    product(5, ta, tb);
    sub(ta, a12, a22);
    add(tb, b21, b22);
    product(6, ta, tb);

    // Recombine: C11 = M1 + M4 - M5 + M7, C12 = M3 + M5, C21 = M2 + M4,
    //            C22 = M1 - M2 + M3 + M6 — written row-wise so the inner loops
    //            vectorize and padding rows/columns are simply dropped.
    for qi in 0..mh {
        let row = |index: usize| &products[(index * mh + qi) * nh..][..nh];
        let (m1r, m2r, m3r, m4r) = (row(0), row(1), row(2), row(3));
        let (m5r, m6r, m7r) = (row(4), row(5), row(6));

        if qi < m {
            let c_row = &mut c[qi * n..(qi + 1) * n];
            let left = nh.min(n);
            for j in 0..left {
                c_row[j] = m1r[j] + m4r[j] - m5r[j] + m7r[j];
            }
            for j in nh..n {
                c_row[j] = m3r[j - nh] + m5r[j - nh];
            }
        }
        let bot = mh + qi;
        if bot < m {
            let c_row = &mut c[bot * n..(bot + 1) * n];
            let left = nh.min(n);
            for j in 0..left {
                c_row[j] = m2r[j] + m4r[j];
            }
            for j in nh..n {
                c_row[j] = m1r[j - nh] - m2r[j - nh] + m3r[j - nh] + m6r[j - nh];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_naive;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    fn max_diff(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
    }

    fn strassen(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        let mut scratch = vec![f32::NAN; strassen_scratch(m, k, n).f32];
        strassen_with(KernelBackend::Scalar, 1, m, k, n, a, b, c, &mut scratch);
    }

    #[test]
    fn small_matrices_do_not_recurse() {
        assert!(!should_recurse(8, 8, 8));
        assert!(!should_recurse(1, 1024, 1024));
        assert_eq!(planned_depth(16, 16, 16), 0);
    }

    #[test]
    fn large_matrices_recurse_multiple_levels() {
        assert!(should_recurse(1024, 1024, 1024));
        assert!(planned_depth(2048, 2048, 2048) >= 2);
        // Deeper problems plan at least as many levels as shallower ones.
        assert!(planned_depth(2048, 2048, 2048) >= planned_depth(1024, 1024, 1024));
        // Below the block threshold Eq. 9 is not even consulted.
        assert!(!should_recurse(256, 256, 256));
    }

    #[test]
    fn mul_count_is_reduced_for_large_sizes() {
        let direct = 2048usize * 2048 * 2048;
        let strassen_muls = strassen_mul_count(2048, 2048, 2048);
        assert!(strassen_muls < direct);
        // And equals the direct count when no recursion happens.
        assert_eq!(strassen_mul_count(16, 16, 16), 16 * 16 * 16);
    }

    #[test]
    fn strassen_matches_naive_on_power_of_two() {
        let mut rng = StdRng::seed_from_u64(1);
        let (m, k, n) = (64, 64, 64);
        let a = random_matrix(&mut rng, m * k);
        let b = random_matrix(&mut rng, k * n);
        let mut c_ref = vec![0.0; m * n];
        let mut c = vec![0.0; m * n];
        gemm_naive(m, k, n, &a, &b, &mut c_ref);
        strassen(m, k, n, &a, &b, &mut c);
        assert!(max_diff(&c, &c_ref) < 1e-3);
    }

    #[test]
    fn strassen_matches_naive_on_odd_sizes() {
        let mut rng = StdRng::seed_from_u64(2);
        for &(m, k, n) in &[(65, 33, 47), (127, 64, 65), (100, 101, 99)] {
            let a = random_matrix(&mut rng, m * k);
            let b = random_matrix(&mut rng, k * n);
            let mut c_ref = vec![0.0; m * n];
            let mut c = vec![0.0; m * n];
            gemm_naive(m, k, n, &a, &b, &mut c_ref);
            strassen(m, k, n, &a, &b, &mut c);
            assert!(max_diff(&c, &c_ref) < 1e-3, "({m},{k},{n})");
        }
    }

    /// Exercises a real recursion level (requires ≥1024-sized operands); only run in
    /// release builds because the naive reference is far too slow unoptimized.
    #[cfg(not(debug_assertions))]
    #[test]
    fn forced_recursion_on_large_size_is_correct() {
        let mut rng = StdRng::seed_from_u64(3);
        let (m, k, n) = (1040, 1024, 1056);
        assert!(should_recurse(m, k, n));
        let a = random_matrix(&mut rng, m * k);
        let b = random_matrix(&mut rng, k * n);
        let mut c_ref = vec![0.0; m * n];
        let mut c = vec![0.0; m * n];
        gemm_naive(m, k, n, &a, &b, &mut c_ref);
        strassen(m, k, n, &a, &b, &mut c);
        assert!(max_diff(&c, &c_ref) < 1e-2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        #[test]
        fn prop_strassen_equals_naive(
            m in 1usize..40, k in 1usize..40, n in 1usize..40, seed in 0u64..100
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = random_matrix(&mut rng, m * k);
            let b = random_matrix(&mut rng, k * n);
            let mut c_ref = vec![0.0; m * n];
            let mut c = vec![0.0; m * n];
            gemm_naive(m, k, n, &a, &b, &mut c_ref);
            strassen(m, k, n, &a, &b, &mut c);
            prop_assert!(max_diff(&c, &c_ref) < 1e-3);
        }

        #[test]
        fn prop_recursion_condition_matches_formula(
            m in 2usize..2000, k in 2usize..2000, n in 2usize..2000
        ) {
            let (mh, kh, nh) = ((m / 2) as f64, (k / 2) as f64, (n / 2) as f64);
            let eq9 = (m * k * n) as f64 - 7.0 * mh * nh * kh
                > 4.0 * mh * kh + 4.0 * nh * kh + 7.0 * mh * nh;
            let large_enough = m / 2 >= MIN_STRASSEN_BLOCK
                && k / 2 >= MIN_STRASSEN_BLOCK
                && n / 2 >= MIN_STRASSEN_BLOCK;
            prop_assert_eq!(should_recurse(m, k, n), eq9 && large_enough);
        }
    }
}
