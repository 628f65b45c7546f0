//! Dense matrix multiplication kernels.
//!
//! MNN's design philosophy (paper Section 3.5) is to spot the compute-intensive unit
//! of smallest granularity — the basic matrix multiplication — and optimize it once,
//! so every operator built on top of it (1×1 convolution, the Winograd Hadamard
//! stage, fully-connected layers, im2col convolution) benefits automatically.
//!
//! Three float GEMM variants are provided:
//!
//! * [`gemm_naive`] — the textbook triple loop, used as the correctness reference.
//! * [`gemm`] — a cache-blocked, register-tiled single-threaded kernel.
//! * [`gemm_mt`] — the blocked kernel parallelized over output row blocks.
//!
//! All compute `C = A × B` with `A: [m, k]`, `B: [k, n]`, `C: [m, n]`, row-major.

use crate::parallel::parallel_chunks_mut;
use crate::simd::{gemm_accumulate_simd, KernelBackend};

/// Blocking factor along the `k` (reduction) dimension.
const BLOCK_K: usize = 256;
/// Blocking factor along the `n` (output column) dimension.
const BLOCK_N: usize = 256;

/// Reference GEMM: `c = a × b` using the naive `O(mnk)` triple loop.
///
/// `a` is `[m, k]`, `b` is `[k, n]` and `c` is `[m, n]`, all row-major. `c` is
/// overwritten.
///
/// # Panics
///
/// Panics if any slice length does not match its dimensions.
pub fn gemm_naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    check_dims(m, k, n, a, b, c);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            c[i * n + j] = acc;
        }
    }
}

/// Cache-blocked single-threaded GEMM: `c = a × b`.
///
/// The loop order (`i`, `p`, `j` inside blocks) streams rows of `B` and accumulates
/// into a row of `C`, which lets the compiler auto-vectorize the innermost loop over
/// `j` — the scalar analogue of the SIMD register blocking the paper performs with
/// NEON intrinsics.
///
/// # Panics
///
/// Panics if any slice length does not match its dimensions.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_with(KernelBackend::Scalar, m, k, n, a, b, c);
}

/// [`gemm`] with an explicit [`KernelBackend`]: SIMD backends use the
/// register-tiled AVX2/NEON micro-kernels, `Scalar` is bit-identical to the
/// plain [`gemm`].
///
/// # Panics
///
/// Panics if any slice length does not match its dimensions.
pub fn gemm_with(
    kb: KernelBackend,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    check_dims(m, k, n, a, b, c);
    c.fill(0.0);
    gemm_accumulate_with(kb, m, k, n, a, b, c);
}

/// Blocked GEMM that *accumulates* into `c` (`c += a × b`) on `kb`'s kernels:
/// what [`gemm_with`] and [`gemm_mt_with`] run per row block. SIMD results differ
/// from scalar only by FMA rounding (same reduction order over `k`); see
/// `tests/simd_conformance.rs` for the documented tolerance.
///
/// # Panics
///
/// Panics if any slice length does not match its dimensions.
pub fn gemm_accumulate_with(
    kb: KernelBackend,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    check_dims(m, k, n, a, b, c);
    if !gemm_accumulate_simd(kb, 0, m, k, n, a, b, c) {
        gemm_accumulate_scalar(m, k, n, a, b, c);
    }
}

fn gemm_accumulate_scalar(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    for p0 in (0..k).step_by(BLOCK_K) {
        let p1 = (p0 + BLOCK_K).min(k);
        for j0 in (0..n).step_by(BLOCK_N) {
            let j1 = (j0 + BLOCK_N).min(n);
            for i in 0..m {
                let c_row = &mut c[i * n..(i + 1) * n];
                for p in p0..p1 {
                    let a_ip = a[i * k + p];
                    if a_ip == 0.0 {
                        continue;
                    }
                    let b_row = &b[p * n..(p + 1) * n];
                    // Innermost loop: c_row[j] += a_ip * b_row[j]; auto-vectorizes.
                    for j in j0..j1 {
                        c_row[j] += a_ip * b_row[j];
                    }
                }
            }
        }
    }
}

/// Multi-threaded blocked GEMM: `c = a × b` using `threads` workers, parallelized
/// over disjoint blocks of output rows.
///
/// # Panics
///
/// Panics if any slice length does not match its dimensions.
pub fn gemm_mt(threads: usize, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_mt_with(KernelBackend::Scalar, threads, m, k, n, a, b, c);
}

/// [`gemm_mt`] with an explicit [`KernelBackend`] for the per-thread kernel.
///
/// # Panics
///
/// Panics if any slice length does not match its dimensions.
pub fn gemm_mt_with(
    kb: KernelBackend,
    threads: usize,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    check_dims(m, k, n, a, b, c);
    if threads <= 1 || m == 1 {
        gemm_with(kb, m, k, n, a, b, c);
        return;
    }
    parallel_chunks_mut(threads, c, n, |start_row, c_rows| {
        let rows = c_rows.len() / n;
        let a_block = &a[start_row * k..(start_row + rows) * k];
        c_rows.fill(0.0);
        gemm_accumulate_with(kb, rows, k, n, a_block, b, c_rows);
    });
}

/// Number of scalar multiplications a direct `[m,k]×[k,n]` product performs.
///
/// This is the `MUL` term of the paper's backend cost model (Eq. 5).
pub const fn gemm_mul_count(m: usize, k: usize, n: usize) -> usize {
    m * k * n
}

fn check_dims(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &[f32]) {
    assert_eq!(a.len(), m * k, "A must be m*k = {} elements", m * k);
    assert_eq!(b.len(), k * n, "B must be k*n = {} elements", k * n);
    assert_eq!(c.len(), m * n, "C must be m*n = {} elements", m * n);
}

/// Transpose a row-major `[rows, cols]` matrix into a new `[cols, rows]` buffer.
pub fn transpose(rows: usize, cols: usize, src: &[f32]) -> Vec<f32> {
    assert_eq!(src.len(), rows * cols);
    let mut dst = vec![0.0f32; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
    dst
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn blocked_matches_naive() {
        let mut rng = StdRng::seed_from_u64(7);
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (17, 33, 9),
            (64, 64, 64),
            (100, 3, 50),
        ] {
            let a = random_matrix(&mut rng, m * k);
            let b = random_matrix(&mut rng, k * n);
            let mut c_ref = vec![0.0; m * n];
            let mut c = vec![0.0; m * n];
            gemm_naive(m, k, n, &a, &b, &mut c_ref);
            gemm(m, k, n, &a, &b, &mut c);
            assert!(max_diff(&c, &c_ref) < 1e-4, "({m},{k},{n})");
        }
    }

    #[test]
    fn multithreaded_matches_naive() {
        let mut rng = StdRng::seed_from_u64(11);
        for &(m, k, n) in &[(8, 16, 8), (33, 65, 17), (128, 32, 64)] {
            let a = random_matrix(&mut rng, m * k);
            let b = random_matrix(&mut rng, k * n);
            let mut c_ref = vec![0.0; m * n];
            let mut c = vec![0.0; m * n];
            gemm_naive(m, k, n, &a, &b, &mut c_ref);
            gemm_mt(4, m, k, n, &a, &b, &mut c);
            assert!(max_diff(&c, &c_ref) < 1e-4, "({m},{k},{n})");
        }
    }

    #[test]
    fn accumulate_adds_to_existing() {
        let a = vec![1.0, 2.0, 3.0, 4.0]; // 2x2
        let b = vec![1.0, 0.0, 0.0, 1.0]; // identity
        let mut c = vec![10.0, 10.0, 10.0, 10.0];
        gemm_accumulate_with(KernelBackend::Scalar, 2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, vec![11.0, 12.0, 13.0, 14.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 2x3
        let t = transpose(2, 3, &m);
        assert_eq!(t, vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(transpose(3, 2, &t), m);
    }

    #[test]
    fn mul_count_is_product() {
        assert_eq!(gemm_mul_count(2, 3, 4), 24);
    }

    #[test]
    #[should_panic(expected = "A must be")]
    fn dimension_mismatch_panics() {
        let mut c = vec![0.0; 4];
        gemm(2, 2, 2, &[0.0; 3], &[0.0; 4], &mut c);
    }

    #[test]
    fn identity_multiplication() {
        let n = 16;
        let mut rng = StdRng::seed_from_u64(3);
        let a = random_matrix(&mut rng, n * n);
        let mut eye = vec![0.0f32; n * n];
        for i in 0..n {
            eye[i * n + i] = 1.0;
        }
        let mut c = vec![0.0; n * n];
        gemm(n, n, n, &a, &eye, &mut c);
        assert!(max_diff(&c, &a) < 1e-6);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_blocked_and_mt_match_naive(
            m in 1usize..20, k in 1usize..20, n in 1usize..20, seed in 0u64..1000
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = random_matrix(&mut rng, m * k);
            let b = random_matrix(&mut rng, k * n);
            let mut c_ref = vec![0.0; m * n];
            let mut c1 = vec![0.0; m * n];
            let mut c2 = vec![0.0; m * n];
            gemm_naive(m, k, n, &a, &b, &mut c_ref);
            gemm(m, k, n, &a, &b, &mut c1);
            gemm_mt(3, m, k, n, &a, &b, &mut c2);
            prop_assert!(max_diff(&c1, &c_ref) < 1e-4);
            prop_assert!(max_diff(&c2, &c_ref) < 1e-4);
        }

        #[test]
        fn prop_gemm_distributes_over_addition(
            m in 1usize..8, k in 1usize..8, n in 1usize..8, seed in 0u64..1000
        ) {
            // (A1 + A2) * B == A1*B + A2*B
            let mut rng = StdRng::seed_from_u64(seed);
            let a1 = random_matrix(&mut rng, m * k);
            let a2 = random_matrix(&mut rng, m * k);
            let b = random_matrix(&mut rng, k * n);
            let a_sum: Vec<f32> = a1.iter().zip(&a2).map(|(x, y)| x + y).collect();
            let mut lhs = vec![0.0; m * n];
            gemm(m, k, n, &a_sum, &b, &mut lhs);
            let mut c1 = vec![0.0; m * n];
            let mut c2 = vec![0.0; m * n];
            gemm(m, k, n, &a1, &b, &mut c1);
            gemm(m, k, n, &a2, &b, &mut c2);
            let rhs: Vec<f32> = c1.iter().zip(&c2).map(|(x, y)| x + y).collect();
            prop_assert!(max_diff(&lhs, &rhs) < 1e-4);
        }
    }
}
