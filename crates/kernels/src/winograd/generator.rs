//! The Winograd transform generator.
//!
//! Given an output tile size `n` and kernel size `k`, the generator derives the
//! transform matrices of the bilinear algorithm
//!
//! ```text
//! Y = Aᵀ [ (G·W·Gᵀ) ⊙ (Bᵀ·X·B) ] A          (paper Eq. 6)
//! ```
//!
//! from the interpolation points of the paper's Eq. 8: `0, ±f, ±2f, …` with
//! `f = 0.5`, plus the point at infinity. The construction is the classical
//! Toom–Cook/Winograd one:
//!
//! * `G` evaluates the kernel polynomial at each point (the ∞ row picks its leading
//!   coefficient),
//! * `Bᵀ` dots the input with the coefficients of the Lagrange basis polynomials
//!   (the ∞ row with the coefficients of `M(x) = ∏ (x − pᵢ)`),
//! * `Aᵀ` re-evaluates the interpolated product at the points (∞ column selects the
//!   top output coefficient),
//!
//! which yields an exact algorithm using `(n + k − 1)²` multiplications per 2-D tile.

/// Scalar used to spread the interpolation points and minimize numerical error
/// (paper Eq. 8 sets `f = 0.5`).
pub const POINT_SCALE: f64 = 0.5;

/// The Winograd transform matrices for `F(n×n, k×k)`.
///
/// All matrices are stored row-major in `f32`:
/// `a_t` is `n×α`, `g` is `α×k`, `b_t` is `α×α`, with `α = n + k − 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct WinogradTransforms {
    /// Output tile size `n`.
    pub n: usize,
    /// Kernel size `k`.
    pub k: usize,
    /// Input tile size `α = n + k − 1`.
    pub alpha: usize,
    /// Output transform `Aᵀ` (`n × α`).
    pub a_t: Vec<f32>,
    /// Kernel transform `G` (`α × k`).
    pub g: Vec<f32>,
    /// Input transform `Bᵀ` (`α × α`).
    pub b_t: Vec<f32>,
}

impl WinogradTransforms {
    /// Transform a `k×k` kernel tile: `W' = G · W · Gᵀ`, returning an `α×α` tile.
    pub fn transform_kernel(&self, w: &[f32]) -> Vec<f32> {
        assert_eq!(w.len(), self.k * self.k, "kernel tile must be k*k");
        let mut gw = vec![0.0f32; self.alpha * self.k];
        mat_mul(self.alpha, self.k, self.k, &self.g, w, &mut gw);
        let mut out = vec![0.0f32; self.alpha * self.alpha];
        mat_mul_bt(self.alpha, self.k, self.alpha, &gw, &self.g, &mut out);
        out
    }

    /// Transform an `α×α` input tile into `out` (`α×α`): `X' = Bᵀ · X · B`.
    ///
    /// `scratch` holds the intermediate product and must be at least `α×α`
    /// long. The kernel calls this once per tile per channel, so nothing here
    /// allocates, and the arithmetic is scalar on every host: rows of 4–8
    /// elements are too short for the vector `dot`/`axpy` to pay for their
    /// dispatch.
    pub fn transform_input(&self, x: &[f32], scratch: &mut [f32], out: &mut [f32]) {
        let alpha = self.alpha;
        assert_eq!(x.len(), alpha * alpha, "input tile must be alpha*alpha");
        mat_mul(alpha, alpha, alpha, &self.b_t, x, scratch);
        mat_mul_bt(alpha, alpha, alpha, scratch, &self.b_t, out);
    }

    /// Inverse-transform an `α×α` product tile into `out` (`n×n`):
    /// `Y = Aᵀ · Y' · A`. `scratch` as for
    /// [`WinogradTransforms::transform_input`].
    pub fn transform_output(&self, y: &[f32], scratch: &mut [f32], out: &mut [f32]) {
        let (n, alpha) = (self.n, self.alpha);
        assert_eq!(y.len(), alpha * alpha, "product tile must be alpha*alpha");
        mat_mul(n, alpha, alpha, &self.a_t, y, scratch);
        mat_mul_bt(n, alpha, n, scratch, &self.a_t, out);
    }
}

/// `C = A(m×k) · B(k×n)` for small row-major matrices, into `c[..m*n]`.
fn mat_mul(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let c = &mut c[..m * n];
    c.fill(0.0);
    for i in 0..m {
        let c_row = &mut c[i * n..(i + 1) * n];
        for p in 0..k {
            let av = a[i * k + p];
            for (d, s) in c_row.iter_mut().zip(&b[p * n..(p + 1) * n]) {
                *d += av * s;
            }
        }
    }
}

/// `C = A(m×k) · Bᵀ` where `B` is `n×k` row-major (so `Bᵀ` is `k×n`), into
/// `c[..m*n]`.
fn mat_mul_bt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..n {
            c[i * n + j] = a_row
                .iter()
                .zip(&b[j * k..(j + 1) * k])
                .map(|(x, y)| x * y)
                .sum();
        }
    }
}

/// The interpolation points of Eq. 8: `0, +f, −f, +2f, −2f, …` (`count` of them).
pub fn interpolation_points(count: usize) -> Vec<f64> {
    let mut points = Vec::with_capacity(count);
    if count == 0 {
        return points;
    }
    points.push(0.0);
    let mut step = 1usize;
    while points.len() < count {
        points.push(step as f64 * POINT_SCALE);
        if points.len() < count {
            points.push(-(step as f64) * POINT_SCALE);
        }
        step += 1;
    }
    points
}

/// Multiply two polynomials given by ascending-degree coefficient vectors.
fn poly_mul(a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; a.len() + b.len() - 1];
    for (i, &x) in a.iter().enumerate() {
        for (j, &y) in b.iter().enumerate() {
            out[i + j] += x * y;
        }
    }
    out
}

/// Generate the Winograd transforms for `F(n×n, k×k)`.
///
/// # Panics
///
/// Panics if `n == 0` or `k == 0`. For `n == 1` the transforms degenerate to a
/// direct dot product; the scheme-selection logic never uses Winograd in that case
/// but the matrices are still mathematically valid.
pub fn generate(n: usize, k: usize) -> WinogradTransforms {
    assert!(n >= 1, "output tile size must be >= 1");
    assert!(k >= 1, "kernel size must be >= 1");
    let alpha = n + k - 1;
    let num_finite = alpha - 1;
    let points = interpolation_points(num_finite);

    // --- B^T: rows 0..alpha-1 hold Lagrange basis coefficients, last row holds M(x).
    let mut b_t = vec![0.0f64; alpha * alpha];
    for (r, &p_r) in points.iter().enumerate() {
        // numerator polynomial ∏_{s≠r} (x − p_s) and scalar denominator ∏ (p_r − p_s)
        let mut num = vec![1.0f64];
        let mut denom = 1.0f64;
        for (s, &p_s) in points.iter().enumerate() {
            if s == r {
                continue;
            }
            num = poly_mul(&num, &[-p_s, 1.0]);
            denom *= p_r - p_s;
        }
        for (t, &coeff) in num.iter().enumerate() {
            b_t[r * alpha + t] = coeff / denom;
        }
    }
    if num_finite > 0 || alpha == 1 {
        // M(x) = ∏ (x − p_s), degree alpha-1 (equals 1 when there are no points).
        let mut m_poly = vec![1.0f64];
        for &p_s in &points {
            m_poly = poly_mul(&m_poly, &[-p_s, 1.0]);
        }
        for (t, &coeff) in m_poly.iter().enumerate() {
            b_t[(alpha - 1) * alpha + t] = coeff;
        }
    }

    // --- G: rows are kernel-polynomial evaluations; last row selects the leading coeff.
    let mut g = vec![0.0f64; alpha * k];
    for (r, &p_r) in points.iter().enumerate() {
        let mut power = 1.0f64;
        for j in 0..k {
            g[r * k + j] = power;
            power *= p_r;
        }
    }
    g[(alpha - 1) * k + (k - 1)] = 1.0;

    // --- A^T: columns are output-polynomial evaluations; last column selects the top
    // output coefficient.
    let mut a_t = vec![0.0f64; n * alpha];
    for (r, &p_r) in points.iter().enumerate() {
        let mut power = 1.0f64;
        for i in 0..n {
            a_t[i * alpha + r] = power;
            power *= p_r;
        }
    }
    a_t[(n - 1) * alpha + (alpha - 1)] = 1.0;

    WinogradTransforms {
        n,
        k,
        alpha,
        a_t: a_t.into_iter().map(|v| v as f32).collect(),
        g: g.into_iter().map(|v| v as f32).collect(),
        b_t: b_t.into_iter().map(|v| v as f32).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Direct 1-D correlation: y_i = Σ_j d_{i+j} g_j.
    fn correlate_1d(d: &[f32], g: &[f32], n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| g.iter().enumerate().map(|(j, &gv)| gv * d[i + j]).sum())
            .collect()
    }

    /// 1-D Winograd: y = A^T [(G g) ⊙ (B^T d)].
    fn winograd_1d(t: &WinogradTransforms, d: &[f32], g: &[f32]) -> Vec<f32> {
        let alpha = t.alpha;
        let gg: Vec<f32> = (0..alpha)
            .map(|r| (0..t.k).map(|j| t.g[r * t.k + j] * g[j]).sum())
            .collect();
        let bd: Vec<f32> = (0..alpha)
            .map(|r| (0..alpha).map(|c| t.b_t[r * alpha + c] * d[c]).sum())
            .collect();
        let had: Vec<f32> = gg.iter().zip(&bd).map(|(a, b)| a * b).collect();
        (0..t.n)
            .map(|i| (0..alpha).map(|r| t.a_t[i * alpha + r] * had[r]).sum())
            .collect()
    }

    #[test]
    fn points_follow_eq8_pattern() {
        assert_eq!(interpolation_points(0), Vec::<f64>::new());
        assert_eq!(interpolation_points(1), vec![0.0]);
        assert_eq!(interpolation_points(3), vec![0.0, 0.5, -0.5]);
        assert_eq!(interpolation_points(5), vec![0.0, 0.5, -0.5, 1.0, -1.0]);
    }

    #[test]
    fn matrices_have_expected_shapes() {
        let t = generate(2, 3);
        assert_eq!(t.alpha, 4);
        assert_eq!(t.a_t.len(), 2 * 4);
        assert_eq!(t.g.len(), 4 * 3);
        assert_eq!(t.b_t.len(), 4 * 4);
    }

    #[test]
    fn f23_matches_direct_correlation() {
        let t = generate(2, 3);
        let d = [1.0, 2.0, -3.0, 4.0];
        let g = [0.5, -1.0, 2.0];
        let expected = correlate_1d(&d, &g, 2);
        let got = winograd_1d(&t, &d, &g);
        for (e, o) in expected.iter().zip(&got) {
            assert!((e - o).abs() < 1e-4, "{expected:?} vs {got:?}");
        }
    }

    #[test]
    fn many_tile_and_kernel_sizes_are_exact() {
        let mut rng = StdRng::seed_from_u64(42);
        for k in 2..=7usize {
            for n in 1..=6usize {
                let t = generate(n, k);
                let alpha = n + k - 1;
                let d: Vec<f32> = (0..alpha).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let g: Vec<f32> = (0..k).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let expected = correlate_1d(&d, &g, n);
                let got = winograd_1d(&t, &d, &g);
                let max_mag = expected.iter().fold(1.0f32, |m, v| m.max(v.abs()));
                for (e, o) in expected.iter().zip(&got) {
                    assert!(
                        (e - o).abs() / max_mag < 1e-2,
                        "F({n},{k}): {expected:?} vs {got:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn two_dimensional_identity_on_small_tile() {
        // Y = A^T [(G W G^T) ⊙ (B^T X B)] A must equal direct 2-D correlation.
        let mut rng = StdRng::seed_from_u64(7);
        let (n, k) = (2usize, 3usize);
        let t = generate(n, k);
        let alpha = t.alpha;
        let x: Vec<f32> = (0..alpha * alpha)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let w: Vec<f32> = (0..k * k).map(|_| rng.gen_range(-1.0..1.0)).collect();

        let wt = t.transform_kernel(&w);
        let mut scratch = vec![0.0f32; alpha * alpha];
        let mut xt = vec![0.0f32; alpha * alpha];
        t.transform_input(&x, &mut scratch, &mut xt);
        let had: Vec<f32> = wt.iter().zip(&xt).map(|(a, b)| a * b).collect();
        let mut y = vec![0.0f32; n * n];
        t.transform_output(&had, &mut scratch, &mut y);

        for oy in 0..n {
            for ox in 0..n {
                let mut acc = 0.0f32;
                for ky in 0..k {
                    for kx in 0..k {
                        acc += x[(oy + ky) * alpha + ox + kx] * w[ky * k + kx];
                    }
                }
                assert!((acc - y[oy * n + ox]).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn kernel_transform_shape() {
        let t = generate(4, 3);
        let w = vec![1.0f32; 9];
        assert_eq!(t.transform_kernel(&w).len(), t.alpha * t.alpha);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_1d_winograd_equals_direct(
            n in 1usize..6, k in 2usize..6, seed in 0u64..500
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let t = generate(n, k);
            let alpha = n + k - 1;
            let d: Vec<f32> = (0..alpha).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let g: Vec<f32> = (0..k).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let expected = correlate_1d(&d, &g, n);
            let got = winograd_1d(&t, &d, &g);
            let max_mag = expected.iter().fold(1.0f32, |m, v| m.max(v.abs()));
            for (e, o) in expected.iter().zip(&got) {
                prop_assert!((e - o).abs() / max_mag < 2e-2);
            }
        }
    }
}
