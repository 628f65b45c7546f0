//! Runtime-detected SIMD kernel backends: AVX2/FMA on x86_64, NEON on aarch64.
//!
//! The paper's single-op speed claims (Section 3.2) rest on hand-vectorized
//! micro-kernels; this module supplies them behind a tiny dispatch enum,
//! [`KernelBackend`], with the existing scalar code as the guaranteed
//! fallback on every platform.
//!
//! Three design rules keep the rest of the crate simple:
//!
//! 1. **Explicit dispatch.** Kernels take a [`KernelBackend`] value via their
//!    `_with` entry points — the CPU backend passes [`KernelBackend::active`]
//!    to every one of them; the plain entry points (`gemm`, `conv2d_im2col`,
//!    …) stay scalar, as the references the conformance tests compare against.
//! 2. **Runtime detection, env override.** [`KernelBackend::active`] returns
//!    the best backend the host supports, unless the `MNN_SIMD` environment
//!    variable is set to `scalar`/`off`/`0`, which forces the scalar path
//!    (useful for CI and conformance baselines).
//! 3. **Exact where exactness is free.** Integer kernels ([`i8_axpy_i32`])
//!    are bit-identical to scalar because i32 addition is associative. Float
//!    kernels use FMA and lane-parallel accumulation, so they differ from
//!    scalar by a documented, tested tolerance (see `tests/simd_conformance.rs`).

use std::sync::OnceLock;

/// A kernel implementation family. `Scalar` is always available; the SIMD
/// variants exist only on their architecture *and* only run when the host
/// supports the required features.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// Portable scalar Rust (the reference implementation).
    Scalar,
    /// x86_64 AVX2 + FMA (256-bit lanes, fused multiply-add).
    Avx2Fma,
    /// aarch64 NEON (128-bit lanes; baseline on all aarch64 targets).
    Neon,
}

impl KernelBackend {
    /// Whether the *hardware this process runs on* can execute this backend,
    /// ignoring the `MNN_SIMD` policy override. Conformance tests use this to
    /// decide whether a SIMD-vs-scalar comparison is possible at all.
    pub fn hw_supported(self) -> bool {
        match self {
            KernelBackend::Scalar => true,
            KernelBackend::Avx2Fma => {
                #[cfg(target_arch = "x86_64")]
                {
                    is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            KernelBackend::Neon => cfg!(target_arch = "aarch64"),
        }
    }

    /// The backend SIMD kernels actually dispatch to on this host: the best
    /// hardware-supported backend, unless `MNN_SIMD` is set to
    /// `scalar`/`off`/`0`, which pins it to [`KernelBackend::Scalar`].
    ///
    /// The decision (including the environment read) is made once per process
    /// and cached.
    pub fn active() -> KernelBackend {
        static ACTIVE: OnceLock<KernelBackend> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            if let Ok(v) = std::env::var("MNN_SIMD") {
                let v = v.to_ascii_lowercase();
                if v == "scalar" || v == "off" || v == "0" {
                    return KernelBackend::Scalar;
                }
            }
            if KernelBackend::Avx2Fma.hw_supported() {
                KernelBackend::Avx2Fma
            } else if KernelBackend::Neon.hw_supported() {
                KernelBackend::Neon
            } else {
                KernelBackend::Scalar
            }
        })
    }

    /// Stable short name, used in device fingerprints and reports.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Avx2Fma => "avx2fma",
            KernelBackend::Neon => "neon",
        }
    }

    /// Whether this is a vectorized (non-scalar) backend.
    pub fn is_simd(self) -> bool {
        self != KernelBackend::Scalar
    }
}

/// Name of the active kernel backend (`"scalar"`, `"avx2fma"`, `"neon"`),
/// recorded in `DeviceFingerprint` so persisted tuning caches can never
/// install a kernel the loading host lacks.
pub fn active_kernel_set() -> &'static str {
    KernelBackend::active().name()
}

// ---------------------------------------------------------------------------
// f32 axpy: dst[i] += a * src[i]
// ---------------------------------------------------------------------------

/// `dst[i] += a * src[i]` over the common length of the slices.
///
/// Scalar backend matches the naive loop exactly; SIMD backends use FMA and
/// may differ from scalar in the last ulp per element (no reassociation —
/// each output lane is still a single chain of adds in the same order).
pub fn axpy_f32(kb: KernelBackend, dst: &mut [f32], src: &[f32], a: f32) {
    let len = dst.len().min(src.len());
    match kb {
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx2Fma if KernelBackend::Avx2Fma.hw_supported() => unsafe {
            x86::axpy_f32_avx2(&mut dst[..len], &src[..len], a);
        },
        #[cfg(target_arch = "aarch64")]
        KernelBackend::Neon => unsafe {
            neon::axpy_f32_neon(&mut dst[..len], &src[..len], a);
        },
        _ => {
            for (d, s) in dst[..len].iter_mut().zip(&src[..len]) {
                *d += a * s;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// int8 axpy into i32 accumulators: acc[i] += w * x[i] as i32
// ---------------------------------------------------------------------------

/// `acc[i] += w * (x[i] as i32)` over the common length.
///
/// Bit-identical across all backends: every product is exact in i32 and i32
/// addition is associative, so vectorization cannot change the result.
pub fn i8_axpy_i32(kb: KernelBackend, acc: &mut [i32], x: &[i8], w: i32) {
    let len = acc.len().min(x.len());
    match kb {
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx2Fma if KernelBackend::Avx2Fma.hw_supported() => unsafe {
            x86::i8_axpy_i32_avx2(&mut acc[..len], &x[..len], w);
        },
        #[cfg(target_arch = "aarch64")]
        KernelBackend::Neon => unsafe {
            neon::i8_axpy_i32_neon(&mut acc[..len], &x[..len], w);
        },
        _ => {
            for (a, &c) in acc[..len].iter_mut().zip(&x[..len]) {
                *a += w * c as i32;
            }
        }
    }
}

/// Paired int8 axpy: `acc[i] += w1 * x1[i] + w2 * x2[i]` over the common length.
///
/// Processing two weight rows per pass lets the AVX2 path multiply in i16 —
/// `|w| <= 127, |x| <= 128` bounds each product at 16256 and the pair sum at
/// 32512, both exact in i16 — which doubles the lanes per instruction vs
/// widening each row to i32. Bit-identical to two [`i8_axpy_i32`] calls:
/// every intermediate is exact and i32 addition is associative. Weights
/// outside `[-127, 127]` (where the i16 bound would not hold) take the
/// one-row path instead, staying exact.
pub fn i8_axpy2_i32(kb: KernelBackend, acc: &mut [i32], x1: &[i8], w1: i32, x2: &[i8], w2: i32) {
    let len = acc.len().min(x1.len()).min(x2.len());
    if w1.abs() > 127 || w2.abs() > 127 {
        i8_axpy_i32(kb, &mut acc[..len], &x1[..len], w1);
        i8_axpy_i32(kb, acc, &x2[..len], w2);
        return;
    }
    match kb {
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx2Fma if KernelBackend::Avx2Fma.hw_supported() => unsafe {
            x86::i8_axpy2_i32_avx2(&mut acc[..len], &x1[..len], w1, &x2[..len], w2);
        },
        #[cfg(target_arch = "aarch64")]
        KernelBackend::Neon => unsafe {
            neon::i8_axpy_i32_neon(&mut acc[..len], &x1[..len], w1);
            neon::i8_axpy_i32_neon(&mut acc[..len], &x2[..len], w2);
        },
        _ => {
            for ((a, &c1), &c2) in acc[..len].iter_mut().zip(&x1[..len]).zip(&x2[..len]) {
                *a += w1 * c1 as i32 + w2 * c2 as i32;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// f32 GEMM accumulate: C += A * B (row-major, no zero-fill)
// ---------------------------------------------------------------------------

/// SIMD `c += a * b` for row-major `a` (`m x k`), `b` (`k x n`), `c` (`m x n`),
/// restricted to the row range `[row_start, row_end)` of `a`/`c`.
///
/// Returns `false` when `kb` has no SIMD implementation on this host, in
/// which case the caller must run its scalar path. Register-tiled: AVX2 uses
/// 4x16 tiles (8 YMM accumulators, FMA), NEON uses 4x8 tiles.
pub fn gemm_accumulate_simd(
    kb: KernelBackend,
    row_start: usize,
    row_end: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) -> bool {
    debug_assert!(row_end <= c.len() / n.max(1));
    match kb {
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx2Fma if KernelBackend::Avx2Fma.hw_supported() => {
            unsafe { x86::gemm_accumulate_avx2(row_start, row_end, k, n, a, b, c) };
            true
        }
        #[cfg(target_arch = "aarch64")]
        KernelBackend::Neon => {
            unsafe { neon::gemm_accumulate_neon(row_start, row_end, k, n, a, b, c) };
            true
        }
        _ => false,
    }
}

/// K-dimension blocking shared with the scalar GEMM (`crate::gemm::BLOCK_K`):
/// bounds how much of `b` is streamed per C-tile load/store round trip.
const BLOCK_K: usize = 256;

/// N-dimension blocking: the row tiles sweep a `BLOCK_K x BLOCK_N` panel of
/// `b` (1 MiB) that stays L2-resident across the whole m-sweep. Without it,
/// wide GEMMs (im2col of early conv layers has `n = out_h*out_w` in the
/// thousands) re-stream `b` from DRAM once per row tile and the FMA units
/// starve — measured on a 2 MiB-L2 Xeon, 64x576x3600 goes from 12 to >30
/// GFLOP/s with this split.
const BLOCK_N: usize = 1024;

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{BLOCK_K, BLOCK_N};
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    /// # Safety
    /// Caller must ensure the host supports AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn axpy_f32_avx2(dst: &mut [f32], src: &[f32], a: f32) {
        let len = dst.len();
        let d = dst.as_mut_ptr();
        let s = src.as_ptr();
        let av = _mm256_set1_ps(a);
        let mut i = 0usize;
        while i + 8 <= len {
            let acc = _mm256_fmadd_ps(av, _mm256_loadu_ps(s.add(i)), _mm256_loadu_ps(d.add(i)));
            _mm256_storeu_ps(d.add(i), acc);
            i += 8;
        }
        if i + 4 <= len {
            let av4 = _mm_set1_ps(a);
            let acc = _mm_fmadd_ps(av4, _mm_loadu_ps(s.add(i)), _mm_loadu_ps(d.add(i)));
            _mm_storeu_ps(d.add(i), acc);
            i += 4;
        }
        while i < len {
            *d.add(i) += a * *s.add(i);
            i += 1;
        }
    }

    /// # Safety
    /// Caller must ensure the host supports AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn i8_axpy_i32_avx2(acc: &mut [i32], x: &[i8], w: i32) {
        let len = acc.len();
        let ap = acc.as_mut_ptr();
        let xp = x.as_ptr();
        let wv = _mm256_set1_epi32(w);
        let mut i = 0usize;
        while i + 8 <= len {
            // 8 bytes of i8 -> 8 lanes of i32, exact multiply-add in i32.
            let bytes = _mm_loadl_epi64(xp.add(i) as *const __m128i);
            let x32 = _mm256_cvtepi8_epi32(bytes);
            let prod = _mm256_mullo_epi32(x32, wv);
            let cur = _mm256_loadu_si256(ap.add(i) as *const __m256i);
            _mm256_storeu_si256(ap.add(i) as *mut __m256i, _mm256_add_epi32(cur, prod));
            i += 8;
        }
        while i < len {
            *ap.add(i) += w * *xp.add(i) as i32;
            i += 1;
        }
    }

    /// Paired int8 axpy: `acc += w1 * x1 + w2 * x2` with exact i16 products.
    ///
    /// With `|w| <= 127` each product is at most 16256 and the pair sum at
    /// most 32512 — both exact in i16 — so multiplying 16 lanes in i16 and
    /// widening the sum once is exact: twice the throughput of
    /// [`i8_axpy_i32_avx2`] per weight row.
    ///
    /// # Safety
    /// Caller must ensure the host supports AVX2; `acc`, `x1` and `x2` must
    /// have equal lengths and `|w1|, |w2| <= 127`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn i8_axpy2_i32_avx2(
        acc: &mut [i32],
        x1: &[i8],
        w1: i32,
        x2: &[i8],
        w2: i32,
    ) {
        let len = acc.len();
        let ap = acc.as_mut_ptr();
        let p1 = x1.as_ptr();
        let p2 = x2.as_ptr();
        let w1v = _mm256_set1_epi16(w1 as i16);
        let w2v = _mm256_set1_epi16(w2 as i16);
        let mut i = 0usize;
        while i + 16 <= len {
            // 16 bytes of each row -> 16 lanes of i16, exact products and sum.
            let a16 = _mm256_cvtepi8_epi16(_mm_loadu_si128(p1.add(i) as *const __m128i));
            let b16 = _mm256_cvtepi8_epi16(_mm_loadu_si128(p2.add(i) as *const __m128i));
            let sum16 =
                _mm256_add_epi16(_mm256_mullo_epi16(a16, w1v), _mm256_mullo_epi16(b16, w2v));
            // Widen the i16 pair-sums to i32 and accumulate.
            let lo = _mm256_cvtepi16_epi32(_mm256_castsi256_si128(sum16));
            let hi = _mm256_cvtepi16_epi32(_mm256_extracti128_si256(sum16, 1));
            let cur_lo = _mm256_loadu_si256(ap.add(i) as *const __m256i);
            let cur_hi = _mm256_loadu_si256(ap.add(i + 8) as *const __m256i);
            _mm256_storeu_si256(ap.add(i) as *mut __m256i, _mm256_add_epi32(cur_lo, lo));
            _mm256_storeu_si256(ap.add(i + 8) as *mut __m256i, _mm256_add_epi32(cur_hi, hi));
            i += 16;
        }
        while i < len {
            *ap.add(i) += w1 * *p1.add(i) as i32 + w2 * *p2.add(i) as i32;
            i += 1;
        }
    }

    /// Register-tiled `c += a * b` over rows `[row_start, row_end)`.
    ///
    /// 4x16 main tile: 8 YMM accumulators, per k-step 2 B loads + 4 A
    /// broadcasts + 8 FMAs. Row remainder uses a 1x16 kernel; column
    /// remainders fall to an 8-wide kernel and then scalar. Loop nest is
    /// k-block -> j-block -> row tiles, so each `BLOCK_K x BLOCK_N` panel of
    /// `b` is reused from L2 by every row tile instead of being re-streamed
    /// from DRAM.
    ///
    /// # Safety
    /// Caller must ensure the host supports AVX2 and FMA, and that
    /// `a` is at least `row_end * k`, `b` at least `k * n`, `c` at least
    /// `row_end * n` elements.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn gemm_accumulate_avx2(
        row_start: usize,
        row_end: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) {
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let cp = c.as_mut_ptr();
        let mut pb = 0usize;
        while pb < k {
            let pe = (pb + BLOCK_K).min(k);
            let mut jb = 0usize;
            while jb < n {
                let je = (jb + BLOCK_N).min(n);
                let mut i = row_start;
                while i + 4 <= row_end {
                    tile_4(ap, bp, cp, i, pb, pe, jb, je, k, n);
                    i += 4;
                }
                while i < row_end {
                    tile_1(ap, bp, cp, i, pb, pe, jb, je, k, n);
                    i += 1;
                }
                jb = je;
            }
            pb = pe;
        }
    }

    /// 4-row register tile over columns `[jb, je)`. See
    /// [`gemm_accumulate_avx2`].
    ///
    /// # Safety
    /// Same bounds contract as [`gemm_accumulate_avx2`], with `i + 4 <= row_end`
    /// and `je <= n`.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn tile_4(
        ap: *const f32,
        bp: *const f32,
        cp: *mut f32,
        i: usize,
        pb: usize,
        pe: usize,
        jb: usize,
        je: usize,
        k: usize,
        n: usize,
    ) {
        let a0 = ap.add(i * k);
        let a1 = ap.add((i + 1) * k);
        let a2 = ap.add((i + 2) * k);
        let a3 = ap.add((i + 3) * k);
        let c0 = cp.add(i * n);
        let c1 = cp.add((i + 1) * n);
        let c2 = cp.add((i + 2) * n);
        let c3 = cp.add((i + 3) * n);
        let mut j = jb;
        while j + 16 <= je {
            let mut acc00 = _mm256_loadu_ps(c0.add(j));
            let mut acc01 = _mm256_loadu_ps(c0.add(j + 8));
            let mut acc10 = _mm256_loadu_ps(c1.add(j));
            let mut acc11 = _mm256_loadu_ps(c1.add(j + 8));
            let mut acc20 = _mm256_loadu_ps(c2.add(j));
            let mut acc21 = _mm256_loadu_ps(c2.add(j + 8));
            let mut acc30 = _mm256_loadu_ps(c3.add(j));
            let mut acc31 = _mm256_loadu_ps(c3.add(j + 8));
            for p in pb..pe {
                let b0 = _mm256_loadu_ps(bp.add(p * n + j));
                let b1 = _mm256_loadu_ps(bp.add(p * n + j + 8));
                let v0 = _mm256_set1_ps(*a0.add(p));
                acc00 = _mm256_fmadd_ps(v0, b0, acc00);
                acc01 = _mm256_fmadd_ps(v0, b1, acc01);
                let v1 = _mm256_set1_ps(*a1.add(p));
                acc10 = _mm256_fmadd_ps(v1, b0, acc10);
                acc11 = _mm256_fmadd_ps(v1, b1, acc11);
                let v2 = _mm256_set1_ps(*a2.add(p));
                acc20 = _mm256_fmadd_ps(v2, b0, acc20);
                acc21 = _mm256_fmadd_ps(v2, b1, acc21);
                let v3 = _mm256_set1_ps(*a3.add(p));
                acc30 = _mm256_fmadd_ps(v3, b0, acc30);
                acc31 = _mm256_fmadd_ps(v3, b1, acc31);
            }
            _mm256_storeu_ps(c0.add(j), acc00);
            _mm256_storeu_ps(c0.add(j + 8), acc01);
            _mm256_storeu_ps(c1.add(j), acc10);
            _mm256_storeu_ps(c1.add(j + 8), acc11);
            _mm256_storeu_ps(c2.add(j), acc20);
            _mm256_storeu_ps(c2.add(j + 8), acc21);
            _mm256_storeu_ps(c3.add(j), acc30);
            _mm256_storeu_ps(c3.add(j + 8), acc31);
            j += 16;
        }
        while j + 8 <= je {
            let mut acc0 = _mm256_loadu_ps(c0.add(j));
            let mut acc1 = _mm256_loadu_ps(c1.add(j));
            let mut acc2 = _mm256_loadu_ps(c2.add(j));
            let mut acc3 = _mm256_loadu_ps(c3.add(j));
            for p in pb..pe {
                let bv = _mm256_loadu_ps(bp.add(p * n + j));
                acc0 = _mm256_fmadd_ps(_mm256_set1_ps(*a0.add(p)), bv, acc0);
                acc1 = _mm256_fmadd_ps(_mm256_set1_ps(*a1.add(p)), bv, acc1);
                acc2 = _mm256_fmadd_ps(_mm256_set1_ps(*a2.add(p)), bv, acc2);
                acc3 = _mm256_fmadd_ps(_mm256_set1_ps(*a3.add(p)), bv, acc3);
            }
            _mm256_storeu_ps(c0.add(j), acc0);
            _mm256_storeu_ps(c1.add(j), acc1);
            _mm256_storeu_ps(c2.add(j), acc2);
            _mm256_storeu_ps(c3.add(j), acc3);
            j += 8;
        }
        while j < je {
            let mut s0 = *c0.add(j);
            let mut s1 = *c1.add(j);
            let mut s2 = *c2.add(j);
            let mut s3 = *c3.add(j);
            for p in pb..pe {
                let bv = *bp.add(p * n + j);
                s0 = (*a0.add(p)).mul_add(bv, s0);
                s1 = (*a1.add(p)).mul_add(bv, s1);
                s2 = (*a2.add(p)).mul_add(bv, s2);
                s3 = (*a3.add(p)).mul_add(bv, s3);
            }
            *c0.add(j) = s0;
            *c1.add(j) = s1;
            *c2.add(j) = s2;
            *c3.add(j) = s3;
            j += 1;
        }
    }

    /// Single-row remainder kernel over columns `[jb, je)`. See
    /// [`gemm_accumulate_avx2`].
    ///
    /// # Safety
    /// Same bounds contract as [`gemm_accumulate_avx2`], with `i < row_end`
    /// and `je <= n`.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn tile_1(
        ap: *const f32,
        bp: *const f32,
        cp: *mut f32,
        i: usize,
        pb: usize,
        pe: usize,
        jb: usize,
        je: usize,
        k: usize,
        n: usize,
    ) {
        let arow = ap.add(i * k);
        let crow = cp.add(i * n);
        let mut j = jb;
        while j + 16 <= je {
            let mut acc0 = _mm256_loadu_ps(crow.add(j));
            let mut acc1 = _mm256_loadu_ps(crow.add(j + 8));
            for p in pb..pe {
                let av = _mm256_set1_ps(*arow.add(p));
                acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(p * n + j)), acc0);
                acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(p * n + j + 8)), acc1);
            }
            _mm256_storeu_ps(crow.add(j), acc0);
            _mm256_storeu_ps(crow.add(j + 8), acc1);
            j += 16;
        }
        while j + 8 <= je {
            let mut acc = _mm256_loadu_ps(crow.add(j));
            for p in pb..pe {
                acc = _mm256_fmadd_ps(
                    _mm256_set1_ps(*arow.add(p)),
                    _mm256_loadu_ps(bp.add(p * n + j)),
                    acc,
                );
            }
            _mm256_storeu_ps(crow.add(j), acc);
            j += 8;
        }
        while j < je {
            let mut s = *crow.add(j);
            for p in pb..pe {
                s = (*arow.add(p)).mul_add(*bp.add(p * n + j), s);
            }
            *crow.add(j) = s;
            j += 1;
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{BLOCK_K, BLOCK_N};
    #[allow(clippy::wildcard_imports)]
    use std::arch::aarch64::*;

    /// # Safety
    /// NEON is baseline on aarch64; slices must cover the accessed ranges.
    pub(super) unsafe fn axpy_f32_neon(dst: &mut [f32], src: &[f32], a: f32) {
        let len = dst.len();
        let d = dst.as_mut_ptr();
        let s = src.as_ptr();
        let av = vdupq_n_f32(a);
        let mut i = 0usize;
        while i + 4 <= len {
            let acc = vfmaq_f32(vld1q_f32(d.add(i)), av, vld1q_f32(s.add(i)));
            vst1q_f32(d.add(i), acc);
            i += 4;
        }
        while i < len {
            *d.add(i) += a * *s.add(i);
            i += 1;
        }
    }

    /// # Safety
    /// NEON is baseline on aarch64; slices must cover the accessed ranges.
    pub(super) unsafe fn i8_axpy_i32_neon(acc: &mut [i32], x: &[i8], w: i32) {
        let len = acc.len();
        let ap = acc.as_mut_ptr();
        let xp = x.as_ptr();
        let mut i = 0usize;
        while i + 8 <= len {
            let bytes = vld1_s8(xp.add(i));
            let x16 = vmovl_s8(bytes);
            let lo = vmovl_s16(vget_low_s16(x16));
            let hi = vmovl_s16(vget_high_s16(x16));
            let cur_lo = vld1q_s32(ap.add(i));
            let cur_hi = vld1q_s32(ap.add(i + 4));
            vst1q_s32(ap.add(i), vmlaq_n_s32(cur_lo, lo, w));
            vst1q_s32(ap.add(i + 4), vmlaq_n_s32(cur_hi, hi, w));
            i += 8;
        }
        while i < len {
            *ap.add(i) += w * *xp.add(i) as i32;
            i += 1;
        }
    }

    /// Register-tiled `c += a * b` over rows `[row_start, row_end)`: 4x8 main
    /// tile (8 q-register accumulators), 1-row remainder, 4-wide and scalar
    /// column tails. Loop nest is k-block -> j-block -> row tiles so each
    /// `BLOCK_K x BLOCK_N` panel of `b` stays cache-resident across the
    /// m-sweep (see [`BLOCK_N`]).
    ///
    /// # Safety
    /// `a` must be at least `row_end * k`, `b` at least `k * n`, `c` at least
    /// `row_end * n` elements.
    pub(super) unsafe fn gemm_accumulate_neon(
        row_start: usize,
        row_end: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) {
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let cp = c.as_mut_ptr();
        let mut pb = 0usize;
        while pb < k {
            let pe = (pb + BLOCK_K).min(k);
            let mut jb = 0usize;
            while jb < n {
                let je = (jb + BLOCK_N).min(n);
                let mut i = row_start;
                while i + 4 <= row_end {
                    tile_4(ap, bp, cp, i, pb, pe, jb, je, k, n);
                    i += 4;
                }
                while i < row_end {
                    tile_1(ap, bp, cp, i, pb, pe, jb, je, k, n);
                    i += 1;
                }
                jb = je;
            }
            pb = pe;
        }
    }

    /// # Safety
    /// Same contract as [`gemm_accumulate_neon`], with `i + 4 <= row_end` and
    /// `je <= n`.
    #[allow(clippy::too_many_arguments)]
    unsafe fn tile_4(
        ap: *const f32,
        bp: *const f32,
        cp: *mut f32,
        i: usize,
        pb: usize,
        pe: usize,
        jb: usize,
        je: usize,
        k: usize,
        n: usize,
    ) {
        let a0 = ap.add(i * k);
        let a1 = ap.add((i + 1) * k);
        let a2 = ap.add((i + 2) * k);
        let a3 = ap.add((i + 3) * k);
        let c0 = cp.add(i * n);
        let c1 = cp.add((i + 1) * n);
        let c2 = cp.add((i + 2) * n);
        let c3 = cp.add((i + 3) * n);
        let mut j = jb;
        while j + 8 <= je {
            let mut acc00 = vld1q_f32(c0.add(j));
            let mut acc01 = vld1q_f32(c0.add(j + 4));
            let mut acc10 = vld1q_f32(c1.add(j));
            let mut acc11 = vld1q_f32(c1.add(j + 4));
            let mut acc20 = vld1q_f32(c2.add(j));
            let mut acc21 = vld1q_f32(c2.add(j + 4));
            let mut acc30 = vld1q_f32(c3.add(j));
            let mut acc31 = vld1q_f32(c3.add(j + 4));
            for p in pb..pe {
                let b0 = vld1q_f32(bp.add(p * n + j));
                let b1 = vld1q_f32(bp.add(p * n + j + 4));
                acc00 = vfmaq_n_f32(acc00, b0, *a0.add(p));
                acc01 = vfmaq_n_f32(acc01, b1, *a0.add(p));
                acc10 = vfmaq_n_f32(acc10, b0, *a1.add(p));
                acc11 = vfmaq_n_f32(acc11, b1, *a1.add(p));
                acc20 = vfmaq_n_f32(acc20, b0, *a2.add(p));
                acc21 = vfmaq_n_f32(acc21, b1, *a2.add(p));
                acc30 = vfmaq_n_f32(acc30, b0, *a3.add(p));
                acc31 = vfmaq_n_f32(acc31, b1, *a3.add(p));
            }
            vst1q_f32(c0.add(j), acc00);
            vst1q_f32(c0.add(j + 4), acc01);
            vst1q_f32(c1.add(j), acc10);
            vst1q_f32(c1.add(j + 4), acc11);
            vst1q_f32(c2.add(j), acc20);
            vst1q_f32(c2.add(j + 4), acc21);
            vst1q_f32(c3.add(j), acc30);
            vst1q_f32(c3.add(j + 4), acc31);
            j += 8;
        }
        while j + 4 <= je {
            let mut acc0 = vld1q_f32(c0.add(j));
            let mut acc1 = vld1q_f32(c1.add(j));
            let mut acc2 = vld1q_f32(c2.add(j));
            let mut acc3 = vld1q_f32(c3.add(j));
            for p in pb..pe {
                let bv = vld1q_f32(bp.add(p * n + j));
                acc0 = vfmaq_n_f32(acc0, bv, *a0.add(p));
                acc1 = vfmaq_n_f32(acc1, bv, *a1.add(p));
                acc2 = vfmaq_n_f32(acc2, bv, *a2.add(p));
                acc3 = vfmaq_n_f32(acc3, bv, *a3.add(p));
            }
            vst1q_f32(c0.add(j), acc0);
            vst1q_f32(c1.add(j), acc1);
            vst1q_f32(c2.add(j), acc2);
            vst1q_f32(c3.add(j), acc3);
            j += 4;
        }
        while j < je {
            let mut s0 = *c0.add(j);
            let mut s1 = *c1.add(j);
            let mut s2 = *c2.add(j);
            let mut s3 = *c3.add(j);
            for p in pb..pe {
                let bv = *bp.add(p * n + j);
                s0 = (*a0.add(p)).mul_add(bv, s0);
                s1 = (*a1.add(p)).mul_add(bv, s1);
                s2 = (*a2.add(p)).mul_add(bv, s2);
                s3 = (*a3.add(p)).mul_add(bv, s3);
            }
            *c0.add(j) = s0;
            *c1.add(j) = s1;
            *c2.add(j) = s2;
            *c3.add(j) = s3;
            j += 1;
        }
    }

    /// # Safety
    /// Same contract as [`gemm_accumulate_neon`], with `i < row_end` and
    /// `je <= n`.
    #[allow(clippy::too_many_arguments)]
    unsafe fn tile_1(
        ap: *const f32,
        bp: *const f32,
        cp: *mut f32,
        i: usize,
        pb: usize,
        pe: usize,
        jb: usize,
        je: usize,
        k: usize,
        n: usize,
    ) {
        let arow = ap.add(i * k);
        let crow = cp.add(i * n);
        let mut j = jb;
        while j + 8 <= je {
            let mut acc0 = vld1q_f32(crow.add(j));
            let mut acc1 = vld1q_f32(crow.add(j + 4));
            for p in pb..pe {
                let av = *arow.add(p);
                acc0 = vfmaq_n_f32(acc0, vld1q_f32(bp.add(p * n + j)), av);
                acc1 = vfmaq_n_f32(acc1, vld1q_f32(bp.add(p * n + j + 4)), av);
            }
            vst1q_f32(crow.add(j), acc0);
            vst1q_f32(crow.add(j + 4), acc1);
            j += 8;
        }
        while j + 4 <= je {
            let mut acc = vld1q_f32(crow.add(j));
            for p in pb..pe {
                acc = vfmaq_n_f32(acc, vld1q_f32(bp.add(p * n + j)), *arow.add(p));
            }
            vst1q_f32(crow.add(j), acc);
            j += 4;
        }
        while j < je {
            let mut s = *crow.add(j);
            for p in pb..pe {
                s = (*arow.add(p)).mul_add(*bp.add(p * n + j), s);
            }
            *crow.add(j) = s;
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(seed: &mut u64) -> f32 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*seed >> 33) as f32 / (1u64 << 31) as f32) - 0.5
    }

    #[test]
    fn scalar_is_always_supported_and_named() {
        assert!(KernelBackend::Scalar.hw_supported());
        assert!(!KernelBackend::Scalar.is_simd());
        assert_eq!(KernelBackend::Scalar.name(), "scalar");
        assert_eq!(KernelBackend::Avx2Fma.name(), "avx2fma");
        assert_eq!(KernelBackend::Neon.name(), "neon");
    }

    #[test]
    fn active_backend_is_hardware_supported() {
        let kb = KernelBackend::active();
        assert!(kb.hw_supported());
        assert_eq!(active_kernel_set(), kb.name());
    }

    #[test]
    fn axpy_matches_scalar_within_tolerance() {
        for kb in [KernelBackend::Avx2Fma, KernelBackend::Neon] {
            if !kb.hw_supported() {
                continue;
            }
            for len in [0usize, 1, 3, 7, 8, 13, 64, 100] {
                let mut seed = 42 + len as u64;
                let src: Vec<f32> = (0..len).map(|_| lcg(&mut seed)).collect();
                let mut simd: Vec<f32> = (0..len).map(|_| lcg(&mut seed)).collect();
                let mut scalar = simd.clone();
                axpy_f32(kb, &mut simd, &src, 0.7);
                axpy_f32(KernelBackend::Scalar, &mut scalar, &src, 0.7);
                for (s, r) in simd.iter().zip(&scalar) {
                    assert!(
                        (s - r).abs() <= 1e-6,
                        "axpy mismatch at len {len}: {s} vs {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn i8_axpy_is_bit_identical() {
        for kb in [KernelBackend::Avx2Fma, KernelBackend::Neon] {
            if !kb.hw_supported() {
                continue;
            }
            for len in [0usize, 1, 7, 8, 9, 17, 100] {
                let mut seed = 99 + len as u64;
                let x: Vec<i8> = (0..len).map(|_| (lcg(&mut seed) * 200.0) as i8).collect();
                let mut simd: Vec<i32> = (0..len).map(|_| (lcg(&mut seed) * 50.0) as i32).collect();
                let mut scalar = simd.clone();
                i8_axpy_i32(kb, &mut simd, &x, -113);
                i8_axpy_i32(KernelBackend::Scalar, &mut scalar, &x, -113);
                assert_eq!(simd, scalar, "i8 axpy must be exact (len {len})");
            }
        }
    }

    #[test]
    fn i8_axpy2_is_bit_identical() {
        // Extremes (-127 * -128 pairs) stress the i16 intermediate bound.
        for kb in [KernelBackend::Avx2Fma, KernelBackend::Neon] {
            if !kb.hw_supported() {
                continue;
            }
            for len in [0usize, 1, 15, 16, 17, 33, 100] {
                let mut seed = 3 + len as u64;
                let mut x1: Vec<i8> = (0..len).map(|_| (lcg(&mut seed) * 250.0) as i8).collect();
                let mut x2: Vec<i8> = (0..len).map(|_| (lcg(&mut seed) * 250.0) as i8).collect();
                if len > 2 {
                    x1[0] = i8::MIN;
                    x2[0] = i8::MIN;
                    x1[1] = i8::MAX;
                    x2[1] = i8::MAX;
                }
                let mut simd: Vec<i32> = (0..len).map(|_| (lcg(&mut seed) * 50.0) as i32).collect();
                let mut scalar = simd.clone();
                for (w1, w2) in [(127, 127), (-127, -127), (-113, 89), (0, -1)] {
                    i8_axpy2_i32(kb, &mut simd, &x1, w1, &x2, w2);
                    i8_axpy2_i32(KernelBackend::Scalar, &mut scalar, &x1, w1, &x2, w2);
                    assert_eq!(simd, scalar, "paired i8 axpy must be exact (len {len})");
                }
            }
        }
    }

    #[test]
    fn gemm_tile_matches_scalar_reference() {
        for kb in [KernelBackend::Avx2Fma, KernelBackend::Neon] {
            if !kb.hw_supported() {
                continue;
            }
            // Geometries exercising every tile path: 4-row main, 1-row
            // remainder, 16/8-wide and scalar column tails.
            for (m, k, n) in [(1, 1, 1), (4, 8, 16), (5, 3, 17), (7, 300, 23), (3, 5, 40)] {
                let mut seed = (m * 31 + k * 7 + n) as u64;
                let a: Vec<f32> = (0..m * k).map(|_| lcg(&mut seed)).collect();
                let b: Vec<f32> = (0..k * n).map(|_| lcg(&mut seed)).collect();
                let mut c_simd = vec![0.0f32; m * n];
                assert!(gemm_accumulate_simd(kb, 0, m, k, n, &a, &b, &mut c_simd));
                let mut c_ref = vec![0.0f32; m * n];
                for i in 0..m {
                    for p in 0..k {
                        for j in 0..n {
                            c_ref[i * n + j] += a[i * k + p] * b[p * n + j];
                        }
                    }
                }
                for (s, r) in c_simd.iter().zip(&c_ref) {
                    assert!(
                        (s - r).abs() <= 1e-4 * (1.0 + r.abs()),
                        "gemm tile mismatch ({m}x{k}x{n}): {s} vs {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn scalar_backend_requests_fallback_from_gemm_tile() {
        let a = [1.0f32];
        let b = [2.0f32];
        let mut c = [0.0f32];
        assert!(!gemm_accumulate_simd(
            KernelBackend::Scalar,
            0,
            1,
            1,
            1,
            &a,
            &b,
            &mut c
        ));
        assert_eq!(c[0], 0.0);
    }
}
