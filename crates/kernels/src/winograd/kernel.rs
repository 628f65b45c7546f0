//! Tiled Winograd convolution (`F(n×n, k×k)`), following Fig. 4 of the paper.
//!
//! The channel-wise Hadamard product of Eq. 6 is restructured into one
//! `[tiles, ic] × [ic, oc]` GEMM per transform position, which amortizes memory
//! access exactly as the NC4HW4 re-ordering does in the C++ implementation.

use super::generator::{generate, WinogradTransforms};
use crate::conv::ConvParams;
use crate::gemm::gemm_mt_with;
use crate::parallel::{parallel_chunks_mut, parallel_chunks_mut_scratch, parallel_for};
use crate::scratch::{Scratch, ScratchLen};
use crate::simd::KernelBackend;

/// Winograd weights transformed once at preparation time (`W' = G·W·Gᵀ` for every
/// `(oc, ic)` kernel tile), together with the transform matrices they were built
/// with.
///
/// This is the *preparation* artifact of the paper's preparation–execution
/// decoupling: computing it once per session — and keeping it across
/// `resize_session` calls whose scheme selection is unchanged — removes the
/// transform from the inference loop entirely.
#[derive(Debug, Clone)]
pub struct PreparedWinogradWeights {
    /// The transform matrices for `F(n×n, k×k)`.
    pub transforms: WinogradTransforms,
    /// Transformed weights, laid out `[alpha*alpha][ic][oc]` row-major per position.
    pub transformed: Vec<f32>,
}

impl PreparedWinogradWeights {
    /// The output tile size `n` the weights were prepared for.
    pub fn tile(&self) -> usize {
        self.transforms.n
    }
}

fn check_winograd_params(params: &ConvParams, tile_n: usize) {
    assert!(
        params.kernel_h == params.kernel_w,
        "Winograd kernel requires a square kernel"
    );
    assert!(
        params.kernel_h >= 2,
        "Winograd kernel requires kernel size >= 2"
    );
    assert_eq!(params.stride_h, 1, "Winograd kernel requires stride 1");
    assert_eq!(params.stride_w, 1, "Winograd kernel requires stride 1");
    assert_eq!(params.dilation_h, 1, "Winograd kernel requires dilation 1");
    assert_eq!(params.dilation_w, 1, "Winograd kernel requires dilation 1");
    assert_eq!(params.groups, 1, "Winograd kernel requires groups == 1");
    assert!(tile_n >= 1, "tile size must be >= 1");
}

/// Run the preparation stage of Winograd convolution: generate the transform
/// matrices for `F(tile_n×tile_n, k×k)` and pre-transform `weight`
/// (`[oc, ic, k, k]`).
///
/// # Panics
///
/// Panics if the parameters are outside the Winograd-applicable set or the weight
/// buffer length does not match.
pub fn prepare_winograd_weights(
    params: &ConvParams,
    tile_n: usize,
    weight: &[f32],
) -> PreparedWinogradWeights {
    check_winograd_params(params, tile_n);
    assert_eq!(
        weight.len(),
        params.weight_len(),
        "weight buffer length mismatch"
    );
    let transforms = generate(tile_n, params.kernel_h);
    let transformed =
        transform_weights(&transforms, params.in_channels, params.out_channels, weight);
    PreparedWinogradWeights {
        transforms,
        transformed,
    }
}

/// Scratch of [`conv2d_winograd_prepared_with`] for one sample: the transformed
/// input `[α²][tiles][ic]`, a second area that first gathers it per tile and
/// then holds the per-position products `[α²][tiles][oc]`, and `3·α²` of
/// transform temporaries per worker.
pub fn winograd_scratch(
    params: &ConvParams,
    tile_n: usize,
    threads: usize,
    in_h: usize,
    in_w: usize,
) -> ScratchLen {
    let positions = (tile_n + params.kernel_h - 1).pow(2);
    let (out_h, out_w) = params.output_size(in_h, in_w);
    let tiles = out_h.div_ceil(tile_n) * out_w.div_ceil(tile_n);
    let (ic, oc) = (params.in_channels, params.out_channels);
    ScratchLen::f32(positions * (tiles * (ic + ic.max(oc)) + 3 * threads.max(1)))
}

/// Winograd convolution against weights transformed ahead of time by
/// [`prepare_winograd_weights`] (the execution half of preparation–execution
/// decoupling), written into `output` (`[batch, oc, out_h, out_w]`,
/// overwritten).
///
/// Supports stride 1, dilation 1, `groups == 1` and square kernels with
/// `kernel >= 2` — exactly the cases for which the pre-inference scheme selection
/// (paper Eq. 3) may choose Winograd. Arbitrary explicit padding is supported.
/// `input` is NCHW `[batch, ic, in_h, in_w]`, `bias` is `[oc]` or empty.
///
/// `kb` runs the per-position `[tiles, ic] × [ic, oc]` GEMMs (tolerance, not
/// bit-identity, vs scalar). The input/output transforms are scalar on every
/// backend: they work on rows of 4–8 elements, where the vector `dot`/`axpy`
/// lose to their own dispatch.
///
/// # Panics
///
/// Panics if the parameters violate the restrictions above, buffer lengths do
/// not match or `scratch` is smaller than [`winograd_scratch`].
pub fn conv2d_winograd_prepared_with(
    kb: KernelBackend,
    params: &ConvParams,
    prepared: &PreparedWinogradWeights,
    threads: usize,
    batch: usize,
    in_h: usize,
    in_w: usize,
    input: &[f32],
    bias: &[f32],
    output: &mut [f32],
    scratch: &mut Scratch,
) {
    let tile_n = prepared.tile();
    check_winograd_params(params, tile_n);
    assert_eq!(
        input.len(),
        batch * params.in_channels * in_h * in_w,
        "input buffer length mismatch"
    );
    if params.has_bias {
        assert_eq!(bias.len(), params.out_channels, "bias length mismatch");
    }

    let transforms = &prepared.transforms;
    let alpha = transforms.alpha;
    let positions = alpha * alpha;
    let (ic, oc) = (params.in_channels, params.out_channels);
    let (out_h, out_w) = params.output_size(in_h, in_w);
    let (pad_h, pad_w) = params.resolve_padding(in_h, in_w);
    assert_eq!(
        output.len(),
        batch * oc * out_h * out_w,
        "output buffer length mismatch"
    );

    // Tile grid over the output.
    let tiles_h = out_h.div_ceil(tile_n);
    let tiles_w = out_w.div_ceil(tile_n);
    let tiles = tiles_h * tiles_w;

    // Weights were pre-transformed: for each position, a [ic, oc] matrix.
    let transformed_weight = &prepared.transformed;
    assert_eq!(
        transformed_weight.len(),
        positions * ic * oc,
        "prepared weights do not match the convolution parameters"
    );

    let (src_t, rest) = scratch.f32.split_at_mut(positions * tiles * ic);
    let (staging, rest) = rest.split_at_mut(positions * tiles * ic.max(oc));
    let workers = &mut rest[..3 * positions * threads.max(1)];

    for b in 0..batch {
        // --- Input transform: src_t[pos][tile * ic + c]. Workers take tile
        // ranges, which are contiguous only in a [tile][pos][c] arrangement,
        // so they fill that and a scatter reorders it.
        let in_batch = &input[b * ic * in_h * in_w..][..ic * in_h * in_w];
        let per_tile = &mut staging[..tiles * positions * ic];
        parallel_chunks_mut_scratch(
            threads,
            per_tile,
            positions * ic,
            workers,
            3 * positions,
            |tile_start, chunk, temporaries| {
                let (patch, rest) = temporaries.split_at_mut(positions);
                let (tmp, xt) = rest.split_at_mut(positions);
                for (t_local, tile_buf) in chunk.chunks_mut(positions * ic).enumerate() {
                    let tile = tile_start + t_local;
                    let ty = tile / tiles_w;
                    let tx = tile % tiles_w;
                    let oy0 = ty * tile_n;
                    let ox0 = tx * tile_n;
                    for c in 0..ic {
                        let plane = &in_batch[c * in_h * in_w..][..in_h * in_w];
                        // Extract the alpha x alpha patch (with zero padding).
                        for py in 0..alpha {
                            let iy = oy0 as isize + py as isize - pad_h as isize;
                            for px in 0..alpha {
                                let ix = ox0 as isize + px as isize - pad_w as isize;
                                patch[py * alpha + px] = if iy >= 0
                                    && iy < in_h as isize
                                    && ix >= 0
                                    && ix < in_w as isize
                                {
                                    plane[iy as usize * in_w + ix as usize]
                                } else {
                                    0.0
                                };
                            }
                        }
                        transforms.transform_input(patch, tmp, xt);
                        for (pos, &value) in xt.iter().enumerate() {
                            tile_buf[pos * ic + c] = value;
                        }
                    }
                }
            },
        );
        // Scatter [tile][pos][c] -> [pos][tile][c]
        for tile in 0..tiles {
            for pos in 0..positions {
                let src = &per_tile[(tile * positions + pos) * ic..][..ic];
                let dst = &mut src_t[(pos * tiles + tile) * ic..][..ic];
                dst.copy_from_slice(src);
            }
        }

        // --- Per-position GEMM: dst_t[pos] = src_t[pos] (tiles x ic) * W'[pos] (ic x oc)
        let dst_t = &mut staging[..positions * tiles * oc];
        let src_t = &*src_t;
        parallel_chunks_mut(threads, dst_t, tiles * oc, |pos_start, chunk| {
            for (p_local, dst) in chunk.chunks_mut(tiles * oc).enumerate() {
                let pos = pos_start + p_local;
                let src = &src_t[pos * tiles * ic..][..tiles * ic];
                let w = &transformed_weight[pos * ic * oc..][..ic * oc];
                gemm_mt_with(kb, 1, tiles, ic, oc, src, w, dst);
            }
        });

        // --- Output transform: gather per tile/oc, apply A^T . A, add bias, crop.
        let out_slice = &mut output[b * oc * out_h * out_w..][..oc * out_h * out_w];
        let dst_t = &*dst_t;
        parallel_chunks_mut_scratch(
            threads,
            out_slice,
            out_h * out_w,
            workers,
            3 * positions,
            |oc_start, planes, temporaries| {
                let (prod, rest) = temporaries.split_at_mut(positions);
                let (tmp, rest) = rest.split_at_mut(positions);
                let y = &mut rest[..tile_n * tile_n];
                for (o_local, plane) in planes.chunks_mut(out_h * out_w).enumerate() {
                    let o = oc_start + o_local;
                    let bias_v = if params.has_bias { bias[o] } else { 0.0 };
                    for tile in 0..tiles {
                        let ty = tile / tiles_w;
                        let tx = tile % tiles_w;
                        for pos in 0..positions {
                            prod[pos] = dst_t[(pos * tiles + tile) * oc + o];
                        }
                        transforms.transform_output(prod, tmp, y);
                        let oy0 = ty * tile_n;
                        let ox0 = tx * tile_n;
                        for dy in 0..tile_n {
                            let oy = oy0 + dy;
                            if oy >= out_h {
                                break;
                            }
                            for dx in 0..tile_n {
                                let ox = ox0 + dx;
                                if ox >= out_w {
                                    break;
                                }
                                plane[oy * out_w + ox] = y[dy * tile_n + dx] + bias_v;
                            }
                        }
                    }
                }
            },
        );
    }
}

/// Wrapper making a raw pointer `Send`/`Sync` for the disjoint writes of
/// [`transform_weights`].
struct ParallelOut(*mut f32);
// SAFETY: every worker writes a disjoint region (indexed by transform position), so
// sharing the base pointer across threads is sound.
unsafe impl Send for ParallelOut {}
unsafe impl Sync for ParallelOut {}
impl Copy for ParallelOut {}
impl Clone for ParallelOut {
    fn clone(&self) -> Self {
        *self
    }
}

/// Pre-transform all kernels: returns `[alpha*alpha][ic][oc]` (row-major per position).
///
/// This is the preparation-time work MNN performs once per session; it is written
/// allocation-free (per-worker scratch buffers) and parallelized over output
/// channels because `ic · oc` transform calls dominate otherwise.
fn transform_weights(
    transforms: &WinogradTransforms,
    ic: usize,
    oc: usize,
    weight: &[f32],
) -> Vec<f32> {
    let alpha = transforms.alpha;
    let k = transforms.k;
    let mut out = vec![0.0f32; alpha * alpha * ic * oc];
    let out_ptr = ParallelOut(out.as_mut_ptr());
    let threads = crate::parallel::default_threads();
    parallel_for(threads, oc, move |o_start, o_end| {
        let base = out_ptr;
        let mut gw = vec![0.0f32; alpha * k];
        let mut wt = vec![0.0f32; alpha * alpha];
        for o in o_start..o_end {
            for c in 0..ic {
                let w_tile = &weight[(o * ic + c) * k * k..][..k * k];
                // gw = G (alpha x k) * W (k x k)
                gw.fill(0.0);
                for i in 0..alpha {
                    for p in 0..k {
                        let g_ip = transforms.g[i * k + p];
                        if g_ip == 0.0 {
                            continue;
                        }
                        for j in 0..k {
                            gw[i * k + j] += g_ip * w_tile[p * k + j];
                        }
                    }
                }
                // wt = gw (alpha x k) * G^T  (k x alpha)
                for i in 0..alpha {
                    for j in 0..alpha {
                        let mut acc = 0.0f32;
                        for p in 0..k {
                            acc += gw[i * k + p] * transforms.g[j * k + p];
                        }
                        wt[i * alpha + j] = acc;
                    }
                }
                // SAFETY: each (pos, c, o) index is written exactly once, and the
                // parallel loop partitions `o`, so writes are disjoint.
                for (pos, &value) in wt.iter().enumerate() {
                    unsafe {
                        *base.0.add((pos * ic + c) * oc + o) = value;
                    }
                }
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::conv2d_reference;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    /// The scalar kernel on a square input, through `Scratch::collect`.
    fn winograd(
        p: &ConvParams,
        tile: usize,
        threads: usize,
        batch: usize,
        size: usize,
        x: &[f32],
        w: &[f32],
        b: &[f32],
    ) -> Vec<f32> {
        let (out_h, out_w) = p.output_size(size, size);
        Scratch::collect(
            batch * p.out_channels * out_h * out_w,
            winograd_scratch(p, tile, threads, size, size),
            |out, scratch| {
                let (kb, prepared) = (KernelBackend::Scalar, prepare_winograd_weights(p, tile, w));
                conv2d_winograd_prepared_with(
                    kb, p, &prepared, threads, batch, size, size, x, b, out, scratch,
                )
            },
        )
    }

    fn rel_max_diff(a: &[f32], b: &[f32]) -> f32 {
        let scale = a.iter().fold(1.0f32, |m, v| m.max(v.abs()));
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
            / scale
    }

    #[test]
    fn winograd_f2_3x3_matches_reference() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = ConvParams::square(4, 8, 3, 1);
        p.has_bias = true;
        let size = 12;
        let input = random(&mut rng, 4 * size * size);
        let weight = random(&mut rng, p.weight_len());
        let bias = random(&mut rng, 8);
        let expected = conv2d_reference(&p, 1, size, size, &input, &weight, &bias);
        let got = winograd(&p, 2, 2, 1, size, &input, &weight, &bias);
        assert!(rel_max_diff(&expected, &got) < 1e-3);
    }

    #[test]
    fn winograd_larger_tiles_match_reference() {
        let mut rng = StdRng::seed_from_u64(2);
        let p = ConvParams::square(3, 5, 3, 1);
        let size = 17; // not a multiple of the tile size: exercises edge cropping
        let input = random(&mut rng, 3 * size * size);
        let weight = random(&mut rng, p.weight_len());
        let expected = conv2d_reference(&p, 1, size, size, &input, &weight, &[]);
        for tile in [2usize, 3, 4, 6] {
            let got = winograd(&p, tile, 3, 1, size, &input, &weight, &[]);
            assert!(
                rel_max_diff(&expected, &got) < 2e-3,
                "tile size {tile} diverged"
            );
        }
    }

    #[test]
    fn winograd_5x5_kernel_matches_reference() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = ConvParams::square(2, 3, 5, 2);
        let size = 14;
        let input = random(&mut rng, 2 * size * size);
        let weight = random(&mut rng, p.weight_len());
        let expected = conv2d_reference(&p, 1, size, size, &input, &weight, &[]);
        let got = winograd(&p, 2, 2, 1, size, &input, &weight, &[]);
        assert!(rel_max_diff(&expected, &got) < 2e-3);
    }

    #[test]
    fn winograd_without_padding_and_batched() {
        let mut rng = StdRng::seed_from_u64(4);
        let p = ConvParams::square(3, 4, 3, 0);
        let size = 10;
        let input = random(&mut rng, 2 * 3 * size * size);
        let weight = random(&mut rng, p.weight_len());
        let expected = conv2d_reference(&p, 2, size, size, &input, &weight, &[]);
        let got = winograd(&p, 4, 2, 2, size, &input, &weight, &[]);
        assert!(rel_max_diff(&expected, &got) < 2e-3);
    }

    #[test]
    #[should_panic(expected = "stride 1")]
    fn winograd_rejects_strided_convolution() {
        let p = ConvParams::square(3, 4, 3, 1).with_stride(2);
        winograd(
            &p,
            2,
            1,
            1,
            8,
            &vec![0.0; 3 * 64],
            &vec![0.0; p.weight_len()],
            &[],
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn prop_winograd_matches_reference(
            ic in 1usize..4,
            oc in 1usize..4,
            size in 6usize..14,
            tile in 2usize..5,
            k in 2usize..4,
            seed in 0u64..200,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = ConvParams::square(ic, oc, k, k / 2);
            let input = random(&mut rng, ic * size * size);
            let weight = random(&mut rng, p.weight_len());
            let expected = conv2d_reference(&p, 1, size, size, &input, &weight, &[]);
            let got = winograd(&p, tile, 2, 1, size, &input, &weight, &[]);
            prop_assert!(rel_max_diff(&expected, &got) < 5e-3);
        }
    }
}
