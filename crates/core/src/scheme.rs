//! Computation scheme selection (paper Section 3.2, Eq. 2–3).
//!
//! For every convolution, pre-inference evaluates the *scheme pool*:
//!
//! * `k = 1` → the convolution is a plain matrix multiplication; the Strassen
//!   algorithm is applied (Eq. 3, case 1 / Section 3.3.2).
//! * `k > 1` → Winograd `F(n×n, k×k)` is evaluated for every candidate output tile
//!   size using the arithmetic cost `C(n)` of Eq. 2; if the optimal tile size `n̂`
//!   degenerates to 1 the sliding-window kernel is chosen, otherwise Winograd with
//!   `n̂` (Eq. 3, cases 2–3).
//!
//! The cost is expressed in estimated scalar multiplications for the whole layer so
//! it can be combined with the backend term of Eq. 1 (`C_total = C_algorithm +
//! C_backend`).

use mnn_backend::ConvScheme;
use mnn_kernels::conv::ConvParams;
use mnn_kernels::strassen;
use mnn_kernels::winograd::winograd_tile_cost;

/// Largest Winograd output tile size the scheme pool evaluates.
pub const MAX_WINOGRAD_TILE: usize = 6;

/// The cost of one candidate scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchemeChoice {
    /// The candidate scheme.
    pub scheme: ConvScheme,
    /// Estimated arithmetic cost (scalar multiplications for the whole layer).
    pub cost: f64,
}

/// The outcome of scheme selection for one convolution layer.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeDecision {
    /// The selected scheme (minimum-cost entry of `pool`).
    pub selected: ConvScheme,
    /// Estimated cost of the selected scheme.
    pub cost: f64,
    /// Every candidate that was evaluated, for inspection / reporting.
    pub pool: Vec<SchemeChoice>,
}

/// Estimated scalar multiplications of the sliding-window kernel for the layer.
pub fn sliding_window_cost(params: &ConvParams, in_h: usize, in_w: usize) -> f64 {
    params.mul_count(in_h, in_w) as f64
}

/// Effective extra "tiles" charged per transform position to account for streaming
/// the transformed weights (`ic · oc · α²` values) through memory: when the tile
/// count is small the per-position GEMM is bandwidth-bound rather than compute-bound,
/// which is what makes very large tile sizes unattractive on small feature maps
/// (the WinoMax column of Table 1).
pub const WEIGHT_REUSE_TILES: f64 = 16.0;

/// Cost-model discount for the im2col + GEMM lowering over the direct kernel:
/// the multiplication count is identical, but GEMM-grade register/cache reuse
/// makes each multiplication slightly cheaper once the reduction dimension is
/// large enough to amortize the unfold.
pub const IM2COL_DISCOUNT: f64 = 0.95;

/// Overridable constants of the scheme cost model (Eq. 2–3).
///
/// The defaults are the shipped calibration (see the field docs); tests and
/// devices with different measured characteristics can override them per
/// session via `SessionConfig::builder().cost_model(...)`, and the
/// `mnn-tune` calibration harness
/// ([`calibrate_int8_cost_factor`](https://docs.rs/mnn-tune)) re-derives the
/// int8 discount from measurements on the actual machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Relative cost of one int8 multiply-accumulate against one f32 multiply
    /// (defaults to the calibrated [`INT8_COST_FACTOR`]).
    pub int8_cost_factor: f64,
    /// Weight-streaming surcharge of the Winograd GEMM term (defaults to
    /// [`WEIGHT_REUSE_TILES`]).
    pub weight_reuse_tiles: f64,
    /// Per-multiplication discount of the im2col lowering (defaults to
    /// [`IM2COL_DISCOUNT`]).
    pub im2col_discount: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            int8_cost_factor: INT8_COST_FACTOR,
            weight_reuse_tiles: WEIGHT_REUSE_TILES,
            im2col_discount: IM2COL_DISCOUNT,
        }
    }
}

/// Estimated cost of Winograd `F(n×n, k×k)` for the layer.
///
/// The structure follows Eq. 2 (input transform + per-position GEMM + output
/// transform, times the tile count of Eq. 7) with two practical refinements over the
/// raw formula: the output transform is charged per output channel, and the GEMM
/// term carries a weight-streaming surcharge ([`CostModel::weight_reuse_tiles`]) so
/// the model stays accurate when the tile count is small.
pub fn winograd_cost_with(
    params: &ConvParams,
    in_h: usize,
    in_w: usize,
    tile: usize,
    model: &CostModel,
) -> f64 {
    let (out_h, out_w) = params.output_size(in_h, in_w);
    let tiles = (out_h.div_ceil(tile) * out_w.div_ceil(tile)) as f64;
    let alpha = (tile + params.kernel_h - 1) as f64;
    let (ic, oc, n) = (
        params.in_channels as f64,
        params.out_channels as f64,
        tile as f64,
    );
    let input_transform = tiles * 2.0 * ic * alpha * alpha * alpha;
    let gemm = (tiles + model.weight_reuse_tiles) * ic * oc * alpha * alpha;
    let output_transform = tiles * oc * n * alpha * (n + alpha);
    // Keep the pure Eq. 2 term linked for reference / comparison in tests.
    let _ = winograd_tile_cost;
    input_transform + gemm + output_transform
}

/// Estimated scalar multiplications of the Strassen-backed 1×1 convolution
/// (`[oc, ic] × [ic, h·w]` with the Eq. 9 recursion policy).
pub fn strassen_cost(params: &ConvParams, in_h: usize, in_w: usize) -> f64 {
    let spatial = in_h * in_w;
    strassen::strassen_mul_count(params.out_channels, params.in_channels, spatial) as f64
}

/// Relative cost of one int8 multiply-accumulate against one f32 multiply in the
/// scheme cost model.
///
/// Int8 operands are 4× narrower than f32, so an integer inner loop moves a
/// quarter of the bytes per multiply and packs 4× more lanes per SIMD register on
/// real hardware; the paper's engine exploits exactly this when it lowers
/// quantized layers to SDOT/SMLAL kernels. The factor keeps the integer kernel
/// deterministically cheaper than the dequantized float path while producing
/// comparable cost magnitudes for the pre-inference report.
///
/// The value is **measured, not guessed**: `mnn-tune`'s calibration harness
/// times the int8 kernel against the float direct kernel on representative
/// geometries and solves the cost equation for the factor (single-thread median
/// ≈ 0.29 on the reference x86-64 CI hardware, ≈ 0.25 at 4 threads). Re-derive
/// it for another device with
/// `cargo run --release -p mnn-bench --bin table_tuning -- --calibrate`, and
/// override it per session via `SessionConfig::builder().cost_model(...)`.
pub const INT8_COST_FACTOR: f64 = 0.29;

/// Estimated cost of the int8 integer kernel for the layer: the direct
/// multiplication count discounted by [`CostModel::int8_cost_factor`], plus the
/// per-run activation quantization pass (one operation per input element).
pub fn quantized_gemm_cost_with(
    params: &ConvParams,
    in_h: usize,
    in_w: usize,
    model: &CostModel,
) -> f64 {
    let quantize_pass = (params.in_channels * in_h * in_w) as f64;
    params.mul_count(in_h, in_w) as f64 * model.int8_cost_factor + quantize_pass
}

/// Select the computation scheme for a convolution whose weights are int8
/// (an [`Op::Conv2dQuantized`](mnn_graph::Op::Conv2dQuantized) node).
///
/// Non-depthwise layers deterministically choose the integer kernel
/// ([`ConvScheme::QuantizedGemm`]); the float candidates stay in the pool so the
/// report shows what the cost model compared. Depthwise layers are
/// deterministically kept in `f32` ([`ConvScheme::Depthwise`], weights
/// dequantized once at preparation time): with one input channel per group there
/// is no integer-GEMM reuse to exploit, and the per-run activation-quantization
/// pass would dominate the memory-bound channel-wise loop.
pub fn select_quantized_conv_scheme(
    params: &ConvParams,
    in_h: usize,
    in_w: usize,
) -> SchemeDecision {
    select_quantized_conv_scheme_with(params, in_h, in_w, &CostModel::default())
}

/// [`select_quantized_conv_scheme`] with explicit [`CostModel`] constants.
pub fn select_quantized_conv_scheme_with(
    params: &ConvParams,
    in_h: usize,
    in_w: usize,
    model: &CostModel,
) -> SchemeDecision {
    if params.is_depthwise() {
        let cost = sliding_window_cost(params, in_h, in_w);
        // The selection is deterministic (not min-cost): the pool reports the
        // integer candidate at its honestly-modelled cost purely for inspection.
        let pool = vec![
            SchemeChoice {
                scheme: ConvScheme::Depthwise,
                cost,
            },
            SchemeChoice {
                scheme: ConvScheme::QuantizedGemm,
                cost: quantized_gemm_cost_with(params, in_h, in_w, model),
            },
        ];
        return SchemeDecision {
            selected: ConvScheme::Depthwise,
            cost,
            pool,
        };
    }
    let quantized = SchemeChoice {
        scheme: ConvScheme::QuantizedGemm,
        cost: quantized_gemm_cost_with(params, in_h, in_w, model),
    };
    let float_direct = SchemeChoice {
        scheme: ConvScheme::SlidingWindow,
        cost: sliding_window_cost(params, in_h, in_w),
    };
    SchemeDecision {
        selected: quantized.scheme,
        cost: quantized.cost,
        pool: vec![quantized, float_direct],
    }
}

/// Scheme decision for a quantized fully-connected layer (reported alongside the
/// convolution decisions so [`PreInferenceReport`](crate::PreInferenceReport)
/// shows which nodes run integer kernels). `muls` is the layer's multiplication
/// count from [`Graph::node_mul_count`](mnn_graph::Graph::node_mul_count).
pub fn quantized_fc_decision(muls: u64) -> SchemeDecision {
    quantized_fc_decision_with(muls, &CostModel::default())
}

/// [`quantized_fc_decision`] with explicit [`CostModel`] constants.
pub fn quantized_fc_decision_with(muls: u64, model: &CostModel) -> SchemeDecision {
    let quantized = SchemeChoice {
        scheme: ConvScheme::QuantizedGemm,
        cost: muls as f64 * model.int8_cost_factor,
    };
    let float_gemm = SchemeChoice {
        scheme: ConvScheme::SlidingWindow,
        cost: muls as f64,
    };
    SchemeDecision {
        selected: quantized.scheme,
        cost: quantized.cost,
        pool: vec![quantized, float_gemm],
    }
}

/// Select the computation scheme for a convolution layer (Eq. 3).
///
/// `max_tile` bounds the Winograd tile-size search (use
/// [`MAX_WINOGRAD_TILE`] for the paper's setting).
pub fn select_conv_scheme(
    params: &ConvParams,
    in_h: usize,
    in_w: usize,
    max_tile: usize,
) -> SchemeDecision {
    select_conv_scheme_with(params, in_h, in_w, max_tile, &CostModel::default())
}

/// [`select_conv_scheme`] with explicit [`CostModel`] constants.
pub fn select_conv_scheme_with(
    params: &ConvParams,
    in_h: usize,
    in_w: usize,
    max_tile: usize,
    model: &CostModel,
) -> SchemeDecision {
    let mut pool = Vec::new();

    if params.is_depthwise() {
        // Depthwise convolutions have one input channel per group: the Winograd /
        // GEMM restructurings degenerate, so the direct kernel is used.
        let cost = sliding_window_cost(params, in_h, in_w);
        pool.push(SchemeChoice {
            scheme: ConvScheme::Depthwise,
            cost,
        });
        return SchemeDecision {
            selected: ConvScheme::Depthwise,
            cost,
            pool,
        };
    }

    if params.is_pointwise() {
        // Eq. 3, case 1: k == 1 is a matrix multiplication; apply Strassen.
        let strassen = SchemeChoice {
            scheme: ConvScheme::Strassen1x1,
            cost: strassen_cost(params, in_h, in_w),
        };
        let direct = SchemeChoice {
            scheme: ConvScheme::SlidingWindow,
            cost: sliding_window_cost(params, in_h, in_w),
        };
        pool.push(strassen);
        pool.push(direct);
        let selected = if strassen.cost <= direct.cost {
            strassen
        } else {
            direct
        };
        return SchemeDecision {
            selected: selected.scheme,
            cost: selected.cost,
            pool,
        };
    }

    // General k > 1 case.
    let sliding = SchemeChoice {
        scheme: ConvScheme::SlidingWindow,
        cost: sliding_window_cost(params, in_h, in_w),
    };
    pool.push(sliding);

    if params.winograd_applicable() {
        for tile in 2..=max_tile.max(2) {
            pool.push(SchemeChoice {
                scheme: ConvScheme::Winograd { tile },
                cost: winograd_cost_with(params, in_h, in_w, tile, model),
            });
        }
    } else if params.im2col_applicable() {
        // Strided / dilated / rectangular kernels go through im2col + GEMM; its
        // multiplication count matches the direct method but with GEMM-grade reuse,
        // so prefer it when the reduction dimension is large enough to amortize the
        // unfold cost.
        let cost = sliding_window_cost(params, in_h, in_w);
        let k_dim = params.in_channels * params.kernel_h * params.kernel_w;
        if k_dim >= 64 {
            pool.push(SchemeChoice {
                scheme: ConvScheme::Im2col,
                cost: cost * model.im2col_discount,
            });
        }
    }

    let selected = pool
        .iter()
        .copied()
        .min_by(|a, b| a.cost.partial_cmp(&b.cost).unwrap())
        .expect("scheme pool is never empty");
    SchemeDecision {
        selected: selected.scheme,
        cost: selected.cost,
        pool,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn conv(k: usize, ic: usize, oc: usize) -> ConvParams {
        ConvParams::square(ic, oc, k, k / 2)
    }

    #[test]
    fn pointwise_layers_choose_strassen_when_it_saves_multiplications() {
        // Very large 1x1 conv: Strassen recursion pays off and the estimated cost
        // drops below the direct multiplication count.
        let p = conv(1, 1024, 1024);
        let d = select_conv_scheme(&p, 40, 40, MAX_WINOGRAD_TILE);
        assert_eq!(d.selected, ConvScheme::Strassen1x1);
        assert!(d.cost < sliding_window_cost(&p, 40, 40));

        // Moderate 1x1 conv: below the recursion block threshold the costs tie, and
        // the Strassen path (which falls back to plain GEMM internally) is kept.
        let p = conv(1, 512, 512);
        let d = select_conv_scheme(&p, 32, 32, MAX_WINOGRAD_TILE);
        assert_eq!(d.selected, ConvScheme::Strassen1x1);
        assert!(d.cost <= sliding_window_cost(&p, 32, 32));

        // Tiny 1x1 conv: same story.
        let p = conv(1, 8, 8);
        let d = select_conv_scheme(&p, 4, 4, MAX_WINOGRAD_TILE);
        assert_eq!(d.selected, ConvScheme::Strassen1x1);
    }

    #[test]
    fn depthwise_layers_use_the_direct_kernel() {
        let p = ConvParams::square(32, 32, 3, 1).depthwise();
        let d = select_conv_scheme(&p, 56, 56, MAX_WINOGRAD_TILE);
        assert_eq!(d.selected, ConvScheme::Depthwise);
    }

    #[test]
    fn large_channel_3x3_layers_choose_winograd() {
        // Table 1, third setting: (3, 64, 64, 112) — Winograd with a large tile wins.
        let p = conv(3, 64, 64);
        let d = select_conv_scheme(&p, 112, 112, MAX_WINOGRAD_TILE);
        match d.selected {
            ConvScheme::Winograd { tile } => assert!(tile >= 2),
            other => panic!("expected Winograd, got {other}"),
        }
        assert!(d.cost < sliding_window_cost(&p, 112, 112));
    }

    #[test]
    fn strided_convolutions_never_pick_winograd() {
        let p = ConvParams::square(32, 64, 3, 1).with_stride(2);
        let d = select_conv_scheme(&p, 56, 56, MAX_WINOGRAD_TILE);
        assert!(!matches!(d.selected, ConvScheme::Winograd { .. }));
    }

    #[test]
    fn rectangular_kernels_use_im2col_or_sliding() {
        // Inception-v3's 1x7 convolution.
        let p = ConvParams {
            in_channels: 128,
            out_channels: 128,
            kernel_h: 1,
            kernel_w: 7,
            pad_h: 0,
            pad_w: 3,
            ..ConvParams::default()
        };
        let d = select_conv_scheme(&p, 17, 17, MAX_WINOGRAD_TILE);
        assert!(matches!(
            d.selected,
            ConvScheme::Im2col | ConvScheme::SlidingWindow
        ));
    }

    #[test]
    fn scheme_pool_contains_all_winograd_candidates() {
        let p = conv(3, 64, 64);
        let d = select_conv_scheme(&p, 56, 56, 6);
        let tiles: Vec<usize> = d
            .pool
            .iter()
            .filter_map(|c| match c.scheme {
                ConvScheme::Winograd { tile } => Some(tile),
                _ => None,
            })
            .collect();
        assert_eq!(tiles, vec![2, 3, 4, 5, 6]);
    }

    #[test]
    fn table1_settings_prefer_winograd_for_heavy_channels() {
        // (2, 512, 512, 16): Winograd should beat sliding window by a wide margin in
        // multiplication count, as in Table 1 where sliding takes 895 ms vs ~287 ms.
        let p = conv(2, 512, 512);
        let d = select_conv_scheme(&p, 16, 16, MAX_WINOGRAD_TILE);
        assert!(matches!(d.selected, ConvScheme::Winograd { .. }));
        let sliding = sliding_window_cost(&p, 16, 16);
        assert!(d.cost < sliding * 0.8);
    }

    #[test]
    fn quantized_convs_select_the_integer_kernel() {
        let p = conv(3, 32, 64);
        let d = select_quantized_conv_scheme(&p, 28, 28);
        assert_eq!(d.selected, ConvScheme::QuantizedGemm);
        // The integer kernel must be modelled as cheaper than the float direct
        // path (that is what makes the selection deterministic)…
        assert!(d.cost < sliding_window_cost(&p, 28, 28));
        // …and the float candidate stays in the pool for the report.
        assert!(d.pool.iter().any(|c| c.scheme == ConvScheme::SlidingWindow));
    }

    #[test]
    fn quantized_depthwise_convs_fall_back_to_f32() {
        let p = ConvParams::square(32, 32, 3, 1).depthwise();
        let d = select_quantized_conv_scheme(&p, 56, 56);
        // Deterministic fallback: Depthwise is selected even though the pool
        // reports the integer candidate at its honestly-modelled cost (the
        // arithmetic model cannot see the memory-bound nature of the
        // channel-wise loop, which is why the selection is not min-cost here).
        assert_eq!(d.selected, ConvScheme::Depthwise);
        assert!(d
            .pool
            .iter()
            .any(|c| c.scheme == ConvScheme::QuantizedGemm && c.cost.is_finite()));
    }

    #[test]
    fn quantized_pointwise_convs_select_the_integer_kernel() {
        let p = conv(1, 256, 256);
        let d = select_quantized_conv_scheme(&p, 14, 14);
        assert_eq!(d.selected, ConvScheme::QuantizedGemm);
    }

    #[test]
    fn cost_model_constants_are_overridable() {
        // Pin the int8 factor: the reported quantized cost follows the
        // override exactly, which is what makes cost-dependent tests
        // reproducible across re-calibrations of the default.
        let p = conv(3, 32, 64);
        let pinned = CostModel {
            int8_cost_factor: 0.5,
            ..CostModel::default()
        };
        let d = select_quantized_conv_scheme_with(&p, 28, 28, &pinned);
        let quantize_pass = (32 * 28 * 28) as f64;
        let expected = p.mul_count(28, 28) as f64 * 0.5 + quantize_pass;
        assert!((d.cost - expected).abs() < 1e-6);
        assert!((quantized_fc_decision_with(1_000_000, &pinned).cost - 500_000.0).abs() < 1e-6);
    }

    #[test]
    fn weight_reuse_override_steers_winograd_selection() {
        // With an absurd weight-streaming surcharge, Winograd's modelled cost
        // explodes and the selection flips away from it — proving the
        // constant actually drives the decision.
        let p = conv(3, 64, 64);
        let default = select_conv_scheme_with(&p, 56, 56, MAX_WINOGRAD_TILE, &CostModel::default());
        assert!(matches!(default.selected, ConvScheme::Winograd { .. }));
        let hostile = CostModel {
            weight_reuse_tiles: 1e9,
            ..CostModel::default()
        };
        let flipped = select_conv_scheme_with(&p, 56, 56, MAX_WINOGRAD_TILE, &hostile);
        assert!(!matches!(flipped.selected, ConvScheme::Winograd { .. }));
    }

    #[test]
    fn default_cost_model_matches_the_free_functions() {
        let p = conv(3, 16, 32);
        assert_eq!(
            select_conv_scheme(&p, 32, 32, MAX_WINOGRAD_TILE),
            select_conv_scheme_with(&p, 32, 32, MAX_WINOGRAD_TILE, &CostModel::default())
        );
        // The default model charges int8 at `INT8_COST_FACTOR` plus one
        // quantization pass over the input.
        assert_eq!(
            quantized_gemm_cost_with(&p, 32, 32, &CostModel::default()),
            p.mul_count(32, 32) as f64 * INT8_COST_FACTOR + (p.in_channels * 32 * 32) as f64
        );
    }

    #[test]
    fn quantized_fc_decision_discounts_the_float_cost() {
        let d = quantized_fc_decision(1_000_000);
        assert_eq!(d.selected, ConvScheme::QuantizedGemm);
        assert!((d.cost - 1_000_000.0 * INT8_COST_FACTOR).abs() < 1e-6);
        assert!(d.pool.iter().any(|c| c.cost > d.cost));
    }

    proptest! {
        #[test]
        fn prop_selected_scheme_has_minimum_cost(
            k in 1usize..6, ic in 1usize..128, oc in 1usize..128, size in 4usize..64
        ) {
            let p = conv(k, ic, oc);
            let d = select_conv_scheme(&p, size, size, MAX_WINOGRAD_TILE);
            for candidate in &d.pool {
                prop_assert!(d.cost <= candidate.cost + 1e-6);
            }
        }

        #[test]
        fn prop_selected_cost_is_finite_and_positive(
            k in 1usize..8, ic in 1usize..64, oc in 1usize..64, size in 2usize..64
        ) {
            let p = conv(k, ic, oc);
            let size = size.max(k);
            let d = select_conv_scheme(&p, size, size, MAX_WINOGRAD_TILE);
            prop_assert!(d.cost.is_finite());
            prop_assert!(d.cost > 0.0);
        }
    }
}
