//! The CPU backend: real multi-threaded execution of `mnn-kernels`.

use crate::traits::{
    Backend, BackendDescriptor, ConvScheme, Execution, ForwardType, Inputs, SchemeHint,
};
use crate::BackendError;
use mnn_graph::{ActivationKind, Conv2dAttrs, Graph, Node, Op, QuantAttrs, TensorId};
use mnn_kernels::activation::Activation;
use mnn_kernels::conv::ConvParams;
use mnn_kernels::simd::KernelBackend;
use mnn_kernels::winograd::PreparedWinogradWeights;
use mnn_kernels::{activation, conv, elementwise, fc, gemm, norm, pool, quant, winograd};
use mnn_kernels::{Scratch, ScratchLen};
use mnn_tensor::{Shape, Tensor, TensorView};
use std::sync::Arc;

/// Estimated sustained FLOPs per second per CPU thread used by the cost model when
/// no device profile is supplied (the appendix's default of 2 GFLOPs).
pub const DEFAULT_FLOPS_PER_THREAD: f64 = 2.0e9;

/// The real CPU backend.
///
/// Executes every operator with the kernels from `mnn-kernels`, using up to
/// `threads` worker threads for the heavy ones (convolution / GEMM). Every
/// execution it creates runs on the instruction set detected for this process
/// ([`KernelBackend::active`]): the scheme picks the algorithm, never the ISA.
#[derive(Debug)]
pub struct CpuBackend {
    threads: usize,
    flops: f64,
    kernel_backend: KernelBackend,
}

impl CpuBackend {
    /// Create a CPU backend with the given thread count.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        CpuBackend {
            threads,
            flops: DEFAULT_FLOPS_PER_THREAD * threads as f64,
            kernel_backend: KernelBackend::active(),
        }
    }

    /// The configured thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    fn threads_for(&self, hint: &SchemeHint) -> usize {
        hint.threads.unwrap_or(self.threads)
    }

    fn constant(graph: &Graph, id: TensorId, what: &str) -> Result<Arc<Tensor>, BackendError> {
        graph
            .constant_arc(id)
            .ok_or_else(|| BackendError::MissingConstant(what.to_string()))
    }

    /// Pick a default convolution scheme when pre-inference did not provide one.
    pub fn default_conv_scheme(params: &ConvParams) -> ConvScheme {
        if params.is_depthwise() {
            ConvScheme::Depthwise
        } else if params.is_pointwise() {
            ConvScheme::Strassen1x1
        } else if params.winograd_applicable() {
            let tile = winograd::optimal_tile_size(
                params.kernel_h,
                params.in_channels,
                params.out_channels,
                6,
            );
            if tile > 1 {
                ConvScheme::Winograd { tile }
            } else {
                ConvScheme::SlidingWindow
            }
        } else if params.groups == 1 {
            ConvScheme::Im2col
        } else {
            ConvScheme::SlidingWindow
        }
    }

    /// Default scheme for a convolution over int8 weights: the integer kernel,
    /// except for depthwise layers, which are deterministically kept in `f32`
    /// (one input channel per group leaves no integer-GEMM reuse to exploit; the
    /// weights are dequantized once at preparation time instead).
    pub fn default_quantized_conv_scheme(params: &ConvParams) -> ConvScheme {
        if params.is_depthwise() {
            ConvScheme::Depthwise
        } else {
            ConvScheme::QuantizedGemm
        }
    }
}

impl Backend for CpuBackend {
    fn forward_type(&self) -> ForwardType {
        ForwardType::Cpu
    }

    fn descriptor(&self) -> BackendDescriptor {
        BackendDescriptor {
            forward_type: ForwardType::Cpu,
            flops: self.flops,
            t_schedule_ms: 0.0,
            threads: self.threads,
        }
    }

    fn supports(&self, _op: &Op) -> bool {
        // The CPU backend implements the whole operator set — it is the universal
        // fallback required by the hybrid-scheduling rule of Section 3.2.
        true
    }

    fn executions_are_geometry_invariant(&self) -> bool {
        // CPU executions capture constants (weights, transformed Winograd
        // kernels) but read activation shapes at run time, so they survive a
        // `resize_session` unchanged.
        true
    }

    fn on_create(
        &self,
        node: &Node,
        graph: &Graph,
        hint: &SchemeHint,
    ) -> Result<Box<dyn Execution>, BackendError> {
        let threads = self.threads_for(hint);
        match &node.op {
            Op::Conv2d(attrs) => self.create_conv(node, graph, attrs, ActivationKind::None, hint),
            Op::Conv2dFused { attrs, activation } => {
                self.create_conv(node, graph, attrs, *activation, hint)
            }
            Op::Conv2dQuantized {
                attrs,
                activation,
                quant,
            } => self.create_conv_quantized(node, graph, attrs, *activation, quant, hint),
            Op::Pool(attrs) => Ok(Box::new(PoolExec {
                params: attrs.to_pool_params(),
            })),
            Op::Activation(kind) => Ok(Box::new(InPlaceExec::Activation(kind.to_kernel()))),
            Op::Binary(kind) => Ok(Box::new(BinaryExec {
                op: kind.to_kernel(),
            })),
            Op::Concat => Ok(Box::new(ConcatExec)),
            Op::BatchNorm { epsilon } => {
                let mean = Self::constant(graph, node.inputs[1], "batchnorm mean")?;
                let var = Self::constant(graph, node.inputs[2], "batchnorm variance")?;
                let gamma = Self::constant(graph, node.inputs[3], "batchnorm gamma")?;
                let beta = Self::constant(graph, node.inputs[4], "batchnorm beta")?;
                Ok(Box::new(InPlaceExec::BatchNorm {
                    mean,
                    var,
                    gamma,
                    beta,
                    epsilon: *epsilon,
                }))
            }
            Op::Scale => {
                let scale = Self::constant(graph, node.inputs[1], "scale factors")?;
                let shift = Self::constant(graph, node.inputs[2], "scale shifts")?;
                Ok(Box::new(InPlaceExec::Scale { scale, shift }))
            }
            Op::FullyConnected {
                in_features,
                out_features,
                has_bias,
            } => {
                let weight = Self::constant(graph, node.inputs[1], "fc weight")?;
                let bias = if *has_bias {
                    Some(Self::constant(graph, node.inputs[2], "fc bias")?)
                } else {
                    None
                };
                let weight_t = gemm::transpose(*out_features, *in_features, weight.data_f32());
                Ok(Box::new(FullyConnectedExec {
                    kernel_backend: self.kernel_backend,
                    weight: FcWeight::Float(weight_t),
                    bias,
                    in_features: *in_features,
                    out_features: *out_features,
                    threads,
                }))
            }
            Op::FullyConnectedQuantized {
                in_features,
                out_features,
                has_bias,
                quant,
            } => {
                let weight = Self::constant(graph, node.inputs[1], "quantized fc weight")?;
                weight.try_data_i8().map_err(|_| {
                    BackendError::InvalidTensor(format!(
                        "quantized fully-connected '{}' expects an i8 weight constant, got {}",
                        node.name,
                        weight.data_type()
                    ))
                })?;
                let bias = if *has_bias {
                    Some(Self::constant(graph, node.inputs[2], "fc bias")?)
                } else {
                    None
                };
                Ok(Box::new(FullyConnectedExec {
                    kernel_backend: self.kernel_backend,
                    weight: FcWeight::Int8(weight, quant.weight_scales.clone()),
                    bias,
                    in_features: *in_features,
                    out_features: *out_features,
                    threads,
                }))
            }
            Op::Softmax(_) => Ok(Box::new(InPlaceExec::Softmax)),
            Op::Flatten(_) | Op::Reshape { .. } => Ok(Box::new(InPlaceExec::Reshape)),
        }
    }
}

impl CpuBackend {
    fn create_conv(
        &self,
        node: &Node,
        graph: &Graph,
        attrs: &Conv2dAttrs,
        fused: ActivationKind,
        hint: &SchemeHint,
    ) -> Result<Box<dyn Execution>, BackendError> {
        let weight = Self::constant(graph, node.inputs[1], "conv weight")?;
        let bias = if attrs.has_bias {
            Some(Self::constant(graph, node.inputs[2], "conv bias")?)
        } else {
            None
        };
        let params = attrs.to_conv_params();
        let scheme = hint
            .conv_scheme
            .unwrap_or_else(|| Self::default_conv_scheme(&params));
        self.build_conv_exec(params, scheme, weight, Vec::new(), bias, fused, hint)
    }

    /// Convolution over int8 weights. The integer scheme captures the i8 weights
    /// directly; any `f32` scheme (e.g. the deterministic depthwise fallback)
    /// dequantizes the weights **once**, at preparation time, so the per-run cost of
    /// the fallback is identical to a float convolution.
    fn create_conv_quantized(
        &self,
        node: &Node,
        graph: &Graph,
        attrs: &Conv2dAttrs,
        fused: ActivationKind,
        quant: &QuantAttrs,
        hint: &SchemeHint,
    ) -> Result<Box<dyn Execution>, BackendError> {
        let weight = Self::constant(graph, node.inputs[1], "quantized conv weight")?;
        let weight_q = weight.try_data_i8().map_err(|_| {
            BackendError::InvalidTensor(format!(
                "quantized convolution '{}' expects an i8 weight constant, got {}",
                node.name,
                weight.data_type()
            ))
        })?;
        let params = attrs.to_conv_params();
        if quant.weight_scales.len() != params.out_channels {
            return Err(BackendError::InvalidTensor(format!(
                "quantized convolution '{}' has {} weight scales for {} output channels",
                node.name,
                quant.weight_scales.len(),
                params.out_channels
            )));
        }
        let bias = if attrs.has_bias {
            Some(Self::constant(graph, node.inputs[2], "conv bias")?)
        } else {
            None
        };
        let scheme = hint
            .conv_scheme
            .unwrap_or_else(|| Self::default_quantized_conv_scheme(&params));
        if scheme == ConvScheme::QuantizedGemm {
            let scales = quant.weight_scales.clone();
            return self.build_conv_exec(params, scheme, weight, scales, bias, fused, hint);
        }
        // f32 fallback: dequantize the weights once and run the float kernels.
        let dequantized = quant::dequantize_per_channel(weight_q, &quant.weight_scales);
        let weight_f32 = Arc::new(Tensor::from_vec(weight.shape().clone(), dequantized));
        self.build_conv_exec(params, scheme, weight_f32, Vec::new(), bias, fused, hint)
    }

    /// `scales` are the per-output-channel scales of an i8 `weight`, which only
    /// the quantized-gemm scheme takes; every other scheme runs on f32 weights.
    #[allow(clippy::too_many_arguments)]
    fn build_conv_exec(
        &self,
        params: ConvParams,
        scheme: ConvScheme,
        weight: Arc<Tensor>,
        scales: Vec<f32>,
        bias: Option<Arc<Tensor>>,
        fused: ActivationKind,
        hint: &SchemeHint,
    ) -> Result<Box<dyn Execution>, BackendError> {
        if scheme == ConvScheme::QuantizedGemm && weight.try_data_i8().is_err() {
            return Err(BackendError::InvalidTensor(
                "the quantized-gemm scheme requires i8 weights (float convolution given)".into(),
            ));
        }
        let prepared = match scheme {
            ConvScheme::Winograd { tile } => Some(winograd::prepare_winograd_weights(
                &params,
                tile,
                weight.data_f32(),
            )),
            _ => None,
        };
        Ok(Box::new(ConvExec {
            params,
            scheme,
            kernel_backend: self.kernel_backend,
            weight,
            scales,
            bias,
            prepared,
            activation: fused.to_kernel(),
            threads: self.threads_for(hint),
        }))
    }
}

// ---------------------------------------------------------------------------
// Execution implementations
// ---------------------------------------------------------------------------

/// The single 4-D activation input of a convolution, with its
/// `(batch, height, width)`.
fn spatial_input(
    inputs: &dyn Inputs,
) -> Result<(TensorView<'_>, usize, usize, usize), BackendError> {
    if inputs.count() == 0 {
        return Err(BackendError::ShapeMismatch(
            "convolution needs one input".into(),
        ));
    }
    let input = inputs.get(0);
    let shape = input.shape();
    if !shape.is_4d() {
        return Err(BackendError::InvalidTensor(format!(
            "convolution input must be 4-D, got {shape}"
        )));
    }
    Ok((input, shape.batch(), shape.height(), shape.width()))
}

/// `inputs[0]`'s `(batch, height, width)` when it is the 4-D activation a
/// convolution runs on (`run` rejects anything else, and needs no scratch).
fn spatial_dims(inputs: &[&Shape]) -> Option<(usize, usize, usize)> {
    let shape = inputs.first().filter(|shape| shape.is_4d())?;
    Some((shape.batch(), shape.height(), shape.width()))
}

fn data_or_empty(tensor: &Option<Arc<Tensor>>) -> &[f32] {
    tensor.as_ref().map_or(&[], |t| t.data_f32())
}

/// Convolution execution with a pre-selected scheme.
struct ConvExec {
    params: ConvParams,
    scheme: ConvScheme,
    kernel_backend: KernelBackend,
    /// i8 for the quantized-gemm scheme (activations are quantized per sample
    /// at run time, accumulation is `i32`), f32 for every other.
    weight: Arc<Tensor>,
    /// One scale per output channel of an i8 `weight`.
    scales: Vec<f32>,
    bias: Option<Arc<Tensor>>,
    /// Winograd weights transformed once at creation time (paper Fig. 3:
    /// preparation work hoisted out of the inference loop).
    prepared: Option<PreparedWinogradWeights>,
    activation: Activation,
    threads: usize,
}

impl Execution for ConvExec {
    fn scratch(&self, inputs: &[&Shape]) -> ScratchLen {
        let Some((batch, in_h, in_w)) = spatial_dims(inputs) else {
            return ScratchLen::default();
        };
        match self.scheme {
            ConvScheme::Im2col => conv::im2col_scratch(&self.params, in_h, in_w),
            ConvScheme::Winograd { tile } => {
                winograd::winograd_scratch(&self.params, tile, self.threads, in_h, in_w)
            }
            ConvScheme::Strassen1x1 => conv::strassen_1x1_scratch(&self.params, in_h, in_w),
            ConvScheme::QuantizedGemm => {
                quant::conv2d_quantized_scratch(&self.params, self.threads, batch, in_h, in_w)
            }
            ConvScheme::SlidingWindow | ConvScheme::Depthwise => ScratchLen::default(),
        }
    }

    fn run(
        &mut self,
        inputs: &dyn Inputs,
        output: &mut [f32],
        scratch: &mut Scratch,
    ) -> Result<(), BackendError> {
        let (input, batch, in_h, in_w) = spatial_input(inputs)?;
        let x = input.data();
        // Empty for the i8 weights of the quantized-gemm arm, which reads them
        // itself.
        let w = self.weight.try_data_f32().unwrap_or(&[]);
        let b = data_or_empty(&self.bias);
        let (kb, params, threads) = (self.kernel_backend, &self.params, self.threads);
        match self.scheme {
            // The direct kernel has no vector form.
            ConvScheme::SlidingWindow => {
                conv::conv2d_sliding_window(params, threads, batch, in_h, in_w, x, w, b, output)
            }
            ConvScheme::Im2col => conv::conv2d_im2col_with(
                kb, params, threads, batch, in_h, in_w, x, w, b, output, scratch,
            ),
            ConvScheme::Winograd { tile } => {
                // `create_conv` always prepares weights for the selected tile; a
                // mismatch is a programming error. Do NOT silently re-transform
                // here — that would hide the per-run cost that preparation
                // decoupling exists to remove.
                let prepared = self
                    .prepared
                    .as_ref()
                    .filter(|p| p.tile() == tile)
                    .expect("Winograd execution created without matching prepared weights");
                winograd::conv2d_winograd_prepared_with(
                    kb, params, prepared, threads, batch, in_h, in_w, x, b, output, scratch,
                )
            }
            ConvScheme::Strassen1x1 => conv::conv2d_1x1_strassen_with(
                kb, params, threads, batch, in_h, in_w, x, w, b, output, scratch,
            ),
            ConvScheme::Depthwise => {
                conv::conv2d_depthwise_with(kb, params, threads, batch, in_h, in_w, x, w, b, output)
            }
            ConvScheme::QuantizedGemm => {
                // `build_conv_exec` lets only i8 weights meet this scheme.
                let weight_q = self
                    .weight
                    .try_data_i8()
                    .map_err(|e| BackendError::InvalidTensor(e.to_string()))?;
                let scales = &self.scales;
                quant::conv2d_quantized_with(
                    kb, params, threads, batch, in_h, in_w, x, weight_q, scales, b, output, scratch,
                )
            }
        };
        self.activation.apply(output);
        Ok(())
    }

    fn describe(&self) -> String {
        let (kh, kw) = (self.params.kernel_h, self.params.kernel_w);
        let int8 = if self.scales.is_empty() {
            ""
        } else {
            " (int8)"
        };
        format!("conv {kh}x{kw} via {}{int8}", self.scheme)
    }
}

struct PoolExec {
    params: pool::PoolParams,
}

impl Execution for PoolExec {
    fn run(
        &mut self,
        inputs: &dyn Inputs,
        output: &mut [f32],
        _scratch: &mut Scratch,
    ) -> Result<(), BackendError> {
        let input = inputs.get(0);
        let s = input.shape();
        pool::pool2d(
            &self.params,
            s.batch(),
            s.channels(),
            s.height(),
            s.width(),
            input.data(),
            output,
        );
        Ok(())
    }

    fn describe(&self) -> String {
        "pool".to_string()
    }
}

struct BinaryExec {
    op: elementwise::BinaryOp,
}

impl Execution for BinaryExec {
    fn run(
        &mut self,
        inputs: &dyn Inputs,
        output: &mut [f32],
        _scratch: &mut Scratch,
    ) -> Result<(), BackendError> {
        let (a, b) = (inputs.get(0), inputs.get(1));
        if a.shape() != b.shape() {
            return Err(BackendError::ShapeMismatch(format!(
                "binary operands {} vs {}",
                a.shape(),
                b.shape()
            )));
        }
        elementwise::binary(self.op, a.data(), b.data(), output);
        Ok(())
    }

    fn describe(&self) -> String {
        "binary".to_string()
    }
}

struct ConcatExec;

impl Execution for ConcatExec {
    fn run(
        &mut self,
        inputs: &dyn Inputs,
        output: &mut [f32],
        _scratch: &mut Scratch,
    ) -> Result<(), BackendError> {
        let first = inputs.get(0).shape();
        let (batch, plane) = (first.batch(), first.height() * first.width());
        let channels = |index: usize| inputs.get(index).shape().channels();
        let total: usize = (0..inputs.count()).map(channels).sum();
        let mut offset = 0;
        for index in 0..inputs.count() {
            let part = inputs.get(index);
            let c = part.shape().channels();
            elementwise::concat_channels(output, total, offset, part.data(), c, batch, plane);
            offset += c;
        }
        Ok(())
    }

    fn describe(&self) -> String {
        "concat".to_string()
    }
}

enum FcWeight {
    /// The `[out, in]` f32 weight transposed to `[in, out]`, once, at creation.
    Float(Vec<f32>),
    /// The `[out, in]` i8 weight and its per-output-feature scales.
    Int8(Arc<Tensor>, Vec<f32>),
}

struct FullyConnectedExec {
    kernel_backend: KernelBackend,
    weight: FcWeight,
    bias: Option<Arc<Tensor>>,
    in_features: usize,
    out_features: usize,
    threads: usize,
}

impl Execution for FullyConnectedExec {
    fn scratch(&self, _inputs: &[&Shape]) -> ScratchLen {
        match self.weight {
            FcWeight::Float(_) => ScratchLen::default(),
            FcWeight::Int8(..) => {
                quant::fully_connected_quantized_scratch(self.threads, self.in_features)
            }
        }
    }

    fn run(
        &mut self,
        inputs: &dyn Inputs,
        output: &mut [f32],
        scratch: &mut Scratch,
    ) -> Result<(), BackendError> {
        let input = inputs.get(0);
        let total = input.shape().num_elements();
        if !total.is_multiple_of(self.in_features) {
            return Err(BackendError::ShapeMismatch(format!(
                "fully-connected input {} is not divisible by in_features {}",
                input.shape(),
                self.in_features
            )));
        }
        let (batch, inf, outf) = (
            total / self.in_features,
            self.in_features,
            self.out_features,
        );
        let (x, bias, threads) = (input.data(), data_or_empty(&self.bias), self.threads);
        match &self.weight {
            FcWeight::Float(weight_t) => {
                let kb = self.kernel_backend;
                fc::fully_connected_with(kb, threads, batch, inf, outf, x, weight_t, bias, output)
            }
            FcWeight::Int8(weight, scales) => {
                let weight_q = weight
                    .try_data_i8()
                    .map_err(|e| BackendError::InvalidTensor(e.to_string()))?;
                quant::fully_connected_quantized(
                    threads, batch, inf, outf, x, weight_q, scales, bias, output, scratch,
                )
            }
        }
        Ok(())
    }

    fn describe(&self) -> String {
        match self.weight {
            FcWeight::Float(_) => "fully-connected",
            FcWeight::Int8(..) => "fully-connected via quantized-gemm (int8)",
        }
        .to_string()
    }
}

/// The operators that rewrite their input element by element, one execution:
/// the input is copied into the output region and transformed there.
enum InPlaceExec {
    Activation(Activation),
    BatchNorm {
        mean: Arc<Tensor>,
        var: Arc<Tensor>,
        gamma: Arc<Tensor>,
        beta: Arc<Tensor>,
        epsilon: f32,
    },
    Scale {
        scale: Arc<Tensor>,
        shift: Arc<Tensor>,
    },
    Softmax,
    /// Flatten and reshape: row-major data does not move when only the shape
    /// changes, and the new shape is shape inference's business.
    Reshape,
}

impl Execution for InPlaceExec {
    fn run(
        &mut self,
        inputs: &dyn Inputs,
        output: &mut [f32],
        _scratch: &mut Scratch,
    ) -> Result<(), BackendError> {
        let input = inputs.get(0);
        let s = input.shape();
        if output.len() != input.data().len() {
            return Err(BackendError::ShapeMismatch(format!(
                "{} from {s} to {} elements changes element count",
                self.describe(),
                output.len()
            )));
        }
        output.copy_from_slice(input.data());
        let channel_planes = || (s.batch(), s.channels(), s.height() * s.width());
        match self {
            InPlaceExec::Activation(activation) => activation.apply(output),
            InPlaceExec::BatchNorm {
                mean,
                var,
                gamma,
                beta,
                epsilon,
            } => {
                let (batch, channels, plane) = channel_planes();
                norm::batch_norm_inplace(
                    output,
                    batch,
                    channels,
                    plane,
                    mean.data_f32(),
                    var.data_f32(),
                    gamma.data_f32(),
                    beta.data_f32(),
                    *epsilon,
                );
            }
            InPlaceExec::Scale { scale, shift } => {
                let (batch, channels, plane) = channel_planes();
                norm::scale_inplace(
                    output,
                    batch,
                    channels,
                    plane,
                    scale.data_f32(),
                    shift.data_f32(),
                );
            }
            InPlaceExec::Softmax => {
                let axis_len = *s.dims().last().unwrap_or(&1);
                activation::softmax_inplace(output, axis_len.max(1));
            }
            InPlaceExec::Reshape => {}
        }
        Ok(())
    }

    fn describe(&self) -> String {
        match self {
            InPlaceExec::Activation(_) => "activation",
            InPlaceExec::BatchNorm { .. } => "batch-norm",
            InPlaceExec::Scale { .. } => "scale",
            InPlaceExec::Softmax => "softmax",
            InPlaceExec::Reshape => "reshape",
        }
        .to_string()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mnn_graph::{GraphBuilder, PoolAttrs};
    use mnn_tensor::Shape;

    /// Create the execution of `graph`'s first node on `backend` and run it once on
    /// `input`, into an output and a scratch sized the way a session would (the
    /// output starts as NaN, so a kernel that assumed zeroes shows).
    pub(crate) fn run_first_node(
        graph: &Graph,
        backend: &dyn Backend,
        input: &Tensor,
        hint: &SchemeHint,
    ) -> Result<Tensor, BackendError> {
        let mut graph = graph.clone();
        graph.infer_shapes().unwrap();
        let node = &graph.nodes()[0];
        let shape = graph.tensor_info(node.outputs[0]).unwrap().shape.clone();
        let mut execution = backend.on_create(node, &graph, hint)?;
        let mut scratch = Scratch::new(execution.scratch(&[input.shape()]));
        let mut output = Tensor::full(shape.unwrap(), f32::NAN);
        execution.run(&[input.view()], output.data_f32_mut(), &mut scratch)?;
        Ok(output)
    }

    fn run_single_node_graph(
        graph: &Graph,
        backend: &CpuBackend,
        input: &Tensor,
        hint: &SchemeHint,
    ) -> Tensor {
        run_first_node(graph, backend, input, hint).unwrap()
    }

    fn pseudo_random(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5
            })
            .collect()
    }

    /// Every algorithm a convolution can be planned with — the float pool
    /// and, over int8 weights, the integer kernel plus the float pool (what
    /// `mnn_converter::quantized_conv_candidates` enumerates) — through
    /// `on_create` on the host's kernel set, against the naive reference.
    /// The grid crosses the vector kernels' remainder lanes (1/7/9/17
    /// channels, odd widths), stride 2, 1×1, 5×5 and depthwise.
    #[test]
    fn conv_execution_matches_reference_for_every_scheme() {
        let grid = [
            (Conv2dAttrs::same_3x3(1, 7), 9, 11),
            (Conv2dAttrs::same_3x3(7, 9), 13, 10),
            (Conv2dAttrs::same_3x3(17, 9), 8, 17),
            (Conv2dAttrs::square(9, 17, 3, 2, 1), 15, 11),
            (Conv2dAttrs::pointwise(17, 7), 7, 9),
            (Conv2dAttrs::square(7, 1, 5, 1, 2), 11, 13),
            (Conv2dAttrs::depthwise_3x3(9, 1), 12, 17),
            (Conv2dAttrs::depthwise_3x3(17, 2), 13, 9),
        ];
        let backend = CpuBackend::new(2);
        for (case, (attrs, in_h, in_w)) in grid.into_iter().enumerate() {
            let attrs = attrs.with_bias();
            let params = attrs.to_conv_params();
            let seed = 100 * case as u64;
            let input_shape = Shape::nchw(1, attrs.in_channels, in_h, in_w);
            let input = Tensor::from_vec(
                input_shape.clone(),
                pseudo_random(input_shape.num_elements(), seed + 1),
            );
            let weight_shape = Shape::new(vec![
                attrs.out_channels,
                attrs.in_channels / attrs.groups,
                attrs.kernel.0,
                attrs.kernel.1,
            ]);
            let weight = pseudo_random(params.weight_len(), seed + 2);
            let bias = pseudo_random(attrs.out_channels, seed + 3);
            let scales = quant::per_channel_scales(&weight, attrs.out_channels);
            let weight_q = quant::quantize_per_channel(&weight, &scales);
            let dequantized = quant::dequantize_per_channel(&weight_q, &scales);

            let float_pool = ConvScheme::float_conv_pool(&params, 6);
            let mut quantized_pool = float_pool.clone();
            if !params.is_depthwise() {
                quantized_pool.insert(0, ConvScheme::QuantizedGemm);
            }
            let float_op = Op::Conv2d(attrs.clone());
            let quantized_op = Op::Conv2dQuantized {
                attrs: attrs.clone(),
                activation: ActivationKind::None,
                quant: QuantAttrs {
                    weight_scales: scales.clone(),
                },
            };
            let float_weight = Tensor::from_vec(weight_shape.clone(), weight.clone());
            let int8_weight = Tensor::try_from_i8(weight_shape, weight_q.clone()).unwrap();
            for (op, weight_tensor, reference_weight, pool) in [
                (float_op, float_weight, &weight, float_pool),
                (quantized_op, int8_weight, &dequantized, quantized_pool),
            ] {
                let mut g = Graph::new("conv");
                let x = g.add_tensor("x", Some(input_shape.clone()));
                g.mark_input(x);
                let w = g.add_constant("w", weight_tensor);
                let b = g.add_constant(
                    "b",
                    Tensor::from_vec(Shape::vector(bias.len()), bias.clone()),
                );
                let (_, y) = g.add_node("conv", op, vec![x, w, b]);
                g.mark_output(y);
                let reference = conv::conv2d_reference(
                    &params,
                    1,
                    in_h,
                    in_w,
                    input.data_f32(),
                    reference_weight,
                    &bias,
                );
                for scheme in pool {
                    let hint = SchemeHint {
                        conv_scheme: Some(scheme),
                        threads: Some(2),
                    };
                    let got = run_single_node_graph(&g, &backend, &input, &hint);
                    if scheme == ConvScheme::QuantizedGemm {
                        // Exact i32 accumulation: the same bits on every
                        // kernel set and thread count.
                        let scalar = Scratch::collect(
                            reference.len(),
                            quant::conv2d_quantized_scratch(&params, 1, 1, in_h, in_w),
                            |out, scratch| {
                                quant::conv2d_quantized_with(
                                    KernelBackend::Scalar,
                                    &params,
                                    1,
                                    1,
                                    in_h,
                                    in_w,
                                    input.data_f32(),
                                    &weight_q,
                                    &scales,
                                    &bias,
                                    out,
                                    scratch,
                                )
                            },
                        );
                        assert_eq!(got.data_f32(), scalar, "case {case} {scheme}");
                        continue;
                    }
                    // The bound of `kernels/tests/simd_conformance.rs`: GEMM-
                    // depth rounding for the direct and GEMM schemes, a
                    // decade more where Winograd's transforms compound it.
                    let tol = match scheme {
                        ConvScheme::Winograd { .. } => 1e-3,
                        _ => 1e-4,
                    };
                    for (i, (value, want)) in got.data_f32().iter().zip(&reference).enumerate() {
                        assert!(
                            (value - want).abs() <= tol * (1.0 + want.abs()),
                            "case {case} {scheme}: element {i} is {value}, reference {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pointwise_conv_uses_strassen_by_default() {
        let params = Conv2dAttrs::pointwise(16, 32).to_conv_params();
        assert_eq!(
            CpuBackend::default_conv_scheme(&params),
            ConvScheme::Strassen1x1
        );
        let dw = Conv2dAttrs::depthwise_3x3(16, 1).to_conv_params();
        assert_eq!(CpuBackend::default_conv_scheme(&dw), ConvScheme::Depthwise);
    }

    #[test]
    fn pool_and_activation_executions() {
        let mut b = GraphBuilder::new("net");
        let x = b.input("x", Shape::nchw(1, 2, 4, 4));
        let y = b.pool("pool", x, PoolAttrs::max(2, 2));
        let g = b.build(vec![y]);
        let backend = CpuBackend::new(1);
        let input = Tensor::from_vec(Shape::nchw(1, 2, 4, 4), (0..32).map(|v| v as f32).collect());
        let out = run_single_node_graph(&g, &backend, &input, &SchemeHint::default());
        assert_eq!(out.shape(), &Shape::nchw(1, 2, 2, 2));
        assert_eq!(out.data_f32()[0], 5.0);
    }

    #[test]
    fn unsupported_missing_weight_is_reported() {
        let mut g = Graph::new("broken");
        let x = g.add_tensor("x", Some(Shape::nchw(1, 3, 8, 8)));
        g.mark_input(x);
        // weight slot exists but holds no constant data
        let w = g.add_tensor("w", Some(Shape::new(vec![8, 3, 3, 3])));
        let (_, out) = g.add_node("conv", Op::Conv2d(Conv2dAttrs::same_3x3(3, 8)), vec![x, w]);
        g.mark_output(out);
        let backend = CpuBackend::new(1);
        let err = backend
            .on_create(&g.nodes()[0], &g, &SchemeHint::default())
            .err()
            .unwrap();
        assert!(matches!(err, BackendError::MissingConstant(_)));
    }

    #[test]
    fn cpu_backend_descriptor_scales_with_threads() {
        let d1 = CpuBackend::new(1).descriptor();
        let d4 = CpuBackend::new(4).descriptor();
        assert!(d4.flops > d1.flops);
        assert_eq!(d1.t_schedule_ms, 0.0);
        assert!(!d1.forward_type.is_gpu());
    }

    #[test]
    fn convolution_rejects_an_input_that_is_not_4d() {
        let mut b = GraphBuilder::new("conv");
        let x = b.input("x", Shape::nchw(1, 3, 8, 8));
        let y = b.conv2d_auto("conv", x, Conv2dAttrs::same_3x3(3, 4), true);
        let g = b.build(vec![y]);
        let bad = Tensor::zeros(Shape::matrix(4, 4));
        let err = run_first_node(&g, &CpuBackend::new(1), &bad, &SchemeHint::default());
        assert!(matches!(err, Err(BackendError::InvalidTensor(_))));
    }
}
