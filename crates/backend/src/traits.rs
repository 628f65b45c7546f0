//! The `Backend` abstraction (paper Fig. 5) and supporting types.

use crate::BackendError;
use mnn_graph::{Graph, Node};
use mnn_kernels::{Scratch, ScratchLen};
use mnn_tensor::{Shape, TensorView};
use std::fmt;

/// The hardware/software solution a backend targets.
///
/// Mirrors MNN's `MNNForwardType`: the CPU plus the four GPU standards discussed in
/// the paper (Metal on iOS; OpenCL / OpenGL / Vulkan on Android).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ForwardType {
    /// Multi-threaded CPU.
    Cpu,
    /// Apple Metal (iOS GPU).
    Metal,
    /// OpenCL (Android GPU).
    OpenCl,
    /// OpenGL compute (Android GPU).
    OpenGl,
    /// Vulkan (Android GPU).
    Vulkan,
}

impl ForwardType {
    /// Whether this is a GPU-style backend (i.e. pays a per-dispatch schedule cost).
    pub const fn is_gpu(self) -> bool {
        !matches!(self, ForwardType::Cpu)
    }

    /// Short lowercase name.
    pub const fn name(self) -> &'static str {
        match self {
            ForwardType::Cpu => "cpu",
            ForwardType::Metal => "metal",
            ForwardType::OpenCl => "opencl",
            ForwardType::OpenGl => "opengl",
            ForwardType::Vulkan => "vulkan",
        }
    }
}

impl fmt::Display for ForwardType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Performance characteristics of a backend, used by the pre-inference cost model
/// (paper Eq. 5 and Appendix C).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendDescriptor {
    /// The targeted forward type.
    pub forward_type: ForwardType,
    /// Estimated attainable floating-point throughput, in FLOPs per second.
    pub flops: f64,
    /// Per-operator scheduling overhead in milliseconds (command-buffer setup for
    /// GPU-style backends; 0 for the CPU).
    pub t_schedule_ms: f64,
    /// Number of worker threads (CPU only; 1 for GPU-style backends).
    pub threads: usize,
}

impl BackendDescriptor {
    /// Estimated time in milliseconds to run an operator with `muls` scalar
    /// multiplications on this backend (paper Eq. 5).
    pub fn op_cost_ms(&self, muls: u64) -> f64 {
        let compute = muls as f64 / self.flops * 1000.0;
        if self.forward_type.is_gpu() {
            compute + self.t_schedule_ms
        } else {
            compute
        }
    }
}

/// The convolution algorithm chosen by pre-inference for one layer
/// (the *scheme pool* of paper Eq. 3).
///
/// A scheme names an algorithm only. Which instruction set its kernels use is
/// a fact about the host ([`mnn_kernels::simd::KernelBackend::active`]), not
/// something pre-inference chooses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConvScheme {
    /// Direct sliding-window convolution.
    SlidingWindow,
    /// im2col + GEMM.
    Im2col,
    /// Winograd `F(n×n, k×k)` with the given output tile size.
    Winograd {
        /// Output tile size `n̂` selected by the cost model (Eq. 2).
        tile: usize,
    },
    /// 1×1 convolution lowered to a Strassen-accelerated GEMM.
    Strassen1x1,
    /// Channel-wise (depthwise) direct convolution.
    Depthwise,
    /// Int8 integer kernel: activations quantized on the fly, `i32` accumulation,
    /// per-output-channel rescale (selected for quantized graphs).
    QuantizedGemm,
}

impl fmt::Display for ConvScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConvScheme::SlidingWindow => write!(f, "sliding-window"),
            ConvScheme::Im2col => write!(f, "im2col"),
            ConvScheme::Winograd { tile } => write!(f, "winograd-F({tile}x{tile})"),
            ConvScheme::Strassen1x1 => write!(f, "strassen-1x1"),
            ConvScheme::Depthwise => write!(f, "depthwise"),
            ConvScheme::QuantizedGemm => write!(f, "quantized-gemm"),
        }
    }
}

impl ConvScheme {
    /// Parse the canonical [`Display`](fmt::Display) form back into a scheme —
    /// the inverse used by the persistent tuning cache, whose entries store
    /// schemes as their display strings.
    pub fn parse(key: &str) -> Option<ConvScheme> {
        match key {
            "sliding-window" => Some(ConvScheme::SlidingWindow),
            "im2col" => Some(ConvScheme::Im2col),
            "strassen-1x1" => Some(ConvScheme::Strassen1x1),
            "depthwise" => Some(ConvScheme::Depthwise),
            "quantized-gemm" => Some(ConvScheme::QuantizedGemm),
            other => {
                let body = other.strip_prefix("winograd-F(")?.strip_suffix(')')?;
                let (n, m) = body.split_once('x')?;
                let tile: usize = n.parse().ok()?;
                if m != n || tile < 2 {
                    return None;
                }
                Some(ConvScheme::Winograd { tile })
            }
        }
    }

    /// Every float scheme the CPU backend can execute for `params` — the
    /// candidate pool the auto-tuner measures (a superset of what the cost
    /// model would shortlist). `max_tile` bounds the Winograd tile-size
    /// candidates. The order is deterministic so tuned plans are reproducible
    /// under an injected timer.
    pub fn float_conv_pool(
        params: &mnn_kernels::conv::ConvParams,
        max_tile: usize,
    ) -> Vec<ConvScheme> {
        if params.is_depthwise() {
            return vec![ConvScheme::Depthwise];
        }
        let mut pool = Vec::new();
        if params.is_pointwise() {
            pool.push(ConvScheme::Strassen1x1);
        }
        pool.push(ConvScheme::SlidingWindow);
        // Unfolding a 1×1 kernel copies the input: im2col would be the
        // Strassen path's GEMM behind a redundant copy, and two candidates
        // that close make tuned plans flip from one run to the next.
        if params.im2col_applicable() && !params.is_pointwise() {
            pool.push(ConvScheme::Im2col);
        }
        if params.winograd_applicable() {
            for tile in 2..=max_tile.max(2) {
                pool.push(ConvScheme::Winograd { tile });
            }
        }
        pool
    }
}

/// Per-node hints passed from pre-inference to [`Backend::on_create`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SchemeHint {
    /// Convolution scheme chosen by the cost model; `None` lets the backend pick a
    /// reasonable default.
    pub conv_scheme: Option<ConvScheme>,
    /// Thread-count override.
    pub threads: Option<usize>,
}

/// The activation inputs of one [`Execution::run`], in graph order, resolved
/// on demand: a session answers from its planned arena and staged inputs
/// without building a list per step; everyone else passes an array of views.
pub trait Inputs {
    /// How many activation inputs there are.
    fn count(&self) -> usize;

    /// The `index`-th input (`index < self.count()`).
    fn get(&self, index: usize) -> TensorView<'_>;
}

impl<const N: usize> Inputs for [TensorView<'_>; N] {
    fn count(&self) -> usize {
        N
    }

    fn get(&self, index: usize) -> TensorView<'_> {
        self[index]
    }
}

/// A ready-to-run operator instance (MNN's `Execution`).
///
/// Constant inputs (weights, biases, statistics) are captured at creation time so
/// they can be pre-processed once (e.g. Winograd-transformed); `run` receives only
/// the activation inputs, in graph order. An execution owns no activation
/// memory: where its output lives and how large it is were decided by shape
/// inference and the session's memory plan.
pub trait Execution: Send {
    /// The scratch [`Execution::run`] borrows for activation inputs of these
    /// shapes — asked once per input geometry, at preparation time.
    fn scratch(&self, _inputs: &[&Shape]) -> ScratchLen {
        ScratchLen::default()
    }

    /// Execute the operator: read `inputs` and overwrite every element of
    /// `output` — as long as shape inference made this node's output, holding
    /// anything — with `scratch` (at least [`Execution::scratch`]) for temporaries.
    ///
    /// # Errors
    ///
    /// Returns a [`BackendError`] if the inputs are inconsistent with the graph
    /// metadata captured at creation time.
    ///
    /// # Panics
    ///
    /// Panics if `output` or `scratch` is not the size the inputs call for.
    fn run(
        &mut self,
        inputs: &dyn Inputs,
        output: &mut [f32],
        scratch: &mut Scratch,
    ) -> Result<(), BackendError>;

    /// Human-readable description (op + chosen scheme) for logs and debugging.
    fn describe(&self) -> String {
        "execution".to_string()
    }
}

/// The backend abstraction of paper Fig. 5.
///
/// A backend knows its performance envelope ([`BackendDescriptor`]) and creates
/// [`Execution`] instances for graph nodes. Activation memory is not its
/// business: the session plans it (see [`crate::memory`]) and lends each
/// execution its inputs, output region and scratch per run.
pub trait Backend: Send {
    /// The forward type this backend implements.
    fn forward_type(&self) -> ForwardType;

    /// Performance characteristics used by the pre-inference cost model.
    fn descriptor(&self) -> BackendDescriptor;

    /// Whether the backend has an implementation for the operator.
    fn supports(&self, op: &mnn_graph::Op) -> bool;

    /// Create an execution instance for `node` (MNN's `onCreate`).
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::UnsupportedOp`] when the operator is not supported and
    /// [`BackendError::MissingConstant`] when a weight input has no constant data.
    fn on_create(
        &self,
        node: &Node,
        graph: &Graph,
        hint: &SchemeHint,
    ) -> Result<Box<dyn Execution>, BackendError>;

    /// Whether this backend's [`Execution`] instances stay valid when the input
    /// geometry changes (they read activation shapes at run time and capture no
    /// per-shape state).
    ///
    /// Pre-inference may carry such executions across a `resize_session` instead
    /// of re-creating them. Backends that bake shape-derived state into their
    /// executions at creation time — e.g. the simulated GPU backends, whose
    /// per-run virtual cost is computed from the shapes seen at `on_create` —
    /// must return `false` (the default) so resizes re-encode them.
    fn executions_are_geometry_invariant(&self) -> bool {
        false
    }

    /// Accumulated virtual time, in milliseconds, for simulated backends.
    ///
    /// The CPU backend reports 0 (callers measure wall-clock time instead).
    fn virtual_elapsed_ms(&self) -> f64 {
        0.0
    }

    /// Reset the virtual clock of a simulated backend.
    fn reset_virtual_clock(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_type_gpu_flag() {
        assert!(!ForwardType::Cpu.is_gpu());
        assert!(ForwardType::Vulkan.is_gpu());
        assert_eq!(ForwardType::Metal.to_string(), "metal");
    }

    #[test]
    fn descriptor_cost_follows_eq5() {
        let cpu = BackendDescriptor {
            forward_type: ForwardType::Cpu,
            flops: 2e9,
            t_schedule_ms: 0.0,
            threads: 4,
        };
        let gpu = BackendDescriptor {
            forward_type: ForwardType::Vulkan,
            flops: 4e9,
            t_schedule_ms: 0.01,
            threads: 1,
        };
        // 2e6 muls: CPU = 1 ms, GPU = 0.5 ms + 0.01 ms
        assert!((cpu.op_cost_ms(2_000_000) - 1.0).abs() < 1e-9);
        assert!((gpu.op_cost_ms(2_000_000) - 0.51).abs() < 1e-9);
    }

    #[test]
    fn conv_scheme_display() {
        assert_eq!(
            ConvScheme::Winograd { tile: 4 }.to_string(),
            "winograd-F(4x4)"
        );
        assert_eq!(ConvScheme::SlidingWindow.to_string(), "sliding-window");
    }

    #[test]
    fn keys_written_by_older_caches_do_not_parse() {
        // Tune caches up to format v2 named an instruction set in the scheme.
        for key in [
            "im2col-simd",
            "depthwise-simd",
            "quantized-gemm-simd",
            "winograd-simd-F(4x4)",
        ] {
            assert_eq!(ConvScheme::parse(key), None, "{key}");
        }
    }
}
