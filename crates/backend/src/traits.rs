//! The `Backend` abstraction (paper Fig. 5) and supporting types.

use crate::BackendError;
use mnn_graph::{Graph, Node};
use mnn_tensor::Tensor;
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
    /// im2col + GEMM with the runtime-detected SIMD micro-kernel (AVX2/FMA or
    /// NEON). Only enters candidate pools when the host's active
    /// [`mnn_kernels::simd::KernelBackend`] is vectorized.
    Im2colSimd,
    /// Winograd `F(n×n, k×k)` with SIMD transforms and per-position GEMMs.
    WinogradSimd {
        /// Output tile size `n̂` (same meaning as [`ConvScheme::Winograd`]).
        tile: usize,
    },
    /// Channel-wise (depthwise) convolution with per-row SIMD axpy taps.
    DepthwiseSimd,
    /// Int8 kernel with the SIMD integer GEMM stage — bit-identical to
    /// [`ConvScheme::QuantizedGemm`] (exact `i32` accumulation), just faster.
    QuantizedGemmSimd,
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
            ConvScheme::Im2colSimd => write!(f, "im2col-simd"),
            ConvScheme::WinogradSimd { tile } => write!(f, "winograd-simd-F({tile}x{tile})"),
            ConvScheme::DepthwiseSimd => write!(f, "depthwise-simd"),
            ConvScheme::QuantizedGemmSimd => write!(f, "quantized-gemm-simd"),
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
            "im2col-simd" => Some(ConvScheme::Im2colSimd),
            "depthwise-simd" => Some(ConvScheme::DepthwiseSimd),
            "quantized-gemm-simd" => Some(ConvScheme::QuantizedGemmSimd),
            other => {
                let (body, simd) = match other.strip_prefix("winograd-simd-F(") {
                    Some(rest) => (rest, true),
                    None => (other.strip_prefix("winograd-F(")?, false),
                };
                let body = body.strip_suffix(')')?;
                let (n, m) = body.split_once('x')?;
                let tile: usize = n.parse().ok()?;
                if m != n || tile < 2 {
                    return None;
                }
                Some(if simd {
                    ConvScheme::WinogradSimd { tile }
                } else {
                    ConvScheme::Winograd { tile }
                })
            }
        }
    }

    /// Whether this scheme requires a vectorized kernel backend. SIMD schemes
    /// enter execution plans only via tuning candidates (never via the cost
    /// model), and `on_create` rejects them when the host's active kernel
    /// backend is scalar — so a tuning cache persisted on a SIMD host can
    /// never install a kernel a scalar host lacks.
    pub fn is_simd(self) -> bool {
        matches!(
            self,
            ConvScheme::Im2colSimd
                | ConvScheme::WinogradSimd { .. }
                | ConvScheme::DepthwiseSimd
                | ConvScheme::QuantizedGemmSimd
        )
    }

    /// The scalar scheme this SIMD scheme accelerates (identity for scalar
    /// schemes). Used by tests and reporting.
    pub fn scalar_equivalent(self) -> ConvScheme {
        match self {
            ConvScheme::Im2colSimd => ConvScheme::Im2col,
            ConvScheme::WinogradSimd { tile } => ConvScheme::Winograd { tile },
            ConvScheme::DepthwiseSimd => ConvScheme::Depthwise,
            ConvScheme::QuantizedGemmSimd => ConvScheme::QuantizedGemm,
            other => other,
        }
    }

    /// Every float scheme the CPU backend can execute for `params` — the
    /// candidate pool the auto-tuner measures (a superset of what the cost
    /// model would shortlist). `max_tile` bounds the Winograd tile-size
    /// candidates. The order is deterministic so tuned plans are reproducible
    /// under an injected timer.
    ///
    /// When the host's active kernel backend is vectorized
    /// ([`mnn_kernels::simd::simd_available`]), each scalar scheme with a SIMD
    /// implementation also contributes its SIMD twin, so the tuner picks
    /// scalar-vs-SIMD empirically per geometry.
    pub fn float_conv_pool(
        params: &mnn_kernels::conv::ConvParams,
        max_tile: usize,
    ) -> Vec<ConvScheme> {
        let simd = mnn_kernels::simd::simd_available();
        if params.is_depthwise() {
            let mut pool = vec![ConvScheme::Depthwise];
            if simd {
                pool.push(ConvScheme::DepthwiseSimd);
            }
            return pool;
        }
        let mut pool = Vec::new();
        if params.is_pointwise() {
            pool.push(ConvScheme::Strassen1x1);
        }
        pool.push(ConvScheme::SlidingWindow);
        if params.im2col_applicable() {
            pool.push(ConvScheme::Im2col);
            if simd {
                pool.push(ConvScheme::Im2colSimd);
            }
        }
        if params.winograd_applicable() {
            for tile in 2..=max_tile.max(2) {
                pool.push(ConvScheme::Winograd { tile });
                if simd {
                    pool.push(ConvScheme::WinogradSimd { tile });
                }
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

/// A ready-to-run operator instance (MNN's `Execution`).
///
/// Constant inputs (weights, biases, statistics) are captured at creation time so
/// they can be pre-processed once (e.g. Winograd-transformed); `run` receives only
/// the activation inputs, in graph order.
pub trait Execution: Send {
    /// Execute the operator.
    ///
    /// # Errors
    ///
    /// Returns a [`BackendError`] if the tensors are inconsistent with the graph
    /// metadata captured at creation time.
    fn run(&mut self, inputs: &[&Tensor], output: &mut Tensor) -> Result<(), BackendError>;

    /// Human-readable description (op + chosen scheme) for logs and debugging.
    fn describe(&self) -> String {
        "execution".to_string()
    }
}

/// The backend abstraction of paper Fig. 5.
///
/// A backend knows its performance envelope ([`BackendDescriptor`]) and creates
/// [`Execution`] instances for graph nodes. Activation memory is not its
/// business: the session plans it (see [`crate::memory`]).
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

    /// Hook called before a sequence of executions (MNN's `onExecuteBegin`).
    fn on_execute_begin(&mut self) {}

    /// Hook called after a sequence of executions (MNN's `onExecuteEnd`).
    fn on_execute_end(&mut self) {}

    /// Copy tensor contents between backends / layouts (MNN's `onCopyBuffer`).
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::ShapeMismatch`] when the logical shapes differ.
    fn on_copy_buffer(&self, src: &Tensor, dst: &mut Tensor) -> Result<(), BackendError> {
        if src.shape() != dst.shape() {
            return Err(BackendError::ShapeMismatch(format!(
                "copy between {} and {}",
                src.shape(),
                dst.shape()
            )));
        }
        *dst = src.clone();
        Ok(())
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
        assert_eq!(
            ConvScheme::WinogradSimd { tile: 4 }.to_string(),
            "winograd-simd-F(4x4)"
        );
        assert_eq!(ConvScheme::Im2colSimd.to_string(), "im2col-simd");
    }

    #[test]
    fn simd_schemes_round_trip_through_parse() {
        let schemes = [
            ConvScheme::Im2colSimd,
            ConvScheme::WinogradSimd { tile: 2 },
            ConvScheme::WinogradSimd { tile: 6 },
            ConvScheme::DepthwiseSimd,
            ConvScheme::QuantizedGemmSimd,
            ConvScheme::Winograd { tile: 3 },
            ConvScheme::Im2col,
        ];
        for scheme in schemes {
            assert_eq!(ConvScheme::parse(&scheme.to_string()), Some(scheme));
        }
        assert_eq!(ConvScheme::parse("winograd-simd-F(1x1)"), None);
        assert_eq!(ConvScheme::parse("winograd-simd-F(2x3)"), None);
    }

    #[test]
    fn is_simd_and_scalar_equivalent_agree() {
        assert!(ConvScheme::Im2colSimd.is_simd());
        assert!(ConvScheme::WinogradSimd { tile: 2 }.is_simd());
        assert!(!ConvScheme::Im2col.is_simd());
        assert!(!ConvScheme::QuantizedGemm.is_simd());
        assert_eq!(
            ConvScheme::WinogradSimd { tile: 4 }.scalar_equivalent(),
            ConvScheme::Winograd { tile: 4 }
        );
        assert_eq!(
            ConvScheme::QuantizedGemmSimd.scalar_equivalent(),
            ConvScheme::QuantizedGemm
        );
        assert_eq!(
            ConvScheme::SlidingWindow.scalar_equivalent(),
            ConvScheme::SlidingWindow
        );
    }

    #[test]
    fn float_pool_offers_simd_twins_only_when_available() {
        let params = mnn_kernels::conv::ConvParams::square(8, 8, 3, 1);
        let pool = ConvScheme::float_conv_pool(&params, 4);
        let simd_count = pool.iter().filter(|s| s.is_simd()).count();
        if mnn_kernels::simd::simd_available() {
            assert!(simd_count > 0, "SIMD host must offer SIMD candidates");
            // Every SIMD candidate has its scalar twin in the same pool.
            for s in pool.iter().filter(|s| s.is_simd()) {
                assert!(pool.contains(&s.scalar_equivalent()));
            }
        } else {
            assert_eq!(simd_count, 0, "scalar host must not offer SIMD candidates");
        }
    }
}
