//! Simulated GPU backends (Metal / OpenCL / OpenGL / Vulkan).
//!
//! Physical mobile GPUs are not available in this reproduction, so GPU backends are
//! *simulated*: operator outputs are computed with the same CPU kernels (bit-exact
//! results, so hybrid scheduling stays correct), while a virtual clock charges the
//! analytic cost of paper Eq. 5,
//!
//! ```text
//! C_op = MUL / FLOPS * 1000 + t_schedule        (milliseconds)
//! ```
//!
//! using the per-GPU `FLOPS` figures and per-standard `t_schedule` constants from the
//! paper's Appendix C. The backend also models the *preparation–execution
//! decoupling* of Section 3.2: when decoupling is enabled, the command-buffer setup
//! cost (`t_schedule`) is paid once at execution-creation time instead of on every
//! inference, which is what produces the large GPU-side gains of Table 2.

use crate::cpu::CpuBackend;
use crate::traits::{Backend, BackendDescriptor, Execution, ForwardType, Inputs, SchemeHint};
use crate::BackendError;
use mnn_graph::{Graph, Node, Op};
use mnn_kernels::{Scratch, ScratchLen};
use mnn_tensor::Shape;
use parking_lot::Mutex;
use std::sync::Arc;

/// Performance profile of a (simulated) mobile GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuProfile {
    /// Marketing name of the GPU (e.g. `"Mali-G72"`).
    pub name: &'static str,
    /// Sustained throughput in FLOPs per second (Appendix C table).
    pub flops: f64,
}

impl GpuProfile {
    /// A generic GPU not present in the appendix list: the paper assigns 4 GFLOPS.
    pub const GENERIC: GpuProfile = GpuProfile {
        name: "generic-gpu",
        flops: 4.0e9,
    };

    /// Look up a GPU from the paper's Appendix C list by name.
    pub fn by_name(name: &str) -> GpuProfile {
        const TABLE: &[(&str, f64)] = &[
            ("Mali-T860", 6.83e9),
            ("Mali-T880", 6.83e9),
            ("Mali-G51", 6.83e9),
            ("Mali-G52", 6.83e9),
            ("Mali-G71", 31.61e9),
            ("Mali-G72", 31.61e9),
            ("Mali-G76", 31.61e9),
            ("Adreno 505", 3.19e9),
            ("Adreno 506", 4.74e9),
            ("Adreno 512", 14.23e9),
            ("Adreno 530", 25.40e9),
            ("Adreno 540", 42.74e9),
            ("Adreno 615", 16.77e9),
            ("Adreno 616", 18.77e9),
            ("Adreno 618", 18.77e9),
            ("Adreno 630", 42.74e9),
            ("Adreno 640", 42.74e9),
        ];
        TABLE
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|&(name, flops)| GpuProfile { name, flops })
            .unwrap_or(GpuProfile::GENERIC)
    }
}

/// Per-standard command scheduling overhead in milliseconds (paper Appendix C):
/// OpenCL/OpenGL pay ≈0.05 ms per kernel enqueue, Vulkan/Metal only submit command
/// buffers and pay ≈0.01 ms.
pub fn t_schedule_ms(standard: ForwardType) -> f64 {
    match standard {
        ForwardType::OpenCl | ForwardType::OpenGl => 0.05,
        ForwardType::Vulkan | ForwardType::Metal => 0.01,
        ForwardType::Cpu => 0.0,
    }
}

/// A simulated GPU backend.
pub struct SimGpuBackend {
    standard: ForwardType,
    profile: GpuProfile,
    /// Inner CPU backend used to actually produce numeric results.
    cpu: CpuBackend,
    /// Accumulated virtual time in milliseconds.
    clock: Arc<Mutex<f64>>,
    /// Whether preparation (command encoding) is decoupled from execution.
    decoupled: bool,
}

impl SimGpuBackend {
    /// Create a simulated backend for the given GPU standard and profile.
    ///
    /// # Panics
    ///
    /// Panics if `standard` is [`ForwardType::Cpu`].
    pub fn new(standard: ForwardType, profile: GpuProfile) -> Self {
        assert!(
            standard.is_gpu(),
            "SimGpuBackend requires a GPU forward type"
        );
        SimGpuBackend {
            standard,
            profile,
            cpu: CpuBackend::new(1),
            clock: Arc::new(Mutex::new(0.0)),
            decoupled: true,
        }
    }

    /// Enable or disable preparation–execution decoupling (Table 2's ablation).
    pub fn set_decoupled(&mut self, decoupled: bool) {
        self.decoupled = decoupled;
    }

    /// Whether preparation–execution decoupling is enabled.
    pub fn decoupled(&self) -> bool {
        self.decoupled
    }

    /// The GPU profile backing the simulation.
    pub fn profile(&self) -> GpuProfile {
        self.profile
    }
}

impl Backend for SimGpuBackend {
    fn forward_type(&self) -> ForwardType {
        self.standard
    }

    fn descriptor(&self) -> BackendDescriptor {
        BackendDescriptor {
            forward_type: self.standard,
            flops: self.profile.flops,
            t_schedule_ms: t_schedule_ms(self.standard),
            threads: 1,
        }
    }

    fn supports(&self, op: &Op) -> bool {
        // GPU backends implement the compute-heavy operators; the long tail
        // (fully-connected heads, reshapes, softmax) falls back to the CPU, which is
        // exactly the hybrid-scheduling situation described in Section 3.4.
        // Quantized (int8) operators are CPU-only too: the simulated GPUs model
        // f32 pipelines, so hybrid scheduling routes `Conv2dQuantized` /
        // `FullyConnectedQuantized` to the CPU's integer kernels.
        matches!(
            op,
            Op::Conv2d(_)
                | Op::Conv2dFused { .. }
                | Op::Pool(_)
                | Op::Activation(_)
                | Op::Binary(_)
                | Op::Concat
                | Op::BatchNorm { .. }
                | Op::Scale
        )
    }

    fn on_create(
        &self,
        node: &Node,
        graph: &Graph,
        hint: &SchemeHint,
    ) -> Result<Box<dyn Execution>, BackendError> {
        if !self.supports(&node.op) {
            return Err(BackendError::UnsupportedOp {
                op: node.op.name().to_string(),
                backend: self.standard.name().to_string(),
            });
        }
        let inner = self.cpu.on_create(node, graph, hint)?;
        let muls = graph.node_mul_count(node).unwrap_or(0);
        let descriptor = self.descriptor();
        // Preparation cost: when decoupled, command encoding happens here (once per
        // session) instead of on every run.
        if self.decoupled {
            *self.clock.lock() += descriptor.t_schedule_ms;
        }
        Ok(Box::new(SimGpuExec {
            inner,
            muls,
            compute_ms: muls as f64 / descriptor.flops * 1000.0,
            schedule_ms: descriptor.t_schedule_ms,
            charge_schedule_per_run: !self.decoupled,
            clock: Arc::clone(&self.clock),
        }))
    }

    fn virtual_elapsed_ms(&self) -> f64 {
        *self.clock.lock()
    }

    fn reset_virtual_clock(&mut self) {
        *self.clock.lock() = 0.0;
    }
}

/// Execution wrapper that produces CPU results while charging GPU costs.
struct SimGpuExec {
    inner: Box<dyn Execution>,
    muls: u64,
    compute_ms: f64,
    schedule_ms: f64,
    charge_schedule_per_run: bool,
    clock: Arc<Mutex<f64>>,
}

impl Execution for SimGpuExec {
    fn scratch(&self, inputs: &[&Shape]) -> ScratchLen {
        self.inner.scratch(inputs)
    }

    fn run(
        &mut self,
        inputs: &dyn Inputs,
        output: &mut [f32],
        scratch: &mut Scratch,
    ) -> Result<(), BackendError> {
        self.inner.run(inputs, output, scratch)?;
        let mut clock = self.clock.lock();
        *clock += self.compute_ms;
        if self.charge_schedule_per_run {
            *clock += self.schedule_ms;
        }
        Ok(())
    }

    fn describe(&self) -> String {
        format!("sim-gpu[{} muls] {}", self.muls, self.inner.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::tests::run_first_node;
    use mnn_graph::{Conv2dAttrs, GraphBuilder};
    use mnn_tensor::{Shape, Tensor};

    /// `runs` inferences of `conv_graph`'s convolution through one execution.
    fn run_conv(execution: &mut dyn Execution, runs: usize) {
        let input = Tensor::zeros(Shape::nchw(1, 3, 16, 16));
        let mut scratch = Scratch::new(execution.scratch(&[input.shape()]));
        let mut output = vec![f32::NAN; 8 * 16 * 16];
        for _ in 0..runs {
            execution
                .run(&[input.view()], &mut output, &mut scratch)
                .unwrap();
        }
    }

    fn conv_graph() -> Graph {
        let mut b = GraphBuilder::new("g");
        let x = b.input("x", Shape::nchw(1, 3, 16, 16));
        let y = b.conv2d_auto("conv", x, Conv2dAttrs::same_3x3(3, 8), false);
        let mut g = b.build(vec![y]);
        g.infer_shapes().unwrap();
        g
    }

    #[test]
    fn profile_lookup_matches_appendix() {
        assert_eq!(GpuProfile::by_name("Mali-G72").flops, 31.61e9);
        assert_eq!(GpuProfile::by_name("Adreno 540").flops, 42.74e9);
        assert_eq!(GpuProfile::by_name("Unknown GPU 9000"), GpuProfile::GENERIC);
    }

    #[test]
    fn schedule_cost_depends_on_standard() {
        assert_eq!(t_schedule_ms(ForwardType::OpenCl), 0.05);
        assert_eq!(t_schedule_ms(ForwardType::Vulkan), 0.01);
        assert_eq!(t_schedule_ms(ForwardType::Cpu), 0.0);
    }

    #[test]
    fn gpu_results_match_cpu_results() {
        let g = conv_graph();
        let cpu = CpuBackend::new(1);
        let gpu = SimGpuBackend::new(ForwardType::Vulkan, GpuProfile::by_name("Adreno 540"));
        let input = Tensor::from_vec(
            Shape::nchw(1, 3, 16, 16),
            (0..768).map(|v| (v % 13) as f32 * 0.1).collect(),
        );
        let cpu_out = run_first_node(&g, &cpu, &input, &SchemeHint::default()).unwrap();
        let gpu_out = run_first_node(&g, &gpu, &input, &SchemeHint::default()).unwrap();
        assert!(cpu_out.max_abs_diff(&gpu_out) < 1e-5);
    }

    #[test]
    fn virtual_clock_accumulates_compute_and_schedule_cost() {
        let g = conv_graph();
        let node = &g.nodes()[0];
        let muls = g.node_mul_count(node).unwrap();
        let mut gpu = SimGpuBackend::new(ForwardType::OpenCl, GpuProfile::GENERIC);
        gpu.set_decoupled(false);
        let mut exec = gpu.on_create(node, &g, &SchemeHint::default()).unwrap();
        run_conv(exec.as_mut(), 2);
        let expected = 2.0 * (muls as f64 / GpuProfile::GENERIC.flops * 1000.0 + 0.05);
        assert!((gpu.virtual_elapsed_ms() - expected).abs() < 1e-9);
        gpu.reset_virtual_clock();
        assert_eq!(gpu.virtual_elapsed_ms(), 0.0);
    }

    #[test]
    fn decoupling_moves_schedule_cost_out_of_the_run_loop() {
        let g = conv_graph();
        let node = &g.nodes()[0];
        let muls = g.node_mul_count(node).unwrap();
        let runs = 10usize;
        let measure = |decoupled: bool| {
            let mut gpu = SimGpuBackend::new(ForwardType::Vulkan, GpuProfile::GENERIC);
            gpu.set_decoupled(decoupled);
            let mut exec = gpu.on_create(node, &g, &SchemeHint::default()).unwrap();
            gpu.reset_virtual_clock(); // exclude preparation from the measured loop
            run_conv(exec.as_mut(), runs);
            gpu.virtual_elapsed_ms()
        };
        let with = measure(true);
        let without = measure(false);
        let compute = runs as f64 * muls as f64 / GpuProfile::GENERIC.flops * 1000.0;
        assert!((with - compute).abs() < 1e-9);
        assert!((without - (compute + runs as f64 * 0.01)).abs() < 1e-9);
        assert!(without > with);
    }

    #[test]
    fn unsupported_op_is_rejected_for_hybrid_fallback() {
        let mut b = GraphBuilder::new("g");
        let x = b.input("x", Shape::matrix(1, 8));
        let y = b.fully_connected_auto("fc", x, 8, 4);
        let g = b.build(vec![y]);
        let gpu = SimGpuBackend::new(ForwardType::Vulkan, GpuProfile::GENERIC);
        let err = gpu
            .on_create(&g.nodes()[0], &g, &SchemeHint::default())
            .err()
            .unwrap();
        assert!(matches!(err, BackendError::UnsupportedOp { .. }));
        assert!(!gpu.supports(&g.nodes()[0].op));
    }
}
