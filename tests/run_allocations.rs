//! Inference allocates nothing.
//!
//! Pre-inference plans every activation into the session's arena and sizes one
//! scratch for the hungriest step, so a steady-state `run_session` — and a
//! steady-state `Execution::run` of any convolution scheme — makes no
//! allocation at all. The counts must hold in debug and in release builds:
//! debug-only arena poisoning writes, it does not allocate.
//!
//! This file holds one test so that the counting allocator sees no other
//! test's traffic on its thread.

use mnn::backend::{Backend, ConvScheme, CpuBackend, Execution, SchemeHint};
use mnn::converter::{optimize, quantize_weights, quantized_conv_candidates, OptimizerOptions};
use mnn::graph::{Conv2dAttrs, GraphBuilder};
use mnn::kernels::Scratch;
use mnn::models::{build, ModelKind};
use mnn::tensor::{Shape, Tensor};
use mnn::{Graph, Interpreter, SessionConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every request to `System` unchanged; the counter is a
// thread-local `Cell<u64>` with a const initializer, so touching it neither
// allocates nor runs a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations this thread makes while `f` runs.
fn allocations_of(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Every zoo model: the five of `tests/quant_conformance.rs` at its sizes, the
/// other three at their sibling's.
const MODELS: [(ModelKind, usize); 8] = [
    (ModelKind::TinyCnn, 16),
    (ModelKind::MobileNetV1, 32),
    (ModelKind::MobileNetV2, 32),
    (ModelKind::SqueezeNetV1_0, 48),
    (ModelKind::SqueezeNetV1_1, 48),
    (ModelKind::ResNet18, 32),
    (ModelKind::ResNet50, 32),
    (ModelKind::InceptionV3, 80),
];

fn ramp(shape: Shape) -> Tensor {
    let data = (0..shape.num_elements())
        .map(|i| ((i * 7 % 31) as f32 - 15.0) * 0.03)
        .collect();
    Tensor::from_vec(shape, data)
}

/// The second and third `run_session` of a default-plan session on one
/// kernel thread, without a profiler.
fn steady_run_allocations(graph: Graph, size: usize) -> u64 {
    let mut session = Interpreter::from_graph(graph)
        .unwrap()
        .create_session(SessionConfig::cpu(1))
        .unwrap();
    *session.input_mut("data").unwrap() = ramp(Shape::nchw(1, 3, size, size));
    session.run_session().unwrap();
    let first = session.output_names()[0].to_string();
    let expected = session.output(&first).unwrap().clone();
    let count = allocations_of(|| {
        session.run_session().unwrap();
        session.run_session().unwrap();
    });
    assert_eq!(session.output(&first).unwrap(), &expected);

    // `run_with` stages into the same storage; all it allocates is what it
    // returns: the `Vec`, and each output's dimensions and data.
    let input = ramp(Shape::nchw(1, 3, size, size));
    let mut returned = Vec::new();
    let copies = allocations_of(|| returned = session.run_with(&[("data", &input)]).unwrap());
    assert_eq!(returned[0], expected);
    assert_eq!(copies, 1 + 2 * returned.len() as u64, "run_with");
    count
}

/// The second `run` of `scheme` on the single convolution of `graph`.
fn second_run_allocations(graph: &Graph, scheme: ConvScheme, input: &Tensor) -> u64 {
    let hint = SchemeHint {
        conv_scheme: Some(scheme),
        threads: Some(1),
    };
    let node = &graph.nodes()[0];
    let mut execution: Box<dyn Execution> =
        CpuBackend::new(1).on_create(node, graph, &hint).unwrap();
    let shape = graph.tensor_info(node.outputs[0]).unwrap().shape.clone();
    let mut output = vec![f32::NAN; shape.unwrap().num_elements()];
    let mut scratch = Scratch::new(execution.scratch(&[input.shape()]));
    let mut run = || {
        execution
            .run(&[input.view()], &mut output, &mut scratch)
            .unwrap()
    };
    run();
    let count = allocations_of(&mut run);
    assert!(output.iter().all(|v| v.is_finite()), "{scheme}");
    count
}

#[test]
fn steady_state_inference_does_not_allocate() {
    for (kind, size) in MODELS {
        let float = build(kind, 1, size);
        let mut quantized = float.clone();
        optimize(&mut quantized, OptimizerOptions::default());
        quantize_weights(&mut quantized);
        for (graph, what) in [(float, "f32"), (quantized, "int8")] {
            assert_eq!(
                steady_run_allocations(graph, size),
                0,
                "{kind} {what}: allocations in the 2nd and 3rd run_session"
            );
        }
    }

    // Every scheme a convolution can be planned with, whatever the cost model
    // would pick: a 3x3 (sliding window, im2col, every Winograd tile, integer
    // GEMM), a depthwise and a pointwise layer. Recursing Strassen needs a
    // [1024, 1024] x [1024, 1024] product, which only a release build can
    // afford.
    let mut geometries = vec![
        (Conv2dAttrs::same_3x3(8, 12), 19, None),
        (Conv2dAttrs::depthwise_3x3(8, 1), 19, None),
        (Conv2dAttrs::pointwise(24, 16), 19, None),
    ];
    if !cfg!(debug_assertions) {
        let recursing = Conv2dAttrs::pointwise(1024, 1024);
        assert!(mnn::kernels::strassen::should_recurse(1024, 1024, 32 * 32));
        geometries.push((recursing, 32, Some(ConvScheme::Strassen1x1)));
    }
    for (attrs, size, only) in geometries {
        let shape = Shape::nchw(1, attrs.in_channels, size, size);
        let mut b = GraphBuilder::new("one-conv");
        let x = b.input("x", shape.clone());
        let y = b.conv2d_auto("conv", x, attrs.clone(), true);
        let mut float = b.build(vec![y]);
        float.infer_shapes().unwrap();
        let mut quantized = float.clone();
        quantize_weights(&mut quantized);
        let params = attrs.to_conv_params();
        let input = ramp(shape);
        for (graph, pool) in [
            (&float, ConvScheme::float_conv_pool(&params, 6)),
            (&quantized, quantized_conv_candidates(&params, 6)),
        ] {
            for scheme in pool.into_iter().filter(|s| only.is_none_or(|o| o == *s)) {
                assert_eq!(
                    second_run_allocations(graph, scheme, &input),
                    0,
                    "{scheme} on {} -> {} k{} at {size} px",
                    attrs.in_channels,
                    attrs.out_channels,
                    attrs.kernel.0
                );
            }
        }
    }
}
