//! Float-vs-quantized conformance suite.
//!
//! For every model in the zoo the same deterministic input is pushed through the
//! float graph and through the int8-quantized graph; the quantized run must
//!
//! * execute real integer kernels (the pre-inference report shows the
//!   `quantized-gemm` scheme and the weight constants are `i8`),
//! * agree with the float run on the top-1 class,
//! * stay within a per-element output tolerance **derived from
//!   `quantization_error_bound`** (see [`derived_output_tolerance`]),
//! * and behave identically on a fresh session and after a
//!   `resize_input` + `resize_session` round-trip (bit-identical to the fresh
//!   quantized run, since the geometry ends where it started).
//!
//! Both graphs also go through every way a session can come to run its step
//! list — fresh, resized, restored from the plan cache, with preparation left
//! in the run loop, and profiled — and each must reproduce the fresh run bit
//! for bit, with profiler spans that say what the plan report says.

use mnn::backend::ConvScheme;
use mnn::converter::{optimize, quantize_weights, OptimizerOptions};
use mnn::models::{build, ModelKind};
use mnn::obs::Profiler;
use mnn::tensor::{DataType, Shape, Tensor};
use mnn::{Interpreter, Session, SessionConfig};
use std::sync::Arc;

/// (model, resolution used by the suite, alternate resolution for the resize
/// round-trip). Resolutions are reduced so the debug-mode test binary stays
/// fast; the architectures are unchanged.
const MODELS: [(ModelKind, usize, usize); 5] = [
    (ModelKind::TinyCnn, 16, 24),
    (ModelKind::MobileNetV1, 32, 48),
    (ModelKind::SqueezeNetV1_1, 48, 32),
    (ModelKind::ResNet18, 32, 48),
    (ModelKind::InceptionV3, 80, 88),
];

fn deterministic_input(shape: Shape, seed: u64) -> Tensor {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let data = (0..shape.num_elements())
        .map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1u64 << 24) as f32 - 0.5
        })
        .collect();
    Tensor::from_vec(shape, data)
}

/// Per-element output tolerance derived from `quantization_error_bound`.
///
/// For symmetric int8 with scale `s = max_abs / 127`, the kernel-level bound
/// `quantization_error_bound(params) = s / 2` gives a *relative* error of
/// `(s / 2) / max_abs = 1 / 254` per quantized operand. Each quantized layer
/// quantizes two operands (weights offline, activations on the fly), so it
/// contributes at most `2 / 254` relative error to the values flowing through
/// it. Outputs are post-softmax probabilities in `[0, 1]`, so the accumulated
/// relative bound doubles as an absolute per-element tolerance:
///
/// `tol = quantized_layer_count * 2 / 254`
fn derived_output_tolerance(quantized_graph: &mnn::Graph) -> f32 {
    let quantized_layers = quantized_graph
        .nodes()
        .iter()
        .filter(|n| n.op.is_quantized())
        .count();
    assert!(quantized_layers > 0, "graph has no quantized layers");
    quantized_layers as f32 * 2.0 / 254.0
}

fn top1(t: &Tensor) -> usize {
    t.data_f32()
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| i)
        .unwrap()
}

fn session_with(graph: mnn::Graph, config: SessionConfig) -> Session {
    Interpreter::from_graph(graph)
        .expect("interpreter")
        .create_session(config)
        .expect("session")
}

fn session(graph: mnn::Graph) -> Session {
    session_with(graph, SessionConfig::cpu(4))
}

/// `graph` with its input re-declared at `size` px.
fn at_size(graph: &mnn::Graph, size: usize) -> mnn::Graph {
    let mut graph = graph.clone();
    let data = graph.inputs()[0];
    graph
        .set_input_shape(data, Shape::nchw(1, 3, size, size))
        .unwrap();
    graph
}

/// The session variants that share nothing with `fresh` but the graph: one
/// that prepares every node inside the run loop and one with a profiler
/// attached. Both must reproduce `expected` bit for bit, and the profiler must
/// describe every node the way the plan report and the graph do.
fn assert_coupled_and_profiled_runs_match(
    kind: ModelKind,
    graph: &mnn::Graph,
    input: &Tensor,
    expected: &Tensor,
) {
    let coupled = SessionConfig::builder()
        .threads(4)
        .decouple_preparation(false)
        .build();
    let out = session_with(graph.clone(), coupled)
        .run_with(&[("data", input)])
        .unwrap();
    assert_eq!(
        out[0].data_f32(),
        expected.data_f32(),
        "{kind}: preparing inside the run loop changed bits"
    );

    let profiler = Arc::new(Profiler::new());
    let profiled = SessionConfig::builder()
        .threads(4)
        .profiling(Arc::clone(&profiler))
        .build();
    let mut profiled = session_with(graph.clone(), profiled);
    let out = profiled.run_with(&[("data", input)]).unwrap();
    assert_eq!(
        out[0].data_f32(),
        expected.data_f32(),
        "{kind}: profiling changed bits"
    );

    let report = profiler.report();
    assert_eq!(report.runs, 1);
    assert_eq!(report.nodes.len(), profiled.report().placements.len());
    let graph = profiled.graph();
    let f32_bytes = |id: &mnn::graph::TensorId| {
        let info = graph.tensor_info(*id).unwrap();
        (!info.is_constant).then(|| info.shape.as_ref().unwrap().num_elements() as u64 * 4)
    };
    for placement in &profiled.report().placements {
        let node = graph.node(placement.node).unwrap();
        let span = report
            .nodes
            .iter()
            .find(|n| n.name == placement.name)
            .unwrap_or_else(|| panic!("{kind}: no span for node '{}'", placement.name));
        let output = graph.tensor_info(node.outputs[0]).unwrap();
        assert_eq!(span.count, 1);
        assert_eq!(span.op, placement.op);
        assert_eq!(
            span.scheme,
            placement.scheme.map_or("-".to_string(), |s| s.to_string())
        );
        assert_eq!(span.placement, placement.forward_type.to_string());
        assert_eq!(span.shape, output.shape.as_ref().unwrap().to_string());
        // Activations read plus the output written; weights are not traffic.
        let bytes: u64 = node
            .inputs
            .iter()
            .chain(&node.outputs)
            .filter_map(f32_bytes)
            .sum();
        assert_eq!(span.bytes, bytes, "{kind}: bytes of '{}'", placement.name);
    }
}

fn assert_model_conformance(kind: ModelKind, size: usize, alt_size: usize) {
    let mut float_graph = build(kind, 1, size);
    optimize(&mut float_graph, OptimizerOptions::default());
    let mut quant_graph = float_graph.clone();
    let report = quantize_weights(&mut quant_graph);
    assert!(
        report.compression_ratio() >= 3.5,
        "{kind}: weight compression {:.2}x below 3.5x",
        report.compression_ratio()
    );
    // Quantized weights really are stored as i8 constants.
    for node in quant_graph.nodes() {
        if node.op.is_quantized() {
            assert_eq!(
                quant_graph.constant(node.inputs[1]).unwrap().data_type(),
                DataType::I8,
                "{kind}: node '{}' weight is not i8",
                node.name
            );
        }
    }
    let tolerance = derived_output_tolerance(&quant_graph);

    let mut float_session = session(float_graph);
    let mut quant_session = session(quant_graph);

    // Every quantized conv/FC (except the deterministic depthwise f32 fallback)
    // is planned onto the integer kernel.
    let quantized_gemm_layers = quant_session
        .report()
        .placements
        .iter()
        .filter(|p| p.scheme == Some(ConvScheme::QuantizedGemm))
        .count();
    assert!(
        quantized_gemm_layers > 0,
        "{kind}: no layer selected the quantized-gemm scheme"
    );

    let input = deterministic_input(Shape::nchw(1, 3, size, size), 42);

    // --- Fresh sessions ---------------------------------------------------
    let float_out = float_session.run_with(&[("data", &input)]).unwrap();
    let quant_out = quant_session.run_with(&[("data", &input)]).unwrap();
    assert_eq!(float_out.len(), quant_out.len());
    let diff = float_out[0].max_abs_diff(&quant_out[0]);
    assert!(
        diff <= tolerance,
        "{kind}: per-element diff {diff} exceeds derived tolerance {tolerance}"
    );
    assert_eq!(
        top1(&float_out[0]),
        top1(&quant_out[0]),
        "{kind}: top-1 disagrees between float and quantized runs"
    );

    // --- Preparation inside the run loop, and a profiled run ----------------
    assert_coupled_and_profiled_runs_match(kind, float_session.graph(), &input, &float_out[0]);
    assert_coupled_and_profiled_runs_match(kind, quant_session.graph(), &input, &quant_out[0]);

    // --- Resized: a session moved to another geometry is a fresh one there --
    let alt_input = deterministic_input(Shape::nchw(1, 3, alt_size, alt_size), 43);
    for s in [&mut float_session, &mut quant_session] {
        let fresh_alt = session(at_size(s.graph(), alt_size))
            .run_with(&[("data", &alt_input)])
            .unwrap();
        s.resize_input("data", Shape::nchw(1, 3, alt_size, alt_size))
            .unwrap();
        s.resize_session().unwrap();
        assert!(!s.report().from_cache);
        let resized = s.run_with(&[("data", &alt_input)]).unwrap();
        assert_eq!(
            resized[0].data_f32(),
            fresh_alt[0].data_f32(),
            "{kind}: a resized session disagrees with a fresh one at {alt_size} px"
        );
        // --- and back: the first geometry's plan comes out of the cache -----
        s.resize_input("data", Shape::nchw(1, 3, size, size))
            .unwrap();
        s.resize_session().unwrap();
        assert!(s.report().from_cache);
    }
    let float_rt = float_session.run_with(&[("data", &input)]).unwrap();
    let quant_rt = quant_session.run_with(&[("data", &input)]).unwrap();
    assert_eq!(
        float_rt[0].data_f32(),
        float_out[0].data_f32(),
        "{kind}: float outputs changed bits across a resize round-trip"
    );
    assert_eq!(
        quant_rt[0].data_f32(),
        quant_out[0].data_f32(),
        "{kind}: quantized outputs changed bits across a resize round-trip"
    );
    let diff = float_rt[0].max_abs_diff(&quant_rt[0]);
    assert!(
        diff <= tolerance,
        "{kind}: post-resize diff {diff} exceeds derived tolerance {tolerance}"
    );
    assert_eq!(
        top1(&float_rt[0]),
        top1(&quant_rt[0]),
        "{kind}: top-1 disagrees after the resize round-trip"
    );
}

#[test]
fn tiny_cnn_float_vs_quantized_conformance() {
    let (kind, size, alt) = MODELS[0];
    assert_model_conformance(kind, size, alt);
}

#[test]
fn mobilenet_float_vs_quantized_conformance() {
    let (kind, size, alt) = MODELS[1];
    assert_model_conformance(kind, size, alt);
}

#[test]
fn squeezenet_float_vs_quantized_conformance() {
    let (kind, size, alt) = MODELS[2];
    assert_model_conformance(kind, size, alt);
}

#[test]
fn resnet_float_vs_quantized_conformance() {
    let (kind, size, alt) = MODELS[3];
    assert_model_conformance(kind, size, alt);
}

#[test]
fn inception_float_vs_quantized_conformance() {
    let (kind, size, alt) = MODELS[4];
    assert_model_conformance(kind, size, alt);
}

/// One session taken up, down and up again in size keeps one arena — grown
/// once, then reused by prefix — and must answer at every geometry exactly as
/// a session born there does.
#[test]
fn grow_shrink_grow_resizes_match_fresh_sessions() {
    let mut float_graph = build(ModelKind::SqueezeNetV1_1, 1, 32);
    optimize(&mut float_graph, OptimizerOptions::default());
    let mut quant_graph = float_graph.clone();
    quantize_weights(&mut quant_graph);
    for graph in [float_graph, quant_graph] {
        let mut resized = session(graph.clone());
        let mut held = resized.activation_bytes();
        for size in [64, 24, 48] {
            resized
                .resize_input("data", Shape::nchw(1, 3, size, size))
                .unwrap();
            resized.resize_session().unwrap();
            // The arena only ever grows, and only past its largest geometry.
            assert_eq!(resized.activation_bytes() > held, size == 64, "{size} px");
            held = resized.activation_bytes();
            let input = deterministic_input(Shape::nchw(1, 3, size, size), size as u64);
            let got = resized.run_with(&[("data", &input)]).unwrap();
            let fresh = session(at_size(&graph, size))
                .run_with(&[("data", &input)])
                .unwrap();
            assert_eq!(got[0].data_f32(), fresh[0].data_f32(), "{size} px");
        }
    }
}

/// MobileNet's 13 depthwise layers ride inside the quantized graph: they must be
/// deterministically planned onto the f32 depthwise kernel (weights dequantized
/// once at preparation), never the integer kernel, and the model must still pass
/// conformance — the regression guard for `conv2d_quantized`'s former
/// `groups != 1` panic.
#[test]
fn quantized_mobilenet_keeps_depthwise_layers_in_f32() {
    let mut graph = build(ModelKind::MobileNetV1, 1, 32);
    optimize(&mut graph, OptimizerOptions::default());
    quantize_weights(&mut graph);
    let depthwise: Vec<String> = graph
        .nodes()
        .iter()
        .filter(|n| n.op.is_quantized() && n.op.conv_attrs().map(|a| a.groups > 1).unwrap_or(false))
        .map(|n| n.name.clone())
        .collect();
    assert_eq!(depthwise.len(), 13, "MobileNet-v1 has 13 depthwise layers");

    let session = session(graph);
    for placement in &session.report().placements {
        if depthwise.contains(&placement.name) {
            assert_eq!(
                placement.scheme,
                Some(ConvScheme::Depthwise),
                "depthwise layer '{}' must fall back to the f32 depthwise kernel",
                placement.name
            );
        }
    }
    // And pointwise neighbours still use the integer kernel.
    assert!(session
        .report()
        .placements
        .iter()
        .any(|p| p.scheme == Some(ConvScheme::QuantizedGemm)));
}

/// The depthwise f32 fallback still computes correct results inside a quantized
/// graph (the direct kernel-level regression test for grouped quantized convs
/// lives in `mnn-kernels`; this covers the end-to-end dispatch).
#[test]
fn grouped_conv_inside_quantized_graph_matches_float_within_tolerance() {
    use mnn::graph::{Conv2dAttrs, GraphBuilder};
    let build_graph = || {
        let mut b = GraphBuilder::new("dw");
        let x = b.input("data", Shape::nchw(1, 8, 12, 12));
        let y = b.conv2d_auto("dw3x3", x, Conv2dAttrs::depthwise_3x3(8, 1), true);
        let y = b.conv2d_auto("pw", y, Conv2dAttrs::pointwise(8, 16), false);
        b.build(vec![y])
    };
    let float_graph = build_graph();
    let mut quant_graph = float_graph.clone();
    quantize_weights(&mut quant_graph);
    let tolerance = derived_output_tolerance(&quant_graph);

    let input = deterministic_input(Shape::nchw(1, 8, 12, 12), 7);
    let float_out = session(float_graph).run_with(&[("data", &input)]).unwrap();
    let quant_out = session(quant_graph).run_with(&[("data", &input)]).unwrap();
    let diff = float_out[0].max_abs_diff(&quant_out[0]);
    // Raw conv outputs are not probabilities; scale the derived relative bound
    // by the float output magnitude.
    let max_mag = float_out[0]
        .data_f32()
        .iter()
        .fold(0.0f32, |m, v| m.max(v.abs()));
    assert!(
        diff <= tolerance * max_mag.max(1.0),
        "diff {diff} exceeds {tolerance} x magnitude {max_mag}"
    );
}
