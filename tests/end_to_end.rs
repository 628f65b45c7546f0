//! Integration tests spanning the whole stack: model zoo → offline conversion →
//! pre-inference → session execution.

use mnn::converter::{optimize, quantize_weights, ModelFile, OptimizerOptions};
use mnn::models::{build, ModelKind};
use mnn::tensor::{Shape, Tensor};
use mnn::{Interpreter, SessionConfig};

mod zoo;

fn deterministic_input(shape: Shape) -> Tensor {
    let n = shape.num_elements();
    Tensor::from_vec(
        shape,
        (0..n).map(|i| ((i % 37) as f32 - 18.0) * 0.03).collect(),
    )
}

fn run_model(graph: mnn::Graph, input: &Tensor, threads: usize) -> Vec<Tensor> {
    let interpreter = Interpreter::from_graph(graph).expect("interpreter");
    let mut session = interpreter
        .create_session(SessionConfig::cpu(threads))
        .expect("session");
    session.run(std::slice::from_ref(input)).expect("inference")
}

#[test]
fn tiny_cnn_end_to_end_produces_a_probability_distribution() {
    let graph = build(ModelKind::TinyCnn, 1, 32);
    let input = deterministic_input(Shape::nchw(1, 3, 32, 32));
    let outputs = run_model(graph, &input, 2);
    assert_eq!(outputs.len(), 1);
    assert_eq!(outputs[0].shape().dims(), &[1, 10]);
    let sum: f32 = outputs[0].data_f32().iter().sum();
    assert!((sum - 1.0).abs() < 1e-4);
    assert!(outputs[0].data_f32().iter().all(|&p| p >= 0.0));
}

#[test]
fn optimized_graph_matches_unoptimized_graph_outputs() {
    // The offline optimizer (Conv+BN folding, Conv+ReLU fusion, dead-node
    // elimination) must not change inference results.
    let original = build(ModelKind::TinyCnn, 1, 32);
    let mut optimized = original.clone();
    let report = optimize(&mut optimized, OptimizerOptions::default());
    assert!(report.fused_batch_norms >= 1);
    assert!(report.nodes_after < report.nodes_before);

    let input = deterministic_input(Shape::nchw(1, 3, 32, 32));
    let base = run_model(original, &input, 2);
    let opt = run_model(optimized, &input, 2);
    assert!(base[0].max_abs_diff(&opt[0]) < 1e-4);
}

#[test]
fn model_file_roundtrip_preserves_inference_results() {
    let graph = build(ModelKind::TinyCnn, 1, 32);
    let input = deterministic_input(Shape::nchw(1, 3, 32, 32));
    let expected = run_model(graph.clone(), &input, 1);

    let bytes = ModelFile::new(graph).to_bytes().expect("serialize");
    let restored = ModelFile::from_bytes(&bytes).expect("deserialize");
    let got = run_model(restored.graph, &input, 1);
    assert_eq!(expected[0].data_f32(), got[0].data_f32());
}

#[test]
fn quantized_model_stays_close_to_the_float_model() {
    let graph = build(ModelKind::TinyCnn, 1, 32);
    let input = deterministic_input(Shape::nchw(1, 3, 32, 32));
    let float_out = run_model(graph.clone(), &input, 2);

    let mut quantized = graph;
    let report = quantize_weights(&mut quantized);
    assert!(report.quantized_tensors > 0);
    let quant_out = run_model(quantized, &input, 2);

    // Outputs are post-softmax probabilities; int8 weight quantization should move
    // them only slightly.
    assert!(float_out[0].max_abs_diff(&quant_out[0]) < 0.05);
}

#[test]
fn squeezenet_at_reduced_resolution_runs_end_to_end() {
    // A real zoo model (fire modules, concat, pooling) through the whole pipeline.
    let mut graph = build(ModelKind::SqueezeNetV1_1, 1, 64);
    optimize(&mut graph, OptimizerOptions::default());
    let input = deterministic_input(Shape::nchw(1, 3, 64, 64));
    let outputs = run_model(graph, &input, 4);
    assert_eq!(outputs[0].shape().num_elements(), 1000);
    let sum: f32 = outputs[0].data_f32().iter().sum();
    assert!((sum - 1.0).abs() < 1e-3);
}

/// The kernels split work by output rows and channels, never along a
/// reduction, so the thread count must not change a single bit of any output,
/// f32 or int8.
#[test]
fn thread_count_does_not_change_results() {
    for (kind, size) in zoo::MODELS {
        let float = build(kind, 1, size);
        let mut quantized = float.clone();
        optimize(&mut quantized, OptimizerOptions::default());
        quantize_weights(&mut quantized);
        let input = deterministic_input(Shape::nchw(1, 3, size, size));
        for (graph, dtype) in [(float, "f32"), (quantized, "int8")] {
            let bits = |threads| -> Vec<Vec<u32>> {
                run_model(graph.clone(), &input, threads)
                    .iter()
                    .map(|t| t.data_f32().iter().map(|v| v.to_bits()).collect())
                    .collect()
            };
            let single = bits(1);
            for threads in [2, 3] {
                assert_eq!(
                    bits(threads),
                    single,
                    "{kind:?} {dtype} at {threads} threads differs from 1 thread"
                );
            }
        }
    }
}

#[test]
fn batch_inference_matches_per_sample_inference() {
    let graph_b2 = build(ModelKind::TinyCnn, 2, 32);
    let graph_b1 = build(ModelKind::TinyCnn, 1, 32);
    // Two different samples packed into one batch.
    let sample0 = deterministic_input(Shape::nchw(1, 3, 32, 32));
    let sample1 = Tensor::full(Shape::nchw(1, 3, 32, 32), 0.2);
    let mut batched = Vec::new();
    batched.extend_from_slice(sample0.data_f32());
    batched.extend_from_slice(sample1.data_f32());
    let batch_input = Tensor::from_vec(Shape::nchw(2, 3, 32, 32), batched);

    let batch_out = run_model(graph_b2, &batch_input, 2);
    let out0 = run_model(graph_b1.clone(), &sample0, 2);
    let out1 = run_model(graph_b1, &sample1, 2);

    let batch = batch_out[0].data_f32();
    for (i, expected) in out0[0].data_f32().iter().enumerate() {
        assert!((batch[i] - expected).abs() < 1e-4);
    }
    for (i, expected) in out1[0].data_f32().iter().enumerate() {
        assert!((batch[10 + i] - expected).abs() < 1e-4);
    }
}
