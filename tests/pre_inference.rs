//! Integration tests for the pre-inference mechanism: scheme selection, hybrid
//! scheduling, preparation–execution decoupling and memory planning.

use mnn::models::{build, ModelKind};
use mnn::tensor::{Shape, Tensor};
use mnn::{ConvScheme, ForwardType, GpuProfile, Interpreter, SessionConfig};

fn input(size: usize) -> Tensor {
    Tensor::from_vec(
        Shape::nchw(1, 3, size, size),
        (0..3 * size * size)
            .map(|i| ((i % 29) as f32 - 14.0) * 0.05)
            .collect(),
    )
}

#[test]
fn scheme_selection_covers_the_whole_scheme_pool_on_a_real_model() {
    let graph = build(ModelKind::SqueezeNetV1_1, 1, 64);
    let interpreter = Interpreter::from_graph(graph).unwrap();
    let session = interpreter.create_session(SessionConfig::cpu(2)).unwrap();
    let schemes: Vec<ConvScheme> = session
        .report()
        .placements
        .iter()
        .filter_map(|p| p.scheme)
        .collect();
    assert!(!schemes.is_empty());
    // SqueezeNet mixes 1x1 squeeze/expand convolutions (Strassen path) with 3x3
    // expand convolutions (Winograd or sliding window).
    assert!(schemes.iter().any(|s| matches!(s, ConvScheme::Strassen1x1)));
    assert!(schemes
        .iter()
        .any(|s| matches!(s, ConvScheme::Winograd { .. } | ConvScheme::SlidingWindow)));
}

#[test]
fn mobilenet_uses_depthwise_and_pointwise_schemes() {
    let graph = build(ModelKind::MobileNetV1, 1, 64);
    let interpreter = Interpreter::from_graph(graph).unwrap();
    let session = interpreter.create_session(SessionConfig::cpu(2)).unwrap();
    let schemes: Vec<ConvScheme> = session
        .report()
        .placements
        .iter()
        .filter_map(|p| p.scheme)
        .collect();
    assert!(schemes.iter().any(|s| matches!(s, ConvScheme::Depthwise)));
    assert!(schemes.iter().any(|s| matches!(s, ConvScheme::Strassen1x1)));
}

#[test]
fn hybrid_session_agrees_with_cpu_session_and_uses_both_backends() {
    let graph = build(ModelKind::TinyCnn, 1, 32);
    let interpreter = Interpreter::from_graph(graph).unwrap();
    let mut cpu = interpreter.create_session(SessionConfig::cpu(2)).unwrap();
    let mut hybrid = interpreter
        .create_session(SessionConfig::gpu(
            ForwardType::Vulkan,
            GpuProfile::by_name("Adreno 540"),
        ))
        .unwrap();
    let x = input(32);
    let a = cpu.run(std::slice::from_ref(&x)).unwrap();
    let b = hybrid.run(std::slice::from_ref(&x)).unwrap();
    assert!(a[0].max_abs_diff(&b[0]) < 1e-4);

    let backends: std::collections::BTreeSet<ForwardType> = hybrid
        .report()
        .placements
        .iter()
        .map(|p| p.forward_type)
        .collect();
    assert!(backends.contains(&ForwardType::Vulkan));
    assert!(backends.contains(&ForwardType::Cpu));
    assert!(hybrid.last_stats().gpu_virtual_ms > 0.0);
}

#[test]
fn decoupling_preparation_does_not_change_results_and_reduces_per_run_work() {
    let graph = build(ModelKind::TinyCnn, 1, 32);
    let interpreter = Interpreter::from_graph(graph).unwrap();
    let x = input(32);

    let mut decoupled = interpreter.create_session(SessionConfig::cpu(2)).unwrap();
    let mut coupled = interpreter
        .create_session(SessionConfig {
            decouple_preparation: false,
            ..SessionConfig::cpu(2)
        })
        .unwrap();

    let a = decoupled.run(std::slice::from_ref(&x)).unwrap();
    let b = coupled.run(std::slice::from_ref(&x)).unwrap();
    assert!(a[0].max_abs_diff(&b[0]) < 1e-5);

    // Averaged over a few runs, paying preparation on every inference can only be
    // slower or equal (it repeats weight transforms and execution creation). The
    // margin is generous because wall-clock comparisons run concurrently with the
    // rest of the test suite.
    let with = decoupled
        .benchmark(std::slice::from_ref(&x), 2, 10)
        .unwrap();
    let without = coupled.benchmark(std::slice::from_ref(&x), 2, 10).unwrap();
    assert!(
        without.wall_ms >= with.wall_ms * 0.6,
        "decoupled runs should not be drastically slower"
    );
}

#[test]
fn memory_plan_reuses_buffers_on_deep_models() {
    let graph = build(ModelKind::MobileNetV1, 1, 64);
    let interpreter = Interpreter::from_graph(graph).unwrap();
    let session = interpreter.create_session(SessionConfig::cpu(1)).unwrap();
    let report = session.report();
    // A 28-layer chain-like network reuses the vast majority of its intermediates.
    assert!(report.memory_savings_ratio() > 0.5);
    assert!(report.planned_memory_elements > 0);
}

#[test]
fn estimated_costs_decrease_with_more_threads() {
    let graph = build(ModelKind::TinyCnn, 1, 32);
    let interpreter = Interpreter::from_graph(graph).unwrap();
    let s1 = interpreter.create_session(SessionConfig::cpu(1)).unwrap();
    let s4 = interpreter.create_session(SessionConfig::cpu(4)).unwrap();
    assert!(s4.report().estimated_total_ms < s1.report().estimated_total_ms);
}

#[test]
fn capability_table_reports_cpu_as_superset_of_gpu() {
    let row = mnn::backend::capability::mnn_rs_capability();
    assert!(row.cpu_ops.unwrap() >= row.vulkan_ops.unwrap());
    assert!(row.vulkan_ops.unwrap() > 0);
}

/// What a server reports as its kernel set (`/v1/status` and `mnn_build_info`
/// read `obs::resources::build_info`) is what a default-config session's
/// convolutions run on: each one's output has the bits of calling its planned
/// algorithm directly with `KernelBackend::active()`.
#[test]
fn default_sessions_run_on_the_reported_kernel_set() {
    use mnn::graph::Conv2dAttrs;
    use mnn::kernels::simd::KernelBackend;
    use mnn::kernels::{conv, winograd, Scratch, ScratchLen};

    let kb = KernelBackend::active();
    assert_eq!(mnn::obs::resources::build_info().kernel_backend, kb.name());

    for (attrs, size) in [
        (Conv2dAttrs::same_3x3(16, 16), 32),
        (Conv2dAttrs::square(3, 16, 3, 2, 1), 33),
        (Conv2dAttrs::pointwise(16, 24), 17),
        (Conv2dAttrs::depthwise_3x3(16, 1), 19),
    ] {
        let mut b = mnn::GraphBuilder::new("one-conv");
        let shape = Shape::nchw(1, attrs.in_channels, size, size);
        let x = b.input("x", shape.clone());
        let y = b.conv2d_auto("conv", x, attrs.clone(), true);
        let graph = b.build(vec![y]);
        let node = &graph.nodes()[0];
        let weight = graph.constant(node.inputs[1]).unwrap().data_f32().to_vec();
        let bias = graph.constant(node.inputs[2]).unwrap().data_f32().to_vec();
        let data: Vec<f32> = (0..shape.num_elements())
            .map(|i| ((i * 7 % 31) as f32 - 15.0) * 0.03)
            .collect();
        let input = Tensor::from_vec(shape, data);

        let mut session = Interpreter::from_graph(graph)
            .unwrap()
            .create_session(SessionConfig::cpu(1))
            .unwrap();
        let scheme = session.report().placements[0].scheme.unwrap();
        let got = session.run_with(&[("x", &input)]).unwrap();

        let params = attrs.with_bias().to_conv_params();
        let (x, w, b) = (input.data_f32(), &weight[..], &bias[..]);
        let need = match scheme {
            ConvScheme::Im2col => conv::im2col_scratch(&params, size, size),
            ConvScheme::Winograd { tile } => {
                winograd::winograd_scratch(&params, tile, 1, size, size)
            }
            ConvScheme::Strassen1x1 => conv::strassen_1x1_scratch(&params, size, size),
            _ => ScratchLen::default(),
        };
        let direct = Scratch::collect(got[0].data_f32().len(), need, |out, scratch| match scheme {
            ConvScheme::SlidingWindow => {
                conv::conv2d_sliding_window(&params, 1, 1, size, size, x, w, b, out)
            }
            ConvScheme::Im2col => {
                conv::conv2d_im2col_with(kb, &params, 1, 1, size, size, x, w, b, out, scratch)
            }
            ConvScheme::Winograd { tile } => {
                let prepared = winograd::prepare_winograd_weights(&params, tile, w);
                winograd::conv2d_winograd_prepared_with(
                    kb, &params, &prepared, 1, 1, size, size, x, b, out, scratch,
                )
            }
            ConvScheme::Strassen1x1 => {
                conv::conv2d_1x1_strassen_with(kb, &params, 1, 1, size, size, x, w, b, out, scratch)
            }
            ConvScheme::Depthwise => {
                conv::conv2d_depthwise_with(kb, &params, 1, 1, size, size, x, w, b, out)
            }
            ConvScheme::QuantizedGemm => unreachable!("float graph"),
        });
        assert_eq!(got[0].data_f32(), direct, "{scheme} on {}", kb.name());
    }
}
