use super::plan::Operand;
use super::*;
use crate::CoreError;
use mnn_backend::{ConvScheme, ForwardType, GpuProfile};
use mnn_graph::{ActivationKind, BinaryKind, Conv2dAttrs, FlattenAttrs, GraphBuilder, PoolAttrs};
use mnn_tensor::Shape;

fn small_cnn() -> Graph {
    let mut b = GraphBuilder::new("small-cnn");
    let x = b.input("x", Shape::nchw(1, 3, 16, 16));
    let y = b.conv2d_auto("conv1", x, Conv2dAttrs::same_3x3(3, 8), true);
    let y = b.activation("relu1", y, ActivationKind::Relu);
    let skip = b.conv2d_auto("proj", y, Conv2dAttrs::pointwise(8, 8), false);
    let y2 = b.conv2d_auto("conv2", y, Conv2dAttrs::same_3x3(8, 8), false);
    let y = b.binary("residual", y2, skip, BinaryKind::Add);
    let y = b.pool("pool", y, PoolAttrs::global_avg());
    let y = b.flatten("flat", y, FlattenAttrs { start_axis: 1 });
    let y = b.fully_connected_auto("fc", y, 8, 4);
    let y = b.softmax("prob", y);
    b.build(vec![y])
}

/// A fully convolutional network (no flatten/FC) whose output shape follows the
/// input's spatial size — the interesting case for `resize_session`.
fn fully_conv_net() -> Graph {
    let mut b = GraphBuilder::new("fcn");
    let x = b.input("x", Shape::nchw(1, 3, 16, 16));
    let y = b.conv2d_auto("conv1", x, Conv2dAttrs::same_3x3(3, 8), true);
    let y = b.activation("relu1", y, ActivationKind::Relu);
    let y = b.conv2d_auto("conv2", y, Conv2dAttrs::same_3x3(8, 8), false);
    let y = b.conv2d_auto("head", y, Conv2dAttrs::pointwise(8, 2), false);
    b.build(vec![y])
}

fn input_tensor() -> Tensor {
    Tensor::from_vec(
        Shape::nchw(1, 3, 16, 16),
        (0..768).map(|v| ((v % 23) as f32 - 11.0) * 0.05).collect(),
    )
}

fn sized_input(size: usize) -> Tensor {
    Tensor::from_vec(
        Shape::nchw(1, 3, size, size),
        (0..3 * size * size)
            .map(|v| ((v % 23) as f32 - 11.0) * 0.05)
            .collect(),
    )
}

#[test]
fn end_to_end_cpu_inference_produces_probabilities() {
    let interpreter = Interpreter::from_graph(small_cnn()).unwrap();
    let mut session = interpreter.create_session(SessionConfig::cpu(2)).unwrap();
    let outputs = session.run(&[input_tensor()]).unwrap();
    assert_eq!(outputs.len(), 1);
    assert_eq!(outputs[0].shape().dims(), &[1, 4]);
    let sum: f32 = outputs[0].data_f32().iter().sum();
    assert!((sum - 1.0).abs() < 1e-4, "softmax outputs must sum to 1");
}

#[test]
fn decoupled_and_coupled_modes_agree_numerically() {
    let interpreter = Interpreter::from_graph(small_cnn()).unwrap();
    let mut with = interpreter.create_session(SessionConfig::cpu(2)).unwrap();
    let mut without = interpreter
        .create_session(SessionConfig {
            decouple_preparation: false,
            ..SessionConfig::cpu(2)
        })
        .unwrap();
    let input = input_tensor();
    let a = with.run(std::slice::from_ref(&input)).unwrap();
    let b = without.run(std::slice::from_ref(&input)).unwrap();
    assert!(a[0].max_abs_diff(&b[0]) < 1e-5);
}

#[test]
fn gpu_session_matches_cpu_session_outputs() {
    let interpreter = Interpreter::from_graph(small_cnn()).unwrap();
    let mut cpu = interpreter.create_session(SessionConfig::cpu(2)).unwrap();
    let mut gpu = interpreter
        .create_session(SessionConfig::gpu(
            ForwardType::Vulkan,
            GpuProfile::by_name("Mali-G72"),
        ))
        .unwrap();
    let input = input_tensor();
    let a = cpu.run(std::slice::from_ref(&input)).unwrap();
    let b = gpu.run(std::slice::from_ref(&input)).unwrap();
    assert!(a[0].max_abs_diff(&b[0]) < 1e-4);
    // The GPU session must actually have used the simulated GPU for heavy ops.
    assert!(gpu.last_stats().gpu_virtual_ms > 0.0);
    let report = gpu.report();
    assert!(report
        .placements
        .iter()
        .any(|p| p.forward_type == ForwardType::Vulkan));
    // The fully-connected head is not GPU-supported: hybrid scheduling keeps it
    // on the CPU within the same session.
    assert!(report
        .placements
        .iter()
        .any(|p| p.op == "FullyConnected" && p.forward_type == ForwardType::Cpu));
}

#[test]
fn report_contains_schemes_for_convolutions() {
    let interpreter = Interpreter::from_graph(small_cnn()).unwrap();
    let session = interpreter.create_session(SessionConfig::cpu(2)).unwrap();
    let report = session.report();
    let conv_placements: Vec<_> = report
        .placements
        .iter()
        .filter(|p| p.op == "Conv2d")
        .collect();
    assert_eq!(conv_placements.len(), 3);
    assert!(conv_placements.iter().all(|p| p.scheme.is_some()));
    assert!(report.estimated_total_ms > 0.0);
    assert!(report.planned_memory_elements > 0);
    assert!(report.planned_memory_elements <= report.unplanned_memory_elements);
}

#[test]
fn report_display_prints_a_placement_table() {
    let interpreter = Interpreter::from_graph(small_cnn()).unwrap();
    let session = interpreter.create_session(SessionConfig::cpu(2)).unwrap();
    let rendered = session.report().to_string();
    assert!(rendered.contains("pre-inference"));
    assert!(rendered.contains("node"));
    assert!(rendered.contains("conv1"));
    assert!(rendered.contains("Conv2d"));
    assert!(rendered.contains("cpu"));
    // One table row per placement.
    assert!(rendered.lines().count() >= session.report().placements.len() + 3);
}

#[test]
fn input_validation_rejects_wrong_shapes_and_counts() {
    let interpreter = Interpreter::from_graph(small_cnn()).unwrap();
    let mut session = interpreter.create_session(SessionConfig::cpu(1)).unwrap();
    assert!(session.run(&[]).is_err());
    let wrong = Tensor::zeros(Shape::nchw(1, 3, 8, 8));
    assert!(session.run(&[wrong]).is_err());
}

#[test]
fn benchmark_returns_positive_averages() {
    let interpreter = Interpreter::from_graph(small_cnn()).unwrap();
    let mut session = interpreter.create_session(SessionConfig::cpu(2)).unwrap();
    let stats = session.benchmark(&[input_tensor()], 1, 3).unwrap();
    assert!(stats.wall_ms > 0.0);
}

#[test]
fn repeated_runs_are_deterministic() {
    let interpreter = Interpreter::from_graph(small_cnn()).unwrap();
    let mut session = interpreter.create_session(SessionConfig::cpu(2)).unwrap();
    let input = input_tensor();
    let a = session.run(std::slice::from_ref(&input)).unwrap();
    let b = session.run(std::slice::from_ref(&input)).unwrap();
    assert_eq!(a[0].data_f32(), b[0].data_f32());
}

#[test]
fn zero_threads_is_rejected() {
    let interpreter = Interpreter::from_graph(small_cnn()).unwrap();
    let err = interpreter
        .create_session(SessionConfig {
            threads: 0,
            ..SessionConfig::default()
        })
        .err()
        .unwrap();
    assert!(matches!(err, CoreError::InvalidConfig(_)));
}

// ---------------------------------------------------------------------------
// Owned sessions, named I/O, resize
// ---------------------------------------------------------------------------

#[test]
fn session_outlives_its_interpreter() {
    let interpreter = Interpreter::from_graph(small_cnn()).unwrap();
    let mut session = interpreter.create_session(SessionConfig::cpu(1)).unwrap();
    drop(interpreter);
    let outputs = session.run(&[input_tensor()]).unwrap();
    assert_eq!(outputs[0].shape().dims(), &[1, 4]);
}

#[test]
fn session_moves_across_threads() {
    let interpreter = Interpreter::from_graph(small_cnn()).unwrap();
    let mut session = interpreter.create_session(SessionConfig::cpu(1)).unwrap();
    let expected = session.run(&[input_tensor()]).unwrap();
    let handle = std::thread::spawn(move || session.run(&[input_tensor()]).unwrap());
    let from_worker = handle.join().unwrap();
    assert_eq!(expected[0].data_f32(), from_worker[0].data_f32());
}

#[test]
fn named_run_matches_positional_run_bit_for_bit() {
    let interpreter = Interpreter::from_graph(small_cnn()).unwrap();
    let mut positional = interpreter.create_session(SessionConfig::cpu(2)).unwrap();
    let mut named = interpreter.create_session(SessionConfig::cpu(2)).unwrap();
    let input = input_tensor();
    let a = positional.run(std::slice::from_ref(&input)).unwrap();
    let b = named.run_with(&[("x", &input)]).unwrap();
    assert_eq!(a[0].data_f32(), b[0].data_f32());
    // The staged-input flow produces the same bits again.
    *named.input_mut("x").unwrap() = input.clone();
    named.run_session().unwrap();
    assert_eq!(named.output("prob").unwrap().data_f32(), a[0].data_f32());
}

#[test]
fn named_io_rejects_unknown_names() {
    let interpreter = Interpreter::from_graph(small_cnn()).unwrap();
    let mut session = interpreter.create_session(SessionConfig::cpu(1)).unwrap();
    assert!(session.input_mut("nope").is_err());
    assert!(session.run_with(&[("nope", &input_tensor())]).is_err());
    session.run(&[input_tensor()]).unwrap();
    assert!(session.output("nope").is_err());
    assert!(session.output("prob").is_ok());
}

#[test]
fn io_names_are_reported_in_order() {
    let interpreter = Interpreter::from_graph(small_cnn()).unwrap();
    let session = interpreter.create_session(SessionConfig::cpu(1)).unwrap();
    assert_eq!(session.input_names(), vec!["x"]);
    assert_eq!(session.output_names(), vec!["prob"]);
}

#[test]
fn resize_session_recomputes_shapes_schemes_and_memory() {
    let interpreter = Interpreter::from_graph(fully_conv_net()).unwrap();
    let mut session = interpreter.create_session(SessionConfig::cpu(2)).unwrap();
    let small_plan = session.report().planned_memory_elements;
    let out = session.run(&[sized_input(16)]).unwrap();
    assert_eq!(out[0].shape().dims(), &[1, 2, 16, 16]);

    // Grow the input: output shape and memory plan must follow.
    session
        .resize_input("x", Shape::nchw(1, 3, 32, 32))
        .unwrap();
    session.resize_session().unwrap();
    let out = session.run(&[sized_input(32)]).unwrap();
    assert_eq!(out[0].shape().dims(), &[1, 2, 32, 32]);
    assert!(session.report().planned_memory_elements > small_plan);
    assert!(!session.report().from_cache);

    // Shrink below the original size.
    session.resize_input("x", Shape::nchw(1, 3, 8, 8)).unwrap();
    session.resize_session().unwrap();
    let out = session.run(&[sized_input(8)]).unwrap();
    assert_eq!(out[0].shape().dims(), &[1, 2, 8, 8]);
    assert!(session.report().planned_memory_elements < small_plan);
}

#[test]
fn resized_session_matches_a_fresh_session() {
    let interpreter = Interpreter::from_graph(fully_conv_net()).unwrap();
    let mut resized = interpreter.create_session(SessionConfig::cpu(2)).unwrap();
    resized.run(&[sized_input(16)]).unwrap();
    resized
        .resize_input("x", Shape::nchw(1, 3, 24, 24))
        .unwrap();
    resized.resize_session().unwrap();
    let a = resized.run(&[sized_input(24)]).unwrap();

    // A session created directly at the new geometry must agree bit-for-bit.
    let mut graph = fully_conv_net();
    let x = graph.inputs()[0];
    graph.set_input_shape(x, Shape::nchw(1, 3, 24, 24)).unwrap();
    let fresh_interpreter = Interpreter::from_graph(graph).unwrap();
    let mut fresh = fresh_interpreter
        .create_session(SessionConfig::cpu(2))
        .unwrap();
    let b = fresh.run(&[sized_input(24)]).unwrap();
    assert_eq!(a[0].data_f32(), b[0].data_f32());
    // And the re-planned decisions must match a cold plan for the same geometry.
    for (resized_p, fresh_p) in resized
        .report()
        .placements
        .iter()
        .zip(&fresh.report().placements)
    {
        assert_eq!(resized_p.scheme, fresh_p.scheme);
        assert_eq!(resized_p.forward_type, fresh_p.forward_type);
    }
}

#[test]
fn alternating_geometries_hit_the_pre_inference_cache() {
    let interpreter = Interpreter::from_graph(fully_conv_net()).unwrap();
    let mut session = interpreter.create_session(SessionConfig::cpu(2)).unwrap();
    session.run(&[sized_input(16)]).unwrap();

    session
        .resize_input("x", Shape::nchw(1, 3, 32, 32))
        .unwrap();
    session.resize_session().unwrap();
    assert_eq!(session.plan_cache_hits(), 0);
    assert_eq!(session.plan_cache_len(), 1);
    let out32 = session.run(&[sized_input(32)]).unwrap();

    // Back to the first geometry: must be served from the cache.
    session
        .resize_input("x", Shape::nchw(1, 3, 16, 16))
        .unwrap();
    session.resize_session().unwrap();
    assert_eq!(session.plan_cache_hits(), 1);
    assert!(session.report().from_cache);
    let out16 = session.run(&[sized_input(16)]).unwrap();
    assert_eq!(out16[0].shape().dims(), &[1, 2, 16, 16]);

    // And forward again — both directions now swap cached plans.
    session
        .resize_input("x", Shape::nchw(1, 3, 32, 32))
        .unwrap();
    session.resize_session().unwrap();
    assert_eq!(session.plan_cache_hits(), 2);
    let out32_again = session.run(&[sized_input(32)]).unwrap();
    assert_eq!(out32[0].data_f32(), out32_again[0].data_f32());
}

#[test]
fn plan_cache_capacity_zero_disables_caching() {
    let interpreter = Interpreter::from_graph(fully_conv_net()).unwrap();
    let config = SessionConfig::builder()
        .threads(2)
        .plan_cache_capacity(0)
        .build();
    let mut session = interpreter.create_session(config).unwrap();

    // Bounce between two geometries: with caching disabled, no plan is ever
    // parked and no resize is served from the cache.
    for size in [32, 16, 32, 16] {
        session
            .resize_input("x", Shape::nchw(1, 3, size, size))
            .unwrap();
        session.resize_session().unwrap();
        assert_eq!(session.plan_cache_len(), 0);
        assert_eq!(session.plan_cache_hits(), 0);
        assert!(!session.report().from_cache);
    }
    // The session still computes correctly at the final geometry.
    let out = session.run(&[sized_input(16)]).unwrap();
    assert_eq!(out[0].shape().dims(), &[1, 2, 16, 16]);
}

#[test]
fn plan_cache_capacity_bounds_the_cache() {
    let interpreter = Interpreter::from_graph(fully_conv_net()).unwrap();
    let config = SessionConfig::builder()
        .threads(2)
        .plan_cache_capacity(2)
        .build();
    let mut session = interpreter.create_session(config).unwrap();

    // Visit more geometries than the cache can hold.
    for size in [16, 20, 24, 28, 32] {
        session
            .resize_input("x", Shape::nchw(1, 3, size, size))
            .unwrap();
        session.resize_session().unwrap();
        assert!(session.plan_cache_len() <= 2);
    }
}

#[test]
fn resize_reuses_unchanged_executions() {
    let interpreter = Interpreter::from_graph(fully_conv_net()).unwrap();
    let mut session = interpreter.create_session(SessionConfig::cpu(2)).unwrap();
    // A modest spatial change keeps every conv's scheme; all executions
    // (including transformed Winograd weights) must carry over.
    session
        .resize_input("x", Shape::nchw(1, 3, 20, 20))
        .unwrap();
    session.resize_session().unwrap();
    let report = session.report();
    assert!(!report.from_cache);
    assert!(
        report.reused_executions > 0,
        "unchanged schemes should reuse execution instances"
    );
    let out = session.run(&[sized_input(20)]).unwrap();
    assert_eq!(out[0].shape().dims(), &[1, 2, 20, 20]);
}

#[test]
fn failed_resize_does_not_poison_later_resizes() {
    let mut b = GraphBuilder::new("two-inputs");
    let x = b.input("a", Shape::nchw(1, 4, 8, 8));
    let y = b.input("b", Shape::nchw(1, 4, 8, 8));
    let z = b.binary("sum", x, y, BinaryKind::Add);
    let interpreter = Interpreter::from_graph(b.build(vec![z])).unwrap();
    let mut session = interpreter.create_session(SessionConfig::cpu(1)).unwrap();

    // Stage an impossible shape for "a" (binary operands must match): rejected.
    session.resize_input("a", Shape::nchw(1, 4, 3, 3)).unwrap();
    assert!(session.resize_session().is_err());

    // A later resize of both inputs must start from a clean slate — the
    // rejected 3x3 staging for "a" must not be silently re-applied.
    session.resize_input("a", Shape::nchw(1, 4, 6, 6)).unwrap();
    session.resize_input("b", Shape::nchw(1, 4, 6, 6)).unwrap();
    session.resize_session().unwrap();
    let t = Tensor::full(Shape::nchw(1, 4, 6, 6), 1.0);
    let out = session.run_with(&[("a", &t), ("b", &t)]).unwrap();
    assert_eq!(out[0].shape().dims(), &[1, 4, 6, 6]);
}

#[test]
fn resize_to_the_current_shape_is_a_noop() {
    let interpreter = Interpreter::from_graph(fully_conv_net()).unwrap();
    let mut session = interpreter.create_session(SessionConfig::cpu(1)).unwrap();
    session
        .resize_input("x", Shape::nchw(1, 3, 16, 16))
        .unwrap();
    session.resize_session().unwrap();
    assert_eq!(session.plan_cache_len(), 0);
    assert_eq!(session.plan_cache_hits(), 0);
}

#[test]
fn resize_rejects_unknown_inputs_and_bad_shapes() {
    let interpreter = Interpreter::from_graph(fully_conv_net()).unwrap();
    let mut session = interpreter.create_session(SessionConfig::cpu(1)).unwrap();
    assert!(session
        .resize_input("nope", Shape::nchw(1, 3, 8, 8))
        .is_err());
    // Channel changes contradict the conv weights: shape inference must refuse,
    // and the session must keep working at its old geometry.
    session
        .resize_input("x", Shape::nchw(1, 5, 16, 16))
        .unwrap();
    assert!(session.resize_session().is_err());
    let out = session.run(&[sized_input(16)]).unwrap();
    assert_eq!(out[0].shape().dims(), &[1, 2, 16, 16]);
}

#[test]
fn resized_gpu_session_still_matches_cpu() {
    let interpreter = Interpreter::from_graph(fully_conv_net()).unwrap();
    let mut cpu = interpreter.create_session(SessionConfig::cpu(2)).unwrap();
    let mut gpu = interpreter
        .create_session(SessionConfig::gpu(
            ForwardType::Vulkan,
            GpuProfile::by_name("Mali-G72"),
        ))
        .unwrap();
    for session in [&mut cpu, &mut gpu] {
        session
            .resize_input("x", Shape::nchw(1, 3, 24, 24))
            .unwrap();
        session.resize_session().unwrap();
    }
    let a = cpu.run(&[sized_input(24)]).unwrap();
    let b = gpu.run(&[sized_input(24)]).unwrap();
    assert!(a[0].max_abs_diff(&b[0]) < 1e-4);
}

#[test]
fn run_with_rejects_duplicate_input_names() {
    let mut b = GraphBuilder::new("two-inputs");
    let x = b.input("a", Shape::nchw(1, 4, 8, 8));
    let y = b.input("b", Shape::nchw(1, 4, 8, 8));
    let z = b.binary("sum", x, y, BinaryKind::Add);
    let interpreter = Interpreter::from_graph(b.build(vec![z])).unwrap();
    let mut session = interpreter.create_session(SessionConfig::cpu(1)).unwrap();
    let t = Tensor::full(Shape::nchw(1, 4, 8, 8), 1.0);
    // Same count as the graph's inputs, but "a" twice and "b" never: must error
    // rather than silently run with stale "b" data.
    let err = session.run_with(&[("a", &t), ("a", &t)]).err().unwrap();
    assert!(err.to_string().contains("more than once"), "{err}");
    // The legitimate call still works.
    let out = session.run_with(&[("a", &t), ("b", &t)]).unwrap();
    assert_eq!(out[0].data_f32()[0], 2.0);
}

#[test]
fn gpu_virtual_cost_tracks_geometry_across_resize() {
    // Simulated-GPU executions bake shape-derived costs in at creation time, so
    // resize must re-encode them: after growing the input 2x per side, the
    // virtual cost of a run must grow ~4x (conv muls scale with output area).
    let interpreter = Interpreter::from_graph(fully_conv_net()).unwrap();
    let mut session = interpreter
        .create_session(SessionConfig::gpu(
            ForwardType::Vulkan,
            GpuProfile::by_name("Mali-G72"),
        ))
        .unwrap();
    session.run(&[sized_input(16)]).unwrap();
    let small_ms = session.last_stats().gpu_virtual_ms;
    assert!(small_ms > 0.0);

    session
        .resize_input("x", Shape::nchw(1, 3, 32, 32))
        .unwrap();
    session.resize_session().unwrap();
    session.run(&[sized_input(32)]).unwrap();
    let large_ms = session.last_stats().gpu_virtual_ms;
    let ratio = large_ms / small_ms;
    assert!(
        ratio > 2.0,
        "virtual GPU cost must be re-derived for the new geometry \
         (got {small_ms:.4} ms -> {large_ms:.4} ms, ratio {ratio:.2})"
    );
}

#[test]
fn cache_hit_report_reflects_the_restored_activation() {
    let interpreter = Interpreter::from_graph(fully_conv_net()).unwrap();
    let mut session = interpreter.create_session(SessionConfig::cpu(2)).unwrap();
    session
        .resize_input("x", Shape::nchw(1, 3, 32, 32))
        .unwrap();
    session.resize_session().unwrap();
    session
        .resize_input("x", Shape::nchw(1, 3, 16, 16))
        .unwrap();
    session.resize_session().unwrap();
    let report = session.report();
    assert!(report.from_cache);
    // The count must describe this activation (executions the cached plan still
    // held), never exceeding the plan size.
    assert!(report.reused_executions <= session.execution_order().len());

    // A second round trip: nothing steals from cached plans anymore, so every
    // execution is retained on restore.
    session
        .resize_input("x", Shape::nchw(1, 3, 32, 32))
        .unwrap();
    session.resize_session().unwrap();
    session
        .resize_input("x", Shape::nchw(1, 3, 16, 16))
        .unwrap();
    session.resize_session().unwrap();
    let report = session.report();
    assert!(report.from_cache);
    assert_eq!(report.reused_executions, session.execution_order().len());
}

#[test]
fn scheme_changes_across_resize_are_visible_in_the_report() {
    // Large spatial sizes favor Winograd with bigger tiles / different schemes
    // than tiny inputs; the report must reflect the re-selection.
    let interpreter = Interpreter::from_graph(fully_conv_net()).unwrap();
    let mut session = interpreter.create_session(SessionConfig::cpu(2)).unwrap();
    let schemes_at = |session: &Session| -> Vec<Option<ConvScheme>> {
        session
            .report()
            .placements
            .iter()
            .filter(|p| p.op == "Conv2d")
            .map(|p| p.scheme)
            .collect()
    };
    let small = schemes_at(&session);
    session
        .resize_input("x", Shape::nchw(1, 3, 64, 64))
        .unwrap();
    session.resize_session().unwrap();
    let large = schemes_at(&session);
    assert_eq!(small.len(), large.len());
    // Both geometries must have selected a scheme for every convolution.
    assert!(small.iter().all(Option::is_some));
    assert!(large.iter().all(Option::is_some));
}

// ---------------------------------------------------------------------------
// The step list
// ---------------------------------------------------------------------------

/// Walk the step list the way `execute` does and check, at every step, that
/// the regions a run holds are exactly the tensors whose memory-plan region is
/// live (one lifetime analysis, two consumers), that each step's region is the
/// memory plan's assignment, and that while a step runs its output shares no
/// byte with any of its inputs or with any other live region.
fn assert_slots_follow_the_memory_plan(session: &Session, what: &str) {
    let plan = &session.plan;
    let produced: Vec<TensorId> = plan
        .order
        .iter()
        .map(|id| session.graph.node(*id).unwrap().outputs[0])
        .collect();
    assert_eq!(plan.steps.len(), produced.len(), "{what}");
    let arena_elements = plan.memory_plan.planned_bytes() / 4;
    assert!(session.arena.len() >= session.arena_start + arena_elements);
    assert_eq!(
        session.arena[session.arena_start..].as_ptr() as usize % REGION_ALIGN,
        0,
        "{what}: the arena starts off a cache line"
    );
    let mut live = std::collections::BTreeSet::new();
    for (index, step) in plan.steps.iter().enumerate() {
        let region = plan.memory_plan.region(produced[index]).unwrap();
        assert_eq!((region.offset, region.len), (step.offset * 4, step.len * 4));
        assert_eq!(region.offset % REGION_ALIGN, 0, "{what}: step {index}");
        assert_eq!(step.len, step.shape.num_elements(), "{what}: step {index}");
        assert!(step.offset + step.len <= arena_elements, "{what}");
        for operand in &step.inputs {
            if let Operand::Step(slot) = operand {
                assert!(
                    live.contains(slot),
                    "{what}: step {index} reads dead slot {slot}"
                );
            }
        }
        // Inputs are still live here, so this covers them too.
        for other in live.iter().map(|slot: &usize| &plan.steps[*slot]) {
            let disjoint =
                other.offset + other.len <= step.offset || step.offset + step.len <= other.offset;
            assert!(
                disjoint,
                "{what}: step {index} ('{}') writes {}..+{} over live '{}' at {}..+{}",
                step.meta.name, step.offset, step.len, other.meta.name, other.offset, other.len
            );
        }
        live.insert(index);
        for slot in &step.release {
            assert!(
                live.remove(slot),
                "{what}: step {index} frees dead slot {slot}"
            );
        }
        let planned: std::collections::BTreeSet<usize> = (0..produced.len())
            .filter(|slot| {
                let (from, until) = plan.memory_plan.live_range(produced[*slot]).unwrap();
                from <= index && until.is_none_or(|last| last > index)
            })
            .collect();
        assert_eq!(
            live, planned,
            "{what}: after step {index} ('{}')",
            step.meta.name
        );
    }
    for output in &plan.outputs {
        if let Operand::Step(slot) = output {
            assert!(live.contains(slot), "{what}: output slot {slot} was freed");
        }
    }
}

#[test]
fn step_list_and_memory_plan_agree_on_every_zoo_model() {
    use mnn_models::{build, ModelKind};
    for kind in ModelKind::PAPER_MODELS
        .into_iter()
        .chain([ModelKind::TinyCnn])
    {
        let (size, alt) = match kind {
            ModelKind::InceptionV3 => (80, 88),
            _ => (32, 48),
        };
        let interpreter = Interpreter::from_graph(build(kind, 1, size)).unwrap();
        let mut session = interpreter.create_session(SessionConfig::cpu(1)).unwrap();
        assert_slots_follow_the_memory_plan(&session, &format!("{kind} fresh"));

        session
            .resize_input("data", Shape::nchw(1, 3, alt, alt))
            .unwrap();
        session.resize_session().unwrap();
        assert!(!session.report().from_cache);
        assert_slots_follow_the_memory_plan(&session, &format!("{kind} resized"));

        session
            .resize_input("data", Shape::nchw(1, 3, size, size))
            .unwrap();
        session.resize_session().unwrap();
        assert!(session.report().from_cache);
        assert_slots_follow_the_memory_plan(&session, &format!("{kind} restored"));

        let coupled = SessionConfig::builder().decouple_preparation(false).build();
        let session = interpreter.create_session(coupled).unwrap();
        assert!(session.plan.steps.iter().all(|s| s.execution.is_none()));
        assert_slots_follow_the_memory_plan(&session, &format!("{kind} coupled"));
    }
}

/// Debug builds make stale activation memory loud: the arena is born NaN and
/// every region goes back to NaN when its release point passes, so after a run
/// only the graph outputs hold numbers. A kernel that accumulates into an
/// output it never cleared, or a step that reads a released region, then fails
/// the conformance suites instead of passing on leftovers.
#[cfg(debug_assertions)]
#[test]
fn debug_builds_poison_the_arena() {
    let interpreter = Interpreter::from_graph(small_cnn()).unwrap();
    let mut session = interpreter.create_session(SessionConfig::cpu(1)).unwrap();
    assert!(session.arena.iter().all(|v| v.is_nan()));
    assert!(session.run(&[input_tensor()]).unwrap()[0]
        .data_f32()
        .iter()
        .all(|v| v.is_finite()));

    let mut kept = vec![false; session.arena.len()];
    for output in &session.plan.outputs {
        if let Operand::Step(step) = output {
            let step = &session.plan.steps[*step];
            kept[session.arena_start + step.offset..][..step.len].fill(true);
        }
    }
    assert!(kept.contains(&true));
    for (value, kept) in session.arena.iter().zip(kept) {
        assert_eq!(value.is_finite(), kept);
    }
}

#[test]
fn passthrough_outputs_and_repeated_operands_run() {
    let mut b = GraphBuilder::new("degenerate");
    let x = b.input("x", Shape::nchw(1, 2, 4, 4));
    let y = b.activation("relu", x, ActivationKind::Relu);
    let doubled = b.binary("doubled", y, y, BinaryKind::Add);
    let interpreter = Interpreter::from_graph(b.build(vec![x, doubled])).unwrap();

    for decouple in [true, false] {
        let config = SessionConfig::builder()
            .decouple_preparation(decouple)
            .build();
        let mut session = interpreter.create_session(config).unwrap();
        // `relu` feeds both operands of `doubled`: read twice, freed once.
        assert_eq!(
            session.plan.steps[1].inputs,
            [Operand::Step(0), Operand::Step(0)]
        );
        assert_eq!(session.plan.steps[1].release, [0]);
        assert_slots_follow_the_memory_plan(&session, "degenerate");

        let input = Tensor::from_vec(
            Shape::nchw(1, 2, 4, 4),
            (0..32).map(|v| v as f32 - 16.0).collect(),
        );
        let outputs = session.run_with(&[("x", &input)]).unwrap();
        assert_eq!(outputs[0].data_f32(), input.data_f32(), "passthrough");
        let expected: Vec<f32> = input.data_f32().iter().map(|v| 2.0 * v.max(0.0)).collect();
        assert_eq!(outputs[1].data_f32(), expected);
        assert_eq!(session.output("x").unwrap().data_f32(), input.data_f32());
        assert_eq!(session.output("doubled").unwrap().data_f32(), expected);
    }
}

/// A tuned plan names algorithms, never an instruction set: under a scripted
/// timer the scheme of every convolution is one fixed string, on a vector
/// host and under `MNN_SIMD=scalar` alike.
#[test]
fn tuned_plan_names_are_independent_of_the_kernel_set() {
    use mnn_models::{build, ModelKind};
    use mnn_tune::{FakeTimer, SharedTuneCache};

    let interpreter = Interpreter::from_graph(build(ModelKind::MobileNetV1, 1, 32)).unwrap();
    let config = SessionConfig::builder()
        .threads(1)
        .tuning(mnn_tune::TuningMode::Full)
        .build();
    let mut backends: Vec<Box<dyn Backend>> = vec![Box::new(CpuBackend::new(1))];
    let fingerprint = DeviceFingerprint::detect(1, &backends[0].descriptor());
    let tuner = Tuner::with_timer(
        SharedTuneCache::open(fingerprint, None),
        Arc::new(FakeTimer::preferring(&["strassen-1x1", "im2col"])),
    );
    let plan = plan::build_plan(
        interpreter.graph(),
        &config,
        &mut backends,
        None,
        Some(&tuner),
    )
    .unwrap();
    let schemes: Vec<String> = plan
        .report
        .placements
        .iter()
        .filter_map(|p| p.scheme.map(|scheme| scheme.to_string()))
        .collect();
    // MobileNet-v1: a strided 3x3 stem, then 13 depthwise (one kernel, not
    // measured) + pointwise pairs.
    let mut expected = vec!["im2col"];
    expected.extend(["depthwise", "strassen-1x1"].repeat(13));
    assert_eq!(schemes, expected);
    assert_eq!(plan.report.tuned_nodes, 14);
}
