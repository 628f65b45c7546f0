//! The per-layer probes of a traced run. Each calls one layer's public
//! functions from here, inside a span, and reports what that layer alone
//! costs. Layers are named after their crates. Which end-to-end metric each
//! number should move is recorded in the README.

use crate::load::{run_phase, Client, Phase};
use crate::report::{Better, Metrics};
use crate::run::Scale;
use crate::stats::{blocks_from, median, steady};
use crate::sys;
use crate::trace::Tracer;
use crate::wire;
use crate::workloads::{
    infer_over, infer_request, plan_table, tiny_http_server, tiny_server, Inputs, Model, INPUT,
    TINY,
};
use mnn::converter::{quantize_weights, ModelFile};
use mnn::graph::{BinaryKind, Conv2dAttrs};
use mnn::models::build;
use mnn::tensor::{Shape, Tensor};
use mnn::{Graph, GraphBuilder, Interpreter, Session, SessionConfig, TuningMode};
use std::collections::BTreeSet;
use std::time::Instant;

const MIB: f64 = 1024.0 * 1024.0;

fn timed_ms<R>(tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let result = tracer.span(name, |_| f());
    (result, start.elapsed().as_secs_f64() * 1e3)
}

/// The fastest of `reps` calls of `f` in ms, with the last call's result.
/// `prepare` makes each call's argument and is not timed.
fn fastest<I, R>(
    reps: usize,
    tracer: &mut Tracer,
    name: &'static str,
    mut prepare: impl FnMut() -> I,
    mut f: impl FnMut(I) -> Result<R, String>,
) -> Result<(R, f64), String> {
    let mut best: Option<(R, f64)> = None;
    for _ in 0..reps.max(1) {
        let input = prepare();
        let (result, ms) = timed_ms(tracer, name, || f(input));
        let fastest = best.as_ref().map_or(ms, |(_, b)| b.min(ms));
        best = Some((result?, fastest));
    }
    Ok(best.expect("at least one repetition"))
}

/// A side run: `op` called back to back from one thread for `seconds`, cut
/// into five blocks; the steady per-block median latency in ms. Blocks of
/// fewer than three ops are left out, unless all are.
fn side_run(seconds: f64, mut op: impl FnMut() -> bool + Send) -> Result<f64, String> {
    let client: Client<'_> = Box::new(move |_, _| op());
    let phase = Phase {
        blocks: 5,
        block_s: seconds / 5.0,
    };
    let log = run_phase(vec![client], phase, false, Instant::now());
    if log.threads[0].samples.iter().any(|s| !s.ok) {
        return Err("an op of a side run failed".to_string());
    }
    let medians: Vec<f64> = blocks_from(&log.threads)
        .iter()
        .filter(|b| b.ops >= 3)
        .map(|b| b.median_ms)
        .collect();
    if !medians.is_empty() {
        return Ok(steady(&medians, Better::Lower));
    }
    let mut all: Vec<f64> = log.threads[0]
        .samples
        .iter()
        .map(|s| s.latency_ms())
        .collect();
    Ok(median(&mut all))
}

fn run_ok(session: &mut Session, inputs: &[(&str, &Tensor)]) -> bool {
    session.run_with(inputs).is_ok()
}

pub fn probe(
    model: Model,
    live_plan: Option<String>,
    scale: &Scale,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> Result<(), String> {
    // Fixed inputs: the probes measure time, and the workload's own ops have
    // already checked outputs on the seed's inputs.
    let inputs = Inputs::generate(0, model.size);
    let tiny_inputs = Inputs::generate(0, TINY.size);
    converter(model, scale, tracer, metrics)?;
    core_and_tune(model, live_plan, &inputs.tensors[0], scale, tracer, metrics)?;
    kernels(scale, tracer, metrics)?;
    let infer_ms = serve(&tiny_inputs.tensors[0], scale, tracer, metrics)?;
    http_and_obs(&tiny_inputs.tensors[0], infer_ms, scale, tracer, metrics)
}

fn converter(
    model: Model,
    scale: &Scale,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let bytes = ModelFile::new(build(TINY.kind, 1, TINY.size))
        .to_bytes()
        .map_err(|e| e.to_string())?;
    metrics.set("converter.model_mib", bytes.len() as f64 / MIB);
    let (_, load_ms) = fastest(
        scale.reps,
        tracer,
        "converter.from_bytes",
        || (),
        |()| ModelFile::from_bytes(&bytes).map_err(|e| e.to_string()),
    )?;
    metrics.set("converter.load_ms", load_ms);

    // The quantizer on the workload's model: what `session_int8` pays in
    // every set-up.
    let float_graph = build(model.kind, 1, model.size);
    let (_, quantize_ms) = fastest(
        scale.reps,
        tracer,
        "converter.quantize_weights",
        || float_graph.clone(),
        |mut graph| Ok(quantize_weights(&mut graph)),
    )?;
    metrics.set("converter.quantize_ms", quantize_ms);
    Ok(())
}

fn core_and_tune(
    model: Model,
    live_plan: Option<String>,
    input: &Tensor,
    scale: &Scale,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let mut quiet = Tracer::new(false, Instant::now(), 0);
    let graph = model.graph(&mut quiet);
    let tuned_workload = model.tuning != TuningMode::Off;
    let config = |tuning: TuningMode, threads: usize| model.with_tuning(tuning).config(threads);

    let (interpreter, interpreter_ms) = fastest(
        scale.reps,
        tracer,
        "core.from_graph",
        || graph.clone(),
        |graph| Interpreter::from_graph(graph).map_err(|e| e.to_string()),
    )?;
    metrics.set("core.interpreter_ms", interpreter_ms);

    let prepare =
        |tracer: &mut Tracer, name: &'static str, reps: usize, tuning: TuningMode, cold: bool| {
            fastest(
                reps,
                tracer,
                name,
                || {
                    if cold {
                        mnn::tune::clear_process_caches();
                    }
                },
                |()| {
                    interpreter
                        .create_session(config(tuning, 1))
                        .map_err(|e| e.to_string())
                },
            )
        };

    // Cost-model plan.
    let (mut plain, prepare_ms) = prepare(
        tracer,
        "core.create_session",
        scale.reps,
        TuningMode::Off,
        false,
    )?;
    metrics.set("core.prepare_ms", prepare_ms);

    // Tuned plan, from a cold process cache. With the live set-up's plan these
    // are the set-ups whose plans are compared.
    let mut plans: BTreeSet<String> = live_plan.into_iter().collect();
    let mut prepare_tuned_ms = f64::INFINITY;
    let mut tuned = None;
    for _ in 0..scale.reps.saturating_sub(1).max(1) {
        let (session, ms) = prepare(
            tracer,
            "core.create_session.tuned",
            1,
            TuningMode::Full,
            true,
        )?;
        prepare_tuned_ms = prepare_tuned_ms.min(ms);
        plans.insert(plan_table(&session));
        if tuned.is_none() {
            let report = session.report();
            metrics.set("tune.tuned_nodes", report.tuned_nodes as f64);
            metrics.set(
                "tune.measured_candidates",
                report.tuning_measured_candidates as f64,
            );
        }
        tuned = Some(session);
    }
    let mut tuned = tuned.expect("at least one cold tuned set-up");
    metrics.set("core.prepare_tuned_ms", prepare_tuned_ms);
    metrics.set("tune.pass_ms", prepare_tuned_ms - prepare_ms);
    metrics.set("tune.plans_distinct", plans.len() as f64);

    // Tuned plan again, now from the warm process cache; each fresh session's
    // first run is timed too.
    let mut prepare_warm_ms = f64::INFINITY;
    let mut first_run_ms = f64::INFINITY;
    for _ in 0..scale.reps.max(1) {
        let (_, ms) = prepare(
            tracer,
            "core.create_session.warm",
            1,
            TuningMode::Full,
            false,
        )?;
        prepare_warm_ms = prepare_warm_ms.min(ms);
        let mut fresh = interpreter
            .create_session(config(model.tuning, 1))
            .map_err(|e| e.to_string())?;
        let (ok, ms) = timed_ms(tracer, "core.run_with.first", || {
            run_ok(&mut fresh, &[(INPUT, input)])
        });
        if !ok {
            return Err("a first run failed".to_string());
        }
        first_run_ms = first_run_ms.min(ms);
    }
    metrics.set("core.prepare_warm_ms", prepare_warm_ms);
    metrics.set("core.first_run_ms", first_run_ms);

    // Steady runs on both plans; the workload's own is `core.run_ms`.
    let run_plain_ms = side_run(scale.side_s, || run_ok(&mut plain, &[(INPUT, input)]))?;
    let run_tuned_ms = side_run(scale.side_s, || run_ok(&mut tuned, &[(INPUT, input)]))?;
    metrics.set(
        "core.run_ms",
        if tuned_workload {
            run_tuned_ms
        } else {
            run_plain_ms
        },
    );
    metrics.set("tune.speedup", run_plain_ms / run_tuned_ms);

    let workload_session = if tuned_workload {
        &mut tuned
    } else {
        &mut plain
    };
    const COUNTED_RUNS: u64 = 16;
    let (ok, allocations, bytes) = sys::count_allocations(|| {
        (0..COUNTED_RUNS).all(|_| run_ok(workload_session, &[(INPUT, input)]))
    });
    if !ok {
        return Err("a counted run failed".to_string());
    }
    metrics.set(
        "core.run_allocs_per_op",
        allocations as f64 / COUNTED_RUNS as f64,
    );
    metrics.set(
        "core.run_alloc_kib_per_op",
        bytes as f64 / 1024.0 / COUNTED_RUNS as f64,
    );
    metrics.set(
        "core.planned_arena_mib",
        workload_session.memory_plan().planned_bytes() as f64 / MIB,
    );

    // Two threads, on the workload's kind of plan.
    let mut two_threads = interpreter
        .create_session(config(model.tuning, 2))
        .map_err(|e| e.to_string())?;
    metrics.set(
        "core.run_t2_ms",
        side_run(scale.side_s, || run_ok(&mut two_threads, &[(INPUT, input)]))?,
    );

    // Batch 1 to 2 and back on cost-model plans: the first sight of a geometry
    // plans it, every later one swaps a cached plan in.
    let geometry = |batch: usize| Shape::nchw(batch, 3, model.size, model.size);
    let mut resize_cold_ms = f64::INFINITY;
    let mut cached_us = Vec::new();
    for _ in 0..scale.reps.max(1) {
        let mut session = interpreter
            .create_session(config(TuningMode::Off, 1))
            .map_err(|e| e.to_string())?;
        let mut resize = |tracer: &mut Tracer, name: &'static str, batch: usize| {
            let (result, ms) = timed_ms(tracer, name, || {
                session.resize_input(INPUT, geometry(batch))?;
                session.resize_session()
            });
            result.map(|()| ms).map_err(|e| e.to_string())
        };
        resize_cold_ms = resize_cold_ms.min(resize(tracer, "core.resize.cold", 2)?);
        for round in 0..8 {
            cached_us.push(resize(tracer, "core.resize.cached", 1 + round % 2)? * 1e3);
        }
    }
    metrics.set("core.resize_cold_ms", resize_cold_ms);
    metrics.set("core.resize_cached_us", median(&mut cached_us));
    Ok(())
}

/// One operator as a graph of its own.
struct MicroGraph {
    metric: &'static str,
    graph: Graph,
    inputs: Vec<(&'static str, Shape)>,
    /// Operations (or bytes moved, for the element-wise op) per run, in units
    /// of 1e9, computed from the shapes.
    giga_per_run: f64,
}

/// Geometries copied from the two tuned workloads' models at 128 px:
/// SqueezeNet-v1.1's `fire2_expand3x3` and `conv_final`, MobileNet-v1's `dw3`
/// and `pw3`, and Tiny-CNN's residual add.
fn micro_graphs() -> Vec<MicroGraph> {
    let conv = |metric: &'static str, attrs: Conv2dAttrs, side: usize, int8: bool| {
        let mut b = GraphBuilder::new(metric);
        let x = b.input("x", Shape::nchw(1, attrs.in_channels, side, side));
        let y = b.conv2d_auto("conv", x, attrs.clone(), true);
        let mut graph = b.build(vec![y]);
        if int8 {
            quantize_weights(&mut graph);
        }
        // stride 1, same padding: one output position per input position
        let macs = side * side * attrs.out_channels * attrs.in_channels / attrs.groups
            * attrs.kernel.0
            * attrs.kernel.1;
        MicroGraph {
            metric,
            graph,
            inputs: vec![("x", Shape::nchw(1, attrs.in_channels, side, side))],
            giga_per_run: 2.0 * macs as f64 / 1e9,
        }
    };
    let eltwise = {
        let shape = Shape::nchw(1, 16, 64, 64);
        let mut b = GraphBuilder::new("kernels.eltwise_gbs");
        let x = b.input("x", shape.clone());
        let y = b.input("y", shape.clone());
        let sum = b.binary("add", x, y, BinaryKind::Add);
        MicroGraph {
            metric: "kernels.eltwise_gbs",
            graph: b.build(vec![sum]),
            giga_per_run: 3.0 * 4.0 * shape.num_elements() as f64 / 1e9,
            inputs: vec![("x", shape.clone()), ("y", shape)],
        }
    };
    vec![
        conv(
            "kernels.conv3x3_gflops",
            Conv2dAttrs::same_3x3(16, 64),
            31,
            false,
        ),
        conv(
            "kernels.conv1x1_gflops",
            Conv2dAttrs::pointwise(512, 1000),
            7,
            false,
        ),
        conv(
            "kernels.depthwise3x3_gflops",
            Conv2dAttrs::depthwise_3x3(128, 1),
            32,
            false,
        ),
        conv(
            "kernels.int8_conv1x1_gops",
            Conv2dAttrs::pointwise(128, 128),
            32,
            true,
        ),
        eltwise,
    ]
}

fn kernels(scale: &Scale, tracer: &mut Tracer, metrics: &mut Metrics) -> Result<(), String> {
    for micro in micro_graphs() {
        let mut session = Interpreter::from_graph(micro.graph)
            .and_then(|interpreter| {
                interpreter.create_session(
                    SessionConfig::builder()
                        .threads(1)
                        .tuning(TuningMode::Full)
                        .build(),
                )
            })
            .map_err(|e| format!("{}: {e}", micro.metric))?;
        let tensors: Vec<Tensor> = micro
            .inputs
            .iter()
            .map(|(_, shape)| Tensor::full(shape.clone(), 0.5))
            .collect();
        let named: Vec<(&str, &Tensor)> = micro
            .inputs
            .iter()
            .zip(&tensors)
            .map(|((name, _), tensor)| (*name, tensor))
            .collect();
        let ms = tracer.span(micro.metric, |_| {
            side_run(scale.side_s * 0.3, || run_ok(&mut session, &named))
        })?;
        metrics.set(micro.metric, micro.giga_per_run / (ms / 1e3));
    }
    Ok(())
}

/// Returns `serve.infer_ms`, which the wire overhead is measured against.
fn serve(
    input: &Tensor,
    scale: &Scale,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> Result<f64, String> {
    let (server, build_ms) = fastest(scale.reps, tracer, "serve.build", || (), |()| tiny_server())?;
    metrics.set("serve.build_ms", build_ms);

    let infer_ms = tracer.span("serve.infer", |_| {
        side_run(scale.side_s * 0.5, || {
            server.infer(&[(INPUT, input)]).is_ok()
        })
    })?;
    let mut quiet = Tracer::new(false, Instant::now(), 0);
    let mut direct = TINY.session(1, &mut quiet)?;
    let direct_ms = side_run(scale.side_s * 0.5, || {
        run_ok(&mut direct, &[(INPUT, input)])
    })?;
    metrics.set("serve.infer_ms", infer_ms);
    metrics.set("serve.overhead_ms", infer_ms - direct_ms);
    server.shutdown();

    // Eight requests outstanding from one thread, on a server of its own so
    // that its statistics cover this load only: batching can only rise with
    // outstanding requests, and the gated HTTP workload has one.
    let server = tiny_server()?;
    const WINDOW: usize = 8;
    let start = Instant::now();
    let mut completed = 0usize;
    tracer.span("serve.window8", |_| {
        while start.elapsed().as_secs_f64() < scale.side_s * 0.6 {
            let handles: Vec<_> = (0..WINDOW)
                .map(|_| server.submit(&[(INPUT, input)]))
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())?;
            for handle in handles {
                handle.wait().map_err(|e| e.to_string())?;
                completed += 1;
            }
        }
        Ok::<(), String>(())
    })?;
    metrics.set(
        "serve.window8_ops_s",
        completed as f64 / start.elapsed().as_secs_f64(),
    );
    let stats = server.stats();
    metrics.set("serve.mean_batch", stats.mean_batch_size);
    metrics.set("serve.queue_wait_p50_ms", stats.queue_wait_p50_ms);
    metrics.set("serve.batch_assembly_p50_ms", stats.batch_assembly_p50_ms);
    server.shutdown();
    Ok(infer_ms)
}

fn http_and_obs(
    input: &Tensor,
    serve_infer_ms: f64,
    scale: &Scale,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let server = tiny_http_server(tracer)?;
    let mut connection = wire::Connection::open(server.local_addr()).map_err(|e| e.to_string())?;
    let mut quiet = Tracer::new(false, Instant::now(), 0);
    let mut non200 = 0u64;

    // A side run of one request over the connection: its steady latency and
    // the size of the last response body.
    let mut repeat = |tracer: &mut Tracer, name: &'static str, request: &[u8], seconds: f64| {
        let mut body_bytes = 0usize;
        let ms = tracer.span(name, |_| {
            side_run(seconds, || {
                match connection.round_trip(request, &mut quiet) {
                    Ok(response) => {
                        non200 += u64::from(response.status != 200);
                        body_bytes = connection.body(&response).len();
                        true
                    }
                    Err(_) => false,
                }
            })
        })?;
        Ok::<_, String>((ms, body_bytes))
    };

    let request = infer_request(input)?;
    metrics.set("http.request_kib", request.len() as f64 / 1024.0);
    let (roundtrip_ms, response_bytes) = repeat(tracer, "http.roundtrip", &request, scale.side_s)?;
    metrics.set("http.roundtrip_ms", roundtrip_ms);
    metrics.set("http.wire_overhead_ms", roundtrip_ms - serve_infer_ms);
    metrics.set("http.response_kib", response_bytes as f64 / 1024.0);

    // No codec and no inference: the connection loop alone.
    let brief = scale.side_s * 0.3;
    let (healthz_ms, _) = repeat(tracer, "http.healthz", &wire::get("/healthz"), brief)?;
    let (metrics_ms, _) = repeat(tracer, "obs.metrics_render", &wire::get("/metrics"), brief)?;
    metrics.set("http.healthz_ms", healthz_ms);
    metrics.set("obs.metrics_render_ms", metrics_ms);
    metrics.set("http.non200", non200 as f64);
    // The decode path of the workload's ops, checked once here.
    infer_over(&mut connection, &request, &mut quiet)?;
    drop(connection);
    if !server.shutdown().drained {
        return Err("the probe's HTTP server did not drain".to_string());
    }
    Ok(())
}
