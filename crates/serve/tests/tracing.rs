//! Request-tracing contracts of the serving runtime: every traced request's
//! waterfall is complete, batch links name exactly the coalesced members, and
//! op spans never leak across traces under producer contention.
//!
//! These tests attach a [`FlightRecorder`] explicitly, so they pass unchanged
//! under the CI job that forces `MNN_TRACE=off` — the environment variable is
//! only the *default* for frontends; explicit configuration wins.

use mnn_models::{build, ModelKind};
use mnn_serve::{FlightRecorder, ServeError, Server};
use mnn_tensor::{Shape, Tensor};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn input() -> Tensor {
    Tensor::zeros(Shape::nchw(1, 3, 16, 16))
}

/// Traces are pushed into the recorder *after* the response slot is
/// fulfilled, so a client can observe its answer a beat before the trace
/// lands. Poll briefly instead of racing.
fn wait_for_completed(recorder: &FlightRecorder, count: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while recorder.completed() < count {
        assert!(
            Instant::now() < deadline,
            "recorder stuck at {}/{count} completed traces",
            recorder.completed()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn owned_traces_capture_the_full_waterfall() {
    let recorder = Arc::new(FlightRecorder::new());
    let server = Server::builder()
        .workers(1)
        .max_batch(4)
        .trace_recorder(Arc::clone(&recorder))
        .build(build(ModelKind::TinyCnn, 1, 16))
        .unwrap();

    let data = input();
    server.infer(&[("data", &data)]).unwrap();
    wait_for_completed(&recorder, 1);

    let traces = recorder.recent();
    assert_eq!(traces.len(), 1);
    let trace = &traces[0];
    assert_eq!(trace.status, 200);
    assert!(!trace.adopted, "embedded submissions create root traces");
    assert_eq!(trace.model, server.graph().name());

    let stage_names: Vec<&str> = trace.stages.iter().map(|s| s.name.as_str()).collect();
    for required in [
        "serve",
        "queue_wait",
        "batch_assembly",
        "inference",
        "scatter",
    ] {
        assert!(
            stage_names.contains(&required),
            "missing stage {required} in {stage_names:?}"
        );
    }
    // The depth-0 serve stage spans the request's whole life, so coverage of
    // an embedded (no HTTP frontend) trace is essentially total.
    assert!(trace.coverage > 0.95, "coverage = {}", trace.coverage);
    // Kernel spans nest under the inference stage, stamped with this trace.
    assert!(!trace.ops.is_empty(), "per-op spans must be captured");
    let inference = trace.stages.iter().find(|s| s.name == "inference").unwrap();
    for op in &trace.ops {
        assert_eq!(op.trace_id, trace.trace_id);
        assert!(
            op.start_us >= inference.start_us - 50.0
                && op.start_us <= inference.start_us + inference.dur_us + 50.0,
            "op {} at {}us outside inference stage [{}, {}]us",
            op.name,
            op.start_us,
            inference.start_us,
            inference.start_us + inference.dur_us
        );
    }
    let batch = trace.batch.as_ref().expect("executed batches are linked");
    assert_eq!(batch.size, 1);
    assert_eq!(batch.members, vec![trace.trace_id.clone()]);
}

/// A batch of one is its own head: the ops the session captured are the
/// trace's ops, each step exactly once, with no fan-out copy on top.
#[test]
fn a_batch_of_one_records_each_step_once() {
    let graph = build(ModelKind::TinyCnn, 1, 16);
    let steps = mnn_core::Interpreter::from_graph(graph.clone())
        .unwrap()
        .create_session(mnn_core::SessionConfig::default())
        .unwrap()
        .report()
        .placements
        .len();
    let recorder = Arc::new(FlightRecorder::new());
    let server = Server::builder()
        .workers(1)
        .max_batch(1)
        .trace_recorder(Arc::clone(&recorder))
        .build(graph)
        .unwrap();

    let data = input();
    server.infer(&[("data", &data)]).unwrap();
    wait_for_completed(&recorder, 1);

    assert_eq!(recorder.recent()[0].ops.len(), steps);
}

#[test]
fn batch_links_name_exactly_the_coalesced_members() {
    let recorder = Arc::new(FlightRecorder::new());
    let server = Server::builder()
        .workers(1)
        .max_batch(4)
        .batch_window(Duration::from_millis(250))
        .trace_recorder(Arc::clone(&recorder))
        .build(build(ModelKind::TinyCnn, 1, 16))
        .unwrap();

    let data = input();
    let handles: Vec<_> = (0..3)
        .map(|_| server.submit(&[("data", &data)]).unwrap())
        .collect();
    for handle in handles {
        handle.wait().unwrap();
    }
    wait_for_completed(&recorder, 3);

    let traces = recorder.recent();
    assert_eq!(traces.len(), 3);
    let first_link = traces[0].batch.as_ref().expect("batch link");
    assert_eq!(first_link.size, 3, "single worker + window coalesces all 3");
    let mut linked = first_link.members.clone();
    linked.sort();
    let mut actual: Vec<String> = traces.iter().map(|t| t.trace_id.clone()).collect();
    actual.sort();
    assert_eq!(linked, actual, "link must name exactly the members");
    for trace in &traces {
        let link = trace.batch.as_ref().expect("every member is linked");
        assert_eq!(link.span_id, first_link.span_id, "one span per batch");
        let mut members = link.members.clone();
        members.sort();
        assert_eq!(members, linked);
        // Every member got the batch's op spans, restamped onto its own id.
        assert!(!trace.ops.is_empty());
        assert!(trace.ops.iter().all(|op| op.trace_id == trace.trace_id));
    }
}

#[test]
fn concurrent_producers_never_leak_spans_across_traces() {
    const PRODUCERS: usize = 8;
    const REQUESTS_PER_PRODUCER: usize = 25;

    let recorder = Arc::new(FlightRecorder::with_capacity(1024));
    let server = Arc::new(
        Server::builder()
            .workers(4)
            .max_batch(4)
            .batch_window(Duration::from_millis(2))
            .queue_capacity(32)
            .trace_recorder(Arc::clone(&recorder))
            .build(build(ModelKind::TinyCnn, 1, 16))
            .unwrap(),
    );

    let producers: Vec<_> = (0..PRODUCERS)
        .map(|producer| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                for i in 0..REQUESTS_PER_PRODUCER {
                    let data = input();
                    let handle = loop {
                        match server.submit(&[("data", &data)]) {
                            Ok(handle) => break handle,
                            Err(ServeError::QueueFull { .. }) => {
                                std::thread::sleep(Duration::from_micros(200))
                            }
                            Err(other) => panic!("producer {producer}: {other}"),
                        }
                    };
                    handle
                        .wait()
                        .unwrap_or_else(|e| panic!("producer {producer} request {i}: {e}"));
                }
            })
        })
        .collect();
    for producer in producers {
        producer.join().unwrap();
    }

    let total = (PRODUCERS * REQUESTS_PER_PRODUCER) as u64;
    wait_for_completed(&recorder, total);
    let traces = recorder.recent();
    assert_eq!(traces.len(), total as usize, "ring retains every trace");

    let mut seen = std::collections::HashSet::new();
    for trace in &traces {
        assert!(seen.insert(trace.trace_id.clone()), "trace ids are unique");
        assert_eq!(trace.status, 200);
        // No cross-request leakage: every span inside a trace carries that
        // trace's id, and the batch link includes the trace itself.
        assert!(trace.ops.iter().all(|op| op.trace_id == trace.trace_id));
        let link = trace.batch.as_ref().expect("linked");
        assert!(link.members.contains(&trace.trace_id));
        assert!(trace
            .stages
            .iter()
            .any(|s| s.name == "queue_wait" && s.depth == 1));
    }
}
