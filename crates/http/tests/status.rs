//! Acceptance tests for the resource-observability surface: `/v1/status`
//! memory attribution against independently computed expectations, and the
//! `/readyz` 200 → 503 → 200 flip under an induced worker stall.
//!
//! Routing is exercised in-process via `handler::route` — the wire framing
//! has its own tests; here we care about what the JSON says.

use mnn_converter::ModelFile;
use mnn_core::{Interpreter, SessionConfig};
use mnn_http::handler::{route, Routed};
use mnn_http::{
    HttpRequest, HttpResponse, InferRequest, ModelRegistry, ReadyResponse, ServeOptions,
    StatusResponse, TensorJson,
};
use mnn_models::{build, ModelKind};
use std::time::{Duration, Instant};

fn request(method: &str, path: &str, body: &[u8]) -> HttpRequest {
    HttpRequest {
        method: method.to_string(),
        path: path.to_string(),
        query: None,
        headers: Vec::new(),
        body: body.to_vec(),
        keep_alive: true,
    }
}

fn response_of(routed: Routed) -> HttpResponse {
    match routed {
        Routed::Response(r) => r,
        Routed::Shutdown(r) => r,
    }
}

fn get(registry: &ModelRegistry, path: &str, draining: bool) -> HttpResponse {
    response_of(route(&request("GET", path, b""), registry, draining))
}

/// What a model should be holding before its first inference, as
/// `(constants, arena)`: the graph's constants, and the arena and scratch of
/// one pooled worker session each — the real buffers of an unaccounted probe
/// session built from an identical graph.
fn expected_resident_bytes(kind: ModelKind, input_size: usize, workers: usize) -> (u64, u64) {
    let graph = build(kind, 1, input_size);
    let constants = graph.constant_bytes() as u64;
    let mut config = SessionConfig::cpu(1);
    config.account_resources = false;
    let session = Interpreter::from_graph(graph)
        .expect("probe graph is valid")
        .create_session(config)
        .expect("probe session builds");
    assert!(session.activation_bytes() >= session.memory_plan().planned_bytes());
    (
        constants,
        workers as u64 * session.activation_bytes() as u64,
    )
}

#[test]
fn status_reports_memory_within_ten_percent_of_instrumented_allocations() {
    const WORKERS: usize = 2;
    let mut registry = ModelRegistry::new();
    let options = ServeOptions {
        workers: WORKERS,
        max_batch: 2,
        session: SessionConfig::cpu(1),
        ..ServeOptions::default()
    };
    registry
        .register_zoo(ModelKind::TinyCnn, 16, &options)
        .unwrap();
    registry
        .register_zoo(ModelKind::SqueezeNetV1_1, 32, &options)
        .unwrap();

    // Before any inference the ledger holds exactly what registration
    // created: constants plus the pre-warmed sessions' arenas.
    let response = get(&registry, "/v1/status", false);
    assert_eq!(response.status, 200);
    let status: StatusResponse = serde_json::from_slice(&response.body).unwrap();

    assert!(status.ready, "reasons: {:?}", status.reasons);
    assert_eq!(status.status, "ok");
    assert_eq!(status.models.len(), 2);
    assert!(!status.build.kernel_backend.is_empty());
    assert!(!status.build.version.is_empty());
    assert!(status.uptime_seconds > 0.0);
    assert!(
        status.os.rss_bytes > 0,
        "procfs should be readable on linux"
    );

    for (kind, input_size, name) in [
        (ModelKind::TinyCnn, 16, "tiny-cnn"),
        (ModelKind::SqueezeNetV1_1, 32, "squeezenet-v1.1"),
    ] {
        let (constants, arena) = expected_resident_bytes(kind, input_size, WORKERS);
        let expected = constants + arena;
        let model = status
            .models
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("model '{name}' missing from status"));
        let reported = model.memory.resident_bytes;
        let error = reported.abs_diff(expected) as f64 / expected as f64;
        assert!(
            error <= 0.10,
            "model '{name}': reported {reported} bytes vs expected {expected} \
             ({:.1}% off); components: {:?}",
            error * 100.0,
            model.memory.components,
        );
        // The arena account is not an estimate: it is the bytes the sessions hold.
        let arena_account = model
            .memory
            .components
            .iter()
            .find(|c| c.component == "arena");
        assert_eq!(
            arena_account.map(|c| c.bytes),
            Some(arena),
            "model '{name}': {:?}",
            model.memory.components
        );
        assert_eq!(model.workers, WORKERS);
        assert_eq!(model.stalled_workers, 0);
        assert_eq!(model.queue_depth, 0);
    }

    // The process-wide roll-up covers at least these two models (other tests
    // in this process may add scopes, never remove bytes from these).
    let sum: u64 = status.models.iter().map(|m| m.memory.resident_bytes).sum();
    assert!(status.accounted_bytes >= sum);

    // A draining server stops being ready even though every model is fine.
    let draining = get(&registry, "/readyz", true);
    assert_eq!(draining.status, 503);
    let ready: ReadyResponse = serde_json::from_slice(&draining.body).unwrap();
    assert!(!ready.ready);
    assert!(
        ready.reasons.iter().any(|r| r == "server is draining"),
        "{:?}",
        ready.reasons
    );

    registry.drain_with_deadline(Duration::from_secs(10));
}

/// Big enough that one debug-build inference takes far longer than the
/// watchdog deadline below, so the in-flight batch reads as a stall.
const STALL_PIXELS: usize = 192;

#[test]
fn readyz_flips_under_an_induced_stall_and_recovers() {
    let mut registry = ModelRegistry::new();
    let options = ServeOptions {
        workers: 1,
        max_batch: 1,
        session: SessionConfig::cpu(1),
        watchdog_deadline: Some(Duration::from_millis(5)),
        ..ServeOptions::default()
    };
    // A distinct name keeps this test's ledger scope and readiness isolated
    // from the other test in this binary.
    registry
        .register_model(
            "stall-watch",
            ModelFile::new(build(ModelKind::TinyCnn, 1, STALL_PIXELS)),
            &options,
        )
        .unwrap();

    // Healthy at rest.
    assert_eq!(get(&registry, "/readyz", false).status, 200);

    let body = serde_json::to_vec(&InferRequest {
        inputs: [(
            "data".to_string(),
            TensorJson {
                shape: vec![1, 3, STALL_PIXELS, STALL_PIXELS],
                data: vec![0.0f32; 3 * STALL_PIXELS * STALL_PIXELS],
            },
        )]
        .into_iter()
        .collect(),
    })
    .unwrap();

    std::thread::scope(|scope| {
        let registry = &registry;
        let infer = scope.spawn(move || {
            response_of(route(
                &request("POST", "/v1/models/stall-watch/infer", &body),
                registry,
                false,
            ))
        });

        // The slow batch must flip readiness while it is still running.
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut saw_unready = None;
        while Instant::now() < deadline {
            let response = get(registry, "/readyz", false);
            if response.status == 503 {
                saw_unready = Some(response);
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let response = saw_unready.expect("readyz flipped to 503 during the stall");
        let ready: ReadyResponse = serde_json::from_slice(&response.body).unwrap();
        assert!(!ready.ready);
        assert!(
            ready
                .reasons
                .iter()
                .any(|r| r.contains("stall-watch") && r.contains("stalled")),
            "{:?}",
            ready.reasons
        );

        let infer_response = infer.join().expect("infer thread");
        assert_eq!(
            infer_response.status,
            200,
            "{}",
            String::from_utf8_lossy(&infer_response.body)
        );
    });

    // The worker heartbeats at the next batch boundary; readiness returns.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut recovered = false;
    while Instant::now() < deadline {
        if get(&registry, "/readyz", false).status == 200 {
            recovered = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(recovered, "readyz returned to 200 after the stall cleared");

    registry.drain_with_deadline(Duration::from_secs(10));
}
