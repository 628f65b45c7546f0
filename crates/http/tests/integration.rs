//! End-to-end tests over real TCP sockets: bit-identical responses under
//! concurrency, admission control under overload, and graceful drain under
//! load.

use mnn_core::SessionConfig;
use mnn_http::{
    HttpConfig, HttpServer, InferRequest, InferResponse, ModelRegistry, ServeOptions, TensorJson,
    TracesResponse,
};
use mnn_models::ModelKind;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A minimal blocking HTTP/1.1 client response.
#[derive(Debug)]
struct ClientResponse {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl ClientResponse {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Read exactly one HTTP response off `stream` (Content-Length framing) and
/// not a byte more: pipelined responses can share a segment, and whatever a
/// larger read took past this response would be lost to the next call.
fn read_response(stream: &mut TcpStream) -> std::io::Result<ClientResponse> {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    while !buf.ends_with(b"\r\n\r\n") {
        if stream.read(&mut byte)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!("connection closed mid-response ({} bytes)", buf.len()),
            ));
        }
        buf.push(byte[0]);
    }
    let head = String::from_utf8(buf)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let mut lines = head.lines();
    let status_line = lines.next().unwrap_or_default();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad status line '{status_line}'"),
            )
        })?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|line| line.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let content_length: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0);

    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body)?;
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

/// Send one request on a fresh connection and read the response.
fn send(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::io::Result<ClientResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    write_request(&mut stream, method, path, body, false)?;
    read_response(&mut stream)
}

fn write_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    write_request_with_headers(stream, method, path, body, keep_alive, &[])
}

fn write_request_with_headers(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &[u8],
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
) -> std::io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: {connection}\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Deterministic, value-varied input for a tiny-cnn at `size` px.
fn test_input(size: usize, seed: usize) -> TensorJson {
    let elements = 3 * size * size;
    TensorJson {
        shape: vec![1, 3, size, size],
        data: (0..elements)
            .map(|i| ((i + seed * 7) % 251) as f32 * 0.013 - 1.6)
            .collect(),
    }
}

fn infer_body(input: TensorJson) -> Vec<u8> {
    let request = InferRequest {
        inputs: BTreeMap::from([("data".to_string(), input)]),
    };
    serde_json::to_vec(&request).unwrap()
}

fn tiny_options(workers: usize) -> ServeOptions {
    ServeOptions {
        workers,
        max_batch: 4,
        session: SessionConfig::cpu(1),
        ..ServeOptions::default()
    }
}

/// Two models, concurrent clients over real sockets: every response must be
/// bit-identical to what the same `Server::infer` returns in-process.
#[test]
fn concurrent_clients_get_bit_identical_responses() {
    let mut registry = ModelRegistry::new();
    let options = tiny_options(2);
    let graph16 = mnn_models::build(ModelKind::TinyCnn, 1, 16);
    let graph24 = mnn_models::build(ModelKind::TinyCnn, 1, 24);
    registry
        .register_model("tiny16", mnn_converter::ModelFile::new(graph16), &options)
        .unwrap();
    registry
        .register_model("tiny24", mnn_converter::ModelFile::new(graph24), &options)
        .unwrap();

    // Compute the in-process reference outputs before the registry moves
    // into the HTTP server.
    let seeds: Vec<usize> = (0..6).collect();
    let mut expected: BTreeMap<(String, usize), Vec<f32>> = BTreeMap::new();
    for (name, size) in [("tiny16", 16), ("tiny24", 24)] {
        let entry = registry.get(name).unwrap();
        for &seed in &seeds {
            let wire = test_input(size, seed);
            let tensor = wire.to_tensor().unwrap();
            let outputs = entry.server.infer(&[("data", &tensor)]).unwrap();
            expected.insert((name.to_string(), seed), outputs[0].data_f32().to_vec());
        }
    }

    let server = HttpServer::bind("127.0.0.1:0", registry, HttpConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut handles = Vec::new();
    for &seed in &seeds {
        for (name, size) in [("tiny16", 16usize), ("tiny24", 24usize)] {
            handles.push(std::thread::spawn(move || {
                let body = infer_body(test_input(size, seed));
                let response =
                    send(addr, "POST", &format!("/v1/models/{name}/infer"), &body).unwrap();
                assert_eq!(
                    response.status,
                    200,
                    "{}",
                    String::from_utf8_lossy(&response.body)
                );
                let parsed: InferResponse = serde_json::from_slice(&response.body).unwrap();
                assert_eq!(parsed.outputs.len(), 1);
                (name.to_string(), seed, parsed.outputs[0].data.clone())
            }));
        }
    }
    for handle in handles {
        let (name, seed, data) = handle.join().unwrap();
        let reference = &expected[&(name.clone(), seed)];
        assert_eq!(data.len(), reference.len());
        for (got, want) in data.iter().zip(reference) {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{name} seed {seed}: {got} != {want}"
            );
        }
    }

    let summary = server.shutdown();
    assert!(summary.drained, "{summary:?}");
    assert_eq!(summary.aborted_requests, 0);
}

/// Keep-alive: one connection serves several requests, including pipelined
/// ones, and `Connection: close` is honored.
#[test]
fn keep_alive_serves_sequential_and_pipelined_requests() {
    let mut registry = ModelRegistry::new();
    registry
        .register_zoo(ModelKind::TinyCnn, 16, &tiny_options(1))
        .unwrap();
    let server = HttpServer::bind("127.0.0.1:0", registry, HttpConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    // Two sequential keep-alive requests on one connection.
    for _ in 0..2 {
        write_request(&mut stream, "GET", "/healthz", b"", true).unwrap();
        let response = read_response(&mut stream).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.header("connection"), Some("keep-alive"));
    }
    // Two pipelined requests written back-to-back before reading.
    write_request(&mut stream, "GET", "/v1/models", b"", true).unwrap();
    write_request(&mut stream, "GET", "/v1/models/tiny-cnn/stats", b"", true).unwrap();
    let first = read_response(&mut stream).unwrap();
    let second = read_response(&mut stream).unwrap();
    assert_eq!(first.status, 200);
    assert!(String::from_utf8_lossy(&first.body).contains("tiny-cnn"));
    assert_eq!(second.status, 200);
    assert!(String::from_utf8_lossy(&second.body).contains("\"submitted\""));
    // A close request ends the connection.
    write_request(&mut stream, "GET", "/healthz", b"", false).unwrap();
    let last = read_response(&mut stream).unwrap();
    assert_eq!(last.header("connection"), Some("close"));
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());

    server.shutdown();
}

/// A response must reach the client in one segment: written as head then
/// body, the body sits behind Nagle until the client's delayed ACK (~40 ms on
/// Linux) on every round trip of a keep-alive connection.
#[test]
fn keep_alive_round_trips_do_not_wait_for_a_delayed_ack() {
    let mut registry = ModelRegistry::new();
    registry
        .register_zoo(ModelKind::TinyCnn, 16, &tiny_options(1))
        .unwrap();
    let server = HttpServer::bind("127.0.0.1:0", registry, HttpConfig::default()).unwrap();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut round_trips: Vec<Duration> = (0..20)
        .map(|_| {
            let start = Instant::now();
            write_request(&mut stream, "GET", "/healthz", b"", true).unwrap();
            assert_eq!(read_response(&mut stream).unwrap().status, 200);
            start.elapsed()
        })
        .collect();
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median /healthz round trip {median:?}, all: {round_trips:?}"
    );

    server.shutdown();
}

/// A connection is accepted when it arrives and a shutdown ends when the
/// server is idle: neither waits out a poll interval. (With a sleeping accept
/// loop the first round trip after `bind` took 25 ms or none, whichever way a
/// thread-start race fell, and `shutdown` up to 25 ms more.)
#[test]
fn first_connection_and_shutdown_do_not_wait_for_a_poll() {
    let mut rounds: Vec<Duration> = (0..9)
        .map(|_| {
            let mut registry = ModelRegistry::new();
            registry
                .register_zoo(ModelKind::TinyCnn, 16, &tiny_options(1))
                .unwrap();
            let server = HttpServer::bind("127.0.0.1:0", registry, HttpConfig::default()).unwrap();
            // Let the accept thread reach its wait, as it has in any real use.
            std::thread::sleep(Duration::from_millis(5));
            let start = Instant::now();
            let response = send(server.local_addr(), "GET", "/healthz", b"").unwrap();
            assert_eq!(response.status, 200);
            assert!(server.shutdown().drained);
            start.elapsed()
        })
        .collect();
    rounds.sort();
    assert!(
        rounds[rounds.len() / 2] < Duration::from_millis(20),
        "connect + /healthz + shutdown: {rounds:?}"
    );
}

/// Malformed bytes get a 400-family response, not a hang or a dropped
/// connection without an answer.
#[test]
fn malformed_requests_get_error_responses() {
    let mut registry = ModelRegistry::new();
    registry
        .register_zoo(ModelKind::TinyCnn, 16, &tiny_options(1))
        .unwrap();
    let server = HttpServer::bind("127.0.0.1:0", registry, HttpConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(b"THIS IS NOT HTTP\r\n\r\n").unwrap();
    let response = read_response(&mut stream).unwrap();
    assert_eq!(response.status, 400);
    assert_eq!(response.header("connection"), Some("close"));
    assert!(response.header("x-request-id").is_some());

    let bad_json = send(addr, "POST", "/v1/models/tiny-cnn/infer", b"{oops").unwrap();
    assert_eq!(bad_json.status, 400);
    assert!(bad_json.header("x-request-id").is_some());

    let unknown = send(addr, "GET", "/v1/models/ghost/stats", b"").unwrap();
    assert_eq!(unknown.status, 404);
    assert!(unknown.header("x-request-id").is_some());

    server.shutdown();
}

/// Overload: with a 1-deep queue and a single worker, hammering the server
/// must produce 429s carrying Retry-After — and never hang or drop requests.
#[test]
fn overload_returns_429_with_retry_after() {
    let mut registry = ModelRegistry::new();
    let options = ServeOptions {
        workers: 1,
        max_batch: 1,
        queue_capacity: Some(1),
        session: SessionConfig::cpu(1),
        ..ServeOptions::default()
    };
    registry
        .register_zoo(ModelKind::TinyCnn, 24, &options)
        .unwrap();
    let server = HttpServer::bind("127.0.0.1:0", registry, HttpConfig::default()).unwrap();
    let addr = server.local_addr();

    let clients = 8;
    let per_client = 6;
    let mut handles = Vec::new();
    for seed in 0..clients {
        handles.push(std::thread::spawn(move || {
            let mut saw = (0usize, 0usize); // (ok, rejected)
            for i in 0..per_client {
                let body = infer_body(test_input(24, seed * per_client + i));
                let response = send(addr, "POST", "/v1/models/tiny-cnn/infer", &body).unwrap();
                assert!(
                    response.header("x-request-id").is_some(),
                    "{} without X-Request-Id",
                    response.status
                );
                match response.status {
                    200 => saw.0 += 1,
                    429 => {
                        assert!(
                            response.header("retry-after").is_some(),
                            "429 without Retry-After"
                        );
                        saw.1 += 1;
                    }
                    other => panic!(
                        "unexpected status {other}: {}",
                        String::from_utf8_lossy(&response.body)
                    ),
                }
            }
            saw
        }));
    }
    let mut total_ok = 0;
    let mut total_rejected = 0;
    for handle in handles {
        let (ok, rejected) = handle.join().unwrap();
        total_ok += ok;
        total_rejected += rejected;
    }
    assert_eq!(total_ok + total_rejected, clients * per_client);
    assert!(total_ok > 0, "no request succeeded");
    assert!(
        total_rejected > 0,
        "a 1-deep queue under 8 concurrent clients must shed load"
    );

    server.shutdown();
}

/// The connection cap answers excess connections with 503 + Retry-After.
#[test]
fn connection_cap_returns_503() {
    let mut registry = ModelRegistry::new();
    registry
        .register_zoo(ModelKind::TinyCnn, 16, &tiny_options(1))
        .unwrap();
    let config = HttpConfig {
        max_connections: 2,
        ..HttpConfig::default()
    };
    let server = HttpServer::bind("127.0.0.1:0", registry, config).unwrap();
    let addr = server.local_addr();

    // Occupy the cap with idle keep-alive connections.
    let mut held = Vec::new();
    for _ in 0..2 {
        let stream = TcpStream::connect(addr).unwrap();
        // Wait until the server has actually accepted (and counted) it.
        while server.active_connections() < held.len() + 1 {
            std::thread::sleep(Duration::from_millis(5));
        }
        held.push(stream);
    }

    let mut extra = TcpStream::connect(addr).unwrap();
    extra
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let response = read_response(&mut extra).unwrap();
    assert_eq!(response.status, 503);
    assert!(response.header("retry-after").is_some());
    // Even a pre-parse rejection carries an id the client can report.
    assert!(response.header("x-request-id").is_some());

    drop(held);
    server.shutdown();
}

/// Observability surface over a real socket: `/metrics` serves Prometheus
/// text with every well-known series, and a profiling-enabled model reports
/// a per-op breakdown accounting for ≥95% of measured wall time.
#[test]
fn metrics_and_profile_endpoints_serve_over_the_wire() {
    let mut registry = ModelRegistry::new();
    let options = ServeOptions {
        workers: 1,
        max_batch: 2,
        session: SessionConfig::cpu(1),
        profiling: true,
        ..ServeOptions::default()
    };
    registry
        .register_zoo(ModelKind::TinyCnn, 32, &options)
        .unwrap();
    let server = HttpServer::bind("127.0.0.1:0", registry, HttpConfig::default()).unwrap();
    let addr = server.local_addr();

    let runs = 4;
    for seed in 0..runs {
        let body = infer_body(test_input(32, seed));
        let response = send(addr, "POST", "/v1/models/tiny-cnn/infer", &body).unwrap();
        assert_eq!(
            response.status,
            200,
            "{}",
            String::from_utf8_lossy(&response.body)
        );
    }

    let metrics = send(addr, "GET", "/metrics", b"").unwrap();
    assert_eq!(metrics.status, 200);
    assert!(metrics
        .header("content-type")
        .unwrap()
        .starts_with("text/plain"));
    let text = String::from_utf8(metrics.body).unwrap();
    for series in [
        "mnn_infer_requests_total",
        "mnn_infer_completed_total",
        "mnn_infer_latency_ms_bucket",
        "mnn_batch_size_bucket",
        "mnn_queue_depth",
        "mnn_plan_cache_hits_total",
        "mnn_plan_cache_misses_total",
        "mnn_tune_cache_hits_total",
        "mnn_tune_cache_misses_total",
        "mnn_session_prepare_total",
        "mnn_http_responses_total{code=\"200\"}",
        "mnn_uptime_seconds",
    ] {
        assert!(text.contains(series), "missing {series} in:\n{text}");
    }
    // The global counters are shared across this test binary, so only a lower
    // bound is meaningful here.
    let requests: u64 = text
        .lines()
        .find(|l| l.starts_with("mnn_infer_requests_total "))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap();
    assert!(requests >= runs as u64, "{requests} < {runs}\n{text}");

    let profile = send(addr, "GET", "/v1/models/tiny-cnn/profile", b"").unwrap();
    assert_eq!(profile.status, 200);
    let parsed: mnn_http::ProfileResponse = serde_json::from_slice(&profile.body).unwrap();
    assert_eq!(parsed.name, "tiny-cnn");
    assert_eq!(parsed.profile.runs, runs as u64);
    assert!(
        parsed.profile.coverage >= 0.95,
        "per-op spans must account for >=95% of wall time: {:?}",
        parsed.profile
    );
    assert!(!parsed.profile.ops.is_empty());
    assert!(parsed
        .profile
        .ops
        .iter()
        .any(|op| op.op.starts_with("Conv2d")));

    let trace = send(addr, "GET", "/v1/models/tiny-cnn/profile?format=trace", b"").unwrap();
    assert_eq!(trace.status, 200);
    let trace_text = String::from_utf8(trace.body).unwrap();
    assert!(trace_text.contains("\"traceEvents\""), "{trace_text}");
    assert!(trace_text.contains("\"ph\":\"X\""), "{trace_text}");

    server.shutdown();
}

/// Shutdown under load: every request accepted before the drain started gets
/// a real response (200, or 503 if the deadline expires) — none are dropped.
#[test]
fn shutdown_mid_load_answers_every_accepted_request() {
    let mut registry = ModelRegistry::new();
    let options = ServeOptions {
        workers: 1,
        max_batch: 2,
        queue_capacity: Some(64),
        session: SessionConfig::cpu(1),
        ..ServeOptions::default()
    };
    registry
        .register_zoo(ModelKind::TinyCnn, 24, &options)
        .unwrap();
    let config = HttpConfig {
        drain_deadline: Duration::from_secs(60),
        ..HttpConfig::default()
    };
    let server = HttpServer::bind("127.0.0.1:0", registry, config).unwrap();
    let addr = server.local_addr();

    // Clients connect and write their requests *before* shutdown is
    // triggered, then read the answer afterwards.
    let clients = 6;
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(clients + 1));
    let mut handles = Vec::new();
    for seed in 0..clients {
        let barrier = std::sync::Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(60)))
                .unwrap();
            let body = infer_body(test_input(24, seed));
            write_request(
                &mut stream,
                "POST",
                "/v1/models/tiny-cnn/infer",
                &body,
                true,
            )
            .unwrap();
            barrier.wait(); // request is on the wire; let shutdown begin
            let response = read_response(&mut stream).unwrap();
            assert!(
                response.status == 200 || response.status == 503,
                "got {}: {}",
                response.status,
                String::from_utf8_lossy(&response.body)
            );
            // The drain path answers with identity headers too.
            assert!(response.header("x-request-id").is_some());
            response.status
        }));
    }
    barrier.wait();

    // Trigger shutdown the way an operator would: over the wire.
    let response = send(addr, "POST", "/admin/shutdown", b"").unwrap();
    assert_eq!(response.status, 200);
    server.wait_shutdown_requested();
    let summary = server.shutdown();

    let statuses: Vec<u16> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(statuses.len(), clients);
    // With a generous deadline everything completes as 200.
    assert!(statuses.iter().all(|&s| s == 200), "statuses: {statuses:?}");
    assert!(summary.drained, "{summary:?}");

    // The listener is gone: new connections are refused (or reset).
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_secs(2)).is_err()
            || send(addr, "GET", "/healthz", b"").is_err(),
        "server still accepting after shutdown"
    );
}

/// Satellite of the tracing work: a client-supplied `traceparent` round-trips
/// byte-exact over a real socket, and the completed request shows up in
/// `GET /v1/traces` with its full stage waterfall, per-op spans, batch link,
/// chrome export, and a `/metrics` exemplar pointing back at the trace.
#[test]
fn traceparent_round_trips_and_traces_capture_the_waterfall() {
    let mut registry = ModelRegistry::new();
    registry
        .register_zoo(ModelKind::TinyCnn, 32, &tiny_options(1))
        .unwrap();
    // Explicit opt-in so the test also passes under a forced MNN_TRACE=off
    // environment: explicit configuration wins over the env default.
    let config = HttpConfig {
        tracing: Some(true),
        ..HttpConfig::default()
    };
    let server = HttpServer::bind("127.0.0.1:0", registry, config).unwrap();
    let addr = server.local_addr();

    const TRACEPARENT: &str = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01";
    const TRACE_ID: &str = "0af7651916cd43dd8448eb211c80319c";

    let body = infer_body(test_input(32, 3));
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    write_request_with_headers(
        &mut stream,
        "POST",
        "/v1/models/tiny-cnn/infer",
        &body,
        false,
        &[("traceparent", TRACEPARENT)],
    )
    .unwrap();
    let response = read_response(&mut stream).unwrap();
    assert_eq!(
        response.status,
        200,
        "{}",
        String::from_utf8_lossy(&response.body)
    );
    // Byte-exact echo of the client's context, and its trace id as the
    // request id.
    assert_eq!(response.header("traceparent"), Some(TRACEPARENT));
    assert_eq!(response.header("x-request-id"), Some(TRACE_ID));

    // The trace is sealed just after the response bytes leave, so poll
    // briefly instead of racing the connection thread.
    let deadline = Instant::now() + Duration::from_secs(5);
    let trace = loop {
        let listing = send(addr, "GET", &format!("/v1/traces?id={TRACE_ID}"), b"").unwrap();
        if listing.status == 200 {
            let parsed: TracesResponse = serde_json::from_slice(&listing.body).unwrap();
            assert_eq!(parsed.traces.len(), 1);
            break parsed.traces.into_iter().next().unwrap();
        }
        assert!(
            Instant::now() < deadline,
            "trace {TRACE_ID} never appeared in /v1/traces"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(trace.trace_id, TRACE_ID);
    assert!(
        trace.adopted,
        "client context must be adopted, not replaced"
    );
    assert_eq!(trace.parent_span_id, "b7ad6b7169203331");
    assert_eq!(trace.status, 200);
    assert_eq!(trace.model, "tiny-cnn");
    for (stage, depth) in [
        ("parse", 0),
        ("decode", 0),
        ("serve", 0),
        ("encode", 0),
        ("write", 0),
        ("queue_wait", 1),
        ("batch_assembly", 1),
        ("inference", 1),
        ("scatter", 1),
    ] {
        assert!(
            trace
                .stages
                .iter()
                .any(|s| s.name == stage && s.depth == depth),
            "missing stage {stage}@{depth} in {:?}",
            trace.stages
        );
    }
    assert!(
        trace.coverage >= 0.95,
        "depth-0 stages must tile the request: coverage = {}",
        trace.coverage
    );
    assert!(!trace.ops.is_empty(), "per-op kernel spans must be nested");
    assert!(trace.ops.iter().all(|op| op.trace_id == TRACE_ID));
    assert!(trace.batch.is_some(), "executed batches are linked");

    // The chrome://tracing export serves over the wire.
    let chrome = send(addr, "GET", "/v1/traces?format=trace", b"").unwrap();
    assert_eq!(chrome.status, 200);
    let chrome_text = String::from_utf8(chrome.body).unwrap();
    assert!(chrome_text.contains("\"traceEvents\""), "{chrome_text}");
    assert!(chrome_text.contains("\"ph\":\"X\""), "{chrome_text}");

    // The latency histogram carries an exemplar linking back to a trace —
    // ours, unless a concurrently running test overwrote the bucket.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let metrics = send(addr, "GET", "/metrics", b"").unwrap();
        let text = String::from_utf8(metrics.body).unwrap();
        if text.contains(&format!("# {{trace_id=\"{TRACE_ID}\"}}")) {
            break;
        }
        if Instant::now() > deadline {
            assert!(
                text.contains("# {trace_id=\""),
                "no exemplar in /metrics:\n{text}"
            );
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    server.shutdown();
}

/// Every response path answers with an `X-Request-Id` — success, client
/// echo, unknown routes, wrong methods, oversized bodies and raw garbage.
#[test]
fn request_identity_echoes_on_every_response_path() {
    let mut registry = ModelRegistry::new();
    registry
        .register_zoo(ModelKind::TinyCnn, 16, &tiny_options(1))
        .unwrap();
    let config = HttpConfig {
        max_body_bytes: 1024,
        tracing: Some(true),
        ..HttpConfig::default()
    };
    let server = HttpServer::bind("127.0.0.1:0", registry, config).unwrap();
    let addr = server.local_addr();

    // A client-supplied id is echoed verbatim; the server still attaches
    // its own traceparent for correlation.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write_request_with_headers(
        &mut stream,
        "GET",
        "/healthz",
        b"",
        false,
        &[("x-request-id", "client-chosen-42")],
    )
    .unwrap();
    let echoed = read_response(&mut stream).unwrap();
    assert_eq!(echoed.status, 200);
    assert_eq!(echoed.header("x-request-id"), Some("client-chosen-42"));
    let traceparent = echoed
        .header("traceparent")
        .expect("traced responses carry traceparent");
    assert!(traceparent.starts_with("00-"), "{traceparent}");

    // Without a client id, the trace id is the request id.
    let plain = send(addr, "GET", "/healthz", b"").unwrap();
    let id = plain.header("x-request-id").expect("generated id");
    assert_eq!(id.len(), 32, "trace ids are 32 lowerhex chars: {id}");

    // Unknown route and wrong method still answer with identity.
    let missing = send(addr, "GET", "/nope", b"").unwrap();
    assert_eq!(missing.status, 404);
    assert!(missing.header("x-request-id").is_some());
    let wrong_method = send(addr, "DELETE", "/healthz", b"").unwrap();
    assert_eq!(wrong_method.status, 405);
    assert!(wrong_method.header("x-request-id").is_some());

    // An oversized body is rejected at parse time, before a request object
    // exists — the 413 carries a generated id and closes the connection.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let oversized = vec![b'x'; 4096];
    write_request(
        &mut stream,
        "POST",
        "/v1/models/tiny-cnn/infer",
        &oversized,
        true,
    )
    .unwrap();
    let rejected = read_response(&mut stream).unwrap();
    assert_eq!(rejected.status, 413);
    assert!(rejected.header("x-request-id").is_some());
    assert_eq!(rejected.header("connection"), Some("close"));

    server.shutdown();
}
