//! `table_http` — socket-level serving throughput through the HTTP frontend.
//!
//! Where `table_serving` measures the in-process serving runtime, this table
//! measures the whole network path: JSON encode → TCP → HTTP parse → JSON
//! decode → micro-batched inference → JSON encode → TCP. Closed-loop clients
//! (each a real `TcpStream` with keep-alive) hammer two zoo models behind one
//! [`mnn_http::HttpServer`]; a second phase shrinks the request queue to
//! force overload and reports how much load is shed as `429`.
//!
//! Reported per model: requests/s, p50/p99 end-to-end latency (client-side,
//! socket to socket), and the 429 rate under overload.
//!
//! Run with: `cargo run --release -p mnn-bench --bin table_http`

use mnn_bench::{print_row, print_table_header, time_ms};
use mnn_core::SessionConfig;
use mnn_http::{HttpConfig, HttpServer, InferRequest, ModelRegistry, ServeOptions, TensorJson};
use mnn_models::ModelKind;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const INPUT_SIZE: usize = 64;
const REQUESTS_PER_MODEL: usize = 96;
const CLIENTS: usize = 4;
const WORKERS: usize = 2;
const THREADS_PER_WORKER: usize = 2;
const MAX_BATCH: usize = 8;

/// One model's measured load: client-observed latencies and 429 count.
struct LoadResult {
    rps: f64,
    latencies_ms: Vec<f64>,
    rejected: usize,
}

impl LoadResult {
    /// Nearest-rank percentile `p` (0–100) of the served requests' latency.
    fn percentile(&self, p: f64) -> f64 {
        let mut sorted = self.latencies_ms.clone();
        sorted.sort_by(f64::total_cmp);
        mnn_obs::percentile(&sorted, p)
    }
}

/// Serialize the infer request body for `model`'s input once per client.
fn body_for(seed: usize) -> Vec<u8> {
    let elements = 3 * INPUT_SIZE * INPUT_SIZE;
    let request = InferRequest {
        inputs: BTreeMap::from([(
            "data".to_string(),
            TensorJson {
                shape: vec![1, 3, INPUT_SIZE, INPUT_SIZE],
                data: (0..elements)
                    .map(|i| ((i + seed * 13) % 251) as f32 * 0.008)
                    .collect(),
            },
        )]),
    };
    serde_json::to_vec(&request).expect("serialize request")
}

/// Read one Content-Length-framed response; returns its status code.
fn read_status(stream: &mut TcpStream, buf: &mut Vec<u8>) -> std::io::Result<u16> {
    buf.clear();
    let mut chunk = [0u8; 16 * 1024];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]);
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(std::io::ErrorKind::InvalidData)?;
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length: "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);
    let mut have = buf.len() - head_end;
    while have < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        have += n;
    }
    Ok(status)
}

/// Closed-loop load: `CLIENTS` keep-alive connections each issue their share
/// of `REQUESTS_PER_MODEL` infer calls against `path` and time every
/// round-trip.
fn run_load(addr: SocketAddr, path: &str) -> LoadResult {
    let per_client = REQUESTS_PER_MODEL / CLIENTS;
    let (outcomes, total_ms) = time_ms(|| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    scope.spawn(move || {
                        let body = body_for(client);
                        let head = format!(
                            "POST {path} HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n",
                            body.len()
                        );
                        let mut stream = TcpStream::connect(addr).expect("connect");
                        stream
                            .set_read_timeout(Some(Duration::from_secs(120)))
                            .expect("timeout");
                        let mut response_buf = Vec::new();
                        let mut latencies = Vec::with_capacity(per_client);
                        let mut rejected = 0usize;
                        for _ in 0..per_client {
                            let (status, ms) = time_ms(|| {
                                stream.write_all(head.as_bytes()).expect("write");
                                stream.write_all(&body).expect("write");
                                read_status(&mut stream, &mut response_buf).expect("read")
                            });
                            match status {
                                200 => latencies.push(ms),
                                429 => rejected += 1,
                                other => panic!("unexpected status {other}"),
                            }
                        }
                        (latencies, rejected)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect::<Vec<_>>()
        })
    });
    let mut latencies_ms = Vec::new();
    let mut rejected = 0;
    for (lat, rej) in outcomes {
        latencies_ms.extend(lat);
        rejected += rej;
    }
    LoadResult {
        rps: latencies_ms.len() as f64 / (total_ms / 1000.0),
        latencies_ms,
        rejected,
    }
}

fn start_server(queue_capacity: usize) -> HttpServer {
    let options = ServeOptions {
        workers: WORKERS,
        max_batch: MAX_BATCH,
        batch_window: Duration::from_millis(2),
        queue_capacity: Some(queue_capacity),
        session: SessionConfig::cpu(THREADS_PER_WORKER),
        ..ServeOptions::default()
    };
    let mut registry = ModelRegistry::new();
    for kind in [ModelKind::MobileNetV1, ModelKind::SqueezeNetV1_1] {
        registry
            .register_zoo(kind, INPUT_SIZE, &options)
            .expect("register model");
    }
    HttpServer::bind("127.0.0.1:0", registry, HttpConfig::default()).expect("bind")
}

fn main() {
    println!(
        "HTTP load: {REQUESTS_PER_MODEL} requests/model from {CLIENTS} keep-alive clients, \
         {WORKERS} workers × {THREADS_PER_WORKER} threads, micro-batch ≤{MAX_BATCH}, {INPUT_SIZE}px input"
    );

    // Phase 1: ample queue — measure clean throughput and latency.
    let server = start_server(REQUESTS_PER_MODEL);
    let addr = server.local_addr();
    print_table_header(
        "HTTP serving throughput (socket to socket)",
        &["model", "req/s", "p50 ms", "p99 ms", "429 rate"],
    );
    for kind in [ModelKind::MobileNetV1, ModelKind::SqueezeNetV1_1] {
        let name = kind.name().to_ascii_lowercase();
        let path = format!("/v1/models/{name}/infer");
        run_load(addr, &path); // warm plans for every batch size
        let result = run_load(addr, &path);
        print_row(&[
            name,
            format!("{:.1}", result.rps),
            format!("{:.2}", result.percentile(50.0)),
            format!("{:.2}", result.percentile(99.0)),
            format!(
                "{:.1}%",
                100.0 * result.rejected as f64 / REQUESTS_PER_MODEL as f64
            ),
        ]);
    }
    server.shutdown();

    // Phase 2: 1-deep queue — overload; the table shows shed load, not hangs.
    let server = start_server(1);
    let addr = server.local_addr();
    print_table_header(
        "Overload behavior (queue capacity 1): load shed as 429",
        &["model", "req/s (served)", "p99 ms", "429 rate"],
    );
    for kind in [ModelKind::MobileNetV1, ModelKind::SqueezeNetV1_1] {
        let name = kind.name().to_ascii_lowercase();
        let path = format!("/v1/models/{name}/infer");
        let result = run_load(addr, &path);
        print_row(&[
            name,
            format!("{:.1}", result.rps),
            format!("{:.2}", result.percentile(99.0)),
            format!(
                "{:.1}%",
                100.0 * result.rejected as f64 / REQUESTS_PER_MODEL as f64
            ),
        ]);
    }
    let summary = server.shutdown();
    println!(
        "\ngraceful drain after load: drained={} aborted={}",
        summary.drained, summary.aborted_requests
    );
}
