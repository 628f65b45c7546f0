//! Table 7 — MLPerf-style latency statistics.
//!
//! The paper runs the MLPerf load generator over MobileNet-v2 on a Pixel 3 (4 CPU
//! threads, ≥1024 queries) and reports QPS plus latency percentiles. This harness
//! reproduces the same statistics on the real Rust engine; the input resolution and
//! query count are configurable because the pure-Rust kernels on a development
//! machine are slower than NEON kernels on a phone.
//!
//! Run with: `cargo run --release -p mnn-bench --bin table7_mlperf [-- <queries> <input_size>]`

use mnn_bench::{deterministic_input, print_row, print_table_header};
use mnn_core::{Interpreter, SessionConfig};
use mnn_models::{build, ModelKind};
use mnn_obs::percentile;
use mnn_tensor::Shape;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let queries: usize = args.get(1).and_then(|v| v.parse().ok()).unwrap_or(128);
    let input_size: usize = args.get(2).and_then(|v| v.parse().ok()).unwrap_or(96);

    let graph = build(ModelKind::MobileNetV2, 1, input_size);
    let interpreter = Interpreter::from_graph(graph).expect("valid model");
    let mut session = interpreter
        .create_session(SessionConfig::cpu(4))
        .expect("session");
    let input = deterministic_input(Shape::nchw(1, 3, input_size, input_size), 9);

    // Warm-up (the paper performs one warm-up inference before measuring).
    session.run(std::slice::from_ref(&input)).expect("warm-up");

    let mut latencies_ns: Vec<u128> = Vec::with_capacity(queries);
    let wall_start = Instant::now();
    for _ in 0..queries {
        let start = Instant::now();
        session
            .run(std::slice::from_ref(&input))
            .expect("inference");
        latencies_ns.push(start.elapsed().as_nanos());
    }
    let wall_s = wall_start.elapsed().as_secs_f64();
    latencies_ns.sort_unstable();

    let sum_ns: u128 = latencies_ns.iter().sum();
    let mean_ns = sum_ns / queries as u128;
    let qps_with_overhead = queries as f64 / wall_s;
    let qps_without_overhead = 1e9 * queries as f64 / sum_ns as f64;
    let sorted_ns: Vec<f64> = latencies_ns.iter().map(|&ns| ns as f64).collect();

    print_table_header(
        &format!("Table 7: MLPerf-style results (MobileNet-v2, {input_size}x{input_size}, 4 CPU threads)"),
        &["item of evaluation", "value"],
    );
    let rows: Vec<(String, String)> = vec![
        ("query count".into(), queries.to_string()),
        (
            "QPS w/ loadgen overhead".into(),
            format!("{qps_with_overhead:.2}"),
        ),
        (
            "QPS w/o loadgen overhead".into(),
            format!("{qps_without_overhead:.2}"),
        ),
        ("Min latency (ns)".into(), latencies_ns[0].to_string()),
        (
            "Max latency (ns)".into(),
            latencies_ns[queries - 1].to_string(),
        ),
        ("Mean latency (ns)".into(), mean_ns.to_string()),
        (
            "50.00 percentile latency (ns)".into(),
            format!("{:.0}", percentile(&sorted_ns, 50.0)),
        ),
        (
            "90.00 percentile latency (ns)".into(),
            format!("{:.0}", percentile(&sorted_ns, 90.0)),
        ),
    ];
    for (item, value) in rows {
        print_row(&[item, value]);
    }
    println!(
        "\nPaper reference (Pixel 3, 224x224, 1024+ queries): QPS 64.2, mean 15.56 ms, \
         p50 15.60 ms, p90 16.41 ms"
    );
}
