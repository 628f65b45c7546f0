//! `table_tuning` — cost-model plans vs tuned plans on the model zoo.
//!
//! Two plans per model/variant:
//!
//! * **cost** — cost-model scheme selection, no tuning (the paper's Eq. 2–3).
//! * **tuned** — `TuningMode::Full`: every candidate algorithm measured on
//!   the node's real geometry.
//!
//! Both run the kernels of the host's detected instruction set (named in the
//! table title); they differ only in which algorithm each convolution got.
//! To see what the vector kernels are worth, run the table twice — with and
//! without `MNN_SIMD=scalar` — and compare the `tuned ms` columns.
//!
//! The acceptance bars, asserted (a regression fails the bin):
//!
//! * the tuned plan must never run slower than the cost-model plan beyond
//!   measurement noise, and
//! * a session created against the warm persistent cache must perform **zero**
//!   candidate measurements (checked via the tuning-stats counter).
//!
//! Run with: `cargo run --release -p mnn-bench --bin table_tuning`
//! Calibrate the cost model instead with: `... --bin table_tuning -- --calibrate`

use mnn_bench::{deterministic_input, print_row, print_table_header};
use mnn_converter::{optimize, quantize_weights, OptimizerOptions};
use mnn_core::{Interpreter, Session, SessionConfig, TuningMode};
use mnn_graph::Graph;
use mnn_models::{build, ModelKind};
use mnn_tensor::Shape;
use std::path::PathBuf;

const INPUT_SIZE: usize = 64;
const THREADS: usize = 4;
const WARMUP: usize = 1;
const RUNS: usize = 3;
/// Independent benchmark repetitions per plan; the **minimum** mean is
/// reported. OS scheduler interference on shared hosts only ever inflates a
/// measurement, so min-of-means converges on the plan's real cost where a
/// single mean can be poisoned by one preempted run.
const REPEATS: usize = 3;
/// Measurement-noise allowance for the never-slower check: relative plus an
/// absolute floor for sub-millisecond models.
const NOISE_RELATIVE: f64 = 1.15;
const NOISE_ABS_MS: f64 = 0.3;

fn cache_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "mnn-table-tuning-{}-{tag}.json",
        std::process::id()
    ))
}

fn session(graph: Graph, config: SessionConfig) -> Session {
    Interpreter::from_graph(graph)
        .expect("interpreter")
        .create_session(config)
        .expect("session")
}

fn bench_run(session: &mut Session) -> f64 {
    let input = deterministic_input(Shape::nchw(1, 3, INPUT_SIZE, INPUT_SIZE), 42);
    let mut best = f64::INFINITY;
    for rep in 0..REPEATS {
        let warmup = if rep == 0 { WARMUP } else { 0 };
        let mean = session
            .benchmark(std::slice::from_ref(&input), warmup, RUNS)
            .expect("benchmark")
            .wall_ms;
        best = best.min(mean);
    }
    best
}

fn calibrate() {
    println!("calibrating the int8 cost factor on this machine...\n");
    for threads in [1, THREADS] {
        let calibration = mnn_tune::calibrate::calibrate_int8_cost_factor(threads);
        println!(
            "threads = {threads}: INT8_COST_FACTOR = {:.3}",
            calibration.factor
        );
        for s in &calibration.samples {
            println!(
                "  {:<20} float {:>8.3} ms   int8 {:>8.3} ms   factor {:.3}",
                s.description, s.float_ms, s.int8_ms, s.factor
            );
        }
    }
    println!(
        "\nshipped default (mnn_core::scheme::INT8_COST_FACTOR): {}",
        mnn_core::scheme::INT8_COST_FACTOR
    );
}

fn main() {
    if std::env::args().any(|a| a == "--calibrate") {
        calibrate();
        return;
    }

    let kernel_set = mnn_kernels::simd::active_kernel_set();
    print_table_header(
        &format!(
            "Auto-tuning: cost-model vs tuned \
             ({INPUT_SIZE}x{INPUT_SIZE}, {THREADS} threads, kernel set {kernel_set})"
        ),
        &[
            "model",
            "variant",
            "cost ms",
            "tuned ms",
            "tuned x",
            "tuned nodes",
            "warm meas",
            "verdict",
        ],
    );

    let mut failures = 0usize;
    for kind in [
        ModelKind::MobileNetV1,
        ModelKind::SqueezeNetV1_1,
        ModelKind::ResNet18,
    ] {
        let mut float_graph = build(kind, 1, INPUT_SIZE);
        optimize(&mut float_graph, OptimizerOptions::default());
        let mut quant_graph = float_graph.clone();
        quantize_weights(&mut quant_graph);

        for (variant, graph) in [("float", float_graph), ("int8", quant_graph)] {
            let tag = format!("{kind}-{variant}").replace([' ', '.'], "_");
            let path = cache_path(&tag);
            let _ = std::fs::remove_file(&path);

            // Cost-model baseline.
            let mut cost_session = session(
                graph.clone(),
                SessionConfig::builder().threads(THREADS).build(),
            );
            let cost_ms = bench_run(&mut cost_session);

            mnn_tune::clear_process_caches();
            let tuned_config = SessionConfig::builder()
                .threads(THREADS)
                .tuning(TuningMode::Full)
                .tune_cache_path(&path)
                .build();
            let mut tuned_session = session(graph.clone(), tuned_config.clone());
            let tuned_ms = bench_run(&mut tuned_session);
            let tuned_nodes = tuned_session.report().tuned_nodes;

            // Warm persistent start: simulate a fresh process, then assert the
            // acceptance criterion — zero candidate measurements.
            mnn_tune::clear_process_caches();
            let warm_session = session(graph.clone(), tuned_config);
            let warm_stats = warm_session.tuning_stats().expect("tuning enabled");
            assert!(
                warm_stats.loaded_from_disk,
                "{kind}/{variant}: warm session must load the persisted cache"
            );
            assert_eq!(
                warm_stats.measured_candidates, 0,
                "{kind}/{variant}: warm session must perform zero measurements"
            );

            let within_noise = tuned_ms <= cost_ms * NOISE_RELATIVE + NOISE_ABS_MS;
            if !within_noise {
                failures += 1;
            }
            print_row(&[
                kind.to_string(),
                variant.to_string(),
                format!("{cost_ms:.3}"),
                format!("{tuned_ms:.3}"),
                format!("{:.2}x", cost_ms / tuned_ms.max(1e-9)),
                tuned_nodes.to_string(),
                warm_stats.measured_candidates.to_string(),
                if within_noise { "PASS" } else { "SLOWER" }.to_string(),
            ]);
            let _ = std::fs::remove_file(&path);
        }
    }

    println!();
    if failures > 0 {
        println!(
            "FAIL: {failures} configuration(s) ran slower than the cost-model plan beyond noise"
        );
        std::process::exit(1);
    }
    println!("PASS: tuned plans never slower than cost-model plans beyond measurement noise");
}
