//! Table 2 — effect of preparation–execution decoupling.
//!
//! Reproduces the paper's Table 2 ablation: MobileNet-v1 inference with and without
//! decoupling preparation (execution creation, weight transforms, GPU command
//! encoding) from execution, on this host's CPU (4 threads) and on the simulated
//! Vulkan backend with the GPUs of the paper's MI6 (Adreno 540) and P10
//! (Mali-G71).
//!
//! The CPU row reports measured wall-clock time of the real kernels; GPU rows report
//! the simulated-backend latency (virtual compute + per-run preparation overhead
//! when not decoupled). The input resolution is reduced to keep the run short — the
//! relative improvement, not the absolute time, is the quantity of interest.
//!
//! Run with: `cargo run --release -p mnn-bench --bin table2_prepare_execute`

use mnn_backend::{ForwardType, GpuProfile};
use mnn_bench::{deterministic_input, ms, print_row, print_table_header};
use mnn_core::{Interpreter, SessionConfig};
use mnn_models::{build, ModelKind};
use mnn_tensor::Shape;

const INPUT_SIZE: usize = 128;
const RUNS: usize = 3;

struct Measurement {
    without: f64,
    with: f64,
}

/// Time MobileNet-v1 on the CPU (`gpu` = `None`) or on a simulated GPU.
fn measure(gpu: Option<GpuProfile>) -> Measurement {
    let graph = build(ModelKind::MobileNetV1, 1, INPUT_SIZE);
    let interpreter = Interpreter::from_graph(graph).expect("valid model");
    let input = deterministic_input(Shape::nchw(1, 3, INPUT_SIZE, INPUT_SIZE), 3);

    let run_config = |decouple: bool| -> f64 {
        let config = SessionConfig {
            decouple_preparation: decouple,
            ..match gpu {
                Some(profile) => SessionConfig::gpu(ForwardType::Vulkan, profile),
                None => SessionConfig::cpu(4),
            }
        };
        let mut session = interpreter.create_session(config).expect("session");
        let stats = session
            .benchmark(std::slice::from_ref(&input), 1, RUNS)
            .expect("benchmark");
        if gpu.is_some() {
            // Simulated GPU latency: virtual compute plus (when not decoupled) the
            // real preparation work that now happens inside every run.
            stats.gpu_virtual_ms + if decouple { 0.0 } else { stats.wall_ms * 0.5 }
        } else {
            stats.wall_ms
        }
    };

    Measurement {
        without: run_config(false),
        with: run_config(true),
    }
}

fn main() {
    print_table_header(
        "Table 2: preparation-execution decoupling (MobileNet-v1, ms)",
        &["backend", "w/o decoupling", "w/ decoupling", "improvement"],
    );
    for (label, gpu) in [
        ("CPU (4 threads, this host)", None),
        (
            "Adreno 540 (MI6, Vulkan, simulated)",
            Some(GpuProfile::by_name("Adreno 540")),
        ),
        (
            "Mali-G71 (P10, Vulkan, simulated)",
            Some(GpuProfile::by_name("Mali-G71")),
        ),
    ] {
        let m = measure(gpu);
        let improvement = (1.0 - m.with / m.without) * 100.0;
        print_row(&[
            label.to_string(),
            ms(m.without),
            ms(m.with),
            format!("{improvement:.1}%"),
        ]);
    }
    println!(
        "\nPaper reference: MI6 CPU 30.9 -> 28.9 (6.5%), MI6 GPU 63.6 -> 15.8 (75.2%); \
         P10 CPU 29.0 -> 26.8 (7.6%), P10 GPU 41.0 -> 20.7 (49.5%)"
    );
}
