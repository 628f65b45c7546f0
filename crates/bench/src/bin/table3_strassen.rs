//! Table 3 — matrix multiplication with and without the Strassen algorithm.
//!
//! Run with: `cargo run --release -p mnn-bench --bin table3_strassen`

use mnn_bench::{
    deterministic_buffer, ms, print_row, print_table_header, time_avg_ms, TABLE3_SIZES,
};
use mnn_kernels::gemm::gemm;
use mnn_kernels::simd::KernelBackend;
use mnn_kernels::strassen::{planned_depth, strassen_scratch, strassen_with};

fn main() {
    print_table_header(
        "Table 3: matrix multiplication time (ms), direct vs Strassen",
        &[
            "matrix size (a, b, c)",
            "w/o Strassen",
            "w/ Strassen",
            "improvement",
            "recursion depth",
        ],
    );
    for (a, b, c) in TABLE3_SIZES {
        let lhs = deterministic_buffer(a * b, 1);
        let rhs = deterministic_buffer(b * c, 2);
        let mut out = vec![0.0f32; a * c];
        let mut scratch = vec![0.0f32; strassen_scratch(a, b, c).f32];
        let runs = if a >= 1024 { 2 } else { 3 };
        let direct = time_avg_ms(runs, || gemm(a, b, c, &lhs, &rhs, &mut out));
        let with_strassen = time_avg_ms(runs, || {
            let kb = KernelBackend::Scalar;
            strassen_with(kb, 1, a, b, c, &lhs, &rhs, &mut out, &mut scratch)
        });
        let improvement = (1.0 - with_strassen / direct) * 100.0;
        print_row(&[
            format!("({a}, {b}, {c})"),
            ms(direct),
            ms(with_strassen),
            format!("{improvement:.1}%"),
            planned_depth(a, b, c).to_string(),
        ]);
    }
    println!(
        "\nPaper reference (P10, ms): 23/23, 191/176 (7.9%), 388/359 (7.5%), 1501/1299 (13.5%)"
    );
}
