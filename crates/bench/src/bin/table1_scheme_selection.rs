//! Table 1 — inference time of different convolution computation schemes.
//!
//! Reproduces the paper's Table 1: for each convolution setting `(k, ic, oc, size)`
//! the sliding-window kernel, Winograd with the minimal and maximal block size, and
//! the scheme picked by MNN's cost model ("Ours") are measured on the real Rust
//! kernels of `mnn-kernels`.
//!
//! Run with: `cargo run --release -p mnn-bench --bin table1_scheme_selection`

use mnn_backend::ConvScheme;
use mnn_bench::{
    ms, print_row, print_table_header, table1_conv, time_avg_ms, SchemeBench, TABLE1_SETTINGS,
};
use mnn_core::scheme::{select_conv_scheme, MAX_WINOGRAD_TILE};

fn main() {
    let threads = 4;
    let runs = 3;
    print_table_header(
        "Table 1: convolution scheme comparison (ms, lower is better)",
        &[
            "setting (k, ic, oc, size)",
            "Sliding",
            "WinoMin",
            "WinoMax",
            "Ours",
            "selected scheme",
        ],
    );

    for setting in TABLE1_SETTINGS {
        let (k, ic, oc, size) = setting;
        let params = table1_conv(setting);
        let decision = select_conv_scheme(&params, size, size, MAX_WINOGRAD_TILE);
        let mut conv = SchemeBench::new(params, size, threads, MAX_WINOGRAD_TILE);
        let mut time = |scheme| time_avg_ms(runs, || conv.run(scheme));

        let sliding = time(ConvScheme::SlidingWindow);
        let wino_min = time(ConvScheme::Winograd { tile: 2 });
        let wino_max = time(ConvScheme::Winograd {
            tile: MAX_WINOGRAD_TILE,
        });
        let ours = match decision.selected {
            ConvScheme::SlidingWindow | ConvScheme::Winograd { .. } => time(decision.selected),
            // 1x1 settings never appear in Table 1, but handle them gracefully.
            _ => sliding,
        };

        print_row(&[
            format!("({k}, {ic}, {oc}, {size})"),
            ms(sliding),
            ms(wino_min),
            ms(wino_max),
            ms(ours),
            decision.selected.to_string(),
        ]);
    }
    println!(
        "\nPaper reference (ms): (2,3,16,224): 32.1 / 42.2 / 57.3 / 32.7; \
         (2,512,512,16): 895.1 / 287.7 / 539.3 / 286.0; (3,64,64,112): 895.1 / 389.8 / 237.4 / 236.4"
    );
}
