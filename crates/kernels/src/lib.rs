//! CPU compute kernels for the MNN-rs inference engine.
//!
//! This crate implements every "kernel" (detailed operator implementation, paper
//! Section 3.3) the engine needs, all in safe Rust:
//!
//! * [`gemm`] — single- and multi-threaded blocked matrix multiplication, the basic
//!   compute-intensive unit MNN optimizes once and reuses everywhere (Section 3.5).
//! * [`strassen`] — Strassen matrix multiplication with the paper's cost-based
//!   recursion-stop condition (Eq. 9), used for 1×1 convolutions / large GEMMs.
//! * [`winograd`] — a *Winograd generator* producing `A`, `B`, `G` transform matrices
//!   for any output-tile/kernel size from the interpolation points of Eq. 8, plus the
//!   tiled Winograd convolution of Fig. 4 (Hadamard product restructured as GEMM).
//! * [`conv`] — reference (naive), sliding-window, im2col and 1×1-as-GEMM
//!   convolutions, depthwise convolution, and common parameter handling.
//! * [`pool`], [`activation`], [`elementwise`], [`norm`], [`fc`] — the remaining
//!   operator kernels used by the model zoo.
//! * [`quant`] — symmetric int8 quantization and a quantized GEMM/convolution path.
//! * [`parallel`] — a tiny scoped-thread work partitioner used by the heavy kernels.
//! * [`scratch`] — the typed temporaries a kernel call borrows: every kernel on the
//!   inference path writes into a caller-provided output slice and allocates nothing.
//!
//! All kernels are validated against naive reference implementations in their unit
//! and property tests; the schemes compared in the paper's Table 1/3 are benchmarked
//! from `mnn-bench`.

#![deny(missing_docs)]
// Compute kernels take their geometry as scalar parameters and index with plain
// loops on purpose: the signatures mirror the (params, threads, batch, h, w,
// buffers...) shape of the C++ kernels and the indexed loops keep the math legible.
#![allow(clippy::too_many_arguments)]
#![allow(clippy::needless_range_loop)]

pub mod activation;
pub mod conv;
pub mod elementwise;
pub mod fc;
pub mod gemm;
pub mod norm;
pub mod parallel;
pub mod pool;
pub mod quant;
pub mod scratch;
pub mod simd;
pub mod strassen;
pub mod winograd;

pub use conv::{ConvParams, PadMode};
pub use scratch::{Scratch, ScratchLen};
