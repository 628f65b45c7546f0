//! A Winograd convolution allocates nothing, however many tiles or channels
//! it processes: output and scratch are the caller's.
//!
//! This file holds one test so that the counting allocator sees no other
//! test's traffic on its thread.

use mnn_kernels::conv::ConvParams;
use mnn_kernels::simd::KernelBackend;
use mnn_kernels::winograd::{
    conv2d_winograd_prepared_with, prepare_winograd_weights, winograd_scratch,
};
use mnn_kernels::Scratch;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every request to `System` unchanged; the counter is a
// thread-local `Cell<u64>` with a const initializer, so touching it neither
// allocates nor runs a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations of one single-threaded F(4×4) run over `channels` in and out
/// channels on a `size`×`size` input.
fn allocations(channels: usize, size: usize) -> u64 {
    let params = ConvParams::square(channels, channels, 3, 1);
    let input = vec![0.25f32; channels * size * size];
    let weight = vec![0.5f32; params.weight_len()];
    let prepared = prepare_winograd_weights(&params, 4, &weight);
    // Resolved before counting: the first call reads `MNN_SIMD` into a `String`.
    let kb = KernelBackend::active();
    let mut output = vec![f32::NAN; channels * size * size];
    let mut scratch = Scratch::new(winograd_scratch(&params, 4, 1, size, size));
    let before = ALLOCATIONS.with(Cell::get);
    conv2d_winograd_prepared_with(
        kb,
        &params,
        &prepared,
        1,
        1,
        size,
        size,
        &input,
        &[],
        &mut output,
        &mut scratch,
    );
    let after = ALLOCATIONS.with(Cell::get);
    assert!(output.iter().all(|v| v.is_finite()));
    after - before
}

#[test]
fn winograd_does_not_allocate() {
    // 4 tiles × 2 channels, and Tiny-CNN's 256 tiles × 16 channels, where each
    // tile of each channel once cost four `Vec`s.
    assert_eq!(allocations(2, 8), 0);
    assert_eq!(allocations(16, 64), 0);
}
