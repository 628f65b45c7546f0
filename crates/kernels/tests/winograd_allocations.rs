//! A Winograd convolution's allocation count must not depend on how many
//! tiles or channels it processes: its buffers are sized once per call (and
//! once per worker), never per tile or per channel.
//!
//! This file holds one test so that the counting allocator sees no other
//! test's traffic on its thread.

use mnn_kernels::conv::ConvParams;
use mnn_kernels::simd::KernelBackend;
use mnn_kernels::winograd::{conv2d_winograd_prepared_with, prepare_winograd_weights};
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
    let before = ALLOCATIONS.with(Cell::get);
    let output =
        conv2d_winograd_prepared_with(kb, &params, &prepared, 1, 1, size, size, &input, &[]);
    let after = ALLOCATIONS.with(Cell::get);
    assert_eq!(output.len(), channels * size * size);
    after - before
}

#[test]
fn winograd_allocations_do_not_scale_with_tiles_or_channels() {
    // 4 tiles × 2 channels vs Tiny-CNN's 256 tiles × 16 channels, where each
    // tile of each channel used to cost four `Vec`s.
    let small = allocations(2, 8);
    let large = allocations(16, 64);
    assert_eq!(small, large, "allocation count depends on the geometry");
    assert!(large <= 16, "{large} allocations in one Winograd call");
}
