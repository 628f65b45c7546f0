//! Attaching a trace id to a histogram observation allocates nothing: the id
//! is stored as a `u128` and formatted only when `/metrics` renders.
//!
//! A binary of its own, because it installs a counting global allocator.

use mnn_obs::Registry;
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

#[test]
fn observe_with_exemplar_allocates_nothing() {
    let registry = Registry::new();
    let histogram = registry.histogram("alloc_ms", "m", &[1.0, 5.0]);

    let before = ALLOCATIONS.with(Cell::get);
    for (i, value) in [0.5, 3.0, 99.0, 2.0].into_iter().enumerate() {
        histogram.observe_with_exemplar(value, 0x0af7651916cd43dd8448eb211c80319c + i as u128);
    }
    let allocations = ALLOCATIONS.with(Cell::get) - before;

    assert_eq!(allocations, 0);
    assert_eq!(histogram.count(), 4);
    let text = registry.render_prometheus();
    assert!(
        text.contains(
            "alloc_ms_bucket{le=\"5\"} 3 # {trace_id=\"0af7651916cd43dd8448eb211c80319f\"} 2\n"
        ),
        "{text}"
    );
}
