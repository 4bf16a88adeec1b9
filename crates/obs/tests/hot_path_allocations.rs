//! The registry hot path allocates nothing: `Counter::inc/add`,
//! `Gauge::set` and `Histogram::record` are plain atomics, so the
//! group-commit loop and the pipelined request path can call them on
//! every record.  Checked with a counting global allocator.

use cqfit_obs::Registry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap allocations made by the current thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: delegates verbatim to the system allocator; the per-thread
// counter is a const-initialised `Cell` and never allocates itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations the current thread makes while running `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn registry_hot_path_allocates_nothing() {
    let registry = Registry::new();
    // The counter does see allocations made under it.
    assert!(allocations(|| drop(std::hint::black_box(vec![0u8; 16]))) >= 1);
    let allocs = allocations(|| {
        for i in 0..10_000u64 {
            registry.engine_requests.inc();
            registry.store_appends_acked.add(i);
            registry.server_pipeline_depth.set(i as i64);
            registry.store_append_ns.record(i * 1_000);
            registry.server_request_ns.record(u64::MAX - i);
        }
    });
    assert_eq!(allocs, 0, "the registry hot path allocated");
    assert_eq!(registry.engine_requests.get(), 10_000);
    assert_eq!(registry.store_append_ns.snapshot().count, 10_000);
}
