//! The compiled engine's allocation profile: conditioning a chunk must
//! allocate a bounded number of times however many elements it holds —
//! no per-element boxing, argument vectors or output regrowth. A counting
//! global allocator watches one thread at a time (armed per thread, so
//! sibling tests running in parallel do not pollute the count).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use codelet::Codelet;

struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// Count an allocation if this thread is armed. `try_with` because the
/// allocator also runs during thread teardown.
fn note() {
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            ALLOCS.with(|n| n.set(n.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations (and reallocations) `f` makes on this thread.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (usize, R) {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (ALLOCS.with(Cell::get), out)
}

/// Deterministic particle velocities with period 1024; about a fifth land
/// in [1.0, 1.4].
fn chunk(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i * 37 % 1024) as f64 / 512.0).collect()
}

#[test]
fn bounding_box_allocates_per_chunk_not_per_element() {
    let plugin = Codelet::compile(&codelet::plugins::bounding_box("v_par", 1.0, 1.4)).unwrap();
    let small = chunk(1024);
    let large = chunk(64 * 1024);

    let (small_allocs, out) = count_allocs(|| plugin.run_column("v_par", &small).unwrap());
    let small_selected = out.get_f64_array("v_par").unwrap().len();
    let (large_allocs, out) = count_allocs(|| plugin.run_column("v_par", &large).unwrap());
    let large_selected = out.get_f64_array("v_par").unwrap().len();

    assert!(large_selected > 10_000, "the chunk must exercise the kernel ({large_selected})");
    assert_eq!(large_selected, 64 * small_selected, "same selectivity at both sizes");
    assert!(large_allocs <= 32, "{large_allocs} allocations for one 64 Ki-element chunk");
    assert_eq!(
        large_allocs, small_allocs,
        "allocation count must not grow with the chunk ({small_allocs} at 1 Ki, \
         {large_allocs} at 64 Ki elements)"
    );
}
