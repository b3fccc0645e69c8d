//! Allocation guard for the oracle's hot path: polling an unchanged
//! structure must not touch the heap. A counting global allocator tallies
//! the calling thread's allocations around each poll.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gs3::core::harness::{Network, NetworkBuilder};
use gs3::core::Mode;
use gs3::sim::SimDuration;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`; `ptr` came from this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// A configured Dynamic field: heads and associates keep beating.
fn configured() -> Network {
    let mut net = NetworkBuilder::new()
        .mode(Mode::Dynamic)
        .ideal_radius(40.0)
        .radius_tolerance(14.0)
        .area_radius(200.0)
        .expected_nodes(400)
        .seed(11)
        .build()
        .unwrap();
    net.run_to_fixpoint();
    net
}

/// With no engine step in between, a second view and invariant check
/// refill the snapshot in place, skip the index update and reuse the
/// verdict: nothing is allocated.
#[test]
fn repeated_poll_of_an_unchanged_network_allocates_nothing() {
    let mut net = configured();
    assert!(net.check_invariants_incremental().is_empty(), "the configured field is clean");
    let n = allocations(|| {
        let _ = net.view();
        assert!(net.check_invariants_incremental().is_empty());
    });
    assert_eq!(n, 0, "second view + check allocated {n} times");
    assert!(allocations(|| drop(net.snapshot())) > 0, "the counter sees a fresh snapshot's allocations");
}

/// After steady-state simulation (heartbeats only), the view's in-place
/// refill allocates nothing, and the engine really ran in between.
#[test]
fn view_after_steady_state_running_allocates_nothing() {
    let mut net = configured();
    let _ = net.view();
    let events = net.engine().events_processed();
    net.run_for(SimDuration::from_secs(30));
    assert!(net.engine().events_processed() > events + 1000, "heartbeats ran");
    let n = allocations(|| {
        let _ = net.view();
    });
    assert_eq!(n, 0, "view after a steady-state run allocated {n} times");
}
