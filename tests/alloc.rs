//! Allocation guards for two hot paths: polling an unchanged structure,
//! and arming and firing timers in steady state, must not touch the heap.
//! A counting global allocator tallies the calling thread's allocations
//! around each.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gs3::core::harness::{Network, NetworkBuilder};
use gs3::core::Mode;
use gs3::geometry::Point;
use gs3::sim::radio::{EnergyModel, RadioModel};
use gs3::sim::trace::Counter;
use gs3::sim::{Context, Engine, Node, NodeId, Payload, SimDuration};

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

#[derive(Clone, Debug)]
struct Quiet;

impl Payload for Quiet {}

/// Keeps two timers pending, the timer row's inline capacity: a 5 ms
/// tick that goes through the wheel, and a 2 s watch that goes through the
/// coarse tier and that every tenth tick cancels and re-arms.
#[derive(Debug, Default)]
struct Ticker {
    ticks: u64,
}

impl Node for Ticker {
    type Msg = Quiet;
    type Timer = bool;

    fn on_start(&mut self, ctx: &mut Context<'_, Quiet, bool>) {
        ctx.set_timer(SimDuration::from_millis(5), false);
        ctx.set_timer(SimDuration::from_secs(2), true);
    }

    fn on_message(&mut self, _: NodeId, _: Quiet, _: &mut Context<'_, Quiet, bool>) {}

    fn on_timer(&mut self, watch: bool, ctx: &mut Context<'_, Quiet, bool>) {
        if watch {
            ctx.set_timer(SimDuration::from_secs(2), true);
            return;
        }
        self.ticks += 1;
        if self.ticks % 10 == 0 {
            ctx.cancel_timers(true);
            ctx.set_timer(SimDuration::from_secs(2), true);
        }
        ctx.set_timer(SimDuration::from_millis(5), false);
    }
}

/// Once the queue's slab and bundle pool have grown to the population,
/// arming, cancelling and firing timers that fit in each node's row
/// allocate nothing.
#[test]
fn steady_state_timers_within_the_row_allocate_nothing() {
    let mut eng = Engine::new(RadioModel::ideal(100.0), EnergyModel::disabled(), 1);
    for i in 0..50 {
        eng.spawn(Ticker::default(), Point::new(f64::from(i), 0.0));
    }
    eng.run_for(SimDuration::from_secs(10));
    let fired = eng.trace().get(Counter::TimersFired);
    let n = allocations(|| {
        eng.run_for(SimDuration::from_secs(10));
    });
    assert!(eng.trace().get(Counter::TimersFired) > fired + 50 * 1_900, "the timers kept firing");
    assert_eq!(n, 0, "10 s of steady-state timers allocated {n} times");
}
