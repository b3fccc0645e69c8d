//! Allocation guards for four hot paths: polling an unchanged structure,
//! arming and firing timers in steady state, cycling entries through
//! every tier of a warm event queue, and sending, counting and recording
//! by label, must not touch the heap; and a new event queue and a new
//! engine, built once per network, allocate a pinned number of times. A
//! counting global allocator tallies the calling thread's allocations
//! around each.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gs3::core::harness::{Network, NetworkBuilder};
use gs3::core::Mode;
use gs3::geometry::Point;
use gs3::sim::queue::EventQueue;
use gs3::sim::radio::{EnergyModel, RadioModel};
use gs3::sim::telemetry::RecorderMode;
use gs3::sim::trace::Counter;
use gs3::sim::{Context, Engine, Node, NodeId, Payload, SimDuration, SimTime};

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

/// A new queue allocates its wheels' slot tables and nothing else: the
/// near wheel's tails, and the mid and far wheels' tails and least-key
/// offsets. Its one pool and the near wheel's slab start empty, so that a
/// network's set-up pays for no entries before it schedules any.
#[test]
fn a_new_event_queue_allocates_only_its_slot_tables() {
    let mut q = None;
    let n = allocations(|| q = Some(EventQueue::<u64>::new()));
    assert_eq!(n, 5, "EventQueue::new allocated {n} times");
    assert!(q.is_some_and(|q| q.is_empty()));
}

/// Once the queue's slab and pool have grown to the population, a cycle
/// that files entries in each tier — near wheel, mid wheel, far wheel,
/// heap — and pops them all allocates nothing: every entry that leaves a
/// list hands its room to the next.
#[test]
fn a_warm_event_queue_cycles_through_every_tier_without_allocating() {
    let (mut q, mut now) = (EventQueue::new(), SimTime::ZERO);
    let mut cycle = |q: &mut EventQueue<u64>| {
        for (i, delta_us) in [1_000u64, 20_000, 1_000_000, 20_000_000].into_iter().enumerate() {
            for k in 0..50 {
                q.schedule(now + SimDuration::from_micros(delta_us + k), i as u64);
            }
        }
        let mut popped = [0; 4];
        while let Some((at, tier)) = q.pop() {
            now = at;
            popped[tier as usize] += 1;
        }
        assert_eq!(popped, [50; 4]);
    };
    cycle(&mut q);
    let n = allocations(|| (0..4).for_each(|_| cycle(&mut q)));
    assert_eq!(n, 0, "four warm cycles allocated {n} times");
}

/// A new engine allocates its queue's slot tables and nothing else, as
/// before labels had ids: the trace's rows, the digest's fold tables and
/// the label caches all fill on first use.
#[test]
fn a_new_engine_allocates_no_label_tables() {
    let mut eng = None;
    let (radio, energy) = (RadioModel::ideal(100.0), EnergyModel::disabled());
    let n = allocations(|| eng = Some(Engine::<Ticker>::new(radio, energy, 1)));
    assert_eq!(n, ENGINE_NEW_ALLOCATIONS, "Engine::new allocated {n} times");
    assert!(eng.is_some_and(|e| e.trace().sent_by_kind().is_empty()));
}

/// What `Engine::new` allocated when the trace kept name-keyed maps: the
/// five of [`a_new_event_queue_allocates_only_its_slot_tables`].
const ENGINE_NEW_ALLOCATIONS: u64 = 5;

#[derive(Clone, Debug)]
struct Note(&'static str);

impl Payload for Note {
    fn kind(&self) -> &'static str {
        self.0
    }
}

/// Every 5 ms: a unicast to the next node and a broadcast, each of one
/// of three kinds, two protocol counter bumps, and a recorder event; and
/// a counter bump per message heard.
#[derive(Debug, Default)]
struct Talker {
    ticks: u64,
}

impl Node for Talker {
    type Msg = Note;
    type Timer = ();

    fn on_start(&mut self, ctx: &mut Context<'_, Note, ()>) {
        ctx.set_timer(SimDuration::from_millis(5), ());
    }

    fn on_message(&mut self, _: NodeId, _: Note, ctx: &mut Context<'_, Note, ()>) {
        ctx.count("heard");
    }

    fn on_timer(&mut self, (): (), ctx: &mut Context<'_, Note, ()>) {
        self.ticks += 1;
        let kind = ["alpha", "beta", "gamma"][(self.ticks % 3) as usize];
        ctx.unicast(NodeId::new((ctx.id().raw() + 1) % 20), Note(kind));
        ctx.broadcast(30.0, Note(kind));
        ctx.count("ticks");
        ctx.count_by("tick_weight", 2);
        ctx.event("tick", self.ticks);
        ctx.set_timer(SimDuration::from_millis(5), ());
    }
}

/// Once every label has its id and every row its length, sending,
/// delivering, counting by kind and by protocol name, and recording into
/// a wrapped ring allocate nothing.
#[test]
fn a_warm_send_count_and_record_cycle_allocates_nothing() {
    let mut eng = Engine::new(RadioModel::ideal(100.0), EnergyModel::disabled(), 1);
    eng.set_recording(RecorderMode::Full { capacity: 1_000 });
    for i in 0..20 {
        eng.spawn(Talker::default(), Point::new(f64::from(i) * 10.0, 0.0));
    }
    eng.run_for(SimDuration::from_secs(2));
    let t = eng.trace();
    let (sent, heard, recorded) = (t.total_sent(), t.proto("heard"), eng.telemetry().recorder.total());
    let n = allocations(|| {
        eng.run_for(SimDuration::from_secs(2));
    });
    let t = eng.trace();
    assert!(t.total_sent() >= sent + 2 * 20 * 390 && t.proto("heard") > heard, "the nodes kept talking");
    assert_eq!(t.sent_by_kind().len(), 3);
    let rec = &eng.telemetry().recorder;
    assert!(rec.total() > recorded + 20 * 390 && rec.dropped() > 0, "the ring kept recording, full");
    assert_eq!(n, 0, "2 s of warm sends, counts and records allocated {n} times");
}
