//! The discrete-event simulation engine.
//!
//! An [`Engine`] owns a population of protocol nodes (any type implementing
//! [`Node`]), a deterministic event queue, the radio/energy models, and the
//! channel-reservation arbiter. Protocol code never touches the engine
//! directly: callbacks receive a [`Context`] through which they read local
//! state (time, own id/position/energy) and request actions (send, set
//! timers, reserve the channel). This enforces the paper's
//! *local-knowledge* discipline — a node can only learn about the network
//! through messages.
//!
//! This module is the **core** — clock, event queue, RNG, node arena,
//! dispatch, and the accessor and perturbation API. What an event *does*
//! lives in the submodules, as `impl Engine` functions called from one
//! place in one order (the module map is DESIGN.md §6.7).

use rand::rngs::StdRng;
use rand::SeedableRng;

use gs3_geometry::Point;
use gs3_telemetry::{tag_episode, Event, EventClass, RecorderMode, Telemetry, NO_TAG};

use crate::channel::ChannelManager;
use crate::faults::{FaultConfig, FaultState};
use crate::ids::NodeId;
use crate::medium::{ContentionConfig, MediumState, TxWindow};
use crate::queue::EventQueue;
use crate::radio::{EnergyModel, RadioModel};
use crate::time::{SimDuration, SimTime};
use crate::trace::{Counter, KindFolds, Trace};

mod arena;
mod effects;
#[cfg(test)]
mod fixtures;
mod flights;
mod inspect;
mod receive;
mod send;
mod timers;

pub use effects::{Context, Node, Payload};

use arena::Arena;
use effects::Action;
use flights::{Dest, Flights, Transmission};

#[derive(Debug, Clone)]
enum EventKind<T> {
    Start,
    /// One copy of the transmission `flight` arriving at the event target.
    Deliver { flight: u32 },
    Timer { timer_id: u64, timer: T },
    ChannelGrant,
    /// A carrier-sense-deferred frame retrying after backoff (contention
    /// only). The event target is the sender; the frame, addressee
    /// included, waits in the slab under `flight`.
    Resend { flight: u32, attempt: u32 },
}

impl<T> EventKind<T> {
    /// The transmission record this event holds a reference to, if any.
    fn flight(&self) -> Option<u32> {
        match *self {
            EventKind::Deliver { flight } | EventKind::Resend { flight, .. } => Some(flight),
            EventKind::Start | EventKind::Timer { .. } | EventKind::ChannelGrant => None,
        }
    }
}

/// A queue entry: who it is for and what happens. Everything a delivery
/// shares with the other copies of its frame lives in the
/// [`Transmission`] it points at, so the entry the queue stores (and its
/// far tier moves around) stays a few words wide (see
/// [`Engine::pending_event_bytes`]).
#[derive(Debug, Clone)]
struct PendingEvent<T> {
    to: NodeId,
    kind: EventKind<T>,
}

/// Errors reported by the engine API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The referenced node id does not exist.
    UnknownNode(NodeId),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownNode(id) => write!(f, "unknown node {id}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// The discrete-event simulator.
#[derive(Debug)]
pub struct Engine<N: Node> {
    radio: RadioModel,
    energy_model: EnergyModel,
    arena: Arena<N>,
    grid: crate::spatial::SpatialGrid,
    queue: EventQueue<PendingEvent<N::Timer>>,
    flights: Flights<N::Msg>,
    channel: ChannelManager,
    faults: FaultState,
    contention: ContentionConfig,
    medium: MediumState,
    rng: StdRng,
    trace: Trace,
    telemetry: Telemetry,
    now: SimTime,
    events_processed: u64,
    /// Reused across callbacks so the dispatch hot path allocates nothing.
    action_buf: Vec<Action<N::Msg, N::Timer>>,
    /// Reused across broadcasts: the receivers in range, with distances.
    recv_buf: Vec<(usize, f64)>,
    /// The digest's per-kind fold tables, built as kinds are first sent.
    kind_folds: KindFolds,
    /// Reused across channel releases for newly-granted owners.
    grant_buf: Vec<NodeId>,
}

// Everything the engine owns is `Send + Sync` whenever the protocol's node,
// message and timer types are: `run_grid` builds networks on worker
// threads and moves them across, and the sharded engine on the roadmap
// shares them. A `Cell`, `RefCell` or `Rc` anywhere under `Engine` — grid,
// queue, arena, medium, telemetry — fails this at compile time.
const _: () = {
    fn send_sync<T: Send + Sync>() {}
    #[allow(dead_code)] // never called: type-checking the body is the check
    fn engine<N: Node + Send + Sync>()
    where
        N::Msg: Send + Sync,
        N::Timer: Send + Sync,
    {
        send_sync::<Engine<N>>();
    }
};

/// Energy assigned when accounting is disabled.
const UNLIMITED_ENERGY: f64 = f64::INFINITY;

/// Cloning an engine forks the whole simulation — nodes, queue, RNG,
/// channel claims, fault state, trace, telemetry — into an independent
/// copy whose future is bit-identical to the original's until one of them
/// is perturbed. This is the model checker's state save/restore primitive.
/// The scratch buffers are not carried over (they are empty between
/// callbacks, which is the only time a clone can happen); the digest's
/// per-kind tables are, shared, so a fork does not build them again.
impl<N: Node + Clone> Clone for Engine<N> {
    fn clone(&self) -> Self {
        debug_assert_eq!(self.audit_transmissions(), Ok(()));
        Engine {
            radio: self.radio.clone(),
            energy_model: self.energy_model.clone(),
            arena: self.arena.clone(),
            grid: self.grid.clone(),
            queue: self.queue.clone(),
            flights: self.flights.clone(),
            channel: self.channel.clone(),
            faults: self.faults.clone(),
            contention: self.contention.clone(),
            medium: self.medium.clone(),
            rng: self.rng.clone(),
            trace: self.trace.clone(),
            telemetry: self.telemetry.clone(),
            now: self.now,
            events_processed: self.events_processed,
            action_buf: Vec::new(),
            recv_buf: Vec::new(),
            kind_folds: self.kind_folds.clone(),
            grant_buf: Vec::new(),
        }
    }
}

impl<N: Node> Engine<N> {
    /// Creates an engine with the given channel model, energy model, and
    /// RNG seed.
    #[must_use]
    pub fn new(radio: RadioModel, energy_model: EnergyModel, seed: u64) -> Self {
        let cell = radio.max_range.max(1.0);
        Engine {
            radio,
            energy_model,
            arena: Arena::new(),
            grid: crate::spatial::SpatialGrid::new(cell),
            queue: EventQueue::new(),
            flights: Flights::new(),
            channel: ChannelManager::new(),
            faults: FaultState::default(),
            contention: ContentionConfig::disabled(),
            medium: MediumState::default(),
            rng: StdRng::seed_from_u64(seed),
            trace: Trace::new(),
            telemetry: Telemetry::new(),
            now: SimTime::ZERO,
            events_processed: 0,
            action_buf: Vec::new(),
            recv_buf: Vec::new(),
            kind_folds: KindFolds::default(),
            grant_buf: Vec::new(),
        }
    }

    /// The channel model in use.
    #[must_use]
    pub fn radio(&self) -> &RadioModel {
        &self.radio
    }

    /// The live fault-injection state (adversarial channel + jams).
    #[must_use]
    pub fn faults(&self) -> &FaultState {
        &self.faults
    }

    /// Mutable access to the fault-injection state (start/stop jams,
    /// reconfigure mid-run).
    pub fn faults_mut(&mut self) -> &mut FaultState {
        &mut self.faults
    }

    /// Replaces the adversarial-channel configuration (jams and the
    /// burst-chain state are kept).
    pub fn set_fault_config(&mut self, config: FaultConfig) {
        self.faults.set_config(config);
    }

    /// The shared-medium contention configuration.
    #[must_use]
    pub fn contention(&self) -> &ContentionConfig {
        &self.contention
    }

    /// Replaces the shared-medium contention configuration. Enabling
    /// contention changes delivery schedules (and therefore digests); a
    /// disabled configuration draws no RNG, schedules no events, and
    /// reproduces the ideal-medium engine bit-for-bit.
    pub fn set_contention(&mut self, config: ContentionConfig) {
        self.contention = config;
    }

    /// The current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// High-water mark of the event queue (pending events at the worst
    /// instant so far).
    #[must_use]
    pub fn peak_queue_depth(&self) -> usize {
        self.queue.peak_len()
    }

    /// Run statistics.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The telemetry bundle: flight recorder and episode tracker.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Switches the flight-recorder mode (counters-only vs full ring
    /// capture). Recording is pure observation: enabling it leaves the
    /// scheduled-delivery digest bit-identical.
    pub fn set_recording(&mut self, mode: RecorderMode) {
        self.telemetry.recorder.set_mode(mode);
    }

    /// Counts one event of `class` at `node` and, only while the ring is
    /// recording, builds and stores it. `tag` names its episode: a frame's
    /// packed tag, or `None` for the one `node` is tainted by (looked up lazily).
    #[inline]
    fn record_event(
        &mut self,
        class: EventClass,
        node: NodeId,
        kind: &'static str,
        peer: u64,
        tag: Option<u64>,
        data: u64,
    ) {
        let (t_us, episodes) = (self.now.as_micros(), &self.telemetry.episodes);
        self.telemetry.recorder.record_with(class, || Event {
            t_us,
            node: node.raw(),
            class,
            kind,
            peer,
            episode: tag.map_or_else(|| episodes.episode_of(node.raw()), tag_episode),
            data,
        });
    }

    /// Spawns a node at `position`, booting immediately (its
    /// [`Node::on_start`] runs at the current time). Initial energy comes
    /// from the energy model (unlimited when accounting is disabled).
    pub fn spawn(&mut self, node: N, position: Point) -> NodeId {
        self.spawn_with_energy(node, position, None)
    }

    /// [`Self::spawn`] with an explicit energy budget (`None` = unlimited).
    pub fn spawn_with_energy(&mut self, node: N, position: Point, energy: Option<f64>) -> NodeId {
        let idx = self.arena.len();
        let id = NodeId::from_index(idx);
        self.grid.insert(idx, position);
        self.arena.push(node, position, energy.unwrap_or(UNLIMITED_ENERGY), self.now);
        self.queue.schedule(self.now, PendingEvent { to: id, kind: EventKind::Start });
        id
    }

    fn check(&self, id: NodeId) -> Result<usize, EngineError> {
        let idx = id.index();
        if idx < self.arena.len() { Ok(idx) } else { Err(EngineError::UnknownNode(id)) }
    }

    /// Immutable access to a node's protocol state (for inspection by
    /// harnesses and invariant checkers).
    pub fn node(&self, id: NodeId) -> Result<&N, EngineError> {
        self.check(id).map(|idx| &self.arena.nodes[idx])
    }

    /// Mutable access to a node's protocol state (used by harnesses to
    /// inject state corruption).
    pub fn node_mut(&mut self, id: NodeId) -> Result<&mut N, EngineError> {
        self.check(id).map(|idx| &mut self.arena.nodes[idx])
    }

    /// A node's current position.
    pub fn position(&self, id: NodeId) -> Result<Point, EngineError> {
        self.check(id).map(|idx| self.arena.positions[idx])
    }

    /// Schedules a crafted message for delivery to `to` after `after`,
    /// bypassing the radio model and the adversarial channel. Harness-level
    /// utility for replaying, duplicating, or forging messages in tests;
    /// the injected copy is not counted as a transmission and does not
    /// enter the trace digest.
    pub fn inject_message(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: N::Msg,
        after: SimDuration,
    ) -> Result<(), EngineError> {
        self.check(to)?;
        let flight = self.flights.open(Transmission {
            from,
            msg,
            tag: NO_TAG,
            tx: TxWindow::NONE,
            dest: Dest::Node(to),
            refs: 1,
        });
        self.queue.schedule(self.now + after, PendingEvent { to, kind: EventKind::Deliver { flight } });
        Ok(())
    }

    /// Schedules a crafted timer to fire on `to` after `after`, as if the
    /// node had armed it itself. Harness-level utility for testing handler
    /// robustness against stale or forged deadlines (e.g. a retransmission
    /// timer surviving a config that never arms one).
    pub fn inject_timer(
        &mut self,
        to: NodeId,
        timer: N::Timer,
        after: SimDuration,
    ) -> Result<(), EngineError> {
        self.check(to)?;
        self.arm_timer(to, after, timer);
        Ok(())
    }

    /// Teleports a node (mobility is modeled as a sequence of such steps
    /// driven by the harness).
    pub fn set_position(&mut self, id: NodeId, position: Point) -> Result<(), EngineError> {
        let idx = self.check(id)?;
        let old = self.arena.positions[idx];
        // The grid holds the alive nodes only (`kill` removes).
        if self.arena.alive[idx] {
            self.grid.relocate(idx, old, position);
        }
        self.arena.positions[idx] = position;
        Ok(())
    }

    /// Whether a node is alive (spawned and not powered off/dead).
    pub fn is_alive(&self, id: NodeId) -> Result<bool, EngineError> {
        self.check(id).map(|idx| self.arena.alive[idx])
    }

    /// A node's remaining energy.
    pub fn energy(&self, id: NodeId) -> Result<f64, EngineError> {
        self.check(id).map(|idx| self.arena.energy[idx])
    }

    /// Overwrites a node's remaining energy (harness-level perturbation).
    /// Also resets the idle-drain settlement clock so the new budget is
    /// not retroactively drained for time already lived.
    pub fn set_energy(&mut self, id: NodeId, energy: f64) -> Result<(), EngineError> {
        let idx = self.check(id)?;
        self.arena.energy[idx] = energy;
        self.arena.energy_settled[idx] = self.now;
        Ok(())
    }

    /// Kills a node (fail-stop perturbation). Queued events to it are
    /// dropped at delivery time; its channel reservation is released.
    pub fn kill(&mut self, id: NodeId) -> Result<(), EngineError> {
        let idx = self.check(id)?;
        if !self.arena.alive[idx] {
            return Ok(());
        }
        self.arena.alive[idx] = false;
        self.grid.remove(idx, self.arena.positions[idx]);
        self.release_channel(id);
        Ok(())
    }

    /// All node ids ever spawned.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.arena.len()).map(NodeId::from_index)
    }

    /// Ids of currently-alive nodes.
    pub fn alive_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ids().filter(|id| self.arena.alive[id.index()])
    }

    /// Appends the ids of alive nodes within `radius` of `center` to `out`,
    /// in ascending id order, via the spatial grid (touches only the cells
    /// overlapping the disk, not the whole population).
    pub fn alive_in_disk_into(&self, center: Point, radius: f64, out: &mut Vec<NodeId>) {
        self.grid.disk_map_into(center, radius, out, |h, _| NodeId::from_index(h), |id| id.index());
    }

    /// Number of alive nodes.
    #[must_use]
    pub fn alive_count(&self) -> usize {
        self.arena.alive.iter().filter(|a| **a).count()
    }

    /// Total nodes ever spawned.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.arena.len()
    }

    /// Processes the single earliest pending event. Returns `false` when
    /// the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((at, ev)) = self.pop_and_prefetch(SimTime::MAX) else {
            return false;
        };
        self.process(at, ev);
        true
    }

    /// Pops the earliest event unless it fires after `deadline`, and starts
    /// pulling the state of the event behind it into cache, so those loads
    /// overlap this one's dispatch instead of stalling the next (DESIGN.md
    /// §6.8). The one pop of every run loop; the hint changes no state.
    fn pop_and_prefetch(&mut self, deadline: SimTime) -> Option<(SimTime, PendingEvent<N::Timer>)> {
        let popped = self.queue.pop_at_or_before(deadline)?;
        if let Some((_, next)) = self.queue.peek() {
            self.arena.prefetch(next.to.index(), self.energy_model.idle != 0.0);
        }
        Some(popped)
    }

    /// Advances the clock to a just-popped event and dispatches it.
    fn process(&mut self, at: SimTime, ev: PendingEvent<N::Timer>) {
        debug_assert!(at >= self.now, "event queue went backwards");
        self.now = at;
        self.events_processed += 1;
        self.dispatch(ev);
    }

    /// Hands an event to its stage — unless the target is dead, or dies
    /// settling its idle drain now: then so does the event's hold on a frame.
    fn dispatch(&mut self, ev: PendingEvent<N::Timer>) {
        let to = ev.to;
        let alive = self.arena.alive.get(to.index()).copied().unwrap_or(false);
        if !alive || self.settle_idle(to) {
            if let Some(flight) = ev.kind.flight() {
                self.flights.release(flight);
            }
            return;
        }
        match ev.kind {
            EventKind::Start => self.with_ctx(to, |node, ctx| node.on_start(ctx)),
            EventKind::Deliver { flight } => self.receive(to, flight),
            EventKind::Timer { timer_id, timer } => self.fire_timer(to, timer_id, timer),
            EventKind::ChannelGrant => self.with_ctx(to, |node, ctx| node.on_channel_granted(ctx)),
            EventKind::Resend { flight, attempt } => self.resend(flight, attempt),
        }
    }

    /// Runs until the queue is exhausted or the clock passes `deadline`.
    /// Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut n = 0;
        while let Some((at, ev)) = self.pop_and_prefetch(deadline) {
            self.process(at, ev);
            n += 1;
        }
        // Advance the clock to the deadline even if the queue drained early,
        // so back-to-back run_for calls measure wall simulation time.
        if self.now < deadline {
            self.now = deadline;
        }
        n
    }

    /// Runs for `span` of simulated time from now.
    pub fn run_for(&mut self, span: SimDuration) -> u64 {
        let deadline = self.now + span;
        self.run_until(deadline)
    }

    /// Runs until the event queue drains completely, returning the time of
    /// the last processed event — the exact quiescence instant (useful for
    /// measuring the convergence of one-shot protocols like GS³-S). Returns
    /// `None` when the queue is still non-empty at `deadline` (recurring
    /// timers never quiesce).
    pub fn run_until_quiescent(&mut self, deadline: SimTime) -> Option<SimTime> {
        while let Some((at, ev)) = self.pop_and_prefetch(deadline) {
            self.process(at, ev);
        }
        // The clock stands at the last processed event.
        self.queue.is_empty().then_some(self.now)
    }

    /// True when no events are pending.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.queue.is_empty()
    }

    /// Firing time of the earliest pending event, if any. The model
    /// checker uses this to detect step boundaries (crash-injection
    /// points) and horizon crossings without popping the queue.
    #[must_use]
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Width of one event-queue entry's payload in bytes: what the queue
    /// stores per pending event, beside its own `(at, seq)` key.
    #[must_use]
    pub const fn pending_event_bytes() -> usize {
        std::mem::size_of::<PendingEvent<N::Timer>>()
    }

    /// Width of one node's timer row in bytes: what the arena holds per
    /// node for up to two pending timers, before any overflow.
    #[must_use]
    pub const fn timer_row_bytes() -> usize {
        std::mem::size_of::<timers::TimerRow<N::Timer>>()
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::{line_engine, Flood};
    use super::*;

    #[test]
    fn flood_reaches_connected_line() {
        let (mut eng, ids) = line_engine(10, 50.0);
        eng.run_until(SimTime::from_micros(10_000_000));
        for (i, id) in ids.iter().enumerate() {
            let heard = eng.node(*id).unwrap().heard;
            assert_eq!(heard, Some(i as u32), "node {i}");
        }
    }

    #[test]
    fn flood_does_not_cross_partition() {
        // Node 5 onward are placed beyond radio range of the first group.
        let mut eng = Engine::new(RadioModel::ideal(100.0), EnergyModel::disabled(), 1);
        let mut ids = Vec::new();
        for i in 0..5 {
            ids.push(eng.spawn(Flood::default(), Point::new(f64::from(i) * 50.0, 0.0)));
        }
        for i in 0..3 {
            ids.push(eng.spawn(Flood::default(), Point::new(1000.0 + f64::from(i) * 50.0, 0.0)));
        }
        eng.run_until(SimTime::from_micros(10_000_000));
        assert!(eng.node(ids[4]).unwrap().heard.is_some());
        for id in &ids[5..] {
            assert!(eng.node(*id).unwrap().heard.is_none());
        }
    }

    #[test]
    fn dead_nodes_do_not_receive() {
        let (mut eng, ids) = line_engine(3, 25.0);
        eng.kill(ids[1]).unwrap();
        eng.run_until(SimTime::from_micros(10_000_000));
        assert_eq!(eng.node(ids[1]).unwrap().heard, None);
        // Node 2 is 50m from node 0 — within the 60m flood radius, so it
        // hears node 0 directly despite node 1 being dead.
        assert_eq!(eng.node(ids[2]).unwrap().heard, Some(1));
        assert_eq!(eng.alive_count(), 2);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let (mut eng, _) = line_engine(20, 40.0);
            let _ = seed;
            eng.run_until(SimTime::from_micros(5_000_000));
            (eng.trace().clone(), eng.events_processed())
        };
        let (t1, e1) = run(1);
        let (t2, e2) = run(1);
        assert_eq!(t1, t2);
        assert_eq!(e1, e2);
    }

    #[test]
    fn run_for_advances_clock_even_when_idle() {
        let mut eng: Engine<Flood> = Engine::new(RadioModel::ideal(10.0), EnergyModel::disabled(), 1);
        eng.run_for(SimDuration::from_secs(5));
        assert_eq!(eng.now(), SimTime::from_micros(5_000_000));
    }

    #[test]
    fn set_position_moves_node() {
        let (mut eng, ids) = line_engine(2, 30.0);
        eng.set_position(ids[1], Point::new(5000.0, 0.0)).unwrap();
        assert_eq!(eng.position(ids[1]).unwrap(), Point::new(5000.0, 0.0));
    }

    #[test]
    fn unknown_node_errors() {
        let eng: Engine<Flood> = Engine::new(RadioModel::ideal(10.0), EnergyModel::disabled(), 1);
        assert!(matches!(eng.node(NodeId::new(7)), Err(EngineError::UnknownNode(_))));
        let msg = format!("{}", EngineError::UnknownNode(NodeId::new(7)));
        assert!(msg.contains("n7"));
    }

    #[test]
    fn recording_leaves_stream_bit_identical() {
        // The flight recorder is pure observation: full-ring capture must
        // replay the exact digest and event count of a counters-only run.
        let run = |record: bool| {
            let (mut eng, _) = line_engine(20, 40.0);
            if record {
                eng.set_recording(RecorderMode::Full { capacity: 4096 });
            }
            eng.run_until(SimTime::from_micros(5_000_000));
            (eng.trace().digest(), eng.events_processed())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn counters_mode_counts_without_storing() {
        let (mut eng, _) = line_engine(5, 40.0);
        eng.run_until(SimTime::from_micros(5_000_000));
        let rec = &eng.telemetry().recorder;
        assert!(rec.total() > 0);
        assert!(rec.is_empty(), "counters mode stores no events");
        assert_eq!(rec.of_class(EventClass::Delivery), eng.trace().deliveries());
    }

    #[test]
    fn full_mode_captures_bounded_ring() {
        let (mut eng, _) = line_engine(10, 50.0);
        eng.set_recording(RecorderMode::Full { capacity: 4 });
        eng.run_until(SimTime::from_micros(5_000_000));
        let rec = &eng.telemetry().recorder;
        assert!(rec.len() <= 4);
        assert_eq!(rec.total(), rec.len() as u64 + rec.dropped());
    }
}
