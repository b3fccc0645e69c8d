//! The discrete-event simulation engine.
//!
//! An [`Engine`] owns a population of protocol nodes (any type implementing
//! [`Node`]), a deterministic event queue, the radio/energy models, and the
//! channel-reservation arbiter. Protocol code never touches the engine
//! directly: callbacks receive a [`Context`] through which they read local
//! state (time, own id/position/energy) and request actions (send, set
//! timers, reserve the channel, power off). This enforces the paper's
//! *local-knowledge* discipline — a node can only learn about the network
//! through messages.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gs3_geometry::Point;
use gs3_telemetry::{tag_episode, Event, EventClass, RecorderMode, Telemetry, NO_PEER, NO_TAG};

use crate::channel::ChannelManager;
use crate::faults::{Fate, FaultConfig, FaultState};
use crate::ids::NodeId;
use crate::medium::{ContentionConfig, MediumState, TxWindow};
use crate::queue::EventQueue;
use crate::radio::{EnergyModel, RadioModel};
use crate::time::{SimDuration, SimTime};
use crate::trace::{KindFolds, Trace};

/// A message payload carried by the simulated radio.
///
/// `kind` labels the message for the per-kind trace counters (e.g. `"org"`,
/// `"head_intra_alive"`).
pub trait Payload: Clone + std::fmt::Debug {
    /// A short static label for trace accounting.
    fn kind(&self) -> &'static str {
        "message"
    }

    /// Size of this message on the wire, in bits — divided by the radio
    /// bitrate to obtain frame airtime when shared-medium contention is
    /// enabled (ignored otherwise). The default suits small control
    /// messages; protocols override it per variant.
    fn wire_bits(&self) -> u64 {
        512
    }
}

/// A protocol state machine hosted by the engine.
pub trait Node {
    /// The message type this protocol exchanges.
    type Msg: Payload;
    /// The timer payload type; `PartialEq` enables cancellation by value.
    type Timer: Clone + std::fmt::Debug + PartialEq;

    /// Called once when the node boots (at its spawn time).
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Timer>);

    /// Called for every delivered message.
    fn on_message(
        &mut self,
        from: NodeId,
        msg: Self::Msg,
        ctx: &mut Context<'_, Self::Msg, Self::Timer>,
    );

    /// Called when a timer set via [`Context::set_timer`] fires (unless
    /// cancelled).
    fn on_timer(&mut self, timer: Self::Timer, ctx: &mut Context<'_, Self::Msg, Self::Timer>);

    /// Called when a channel reservation requested via
    /// [`Context::reserve_channel`] is granted.
    fn on_channel_granted(&mut self, _ctx: &mut Context<'_, Self::Msg, Self::Timer>) {}
}

/// Deferred effects a node callback requests.
#[derive(Debug, Clone)]
enum Action<M, T> {
    Unicast { to: NodeId, msg: M },
    Broadcast { radius: f64, msg: M },
    SetTimer { after: SimDuration, timer: T },
    CancelTimers { timer: T },
    ReserveChannel { radius: f64 },
    ReleaseChannel,
    PowerOff,
    Count { name: &'static str, by: u64 },
    Event { kind: &'static str, data: u64 },
}

/// The per-callback view a node gets of itself and the world.
#[derive(Debug)]
pub struct Context<'a, M, T> {
    now: SimTime,
    id: NodeId,
    position: Point,
    energy: f64,
    holds_channel: bool,
    record_events: bool,
    mac_events: u64,
    rng: &'a mut StdRng,
    actions: &'a mut Vec<Action<M, T>>,
}

impl<M, T> Context<'_, M, T> {
    /// The current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's identity.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// This node's current position (the paper assumes effective relative
    /// localization; see DESIGN.md).
    #[must_use]
    pub fn position(&self) -> Point {
        self.position
    }

    /// This node's remaining energy (∞-like large value when accounting is
    /// disabled).
    #[must_use]
    pub fn energy(&self) -> f64 {
        self.energy
    }

    /// True when this node currently holds a channel reservation.
    #[must_use]
    pub fn holds_channel(&self) -> bool {
        self.holds_channel
    }

    /// Cumulative MAC contention events observed at this node:
    /// carrier-sense deferrals, backoff-exhausted drops, and frames
    /// corrupted by collision. The local congestion signal that
    /// graceful-degradation policies poll (a rising delta between polls
    /// means the neighborhood is congested). Always 0 while contention is
    /// disabled and no collision fate is scripted.
    #[must_use]
    pub fn mac_events(&self) -> u64 {
        self.mac_events
    }

    /// The deterministic per-engine RNG (for protocol-level jitter).
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Sends `msg` reliably to `to` (delivered unless `to` is dead or out
    /// of radio range).
    pub fn unicast(&mut self, to: NodeId, msg: M) {
        self.actions.push(Action::Unicast { to, msg });
    }

    /// Broadcasts `msg` to every node within `radius` (clamped to the radio
    /// maximum); each copy is subject to the broadcast loss rate.
    pub fn broadcast(&mut self, radius: f64, msg: M) {
        self.actions.push(Action::Broadcast { radius, msg });
    }

    /// Schedules `timer` to fire `after` from now.
    pub fn set_timer(&mut self, after: SimDuration, timer: T) {
        self.actions.push(Action::SetTimer { after, timer });
    }

    /// Cancels every pending timer of this node whose payload equals
    /// `timer`.
    pub fn cancel_timers(&mut self, timer: T) {
        self.actions.push(Action::CancelTimers { timer });
    }

    /// Requests an exclusive reservation of the disk of `radius` around
    /// this node's position. [`Node::on_channel_granted`] fires when
    /// granted (possibly immediately).
    pub fn reserve_channel(&mut self, radius: f64) {
        self.actions.push(Action::ReserveChannel { radius });
    }

    /// Releases this node's channel reservation (or cancels a queued
    /// request).
    pub fn release_channel(&mut self) {
        self.actions.push(Action::ReleaseChannel);
    }

    /// Powers this node off (fail-stop). Remaining actions from this
    /// callback are discarded.
    pub fn power_off(&mut self) {
        self.actions.push(Action::PowerOff);
    }

    /// Bumps the named protocol counter in the engine [`crate::Trace`] by
    /// one. Counters let protocol layers (e.g. reliable delivery) surface
    /// run statistics without holding engine state.
    pub fn count(&mut self, name: &'static str) {
        self.actions.push(Action::Count { name, by: 1 });
    }

    /// Bumps the named protocol counter by `by` (no-op when `by == 0`).
    pub fn count_by(&mut self, name: &'static str, by: u64) {
        if by > 0 {
            self.actions.push(Action::Count { name, by });
        }
    }

    /// Emits a structured protocol event into the engine flight recorder
    /// (kind label plus a free-form numeric payload). A no-op — not even
    /// an action push — unless full recording is enabled, so instrumented
    /// handlers cost nothing on ordinary runs. Events never influence the
    /// simulation: purely observational.
    pub fn event(&mut self, kind: &'static str, data: u64) {
        if self.record_events {
            self.actions.push(Action::Event { kind, data });
        }
    }
}

#[derive(Debug, Clone)]
enum EventKind<T> {
    Start,
    /// One copy of the transmission `flight` arriving at the event target.
    Deliver { flight: u32 },
    Timer { timer_id: u64, timer: T },
    ChannelGrant,
    /// A carrier-sense-deferred unicast retrying after backoff (the event
    /// target is the sender; only scheduled while contention is enabled).
    /// The frame waits in the slab under `flight`.
    ResendUnicast { flight: u32, to: NodeId, attempt: u32 },
    /// A carrier-sense-deferred broadcast retrying after backoff.
    ResendBroadcast { flight: u32, radius: f64, attempt: u32 },
}

impl<T> EventKind<T> {
    /// The transmission record this event holds a reference to, if any.
    fn flight(&self) -> Option<u32> {
        match *self {
            EventKind::Deliver { flight }
            | EventKind::ResendUnicast { flight, .. }
            | EventKind::ResendBroadcast { flight, .. } => Some(flight),
            EventKind::Start | EventKind::Timer { .. } | EventKind::ChannelGrant => None,
        }
    }
}

/// A queue entry: who it is for and what happens. Everything a delivery
/// shares with the other copies of its frame lives in the
/// [`Transmission`] it points at, so the entry the radix queue moves
/// around stays a few words wide (see [`Engine::pending_event_bytes`]).
#[derive(Debug, Clone)]
struct PendingEvent<T> {
    to: NodeId,
    kind: EventKind<T>,
}

/// One frame on the air — or parked between carrier-sense retries —
/// shared by every queued copy of it.
#[derive(Debug, Clone)]
struct Transmission<M> {
    from: NodeId,
    msg: M,
    /// Packed healing-episode tag ([`gs3_telemetry::pack_tag`]); 0 = none.
    /// Rides the record so causal attribution needs no RNG and no extra
    /// scheduling — the digest stream is untouched by telemetry.
    tag: u64,
    /// The frame's airtime window ([`TxWindow::NONE`] unless contention is
    /// enabled), consulted at delivery time for receiver-side collision
    /// detection. Like `tag`, excluded from every determinism hash.
    tx: TxWindow,
    /// Unicast (taint-propagating) rather than ambient broadcast.
    directed: bool,
    /// Queued events referencing this record, plus the sender's own hold
    /// while it is still scheduling copies.
    refs: u32,
}

/// The live [`Transmission`]s: an index slab with a LIFO free list. Slot
/// indices are handles, not identities — they depend on release order, so
/// no hash or digest ever folds one.
#[derive(Debug, Clone)]
struct Flights<M> {
    slots: Vec<Option<Transmission<M>>>,
    free: Vec<u32>,
}

impl<M> Flights<M> {
    fn open(&mut self, t: Transmission<M>) -> u32 {
        if let Some(flight) = self.free.pop() {
            self.slots[flight as usize] = Some(t);
            return flight;
        }
        let flight = u32::try_from(self.slots.len()).expect("fewer than 2^32 frames in flight");
        self.slots.push(Some(t));
        flight
    }

    fn get(&self, flight: u32) -> &Transmission<M> {
        self.slots[flight as usize].as_ref().expect("a queued event references a live record")
    }

    fn retain(&mut self, flight: u32) {
        self.slots[flight as usize].as_mut().expect("retaining a live record").refs += 1;
    }

    /// Drops one reference; hands the record back when it was the last.
    fn release(&mut self, flight: u32) -> Option<Transmission<M>> {
        let slot = &mut self.slots[flight as usize];
        let t = slot.as_mut().expect("releasing a live record");
        t.refs -= 1;
        if t.refs > 0 {
            return None;
        }
        self.free.push(flight);
        slot.take()
    }

    /// Releases one reference and yields the message by value: moved out
    /// when this was the last reference, cloned otherwise.
    fn take_msg(&mut self, flight: u32) -> M
    where
        M: Clone,
    {
        match self.release(flight) {
            Some(t) => t.msg,
            None => self.get(flight).msg.clone(),
        }
    }

    fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

/// Dense per-node storage in structure-of-arrays layout, indexed by
/// [`NodeId::index`] (ids are spawn ranks, so the columns are append-only
/// and never reindex).
///
/// The split is by access temperature: `positions`/`alive`/`energy` are
/// the *hot* columns — every dispatch and energy charge reads them, one
/// node at a time, and packing them densely keeps those reads in cache
/// instead of striding over the full protocol state. (A broadcast picks
/// its receivers from the spatial grid, which carries its own copy of the
/// alive nodes' positions, and does not come here.) `nodes` is the
/// *cold* column (the protocol state machine, by far the widest field),
/// touched only when a callback actually runs. `pending_timers` sits in
/// between: consulted on timer dispatch and set/cancel.
#[derive(Debug, Clone)]
struct Arena<N: Node> {
    /// Cold: the protocol state machines.
    nodes: Vec<N>,
    /// Hot: current positions.
    positions: Vec<Point>,
    /// Hot: liveness flags.
    alive: Vec<bool>,
    /// Hot: remaining energy.
    energy: Vec<f64>,
    /// Warm: live (id, payload) timer pairs, sorted by id (ids are handed
    /// out in increasing order and removals preserve order). A timer event
    /// whose id is absent here was cancelled — no separate cancelled-id
    /// list to grow or drain: cancellation *is* removal, and the stale
    /// queue entry identifies itself by absence when it fires.
    pending_timers: Vec<Vec<(u64, N::Timer)>>,
    /// Warm: per-node MAC contention events (deferrals, backoff-exhausted
    /// drops, corrupted frames) — the local congestion signal surfaced via
    /// [`Context::mac_events`]. All zero while contention is disabled.
    mac_events: Vec<u64>,
    /// Hot while idle drain is on: when each node's idle-listening drain
    /// was last settled (lazy accounting — see
    /// [`EnergyModel::idle`](crate::radio::EnergyModel)). Untouched when
    /// `idle == 0.0`.
    energy_settled: Vec<SimTime>,
}

impl<N: Node> Arena<N> {
    fn new() -> Self {
        Arena {
            nodes: Vec::new(),
            positions: Vec::new(),
            alive: Vec::new(),
            energy: Vec::new(),
            pending_timers: Vec::new(),
            mac_events: Vec::new(),
            energy_settled: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Appends one node's row across every column; returns its index.
    fn push(&mut self, node: N, position: Point, energy: f64, now: SimTime) -> usize {
        let idx = self.nodes.len();
        self.nodes.push(node);
        self.positions.push(position);
        self.alive.push(true);
        self.energy.push(energy);
        self.pending_timers.push(Vec::new());
        self.mac_events.push(0);
        self.energy_settled.push(now);
        idx
    }
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
    next_timer_id: u64,
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
        debug_assert!(
            self.action_buf.is_empty() && self.recv_buf.is_empty() && self.grant_buf.is_empty()
        );
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
            next_timer_id: self.next_timer_id,
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
            flights: Flights { slots: Vec::new(), free: Vec::new() },
            channel: ChannelManager::new(),
            faults: FaultState::default(),
            contention: ContentionConfig::disabled(),
            medium: MediumState::default(),
            rng: StdRng::seed_from_u64(seed),
            trace: Trace::new(),
            telemetry: Telemetry::new(),
            now: SimTime::ZERO,
            next_timer_id: 0,
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

    /// The channel-reservation arbiter's live state (granted claims and
    /// the waiting queue) — read-only, for canonical state fingerprints.
    #[must_use]
    pub fn channel_state(&self) -> &ChannelManager {
        &self.channel
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
        config.validate();
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

    /// The telemetry bundle: flight recorder, episode tracker, metrics.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Mutable access to the telemetry bundle.
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }

    /// Switches the flight-recorder mode (counters-only vs full ring
    /// capture). Recording is pure observation: enabling it leaves the
    /// scheduled-delivery digest bit-identical.
    pub fn set_recording(&mut self, mode: RecorderMode) {
        self.telemetry.recorder.set_mode(mode);
    }

    /// Opens a healing episode at the current time; returns its id.
    /// Perturbation harnesses call this right before injecting a fault,
    /// then seed the taint set via [`Self::taint_episode_near`] /
    /// [`Self::taint_episode_node`].
    pub fn open_episode(&mut self, label: &'static str) -> u32 {
        self.telemetry.episodes.open(label, self.now.as_micros())
    }

    /// Registers `center` as a perturbation origin of `episode` and
    /// seed-taints every alive node within `radius` of it (the radio
    /// neighborhood that observes the perturbation first — e.g. the
    /// nodes who will notice a crashed head's silence).
    pub fn taint_episode_near(&mut self, episode: u32, center: Point, radius: f64) {
        self.telemetry.episodes.add_origin(episode, (center.x, center.y));
        let mut found = std::mem::take(&mut self.recv_buf);
        self.grid.disk_into(center, radius, &mut found);
        for &(h, _) in &found {
            self.telemetry.episodes.taint_node(episode, h as u64);
        }
        found.clear();
        self.recv_buf = found;
    }

    /// Seed-taints a single node for `episode` (e.g. a joining node or a
    /// corrupted-state victim that is itself alive and will send).
    pub fn taint_episode_node(&mut self, episode: u32, id: NodeId) {
        self.telemetry.episodes.taint_node(episode, id.raw());
    }

    /// Closes every open episode at the current time (the harness calls
    /// this when it observes the network healed), recording each healing
    /// latency into the metrics registry.
    pub fn close_episodes(&mut self) {
        if !self.telemetry.episodes.any_open() {
            return;
        }
        let t = self.now.as_micros();
        let latencies: Vec<u64> = self
            .telemetry
            .episodes
            .episodes()
            .iter()
            .filter(|e| e.closed_us.is_none())
            .map(|e| t.saturating_sub(e.opened_us))
            .collect();
        for l in latencies {
            self.telemetry.metrics.heal_latency_us.record(l);
        }
        self.telemetry.episodes.close_all(t);
    }

    /// Spawns a node at `position`, booting immediately (its
    /// [`Node::on_start`] runs at the current time). Initial energy comes
    /// from the energy model (unlimited when accounting is disabled).
    pub fn spawn(&mut self, node: N, position: Point) -> NodeId {
        self.spawn_at(node, position, self.now, None)
    }

    /// Spawns a node that boots at `at` (≥ now), with an explicit energy
    /// budget (`None` = unlimited).
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn spawn_at(&mut self, node: N, position: Point, at: SimTime, energy: Option<f64>) -> NodeId {
        assert!(at >= self.now, "cannot spawn in the past");
        let idx = self.arena.len();
        let id = NodeId::from_index(idx);
        self.grid.insert(idx, position);
        self.arena.push(node, position, energy.unwrap_or(UNLIMITED_ENERGY), self.now);
        self.queue.schedule(at, PendingEvent { to: id, kind: EventKind::Start });
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
            directed: true,
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
        let idx = self.check(to)?;
        let timer_id = self.next_timer_id;
        self.next_timer_id += 1;
        self.arena.pending_timers[idx].push((timer_id, timer.clone()));
        self.queue
            .schedule(self.now + after, PendingEvent { to, kind: EventKind::Timer { timer_id, timer } });
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

    /// Drops `id`'s channel reservation (or queued request) and schedules
    /// the grant of every waiter that unblocks.
    fn release_channel(&mut self, id: NodeId) {
        let mut newly = std::mem::take(&mut self.grant_buf);
        self.channel.release_into(id, &mut newly);
        for &granted in &newly {
            self.queue.schedule(
                self.now + self.radio.base_latency,
                PendingEvent { to: granted, kind: EventKind::ChannelGrant },
            );
        }
        newly.clear();
        self.grant_buf = newly;
    }

    /// All node ids ever spawned.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.arena.len()).map(NodeId::from_index)
    }

    /// Ids of currently-alive nodes.
    pub fn alive_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.arena
            .alive
            .iter()
            .enumerate()
            .filter(|(_, alive)| **alive)
            .map(|(i, _)| NodeId::from_index(i))
    }

    /// Appends the ids of alive nodes within `radius` of `center` to `out`,
    /// in ascending id order, via the spatial grid (touches only the cells
    /// overlapping the disk, not the whole population).
    pub fn alive_in_disk_into(&self, center: Point, radius: f64, out: &mut Vec<NodeId>) {
        let mut found = Vec::new();
        self.grid.disk_into(center, radius, &mut found);
        out.extend(found.iter().map(|&(h, _)| NodeId::from_index(h)));
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
        let Some((at, ev)) = self.queue.pop() else {
            return false;
        };
        self.process(at, ev);
        true
    }

    /// Advances the clock to a just-popped event and dispatches it.
    fn process(&mut self, at: SimTime, ev: PendingEvent<N::Timer>) {
        debug_assert!(at >= self.now, "event queue went backwards");
        self.now = at;
        self.events_processed += 1;
        self.telemetry.metrics.queue_depth.record(self.queue.len() as u64);
        self.dispatch(ev);
    }

    /// Runs until the queue is exhausted or the clock passes `deadline`.
    /// Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut n = 0;
        while let Some((at, ev)) = self.queue.pop_at_or_before(deadline) {
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
        let mut last = self.now;
        while let Some((at, ev)) = self.queue.pop_at_or_before(deadline) {
            self.process(at, ev);
            last = self.now;
        }
        self.queue.is_empty().then_some(last)
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

    /// Number of pending events.
    #[must_use]
    pub fn pending_event_count(&self) -> usize {
        self.queue.len()
    }

    /// Width of one event-queue entry's payload in bytes: what the radix
    /// queue stores and moves per pending event, beside its own
    /// `(at, seq)` key.
    #[must_use]
    pub const fn pending_event_bytes() -> usize {
        std::mem::size_of::<PendingEvent<N::Timer>>()
    }

    /// Number of live transmission records: frames with a delivery still
    /// queued, or parked awaiting a carrier-sense retry.
    #[must_use]
    pub fn in_flight_transmissions(&self) -> usize {
        self.flights.live()
    }

    /// Audits the transmission conservation law: the live records are
    /// exactly the handles pending events reference, each record's
    /// reference count equals the number of events referencing it, and
    /// the free list accounts for every vacant slot. Holds between any
    /// two events; `Err` names the first slot that breaks it.
    pub fn audit_transmissions(&self) -> Result<(), String> {
        let mut seen = vec![0u32; self.flights.slots.len()];
        for (_, _, ev) in self.queue.entries() {
            if let Some(flight) = ev.kind.flight() {
                match seen.get_mut(flight as usize) {
                    Some(n) => *n += 1,
                    None => return Err(format!("event for {} references unknown slot {flight}", ev.to)),
                }
            }
        }
        for (slot, (t, &events)) in self.flights.slots.iter().zip(&seen).enumerate() {
            let refs = t.as_ref().map_or(0, |t| t.refs);
            if refs != events || t.is_some() != (events > 0) {
                return Err(format!("slot {slot}: refs {refs}, {events} referencing events"));
            }
        }
        let live = self.flights.slots.iter().flatten().count();
        if live != self.flights.live() {
            return Err(format!("{live} occupied slots, free list implies {}", self.flights.live()));
        }
        Ok(())
    }

    /// The raw 256-bit RNG state, folded into the model checker's state
    /// fingerprint so two states about to draw different random streams
    /// are never merged.
    #[must_use]
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state_words()
    }

    /// Canonical per-event hashes of the pending queue, one `u64` per
    /// pending event, in the queue's deterministic firing order
    /// (`(time, seq)`).
    ///
    /// Each hash folds the event's *relative* firing time (`at − now`),
    /// its firing rank, the receiver, and the payload — but not the
    /// absolute time, the raw scheduling seq, or raw timer ids, so two
    /// runs that reach structurally identical states through different
    /// histories fingerprint equal. A timer event additionally folds
    /// whether its id is still live in the owner's pending set: a
    /// cancelled (stale) entry hashes differently from a live one.
    /// Episode tags and transmission airtime windows are
    /// observation/contention metadata and excluded, and a delivery folds
    /// its transmission record's *contents*, never the slab slot it
    /// happens to occupy.
    #[must_use]
    pub fn pending_event_hashes(&self) -> Vec<u64> {
        fn eat(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let mut entries: Vec<_> = self.queue.entries().collect();
        entries.sort_by_key(|&(at, seq, _)| (at, seq));
        entries
            .iter()
            .enumerate()
            .map(|(rank, &(at, _seq, ev))| {
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                eat(&mut h, &(rank as u64).to_le_bytes());
                eat(&mut h, &at.saturating_since(self.now).as_micros().to_le_bytes());
                eat(&mut h, &ev.to.raw().to_le_bytes());
                match &ev.kind {
                    EventKind::Start => eat(&mut h, &[0]),
                    EventKind::Deliver { flight } => {
                        let t = self.flights.get(*flight);
                        eat(&mut h, &[1, u8::from(t.directed)]);
                        eat(&mut h, &t.from.raw().to_le_bytes());
                        eat(&mut h, format!("{:?}", t.msg).as_bytes());
                    }
                    EventKind::Timer { timer_id, timer } => {
                        let live = self.arena.pending_timers.get(ev.to.index()).is_some_and(|t| {
                            t.binary_search_by_key(timer_id, |(tid, _)| *tid).is_ok()
                        });
                        eat(&mut h, &[2, u8::from(live)]);
                        eat(&mut h, format!("{timer:?}").as_bytes());
                    }
                    EventKind::ChannelGrant => eat(&mut h, &[3]),
                    EventKind::ResendUnicast { flight, to, attempt } => {
                        eat(&mut h, &[4]);
                        eat(&mut h, &to.raw().to_le_bytes());
                        eat(&mut h, &attempt.to_le_bytes());
                        eat(&mut h, format!("{:?}", self.flights.get(*flight).msg).as_bytes());
                    }
                    EventKind::ResendBroadcast { flight, radius, attempt } => {
                        eat(&mut h, &[5]);
                        eat(&mut h, &radius.to_bits().to_le_bytes());
                        eat(&mut h, &attempt.to_le_bytes());
                        eat(&mut h, format!("{:?}", self.flights.get(*flight).msg).as_bytes());
                    }
                }
                h
            })
            .collect()
    }

    fn dispatch(&mut self, ev: PendingEvent<N::Timer>) {
        let idx = ev.to.index();
        // Settle the idle-listening drain accrued since this node last
        // handled an event; a node whose battery ran dry while idle dies
        // here and never sees the event. No-op (and no column touch) when
        // the model has no idle term, so idle-free runs stay byte-equal.
        if !self.arena.alive.get(idx).copied().unwrap_or(false) || self.settle_idle(ev.to) {
            // The event dies with its target; so does its hold on a frame.
            if let Some(flight) = ev.kind.flight() {
                self.flights.release(flight);
            }
            return;
        }
        match ev.kind {
            EventKind::Start => self.with_ctx(ev.to, |node, ctx| node.on_start(ctx)),
            EventKind::Deliver { flight } => {
                let t = self.flights.get(flight);
                let (from, tag, directed) = (t.from, t.tag, t.directed);
                // Receiver-side collision detection: a frame whose airtime
                // window overlapped another transmission audible here was
                // corrupted on the air — including by hidden terminals the
                // sender's carrier sense could not hear. One branch when
                // contention is off (tx is the NONE sentinel).
                if !t.tx.is_none() && self.medium.collides(t.tx, self.arena.positions[idx]) {
                    self.trace.record_mac_collision();
                    self.arena.mac_events[idx] += 1;
                    self.telemetry.recorder.record_with(EventClass::MacCollision, || Event {
                        t_us: self.now.as_micros(),
                        node: ev.to.raw(),
                        class: EventClass::MacCollision,
                        kind: t.msg.kind(),
                        peer: from.raw(),
                        episode: tag_episode(tag),
                        data: 0,
                    });
                    self.flights.release(flight);
                    // The radio still listened to the corrupted frame.
                    let rx = self.energy_model.rx;
                    self.charge(ev.to, rx);
                    return;
                }
                self.trace.record_delivery();
                // Causal attribution: a delivery of a tagged message
                // taints the receiver one hop deeper into the episode —
                // but only a *directed* (unicast) delivery propagates
                // taint; broadcast receptions are ambient and only count.
                if tag != NO_TAG {
                    let pos = self.arena.positions[idx];
                    self.telemetry.episodes.on_delivery(tag, ev.to.raw(), (pos.x, pos.y), directed);
                }
                self.telemetry.recorder.record_with(EventClass::Delivery, || Event {
                    t_us: self.now.as_micros(),
                    node: ev.to.raw(),
                    class: EventClass::Delivery,
                    kind: t.msg.kind(),
                    peer: from.raw(),
                    episode: tag_episode(tag),
                    data: 0,
                });
                let rx = self.energy_model.rx;
                if self.charge(ev.to, rx) {
                    self.flights.release(flight);
                    return;
                }
                // Handlers take the message by value: the last copy of a
                // frame moves it out of the record, earlier ones clone.
                let msg = self.flights.take_msg(flight);
                self.with_ctx(ev.to, |node, ctx| node.on_message(from, msg, ctx));
            }
            EventKind::Timer { timer_id, timer } => {
                let timers = &mut self.arena.pending_timers[idx];
                // pending_timers is sorted by id; absence means the timer
                // was cancelled and this queue entry is stale.
                match timers.binary_search_by_key(&timer_id, |(tid, _)| *tid) {
                    Ok(pos) => {
                        // Vec::remove (not swap_remove) keeps the sort.
                        timers.remove(pos);
                    }
                    Err(_) => return,
                }
                self.trace.record_timer();
                self.telemetry.recorder.record_with(EventClass::Timer, || Event {
                    t_us: self.now.as_micros(),
                    node: ev.to.raw(),
                    class: EventClass::Timer,
                    kind: "timer",
                    peer: NO_PEER,
                    episode: self.telemetry.episodes.episode_of(ev.to.raw()),
                    data: timer_id,
                });
                self.with_ctx(ev.to, |node, ctx| node.on_timer(timer, ctx));
            }
            EventKind::ChannelGrant => {
                self.with_ctx(ev.to, |node, ctx| node.on_channel_granted(ctx));
            }
            EventKind::ResendUnicast { flight, to, attempt } => {
                let msg = self.flights.take_msg(flight);
                self.try_unicast(ev.to, to, msg, attempt);
            }
            EventKind::ResendBroadcast { flight, radius, attempt } => {
                let msg = self.flights.take_msg(flight);
                self.try_broadcast(ev.to, radius, msg, attempt);
            }
        }
    }

    /// Applies the idle-listening drain accrued by `id` since its last
    /// settlement (lazy accounting: exact at every event boundary, and the
    /// gap between events is bounded by the node's own timer cadence).
    /// Returns `true` when the drain exhausted the battery.
    fn settle_idle(&mut self, id: NodeId) -> bool {
        if self.energy_model.idle == 0.0 {
            return false;
        }
        let idx = id.index();
        let since = self.now.saturating_since(self.arena.energy_settled[idx]);
        if since.is_zero() {
            return false;
        }
        self.arena.energy_settled[idx] = self.now;
        self.charge(id, self.energy_model.idle_cost(since.as_secs_f64()))
    }

    /// Charges `cost` to a node; returns `true` when the node died of
    /// exhaustion (and handles the death).
    fn charge(&mut self, id: NodeId, cost: f64) -> bool {
        if self.energy_model.is_disabled() || cost == 0.0 {
            return false;
        }
        let energy = &mut self.arena.energy[id.index()];
        *energy -= cost;
        if *energy <= 0.0 {
            *energy = 0.0;
            let _ = self.kill(id);
            true
        } else {
            false
        }
    }

    /// Runs a node callback and applies the actions it queued.
    fn with_ctx<F>(&mut self, id: NodeId, f: F)
    where
        F: FnOnce(&mut N, &mut Context<'_, N::Msg, N::Timer>),
    {
        let idx = id.index();
        let (position, energy) = (self.arena.positions[idx], self.arena.energy[idx]);
        // The action buffer is engine-owned and reused across callbacks;
        // apply_actions never re-enters a callback (grants are queued as
        // events), so no nested borrow can occur.
        let mut actions = std::mem::take(&mut self.action_buf);
        debug_assert!(actions.is_empty());
        let mut ctx = Context {
            now: self.now,
            id,
            position,
            energy,
            holds_channel: self.channel.holds(id),
            record_events: self.telemetry.recorder.is_recording(),
            mac_events: self.arena.mac_events[idx],
            rng: &mut self.rng,
            actions: &mut actions,
        };
        f(&mut self.arena.nodes[idx], &mut ctx);
        self.apply_actions(id, &mut actions);
        actions.clear();
        self.action_buf = actions;
    }

    fn apply_actions(&mut self, id: NodeId, actions: &mut Vec<Action<N::Msg, N::Timer>>) {
        for action in actions.drain(..) {
            // A node that powered itself off performs nothing further.
            if !self.arena.alive[id.index()] {
                break;
            }
            match action {
                Action::Unicast { to, msg } => self.do_unicast(id, to, msg),
                Action::Broadcast { radius, msg } => self.do_broadcast(id, radius, msg),
                Action::SetTimer { after, timer } => {
                    let timer_id = self.next_timer_id;
                    self.next_timer_id += 1;
                    // Ids are globally increasing, so a push keeps
                    // pending_timers sorted by id.
                    self.arena.pending_timers[id.index()].push((timer_id, timer.clone()));
                    self.queue.schedule(
                        self.now + after,
                        PendingEvent { to: id, kind: EventKind::Timer { timer_id, timer } },
                    );
                }
                Action::CancelTimers { timer } => {
                    // Removal is the whole cancellation: the queued event
                    // finds its id absent and drops itself when it fires.
                    self.arena.pending_timers[id.index()].retain(|(_, t)| *t != timer);
                }
                Action::ReserveChannel { radius } => {
                    let pos = self.arena.positions[id.index()];
                    if self.channel.request(id, pos, radius) {
                        self.queue.schedule(
                            self.now + self.radio.base_latency,
                            PendingEvent { to: id, kind: EventKind::ChannelGrant },
                        );
                    }
                }
                Action::ReleaseChannel => self.release_channel(id),
                Action::PowerOff => {
                    let _ = self.kill(id);
                }
                Action::Count { name, by } => self.trace.record_proto(name, by),
                Action::Event { kind, data } => {
                    self.telemetry.recorder.record(Event {
                        t_us: self.now.as_micros(),
                        node: id.raw(),
                        class: EventClass::Protocol,
                        kind,
                        peer: NO_PEER,
                        episode: self.telemetry.episodes.episode_of(id.raw()),
                        data,
                    });
                }
            }
        }
    }

    /// Decides the adversarial fate of one in-range delivery attempt and,
    /// when it survives, schedules it (and a possible duplicate). Every
    /// scheduled copy is folded into the trace digest. With an inert fault
    /// state this draws exactly one latency sample — bit-identical to the
    /// pre-fault engine.
    /// Each copy takes one more reference to the transmission `flight`;
    /// `kind` is the frame's [`KindFolds`] entry.
    fn schedule_delivery(
        &mut self,
        flight: u32,
        to: NodeId,
        dist: f64,
        kind: usize,
        fate: Option<Fate>,
    ) {
        let from = self.flights.get(flight).from;
        let copies = match fate {
            Some(Fate::Duplicate) => {
                self.trace.record_scripted_duplicate();
                2
            }
            Some(_) => 1,
            None => {
                if self.faults.duplicated(&mut self.rng) {
                    self.trace.record_duplicated();
                    2
                } else {
                    1
                }
            }
        };
        for _ in 0..copies {
            let mut latency = self.radio.latency(dist, &mut self.rng);
            let extra = match fate {
                Some(Fate::Delay(d)) => d,
                Some(_) => SimDuration::ZERO,
                None => self.faults.extra_delay(&mut self.rng),
            };
            if !extra.is_zero() {
                if fate.is_some() {
                    self.trace.record_scripted_delay();
                } else {
                    self.trace.record_delayed();
                }
                latency = latency + extra;
            }
            self.telemetry.metrics.delivery_latency_us.record(latency.as_micros());
            let at = self.now + latency;
            let kind = self.kind_folds.at(kind);
            self.trace.record_scheduled_delivery(at.as_micros(), from.raw(), to.raw(), kind);
            self.flights.retain(flight);
            self.queue.schedule(at, PendingEvent { to, kind: EventKind::Deliver { flight } });
        }
    }

    /// The episode tag a transmission from `from` carries, accounting the
    /// transmission to its episode. Gated on `any_open()` so runs with no
    /// perturbation in flight pay a single branch.
    fn episode_tag(&mut self, from: NodeId) -> u64 {
        if !self.telemetry.episodes.any_open() {
            return NO_TAG;
        }
        let tag = self.telemetry.episodes.tag_for_sender(from.raw());
        if tag != NO_TAG {
            let pos = self.arena.positions[from.index()];
            self.telemetry.episodes.on_send(tag, (pos.x, pos.y));
        }
        tag
    }

    /// Handles a carrier-sense deferral (contention path only): `None`
    /// once the retry budget is exhausted — the frame is dropped —
    /// otherwise when to retry, after a seeded slotted exponential
    /// backoff of `1..=cw` whole slots, with `cw` doubling per retry.
    fn mac_defer(&mut self, from: NodeId, attempt: u32) -> Option<SimTime> {
        self.arena.mac_events[from.index()] += 1;
        let exhausted = attempt >= self.contention.max_backoffs;
        if exhausted {
            self.trace.record_mac_backoff_exhausted();
        } else {
            self.trace.record_mac_defer();
        }
        self.telemetry.recorder.record_with(EventClass::MacDefer, || Event {
            t_us: self.now.as_micros(),
            node: from.raw(),
            class: EventClass::MacDefer,
            kind: if exhausted { "mac_backoff_exhausted" } else { "mac_defer" },
            peer: NO_PEER,
            episode: self.telemetry.episodes.episode_of(from.raw()),
            data: u64::from(attempt),
        });
        if exhausted {
            return None;
        }
        let cw = self.contention.window(attempt);
        let slots = u64::from(self.rng.gen_range(1..=cw));
        Some(self.now + self.contention.slot * slots)
    }

    /// Puts a frame on the air. Carrier sense comes first (contention
    /// only): while any audible transmission is in progress the sender
    /// defers instead — the frame parks in the slab behind the event
    /// `resend` builds, or is dropped once the backoff budget is spent —
    /// and `None` comes back. Skipped entirely (no RNG, no events, no
    /// counters) while contention is disabled. Past carrier sense the
    /// transmission record is opened and the sender's healing episode
    /// billed, so a frame costs its episode one message however many
    /// times it deferred. The caller holds one reference while it
    /// schedules the copies and releases it when done.
    fn open_transmission(
        &mut self,
        from: NodeId,
        msg: N::Msg,
        directed: bool,
        reach: f64,
        attempt: u32,
        resend: impl FnOnce(u32) -> EventKind<N::Timer>,
    ) -> Option<u32> {
        let from_pos = self.arena.positions[from.index()];
        let mut t = Transmission { from, msg, tag: NO_TAG, tx: TxWindow::NONE, directed, refs: 1 };
        if self.contention.enabled {
            if self.medium.busy(self.now.as_micros(), from_pos) {
                if let Some(at) = self.mac_defer(from, attempt) {
                    let flight = self.flights.open(t);
                    self.queue.schedule(at, PendingEvent { to: from, kind: resend(flight) });
                }
                return None;
            }
            let airtime = self.contention.airtime(t.msg.wire_bits());
            t.tx = self.medium.begin(self.now.as_micros(), airtime, from_pos, reach);
        }
        t.tag = self.episode_tag(from);
        Some(self.flights.open(t))
    }

    /// Records a scripted [`Fate::Collide`] against the receiver: the
    /// frame is corrupted on the air exactly as a medium-detected
    /// collision would be (works with contention disabled, which is how
    /// the model checker scripts worst-case collision schedules).
    fn scripted_collision(&mut self, from: NodeId, to: NodeId, kind: &'static str) {
        self.trace.record_mac_collision();
        self.arena.mac_events[to.index()] += 1;
        self.telemetry.recorder.record_with(EventClass::MacCollision, || Event {
            t_us: self.now.as_micros(),
            node: to.raw(),
            class: EventClass::MacCollision,
            kind,
            peer: from.raw(),
            episode: self.telemetry.episodes.episode_of(to.raw()),
            data: 0,
        });
    }

    fn do_unicast(&mut self, from: NodeId, to: NodeId, msg: N::Msg) {
        self.trace.record_unicast(msg.kind());
        self.try_unicast(from, to, msg, 0);
    }

    /// One unicast transmission attempt (attempt 0 is the original send;
    /// higher attempts are carrier-sense backoff retries and only occur
    /// while contention is enabled).
    fn try_unicast(&mut self, from: NodeId, to: NodeId, msg: N::Msg, attempt: u32) {
        let from_pos = self.arena.positions[from.index()];
        let Some(&target_pos) = self.arena.positions.get(to.index()) else {
            self.trace.record_unicast_failure();
            return;
        };
        let dist = from_pos.distance(target_pos);
        if !self.arena.alive[to.index()] || dist > self.radio.max_range {
            self.trace.record_unicast_failure();
            // The sender still transmitted: it burns the energy and its
            // episode is billed the frame.
            self.episode_tag(from);
            self.charge(from, self.energy_model.tx_cost(dist.min(self.radio.max_range)));
            return;
        }
        let kind = msg.kind();
        let resend = |flight| EventKind::ResendUnicast { flight, to, attempt: attempt + 1 };
        let Some(flight) = self.open_transmission(from, msg, true, dist, attempt, resend) else {
            return;
        };
        let fold = self.kind_folds.get(kind);
        // A scripted fate (the model checker's delivery-decision point)
        // overrides the probabilistic cascade; unscripted attempts fall
        // through to it. Jamming is geometric (RNG-free); the rest draw
        // from the engine RNG only when the knob is enabled.
        match self.faults.next_attempt(from, to, kind, false) {
            Some(Fate::Drop) => self.trace.record_scripted_drop(),
            Some(Fate::Collide) => self.scripted_collision(from, to, kind),
            Some(fate) => self.schedule_delivery(flight, to, dist, fold, Some(fate)),
            None => {
                if self.faults.jammed(from_pos, target_pos) {
                    self.trace.record_dropped_by_jam();
                } else if self.faults.burst_dropped(&mut self.rng) {
                    self.trace.record_dropped_by_burst();
                } else if self.faults.unicast_dropped(&mut self.rng) {
                    self.trace.record_dropped_unicast();
                } else {
                    self.schedule_delivery(flight, to, dist, fold, None);
                }
            }
        }
        self.flights.release(flight);
        self.charge(from, self.energy_model.tx_cost(dist));
    }

    fn do_broadcast(&mut self, from: NodeId, radius: f64, msg: N::Msg) {
        self.trace.record_broadcast(msg.kind());
        self.try_broadcast(from, radius, msg, 0);
    }

    /// One broadcast transmission attempt (attempt 0 is the original send;
    /// higher attempts are carrier-sense backoff retries and only occur
    /// while contention is enabled).
    fn try_broadcast(&mut self, from: NodeId, radius: f64, msg: N::Msg, attempt: u32) {
        let range = self.radio.effective_range(radius);
        let from_pos = self.arena.positions[from.index()];
        let kind = msg.kind();
        let resend = |flight| EventKind::ResendBroadcast { flight, radius, attempt: attempt + 1 };
        let Some(flight) = self.open_transmission(from, msg, false, range, attempt, resend) else {
            return;
        };
        let fold = self.kind_folds.get(kind);
        // Every alive node in range, ascending by id, each with the
        // distance its latency is drawn from.
        let mut receivers = std::mem::take(&mut self.recv_buf);
        debug_assert!(receivers.is_empty());
        self.grid.disk_into(from_pos, range, &mut receivers);
        for &(h, dist) in &receivers {
            if h == from.index() {
                continue;
            }
            let to = NodeId::from_index(h);
            match self.faults.next_attempt(from, to, kind, true) {
                Some(Fate::Drop) => {
                    self.trace.record_scripted_drop();
                    continue;
                }
                Some(Fate::Collide) => {
                    self.scripted_collision(from, to, kind);
                    continue;
                }
                Some(fate) => {
                    self.schedule_delivery(flight, to, dist, fold, Some(fate));
                    continue;
                }
                None => {}
            }
            if self.radio.broadcast_dropped(&mut self.rng) {
                self.trace.record_broadcast_loss();
                continue;
            }
            // The one fault that needs the receiver's position; the column
            // is not touched while no jam is up.
            if !self.faults.jams().is_empty() && self.faults.jammed(from_pos, self.arena.positions[h]) {
                self.trace.record_dropped_by_jam();
                continue;
            }
            if self.faults.burst_dropped(&mut self.rng) {
                self.trace.record_dropped_by_burst();
                continue;
            }
            self.schedule_delivery(flight, to, dist, fold, None);
        }
        receivers.clear();
        self.recv_buf = receivers;
        self.flights.release(flight);
        self.charge(from, self.energy_model.tx_cost(range));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy flooding protocol: on start, node 0 broadcasts a counter; every
    /// node re-broadcasts the first message it hears with counter+1.
    #[derive(Debug, Default)]
    struct Flood {
        heard: Option<u32>,
        timer_fired: u32,
    }

    #[derive(Debug, Clone)]
    struct Hop(u32);
    impl Payload for Hop {
        fn kind(&self) -> &'static str {
            "hop"
        }
    }

    #[derive(Debug, Clone, PartialEq)]
    enum T {
        Tick,
    }

    impl Node for Flood {
        type Msg = Hop;
        type Timer = T;

        fn on_start(&mut self, ctx: &mut Context<'_, Hop, T>) {
            if ctx.id() == NodeId::new(0) {
                self.heard = Some(0);
                ctx.broadcast(60.0, Hop(0));
            }
        }

        fn on_message(&mut self, _from: NodeId, msg: Hop, ctx: &mut Context<'_, Hop, T>) {
            if self.heard.is_none() {
                self.heard = Some(msg.0 + 1);
                ctx.broadcast(60.0, Hop(msg.0 + 1));
            }
        }

        fn on_timer(&mut self, timer: T, _ctx: &mut Context<'_, Hop, T>) {
            if timer == T::Tick {
                self.timer_fired += 1;
            }
        }
    }

    fn line_engine(n: usize, spacing: f64) -> (Engine<Flood>, Vec<NodeId>) {
        let mut eng = Engine::new(RadioModel::ideal(100.0), EnergyModel::disabled(), 1);
        let ids =
            (0..n).map(|i| eng.spawn(Flood::default(), Point::new(i as f64 * spacing, 0.0))).collect();
        (eng, ids)
    }

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
    fn unicast_out_of_range_fails() {
        #[derive(Debug, Default)]
        struct Caster;
        #[derive(Debug, Clone)]
        struct M;
        impl Payload for M {}
        impl Node for Caster {
            type Msg = M;
            type Timer = ();
            fn on_start(&mut self, ctx: &mut Context<'_, M, ()>) {
                if ctx.id() == NodeId::new(0) {
                    ctx.unicast(NodeId::new(1), M);
                }
            }
            fn on_message(&mut self, _: NodeId, _: M, _: &mut Context<'_, M, ()>) {
                panic!("must not be delivered");
            }
            fn on_timer(&mut self, _: (), _: &mut Context<'_, M, ()>) {}
        }
        let mut eng = Engine::new(RadioModel::ideal(100.0), EnergyModel::disabled(), 1);
        eng.spawn(Caster, Point::ORIGIN);
        eng.spawn(Caster, Point::new(500.0, 0.0));
        eng.run_until(SimTime::from_micros(1_000_000));
        assert_eq!(eng.trace().unicast_failures(), 1);
    }

    #[test]
    fn timers_fire_and_cancel() {
        #[derive(Debug, Default)]
        struct Timed {
            fired: Vec<&'static str>,
        }
        #[derive(Debug, Clone)]
        struct M;
        impl Payload for M {}
        impl Node for Timed {
            type Msg = M;
            type Timer = &'static str;
            fn on_start(&mut self, ctx: &mut Context<'_, M, &'static str>) {
                ctx.set_timer(SimDuration::from_millis(10), "keep");
                ctx.set_timer(SimDuration::from_millis(10), "drop");
                ctx.set_timer(SimDuration::from_millis(20), "late");
                ctx.cancel_timers("drop");
            }
            fn on_message(&mut self, _: NodeId, _: M, _: &mut Context<'_, M, &'static str>) {}
            fn on_timer(&mut self, t: &'static str, _: &mut Context<'_, M, &'static str>) {
                self.fired.push(t);
            }
        }
        let mut eng = Engine::new(RadioModel::ideal(100.0), EnergyModel::disabled(), 1);
        let id = eng.spawn(Timed::default(), Point::ORIGIN);
        eng.run_until(SimTime::from_micros(1_000_000));
        assert_eq!(eng.node(id).unwrap().fired, vec!["keep", "late"]);
    }

    #[test]
    fn set_cancel_cycles_do_not_grow_slot_memory() {
        // Regression guard for the timer bookkeeping: with the old
        // cancelled-id list, each set+cancel cycle parked an id until the
        // stale queue entry fired (here: an hour later), so per-slot memory
        // grew linearly with cycles. Removal-is-cancellation keeps the
        // pending list empty.
        #[derive(Debug, Default)]
        struct Cycler {
            ticks: u32,
            victims_fired: u32,
        }
        #[derive(Debug, Clone)]
        struct M;
        impl Payload for M {}
        #[derive(Debug, Clone, PartialEq)]
        enum Ct {
            Tick,
            Victim,
        }
        impl Node for Cycler {
            type Msg = M;
            type Timer = Ct;
            fn on_start(&mut self, ctx: &mut Context<'_, M, Ct>) {
                ctx.set_timer(SimDuration::from_millis(1), Ct::Tick);
            }
            fn on_message(&mut self, _: NodeId, _: M, _: &mut Context<'_, M, Ct>) {}
            fn on_timer(&mut self, t: Ct, ctx: &mut Context<'_, M, Ct>) {
                match t {
                    Ct::Tick => {
                        self.ticks += 1;
                        ctx.set_timer(SimDuration::from_secs(3600), Ct::Victim);
                        ctx.cancel_timers(Ct::Victim);
                        if self.ticks == 1 {
                            // A fresh set after a cancel must still fire
                            // (new id; fires before the next tick's cancel).
                            ctx.set_timer(SimDuration::from_micros(500), Ct::Victim);
                        }
                        if self.ticks < 1000 {
                            ctx.set_timer(SimDuration::from_millis(1), Ct::Tick);
                        }
                    }
                    Ct::Victim => self.victims_fired += 1,
                }
            }
        }
        let mut eng = Engine::new(RadioModel::ideal(100.0), EnergyModel::disabled(), 1);
        let id = eng.spawn(Cycler::default(), Point::ORIGIN);
        eng.run_until(SimTime::from_micros(10_000_000));
        assert_eq!(eng.node(id).unwrap().ticks, 1000);
        assert_eq!(eng.node(id).unwrap().victims_fired, 1, "only the re-set victim fires");
        let timers = &eng.arena.pending_timers[id.index()];
        assert!(
            timers.is_empty(),
            "cancellation reclaims immediately; {} entries leaked",
            timers.len()
        );
    }

    #[test]
    fn channel_reservation_serializes() {
        #[derive(Debug, Default)]
        struct Reserver {
            granted_at: Option<SimTime>,
        }
        #[derive(Debug, Clone)]
        struct M;
        impl Payload for M {}
        impl Node for Reserver {
            type Msg = M;
            type Timer = ();
            fn on_start(&mut self, ctx: &mut Context<'_, M, ()>) {
                ctx.reserve_channel(50.0);
            }
            fn on_message(&mut self, _: NodeId, _: M, _: &mut Context<'_, M, ()>) {}
            fn on_timer(&mut self, _: (), _: &mut Context<'_, M, ()>) {}
            fn on_channel_granted(&mut self, ctx: &mut Context<'_, M, ()>) {
                self.granted_at = Some(ctx.now());
                // Hold for 100 ms then release.
                ctx.set_timer(SimDuration::from_millis(100), ());
            }
        }
        // Rewire on_timer to release: easier with a second impl — instead
        // drive release via node_mut after run; here we only check mutual
        // exclusion of the initial grants.
        let mut eng = Engine::new(RadioModel::ideal(200.0), EnergyModel::disabled(), 1);
        let a = eng.spawn(Reserver::default(), Point::ORIGIN);
        let b = eng.spawn(Reserver::default(), Point::new(10.0, 0.0));
        eng.run_until(SimTime::from_micros(50_000));
        let ga = eng.node(a).unwrap().granted_at;
        let gb = eng.node(b).unwrap().granted_at;
        assert!(ga.is_some());
        assert!(gb.is_none(), "conflicting reservation must wait");
    }

    #[test]
    fn energy_exhaustion_kills() {
        let mut eng = Engine::new(
            RadioModel::ideal(100.0),
            EnergyModel { tx_base: 1.0, tx_dist2: 0.0, rx: 0.0, idle: 0.0 },
            1,
        );
        let id = eng.spawn_at(Flood::default(), Point::ORIGIN, SimTime::ZERO, Some(0.5));
        eng.run_until(SimTime::from_micros(1_000_000));
        // Node 0's single broadcast cost 1.0 > 0.5 budget → dead.
        assert!(!eng.is_alive(id).unwrap());
        assert_eq!(eng.energy(id).unwrap(), 0.0);
    }

    /// A node that only ever re-arms a periodic timer — it spends nothing
    /// on tx/rx, so any death must come from the idle drain.
    #[derive(Debug, Default)]
    struct Idler {
        ticks: u32,
    }
    impl Node for Idler {
        type Msg = Hop;
        type Timer = T;
        fn on_start(&mut self, ctx: &mut Context<'_, Hop, T>) {
            ctx.set_timer(SimDuration::from_secs(1), T::Tick);
        }
        fn on_message(&mut self, _: NodeId, _: Hop, _: &mut Context<'_, Hop, T>) {}
        fn on_timer(&mut self, _: T, ctx: &mut Context<'_, Hop, T>) {
            self.ticks += 1;
            ctx.set_timer(SimDuration::from_secs(1), T::Tick);
        }
    }

    #[test]
    fn idle_drain_kills_quiet_node_on_schedule() {
        let model = EnergyModel { tx_base: 0.0, tx_dist2: 0.0, rx: 0.0, idle: 0.1 };
        let mut eng = Engine::new(RadioModel::ideal(100.0), model, 1);
        // 1.05 units at 0.1/s: dies settling the drain at the 11th tick
        // (10.5 s owed > 1.05 budget at t = 11 s), having run ~10 ticks.
        let id = eng.spawn_at(Idler::default(), Point::ORIGIN, SimTime::ZERO, Some(1.05));
        eng.run_until(SimTime::from_micros(60_000_000));
        assert!(!eng.is_alive(id).unwrap(), "idle drain must kill the quiet node");
        assert_eq!(eng.energy(id).unwrap(), 0.0);
        let ticks = eng.node(id).unwrap().ticks;
        assert!((9..=11).contains(&ticks), "died around t=10.5s, got {ticks} ticks");
    }

    #[test]
    fn zero_idle_term_costs_nothing() {
        let model = EnergyModel { tx_base: 1.0, tx_dist2: 0.0, rx: 0.0, idle: 0.0 };
        let mut eng = Engine::new(RadioModel::ideal(100.0), model, 1);
        let id = eng.spawn_at(Idler::default(), Point::ORIGIN, SimTime::ZERO, Some(1.0));
        eng.run_until(SimTime::from_micros(60_000_000));
        assert!(eng.is_alive(id).unwrap());
        assert_eq!(eng.energy(id).unwrap(), 1.0, "no tx/rx and no idle term: budget untouched");
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

    /// A chatty protocol for fault testing: every node unicasts a counter
    /// to its right neighbor every 100 ms, forever.
    #[derive(Debug, Default)]
    struct Chatter {
        received: u32,
        sent: u32,
    }

    impl Node for Chatter {
        type Msg = Hop;
        type Timer = T;

        fn on_start(&mut self, ctx: &mut Context<'_, Hop, T>) {
            if ctx.id() == NodeId::new(0) {
                ctx.set_timer(SimDuration::from_millis(100), T::Tick);
            }
        }

        fn on_message(&mut self, _from: NodeId, _msg: Hop, _ctx: &mut Context<'_, Hop, T>) {
            self.received += 1;
        }

        fn on_timer(&mut self, _t: T, ctx: &mut Context<'_, Hop, T>) {
            let next = NodeId::new(ctx.id().raw() + 1);
            ctx.unicast(next, Hop(self.sent));
            self.sent += 1;
            ctx.set_timer(SimDuration::from_millis(100), T::Tick);
        }
    }

    fn chatter_pair(config: crate::faults::FaultConfig) -> Engine<Chatter> {
        let mut eng = Engine::new(RadioModel::ideal(100.0), EnergyModel::disabled(), 5);
        eng.set_fault_config(config);
        eng.spawn(Chatter::default(), Point::ORIGIN);
        eng.spawn(Chatter::default(), Point::new(50.0, 0.0));
        eng
    }

    #[test]
    fn unicast_loss_drops_at_rate() {
        use crate::faults::FaultConfig;
        let mut eng = chatter_pair(FaultConfig { unicast_loss: 0.3, ..FaultConfig::none() });
        eng.run_for(SimDuration::from_secs(200));
        let t = eng.trace();
        assert!(t.dropped_unicast() > 0, "some unicasts must drop");
        let sent = eng.node(NodeId::new(0)).unwrap().sent + eng.node(NodeId::new(1)).unwrap().sent;
        let rate = t.dropped_unicast() as f64 / f64::from(sent);
        assert!((rate - 0.3).abs() < 0.05, "drop rate {rate}");
        assert_eq!(t.unicast_failures(), 0, "loss is not a range failure");
    }

    #[test]
    fn jam_disk_blocks_both_directions() {
        use crate::faults::FaultConfig;
        let mut eng = chatter_pair(FaultConfig::none());
        let jam = eng.faults_mut().start_jam(Point::ORIGIN, 10.0);
        eng.run_for(SimDuration::from_secs(5));
        // Node 0 is inside the jam: its sends and its inbound copies are
        // all suppressed.
        assert_eq!(eng.node(NodeId::new(0)).unwrap().received, 0);
        assert_eq!(eng.node(NodeId::new(1)).unwrap().received, 0);
        assert!(eng.trace().dropped_by_jam() > 0);
        let blocked = eng.trace().dropped_by_jam();
        eng.faults_mut().stop_jam(jam);
        eng.run_for(SimDuration::from_secs(5));
        assert!(eng.node(NodeId::new(1)).unwrap().received > 0, "heals after jam stops");
        assert_eq!(eng.trace().dropped_by_jam(), blocked, "no drops after stop");
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        use crate::faults::FaultConfig;
        let mut eng = chatter_pair(FaultConfig { duplicate: 0.5, ..FaultConfig::none() });
        eng.run_for(SimDuration::from_secs(50));
        let t = eng.trace();
        assert!(t.duplicated() > 100, "duplicates occurred: {}", t.duplicated());
        let received =
            eng.node(NodeId::new(0)).unwrap().received + eng.node(NodeId::new(1)).unwrap().received;
        let sent = eng.node(NodeId::new(0)).unwrap().sent + eng.node(NodeId::new(1)).unwrap().sent;
        assert!(u64::from(received) > u64::from(sent), "more deliveries than sends");
    }

    #[test]
    fn burst_loss_affects_broadcasts_too() {
        use crate::faults::{BurstLoss, FaultConfig};
        let mut eng: Engine<Flood> = Engine::new(RadioModel::ideal(100.0), EnergyModel::disabled(), 9);
        eng.set_fault_config(FaultConfig {
            burst: BurstLoss {
                p_enter: 1.0,
                p_exit: f64::MIN_POSITIVE,
                loss_good: 0.0,
                loss_bad: 1.0,
            },
            ..FaultConfig::none()
        });
        eng.spawn(Flood::default(), Point::ORIGIN);
        let other = eng.spawn(Flood::default(), Point::new(50.0, 0.0));
        eng.run_for(SimDuration::from_secs(10));
        // The chain enters the (for this run, permanent) bad state before
        // the first delivery: nothing gets through.
        assert_eq!(eng.node(other).unwrap().heard, None);
        assert!(eng.trace().dropped_by_burst() > 0);
    }

    #[test]
    fn extra_delay_stretches_latency() {
        use crate::faults::FaultConfig;
        let run = |config: crate::faults::FaultConfig| {
            let mut eng = chatter_pair(config);
            eng.run_for(SimDuration::from_secs(20));
            (eng.trace().delayed(), eng.node(NodeId::new(1)).unwrap().received)
        };
        let (delayed, _) = run(FaultConfig {
            delay_prob: 1.0,
            delay_max: SimDuration::from_millis(40),
            ..FaultConfig::none()
        });
        assert!(delayed > 0, "every delivery is delayed");
        let (none_delayed, _) = run(FaultConfig::none());
        assert_eq!(none_delayed, 0);
    }

    #[test]
    fn inert_faults_leave_stream_untouched() {
        use crate::faults::FaultConfig;
        // A faulted-but-inert engine must replay the exact event sequence
        // (and digest) of a plain engine: the hooks draw no RNG.
        let run = |configure: bool| {
            let (mut eng, _) = line_engine(20, 40.0);
            if configure {
                eng.set_fault_config(FaultConfig::none());
            }
            eng.run_until(SimTime::from_micros(5_000_000));
            (eng.trace().digest(), eng.events_processed())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn digest_distinguishes_fault_configs() {
        use crate::faults::FaultConfig;
        let run = |loss: f64| {
            let mut eng = chatter_pair(FaultConfig { unicast_loss: loss, ..FaultConfig::none() });
            eng.run_for(SimDuration::from_secs(30));
            eng.trace().digest()
        };
        assert_eq!(run(0.10), run(0.10), "same config, same digest");
        assert_ne!(run(0.10), run(0.25), "different channel, different digest");
        assert_ne!(run(0.0), run(0.10));
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

    #[test]
    fn episodes_attribute_tainted_traffic_and_stay_inert() {
        use crate::faults::FaultConfig;
        // Node 0 chatters at node 1 forever. Opening an episode and
        // tainting node 0 must attribute its sends/deliveries (and taint
        // node 1 at depth 1) without perturbing the digest stream.
        let run = |episode: bool| {
            let mut eng = chatter_pair(FaultConfig::none());
            if episode {
                let ep = eng.open_episode("test");
                eng.taint_episode_near(ep, Point::ORIGIN, 10.0);
            }
            eng.run_for(SimDuration::from_secs(10));
            (eng.trace().digest(), eng.events_processed())
        };
        assert_eq!(run(true), run(false));

        let mut eng = chatter_pair(FaultConfig::none());
        let ep = eng.open_episode("test");
        eng.taint_episode_near(ep, Point::ORIGIN, 10.0);
        eng.run_for(SimDuration::from_secs(10));
        eng.close_episodes();
        let e = eng.telemetry().episodes.episode(ep).unwrap();
        assert!(e.messages > 0, "tainted sender's transmissions attributed");
        assert!(e.deliveries > 0);
        assert!(e.tainted >= 2, "receiver tainted at depth 1");
        assert!((e.radius_m - 50.0).abs() < 1e-9, "radius reaches node 1");
        assert_eq!(e.heal_latency_us(), Some(eng.now().as_micros()));
        assert_eq!(eng.telemetry().metrics.heal_latency_us.count(), 1);
    }

    #[test]
    fn ctx_event_records_only_in_full_mode() {
        #[derive(Debug, Default)]
        struct Emitter;
        #[derive(Debug, Clone)]
        struct M;
        impl Payload for M {}
        impl Node for Emitter {
            type Msg = M;
            type Timer = ();
            fn on_start(&mut self, ctx: &mut Context<'_, M, ()>) {
                ctx.event("booted", 7);
            }
            fn on_message(&mut self, _: NodeId, _: M, _: &mut Context<'_, M, ()>) {}
            fn on_timer(&mut self, _: (), _: &mut Context<'_, M, ()>) {}
        }
        let run = |record: bool| {
            let mut eng = Engine::new(RadioModel::ideal(100.0), EnergyModel::disabled(), 1);
            if record {
                eng.set_recording(RecorderMode::Full { capacity: 16 });
            }
            eng.spawn(Emitter, Point::ORIGIN);
            eng.run_until(SimTime::from_micros(1_000));
            eng.telemetry().recorder.of_class(EventClass::Protocol)
        };
        assert_eq!(run(false), 0, "no-op when disabled");
        assert_eq!(run(true), 1);
    }

    #[test]
    fn unknown_node_errors() {
        let eng: Engine<Flood> = Engine::new(RadioModel::ideal(10.0), EnergyModel::disabled(), 1);
        assert!(matches!(eng.node(NodeId::new(7)), Err(EngineError::UnknownNode(_))));
        let msg = format!("{}", EngineError::UnknownNode(NodeId::new(7)));
        assert!(msg.contains("n7"));
    }

    /// A node that unicasts to a fixed target every 100 ms (no target =
    /// pure receiver), sampling its own congestion signal each tick.
    #[derive(Debug, Clone)]
    struct Blaster {
        target: Option<NodeId>,
        sent: u32,
        received: u32,
        mac_seen: u64,
    }

    impl Blaster {
        fn to(target: Option<NodeId>) -> Self {
            Blaster { target, sent: 0, received: 0, mac_seen: 0 }
        }
    }

    impl Node for Blaster {
        type Msg = Hop;
        type Timer = T;

        fn on_start(&mut self, ctx: &mut Context<'_, Hop, T>) {
            ctx.set_timer(SimDuration::from_millis(100), T::Tick);
        }

        fn on_message(&mut self, _from: NodeId, _msg: Hop, _ctx: &mut Context<'_, Hop, T>) {
            self.received += 1;
        }

        fn on_timer(&mut self, _t: T, ctx: &mut Context<'_, Hop, T>) {
            self.mac_seen = ctx.mac_events();
            if let Some(target) = self.target {
                ctx.unicast(target, Hop(self.sent));
                self.sent += 1;
            }
            ctx.set_timer(SimDuration::from_millis(100), T::Tick);
        }
    }

    #[test]
    fn disabled_contention_is_rng_inert() {
        // An engine with an explicitly-set disabled contention config must
        // replay the untouched engine bit-for-bit (digest and event
        // count), and enabling contention on a contended topology must
        // perturb the digest.
        let run = |contention: Option<ContentionConfig>| {
            let (mut eng, _) = line_engine(20, 40.0);
            if let Some(cfg) = contention {
                eng.set_contention(cfg);
            }
            eng.run_until(SimTime::from_micros(5_000_000));
            (eng.trace().digest(), eng.events_processed())
        };
        assert_eq!(run(Some(ContentionConfig::disabled())), run(None));
        assert_eq!(run(None).0, run(None).0);
        let contended = |enabled: bool| {
            let mut eng = Engine::new(RadioModel::ideal(150.0), EnergyModel::disabled(), 9);
            let cfg = if enabled {
                ContentionConfig::on()
            } else {
                ContentionConfig::disabled()
            };
            eng.set_contention(cfg);
            let b = eng.spawn(Blaster::to(None), Point::new(100.0, 0.0));
            eng.spawn(Blaster::to(Some(b)), Point::ORIGIN);
            eng.spawn(Blaster::to(Some(b)), Point::new(10.0, 0.0));
            eng.run_for(SimDuration::from_secs(10));
            eng.trace().digest()
        };
        assert_ne!(contended(true), contended(false), "contention must be observable");
    }

    #[test]
    fn hidden_terminals_collide_at_the_receiver() {
        // A — 100 m — B — 100 m — C: A and C cannot hear each other
        // (unicast audibility reaches only the 100 m to B), so carrier
        // sense never defers; their synchronized frames overlap at B and
        // every copy is corrupted.
        let mut eng = Engine::new(RadioModel::ideal(150.0), EnergyModel::disabled(), 7);
        eng.set_contention(ContentionConfig::on());
        let b = eng.spawn(Blaster::to(None), Point::new(100.0, 0.0));
        eng.spawn(Blaster::to(Some(b)), Point::ORIGIN);
        eng.spawn(Blaster::to(Some(b)), Point::new(200.0, 0.0));
        eng.run_for(SimDuration::from_secs(10));
        let t = eng.trace();
        assert!(t.mac_collisions() > 0, "hidden terminals must collide");
        assert_eq!(t.mac_defers(), 0, "out of carrier-sense range: no deferrals");
        assert_eq!(eng.node(b).unwrap().received, 0, "every overlapped frame corrupts");
        assert!(
            t.deliveries() < t.scheduled_deliveries(),
            "corrupted frames are scheduled but never delivered"
        );
    }

    #[test]
    fn carrier_sense_defers_and_still_delivers() {
        // Two co-located senders: the second hears the first's frame on
        // the air, defers with backoff, and retries clear of it — traffic
        // gets through without collisions.
        let mut eng = Engine::new(RadioModel::ideal(150.0), EnergyModel::disabled(), 7);
        eng.set_contention(ContentionConfig::on());
        let b = eng.spawn(Blaster::to(None), Point::new(100.0, 0.0));
        let a1 = eng.spawn(Blaster::to(Some(b)), Point::ORIGIN);
        let a2 = eng.spawn(Blaster::to(Some(b)), Point::new(5.0, 0.0));
        eng.run_for(SimDuration::from_secs(10));
        let t = eng.trace();
        assert!(t.mac_defers() > 0, "co-located senders must defer");
        assert_eq!(t.mac_collisions(), 0, "carrier sense prevents the collision");
        let sent = eng.node(a1).unwrap().sent + eng.node(a2).unwrap().sent;
        let received = eng.node(b).unwrap().received;
        // All but the handful still in flight at the deadline arrive.
        assert!(received + 4 >= sent && received > 0, "deferred frames still arrive: {received}/{sent}");
        // The deferring node observed its own congestion signal.
        let seen = eng.node(a1).unwrap().mac_seen + eng.node(a2).unwrap().mac_seen;
        assert!(seen > 0, "ctx.mac_events surfaces deferrals to the protocol");
    }

    #[test]
    fn backoff_exhaustion_drops_frames() {
        // With a zero-retry budget, any busy channel at send time drops
        // the frame outright.
        let mut eng = Engine::new(RadioModel::ideal(150.0), EnergyModel::disabled(), 7);
        eng.set_contention(ContentionConfig { max_backoffs: 0, ..ContentionConfig::on() });
        let b = eng.spawn(Blaster::to(None), Point::new(100.0, 0.0));
        eng.spawn(Blaster::to(Some(b)), Point::ORIGIN);
        eng.spawn(Blaster::to(Some(b)), Point::new(5.0, 0.0));
        eng.run_for(SimDuration::from_secs(10));
        let t = eng.trace();
        assert!(t.mac_backoff_exhausted() > 0, "zero budget must exhaust");
        assert_eq!(t.mac_defers(), 0, "no retries were ever scheduled");
    }

    #[test]
    fn scripted_collide_corrupts_without_contention() {
        // Fate::Collide works with the medium model disabled — the model
        // checker's handle on worst-case collision schedules.
        let mut eng = chatter_pair(crate::faults::FaultConfig::none());
        eng.faults_mut().install_script([(0, Fate::Collide)]);
        eng.run_for(SimDuration::from_secs(1));
        let t = eng.trace();
        assert_eq!(t.mac_collisions(), 1, "the scripted attempt collides");
        let sent = eng.node(NodeId::new(0)).unwrap().sent;
        assert!(
            eng.node(NodeId::new(1)).unwrap().received < sent,
            "the collided frame (attempt 0) never arrived"
        );
        assert!(eng.faults().script().is_empty(), "script entry consumed");
    }

    #[test]
    fn contention_telemetry_counts_mac_classes() {
        let mut eng = Engine::new(RadioModel::ideal(150.0), EnergyModel::disabled(), 7);
        eng.set_contention(ContentionConfig::on());
        let b = eng.spawn(Blaster::to(None), Point::new(100.0, 0.0));
        eng.spawn(Blaster::to(Some(b)), Point::ORIGIN);
        eng.spawn(Blaster::to(Some(b)), Point::new(5.0, 0.0));
        eng.run_for(SimDuration::from_secs(10));
        let rec = &eng.telemetry().recorder;
        assert_eq!(rec.of_class(EventClass::MacDefer), eng.trace().mac_defers());
        assert_eq!(rec.of_class(EventClass::MacCollision), eng.trace().mac_collisions());
    }
}
