//! The effect boundary. A [`Node`] callback never touches the engine: it
//! reads a [`Context`] snapshot and queues [`Action`]s, which
//! [`Engine::with_ctx`] applies in order once it returns.

use super::*;
use crate::radio::BASE_LATENCY;
use gs3_telemetry::NO_PEER;

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
pub(super) enum Action<M, T> {
    Send { dest: Dest, msg: M },
    SetTimer { after: SimDuration, timer: T },
    CancelTimers { timer: T },
    ReserveChannel { radius: f64 },
    ReleaseChannel,
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
        self.actions.push(Action::Send { dest: Dest::Node(to), msg });
    }

    /// Broadcasts `msg` to every node within `radius` (clamped to the radio
    /// maximum); each copy is subject to the broadcast loss rate.
    pub fn broadcast(&mut self, radius: f64, msg: M) {
        self.actions.push(Action::Send { dest: Dest::Disk(radius), msg });
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

    /// Bumps the named protocol counter in the engine [`Trace`] by
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

impl<N: Node> Engine<N> {
    /// Runs a node callback and applies the actions it queued.
    pub(super) fn with_ctx<F>(&mut self, id: NodeId, f: F)
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
            // A node whose send drained its last energy performs nothing further.
            if !self.arena.alive[id.index()] {
                break;
            }
            match action {
                Action::Send { dest, msg } => self.send(id, dest, msg),
                Action::SetTimer { after, timer } => self.arm_timer(id, after, timer),
                // Removal is the whole cancellation: the queued event
                // finds its id absent and drops itself when it fires.
                Action::CancelTimers { timer } => {
                    self.arena.pending_timers[id.index()].retain(|(_, t)| *t != timer);
                }
                Action::ReserveChannel { radius } => {
                    let pos = self.arena.positions[id.index()];
                    if self.channel.request(id, pos, radius) {
                        self.schedule_grant(id);
                    }
                }
                Action::ReleaseChannel => self.release_channel(id),
                Action::Count { name, by } => self.trace.record_proto(name, by),
                Action::Event { kind, data } => {
                    self.record_event(EventClass::Protocol, id, kind, NO_PEER, None, data);
                }
            }
        }
    }

    /// Drops `id`'s channel reservation (or queued request) and schedules
    /// the grant of every waiter that unblocks.
    pub(super) fn release_channel(&mut self, id: NodeId) {
        let mut newly = std::mem::take(&mut self.grant_buf);
        self.channel.release_into(id, &mut newly);
        for &granted in &newly {
            self.schedule_grant(granted);
        }
        newly.clear();
        self.grant_buf = newly;
    }

    /// A grant reaches its owner one base latency after the arbiter decides.
    fn schedule_grant(&mut self, to: NodeId) {
        self.queue.schedule(self.now + BASE_LATENCY, PendingEvent { to, kind: EventKind::ChannelGrant });
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::{Hop, T};
    use super::*;
    use crate::radio::{EnergyModel, RadioModel};
    use gs3_telemetry::RecorderMode;

    #[test]
    fn channel_reservation_serializes() {
        #[derive(Debug, Default)]
        struct Reserver {
            granted_at: Option<SimTime>,
        }
        impl Node for Reserver {
            type Msg = Hop;
            type Timer = T;
            fn on_start(&mut self, ctx: &mut Context<'_, Hop, T>) {
                ctx.reserve_channel(50.0);
            }
            fn on_message(&mut self, _: NodeId, _: Hop, _: &mut Context<'_, Hop, T>) {}
            fn on_timer(&mut self, _: T, _: &mut Context<'_, Hop, T>) {}
            fn on_channel_granted(&mut self, ctx: &mut Context<'_, Hop, T>) {
                self.granted_at = Some(ctx.now());
            }
        }
        // Nobody releases: only mutual exclusion of the initial grants is
        // checked here.
        let mut eng = Engine::new(RadioModel::ideal(200.0), EnergyModel::disabled(), 1);
        let a = eng.spawn(Reserver::default(), Point::ORIGIN);
        let b = eng.spawn(Reserver::default(), Point::new(10.0, 0.0));
        eng.run_until(SimTime::from_micros(50_000));
        let ga = eng.node(a).unwrap().granted_at;
        let gb = eng.node(b).unwrap().granted_at;
        assert_eq!(ga, Some(SimTime::ZERO + BASE_LATENCY), "a grant takes one base latency");
        assert!(gb.is_none(), "conflicting reservation must wait");
        // A death releases the claim; the waiter is granted the same way.
        eng.kill(a).unwrap();
        eng.run_for(SimDuration::from_millis(50));
        assert_eq!(eng.node(b).unwrap().granted_at, Some(SimTime::from_micros(50_000) + BASE_LATENCY));
    }

    #[test]
    fn ctx_event_records_only_in_full_mode() {
        #[derive(Debug, Default)]
        struct Emitter;
        impl Node for Emitter {
            type Msg = Hop;
            type Timer = T;
            fn on_start(&mut self, ctx: &mut Context<'_, Hop, T>) {
                ctx.event("booted", 7);
            }
            fn on_message(&mut self, _: NodeId, _: Hop, _: &mut Context<'_, Hop, T>) {}
            fn on_timer(&mut self, _: T, _: &mut Context<'_, Hop, T>) {}
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
}
