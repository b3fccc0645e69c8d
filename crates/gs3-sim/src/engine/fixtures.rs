//! Toy protocols the engine's unit tests share.

use gs3_geometry::Point;

use super::{Context, Engine, Node, Payload};
use crate::faults::FaultConfig;
use crate::ids::NodeId;
use crate::radio::{EnergyModel, RadioModel};
use crate::time::SimDuration;

#[derive(Debug, Clone)]
pub(super) struct Hop(pub(super) u32);
impl Payload for Hop {
    fn kind(&self) -> &'static str {
        "hop"
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(super) enum T {
    Tick,
}

/// A toy flooding protocol: on start, node 0 broadcasts a counter; every
/// node re-broadcasts the first message it hears with counter+1.
#[derive(Debug, Default)]
pub(super) struct Flood {
    pub(super) heard: Option<u32>,
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

    fn on_timer(&mut self, _: T, _ctx: &mut Context<'_, Hop, T>) {}
}

/// `n` flooders on a line, `spacing` apart, over an ideal 100 m radio.
pub(super) fn line_engine(n: usize, spacing: f64) -> (Engine<Flood>, Vec<NodeId>) {
    let mut eng = Engine::new(RadioModel::ideal(100.0), EnergyModel::disabled(), 1);
    let ids =
        (0..n).map(|i| eng.spawn(Flood::default(), Point::new(i as f64 * spacing, 0.0))).collect();
    (eng, ids)
}

/// A chatty protocol for fault testing: node 0 unicasts a counter to its
/// right neighbor every 100 ms, forever.
#[derive(Debug, Default)]
pub(super) struct Chatter {
    pub(super) received: u32,
    pub(super) sent: u32,
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

/// Two [`Chatter`]s 50 m apart under `config`.
pub(super) fn chatter_pair(config: FaultConfig) -> Engine<Chatter> {
    let mut eng = Engine::new(RadioModel::ideal(100.0), EnergyModel::disabled(), 5);
    eng.set_fault_config(config);
    eng.spawn(Chatter::default(), Point::ORIGIN);
    eng.spawn(Chatter::default(), Point::new(50.0, 0.0));
    eng
}

/// A node that sends every 100 ms — a unicast to `target`, else a
/// broadcast of `radius`, else nothing (a pure receiver) — sampling its
/// own congestion signal each tick.
#[derive(Debug, Clone)]
pub(super) struct Blaster {
    pub(super) target: Option<NodeId>,
    pub(super) radius: Option<f64>,
    pub(super) sent: u32,
    pub(super) received: u32,
    pub(super) mac_seen: u64,
}

impl Blaster {
    pub(super) fn to(target: Option<NodeId>) -> Self {
        Blaster { target, radius: None, sent: 0, received: 0, mac_seen: 0 }
    }

    pub(super) fn shouting(radius: f64) -> Self {
        Blaster { radius: Some(radius), ..Blaster::to(None) }
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
        } else if let Some(radius) = self.radius {
            ctx.broadcast(radius, Hop(self.sent));
            self.sent += 1;
        }
        ctx.set_timer(SimDuration::from_millis(100), T::Tick);
    }
}
