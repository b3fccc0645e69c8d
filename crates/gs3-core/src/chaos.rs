//! Declarative fault plans and the chaos harness.
//!
//! GS³'s central claim is *local self-healing*: the structure recovers from
//! fails, joins, state corruption, and mobility (paper Theorems 8–13). This
//! module turns that from a hand-tested property into a certified one. A
//! [`FaultPlan`] is a time-ordered schedule of fault events — crash waves,
//! jamming windows, state corruption, channel reconfiguration — that
//! [`Network::run_chaos`] executes at the right simulation times while
//! polling the invariant suite. The result is a [`ChaosReport`] carrying
//! per-fault *healing latency* (time from injection until the invariants
//! are clean again), every run counter over the run window, and the run's
//! [`Trace`] digest for bit-reproducibility checks.
//!
//! Everything is deterministic: the same builder seed and the same plan
//! produce the same digest and the same report, delivery for delivery.
//!
//! ```rust
//! use gs3_core::chaos::{FaultKind, FaultPlan};
//! use gs3_core::harness::NetworkBuilder;
//! use gs3_geometry::Point;
//! use gs3_sim::SimDuration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut net = NetworkBuilder::new()
//!     .area_radius(200.0)
//!     .expected_nodes(400)
//!     .seed(7)
//!     .build()?;
//! net.run_to_fixpoint()?;
//! let plan = FaultPlan::new()
//!     .at(SimDuration::from_secs(1), FaultKind::CrashRandom { count: 3 })
//!     .at(SimDuration::from_secs(2), FaultKind::Join { pos: Point::new(50.0, 0.0) });
//! let report = net.run_chaos(&plan);
//! assert_eq!(report.outcomes.len(), 2);
//! # Ok(())
//! # }
//! ```

use gs3_geometry::{Point, Vec2};
use gs3_sim::faults::{BurstLoss, Fate, FaultConfig};
use gs3_sim::telemetry::json::{self, JsonValue, JsonWriter};
use gs3_sim::telemetry::Episode;
use gs3_sim::trace::Trace;
use gs3_sim::{NodeId, SimDuration, SimTime};

use std::collections::BTreeMap;

use crate::harness::Network;
use crate::invariants::{SnapshotIndex, Strictness};
use crate::snapshot::Snapshot;

/// Which head field a [`FaultKind::CorruptState`] event scrambles.
///
/// Each variant violates a different predicate family, exercising a
/// different repair path: a displaced IL breaks the hexagonal relation
/// (`SANITY_CHECK` demotes the head), scrambled hops corrupt the
/// min-distance tree (inter-cell maintenance restores it), and a
/// self-pointing parent breaks the tree itself (`PARENT_SEEK` re-attaches).
#[derive(Debug, Clone, PartialEq)]
pub enum Corruption {
    /// Displace the head's stored ideal location by `offset`.
    Il {
        /// Offset applied to the stored IL.
        offset: Vec2,
    },
    /// Overwrite the head's hop count.
    Hops {
        /// The bogus hop count.
        hops: u32,
    },
    /// Point the head's parent pointer at itself (a one-cycle).
    Parent,
}

/// One fault event a [`FaultPlan`] can schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Fail-stop every alive small node within `radius` of `center`.
    CrashDisk {
        /// Disk center.
        center: Point,
        /// Disk radius, meters.
        radius: f64,
    },
    /// Fail-stop `count` uniformly random alive small nodes (drawn from
    /// the network's seeded RNG — deterministic per seed).
    CrashRandom {
        /// How many nodes to kill.
        count: usize,
    },
    /// Spawn (join/recover) a new small node at `pos`.
    Join {
        /// Where the newcomer boots.
        pos: Point,
    },
    /// Overwrite the remaining energy of every alive small node within
    /// `radius` of `center` (only meaningful with energy accounting on).
    EnergyShock {
        /// Disk center.
        center: Point,
        /// Disk radius, meters.
        radius: f64,
        /// The energy level every victim is set to.
        energy: f64,
    },
    /// Corrupt the state of the alive non-big head closest to `near`.
    CorruptState {
        /// Picks the victim: the closest currently-serving small head.
        near: Point,
        /// What to scramble.
        corruption: Corruption,
    },
    /// Teleport the big node to `to` (GS³-M mobility step).
    MoveBig {
        /// Destination.
        to: Point,
    },
    /// Start jamming the disk of `radius` around `center`; `label` names
    /// the jam for a later [`FaultKind::StopJam`].
    StartJam {
        /// Plan-local jam name.
        label: u32,
        /// Disk center.
        center: Point,
        /// Disk radius, meters.
        radius: f64,
    },
    /// Stop the jam started under `label`.
    StopJam {
        /// The [`FaultKind::StartJam`] label to stop.
        label: u32,
    },
    /// Replace the adversarial-channel configuration (burst loss, unicast
    /// loss, duplication, delay) from this point on.
    SetChannel {
        /// The new configuration.
        config: FaultConfig,
    },
    /// Fail-stop one specific node by id. The model checker's precise
    /// crash-replay primitive: where [`FaultKind::CrashRandom`] draws
    /// victims from the harness RNG, this kills exactly the node a
    /// counterexample named.
    CrashNode {
        /// The victim (killing an already-dead or unknown id is a no-op).
        id: NodeId,
    },
    /// Install scripted per-attempt delivery fates (see
    /// [`gs3_sim::faults::Fate`]). Attempt indices are global and
    /// deterministic for a given seed, so a script recorded by the model
    /// checker replays verbatim through the ordinary chaos harness.
    SetScript {
        /// `(attempt index, fate)` pairs, merged into any installed script.
        ops: Vec<(u64, Fate)>,
    },
}

impl FaultKind {
    /// A short stable name for reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::CrashDisk { .. } => "crash_disk",
            FaultKind::CrashRandom { .. } => "crash_random",
            FaultKind::Join { .. } => "join",
            FaultKind::EnergyShock { .. } => "energy_shock",
            FaultKind::CorruptState { .. } => "corrupt_state",
            FaultKind::MoveBig { .. } => "move_big",
            FaultKind::StartJam { .. } => "start_jam",
            FaultKind::StopJam { .. } => "stop_jam",
            FaultKind::SetChannel { .. } => "set_channel",
            FaultKind::CrashNode { .. } => "crash_node",
            FaultKind::SetScript { .. } => "set_script",
        }
    }
}

/// One scheduled fault: `kind` injected `after` the start of the chaos
/// run.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedFault {
    /// Offset from the start of [`Network::run_chaos`].
    pub after: SimDuration,
    /// The fault to inject.
    pub kind: FaultKind,
}

/// A time-ordered schedule of fault events.
///
/// Times are offsets from the moment `run_chaos` is called, so a plan is
/// independent of how long initial configuration took. Events at equal
/// times fire in insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<PlannedFault>,
}

impl FaultPlan {
    /// An empty plan.
    #[must_use]
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules `kind` to fire `after` the start of the chaos run.
    #[must_use]
    pub fn at(mut self, after: SimDuration, kind: FaultKind) -> Self {
        self.events.push(PlannedFault { after, kind });
        self
    }

    /// The scheduled events, in insertion order.
    #[must_use]
    pub fn events(&self) -> &[PlannedFault] {
        &self.events
    }

    /// Number of scheduled events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The offset of the last event (ZERO for an empty plan).
    #[must_use]
    pub fn span(&self) -> SimDuration {
        self.events.iter().map(|e| e.after).max().unwrap_or(SimDuration::ZERO)
    }

    /// Serializes the plan to a deterministic JSON document.
    ///
    /// Durations are integer microseconds; floats use Rust's
    /// shortest-round-trip formatting, so [`FaultPlan::from_json`] on the
    /// output reconstructs a structurally equal plan (the property the
    /// model checker's counterexample fixtures rely on).
    #[must_use]
    pub fn to_json(&self) -> String {
        json::to_string(|w| self.write_json(w))
    }

    /// Writes the [`FaultPlan::to_json`] document in place.
    pub fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            w.key("version").u64(1);
            w.key("events").array(|w| {
                for e in &self.events {
                    w.object(|w| {
                        w.key("after_us").u64(e.after.as_micros());
                        w.key("kind").str(e.kind.name());
                        e.kind.write_fields(w);
                    });
                }
            });
        });
    }

    /// Parses a plan previously produced by [`FaultPlan::to_json`] (or
    /// written by hand — `gs3 chaos --plan FILE` loads this format).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the document is not valid
    /// JSON or does not match the plan schema.
    pub fn from_json(input: &str) -> Result<Self, String> {
        Self::from_value(&json::parse(input).map_err(|e| e.to_string())?)
    }

    /// Builds a plan from an already parsed document — the whole file, or
    /// the `plan` member of a gs3-mc counterexample.
    ///
    /// # Errors
    ///
    /// Names the event index and field of the first value that is
    /// missing, of the wrong type, or out of range (integers that do not
    /// fit their field, channel knobs that fail
    /// [`FaultConfig::validate`]).
    pub fn from_value(doc: &JsonValue) -> Result<Self, String> {
        let version = doc
            .get("version")
            .and_then(JsonValue::as_u64)
            .ok_or("missing numeric \"version\"")?;
        if version != 1 {
            return Err(format!("unsupported plan version {version}"));
        }
        let events = doc.get("events").and_then(JsonValue::as_arr).ok_or("missing \"events\" array")?;
        let mut plan = FaultPlan::new();
        for (event, v) in events.iter().enumerate() {
            let ev = Obj { v, event, path: String::new() };
            let after = SimDuration::from_micros(ev.int("after_us")?);
            plan = plan.at(after, FaultKind::from_obj(&ev)?);
        }
        Ok(plan)
    }
}

/// One JSON object inside a plan event, with the dotted path that locates
/// it in error messages.
struct Obj<'a> {
    v: &'a JsonValue,
    event: usize,
    path: String,
}

impl<'a> Obj<'a> {
    fn req<T>(
        &self,
        field: &str,
        conv: impl FnOnce(&'a JsonValue) -> Option<T>,
    ) -> Result<T, String> {
        self.v.get(field).and_then(conv).ok_or_else(|| {
            format!("event {}: missing or malformed \"{}{field}\"", self.event, self.path)
        })
    }

    fn f64(&self, field: &str) -> Result<f64, String> {
        self.req(field, JsonValue::as_f64)
    }

    /// A non-negative integer that fits `T` (no silent narrowing).
    fn int<T: TryFrom<u64>>(&self, field: &str) -> Result<T, String> {
        self.req(field, |v| T::try_from(v.as_u64()?).ok())
    }

    fn str(&self, field: &str) -> Result<&'a str, String> {
        self.req(field, JsonValue::as_str)
    }

    /// A two-element `[x, y]` array.
    fn pair(&self, field: &str) -> Result<(f64, f64), String> {
        self.req(field, |v| match v.as_arr()? {
            [x, y] => Some((x.as_f64()?, y.as_f64()?)),
            _ => None,
        })
    }

    fn point(&self, field: &str) -> Result<Point, String> {
        self.pair(field).map(|(x, y)| Point::new(x, y))
    }

    fn obj(&self, field: &str) -> Result<Obj<'a>, String> {
        let path = format!("{}{field}.", self.path);
        self.req(field, |v| v.as_obj().map(|_| Obj { v, event: self.event, path }))
    }
}

fn write_pair(w: &mut JsonWriter<'_>, x: f64, y: f64) {
    w.array(|w| {
        w.f64(x).f64(y);
    });
}

/// Writes `fate` as members of the current object: `"fate":"<name>"`,
/// plus `"delay_us"` for [`Fate::Delay`]. The one `Fate` encoding, shared
/// by plan scripts and gs3-mc's choice traces.
pub fn write_fate_fields(w: &mut JsonWriter<'_>, fate: Fate) {
    let name = match fate {
        Fate::Deliver => "deliver",
        Fate::Drop => "drop",
        Fate::Duplicate => "duplicate",
        Fate::Delay(_) => "delay",
        Fate::Collide => "collide",
    };
    w.key("fate").str(name);
    if let Fate::Delay(d) = fate {
        w.key("delay_us").u64(d.as_micros());
    }
}

impl FaultKind {
    /// Writes the kind-specific members of a plan event.
    fn write_fields(&self, w: &mut JsonWriter<'_>) {
        match self {
            FaultKind::CrashDisk { center, radius } => {
                write_pair(w.key("center"), center.x, center.y);
                w.key("radius").f64(*radius);
            }
            FaultKind::CrashRandom { count } => {
                w.key("count").u64(*count as u64);
            }
            FaultKind::Join { pos } => write_pair(w.key("pos"), pos.x, pos.y),
            FaultKind::EnergyShock { center, radius, energy } => {
                write_pair(w.key("center"), center.x, center.y);
                w.key("radius").f64(*radius);
                w.key("energy").f64(*energy);
            }
            FaultKind::CorruptState { near, corruption } => {
                write_pair(w.key("near"), near.x, near.y);
                w.key("corruption").object(|w| match corruption {
                    Corruption::Il { offset } => {
                        w.key("what").str("il");
                        write_pair(w.key("offset"), offset.x, offset.y);
                    }
                    Corruption::Hops { hops } => {
                        w.key("what").str("hops");
                        w.key("hops").u64((*hops).into());
                    }
                    Corruption::Parent => {
                        w.key("what").str("parent");
                    }
                });
            }
            FaultKind::MoveBig { to } => write_pair(w.key("to"), to.x, to.y),
            FaultKind::StartJam { label, center, radius } => {
                w.key("label").u64((*label).into());
                write_pair(w.key("center"), center.x, center.y);
                w.key("radius").f64(*radius);
            }
            FaultKind::StopJam { label } => {
                w.key("label").u64((*label).into());
            }
            FaultKind::SetChannel { config } => {
                w.key("config").object(|w| {
                    w.key("burst").object(|w| {
                        w.key("p_enter").f64(config.burst.p_enter);
                        w.key("p_exit").f64(config.burst.p_exit);
                        w.key("loss_good").f64(config.burst.loss_good);
                        w.key("loss_bad").f64(config.burst.loss_bad);
                    });
                    w.key("unicast_loss").f64(config.unicast_loss);
                    w.key("duplicate").f64(config.duplicate);
                    w.key("delay_prob").f64(config.delay_prob);
                    w.key("delay_max_us").u64(config.delay_max.as_micros());
                });
            }
            FaultKind::CrashNode { id } => {
                w.key("id").u64(id.raw());
            }
            FaultKind::SetScript { ops } => {
                w.key("ops").array(|w| {
                    for &(attempt, fate) in ops {
                        w.object(|w| {
                            w.key("attempt").u64(attempt);
                            write_fate_fields(w, fate);
                        });
                    }
                });
            }
        }
    }

    /// Reads the `kind` member of a plan event and that kind's members.
    fn from_obj(ev: &Obj<'_>) -> Result<Self, String> {
        let i = ev.event;
        Ok(match ev.str("kind")? {
            "crash_disk" => {
                FaultKind::CrashDisk { center: ev.point("center")?, radius: ev.f64("radius")? }
            }
            "crash_random" => FaultKind::CrashRandom { count: ev.int("count")? },
            "join" => FaultKind::Join { pos: ev.point("pos")? },
            "energy_shock" => FaultKind::EnergyShock {
                center: ev.point("center")?,
                radius: ev.f64("radius")?,
                energy: ev.f64("energy")?,
            },
            "corrupt_state" => {
                let c = ev.obj("corruption")?;
                let corruption = match c.str("what")? {
                    "il" => {
                        let (x, y) = c.pair("offset")?;
                        Corruption::Il { offset: Vec2::new(x, y) }
                    }
                    "hops" => Corruption::Hops { hops: c.int("hops")? },
                    "parent" => Corruption::Parent,
                    other => return Err(format!("event {i}: unknown corruption {other:?}")),
                };
                FaultKind::CorruptState { near: ev.point("near")?, corruption }
            }
            "move_big" => FaultKind::MoveBig { to: ev.point("to")? },
            "start_jam" => FaultKind::StartJam {
                label: ev.int("label")?,
                center: ev.point("center")?,
                radius: ev.f64("radius")?,
            },
            "stop_jam" => FaultKind::StopJam { label: ev.int("label")? },
            "set_channel" => {
                let c = ev.obj("config")?;
                let b = c.obj("burst")?;
                let config = FaultConfig {
                    burst: BurstLoss {
                        p_enter: b.f64("p_enter")?,
                        p_exit: b.f64("p_exit")?,
                        loss_good: b.f64("loss_good")?,
                        loss_bad: b.f64("loss_bad")?,
                    },
                    unicast_loss: c.f64("unicast_loss")?,
                    duplicate: c.f64("duplicate")?,
                    delay_prob: c.f64("delay_prob")?,
                    delay_max: SimDuration::from_micros(c.int("delay_max_us")?),
                };
                config.validate().map_err(|e| format!("event {i}: config.{e}"))?;
                FaultKind::SetChannel { config }
            }
            "crash_node" => FaultKind::CrashNode { id: NodeId::new(ev.int("id")?) },
            "set_script" => {
                let raw = ev.req("ops", JsonValue::as_arr)?;
                let mut ops = Vec::with_capacity(raw.len());
                for (j, v) in raw.iter().enumerate() {
                    let op = Obj { v, event: i, path: format!("ops[{j}].") };
                    let fate = match op.str("fate")? {
                        "deliver" => Fate::Deliver,
                        "drop" => Fate::Drop,
                        "duplicate" => Fate::Duplicate,
                        "delay" => Fate::Delay(SimDuration::from_micros(op.int("delay_us")?)),
                        "collide" => Fate::Collide,
                        other => return Err(format!("event {i}: unknown fate {other:?}")),
                    };
                    ops.push((op.int("attempt")?, fate));
                }
                FaultKind::SetScript { ops }
            }
            other => return Err(format!("event {i}: unknown fault kind {other:?}")),
        })
    }
}

/// Pacing knobs for [`Network::run_chaos_with`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosOptions {
    /// How often the oracle (invariant suite) is polled.
    pub poll: SimDuration,
    /// How long past the last scheduled event the run keeps polling for
    /// the structure to heal before giving up.
    pub settle: SimDuration,
}

impl ChaosOptions {
    /// Defaults sized to a configuration: poll every intra-cell heartbeat,
    /// settle for 300 s (covering the failure-detection and sanity-check
    /// windows several times over).
    #[must_use]
    pub fn for_config(cfg: &crate::config::Gs3Config) -> Self {
        ChaosOptions { poll: cfg.intra_heartbeat, settle: SimDuration::from_secs(300) }
    }
}

/// What happened to one injected fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultOutcome {
    /// The fault's stable name (see [`FaultKind::name`]).
    pub kind: &'static str,
    /// Human-readable specifics of the injection.
    pub detail: String,
    /// Absolute simulation time of injection.
    pub injected_at: SimTime,
    /// Nodes this fault killed (crash/shock faults; 0 otherwise).
    pub killed: usize,
    /// Time from injection until the oracle next reported zero violations
    /// — the fault's *healing latency*. `None` when the structure never
    /// came clean before the settle deadline.
    pub heal_latency: Option<SimDuration>,
    /// The telemetry episode opened for this fault (`None` for
    /// channel-shaping faults — jams and channel reconfiguration perturb
    /// the medium, not the structure, so no causal taint is seeded).
    pub episode: Option<u32>,
}

/// The structured result of a chaos run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// When the chaos run started.
    pub started: SimTime,
    /// When it finished (early when everything healed).
    pub finished: SimTime,
    /// Per-fault outcomes, in injection order.
    pub outcomes: Vec<FaultOutcome>,
    /// Violations at the final poll.
    pub final_violations: usize,
    /// The worst violation count seen at any poll.
    pub max_violations: usize,
    /// How many oracle polls ran.
    pub polls: u32,
    /// The engine's [`Trace`] digest at finish —
    /// compare across runs to assert bit-reproducibility.
    pub digest: u64,
    /// Every run counter over the run window: the engine trace at the
    /// finish [`since`](Trace::since) the one at the start, so message
    /// kinds and protocol counters that did not move are absent.
    pub counters: Trace,
    /// Healing episodes opened during the run (per-perturbation healing
    /// latency, message cost, and spatial radius — the empirical side of
    /// the paper's locality theorems). Episodes still open at the finish
    /// keep `closed_us = None`.
    pub episodes: Vec<Episode>,
}

impl ChaosReport {
    /// True when every fault healed and the final poll was clean — the
    /// self-healing certificate.
    #[must_use]
    pub fn healed(&self) -> bool {
        self.final_violations == 0 && self.outcomes.iter().all(|o| o.heal_latency.is_some())
    }

    /// The worst per-fault healing latency (None when nothing healed or
    /// nothing was injected).
    #[must_use]
    pub fn max_heal_latency(&self) -> Option<SimDuration> {
        self.outcomes.iter().filter_map(|o| o.heal_latency).max()
    }

    /// Serializes the report as a JSON object (stable key order).
    #[must_use]
    pub fn to_json(&self) -> String {
        json::to_string(|w| self.write_json(w))
    }

    /// Writes the [`ChaosReport::to_json`] object in place.
    pub fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            w.key("started_us").u64(self.started.as_micros());
            w.key("finished_us").u64(self.finished.as_micros());
            w.key("healed").bool(self.healed());
            w.key("final_violations").u64(self.final_violations as u64);
            w.key("max_violations").u64(self.max_violations as u64);
            w.key("polls").u64(self.polls.into());
            w.key("digest").str(&format!("{:016x}", self.digest));
            self.counters.write_json(w.key("counters"));
            w.key("faults").array(|w| {
                for o in &self.outcomes {
                    w.object(|w| {
                        w.key("kind").str(o.kind);
                        w.key("detail").str(&o.detail);
                        w.key("injected_at_us").u64(o.injected_at.as_micros());
                        w.key("killed").u64(o.killed as u64);
                        w.key("heal_latency_us").opt_u64(o.heal_latency.map(SimDuration::as_micros));
                        w.key("episode").opt_u64(o.episode.map(u64::from));
                    });
                }
            });
            w.key("episodes").array(|w| {
                for ep in &self.episodes {
                    ep.write_json(w);
                }
            });
        });
    }
}

impl Network {
    /// Runs `plan` against this network, polling the full invariant suite
    /// at [`Strictness::Dynamic`], and returns the [`ChaosReport`].
    ///
    /// Pacing comes from [`ChaosOptions::for_config`]. The run ends early
    /// once every event fired and the structure polled clean, and gives up
    /// `settle` after the last event otherwise.
    pub fn run_chaos(&mut self, plan: &FaultPlan) -> ChaosReport {
        let opts = ChaosOptions::for_config(self.config());
        self.run_chaos_opts(plan, opts)
    }

    /// [`Network::run_chaos`] with explicit pacing but the standard
    /// invariant oracle — for runs whose settle window must outlast the
    /// default (congestion-stretched timers heal correctly but slowly).
    ///
    /// The oracle reads the network's cached verdict, so a poll that finds
    /// the structure unchanged since the previous one re-runs no check.
    pub fn run_chaos_opts(&mut self, plan: &FaultPlan, opts: ChaosOptions) -> ChaosReport {
        self.chaos_loop(plan, opts, |net| net.verdict(Strictness::Dynamic).len())
    }

    /// [`Network::run_chaos`] with explicit pacing and a custom oracle.
    ///
    /// The oracle maps the network's [`view`](Network::view) — the polled
    /// snapshot and its index — to a violation count; zero means the
    /// structure is currently sound. Every fault injected since the last
    /// clean poll is credited with a healing latency at the next clean
    /// poll.
    pub fn run_chaos_with<F>(
        &mut self,
        plan: &FaultPlan,
        opts: ChaosOptions,
        mut oracle: F,
    ) -> ChaosReport
    where
        F: FnMut(&Snapshot, &SnapshotIndex) -> usize,
    {
        self.chaos_loop(plan, opts, |net| {
            let (snap, idx) = net.view();
            oracle(snap, idx)
        })
    }

    /// The one chaos loop: runs `plan`, calling `poll` for the violation
    /// count at every oracle tick.
    fn chaos_loop(
        &mut self,
        plan: &FaultPlan,
        opts: ChaosOptions,
        mut poll: impl FnMut(&mut Network) -> usize,
    ) -> ChaosReport {
        assert!(!opts.poll.is_zero(), "the oracle poll period must be positive");
        let start = self.now();
        let trace0 = self.engine().trace().clone();
        // Stable sort by offset: equal-time events keep insertion order.
        let mut events: Vec<&PlannedFault> = plan.events().iter().collect();
        events.sort_by_key(|e| e.after);
        let deadline = start + plan.span() + opts.settle;

        let mut jams: BTreeMap<u32, u64> = BTreeMap::new();
        let mut outcomes: Vec<FaultOutcome> = Vec::new();
        let mut pending: Vec<usize> = Vec::new();
        let mut next_event = 0usize;
        let mut next_poll = start + opts.poll;
        let mut polls = 0u32;
        let mut max_violations = 0usize;
        // Every loop exit is dominated by a poll, so this is always
        // assigned before the report is built.
        let mut final_violations;

        loop {
            let event_at = events.get(next_event).map(|e| start + e.after);
            let target = match event_at {
                Some(t) if t <= next_poll => t,
                _ => next_poll.min(deadline),
            };
            self.engine_mut().run_until(target);
            if event_at == Some(target) {
                while let Some(e) = events.get(next_event) {
                    if start + e.after != target {
                        break;
                    }
                    let outcome = self.apply_fault(&e.kind, &mut jams);
                    pending.push(outcomes.len());
                    outcomes.push(outcome);
                    next_event += 1;
                }
                // Restart the poll clock so healing is never measured at
                // the injection instant itself (detection timeouts have
                // had no chance to fire yet).
                next_poll = target + opts.poll;
                continue;
            }
            polls += 1;
            let violations = poll(self);
            max_violations = max_violations.max(violations);
            final_violations = violations;
            if violations == 0 {
                for &i in &pending {
                    outcomes[i].heal_latency = Some(target.since(outcomes[i].injected_at));
                }
                pending.clear();
                // The same clean poll that credits healing latencies closes
                // the telemetry episodes (recording their latency into the
                // heal-latency histogram).
                self.engine_mut().close_episodes();
            }
            if target >= deadline || (next_event >= events.len() && pending.is_empty()) {
                break;
            }
            next_poll = target + opts.poll;
        }

        let trace = self.engine().trace();
        let started_us = start.as_micros();
        let episodes: Vec<Episode> = self
            .engine()
            .telemetry()
            .episodes
            .episodes()
            .iter()
            .filter(|e| e.opened_us >= started_us)
            .cloned()
            .collect();
        ChaosReport {
            started: start,
            finished: self.now(),
            outcomes,
            final_violations,
            max_violations,
            polls,
            digest: trace.digest(),
            counters: trace.since(&trace0),
            episodes,
        }
    }

    /// Executes one fault event now and describes what it did.
    ///
    /// Structural faults open a telemetry episode labelled with the
    /// fault's name and seed its causal taint set: crash faults taint the
    /// survivors within one cell radius (`R + R_t`) of each victim — the
    /// farthest a steady-state dialogue partner (cell-mate or neighbor
    /// head) can be, i.e. the nodes that will observe the silence and
    /// react. Joins and state corruption taint the perturbed node itself,
    /// and big-node moves taint both endpoints of the hop. Channel-shaping
    /// faults (jam / channel config) seed no episode — they perturb the
    /// medium, not the structure.
    pub fn apply_fault(&mut self, kind: &FaultKind, jams: &mut BTreeMap<u32, u64>) -> FaultOutcome {
        let now = self.now();
        let detect = self.config().r + self.config().r_t;
        let mut episode = None;
        let (detail, killed) = match kind {
            FaultKind::CrashDisk { center, radius } => {
                let victims = self.kill_disk(*center, *radius);
                let ep = self.engine_mut().open_episode(kind.name());
                // Seed the ring of survivors around the hole: the grid
                // holds only alive nodes, so the dead disk itself stays
                // untainted (the dead cannot send anyway).
                self.engine_mut().taint_episode_near(ep, *center, radius + detect);
                episode = Some(ep);
                (format!("killed {} nodes in r={radius} at {center}", victims.len()), victims.len())
            }
            FaultKind::CrashRandom { count } => {
                let victims = self.kill_random(*count);
                let ep = self.engine_mut().open_episode(kind.name());
                for id in &victims {
                    if let Ok(pos) = self.engine().position(*id) {
                        self.engine_mut().taint_episode_near(ep, pos, detect);
                    }
                }
                episode = Some(ep);
                (format!("killed {} random nodes", victims.len()), victims.len())
            }
            FaultKind::Join { pos } => {
                let id = self.join_node(*pos);
                let ep = self.engine_mut().open_episode(kind.name());
                self.engine_mut().taint_episode_near(ep, *pos, 1e-9);
                self.engine_mut().taint_episode_node(ep, id);
                episode = Some(ep);
                (format!("joined {id} at {pos}"), 0)
            }
            FaultKind::EnergyShock { center, radius, energy } => {
                let victims: Vec<NodeId> = self
                    .engine()
                    .alive_ids()
                    .filter(|id| {
                        !self.big_ids().contains(id)
                            && self
                                .engine()
                                .position(*id)
                                .map(|p| center.distance(p) <= *radius)
                                .unwrap_or(false)
                    })
                    .collect();
                for id in &victims {
                    self.set_energy(*id, *energy);
                }
                let ep = self.engine_mut().open_episode(kind.name());
                self.engine_mut().taint_episode_near(ep, *center, *radius);
                episode = Some(ep);
                (format!("set {} nodes in r={radius} at {center} to energy {energy}", victims.len()), 0)
            }
            FaultKind::CorruptState { near, corruption } => {
                let victim = {
                    let snap = self.snapshot();
                    let mut best: Option<(NodeId, f64)> = None;
                    for h in snap.heads().filter(|h| !h.is_big && h.alive) {
                        let d = near.distance(h.pos);
                        if best.map(|(_, bd)| d < bd).unwrap_or(true) {
                            best = Some((h.id, d));
                        }
                    }
                    best.map(|(id, _)| id)
                };
                match victim {
                    None => ("no alive small head to corrupt".to_string(), 0),
                    Some(id) => {
                        let (what, ok) = match corruption {
                            Corruption::Il { offset } => {
                                ("il", self.corrupt_head_il(id, *offset))
                            }
                            Corruption::Hops { hops } => {
                                ("hops", self.corrupt_head_hops(id, *hops))
                            }
                            Corruption::Parent => ("parent", self.corrupt_head_parent(id)),
                        };
                        debug_assert!(ok, "victim was selected as a head");
                        let ep = self.engine_mut().open_episode(kind.name());
                        if let Ok(pos) = self.engine().position(id) {
                            self.engine_mut().taint_episode_near(ep, pos, 1e-9);
                        }
                        self.engine_mut().taint_episode_node(ep, id);
                        episode = Some(ep);
                        (format!("corrupted {what} of head {id}"), 0)
                    }
                }
            }
            FaultKind::MoveBig { to } => {
                let from = self
                    .engine()
                    .position(self.big_id())
                    .unwrap_or(*to);
                self.move_big(*to);
                let ep = self.engine_mut().open_episode(kind.name());
                self.engine_mut().taint_episode_near(ep, from, detect);
                self.engine_mut().taint_episode_near(ep, *to, detect);
                let big = self.big_id();
                self.engine_mut().taint_episode_node(ep, big);
                episode = Some(ep);
                (format!("moved big node to {to}"), 0)
            }
            FaultKind::StartJam { label, center, radius } => {
                let handle = self.start_jam(*center, *radius);
                jams.insert(*label, handle);
                (format!("jam {label}: r={radius} at {center}"), 0)
            }
            FaultKind::StopJam { label } => match jams.remove(label) {
                Some(handle) => {
                    self.stop_jam(handle);
                    (format!("stopped jam {label}"), 0)
                }
                None => (format!("jam {label} was never started"), 0),
            },
            FaultKind::SetChannel { config } => {
                let desc = format!(
                    "channel: burst(p_enter={}, mean={:.1}) unicast_loss={} dup={} delay={}",
                    config.burst.p_enter,
                    config.burst.mean_burst(),
                    config.unicast_loss,
                    config.duplicate,
                    config.delay_prob
                );
                self.set_fault_config(config.clone());
                (desc, 0)
            }
            FaultKind::CrashNode { id } => {
                if self.engine().is_alive(*id).unwrap_or(false) {
                    let pos = self.engine().position(*id).ok();
                    self.engine_mut().kill(*id).expect("liveness was just checked");
                    let ep = self.engine_mut().open_episode(kind.name());
                    if let Some(p) = pos {
                        self.engine_mut().taint_episode_near(ep, p, detect);
                    }
                    episode = Some(ep);
                    (format!("killed node {id}"), 1)
                } else {
                    (format!("node {id} already dead or unknown"), 0)
                }
            }
            FaultKind::SetScript { ops } => {
                self.engine_mut().faults_mut().install_script(ops.iter().copied());
                (format!("installed {} scripted delivery fates", ops.len()), 0)
            }
        };
        FaultOutcome { kind: kind.name(), detail, injected_at: now, killed, heal_latency: None, episode }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::NetworkBuilder;

    fn small_net(seed: u64) -> Network {
        NetworkBuilder::new()
            .ideal_radius(80.0)
            .radius_tolerance(18.0)
            .area_radius(180.0)
            .expected_nodes(320)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn plan_builder_orders_and_spans() {
        let plan = FaultPlan::new()
            .at(SimDuration::from_secs(10), FaultKind::CrashRandom { count: 1 })
            .at(SimDuration::from_secs(5), FaultKind::Join { pos: Point::ORIGIN });
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
        assert_eq!(plan.span(), SimDuration::from_secs(10));
        assert_eq!(plan.events()[0].kind.name(), "crash_random");
    }

    #[test]
    fn plan_json_round_trips_every_kind() {
        let plan = FaultPlan::new()
            .at(
                SimDuration::from_millis(1500),
                FaultKind::CrashDisk { center: Point::new(12.5, -3.25), radius: 40.0 },
            )
            .at(SimDuration::from_secs(2), FaultKind::CrashRandom { count: 3 })
            .at(SimDuration::from_secs(3), FaultKind::Join { pos: Point::new(0.1, 0.2) })
            .at(
                SimDuration::from_secs(4),
                FaultKind::EnergyShock {
                    center: Point::new(-7.0, 8.0),
                    radius: 25.0,
                    energy: 0.125,
                },
            )
            .at(
                SimDuration::from_secs(5),
                FaultKind::CorruptState {
                    near: Point::ORIGIN,
                    corruption: Corruption::Il { offset: Vec2::new(3.0, -4.0) },
                },
            )
            .at(
                SimDuration::from_secs(6),
                FaultKind::CorruptState {
                    near: Point::new(1.0, 1.0),
                    corruption: Corruption::Hops { hops: 9 },
                },
            )
            .at(
                SimDuration::from_secs(7),
                FaultKind::CorruptState { near: Point::new(2.0, 2.0), corruption: Corruption::Parent },
            )
            .at(SimDuration::from_secs(8), FaultKind::MoveBig { to: Point::new(55.0, 66.0) })
            .at(
                SimDuration::from_secs(9),
                FaultKind::StartJam { label: 4, center: Point::new(10.0, 10.0), radius: 30.0 },
            )
            .at(SimDuration::from_secs(10), FaultKind::StopJam { label: 4 })
            .at(
                SimDuration::from_secs(11),
                FaultKind::SetChannel {
                    config: FaultConfig {
                        burst: gs3_sim::faults::BurstLoss::bursty(0.05, 3.0),
                        unicast_loss: 0.01,
                        duplicate: 0.02,
                        delay_prob: 0.1,
                        delay_max: SimDuration::from_millis(250),
                    },
                },
            )
            .at(SimDuration::from_secs(12), FaultKind::CrashNode { id: NodeId::new(17) })
            .at(
                SimDuration::from_secs(13),
                FaultKind::SetScript {
                    ops: vec![
                        (0, Fate::Drop),
                        (3, Fate::Duplicate),
                        (5, Fate::Deliver),
                        (9, Fate::Delay(SimDuration::from_millis(40))),
                        (11, Fate::Collide),
                    ],
                },
            );
        let json = plan.to_json();
        // Golden captured before the move onto `JsonWriter`: plan bytes are
        // a contract (committed counterexample fixtures embed them).
        assert_eq!(
            json,
            r#"{"version":1,"events":[{"after_us":1500000,"kind":"crash_disk","center":[12.5,-3.25],"radius":40.0},{"after_us":2000000,"kind":"crash_random","count":3},{"after_us":3000000,"kind":"join","pos":[0.1,0.2]},{"after_us":4000000,"kind":"energy_shock","center":[-7.0,8.0],"radius":25.0,"energy":0.125},{"after_us":5000000,"kind":"corrupt_state","near":[0.0,0.0],"corruption":{"what":"il","offset":[3.0,-4.0]}},{"after_us":6000000,"kind":"corrupt_state","near":[1.0,1.0],"corruption":{"what":"hops","hops":9}},{"after_us":7000000,"kind":"corrupt_state","near":[2.0,2.0],"corruption":{"what":"parent"}},{"after_us":8000000,"kind":"move_big","to":[55.0,66.0]},{"after_us":9000000,"kind":"start_jam","label":4,"center":[10.0,10.0],"radius":30.0},{"after_us":10000000,"kind":"stop_jam","label":4},{"after_us":11000000,"kind":"set_channel","config":{"burst":{"p_enter":0.05,"p_exit":0.3333333333333333,"loss_good":0.0,"loss_bad":1.0},"unicast_loss":0.01,"duplicate":0.02,"delay_prob":0.1,"delay_max_us":250000}},{"after_us":12000000,"kind":"crash_node","id":17},{"after_us":13000000,"kind":"set_script","ops":[{"attempt":0,"fate":"drop"},{"attempt":3,"fate":"duplicate"},{"attempt":5,"fate":"deliver"},{"attempt":9,"fate":"delay","delay_us":40000},{"attempt":11,"fate":"collide"}]}]}"#
        );
        let back = FaultPlan::from_json(&json).expect("round trip parses");
        assert_eq!(back, plan);
    }

    #[test]
    fn plan_from_json_rejects_malformed() {
        assert!(FaultPlan::from_json("not json").is_err());
        assert!(FaultPlan::from_json("{\"events\":[]}").is_err(), "missing version");
        assert!(FaultPlan::from_json("{\"version\":2,\"events\":[]}").is_err());
        assert!(
            FaultPlan::from_json(
                "{\"version\":1,\"events\":[{\"after_us\":0,\"kind\":\"bogus\"}]}"
            )
            .is_err()
        );
        let empty = FaultPlan::from_json("{\"version\":1,\"events\":[]}").unwrap();
        assert!(empty.is_empty());

        // Integers that do not fit their field are rejected by name, never
        // narrowed (4294967297 used to load as hops = 1).
        let event = |body: &str| {
            FaultPlan::from_json(&format!(
                "{{\"version\":1,\"events\":[{{\"after_us\":0,{body}}}]}}"
            ))
        };
        let err = event(
            "\"kind\":\"corrupt_state\",\"near\":[0,0],\
             \"corruption\":{\"what\":\"hops\",\"hops\":4294967297}",
        )
        .unwrap_err();
        assert!(err.contains("event 0") && err.contains("corruption.hops"), "{err}");
        let err = event("\"kind\":\"stop_jam\",\"label\":4294967296").unwrap_err();
        assert!(err.contains("\"label\""), "{err}");
        assert!(event("\"kind\":\"stop_jam\",\"label\":4294967295").is_ok());

        // Channel knobs go through `FaultConfig::validate`; the error names
        // the event and the field instead of panicking in the engine later.
        let channel = |burst: &str, unicast_loss: &str| {
            event(&format!(
                "\"kind\":\"set_channel\",\"config\":{{\"burst\":{{{burst}}},\
                 \"unicast_loss\":{unicast_loss},\"duplicate\":0,\"delay_prob\":0,\
                 \"delay_max_us\":0}}"
            ))
        };
        let off = "\"p_enter\":0,\"p_exit\":1,\"loss_good\":0,\"loss_bad\":1";
        assert!(channel(off, "0.02").is_ok());
        let err = channel(off, "-3.0").unwrap_err();
        assert!(err.contains("event 0") && err.contains("config.unicast_loss"), "{err}");
        let err =
            channel("\"p_enter\":0.1,\"p_exit\":0,\"loss_good\":0,\"loss_bad\":1", "0").unwrap_err();
        assert!(err.contains("config.burst.p_exit"), "{err}");
        let err =
            channel("\"p_enter\":0.1,\"p_exit\":0.5,\"loss_good\":0,\"loss_bad\":7", "0").unwrap_err();
        assert!(err.contains("config.burst.loss_bad"), "{err}");
    }

    /// `tests/chaos.rs`'s Mobile field and plan (every fault class): the
    /// standard oracle reuses the cached verdict on the polls that find
    /// the view unchanged and recomputes it on the others. Both happen,
    /// so that test's field-for-field comparison with a fresh index is
    /// not vacuous; counting them does not change the run.
    #[test]
    fn the_standard_oracle_both_reuses_and_recomputes_verdicts() {
        let configured = || {
            let mut net = NetworkBuilder::new()
                .mode(crate::config::Mode::Mobile)
                .ideal_radius(40.0)
                .radius_tolerance(14.0)
                .area_radius(200.0)
                .expected_nodes(400)
                .seed(7)
                .build()
                .unwrap();
            net.run_to_fixpoint().unwrap();
            net
        };
        let channel = FaultConfig { burst: BurstLoss::bursty(0.02, 4.0), unicast_loss: 0.02, ..FaultConfig::none() };
        let plan = FaultPlan::new()
            .at(SimDuration::ZERO, FaultKind::SetChannel { config: channel })
            .at(
                SimDuration::from_secs(5),
                FaultKind::StartJam { label: 0, center: Point::new(100.0, 0.0), radius: 70.0 },
            )
            .at(SimDuration::from_secs(10), FaultKind::CrashRandom { count: 10 })
            .at(
                SimDuration::from_secs(20),
                FaultKind::CorruptState {
                    near: Point::new(-60.0, 50.0),
                    corruption: Corruption::Il { offset: Vec2::new(150.0, 90.0) },
                },
            )
            .at(SimDuration::from_secs(45), FaultKind::StopJam { label: 0 })
            .at(SimDuration::from_secs(15), FaultKind::CrashDisk { center: Point::new(-40.0, -60.0), radius: 35.0 })
            .at(SimDuration::from_secs(25), FaultKind::Join { pos: Point::new(30.0, 30.0) })
            .at(SimDuration::from_secs(30), FaultKind::MoveBig { to: Point::new(45.0, 0.0) })
            .at(
                SimDuration::from_secs(35),
                FaultKind::CorruptState { near: Point::new(60.0, -40.0), corruption: Corruption::Parent },
            );
        let mut net = configured();
        let opts = ChaosOptions::for_config(net.config());
        let (mut reused, mut recomputed) = (0u32, 0u32);
        let rep = net.chaos_loop(&plan, opts.clone(), |net| {
            net.view();
            if net.verdict.as_ref().is_some_and(|(s, _)| *s == Strictness::Dynamic) {
                reused += 1;
            } else {
                recomputed += 1;
            }
            net.verdict(Strictness::Dynamic).len()
        });
        assert!(reused > 0 && recomputed > 0, "{reused} reused and {recomputed} recomputed verdicts");
        assert_eq!(reused + recomputed, rep.polls);
        assert_eq!(rep, configured().run_chaos_opts(&plan, opts));
    }

    #[test]
    fn empty_plan_reports_clean_immediately() {
        let mut net = small_net(21);
        net.run_to_fixpoint().unwrap();
        let report = net.run_chaos(&FaultPlan::new());
        assert!(report.healed());
        assert!(report.outcomes.is_empty());
        assert_eq!(report.final_violations, 0);
        assert!(report.polls >= 1);
    }

    #[test]
    fn crash_wave_heals_with_latency() {
        let mut net = small_net(22);
        net.run_to_fixpoint().unwrap();
        let plan = FaultPlan::new()
            .at(SimDuration::from_secs(1), FaultKind::CrashRandom { count: 5 });
        let report = net.run_chaos(&plan);
        assert_eq!(report.outcomes.len(), 1);
        assert_eq!(report.outcomes[0].killed, 5);
        assert!(report.healed(), "crash wave must heal: {}", report.to_json());
        assert!(report.outcomes[0].heal_latency.is_some());
        // The crash opened a healing episode; the tainted survivors'
        // traffic is attributed to it and the clean poll closed it.
        assert_eq!(report.outcomes[0].episode, Some(1));
        assert_eq!(report.episodes.len(), 1);
        let ep = &report.episodes[0];
        assert_eq!(ep.label, "crash_random");
        assert!(ep.closed_us.is_some(), "episode must close on heal");
        assert!(ep.messages > 0, "tainted survivors must have sent traffic");
        assert!(ep.tainted > 0);
    }

    #[test]
    fn jam_labels_resolve() {
        let mut net = small_net(23);
        net.run_to_fixpoint().unwrap();
        let plan = FaultPlan::new()
            .at(SimDuration::from_secs(1), FaultKind::StartJam {
                label: 7,
                center: Point::new(120.0, 0.0),
                radius: 60.0,
            })
            .at(SimDuration::from_secs(40), FaultKind::StopJam { label: 7 })
            .at(SimDuration::from_secs(41), FaultKind::StopJam { label: 9 });
        let report = net.run_chaos(&plan);
        assert_eq!(report.outcomes[0].kind, "start_jam");
        assert_eq!(report.outcomes[1].detail, "stopped jam 7");
        assert!(report.outcomes[2].detail.contains("never started"));
        assert!(net.engine().faults().jams().is_empty(), "jam must be lifted");
        assert!(report.counters.dropped_by_jam() > 0, "the jam must have blocked traffic");
    }

    #[test]
    fn report_json_shape() {
        let mut counters = Trace::new();
        counters.record_broadcast("org");
        counters.record_unicast("org_reply");
        let report = ChaosReport {
            started: SimTime::from_micros(5),
            finished: SimTime::from_micros(10),
            outcomes: vec![FaultOutcome {
                kind: "join",
                detail: "say \"hi\"".to_string(),
                injected_at: SimTime::from_micros(7),
                killed: 0,
                heal_latency: None,
                episode: None,
            }],
            final_violations: 1,
            max_violations: 2,
            polls: 3,
            digest: 0xabc,
            counters: counters.clone(),
            episodes: Vec::new(),
        };
        // Nulls, an escaped detail string, an empty episode list, and the
        // counters as the trace writes them.
        let counters = json::to_string(|w| counters.write_json(w));
        assert_eq!(
            report.to_json(),
            format!(
                r#"{{"started_us":5,"finished_us":10,"healed":false,"final_violations":1,"max_violations":2,"polls":3,"digest":"0000000000000abc","counters":{counters},"faults":[{{"kind":"join","detail":"say \"hi\"","injected_at_us":7,"killed":0,"heal_latency_us":null,"episode":null}}],"episodes":[]}}"#
            )
        );
        assert!(!report.healed());
        assert_eq!(report.max_heal_latency(), None);
    }

    #[test]
    fn corrupt_state_picks_nearest_head() {
        let mut net = small_net(24);
        net.run_to_fixpoint().unwrap();
        let plan = FaultPlan::new().at(
            SimDuration::from_secs(1),
            FaultKind::CorruptState { near: Point::ORIGIN, corruption: Corruption::Parent },
        );
        let report = net.run_chaos(&plan);
        assert!(report.outcomes[0].detail.contains("corrupted parent"));
        assert!(report.healed(), "parent corruption must heal: {}", report.to_json());
    }
}
