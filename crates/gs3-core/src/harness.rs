//! The network harness: builds a deployed GS³ network on the simulator,
//! runs it to its fixpoint, injects every perturbation class of the paper's
//! model, and extracts [`Snapshot`]s for checking and measurement.

use std::sync::Arc;

use gs3_geometry::{Point, Vec2};
use gs3_sim::deploy::Deployment;
use gs3_sim::faults::{BurstLoss, FaultConfig};
use gs3_sim::fnv::Fnv64;
use gs3_sim::radio::{EnergyModel, RadioModel};
use gs3_sim::{Engine, NodeId, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gs3_sim::ContentionConfig;

use crate::config::{CongestionConfig, ConfigError, Gs3Config, Mode, ReliabilityConfig};
use crate::invariants::{check_all_with, SnapshotIndex, Strictness, Violation};
use crate::node::Gs3Node;
use crate::snapshot::{put, NodeView, RoleView, Snapshot};
use crate::state::Role;

/// How a [`NetworkBuilder`] was given its deployment density.
#[derive(Debug, Clone, Copy)]
enum Density {
    /// The paper's λ, directly.
    Lambda(f64),
    /// An expected node count over the deployment disk.
    Nodes(usize),
}

/// Builder for a deployed GS³ [`Network`].
///
/// ```rust
/// use gs3_core::harness::NetworkBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = NetworkBuilder::new()
///     .ideal_radius(100.0)
///     .radius_tolerance(15.0)
///     .area_radius(250.0)
///     .expected_nodes(600)
///     .seed(1)
///     .build()?;
/// assert!(net.engine().node_count() > 100);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    r: f64,
    r_t: f64,
    area_radius: f64,
    density: Density,
    seed: u64,
    mode: Mode,
    gaps: Vec<(Point, f64)>,
    position_noise: f64,
    radio: Option<RadioModel>,
    energy: Option<(EnergyModel, f64)>,
    big_pos: Point,
    extra_bigs: Vec<Point>,
    config_override: Option<Gs3Config>,
    broadcast_loss: f64,
    traffic_period: Option<SimDuration>,
    faults: FaultConfig,
    reliability: Option<ReliabilityConfig>,
    contention: Option<ContentionConfig>,
    congestion: Option<CongestionConfig>,
    dataplane: Option<gs3_dataplane::DataplaneConfig>,
    flight_recorder: Option<usize>,
    explicit_nodes: Vec<Point>,
}

impl Default for NetworkBuilder {
    fn default() -> Self {
        NetworkBuilder {
            r: 100.0,
            r_t: 15.0,
            area_radius: 300.0,
            density: Density::Lambda(0.02),
            seed: 0,
            mode: Mode::Dynamic,
            gaps: Vec::new(),
            position_noise: 0.0,
            radio: None,
            energy: None,
            big_pos: Point::ORIGIN,
            extra_bigs: Vec::new(),
            config_override: None,
            broadcast_loss: 0.0,
            traffic_period: None,
            faults: FaultConfig::none(),
            reliability: None,
            contention: None,
            congestion: None,
            dataplane: None,
            flight_recorder: None,
            explicit_nodes: Vec::new(),
        }
    }
}

impl NetworkBuilder {
    /// A builder with the default scenario (R=100, R_t=15, disk radius
    /// 300, λ=0.02 ⇒ ≈1800 nodes).
    #[must_use]
    pub fn new() -> Self {
        NetworkBuilder::default()
    }

    /// Sets the ideal cell radius `R`.
    #[must_use]
    pub fn ideal_radius(mut self, r: f64) -> Self {
        self.r = r;
        self
    }

    /// Sets the radius tolerance `R_t`.
    #[must_use]
    pub fn radius_tolerance(mut self, r_t: f64) -> Self {
        self.r_t = r_t;
        self
    }

    /// Sets the deployment disk radius (centered on the big node).
    #[must_use]
    pub fn area_radius(mut self, radius: f64) -> Self {
        self.area_radius = radius;
        self
    }

    /// Sets the paper's density λ (expected nodes per unit-radius disk).
    /// Of this and [`Self::expected_nodes`], the last call wins.
    #[must_use]
    pub fn density(mut self, lambda: f64) -> Self {
        self.density = Density::Lambda(lambda);
        self
    }

    /// Sets the density via a target expected node count over the
    /// deployment area, whatever area radius the builder ends with. Of
    /// this and [`Self::density`], the last call wins.
    #[must_use]
    pub fn expected_nodes(mut self, n: usize) -> Self {
        self.density = Density::Nodes(n);
        self
    }

    /// Sets the RNG seed (deployment and channel jitter are fully
    /// deterministic given the seed).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the protocol variant.
    #[must_use]
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Clears a disk of nodes (an `R_t`-gap) from the deployment.
    #[must_use]
    pub fn with_gap(mut self, center: Point, radius: f64) -> Self {
        self.gaps.push((center, radius));
        self
    }

    /// Adds Gaussian localization noise (σ meters).
    #[must_use]
    pub fn position_noise(mut self, sigma: f64) -> Self {
        self.position_noise = sigma;
        self
    }

    /// Sets the broadcast loss probability (in `[0, 1)`).
    #[must_use]
    pub fn broadcast_loss(mut self, loss: f64) -> Self {
        self.broadcast_loss = loss;
        self
    }

    /// Sets the unicast loss probability (in `[0, 1)`) — breaks the
    /// paper's reliable destination-aware transmission assumption.
    /// Lost org replies, acks, and handshakes must be recovered by the
    /// protocol's periodic timers.
    #[must_use]
    pub fn unicast_loss(mut self, loss: f64) -> Self {
        self.faults.unicast_loss = loss;
        self
    }

    /// Enables Gilbert–Elliott burst loss: the channel enters a total-loss
    /// bad state with probability `p_enter` per delivery attempt and stays
    /// there for bursts of `mean_burst` attempts on average (see
    /// [`gs3_sim::faults::BurstLoss`]).
    #[must_use]
    pub fn burst_loss(mut self, p_enter: f64, mean_burst: f64) -> Self {
        self.faults.burst = BurstLoss::bursty(p_enter, mean_burst);
        self
    }

    /// Installs a full adversarial-channel configuration (overrides any
    /// individual `unicast_loss` / `burst_loss` knobs set earlier).
    #[must_use]
    pub fn fault_config(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Overrides the radio model entirely.
    #[must_use]
    pub fn radio(mut self, radio: RadioModel) -> Self {
        self.radio = Some(radio);
        self
    }

    /// Enables energy accounting with the given model and per-node budget.
    #[must_use]
    pub fn energy(mut self, model: EnergyModel, budget: f64) -> Self {
        self.energy = Some((model, budget));
        self
    }

    /// Places the big node (default: origin, the deployment center).
    #[must_use]
    pub fn big_position(mut self, pos: Point) -> Self {
        self.big_pos = pos;
        self
    }

    /// Adds an additional big node (gateway) at `pos` — the paper's
    /// Section 7 extension: each small node ends up in the structure of
    /// its best (closest) big node, and the head graphs form a forest with
    /// one tree per gateway.
    #[must_use]
    pub fn with_extra_big(mut self, pos: Point) -> Self {
        self.extra_bigs.push(pos);
        self
    }

    /// Uses a fully custom protocol configuration (overrides `r`, `r_t`,
    /// and `mode` set on the builder).
    #[must_use]
    pub fn config(mut self, cfg: Gs3Config) -> Self {
        self.config_override = Some(cfg);
        self
    }

    /// Gives the scenario traffic: every `period` associates report to
    /// their head and heads batch-and-relay up the head graph to the big
    /// node's sink ledger — sequenced, queued and credit-gated (the
    /// paper's data-aggregation traffic model, §4.1). Without it no data
    /// frame is sent.
    #[must_use]
    pub fn traffic(mut self, period: SimDuration) -> Self {
        self.traffic_period = Some(period);
        self
    }

    /// Configures the control-plane reliability layer (acked
    /// retransmission, adaptive failure detection, quarantine). Applied on
    /// top of `config` overrides; the default is the inert
    /// [`ReliabilityConfig::disabled`].
    #[must_use]
    pub fn reliability(mut self, rc: ReliabilityConfig) -> Self {
        self.reliability = Some(rc);
        self
    }

    /// Configures the shared-medium contention layer (airtime occupancy,
    /// carrier-sense backoff, receiver-side collisions). The default is
    /// the inert [`ContentionConfig::disabled`], under which runs are
    /// bit-identical to a contention-free build.
    #[must_use]
    pub fn contention(mut self, cc: ContentionConfig) -> Self {
        self.contention = Some(cc);
        self
    }

    /// Configures congestion-adaptive graceful degradation (heartbeat
    /// stretching and broadcast suppression under observed MAC
    /// contention). Applied on top of `config` overrides; the default is
    /// the inert [`CongestionConfig::disabled`].
    #[must_use]
    pub fn congestion(mut self, cc: CongestionConfig) -> Self {
        self.congestion = Some(cc);
        self
    }

    /// Tunes the convergecast data plane `traffic` runs on (queue bound,
    /// credit window, stall recovery, frame MTU). Applied on top of
    /// `config` overrides; the default is
    /// [`gs3_dataplane::DataplaneConfig::on`]. Sets no traffic going by
    /// itself.
    #[must_use]
    pub fn dataplane(mut self, dc: gs3_dataplane::DataplaneConfig) -> Self {
        self.dataplane = Some(dc);
        self
    }

    /// Enables the full flight recorder with a ring of `capacity` events
    /// (see [`gs3_sim::telemetry::FlightRecorder`]). Recording is pure
    /// observation: scheduled-delivery digests are bit-identical with the
    /// recorder on or off. Without this knob only the cheap per-class
    /// counters run.
    #[must_use]
    pub fn flight_recorder(mut self, capacity: usize) -> Self {
        self.flight_recorder = Some(capacity);
        self
    }

    /// Places a small node at an exact position. Once any explicit node is
    /// given, `build` skips the Poisson deployment entirely and spawns
    /// exactly these nodes (plus the big node(s)) — the model checker uses
    /// this to define tiny fully-pinned fields whose state space does not
    /// depend on deployment sampling.
    #[must_use]
    pub fn with_small_node(mut self, pos: Point) -> Self {
        self.explicit_nodes.push(pos);
        self
    }

    /// Deploys the network.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the geometric parameters are invalid.
    pub fn build(self) -> Result<Network, ConfigError> {
        let mut cfg = match self.config_override {
            Some(c) => c,
            None => Gs3Config::new(self.r, self.r_t)?.with_mode(self.mode),
        };
        if let Some(period) = self.traffic_period {
            cfg.report_period = period;
        }
        if let Some(rc) = self.reliability {
            cfg.reliability = rc;
        }
        if let Some(cc) = self.congestion {
            cfg.congestion = cc;
        }
        if let Some(dc) = self.dataplane {
            cfg.dataplane = dc;
        }
        // With energy accounting on, heads retreat proactively while they
        // can still afford the handover chatter (head shift / cell shift
        // instead of abrupt death). ~40 coordination broadcasts of slack.
        if let Some((model, _)) = &self.energy {
            if cfg.head_retreat_energy == 0.0 {
                cfg.head_retreat_energy = model.tx_cost(
                    gs3_geometry::coordination_radius(cfg.r, cfg.r_t),
                ) * 40.0;
            }
        }
        let radio = self.radio.unwrap_or_else(|| {
            let mut m = RadioModel::ideal(cfg.coord_radius() * 1.05);
            m.broadcast_loss = self.broadcast_loss;
            m
        });
        let (energy_model, budget) = match self.energy {
            Some((m, b)) => (m, Some(b)),
            None => (EnergyModel::disabled(), None),
        };
        let mut eng: Engine<Gs3Node> = Engine::new(radio, energy_model, self.seed);
        eng.set_fault_config(self.faults);
        if let Some(cc) = self.contention {
            eng.set_contention(cc);
        }
        if let Some(capacity) = self.flight_recorder {
            eng.set_recording(gs3_sim::telemetry::RecorderMode::Full { capacity });
        }

        // The big node anchors the structure; spawn it first so the
        // diffusion starts at t=0. As the gateway/access point it is
        // mains-powered: the energy budget applies to small nodes only.
        let cfg = Arc::new(cfg);
        let big = eng.spawn(Gs3Node::big(Arc::clone(&cfg)), self.big_pos);
        let mut bigs = vec![big];
        for pos in &self.extra_bigs {
            bigs.push(eng.spawn(Gs3Node::big(Arc::clone(&cfg)), *pos));
        }

        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if self.explicit_nodes.is_empty() {
            // `lambda` is the paper's λ (expected nodes per unit-radius
            // disk), which Deployment::disk takes directly: expected
            // count = λ·r².
            let lambda = match self.density {
                Density::Lambda(lambda) => lambda,
                Density::Nodes(n) => n as f64 / (self.area_radius * self.area_radius),
            };
            let mut deploy = Deployment::disk(self.area_radius, lambda)
                .with_position_noise(self.position_noise);
            for (c, g) in &self.gaps {
                deploy = deploy.with_gap(*c, *g);
            }
            for pos in deploy.generate(&mut rng) {
                eng.spawn_with_energy(Gs3Node::small(Arc::clone(&cfg)), pos, budget);
            }
        } else {
            for pos in &self.explicit_nodes {
                eng.spawn_with_energy(Gs3Node::small(Arc::clone(&cfg)), *pos, budget);
            }
        }

        Ok(Network { eng, big, bigs, cfg, rng, budget, scratch: Vec::new(), view: None, verdict: None })
    }
}

/// How a [`Network::run_to_fixpoint`] run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// The structure stabilized (structural signature unchanged over the
    /// required number of polls, no `HEAD_ORG` in flight).
    Fixpoint {
        /// Simulation time at which stabilization was *detected* (the
        /// structure settled up to one stability window earlier).
        at: SimTime,
        /// How many polls it took.
        polls: u32,
    },
    /// The deadline passed without stabilization.
    TimedOut {
        /// The deadline.
        at: SimTime,
    },
}

/// A deployed GS³ network under simulation.
///
/// `Clone` forks the entire simulation (engine, nodes, queue, RNG) into an
/// independent copy — the model checker's state save/restore primitive.
#[derive(Debug, Clone)]
pub struct Network {
    pub(crate) eng: Engine<Gs3Node>,
    pub(crate) big: NodeId,
    pub(crate) bigs: Vec<NodeId>,
    /// The one configuration every node of this network shares.
    pub(crate) cfg: Arc<Gs3Config>,
    pub(crate) rng: StdRng,
    pub(crate) budget: Option<f64>,
    // Reused id scratch for the perturbation helpers (kill_disk candidate
    // collection, kill_random's alive census) — empty between calls.
    pub(crate) scratch: Vec<NodeId>,
    // The one (snapshot, index) pair behind `view`; built on first use.
    pub(crate) view: Option<(Snapshot, SnapshotIndex)>,
    // The full suite's verdict on `view` and the strictness it was judged
    // at; dropped whenever `view` changes or is built.
    pub(crate) verdict: Option<(Strictness, Vec<Violation>)>,
}

// A network crosses threads whole (`run_grid`'s workers build and hand
// them back): a field that is not `Send + Sync` fails here, at compile time.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<Network>()
};

impl Network {
    /// The underlying simulator.
    #[must_use]
    pub fn engine(&self) -> &Engine<Gs3Node> {
        &self.eng
    }

    /// Mutable access to the simulator (for advanced perturbations).
    pub fn engine_mut(&mut self) -> &mut Engine<Gs3Node> {
        &mut self.eng
    }

    /// The (primary) big node's id.
    #[must_use]
    pub fn big_id(&self) -> NodeId {
        self.big
    }

    /// All big nodes' ids (the primary plus any extras).
    #[must_use]
    pub fn big_ids(&self) -> &[NodeId] {
        &self.bigs
    }

    /// The protocol configuration.
    #[must_use]
    pub fn config(&self) -> &Gs3Config {
        &self.cfg
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.eng.now()
    }

    /// Runs the simulation for a span of simulated time.
    pub fn run_for(&mut self, span: SimDuration) {
        self.eng.run_for(span);
    }

    /// Runs until the cell structure stabilizes: the structural signature
    /// is unchanged for `stable_polls` consecutive polls of `poll` each.
    /// Gives up at `deadline`.
    ///
    /// Periodic boundary re-probes open no-op `HEAD_ORG` rounds forever in
    /// dynamic networks, so an *in-flight* round does not count as
    /// instability — only signature changes (a round that selects someone
    /// changes the signature and resets the counter).
    pub fn run_to_fixpoint_with(
        &mut self,
        poll: SimDuration,
        stable_polls: u32,
        deadline: SimTime,
    ) -> RunOutcome {
        let mut last_sig = self.structural_signature();
        let mut stable = 0u32;
        let mut polls = 0u32;
        while self.eng.now() < deadline {
            self.eng.run_for(poll);
            polls += 1;
            let sig = self.structural_signature();
            if sig == last_sig {
                stable += 1;
                if stable >= stable_polls {
                    return RunOutcome::Fixpoint { at: self.eng.now(), polls };
                }
            } else {
                stable = 0;
                last_sig = sig;
            }
        }
        RunOutcome::TimedOut { at: deadline }
    }

    /// [`run_to_fixpoint_with`](Network::run_to_fixpoint_with) using
    /// defaults sized to the configuration (poll = one intra heartbeat,
    /// 4 stable polls, deadline = now + 600 s).
    ///
    /// # Errors
    ///
    /// Returns the same outcome as `run_to_fixpoint_with`; the `Result`
    /// never carries an error today but reserves the right to (kept for
    /// API stability with the facade examples).
    pub fn run_to_fixpoint(&mut self) -> Result<RunOutcome, ConfigError> {
        let poll = self.cfg.intra_heartbeat;
        // The stability window must exceed the failure-detection windows
        // (intra and inter timeouts, twice over), or a perturbation still
        // inside its silent detection phase would read as "stable".
        let detect = self.cfg.detection_window();
        let polls = (detect.as_micros() / poll.as_micros().max(1)) as u32 + 2;
        let deadline = self.eng.now() + SimDuration::from_secs(600);
        Ok(self.run_to_fixpoint_with(poll, polls, deadline))
    }

    /// Extracts a full structural snapshot.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let mut out = Snapshot {
            r: 0.0,
            r_t: 0.0,
            big: self.big,
            max_range: 0.0,
            gr: self.cfg.gr,
            nodes: Vec::new(),
        };
        self.snapshot_into(&mut out);
        out
    }

    /// Extracts a snapshot into `out`, overwriting it in place: the
    /// `nodes` buffer is truncated to this network's size and each view
    /// (including a head's `children` / `associates`) is rewritten where it
    /// stands, so a poll of an unchanged structure allocates nothing.
    pub fn snapshot_into(&self, out: &mut Snapshot) {
        self.refill(out);
    }

    /// [`snapshot_into`](Network::snapshot_into), reporting whether any
    /// field of `out` differs from what it held before.
    pub(crate) fn refill(&self, out: &mut Snapshot) -> bool {
        let r_t = self.cfg.r_t;
        let mut changed = put(&mut out.r, self.cfg.r)
            | put(&mut out.r_t, r_t)
            | put(&mut out.big, self.big)
            | put(&mut out.max_range, self.eng.radio().max_range)
            | put(&mut out.gr, self.cfg.gr);
        let n = self.eng.node_count();
        if out.nodes.len() != n {
            changed = true;
            out.nodes.truncate(n);
            out.nodes.reserve(n - out.nodes.len());
        }
        for id in self.eng.ids() {
            let node = self.eng.node(id).expect("ids() yields valid ids");
            let pos = self.eng.position(id).expect("valid id");
            let alive = self.eng.is_alive(id).expect("valid id");
            if id.index() == out.nodes.len() {
                // A placeholder the refill below overwrites field by field.
                out.nodes.push(NodeView { id, pos, alive, is_big: false, role: RoleView::Bootup, ids_stored: 0 });
            }
            changed |= out.nodes[id.index()].refill(id, pos, alive, node.is_big(), &node.role, r_t);
        }
        changed
    }

    /// A 64-bit FNV-1a hash of the *structural* state — roles, head and
    /// parent pointers, ILs (to the millimeter). Two states with equal
    /// signatures have the same cell structure and head graph. The
    /// fixpoint detector polls this every tick, straight from engine state
    /// with no allocation.
    #[must_use]
    pub fn structural_signature(&self) -> u64 {
        let mm = |v: f64| (v * 1000.0).round() as i64;
        let mut h = Fnv64::new();
        for id in self.eng.ids() {
            let node = self.eng.node(id).expect("ids() yields valid ids");
            h.id(id).bool(self.eng.is_alive(id).expect("valid id"));
            match &node.role {
                Role::Bootup(_) => h.bytes(&[0]),
                Role::Head(s) => h
                    .bytes(&[1])
                    .id(s.parent)
                    .u64(u64::from(s.hops))
                    .u64(u64::from(s.icc_icp.icc))
                    .u64(u64::from(s.icc_icp.icp))
                    .i64(mm(s.il.x))
                    .i64(mm(s.il.y)),
                Role::Associate(a) => h.bytes(&[2]).id(a.head).bool(a.surrogate),
                Role::BigAway(b) => h.bytes(&[3]).opt(b.proxy, Fnv64::id).bool(b.mobile),
            };
        }
        h.finish()
    }

    /// The current structure and its [`SnapshotIndex`]: the network's one
    /// cached snapshot, refilled in place, and its index brought up to
    /// date by [`SnapshotIndex::update`] (built on first use; not touched
    /// when the refill changed nothing). A polling loop therefore pays for
    /// the churn since its previous poll, not for the population.
    pub fn view(&mut self) -> (&Snapshot, &SnapshotIndex) {
        self.refresh_view();
        let (snap, idx) = self.view.as_ref().expect("refreshed above");
        (snap, idx)
    }

    /// Brings `view` up to date, dropping the cached verdict whenever the
    /// view moves or is built.
    fn refresh_view(&mut self) {
        let fresh = match self.view.take() {
            Some((mut snap, mut idx)) => {
                if self.refill(&mut snap) {
                    idx.update(&snap);
                    self.verdict = None;
                }
                (snap, idx)
            }
            None => {
                let snap = self.snapshot();
                let idx = SnapshotIndex::build(&snap);
                self.verdict = None;
                (snap, idx)
            }
        };
        self.view = Some(fresh);
    }

    /// The full suite's verdict at `strictness` on the current
    /// [`view`](Network::view). It is computed once per view and kept
    /// until the view changes, so polls of an unchanged structure re-run
    /// no check.
    pub(crate) fn verdict(&mut self, strictness: Strictness) -> &[Violation] {
        self.refresh_view();
        if self.verdict.as_ref().is_none_or(|(s, _)| *s != strictness) {
            let (snap, idx) = self.view.as_ref().expect("refreshed above");
            self.verdict = Some((strictness, check_all_with(snap, strictness, idx)));
        }
        &self.verdict.as_ref().expect("filled above").1
    }

    /// The bound set this network's mode is held to.
    fn strictness(&self) -> Strictness {
        match self.cfg.mode {
            Mode::Static => Strictness::Static,
            _ => Strictness::Dynamic,
        }
    }

    /// Runs the full invariant suite against the current state, indexing a
    /// fresh snapshot from scratch: the reference
    /// [`check_invariants_incremental`](Network::check_invariants_incremental)
    /// is compared against.
    #[must_use]
    pub fn check_invariants(&self) -> Vec<Violation> {
        let snap = self.snapshot();
        check_all_with(&snap, self.strictness(), &SnapshotIndex::build(&snap))
    }

    /// [`check_invariants`](Network::check_invariants) over
    /// [`view`](Network::view), reusing the last verdict while the view has
    /// not changed. Results are identical.
    pub fn check_invariants_incremental(&mut self) -> Vec<Violation> {
        let strictness = self.strictness();
        self.verdict(strictness).to_vec()
    }

    // ------------------------------------------------------------------
    // Perturbations (the paper's system model, Section 2.1)
    // ------------------------------------------------------------------

    /// Fail-stop one node (leave/death).
    pub fn kill(&mut self, id: NodeId) {
        let _ = self.eng.kill(id);
    }

    /// Fail-stop every alive node within `radius` of `center` (a
    /// contiguous perturbed area of diameter `2·radius`). Returns the
    /// killed ids. The big node survives (killing the root is a different
    /// experiment).
    pub fn kill_disk(&mut self, center: Point, radius: f64) -> Vec<NodeId> {
        // Candidate collection goes through the spatial grid (cells
        // overlapping the disk, not a full population scan) into the reused
        // scratch; only the exact-size victim list the caller keeps is
        // allocated. The grid query yields ascending id order — the same
        // kill order the old alive_ids() scan produced, so digests match.
        let mut candidates = std::mem::take(&mut self.scratch);
        debug_assert!(candidates.is_empty());
        self.eng.alive_in_disk_into(center, radius, &mut candidates);
        candidates.retain(|id| *id != self.big);
        let victims = candidates.clone();
        for &id in &victims {
            let _ = self.eng.kill(id);
        }
        candidates.clear();
        self.scratch = candidates;
        victims
    }

    /// Kills a uniformly random sample of `count` alive small nodes.
    pub fn kill_random(&mut self, count: usize) -> Vec<NodeId> {
        // The n-sized alive census lives in the reused scratch; only the
        // count-sized victim list is allocated per call.
        let mut alive = std::mem::take(&mut self.scratch);
        debug_assert!(alive.is_empty());
        alive.extend(self.eng.alive_ids().filter(|id| *id != self.big));
        let n = count.min(alive.len());
        let mut victims = Vec::with_capacity(n);
        for _ in 0..n {
            let idx = self.rng.gen_range(0..alive.len());
            let id = alive.swap_remove(idx);
            let _ = self.eng.kill(id);
            victims.push(id);
        }
        alive.clear();
        self.scratch = alive;
        victims
    }

    /// Spawns (joins) a new small node at `pos`.
    pub fn join_node(&mut self, pos: Point) -> NodeId {
        self.eng.spawn_with_energy(Gs3Node::small(Arc::clone(&self.cfg)), pos, self.budget)
    }

    /// Moves a node to an absolute position (mobility step).
    pub fn move_node(&mut self, id: NodeId, pos: Point) {
        let _ = self.eng.set_position(id, pos);
    }

    /// Moves the big node to an absolute position.
    pub fn move_big(&mut self, pos: Point) {
        let _ = self.eng.set_position(self.big, pos);
    }

    /// State corruption: displaces a head's stored IL by `offset`,
    /// violating the hexagonal relation so `SANITY_CHECK` must catch it.
    /// Returns false when the node is not currently a head.
    pub fn corrupt_head_il(&mut self, id: NodeId, offset: Vec2) -> bool {
        match self.eng.node_mut(id) {
            Ok(node) => match &mut node.role {
                Role::Head(h) => {
                    h.il += offset;
                    true
                }
                _ => false,
            },
            Err(_) => false,
        }
    }

    /// State corruption: scrambles a head's hop count (drives the head
    /// graph toward an arbitrary state; inter-cell maintenance must
    /// restore the min-distance tree).
    pub fn corrupt_head_hops(&mut self, id: NodeId, hops: u32) -> bool {
        match self.eng.node_mut(id) {
            Ok(node) => match &mut node.role {
                Role::Head(h) => {
                    h.hops = hops;
                    true
                }
                _ => false,
            },
            Err(_) => false,
        }
    }

    /// State corruption: points a head's parent pointer at itself,
    /// breaking the head-graph tree (a cycle of length one). Inter-cell
    /// maintenance must time the fake parent out and `PARENT_SEEK` a real
    /// one. Returns false when the node is not currently a head.
    pub fn corrupt_head_parent(&mut self, id: NodeId) -> bool {
        match self.eng.node_mut(id) {
            Ok(node) => match &mut node.role {
                Role::Head(h) => {
                    h.parent = id;
                    true
                }
                _ => false,
            },
            Err(_) => false,
        }
    }

    /// Drains a node's battery to `energy` (predictable-death lever).
    pub fn set_energy(&mut self, id: NodeId, energy: f64) {
        let _ = self.eng.set_energy(id, energy);
    }

    /// The sink-side data-plane delivery ledger on the primary big node
    /// (None until the first delivery).
    #[must_use]
    pub fn sink_ledger(&self) -> Option<&gs3_dataplane::SinkLedger> {
        self.eng.node(self.big).ok().and_then(|n| n.sink_ledger())
    }

    // ------------------------------------------------------------------
    // Adversarial channel (gs3_sim::faults)
    // ------------------------------------------------------------------

    /// Replaces the adversarial-channel configuration mid-run (jams and
    /// the burst-chain state are kept).
    pub fn set_fault_config(&mut self, config: FaultConfig) {
        self.eng.set_fault_config(config);
    }

    /// Starts jamming the disk of `radius` around `center` (no message can
    /// be sent from or delivered to any node inside); returns a handle for
    /// [`Network::stop_jam`].
    pub fn start_jam(&mut self, center: Point, radius: f64) -> u64 {
        self.eng.faults_mut().start_jam(center, radius)
    }

    /// Stops a jam started with [`Network::start_jam`]; returns whether it
    /// existed.
    pub fn stop_jam(&mut self, jam: u64) -> bool {
        self.eng.faults_mut().stop_jam(jam)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_deploys_big_plus_small() {
        let net = NetworkBuilder::new()
            .area_radius(200.0)
            .expected_nodes(300)
            .seed(3)
            .build()
            .unwrap();
        assert!(net.engine().node_count() > 200);
        assert_eq!(net.big_id(), NodeId::new(0));
        let snap = net.snapshot();
        assert_eq!(snap.nodes.len(), net.engine().node_count());
    }

    /// The count is spread over the final area, whichever of the two
    /// setters comes first; `density` and `expected_nodes` override each
    /// other in call order.
    #[test]
    fn expected_nodes_is_resolved_against_the_final_area() {
        let nodes = |b: NetworkBuilder| b.seed(5).build().unwrap().engine().node_count();
        let area_first = nodes(NetworkBuilder::new().area_radius(100.0).expected_nodes(500));
        let count_first = nodes(NetworkBuilder::new().expected_nodes(500).area_radius(100.0));
        assert_eq!(count_first, area_first);
        assert!((450..=550).contains(&area_first), "{area_first} nodes for an expected 500");
        let by_density = nodes(NetworkBuilder::new().area_radius(100.0).expected_nodes(9).density(0.05));
        assert_eq!(by_density, area_first, "the later density call wins");
        let by_count = nodes(NetworkBuilder::new().area_radius(100.0).density(0.9).expected_nodes(500));
        assert_eq!(by_count, area_first, "the later count wins");
    }

    #[test]
    fn builder_rejects_bad_geometry() {
        assert!(NetworkBuilder::new().ideal_radius(-1.0).build().is_err());
    }

    /// The in-place refill through churn: after every step the buffer
    /// equals a fresh `snapshot()`, and the change flag is false exactly
    /// when the buffer's contents did not change — a head flipped to an
    /// associate and back, a spawn, a kill, a big-node move and a
    /// corrupted IL each set it, a repeated refill does not.
    #[test]
    fn refill_matches_a_fresh_snapshot_and_flags_exactly_the_changes() {
        let builder = |nodes| {
            NetworkBuilder::new().ideal_radius(40.0).radius_tolerance(14.0).area_radius(150.0).expected_nodes(nodes).seed(9)
        };
        let mut net = builder(200).build().unwrap();
        net.run_to_fixpoint().unwrap();
        // Taken from a larger network first: the refill truncates.
        let mut buf = builder(400).build().unwrap().snapshot();
        assert!(buf.nodes.len() > net.engine().node_count());
        let mut step = |net: &mut Network, what: &str, expect_change: bool| {
            let before = buf.clone();
            let changed = net.refill(&mut buf);
            assert_eq!(buf, net.snapshot(), "refill after {what}");
            assert_eq!(changed, buf != before, "change flag after {what}");
            assert_eq!(changed, expect_change, "change flag after {what}");
        };
        step(&mut net, "a larger network's buffer", true);
        step(&mut net, "nothing", false);

        let snap = net.snapshot();
        let head = snap.heads().map(|h| h.id).find(|&id| id != net.big_id()).unwrap();
        let assoc = snap.associates().next().unwrap().id;
        let head_role = net.engine().node(head).unwrap().role.clone();
        let assoc_role = net.engine().node(assoc).unwrap().role.clone();
        net.engine_mut().node_mut(head).unwrap().role = assoc_role;
        step(&mut net, "a head turned associate", true);
        net.engine_mut().node_mut(head).unwrap().role = head_role;
        step(&mut net, "the associate turned back", true);
        step(&mut net, "nothing", false);

        net.join_node(Point::new(20.0, -30.0));
        step(&mut net, "a spawn", true);
        net.kill(assoc);
        step(&mut net, "a kill", true);
        net.move_big(Point::new(35.0, 10.0));
        step(&mut net, "a big-node move", true);
        assert!(net.corrupt_head_il(head, Vec2::new(40.0, -25.0)));
        step(&mut net, "a corrupted IL", true);
        step(&mut net, "nothing", false);
        net.run_for(SimDuration::from_secs(20));
        step(&mut net, "twenty seconds of healing", true);
    }

    #[test]
    fn kill_disk_respects_big() {
        let mut net = NetworkBuilder::new()
            .area_radius(150.0)
            .expected_nodes(200)
            .seed(4)
            .build()
            .unwrap();
        let victims = net.kill_disk(Point::ORIGIN, 50.0);
        assert!(!victims.contains(&net.big_id()));
        assert!(net.engine().is_alive(net.big_id()).unwrap());
    }

    #[test]
    fn trace_digest_matches_the_binary_heap_era_pin() {
        // The pinned constant was recorded when the engine still ran on
        // the `BinaryHeap` queue, so the radix queue reproducing it *is*
        // the whole-run equivalence check: both pop in the exact same
        // ascending (at, seq) order. Regenerate it only with a justified
        // event-ordering change — a drift here means replay broke.
        let mut net = NetworkBuilder::new()
            .area_radius(150.0)
            .expected_nodes(200)
            .seed(23)
            .build()
            .unwrap();
        net.run_for(SimDuration::from_secs(60));
        net.kill_disk(Point::new(40.0, 10.0), 40.0);
        net.run_for(SimDuration::from_secs(60));
        assert_eq!(
            net.engine().trace().digest(),
            0xF306_5DB7_008D_9A1E,
            "scheduled-delivery digest drifted"
        );
    }

    #[test]
    fn incremental_invariants_match_full_rebuild() {
        let mut net = NetworkBuilder::new()
            .area_radius(180.0)
            .expected_nodes(250)
            .seed(11)
            .build()
            .unwrap();
        // Polled across configuration, a crash-disk heal, random deaths,
        // and joins: the incremental path must stay indistinguishable
        // from the rebuild-per-call one.
        net.run_for(SimDuration::from_secs(40));
        assert_eq!(net.check_invariants_incremental(), net.check_invariants());
        net.kill_disk(Point::new(60.0, 0.0), 45.0);
        for _ in 0..4 {
            net.run_for(SimDuration::from_secs(15));
            assert_eq!(net.check_invariants_incremental(), net.check_invariants());
        }
        net.kill_random(8);
        net.join_node(Point::new(-90.0, 40.0));
        for _ in 0..4 {
            net.run_for(SimDuration::from_secs(15));
            assert_eq!(net.check_invariants_incremental(), net.check_invariants());
        }
        // A displaced IL, then a big-node move: each relocates entries of
        // the view's head grids and redoes the inner-cell classification
        // around them.
        let polls = |net: &mut Network| {
            for _ in 0..3 {
                assert_eq!(net.check_invariants_incremental(), net.check_invariants());
                let (snap, idx) = net.view();
                assert_eq!(idx.inner_heads(), SnapshotIndex::build(snap).inner_heads());
                net.run_for(SimDuration::from_secs(15));
            }
        };
        let head = net.snapshot().heads().map(|h| h.id).find(|&id| id != net.big_id()).unwrap();
        assert!(net.corrupt_head_il(head, Vec2::new(60.0, -35.0)));
        polls(&mut net);
        net.move_big(Point::new(70.0, 20.0));
        polls(&mut net);
    }

    /// A cell shares one `CellInfo` per beat: after a `head_intra_alive`
    /// has landed, every associate of the cell holds the head's own
    /// record, and the head's next beat is a new record — what an
    /// associate kept of the previous one is untouched.
    #[test]
    fn a_cell_shares_one_record_per_beat() {
        let mut net = NetworkBuilder::new()
            .mode(Mode::Dynamic)
            .area_radius(150.0)
            .expected_nodes(200)
            .seed(5)
            .build()
            .unwrap();
        net.run_for(SimDuration::from_secs(60));

        // The big node's cell: the members its beat reaches (a node that
        // joined from further out keeps the record it joined with), by
        // what they store.
        let head = net.big_id();
        let members = |net: &Network| -> Vec<(NodeId, Arc<crate::messages::CellInfo>)> {
            let eng = net.engine();
            let (at, reach) = (eng.position(head).unwrap(), net.config().cell_radius_bound());
            eng.alive_ids()
                .filter_map(|id| {
                    let a = eng.node(id).unwrap().assoc_state()?;
                    let hears = eng.position(id).unwrap().distance(at) <= reach;
                    (a.head == head && hears).then(|| (id, Arc::clone(&a.cell)))
                })
                .collect()
        };
        // Longer than any frame stays in the air (2 ms + 3 µs/m + 1 ms).
        let landed = SimDuration::from_millis(20);
        // Steps to the first delivery of the head's next beat, then lets
        // the rest of that frame land.
        let next_beat = |net: &mut Network| {
            let (watch, old) = members(net).swap_remove(0);
            while Arc::ptr_eq(&net.engine().node(watch).unwrap().assoc_state().unwrap().cell, &old) {
                assert!(net.engine_mut().step());
            }
            net.run_for(landed);
        };

        next_beat(&mut net);
        let first = members(&net);
        assert!(first.len() >= 5, "a populated cell, got {}", first.len());
        for (id, cell) in &first {
            assert!(Arc::ptr_eq(cell, &first[0].1), "{id} holds its own copy of the beat");
            assert_eq!(cell.head, head);
        }
        // The frame is gone: the record is owned by its associates alone.
        assert_eq!(Arc::strong_count(&first[0].1), 2 * first.len());

        let kept: crate::messages::CellInfo = (*first[0].1).clone();
        next_beat(&mut net);
        let second = members(&net);
        assert!(!Arc::ptr_eq(&second[0].1, &first[0].1), "a beat is a new record");
        for (_, cell) in &second {
            assert!(Arc::ptr_eq(cell, &second[0].1));
        }
        assert_eq!(*first[0].1, kept, "the previous beat's record was not edited");
    }
}
