//! Deterministic adversarial-channel fault injection.
//!
//! The base [`crate::radio::RadioModel`] follows the paper's system model:
//! reliable destination-aware (unicast) transmission and independent
//! per-receiver broadcast loss. Real deployments are harsher — losses come
//! in *bursts* (interference, fading), unicasts do fail, messages get
//! duplicated and reordered by MAC retries, and whole regions can be jammed
//! or partitioned. This module layers exactly those adversities over the
//! radio, as an optional [`FaultState`] consulted by the engine on every
//! delivery attempt.
//!
//! Everything here draws from the engine's single seeded RNG, so a run with
//! faults enabled is bit-reproducible: same seed + same fault schedule ⇒
//! the same deliveries, drops, duplicates, and delays, in the same order.
//! When a knob is disabled the corresponding hook draws *nothing* from the
//! RNG, so enabling one fault never perturbs the random stream consumed by
//! unrelated machinery (and an all-default [`FaultConfig`] reproduces the
//! fault-free engine bit-for-bit).
//!
//! # The Gilbert–Elliott burst-loss model
//!
//! [`BurstLoss`] is a two-state Markov chain stepped once per delivery
//! attempt. In the **good** state a delivery is lost with probability
//! `loss_good` (usually 0); in the **bad** state with `loss_bad` (usually
//! 1). Before each attempt the chain transitions good→bad with probability
//! `p_enter` and bad→good with `p_exit`. Consecutive attempts during a bad
//! period are lost together — a *burst* whose mean length is `1/p_exit`
//! attempts. The stationary fraction of time spent in the bad state is
//! `p_enter / (p_enter + p_exit)`.

use std::collections::BTreeMap;

use gs3_geometry::Point;
use rand::Rng;

use crate::ids::NodeId;
use crate::time::SimDuration;

/// Gilbert–Elliott two-state burst-loss parameters.
///
/// See the [module documentation](self) for the model. The chain is global
/// to the engine (it models channel-wide interference episodes, not
/// per-link state) and is stepped once per delivery attempt, in the
/// deterministic delivery order.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstLoss {
    /// Probability of entering the bad state before a delivery attempt
    /// made in the good state.
    pub p_enter: f64,
    /// Probability of leaving the bad state before a delivery attempt
    /// made in the bad state. The mean burst length is `1 / p_exit`
    /// attempts.
    pub p_exit: f64,
    /// Per-attempt loss probability while in the good state.
    pub loss_good: f64,
    /// Per-attempt loss probability while in the bad state.
    pub loss_bad: f64,
}

impl BurstLoss {
    /// No burst loss at all (the chain never leaves the lossless good
    /// state, and no RNG is consumed).
    #[must_use]
    pub fn off() -> Self {
        BurstLoss { p_enter: 0.0, p_exit: 1.0, loss_good: 0.0, loss_bad: 1.0 }
    }

    /// A classic bursty channel: lossless good state, total loss in the
    /// bad state, entered with probability `p_enter` per attempt, with
    /// bursts of `mean_burst` attempts on average.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p_enter ≤ 1` and `mean_burst ≥ 1`.
    #[must_use]
    pub fn bursty(p_enter: f64, mean_burst: f64) -> Self {
        assert!((0.0..=1.0).contains(&p_enter), "p_enter must be a probability");
        assert!(mean_burst >= 1.0, "mean burst length is at least one attempt");
        BurstLoss { p_enter, p_exit: 1.0 / mean_burst, loss_good: 0.0, loss_bad: 1.0 }
    }

    /// True when the model can never lose a message (and therefore draws
    /// no randomness).
    #[must_use]
    pub fn is_off(&self) -> bool {
        (self.p_enter <= 0.0 || self.loss_bad <= 0.0) && self.loss_good <= 0.0
    }

    /// The mean burst length, in delivery attempts.
    #[must_use]
    pub fn mean_burst(&self) -> f64 {
        1.0 / self.p_exit.max(f64::MIN_POSITIVE)
    }
}

impl Default for BurstLoss {
    fn default() -> Self {
        BurstLoss::off()
    }
}

/// Adversarial-channel knobs, all off by default.
///
/// Applied to every delivery attempt (each unicast, and each per-receiver
/// broadcast copy) in this order: jamming (geometric, RNG-free) →
/// burst loss → unicast loss → duplication → extra delay.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Gilbert–Elliott burst loss applied to all delivery attempts.
    pub burst: BurstLoss,
    /// Independent per-message loss probability for *unicast* deliveries,
    /// breaking the paper's reliable destination-aware assumption.
    pub unicast_loss: f64,
    /// Probability that a delivered message is duplicated (the copy takes
    /// an independently drawn latency, so the pair may reorder).
    pub duplicate: f64,
    /// Probability that a delivered message is held back by an extra
    /// random delay.
    pub delay_prob: f64,
    /// Upper bound of the uniform extra delay; with a bound larger than
    /// the inter-message spacing, delayed messages reorder.
    pub delay_max: SimDuration,
}

impl FaultConfig {
    /// The fault-free configuration: every knob off, zero RNG consumed.
    #[must_use]
    pub fn none() -> Self {
        FaultConfig {
            burst: BurstLoss::off(),
            unicast_loss: 0.0,
            duplicate: 0.0,
            delay_prob: 0.0,
            delay_max: SimDuration::ZERO,
        }
    }

    /// True when no knob is active.
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.burst.is_off()
            && self.unicast_loss <= 0.0
            && self.duplicate <= 0.0
            && (self.delay_prob <= 0.0 || self.delay_max.is_zero())
    }

    /// The one range rule for channel knobs, shared by plan files, CLI
    /// flags and the engine: the burst fields and the three per-message
    /// knobs are probabilities, a burst must be able to end
    /// (`p_exit > 0` once `p_enter > 0`), and `unicast_loss` stays below
    /// 1 (which would sever every link).
    ///
    /// # Errors
    ///
    /// Names the offending field (`burst.`-prefixed for burst fields).
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("burst.p_enter", self.burst.p_enter),
            ("burst.p_exit", self.burst.p_exit),
            ("burst.loss_good", self.burst.loss_good),
            ("burst.loss_bad", self.burst.loss_bad),
            ("unicast_loss", self.unicast_loss),
            ("duplicate", self.duplicate),
            ("delay_prob", self.delay_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be a probability in [0, 1], got {p}"));
            }
        }
        if self.burst.p_enter > 0.0 && self.burst.p_exit <= 0.0 {
            return Err("burst.p_exit 0 would never end a burst (mean length is 1/p_exit)".into());
        }
        if self.unicast_loss >= 1.0 {
            return Err("unicast_loss 1.0 would sever every link".into());
        }
        Ok(())
    }

    fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            panic!("invalid FaultConfig: {e}");
        }
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// The scripted fate of a single delivery attempt.
///
/// Where the probabilistic [`FaultConfig`] knobs decide fates by drawing
/// from the engine RNG, a *script* pins the fate of specific attempts by
/// their global index — the pluggable delivery-decision point the model
/// checker uses to branch on every possible channel behavior, and the
/// mechanism by which its counterexamples replay deterministically.
/// Scripted decisions draw no RNG at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Deliver normally (one copy, model latency, no extra delay).
    Deliver,
    /// Silently drop the attempt.
    Drop,
    /// Deliver two copies (each with an independently drawn latency).
    Duplicate,
    /// Deliver one copy held back by this extra delay — with a delay
    /// longer than the inter-message spacing, the copy reorders behind
    /// later traffic.
    Delay(SimDuration),
    /// Corrupt the attempt as if a colliding transmission overlapped it at
    /// the receiver: the frame is lost, and MAC collision accounting (the
    /// congestion signal graceful degradation listens to) fires — which is
    /// how the model checker scripts worst-case collision schedules
    /// without a probabilistic medium.
    Collide,
}

/// One delivery attempt observed while attempt logging is on (the model
/// checker probes a step with logging enabled to learn which attempts it
/// can branch on).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttemptRecord {
    /// Global attempt index (what a script op keys on).
    pub index: u64,
    /// Sender.
    pub from: NodeId,
    /// Receiver (for a broadcast, one per in-range receiver copy).
    pub to: NodeId,
    /// Message kind label ([`crate::Payload::kind`]).
    pub kind: &'static str,
    /// True for a per-receiver broadcast copy, false for a unicast.
    pub broadcast: bool,
}

/// An active jamming (or partition) disk: no message can be sent from or
/// delivered to any node inside it.
#[derive(Debug, Clone, PartialEq)]
pub struct Jam {
    /// Handle for [`FaultState::stop_jam`].
    pub id: u64,
    /// Disk center.
    pub center: Point,
    /// Disk radius, meters.
    pub radius: f64,
}

/// The engine's live fault-injection state: the configured channel
/// adversities plus the mutable Gilbert–Elliott chain state and the set of
/// active jamming disks.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultState {
    pub(crate) config: FaultConfig,
    /// Gilbert–Elliott chain state: true while in the lossy bad state.
    pub(crate) burst_bad: bool,
    pub(crate) jams: Vec<Jam>,
    pub(crate) next_jam_id: u64,
    /// Scripted fates by global attempt index. Consulted before every
    /// probabilistic knob; an entry is consumed when its attempt happens.
    pub(crate) script: BTreeMap<u64, Fate>,
    /// Global delivery-attempt counter (every in-range unicast and every
    /// per-receiver broadcast copy, scripted or not). Deterministic for a
    /// given seed, which is what lets a script recorded in one run replay
    /// in another.
    pub(crate) attempts: u64,
    /// When set, every attempt is appended to `attempt_log`.
    pub(crate) log_attempts: bool,
    pub(crate) attempt_log: Vec<AttemptRecord>,
}

impl FaultState {
    /// Fault state for `config`, starting in the good channel state with
    /// no jams.
    ///
    /// # Panics
    ///
    /// Panics when `config` fails [`FaultConfig::validate`] — outside
    /// input is validated where it enters (plan files, CLI flags), so an
    /// invalid configuration here is a programming error.
    #[must_use]
    pub fn new(config: FaultConfig) -> Self {
        config.assert_valid();
        FaultState {
            config,
            burst_bad: false,
            jams: Vec::new(),
            next_jam_id: 0,
            script: BTreeMap::new(),
            attempts: 0,
            log_attempts: false,
            attempt_log: Vec::new(),
        }
    }

    /// Replaces the configuration (chain state and jams are kept).
    ///
    /// # Panics
    ///
    /// Panics when `config` fails [`FaultConfig::validate`].
    pub fn set_config(&mut self, config: FaultConfig) {
        config.assert_valid();
        self.config = config;
    }

    /// True when no fault mechanism is active at all — the engine skips
    /// every hook (and consumes no RNG) in that case.
    #[must_use]
    pub fn is_inert(&self) -> bool {
        self.config.is_none() && self.jams.is_empty() && self.script.is_empty()
    }

    /// Starts jamming the disk of `radius` around `center`; returns a
    /// handle for [`FaultState::stop_jam`].
    pub fn start_jam(&mut self, center: Point, radius: f64) -> u64 {
        assert!(radius >= 0.0, "jam radius must be non-negative");
        let id = self.next_jam_id;
        self.next_jam_id += 1;
        self.jams.push(Jam { id, center, radius });
        id
    }

    /// Stops the jam with the given handle; returns whether it existed.
    pub fn stop_jam(&mut self, id: u64) -> bool {
        let before = self.jams.len();
        self.jams.retain(|j| j.id != id);
        self.jams.len() != before
    }

    /// The currently active jamming disks.
    #[must_use]
    pub fn jams(&self) -> &[Jam] {
        &self.jams
    }

    /// Whether a transmission from `from` to `to` is blocked by a jamming
    /// disk (either endpoint inside one). Purely geometric — no RNG.
    #[must_use]
    pub fn jammed(&self, from: Point, to: Point) -> bool {
        self.jams
            .iter()
            .any(|j| j.center.distance(from) <= j.radius || j.center.distance(to) <= j.radius)
    }

    /// Steps the Gilbert–Elliott chain for one delivery attempt and
    /// reports whether the attempt is lost to a burst. Draws no RNG when
    /// burst loss is off.
    pub fn burst_dropped<R: Rng + ?Sized>(&mut self, rng: &mut R) -> bool {
        if self.config.burst.is_off() {
            return false;
        }
        let flip = if self.burst_bad { self.config.burst.p_exit } else { self.config.burst.p_enter };
        if rng.gen_bool(flip.clamp(0.0, 1.0)) {
            self.burst_bad = !self.burst_bad;
        }
        let loss = if self.burst_bad { self.config.burst.loss_bad } else { self.config.burst.loss_good };
        loss > 0.0 && rng.gen_bool(loss.min(1.0))
    }

    /// Whether this unicast delivery is lost to the unicast-loss knob.
    /// Draws no RNG when the knob is off.
    pub fn unicast_dropped<R: Rng + ?Sized>(&mut self, rng: &mut R) -> bool {
        self.config.unicast_loss > 0.0 && rng.gen_bool(self.config.unicast_loss)
    }

    /// Whether this delivery is duplicated. Draws no RNG when the knob is
    /// off.
    pub fn duplicated<R: Rng + ?Sized>(&mut self, rng: &mut R) -> bool {
        self.config.duplicate > 0.0 && rng.gen_bool(self.config.duplicate)
    }

    /// The extra delay (possibly zero) added to this delivery. Draws no
    /// RNG when the delay knob is off.
    pub fn extra_delay<R: Rng + ?Sized>(&mut self, rng: &mut R) -> SimDuration {
        if self.config.delay_prob <= 0.0 || self.config.delay_max.is_zero() {
            return SimDuration::ZERO;
        }
        if !rng.gen_bool(self.config.delay_prob.min(1.0)) {
            return SimDuration::ZERO;
        }
        SimDuration::from_micros(rng.gen_range(1..=self.config.delay_max.as_micros()))
    }

    /// Installs scripted fates keyed by global attempt index. Merges with
    /// any ops already installed; a repeated index overwrites.
    pub fn install_script(&mut self, ops: impl IntoIterator<Item = (u64, Fate)>) {
        self.script.extend(ops);
    }

    /// Total delivery attempts made so far (the index the *next* attempt
    /// will get).
    #[must_use]
    pub fn attempt_count(&self) -> u64 {
        self.attempts
    }

    /// Turns per-attempt logging on or off. Logging is a model-checker
    /// probe aid; it never affects fates, the RNG, or the trace digest.
    pub fn set_attempt_logging(&mut self, on: bool) {
        self.log_attempts = on;
        if !on {
            self.attempt_log.clear();
        }
    }

    /// Drains and returns the attempts logged since logging was enabled
    /// (or last drained).
    pub fn take_attempt_log(&mut self) -> Vec<AttemptRecord> {
        std::mem::take(&mut self.attempt_log)
    }

    /// Registers one delivery attempt: assigns it the next global index,
    /// logs it when logging is on, and returns its scripted fate, if any
    /// (consuming the script entry). Draws no RNG.
    pub(crate) fn next_attempt(
        &mut self,
        from: NodeId,
        to: NodeId,
        kind: &'static str,
        broadcast: bool,
    ) -> Option<Fate> {
        let index = self.attempts;
        self.attempts += 1;
        if self.log_attempts {
            self.attempt_log.push(AttemptRecord { index, from, to, kind, broadcast });
        }
        if self.script.is_empty() {
            return None;
        }
        self.script.remove(&index)
    }
}

impl Default for FaultState {
    fn default() -> Self {
        FaultState::new(FaultConfig::none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn default_state_is_inert() {
        let fs = FaultState::default();
        assert!(fs.is_inert());
        assert!(fs.config.is_none());
        assert!(!fs.burst_bad);
    }

    #[test]
    fn inert_hooks_draw_no_rng() {
        let mut fs = FaultState::default();
        let mut rng = StdRng::seed_from_u64(7);
        let probe_before = StdRng::seed_from_u64(7).next_u64();
        assert!(!fs.burst_dropped(&mut rng));
        assert!(!fs.unicast_dropped(&mut rng));
        assert!(!fs.duplicated(&mut rng));
        assert_eq!(fs.extra_delay(&mut rng), SimDuration::ZERO);
        // The stream is untouched: the next draw equals the first draw of
        // a fresh rng with the same seed.
        assert_eq!(rng.next_u64(), probe_before);
    }

    #[test]
    fn bursty_losses_cluster() {
        let mut fs = FaultState::new(FaultConfig {
            burst: BurstLoss::bursty(0.05, 5.0),
            ..FaultConfig::none()
        });
        let mut rng = StdRng::seed_from_u64(11);
        let fates: Vec<bool> = (0..20_000).map(|_| fs.burst_dropped(&mut rng)).collect();
        let losses = fates.iter().filter(|&&l| l).count();
        // Stationary loss rate = p_enter/(p_enter+p_exit) = 0.05/0.25 = 0.2.
        let rate = losses as f64 / fates.len() as f64;
        assert!((rate - 0.2).abs() < 0.03, "loss rate {rate}");
        // Mean run length of consecutive losses ≈ mean burst (5), far above
        // the ≈1.25 an independent 20% loss would produce.
        let mut runs = Vec::new();
        let mut cur = 0u32;
        for &l in &fates {
            if l {
                cur += 1;
            } else if cur > 0 {
                runs.push(cur);
                cur = 0;
            }
        }
        let mean_run = runs.iter().map(|&r| f64::from(r)).sum::<f64>() / runs.len() as f64;
        assert!(mean_run > 3.0, "mean burst length {mean_run} not bursty");
        assert!((fs.config.burst.mean_burst() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn unicast_loss_rate_observed() {
        let mut fs =
            FaultState::new(FaultConfig { unicast_loss: 0.3, ..FaultConfig::none() });
        let mut rng = StdRng::seed_from_u64(13);
        let drops = (0..10_000).filter(|_| fs.unicast_dropped(&mut rng)).count();
        let rate = drops as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn extra_delay_bounded_and_sometimes_zero() {
        let mut fs = FaultState::new(FaultConfig {
            delay_prob: 0.5,
            delay_max: SimDuration::from_millis(20),
            ..FaultConfig::none()
        });
        let mut rng = StdRng::seed_from_u64(17);
        let mut zeros = 0;
        let mut nonzeros = 0;
        for _ in 0..1000 {
            let d = fs.extra_delay(&mut rng);
            assert!(d <= SimDuration::from_millis(20));
            if d.is_zero() {
                zeros += 1;
            } else {
                nonzeros += 1;
            }
        }
        assert!(zeros > 300, "zeros {zeros}");
        assert!(nonzeros > 300, "nonzeros {nonzeros}");
    }

    #[test]
    fn jam_blocks_either_endpoint() {
        let mut fs = FaultState::default();
        let id = fs.start_jam(Point::new(100.0, 0.0), 50.0);
        assert!(!fs.is_inert());
        let inside = Point::new(120.0, 0.0);
        let outside = Point::new(300.0, 0.0);
        assert!(fs.jammed(inside, outside));
        assert!(fs.jammed(outside, inside));
        assert!(!fs.jammed(outside, Point::new(400.0, 0.0)));
        assert!(fs.stop_jam(id));
        assert!(!fs.stop_jam(id));
        assert!(fs.is_inert());
        assert!(!fs.jammed(inside, outside));
    }

    #[test]
    fn multiple_jams_stack() {
        let mut fs = FaultState::default();
        let a = fs.start_jam(Point::ORIGIN, 10.0);
        let b = fs.start_jam(Point::new(1000.0, 0.0), 10.0);
        assert_ne!(a, b);
        assert_eq!(fs.jams().len(), 2);
        assert!(fs.jammed(Point::ORIGIN, Point::new(500.0, 0.0)));
        assert!(fs.jammed(Point::new(1000.0, 0.0), Point::new(500.0, 0.0)));
        fs.stop_jam(a);
        assert!(!fs.jammed(Point::ORIGIN, Point::new(500.0, 0.0)));
    }

    #[test]
    fn same_seed_same_fates() {
        let run = |seed: u64| {
            let mut fs = FaultState::new(FaultConfig {
                burst: BurstLoss::bursty(0.1, 3.0),
                unicast_loss: 0.05,
                duplicate: 0.02,
                delay_prob: 0.1,
                delay_max: SimDuration::from_millis(5),
            });
            let mut rng = StdRng::seed_from_u64(seed);
            (0..500)
                .map(|_| {
                    (
                        fs.burst_dropped(&mut rng),
                        fs.unicast_dropped(&mut rng),
                        fs.duplicated(&mut rng),
                        fs.extra_delay(&mut rng),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_probability_rejected() {
        let _ = FaultState::new(FaultConfig { unicast_loss: 1.5, ..FaultConfig::none() });
    }

    #[test]
    #[should_panic(expected = "sever")]
    fn total_unicast_loss_rejected() {
        let _ = FaultState::new(FaultConfig { unicast_loss: 1.0, ..FaultConfig::none() });
    }

    #[test]
    fn validate_names_the_offending_field() {
        let base = FaultConfig { burst: BurstLoss::bursty(0.1, 3.0), ..FaultConfig::none() };
        assert_eq!(base.validate(), Ok(()));
        assert_eq!(FaultConfig::none().validate(), Ok(()));
        let burst = |f: fn(&mut BurstLoss)| {
            let mut c = base.clone();
            f(&mut c.burst);
            c.validate().unwrap_err()
        };
        assert!(burst(|b| b.p_exit = 0.0).contains("burst.p_exit"));
        assert!(burst(|b| b.loss_bad = 7.0).contains("burst.loss_bad"));
        assert!(burst(|b| b.loss_good = -0.1).contains("burst.loss_good"));
        assert!(burst(|b| b.p_enter = f64::NAN).contains("burst.p_enter"));
        let top = |c: FaultConfig| c.validate().unwrap_err();
        assert!(top(FaultConfig { unicast_loss: -3.0, ..base.clone() }).contains("unicast_loss"));
        assert!(top(FaultConfig { duplicate: 1.5, ..base.clone() }).contains("duplicate"));
        assert!(top(FaultConfig { delay_prob: 2.0, ..base.clone() }).contains("delay_prob"));
    }

    #[test]
    #[should_panic(expected = "mean burst")]
    fn bursty_rejects_tiny_burst() {
        let _ = BurstLoss::bursty(0.1, 0.5);
    }
}
