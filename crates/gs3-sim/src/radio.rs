//! The wireless channel model.
//!
//! Follows the paper's system model: *destination-aware* (unicast)
//! transmission is reliable; *destination-unaware* (broadcast) transmission
//! may be lossy. Nodes can adjust transmission range per message up to a
//! hardware maximum. Delivery latency grows with distance, standing in for
//! propagation plus MAC arbitration, so that the paper's
//! "message-diffusion-time" convergence bounds are observable.

use rand::Rng;

use crate::time::SimDuration;

/// Fixed per-message latency (MAC/processing), applied to every delivery.
pub const BASE_LATENCY: SimDuration = SimDuration::from_millis(2);
/// Additional latency per whole meter of sender–receiver distance.
pub const LATENCY_PER_METER: SimDuration = SimDuration::from_micros(3);

/// Parameters of the wireless channel.
#[derive(Debug, Clone, PartialEq)]
pub struct RadioModel {
    /// Hardware maximum transmission range, meters. Sends beyond this are
    /// silently truncated to it (and unicasts beyond it fail).
    pub max_range: f64,
    /// Upper bound of the uniform random jitter added per delivery.
    pub jitter: SimDuration,
    /// Probability that any given receiver misses a *broadcast* message.
    /// Unicasts are never dropped by the channel (the paper's reliability
    /// assumption for destination-aware transmission).
    pub broadcast_loss: f64,
}

impl RadioModel {
    /// A model suitable for the paper's scenarios: kilometer-scale fields,
    /// sub-second local exchanges, lossless broadcast by default.
    #[must_use]
    pub fn ideal(max_range: f64) -> Self {
        RadioModel { max_range, jitter: SimDuration::from_millis(1), broadcast_loss: 0.0 }
    }

    /// Same as [`RadioModel::ideal`] but with lossy broadcasts. `loss ==
    /// 1.0` (total broadcast blackout) is a legitimate adversarial
    /// setting: destination-aware unicast still works, so it isolates the
    /// protocol paths that genuinely require broadcast.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not in `[0, 1]`.
    #[must_use]
    pub fn lossy(max_range: f64, loss: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss), "broadcast loss must be in [0, 1]");
        RadioModel { broadcast_loss: loss, ..RadioModel::ideal(max_range) }
    }

    /// The delivery latency for a message traveling `distance` meters,
    /// including a random jitter drawn from `rng`.
    pub fn latency<R: Rng + ?Sized>(&self, distance: f64, rng: &mut R) -> SimDuration {
        let dist_term = LATENCY_PER_METER * (distance.max(0.0) as u64);
        let jitter = if self.jitter.is_zero() {
            SimDuration::ZERO
        } else {
            SimDuration::from_micros(rng.gen_range(0..=self.jitter.as_micros()))
        };
        BASE_LATENCY + dist_term + jitter
    }

    /// Whether a broadcast copy to one receiver is lost.
    pub fn broadcast_dropped<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        self.broadcast_loss > 0.0 && rng.gen_bool(self.broadcast_loss)
    }

    /// The effective range of a transmission requested at `radius` meters:
    /// clamped to the hardware maximum.
    #[must_use]
    pub fn effective_range(&self, radius: f64) -> f64 {
        radius.min(self.max_range)
    }
}

/// Energy accounting parameters (first-order radio energy model).
///
/// Transmission cost grows with the square of the transmission range
/// (amplifier energy), reception and idle listening cost constants. Heads
/// naturally dissipate faster than associates — the asymmetry *cell shift*
/// exploits.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    /// Cost charged to the sender per transmission: `tx_base + tx_dist2 ·
    /// range²`.
    pub tx_base: f64,
    /// Quadratic range coefficient of the transmission cost.
    pub tx_dist2: f64,
    /// Cost charged to each receiver per delivered message.
    pub rx: f64,
    /// Idle/listen drain per second of simulated time. Applied lazily by
    /// the engine at each event dispatch (a node's drain is settled before
    /// it handles an event), so a node with no events is not drained until
    /// its next event — in practice every active node runs periodic
    /// timers, keeping the error within one heartbeat.
    pub idle: f64,
}

impl EnergyModel {
    /// A model where energy is not accounted (all costs zero) — the default
    /// for correctness-oriented experiments.
    #[must_use]
    pub fn disabled() -> Self {
        EnergyModel { tx_base: 0.0, tx_dist2: 0.0, rx: 0.0, idle: 0.0 }
    }

    /// A first-order model normalized so that one maximum-range
    /// transmission at `range` costs 1 unit. Idle listening drains 0.005
    /// units per second — two orders below a transmission, but enough
    /// that quiet nodes are no longer over-credited in lifetime runs.
    #[must_use]
    pub fn normalized(range: f64) -> Self {
        EnergyModel { tx_base: 0.2, tx_dist2: 0.8 / (range * range), rx: 0.05, idle: 0.005 }
    }

    /// Cost of one transmission at `range` meters.
    #[must_use]
    pub fn tx_cost(&self, range: f64) -> f64 {
        self.tx_base + self.tx_dist2 * range * range
    }

    /// Cost of idling for `secs` seconds of simulated time.
    #[must_use]
    pub fn idle_cost(&self, secs: f64) -> f64 {
        self.idle * secs
    }

    /// True when all coefficients are zero (no accounting).
    #[must_use]
    pub fn is_disabled(&self) -> bool {
        self.tx_base == 0.0 && self.tx_dist2 == 0.0 && self.rx == 0.0 && self.idle == 0.0
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn latency_grows_with_distance() {
        let mut model = RadioModel::ideal(500.0);
        model.jitter = SimDuration::ZERO;
        let mut rng = StdRng::seed_from_u64(1);
        let near = model.latency(10.0, &mut rng);
        let far = model.latency(400.0, &mut rng);
        assert!(far > near);
        assert_eq!(far, BASE_LATENCY + LATENCY_PER_METER * 400);
    }

    #[test]
    fn jitter_bounded() {
        let model = RadioModel::ideal(500.0);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let lat = model.latency(100.0, &mut rng);
            let min = BASE_LATENCY + LATENCY_PER_METER * 100;
            assert!(lat >= min);
            assert!(lat <= min + model.jitter);
        }
    }

    #[test]
    fn lossless_broadcast_never_drops() {
        let model = RadioModel::ideal(500.0);
        let mut rng = StdRng::seed_from_u64(3);
        assert!((0..1000).all(|_| !model.broadcast_dropped(&mut rng)));
    }

    #[test]
    fn lossy_broadcast_drops_at_rate() {
        let model = RadioModel::lossy(500.0, 0.3);
        let mut rng = StdRng::seed_from_u64(4);
        let drops = (0..10_000).filter(|_| model.broadcast_dropped(&mut rng)).count();
        let rate = drops as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn effective_range_clamps() {
        let model = RadioModel::ideal(300.0);
        assert_eq!(model.effective_range(200.0), 200.0);
        assert_eq!(model.effective_range(900.0), 300.0);
    }

    #[test]
    fn energy_tx_cost_quadratic() {
        let e = EnergyModel::normalized(100.0);
        assert!((e.tx_cost(100.0) - 1.0).abs() < 1e-12);
        assert!(e.tx_cost(50.0) < e.tx_cost(100.0));
    }

    #[test]
    fn disabled_energy() {
        assert!(EnergyModel::disabled().is_disabled());
        assert!(!EnergyModel::normalized(10.0).is_disabled());
        assert_eq!(EnergyModel::default(), EnergyModel::disabled());
        // An idle-only model still counts as accounting-enabled.
        let idle_only = EnergyModel { idle: 0.1, ..EnergyModel::disabled() };
        assert!(!idle_only.is_disabled());
    }

    #[test]
    fn idle_cost_scales_with_time() {
        let e = EnergyModel::normalized(100.0);
        assert!((e.idle_cost(10.0) - 10.0 * e.idle).abs() < 1e-12);
        assert_eq!(EnergyModel::disabled().idle_cost(1e9), 0.0);
        // Idle drain stays far below active costs: a full heartbeat of
        // idling costs less than a single max-range transmission.
        assert!(e.idle_cost(3.0) < e.tx_cost(100.0));
    }

    #[test]
    #[should_panic(expected = "broadcast loss")]
    fn lossy_rejects_bad_rate() {
        let _ = RadioModel::lossy(100.0, 1.5);
    }

    #[test]
    fn lossy_accepts_total_blackout() {
        let model = RadioModel::lossy(100.0, 1.0);
        let mut rng = StdRng::seed_from_u64(5);
        assert!((0..1000).all(|_| model.broadcast_dropped(&mut rng)));
    }
}
