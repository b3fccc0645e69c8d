//! Convergence-time measurement (Theorems 4, 7, 8; Appendix-1 rows 4–5).
//!
//! For static networks the diffusing computation quiesces completely, so
//! convergence time is the exact instant the event queue drains. Dynamic
//! networks (heartbeats never stop) never quiesce: their one settle
//! detector is [`Network::run_to_fixpoint_with`].

use gs3_core::harness::{Network, NetworkBuilder};
use gs3_core::Mode;
use gs3_sim::{SimDuration, SimTime};

/// Result of one convergence measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceResult {
    /// Whether the network converged before the deadline.
    pub converged: bool,
    /// Time at which the structure settled.
    pub time: SimDuration,
    /// Total messages transmitted up to convergence.
    pub messages: u64,
    /// Events processed up to convergence.
    pub events: u64,
    /// `D_b`: the maximum Cartesian distance between the big node and any
    /// small node (Theorem 4's yardstick).
    pub d_b: f64,
    /// Number of heads at convergence.
    pub heads: usize,
    /// Alive node count.
    pub nodes: usize,
}

/// Builds and configures a static-mode network, measuring its
/// convergence by exact quiescence.
///
/// # Panics
///
/// Panics unless the builder is in [`Mode::Static`]: a dynamic network
/// never quiesces.
#[must_use]
pub fn measure_configuration(builder: NetworkBuilder, deadline: SimDuration) -> ConvergenceResult {
    let mut net = builder.build().expect("builder parameters must be valid");
    assert!(matches!(net.config().mode, Mode::Static), "only a static network quiesces");
    let d_b = max_distance_from_big(&net);
    let nodes = net.engine().alive_count();

    let (converged, time) = match net.engine_mut().run_until_quiescent(SimTime::ZERO + deadline) {
        Some(t) => (true, t.since(SimTime::ZERO)),
        None => (false, deadline),
    };

    let snap = net.snapshot();
    ConvergenceResult {
        converged,
        time,
        messages: net.engine().trace().total_sent(),
        events: net.engine().events_processed(),
        d_b,
        heads: snap.heads().count(),
        nodes,
    }
}

/// `D_b`: max distance from the big node to any alive node.
#[must_use]
pub fn max_distance_from_big(net: &Network) -> f64 {
    let big_pos = net.engine().position(net.big_id()).expect("big node exists");
    net.engine()
        .alive_ids()
        .filter_map(|id| net.engine().position(id).ok())
        .map(|p| big_pos.distance(p))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_network_quiesces_and_converges() {
        let builder = NetworkBuilder::new()
            .mode(Mode::Static)
            .ideal_radius(80.0)
            .radius_tolerance(16.0)
            .area_radius(180.0)
            .expected_nodes(450)
            .seed(11);
        let res = measure_configuration(builder, SimDuration::from_secs(300));
        assert!(res.converged, "static diffusion must terminate");
        assert!(res.time > SimDuration::ZERO);
        assert!(res.heads >= 5, "heads = {}", res.heads);
        assert!(res.d_b > 100.0);
        assert!(res.messages > 0);
    }
}
