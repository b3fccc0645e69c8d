//! Convergence-time measurement (Theorems 4, 7, 8; Appendix-1 rows 4–5).
//!
//! For static networks the diffusing computation quiesces completely, so
//! convergence time is the exact instant the event queue drains. For
//! dynamic networks (heartbeats never stop) convergence is detected by
//! structural-signature stability.

use gs3_core::config::COLLECT_WINDOW;
use gs3_core::harness::{Network, NetworkBuilder, RunOutcome};
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

/// Builds and configures a network, measuring its convergence.
///
/// Static-mode networks are measured by exact quiescence; dynamic ones by
/// signature stability (the reported time subtracts the stability window,
/// since the structure settled before detection).
#[must_use]
pub fn measure_configuration(builder: NetworkBuilder, deadline: SimDuration) -> ConvergenceResult {
    let mut net = builder.build().expect("builder parameters must be valid");
    let mode = net.config().mode;
    let d_b = max_distance_from_big(&net);
    let nodes = net.engine().alive_count();

    let (converged, time) = match mode {
        Mode::Static => match net.engine_mut().run_until_quiescent(SimTime::ZERO + deadline) {
            Some(t) => (true, t.since(SimTime::ZERO)),
            None => (false, deadline),
        },
        _ => match settle_time(&mut net, COLLECT_WINDOW * 2, SimTime::ZERO + deadline) {
            Some(t) => (true, t),
            None => (false, deadline),
        },
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

/// Measures convergence of an already-built (possibly perturbed) dynamic
/// network by signature stability. Returns the settle time (stability
/// window subtracted) or `None` on timeout.
pub fn settle_time(net: &mut Network, poll: SimDuration, deadline: SimTime) -> Option<SimDuration> {
    let start = net.now();
    let stable_polls = 4;
    match net.run_to_fixpoint_with(poll, stable_polls, deadline) {
        RunOutcome::Fixpoint { at, .. } => {
            Some(at.since(start) - poll * u64::from(stable_polls))
        }
        RunOutcome::TimedOut { .. } => None,
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

    #[test]
    fn settle_time_on_dynamic_network() {
        let mut net = NetworkBuilder::new()
            .ideal_radius(80.0)
            .radius_tolerance(16.0)
            .area_radius(150.0)
            .expected_nodes(300)
            .seed(12)
            .build()
            .unwrap();
        let t = settle_time(
            &mut net,
            SimDuration::from_millis(500),
            SimTime::ZERO + SimDuration::from_secs(300),
        );
        assert!(t.is_some(), "dynamic network must settle");
    }
}
