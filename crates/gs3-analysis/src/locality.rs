//! Locality measurement: how far the effects of a perturbation spread and
//! how long healing takes (the paper's §4.3.5.2 scalable self-healing
//! claims and Theorem 11's `√3·d/2` containment bound for big-node moves).

use gs3_core::config::{SANITY_PERIOD, SANITY_WINDOW};
use gs3_core::snapshot::{RoleView, Snapshot};
use gs3_core::harness::Network;
use gs3_geometry::Point;
use gs3_sim::{NodeId, SimDuration, SimTime};


/// The observable impact of one perturbation.
#[derive(Debug, Clone, PartialEq)]
pub struct ImpactReport {
    /// Nodes whose structural state (role, head, parent) changed.
    pub changed: Vec<NodeId>,
    /// Heads whose head-graph edge (parent pointer) changed, including
    /// heads created or demoted.
    pub changed_head_edges: Vec<NodeId>,
    /// Maximum distance of any changed node from the perturbation center.
    pub impact_radius: f64,
    /// Maximum distance of any changed head-graph edge endpoint from the
    /// center (Theorem 11's measure).
    pub edge_impact_radius: f64,
    /// How long the structure took to settle again (`None` = timed out).
    pub heal_time: Option<SimDuration>,
}

/// A node's structural fingerprint used for diffing.
fn fingerprint(view: &RoleView) -> (u8, Option<NodeId>, Option<NodeId>) {
    match view {
        RoleView::Bootup => (0, None, None),
        RoleView::Head { parent, .. } => (1, Some(*parent), None),
        RoleView::Associate { head, .. } => (2, Some(*head), None),
        RoleView::BigAway { proxy, .. } => (3, *proxy, None),
    }
}

/// Nodes whose structural fingerprint differs between two snapshots
/// (newly spawned nodes count as changed; dead nodes do not — their
/// removal *is* the perturbation).
#[must_use]
pub fn changed_nodes(before: &Snapshot, after: &Snapshot) -> Vec<NodeId> {
    let mut out = Vec::new();
    for a in &after.nodes {
        if !a.alive {
            continue;
        }
        match before.node(a.id) {
            Some(b) => {
                if fingerprint(&b.role) != fingerprint(&a.role) {
                    out.push(a.id);
                }
            }
            None => out.push(a.id),
        }
    }
    out
}

/// Heads whose head-graph edge changed between two snapshots: parent
/// switched, head newly created, or head demoted.
#[must_use]
pub fn changed_head_edges(before: &Snapshot, after: &Snapshot) -> Vec<NodeId> {
    let parent_of = |snap: &Snapshot, id: NodeId| -> Option<NodeId> {
        snap.node(id).and_then(|n| match &n.role {
            RoleView::Head { parent, .. } => Some(*parent),
            _ => None,
        })
    };
    let mut out = Vec::new();
    let ids: std::collections::BTreeSet<NodeId> = before
        .heads()
        .map(|n| n.id)
        .chain(after.heads().map(|n| n.id))
        .collect();
    for id in ids {
        if parent_of(before, id) != parent_of(after, id) {
            // Skip heads that changed because they died.
            if after.node(id).is_some_and(|n| n.alive) || before.node(id).is_some_and(|n| n.alive) {
                out.push(id);
            }
        }
    }
    out
}

/// Applies `perturb` to the network, lets it re-stabilize, and reports the
/// spatial extent of every induced change relative to `center`.
///
/// Healing time is the instant of the *last structural change*: the
/// network is polled at `settle_poll` until its structural signature has
/// been quiet for a window covering both the failure-detection timeouts
/// and the sanity-check period (so silences between repair waves are not
/// mistaken for convergence), or `deadline` passes.
pub fn measure_impact<F>(
    net: &mut Network,
    center: Point,
    settle_poll: SimDuration,
    deadline: SimDuration,
    perturb: F,
) -> ImpactReport
where
    F: FnOnce(&mut Network),
{
    let before = net.snapshot();
    let before_sig = net.structural_signature();
    let start = net.now();
    perturb(net);
    let quiet_needed = net.config().detection_window() + SANITY_PERIOD + SANITY_WINDOW;
    let hard_deadline = start + deadline;
    let mut last_sig = net.structural_signature();
    let mut last_change: Option<SimTime> = if last_sig == before_sig { None } else { Some(start) };
    let mut timed_out = true;
    while net.now() < hard_deadline {
        net.run_for(settle_poll);
        let sig = net.structural_signature();
        if sig != last_sig {
            last_sig = sig;
            last_change = Some(net.now());
        }
        let quiet_since = last_change.unwrap_or(start);
        if net.now().saturating_since(quiet_since) >= quiet_needed {
            timed_out = false;
            break;
        }
    }
    let heal_time = match (last_change, timed_out) {
        (_, true) => None,
        (Some(t), false) => Some(t.since(start)),
        (None, false) => Some(SimDuration::ZERO),
    };
    let after = net.snapshot();

    let changed = changed_nodes(&before, &after);
    let changed_edges = changed_head_edges(&before, &after);
    let radius_of = |ids: &[NodeId]| {
        ids.iter()
            .filter_map(|id| after.node(*id).or_else(|| before.node(*id)))
            .map(|n| center.distance(n.pos))
            .fold(0.0, f64::max)
    };
    ImpactReport {
        impact_radius: radius_of(&changed),
        edge_impact_radius: radius_of(&changed_edges),
        changed,
        changed_head_edges: changed_edges,
        heal_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs3_core::harness::NetworkBuilder;

    fn settled_net(seed: u64) -> Network {
        let mut net = NetworkBuilder::new()
            .ideal_radius(80.0)
            .radius_tolerance(16.0)
            .area_radius(180.0)
            .expected_nodes(450)
            .seed(seed)
            .build()
            .unwrap();
        let _ = net.run_to_fixpoint().unwrap();
        net
    }

    #[test]
    fn no_perturbation_no_change() {
        let mut net = settled_net(21);
        let report = measure_impact(
            &mut net,
            Point::ORIGIN,
            SimDuration::from_millis(500),
            SimDuration::from_secs(180),
            |_| {},
        );
        assert!(report.changed.is_empty(), "changed: {:?}", report.changed);
        assert_eq!(report.impact_radius, 0.0);
        assert!(report.heal_time.is_some());
    }

    #[test]
    fn killing_one_associate_changes_nothing_structural() {
        let mut net = settled_net(22);
        // Pick a non-candidate associate far from any IL.
        let snap = net.snapshot();
        let victim = snap
            .associates()
            .find(|n| matches!(n.role, RoleView::Associate { is_candidate: false, .. }))
            .map(|n| (n.id, n.pos))
            .expect("some plain associate exists");
        let report = measure_impact(
            &mut net,
            victim.1,
            SimDuration::from_millis(500),
            SimDuration::from_secs(180),
            |net| net.kill(victim.0),
        );
        // The death is masked inside the cell: no alive node changes its
        // structural state.
        assert!(
            report.changed.is_empty(),
            "associate death must be masked, changed: {:?}",
            report.changed
        );
    }
}
