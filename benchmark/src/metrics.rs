//! The metric names this binary prints, with their units. `BENCHMARK.json`
//! declares the same names (plus direction and bound); `tests/smoke.rs`
//! holds the two lists to each other.
//!
//! Naming: `*_sim_*` and the units `sim_s` / `sim_ms` are simulated time;
//! `count` and `ratio` are exact functions of the seed; everything in
//! `s`, `ns`, `1/s`, `MiB` or `%` is host cost and carries noise.

/// Printed with `--trace 0`, by every workload, never zero.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("configure_sim_s", "sim_s"),
    ("ctrl_msgs_per_node_sim_s", "1/sim_s"),
    ("coverage_ratio", "ratio"),
];

/// Printed with `--trace 1`. A workload that does not exercise a layer
/// prints 0 for that layer's counts and outcomes.
pub const PER_LAYER: &[(&str, &str)] = &[
    // (a) in-situ, from the spans of the traced repetition
    ("bench.setup_s", "s"),
    ("bench.window_s", "s"),
    ("core.harness.build_s", "s"),
    ("core.harness.configure_s", "s"),
    ("core.harness.heal_s", "s"),
    ("sim.engine.run_s", "s"),
    ("sim.engine.ns_per_event", "ns"),
    ("core.snapshot.signature_s", "s"),
    ("core.invariants.check_s", "s"),
    ("core.chaos.inject_s", "s"),
    ("trace_overhead_pct", "%"),
    // simulated outcomes of the layer that produces them
    ("core.chaos.heal_sim_s_p50", "sim_s"),
    ("core.chaos.heal_sim_s_p99", "sim_s"),
    ("core.chaos.heal_sim_s_mean", "sim_s"),
    ("core.workload.lifetime_sim_s", "sim_s"),
    ("core.workload.reports_per_joule", "1/J"),
    ("dataplane.delivery_ratio", "ratio"),
    ("dataplane.ledger.latency_sim_ms_p50", "sim_ms"),
    ("dataplane.ledger.latency_sim_ms_p99", "sim_ms"),
    // exact counts
    ("core.harness.nodes", "count"),
    ("core.harness.polls", "count"),
    ("core.chaos.faults", "count"),
    ("core.invariants.straggler_polls", "count"),
    ("sim.engine.events", "count"),
    ("sim.engine.timers_fired", "count"),
    ("sim.queue.peak_depth", "count"),
    ("sim.radio.unicasts", "count"),
    ("sim.radio.broadcasts", "count"),
    ("sim.radio.deliveries", "count"),
    ("sim.medium.collisions", "count"),
    ("sim.medium.defers", "count"),
    ("sim.medium.backoff_exhausted", "count"),
    ("sim.faults.dropped", "count"),
    ("sim.faults.duplicated", "count"),
    ("core.reliable.retransmits", "count"),
    ("core.reliable.give_ups", "count"),
    ("dataplane.batches", "count"),
    ("dataplane.reports", "count"),
    ("dataplane.queue.drops", "count"),
    ("dataplane.credit.recovered", "count"),
    ("dataplane.ledger.duplicates", "count"),
    ("telemetry.recorder.recorded", "count"),
    ("telemetry.recorder.dropped", "count"),
    ("telemetry.episode.count", "count"),
    // useful outcomes per attempt
    ("sim.radio.deliveries_per_tx", "ratio"),
    ("sim.medium.collision_ratio", "ratio"),
    ("dataplane.reports_per_batch", "ratio"),
    // (b) isolated layer drivers: median host ns per operation
    ("sim.queue.hold_ns_d4k", "ns"),
    ("sim.queue.hold_ns_d128k", "ns"),
    ("sim.spatial.query_ns_n1k4", "ns"),
    ("sim.spatial.query_ns_n50k", "ns"),
    ("sim.spatial.update_ns", "ns"),
    ("sim.deploy.ns_per_node", "ns"),
    ("core.harness.build_ns_per_node", "ns"),
    ("sim.engine.null_ns_per_event_n1k4", "ns"),
    ("sim.engine.null_ns_per_event_n50k", "ns"),
    ("sim.engine.protocol_share_pct", "%"),
    ("sim.medium.null_extra_ns_per_tx", "ns"),
    ("sim.faults.filter_ns_on", "ns"),
    ("sim.faults.filter_ns_off", "ns"),
    ("telemetry.recorder.count_ns", "ns"),
    ("telemetry.recorder.record_ns", "ns"),
    ("telemetry.episode.delivery_ns", "ns"),
    ("telemetry.export.chrome_ns_per_event", "ns"),
    ("dataplane.queue.push_pop_ns", "ns"),
    ("dataplane.credit.cycle_ns", "ns"),
    ("dataplane.ledger.consume_ns", "ns"),
    ("core.snapshot.signature_ns_per_node", "ns"),
    ("core.snapshot.into_ns_per_node", "ns"),
    ("core.invariants.index_build_ns_per_node", "ns"),
    ("core.invariants.index_update_ns_per_node", "ns"),
    ("core.invariants.check_ns_per_node", "ns"),
    ("geometry.rank.best_candidate_ns", "ns"),
    ("geometry.spiral.build_ns", "ns"),
    ("mc.explore.states_per_s", "1/s"),
];

/// Host-cost units; every other unit is exact per seed.
pub fn is_host_unit(unit: &str) -> bool {
    matches!(unit, "s" | "ns" | "1/s" | "MiB" | "%")
}
