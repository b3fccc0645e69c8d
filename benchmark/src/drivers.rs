//! Isolated layer drivers: each calls one layer's public API in a loop on
//! inputs shaped like the workload it stands for and reports the median
//! host nanoseconds per operation. They give every layer a floor to hold
//! the in-situ numbers against: driver ns/op × the exact count of the
//! traced run estimates that layer's share of `sim.engine.run_s`, which
//! spans recorded from outside the engine cannot split.

use std::hint::black_box;
use std::time::{Duration, Instant};

use gs3_core::invariants::{check_all_with, SnapshotIndex, Strictness};
use gs3_dataplane::{AggQueue, BatchEntry, CreditGate, DataplaneConfig, SinkLedger};
use gs3_geometry::rank::best_candidate;
use gs3_geometry::spiral::CellSpiral;
use gs3_geometry::{Angle, Point};
use gs3_mc::{Budgets, McStrategy, ModelChecker, Scenario};
use gs3_sim::deploy::Deployment;
use gs3_sim::faults::{BurstLoss, FaultConfig, FaultState};
use gs3_sim::queue::RadixQueue;
use gs3_sim::radio::{EnergyModel, RadioModel};
use gs3_sim::spatial::SpatialGrid;
use gs3_sim::telemetry::{
    export_chrome_trace, pack_tag, EpisodeTracker, Event, EventClass, FlightRecorder, RecorderMode,
    NO_PEER,
};
use gs3_sim::{ContentionConfig, Context, Engine, Node, NodeId, Payload, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::workloads::{area_for, base_builder, R, R_T};

/// The range the protocol's radio is built with (`coord_radius · 1.05`).
fn radio_range() -> f64 {
    gs3_geometry::coordination_radius(R, R_T) * 1.05
}

/// Times `batch()` (which performs `ops` operations) repeatedly for
/// `budget` after one warm-up call; median host ns per operation.
fn ns_per_op(budget: Duration, ops: u64, mut batch: impl FnMut()) -> f64 {
    batch();
    let mut samples = Vec::new();
    let started = Instant::now();
    while started.elapsed() < budget || samples.len() < 3 {
        let t0 = Instant::now();
        batch();
        samples.push(t0.elapsed().as_nanos() as f64 / ops as f64);
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn deployment(nodes: usize, rng: &mut StdRng) -> Vec<Point> {
    let area = area_for(nodes);
    Deployment::disk(area, nodes as f64 / (area * area)).generate(rng)
}

// ---------------------------------------------------------------------
// gs3-sim
// ---------------------------------------------------------------------

/// Classic hold model at constant depth: pop the earliest, schedule one
/// a random increment later.
fn queue_hold(depth: usize, budget: Duration, rng: &mut StdRng) -> f64 {
    let mut q: RadixQueue<u64> = RadixQueue::new();
    // Heartbeat-like horizon: everything pending falls within ~3 s.
    let horizon_us = 3_000_000u64;
    for i in 0..depth as u64 {
        q.schedule(SimTime::from_micros(rng.gen_range(0..horizon_us)), i);
    }
    let increments: Vec<u64> = (0..4096).map(|_| rng.gen_range(1..horizon_us)).collect();
    let mut k = 0usize;
    ns_per_op(budget, 10_000, || {
        for _ in 0..10_000 {
            let (at, payload) = q.pop().expect("depth is constant");
            k = (k + 1) & 4095;
            q.schedule(
                SimTime::from_micros(at.as_micros() + increments[k]),
                payload,
            );
        }
    })
}

fn spatial_grid(points: &[Point]) -> SpatialGrid {
    let mut grid = SpatialGrid::new(radio_range());
    for (i, p) in points.iter().enumerate() {
        grid.insert(i, *p);
    }
    grid
}

fn spatial_query(points: &[Point], budget: Duration) -> f64 {
    let grid = spatial_grid(points);
    let range = radio_range();
    let mut next = 0usize;
    ns_per_op(budget, 1_000, || {
        let mut seen = 0usize;
        for _ in 0..1_000 {
            // A stride coprime to any field size walks the senders in a
            // cache-unfriendly order, as event order does.
            next = (next + 7_919) % points.len();
            grid.for_each_candidate(points[next], range, |h| seen += h);
        }
        black_box(seen);
    })
}

fn spatial_update(points: &[Point], budget: Duration) -> f64 {
    let mut grid = spatial_grid(points);
    let mut next = 0usize;
    ns_per_op(budget, 4_000, || {
        for _ in 0..1_000 {
            next = (next + 7_919) % points.len();
            let p = points[next];
            let moved = Point::new(p.x + 200.0, p.y - 200.0);
            grid.remove(next, p);
            grid.insert(next, p);
            grid.relocate(next, p, moved);
            grid.relocate(next, moved, p);
        }
        black_box(grid.len());
    })
}

#[derive(Debug, Clone)]
struct Beacon;
impl Payload for Beacon {}

/// The engine's floor: a timer fires, the node broadcasts and re-arms;
/// handlers are empty. Queue + spatial + trace + dispatch, no protocol.
#[derive(Debug, Clone)]
struct NullNode;

const BEACON_PERIOD: SimDuration = SimDuration::from_secs(2);

impl Node for NullNode {
    type Msg = Beacon;
    type Timer = ();

    fn on_start(&mut self, ctx: &mut Context<'_, Beacon, ()>) {
        let phase = ctx.rng().gen_range(0..BEACON_PERIOD.as_micros());
        ctx.set_timer(SimDuration::from_micros(phase + 1), ());
    }

    fn on_message(&mut self, _from: NodeId, _msg: Beacon, _ctx: &mut Context<'_, Beacon, ()>) {}

    fn on_timer(&mut self, _timer: (), ctx: &mut Context<'_, Beacon, ()>) {
        ctx.broadcast(R + R_T, Beacon);
        ctx.set_timer(BEACON_PERIOD, ());
    }
}

fn null_engine(points: &[Point], contention: bool, seed: u64) -> Engine<NullNode> {
    let mut eng = Engine::new(
        RadioModel::ideal(radio_range()),
        EnergyModel::disabled(),
        seed,
    );
    if contention {
        eng.set_contention(ContentionConfig::on());
    }
    for p in points {
        eng.spawn(NullNode, *p);
    }
    // Past every node's first beacon, so each period is a full round.
    eng.run_for(BEACON_PERIOD);
    eng
}

/// `(host ns per event, host ns per beacon period, transmissions per
/// period)` of the null protocol over `points`.
fn null_engine_cost(
    points: &[Point],
    contention: bool,
    seed: u64,
    budget: Duration,
) -> (f64, f64, f64) {
    let mut eng = null_engine(points, contention, seed);
    let (mut events, mut sent, mut periods) = (0u64, 0u64, 0u64);
    let per_period = ns_per_op(budget, 1, || {
        let (e0, s0) = (eng.events_processed(), eng.trace().total_sent());
        eng.run_for(BEACON_PERIOD);
        events += eng.events_processed() - e0;
        sent += eng.trace().total_sent() - s0;
        periods += 1;
    });
    let events_per_period = events as f64 / periods as f64;
    (
        per_period / events_per_period,
        per_period,
        sent as f64 / periods as f64,
    )
}

fn faults_filter(config: FaultConfig, budget: Duration, rng: &mut StdRng) -> f64 {
    let mut state = FaultState::new(config);
    ns_per_op(budget, 10_000, || {
        let mut hits = 0u64;
        for _ in 0..10_000 {
            hits += u64::from(state.burst_dropped(rng));
            hits += u64::from(state.unicast_dropped(rng));
            hits += u64::from(state.duplicated(rng));
            hits += state.extra_delay(rng).as_micros();
        }
        black_box(hits);
    })
}

// ---------------------------------------------------------------------
// gs3-telemetry
// ---------------------------------------------------------------------

fn sample_event(i: u64) -> Event {
    Event {
        t_us: i,
        node: i % 400,
        class: EventClass::Delivery,
        kind: "bench",
        peer: NO_PEER,
        episode: 0,
        data: i,
    }
}

fn telemetry(budget: Duration, out: &mut Vec<(&'static str, f64)>) {
    let mut rec = FlightRecorder::new();
    out.push((
        "telemetry.recorder.count_ns",
        ns_per_op(budget, 10_000, || {
            for _ in 0..10_000 {
                rec.count_only(black_box(EventClass::Delivery));
            }
            black_box(rec.total());
        }),
    ));

    // Ring sized as `chaos_400` sizes it; full after the warm-up, so the
    // steady state is overwrite-oldest.
    let mut rec = FlightRecorder::new();
    rec.set_mode(RecorderMode::Full { capacity: 50_000 });
    let mut i = 0u64;
    out.push((
        "telemetry.recorder.record_ns",
        ns_per_op(budget, 10_000, || {
            for _ in 0..10_000 {
                i += 1;
                rec.record(black_box(sample_event(i)));
            }
        }),
    ));

    // One open episode with a crash-disk-sized taint set; unicast
    // deliveries to fresh and already-tainted nodes alternate.
    let mut tracker = EpisodeTracker::new();
    let ep = tracker.open("bench", 0);
    tracker.add_origin(ep, (0.0, 0.0));
    for node in 0..40 {
        tracker.taint_node(ep, node);
    }
    let tag = pack_tag(ep, 1);
    let mut n = 0u64;
    out.push((
        "telemetry.episode.delivery_ns",
        ns_per_op(budget, 10_000, || {
            for _ in 0..10_000 {
                n += 1;
                tracker.on_delivery(tag, n % 400, ((n % 97) as f64, (n % 89) as f64), n % 4 == 0);
            }
        }),
    ));

    let held = rec.len() as u64;
    out.push((
        "telemetry.export.chrome_ns_per_event",
        ns_per_op(budget, held, || {
            black_box(export_chrome_trace(rec.events(), tracker.episodes(), i).len());
        }),
    ));
}

// ---------------------------------------------------------------------
// gs3-dataplane
// ---------------------------------------------------------------------

fn dataplane(budget: Duration, out: &mut Vec<(&'static str, f64)>) {
    let cfg = DataplaneConfig::on();
    let entry = |seq: u64| BatchEntry {
        from: NodeId::new(seq % 7),
        origin: NodeId::new(seq % 300),
        seq,
        count: 4,
        born: SimTime::from_micros(seq),
    };

    // Kept one short of capacity: every push stores, every pop drains.
    let mut q = AggQueue::new();
    let mut seq = 0u64;
    for _ in 0..cfg.queue_capacity - 1 {
        seq += 1;
        q.push(entry(seq), cfg.queue_capacity);
    }
    out.push((
        "dataplane.queue.push_pop_ns",
        ns_per_op(budget, 10_000, || {
            for _ in 0..10_000 {
                seq += 1;
                black_box(q.push(entry(seq), cfg.queue_capacity));
                black_box(q.pop());
            }
        }),
    ));

    // Send until starved, tick the stall detector, get the window back.
    let mut gate = CreditGate::full(cfg.credit_window);
    let per_cycle = u64::from(cfg.credit_window) + 3;
    out.push((
        "dataplane.credit.cycle_ns",
        ns_per_op(budget, 2_000 * per_cycle, || {
            for _ in 0..2_000 {
                let gate = black_box(&mut gate);
                while gate.try_consume() {}
                black_box(gate.note_tick(true, cfg.stall_recovery_ticks));
                gate.grant(cfg.credit_window, cfg.credit_window);
            }
        }),
    ));

    // 300 origin heads delivering in sequence, one replay in sixteen.
    let mut ledger = SinkLedger::new();
    let mut next = vec![0u64; 300];
    let mut k = 0usize;
    out.push((
        "dataplane.ledger.consume_ns",
        ns_per_op(budget, 10_000, || {
            for i in 0..10_000u64 {
                k = (k + 131) % next.len();
                if i % 16 != 0 {
                    next[k] += 1;
                }
                black_box(ledger.consume(NodeId::new(k as u64), next[k].max(1), 4, 40_000 + i));
            }
        }),
    ));
}

// ---------------------------------------------------------------------
// gs3-core, gs3-geometry, gs3-mc
// ---------------------------------------------------------------------

fn core(nodes: usize, seed: u64, budget: Duration, out: &mut Vec<(&'static str, f64)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let area = area_for(nodes);
    let deploy = Deployment::disk(area, nodes as f64 / (area * area));
    out.push((
        "sim.deploy.ns_per_node",
        ns_per_op(budget, nodes as u64, || {
            black_box(deploy.generate(&mut rng).len());
        }),
    ));
    // The built network is dropped inside the timed call: set-up pays
    // for the allocation it makes, including giving it back.
    out.push((
        "core.harness.build_ns_per_node",
        ns_per_op(budget, nodes as u64, || {
            let net = base_builder(nodes, seed).build().expect("valid parameters");
            black_box(net.engine().node_count());
        }),
    ));

    let mut net = base_builder(nodes, seed).build().expect("valid parameters");
    let _ = net.run_to_fixpoint();
    let n = net.engine().node_count() as u64;
    out.push((
        "core.snapshot.signature_ns_per_node",
        ns_per_op(budget, n, || {
            black_box(net.structural_signature());
        }),
    ));
    let mut snap = net.snapshot();
    out.push((
        "core.snapshot.into_ns_per_node",
        ns_per_op(budget, n, || {
            net.snapshot_into(&mut snap);
            black_box(snap.nodes.len());
        }),
    ));
    out.push((
        "core.invariants.index_build_ns_per_node",
        ns_per_op(budget, n, || {
            black_box(SnapshotIndex::build(&snap).inner_heads().len());
        }),
    ));
    let idx = SnapshotIndex::build(&snap);
    out.push((
        "core.invariants.check_ns_per_node",
        ns_per_op(budget, n, || {
            black_box(check_all_with(&snap, Strictness::Dynamic, &idx).len());
        }),
    ));
    // Two snapshots a heartbeat round and ten crashes apart, applied in
    // alternation: each update diffs the whole field and patches a little.
    net.kill_random(10);
    net.run_for(SimDuration::from_secs(2));
    let later = net.snapshot();
    let mut idx = idx;
    out.push((
        "core.invariants.index_update_ns_per_node",
        ns_per_op(budget, 2 * n, || {
            idx.update(&later);
            idx.update(&snap);
        }),
    ));
}

fn geometry(budget: Duration, rng: &mut StdRng, out: &mut Vec<(&'static str, f64)>) {
    // A cell's worth of candidates scattered around the ideal location.
    let candidates: Vec<(u64, Point)> = (0..200u64)
        .map(|i| {
            (
                i,
                Point::new(rng.gen_range(-R_T..R_T), rng.gen_range(-R_T..R_T)),
            )
        })
        .collect();
    out.push((
        "geometry.rank.best_candidate_ns",
        ns_per_op(budget, 100, || {
            for _ in 0..100 {
                black_box(best_candidate(
                    Point::ORIGIN,
                    Angle::ZERO,
                    candidates.iter().copied(),
                ));
            }
        }),
    ));
    out.push((
        "geometry.spiral.build_ns",
        ns_per_op(budget, 100, || {
            for _ in 0..100 {
                black_box(CellSpiral::new(black_box(Point::ORIGIN), R, R_T, Angle::ZERO).len());
            }
        }),
    ));
}

fn model_checker(smoke: bool) -> f64 {
    let mut budgets = Budgets::default();
    if smoke {
        budgets.max_states = 500;
    }
    let mc = ModelChecker {
        scenario: Scenario::pair5(),
        strategy: McStrategy::Bfs,
        budgets,
    };
    let t0 = Instant::now();
    let report = mc.run();
    report.states_explored as f64 / t0.elapsed().as_secs_f64()
}

/// Runs every driver; `(metric name, value)` in declaration order.
pub fn run_all(seed: u64, smoke: bool) -> Vec<(&'static str, f64)> {
    let budget = Duration::from_millis(if smoke { 10 } else { 250 });
    let (small, large, field) = if smoke {
        (300, 2_000, 1_000)
    } else {
        (1_400, 50_000, 10_000)
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE);
    let mut out = Vec::new();

    out.push(("sim.queue.hold_ns_d4k", queue_hold(4_096, budget, &mut rng)));
    out.push((
        "sim.queue.hold_ns_d128k",
        queue_hold(131_072, budget, &mut rng),
    ));
    let points_small = deployment(small, &mut rng);
    let points_large = deployment(large, &mut rng);
    out.push((
        "sim.spatial.query_ns_n1k4",
        spatial_query(&points_small, budget),
    ));
    out.push((
        "sim.spatial.query_ns_n50k",
        spatial_query(&points_large, budget),
    ));
    out.push((
        "sim.spatial.update_ns",
        spatial_update(&deployment(field, &mut rng), budget),
    ));

    let (null_small, off_period, _) = null_engine_cost(&points_small, false, seed, budget);
    let (null_large, _, _) = null_engine_cost(&points_large, false, seed, budget);
    let (_, on_period, on_sent) = null_engine_cost(&points_small, true, seed, budget);
    out.push(("sim.engine.null_ns_per_event_n1k4", null_small));
    out.push(("sim.engine.null_ns_per_event_n50k", null_large));
    // `MediumState` is crate-private: its cost is the same null protocol
    // with contention on minus off, per transmission.
    out.push((
        "sim.medium.null_extra_ns_per_tx",
        (on_period - off_period) / on_sent,
    ));

    let lossy = FaultConfig {
        burst: BurstLoss::bursty(0.02, 4.0),
        unicast_loss: 0.02,
        ..FaultConfig::none()
    };
    out.push((
        "sim.faults.filter_ns_on",
        faults_filter(lossy, budget, &mut rng),
    ));
    out.push((
        "sim.faults.filter_ns_off",
        faults_filter(FaultConfig::none(), budget, &mut rng),
    ));

    telemetry(budget, &mut out);
    dataplane(budget, &mut out);
    core(field, seed, budget, &mut out);
    geometry(budget, &mut rng, &mut out);
    out.push(("mc.explore.states_per_s", model_checker(smoke)));
    out
}
