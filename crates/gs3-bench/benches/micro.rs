//! Micro-benchmarks for the GS³ reproduction (hand-rolled harness; the
//! build environment has no registry access, so no criterion).
//!
//! * `head_select` — candidate ranking/selection cost vs `|SmallNodes|`
//!   (the paper states `HEAD_SELECT` is `θ(|SmallNodes|)`).
//! * `event_queue` — simulator event-queue throughput: `push_pop_10k`,
//!   and the hold model at depth 128 k with a payload as wide as the
//!   engine's own queue entry (`hold_128k_engine_entry`) beside the 192
//!   bytes that entry measured before transmissions got their own records
//!   (`hold_128k_192_bytes`) — the pair attributes a change in engine
//!   `queue.pop()` cost to entry width with the queue code held fixed.
//!   Those rows draw increments uniformly from 1 µs–3 s, so nearly every
//!   entry goes through the far tier; `hold_trace_mix_{4k,128k}` draws
//!   them the way the engine's logged schedule trace does (88 % a
//!   delivery 2.0–3.6 ms ahead, 12 % a timer 1–30 s ahead), on
//!   `EventQueue` and (`…_radix`) on the bare `RadixQueue` behind it.
//! * `spatial_grid` — broadcast neighborhood queries.
//! * `spatial/disk_query_50k` vs `spatial/collect_sort_filter_50k` — a
//!   broadcast's receiver selection over 50 000 nodes at the benchmark
//!   suites' density (1 000 queries of 141 m per iteration): the grid's
//!   exact `disk_into` beside the collect → sort → re-check `alive` and
//!   `positions` sequence the engine ran before the grid carried points.
//! * `trace/digest_fold` vs `trace/digest_bytewise` — the delivery digest
//!   (10 000 records per iteration): the shortened fold beside byte-serial
//!   FNV-1a over the same 24 + `kind.len()` bytes.
//! * `trace/record_send` — the per-send counter bump, a string-keyed
//!   `BTreeMap::entry` (10 000 sends per iteration over ten kinds).
//! * `cell_spiral` — intra-cell spiral construction (cell shift setup).
//! * `configuration` — end-to-end self-configuration wall time vs network
//!   size.
//! * `invariant_check` — full predicate-suite cost on a configured
//!   network.
//! * `snapshot_into/{n}` — zero-realloc snapshot refill at n ∈ {1k, 10k}.
//! * `check_all_grid/{n}` — the spatial-indexed invariant engine at
//!   n ∈ {1k, 10k}.
//! * `recorder_count_only/10k` vs `recorder_record_full/10k` — the
//!   flight-recorder emission hot path: the always-on per-class counter
//!   bump against a Full-mode structured ring write.
//!
//! Run with `cargo bench -p gs3-bench`. Reports median wall time per
//! iteration over a fixed wall-time budget per benchmark.

// gs3-lint: allow-file(d2) -- wall-clock timing is this benchmark harness's product; no simulation state depends on it
use std::hint::black_box;
use std::time::{Duration, Instant};

use gs3_core::harness::NetworkBuilder;
use gs3_core::invariants::{check_all, check_all_with, SnapshotIndex, Strictness};
use gs3_core::{Gs3Node, Mode};
use gs3_geometry::rank::best_candidate;
use gs3_geometry::spiral::CellSpiral;
use gs3_geometry::{Angle, Point};
use gs3_sim::queue::{EventQueue, RadixQueue};
use gs3_sim::spatial::SpatialGrid;
use gs3_sim::telemetry::{Event, EventClass, FlightRecorder, RecorderMode, NO_PEER};
use gs3_sim::trace::{fold_delivery, KindFold, Trace};
use gs3_sim::{Engine, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs `f` repeatedly for up to `budget`, printing the median, minimum,
/// and iteration count. Returns the median for cross-bench comparisons.
fn bench<F: FnMut()>(name: &str, budget: Duration, mut f: F) -> Duration {
    // One warm-up iteration outside the measurement.
    f();
    let mut samples = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget || samples.len() < 3 {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed());
        if samples.len() >= 100_000 {
            break;
        }
    }
    samples.sort_unstable();
    let median = samples[samples.len() / 2];
    println!(
        "{name:<40} median {:>12?}  min {:>12?}  ({} iters)",
        median,
        samples[0],
        samples.len()
    );
    median
}

fn pts(n: usize, seed: u64) -> Vec<(u64, Point)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n as u64)
        .map(|i| (i, Point::new(rng.gen_range(-50.0f64..50.0), rng.gen_range(-50.0f64..50.0))))
        .collect()
}

/// Classic hold model at constant `depth` over `$width`-byte payloads on
/// queue type `$queue`: pop the earliest entry, schedule it again
/// `$draw(&mut rng)` µs later, 10 000 times per iteration; the queue is
/// filled with `depth` such draws from time zero. A macro because the
/// two queues share method names, not a trait.
macro_rules! queue_hold {
    ($queue:ident, $width:expr, $name:expr, $depth:expr, $budget:expr, $draw:expr) => {{
        let mut rng = StdRng::seed_from_u64(3);
        let draw = $draw;
        let mut q: $queue<[u8; $width]> = $queue::new();
        for _ in 0..$depth {
            q.schedule(SimTime::from_micros(draw(&mut rng)), [0; $width]);
        }
        let increments: Vec<u64> = (0..4096).map(|_| draw(&mut rng)).collect();
        let mut k = 0usize;
        bench($name, $budget, || {
            for _ in 0..10_000 {
                let (at, payload) = q.pop().expect("depth is constant");
                k = (k + 1) & 4095;
                q.schedule(SimTime::from_micros(at.as_micros() + increments[k]), black_box(payload));
            }
        });
    }};
}

/// Everything pending falls within a heartbeat-like 3 s horizon.
fn uniform_3s(rng: &mut StdRng) -> u64 {
    rng.gen_range(1u64..3_000_000)
}

/// The engine's measured increment mix (DESIGN.md §6.2): 88 % a delivery
/// 2 000–3 600 µs ahead, 12 % a timer 1–30 s ahead.
fn trace_mix(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0u32..100) {
        0..=87 => rng.gen_range(2_000u64..3_600),
        _ => rng.gen_range(1_000_000u64..30_000_000),
    }
}

fn main() {
    let quick = Duration::from_millis(300);
    let slow = Duration::from_secs(3);

    for n in [50usize, 200, 800] {
        let nodes = pts(n, 1);
        bench(&format!("head_select/{n}"), quick, || {
            black_box(best_candidate(Point::ORIGIN, Angle::ZERO, nodes.iter().copied()));
        });
    }

    bench("event_queue/push_pop_10k", quick, || {
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            q.schedule(SimTime::from_micros((i * 7919) % 100_000), i);
        }
        while let Some(ev) = q.pop() {
            black_box(ev);
        }
    });
    const ENTRY: usize = Engine::<Gs3Node>::pending_event_bytes();
    queue_hold!(EventQueue, ENTRY, "event_queue/hold_128k_engine_entry", 131_072, slow, uniform_3s);
    queue_hold!(EventQueue, 192, "event_queue/hold_128k_192_bytes", 131_072, slow, uniform_3s);
    queue_hold!(EventQueue, ENTRY, "event_queue/hold_trace_mix_4k", 4_096, slow, trace_mix);
    queue_hold!(RadixQueue, ENTRY, "event_queue/hold_trace_mix_4k_radix", 4_096, slow, trace_mix);
    queue_hold!(EventQueue, ENTRY, "event_queue/hold_trace_mix_128k", 131_072, slow, trace_mix);
    queue_hold!(RadixQueue, ENTRY, "event_queue/hold_trace_mix_128k_radix", 131_072, slow, trace_mix);

    {
        let mut grid = SpatialGrid::new(100.0);
        let nodes = pts(5_000, 2);
        for (i, p) in &nodes {
            grid.insert(*i as usize, Point::new(p.x * 20.0, p.y * 20.0));
        }
        bench("spatial_grid/query_5k", quick, || {
            let mut count = 0usize;
            grid.for_each_candidate(Point::ORIGIN, 150.0, |_| count += 1);
            black_box(count);
        });
    }

    // Receiver selection as `scale_50k` pays it: 50 000 nodes on a disk of
    // radius 1 923 m (4.3 per 1 000 m²), grid cells one radio range wide,
    // 141 m queries (≈270 hits) from senders visited in a cache-unfriendly
    // stride, as event order visits them.
    {
        let mut rng = StdRng::seed_from_u64(5);
        let positions: Vec<Point> = std::iter::repeat_with(|| {
            Point::new(rng.gen_range(-1923.0f64..1923.0), rng.gen_range(-1923.0f64..1923.0))
        })
        .filter(|p| p.distance(Point::ORIGIN) <= 1923.0)
        .take(50_000)
        .collect();
        let alive = vec![true; positions.len()];
        let mut grid = SpatialGrid::new(gs3_geometry::coordination_radius(80.0, 18.0) * 1.05);
        for (i, p) in positions.iter().enumerate() {
            grid.insert(i, *p);
        }
        let radius = 141.0;
        let mut next = 0usize;
        let mut hits: Vec<(usize, f64)> = Vec::new();
        bench("spatial/disk_query_50k", slow, || {
            let mut total = 0usize;
            for _ in 0..1_000 {
                next = (next + 7_919) % positions.len();
                hits.clear();
                grid.disk_into(positions[next], radius, &mut hits);
                total += hits.len();
            }
            black_box(total);
        });
        let mut candidates: Vec<usize> = Vec::new();
        bench("spatial/collect_sort_filter_50k", slow, || {
            let mut total = 0usize;
            for _ in 0..1_000 {
                next = (next + 7_919) % positions.len();
                let center = positions[next];
                candidates.clear();
                grid.for_each_candidate(center, radius, |h| candidates.push(h));
                candidates.sort_unstable();
                for &h in &candidates {
                    if alive[h] && black_box(center.distance(positions[h])) <= radius {
                        total += 1;
                    }
                }
            }
            black_box(total);
        });
    }

    // The delivery digest: one frame's copies share sender and kind, walk
    // the receivers in ascending id order and land microseconds apart.
    {
        let kinds = ["head_inter_alive", "head_intra_alive"].map(KindFold::new);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        bench("trace/digest_fold", quick, || {
            for i in 0..10_000u64 {
                let at = 600_000_000 + i * 37;
                digest = fold_delivery(digest, at, 20_000 + i / 271, (i * 97) % 50_000, &kinds[(i / 271 % 2) as usize]);
            }
            black_box(digest);
        });
        let labels = ["head_inter_alive", "head_intra_alive"];
        bench("trace/digest_bytewise", quick, || {
            for i in 0..10_000u64 {
                let at = 600_000_000 + i * 37;
                let words = [at, 20_000 + i / 271, (i * 97) % 50_000];
                let bytes = words.iter().flat_map(|w| w.to_le_bytes());
                for b in bytes.chain(labels[(i / 271 % 2) as usize].bytes()) {
                    digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            black_box(digest);
        });

        // `scale_50k` sends ten kinds; three quarters of its sends are the
        // associates' acks.
        let sent = [
            "head_intra_ack", "head_intra_ack", "head_intra_ack", "head_intra_alive",
            "head_intra_ack", "head_intra_ack", "head_intra_ack", "head_inter_alive",
        ];
        let mut trace = Trace::new();
        for kind in [
            "org", "org_reply", "head_org_reply", "head_set", "associate_alive", "associate_retreat",
            "new_child_head", "bootup_probe",
        ] {
            trace.record_unicast(kind);
        }
        bench("trace/record_send", quick, || {
            for i in 0..10_000usize {
                let kind = black_box(sent[i % sent.len()]);
                if i % 4 == 3 {
                    trace.record_broadcast(kind);
                } else {
                    trace.record_unicast(kind);
                }
            }
            black_box(trace.total_sent());
        });
    }

    bench("cell_spiral/build_r100_rt10", quick, || {
        black_box(CellSpiral::new(black_box(Point::ORIGIN), 100.0, 10.0, Angle::ZERO));
    });

    for n in [300usize, 900] {
        bench(&format!("configuration/{n}"), slow, || {
            let mut net = NetworkBuilder::new()
                .mode(Mode::Static)
                .ideal_radius(80.0)
                .radius_tolerance(18.0)
                .area_radius((n as f64).sqrt() * 8.0)
                .expected_nodes(n)
                .seed(7)
                .build()
                .expect("valid parameters");
            net.engine_mut()
                .run_until_quiescent(SimTime::ZERO + SimDuration::from_secs(600))
                .expect("static diffusion terminates");
            black_box(net.snapshot().heads().count());
        });
    }

    {
        let mut net = NetworkBuilder::new()
            .mode(Mode::Static)
            .ideal_radius(80.0)
            .radius_tolerance(18.0)
            .area_radius(250.0)
            .expected_nodes(900)
            .seed(7)
            .build()
            .expect("valid parameters");
        net.engine_mut()
            .run_until_quiescent(SimTime::ZERO + SimDuration::from_secs(600))
            .expect("terminates");
        let snap = net.snapshot();
        bench("invariant_check/900_nodes", quick, || {
            black_box(check_all(&snap, Strictness::Static).len());
        });
    }

    // Flight-recorder emission: what one engine event pays in each mode.
    {
        let mut rec = FlightRecorder::new();
        bench("recorder_count_only/10k", quick, || {
            for _ in 0..10_000u64 {
                rec.count_only(black_box(EventClass::Delivery));
            }
            black_box(rec.total());
        });
        let mut rec = FlightRecorder::new();
        rec.set_mode(RecorderMode::Full { capacity: 4_096 });
        bench("recorder_record_full/10k", quick, || {
            for i in 0..10_000u64 {
                rec.record(black_box(Event {
                    t_us: i,
                    node: i % 64,
                    class: EventClass::Delivery,
                    kind: "bench",
                    peer: NO_PEER,
                    episode: 0,
                    data: i,
                }));
            }
            black_box(rec.total());
        });
    }

    // Snapshot reuse and the indexed invariant engine at scale.
    for n in [1_000usize, 10_000] {
        let mut net = NetworkBuilder::new()
            .mode(Mode::Static)
            .ideal_radius(80.0)
            .radius_tolerance(18.0)
            .area_radius((n as f64).sqrt() * 8.0)
            .expected_nodes(n)
            .seed(7)
            .build()
            .expect("valid parameters");
        net.engine_mut()
            .run_until_quiescent(SimTime::ZERO + SimDuration::from_secs(900))
            .expect("static diffusion terminates");

        let mut buf = net.snapshot();
        bench(&format!("snapshot_into/{n}"), quick, || {
            net.snapshot_into(&mut buf);
            black_box(buf.nodes.len());
        });

        let snap = net.snapshot();
        bench(&format!("check_all_grid/{n}"), quick, || {
            let idx = SnapshotIndex::build(&snap);
            black_box(check_all_with(&snap, Strictness::Static, &idx).len());
        });
    }
}
