//! Micro-benchmarks for the rows `BENCHMARK.json` has no driver for yet
//! (hand-rolled harness; the build environment has no registry access, so
//! no criterion). Every other isolated cost — queue hold at uniform
//! increments, spatial queries, the recorder, snapshots, the invariant
//! engine, configuration — is a per-layer metric of `benchmark/`.
//!
//! * `event_queue/hold_trace_mix_{4k,128k}` — the hold model with
//!   increments drawn the way the engine's logged schedule trace does
//!   (88 % a delivery 2.0–3.6 ms ahead, 12 % a timer 1–30 s ahead) over a
//!   payload as wide as the engine's own queue entry, on `EventQueue` and
//!   (`…_radix`) on the bare `RadixQueue` behind it.
//! * `trace/digest_fold` — the delivery digest (10 000 records per
//!   iteration).
//! * `trace/record_send` — the per-send counter bump, a string-keyed
//!   `BTreeMap::entry` (10 000 sends per iteration over ten kinds).
//!
//! Run with `cargo bench -p gs3-bench`. Reports median wall time per
//! iteration over a fixed wall-time budget per benchmark.

// gs3-lint: allow-file(d2) -- wall-clock timing is this benchmark harness's product; no simulation state depends on it
use std::hint::black_box;
use std::time::{Duration, Instant};

use gs3_core::Gs3Node;
use gs3_sim::queue::{EventQueue, RadixQueue};
use gs3_sim::trace::{fold_delivery, KindFold, Trace};
use gs3_sim::{Engine, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs `f` repeatedly for up to `budget`, printing the median, minimum,
/// and iteration count.
fn bench<F: FnMut()>(name: &str, budget: Duration, mut f: F) {
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

    const ENTRY: usize = Engine::<Gs3Node>::pending_event_bytes();
    queue_hold!(EventQueue, ENTRY, "event_queue/hold_trace_mix_4k", 4_096, slow, trace_mix);
    queue_hold!(RadixQueue, ENTRY, "event_queue/hold_trace_mix_4k_radix", 4_096, slow, trace_mix);
    queue_hold!(EventQueue, ENTRY, "event_queue/hold_trace_mix_128k", 131_072, slow, trace_mix);
    queue_hold!(RadixQueue, ENTRY, "event_queue/hold_trace_mix_128k_radix", 131_072, slow, trace_mix);

    // The delivery digest: one frame's copies share sender and kind, walk
    // the receivers in ascending id order and land microseconds apart.
    {
        let kinds = ["head_inter_alive", "head_intra_alive"].map(KindFold::new);
        let mut digest = Trace::new().digest();
        bench("trace/digest_fold", quick, || {
            for i in 0..10_000u64 {
                let at = 600_000_000 + i * 37;
                digest = fold_delivery(digest, at, 20_000 + i / 271, (i * 97) % 50_000, &kinds[(i / 271 % 2) as usize]);
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
}
