// pretend: crates/gs3-core/src/node.rs
// D2: ambient time outside gs3-sim/src/time.rs.
use std::time::{Duration, Instant};

fn f() {
    let _t = Instant::now();
    let _s = std::time::SystemTime::now();
    let _ok = Duration::from_secs(1); // Duration is an inert value type
}
