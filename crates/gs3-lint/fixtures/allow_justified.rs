// pretend: crates/gs3-bench/src/bin/timing.rs
// A finding covered by a justified allow directive: reported, marked
// allowed, and the run stays green. (A binary root: `u1` wants the forbid.)
#![forbid(unsafe_code)]

fn measure() {
    let start = Instant::now(); // gs3-lint: allow(d2) -- wall-clock measurement is this harness's product
    let _ = start;
}
