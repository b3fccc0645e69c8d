//! **PAPER** — every table of the GS³ paper the workspace reproduces:
//! Figures 7–8, the Appendix-1 table, Theorem 11, Corollaries 1–2,
//! sliding, the design ablations and healing locality (Theorems 8–13).
//!
//! ```text
//! cargo run --release -p gs3-bench --bin paper -- [-j N] [--json]
//! ```
//!
//! `--json` prints `BENCH_paper.json` instead of the text report: the same
//! rows, byte-identical at any `-j`.

use gs3_bench::paper;
use gs3_bench::runner::threads_from_args;

fn main() {
    let json = std::env::args().skip(1).any(|a| a == "--json");
    let sections = paper::run(threads_from_args());
    if json {
        println!("{}", paper::to_json(&sections));
    } else {
        for s in &sections {
            print!("{}", s.render());
        }
    }
}
