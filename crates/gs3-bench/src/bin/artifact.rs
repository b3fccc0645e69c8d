//! **ARTIFACT** — every committed `BENCH_<suite>.json`, and the text
//! report it is a view of.
//!
//! ```text
//! cargo run --release -p gs3-bench --bin artifact -- <paper|chaos|dataplane> [-j N] [--json]
//! ```
//!
//! `--json` prints the suite's document instead of the text report: the
//! same rows, byte-identical at any `-j`. `-j N`, `-jN` and `--threads N`
//! set the worker threads (default: every core). A missing or unknown
//! suite, an unknown option or a malformed thread count prints one
//! `error: …` line and exits 2.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use gs3_bench::runner::default_threads;
use gs3_bench::section::to_json;
use gs3_bench::{Suite, SUITES};

const USAGE: &str = "usage: artifact <paper|chaos|dataplane> [-j N] [--json]";

/// A parsed command line.
struct Cli {
    suite: Suite,
    threads: usize,
    json: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let (mut suite, mut threads, mut json) = (None, default_threads(), false);
    while let Some(arg) = args.next() {
        let (opt, count) = match arg.as_str() {
            "--json" => {
                json = true;
                continue;
            }
            "-j" | "--threads" => {
                (arg.as_str(), args.next().ok_or_else(|| format!("option {arg} needs a value"))?)
            }
            a if a.starts_with("-j") => ("-j", a["-j".len()..].to_string()),
            a if a.starts_with('-') => return Err(format!("unknown option {a} ({USAGE})")),
            name => {
                if suite.is_some() {
                    return Err(format!("unexpected argument {name:?} ({USAGE})"));
                }
                let found = SUITES.iter().find(|(n, _)| *n == name);
                suite = Some(*found.ok_or_else(|| format!("unknown suite {name:?} ({USAGE})"))?);
                continue;
            }
        };
        let n: usize =
            count.parse().map_err(|_| format!("option {opt}: expected a thread count, got {count:?}"))?;
        threads = n.max(1);
    }
    let suite = suite.ok_or_else(|| format!("missing suite ({USAGE})"))?;
    Ok(Cli { suite, threads, json })
}

fn main() -> ExitCode {
    let cli = match parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let (name, run) = cli.suite;
    let sections = run(cli.threads);
    if cli.json {
        println!("{}", to_json(name, &sections));
    } else {
        for s in &sections {
            print!("{}", s.render());
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(args: &[&str]) -> Cli {
        parse(args.iter().map(ToString::to_string)).expect("a valid command line")
    }

    #[test]
    fn thread_count_spellings_and_defaults() {
        assert_eq!(parsed(&["chaos", "--threads", "3"]).threads, 3);
        assert_eq!(parsed(&["-j", "5", "chaos"]).threads, 5);
        assert_eq!(parsed(&["chaos", "-j7"]).threads, 7);
        assert_eq!(parsed(&["chaos", "--threads", "0"]).threads, 1, "clamped to at least one");
        let cli = parsed(&["dataplane"]);
        assert_eq!((cli.suite.0, cli.threads, cli.json), ("dataplane", default_threads(), false));
        assert!(parsed(&["paper", "--json"]).json);
    }
}
