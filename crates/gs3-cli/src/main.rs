//! `gs3` — run, perturb, and inspect GS³ networks from the command line.
//!
//! ```text
//! gs3 run    [--nodes N] [--radius R] [--tolerance RT] [--area A] [--seed S]
//!            [--static | --mobile] [--loss P] [--noise SIGMA] [--traffic SECS]
//!            [--map] [--quiet]
//! gs3 heal   ... --kill-disk X,Y --kill-radius M        (run, perturb, re-heal)
//! gs3 watch  ... [--budget E] [--duration SECS] [--sample SECS]
//!                                    (energy drain / sliding, periodic status)
//! gs3 chaos  ... [--burst-enter P] [--burst-len L] [--unicast-loss P]
//!                [--crash N] [--jam X,Y] [--jam-radius M] [--jam-secs S]
//!                [--json] [--timeline FILE]
//!                             (scheduled fault plan + self-healing certificate)
//! gs3 mc     [--scenario NAME|all] [--strategy bfs|dfs] [--max-states N]
//!            [--max-fates N] [--max-crashes N] [--horizon SECS]
//!            [--heal-window SECS] [--json] [--out FILE] [--ce-dir DIR]
//!                    (bounded model checking of the protocol core against a
//!                     bounded adversary, with replayable counterexamples)
//! gs3 dataplane ... [--traffic SECS] [--duration SECS] [--json]
//!                  (convergecast workload: sink delivery ledger, latency
//!                   percentiles, queue/credit/provenance counters)
//! gs3 trace  ... [--duration SECS] [--capacity N] [--format jsonl|chrome]
//!                [--out FILE]      (flight-recorder event-stream export)
//! gs3 help
//! ```
//!
//! The command comes first. A malformed command line prints one
//! `error: …` line and exits 2 — an option the command does not read is
//! `error: unknown option --x` — and an unknown command adds the help.

#![forbid(unsafe_code)]

mod args;
mod commands;

use args::Args;

fn main() {
    let mut tokens = std::env::args().skip(1).peekable();
    let name = tokens.next_if(|t| !t.starts_with('-')).unwrap_or_else(|| "help".to_string());
    let Some(command) = commands::COMMANDS.iter().find(|c| c.name == name) else {
        eprintln!("error: unknown command {name:?}");
        commands::help();
        std::process::exit(2);
    };
    let args = Args::parse(tokens, command.keys).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    if let Err(e) = (command.run)(&args) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
