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

mod args;
mod commands;

use args::Args;

fn main() {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match Args::parse(tokens) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("try: gs3 help");
            std::process::exit(2);
        }
    };
    let code = match parsed.command.as_deref() {
        Some("run") => commands::run(&parsed),
        Some("heal") => commands::heal(&parsed),
        Some("watch") => commands::watch(&parsed),
        Some("chaos") => commands::chaos(&parsed),
        Some("mc") => commands::mc(&parsed),
        Some("dataplane") => commands::dataplane(&parsed),
        Some("trace") => commands::trace(&parsed),
        Some("help") | None => {
            commands::help();
            Ok(())
        }
        Some(other) => {
            eprintln!("error: unknown command {other:?}");
            commands::help();
            std::process::exit(2);
        }
    };
    if let Err(e) = code {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
