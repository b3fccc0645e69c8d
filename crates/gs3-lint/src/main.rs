//! `gs3-lint` CLI: run the project rules over the workspace.
//!
//! ```text
//! cargo run -p gs3-lint                # human-readable report, exit 1 on findings
//! cargo run -p gs3-lint -- --json r.json   # also write a machine-readable report
//! cargo run -p gs3-lint -- --root PATH     # lint a different checkout
//! cargo run -p gs3-lint -- --write-schema  # regenerate protocol.schema.json
//! ```

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json_out: Option<PathBuf> = None;
    let mut write_schema = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--json" => json_out = args.next().map(PathBuf::from),
            "--write-schema" => write_schema = true,
            "--help" | "-h" => {
                eprintln!("usage: gs3-lint [--root DIR] [--json FILE] [--write-schema]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("gs3-lint: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(gs3_lint::find_workspace_root);
    let files = match gs3_lint::load_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("gs3-lint: failed to read workspace at {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if write_schema {
        // The only sanctioned way to change the pinned wire schema: an
        // explicit regeneration whose diff gets reviewed and committed.
        let layouts = gs3_lint::model::wire_layouts(
            files.iter().map(|f| (f.rel.as_str(), f.lexed.toks.as_slice())),
        );
        let path = root.join(gs3_lint::SCHEMA_REL);
        let text = gs3_lint::schema::render(&layouts);
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("gs3-lint: failed to write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "gs3-lint: wrote {} ({} enums, fingerprint {:#018x})",
            path.display(),
            layouts.len(),
            gs3_lint::schema::fingerprint(&layouts)
        );
        return ExitCode::SUCCESS;
    }
    let committed = gs3_lint::load_committed_schema(&root);
    let findings =
        gs3_lint::analyze_with(&files, gs3_lint::SchemaCheck::Committed(committed.as_deref()));
    print!("{}", gs3_lint::diag::render_text(&findings));
    if let Some(path) = json_out {
        let json = gs3_lint::diag::render_json(&findings);
        let to_stdout = path.as_os_str() == "-";
        if to_stdout {
            print!("{json}");
        } else if let Err(e) = std::fs::write(&path, json) {
            eprintln!("gs3-lint: failed to write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if findings.iter().any(|f| f.allowed.is_none()) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
