//! gs3-lint — project-specific static analysis for the GS³ workspace.
//!
//! Every guarantee the workspace ships (bit-identical digests at any
//! thread count, RNG-inert subsystems, byte-equal chaos JSON) rests on
//! conventions a compiler never checks: no unordered hash iteration in
//! protocol paths, no ambient time, NaN-total comparisons, and no
//! catch-all or dead arms in dispatch over the protocol's message and
//! timer enums. This crate turns those conventions into machine-checked
//! rules (the table is in [`rules`]) with `file:line`
//! diagnostics and an explicit, justified allowlist
//! (`// gs3-lint: allow(<rule>) -- <why this is sound>`).
//!
//! Run it with `cargo run -p gs3-lint` from anywhere in the workspace; it
//! exits non-zero when any finding lacks a justified allow directive. What
//! the compiler already guarantees — exhaustive dispatch, `Send + Sync`
//! engine state — is left to it (DESIGN.md §"Static analysis").

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod diag;
pub mod lexer;
pub mod model;
pub mod rules;
pub mod schema;
pub mod syntax;

use std::path::{Path, PathBuf};

use diag::{apply_directives, parse_directives, Finding};

/// One source file prepared for analysis.
pub struct SourceFile {
    /// Workspace-relative path (rule scoping keys off this).
    pub rel: String,
    pub lexed: lexer::Lexed,
}

impl SourceFile {
    /// Lexes `src` under the given workspace-relative path.
    #[must_use]
    pub fn new(rel: &str, src: &str) -> Self {
        SourceFile { rel: rel.to_string(), lexed: lexer::lex(src) }
    }
}

/// What the `w1` wire-schema rule checks against.
#[derive(Clone, Copy)]
pub enum SchemaCheck<'a> {
    /// Skip `w1` entirely — unit contexts with no schema notion.
    Skip,
    /// Check against the committed `protocol.schema.json` content;
    /// `None` means the file is missing, which is itself a finding.
    Committed(Option<&'a str>),
}

/// Runs every rule over the files and resolves allow directives, with
/// the `w1` wire-schema drift check skipped (no schema in scope).
///
/// Returned findings include allowlisted ones (with their justification);
/// callers decide the exit status from the unallowed count.
#[must_use]
pub fn analyze(files: &[SourceFile]) -> Vec<Finding> {
    analyze_with(files, SchemaCheck::Skip)
}

/// Runs every rule over the files and resolves allow directives. The CLI
/// and the workspace gate pass `SchemaCheck::Committed` with whatever
/// [`load_committed_schema`] found on disk.
#[must_use]
pub fn analyze_with(files: &[SourceFile], schema_check: SchemaCheck<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    // One call graph serves every cross-procedural rule.
    let graph = callgraph::CallGraph::build(
        files.iter().map(|f| (f.rel.as_str(), f.lexed.toks.as_slice())),
    );
    for f in files {
        rules::check_bans(&f.rel, &f.lexed.toks, &mut findings);
        rules::check_d3(&f.rel, &f.lexed.toks, &mut findings);
        rules::check_t1(&f.rel, &f.lexed.toks, &mut findings);
        rules::check_u1(&f.rel, &f.lexed.toks, &mut findings);
    }
    rules::check_d4(files, &graph, &mut findings);
    rules::check_t3(files, &graph, &mut findings);
    if let SchemaCheck::Committed(committed) = schema_check {
        let layouts =
            model::wire_layouts(files.iter().map(|f| (f.rel.as_str(), f.lexed.toks.as_slice())));
        schema::check_w1(&layouts, committed, &mut findings);
    }
    // Resolve allowlists per file (directives only ever cover findings in
    // their own file).
    for f in files {
        let (mut dirs, mut bad) = parse_directives(&f.rel, &f.lexed);
        findings.append(&mut bad);
        apply_directives(&f.rel, &mut dirs, &mut findings);
    }
    findings.sort_by(|a, b| (&a.rel, a.line, a.rule).cmp(&(&b.rel, b.line, b.rule)));
    findings
}

/// Workspace-relative location of the committed wire schema.
pub const SCHEMA_REL: &str = "crates/gs3-lint/protocol.schema.json";

/// Reads the committed `protocol.schema.json`, `None` when absent.
#[must_use]
pub fn load_committed_schema(root: &Path) -> Option<String> {
    std::fs::read_to_string(root.join(SCHEMA_REL)).ok()
}

/// Directories under the workspace root that hold first-party sources.
const SCAN_ROOTS: [&str; 4] = ["crates", "src", "tests", "examples"];

/// Subtrees excluded from the workspace scan: the vendored `rand` API shim
/// (external idiom, no protocol code) and this crate's deliberately-bad
/// lint fixtures.
const EXCLUDES: [&str; 2] = ["crates/rand-shim", "crates/gs3-lint/fixtures"];

/// Collects and lexes every first-party `.rs` file under `root`,
/// depth-first in sorted order so reports are deterministic.
///
/// # Errors
/// Propagates I/O errors from directory traversal or file reads.
pub fn load_workspace(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    for top in SCAN_ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut paths)?;
        }
    }
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for p in paths {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .to_string_lossy()
            .replace('\\', "/");
        if EXCLUDES.iter().any(|e| rel.starts_with(e)) || rel.contains("/target/") {
            continue;
        }
        let src = std::fs::read_to_string(&p)?;
        files.push(SourceFile::new(&rel, &src));
    }
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Locates the workspace root: walks up from `CARGO_MANIFEST_DIR` (or the
/// current directory) to the first directory holding a `Cargo.toml` with a
/// `[workspace]` table.
#[must_use]
pub fn find_workspace_root() -> PathBuf {
    let start = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| std::env::current_dir().unwrap_or_default(), PathBuf::from);
    let mut dir = start.clone();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return dir;
                }
            }
        }
        if !dir.pop() {
            return start;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_links_directives_to_findings() {
        let files = vec![SourceFile::new(
            "crates/gs3-core/src/x.rs",
            "use std::collections::HashMap; // gs3-lint: allow(d1) -- never iterated\n",
        )];
        let findings = analyze(&files);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "d1");
        assert_eq!(findings[0].allowed.as_deref(), Some("never iterated"));
    }

    #[test]
    fn analyze_reports_are_sorted() {
        let files = vec![
            SourceFile::new("crates/gs3-core/src/b.rs", "use std::collections::HashMap;\n"),
            SourceFile::new("crates/gs3-core/src/a.rs", "let x = Instant::now();\n"),
        ];
        let f = analyze(&files);
        assert_eq!(f.len(), 2);
        assert!(f[0].rel < f[1].rel);
    }
}
