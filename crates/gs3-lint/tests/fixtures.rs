//! Fixture-driven self-tests: each `fixtures/*.rs` is a known-bad (or
//! known-allowlisted) snippet; its `.expect` sidecar lists the exact
//! diagnostics the analyzer must produce, as `rule:line` for errors and
//! `allowed:rule:line` for justified allowlistings.
//!
//! Fixtures declare the workspace-relative path they pretend to live at
//! via a `// pretend: <path>` first line, since every rule scopes by path.
//! The harness always adds the `_model_*.rs` mini enums as
//! `gs3-core/src/{messages,timers}.rs` stand-ins and pins the wire schema
//! to them, so a fixture redefining a wire enum differently trips `w1`.

use std::collections::BTreeSet;
use std::path::Path;

use gs3_lint::{analyze_with, model, schema, SchemaCheck, SourceFile};

#[test]
fn every_fixture_matches_its_expect_file() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let read = |name: &str| {
        std::fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("fixtures/{name}: {e}"))
    };
    let model_files = || {
        [("messages", "_model_messages.rs"), ("timers", "_model_timers.rs")]
            .map(|(stem, name)| SourceFile::new(&format!("crates/gs3-core/src/{stem}.rs"), &read(name)))
    };
    let layouts =
        model::wire_layouts(model_files().iter().map(|f| (f.rel.as_str(), f.lexed.toks.as_slice())));
    let pinned = schema::render(&layouts);

    let mut stems: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().into_string().ok()?;
            name.strip_suffix(".rs").filter(|s| !s.starts_with('_')).map(str::to_string)
        })
        .collect();
    stems.sort();
    assert!(stems.len() >= 15, "fixture walk looks truncated: {stems:?}");

    let mut diverged = Vec::new();
    for stem in &stems {
        let src = read(&format!("{stem}.rs"));
        let rel = src
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("// pretend:"))
            .map(str::trim)
            .unwrap_or_else(|| panic!("{stem}.rs must start with `// pretend: <path>`"));
        let mut files = Vec::from(model_files());
        files.push(SourceFile::new(rel, &src));
        let actual: BTreeSet<String> = analyze_with(&files, SchemaCheck::Committed(Some(&pinned)))
            .into_iter()
            .filter(|f| f.rel == rel)
            .map(|f| match f.allowed {
                Some(_) => format!("allowed:{}:{}", f.rule, f.line),
                None => format!("{}:{}", f.rule, f.line),
            })
            .collect();
        let expect = read(&format!("{stem}.expect"));
        let want: BTreeSet<String> =
            expect.lines().map(str::trim).filter(|l| !l.is_empty()).map(str::to_string).collect();
        if actual != want {
            diverged.push(format!("{stem}: expected {want:?}, got {actual:?}"));
        }
    }
    assert!(diverged.is_empty(), "fixtures diverge from their .expect files:\n{}", diverged.join("\n"));
}
