//! The workspace itself must be lint-clean: `cargo test -p gs3-lint`
//! doubles as the static-analysis gate, so a determinism or totality
//! regression fails the ordinary test suite even before CI runs the
//! dedicated `lint` job.

use gs3_lint::{analyze_with, load_workspace, SchemaCheck};

#[test]
fn workspace_has_no_unjustified_findings() {
    let root = gs3_lint::find_workspace_root();
    let files = load_workspace(&root).expect("workspace readable");
    assert!(
        files.len() > 50,
        "workspace walk looks truncated: {} files",
        files.len()
    );
    let committed = gs3_lint::load_committed_schema(&root);
    let findings = analyze_with(&files, SchemaCheck::Committed(committed.as_deref()));
    let errors: Vec<String> = findings
        .iter()
        .filter(|f| f.allowed.is_none())
        .map(|f| format!("[{}] {}:{}: {}", f.rule, f.rel, f.line, f.msg))
        .collect();
    assert!(
        errors.is_empty(),
        "unjustified lint findings:\n{}",
        errors.join("\n")
    );
}

#[test]
fn committed_wire_schema_matches_sources() {
    // The byte-level drift gate: regenerating the schema from today's
    // sources must reproduce the committed file exactly (which also
    // proves every wire enum's variants were extracted). The workspace
    // lint reports the same drift as `w1`; this test catches it at
    // `cargo test` time with a pointable message.
    let root = gs3_lint::find_workspace_root();
    let files = load_workspace(&root).expect("workspace readable");
    let layouts = gs3_lint::model::wire_layouts(
        files.iter().map(|f| (f.rel.as_str(), f.lexed.toks.as_slice())),
    );
    assert_eq!(
        layouts.len(),
        gs3_lint::model::WIRE_ENUMS.len(),
        "a pinned wire enum was not found in its source file"
    );
    let committed = gs3_lint::load_committed_schema(&root)
        .expect("protocol.schema.json missing — run `cargo run -p gs3-lint -- --write-schema`");
    let generated = gs3_lint::schema::render(&layouts);
    assert!(
        committed == generated,
        "wire schema drifted from crates/gs3-lint/protocol.schema.json — if the \
         protocol change is intentional, regenerate with \
         `cargo run -p gs3-lint -- --write-schema` and commit the diff"
    );
}
