//! The one document model of every committed `BENCH_<suite>.json`.
//!
//! A suite ([`crate::SUITES`]) is a list of [`Section`]s: prose and typed
//! [`Table`]s in print order. The text report ([`Section::render`]) and
//! the JSON document ([`to_json`]) are two views of the same rows; the
//! JSON carries the tables only, and no host-time field, so it is
//! byte-identical at any thread count.

use gs3_analysis::report::Table;
use gs3_core::json::{self, JsonWriter};

/// One experiment's output: prose and named tables, in print order.
#[derive(Debug)]
pub struct Section {
    /// Short experiment id (`FIG7`, `CHAOS`, `SEC6`, …).
    id: &'static str,
    /// The paper artifact or claim the experiment reproduces.
    artifact: &'static str,
    blocks: Vec<Block>,
}

#[derive(Debug)]
enum Block {
    /// Printed as one `println!`.
    Text(String),
    /// A named table; its name keys it in the JSON section.
    Table(&'static str, Table),
}

impl Section {
    pub(crate) fn new(id: &'static str, artifact: &'static str) -> Self {
        Section { id, artifact, blocks: Vec::new() }
    }

    pub(crate) fn text(&mut self, s: impl Into<String>) {
        self.blocks.push(Block::Text(s.into()));
    }

    pub(crate) fn table(&mut self, name: &'static str, t: Table) {
        self.blocks.push(Block::Table(name, t));
    }

    /// The human report: a heading, then every block in order.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!("=== {} — {} ===\n\n", self.id, self.artifact);
        for block in &self.blocks {
            match block {
                Block::Text(s) => out.push_str(s),
                Block::Table(_, t) => out.push_str(&t.render()),
            }
            out.push('\n');
        }
        out
    }

    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            w.key("id").str(self.id);
            w.key("artifact").str(self.artifact);
            w.key("tables").object(|w| {
                for block in &self.blocks {
                    if let Block::Table(name, t) = block {
                        t.write_json(w.key(name));
                    }
                }
            });
        });
    }
}

/// The `BENCH_<suite>.json` document: every section's tables.
#[must_use]
pub fn to_json(suite: &str, sections: &[Section]) -> String {
    json::to_string(|w| {
        w.object(|w| {
            w.key("suite").str(&format!("BENCH_{suite}"));
            w.key("sections").array(|w| {
                for s in sections {
                    s.write_json(w);
                }
            });
        });
    })
}
