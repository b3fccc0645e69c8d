//! Wire-schema pinning (`w1`): canonical serialization of the wire enums
//! (`Msg`, `Timer`, `FaultKind`) and comparison against the committed
//! `crates/gs3-lint/protocol.schema.json`.
//!
//! Every trace digest, chaos JSON byte-comparison, and mc fingerprint in
//! this workspace implicitly hashes the wire enums' *layout*: adding,
//! reordering, or retyping a variant silently changes `Payload::kind`
//! tables, dispatch order, and serialized plans. `w1` makes that loud —
//! the extracted layout must byte-match the committed schema file, and
//! the only way to change it is the explicit
//! `cargo run -p gs3-lint -- --write-schema` regeneration (reviewed like
//! any other pinned artifact, CI-gated by `git diff --exit-code`).
//!
//! The file format is generated one variant per line so git diffs and
//! drift findings name the exact variant that moved.

use crate::diag::{esc, Finding};
use crate::model::EnumLayout;

/// Version of the schema *file format* (not of the protocol itself);
/// bumped only when this module changes how layouts are serialized.
pub const SCHEMA_FORMAT_VERSION: u32 = 1;

/// FNV-1a 64-bit over the canonical layout content — the wire-schema
/// fingerprint embedded in the file and in `--json` reports.
#[must_use]
pub fn fingerprint(layouts: &[EnumLayout]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |s: &str| {
        for b in s.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= 0x1f; // field separator
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for l in layouts {
        eat(&l.name);
        for v in &l.variants {
            eat(&v.name);
            eat(&v.payload);
        }
    }
    h
}

/// Renders the canonical schema file: deterministic, one variant per
/// line, enums in [`WIRE_ENUMS`](crate::model::WIRE_ENUMS) pin order.
#[must_use]
pub fn render(layouts: &[EnumLayout]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema_version\": {SCHEMA_FORMAT_VERSION},\n"));
    out.push_str(&format!("  \"fingerprint\": \"{:#018x}\",\n", fingerprint(layouts)));
    out.push_str("  \"enums\": [\n");
    for (i, l) in layouts.iter().enumerate() {
        out.push_str(&format!("    {{\"name\": \"{}\", \"variants\": [\n", esc(&l.name)));
        for (j, v) in l.variants.iter().enumerate() {
            let comma = if j + 1 == l.variants.len() { "" } else { "," };
            out.push_str(&format!(
                "      {{\"variant\": \"{}\", \"payload\": \"{}\"}}{comma}\n",
                esc(&v.name),
                esc(&v.payload)
            ));
        }
        let comma = if i + 1 == layouts.len() { "" } else { "," };
        out.push_str(&format!("    ]}}{comma}\n"));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Minimal parse of a committed schema file back into per-enum variant
/// line lists. Only ever reads files [`render`] wrote, so a line-shape
/// scan suffices; anything unrecognized parses as empty and shows up as
/// total drift.
#[must_use]
pub fn parse_committed(text: &str) -> Vec<(String, Vec<String>)> {
    let mut out: Vec<(String, Vec<String>)> = Vec::new();
    for line in text.lines() {
        let t = line.trim();
        if let Some(rest) = t.strip_prefix("{\"name\": \"") {
            if let Some(name) = rest.split('"').next() {
                out.push((name.to_string(), Vec::new()));
            }
        } else if t.starts_with("{\"variant\": ") {
            if let Some((_, vs)) = out.last_mut() {
                vs.push(t.trim_end_matches(',').to_string());
            }
        }
    }
    out
}

/// Compares extracted layouts against the committed schema text, pushing
/// one `w1` finding per drifted enum (at its definition site) plus a
/// file-level finding when the schema file itself is missing or stale in
/// structure. `committed` is `None` when the file does not exist.
pub fn check_w1(layouts: &[EnumLayout], committed: Option<&str>, findings: &mut Vec<Finding>) {
    const SCHEMA_REL: &str = "crates/gs3-lint/protocol.schema.json";
    const REGEN: &str =
        "regenerate explicitly with `cargo run -p gs3-lint -- --write-schema` and review the diff";
    let Some(committed) = committed else {
        findings.push(Finding {
            rule: "w1",
            rel: SCHEMA_REL.to_string(),
            line: 1,
            msg: format!(
                "committed wire schema is missing — the {} layouts are unpinned; {REGEN}",
                layouts.len()
            ),
            allowed: None,
        });
        return;
    };
    if committed == render(layouts) {
        return;
    }
    // Name the drifted enums at their definition sites.
    let committed_enums = parse_committed(committed);
    let mut any_enum_finding = false;
    for l in layouts {
        let generated: Vec<String> = {
            let section = render(std::slice::from_ref(l));
            parse_committed(&section).into_iter().flat_map(|(_, vs)| vs).collect()
        };
        let pinned = committed_enums
            .iter()
            .find(|(n, _)| n == &l.name)
            .map(|(_, vs)| vs.clone())
            .unwrap_or_default();
        if generated != pinned {
            let detail = first_divergence(&pinned, &generated);
            findings.push(Finding {
                rule: "w1",
                rel: l.rel.clone(),
                line: l.line,
                msg: format!(
                    "wire enum `{}` drifted from the committed schema ({detail}) — every \
                     pinned digest and serialized plan depends on this layout; {REGEN}",
                    l.name
                ),
                allowed: None,
            });
            any_enum_finding = true;
        }
    }
    if !any_enum_finding {
        // Byte drift without layout drift: header/format changes, an enum
        // added/removed from the pin list, or a hand-edited file.
        findings.push(Finding {
            rule: "w1",
            rel: SCHEMA_REL.to_string(),
            line: 1,
            msg: format!("committed wire schema is stale (format or enum-set drift); {REGEN}"),
            allowed: None,
        });
    }
}

/// Human-readable first difference between pinned and generated variant
/// line lists.
fn first_divergence(pinned: &[String], generated: &[String]) -> String {
    let variant_of = |line: &String| {
        line.split('"').nth(3).map_or_else(|| line.clone(), str::to_string)
    };
    for i in 0..pinned.len().max(generated.len()) {
        match (pinned.get(i), generated.get(i)) {
            (Some(p), Some(g)) if p == g => {}
            (Some(p), Some(g)) => {
                return format!(
                    "variant #{i}: pinned `{}` vs source `{}`",
                    variant_of(p),
                    variant_of(g)
                );
            }
            (Some(p), None) => return format!("variant `{}` removed from source", variant_of(p)),
            (None, Some(g)) => return format!("variant `{}` added in source", variant_of(g)),
            (None, None) => unreachable!(),
        }
    }
    "identical variant lists but differing bytes".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::model::enum_layout;

    fn layout(src: &str, name: &str) -> EnumLayout {
        enum_layout("crates/gs3-core/src/messages.rs", &lex(src).toks, name).unwrap()
    }

    #[test]
    fn render_roundtrips_through_parse() {
        let l = layout("enum Msg { A(u32), B { x: f64 }, C, }", "Msg");
        let text = render(std::slice::from_ref(&l));
        let parsed = parse_committed(&text);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].0, "Msg");
        assert_eq!(parsed[0].1.len(), 3);
    }

    #[test]
    fn matching_schema_is_clean() {
        let l = layout("enum Msg { A, B, }", "Msg");
        let text = render(std::slice::from_ref(&l));
        let mut f = Vec::new();
        check_w1(std::slice::from_ref(&l), Some(&text), &mut f);
        assert!(f.is_empty());
    }

    #[test]
    fn variant_add_reorder_and_field_change_all_drift() {
        let pinned = render(&[layout("enum Msg { A(u32), B, }", "Msg")]);
        for (changed, what) in [
            ("enum Msg { A(u32), B, C, }", "added variant"),
            ("enum Msg { B, A(u32), }", "reordered"),
            ("enum Msg { A(u64), B, }", "field type change"),
            ("enum Msg { A(u32), }", "removed variant"),
        ] {
            let l = layout(changed, "Msg");
            let mut f = Vec::new();
            check_w1(std::slice::from_ref(&l), Some(&pinned), &mut f);
            assert_eq!(f.len(), 1, "{what} must drift");
            assert_eq!(f[0].rule, "w1");
            assert!(f[0].rel.ends_with("messages.rs"), "finding sits at the enum: {what}");
        }
    }

    #[test]
    fn missing_schema_is_a_finding() {
        let l = layout("enum Msg { A, }", "Msg");
        let mut f = Vec::new();
        check_w1(std::slice::from_ref(&l), None, &mut f);
        assert_eq!(f.len(), 1);
        assert!(f[0].msg.contains("missing"));
    }

    #[test]
    fn fingerprint_is_layout_sensitive() {
        let a = layout("enum Msg { A(u32), B, }", "Msg");
        let b = layout("enum Msg { B, A(u32), }", "Msg");
        assert_ne!(
            fingerprint(std::slice::from_ref(&a)),
            fingerprint(std::slice::from_ref(&b))
        );
    }
}
