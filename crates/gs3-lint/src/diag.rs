//! Findings, allowlist directives, and report rendering.

use crate::lexer::{Lexed, RawDirective};

/// Rule identifiers accepted by `allow(...)` directives.
pub const RULES: [&str; 11] =
    ["d1", "d2", "d3", "d4", "d5", "t1", "t3", "w1", "a1", "allow-syntax", "allow-unused"];

/// Version of the `--json` report format. Bumped to 2 when the report
/// gained this field, rule-major ordering, and the `schema_version` key.
pub const JSON_SCHEMA_VERSION: u32 = 2;

/// One diagnostic produced by a rule.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id (one of [`RULES`]: the nine rules or the allowlist meta-rules).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub rel: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub msg: String,
    /// `Some(justification)` when an allow directive covers the finding.
    pub allowed: Option<String>,
}

/// A parsed `gs3-lint:` allow directive.
#[derive(Debug)]
pub struct Directive {
    pub rules: Vec<String>,
    pub justification: String,
    /// The source line the directive covers (`None` = whole file).
    pub target_line: Option<u32>,
    /// Where the directive itself sits (for `allow-unused`).
    pub line: u32,
    pub used: bool,
}

/// Parses every raw `gs3-lint:` comment of a file into directives,
/// emitting `allow-syntax` findings for malformed ones.
///
/// Syntax: `// gs3-lint: allow(rule[, rule…]) -- justification` covering
/// the directive's own line when trailing code, otherwise the next source
/// line; `allow-file(rule…)` covers the whole file. The justification
/// after ` -- ` is mandatory and must be non-empty: an allowlist entry
/// without a recorded reason is itself a contract violation.
pub fn parse_directives(rel: &str, lexed: &Lexed) -> (Vec<Directive>, Vec<Finding>) {
    let mut dirs = Vec::new();
    let mut findings = Vec::new();
    for raw in &lexed.directives {
        match parse_one(raw, lexed) {
            Ok(d) => dirs.push(d),
            Err(msg) => findings.push(Finding {
                rule: "allow-syntax",
                rel: rel.to_string(),
                line: raw.line,
                msg,
                allowed: None,
            }),
        }
    }
    (dirs, findings)
}

fn parse_one(raw: &RawDirective, lexed: &Lexed) -> Result<Directive, String> {
    let body = raw.text[raw.text.find("gs3-lint:").expect("captured by lexer") + 9..].trim();
    let (file_scope, rest) = if let Some(r) = body.strip_prefix("allow-file(") {
        (true, r)
    } else if let Some(r) = body.strip_prefix("allow(") {
        (false, r)
    } else {
        return Err(format!("unrecognized gs3-lint directive `{body}`"));
    };
    let close = rest
        .find(')')
        .ok_or_else(|| "unterminated rule list in allow directive".to_string())?;
    let mut rules = Vec::new();
    for r in rest[..close].split(',') {
        let r = r.trim();
        if !RULES.contains(&r) {
            return Err(format!("unknown lint rule `{r}` in allow directive"));
        }
        rules.push(r.to_string());
    }
    let tail = rest[close + 1..].trim();
    let justification = tail
        .strip_prefix("--")
        .map(str::trim)
        .filter(|j| !j.is_empty())
        .ok_or_else(|| {
            "allow directive requires a justification: `-- <why this is sound>`".to_string()
        })?;
    let target_line = if file_scope {
        None
    } else if raw.trailing {
        Some(raw.line)
    } else {
        // A standalone directive covers the next line holding source.
        Some(
            lexed
                .toks
                .iter()
                .map(|t| t.line)
                .find(|&l| l > raw.line)
                .unwrap_or(raw.line + 1),
        )
    };
    Ok(Directive {
        rules,
        justification: justification.to_string(),
        target_line,
        line: raw.line,
        used: false,
    })
}

/// Marks findings covered by directives and appends `allow-unused`
/// findings for directives that cover nothing.
pub fn apply_directives(rel: &str, dirs: &mut [Directive], findings: &mut Vec<Finding>) {
    for f in findings.iter_mut().filter(|f| f.rel == rel) {
        for d in dirs.iter_mut() {
            let rule_match = d.rules.iter().any(|r| r == f.rule);
            let line_match = d.target_line.is_none_or(|l| l == f.line);
            if rule_match && line_match {
                d.used = true;
                f.allowed = Some(d.justification.clone());
                break;
            }
        }
    }
    for d in dirs.iter().filter(|d| !d.used) {
        findings.push(Finding {
            rule: "allow-unused",
            rel: rel.to_string(),
            line: d.line,
            msg: format!(
                "allow({}) covers no finding — remove the stale directive",
                d.rules.join(", ")
            ),
            allowed: None,
        });
    }
}

/// Renders findings as a human-readable report.
#[must_use]
pub fn render_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings.iter().filter(|f| f.allowed.is_none()) {
        out.push_str(&format!("error[{}]: {}:{}: {}\n", f.rule, f.rel, f.line, f.msg));
    }
    let allowed = findings.iter().filter(|f| f.allowed.is_some()).count();
    let errors = findings.len() - allowed;
    out.push_str(&format!(
        "gs3-lint: {errors} finding(s), {allowed} allowlisted with justification\n"
    ));
    out
}

/// Renders findings as a machine-readable JSON report.
///
/// The report carries a `schema_version` so downstream consumers (CI
/// artifact uploads, dashboards) can detect format changes, and findings
/// are emitted in a stable rule-major order (`rule`, then path, then
/// line) independent of the text report's path-major order.
#[must_use]
pub fn render_json(findings: &[Finding]) -> String {
    let mut findings: Vec<&Finding> = findings.iter().collect();
    findings.sort_by(|a, b| (a.rule, &a.rel, a.line).cmp(&(b.rule, &b.rel, b.line)));
    let mut out = format!("{{\"schema_version\":{JSON_SCHEMA_VERSION},\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"",
            esc(f.rule),
            esc(&f.rel),
            f.line,
            esc(&f.msg)
        ));
        match &f.allowed {
            Some(j) => out.push_str(&format!(",\"allowed\":true,\"justification\":\"{}\"}}", esc(j))),
            None => out.push_str(",\"allowed\":false}"),
        }
    }
    let allowed = findings.iter().filter(|f| f.allowed.is_some()).count();
    out.push_str(&format!(
        "],\"summary\":{{\"errors\":{},\"allowlisted\":{}}}}}\n",
        findings.len() - allowed,
        allowed
    ));
    out
}

/// The tool's one JSON string-escape routine (report and schema files).
pub(crate) fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn trailing_and_standalone_targets() {
        let src = "\
let a = 1; // gs3-lint: allow(d2) -- measuring wall time on purpose
// gs3-lint: allow(d1) -- std map never iterated

let b = 2;\n";
        let lexed = lex(src);
        let (dirs, bad) = parse_directives("f.rs", &lexed);
        assert!(bad.is_empty());
        assert_eq!(dirs[0].target_line, Some(1));
        assert_eq!(dirs[1].target_line, Some(4), "skips the blank line");
    }

    #[test]
    fn justification_is_mandatory() {
        let lexed = lex("// gs3-lint: allow(d1)\n// gs3-lint: allow(d1) --   \n");
        let (dirs, bad) = parse_directives("f.rs", &lexed);
        assert!(dirs.is_empty());
        assert_eq!(bad.len(), 2);
        assert!(bad.iter().all(|f| f.rule == "allow-syntax"));
    }

    #[test]
    fn unknown_rule_is_rejected() {
        let lexed = lex("// gs3-lint: allow(d9) -- because\n");
        let (dirs, bad) = parse_directives("f.rs", &lexed);
        assert!(dirs.is_empty());
        assert_eq!(bad.len(), 1);
    }

    #[test]
    fn unused_directive_is_flagged() {
        let lexed = lex("// gs3-lint: allow-file(d2) -- benchmark harness\n");
        let (mut dirs, mut findings) = parse_directives("f.rs", &lexed);
        apply_directives("f.rs", &mut dirs, &mut findings);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "allow-unused");
    }

    #[test]
    fn file_scope_covers_every_line() {
        let lexed = lex("// gs3-lint: allow-file(d2) -- benchmark harness\n");
        let (mut dirs, mut findings) = parse_directives("f.rs", &lexed);
        findings.push(Finding {
            rule: "d2",
            rel: "f.rs".into(),
            line: 40,
            msg: String::new(),
            allowed: None,
        });
        apply_directives("f.rs", &mut dirs, &mut findings);
        assert!(findings.iter().all(|f| f.allowed.is_some() || f.rule != "d2"));
        assert!(!findings.iter().any(|f| f.rule == "allow-unused"));
    }

    #[test]
    fn json_report_is_well_formed() {
        let findings = vec![Finding {
            rule: "d1",
            rel: "a\"b.rs".into(),
            line: 3,
            msg: "std::collections::HashMap".into(),
            allowed: None,
        }];
        let json = render_json(&findings);
        assert!(json.contains("\\\"b.rs"));
        assert!(json.contains("\"errors\":1"));
    }

    #[test]
    fn json_report_is_versioned_and_rule_sorted() {
        let mk = |rule: &'static str, rel: &str, line: u32| Finding {
            rule,
            rel: rel.into(),
            line,
            msg: String::new(),
            allowed: None,
        };
        // Path-major input order (what `analyze` returns) must come out
        // rule-major in the JSON report.
        let findings =
            vec![mk("t1", "a.rs", 1), mk("d1", "z.rs", 9), mk("d1", "a.rs", 5)];
        let json = render_json(&findings);
        assert!(json.starts_with("{\"schema_version\":2,"));
        let pos = |needle: &str| json.find(needle).unwrap();
        assert!(pos("\"line\":5") < pos("\"line\":9"));
        assert!(pos("\"line\":9") < pos("\"rule\":\"t1\""));
    }
}
