//! The protocol model lint rules check against: the wire enums' *layouts*
//! (ordered variants with payload shapes, pinned by the `w1` wire-schema
//! rule) and a bracket-aware `match` expression parser.

use crate::lexer::{Tok, TokKind};

/// One enum variant with its payload shape: the variant's tokens after
/// the name, normalized to a single-space-joined string (`( OrgInfo )`,
/// `{ seq : u64 , inner : Box < Msg > }`, or empty for unit variants).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VariantLayout {
    pub name: String,
    pub payload: String,
}

/// The full source-order layout of one wire enum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnumLayout {
    pub name: String,
    /// Line of the `enum` keyword in its defining file.
    pub line: u32,
    /// Workspace-relative path of the defining file.
    pub rel: String,
    /// Variants in *source order* — reorders change the layout.
    pub variants: Vec<VariantLayout>,
}

/// `(enum name, defining file suffix)` of every wire enum `w1` pins.
pub const WIRE_ENUMS: [(&str, &str); 3] = [
    ("Msg", "gs3-core/src/messages.rs"),
    ("Timer", "gs3-core/src/timers.rs"),
    ("FaultKind", "gs3-core/src/chaos.rs"),
];

/// The layouts of the wire enums found in `files` (`(relative_path,
/// tokens)` pairs), in [`WIRE_ENUMS`] pin order; an enum whose source file
/// is absent is simply missing.
#[must_use]
pub fn wire_layouts<'a, I>(files: I) -> Vec<EnumLayout>
where
    I: IntoIterator<Item = (&'a str, &'a [Tok])>,
{
    let mut found: Vec<Option<EnumLayout>> = vec![None; WIRE_ENUMS.len()];
    for (rel, toks) in files {
        for (slot, (name, suffix)) in WIRE_ENUMS.iter().enumerate() {
            if rel.ends_with(suffix) {
                if let Some(l) = enum_layout(rel, toks, name) {
                    found[slot] = Some(l);
                }
            }
        }
    }
    found.into_iter().flatten().collect()
}

/// Extracts the source-order layout of `enum <name>` from a token stream,
/// or `None` when the file does not define it.
#[must_use]
pub fn enum_layout(rel: &str, toks: &[Tok], name: &str) -> Option<EnumLayout> {
    let mut i = 0;
    while i + 2 < toks.len() {
        if toks[i].text == "enum" && toks[i + 1].text == name && toks[i + 2].text == "{" {
            let mut layout = EnumLayout {
                name: name.to_string(),
                line: toks[i].line,
                rel: rel.to_string(),
                variants: Vec::new(),
            };
            let mut depth = 1u32;
            let mut j = i + 3;
            let mut current: Option<VariantLayout> = None;
            while j < toks.len() && depth > 0 {
                let t = &toks[j];
                // Skip `#[...]` attributes wholesale at variant level.
                if depth == 1 && t.text == "#" && toks.get(j + 1).is_some_and(|n| n.text == "[")
                {
                    let mut d = 0i32;
                    let mut k = j + 1;
                    while k < toks.len() {
                        match toks[k].text.as_str() {
                            "[" | "(" | "{" => d += 1,
                            "]" | ")" | "}" => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    j = k + 1;
                    continue;
                }
                match t.text.as_str() {
                    "{" | "(" | "[" => depth += 1,
                    "}" | ")" | "]" => depth -= 1,
                    _ => {}
                }
                if depth == 0 {
                    break;
                }
                if depth == 1 && t.text == "," {
                    layout.variants.extend(current.take());
                } else if let Some(v) = &mut current {
                    if !v.payload.is_empty() {
                        v.payload.push(' ');
                    }
                    v.payload.push_str(&t.text);
                } else if t.kind == TokKind::Ident {
                    current = Some(VariantLayout { name: t.text.clone(), payload: String::new() });
                }
                j += 1;
            }
            layout.variants.extend(current.take());
            return Some(layout);
        }
        i += 1;
    }
    None
}

/// One parsed `match` expression.
#[derive(Debug)]
pub struct MatchExpr {
    /// Token index of the `match` keyword.
    pub idx: usize,
    /// `Enum::Variant` pairs found in arm *patterns* (never bodies).
    pub pattern_variants: Vec<(String, String, u32)>,
    /// Token ranges `[start, end)` of every arm pattern (guard included),
    /// so construction-site scans can exclude pattern positions.
    pub pattern_ranges: Vec<(usize, usize)>,
    /// Line of a catch-all arm — an unguarded lone `_` or binding — if
    /// present. (A guarded arm leaves rustc's exhaustiveness check intact.)
    pub catch_all: Option<u32>,
}

/// Parses every `match` expression in a token stream.
///
/// Pattern tokens (between an arm's start and its `=>`) are separated from
/// body tokens by bracket-depth tracking, so enum paths constructed inside
/// arm bodies never count as dispatch coverage.
#[must_use]
pub fn find_matches(toks: &[Tok]) -> Vec<MatchExpr> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind == TokKind::Ident && toks[i].text == "match" {
            // Skip the scrutinee to its opening brace at relative depth 0.
            let mut j = i + 1;
            let mut depth = 0i32;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            if j >= toks.len() {
                break;
            }
            out.push(parse_match_body(toks, i, j));
            // Continue from inside the match so nested matches (inside arm
            // bodies, at deeper bracket depth for this parse) are found too.
        }
        i += 1;
    }
    out
}

/// Parses one match body whose `{` is at index `open`.
fn parse_match_body(toks: &[Tok], match_idx: usize, open: usize) -> MatchExpr {
    let mut m = MatchExpr {
        idx: match_idx,
        pattern_variants: Vec::new(),
        pattern_ranges: Vec::new(),
        catch_all: None,
    };
    let mut depth = 1i32;
    let mut j = open + 1;
    let mut in_pattern = true;
    let mut pattern_start = j;
    while j < toks.len() && depth > 0 {
        let t = &toks[j];
        match t.text.as_str() {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                depth -= 1;
                // A `{ … }` arm body closing back to depth 1 ends the arm.
                if depth == 1 && !in_pattern {
                    in_pattern = true;
                    pattern_start = j + 1;
                }
            }
            "=>" if depth == 1 && in_pattern => {
                scan_pattern(toks, pattern_start, j, &mut m);
                in_pattern = false;
            }
            // A comma at arm depth separates arms whether the previous arm
            // was an expression or a block followed by an optional comma.
            "," if depth == 1 => {
                in_pattern = true;
                pattern_start = j + 1;
            }
            _ => {}
        }
        j += 1;
    }
    m
}

/// Scans one arm pattern `toks[start..end]` for `Enum::Variant` pairs and
/// a catch-all (`end` is the `=>` index).
fn scan_pattern(toks: &[Tok], start: usize, end: usize, m: &mut MatchExpr) {
    m.pattern_ranges.push((start, end));
    // Guards (`if …`) can mention enum paths without matching them; stop
    // pattern scanning at a top-level `if`.
    let mut limit = end;
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().take(end).skip(start) {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "if" if depth == 0 && t.kind == TokKind::Ident => {
                limit = k;
                break;
            }
            _ => {}
        }
    }
    // One lowercase identifier is a binding; `true`/`false` are literals
    // and capitalised names are unit variants or constants.
    let lone = &toks[start];
    if end == start + 1
        && lone.kind == TokKind::Ident
        && lone.text.starts_with(|c: char| c == '_' || c.is_ascii_lowercase())
        && lone.text != "true"
        && lone.text != "false"
    {
        m.catch_all = Some(lone.line);
    }
    for k in start..limit.saturating_sub(2) {
        if toks[k].kind == TokKind::Ident
            && toks[k + 1].text == "::"
            && toks[k + 2].kind == TokKind::Ident
            && matches!(toks[k].text.as_str(), "Msg" | "Timer")
        {
            m.pattern_variants.push((
                toks[k].text.clone(),
                toks[k + 2].text.clone(),
                toks[k].line,
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn extracts_variants_with_payloads_and_attrs() {
        let src = "\
pub enum Msg {
    /// doc
    A(OrgInfo),
    B { pos: Point, current: Option<(NodeId, f64)> },
    #[cfg(feature = \"x\")]
    C,
}\n";
        let l = enum_layout("m.rs", &lex(src).toks, "Msg").unwrap();
        let names: Vec<_> = l.variants.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, ["A", "B", "C"]);
    }

    #[test]
    fn patterns_only_not_bodies() {
        let src = "\
fn f(m: Msg) {
    match m {
        Msg::A(x) => send(Msg::C),
        Msg::B { .. } => {}
    }
}\n";
        let l = lex(src);
        let ms = find_matches(&l.toks);
        assert_eq!(ms.len(), 1);
        let names: Vec<_> = ms[0].pattern_variants.iter().map(|(_, v, _)| v.as_str()).collect();
        assert_eq!(names, ["A", "B"], "Msg::C in the body must not count");
        assert!(ms[0].catch_all.is_none());
    }

    #[test]
    fn catch_all_detection_is_top_level_only() {
        for arm in ["_", "other"] {
            let src = format!("match m {{\n    Msg::A(_) => 1,\n    {arm} => 0,\n}}\n");
            assert_eq!(find_matches(&lex(&src).toks)[0].catch_all, Some(3), "{arm}");
        }
        for src in [
            "match m { Msg::A(_) => 1, Msg::B { .. } => 0, }",
            "match m { Msg::A(x) => x, None => 0, true => 1, }",
            "match m { x if x.is_urgent() => 1, Msg::A(_) => 0, _ if y => 2, }",
        ] {
            let ms = find_matches(&lex(src).toks);
            assert!(ms[0].catch_all.is_none(), "payloads, variants, literals, guards: {src}");
        }
    }

    #[test]
    fn guard_paths_do_not_count_as_patterns() {
        let src = "match m { x if x == Msg::A => 1, _ => 0, }";
        let ms = find_matches(&lex(src).toks);
        assert!(ms[0].pattern_variants.is_empty());
    }

    #[test]
    fn nested_matches_are_separate() {
        let src = "\
match a {
    Msg::A(x) => match x {
        Timer::T1 => 1,
        _ => 2,
    },
    _ => 3,
}\n";
        let ms = find_matches(&lex(src).toks);
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].pattern_variants.len(), 1);
        assert_eq!(ms[1].pattern_variants.len(), 1);
    }

    #[test]
    fn struct_literal_scrutinee_does_not_confuse() {
        let src = "match (f(a), g[0]) { (x, y) => x + y }";
        let ms = find_matches(&lex(src).toks);
        assert_eq!(ms.len(), 1);
    }
}
