//! A lightweight item/expression extractor layered on the token lexer.
//!
//! [`extract_fns`] recovers every `fn` item from a token stream — name,
//! owning `impl` type, body token range, and whether the item is test
//! code — and [`calls_in`] lists the call expressions inside a body.
//! Together they feed the workspace call graph (`callgraph.rs`) that the
//! cross-procedural rules (`d4`, `t3`) walk.
//!
//! This is deliberately *not* a parser: there is no type inference, no
//! name resolution beyond `Type::method` qualifiers, and no expression
//! tree. The extractor gets item boundaries right (generic parameter
//! lists containing `Fn(..)` parens, where-clauses, trait methods without
//! bodies, nested functions, `#[cfg(test)]` modules) and leaves semantic
//! questions to the rules, which over-approximate by design. Known
//! limitations are documented on each item and exercised in tests.

use crate::lexer::{Tok, TokKind};

/// One extracted `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name (raw-identifier prefix stripped by the lexer).
    pub name: String,
    /// The `impl` type the function sits in, when inside an `impl` block
    /// (`impl Trait for Type` records `Type`).
    pub owner: Option<String>,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Token index of the `fn` keyword.
    pub fn_idx: usize,
    /// Token range `(open, close)` of the body braces, inclusive of both
    /// brace tokens. `None` for bodiless trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// True for functions in test code: `#[test]`/`#[cfg(test)]`
    /// attributes, `#[cfg(test)] mod` bodies, or files under a crate's
    /// `tests/`, `benches/`, or `examples/` tree.
    pub is_test: bool,
}

/// One call expression inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The called name (`foo` in `foo(..)`, `.foo(..)`, `T::foo(..)`).
    pub callee: String,
    /// `Some("T")` for path calls `T::foo(..)`.
    pub qualifier: Option<String>,
    /// True for method-call syntax `recv.foo(..)`.
    pub method: bool,
    /// Token index of the callee identifier.
    pub idx: usize,
    /// 1-based source line of the call.
    pub line: u32,
}

/// Keywords that read like calls when followed by `(`.
const NON_CALL_KEYWORDS: [&str; 14] = [
    "if", "else", "while", "for", "loop", "match", "return", "let", "fn", "move", "in", "as",
    "where", "unsafe",
];

/// Extracts every `fn` item of a lexed file.
///
/// `rel` is the workspace-relative path; files under `tests/`, `benches/`,
/// or `examples/` are test code wholesale (integration tests and harness
/// binaries never run inside a simulation).
#[must_use]
pub fn extract_fns(rel: &str, toks: &[Tok]) -> Vec<FnItem> {
    let file_is_test = rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/");
    let test_regions = test_mod_regions(toks);
    let impl_regions = impl_regions(toks);
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind == TokKind::Ident && toks[i].text == "fn" {
            if let Some(item) = parse_fn(rel, toks, i, file_is_test, &test_regions, &impl_regions)
            {
                i = item.body.map_or(item.fn_idx + 1, |(open, _)| open + 1);
                out.push(item);
                continue;
            }
        }
        i += 1;
    }
    out
}

fn parse_fn(
    _rel: &str,
    toks: &[Tok],
    fn_idx: usize,
    file_is_test: bool,
    test_regions: &[(usize, usize)],
    impl_regions: &[(usize, usize, String)],
) -> Option<FnItem> {
    let name_tok = toks.get(fn_idx + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let name = name_tok.text.clone();
    // Find the parameter list: the first `(` at angle-depth 0 after the
    // name. Generic parameter lists may contain `Fn(usize) -> bool`
    // bounds, whose parens sit at angle-depth ≥ 1 and are skipped.
    let mut j = fn_idx + 2;
    let mut angle = 0i32;
    let params_open = loop {
        let t = toks.get(j)?;
        match t.text.as_str() {
            "<" => angle += 1,
            ">" => angle = (angle - 1).max(0),
            "(" if angle == 0 => break j,
            ";" | "{" | "}" => return None, // malformed / not a fn item
            _ => {}
        }
        j += 1;
    };
    let params_close = matching_close(toks, params_open)?;
    // After the parameters: return type and where clause hold no braces
    // at angle-depth 0 (const-generic `{N}` braces only occur inside
    // `<...>`), so the first depth-0 `{` opens the body and a `;` first
    // means a bodiless trait declaration.
    let mut j = params_close + 1;
    let mut angle = 0i32;
    let body = loop {
        match toks.get(j) {
            None => break None,
            Some(t) => match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle = (angle - 1).max(0),
                ";" if angle == 0 => break None,
                "{" if angle == 0 => break matching_close(toks, j).map(|c| (j, c)),
                _ => {}
            },
        }
        j += 1;
    };
    let is_test = file_is_test
        || test_regions.iter().any(|&(a, b)| fn_idx > a && fn_idx < b)
        || has_test_attr(toks, fn_idx);
    let owner = impl_regions
        .iter()
        .filter(|&&(a, b, _)| fn_idx > a && fn_idx < b)
        .min_by_key(|&&(a, b, _)| b - a)
        .map(|(_, _, ty)| ty.clone());
    Some(FnItem { name, owner, line: toks[fn_idx].line, fn_idx, body, is_test })
}

/// Whether the attribute tokens immediately before `fn_idx` contain
/// `#[test]`, `#[cfg(test)]`, or a `#[tokio::test]`-style suffix. Scans
/// backward through any stack of attributes, doc comments having been
/// discarded by the lexer.
fn has_test_attr(toks: &[Tok], fn_idx: usize) -> bool {
    let mut end = fn_idx;
    // Visibility / qualifiers between attributes and `fn`.
    while end > 0
        && matches!(toks[end - 1].text.as_str(), "pub" | "const" | "async" | "unsafe" | ")" | "(" | "crate" | "super")
    {
        end -= 1;
    }
    while end > 0 && toks[end - 1].text == "]" {
        let close = end - 1;
        let Some(open) = matching_open(toks, close) else { return false };
        if open == 0 || toks[open - 1].text != "#" {
            return false;
        }
        let attr: Vec<&str> = toks[open + 1..close].iter().map(|t| t.text.as_str()).collect();
        if attr.first() == Some(&"test")
            || attr.last() == Some(&"test")
            || (attr.contains(&"cfg") && attr.contains(&"test"))
        {
            return true;
        }
        end = open - 1;
    }
    false
}

/// Body ranges of `#[cfg(test)] mod … { … }` blocks.
fn test_mod_regions(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        if toks[i].kind == TokKind::Ident && toks[i].text == "mod" && has_test_attr(toks, i) {
            // Skip `mod name` to the `{` (a `;` is an out-of-line module).
            let mut j = i + 1;
            while j < toks.len() && !matches!(toks[j].text.as_str(), "{" | ";") {
                j += 1;
            }
            if j < toks.len() && toks[j].text == "{" {
                if let Some(close) = matching_close(toks, j) {
                    out.push((j, close));
                    i = j + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    out
}

/// `(open_brace, close_brace, type_name)` of every `impl` block. For
/// `impl Trait for Type` the name is `Type`; generic arguments are
/// dropped (`impl Foo<T>` records `Foo`).
fn impl_regions(toks: &[Tok]) -> Vec<(usize, usize, String)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind == TokKind::Ident && toks[i].text == "impl" {
            // Walk to the `{` at angle-depth 0, remembering the last
            // identifier seen at depth 0 before a `for` (trait name) and
            // after it (type name).
            let mut j = i + 1;
            let mut angle = 0i32;
            let mut last_ident: Option<String> = None;
            let mut after_for: Option<String> = None;
            let mut saw_for = false;
            while j < toks.len() {
                let t = &toks[j];
                match t.text.as_str() {
                    "<" => angle += 1,
                    ">" => angle = (angle - 1).max(0),
                    "for" if angle == 0 => saw_for = true,
                    "where" if angle == 0 => {}
                    "{" if angle == 0 => break,
                    ";" => break, // `impl Trait for Type;` (never in this workspace)
                    _ if t.kind == TokKind::Ident && angle == 0 => {
                        if saw_for {
                            after_for.get_or_insert_with(|| t.text.clone());
                        } else {
                            last_ident = Some(t.text.clone());
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            if j < toks.len() && toks[j].text == "{" {
                if let (Some(close), Some(ty)) =
                    (matching_close(toks, j), after_for.or(last_ident))
                {
                    out.push((j, close, ty));
                }
            }
        }
        i += 1;
    }
    out
}

/// Lists the call expressions in `toks[range.0..=range.1]`, skipping any
/// `exclude` sub-ranges (nested `fn` bodies, so an inner function's calls
/// are not attributed to its enclosing item).
///
/// Macro invocations (`name!(..)`) are not calls; tuple-struct
/// constructors (`Some(x)`) are indistinguishable from calls at token
/// level and are reported — the call graph simply finds no function of
/// that name.
#[must_use]
pub fn calls_in(toks: &[Tok], range: (usize, usize), exclude: &[(usize, usize)]) -> Vec<CallSite> {
    let mut out = Vec::new();
    let (start, end) = range;
    let mut i = start;
    while i < end {
        if exclude.iter().any(|&(a, b)| i >= a && i <= b) {
            i += 1;
            continue;
        }
        let t = &toks[i];
        if t.kind == TokKind::Ident
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
            && !NON_CALL_KEYWORDS.contains(&t.text.as_str())
            && !(i > 0 && toks[i - 1].text == "fn")
        {
            let method = i > 0 && toks[i - 1].text == ".";
            let qualifier = (!method && i >= 2 && toks[i - 1].text == "::"
                && toks[i - 2].kind == TokKind::Ident)
                .then(|| toks[i - 2].text.clone());
            out.push(CallSite {
                callee: t.text.clone(),
                qualifier,
                method,
                idx: i,
                line: t.line,
            });
        }
        i += 1;
    }
    out
}

/// Index of the closing token matching the opener at `open` (`(`/`[`/`{`).
#[must_use]
pub fn matching_close(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// Index of the opener matching the closer at `close` (`)`/`]`/`}`).
#[must_use]
pub fn matching_open(toks: &[Tok], close: usize) -> Option<usize> {
    let mut depth = 0i32;
    for j in (0..=close).rev() {
        match toks[j].text.as_str() {
            ")" | "]" | "}" => depth += 1,
            "(" | "[" | "{" => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn fns(src: &str) -> Vec<FnItem> {
        extract_fns("crates/x/src/a.rs", &lex(src).toks)
    }

    #[test]
    fn plain_fn_with_body() {
        let f = fns("fn alpha(x: u32) -> u32 { x + 1 }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].name, "alpha");
        assert!(f[0].body.is_some());
        assert!(!f[0].is_test);
        assert!(f[0].owner.is_none());
    }

    #[test]
    fn generic_fn_bound_parens_are_not_params() {
        // The `Fn(usize)` parens inside the generic list must not be
        // mistaken for the parameter list.
        let f = fns("fn each<F: Fn(usize) -> bool>(mut f: F) { f(1); }");
        assert_eq!(f.len(), 1);
        let calls = calls_in(&lex("fn each<F: Fn(usize) -> bool>(mut f: F) { f(1); }").toks,
            f[0].body.unwrap(), &[]);
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].callee, "f");
    }

    #[test]
    fn trait_decl_without_body() {
        let f = fns("trait T { fn required(&self) -> u32; fn provided(&self) -> u32 { 1 } }");
        assert_eq!(f.len(), 2);
        assert!(f[0].body.is_none());
        assert!(f[1].body.is_some());
    }

    #[test]
    fn impl_owner_and_trait_impl_owner() {
        let f = fns("impl Foo { fn a(&self) {} } impl Bar for Baz<T> { fn b(&self) {} }");
        assert_eq!(f[0].owner.as_deref(), Some("Foo"));
        assert_eq!(f[1].owner.as_deref(), Some("Baz"));
    }

    #[test]
    fn generic_impl_owner() {
        let f = fns("impl<N: Node> Engine<N> { fn step(&mut self) {} }");
        assert_eq!(f[0].owner.as_deref(), Some("Engine"));
    }

    #[test]
    fn cfg_test_mod_marks_fns() {
        let src = "fn live() {} #[cfg(test)] mod tests { fn helper() {} #[test] fn t() {} }";
        let f = fns(src);
        assert_eq!(f.len(), 3);
        assert!(!f[0].is_test);
        assert!(f[1].is_test, "helper inside #[cfg(test)] mod");
        assert!(f[2].is_test);
    }

    #[test]
    fn test_attr_direct() {
        let f = fns("#[test] fn t() {} #[tokio::test] fn t2() {} pub fn live() {}");
        assert!(f[0].is_test);
        assert!(f[1].is_test);
        assert!(!f[2].is_test);
    }

    #[test]
    fn tests_dir_files_are_test_code() {
        let f = extract_fns("crates/gs3-core/tests/chaos.rs", &lex("fn helper() {}").toks);
        assert!(f[0].is_test);
    }

    #[test]
    fn nested_fn_calls_are_excludable() {
        let src = "fn outer() { inner_call(); fn nested() { nested_call(); } }";
        let toks = lex(src).toks;
        let f = extract_fns("crates/x/src/a.rs", &toks);
        assert_eq!(f.len(), 2);
        let nested_body = f[1].body.unwrap();
        let outer_calls = calls_in(&toks, f[0].body.unwrap(), &[nested_body]);
        let names: Vec<_> = outer_calls.iter().map(|c| c.callee.as_str()).collect();
        assert_eq!(names, ["inner_call"], "nested fn's calls must not leak to outer");
    }

    #[test]
    fn call_kinds() {
        let src = "fn f() { plain(); recv.method(); Type::assoc(); mac!(no); }";
        let toks = lex(src).toks;
        let f = extract_fns("crates/x/src/a.rs", &toks);
        let calls = calls_in(&toks, f[0].body.unwrap(), &[]);
        assert_eq!(calls.len(), 3, "macro invocation is not a call");
        assert!(!calls[0].method && calls[0].qualifier.is_none());
        assert!(calls[1].method);
        assert_eq!(calls[2].qualifier.as_deref(), Some("Type"));
    }

    #[test]
    fn where_clause_and_return_impl() {
        let src = "fn f<T>(x: T) -> impl Iterator<Item = (i64, i64)> where T: Clone { std::iter::empty() }";
        let f = fns(src);
        assert_eq!(f.len(), 1);
        assert!(f[0].body.is_some());
    }
}
