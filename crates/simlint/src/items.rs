//! A lightweight item parser on top of [`crate::lexer`]: extracts the
//! `mod`/`use`/`fn`/`impl`/`trait` skeleton of a cleaned source file.
//!
//! Like the lexer, this is deliberately not a full parser. The call-graph
//! pass ([`crate::graph`]) only needs to know *which functions exist*,
//! *which type (if any) they hang off*, and *where their bodies are* — all
//! of which falls out of one linear scan with brace matching over text
//! whose comments and literals have already been blanked. Generics, where
//! clauses and attributes are skipped structurally, never interpreted.

use crate::lexer::Cleaned;

/// One extracted function (free function, inherent method, trait method or
/// default trait body).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FnItem {
    /// The function's bare name (`cycle`, `run`).
    pub name: String,
    /// The `Self` type when declared inside `impl Ty` / `impl Tr for Ty` /
    /// `trait Ty` — the last path segment, generics stripped (`Scheduler`).
    pub self_ty: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Body text (cleaned), empty for bodyless trait declarations.
    pub body: String,
    /// 1-based line where the body opens (`{`), equal to `line` for
    /// single-line items; used to map body offsets back to source lines.
    pub body_line: usize,
    /// True when the `fn` keyword sits inside a `#[cfg(test)]`/`#[test]`
    /// region.
    pub is_test: bool,
}

/// One `use` declaration's text (cleaned, braces and all), recorded so the
/// graph can bias bare-name resolution toward imported modules.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UseDecl {
    /// The text between `use` and `;`, whitespace-trimmed.
    pub path: String,
    /// 1-based line.
    pub line: usize,
}

/// The item skeleton of one source file.
#[derive(Clone, Debug, Default)]
pub struct FileItems {
    /// Functions in declaration order.
    pub functions: Vec<FnItem>,
    /// `use` declarations in declaration order.
    pub uses: Vec<UseDecl>,
    /// Inline `mod` names declared in this file (both `mod m;` and
    /// `mod m { … }`).
    pub mods: Vec<String>,
}

/// Context kinds the scanner tracks while descending the brace tree.
#[derive(Clone, Debug)]
enum Ctx {
    /// `impl Ty` / `impl Tr for Ty` / `trait Ty`: methods inside get
    /// `self_ty = Ty`.
    TypeScope { ty: String, close_depth: usize },
    /// Any other braced region (mod body, fn body already recorded, enum…).
    Opaque { close_depth: usize },
}

/// A `fn` whose body brace has not opened yet.
struct PendingFn {
    name: String,
    self_ty: Option<String>,
    line: usize,
}

/// Extract the item skeleton from an analyzed file.
pub fn parse(cleaned: &Cleaned) -> FileItems {
    let text = &cleaned.text;
    let b: Vec<char> = text.chars().collect();
    let n = b.len();
    let mut out = FileItems::default();

    // 1-based line number for a char index.
    let mut line_of = Vec::with_capacity(n);
    let mut ln = 1usize;
    for &c in &b {
        line_of.push(ln);
        if c == '\n' {
            ln += 1;
        }
    }
    let line_at = |i: usize| line_of.get(i).copied().unwrap_or(ln);

    let mut depth = 0usize;
    let mut ctxs: Vec<Ctx> = Vec::new();
    // At most one of these is armed between a keyword and its `{`/`;`.
    let mut pending_fn: Option<PendingFn> = None;
    let mut pending_ty: Option<String> = None;

    let mut i = 0usize;
    while i < n {
        let c = b[i];
        if c == '{' {
            depth += 1;
            if let Some(pf) = pending_fn.take() {
                // Capture the body verbatim up to the matching brace.
                let open = i;
                let close = match_brace(&b, open);
                let body: String = b[open + 1..close].iter().collect();
                out.functions.push(FnItem {
                    name: pf.name,
                    self_ty: pf.self_ty,
                    line: pf.line,
                    body,
                    body_line: line_at(open),
                    is_test: cleaned
                        .test_mask
                        .get(pf.line.saturating_sub(1))
                        .copied()
                        .unwrap_or(false),
                });
                // Keep scanning *inside* the body too (nested fns, and the
                // brace bookkeeping stays consistent).
                ctxs.push(Ctx::Opaque { close_depth: depth });
            } else if let Some(ty) = pending_ty.take() {
                ctxs.push(Ctx::TypeScope {
                    ty,
                    close_depth: depth,
                });
            } else {
                ctxs.push(Ctx::Opaque { close_depth: depth });
            }
            i += 1;
            continue;
        }
        if c == '}' {
            if let Some(last) = ctxs.last() {
                let cd = match last {
                    Ctx::TypeScope { close_depth, .. } | Ctx::Opaque { close_depth } => {
                        *close_depth
                    }
                };
                if cd == depth {
                    ctxs.pop();
                }
            }
            depth = depth.saturating_sub(1);
            i += 1;
            continue;
        }
        if c == ';' {
            // `fn f();` (trait declaration) or `impl` that never opened
            // (malformed) — record the bodyless fn, drop the pending type.
            if let Some(pf) = pending_fn.take() {
                out.functions.push(FnItem {
                    name: pf.name,
                    self_ty: pf.self_ty,
                    line: pf.line,
                    body: String::new(),
                    body_line: pf.line,
                    is_test: cleaned
                        .test_mask
                        .get(pf.line.saturating_sub(1))
                        .copied()
                        .unwrap_or(false),
                });
            }
            pending_ty = None;
            i += 1;
            continue;
        }
        if is_ident_start(c) && !prev_is_ident(&b, i) {
            let start = i;
            while i < n && is_ident_char(b[i]) {
                i += 1;
            }
            let word: String = b[start..i].iter().collect();
            match word.as_str() {
                "fn" => {
                    let (name, at) = next_ident(&b, i);
                    if !name.is_empty() {
                        let self_ty = ctxs.iter().rev().find_map(|c| match c {
                            Ctx::TypeScope { ty, .. } => Some(ty.clone()),
                            Ctx::Opaque { .. } => None,
                        });
                        pending_fn = Some(PendingFn {
                            name,
                            self_ty,
                            line: line_at(start),
                        });
                        i = at;
                    }
                }
                "impl" => {
                    // Header runs to the opening `{`; `<`…`>` nesting must
                    // be skipped so `impl Iterator<Item = {…}>`-ish bounds
                    // and `->` arrows don't confuse the type extraction.
                    let (header, at) = read_until_brace(&b, i);
                    pending_ty = impl_self_type(&header);
                    i = at;
                }
                "trait" => {
                    let (name, at) = next_ident(&b, i);
                    if !name.is_empty() {
                        pending_ty = Some(name);
                        i = at;
                    }
                }
                "mod" => {
                    let (name, at) = next_ident(&b, i);
                    if !name.is_empty() {
                        out.mods.push(name);
                        i = at;
                    }
                }
                "use" => {
                    let from = i;
                    let mut j = i;
                    while j < n && b[j] != ';' {
                        j += 1;
                    }
                    let path: String = b[from..j].iter().collect();
                    out.uses.push(UseDecl {
                        path: path.trim().to_string(),
                        line: line_at(start),
                    });
                    i = j;
                }
                _ => {}
            }
            continue;
        }
        i += 1;
    }
    out
}

/// Index of the `}` matching the `{` at `open` (or end of input).
fn match_brace(b: &[char], open: usize) -> usize {
    let mut depth = 0i64;
    let mut i = open;
    while i < b.len() {
        match b[i] {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    b.len()
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn prev_is_ident(b: &[char], i: usize) -> bool {
    i > 0 && is_ident_char(b[i - 1])
}

/// The next identifier after `from`, skipping whitespace and one optional
/// generic list (for `fn name<…>` the caller reads `name` first, so this
/// only needs leading whitespace). Returns the ident and the index just
/// past it.
fn next_ident(b: &[char], from: usize) -> (String, usize) {
    let mut i = from;
    while i < b.len() && b[i].is_whitespace() {
        i += 1;
    }
    let start = i;
    while i < b.len() && is_ident_char(b[i]) {
        i += 1;
    }
    (b[start..i].iter().collect(), i)
}

/// Collect text from `from` up to the first `{` or `;` outside `<`…`>`
/// nesting. Returns (header, index-of-stop-char).
fn read_until_brace(b: &[char], from: usize) -> (String, usize) {
    let mut i = from;
    let mut angle = 0i64;
    while i < b.len() {
        match b[i] {
            '<' => angle += 1,
            '>' => angle = (angle - 1).max(0),
            '{' | ';' if angle == 0 => break,
            _ => {}
        }
        i += 1;
    }
    (b[from..i].iter().collect(), i)
}

/// The `Self` type of an `impl` header (text between `impl` and `{`): the
/// segment after `for` when present, otherwise the first type; module
/// paths and generic arguments are stripped to the last plain segment.
fn impl_self_type(header: &str) -> Option<String> {
    // Strip a leading generic parameter list `<…>` (angle-nesting aware).
    let h = header.trim();
    let h = if let Some(rest) = h.strip_prefix('<') {
        let mut depth = 1i64;
        let mut cut = rest.len();
        for (k, c) in rest.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        cut = k + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        &rest[cut..]
    } else {
        h
    };
    // `impl Tr for Ty` → the part after the last top-level ` for `.
    let ty_part = match split_top_level_for(h) {
        Some((_, ty)) => ty,
        None => h,
    };
    last_type_segment(ty_part)
}

/// Split `Tr for Ty` at a ` for ` that is outside any `<`…`>` nesting.
fn split_top_level_for(s: &str) -> Option<(&str, &str)> {
    let bytes = s.as_bytes();
    let mut angle = 0i64;
    let mut k = 0usize;
    while k + 5 <= bytes.len() {
        match bytes[k] {
            b'<' => angle += 1,
            b'>' => angle = (angle - 1).max(0),
            b'f' if angle == 0 && s[k..].starts_with("for ") => {
                let before_ok = k == 0
                    || !s[..k]
                        .chars()
                        .next_back()
                        .is_some_and(|c| c.is_alphanumeric() || c == '_');
                if before_ok {
                    return Some((&s[..k], &s[k + 4..]));
                }
            }
            _ => {}
        }
        k += 1;
    }
    None
}

/// `sched::Scheduler<T>` → `Scheduler`; `&mut Foo` → `Foo`; `(A, B)` → None.
fn last_type_segment(s: &str) -> Option<String> {
    let s = s.trim().trim_start_matches(['&', '*']).trim();
    let s = s
        .strip_prefix("mut ")
        .or_else(|| s.strip_prefix("dyn "))
        .unwrap_or(s)
        .trim();
    let base = match s.find('<') {
        Some(k) => &s[..k],
        None => s,
    };
    let seg = base.rsplit("::").next().unwrap_or(base).trim();
    if seg.is_empty() || !seg.chars().next().is_some_and(|c| c.is_alphabetic()) {
        return None;
    }
    if seg.chars().all(|c| c.is_alphanumeric() || c == '_') {
        Some(seg.to_string())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn items(src: &str) -> FileItems {
        parse(&lexer::analyze(src))
    }

    #[test]
    fn free_functions_and_bodies() {
        let src = "fn alpha() { beta(); }\nfn beta() {}\n";
        let it = items(src);
        assert_eq!(it.functions.len(), 2);
        assert_eq!(it.functions[0].name, "alpha");
        assert_eq!(it.functions[0].self_ty, None);
        assert_eq!(it.functions[0].line, 1);
        assert!(it.functions[0].body.contains("beta()"));
        assert_eq!(it.functions[1].name, "beta");
        assert_eq!(it.functions[1].body.trim(), "");
    }

    #[test]
    fn inherent_and_trait_impl_methods_get_self_ty() {
        let src = "struct S;\nimpl S {\n    pub fn make() -> S { S }\n}\n\
                   impl std::fmt::Display for S {\n    fn fmt(&self) -> u8 { 0 }\n}\n";
        let it = items(src);
        let make = it.functions.iter().find(|f| f.name == "make").unwrap();
        assert_eq!(make.self_ty.as_deref(), Some("S"));
        let fmt = it.functions.iter().find(|f| f.name == "fmt").unwrap();
        assert_eq!(fmt.self_ty.as_deref(), Some("S"));
    }

    #[test]
    fn generic_impls_resolve_to_base_type() {
        let src = "impl<T: Clone> Wrapper<T> {\n    fn get(&self) -> &T { &self.0 }\n}\n";
        let it = items(src);
        assert_eq!(it.functions[0].self_ty.as_deref(), Some("Wrapper"));
    }

    #[test]
    fn trait_decls_and_default_bodies() {
        let src = "trait Probe {\n    fn on_event(&mut self);\n    fn on_stop(&mut self) {}\n}\n";
        let it = items(src);
        let decl = it.functions.iter().find(|f| f.name == "on_event").unwrap();
        assert_eq!(decl.self_ty.as_deref(), Some("Probe"));
        assert!(decl.body.is_empty());
    }

    #[test]
    fn nested_fns_inside_bodies_are_found() {
        let src = "fn outer() {\n    fn inner() { x(); }\n    inner();\n}\n";
        let it = items(src);
        let names: Vec<&str> = it.functions.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner"]);
        assert_eq!(it.functions[1].line, 2);
    }

    #[test]
    fn test_mask_flows_through() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n";
        let it = items(src);
        assert!(!it.functions[0].is_test);
        assert!(it.functions[1].is_test, "{:?}", it.functions[1]);
    }

    #[test]
    fn uses_and_mods_recorded() {
        let src = "use crate::backfill::{self, Plan};\nmod window;\npub mod inner { fn f() {} }\n";
        let it = items(src);
        assert_eq!(it.uses.len(), 1);
        assert!(it.uses[0].path.contains("backfill"));
        assert_eq!(it.mods, ["window", "inner"]);
    }

    #[test]
    fn match_arm_braces_do_not_break_scoping() {
        let src = "impl S {\n    fn a(&self) -> u8 { match 0 { 0 => { 1 } _ => 2 } }\n    fn b(&self) {}\n}\n";
        let it = items(src);
        assert_eq!(it.functions.len(), 2);
        assert_eq!(it.functions[1].self_ty.as_deref(), Some("S"));
    }

    #[test]
    fn impl_header_edge_cases() {
        assert_eq!(impl_self_type(" Scheduler "), Some("Scheduler".into()));
        assert_eq!(
            impl_self_type("<T> sched::Scheduler<T> "),
            Some("Scheduler".into())
        );
        assert_eq!(
            impl_self_type(" Probe for NoProbe "),
            Some("NoProbe".into())
        );
        assert_eq!(
            impl_self_type("<'a> Iterator for Iter<'a> "),
            Some("Iter".into())
        );
        assert_eq!(impl_self_type("<T> From<T> for (A, B) "), None);
    }
}
