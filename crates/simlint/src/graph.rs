//! An approximate cross-crate call graph over the item skeletons of
//! [`crate::items`], plus the R8 purity pass that walks it.
//!
//! Resolution is name-based and deliberately over-approximate in the
//! direction that matters for purity checking (more edges → more functions
//! proven pure, never fewer):
//!
//! * `Type::method(…)` resolves to every workspace method named `method`
//!   on a type named `Type`, in any crate.
//! * `self.method(…)` resolves to methods named `method` on the caller's
//!   own `Self` type only.
//! * `recv.method(…)` (unknown receiver) resolves to *every* workspace
//!   method with that name — std methods (`push`, `len`, …) simply have no
//!   workspace target and contribute nothing.
//! * `module::func(…)` and bare `func(…)` resolve to free functions with
//!   that name, preferring the caller's crate for bare calls.
//!
//! Test-masked functions and `bin`/`examples` sources are excluded: the
//! graph models the library hot path the determinism contract covers.

use crate::items::FnItem;
use std::collections::{BTreeMap, BTreeSet};

/// One function node in the workspace graph.
#[derive(Clone, Debug)]
pub struct Node {
    /// Display id: `crate::Type::name` or `crate::name`. Not necessarily
    /// unique (same method name in two impl blocks of one type); edges and
    /// reachability run over indices, ids are for humans and JSON.
    pub id: String,
    /// Crate directory name (`sched`, `simkit`, …).
    pub krate: String,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Bare function name.
    pub name: String,
    /// `Self` type when this is a method.
    pub self_ty: Option<String>,
    /// Outgoing call edges (node indices, sorted, deduplicated).
    pub calls: Vec<usize>,
    /// Impure tokens found in this function's own body:
    /// `(pattern, 1-based source line, category)`.
    pub impure: Vec<(String, usize, &'static str)>,
}

/// The workspace call graph.
#[derive(Clone, Debug, Default)]
pub struct CallGraph {
    /// All nodes, sorted by (file, line).
    pub nodes: Vec<Node>,
}

/// An impure pattern the purity pass searches function bodies for.
pub struct ImpurePattern {
    /// The token to search for.
    pub token: &'static str,
    /// Category for the diagnostic: "wall-clock", "entropy" or "io".
    pub category: &'static str,
}

/// What R8 forbids anywhere reachable from the driver/scheduler roots.
/// Tokens are matched against cleaned text (comments/strings blanked), so
/// log messages naming these are fine.
pub const IMPURE_PATTERNS: &[ImpurePattern] = &[
    ImpurePattern {
        token: "Instant::now",
        category: "wall-clock",
    },
    ImpurePattern {
        token: "SystemTime::now",
        category: "wall-clock",
    },
    ImpurePattern {
        token: "thread_rng",
        category: "entropy",
    },
    ImpurePattern {
        token: "from_entropy",
        category: "entropy",
    },
    ImpurePattern {
        token: "OsRng",
        category: "entropy",
    },
    ImpurePattern {
        token: "getrandom",
        category: "entropy",
    },
    ImpurePattern {
        token: "std::fs",
        category: "io",
    },
    ImpurePattern {
        token: "File::open",
        category: "io",
    },
    ImpurePattern {
        token: "File::create",
        category: "io",
    },
    ImpurePattern {
        token: "println!",
        category: "io",
    },
    ImpurePattern {
        token: "eprintln!",
        category: "io",
    },
    ImpurePattern {
        token: "print!",
        category: "io",
    },
    ImpurePattern {
        token: "eprint!",
        category: "io",
    },
    ImpurePattern {
        token: "io::stdout",
        category: "io",
    },
    ImpurePattern {
        token: "io::stderr",
        category: "io",
    },
];

/// A function the purity pass roots at: `(crate, Self type or "", name)`.
pub type Root = (&'static str, &'static str, &'static str);

/// The R8 purity roots: one scheduling cycle and the driver's event loop.
/// Everything transitively callable from these must be a pure function of
/// simulation state — no wall clock, no IO, no entropy.
pub const PURITY_ROOTS: &[Root] = &[
    ("sched", "Scheduler", "cycle"),
    ("sched", "Scheduler", "cycle_observed"),
    ("core", "Simulator", "run"),
];

/// Input to [`CallGraph::build`]: one parsed library source file.
pub struct GraphSource {
    /// Repo-relative path.
    pub path: String,
    /// Crate directory name.
    pub krate: String,
    /// Parsed items.
    pub functions: Vec<FnItem>,
}

impl CallGraph {
    /// Build the graph from parsed files (test-masked fns are dropped).
    pub fn build(files: &[GraphSource]) -> CallGraph {
        let mut nodes: Vec<Node> = Vec::new();
        for f in files {
            for func in &f.functions {
                if func.is_test {
                    continue;
                }
                let id = match &func.self_ty {
                    Some(ty) => format!("{}::{}::{}", f.krate, ty, func.name),
                    None => format!("{}::{}", f.krate, func.name),
                };
                nodes.push(Node {
                    id,
                    krate: f.krate.clone(),
                    file: f.path.clone(),
                    line: func.line,
                    name: func.name.clone(),
                    self_ty: func.self_ty.clone(),
                    calls: Vec::new(),
                    impure: scan_impure(&func.body, func.body_line),
                });
            }
        }
        // Name-resolution indices.
        let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut typed: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, nd) in nodes.iter().enumerate() {
            match &nd.self_ty {
                Some(ty) => {
                    methods.entry(&nd.name).or_default().push(i);
                    typed.entry((ty.as_str(), &nd.name)).or_default().push(i);
                }
                None => free.entry(&nd.name).or_default().push(i),
            }
        }

        // Map (file, line-order) back to node indices to find each node's
        // body again: rebuild per-file in the same order as construction.
        let mut edges: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); nodes.len()];
        let mut cursor = 0usize;
        for f in files {
            for func in &f.functions {
                if func.is_test {
                    continue;
                }
                let me = cursor;
                cursor += 1;
                for call in call_sites(&func.body) {
                    let targets: Vec<usize> = match &call {
                        CallSite::SelfMethod(name) => match &nodes[me].self_ty {
                            Some(ty) => typed
                                .get(&(ty.as_str(), name.as_str()))
                                .cloned()
                                .unwrap_or_default(),
                            None => Vec::new(),
                        },
                        CallSite::TypedPath(ty, name) => typed
                            .get(&(ty.as_str(), name.as_str()))
                            .cloned()
                            .unwrap_or_default(),
                        CallSite::Method(name) => {
                            methods.get(name.as_str()).cloned().unwrap_or_default()
                        }
                        CallSite::ModPath(_, name) | CallSite::Bare(name) => {
                            let all = free.get(name.as_str()).cloned().unwrap_or_default();
                            // Bare calls prefer same-crate free functions;
                            // fall back to the workspace-wide set (paths
                            // like `backfill::plan` are cross-module but
                            // names are rare enough to stay precise).
                            let same: Vec<usize> = all
                                .iter()
                                .copied()
                                .filter(|&t| nodes[t].krate == nodes[me].krate)
                                .collect();
                            if matches!(&call, CallSite::Bare(_)) && !same.is_empty() {
                                same
                            } else {
                                all
                            }
                        }
                    };
                    for t in targets {
                        if t != me {
                            edges[me].insert(t);
                        }
                    }
                }
            }
        }
        for (i, e) in edges.into_iter().enumerate() {
            nodes[i].calls = e.into_iter().collect();
        }
        CallGraph { nodes }
    }

    /// Node indices matching a root spec.
    pub fn find_roots(&self, roots: &[Root]) -> Vec<usize> {
        let mut out = Vec::new();
        for (krate, ty, name) in roots {
            for (i, nd) in self.nodes.iter().enumerate() {
                let ty_ok = if ty.is_empty() {
                    nd.self_ty.is_none()
                } else {
                    nd.self_ty.as_deref() == Some(*ty)
                };
                if nd.krate == *krate && ty_ok && nd.name == *name {
                    out.push(i);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// BFS over call edges; returns `parent[i]` (usize::MAX for roots and
    /// unreachable nodes) and the reachable set.
    pub fn reach(&self, roots: &[usize]) -> (Vec<usize>, BTreeSet<usize>) {
        let mut parent = vec![usize::MAX; self.nodes.len()];
        let mut seen: BTreeSet<usize> = roots.iter().copied().collect();
        let mut queue: Vec<usize> = roots.to_vec();
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for &v in &self.nodes[u].calls {
                if seen.insert(v) {
                    parent[v] = u;
                    queue.push(v);
                }
            }
        }
        (parent, seen)
    }

    /// A human-readable call chain from some root to `target` using BFS
    /// parents: `sched::Scheduler::cycle → … → target`.
    pub fn chain(&self, parent: &[usize], target: usize) -> String {
        let mut ids = vec![self.nodes[target].id.clone()];
        let mut u = target;
        let mut guard = 0;
        while parent[u] != usize::MAX && guard < 64 {
            u = parent[u];
            ids.push(self.nodes[u].id.clone());
            guard += 1;
        }
        ids.reverse();
        ids.join(" → ")
    }

    /// Serialize the graph (with reachability/impurity annotations) as a
    /// deterministic JSON diagnostic artifact.
    pub fn to_json(&self, roots: &[usize], reachable: &BTreeSet<usize>) -> String {
        let mut out = String::from("{\"schema\":1,\"roots\":[");
        for (k, &r) in roots.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            push_json_str(&mut out, &self.nodes[r].id);
        }
        out.push_str("],\"functions\":[");
        for (i, nd) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"id\":");
            push_json_str(&mut out, &nd.id);
            out.push_str(",\"file\":");
            push_json_str(&mut out, &nd.file);
            let _ = std::fmt::Write::write_fmt(&mut out, format_args!(",\"line\":{}", nd.line));
            out.push_str(",\"reachable\":");
            out.push_str(if reachable.contains(&i) {
                "true"
            } else {
                "false"
            });
            out.push_str(",\"impure\":[");
            for (k, (tok, line, cat)) in nd.impure.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                out.push_str("{\"token\":");
                push_json_str(&mut out, tok);
                let _ = std::fmt::Write::write_fmt(
                    &mut out,
                    format_args!(",\"line\":{line},\"category\":\"{cat}\"}}"),
                );
            }
            out.push_str("],\"calls\":[");
            for (k, &t) in nd.calls.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                push_json_str(&mut out, &self.nodes[t].id);
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// Minimal JSON string escaping (mirrors `obs::json`, which simlint cannot
/// depend on without dragging sim crates into the linter's build graph).
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = std::fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One syntactic call site in a function body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CallSite {
    /// `self.name(…)`.
    SelfMethod(String),
    /// `recv.name(…)` with an unknown receiver.
    Method(String),
    /// `Type::name(…)` (first segment starts uppercase).
    TypedPath(String, String),
    /// `module::name(…)` (first segment starts lowercase).
    ModPath(String, String),
    /// `name(…)` with no qualifier.
    Bare(String),
}

/// Rust keywords and common constructors that look like calls but are not.
fn is_call_noise(name: &str) -> bool {
    matches!(
        name,
        "if" | "match"
            | "while"
            | "for"
            | "loop"
            | "return"
            | "fn"
            | "Some"
            | "Ok"
            | "Err"
            | "None"
            | "Box"
            | "Vec"
            | "move"
            | "as"
            | "in"
            | "let"
            | "else"
            | "assert"
            | "debug_assert"
    )
}

/// Extract call sites from a (cleaned) function body.
pub fn call_sites(body: &str) -> Vec<CallSite> {
    let b: Vec<char> = body.chars().collect();
    let n = b.len();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < n {
        let c = b[i];
        if !(c.is_alphabetic() || c == '_')
            || (i > 0 && (b[i - 1].is_alphanumeric() || b[i - 1] == '_'))
        {
            i += 1;
            continue;
        }
        let start = i;
        while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
            i += 1;
        }
        let name: String = b[start..i].iter().collect();
        // Optional turbofish `::<…>` between name and `(`.
        let mut j = i;
        if j + 2 < n && b[j] == ':' && b[j + 1] == ':' && b[j + 2] == '<' {
            let mut depth = 0i64;
            j += 2;
            while j < n {
                match b[j] {
                    '<' => depth += 1,
                    '>' => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // Skip whitespace before the paren (`name (` is legal).
        let mut k = j;
        while k < n && b[k] == ' ' {
            k += 1;
        }
        if k >= n || b[k] != '(' {
            continue;
        }
        if is_call_noise(&name) {
            continue;
        }
        // Qualifier: what immediately precedes `start`?
        if start >= 1 && b[start - 1] == '.' {
            // Receiver word before the dot.
            let mut r = start - 1;
            while r > 0 && (b[r - 1].is_alphanumeric() || b[r - 1] == '_') {
                r -= 1;
            }
            let recv: String = b[r..start - 1].iter().collect();
            if recv == "self" {
                out.push(CallSite::SelfMethod(name));
            } else {
                out.push(CallSite::Method(name));
            }
            continue;
        }
        if start >= 2 && b[start - 1] == ':' && b[start - 2] == ':' {
            // Path segment before `::` (skip a closing `>` of generics —
            // `Foo::<T>::new` was already consumed as turbofish above, but
            // `Vec<u8>::from` style paths are rare; treat `>` as opaque).
            let mut r = start - 2;
            while r > 0 && (b[r - 1].is_alphanumeric() || b[r - 1] == '_') {
                r -= 1;
            }
            let seg: String = b[r..start - 2].iter().collect();
            if seg.is_empty() {
                out.push(CallSite::Bare(name));
            } else if seg.chars().next().is_some_and(|c| c.is_uppercase()) {
                out.push(CallSite::TypedPath(seg, name));
            } else if seg == "self" || seg == "crate" || seg == "super" {
                out.push(CallSite::Bare(name));
            } else {
                out.push(CallSite::ModPath(seg, name));
            }
            continue;
        }
        if name.chars().next().is_some_and(|c| c.is_uppercase()) {
            // Tuple-struct / enum-variant constructor, not a call.
            continue;
        }
        out.push(CallSite::Bare(name));
    }
    out
}

/// Scan a (cleaned) body for impure tokens; `body_line` is the 1-based
/// source line of the body's opening brace.
fn scan_impure(body: &str, body_line: usize) -> Vec<(String, usize, &'static str)> {
    let mut out = Vec::new();
    for (off, line) in body.lines().enumerate() {
        for p in IMPURE_PATTERNS {
            // Token-boundary matching so `eprintln!` is not also reported
            // as `println!` and `Instant::now` never matches identifiers
            // it merely prefixes.
            if crate::rules::token_match(line, p.token) {
                out.push((p.token.to_string(), body_line + off, p.category));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items;
    use crate::lexer;

    fn graph_of(files: &[(&str, &str, &str)]) -> CallGraph {
        let srcs: Vec<GraphSource> = files
            .iter()
            .map(|(path, krate, src)| GraphSource {
                path: path.to_string(),
                krate: krate.to_string(),
                functions: items::parse(&lexer::analyze(src)).functions,
            })
            .collect();
        CallGraph::build(&srcs)
    }

    #[test]
    fn call_site_extraction_covers_the_forms() {
        let body = "self.order(); plan_on_profile(x); backfill::plan(a); \
                    Scheduler::pbs(); q.push(1); total.sum::<f64>(); Some(3)";
        let sites = call_sites(body);
        assert!(sites.contains(&CallSite::SelfMethod("order".into())));
        assert!(sites.contains(&CallSite::Bare("plan_on_profile".into())));
        assert!(sites.contains(&CallSite::ModPath("backfill".into(), "plan".into())));
        assert!(sites.contains(&CallSite::TypedPath("Scheduler".into(), "pbs".into())));
        assert!(sites.contains(&CallSite::Method("push".into())));
        assert!(sites.contains(&CallSite::Method("sum".into())));
        assert!(!sites
            .iter()
            .any(|s| matches!(s, CallSite::Bare(n) if n == "Some")));
    }

    #[test]
    fn cross_crate_reachability_and_purity() {
        let g = graph_of(&[
            (
                "crates/a/src/lib.rs",
                "a",
                "pub struct Scheduler;\nimpl Scheduler {\n  pub fn cycle(&self) { helper(); }\n}\nfn helper() { b_mod::leaf(); }\n",
            ),
            (
                "crates/b/src/lib.rs",
                "b",
                "pub fn leaf() { let t = Instant::now(); }\npub fn unrelated() {}\n",
            ),
        ]);
        let roots = g.find_roots(&[("a", "Scheduler", "cycle")]);
        assert_eq!(roots.len(), 1);
        let (parent, seen) = g.reach(&roots);
        let leaf = g.nodes.iter().position(|n| n.name == "leaf").unwrap();
        assert!(seen.contains(&leaf), "leaf reachable via helper");
        assert_eq!(g.nodes[leaf].impure.len(), 1);
        assert_eq!(g.nodes[leaf].impure[0].2, "wall-clock");
        let chain = g.chain(&parent, leaf);
        assert!(chain.starts_with("a::Scheduler::cycle"), "{chain}");
        assert!(chain.ends_with("b::leaf"), "{chain}");
        let unrelated = g.nodes.iter().position(|n| n.name == "unrelated").unwrap();
        assert!(!seen.contains(&unrelated));
    }

    #[test]
    fn self_method_resolution_is_type_scoped() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "a",
            "struct A; struct B;\nimpl A { fn go(&self) { self.step(); } fn step(&self) {} }\n\
             impl B { fn step(&self) { println!(\"x\"); } }\n",
        )]);
        let go = g.nodes.iter().position(|n| n.name == "go").unwrap();
        let a_step = g
            .nodes
            .iter()
            .position(|n| n.name == "step" && n.self_ty.as_deref() == Some("A"))
            .unwrap();
        assert_eq!(g.nodes[go].calls, vec![a_step], "B::step not linked");
    }

    #[test]
    fn test_functions_are_excluded() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "a",
            "fn lib() {}\n#[cfg(test)]\nmod tests { fn helper() {} }\n",
        )]);
        assert_eq!(g.nodes.len(), 1);
        assert_eq!(g.nodes[0].name, "lib");
    }

    #[test]
    fn graph_json_is_deterministic_and_annotated() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "a",
            "pub fn run() { leaf(); }\nfn leaf() { println!(\"io\"); }\n",
        )]);
        let roots = g.find_roots(&[("a", "", "run")]);
        let (_, seen) = g.reach(&roots);
        let j1 = g.to_json(&roots, &seen);
        let j2 = g.to_json(&roots, &seen);
        assert_eq!(j1, j2);
        assert!(
            j1.starts_with("{\"schema\":1,\"roots\":[\"a::run\"]"),
            "{j1}"
        );
        assert!(j1.contains("\"impure\":[{\"token\":\"println!\""), "{j1}");
        assert!(j1.contains("\"reachable\":true"));
    }

    #[test]
    fn impure_lines_are_mapped_to_source_lines() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "a",
            "fn f() {\n    let x = 1;\n    let t = SystemTime::now();\n}\n",
        )]);
        assert_eq!(
            g.nodes[0].impure,
            vec![("SystemTime::now".into(), 3, "wall-clock")]
        );
    }

    #[test]
    fn purity_roots_live_in_determinism_crates() {
        // The graph only covers determinism-crate library code, so a root
        // outside that scope could never resolve — catch the drift here
        // rather than as a silently-smaller reachable set.
        for (krate, ty, name) in PURITY_ROOTS {
            assert!(
                crate::rules::DETERMINISM_CRATES.contains(krate),
                "purity root {krate}::{ty}::{name} is outside the determinism scope"
            );
        }
    }
}
