//! simlint — workspace-wide static analysis enforcing the determinism and
//! scheduler invariants this simulator depends on.
//!
//! Eight rule families (see DESIGN.md "Determinism & invariants" for the
//! full rationale):
//!
//! * **R1** — no `HashMap`/`HashSet` in simulation crates: random iteration
//!   order breaks bit-for-bit replay.
//! * **R2** — no wall-clock reads (`SystemTime::now`, `Instant::now`,
//!   `thread_rng`) outside `crates/bench`.
//! * **R3** — no `from_secs_f64` time conversion outside `simkit::time`.
//! * **R4** — no `unwrap()`/`expect()` in library-crate non-test code.
//! * **R5** — no shared-mutable-state hazards (`static mut`, `RefCell`/
//!   `Cell`/`Rc`, `unsafe`) in simulation crates: `!Send`/`!Sync` state
//!   blocks the parallel fleet fan-out.
//! * **R6** — RNG discipline: no entropy-seeded generator construction
//!   (`from_entropy`, `OsRng`, `RandomState`, …) anywhere; entropy enters
//!   only as the explicit `u64` seed.
//! * **R7** — no order-sensitive f64 accumulation (`.sum::<f64>()`,
//!   `fold(0.0`) in sim crates: parallel ensemble merges reorder partial
//!   sums.
//! * **R8** — semantic purity: every function reachable from
//!   `Scheduler::cycle` or the driver loop `Simulator::run` (over an
//!   approximate item-level call graph, see [`graph`]) must be free of
//!   wall-clock, IO and entropy calls.
//!
//! Binaries (`crates/*/src/bin`) and the `examples/` tree are scanned
//! under a relaxed rule set (R1/R5 only). Audited exceptions live in
//! `simlint.toml` at the repo root; every entry must state a reason. Run
//! as `cargo run -p simlint` (or `cargo xtask lint`); add `--format json`
//! for machine-readable diagnostics, `--deny-stale` to fail on unused
//! allowlist entries, and `--emit-graph PATH` for the call-graph artifact.

pub mod allow;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod rules;

pub use allow::Allow;
pub use rules::{classify, lint_source, FileClass, Violation};

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// One workspace source file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SourceFile {
    /// Repo-relative forward-slash path.
    pub path: String,
    /// How the rules treat it.
    pub class: FileClass,
}

/// The outcome of linting a workspace.
pub struct Report {
    /// Violations not covered by the allowlist, sorted by path then line.
    pub violations: Vec<Violation>,
    /// Allowlist entries that suppressed nothing (stale — worth pruning).
    pub unused_allows: Vec<Allow>,
    /// Number of source files scanned.
    pub files_scanned: usize,
    /// The workspace call graph over determinism-crate library code.
    pub graph: graph::CallGraph,
    /// Node indices of the R8 purity roots found in the graph.
    pub roots: Vec<usize>,
    /// Node indices reachable from the roots.
    pub reachable: BTreeSet<usize>,
}

/// Locate the workspace root from the simlint crate's own manifest dir.
pub fn workspace_root() -> PathBuf {
    let manifest = env!("CARGO_MANIFEST_DIR");
    Path::new(manifest)
        .ancestors()
        .nth(2)
        .unwrap_or_else(|| Path::new("."))
        .to_path_buf()
}

/// All `.rs` files under `crates/*/src` (including `src/bin`), the root
/// `src/`, and the root `examples/` tree, sorted by path, each classified
/// per [`rules::classify`]. `tests/` and `benches/` directories remain out
/// of scope: they are test code.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for member in members {
            walk_rs(&member.join("src"), root, &mut paths)?;
        }
    }
    walk_rs(&root.join("src"), root, &mut paths)?;
    walk_rs(&root.join("examples"), root, &mut paths)?;
    paths.sort();
    Ok(paths
        .into_iter()
        .map(|path| {
            let class = rules::classify(&path);
            SourceFile { path, class }
        })
        .collect())
}

fn walk_rs(dir: &Path, root: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Lint every workspace source file, applying the `simlint.toml` allowlist
/// if present at `root`. Runs the per-line rules (R1–R7) per file, then
/// the R8 purity pass over the cross-crate call graph.
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    let allow_path = root.join("simlint.toml");
    let allows = if allow_path.is_file() {
        let text = std::fs::read_to_string(&allow_path)
            .map_err(|e| format!("reading {}: {e}", allow_path.display()))?;
        allow::parse(&text)?
    } else {
        Vec::new()
    };

    let files = collect_sources(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    let mut raw_violations = Vec::new();
    let mut graph_sources = Vec::new();
    // Original source lines of graph files, for R8 excerpts.
    let mut source_lines: std::collections::BTreeMap<String, Vec<String>> =
        std::collections::BTreeMap::new();
    for f in &files {
        let src = std::fs::read_to_string(root.join(&f.path))
            .map_err(|e| format!("reading {}: {e}", f.path))?;
        raw_violations.extend(rules::lint_source(&f.path, &src));
        // The purity graph covers determinism-crate library code only:
        // that is where the driver/scheduler hot path lives.
        let krate = rules::crate_of(&f.path);
        if f.class == FileClass::Lib && rules::DETERMINISM_CRATES.contains(&krate) {
            let cleaned = lexer::analyze(&src);
            graph_sources.push(graph::GraphSource {
                path: f.path.clone(),
                krate: krate.to_string(),
                functions: items::parse(&cleaned).functions,
            });
            source_lines.insert(f.path.clone(), src.lines().map(str::to_string).collect());
        }
    }

    // R8 — semantic purity over the call graph.
    let g = graph::CallGraph::build(&graph_sources);
    let roots = g.find_roots(graph::PURITY_ROOTS);
    let (parent, reachable) = g.reach(&roots);
    for &i in &reachable {
        let nd = &g.nodes[i];
        for (token, line, category) in &nd.impure {
            let excerpt = source_lines
                .get(&nd.file)
                .and_then(|lines| lines.get(line.saturating_sub(1)))
                .map(|l| l.trim().to_string())
                .unwrap_or_default();
            raw_violations.push(Violation {
                rule: "R8",
                path: nd.file.clone(),
                line: *line,
                message: format!(
                    "impure {category} call ({token}) on the deterministic hot path: \
                     {} — every function reachable from the driver/scheduler loop \
                     must be a pure function of simulation state",
                    g.chain(&parent, i)
                ),
                excerpt,
            });
        }
    }
    raw_violations
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));

    let mut violations = Vec::new();
    let mut used = vec![false; allows.len()];
    for v in raw_violations {
        let suppressed = allows.iter().enumerate().any(|(i, a)| {
            let hit = a.rule == v.rule && a.path == v.path && v.excerpt.contains(&a.contains);
            if hit {
                used[i] = true;
            }
            hit
        });
        if !suppressed {
            violations.push(v);
        }
    }
    let unused_allows = allows
        .into_iter()
        .zip(used)
        .filter(|(_, u)| !u)
        .map(|(a, _)| a)
        .collect();
    Ok(Report {
        violations,
        unused_allows,
        files_scanned: files.len(),
        graph: g,
        roots,
        reachable,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_contains_manifest() {
        let root = workspace_root();
        assert!(root.join("Cargo.toml").is_file(), "{}", root.display());
        assert!(root.join("crates").is_dir());
    }

    #[test]
    fn collects_own_sources() {
        let root = workspace_root();
        let files = collect_sources(&root).unwrap();
        let path_of = |p: &str| files.iter().find(|f| f.path == p);
        assert!(path_of("crates/simlint/src/lib.rs").is_some());
        assert!(path_of("crates/sched/src/scheduler.rs").is_some());
        // Integration tests are out of scope.
        assert!(files.iter().all(|f| !f.path.contains("/tests/")));
        // Deterministic order.
        let mut sorted = files.clone();
        sorted.sort_by(|a, b| a.path.cmp(&b.path));
        assert_eq!(files, sorted);
    }

    #[test]
    fn binaries_and_examples_are_scanned_with_relaxed_class() {
        let root = workspace_root();
        let files = collect_sources(&root).unwrap();
        let perf = files
            .iter()
            .find(|f| f.path == "crates/bench/src/bin/perf.rs")
            .expect("bench binaries are in scope");
        assert_eq!(perf.class, FileClass::Bin);
        let ex = files
            .iter()
            .find(|f| f.path == "examples/quickstart.rs")
            .expect("examples are in scope");
        assert_eq!(ex.class, FileClass::Example);
        let lib = files
            .iter()
            .find(|f| f.path == "crates/sched/src/scheduler.rs")
            .unwrap();
        assert_eq!(lib.class, FileClass::Lib);
    }

    /// The tentpole acceptance check: the real workspace lints clean with
    /// the committed allowlist, and the allowlist carries no dead entries.
    #[test]
    fn workspace_is_clean() {
        let report = lint_workspace(&workspace_root()).unwrap();
        assert!(
            report.violations.is_empty(),
            "workspace has lint violations:\n{}",
            report
                .violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(
            report.unused_allows.is_empty(),
            "stale simlint.toml entries: {:?}",
            report.unused_allows
        );
        assert!(report.files_scanned > 50, "suspiciously few files scanned");
    }

    /// The R8 pass is only meaningful if the roots actually resolve and
    /// pull in a substantial slice of the driver/scheduler hot path.
    #[test]
    fn purity_roots_resolve_and_reach_the_hot_path() {
        let report = lint_workspace(&workspace_root()).unwrap();
        let roots: Vec<&str> = report
            .roots
            .iter()
            .map(|&r| report.graph.nodes[r].id.as_str())
            .collect();
        assert_eq!(
            roots,
            [
                "core::Simulator::run",
                "sched::Scheduler::cycle",
                "sched::Scheduler::cycle_observed"
            ],
            "every purity root must resolve, and only to itself"
        );
        assert!(
            report.reachable.len() >= 20,
            "suspiciously small reachable set ({}): did call resolution break?",
            report.reachable.len()
        );
        // The hot path crosses crates: sched planning and machine state
        // must both be in the reachable set.
        let crates_reached: std::collections::BTreeSet<&str> = report
            .reachable
            .iter()
            .map(|&i| report.graph.nodes[i].krate.as_str())
            .collect();
        for k in ["sched", "machine", "simkit"] {
            assert!(
                crates_reached.contains(k),
                "{k} not reached: {crates_reached:?}"
            );
        }
    }
}
