//! CLI entry point: `cargo run -p simlint [lint] [--root PATH]
//! [--format text|json] [--deny-stale] [--emit-graph PATH]`.
//!
//! Exit codes: 0 = clean, 1 = violations found (or, under `--deny-stale`,
//! stale allowlist entries), 2 = internal error (unreadable files,
//! malformed simlint.toml).

use simlint::graph::push_json_str;
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    root: Option<PathBuf>,
    json: bool,
    deny_stale: bool,
    emit_graph: Option<PathBuf>,
}

fn main() -> ExitCode {
    let mut opts = Options {
        root: None,
        json: false,
        deny_stale: false,
        emit_graph: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            // `cargo xtask lint` forwards a `lint` subcommand; accept it.
            "lint" => {}
            "--root" => match args.next() {
                Some(p) => opts.root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("simlint: --root needs a path");
                    return ExitCode::from(2);
                }
            },
            "--format" => match args.next().as_deref() {
                Some("json") => opts.json = true,
                Some("text") => opts.json = false,
                other => {
                    eprintln!("simlint: --format needs `text` or `json`, got {other:?}");
                    return ExitCode::from(2);
                }
            },
            "--deny-stale" => opts.deny_stale = true,
            "--emit-graph" => match args.next() {
                Some(p) => opts.emit_graph = Some(PathBuf::from(p)),
                None => {
                    eprintln!("simlint: --emit-graph needs a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "simlint: static analysis for determinism & scheduler invariants\n\
                     usage: cargo run -p simlint [lint] [--root PATH] [--format text|json]\n\
                     \u{20}                          [--deny-stale] [--emit-graph PATH]\n\
                     rules: R1 hash collections in sim state, R2 wall-clock reads,\n\
                     \u{20}      R3 f64 time conversion outside simkit::time, R4 unwrap/expect,\n\
                     \u{20}      R5 shared-mutable-state hazards, R6 entropy-seeded RNG,\n\
                     \u{20}      R7 order-sensitive f64 accumulation, R8 hot-path purity\n\
                     \u{20}      (call-graph reachability from Scheduler::cycle / Simulator::run)\n\
                     flags: --format json     machine-readable diagnostics (schema 1)\n\
                     \u{20}      --deny-stale     stale simlint.toml entries fail the run\n\
                     \u{20}      --emit-graph P   write the annotated call graph to P\n\
                     allowlist: simlint.toml at the workspace root"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("simlint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    let root = opts.root.clone().unwrap_or_else(simlint::workspace_root);

    let report = match simlint::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simlint: error: {e}");
            return ExitCode::from(2);
        }
    };

    if report.files_scanned == 0 {
        // A clean verdict over zero files is a misconfiguration (wrong
        // --root, moved sources), not a pass.
        eprintln!(
            "simlint: error: no source files found under {}",
            root.display()
        );
        return ExitCode::from(2);
    }

    if let Some(path) = &opts.emit_graph {
        let json = report.graph.to_json(&report.roots, &report.reachable);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("simlint: error: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    let stale_fails = opts.deny_stale && !report.unused_allows.is_empty();
    let failed = !report.violations.is_empty() || stale_fails;

    if opts.json {
        println!("{}", diagnostics_json(&report, opts.deny_stale));
        return if failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    for a in &report.unused_allows {
        let verdict = if opts.deny_stale { "error" } else { "warning" };
        eprintln!(
            "simlint: {verdict}: stale allowlist entry ({} @ {} contains {:?}) — prune it",
            a.rule, a.path, a.contains
        );
    }
    for v in &report.violations {
        eprintln!("{v}");
    }
    if failed {
        eprintln!(
            "simlint: {} violation(s), {} stale allow(s) in {} files checked",
            report.violations.len(),
            report.unused_allows.len(),
            report.files_scanned
        );
        return ExitCode::FAILURE;
    }
    println!(
        "simlint: {} files checked, no violations ({} hot-path fns proven pure)",
        report.files_scanned,
        report.reachable.len()
    );
    ExitCode::SUCCESS
}

/// Schema-stable machine-readable diagnostics (schema 1): field order is
/// fixed, integers and strings only, violations sorted by (path, line,
/// rule) as produced by the linter.
fn diagnostics_json(report: &simlint::Report, deny_stale: bool) -> String {
    let mut out = String::from("{\"schema\":1");
    let _ = std::fmt::Write::write_fmt(
        &mut out,
        format_args!(",\"files_scanned\":{}", report.files_scanned),
    );
    out.push_str(",\"deny_stale\":");
    out.push_str(if deny_stale { "true" } else { "false" });
    out.push_str(",\"violations\":[");
    for (k, v) in report.violations.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        out.push_str("{\"rule\":");
        push_json_str(&mut out, v.rule);
        out.push_str(",\"path\":");
        push_json_str(&mut out, &v.path);
        let _ = std::fmt::Write::write_fmt(&mut out, format_args!(",\"line\":{}", v.line));
        out.push_str(",\"message\":");
        push_json_str(&mut out, &v.message);
        out.push_str(",\"excerpt\":");
        push_json_str(&mut out, &v.excerpt);
        out.push('}');
    }
    out.push_str("],\"unused_allows\":[");
    for (k, a) in report.unused_allows.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        out.push_str("{\"rule\":");
        push_json_str(&mut out, &a.rule);
        out.push_str(",\"path\":");
        push_json_str(&mut out, &a.path);
        out.push_str(",\"contains\":");
        push_json_str(&mut out, &a.contains);
        out.push('}');
    }
    out.push_str("],\"graph\":{");
    let _ = std::fmt::Write::write_fmt(
        &mut out,
        format_args!(
            "\"functions\":{},\"roots\":{},\"reachable\":{}",
            report.graph.nodes.len(),
            report.roots.len(),
            report.reachable.len()
        ),
    );
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The JSON diagnostics are an interface: CI artifacts and tooling
    /// parse them, so the schema marker, top-level key order and the
    /// per-violation key set are pinned here.
    #[test]
    fn diagnostics_json_schema_is_stable() {
        let report = simlint::lint_workspace(&simlint::workspace_root()).unwrap();
        let j = diagnostics_json(&report, true);
        assert!(j.starts_with("{\"schema\":1,\"files_scanned\":"), "{j}");
        for key in [
            "\"deny_stale\":true",
            "\"violations\":[",
            "\"unused_allows\":[",
            "\"graph\":{\"functions\":",
            "\"roots\":",
            "\"reachable\":",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        assert!(j.ends_with("}}"), "{j}");
        // Deterministic: same report, same bytes.
        assert_eq!(j, diagnostics_json(&report, true));
    }
}
