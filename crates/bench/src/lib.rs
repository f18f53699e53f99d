//! # bench — experiment harness
//!
//! One regenerator per table and figure of the paper, plus the ablation
//! studies DESIGN.md calls out, each a function in [`experiments`].
//! `bin/all_experiments` runs the whole suite and rewrites `EXPERIMENTS.md`,
//! or prints the one experiment named on its command line.
//!
//! [`Lab`] caches the expensive shared inputs (native baselines, continual
//! runs) so the full suite reuses rather than recomputes them, and pins
//! every seed so the suite is deterministic end to end.

#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod lab;
pub mod paper;
pub mod perf;

pub use lab::Lab;

/// A rendered experiment: an id like "table2", a paper reference, and the
/// regenerated body (text tables / ASCII figures / notes).
#[derive(Clone, Debug)]
pub struct Experiment {
    /// Short id: `table1` … `figure6`, `ablation_*`.
    pub id: &'static str,
    /// Human title as the paper labels it.
    pub title: &'static str,
    /// Regenerated content (plain text; Markdown-safe).
    pub body: String,
}

impl Experiment {
    /// Render as a Markdown section.
    pub fn to_markdown(&self) -> String {
        format!(
            "## {} — {}\n\n```text\n{}\n```\n",
            self.id,
            self.title,
            self.body.trim_end()
        )
    }
}
