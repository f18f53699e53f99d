//! # bench — experiment harness
//!
//! One regenerator per table and figure of the paper, plus the ablation
//! studies DESIGN.md calls out, each a function in [`experiments`] and an
//! entry of [`experiments::REGISTRY`], the one list of `(id, title,
//! function)`. `bin/all_experiments` runs the registry in order and rewrites
//! `EXPERIMENTS.md`, or runs only the one experiment named on its command
//! line.
//!
//! [`Lab`] builds the expensive shared inputs (native baselines, continual
//! runs, the Table 2 grid) on first use, so the full suite reuses rather
//! than recomputes them and an experiment run alone computes only what it
//! reads. It pins every seed, so the suite is deterministic end to end.

#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod lab;
pub mod paper;
pub mod perf;

pub use lab::Lab;
