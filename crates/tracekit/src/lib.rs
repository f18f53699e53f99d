//! # tracekit — streaming trace analytics and causal wait attribution
//!
//! Readers and analyzers for the `obs` JSONL trace schema (see
//! `crates/obs/SCHEMA.md`), built for traces too large to hold in memory:
//!
//! * [`reader`] — pull-based [`reader::TraceReader`] over any `BufRead`:
//!   decodes each line with `obs::event::parse_line`, validates the
//!   `{"schema":1}` header, hard-errors on unknown versions, recovers
//!   from corrupt lines (counted + sampled).
//! * [`lifecycle`] — [`lifecycle::Occupancy`], the shared submit → start
//!   → finish/preempt state machine; memory proportional to *live* jobs,
//!   never trace length.
//! * [`attribution`] — causal wait attribution: each native job's queue
//!   wait partitioned *exactly* into machine-saturated, interstitial-
//!   interference, fair-share-held and backfill-window intervals.
//! * [`summary`] — single-pass counters, occupancy integrals and P²
//!   percentiles (the [`obs::p2`] estimators, Jain & Chlamtac) behind
//!   `interstitial trace summarize`.
//! * [`timeline`] — `StepFunction`-backed occupancy/free profiles, ASCII
//!   heatmap and interstice census (reusing `analysis::interstices`).
//! * [`diff`] — align a native-only baseline trace with a
//!   with-interstitial trace from the same seed and report per-job wait
//!   deltas plus Table-5 panels computed by the simulator's own
//!   aggregation code.
//!
//! The crate never buffers the event stream: every analyzer is a fold
//! with `observe(&TraceEvent)` / `finish()`, so `summarize` holds peak
//! memory proportional to queue depth even on multi-million-line traces.

#![warn(missing_docs)]

pub mod attribution;
pub mod diff;
pub mod lifecycle;
pub mod reader;
pub mod summary;
pub mod timeline;

pub use attribution::{AttributionReport, Attributor, JobWait, WaitCategory, CATEGORIES};
pub use diff::{diff, JobDelta, OutcomeCollector, Outcomes, TraceDiff};
pub use lifecycle::{Occupancy, Transition};
pub use reader::{open_path, read_all, ReadStats, TraceError, TraceMeta, TraceReader};
pub use summary::{Summarizer, TraceSummary};
pub use timeline::{Timeline, TimelineBuilder};
