//! # machine — supercomputer hardware model
//!
//! Models the machines the paper simulates: a fixed pool of identical CPUs
//! (space-shared, non-preemptive allocation), a clock speed used to normalize
//! interstitial job runtimes across machines, and scheduled outage windows.
//!
//! * [`config`] — [`MachineConfig`] plus the three ASCI presets of Table 1
//!   (Ross, Blue Mountain, Blue Pacific).
//! * [`pool`] — [`CpuPool`], checked allocate/release accounting.
//! * [`running`] — [`RunningSet`], the set of executing jobs with actual and
//!   estimated completion times; projects the free-capacity profile that
//!   backfill plans on.
//! * [`profile`] — [`EndIndex`]/[`IndexedFreeProfile`], the incrementally
//!   maintained end-time index behind `RunningSet`'s O(√n) capacity queries.
//! * [`outage`] — [`OutageSchedule`], full-machine downtime windows.
//! * [`fault`] — [`FaultModel`], outages plus per-node failure/repair
//!   processes yielding a time-varying capacity timeline.

//!
//! ```
//! use machine::config::blue_mountain;
//!
//! let bm = blue_mountain();
//! assert_eq!(bm.cpus, 4662);
//! // Runtime normalization: 120 s at 1 GHz takes 458 s at 262 MHz.
//! assert_eq!(bm.normalize_runtime(120.0).as_secs(), 458);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod fault;
pub mod outage;
pub mod pool;
pub mod profile;
pub mod running;

pub use config::{MachineConfig, QueueSystem};
pub use fault::{CpuLedger, FaultModel, FaultSpec, FaultStats, KilledJob, NodeFaults};
pub use outage::OutageSchedule;
pub use pool::CpuPool;
pub use profile::{EndIndex, IndexedFreeProfile};
pub use running::{RunningJob, RunningSet};
