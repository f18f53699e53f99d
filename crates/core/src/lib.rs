//! # interstitial — utilizing spare cycles on supercomputers
//!
//! Core library of the reproduction of Kleban & Clearwater, *"Interstitial
//! Computing: Utilizing Spare Cycles on Supercomputers"* (IEEE CLUSTER
//! 2003).
//!
//! Interstitial computing fills the utilization gaps of a space-shared,
//! non-preemptive supercomputer with a stream of many small, identical,
//! bottom-priority jobs (a parameter sweep, say) while bounding the impact
//! on the machine's native workload. The submission rule is the paper's
//! Figure 1: after every native job that can run (head-of-queue or
//! backfill) has been dispatched,
//!
//! ```text
//! nInterstitialJobs = floor(nodesAvailable / interstitialJobSize);
//! if (jobsInQueue == 0)                      submit(nInterstitialJobs);
//! else if (backFillWallTime > interstitialRuntime)
//!                                            submit(nInterstitialJobs);
//! ```
//!
//! Modules:
//! * [`project`] — [`InterstitialProject`]: job count × CPUs/job × runtime
//!   (specified in seconds at 1 GHz), measured in peta-cycles.
//! * [`policy`] — submission knobs: continual vs. fixed project, optional
//!   utilization cap (§4.3.2.2).
//! * [`driver`] — the discrete-event simulator (our BIRMinator): native log
//!   replay through a `sched` personality plus interstitial submission.
//! * [`omniscient`] — §4.1's perfect-knowledge packing: interstitial jobs
//!   placed into the native-only free-capacity profile, provably without
//!   effect on native jobs.
//! * [`experiment`] — replication harness: random-start sampling, the
//!   continual-run window-extraction method of §4.3.1, parallel fan-out.
//! * [`theory`] — §4.2's closed-form makespan and breakage-in-space
//!   corrections.
//! * [`report`] — [`SimOutput`] and free-capacity profile construction.
//! * [`advisor`] — the §5 guidelines as an executable advisory report.
//! * [`sweep`] — empirical job-shape sweeps (the advisor's measured
//!   counterpart).
//!
//! ## Quick start
//!
//! ```
//! use interstitial::prelude::*;
//!
//! let machine = machine::config::blue_mountain();
//! let natives = workload::traces::native_trace(&machine, 42);
//! let project = InterstitialProject::per_paper(2_000, 32, 120.0);
//! let sim = SimBuilder::new(machine)
//!     .natives(natives)
//!     .interstitial(project, InterstitialMode::Continual, InterstitialPolicy::default())
//!     .build();
//! let out = sim.run();
//! assert!(out.interstitial_completed() > 0);
//! ```

#![warn(missing_docs)]

pub mod advisor;
pub mod driver;
pub mod experiment;
pub mod omniscient;
pub mod policy;
pub mod project;
pub mod report;
pub mod sweep;
pub mod theory;

pub use driver::{SimBuilder, Simulator};
pub use policy::{InterstitialMode, InterstitialPolicy, RetryPolicy};
pub use project::InterstitialProject;
pub use report::SimOutput;

/// Convenient glob import for examples and tests.
pub mod prelude {
    pub use crate::driver::{SimBuilder, Simulator};
    pub use crate::policy::{InterstitialMode, InterstitialPolicy, RetryPolicy};
    pub use crate::project::InterstitialProject;
    pub use crate::report::SimOutput;
}
