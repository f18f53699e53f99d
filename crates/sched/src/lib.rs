//! # sched — queueing-system personalities
//!
//! Reimplements, as policy skeletons, the three production schedulers the
//! paper's machines ran (Table 1): PBS on Ross, LSF on Blue Mountain and
//! DPCS on Blue Pacific. Each is assembled from orthogonal pieces:
//!
//! * [`fairshare`] — decayed CPU-time accounting per user and group; the
//!   source of the *dynamic reprioritization* that lets delays cascade
//!   (§4.3.2.1).
//! * [`priority`] — queue-ordering policies: FCFS, flat user fair share
//!   (Ross: "all users have equal shares"), hierarchical group fair share
//!   (Blue Mountain), combined user+group fair share (Blue Pacific).
//! * [`window`] — time-of-day dispatch constraints (Blue Pacific).
//! * [`backfill`] — the dispatch planner: EASY, conservative, and the
//!   restrictive variant the paper attributes to Ross ("the criteria by
//!   which backfilling takes place is more restrictive").
//! * [`scheduler`] — [`Scheduler`], the queue the simulation driver talks
//!   to, with its three settings (priority policy, backfill flavor and
//!   dispatch window; nothing else differs between the personalities) and
//!   per-machine constructors. Each cycle orders the queue in place and
//!   plans on it against the running set's indexed free-capacity view.
//! * [`invariants`] — runtime checks behind the `check-invariants` feature:
//!   CPU conservation, meta-backfill no-delay, and planner equivalence (the
//!   indexed plan equals the naive [`backfill::plan`] reference).

//!
//! ```
//! use sched::Scheduler;
//! use machine::RunningSet;
//! use simkit::SimTime;
//!
//! let mut lsf = Scheduler::lsf();
//! # use workload::{Job, JobClass};
//! # use simkit::SimDuration;
//! lsf.submit(Job {
//!     id: 1, class: JobClass::Native, user: 0, group: 0,
//!     submit: SimTime::ZERO, cpus: 16,
//!     runtime: SimDuration::from_hours(1), estimate: SimDuration::from_hours(2),
//! });
//! let starts = lsf.cycle(SimTime::ZERO, 64, &RunningSet::new(), true);
//! assert_eq!(starts.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod backfill;
pub mod fairshare;
pub mod invariants;
pub mod priority;
pub mod scheduler;
pub mod window;

pub use backfill::{BackfillPolicy, CapacityProfile, DispatchPlan, Reservation};
pub use priority::PriorityPolicy;
pub use scheduler::{Counters, Scheduler};
pub use window::DispatchWindow;
