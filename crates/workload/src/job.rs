//! The job model shared across the workspace.

use simkit::time::{SimDuration, SimTime};

/// Simulation-wide job identifier.
pub type JobId = u64;

/// Whether a job belongs to the machine's native workload or to an
/// interstitial project. The distinction — absent from load-analysis and
/// resource-discovery work, as the paper's §2 points out — is the heart of
/// interstitial computing: native jobs must see (almost) no impact.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum JobClass {
    /// A job from the machine's own log (or synthetic equivalent).
    Native,
    /// A low-priority interstitial job.
    Interstitial,
}

impl JobClass {
    /// True for [`JobClass::Interstitial`].
    pub fn is_interstitial(self) -> bool {
        matches!(self, JobClass::Interstitial)
    }
}

/// A job as submitted: everything the scheduler may know, plus the actual
/// runtime only the simulator knows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Job {
    /// Unique id within a trace/simulation.
    pub id: JobId,
    /// Native or interstitial.
    pub class: JobClass,
    /// Submitting user (index into the user population).
    pub user: u32,
    /// Accounting group of the user.
    pub group: u32,
    /// Submission instant.
    pub submit: SimTime,
    /// CPUs required (fixed for the job's whole life — §1's bin-packing
    /// constraint).
    pub cpus: u32,
    /// Actual runtime. Hidden from the scheduler.
    pub runtime: SimDuration,
    /// User-supplied runtime estimate — the only runtime information the
    /// queueing algorithm gets (§3), and typically a gross overestimate.
    pub estimate: SimDuration,
}

impl Job {
    /// The estimate the scheduler should plan with: never below 1 s so a job
    /// always occupies a schedulable slot.
    pub fn planning_estimate(&self) -> SimDuration {
        SimDuration::from_secs(self.estimate.as_secs().max(1))
    }

    /// CPU·seconds of actual work — the "job size" metric of Figure 6.
    pub fn cpu_seconds(&self) -> f64 {
        self.cpus as f64 * self.runtime.as_secs_f64()
    }

    /// By how much the user over-estimated, as a ratio (≥ 0).
    pub fn estimate_inflation(&self) -> f64 {
        if self.runtime.is_zero() {
            return 0.0;
        }
        self.estimate.as_secs_f64() / self.runtime.as_secs_f64()
    }
}

/// A finished job with its realized schedule — one row of the simulator's
/// output log ("the job log returned from the BIRMinator simulations
/// included the size of the job and its submit, start, and finish times").
#[derive(Clone, Copy, Debug)]
pub struct CompletedJob {
    /// The job as submitted.
    pub job: Job,
    /// When it started executing.
    pub start: SimTime,
    /// When it finished (`start + job.runtime`).
    pub finish: SimTime,
}

impl CompletedJob {
    /// Construct, checking internal consistency.
    pub fn new(job: Job, start: SimTime) -> Self {
        debug_assert!(start >= job.submit, "job started before submission");
        CompletedJob {
            job,
            start,
            finish: start + job.runtime,
        }
    }

    /// Construct with an explicit finish instant — for jobs whose wallclock
    /// exceeds their nominal runtime (e.g. checkpointed interstitial jobs
    /// resumed after a suspension).
    pub fn with_finish(job: Job, start: SimTime, finish: SimTime) -> Self {
        debug_assert!(start >= job.submit);
        debug_assert!(
            finish >= start + job.runtime,
            "finish before work completed"
        );
        CompletedJob { job, start, finish }
    }

    /// Queue wait: start − submit.
    pub fn wait(&self) -> SimDuration {
        self.start - self.job.submit
    }

    /// Expansion factor `EF = 1 + wait / runtime` (§4.3.1, Table 5).
    /// A job with zero runtime contributes `1` if it never waited, else ∞ is
    /// clamped to a large sentinel to keep aggregates finite.
    pub fn expansion_factor(&self) -> f64 {
        let run = self.job.runtime.as_secs_f64();
        let wait = self.wait().as_secs_f64();
        if run > 0.0 {
            1.0 + wait / run
        } else if wait == 0.0 {
            1.0
        } else {
            f64::MAX
        }
    }

    /// Turnaround (response) time: finish − submit.
    pub fn turnaround(&self) -> SimDuration {
        self.finish - self.job.submit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(cpus: u32, runtime: u64, estimate: u64) -> Job {
        Job {
            id: 1,
            class: JobClass::Native,
            user: 0,
            group: 0,
            submit: SimTime::from_secs(100),
            cpus,
            runtime: SimDuration::from_secs(runtime),
            estimate: SimDuration::from_secs(estimate),
        }
    }

    #[test]
    fn class_flags() {
        assert!(JobClass::Interstitial.is_interstitial());
        assert!(!JobClass::Native.is_interstitial());
    }

    #[test]
    fn planning_estimate_floor() {
        assert_eq!(job(1, 10, 0).planning_estimate(), SimDuration::from_secs(1));
        assert_eq!(
            job(1, 10, 50).planning_estimate(),
            SimDuration::from_secs(50)
        );
    }

    #[test]
    fn cpu_seconds_and_inflation() {
        let j = job(32, 100, 600);
        assert_eq!(j.cpu_seconds(), 3200.0);
        assert!((j.estimate_inflation() - 6.0).abs() < 1e-12);
        assert_eq!(job(1, 0, 100).estimate_inflation(), 0.0);
    }

    #[test]
    fn completed_job_derived_metrics() {
        let j = job(4, 200, 600);
        let c = CompletedJob::new(j, SimTime::from_secs(150));
        assert_eq!(c.wait(), SimDuration::from_secs(50));
        assert_eq!(c.finish, SimTime::from_secs(350));
        assert_eq!(c.turnaround(), SimDuration::from_secs(250));
        assert!((c.expansion_factor() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn zero_wait_expansion_factor_is_one() {
        let j = job(4, 200, 600);
        let c = CompletedJob::new(j, SimTime::from_secs(100));
        assert_eq!(c.wait(), SimDuration::ZERO);
        assert!((c.expansion_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_runtime_expansion_factor_edge_cases() {
        let j = job(1, 0, 10);
        let instant = CompletedJob::new(j, SimTime::from_secs(100));
        assert_eq!(instant.expansion_factor(), 1.0);
        let waited = CompletedJob::new(j, SimTime::from_secs(200));
        assert_eq!(waited.expansion_factor(), f64::MAX);
    }
}
