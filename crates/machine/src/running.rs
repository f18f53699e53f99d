//! The set of currently executing jobs.
//!
//! Besides plain membership, this answers the one question every backfill
//! scheduler (and the interstitial submitter) asks: how many CPUs are
//! projected free over time, given the running jobs' *estimated* ends? The
//! planner reads it through [`RunningSet::indexed_profile`], a view over an
//! incrementally maintained end-time index; [`RunningSet::free_profile`]
//! rebuilds the same answer as a [`StepFunction`] and is the reference the
//! index is checked against. The queue head's reservation instant — the
//! paper's `backFillWallTime` — is the first slot on this profile where its
//! request fits.
//!
//! User estimates grossly overrun actual runtimes (§3), so the profile is
//! systematically pessimistic under estimate-based scheduling — which is
//! exactly the effect the paper studies.

use crate::profile::{EndIndex, IndexedFreeProfile};
use simkit::series::StepFunction;
use simkit::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Identifier of a job within a simulation run.
pub type JobId = u64;

/// A job currently occupying CPUs.
#[derive(Clone, Copy, Debug)]
pub struct RunningJob {
    /// Simulation-wide job id.
    pub id: JobId,
    /// CPUs held.
    pub cpus: u32,
    /// Instant the job started.
    pub start: SimTime,
    /// Instant the job will actually finish (known to the simulator, not to
    /// the scheduler).
    pub actual_end: SimTime,
    /// Instant the scheduler believes the job will finish (start + user
    /// estimate). Never earlier than `start`.
    pub estimated_end: SimTime,
    /// True for interstitial jobs, false for native jobs.
    pub interstitial: bool,
}

/// The set of executing jobs, indexed by id.
///
/// Backed by a `BTreeMap` so iteration is in ascending job-id order — the
/// free-profile scan below feeds scheduling decisions, and
/// a nondeterministic visit order would make replays diverge (simlint R1).
#[derive(Clone, Debug, Default)]
pub struct RunningSet {
    jobs: BTreeMap<JobId, RunningJob>,
    cpus_in_use: u32,
    /// Sorted index of the jobs' raw estimated end times, maintained on
    /// every insert/remove so [`indexed_profile`](RunningSet::indexed_profile)
    /// answers capacity queries in O(√n) instead of the O(n) rebuild of
    /// [`free_profile`](RunningSet::free_profile).
    end_index: EndIndex,
}

impl RunningSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of running jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True if nothing is running.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Total CPUs held by running jobs.
    pub fn cpus_in_use(&self) -> u32 {
        self.cpus_in_use
    }

    /// CPUs held by running *native* jobs only.
    pub fn native_cpus_in_use(&self) -> u32 {
        self.jobs
            .values()
            .filter(|j| !j.interstitial)
            .map(|j| j.cpus)
            .sum()
    }

    /// Insert a newly started job. Panics on duplicate ids (simulator bug).
    pub fn insert(&mut self, job: RunningJob) {
        debug_assert!(job.estimated_end >= job.start);
        debug_assert!(job.actual_end >= job.start);
        self.cpus_in_use += job.cpus;
        self.end_index.insert(job.estimated_end.as_secs(), job.cpus);
        let dup = self.jobs.insert(job.id, job);
        assert!(dup.is_none(), "job {} inserted twice", job.id);
    }

    /// Remove a finished job, returning it. Panics if absent.
    pub fn remove(&mut self, id: JobId) -> RunningJob {
        let job = match self.jobs.remove(&id) {
            Some(j) => j,
            None => panic!("job {id} finished but was not running"),
        };
        self.cpus_in_use -= job.cpus;
        self.end_index.remove(job.estimated_end.as_secs(), job.cpus);
        job
    }

    /// Look up a running job.
    pub fn get(&self, id: JobId) -> Option<&RunningJob> {
        self.jobs.get(&id)
    }

    /// Iterate over running jobs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = &RunningJob> {
        self.jobs.values()
    }

    /// Projected free-CPU profile on `[now, horizon)`: starts at `free_now`
    /// and steps up at each running job's effective estimated end. The
    /// profile is what conservative backfill scans and what the interstitial
    /// submitter uses to guarantee it cannot push back the queue head.
    ///
    /// A job already past its estimate is projected to end at `now + 1` —
    /// strictly in the future — so the profile's value *at* `now` always
    /// equals the actual free count and a dispatcher can never be sold CPUs
    /// that are still occupied.
    pub fn free_profile(&self, now: SimTime, free_now: u32, horizon: SimTime) -> StepFunction {
        assert!(horizon > now, "profile horizon must exceed now");
        let next = now + SimDuration::from_secs(1);
        let mut f = StepFunction::constant(horizon, free_now as i64);
        for j in self.jobs.values() {
            let end = j.estimated_end.max(next);
            if end < horizon {
                f.range_add(end, horizon, j.cpus as i64);
            }
        }
        f
    }

    /// Indexed equivalent of [`free_profile`](RunningSet::free_profile):
    /// a query view over the incrementally-maintained end-time index,
    /// answering the same `value_at`/`min_over`/`find_slot` questions with
    /// identical results (see `crates/machine/src/profile.rs`) without
    /// rebuilding a [`StepFunction`] from every running job.
    pub fn indexed_profile(
        &self,
        now: SimTime,
        free_now: u32,
        horizon: SimTime,
    ) -> IndexedFreeProfile<'_> {
        IndexedFreeProfile::new(&self.end_index, now, free_now, horizon)
    }

    /// Direct access to the end-time index (tests and diagnostics).
    pub fn end_index(&self) -> &EndIndex {
        &self.end_index
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn job(id: JobId, cpus: u32, start: u64, actual_end: u64, est_end: u64) -> RunningJob {
        RunningJob {
            id,
            cpus,
            start: t(start),
            actual_end: t(actual_end),
            estimated_end: t(est_end),
            interstitial: false,
        }
    }

    #[test]
    fn insert_remove_accounting() {
        let mut rs = RunningSet::new();
        assert!(rs.is_empty());
        rs.insert(job(1, 10, 0, 100, 200));
        rs.insert(job(2, 5, 0, 50, 60));
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.cpus_in_use(), 15);
        let j = rs.remove(2);
        assert_eq!(j.cpus, 5);
        assert_eq!(rs.cpus_in_use(), 10);
        assert!(rs.get(1).is_some());
        assert!(rs.get(2).is_none());
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn duplicate_insert_panics() {
        let mut rs = RunningSet::new();
        rs.insert(job(7, 1, 0, 10, 10));
        rs.insert(job(7, 1, 0, 10, 10));
    }

    #[test]
    #[should_panic(expected = "was not running")]
    fn removing_absent_panics() {
        let mut rs = RunningSet::new();
        rs.remove(99);
    }

    #[test]
    fn native_vs_interstitial_cpu_split() {
        let mut rs = RunningSet::new();
        rs.insert(job(1, 10, 0, 100, 100));
        rs.insert(RunningJob {
            interstitial: true,
            ..job(2, 32, 0, 100, 100)
        });
        assert_eq!(rs.cpus_in_use(), 42);
        assert_eq!(rs.native_cpus_in_use(), 10);
    }

    #[test]
    fn free_profile_steps_up_at_estimates() {
        let mut rs = RunningSet::new();
        rs.insert(job(1, 3, 0, 80, 100));
        rs.insert(job(2, 5, 0, 150, 200));
        let f = rs.free_profile(t(0), 2, t(1000));
        assert_eq!(f.value_at(t(0)), 2);
        assert_eq!(f.value_at(t(99)), 2);
        assert_eq!(f.value_at(t(100)), 5);
        assert_eq!(f.value_at(t(200)), 10);
        // Ends beyond the horizon simply never appear.
        let g = rs.free_profile(t(0), 2, t(150));
        assert_eq!(g.value_at(t(120)), 5);
    }

    #[test]
    fn free_profile_monotone_nondecreasing() {
        let mut rs = RunningSet::new();
        for i in 0..20 {
            rs.insert(job(i, 2, 0, 50 + i * 10, 60 + i * 10));
        }
        let f = rs.free_profile(t(0), 0, t(2000));
        let vals: Vec<i64> = f.iter_segments().map(|(_, _, v)| v).collect();
        assert!(vals.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*vals.last().unwrap(), 40);
    }

    #[test]
    fn free_profile_never_frees_overrun_jobs_at_now() {
        let mut rs = RunningSet::new();
        // Estimated end long past; job actually still running.
        rs.insert(job(1, 6, 0, 5000, 100));
        let f = rs.free_profile(t(2000), 4, t(10_000));
        assert_eq!(f.value_at(t(2000)), 4, "at `now` only actual free CPUs");
        assert_eq!(f.value_at(t(2001)), 10, "projected to end any moment after");
    }
}
