//! Simulation output.
//!
//! [`SimOutput`] is the analogue of "the job log returned from the
//! BIRMinator simulations": the machine description plus every completed
//! job's submit/start/finish record, split into native and interstitial
//! populations. The free-capacity profile built here feeds §4.1's
//! omniscient packing.

use machine::{FaultModel, FaultStats, MachineConfig};
use simkit::series::StepFunction;
use simkit::time::SimTime;
use workload::CompletedJob;

/// Everything a simulation run produces.
#[derive(Clone, Debug)]
pub struct SimOutput {
    /// The simulated machine.
    pub machine: MachineConfig,
    /// The native log horizon (end of the analyzed window).
    pub horizon: SimTime,
    /// Every job that completed, in finish order.
    pub completed: Vec<CompletedJob>,
    /// Distinct interstitial jobs started (equals completions under the
    /// paper's fault-free non-preemptive model; with preemption or node
    /// faults, killed-and-abandoned jobs make it an upper bound).
    pub interstitial_started: u64,
    /// Native jobs submitted into the simulation.
    pub native_submitted: u64,
    /// Instant the last event was processed.
    pub sim_end: SimTime,
    /// The fault model the run was driven by ([`FaultModel::none`] unless
    /// configured via [`crate::driver::SimBuilder::faults`]).
    pub fault_model: FaultModel,
    /// Fault/recovery accounting: node boundaries processed, jobs killed,
    /// requeues/retries/give-ups, and the CPU·second ledger of faults,
    /// preemption and recovery.
    pub faults: FaultStats,
    /// The observability bundle that rode along (disabled and empty unless
    /// the run was built with [`crate::driver::SimBuilder::observer`]).
    pub obs: obs::Obs,
}

impl SimOutput {
    /// Completed native jobs.
    pub fn natives(&self) -> impl Iterator<Item = &CompletedJob> {
        self.completed
            .iter()
            .filter(|c| !c.job.class.is_interstitial())
    }

    /// Completed interstitial jobs.
    pub fn interstitials(&self) -> impl Iterator<Item = &CompletedJob> {
        self.completed
            .iter()
            .filter(|c| c.job.class.is_interstitial())
    }

    /// Completed interstitial jobs of one stream (multi-project runs tag
    /// each interstitial job's `user` field with its stream index).
    pub fn interstitials_of_stream(&self, stream: u32) -> impl Iterator<Item = &CompletedJob> {
        self.interstitials().filter(move |c| c.job.user == stream)
    }

    /// Number of completed native jobs.
    pub fn native_completed(&self) -> u64 {
        self.natives().count() as u64
    }

    /// Number of completed interstitial jobs.
    pub fn interstitial_completed(&self) -> u64 {
        self.interstitials().count() as u64
    }

    /// Native jobs that *finished within the log window* — the paper's
    /// throughput comparison ("the number of native jobs making it through
    /// in the same time as the original total native job makespan").
    pub fn native_throughput_in_window(&self) -> u64 {
        self.natives().filter(|c| c.finish <= self.horizon).count() as u64
    }

    /// Machine utilization over `[0, horizon)` by the given job classes:
    /// busy CPU·seconds (clipped to the window) over `N × horizon`.
    pub fn utilization_by(&self, include_native: bool, include_interstitial: bool) -> f64 {
        let t_end = self.horizon;
        let mut busy = 0.0;
        for c in &self.completed {
            let inter = c.job.class.is_interstitial();
            if (inter && !include_interstitial) || (!inter && !include_native) {
                continue;
            }
            let lo = c.start.min(t_end);
            let hi = c.finish.min(t_end);
            // A checkpointed job's record spans its suspensions; the CPUs
            // were only busy for the job's actual runtime.
            let span = (hi - lo).as_secs_f64().min(c.job.runtime.as_secs_f64());
            busy += c.job.cpus as f64 * span;
        }
        busy / (self.machine.cpus as f64 * t_end.as_secs() as f64)
    }

    /// Overall utilization (native + interstitial) over the log window.
    pub fn overall_utilization(&self) -> f64 {
        self.utilization_by(true, true)
    }

    /// Native-only utilization over the log window.
    pub fn native_utilization(&self) -> f64 {
        self.utilization_by(true, false)
    }

    /// Free-capacity step function over `[0, extend × horizon)` from the
    /// *native* jobs' realized schedules. Beyond the log end the native busy
    /// pattern is tiled periodically — a steady-state continuation so
    /// omniscient projects whose makespan exceeds the remaining log (e.g.
    /// Blue Pacific's 1000-hour projects in a 1500-hour log) keep packing
    /// against a realistic load instead of an artificially empty machine.
    pub fn native_free_profile(&self, extend: u32) -> StepFunction {
        let extend = extend.max(1);
        let span = self.horizon.as_secs();
        let full = SimTime::from_secs(span * extend as u64);
        let mut f = StepFunction::constant(full, i64::from(self.machine.cpus));
        for c in self.natives() {
            let cpus = i64::from(c.job.cpus);
            for k in 0..extend as u64 {
                let off = k * span;
                // Clip each tiled copy to the tile so the pattern repeats
                // exactly (a job spanning the log end is truncated, matching
                // how utilization statistics clip).
                let lo = (c.start.as_secs().min(span) + off).min(full.as_secs());
                let hi = (c.finish.as_secs().min(span) + off).min(full.as_secs());
                if hi > lo {
                    f.range_add(SimTime::from_secs(lo), SimTime::from_secs(hi), -cpus);
                }
            }
        }
        f.coalesce();
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::config::ross;
    use simkit::time::SimDuration;
    use workload::{Job, JobClass};

    fn completed(class: JobClass, cpus: u32, submit: u64, start: u64, run: u64) -> CompletedJob {
        CompletedJob::new(
            Job {
                id: submit + start, // unique enough for tests
                class,
                user: 0,
                group: 0,
                submit: SimTime::from_secs(submit),
                cpus,
                runtime: SimDuration::from_secs(run),
                estimate: SimDuration::from_secs(run),
            },
            SimTime::from_secs(start),
        )
    }

    fn tiny_output() -> SimOutput {
        let mut m = ross();
        m.cpus = 10;
        SimOutput {
            machine: m,
            horizon: SimTime::from_secs(1_000),
            completed: vec![
                completed(JobClass::Native, 4, 0, 0, 500),
                completed(JobClass::Native, 2, 100, 500, 500),
                completed(JobClass::Interstitial, 3, 200, 200, 100),
            ],
            interstitial_started: 1,
            native_submitted: 2,
            sim_end: SimTime::from_secs(1_000),
            fault_model: FaultModel::none(),
            faults: FaultStats::default(),
            obs: obs::Obs::disabled(),
        }
    }

    #[test]
    fn class_split_counts() {
        let o = tiny_output();
        assert_eq!(o.native_completed(), 2);
        assert_eq!(o.interstitial_completed(), 1);
        assert_eq!(o.native_throughput_in_window(), 2);
    }

    #[test]
    fn utilization_accounting() {
        let o = tiny_output();
        // Native busy: 4×500 + 2×500 = 3000 cpu·s over 10×1000.
        assert!((o.native_utilization() - 0.3).abs() < 1e-12);
        // Interstitial adds 3×100.
        assert!((o.overall_utilization() - 0.33).abs() < 1e-12);
        assert!((o.utilization_by(false, true) - 0.03).abs() < 1e-12);
    }

    #[test]
    fn utilization_clips_to_window() {
        let mut o = tiny_output();
        // A native job running past the horizon only counts the in-window
        // part.
        o.completed
            .push(completed(JobClass::Native, 10, 900, 900, 10_000));
        let with_overhang = o.native_utilization();
        // Extra busy: 10 × 100 (clipped) = 1000 cpu·s → +0.1.
        assert!((with_overhang - 0.4).abs() < 1e-12);
    }

    #[test]
    fn free_profile_subtracts_native_only() {
        let o = tiny_output();
        let f = o.native_free_profile(1);
        // [0,500): 10−4 = 6 (interstitial not subtracted).
        assert_eq!(f.value_at(SimTime::from_secs(250)), 6);
        // [500,1000): 10−2 = 8.
        assert_eq!(f.value_at(SimTime::from_secs(750)), 8);
    }

    #[test]
    fn free_profile_tiles_periodically() {
        let o = tiny_output();
        let f = o.native_free_profile(3);
        assert_eq!(f.horizon(), SimTime::from_secs(3_000));
        for k in 0..3u64 {
            assert_eq!(
                f.value_at(SimTime::from_secs(k * 1000 + 250)),
                6,
                "tile {k}"
            );
            assert_eq!(f.value_at(SimTime::from_secs(k * 1000 + 750)), 8);
        }
    }

    #[test]
    fn free_profile_truncates_overhanging_jobs_per_tile() {
        let mut o = tiny_output();
        o.completed
            .push(completed(JobClass::Native, 1, 900, 900, 10_000));
        let f = o.native_free_profile(2);
        // In each tile, the overhanging job occupies only [900, 1000),
        // alongside the 2-CPU job: 10 − 2 − 1 = 7.
        assert_eq!(f.value_at(SimTime::from_secs(950)), 7);
        assert_eq!(f.value_at(SimTime::from_secs(1950)), 7);
        assert_eq!(f.value_at(SimTime::from_secs(1050)), 6); // tile 1 repeats tile 0's [0,500) pattern
    }
}
