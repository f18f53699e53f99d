//! Replication harness.
//!
//! The paper's numbers are averages over repeated drops of a project into
//! the job stream "at random times" (Table 2: 20 runs; Table 4/Figure 3:
//! 500 window samples from a continual run). This module provides:
//!
//! * [`native_baseline`] — the native-only replay a machine's other numbers
//!   hang off.
//! * [`omniscient_makespans`] — §4.1: pack the project into the baseline's
//!   free profile at random start times.
//! * [`window_makespans`] — §4.3.1's shortcut: run *one* continual
//!   interstitial simulation, then for a random `t₁` find the `t₂` at which
//!   `N` more interstitial jobs have completed; the makespan is `t₂ − t₁`.
//! * [`parallel_map`] — scoped-thread fan-out used to run replications on
//!   all cores (determinism is preserved because every replication derives
//!   its randomness from its own index).

use crate::driver::SimBuilder;
use crate::omniscient;
use crate::policy::{InterstitialMode, InterstitialPolicy};
use crate::project::InterstitialProject;
use crate::report::SimOutput;
use machine::MachineConfig;
use simkit::rng::Rng;
use simkit::stats::OnlineStats;
use simkit::time::SimTime;
use workload::traces;

/// Run items through `f` on all available cores, preserving order.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(items.len().max(1));
    if n_threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    let jobs: Vec<(usize, T)> = items.into_iter().enumerate().collect();
    let queue = std::sync::Mutex::new(jobs);
    let slots_ref = std::sync::Mutex::new(&mut slots);
    std::thread::scope(|scope| {
        for _ in 0..n_threads {
            scope.spawn(|| loop {
                let item = queue.lock().expect("queue poisoned").pop();
                match item {
                    Some((i, t)) => {
                        let r = f(t);
                        slots_ref.lock().expect("slots poisoned")[i] = Some(r);
                    }
                    None => break,
                }
            });
        }
    });
    slots.into_iter().map(|s| s.expect("slot filled")).collect()
}

/// Simulate the machine's native log with no interstitial jobs.
pub fn native_baseline(machine: &MachineConfig, trace_seed: u64) -> SimOutput {
    let natives = traces::native_trace(machine, trace_seed);
    SimBuilder::new(machine.clone())
        .natives(natives)
        .build()
        .run()
}

/// §4.1: omniscient makespans (hours) of `project` dropped at `reps` random
/// start times within the baseline's log. `None` entries are drops that
/// could not finish within `extend × log` (the paper's "n/a, makespan ≥ log
/// time"). Runs replications in parallel.
pub fn omniscient_makespans(
    baseline: &SimOutput,
    project: &InterstitialProject,
    reps: u32,
    seed: u64,
    extend: u32,
) -> Vec<Option<f64>> {
    let profile = baseline.native_free_profile(extend);
    let horizon = baseline.horizon.as_secs();
    let machine = baseline.machine.clone();
    let starts: Vec<SimTime> = {
        let mut rng = Rng::new(seed);
        (0..reps)
            .map(|_| SimTime::from_secs(rng.below(horizon)))
            .collect()
    };
    parallel_map(starts, |start| {
        omniscient::pack(profile.clone(), project, &machine, start).map(|r| r.makespan().as_hours())
    })
}

/// Run a continual interstitial simulation over the machine's native log.
pub fn continual_run(
    machine: &MachineConfig,
    trace_seed: u64,
    project: &InterstitialProject,
    policy: InterstitialPolicy,
) -> SimOutput {
    let natives = traces::native_trace(machine, trace_seed);
    SimBuilder::new(machine.clone())
        .natives(natives)
        .interstitial(*project, InterstitialMode::Continual, policy)
        .build()
        .run()
}

/// §4.3.1's window extraction: sample `samples` random start instants and
/// read off the makespan of an `n_jobs`-job project from the continual
/// run's interstitial completion log. `None` where fewer than `n_jobs`
/// completions remain after the start ("makespan ≥ log time").
pub fn window_makespans(
    continual: &SimOutput,
    n_jobs: u64,
    samples: u32,
    seed: u64,
) -> Vec<Option<f64>> {
    let finishes: Vec<SimTime> = {
        let mut f: Vec<SimTime> = continual.interstitials().map(|c| c.finish).collect();
        f.sort_unstable();
        f
    };
    let mut rng = Rng::new(seed);
    let horizon = continual.horizon.as_secs();
    (0..samples)
        .map(|_| {
            let t1 = SimTime::from_secs(rng.below(horizon));
            let idx = finishes.partition_point(|&f| f <= t1);
            let need = idx + n_jobs as usize - 1;
            finishes.get(need).map(|&t2| (t2 - t1).as_hours())
        })
        .collect()
}

/// Mean ± sample standard deviation over the successful replications, with
/// the failure count ("n/a" drops).
#[derive(Clone, Debug)]
pub struct ReplicationSummary {
    /// Statistics over the successful makespans (hours).
    pub stats: OnlineStats,
    /// Replications that could not finish within the observation window.
    pub failed: u32,
}

impl ReplicationSummary {
    /// Summarize a replication vector.
    pub fn from(makespans: &[Option<f64>]) -> Self {
        let mut stats = OnlineStats::new();
        let mut failed = 0;
        for m in makespans {
            match m {
                Some(v) => stats.push(*v),
                None => failed += 1,
            }
        }
        ReplicationSummary { stats, failed }
    }

    /// `mean ± std` formatted like the paper's tables (hours).
    pub fn formatted(&self) -> String {
        if self.stats.count() == 0 {
            return "n/a*".to_string();
        }
        format!("{:.1} ± {:.1}", self.stats.mean(), self.stats.std_dev())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::config::ross;
    use simkit::time::SimDuration;
    use workload::{CompletedJob, Job, JobClass};

    #[test]
    fn parallel_map_preserves_order_and_values() {
        let out = parallel_map((0..1000u64).collect(), |x| x * x);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i * i) as u64);
        }
        // Empty and singleton inputs.
        assert!(parallel_map(Vec::<u64>::new(), |x| x).is_empty());
        assert_eq!(parallel_map(vec![7], |x| x + 1), vec![8]);
    }

    fn synthetic_continual(horizon_s: u64, jobs: u64, gap: u64) -> SimOutput {
        // Interstitial completions at gap, 2·gap, … for window tests.
        let mut m = ross();
        m.cpus = 10;
        let completed: Vec<CompletedJob> = (0..jobs)
            .map(|i| {
                let start = SimTime::from_secs(i * gap);
                CompletedJob::new(
                    Job {
                        id: i,
                        class: JobClass::Interstitial,
                        user: 0,
                        group: 0,
                        submit: start,
                        cpus: 1,
                        runtime: SimDuration::from_secs(gap),
                        estimate: SimDuration::from_secs(gap),
                    },
                    start,
                )
            })
            .collect();
        SimOutput {
            machine: m,
            horizon: SimTime::from_secs(horizon_s),
            completed,
            interstitial_started: jobs,
            native_submitted: 0,
            sim_end: SimTime::from_secs(horizon_s),
            fault_model: machine::FaultModel::none(),
            faults: machine::FaultStats::default(),
            obs: obs::Obs::disabled(),
        }
    }

    #[test]
    fn window_makespans_read_off_completions() {
        // Completions at 100, 200, …, 10_000 (100 jobs).
        let out = synthetic_continual(10_000, 100, 100);
        let ms = window_makespans(&out, 5, 200, 1);
        for m in ms.iter().flatten() {
            // A 5-job window spans (4, 5] completion gaps = (400, 500] s.
            let secs = m * 3600.0;
            assert!(secs > 400.0 - 1e-6 && secs <= 500.0 + 1e-6, "got {secs}");
        }
        // Starts near the log end must fail (not enough completions left).
        let fails = ms.iter().filter(|m| m.is_none()).count();
        assert!(fails > 0, "some windows must run off the log");
    }

    #[test]
    fn window_makespans_all_fail_when_project_exceeds_log() {
        let out = synthetic_continual(10_000, 100, 100);
        let ms = window_makespans(&out, 1_000, 50, 2);
        assert!(ms.iter().all(|m| m.is_none()));
        let s = ReplicationSummary::from(&ms);
        assert_eq!(s.failed, 50);
        assert_eq!(s.formatted(), "n/a*");
    }

    #[test]
    fn replication_summary_statistics() {
        let ms = vec![Some(10.0), Some(14.0), None, Some(12.0)];
        let s = ReplicationSummary::from(&ms);
        assert_eq!(s.failed, 1);
        assert_eq!(s.stats.count(), 3);
        assert!((s.stats.mean() - 12.0).abs() < 1e-12);
        assert!(s.formatted().starts_with("12.0 ±"));
    }

    #[test]
    fn omniscient_makespans_on_a_small_machine() {
        // Tiny native-only baseline: machine 16 CPUs over 2000 s with one
        // 8-CPU native job on [0, 1000).
        let mut m = ross();
        m.cpus = 16;
        m.clock_ghz = 1.0;
        let native = Job {
            id: 1,
            class: JobClass::Native,
            user: 0,
            group: 0,
            submit: SimTime::ZERO,
            cpus: 8,
            runtime: SimDuration::from_secs(1000),
            estimate: SimDuration::from_secs(1000),
        };
        let baseline = SimBuilder::new(m)
            .natives(vec![native])
            .horizon(SimTime::from_secs(2000))
            .build()
            .run();
        let project = InterstitialProject::per_paper(4, 8, 100.0);
        let ms = omniscient_makespans(&baseline, &project, 16, 3, 4);
        assert_eq!(ms.len(), 16);
        // Every drop fits somewhere in the (tiled) 8000-second profile.
        let ok = ms.iter().flatten().count();
        assert!(ok > 0);
        for m in ms.iter().flatten() {
            // 4 × 8-CPU jobs: 1–2 waves of 100 s depending on the start →
            // makespan between 100 s and, worst case, a dip-crossing ~1200 s.
            let secs = m * 3600.0;
            assert!((100.0 - 1e-6..=1300.0).contains(&secs), "{secs}");
        }
    }

    #[test]
    fn determinism_of_replication_seeds() {
        let out = synthetic_continual(10_000, 100, 100);
        let a = window_makespans(&out, 5, 100, 9);
        let b = window_makespans(&out, 5, 100, 9);
        assert_eq!(a, b);
    }
}
