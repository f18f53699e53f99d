//! Resilience accounting for faulted runs.
//!
//! A fault-injected simulation produces three things the fault-free
//! analysis has no vocabulary for: CPU·seconds *wasted* on executions a
//! node crash threw away, jobs that had to be requeued or retried, and
//! stretches of the run where the machine was operating below nameplate
//! capacity. [`ResilienceReport`] folds a completed-job log, the run's
//! [`FaultStats`] and the [`FaultModel`] itself into one structure:
//!
//! * **Goodput vs waste** — delivered CPU·seconds against CPU·seconds the
//!   faults destroyed (work lost between a victim's start and its kill;
//!   retried executions lose everything, there is no mid-job checkpoint
//!   surviving a node crash).
//! * **Recovery traffic** — requeue/retry/give-up counts straight from the
//!   driver's ledger.
//! * **Survival vs runtime** — per-execution completion probability in
//!   log₂ runtime buckets. Long jobs expose more surface to the failure
//!   process; this is the curve that shows it.
//! * **Degraded-capacity windows** — how long the machine ran below
//!   nameplate and how many CPU·seconds of capacity the failed nodes took
//!   with them, from the fault model's own step profile.

use machine::{FaultModel, FaultStats};
use simkit::time::SimTime;
use workload::CompletedJob;

use crate::tables::Table;

/// Per-execution survival in one log₂ runtime bucket.
///
/// An *execution* is one attempt to run a job to completion: every
/// completed job contributes a success to its runtime's bucket, and every
/// fault kill contributes a failure. A retried job that eventually
/// finishes therefore shows up on both sides — the estimate is "given an
/// execution of this length started, what fraction ran to completion",
/// which is what the trace actually witnesses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SurvivalBucket {
    /// Inclusive lower runtime bound, seconds (`2^k`, or 0 for the first).
    pub lo_s: u64,
    /// Exclusive upper runtime bound, seconds (`2^(k+1)`).
    pub hi_s: u64,
    /// Executions in this bucket that ran to completion.
    pub completed: u64,
    /// Executions in this bucket a node failure destroyed.
    pub killed: u64,
}

impl SurvivalBucket {
    /// Completion probability of an execution in this bucket.
    pub fn survival(&self) -> f64 {
        let n = self.completed + self.killed;
        if n == 0 {
            return 1.0;
        }
        self.completed as f64 / n as f64
    }
}

/// Time the machine spent below nameplate capacity, from the fault
/// model's step profile over `[0, horizon)`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DegradedCapacity {
    /// Seconds with at least one node down.
    pub degraded_s: u64,
    /// Fraction of the horizon spent degraded.
    pub degraded_fraction: f64,
    /// CPU·seconds of capacity lost to failed nodes over the horizon.
    pub lost_cpu_s: f64,
    /// Time-weighted mean CPUs in service.
    pub mean_available_cpus: f64,
}

/// The resilience panel for one faulted run.
#[derive(Clone, Debug)]
pub struct ResilienceReport {
    /// Nameplate machine size.
    pub total_cpus: u32,
    /// Horizon the profile and fractions are measured over, seconds.
    pub horizon_s: u64,
    /// CPU·seconds delivered to jobs that completed.
    pub goodput_cpu_s: f64,
    /// The run's fault, requeue, retry and resume counts and its
    /// CPU·second ledger, as the driver kept them.
    pub faults: FaultStats,
    /// Survival-vs-runtime curve; empty buckets are omitted.
    pub survival: Vec<SurvivalBucket>,
    /// Below-nameplate operation summary.
    pub degraded: DegradedCapacity,
}

/// Index of the log₂ bucket holding `runtime_s` (`0` and `1` share
/// bucket 0).
fn bucket_index(runtime_s: u64) -> u32 {
    if runtime_s <= 1 {
        return 0;
    }
    63 - runtime_s.leading_zeros()
}

fn bucket_bounds(idx: u32) -> (u64, u64) {
    if idx == 0 {
        return (0, 2);
    }
    (1 << idx, 1 << (idx + 1))
}

impl ResilienceReport {
    /// Fold a run's artifacts into the report. `completed` is the full job
    /// log (native and interstitial); `horizon` bounds the degraded-window
    /// integrals and should be the simulation horizon the model was
    /// synthesized for.
    pub fn from_run(
        completed: &[CompletedJob],
        stats: &FaultStats,
        model: &FaultModel,
        total_cpus: u32,
        horizon: SimTime,
    ) -> Self {
        let goodput_cpu_s: f64 = completed
            .iter()
            .map(|c| f64::from(c.job.cpus) * c.job.runtime.as_secs_f64())
            .sum();

        // Survival curve: completions and kills bucketed by the runtime of
        // the execution (for kills, the runtime the attempt *would* have
        // had — recorded on the KilledJob).
        let max_bucket = bucket_index(horizon.as_secs().max(2)) as usize;
        let mut completed_by = vec![0u64; max_bucket + 1];
        let mut killed_by = vec![0u64; max_bucket + 1];
        for c in completed {
            let idx = (bucket_index(c.job.runtime.as_secs()) as usize).min(max_bucket);
            completed_by[idx] += 1;
        }
        for k in &stats.kills {
            let idx = (bucket_index(k.runtime_s) as usize).min(max_bucket);
            killed_by[idx] += 1;
        }
        let survival = (0..=max_bucket)
            .filter(|&i| completed_by[i] + killed_by[i] > 0)
            .map(|i| {
                let (lo_s, hi_s) = bucket_bounds(i as u32);
                SurvivalBucket {
                    lo_s,
                    hi_s,
                    completed: completed_by[i],
                    killed: killed_by[i],
                }
            })
            .collect();

        // Degraded-capacity integrals over the step profile. The profile
        // starts at t = 0 and each segment runs to the next edge (or the
        // horizon).
        let profile = model.capacity_profile(total_cpus, horizon);
        let horizon_s = horizon.as_secs();
        let mut degraded_s = 0u64;
        let mut lost_cpu_s = 0f64;
        for (i, &(start, avail)) in profile.iter().enumerate() {
            let end = profile
                .get(i + 1)
                .map(|&(t, _)| t)
                .unwrap_or(horizon)
                .min(horizon);
            let dur = end.as_secs().saturating_sub(start.as_secs());
            if avail < total_cpus {
                degraded_s += dur;
                lost_cpu_s += f64::from(total_cpus - avail) * dur as f64;
            }
        }
        // An empty horizon integrates to zero, so dividing by 1 is exact.
        let span = horizon_s.max(1) as f64;
        let degraded = DegradedCapacity {
            degraded_s,
            degraded_fraction: degraded_s as f64 / span,
            lost_cpu_s,
            mean_available_cpus: f64::from(total_cpus) - lost_cpu_s / span,
        };

        ResilienceReport {
            total_cpus,
            horizon_s,
            goodput_cpu_s,
            faults: stats.clone(),
            survival,
            degraded,
        }
    }

    /// Fraction of all consumed CPU·seconds the faults destroyed.
    /// Checkpoint overhead counts as consumption, not waste — it bought
    /// the salvage.
    pub fn waste_fraction(&self) -> f64 {
        let ledger = &self.faults.ledger;
        let wasted = ledger.fault_wasted() as f64;
        let consumed = self.goodput_cpu_s + wasted + ledger.checkpoint_overhead() as f64;
        if consumed <= 0.0 {
            return 0.0;
        }
        wasted / consumed
    }

    /// Of the eviction-interrupted CPU·seconds, the fraction the recovery
    /// policy carried forward: 0 under kill-restart (everything redone),
    /// 1 under suspend-resume when every victim resumed.
    pub fn salvage_fraction(&self) -> f64 {
        let ledger = &self.faults.ledger;
        let salvaged = ledger.salvaged() as f64;
        let interrupted = salvaged + ledger.fault_wasted() as f64;
        if interrupted <= 0.0 {
            return 0.0;
        }
        salvaged / interrupted
    }

    /// Render the scalar panel as a two-column table.
    pub fn table(&self) -> Table {
        let mut t = Table::new("Resilience", &["metric", "value"]);
        let f = |v: f64| format!("{v:.1}");
        let (s, ledger) = (&self.faults, &self.faults.ledger);
        let cpu_s = |v: u64| f(v as f64);
        t.row(&["goodput CPU·s".into(), f(self.goodput_cpu_s)]);
        t.row(&["wasted CPU·s".into(), cpu_s(ledger.fault_wasted())]);
        t.row(&[
            "interstitial wasted CPU·s".into(),
            cpu_s(ledger.interstitial_fault_wasted()),
        ]);
        t.row(&[
            "waste fraction".into(),
            format!("{:.4}", self.waste_fraction()),
        ]);
        t.row(&["salvaged CPU·s".into(), cpu_s(ledger.salvaged())]);
        t.row(&["re-executed CPU·s".into(), cpu_s(ledger.reexecuted())]);
        t.row(&[
            "salvage fraction".into(),
            format!("{:.4}", self.salvage_fraction()),
        ]);
        t.row(&[
            "checkpoint overhead CPU·s".into(),
            cpu_s(ledger.checkpoint_overhead()),
        ]);
        for (name, count) in [
            ("checkpoints taken", ledger.checkpoints_taken()),
            ("interstitial resumes", s.interstitial_resumes),
            ("node failures", s.node_failures),
            ("node repairs", s.node_repairs),
            ("native requeues", s.native_requeues),
            ("interstitial retries", s.interstitial_retries),
            ("interstitial given up", s.interstitial_given_up),
        ] {
            t.row(&[name.into(), count.to_string()]);
        }
        t.row(&[
            "degraded seconds".into(),
            self.degraded.degraded_s.to_string(),
        ]);
        t.row(&[
            "degraded fraction".into(),
            format!("{:.4}", self.degraded.degraded_fraction),
        ]);
        t.row(&["lost capacity CPU·s".into(), f(self.degraded.lost_cpu_s)]);
        t.row(&[
            "mean CPUs in service".into(),
            format!("{:.1}", self.degraded.mean_available_cpus),
        ]);
        t
    }

    /// Render the survival curve as a table (one row per populated
    /// bucket).
    pub fn survival_table(&self) -> Table {
        let mut t = Table::new(
            "Execution survival vs runtime",
            &["runtime [s)", "completed", "killed", "survival"],
        );
        for b in &self.survival {
            t.row(&[
                format!("{}–{}", b.lo_s, b.hi_s),
                b.completed.to_string(),
                b.killed.to_string(),
                format!("{:.3}", b.survival()),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::fault::Eviction;
    use machine::{FaultSpec, KilledJob};
    use simkit::time::SimDuration;
    use workload::{Job, JobClass};

    fn done(id: u64, cpus: u32, runtime_s: u64, start_s: u64) -> CompletedJob {
        CompletedJob::new(
            Job {
                id,
                class: JobClass::Native,
                user: 0,
                group: 0,
                submit: SimTime::ZERO,
                cpus,
                runtime: SimDuration::from_secs(runtime_s),
                estimate: SimDuration::from_secs(runtime_s),
            },
            SimTime::from_secs(start_s),
        )
    }

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_bounds(0), (0, 2));
        assert_eq!(bucket_bounds(3), (8, 16));
    }

    #[test]
    fn goodput_waste_and_survival_from_a_tiny_run() {
        let completed = vec![done(1, 10, 100, 0), done(2, 4, 100, 0), done(3, 2, 5000, 0)];
        let mut stats = FaultStats {
            node_failures: 1,
            node_repairs: 1,
            native_requeues: 1,
            kills: vec![KilledJob {
                job: 1,
                cpus: 10,
                runtime_s: 100,
                interstitial: false,
            }],
            ..FaultStats::default()
        };
        stats
            .ledger
            .native_fault_kill(10, SimDuration::from_secs(60));
        let model = FaultModel::none();
        let r =
            ResilienceReport::from_run(&completed, &stats, &model, 64, SimTime::from_secs(10_000));
        assert!((r.goodput_cpu_s - (1_000.0 + 400.0 + 10_000.0)).abs() < 1e-9);
        assert_eq!(r.faults.ledger.fault_wasted(), 600);
        assert!((r.waste_fraction() - 600.0 / 12_000.0).abs() < 1e-9);
        // Runtime 100 lands in [64, 128): 2 completions + 1 kill there.
        let b100 = r
            .survival
            .iter()
            .find(|b| b.lo_s == 64)
            .expect("bucket for runtime 100");
        assert_eq!((b100.completed, b100.killed), (2, 1));
        assert!((b100.survival() - 2.0 / 3.0).abs() < 1e-9);
        // Runtime 5000 lands in [4096, 8192), untouched by faults.
        let b5k = r.survival.iter().find(|b| b.lo_s == 4_096).unwrap();
        assert!((b5k.survival() - 1.0).abs() < 1e-12);
        assert_eq!(r.degraded.degraded_s, 0);
        assert_eq!(r.degraded.lost_cpu_s, 0.0);
        assert_eq!(r.degraded.mean_available_cpus, 64.0);
    }

    #[test]
    fn salvage_decomposition_rides_the_stats() {
        let mut stats = FaultStats {
            interstitial_resumes: 3,
            ..FaultStats::default()
        };
        let secs = SimDuration::from_secs;
        // 120 native CPU·s lost; one 1-CPU job checkpointed every 100 s
        // runs 1080 s, keeps 900 and re-executes 180.
        stats.ledger.native_fault_kill(1, secs(120));
        let kept = Some(secs(900));
        let ledger = &mut stats.ledger;
        ledger.evict(Eviction::Fault, 1, secs(0), secs(1_080), kept, 9);
        let r = ResilienceReport::from_run(
            &[],
            &stats,
            &FaultModel::none(),
            64,
            SimTime::from_secs(1_000),
        );
        let text = r.table().to_text();
        for row in [
            "wasted CPU·s               300.0",
            "interstitial wasted CPU·s  180.0",
            "salvaged CPU·s             900.0",
            "re-executed CPU·s          180.0",
            "checkpoint overhead CPU·s  90.0",
            "checkpoints taken          9",
            "interstitial resumes       3",
        ] {
            assert!(text.contains(row), "{row:?} in {text}");
        }
        // 900 of 1200 interrupted CPU·s carried forward.
        assert!((r.salvage_fraction() - 0.75).abs() < 1e-9);
        // Overhead is consumption, not waste: 300 / (300 + 90).
        assert!((r.waste_fraction() - 300.0 / 390.0).abs() < 1e-9);
    }

    #[test]
    fn degraded_windows_integrate_the_capacity_profile() {
        // 4 nodes × 16 CPUs, one synthesized failure pattern: integrals
        // must agree with a brute-force scan of available_cpus().
        let spec = FaultSpec::parse("mtbf=5000,mttr=1000,nodes=4,seed=9").unwrap();
        let horizon = SimTime::from_secs(50_000);
        let model = FaultModel::synthesize(&spec, 64, horizon);
        let r = ResilienceReport::from_run(&[], &FaultStats::default(), &model, 64, horizon);
        let mut brute_degraded = 0u64;
        let mut brute_lost = 0f64;
        for s in 0..horizon.as_secs() {
            let avail = model.available_cpus(SimTime::from_secs(s), 64);
            if avail < 64 {
                brute_degraded += 1;
                brute_lost += f64::from(64 - avail);
            }
        }
        assert_eq!(r.degraded.degraded_s, brute_degraded);
        assert!((r.degraded.lost_cpu_s - brute_lost).abs() < 1e-6);
        assert!(r.degraded.degraded_s > 0, "spec must produce failures");
        assert!(r.degraded.degraded_fraction > 0.0 && r.degraded.degraded_fraction < 1.0);
        assert!(r.degraded.mean_available_cpus < 64.0);
    }

    #[test]
    fn empty_run_reports_are_well_defined() {
        let r = ResilienceReport::from_run(
            &[],
            &FaultStats::default(),
            &FaultModel::none(),
            64,
            SimTime::ZERO,
        );
        assert_eq!(r.waste_fraction(), 0.0);
        assert!(r.survival.is_empty());
        assert_eq!(r.degraded.mean_available_cpus, 64.0);
        assert!(!r.table().is_empty());
        assert!(r.survival_table().is_empty());
    }
}
