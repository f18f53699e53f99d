//! Failure injection and pathological workloads: the driver must stay
//! correct (conservation, no oversubscription, termination) at the edges of
//! the job-model envelope, not just on calibrated traces.

use interstitial_computing::interstitial::prelude::*;
use interstitial_computing::machine::{self, OutageSchedule};
use interstitial_computing::simkit::time::{SimDuration, SimTime};
use interstitial_computing::workload::{Job, JobClass};

fn tiny_machine(cpus: u32) -> machine::MachineConfig {
    let mut m = machine::config::ross();
    m.cpus = cpus;
    m.clock_ghz = 1.0;
    m
}

fn job(id: u64, submit: u64, cpus: u32, runtime: u64, estimate: u64) -> Job {
    Job {
        id,
        class: JobClass::Native,
        user: (id % 7) as u32,
        group: (id % 3) as u32,
        submit: SimTime::from_secs(submit),
        cpus,
        runtime: SimDuration::from_secs(runtime),
        estimate: SimDuration::from_secs(estimate),
    }
}

#[test]
fn all_jobs_machine_wide_serialize() {
    // 50 whole-machine jobs arriving at once must run strictly one after
    // another.
    let jobs: Vec<Job> = (0..50).map(|i| job(i + 1, 0, 64, 100, 100)).collect();
    let out = SimBuilder::new(tiny_machine(64))
        .natives(jobs)
        .horizon(SimTime::from_secs(100_000))
        .build()
        .run();
    assert_eq!(out.native_completed(), 50);
    let mut spans: Vec<(u64, u64)> = out
        .natives()
        .map(|c| (c.start.as_secs(), c.finish.as_secs()))
        .collect();
    spans.sort_unstable();
    for w in spans.windows(2) {
        assert!(w[0].1 <= w[1].0, "whole-machine jobs overlapped: {w:?}");
    }
    assert_eq!(spans.last().unwrap().1, 5_000);
}

#[test]
fn mass_simultaneous_arrival_burst() {
    // 2000 one-CPU jobs at the same instant on a 64-CPU machine: the event
    // coalescer must handle the burst in one pass and everything completes.
    let jobs: Vec<Job> = (0..2_000).map(|i| job(i + 1, 10, 1, 60, 60)).collect();
    let out = SimBuilder::new(tiny_machine(64))
        .natives(jobs)
        .horizon(SimTime::from_secs(100_000))
        .build()
        .run();
    assert_eq!(out.native_completed(), 2_000);
    // 2000 jobs / 64 at a time × 60 s ≈ 32 waves → ends by t ≈ 10+1920.
    let last = out.natives().map(|c| c.finish).max().unwrap();
    assert_eq!(last, SimTime::from_secs(10 + 32 * 60));
}

#[test]
fn universal_underestimates_still_terminate() {
    // Every estimate is 1 s while runtimes are hours: reservations are
    // nonsense, but the simulation must terminate with all jobs run.
    let jobs: Vec<Job> = (0..200)
        .map(|i| job(i + 1, i * 30, 1 << (i % 5), 3_600, 1))
        .collect();
    let out = SimBuilder::new(tiny_machine(64))
        .natives(jobs)
        .horizon(SimTime::from_days(30))
        .interstitial(
            InterstitialProject::per_paper(u64::MAX / 2, 8, 120.0),
            InterstitialMode::Continual,
            InterstitialPolicy::default(),
        )
        .build()
        .run();
    assert_eq!(out.native_completed(), 200);
    for c in out.natives() {
        assert_eq!((c.finish - c.start).as_secs(), 3_600);
    }
}

#[test]
fn interstitial_larger_than_machine_never_starts() {
    let out = SimBuilder::new(tiny_machine(16))
        .natives(vec![job(1, 0, 8, 100, 100)])
        .horizon(SimTime::from_secs(10_000))
        .interstitial(
            InterstitialProject::per_paper(100, 32, 50.0),
            InterstitialMode::Continual,
            InterstitialPolicy::default(),
        )
        .build()
        .run();
    assert_eq!(out.interstitial_completed(), 0);
    assert_eq!(out.native_completed(), 1);
}

#[test]
fn back_to_back_outages_drain_cleanly() {
    let outages = OutageSchedule::from_windows(vec![
        (SimTime::from_secs(100), SimTime::from_secs(200)),
        (SimTime::from_secs(200), SimTime::from_secs(300)), // merges
        (SimTime::from_secs(500), SimTime::from_secs(600)),
    ]);
    let jobs: Vec<Job> = (0..20).map(|i| job(i + 1, i * 40, 16, 80, 90)).collect();
    let out = SimBuilder::new(tiny_machine(64))
        .natives(jobs)
        .horizon(SimTime::from_secs(10_000))
        .outages(outages)
        .build()
        .run();
    assert_eq!(out.native_completed(), 20);
    for c in out.natives() {
        let s = c.start.as_secs();
        assert!(
            !(100..300).contains(&s) && !(500..600).contains(&s),
            "started during an outage at {s}"
        );
    }
}

#[test]
fn project_bigger_than_log_survives() {
    // A project far larger than the log window under Continual mode: the
    // stream just stops at the horizon; the run terminates.
    let out = SimBuilder::new(tiny_machine(64))
        .natives(vec![])
        .horizon(SimTime::from_secs(5_000))
        .interstitial(
            InterstitialProject::per_paper(u64::MAX / 2, 1, 10.0),
            InterstitialMode::Continual,
            InterstitialPolicy::default(),
        )
        .build()
        .run();
    // 64 lanes × (5000/10 − 1) waves-ish; just sanity-bound it.
    let n = out.interstitial_completed();
    assert!((31_000..=32_000).contains(&n), "{n}");
    assert!(out.sim_end <= SimTime::from_secs(5_000));
}

#[test]
fn zero_native_jobs_is_fine_without_interstitial() {
    let out = SimBuilder::new(tiny_machine(8))
        .natives(vec![])
        .horizon(SimTime::from_secs(100))
        .build()
        .run();
    assert_eq!(out.completed.len(), 0);
    assert_eq!(out.overall_utilization(), 0.0);
}

#[test]
fn kill_preemption_storm_terminates_and_conserves() {
    // Frequent whole-machine natives + eager long interstitial jobs under
    // Kill: a preemption every native arrival. Everything must still
    // conserve and terminate.
    let jobs: Vec<Job> = (0..100)
        .map(|i| job(i + 1, 50 + i * 500, 64, 100, 120))
        .collect();
    let out = SimBuilder::new(tiny_machine(64))
        .natives(jobs)
        .horizon(SimTime::from_secs(100_000))
        .interstitial(
            InterstitialProject::per_paper(u64::MAX / 2, 16, 10_000.0),
            InterstitialMode::Continual,
            InterstitialPolicy::preempting(
                interstitial_computing::interstitial::policy::Preemption::Kill,
            ),
        )
        .build()
        .run();
    assert_eq!(out.native_completed(), 100);
    let kills = out.faults.ledger.preempt_kills();
    assert!(kills > 50, "{kills}");
    assert!(out.faults.ledger.preempt_wasted() > 0);
    // Natives were never delayed: preemption reclaims instantly.
    for c in out.natives() {
        assert_eq!(c.wait(), SimDuration::ZERO, "job {} waited", c.job.id);
    }
}

#[test]
fn checkpoint_storm_conserves_work_exactly() {
    let jobs: Vec<Job> = (0..50)
        .map(|i| job(i + 1, 500 + i * 1_000, 64, 200, 250))
        .collect();
    let project = InterstitialProject::per_paper(8, 16, 20_000.0);
    let out = SimBuilder::new(tiny_machine(64))
        .natives(jobs)
        .horizon(SimTime::from_secs(1_000_000))
        .interstitial(
            project,
            InterstitialMode::Continual,
            InterstitialPolicy::preempting(
                interstitial_computing::interstitial::policy::Preemption::Checkpoint,
            ),
        )
        .build()
        .run();
    assert_eq!(
        out.interstitial_completed(),
        8,
        "all checkpointed jobs finish"
    );
    for c in out.interstitials() {
        // Wallclock ≥ nominal runtime; work amount preserved exactly.
        assert!(c.finish - c.start >= c.job.runtime);
        assert_eq!(c.job.runtime, SimDuration::from_secs(20_000));
    }
    assert_eq!(out.faults.ledger.preempt_kills(), 0);
}
