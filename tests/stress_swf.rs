//! 10⁵-job SWF stress run (ignored by default; CI's cron job runs it).
//!
//! A synthetic 100 000-job log is round-tripped through the SWF format and
//! replayed once on the Ross preset. The run must finish inside a
//! wall-time ceiling — the indexed free profile is what makes that
//! possible; the old per-cycle O(n) profile rebuild made this scale
//! quadratic — and complete every job.
//!
//! Run locally with `cargo test -q --release -- --ignored stress_swf`.

use interstitial_computing::interstitial::prelude::*;
use interstitial_computing::machine;
use interstitial_computing::simkit::rng::Rng;
use interstitial_computing::simkit::time::{SimDuration, SimTime};
use interstitial_computing::workload::{swf, Job, JobClass};

const JOBS: u64 = 100_000;

/// Wall ceiling for one replay. Generous for noisy shared CI runners; a
/// debug-profile run on a laptop takes well under half of it, and the old
/// quadratic hot path blows far past it.
const WALL_CEILING: std::time::Duration = std::time::Duration::from_secs(600);

/// A 100k-job log shaped to keep a 1436-CPU machine busy (≈70% offered
/// load) without letting the queue grow without bound.
fn synthesize() -> Vec<Job> {
    let mut rng = Rng::new(0x0557_1E55);
    let mut jobs = Vec::with_capacity(JOBS as usize);
    let mut at = 0u64;
    for id in 1..=JOBS {
        at += rng.below(8);
        let cpus = rng.range_u64(1, 17) as u32;
        let runtime = rng.range_u64(50, 950);
        // Realistic overestimates, with a sprinkle of overruns.
        let estimate = if rng.chance(0.2) {
            (runtime / 3).max(1)
        } else {
            runtime * rng.range_u64(1, 6)
        };
        jobs.push(Job {
            id,
            class: JobClass::Native,
            user: (id % 41) as u32,
            group: (id % 7) as u32,
            submit: SimTime::from_secs(at),
            cpus,
            runtime: SimDuration::from_secs(runtime),
            estimate: SimDuration::from_secs(estimate),
        });
    }
    jobs
}

#[test]
#[ignore = "10^5-job stress run; executed by the CI cron job"]
fn hundred_thousand_job_swf_replay_within_wall_ceiling() {
    // Round-trip through the SWF text format so the parser and emitter are
    // part of the stressed surface, exactly as a real archive replay is.
    let text = swf::emit(&synthesize(), "stress_swf synthetic 100k log");
    let natives = swf::parse(&text, true).expect("round-tripped log parses");
    assert_eq!(natives.len() as u64, JOBS);

    let cfg = machine::config::ross();
    let horizon =
        SimTime::from_secs(natives.iter().map(|j| j.submit.as_secs()).max().unwrap() + 400_000);
    let started = std::time::Instant::now();
    let out = SimBuilder::new(cfg)
        .natives(natives)
        .horizon(horizon)
        .build()
        .run();
    let wall = started.elapsed();
    assert!(
        wall < WALL_CEILING,
        "replay took {wall:?} (ceiling {WALL_CEILING:?})"
    );

    // Invariants: everything completes, runs exactly its runtime, and
    // never starts before submission.
    assert_eq!(out.native_completed(), JOBS);
    for c in out.natives() {
        assert!(c.start >= c.job.submit, "job {} started early", c.job.id);
        assert_eq!(
            c.finish - c.start,
            c.job.runtime,
            "job {} ran the wrong duration",
            c.job.id
        );
    }
}
