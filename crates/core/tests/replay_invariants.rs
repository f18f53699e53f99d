//! Full replays of all three Table 1 machines under the runtime invariant
//! checker. The `check-invariants` feature is enabled for every test build
//! of this crate (see Cargo.toml), so each scheduling cycle here asserts
//! CPU conservation and the meta-backfill no-delay guarantee; a run that
//! completes *is* the acceptance evidence.
//!
//! Also the cross-run determinism check: two identical replays must produce
//! identical job logs, record for record.

use interstitial::driver::SimBuilder;
use interstitial::policy::{InterstitialMode, InterstitialPolicy, Preemption};
use interstitial::project::InterstitialProject;
use interstitial::report::SimOutput;
use machine::config::{blue_mountain, blue_pacific, ross, MachineConfig};
use workload::traces::native_trace;

fn checked_replay(cfg: MachineConfig, seed: u64, policy: InterstitialPolicy) -> SimOutput {
    let natives = native_trace(&cfg, seed);
    let project = InterstitialProject::per_paper(u64::MAX / 2, 32, 300.0);
    SimBuilder::new(cfg)
        .natives(natives)
        .interstitial(project, InterstitialMode::Continual, policy)
        .build()
        .run()
}

fn fingerprint(out: &SimOutput) -> Vec<(u64, u64, u64)> {
    out.completed
        .iter()
        .map(|c| (c.job.id, c.start.as_secs(), c.finish.as_secs()))
        .collect()
}

#[test]
fn ross_full_replay_passes_invariants() {
    let out = checked_replay(ross(), 11, InterstitialPolicy::default());
    assert!(out.native_completed() > 0);
    assert!(out.interstitial_completed() > 0);
}

#[test]
fn blue_mountain_full_replay_passes_invariants() {
    let out = checked_replay(blue_mountain(), 12, InterstitialPolicy::default());
    assert!(out.native_completed() > 0);
    assert!(out.interstitial_completed() > 0);
}

#[test]
fn blue_pacific_full_replay_passes_invariants() {
    let out = checked_replay(blue_pacific(), 13, InterstitialPolicy::default());
    assert!(out.native_completed() > 0);
    assert!(out.interstitial_completed() > 0);
}

#[test]
fn preempting_replay_passes_conservation() {
    // Preemption deliberately relaxes the no-delay guard (the checker skips
    // it), but CPU conservation must hold through every kill/checkpoint
    // reclaim and resume.
    for flavor in [Preemption::Kill, Preemption::Checkpoint] {
        let out = checked_replay(ross(), 15, InterstitialPolicy::preempting(flavor));
        assert!(out.native_completed() > 0);
    }
}

#[test]
fn replays_are_deterministic_across_runs() {
    // One machine suffices here — the per-machine replays above already
    // exercise all three personalities under the checker, and the root
    // crate's tests/determinism.rs covers the unchecked configurations.
    let a = checked_replay(ross(), 7, InterstitialPolicy::default());
    let b = checked_replay(ross(), 7, InterstitialPolicy::default());
    assert_eq!(
        fingerprint(&a),
        fingerprint(&b),
        "replay diverged between identical runs"
    );
}
