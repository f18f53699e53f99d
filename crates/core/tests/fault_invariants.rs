//! Fault-injection replays of all three Table 1 machines under the runtime
//! invariant checker. The `check-invariants` feature is on for every test
//! build of this crate, so each scheduling cycle asserts CPU conservation
//! *and* the degraded-capacity bound (occupancy never exceeds the fault
//! model's CPUs-in-service timeline); a replay that completes is the
//! acceptance evidence.
//!
//! Also here: same-seed runs must reproduce identical job logs, traces and
//! retry/requeue counters, and a [`FaultModel::none`] run must be
//! bit-for-bit identical to a run that never heard of the fault subsystem.

use interstitial::driver::SimBuilder;
use interstitial::policy::{InterstitialMode, InterstitialPolicy, RetryPolicy};
use interstitial::project::InterstitialProject;
use interstitial::report::SimOutput;
use machine::config::{blue_mountain, blue_pacific, ross, MachineConfig};
use machine::{FaultModel, FaultSpec};
use obs::Obs;
use simkit::time::SimDuration;
use workload::traces::native_trace;

fn faulted_replay(cfg: MachineConfig, seed: u64, spec: &FaultSpec, observe: bool) -> SimOutput {
    let natives = native_trace(&cfg, seed);
    let horizon = cfg.log_horizon();
    let faults = FaultModel::synthesize(spec, cfg.cpus, horizon);
    let project = InterstitialProject::per_paper(u64::MAX / 2, 32, 300.0);
    let mut b = SimBuilder::new(cfg)
        .natives(natives)
        .faults(faults)
        .retry(RetryPolicy {
            base_delay: SimDuration::from_secs(120),
            max_delay: SimDuration::from_secs(3_600),
            max_attempts: 4,
        })
        .interstitial(
            project,
            InterstitialMode::Continual,
            InterstitialPolicy::default(),
        );
    if observe {
        b = b.observer(Obs::enabled());
    }
    b.build().run()
}

fn fingerprint(out: &SimOutput) -> Vec<(u64, u64, u64)> {
    out.completed
        .iter()
        .map(|c| (c.job.id, c.start.as_secs(), c.finish.as_secs()))
        .collect()
}

/// A fault rate aggressive enough to exercise kills/retries on every
/// machine (node MTBF ~2 days against multi-hour jobs) without drowning
/// the run.
fn spec() -> FaultSpec {
    FaultSpec::parse("mtbf=172800,mttr=7200,nodes=16,seed=5").unwrap()
}

#[test]
fn ross_faulted_replay_passes_invariants() {
    let out = faulted_replay(ross(), 21, &spec(), false);
    assert!(out.native_completed() > 0);
    assert!(out.faults.node_failures > 0, "faults must actually fire");
    assert_eq!(out.faults.node_failures, out.faults.node_repairs);
}

#[test]
fn blue_mountain_faulted_replay_passes_invariants() {
    let out = faulted_replay(blue_mountain(), 22, &spec(), false);
    assert!(out.native_completed() > 0);
    assert!(out.faults.node_failures > 0);
}

#[test]
fn blue_pacific_faulted_replay_passes_invariants() {
    let out = faulted_replay(blue_pacific(), 23, &spec(), false);
    assert!(out.native_completed() > 0);
    assert!(out.faults.node_failures > 0);
}

#[test]
fn every_submitted_native_survives_the_faults() {
    // Natives are requeued, never dropped: whatever the failure pattern,
    // each submitted native job eventually completes exactly once.
    let out = faulted_replay(ross(), 24, &spec(), false);
    assert_eq!(out.native_completed(), out.native_submitted);
    let mut ids: Vec<u64> = out.natives().map(|c| c.job.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(
        ids.len() as u64,
        out.native_submitted,
        "no double completion"
    );
}

#[test]
fn same_seed_reproduces_traces_and_retry_counts() {
    let a = faulted_replay(ross(), 25, &spec(), true);
    let b = faulted_replay(ross(), 25, &spec(), true);
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(a.obs.trace.to_jsonl(), b.obs.trace.to_jsonl());
    assert_eq!(a.faults.native_requeues, b.faults.native_requeues);
    assert_eq!(a.faults.interstitial_retries, b.faults.interstitial_retries);
    assert_eq!(
        a.faults.interstitial_given_up,
        b.faults.interstitial_given_up
    );
    assert_eq!(a.faults.ledger, b.faults.ledger);
}

#[test]
fn none_model_is_bitwise_the_perfect_machine() {
    // The golden-preservation contract: threading FaultModel::none()
    // through the builder changes nothing — same job log, same trace
    // bytes, schema still v1 — compared to a build that never mentions
    // faults.
    let cfg = ross();
    let natives = native_trace(&cfg, 26);
    let project = InterstitialProject::per_paper(u64::MAX / 2, 32, 300.0);
    let run = |with_model: bool| {
        let mut b = SimBuilder::new(cfg.clone())
            .natives(natives.clone())
            .interstitial(
                project,
                InterstitialMode::Continual,
                InterstitialPolicy::default(),
            )
            .observer(Obs::enabled());
        if with_model {
            b = b.faults(FaultModel::none());
        }
        b.build().run()
    };
    let plain = run(false);
    let modeled = run(true);
    assert_eq!(fingerprint(&plain), fingerprint(&modeled));
    let jsonl = modeled.obs.trace.to_jsonl();
    assert_eq!(plain.obs.trace.to_jsonl(), jsonl);
    assert!(jsonl.starts_with("{\"schema\":1"), "fault-free stays v1");
    assert_eq!(modeled.faults.total_kills(), 0);
    assert_eq!(modeled.faults.node_failures, 0);
}
