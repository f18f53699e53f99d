//! Recovery-policy replays under faults: the kill-restart default must be
//! bit-for-bit the legacy simulator, checkpoint/suspend must be same-seed
//! reproducible, stamp trace schema 3, and keep the salvage ledger
//! self-consistent (overhead exactly 10 CPU·s per CPU per checkpoint,
//! nothing re-executed under suspend, and the policy frontier on
//! interstitial waste: suspend ≤ checkpoint ≤ kill). Preempting streams
//! under faults are pinned by digest for every preemption × recovery pair.

use interstitial::driver::SimBuilder;
use interstitial::policy::{
    InterstitialMode, InterstitialPolicy, Preemption, RecoveryPolicy, RetryPolicy,
    CHECKPOINT_OVERHEAD_S,
};
use interstitial::project::InterstitialProject;
use interstitial::report::SimOutput;
use machine::config::ross;
use machine::{FaultModel, FaultSpec};
use obs::Obs;
use simkit::time::{SimDuration, SimTime};
use workload::traces::native_trace;

const STREAM_CPUS: u32 = 32;

fn replay(seed: u64, recovery: Option<RecoveryPolicy>) -> SimOutput {
    let cfg = ross();
    let natives = native_trace(&cfg, seed);
    let horizon = cfg.log_horizon();
    let spec = FaultSpec::parse("mtbf=172800,mttr=7200,nodes=16,seed=5").unwrap();
    let faults = FaultModel::synthesize(&spec, cfg.cpus, horizon);
    let mut b = SimBuilder::new(cfg)
        .natives(natives)
        .faults(faults)
        .retry(RetryPolicy {
            base_delay: SimDuration::from_secs(120),
            max_delay: SimDuration::from_secs(3_600),
            max_attempts: 4,
        })
        .interstitial(
            InterstitialProject::per_paper(u64::MAX / 2, STREAM_CPUS, 300.0),
            InterstitialMode::Continual,
            InterstitialPolicy::default(),
        )
        .observer(Obs::enabled());
    if let Some(r) = recovery {
        b = b.recovery(r);
    }
    b.build().run()
}

fn fingerprint(out: &SimOutput) -> Vec<(u64, u64, u64)> {
    out.completed
        .iter()
        .map(|c| (c.job.id, c.start.as_secs(), c.finish.as_secs()))
        .collect()
}

fn ckpt(secs: u64) -> RecoveryPolicy {
    RecoveryPolicy::Checkpoint {
        interval: SimDuration::from_secs(secs),
    }
}

#[test]
fn explicit_kill_restart_is_bitwise_the_legacy_path() {
    // `--recovery kill` is the default: selecting it explicitly changes
    // nothing — same job log, same trace bytes, schema still 2, no
    // recovery counters.
    let legacy = replay(31, None);
    let killed = replay(31, Some(RecoveryPolicy::KillRestart));
    assert_eq!(fingerprint(&legacy), fingerprint(&killed));
    let jsonl = killed.obs.trace.to_jsonl();
    assert_eq!(legacy.obs.trace.to_jsonl(), jsonl);
    assert!(jsonl.starts_with("{\"schema\":2"), "faulted kill stays v2");
    assert!(!jsonl.contains("\"ev\":\"job_checkpointed\""));
    assert!(!jsonl.contains("\"ev\":\"job_suspended\""));
    assert!(!jsonl.contains("\"ev\":\"job_resumed\""));
    assert_eq!(killed.faults.salvaged_cpu_seconds, 0.0);
    assert_eq!(killed.faults.reexecuted_cpu_seconds, 0.0);
    assert_eq!(killed.faults.checkpoint_overhead_cpu_seconds, 0.0);
    assert_eq!(killed.faults.checkpoints_taken, 0);
    assert_eq!(killed.faults.interstitial_resumes, 0);
    assert!(
        killed.faults.interstitial_retries > 0,
        "spec must evict interstitial jobs for the test to mean anything"
    );
}

#[test]
fn checkpoint_and_suspend_are_same_seed_reproducible() {
    for recovery in [ckpt(30), RecoveryPolicy::SuspendResume] {
        let a = replay(32, Some(recovery));
        let b = replay(32, Some(recovery));
        assert_eq!(fingerprint(&a), fingerprint(&b), "{recovery:?}");
        assert_eq!(a.obs.trace.to_jsonl(), b.obs.trace.to_jsonl());
        assert_eq!(a.faults.checkpoints_taken, b.faults.checkpoints_taken);
        assert_eq!(a.faults.interstitial_resumes, b.faults.interstitial_resumes);
        assert!((a.faults.salvaged_cpu_seconds - b.faults.salvaged_cpu_seconds).abs() < 1e-9);
    }
}

#[test]
fn recovery_traces_stamp_schema_3_with_the_policy_events() {
    let out = replay(33, Some(ckpt(30)));
    let jsonl = out.obs.trace.to_jsonl();
    assert!(jsonl.starts_with("{\"schema\":3"), "ckpt traces are v3");
    assert!(jsonl.contains("\"ev\":\"job_checkpointed\""));
    assert!(!jsonl.contains("\"ev\":\"job_suspended\""));

    let out = replay(33, Some(RecoveryPolicy::SuspendResume));
    let jsonl = out.obs.trace.to_jsonl();
    assert!(jsonl.starts_with("{\"schema\":3"), "suspend traces are v3");
    assert!(jsonl.contains("\"ev\":\"job_suspended\""));
    assert!(jsonl.contains("\"ev\":\"job_resumed\""));
    assert!(!jsonl.contains("\"ev\":\"job_checkpointed\""));
}

#[test]
fn checkpoint_overhead_is_exactly_priced() {
    // Every interstitial job in the stream holds STREAM_CPUS CPUs, so the
    // accumulated overhead must be exactly 10 CPU·s × CPUs × checkpoints.
    let out = replay(34, Some(ckpt(30)));
    assert!(out.faults.checkpoints_taken > 0, "spec must checkpoint");
    assert_eq!(
        out.faults.checkpoint_overhead_cpu_seconds,
        (out.faults.checkpoints_taken * CHECKPOINT_OVERHEAD_S * u64::from(STREAM_CPUS)) as f64
    );
    assert!(out.faults.salvaged_cpu_seconds >= 0.0);
    // Rolled-back remainders are bounded by one interval per eviction.
    assert!(
        out.faults.reexecuted_cpu_seconds
            <= (out.faults.interstitial_retries * 30 * u64::from(STREAM_CPUS)) as f64
    );
}

#[test]
fn suspend_resume_neither_reexecutes_nor_pays_overhead() {
    let out = replay(35, Some(RecoveryPolicy::SuspendResume));
    assert!(out.faults.interstitial_resumes > 0, "spec must resume jobs");
    assert_eq!(out.faults.reexecuted_cpu_seconds, 0.0);
    assert_eq!(out.faults.checkpoint_overhead_cpu_seconds, 0.0);
    assert_eq!(out.faults.checkpoints_taken, 0);
    assert!(out.faults.salvaged_cpu_seconds > 0.0);
}

#[test]
fn interstitial_waste_frontier_suspend_ckpt_kill() {
    // The claim the recovery subsystem exists to make measurable: on the
    // same fault timeline, suspend-resume wastes strictly less
    // interstitial work than kill-restart, with checkpointing between.
    let kill = replay(36, Some(RecoveryPolicy::KillRestart))
        .faults
        .interstitial_wasted_cpu_seconds;
    let ckpt30 = replay(36, Some(ckpt(30)))
        .faults
        .interstitial_wasted_cpu_seconds;
    let susp = replay(36, Some(RecoveryPolicy::SuspendResume))
        .faults
        .interstitial_wasted_cpu_seconds;
    assert!(
        susp < kill && susp <= ckpt30 && ckpt30 <= kill,
        "frontier violated: kill={kill} ckpt={ckpt30} suspend={susp}"
    );
}

/// FNV-1a over everything a preempting faulted replay computes: the job
/// log, the trace bytes, the preemption kill tally and every fault/recovery
/// figure (floats by bit pattern, so a last-bit drift fails the pin).
fn digest(out: &SimOutput) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (id, start, finish) in fingerprint(out) {
        for v in [id, start, finish] {
            eat(&v.to_le_bytes());
        }
    }
    eat(out.obs.trace.to_jsonl().as_bytes());
    let f = &out.faults;
    for v in [
        out.interstitial_killed,
        out.wasted_cpu_seconds.to_bits(),
        f.node_failures,
        f.node_repairs,
        f.native_requeues,
        f.interstitial_retries,
        f.interstitial_given_up,
        f.fault_wasted_cpu_seconds.to_bits(),
        f.interstitial_wasted_cpu_seconds.to_bits(),
        f.salvaged_cpu_seconds.to_bits(),
        f.reexecuted_cpu_seconds.to_bits(),
        f.checkpoint_overhead_cpu_seconds.to_bits(),
        f.checkpoints_taken,
        f.interstitial_resumes,
    ] {
        eat(&v.to_le_bytes());
    }
    for k in &f.kills {
        eat(&k.job.to_le_bytes());
        eat(&k.cpus.to_le_bytes());
        eat(&k.runtime_s.to_le_bytes());
        eat(&[u8::from(k.interstitial)]);
    }
    h
}

#[test]
fn preempting_streams_under_faults_are_pinned() {
    // Preemption and fault eviction meet here: a preempted job can be
    // fault-killed after it resumes, and a fault victim can be preempted
    // after its retry restarts. Only the default-preemption faulted replays
    // are pinned elsewhere, so these digests guard the eviction-credit and
    // resume paths of preempting streams. Five days keep the test quick.
    const PINS: [(Preemption, &str, u64); 6] = [
        (Preemption::Kill, "kill", 0x156b_c7d4_aa60_67c9),
        (Preemption::Kill, "ckpt=300", 0xe745_2178_544e_6d5c),
        (Preemption::Kill, "suspend", 0x6c73_7db1_7a23_a5ad),
        (Preemption::Checkpoint, "kill", 0x2c3d_877b_0c29_c93a),
        (Preemption::Checkpoint, "ckpt=300", 0x8ab8_467a_f598_f60e),
        (Preemption::Checkpoint, "suspend", 0xc8ff_2d1c_d50f_b68e),
    ];
    let cfg = ross();
    let horizon = SimTime::from_days(5);
    let natives: Vec<_> = native_trace(&cfg, 37)
        .into_iter()
        .filter(|j| j.submit < horizon)
        .collect();
    let spec = FaultSpec::parse("mtbf=172800,mttr=7200,nodes=16,seed=5").unwrap();
    let faults = FaultModel::synthesize(&spec, cfg.cpus, horizon);
    for (preemption, recovery, pin) in PINS {
        let policy = InterstitialPolicy {
            preemption,
            ..InterstitialPolicy::default()
        };
        let out = SimBuilder::new(cfg.clone())
            .natives(natives.clone())
            .horizon(horizon)
            .faults(faults.clone())
            .recovery(RecoveryPolicy::parse(recovery).unwrap())
            .interstitial(
                InterstitialProject::per_paper(u64::MAX / 2, STREAM_CPUS, 300.0),
                InterstitialMode::Continual,
                policy,
            )
            .observer(Obs::enabled())
            .build()
            .run();
        let jsonl = out.obs.trace.to_jsonl();
        let what = format!("{preemption:?} x {recovery}");
        assert!(
            jsonl.contains("\"ev\":\"preempt\""),
            "{what}: no preemption"
        );
        assert!(
            jsonl
                .lines()
                .any(|l| l.contains("\"ev\":\"job_failed\"")
                    && l.contains("\"class\":\"interstitial\"")),
            "{what}: no interstitial fault kill"
        );
        if recovery != "kill" {
            assert!(out.faults.interstitial_resumes > 0, "{what}: no resume");
        }
        assert_eq!(digest(&out), pin, "{what}: digest {:#018x}", digest(&out));
    }
}
