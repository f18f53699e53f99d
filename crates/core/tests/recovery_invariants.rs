//! Recovery-policy replays under faults: the kill-restart default must be
//! bit-for-bit the legacy simulator, checkpoint/suspend must be same-seed
//! reproducible, stamp trace schema 3, and keep the salvage ledger
//! self-consistent (overhead exactly 10 CPU·s per CPU per checkpoint,
//! nothing re-executed under suspend, and the policy frontier on
//! interstitial waste: suspend ≤ checkpoint ≤ kill). Preempting streams
//! under faults are pinned by digest for every preemption × recovery pair,
//! and their metrics and telemetry exports are pinned beside the trace.

use interstitial::driver::SimBuilder;
use interstitial::policy::{
    InterstitialMode, InterstitialPolicy, Preemption, RecoveryPolicy, RetryPolicy,
    CHECKPOINT_OVERHEAD_S,
};
use interstitial::project::InterstitialProject;
use interstitial::report::SimOutput;
use machine::config::ross;
use machine::{FaultModel, FaultSpec, OutageSchedule};
use obs::telemetry::{AnnotationKind, TelemetryBus, DRIVER_SIGNALS};
use obs::{EventKind, Obs, PreemptKind, SloSpec, StartKind};
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
    let ledger = &killed.faults.ledger;
    assert_eq!(ledger.salvaged(), 0);
    assert_eq!(ledger.reexecuted(), 0);
    assert_eq!(ledger.checkpoint_overhead(), 0);
    assert_eq!(ledger.checkpoints_taken(), 0);
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
        assert_eq!(a.faults.interstitial_resumes, b.faults.interstitial_resumes);
        assert_eq!(a.faults.ledger, b.faults.ledger);
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
    let ledger = &out.faults.ledger;
    assert!(ledger.checkpoints_taken() > 0, "spec must checkpoint");
    assert_eq!(
        ledger.checkpoint_overhead(),
        ledger.checkpoints_taken() * CHECKPOINT_OVERHEAD_S * u64::from(STREAM_CPUS)
    );
    // Rolled-back remainders are bounded by one interval per eviction.
    assert!(ledger.reexecuted() <= out.faults.interstitial_retries * 30 * u64::from(STREAM_CPUS));
}

#[test]
fn suspend_resume_neither_reexecutes_nor_pays_overhead() {
    let out = replay(35, Some(RecoveryPolicy::SuspendResume));
    assert!(out.faults.interstitial_resumes > 0, "spec must resume jobs");
    let ledger = &out.faults.ledger;
    assert_eq!(ledger.reexecuted(), 0);
    assert_eq!(ledger.checkpoint_overhead(), 0);
    assert_eq!(ledger.checkpoints_taken(), 0);
    assert!(ledger.salvaged() > 0);
}

#[test]
fn interstitial_waste_frontier_suspend_ckpt_kill() {
    // The claim the recovery subsystem exists to make measurable: on the
    // same fault timeline, suspend-resume wastes strictly less
    // interstitial work than kill-restart, with checkpointing between.
    let wasted = |r| {
        replay(36, Some(r))
            .faults
            .ledger
            .interstitial_fault_wasted()
    };
    let kill = wasted(RecoveryPolicy::KillRestart);
    let ckpt30 = wasted(ckpt(30));
    let susp = wasted(RecoveryPolicy::SuspendResume);
    assert!(
        susp < kill && susp <= ckpt30 && ckpt30 <= kill,
        "frontier violated: kill={kill} ckpt={ckpt30} suspend={susp}"
    );
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into the FNV-1a state `h`.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
}

fn fnv_of(text: &str) -> u64 {
    let mut h = FNV_OFFSET;
    fnv(&mut h, text.as_bytes());
    h
}

/// FNV-1a over everything a preempting faulted replay computes: the job
/// log, the trace bytes, the preemption kill tally and every fault/recovery
/// figure. CPU·second figures are hashed as the bit patterns of their f64
/// values, which is how these pins were first taken, so an equal pin
/// proves an equal integer.
fn digest(out: &SimOutput) -> u64 {
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| fnv(&mut h, bytes);
    for (id, start, finish) in fingerprint(out) {
        for v in [id, start, finish] {
            eat(&v.to_le_bytes());
        }
    }
    eat(out.obs.trace.to_jsonl().as_bytes());
    let f = &out.faults;
    let l = &f.ledger;
    let bits = |v: u64| (v as f64).to_bits();
    for v in [
        l.preempt_kills(),
        bits(l.preempt_wasted()),
        f.node_failures,
        f.node_repairs,
        f.native_requeues,
        f.interstitial_retries,
        f.interstitial_given_up,
        bits(l.fault_wasted()),
        bits(l.interstitial_fault_wasted()),
        bits(l.salvaged()),
        bits(l.reexecuted()),
        bits(l.checkpoint_overhead()),
        l.checkpoints_taken(),
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

/// The Ross 5-day faulted fixture with a continual stream under
/// `preemption` and `--recovery recovery`.
fn five_day_replay(preemption: Preemption, recovery: &str) -> SimOutput {
    let cfg = ross();
    let horizon = SimTime::from_days(5);
    let natives: Vec<_> = native_trace(&cfg, 37)
        .into_iter()
        .filter(|j| j.submit < horizon)
        .collect();
    let spec = FaultSpec::parse("mtbf=172800,mttr=7200,nodes=16,seed=5").unwrap();
    let faults = FaultModel::synthesize(&spec, cfg.cpus, horizon);
    let policy = InterstitialPolicy {
        preemption,
        ..InterstitialPolicy::default()
    };
    SimBuilder::new(cfg)
        .natives(natives)
        .horizon(horizon)
        .faults(faults)
        .recovery(RecoveryPolicy::parse(recovery).unwrap())
        .interstitial(
            InterstitialProject::per_paper(u64::MAX / 2, STREAM_CPUS, 300.0),
            InterstitialMode::Continual,
            policy,
        )
        .observer(Obs::enabled())
        .build()
        .run()
}

#[test]
fn cpu_seconds_held_are_delivered_or_wasted_under_every_policy_pair() {
    // Per class, every CPU·second a job held either reached a completed
    // job or is booked as waste. Delivered work is summed from the job
    // log, independently of the ledger.
    for preemption in [Preemption::None, Preemption::Kill, Preemption::Checkpoint] {
        for recovery in ["kill", "ckpt=300", "suspend"] {
            let out = five_day_replay(preemption, recovery);
            let ledger = &out.faults.ledger;
            assert!(
                out.faults.kills.iter().any(|k| k.interstitial),
                "{preemption:?} x {recovery}: no interstitial fault kill"
            );
            for interstitial in [false, true] {
                let delivered: u64 = out
                    .completed
                    .iter()
                    .filter(|c| c.job.class.is_interstitial() == interstitial)
                    .map(|c| u64::from(c.job.cpus) * c.job.runtime.as_secs())
                    .sum();
                assert_eq!(
                    ledger.held(interstitial),
                    delivered + ledger.wasted(interstitial),
                    "{preemption:?} x {recovery}, interstitial={interstitial}"
                );
            }
        }
    }
}

#[test]
fn preempting_streams_under_faults_are_pinned() {
    // Preemption and fault eviction meet here: a preempted job can be
    // fault-killed after it resumes, and a fault victim can be preempted
    // after its retry restarts. Only the default-preemption faulted replays
    // are pinned elsewhere, so these digests guard the eviction-credit and
    // resume paths of preempting streams. Five days keep the test quick.
    // Each pair also pins its work counters, in `WorkCounters::fields`
    // order: events popped and scheduled, heap peak, cycles, in-order and
    // backfill starts, candidates, segments, requeues, retries,
    // checkpoints, CPU·s salvaged and re-executed.
    const PINS: [(Preemption, &str, u64, [u64; 13]); 6] = [
        (
            Preemption::Kill,
            "kill",
            0x156b_c7d4_aa60_67c9,
            [
                8378, 8378, 924, 4133, 799, 29, 205710, 9154, 18, 68, 0, 0, 0,
            ],
        ),
        (
            Preemption::Kill,
            "ckpt=300",
            0xe745_2178_544e_6d5c,
            [
                8450, 8450, 924, 4465, 787, 40, 215309, 9634, 17, 63, 135, 1296000, 2698464,
            ],
        ),
        (
            Preemption::Kill,
            "suspend",
            0x6c73_7db1_7a23_a5ad,
            [
                8627, 8627, 924, 5970, 786, 41, 253315, 11300, 17, 64, 0, 3956096, 0,
            ],
        ),
        (
            Preemption::Checkpoint,
            "kill",
            0x55f2_2e61_ab5c_7b74,
            [
                8725, 8725, 924, 5755, 789, 37, 242598, 10891, 16, 67, 0, 3902752, 0,
            ],
        ),
        (
            Preemption::Checkpoint,
            "ckpt=300",
            0xf0c5_0e6a_a723_4a2f,
            [
                8601, 8601, 924, 5744, 788, 40, 242981, 10857, 18, 63, 11, 3790560, 210816,
            ],
        ),
        (
            Preemption::Checkpoint,
            "suspend",
            0x8197_5447_191f_b24c,
            [
                8627, 8627, 924, 5970, 786, 41, 253315, 11300, 17, 64, 0, 3956096, 0,
            ],
        ),
    ];
    for (preemption, recovery, pin, work) in PINS {
        let out = five_day_replay(preemption, recovery);
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
        assert_eq!(out.obs.work.fields().map(|(_, v)| v), work, "{what}");
        if (preemption, recovery) == (Preemption::Checkpoint, "kill") {
            // Kill-restart keeps nothing of a fault-killed attempt, but a
            // checkpoint-mode preemption still freezes its victim's attempt
            // as salvaged, and the work counters report the ledger's total.
            assert_eq!(
                out.obs.work.cpu_s_salvaged,
                out.faults.ledger.salvaged(),
                "{what}"
            );
            assert_eq!(out.faults.ledger.salvaged(), 3_902_752, "{what}");
        }
    }
}

/// Selects the trace events of one kind.
type EventFilter = fn(&EventKind) -> bool;

/// The counters a metrics registry derives from trace events, each paired
/// with the events that drive it.
const EVENT_COUNTERS: [(&str, EventFilter); 16] = [
    ("jobs.submitted.native", |k| {
        matches!(
            k,
            EventKind::Submit {
                interstitial: false,
                ..
            }
        )
    }),
    ("jobs.submitted.interstitial", |k| {
        matches!(
            k,
            EventKind::Submit {
                interstitial: true,
                ..
            }
        )
    }),
    ("jobs.started.inorder", |k| {
        matches!(
            k,
            EventKind::Start {
                kind: StartKind::InOrder,
                ..
            }
        )
    }),
    ("jobs.started.backfill", |k| {
        matches!(
            k,
            EventKind::Start {
                kind: StartKind::Backfill,
                ..
            }
        )
    }),
    ("jobs.started.interstitial", |k| {
        matches!(
            k,
            EventKind::Start {
                kind: StartKind::Interstitial,
                ..
            }
        )
    }),
    ("jobs.started.resumed", |k| {
        matches!(
            k,
            EventKind::Start {
                kind: StartKind::Resume,
                ..
            }
        )
    }),
    ("jobs.finished.native", |k| {
        matches!(
            k,
            EventKind::Finish {
                interstitial: false,
                ..
            }
        )
    }),
    ("jobs.finished.interstitial", |k| {
        matches!(
            k,
            EventKind::Finish {
                interstitial: true,
                ..
            }
        )
    }),
    ("preempt.killed", |k| {
        matches!(
            k,
            EventKind::Preempt {
                kind: PreemptKind::Kill,
                ..
            }
        )
    }),
    ("preempt.checkpointed", |k| {
        matches!(
            k,
            EventKind::Preempt {
                kind: PreemptKind::Checkpoint,
                ..
            }
        )
    }),
    ("outages.boundaries", |k| {
        matches!(k, EventKind::Outage { .. })
    }),
    ("faults.node_down", |k| {
        matches!(k, EventKind::NodeDown { .. })
    }),
    ("faults.node_up", |k| matches!(k, EventKind::NodeUp { .. })),
    ("faults.job_killed", |k| {
        matches!(k, EventKind::JobFailed { .. })
    }),
    ("recovery.checkpoint_evictions", |k| {
        matches!(k, EventKind::JobCheckpointed { .. })
    }),
    ("recovery.suspensions", |k| {
        matches!(k, EventKind::JobSuspended { .. })
    }),
];

#[test]
fn faulted_metrics_and_telemetry_exports_are_pinned() {
    // The golden metrics files cover fault-free runs only and the trace
    // digests above ignore metrics and telemetry, so these pins are what
    // notices a drifting fault, recovery, preemption or outage counter, or
    // a lost dashboard annotation. One whole-machine outage and an SLO that
    // breaches and clears exercise every annotation kind.
    const PINS: [(Preemption, &str, u64, u64); 3] = [
        (
            Preemption::Kill,
            "kill",
            0xc1c6_994c_1fc9_9df4,
            0x383e_9810_8d23_d93a,
        ),
        (
            Preemption::Kill,
            "ckpt=300",
            0x5fc1_ed5c_cb99_9327,
            0x5922_afe1_e833_b452,
        ),
        (
            Preemption::Checkpoint,
            "suspend",
            0x3461_4722_319d_2c04,
            0x4ee6_ca40_4af0_b25b,
        ),
    ];
    let cfg = ross();
    let horizon = SimTime::from_days(5);
    let natives: Vec<_> = native_trace(&cfg, 37)
        .into_iter()
        .filter(|j| j.submit < horizon)
        .collect();
    let spec = FaultSpec::parse("mtbf=172800,mttr=7200,nodes=16,seed=5").unwrap();
    let outage = (
        SimTime::from_days(2),
        SimTime::from_secs(2 * 86_400 + 14_400),
    );
    let faults = FaultModel::synthesize(&spec, cfg.cpus, horizon)
        .with_outages(OutageSchedule::from_windows(vec![outage]));
    let mut seen_counters = std::collections::BTreeSet::new();
    let mut seen_annotations = std::collections::BTreeSet::new();
    for (preemption, recovery, metrics_pin, telemetry_pin) in PINS {
        let policy = InterstitialPolicy {
            preemption,
            ..InterstitialPolicy::default()
        };
        let mut observer = Obs::enabled();
        observer.telemetry = TelemetryBus::enabled(3_600, DRIVER_SIGNALS);
        let out = SimBuilder::new(cfg.clone())
            .natives(natives.clone())
            .horizon(horizon)
            .faults(faults.clone())
            .recovery(RecoveryPolicy::parse(recovery).unwrap())
            // Kill-restart gives a fault victim up at once; the recovery
            // runs retry it.
            .retry(RetryPolicy {
                max_attempts: if recovery == "kill" { 1 } else { 5 },
                ..RetryPolicy::default()
            })
            .interstitial(
                InterstitialProject::per_paper(u64::MAX / 2, STREAM_CPUS, 300.0),
                InterstitialMode::Continual,
                policy,
            )
            .slo(SloSpec::parse("util>=0.85").unwrap())
            .observer(observer)
            .build()
            .run();
        let what = format!("{preemption:?} x {recovery}");
        let metrics = &out.obs.metrics;
        let events = out.obs.trace.events();
        let traced =
            |f: fn(&EventKind) -> bool| events.iter().filter(|e| f(&e.kind)).count() as u64;
        for (name, matches) in EVENT_COUNTERS {
            assert_eq!(metrics.counter(name), traced(matches), "{what}: {name}");
        }
        assert_eq!(
            metrics.counter("faults.native_requeued") + metrics.counter("faults.retry_scheduled"),
            traced(|k| matches!(k, EventKind::JobRequeued { .. })),
            "{what}: every requeue event is a native requeue or a scheduled retry"
        );
        let snap = metrics.snapshot();
        assert_eq!(
            snap.histograms.get("wait.native_s").map_or(0, |h| h.count),
            metrics.counter("jobs.finished.native"),
            "{what}: one native wait per native finish"
        );
        let anns = out.obs.telemetry.annotations();
        let annotated = |kind| anns.iter().filter(|a| a.kind == kind).count() as u64;
        assert_eq!(
            annotated(AnnotationKind::MachineDown) + annotated(AnnotationKind::MachineUp),
            metrics.counter("outages.boundaries"),
            "{what}: one overlay per outage boundary"
        );
        assert_eq!(
            annotated(AnnotationKind::Breach),
            traced(|k| matches!(k, EventKind::SloBreach { .. })),
            "{what}: one annotation per breach"
        );
        assert_eq!(
            annotated(AnnotationKind::Clear),
            traced(|k| matches!(k, EventKind::SloClear { .. })),
            "{what}: one annotation per clear"
        );
        seen_counters.extend(snap.counters.keys().copied());
        seen_annotations.extend(anns.iter().map(|a| a.kind.tag()));
        let report = out.obs.run_report().to_json_deterministic();
        let telemetry = out.obs.telemetry.to_jsonl();
        assert_eq!(
            (fnv_of(&report), fnv_of(&telemetry)),
            (metrics_pin, telemetry_pin),
            "{what}: metrics {:#018x}, telemetry {:#018x}",
            fnv_of(&report),
            fnv_of(&telemetry)
        );
    }
    for name in [
        "faults.node_down",
        "faults.node_up",
        "faults.job_killed",
        "faults.native_requeued",
        "faults.retry_scheduled",
        "faults.retry_started",
        "faults.retry_given_up",
        "recovery.checkpoint_evictions",
        "recovery.suspensions",
        "preempt.killed",
        "preempt.checkpointed",
        "outages.boundaries",
    ] {
        assert!(seen_counters.contains(name), "no run counted {name}");
    }
    for kind in [
        AnnotationKind::Breach,
        AnnotationKind::Clear,
        AnnotationKind::MachineDown,
        AnnotationKind::MachineUp,
    ] {
        assert!(
            seen_annotations.contains(kind.tag()),
            "no run annotated {}",
            kind.tag()
        );
    }
}
