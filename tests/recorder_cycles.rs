//! Flight-recorder determinism suite.
//!
//! The per-cycle recorder's counter fields (cycle tag, sim-time, queue
//! depth, work-counter deltas, cost) are part of the deterministic record:
//! a same-seed replay must reproduce them bitwise, on every machine preset,
//! fault-free and faulted. Only the wall-clock ns fields may differ between
//! runs, and `CycleRecorder::counters_jsonl` deliberately omits them — so
//! the whole property collapses to string equality on that artifact. The
//! unit-level pieces (ring eviction order, top-K exactness, JSONL shape)
//! live in `obs::recorder`.

use interstitial_computing::interstitial::prelude::*;
use interstitial_computing::machine::{self, FaultModel, FaultSpec, MachineConfig};
use interstitial_computing::obs::recorder::CycleRecord;
use interstitial_computing::obs::{CycleRecorder, Obs};
use interstitial_computing::simkit::time::{SimDuration, SimTime};
use interstitial_computing::workload::traces::native_trace;

const SEED: u64 = 7;
const JOBS: usize = 150;

fn recorded_run(cfg: &MachineConfig, faulted: bool) -> SimOutput {
    let mut obs = Obs::counting();
    obs.recorder = CycleRecorder::enabled();
    observed_run(cfg, faulted, obs)
}

fn observed_run(cfg: &MachineConfig, faulted: bool, obs: Obs) -> SimOutput {
    let mut natives = native_trace(cfg, SEED);
    natives.truncate(JOBS);
    let horizon =
        SimTime::from_secs(natives.iter().map(|j| j.submit.as_secs()).max().unwrap() + 86_400);
    let project = InterstitialProject::per_paper(u64::MAX / 2, (cfg.cpus / 8).max(1), 3_600.0);
    let mut b = SimBuilder::new(cfg.clone())
        .natives(natives)
        .horizon(horizon)
        .interstitial(
            project,
            InterstitialMode::Continual,
            InterstitialPolicy::default(),
        )
        .observer(obs);
    if faulted {
        let spec = FaultSpec {
            mtbf: SimDuration::from_secs(172_800),
            mttr: SimDuration::from_secs(7_200),
            nodes: 16,
            seed: 5,
        };
        b = b.faults(FaultModel::synthesize(&spec, cfg.cpus, horizon));
    }
    b.build().run()
}

fn presets() -> [(&'static str, MachineConfig); 3] {
    [
        ("ross", machine::config::ross()),
        ("blue_mountain", machine::config::blue_mountain()),
        ("blue_pacific", machine::config::blue_pacific()),
    ]
}

#[test]
fn same_seed_recorder_counters_are_bitwise_identical_on_every_preset() {
    for (name, cfg) in presets() {
        for faulted in [false, true] {
            let a = recorded_run(&cfg, faulted);
            let b = recorded_run(&cfg, faulted);
            assert!(
                a.obs.recorder.cycles_seen() > 0,
                "{name} (faulted={faulted}): recorder saw no cycles"
            );
            assert_eq!(
                a.obs.recorder.counters_jsonl(),
                b.obs.recorder.counters_jsonl(),
                "{name} (faulted={faulted}): recorder counter fields differ \
                 between same-seed runs"
            );
        }
    }
}

#[test]
fn recorder_populates_ring_and_ledger() {
    let out = recorded_run(&machine::config::ross(), false);
    let rec = &out.obs.recorder;
    assert!(rec.ring().count() > 0, "ring stayed empty");
    assert!(!rec.top().is_empty(), "top-K ledger stayed empty");
    // The ledger is sorted by cost descending (ties by cycle ascending),
    // and every entry's cost is consistent with its own counter deltas.
    for pair in rec.top().windows(2) {
        assert!(
            pair[0].cost > pair[1].cost
                || (pair[0].cost == pair[1].cost && pair[0].cycle < pair[1].cycle),
            "ledger out of order: {:?} before {:?}",
            (pair[0].cost, pair[0].cycle),
            (pair[1].cost, pair[1].cycle)
        );
    }
    for r in rec.top() {
        assert_eq!(r.cost, r.events + r.candidates + r.segments);
    }
}

#[test]
fn recording_does_not_change_the_work_counters() {
    // Attaching the recorder must be pure observation: the same replay
    // with and without it yields identical work counters.
    for faulted in [false, true] {
        let cfg = machine::config::ross();
        let with = recorded_run(&cfg, faulted);

        let mut natives = native_trace(&cfg, SEED);
        natives.truncate(JOBS);
        let horizon =
            SimTime::from_secs(natives.iter().map(|j| j.submit.as_secs()).max().unwrap() + 86_400);
        let project = InterstitialProject::per_paper(u64::MAX / 2, (cfg.cpus / 8).max(1), 3_600.0);
        let mut b = SimBuilder::new(cfg.clone())
            .natives(natives)
            .horizon(horizon)
            .interstitial(
                project,
                InterstitialMode::Continual,
                InterstitialPolicy::default(),
            )
            .observer(Obs::counting());
        if faulted {
            let spec = FaultSpec {
                mtbf: SimDuration::from_secs(172_800),
                mttr: SimDuration::from_secs(7_200),
                nodes: 16,
                seed: 5,
            };
            b = b.faults(FaultModel::synthesize(&spec, cfg.cpus, horizon));
        }
        let without = b.build().run();
        assert_eq!(
            with.obs.work, without.obs.work,
            "faulted={faulted}: recorder perturbed the work counters"
        );
    }
}

#[test]
fn ring_deltas_sum_to_the_run_totals_on_every_preset() {
    // A ring large enough to keep every pass holds the whole run, so its
    // per-pass deltas must add back up to the run's work counters.
    for (name, cfg) in presets() {
        for faulted in [false, true] {
            let mut obs = Obs::counting();
            obs.recorder = CycleRecorder::with_limits(1 << 20, 1);
            let out = observed_run(&cfg, faulted, obs);
            let rec = &out.obs.recorder;
            assert_eq!(rec.dropped(), 0, "{name} (faulted={faulted})");
            assert_eq!(rec.ring().count() as u64, rec.cycles_seen());
            let sum = |f: fn(&CycleRecord) -> u64| rec.ring().map(f).sum::<u64>();
            let w = &out.obs.work;
            assert!(w.events_popped > 0, "{name} (faulted={faulted})");
            assert_eq!(
                sum(|r| r.events),
                w.events_popped,
                "{name} (faulted={faulted}): events"
            );
            assert_eq!(
                sum(|r| r.starts),
                w.inorder_starts + w.backfill_starts,
                "{name} (faulted={faulted}): starts"
            );
            assert_eq!(
                sum(|r| r.candidates),
                w.backfill_candidates_scanned,
                "{name} (faulted={faulted}): candidates"
            );
            assert_eq!(
                sum(|r| r.segments),
                w.profile_segments_walked,
                "{name} (faulted={faulted}): segments"
            );
        }
    }
}

#[test]
fn profiled_replays_time_only_the_five_nested_phases() {
    const PHASES: [&str; 5] = [
        "event-pump",
        "schedule-cycle",
        "order-queue",
        "free-profile",
        "backfill",
    ];
    for (name, cfg) in presets() {
        let out = observed_run(&cfg, false, Obs::enabled());
        let snap = out.obs.profiler.snapshot();
        assert!(!snap.phases.is_empty(), "{name}: no phase was timed");
        for phase in snap.phases.keys() {
            assert!(PHASES.contains(phase), "{name}: unknown phase {phase:?}");
        }
        let ns = |phase: &str| snap.phases.get(phase).map_or(0, |s| s.total_ns);
        let children = ns("order-queue") + ns("free-profile") + ns("backfill");
        assert!(
            ns("schedule-cycle") >= children,
            "{name}: schedule-cycle {} ns is shorter than its children's {children} ns",
            ns("schedule-cycle")
        );
    }
}
