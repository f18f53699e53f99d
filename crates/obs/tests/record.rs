//! `Obs::record` is the one entry point for simulation events: each event
//! kind drives exactly the counter, histogram and annotation pinned here,
//! and a switched-off instrument neither collects nor allocates.

use obs::metrics::MetricsSnapshot;
use obs::telemetry::{Annotation, AnnotationKind, TelemetryBus, DRIVER_SIGNALS};
use obs::{EventKind, Obs, PreemptKind, StartKind};
use simkit::time::SimTime;

const T: SimTime = SimTime::from_secs(7);

const JOB_FAILED: EventKind = EventKind::JobFailed {
    job: 1,
    cpus: 4,
    node: 2,
    interstitial: true,
};

const CHECKPOINTED: EventKind = EventKind::JobCheckpointed {
    job: 1,
    checkpoints: 2,
    salvaged_s: 600,
    lost_s: 40,
};

const SUSPENDED: EventKind = EventKind::JobSuspended {
    job: 1,
    remaining_s: 300,
};

fn start(kind: StartKind) -> EventKind {
    EventKind::Start {
        job: 1,
        cpus: 4,
        kind,
    }
}

fn submit(interstitial: bool) -> EventKind {
    EventKind::Submit {
        job: 1,
        cpus: 4,
        estimate_s: 60,
        interstitial,
    }
}

fn finish(interstitial: bool) -> EventKind {
    EventKind::Finish {
        job: 1,
        cpus: 4,
        wait_s: 90,
        interstitial,
    }
}

fn preempt(kind: PreemptKind) -> EventKind {
    EventKind::Preempt {
        job: 1,
        cpus: 4,
        kind,
    }
}

fn slo(breach: bool) -> EventKind {
    let (rule, metric, value, limit) = (0, "util", 600, 850);
    if breach {
        EventKind::SloBreach {
            rule,
            metric,
            value,
            limit,
        }
    } else {
        EventKind::SloClear {
            rule,
            metric,
            value,
            limit,
        }
    }
}

/// One event of every variant (and every flag the fold branches on).
fn every_kind() -> Vec<EventKind> {
    vec![
        submit(false),
        submit(true),
        start(StartKind::InOrder),
        start(StartKind::Backfill),
        start(StartKind::Interstitial),
        start(StartKind::Resume),
        finish(false),
        finish(true),
        preempt(PreemptKind::Kill),
        preempt(PreemptKind::Checkpoint),
        EventKind::Outage { up: false },
        EventKind::Outage { up: true },
        EventKind::NodeDown { node: 2, cpus: 8 },
        EventKind::NodeUp { node: 2, cpus: 8 },
        JOB_FAILED,
        EventKind::JobRequeued { job: 1, attempt: 1 },
        CHECKPOINTED,
        SUSPENDED,
        EventKind::JobResumed {
            job: 1,
            remaining_s: 300,
        },
        slo(true),
        slo(false),
    ]
}

/// Record `kind` with only the metrics registry on.
fn metrics_of(kind: EventKind) -> MetricsSnapshot {
    let mut o = Obs::with(false, true, false);
    o.record(T, kind);
    o.metrics.snapshot()
}

/// Record `kind` with the metrics registry and the telemetry bus on.
fn annotations_of(kind: EventKind) -> Vec<Annotation> {
    let mut o = Obs::with(false, true, false);
    o.telemetry = TelemetryBus::enabled(3_600, DRIVER_SIGNALS);
    o.record(T, kind);
    o.telemetry.annotations().to_vec()
}

fn counters(snap: &MetricsSnapshot) -> Vec<(&'static str, u64)> {
    snap.counters.iter().map(|(&k, &v)| (k, v)).collect()
}

#[test]
fn each_event_kind_drives_exactly_its_counter() {
    let cases = [
        (submit(false), "jobs.submitted.native"),
        (submit(true), "jobs.submitted.interstitial"),
        (start(StartKind::InOrder), "jobs.started.inorder"),
        (start(StartKind::Backfill), "jobs.started.backfill"),
        (start(StartKind::Interstitial), "jobs.started.interstitial"),
        (start(StartKind::Resume), "jobs.started.resumed"),
        (finish(true), "jobs.finished.interstitial"),
        (preempt(PreemptKind::Kill), "preempt.killed"),
        (preempt(PreemptKind::Checkpoint), "preempt.checkpointed"),
        (EventKind::Outage { up: false }, "outages.boundaries"),
        (EventKind::Outage { up: true }, "outages.boundaries"),
        (EventKind::NodeDown { node: 2, cpus: 8 }, "faults.node_down"),
        (EventKind::NodeUp { node: 2, cpus: 8 }, "faults.node_up"),
        (JOB_FAILED, "faults.job_killed"),
        (CHECKPOINTED, "recovery.checkpoint_evictions"),
        (SUSPENDED, "recovery.suspensions"),
    ];
    for (kind, name) in cases {
        let snap = metrics_of(kind);
        assert_eq!(counters(&snap), [(name, 1)], "{kind:?}");
        assert!(snap.gauges.is_empty(), "{kind:?}");
        assert!(snap.histograms.is_empty(), "{kind:?}");
    }
}

#[test]
fn a_native_finish_also_observes_its_wait() {
    let snap = metrics_of(finish(false));
    assert_eq!(counters(&snap), [("jobs.finished.native", 1)]);
    let waits: Vec<_> = snap.histograms.keys().copied().collect();
    assert_eq!(waits, ["wait.native_s"]);
    let h = &snap.histograms["wait.native_s"];
    assert_eq!((h.count, h.sum, h.min, h.max), (1, 90, 90, 90));
}

#[test]
fn requeue_resume_and_slo_events_count_nothing() {
    for kind in [
        EventKind::JobRequeued { job: 1, attempt: 1 },
        EventKind::JobResumed {
            job: 1,
            remaining_s: 300,
        },
        slo(true),
        slo(false),
    ] {
        let snap = metrics_of(kind);
        assert!(snap.counters.is_empty(), "{kind:?}");
        assert!(snap.histograms.is_empty(), "{kind:?}");
    }
}

#[test]
fn outages_and_slo_transitions_annotate_the_time_axis() {
    let mark = |kind, label, value, limit| Annotation {
        t_s: 7,
        kind,
        label,
        value,
        limit,
    };
    let cases = [
        (
            EventKind::Outage { up: false },
            mark(AnnotationKind::MachineDown, "", 0, 0),
        ),
        (
            EventKind::Outage { up: true },
            mark(AnnotationKind::MachineUp, "", 0, 0),
        ),
        (slo(true), mark(AnnotationKind::Breach, "util", 600, 850)),
        (slo(false), mark(AnnotationKind::Clear, "util", 600, 850)),
    ];
    for (kind, ann) in cases {
        assert_eq!(annotations_of(kind), [ann], "{kind:?}");
    }
    let annotated = every_kind()
        .into_iter()
        .filter(|&k| !annotations_of(k).is_empty())
        .count();
    assert_eq!(
        annotated,
        cases.len(),
        "only outages and SLO events annotate"
    );
}

#[test]
fn metrics_count_with_the_trace_off() {
    // The configuration the metrics-overhead measurement runs.
    let mut o = Obs::with(false, true, false);
    for kind in every_kind() {
        o.record(T, kind);
    }
    assert_eq!(o.trace.recorded(), 0);
    assert_eq!(o.trace.heap_allocations(), 0);
    assert_eq!(o.metrics.counter("outages.boundaries"), 2);
    assert_eq!(o.metrics.counter("jobs.finished.native"), 1);
    assert_eq!(counters(&o.metrics.snapshot()).len(), 16);
}

#[test]
fn the_trace_keeps_every_event_in_order() {
    let mut o = Obs::with(true, false, false);
    for kind in every_kind() {
        o.record(T, kind);
    }
    let kinds: Vec<_> = o.trace.events().iter().map(|e| e.kind).collect();
    assert_eq!(kinds, every_kind());
    assert!(o.metrics.snapshot().counters.is_empty());
}

#[test]
fn a_disabled_bundle_collects_and_allocates_nothing() {
    let mut o = Obs::disabled();
    for kind in every_kind() {
        o.record(T, kind);
    }
    assert_eq!(o.trace.recorded(), 0);
    assert_eq!(o.trace.heap_allocations(), 0);
    let snap = o.metrics.snapshot();
    assert!(snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty());
    assert!(o.telemetry.annotations().is_empty());
}
