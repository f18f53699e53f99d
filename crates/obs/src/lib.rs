//! # obs — observability for the interstitial simulator
//!
//! The paper's claims are all *measurements* (utilization interstices,
//! wait-time deltas, makespan distributions), so the simulation stack needs
//! a measurement substrate of its own. [`Obs`] bundles five switchable
//! instruments and two always-kept tallies:
//!
//! * [`trace::TraceSink`] — a structured event log: every job submit /
//!   start / finish / preemption / outage event, tagged with sim-time and
//!   the scheduling-cycle id, serialized as deterministic JSONL. Zero-cost
//!   when disabled: `record` is a single predictable branch and the event
//!   buffer never allocates.
//! * [`metrics::MetricsRegistry`] — counters, gauges and log₂ histograms
//!   keyed by `&'static str`. BTreeMap-backed so snapshots iterate in a
//!   fixed order (simlint R1) and the emitted JSON is byte-stable across
//!   runs — the property the golden-trace regression suite anchors on.
//! * [`profile::PhaseProfiler`] — wall-clock spans for the simulator's hot
//!   phases, one table slot per [`profile::Phase`] (event-pump,
//!   schedule-cycle and the order-queue, free-profile and backfill phases
//!   nested in it). The only place outside the bench harness allowed to
//!   read the wall clock (audited simlint R2 exception): span durations are
//!   reported, never fed back into simulation behaviour.
//! * [`recorder::CycleRecorder`] — a bounded per-cycle flight recorder: it
//!   diffs the driver's [`work::WorkCounters`] snapshot and the profiler's
//!   per-phase totals from one pass to the next.
//! * [`telemetry::TelemetryBus`] — fixed-cadence in-sim time series with
//!   time-axis annotations; its work signals are deltas of the same
//!   snapshot.
//!
//! The two tallies are [`work::WorkCounters`] — deterministic integer
//! counts of the work a run did (events, cycles, candidates scanned, …),
//! which the sources keep in every run and the driver snapshots — and the
//! run's allocator tallies ([`alloc::AllocCounters`]). [`Obs::record`] is
//! the one entry point for simulation events: it feeds the trace, the
//! metrics counters and the telemetry annotations from the same
//! [`EventKind`].
//!
//! [`report::RunReport`] snapshots the metrics, profile, work counters and
//! allocator tallies into one machine-readable JSON document per run. The
//! golden suite compares only the deterministic sections (trace + metrics);
//! wall-clock phase timings are excluded from golden comparisons by
//! construction ([`report::RunReport::to_json_deterministic`]).

#![warn(missing_docs)]

pub mod alloc;
pub mod event;
pub mod json;
pub mod metrics;
pub mod p2;
pub mod perf;
pub mod profile;
pub mod recorder;
pub mod report;
pub mod telemetry;
pub mod trace;
pub mod work;

pub use alloc::AllocCounters;
pub use event::{EventKind, PreemptKind, StartKind, TraceEvent};
pub use metrics::MetricsRegistry;
pub use p2::{Quantiles, P2};
pub use perf::{PerfBaseline, PerfComparison, ScenarioPerf};
pub use profile::PhaseProfiler;
pub use recorder::CycleRecorder;
pub use report::RunReport;
pub use telemetry::{SloSpec, SloWatchdog, TelemetryBus, TelemetryDump};
pub use trace::TraceSink;
pub use work::WorkCounters;

use simkit::time::SimTime;
use telemetry::AnnotationKind;

/// The full observability bundle threaded through a simulation run.
///
/// Each instrument is independently enabled; [`Obs::disabled`] (the
/// default) turns the whole bundle into cheap no-ops, which is what every
/// hot path that does not ask for observability pays.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    /// Structured event log.
    pub trace: TraceSink,
    /// Counters / gauges / histograms.
    pub metrics: MetricsRegistry,
    /// Wall-clock phase spans.
    pub profiler: PhaseProfiler,
    /// Deterministic work counters, filled in by the driver at end of run
    /// (never written to the trace stream).
    pub work: WorkCounters,
    /// Per-cycle flight recorder. Opt-in only (`--record-cycles`): not
    /// switched on by [`Obs::enabled`], since a bounded ring per run is
    /// still real memory traffic the default paths should not pay.
    pub recorder: CycleRecorder,
    /// Allocator tallies for the run window, filled in by the driver at
    /// end of run. All zero unless the `alloc-count` feature is on.
    pub mem: AllocCounters,
    /// Fixed-cadence in-sim time series. Opt-in only (`--telemetry`): not
    /// switched on by [`Obs::enabled`], since per-tick sampling is real
    /// work the default observed paths should not pay — the same contract
    /// as the flight recorder.
    pub telemetry: TelemetryBus,
}

impl Obs {
    /// Everything off — the zero-cost default.
    pub fn disabled() -> Self {
        Obs::default()
    }

    /// Tracing, metrics and phase profiling on. Cycle recording and
    /// telemetry stay opt-in via the [`Obs::recorder`] and
    /// [`Obs::telemetry`] fields.
    pub fn enabled() -> Self {
        Obs {
            trace: TraceSink::enabled(),
            metrics: MetricsRegistry::enabled(),
            profiler: PhaseProfiler::enabled(),
            ..Obs::disabled()
        }
    }

    /// The same bundle as [`Obs::disabled`], named for callers that only
    /// want the work counters: those are kept in every run, so counting
    /// needs no instrument switched on.
    pub fn counting() -> Self {
        Obs::disabled()
    }

    /// Record one event in every instrument that derives from events: the
    /// trace sink appends it, the metrics registry counts it, and the
    /// telemetry bus marks outages and SLO transitions on its time axis.
    /// Each instrument checks its own switch, so a disabled bundle pays one
    /// branch per instrument.
    #[inline]
    pub fn record(&mut self, t: SimTime, kind: EventKind) {
        self.trace.record(t, kind);
        if self.metrics.is_enabled() {
            self.count(kind);
        }
        if self.telemetry.is_enabled() {
            let (ann, label, value, limit) = match kind {
                EventKind::Outage { up: true } => (AnnotationKind::MachineUp, "", 0, 0),
                EventKind::Outage { up: false } => (AnnotationKind::MachineDown, "", 0, 0),
                EventKind::SloBreach {
                    metric,
                    value,
                    limit,
                    ..
                } => (AnnotationKind::Breach, metric, value, limit),
                EventKind::SloClear {
                    metric,
                    value,
                    limit,
                    ..
                } => (AnnotationKind::Clear, metric, value, limit),
                _ => return,
            };
            self.telemetry
                .annotate(t.as_secs(), ann, label, value, limit);
        }
    }

    /// The metrics fold of [`Obs::record`]: the counter each event kind
    /// drives, plus the native wait histogram at native finishes.
    fn count(&mut self, kind: EventKind) {
        let name = match kind {
            EventKind::Submit {
                interstitial: true, ..
            } => "jobs.submitted.interstitial",
            EventKind::Submit { .. } => "jobs.submitted.native",
            EventKind::Start { kind, .. } => match kind {
                StartKind::InOrder => "jobs.started.inorder",
                StartKind::Backfill => "jobs.started.backfill",
                StartKind::Interstitial => "jobs.started.interstitial",
                StartKind::Resume => "jobs.started.resumed",
            },
            EventKind::Finish {
                interstitial: true, ..
            } => "jobs.finished.interstitial",
            EventKind::Finish { wait_s, .. } => {
                self.metrics.observe("wait.native_s", wait_s);
                "jobs.finished.native"
            }
            EventKind::Preempt {
                kind: PreemptKind::Kill,
                ..
            } => "preempt.killed",
            EventKind::Preempt { .. } => "preempt.checkpointed",
            EventKind::Outage { .. } => "outages.boundaries",
            EventKind::NodeDown { .. } => "faults.node_down",
            EventKind::NodeUp { .. } => "faults.node_up",
            EventKind::JobFailed { .. } => "faults.job_killed",
            EventKind::JobCheckpointed { .. } => "recovery.checkpoint_evictions",
            EventKind::JobSuspended { .. } => "recovery.suspensions",
            EventKind::JobRequeued { .. }
            | EventKind::JobResumed { .. }
            | EventKind::SloBreach { .. }
            | EventKind::SloClear { .. } => return,
        };
        self.metrics.inc(name, 1);
    }

    /// Snapshot the metrics registry, phase profile, work counters and
    /// allocator tallies into a [`RunReport`].
    pub fn run_report(&self) -> RunReport {
        RunReport::new(
            self.metrics.snapshot(),
            self.profiler.snapshot(),
            self.work,
            self.mem,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_bundle_is_inert() {
        let mut o = Obs::disabled();
        o.metrics.inc("x", 1);
        o.trace
            .record(simkit::time::SimTime::ZERO, EventKind::Outage { up: true });
        assert_eq!(o.trace.recorded(), 0);
        assert_eq!(o.trace.heap_allocations(), 0);
        assert!(o.run_report().metrics.counters.is_empty());
    }

    #[test]
    fn counting_bundle_switches_no_instrument_on() {
        let o = Obs::counting();
        assert!(!o.trace.is_enabled());
        assert!(!o.metrics.is_enabled());
        assert!(!o.profiler.is_enabled());
        assert!(!o.recorder.is_enabled());
        assert!(!o.telemetry.is_enabled());
        assert_eq!(o.trace.heap_allocations(), 0);
    }
}
