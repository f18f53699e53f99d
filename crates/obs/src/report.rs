//! Per-run machine-readable report.
//!
//! A [`RunReport`] bundles the metrics snapshot and the phase profile from
//! one simulation run into a single JSON document. Two serializations
//! exist on purpose:
//!
//! * [`RunReport::to_json`] — everything, including wall-clock phase
//!   timings. For humans, dashboards and bench trajectories.
//! * [`RunReport::to_json_deterministic`] — metrics and work counters only.
//!   Byte-stable for a fixed seed, which is what the golden-trace suite and
//!   CI diff.
//!
//! Work counters appear in *both* forms (they are deterministic) but never
//! in the trace stream — see `crates/obs/SCHEMA.md`.

use crate::alloc::AllocCounters;
use crate::json;
use crate::metrics::MetricsSnapshot;
use crate::profile::ProfileSnapshot;
use crate::work::WorkCounters;

/// Snapshot of one run's metrics, work counters and phase profile.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Counters / gauges / histograms at end of run.
    pub metrics: MetricsSnapshot,
    /// Wall-clock phase timings (empty when profiling was disabled).
    pub profile: ProfileSnapshot,
    /// Deterministic work counters.
    pub work: WorkCounters,
    /// Allocator tallies for the run window (all zero unless the
    /// `alloc-count` feature is on).
    pub mem: AllocCounters,
}

impl RunReport {
    /// Bundle a metrics snapshot, a phase profile, the work counters and
    /// the run's allocator tallies.
    pub fn new(
        metrics: MetricsSnapshot,
        profile: ProfileSnapshot,
        work: WorkCounters,
        mem: AllocCounters,
    ) -> Self {
        RunReport {
            metrics,
            profile,
            work,
            mem,
        }
    }

    /// Full report: `{"metrics":{..},"work":{..},"profile":{..},"mem":{..}}`.
    /// The profile section contains wall-clock values and is NOT
    /// run-to-run stable; the mem section depends on allocator behaviour
    /// of the exact build, so neither is golden-pinned.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_deterministic_sections(&mut out);
        out.push(',');
        json::push_key(&mut out, "profile");
        self.profile.write_json(&mut out);
        out.push(',');
        json::push_key(&mut out, "mem");
        self.mem.write_json(&mut out);
        out.push('}');
        out
    }

    /// Deterministic subset: `{"metrics":{..},"work":{..}}`. Byte-identical
    /// across same-seed runs; this is what golden files pin.
    pub fn to_json_deterministic(&self) -> String {
        let mut out = String::new();
        self.write_deterministic_sections(&mut out);
        out.push('}');
        out
    }

    /// `{"metrics":{..},"work":{..}` — shared prefix of both forms, left
    /// unterminated so callers can append or close.
    fn write_deterministic_sections(&self, out: &mut String) {
        out.push('{');
        json::push_key(out, "metrics");
        self.metrics.write_json(out);
        out.push(',');
        json::push_key(out, "work");
        self.work.write_json(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::profile::{Phase, PhaseProfiler};

    #[test]
    fn deterministic_json_excludes_profile_but_keeps_work() {
        let mut m = MetricsRegistry::enabled();
        m.inc("jobs.finished.native", 2);
        let mut p = PhaseProfiler::enabled();
        let t = p.begin();
        p.end(Phase::ScheduleCycle, t);
        let w = WorkCounters {
            events_popped: 7,
            events_scheduled: 9,
            heap_peak_depth: 3,
            ..WorkCounters::default()
        };
        let report = RunReport::new(m.snapshot(), p.snapshot(), w, AllocCounters::disabled());
        let det = report.to_json_deterministic();
        assert_eq!(
            det,
            "{\"metrics\":{\"counters\":{\"jobs.finished.native\":2},\
             \"gauges\":{},\"histograms\":{}},\
             \"work\":{\"events_popped\":7,\"events_scheduled\":9,\
             \"heap_peak_depth\":3,\"sched_cycles\":0,\"inorder_starts\":0,\
             \"backfill_starts\":0,\"backfill_candidates_scanned\":0,\
             \"profile_segments_walked\":0,\"requeues\":0,\"retries\":0,\
             \"checkpoints_taken\":0,\"cpu_s_salvaged\":0,\
             \"cpu_s_reexecuted\":0}}"
        );
        let full = report.to_json();
        assert!(full.contains("\"profile\":{\"schedule-cycle\""));
        assert!(full.starts_with(&det[..det.len() - 1]), "shared prefix");
        assert!(!det.contains("\"profile\":"), "no phase-timing section");
        assert!(
            full.contains("\"mem\":{\"allocations\":"),
            "mem in full form"
        );
        assert!(!det.contains("\"mem\":"), "mem is not golden-pinned");
    }

    #[test]
    fn empty_report_is_valid_json_shape() {
        let r = RunReport::default();
        assert_eq!(
            r.to_json(),
            "{\"metrics\":{\"counters\":{},\"gauges\":{},\"histograms\":{}},\
             \"work\":{\"events_popped\":0,\"events_scheduled\":0,\
             \"heap_peak_depth\":0,\"sched_cycles\":0,\"inorder_starts\":0,\
             \"backfill_starts\":0,\"backfill_candidates_scanned\":0,\
             \"profile_segments_walked\":0,\"requeues\":0,\"retries\":0,\
             \"checkpoints_taken\":0,\"cpu_s_salvaged\":0,\
             \"cpu_s_reexecuted\":0},\
             \"profile\":{},\
             \"mem\":{\"allocations\":0,\"deallocations\":0,\
             \"bytes_allocated\":0,\"bytes_freed\":0,\"peak_live_bytes\":0}}"
        );
    }
}
