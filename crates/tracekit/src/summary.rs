//! Single-pass streaming trace summary.
//!
//! [`Summarizer`] folds the event stream into counters, capacity
//! integrals and P² percentile bundles without ever storing events: its
//! state is [`Occupancy`] (live jobs only) plus a fixed set of scalars,
//! so peak memory is flat in trace length — the property the stress test
//! in `tests/trace_analytics.rs` measures via
//! [`TraceSummary::peak_tracked_jobs`].

use crate::lifecycle::{Occupancy, RecoveryMark, Transition};
use obs::{PreemptKind, Quantiles, StartKind, TraceEvent};
use simkit::time::SimTime;

/// Everything `trace summarize` reports, accumulated in one pass.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// `(first, last)` event instants, `None` for an empty trace.
    pub span: Option<(SimTime, SimTime)>,
    /// Events folded in.
    pub events: u64,
    /// Native submit events.
    pub native_submits: u64,
    /// Interstitial submit events.
    pub inter_submits: u64,
    /// Native starts in queue order.
    pub starts_inorder: u64,
    /// Native starts via backfill.
    pub starts_backfill: u64,
    /// Interstitial first starts.
    pub starts_interstitial: u64,
    /// Interstitial resumes after checkpoint.
    pub starts_resume: u64,
    /// Native finishes.
    pub native_finishes: u64,
    /// Interstitial finishes.
    pub inter_finishes: u64,
    /// Preemptions that killed the job.
    pub preempt_kills: u64,
    /// Preemptions that checkpointed the job.
    pub preempt_checkpoints: u64,
    /// Down edges observed.
    pub outages: u64,
    /// Seconds the machine spent down within the span.
    pub downtime_s: u64,
    /// Node failure edges (schema v2).
    pub node_failures: u64,
    /// Node repair edges (schema v2).
    pub node_repairs: u64,
    /// Jobs crashed by node failures (schema v2).
    pub fault_kills: u64,
    /// Requeue/retry announcements for fault victims (schema v2).
    pub fault_requeues: u64,
    /// SLO watchdog breach edges (schema v4).
    pub slo_breaches: u64,
    /// SLO watchdog clear edges (schema v4).
    pub slo_clears: u64,
    /// Checkpoint-credit markers on evicted jobs (schema v3).
    pub recovery_checkpoints: u64,
    /// Suspension markers on evicted jobs (schema v3).
    pub recovery_suspensions: u64,
    /// Resume markers on previously evicted jobs (schema v3).
    pub recovery_resumes: u64,
    /// CPU·seconds out of service on failed nodes (occupancy integral).
    pub offline_cpu_s: u64,
    /// Native queue-wait percentiles, seconds (from finish events).
    pub native_wait: Quantiles,
    /// Native expansion-factor percentiles (1 + wait/runtime).
    pub native_ef: Quantiles,
    /// CPU·seconds delivered to native jobs (occupancy integral).
    pub native_cpu_s: u64,
    /// CPU·seconds harvested by interstitial jobs (occupancy integral).
    pub inter_cpu_s: u64,
    /// Machine size used for utilization, when known.
    pub total_cpus: Option<u32>,
    /// High-water mark of live (running + waiting) jobs — the memory
    /// proxy for the flat-memory contract.
    pub peak_tracked_jobs: usize,
    /// Lifecycle contradictions encountered in the stream.
    pub inconsistencies: u64,
    /// Highest scheduling-cycle id tagged on any event — the scan work the
    /// trace can attest to. The full work counters (candidate scans,
    /// profile segments, heap depth) live in the run's `RunReport`, not in
    /// trace bytes; this is the trace-derivable slice.
    pub sched_cycles: u64,
}

impl TraceSummary {
    /// Span length in seconds (0 for traces with fewer than two instants).
    pub fn span_s(&self) -> u64 {
        match self.span {
            Some((a, b)) => (b - a).as_secs(),
            None => 0,
        }
    }

    /// Total CPU·seconds of capacity over the span, if the machine size
    /// is known (outages are *not* subtracted — this is the nameplate).
    pub fn capacity_cpu_s(&self) -> Option<u64> {
        self.total_cpus.map(|c| u64::from(c) * self.span_s())
    }

    /// Native utilization of nameplate capacity over the span.
    pub fn native_utilization(&self) -> Option<f64> {
        self.capacity_cpu_s()
            .filter(|&c| c > 0)
            .map(|c| self.native_cpu_s as f64 / c as f64)
    }

    /// Interstitial utilization of nameplate capacity over the span.
    pub fn inter_utilization(&self) -> Option<f64> {
        self.capacity_cpu_s()
            .filter(|&c| c > 0)
            .map(|c| self.inter_cpu_s as f64 / c as f64)
    }
}

/// The streaming accumulator behind [`TraceSummary`].
#[derive(Clone, Debug)]
pub struct Summarizer {
    occ: Occupancy,
    last_t: Option<SimTime>,
    out: TraceSummary,
}

impl Summarizer {
    /// `total_cpus` (header or `--cpus`) enables the utilization figures;
    /// everything else works without it.
    pub fn new(total_cpus: Option<u32>) -> Self {
        Summarizer {
            occ: Occupancy::new(total_cpus),
            last_t: None,
            out: TraceSummary {
                total_cpus,
                ..TraceSummary::default()
            },
        }
    }

    /// Fold in the next event (nondecreasing time order).
    pub fn observe(&mut self, ev: &TraceEvent) {
        // Integrate occupancy over the interval ending at this event,
        // using the state *before* the event applies.
        if let Some(last) = self.last_t {
            let dt = (ev.t - last).as_secs();
            self.out.native_cpu_s += u64::from(self.occ.native_busy()) * dt;
            self.out.inter_cpu_s += u64::from(self.occ.inter_busy()) * dt;
            self.out.offline_cpu_s += u64::from(self.occ.offline()) * dt;
            if !self.occ.is_up() {
                self.out.downtime_s += dt;
            }
        }
        self.last_t = Some(ev.t);
        self.out.span = Some(match self.out.span {
            Some((first, _)) => (first, ev.t),
            None => (ev.t, ev.t),
        });
        self.out.events += 1;
        self.out.sched_cycles = self.out.sched_cycles.max(ev.cycle);

        match self.occ.apply(ev) {
            Transition::Submitted { interstitial, .. } => {
                if interstitial {
                    self.out.inter_submits += 1;
                } else {
                    self.out.native_submits += 1;
                }
            }
            Transition::Started { kind, .. } => match kind {
                StartKind::InOrder => self.out.starts_inorder += 1,
                StartKind::Backfill => self.out.starts_backfill += 1,
                StartKind::Interstitial => self.out.starts_interstitial += 1,
                StartKind::Resume => self.out.starts_resume += 1,
            },
            Transition::Finished {
                interstitial,
                wait_s,
                start,
                finish,
                ..
            } => {
                if interstitial {
                    self.out.inter_finishes += 1;
                } else {
                    self.out.native_finishes += 1;
                    self.out.native_wait.observe(wait_s as f64);
                    if let Some(start) = start {
                        let runtime = (finish - start).as_secs();
                        if runtime > 0 {
                            self.out
                                .native_ef
                                .observe(1.0 + wait_s as f64 / runtime as f64);
                        }
                    }
                }
            }
            Transition::Preempted { .. } => match ev.kind {
                obs::EventKind::Preempt {
                    kind: PreemptKind::Kill,
                    ..
                } => self.out.preempt_kills += 1,
                _ => self.out.preempt_checkpoints += 1,
            },
            Transition::OutageEdge { up } => {
                if !up {
                    self.out.outages += 1;
                }
            }
            Transition::NodeEdge { up, .. } => {
                if up {
                    self.out.node_repairs += 1;
                } else {
                    self.out.node_failures += 1;
                }
            }
            Transition::Failed { .. } => self.out.fault_kills += 1,
            Transition::Requeued { .. } => self.out.fault_requeues += 1,
            Transition::Recovery { mark, .. } => match mark {
                RecoveryMark::Checkpointed { .. } => self.out.recovery_checkpoints += 1,
                RecoveryMark::Suspended { .. } => self.out.recovery_suspensions += 1,
                RecoveryMark::Resumed { .. } => self.out.recovery_resumes += 1,
            },
            Transition::SloEdge { breached, .. } => {
                if breached {
                    self.out.slo_breaches += 1;
                } else {
                    self.out.slo_clears += 1;
                }
            }
            Transition::Inconsistent(_) => {}
        }
    }

    /// Live tracked jobs right now (memory-flatness probe).
    pub fn tracked_jobs(&self) -> usize {
        self.occ.tracked_jobs()
    }

    /// Consume the accumulator and return the summary.
    pub fn finish(mut self) -> TraceSummary {
        self.out.peak_tracked_jobs = self.occ.peak_tracked_jobs();
        self.out.inconsistencies = self.occ.inconsistencies();
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::EventKind;

    fn ev(t: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            t: SimTime::from_secs(t),
            cycle: 0,
            kind,
        }
    }

    #[test]
    fn counts_integrals_and_percentiles() {
        let mut s = Summarizer::new(Some(64));
        let ij = 1 << 40;
        let evs = [
            ev(
                0,
                EventKind::Submit {
                    job: 1,
                    cpus: 32,
                    estimate_s: 100,
                    interstitial: false,
                },
            ),
            ev(
                0,
                EventKind::Start {
                    job: 1,
                    cpus: 32,
                    kind: StartKind::InOrder,
                },
            ),
            ev(
                10,
                EventKind::Submit {
                    job: ij,
                    cpus: 16,
                    estimate_s: 100,
                    interstitial: true,
                },
            ),
            ev(
                10,
                EventKind::Start {
                    job: ij,
                    cpus: 16,
                    kind: StartKind::Interstitial,
                },
            ),
            ev(
                60,
                EventKind::Preempt {
                    job: ij,
                    cpus: 16,
                    kind: PreemptKind::Checkpoint,
                },
            ),
            ev(
                100,
                EventKind::Finish {
                    job: 1,
                    cpus: 32,
                    wait_s: 0,
                    interstitial: false,
                },
            ),
        ];
        for e in &evs {
            s.observe(e);
        }
        let out = s.finish();
        assert_eq!(out.events, 6);
        assert_eq!(out.native_submits, 1);
        assert_eq!(out.inter_submits, 1);
        assert_eq!(out.starts_inorder, 1);
        assert_eq!(out.starts_interstitial, 1);
        assert_eq!(out.preempt_checkpoints, 1);
        assert_eq!(out.native_finishes, 1);
        assert_eq!(out.span_s(), 100);
        assert_eq!(out.native_cpu_s, 32 * 100);
        assert_eq!(out.inter_cpu_s, 16 * 50);
        assert_eq!(out.capacity_cpu_s(), Some(6_400));
        assert!((out.native_utilization().unwrap() - 0.5).abs() < 1e-9);
        assert_eq!(out.native_wait.count(), 1);
        let (_, p50, ..) = out.native_ef.snapshot().unwrap();
        assert!((p50 - 1.0).abs() < 1e-9, "zero wait → EF 1");
        assert_eq!(out.peak_tracked_jobs, 2);
        assert_eq!(out.inconsistencies, 0);
    }

    #[test]
    fn downtime_is_integrated_between_edges() {
        let mut s = Summarizer::new(None);
        s.observe(&ev(100, EventKind::Outage { up: false }));
        s.observe(&ev(250, EventKind::Outage { up: true }));
        s.observe(&ev(300, EventKind::Outage { up: false }));
        s.observe(&ev(310, EventKind::Outage { up: true }));
        let out = s.finish();
        assert_eq!(out.outages, 2);
        assert_eq!(out.downtime_s, 160);
        assert_eq!(out.native_utilization(), None, "size unknown");
    }

    #[test]
    fn empty_trace_summary_is_all_zero() {
        let out = Summarizer::new(Some(8)).finish();
        assert_eq!(out.span, None);
        assert_eq!(out.span_s(), 0);
        assert_eq!(out.capacity_cpu_s(), Some(0));
        assert_eq!(out.native_utilization(), None);
        assert_eq!(out.sched_cycles, 0);
    }

    #[test]
    fn sched_cycles_is_the_highest_cycle_tag() {
        let mut s = Summarizer::new(None);
        for (t, cycle) in [(0u64, 1u64), (10, 7), (20, 4)] {
            s.observe(&TraceEvent {
                t: SimTime::from_secs(t),
                cycle,
                kind: EventKind::Outage { up: true },
            });
        }
        assert_eq!(s.finish().sched_cycles, 7);
    }
}
