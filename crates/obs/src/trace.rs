//! Structured event log with a zero-cost disabled path.
//!
//! [`TraceSink::record`] is the hot call, invoked from the driver's event
//! handlers and scheduling cycle. When the sink is disabled it is one
//! predictable branch and returns without touching memory — the driver can
//! keep the calls inline unconditionally. When enabled, events accumulate
//! in order into a `Vec` and serialize to deterministic JSONL via
//! [`TraceSink::to_jsonl`], led by a one-line `{"schema":…}` header that
//! versions the encoding (see `crates/obs/SCHEMA.md`).

use crate::event::{EventKind, Header, TraceEvent};
use simkit::time::SimTime;

/// Baseline version of the JSONL trace encoding: the original event
/// alphabet (submit/start/finish/preempt/outage). Traces containing only
/// these events stamp this version, keeping fault-free traces bit-for-bit
/// stable across the v2 extension.
pub const SCHEMA_VERSION: u64 = 1;

/// Version stamped when a trace contains fault/retry events
/// (`node_down`/`node_up`/`job_failed`/`job_requeued`). Readers (tracekit)
/// accept both versions; see `crates/obs/SCHEMA.md`.
pub const SCHEMA_VERSION_FAULTS: u64 = 2;

/// Version stamped when a trace contains recovery-policy events
/// (`job_checkpointed`/`job_suspended`/`job_resumed`). Only the checkpoint
/// and suspend-resume policies emit these, so kill-restart runs keep
/// stamping schema 1 or 2 bit-for-bit; see `crates/obs/SCHEMA.md`.
pub const SCHEMA_VERSION_RECOVERY: u64 = 3;

/// Version stamped when a trace contains SLO watchdog annotations
/// (`slo_breach`/`slo_clear`). Only runs with `--slo` rules loaded can
/// emit these, so untracked runs — telemetry sampling included — keep
/// their smaller stamp bit-for-bit; see `crates/obs/SCHEMA.md`.
pub const SCHEMA_VERSION_TELEMETRY: u64 = 4;

/// An append-only, cycle-stamped event log.
#[derive(Clone, Debug, Default)]
pub struct TraceSink {
    enabled: bool,
    events: Vec<TraceEvent>,
    cycle: u64,
    heap_allocations: u64,
    /// Machine identity stamped on the header line (name, total CPUs).
    machine: Option<(&'static str, u32)>,
}

impl TraceSink {
    /// A sink that records nothing (the default).
    pub fn disabled() -> Self {
        TraceSink::default()
    }

    /// A sink that records every event.
    pub fn enabled() -> Self {
        TraceSink {
            enabled: true,
            ..TraceSink::default()
        }
    }

    /// Whether [`record`](TraceSink::record) stores anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Stamp the machine identity onto the header line. No-op (and no
    /// state change) when the sink is disabled, preserving the zero-cost
    /// contract.
    pub fn set_machine(&mut self, name: &'static str, cpus: u32) {
        if self.enabled {
            self.machine = Some((name, cpus));
        }
    }

    /// The machine identity the header will carry, if stamped.
    pub fn machine(&self) -> Option<(&'static str, u32)> {
        self.machine
    }

    /// Mark the start of the next scheduling cycle; subsequent records are
    /// stamped with the new cycle id.
    #[inline]
    pub fn advance_cycle(&mut self) {
        if self.enabled {
            self.cycle += 1;
        }
    }

    /// The cycle id that the next record would be stamped with.
    #[inline]
    pub fn current_cycle(&self) -> u64 {
        self.cycle
    }

    /// Record one event at instant `t`. No-op (and no allocation) when the
    /// sink is disabled.
    #[inline]
    pub fn record(&mut self, t: SimTime, kind: EventKind) {
        if !self.enabled {
            return;
        }
        if self.events.len() == self.events.capacity() {
            self.heap_allocations += 1;
        }
        self.events.push(TraceEvent {
            t,
            cycle: self.cycle,
            kind,
        });
    }

    /// The schema version the header will stamp: the maximum any recorded
    /// event requires. Fault-free traces stay schema 1 bit-for-bit.
    pub fn schema_version(&self) -> u64 {
        self.events
            .iter()
            .map(|e| e.kind.schema_version())
            .max()
            .unwrap_or(SCHEMA_VERSION)
    }

    /// Number of events recorded so far.
    pub fn recorded(&self) -> u64 {
        self.events.len() as u64
    }

    /// Number of times the event buffer had to grow. Stays 0 forever when
    /// the sink is disabled — the property the driver test asserts.
    pub fn heap_allocations(&self) -> u64 {
        self.heap_allocations
    }

    /// The recorded events, in record order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Serialize the whole log as JSONL: a `{"schema":…}` header line, then
    /// one event per line with a trailing newline after the last. A
    /// disabled sink serializes to the empty string (no header).
    pub fn to_jsonl(&self) -> String {
        if !self.enabled {
            return String::new();
        }
        // Rough per-line budget keeps reallocation out of serialization.
        let mut out = String::with_capacity(self.events.len() * 96 + 64);
        Header {
            schema: self.schema_version(),
            machine: self.machine.map(|(name, _)| name),
            cpus: self.machine.map(|(_, cpus)| cpus),
        }
        .write_jsonl(&mut out);
        out.push('\n');
        for ev in &self.events {
            ev.write_jsonl(&mut out);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::StartKind;

    #[test]
    fn disabled_records_nothing_and_never_allocates() {
        let mut sink = TraceSink::disabled();
        for i in 0..10_000 {
            sink.record(
                SimTime::from_secs(i),
                EventKind::Start {
                    job: i,
                    cpus: 1,
                    kind: StartKind::InOrder,
                },
            );
        }
        assert_eq!(sink.recorded(), 0);
        assert_eq!(sink.heap_allocations(), 0);
        assert_eq!(sink.to_jsonl(), "");
    }

    #[test]
    fn cycle_stamping() {
        let mut sink = TraceSink::enabled();
        sink.record(SimTime::ZERO, EventKind::Outage { up: false });
        sink.advance_cycle();
        sink.advance_cycle();
        sink.record(SimTime::from_secs(5), EventKind::Outage { up: true });
        let evs = sink.events();
        assert_eq!(evs[0].cycle, 0);
        assert_eq!(evs[1].cycle, 2);
        assert_eq!(sink.current_cycle(), 2);
    }

    #[test]
    fn jsonl_has_header_plus_one_line_per_event() {
        let mut sink = TraceSink::enabled();
        for i in 0..5 {
            sink.record(SimTime::from_secs(i), EventKind::Outage { up: i % 2 == 0 });
        }
        let text = sink.to_jsonl();
        assert_eq!(text.lines().count(), 6, "schema header + 5 events");
        assert_eq!(text.lines().next(), Some("{\"schema\":1}"));
        assert!(text.ends_with('\n'));
        assert!(
            sink.heap_allocations() > 0,
            "growth from empty buffer counts"
        );
    }

    #[test]
    fn header_carries_machine_identity_when_stamped() {
        let mut sink = TraceSink::enabled();
        sink.set_machine("Ross", 1436);
        assert_eq!(sink.machine(), Some(("Ross", 1436)));
        let text = sink.to_jsonl();
        assert_eq!(
            text.lines().next(),
            Some("{\"schema\":1,\"machine\":\"Ross\",\"cpus\":1436}")
        );
        // Disabled sinks ignore the stamp and stay header-free.
        let mut off = TraceSink::disabled();
        off.set_machine("Ross", 1436);
        assert_eq!(off.machine(), None);
        assert_eq!(off.to_jsonl(), "");
    }

    #[test]
    fn header_upgrades_to_v2_only_when_fault_events_present() {
        let mut sink = TraceSink::enabled();
        sink.record(SimTime::ZERO, EventKind::Outage { up: false });
        assert_eq!(sink.schema_version(), SCHEMA_VERSION);
        assert_eq!(sink.to_jsonl().lines().next(), Some("{\"schema\":1}"));
        sink.record(
            SimTime::from_secs(10),
            EventKind::NodeDown { node: 2, cpus: 8 },
        );
        assert_eq!(sink.schema_version(), SCHEMA_VERSION_FAULTS);
        assert_eq!(sink.to_jsonl().lines().next(), Some("{\"schema\":2}"));
    }
}
