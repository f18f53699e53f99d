//! Deterministic per-cycle flight recorder.
//!
//! The profiler answers "where does the run's wall-clock go", the work
//! counters "how much total work was done" — neither can say *which cycles*
//! were expensive, and tail-aware arguments (Byun et al., arXiv:2008.02223)
//! turn on exactly that. [`CycleRecorder`] closes the gap: one record per
//! driver scheduling pass, holding the pass's deterministic counter deltas
//! (events coalesced, dispatches, backfill candidates scanned, profile
//! segments walked) alongside audited wall-clock nanos, kept in a bounded
//! ring buffer (the most recent window) plus an exact ledger of the top-K
//! most expensive cycles over the whole run.
//!
//! Two serializations, mirroring `RunReport`'s split:
//!
//! * [`CycleRecorder::to_jsonl`] — everything, including per-cycle and
//!   per-phase nanos. Schema-versioned JSONL for `interstitial perf
//!   hotspots`.
//! * [`CycleRecorder::counters_jsonl`] — the deterministic counter fields
//!   only. Byte-identical across same-seed runs on any host; this is what
//!   the determinism suite pins.
//!
//! "Cost" ranks cycles deterministically: the sum of the pass's event,
//! candidate-scan and segment-walk deltas — the same units the perf gate
//! already compares exactly. Wall nanos ride along for attribution but
//! never decide ring membership or top-K order, so the recorder's shape is
//! a pure function of the seed. This module is (with the phase profiler)
//! one of the two audited wall-clock exceptions in `obs` (simlint R2/R8):
//! readings are reporting-only and never feed back into simulation state.

use crate::json;
use crate::profile::ProfileSnapshot;
use simkit::time::SimTime;
use std::collections::VecDeque;
use std::time::Instant;

/// Recorder JSONL schema version (the header line's `recorder_schema`).
pub const RECORDER_SCHEMA: u64 = 1;

/// Default ring-buffer capacity (most recent cycles retained).
pub const DEFAULT_CAPACITY: usize = 4096;

/// Default size of the exact most-expensive-cycles ledger.
pub const DEFAULT_TOP_K: usize = 32;

/// One scheduling pass's record.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CycleRecord {
    /// Monotone pass index assigned by the recorder (0-based). Note this is
    /// the *driver* pass count: the scheduler's own `sched_cycles` counter
    /// skips outage passes, so the two need not match.
    pub cycle: u64,
    /// Sim-time of the pass, integer seconds.
    pub t_s: u64,
    /// Native jobs waiting after the pass.
    pub queue_depth: u64,
    /// Events handled at this instant (the coalesced pump batch).
    pub events: u64,
    /// Jobs dispatched this pass (in-order + backfill).
    pub starts: u64,
    /// Backfill candidates scanned this pass.
    pub candidates: u64,
    /// Free-profile segments walked this pass.
    pub segments: u64,
    /// Deterministic cost: `events + candidates + segments`.
    pub cost: u64,
    /// Audited wall-clock nanos for the whole pass (pump + cycle).
    pub ns_total: u64,
    /// Wall nanos attributed to the event pump this pass.
    pub ns_pump: u64,
    /// Wall nanos attributed to queue ordering this pass.
    pub ns_order: u64,
    /// Wall nanos attributed to free-profile construction this pass.
    pub ns_profile: u64,
    /// Wall nanos attributed to backfill planning this pass.
    pub ns_backfill: u64,
}

/// The number of deterministic counter fields in a [`CycleRecord`].
pub const COUNTER_FIELD_COUNT: usize = 8;

impl CycleRecord {
    /// The deterministic fields in canonical order — what
    /// [`CycleRecorder::counters_jsonl`] serializes and the determinism
    /// suite compares bitwise.
    pub fn counter_fields(&self) -> [(&'static str, u64); COUNTER_FIELD_COUNT] {
        [
            ("cycle", self.cycle),
            ("t_s", self.t_s),
            ("queue_depth", self.queue_depth),
            ("events", self.events),
            ("starts", self.starts),
            ("candidates", self.candidates),
            ("segments", self.segments),
            ("cost", self.cost),
        ]
    }

    /// The wall-clock fields in canonical order (full form only).
    pub fn ns_fields(&self) -> [(&'static str, u64); 5] {
        [
            ("ns_total", self.ns_total),
            ("ns_pump", self.ns_pump),
            ("ns_order", self.ns_order),
            ("ns_profile", self.ns_profile),
            ("ns_backfill", self.ns_backfill),
        ]
    }

    /// Set a field by its serialized name; false if the name is unknown.
    pub fn set_field(&mut self, name: &str, value: u64) -> bool {
        let slot = match name {
            "cycle" => &mut self.cycle,
            "t_s" => &mut self.t_s,
            "queue_depth" => &mut self.queue_depth,
            "events" => &mut self.events,
            "starts" => &mut self.starts,
            "candidates" => &mut self.candidates,
            "segments" => &mut self.segments,
            "cost" => &mut self.cost,
            "ns_total" => &mut self.ns_total,
            "ns_pump" => &mut self.ns_pump,
            "ns_order" => &mut self.ns_order,
            "ns_profile" => &mut self.ns_profile,
            "ns_backfill" => &mut self.ns_backfill,
            _ => return false,
        };
        *slot = value;
        true
    }

    fn write_line(&self, kind: &str, counters_only: bool, out: &mut String) {
        out.push('{');
        let mut first = json::push_str_field(out, true, "kind", kind);
        for (name, value) in self.counter_fields() {
            first = json::push_u64_field(out, first, name, value);
        }
        if !counters_only {
            for (name, value) in self.ns_fields() {
                first = json::push_u64_field(out, first, name, value);
            }
        }
        let _ = first;
        out.push_str("}\n");
    }
}

/// Cumulative totals the driver hands to [`CycleRecorder::end_cycle`];
/// the recorder diffs consecutive snapshots itself, so callers pass the
/// running sums they already maintain. Plain u64s keep `obs` free of a
/// `sched` dependency.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CycleTotals {
    /// Events handled so far (the driver's step count).
    pub events: u64,
    /// Jobs dispatched so far (in-order + backfill).
    pub starts: u64,
    /// Backfill candidates scanned so far.
    pub candidates: u64,
    /// Free-profile segments walked so far.
    pub segments: u64,
}

/// Cumulative per-phase wall nanos at the end of a pass (from
/// [`crate::profile::PhaseProfiler::total_ns`]); diffed like
/// [`CycleTotals`]. All zero when phase profiling is off.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseNanos {
    /// `event-pump` cumulative nanos.
    pub pump: u64,
    /// `order-queue` cumulative nanos.
    pub order: u64,
    /// `free-profile` cumulative nanos.
    pub profile: u64,
    /// `backfill` cumulative nanos.
    pub backfill: u64,
}

/// Bounded per-cycle flight recorder (see module docs).
#[derive(Clone, Debug)]
pub struct CycleRecorder {
    enabled: bool,
    capacity: usize,
    top_k: usize,
    cycles_seen: u64,
    dropped: u64,
    prev: CycleTotals,
    prev_ns: PhaseNanos,
    ring: VecDeque<CycleRecord>,
    top: Vec<CycleRecord>,
}

impl Default for CycleRecorder {
    fn default() -> Self {
        CycleRecorder::disabled()
    }
}

impl CycleRecorder {
    /// Recording off — the zero-cost default.
    pub fn disabled() -> Self {
        CycleRecorder {
            enabled: false,
            capacity: DEFAULT_CAPACITY,
            top_k: DEFAULT_TOP_K,
            cycles_seen: 0,
            dropped: 0,
            prev: CycleTotals::default(),
            prev_ns: PhaseNanos::default(),
            ring: VecDeque::new(),
            top: Vec::new(),
        }
    }

    /// Recording on with the default ring capacity and top-K size.
    pub fn enabled() -> Self {
        CycleRecorder::with_limits(DEFAULT_CAPACITY, DEFAULT_TOP_K)
    }

    /// Recording on with explicit limits (both clamped to at least 1).
    pub fn with_limits(capacity: usize, top_k: usize) -> Self {
        CycleRecorder {
            enabled: true,
            capacity: capacity.max(1),
            top_k: top_k.max(1),
            ring: VecDeque::with_capacity(capacity.clamp(1, DEFAULT_CAPACITY)),
            ..CycleRecorder::disabled()
        }
    }

    /// Is this recorder collecting?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Open a pass. Returns `None` (no clock read) when disabled; pass the
    /// token to [`end_cycle`](CycleRecorder::end_cycle).
    #[inline]
    pub fn begin(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Close the pass opened by [`begin`](CycleRecorder::begin): diff the
    /// cumulative totals against the previous pass, record the result in
    /// the ring and (if expensive enough) the top-K ledger.
    pub fn end_cycle(
        &mut self,
        token: Option<Instant>,
        now: SimTime,
        queue_depth: u64,
        totals: CycleTotals,
        ns: PhaseNanos,
    ) {
        let Some(t0) = token else { return };
        if !self.enabled {
            return;
        }
        let ns_total = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let events = totals.events.wrapping_sub(self.prev.events);
        let candidates = totals.candidates.wrapping_sub(self.prev.candidates);
        let segments = totals.segments.wrapping_sub(self.prev.segments);
        let rec = CycleRecord {
            cycle: self.cycles_seen,
            t_s: now.as_secs(),
            queue_depth,
            events,
            starts: totals.starts.wrapping_sub(self.prev.starts),
            candidates,
            segments,
            cost: events + candidates + segments,
            ns_total,
            ns_pump: ns.pump.wrapping_sub(self.prev_ns.pump),
            ns_order: ns.order.wrapping_sub(self.prev_ns.order),
            ns_profile: ns.profile.wrapping_sub(self.prev_ns.profile),
            ns_backfill: ns.backfill.wrapping_sub(self.prev_ns.backfill),
        };
        self.prev = totals;
        self.prev_ns = ns;
        self.cycles_seen += 1;
        self.ring.push_back(rec);
        if self.ring.len() > self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        // Exact top-K by (cost desc, cycle asc): the deterministic tie-break
        // keeps earlier passes ahead of equal-cost later ones.
        let pos = self
            .top
            .partition_point(|r| r.cost > rec.cost || (r.cost == rec.cost && r.cycle < rec.cycle));
        if pos < self.top_k {
            self.top.insert(pos, rec);
            self.top.truncate(self.top_k);
        }
    }

    /// Total passes recorded over the run.
    pub fn cycles_seen(&self) -> u64 {
        self.cycles_seen
    }

    /// Passes evicted from the ring (recorded but no longer retained).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained ring window, oldest first.
    pub fn ring(&self) -> impl Iterator<Item = &CycleRecord> {
        self.ring.iter()
    }

    /// The exact top-K ledger, most expensive first.
    pub fn top(&self) -> &[CycleRecord] {
        &self.top
    }

    fn write_header(&self, out: &mut String) {
        out.push('{');
        let first = json::push_u64_field(out, true, "recorder_schema", RECORDER_SCHEMA);
        let first = json::push_u64_field(out, first, "capacity", self.capacity as u64);
        let first = json::push_u64_field(out, first, "top_k", self.top_k as u64);
        let first = json::push_u64_field(out, first, "cycles_seen", self.cycles_seen);
        let _ = json::push_u64_field(out, first, "dropped", self.dropped);
        out.push_str("}\n");
    }

    /// Full schema-versioned JSONL: header, ring window (oldest first),
    /// top-K ledger (most expensive first), then one `phase` line per
    /// profiler phase from `profile` (run totals, for the hotspots phase
    /// breakdown). Wall-clock fields included — NOT run-to-run stable.
    pub fn to_jsonl(&self, profile: &ProfileSnapshot) -> String {
        let mut out = String::new();
        self.write_header(&mut out);
        for rec in &self.ring {
            rec.write_line("cycle", false, &mut out);
        }
        for rec in &self.top {
            rec.write_line("top", false, &mut out);
        }
        for (name, stat) in &profile.phases {
            out.push('{');
            let first = json::push_str_field(&mut out, true, "kind", "phase");
            let first = json::push_str_field(&mut out, first, "name", name);
            let first = json::push_u64_field(&mut out, first, "calls", stat.calls);
            let _ = json::push_u64_field(&mut out, first, "total_ns", stat.total_ns);
            out.push_str("}\n");
        }
        out
    }

    /// Deterministic subset: header plus ring and top-K records with the
    /// counter fields only. Byte-identical across same-seed runs — the
    /// determinism suite's anchor.
    pub fn counters_jsonl(&self) -> String {
        let mut out = String::new();
        self.write_header(&mut out);
        for rec in &self.ring {
            rec.write_line("cycle", true, &mut out);
        }
        for rec in &self.top {
            rec.write_line("top", true, &mut out);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Reader (for `interstitial perf hotspots`)
// ---------------------------------------------------------------------------

/// A parsed recorder dump.
#[derive(Clone, Debug, Default)]
pub struct RecorderDump {
    /// Header `recorder_schema`.
    pub schema: u64,
    /// Ring capacity the writer ran with.
    pub capacity: u64,
    /// Ledger size the writer ran with.
    pub top_k: u64,
    /// Total passes recorded.
    pub cycles_seen: u64,
    /// Passes evicted from the ring.
    pub dropped: u64,
    /// Retained ring window, oldest first.
    pub ring: Vec<CycleRecord>,
    /// Top-K ledger, most expensive first.
    pub top: Vec<CycleRecord>,
    /// Per-phase run totals: `(name, calls, total_ns)`.
    pub phases: Vec<(String, u64, u64)>,
}

impl RecorderDump {
    /// Parse JSONL written by [`CycleRecorder::to_jsonl`] or
    /// [`CycleRecorder::counters_jsonl`] (the counter-only form simply
    /// leaves the nanos at zero and carries no phase lines). Strict: a
    /// malformed line is an error naming its line and byte, and a dump
    /// whose cycle or top records fall short of the counts its header
    /// declares is an error too.
    pub fn from_jsonl(text: &str) -> Result<RecorderDump, String> {
        let mut lines = (1..)
            .zip(text.lines())
            .filter(|(_, l)| !l.trim().is_empty());
        let (lineno, header) = lines
            .next()
            .ok_or_else(|| "empty recorder dump".to_string())?;
        let mut dump = RecorderDump::default();
        json::read_object(header, lineno, |r, key| {
            match key {
                "recorder_schema" => dump.schema = r.u64()?,
                "capacity" => dump.capacity = r.u64()?,
                "top_k" => dump.top_k = r.u64()?,
                "cycles_seen" => dump.cycles_seen = r.u64()?,
                "dropped" => dump.dropped = r.u64()?,
                _ => r.skip()?,
            }
            Ok(())
        })
        .map_err(|e| e.to_string())?;
        if dump.schema != RECORDER_SCHEMA {
            return Err(format!(
                "unsupported recorder schema {} (expected {RECORDER_SCHEMA}) — is this a \
                 --record-cycles artifact?",
                dump.schema
            ));
        }
        for (lineno, line) in lines {
            let (mut kind, mut name) = ("", "");
            let mut rec = CycleRecord::default();
            let (mut calls, mut total_ns) = (0, 0);
            json::read_object(line, lineno, |r, key| {
                match key {
                    "kind" => kind = r.string()?,
                    "name" => name = r.string()?,
                    "calls" => calls = r.u64()?,
                    "total_ns" => total_ns = r.u64()?,
                    // Unknown fields are skipped (forward compat).
                    field => {
                        if let Some(json::Scalar::U64(n)) = r.value()? {
                            let _ = rec.set_field(field, n);
                        }
                    }
                }
                Ok(())
            })
            .map_err(|e| e.to_string())?;
            match kind {
                "cycle" => dump.ring.push(rec),
                "top" => dump.top.push(rec),
                "phase" => dump.phases.push((name.to_string(), calls, total_ns)),
                other => return Err(format!("line {lineno}: unknown record kind {other:?}")),
            }
        }
        // A dump cut at a line boundary is short of the declared records.
        let ring = dump.ring.len() as u64;
        let top = dump.top.len() as u64;
        if dump.cycles_seen.checked_sub(dump.dropped) != Some(ring)
            || ring > dump.capacity
            || top != dump.top_k.min(dump.cycles_seen)
        {
            return Err(format!(
                "truncated recorder dump: {ring} cycle and {top} top records for a header of \
                 {} cycles seen, {} dropped, capacity {} and top_k {}",
                dump.cycles_seen, dump.dropped, dump.capacity, dump.top_k
            ));
        }
        Ok(dump)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive `n` passes with LCG-derived totals; returns the recorder.
    fn drive(n: u64, capacity: usize, top_k: usize) -> CycleRecorder {
        let mut r = CycleRecorder::with_limits(capacity, top_k);
        let mut totals = CycleTotals::default();
        let mut x = 0x9e3779b97f4a7c15u64;
        for i in 0..n {
            let t = r.begin();
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            totals.events += (x >> 33) % 7;
            totals.starts += (x >> 23) % 3;
            totals.candidates += (x >> 13) % 11;
            totals.segments += (x >> 3) % 5;
            r.end_cycle(
                t,
                SimTime::from_secs(i * 60),
                (x >> 40) % 100,
                totals,
                PhaseNanos::default(),
            );
        }
        r
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let mut r = CycleRecorder::disabled();
        let t = r.begin();
        assert!(t.is_none());
        r.end_cycle(
            t,
            SimTime::from_secs(1),
            5,
            CycleTotals {
                events: 10,
                ..Default::default()
            },
            PhaseNanos::default(),
        );
        assert_eq!(r.cycles_seen(), 0);
        assert_eq!(r.ring().count(), 0);
        assert!(r.top().is_empty());
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let r = drive(100, 16, 4);
        assert_eq!(r.cycles_seen(), 100);
        assert_eq!(r.dropped(), 84);
        let cycles: Vec<u64> = r.ring().map(|rec| rec.cycle).collect();
        let want: Vec<u64> = (84..100).collect();
        assert_eq!(cycles, want, "ring holds the newest window in pass order");
    }

    #[test]
    fn top_k_is_exact_against_brute_force() {
        for (n, cap, k) in [(200u64, 32usize, 8usize), (50, 8, 16), (500, 64, 1)] {
            let r = drive(n, cap, k);
            // Brute force: replay the same LCG stream, sort by the ledger's
            // order (cost desc, cycle asc), truncate.
            let full = drive(n, n as usize + 1, n as usize + 1);
            let mut all: Vec<CycleRecord> = full.ring().copied().collect();
            all.sort_by(|a, b| b.cost.cmp(&a.cost).then(a.cycle.cmp(&b.cycle)));
            all.truncate(k);
            let got: Vec<(u64, u64)> = r.top().iter().map(|x| (x.cost, x.cycle)).collect();
            let want: Vec<(u64, u64)> = all.iter().map(|x| (x.cost, x.cycle)).collect();
            assert_eq!(got, want, "n={n} cap={cap} k={k}");
        }
    }

    #[test]
    fn cost_is_the_sum_of_counter_deltas() {
        let r = drive(10, 16, 4);
        for rec in r.ring() {
            assert_eq!(rec.cost, rec.events + rec.candidates + rec.segments);
        }
    }

    #[test]
    fn counters_jsonl_is_identical_across_identical_runs() {
        let a = drive(300, 64, 8).counters_jsonl();
        let b = drive(300, 64, 8).counters_jsonl();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"recorder_schema\":1,"), "{a}");
        assert!(
            !a.contains("ns_total"),
            "counter form must exclude wall nanos"
        );
    }

    #[test]
    fn jsonl_round_trips_through_the_reader() {
        let r = drive(40, 16, 4);
        let mut profile = ProfileSnapshot::default();
        profile.phases.insert(
            "event-pump",
            crate::profile::PhaseStat {
                calls: 40,
                total_ns: 12345,
                ..Default::default()
            },
        );
        let full = r.to_jsonl(&profile);
        let dump = RecorderDump::from_jsonl(&full).unwrap();
        assert_eq!(dump.schema, RECORDER_SCHEMA);
        assert_eq!(dump.cycles_seen, 40);
        assert_eq!(dump.dropped, 24);
        assert_eq!(dump.ring.len(), 16);
        assert_eq!(dump.top.len(), 4);
        assert_eq!(dump.phases, vec![("event-pump".to_string(), 40, 12345)]);
        let ring: Vec<CycleRecord> = r.ring().copied().collect();
        assert_eq!(dump.ring, ring, "counter+ns fields survive the round trip");
        assert_eq!(dump.top, r.top());
        // The counter-only form parses too, with nanos zeroed.
        let lean = RecorderDump::from_jsonl(&r.counters_jsonl()).unwrap();
        assert_eq!(lean.ring.len(), 16);
        assert!(lean.ring.iter().all(|x| x.ns_total == 0));
        assert!(lean.phases.is_empty());
    }

    #[test]
    fn reader_rejects_garbage_and_wrong_schema() {
        assert!(RecorderDump::from_jsonl("").is_err());
        assert!(RecorderDump::from_jsonl("{\"recorder_schema\":99}\n").is_err());
        assert!(RecorderDump::from_jsonl("{\"recorder_schema\":1}\n{\"kind\":\"wat\"}\n").is_err());
        assert!(RecorderDump::from_jsonl("{\"recorder_schema\":1}\nnot json\n").is_err());
    }
}
