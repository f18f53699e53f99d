//! Deterministic work counters.
//!
//! Wall-clock timings answer "how long", but cannot attribute cost: the
//! backfill literature (Mu'alem & Feitelson) shows scheduler expense is
//! dominated by queue/profile *scan work*, which only shows up as counts.
//! [`WorkCounters`] collects those counts — events popped, schedule cycles,
//! backfill candidates scanned, free-profile segments walked, heap peak
//! depth, requeue/retry churn — as pure functions of the simulation seed.
//!
//! Three properties the perf-regression gate relies on:
//!
//! * **Deterministic** — same seed, same machine ⇒ bitwise-identical
//!   counters, on any host. CI diffs them *exactly*.
//! * **Always kept** — the sources (the event queue, the scheduler, the
//!   fault ledger) count in every run, so there is no switch: the driver
//!   reads them into one snapshot whenever an instrument asks, and once
//!   more at the end of the run for the report.
//! * **Out-of-band** — counters live in [`crate::report::RunReport`], never
//!   in the trace stream, so golden traces stay byte-identical.

use crate::json;

/// The number of individual counters in [`WorkCounters::fields`].
pub const FIELD_COUNT: usize = 13;

/// Deterministic per-run work counters (see module docs).
///
/// Plain `Copy` data: snapshotting is a move, merging is fieldwise
/// arithmetic (sums, except the peak which is a max), so `merge` is
/// associative and commutative with the default (all zero) as identity —
/// properties pinned by tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Events popped off the future-event list.
    pub events_popped: u64,
    /// Events ever scheduled onto the future-event list.
    pub events_scheduled: u64,
    /// High-water mark of the future-event list.
    pub heap_peak_depth: u64,
    /// Scheduling cycles executed.
    pub sched_cycles: u64,
    /// Jobs started in queue order.
    pub inorder_starts: u64,
    /// Jobs started by backfill.
    pub backfill_starts: u64,
    /// Queued jobs examined by the backfill planner, summed over cycles.
    pub backfill_candidates_scanned: u64,
    /// Segments in the free-capacity profiles built for planning.
    pub profile_segments_walked: u64,
    /// Native jobs requeued after a fault kill.
    pub requeues: u64,
    /// Interstitial retry submissions after a fault kill.
    pub retries: u64,
    /// Checkpoints completed by interstitial jobs (`--recovery ckpt=I`).
    /// Stays zero under kill-restart: the legacy path never engages the
    /// recovery ledger, keeping frozen perf baselines comparable.
    pub checkpoints_taken: u64,
    /// CPU-seconds of evicted interstitial progress carried across a
    /// resume instead of being discarded.
    pub cpu_s_salvaged: u64,
    /// CPU-seconds of evicted interstitial progress lost past the last
    /// checkpoint and re-executed (zero under kill-restart, which accounts
    /// its losses as fault waste instead).
    pub cpu_s_reexecuted: u64,
}

impl WorkCounters {
    /// Jobs started by the scheduler: in queue order plus by backfill.
    #[inline]
    pub fn starts(&self) -> u64 {
        self.inorder_starts + self.backfill_starts
    }

    /// All counters as `(name, value)` pairs in canonical (JSON) order.
    ///
    /// The single source of truth for serialization, parsing and the
    /// perf-compare diff, so the three can never drift apart.
    pub fn fields(&self) -> [(&'static str, u64); FIELD_COUNT] {
        [
            ("events_popped", self.events_popped),
            ("events_scheduled", self.events_scheduled),
            ("heap_peak_depth", self.heap_peak_depth),
            ("sched_cycles", self.sched_cycles),
            ("inorder_starts", self.inorder_starts),
            ("backfill_starts", self.backfill_starts),
            (
                "backfill_candidates_scanned",
                self.backfill_candidates_scanned,
            ),
            ("profile_segments_walked", self.profile_segments_walked),
            ("requeues", self.requeues),
            ("retries", self.retries),
            ("checkpoints_taken", self.checkpoints_taken),
            ("cpu_s_salvaged", self.cpu_s_salvaged),
            ("cpu_s_reexecuted", self.cpu_s_reexecuted),
        ]
    }

    /// Set a counter by its canonical name; false if the name is unknown.
    pub fn set_field(&mut self, name: &str, value: u64) -> bool {
        let slot = match name {
            "events_popped" => &mut self.events_popped,
            "events_scheduled" => &mut self.events_scheduled,
            "heap_peak_depth" => &mut self.heap_peak_depth,
            "sched_cycles" => &mut self.sched_cycles,
            "inorder_starts" => &mut self.inorder_starts,
            "backfill_starts" => &mut self.backfill_starts,
            "backfill_candidates_scanned" => &mut self.backfill_candidates_scanned,
            "profile_segments_walked" => &mut self.profile_segments_walked,
            "requeues" => &mut self.requeues,
            "retries" => &mut self.retries,
            "checkpoints_taken" => &mut self.checkpoints_taken,
            "cpu_s_salvaged" => &mut self.cpu_s_salvaged,
            "cpu_s_reexecuted" => &mut self.cpu_s_reexecuted,
            _ => return false,
        };
        *slot = value;
        true
    }

    /// Combine two snapshots: sums everywhere, max for the peak depth.
    ///
    /// Associative and commutative; merging with the default is the
    /// identity.
    pub fn merge(&self, other: &WorkCounters) -> WorkCounters {
        WorkCounters {
            events_popped: self.events_popped + other.events_popped,
            events_scheduled: self.events_scheduled + other.events_scheduled,
            heap_peak_depth: self.heap_peak_depth.max(other.heap_peak_depth),
            sched_cycles: self.sched_cycles + other.sched_cycles,
            inorder_starts: self.inorder_starts + other.inorder_starts,
            backfill_starts: self.backfill_starts + other.backfill_starts,
            backfill_candidates_scanned: self.backfill_candidates_scanned
                + other.backfill_candidates_scanned,
            profile_segments_walked: self.profile_segments_walked + other.profile_segments_walked,
            requeues: self.requeues + other.requeues,
            retries: self.retries + other.retries,
            checkpoints_taken: self.checkpoints_taken + other.checkpoints_taken,
            cpu_s_salvaged: self.cpu_s_salvaged + other.cpu_s_salvaged,
            cpu_s_reexecuted: self.cpu_s_reexecuted + other.cpu_s_reexecuted,
        }
    }

    /// Append `{"events_popped":N,…}` to `out` in canonical field order.
    pub fn write_json(&self, out: &mut String) {
        out.push('{');
        let mut first = true;
        for (name, value) in self.fields() {
            first = json::push_u64_field(out, first, name, value);
        }
        out.push('}');
    }

    /// The counters as one deterministic JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64) -> WorkCounters {
        // Small deterministic LCG so tests need no RNG dependency.
        let mut w = WorkCounters::default();
        let mut x = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        for (name, _) in WorkCounters::default().fields() {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            assert!(w.set_field(name, x >> 33));
        }
        w
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let (a, b, c) = (sample(1), sample(2), sample(3));
        assert_eq!(a.merge(&b), b.merge(&a));
        assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
    }

    #[test]
    fn merge_identity_is_the_fresh_instance() {
        let a = sample(42);
        assert_eq!(a.merge(&WorkCounters::default()), a);
        assert_eq!(WorkCounters::default().merge(&a), a);
    }

    #[test]
    fn json_is_canonical_and_complete() {
        let w = WorkCounters {
            events_popped: 3,
            events_scheduled: 4,
            heap_peak_depth: 2,
            sched_cycles: 1,
            inorder_starts: 1,
            backfill_candidates_scanned: 5,
            profile_segments_walked: 6,
            ..WorkCounters::default()
        };
        assert_eq!(
            w.to_json(),
            "{\"events_popped\":3,\"events_scheduled\":4,\"heap_peak_depth\":2,\
             \"sched_cycles\":1,\"inorder_starts\":1,\"backfill_starts\":0,\
             \"backfill_candidates_scanned\":5,\"profile_segments_walked\":6,\
             \"requeues\":0,\"retries\":0,\"checkpoints_taken\":0,\
             \"cpu_s_salvaged\":0,\"cpu_s_reexecuted\":0}"
        );
        assert_eq!(w.fields().len(), FIELD_COUNT);
    }

    #[test]
    fn set_field_round_trips_every_name() {
        let mut w = WorkCounters::default();
        for (i, (name, _)) in WorkCounters::default().fields().iter().enumerate() {
            assert!(w.set_field(name, i as u64 + 1));
        }
        for (i, (_, value)) in w.fields().iter().enumerate() {
            assert_eq!(*value, i as u64 + 1);
        }
        assert!(!w.set_field("no_such_counter", 1));
    }
}
