//! Wall-clock phase profiling.
//!
//! This module is the one audited simlint R2 exception outside the bench
//! harness: it reads `std::time::Instant` to time the simulator's phases
//! ([`Phase`]). The readings are *reported only* — they never influence
//! scheduling decisions, event ordering or any simulated quantity, so
//! determinism is untouched. Golden comparisons exclude the profile section
//! by construction (`RunReport::to_json_deterministic`).
//!
//! Spans use an explicit begin/end token rather than a drop guard so that
//! nested phases (backfill inside schedule-cycle) can be timed without
//! holding overlapping `&mut` borrows of the profiler.

use crate::json;
use std::collections::BTreeMap;
use std::time::Instant;

/// A timed phase of one event batch and its scheduling pass. Each phase
/// owns its wire name and the phase it nests in; the variant order is the
/// order of [`PhaseProfiler`]'s table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// The driver handling every event of one instant.
    EventPump,
    /// The driver's scheduling pass; the three phases below nest in it.
    ScheduleCycle,
    /// The scheduler ordering its native queue.
    OrderQueue,
    /// The scheduler building the free-capacity profile.
    FreeProfile,
    /// The scheduler planning in-order and backfill starts.
    Backfill,
}

impl Phase {
    /// The number of phases.
    pub const COUNT: usize = 5;

    /// Every phase, in table order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::EventPump,
        Phase::ScheduleCycle,
        Phase::OrderQueue,
        Phase::FreeProfile,
        Phase::Backfill,
    ];

    /// The phase's name in reports and recorder dumps.
    pub const fn name(self) -> &'static str {
        match self {
            Phase::EventPump => "event-pump",
            Phase::ScheduleCycle => "schedule-cycle",
            Phase::OrderQueue => "order-queue",
            Phase::FreeProfile => "free-profile",
            Phase::Backfill => "backfill",
        }
    }

    /// The phase this one is timed inside, or `None` for a phase the run
    /// loop opens directly.
    pub const fn parent(self) -> Option<Phase> {
        match self {
            Phase::EventPump | Phase::ScheduleCycle => None,
            Phase::OrderQueue | Phase::FreeProfile | Phase::Backfill => Some(Phase::ScheduleCycle),
        }
    }

    /// The phase with wire name `name`, if any.
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// Accumulated timing for one phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Number of completed spans.
    pub calls: u64,
    /// Total wall-clock nanoseconds across those spans (saturating).
    pub total_ns: u64,
}

/// An ordered snapshot of the phases that were timed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// Per-phase stats in name order.
    pub phases: BTreeMap<&'static str, PhaseStat>,
}

impl ProfileSnapshot {
    /// Append `{"phase":{"calls":..,"total_ns":..},..}` in name order.
    /// Values are wall-clock readings — never compared in golden tests.
    pub fn write_json(&self, out: &mut String) {
        out.push('{');
        let mut first = true;
        for (name, stat) in &self.phases {
            if !first {
                out.push(',');
            }
            first = false;
            json::push_key(out, name);
            out.push('{');
            let inner = json::push_u64_field(out, true, "calls", stat.calls);
            let _ = json::push_u64_field(out, inner, "total_ns", stat.total_ns);
            out.push('}');
        }
        out.push('}');
    }
}

/// Per-phase wall-clock span accumulator with a zero-cost disabled path.
#[derive(Clone, Debug, Default)]
pub struct PhaseProfiler {
    enabled: bool,
    stats: [PhaseStat; Phase::COUNT],
}

impl PhaseProfiler {
    /// A profiler whose spans are no-ops (the default).
    pub fn disabled() -> Self {
        PhaseProfiler::default()
    }

    /// A collecting profiler.
    pub fn enabled() -> Self {
        PhaseProfiler {
            enabled: true,
            ..PhaseProfiler::default()
        }
    }

    /// Whether spans are timed.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span. Returns `None` (no clock read) when disabled; pass the
    /// token to [`end`](PhaseProfiler::end) to close it.
    #[inline]
    pub fn begin(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Close a span opened by [`begin`](PhaseProfiler::begin), charging the
    /// elapsed wall-clock time to `phase`.
    #[inline]
    pub fn end(&mut self, phase: Phase, token: Option<Instant>) {
        if let Some(t0) = token {
            self.charge(phase, t0);
        }
    }

    /// The timed half of [`end`](PhaseProfiler::end), kept out of line so
    /// the scheduler's and the driver's loops, which open spans on every
    /// pass, inline only the branch when profiling is off.
    #[cold]
    #[inline(never)]
    fn charge(&mut self, phase: Phase, t0: Instant) {
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let stat = &mut self.stats[phase as usize];
        stat.calls += 1;
        stat.total_ns = stat.total_ns.saturating_add(ns);
    }

    /// The accumulated stats of one phase (zero when never timed).
    #[inline]
    pub fn stat(&self, phase: Phase) -> PhaseStat {
        self.stats[phase as usize]
    }

    /// The phases timed at least once, keyed by name.
    pub fn snapshot(&self) -> ProfileSnapshot {
        ProfileSnapshot {
            phases: Phase::ALL
                .into_iter()
                .map(|p| (p.name(), self.stat(p)))
                .filter(|(_, stat)| stat.calls > 0)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_never_reads_the_clock() {
        let mut p = PhaseProfiler::disabled();
        let token = p.begin();
        assert!(token.is_none());
        p.end(Phase::Backfill, token);
        assert!(p.snapshot().phases.is_empty());
    }

    #[test]
    fn spans_accumulate_per_phase() {
        let mut p = PhaseProfiler::enabled();
        for _ in 0..3 {
            let t = p.begin();
            p.end(Phase::ScheduleCycle, t);
        }
        let t = p.begin();
        p.end(Phase::EventPump, t);
        let snap = p.snapshot();
        assert_eq!(snap.phases.len(), 2, "untimed phases are left out");
        assert_eq!(snap.phases[Phase::ScheduleCycle.name()].calls, 3);
        assert_eq!(snap.phases[Phase::EventPump.name()].calls, 1);
        assert_eq!(p.stat(Phase::Backfill), PhaseStat::default());
    }

    #[test]
    fn nested_spans_work() {
        let mut p = PhaseProfiler::enabled();
        let outer = p.begin();
        let inner = p.begin();
        p.end(Phase::OrderQueue, inner);
        p.end(Phase::ScheduleCycle, outer);
        assert!(p.stat(Phase::ScheduleCycle).total_ns >= p.stat(Phase::OrderQueue).total_ns);
    }

    #[test]
    fn the_table_names_five_phases_and_nests_three() {
        for p in Phase::ALL {
            assert_eq!(Phase::ALL[p as usize], p, "variant order is table order");
            assert_eq!(Phase::from_name(p.name()), Some(p));
        }
        let nested: Vec<Phase> = Phase::ALL
            .into_iter()
            .filter(|p| p.parent() == Some(Phase::ScheduleCycle))
            .collect();
        assert_eq!(
            nested,
            [Phase::OrderQueue, Phase::FreeProfile, Phase::Backfill]
        );
        assert_eq!(Phase::from_name("no-such-phase"), None);
    }

    #[test]
    fn json_shape() {
        let mut p = PhaseProfiler::enabled();
        let t = p.begin();
        p.end(Phase::Backfill, t);
        let mut s = String::new();
        p.snapshot().write_json(&mut s);
        assert!(
            s.starts_with("{\"backfill\":{\"calls\":1,\"total_ns\":"),
            "{s}"
        );
        assert!(s.ends_with("}}"), "{s}");
    }
}
