//! The exclusive-time layer ledger of one `Simulator::run`.
//!
//! The profiler's phase totals are inclusive: `schedule-cycle` contains
//! `order-queue`, `free-profile` and `backfill`, so summing the totals
//! counts that time twice. The ledger subtracts each span's children from
//! it and adds a `core.other_ms` row for the part of the run no top-level
//! span covers, so its rows sum to the run's wall time exactly, in integer
//! nanoseconds.

use obs::profile::ProfileSnapshot;

/// Every span the simulator opens, the ledger row its self time fills, and
/// the span it nests inside (`None` for spans opened directly by the run
/// loop).
pub const SPANS: [(&str, &str, Option<&str>); 5] = [
    ("event-pump", "core.event_pump.self_ms", None),
    ("schedule-cycle", "core.cycle.self_ms", None),
    (
        "order-queue",
        "sched.order_queue.self_ms",
        Some("schedule-cycle"),
    ),
    (
        "free-profile",
        "machine.free_profile.self_ms",
        Some("schedule-cycle"),
    ),
    ("backfill", "sched.backfill.self_ms", Some("schedule-cycle")),
];

/// The row for run time outside every top-level span.
pub const OTHER: &str = "core.other_ms";

/// Self time per ledger row, in nanoseconds, in [`SPANS`] order followed by
/// [`OTHER`]. Errors on a span missing from [`SPANS`] (its nesting is
/// unknown, so its time cannot be placed) and on a parent shorter than its
/// children, which means the nesting in [`SPANS`] is wrong.
pub fn self_times(
    profile: &ProfileSnapshot,
    run_ns: u64,
) -> Result<Vec<(&'static str, u64)>, String> {
    if let Some(name) = profile
        .phases
        .keys()
        .find(|name| !SPANS.iter().any(|(span, _, _)| span == *name))
    {
        return Err(format!("span {name:?} has no row in the ledger"));
    }
    let total = |span: &str| profile.phases.get(span).map_or(0, |p| p.total_ns);
    let mut rows = Vec::with_capacity(SPANS.len() + 1);
    let mut top_level = 0u64;
    for (span, row, parent) in SPANS {
        let children: u64 = SPANS
            .iter()
            .filter(|(_, _, p)| *p == Some(span))
            .map(|(child, _, _)| total(child))
            .sum();
        let own = total(span)
            .checked_sub(children)
            .ok_or_else(|| format!("span {span:?} is shorter than its children"))?;
        rows.push((row, own));
        if parent.is_none() {
            top_level += total(span);
        }
    }
    let other = run_ns
        .checked_sub(top_level)
        .ok_or_else(|| "top-level spans outlast the run".to_string())?;
    rows.push((OTHER, other));
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::profile::PhaseStat;

    fn snapshot(totals: &[(&'static str, u64)]) -> ProfileSnapshot {
        let mut s = ProfileSnapshot::default();
        for &(name, total_ns) in totals {
            s.phases.insert(
                name,
                PhaseStat {
                    calls: 1,
                    total_ns,
                    ..PhaseStat::default()
                },
            );
        }
        s
    }

    #[test]
    fn self_times_sum_exactly_to_the_run() {
        let s = snapshot(&[
            ("event-pump", 1_000),
            ("schedule-cycle", 9_000),
            ("order-queue", 4_000),
            ("free-profile", 500),
            ("backfill", 2_500),
        ]);
        let rows = self_times(&s, 12_345).unwrap();
        assert_eq!(rows.iter().map(|(_, ns)| ns).sum::<u64>(), 12_345);
        let row = |name: &str| rows.iter().find(|(r, _)| *r == name).unwrap().1;
        assert_eq!(row("core.cycle.self_ms"), 2_000);
        assert_eq!(row("sched.order_queue.self_ms"), 4_000);
        assert_eq!(row("core.other_ms"), 2_345);
    }

    #[test]
    fn a_run_without_spans_is_all_other() {
        let rows = self_times(&ProfileSnapshot::default(), 77).unwrap();
        assert_eq!(rows.last(), Some(&(OTHER, 77)));
        assert_eq!(rows.iter().map(|(_, ns)| ns).sum::<u64>(), 77);
    }

    #[test]
    fn unknown_spans_and_impossible_nesting_are_errors() {
        assert!(self_times(&snapshot(&[("mystery", 1)]), 10).is_err());
        let bad = snapshot(&[("schedule-cycle", 10), ("backfill", 20)]);
        assert!(self_times(&bad, 100).is_err());
        assert!(self_times(&snapshot(&[("event-pump", 50)]), 10).is_err());
    }
}
