//! The dispatch planner: priority order + backfill.
//!
//! One scheduling cycle takes the priority-ordered waiting queue and the
//! projected free-capacity profile (current idle CPUs plus the *estimated*
//! ends of running jobs) and decides which jobs start right now. The planner
//! is shared by all policies; they differ in who may jump the queue:
//!
//! * [`BackfillPolicy::None`] — strict priority order; the first job that
//!   does not fit blocks everything behind it.
//! * [`BackfillPolicy::Easy`] — the classic EASY rule: the blocked head gets
//!   a reservation at its shadow time; any lower-priority job may start now
//!   if doing so cannot push that reservation back (it either finishes
//!   before the shadow time or fits beside the head's reservation).
//! * [`BackfillPolicy::Conservative`] — every queued job gets a reservation;
//!   a job may start now only if it delays nobody ahead of it.
//! * [`BackfillPolicy::Restrictive`] — Ross-style PBS: EASY without the
//!   "fits beside the reservation" exception (candidates must *finish*
//!   before the shadow time) and with a bounded scan depth. The paper notes
//!   Ross's backfill criteria are "more restrictive than for Blue Mountain
//!   or Blue Pacific".
//!
//! All reservations use the user-supplied estimates, so they are exactly as
//! wrong as the estimates are — the effect §4.3 measures.

use crate::window::DispatchWindow;
use machine::{IndexedFreeProfile, RunningSet};
use simkit::series::StepFunction;
use simkit::time::{SimDuration, SimTime};
use workload::Job;

/// How far ahead reservations are planned. Longer than any queue estimate
/// plus any plausible backlog on the paper's machines.
pub const LOOKAHEAD: SimDuration = SimDuration(60 * 86_400);

/// The capacity queries the planner needs, abstracted so the naive
/// [`StepFunction`] profile and the indexed [`IndexedFreeProfile`] view are
/// interchangeable. Both answer every method identically for the same
/// running set (checked every cycle by
/// [`check_planner_equivalence`](crate::invariants::check_planner_equivalence));
/// they differ only in cost. Methods take `&mut self` so implementations may keep
/// deterministic work tallies without interior mutability (simlint R5).
pub trait CapacityProfile {
    /// Value at instant `t` (clamped into the domain).
    fn value_at(&mut self, t: SimTime) -> i64;
    /// Minimum value on `[t0, t1)`; `None` for an empty window.
    fn min_over(&mut self, t0: SimTime, t1: SimTime) -> Option<i64>;
    /// Add `delta` on `[t0, t1)` (planner deductions are negative).
    fn range_add(&mut self, t0: SimTime, t1: SimTime, delta: i64);
    /// Earliest start ≥ `from` holding ≥ `need` CPUs for all of `dur`.
    fn find_slot(&mut self, from: SimTime, need: i64, dur: SimDuration) -> Option<SimTime>;
}

impl CapacityProfile for StepFunction {
    fn value_at(&mut self, t: SimTime) -> i64 {
        StepFunction::value_at(self, t)
    }
    fn min_over(&mut self, t0: SimTime, t1: SimTime) -> Option<i64> {
        StepFunction::min_over(self, t0, t1)
    }
    fn range_add(&mut self, t0: SimTime, t1: SimTime, delta: i64) {
        StepFunction::range_add(self, t0, t1, delta)
    }
    fn find_slot(&mut self, from: SimTime, need: i64, dur: SimDuration) -> Option<SimTime> {
        StepFunction::find_slot(self, from, need, dur)
    }
}

impl CapacityProfile for IndexedFreeProfile<'_> {
    fn value_at(&mut self, t: SimTime) -> i64 {
        IndexedFreeProfile::value_at(self, t)
    }
    fn min_over(&mut self, t0: SimTime, t1: SimTime) -> Option<i64> {
        IndexedFreeProfile::min_over(self, t0, t1)
    }
    fn range_add(&mut self, t0: SimTime, t1: SimTime, delta: i64) {
        IndexedFreeProfile::range_add(self, t0, t1, delta)
    }
    fn find_slot(&mut self, from: SimTime, need: i64, dur: SimDuration) -> Option<SimTime> {
        IndexedFreeProfile::find_slot(self, from, need, dur)
    }
}

/// Backfill flavor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackfillPolicy {
    /// No backfill: head-of-line blocking.
    None,
    /// EASY (aggressive) backfill.
    Easy,
    /// Conservative backfill: reservations for every waiting job.
    Conservative,
    /// Restricted EASY: candidates must finish before the head reservation
    /// and only the first `depth` queued jobs are examined.
    Restrictive {
        /// Maximum queue positions scanned for backfill candidates.
        depth: usize,
    },
}

/// A planned future start for a queued job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reservation {
    /// The reserved job.
    pub job_id: u64,
    /// Planned start instant (based on estimates).
    pub start: SimTime,
    /// CPUs reserved.
    pub cpus: u32,
}

/// Outcome of one scheduling cycle.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DispatchPlan {
    /// Jobs to start immediately, in decision order.
    pub starts: Vec<Job>,
    /// How many of `starts` jumped a blocked head (true backfills, as
    /// opposed to in-order dispatches).
    pub backfilled: u32,
    /// Reservation for the highest-priority job that could *not* start —
    /// its `start` is the paper's `backFillWallTime`. `None` if everything
    /// started or the blocked job cannot be placed inside the lookahead.
    pub head_reservation: Option<Reservation>,
    /// Queued jobs the planner examined this cycle — the scan work that
    /// dominates backfill cost (Mu'alem & Feitelson). Less than the queue
    /// length when a bounded scan or head-of-line blocking cut the pass
    /// short. Deterministic; feeds `obs::WorkCounters`.
    pub candidates_scanned: u32,
}

/// Compute one dispatch cycle.
///
/// `ordered_queue` must already be in priority order (see
/// [`crate::priority::PriorityPolicy::order`]). `free` is the number of idle
/// CPUs this instant (after outages). Jobs larger than the profile can ever
/// satisfy are skipped (and reported via the head reservation as `None` if
/// they block the queue).
pub fn plan(
    policy: BackfillPolicy,
    ordered_queue: &[Job],
    now: SimTime,
    free: u32,
    running: &RunningSet,
    window: DispatchWindow,
) -> DispatchPlan {
    if ordered_queue.is_empty() {
        return DispatchPlan::default();
    }
    let mut profile = running.free_profile(now, free, now + LOOKAHEAD);
    plan_on(policy, ordered_queue, now, &mut profile, window)
}

/// [`plan`] against any [`CapacityProfile`], so one planner body serves
/// both the naive profile and the indexed view the scheduler queries — the
/// planner-equivalence invariant depends on there being exactly one
/// decision procedure. The profile is consumed (reservations are
/// subtracted in place).
pub fn plan_on<P: CapacityProfile>(
    policy: BackfillPolicy,
    ordered_queue: &[Job],
    now: SimTime,
    profile: &mut P,
    window: DispatchWindow,
) -> DispatchPlan {
    let mut out = DispatchPlan::default();
    if ordered_queue.is_empty() {
        return out;
    }

    // Early-exit guard: once the head is blocked and no CPU is free *right
    // now*, no later candidate can start either (backfill candidates must
    // start immediately, and reservations never subtract capacity at `now`),
    // so the scan is over. Sound because `can_start_now` needs
    // `min_over(now, ·) >= cpus >= 1` while the value at `now` is ≤ 0 —
    // except for hypothetical zero-CPU jobs, which disable the shortcut.
    // Applied identically for every profile implementation so
    // `candidates_scanned` is the same on the naive and indexed profiles.
    let has_zero_cpu = ordered_queue.iter().any(|j| j.cpus == 0);
    let mut free_at_now = profile.value_at(now);

    let mut head_blocked = false;
    for (idx, job) in ordered_queue.iter().enumerate() {
        if head_blocked && free_at_now <= 0 && !has_zero_cpu {
            break;
        }
        out.candidates_scanned += 1;
        let cpus = i64::from(job.cpus);
        let dur = job.planning_estimate();
        let earliest = window.next_allowed(job, now);
        // Cheap immediate-fit test (equivalent to `find_slot(...) ==
        // Some(now)` but without scanning past the window); the full slot
        // search runs only when a reservation must be planned.
        let can_start_now =
            earliest == now && profile.min_over(now, now + dur).is_some_and(|m| m >= cpus);

        // Once the head is blocked, whether a later job may run depends on
        // the policy.
        let may_start = if !head_blocked {
            can_start_now
        } else {
            match policy {
                BackfillPolicy::None => false,
                BackfillPolicy::Easy | BackfillPolicy::Conservative => can_start_now,
                BackfillPolicy::Restrictive { depth } => {
                    can_start_now
                        && idx < depth
                        && match out.head_reservation {
                            // Must *finish* before the head's planned start.
                            Some(res) => now + dur <= res.start,
                            // Head unplaceable: nothing may jump it.
                            None => false,
                        }
                }
            }
        };

        if may_start {
            profile.range_add(now, now + dur, -cpus);
            free_at_now -= cpus;
            out.starts.push(*job);
            if head_blocked {
                out.backfilled += 1;
            }
            continue;
        }

        // Job does not start now.
        if !head_blocked {
            head_blocked = true;
            let slot = profile.find_slot(earliest, cpus, dur);
            out.head_reservation = slot.map(|s| Reservation {
                job_id: job.id,
                start: s,
                cpus: job.cpus,
            });
            // The head's reservation always goes into the profile (EASY,
            // conservative and restrictive all protect the head).
            if !matches!(policy, BackfillPolicy::None) {
                if let Some(s) = slot {
                    profile.range_add(s, s + dur, -cpus);
                }
            } else {
                // No backfill: nobody behind the head is considered.
                break;
            }
        } else if matches!(policy, BackfillPolicy::Conservative) {
            // Conservative: every blocked job is reserved so nothing that
            // starts later may delay it.
            if let Some(s) = profile.find_slot(earliest, cpus, dur) {
                profile.range_add(s, s + dur, -cpus);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::RunningJob;
    use workload::JobClass;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn job(id: u64, cpus: u32, est: u64) -> Job {
        Job {
            id,
            class: JobClass::Native,
            user: id as u32,
            group: 0,
            submit: SimTime::ZERO,
            cpus,
            runtime: SimDuration::from_secs(est),
            estimate: SimDuration::from_secs(est),
        }
    }

    fn running(id: u64, cpus: u32, est_end: u64) -> RunningJob {
        RunningJob {
            id,
            cpus,
            start: SimTime::ZERO,
            actual_end: t(est_end),
            estimated_end: t(est_end),
            interstitial: false,
        }
    }

    /// Machine with 10 CPUs: 6 busy until t=1000, 4 free.
    fn busy_machine() -> RunningSet {
        let mut rs = RunningSet::new();
        rs.insert(running(100, 6, 1000));
        rs
    }

    #[test]
    fn empty_queue_empty_plan() {
        let rs = RunningSet::new();
        let p = plan(
            BackfillPolicy::Easy,
            &[],
            t(0),
            10,
            &rs,
            DispatchWindow::Always,
        );
        assert!(p.starts.is_empty());
        assert!(p.head_reservation.is_none());
    }

    #[test]
    fn head_starts_when_it_fits() {
        let rs = busy_machine();
        let q = [job(1, 4, 500)];
        let p = plan(
            BackfillPolicy::Easy,
            &q,
            t(0),
            4,
            &rs,
            DispatchWindow::Always,
        );
        assert_eq!(p.starts.len(), 1);
        assert!(p.head_reservation.is_none());
    }

    #[test]
    fn blocked_head_gets_shadow_reservation() {
        let rs = busy_machine();
        // Head needs 8 CPUs; free rises to 10 at t=1000.
        let q = [job(1, 8, 500)];
        for policy in [
            BackfillPolicy::None,
            BackfillPolicy::Easy,
            BackfillPolicy::Conservative,
            BackfillPolicy::Restrictive { depth: 10 },
        ] {
            let p = plan(policy, &q, t(0), 4, &rs, DispatchWindow::Always);
            assert!(p.starts.is_empty(), "{policy:?}");
            let res = p.head_reservation.expect("reservation");
            assert_eq!(res.start, t(1000), "{policy:?}");
            assert_eq!(res.job_id, 1);
            assert_eq!(res.cpus, 8);
        }
    }

    #[test]
    fn easy_backfills_short_job_that_finishes_before_shadow() {
        let rs = busy_machine();
        // Head: 8 CPUs (shadow t=1000). Candidate: 4 CPUs for 900 s — ends
        // at 900 < 1000, uses the 4 idle CPUs.
        let q = [job(1, 8, 500), job(2, 4, 900)];
        let p = plan(
            BackfillPolicy::Easy,
            &q,
            t(0),
            4,
            &rs,
            DispatchWindow::Always,
        );
        assert_eq!(p.starts.len(), 1);
        assert_eq!(p.starts[0].id, 2);
        assert_eq!(p.head_reservation.unwrap().start, t(1000));
    }

    #[test]
    fn easy_backfills_long_job_on_extra_nodes() {
        let rs = busy_machine();
        // Head: 8 CPUs at shadow t=1000, leaving 2 extra. Candidate: 2 CPUs
        // for 5000 s — runs past the shadow but fits beside the head.
        let q = [job(1, 8, 500), job(2, 2, 5000)];
        let p = plan(
            BackfillPolicy::Easy,
            &q,
            t(0),
            4,
            &rs,
            DispatchWindow::Always,
        );
        assert_eq!(p.starts.len(), 1, "extra-nodes backfill allowed");
        assert_eq!(p.starts[0].id, 2);
    }

    #[test]
    fn easy_rejects_long_job_that_would_delay_head() {
        let rs = busy_machine();
        // Candidate: 4 CPUs for 5000 s — at shadow t=1000 only 10−4=6 < 8
        // CPUs would remain for the head. Must not start.
        let q = [job(1, 8, 500), job(2, 4, 5000)];
        let p = plan(
            BackfillPolicy::Easy,
            &q,
            t(0),
            4,
            &rs,
            DispatchWindow::Always,
        );
        assert!(p.starts.is_empty());
    }

    #[test]
    fn restrictive_rejects_extra_nodes_exception() {
        let rs = busy_machine();
        // Same as the extra-nodes case that EASY allows: restrictive
        // requires finishing before the shadow, so it refuses.
        let q = [job(1, 8, 500), job(2, 2, 5000)];
        let p = plan(
            BackfillPolicy::Restrictive { depth: 10 },
            &q,
            t(0),
            4,
            &rs,
            DispatchWindow::Always,
        );
        assert!(p.starts.is_empty());
        // But a short candidate that finishes first is fine.
        let q2 = [job(1, 8, 500), job(2, 2, 900)];
        let p2 = plan(
            BackfillPolicy::Restrictive { depth: 10 },
            &q2,
            t(0),
            4,
            &rs,
            DispatchWindow::Always,
        );
        assert_eq!(p2.starts.len(), 1);
    }

    #[test]
    fn restrictive_depth_limits_scan() {
        let rs = busy_machine();
        // Candidate sits at index 2, beyond depth=2.
        let q = [job(1, 8, 500), job(2, 10, 400), job(3, 2, 100)];
        let p = plan(
            BackfillPolicy::Restrictive { depth: 2 },
            &q,
            t(0),
            4,
            &rs,
            DispatchWindow::Always,
        );
        assert!(p.starts.is_empty(), "job 3 is beyond the scan depth");
        let p2 = plan(
            BackfillPolicy::Restrictive { depth: 3 },
            &q,
            t(0),
            4,
            &rs,
            DispatchWindow::Always,
        );
        assert_eq!(p2.starts.len(), 1);
        assert_eq!(p2.starts[0].id, 3);
    }

    #[test]
    fn none_policy_blocks_everything_behind_head() {
        let rs = busy_machine();
        let q = [job(1, 8, 500), job(2, 1, 10)];
        let p = plan(
            BackfillPolicy::None,
            &q,
            t(0),
            4,
            &rs,
            DispatchWindow::Always,
        );
        assert!(
            p.starts.is_empty(),
            "tiny job must not jump without backfill"
        );
        assert_eq!(p.head_reservation.unwrap().start, t(1000));
    }

    #[test]
    fn conservative_protects_second_blocked_job() {
        let mut rs = RunningSet::new();
        // 10-CPU machine: 8 busy until t=1000, 2 free now.
        rs.insert(running(100, 8, 1000));
        // Head: 10 CPUs → shadow at t=1000 (reserved [1000, 1500)).
        // Second: 10 CPUs → reserved [1500, 2000).
        // Candidate: 2 CPUs for 1800 s. Under EASY it fits beside the head
        // (extra nodes = 0? head takes all 10 — no extra; candidate would
        // collide with the head's reservation and is refused by both).
        // Use a finer case: second job 4 CPUs.
        let q = [job(1, 10, 500), job(2, 4, 500), job(3, 2, 1800)];
        // Conservative: head reserved [1000,1500) all 10; job2 reserved
        // [1500,2000) 4 CPUs; candidate 2×1800 starting now runs to 1800,
        // overlapping head's reservation [1000,1500) when 0 CPUs are free →
        // refused.
        let p = plan(
            BackfillPolicy::Conservative,
            &q,
            t(0),
            2,
            &rs,
            DispatchWindow::Always,
        );
        assert!(p.starts.is_empty());
        assert_eq!(p.head_reservation.unwrap().job_id, 1);
    }

    #[test]
    fn conservative_vs_easy_on_second_job_delay() {
        let mut rs = RunningSet::new();
        // 10 CPUs: 6 busy till 1000, 4 free.
        rs.insert(running(100, 6, 1000));
        // Head: 8 CPUs, shadow t=1000, reserved [1000, 1000+500).
        // Second blocked job: 4 CPUs est 500 → conservative reserves it at
        // t=1000 too (8+4>10? at t=1000 10 free, head takes 8, leaves 2 <4 →
        // its slot is 1500).
        // Candidate: 2 CPUs for 1700 s. EASY: fits beside head (head leaves
        // 2 extra at shadow) → starts. Conservative: would overlap job 2's
        // reservation [1500, 2000) leaving 2-2=0... job2 reserved at 1500
        // with 4 cpus: profile at [1500,2000) = 10-8(head ended? head's
        // reservation [1000,1500) ends at 1500) → free 10-4=6 at [1500,
        // 2000). Candidate 2 CPUs to t=1700 still fits (6-2=4 ≥0 and ≥
        // candidate need). So conservative also allows it. Make the
        // candidate 3 CPUs and job2 8 CPUs instead:
        let q = [job(1, 8, 500), job(2, 8, 500), job(3, 2, 1700)];
        let easy = plan(
            BackfillPolicy::Easy,
            &q,
            t(0),
            4,
            &rs,
            DispatchWindow::Always,
        );
        assert_eq!(easy.starts.len(), 1, "EASY starts the 2-CPU candidate");
        assert_eq!(easy.starts[0].id, 3);
        let cons = plan(
            BackfillPolicy::Conservative,
            &q,
            t(0),
            4,
            &rs,
            DispatchWindow::Always,
        );
        // Conservative: head reserved [1000,1500) 8 CPUs; job2 reserved
        // [1500,2000) 8 CPUs; candidate 2 CPUs ending at 1700 would leave
        // only 10−8−2=0 CPUs during [1500,1700) — that still fits exactly
        // (≥0), so whether it starts depends on capacity: 8+2=10 ≤ 10. It
        // fits! Verify conservative agrees (delay-freedom, not idleness).
        assert_eq!(cons.starts.len(), 1);
    }

    #[test]
    fn window_defers_long_head_reservation() {
        let rs = RunningSet::new();
        let w = DispatchWindow::blue_pacific();
        // Long job (10 h estimate) at noon on an idle machine: cannot start
        // until 17:00.
        let long = job(1, 4, 10 * 3600);
        let noon = t(12 * 3600);
        let p = plan(BackfillPolicy::Easy, &[long], noon, 10, &rs, w);
        assert!(p.starts.is_empty());
        assert_eq!(p.head_reservation.unwrap().start, t(17 * 3600));
    }

    #[test]
    fn short_jobs_backfill_around_windowed_head() {
        let rs = RunningSet::new();
        let w = DispatchWindow::blue_pacific();
        let q = [job(1, 4, 10 * 3600), job(2, 2, 600)];
        let noon = t(12 * 3600);
        let p = plan(BackfillPolicy::Easy, &q, noon, 10, &rs, w);
        assert_eq!(p.starts.len(), 1);
        assert_eq!(p.starts[0].id, 2);
    }

    #[test]
    fn unplaceable_head_yields_no_reservation() {
        let rs = RunningSet::new();
        // Job wants 100 CPUs on a 10-CPU machine: never placeable.
        let q = [job(1, 100, 500), job(2, 2, 100)];
        let p = plan(
            BackfillPolicy::Easy,
            &q,
            t(0),
            10,
            &rs,
            DispatchWindow::Always,
        );
        assert!(p.head_reservation.is_none());
        // EASY still lets the small job through (no reservation to protect).
        assert_eq!(p.starts.len(), 1);
        // Restrictive refuses to jump an unplaceable head.
        let pr = plan(
            BackfillPolicy::Restrictive { depth: 10 },
            &q,
            t(0),
            10,
            &rs,
            DispatchWindow::Always,
        );
        assert!(pr.starts.is_empty());
    }

    #[test]
    fn candidates_scanned_counts_examined_jobs() {
        let rs = busy_machine();
        let q = [job(1, 8, 500), job(2, 10, 400), job(3, 2, 100)];
        // EASY examines the whole queue.
        let p = plan(
            BackfillPolicy::Easy,
            &q,
            t(0),
            4,
            &rs,
            DispatchWindow::Always,
        );
        assert_eq!(p.candidates_scanned, 3);
        // No-backfill stops at the blocked head.
        let p = plan(
            BackfillPolicy::None,
            &q,
            t(0),
            4,
            &rs,
            DispatchWindow::Always,
        );
        assert_eq!(p.candidates_scanned, 1);
        // An empty queue scans nothing.
        let p = plan(
            BackfillPolicy::Easy,
            &[],
            t(0),
            4,
            &rs,
            DispatchWindow::Always,
        );
        assert_eq!(p.candidates_scanned, 0);
    }

    #[test]
    fn multiple_starts_deplete_free_pool() {
        let rs = RunningSet::new();
        let q = [job(1, 4, 100), job(2, 4, 100), job(3, 4, 100)];
        let p = plan(
            BackfillPolicy::Easy,
            &q,
            t(0),
            10,
            &rs,
            DispatchWindow::Always,
        );
        // 4+4 fit; the third must wait for a finish (reserved at t=100).
        assert_eq!(p.starts.len(), 2);
        assert_eq!(p.head_reservation.unwrap().start, t(100));
    }
}
