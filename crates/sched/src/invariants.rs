//! Runtime invariant checks for the simulation loop.
//!
//! Four properties the whole reproduction rests on are asserted here, when
//! the `check-invariants` feature is enabled:
//!
//! 1. **CPU conservation** — the CPUs booked by the running set, the pool's
//!    allocation counter and the machine size always agree: `in_use + free +
//!    offline == total` and `in_use <= total`. A divergence means jobs were
//!    started on CPUs that do not exist (or released twice), which silently
//!    corrupts every utilization number downstream.
//! 2. **Meta-backfill no-delay** — placing interstitial jobs never moves the
//!    projected start of the head native job (the paper's
//!    `backFillWallTime`), *on the scheduler's own information*. This is the
//!    Figure 1 guarantee; bad user estimates may still delay natives in
//!    actuality (the §4.3 effect), but the plan itself must never regress.
//! 3. **Planner equivalence** — the indexed plan the scheduler acts on
//!    equals the naive reference: [`crate::backfill::plan`] over the same
//!    ordered queue, planned against [`RunningSet::free_profile`] rebuilt
//!    from every running job. Starts, backfilled count, head reservation and
//!    `candidates_scanned` must all match; the index may only change the
//!    cost of a decision, never the decision.
//! 4. **CPU·second identity** — at the end of a run, per job class, the
//!    CPU·seconds held equal the work delivered plus the waste booked.
//!
//! Without the feature every check returns on its first line, a
//! compile-time constant, and is inlined away, so the driver and
//! [`Scheduler::cycle_observed`] call them unconditionally and release
//! builds pay nothing. The `interstitial` crate (crates/core) turns the
//! feature on for its test builds via a dev-dependency, so every
//! `cargo test` replay runs checked.

use crate::backfill::{BackfillPolicy, DispatchPlan, Reservation};
use crate::window::DispatchWindow;
use crate::Scheduler;
use machine::{CpuLedger, RunningSet};
use simkit::time::SimTime;
use workload::{CompletedJob, Job};

/// Assert the CPU-accounting invariant: the running set and the pool agree,
/// and the partition is never oversubscribed.
#[inline(always)]
pub fn check_conservation(
    now: SimTime,
    running: &RunningSet,
    in_use: u32,
    free: u32,
    offline: u32,
    total: u32,
) {
    if !cfg!(feature = "check-invariants") {
        return;
    }
    let listed: u32 = running.iter().map(|j| j.cpus).sum();
    assert_eq!(
        listed,
        running.cpus_in_use(),
        "invariant: RunningSet cached CPU counter diverged from its contents at {now:?}"
    );
    assert_eq!(
        listed, in_use,
        "invariant: pool books {in_use} CPUs but running jobs hold {listed} at {now:?}"
    );
    assert!(
        in_use <= total,
        "invariant: {in_use} CPUs allocated on a {total}-CPU machine at {now:?}"
    );
    assert_eq!(
        in_use + free + offline,
        total,
        "invariant: pool accounting leak at {now:?} ({in_use} + {free} + {offline} != {total})"
    );
}

/// Assert the degraded-capacity invariant: occupancy never exceeds the
/// CPUs currently in service. `available` is the fault model's capacity at
/// `now` (total minus failed-node CPUs); a violation means the scheduler
/// planned jobs onto failed nodes, or a node failure did not evict its
/// tenants before its CPUs went offline.
#[inline(always)]
pub fn check_capacity(now: SimTime, in_use: u32, available: u32) {
    if !cfg!(feature = "check-invariants") {
        return;
    }
    assert!(
        in_use <= available,
        "invariant: {in_use} CPUs occupied but only {available} in service at {now:?} \
         (jobs are running on failed nodes)"
    );
}

/// Assert the meta-backfill no-delay guarantee: given the head native job's
/// reservation captured *before* interstitial placement, recompute it
/// against the post-placement running set and verify the projected start
/// did not move later. Callers skip the check entirely for preempting
/// streams, whose guard is deliberately relaxed because a blocking job can
/// always be reclaimed.
#[inline(always)]
pub fn check_no_delay(
    now: SimTime,
    scheduler: &mut Scheduler,
    free: u32,
    running: &RunningSet,
    before: Option<Reservation>,
) {
    if !cfg!(feature = "check-invariants") {
        return;
    }
    let Some(before) = before else {
        // No blocked head → nothing to protect (and with a non-empty queue
        // whose head is unplaceable, the guard admits no interstitial jobs).
        return;
    };
    match scheduler.probe_head_reservation(now, free, running) {
        Some(after) => {
            assert_eq!(
                after.job_id, before.job_id,
                "invariant: head job changed during interstitial placement at {now:?}"
            );
            assert!(
                after.start <= before.start,
                "invariant: interstitial placement delayed the head native job {} at {now:?}: \
                 reserved at {:?} before, {:?} after",
                before.job_id,
                before.start,
                after.start,
            );
        }
        None => panic!(
            "invariant: head native job {} lost its reservation during interstitial \
             placement at {now:?}",
            before.job_id
        ),
    }
}

/// Assert the planner-equivalence invariant: `indexed`, the plan the
/// scheduler computed on its indexed free-capacity view, must equal the
/// naive [`crate::backfill::plan`] over the same `ordered_queue`, `free` CPUs
/// and running set.
#[inline(always)]
pub fn check_planner_equivalence(
    now: SimTime,
    policy: BackfillPolicy,
    ordered_queue: &[Job],
    free: u32,
    running: &RunningSet,
    window: DispatchWindow,
    indexed: &DispatchPlan,
) {
    if !cfg!(feature = "check-invariants") {
        return;
    }
    let naive = crate::backfill::plan(policy, ordered_queue, now, free, running, window);
    assert_eq!(
        &naive,
        indexed,
        "invariant: indexed planner diverged from the naive reference at {now:?} \
         ({policy:?}, {} queued, {free} free)",
        ordered_queue.len()
    );
}

/// Assert the CPU·second identity at the end of a run, per job class:
/// every CPU·second the class held is delivered work or booked waste.
/// Delivered work is summed here from the job log (`cpus × runtime` of
/// each completed job), independently of the ledger.
#[inline(always)]
pub fn check_cpu_seconds(completed: &[CompletedJob], ledger: &CpuLedger) {
    if !cfg!(feature = "check-invariants") {
        return;
    }
    for (interstitial, class) in [(false, "native"), (true, "interstitial")] {
        let delivered: u64 = completed
            .iter()
            .filter(|c| c.job.class.is_interstitial() == interstitial)
            .map(|c| u64::from(c.job.cpus) * c.job.runtime.as_secs())
            .sum();
        let (held, wasted) = (ledger.held(interstitial), ledger.wasted(interstitial));
        assert_eq!(
            held,
            delivered + wasted,
            "invariant: {class} jobs held {held} CPU·s but delivered {delivered} and wasted {wasted}"
        );
    }
}

#[cfg(all(test, feature = "check-invariants"))]
mod tests {
    use super::*;
    use crate::backfill;
    use machine::RunningJob;
    use simkit::time::SimDuration;
    use workload::{Job, JobClass};

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn rj(id: u64, cpus: u32, est_end: u64, interstitial: bool) -> RunningJob {
        RunningJob {
            id,
            cpus,
            start: SimTime::ZERO,
            actual_end: t(est_end),
            estimated_end: t(est_end),
            interstitial,
        }
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

    #[test]
    fn conservation_accepts_consistent_state() {
        let mut rs = RunningSet::new();
        rs.insert(rj(1, 6, 100, false));
        check_conservation(t(0), &rs, 6, 4, 0, 10);
        check_conservation(t(0), &rs, 6, 2, 2, 10);
    }

    #[test]
    #[should_panic(expected = "running jobs hold")]
    fn conservation_catches_pool_divergence() {
        let mut rs = RunningSet::new();
        rs.insert(rj(1, 6, 100, false));
        check_conservation(t(0), &rs, 4, 6, 0, 10);
    }

    #[test]
    #[should_panic(expected = "accounting leak")]
    fn conservation_catches_leaked_cpus() {
        let mut rs = RunningSet::new();
        rs.insert(rj(1, 6, 100, false));
        check_conservation(t(0), &rs, 6, 3, 0, 10);
    }

    #[test]
    fn capacity_accepts_occupancy_within_service() {
        check_capacity(t(0), 0, 0);
        check_capacity(t(5), 48, 48);
        check_capacity(t(5), 10, 64);
    }

    #[test]
    #[should_panic(expected = "running on failed nodes")]
    fn capacity_catches_oversubscribed_service() {
        check_capacity(t(9), 49, 48);
    }

    /// A 4-CPU × 100 s native that completed after one 50 s attempt a node
    /// fault crashed.
    fn faulted_native() -> (Vec<CompletedJob>, CpuLedger) {
        let completed = vec![CompletedJob::new(job(1, 4, 100), t(50))];
        let mut ledger = CpuLedger::default();
        ledger.native_fault_kill(4, SimDuration::from_secs(50));
        ledger.complete(false, 4, SimDuration::from_secs(100));
        (completed, ledger)
    }

    #[test]
    fn cpu_seconds_accepts_delivered_plus_wasted() {
        let (completed, ledger) = faulted_native();
        check_cpu_seconds(&completed, &ledger);
    }

    #[test]
    #[should_panic(expected = "native jobs held 600 CPU·s but delivered 0 and wasted 200")]
    fn cpu_seconds_catches_a_lost_completion() {
        let (_, ledger) = faulted_native();
        check_cpu_seconds(&[], &ledger);
    }

    #[test]
    fn no_delay_accepts_harmless_placement() {
        // 10-CPU machine: native 6 CPUs until t=1000; head wants 8.
        let mut s = Scheduler::lsf();
        s.submit(job(1, 8, 500));
        let mut rs = RunningSet::new();
        rs.insert(rj(100, 6, 1000, false));
        let before = s.cycle(t(0), 4, &rs, true);
        assert!(before.is_empty());
        let res = s.head_reservation();
        assert_eq!(res.unwrap().start, t(1000));
        // Interstitial slab on the 4 idle CPUs, done by t=800 < 1000.
        rs.insert(rj(1 << 40, 4, 800, true));
        check_no_delay(t(0), &mut s, 0, &rs, res);
    }

    #[test]
    #[should_panic(expected = "delayed the head native job")]
    fn no_delay_catches_regressing_placement() {
        let mut s = Scheduler::lsf();
        s.submit(job(1, 8, 500));
        let mut rs = RunningSet::new();
        rs.insert(rj(100, 6, 1000, false));
        s.cycle(t(0), 4, &rs, true);
        let res = s.head_reservation();
        // A rogue interstitial job squatting on the idle CPUs until t=5000
        // pushes the head's earliest 8-CPU slot from 1000 to 5000.
        rs.insert(rj(1 << 40, 4, 5000, true));
        check_no_delay(t(0), &mut s, 0, &rs, res);
    }

    #[test]
    fn no_delay_ignores_unblocked_queue() {
        let mut s = Scheduler::lsf();
        let rs = RunningSet::new();
        check_no_delay(t(0), &mut s, 10, &rs, None);
    }

    #[test]
    fn planner_equivalence_accepts_the_indexed_plan() {
        let mut rs = RunningSet::new();
        rs.insert(rj(100, 6, 1000, false));
        let eligible = [job(1, 8, 500), job(2, 2, 300)];
        let mut view = rs.indexed_profile(t(0), 4, t(0) + backfill::LOOKAHEAD);
        let plan = backfill::plan_on(
            BackfillPolicy::Easy,
            &eligible,
            t(0),
            &mut view,
            DispatchWindow::Always,
        );
        assert_eq!(plan.backfilled, 1, "job 2 fits before the head's slot");
        check_planner_equivalence(
            t(0),
            BackfillPolicy::Easy,
            &eligible,
            4,
            &rs,
            DispatchWindow::Always,
            &plan,
        );
    }

    #[test]
    #[should_panic(expected = "diverged from the naive reference")]
    fn planner_equivalence_catches_a_mismatched_plan() {
        let mut rs = RunningSet::new();
        rs.insert(rj(100, 6, 1000, false));
        let eligible = [job(1, 8, 500), job(2, 2, 300)];
        let mut plan = backfill::plan(
            BackfillPolicy::Easy,
            &eligible,
            t(0),
            4,
            &rs,
            DispatchWindow::Always,
        );
        // A planner that forgot the head's reservation.
        plan.head_reservation = None;
        check_planner_equivalence(
            t(0),
            BackfillPolicy::Easy,
            &eligible,
            4,
            &rs,
            DispatchWindow::Always,
            &plan,
        );
    }
}
