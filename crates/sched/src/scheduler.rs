//! The scheduler bundle the simulation driver drives.
//!
//! [`Scheduler`] owns the waiting queue, the fair-share ledger and the
//! three policies; [`Scheduler::cycle`] runs one scheduling pass (the paper's
//! "the algorithm is run every time the system checks for new jobs, e.g.,
//! when a native job is submitted, when any job is finished, or at given
//! time intervals").

use crate::backfill::{self, BackfillPolicy, DispatchPlan, Reservation};
use crate::fairshare::FairShare;
use crate::invariants;
use crate::priority::PriorityPolicy;
use crate::window::DispatchWindow;
use machine::{MachineConfig, QueueSystem, RunningSet};
use obs::profile::Phase;
use simkit::time::{SimDuration, SimTime};
use workload::Job;

/// Queue + policies for one machine.
#[derive(Clone, Debug)]
pub struct Scheduler {
    /// Queue-ordering policy.
    pub priority: PriorityPolicy,
    /// Backfill flavor.
    pub backfill: BackfillPolicy,
    /// Time-of-day dispatch constraint.
    pub window: DispatchWindow,
    fairshare: FairShare,
    queue: Vec<Job>,
    /// Estimated CPU·seconds of demand sitting in the queue, maintained
    /// incrementally on submit/requeue/start so telemetry sampling never
    /// rescans the queue. Estimate-based ([`Job::planning_estimate`]) —
    /// the scheduler cannot see actual runtimes.
    queued_demand_cpu_s: u64,
    /// Jobs requeued after a fault kill: they outrank every priority policy
    /// until they restart (the work was already admitted once; a node crash
    /// must not send its victim to the back of the line).
    boosted: std::collections::BTreeSet<u64>,
    last_head_reservation: Option<Reservation>,
    counters: Counters,
}

/// Cumulative scheduler activity counters.
///
/// Always-on (plain integer adds) and deterministic: the driver folds them
/// into `obs::WorkCounters` at end of run, where the perf-regression gate
/// compares them exactly.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// Scheduling cycles run.
    pub cycles: u64,
    /// Jobs started in priority order.
    pub inorder_starts: u64,
    /// Jobs started by jumping a blocked head (backfills).
    pub backfill_starts: u64,
    /// Queued jobs examined by the backfill planner, summed over cycles.
    pub backfill_candidates_scanned: u64,
    /// Segments in the free-capacity profiles built for planning, summed
    /// over cycles — the cost of materializing the projected-capacity
    /// timeline. The planner queries the running set's end index and builds
    /// only the plan overlay, so this counts overlay segments, not one per
    /// running job.
    pub profile_segments_walked: u64,
}

impl Scheduler {
    /// Assemble a scheduler from explicit policies.
    pub fn new(
        priority: PriorityPolicy,
        backfill: BackfillPolicy,
        window: DispatchWindow,
        fairshare_half_life: SimDuration,
    ) -> Self {
        Scheduler {
            priority,
            backfill,
            window,
            fairshare: FairShare::new(fairshare_half_life),
            queue: Vec::new(),
            queued_demand_cpu_s: 0,
            boosted: std::collections::BTreeSet::new(),
            last_head_reservation: None,
            counters: Counters::default(),
        }
    }

    /// Ross's PBS personality: flat per-user fair share, restrictive
    /// backfill with a short scan.
    pub fn pbs() -> Self {
        Self::new(
            PriorityPolicy::FlatUserShare,
            BackfillPolicy::Restrictive { depth: 8 },
            DispatchWindow::Always,
            SimDuration::from_hours(24),
        )
    }

    /// Blue Mountain's LSF personality: hierarchical group fair share with
    /// EASY backfill.
    pub fn lsf() -> Self {
        Self::new(
            PriorityPolicy::HierarchicalGroupShare,
            BackfillPolicy::Easy,
            DispatchWindow::Always,
            SimDuration::from_hours(24),
        )
    }

    /// Blue Pacific's DPCS personality: combined user+group fair share,
    /// EASY backfill, night-only starts for long jobs.
    pub fn dpcs() -> Self {
        Self::new(
            PriorityPolicy::UserGroupShare {
                user_weight: 1.0,
                group_weight: 0.5,
            },
            BackfillPolicy::Easy,
            DispatchWindow::blue_pacific(),
            SimDuration::from_hours(24),
        )
    }

    /// The personality matching a machine's Table 1 queueing system.
    pub fn for_machine(cfg: &MachineConfig) -> Self {
        match cfg.queue {
            QueueSystem::Pbs => Self::pbs(),
            QueueSystem::Lsf => Self::lsf(),
            QueueSystem::Dpcs => Self::dpcs(),
        }
    }

    /// Estimated CPU·seconds one queued job contributes to demand.
    fn demand_of(job: &Job) -> u64 {
        u64::from(job.cpus) * job.planning_estimate().as_secs()
    }

    /// Enqueue a newly submitted job.
    pub fn submit(&mut self, job: Job) {
        self.queued_demand_cpu_s += Self::demand_of(&job);
        self.queue.push(job);
    }

    /// Requeue a fault-killed native job at the head of the queue: it keeps
    /// its original submit instant and jumps every priority policy until it
    /// starts again. Multiple boosted jobs keep their relative priority
    /// order among themselves.
    pub fn requeue_front(&mut self, job: Job) {
        self.boosted.insert(job.id);
        self.queued_demand_cpu_s += Self::demand_of(&job);
        self.queue.push(job);
    }

    /// Number of jobs currently holding a requeue boost.
    pub fn boosted_len(&self) -> usize {
        self.boosted.len()
    }

    /// Priority-order the queue, then float requeued victims to the front
    /// (stable: boosted jobs keep their policy order among themselves, as
    /// do the rest). No-op beyond the policy sort when nothing is boosted —
    /// the fault-free path is byte-identical to the pre-fault scheduler.
    fn order_queue(&mut self, now: SimTime) {
        self.priority.order(&mut self.queue, &self.fairshare, now);
        if !self.boosted.is_empty() {
            let boosted = &self.boosted;
            self.queue.sort_by_key(|j| !boosted.contains(&j.id));
        }
    }

    /// Jobs waiting (not running).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// True when no native job is waiting — the first arm of the Figure 1
    /// interstitial condition (`jobsInQueue == 0`).
    pub fn queue_is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Estimated CPU·seconds of work waiting in the queue (the telemetry
    /// `queued_cpu_s` signal). Maintained incrementally — O(1) to read.
    pub fn queued_demand_cpu_s(&self) -> u64 {
        self.queued_demand_cpu_s
    }

    /// The reservation for the blocked queue head from the most recent
    /// cycle. Its `start` is `backFillWallTime`: "when the first job in the
    /// queue can run based on the expected finishing time of jobs currently
    /// running" (Figure 1).
    pub fn head_reservation(&self) -> Option<Reservation> {
        self.last_head_reservation
    }

    /// Access the fair-share ledger (read-only).
    pub fn fairshare(&self) -> &FairShare {
        &self.fairshare
    }

    /// Cumulative activity counters (cycles, in-order vs backfill starts).
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// The job currently at the head of the queue under this policy's
    /// priorities (sorts the queue as a side effect, as a cycle would).
    pub fn head_job(&mut self, now: SimTime) -> Option<Job> {
        self.order_queue(now);
        self.queue.first().copied()
    }

    /// Run one scheduling cycle: recompute priorities, plan dispatch, pop
    /// the started jobs from the queue and return them. When `machine_up`
    /// is false (an outage) nothing starts, but the head reservation is
    /// cleared so callers do not act on stale information.
    pub fn cycle(
        &mut self,
        now: SimTime,
        free: u32,
        running: &RunningSet,
        machine_up: bool,
    ) -> Vec<Job> {
        self.cycle_observed(now, free, running, machine_up, &mut obs::Obs::disabled())
            .starts
    }

    /// [`cycle`](Scheduler::cycle) with instrumentation: phase spans for
    /// queue ordering (`order-queue`: the priority sort), free-profile
    /// construction and backfill planning, plus the queue-depth high-water
    /// gauge, land in `observer`. The planner reads the ordered queue in
    /// place. Returns the full [`DispatchPlan`] so the caller can tell
    /// in-order dispatches from backfills — the first
    /// `starts.len() - backfilled` entries of `starts` are in-order (the
    /// planner only marks jobs as backfills once the head is blocked, and
    /// a blocked head stays blocked for the rest of the scan).
    pub fn cycle_observed(
        &mut self,
        now: SimTime,
        free: u32,
        running: &RunningSet,
        machine_up: bool,
        observer: &mut obs::Obs,
    ) -> DispatchPlan {
        if !machine_up {
            self.last_head_reservation = None;
            return DispatchPlan::default();
        }
        let token = observer.profiler.begin();
        self.order_queue(now);
        observer.profiler.end(Phase::OrderQueue, token);
        let plan = if self.queue.is_empty() {
            DispatchPlan::default()
        } else {
            let token = observer.profiler.begin();
            let mut view = running.indexed_profile(now, free, now + backfill::LOOKAHEAD);
            observer.profiler.end(Phase::FreeProfile, token);
            let token = observer.profiler.begin();
            let plan = backfill::plan_on(self.backfill, &self.queue, now, &mut view, self.window);
            observer.profiler.end(Phase::Backfill, token);
            // Segments of the only profile this cycle built — the plan
            // overlay. The base timeline stays inside the shared index,
            // never materialized.
            self.counters.profile_segments_walked += view.segment_count() as u64;
            invariants::check_planner_equivalence(
                now,
                self.backfill,
                &self.queue,
                free,
                running,
                self.window,
                &plan,
            );
            plan
        };
        self.counters.cycles += 1;
        self.counters.backfill_starts += u64::from(plan.backfilled);
        self.counters.inorder_starts += plan.starts.len() as u64 - u64::from(plan.backfilled);
        self.counters.backfill_candidates_scanned += u64::from(plan.candidates_scanned);
        observer
            .metrics
            .gauge_max("sched.queue_depth_max", self.queue.len() as i64);
        self.last_head_reservation = plan.head_reservation;
        if !plan.starts.is_empty() {
            let started: std::collections::BTreeSet<u64> =
                plan.starts.iter().map(|j| j.id).collect();
            self.queue.retain(|j| !started.contains(&j.id));
            if !self.boosted.is_empty() {
                self.boosted.retain(|id| !started.contains(id));
            }
            let started_demand: u64 = plan.starts.iter().map(Self::demand_of).sum();
            self.queued_demand_cpu_s = self.queued_demand_cpu_s.saturating_sub(started_demand);
        }
        plan
    }

    /// Recompute the head reservation against the current running set
    /// without touching counters or the queue contents. Used by
    /// [`crate::invariants`] to verify interstitial placement did not move
    /// the head native job's projected start.
    pub fn probe_head_reservation(
        &mut self,
        now: SimTime,
        free: u32,
        running: &RunningSet,
    ) -> Option<Reservation> {
        self.order_queue(now);
        backfill::plan(self.backfill, &self.queue, now, free, running, self.window).head_reservation
    }

    /// Charge a finished job's actual consumption to the fair-share ledger.
    /// Interstitial jobs are *not* charged: they run from a bottom-priority
    /// scavenger bucket outside the share tree.
    pub fn charge_finish(&mut self, now: SimTime, job: &Job) {
        if job.class.is_interstitial() {
            return;
        }
        self.fairshare
            .charge(now, job.user, job.group, job.cpu_seconds());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::RunningJob;
    use workload::JobClass;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn job(id: u64, user: u32, cpus: u32, est: u64) -> Job {
        Job {
            id,
            class: JobClass::Native,
            user,
            group: user % 3,
            submit: SimTime::ZERO,
            cpus,
            runtime: SimDuration::from_secs(est),
            estimate: SimDuration::from_secs(est),
        }
    }

    #[test]
    fn personalities_match_table1() {
        use machine::config::{blue_mountain, blue_pacific, ross};
        let s = Scheduler::for_machine(&ross());
        assert!(matches!(s.backfill, BackfillPolicy::Restrictive { .. }));
        assert_eq!(s.priority, PriorityPolicy::FlatUserShare);
        let s = Scheduler::for_machine(&blue_mountain());
        assert_eq!(s.backfill, BackfillPolicy::Easy);
        assert_eq!(s.priority, PriorityPolicy::HierarchicalGroupShare);
        let s = Scheduler::for_machine(&blue_pacific());
        assert!(matches!(s.priority, PriorityPolicy::UserGroupShare { .. }));
        assert_ne!(s.window, DispatchWindow::Always);
    }

    #[test]
    fn cycle_starts_what_fits_and_pops_queue() {
        let mut s = Scheduler::lsf();
        let rs = RunningSet::new();
        s.submit(job(1, 1, 4, 100));
        s.submit(job(2, 2, 4, 100));
        s.submit(job(3, 3, 4, 100));
        let starts = s.cycle(t(0), 8, &rs, true);
        assert_eq!(starts.len(), 2);
        assert_eq!(s.queue_len(), 1);
        assert!(s.head_reservation().is_some());
    }

    #[test]
    fn outage_blocks_starts() {
        let mut s = Scheduler::lsf();
        let rs = RunningSet::new();
        s.submit(job(1, 1, 4, 100));
        let starts = s.cycle(t(0), 8, &rs, false);
        assert!(starts.is_empty());
        assert_eq!(s.queue_len(), 1);
        assert!(s.head_reservation().is_none());
    }

    #[test]
    fn fairshare_charging_reorders_queue() {
        let mut s = Scheduler::pbs();
        let mut rs = RunningSet::new();
        // Machine of 10 CPUs fully busy so nothing dispatches yet.
        rs.insert(RunningJob {
            id: 99,
            cpus: 10,
            start: t(0),
            actual_end: t(10_000),
            estimated_end: t(10_000),
            interstitial: false,
        });
        // User 1 has burned a lot of CPU; user 2 none.
        s.charge_finish(t(0), &job(50, 1, 10, 100_000));
        s.submit(job(1, 1, 10, 100));
        s.submit(job(2, 2, 10, 100));
        s.cycle(t(1), 0, &rs, true);
        // Head reservation should belong to user 2's job (lighter usage).
        assert_eq!(s.head_reservation().unwrap().job_id, 2);
    }

    #[test]
    fn interstitial_finishes_are_not_charged() {
        let mut s = Scheduler::lsf();
        let mut ij = job(7, 1, 32, 500);
        ij.class = JobClass::Interstitial;
        s.charge_finish(t(500), &ij);
        assert_eq!(s.fairshare().user_usage(t(500), 1), 0.0);
        let nj = job(8, 1, 32, 500);
        s.charge_finish(t(500), &nj);
        assert!(s.fairshare().user_usage(t(500), 1) > 0.0);
    }

    #[test]
    fn queue_empty_flag_tracks_contents() {
        let mut s = Scheduler::lsf();
        assert!(s.queue_is_empty());
        s.submit(job(1, 1, 4, 100));
        assert!(!s.queue_is_empty());
        let rs = RunningSet::new();
        s.cycle(t(0), 10, &rs, true);
        assert!(s.queue_is_empty());
    }

    #[test]
    fn queued_demand_tracks_submits_requeues_and_starts() {
        let mut s = Scheduler::lsf();
        assert_eq!(s.queued_demand_cpu_s(), 0);
        s.submit(job(1, 1, 4, 100)); // 400 CPU·s
        s.submit(job(2, 2, 4, 50)); // 200 CPU·s
        assert_eq!(s.queued_demand_cpu_s(), 600);
        s.requeue_front(job(3, 3, 2, 30)); // +60 CPU·s
        assert_eq!(s.queued_demand_cpu_s(), 660);
        // Everything fits: all three start, demand drains to zero.
        let rs = RunningSet::new();
        let starts = s.cycle(t(0), 16, &rs, true);
        assert_eq!(starts.len(), 3);
        assert_eq!(s.queued_demand_cpu_s(), 0);
        // A zero-second estimate still counts its planning floor of 1 s.
        s.submit(job(4, 1, 8, 0));
        assert_eq!(s.queued_demand_cpu_s(), 8);
    }

    #[test]
    fn counters_track_backfills() {
        let mut s = Scheduler::lsf();
        let mut rs = RunningSet::new();
        // 6 of 10 CPUs busy until t=1000.
        rs.insert(RunningJob {
            id: 99,
            cpus: 6,
            start: t(0),
            actual_end: t(1000),
            estimated_end: t(1000),
            interstitial: false,
        });
        s.submit(job(1, 1, 8, 500)); // blocked head
        s.submit(job(2, 2, 4, 900)); // EASY backfill candidate
        let starts = s.cycle(t(0), 4, &rs, true);
        assert_eq!(starts.len(), 1);
        let c = s.counters();
        assert_eq!(c.cycles, 1);
        assert_eq!(c.backfill_starts, 1);
        assert_eq!(c.inorder_starts, 0);
        assert_eq!(c.backfill_candidates_scanned, 2, "head + candidate");
        assert!(c.profile_segments_walked > 0, "a profile was built");
    }

    #[test]
    fn counters_are_monotone_across_cycles() {
        let mut s = Scheduler::lsf();
        let rs = RunningSet::new();
        for i in 0..20 {
            s.submit(job(i + 1, (i % 4) as u32, 4, 100 + i));
        }
        let mut prev = s.counters();
        for k in 0..10u64 {
            s.cycle(t(k * 50), if k % 3 == 0 { 8 } else { 0 }, &rs, true);
            let c = s.counters();
            assert!(c.cycles > prev.cycles, "cycles strictly increase");
            assert!(c.inorder_starts >= prev.inorder_starts);
            assert!(c.backfill_starts >= prev.backfill_starts);
            assert!(c.backfill_candidates_scanned >= prev.backfill_candidates_scanned);
            assert!(c.profile_segments_walked >= prev.profile_segments_walked);
            prev = c;
        }
    }

    #[test]
    fn requeued_job_jumps_to_the_head() {
        let mut s = Scheduler::pbs();
        let mut rs = RunningSet::new();
        // Machine busy so nothing dispatches while we inspect ordering.
        rs.insert(RunningJob {
            id: 99,
            cpus: 10,
            start: t(0),
            actual_end: t(10_000),
            estimated_end: t(10_000),
            interstitial: false,
        });
        // User 1 is heavily charged → their fresh submission sorts last…
        s.charge_finish(t(0), &job(50, 1, 10, 100_000));
        s.submit(job(1, 2, 4, 100));
        s.submit(job(2, 3, 4, 100));
        // …but a requeued fault victim owned by user 1 still takes the head.
        s.requeue_front(job(7, 1, 4, 100));
        assert_eq!(s.boosted_len(), 1);
        assert_eq!(s.head_job(t(10)).unwrap().id, 7);
        // Once CPUs free up, the boosted job starts first and sheds its
        // boost.
        let rs = RunningSet::new();
        let starts = s.cycle(t(20), 4, &rs, true);
        assert_eq!(starts.first().map(|j| j.id), Some(7));
        assert_eq!(s.boosted_len(), 0);
    }

    #[test]
    fn boosted_jobs_keep_relative_order() {
        let mut s = Scheduler::lsf();
        let mut rs = RunningSet::new();
        rs.insert(RunningJob {
            id: 99,
            cpus: 10,
            start: t(0),
            actual_end: t(10_000),
            estimated_end: t(10_000),
            interstitial: false,
        });
        s.submit(job(1, 1, 4, 100));
        s.requeue_front(job(10, 2, 4, 100));
        s.requeue_front(job(11, 3, 4, 100));
        s.cycle(t(5), 0, &rs, true);
        // Both boosted jobs precede the ordinary submission; the head
        // reservation belongs to one of them.
        let head = s.head_job(t(5)).unwrap();
        assert!(head.id == 10 || head.id == 11);
    }

    #[test]
    fn backfill_may_not_leapfrog_a_requeued_head() {
        // Regression: a fault-requeued native at the head of the queue must
        // keep its EASY reservation the same cycle it is requeued — a small
        // job that would outlive the shadow time cannot slip past it, even
        // though the requeued job's owner has the worst fair-share score.
        let mut s = Scheduler::lsf();
        let mut rs = RunningSet::new();
        // 10-CPU machine: 8 busy until t=1000, 2 free now.
        rs.insert(RunningJob {
            id: 99,
            cpus: 8,
            start: t(0),
            actual_end: t(1_000),
            estimated_end: t(1_000),
            interstitial: false,
        });
        // User 1 is heavily charged, so priority alone would bury their job.
        s.charge_finish(t(0), &job(50, 1, 10, 100_000));
        // The fault victim: whole-machine job, blocked until t=1000.
        s.requeue_front(job(7, 1, 10, 100));
        // Would fit the 2 free CPUs now but runs past the shadow time —
        // starting it would delay the requeued head. Must stay queued.
        s.submit(job(1, 2, 2, 5_000));
        // Fits now *and* drains before t=1000 — a legal backfill.
        s.submit(job(2, 3, 2, 500));
        let starts = s.cycle(t(5), 2, &rs, true);
        assert_eq!(
            starts.iter().map(|j| j.id).collect::<Vec<_>>(),
            vec![2],
            "only the shadow-respecting job may backfill past the requeued head"
        );
        // The head reservation still belongs to the victim, at the running
        // job's estimated end.
        let head = s.head_reservation().unwrap();
        assert_eq!(head.job_id, 7);
        assert_eq!(head.start, t(1_000));
        assert_eq!(s.boosted_len(), 1);
        // And once the machine drains, the victim starts first.
        let rs = RunningSet::new();
        let starts = s.cycle(t(1_000), 10, &rs, true);
        assert_eq!(starts.first().map(|j| j.id), Some(7));
        assert_eq!(s.boosted_len(), 0);
    }

    #[test]
    fn head_reservation_clears_when_everything_starts() {
        let mut s = Scheduler::lsf();
        let rs = RunningSet::new();
        s.submit(job(1, 1, 2, 100));
        s.cycle(t(0), 4, &rs, true);
        assert!(s.head_reservation().is_none());
    }
}
