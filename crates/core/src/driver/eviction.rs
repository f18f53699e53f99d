//! The eviction path: a node failure crashes running jobs to cover its
//! lost CPUs, and a preempting stream reclaims CPUs from its own jobs for a
//! blocked native head. Both take victims in one order, cheapest loss
//! first.

use super::{Ev, Phase, RunState, Simulator};
use crate::policy::{Preemption, RecoveryPolicy};
use machine::fault::Eviction;
use machine::{RunningJob, RunningSet};
use obs::EventKind;
use simkit::time::{SimDuration, SimTime};
use std::cmp::Reverse;

/// Fill `victims` with the running jobs `eligible` admits, cheapest loss
/// first: interstitial before native, then youngest, then lowest id. Cut
/// it to the shortest prefix that frees `deficit` CPUs and return true, or
/// keep them all and return false when together they fall short. The
/// buffer is reused, so ordering allocates nothing once it has grown.
fn order_victims(
    victims: &mut Vec<RunningJob>,
    running: &RunningSet,
    deficit: u32,
    eligible: impl Fn(&RunningJob) -> bool,
) -> bool {
    victims.clear();
    victims.extend(running.iter().filter(|r| eligible(r)).copied());
    // Ids are unique, so the unstable sort is deterministic.
    victims.sort_unstable_by_key(|r| (!r.interstitial, Reverse(r.start), r.id));
    let mut freed = 0u32;
    let last = victims.iter().position(|r| {
        freed += r.cpus;
        freed >= deficit
    });
    victims.truncate(last.map_or(victims.len(), |last| last + 1));
    last.is_some()
}

impl Simulator {
    /// A node failed: its CPUs leave service and, when occupancy exceeds
    /// the remaining capacity, tenants are crashed to cover the shortfall.
    /// The pool is liquid (jobs are not pinned to nodes), so a failing node
    /// first claims idle CPUs; only the deficit kills jobs.
    pub(super) fn fail_node(&mut self, now: SimTime, node: u32, st: &mut RunState) {
        let cpus = self.faults.nodes()[node as usize].cpus;
        st.faults.node_failures += 1;
        self.obs.record(now, EventKind::NodeDown { node, cpus });
        let deficit = cpus.saturating_sub(st.pool.free());
        if deficit > 0 {
            order_victims(&mut st.victims, &st.running, deficit, |_| true);
            for i in 0..st.victims.len() {
                self.fault_kill(now, node, st.victims[i].id, st);
            }
        }
        let taken = st.pool.take_offline(cpus);
        debug_assert_eq!(taken, cpus, "node capacity not reclaimed before offlining");
    }

    /// Crash one running job for `node`'s failure. Native victims are
    /// requeued at the head of the native queue with their original submit
    /// instant (the wait clock spans the failure). Interstitial victims
    /// re-enter under the retry policy's capped exponential backoff; what
    /// they carry back is the recovery policy's call — nothing
    /// (kill-restart), progress up to the last completed checkpoint
    /// (checkpoint), or everything (suspend-resume) — until the attempt
    /// budget or the horizon gives out. The uncredited slice of the attempt
    /// is wasted.
    fn fault_kill(&mut self, now: SimTime, node: u32, id: u64, st: &mut RunState) {
        let rj = st.running.remove(id);
        st.pool.release(rj.cpus);
        let elapsed = now - rj.start;
        let js = st.job_mut(id);
        js.attempts += 1;
        let (job, attempts, done) = (js.job, js.attempts, js.done);
        let interstitial = job.class.is_interstitial();
        st.faults.kills.push(machine::KilledJob {
            job: id,
            cpus: rj.cpus,
            runtime_s: job.runtime.as_secs(),
            interstitial,
        });
        self.obs.record(
            now,
            EventKind::JobFailed {
                job: id,
                cpus: rj.cpus,
                node,
                interstitial,
            },
        );
        let requeued = if interstitial {
            // Kill-restart credits nothing, so remaining == job.runtime and
            // every figure collapses to the legacy arithmetic.
            let remaining = job
                .runtime
                .saturating_sub(self.recovery.credited(done, elapsed));
            let release = now + self.retry.backoff(attempts);
            if self.retry.gives_up_after(attempts) || release + remaining > self.horizon {
                // Abandoned: this attempt's work, plus anything salvaged at
                // earlier evictions, is all waste after all.
                self.give_up(id, elapsed, st);
                return;
            }
            self.credit_eviction(now, &rj, Eviction::Fault, st);
            st.job_mut(id).phase = Phase::Backoff;
            st.faults.interstitial_retries += 1;
            st.q.schedule(release, Ev::Retry(id));
            "faults.retry_scheduled"
        } else {
            st.job_mut(id).phase = Phase::Waiting;
            st.faults.ledger.native_fault_kill(rj.cpus, elapsed);
            st.faults.native_requeues += 1;
            self.scheduler.requeue_front(job);
            "faults.native_requeued"
        };
        self.obs.record(
            now,
            EventKind::JobRequeued {
                job: id,
                attempt: attempts,
            },
        );
        self.obs.metrics.inc(requeued, 1);
    }

    /// Credit an evicted interstitial job's progress per the recovery
    /// policy, book the attempt to the ledger under `cause`, record the
    /// policy's trace event, and leave the job holding its new `done`.
    fn credit_eviction(
        &mut self,
        now: SimTime,
        rj: &RunningJob,
        cause: Eviction,
        st: &mut RunState,
    ) {
        let elapsed = now - rj.start;
        let js = st.job_mut(rj.id);
        let done = js.done;
        let credited = self.recovery.credited(done, elapsed);
        js.done = credited;
        let remaining = js.remaining();
        let ckpts = self.recovery.checkpoints_in(done, elapsed);
        let kept = (self.recovery != RecoveryPolicy::KillRestart).then_some(credited);
        let ledger = &mut st.faults.ledger;
        ledger.evict(cause, rj.cpus, done, elapsed, kept, ckpts);
        let event = match self.recovery {
            RecoveryPolicy::KillRestart => return,
            RecoveryPolicy::Checkpoint { .. } => EventKind::JobCheckpointed {
                job: rj.id,
                checkpoints: u32::try_from(ckpts).unwrap_or(u32::MAX),
                salvaged_s: credited.as_secs(),
                lost_s: (done + elapsed).saturating_sub(credited).as_secs(),
            },
            RecoveryPolicy::SuspendResume => EventKind::JobSuspended {
                job: rj.id,
                remaining_s: remaining.as_secs(),
            },
        };
        self.obs.record(now, event);
    }

    /// Abandon an evicted interstitial job for good (retry budget or
    /// horizon exhausted). `ran` is how long its last attempt held CPUs:
    /// zero for a job waiting to restart.
    pub(super) fn give_up(&mut self, id: u64, ran: SimDuration, st: &mut RunState) {
        if let Some(js) = st.jobs.remove(&id) {
            st.faults.ledger.abandon(js.job.cpus, js.done, ran);
        }
        st.faults.interstitial_given_up += 1;
        self.obs.metrics.inc("faults.retry_given_up", 1);
    }

    /// Breakage-in-time extension: if the native queue head could start
    /// right now but for CPUs held by interstitial jobs, reclaim them
    /// (kill or checkpoint per policy). The paper's model never does this.
    pub(super) fn preempt_for_head(&mut self, now: SimTime, st: &mut RunState) {
        if !self.streams.preempts {
            return;
        }
        let Some(head) = self.scheduler.head_job(now) else {
            return;
        };
        if !self.scheduler.window.may_start(&head, now) {
            return;
        }
        let free = st.pool.free();
        if head.cpus <= free {
            return; // head starts on its own this cycle
        }
        // Reclaimable capacity: running jobs of a preempting stream (kill
        // loses the least work youngest first; checkpoint order is
        // immaterial but kept identical for determinism).
        let streams = &self.streams;
        let preemptible = |r: &RunningJob| {
            r.interstitial && streams.of(&st.jobs[&r.id].job).policy.preemption != Preemption::None
        };
        if !order_victims(&mut st.victims, &st.running, head.cpus - free, preemptible) {
            return; // preemption cannot unblock the head
        }
        for i in 0..st.victims.len() {
            let rj = st.victims[i];
            let (id, cpus) = (rj.id, st.running.remove(rj.id).cpus);
            st.pool.release(cpus);
            let job = st.jobs[&id].job;
            let preemption = self.streams.of(&job).policy.preemption;
            let kill =
                preemption == Preemption::Kill && self.recovery == RecoveryPolicy::KillRestart;
            let kind = if kill {
                obs::PreemptKind::Kill
            } else {
                obs::PreemptKind::Checkpoint
            };
            self.obs.record(
                now,
                EventKind::Preempt {
                    job: id,
                    cpus,
                    kind,
                },
            );
            if preemption == Preemption::Kill {
                // An eviction: kill-restart loses the attempt, a recovery
                // policy credits what it keeps.
                self.credit_eviction(now, &rj, Eviction::Preempt, st);
            } else {
                // Checkpointed where it stands: the whole attempt is banked.
                let ran = now - rj.start;
                st.job_mut(id).done += ran;
                st.faults.ledger.checkpoint_preempt(cpus, ran);
            }
            if kill {
                // The work must be redone: the stream gets its job back.
                st.jobs.remove(&id);
                self.streams.refund(&job);
            } else {
                // The job waits in the suspended queue holding only its
                // remainder (and its stream budget — it is not redone).
                st.job_mut(id).phase = Phase::Waiting;
                self.streams.suspended.push_back(id);
            }
        }
    }
}
