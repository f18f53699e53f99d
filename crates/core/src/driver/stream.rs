//! The interstitial job streams, each one project of identical jobs, and
//! their Figure 1 submission.

use super::{submitted, Phase, RunState, Simulator, INTERSTITIAL_ID_BASE};
use crate::policy::{InterstitialMode, InterstitialPolicy, Preemption};
use crate::project::InterstitialProject;
use machine::{CpuPool, MachineConfig};
use obs::StartKind;
use sched::Scheduler;
use simkit::time::{SimDuration, SimTime};
use std::collections::VecDeque;
use workload::{Job, JobClass};

/// One interstitial job stream: a project, its mode and its policy.
pub(super) struct Stream {
    project: InterstitialProject,
    mode: InterstitialMode,
    pub(super) policy: InterstitialPolicy,
    /// Per-job wallclock on the machine: exact, so also the estimate (§4).
    runtime: SimDuration,
    /// Jobs started so far; a kill-preempted job is given back.
    started: u64,
}

impl Stream {
    /// Room for one more job now: idle CPUs, and budget under the cap.
    fn fits(&self, pool: &CpuPool) -> bool {
        let cpus = self.project.cpus_per_job;
        pool.can_fit(cpus) && self.policy.cap_allowance(pool.in_use(), pool.total(), cpus) != 0
    }

    /// Is this stream allowed to start one job of duration `dur` right
    /// now? The Figure 1 guard, relaxed under preemption: a blocking job
    /// can always be reclaimed, so scavenging may run whenever CPUs are
    /// idle. A non-empty queue without a placeable head keeps it out.
    fn guard_ok(&self, scheduler: &Scheduler, now: SimTime, dur: SimDuration) -> bool {
        if self.policy.preemption != Preemption::None || scheduler.queue_is_empty() {
            return true;
        }
        scheduler
            .head_reservation()
            .is_some_and(|res| res.start >= now + dur)
    }
}

/// The streams of a run and their submission state.
#[derive(Default)]
pub(super) struct StreamSet {
    streams: Vec<Stream>,
    /// Whether any stream preempts, so a cycle looks for victims at all.
    pub(super) preempts: bool,
    /// Round-robin pointer over streams for fair scavenging.
    rr_next: usize,
    /// Interstitial ids handed out so far.
    minted: u64,
    /// Preempted interstitial jobs, in FIFO resume order.
    pub(super) suspended: VecDeque<u64>,
    /// Fault victims whose backoff expired, in restart order.
    pub(super) ready: VecDeque<u64>,
    /// The cycle's eligible streams and what each may still start, with a
    /// slot per stream reserved as it is added: submission never allocates.
    live: Vec<(usize, u64)>,
}

impl StreamSet {
    pub(super) fn push(
        &mut self,
        project: InterstitialProject,
        mode: InterstitialMode,
        policy: InterstitialPolicy,
        machine: &MachineConfig,
    ) {
        self.preempts |= policy.preemption != Preemption::None;
        let runtime = project.runtime_on(machine);
        self.streams.push(Stream {
            project,
            mode,
            policy,
            runtime,
            started: 0,
        });
        self.live.reserve_exact(self.streams.len());
    }

    /// The no-delay guarantee binds only non-preempting streams: a
    /// preempting stream may block the head on purpose, and the next cycle
    /// reclaims the CPUs.
    pub(super) fn no_delay_binds(&self) -> bool {
        !self.streams.is_empty() && !self.preempts
    }

    /// Interstitial jobs started over all streams.
    pub(super) fn started(&self) -> u64 {
        self.streams.iter().map(|s| s.started).sum()
    }

    /// The instant each stream opens.
    pub(super) fn opens(&self) -> impl Iterator<Item = SimTime> + '_ {
        self.streams.iter().map(|s| match s.mode {
            InterstitialMode::Project { start } => start,
            InterstitialMode::Continual => SimTime::ZERO,
        })
    }

    /// The stream an interstitial job belongs to: its index rides in the
    /// job's `user` field, so outputs can be split per project.
    pub(super) fn of(&self, job: &Job) -> &Stream {
        &self.streams[job.user as usize]
    }

    /// A kill-preempted job must be redone: its stream gets the job back.
    pub(super) fn refund(&mut self, job: &Job) {
        self.streams[job.user as usize].started -= 1;
    }

    /// Stream `i`'s next job, submitted at `now` and charged to its budget.
    fn next_job(&mut self, i: usize, now: SimTime) -> Job {
        let stream = &mut self.streams[i];
        stream.started += 1;
        self.minted += 1;
        Job {
            id: INTERSTITIAL_ID_BASE + self.minted - 1,
            class: JobClass::Interstitial,
            user: i as u32,
            group: u32::MAX,
            submit: now,
            cpus: stream.project.cpus_per_job,
            runtime: stream.runtime,
            estimate: stream.runtime,
        }
    }
}

impl Simulator {
    /// The cycle's interstitial submission: resumes, retries, fresh jobs.
    pub(super) fn submit_interstitial(&mut self, now: SimTime, st: &mut RunState) {
        // Resume preempted jobs first — they are already inside their
        // stream's started budget and carry only their remaining work.
        while let Some(&id) = self.streams.suspended.front() {
            let js = &st.jobs[&id];
            debug_assert_eq!(js.phase, Phase::Waiting);
            let job = js.job;
            if !self.streams.of(&job).fits(&st.pool) {
                break;
            }
            self.streams.suspended.pop_front();
            self.start_job(now, job, StartKind::Resume, st);
        }

        // Fault victims whose backoff expired restart before fresh
        // submissions: their loss is sunk cost and they already hold stream
        // budget. The Figure 1 guard still applies — a retry must not delay
        // the native head any more than a fresh job may.
        for _ in 0..self.streams.ready.len() {
            let Some(id) = self.streams.ready.pop_front() else {
                break;
            };
            let js = &st.jobs[&id];
            debug_assert_eq!(js.phase, Phase::Waiting);
            let (job, remaining, credited) = (js.job, js.remaining(), !js.done.is_zero());
            let stream = self.streams.of(&job);
            if now + remaining > self.horizon {
                // Too late even for the credited remainder.
                self.give_up(id, SimDuration::ZERO, st);
            } else if stream.fits(&st.pool) && stream.guard_ok(&self.scheduler, now, remaining) {
                self.obs.metrics.inc("faults.retry_started", 1);
                // With nothing credited it starts over (remaining == runtime).
                let kind = if credited {
                    StartKind::Resume
                } else {
                    StartKind::Interstitial
                };
                self.start_job(now, job, kind, st);
            } else {
                self.streams.ready.push_back(id);
            }
        }

        let streams = &mut self.streams;
        streams.live.clear();
        for (i, s) in streams.streams.iter().enumerate() {
            let open = match s.mode {
                // Jobs must finish inside the analyzed log window.
                InterstitialMode::Continual => now + s.runtime <= self.horizon,
                InterstitialMode::Project { start } => now >= start,
            };
            let budget = s.project.jobs.saturating_sub(s.started);
            if open && budget > 0 && s.guard_ok(&self.scheduler, now, s.runtime) {
                streams.live.push((i, budget));
            }
        }
        let n = streams.live.len();
        if n == 0 {
            return;
        }

        // Round-robin one job at a time across the eligible streams so
        // concurrent projects share the interstices fairly.
        let mut cursor = self.streams.rr_next % n;
        let mut stuck = 0usize;
        while stuck < n {
            let (i, budget) = self.streams.live[cursor];
            if budget > 0 && self.streams.streams[i].fits(&st.pool) {
                stuck = 0;
                self.streams.live[cursor].1 -= 1;
                let job = self.streams.next_job(i, now);
                self.obs.record(now, submitted(&job));
                self.start_job(now, job, StartKind::Interstitial, st);
            } else {
                stuck += 1;
            }
            cursor = (cursor + 1) % n;
        }
        self.streams.rr_next = (self.streams.rr_next + 1) % n;
    }
}
