//! The discrete-event simulation driver — our stand-in for BIRMinator.
//!
//! Replays a native job log through a [`sched::Scheduler`] personality on a
//! [`machine`] model, optionally submitting interstitial jobs per the
//! paper's Figure 1 algorithm:
//!
//! 1. Every event (submission, completion, outage boundary, project start)
//!    triggers a scheduling cycle — "the algorithm is run every time the
//!    system checks for new jobs".
//! 2. The cycle first dispatches every native job that can run, from the
//!    head of the queue or via backfill.
//! 3. Then `floor(nodesAvailable / interstitialJobSize)` interstitial jobs
//!    are started **iff** the native queue is empty, or the blocked head's
//!    reservation (`backFillWallTime`) lies beyond the interstitial jobs'
//!    completion — so, *on the scheduler's own information*, they cannot
//!    delay it. Bad user estimates make that information wrong, which is
//!    exactly the §4.3 effect this simulator exists to measure.
//!
//! Interstitial jobs run at effectively bottom priority: they never enter
//! the native queue, are placed only into CPUs no dispatchable native job
//! could take, and their (exactly known — zero variance) runtimes are used
//! as their estimates.

use crate::policy::{
    InterstitialMode, InterstitialPolicy, Preemption, RecoveryPolicy, RetryPolicy,
};
use crate::project::InterstitialProject;
use crate::report::SimOutput;
use machine::fault::Eviction;
use machine::{
    CpuPool, FaultModel, FaultStats, MachineConfig, OutageSchedule, RunningJob, RunningSet,
};
use obs::profile::Phase as Span;
use obs::{EventKind, Obs, SloSpec, SloWatchdog, StartKind, WorkCounters};
use sched::Scheduler;
use simkit::event::EventQueue;
use simkit::time::{SimDuration, SimTime};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use workload::{CompletedJob, Job, JobClass};

/// Interstitial job ids live far above any native id.
const INTERSTITIAL_ID_BASE: u64 = 1 << 40;

/// Fragmentation of the projected free capacity at `now`, in permille: the
/// `analysis` interstice census of the running set's estimate-based free
/// profile, with a 1-CPU × 1-hour probe and a horizon `H = now + 24 h`,
/// folded to one telemetry scalar. 0 when nothing is free or everything is
/// harvestable.
///
/// What it measures is narrower than "free time in short gaps". The
/// profile starts at t=0, so the past `[0, now)` counts as free time at
/// today's `free_now`. And the profile never decreases: it starts at
/// `free_now` and steps up at each job's clamped estimated end
/// `e = max(estimated_end, now+1)`, so every 1-CPU lane is free on one
/// suffix `[t, H)` that reaches the horizon. The only short gaps are thus
/// CPUs that free up in the window's last hour: full-log exports read 0 at
/// most ticks and peak near 10‰.
///
/// Computed by [`frag_census`] in one pass over the running jobs.
fn frag_permille(running: &RunningSet, now: SimTime, free_now: u32) -> u64 {
    let (harvest, total) = frag_census(running, now, free_now);
    if total == 0 {
        return 0;
    }
    let frac = (1.0 - harvest as f64 / total as f64).clamp(0.0, 1.0);
    (frac * 1000.0).round() as u64
}

/// The `(harvestable, total)` free CPU·seconds that
/// `analysis::interstices::harvestable_cpu_seconds` finds in the 24 h free
/// profile with a 1-CPU × 1-hour probe, summed by job instead of by lane:
/// `total = free_now·H + Σ_{e<H} cpus·(H−e)` and `harvest = total − short`
/// with `short = Σ_{H−3600<e<H} cpus·(H−e)` (a lane freed at exactly
/// `H−3600` spans a full hour and is harvestable). No profile, no
/// allocation. Both sums are at most (CPUs in the set + `free_now`)·H,
/// below 2⁵³ for any machine of under 2²⁰ CPUs and a horizon under 2³³ s,
/// so the census's f64 sums of the same integers are exact and
/// `frag_permille` divides bit-identical values.
fn frag_census(running: &RunningSet, now: SimTime, free_now: u32) -> (u64, u64) {
    let horizon = now + SimDuration::from_hours(24);
    let next = now + SimDuration::from_secs(1);
    let short_after = horizon - SimDuration::from_hours(1);
    let mut total = u64::from(free_now) * horizon.as_secs();
    let mut short = 0u64;
    for j in running.iter() {
        let end = j.estimated_end.max(next);
        if end < horizon {
            let cpu_s = u64::from(j.cpus) * (horizon - end).as_secs();
            total += cpu_s;
            if end > short_after {
                short += cpu_s;
            }
        }
    }
    debug_assert!(total < 1 << 53, "census sums must stay exact in f64");
    (total - short, total)
}

/// Safety valve against event storms (a healthy full-scale run is ~2M).
const MAX_EVENTS: u64 = 200_000_000;

#[derive(Clone, Copy, Debug)]
enum Ev {
    /// A native job (by index into the trace) is submitted.
    Arrive(u32),
    /// A running job finishes, stamped with the start generation that
    /// scheduled it. Every start or resume bumps the job's generation, so
    /// a finish the job outlived (it was evicted, or restarted since) finds
    /// the job not running or a newer generation, and is dropped.
    Finish { id: u64, gen: u32 },
    /// Machine goes down / comes back. Payload: is the machine up after
    /// this event?
    Outage(bool),
    /// A node (by index into the fault model) fails, removing its CPUs
    /// from service and crashing tenants the remaining capacity cannot
    /// hold.
    NodeDown(u32),
    /// A failed node (by index) is repaired and rejoins the pool.
    NodeUp(u32),
    /// A fault-killed interstitial job's retry backoff expired; the job
    /// may restart at the next opportunity.
    Retry(u64),
    /// Forces a scheduling cycle (simulation start, project start).
    Kick,
}

const _: () = assert!(std::mem::size_of::<Ev>() == 16);

/// Builder for [`Simulator`].
/// One interstitial job stream: a project, its mode and its policy.
pub type InterstitialStream = (InterstitialProject, InterstitialMode, InterstitialPolicy);

/// Builder for [`Simulator`]: machine + native log + optional interstitial
/// streams, outages and scheduler override.
pub struct SimBuilder {
    machine: MachineConfig,
    natives: Arc<Vec<Job>>,
    scheduler: Option<Scheduler>,
    faults: FaultModel,
    retry: RetryPolicy,
    recovery: RecoveryPolicy,
    streams: Vec<InterstitialStream>,
    horizon_override: Option<SimTime>,
    periodic_cycle: Option<SimDuration>,
    feedback: Option<(SimDuration, u64)>,
    observer: Obs,
    slo: Option<SloSpec>,
}

impl SimBuilder {
    /// Start building a simulation of `machine`.
    pub fn new(machine: MachineConfig) -> Self {
        SimBuilder {
            machine,
            natives: Arc::new(Vec::new()),
            scheduler: None,
            faults: FaultModel::none(),
            retry: RetryPolicy::default(),
            recovery: RecoveryPolicy::default(),
            streams: Vec::new(),
            horizon_override: None,
            periodic_cycle: None,
            feedback: None,
            observer: Obs::disabled(),
            slo: None,
        }
    }

    /// The native job log to replay. Jobs larger than the machine are
    /// rejected at build time.
    pub fn natives(mut self, jobs: Vec<Job>) -> Self {
        self.natives = Arc::new(jobs);
        self
    }

    /// The native job log as a shared handle. Callers running the same
    /// trace through many configurations (baseline vs interstitial,
    /// replications) share one allocation instead of cloning the whole
    /// log per run.
    pub fn natives_arc(mut self, jobs: Arc<Vec<Job>>) -> Self {
        self.natives = jobs;
        self
    }

    /// Attach an observability bundle: its trace sink, metrics registry and
    /// phase profiler collect during [`Simulator::run`] and come back in
    /// [`SimOutput::obs`]. Default: [`Obs::disabled`] — all hooks no-op.
    pub fn observer(mut self, observer: Obs) -> Self {
        self.observer = observer;
        self
    }

    /// Override the scheduler personality (default: the machine's Table 1
    /// queueing system).
    pub fn scheduler(mut self, s: Scheduler) -> Self {
        self.scheduler = Some(s);
        self
    }

    /// Add whole-machine outage windows (the paper's §2 model; shorthand
    /// for a [`FaultModel`] with no node failures).
    pub fn outages(mut self, o: OutageSchedule) -> Self {
        self.faults = self.faults.with_outages(o);
        self
    }

    /// Attach a full fault model: whole-machine outages plus per-node
    /// failure/repair schedules. Node failures remove their CPUs from
    /// service and crash tenants the remaining capacity cannot hold; with
    /// [`FaultModel::none`] the simulation is bit-for-bit the perfect
    /// machine.
    pub fn faults(mut self, f: FaultModel) -> Self {
        self.faults = f;
        self
    }

    /// Retry policy for fault-killed interstitial jobs (default: 60 s base
    /// delay doubling to a 1 h cap, 5 attempts).
    pub fn retry(mut self, r: RetryPolicy) -> Self {
        self.retry = r;
        self
    }

    /// Recovery policy for evicted interstitial jobs (default:
    /// [`RecoveryPolicy::KillRestart`], the legacy path — bit-identical
    /// traces). Checkpoint and suspend-resume credit evicted progress to a
    /// per-job ledger so victims re-enter with only their remaining work.
    pub fn recovery(mut self, r: RecoveryPolicy) -> Self {
        self.recovery = r;
        self
    }

    /// Add an interstitial job stream. May be called repeatedly: multiple
    /// projects then compete for the spare cycles, served round-robin
    /// (streams are distinguished in the output by the interstitial jobs'
    /// `user` field, which carries the stream index).
    pub fn interstitial(
        mut self,
        project: InterstitialProject,
        mode: InterstitialMode,
        policy: InterstitialPolicy,
    ) -> Self {
        self.streams.push((project, mode, policy));
        self
    }

    /// Load SLO rules for the online watchdog. Only effective when the
    /// observer carries an enabled telemetry bus — the watchdog reads the
    /// bus's sampled signal values at each cadence tick, recording
    /// breach/clear transitions as schema-v4 trace events and telemetry
    /// annotations. Without rules (the default) the trace stream is
    /// byte-identical to a run with no watchdog at all.
    pub fn slo(mut self, spec: SloSpec) -> Self {
        self.slo = Some(spec);
        self
    }

    /// Override the log horizon (default: the machine's Table 1 log length).
    pub fn horizon(mut self, h: SimTime) -> Self {
        self.horizon_override = Some(h);
        self
    }

    /// Run a scheduling cycle every `interval` in addition to the
    /// event-driven cycles — the paper's "or at given time intervals"
    /// clause. Only needed when dispatch opportunities can open without an
    /// event, e.g. a time-of-day window admitting a waiting long job on an
    /// otherwise quiet machine.
    pub fn periodic_cycle(mut self, interval: SimDuration) -> Self {
        assert!(!interval.is_zero());
        self.periodic_cycle = Some(interval);
        self
    }

    /// Closed-loop native submission (extension). Open-loop trace replay —
    /// the paper's method and the default here — submits jobs at their
    /// logged instants regardless of system state, which is known to
    /// overstate congestion feedback. With this knob each user's next job
    /// is instead submitted at `max(logged instant, previous finish +
    /// Exp(mean_think))`, preserving job shapes and per-user order while
    /// letting the workload react to delays.
    pub fn closed_loop(mut self, mean_think: SimDuration, seed: u64) -> Self {
        self.feedback = Some((mean_think, seed));
        self
    }

    /// Finalize into a runnable [`Simulator`].
    pub fn build(self) -> Simulator {
        let horizon = self
            .horizon_override
            .unwrap_or_else(|| self.machine.log_horizon());
        let scheduler = self
            .scheduler
            .unwrap_or_else(|| Scheduler::for_machine(&self.machine));
        let max = self.machine.cpus;
        // Shared logs are the common case; only a log containing oversized
        // jobs pays for a filtered copy.
        let natives = if self.natives.iter().any(|j| j.cpus > max) {
            Arc::new(
                self.natives
                    .iter()
                    .filter(|j| j.cpus <= max)
                    .copied()
                    .collect(),
            )
        } else {
            self.natives
        };
        Simulator {
            machine: self.machine,
            natives,
            scheduler,
            faults: self.faults,
            retry: self.retry,
            recovery: self.recovery,
            streams: self.streams,
            horizon,
            periodic_cycle: self.periodic_cycle,
            feedback: self.feedback,
            obs: self.observer,
            slo: self.slo,
        }
    }
}

/// A fully configured simulation, consumed by [`Simulator::run`].
pub struct Simulator {
    machine: MachineConfig,
    natives: Arc<Vec<Job>>,
    scheduler: Scheduler,
    faults: FaultModel,
    retry: RetryPolicy,
    recovery: RecoveryPolicy,
    streams: Vec<InterstitialStream>,
    horizon: SimTime,
    periodic_cycle: Option<SimDuration>,
    feedback: Option<(SimDuration, u64)>,
    obs: Obs,
    slo: Option<SloSpec>,
}

/// Where a started job is in its life cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Holding CPUs; its live finish event carries the current generation.
    Running,
    /// A native a fault put back at the head of the scheduler's queue.
    Requeued,
    /// A fault-killed interstitial waiting out its retry backoff.
    Backoff,
    /// Backoff expired: queued in `RunState::ready` to restart.
    Ready,
    /// Preempted: queued in `RunState::suspended` to resume.
    Suspended,
}

/// Everything the driver knows about a job it has started.
struct JobState {
    job: Job,
    /// Start generation: bumped by every start or resume and stamped on
    /// the finish event that start schedules.
    gen: u32,
    /// Fault kills so far — the `attempt` stamped on requeue events, and
    /// the count the retry policy's give-up test reads.
    attempts: u32,
    /// Work the job has banked: what the recovery policy credited at its
    /// last eviction (zero under kill-restart) plus what checkpoint-mode
    /// preemptions froze since. The only record of its progress: it has
    /// `job.runtime − done` left to run.
    done: SimDuration,
    /// Wallclock anchor: the completed record spans back to it across
    /// every suspension. Every start but a resume resets it, so a fault
    /// retry with nothing credited starts over.
    first_start: SimTime,
    phase: Phase,
}

impl JobState {
    /// The work the job still has to run.
    fn remaining(&self) -> SimDuration {
        self.job.runtime.saturating_sub(self.done)
    }
}

struct RunState {
    pool: CpuPool,
    running: RunningSet,
    /// Every started job not yet finished or abandoned (the RunningSet
    /// keeps only the scheduling facts of the running ones). All RunState
    /// maps are `BTreeMap`: the closed-loop seeding and any future
    /// iteration must visit entries in a fixed order or replays diverge
    /// (simlint R1).
    jobs: BTreeMap<u64, JobState>,
    completed: Vec<CompletedJob>,
    /// Interstitial jobs started so far, per stream.
    ij_started: Vec<u64>,
    /// Round-robin pointer over streams for fair scavenging.
    rr_next: usize,
    next_ij_id: u64,
    machine_up: bool,
    /// Preempted interstitial jobs, in FIFO resume order.
    suspended: VecDeque<u64>,
    /// Fault victims whose backoff expired, in restart order.
    ready: VecDeque<u64>,
    /// Fault/recovery counts and the CPU·second ledger.
    faults: FaultStats,
    /// Closed-loop mode: per-user queues of not-yet-submitted native trace
    /// indexes, and the think-time sampler.
    user_pending: BTreeMap<u32, VecDeque<u32>>,
    think: Option<(simkit::dist::Exp, simkit::rng::Rng)>,
    /// Rolling P² estimate of the native P99 queue wait — the telemetry
    /// `native_wait_p99_s` signal. Observed at native finishes only when
    /// the bus is enabled, so the default path stays untouched.
    native_wait_p99: obs::P2,
    /// The work counters at the previous telemetry tick, for the per-tick
    /// delta signals.
    telemetry_prev: WorkCounters,
    /// Online SLO evaluator fed at each telemetry tick.
    watchdog: SloWatchdog,
}

impl RunState {
    /// The state of a job the driver started and still tracks.
    fn job_mut(&mut self, id: u64) -> &mut JobState {
        self.jobs.get_mut(&id).expect("state of a started job")
    }
}

impl Simulator {
    /// Execute the simulation to completion (all submitted jobs finished)
    /// and return the job log.
    pub fn run(mut self) -> SimOutput {
        let mut q = EventQueue::with_capacity(self.natives.len() * 2 + 16);
        // Open the run's allocation window (inert unless obs was built with
        // the alloc-count feature); closed just before SimOutput assembly.
        let mem_mark = obs::alloc::mark();
        self.obs
            .trace
            .set_machine(self.machine.name, self.machine.cpus);
        self.obs
            .telemetry
            .set_machine(self.machine.name, self.machine.cpus);
        let mut st = RunState {
            pool: CpuPool::new(self.machine.cpus),
            running: RunningSet::new(),
            jobs: BTreeMap::new(),
            completed: Vec::with_capacity(self.natives.len()),
            ij_started: vec![0; self.streams.len()],
            rr_next: 0,
            next_ij_id: INTERSTITIAL_ID_BASE,
            machine_up: !self.faults.machine_outages().is_down(SimTime::ZERO),
            suspended: VecDeque::new(),
            ready: VecDeque::new(),
            faults: FaultStats::default(),
            user_pending: BTreeMap::new(),
            think: self.feedback.map(|(mean, seed)| {
                (
                    simkit::dist::Exp::with_mean(mean.as_secs_f64().max(1.0)),
                    simkit::rng::Rng::new(seed),
                )
            }),
            native_wait_p99: obs::P2::new(0.99),
            telemetry_prev: WorkCounters::default(),
            // Every --slo metric resolves against DRIVER_SIGNALS (pinned by
            // an obs test), so construction cannot fail here; a rule naming
            // an unsampled signal degrades to no watchdog rather than a
            // panic. The watchdog only runs when the bus ticks.
            watchdog: match (&self.slo, self.obs.telemetry.is_enabled()) {
                (Some(spec), true) => {
                    SloWatchdog::new(spec, self.obs.telemetry.signals()).unwrap_or_default()
                }
                _ => SloWatchdog::none(),
            },
        };

        // Seed events: native arrivals, outage boundaries, project start.
        if self.feedback.is_some() {
            // Closed loop: only each user's first job enters at its logged
            // instant; the rest are released by completions.
            for (i, j) in self.natives.iter().enumerate() {
                st.user_pending
                    .entry(j.user)
                    .or_default()
                    .push_back(i as u32);
            }
            for queue in st.user_pending.values_mut() {
                let first = queue.pop_front().expect("non-empty by construction");
                q.schedule(self.natives[first as usize].submit, Ev::Arrive(first));
            }
        } else {
            for (i, j) in self.natives.iter().enumerate() {
                q.schedule(j.submit, Ev::Arrive(i as u32));
            }
        }
        for &(down, up) in self.faults.machine_outages().windows() {
            q.schedule(down, Ev::Outage(false));
            q.schedule(up, Ev::Outage(true));
        }
        for (i, node) in self.faults.nodes().iter().enumerate() {
            for &(down, up) in node.schedule.windows() {
                q.schedule(down, Ev::NodeDown(i as u32));
                q.schedule(up, Ev::NodeUp(i as u32));
            }
        }
        for &(_, mode, _) in &self.streams {
            match mode {
                InterstitialMode::Project { start } => q.schedule(start, Ev::Kick),
                InterstitialMode::Continual => q.schedule(SimTime::ZERO, Ev::Kick),
            }
        }
        if let Some(interval) = self.periodic_cycle {
            let mut t = SimTime::ZERO + interval;
            while t < self.horizon {
                q.schedule(t, Ev::Kick);
                t += interval;
            }
        }

        let mut steps = 0u64;
        while let Some((now, ev)) = q.pop() {
            // Flush any cadence ticks due before this event: samples record
            // the left-limit state at their instant, keeping trace time
            // monotone when the watchdog stamps breach events at tick times.
            self.flush_telemetry(now, &mut st, &q, steps);
            let rec = self.obs.recorder.begin();
            let pump = self.obs.profiler.begin();
            self.handle(now, ev, &mut st, &mut q);
            steps += 1;
            // Coalesce every event at this instant into one scheduling pass.
            while q.peek_time() == Some(now) {
                let (_, ev) = q.pop().expect("peeked event");
                self.handle(now, ev, &mut st, &mut q);
                steps += 1;
            }
            self.obs.profiler.end(Span::EventPump, pump);
            assert!(steps < MAX_EVENTS, "event storm: {steps} events");
            self.cycle(now, &mut st, &mut q);
            if rec.is_some() {
                // Flight-record the pass: the recorder diffs the counters and
                // the profiler's totals against the previous pass itself.
                let work = self.work_counters(steps, &q, &st);
                let depth = self.scheduler.queue_len() as u64;
                self.obs
                    .recorder
                    .end_cycle(rec, now, depth, &work, &self.obs.profiler);
            }
        }

        debug_assert!(st.running.is_empty(), "jobs still running at drain");
        debug_assert_eq!(st.pool.in_use(), 0);
        debug_assert!(
            st.jobs
                .values()
                .all(|j| !matches!(j.phase, Phase::Running | Phase::Backoff)),
            "a job is still running or backing off at drain"
        );
        // Retries that never found room before the event queue ran dry, and
        // evicted jobs still parked in the suspended queue, are abandoned
        // with everything they had banked.
        let ledger = &mut st.faults.ledger;
        for js in st.ready.iter().chain(&st.suspended).map(|id| &st.jobs[id]) {
            ledger.abandon(js.job.cpus, js.done, SimDuration::ZERO);
        }
        st.faults.interstitial_given_up += st.ready.len() as u64;
        sched::invariants::check_cpu_seconds(&st.completed, &st.faults.ledger);
        // The keys are unique, so an unstable sort gives the same order
        // without a scratch buffer.
        st.completed.sort_unstable_by_key(|c| (c.finish, c.job.id));
        self.obs.metrics.inc("engine.events", steps);
        self.obs.metrics.gauge_set(
            "engine.end_time_s",
            i64::try_from(q.now().as_secs()).unwrap_or(i64::MAX),
        );
        let work = self.work_counters(steps, &q, &st);
        // Only a run that scheduled leaves a cycle counter.
        if work.sched_cycles > 0 {
            self.obs.metrics.inc("sched.cycles", work.sched_cycles);
        }
        self.obs.work = work;
        self.obs.mem = obs::alloc::since(&mem_mark);
        SimOutput {
            machine: self.machine.clone(),
            horizon: self.horizon,
            completed: st.completed,
            interstitial_started: st.ij_started.iter().sum(),
            native_submitted: self.natives.len() as u64,
            sim_end: q.now(),
            fault_model: self.faults.clone(),
            faults: st.faults,
            obs: self.obs,
        }
    }

    fn handle(&mut self, now: SimTime, ev: Ev, st: &mut RunState, q: &mut EventQueue<Ev>) {
        match ev {
            Ev::Arrive(idx) => {
                let mut job = self.natives[idx as usize];
                // In closed-loop mode the arrival may have been deferred;
                // the wait clock starts at the actual submission instant.
                job.submit = now;
                self.obs.record(
                    now,
                    EventKind::Submit {
                        job: job.id,
                        cpus: job.cpus,
                        estimate_s: job.estimate.as_secs(),
                        interstitial: false,
                    },
                );
                self.scheduler.submit(job);
            }
            Ev::Finish { id, gen } => {
                let js = match st.jobs.entry(id) {
                    Entry::Occupied(e) if e.get().phase == Phase::Running && e.get().gen == gen => {
                        e.remove()
                    }
                    // Stale: the job was evicted or restarted since.
                    _ => return,
                };
                let rj = st.running.remove(id);
                st.pool.release(rj.cpus);
                let job = js.job;
                self.scheduler.charge_finish(now, &job);
                let record = CompletedJob::with_finish(job, js.first_start, now);
                let (interstitial, ran) = (job.class.is_interstitial(), now - rj.start);
                st.faults.ledger.complete(interstitial, rj.cpus, ran);
                self.obs.record(
                    now,
                    EventKind::Finish {
                        job: id,
                        cpus: rj.cpus,
                        wait_s: record.wait().as_secs(),
                        interstitial,
                    },
                );
                if !interstitial && self.obs.telemetry.is_enabled() {
                    st.native_wait_p99.observe(record.wait().as_secs() as f64);
                }
                st.completed.push(record);
                // Closed loop: this completion releases the user's next job.
                if !job.class.is_interstitial() {
                    if let Some((dist, rng)) = st.think.as_mut() {
                        if let Some(queue) = st.user_pending.get_mut(&job.user) {
                            if let Some(next) = queue.pop_front() {
                                use simkit::dist::Sample;
                                let think = SimDuration::from_secs_f64(dist.sample(rng));
                                let logged = self.natives[next as usize].submit;
                                q.schedule(logged.max(now + think), Ev::Arrive(next));
                            }
                        }
                    }
                }
            }
            Ev::Outage(up) => {
                st.machine_up = up;
                self.obs.record(now, EventKind::Outage { up });
            }
            Ev::NodeDown(node) => self.fail_node(now, node, st, q),
            Ev::NodeUp(node) => {
                let cpus = self.faults.nodes()[node as usize].cpus;
                st.faults.node_repairs += 1;
                st.pool.bring_online(cpus);
                self.obs.record(now, EventKind::NodeUp { node, cpus });
            }
            Ev::Retry(id) => {
                let js = st.job_mut(id);
                if js.phase == Phase::Backoff {
                    js.phase = Phase::Ready;
                    st.ready.push_back(id);
                }
            }
            Ev::Kick => {}
        }
    }

    /// A node failed: its CPUs leave service and, when occupancy exceeds
    /// the remaining capacity, tenants are crashed to cover the shortfall.
    /// The pool is liquid (jobs are not pinned to nodes), so a failing node
    /// first claims idle CPUs; only the deficit kills jobs — youngest
    /// interstitial first (the cheapest loss), then youngest native.
    fn fail_node(&mut self, now: SimTime, node: u32, st: &mut RunState, q: &mut EventQueue<Ev>) {
        let cpus = self.faults.nodes()[node as usize].cpus;
        st.faults.node_failures += 1;
        self.obs.record(now, EventKind::NodeDown { node, cpus });
        let deficit = cpus.saturating_sub(st.pool.free());
        if deficit > 0 {
            let mut victims: Vec<(bool, SimTime, u64, u32)> = st
                .running
                .iter()
                .map(|r| (!r.interstitial, r.start, r.id, r.cpus))
                .collect();
            victims.sort_by_key(|&(native, start, id, _)| (native, std::cmp::Reverse(start), id));
            let mut reclaimed = 0u32;
            for (_, _, id, jcpus) in victims {
                if reclaimed >= deficit {
                    break;
                }
                self.fault_kill(now, node, id, st, q);
                reclaimed += jcpus;
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
    fn fault_kill(
        &mut self,
        now: SimTime,
        node: u32,
        id: u64,
        st: &mut RunState,
        q: &mut EventQueue<Ev>,
    ) {
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
            q.schedule(release, Ev::Retry(id));
            "faults.retry_scheduled"
        } else {
            st.job_mut(id).phase = Phase::Requeued;
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
    fn give_up(&mut self, id: u64, ran: SimDuration, st: &mut RunState) {
        if let Some(js) = st.jobs.remove(&id) {
            st.faults.ledger.abandon(js.job.cpus, js.done, ran);
        }
        st.faults.interstitial_given_up += 1;
        self.obs.metrics.inc("faults.retry_given_up", 1);
    }

    /// One scheduling pass: (extension) preempt interstitial jobs blocking
    /// the native head, then natives, then the Figure 1 interstitial
    /// submission. With the `check-invariants` feature (on in test builds)
    /// CPU conservation and the meta-backfill no-delay guarantee are
    /// asserted around the interstitial placement; the calls are empty
    /// inline stubs otherwise.
    fn cycle(&mut self, now: SimTime, st: &mut RunState, q: &mut EventQueue<Ev>) {
        let span = self.obs.profiler.begin();
        self.obs.trace.advance_cycle();
        if st.machine_up {
            self.preempt_for_head(now, st);
        }
        let plan = self.scheduler.cycle_observed(
            now,
            st.pool.free(),
            &st.running,
            st.machine_up,
            &mut self.obs,
        );
        // The planner emits all in-order dispatches before any backfill
        // (the head only blocks once, and stays blocked for the scan).
        let inorder = plan.starts.len() - plan.backfilled as usize;
        for (i, job) in plan.starts.into_iter().enumerate() {
            let kind = if i < inorder {
                StartKind::InOrder
            } else {
                StartKind::Backfill
            };
            Self::start_job(now, job, st, q, kind, &mut self.obs);
        }
        self.check_conservation(now, st);
        if st.machine_up {
            // The no-delay guarantee only binds non-preempting streams (a
            // preempting stream may block the head on purpose — the next
            // cycle reclaims the CPUs).
            let no_delay_binds = !self.streams.is_empty()
                && self
                    .streams
                    .iter()
                    .all(|&(_, _, p)| p.preemption == Preemption::None);
            let before = self.scheduler.head_reservation();
            self.submit_interstitial(now, st, q);
            if no_delay_binds {
                sched::invariants::check_no_delay(
                    now,
                    &mut self.scheduler,
                    st.pool.free(),
                    &st.running,
                    before,
                );
            }
            self.check_conservation(now, st);
        }
        self.obs.profiler.end(Span::ScheduleCycle, span);
    }

    /// Record every telemetry tick due at or before `now`, sampling the
    /// current (left-limit) state, then feed the sampled values to the SLO
    /// watchdog. One predictable branch when the bus is disabled or no
    /// tick is due — the default path stays zero-cost.
    fn flush_telemetry(&mut self, now: SimTime, st: &mut RunState, q: &EventQueue<Ev>, steps: u64) {
        while let Some(t) = self.obs.telemetry.pending_tick(now) {
            let native = st.running.native_cpus_in_use();
            let busy = st.running.cpus_in_use();
            let free = st.pool.free();
            let in_service = st.pool.total() - st.pool.offline();
            let util = if in_service == 0 {
                0
            } else {
                u64::from(busy) * 1000 / u64::from(in_service)
            };
            let p99 = match st.native_wait_p99.estimate() {
                Some(x) if x > 0.0 => x as u64,
                _ => 0,
            };
            let work = self.work_counters(steps, q, st);
            let prev = std::mem::replace(&mut st.telemetry_prev, work);
            let tick = SimTime::from_secs(t);
            let values = [
                u64::from(native),
                u64::from(busy - native),
                u64::from(free),
                u64::from(in_service),
                util,
                self.scheduler.queue_len() as u64,
                self.scheduler.queued_demand_cpu_s(),
                frag_permille(&st.running, tick, free),
                st.running.len() as u64,
                p99,
                work.events_popped - prev.events_popped,
                work.starts() - prev.starts(),
                work.backfill_candidates_scanned - prev.backfill_candidates_scanned,
                work.profile_segments_walked - prev.profile_segments_walked,
            ];
            self.obs.telemetry.record_tick(t, &values);
            for tr in st.watchdog.evaluate(&values) {
                let (rule, metric, value, limit) = (tr.rule, tr.metric, tr.value, tr.limit);
                let kind = if tr.breached {
                    EventKind::SloBreach {
                        rule,
                        metric,
                        value,
                        limit,
                    }
                } else {
                    EventKind::SloClear {
                        rule,
                        metric,
                        value,
                        limit,
                    }
                };
                self.obs.record(tick, kind);
            }
        }
    }

    /// The run's work counters after `steps` events, read from the sources
    /// that count in every run: the event queue, the scheduler, the fault
    /// churn counts and the ledger. The flight recorder, the telemetry
    /// delta signals and the end-of-run report all read this one snapshot.
    fn work_counters(&self, steps: u64, q: &EventQueue<Ev>, st: &RunState) -> WorkCounters {
        let sc = self.scheduler.counters();
        let mut work = WorkCounters {
            events_popped: steps,
            events_scheduled: q.scheduled_total(),
            heap_peak_depth: q.peak_len() as u64,
            sched_cycles: sc.cycles,
            inorder_starts: sc.inorder_starts,
            backfill_starts: sc.backfill_starts,
            backfill_candidates_scanned: sc.backfill_candidates_scanned,
            profile_segments_walked: sc.profile_segments_walked,
            requeues: st.faults.native_requeues,
            retries: st.faults.interstitial_retries,
            ..WorkCounters::default()
        };
        // Kill-restart reports no recovery work, as it always has: its
        // evictions keep nothing, and the one thing the ledger can still
        // book under it (the frozen attempt of a checkpoint-mode
        // preemption, as salvaged) stays out of its work counters, which is
        // what the committed kill-restart reports and baselines hold.
        if self.recovery != RecoveryPolicy::KillRestart {
            let ledger = &st.faults.ledger;
            work.checkpoints_taken = ledger.checkpoints_taken();
            work.cpu_s_salvaged = ledger.salvaged();
            work.cpu_s_reexecuted = ledger.reexecuted();
        }
        work
    }

    /// CPU-conservation and degraded-capacity invariants (no-ops without
    /// `check-invariants`). Capacity is cross-checked against the fault
    /// model's own timeline, not the pool's offline counter, so a missed
    /// offline debit is caught rather than absorbed.
    fn check_conservation(&self, now: SimTime, st: &RunState) {
        sched::invariants::check_conservation(
            now,
            &st.running,
            st.pool.in_use(),
            st.pool.free(),
            st.pool.offline(),
            st.pool.total(),
        );
        sched::invariants::check_capacity(
            now,
            st.pool.in_use(),
            self.faults.available_cpus(now, st.pool.total()),
        );
    }

    /// Breakage-in-time extension: if the native queue head could start
    /// right now but for CPUs held by interstitial jobs, reclaim them
    /// (kill or checkpoint per policy). The paper's model never does this.
    fn preempt_for_head(&mut self, now: SimTime, st: &mut RunState) {
        if !self
            .streams
            .iter()
            .any(|&(_, _, p)| p.preemption != Preemption::None)
        {
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
        let deficit = head.cpus - free;
        // Reclaimable capacity: running interstitial jobs belonging to a
        // preemptible stream, youngest first (kill loses the least work;
        // checkpoint order is immaterial but kept identical for
        // determinism). A job's stream index travels in its `user` field.
        let stream_of = |user: u32| user as usize;
        let mut victims: Vec<(SimTime, u64, u32)> = st
            .running
            .iter()
            .filter(|r| r.interstitial)
            .filter(|r| {
                let job = &st.jobs[&r.id].job;
                self.streams[stream_of(job.user)].2.preemption != Preemption::None
            })
            .map(|r| (r.start, r.id, r.cpus))
            .collect();
        let reclaimable: u32 = victims.iter().map(|&(_, _, c)| c).sum();
        if reclaimable < deficit {
            return; // preemption cannot unblock the head
        }
        victims.sort_by_key(|&(start, id, _)| (std::cmp::Reverse(start), id));
        let mut reclaimed = 0u32;
        for (_, id, cpus) in victims {
            if reclaimed >= deficit {
                break;
            }
            let rj = st.running.remove(id);
            st.pool.release(rj.cpus);
            let stream = stream_of(st.jobs[&id].job.user);
            match self.streams[stream].2.preemption {
                Preemption::Kill if self.recovery == RecoveryPolicy::KillRestart => {
                    self.credit_eviction(now, &rj, Eviction::Preempt, st);
                    st.jobs.remove(&id);
                    // Kill restores the job budget: the work must be redone.
                    st.ij_started[stream] -= 1;
                    self.obs.record(
                        now,
                        EventKind::Preempt {
                            job: id,
                            cpus,
                            kind: obs::PreemptKind::Kill,
                        },
                    );
                }
                flavor @ (Preemption::Kill | Preemption::Checkpoint) => {
                    self.obs.record(
                        now,
                        EventKind::Preempt {
                            job: id,
                            cpus,
                            kind: obs::PreemptKind::Checkpoint,
                        },
                    );
                    if flavor == Preemption::Kill {
                        // A recovery policy turns the kill into an eviction:
                        // credited progress survives and the job waits in
                        // the suspended queue holding only its remainder
                        // (and its stream budget — it is not redone).
                        self.credit_eviction(now, &rj, Eviction::Preempt, st);
                    } else {
                        // Checkpointed where it stands: the whole attempt
                        // is banked.
                        let ran = now - rj.start;
                        st.job_mut(id).done += ran;
                        st.faults.ledger.checkpoint_preempt(rj.cpus, ran);
                    }
                    st.job_mut(id).phase = Phase::Suspended;
                    st.suspended.push_back(id);
                }
                Preemption::None => unreachable!("victims are preemptible"),
            }
            reclaimed += cpus;
        }
    }

    /// Start (or restart, or resume) `job` on the work it has left.
    /// Interstitial runtimes are exactly known, so they plan on their true
    /// end; natives plan on their estimate.
    fn start_job(
        now: SimTime,
        job: Job,
        st: &mut RunState,
        q: &mut EventQueue<Ev>,
        kind: StartKind,
        observer: &mut Obs,
    ) {
        st.pool
            .allocate(job.cpus)
            .expect("dispatch plan oversubscribed the pool");
        let js = st.jobs.entry(job.id).or_insert(JobState {
            job,
            gen: 0,
            attempts: 0,
            done: SimDuration::ZERO,
            first_start: now,
            phase: Phase::Running,
        });
        js.job = job;
        js.gen += 1;
        js.phase = Phase::Running;
        if kind != StartKind::Resume {
            js.first_start = now;
        }
        let gen = js.gen;
        let interstitial = job.class.is_interstitial();
        let actual_end = now + js.remaining();
        let estimated_end = if interstitial {
            actual_end
        } else {
            now + job.planning_estimate()
        };
        st.running.insert(RunningJob {
            id: job.id,
            cpus: job.cpus,
            start: now,
            actual_end,
            estimated_end,
            interstitial,
        });
        observer.record(
            now,
            EventKind::Start {
                job: job.id,
                cpus: job.cpus,
                kind,
            },
        );
        q.schedule(actual_end, Ev::Finish { id: job.id, gen });
    }

    /// Resume an evicted interstitial job on the work it has left; its
    /// completed record spans back to its first start.
    fn resume(&mut self, now: SimTime, id: u64, st: &mut RunState, q: &mut EventQueue<Ev>) {
        let js = st.job_mut(id);
        let (job, remaining) = (js.job, js.remaining());
        Self::start_job(now, job, st, q, StartKind::Resume, &mut self.obs);
        if self.recovery != RecoveryPolicy::KillRestart {
            st.faults.interstitial_resumes += 1;
            self.obs.record(
                now,
                EventKind::JobResumed {
                    job: id,
                    remaining_s: remaining.as_secs(),
                },
            );
        }
    }

    /// Is `stream` allowed to start one job of duration `dur` right now?
    /// Implements the Figure 1 guard (relaxed under preemption: a blocking
    /// job can always be reclaimed, so scavenging may run whenever CPUs are
    /// idle).
    fn stream_guard_ok(&self, now: SimTime, policy: &InterstitialPolicy, dur: SimDuration) -> bool {
        if policy.preemption != Preemption::None {
            return true;
        }
        if self.scheduler.queue_is_empty() {
            return true;
        }
        match self.scheduler.head_reservation() {
            Some(res) => res.start >= now + dur,
            // Non-empty queue without a placeable head: stay out.
            None => false,
        }
    }

    fn submit_interstitial(&mut self, now: SimTime, st: &mut RunState, q: &mut EventQueue<Ev>) {
        if self.streams.is_empty() {
            return;
        }

        // Resume preempted jobs first — they are already inside their
        // stream's started budget and carry only their remaining work.
        while let Some(&id) = st.suspended.front() {
            let js = &st.jobs[&id];
            debug_assert_eq!(js.phase, Phase::Suspended);
            let cpus = js.job.cpus;
            let policy = &self.streams[js.job.user as usize].2;
            if !st.pool.can_fit(cpus)
                || policy.cap_allowance(st.pool.in_use(), st.pool.total(), cpus) == 0
            {
                break;
            }
            st.suspended.pop_front();
            self.resume(now, id, st, q);
        }

        // Fault victims whose backoff expired restart before fresh
        // submissions: their loss is sunk cost and they already hold stream
        // budget. The Figure 1 guard still applies — a retry must not delay
        // the native head any more than a fresh job may.
        for _ in 0..st.ready.len() {
            let Some(id) = st.ready.pop_front() else {
                break;
            };
            let js = &st.jobs[&id];
            debug_assert_eq!(js.phase, Phase::Ready);
            let (job, remaining, credited) = (js.job, js.remaining(), !js.done.is_zero());
            let (_, _, policy) = self.streams[job.user as usize];
            if now + remaining > self.horizon {
                // Too late even for the credited remainder.
                self.give_up(id, SimDuration::ZERO, st);
            } else if st.pool.can_fit(job.cpus)
                && policy.cap_allowance(st.pool.in_use(), st.pool.total(), job.cpus) != 0
                && self.stream_guard_ok(now, &policy, remaining)
            {
                self.obs.metrics.inc("faults.retry_started", 1);
                if credited {
                    self.resume(now, id, st, q);
                } else {
                    // Nothing credited: from scratch (remaining == runtime).
                    let kind = StartKind::Interstitial;
                    Self::start_job(now, job, st, q, kind, &mut self.obs);
                }
            } else {
                st.ready.push_back(id);
            }
        }

        // Per-stream eligibility this cycle: (index, cpus, dur, budget).
        let mut live: Vec<(usize, u32, SimDuration, u64)> = Vec::new();
        for (i, &(project, mode, policy)) in self.streams.iter().enumerate() {
            let dur = project.runtime_on(&self.machine);
            let remaining = match mode {
                InterstitialMode::Continual => {
                    // Jobs must finish inside the analyzed log window.
                    if now + dur > self.horizon {
                        continue;
                    }
                    project.jobs.saturating_sub(st.ij_started[i])
                }
                InterstitialMode::Project { start } => {
                    if now < start {
                        continue;
                    }
                    project.jobs.saturating_sub(st.ij_started[i])
                }
            };
            if remaining == 0 || !self.stream_guard_ok(now, &policy, dur) {
                continue;
            }
            live.push((i, project.cpus_per_job, dur, remaining));
        }
        if live.is_empty() {
            return;
        }

        // Round-robin one job at a time across the eligible streams so
        // concurrent projects share the interstices fairly.
        let mut cursor = st.rr_next % live.len();
        let mut stuck = 0usize;
        while stuck < live.len() {
            let (i, cpus, dur, budget) = live[cursor];
            let policy = &self.streams[i].2;
            if budget == 0
                || !st.pool.can_fit(cpus)
                || policy.cap_allowance(st.pool.in_use(), st.pool.total(), cpus) == 0
            {
                stuck += 1;
                cursor = (cursor + 1) % live.len();
                continue;
            }
            stuck = 0;
            live[cursor].3 -= 1;
            let id = st.next_ij_id;
            st.next_ij_id += 1;
            st.ij_started[i] += 1;
            let job = Job {
                id,
                class: JobClass::Interstitial,
                // The stream index rides in `user` so outputs can be split
                // per project.
                user: i as u32,
                group: u32::MAX,
                submit: now,
                cpus,
                runtime: dur,
                estimate: dur, // zero-variance runtimes, exactly known (§4)
            };
            self.obs.record(
                now,
                EventKind::Submit {
                    job: id,
                    cpus,
                    estimate_s: dur.as_secs(),
                    interstitial: true,
                },
            );
            Self::start_job(now, job, st, q, StartKind::Interstitial, &mut self.obs);
            cursor = (cursor + 1) % live.len();
        }
        st.rr_next = (st.rr_next + 1) % live.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::config::ross;

    fn tiny_machine() -> MachineConfig {
        let mut m = ross();
        m.cpus = 64;
        m.clock_ghz = 1.0;
        m
    }

    fn native(id: u64, submit: u64, cpus: u32, runtime: u64, estimate: u64) -> Job {
        Job {
            id,
            class: JobClass::Native,
            user: id as u32 % 5,
            group: id as u32 % 2,
            submit: SimTime::from_secs(submit),
            cpus,
            runtime: SimDuration::from_secs(runtime),
            estimate: SimDuration::from_secs(estimate),
        }
    }

    #[test]
    fn native_only_replay_completes_everything() {
        let jobs = vec![
            native(1, 0, 32, 1000, 1200),
            native(2, 10, 32, 500, 600),
            native(3, 20, 64, 300, 400),
        ];
        let out = SimBuilder::new(tiny_machine())
            .natives(jobs)
            .horizon(SimTime::from_secs(10_000))
            .build()
            .run();
        assert_eq!(out.native_completed(), 3);
        assert_eq!(out.interstitial_completed(), 0);
        // Jobs 1+2 run immediately side by side; job 3 (whole machine)
        // waits for both.
        let c3 = out.natives().find(|c| c.job.id == 3).unwrap();
        assert_eq!(c3.start, SimTime::from_secs(1000));
    }

    #[test]
    fn backfill_happens_in_replay() {
        // Head job blocks (needs whole machine), tiny job backfills.
        let jobs = vec![
            native(1, 0, 64, 1000, 1000),
            native(2, 10, 64, 500, 500),
            native(3, 20, 16, 400, 400),
        ];
        let out = SimBuilder::new(tiny_machine())
            .natives(jobs)
            .horizon(SimTime::from_secs(10_000))
            .build()
            .run();
        let c3 = out.natives().find(|c| c.job.id == 3).unwrap();
        // Job 3 fits alongside job... nothing: machine is full [0,1000).
        // It backfills at t=1000? No: job 2 (64 cpus) is reserved at 1000.
        // Job 3 (16 cpus, 400 s est) would delay it, so it runs after job 2
        // under EASY? At t=1000 job2 starts (whole machine to 1500); job 3
        // starts at 1500.
        assert_eq!(c3.start, SimTime::from_secs(1500));
    }

    #[test]
    fn continual_interstitial_fills_idle_machine() {
        let out = SimBuilder::new(tiny_machine())
            .natives(vec![native(1, 5_000, 64, 1_000, 1_200)])
            .horizon(SimTime::from_secs(20_000))
            .interstitial(
                InterstitialProject::per_paper(1_000_000, 16, 100.0),
                InterstitialMode::Continual,
                InterstitialPolicy::default(),
            )
            .build()
            .run();
        assert!(
            out.interstitial_completed() > 100,
            "machine should be packed"
        );
        // The native job must still complete.
        assert_eq!(out.native_completed(), 1);
        // Interstitial jobs all completed before the horizon.
        for c in out.interstitials() {
            assert!(c.finish <= SimTime::from_secs(20_000));
        }
        // With 100-second interstitial jobs across the whole idle machine,
        // overall utilization should be near 1.
        assert!(
            out.overall_utilization() > 0.9,
            "{}",
            out.overall_utilization()
        );
    }

    #[test]
    fn interstitial_delays_native_by_at_most_job_runtime_here() {
        // Machine idle: interstitial fills it at t=0 with 100 s jobs. A
        // native job arriving at t=50 (whole machine) must wait for the
        // interstitial batch to clear — ≤ one interstitial runtime.
        let out = SimBuilder::new(tiny_machine())
            .natives(vec![native(1, 50, 64, 500, 600)])
            .horizon(SimTime::from_secs(10_000))
            .interstitial(
                InterstitialProject::per_paper(1_000_000, 16, 100.0),
                InterstitialMode::Continual,
                InterstitialPolicy::default(),
            )
            .build()
            .run();
        let c1 = out.natives().next().unwrap();
        let wait = c1.wait().as_secs();
        assert!(wait > 0, "native had to wait for interstitials");
        assert!(wait <= 100, "wait {wait} exceeds one interstitial runtime");
    }

    #[test]
    fn project_mode_submits_exactly_n_jobs() {
        let project = InterstitialProject::per_paper(10, 16, 100.0);
        let out = SimBuilder::new(tiny_machine())
            .natives(vec![])
            .horizon(SimTime::from_secs(50_000))
            .interstitial(
                project,
                InterstitialMode::Project {
                    start: SimTime::from_secs(1_000),
                },
                InterstitialPolicy::default(),
            )
            .build()
            .run();
        assert_eq!(out.interstitial_completed(), 10);
        for c in out.interstitials() {
            assert!(c.start >= SimTime::from_secs(1_000));
        }
        // 10 jobs × 16 CPUs: 4 fit at once (64 CPUs) → three waves:
        // 4 @1000, 4 @1100, 2 @1200; last finish at 1300.
        let last = out.interstitials().map(|c| c.finish).max().unwrap();
        assert_eq!(last, SimTime::from_secs(1_300));
    }

    #[test]
    fn utilization_cap_limits_interstitial() {
        // Empty machine, cap 0.5: at most 2 × 16-CPU jobs (32/64) at once.
        let out = SimBuilder::new(tiny_machine())
            .natives(vec![])
            .horizon(SimTime::from_secs(5_000))
            .interstitial(
                InterstitialProject::per_paper(1_000_000, 16, 100.0),
                InterstitialMode::Continual,
                InterstitialPolicy::capped(0.5),
            )
            .build()
            .run();
        assert!(out.interstitial_completed() > 0);
        let u = out.utilization_by(false, true);
        assert!(u < 0.51, "capped utilization {u}");
        assert!(u > 0.4, "cap budget should be used, got {u}");
    }

    #[test]
    fn figure1_guard_blocks_when_head_imminent() {
        // Native head will free up at t=1000 (estimate matches runtime).
        // Interstitial jobs last 2000 s — starting one would (per the
        // estimates) delay the queued whole-machine job, so none may start.
        let jobs = vec![
            native(1, 0, 64, 1000, 1000), // runs [0,1000)
            native(2, 10, 64, 500, 500),  // queued; reserved at t=1000
        ];
        let out = SimBuilder::new(tiny_machine())
            .natives(jobs)
            .horizon(SimTime::from_secs(30_000))
            .interstitial(
                InterstitialProject::per_paper(1_000_000, 16, 2_000.0),
                InterstitialMode::Continual,
                InterstitialPolicy::default(),
            )
            .build()
            .run();
        // Native 2 must start exactly at t=1000, undelayed.
        let c2 = out.natives().find(|c| c.job.id == 2).unwrap();
        assert_eq!(c2.start, SimTime::from_secs(1000));
        // Interstitials only flow after the queue clears (t=1500).
        let earliest_ij = out.interstitials().map(|c| c.start).min().unwrap();
        assert!(earliest_ij >= SimTime::from_secs(1500));
    }

    #[test]
    fn bad_estimates_let_interstitial_delay_natives() {
        // Native 1 estimates 10000 s but actually runs 500 s. While it
        // runs, the queue is empty, so interstitials fill the rest. Native 2
        // arrives and — thanks to the wrong estimate — can be pushed back by
        // running interstitial jobs, though never by more than one
        // interstitial runtime beyond the *actual* availability.
        let jobs = vec![native(1, 0, 32, 500, 10_000), native(2, 100, 64, 300, 400)];
        let out = SimBuilder::new(tiny_machine())
            .natives(jobs)
            .horizon(SimTime::from_secs(30_000))
            .interstitial(
                InterstitialProject::per_paper(1_000_000, 32, 800.0),
                InterstitialMode::Continual,
                InterstitialPolicy::default(),
            )
            .build()
            .run();
        let c2 = out.natives().find(|c| c.job.id == 2).unwrap();
        // Without interstitial, job 2 would start at t=500. With it, the
        // interstitial slab started at t=0 holds 32 CPUs until t=800.
        assert_eq!(c2.start, SimTime::from_secs(800));
    }

    #[test]
    fn outage_blocks_all_starts() {
        let outages =
            OutageSchedule::from_windows(vec![(SimTime::from_secs(0), SimTime::from_secs(1_000))]);
        let out = SimBuilder::new(tiny_machine())
            .natives(vec![native(1, 100, 8, 200, 300)])
            .horizon(SimTime::from_secs(10_000))
            .outages(outages)
            .interstitial(
                InterstitialProject::per_paper(1_000_000, 16, 100.0),
                InterstitialMode::Continual,
                InterstitialPolicy::default(),
            )
            .build()
            .run();
        let c1 = out.natives().next().unwrap();
        assert_eq!(c1.start, SimTime::from_secs(1_000), "waits out the outage");
        let earliest_ij = out.interstitials().map(|c| c.start).min().unwrap();
        assert!(earliest_ij >= SimTime::from_secs(1_000));
    }

    #[test]
    fn oversized_natives_are_rejected_at_build() {
        let out = SimBuilder::new(tiny_machine())
            .natives(vec![
                native(1, 0, 1_000, 100, 100),
                native(2, 0, 8, 100, 100),
            ])
            .horizon(SimTime::from_secs(1_000))
            .build()
            .run();
        assert_eq!(out.native_submitted, 1);
        assert_eq!(out.native_completed(), 1);
    }

    #[test]
    fn continual_stops_at_horizon() {
        let out = SimBuilder::new(tiny_machine())
            .natives(vec![])
            .horizon(SimTime::from_secs(1_000))
            .interstitial(
                InterstitialProject::per_paper(1_000_000, 64, 300.0),
                InterstitialMode::Continual,
                InterstitialPolicy::default(),
            )
            .build()
            .run();
        // 300-second jobs, last allowed start at t=700: waves at 0, 300,
        // 600 → 3 jobs.
        assert_eq!(out.interstitial_completed(), 3);
        assert!(out.sim_end <= SimTime::from_secs(1_000));
    }

    #[test]
    fn kill_preemption_unblocks_native_head_immediately() {
        use crate::policy::Preemption;
        // Interstitial jobs fill the idle machine with LONG jobs; a native
        // whole-machine job arrives at t=50. Under Kill preemption it starts
        // at t=50 instead of waiting out the interstitial runtime.
        let out = SimBuilder::new(tiny_machine())
            .natives(vec![native(1, 50, 64, 500, 600)])
            .horizon(SimTime::from_secs(10_000))
            .interstitial(
                InterstitialProject::per_paper(1_000_000, 16, 5_000.0),
                InterstitialMode::Continual,
                InterstitialPolicy::preempting(Preemption::Kill),
            )
            .build()
            .run();
        let c1 = out.natives().next().unwrap();
        assert_eq!(c1.start, SimTime::from_secs(50), "no wait under preemption");
        assert_eq!(out.faults.ledger.preempt_kills(), 4, "whole slab reclaimed");
        // 4 jobs × 16 CPUs × 50 s of lost work.
        assert_eq!(out.faults.ledger.preempt_wasted(), 4 * 16 * 50);
    }

    #[test]
    fn checkpoint_preemption_resumes_and_loses_nothing() {
        use crate::policy::Preemption;
        // Same scenario, Checkpoint flavor: the interstitial jobs suspend at
        // t=50 and resume when the native finishes at t=550; each still
        // delivers its full 5000 s of work.
        let out = SimBuilder::new(tiny_machine())
            .natives(vec![native(1, 50, 64, 500, 600)])
            .horizon(SimTime::from_secs(50_000))
            .interstitial(
                InterstitialProject::per_paper(4, 16, 5_000.0),
                InterstitialMode::Continual,
                InterstitialPolicy::preempting(Preemption::Checkpoint),
            )
            .build()
            .run();
        assert_eq!(out.faults.ledger.preempt_kills(), 0);
        assert_eq!(out.faults.ledger.preempt_wasted(), 0);
        assert_eq!(out.interstitial_completed(), 4);
        for c in out.interstitials() {
            // Started at 0, suspended [50, 550), finished at 5500: the
            // wallclock exceeds the nominal runtime by the suspension.
            assert_eq!(c.start, SimTime::ZERO);
            assert_eq!(c.finish, SimTime::from_secs(5_500));
            assert_eq!(c.job.runtime, SimDuration::from_secs(5_000));
        }
        // The native ran on time.
        assert_eq!(out.natives().next().unwrap().start, SimTime::from_secs(50));
    }

    #[test]
    fn checkpoint_survives_repeated_preemption() {
        use crate::policy::Preemption;
        // Two natives force two suspensions of the same interstitial job.
        let out = SimBuilder::new(tiny_machine())
            .natives(vec![
                native(1, 100, 64, 200, 200),
                native(2, 1_000, 64, 200, 200),
            ])
            .horizon(SimTime::from_secs(50_000))
            .interstitial(
                InterstitialProject::per_paper(1, 16, 3_000.0),
                InterstitialMode::Continual,
                InterstitialPolicy::preempting(Preemption::Checkpoint),
            )
            .build()
            .run();
        assert_eq!(out.interstitial_completed(), 1);
        let c = out.interstitials().next().unwrap();
        // Work segments: [0,100) + [300,1000) + [1200, …): 100+700 done,
        // 2200 remaining → finish at 1200+2200 = 3400.
        assert_eq!(c.start, SimTime::ZERO);
        assert_eq!(c.finish, SimTime::from_secs(3_400));
        // Both natives undelayed.
        for n in out.natives() {
            assert_eq!(n.wait(), SimDuration::ZERO);
        }
    }

    #[test]
    fn checkpoint_preemption_progress_survives_a_later_fault() {
        use crate::policy::Preemption;
        use machine::{FaultModel, NodeFaults, OutageSchedule};
        // A 64-CPU × 3000 s job is checkpoint-preempted at t=100 by a
        // 64 × 200 s native, resumes at 300, and is crashed at 1000 by a
        // 16-CPU node failure after 800 s of work in all. Its retry is
        // released at 1060. Each recovery policy credits from those 800 s:
        // suspend keeps all of it, ckpt=300 keeps 600, kill keeps nothing.
        let faults = FaultModel::none().with_nodes(vec![NodeFaults {
            cpus: 16,
            schedule: OutageSchedule::from_windows(vec![(
                SimTime::from_secs(1_000),
                SimTime::from_secs(1_010),
            )]),
        }]);
        for (recovery, finish, wasted) in [
            (RecoveryPolicy::SuspendResume, 3_260, 0),
            (RecoveryPolicy::parse("ckpt=300").unwrap(), 3_460, 64 * 200),
            (RecoveryPolicy::KillRestart, 4_060, 64 * 800),
        ] {
            let out = SimBuilder::new(tiny_machine())
                .natives(vec![native(1, 100, 64, 200, 200)])
                .horizon(SimTime::from_secs(10_000))
                .faults(faults.clone())
                .recovery(recovery)
                .interstitial(
                    InterstitialProject::per_paper(1, 64, 3_000.0),
                    InterstitialMode::Continual,
                    InterstitialPolicy::preempting(Preemption::Checkpoint),
                )
                .build()
                .run();
            let c = out.interstitials().next().expect("the job completes");
            assert_eq!(c.finish, SimTime::from_secs(finish), "{recovery:?}");
            let ledger = &out.faults.ledger;
            assert_eq!(ledger.wasted(true), wasted, "{recovery:?}");
            assert_eq!(ledger.held(true), 64 * 3_000 + wasted, "{recovery:?}");
        }
    }

    #[test]
    fn preemption_relaxes_figure1_guard() {
        use crate::policy::Preemption;
        // Queue head imminent (reservation at t=1000): the paper's guard
        // blocks interstitial submission; with Checkpoint preemption the
        // stream flows immediately.
        let jobs = Arc::new(vec![
            native(1, 0, 64, 1000, 1000),
            native(2, 10, 64, 500, 500),
        ]);
        let paper = SimBuilder::new(tiny_machine())
            .natives_arc(Arc::clone(&jobs))
            .horizon(SimTime::from_secs(30_000))
            .interstitial(
                InterstitialProject::per_paper(1_000_000, 16, 2_000.0),
                InterstitialMode::Continual,
                InterstitialPolicy::default(),
            )
            .build()
            .run();
        let preempt = SimBuilder::new(tiny_machine())
            .natives_arc(jobs)
            .horizon(SimTime::from_secs(30_000))
            .interstitial(
                InterstitialProject::per_paper(1_000_000, 16, 2_000.0),
                InterstitialMode::Continual,
                InterstitialPolicy::preempting(Preemption::Checkpoint),
            )
            .build()
            .run();
        assert!(
            preempt.interstitial_completed() >= paper.interstitial_completed(),
            "preemption must scavenge at least as much"
        );
        // Native 2 still starts at t=1000 in both worlds.
        for out in [&paper, &preempt] {
            let c2 = out.natives().find(|c| c.job.id == 2).unwrap();
            assert_eq!(c2.start, SimTime::from_secs(1000));
        }
    }

    #[test]
    fn periodic_cycle_wakes_the_time_of_day_window() {
        use sched::{BackfillPolicy, DispatchWindow, PriorityPolicy, Scheduler};
        // A long job (10 h estimate) submitted at noon on an otherwise
        // dead-quiet machine whose scheduler only starts long jobs at
        // night. Without periodic cycles no event fires at 17:00, so the
        // job starts only when something else happens; with an hourly tick
        // it starts right when the window opens.
        let mut long = native(1, 12 * 3600, 8, 3_600, 10 * 3_600);
        long.estimate = SimDuration::from_hours(10);
        let scheduler = || {
            Scheduler::new(
                PriorityPolicy::Fcfs,
                BackfillPolicy::Easy,
                DispatchWindow::blue_pacific(),
                SimDuration::from_hours(24),
            )
        };
        let horizon = SimTime::from_days(2);
        let with_tick = SimBuilder::new(tiny_machine())
            .natives(vec![long])
            .scheduler(scheduler())
            .horizon(horizon)
            .periodic_cycle(SimDuration::from_hours(1))
            .build()
            .run();
        let c = with_tick.natives().next().unwrap();
        assert_eq!(
            c.start,
            SimTime::from_secs(17 * 3600),
            "starts at the window opening"
        );
    }

    #[test]
    fn closed_loop_serializes_per_user_jobs() {
        // One user, three jobs logged at t = 0, 10, 20, each running 100 s
        // on the whole machine. Open loop: all queue at once. Closed loop:
        // each is only submitted after the previous finishes (+ think).
        let jobs: Arc<Vec<Job>> = Arc::new(
            (0..3)
                .map(|i| {
                    let mut j = native(i + 1, i * 10, 64, 100, 100);
                    j.user = 1; // one user owns the whole sequence
                    j
                })
                .collect(),
        );
        let open = SimBuilder::new(tiny_machine())
            .natives_arc(Arc::clone(&jobs))
            .horizon(SimTime::from_secs(100_000))
            .build()
            .run();
        let closed = SimBuilder::new(tiny_machine())
            .natives_arc(jobs)
            .horizon(SimTime::from_secs(100_000))
            .closed_loop(SimDuration::from_secs(60), 9)
            .build()
            .run();
        assert_eq!(open.native_completed(), 3);
        assert_eq!(closed.native_completed(), 3);
        // Open loop: job 3 waits ~180 s. Closed loop: each job is submitted
        // after the previous finish, so nobody waits.
        let open_waits: f64 = open.natives().map(|c| c.wait().as_secs_f64()).sum();
        let closed_waits: f64 = closed.natives().map(|c| c.wait().as_secs_f64()).sum();
        assert!(open_waits > 200.0, "{open_waits}");
        assert_eq!(closed_waits, 0.0);
        // Per-user order preserved and think time separates them.
        let mut starts: Vec<(u64, u64)> = closed
            .natives()
            .map(|c| (c.job.id, c.start.as_secs()))
            .collect();
        starts.sort_unstable();
        assert!(starts[1].1 >= starts[0].1 + 100);
        assert!(starts[2].1 >= starts[1].1 + 100);
    }

    #[test]
    fn closed_loop_is_deterministic_and_respects_logged_floors() {
        let jobs: Arc<Vec<Job>> = Arc::new(
            (0..30)
                .map(|i| native(i + 1, i * 1_000, 8, 50, 60))
                .collect(),
        );
        let run = || {
            SimBuilder::new(tiny_machine())
                .natives_arc(Arc::clone(&jobs))
                .horizon(SimTime::from_secs(200_000))
                .closed_loop(SimDuration::from_secs(30), 4)
                .build()
                .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.completed.len(), b.completed.len());
        for (x, y) in a.completed.iter().zip(&b.completed) {
            assert_eq!((x.job.id, x.start), (y.job.id, y.start));
        }
        // No job is ever submitted before its logged instant.
        for c in a.natives() {
            let logged = jobs.iter().find(|j| j.id == c.job.id).unwrap().submit;
            assert!(c.job.submit >= logged);
        }
    }

    #[test]
    fn two_streams_share_cycles_round_robin() {
        // Two continual streams with identical shapes on an idle machine:
        // round-robin must split the harvested jobs almost exactly in half.
        let out = SimBuilder::new(tiny_machine())
            .natives(vec![])
            .horizon(SimTime::from_secs(20_000))
            .interstitial(
                InterstitialProject::per_paper(u64::MAX / 2, 16, 100.0),
                InterstitialMode::Continual,
                InterstitialPolicy::default(),
            )
            .interstitial(
                InterstitialProject::per_paper(u64::MAX / 2, 16, 100.0),
                InterstitialMode::Continual,
                InterstitialPolicy::default(),
            )
            .build()
            .run();
        let a = out.interstitials_of_stream(0).count() as f64;
        let b = out.interstitials_of_stream(1).count() as f64;
        assert!(a > 0.0 && b > 0.0);
        assert!((a - b).abs() / (a + b) < 0.05, "unfair split: {a} vs {b}");
        assert_eq!(
            out.interstitial_completed(),
            (a + b) as u64,
            "streams partition the interstitial population"
        );
    }

    #[test]
    fn streams_with_different_shapes_coexist() {
        // A fat stream (32-CPU) and a thin one (8-CPU) with distinct
        // runtimes; the thin one also fits leftover space the fat one
        // cannot use (64 − 32 = 32 → 4 × 8).
        let out = SimBuilder::new(tiny_machine())
            .natives(vec![native(1, 5_000, 64, 500, 600)])
            .horizon(SimTime::from_secs(30_000))
            .interstitial(
                InterstitialProject::per_paper(u64::MAX / 2, 32, 200.0),
                InterstitialMode::Continual,
                InterstitialPolicy::default(),
            )
            .interstitial(
                InterstitialProject::per_paper(u64::MAX / 2, 8, 50.0),
                InterstitialMode::Continual,
                InterstitialPolicy::default(),
            )
            .build()
            .run();
        assert!(out.interstitials_of_stream(0).count() > 0);
        assert!(out.interstitials_of_stream(1).count() > 0);
        // The native still completes on schedule-ish (both streams obey the
        // guard; its wait is bounded by the longer interstitial runtime).
        let n = out.natives().next().unwrap();
        assert!(n.wait().as_secs() <= 200);
        // Full machine still achieved.
        assert!(out.overall_utilization() > 0.9);
    }

    #[test]
    fn project_stream_plus_continual_background() {
        // A finite 20-job project competes against an endless background
        // stream; the project must still complete exactly its 20 jobs.
        let out = SimBuilder::new(tiny_machine())
            .natives(vec![])
            .horizon(SimTime::from_secs(50_000))
            .interstitial(
                InterstitialProject::per_paper(20, 16, 100.0),
                InterstitialMode::Project {
                    start: SimTime::from_secs(1_000),
                },
                InterstitialPolicy::default(),
            )
            .interstitial(
                InterstitialProject::per_paper(u64::MAX / 2, 16, 100.0),
                InterstitialMode::Continual,
                InterstitialPolicy::default(),
            )
            .build()
            .run();
        assert_eq!(out.interstitials_of_stream(0).count(), 20);
        assert!(out.interstitials_of_stream(1).count() > 100);
        // Round-robin means the project finishes in ~2x the solo time
        // (2 slots of 4 concurrent jobs each): 20 jobs / 2 per wave = 10
        // waves -> well within ~1300 s after start, not starved behind the
        // background stream.
        let last = out
            .interstitials_of_stream(0)
            .map(|c| c.finish)
            .max()
            .unwrap();
        assert!(
            last <= SimTime::from_secs(1_000 + 1_300),
            "project starved: finished at {last:?}"
        );
    }

    #[test]
    fn deterministic_output() {
        let jobs: Arc<Vec<Job>> = Arc::new(
            (0..50)
                .map(|i| native(i + 1, i * 97, 1 << (i % 6), 200 + i * 13, 400 + i * 13))
                .collect(),
        );
        let run = || {
            SimBuilder::new(tiny_machine())
                .natives_arc(Arc::clone(&jobs))
                .horizon(SimTime::from_secs(100_000))
                .interstitial(
                    InterstitialProject::per_paper(100_000, 8, 150.0),
                    InterstitialMode::Continual,
                    InterstitialPolicy::default(),
                )
                .build()
                .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.completed.len(), b.completed.len());
        for (x, y) in a.completed.iter().zip(b.completed.iter()) {
            assert_eq!(x.job.id, y.job.id);
            assert_eq!(x.start, y.start);
            assert_eq!(x.finish, y.finish);
        }
    }

    #[test]
    fn disabled_tracing_is_allocation_free() {
        // The default (no observer) run must never touch the trace buffer:
        // zero events, zero heap growth — the "zero-cost when disabled"
        // contract future perf PRs lean on.
        let jobs: Vec<Job> = (0..40)
            .map(|i| native(i + 1, i * 50, 1 << (i % 5), 100 + i * 7, 150 + i * 7))
            .collect();
        let out = SimBuilder::new(tiny_machine())
            .natives(jobs)
            .horizon(SimTime::from_secs(50_000))
            .interstitial(
                InterstitialProject::per_paper(10_000, 8, 120.0),
                InterstitialMode::Continual,
                InterstitialPolicy::default(),
            )
            .build()
            .run();
        assert!(out.native_completed() > 0 && out.interstitial_completed() > 0);
        assert_eq!(out.obs.trace.recorded(), 0);
        assert_eq!(out.obs.trace.heap_allocations(), 0);
        assert!(out.obs.run_report().metrics.counters.is_empty());
    }

    #[test]
    fn observer_captures_full_event_stream() {
        use obs::{EventKind, Obs};
        let jobs = Arc::new(vec![
            native(1, 0, 64, 1000, 1000), // runs immediately
            native(2, 10, 64, 500, 500),  // blocked head, reserved at 1000
            native(3, 20, 16, 400, 400),  // backfill candidate
        ]);
        let run = || {
            SimBuilder::new(tiny_machine())
                .natives_arc(Arc::clone(&jobs))
                .horizon(SimTime::from_secs(30_000))
                .interstitial(
                    InterstitialProject::per_paper(100, 16, 100.0),
                    InterstitialMode::Continual,
                    InterstitialPolicy::default(),
                )
                .observer(Obs::enabled())
                .build()
                .run()
        };
        let out = run();
        let evs = out.obs.trace.events();
        let count = |f: &dyn Fn(&EventKind) -> bool| evs.iter().filter(|e| f(&e.kind)).count();
        assert_eq!(
            count(&|k| matches!(
                k,
                EventKind::Submit {
                    interstitial: false,
                    ..
                }
            )),
            3
        );
        assert_eq!(
            count(&|k| matches!(
                k,
                EventKind::Finish {
                    interstitial: false,
                    ..
                }
            )),
            3
        );
        assert!(
            count(&|k| matches!(
                k,
                EventKind::Start {
                    kind: StartKind::Interstitial,
                    ..
                }
            )) > 0
        );
        // Events arrive in nondecreasing time order with nondecreasing
        // cycle ids.
        for w in evs.windows(2) {
            assert!(w[0].t <= w[1].t);
            assert!(w[0].cycle <= w[1].cycle);
        }
        // Metrics agree with the output's own accounting.
        assert_eq!(out.obs.metrics.counter("jobs.finished.native"), 3);
        assert_eq!(
            out.obs.metrics.counter("jobs.started.interstitial"),
            out.interstitial_started
        );
        // Same seed, second run: byte-identical trace and metrics.
        let again = run();
        assert_eq!(out.obs.trace.to_jsonl(), again.obs.trace.to_jsonl());
        assert_eq!(
            out.obs.run_report().to_json_deterministic(),
            again.obs.run_report().to_json_deterministic()
        );
    }

    #[test]
    fn work_counters_populate_and_replay_bitwise() {
        use obs::Obs;
        let jobs = Arc::new(vec![
            native(1, 0, 64, 1000, 1000), // runs immediately
            native(2, 10, 64, 500, 500),  // blocked head, reserved at 1000
            native(3, 20, 16, 400, 400),  // backfill candidate
        ]);
        let run = || {
            SimBuilder::new(tiny_machine())
                .natives_arc(Arc::clone(&jobs))
                .horizon(SimTime::from_secs(30_000))
                .interstitial(
                    InterstitialProject::per_paper(100, 16, 100.0),
                    InterstitialMode::Continual,
                    InterstitialPolicy::default(),
                )
                .observer(Obs::counting())
                .build()
                .run()
        };
        let out = run();
        let w = out.obs.work;
        assert!(w.events_popped > 0);
        assert!(
            w.events_scheduled >= w.events_popped,
            "every pop was scheduled"
        );
        assert!(w.heap_peak_depth > 0);
        assert!(w.sched_cycles > 0);
        // The scheduler counters cover native starts only; interstitial
        // placement happens outside the queue planner.
        assert_eq!(w.starts(), 3);
        assert!(w.backfill_candidates_scanned >= w.sched_cycles.min(3));
        assert!(w.profile_segments_walked > 0);
        assert_eq!(w.requeues, 0, "fault-free run has no churn");
        assert_eq!(w.retries, 0);
        // The counting bundle stays out of the trace buffer entirely.
        assert_eq!(out.obs.trace.recorded(), 0);
        assert_eq!(out.obs.trace.heap_allocations(), 0);
        // Same seed, second run: bitwise-identical counters.
        let again = run();
        assert_eq!(w, again.obs.work);
        assert_eq!(w.to_json(), again.obs.work.to_json());
    }

    #[test]
    fn node_failure_kills_the_native_and_requeues_it_at_the_head() {
        use machine::{FaultModel, NodeFaults, OutageSchedule};
        // One node owns the whole 64-CPU machine and dies over [100, 200).
        // The running native is crashed at t=100, requeued, and restarts
        // the moment the node is repaired; its wait clock spans the outage.
        let faults = FaultModel::none().with_nodes(vec![NodeFaults {
            cpus: 64,
            schedule: OutageSchedule::from_windows(vec![(
                SimTime::from_secs(100),
                SimTime::from_secs(200),
            )]),
        }]);
        let out = SimBuilder::new(tiny_machine())
            .natives(vec![native(1, 0, 64, 500, 600)])
            .horizon(SimTime::from_secs(10_000))
            .faults(faults)
            .build()
            .run();
        let c = out.natives().next().unwrap();
        assert_eq!(c.start, SimTime::from_secs(200), "restarts at repair");
        assert_eq!(c.finish, SimTime::from_secs(700), "full rerun from scratch");
        assert_eq!(
            c.wait(),
            SimDuration::from_secs(200),
            "wait spans the failure"
        );
        assert_eq!(out.faults.node_failures, 1);
        assert_eq!(out.faults.node_repairs, 1);
        assert_eq!(out.faults.native_requeues, 1);
        assert_eq!(out.faults.total_kills(), 1);
        assert!(!out.faults.kills[0].interstitial);
        // 64 CPUs × 100 s of progress discarded.
        assert_eq!(out.faults.ledger.fault_wasted(), 6_400);
    }

    #[test]
    fn node_failure_sacrifices_interstitial_before_native() {
        use machine::{FaultModel, NodeFaults, OutageSchedule};
        // Native holds 32 CPUs [0,1000); two 16-CPU interstitial jobs fill
        // the rest. A 16-CPU node dies at t=50 with zero idle CPUs: the
        // youngest interstitial job is crashed, the native is untouched,
        // and the victim retries (from scratch) once capacity frees up.
        let faults = FaultModel::none().with_nodes(vec![NodeFaults {
            cpus: 16,
            schedule: OutageSchedule::from_windows(vec![(
                SimTime::from_secs(50),
                SimTime::from_secs(20_000),
            )]),
        }]);
        let out = SimBuilder::new(tiny_machine())
            .natives(vec![native(1, 0, 32, 1_000, 1_200)])
            .horizon(SimTime::from_secs(20_000))
            .faults(faults)
            .interstitial(
                InterstitialProject::per_paper(2, 16, 600.0),
                InterstitialMode::Continual,
                InterstitialPolicy::default(),
            )
            .build()
            .run();
        // The native never noticed the failure.
        let n = out.natives().next().unwrap();
        assert_eq!(n.start, SimTime::ZERO);
        assert_eq!(n.finish, SimTime::from_secs(1_000));
        assert_eq!(out.faults.total_kills(), 1);
        assert!(out.faults.kills[0].interstitial);
        assert_eq!(out.faults.native_requeues, 0);
        assert_eq!(out.faults.interstitial_retries, 1);
        // Both interstitial jobs still complete: the survivor finishes at
        // t=600, freeing the CPUs the victim (backoff expired at t=110)
        // restarts on — a fresh 600 s run ending at 1200.
        assert_eq!(out.interstitial_completed(), 2);
        let last = out.interstitials().map(|c| c.finish).max().unwrap();
        assert_eq!(last, SimTime::from_secs(1_200));
        assert_eq!(out.faults.ledger.fault_wasted(), 16 * 50);
    }

    #[test]
    fn retry_exhaustion_abandons_the_job() {
        use crate::policy::RetryPolicy;
        use machine::{FaultModel, NodeFaults, OutageSchedule};
        // A node covering the whole machine fails twice; a 2-attempt budget
        // means the second kill abandons the job for good.
        let faults = FaultModel::none().with_nodes(vec![NodeFaults {
            cpus: 64,
            schedule: OutageSchedule::from_windows(vec![
                (SimTime::from_secs(10), SimTime::from_secs(20)),
                (SimTime::from_secs(100), SimTime::from_secs(110)),
            ]),
        }]);
        let out = SimBuilder::new(tiny_machine())
            .natives(vec![])
            .horizon(SimTime::from_secs(5_000))
            .faults(faults)
            .retry(RetryPolicy {
                base_delay: SimDuration::from_secs(5),
                max_delay: SimDuration::from_secs(5),
                max_attempts: 2,
            })
            .interstitial(
                InterstitialProject::per_paper(1, 64, 1_000.0),
                InterstitialMode::Continual,
                InterstitialPolicy::default(),
            )
            .build()
            .run();
        assert_eq!(out.interstitial_started, 1);
        assert_eq!(out.interstitial_completed(), 0, "both runs were crashed");
        assert_eq!(out.faults.interstitial_retries, 1);
        assert_eq!(out.faults.interstitial_given_up, 1);
        assert_eq!(out.faults.total_kills(), 2);
    }

    #[test]
    fn fault_runs_are_deterministic_and_stamp_schema_v2() {
        use machine::{FaultModel, FaultSpec};
        use obs::Obs;
        let spec = FaultSpec::parse("mtbf=2000,mttr=300,nodes=8,seed=11").unwrap();
        let horizon = SimTime::from_secs(50_000);
        let jobs: Arc<Vec<Job>> = Arc::new(
            (0..40)
                .map(|i| native(i + 1, i * 300, 1 << (i % 6), 400 + i * 11, 600 + i * 11))
                .collect(),
        );
        let run = || {
            SimBuilder::new(tiny_machine())
                .natives_arc(Arc::clone(&jobs))
                .horizon(horizon)
                .faults(FaultModel::synthesize(&spec, 64, horizon))
                .interstitial(
                    InterstitialProject::per_paper(100_000, 8, 150.0),
                    InterstitialMode::Continual,
                    InterstitialPolicy::default(),
                )
                .observer(Obs::enabled())
                .build()
                .run()
        };
        let a = run();
        let b = run();
        assert!(a.faults.node_failures > 0, "spec should inject failures");
        assert_eq!(a.obs.trace.to_jsonl(), b.obs.trace.to_jsonl());
        assert_eq!(a.faults.native_requeues, b.faults.native_requeues);
        assert_eq!(a.faults.interstitial_retries, b.faults.interstitial_retries);
        assert_eq!(
            a.faults.interstitial_given_up,
            b.faults.interstitial_given_up
        );
        assert_eq!(a.faults.total_kills(), b.faults.total_kills());
        assert!(
            a.obs.trace.to_jsonl().starts_with("{\"schema\":2"),
            "fault events upgrade the header"
        );
        // Every native still completes, however battered the machine.
        assert_eq!(a.native_completed(), 40);
    }

    #[test]
    fn shared_native_log_is_not_copied_at_build() {
        let jobs = Arc::new(vec![native(1, 0, 8, 100, 100)]);
        let sim = SimBuilder::new(tiny_machine())
            .natives_arc(Arc::clone(&jobs))
            .horizon(SimTime::from_secs(1_000))
            .build();
        // No oversized jobs → the builder must reuse the shared allocation.
        assert_eq!(Arc::strong_count(&jobs), 2);
        drop(sim);
        // An oversized job forces (only then) a filtered private copy.
        let jobs = Arc::new(vec![native(1, 0, 8, 100, 100), native(2, 0, 10_000, 5, 5)]);
        let sim = SimBuilder::new(tiny_machine())
            .natives_arc(Arc::clone(&jobs))
            .horizon(SimTime::from_secs(1_000))
            .build();
        assert_eq!(Arc::strong_count(&jobs), 1);
        assert_eq!(sim.run().native_submitted, 1);
    }

    #[test]
    fn telemetry_samples_on_cadence_without_perturbing_the_run() {
        use obs::telemetry::{TelemetryBus, DRIVER_SIGNALS};
        let jobs: Arc<Vec<Job>> = Arc::new(
            (0..40)
                .map(|i| native(i + 1, i * 50, 1 << (i % 5), 100 + i * 7, 150 + i * 7))
                .collect(),
        );
        let run = |telemetry: bool| {
            let mut o = Obs::enabled();
            if telemetry {
                o.telemetry = TelemetryBus::enabled(120, DRIVER_SIGNALS);
            }
            SimBuilder::new(tiny_machine())
                .natives_arc(Arc::clone(&jobs))
                .horizon(SimTime::from_secs(50_000))
                .interstitial(
                    InterstitialProject::per_paper(10_000, 8, 120.0),
                    InterstitialMode::Continual,
                    InterstitialPolicy::default(),
                )
                .observer(o)
                .build()
                .run()
        };
        let plain = run(false);
        let sampled = run(true);
        // Telemetry is a pure observer: same completions, byte-identical
        // trace, identical deterministic work counters.
        assert_eq!(plain.completed.len(), sampled.completed.len());
        for (x, y) in plain.completed.iter().zip(sampled.completed.iter()) {
            assert_eq!((x.job.id, x.start, x.finish), (y.job.id, y.start, y.finish));
        }
        assert_eq!(plain.obs.trace.to_jsonl(), sampled.obs.trace.to_jsonl());
        assert_eq!(
            format!("{:?}", plain.obs.work),
            format!("{:?}", sampled.obs.work)
        );
        // The bus sampled the whole run on the cadence grid.
        let bus = &sampled.obs.telemetry;
        assert!(!bus.is_empty());
        assert_eq!(bus.ticks()[0], 0);
        assert!(bus
            .ticks()
            .iter()
            .all(|t| t % bus.effective_cadence_s() == 0));
        let util = bus.values("util_permille").unwrap();
        assert!(util.iter().all(|&u| u <= 1000));
        assert!(util.iter().any(|&u| u > 0), "machine was busy at some tick");
        let frag = bus.values("frag_permille").unwrap();
        assert!(frag.iter().all(|&f| f <= 1000));
        // Per-tick event deltas total the run's event count at the last
        // retained resolution (no decimation here: budget far above ticks).
        assert_eq!(bus.decimations(), 0);
        // Same seed, same config → byte-identical export.
        assert_eq!(bus.to_jsonl(), run(true).obs.telemetry.to_jsonl());
        // Plain bus stayed disabled and recorded nothing.
        assert!(plain.obs.telemetry.is_empty());
        assert_eq!(plain.obs.telemetry.to_jsonl(), "");
    }

    #[test]
    fn slo_watchdog_stamps_v4_breach_and_clear_events() {
        use obs::telemetry::{AnnotationKind, TelemetryBus, DRIVER_SIGNALS};
        // 64-CPU machine: job 2 queues behind job 1 from t=10 to t=1000,
        // so a 60 s cadence catches queue_depth > 0, breaching
        // `queue_depth<=0`; once job 2 starts the queue drains and the
        // rule clears.
        let jobs = Arc::new(vec![
            native(1, 0, 64, 1000, 1000),
            native(2, 10, 64, 500, 500),
        ]);
        let run = |slo: Option<&str>| {
            let mut o = Obs::enabled();
            o.telemetry = TelemetryBus::enabled(60, DRIVER_SIGNALS);
            let mut b = SimBuilder::new(tiny_machine())
                .natives_arc(Arc::clone(&jobs))
                .horizon(SimTime::from_secs(30_000))
                .observer(o);
            if let Some(s) = slo {
                b = b.slo(SloSpec::parse(s).unwrap());
            }
            b.build().run()
        };
        let out = run(Some("queue_depth<=0"));
        let evs = out.obs.trace.events();
        let breach = evs
            .iter()
            .find(|e| matches!(e.kind, EventKind::SloBreach { .. }))
            .expect("a breach fired");
        assert!(matches!(
            breach.kind,
            EventKind::SloBreach {
                rule: 0,
                metric: "queue_depth",
                limit: 0,
                ..
            }
        ));
        let clear = evs
            .iter()
            .find(|e| matches!(e.kind, EventKind::SloClear { .. }))
            .expect("the rule cleared after the queue drained");
        assert!(breach.t < clear.t);
        assert_eq!(out.obs.trace.schema_version(), 4, "SLO events stamp v4");
        // The bus carries matching annotations for the dashboard.
        let anns = out.obs.telemetry.annotations();
        assert!(anns
            .iter()
            .any(|a| a.kind == AnnotationKind::Breach && a.label == "queue_depth"));
        assert!(anns.iter().any(|a| a.kind == AnnotationKind::Clear));
        // Trace time stayed monotone with tick-stamped events interleaved.
        assert!(evs.windows(2).all(|w| w[0].t <= w[1].t));
        // Without --slo the same run stamps the smallest schema.
        let plain = run(None);
        assert_eq!(plain.obs.trace.schema_version(), 1);
        assert!(plain.obs.telemetry.annotations().is_empty());
    }

    /// The census the closed form replaces: build the 24 h free profile and
    /// scan it lane by lane.
    fn census_oracle(running: &RunningSet, now: SimTime, free_now: u32) -> (f64, f64) {
        let profile = running.free_profile(now, free_now, now + SimDuration::from_hours(24));
        analysis::interstices::harvestable_cpu_seconds(&profile, 1, SimDuration::from_hours(1))
    }

    fn oracle_permille(running: &RunningSet, now: SimTime, free_now: u32) -> u64 {
        let (harvest, total) = census_oracle(running, now, free_now);
        if total <= 0.0 {
            return 0;
        }
        let frac = (1.0 - harvest / total).clamp(0.0, 1.0);
        (frac * 1000.0).round() as u64
    }

    fn assert_matches_oracle(running: &RunningSet, now: SimTime, free_now: u32, case: &str) {
        let (harvest, total) = frag_census(running, now, free_now);
        assert_eq!(
            (harvest as f64, total as f64),
            census_oracle(running, now, free_now),
            "{case}: census sums"
        );
        assert_eq!(
            frag_permille(running, now, free_now),
            oracle_permille(running, now, free_now),
            "{case}: permille"
        );
    }

    fn running_job(id: u64, cpus: u32, start: SimTime, estimated_end: SimTime) -> RunningJob {
        RunningJob {
            id,
            cpus,
            start,
            actual_end: estimated_end.max(start),
            estimated_end,
            interstitial: false,
        }
    }

    #[test]
    fn frag_closed_form_matches_the_census_on_edge_cases() {
        let day = SimDuration::from_hours(24);
        for now in [SimTime::ZERO, SimTime::from_secs(30_000_000)] {
            let h = now + day;
            let secs = SimDuration::from_secs;
            // Nothing free, nothing running: no free time at all.
            let empty = RunningSet::new();
            assert_eq!(frag_permille(&empty, now, 0), 0);
            assert_matches_oracle(&empty, now, 0, "empty, free 0");
            assert_matches_oracle(&empty, now, 7, "empty, free 7");
            // A lane freed at exactly H−3600 spans a full hour; one second
            // later it is short.
            for (end, want) in [(h - secs(3_600), 0), (h - secs(3_599), 1000)] {
                let mut rs = RunningSet::new();
                rs.insert(running_job(1, 4, now, end));
                assert_eq!(
                    frag_permille(&rs, now, 0),
                    want,
                    "end H-{}",
                    (h - end).as_secs()
                );
                assert_matches_oracle(&rs, now, 0, "one end near H-3600");
                assert_matches_oracle(&rs, now, 3, "one end near H-3600, free 3");
            }
            // Ends at or after the horizon add nothing.
            let mut rs = RunningSet::new();
            rs.insert(running_job(1, 8, now, h));
            rs.insert(running_job(2, 8, now, h + secs(1)));
            rs.insert(running_job(3, 8, now, h + day));
            assert_eq!(frag_census(&rs, now, 0), (0, 0));
            assert_matches_oracle(&rs, now, 0, "ends at or after H");
            assert_matches_oracle(&rs, now, 5, "ends at or after H, free 5");
            // A job past its estimate frees its CPUs at now+1, not before.
            let start = if now == SimTime::ZERO {
                now
            } else {
                now - secs(500)
            };
            let mut rs = RunningSet::new();
            rs.insert(running_job(1, 16, start, start));
            rs.insert(running_job(2, 2, start, now));
            rs.insert(running_job(3, 1, now, h - secs(1)));
            assert_matches_oracle(&rs, now, 0, "overrun estimates");
            assert_matches_oracle(&rs, now, 1_436, "overrun estimates, free 1436");
        }
    }

    #[test]
    fn frag_closed_form_matches_the_census_on_random_running_sets() {
        use simkit::rng::Rng;
        for seed in 0..60u64 {
            let mut rng = Rng::new(seed);
            let now = match seed % 3 {
                0 => SimTime::ZERO,
                1 => SimTime::from_secs(rng.below(1_000_000)),
                _ => SimTime::from_secs(30_000_000 + rng.below(1_000_000)),
            };
            let h = now + SimDuration::from_hours(24);
            let mut rs = RunningSet::new();
            for id in 0..rng.below(120) {
                let cpus = rng.below(64) as u32 + 1;
                let start = SimTime::from_secs(now.as_secs().saturating_sub(rng.below(5_000)));
                let end = match rng.below(6) {
                    // Overran its estimate: clamped to now+1.
                    0 => start + SimDuration::from_secs(rng.below((now - start).as_secs() + 1)),
                    // Near the short-gap boundary.
                    1 => h - SimDuration::from_secs(3_598 + rng.below(4)),
                    // At or beyond the horizon.
                    2 => h + SimDuration::from_secs(rng.below(3)),
                    // Anywhere in the window's last two hours.
                    3 => h - SimDuration::from_secs(rng.below(7_200) + 1),
                    _ => now + SimDuration::from_secs(rng.below(90_000) + 1),
                };
                rs.insert(running_job(id, cpus, start, end));
            }
            let free_now = if rng.chance(0.2) {
                0
            } else {
                rng.below(1_437) as u32
            };
            assert_matches_oracle(&rs, now, free_now, &format!("seed {seed}"));
        }
    }
}
