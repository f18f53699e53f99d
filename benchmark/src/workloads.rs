//! The four workloads: the inputs each builds from the seed in set-up, and
//! the op the benchmark times — one full-log replay, or three for the
//! faulted workload — with the checks that decide whether an op failed.

use crate::alloc::{AllocDelta, Window};
use analysis::metrics::NativeImpact;
use interstitial::policy::RecoveryPolicy;
use interstitial::prelude::*;
use machine::{FaultModel, FaultSpec, MachineConfig};
use obs::{CycleRecorder, Obs, PhaseProfiler, SloSpec, TelemetryBus};
use simkit::rng::Rng;
use simkit::time::{SimDuration, SimTime};
use std::sync::Arc;
use std::time::Instant;
use workload::{swf, Job, JobClass};

/// The seed the digests in `pins.json` are pinned for: the calibration
/// seed of the repository's golden traces and `BENCH_*.json` baselines.
pub const DEFAULT_SEED: u64 = 20_030_901;

/// Distinct inputs one run cycles through. Host time of one full-log replay
/// depends on the input: Blue Pacific replicas of the same log differ by up
/// to 30%, and fresh logs from other generator seeds by 3.5×. Spreading each
/// run's ops over eight replicas keeps a run's median a property of the
/// code, not of the one input the seed happened to draw.
pub const REPLICAS: usize = 8;

/// Upper bound (exclusive) of the per-job submit-time perturbation that
/// makes one replica of a calibrated log, in seconds.
const JITTER_S: u64 = 60;

/// Jobs in the synthetic SWF log.
const SWF_JOBS: u64 = 100_000;

/// The node-fault spec of the repository's CI fault-replay job.
const MTBF_S: u64 = 172_800;
const MTTR_S: u64 = 7_200;
const FAULT_NODES: u32 = 16;

/// Checkpoint interval of the faulted workload's second replay.
const CKPT_S: u64 = 300;

/// Telemetry cadence and SLO rules of the observed workload.
pub const CADENCE_S: u64 = 300;
const SLO: &str = "native_p99_wait<=14400,util>=0.05";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BluePacificFull,
    Swf100k,
    BlueMountainFaulted,
    RossObserved,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BluePacificFull,
        Workload::Swf100k,
        Workload::BlueMountainFaulted,
        Workload::RossObserved,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BluePacificFull => "blue_pacific_full",
            Workload::Swf100k => "swf_100k",
            Workload::BlueMountainFaulted => "blue_mountain_faulted",
            Workload::RossObserved => "ross_observed",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn machine(self) -> MachineConfig {
        match self {
            Workload::BluePacificFull => machine::config::blue_pacific(),
            Workload::BlueMountainFaulted => machine::config::blue_mountain(),
            Workload::Swf100k | Workload::RossObserved => machine::config::ross(),
        }
    }

    /// The native log the workload's replicas derive from: the machine's
    /// calibrated Table 1 log, or for `swf_100k` a fresh synthetic log.
    pub fn base_log(self, seed: u64) -> Vec<Job> {
        match self {
            Workload::Swf100k => synthesize_swf_jobs(seed),
            _ => workload::traces::native_trace(&self.machine(), DEFAULT_SEED),
        }
    }

    /// Build every input the ops consume.
    pub fn setup(self, seed: u64) -> Result<Inputs, String> {
        let machine = self.machine();
        let base = self.base_log(seed);
        let replicas = if self == Workload::Swf100k {
            // A 10⁵-job log drawn fresh from the seed is already a large
            // sample of its generator: one input suffices.
            let text = swf::emit(&base, "synthetic 100k-job log");
            let natives = swf::parse(&text, true).map_err(|e| e.to_string())?;
            let horizon = last_submit(&natives) + SimDuration::from_secs(400_000);
            vec![Replica {
                natives: Arc::new(natives),
                horizon,
                faults: FaultModel::none(),
            }]
        } else {
            let root = Rng::new(seed);
            (0..REPLICAS as u64)
                .map(|r| {
                    let mut rng = root.split(r);
                    let natives = jitter(&base, &mut rng);
                    let horizon = last_submit(&natives) + SimDuration::from_secs(86_400);
                    let faults = if self == Workload::BlueMountainFaulted {
                        FaultModel::synthesize(&fault_spec(rng.next_u64()), machine.cpus, horizon)
                    } else {
                        FaultModel::none()
                    };
                    Replica {
                        natives: Arc::new(natives),
                        horizon,
                        faults,
                    }
                })
                .collect()
        };
        Ok(Inputs {
            machine,
            replicas,
            slo: SloSpec::parse(SLO)?,
        })
    }

    /// The recovery policy of each replay in one op.
    fn recoveries(self) -> &'static [RecoveryPolicy] {
        const KILL: &[RecoveryPolicy] = &[RecoveryPolicy::KillRestart];
        const ALL: &[RecoveryPolicy] = &[
            RecoveryPolicy::KillRestart,
            RecoveryPolicy::Checkpoint {
                interval: SimDuration::from_secs(CKPT_S),
            },
            RecoveryPolicy::SuspendResume,
        ];
        if self == Workload::BlueMountainFaulted {
            ALL
        } else {
            KILL
        }
    }

    /// The observability bundle of the op's replays. `profiled` adds the
    /// phase profiler the traced binary reads its layer ledger from.
    fn observer(self, profiled: bool) -> Obs {
        let mut o = if self == Workload::RossObserved {
            let mut o = Obs::enabled();
            o.recorder = CycleRecorder::enabled();
            o.telemetry = TelemetryBus::enabled(CADENCE_S, obs::telemetry::DRIVER_SIGNALS);
            o
        } else {
            Obs::counting()
        };
        if profiled {
            o.profiler = PhaseProfiler::enabled();
        }
        o
    }

    /// A configured replay of `replica`.
    pub fn builder(
        self,
        inputs: &Inputs,
        replica: usize,
        recovery: RecoveryPolicy,
        observer: Obs,
    ) -> SimBuilder {
        let rep = &inputs.replicas[replica];
        let mut b = SimBuilder::new(inputs.machine.clone())
            .natives_arc(Arc::clone(&rep.natives))
            .horizon(rep.horizon)
            .observer(observer);
        if self != Workload::Swf100k {
            // The canonical continual stream: an eighth of the machine per
            // job, one hour at 1 GHz, never running out.
            let project = InterstitialProject::per_paper(
                u64::MAX / 2,
                (inputs.machine.cpus / 8).max(1),
                3_600.0,
            );
            b = b.interstitial(
                project,
                InterstitialMode::Continual,
                InterstitialPolicy::default(),
            );
        }
        if self == Workload::BlueMountainFaulted {
            b = b.faults(rep.faults.clone()).recovery(recovery);
        }
        if self == Workload::RossObserved {
            b = b.slo(inputs.slo.clone());
        }
        b
    }

    /// One op on replica `i mod replicas`: build and run each replay, then
    /// for `ross_observed` export and analyse the observed run.
    pub fn op(self, inputs: &Inputs, i: usize, profiled: bool) -> Op {
        let replica = i % inputs.replicas.len();
        let replays = self
            .recoveries()
            .iter()
            .map(|&recovery| {
                let b = self.builder(inputs, replica, recovery, self.observer(profiled));
                timed_replay(b)
            })
            .collect::<Vec<_>>();
        let post = (self == Workload::RossObserved).then(|| post_process(&replays[0].out));
        Op {
            replica,
            replays,
            post,
        }
    }
}

/// Inputs built in set-up.
pub struct Inputs {
    pub machine: MachineConfig,
    pub replicas: Vec<Replica>,
    slo: SloSpec,
}

/// One replica: a native log, its horizon and its node-fault model.
pub struct Replica {
    pub natives: Arc<Vec<Job>>,
    pub horizon: SimTime,
    pub faults: FaultModel,
}

/// One replay inside an op, timed around the calls into `core`.
pub struct Replay {
    pub out: SimOutput,
    pub build_ns: u64,
    pub run_ns: u64,
    /// Allocator activity inside `Simulator::run` (zeros in the timed binary).
    pub alloc: AllocDelta,
}

/// Export and analysis of an observed replay, timed per layer.
pub struct Post {
    pub trace_jsonl_ns: u64,
    pub telemetry_jsonl_ns: u64,
    pub summarize_ns: u64,
    pub impact_ns: u64,
    /// Disagreements between the exports and the job log.
    pub problems: Vec<String>,
}

pub struct Op {
    pub replica: usize,
    pub replays: Vec<Replay>,
    pub post: Option<Post>,
}

impl Op {
    /// Jobs completed, native and interstitial, over the op's replays.
    pub fn jobs(&self) -> u64 {
        self.replays
            .iter()
            .map(|r| r.out.completed.len() as u64)
            .sum()
    }

    /// The schedule digest of the op: FNV-1a over every replay's completed
    /// `(id, start, finish)` triples, interstitial starts and native
    /// submissions.
    pub fn digest(&self) -> u64 {
        digest(self.replays.iter().map(|r| &r.out))
    }
}

fn timed_replay(b: SimBuilder) -> Replay {
    let t0 = Instant::now();
    let sim = b.build();
    let build_ns = nanos(t0);
    let window = Window::open();
    let t1 = Instant::now();
    let out = sim.run();
    let run_ns = nanos(t1);
    Replay {
        out,
        build_ns,
        run_ns,
        alloc: window.close(),
    }
}

fn post_process(out: &SimOutput) -> Post {
    let mut problems = Vec::new();
    let t = Instant::now();
    let trace = out.obs.trace.to_jsonl();
    let trace_jsonl_ns = nanos(t);
    let t = Instant::now();
    let telemetry = out.obs.telemetry.to_jsonl();
    let telemetry_jsonl_ns = nanos(t);
    let t = Instant::now();
    let summary = tracekit::read_all(&trace).map(|(meta, events, stats)| {
        let mut s = tracekit::Summarizer::new(meta.cpus);
        for ev in &events {
            s.observe(ev);
        }
        (s.finish(), stats)
    });
    let summarize_ns = nanos(t);
    let t = Instant::now();
    let impact = NativeImpact::of(&out.completed);
    let impact_ns = nanos(t);

    let natives = out.native_completed();
    match summary {
        Err(e) => problems.push(format!("tracekit cannot read the trace: {e}")),
        Ok((sum, stats)) => {
            if stats.corrupt > 0 {
                problems.push(format!("{} corrupt trace lines", stats.corrupt));
            }
            if sum.native_finishes != natives || sum.inter_finishes != out.interstitial_completed()
            {
                problems.push(format!(
                    "trace summary counts {}+{} finishes, the job log {}+{}",
                    sum.native_finishes,
                    sum.inter_finishes,
                    natives,
                    out.interstitial_completed()
                ));
            }
        }
    }
    if impact.all.count != natives {
        problems.push(format!(
            "impact panel covers {} of {natives} natives",
            impact.all.count
        ));
    }
    if telemetry.lines().count() < 2 {
        problems.push("telemetry export holds no samples".to_string());
    }
    Post {
        trace_jsonl_ns,
        telemetry_jsonl_ns,
        summarize_ns,
        impact_ns,
        problems,
    }
}

/// Decides whether an op failed. At [`DEFAULT_SEED`] each replica's digest
/// must equal its pin; at other seeds, the digest of the replica's first op.
pub struct Checker {
    workload: Workload,
    expected: Vec<Option<u64>>,
}

impl Checker {
    pub fn new(workload: Workload, seed: u64, replicas: usize) -> Result<Checker, String> {
        let expected = if seed == DEFAULT_SEED {
            let pins = crate::spec::pinned_digests(workload.name())?;
            if pins.len() != replicas {
                return Err(format!(
                    "{}: {} digests pinned for {replicas} replicas; re-pin with `benchmark pin`",
                    workload.name(),
                    pins.len()
                ));
            }
            pins.into_iter().map(Some).collect()
        } else {
            vec![None; replicas]
        };
        Ok(Checker { workload, expected })
    }

    pub fn check(&mut self, op: &Op) -> Result<(), String> {
        let digest = op.digest();
        match &mut self.expected[op.replica] {
            Some(want) if *want != digest => {
                return Err(format!(
                    "replica {}: schedule digest {digest:016x}, expected {want:016x}",
                    op.replica
                ))
            }
            slot => *slot = Some(digest),
        }
        if let Some(post) = &op.post {
            if let Some(p) = post.problems.first() {
                return Err(p.clone());
            }
        }
        if self.workload == Workload::Swf100k {
            check_swf_invariants(&op.replays[0].out)?;
        }
        Ok(())
    }
}

/// Every job of the SWF log completes, runs exactly its runtime and never
/// starts before its submission.
fn check_swf_invariants(out: &SimOutput) -> Result<(), String> {
    if out.native_completed() != SWF_JOBS {
        return Err(format!(
            "{} of {SWF_JOBS} jobs completed",
            out.native_completed()
        ));
    }
    for c in out.natives() {
        if c.start < c.job.submit {
            return Err(format!("job {} started before its submission", c.job.id));
        }
        if c.finish - c.start != c.job.runtime {
            return Err(format!("job {} ran the wrong duration", c.job.id));
        }
    }
    Ok(())
}

pub fn digest<'a>(outs: impl IntoIterator<Item = &'a SimOutput>) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    };
    for out in outs {
        for c in &out.completed {
            eat(c.job.id);
            eat(c.start.as_secs());
            eat(c.finish.as_secs());
        }
        eat(out.interstitial_started);
        eat(out.native_submitted);
    }
    h
}

pub fn fault_spec(seed: u64) -> FaultSpec {
    FaultSpec {
        mtbf: SimDuration::from_secs(MTBF_S),
        mttr: SimDuration::from_secs(MTTR_S),
        nodes: FAULT_NODES,
        seed,
    }
}

/// A replica of `base`: every submit time shifted later by up to
/// [`JITTER_S`], re-sorted into submission order. The log keeps its jobs,
/// shapes and load; only the instants — and so the schedule — change.
fn jitter(base: &[Job], rng: &mut Rng) -> Vec<Job> {
    let mut jobs = base.to_vec();
    for j in &mut jobs {
        j.submit += SimDuration::from_secs(rng.below(JITTER_S));
    }
    jobs.sort_by_key(|j| (j.submit, j.id));
    jobs
}

fn last_submit(jobs: &[Job]) -> SimTime {
    jobs.iter().map(|j| j.submit).max().unwrap_or(SimTime::ZERO)
}

/// A 10⁵-job log shaped like the repository's SWF stress fixture: about
/// 70% offered load on Ross, short queues, a fifth of the estimates too low.
fn synthesize_swf_jobs(seed: u64) -> Vec<Job> {
    let mut rng = Rng::new(seed);
    let mut jobs = Vec::with_capacity(SWF_JOBS as usize);
    let mut at = 0u64;
    for id in 1..=SWF_JOBS {
        at += rng.below(8);
        let cpus = rng.range_u64(1, 17) as u32;
        let runtime = rng.range_u64(50, 950);
        let estimate = if rng.chance(0.2) {
            (runtime / 3).max(1)
        } else {
            runtime * rng.range_u64(1, 6)
        };
        jobs.push(Job {
            id,
            class: JobClass::Native,
            user: (id % 41) as u32,
            group: (id % 7) as u32,
            submit: SimTime::from_secs(at),
            cpus,
            runtime: SimDuration::from_secs(runtime),
            estimate: SimDuration::from_secs(estimate),
        });
    }
    jobs
}

pub fn nanos(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
