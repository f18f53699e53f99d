//! The per-layer measurement of one workload, made by `benchmark-traced`.
//!
//! Traced ops run with the phase profiler on and the counting allocator
//! installed; each is paired with an untraced op on the same replica, and
//! the ratio of their medians is `traced.overhead_pct`. Layers the op does
//! not reach are timed around their own public calls: the running set and
//! event queue replay the op's own job log, the workload and fault
//! generators rebuild the workload's inputs, and the observability layers
//! are measured on the observed Ross replay of the same seed.

use crate::ledger;
use crate::stats::median;
use crate::timed::{attempt, guarded, Outcome};
use crate::workloads::{digest, fault_spec, nanos, Checker, Inputs, Op, Workload, CADENCE_S};
use interstitial::policy::RecoveryPolicy;
use machine::{FaultModel, RunningJob, RunningSet};
use obs::{CycleRecorder, MetricsRegistry, Obs, PhaseProfiler, TelemetryBus, TraceSink};
use simkit::event::EventQueue;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The per-layer metrics, in `BENCHMARK.json` order.
pub const METRICS: [&str; 41] = [
    "core.build_ms",
    "core.run_ms",
    "core.event_pump.self_ms",
    "core.cycle.self_ms",
    "core.other_ms",
    "core.requeues",
    "core.retries",
    "core.checkpoints_taken",
    "core.reexecuted_per_salvaged",
    "core.allocs",
    "core.alloc_mib",
    "core.allocs_per_job",
    "core.peak_heap_kib",
    "sched.order_queue.self_ms",
    "sched.order_queue.calls",
    "sched.backfill.self_ms",
    "sched.cycles",
    "sched.inorder_starts",
    "sched.backfill_starts",
    "sched.candidates_scanned",
    "sched.starts_per_candidate",
    "machine.free_profile.self_ms",
    "machine.profile_segments_walked",
    "machine.fault_synthesize_ms",
    "machine.running_set_ms",
    "simkit.events_popped",
    "simkit.heap_peak_depth",
    "simkit.event_queue_ms",
    "workload.native_trace_ms",
    "workload.swf_emit_ms",
    "workload.swf_parse_ms",
    "obs.trace_jsonl_ms",
    "obs.telemetry_jsonl_ms",
    "obs.trace.overhead_pct",
    "obs.metrics.overhead_pct",
    "obs.profiler.overhead_pct",
    "obs.recorder.overhead_pct",
    "obs.telemetry.overhead_pct",
    "tracekit.summarize_ms",
    "analysis.native_impact_ms",
    "traced.overhead_pct",
];

/// Repetitions of each side measurement (generators, observed ops); each
/// reports its median.
const SIDE_REPS: usize = 5;

/// Repetitions of every rung of the instrument ladder. The cheap rungs
/// differ by a few percent, so they need more samples than the rest.
const LADDER_REPS: usize = 11;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn overhead_pct(with: f64, without: f64) -> f64 {
    (with / without - 1.0) * 100.0
}

/// Collects samples per metric; reports medians.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn medians(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(k, v)| (*k, median(v)))
    }
}

pub fn run(workload: Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let inputs = workload.setup(seed)?;
    let mut checker = Checker::new(workload, seed, inputs.replicas.len())?;
    let mut attempted = 1u64;
    let mut failed = u64::from(attempt(workload, &inputs, 0, true, &mut checker).1.is_err());
    let mut samples = Samples::default();
    let (mut traced_s, mut plain_s) = (Vec::new(), Vec::new());
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed() < budget {
        i += 1;
        let (wall, op) = attempt(workload, &inputs, i, true, &mut checker);
        match op.and_then(|op| guarded(|| op_layers(&inputs, &op, &mut samples))) {
            Ok(()) => traced_s.push(wall.as_secs_f64()),
            Err(e) => {
                eprintln!("{}: traced op {i}: {e}", workload.name());
                failed += 1;
            }
        }
        let (wall, op) = attempt(workload, &inputs, i, false, &mut checker);
        match op {
            Ok(_) => plain_s.push(wall.as_secs_f64()),
            Err(_) => failed += 1,
        }
        attempted += 2;
    }
    samples.push(
        "traced.overhead_pct",
        overhead_pct(median(&traced_s), median(&plain_s)),
    );
    generator_layers(workload, seed, &inputs, &mut samples)?;
    let (obs_attempted, obs_failed) = observability_layers(workload, seed, &inputs, &mut samples)?;
    Ok(Outcome {
        attempted: attempted + obs_attempted,
        failed: failed + obs_failed,
        metrics: samples.medians().collect(),
    })
}

/// The ledger, work counters and allocation tallies of one traced op,
/// summed over its replays, plus the isolated layer replays of its log.
fn op_layers(inputs: &Inputs, op: &Op, samples: &mut Samples) -> Result<(), String> {
    let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut add = |name: &'static str, v: f64| *sums.entry(name).or_default() += v;
    let (mut salvaged, mut reexecuted, mut peak_depth, mut peak_heap) = (0, 0, 0, 0);
    for r in &op.replays {
        let profile = r.out.obs.profiler.snapshot();
        let rows = ledger::self_times(&profile, r.run_ns)?;
        let total: u64 = rows.iter().map(|(_, ns)| ns).sum();
        if total != r.run_ns {
            return Err(format!(
                "ledger sums to {total} ns, the run took {} ns",
                r.run_ns
            ));
        }
        for (row, ns) in rows {
            add(row, ms(ns));
        }
        add("core.build_ms", ms(r.build_ns));
        add("core.run_ms", ms(r.run_ns));
        let w = &r.out.obs.work;
        add("core.requeues", w.requeues as f64);
        add("core.retries", w.retries as f64);
        add("core.checkpoints_taken", w.checkpoints_taken as f64);
        salvaged += w.cpu_s_salvaged;
        reexecuted += w.cpu_s_reexecuted;
        add("sched.cycles", w.sched_cycles as f64);
        add("sched.inorder_starts", w.inorder_starts as f64);
        add("sched.backfill_starts", w.backfill_starts as f64);
        add(
            "sched.candidates_scanned",
            w.backfill_candidates_scanned as f64,
        );
        add(
            "machine.profile_segments_walked",
            w.profile_segments_walked as f64,
        );
        add("simkit.events_popped", w.events_popped as f64);
        peak_depth = peak_depth.max(w.heap_peak_depth);
        let calls = profile.phases.get("order-queue").map_or(0, |p| p.calls);
        add("sched.order_queue.calls", calls as f64);
        add("core.allocs", r.alloc.allocations as f64);
        add("core.alloc_mib", r.alloc.bytes as f64 / (1024.0 * 1024.0));
        peak_heap = peak_heap.max(r.alloc.peak_growth);
    }
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let starts = sums["sched.inorder_starts"] + sums["sched.backfill_starts"];
    let derived = [
        (
            "core.reexecuted_per_salvaged",
            ratio(reexecuted as f64, salvaged as f64),
        ),
        (
            "core.allocs_per_job",
            ratio(sums["core.allocs"], op.jobs() as f64),
        ),
        ("core.peak_heap_kib", peak_heap as f64 / 1024.0),
        (
            "sched.starts_per_candidate",
            ratio(starts, sums["sched.candidates_scanned"]),
        ),
        ("simkit.heap_peak_depth", peak_depth as f64),
        (
            "machine.running_set_ms",
            running_set_replay(inputs, &op.replays[0].out),
        ),
        (
            "simkit.event_queue_ms",
            event_queue_replay(&op.replays[0].out),
        ),
    ];
    for (name, v) in sums.into_iter().chain(derived) {
        samples.push(name, v);
    }
    Ok(())
}

/// The op's start/finish log replayed through the public `RunningSet`
/// calls the simulator makes: `insert` and `remove`, and at each start an
/// `indexed_profile` view asked for the job's slot. Milliseconds.
fn running_set_replay(inputs: &Inputs, out: &interstitial::SimOutput) -> f64 {
    // Finishes sort before starts at the same instant, as the simulator frees
    // CPUs before it schedules.
    let mut events: Vec<(u64, bool, usize)> = out
        .completed
        .iter()
        .enumerate()
        .filter(|(_, c)| c.finish > c.start)
        .flat_map(|(i, c)| [(c.start.as_secs(), true, i), (c.finish.as_secs(), false, i)])
        .collect();
    events.sort_unstable();
    let cpus = inputs.machine.cpus;
    let t = Instant::now();
    let mut running = RunningSet::new();
    for (_, is_start, i) in events {
        let c = &out.completed[i];
        if is_start {
            let estimate = c.job.planning_estimate();
            let free = cpus.saturating_sub(running.cpus_in_use());
            let mut view =
                running.indexed_profile(c.start, free, c.start + sched::backfill::LOOKAHEAD);
            black_box(view.find_slot(c.start, i64::from(c.job.cpus), estimate));
            running.insert(RunningJob {
                id: c.job.id,
                cpus: c.job.cpus,
                start: c.start,
                actual_end: c.finish,
                estimated_end: c.start + estimate,
                interstitial: c.job.class.is_interstitial(),
            });
        } else {
            black_box(running.remove(c.job.id));
        }
    }
    ms(nanos(t))
}

/// The op's arrival and finish instants replayed through the public
/// `EventQueue` calls: every arrival scheduled up front, as the simulator
/// seeds them, and each job's finish scheduled when its arrival pops.
/// Milliseconds.
fn event_queue_replay(out: &interstitial::SimOutput) -> f64 {
    let jobs = &out.completed;
    let t = Instant::now();
    let mut q = EventQueue::with_capacity(jobs.len() * 2);
    for (i, c) in jobs.iter().enumerate() {
        q.schedule(c.job.submit, (i, false));
    }
    while let Some((_, (i, finished))) = q.pop() {
        if !finished {
            q.schedule(jobs[i].finish, (i, true));
        }
        black_box(i);
    }
    ms(nanos(t))
}

fn timed_ms<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    black_box(f());
    ms(nanos(t))
}

/// Input generation, timed per generator: the workload's native log, its
/// SWF round trip and the CI node-fault model over its horizon.
fn generator_layers(
    workload: Workload,
    seed: u64,
    inputs: &Inputs,
    samples: &mut Samples,
) -> Result<(), String> {
    let rep = &inputs.replicas[0];
    let cpus = inputs.machine.cpus;
    for _ in 0..SIDE_REPS {
        samples.push(
            "workload.native_trace_ms",
            timed_ms(|| workload.base_log(seed)),
        );
        let t = Instant::now();
        let text = workload::swf::emit(&rep.natives, "");
        samples.push("workload.swf_emit_ms", ms(nanos(t)));
        let t = Instant::now();
        black_box(workload::swf::parse(&text, true).map_err(|e| e.to_string())?);
        samples.push("workload.swf_parse_ms", ms(nanos(t)));
        samples.push(
            "machine.fault_synthesize_ms",
            timed_ms(|| FaultModel::synthesize(&fault_spec(seed), cpus, rep.horizon)),
        );
    }
    Ok(())
}

/// Export and analysis timings of the observed Ross op, and the instrument
/// ladder: the Ross replay with work counters only, then with each
/// instrument alone. Every ladder replay must give the observed op's
/// schedule. Returns (ops attempted, ops failed).
fn observability_layers(
    workload: Workload,
    seed: u64,
    inputs: &Inputs,
    samples: &mut Samples,
) -> Result<(u64, u64), String> {
    let own;
    let ross = if workload == Workload::RossObserved {
        inputs
    } else {
        own = Workload::RossObserved.setup(seed)?;
        &own
    };
    let mut checker = Checker::new(Workload::RossObserved, seed, ross.replicas.len())?;
    let mut failed = 0;
    let mut reference = None;
    for _ in 0..SIDE_REPS {
        match attempt(Workload::RossObserved, ross, 0, false, &mut checker).1 {
            Ok(op) => {
                reference = Some(op.digest());
                let post = op.post.as_ref().expect("the observed op post-processes");
                samples.push("obs.trace_jsonl_ms", ms(post.trace_jsonl_ns));
                samples.push("obs.telemetry_jsonl_ms", ms(post.telemetry_jsonl_ns));
                samples.push("tracekit.summarize_ms", ms(post.summarize_ns));
                samples.push("analysis.native_impact_ms", ms(post.impact_ns));
            }
            Err(_) => failed += 1,
        }
    }
    let reference = reference.ok_or("every observed Ross op failed")?;

    type Rung = (&'static str, fn(&mut Obs));
    let rungs: [Rung; 6] = [
        ("counting", |_| {}),
        ("obs.trace.overhead_pct", |o| o.trace = TraceSink::enabled()),
        ("obs.metrics.overhead_pct", |o| {
            o.metrics = MetricsRegistry::enabled()
        }),
        ("obs.profiler.overhead_pct", |o| {
            o.profiler = PhaseProfiler::enabled()
        }),
        ("obs.recorder.overhead_pct", |o| {
            o.recorder = CycleRecorder::enabled()
        }),
        ("obs.telemetry.overhead_pct", |o| {
            o.telemetry = TelemetryBus::enabled(CADENCE_S, obs::telemetry::DRIVER_SIGNALS)
        }),
    ];
    let mut wall: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    // Round-robin over the rungs, so a slow spell of the host lands on all.
    for _ in 0..LADDER_REPS {
        for (name, enable) in rungs {
            let mut o = Obs::counting();
            enable(&mut o);
            let b = Workload::RossObserved.builder(ross, 0, RecoveryPolicy::KillRestart, o);
            let t = Instant::now();
            let out = guarded(|| Ok(b.build().run()));
            wall.entry(name).or_default().push(ms(nanos(t)));
            match out {
                Ok(out) if digest([&out]) == reference => {}
                Ok(_) => {
                    eprintln!("ross ladder: {name} changed the schedule");
                    failed += 1;
                }
                Err(e) => {
                    eprintln!("ross ladder: {name}: {e}");
                    failed += 1;
                }
            }
        }
    }
    let base = median(&wall["counting"]);
    for (name, _) in &rungs[1..] {
        samples.push(name, overhead_pct(median(&wall[name]), base));
    }
    Ok(((SIDE_REPS + LADDER_REPS * rungs.len()) as u64, failed))
}
