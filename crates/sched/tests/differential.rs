//! The differential harness pinning the indexed planner to the naive one.
//!
//! The scheduler plans every cycle on the incrementally maintained
//! [`EndIndex`](machine::EndIndex); under `check-invariants` each cycle
//! also replans on the O(n) [`StepFunction`](simkit::series::StepFunction)
//! profile rebuilt from every running job and asserts the two plans are
//! equal (`sched::invariants::check_planner_equivalence`). This harness
//! drives that checked scheduler through seeded random workloads — bursty
//! arrivals, mid-run kills with head-of-queue requeue, and fault-style
//! capacity drops — so every dispatch decision, head reservation and
//! `candidates_scanned` tally is compared cycle by cycle; a divergence
//! panics inside `drive`.
//!
//! Scenarios are a pure function of the fixed seeds below, so a failure
//! replays exactly from its `(preset, policy, seed)` label.

#![cfg(feature = "check-invariants")]

use machine::{MachineConfig, RunningJob, RunningSet};
use sched::backfill::LOOKAHEAD;
use sched::{BackfillPolicy, Scheduler};
use simkit::rng::Rng;
use simkit::time::{SimDuration, SimTime};
use workload::{Job, JobClass};

const SEEDS: [u64; 5] = [11, 23, 37, 41, 59];

/// Workload shape: how many jobs and how bunched their arrivals are. The
/// equivalence sweep uses a light mix; the heavy mix's large running set
/// and long queues are where the planner issues the most queries.
#[derive(Clone, Copy)]
struct Load {
    jobs: u64,
    arrival_spread: u64,
}

const LIGHT: Load = Load {
    jobs: 80,
    arrival_spread: 400,
};
const HEAVY: Load = Load {
    jobs: 400,
    arrival_spread: 40,
};

fn presets() -> [MachineConfig; 3] {
    [
        machine::config::ross(),
        machine::config::blue_mountain(),
        machine::config::blue_pacific(),
    ]
}

fn policies() -> [BackfillPolicy; 4] {
    [
        BackfillPolicy::None,
        BackfillPolicy::Easy,
        BackfillPolicy::Conservative,
        BackfillPolicy::Restrictive { depth: 5 },
    ]
}

/// One recorded scheduling cycle: when it ran, which job ids it started,
/// and the head reservation `(job, start)` it held, if any.
#[derive(Debug, PartialEq)]
struct Cycle {
    now: u64,
    started: Vec<u64>,
    reservation: Option<(u64, u64)>,
}

/// Everything observable about one mini-simulation: the full dispatch
/// history plus the scheduler's deterministic work counters.
#[derive(Debug, Default, PartialEq)]
struct Trace {
    /// Cycles that started something or held a reservation.
    cycles: Vec<Cycle>,
    inorder_starts: u64,
    backfill_starts: u64,
    candidates_scanned: u64,
}

/// A seeded workload: jobs, kill instants, and a capacity timeline that
/// dips (fault-style degraded capacity) and always recovers to full.
struct Workload {
    jobs: Vec<Job>,
    kills: Vec<u64>,
    capacity: Vec<(u64, u32)>,
}

fn generate(cfg: &MachineConfig, seed: u64, load: Load) -> Workload {
    let mut rng = Rng::new(seed ^ (u64::from(cfg.cpus) << 20));
    let mut jobs = Vec::new();
    let mut at = 0u64;
    for id in 1..=load.jobs {
        at += rng.below(load.arrival_spread);
        // Mostly small jobs with occasional near-machine-size blockers, so
        // the head blocks and backfill actually has to plan.
        let cpus = if rng.chance(0.15) {
            rng.range_u64(u64::from(cfg.cpus) / 2, u64::from(cfg.cpus)) as u32
        } else {
            rng.range_u64(1, (u64::from(cfg.cpus) / 8).max(2)) as u32
        };
        let runtime = rng.range_u64(100, 30_000);
        // A quarter of the jobs overrun their estimate, exercising the
        // `end ≤ now` clamp in both profile representations.
        let estimate = if rng.chance(0.25) {
            (runtime / 4).max(1)
        } else {
            runtime * rng.range_u64(1, 5)
        };
        jobs.push(Job {
            id,
            class: JobClass::Native,
            user: (id % 7) as u32,
            group: (id % 3) as u32,
            submit: SimTime::from_secs(at),
            cpus,
            runtime: SimDuration::from_secs(runtime),
            estimate: SimDuration::from_secs(estimate),
        });
    }
    let span = at + 40_000;
    let kills = (0..rng.below(6)).map(|_| rng.below(span)).collect();
    // Capacity drops: full → degraded → … → always back to full, so every
    // queued job eventually fits and the run drains.
    let mut capacity = vec![(0u64, cfg.cpus)];
    let mut t = 0;
    for _ in 0..rng.below(4) {
        t += rng.range_u64(1_000, span / 2);
        let cap = cfg.cpus - (cfg.cpus / 8) * (rng.below(3) as u32);
        capacity.push((t, cap));
    }
    capacity.push((t + rng.range_u64(1_000, 10_000), cfg.cpus));
    Workload {
        jobs,
        kills,
        capacity,
    }
}

/// Drive one scheduler through the workload, recording every observable
/// decision. The loop is a miniature of the core driver: finish, kill,
/// submit, cycle — with self-poking so a temporarily starved queue drains
/// once capacity recovers.
fn drive(cfg: &MachineConfig, policy: BackfillPolicy, seed: u64, load: Load) -> Trace {
    let w = generate(cfg, seed, load);
    let mut s = Scheduler::for_machine(cfg);
    s.backfill = policy;

    let cap_at = |t: u64| {
        w.capacity
            .iter()
            .rev()
            .find(|&&(at, _)| at <= t)
            .map(|&(_, c)| c)
            .unwrap_or(cfg.cpus)
    };

    let mut originals: std::collections::BTreeMap<u64, Job> =
        w.jobs.iter().map(|j| (j.id, *j)).collect();
    let mut pending: Vec<Job> = w.jobs.clone();
    pending.sort_by_key(|j| (j.submit, j.id));
    let mut pending = std::collections::VecDeque::from(pending);
    let mut kills: std::collections::VecDeque<u64> = {
        let mut k = w.kills.clone();
        k.sort_unstable();
        k.into()
    };

    let mut events: std::collections::BTreeSet<u64> =
        pending.iter().map(|j| j.submit.as_secs()).collect();
    events.extend(kills.iter().copied());
    events.extend(w.capacity.iter().map(|&(t, _)| t));

    let mut rs = RunningSet::new();
    let mut trace = Trace::default();
    let mut steps = 0u32;
    while let Some(&now_s) = events.iter().next() {
        events.remove(&now_s);
        steps += 1;
        assert!(steps < 50_000, "mini-driver failed to drain");
        let now = SimTime::from_secs(now_s);

        let done: Vec<u64> = rs
            .iter()
            .filter(|j| j.actual_end <= now)
            .map(|j| j.id)
            .collect();
        for id in done {
            rs.remove(id);
            s.charge_finish(now, &originals[&id]);
        }
        while kills.front().is_some_and(|&k| k <= now_s) {
            kills.pop_front();
            // Deterministic victim: the lowest-id running job.
            let victim = rs.iter().map(|j| j.id).next();
            if let Some(victim) = victim {
                rs.remove(victim);
                s.requeue_front(originals[&victim]);
            }
        }
        while pending.front().is_some_and(|j| j.submit <= now) {
            let j = pending.pop_front().expect("front checked");
            s.submit(j);
        }

        let free = cap_at(now_s).saturating_sub(rs.cpus_in_use());
        let starts = s.cycle(now, free, &rs, true);
        for j in &starts {
            rs.insert(RunningJob {
                id: j.id,
                cpus: j.cpus,
                start: now,
                actual_end: now + j.runtime.max(SimDuration::from_secs(1)),
                estimated_end: now + j.estimate.max(SimDuration::from_secs(1)),
                interstitial: false,
            });
            events.insert((now + j.runtime.max(SimDuration::from_secs(1))).as_secs());
            originals.insert(j.id, *j);
        }
        let res = s.head_reservation().map(|r| (r.job_id, r.start.as_secs()));
        if !starts.is_empty() || res.is_some() {
            trace.cycles.push(Cycle {
                now: now_s,
                started: starts.iter().map(|j| j.id).collect(),
                reservation: res,
            });
        }
        // Starved queue (capacity dip, everything blocked): poke ahead so
        // the run always terminates with an empty queue.
        if events.is_empty() && !(s.queue_is_empty() && pending.is_empty()) {
            events.insert(now_s + 300);
        }
    }
    assert!(s.queue_is_empty(), "queue must drain");
    assert!(rs.is_empty(), "running set must drain");

    let c = s.counters();
    trace.inorder_starts = c.inorder_starts;
    trace.backfill_starts = c.backfill_starts;
    trace.candidates_scanned = c.backfill_candidates_scanned;
    trace
}

/// The headline sweep: over every preset × policy × seed combination
/// (60 ≥ 50), every cycle's indexed plan equals the naive reference —
/// `drive` panics on the first divergence.
#[test]
fn naive_and_indexed_paths_are_equivalent() {
    let mut combos = 0u32;
    let mut cycles = 0usize;
    for cfg in presets() {
        for policy in policies() {
            for seed in SEEDS {
                combos += 1;
                cycles += drive(&cfg, policy, seed, LIGHT).cycles.len();
            }
        }
    }
    assert!(combos >= 50, "acceptance bar: ≥50 combos, got {combos}");
    assert!(cycles > 0, "the sweep never dispatched or reserved");
}

/// Bunched arrivals and long queues — the regime where the planner issues
/// the most queries per cycle — still decide identically on both profiles.
#[test]
fn heavy_load_decides_identically() {
    for cfg in presets() {
        for seed in &SEEDS[..2] {
            let t = drive(&cfg, BackfillPolicy::Easy, *seed, HEAVY);
            assert!(t.backfill_starts > 0, "{} / seed {seed}", cfg.name);
        }
    }
}

/// One scheduling cycle against `n` running jobs with a fixed 20-job queue:
/// `(naive, indexed)` walk tallies. The indexed tally is what the scheduler
/// charges to `profile_segments_walked`; the naive one is the size of the
/// reference profile rebuilt from every running job.
fn one_cycle_walk_cost(n: u64) -> (u64, u64) {
    let mut s = Scheduler::lsf();
    let mut rs = RunningSet::new();
    for i in 0..n {
        rs.insert(RunningJob {
            id: 10_000 + i,
            cpus: 1,
            start: SimTime::ZERO,
            actual_end: SimTime::from_secs(1_000 + 7 * i),
            estimated_end: SimTime::from_secs(1_000 + 7 * i),
            interstitial: false,
        });
    }
    let free = 8u32;
    let mk = |id: u64, cpus: u32, est: u64| Job {
        id,
        class: JobClass::Native,
        user: (id % 5) as u32,
        group: 0,
        submit: SimTime::ZERO,
        cpus,
        runtime: SimDuration::from_secs(est),
        estimate: SimDuration::from_secs(est),
    };
    // Head needs the whole drained machine → blocked with a far reservation;
    // the rest are candidates of assorted shapes.
    s.submit(mk(1, n as u32 + free, 5_000));
    for id in 2..=20 {
        s.submit(mk(id, 1 + (id % 6) as u32, 200 + id * 37));
    }
    let now = SimTime::from_secs(500);
    let naive = rs.free_profile(now, free, now + LOOKAHEAD).segment_count() as u64;
    s.cycle(now, free, &rs, true);
    (naive, s.counters().profile_segments_walked)
}

/// The index's complexity claim, measured: quadrupling the running set
/// quadruples (≈) the naive walk tally — the per-cycle O(n) profile
/// rebuild — while the indexed tally, which only pays per overlay piece
/// examined, stays flat and lands far below. This is the "feasibility
/// checks no longer scale with running-job count" property the BENCH
/// baselines pin end-to-end.
#[test]
fn index_walk_cost_does_not_scale_with_running_set() {
    let (small, big) = (200u64, 800u64);
    let (naive_small, indexed_small) = one_cycle_walk_cost(small);
    let (naive_big, indexed_big) = one_cycle_walk_cost(big);
    assert!(
        naive_big >= naive_small * 3,
        "naive walk should scale with n: {naive_small} -> {naive_big}"
    );
    assert!(
        indexed_big <= indexed_small * 2,
        "indexed walk must not scale with n: {indexed_small} -> {indexed_big}"
    );
    assert!(
        indexed_big < naive_big,
        "at n={big} the index must walk less ({indexed_big} vs {naive_big})"
    );
}

/// Re-running one combo gives bitwise-identical traces — the harness
/// itself is deterministic, so any failure above is a real divergence.
#[test]
fn harness_is_deterministic() {
    let cfg = machine::config::ross();
    let a = drive(&cfg, BackfillPolicy::Easy, SEEDS[0], LIGHT);
    let b = drive(&cfg, BackfillPolicy::Easy, SEEDS[0], LIGHT);
    assert_eq!(a, b);
}

/// The workloads must actually exercise the hot paths: across the suite
/// some combos backfill, some kill-and-requeue, and every policy starts
/// every job eventually (the drain asserts inside `drive`).
#[test]
fn workloads_reach_the_interesting_paths() {
    let mut backfilled = 0u64;
    let mut scanned = 0u64;
    for cfg in presets() {
        for seed in SEEDS {
            let t = drive(&cfg, BackfillPolicy::Easy, seed, LIGHT);
            backfilled += t.backfill_starts;
            scanned += t.candidates_scanned;
        }
    }
    assert!(backfilled > 0, "no combo ever backfilled");
    assert!(scanned > 0, "planner never scanned a candidate");
}
