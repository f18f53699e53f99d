//! Benchmarks of the scheduling layer: one dispatch-plan cycle under each
//! backfill policy (the indexed free profile plus `plan_on`, as the
//! scheduler runs it), and trace generation throughput.

use bench::harness::Harness;
use machine::{RunningJob, RunningSet};
use sched::backfill::{plan_on, BackfillPolicy, LOOKAHEAD};
use sched::DispatchWindow;
use simkit::rng::Rng;
use simkit::time::{SimDuration, SimTime};
use std::hint::black_box;
use workload::traces::native_trace;
use workload::{Job, JobClass};

/// A plausible mid-log scheduling state: ~60 running jobs, queue of `q`.
fn scenario(queue_len: usize) -> (SimTime, u32, RunningSet, Vec<Job>) {
    let mut rng = Rng::new(42);
    let now = SimTime::from_days(30);
    let mut rs = RunningSet::new();
    let total = 4_662u32;
    let mut used = 0;
    for i in 0..60 {
        let cpus = 1 << rng.below(7); // 1..64
        if used + cpus > total * 8 / 10 {
            break;
        }
        used += cpus;
        let rem = rng.below(20_000) + 60;
        rs.insert(RunningJob {
            id: 1_000 + i,
            cpus,
            start: now - SimDuration::from_secs(1_000),
            actual_end: now + SimDuration::from_secs(rem),
            estimated_end: now + SimDuration::from_secs(rem + rng.below(20_000)),
            interstitial: false,
        });
    }
    let queue: Vec<Job> = (0..queue_len)
        .map(|i| Job {
            id: i as u64 + 1,
            class: JobClass::Native,
            user: i as u32 % 30,
            group: i as u32 % 5,
            submit: now - SimDuration::from_secs(600),
            cpus: 1 << rng.below(9),
            runtime: SimDuration::from_secs(rng.below(7_000) + 60),
            estimate: SimDuration::from_secs(rng.below(21_600) + 900),
        })
        .collect();
    (now, total - used, rs, queue)
}

fn bench_dispatch_plan(h: &mut Harness) {
    for &qlen in &[5usize, 50, 200] {
        let (now, free, rs, queue) = scenario(qlen);
        for policy in [
            ("easy", BackfillPolicy::Easy),
            ("conservative", BackfillPolicy::Conservative),
            ("restrictive", BackfillPolicy::Restrictive { depth: 8 }),
        ] {
            h.bench(&format!("dispatch_plan/{}/{qlen}", policy.0), || {
                let mut view = rs.indexed_profile(now, free, now + LOOKAHEAD);
                black_box(plan_on(
                    policy.1,
                    &queue,
                    now,
                    &mut view,
                    DispatchWindow::Always,
                ))
            });
        }
    }
}

fn bench_trace_generation(h: &mut Harness) {
    let cfg = machine::config::blue_mountain();
    let mut seed = 0u64;
    h.bench("trace_generation/blue_mountain_full_log", || {
        seed += 1;
        black_box(native_trace(&cfg, seed).len())
    });
}

fn main() {
    let mut h = Harness::from_args("scheduling");
    bench_dispatch_plan(&mut h);
    bench_trace_generation(&mut h);
    h.finish();
}
