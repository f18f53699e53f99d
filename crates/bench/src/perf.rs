//! Deterministic replay check for the `BENCH_*.json` counter baselines.
//!
//! [`record`] runs a replay twice and keeps its counts only if both runs
//! agree bit for bit on work counters, allocation counters and completions:
//! a baseline recorded from a nondeterministic replay would poison every
//! future comparison. Wall time is not measured here; the repository
//! benchmark (`benchmark/`) reports it with its noise.

use interstitial::SimOutput;
use obs::perf::ScenarioPerf;

/// Run `run` twice and shape its counts for a `BENCH_<machine>.json`
/// baseline. Panics if the two runs disagree on work counters, allocation
/// counters or completions — a nondeterministic replay must never become a
/// baseline.
pub fn record<F: FnMut() -> SimOutput>(mut run: F) -> ScenarioPerf {
    let jobs = |out: &SimOutput| out.native_completed() + out.interstitial_completed();
    let first = run();
    let second = run();
    assert_eq!(
        first.obs.work, second.obs.work,
        "work counters differ between the two runs — the replay is not deterministic"
    );
    assert_eq!(
        first.obs.mem, second.obs.mem,
        "allocation counters differ between the two runs — \
         a heap-count baseline would not be reproducible"
    );
    assert_eq!(
        jobs(&first),
        jobs(&second),
        "completion counts differ between the two runs"
    );
    ScenarioPerf {
        jobs: jobs(&first),
        work: first.obs.work,
        mem: first.obs.mem.is_enabled().then_some(first.obs.mem),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interstitial::prelude::*;
    use simkit::time::{SimDuration, SimTime};
    use workload::{Job, JobClass};

    fn tiny_run(n: u64) -> SimOutput {
        let jobs: Vec<Job> = (0..n)
            .map(|i| Job {
                id: i + 1,
                class: JobClass::Native,
                user: (i % 3) as u32,
                group: 0,
                submit: SimTime::from_secs(i * 10),
                cpus: 4 + (i % 4) as u32,
                runtime: SimDuration::from_secs(100),
                estimate: SimDuration::from_secs(120),
            })
            .collect();
        SimBuilder::new(machine::config::ross())
            .natives(jobs)
            .horizon(SimTime::from_secs(100_000))
            .observer(obs::Obs::counting())
            .build()
            .run()
    }

    #[test]
    fn record_keeps_the_counts_of_a_deterministic_replay() {
        let s = record(|| tiny_run(20));
        assert_eq!(s.jobs, 20);
        assert!(s.work.sched_cycles > 0);
        assert!(s.work.events_popped > 0);
        // mem rides along exactly when the counting allocator is built in.
        assert_eq!(s.mem.is_some(), obs::alloc::counting_enabled());
        if let Some(mem) = s.mem {
            assert!(mem.allocations > 0, "{mem:?}");
        }
    }

    #[test]
    #[should_panic(expected = "work counters differ between the two runs")]
    fn record_panics_when_the_two_runs_disagree() {
        let mut n = 19;
        record(|| {
            n += 1;
            tiny_run(n)
        });
    }
}
