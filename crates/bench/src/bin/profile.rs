//! `profile` — per-run phase breakdown for each machine preset.
//!
//! Replays every calibrated native log with the observability bundle's
//! metrics and phase profiler attached, then prints where the simulator's
//! wall-clock goes (schedule-cycle / backfill / free-profile / event-pump)
//! alongside the run's headline counters, plus the raw `RunReport` JSON for
//! machine consumption. That observers perturb neither the schedule nor
//! the work counters is asserted by `tests/observer_purity.rs`; what each
//! instrument costs is measured by the repository benchmark's per-layer
//! ladder (`benchmark/`).
//!
//! Wall-clock reads are fine in this crate (simlint R2 exempts `bench`).

use bench::lab::TRACE_SEED;
use bench::perf::per_sec_milli;
use interstitial::prelude::*;
use machine::config::{blue_mountain, blue_pacific, ross};
use obs::Obs;
use std::time::{Duration, Instant};
use workload::traces::native_trace;

fn observed_replay(cfg: &machine::MachineConfig) -> (SimOutput, Duration) {
    let natives = native_trace(cfg, TRACE_SEED);
    let t = Instant::now();
    let out = SimBuilder::new(cfg.clone())
        .natives(natives)
        .observer(Obs::with(false, true, true))
        .build()
        .run();
    (out, t.elapsed())
}

fn print_breakdown(cfg: &machine::MachineConfig, out: &SimOutput, wall: Duration) {
    let report = out.obs.run_report();
    println!("## {} ({} CPUs)", cfg.name, cfg.cpus);
    let total: u64 = report.profile.phases.values().map(|p| p.total_ns).sum();
    println!(
        "{:<16} {:>10} {:>12} {:>8}",
        "phase", "calls", "total ms", "share"
    );
    for (name, stat) in &report.profile.phases {
        println!(
            "{:<16} {:>10} {:>12.2} {:>7.1}%",
            name,
            stat.calls,
            stat.total_ns as f64 / 1e6,
            if total > 0 {
                stat.total_ns as f64 / total as f64 * 100.0
            } else {
                0.0
            }
        );
    }
    for key in [
        "sched.cycles",
        "jobs.finished.native",
        "jobs.started.backfill",
    ] {
        println!("{key:<28} {}", out.obs.metrics.counter(key));
    }
    let jobs = out.native_completed() + out.interstitial_completed();
    let wall_us = u64::try_from(wall.as_micros()).unwrap_or(u64::MAX);
    println!(
        "{:<28} {:.1} ({} jobs in {:.1} ms; {:.0} events/s)",
        "throughput jobs/s",
        per_sec_milli(jobs, wall_us) as f64 / 1e3,
        jobs,
        wall_us as f64 / 1e3,
        per_sec_milli(out.obs.work.events_popped, wall_us) as f64 / 1e3,
    );
    if obs::alloc::counting_enabled() {
        println!(
            "{:<28} peak {:.1} KiB live, {} allocs / {:.1} MiB total",
            "heap (alloc-count)",
            out.obs.mem.peak_live_bytes as f64 / 1024.0,
            out.obs.mem.allocations,
            out.obs.mem.bytes_allocated as f64 / (1024.0 * 1024.0),
        );
    }
    println!("{}", report.to_json());
    println!();
}

fn main() {
    println!("# per-run phase profile (seed {TRACE_SEED})");
    for cfg in [ross(), blue_mountain(), blue_pacific()] {
        let (out, wall) = observed_replay(&cfg);
        print_breakdown(&cfg, &out, wall);
    }
}
