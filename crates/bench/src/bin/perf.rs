//! `perf` — record `BENCH_<machine>.json` counter baselines.
//!
//! For each calibrated machine preset, replays the first [`JOBS_PREFIX`]
//! jobs of the native log (with the canonical interstitial workload)
//! fault-free and faulted, twice each via [`bench::perf::record`], and
//! writes one baseline file per machine: deterministic work counters,
//! compared exactly by `interstitial perf compare`. Wall time is measured
//! by the repository benchmark (`benchmark/`), not here.
//!
//! `PERF_OUT_DIR` sets where `BENCH_*.json` land (default: the current
//! directory). The counters do not depend on the host, so CI regenerates
//! them and diffs exactly against the committed baselines.
//!
//! Build with `--features alloc-count` to also record the per-scenario
//! `"mem"` allocation counters (deterministic per toolchain, gated exactly
//! by `perf compare`); without the feature the sections are omitted.

use bench::lab::TRACE_SEED;
use bench::perf::record;
use interstitial::prelude::*;
use machine::config::{blue_mountain, blue_pacific, ross};
use machine::{FaultModel, FaultSpec};
use obs::perf::{PerfBaseline, ScenarioPerf, PERF_SCHEMA};
use obs::Obs;
use simkit::time::{SimDuration, SimTime};
use workload::traces::native_trace;

/// Native-log prefix per replay: long enough to exercise backfill, retries
/// and profile scans, short enough for a CI smoke job.
const JOBS_PREFIX: usize = 2_000;

/// The faulted scenario's injection parameters — the same node MTBF/MTTR
/// shape the CI fault-replay job uses, so the two suites stress one model.
fn fault_spec() -> FaultSpec {
    FaultSpec {
        mtbf: SimDuration::from_secs(172_800),
        mttr: SimDuration::from_secs(7_200),
        nodes: 16,
        seed: 5,
    }
}

/// One observed replay: truncated native log plus the canonical continual
/// interstitial project (an eighth of the machine per job, 1 h at 1 GHz —
/// the golden suite's shape), optionally faulted. Only work counters are
/// collected.
fn replay(cfg: &machine::MachineConfig, faulted: bool) -> SimOutput {
    let mut natives = native_trace(cfg, TRACE_SEED);
    natives.truncate(JOBS_PREFIX);
    let horizon = SimTime::from_secs(
        natives
            .iter()
            .map(|j| j.submit.as_secs())
            .max()
            .unwrap_or(0)
            + 86_400,
    );
    let project = InterstitialProject::per_paper(u64::MAX / 2, (cfg.cpus / 8).max(1), 3_600.0);
    let mut b = SimBuilder::new(cfg.clone())
        .natives(natives)
        .horizon(horizon)
        .interstitial(
            project,
            InterstitialMode::Continual,
            InterstitialPolicy::default(),
        )
        .observer(Obs::counting());
    if faulted {
        b = b.faults(FaultModel::synthesize(&fault_spec(), cfg.cpus, horizon));
    }
    b.build().run()
}

fn print_scenario(machine: &str, scenario: &str, s: &ScenarioPerf) {
    let mem = match &s.mem {
        Some(mem) => format!(
            ", {} allocs / {} KiB (peak {} KiB live)",
            mem.allocations,
            mem.bytes_allocated / 1024,
            mem.peak_live_bytes / 1024,
        ),
        None => String::new(),
    };
    println!(
        "{machine:<14} {scenario:<11} {} jobs, {} events, peak heap {}, {} cycles, \
         {} candidates, {} segments{mem}",
        s.jobs,
        s.work.events_popped,
        s.work.heap_peak_depth,
        s.work.sched_cycles,
        s.work.backfill_candidates_scanned,
        s.work.profile_segments_walked,
    );
}

fn main() {
    let out_dir = std::env::var("PERF_OUT_DIR").unwrap_or_else(|_| ".".to_string());
    println!("# perf baselines (seed {TRACE_SEED}, {JOBS_PREFIX}-job prefix)");
    std::fs::create_dir_all(&out_dir).expect("create PERF_OUT_DIR");
    // Replay everything first, write nothing until every scenario has
    // succeeded: a panic mid-replay must not leave a half-updated baseline
    // set on disk for `perf compare` to silently bless.
    let mut baselines = Vec::new();
    let mut failures = Vec::new();
    for (key, machine) in [
        ("ross", ross()),
        ("blue_mountain", blue_mountain()),
        ("blue_pacific", blue_pacific()),
    ] {
        let mut baseline = PerfBaseline {
            schema: PERF_SCHEMA,
            machine: key.to_string(),
            jobs_prefix: JOBS_PREFIX as u64,
            scenarios: Default::default(),
        };
        for (scenario, faulted) in [("fault_free", false), ("faulted", true)] {
            let recorded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                record(|| replay(&machine, faulted))
            }));
            match recorded {
                Ok(s) => {
                    print_scenario(key, scenario, &s);
                    baseline.scenarios.insert(scenario.to_string(), s);
                }
                Err(panic) => {
                    let msg = panic
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    eprintln!("error: {key}/{scenario} panicked mid-replay: {msg}");
                    failures.push(format!("{key}/{scenario}"));
                }
            }
        }
        baselines.push((key, baseline));
    }
    if !failures.is_empty() {
        eprintln!(
            "error: {} scenario(s) failed ({}); no baseline files were written",
            failures.len(),
            failures.join(", ")
        );
        std::process::exit(1);
    }
    for (key, baseline) in baselines {
        let path = format!("{out_dir}/BENCH_{key}.json");
        std::fs::write(&path, baseline.to_json()).expect("write baseline");
        println!("wrote {path}");
    }
}
