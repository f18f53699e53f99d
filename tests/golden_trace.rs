//! Golden-trace regression suite.
//!
//! One fixed-seed observed replay per machine preset, with the JSONL event
//! stream and the deterministic metrics snapshot pinned byte-for-byte under
//! `tests/golden/`. Any change to scheduling order, event emission, or
//! metrics encoding shows up here as a diff against the checked-in files.
//!
//! Regenerate after an *intentional* behaviour change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_trace
//! ```
//!
//! and review the diff like any other code change.

use interstitial_computing::interstitial::prelude::*;
use interstitial_computing::machine::{self, MachineConfig};
use interstitial_computing::obs::{Obs, TraceSink};
use interstitial_computing::simkit::time::SimTime;
use interstitial_computing::workload::traces::native_trace;
use std::path::PathBuf;

/// Seed for every golden replay. Changing it invalidates all golden files.
const GOLDEN_SEED: u64 = 7;
/// Native-log prefix per machine: long enough to exercise backfill and
/// interstitial placement, short enough to keep the pinned files small.
const GOLDEN_JOBS: usize = 150;

/// The fixed-seed observed replay a machine's golden files pin.
fn golden_run(cfg: &MachineConfig) -> SimOutput {
    let mut natives = native_trace(cfg, GOLDEN_SEED);
    natives.truncate(GOLDEN_JOBS);
    let horizon =
        SimTime::from_secs(natives.iter().map(|j| j.submit.as_secs()).max().unwrap() + 86_400);
    // Interstitial shape scaled to the machine so placements happen on all
    // three presets: an eighth of the machine per job, one hour at 1 GHz.
    let project = InterstitialProject::per_paper(u64::MAX / 2, (cfg.cpus / 8).max(1), 3_600.0);
    SimBuilder::new(cfg.clone())
        .natives(natives)
        .horizon(horizon)
        .interstitial(
            project,
            InterstitialMode::Continual,
            InterstitialPolicy::default(),
        )
        .observer(Obs::enabled())
        .build()
        .run()
}

/// (trace JSONL, deterministic metrics JSON) for a machine's golden replay.
fn artifacts(cfg: &MachineConfig) -> (String, String) {
    let out = golden_run(cfg);
    (
        out.obs.trace.to_jsonl(),
        out.obs.run_report().to_json_deterministic(),
    )
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn assert_matches_golden(name: &str, kind: &str, path: &PathBuf, got: &str) {
    let want = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); generate with \
             UPDATE_GOLDEN=1 cargo test --test golden_trace",
            path.display()
        )
    });
    if got == want {
        return;
    }
    let first_diff = got
        .lines()
        .zip(want.lines())
        .position(|(g, w)| g != w)
        .map(|i| i + 1);
    panic!(
        "{name} {kind} diverges from {} (first differing line: {}; got {} lines, want {}).\n\
         If the change is intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test --test golden_trace and review the diff.",
        path.display(),
        first_diff.map_or("<line count>".to_string(), |i| i.to_string()),
        got.lines().count(),
        want.lines().count(),
    );
}

/// Compare (or, under `UPDATE_GOLDEN`, rewrite) one machine's golden files.
fn check(name: &str, cfg: &MachineConfig) {
    let (trace, metrics) = artifacts(cfg);
    assert!(!trace.is_empty(), "{name}: empty trace");
    let dir = golden_dir();
    let trace_path = dir.join(format!("{name}.trace.jsonl"));
    let metrics_path = dir.join(format!("{name}.metrics.json"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(&dir).expect("create tests/golden");
        std::fs::write(&trace_path, &trace).expect("write golden trace");
        std::fs::write(&metrics_path, &metrics).expect("write golden metrics");
        return;
    }
    assert_matches_golden(name, "trace", &trace_path, &trace);
    assert_matches_golden(name, "metrics", &metrics_path, &metrics);
}

#[test]
fn ross_matches_golden() {
    check("ross", &machine::config::ross());
}

#[test]
fn blue_mountain_matches_golden() {
    check("blue_mountain", &machine::config::blue_mountain());
}

#[test]
fn blue_pacific_matches_golden() {
    check("blue_pacific", &machine::config::blue_pacific());
}

#[test]
fn same_seed_replays_are_byte_identical() {
    let cfg = machine::config::ross();
    let a = artifacts(&cfg);
    let b = artifacts(&cfg);
    assert_eq!(a.0, b.0, "trace streams differ between same-seed replays");
    assert_eq!(a.1, b.1, "metrics differ between same-seed replays");
}

#[test]
fn work_counters_do_not_perturb_the_trace_stream() {
    // Work counters live in the RunReport, never in the trace bytes: the
    // trace-only and the all-on replay must write the same JSONL and count
    // the same work, or every pinned trace would churn whenever a counter
    // is added.
    let cfg = machine::config::ross();
    let run_with = |observer: Obs| {
        let mut natives = native_trace(&cfg, GOLDEN_SEED);
        natives.truncate(GOLDEN_JOBS);
        let horizon =
            SimTime::from_secs(natives.iter().map(|j| j.submit.as_secs()).max().unwrap() + 86_400);
        let project = InterstitialProject::per_paper(u64::MAX / 2, (cfg.cpus / 8).max(1), 3_600.0);
        SimBuilder::new(cfg.clone())
            .natives(natives)
            .horizon(horizon)
            .interstitial(
                project,
                InterstitialMode::Continual,
                InterstitialPolicy::default(),
            )
            .observer(observer)
            .build()
            .run()
    };
    // Trace only vs trace, metrics and profiler on.
    let trace_only = run_with(Obs {
        trace: TraceSink::enabled(),
        ..Obs::disabled()
    });
    let all_on = run_with(Obs::enabled());
    let (a, b) = (trace_only.obs.trace.to_jsonl(), all_on.obs.trace.to_jsonl());
    assert_eq!(a, b, "enabling work counters changed the trace bytes");
    assert!(
        !b.contains("\"work\""),
        "counters leaked into the trace stream"
    );
    assert!(
        all_on.obs.work.events_popped > 0,
        "the all-on run should still have collected counters"
    );
    assert_eq!(trace_only.obs.work, all_on.obs.work);
}

#[test]
fn golden_stream_covers_all_event_classes() {
    let (trace, metrics) = artifacts(&machine::config::ross());
    for needle in [
        "\"ev\":\"submit\"",
        "\"ev\":\"start\"",
        "\"ev\":\"finish\"",
        "\"kind\":\"backfill\"",
        "\"kind\":\"interstitial\"",
        "\"class\":\"interstitial\"",
    ] {
        assert!(trace.contains(needle), "golden stream lacks {needle}");
    }
    for needle in [
        "\"sched.cycles\"",
        "\"jobs.started.interstitial\"",
        "\"wait.native_s\"",
    ] {
        assert!(metrics.contains(needle), "golden metrics lack {needle}");
    }
    // The stream leads with the schema header, stamped with the machine.
    let header = trace.lines().next().unwrap();
    assert!(
        header.starts_with("{\"schema\":1") && header.contains("\"machine\":\"Ross\""),
        "bad header: {header}"
    );
    // Sim-time must be nondecreasing down the stream.
    let mut last = 0u64;
    for line in trace.lines().skip(1) {
        let t: u64 = line
            .strip_prefix("{\"t\":")
            .and_then(|r| r.split(',').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("unparseable line: {line}"));
        assert!(t >= last, "time went backwards: {line}");
        last = t;
    }
}
