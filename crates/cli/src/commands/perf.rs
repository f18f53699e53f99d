//! `perf` — the perf-regression gate over `BENCH_*.json` baselines.
//!
//! `perf compare OLD NEW` diffs two baselines written by `bench --bin
//! perf`: deterministic work and allocation counters are compared
//! *exactly* (any increase fails). A detected regression returns an error,
//! so the process exits nonzero — that is the gate. `--require-decrease
//! C1,C2` additionally demands that the named work counters *strictly
//! decreased* in every shared scenario — the gate CI runs when a change
//! claims to reduce scheduler work. `perf show FILE` pretty-prints one
//! baseline.
//!
//! `perf hotspots CYCLES.jsonl` attributes cost from a `--record-cycles`
//! flight-recorder dump: per-phase self-time flame bars (order-queue sort
//! vs backfill scan vs event pump, shares that sum to 100%), P50/P99/max
//! per-cycle cost over the retained ring window (P² streaming estimators —
//! the same machinery trace summaries use), and the exact top-K most
//! expensive cycles with their sim-times.

use crate::args::{ArgError, Args};
use obs::perf::{compare, PerfBaseline};
use obs::profile::Phase;
use obs::recorder::RecorderDump;
use obs::P2;

/// Default row count for the hotspots top-cycles table.
const DEFAULT_HOTSPOT_ROWS: usize = 10;

/// Width of the ASCII flame bars, characters.
const FLAME_WIDTH: u64 = 30;

/// Dispatch `perf <verb>`.
pub fn run(args: &Args) -> Result<String, ArgError> {
    match args.positional.first().map(|s| s.as_str()) {
        Some("compare") => run_compare(args),
        Some("show") => run_show(args),
        Some("hotspots") => run_hotspots(args),
        Some(other) => Err(ArgError(format!(
            "unknown perf verb {other:?} (compare | show | hotspots)"
        ))),
        None => Err(ArgError(
            "usage: perf compare OLD.json NEW.json [--require-decrease C1,C2] \
             | perf show FILE.json | perf hotspots CYCLES.jsonl [--top N]"
                .into(),
        )),
    }
}

fn load(path: &str) -> Result<PerfBaseline, ArgError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    PerfBaseline::from_json(&text).map_err(|e| ArgError(format!("{path}: {e}")))
}

fn run_compare(args: &Args) -> Result<String, ArgError> {
    args.check_flags(&["require-decrease"])?;
    let [old_path, new_path] = match args.positional.get(1..3) {
        Some([a, b]) => [a.as_str(), b.as_str()],
        _ => {
            return Err(ArgError(
                "usage: perf compare OLD.json NEW.json [--require-decrease C1,C2]".into(),
            ))
        }
    };
    let old = load(old_path)?;
    let new = load(new_path)?;
    let cmp = compare(&old, &new);
    let mut out = format!("comparing {} ({old_path}) -> ({new_path})\n", old.machine);
    out.push_str(&cmp.render());
    if cmp.is_regression() {
        // An Err exits nonzero: the report itself is the error message.
        return Err(ArgError(format!(
            "{out}perf regression: {} finding(s)",
            cmp.regressions.len()
        )));
    }
    if let Some(list) = args.get("require-decrease") {
        out.push_str(&require_decrease(&old, &new, list)?);
    }
    Ok(out)
}

/// Assert that each counter named in the comma-separated `list` strictly
/// decreased in every scenario present in both baselines. CI uses this
/// after a data-structure change that must *reduce* work, where "no
/// increase" would be too weak a gate.
fn require_decrease(
    old: &PerfBaseline,
    new: &PerfBaseline,
    list: &str,
) -> Result<String, ArgError> {
    let mut out = String::new();
    let mut failures = Vec::new();
    for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let mut seen = false;
        for (scenario, old_s) in &old.scenarios {
            let Some(new_s) = new.scenarios.get(scenario) else {
                continue;
            };
            let old_v = counter(&old_s.work, name)?;
            let new_v = counter(&new_s.work, name)?;
            seen = true;
            if new_v < old_v {
                out.push_str(&format!(
                    "  decrease ok  {scenario}/{name}: {old_v} -> {new_v}\n"
                ));
            } else {
                failures.push(format!("{scenario}/{name}: {old_v} -> {new_v}"));
            }
        }
        if !seen {
            failures.push(format!("{name}: no scenario present in both baselines"));
        }
    }
    if failures.is_empty() {
        Ok(out)
    } else {
        Err(ArgError(format!(
            "{out}required decrease not met:\n  {}",
            failures.join("\n  ")
        )))
    }
}

fn counter(work: &obs::WorkCounters, name: &str) -> Result<u64, ArgError> {
    work.fields()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| v)
        .ok_or_else(|| ArgError(format!("unknown counter {name:?} in --require-decrease")))
}

fn run_show(args: &Args) -> Result<String, ArgError> {
    args.check_flags(&[])?;
    let path = args
        .positional
        .get(1)
        .ok_or_else(|| ArgError("usage: perf show FILE.json".into()))?;
    let b = load(path)?;
    let mut out = format!("{} baseline ({}-job prefix)\n", b.machine, b.jobs_prefix);
    for (name, s) in &b.scenarios {
        out.push_str(&format!("  {name}: {} jobs\n", s.jobs));
        for (counter, value) in s.work.fields() {
            out.push_str(&format!("    {counter:<28} {value}\n"));
        }
        match &s.mem {
            Some(mem) => {
                for (counter, value) in mem.fields() {
                    out.push_str(&format!("    mem.{counter:<24} {value}\n"));
                }
            }
            // Schema-2 files may omit the optional mem section (and schema-1
            // files always do): say so instead of silently dropping the rows.
            None => out.push_str(&format!("    {:<28} not recorded\n", "mem")),
        }
    }
    Ok(out)
}

/// Each phase's self time: its total minus the phases nested in it (by
/// [`Phase::parent`]). The rows then sum to the top-level phases' total, so
/// no nanosecond is counted twice.
fn phase_self_times(phases: &[(String, u64, u64)]) -> Vec<(&str, u64, u64)> {
    let parent = |name: &str| Phase::from_name(name).and_then(Phase::parent);
    phases
        .iter()
        .map(|(name, calls, ns)| {
            let children: u64 = phases
                .iter()
                .filter(|(child, _, _)| parent(child).is_some_and(|p| p.name() == name))
                .map(|(_, _, ns)| *ns)
                .sum();
            (name.as_str(), *calls, ns.saturating_sub(children))
        })
        .collect()
}

/// `perf hotspots CYCLES.jsonl [--top N]` — attribute cost from a
/// `simulate --record-cycles` dump.
fn run_hotspots(args: &Args) -> Result<String, ArgError> {
    args.check_flags(&["top"])?;
    let path = args
        .positional
        .get(1)
        .ok_or_else(|| ArgError("usage: perf hotspots CYCLES.jsonl [--top N]".into()))?;
    let rows: usize = args.get_or("top", DEFAULT_HOTSPOT_ROWS)?;
    let text =
        std::fs::read_to_string(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    let dump = RecorderDump::from_jsonl(&text).map_err(|e| ArgError(format!("{path}: {e}")))?;

    let mut out = format!(
        "hotspots from {path}: {} cycles recorded, ring retains {} (dropped {}), \
         top-{} ledger\n",
        dump.cycles_seen,
        dump.ring.len(),
        dump.dropped,
        dump.top_k
    );

    // Phase flame bars: each span's self time from the profiler's run
    // totals, scaled to the hottest row. Wall-clock values — attribution,
    // not comparison.
    if !dump.phases.is_empty() {
        let rows = phase_self_times(&dump.phases);
        let total: u64 = rows.iter().map(|(_, _, ns)| *ns).sum();
        let hottest = rows.iter().map(|(_, _, ns)| *ns).max().unwrap_or(0);
        out.push_str("\nphase breakdown (self time, wall-clock run totals)\n");
        for (name, calls, ns) in &rows {
            let share = if total > 0 {
                *ns as f64 / total as f64 * 100.0
            } else {
                0.0
            };
            let bar = (ns * FLAME_WIDTH).checked_div(hottest).unwrap_or(0) as usize;
            out.push_str(&format!(
                "  {name:<16} {calls:>9} calls {:>10.2} ms {share:>5.1}%  {}\n",
                *ns as f64 / 1e6,
                "#".repeat(bar),
            ));
        }
    }

    // Per-cycle cost distribution over the retained ring window. Cost is
    // the deterministic unit (events + candidates + segments); wall nanos
    // ride along when the dump carries them.
    if !dump.ring.is_empty() {
        let mut p50 = P2::new(0.50);
        let mut p99 = P2::new(0.99);
        let mut worst = &dump.ring[0];
        let has_ns = dump.ring.iter().any(|r| r.ns_total > 0);
        let mut ns50 = P2::new(0.50);
        let mut ns99 = P2::new(0.99);
        let mut ns_max = 0u64;
        for rec in &dump.ring {
            p50.observe(rec.cost as f64);
            p99.observe(rec.cost as f64);
            if rec.cost > worst.cost {
                worst = rec;
            }
            if has_ns {
                ns50.observe(rec.ns_total as f64);
                ns99.observe(rec.ns_total as f64);
                ns_max = ns_max.max(rec.ns_total);
            }
        }
        out.push_str(&format!(
            "\nper-cycle cost over the ring window ({} cycles)\n  \
             cost units   P50 {:>8.0}  P99 {:>8.0}  max {:>8} (cycle {} at t={}s)\n",
            dump.ring.len(),
            p50.estimate().unwrap_or(0.0),
            p99.estimate().unwrap_or(0.0),
            worst.cost,
            worst.cycle,
            worst.t_s,
        ));
        if has_ns {
            out.push_str(&format!(
                "  wall µs      P50 {:>8.1}  P99 {:>8.1}  max {:>8.1}\n",
                ns50.estimate().unwrap_or(0.0) / 1e3,
                ns99.estimate().unwrap_or(0.0) / 1e3,
                ns_max as f64 / 1e3,
            ));
        }
    }

    // The exact whole-run ledger: worst cycles by deterministic cost, with
    // the sim-times a tail investigation needs to zoom in on.
    if !dump.top.is_empty() {
        out.push_str(&format!(
            "\ntop {} most expensive cycles (whole run, exact)\n  \
             rank      cycle        t_s    cost  events  cands   segs  queue    wall µs\n",
            rows.min(dump.top.len())
        ));
        for (i, rec) in dump.top.iter().take(rows).enumerate() {
            out.push_str(&format!(
                "  {:>4} {:>10} {:>10} {:>7} {:>7} {:>6} {:>6} {:>6} {:>10.1}\n",
                i + 1,
                rec.cycle,
                rec.t_s,
                rec.cost,
                rec.events,
                rec.candidates,
                rec.segments,
                rec.queue_depth,
                rec.ns_total as f64 / 1e3,
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::perf::{ScenarioPerf, PERF_SCHEMA};
    use obs::WorkCounters;
    use std::collections::BTreeMap;

    fn baseline(candidates: u64) -> PerfBaseline {
        let work = WorkCounters {
            events_popped: 500,
            events_scheduled: 600,
            heap_peak_depth: 12,
            sched_cycles: 40,
            inorder_starts: 20,
            backfill_starts: 10,
            backfill_candidates_scanned: candidates,
            profile_segments_walked: 200,
            ..WorkCounters::default()
        };
        let mut scenarios = BTreeMap::new();
        scenarios.insert(
            "fault_free".to_string(),
            ScenarioPerf {
                jobs: 30,
                work,
                mem: None,
            },
        );
        PerfBaseline {
            schema: PERF_SCHEMA,
            machine: "ross".to_string(),
            jobs_prefix: 2000,
            scenarios,
        }
    }

    fn write(dir: &std::path::Path, name: &str, b: &PerfBaseline) -> String {
        let path = dir.join(name);
        std::fs::write(&path, b.to_json()).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn compare_passes_on_identical_and_fails_on_counter_regression() {
        let dir = std::env::temp_dir().join("interstitial-perf-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let old = write(&dir, "old.json", &baseline(700));
        let same = write(&dir, "same.json", &baseline(700));
        let worse = write(&dir, "worse.json", &baseline(701));

        let ok = run(&args(&["perf", "compare", &old, &same])).unwrap();
        assert!(ok.contains("no change"), "{ok}");

        let err = run(&args(&["perf", "compare", &old, &worse])).unwrap_err();
        assert!(err.0.contains("REGRESSION"), "{}", err.0);
        assert!(err.0.contains("backfill_candidates_scanned"), "{}", err.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn show_renders_counters() {
        let dir = std::env::temp_dir().join("interstitial-perf-show-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = write(&dir, "b.json", &baseline(700));
        let out = run(&args(&["perf", "show", &path])).unwrap();
        assert!(out.contains("ross baseline"));
        assert!(out.contains("backfill_candidates_scanned"));
        assert!(out.contains("700"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn require_decrease_demands_a_strict_drop() {
        let dir = std::env::temp_dir().join("interstitial-perf-decrease-test");
        std::fs::create_dir_all(&dir).unwrap();
        let old = write(&dir, "old.json", &baseline(700));
        let better = write(&dir, "better.json", &baseline(600));
        let same = write(&dir, "same.json", &baseline(700));

        let ok = run(&args(&[
            "perf",
            "compare",
            &old,
            &better,
            "--require-decrease",
            "backfill_candidates_scanned",
        ]))
        .unwrap();
        assert!(ok.contains("decrease ok"), "{ok}");
        assert!(ok.contains("700 -> 600"), "{ok}");

        // Equal is a failure: "no increase" is not a decrease.
        let err = run(&args(&[
            "perf",
            "compare",
            &old,
            &same,
            "--require-decrease",
            "backfill_candidates_scanned",
        ]))
        .unwrap_err();
        assert!(err.0.contains("required decrease not met"), "{}", err.0);

        let err = run(&args(&[
            "perf",
            "compare",
            &old,
            &better,
            "--require-decrease",
            "no_such_counter",
        ]))
        .unwrap_err();
        assert!(err.0.contains("unknown counter"), "{}", err.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn usage_errors_are_reported() {
        assert!(run(&args(&["perf"])).is_err());
        assert!(run(&args(&["perf", "frobnicate"])).is_err());
        assert!(run(&args(&["perf", "compare", "only-one.json"])).is_err());
        assert!(run(&args(&["perf", "compare", "a", "b", "--bogus", "1"])).is_err());
        let err = run(&args(&["perf", "compare", "a", "b", "--wall-tol-pct", "5"])).unwrap_err();
        assert!(err.0.contains("unknown flag --wall-tol-pct"), "{}", err.0);
        assert!(run(&args(&["perf", "show", "/no/such/file.json"])).is_err());
        assert!(run(&args(&["perf", "hotspots"])).is_err());
        assert!(run(&args(&["perf", "hotspots", "/no/such/cycles.jsonl"])).is_err());
    }

    #[test]
    fn show_renders_mem_when_present() {
        let dir = std::env::temp_dir().join("interstitial-perf-show-mem-test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut b = baseline(700);
        let mut mem = obs::AllocCounters::enabled();
        assert!(mem.set_field("allocations", 4242));
        b.scenarios.get_mut("fault_free").unwrap().mem = Some(mem);
        let path = write(&dir, "b.json", &b);
        let out = run(&args(&["perf", "show", &path])).unwrap();
        assert!(out.contains("mem.allocations"), "{out}");
        assert!(out.contains("4242"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn show_labels_missing_mem_as_not_recorded() {
        let dir = std::env::temp_dir().join("interstitial-perf-show-nomem-test");
        std::fs::create_dir_all(&dir).unwrap();
        // A schema-2 baseline whose harness ran without allocation counting:
        // the optional mem block is absent from every scenario.
        let b = baseline(700);
        assert!(b.scenarios.values().all(|s| s.mem.is_none()));
        let path = write(&dir, "nomem.json", &b);
        let out = run(&args(&["perf", "show", &path])).unwrap();
        assert!(out.contains("mem"), "{out}");
        assert!(out.contains("not recorded"), "{out}");
        assert!(!out.contains("mem."), "no fabricated mem rows: {out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hotspots_phase_shares_are_self_times_that_sum_to_100() {
        // schedule-cycle (800 ms) contains order-queue, free-profile and
        // backfill (300 + 100 + 200 ms); event-pump (200 ms) is top-level,
        // so the two top-level spans cover 1000 ms.
        let mut text = String::from(
            "{\"recorder_schema\":1,\"capacity\":4,\"top_k\":2,\"cycles_seen\":0,\"dropped\":0}\n",
        );
        for (phase, ms) in [
            (Phase::Backfill, 200u64),
            (Phase::EventPump, 200),
            (Phase::FreeProfile, 100),
            (Phase::OrderQueue, 300),
            (Phase::ScheduleCycle, 800),
        ] {
            text.push_str(&format!(
                "{{\"kind\":\"phase\",\"name\":\"{}\",\"calls\":10,\"total_ns\":{}}}\n",
                phase.name(),
                ms * 1_000_000
            ));
        }
        let dump = RecorderDump::from_jsonl(&text).unwrap();
        let self_ms: Vec<u64> = phase_self_times(&dump.phases)
            .iter()
            .map(|(_, _, ns)| ns / 1_000_000)
            .collect();
        assert_eq!(self_ms, [200, 200, 100, 300, 200]);

        let dir = std::env::temp_dir().join("interstitial-perf-hotspots-self-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cycles.jsonl");
        std::fs::write(&path, &text).unwrap();
        let out = run(&args(&["perf", "hotspots", path.to_str().unwrap()])).unwrap();
        let shares: Vec<f64> = out
            .lines()
            .filter_map(|l| l.split_whitespace().find_map(|w| w.strip_suffix('%')))
            .map(|w| w.parse().unwrap())
            .collect();
        assert_eq!(shares, [20.0, 20.0, 10.0, 30.0, 20.0], "{out}");
        assert_eq!(shares.iter().sum::<f64>(), 100.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hotspots_attributes_cost_from_a_recorder_dump() {
        use obs::recorder::CycleRecorder;

        let dir = std::env::temp_dir().join("interstitial-perf-hotspots-test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut rec = CycleRecorder::with_limits(64, 8);
        let mut work = WorkCounters::default();
        let mut profile = obs::PhaseProfiler::enabled();
        for i in 0..100u64 {
            let t = rec.begin();
            work.events_popped += 1 + i % 3;
            work.backfill_candidates_scanned += (i * 7) % 23;
            work.profile_segments_walked += (i * 5) % 11;
            work.inorder_starts += i % 2;
            for phase in Phase::ALL {
                let span = profile.begin();
                profile.end(phase, span);
            }
            rec.end_cycle(
                t,
                simkit::time::SimTime::from_secs(i * 300),
                i % 40,
                &work,
                &profile,
            );
        }
        let path = dir.join("cycles.jsonl");
        std::fs::write(&path, rec.to_jsonl(&profile.snapshot())).unwrap();

        let out = run(&args(&[
            "perf",
            "hotspots",
            path.to_str().unwrap(),
            "--top",
            "5",
        ]))
        .unwrap();
        assert!(out.contains("100 cycles recorded"), "{out}");
        assert!(out.contains("phase breakdown"), "{out}");
        for phase in Phase::ALL {
            assert!(out.contains(phase.name()), "{out}");
        }
        assert!(out.contains('#'), "flame bars rendered: {out}");
        assert!(out.contains("P50"), "{out}");
        assert!(out.contains("P99"), "{out}");
        assert!(out.contains("top 5 most expensive cycles"), "{out}");
        // The table names exact sim-times: the worst cycle's t_s must be a
        // multiple of 300 present in the output.
        let worst = rec.top()[0];
        assert!(out.contains(&worst.t_s.to_string()), "{out}");
        // A counters-only dump (no phases, no nanos) still renders.
        let lean = dir.join("lean.jsonl");
        std::fs::write(&lean, rec.counters_jsonl()).unwrap();
        let out = run(&args(&["perf", "hotspots", lean.to_str().unwrap()])).unwrap();
        assert!(out.contains("cost units"), "{out}");
        assert!(
            !out.contains("wall µs      P50"),
            "no fabricated wall distribution: {out}"
        );
        // Bytes after the closing brace of the header or of a cycle line
        // fail the command, naming the line.
        let text = rec.counters_jsonl();
        for (at, want) in [(0, "line 1, byte"), (1, "line 2, byte")] {
            let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
            lines[at].push_str("GARBAGE");
            std::fs::write(&lean, lines.join("\n")).unwrap();
            let err = run(&args(&["perf", "hotspots", lean.to_str().unwrap()])).unwrap_err();
            assert!(err.0.contains(want), "{}", err.0);
        }
        // A dump cut at a line boundary, one top record short, fails too.
        let cut = &text[..text.trim_end().rfind('\n').unwrap() + 1];
        std::fs::write(&lean, cut).unwrap();
        let err = run(&args(&["perf", "hotspots", lean.to_str().unwrap()])).unwrap_err();
        assert!(err.0.contains("truncated recorder dump"), "{}", err.0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
