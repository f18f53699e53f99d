//! Machine-readable perf baselines and the regression-compare rules.
//!
//! The bench harness (`bench --bin perf`) writes one `BENCH_<machine>.json`
//! per calibrated machine; `interstitial perf compare <old> <new>` diffs two
//! of them. Both sides of that contract live here so the writer, the parser
//! and the diff can never drift apart.
//!
//! A baseline holds only deterministic counts, so every comparison is
//! *exact*: the work counters ([`crate::work::WorkCounters`]) and, when the
//! harness was built with `alloc-count`, the allocation counters. Any
//! increase is a regression, any decrease an improvement. Wall time is not
//! recorded here; the repository benchmark (`benchmark/`) measures it with
//! its noise.
//!
//! The emitted JSON is deterministic — BTreeMap scenario order, fixed field
//! order — so baseline diffs in git history are readable.

use crate::alloc::AllocCounters;
use crate::json;
use crate::work::WorkCounters;
use std::collections::BTreeMap;

/// Current baseline schema version. Schema 2 added the optional per-scenario
/// `"mem"` section (allocation counters from the `alloc-count` feature);
/// schema-1 files remain readable, but [`compare`] refuses mixed-schema
/// pairs — regenerate both sides with the same bench harness instead.
pub const PERF_SCHEMA: u64 = 2;

/// Recorded counts for one scenario (e.g. `fault_free` or `faulted`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScenarioPerf {
    /// Jobs completed per replay (native + interstitial).
    pub jobs: u64,
    /// Deterministic work counters (identical across replays).
    pub work: WorkCounters,
    /// Allocation counters (schema ≥ 2, present only when the harness was
    /// built with `alloc-count`; identical across replays).
    pub mem: Option<AllocCounters>,
}

/// One machine's perf baseline.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PerfBaseline {
    /// Baseline schema version ([`PERF_SCHEMA`]).
    pub schema: u64,
    /// Machine preset key (`ross`, `blue_mountain`, `blue_pacific`).
    pub machine: String,
    /// Trace truncation: replay only the first N jobs (0 = full trace).
    pub jobs_prefix: u64,
    /// Scenario name → counts, in BTreeMap (sorted) order.
    pub scenarios: BTreeMap<String, ScenarioPerf>,
}

impl PerfBaseline {
    /// Serialize as deterministic, pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        for (key, value) in [("schema", self.schema), ("jobs_prefix", self.jobs_prefix)] {
            out.push_str("  ");
            json::push_key(&mut out, key);
            out.push_str(&format!("{value},\n"));
        }
        out.push_str("  ");
        let _ = json::push_str_field(&mut out, true, "machine", &self.machine);
        out.push_str(",\n  \"scenarios\":{");
        let mut first_scn = true;
        for (name, s) in &self.scenarios {
            if !first_scn {
                out.push(',');
            }
            first_scn = false;
            out.push_str("\n    ");
            json::push_key(&mut out, name);
            out.push_str("{\n      ");
            json::push_key(&mut out, "jobs");
            out.push_str(&format!("{},\n      ", s.jobs));
            json::push_key(&mut out, "work");
            s.work.write_json(&mut out);
            if let Some(mem) = &s.mem {
                out.push_str(",\n      ");
                json::push_key(&mut out, "mem");
                mem.write_json(&mut out);
            }
            out.push_str("\n    }");
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Parse a baseline written by [`PerfBaseline::to_json`].
    ///
    /// Accepts any whitespace layout; unknown keys are skipped so older
    /// readers tolerate newer writers.
    pub fn from_json(text: &str) -> Result<PerfBaseline, String> {
        let mut b = PerfBaseline::default();
        json::read_object(text, 1, |r, key| {
            match key {
                "schema" => b.schema = r.u64()?,
                "jobs_prefix" => b.jobs_prefix = r.u64()?,
                "machine" => b.machine = r.string()?.to_string(),
                "scenarios" => r.object(|r, name| {
                    let s = scenario(r)?;
                    b.scenarios.insert(name.to_string(), s);
                    Ok(())
                })?,
                _ => r.skip()?,
            }
            Ok(())
        })
        .map_err(|e| e.to_string())?;
        // Schema 1 is schema 2 without the optional "mem" sections, so the
        // same reader accepts both; `compare` still refuses mixed pairs.
        if b.schema != PERF_SCHEMA && b.schema != 1 {
            return Err(format!(
                "unsupported baseline schema {} (expected {PERF_SCHEMA} or 1)",
                b.schema
            ));
        }
        Ok(b)
    }
}

/// Read one scenario object. Counters this build does not know are
/// skipped (forward compat).
fn scenario(r: &mut json::Reader<'_>) -> Result<ScenarioPerf, json::Error> {
    let mut s = ScenarioPerf::default();
    r.object(|r, key| {
        match key {
            "jobs" => s.jobs = r.u64()?,
            "work" => {
                let mut w = WorkCounters::default();
                r.object(|r, counter| counter_value(r, |n| w.set_field(counter, n)))?;
                s.work = w;
            }
            "mem" => {
                let mut m = AllocCounters::enabled();
                r.object(|r, counter| counter_value(r, |n| m.set_field(counter, n)))?;
                s.mem = Some(m);
            }
            _ => r.skip()?,
        }
        Ok(())
    })?;
    Ok(s)
}

/// Hand a counter's value to `set` when it is a number; skip it otherwise.
fn counter_value(
    r: &mut json::Reader<'_>,
    set: impl FnOnce(u64) -> bool,
) -> Result<(), json::Error> {
    if let Some(json::Scalar::U64(n)) = r.value()? {
        let _ = set(n);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

/// Outcome of diffing two baselines.
#[derive(Clone, Debug, Default)]
pub struct PerfComparison {
    /// Hard failures: counter increases and shape mismatches.
    pub regressions: Vec<String>,
    /// Counter decreases (informational).
    pub improvements: Vec<String>,
    /// Neutral observations (new scenarios, newly present mem sections).
    pub notes: Vec<String>,
}

impl PerfComparison {
    /// True when the gate should fail.
    pub fn is_regression(&self) -> bool {
        !self.regressions.is_empty()
    }

    /// Human-readable report, one finding per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.regressions {
            out.push_str("REGRESSION  ");
            out.push_str(r);
            out.push('\n');
        }
        for i in &self.improvements {
            out.push_str("improvement ");
            out.push_str(i);
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str("note        ");
            out.push_str(n);
            out.push('\n');
        }
        if self.regressions.is_empty() && self.improvements.is_empty() {
            out.push_str("no change: counters identical\n");
        }
        out
    }
}

/// Diff `new` against `old`, counter by counter and exactly. Shape
/// mismatches (schema, machine, jobs_prefix, missing scenarios) fail the
/// gate, because they make the counters incomparable.
pub fn compare(old: &PerfBaseline, new: &PerfBaseline) -> PerfComparison {
    let mut cmp = PerfComparison::default();
    if old.schema != new.schema {
        cmp.regressions.push(format!(
            "schema mismatch: baseline is schema {}, candidate is schema {} — \
             regenerate both sides with the same bench harness",
            old.schema, new.schema
        ));
        return cmp;
    }
    if old.machine != new.machine {
        cmp.regressions.push(format!(
            "machine mismatch: baseline is {:?}, candidate is {:?}",
            old.machine, new.machine
        ));
        return cmp;
    }
    if old.jobs_prefix != new.jobs_prefix {
        cmp.regressions.push(format!(
            "jobs_prefix mismatch: {} vs {} — counters are incomparable",
            old.jobs_prefix, new.jobs_prefix
        ));
        return cmp;
    }
    for (name, old_s) in &old.scenarios {
        let Some(new_s) = new.scenarios.get(name) else {
            cmp.regressions
                .push(format!("{name}: scenario missing from candidate"));
            continue;
        };
        for ((counter, old_v), (_, new_v)) in
            old_s.work.fields().iter().zip(new_s.work.fields().iter())
        {
            if new_v > old_v {
                cmp.regressions.push(format!(
                    "{name}: counter {counter} rose {old_v} -> {new_v} (+{})",
                    new_v - old_v
                ));
            } else if new_v < old_v {
                cmp.improvements.push(format!(
                    "{name}: counter {counter} fell {old_v} -> {new_v} (-{})",
                    old_v - new_v
                ));
            }
        }
        match (&old_s.mem, &new_s.mem) {
            (Some(old_m), Some(new_m)) => {
                // Allocation counters are deterministic per build, so they
                // gate exactly, like the work counters.
                for ((counter, old_v), (_, new_v)) in
                    old_m.fields().iter().zip(new_m.fields().iter())
                {
                    if new_v > old_v {
                        cmp.regressions.push(format!(
                            "{name}: mem counter {counter} rose {old_v} -> {new_v} (+{})",
                            new_v - old_v
                        ));
                    } else if new_v < old_v {
                        cmp.improvements.push(format!(
                            "{name}: mem counter {counter} fell {old_v} -> {new_v} (-{})",
                            old_v - new_v
                        ));
                    }
                }
            }
            (Some(_), None) => {
                cmp.regressions.push(format!(
                    "{name}: mem section missing from candidate — was the bench \
                     harness built without the alloc-count feature?"
                ));
            }
            (None, Some(_)) => {
                cmp.notes.push(format!(
                    "{name}: mem counters newly present (no baseline to gate against)"
                ));
            }
            (None, None) => {}
        }
    }
    for name in new.scenarios.keys() {
        if !old.scenarios.contains_key(name) {
            cmp.notes
                .push(format!("{name}: new scenario (no baseline)"));
        }
    }
    cmp
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(allocations: u64) -> AllocCounters {
        let mut m = AllocCounters::enabled();
        assert!(m.set_field("allocations", allocations));
        assert!(m.set_field("deallocations", allocations));
        assert!(m.set_field("bytes_allocated", allocations * 64));
        assert!(m.set_field("bytes_freed", allocations * 64));
        assert!(m.set_field("peak_live_bytes", allocations * 8));
        m
    }

    fn baseline(candidates: u64) -> PerfBaseline {
        let work = WorkCounters {
            events_popped: 100,
            events_scheduled: 120,
            heap_peak_depth: 8,
            sched_cycles: 10,
            inorder_starts: 5,
            backfill_starts: 3,
            backfill_candidates_scanned: candidates,
            profile_segments_walked: 40,
            requeues: 1,
            retries: 2,
            ..WorkCounters::default()
        };
        let scenario = ScenarioPerf {
            jobs: 8,
            work,
            mem: Some(mem(5000)),
        };
        let mut scenarios = BTreeMap::new();
        scenarios.insert("fault_free".to_string(), scenario.clone());
        scenarios.insert("faulted".to_string(), scenario);
        PerfBaseline {
            schema: PERF_SCHEMA,
            machine: "ross".to_string(),
            jobs_prefix: 2000,
            scenarios,
        }
    }

    #[test]
    fn json_round_trips() {
        let b = baseline(77);
        let text = b.to_json();
        let parsed = PerfBaseline::from_json(&text).unwrap();
        assert_eq!(parsed, b);
        // Serialization is deterministic.
        assert_eq!(parsed.to_json(), text);
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(PerfBaseline::from_json("").is_err());
        assert!(PerfBaseline::from_json("[1,2]").is_err());
        assert!(PerfBaseline::from_json("{\"schema\":1").is_err());
        assert!(
            PerfBaseline::from_json("{\"schema\":3}").is_err(),
            "unknown schema"
        );
        assert!(
            PerfBaseline::from_json("{\"schema\":2}{}").is_err(),
            "trailing"
        );
    }

    #[test]
    fn schema_2_json_shape_is_pinned() {
        // The exact layout the bench harness commits as BENCH_<machine>.json.
        // Field order, indentation and the optional trailing mem section are
        // all contractual: git diffs of regenerated baselines must be
        // readable, and the reader round-trips this byte-for-byte.
        let mut b = baseline(77);
        b.scenarios.remove("faulted");
        let scn = b.scenarios.get_mut("fault_free").unwrap();
        scn.mem = Some(mem(2));
        let expected = "{\n  \"schema\":2,\n  \"jobs_prefix\":2000,\n  \
\"machine\":\"ross\",\n  \"scenarios\":{\n    \"fault_free\":{\n      \"jobs\":8,\n      \
\"work\":{\"events_popped\":100,\"events_scheduled\":120,\"heap_peak_depth\":8,\
\"sched_cycles\":10,\"inorder_starts\":5,\"backfill_starts\":3,\
\"backfill_candidates_scanned\":77,\"profile_segments_walked\":40,\
\"requeues\":1,\"retries\":2,\"checkpoints_taken\":0,\"cpu_s_salvaged\":0,\
\"cpu_s_reexecuted\":0},\n      \
\"mem\":{\"allocations\":2,\"deallocations\":2,\"bytes_allocated\":128,\
\"bytes_freed\":128,\"peak_live_bytes\":16}\n    }\n  }\n}\n";
        assert_eq!(b.to_json(), expected);
    }

    #[test]
    fn schema_1_files_still_parse_without_mem() {
        // A baseline as the previous harness wrote it: schema 1, no mem.
        let legacy = "{\n  \"schema\":1,\n  \"reps\":3,\n  \"warmup\":1,\n  \
\"jobs_prefix\":2000,\n  \"machine\":\"ross\",\n  \"git_rev\":\"abc1234\",\n  \
\"scenarios\":{\n    \"fault_free\":{\n      \"wall_us_median\":5000,\n      \
\"wall_us_mad\":250,\n      \"jobs\":8,\n      \"events\":100,\n      \
\"jobs_per_sec_milli\":1600000,\n      \"events_per_sec_milli\":20000000,\n      \
\"work\":{\"events_popped\":100,\"events_scheduled\":120,\"heap_peak_depth\":8,\
\"sched_cycles\":10,\"inorder_starts\":5,\"backfill_starts\":3,\
\"backfill_candidates_scanned\":77,\"profile_segments_walked\":40,\
\"requeues\":1,\"retries\":2}\n    }\n  }\n}\n";
        let b = PerfBaseline::from_json(legacy).unwrap();
        assert_eq!(b.schema, 1);
        let scn = &b.scenarios["fault_free"];
        assert_eq!(scn.mem, None);
        assert_eq!(scn.work.events_popped, 100);
        // Counters missing from the legacy file parse as zero (forward
        // compat), so re-serialization appends them; the rest of the
        // layout survives the round trip.
        assert_eq!(scn.work.checkpoints_taken, 0);
        let round = b.to_json();
        assert!(round.starts_with("{\n  \"schema\":1,"), "{round}");
        assert!(
            round.contains("\"retries\":2,\"checkpoints_taken\":0,\"cpu_s_salvaged\":0,"),
            "{round}"
        );
    }

    #[test]
    fn compare_rejects_mixed_schema_pairs() {
        let old = baseline(77);
        let mut legacy = baseline(77);
        legacy.schema = 1;
        for scn in legacy.scenarios.values_mut() {
            scn.mem = None;
        }
        let cmp = compare(&legacy, &old);
        assert!(cmp.is_regression());
        assert_eq!(cmp.regressions.len(), 1, "fails fast, no field spray");
        assert!(cmp.regressions[0].contains("schema mismatch"));
        assert!(cmp.regressions[0].contains("regenerate both sides"));
    }

    #[test]
    fn mem_counters_gate_exactly() {
        let old = baseline(77);
        let mut worse = baseline(77);
        worse.scenarios.get_mut("faulted").unwrap().mem = Some(mem(5001));
        let cmp = compare(&old, &worse);
        assert!(cmp.is_regression());
        assert!(
            cmp.regressions
                .iter()
                .any(|r| r.contains("mem counter allocations rose 5000 -> 5001")),
            "{:?}",
            cmp.regressions
        );
        let mut better = baseline(77);
        better.scenarios.get_mut("faulted").unwrap().mem = Some(mem(4999));
        let cmp = compare(&old, &better);
        assert!(!cmp.is_regression());
        assert!(cmp.improvements.iter().any(|i| i.contains("mem counter")));
    }

    #[test]
    fn missing_mem_in_candidate_fails_but_new_mem_is_a_note() {
        let old = baseline(77);
        let mut no_mem = baseline(77);
        for scn in no_mem.scenarios.values_mut() {
            scn.mem = None;
        }
        let cmp = compare(&old, &no_mem);
        assert!(cmp.is_regression());
        assert!(cmp.regressions[0].contains("alloc-count"));
        // Baseline without mem, candidate with: informational only.
        let cmp = compare(&no_mem, &old);
        assert!(!cmp.is_regression());
        assert!(cmp.notes.iter().any(|n| n.contains("newly present")));
        // Neither side has mem: silent.
        let cmp = compare(&no_mem, &no_mem);
        assert!(!cmp.is_regression());
        assert!(cmp.notes.is_empty());
    }

    #[test]
    fn identical_baselines_compare_clean() {
        let b = baseline(77);
        let cmp = compare(&b, &b);
        assert!(!cmp.is_regression());
        assert!(cmp.improvements.is_empty());
        assert!(cmp.render().contains("no change"));
    }

    #[test]
    fn counter_increase_is_a_regression_decrease_an_improvement() {
        let old = baseline(77);
        let worse = baseline(78);
        let cmp = compare(&old, &worse);
        assert!(cmp.is_regression());
        assert!(cmp.regressions[0].contains("backfill_candidates_scanned"));
        let better = baseline(76);
        let cmp = compare(&old, &better);
        assert!(!cmp.is_regression());
        assert_eq!(cmp.improvements.len(), 2, "both scenarios improved");
    }

    #[test]
    fn shape_mismatches_fail_the_gate() {
        let old = baseline(77);
        let mut other_machine = baseline(77);
        other_machine.machine = "blue_mountain".to_string();
        assert!(compare(&old, &other_machine).is_regression());
        let mut truncated_differently = baseline(77);
        truncated_differently.jobs_prefix = 500;
        assert!(compare(&old, &truncated_differently).is_regression());
        let mut missing = baseline(77);
        missing.scenarios.remove("faulted");
        assert!(compare(&old, &missing).is_regression());
    }
}
