//! `BENCHMARK.json` and `pins.json` agree with the code that measures.

use benchmark::spec::{pinned_digests, Spec};
use benchmark::workloads::{Workload, REPLICAS};
use benchmark::{timed, traced};

fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_parses_and_every_name_is_plain() {
    let spec = Spec::load().unwrap();
    assert!((1..=60).contains(&spec.run_seconds));
    let names: Vec<&str> = spec
        .workloads
        .iter()
        .map(String::as_str)
        .chain(
            spec.end_to_end
                .iter()
                .chain(&spec.per_layer)
                .map(|m| m.name.as_str()),
        )
        .collect();
    for name in &names {
        assert!(valid_name(name), "{name:?}");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
    for m in spec.end_to_end.iter().chain(&spec.per_layer) {
        assert!(m.unit.len() <= 16, "{}", m.unit);
        assert!(m
            .unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
    }
}

#[test]
fn declared_metrics_are_the_measured_ones() {
    let spec = Spec::load().unwrap();
    let e2e: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(e2e, timed::METRICS);
    let layers: Vec<&str> = spec.per_layer.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(layers, traced::METRICS);
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(spec.workloads, workloads);
}

#[test]
fn bounds_are_shares_and_setup_time_has_the_largest() {
    let spec = Spec::load().unwrap();
    let setup = spec.metric("setup_s").unwrap();
    assert!(setup.lower_is_better);
    assert_eq!(setup.unit, "s");
    for m in &spec.end_to_end {
        let bound = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
        assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", m.name);
        assert!(bound <= setup.bound.unwrap(), "{}", m.name);
    }
    assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
}

#[test]
fn every_replica_has_a_pinned_digest() {
    for w in Workload::ALL {
        let want = if w == Workload::Swf100k { 1 } else { REPLICAS };
        assert_eq!(
            pinned_digests(w.name()).unwrap().len(),
            want,
            "{}",
            w.name()
        );
    }
}
