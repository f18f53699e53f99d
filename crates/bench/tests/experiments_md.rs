//! EXPERIMENTS.md is the suite's committed output: these tests read it as
//! text and hold the experiment code to it.

use bench::experiments::REGISTRY;
use bench::Lab;

const DOC: &str = include_str!("../../../EXPERIMENTS.md");

/// `(id, title, body)` of each `## <id> — <title>` section, in file order.
fn sections() -> Vec<(&'static str, &'static str, &'static str)> {
    DOC.split("\n## ")
        .skip(1)
        .map(|section| {
            let (heading, rest) = section.split_once('\n').expect("heading line");
            let (id, title) = heading.split_once(" — ").expect("`id — title` heading");
            let body = rest
                .strip_prefix("\n```text\n")
                .and_then(|b| b.split_once("\n```\n"))
                .unwrap_or_else(|| panic!("section {id} has no fenced body"))
                .0;
            (id, title, body)
        })
        .collect()
}

fn body_of(id: &str) -> &'static str {
    let found = sections().into_iter().find(|s| s.0 == id);
    found.unwrap_or_else(|| panic!("no section {id}")).2
}

#[test]
fn sections_are_the_registry_in_order() {
    let ids: Vec<&str> = REGISTRY.iter().map(|e| e.0).collect();
    for (i, id) in ids.iter().enumerate() {
        assert!(!ids[..i].contains(id), "duplicate id {id}");
    }
    let headings: Vec<(&str, &str)> = sections().iter().map(|s| (s.0, s.1)).collect();
    let registry: Vec<(&str, &str)> = REGISTRY.iter().map(|e| (e.0, e.1)).collect();
    assert_eq!(headings, registry);
}

#[test]
fn table1_alone_matches_its_section() {
    let (_, _, run) = REGISTRY.iter().find(|e| e.0 == "table1").unwrap();
    let body = run(&mut Lab::new());
    assert_eq!(body.trim_end(), body_of("table1"));
}
