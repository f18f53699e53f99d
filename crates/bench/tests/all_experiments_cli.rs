//! The `all_experiments` binary rejects bad arguments before running any
//! experiment.

use std::process::{Command, Output};

fn run(arg: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_all_experiments"))
        .arg(arg)
        .output()
        .expect("spawn all_experiments")
}

#[test]
fn unknown_id_exits_2_and_lists_the_ids() {
    let out = run("table9");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may run");
    let err = String::from_utf8_lossy(&out.stderr);
    for id in ["table9", "table1", "ablation_recovery"] {
        assert!(err.contains(id), "stderr lacks {id}: {err}");
    }
}

#[test]
fn unwritable_output_exits_1_naming_the_path() {
    let path = "/nonexistent-dir/x.md";
    let out = run(path);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "nothing may run");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains(path), "stderr lacks the path: {err}");
}
