//! The `guidelines` binary prints the advisory matrix at its default
//! tolerance and rejects a tolerance that is not a number of minutes.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_guidelines"))
        .args(args)
        .output()
        .expect("spawn guidelines")
}

#[test]
fn default_tolerance_prints_the_matrix() {
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("native-delay tolerance 15 min"), "{text}");
    for machine in ["Ross", "Blue Mountain", "Blue Pacific"] {
        assert!(text.contains(machine), "matrix lacks {machine}: {text}");
    }
}

#[test]
fn bad_tolerance_exits_2_with_usage() {
    for args in [&["abc"][..], &["-5"], &["15", "30"]] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: no matrix may print");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: guidelines"), "{args:?}: {err}");
    }
}
