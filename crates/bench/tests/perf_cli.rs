//! The `perf` binary rejects an output directory it cannot create before
//! replaying anything.

use std::process::Command;

#[test]
fn out_dir_under_a_regular_file_exits_1_before_any_replay() {
    let file = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perf_out_is_a_file");
    std::fs::write(&file, "not a directory").expect("create the blocking file");
    let out_dir = file.join("sub");
    let out = Command::new(env!("CARGO_BIN_EXE_perf"))
        .env("PERF_OUT_DIR", &out_dir)
        .output()
        .expect("spawn perf");
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "nothing may run");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains(&*out_dir.to_string_lossy()),
        "stderr lacks the path: {err}"
    );
}
