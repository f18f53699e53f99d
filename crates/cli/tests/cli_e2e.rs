//! End-to-end tests driving the built `interstitial` binary.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_interstitial"))
}

fn run_ok(args: &[&str]) -> String {
    let out = bin().args(args).output().expect("spawn binary");
    assert!(
        out.status.success(),
        "exit {:?}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

#[test]
fn help_shows_usage() {
    let text = run_ok(&["help"]);
    assert!(text.contains("USAGE"));
    assert!(text.contains("simulate"));
}

#[test]
fn machines_roster() {
    let text = run_ok(&["machines"]);
    assert!(text.contains("Blue Mountain"));
    assert!(text.contains("DPCS"));
}

#[test]
fn generate_stats_simulate_pipeline() {
    let dir = std::env::temp_dir().join("interstitial-cli-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("pipeline.swf");
    let msg = run_ok(&[
        "generate",
        "--machine",
        "ross",
        "--seed",
        "3",
        "--out",
        log.to_str().unwrap(),
    ]);
    assert!(msg.contains("wrote"));

    let stats = run_ok(&["stats", log.to_str().unwrap()]);
    assert!(stats.contains("arrival dispersion"), "{stats}");

    let sim = run_ok(&[
        "simulate",
        "--machine",
        "ross",
        log.to_str().unwrap(),
        "--shape",
        "32x120",
    ]);
    assert!(sim.contains("overall utilization"), "{sim}");
    let _ = std::fs::remove_file(log);
}

#[test]
fn advise_prints_verdict() {
    let text = run_ok(&[
        "advise",
        "--machine",
        "bm",
        "--jobs",
        "1000",
        "--shape",
        "32x120",
    ]);
    assert!(text.contains("verdict:"), "{text}");
}

#[test]
fn errors_exit_nonzero_with_message() {
    let out = bin().args(["simulate"]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "{stderr}");

    let out = bin().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = bin()
        .args([
            "simulate",
            "--machine",
            "ross",
            "--faults",
            "mtbf=0,mttr=60,nodes=4",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("error: --faults: mtbf"), "{stderr}");
    assert_eq!(stderr.matches("--faults").count(), 1, "{stderr}");
}

#[test]
fn no_args_prints_help_to_stderr() {
    let out = bin().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}
