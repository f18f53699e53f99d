//! `benchmark` — end-to-end measurement of the simulator.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! benchmark run   [--seed N] [--seconds S] [--out FILE.jsonl]
//! benchmark trace [--seed N] [--seconds S] [--out FILE.jsonl]
//! benchmark compare A.jsonl... -- B.jsonl...
//! benchmark pin
//! ```
//!
//! The first form measures one workload and prints one JSON result line
//! last; with `--trace 1` it hands over to `benchmark-traced`, built next to
//! this binary. `run` and `trace` measure every workload, one child process
//! after another, and append one line holding all results to `--out`.

use benchmark::json::Value;
use benchmark::spec::Spec;
use benchmark::workloads::{Workload, DEFAULT_SEED};
use benchmark::{compare, spec, Flags};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};

const USAGE: &str = "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
       benchmark run|trace [--seed N] [--seconds S] [--out FILE.jsonl]
       benchmark compare A.jsonl... -- B.jsonl...
       benchmark pin";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => suite(&args[1..], false),
        Some("trace") => suite(&args[1..], true),
        Some("compare") => compare_cmd(&args[1..]),
        Some("pin") => pin(),
        Some(flag) if flag.starts_with("--") => one(&args),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    }
}

fn sibling(name: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    Ok(exe.with_file_name(name))
}

fn one(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(args, Spec::load()?.run_seconds)?;
    if flags.trace {
        let traced = sibling("benchmark-traced")?;
        let status = Command::new(&traced)
            .args(args)
            .status()
            .map_err(|e| format!("running {}: {e}", traced.display()))?;
        return Ok(status.code().unwrap_or(1));
    }
    benchmark::measure(&flags)?;
    Ok(0)
}

/// Every workload, each in a child process of its own so peak RSS is the
/// workload's, one after another so they never share the cores.
fn suite(args: &[String], trace: bool) -> Result<i32, String> {
    let spec = Spec::load()?;
    let (mut seed, mut seconds, mut out) =
        (DEFAULT_SEED.to_string(), spec.run_seconds.to_string(), None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        match flag.as_str() {
            "--seed" => seed = value,
            "--seconds" => seconds = value,
            "--out" => out = Some(value),
            _ => return Err(format!("unknown flag {flag:?}\n{USAGE}")),
        }
    }
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let declared = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut results = Vec::new();
    for w in Workload::ALL {
        let child = Command::new(&exe)
            .args([
                "--workload",
                w.name(),
                "--seed",
                &seed,
                "--seconds",
                &seconds,
            ])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("running {}: {e}", exe.display()))?;
        if !child.status.success() {
            return Err(format!("{} exited with {}", w.name(), child.status));
        }
        let stdout = String::from_utf8_lossy(&child.stdout);
        let line = stdout
            .lines()
            .last()
            .ok_or_else(|| format!("{} printed no result", w.name()))?;
        let result = benchmark::json::parse(line).map_err(|e| format!("{}: {e}", w.name()))?;
        println!(
            "## {} (seed {seed}): {} ops attempted, {} failed",
            w.name(),
            result
                .get("attempted")
                .and_then(Value::as_f64)
                .unwrap_or(0.0),
            result.get("failed").and_then(Value::as_f64).unwrap_or(0.0),
        );
        for m in declared {
            let value = result
                .get("metrics")
                .and_then(|ms| ms.get(&m.name))
                .and_then(|v| v.get("value"))
                .and_then(Value::as_f64);
            if let Some(value) = value {
                println!("  {:<34} {value:>14.4} {}", m.name, m.unit);
            }
        }
        results.push((w.name().to_string(), result));
    }
    let doc = Value::Obj(vec![
        (
            "seed".into(),
            Value::Num(seed.parse::<u64>().map_err(|_| "bad --seed")? as f64),
        ),
        ("trace".into(), Value::Num(if trace { 1.0 } else { 0.0 })),
        ("results".into(), Value::Obj(results)),
    ])
    .to_json();
    if let Some(path) = out {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(file, "{doc}").map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{doc}");
    Ok(0)
}

fn compare_cmd(args: &[String]) -> Result<i32, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or_else(|| format!("compare needs `--` between the A and B files\n{USAGE}"))?;
    let (a, b) = (&args[..split], &args[split + 1..]);
    if a.is_empty() || b.is_empty() {
        return Err(format!(
            "compare needs files on both sides of `--`\n{USAGE}"
        ));
    }
    let spec = Spec::load()?;
    let worse = compare::report(&spec, &compare::load(a)?, &compare::load(b)?);
    Ok(if worse { 1 } else { 0 })
}

/// Print `pins.json` for the current code: every replica's digest at the
/// default seed.
fn pin() -> Result<i32, String> {
    let mut digests = Vec::new();
    for w in Workload::ALL {
        let inputs = w.setup(DEFAULT_SEED)?;
        let ds = (0..inputs.replicas.len())
            .map(|r| w.op(&inputs, r, false).digest())
            .collect();
        digests.push((w.name(), ds));
    }
    println!("{}", spec::pins_document(DEFAULT_SEED, &digests));
    Ok(0)
}
