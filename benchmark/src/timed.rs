//! The end-to-end measurement of one workload: set-up, one untimed warm-up
//! op, then back-to-back ops (a closed loop with one client) until the run
//! length is spent.

use crate::stats::{median, percentile, samples_beyond};
use crate::workloads::{Checker, Inputs, Op, Workload};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Set-up runs this many times; `setup_s` is the median.
pub const SETUP_REPS: usize = 9;

/// The end-to-end metrics, in `BENCHMARK.json` order. The op-time tail is
/// printed to standard error only: on a shared 2-core host its run-to-run
/// spread (14–37% at p80) is wider than any bound `BENCHMARK.json` may set.
pub const METRICS: [&str; 4] = ["op_ms_p50", "jobs_per_s", "setup_s", "peak_rss_mib"];

/// What a run reports besides its metrics.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

/// Run `op` under `catch_unwind`, then check it. A panic, a digest
/// mismatch or a broken invariant is an `Err` and counts as a failed op.
pub fn attempt(
    workload: Workload,
    inputs: &Inputs,
    i: usize,
    profiled: bool,
    checker: &mut Checker,
) -> (Duration, Result<Op, String>) {
    let t = Instant::now();
    let op = guarded(|| Ok(workload.op(inputs, i, profiled)));
    let wall = t.elapsed();
    let checked = op.and_then(|op| checker.check(&op).map(|()| op));
    if let Err(e) = &checked {
        eprintln!("{}: op {i} failed: {e}", workload.name());
    }
    (wall, checked)
}

/// `f()`, with a panic turned into an `Err` carrying its message.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string payload".to_string());
        Err(format!("panicked: {msg}"))
    })
}

/// Build the inputs [`SETUP_REPS`] times; returns the last build and the
/// median build time in seconds.
pub fn setup(workload: Workload, seed: u64) -> Result<(Inputs, f64), String> {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        // Free the previous build first, so peak memory holds one copy.
        drop(inputs.take());
        let t = Instant::now();
        inputs = Some(workload.setup(seed)?);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok((inputs.expect("SETUP_REPS > 0"), median(&secs)))
}

pub fn run(workload: Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let (inputs, setup_s) = setup(workload, seed)?;
    let mut checker = Checker::new(workload, seed, inputs.replicas.len())?;
    let (_, warm) = attempt(workload, &inputs, 0, false, &mut checker);
    let mut failed = u64::from(warm.is_err());
    let mut op_ms = Vec::new();
    // Completed jobs per second of each op; a failed op completed none.
    let mut rates = Vec::new();
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    while start.elapsed() < budget {
        let (wall, op) = attempt(workload, &inputs, op_ms.len() + 1, false, &mut checker);
        op_ms.push(wall.as_secs_f64() * 1e3);
        match op {
            Ok(op) => rates.push(op.jobs() as f64 / wall.as_secs_f64()),
            Err(_) => {
                rates.push(0.0);
                failed += 1;
            }
        }
    }
    eprintln!(
        "{}: {} ops, p50 {:.1} ms, p90 {:.1} ms ({} ops beyond it)",
        workload.name(),
        op_ms.len(),
        median(&op_ms),
        percentile(&op_ms, 0.9),
        samples_beyond(op_ms.len(), 0.9)
    );
    let metrics = BTreeMap::from([
        ("op_ms_p50", median(&op_ms)),
        ("jobs_per_s", median(&rates)),
        ("setup_s", setup_s),
        ("peak_rss_mib", peak_rss_kib()? as f64 / 1024.0),
    ]);
    Ok(Outcome {
        attempted: op_ms.len() as u64 + 1,
        failed,
        metrics,
    })
}

/// The process's peak resident set (`VmHWM`), in KiB.
fn peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
