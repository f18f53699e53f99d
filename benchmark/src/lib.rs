//! End-to-end and per-layer benchmark of the interstitial-computing
//! simulator. `README.md` next to this package explains the workloads,
//! the metrics and how to run, trace and compare.

pub mod alloc;
pub mod compare;
pub mod json;
pub mod ledger;
pub mod spec;
pub mod stats;
pub mod timed;
pub mod traced;
pub mod workloads;

use json::Value;
use spec::{Metric, Spec};
use timed::Outcome;
use workloads::{Workload, DEFAULT_SEED};

/// The flags of one measurement:
/// `--workload NAME [--seed N] [--seconds S] [--trace 0|1]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Flags {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Flags {
    pub fn parse(args: &[String], default_seconds: u64) -> Result<Flags, String> {
        let (mut workload, mut seed, mut seconds, mut trace) =
            (None, DEFAULT_SEED, default_seconds, false);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::by_name(value).ok_or_else(|| {
                        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!("unknown workload {value:?} (one of {})", names.join(", "))
                    })?)
                }
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    seconds = value
                        .parse()
                        .ok()
                        .filter(|s| (1..=3600).contains(s))
                        .ok_or_else(bad)?
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Flags {
            workload: workload.ok_or("missing --workload")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// The result line: `correct`, `attempted`, `failed`, and every declared
/// metric with its unit, in declaration order. Errors if the measurement
/// produced a different set of metrics than `BENCHMARK.json` declares.
pub fn result_line(declared: &[Metric], outcome: &Outcome) -> Result<Value, String> {
    if let Some(extra) = outcome
        .metrics
        .keys()
        .find(|k| !declared.iter().any(|m| m.name == **k))
    {
        return Err(format!("metric {extra} is not declared in BENCHMARK.json"));
    }
    let metrics = declared
        .iter()
        .map(|m| {
            let value = *outcome
                .metrics
                .get(m.name.as_str())
                .ok_or_else(|| format!("metric {} was not measured", m.name))?;
            let entry = Value::Obj(vec![
                ("value".into(), Value::Num(value)),
                ("unit".into(), Value::Str(m.unit.clone())),
            ]);
            Ok((m.name.clone(), entry))
        })
        .collect::<Result<_, String>>()?;
    Ok(Value::Obj(vec![
        ("correct".into(), Value::Bool(outcome.failed == 0)),
        ("attempted".into(), Value::Num(outcome.attempted as f64)),
        ("failed".into(), Value::Num(outcome.failed as f64)),
        ("metrics".into(), Value::Obj(metrics)),
    ]))
}

/// Measure one workload in this process and print its result line last on
/// standard output.
pub fn measure(flags: &Flags) -> Result<(), String> {
    let spec = Spec::load()?;
    let (outcome, declared) = if flags.trace {
        if !alloc::counting() {
            return Err("per-layer metrics need the benchmark-traced binary".into());
        }
        let o = traced::run(flags.workload, flags.seed, flags.seconds)?;
        (o, &spec.per_layer)
    } else {
        let o = timed::run(flags.workload, flags.seed, flags.seconds)?;
        (o, &spec.end_to_end)
    };
    println!("{}", result_line(declared, &outcome)?.to_json());
    Ok(())
}
