//! `BENCHMARK.json` (workloads, metrics, bounds, run length) and
//! `pins.json` (schedule digests at the default seed), compiled in so the
//! binaries read no file at run time.

use crate::json::{self, Value};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const PINS_JSON: &str = include_str!("../pins.json");

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    pub fn load() -> Result<Spec, String> {
        Spec::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let v = json::parse(text)?;
        let run_seconds = v
            .get("run_seconds")
            .and_then(Value::as_f64)
            .filter(|s| s.fract() == 0.0 && *s >= 1.0)
            .ok_or("run_seconds must be a positive whole number")? as u64;
        let workloads = list(&v, "workloads")?
            .iter()
            .map(|w| field(w, "name").map(str::to_string))
            .collect::<Result<_, _>>()?;
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            list(&v, key)?
                .iter()
                .map(|m| {
                    Ok(Metric {
                        name: field(m, "name")?.to_string(),
                        unit: field(m, "unit")?.to_string(),
                        lower_is_better: match field(m, "better")? {
                            "lower" => true,
                            "higher" => false,
                            other => {
                                return Err(format!(
                                    "better must be lower or higher, got {other:?}"
                                ))
                            }
                        },
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds,
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

fn list<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    v.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("missing list {key:?}"))
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing string {key:?}"))
}

/// The digests pinned for `workload` at the default seed, one per replica.
pub fn pinned_digests(workload: &str) -> Result<Vec<u64>, String> {
    let v = json::parse(PINS_JSON).map_err(|e| format!("pins.json: {e}"))?;
    let list = v
        .get("digests")
        .and_then(|d| d.get(workload))
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("pins.json: no digests for {workload}; run `benchmark pin`"))?;
    list.iter()
        .map(|d| {
            d.as_str()
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                .ok_or_else(|| format!("pins.json: bad digest {d:?} for {workload}"))
        })
        .collect()
}

/// Render the `pins.json` document for `digests` (per workload, per replica).
pub fn pins_document(seed: u64, digests: &[(&str, Vec<u64>)]) -> String {
    let members = digests
        .iter()
        .map(|(w, ds)| {
            let hexes = ds.iter().map(|d| Value::Str(format!("{d:016x}"))).collect();
            (w.to_string(), Value::Arr(hexes))
        })
        .collect();
    Value::Obj(vec![
        ("seed".into(), Value::Num(seed as f64)),
        ("digests".into(), Value::Obj(members)),
    ])
    .to_json()
}
