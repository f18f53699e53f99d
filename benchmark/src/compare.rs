//! `benchmark compare A.jsonl… -- B.jsonl…`: each end-to-end metric of each
//! workload, parent (A) runs against change (B) runs, with a verdict.

use crate::json::{self, Value};
use crate::spec::{Metric, Spec};
use crate::stats::{median, quartiles, relative_spread};

/// `setup_s` is a few milliseconds on some workloads; below this many
/// seconds a change in it is not counted as worse.
const SETUP_FLOOR_S: f64 = 0.002;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B wins at least 9 of 10 pairs and the medians differ by more than
    /// A's interquartile range.
    Improved,
    /// Within the bound, and not shown better.
    Same,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A side's interquartile range exceeds the bound, and not every B run
    /// beats every A run.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Same => "same",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Whether `x` reads better than `y` on `metric`.
fn better(metric: &Metric, x: f64, y: f64) -> bool {
    if metric.lower_is_better {
        x < y
    } else {
        x > y
    }
}

/// Pairs `(a[i], b[i])` that B wins.
fn wins(metric: &Metric, a: &[f64], b: &[f64]) -> usize {
    a.iter()
        .zip(b)
        .filter(|(&x, &y)| better(metric, y, x))
        .count()
}

/// The verdict on one metric given A's and B's runs; pairs are `(a[i], b[i])`.
pub fn verdict(metric: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let bound = metric.bound.unwrap_or(0.0);
    let (ma, mb) = (median(a), median(b));
    let all_b_better = b.iter().all(|&y| a.iter().all(|&x| better(metric, y, x)));
    if (relative_spread(a) > bound || relative_spread(b) > bound) && !all_b_better {
        return Verdict::Unresolved;
    }
    let mut allowed = bound * ma.abs();
    if metric.name == "setup_s" {
        allowed = allowed.max(SETUP_FLOOR_S);
    }
    let worse_by = if metric.lower_is_better {
        mb - ma
    } else {
        ma - mb
    };
    if worse_by > allowed {
        return Verdict::Worse;
    }
    let pairs = a.len().min(b.len());
    let [q1, _, q3] = quartiles(a);
    if pairs > 0
        && wins(metric, a, b) * 10 >= pairs * 9
        && better(metric, mb, ma)
        && (mb - ma).abs() > q3 - q1
    {
        Verdict::Improved
    } else {
        Verdict::Same
    }
}

/// Values of `metric` on `workload` across result objects.
fn values(runs: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| {
            r.get("results")?
                .get(workload)?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// Read every line of every file as one result object of `benchmark run`.
pub fn load(paths: &[String]) -> Result<Vec<Value>, String> {
    let mut runs = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        for (n, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let v = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
            if v.get("trace").and_then(Value::as_f64) != Some(0.0) {
                return Err(format!(
                    "{path}:{}: not an end-to-end result of `benchmark run`",
                    n + 1
                ));
            }
            runs.push(v);
        }
    }
    Ok(runs)
}

/// Print the comparison table; returns whether any row is worse.
pub fn report(spec: &Spec, a: &[Value], b: &[Value]) -> bool {
    println!(
        "{:<22} {:<13} {:>40} {:>40} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins"
    );
    let mut any_worse = false;
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let (va, vb) = (values(a, w, &m.name), values(b, w, &m.name));
            if va.is_empty() || vb.is_empty() {
                println!("{w:<22} {:<13} missing from one side", m.name);
                continue;
            }
            let v = verdict(m, &va, &vb);
            any_worse |= v == Verdict::Worse;
            let cell = |x: &[f64]| {
                let q = quartiles(x);
                format!("{:.4} [{:.4}, {:.4}]", median(x), q[0], q[2])
            };
            let pairs = format!("{}/{}", wins(m, &va, &vb), va.len().min(vb.len()));
            println!(
                "{w:<22} {:<13} {:>40} {:>40} {pairs:>6}  {}",
                m.name,
                cell(&va),
                cell(&vb),
                v.label()
            );
        }
    }
    any_worse
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, lower: bool, bound: f64) -> Metric {
        Metric {
            name: name.into(),
            unit: "ms".into(),
            lower_is_better: lower,
            bound: Some(bound),
        }
    }

    const A: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 99.9, 100.3, 100.0,
    ];

    #[test]
    fn a_clear_win_is_improved() {
        let b: Vec<f64> = A.iter().map(|x| x * 0.9).collect();
        assert_eq!(
            verdict(&metric("op_ms_p50", true, 0.05), &A, &b),
            Verdict::Improved
        );
        let faster: Vec<f64> = A.iter().map(|x| x * 1.1).collect();
        assert_eq!(
            verdict(&metric("jobs_per_s", false, 0.05), &A, &faster),
            Verdict::Improved
        );
    }

    #[test]
    fn a_win_inside_the_noise_is_same() {
        // B wins every pair but by less than A's interquartile range.
        let b: Vec<f64> = A.iter().map(|x| x - 0.01).collect();
        assert_eq!(
            verdict(&metric("op_ms_p50", true, 0.05), &A, &b),
            Verdict::Same
        );
        // B wins only 8 of 10 pairs.
        let mut b: Vec<f64> = A.iter().map(|x| x * 0.9).collect();
        b[0] = A[0] + 0.5;
        b[1] = A[1] + 0.5;
        assert_eq!(
            verdict(&metric("op_ms_p50", true, 0.05), &A, &b),
            Verdict::Same
        );
    }

    #[test]
    fn a_loss_beyond_the_bound_is_worse() {
        let b: Vec<f64> = A.iter().map(|x| x * 1.08).collect();
        assert_eq!(
            verdict(&metric("op_ms_p50", true, 0.05), &A, &b),
            Verdict::Worse
        );
        let b: Vec<f64> = A.iter().map(|x| x * 1.03).collect();
        assert_eq!(
            verdict(&metric("op_ms_p50", true, 0.05), &A, &b),
            Verdict::Same
        );
        let slower: Vec<f64> = A.iter().map(|x| x * 0.9).collect();
        assert_eq!(
            verdict(&metric("jobs_per_s", false, 0.05), &A, &slower),
            Verdict::Worse
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [
            80.0, 120.0, 90.0, 110.0, 100.0, 70.0, 130.0, 95.0, 105.0, 100.0,
        ];
        let b: Vec<f64> = noisy.iter().map(|x| x * 1.2).collect();
        assert_eq!(
            verdict(&metric("op_ms_p50", true, 0.05), &noisy, &b),
            Verdict::Unresolved
        );
        // Unless every B run beats every A run.
        let b = [10.0; 10];
        assert_eq!(
            verdict(&metric("op_ms_p50", true, 0.05), &noisy, &b),
            Verdict::Improved
        );
    }

    #[test]
    fn setup_time_has_an_absolute_floor() {
        let a = [0.0010; 10];
        let b = [0.0025; 10];
        assert_eq!(
            verdict(&metric("setup_s", true, 0.25), &a, &b),
            Verdict::Same
        );
        let b = [0.0040; 10];
        assert_eq!(
            verdict(&metric("setup_s", true, 0.25), &a, &b),
            Verdict::Worse
        );
    }
}
