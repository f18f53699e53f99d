//! Table 1: comparison of ASCI machines.
//!
//! The static columns come from [`machine::config`]; the utilization row is
//! *measured* by replaying each machine's (synthetic) log natively, so this
//! doubles as the calibration record for the whole reproduction.

use crate::Lab;
use analysis::Table;
use machine::config::all_machines;

/// Regenerate Table 1.
pub fn run(lab: &mut Lab) -> String {
    let mut t = Table::new(
        "Table 1 — Comparison of ASCI machines (measured over the synthetic logs)",
        &[
            "row",
            "Ross (Sandia)",
            "Blue Mountain (Los Alamos)",
            "Blue Pacific (Livermore)",
        ],
    );
    let machines = all_machines();
    let mut cells = |label: &str, f: &mut dyn FnMut(usize) -> String| {
        let row: Vec<String> = std::iter::once(label.to_string())
            .chain((0..3).map(f))
            .collect();
        t.row(&row);
    };
    cells("CPUs", &mut |i| machines[i].cpus.to_string());
    cells("clock GHz", &mut |i| {
        format!("{:.3}", machines[i].clock_ghz)
    });
    cells("TCycles", &mut |i| {
        format!("{:.3}", machines[i].tera_cycles())
    });
    cells("utilization (paper)", &mut |i| {
        format!("{:.3}", machines[i].target_utilization)
    });
    let delivered: Vec<f64> = machines
        .iter()
        .map(|cfg| lab.baseline(cfg).native_utilization())
        .collect();
    cells("utilization (measured)", &mut |i| {
        format!("{:.3}", delivered[i])
    });
    cells("times days", &mut |i| {
        format!("{:.1}", machines[i].log_days)
    });
    cells("jobs (paper log)", &mut |i| {
        machines[i].log_jobs.to_string()
    });
    let simulated: Vec<u64> = machines
        .iter()
        .map(|cfg| lab.baseline(cfg).native_submitted)
        .collect();
    cells("jobs (synthetic log)", &mut |i| simulated[i].to_string());
    cells("queue algorithm", &mut |i| {
        machines[i].queue.name().to_string()
    });

    let mut body = t.to_text();
    body.push_str(
        "\nNote: 'utilization (measured)' is the delivered native utilization of\n\
         the synthetic log replayed through each machine's scheduler personality;\n\
         the workload substrate was calibrated so it tracks the paper's value.\n",
    );
    body
}
