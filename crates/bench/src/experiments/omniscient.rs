//! Table 2, Table 3 and Figure 2 — omniscient interstitial computing (§4.1–4.2).

use crate::lab::REPLICATION_SEED;
use crate::{paper, Lab};
use analysis::figures::xy_csv;
use analysis::Table;
use interstitial::experiment::{omniscient_makespans, ReplicationSummary};
use interstitial::{theory, InterstitialProject};
use machine::config::all_machines;
use machine::MachineConfig;

/// How far past the log end the free profile is tiled: Blue Pacific's
/// 123-Pcycle projects average ≈1000 h against a 1512 h log, so drops near
/// the end need several extra log-lengths of steady-state load.
const PROFILE_EXTEND: u32 = 5;

/// Random project starts per (machine, project) cell of Table 2, and per
/// job shape of the breakage sweep.
pub(crate) const REPS: u32 = 20;

/// All Table 2 measurements, which Table 3 and Figure 2 also read (the
/// [`Lab`] computes them once).
pub struct OmniscientData {
    /// (project label, project, per-machine replication summaries).
    pub rows: Vec<(&'static str, InterstitialProject, Vec<ReplicationSummary>)>,
    /// Scatter points (theory hours, measured hours), one per successful rep.
    pub points: Vec<(f64, f64)>,
    /// Machines in column order.
    pub machines: Vec<MachineConfig>,
}

/// Run the 3 machines × 6 projects × `REPS` random-start grid.
pub fn compute(lab: &mut Lab) -> OmniscientData {
    let machines = all_machines();
    let mut rows = Vec::new();
    let mut points = Vec::new();
    for (label, project) in InterstitialProject::table2_grid() {
        let mut summaries = Vec::new();
        for (mi, cfg) in machines.iter().enumerate() {
            let baseline = lab.baseline(cfg);
            let seed = REPLICATION_SEED ^ ((mi as u64) << 32) ^ project.jobs;
            let makespans = omniscient_makespans(&baseline, &project, REPS, seed, PROFILE_EXTEND);
            let theory_h = theory::ideal_makespan_secs(&project, cfg) / 3_600.0;
            for m in makespans.iter().flatten() {
                points.push((theory_h, *m));
            }
            summaries.push(ReplicationSummary::from(&makespans));
        }
        rows.push((label, project, summaries));
    }
    OmniscientData {
        rows,
        points,
        machines,
    }
}

/// Table 2: omniscient project makespans, paper vs measured.
pub fn table2(lab: &mut Lab) -> String {
    let data = lab.omniscient();
    let mut t = Table::new(
        "Table 2 — Omniscient interstitial project makespan (hours, mean ± std)",
        &[
            "PetaCycles",
            "kJobs",
            "CPU/job",
            "Ross meas",
            "Ross paper",
            "BlueMt meas",
            "BlueMt paper",
            "BluePac meas",
            "BluePac paper",
        ],
    );
    for ((_, project, summaries), paper_row) in data.rows.iter().zip(paper::TABLE2) {
        let (_, kjobs, cpus, paper_cells) = paper_row;
        let mut row = vec![
            format!("{:.1}", project.peta_cycles()),
            format!("{kjobs}"),
            format!("{cpus}"),
        ];
        for (s, (pm, ps)) in summaries.iter().zip(paper_cells.iter()) {
            row.push(s.formatted());
            row.push(format!("{pm:.1} ± {ps:.1}"));
        }
        t.row(&row);
    }
    let mut body = t.to_text();
    body.push_str(
        "\nShape checks: Blue Pacific ≫ Blue Mountain ≈ Ross at equal project size;\n\
         32-CPU ≈ 1-CPU except on Blue Pacific (breakage); makespan ≈ linear in P.\n",
    );
    body
}

/// Table 3: breakage — 32-CPU vs 1-CPU makespan ratios, theory vs measured.
pub fn table3(lab: &mut Lab) -> String {
    let data = lab.omniscient();
    let mut t = Table::new(
        "Table 3 — 1-CPU vs 32-CPU jobs: breakage correction",
        &["row", "Ross", "Blue Mountain", "Blue Pacific"],
    );
    let theory_row: Vec<String> = data
        .machines
        .iter()
        .map(|m| format!("{:.3}", theory::breakage_factor(m, 32)))
        .collect();
    t.row(
        &std::iter::once("Theory (measured formulas)".to_string())
            .chain(theory_row)
            .collect::<Vec<_>>(),
    );
    t.row_strs(&[
        "Theory (paper)",
        &format!("{:.3}", paper::TABLE3_THEORY[0]),
        &format!("{:.3}", paper::TABLE3_THEORY[1]),
        &format!("{:.3}", paper::TABLE3_THEORY[2]),
    ]);
    // Measured: mean over the three project sizes of (32-CPU mean makespan /
    // 1-CPU mean makespan) per machine.
    let mut measured = [Vec::new(), Vec::new(), Vec::new()];
    for pair in data.rows.chunks(2) {
        if pair.len() < 2 {
            continue;
        }
        let (_, _, one_cpu) = &pair[0];
        let (_, _, thirty_two) = &pair[1];
        for mi in 0..3 {
            let a = one_cpu[mi].stats.mean();
            let b = thirty_two[mi].stats.mean();
            if a > 0.0 && one_cpu[mi].stats.count() > 0 && thirty_two[mi].stats.count() > 0 {
                measured[mi].push(b / a);
            }
        }
    }
    let measured_row: Vec<String> = measured
        .iter()
        .map(|rs| {
            if rs.is_empty() {
                "n/a".to_string()
            } else {
                format!("{:.3}", rs.iter().sum::<f64>() / rs.len() as f64)
            }
        })
        .collect();
    t.row(
        &std::iter::once("Actual (measured Table 2)".to_string())
            .chain(measured_row)
            .collect::<Vec<_>>(),
    );
    t.row_strs(&[
        "Actual (paper Table 2)",
        &format!("{:.3}", paper::TABLE3_ACTUAL[0]),
        &format!("{:.3}", paper::TABLE3_ACTUAL[1]),
        &format!("{:.3}", paper::TABLE3_ACTUAL[2]),
    ]);
    let mut body = t.to_text();
    body.push_str(
        "\nShape check: breakage ≈ 1.02–1.04 on Ross/Blue Mountain, noticeably\n\
         larger on Blue Pacific whose ~86 spare CPUs sit just under the 3-job\n\
         threshold for 32-CPU work.\n",
    );
    body
}

/// Figure 2: measured vs theoretical makespan scatter + the §4.2 fit.
pub fn figure2(lab: &mut Lab) -> String {
    let data = lab.omniscient();
    // Fit the per-(machine, project) mean makespans in seconds, as the
    // paper fits its Table 2 entries; the per-replication points remain in
    // the scatter.
    let mut secs: Vec<(f64, f64)> = Vec::new();
    for (_, project, summaries) in &data.rows {
        for (cfg, s) in data.machines.iter().zip(summaries) {
            if s.stats.count() > 0 {
                secs.push((
                    theory::ideal_makespan_secs(project, cfg),
                    s.stats.mean() * 3_600.0,
                ));
            }
        }
    }
    let fit = theory::fit_measured(&secs);
    let mut body = String::new();
    match fit {
        Some(f) => {
            let rel = simkit::stats::mean_relative_error(&secs, &f);
            body.push_str(&format!(
                "fit: Makespan(sec) = {:.0} + {:.3}·P/(nC(1−U))   R²={:.3}  mean|rel err|={:.0}%\n",
                f.intercept,
                f.slope,
                f.r_squared,
                rel * 100.0
            ));
            body.push_str(&format!(
                "paper:              = {:.0} + {:.2}·P/(nC(1−U))            (±{:.0}%)\n\n",
                paper::FIT_OFFSET_SECS,
                paper::FIT_SLOPE,
                paper::FIT_REL_ERR * 100.0
            ));
        }
        None => body.push_str("fit: insufficient points\n"),
    }
    body.push_str("scatter (theory hours, measured hours), 1-CPU and 32-CPU runs:\n");
    body.push_str(&xy_csv(&data.points, "theory_h", "measured_h"));
    body
}
