//! Table 4 and Figure 3 — estimate-based ("fallible") interstitial
//! computing (§4.3/§4.3.1).
//!
//! Following the paper's methodology, short-term project makespans are not
//! simulated one by one: a *continual* interstitial run is performed once
//! per job shape, and each replication reads off the time for the next `N`
//! interstitial completions after a random start instant.

use crate::lab::REPLICATION_SEED;
use crate::{paper, Lab};
use analysis::figures::{survival_curve, xy_csv};
use analysis::Table;
use interstitial::experiment::{window_makespans, ReplicationSummary};
use interstitial::{theory, InterstitialPolicy, InterstitialProject};
use machine::config::{blue_mountain, blue_pacific};

/// Random window starts per project in Table 4 and Figure 3.
const SAMPLES: u32 = 500;

/// Table 4: average makespans for differently shaped projects on Blue
/// Mountain and Blue Pacific, with user-estimated runtimes.
pub fn table4(lab: &mut Lab) -> String {
    let bm = blue_mountain();
    let bp = blue_pacific();
    let mut t = Table::new(
        "Table 4 — Estimate-based project makespan (hours, mean ± std)",
        &[
            "PetaCycles",
            "kJobs",
            "CPU/job",
            "runtime s@1GHz",
            "BlueMt meas",
            "BlueMt paper",
            "BluePac meas",
            "BluePac paper",
        ],
    );
    for (row_idx, (label, project)) in InterstitialProject::table4_grid().iter().enumerate() {
        let _ = label;
        let (pc, kjobs, cpus, rt, bm_paper, bp_paper) = paper::TABLE4[row_idx];
        let mut cells = vec![
            format!("{pc}"),
            format!("{kjobs}"),
            format!("{cpus}"),
            format!("{rt}"),
        ];
        for (mi, cfg) in [&bm, &bp].into_iter().enumerate() {
            let run = lab.continual(
                cfg,
                project.cpus_per_job,
                project.runtime_at_1ghz,
                InterstitialPolicy::default(),
            );
            let seed = REPLICATION_SEED ^ ((mi as u64) << 24) ^ (row_idx as u64);
            let ms = window_makespans(&run, project.jobs, SAMPLES, seed);
            cells.push(ReplicationSummary::from(&ms).formatted());
        }
        // Interleave paper references.
        let bm_ref = format!("{:.1} ± {:.1}", bm_paper.0, bm_paper.1);
        let bp_ref = match bp_paper {
            Some((m, s)) => format!("{m:.0} ± {s:.0}"),
            None => "n/a*".to_string(),
        };
        let mut row = cells[..5].to_vec();
        row.push(bm_ref);
        row.push(cells[5].clone());
        row.push(bp_ref);
        t.row(&row);
    }
    let mut body = t.to_text();
    body.push_str(
        "\n* makespan ≥ log time (project cannot finish within the analyzed log).\n\
         Shape checks: estimate-based makespans exceed the omniscient Table 2 at\n\
         equal P; shorter/smaller jobs finish sooner within each project size; the\n\
         123-Pcycle configurations on Blue Pacific are n/a or approach the log\n\
         length itself (the paper reports all four as n/a).\n",
    );
    body
}

/// Figure 3: makespan CDF on Blue Mountain for the two 123-Pcycle 32-CPU
/// project shapes (32k × 458 s vs 4k × 3664 s).
pub fn figure3(lab: &mut Lab) -> String {
    let bm = blue_mountain();
    let mut body = String::new();
    let mut curves = Vec::new();
    let samples = figure3_samples(lab);
    for (&(jobs, rt, paper_mean, paper_std), ms) in paper::FIGURE3.iter().zip(samples) {
        let ok: Vec<f64> = ms.iter().flatten().copied().collect();
        let summary = ReplicationSummary::from(&ms);
        let project = InterstitialProject::per_paper(jobs, 32, rt);
        let normalized = project.runtime_on(&bm).as_secs();
        body.push_str(&format!(
            "project {jobs} jobs × 32 CPU × {normalized} s: measured {} h (paper {paper_mean:.0} ± {paper_std:.0} h), {} window samples, {} off-log\n",
            summary.formatted(),
            ok.len(),
            summary.failed,
        ));
        curves.push((normalized, survival_curve(&ok, 40)));
    }
    // Theory reference lines the figure draws.
    let project = InterstitialProject::per_paper(32_000, 32, 120.0);
    let ideal = theory::ideal_makespan_secs(&project, &bm) / 3_600.0;
    body.push_str(&format!(
        "theoretical minimum makespan (1/(1−U) line): {ideal:.0} h\n\n"
    ));
    for (normalized, curve) in curves {
        body.push_str(&format!(
            "survival curve P(makespan > x), {normalized} s jobs:\n"
        ));
        body.push_str(&xy_csv(&curve, "makespan_h", "p_exceeds"));
        body.push('\n');
    }
    body.push_str(
        "Shape checks: long right tail on both; the longer-job project has the\n\
         larger spread (σ), matching the paper's 157 h vs 227 h.\n",
    );
    body
}

/// Figure 3's window makespans (hours; `None` when the window runs off the
/// log), one sample set per project of [`paper::FIGURE3`], in that order.
pub fn figure3_samples(lab: &mut Lab) -> Vec<Vec<Option<f64>>> {
    let bm = blue_mountain();
    (paper::FIGURE3.iter().enumerate())
        .map(|(i, &(jobs, rt, _, _))| {
            let run = lab.continual(&bm, 32, rt, InterstitialPolicy::default());
            window_makespans(&run, jobs, SAMPLES, REPLICATION_SEED ^ (i as u64) << 8)
        })
        .collect()
}
