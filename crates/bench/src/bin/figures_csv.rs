//! Dump every figure's numeric series as CSV files for external plotting,
//! computed from the same data as EXPERIMENTS.md.
//!
//! Usage: figures_csv `[output_dir]`   (default: ./figures)

use analysis::figures::{survival_curve, utilization_series, wait_histogram, xy_csv};
use analysis::metrics::largest_fraction;
use bench::experiments::fallible::figure3_samples;
use bench::Lab;
use interstitial::InterstitialPolicy;
use machine::config::blue_mountain;
use simkit::time::SimDuration;
use std::path::Path;
use std::process::exit;

fn fail(path: &Path, e: std::io::Error) -> ! {
    eprintln!("cannot write {}: {e}", path.display());
    exit(1);
}

fn write(dir: &Path, name: &str, text: &str) {
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap_or_else(|e| fail(&path, e));
    println!("wrote {}", path.display());
}

fn main() {
    let dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "figures".to_string());
    let dir = Path::new(&dir);
    std::fs::create_dir_all(dir).unwrap_or_else(|e| fail(dir, e));
    let mut lab = Lab::new();

    // Figure 2: theory vs measured scatter of the Table 2 grid.
    write(
        dir,
        "figure2_scatter.csv",
        &xy_csv(&lab.omniscient().points, "theory_h", "measured_h"),
    );

    // Figure 3: makespan survival curves for the two Blue Mountain projects.
    for (ms, tag) in figure3_samples(&mut lab).into_iter().zip(["458s", "3664s"]) {
        let ok: Vec<f64> = ms.into_iter().flatten().collect();
        let curve = survival_curve(&ok, 60);
        write(
            dir,
            &format!("figure3_survival_{tag}.csv"),
            &xy_csv(&curve, "makespan_h", "p_exceeds"),
        );
    }

    // Figure 4: hourly utilization series, baseline vs continual.
    let bm = blue_mountain();
    let baseline = lab.baseline(&bm);
    let continual = lab.continual(&bm, 32, 120.0, InterstitialPolicy::default());
    for (out, tag) in [
        (&baseline, "native_only"),
        (&continual, "with_interstitial"),
    ] {
        let series = utilization_series(
            &out.completed,
            bm.cpus,
            out.horizon,
            SimDuration::from_hours(1),
            true,
            true,
        );
        let pts: Vec<(f64, f64)> = series
            .iter()
            .enumerate()
            .map(|(h, &u)| (h as f64, u))
            .collect();
        write(
            dir,
            &format!("figure4_utilization_{tag}.csv"),
            &xy_csv(&pts, "hour", "utilization"),
        );
    }

    // Figures 5 and 6: wait histograms (probability per log10 decade).
    for (largest, tag) in [(false, "figure5_all"), (true, "figure6_largest5pct")] {
        let mut csv = String::from("case,decade,probability\n");
        for (label, out) in [("baseline", &baseline), ("458s", &continual)] {
            let natives: Vec<_> = out
                .completed
                .iter()
                .filter(|c| !c.job.class.is_interstitial())
                .collect();
            let h = if largest {
                let top = largest_fraction(&natives, 0.05);
                wait_histogram(top.iter())
            } else {
                wait_histogram(natives.into_iter())
            };
            for (bin, p) in h.labels().iter().zip(h.probabilities()) {
                csv.push_str(&format!("{label},{bin},{p}\n"));
            }
        }
        write(dir, &format!("{tag}.csv"), &csv);
    }
    println!("done.");
}
