//! Tables 5–8 and Figures 4–6 — continual interstitial computing (§4.3.2).

use crate::{paper, Lab};
use analysis::figures::{ascii_bars, ascii_chart, downsample, utilization_series, wait_histogram};
use analysis::metrics::{largest_fraction, wait_stats, NativeImpact};
use analysis::tables::fmt_k;
use analysis::Table;
use interstitial::{InterstitialPolicy, SimOutput};
use machine::config::{blue_mountain, blue_pacific, ross};
use machine::MachineConfig;
use simkit::time::SimDuration;

/// Measured analogue of a [`paper::ContinualRow`].
fn measure(out: &SimOutput) -> paper::ContinualRow {
    let impact = NativeImpact::of(&out.completed);
    paper::ContinualRow {
        interstitial: out.interstitial_completed(),
        native: out.native_throughput_in_window(),
        overall_util: out.overall_utilization(),
        native_util: out.native_utilization(),
        median_wait_all: impact.all.median_wait,
        median_wait_largest: impact.largest.median_wait,
    }
}

fn continual_table(
    title: &str,
    cfg: &MachineConfig,
    lab: &mut Lab,
    runtimes: [f64; 2],
    paper_rows: &[paper::ContinualRow; 3],
) -> Table {
    let norm0 = cfg.normalize_runtime(runtimes[0]).as_secs();
    let norm1 = cfg.normalize_runtime(runtimes[1]).as_secs();
    let mut t = Table::new(
        title.to_string(),
        &[
            "row",
            "native only",
            &format!("32CPU × {norm0}s"),
            &format!("32CPU × {norm1}s"),
            "paper (native / short / long)",
        ],
    );
    let outs = [
        lab.baseline(cfg),
        lab.continual(cfg, 32, runtimes[0], InterstitialPolicy::default()),
        lab.continual(cfg, 32, runtimes[1], InterstitialPolicy::default()),
    ];
    let rows: Vec<paper::ContinualRow> = outs.iter().map(|o| measure(o)).collect();
    let mut push = |label: &str, f: &dyn Fn(&paper::ContinualRow) -> String| {
        let cells: Vec<String> = std::iter::once(label.to_string())
            .chain(rows.iter().map(&f))
            .chain(std::iter::once(
                paper_rows.iter().map(&f).collect::<Vec<_>>().join(" / "),
            ))
            .collect();
        t.row(&cells);
    };
    push("Interstitial jobs", &|r| r.interstitial.to_string());
    push("Native jobs", &|r| r.native.to_string());
    push("Overall util", &|r| format!("{:.3}", r.overall_util));
    push("Native util", &|r| format!("{:.3}", r.native_util));
    push("Median wait all (s)", &|r| fmt_k(r.median_wait_all));
    push("Median wait 5% largest (s)", &|r| {
        fmt_k(r.median_wait_largest)
    });
    t
}

/// Table 5: native-job performance impact on Blue Mountain.
pub fn table5(lab: &mut Lab) -> String {
    let bm = blue_mountain();
    let outs = [
        lab.baseline(&bm),
        lab.continual(&bm, 32, 120.0, InterstitialPolicy::default()),
        lab.continual(&bm, 32, 960.0, InterstitialPolicy::default()),
    ];
    let impacts: Vec<NativeImpact> = outs
        .iter()
        .map(|o| NativeImpact::of(&o.completed))
        .collect();
    let mut t = Table::new(
        "Table 5 — Native job performance on Blue Mountain",
        &[
            "metric",
            "native only",
            "+32CPU × 458s stream",
            "+32CPU × 3664s stream",
            "paper",
        ],
    );
    let p_all = &paper::TABLE5_ALL;
    let p_big = &paper::TABLE5_LARGEST;
    let fmt3 = |v: [f64; 3], k: bool| {
        v.iter()
            .map(|&x| if k { fmt_k(x) } else { format!("{x:.1}") })
            .collect::<Vec<_>>()
            .join(" / ")
    };
    let mut push = |label: &str, select: &dyn Fn(&NativeImpact) -> f64, paper_cells: String| {
        let cells: Vec<String> = std::iter::once(label.to_string())
            .chain(impacts.iter().map(|i| {
                let v = select(i);
                if label.contains("wait") {
                    fmt_k(v)
                } else {
                    format!("{v:.1}")
                }
            }))
            .chain(std::iter::once(paper_cells))
            .collect();
        t.row(&cells);
    };
    push(
        "All: avg wait (s)",
        &|i| i.all.avg_wait,
        fmt3(p_all.avg_wait, true),
    );
    push(
        "All: median wait (s)",
        &|i| i.all.median_wait,
        fmt3(p_all.median_wait, true),
    );
    push("All: avg EF", &|i| i.all.avg_ef, fmt3(p_all.avg_ef, false));
    push(
        "All: median EF",
        &|i| i.all.median_ef,
        fmt3(p_all.median_ef, false),
    );
    push(
        "5% largest: avg wait (s)",
        &|i| i.largest.avg_wait,
        fmt3(p_big.avg_wait, true),
    );
    push(
        "5% largest: median wait (s)",
        &|i| i.largest.median_wait,
        fmt3(p_big.median_wait, true),
    );
    push(
        "5% largest: avg EF",
        &|i| i.largest.avg_ef,
        fmt3(p_big.avg_ef, false),
    );
    push(
        "5% largest: median EF",
        &|i| i.largest.median_ef,
        fmt3(p_big.median_ef, false),
    );
    let mut body = t.to_text();
    body.push_str(
        "\nShape checks: median wait rises by ≲ one interstitial runtime; average\n\
         wait and EF blow up via the ~1% delay-cascade tail; the longer-job\n\
         stream hurts more; the largest jobs bear the brunt.\n",
    );
    body
}

/// Table 6: continual interstitial computing on Blue Mountain.
pub fn table6(lab: &mut Lab) -> String {
    let t = continual_table(
        "Table 6 — Continual interstitial computing on Blue Mountain",
        &blue_mountain(),
        lab,
        [120.0, 960.0],
        &paper::TABLE6,
    );
    let mut body = t.to_text();
    body.push_str(
        "\nShape checks: overall utilization climbs to the mid-90s while native\n\
         utilization and native throughput are unchanged.\n",
    );
    body
}

/// Table 7: continual interstitial computing on Blue Pacific.
pub fn table7(lab: &mut Lab) -> String {
    let t = continual_table(
        "Table 7 — Continual interstitial computing on Blue Pacific",
        &blue_pacific(),
        lab,
        [120.0, 960.0],
        &paper::TABLE7,
    );
    let mut body = t.to_text();
    body.push_str(
        "\nShape checks: little utilization headroom on a 0.9-utilized machine;\n\
         interstitial throughput is 1–2 orders of magnitude below Blue Mountain's;\n\
         median native wait roughly unchanged (jobs turn over quickly).\n",
    );
    body
}

/// Table 8 (first instance): continual interstitial computing on Ross.
pub fn table8_ross(lab: &mut Lab) -> String {
    let t = continual_table(
        "Table 8 — Continual interstitial computing on Ross",
        &ross(),
        lab,
        [120.0, 960.0],
        &paper::TABLE8_ROSS,
    );
    let mut body = t.to_text();
    body.push_str(
        "\nShape checks: the low-utilization machine gains the most (overall util\n\
         → high 90s); long interstitial jobs visibly push the largest natives'\n\
         waits (Ross runs week-long jobs and restrictive backfill).\n",
    );
    body
}

/// Table 8 (second instance): utilization-capped interstitial submission on
/// Blue Mountain.
pub fn table8_limited(lab: &mut Lab) -> String {
    let bm = blue_mountain();
    let caps = [0.90, 0.95, 0.98];
    let outs: Vec<_> = caps
        .iter()
        .map(|&c| lab.continual(&bm, 32, 120.0, InterstitialPolicy::capped(c)))
        .collect();
    let uncapped = lab.continual(&bm, 32, 120.0, InterstitialPolicy::default());
    let mut t = Table::new(
        "Table 8 — Limited continual interstitial computing on Blue Mountain (32CPU × 458s)",
        &[
            "row",
            "util < 90%",
            "util < 95%",
            "util < 98%",
            "uncapped",
            "paper (90/95/98)",
        ],
    );
    let rows: Vec<paper::ContinualRow> = outs
        .iter()
        .map(|o| measure(o))
        .chain(std::iter::once(measure(&uncapped)))
        .collect();
    let mut push = |label: &str, f: &dyn Fn(&paper::ContinualRow) -> String| {
        let cells: Vec<String> = std::iter::once(label.to_string())
            .chain(rows.iter().map(&f))
            .chain(std::iter::once(
                paper::TABLE8_LIMITED
                    .iter()
                    .map(|(_, r)| f(r))
                    .collect::<Vec<_>>()
                    .join(" / "),
            ))
            .collect();
        t.row(&cells);
    };
    push("Interstitial jobs", &|r| r.interstitial.to_string());
    push("Native jobs", &|r| r.native.to_string());
    push("Overall util", &|r| format!("{:.3}", r.overall_util));
    push("Native util", &|r| format!("{:.3}", r.native_util));
    push("Median wait all (s)", &|r| fmt_k(r.median_wait_all));
    push("Median wait 5% largest (s)", &|r| {
        fmt_k(r.median_wait_largest)
    });
    let mut body = t.to_text();
    body.push_str(
        "\nShape checks: interstitial jobs and overall utilization rise\n\
         monotonically with the cap; a 90% cap trades ≈40% of interstitial\n\
         throughput for near-baseline native waits; 98% ≈ uncapped.\n",
    );
    body
}

/// Figure 4: Blue Mountain utilization time series without/with continual
/// interstitial computing.
pub fn figure4(lab: &mut Lab) -> String {
    let bm = blue_mountain();
    let baseline = lab.baseline(&bm);
    let continual = lab.continual(&bm, 32, 120.0, InterstitialPolicy::default());
    let bin = SimDuration::from_hours(1);
    let series_base = utilization_series(
        &baseline.completed,
        bm.cpus,
        baseline.horizon,
        bin,
        true,
        true,
    );
    let series_cont = utilization_series(
        &continual.completed,
        bm.cpus,
        continual.horizon,
        bin,
        true,
        true,
    );
    let mut body = String::new();
    body.push_str("Blue Mountain hourly utilization, native-only (top) vs with continual\ninterstitial computing (bottom):\n\n");
    body.push_str(&ascii_chart(&downsample(&series_base, 100), 8, true));
    body.push('\n');
    body.push_str(&ascii_chart(&downsample(&series_cont, 100), 8, true));
    let mean_base = series_base.iter().sum::<f64>() / series_base.len() as f64;
    let mean_cont = series_cont.iter().sum::<f64>() / series_cont.len() as f64;
    body.push_str(&format!(
        "\nmean hourly utilization: {mean_base:.3} → {mean_cont:.3} (paper: 0.776 → 0.942)\n\
         Shape check: the erratic native trace is filled to a near-flat ceiling.\n"
    ));
    body
}

fn wait_figure(lab: &mut Lab, largest_only: bool) -> String {
    let bm = blue_mountain();
    let cases = [
        ("no interstitial", lab.baseline(&bm)),
        (
            "32CPU × 458s",
            lab.continual(&bm, 32, 120.0, InterstitialPolicy::default()),
        ),
        (
            "32CPU × 3664s",
            lab.continual(&bm, 32, 960.0, InterstitialPolicy::default()),
        ),
    ];
    let mut body = String::new();
    for (label, out) in cases {
        let natives: Vec<&workload::CompletedJob> = out
            .completed
            .iter()
            .filter(|c| !c.job.class.is_interstitial())
            .collect();
        let h = if largest_only {
            let top = largest_fraction(&natives, 0.05);
            wait_histogram(top.iter())
        } else {
            wait_histogram(natives.iter().copied())
        };
        body.push_str(&format!("{label} (n={}):\n", h.total()));
        body.push_str(&ascii_bars(&h.labels(), &h.probabilities(), 50));
        let stats = if largest_only {
            let top = largest_fraction(&natives, 0.05);
            wait_stats(top.iter())
        } else {
            wait_stats(natives.iter().copied())
        };
        body.push_str(&format!(
            "  avg wait {} s, median {} s\n\n",
            fmt_k(stats.avg_wait),
            fmt_k(stats.median_wait)
        ));
    }
    body
}

/// Figure 5: wait-time distribution (log₁₀ s decades) of native jobs on
/// Blue Mountain.
pub fn figure5(lab: &mut Lab) -> String {
    let mut body = wait_figure(lab, false);
    body.push_str(
        "Shape check: the (0,1) spike of the no-interstitial case shifts out to\n\
         the [2,3)/[3,4) decades (one interstitial runtime), with a small\n\
         cascade population pushed into [4,5)+ that drives the mean.\n",
    );
    body
}

/// Figure 6: same, restricted to the 5% largest native jobs (CPU·sec).
pub fn figure6(lab: &mut Lab) -> String {
    let mut body = wait_figure(lab, true);
    body.push_str(
        "Shape check: the big jobs' distribution sits one or two decades to the\n\
         right of the all-jobs distribution and shifts further with interstitial\n\
         load, hence the hour-scale median wait increases of Table 6.\n",
    );
    body
}
