//! `interstitial report` — render a `simulate --telemetry` export as a
//! terminal panel or a self-contained single-file HTML/SVG dashboard.
//!
//! Both renderers are pure functions of the parsed [`TelemetryDump`]: no
//! wall clock, no external assets, no scripts. The same export renders to
//! byte-identical output every time, so dashboards can be diffed and
//! checked into CI artifacts. Breach bands are drawn on the chart of the
//! signal the SLO rule actually watched; machine outages (fault overlays)
//! shade every chart, since an outage distorts every signal.

use crate::args::{ArgError, Args};
use obs::telemetry::{DumpAnnotation, TelemetryDump};
use std::fmt::Write as _;

const USAGE: &str = "usage: interstitial report TELEMETRY.jsonl [--html FILE]";

/// Unicode ramp for terminal sparklines, lowest to highest.
const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Widest terminal sparkline before points are binned.
const SPARK_WIDTH: usize = 60;

/// SVG plot geometry: the polyline lives in a WxH box with a top margin.
const SVG_W: u64 = 640;
const SVG_H: u64 = 90;
const PLOT_TOP: u64 = 8;
const PLOT_BOT: u64 = 78;

/// Render a telemetry export; optionally also write the HTML dashboard.
pub fn run(args: &Args) -> Result<String, ArgError> {
    args.check_flags(&["html"])?;
    let path = args
        .positional
        .first()
        .ok_or_else(|| ArgError(USAGE.into()))?;
    let text = std::fs::read_to_string(path).map_err(|e| ArgError(format!("{path}: {e}")))?;
    let dump = TelemetryDump::from_jsonl(&text).map_err(|e| ArgError(format!("{path}: {e}")))?;
    let mut out = render_text(path, &dump);
    if let Some(html_path) = args.get("html") {
        std::fs::write(html_path, render_html(path, &dump))
            .map_err(|e| ArgError(format!("writing {html_path}: {e}")))?;
        let _ = writeln!(out, "\nwrote dashboard to {html_path}");
    }
    Ok(out)
}

/// `[start, end]` spans paired from open/close annotation kinds, with the
/// opening annotation carried along. An unclosed span extends to `end`.
fn spans<'a>(
    dump: &'a TelemetryDump,
    open: &str,
    close: &str,
    end: u64,
) -> Vec<(u64, u64, &'a DumpAnnotation)> {
    let mut live: Vec<&DumpAnnotation> = Vec::new();
    let mut out = Vec::new();
    for a in &dump.annotations {
        if a.kind == open {
            live.push(a);
        } else if a.kind == close {
            // Close the earliest still-open span with the same label.
            if let Some(i) = live.iter().position(|o| o.label == a.label) {
                let o = live.remove(i);
                out.push((o.t_s, a.t_s, o));
            }
        }
    }
    for o in live {
        out.push((o.t_s, end, o));
    }
    out.sort_by_key(|(start, _, a)| (*start, a.label.clone()));
    out
}

/// The time axis: first tick, last tick, and a span that is never zero.
fn time_axis(dump: &TelemetryDump) -> (u64, u64, u64) {
    let t0 = dump.ticks.first().copied().unwrap_or(0);
    let t1 = dump.ticks.last().copied().unwrap_or(t0);
    (t0, t1, (t1 - t0).max(1))
}

/// Min, max and last of one column (all zeros for an empty column).
fn stats(values: &[u64]) -> (u64, u64, u64) {
    let min = values.iter().copied().min().unwrap_or(0);
    let max = values.iter().copied().max().unwrap_or(0);
    let last = values.last().copied().unwrap_or(0);
    (min, max, last)
}

/// A terminal sparkline: points binned to at most `SPARK_WIDTH` cells,
/// each cell the bin's max scaled into the 8-step block ramp. Integer
/// arithmetic throughout, so the rendering is deterministic.
fn sparkline(values: &[u64]) -> String {
    if values.is_empty() {
        return String::new();
    }
    let bins = values.len().min(SPARK_WIDTH);
    let mut cells = vec![0u64; bins];
    for (i, v) in values.iter().enumerate() {
        let bin = i * bins / values.len();
        cells[bin] = cells[bin].max(*v);
    }
    let (min, max, _) = stats(values);
    cells
        .iter()
        .map(|v| {
            let level = if max > min {
                ((v - min) * (SPARK.len() as u64 - 1) / (max - min)) as usize
            } else {
                0
            };
            SPARK[level]
        })
        .collect()
}

fn header_lines(path: &str, dump: &TelemetryDump) -> String {
    let (t0, t1, _) = time_axis(dump);
    let mut out = format!("telemetry: {path}\n");
    match &dump.machine {
        Some((name, cpus)) => {
            let _ = writeln!(out, "machine: {name} ({cpus} cpus)");
        }
        None => out.push_str("machine: unstamped header\n"),
    }
    let _ = writeln!(
        out,
        "cadence: {} s configured, {} s effective ({} decimation(s))",
        dump.cadence_s, dump.effective_cadence_s, dump.decimations
    );
    let _ = writeln!(
        out,
        "points: {} over {:.1} h (t={t0}..{t1} s)",
        dump.ticks.len(),
        (t1 - t0) as f64 / 3600.0
    );
    out
}

fn render_text(path: &str, dump: &TelemetryDump) -> String {
    let (_, t1, _) = time_axis(dump);
    let mut out = header_lines(path, dump);
    out.push('\n');
    let name_w = dump
        .series
        .iter()
        .map(|(name, _)| name.len())
        .max()
        .unwrap_or(6)
        .max("signal".len());
    let _ = writeln!(
        out,
        "{:<name_w$} {:>10} {:>10} {:>10}  series",
        "signal", "min", "max", "last"
    );
    for (name, values) in &dump.series {
        let (min, max, last) = stats(values);
        let _ = writeln!(
            out,
            "{name:<name_w$} {min:>10} {max:>10} {last:>10}  {}",
            sparkline(values)
        );
    }
    let breaches = spans(dump, "breach", "clear", t1);
    let outages = spans(dump, "machine_down", "machine_up", t1);
    if breaches.is_empty() && outages.is_empty() {
        out.push_str("\nannotations: none\n");
        return out;
    }
    if !breaches.is_empty() {
        let open = breaches.iter().filter(|(_, end, _)| *end == t1).count();
        let _ = writeln!(
            out,
            "\nSLO breaches: {} ({} still open at end of series)",
            breaches.len(),
            open
        );
        for (start, end, a) in &breaches {
            let _ = writeln!(
                out,
                "  {} breached t={start}..{end} s (value {} vs limit {})",
                a.label, a.value, a.limit
            );
        }
    }
    if !outages.is_empty() {
        let _ = writeln!(out, "\noutages: {}", outages.len());
        for (start, end, _) in &outages {
            let _ = writeln!(out, "  machine down t={start}..{end} s");
        }
    }
    out
}

/// x pixel for sim-time `t` on the shared axis.
fn svg_x(t: u64, t0: u64, span: u64) -> u64 {
    t.saturating_sub(t0) * SVG_W / span
}

/// y pixel for value `v` against the signal's own min..max range.
fn svg_y(v: u64, min: u64, max: u64) -> u64 {
    if max > min {
        PLOT_BOT - (v - min) * (PLOT_BOT - PLOT_TOP) / (max - min)
    } else {
        (PLOT_TOP + PLOT_BOT) / 2
    }
}

/// One shaded vertical band (breach or outage) as an SVG rect.
fn svg_band(out: &mut String, start: u64, end: u64, t0: u64, span: u64, fill: &str) {
    let x0 = svg_x(start, t0, span);
    let x1 = svg_x(end, t0, span).max(x0 + 2);
    let _ = write!(
        out,
        "<rect x=\"{x0}\" y=\"0\" width=\"{}\" height=\"{SVG_H}\" fill=\"{fill}\"/>",
        x1 - x0
    );
}

fn render_html(path: &str, dump: &TelemetryDump) -> String {
    let (t0, t1, span) = time_axis(dump);
    let breaches = spans(dump, "breach", "clear", t1);
    let outages = spans(dump, "machine_down", "machine_up", t1);
    let machine = match &dump.machine {
        Some((name, cpus)) => format!("{name} ({cpus} cpus)"),
        None => "unstamped machine".to_string(),
    };
    let mut html = String::with_capacity(dump.series.len() * dump.ticks.len() * 12 + 4096);
    html.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\"/>\n");
    let _ = writeln!(html, "<title>interstitial telemetry — {machine}</title>");
    html.push_str(
        "<style>\n\
         body{font-family:ui-monospace,SFMono-Regular,Menlo,monospace;\n\
              background:#14161a;color:#d8dce2;max-width:720px;margin:2rem auto;padding:0 1rem}\n\
         h1{font-size:1.1rem}\n\
         .meta{color:#8b93a0;font-size:0.8rem}\n\
         .chart{margin:1.1rem 0}\n\
         .chart h2{font-size:0.85rem;font-weight:normal;margin:0 0 0.2rem}\n\
         .chart svg{display:block;background:#1b1e24;border:1px solid #2a2e36}\n\
         .stats{color:#8b93a0;font-size:0.72rem;margin:0.15rem 0 0}\n\
         table{border-collapse:collapse;font-size:0.78rem;margin-top:1rem}\n\
         td,th{border:1px solid #2a2e36;padding:0.2rem 0.5rem;text-align:left}\n\
         </style>\n</head>\n<body>\n\
         <h1>interstitial telemetry dashboard</h1>\n",
    );
    let _ = writeln!(
        html,
        "<p class=\"meta\">source {path} · {machine} · cadence {} s (effective {} s, \
         {} decimation(s)) · {} points · t={t0}..{t1} s</p>",
        dump.cadence_s,
        dump.effective_cadence_s,
        dump.decimations,
        dump.ticks.len()
    );
    for (name, values) in &dump.series {
        let (min, max, last) = stats(values);
        let _ = writeln!(html, "<div class=\"chart\">\n<h2>{name}</h2>");
        let _ = write!(
            html,
            "<svg viewBox=\"0 0 {SVG_W} {SVG_H}\" width=\"{SVG_W}\" height=\"{SVG_H}\" \
             preserveAspectRatio=\"none\">"
        );
        // Outage overlays shade every chart; breach bands only the chart of
        // the signal the rule watched.
        for (start, end, _) in &outages {
            svg_band(&mut html, *start, *end, t0, span, "#3a3f49");
        }
        for (start, end, a) in &breaches {
            if obs::telemetry::slo_metric_signal(&a.label) == Some(name.as_str()) {
                svg_band(&mut html, *start, *end, t0, span, "#5d2428");
            }
        }
        html.push_str("<polyline fill=\"none\" stroke=\"#6fb3e0\" stroke-width=\"1.5\" points=\"");
        for (i, (t, v)) in dump.ticks.iter().zip(values).enumerate() {
            if i > 0 {
                html.push(' ');
            }
            let _ = write!(html, "{},{}", svg_x(*t, t0, span), svg_y(*v, min, max));
        }
        html.push_str("\"/></svg>\n");
        let _ = writeln!(
            html,
            "<p class=\"stats\">min {min} · max {max} · last {last}</p>\n</div>"
        );
    }
    if !breaches.is_empty() || !outages.is_empty() {
        html.push_str(
            "<table>\n<tr><th>kind</th><th>label</th><th>from (s)</th><th>to (s)</th>\
             <th>value</th><th>limit</th></tr>\n",
        );
        for (start, end, a) in &breaches {
            let _ = writeln!(
                html,
                "<tr><td>breach</td><td>{}</td><td>{start}</td><td>{end}</td>\
                 <td>{}</td><td>{}</td></tr>",
                a.label, a.value, a.limit
            );
        }
        for (start, end, _) in &outages {
            let _ = writeln!(
                html,
                "<tr><td>outage</td><td>machine</td><td>{start}</td><td>{end}</td>\
                 <td>—</td><td>—</td></tr>"
            );
        }
        html.push_str("</table>\n");
    }
    html.push_str("</body>\n</html>\n");
    html
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::telemetry::{AnnotationKind, TelemetryBus};

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("interstitial-cli-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    const SIGS: &[&str] = &["util_permille", "queue_depth"];

    /// A hand-built export: a rising utilization series with one breach
    /// window and one outage window.
    fn write_export(name: &str) -> std::path::PathBuf {
        let mut bus = TelemetryBus::enabled(60, SIGS);
        bus.set_machine("testbed", 64);
        for i in 0..20u64 {
            bus.record_tick(i * 60, &[i * 50, 20 - i]);
        }
        bus.annotate(120, AnnotationKind::Breach, "util", 100, 900);
        bus.annotate(600, AnnotationKind::Clear, "util", 910, 900);
        bus.annotate(300, AnnotationKind::MachineDown, "", 0, 0);
        bus.annotate(420, AnnotationKind::MachineUp, "", 0, 0);
        let path = tmp(name);
        std::fs::write(&path, bus.to_jsonl()).unwrap();
        path
    }

    #[test]
    fn text_report_lists_signals_breaches_and_outages() {
        let path = write_export("text.jsonl");
        let out = run(&parse(&["report", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("machine: testbed (64 cpus)"), "{out}");
        assert!(out.contains("util_permille"), "{out}");
        assert!(out.contains("queue_depth"), "{out}");
        assert!(out.contains("SLO breaches: 1"), "{out}");
        assert!(out.contains("util breached t=120..600 s"), "{out}");
        assert!(out.contains("machine down t=300..420 s"), "{out}");
        // The sparkline of a rising series must end on the top block.
        let line = out
            .lines()
            .find(|l| l.starts_with("util_permille"))
            .unwrap();
        assert!(line.ends_with('█'), "{line}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn html_dashboard_is_self_contained_and_deterministic() {
        let path = write_export("html.jsonl");
        let html_path = tmp("dash.html");
        let render = || {
            let out = run(&parse(&[
                "report",
                path.to_str().unwrap(),
                "--html",
                html_path.to_str().unwrap(),
            ]))
            .unwrap();
            assert!(out.contains("wrote dashboard"), "{out}");
            std::fs::read_to_string(&html_path).unwrap()
        };
        let html = render();
        assert!(html.starts_with("<!DOCTYPE html>"), "{html}");
        assert_eq!(html.matches("<polyline").count(), 2, "one line per signal");
        // The breach band lands only on the chart the rule watched, the
        // outage band on every chart.
        assert_eq!(html.matches("fill=\"#5d2428\"").count(), 1, "{html}");
        assert_eq!(html.matches("fill=\"#3a3f49\"").count(), 2, "{html}");
        assert!(html.contains("<td>breach</td>"), "{html}");
        assert!(html.contains("<td>outage</td>"), "{html}");
        // Self-contained: no scripts, no external fetches.
        assert!(!html.contains("<script"), "{html}");
        assert!(!html.contains("http"), "{html}");
        assert_eq!(html, render(), "dashboard must render byte-identically");
        for p in [path, html_path] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn unclosed_breach_extends_to_the_end_of_the_series() {
        let mut bus = TelemetryBus::enabled(60, SIGS);
        for i in 0..5u64 {
            bus.record_tick(i * 60, &[0, i]);
        }
        bus.annotate(60, AnnotationKind::Breach, "queue_depth", 4, 0);
        let path = tmp("open.jsonl");
        std::fs::write(&path, bus.to_jsonl()).unwrap();
        let out = run(&parse(&["report", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("1 still open at end of series"), "{out}");
        assert!(out.contains("queue_depth breached t=60..240 s"), "{out}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn errors_are_clean() {
        assert!(run(&parse(&["report"])).unwrap_err().0.contains("usage"));
        assert!(run(&parse(&["report", "/nonexistent.jsonl"])).is_err());
        let bad = tmp("bad.jsonl");
        std::fs::write(&bad, "{\"not\":\"telemetry\"}\n").unwrap();
        let err = run(&parse(&["report", bad.to_str().unwrap()])).unwrap_err();
        assert!(err.0.contains("not a telemetry header"), "{err}");
        // A corrupt export fails, naming the line and byte of the fault.
        let good = write_export("good.jsonl");
        let text = std::fs::read_to_string(&good).unwrap();
        let edit = |at: usize, f: fn(&str) -> String| -> String {
            let lines = text.lines().enumerate();
            lines
                .map(|(i, l)| if i == at { f(l) } else { l.to_string() } + "\n")
                .collect()
        };
        for (corrupt, want) in [
            (edit(1, |l| format!("{l}GARBAGE")), "line 2, byte 110"),
            (
                edit(0, |l| l.replace("\"cadence_s\":60", "\"cadence_s\":60xyz")),
                "line 1, byte",
            ),
            (
                edit(2, |l| l.trim_end_matches('}').to_string()),
                "line 3, byte",
            ),
        ] {
            std::fs::write(&bad, corrupt).unwrap();
            let err = run(&parse(&["report", bad.to_str().unwrap()])).unwrap_err();
            assert!(err.0.contains(want), "{err}");
        }
        let _ = std::fs::remove_file(bad);
        let _ = std::fs::remove_file(good);
    }
}
