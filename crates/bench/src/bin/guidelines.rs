//! The paper's §5 guidelines as a machine × job-shape advisory matrix.
//!
//! Usage: guidelines `[tolerance_minutes]` (default 15). Anything but one
//! whole number of minutes exits 2 with the usage line.
use analysis::Table;
use interstitial::advisor::{advise, Severity};
use interstitial::InterstitialProject;
use machine::config::all_machines;
use simkit::time::SimDuration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let tol_min: u64 = match args.as_slice() {
        [] => 15,
        [one] => one.parse().unwrap_or_else(|_| usage()),
        _ => usage(),
    };
    let tolerance = SimDuration::from_mins(tol_min);
    let shapes: [(u32, f64); 6] = [
        (1, 120.0),
        (8, 120.0),
        (32, 120.0),
        (32, 960.0),
        (128, 960.0),
        (512, 3600.0),
    ];
    let mut t = Table::new(
        format!("Guideline matrix (native-delay tolerance {tol_min} min): verdict / expected hours for a 7.7-Pcycle project"),
        &["machine", "1cpu×120s", "8cpu×120s", "32cpu×120s", "32cpu×960s", "128cpu×960s", "512cpu×3600s"],
    );
    for m in all_machines() {
        let mut row = vec![m.name.to_string()];
        for &(cpus, secs) in &shapes {
            let jobs = (7.7e15 / (cpus as f64 * secs * 1e9)).round().max(1.0) as u64;
            let project = InterstitialProject::per_paper(jobs, cpus, secs);
            let a = advise(&m, &project, tolerance);
            let v = match a.verdict() {
                Severity::Ok => "ok",
                Severity::Warning => "warn",
                Severity::Problem => "NO",
            };
            row.push(format!("{v} {:.0}h", a.expected_makespan.as_hours()));
        }
        t.row(&row);
    }
    println!("{}", t.to_text());
    println!(
        "Legend: ok = fits the guidelines; warn = works with caveats (breakage,\n\
         headroom, near-tolerance runtime); NO = violates a §5 guideline.\n\
         Expected hours use the §4.2 fitted formula × breakage."
    );
}

fn usage() -> ! {
    eprintln!("usage: guidelines [tolerance_minutes]");
    std::process::exit(2);
}
