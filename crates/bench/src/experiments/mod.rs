//! Experiment regenerators, one per paper artifact, and [`REGISTRY`], the
//! one list of them.
//!
//! | module | artifacts |
//! |--------|-----------|
//! | [`table1`] | Table 1 (machine comparison) |
//! | [`omniscient`] | Table 2, Table 3, Figure 2 |
//! | [`fallible`] | Table 4, Figure 3 |
//! | [`continual`] | Tables 5–8 (both 8s), Figures 4–6 |
//! | [`ablations`] | DESIGN.md's ablation studies |

pub mod ablations;
pub mod continual;
pub mod fallible;
pub mod omniscient;
pub mod table1;

use crate::Lab;

/// One experiment: its id, its title as the paper labels it, and the
/// function that regenerates its body (plain text; Markdown-safe).
pub type Entry = (&'static str, &'static str, fn(&mut Lab) -> String);

/// Every experiment, in suite order. Each entry builds what it needs
/// through the [`Lab`], so it runs the same alone as in the suite.
pub static REGISTRY: &[Entry] = &[
    ("table1", "Comparison of ASCI machines", table1::run),
    (
        "table2",
        "Omniscient interstitial project makespans",
        omniscient::table2,
    ),
    (
        "table3",
        "Breakage: 1-CPU vs 32-CPU interstitial jobs",
        omniscient::table3,
    ),
    (
        "figure2",
        "Actual vs theoretical makespan",
        omniscient::figure2,
    ),
    (
        "table4",
        "Estimate-based interstitial project makespans",
        fallible::table4,
    ),
    (
        "figure3",
        "CDF of makespan on Blue Mountain (32-CPU interstitial jobs)",
        fallible::figure3,
    ),
    (
        "table5",
        "Native job performance on Blue Mountain",
        continual::table5,
    ),
    (
        "table6",
        "Continual interstitial computing on Blue Mountain",
        continual::table6,
    ),
    (
        "table7",
        "Continual interstitial computing on Blue Pacific",
        continual::table7,
    ),
    (
        "table8_ross",
        "Continual interstitial computing on Ross",
        continual::table8_ross,
    ),
    (
        "table8_limited",
        "Limited continual interstitial computing on Blue Mountain",
        continual::table8_limited,
    ),
    (
        "figure4",
        "Blue Mountain utilization with and without continual interstitial computing",
        continual::figure4,
    ),
    (
        "figure5",
        "Wait times of native jobs on Blue Mountain",
        continual::figure5,
    ),
    (
        "figure6",
        "Wait times of the 5% largest native jobs on Blue Mountain",
        continual::figure6,
    ),
    ("ablation_backfill", "Backfill flavor ablation", |_| {
        ablations::backfill_flavors()
    }),
    ("ablation_estimates", "Estimate quality ablation", |_| {
        ablations::estimate_quality()
    }),
    (
        "ablation_breakage",
        "Breakage-in-space sweep",
        ablations::breakage_sweep,
    ),
    (
        "ablation_capsweep",
        "Utilization-cap sweep",
        ablations::cap_sweep,
    ),
    (
        "ablation_preemption",
        "Preemptible interstitial jobs (breakage in time)",
        |_| ablations::preemption(),
    ),
    (
        "analysis_gaps",
        "Interstice structure: harvestable capacity by job shape",
        ablations::gap_structure,
    ),
    (
        "extension_multiproject",
        "Competing interstitial projects",
        |_| ablations::multi_project(),
    ),
    (
        "analysis_fairness",
        "Inter-user fairness under interstitial computing",
        ablations::fairness,
    ),
    (
        "extension_openclosed",
        "Open vs closed-loop native submission",
        |_| ablations::open_vs_closed(),
    ),
    (
        "ablation_resilience",
        "Node-failure-rate sweep (fault injection)",
        |_| ablations::resilience(),
    ),
    (
        "ablation_recovery",
        "Recovery-policy × fault-rate sweep",
        |_| ablations::recovery_policies(),
    ),
];
