//! Subcommand implementations. Each returns the text to print, so tests can
//! drive commands without spawning processes.

pub mod advise;
pub mod generate;
pub mod machines;
pub mod pack;
pub mod perf;
pub mod report;
pub mod simulate;
pub mod stats;
pub mod sweep;
pub mod trace;

use crate::args::{ArgError, Args};

/// Dispatch a parsed command line to its implementation.
pub fn run(args: &Args) -> Result<String, ArgError> {
    match args.command.as_str() {
        "machines" => machines::run(args),
        "generate" => generate::run(args),
        "stats" => stats::run(args),
        "simulate" => simulate::run(args),
        "advise" => advise::run(args),
        "pack" => pack::run(args),
        "sweep" => sweep::run(args),
        "trace" => trace::run(args),
        "report" => report::run(args),
        "perf" => perf::run(args),
        "help" | "--help" | "-h" => Ok(help()),
        other => Err(ArgError(format!(
            "unknown command {other:?} (try `interstitial help`)"
        ))),
    }
}

/// The top-level usage text.
pub fn help() -> String {
    "\
interstitial — spare-cycle scavenging simulator (CLUSTER 2003 reproduction)

USAGE: interstitial <command> [args]

COMMANDS
  machines                         list the built-in ASCI machine presets
  generate  --machine M [--seed N] [--out FILE]
                                   synthesize a native job log (SWF)
  stats     FILE.swf               marginal statistics of a log
  simulate  --machine M [FILE.swf | --seed N]
            [--shape CPUSxSECS] [--mode continual|project:SECS]
            [--cap F] [--preempt kill|checkpoint] [--seed N] [--out FILE]
            [--faults mtbf=S,mttr=S,nodes=N[,seed=K]] [--resilience FILE]
            [--record-cycles FILE.jsonl]
            [--telemetry FILE.jsonl [--cadence SECS] [--slo RULES]]
                                   replay a log, optionally with an
                                   interstitial stream and injected node
                                   failures; print the impact (and, with
                                   faults, the resilience panel).
                                   --record-cycles dumps the per-cycle
                                   flight recorder for `perf hotspots`.
                                   --telemetry samples an in-sim time
                                   series each cadence tick; --slo (e.g.
                                   native_p99_wait<=3600,util>=0.85) adds
                                   a breach/clear watchdog
  advise    --machine M --jobs N --shape CPUSxSECS [--tolerance MIN]
                                   pre-flight a project against the paper's
                                   §5 guidelines
  pack      --machine M --jobs N --shape CPUSxSECS [--reps R] [--seed N]
                                   omniscient makespan (Table 2 method)
  sweep     --machine M [--shape CPUSxSECS] [--tolerance MIN] [--cap F]
                                   empirically compare job shapes and
                                   recommend the best within tolerance
  trace     summarize FILE.jsonl [--cpus N]
                                   single-pass counts, utilization and P²
                                   wait percentiles of a trace
  trace     attribute FILE.jsonl [--cpus N] [--top K]
                                   causal wait attribution: saturated /
                                   interference / fair-share / window
  trace     timeline FILE.jsonl [--cpus N] [--width W]
                                   ASCII occupancy heatmap + interstice
                                   census
  trace     diff BASE.jsonl WITH.jsonl [--top K]
                                   per-job wait deltas between a native-only
                                   and a with-interstitial run (same seed)
  report    TELEMETRY.jsonl [--html FILE]
                                   render a --telemetry export: per-signal
                                   sparklines, SLO breach windows and
                                   outage overlays; --html writes a
                                   self-contained SVG dashboard
  perf      compare OLD.json NEW.json [--require-decrease C1,C2]
                                   diff two `bench --bin perf` baselines:
                                   counters exactly; exits nonzero on
                                   regression
  perf      show FILE.json         pretty-print one perf baseline
  perf      hotspots CYCLES.jsonl [--top N]
                                   attribute cost from a --record-cycles
                                   dump: phase self-time bars, P50/P99/max
                                   per-cycle cost, exact top-N worst
                                   cycles with their sim-times

Machines: ross | bluemountain | bluepacific | CPUSxGHZ (custom).
Shapes are CPUs × seconds-at-1GHz, e.g. 32x120.
"
    .to_string()
}
