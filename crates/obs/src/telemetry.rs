//! Online telemetry bus: deterministic in-sim time series plus SLO rules.
//!
//! Every other instrument in this crate is end-of-run (counters, reports)
//! or per-event (the trace); nothing observes the simulation *as sim-time
//! advances*. [`TelemetryBus`] closes that gap: a fixed-cadence sampling
//! bus driven purely by the simulation clock. The driver asks
//! [`TelemetryBus::pending_tick`] whether a sample is due before the event
//! it is about to apply, snapshots its signal values, and hands them to
//! [`TelemetryBus::record_tick`]. Samples land in columnar
//! SoA storage — one `Vec<u64>` per signal sharing a single tick index —
//! so a run's worth of series exports as a handful of dense arrays.
//!
//! Determinism and cost follow the house rules:
//!
//! * **zero-cost when disabled** — [`TelemetryBus::pending_tick`] on a
//!   disabled bus is one predictable branch; nothing allocates, so the
//!   default simulation path pays nothing (the same contract as
//!   [`crate::trace::TraceSink`]).
//! * **sim-time-driven** — ticks are scheduled on the integer-second sim
//!   clock, never the wall clock; the same seed yields byte-identical
//!   exports.
//! * **bounded** — when a run outlives the point budget, the bus decimates
//!   deterministically: every other retained sample is dropped and the
//!   effective cadence doubles, so memory stays O(budget) while the series
//!   still spans the whole run.
//!
//! On top of the bus sit the SLO types: [`SloSpec::parse`] reads the
//! `--slo metric<=LIMIT,...` CLI grammar (the same `key=value` comma-list
//! discipline as `FaultSpec`), and [`SloWatchdog`] evaluates the rules
//! against each tick's values, reporting breach/clear *transitions* that
//! the driver records as schema-v4 trace events and bus annotations.
//!
//! The columnar JSONL export (`{"telemetry_schema":1}` header, one
//! `{"signal":…,"values":[…]}` line per series, one flat line per
//! annotation) has a strict reader, [`TelemetryDump::from_jsonl`]: unlike
//! the trace reader's corrupt-line recovery, telemetry files are always
//! machine-written, so any malformed line is a hard error.

use crate::json;
use simkit::time::SimTime;

/// Version stamped on the telemetry export header. Bump when the encoding
/// changes shape; the strict reader rejects anything newer.
pub const TELEMETRY_SCHEMA: u64 = 1;

/// Default sampling cadence, seconds of sim-time between ticks.
pub const DEFAULT_CADENCE_S: u64 = 300;

/// Default per-signal point budget before deterministic decimation.
pub const DEFAULT_POINT_BUDGET: usize = 2048;

/// Reserved name for the shared tick-index column in the export.
pub const TICK_SIGNAL: &str = "tick_s";

/// The signal set the core driver samples each cadence tick, in column
/// order. The driver owns the sampling code; the names live here so the
/// SLO metric table, the CLI reporter and the tests agree on one spelling.
pub const DRIVER_SIGNALS: &[&str] = &[
    "busy_native_cpus",
    "busy_inter_cpus",
    "free_cpus",
    "in_service_cpus",
    "util_permille",
    "queue_depth",
    "queued_cpu_s",
    "frag_permille",
    "running_jobs",
    "native_wait_p99_s",
    "d_events",
    "d_starts",
    "d_cands",
    "d_segs",
];

/// `(user-facing key, signal column, fractional)` for every metric the
/// `--slo` grammar accepts. Fractional metrics take a decimal fraction in
/// `[0, 1]` as their limit and compare in permille.
const SLO_METRICS: &[(&str, &str, bool)] = &[
    ("native_p99_wait", "native_wait_p99_s", false),
    ("util", "util_permille", true),
    ("frag", "frag_permille", true),
    ("queue_depth", "queue_depth", false),
    ("queued_cpu_s", "queued_cpu_s", false),
    ("free_cpus", "free_cpus", false),
    ("running", "running_jobs", false),
];

/// Intern an SLO metric key parsed from text (e.g. by tracekit's line
/// parser) into its `&'static` spelling, or `None` for unknown metrics.
pub fn slo_metric_key(s: &str) -> Option<&'static str> {
    SLO_METRICS
        .iter()
        .find(|(key, _, _)| *key == s)
        .map(|(key, _, _)| *key)
}

/// The telemetry signal column an SLO metric key reads, or `None` for an
/// unknown key. The report dashboard uses this to place breach bands on
/// the chart of the signal the rule actually watched.
pub fn slo_metric_signal(key: &str) -> Option<&'static str> {
    SLO_METRICS
        .iter()
        .find(|(k, _, _)| *k == key)
        .map(|(_, signal, _)| *signal)
}

/// What kind of moment an annotation marks on the time axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnnotationKind {
    /// An SLO rule started failing at this tick.
    Breach,
    /// A previously breached SLO rule recovered at this tick.
    Clear,
    /// The whole machine went down (outage or fault overlay).
    MachineDown,
    /// The machine came back up.
    MachineUp,
}

impl AnnotationKind {
    /// Stable lowercase tag used in the JSONL encoding.
    pub fn tag(self) -> &'static str {
        match self {
            AnnotationKind::Breach => "breach",
            AnnotationKind::Clear => "clear",
            AnnotationKind::MachineDown => "machine_down",
            AnnotationKind::MachineUp => "machine_up",
        }
    }
}

/// One time-axis annotation: an SLO transition or a fault overlay marker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Annotation {
    /// Sim-time of the moment, integer seconds.
    pub t_s: u64,
    /// What the moment is.
    pub kind: AnnotationKind,
    /// The SLO metric key for breach/clear; `""` for fault overlays.
    pub label: &'static str,
    /// Observed value at the transition (0 for fault overlays).
    pub value: u64,
    /// The rule's limit (0 for fault overlays).
    pub limit: u64,
}

/// The fixed-cadence, sim-time-driven sampling bus.
#[derive(Clone, Debug, Default)]
pub struct TelemetryBus {
    enabled: bool,
    signals: &'static [&'static str],
    cadence_s: u64,
    effective_cadence_s: u64,
    next_tick_s: u64,
    budget: usize,
    decimations: u64,
    ticks: Vec<u64>,
    columns: Vec<Vec<u64>>,
    annotations: Vec<Annotation>,
    machine: Option<(&'static str, u32)>,
}

impl TelemetryBus {
    /// A bus that samples nothing (the default).
    pub fn disabled() -> Self {
        TelemetryBus::default()
    }

    /// A collecting bus sampling `signals` every `cadence_s` sim-seconds
    /// (clamped to at least 1), with the default point budget. The first
    /// tick lands at t=0.
    pub fn enabled(cadence_s: u64, signals: &'static [&'static str]) -> Self {
        let cadence_s = cadence_s.max(1);
        TelemetryBus {
            enabled: true,
            signals,
            cadence_s,
            effective_cadence_s: cadence_s,
            next_tick_s: 0,
            budget: DEFAULT_POINT_BUDGET,
            columns: vec![Vec::new(); signals.len()],
            ..TelemetryBus::default()
        }
    }

    /// Override the per-signal point budget (clamped to at least 2).
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = budget.max(2);
        self
    }

    /// Whether the bus is collecting.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Stamp the machine identity onto the export header. No-op when the
    /// bus is disabled, preserving the zero-cost contract.
    pub fn set_machine(&mut self, name: &'static str, cpus: u32) {
        if self.enabled {
            self.machine = Some((name, cpus));
        }
    }

    /// The signal set this bus was configured with (empty when disabled).
    pub fn signals(&self) -> &'static [&'static str] {
        self.signals
    }

    /// The configured cadence, seconds.
    pub fn cadence_s(&self) -> u64 {
        self.cadence_s
    }

    /// The current effective cadence: the configured cadence doubled once
    /// per decimation.
    pub fn effective_cadence_s(&self) -> u64 {
        self.effective_cadence_s
    }

    /// How many times the series has been decimated.
    pub fn decimations(&self) -> u64 {
        self.decimations
    }

    /// Number of retained sample points.
    pub fn len(&self) -> usize {
        self.ticks.len()
    }

    /// True when no samples have been retained.
    pub fn is_empty(&self) -> bool {
        self.ticks.is_empty()
    }

    /// The shared tick index, integer sim-seconds.
    pub fn ticks(&self) -> &[u64] {
        &self.ticks
    }

    /// The column for `signal`, or `None` for an unknown name.
    pub fn values(&self, signal: &str) -> Option<&[u64]> {
        let idx = self.signals.iter().position(|s| *s == signal)?;
        self.columns.get(idx).map(Vec::as_slice)
    }

    /// Recorded annotations, in record order.
    pub fn annotations(&self) -> &[Annotation] {
        &self.annotations
    }

    /// If a sample is due at or before `now`, the tick's sim-time. The
    /// caller samples its signals *before* applying the event at `now`, so
    /// a tick records the left-limit state at its instant — which is what
    /// keeps trace-time monotone when the watchdog stamps breach events at
    /// tick times. One predictable branch when disabled or not due.
    #[inline]
    pub fn pending_tick(&self, now: SimTime) -> Option<u64> {
        if self.enabled && self.next_tick_s <= now.as_secs() {
            Some(self.next_tick_s)
        } else {
            None
        }
    }

    /// Record the sample for the tick at `t_s` (as returned by
    /// [`TelemetryBus::pending_tick`]); `values` must be in signal order.
    /// Schedules the next tick one effective cadence later, decimating
    /// first when the point budget is full.
    pub fn record_tick(&mut self, t_s: u64, values: &[u64]) {
        if !self.enabled {
            return;
        }
        debug_assert_eq!(values.len(), self.signals.len(), "one value per signal");
        if self.ticks.len() == self.budget {
            self.decimate();
        }
        self.ticks.push(t_s);
        for (column, v) in self.columns.iter_mut().zip(values) {
            column.push(*v);
        }
        self.next_tick_s = t_s.saturating_add(self.effective_cadence_s);
    }

    /// Drop every odd-indexed sample and double the effective cadence.
    /// Deterministic: which points survive depends only on the record
    /// sequence, never on memory pressure or timing. The retained ticks
    /// are spaced one *new* cadence apart, so the next scheduled tick
    /// (`last kept + old cadence * 2`) stays on the coarsened grid.
    fn decimate(&mut self) {
        fn keep_even<T>(v: &mut Vec<T>) {
            let mut i = 0usize;
            v.retain(|_| {
                let keep = i.is_multiple_of(2);
                i += 1;
                keep
            });
        }
        keep_even(&mut self.ticks);
        for column in &mut self.columns {
            keep_even(column);
        }
        self.effective_cadence_s = self.effective_cadence_s.saturating_mul(2);
        self.decimations += 1;
    }

    /// Append one annotation (SLO transition or fault overlay marker).
    /// No-op when disabled.
    pub fn annotate(
        &mut self,
        t_s: u64,
        kind: AnnotationKind,
        label: &'static str,
        value: u64,
        limit: u64,
    ) {
        if self.enabled {
            self.annotations.push(Annotation {
                t_s,
                kind,
                label,
                value,
                limit,
            });
        }
    }

    /// Serialize the whole bus as columnar JSONL: a header line, the
    /// shared tick index as signal `tick_s`, one line per signal column,
    /// then one flat line per annotation. A disabled bus serializes to
    /// the empty string.
    pub fn to_jsonl(&self) -> String {
        if !self.enabled {
            return String::new();
        }
        // ~8 bytes per point per column plus slack for names/annotations.
        let mut out =
            String::with_capacity((self.signals.len() + 1) * (self.ticks.len() * 8 + 48) + 256);
        out.push('{');
        let first = json::push_u64_field(&mut out, true, "telemetry_schema", TELEMETRY_SCHEMA);
        let first = if let Some((name, cpus)) = self.machine {
            let first = json::push_str_field(&mut out, first, "machine", name);
            json::push_u64_field(&mut out, first, "cpus", u64::from(cpus))
        } else {
            first
        };
        let first = json::push_u64_field(&mut out, first, "cadence_s", self.cadence_s);
        let first = json::push_u64_field(
            &mut out,
            first,
            "effective_cadence_s",
            self.effective_cadence_s,
        );
        let first = json::push_u64_field(&mut out, first, "decimations", self.decimations);
        let first = json::push_u64_field(&mut out, first, "points", self.ticks.len() as u64);
        let first = json::push_u64_field(&mut out, first, "signals", self.signals.len() as u64);
        let _ = json::push_u64_field(
            &mut out,
            first,
            "annotations",
            self.annotations.len() as u64,
        );
        out.push_str("}\n");
        push_series_line(&mut out, TICK_SIGNAL, &self.ticks);
        for (name, column) in self.signals.iter().zip(&self.columns) {
            push_series_line(&mut out, name, column);
        }
        for a in &self.annotations {
            out.push('{');
            let first = json::push_u64_field(&mut out, true, "t", a.t_s);
            let first = json::push_str_field(&mut out, first, "ann", a.kind.tag());
            let first = json::push_str_field(&mut out, first, "label", a.label);
            let first = json::push_u64_field(&mut out, first, "value", a.value);
            let _ = json::push_u64_field(&mut out, first, "limit", a.limit);
            out.push_str("}\n");
        }
        out
    }
}

/// Append `{"signal":NAME,"values":[…]}` plus newline.
fn push_series_line(out: &mut String, name: &str, values: &[u64]) {
    out.push('{');
    let first = json::push_str_field(out, true, "signal", name);
    if !first {
        out.push(',');
    }
    json::push_key(out, "values");
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = std::fmt::Write::write_fmt(out, format_args!("{v}"));
    }
    out.push_str("]}\n");
}

/// The header's required counts, in the order the export writes them.
const HEADER_FIELDS: [&str; 6] = [
    "cadence_s",
    "effective_cadence_s",
    "decimations",
    "points",
    "signals",
    "annotations",
];

/// An annotation line's numeric fields, in the order the export writes them.
const ANNOTATION_NUMBERS: [&str; 3] = ["t", "value", "limit"];

/// One annotation as read back from an export (owned strings).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DumpAnnotation {
    /// Sim-time of the moment, integer seconds.
    pub t_s: u64,
    /// The annotation kind tag (`breach`, `clear`, `machine_down`, …).
    pub kind: String,
    /// The SLO metric key, or `""` for fault overlays.
    pub label: String,
    /// Observed value at the transition.
    pub value: u64,
    /// The rule's limit.
    pub limit: u64,
}

/// A telemetry export loaded back into memory by the strict reader.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetryDump {
    /// Header schema version.
    pub schema: u64,
    /// Machine identity from the header, when stamped.
    pub machine: Option<(String, u32)>,
    /// Configured cadence, seconds.
    pub cadence_s: u64,
    /// Effective cadence after decimation, seconds.
    pub effective_cadence_s: u64,
    /// Decimation rounds applied.
    pub decimations: u64,
    /// The shared tick index.
    pub ticks: Vec<u64>,
    /// `(signal name, column)` in file order, excluding `tick_s`.
    pub series: Vec<(String, Vec<u64>)>,
    /// Annotations in file order.
    pub annotations: Vec<DumpAnnotation>,
}

impl TelemetryDump {
    /// Parse a columnar telemetry export. Strict: telemetry files are
    /// machine-written, so a bad header, an unknown schema, a malformed
    /// line, or column lengths that disagree with the tick index are all
    /// hard errors (with 1-based line numbers).
    pub fn from_jsonl(text: &str) -> Result<TelemetryDump, String> {
        let mut lines = (1..).zip(text.lines());
        let (_, header) = lines
            .next()
            .ok_or_else(|| "empty telemetry file (no header line)".to_string())?;
        let mut schema = None;
        let mut fields = [None; 6];
        let (mut machine, mut cpus) = (None, None);
        json::read_object(header, 1, |r, key| {
            match key {
                "telemetry_schema" => schema = Some(r.u64()?),
                "machine" => machine = Some(r.string()?),
                "cpus" => cpus = Some(r.u64()?),
                _ => match HEADER_FIELDS.iter().position(|f| *f == key) {
                    Some(i) => fields[i] = Some(r.u64()?),
                    None => r.skip()?,
                },
            }
            Ok(())
        })
        .map_err(|e| e.to_string())?;
        let schema = schema.ok_or_else(|| format!("line 1: not a telemetry header: {header:?}"))?;
        if schema == 0 || schema > TELEMETRY_SCHEMA {
            return Err(format!(
                "line 1: unsupported telemetry schema {schema} (this reader handles 1-{TELEMETRY_SCHEMA})"
            ));
        }
        let machine = match (machine, cpus) {
            (Some(name), Some(cpus)) => Some((
                name.to_string(),
                u32::try_from(cpus).map_err(|_| format!("line 1: cpus {cpus} out of range"))?,
            )),
            _ => None,
        };
        let need = |i: usize| {
            fields[i].ok_or_else(|| format!("line 1: header missing {:?}", HEADER_FIELDS[i]))
        };
        let mut dump = TelemetryDump {
            schema,
            machine,
            cadence_s: need(0)?,
            effective_cadence_s: need(1)?,
            decimations: need(2)?,
            ..TelemetryDump::default()
        };
        let (declared_points, declared_signals, declared_annotations) =
            (need(3)?, need(4)?, need(5)?);
        let mut saw_ticks = false;
        for (lineno, line) in lines {
            if line.trim().is_empty() {
                return Err(format!("line {lineno}: blank line in telemetry file"));
            }
            let (mut signal, mut values, mut ann, mut label) = (None, None, None, None);
            let mut numbers = [None; 3];
            json::read_object(line, lineno, |r, key| {
                match key {
                    "signal" => signal = Some(r.string()?),
                    "values" => values = Some(r.u64_array()?),
                    "ann" => ann = Some(r.string()?),
                    "label" => label = Some(r.string()?),
                    _ => match ANNOTATION_NUMBERS.iter().position(|f| *f == key) {
                        Some(i) => numbers[i] = Some(r.u64()?),
                        None => r.skip()?,
                    },
                }
                Ok(())
            })
            .map_err(|e| e.to_string())?;
            if let Some(name) = signal {
                let values = values.ok_or_else(|| {
                    format!("line {lineno}: signal {name:?}: missing \"values\" array")
                })?;
                if name == TICK_SIGNAL {
                    if saw_ticks {
                        return Err(format!("line {lineno}: duplicate {TICK_SIGNAL:?} column"));
                    }
                    saw_ticks = true;
                    dump.ticks = values;
                } else {
                    dump.series.push((name.to_string(), values));
                }
            } else if let Some(kind) = ann {
                let need = |i: usize| {
                    numbers[i].ok_or_else(|| {
                        format!(
                            "line {lineno}: annotation missing {:?}",
                            ANNOTATION_NUMBERS[i]
                        )
                    })
                };
                dump.annotations.push(DumpAnnotation {
                    t_s: need(0)?,
                    kind: kind.to_string(),
                    label: label
                        .ok_or_else(|| format!("line {lineno}: annotation missing \"label\""))?
                        .to_string(),
                    value: need(1)?,
                    limit: need(2)?,
                });
            } else {
                return Err(format!(
                    "line {lineno}: neither a signal column nor an annotation: {line:?}"
                ));
            }
        }
        if !saw_ticks {
            return Err(format!("missing the {TICK_SIGNAL:?} index column"));
        }
        if dump.ticks.len() as u64 != declared_points {
            return Err(format!(
                "header declares {declared_points} points but {TICK_SIGNAL:?} has {}",
                dump.ticks.len()
            ));
        }
        if dump.series.len() as u64 != declared_signals {
            return Err(format!(
                "header declares {declared_signals} signals but file carries {}",
                dump.series.len()
            ));
        }
        if dump.annotations.len() as u64 != declared_annotations {
            return Err(format!(
                "header declares {declared_annotations} annotations but file carries {}",
                dump.annotations.len()
            ));
        }
        for (name, column) in &dump.series {
            if column.len() != dump.ticks.len() {
                return Err(format!(
                    "signal {name:?} has {} points but {TICK_SIGNAL:?} has {}",
                    column.len(),
                    dump.ticks.len()
                ));
            }
        }
        Ok(dump)
    }

    /// The column for `signal`, or `None` for an unknown name.
    pub fn values(&self, signal: &str) -> Option<&[u64]> {
        self.series
            .iter()
            .find(|(name, _)| name == signal)
            .map(|(_, v)| v.as_slice())
    }
}

/// Comparison direction of one SLO rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SloOp {
    /// The signal must stay at or below the limit (`<=`).
    Le,
    /// The signal must stay at or above the limit (`>=`).
    Ge,
}

impl SloOp {
    /// The operator's source spelling.
    pub fn tag(self) -> &'static str {
        match self {
            SloOp::Le => "<=",
            SloOp::Ge => ">=",
        }
    }
}

/// One parsed SLO rule: `metric OP limit`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SloRule {
    /// The user-facing metric key (`util`, `native_p99_wait`, …).
    pub key: &'static str,
    /// The telemetry signal column the rule reads.
    pub signal: &'static str,
    /// Comparison direction.
    pub op: SloOp,
    /// The limit, in the signal's units (permille for fractional metrics).
    pub limit: u64,
}

/// Parsed `--slo` specification: a comma list of rules.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SloSpec {
    /// The rules, in spec order. Rule indices in breach events refer to
    /// this order.
    pub rules: Vec<SloRule>,
}

impl SloSpec {
    /// Parse a comma list of `metric<=LIMIT` / `metric>=LIMIT` rules, e.g.
    /// `native_p99_wait<=3600,util>=0.85`. Fractional metrics (`util`,
    /// `frag`) take a decimal fraction in `[0, 1]` with up to three
    /// decimals, converted to permille; everything else takes an integer
    /// in the signal's natural unit (seconds, CPUs, jobs, CPU·s).
    pub fn parse(s: &str) -> Result<SloSpec, String> {
        let mut rules = Vec::new();
        for part in s.split(',').filter(|p| !p.is_empty()) {
            let (op, split_at) = if let Some(k) = part.find("<=") {
                (SloOp::Le, k)
            } else if let Some(k) = part.find(">=") {
                (SloOp::Ge, k)
            } else {
                return Err(format!(
                    "--slo: expected metric<=LIMIT or metric>=LIMIT, got {part:?}"
                ));
            };
            let key_raw = part[..split_at].trim();
            let value = part[split_at + 2..].trim();
            let Some(&(key, signal, fractional)) =
                SLO_METRICS.iter().find(|(k, _, _)| *k == key_raw)
            else {
                let known: Vec<&str> = SLO_METRICS.iter().map(|(k, _, _)| *k).collect();
                return Err(format!(
                    "--slo: unknown metric {key_raw:?} (use {})",
                    known.join(", ")
                ));
            };
            let limit = if fractional {
                parse_fraction_permille(value).ok_or_else(|| {
                    format!("--slo: {key} wants a fraction in [0,1], got {value:?}")
                })?
            } else {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("--slo: {key} wants an integer, got {value:?}"))?
            };
            rules.push(SloRule {
                key,
                signal,
                op,
                limit,
            });
        }
        if rules.is_empty() {
            return Err("--slo: no rules given".to_string());
        }
        Ok(SloSpec { rules })
    }
}

/// Parse `0.85` / `1` / `0.9` as permille (850 / 1000 / 900) without float
/// arithmetic: integer part, then up to three decimal digits.
fn parse_fraction_permille(s: &str) -> Option<u64> {
    let (int_part, frac_part) = match s.split_once('.') {
        Some((i, f)) => (i, f),
        None => (s, ""),
    };
    let int: u64 = int_part.parse().ok()?;
    if frac_part.len() > 3 || frac_part.chars().any(|c| !c.is_ascii_digit()) {
        return None;
    }
    let frac: u64 = if frac_part.is_empty() {
        0
    } else {
        // Right-pad to exactly three digits: "9" -> 900, "85" -> 850.
        let padded: u64 = frac_part.parse().ok()?;
        padded * 10u64.pow(3 - frac_part.len() as u32)
    };
    let permille = int.checked_mul(1000)?.checked_add(frac)?;
    (permille <= 1000).then_some(permille)
}

/// One breach or clear transition reported by the watchdog.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SloTransition {
    /// Index of the rule in the spec.
    pub rule: u32,
    /// The rule's user-facing metric key.
    pub metric: &'static str,
    /// The observed signal value at the transition tick.
    pub value: u64,
    /// The rule's limit.
    pub limit: u64,
    /// True for a breach, false for a clear.
    pub breached: bool,
}

/// Online SLO evaluator: holds per-rule breach state and reports only the
/// *transitions*, so an SLO that stays breached for a thousand ticks emits
/// one event, not a thousand.
#[derive(Clone, Debug, Default)]
pub struct SloWatchdog {
    /// `(rule, column index into the bus's signal order)`.
    rules: Vec<(SloRule, usize)>,
    breached: Vec<bool>,
}

impl SloWatchdog {
    /// A watchdog with no rules (never fires).
    pub fn none() -> Self {
        SloWatchdog::default()
    }

    /// Resolve each rule's signal against `signals` (the bus's column
    /// order). Errors if a rule names a signal the bus does not sample.
    pub fn new(spec: &SloSpec, signals: &'static [&'static str]) -> Result<Self, String> {
        let mut rules = Vec::with_capacity(spec.rules.len());
        for rule in &spec.rules {
            let idx = signals
                .iter()
                .position(|s| *s == rule.signal)
                .ok_or_else(|| {
                    format!(
                        "--slo: metric {} reads signal {:?}, which this bus does not sample",
                        rule.key, rule.signal
                    )
                })?;
            rules.push((*rule, idx));
        }
        let breached = vec![false; rules.len()];
        Ok(SloWatchdog { rules, breached })
    }

    /// True when no rules are loaded.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Evaluate every rule against one tick's `values` (in bus signal
    /// order) and return the breach/clear transitions, in rule order.
    pub fn evaluate(&mut self, values: &[u64]) -> Vec<SloTransition> {
        let mut out = Vec::new();
        for (i, (rule, column)) in self.rules.iter().enumerate() {
            let Some(&value) = values.get(*column) else {
                continue;
            };
            let ok = match rule.op {
                SloOp::Le => value <= rule.limit,
                SloOp::Ge => value >= rule.limit,
            };
            if self.breached[i] == ok {
                self.breached[i] = !ok;
                out.push(SloTransition {
                    rule: i as u32,
                    metric: rule.key,
                    value,
                    limit: rule.limit,
                    breached: !ok,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIGS: &[&str] = &["a", "b"];

    #[test]
    fn disabled_bus_is_inert_and_never_allocates() {
        let mut bus = TelemetryBus::disabled();
        assert!(!bus.is_enabled());
        assert_eq!(bus.pending_tick(SimTime::from_secs(1_000_000)), None);
        bus.record_tick(0, &[1, 2]);
        bus.annotate(0, AnnotationKind::Breach, "util", 1, 2);
        bus.set_machine("Ross", 1436);
        assert!(bus.is_empty());
        assert!(bus.annotations().is_empty());
        assert_eq!(bus.to_jsonl(), "");
    }

    #[test]
    fn cadence_ticks_fire_in_order() {
        let mut bus = TelemetryBus::enabled(60, SIGS);
        assert_eq!(bus.pending_tick(SimTime::ZERO), Some(0));
        bus.record_tick(0, &[1, 10]);
        assert_eq!(bus.pending_tick(SimTime::from_secs(59)), None);
        assert_eq!(bus.pending_tick(SimTime::from_secs(60)), Some(60));
        // An event far in the future flushes every elapsed tick one by one.
        bus.record_tick(60, &[2, 20]);
        assert_eq!(bus.pending_tick(SimTime::from_secs(200)), Some(120));
        bus.record_tick(120, &[3, 30]);
        assert_eq!(bus.pending_tick(SimTime::from_secs(200)), Some(180));
        bus.record_tick(180, &[4, 40]);
        assert_eq!(bus.pending_tick(SimTime::from_secs(200)), None);
        assert_eq!(bus.ticks(), &[0, 60, 120, 180]);
        assert_eq!(bus.values("a"), Some(&[1, 2, 3, 4][..]));
        assert_eq!(bus.values("b"), Some(&[10, 20, 30, 40][..]));
        assert_eq!(bus.values("nope"), None);
    }

    #[test]
    fn decimation_keeps_even_points_and_doubles_cadence() {
        let mut bus = TelemetryBus::enabled(10, SIGS).with_budget(4);
        let mut t = 0;
        for i in 0..4u64 {
            bus.record_tick(t, &[i, i * 2]);
            t += bus.effective_cadence_s();
        }
        assert_eq!(bus.ticks(), &[0, 10, 20, 30]);
        // The 5th point triggers decimation first: {0,20} survive, cadence
        // doubles to 20, and the new point lands at 40 — on the new grid.
        assert_eq!(bus.pending_tick(SimTime::from_secs(40)), Some(40));
        bus.record_tick(40, &[4, 8]);
        assert_eq!(bus.ticks(), &[0, 20, 40]);
        assert_eq!(bus.values("a"), Some(&[0, 2, 4][..]));
        assert_eq!(bus.effective_cadence_s(), 20);
        assert_eq!(bus.decimations(), 1);
        assert_eq!(bus.pending_tick(SimTime::from_secs(60)), Some(60));
    }

    #[test]
    fn export_and_strict_reader_round_trip() {
        let mut bus = TelemetryBus::enabled(30, SIGS);
        bus.set_machine("Ross", 1436);
        bus.record_tick(0, &[5, 6]);
        bus.record_tick(30, &[7, 8]);
        bus.annotate(30, AnnotationKind::Breach, "util", 7, 6);
        bus.annotate(60, AnnotationKind::MachineDown, "", 0, 0);
        let text = bus.to_jsonl();
        assert!(text.starts_with(
            "{\"telemetry_schema\":1,\"machine\":\"Ross\",\"cpus\":1436,\"cadence_s\":30,\
             \"effective_cadence_s\":30,\"decimations\":0,\"points\":2,\"signals\":2,\
             \"annotations\":2}\n"
        ));
        let dump = TelemetryDump::from_jsonl(&text).unwrap();
        assert_eq!(dump.schema, 1);
        assert_eq!(dump.machine, Some(("Ross".to_string(), 1436)));
        assert_eq!(dump.cadence_s, 30);
        assert_eq!(dump.ticks, vec![0, 30]);
        assert_eq!(dump.values("a"), Some(&[5, 7][..]));
        assert_eq!(dump.values("b"), Some(&[6, 8][..]));
        assert_eq!(dump.annotations.len(), 2);
        assert_eq!(dump.annotations[0].kind, "breach");
        assert_eq!(dump.annotations[0].label, "util");
        assert_eq!(dump.annotations[1].kind, "machine_down");
        // Same bus, same calls → byte-identical export.
        assert_eq!(text, bus.to_jsonl());
    }

    #[test]
    fn strict_reader_rejects_malformed_files() {
        assert!(TelemetryDump::from_jsonl("").unwrap_err().contains("empty"));
        assert!(TelemetryDump::from_jsonl("{\"schema\":1}\n")
            .unwrap_err()
            .contains("not a telemetry header"));
        assert!(TelemetryDump::from_jsonl("{\"telemetry_schema\":99}\n")
            .unwrap_err()
            .contains("unsupported telemetry schema 99"));
        let mut bus = TelemetryBus::enabled(30, SIGS);
        bus.record_tick(0, &[1, 2]);
        let good = bus.to_jsonl();
        // A truncated signal line is a hard error, not a skip.
        let broken = good.replace("\"values\":[2]", "\"values\":[2");
        assert_eq!(
            TelemetryDump::from_jsonl(&broken).unwrap_err(),
            "line 4, byte 25: expected ',' or ']', found '}'"
        );
        let broken = good.replace("\"values\":[2]}", "\"values\":[2");
        assert!(TelemetryDump::from_jsonl(&broken)
            .unwrap_err()
            .contains("unterminated array"));
        // A garbage element is a hard error.
        let broken = good.replace("\"values\":[2]", "\"values\":[x]");
        assert!(TelemetryDump::from_jsonl(&broken)
            .unwrap_err()
            .contains("line 4, byte 24: expected an unsigned integer as array element"));
        // Dropping a whole signal line breaks the declared count.
        let missing: String = good
            .lines()
            .filter(|l| !l.contains("\"signal\":\"b\""))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(TelemetryDump::from_jsonl(&missing)
            .unwrap_err()
            .contains("declares 2 signals"));
        // A stray non-telemetry line is a hard error.
        let noisy = format!("{good}{{\"ev\":\"start\"}}\n");
        assert!(TelemetryDump::from_jsonl(&noisy)
            .unwrap_err()
            .contains("neither a signal column nor an annotation"));
    }

    #[test]
    fn slo_spec_parses_the_fault_spec_grammar() {
        let spec = SloSpec::parse("native_p99_wait<=3600,util>=0.85").unwrap();
        assert_eq!(spec.rules.len(), 2);
        assert_eq!(spec.rules[0].key, "native_p99_wait");
        assert_eq!(spec.rules[0].signal, "native_wait_p99_s");
        assert_eq!(spec.rules[0].op, SloOp::Le);
        assert_eq!(spec.rules[0].limit, 3600);
        assert_eq!(spec.rules[1].key, "util");
        assert_eq!(spec.rules[1].op, SloOp::Ge);
        assert_eq!(spec.rules[1].limit, 850, "0.85 → permille");

        // Fraction spellings.
        assert_eq!(SloSpec::parse("util>=1").unwrap().rules[0].limit, 1000);
        assert_eq!(SloSpec::parse("util>=0.9").unwrap().rules[0].limit, 900);
        assert_eq!(SloSpec::parse("frag<=0.125").unwrap().rules[0].limit, 125);

        // Errors name the problem.
        assert!(SloSpec::parse("").unwrap_err().contains("no rules"));
        assert!(SloSpec::parse("util=0.5").unwrap_err().contains("expected"));
        assert!(SloSpec::parse("bogus<=1")
            .unwrap_err()
            .contains("unknown metric"));
        assert!(SloSpec::parse("util>=1.5")
            .unwrap_err()
            .contains("fraction in [0,1]"));
        assert!(SloSpec::parse("util>=0.8500")
            .unwrap_err()
            .contains("fraction"));
        assert!(SloSpec::parse("queue_depth<=x")
            .unwrap_err()
            .contains("integer"));
    }

    #[test]
    fn watchdog_reports_transitions_not_levels() {
        let spec = SloSpec::parse("queue_depth<=5,util>=0.5").unwrap();
        let mut dog = SloWatchdog::new(&spec, DRIVER_SIGNALS).unwrap();
        assert!(!dog.is_empty());
        let qd = DRIVER_SIGNALS
            .iter()
            .position(|s| *s == "queue_depth")
            .unwrap();
        let util = DRIVER_SIGNALS
            .iter()
            .position(|s| *s == "util_permille")
            .unwrap();
        let mut values = vec![0u64; DRIVER_SIGNALS.len()];
        values[qd] = 3;
        values[util] = 600;
        assert!(dog.evaluate(&values).is_empty(), "all healthy: no events");
        values[qd] = 9;
        let t = dog.evaluate(&values);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].metric, "queue_depth");
        assert!(t[0].breached);
        assert_eq!((t[0].value, t[0].limit), (9, 5));
        assert!(dog.evaluate(&values).is_empty(), "still breached: silent");
        values[qd] = 2;
        values[util] = 400;
        let t = dog.evaluate(&values);
        assert_eq!(t.len(), 2, "queue clears while util breaches");
        assert!(!t[0].breached);
        assert_eq!(t[0].metric, "queue_depth");
        assert!(t[1].breached);
        assert_eq!(t[1].metric, "util");
    }

    #[test]
    fn slo_metric_keys_intern_and_resolve_against_driver_signals() {
        for (key, signal, _) in SLO_METRICS {
            assert_eq!(slo_metric_key(key), Some(*key));
            assert!(
                DRIVER_SIGNALS.contains(signal),
                "SLO metric {key} reads {signal}, which the driver must sample"
            );
        }
        assert_eq!(slo_metric_key("nope"), None);
    }

    #[test]
    fn watchdog_rejects_rules_over_unsampled_signals() {
        let spec = SloSpec::parse("queue_depth<=10").unwrap();
        assert!(SloWatchdog::new(&spec, &["queue_depth"]).is_ok());
        let spec = SloSpec::parse("util>=0.5").unwrap();
        assert!(SloWatchdog::new(&spec, &["queue_depth"])
            .unwrap_err()
            .contains("does not sample"));
    }
}
