//! The trace event alphabet.
//!
//! One record per scheduler-visible state change, mirroring the per-event
//! schedule traces of Dubenskaya & Polyakov (arXiv:1909.00394): submissions,
//! starts (split by placement kind), finishes, preemptions and outage
//! boundaries. Every record carries the sim-time (integer seconds) and the
//! scheduling-cycle id it belongs to, so a trace can be replayed or diffed
//! event-for-event.

use crate::json::{self, Scalar};
use simkit::time::SimTime;

/// How a job came to occupy CPUs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StartKind {
    /// Dispatched from the head of the priority-ordered native queue.
    InOrder,
    /// A native job that jumped a blocked head (backfill placement).
    Backfill,
    /// An interstitial job placed into spare cycles (Figure 1 placement).
    Interstitial,
    /// A checkpointed interstitial job resuming after suspension.
    Resume,
}

impl StartKind {
    /// Every start kind.
    pub(crate) const ALL: [StartKind; 4] = [
        StartKind::InOrder,
        StartKind::Backfill,
        StartKind::Interstitial,
        StartKind::Resume,
    ];

    /// Stable lowercase tag used in the JSONL encoding.
    pub fn tag(self) -> &'static str {
        match self {
            StartKind::InOrder => "inorder",
            StartKind::Backfill => "backfill",
            StartKind::Interstitial => "interstitial",
            StartKind::Resume => "resume",
        }
    }
}

/// What preemption did to a running interstitial job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PreemptKind {
    /// Work discarded; the job will be resubmitted from scratch.
    Kill,
    /// Progress checkpointed; the job resumes later with remaining work.
    Checkpoint,
}

impl PreemptKind {
    /// Every preemption kind.
    pub(crate) const ALL: [PreemptKind; 2] = [PreemptKind::Kill, PreemptKind::Checkpoint];

    /// Stable lowercase tag used in the JSONL encoding.
    pub fn tag(self) -> &'static str {
        match self {
            PreemptKind::Kill => "kill",
            PreemptKind::Checkpoint => "checkpoint",
        }
    }
}

/// The payload of one trace record (sim-time and cycle id are attached by
/// the sink).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A job entered the system.
    Submit {
        /// Job id.
        job: u64,
        /// CPUs requested.
        cpus: u32,
        /// User-supplied runtime estimate, seconds.
        estimate_s: u64,
        /// True for interstitial jobs.
        interstitial: bool,
    },
    /// A job began executing.
    Start {
        /// Job id.
        job: u64,
        /// CPUs allocated.
        cpus: u32,
        /// Placement kind (in-order / backfill / interstitial / resume).
        kind: StartKind,
    },
    /// A job finished and released its CPUs.
    Finish {
        /// Job id.
        job: u64,
        /// CPUs released.
        cpus: u32,
        /// Queue wait realized by the job, seconds.
        wait_s: u64,
        /// True for interstitial jobs.
        interstitial: bool,
    },
    /// A running interstitial job was preempted for the native head.
    Preempt {
        /// Job id.
        job: u64,
        /// CPUs reclaimed.
        cpus: u32,
        /// Kill or checkpoint.
        kind: PreemptKind,
    },
    /// The machine crossed an outage boundary.
    Outage {
        /// True when the machine is up after this event.
        up: bool,
    },
    /// A node failed, taking its CPUs out of service (schema v2).
    NodeDown {
        /// Node index within the fault model.
        node: u32,
        /// CPUs the node removes from capacity.
        cpus: u32,
    },
    /// A failed node was repaired and rejoined the pool (schema v2).
    NodeUp {
        /// Node index within the fault model.
        node: u32,
        /// CPUs returned to capacity.
        cpus: u32,
    },
    /// A running job was killed by a node failure (schema v2).
    JobFailed {
        /// Job id.
        job: u64,
        /// CPUs the job held.
        cpus: u32,
        /// The failing node's index.
        node: u32,
        /// True for interstitial jobs.
        interstitial: bool,
    },
    /// A fault victim re-entered the system: a native victim requeued at
    /// the queue head, or an interstitial victim released for a backoff
    /// retry (schema v2).
    JobRequeued {
        /// Job id.
        job: u64,
        /// How many times this job has been fault-killed so far.
        attempt: u32,
    },
    /// An evicted interstitial job's progress was rounded down to its last
    /// completed checkpoint under `--recovery ckpt=I` (schema v3). Emitted
    /// at eviction time, summarizing the whole attempt — checkpoints are
    /// not individually traced.
    JobCheckpointed {
        /// Job id.
        job: u64,
        /// Checkpoints completed during the evicted attempt.
        checkpoints: u32,
        /// Total work credited to the job so far, seconds.
        salvaged_s: u64,
        /// Work past the last checkpoint, lost and re-executed, seconds.
        lost_s: u64,
    },
    /// An evicted interstitial job was frozen with all progress intact
    /// under `--recovery suspend` (schema v3).
    JobSuspended {
        /// Job id.
        job: u64,
        /// Work left when the job resumes, seconds.
        remaining_s: u64,
    },
    /// A checkpointed or suspended interstitial job restarted with its
    /// credited progress (schema v3). The matching `start` record carries
    /// `kind:"resume"`.
    JobResumed {
        /// Job id.
        job: u64,
        /// Work remaining at this restart, seconds.
        remaining_s: u64,
    },
    /// An SLO rule started failing at a telemetry tick (schema v4). Only
    /// emitted when a `--slo` watchdog is loaded, so untracked runs keep
    /// their smaller schema stamp bit-for-bit.
    SloBreach {
        /// Rule index within the `--slo` spec.
        rule: u32,
        /// The rule's metric key (interned; see `telemetry::slo_metric_key`).
        metric: &'static str,
        /// Observed signal value at the breach tick.
        value: u64,
        /// The rule's limit, in the signal's units.
        limit: u64,
    },
    /// A previously breached SLO rule recovered at a telemetry tick
    /// (schema v4).
    SloClear {
        /// Rule index within the `--slo` spec.
        rule: u32,
        /// The rule's metric key.
        metric: &'static str,
        /// Observed signal value at the clear tick.
        value: u64,
        /// The rule's limit, in the signal's units.
        limit: u64,
    },
}

/// The `class` tags of submit, finish and job_failed: native, interstitial.
const CLASS: [&str; 2] = ["native", "interstitial"];

/// The `up` tags of outage: down, up.
const UP: [&str; 2] = ["false", "true"];

/// Most payload fields any event kind carries.
const MAX_FIELDS: usize = 4;

/// One row of the trace format: an event kind's `ev` tag, the schema
/// version that introduced it, and its payload fields in wire order (each
/// line writes `t`, `cycle` and `ev` first). The writer, the decoder and
/// [`EventKind::schema_version`] all read this table, and a unit test holds
/// `crates/obs/SCHEMA.md` to it.
#[derive(Debug)]
pub struct EventSpec {
    /// The `ev` value.
    pub tag: &'static str,
    /// The trace-schema version that introduced this kind.
    pub since: u64,
    /// Payload field names, in the order they are written.
    pub fields: &'static [&'static str],
    /// Build the event from its payload values.
    decode: fn(&Payload<'_>) -> Option<EventKind>,
}

/// The trace format, one row per [`EventKind`] variant in declaration
/// order (the order `EventKind::wire` indexes).
pub static EVENTS: [EventSpec; 14] = [
    row("submit", 1, &["job", "cpus", "estimate_s", "class"], |p| {
        Some(EventKind::Submit {
            job: p.u64(0)?,
            cpus: p.u32(1)?,
            estimate_s: p.u64(2)?,
            interstitial: p.flag(3, CLASS)?,
        })
    }),
    row("start", 1, &["job", "cpus", "kind"], |p| {
        Some(EventKind::Start {
            job: p.u64(0)?,
            cpus: p.u32(1)?,
            kind: p.tag(2, StartKind::ALL, StartKind::tag)?,
        })
    }),
    row("finish", 1, &["job", "cpus", "wait_s", "class"], |p| {
        Some(EventKind::Finish {
            job: p.u64(0)?,
            cpus: p.u32(1)?,
            wait_s: p.u64(2)?,
            interstitial: p.flag(3, CLASS)?,
        })
    }),
    row("preempt", 1, &["job", "cpus", "kind"], |p| {
        Some(EventKind::Preempt {
            job: p.u64(0)?,
            cpus: p.u32(1)?,
            kind: p.tag(2, PreemptKind::ALL, PreemptKind::tag)?,
        })
    }),
    row("outage", 1, &["up"], |p| {
        Some(EventKind::Outage { up: p.flag(0, UP)? })
    }),
    row("node_down", 2, &["node", "cpus"], |p| {
        Some(EventKind::NodeDown {
            node: p.u32(0)?,
            cpus: p.u32(1)?,
        })
    }),
    row("node_up", 2, &["node", "cpus"], |p| {
        Some(EventKind::NodeUp {
            node: p.u32(0)?,
            cpus: p.u32(1)?,
        })
    }),
    row("job_failed", 2, &["job", "cpus", "node", "class"], |p| {
        Some(EventKind::JobFailed {
            job: p.u64(0)?,
            cpus: p.u32(1)?,
            node: p.u32(2)?,
            interstitial: p.flag(3, CLASS)?,
        })
    }),
    row("job_requeued", 2, &["job", "attempt"], |p| {
        Some(EventKind::JobRequeued {
            job: p.u64(0)?,
            attempt: p.u32(1)?,
        })
    }),
    row(
        "job_checkpointed",
        3,
        &["job", "checkpoints", "salvaged_s", "lost_s"],
        |p| {
            Some(EventKind::JobCheckpointed {
                job: p.u64(0)?,
                checkpoints: p.u32(1)?,
                salvaged_s: p.u64(2)?,
                lost_s: p.u64(3)?,
            })
        },
    ),
    row("job_suspended", 3, &["job", "remaining_s"], |p| {
        Some(EventKind::JobSuspended {
            job: p.u64(0)?,
            remaining_s: p.u64(1)?,
        })
    }),
    row("job_resumed", 3, &["job", "remaining_s"], |p| {
        Some(EventKind::JobResumed {
            job: p.u64(0)?,
            remaining_s: p.u64(1)?,
        })
    }),
    row(
        "slo_breach",
        4,
        &["rule", "metric", "value", "limit"],
        |p| {
            Some(EventKind::SloBreach {
                rule: p.u32(0)?,
                metric: p.metric(1)?,
                value: p.u64(2)?,
                limit: p.u64(3)?,
            })
        },
    ),
    row("slo_clear", 4, &["rule", "metric", "value", "limit"], |p| {
        Some(EventKind::SloClear {
            rule: p.u32(0)?,
            metric: p.metric(1)?,
            value: p.u64(2)?,
            limit: p.u64(3)?,
        })
    }),
];

const fn row(
    tag: &'static str,
    since: u64,
    fields: &'static [&'static str],
    decode: fn(&Payload<'_>) -> Option<EventKind>,
) -> EventSpec {
    EventSpec {
        tag,
        since,
        fields,
        decode,
    }
}

impl EventKind {
    /// This event's row of [`EVENTS`] and its payload values in the row's
    /// field order (slots past the row's fields are unused).
    fn wire(&self) -> (&'static EventSpec, [Scalar<'static>; MAX_FIELDS]) {
        use Scalar::{Str as S, U64 as N};
        let (row, values) = match *self {
            EventKind::Submit {
                job,
                cpus,
                estimate_s,
                interstitial,
            } => (
                0,
                [
                    N(job),
                    N(cpus.into()),
                    N(estimate_s),
                    S(CLASS[usize::from(interstitial)]),
                ],
            ),
            EventKind::Start { job, cpus, kind } => {
                (1, [N(job), N(cpus.into()), S(kind.tag()), N(0)])
            }
            EventKind::Finish {
                job,
                cpus,
                wait_s,
                interstitial,
            } => (
                2,
                [
                    N(job),
                    N(cpus.into()),
                    N(wait_s),
                    S(CLASS[usize::from(interstitial)]),
                ],
            ),
            EventKind::Preempt { job, cpus, kind } => {
                (3, [N(job), N(cpus.into()), S(kind.tag()), N(0)])
            }
            EventKind::Outage { up } => (4, [S(UP[usize::from(up)]), N(0), N(0), N(0)]),
            EventKind::NodeDown { node, cpus } => (5, [N(node.into()), N(cpus.into()), N(0), N(0)]),
            EventKind::NodeUp { node, cpus } => (6, [N(node.into()), N(cpus.into()), N(0), N(0)]),
            EventKind::JobFailed {
                job,
                cpus,
                node,
                interstitial,
            } => (
                7,
                [
                    N(job),
                    N(cpus.into()),
                    N(node.into()),
                    S(CLASS[usize::from(interstitial)]),
                ],
            ),
            EventKind::JobRequeued { job, attempt } => (8, [N(job), N(attempt.into()), N(0), N(0)]),
            EventKind::JobCheckpointed {
                job,
                checkpoints,
                salvaged_s,
                lost_s,
            } => (9, [N(job), N(checkpoints.into()), N(salvaged_s), N(lost_s)]),
            EventKind::JobSuspended { job, remaining_s } => {
                (10, [N(job), N(remaining_s), N(0), N(0)])
            }
            EventKind::JobResumed { job, remaining_s } => {
                (11, [N(job), N(remaining_s), N(0), N(0)])
            }
            EventKind::SloBreach {
                rule,
                metric,
                value,
                limit,
            } => (12, [N(rule.into()), S(metric), N(value), N(limit)]),
            EventKind::SloClear {
                rule,
                metric,
                value,
                limit,
            } => (13, [N(rule.into()), S(metric), N(value), N(limit)]),
        };
        (&EVENTS[row], values)
    }

    /// The minimum trace-schema version able to encode this event: its
    /// row's `since` in [`EVENTS`]. The sink stamps the maximum over all
    /// recorded events onto the header, so fault-free traces keep their
    /// schema-1 encoding bit-for-bit, `--recovery kill` runs stay schema
    /// 2, and runs without `--slo` never stamp 4.
    pub fn schema_version(&self) -> u64 {
        self.wire().0.since
    }
}

/// One line's payload values, slotted by its row's field order. Each
/// accessor gives `None` for a missing, mistyped or out-of-range value;
/// [`Payload::explain`] words the error.
struct Payload<'a> {
    spec: &'static EventSpec,
    values: [Option<Scalar<'a>>; MAX_FIELDS],
}

impl<'a> Payload<'a> {
    fn u64(&self, i: usize) -> Option<u64> {
        match self.values[i]? {
            Scalar::U64(n) => Some(n),
            Scalar::Str(_) => None,
        }
    }

    fn u32(&self, i: usize) -> Option<u32> {
        u32::try_from(self.u64(i)?).ok()
    }

    fn str(&self, i: usize) -> Option<&'a str> {
        match self.values[i]? {
            Scalar::Str(s) => Some(s),
            Scalar::U64(_) => None,
        }
    }

    /// The value among `all` whose tag is field `i`.
    fn tag<T: Copy, const N: usize>(
        &self,
        i: usize,
        all: [T; N],
        tag: impl Fn(T) -> &'static str,
    ) -> Option<T> {
        let s = self.str(i)?;
        all.into_iter().find(|&v| tag(v) == s)
    }

    /// Field `i` as a two-valued tag: false for `tags[0]`, true for `tags[1]`.
    fn flag(&self, i: usize, tags: [&'static str; 2]) -> Option<bool> {
        self.tag(i, [false, true], |b| tags[usize::from(b)])
    }

    /// Field `i` interned to the SLO metric key the in-memory event
    /// carries; names outside the watchdog's grammar mark a corrupt line.
    fn metric(&self, i: usize) -> Option<&'static str> {
        crate::telemetry::slo_metric_key(self.str(i)?)
    }

    /// Why the row's decode gave `None`: the first missing field, else
    /// the values it could not take.
    fn explain(&self) -> String {
        let fields = self.spec.fields.iter().zip(&self.values);
        match fields.clone().find(|(_, v)| v.is_none()) {
            Some((name, _)) => format!("missing field {name:?}"),
            None => {
                let values: Vec<_> = fields
                    .map(|(name, value)| match value {
                        Some(Scalar::U64(n)) => format!("{name}={n}"),
                        Some(Scalar::Str(s)) => format!("{name}={s:?}"),
                        None => String::new(),
                    })
                    .collect();
                format!("bad {} payload: {}", self.spec.tag, values.join(","))
            }
        }
    }
}

/// A fully tagged trace record: when, in which scheduling cycle, and what.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation instant, integer seconds.
    pub t: SimTime,
    /// Scheduling-cycle id the event belongs to (0 before the first cycle).
    pub cycle: u64,
    /// The event payload.
    pub kind: EventKind,
}

impl TraceEvent {
    /// Append this record as one JSON line (without trailing newline).
    pub fn write_jsonl(&self, out: &mut String) {
        let (spec, values) = self.kind.wire();
        out.push('{');
        let first = json::push_u64_field(out, true, "t", self.t.as_secs());
        let first = json::push_u64_field(out, first, "cycle", self.cycle);
        let mut first = json::push_str_field(out, first, "ev", spec.tag);
        for (name, value) in spec.fields.iter().zip(values) {
            first = match value {
                Scalar::U64(n) => json::push_u64_field(out, first, name, n),
                Scalar::Str(s) => json::push_str_field(out, first, name, s),
            };
        }
        out.push('}');
    }
}

/// The `{"schema":…}` line that leads every versioned trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header<'a> {
    /// Declared schema version.
    pub schema: u64,
    /// Machine preset name, when the driver stamped it.
    pub machine: Option<&'a str>,
    /// Total CPUs of the traced machine, when stamped.
    pub cpus: Option<u32>,
}

impl Header<'_> {
    /// Append the header as one JSON line (without trailing newline).
    pub fn write_jsonl(&self, out: &mut String) {
        out.push('{');
        let mut first = json::push_u64_field(out, true, "schema", self.schema);
        if let Some(name) = self.machine {
            first = json::push_str_field(out, first, "machine", name);
        }
        if let Some(cpus) = self.cpus {
            let _ = json::push_u64_field(out, first, "cpus", u64::from(cpus));
        }
        out.push('}');
    }
}

/// One decoded trace line: the header or an event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Line<'a> {
    /// The version header (normally the first line of a trace).
    Header(Header<'a>),
    /// A trace event.
    Event(TraceEvent),
}

/// Decode one trace line (a trailing newline is allowed). A line with a
/// `schema` key is a header; any other is an event, whose payload keys
/// follow its `ev` key as [`EVENTS`] lists them. Unknown keys are skipped.
/// Header strings borrow from `line`, and a line that decodes allocates
/// nothing; errors carry the byte where decoding stopped (line 1 is
/// `line` itself).
// Inlined into `tracekit::TraceReader`, which calls it once per line.
#[inline]
pub fn parse_line(line: &str) -> Result<Line<'_>, json::Error> {
    let (mut t, mut cycle, mut schema) = (None, None, None);
    let (mut machine, mut cpus) = (None, None);
    let mut spec: Option<&'static EventSpec> = None;
    let mut values = [None; MAX_FIELDS];
    json::read_object(line, 1, |r, key| {
        if let Some(i) = spec.and_then(|s| s.fields.iter().position(|f| *f == key)) {
            let value = r.value()?;
            values[i] =
                Some(value.ok_or_else(|| r.error(format!("field {key:?} is not a scalar")))?);
            return Ok(());
        }
        match key {
            "t" => t = Some(r.u64()?),
            "cycle" => cycle = Some(r.u64()?),
            "ev" => {
                let tag = r.string()?;
                let row = EVENTS.iter().find(|s| s.tag == tag);
                spec = Some(row.ok_or_else(|| r.error(format!("unknown event {tag:?}")))?);
            }
            "schema" => schema = Some(r.u64()?),
            "machine" if spec.is_none() => machine = Some(r.string()?),
            "cpus" if spec.is_none() => cpus = Some(r.u64()?),
            _ => r.skip()?,
        }
        Ok(())
    })?;
    let fail = |msg: String| json::Error {
        line: 1,
        byte: line.len(),
        msg,
    };
    if let Some(schema) = schema {
        let cpus = cpus
            .map(|n| u32::try_from(n).map_err(|_| fail(format!("header cpus {n} exceeds u32"))))
            .transpose()?;
        return Ok(Line::Header(Header {
            schema,
            machine,
            cpus,
        }));
    }
    let t = SimTime::from_secs(t.ok_or_else(|| fail("missing field \"t\"".into()))?);
    let cycle = cycle.ok_or_else(|| fail("missing field \"cycle\"".into()))?;
    let spec = spec.ok_or_else(|| fail("missing field \"ev\"".into()))?;
    let payload = Payload { spec, values };
    let kind = (spec.decode)(&payload).ok_or_else(|| fail(payload.explain()))?;
    Ok(Line::Event(TraceEvent { t, cycle, kind }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event_of(line: &str) -> TraceEvent {
        match parse_line(line).unwrap() {
            Line::Event(ev) => ev,
            Line::Header(h) => panic!("unexpected header {h:?}"),
        }
    }

    #[test]
    fn round_trips_every_event_kind() {
        let kinds = [
            EventKind::Submit {
                job: 3,
                cpus: 32,
                estimate_s: 7_200,
                interstitial: false,
            },
            EventKind::Submit {
                job: 1 << 40,
                cpus: 8,
                estimate_s: 0,
                interstitial: true,
            },
            EventKind::Start {
                job: 9,
                cpus: 32,
                kind: StartKind::Backfill,
            },
            EventKind::Start {
                job: 9,
                cpus: 32,
                kind: StartKind::Resume,
            },
            EventKind::Finish {
                job: 9,
                cpus: 32,
                wait_s: 40,
                interstitial: true,
            },
            EventKind::Preempt {
                job: 7,
                cpus: 16,
                kind: PreemptKind::Checkpoint,
            },
            EventKind::Outage { up: false },
            EventKind::NodeDown { node: 3, cpus: 8 },
            EventKind::NodeUp { node: 3, cpus: 8 },
            EventKind::JobFailed {
                job: 11,
                cpus: 16,
                node: 2,
                interstitial: true,
            },
            EventKind::JobRequeued {
                job: 11,
                attempt: 2,
            },
            EventKind::JobCheckpointed {
                job: 1 << 40,
                checkpoints: 3,
                salvaged_s: 90,
                lost_s: 17,
            },
            EventKind::JobSuspended {
                job: 1 << 40,
                remaining_s: 30,
            },
            EventKind::JobResumed {
                job: 1 << 40,
                remaining_s: 30,
            },
            EventKind::SloBreach {
                rule: 1,
                metric: "native_p99_wait",
                value: 4_000,
                limit: 3_600,
            },
            EventKind::SloClear {
                rule: 0,
                metric: "util",
                value: 912,
                limit: 900,
            },
        ];
        for kind in kinds {
            let ev = TraceEvent {
                t: SimTime::from_secs(42),
                cycle: 7,
                kind,
            };
            let mut s = String::new();
            ev.write_jsonl(&mut s);
            assert_eq!(event_of(&s), ev, "{s}");
        }
    }

    #[test]
    fn header_parses_with_and_without_machine() {
        match parse_line("{\"schema\":1,\"machine\":\"Blue Mountain\",\"cpus\":6144}").unwrap() {
            Line::Header(h) => {
                assert_eq!(h.schema, 1);
                assert_eq!(h.machine, Some("Blue Mountain"));
                assert_eq!(h.cpus, Some(6144));
            }
            other => panic!("{other:?}"),
        }
        match parse_line("{\"schema\":3}").unwrap() {
            Line::Header(h) => {
                assert_eq!(h.schema, 3);
                assert_eq!(h.machine, None);
                assert_eq!(h.cpus, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_keys_are_skipped() {
        let ev = event_of(
            "{\"t\":5,\"cycle\":1,\"future\":99,\"ev\":\"outage\",\"up\":\"true\",\"note\":\"x\"}",
        );
        assert_eq!(ev.t, SimTime::from_secs(5));
        assert_eq!(ev.kind, EventKind::Outage { up: true });
    }

    #[test]
    fn trailing_newline_is_tolerated() {
        let ev = event_of("{\"t\":5,\"cycle\":1,\"ev\":\"outage\",\"up\":\"false\"}\n");
        assert_eq!(ev.kind, EventKind::Outage { up: false });
    }

    #[test]
    fn corrupt_lines_error_without_panicking() {
        for bad in [
            "",
            "not json",
            "{\"t\":5}",
            "{\"t\":5,\"cycle\":1,\"ev\":\"start\",\"job\":1,\"cpus\":2}", // missing kind
            "{\"t\":5,\"cycle\":1,\"ev\":\"dance\",\"job\":1}",
            "{\"t\":\"five\",\"cycle\":1,\"ev\":\"outage\",\"up\":\"true\"}",
            "{\"t\":5,\"cycle\":1,\"ev\":\"outage\",\"up\":\"maybe\"}",
            "{\"t\":5,\"cycle\":1,\"ev\":\"submit\",\"job\":1,\"cpus\":99999999999,\"estimate_s\":1,\"class\":\"native\"}",
            "{\"t\":5,\"cycle\":1,\"ev\":\"outage\",\"up\":\"true\"}garbage",
            "{\"t\":5,\"cycle\":1,\"ev\":\"submit\",\"job\":1,\"cpus\":2,\"estimate_s\":1,\"class\":\"alien\"}",
            "{\"t\":5,\"cycle\":1,\"ev\":\"node_down\",\"cpus\":8}", // missing node
            "{\"t\":5,\"cycle\":1,\"ev\":\"job_requeued\",\"job\":1}", // missing attempt
            "{\"t\":5,\"cycle\":1,\"ev\":\"slo_breach\",\"rule\":0,\"metric\":\"vibes\",\"value\":1,\"limit\":2}",
            "{\"t\":5,\"cycle\":1,\"ev\":\"slo_clear\",\"rule\":0,\"value\":1,\"limit\":2}", // missing metric
        ] {
            assert!(parse_line(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn string_values_borrow_from_the_input() {
        let line = "{\"schema\":1,\"machine\":\"Ross\",\"cpus\":1436}".to_string();
        let parsed = parse_line(&line).unwrap();
        if let Line::Header(h) = parsed {
            let m = h.machine.unwrap();
            let line_range = line.as_ptr() as usize..line.as_ptr() as usize + line.len();
            assert!(line_range.contains(&(m.as_ptr() as usize)), "not zero-copy");
        } else {
            panic!("expected header");
        }
    }

    /// Each row's `### `tag`` section in SCHEMA.md: its JSON example
    /// decodes to that kind with the row's fields in order, re-encodes to
    /// the same bytes, and sits under the row's `## Version N` heading
    /// (version 1 has none).
    #[test]
    fn schema_md_documents_every_row_of_the_table() {
        let doc = include_str!("../SCHEMA.md");
        for spec in &EVENTS {
            let heading = format!("### `{}`", spec.tag);
            let at = doc
                .find(&heading)
                .unwrap_or_else(|| panic!("SCHEMA.md has no {heading} section"));
            let example = doc[at..]
                .split("```json\n")
                .nth(1)
                .and_then(|block| block.lines().next())
                .unwrap_or_else(|| panic!("{heading} has no JSON example"));
            let ev = event_of(example);
            assert_eq!(ev.kind.wire().0.tag, spec.tag, "{example}");
            let mut keys = Vec::new();
            json::read_object(example, 1, |r, key| {
                keys.push(key);
                r.skip()
            })
            .unwrap();
            assert_eq!(keys[..3], ["t", "cycle", "ev"], "{example}");
            assert_eq!(keys[3..], *spec.fields, "{example}");
            let mut bytes = String::new();
            ev.write_jsonl(&mut bytes);
            assert_eq!(bytes, example);
            let version = doc[..at]
                .rfind("\n## Version ")
                .map_or(1, |i| doc[i + 12..i + 13].parse().unwrap());
            assert_eq!(ev.kind.schema_version(), version, "{heading}");
        }
        let newest = EVENTS.iter().map(|s| s.since).max();
        assert_eq!(newest, Some(crate::trace::SCHEMA_VERSION_TELEMETRY));
    }
}
