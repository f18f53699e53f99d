//! The readers of all four artifact formats (perf baseline, recorder dump,
//! telemetry export, trace) never panic on corrupt input.
//!
//! One valid artifact of each format is mutated a few thousand times by an
//! in-repo LCG: a byte deleted, inserted or replaced, or the text cut short.
//! Every mutation must parse or return `Err` without panicking. A byte
//! edit inside a value can legitimately yield a different valid file
//! (`"t":42` becomes `"t":2`), so the classes of edits whose outcome is
//! fixed are checked on their own: corrupting the structure must be an
//! error, and whitespace between tokens must parse to the original value.

use obs::event::{parse_line, EventKind, PreemptKind, StartKind};
use obs::perf::{PerfBaseline, ScenarioPerf, PERF_SCHEMA};
use obs::profile::{PhaseStat, ProfileSnapshot};
use obs::recorder::{CycleRecorder, CycleTotals, PhaseNanos, RecorderDump};
use obs::telemetry::{AnnotationKind, TelemetryBus, TelemetryDump};
use obs::{AllocCounters, TraceSink, WorkCounters};
use simkit::time::SimTime;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A format's reader, reduced to the `Debug` rendering of what it read.
type Parse = fn(&str) -> Result<String, String>;

fn perf_text() -> String {
    let mut work = WorkCounters::enabled();
    work.record_engine(100, 120, 8);
    work.record_sched(10, 5, 3, 77, 40);
    let mut mem = AllocCounters::enabled();
    assert!(mem.set_field("allocations", 12));
    let mut b = PerfBaseline {
        schema: PERF_SCHEMA,
        machine: "ross".to_string(),
        jobs_prefix: 2000,
        ..PerfBaseline::default()
    };
    for (name, mem) in [("fault_free", None), ("faulted", Some(mem))] {
        let jobs = 8;
        let s = ScenarioPerf { jobs, work, mem };
        b.scenarios.insert(name.to_string(), s);
    }
    b.to_json()
}

fn recorder_text() -> String {
    let mut r = CycleRecorder::with_limits(4, 2);
    let mut totals = CycleTotals::default();
    for i in 0..6 {
        let token = r.begin();
        totals.events += 1 + i % 3;
        totals.candidates += 7 * i;
        r.end_cycle(
            token,
            SimTime::from_secs(60 * i),
            i,
            totals,
            PhaseNanos::default(),
        );
    }
    let mut profile = ProfileSnapshot::default();
    let stat = PhaseStat {
        calls: 6,
        total_ns: 12_345,
        ..PhaseStat::default()
    };
    profile.phases.insert("backfill", stat);
    r.to_jsonl(&profile)
}

fn telemetry_text() -> String {
    let mut bus = TelemetryBus::enabled(30, &["util_permille", "queue_depth"]);
    bus.set_machine("Ross", 1436);
    for i in 0..4 {
        bus.record_tick(30 * i, &[100 * i, 4 - i]);
    }
    bus.annotate(30, AnnotationKind::Breach, "util", 100, 850);
    bus.annotate(60, AnnotationKind::MachineDown, "", 0, 0);
    bus.to_jsonl()
}

fn trace_text() -> String {
    let mut sink = TraceSink::enabled();
    sink.set_machine("Blue Mountain", 6144);
    let kinds = [
        EventKind::Submit {
            job: 3,
            cpus: 32,
            estimate_s: 7200,
            interstitial: false,
        },
        EventKind::Start {
            job: 3,
            cpus: 32,
            kind: StartKind::Backfill,
        },
        EventKind::Preempt {
            job: 1 << 40,
            cpus: 16,
            kind: PreemptKind::Checkpoint,
        },
        EventKind::Outage { up: false },
        EventKind::NodeDown { node: 2, cpus: 16 },
        EventKind::JobFailed {
            job: 5,
            cpus: 16,
            node: 2,
            interstitial: true,
        },
        EventKind::JobRequeued { job: 5, attempt: 1 },
        EventKind::JobCheckpointed {
            job: 1 << 40,
            checkpoints: 3,
            salvaged_s: 90,
            lost_s: 25,
        },
        EventKind::JobResumed {
            job: 1 << 40,
            remaining_s: 30,
        },
        EventKind::SloBreach {
            rule: 0,
            metric: "native_p99_wait",
            value: 4000,
            limit: 3600,
        },
        EventKind::Finish {
            job: 3,
            cpus: 32,
            wait_s: 40,
            interstitial: false,
        },
    ];
    for (i, kind) in (0..).zip(kinds) {
        sink.advance_cycle();
        sink.record(SimTime::from_secs(100 * i), kind);
    }
    sink.to_jsonl()
}

fn formats() -> [(&'static str, String, Parse); 4] {
    [
        ("perf", perf_text(), |t| {
            PerfBaseline::from_json(t).map(|v| format!("{v:?}"))
        }),
        ("recorder", recorder_text(), |t| {
            RecorderDump::from_jsonl(t).map(|v| format!("{v:?}"))
        }),
        ("telemetry", telemetry_text(), |t| {
            TelemetryDump::from_jsonl(t).map(|v| format!("{v:?}"))
        }),
        ("trace", trace_text(), |t| {
            let lines: Result<Vec<_>, _> = t.lines().map(parse_line).collect();
            lines.map(|v| format!("{v:?}")).map_err(|e| e.to_string())
        }),
    ]
}

/// Parse `text`, turning a panic into a test failure that shows the input.
fn parse_or_fail(name: &str, parse: Parse, text: &str) -> Result<String, String> {
    catch_unwind(AssertUnwindSafe(|| parse(text)))
        .unwrap_or_else(|_| panic!("{name} reader panicked on {text:?}"))
}

/// For each byte: is it inside a string literal (quotes included)? No
/// writer emits escapes, so quotes alternate.
fn in_string(text: &str) -> Vec<bool> {
    let mut inside = false;
    text.bytes()
        .map(|b| {
            if b == b'"' {
                inside = !inside;
                return true;
            }
            inside
        })
        .collect()
}

struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % n as u64) as usize
    }
}

/// What the random edits insert or write: structure, digits, letters,
/// whitespace and one multi-byte character.
const ALPHABET: [&str; 16] = [
    "{", "}", "[", "]", "\"", ":", ",", "0", "7", "9", "x", "G", " ", "\n", "-", "µ",
];

#[test]
fn random_edits_never_panic() {
    for (name, text, parse) in formats() {
        let original = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut rng = Lcg(0x9e37_79b9_7f4a_7c15);
        let (mut same, mut errors) = (0, 0);
        for _ in 0..1_000 {
            let at = rng.below(text.len());
            let byte = ALPHABET[rng.below(ALPHABET.len())];
            let mutated = match rng.below(4) {
                0 => format!("{}{}", &text[..at], &text[at + 1..]),
                1 => format!("{}{byte}{}", &text[..at], &text[at..]),
                2 => format!("{}{byte}{}", &text[..at], &text[at + 1..]),
                _ => text[..at].to_string(),
            };
            match parse_or_fail(name, parse, &mutated) {
                Ok(v) if v == original => same += 1,
                Ok(_) => {}
                Err(_) => errors += 1,
            }
        }
        assert!(
            same > 0 && errors > 0,
            "{name}: {same} same, {errors} errors"
        );
    }
}

#[test]
fn structural_corruption_is_always_an_error() {
    for (name, text, parse) in formats() {
        let strings = in_string(&text);
        let structural = |i: usize| !strings[i] && b"{}[]:".contains(&text.as_bytes()[i]);
        let expect_err = |mutated: String, what: &str| {
            assert!(
                parse_or_fail(name, parse, &mutated).is_err(),
                "{name}: {what} accepted: {mutated:?}"
            );
        };
        for (i, b) in text.bytes().enumerate() {
            if b == b'"' || structural(i) {
                expect_err(format!("{}{}", &text[..i], &text[i + 1..]), "deletion");
            }
            if !strings[i] && matches!(b, b'}' | b']') {
                let garbage = format!("{}GARBAGE{}", &text[..=i], &text[i + 1..]);
                expect_err(garbage, "garbage after a closing brace");
            }
            if !strings[i] && b.is_ascii_digit() {
                expect_err(format!("{}x{}", &text[..i], &text[i + 1..]), "digit edit");
            }
            let line_end = text[..i].ends_with('\n') || b == b'\n';
            if i > 0 && i < text.trim_end().len() && !line_end {
                expect_err(text[..i].to_string(), "truncation");
            }
        }
    }
}

#[test]
fn recorder_dump_cut_at_a_line_boundary_is_an_error() {
    // The header declares how many cycle and top records follow, so a cut
    // between lines that loses any of them must fail; only the trailing
    // phase lines carry no declared count.
    let text = recorder_text();
    let records = text
        .lines()
        .filter(|l| l.contains("\"kind\":\"cycle\"") || l.contains("\"kind\":\"top\""))
        .count();
    assert_eq!(records, 4 + 2, "a full ring and a full top-K ledger");
    let mut cut_off = 0;
    for (i, _) in text.match_indices('\n') {
        let (kept, lost) = text.split_at(i + 1);
        if lost.contains("\"kind\":\"cycle\"") || lost.contains("\"kind\":\"top\"") {
            let read = RecorderDump::from_jsonl(kept);
            let err = read.expect_err(&format!("cut after byte {i} accepted"));
            assert!(err.starts_with("truncated recorder dump"), "{err}");
            cut_off += 1;
        }
    }
    assert_eq!(cut_off, records, "one cut before each record");
}

#[test]
fn whitespace_between_tokens_parses_to_the_original() {
    for (name, text, parse) in formats() {
        let original = parse(&text).unwrap();
        let strings = in_string(&text);
        for (i, b) in text.bytes().enumerate() {
            if !strings[i] && matches!(b, b',' | b':' | b'{' | b'[') {
                let spaced = format!("{} \t{}", &text[..=i], &text[i + 1..]);
                let read = parse_or_fail(name, parse, &spaced);
                assert_eq!(read.as_ref(), Ok(&original), "{name}: {spaced:?}");
            }
        }
    }
}
