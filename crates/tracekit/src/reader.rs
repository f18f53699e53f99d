//! Streaming trace reader: schema check, line recovery, reused buffers.
//!
//! [`TraceReader`] pulls events one at a time from any [`BufRead`] source
//! with a single reused line buffer, so memory stays flat regardless of
//! trace length. The first line is inspected for the `{"schema":…}`
//! header: an unsupported version is a hard error (analyzing a trace
//! whose encoding we do not understand would silently produce garbage),
//! while a headerless stream — traces written before the header existed —
//! is tolerated and flagged. Corrupt event lines are counted and skipped
//! (with the first few retained verbatim for diagnostics) rather than
//! aborting a multi-million-line analysis. Decoding a line is the trace
//! format's own job (`obs::event::parse_line`); this module holds only
//! that policy.

use obs::event::{parse_line, Line};
use obs::trace::{SCHEMA_VERSION, SCHEMA_VERSION_TELEMETRY};
use obs::TraceEvent;
use std::io::BufRead;

/// Why reading a trace failed outright (line-level corruption is
/// *recovered*, not raised — see [`ReadStats`]).
#[derive(Debug)]
pub enum TraceError {
    /// The underlying reader failed.
    Io(std::io::Error),
    /// The header declares a schema version this tracekit cannot read.
    UnsupportedSchema {
        /// The version the trace declared.
        found: u64,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "reading trace: {e}"),
            TraceError::UnsupportedSchema { found } => write!(
                f,
                "unsupported trace schema version {found} (this tracekit reads schemas \
                 {SCHEMA_VERSION}-{SCHEMA_VERSION_TELEMETRY}); regenerate the trace with a \
                 matching simulator or upgrade tracekit"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// What the trace header declared (or failed to declare).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceMeta {
    /// Declared schema version ([`SCHEMA_VERSION`] through
    /// [`SCHEMA_VERSION_TELEMETRY`] once validated; 0 for a headerless
    /// legacy stream).
    pub schema: u64,
    /// Machine name from the header, if stamped.
    pub machine: Option<String>,
    /// Machine CPU count from the header, if stamped.
    pub cpus: Option<u32>,
    /// True when the stream had no header line (pre-versioning trace).
    pub headerless: bool,
}

/// Keep at most this many corrupt-line samples for error reporting.
const ERROR_SAMPLES: usize = 5;

/// Counters accumulated while reading.
#[derive(Clone, Debug, Default)]
pub struct ReadStats {
    /// Events successfully parsed and handed to the caller.
    pub events: u64,
    /// Non-blank lines examined (header excluded).
    pub lines: u64,
    /// Lines that failed to parse and were skipped.
    pub corrupt: u64,
    /// Up to [`ERROR_SAMPLES`] `(line_number, message)` pairs for the
    /// first corrupt lines (1-based, counting every line incl. header).
    pub first_errors: Vec<(u64, String)>,
}

/// A pull-based trace reader over any buffered byte source.
pub struct TraceReader<R: BufRead> {
    src: R,
    buf: String,
    meta: TraceMeta,
    stats: ReadStats,
    /// When the first line was an event (headerless stream), it is parked
    /// here so `next_event` can hand it out first.
    pending: Option<TraceEvent>,
    /// Physical line number of the last line read (1-based).
    lineno: u64,
}

impl<R: BufRead> TraceReader<R> {
    /// Open a trace: reads and validates the header line. Fails on I/O
    /// errors and on a header declaring an unsupported schema version.
    pub fn new(mut src: R) -> Result<Self, TraceError> {
        let mut buf = String::with_capacity(128);
        let mut meta = TraceMeta::default();
        let mut stats = ReadStats::default();
        let mut pending = None;
        let mut lineno = 0;
        if src.read_line(&mut buf)? > 0 {
            lineno = 1;
            match parse_line(&buf) {
                Ok(Line::Header(h)) => {
                    if !(SCHEMA_VERSION..=SCHEMA_VERSION_TELEMETRY).contains(&h.schema) {
                        return Err(TraceError::UnsupportedSchema { found: h.schema });
                    }
                    meta.schema = h.schema;
                    meta.machine = h.machine.map(str::to_string);
                    meta.cpus = h.cpus;
                }
                Ok(Line::Event(ev)) => {
                    meta.headerless = true;
                    stats.lines = 1;
                    pending = Some(ev);
                }
                Err(e) => {
                    meta.headerless = true;
                    stats.lines = 1;
                    stats.corrupt = 1;
                    stats
                        .first_errors
                        .push((1, format!("byte {}: {}", e.byte, e.msg)));
                }
            }
        }
        Ok(TraceReader {
            src,
            buf,
            meta,
            stats,
            pending,
            lineno,
        })
    }

    /// Header facts (available immediately after [`TraceReader::new`]).
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Counters so far.
    pub fn stats(&self) -> &ReadStats {
        &self.stats
    }

    /// The next event, or `None` at end of stream. Corrupt lines are
    /// skipped and counted; a mid-stream header line counts as corrupt
    /// (concatenated traces are not a valid stream).
    pub fn next_event(&mut self) -> Result<Option<TraceEvent>, TraceError> {
        if let Some(ev) = self.pending.take() {
            self.stats.events += 1;
            return Ok(Some(ev));
        }
        loop {
            self.buf.clear();
            if self.src.read_line(&mut self.buf)? == 0 {
                return Ok(None);
            }
            self.lineno += 1;
            if self.buf.trim().is_empty() {
                continue;
            }
            self.stats.lines += 1;
            let outcome = match parse_line(&self.buf) {
                Ok(Line::Event(ev)) => Ok(ev),
                Ok(Line::Header(_)) => Err("unexpected header line mid-stream".to_string()),
                Err(e) => Err(format!("byte {}: {}", e.byte, e.msg)),
            };
            match outcome {
                Ok(ev) => {
                    self.stats.events += 1;
                    return Ok(Some(ev));
                }
                Err(msg) => {
                    self.stats.corrupt += 1;
                    if self.stats.first_errors.len() < ERROR_SAMPLES {
                        self.stats.first_errors.push((self.lineno, msg));
                    }
                }
            }
        }
    }

    /// Drive every remaining event through `f`.
    pub fn for_each(&mut self, mut f: impl FnMut(&TraceEvent)) -> Result<(), TraceError> {
        while let Some(ev) = self.next_event()? {
            f(&ev);
        }
        Ok(())
    }
}

/// Open a trace file with a buffered reader.
pub fn open_path(
    path: &std::path::Path,
) -> Result<TraceReader<std::io::BufReader<std::fs::File>>, TraceError> {
    let file = std::fs::File::open(path)?;
    TraceReader::new(std::io::BufReader::new(file))
}

/// Read a whole in-memory trace (tests, fixtures) into a `Vec`.
pub fn read_all(text: &str) -> Result<(TraceMeta, Vec<TraceEvent>, ReadStats), TraceError> {
    let mut r = TraceReader::new(std::io::Cursor::new(text))?;
    let mut out = Vec::new();
    while let Some(ev) = r.next_event()? {
        out.push(ev);
    }
    Ok((r.meta, out, r.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::EventKind;

    const HEADER: &str = "{\"schema\":1,\"machine\":\"Ross\",\"cpus\":1436}\n";
    const OUTAGE: &str = "{\"t\":5,\"cycle\":1,\"ev\":\"outage\",\"up\":\"true\"}\n";
    const SUBMIT: &str =
        "{\"t\":9,\"cycle\":2,\"ev\":\"submit\",\"job\":1,\"cpus\":4,\"estimate_s\":60,\"class\":\"native\"}\n";

    #[test]
    fn reads_header_then_events() {
        let text = format!("{HEADER}{OUTAGE}{SUBMIT}");
        let (meta, evs, stats) = read_all(&text).unwrap();
        assert_eq!(meta.schema, 1);
        assert_eq!(meta.machine.as_deref(), Some("Ross"));
        assert_eq!(meta.cpus, Some(1436));
        assert!(!meta.headerless);
        assert_eq!(evs.len(), 2);
        assert!(matches!(evs[0].kind, EventKind::Outage { up: true }));
        assert_eq!(stats.events, 2);
        assert_eq!(stats.corrupt, 0);
    }

    #[test]
    fn unsupported_schema_is_a_hard_error() {
        let e = read_all("{\"schema\":99}\n").unwrap_err();
        match e {
            TraceError::UnsupportedSchema { found } => assert_eq!(found, 99),
            other => panic!("{other:?}"),
        }
        let msg = e.to_string();
        assert!(msg.contains("99") && msg.contains("schemas 1-4"), "{msg}");
    }

    /// Decoding each kind is `obs::event`'s to test; the reader's part is
    /// accepting every version in range.
    #[test]
    fn every_supported_schema_is_accepted() {
        for schema in SCHEMA_VERSION..=SCHEMA_VERSION_TELEMETRY {
            let text =
                format!("{{\"schema\":{schema},\"machine\":\"Ross\",\"cpus\":1436}}\n{OUTAGE}");
            let (meta, evs, stats) = read_all(&text).unwrap();
            assert_eq!((meta.schema, evs.len(), stats.corrupt), (schema, 1, 0));
        }
    }

    #[test]
    fn headerless_stream_is_tolerated_and_flagged() {
        let text = format!("{OUTAGE}{SUBMIT}");
        let (meta, evs, stats) = read_all(&text).unwrap();
        assert!(meta.headerless);
        assert_eq!(meta.schema, 0);
        assert_eq!(evs.len(), 2, "first line must not be swallowed");
        assert_eq!(stats.events, 2);
    }

    #[test]
    fn corrupt_lines_are_skipped_and_sampled() {
        let text = format!("{HEADER}{OUTAGE}garbage line\n{{\"t\":1}}\n{SUBMIT}");
        let (_, evs, stats) = read_all(&text).unwrap();
        assert_eq!(evs.len(), 2);
        assert_eq!(stats.corrupt, 2);
        assert_eq!(stats.first_errors.len(), 2);
        assert_eq!(stats.first_errors[0].0, 3, "1-based incl. header");
    }

    #[test]
    fn mid_stream_header_counts_as_corrupt() {
        let text = format!("{HEADER}{OUTAGE}{HEADER}{SUBMIT}");
        let (_, evs, stats) = read_all(&text).unwrap();
        assert_eq!(evs.len(), 2);
        assert_eq!(stats.corrupt, 1);
        assert!(stats.first_errors[0].1.contains("mid-stream"));
    }

    #[test]
    fn empty_and_blank_streams() {
        let (meta, evs, stats) = read_all("").unwrap();
        assert!(evs.is_empty());
        assert_eq!(stats.lines, 0);
        assert_eq!(meta.schema, 0);
        let (_, evs, _) = read_all(&format!("{HEADER}\n\n")).unwrap();
        assert!(evs.is_empty());
    }

    #[test]
    fn error_sampling_caps_out() {
        let mut text = HEADER.to_string();
        for _ in 0..20 {
            text.push_str("junk\n");
        }
        let (_, _, stats) = read_all(&text).unwrap();
        assert_eq!(stats.corrupt, 20);
        assert_eq!(stats.first_errors.len(), ERROR_SAMPLES);
    }
}
