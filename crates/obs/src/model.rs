//! Loading and indexing JSONL telemetry traces.

use hqnn_telemetry::{Event, FieldValue};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// Error loading or analysing a trace.
#[derive(Debug)]
pub enum ObsError {
    /// Reading the file failed.
    Io {
        /// The path that failed to read.
        path: String,
        /// The underlying IO error, rendered.
        error: String,
    },
    /// A line was not a valid telemetry event.
    Parse {
        /// 1-based line number in the input.
        line: usize,
        /// What went wrong.
        error: String,
    },
    /// The request itself was malformed (bad filter syntax, unknown weight).
    BadRequest(
        /// Human-readable description of the problem.
        String,
    ),
}

impl fmt::Display for ObsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObsError::Io { path, error } => write!(f, "cannot read {path}: {error}"),
            ObsError::Parse { line, error } => write!(f, "line {line}: {error}"),
            ObsError::BadRequest(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ObsError {}

/// One completed span occurrence reconstructed from a `span` event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Slash-separated span path (`repro/search/combo`).
    pub path: String,
    /// Wall-clock duration in microseconds.
    pub dur_us: u64,
    /// Timestamp of the completion event (µs since process start).
    pub ts_us: u64,
    /// Causal ID of this occurrence; `0` in logs that predate causal IDs.
    pub span_id: u64,
    /// Causal ID of the parent occurrence; `0` for roots and legacy logs.
    pub parent_id: u64,
    /// Allocations inside the span's same-thread subtree (`HQNN_ALLOC=1`).
    pub alloc_count: u64,
    /// Bytes allocated inside the span's same-thread subtree.
    pub alloc_bytes: u64,
    /// Peak live bytes above the level at span entry.
    pub peak_bytes: u64,
}

/// A fully-parsed JSONL trace: raw events plus the span and metric indexes
/// every analysis works from.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Every event, in file order.
    pub events: Vec<Event>,
    /// Every span completion, in file order.
    pub spans: Vec<SpanRecord>,
    /// Counter values from the *first* `telemetry.metrics` event.
    pub counters_first: BTreeMap<String, u64>,
    /// Counter values from the *last* `telemetry.metrics` event. With one
    /// flush per run (the common case) this is the run total.
    pub counters_last: BTreeMap<String, u64>,
    /// Gauge values from the last `telemetry.metrics` event.
    pub gauges: BTreeMap<String, f64>,
    /// How many `telemetry.metrics` events the trace carried.
    pub metrics_events: usize,
}

impl Trace {
    /// Loads and parses a JSONL trace file.
    pub fn load(path: &Path) -> Result<Trace, ObsError> {
        let text = std::fs::read_to_string(path).map_err(|e| ObsError::Io {
            path: path.display().to_string(),
            error: e.to_string(),
        })?;
        Trace::parse(&text)
    }

    /// Parses a JSONL trace from text. Blank lines are skipped; any other
    /// unparsable line is an error (truncated tails should be fixed at the
    /// source, not silently dropped from analyses).
    ///
    /// A trace whose `dur_us`, `alloc_bytes` or `alloc_count` sum over all
    /// spans overflows `u64` is rejected too: every per-path and per-parent
    /// total the analyses take is bounded by these sums, so none of them can
    /// overflow once parsing succeeds.
    pub fn parse(text: &str) -> Result<Trace, ObsError> {
        let mut trace = Trace::default();
        let mut totals = [0u64; 3];
        for (idx, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let ev: Event = serde_json::from_str(line).map_err(|e| ObsError::Parse {
                line: idx + 1,
                error: e.to_string(),
            })?;
            let spans_before = trace.spans.len();
            trace.index(&ev);
            if let Some(s) = trace.spans.get(spans_before) {
                totals = add_span(totals, s).ok_or_else(|| ObsError::Parse {
                    line: idx + 1,
                    error: "span dur_us, alloc_bytes or alloc_count totals overflow u64"
                        .to_string(),
                })?;
            }
            trace.events.push(ev);
        }
        Ok(trace)
    }

    fn index(&mut self, ev: &Event) {
        if ev.name == "span" {
            if let Some(path) = field_str(ev, "path") {
                self.spans.push(SpanRecord {
                    path: path.to_string(),
                    dur_us: field_u64(ev, "dur_us").unwrap_or(0),
                    ts_us: ev.ts_us,
                    span_id: ev.span_id.unwrap_or(0),
                    parent_id: ev.parent_id.unwrap_or(0),
                    alloc_count: field_u64(ev, "alloc_count").unwrap_or(0),
                    alloc_bytes: field_u64(ev, "alloc_bytes").unwrap_or(0),
                    peak_bytes: field_u64(ev, "peak_bytes").unwrap_or(0),
                });
            }
        } else if ev.name == "telemetry.metrics" {
            self.metrics_events += 1;
            let mut counters = BTreeMap::new();
            let mut gauges = BTreeMap::new();
            for (k, v) in &ev.fields {
                match v {
                    FieldValue::U64(n) => {
                        counters.insert(k.clone(), *n);
                    }
                    FieldValue::F64(g) => {
                        gauges.insert(k.clone(), *g);
                    }
                    _ => {}
                }
            }
            if self.metrics_events == 1 {
                self.counters_first = counters.clone();
            }
            self.counters_last = counters;
            self.gauges = gauges;
        }
    }

    /// `true` when any span in the trace carries a causal ID — the signal to
    /// run instance-level (rather than path-aggregate) analyses.
    pub fn has_causal_ids(&self) -> bool {
        self.spans.iter().any(|s| s.span_id != 0)
    }

    /// Counter deltas over the trace: last-minus-first when the trace holds
    /// more than one `telemetry.metrics` flush, else the final totals.
    /// Counters absent from the first flush count from zero.
    pub fn counter_deltas(&self) -> BTreeMap<String, u64> {
        self.counters_last
            .iter()
            .map(|(k, last)| {
                let first = if self.metrics_events > 1 {
                    self.counters_first.get(k).copied().unwrap_or(0)
                } else {
                    0
                };
                (k.clone(), last.saturating_sub(first))
            })
            .collect()
    }

    /// Span durations (µs) grouped by path, in path order. File order is
    /// preserved within each path so medians are reproducible.
    pub fn durations_by_path(&self) -> BTreeMap<&str, Vec<u64>> {
        let mut by_path: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
        for s in &self.spans {
            by_path.entry(s.path.as_str()).or_default().push(s.dur_us);
        }
        by_path
    }
}

/// `totals` (`dur_us`, `alloc_bytes`, `alloc_count`) plus one span's, or
/// `None` on overflow.
fn add_span(totals: [u64; 3], s: &SpanRecord) -> Option<[u64; 3]> {
    Some([
        totals[0].checked_add(s.dur_us)?,
        totals[1].checked_add(s.alloc_bytes)?,
        totals[2].checked_add(s.alloc_count)?,
    ])
}

/// A `u64`-ish field value (accepts the integer encodings JSON round-trips
/// can produce).
pub(crate) fn field_u64(ev: &Event, key: &str) -> Option<u64> {
    ev.fields
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| match v {
            FieldValue::U64(n) => Some(*n),
            FieldValue::I64(n) => u64::try_from(*n).ok(),
            _ => None,
        })
}

/// A string field value.
pub(crate) fn field_str<'a>(ev: &'a Event, key: &str) -> Option<&'a str> {
    ev.fields
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| match v {
            FieldValue::Str(s) => Some(s.as_str()),
            _ => None,
        })
}

/// Upper median of a sorted-on-demand sample set (`sorted[len/2]`): cheap,
/// integer-exact, and stable for the small per-path sample counts traces
/// produce. Returns 0 for an empty set.
pub(crate) fn median_u64(samples: &[u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[sorted.len() / 2]
}

/// Median absolute deviation around [`median_u64`], same convention.
pub(crate) fn mad_u64(samples: &[u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let med = median_u64(samples);
    let devs: Vec<u64> = samples.iter().map(|&s| s.abs_diff(med)).collect();
    median_u64(&devs)
}

/// Nearest-rank percentile (`p` in 0..=100) of the samples.
pub(crate) fn percentile_u64(samples: &[u64], p: u64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (p * sorted.len() as u64).div_ceil(100).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Renders a µs quantity the way the telemetry profile does (ns granularity
/// is below JSONL resolution, so the ladder starts at µs).
pub(crate) fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1e3)
    } else {
        format!("{us}µs")
    }
}

/// Renders a byte count with binary suffixes (mirrors the profile report).
pub(crate) fn fmt_bytes(bytes: u64) -> String {
    const KIB: u64 = 1 << 10;
    const MIB: u64 = 1 << 20;
    const GIB: u64 = 1 << 30;
    if bytes >= GIB {
        format!("{:.2}GiB", bytes as f64 / GIB as f64)
    } else if bytes >= MIB {
        format!("{:.2}MiB", bytes as f64 / MIB as f64)
    } else if bytes >= KIB {
        format!("{:.1}KiB", bytes as f64 / KIB as f64)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{"ts_us":10,"level":"info","event":"study.start","run":"a"}
{"ts_us":50,"level":"debug","event":"span","span_id":"00000000000000c1","parent_id":"00000000000000b1","path":"repro/search/combo","dur_us":30,"alloc_count":4,"alloc_bytes":2048,"peak_bytes":1024}
{"ts_us":90,"level":"debug","event":"span","span_id":"00000000000000b1","parent_id":"00000000000000a1","path":"repro/search","dur_us":80}
{"ts_us":95,"level":"debug","event":"span","span_id":"00000000000000a1","path":"repro","dur_us":92}
{"ts_us":99,"level":"debug","event":"telemetry.metrics","qsim.gate_applies":1000,"train.loss":0.5}
"#;

    #[test]
    fn parses_spans_metrics_and_ids() {
        let t = Trace::parse(SAMPLE).expect("parse");
        assert_eq!(t.events.len(), 5);
        assert_eq!(t.spans.len(), 3);
        assert!(t.has_causal_ids());
        assert_eq!(t.spans[0].span_id, 0xc1);
        assert_eq!(t.spans[0].parent_id, 0xb1);
        assert_eq!(t.spans[0].alloc_bytes, 2048);
        assert_eq!(t.spans[2].parent_id, 0);
        assert_eq!(t.counters_last.get("qsim.gate_applies"), Some(&1000));
        assert_eq!(t.gauges.get("train.loss"), Some(&0.5));
        assert_eq!(t.counter_deltas().get("qsim.gate_applies"), Some(&1000));
    }

    #[test]
    fn legacy_lines_without_ids_parse_as_zero() {
        let legacy =
            r#"{"ts_us":123,"level":"debug","event":"span","path":"repro/train","dur_us":1000}"#;
        let t = Trace::parse(legacy).expect("parse");
        assert_eq!(t.spans.len(), 1);
        assert!(!t.has_causal_ids());
        assert_eq!(t.spans[0].span_id, 0);
        assert_eq!(t.spans[0].parent_id, 0);
    }

    #[test]
    fn malformed_lines_error_with_line_numbers() {
        let bad = "{\"ts_us\":1,\"level\":\"info\",\"event\":\"x\"}\nnot json\n";
        match Trace::parse(bad) {
            Err(ObsError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn span_totals_past_u64_are_rejected_not_wrapped() {
        for field in ["dur_us", "alloc_bytes", "alloc_count"] {
            let line = format!(
                r#"{{"ts_us":1,"level":"debug","event":"span","path":"run","{field}":{}}}"#,
                u64::MAX
            );
            assert!(Trace::parse(&line).is_ok(), "{field}: one span fits");
            match Trace::parse(&format!("{line}\n\n{line}\n")) {
                Err(ObsError::Parse { line, .. }) => assert_eq!(line, 3, "{field}"),
                other => panic!("{field}: expected overflow error, got {other:?}"),
            }
        }
    }

    #[test]
    fn stats_helpers_are_integer_exact() {
        assert_eq!(median_u64(&[5, 1, 9]), 5);
        assert_eq!(median_u64(&[4, 2]), 4);
        assert_eq!(median_u64(&[]), 0);
        assert_eq!(mad_u64(&[10, 10, 16]), 0);
        assert_eq!(percentile_u64(&[1, 2, 3, 4], 50), 2);
        assert_eq!(percentile_u64(&[1, 2, 3, 4], 99), 4);
        assert_eq!(fmt_us(950), "950µs");
        assert_eq!(fmt_us(1500), "1.50ms");
        assert_eq!(fmt_us(2_000_000), "2.00s");
        assert_eq!(fmt_bytes(2048), "2.0KiB");
    }
}
