//! Structured tracing, metrics, and profiling for the hqnn workspace.
//!
//! The paper this repo reproduces makes a *cost* claim — FLOPs and parameter
//! counts of the smallest model reaching the accuracy bar — so the workspace
//! needs to see where time and work actually go. This crate provides that
//! observability with **no external dependencies** beyond the workspace's own
//! serde stubs:
//!
//! - **Spans** ([`span`]): RAII-guarded hierarchical timers. Every span
//!   records into a global registry keyed by its full path (e.g.
//!   `repro/train/epoch`), aggregating call count, total/min/max time, and
//!   p50/p95/p99 latency from a bounded log-linear histogram (quantile
//!   error ≤ 1/64, no retained samples — see [`hist`]).
//! - **Counters and gauges** ([`counter`], [`gauge`]): cheap named totals
//!   (`qsim.gate_applies`, `search.combos_evaluated`, …). Counters and
//!   [`gauge_max`] high-water marks write to per-thread shards, merged
//!   deterministically (sum / max) at [`snapshot`], [`flush`], and thread
//!   exit — parallel hot loops never contend on a global lock.
//! - **Events** ([`event`]): leveled, structured records dispatched to
//!   pluggable [`Sink`]s — a human-readable stderr logger (level set by the
//!   `HQNN_LOG` env var: `off|error|warn|info|debug|trace`), a JSONL file sink for
//!   machine-readable run logs, and an in-memory sink for tests.
//! - **Reports** ([`report`]): an indented span-tree profile with self vs.
//!   cumulative time, designed to be printed at the end of a bench binary.
//!
//! # Example
//!
//! ```
//! use hqnn_telemetry as telemetry;
//!
//! telemetry::reset(); // fresh state (tests only)
//! {
//!     let _outer = telemetry::span("outer");
//!     let _inner = telemetry::span("inner");
//!     telemetry::counter("example.widgets", 3);
//! }
//! let stats = telemetry::snapshot();
//! assert_eq!(stats.spans["outer/inner"].count, 1);
//! assert_eq!(stats.counters["example.widgets"], 3);
//! assert!(telemetry::report().contains("outer"));
//! ```

#![forbid(unsafe_code)]

pub mod alloc;
pub mod artifact;
pub mod env;
mod event;
pub mod hist;
pub mod manifest;
mod registry;
mod report;
mod sink;
mod span;
pub mod trace;

pub use artifact::write_atomic;
pub use event::{Event, FieldValue, Level};
pub use manifest::{config_hash, RunManifest};
pub use registry::{CounterSnapshot, Snapshot, SpanStats};
pub use report::report;
pub use sink::{MemorySink, Sink};
pub use span::{
    current_causal_context, current_span_id, current_span_path, propagate_causal_context,
    propagate_span_path, CausalContext, PropagatedPathGuard, SpanGuard,
};

use std::path::Path;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Process-wide epoch: event timestamps are microseconds since this instant.
fn process_start() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// Microseconds elapsed since the process first touched telemetry.
pub fn now_us() -> u64 {
    process_start().elapsed().as_micros() as u64
}

static LEVEL: AtomicU8 = AtomicU8::new(u8::MAX); // MAX = "not yet initialised"

fn sinks() -> &'static Mutex<Vec<Box<dyn Sink>>> {
    static SINKS: OnceLock<Mutex<Vec<Box<dyn Sink>>>> = OnceLock::new();
    SINKS.get_or_init(|| Mutex::new(vec![Box::new(sink::StderrSink)]))
}

/// Initialises the global level from `HQNN_LOG` if not yet set. Called
/// lazily by every emission path; harmless to call again.
pub fn init() {
    if LEVEL.load(Ordering::SeqCst) == u8::MAX {
        let raw = std::env::var("HQNN_LOG").ok();
        apply_env_level(raw.as_deref());
        // With the level established, surface any HQNN_* typos exactly once.
        env::warn_unknown_vars();
        // Allocation counting opt-in (HQNN_ALLOC=1); read once per process.
        alloc::init_from_env();
    }
}

/// Applies an `HQNN_LOG`-style value. An unrecognised value falls back to
/// `error` — but loudly: a one-time `telemetry.bad_log_level` event names the
/// bad value and the accepted spellings instead of silently muting the run.
fn apply_env_level(raw: Option<&str>) {
    match raw.map(str::parse::<Level>) {
        None => LEVEL.store(Level::Error as u8, Ordering::SeqCst),
        Some(Ok(level)) => LEVEL.store(level as u8, Ordering::SeqCst),
        Some(Err(err)) => {
            // Store before emitting: `event` re-enters `init`, which must
            // see an initialised level.
            LEVEL.store(Level::Error as u8, Ordering::SeqCst);
            static WARNED: std::sync::atomic::AtomicBool =
                std::sync::atomic::AtomicBool::new(false);
            if !WARNED.swap(true, Ordering::SeqCst) {
                event(
                    Level::Error,
                    "telemetry.bad_log_level",
                    &[
                        ("value", raw.unwrap_or_default().into()),
                        ("error", err.into()),
                    ],
                );
            }
        }
    }
}

/// Overrides the log level (wins over `HQNN_LOG`).
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::SeqCst);
}

/// The currently active log level.
pub fn level() -> Level {
    init();
    Level::from_u8(LEVEL.load(Ordering::SeqCst))
}

/// True when events at `level` would reach the sinks.
pub fn enabled(level: Level) -> bool {
    level as u8 <= self::level() as u8
}

/// Registers a JSONL sink appending one JSON object per event to `path`.
/// Events of every level are written regardless of `HQNN_LOG` — the file is
/// a machine-readable run log, not a console.
pub fn add_jsonl_sink(path: impl AsRef<Path>) -> std::io::Result<()> {
    let jsonl = sink::JsonlSink::create(path.as_ref())?;
    sinks()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .push(Box::new(jsonl));
    Ok(())
}

/// Registers an in-memory sink and returns a handle for inspecting the
/// captured events (intended for tests).
pub fn add_memory_sink() -> MemorySink {
    let mem = MemorySink::new();
    sinks()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .push(Box::new(mem.clone()));
    mem
}

/// Flushes metrics and sinks (call before reading a JSONL file mid-run and
/// before process exit).
///
/// Ordering matters: per-thread metric shards are drained into the base
/// registry *first*, then a `telemetry.metrics` event carrying the merged
/// counters/gauges is emitted to recording sinks, and only then are the
/// sinks flushed — so a counter incremented on a worker thread is visible
/// in the JSONL file even if that worker never exited.
pub fn flush() {
    registry::global().drain_all_shards();
    emit_metrics_event();
    for sink in sinks()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter_mut()
    {
        sink.flush();
    }
}

/// Emits one debug-level `telemetry.metrics` event with every counter and
/// gauge as a field (sorted by name, counters first). Skipped when there is
/// nothing to report, so event-only runs see no extra lines.
fn emit_metrics_event() {
    let snap = snapshot();
    if snap.counters.is_empty() && snap.gauges.is_empty() {
        return;
    }
    let mut counters: Vec<_> = snap.counters.into_iter().collect();
    counters.sort();
    let mut gauges: Vec<_> = snap.gauges.into_iter().collect();
    gauges.sort_by(|a, b| a.0.cmp(&b.0));
    let fields: Vec<(&str, FieldValue)> = counters
        .iter()
        .map(|(k, v)| (k.as_str(), FieldValue::U64(*v)))
        .chain(
            gauges
                .iter()
                .map(|(k, v)| (k.as_str(), FieldValue::F64(*v))),
        )
        .collect();
    event(Level::Debug, "telemetry.metrics", &fields);
}

/// Drains the calling thread's metric shard into the global registry.
///
/// Parallel workers call this at the end of their scope so their deltas are
/// merged before the scope's owner reads a snapshot; it also runs
/// automatically when a thread exits. Calling it on a thread with no shard
/// is a no-op.
pub fn drain_local_metrics() {
    registry::drain_local();
}

/// Emits a structured event. Filtered sinks (stderr) drop events above the
/// active level; recording sinks (JSONL, memory) receive everything. The
/// event is stamped with the causal ID of the innermost open span (if any),
/// linking JSONL records to the span tree they were emitted under.
pub fn event(level: Level, name: &str, fields: &[(&str, FieldValue)]) {
    let span_id = current_span_id();
    emit(level, name, fields, (span_id != 0).then_some(span_id), None);
}

/// Shared emission path: [`event`] auto-stamps the current span; span
/// guards pass their own explicit identity.
pub(crate) fn emit(
    level: Level,
    name: &str,
    fields: &[(&str, FieldValue)],
    span_id: Option<u64>,
    parent_id: Option<u64>,
) {
    init();
    let ev = Event {
        ts_us: now_us(),
        level,
        name: name.to_string(),
        span_id,
        parent_id,
        fields: fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    };
    let console = enabled(level);
    for sink in sinks()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter_mut()
    {
        if console || !sink.respects_level() {
            sink.record(&ev);
        }
    }
}

/// Opens a timed span; the returned guard records into the global registry
/// (and emits a `span` event at debug level) when dropped.
#[must_use = "a span only measures the scope of its guard"]
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard::enter(name)
}

/// Records a duration under `path` without an enclosing guard — the hook
/// used by hot paths that batch their measurements and by tests that need
/// exact known distributions.
pub fn record_duration(path: &str, duration: Duration) {
    registry::global().record_span(path, duration);
}

/// Adds `delta` to the named counter.
///
/// The increment lands in the calling thread's private shard (uncontended
/// even with many parallel workers) and is merged — by exact integer sum,
/// so the result is schedule-independent — into [`snapshot`]s, [`flush`],
/// and thread exit. Each thread interns `name` once; after that an
/// increment adds to the thread's own slot for it, with no hash of the
/// text, no lock and no allocation. Names are keyed by their text, so two
/// copies of the same literal count into one key.
pub fn counter(name: &'static str, delta: u64) {
    registry::add_counter_sharded(name, delta);
    if enabled(Level::Trace) {
        event(
            Level::Trace,
            "counter",
            &[("name", name.into()), ("delta", delta.into())],
        );
    }
}

/// Sets the named gauge to `value` (last write wins).
///
/// Under concurrency, last-writer-wins makes the stored value depend on
/// thread scheduling. Gauges that multiple threads write — e.g. a
/// working-set-size gauge updated by parallel workers — should use
/// [`gauge_max`] instead, whose result is schedule-independent.
pub fn gauge(name: &str, value: f64) {
    registry::global().set_gauge(name, value);
    if enabled(Level::Trace) {
        event(
            Level::Trace,
            "gauge",
            &[("name", name.into()), ("value", value.into())],
        );
    }
}

/// Raises the named gauge to `value` if higher than its current value — a
/// high-water mark over the report window (i.e. since the last
/// [`reset`]/startup). Race-free under concurrent writers: whatever the
/// interleaving, the stored value is the maximum ever observed.
pub fn gauge_max(name: &str, value: f64) {
    registry::set_gauge_max_sharded(name, value);
    if enabled(Level::Trace) {
        event(
            Level::Trace,
            "gauge_max",
            &[("name", name.into()), ("value", value.into())],
        );
    }
}

/// A point-in-time copy of every span aggregate, counter, and gauge.
pub fn snapshot() -> Snapshot {
    registry::global().snapshot()
}

/// Clears all recorded spans, counters, gauges, trace records, and sinks
/// except stderr, disables trace recording, and re-reads the level. Intended
/// for tests and between bench phases.
pub fn reset() {
    registry::global().clear();
    trace::disable();
    trace::clear();
    let mut sinks = sinks()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    sinks.clear();
    sinks.push(Box::new(sink::StderrSink));
    LEVEL.store(u8::MAX, Ordering::SeqCst);
    init();
}

#[cfg(test)]
mod tests {
    use super::*;

    // Serialised by a mutex: these tests mutate global state.
    fn with_clean_state(f: impl FnOnce()) {
        static GUARD: Mutex<()> = Mutex::new(());
        let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_level(Level::Off);
        f();
        reset();
    }

    #[test]
    fn spans_nest_into_paths() {
        with_clean_state(|| {
            {
                let _a = span("a");
                {
                    let _b = span("b");
                }
                {
                    let _b = span("b");
                }
            }
            let snap = snapshot();
            assert_eq!(snap.spans["a"].count, 1);
            assert_eq!(snap.spans["a/b"].count, 2);
        });
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        with_clean_state(|| {
            counter("c", 2);
            counter("c", 3);
            gauge("g", 1.5);
            gauge("g", 2.5);
            let snap = snapshot();
            assert_eq!(snap.counters["c"], 5);
            assert_eq!(snap.gauges["g"], 2.5);
        });
    }

    #[test]
    fn bad_env_level_warns_once_and_falls_back() {
        with_clean_state(|| {
            let mem = add_memory_sink();
            apply_env_level(Some("verbose"));
            assert_eq!(level(), Level::Error, "falls back to error");
            let warnings = mem.events_named("telemetry.bad_log_level");
            assert_eq!(warnings.len(), 1, "warns exactly once");
            let rendered = warnings[0].human_readable();
            assert!(rendered.contains("verbose"), "names the bad value");
            assert!(
                rendered.contains("off|error|warn|info|debug|trace"),
                "lists accepted levels"
            );
            // Re-applying (e.g. another lazy init after reset) must not spam.
            apply_env_level(Some("chatty"));
            assert_eq!(mem.events_named("telemetry.bad_log_level").len(), 1);
        });
    }

    #[test]
    fn level_parsing_and_filtering() {
        with_clean_state(|| {
            assert!(!enabled(Level::Error));
            set_level(Level::Info);
            assert!(enabled(Level::Error));
            assert!(enabled(Level::Info));
            assert!(!enabled(Level::Debug));
            assert_eq!("trace".parse::<Level>().unwrap(), Level::Trace);
            assert!("bogus".parse::<Level>().is_err());
        });
    }
}
