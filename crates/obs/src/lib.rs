//! Trace-analysis engine for hqnn JSONL telemetry logs.
//!
//! Every analysis consumes the JSONL files written by
//! `hqnn_telemetry::add_jsonl_sink` (one [`hqnn_telemetry::Event`] per line)
//! and produces a deterministic plain-text report — same file in, same bytes
//! out, independent of host, thread count, or locale. That makes the outputs
//! safe to commit as golden files and safe to cite in perf discussions.
//!
//! The analyses:
//!
//! - [`critical::critical_path`] — the longest causal chain of spans, with
//!   per-hop self time. Uses `span_id`/`parent_id` causal edges when the
//!   trace carries them, and falls back to path-prefix aggregation for logs
//!   written before causal IDs existed.
//! - [`tree::tree`] — the span tree with per-path count, total, p50/p95/p99,
//!   allocation columns (when `HQNN_ALLOC=1` was set), and counter deltas.
//! - [`diff::diff`] — per-span-path median deltas between two traces,
//!   judged against a noise band of max(10 %, 4×MAD / baseline median).
//! - [`grep::grep`] — structured field filtering (`key=value`), re-emitting
//!   matching records as canonical JSONL.
//! - [`flame::flamegraph_diff`] — collapsed-stack output with base/current
//!   weight columns, weighted by self time or by allocated bytes.
//!
//! The `hqnn-obs` binary wraps each of these as a subcommand.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod critical;
pub mod diff;
pub mod flame;
pub mod grep;
pub mod model;

pub use critical::critical_path;
pub use diff::diff;
pub use flame::{flamegraph_diff, FlameWeight};
pub use grep::{grep, Filter};
pub use model::{ObsError, SpanRecord, Trace};

/// The span-tree analysis (kept in its own module for symmetry with the
/// other subcommands).
pub mod tree;
pub use tree::tree;
