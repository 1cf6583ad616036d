//! Golden-file tests: every analysis must reproduce the committed output
//! byte-for-byte on the committed fixture pair, and legacy (pre-causal-ID)
//! logs must keep loading.

use hqnn_obs::{critical_path, diff, flamegraph_diff, grep, tree, Filter, FlameWeight, Trace};
use hqnn_telemetry::Event;
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn load(name: &str) -> Trace {
    Trace::load(&fixture(name)).expect("fixture loads")
}

#[test]
fn critical_path_matches_golden() {
    assert_eq!(
        critical_path(&load("a.jsonl")),
        golden("critical_path_a.txt")
    );
}

#[test]
fn critical_path_legacy_fallback_matches_golden() {
    let trace = load("legacy.jsonl");
    assert!(!trace.has_causal_ids());
    assert_eq!(critical_path(&trace), golden("critical_path_legacy.txt"));
}

#[test]
fn diff_matches_golden() {
    let report = diff(&load("a.jsonl"), &load("b.jsonl"));
    assert_eq!(report, golden("diff_a_b.txt"));
}

#[test]
fn tree_matches_golden() {
    assert_eq!(tree(&load("a.jsonl")), golden("tree_a.txt"));
}

#[test]
fn flamegraph_diff_matches_golden() {
    let report = flamegraph_diff(&load("a.jsonl"), &load("b.jsonl"), FlameWeight::TimeUs);
    assert_eq!(report, golden("flame_a_b_time.txt"));
}

#[test]
fn analyses_are_deterministic_across_repeated_runs() {
    let (a, b) = (load("a.jsonl"), load("b.jsonl"));
    for _ in 0..3 {
        assert_eq!(critical_path(&a), critical_path(&a));
        assert_eq!(diff(&a, &b), diff(&a, &b));
    }
}

/// Legacy JSONL lines (no span_id/parent_id/alloc fields) must round-trip
/// through Event parse → serialize → parse unchanged: the optional fields
/// stay absent instead of materialising as nulls or zeros.
#[test]
fn legacy_events_round_trip_unchanged() {
    let text = std::fs::read_to_string(fixture("legacy.jsonl")).expect("read fixture");
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let ev: Event = serde_json::from_str(line).expect("parse legacy line");
        assert_eq!(ev.span_id, None, "{line}");
        assert_eq!(ev.parent_id, None, "{line}");
        let re = serde_json::to_string(&ev).expect("serialize");
        assert!(!re.contains("span_id"), "absent IDs must stay absent: {re}");
        let ev2: Event = serde_json::from_str(&re).expect("reparse");
        assert_eq!(ev, ev2);
    }
}

#[test]
fn grep_on_fixture_returns_loadable_subset() {
    let a = load("a.jsonl");
    let combos = grep(
        &a,
        &[
            Filter::parse("event=span").expect("filter"),
            Filter::parse("path=repro/search/combo").expect("filter"),
        ],
    )
    .expect("grep");
    assert_eq!(combos.lines().count(), 2);
    let reloaded = Trace::parse(&combos).expect("grep output reloads");
    assert!(reloaded
        .spans
        .iter()
        .all(|s| s.path == "repro/search/combo"));
}
