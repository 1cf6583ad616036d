//! The committed bench reports must keep loading through the loaders
//! `perfbench --check` and `perfbench --trend` use.
//!
//! `bench/baseline.json` and the `bench/history/BENCH_*.json` series were
//! written by older builds, and most carry manifest keys the current
//! `RunManifest` no longer has (the retired `"batch"` layout stamp and the
//! `"fuse"` stamp of the removed gate-fusion path). Those keys must be
//! ignored, not rejected. The baseline must name exactly the benchmarks
//! the current suite runs, so `--check` reports no missing ids, and carry
//! the analytic FLOPs the suite computes.

use std::path::PathBuf;

use hqnn_perfbench::{default_suite, load_history, BenchReport};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn committed_baseline_loads_and_matches_the_suite() {
    let path = repo_root().join("bench/baseline.json");
    let raw = std::fs::read_to_string(&path).expect("read baseline");
    for key in ["\"batch\"", "\"fuse\""] {
        assert!(
            raw.contains(key),
            "baseline should still carry the retired {key} key"
        );
    }
    let baseline = BenchReport::load(&path).expect("baseline loads through --check's loader");
    let suite = default_suite();
    let mut baseline_ids: Vec<&str> = baseline.results.iter().map(|r| r.id.as_str()).collect();
    let mut suite_ids: Vec<&str> = suite.iter().map(|b| b.id).collect();
    baseline_ids.sort_unstable();
    suite_ids.sort_unstable();
    assert_eq!(
        baseline_ids, suite_ids,
        "baseline and suite disagree on benchmark ids"
    );
    // The baseline's efficiency ratios are priced by its analytic FLOPs, so
    // they must be the ones the current cost model computes.
    for bench in &suite {
        let committed = baseline
            .results
            .iter()
            .find(|r| r.id == bench.id)
            .expect("ids matched above");
        assert_eq!(
            committed.analytic_flops_per_iter, bench.analytic_flops_per_iter,
            "{}: baseline analytic FLOPs differ from the suite's",
            bench.id
        );
    }
}

#[test]
fn committed_history_loads_through_the_trend_loader() {
    let dir = repo_root().join("bench/history");
    let history = load_history(&dir).expect("history loads through --trend's loader");
    assert!(!history.is_empty(), "bench/history has committed entries");
    assert!(history.iter().all(|r| !r.results.is_empty()));
    // The oldest entry predates the key; the later ones carry it.
    let with_retired_key = std::fs::read_dir(&dir)
        .expect("list history")
        .filter(|entry| {
            let path = entry.as_ref().expect("history entry").path();
            std::fs::read_to_string(path)
                .expect("read history entry")
                .contains("\"batch\"")
        })
        .count();
    assert!(
        with_retired_key > 0,
        "no history entry exercises the retired key"
    );
}
